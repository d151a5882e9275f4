//! Property tests for mobility invariants.

use std::collections::BTreeMap;

use hbr_mobility::model::Bounds;
use hbr_mobility::{Field, Mobility, PathLoss, Position};
use hbr_sim::snapshot::{Snap, SnapshotWriter};
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// A stationary cloud with ids `0..points.len()`.
fn cloud(points: &[(f64, f64)]) -> Field {
    points
        .iter()
        .enumerate()
        .map(|(i, &(x, y))| {
            (
                DeviceId::new(i as u32),
                Mobility::stationary(Position::new(x, y)),
            )
        })
        .collect()
}

/// Every device within `radius` of `centre_id`, nearest first with ties
/// by id, built from `iter()` alone: the contract `neighbours_within`
/// must meet.
fn brute_force(field: &Field, centre_id: DeviceId, radius: f64) -> Vec<(DeviceId, f64)> {
    let Some(centre) = field
        .iter()
        .find(|(id, _)| *id == centre_id)
        .map(|(_, p)| p)
    else {
        return Vec::new();
    };
    let mut out: Vec<(DeviceId, f64)> = field
        .iter()
        .filter(|(id, _)| *id != centre_id)
        .map(|(id, pos)| (id, centre.distance_to(pos)))
        .filter(|(_, d)| *d <= radius)
        .collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    out
}

/// Every tracked device's neighbour list equals the brute-force one.
fn assert_matches_brute_force(field: &Field, radius: f64, step: &str) {
    for (id, _) in field.iter() {
        assert_eq!(
            field.neighbours_within(id, radius),
            brute_force(field, id, radius),
            "{id} at radius {radius}, {step}"
        );
    }
}

/// A walker for the 200 m square the field tests use, up to date at `t`.
fn walker_at(x: f64, y: f64, t: SimTime) -> Mobility {
    Mobility::random_waypoint(Position::new(x, y), Bounds::square(200.0), 0.5, 1.5, 5.0)
        .started_at(t)
}

/// One mutation round after an advance: `newcomer` arrives at `(x, y)`
/// (a walker or a stationary phone, by `pick`), one tracked device picked
/// by `pick` leaves, and another swaps between standing still and
/// walking, in place or (as the boundary-churn fault may) from a new
/// start. `moving` mirrors which tracks move. Returns the round as
/// `(device, Some(model))` inserts and `(device, None)` removals, in the
/// order they were applied, so a reference can replay it.
fn mutate(
    field: &mut Field,
    moving: &mut BTreeMap<DeviceId, bool>,
    newcomer: DeviceId,
    (pick, x, y): (u64, f64, f64),
    t: SimTime,
) -> Vec<(DeviceId, Option<Mobility>)> {
    let mut round = Vec::new();
    let walks = pick % 2 == 0;
    let arrival = if walks {
        walker_at(x, y, t)
    } else {
        Mobility::stationary(Position::new(x, y)).started_at(t)
    };
    field.insert(newcomer, arrival.clone());
    moving.insert(newcomer, walks);
    round.push((newcomer, Some(arrival)));

    let ids: Vec<DeviceId> = moving.keys().copied().collect();
    let leaver = ids[(pick / 2) as usize % ids.len()];
    assert!(field.remove(leaver).is_some());
    moving.remove(&leaver);
    round.push((leaver, None));

    let ids: Vec<DeviceId> = moving.keys().copied().collect();
    if let Some(&swapped) = ids.get((pick / 7) as usize % ids.len().max(1)) {
        let at = if pick % 3 == 0 {
            Position::new(y, x)
        } else {
            field.position(swapped).expect("tracked device")
        };
        let now_moves = !moving[&swapped];
        let swap = if now_moves {
            Mobility::linear(at, (0.9, -0.4)).started_at(t)
        } else {
            Mobility::stationary(at).started_at(t)
        };
        field.insert(swapped, swap.clone());
        moving.insert(swapped, now_moves);
        round.push((swapped, Some(swap)));
    }
    round
}

proptest! {
    /// Random-waypoint devices never leave their bounds, whatever the
    /// sequence of advance instants.
    #[test]
    fn waypoint_confined(
        seed in any::<u64>(),
        steps in proptest::collection::vec(1u64..600, 1..60),
    ) {
        let bounds = Bounds::square(80.0);
        let mut m = Mobility::random_waypoint(
            Position::new(40.0, 40.0), bounds, 0.5, 1.5, 10.0,
        );
        let mut rng = SimRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        for s in steps {
            t += hbr_sim::SimDuration::from_secs(s);
            m.advance_to(t, &mut rng);
            prop_assert!(bounds.contains(m.position()));
        }
    }

    /// Total displacement never exceeds max speed × elapsed time.
    #[test]
    fn speed_limit_respected(seed in any::<u64>(), secs in 1u64..2000) {
        let start = Position::new(50.0, 50.0);
        let max_speed = 1.5;
        let mut m = Mobility::random_waypoint(
            start, Bounds::square(100.0), 0.5, max_speed, 0.0,
        );
        let mut rng = SimRng::seed_from(seed);
        m.advance_to(SimTime::from_secs(secs), &mut rng);
        let travelled = m.position().distance_to(start);
        prop_assert!(travelled <= max_speed * secs as f64 + 1e-6);
    }

    /// Distance estimation from a clean RSSI is exact for any geometry.
    #[test]
    fn rssi_inversion_exact(d in 1.0f64..400.0) {
        let ch = PathLoss::indoor_wifi();
        let est = ch.estimate_distance(ch.rssi_at(d));
        prop_assert!((est - d).abs() / d < 1e-9);
    }

    /// Neighbour lists are sorted by distance and contain only in-range ids.
    #[test]
    fn neighbours_sorted(points in proptest::collection::vec((0.0f64..100.0, 0.0f64..100.0), 2..30)) {
        let field: Field = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| (DeviceId::new(i as u32), Mobility::stationary(Position::new(x, y))))
            .collect();
        let centre = DeviceId::new(0);
        let radius = 40.0;
        let ns = field.neighbours_within(centre, radius);
        let mut last = 0.0;
        for (id, d) in &ns {
            prop_assert!(*id != centre);
            prop_assert!(*d <= radius);
            prop_assert!(*d >= last);
            last = *d;
        }
    }

    /// `neighbours_within` equals a brute-force list built from `iter()`
    /// for any random cloud, query radius and centre, and is empty for
    /// an untracked device. The field is queried first and then carried
    /// through a sequence of advances, each followed by an arrival, a
    /// departure and a stationary↔moving model swap.
    #[test]
    fn neighbours_equal_brute_force_across_mutations(
        points in proptest::collection::vec((0.0f64..200.0, 0.0f64..200.0), 1..60),
        radius in 0.0f64..90.0,
        seed in any::<u64>(),
        steps in proptest::collection::vec((0u64..180, any::<u64>(), 0.0f64..200.0, 0.0f64..200.0), 0..6),
    ) {
        let mut field = cloud(&points);
        let mut moving: BTreeMap<DeviceId, bool> =
            field.iter().map(|(id, _)| (id, false)).collect();
        // A walker and a drifting device so advancing genuinely moves
        // positions (a stationary cloud never changes its answers).
        let walker = DeviceId::new(10_000);
        field.insert(walker, walker_at(100.0, 100.0, SimTime::ZERO));
        field.insert(DeviceId::new(10_001), Mobility::linear(Position::new(0.0, 0.0), (1.3, 0.7)));
        moving.insert(walker, true);
        moving.insert(DeviceId::new(10_001), true);
        assert_matches_brute_force(&field, radius, "before any advance");

        let mut rng = SimRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        for (k, &(secs, pick, x, y)) in steps.iter().enumerate() {
            t += SimDuration::from_secs(secs);
            field.advance_to(t, &mut rng);
            assert_matches_brute_force(&field, radius, &format!("after advance {k}"));
            mutate(&mut field, &mut moving, DeviceId::new(20_000 + k as u32), (pick, x, y), t);
            assert_matches_brute_force(&field, radius, &format!("after mutation {k}"));
        }
        prop_assert!(field.neighbours_within(DeviceId::new(99_999), radius).is_empty());
    }

    /// Advancing only the movers is indistinguishable from advancing
    /// every track in id order: after any sequence of advances, arrivals,
    /// departures and model swaps over a mixed population, the field
    /// holds the same positions, its snapshot has the same bytes, and the
    /// shared RNG yields the same next draw as a reference that steps
    /// every model.
    #[test]
    fn movers_only_advance_matches_advancing_every_track(
        points in proptest::collection::vec((0.0f64..200.0, 0.0f64..200.0, 0u8..4), 1..40),
        seed in any::<u64>(),
        steps in proptest::collection::vec((1u64..600, any::<u64>(), 0.0f64..200.0, 0.0f64..200.0), 1..8),
    ) {
        let model = |i: usize, x: f64, y: f64, kind: u8| match kind {
            0 | 1 => Mobility::stationary(Position::new(x, y)),
            2 => walker_at(x, y, SimTime::ZERO),
            _ => Mobility::waypoint_path(
                Position::new(x, y),
                vec![(Position::new(y, x), 1.0 + i as f64 % 3.0, 20.0)],
            ),
        };
        let mut field: Field = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y, kind))| (DeviceId::new(i as u32), model(i, x, y, kind)))
            .collect();
        let mut reference: BTreeMap<DeviceId, Mobility> = points
            .iter()
            .enumerate()
            .map(|(i, &(x, y, kind))| (DeviceId::new(i as u32), model(i, x, y, kind)))
            .collect();
        let mut moving: BTreeMap<DeviceId, bool> = reference
            .iter()
            .map(|(id, m)| (*id, !m.is_stationary()))
            .collect();
        let mut rng = SimRng::seed_from(seed);
        let mut reference_rng = SimRng::seed_from(seed);
        let mut t = SimTime::ZERO;
        for (k, &(secs, pick, x, y)) in steps.iter().enumerate() {
            t += SimDuration::from_secs(secs);
            field.advance_to(t, &mut rng);
            for m in reference.values_mut() {
                m.advance_to(t, &mut reference_rng);
            }
            let newcomer = DeviceId::new(20_000 + k as u32);
            for (id, change) in mutate(&mut field, &mut moving, newcomer, (pick, x, y), t) {
                match change {
                    Some(m) => reference.insert(id, m),
                    None => reference.remove(&id),
                };
            }
            for (id, m) in &reference {
                prop_assert_eq!(field.position(*id), Some(m.position()), "step {}", k);
            }
            let mut ours = SnapshotWriter::new();
            field.snap(&mut ours);
            let mut theirs = SnapshotWriter::new();
            reference.snap(&mut theirs);
            t.snap(&mut theirs);
            prop_assert_eq!(ours.into_bytes(), theirs.into_bytes(), "snapshot, step {}", k);
        }
        prop_assert_eq!(rng.unit(), reference_rng.unit());
    }

    /// Exact-tie distances (lattice clouds put many devices at equal
    /// range) break by ascending id, as in the brute-force list, for a
    /// radius far smaller or larger than the lattice spacing.
    #[test]
    fn tie_breaking_matches_brute_force(
        n in 2usize..30,
        radius in 0.0f64..12.0,
    ) {
        // A 3×3-spaced lattice with duplicated cells: ids i and i+n sit
        // on the same point, so every distance appears at least twice.
        let field: Field = (0..2 * n)
            .map(|i| {
                let k = i % n;
                let pos = Position::new((k % 3) as f64 * 3.0, ((k / 3) % 3) as f64 * 3.0);
                (DeviceId::new(i as u32), Mobility::stationary(pos))
            })
            .collect();
        for i in 0..2 * n {
            let id = DeviceId::new(i as u32);
            let near = field.neighbours_within(id, radius);
            prop_assert_eq!(&near, &brute_force(&field, id, radius));
            // Ties are ordered by id: any equal-distance run ascends.
            for w in near.windows(2) {
                if w[0].1 == w[1].1 {
                    prop_assert!(w[0].0 < w[1].0);
                }
            }
        }
    }
}
