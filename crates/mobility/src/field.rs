//! The deployment field: every device's mobility track in one place.

use std::cell::RefCell;
use std::collections::BTreeMap;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{DeviceId, SimRng, SimTime};

use crate::grid::{sort_nearest_first, SpatialGrid};
use crate::model::Mobility;
use crate::position::Position;

/// Tracks the mobility model of every device and answers position,
/// distance and neighbourhood queries at the current simulation time.
///
/// Devices are stored in a `BTreeMap` so iteration order is
/// deterministic. Advancing touches only the *movers* — the tracks that
/// are not [`stationary`](Mobility::is_stationary) — in ascending id
/// order. Stationary models draw no randomness, so the shared RNG sees
/// exactly the draws, in exactly the order, of advancing every track.
///
/// # Examples
///
/// ```
/// use hbr_mobility::{Field, Mobility, Position};
/// use hbr_sim::{DeviceId, SimRng, SimTime};
///
/// let mut field = Field::new();
/// field.insert(DeviceId::new(0), Mobility::stationary(Position::ORIGIN));
/// field.insert(DeviceId::new(1), Mobility::stationary(Position::new(6.0, 8.0)));
/// field.insert(DeviceId::new(2), Mobility::stationary(Position::new(100.0, 0.0)));
///
/// let near = field.neighbours_within(DeviceId::new(0), 20.0);
/// assert_eq!(near, vec![(DeviceId::new(1), 10.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Field {
    tracks: BTreeMap<DeviceId, Mobility>,
    /// Ids of the non-stationary tracks, ascending: the only ones
    /// [`advance_to`](Field::advance_to) visits.
    movers: Vec<DeviceId>,
    now: SimTime,
    /// Spatial index over current positions, built lazily on the first
    /// neighbourhood query and from then on patched in place as devices
    /// move, arrive and leave. Interior mutability lets read-only
    /// queries populate the cache.
    grid: RefCell<Option<SpatialGrid>>,
}

impl Field {
    /// Creates an empty field at time zero.
    pub fn new() -> Self {
        Field::default()
    }

    /// Registers (or replaces) the mobility model for `device`.
    ///
    /// The field never advances a stationary track: it reports the
    /// track's clock (in snapshots and from [`remove`](Field::remove)) as
    /// the later of its own and the field's. That is what advancing it
    /// would give, provided the model is not behind the field's clock
    /// when inserted — mark one built mid-run with
    /// [`Mobility::started_at`].
    pub fn insert(&mut self, device: DeviceId, mobility: Mobility) {
        let to = mobility.position();
        let moves = !mobility.is_stationary();
        let replaced = self.tracks.insert(device, mobility);
        match (self.movers.binary_search(&device), moves) {
            (Err(slot), true) => self.movers.insert(slot, device),
            (Ok(slot), false) => {
                self.movers.remove(slot);
            }
            _ => {}
        }
        if let Some(grid) = self.grid.get_mut() {
            match replaced {
                Some(old) => grid.relocate(device, old.position(), to),
                None => grid.insert(device, to),
            }
        }
    }

    /// Removes a device's track, returning it if present. A stationary
    /// track comes back with its clock caught up to the field's, as if
    /// it had been advanced along with the movers.
    pub fn remove(&mut self, device: DeviceId) -> Option<Mobility> {
        let removed = self.tracks.remove(&device)?;
        if let Ok(slot) = self.movers.binary_search(&device) {
            self.movers.remove(slot);
        }
        if let Some(grid) = self.grid.get_mut() {
            grid.remove(device, removed.position());
        }
        Some(if removed.is_stationary() {
            let clock = removed.updated_at().max(self.now);
            removed.started_at(clock)
        } else {
            removed
        })
    }

    /// Number of tracked devices.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// `true` if no devices are tracked.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The instant the field was last advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances every device's mobility model to `now`. Instants at or
    /// before the current field time are no-ops — the field never rewinds.
    ///
    /// Only the movers are visited, in ascending id order, and each one
    /// that changed position is moved within the cached spatial index,
    /// so the cost scales with the moving devices, not the field.
    pub fn advance_to(&mut self, now: SimTime, rng: &mut SimRng) {
        if now <= self.now {
            return;
        }
        let grid = self.grid.get_mut();
        for id in &self.movers {
            let mobility = self.tracks.get_mut(id).expect("every mover is tracked");
            let from = mobility.position();
            mobility.advance_to(now, rng);
            let to = mobility.position();
            if to != from {
                if let Some(grid) = grid.as_mut() {
                    grid.relocate(*id, from, to);
                }
            }
        }
        self.now = now;
    }

    /// The position of `device` as of the last advance, if it is tracked.
    pub fn position(&self, device: DeviceId) -> Option<Position> {
        self.tracks.get(&device).map(Mobility::position)
    }

    /// Distance in metres between two tracked devices.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> Option<f64> {
        Some(self.position(a)?.distance_to(self.position(b)?))
    }

    /// Calls `visit(id, distance)` for every other device within
    /// `radius` metres of `device`, in no particular order. Visits
    /// nothing if `device` is not tracked or the radius is NaN or
    /// negative.
    ///
    /// Answered from a uniform-grid [`SpatialGrid`] index built lazily
    /// over the current positions and kept current in place by
    /// [`advance_to`](Field::advance_to), [`insert`](Field::insert) and
    /// [`remove`](Field::remove), so a detection sweep over the whole
    /// field costs O(n · local density) instead of O(n²). A caller that
    /// keeps only some of the neighbours filters here and sorts only
    /// what it kept.
    pub fn visit_within(
        &self,
        device: DeviceId,
        radius: f64,
        mut visit: impl FnMut(DeviceId, f64),
    ) {
        let Some(centre) = self.position(device) else {
            return;
        };
        if radius.is_nan() || radius < 0.0 {
            return;
        }
        if radius.is_infinite() {
            // An unbounded query touches everything anyway; the grid
            // cannot help.
            for (id, pos) in self.iter().filter(|(id, _)| *id != device) {
                visit(id, centre.distance_to(pos));
            }
            return;
        }
        {
            let mut cache = self.grid.borrow_mut();
            // Cells far narrower or wider than the query radius degrade
            // the scan back towards O(n); resize when out of proportion.
            // The steady state — the world querying one discovery radius
            // — never rebuilds here.
            let unsuitable = |g: &SpatialGrid| {
                radius > 0.0 && (g.cell_m() < radius / 8.0 || g.cell_m() > radius * 8.0)
            };
            if cache.as_ref().is_none_or(unsuitable) {
                *cache = Some(SpatialGrid::build(radius.max(1.0), self.iter()));
            }
        }
        self.grid
            .borrow()
            .as_ref()
            .expect("grid cache was just populated")
            .visit_within(device, centre, radius, visit);
    }

    /// All other devices within `radius` metres of `device`, sorted by
    /// ascending distance (ties broken by device id for determinism):
    /// [`visit_within`](Field::visit_within), collected and sorted.
    /// Returns an empty vector if `device` is not tracked. The result is
    /// identical to [`neighbours_within_scan`](Field::neighbours_within_scan).
    pub fn neighbours_within(&self, device: DeviceId, radius: f64) -> Vec<(DeviceId, f64)> {
        let mut out = Vec::new();
        self.visit_within(device, radius, |id, d| out.push((id, d)));
        sort_nearest_first(&mut out);
        out
    }

    /// Reference implementation of [`neighbours_within`](Field::neighbours_within)
    /// as a full linear scan. Kept as the oracle the grid's equivalence
    /// tests compare against.
    pub fn neighbours_within_scan(&self, device: DeviceId, radius: f64) -> Vec<(DeviceId, f64)> {
        let Some(centre) = self.position(device) else {
            return Vec::new();
        };
        let mut out: Vec<(DeviceId, f64)> = self
            .tracks
            .iter()
            .filter(|(id, _)| **id != device)
            .map(|(id, m)| (*id, centre.distance_to(m.position())))
            .filter(|(_, d)| *d <= radius)
            .collect();
        sort_nearest_first(&mut out);
        out
    }

    /// Iterates over `(device, position)` pairs in device-id order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, Position)> + '_ {
        self.tracks.iter().map(|(id, m)| (*id, m.position()))
    }
}

impl Snap for Field {
    /// The movers list and the spatial-grid cache are derived state: they
    /// are not serialised, and a restored field rebuilds the list at once
    /// and the grid on the first neighbourhood query. Tracks are written
    /// in the layout of a `BTreeMap<DeviceId, Mobility>`, each stationary
    /// one with its clock caught up to the field's.
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.tracks.len());
        for (id, mobility) in &self.tracks {
            id.snap(w);
            mobility.snap_at(self.now, w);
        }
        self.now.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let tracks: BTreeMap<DeviceId, Mobility> = BTreeMap::unsnap(r)?;
        let movers = tracks
            .iter()
            .filter(|(_, m)| !m.is_stationary())
            .map(|(id, _)| *id)
            .collect();
        Ok(Field {
            tracks,
            movers,
            now: SimTime::unsnap(r)?,
            grid: RefCell::new(None),
        })
    }
}

impl Extend<(DeviceId, Mobility)> for Field {
    fn extend<T: IntoIterator<Item = (DeviceId, Mobility)>>(&mut self, iter: T) {
        for (id, m) in iter {
            self.insert(id, m);
        }
    }
}

impl FromIterator<(DeviceId, Mobility)> for Field {
    fn from_iter<T: IntoIterator<Item = (DeviceId, Mobility)>>(iter: T) -> Self {
        let mut f = Field::new();
        f.extend(iter);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId::new(i)
    }

    fn static_field(positions: &[(u32, f64, f64)]) -> Field {
        positions
            .iter()
            .map(|&(i, x, y)| (dev(i), Mobility::stationary(Position::new(x, y))))
            .collect()
    }

    #[test]
    fn positions_and_distances() {
        let field = static_field(&[(0, 0.0, 0.0), (1, 3.0, 4.0)]);
        assert_eq!(field.position(dev(0)), Some(Position::ORIGIN));
        assert_eq!(field.distance(dev(0), dev(1)), Some(5.0));
        assert_eq!(field.distance(dev(0), dev(9)), None);
        assert_eq!(field.position(dev(9)), None);
    }

    #[test]
    fn neighbours_sorted_and_filtered() {
        let field = static_field(&[
            (0, 0.0, 0.0),
            (1, 10.0, 0.0),
            (2, 5.0, 0.0),
            (3, 100.0, 0.0),
        ]);
        let n = field.neighbours_within(dev(0), 20.0);
        assert_eq!(n, vec![(dev(2), 5.0), (dev(1), 10.0)]);
        assert!(field.neighbours_within(dev(9), 20.0).is_empty());
    }

    #[test]
    fn neighbour_ties_break_by_id() {
        let field = static_field(&[(0, 0.0, 0.0), (2, 1.0, 0.0), (1, -1.0, 0.0)]);
        let n = field.neighbours_within(dev(0), 5.0);
        assert_eq!(n, vec![(dev(1), 1.0), (dev(2), 1.0)]);
    }

    #[test]
    fn advance_moves_walkers() {
        let mut field = Field::new();
        field.insert(dev(0), Mobility::linear(Position::ORIGIN, (1.0, 0.0)));
        field.insert(dev(1), Mobility::stationary(Position::new(50.0, 0.0)));
        let mut rng = SimRng::seed_from(1);
        field.advance_to(SimTime::from_secs(30), &mut rng);
        assert_eq!(field.position(dev(0)), Some(Position::new(30.0, 0.0)));
        assert_eq!(field.distance(dev(0), dev(1)), Some(20.0));
        assert_eq!(field.now(), SimTime::from_secs(30));
    }

    #[test]
    fn remove_and_len() {
        let mut field = static_field(&[(0, 0.0, 0.0), (1, 1.0, 1.0)]);
        assert_eq!(field.len(), 2);
        assert!(field.remove(dev(0)).is_some());
        assert!(field.remove(dev(0)).is_none());
        assert_eq!(field.len(), 1);
        assert!(!field.is_empty());
    }

    #[test]
    fn grid_and_scan_agree_across_mutations() {
        let mut field = static_field(&[(0, 0.0, 0.0), (1, 3.0, 0.0), (2, 9.0, 9.0)]);
        field.insert(
            dev(3),
            Mobility::linear(Position::new(20.0, 0.0), (-1.0, 0.0)),
        );
        for radius in [0.0, 2.0, 10.0, 50.0] {
            assert_eq!(
                field.neighbours_within(dev(0), radius),
                field.neighbours_within_scan(dev(0), radius),
                "radius {radius} before advancing"
            );
        }
        // Moving devices must be moved within the cached index.
        let mut rng = SimRng::seed_from(4);
        field.advance_to(SimTime::from_secs(15), &mut rng);
        assert_eq!(
            field.neighbours_within(dev(0), 10.0),
            field.neighbours_within_scan(dev(0), 10.0),
        );
        assert!(field
            .neighbours_within(dev(0), 10.0)
            .iter()
            .any(|&(id, _)| id == dev(3)));
        // So must removal.
        field.remove(dev(1));
        assert_eq!(
            field.neighbours_within(dev(0), 10.0),
            field.neighbours_within_scan(dev(0), 10.0),
        );
    }

    #[test]
    fn stationary_clocks_catch_up_and_restored_movers_move() {
        let mut field = static_field(&[(0, 0.0, 0.0)]);
        field.insert(dev(1), Mobility::linear(Position::ORIGIN, (1.0, 0.0)));
        let mut rng = SimRng::seed_from(1);
        field.advance_to(SimTime::from_secs(40), &mut rng);

        let mut w = SnapshotWriter::new();
        field.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Field::unsnap(&mut SnapshotReader::new(&bytes)).unwrap();
        restored.advance_to(SimTime::from_secs(45), &mut rng);
        assert_eq!(restored.position(dev(1)), Some(Position::new(45.0, 0.0)));

        // Never advanced, the stationary track leaves exactly as an
        // eagerly advanced one would.
        let mut eager = Mobility::stationary(Position::ORIGIN);
        eager.advance_to(SimTime::from_secs(40), &mut rng);
        assert_eq!(field.remove(dev(0)), Some(eager));
    }

    #[test]
    fn degenerate_radii_are_safe() {
        let field = static_field(&[(0, 0.0, 0.0), (1, 1.0, 0.0)]);
        assert!(field.neighbours_within(dev(0), f64::NAN).is_empty());
        assert!(field.neighbours_within(dev(0), -1.0).is_empty());
        assert_eq!(field.neighbours_within(dev(0), f64::INFINITY).len(), 1);
    }

    #[test]
    fn iter_is_in_id_order() {
        let field = static_field(&[(2, 0.0, 0.0), (0, 1.0, 0.0), (1, 2.0, 0.0)]);
        let ids: Vec<_> = field.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
