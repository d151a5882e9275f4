//! Property tests: RRC protocol invariants hold for arbitrary workloads.

use hbr_cellular::{CellularRadio, L3Message, RrcConfig, RrcState};
use hbr_energy::EnergyMeter;
use hbr_sim::{SimDuration, SimTime};
use proptest::prelude::*;

fn run_workload(
    cfg: RrcConfig,
    gaps_ms: &[u64],
    bytes: usize,
) -> (Vec<(SimTime, L3Message)>, EnergyMeter, u64) {
    let mut radio = CellularRadio::new(cfg);
    let mut meter = EnergyMeter::new();
    let mut messages = Vec::new();
    let mut t = SimTime::ZERO;
    for &gap in gaps_ms {
        t += SimDuration::from_millis(gap);
        let out = radio.transmit(t, bytes);
        for (s, seg) in &out.activity.segments {
            meter.add_segment(*s, *seg);
        }
        messages.extend(out.activity.messages());
        t = out.delivered_at;
    }
    let fin = radio.finalize(t + SimDuration::from_secs(60));
    for (s, seg) in &fin.segments {
        meter.add_segment(*s, *seg);
    }
    messages.extend(fin.messages());
    (messages, meter, radio.connections())
}

proptest! {
    /// Establishments and releases are balanced once the radio quiesces,
    /// and a release never precedes its establishment.
    #[test]
    fn connections_balance(gaps in proptest::collection::vec(1u64..20_000, 1..40)) {
        let (messages, _, connections) = run_workload(RrcConfig::wcdma_galaxy_s4(), &gaps, 74);
        let requests = messages
            .iter()
            .filter(|(_, m)| *m == L3Message::RrcConnectionRequest)
            .count() as u64;
        let releases = messages
            .iter()
            .filter(|(_, m)| *m == L3Message::RrcConnectionRelease)
            .count() as u64;
        prop_assert_eq!(requests, connections);
        prop_assert_eq!(releases, connections);

        // First message overall must be a connection request.
        prop_assert_eq!(messages.first().map(|(_, m)| *m),
                        Some(L3Message::RrcConnectionRequest));
        // And globally, at no prefix do releases outnumber requests.
        let mut sorted = messages.clone();
        sorted.sort_by_key(|(t, _)| *t);
        let mut open = 0i64;
        for (_, m) in sorted {
            match m {
                L3Message::RrcConnectionRequest => open += 1,
                L3Message::RrcConnectionRelease => open -= 1,
                _ => {}
            }
            prop_assert!(open >= 0, "release before establishment");
        }
    }

    /// Back-to-back transmissions inside the tail reuse the connection, so
    /// signaling for n rapid messages is far below n full cycles.
    #[test]
    fn tail_reuse_saves_signaling(n in 2usize..20) {
        let gaps: Vec<u64> = std::iter::once(0)
            .chain(std::iter::repeat_n(500, n - 1)) // 0.5 s apart: inside DCH tail
            .collect();
        let (messages, _, connections) = run_workload(RrcConfig::wcdma_galaxy_s4(), &gaps, 74);
        prop_assert_eq!(connections, 1);
        // 0.5 s gaps sit entirely inside the 3 s DCH tail: no demotions
        // ever fire between transfers, so n messages cost exactly one
        // establish/demote/release cycle instead of n of them.
        let full_cycle = RrcConfig::wcdma_galaxy_s4().full_cycle_message_count();
        prop_assert_eq!(messages.len(), full_cycle);
    }

    /// Total energy is invariant to where `advance` is called between
    /// transmissions (accounting laziness never changes physics).
    #[test]
    fn advance_split_invariance(
        gaps in proptest::collection::vec(1u64..20_000, 1..20),
        probe_ms in proptest::collection::vec(1u64..120_000, 0..20),
    ) {
        let cfg = RrcConfig::wcdma_galaxy_s4();
        let (_, reference, _) = run_workload(cfg.clone(), &gaps, 74);

        // Re-run, sprinkling advance() probes at arbitrary instants.
        let mut radio = CellularRadio::new(cfg);
        let mut meter = EnergyMeter::new();
        let mut t = SimTime::ZERO;
        let mut probes = probe_ms.clone();
        probes.sort_unstable();
        let mut probe_iter = probes.into_iter();
        let mut next_probe = probe_iter.next();
        for &gap in &gaps {
            t += SimDuration::from_millis(gap);
            while let Some(p) = next_probe {
                let pt = SimTime::from_millis(p);
                if pt <= t {
                    if let Some(later) = pt.checked_since(SimTime::ZERO) {
                        let _ = later;
                    }
                    for (s, seg) in radio.advance(pt.max(SimTime::ZERO)).segments {
                        meter.add_segment(s, seg);
                    }
                    next_probe = probe_iter.next();
                } else {
                    break;
                }
            }
            let out = radio.transmit(t.max(SimTime::ZERO), 74);
            for (s, seg) in out.activity.segments {
                meter.add_segment(s, seg);
            }
            t = out.delivered_at;
        }
        for (s, seg) in radio.finalize(t + SimDuration::from_secs(60)).segments {
            meter.add_segment(s, seg);
        }
        let a = reference.total().as_micro_amp_hours();
        let b = meter.total().as_micro_amp_hours();
        prop_assert!((a - b).abs() < 1e-6 * a.max(1.0), "{a} vs {b}");
    }

    /// state_at is consistent with what a subsequent transmit observes:
    /// predicted Idle ⇒ new connection, predicted non-Idle ⇒ reuse.
    #[test]
    fn state_prediction_matches_behaviour(gap_ms in 1u64..30_000) {
        let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
        let first = radio.transmit(SimTime::ZERO, 74);
        let t2 = first.delivered_at + SimDuration::from_millis(gap_ms);
        let predicted = radio.state_at(t2);
        let second = radio.transmit(t2, 74);
        match predicted {
            RrcState::Idle => prop_assert_eq!(second.rrc_connections, 1),
            _ => prop_assert_eq!(second.rrc_connections, 0),
        }
    }

    /// State occupancy exactly partitions accounted time, whatever the
    /// workload, and the tail fraction stays in [0, 1].
    #[test]
    fn occupancy_partitions_time(gaps in proptest::collection::vec(1u64..30_000, 1..25)) {
        let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
        let mut t = SimTime::ZERO;
        for &gap in &gaps {
            t += SimDuration::from_millis(gap);
            let out = radio.transmit(t, 74);
            t = out.delivered_at;
        }
        let end = t + SimDuration::from_secs(60);
        radio.finalize(end);
        let occ = radio.occupancy();
        let total = occ.idle_secs + occ.dch_secs + occ.fach_secs;
        prop_assert!(
            (total - end.as_secs_f64()).abs() < 1e-6,
            "partition {total} vs horizon {}", end.as_secs_f64()
        );
        prop_assert!(occ.active_secs <= occ.dch_secs + 1e-9);
        let tail = occ.tail_fraction();
        prop_assert!((0.0..=1.0).contains(&tail));
    }

    /// Energy grows monotonically with the number of transmissions.
    #[test]
    fn energy_monotone_in_transmissions(n in 1usize..15) {
        let gaps_n: Vec<u64> = vec![10_000; n];
        let gaps_n1: Vec<u64> = vec![10_000; n + 1];
        let (_, m_n, _) = run_workload(RrcConfig::wcdma_galaxy_s4(), &gaps_n, 74);
        let (_, m_n1, _) = run_workload(RrcConfig::wcdma_galaxy_s4(), &gaps_n1, 74);
        prop_assert!(m_n1.total() > m_n.total());
    }
}
