//! Ablation — relay-selection policy (§III-C's "match the available
//! relay with the shortest distance").
//!
//! Three relays sit at 2 m, 8 m and 14 m from the UE. We compare
//! nearest / random / farthest selection over many stochastic sessions:
//! expected UE energy per delivered heartbeat (including cellular
//! retransmissions after D2D losses) and the observed loss rate.

use hbr_bench::{check, f, print_table, write_csv};
use hbr_cellular::RrcConfig;
use hbr_d2d::{D2dLink, TechProfile};
use hbr_sim::{SimRng, SimTime};

#[derive(Clone, Copy)]
enum Policy {
    Nearest,
    Random,
    Farthest,
}

fn pick(policy: Policy, distances: &[f64], rng: &mut SimRng) -> f64 {
    match policy {
        Policy::Nearest => distances.iter().copied().fold(f64::INFINITY, f64::min),
        Policy::Farthest => distances.iter().copied().fold(0.0, f64::max),
        Policy::Random => *rng.pick(distances).expect("non-empty"),
    }
}

fn main() {
    let distances = [2.0, 8.0, 14.0];
    let tech = TechProfile::wifi_direct();
    let cellular_uah = RrcConfig::wcdma_galaxy_s4().full_cycle_charge_uah(54);
    let sessions = 2000;
    let forwards_per_session = 8;

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (name, policy) in [
        ("nearest", Policy::Nearest),
        ("random", Policy::Random),
        ("farthest", Policy::Farthest),
    ] {
        let mut rng = SimRng::seed_from(99);
        let mut total_uah = 0.0;
        let mut losses = 0u64;
        let mut delivered = 0u64;
        for _ in 0..sessions {
            let d = pick(policy, &distances, &mut rng);
            let (mut link, ue_cost, _) = D2dLink::establish(&tech, SimTime::ZERO);
            total_uah += ue_cost.charge().as_micro_amp_hours();
            let mut t = link.ready_at().unwrap();
            for _ in 0..forwards_per_session {
                let out = link.transfer(&tech, t, 54, d, &mut rng);
                total_uah += out.sender.charge().as_micro_amp_hours();
                if out.success {
                    delivered += 1;
                } else {
                    losses += 1;
                    // Fallback: the heartbeat must go over cellular.
                    total_uah += cellular_uah;
                    delivered += 1;
                }
                t = out.completed_at + hbr_sim::SimDuration::from_secs(1);
            }
        }
        let per_hb = total_uah / delivered as f64;
        let loss_rate = losses as f64 / (losses + delivered) as f64;
        results.push((name, per_hb, loss_rate));
        rows.push(vec![
            name.to_string(),
            f(per_hb, 1),
            f(loss_rate * 100.0, 2),
        ]);
    }

    print_table(
        "Matching ablation — relays at 2/8/14 m, 2000 sessions × 8 forwards",
        &["Policy", "UE µAh per heartbeat", "Loss %"],
        &rows,
    );
    write_csv(
        "ablation_matching",
        &["policy", "uah_per_hb", "loss_pct"],
        &rows,
    )
    .expect("write csv");

    let nearest = results[0].1;
    let farthest = results[2].1;
    println!("\nShape checks:");
    check(
        "nearest-relay matching is the cheapest policy",
        results.iter().all(|(_, e, _)| nearest <= *e),
        format!("{nearest:.1} µAh/hb"),
    );
    check(
        "farthest is measurably worse (Fig. 12's distance slope)",
        farthest > nearest * 1.3,
        format!("{farthest:.1} vs {nearest:.1} µAh/hb"),
    );
    check(
        "random sits between the extremes",
        results[1].1 > nearest && results[1].1 < farthest,
        f(results[1].1, 1),
    );
}
