//! Motivation claims (§I): heartbeats are a sliver of the *data* traffic
//! but a huge share of the *signaling* traffic — and a real battery tax.
//!
//! Three numbers from the introduction, reproduced here:
//!
//! 1. WeChat heartbeats account for "only 10% of cellular data traffic"
//!    but "60% of cellular signaling traffic" (China Mobile).
//! 2. "A smartphone spends at least 6% of its battery capacity in
//!    sending heartbeat messages even with only one IM app running".
//! 3. Nearly half of all messages are heartbeats (Table I — see
//!    `exp_table1`).

use hbr_apps::{AppProfile, TrafficEvent, TrafficGenerator};
use hbr_bench::{check, f, pct, print_table, write_csv};
use hbr_cellular::{CellularRadio, RrcConfig};
use hbr_energy::Battery;
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};

fn main() {
    // --- Claim 1: byte share vs signaling share -------------------------
    let app = AppProfile::wechat();
    let mut generator = TrafficGenerator::new(DeviceId::new(0), app.clone());
    let mut rng = SimRng::seed_from(1);
    let day = SimTime::from_secs(24 * 3600);
    let trace = generator.trace_until(day, &mut rng);

    let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
    let mut hb_bytes = 0u64;
    let mut data_bytes = 0u64;
    let mut hb_l3 = 0u64;
    let mut data_l3 = 0u64;
    let mut last = SimTime::ZERO;
    for event in &trace {
        let (at, bytes, is_hb) = match event {
            TrafficEvent::Heartbeat(hb) => (hb.created_at, hb.size, true),
            TrafficEvent::Data { at, size } => (*at, *size, false),
        };
        let out = radio.transmit(at.max(last), bytes);
        last = out.delivered_at;
        let l3 = out.activity.message_count() as u64;
        if is_hb {
            hb_bytes += bytes as u64;
            hb_l3 += l3;
        } else {
            data_bytes += bytes as u64;
            data_l3 += l3;
        }
    }
    // Attribute release/demotion tails to whoever triggered them last —
    // aggregate them proportionally instead for a fair split.
    let tail = radio.finalize(last + SimDuration::from_secs(60));
    let tail_l3 = tail.message_count() as u64;
    let hb_l3 = hb_l3 + tail_l3 * hb_l3 / (hb_l3 + data_l3).max(1);

    let byte_share = hb_bytes as f64 / (hb_bytes + data_bytes) as f64;
    let signaling_share = hb_l3 as f64 / (hb_l3 + data_l3) as f64;

    let rows = vec![
        vec![
            "bytes".into(),
            hb_bytes.to_string(),
            data_bytes.to_string(),
            pct(byte_share),
            "≈10%".into(),
        ],
        vec![
            "layer-3 msgs".into(),
            hb_l3.to_string(),
            data_l3.to_string(),
            pct(signaling_share),
            "≈60%".into(),
        ],
    ];
    print_table(
        "§I — WeChat, 24 h: heartbeat share of data vs signaling traffic",
        &["metric", "heartbeats", "foreground", "hb share", "paper"],
        &rows,
    );
    write_csv(
        "motivation_shares",
        &["metric", "heartbeats", "foreground", "hb_share", "paper"],
        &rows,
    )
    .expect("csv");

    // --- Claim 2: battery share ----------------------------------------
    // One IM app, heartbeats only, 24 h, Galaxy S4 2600 mAh pack.
    let mut hb_only = TrafficGenerator::new(DeviceId::new(0), app.clone());
    let mut rng2 = SimRng::seed_from(2);
    let mut radio2 = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
    let mut battery = Battery::with_capacity_mah(2600.0);
    let mut last2 = SimTime::ZERO;
    for event in hb_only.trace_until(day, &mut rng2) {
        if let TrafficEvent::Heartbeat(hb) = event {
            let out = radio2.transmit(hb.created_at.max(last2), hb.size);
            last2 = out.delivered_at;
            for (_, seg) in &out.activity.segments {
                battery.drain(seg.charge());
            }
        }
    }
    for (_, seg) in &radio2.finalize(last2 + SimDuration::from_secs(60)).segments {
        battery.drain(seg.charge());
    }
    let battery_share = battery.drained().fraction_of(battery.capacity());
    println!(
        "\n§I battery claim — WeChat heartbeats alone, 24 h on a 2600 mAh pack: {} of capacity (paper: ≥6%)",
        pct(battery_share)
    );

    println!("\nShape checks:");
    check(
        "heartbeats are a small minority of data bytes",
        byte_share < 0.25,
        format!("{} (paper ≈10%)", pct(byte_share)),
    );
    check(
        "but a majority-scale share of signaling",
        signaling_share > 0.45,
        format!("{} (paper ≈60%)", pct(signaling_share)),
    );
    check(
        "signaling share dwarfs byte share (the storm argument)",
        signaling_share > byte_share * 3.0,
        format!(
            "×{:.1} amplification",
            signaling_share / byte_share.max(1e-9)
        ),
    );
    check(
        "one app's heartbeats cost ≥6% of the battery per day",
        battery_share >= 0.06,
        pct(battery_share),
    );
    let _ = f(0.0, 0);
}
