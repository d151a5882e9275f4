//! Fig. 14 — the captured layer-3 signaling log.
//!
//! The paper's Fig. 14 is a NetOptiMaster screenshot: the timestamped
//! layer-3 messages of one heartbeat transmission in a WCDMA network.
//! Our `SignalingCapture` records exactly that structure; this binary
//! renders the capture for one full heartbeat cycle and for one
//! aggregated relay cycle serving two UEs, side by side with the message
//! budget of each.

use hbr_bench::{check, print_table, write_csv};
use hbr_cellular::{BaseStation, CellularRadio, L3Message, RrcConfig};
use hbr_sim::{DeviceId, SimDuration, SimTime};

fn capture_one_cycle(bytes: usize) -> BaseStation {
    let mut bs = BaseStation::new();
    let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
    let out = radio.transmit(SimTime::from_secs(1), bytes);
    bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
    let tail = radio.finalize(SimTime::from_secs(60));
    bs.record(DeviceId::new(0), &tail, 0);
    bs
}

fn main() {
    // One plain 74 B heartbeat.
    let single = capture_one_cycle(74);
    let rows: Vec<Vec<String>> = single
        .capture()
        .entries()
        .iter()
        .map(|e| {
            vec![
                format!("{:.3}", e.time.as_secs_f64()),
                e.device.to_string(),
                e.message.to_string(),
            ]
        })
        .collect();
    print_table(
        "Fig. 14 — captured layer-3 messages, one WCDMA heartbeat cycle",
        &["t (s)", "device", "layer-3 message"],
        &rows,
    );
    write_csv("fig14", &["t_s", "device", "message"], &rows).expect("csv");

    // One aggregated relay cycle: own heartbeat + 2 forwarded (74 + 2×54 B).
    let aggregated = capture_one_cycle(74 + 2 * 54);

    println!(
        "\nmessage budget: single heartbeat = {} msgs; aggregated (1 relay + 2 UEs) = {} msgs \
         instead of {} for three separate cycles",
        single.total_l3(),
        aggregated.total_l3(),
        3 * single.total_l3()
    );

    println!("\nShape checks:");
    check(
        "the cycle is the canonical WCDMA sequence",
        {
            let msgs: Vec<L3Message> = single
                .capture()
                .entries()
                .iter()
                .map(|e| e.message)
                .collect();
            msgs.first() == Some(&L3Message::RrcConnectionRequest)
                && msgs.last() == Some(&L3Message::RrcConnectionReleaseComplete)
                && msgs.contains(&L3Message::RadioBearerSetup)
                && msgs.contains(&L3Message::RadioBearerReconfiguration)
        },
        "request … release-complete with bearer setup and demotion",
    );
    check(
        "8 layer-3 messages per isolated heartbeat",
        single.total_l3() == 8,
        single.total_l3(),
    );
    check(
        "aggregation pays the budget once for three heartbeats",
        aggregated.total_l3() == single.total_l3(),
        aggregated.total_l3(),
    );
    check(
        "messages are spread across the promotion window, not bunched",
        {
            let times: Vec<f64> = single
                .capture()
                .entries()
                .iter()
                .map(|e| e.time.as_secs_f64())
                .collect();
            times.windows(2).all(|w| w[1] >= w[0])
                && times.last().unwrap() - times.first().unwrap() > 5.0
        },
        "monotone timestamps over the full cycle",
    );
    let _ = SimDuration::ZERO;
}
