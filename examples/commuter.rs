//! Commuter: one UE, two relay "neighbourhoods", a walk between them.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example commuter
//! ```
//!
//! The paper's framework assumes opportunistic proximity; real users move
//! between pockets of proximity. A UE spends the morning near its home
//! relay, walks twenty minutes to the office (out of range of both), and
//! works the afternoon near the office relay. The example shows the
//! expected lifecycle: forward → detach + cellular fallback while in
//! transit → re-match to the new relay — with presence intact throughout,
//! and a trace of typed events (JSONL) to read the story from.

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::core::world::{DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::SimDuration;

fn main() {
    println!("Commuter: home relay at x=0, office relay at x=800 m\n");

    let mut config = ScenarioConfig::new(SimDuration::from_secs(6 * 3600), 99);
    config.mode = Mode::D2dFramework;
    config.trace_capacity = 64;

    for x in [0.0, 800.0] {
        config.add_device(DeviceSpec {
            role: Role::Relay,
            apps: vec![AppProfile::wechat()],
            mobility: Mobility::stationary(Position::new(x, 0.0)),
            battery_mah: None,
        });
    }
    // The commuter: 2 h at home (2 m from the home relay), a ~22 min walk
    // at 0.6 m/s, then parked 2 m from the office relay.
    config.add_device(DeviceSpec {
        role: Role::Ue,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::waypoint_path(
            Position::new(2.0, 0.0),
            vec![
                (Position::new(2.0, 0.0), 0.1, 2.0 * 3600.0), // linger at home
                (Position::new(798.0, 0.0), 0.6, 0.0),        // the commute
            ],
        ),
        battery_mah: None,
    });

    let report = Scenario::new(config).run();
    let home = &report.devices[0];
    let office = &report.devices[1];
    let ue = &report.devices[2];

    println!("home relay   : {} heartbeats collected", home.forwards);
    println!("office relay : {} heartbeats collected", office.forwards);
    println!(
        "commuter     : {} forwards, {} cellular sends (fallbacks {}), offline {:.0}s",
        ue.forwards, ue.rrc_connections, ue.fallbacks, ue.offline_secs
    );

    println!("\ntrace (last {} events):", report.trace.len());
    for record in &report.trace {
        println!("  {}", record.to_jsonl());
    }

    assert!(home.forwards > 0, "morning heartbeats ride the home relay");
    assert!(
        office.forwards > 0,
        "afternoon heartbeats ride the office relay"
    );
    assert!(
        ue.rrc_connections > 0,
        "the commute itself goes over cellular"
    );
    assert_eq!(report.offline_secs, 0.0, "presence survives the commute");
    println!("\nAll lifecycle assertions hold: forward → fallback in transit → re-match.");
}
