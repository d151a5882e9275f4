//! The runtime invariant checker must be *live*: a clean scenario runs
//! silently, a deliberately broken engine is caught, and the checker
//! itself never perturbs results.

use std::panic::{catch_unwind, AssertUnwindSafe};

use d2d_heartbeat::apps::AppProfile;
use d2d_heartbeat::core::world::{ChaosMutation, DeviceSpec, Mode, Role, Scenario, ScenarioConfig};
use d2d_heartbeat::mobility::{Mobility, Position};
use d2d_heartbeat::sim::fault::FaultKind;
use d2d_heartbeat::sim::{DeviceId, SimDuration, SimTime};

fn crowded_config(seed: u64) -> ScenarioConfig {
    let mut config = ScenarioConfig::new(SimDuration::from_secs(2 * 3600), seed);
    config.mode = Mode::D2dFramework;
    // A tiny relay capacity with five close UEs: plenty of arrivals per
    // period, so a scheduler that ignores its capacity flush overflows
    // within the first period.
    config.framework.relay_capacity = 2;
    config.add_device(spec(Role::Relay, 0.0));
    for x in 1..=5 {
        config.add_device(spec(Role::Ue, x as f64));
    }
    config
}

fn spec(role: Role, x: f64) -> DeviceSpec {
    DeviceSpec {
        role,
        apps: vec![AppProfile::wechat()],
        mobility: Mobility::stationary(Position::new(x, 0.0)),
        battery_mah: None,
    }
}

#[test]
fn clean_run_passes_the_checker() {
    let mut config = crowded_config(42);
    config.check_invariants = Some(true);
    config.trace_capacity = 2000;
    let report = Scenario::new(config).run();
    assert!(report.delivered > 0);
}

#[test]
fn broken_scheduler_is_caught_by_the_checker() {
    // Mutation smoke test: rewire the engine to ignore Algorithm 1's
    // capacity flush, so the relay buffers past M. The per-step buffer
    // check must trip — proving the checker actually watches the run
    // rather than vacuously passing.
    let mut config = crowded_config(42);
    config.check_invariants = Some(true);
    config.trace_capacity = 2000;
    config.mutation = Some(ChaosMutation::IgnoreCapacityFlush);
    let result = catch_unwind(AssertUnwindSafe(move || Scenario::new(config).run()));
    let err = result.expect_err("the mutated engine must trip the checker");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("invariant violation"),
        "expected an invariant violation, got: {msg}"
    );
    assert!(
        msg.contains("capacity"),
        "the violation must name the capacity bound, got: {msg}"
    );
    assert!(
        msg.contains("{\"t_us\":"),
        "the violation must carry the trace as typed JSONL records, got: {msg}"
    );
}

#[test]
fn mutated_engine_passes_silently_with_the_checker_off() {
    // The complement of the smoke test: with the checker disabled the
    // same broken engine runs to completion — the violation is caught by
    // the checker, not by an unrelated assertion elsewhere.
    let mut config = crowded_config(42);
    config.check_invariants = Some(false);
    config.mutation = Some(ChaosMutation::IgnoreCapacityFlush);
    let _ = Scenario::new(config).run();
}

#[test]
fn checker_never_perturbs_results() {
    // The checker is pure observation: a faulted scenario must render
    // the identical report with the checker on and off.
    let build = |check: bool| {
        let mut config = crowded_config(7);
        config.check_invariants = Some(check);
        config.faults.schedule(
            SimTime::from_secs(1000),
            FaultKind::LinkDrop {
                device: DeviceId::new(1),
                d2d_down_for: SimDuration::from_secs(600),
            },
        );
        config.faults.schedule(
            SimTime::from_secs(2500),
            FaultKind::CellularOutage {
                duration: SimDuration::from_secs(450),
            },
        );
        Scenario::new(config).run()
    };
    let checked = build(true);
    let unchecked = build(false);
    assert_eq!(checked.render(), unchecked.render());
}

#[test]
fn faulted_runs_pass_the_checker_for_every_kind() {
    // Each fault kind, on under the checker: no false positives from
    // outage queues, departures or blackout re-matching.
    let kinds: Vec<(&str, FaultKind)> = vec![
        (
            "drop",
            FaultKind::LinkDrop {
                device: DeviceId::new(1),
                d2d_down_for: SimDuration::from_secs(600),
            },
        ),
        (
            "degrade",
            FaultKind::LinkDegrade {
                device: DeviceId::new(1),
                extra_loss: 1.0,
                duration: SimDuration::from_secs(600),
            },
        ),
        (
            "depart",
            FaultKind::RelayDeparture {
                device: DeviceId::new(0),
                rejoin_after: Some(SimDuration::from_secs(900)),
            },
        ),
        (
            "blackout",
            FaultKind::DiscoveryBlackout {
                duration: SimDuration::from_secs(600),
            },
        ),
        (
            "outage",
            FaultKind::CellularOutage {
                duration: SimDuration::from_secs(450),
            },
        ),
        (
            "loss",
            FaultKind::PayloadLoss {
                device: DeviceId::new(1),
                probability: 0.8,
                duration: SimDuration::from_secs(600),
            },
        ),
    ];
    for (name, kind) in kinds {
        let mut config = crowded_config(11);
        config.check_invariants = Some(true);
        config.trace_capacity = 2000;
        config.faults.schedule(SimTime::from_secs(1500), kind);
        let report = Scenario::new(config).run();
        assert!(report.delivered > 0, "fault {name}: nothing delivered");
    }
}
