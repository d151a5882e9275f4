//! Component-level conformance scenarios: the real delivery stack
//! (scheduler, ledger, feedback tracker, server, invariant checker)
//! behind a scripted relay.
//!
//! Timing cheat-sheet for the defaults used below (`StackConfig`):
//! feedback timeout 300 s, relay period 60 s, capacity 7, backoff
//! 5 s base / 60 s cap / 3 attempts / ±20 % jitter, server expiration
//! 810 s. A heartbeat with an 810 s budget has its liveness deadline at
//! 540 s (two thirds of the budget), so the last useful retry instant
//! is 532 s (`RESCUE_MARGIN` = 8 s).

use d2d_heartbeat::core::BackoffPolicy;
use d2d_heartbeat::sim::{SimDuration, SimTime};
use hbr_conform::{
    run_reproducible, DagReport, RelayMode, ScenarioDag, StackConfig, StackHarness, StackSnapshot,
    StackView, Stim,
};

/// FNV-1a over a rendered event log, as `golden_telemetry.rs` hashes
/// its artifacts.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins a scenario's rendered step log. `run_reproducible` compares two
/// runs of one build, so only a committed hash catches a change that
/// rewrites a protocol-step line. Re-pin with `HBR_PRINT_GOLDEN=1 cargo
/// test --test conformance -- --nocapture` only for an intended change.
fn assert_log_pinned(report: &DagReport, golden: u64) {
    report.assert_ok();
    let log = report.render();
    if std::env::var("HBR_PRINT_GOLDEN").is_ok() {
        println!(
            "{} log hash: {:#018x} ({} bytes)",
            report.name(),
            fnv1a(&log),
            log.len()
        );
    }
    assert_eq!(
        fnv1a(&log),
        golden,
        "the step log of '{}' drifted:\n{log}",
        report.name()
    );
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

fn at(s: u64) -> SimTime {
    SimTime::from_secs(s)
}

fn emit(seq: u32, budget_secs: u64) -> Stim {
    Stim::Emit {
        seq,
        budget: secs(budget_secs),
    }
}

/// Shared quiescence conditions: the ledger audit balances and no retry
/// was ever planned past the liveness deadline.
fn require_clean_books(d: &mut ScenarioDag<StackHarness>) {
    d.require("books-balance", |s: &StackSnapshot| {
        // The invariant checker already panics on silent loss at
        // quiescence; here we pin its fate tallies to the live view.
        let a = &s.audit;
        if s.view.in_flight as u64 == a.in_flight && a.delivered == s.view.server_delivered {
            Ok(format!(
                "audit: {} delivered, {} expired, {} in flight",
                a.delivered, a.expired, a.in_flight
            ))
        } else {
            Err(format!("audit {a:?} vs view {:?}", s.view))
        }
    });
    d.require("liveness-budget-respected", |s: &StackSnapshot| {
        if s.retry_violations.is_empty() {
            Ok(String::from("no retry planned past liveness"))
        } else {
            Err(s.retry_violations.join("; "))
        }
    });
}

/// Duplicate storms into the seq-dedup layer: after a clean delivery,
/// fresh-id copies of the same `(source, app, seq)` must all be
/// swallowed by the sequence layer, and an exact re-send of the
/// original copy by the id layer. Exactly one delivery survives.
#[test]
fn duplicate_storm_is_swallowed_by_both_dedup_layers() {
    run_reproducible(|| {
        let mut d = ScenarioDag::new("duplicate-storm");
        let e = d.inject("emit", emit(9, 810));
        let flush = d.advance("period-flush", at(61));
        let storm = d.inject("storm", Stim::DuplicateStorm { copies: 4 });
        let resend = d.inject("resend-original", Stim::RedeliverLastCopy);
        let drain = d.advance("drain", at(120));
        d.chain(&[e, flush, storm, resend, drain]);
        d.require("exactly-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.view.server_duplicates == 5 {
                Ok(String::from("1 accepted, 5 swallowed"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("layers-named-in-order", |s: &StackSnapshot| {
            let want = [
                "seq9:accepted",
                "seq9:duplicate-seq",
                "seq9:duplicate-seq",
                "seq9:duplicate-seq",
                "seq9:duplicate-seq",
                "seq9:duplicate-id",
            ];
            if s.outcomes == want {
                Ok(String::from("seq layer then id layer"))
            } else {
                Err(format!("outcomes {:?}", s.outcomes))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(StackConfig::default()))
    })
    .assert_ok();
}

/// Departure racing the feedback deadline, interleaving 1: the relay
/// departs *while the forward is still awaiting feedback*. The pending
/// entry must be retracted (not left to time out), the heartbeat
/// requeued, and — after a rejoin — redelivered exactly once.
#[test]
fn departure_before_feedback_deadline_retracts_then_rejoins() {
    let report = run_reproducible(|| {
        // Long relay period keeps the heartbeat buffered (and its
        // feedback pending) when the departure lands.
        let config = StackConfig {
            period: secs(600),
            feedback_timeout: secs(700),
            ..StackConfig::default()
        };
        let mut d = ScenarioDag::new("departure-before-feedback-deadline");
        let e = d.inject("emit", emit(1, 810));
        let t100 = d.advance("position", at(100));
        let depart = d.perturb("depart", Stim::Depart);
        let check = d.expect("retracted-not-pending", |v: &StackView| {
            if v.feedback_pending == 0 && v.in_flight == 1 {
                Ok(String::from("feedback retracted, ledger still owns it"))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        let rejoin = d.inject("rejoin", Stim::Rejoin);
        let drain = d.advance("drain", at(900));
        d.chain(&[e, t100, depart, check, rejoin, drain]);
        d.require("redelivered-exactly-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 1
                && s.view.server_duplicates == 0
                && s.view.retries == 1
                && s.view.fallbacks == 0
            {
                Ok(String::from("1 delivery via 1 D2D retry"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("retraction-observed", |s: &StackSnapshot| {
            if s.hook_log
                .iter()
                .any(|l| l.contains("feedback-retracted n=1"))
            {
                Ok(String::from("retract n=1 in hook log"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(config))
    });
    assert_log_pinned(&report, 0xceae_cfc0_93f6_e0df);
}

/// Departure racing the feedback deadline, interleaving 2: the flush
/// (and its feedback confirmation) wins the race. The departure then
/// finds nothing pending and the retraction must be a no-op — no
/// phantom requeue, no second delivery.
#[test]
fn departure_after_flush_is_a_retract_noop() {
    run_reproducible(|| {
        let mut d = ScenarioDag::new("departure-after-flush");
        let e = d.inject("emit", emit(1, 810));
        let flush = d.advance("period-flush", at(61));
        let depart = d.perturb("depart", Stim::Depart);
        let drain = d.advance("drain", at(200));
        d.chain(&[e, flush, depart, drain]);
        d.require("no-second-delivery", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.view.retries == 0 && s.view.fallbacks == 0 {
                Ok(String::from("flush won; departure changed nothing"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("retract-was-noop", |s: &StackSnapshot| {
            if s.hook_log
                .iter()
                .any(|l| l.contains("feedback-retracted n=0"))
            {
                Ok(String::from("retract n=0 in hook log"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(StackConfig::default()))
    })
    .assert_ok();
}

/// Two departures in one epoch: the second retraction hits entries that
/// are already retracted and must be idempotent (the satellite fix in
/// `FeedbackTracker::retract`). The heartbeat still gets redelivered
/// exactly once after the rejoin.
#[test]
fn double_departure_in_one_epoch_is_idempotent() {
    run_reproducible(|| {
        let config = StackConfig {
            period: secs(600),
            feedback_timeout: secs(700),
            ..StackConfig::default()
        };
        let mut d = ScenarioDag::new("double-departure-one-epoch");
        let e = d.inject("emit", emit(1, 810));
        let t50 = d.advance("position", at(50));
        let first = d.perturb("depart-1", Stim::Depart);
        let second = d.perturb("depart-2", Stim::Depart);
        let check = d.expect("still-owned-once", |v: &StackView| {
            if v.in_flight == 1 && v.feedback_pending == 0 {
                Ok(String::from("one ledger entry, nothing pending twice"))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        let rejoin = d.inject("rejoin", Stim::Rejoin);
        let drain = d.advance("drain", at(900));
        d.chain(&[e, t50, first, second, check, rejoin, drain]);
        d.require("exactly-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.view.server_duplicates == 0 {
                Ok(format!("1 delivery after {} retry(ies)", s.view.retries))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("second-retract-was-noop", |s: &StackSnapshot| {
            let real = s
                .hook_log
                .iter()
                .any(|l| l.contains("feedback-retracted n=1"));
            let noop = s
                .hook_log
                .iter()
                .any(|l| l.contains("feedback-retracted n=0"));
            if real && noop {
                Ok(String::from("retract n=1 then retract n=0"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(config))
    })
    .assert_ok();
}

/// PR 5 liveness race, interleaving 1 (the original regression): a
/// lossy relay forces feedback-timeout rescues; the second retry would
/// land after the liveness deadline (540 s for an 810 s budget) and
/// must be refused in favour of an immediate cellular fallback.
/// Reverting `plan_retry` to budget against `expires_at` plans that
/// retry at ~615 s and `retry_violations` turns non-empty.
#[test]
fn liveness_budget_blocks_late_retry() {
    run_reproducible(|| {
        let mut d = ScenarioDag::new("liveness-blocks-late-retry");
        let lossy = d.perturb("lossy-relay", Stim::Relay(RelayMode::LosingPayloads));
        let e = d.inject("emit", emit(1, 810));
        // Feedback times out at 300 s; the first retry (~305 s) has not
        // fired yet at 302 s.
        let t302 = d.advance("first-timeout", at(302));
        let planned = d.expect("first-retry-planned", |v: &StackView| {
            if v.retries == 1 && v.fallbacks == 0 && v.in_flight == 1 {
                Ok(String::from("retry 1 planned, no fallback yet"))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        // The first retry fires (~305 s) and is lost again; its
        // feedback deadline (~605 s) is past the liveness deadline.
        let t550 = d.advance("past-liveness", at(550));
        let pending = d.expect("still-pending-past-liveness", |v: &StackView| {
            if v.server_delivered == 0 && v.fallbacks == 0 && v.feedback_pending == 1 {
                Ok(String::from("awaiting the doomed feedback"))
            } else {
                Err(format!("view {v:?}"))
            }
        });
        let drain = d.advance("drain", at(810));
        d.chain(&[lossy, e, t302, planned, t550, pending, drain]);
        d.require("rescued-by-fallback", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.view.retries == 1 && s.view.fallbacks == 1 {
                Ok(String::from("retry 2 refused; cellular rescued it"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("refusal-recorded", |s: &StackSnapshot| {
            if s.hook_log.iter().any(|l| l.contains("retry-exhausted")) {
                Ok(String::from("ledger reported the refusal"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        d.require("never-read-as-dead", |s: &StackSnapshot| {
            if s.offline_secs == 0.0 {
                Ok(String::from("presence gap 0 s"))
            } else {
                Err(format!("{} s offline", s.offline_secs))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(StackConfig::default()))
    })
    .assert_ok();
}

/// PR 5 liveness race, interleaving 2: an aggressive backoff whose
/// delays clamp at the cap, cycling retry → timeout → retry right up to
/// the liveness boundary. The attempt budget (6) is *not* what stops
/// the cycle — the liveness deadline is, and no planned retry may cross
/// it.
#[test]
fn backoff_cap_boundary_at_liveness_deadline() {
    let report = run_reproducible(|| {
        let config = StackConfig {
            feedback_timeout: secs(50),
            backoff: BackoffPolicy {
                base: secs(40),
                cap: secs(60),
                max_attempts: 6,
                jitter_frac: 0.2,
            },
            ..StackConfig::default()
        };
        let mut d = ScenarioDag::new("backoff-cap-at-liveness");
        let lossy = d.perturb("lossy-relay", Stim::Relay(RelayMode::LosingPayloads));
        let e = d.inject("emit", emit(1, 810));
        let drain = d.advance("drain", at(810));
        d.chain(&[lossy, e, drain]);
        d.require("cap-cycle-ran", |s: &StackSnapshot| {
            // Each cycle is ~50 s timeout + a capped ~60 s delay; the
            // liveness boundary (532 s) admits 4 or 5 of them depending
            // on jitter, never the full attempt budget of 6.
            if (4..=5).contains(&s.view.retries) && s.view.fallbacks == 1 {
                Ok(format!("{} capped retries, then fallback", s.view.retries))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("exactly-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.view.server_duplicates == 0 {
                Ok(String::from("one delivery despite the churn"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(config))
    });
    assert_log_pinned(&report, 0x5479_01de_f2f3_cc5d);
}

/// Algorithm 1's two flush triggers racing: the seventh arrival fills
/// the buffer and must flush on capacity *at the arrival instant*,
/// opening a fresh period that the eighth arrival rides to the period
/// deadline. No duplicate, no rejection.
#[test]
fn capacity_flush_races_period_deadline() {
    run_reproducible(|| {
        let mut d = ScenarioDag::new("capacity-races-period");
        let mut chain = Vec::new();
        for seq in 1..=6u32 {
            chain.push(d.inject(format!("emit-{seq}"), emit(seq, 810)));
        }
        chain.push(d.expect("six-buffered", |v: &StackView| {
            if v.relay_buffered == 6 && v.server_delivered == 0 {
                Ok(String::from("buffer one short of capacity"))
            } else {
                Err(format!("view {v:?}"))
            }
        }));
        chain.push(d.inject("emit-7-capacity", emit(7, 810)));
        chain.push(d.expect("capacity-flushed", |v: &StackView| {
            if v.server_delivered == 7 && v.relay_buffered == 0 {
                Ok(String::from("capacity flush landed at the arrival instant"))
            } else {
                Err(format!("view {v:?}"))
            }
        }));
        chain.push(d.inject("emit-8-next-period", emit(8, 810)));
        chain.push(d.advance("period-flush", at(61)));
        d.chain(&chain);
        d.require("all-eight-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 8
                && s.view.server_duplicates == 0
                && s.view.fallbacks == 0
            {
                Ok(String::from("7 on capacity + 1 on period"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("capacity-reason-observed", |s: &StackSnapshot| {
            if s.hook_log
                .iter()
                .any(|l| l.contains("Flush(CapacityReached)"))
            {
                Ok(String::from("scheduler named CapacityReached"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(StackConfig::default()))
    })
    .assert_ok();
}

/// A short-budget heartbeat through a lossy relay: the feedback
/// deadline is *capped* at `expires_at − RESCUE_MARGIN` (92 s here, not
/// the 300 s timeout), so the rescue fires while the copy is still
/// fresh and the server never sees an expired copy. This cap is why an
/// expired rejection is structurally unreachable from the UE's own
/// recovery machinery — only world-level queueing (see the outage
/// scenario) can age a copy past its budget.
#[test]
fn feedback_deadline_capped_by_expiry_rescues_in_time() {
    run_reproducible(|| {
        let mut d = ScenarioDag::new("expiry-capped-feedback-deadline");
        let lossy = d.perturb("lossy-relay", Stim::Relay(RelayMode::LosingPayloads));
        // 100 s budget: liveness deadline ~67 s, expiry 100 s. The
        // 300 s feedback timeout would be useless; the cap is not.
        let e = d.inject("emit", emit(1, 100));
        let drain = d.advance("drain", at(400));
        d.chain(&[lossy, e, drain]);
        d.require("deadline-was-capped", |s: &StackSnapshot| {
            if s.hook_log
                .iter()
                .any(|l| l.contains("feedback-armed") && l.contains("deadline=t=92.000000s"))
            {
                Ok(String::from("armed at expires - margin, not at timeout"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        d.require("rescued-while-fresh", |s: &StackSnapshot| {
            if s.view.server_delivered == 1
                && s.view.server_rejected_expired == 0
                && s.view.fallbacks == 1
                && s.view.retries == 0
            {
                Ok(String::from("fallback landed before expiry"))
            } else {
                Err(format!("view {:?}", s.view))
            }
        });
        d.require("retry-refused-past-liveness", |s: &StackSnapshot| {
            // At 92 s the liveness deadline (~59 s with margin) is
            // already gone: the ledger must refuse a D2D retry.
            if s.hook_log.iter().any(|l| l.contains("retry-exhausted")) {
                Ok(String::from("no D2D retry attempted"))
            } else {
                Err(format!("hook log {:?}", s.hook_log))
            }
        });
        require_clean_books(&mut d);
        (d, StackHarness::new(StackConfig::default()))
    })
    .assert_ok();
}
