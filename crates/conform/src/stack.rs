//! Component-level harness: the *real* delivery-protocol stack behind a
//! scripted facade.
//!
//! One UE (the source), one **dummy relay** wrapping the real
//! [`MessageScheduler`] (Algorithm 1 decides flushes; the script only
//! decides whether transfers reach it), and the real [`ImServer`],
//! [`DeliveryLedger`], [`FeedbackTracker`] and [`InvariantChecker`]. Time is a virtual clock: `advance_to` fires
//! the due feedback deadlines, ledger retries and scheduler flushes in
//! time order, with a fixed tie order (feedback sweep, then retries,
//! then flushes) so every run is deterministic.
//!
//! RNG discipline matches the production engine: the only stream ever
//! drawn is the dedicated retry stream (backoff jitter), seeded via
//! [`retry_stream_seed`], so clean paths draw nothing and scripted runs
//! are byte-reproducible.

use std::collections::HashSet;

use hbr_apps::{AppId, DeliveryOutcome, Heartbeat, ImServer, MessageId, MessageIdGen};
use hbr_core::{
    BackoffPolicy, DeliveryLedger, FeedbackTracker, InvariantChecker, MessageScheduler,
    ScheduleDecision,
};
use hbr_sim::fault::retry_stream_seed;
use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};

use crate::dag::System;

/// How the scripted relay treats incoming transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayMode {
    /// Transfers succeed and reach the scheduler.
    Accepting,
    /// Transfers *appear* to succeed (the UE sees a D2D ack and arms
    /// its feedback deadline) but the payload never reaches the
    /// scheduler — the adversarial case feedback timeouts exist for.
    LosingPayloads,
    /// Transfers fail outright (link refuses); the UE sees the failure
    /// immediately and consults the retry ledger.
    RefusingTransfers,
    /// The relay is gone; transfers fail like
    /// [`RelayMode::RefusingTransfers`].
    Departed,
}

impl RelayMode {
    fn label(self) -> &'static str {
        match self {
            RelayMode::Accepting => "accepting",
            RelayMode::LosingPayloads => "losing-payloads",
            RelayMode::RefusingTransfers => "refusing-transfers",
            RelayMode::Departed => "departed",
        }
    }
}

/// Scripted stimuli for the stack harness. Injections act at the
/// harness's current virtual instant (script an `advance` first to
/// position them in time).
pub enum Stim {
    /// The UE emits a heartbeat (`seq`, expiring `budget` after now)
    /// and forwards it to the relay.
    Emit {
        /// Application sequence number.
        seq: u32,
        /// Freshness budget (`expires_at − created_at`).
        budget: SimDuration,
    },
    /// Sets the relay script.
    Relay(RelayMode),
    /// The relay departs: its buffered batch is handed back, feedback
    /// deadlines are retracted, and every heartbeat re-enters the retry
    /// ledger (or falls back if its budget is exhausted).
    Depart,
    /// The departed relay (or a replacement) is available again and
    /// opens a fresh aggregation period.
    Rejoin,
    /// An adversarial re-sender delivers `copies` fresh-id duplicates
    /// of the last emitted heartbeat straight to the server — the
    /// `(source, app, seq)` dedup layer must swallow every one.
    DuplicateStorm {
        /// Number of fresh-id duplicates.
        copies: u32,
    },
    /// Re-delivers the exact last emitted copy (same message id) to the
    /// server — the id dedup layer must swallow it.
    RedeliverLastCopy,
}

/// Tunables for one scripted stack.
pub struct StackConfig {
    /// Seed for the dedicated retry (jitter) stream.
    pub seed: u64,
    /// UE feedback timeout.
    pub feedback_timeout: SimDuration,
    /// Relay aggregation: Algorithm 1's `M`.
    pub capacity: usize,
    /// Relay aggregation period.
    pub period: SimDuration,
    /// Scheduler expiry margin.
    pub margin: SimDuration,
    /// Server-side session expiration.
    pub expiration: SimDuration,
    /// Retry backoff policy.
    pub backoff: BackoffPolicy,
}

impl Default for StackConfig {
    fn default() -> Self {
        StackConfig {
            seed: 1,
            // Production default: must exceed the relay period, or a
            // clean forward times out before the relay even flushes.
            feedback_timeout: SimDuration::from_secs(300),
            capacity: 7,
            period: SimDuration::from_secs(60),
            margin: SimDuration::from_secs(8),
            expiration: SimDuration::from_secs(810),
            backoff: BackoffPolicy::default(),
        }
    }
}

/// Live counters for `expect` predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct StackView {
    /// The virtual clock.
    pub now: SimTime,
    /// Ledger entries not yet retired.
    pub in_flight: usize,
    /// Forwards awaiting relay feedback.
    pub feedback_pending: usize,
    /// Heartbeats buffered at the relay scheduler.
    pub relay_buffered: usize,
    /// Server-accepted heartbeats.
    pub server_delivered: u64,
    /// Server-side duplicate swallows (both dedup layers).
    pub server_duplicates: u64,
    /// Server-side stale rejections.
    pub server_rejected_expired: u64,
    /// Cellular fallbacks performed.
    pub fallbacks: u64,
    /// Feedback confirmations observed by the UE.
    pub confirmed: u64,
    /// D2D retransmissions scheduled so far.
    pub retries: u64,
}

/// Quiescence snapshot for `require` predicates.
pub struct StackSnapshot {
    /// Final counters (same shape as the live view).
    pub view: StackView,
    /// The invariant checker's fate tallies.
    pub audit: hbr_core::DeliveryAudit,
    /// Every protocol step, one line per component call, written from
    /// the value the call returned (the lines the event log shows after
    /// ` | hooks: `).
    pub hook_log: Vec<String>,
    /// Every server delivery outcome, in order, as `seq:outcome`.
    pub outcomes: Vec<String>,
    /// Retries the ledger planned *past* `liveness_deadline − margin` —
    /// must be empty (the PR 5 liveness-budget fix).
    pub retry_violations: Vec<String>,
    /// Presence gap for the UE session over `[0, now]`, seconds.
    pub offline_secs: f64,
}

/// The protocol-step log, plus the planned-retry audit used by the
/// liveness `require`s.
#[derive(Default)]
struct Recorder {
    log: Vec<String>,
    /// `(id, attempt, at, liveness_deadline)` for each planned retry.
    planned: Vec<(MessageId, u32, SimTime, SimTime)>,
}

/// The scripted stack. Implements [`System`]; drive it with a
/// [`ScenarioDag`](crate::ScenarioDag).
pub struct StackHarness {
    config: StackConfig,
    now: SimTime,
    ids: MessageIdGen,
    source: DeviceId,
    app: AppId,
    scheduler: MessageScheduler,
    relay_mode: RelayMode,
    ledger: DeliveryLedger,
    feedback: FeedbackTracker,
    retry_rng: SimRng,
    server: ImServer,
    checker: InvariantChecker,
    recorder: Recorder,
    fallbacks: u64,
    confirmed: u64,
    last_emitted: Option<Heartbeat>,
    outcomes: Vec<String>,
    /// How much of the recorder log has already been folded into
    /// returned event lines (reproducibility surface).
    hook_cursor: usize,
}

impl StackHarness {
    /// Builds the stack; the UE session registers online at `t = 0`.
    pub fn new(config: StackConfig) -> Self {
        let source = DeviceId::new(0);
        let app = AppId::new(0);
        let mut server = ImServer::new(config.expiration);
        server.register(source, app, SimTime::ZERO);
        let mut checker = InvariantChecker::new(true);
        checker.set_context(config.seed, None);
        let scheduler =
            MessageScheduler::new(config.capacity, config.period, config.margin, SimTime::ZERO);
        StackHarness {
            retry_rng: SimRng::seed_from(retry_stream_seed(config.seed)),
            feedback: FeedbackTracker::new(config.feedback_timeout),
            scheduler,
            config,
            now: SimTime::ZERO,
            ids: MessageIdGen::new(),
            source,
            app,
            relay_mode: RelayMode::Accepting,
            ledger: DeliveryLedger::new(),
            server,
            checker,
            recorder: Recorder::default(),
            fallbacks: 0,
            confirmed: 0,
            last_emitted: None,
            outcomes: Vec::new(),
            hook_cursor: 0,
        }
    }

    /// The protocol steps logged since the last call, joined for the
    /// event log.
    fn fresh_hook_steps(&mut self) -> String {
        let fresh = &self.recorder.log[self.hook_cursor..];
        let joined = if fresh.is_empty() {
            String::new()
        } else {
            format!(" | hooks: {}", fresh.join("; "))
        };
        self.hook_cursor = self.recorder.log.len();
        joined
    }

    fn deliver_to_server(&mut self, hb: Heartbeat, at: SimTime, audited: bool) -> DeliveryOutcome {
        let outcome = self.server.deliver_observed(&hb, at);
        self.outcomes.push(format!("seq{}:{outcome}", hb.seq));
        if audited {
            // The harness traces nothing: its DAG event log is the story.
            self.checker
                .on_delivery(&hb, at, outcome == DeliveryOutcome::Accepted, &[]);
            if self.ledger.entry(hb.id).is_some() {
                match outcome {
                    DeliveryOutcome::Accepted => self.ledger.server_acked(hb.id),
                    DeliveryOutcome::Expired => self.ledger.expired(hb.id),
                    // A duplicate verdict means another copy already
                    // retired the entry — nothing to do.
                    _ => {}
                }
            }
        }
        outcome
    }

    fn cellular_fallback(&mut self, hb: Heartbeat, at: SimTime) -> DeliveryOutcome {
        self.fallbacks += 1;
        self.deliver_to_server(hb, at, true)
    }

    /// One transfer attempt UE → relay under the current script.
    fn try_forward(&mut self, hb: Heartbeat, at: SimTime) -> String {
        match self.relay_mode {
            RelayMode::Accepting | RelayMode::LosingPayloads => {
                self.ledger.d2d_acked(hb.id);
                let deadline = self.feedback.on_forward(hb, at);
                self.recorder
                    .log
                    .push(format!("{at} feedback-armed {} deadline={deadline}", hb.id));
                if self.relay_mode == RelayMode::LosingPayloads {
                    return format!(
                        "seq{} acked but payload lost; feedback due {deadline}",
                        hb.seq
                    );
                }
                let decision = self.scheduler.on_arrival(at, hb);
                self.recorder
                    .log
                    .push(format!("{at} schedule seq={} {decision:?}", hb.seq));
                match decision {
                    ScheduleDecision::Flush(reason) => {
                        let flushed = self.flush_relay(at);
                        format!("seq{} buffered; {reason:?} flushed {flushed}", hb.seq)
                    }
                    ScheduleDecision::Pend => format!("seq{} buffered at relay", hb.seq),
                    ScheduleDecision::Rejected => {
                        // The relay already flushed this period; treat as
                        // a failed transfer so the ledger recovers it.
                        self.retract([hb.id]);
                        self.recover(hb, at)
                    }
                }
            }
            RelayMode::RefusingTransfers | RelayMode::Departed => {
                let mode = self.relay_mode.label();
                let recovery = self.recover(hb, at);
                format!("seq{} transfer refused ({mode}); {recovery}", hb.seq)
            }
        }
    }

    /// Retracts pending feedback deadlines (idempotent: an id no longer
    /// pending counts zero) and logs how many were still pending.
    fn retract(&mut self, ids: impl IntoIterator<Item = MessageId>) -> usize {
        let retracted = self.feedback.retract(ids);
        self.recorder
            .log
            .push(format!("feedback-retracted n={retracted}"));
        retracted
    }

    /// Transfer failed or timed out: plan a D2D retry, or fall back.
    fn recover(&mut self, hb: Heartbeat, at: SimTime) -> String {
        let planned = self.ledger.plan_retry(
            hb.id,
            at,
            &self.config.backoff,
            FeedbackTracker::RESCUE_MARGIN,
            &mut self.retry_rng,
        );
        if let Some(e) = self.ledger.entry(hb.id) {
            let (id, attempt) = (hb.id, e.attempts);
            let line = match planned {
                Some(when) => {
                    let liveness = e.heartbeat.liveness_deadline();
                    self.recorder.planned.push((id, attempt, when, liveness));
                    format!("retry-planned {id} attempt={attempt} at={when}")
                }
                None => format!("{at} retry-exhausted {id} after attempt={attempt}"),
            };
            self.recorder.log.push(line);
        }
        match planned {
            Some(when) => format!("retry planned {when}"),
            None => {
                let outcome = self.cellular_fallback(hb, at);
                format!("fell back to cellular ({outcome})")
            }
        }
    }

    /// The relay flushes its batch to the server at `at`.
    fn flush_relay(&mut self, at: SimTime) -> String {
        let batch = self.scheduler.take_batch_at(at);
        let ids: Vec<MessageId> = batch.iter().map(|hb| hb.id).collect();
        let mut accepted = 0usize;
        for hb in batch {
            if self.deliver_to_server(hb, at, true) == DeliveryOutcome::Accepted {
                accepted += 1;
            }
        }
        // Relay feedback confirms the flush; the UE retires its timers.
        self.ledger.feedback_confirmed(ids.iter().copied());
        let confirmed = self.feedback.on_delivered(ids.iter().copied());
        self.recorder
            .log
            .push(format!("feedback-confirmed n={confirmed}"));
        self.confirmed += confirmed as u64;
        // The dummy relay immediately opens its next period.
        self.scheduler.begin_period(at);
        format!("{accepted}/{} accepted", ids.len())
    }

    /// The earliest due instant among the three timer sources.
    fn next_due(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            next = match (next, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        consider(self.feedback.next_deadline());
        consider(self.ledger.next_retry());
        if self.scheduler.is_collecting() && self.scheduler.buffered().next().is_some() {
            consider(Some(self.scheduler.next_deadline()));
        }
        next
    }
}

impl System for StackHarness {
    type Stimulus = Stim;
    type View = StackView;
    type Snapshot = StackSnapshot;

    fn apply(&mut self, stimulus: &Stim) -> String {
        let at = self.now;
        let line = match stimulus {
            Stim::Emit { seq, budget } => {
                let hb = Heartbeat {
                    id: self.ids.next_id(),
                    app: self.app,
                    source: self.source,
                    seq: *seq,
                    size: 74,
                    created_at: at,
                    expires_at: at + *budget,
                };
                self.checker.on_emitted(&hb);
                self.ledger.track(hb);
                self.last_emitted = Some(hb);
                self.try_forward(hb, at)
            }
            Stim::Relay(mode) => {
                self.relay_mode = *mode;
                format!("relay now {}", mode.label())
            }
            Stim::Depart => {
                self.relay_mode = RelayMode::Departed;
                let batch = self.scheduler.take_batch();
                let retracted = self.retract(batch.iter().map(|hb| hb.id));
                let mut recoveries = Vec::new();
                for hb in batch {
                    self.ledger.relay_failed(hb.id, DeviceId::new(1));
                    recoveries.push(format!("seq{}: {}", hb.seq, self.recover(hb, at)));
                }
                format!(
                    "relay departed; retracted {retracted}, requeued [{}]",
                    recoveries.join(", ")
                )
            }
            Stim::Rejoin => {
                self.relay_mode = RelayMode::Accepting;
                self.scheduler.begin_period(at);
                String::from("relay rejoined; fresh period")
            }
            Stim::DuplicateStorm { copies } => {
                let last = self.last_emitted.expect("storm needs a prior emit");
                let mut swallowed = Vec::new();
                for _ in 0..*copies {
                    let copy = Heartbeat {
                        id: self.ids.next_id(),
                        ..last
                    };
                    // Adversarial traffic: not an emitted heartbeat, so
                    // it bypasses the checker/ledger on purpose.
                    swallowed.push(self.deliver_to_server(copy, at, false).to_string());
                }
                format!("storm of {copies}: [{}]", swallowed.join(", "))
            }
            Stim::RedeliverLastCopy => {
                let last = self.last_emitted.expect("redeliver needs a prior emit");
                let outcome = self.deliver_to_server(last, at, true);
                format!("redelivered same copy: {outcome}")
            }
        };
        // Fold freshly logged protocol steps into the line so they are
        // part of the byte-reproducibility surface.
        let hooks = self.fresh_hook_steps();
        format!("{line}{hooks}")
    }

    fn advance_to(&mut self, t: SimTime) -> String {
        assert!(
            t >= self.now,
            "advance_to({t}) behind the clock ({})",
            self.now
        );
        let mut fired = 0usize;
        while let Some(due) = self.next_due() {
            if due > t {
                break;
            }
            self.now = self.now.max(due);
            fired += 1;
            // Tie order at one instant: feedback sweeps, then ledger
            // retries, then scheduler flushes.
            let expired = self.feedback.take_expired(due);
            if !expired.is_empty() {
                for pending in expired {
                    if self.ledger.entry(pending.heartbeat.id).is_some() {
                        self.recover(pending.heartbeat, due);
                    }
                }
                continue;
            }
            let due_retries = self.ledger.take_due(due);
            if !due_retries.is_empty() {
                for hb in due_retries {
                    self.try_forward(hb, due);
                }
                continue;
            }
            if self.scheduler.flush_due(due).is_some() {
                self.flush_relay(due);
            }
        }
        self.now = t;
        let hooks = self.fresh_hook_steps();
        format!("clock -> {t} ({fired} timer(s) fired){hooks}")
    }

    fn view(&self) -> StackView {
        StackView {
            now: self.now,
            in_flight: self.ledger.in_flight(),
            feedback_pending: self.feedback.pending_count(),
            relay_buffered: self.scheduler.buffered().count(),
            server_delivered: self.server.delivered(),
            server_duplicates: self.server.duplicates(),
            server_rejected_expired: self.server.rejected_expired(),
            fallbacks: self.fallbacks,
            confirmed: self.confirmed,
            retries: self.ledger.stats().retries,
        }
    }

    fn quiesce(&mut self) -> StackSnapshot {
        // Conservation: everything still in flight must sit in a real
        // buffer. Panics (with seed context) on silent loss.
        let mut surviving: HashSet<MessageId> = HashSet::new();
        surviving.extend(self.scheduler.buffered().map(|hb| hb.id));
        surviving.extend(self.feedback.pending_ids());
        surviving.extend(self.ledger.in_flight_ids());
        self.checker.on_finish(&surviving, &[]);

        let margin = FeedbackTracker::RESCUE_MARGIN;
        let retry_violations = self
            .recorder
            .planned
            .iter()
            .filter(|(_, _, at, liveness)| {
                *at > SimTime::ZERO
                    + liveness
                        .saturating_since(SimTime::ZERO)
                        .saturating_sub(margin)
            })
            .map(|(id, attempt, at, liveness)| {
                format!("{id} attempt {attempt} planned {at} past liveness {liveness}")
            })
            .collect();

        StackSnapshot {
            view: self.view(),
            audit: self.checker.delivery_audit(),
            hook_log: std::mem::take(&mut self.recorder.log),
            outcomes: self.outcomes.clone(),
            retry_violations,
            offline_secs: self
                .server
                .offline_time(self.source, self.app, SimTime::ZERO, self.now)
                .as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::ScenarioDag;

    #[test]
    fn clean_forward_confirms_without_rng_draws() {
        let mut d = ScenarioDag::new("clean-forward");
        d.inject(
            "emit",
            Stim::Emit {
                seq: 1,
                budget: SimDuration::from_secs(810),
            },
        );
        // The relay period (60 s) elapses and flushes the batch.
        d.advance("period", SimTime::from_secs(61));
        d.require("delivered-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.view.fallbacks == 0 && s.view.retries == 0 {
                Ok(String::from("1 delivery, 0 retries, 0 fallbacks"))
            } else {
                Err(format!(
                    "delivered={} retries={} fallbacks={}",
                    s.view.server_delivered, s.view.retries, s.view.fallbacks
                ))
            }
        });
        d.require("accounted", |s: &StackSnapshot| {
            if s.audit.delivered == 1 && s.audit.in_flight == 0 {
                Ok(String::from("audit balanced"))
            } else {
                Err(format!("audit {:?}", s.audit))
            }
        });
        let mut stack = StackHarness::new(StackConfig::default());
        d.run(&mut stack).assert_ok();
    }

    #[test]
    fn lost_payload_is_rescued_by_feedback_timeout() {
        let mut d = ScenarioDag::new("lost-payload");
        d.perturb("lossy", Stim::Relay(RelayMode::LosingPayloads));
        d.inject(
            "emit",
            Stim::Emit {
                seq: 1,
                budget: SimDuration::from_secs(810),
            },
        );
        d.advance("drain", SimTime::from_secs(810));
        d.require("exactly-once", |s: &StackSnapshot| {
            if s.view.server_delivered == 1 && s.audit.delivered == 1 {
                Ok(format!(
                    "delivered once after {} retries + {} fallback(s)",
                    s.view.retries, s.view.fallbacks
                ))
            } else {
                Err(format!("view {:?} audit {:?}", s.view, s.audit))
            }
        });
        d.require("liveness-budget-respected", |s: &StackSnapshot| {
            if s.retry_violations.is_empty() {
                Ok(String::from("no retry past liveness"))
            } else {
                Err(s.retry_violations.join("; "))
            }
        });
        let mut stack = StackHarness::new(StackConfig::default());
        d.run(&mut stack).assert_ok();
    }
}
