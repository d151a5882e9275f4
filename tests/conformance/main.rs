//! Conformance suite: scripted adversarial interleavings for the
//! delivery protocol, expressed as scenario DAGs (`hbr_conform`).
//!
//! Every scenario goes through [`hbr_conform::run_reproducible`], which
//! executes it twice against fresh systems and asserts the two event
//! logs are byte-identical — determinism is part of the conformance
//! contract, not a best effort. CI runs this target under
//! `HBR_CHECK_INVARIANTS=1` at `HBR_THREADS=1` and `4`.
//!
//! Layout:
//!
//! * [`stack_scenarios`] — component-level interleavings against the
//!   real scheduler/ledger/feedback/server stack behind a scripted
//!   relay (`hbr_conform::StackHarness`).
//! * [`world_scenarios`] — full-engine interleavings with mid-run fault
//!   injection (`hbr_conform::WorldHarness`).
//!
//! Two PR 5 regressions live here as named scenarios, each in at
//! least two legal interleavings:
//!
//! * retry racing link establishment —
//!   `world_scenarios::departure_requeue_races_link_establishment`,
//!   `world_scenarios::emission_races_link_establishment_to_replacement`
//! * retry budgeting against the liveness deadline —
//!   `stack_scenarios::liveness_budget_blocks_late_retry`,
//!   `stack_scenarios::backoff_cap_boundary_at_liveness_deadline`

mod stack_scenarios;
mod world_scenarios;
