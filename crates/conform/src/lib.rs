//! Conformance DAG harness: scripted adversarial interleavings for the
//! delivery protocol.
//!
//! PR 5's reliable-delivery layer surfaced three latent races only
//! through ad-hoc end-to-end driving. This crate makes such
//! interleavings *declarative*: a conformance test is a DAG of events
//! (`perturb`, `inject`, `expect`, `advance`, `require`) with
//! happens-after edges, executed deterministically against the real
//! protocol components — so each race, and each of its legal
//! orderings, is a named, byte-reproducible scenario instead of a
//! lucky seed.
//!
//! Three layers:
//!
//! * [`dag`] — the engine: node kinds, fixed execution priority with
//!   declaration-order tie-breaks, quiescence, and the
//!   [`run_reproducible`] double-run gate.
//! * [`stack`] — a component-level [`System`]: real scheduler, ledger,
//!   feedback tracker, server and invariant checker behind a
//!   scripted dummy relay.
//! * [`world`] — the full event-driven engine behind the same facade,
//!   with mid-run fault injection
//!   (`hbr_core::world::Scenario::inject_fault`).
//!
//! The protocol components report each step through
//! `hbr_core::hooks::ProtocolHooks`; the harness records them into the
//! scenario's event log without perturbing any RNG stream, which is
//! what keeps clean paths draw-free and scenarios byte-identical
//! across runs and thread counts.
//!
//! See `DESIGN.md` §4.9 for the execution-model contract and
//! `tests/conformance/` for the scenario suite.

pub mod dag;
pub mod stack;
pub mod world;

pub use dag::{run_reproducible, DagReport, NodeId, ScenarioDag, System};
pub use stack::{RelayMode, StackConfig, StackHarness, StackSnapshot, StackView, Stim};
pub use world::{delivery_accounted, WorldHarness, WorldStim, WorldView};
