//! Allocation and live-heap budgets for one benchmark-density cell.
//!
//! A counting global allocator wraps the system one and tallies every
//! `alloc` and `realloc` call made by the current thread, and the bytes
//! the thread holds live. One crowd cell at the benchmark's density
//! (about 100 phones and 10 relays on a 100 m square, reliable delivery
//! on, as every crowd cell runs) is warmed up to 1 800 s; two tests then
//! count the allocator calls per handled event over the second half
//! hour, and a third bounds the cell's live heap per phone at 1 800 s.
//!
//! Handling an event only grows state that outlives it; the records a
//! step produces (radio and D2D activity, discovery adverts, the relay
//! flush and the sweeps' due lists) live inline or in buffers the
//! scenario reuses. What still allocates in steady state is the IM
//! servers' dedup sets and refresh history, which grow with every
//! delivered heartbeat (all of the window's reallocations), a device's
//! first use of its own queues (its first forward, its first heartbeat
//! queued behind a link setup) and, with telemetry on, the event log
//! and a metric series' first name.
//!
//! A phone's delivery ledger and feedback tracker hold its 0–2
//! heartbeats in flight in key-ordered `Vec`s (`hbr_sim::VecMap`), so
//! their first insert reserves four entries instead of a B-tree leaf of
//! eleven (1 072 and 808 B) that stayed allocated for the whole run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hbr_core::fleet::FleetBuilder;
use hbr_core::world::{Scenario, ScenarioConfig};
use hbr_sim::{SimDuration, SimTime};

struct Counting;

thread_local! {
    // Const-initialised and drop-free, so reading them never allocates
    // and each test thread counts only its own calls.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    // Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn add_live(bytes: i64) {
    LIVE.with(|n| n.set(n.get() + bytes));
}

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are plain thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        add_live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        add_live(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        REALLOCS.with(|n| n.set(n.get() + 1));
        add_live(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get))
}

/// Events the engine has handled so far.
fn handled(scenario: &Scenario) -> u64 {
    scenario.events_scheduled() - scenario.queue_depth() as u64
}

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Phones in the cell [`cell`] builds.
const PHONES: usize = 100;

/// One benchmark-density cell, built but not yet run.
fn cell(telemetry: bool) -> Scenario {
    let hour = SimDuration::from_secs(3_600);
    let mut config = ScenarioConfig::new(hour, 7);
    config.reliable_delivery = true;
    config.telemetry = telemetry;
    // The same count whether or not HBR_CHECK_INVARIANTS is set.
    config.check_invariants = Some(false);
    for spec in FleetBuilder::new(PHONES, 10).area_side_m(100.0).build(7) {
        config.add_device(spec);
    }
    Scenario::new(config)
}

/// Allocations and reallocations per handled event over 1 800–3 600 s
/// of one benchmark-density cell.
fn per_event(telemetry: bool) -> (f64, f64) {
    let mut scenario = cell(telemetry);
    scenario.run_until(SimTime::from_secs(1_800));

    let events_before = handled(&scenario);
    let (allocs_before, reallocs_before) = counts();
    scenario.run_until(SimTime::from_secs(3_600));
    let (allocs_after, reallocs_after) = counts();
    let events = handled(&scenario) - events_before;

    assert!(
        events > 1_000,
        "the window must handle real traffic: {events} events"
    );
    let (allocs, reallocs) = (
        allocs_after - allocs_before,
        reallocs_after - reallocs_before,
    );
    println!("telemetry {telemetry}: {events} events, {allocs} allocs, {reallocs} reallocs");
    (
        allocs as f64 / events as f64,
        reallocs as f64 / events as f64,
    )
}

#[test]
fn steady_state_events_stay_within_the_allocation_budget() {
    let (allocs, reallocs) = per_event(false);
    assert!(
        allocs <= ALLOCS_PER_EVENT,
        "{allocs:.3} allocs per event over {ALLOCS_PER_EVENT}"
    );
    assert!(
        reallocs <= REALLOCS_PER_EVENT,
        "{reallocs:.3} reallocs per event over {REALLOCS_PER_EVENT}"
    );
}

#[test]
fn labelled_metrics_stay_within_the_allocation_budget() {
    let (allocs, reallocs) = per_event(true);
    assert!(
        allocs <= TELEMETRY_ALLOCS_PER_EVENT,
        "{allocs:.3} allocs per event over {TELEMETRY_ALLOCS_PER_EVENT}"
    );
    assert!(
        reallocs <= TELEMETRY_REALLOCS_PER_EVENT,
        "{reallocs:.3} reallocs per event over {TELEMETRY_REALLOCS_PER_EVENT}"
    );
}

/// Live heap bytes per phone of one benchmark-density cell at 1 800 s:
/// everything the cell's configuration, devices, servers and queues
/// hold, divided by its phones.
#[test]
fn a_phone_holds_a_bounded_live_heap() {
    let before = live_bytes();
    let mut scenario = cell(false);
    let built = live_bytes() - before;
    scenario.run_until(SimTime::from_secs(1_800));
    let per_phone = (live_bytes() - before) as f64 / PHONES as f64;
    println!(
        "{:.0} live bytes per phone after build, {per_phone:.0} at 1 800 s",
        built as f64 / PHONES as f64
    );
    assert!(
        per_phone <= LIVE_BYTES_PER_PHONE,
        "{per_phone:.0} live bytes per phone over {LIVE_BYTES_PER_PHONE}"
    );
}

// Budgets per handled event. Over the window's 2 095 events the cell
// makes 27 allocations and 133 reallocations with telemetry off, 27 and
// 134 with it on (5 405 and 1 303 off, 7 667 and 1 304 on while the
// handlers built their records and lists afresh). Each budget sits
// about 10–15 % above the measured count.
const ALLOCS_PER_EVENT: f64 = 0.015;
const REALLOCS_PER_EVENT: f64 = 0.07;
const TELEMETRY_ALLOCS_PER_EVENT: f64 = 0.015;
const TELEMETRY_REALLOCS_PER_EVENT: f64 = 0.07;

// Live heap per phone at 1 800 s, the cell's configuration included:
// 3 128 B (1 876 B after build). It was 4 138 B while the ledger and
// the tracker kept B-tree leaves. The budget sits about 10 % above.
const LIVE_BYTES_PER_PHONE: f64 = 3_450.0;
