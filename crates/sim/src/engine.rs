//! The discrete-event engine: a virtual clock plus a stable priority queue.
//!
//! Two properties matter for reproducibility and are guaranteed here:
//!
//! 1. **Total, stable ordering.** Events fire in non-decreasing time order;
//!    events scheduled for the same instant fire in the order they were
//!    scheduled (FIFO), never in heap-internal order.
//! 2. **No cancellation.** Every scheduled event fires. The world
//!    neutralises a stale timer when it fires: a relay's flush deadline
//!    carries a generation stamp that must still match, and a feedback
//!    sweep acts only on what the feedback tracker still holds.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use crate::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::time::{SimDuration, SimTime};

/// An event returned by [`Simulation::pop`]: the payload plus the instant
/// it fired at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FiredEvent<E> {
    /// The instant the event fired; equals [`Simulation::now`] right after
    /// the pop.
    pub time: SimTime,
    /// The scheduled payload.
    pub event: E,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    /// Reversed so that the `BinaryHeap` (a max-heap) pops the earliest
    /// event first, with the lowest sequence number breaking ties.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic discrete-event simulation: virtual clock + event queue.
///
/// The engine is generic over the event payload `E`; each subsystem defines
/// its own event enum and drives the loop itself via [`Simulation::pop`],
/// which keeps the borrow of the simulation short so handlers can schedule
/// follow-up events freely.
///
/// # Examples
///
/// ```
/// use hbr_sim::{SimDuration, SimTime, Simulation};
///
/// let mut sim = Simulation::new();
/// sim.schedule_at(SimTime::from_secs(2), 2u32);
/// sim.schedule_at(SimTime::from_secs(1), 1u32);
///
/// let first = sim.pop().expect("an event is queued");
/// assert_eq!((first.time, first.event), (SimTime::from_secs(1), 1));
/// ```
#[derive(Debug)]
pub struct Simulation<E> {
    now: SimTime,
    queue: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Simulation {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// The current virtual time. Advances only when events are popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events ever scheduled, including already-fired ones — a
    /// monotone activity counter (the wall-clock shard profiler reads
    /// deltas of it to estimate events/sec).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Number of events still queued.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedules `event` to fire at the absolute instant `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is earlier than [`Simulation::now`]: scheduling in
    /// the past is always a logic error in a discrete-event model.
    pub fn schedule_at(&mut self, time: SimTime, event: E) {
        assert!(
            time >= self.now,
            "cannot schedule an event at {time} before the current time {now}",
            now = self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Scheduled { time, seq, event });
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let time = self.now.saturating_add(delay);
        self.schedule_at(time, event)
    }

    /// Pops the next event, advancing the clock to its firing time.
    /// Returns [`None`] when the queue is exhausted (the clock then stays
    /// where it is).
    pub fn pop(&mut self) -> Option<FiredEvent<E>> {
        let scheduled = self.queue.pop()?;
        debug_assert!(scheduled.time >= self.now);
        self.now = scheduled.time;
        Some(FiredEvent {
            time: scheduled.time,
            event: scheduled.event,
        })
    }

    /// Pops the next event only if it fires at or before `limit`.
    ///
    /// Unlike [`Simulation::pop`], this never advances the clock past
    /// `limit`: when the next event is later (or absent) the clock is moved
    /// exactly to `limit` and [`None`] is returned, which makes bounded
    /// `while let` loops natural:
    ///
    /// ```
    /// use hbr_sim::{SimDuration, SimTime, Simulation};
    ///
    /// let mut sim = Simulation::new();
    /// sim.schedule_after(SimDuration::from_secs(1), ());
    /// sim.schedule_after(SimDuration::from_secs(10), ());
    ///
    /// let mut fired = 0;
    /// while let Some(_ev) = sim.pop_until(SimTime::from_secs(5)) {
    ///     fired += 1;
    /// }
    /// assert_eq!(fired, 1);
    /// assert_eq!(sim.now(), SimTime::from_secs(5));
    /// assert_eq!(sim.pending(), 1);
    /// ```
    pub fn pop_until(&mut self, limit: SimTime) -> Option<FiredEvent<E>> {
        match self.queue.peek() {
            Some(s) if s.time <= limit => self.pop(),
            _ => {
                if limit > self.now {
                    self.now = limit;
                }
                None
            }
        }
    }

    /// Runs the event loop until `limit`, dispatching each event to
    /// `handler`. The handler receives the simulation itself, so it can
    /// schedule follow-up events.
    pub fn run_until<F>(&mut self, limit: SimTime, mut handler: F)
    where
        F: FnMut(&mut Self, FiredEvent<E>),
    {
        while let Some(fired) = self.pop_until(limit) {
            handler(self, fired);
        }
    }
}

impl<E: Snap> Snap for Simulation<E> {
    /// Serializes the clock, the sequence counter and the queued entries
    /// in fire order, so identical queues always produce identical bytes
    /// whatever the heap's internal layout.
    fn snap(&self, w: &mut SnapshotWriter) {
        self.now.snap(w);
        w.put_u64(self.next_seq);
        let mut entries: Vec<&Scheduled<E>> = self.queue.iter().collect();
        entries.sort_by_key(|s| (s.time, s.seq));
        w.put_usize(entries.len());
        for s in entries {
            s.time.snap(w);
            w.put_u64(s.seq);
            s.event.snap(w);
        }
    }

    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let now = SimTime::unsnap(r)?;
        let next_seq = r.take_u64()?;
        let len = r.take_usize()?;
        if len > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "queue length {len} exceeds remaining {} bytes",
                r.remaining()
            )));
        }
        let mut sim = Simulation::new();
        sim.now = now;
        sim.next_seq = next_seq;
        let mut seqs = HashSet::with_capacity(len);
        for _ in 0..len {
            let time = SimTime::unsnap(r)?;
            let seq = r.take_u64()?;
            let event = E::unsnap(r)?;
            if time < now || seq >= next_seq {
                return Err(SnapshotError::Corrupt(
                    "queued event outside clock/counter bounds".to_string(),
                ));
            }
            if !seqs.insert(seq) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate queued event seq {seq}"
                )));
            }
            sim.queue.push(Scheduled { time, seq, event });
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(3), "c");
        sim.schedule_at(SimTime::from_secs(1), "a");
        sim.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|f| f.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| sim.pop()).map(|f| f.event).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops_only() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.pop();
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert!(sim.pop().is_none());
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn pending_counts_live_events() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), ());
        sim.schedule_at(SimTime::from_secs(2), ());
        assert_eq!(sim.pending(), 2);
        sim.pop();
        assert_eq!(sim.pending(), 1);
        sim.pop();
        assert_eq!(sim.pending(), 0);
    }

    #[test]
    fn pop_until_respects_limit_and_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), 1);
        sim.schedule_at(SimTime::from_secs(9), 9);
        assert_eq!(sim.pop_until(SimTime::from_secs(5)).unwrap().event, 1);
        assert!(sim.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(5));
        // The later event is still live and fires once the limit allows.
        assert_eq!(sim.pop_until(SimTime::from_secs(10)).unwrap().event, 9);
    }

    #[test]
    fn run_until_dispatches_and_allows_rescheduling() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(1), 0u32);
        let mut fired = Vec::new();
        sim.run_until(SimTime::from_secs(10), |sim, ev| {
            fired.push((ev.time, ev.event));
            if ev.event < 3 {
                sim.schedule_after(SimDuration::from_secs(2), ev.event + 1);
            }
        });
        assert_eq!(
            fired,
            vec![
                (SimTime::from_secs(1), 0),
                (SimTime::from_secs(3), 1),
                (SimTime::from_secs(5), 2),
                (SimTime::from_secs(7), 3),
            ]
        );
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        sim.pop();
        sim.schedule_at(SimTime::from_secs(1), ());
    }
}
