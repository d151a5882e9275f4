//! Workload generation: heartbeat schedules and mixed traffic.

use hbr_sim::snapshot::SnapshotError;
use hbr_sim::{snap_struct, DeviceId, SimDuration, SimRng, SimTime};

use crate::message::{Heartbeat, MessageIdGen};
use crate::profile::{AppId, AppProfile};

/// Produces the periodic heartbeat stream of one `(device, app)` pair.
///
/// The schedule holds only its own state: which app it runs, its timer
/// and its sequence counter. The app's period, size and expiration are
/// the app's facts, and the device is whoever holds the schedule, so
/// [`HeartbeatSchedule::next_heartbeat`] takes both from the caller.
///
/// Real heartbeat timers drift (Android alarms coalesce, the app may
/// reset its timer on foreground traffic), so a uniform ±`jitter_frac`
/// slack is applied to every interval.
///
/// # Examples
///
/// ```
/// use hbr_apps::{AppProfile, HeartbeatSchedule, MessageIdGen};
/// use hbr_sim::{DeviceId, SimRng, SimTime};
///
/// let wechat = AppProfile::wechat();
/// let mut schedule = HeartbeatSchedule::new(&wechat, 0.0);
/// let mut ids = MessageIdGen::new();
/// let mut rng = SimRng::seed_from(1);
/// let first = schedule.next_heartbeat(&wechat, DeviceId::new(0), &mut ids, &mut rng);
/// assert_eq!(first.created_at, SimTime::from_secs(270));
/// ```
#[derive(Debug, Clone)]
pub struct HeartbeatSchedule {
    app: AppId,
    jitter_frac: f64,
    next_at: SimTime,
    seq: u32,
}

impl HeartbeatSchedule {
    /// Creates a schedule for `app` whose first heartbeat fires one
    /// period from time zero.
    ///
    /// # Panics
    ///
    /// Panics if `jitter_frac` is negative or not finite.
    pub fn new(app: &AppProfile, jitter_frac: f64) -> Self {
        assert!(
            jitter_frac.is_finite() && jitter_frac >= 0.0,
            "jitter fraction must be finite and non-negative"
        );
        HeartbeatSchedule {
            app: app.id,
            jitter_frac,
            next_at: SimTime::ZERO + app.heartbeat_period,
            seq: 0,
        }
    }

    /// The application this schedule runs.
    pub fn app(&self) -> AppId {
        self.app
    }

    /// When the next heartbeat will be emitted.
    pub fn peek_next(&self) -> SimTime {
        self.next_at
    }

    /// Emits `device`'s next heartbeat of `app` and advances the timer.
    ///
    /// # Panics
    ///
    /// Panics if `app` is not the profile of the app this schedule runs.
    pub fn next_heartbeat(
        &mut self,
        app: &AppProfile,
        device: DeviceId,
        ids: &mut MessageIdGen,
        rng: &mut SimRng,
    ) -> Heartbeat {
        assert_eq!(app.id, self.app, "a schedule runs one app");
        let created_at = self.next_at;
        let hb = Heartbeat {
            id: ids.next_id(),
            app: app.id,
            source: device,
            seq: self.seq,
            size: app.heartbeat_size,
            created_at,
            expires_at: created_at + app.expiration,
        };
        self.seq += 1;
        let interval = rng.jitter(app.heartbeat_period, self.jitter_frac);
        self.next_at = created_at + interval;
        hb
    }

    /// Emits every heartbeat up to (and including) `until`.
    pub fn heartbeats_until(
        &mut self,
        until: SimTime,
        app: &AppProfile,
        device: DeviceId,
        ids: &mut MessageIdGen,
        rng: &mut SimRng,
    ) -> Vec<Heartbeat> {
        let mut out = Vec::new();
        while self.next_at <= until {
            out.push(self.next_heartbeat(app, device, ids, rng));
        }
        out
    }
}

snap_struct!(HeartbeatSchedule { app, jitter_frac, next_at, seq } check check_jitter);

fn check_jitter(s: &HeartbeatSchedule) -> Result<(), SnapshotError> {
    if !(s.jitter_frac.is_finite() && s.jitter_frac >= 0.0) {
        return Err(SnapshotError::Corrupt(format!(
            "jitter fraction {}",
            s.jitter_frac
        )));
    }
    Ok(())
}

/// One event in a mixed traffic trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficEvent {
    /// A keep-alive heartbeat.
    Heartbeat(Heartbeat),
    /// A foreground (user-visible) message of the given size.
    Data {
        /// Emission instant.
        at: SimTime,
        /// Payload size in bytes.
        size: usize,
    },
}

impl TrafficEvent {
    /// The emission instant of this event.
    pub fn at(&self) -> SimTime {
        match self {
            TrafficEvent::Heartbeat(hb) => hb.created_at,
            TrafficEvent::Data { at, .. } => *at,
        }
    }

    /// `true` if this is a heartbeat.
    pub fn is_heartbeat(&self) -> bool {
        matches!(self, TrafficEvent::Heartbeat(_))
    }
}

/// Generates one app's full traffic trace — heartbeats plus foreground
/// messages — whose heartbeat share converges to the app's Table I
/// value.
///
/// Foreground traffic is **session-bursty**: real IM usage comes in
/// conversations — the user opens the app and exchanges several messages
/// seconds apart, then leaves it idle. Sessions start as a Poisson
/// process whose mean is scaled so the *total message count* still
/// reproduces the app's Table I heartbeat share; inside a session,
/// messages are seconds apart (and therefore share RRC connections on
/// the cellular side, which is why heartbeats dominate *signaling* far
/// more than they dominate bytes — the §I motivation).
///
/// # Examples
///
/// ```
/// use hbr_apps::{AppProfile, TrafficGenerator};
/// use hbr_sim::{DeviceId, SimDuration, SimRng, SimTime};
///
/// let mut generator = TrafficGenerator::new(DeviceId::new(0), AppProfile::whatsapp());
/// let mut rng = SimRng::seed_from(42);
/// let trace = generator.trace_until(SimTime::from_secs(24 * 3600), &mut rng);
/// let heartbeats = trace.iter().filter(|e| e.is_heartbeat()).count();
/// assert!(heartbeats > 0 && heartbeats < trace.len());
/// ```
#[derive(Debug, Clone)]
pub struct TrafficGenerator {
    device: DeviceId,
    app: AppProfile,
    schedule: HeartbeatSchedule,
    ids: MessageIdGen,
    /// Mean foreground payload in bytes (user messages, receipts, sync).
    pub data_size_mean: usize,
    /// Mean messages per foreground session (geometric, ≥ 1).
    pub session_burst_mean: f64,
}

impl TrafficGenerator {
    /// Creates a generator with 2% heartbeat-timer jitter, 512 B mean
    /// foreground payloads and ~6-message conversation bursts.
    pub fn new(device: DeviceId, app: AppProfile) -> Self {
        TrafficGenerator {
            device,
            schedule: HeartbeatSchedule::new(&app, 0.02),
            app,
            ids: MessageIdGen::new(),
            data_size_mean: 512,
            session_burst_mean: 6.0,
        }
    }

    /// The application being generated.
    pub fn app(&self) -> &AppProfile {
        &self.app
    }

    /// Generates the complete, time-sorted trace up to `until`.
    pub fn trace_until(&mut self, until: SimTime, rng: &mut SimRng) -> Vec<TrafficEvent> {
        let mut events: Vec<TrafficEvent> = self
            .schedule
            .heartbeats_until(until, &self.app, self.device, &mut self.ids, rng)
            .into_iter()
            .map(TrafficEvent::Heartbeat)
            .collect();

        // Sessions arrive Poisson; scaling the inter-session mean by the
        // burst size keeps the total message count (and hence the Table I
        // share) unchanged.
        let per_message_mean = self.app.foreground_mean_interval();
        let session_mean = per_message_mean.mul_f64(self.session_burst_mean.max(1.0));
        let mut t = SimTime::ZERO + rng.exp_duration(session_mean);
        while t <= until {
            // Geometric burst length with the configured mean.
            let p_continue = 1.0 - 1.0 / self.session_burst_mean.max(1.0);
            let mut at = t;
            loop {
                let size = (rng.range(0.25..2.0) * self.data_size_mean as f64) as usize;
                events.push(TrafficEvent::Data { at, size });
                if at > until || !rng.chance(p_continue) {
                    break;
                }
                // Messages within a conversation are seconds apart.
                at += SimDuration::from_secs_f64(rng.range(2.0..10.0));
            }
            t += rng.exp_duration(session_mean);
        }
        events.retain(|e| e.at() <= until);
        events.sort_by_key(TrafficEvent::at);
        events
    }

    /// The heartbeat share of a trace — the statistic reported in
    /// Table I.
    pub fn heartbeat_share(trace: &[TrafficEvent]) -> f64 {
        if trace.is_empty() {
            return 0.0;
        }
        trace.iter().filter(|e| e.is_heartbeat()).count() as f64 / trace.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};

    #[test]
    fn restore_refuses_a_bad_jitter_fraction() {
        for jitter_frac in [-0.1, f64::NAN, f64::INFINITY] {
            let mut bad = HeartbeatSchedule::new(&AppProfile::wechat(), 0.0);
            bad.jitter_frac = jitter_frac;
            let mut w = SnapshotWriter::new();
            bad.snap(&mut w);
            let bytes = w.into_bytes();
            let err = HeartbeatSchedule::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
        }
    }

    fn rng() -> SimRng {
        SimRng::seed_from(1234)
    }

    #[test]
    fn schedule_without_jitter_is_exact() {
        let wechat = AppProfile::wechat();
        let mut s = HeartbeatSchedule::new(&wechat, 0.0);
        let mut ids = MessageIdGen::new();
        let mut r = rng();
        for k in 1..=5u64 {
            let hb = s.next_heartbeat(&wechat, DeviceId::new(3), &mut ids, &mut r);
            assert_eq!(hb.source, DeviceId::new(3));
            assert_eq!(hb.created_at, SimTime::from_secs(270 * k));
            assert_eq!(hb.seq as u64, k - 1);
            assert_eq!(
                hb.expires_at,
                hb.created_at + AppProfile::wechat().expiration
            );
        }
    }

    #[test]
    fn jittered_schedule_stays_in_band() {
        let wechat = AppProfile::wechat();
        let mut s = HeartbeatSchedule::new(&wechat, 0.05);
        let mut ids = MessageIdGen::new();
        let mut r = rng();
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            let hb = s.next_heartbeat(&wechat, DeviceId::new(0), &mut ids, &mut r);
            let gap = (hb.created_at - last).as_secs_f64();
            assert!((256.0..=284.0).contains(&gap), "gap {gap} outside ±5%");
            last = hb.created_at;
        }
    }

    #[test]
    fn heartbeats_until_is_inclusive() {
        let wechat = AppProfile::wechat();
        let mut s = HeartbeatSchedule::new(&wechat, 0.0);
        let mut ids = MessageIdGen::new();
        let hbs = s.heartbeats_until(
            SimTime::from_secs(810),
            &wechat,
            DeviceId::new(0),
            &mut ids,
            &mut rng(),
        );
        assert_eq!(hbs.len(), 3); // 270, 540, 810
    }

    #[test]
    #[should_panic(expected = "a schedule runs one app")]
    fn a_schedule_refuses_another_apps_profile() {
        let mut s = HeartbeatSchedule::new(&AppProfile::wechat(), 0.0);
        s.next_heartbeat(
            &AppProfile::qq(),
            DeviceId::new(0),
            &mut MessageIdGen::new(),
            &mut rng(),
        );
    }

    #[test]
    fn trace_share_converges_to_table1() {
        for app in AppProfile::paper_apps() {
            let expected = app.heartbeat_share;
            let mut g = TrafficGenerator::new(DeviceId::new(0), app.clone());
            let mut r = rng();
            // Four simulated weeks: session bursts make the data count
            // high-variance, so convergence needs a longer horizon.
            let trace = g.trace_until(SimTime::from_secs(28 * 24 * 3600), &mut r);
            let share = TrafficGenerator::heartbeat_share(&trace);
            assert!(
                (share - expected).abs() < 0.03,
                "{}: share {share:.3}, Table I says {expected}",
                app.name
            );
        }
    }

    #[test]
    fn trace_is_time_sorted() {
        let mut g = TrafficGenerator::new(DeviceId::new(0), AppProfile::qq());
        let trace = g.trace_until(SimTime::from_secs(24 * 3600), &mut rng());
        for w in trace.windows(2) {
            assert!(w[0].at() <= w[1].at());
        }
    }

    #[test]
    fn empty_trace_share_is_zero() {
        assert_eq!(TrafficGenerator::heartbeat_share(&[]), 0.0);
    }
}
