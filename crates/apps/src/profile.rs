//! Per-application heartbeat constants.
//!
//! The numbers below are the paper's own: §II-A gives the periods and
//! sizes ("the heartbeat messages of QQ, WeChat, and WhatsApp are sent
//! every 300 seconds, 270 seconds, and 240 seconds. Their sizes are 378
//! Bytes, 74 Bytes and 66 Bytes"), Table I gives the share of heartbeats
//! among each app's messages. Facebook's period/size are not published in
//! the paper; we use the MQTT default keep-alive of 60 s and a 66 B
//! packet, documented as an assumption in DESIGN.md.

use std::fmt;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::SimDuration;

/// Identifies an application across the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct AppId(u32);

impl AppId {
    /// Creates an application id.
    pub const fn new(raw: u32) -> Self {
        AppId(raw)
    }

    /// The raw id value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl Snap for AppId {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_u32(self.0);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(AppId(r.take_u32()?))
    }
}

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app#{}", self.0)
    }
}

/// Everything the framework knows about one IM application.
///
/// # Examples
///
/// ```
/// use hbr_apps::AppProfile;
///
/// for app in AppProfile::paper_apps() {
///     assert!(app.heartbeat_share > 0.4, "{} share", app.name);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Stable identifier.
    pub id: AppId,
    /// Human-readable name.
    pub name: String,
    /// Interval between heartbeats.
    pub heartbeat_period: SimDuration,
    /// Heartbeat payload size in bytes.
    pub heartbeat_size: usize,
    /// How long a heartbeat may be delayed in flight before the server
    /// would have timed the client out anyway. Commercial servers use
    /// ≈ 3× the period (§III-C); the framework itself additionally caps
    /// delay at the relay's own period.
    pub expiration: SimDuration,
    /// Fraction of this app's messages that are heartbeats (Table I).
    pub heartbeat_share: f64,
}

impl AppProfile {
    /// WeChat: 270 s period, 74 B, 50% heartbeat share.
    pub fn wechat() -> Self {
        AppProfile::built_in(0, "WeChat", 270, 74, 0.50)
    }

    /// QQ: 300 s period, 378 B, 52.6% heartbeat share.
    pub fn qq() -> Self {
        AppProfile::built_in(1, "QQ", 300, 378, 0.526)
    }

    /// WhatsApp: 240 s period, 66 B, 61.9% heartbeat share.
    pub fn whatsapp() -> Self {
        AppProfile::built_in(2, "WhatsApp", 240, 66, 0.619)
    }

    /// Facebook Messenger: Table I gives the 48.4% share; period/size are
    /// the MQTT keep-alive defaults (assumption, see DESIGN.md).
    pub fn facebook_messenger() -> Self {
        AppProfile::built_in(3, "Facebook", 60, 66, 0.484)
    }

    /// Looks a paper app up by (case-insensitive) name.
    ///
    /// # Examples
    ///
    /// ```
    /// use hbr_apps::AppProfile;
    ///
    /// assert!(AppProfile::by_name("WeChat").is_some());
    /// assert!(AppProfile::by_name("qq").is_some());
    /// assert!(AppProfile::by_name("icq").is_none());
    /// ```
    pub fn by_name(name: &str) -> Option<AppProfile> {
        AppProfile::paper_apps()
            .into_iter()
            .find(|a| a.name.eq_ignore_ascii_case(name))
    }

    /// The four applications of Table I, in the paper's column order.
    pub fn paper_apps() -> Vec<AppProfile> {
        vec![
            AppProfile::wechat(),
            AppProfile::whatsapp(),
            AppProfile::qq(),
            AppProfile::facebook_messenger(),
        ]
    }

    /// A custom application profile.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero, the size is zero, or the share is
    /// outside `(0, 1)`.
    pub fn custom(
        id: AppId,
        name: impl Into<String>,
        heartbeat_period: SimDuration,
        heartbeat_size: usize,
        heartbeat_share: f64,
    ) -> Self {
        assert!(
            !heartbeat_period.is_zero(),
            "heartbeat period must be positive"
        );
        assert!(heartbeat_size > 0, "heartbeat size must be positive");
        assert!(
            heartbeat_share > 0.0 && heartbeat_share < 1.0,
            "heartbeat share must be in (0, 1), got {heartbeat_share}"
        );
        AppProfile {
            id,
            name: name.into(),
            heartbeat_period,
            heartbeat_size,
            expiration: heartbeat_period * 3,
            heartbeat_share,
        }
    }

    fn built_in(id: u32, name: &str, period_secs: u64, size: usize, share: f64) -> Self {
        AppProfile::custom(
            AppId::new(id),
            name,
            SimDuration::from_secs(period_secs),
            size,
            share,
        )
    }

    /// Overrides the expiration budget (builder style).
    pub fn with_expiration(mut self, expiration: SimDuration) -> Self {
        assert!(!expiration.is_zero(), "expiration must be positive");
        self.expiration = expiration;
        self
    }

    /// Mean interval between *foreground* (non-heartbeat) messages that
    /// reproduces this app's Table I heartbeat share: if heartbeats tick
    /// every `P` and make up share `s` of messages, data messages arrive
    /// every `P · s / (1 − s)` on average.
    pub fn foreground_mean_interval(&self) -> SimDuration {
        let s = self.heartbeat_share;
        self.heartbeat_period.mul_f64(s / (1.0 - s))
    }
}

impl Snap for AppProfile {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.id.snap(w);
        w.put_str(&self.name);
        self.heartbeat_period.snap(w);
        w.put_usize(self.heartbeat_size);
        self.expiration.snap(w);
        w.put_f64(self.heartbeat_share);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let id = AppId::unsnap(r)?;
        let name = String::unsnap(r)?;
        let heartbeat_period = SimDuration::unsnap(r)?;
        let heartbeat_size = r.take_usize()?;
        let expiration = SimDuration::unsnap(r)?;
        let heartbeat_share = r.take_f64()?;
        if heartbeat_period.is_zero()
            || heartbeat_size == 0
            || expiration.is_zero()
            || !(heartbeat_share > 0.0 && heartbeat_share < 1.0)
        {
            return Err(SnapshotError::Corrupt(format!(
                "app profile {name:?} out of range"
            )));
        }
        Ok(AppProfile {
            id,
            name,
            heartbeat_period,
            heartbeat_size,
            expiration,
            heartbeat_share,
        })
    }
}

impl fmt::Display for AppProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (hb every {}s, {}B)",
            self.name,
            self.heartbeat_period.as_secs(),
            self.heartbeat_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let wechat = AppProfile::wechat();
        assert_eq!(wechat.heartbeat_period, SimDuration::from_secs(270));
        assert_eq!(wechat.heartbeat_size, 74);
        assert_eq!(wechat.heartbeat_share, 0.50);
        let qq = AppProfile::qq();
        assert_eq!(qq.heartbeat_period, SimDuration::from_secs(300));
        assert_eq!(qq.heartbeat_size, 378);
        let whatsapp = AppProfile::whatsapp();
        assert_eq!(whatsapp.heartbeat_period, SimDuration::from_secs(240));
        assert_eq!(whatsapp.heartbeat_size, 66);
    }

    #[test]
    fn default_expiration_is_3x_period() {
        // §III-C: "it is usually set as 3T for commercial apps".
        let wechat = AppProfile::wechat();
        assert_eq!(wechat.expiration, SimDuration::from_secs(810));
    }

    #[test]
    fn ids_are_distinct() {
        let apps = AppProfile::paper_apps();
        let mut ids: Vec<_> = apps.iter().map(|a| a.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), apps.len());
    }

    #[test]
    fn foreground_interval_reproduces_share() {
        // WeChat: share 0.5 → data messages as often as heartbeats.
        assert_eq!(
            AppProfile::wechat().foreground_mean_interval(),
            SimDuration::from_secs(270)
        );
        // WhatsApp: share 0.619 → data messages are rarer than heartbeats.
        assert!(
            AppProfile::whatsapp().foreground_mean_interval()
                > AppProfile::whatsapp().heartbeat_period
        );
    }

    #[test]
    fn with_expiration_overrides() {
        let app = AppProfile::wechat().with_expiration(SimDuration::from_secs(100));
        assert_eq!(app.expiration, SimDuration::from_secs(100));
    }

    #[test]
    #[should_panic(expected = "share")]
    fn share_of_one_rejected() {
        AppProfile::custom(AppId::new(99), "Bad", SimDuration::from_secs(10), 10, 1.0);
    }

    #[test]
    fn display_mentions_name() {
        assert!(format!("{}", AppProfile::qq()).contains("QQ"));
        assert_eq!(format!("{}", AppId::new(2)), "app#2");
    }
}
