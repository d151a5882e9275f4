//! The Message Monitor — the app-facing integration surface.
//!
//! Android offers no way to sniff another app's traffic without consent,
//! so the prototype ships "a set of APIs for app developers to integrate
//! the proposed D2D based framework into their existing apps" via a
//! Content Provider (§IV-B). [`MessageMonitor`] models that contract:
//! an application *registers* its heartbeat profile, and from then on the
//! framework may intercept that app's heartbeats together with the
//! metadata (period, expiration) the scheduler needs. Heartbeats of
//! unregistered apps pass through untouched and keep using the cellular
//! path directly.

use std::collections::BTreeMap;

use hbr_apps::{AppId, AppProfile, Heartbeat};
use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::SimDuration;

/// Registry of apps that opted into the framework on one device.
///
/// # Examples
///
/// ```
/// use hbr_apps::AppProfile;
/// use hbr_core::MessageMonitor;
///
/// let mut monitor = MessageMonitor::new();
/// monitor.register(AppProfile::wechat());
/// assert!(monitor.is_registered(AppProfile::wechat().id));
/// assert!(!monitor.is_registered(AppProfile::qq().id));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MessageMonitor {
    apps: BTreeMap<AppId, AppProfile>,
}

/// An intercepted heartbeat plus the metadata the scheduler consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct InterceptedHeartbeat {
    /// The heartbeat itself.
    pub heartbeat: Heartbeat,
    /// The emitting app's period (the relay uses its own `T`, but the
    /// matching logic can use the UE's period to predict forwarding
    /// frequency).
    pub period: SimDuration,
    /// The expiration budget `T_k` (already baked into
    /// `heartbeat.expires_at`; repeated here as the API the paper
    /// describes exposes it explicitly).
    pub expiration: SimDuration,
}

impl MessageMonitor {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MessageMonitor::default()
    }

    /// Registers an app (the developer-side opt-in).
    ///
    /// Re-registering replaces the stored profile, so apps can update
    /// their period (e.g. WeChat changing its heartbeat interval in an
    /// update).
    pub fn register(&mut self, app: AppProfile) {
        self.apps.insert(app.id, app);
    }

    /// `true` if the app has opted in.
    pub fn is_registered(&self, app: AppId) -> bool {
        self.apps.contains_key(&app)
    }

    /// Registered profiles in id order.
    pub fn registered(&self) -> impl Iterator<Item = &AppProfile> {
        self.apps.values()
    }

    /// Attempts to intercept a heartbeat. Returns the enriched form for
    /// registered apps, or [`None`] — meaning the heartbeat must take the
    /// plain cellular path — for apps that never opted in.
    pub fn intercept(&self, heartbeat: Heartbeat) -> Option<InterceptedHeartbeat> {
        let profile = self.apps.get(&heartbeat.app)?;
        Some(InterceptedHeartbeat {
            period: profile.heartbeat_period,
            expiration: profile.expiration,
            heartbeat,
        })
    }
}

impl Snap for MessageMonitor {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.apps.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(MessageMonitor {
            apps: BTreeMap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_apps::MessageIdGen;
    use hbr_sim::{DeviceId, SimTime};

    fn heartbeat_for(app: &AppProfile, ids: &mut MessageIdGen) -> Heartbeat {
        Heartbeat {
            id: ids.next_id(),
            app: app.id,
            source: DeviceId::new(0),
            seq: 0,
            size: app.heartbeat_size,
            created_at: SimTime::from_secs(270),
            expires_at: SimTime::from_secs(270) + app.expiration,
        }
    }

    #[test]
    fn intercepts_registered_apps_only() {
        let mut monitor = MessageMonitor::new();
        let wechat = AppProfile::wechat();
        let qq = AppProfile::qq();
        monitor.register(wechat.clone());

        let mut ids = MessageIdGen::new();
        let caught = monitor.intercept(heartbeat_for(&wechat, &mut ids));
        assert!(caught.is_some());
        let caught = caught.unwrap();
        assert_eq!(caught.period, wechat.heartbeat_period);
        assert_eq!(caught.expiration, wechat.expiration);

        assert!(monitor.intercept(heartbeat_for(&qq, &mut ids)).is_none());
    }

    #[test]
    fn reregistration_updates_profile() {
        let mut monitor = MessageMonitor::new();
        let wechat = AppProfile::wechat();
        monitor.register(wechat.clone());
        let updated = wechat.clone().with_expiration(SimDuration::from_secs(60));
        monitor.register(updated);
        let mut ids = MessageIdGen::new();
        let caught = monitor.intercept(heartbeat_for(&wechat, &mut ids)).unwrap();
        assert_eq!(caught.expiration, SimDuration::from_secs(60));
    }

    #[test]
    fn registered_iterates_in_id_order() {
        let mut monitor = MessageMonitor::new();
        monitor.register(AppProfile::qq());
        monitor.register(AppProfile::wechat());
        let names: Vec<_> = monitor.registered().map(|a| a.name.clone()).collect();
        assert_eq!(names, vec!["WeChat", "QQ"]);
    }
}
