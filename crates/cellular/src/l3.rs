//! Layer-3 signaling messages and their capture log.
//!
//! The paper measures signaling cost by capturing layer-3 messages with
//! NetOptiMaster on a WCDMA network (§V-B, Fig. 14) and counting them
//! (Fig. 15). [`SignalingCapture`] is that instrument's stand-in: every
//! RRC transition appends its timestamped messages here.

use std::fmt;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{snap_struct, DeviceId, SimTime};

/// A layer-3 RRC control message, as NetOptiMaster would label it.
///
/// The default, `RrcConnectionRequest`, only fills the unused slots of
/// an inline message list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum L3Message {
    /// UE → network: asks for an RRC connection.
    #[default]
    RrcConnectionRequest,
    /// Network → UE: grants the connection.
    RrcConnectionSetup,
    /// UE → network: confirms the connection.
    RrcConnectionSetupComplete,
    /// Network → UE: configures the data radio bearer.
    RadioBearerSetup,
    /// UE → network: confirms the bearer.
    RadioBearerSetupComplete,
    /// Network → UE: DCH → FACH reconfiguration (tail demotion).
    RadioBearerReconfiguration,
    /// Extra reconfiguration triggered by larger data volumes.
    TransportChannelReconfiguration,
    /// UE → network: FACH → DCH re-promotion.
    CellUpdate,
    /// Network → UE: confirms the cell update.
    CellUpdateConfirm,
    /// Network → UE: tears the connection down.
    RrcConnectionRelease,
    /// UE → network: confirms the teardown.
    RrcConnectionReleaseComplete,
    /// Network → UE: page for mobile-terminated traffic.
    PagingType1,
}

impl L3Message {
    /// All message types, in declaration order — the snapshot tag space.
    const ALL: [L3Message; 12] = [
        L3Message::RrcConnectionRequest,
        L3Message::RrcConnectionSetup,
        L3Message::RrcConnectionSetupComplete,
        L3Message::RadioBearerSetup,
        L3Message::RadioBearerSetupComplete,
        L3Message::RadioBearerReconfiguration,
        L3Message::TransportChannelReconfiguration,
        L3Message::CellUpdate,
        L3Message::CellUpdateConfirm,
        L3Message::RrcConnectionRelease,
        L3Message::RrcConnectionReleaseComplete,
        L3Message::PagingType1,
    ];
}

impl Snap for L3Message {
    fn snap(&self, w: &mut SnapshotWriter) {
        let idx = L3Message::ALL
            .iter()
            .position(|m| m == self)
            .expect("L3Message::ALL is exhaustive");
        w.put_u8(idx as u8);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let idx = r.take_u8()? as usize;
        L3Message::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("l3 message tag {idx}")))
    }
}

impl fmt::Display for L3Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            L3Message::RrcConnectionRequest => "RRC CONNECTION REQUEST",
            L3Message::RrcConnectionSetup => "RRC CONNECTION SETUP",
            L3Message::RrcConnectionSetupComplete => "RRC CONNECTION SETUP COMPLETE",
            L3Message::RadioBearerSetup => "RADIO BEARER SETUP",
            L3Message::RadioBearerSetupComplete => "RADIO BEARER SETUP COMPLETE",
            L3Message::RadioBearerReconfiguration => "RADIO BEARER RECONFIGURATION",
            L3Message::TransportChannelReconfiguration => "TRANSPORT CHANNEL RECONFIGURATION",
            L3Message::CellUpdate => "CELL UPDATE",
            L3Message::CellUpdateConfirm => "CELL UPDATE CONFIRM",
            L3Message::RrcConnectionRelease => "RRC CONNECTION RELEASE",
            L3Message::RrcConnectionReleaseComplete => "RRC CONNECTION RELEASE COMPLETE",
            L3Message::PagingType1 => "PAGING TYPE 1",
        };
        f.write_str(s)
    }
}

/// One captured entry: which device exchanged which message, when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapturedMessage {
    /// Capture timestamp.
    pub time: SimTime,
    /// The device whose radio exchanged the message.
    pub device: DeviceId,
    /// The message type.
    pub message: L3Message,
}

snap_struct!(CapturedMessage {
    time,
    device,
    message
});

/// The layer-3 capture log — the simulation's NetOptiMaster.
///
/// # Examples
///
/// ```
/// use hbr_cellular::{L3Message, SignalingCapture};
/// use hbr_sim::{DeviceId, SimTime};
///
/// let mut capture = SignalingCapture::new();
/// capture.record(SimTime::ZERO, DeviceId::new(0), L3Message::RrcConnectionRequest);
/// assert_eq!(capture.total(), 1);
/// assert_eq!(capture.count_for(DeviceId::new(0)), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SignalingCapture {
    entries: Vec<CapturedMessage>,
    counted: u64,
    compact: bool,
}

impl SignalingCapture {
    /// Creates an empty capture.
    pub fn new() -> Self {
        SignalingCapture::default()
    }

    /// Creates a capture that keeps only the message count, dropping the
    /// per-message log. [`SignalingCapture::total`] behaves exactly as
    /// on a full capture; entry-level queries ([`SignalingCapture::entries`],
    /// [`SignalingCapture::count_for`], rate windows) see an empty log.
    /// The crowd engine uses this so a city-scale cell does not retain
    /// every layer-3 message it ever saw.
    pub fn compact() -> Self {
        SignalingCapture {
            compact: true,
            ..SignalingCapture::default()
        }
    }

    /// Appends one message to the log.
    pub fn record(&mut self, time: SimTime, device: DeviceId, message: L3Message) {
        self.counted += 1;
        if self.compact {
            return;
        }
        self.entries.push(CapturedMessage {
            time,
            device,
            message,
        });
    }

    /// Appends a batch of `(time, message)` pairs for one device.
    pub fn record_all<I>(&mut self, device: DeviceId, messages: I)
    where
        I: IntoIterator<Item = (SimTime, L3Message)>,
    {
        for (time, message) in messages {
            self.record(time, device, message);
        }
    }

    /// Every captured entry, in capture order.
    pub fn entries(&self) -> &[CapturedMessage] {
        &self.entries
    }

    /// Total number of captured layer-3 messages — the paper's y-axis in
    /// Fig. 15.
    pub fn total(&self) -> u64 {
        self.counted
    }

    /// Messages attributed to one device.
    pub fn count_for(&self, device: DeviceId) -> u64 {
        self.entries.iter().filter(|e| e.device == device).count() as u64
    }

    /// Merges another capture into this one, keeping time order stable by
    /// re-sorting on (time, insertion order is preserved for ties).
    pub fn merge(&mut self, other: &SignalingCapture) {
        self.counted += other.counted;
        self.entries.extend_from_slice(&other.entries);
        self.entries.sort_by_key(|e| e.time);
    }

    /// Histogram of captured message types, sorted by descending count —
    /// the composition view an operator dashboard shows.
    pub fn histogram(&self) -> Vec<(L3Message, u64)> {
        let mut counts: std::collections::BTreeMap<L3Message, u64> = Default::default();
        for e in &self.entries {
            *counts.entry(e.message).or_insert(0) += 1;
        }
        let mut out: Vec<(L3Message, u64)> = counts.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Messages per second over the capture's span ([`None`] when the
    /// capture holds fewer than two entries).
    pub fn rate(&self) -> Option<f64> {
        let first = self.entries.first()?.time;
        let last = self.entries.last()?.time;
        let span = last.checked_since(first)?.as_secs_f64();
        (span > 0.0).then(|| self.entries.len() as f64 / span)
    }
}

snap_struct!(SignalingCapture {
    compact,
    counted,
    entries
});

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId::new(i)
    }

    #[test]
    fn records_and_counts() {
        let mut c = SignalingCapture::new();
        c.record(
            SimTime::from_secs(1),
            dev(0),
            L3Message::RrcConnectionRequest,
        );
        c.record(SimTime::from_secs(2), dev(1), L3Message::RrcConnectionSetup);
        c.record(
            SimTime::from_secs(3),
            dev(0),
            L3Message::RrcConnectionRelease,
        );
        assert_eq!(c.total(), 3);
        assert_eq!(c.count_for(dev(0)), 2);
        assert_eq!(c.count_for(dev(9)), 0);
    }

    #[test]
    fn record_all_batches() {
        let mut c = SignalingCapture::new();
        c.record_all(
            dev(3),
            vec![
                (SimTime::ZERO, L3Message::RrcConnectionRequest),
                (SimTime::from_millis(40), L3Message::RrcConnectionSetup),
            ],
        );
        assert_eq!(c.count_for(dev(3)), 2);
    }

    #[test]
    fn merge_sorts_by_time() {
        let mut a = SignalingCapture::new();
        a.record(SimTime::from_secs(5), dev(0), L3Message::CellUpdate);
        let mut b = SignalingCapture::new();
        b.record(SimTime::from_secs(1), dev(1), L3Message::PagingType1);
        a.merge(&b);
        assert_eq!(a.entries()[0].device, dev(1));
        assert_eq!(a.total(), 2);
    }

    #[test]
    fn histogram_counts_and_sorts() {
        let mut c = SignalingCapture::new();
        for _ in 0..3 {
            c.record(SimTime::ZERO, dev(0), L3Message::CellUpdate);
        }
        c.record(SimTime::from_secs(1), dev(0), L3Message::PagingType1);
        let hist = c.histogram();
        assert_eq!(hist[0], (L3Message::CellUpdate, 3));
        assert_eq!(hist[1], (L3Message::PagingType1, 1));
    }

    #[test]
    fn rate_needs_a_span() {
        let mut c = SignalingCapture::new();
        assert_eq!(c.rate(), None);
        c.record(SimTime::ZERO, dev(0), L3Message::CellUpdate);
        assert_eq!(c.rate(), None, "zero span");
        c.record(SimTime::from_secs(10), dev(0), L3Message::CellUpdate);
        assert_eq!(c.rate(), Some(0.2));
    }

    #[test]
    fn display_names_are_nonempty() {
        for m in [
            L3Message::RrcConnectionRequest,
            L3Message::RadioBearerReconfiguration,
            L3Message::PagingType1,
        ] {
            assert!(!format!("{m}").is_empty());
        }
    }
}
