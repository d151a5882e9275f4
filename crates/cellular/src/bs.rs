//! Base-station-side aggregation: the operator's view of signaling load.
//!
//! §II-B: the operator's control channel has finite capacity, and massive
//! heartbeat-driven signaling "greatly deteriorates user experience …,
//! such as higher rate of paging failure". [`BaseStation`] collects every
//! radio's layer-3 activity and RRC connections — the signaling counts
//! the paper's figures report.

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::DeviceId;

use crate::l3::SignalingCapture;
use crate::radio::RadioActivity;

/// One cell's control-plane bookkeeping.
///
/// # Examples
///
/// ```
/// use hbr_cellular::{BaseStation, CellularRadio, RrcConfig};
/// use hbr_sim::{DeviceId, SimTime};
///
/// let mut bs = BaseStation::new();
/// let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
/// let out = radio.transmit(SimTime::ZERO, 74);
/// bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
/// assert_eq!(bs.rrc_connections(), 1);
/// assert_eq!(bs.total_l3(), 5);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BaseStation {
    capture: SignalingCapture,
    rrc_connections: u64,
}

impl BaseStation {
    /// Creates a base station that logs every layer-3 message.
    pub fn new() -> Self {
        BaseStation::default()
    }

    /// A base station that keeps only aggregate counters (total layer-3
    /// messages, RRC connections), dropping the per-message capture log.
    /// The crowd engine's cells use this; see [`SignalingCapture::compact`].
    pub fn compact() -> Self {
        BaseStation {
            capture: SignalingCapture::compact(),
            rrc_connections: 0,
        }
    }

    /// Records one radio's activity burst at the cell.
    pub fn record(&mut self, device: DeviceId, activity: &RadioActivity, new_connections: u32) {
        self.capture
            .record_all(device, activity.messages.iter().copied());
        self.rrc_connections += u64::from(new_connections);
    }

    /// The layer-3 capture log (the NetOptiMaster trace).
    pub fn capture(&self) -> &SignalingCapture {
        &self.capture
    }

    /// Total layer-3 messages seen by this cell.
    pub fn total_l3(&self) -> u64 {
        self.capture.total()
    }

    /// Total RRC connections established at this cell.
    pub fn rrc_connections(&self) -> u64 {
        self.rrc_connections
    }
}

impl Snap for BaseStation {
    fn snap(&self, w: &mut SnapshotWriter) {
        self.capture.snap(w);
        w.put_u64(self.rrc_connections);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(BaseStation {
            capture: SignalingCapture::unsnap(r)?,
            rrc_connections: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RrcConfig;
    use crate::radio::CellularRadio;
    use hbr_sim::SimTime;

    #[test]
    fn full_cycle_counts_eight() {
        let mut bs = BaseStation::new();
        let mut radio = CellularRadio::new(RrcConfig::wcdma_galaxy_s4());
        let out = radio.transmit(SimTime::ZERO, 74);
        bs.record(DeviceId::new(0), &out.activity, out.rrc_connections);
        let tail = radio.finalize(SimTime::from_secs(60));
        bs.record(DeviceId::new(0), &tail, 0);
        assert_eq!(bs.total_l3(), 8);
        assert_eq!(bs.rrc_connections(), 1);
    }
}
