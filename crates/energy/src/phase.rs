//! Activity phases for energy attribution.
//!
//! Table III of the paper breaks a D2D session's energy into *Discovery*,
//! *Connection* and *Forwarding*; the cellular side has promotion, active
//! transfer and the long tail (Fig. 7). Tagging every current segment with
//! a [`Phase`] lets the reports regenerate those breakdowns exactly.

use std::fmt;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// Fine-grained activity that a current segment is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Phase {
    /// OS / screen-off floor current, always flowing.
    #[default]
    Baseline,
    /// Scanning for D2D peers (Wi-Fi Direct `discoverPeers`).
    D2dDiscovery,
    /// Group-owner negotiation + link establishment.
    D2dConnection,
    /// Keeping an established D2D group alive between transfers.
    D2dIdle,
    /// Transmitting application data over the D2D link (UE side).
    D2dSend,
    /// Receiving application data over the D2D link (relay side).
    D2dReceive,
    /// RRC connection establishment (IDLE → CONNECTED / DCH promotion).
    CellularPromotion,
    /// Active cellular transfer.
    CellularActive,
    /// High-power lingering after a cellular transfer (the tail problem).
    CellularTail,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 9] = [
        Phase::Baseline,
        Phase::D2dDiscovery,
        Phase::D2dConnection,
        Phase::D2dIdle,
        Phase::D2dSend,
        Phase::D2dReceive,
        Phase::CellularPromotion,
        Phase::CellularActive,
        Phase::CellularTail,
    ];

    /// The paper-level grouping this phase reports under.
    pub fn group(self) -> PhaseGroup {
        match self {
            Phase::Baseline => PhaseGroup::Baseline,
            Phase::D2dDiscovery => PhaseGroup::Discovery,
            Phase::D2dConnection => PhaseGroup::Connection,
            Phase::D2dIdle | Phase::D2dSend | Phase::D2dReceive => PhaseGroup::Forwarding,
            Phase::CellularPromotion | Phase::CellularActive | Phase::CellularTail => {
                PhaseGroup::Cellular
            }
        }
    }
}

impl Snap for Phase {
    /// Phases travel as their index into [`Phase::ALL`].
    fn snap(&self, w: &mut SnapshotWriter) {
        let idx = Phase::ALL
            .iter()
            .position(|p| p == self)
            .expect("Phase::ALL is exhaustive");
        w.put_u8(idx as u8);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let idx = r.take_u8()? as usize;
        Phase::ALL
            .get(idx)
            .copied()
            .ok_or_else(|| SnapshotError::Corrupt(format!("phase tag {idx}")))
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Phase::Baseline => "baseline",
            Phase::D2dDiscovery => "d2d-discovery",
            Phase::D2dConnection => "d2d-connection",
            Phase::D2dIdle => "d2d-idle",
            Phase::D2dSend => "d2d-send",
            Phase::D2dReceive => "d2d-receive",
            Phase::CellularPromotion => "cell-promotion",
            Phase::CellularActive => "cell-active",
            Phase::CellularTail => "cell-tail",
        };
        f.write_str(name)
    }
}

/// The coarse breakdown used in the paper's Table III: Discovery /
/// Connection / Forwarding, plus cellular and the always-on baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseGroup {
    /// Always-on floor.
    Baseline,
    /// D2D peer discovery.
    Discovery,
    /// D2D connection establishment.
    Connection,
    /// D2D data exchange (send, receive, group keep-alive).
    Forwarding,
    /// Everything on the cellular interface.
    Cellular,
}

impl PhaseGroup {
    /// All groups, in display order.
    pub const ALL: [PhaseGroup; 5] = [
        PhaseGroup::Baseline,
        PhaseGroup::Discovery,
        PhaseGroup::Connection,
        PhaseGroup::Forwarding,
        PhaseGroup::Cellular,
    ];

    /// The group's name as a static label for metrics and events.
    pub fn label(self) -> &'static str {
        match self {
            PhaseGroup::Baseline => "Baseline",
            PhaseGroup::Discovery => "Discovery",
            PhaseGroup::Connection => "Connection",
            PhaseGroup::Forwarding => "Forwarding",
            PhaseGroup::Cellular => "Cellular",
        }
    }
}

impl fmt::Display for PhaseGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_phase_has_a_group() {
        for phase in Phase::ALL {
            // Exercise the mapping; the match in `group` is exhaustive so
            // this is mostly a guard against display regressions.
            let _ = phase.group();
            assert!(!format!("{phase}").is_empty());
        }
        for group in PhaseGroup::ALL {
            assert!(!format!("{group}").is_empty());
        }
    }

    #[test]
    fn table3_mapping() {
        assert_eq!(Phase::D2dDiscovery.group(), PhaseGroup::Discovery);
        assert_eq!(Phase::D2dConnection.group(), PhaseGroup::Connection);
        assert_eq!(Phase::D2dSend.group(), PhaseGroup::Forwarding);
        assert_eq!(Phase::D2dReceive.group(), PhaseGroup::Forwarding);
        assert_eq!(Phase::CellularTail.group(), PhaseGroup::Cellular);
    }
}
