//! Shared identity types.
//!
//! Every layer of the stack — mobility tracks, radios, energy meters, the
//! relaying framework — refers to the same physical smartphone, so the
//! device identifier lives here in the kernel crate rather than in any one
//! subsystem.

use std::fmt;

/// Identifies one simulated smartphone across all subsystems.
///
/// # Examples
///
/// ```
/// use hbr_sim::DeviceId;
///
/// let relay = DeviceId::new(0);
/// let ue = DeviceId::new(1);
/// assert_ne!(relay, ue);
/// assert_eq!(format!("{relay}"), "dev#0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DeviceId(u32);

impl DeviceId {
    /// Creates a device id from a raw index.
    pub const fn new(index: u32) -> Self {
        DeviceId(index)
    }

    /// The raw index backing this id.
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev#{}", self.0)
    }
}

impl From<u32> for DeviceId {
    fn from(index: u32) -> Self {
        DeviceId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_round_trip() {
        let id = DeviceId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(DeviceId::from(7u32), id);
        assert_eq!(format!("{id}"), "dev#7");
    }
}
