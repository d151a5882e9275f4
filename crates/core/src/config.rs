//! Framework-wide configuration.

use hbr_cellular::RrcConfig;
use hbr_d2d::TechProfile;
use hbr_sim::SimDuration;

/// Tunables of the relaying framework (§III).
///
/// # Examples
///
/// ```
/// use hbr_core::FrameworkConfig;
///
/// let cfg = FrameworkConfig::default();
/// assert_eq!(cfg.relay_capacity, 7);
/// assert!(cfg.max_match_distance_m > 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FrameworkConfig {
    /// `M` of Table II: the maximum number of heartbeats a relay collects
    /// per period. The paper provides "a default value based on the
    /// experiments" — its multi-UE experiments top out at 7 UEs, which is
    /// the default here; relay owners may tune it to their battery budget.
    pub relay_capacity: usize,
    /// How long a UE waits for the relay's delivery feedback before
    /// re-sending its heartbeat over cellular (§III-A). Must exceed the
    /// relay period `T`: Algorithm 1 may delay a forwarded heartbeat up
    /// to `T` before the aggregated send, so a shorter timeout would
    /// trigger a spurious cellular fallback (and a duplicate delivery)
    /// for every single forward.
    pub feedback_timeout: SimDuration,
    /// Pre-judgment threshold (§III-C): relays estimated farther than
    /// this are not matched, because disconnection and transfer energy
    /// grow with distance (Fig. 12 shows D2D losing beyond ~15 m).
    pub max_match_distance_m: f64,
    /// Perform the energy pre-judgment: skip D2D when the predicted
    /// session energy exceeds direct cellular.
    pub energy_prejudgment: bool,
    /// The reward (in operator credits) a relay earns per forwarded
    /// heartbeat (§III-A's Karma-Go-style incentive).
    pub reward_per_heartbeat: u64,
    /// Keep Algorithm 1's expiration clause enabled. Disabling it is an
    /// ablation: relays then hold messages to the period end even when
    /// that breaches their expiration budgets.
    pub expiry_guard: bool,
    /// UE-side delegation policy: only hand a heartbeat to a relay when
    /// its expiration budget covers the relay's full aggregation window
    /// (plus a cushion). This is the operational meaning of the paper's
    /// §VII constraint that forwarded messages be "delay-tolerant" —
    /// without it, messages with expirations shorter than the relay
    /// period stay fresh individually but the *delivery-delay jitter*
    /// between early and late flushes makes server presence flap.
    pub delegation_slack_check: bool,
}

impl Default for FrameworkConfig {
    fn default() -> Self {
        FrameworkConfig {
            relay_capacity: 7,
            feedback_timeout: SimDuration::from_secs(300),
            max_match_distance_m: 15.0,
            energy_prejudgment: true,
            reward_per_heartbeat: 1,
            expiry_guard: true,
            delegation_slack_check: true,
        }
    }
}

impl FrameworkConfig {
    /// Validates the configuration, panicking on nonsensical values.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero, the feedback timeout is zero, or
    /// the match distance is not positive and finite.
    pub fn validate(&self) {
        assert!(self.relay_capacity > 0, "relay capacity must be positive");
        assert!(
            !self.feedback_timeout.is_zero(),
            "feedback timeout must be positive"
        );
        assert!(
            self.max_match_distance_m.is_finite() && self.max_match_distance_m > 0.0,
            "max match distance must be positive and finite"
        );
    }
}

/// The technology/radio stack a scenario runs on: one D2D technique plus
/// one cellular configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioStack {
    /// The D2D technique used for forwarding (the prototype: Wi-Fi Direct).
    pub d2d: TechProfile,
    /// The cellular network model (the paper measured WCDMA).
    pub cellular: RrcConfig,
}

impl Default for RadioStack {
    fn default() -> Self {
        RadioStack {
            d2d: TechProfile::wifi_direct(),
            cellular: RrcConfig::wcdma_galaxy_s4(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        FrameworkConfig::default().validate();
        let stack = RadioStack::default();
        assert_eq!(stack.d2d.technology, hbr_d2d::D2dTechnology::WifiDirect);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        FrameworkConfig {
            relay_capacity: 0,
            ..FrameworkConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "timeout")]
    fn zero_timeout_rejected() {
        FrameworkConfig {
            feedback_timeout: SimDuration::ZERO,
            ..FrameworkConfig::default()
        }
        .validate();
    }
}
