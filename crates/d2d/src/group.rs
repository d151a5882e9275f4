//! Wi-Fi Direct group-owner intent.
//!
//! §IV-C: the prototype sets `groupOwnerIntent` to 15 (the maximum) for
//! relays and 0 for UEs, and *"the message scheduling algorithm would
//! reduce groupOwnerIntent proportionally until 0 while relay collects
//! heartbeat messages from connected UE(s)"* — a full relay should stop
//! winning negotiations so new UEs spread to other relays.

use std::fmt;

/// A Wi-Fi Direct group-owner intent value, `0..=15`.
///
/// # Examples
///
/// ```
/// use hbr_d2d::GoIntent;
///
/// let relay = GoIntent::MAX;
/// let ue = GoIntent::MIN;
/// assert!(relay > ue);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GoIntent(u8);

impl GoIntent {
    /// The minimum intent (never wants to own the group) — UEs.
    pub const MIN: GoIntent = GoIntent(0);
    /// The maximum intent (always wants to own the group) — fresh relays.
    pub const MAX: GoIntent = GoIntent(15);

    /// Creates an intent value.
    ///
    /// # Panics
    ///
    /// Panics if `value > 15` (the Android API range).
    pub fn new(value: u8) -> Self {
        assert!(value <= 15, "groupOwnerIntent must be 0..=15, got {value}");
        GoIntent(value)
    }

    /// The raw value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// The prototype's decay rule: a relay holding `collected` of at most
    /// `capacity` heartbeats advertises `15 × (1 − collected/capacity)`,
    /// reaching 0 when full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn for_relay_fill(collected: usize, capacity: usize) -> GoIntent {
        assert!(capacity > 0, "relay capacity must be positive");
        let remaining = capacity.saturating_sub(collected.min(capacity));
        let scaled = (15.0 * remaining as f64 / capacity as f64).round() as u8;
        GoIntent(scaled.min(15))
    }
}

impl fmt::Display for GoIntent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "goIntent={}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_is_proportional() {
        assert_eq!(GoIntent::for_relay_fill(0, 10), GoIntent::MAX);
        assert_eq!(GoIntent::for_relay_fill(5, 10), GoIntent::new(8)); // 7.5 → 8
        assert_eq!(GoIntent::for_relay_fill(10, 10), GoIntent::MIN);
        assert_eq!(
            GoIntent::for_relay_fill(99, 10),
            GoIntent::MIN,
            "overfull clamps"
        );
    }

    #[test]
    fn decay_is_monotone() {
        let capacity = 7;
        let mut last = GoIntent::MAX;
        for k in 0..=capacity {
            let intent = GoIntent::for_relay_fill(k, capacity);
            assert!(intent <= last, "intent must fall as the buffer fills");
            last = intent;
        }
        assert_eq!(last, GoIntent::MIN);
    }

    #[test]
    #[should_panic(expected = "0..=15")]
    fn out_of_range_intent_panics() {
        GoIntent::new(16);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        GoIntent::for_relay_fill(0, 0);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", GoIntent::new(9)), "goIntent=9");
    }
}
