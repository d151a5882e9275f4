//! Relay incentives — the Karma-Go-style micro-payment ledger.
//!
//! §III-A: relays spend their own battery and data connection for the
//! common good, so the operator "could offer some rewards, such as
//! offering some free cellular data, or reducing the cost for their
//! service" per collected heartbeat — the same mechanism Karma Go uses
//! ($1 of credit per shared connection). [`RewardLedger`] does that
//! bookkeeping on the operator side and renders the balance the relay UI
//! of §III-D displays.

use std::collections::BTreeMap;

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::DeviceId;

/// Operator-side reward accounting for every relay.
///
/// # Examples
///
/// ```
/// use hbr_core::RewardLedger;
/// use hbr_sim::DeviceId;
///
/// let mut ledger = RewardLedger::new(1);
/// ledger.credit_forwards(DeviceId::new(0), 7);
/// assert_eq!(ledger.balance(DeviceId::new(0)), 7);
/// assert_eq!(ledger.total_paid(), 7);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RewardLedger {
    reward_per_heartbeat: u64,
    balances: BTreeMap<DeviceId, u64>,
    forwards: BTreeMap<DeviceId, u64>,
}

impl RewardLedger {
    /// Creates a ledger paying `reward_per_heartbeat` credits per
    /// collected heartbeat.
    pub fn new(reward_per_heartbeat: u64) -> Self {
        RewardLedger {
            reward_per_heartbeat,
            balances: BTreeMap::new(),
            forwards: BTreeMap::new(),
        }
    }

    /// Credits a relay for `count` forwarded heartbeats.
    pub fn credit_forwards(&mut self, relay: DeviceId, count: u64) {
        *self.forwards.entry(relay).or_insert(0) += count;
        *self.balances.entry(relay).or_insert(0) += count * self.reward_per_heartbeat;
    }

    /// A relay's current credit balance.
    pub fn balance(&self, relay: DeviceId) -> u64 {
        self.balances.get(&relay).copied().unwrap_or(0)
    }

    /// Heartbeats a relay has been credited for.
    pub fn forwards(&self, relay: DeviceId) -> u64 {
        self.forwards.get(&relay).copied().unwrap_or(0)
    }

    /// Total credits the operator has paid out.
    pub fn total_paid(&self) -> u64 {
        self.forwards.values().sum::<u64>() * self.reward_per_heartbeat
    }

    /// Relays with any history, in id order, with `(balance, forwards)`.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, u64, u64)> + '_ {
        self.forwards.iter().map(move |(id, forwards)| {
            (*id, self.balances.get(id).copied().unwrap_or(0), *forwards)
        })
    }
}

impl Snap for RewardLedger {
    fn snap(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.reward_per_heartbeat);
        self.balances.snap(w);
        self.forwards.snap(w);
    }
    fn unsnap(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(RewardLedger {
            reward_per_heartbeat: r.take_u64()?,
            balances: BTreeMap::unsnap(r)?,
            forwards: BTreeMap::unsnap(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn credits_accumulate_per_relay() {
        let mut l = RewardLedger::new(2);
        l.credit_forwards(DeviceId::new(0), 3);
        l.credit_forwards(DeviceId::new(0), 4);
        l.credit_forwards(DeviceId::new(1), 1);
        assert_eq!(l.balance(DeviceId::new(0)), 14);
        assert_eq!(l.forwards(DeviceId::new(0)), 7);
        assert_eq!(l.balance(DeviceId::new(1)), 2);
        assert_eq!(l.total_paid(), 16);
        assert_eq!(l.balance(DeviceId::new(9)), 0);
    }

    #[test]
    fn iter_lists_relays_in_order() {
        let mut l = RewardLedger::new(1);
        l.credit_forwards(DeviceId::new(2), 1);
        l.credit_forwards(DeviceId::new(0), 2);
        let rows: Vec<_> = l.iter().collect();
        assert_eq!(rows[0].0, DeviceId::new(0));
        assert_eq!(rows[1].0, DeviceId::new(2));
    }
}
