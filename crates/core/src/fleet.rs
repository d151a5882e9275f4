//! Fleet construction: reproducible crowds of devices for scenarios.
//!
//! The evaluation keeps building the same shape of world — N phones in
//! an area, a fraction volunteering as relays, realistic app mixes, a
//! few pedestrians wandering. [`FleetBuilder`] centralises that so
//! examples, experiments and tests assemble identical crowds from a
//! handful of knobs.

use hbr_apps::AppProfile;
use hbr_mobility::model::Bounds;
use hbr_mobility::{Mobility, Position};
use hbr_sim::SimRng;

use crate::world::{DeviceSpec, Role};

/// Builds a reproducible crowd of [`DeviceSpec`]s.
///
/// # Examples
///
/// ```
/// use hbr_core::fleet::FleetBuilder;
///
/// let devices = FleetBuilder::new(20, 4)
///     .area_side_m(30.0)
///     .walker_share(0.1)
///     .build(42);
/// assert_eq!(devices.len(), 20);
/// assert_eq!(
///     devices.iter().filter(|d| d.role == hbr_core::world::Role::Relay).count(),
///     4
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FleetBuilder {
    phones: usize,
    relays: usize,
    area_side_m: f64,
    walker_share: f64,
}

impl FleetBuilder {
    /// A fleet of `phones` devices, the first `relays` of which volunteer
    /// as relays.
    ///
    /// # Panics
    ///
    /// Panics if `phones` is zero or `relays > phones`.
    pub fn new(phones: usize, relays: usize) -> Self {
        assert!(phones > 0, "a fleet needs at least one phone");
        assert!(relays <= phones, "cannot have more relays than phones");
        FleetBuilder {
            phones,
            relays,
            area_side_m: 40.0,
            walker_share: 0.1,
        }
    }

    /// Side length of the square deployment area, metres.
    ///
    /// # Panics
    ///
    /// Panics if `side` is not positive and finite.
    pub fn area_side_m(mut self, side: f64) -> Self {
        assert!(side.is_finite() && side > 0.0, "area side must be positive");
        self.area_side_m = side;
        self
    }

    /// Fraction of devices that wander (random waypoint) instead of
    /// standing still. Clamped to `[0, 1]`.
    pub fn walker_share(mut self, share: f64) -> Self {
        self.walker_share = share.clamp(0.0, 1.0);
        self
    }

    /// Materialises the fleet deterministically from `seed`.
    pub fn build(&self, seed: u64) -> Vec<DeviceSpec> {
        let mut rng = SimRng::seed_from(seed);
        let bounds = Bounds::square(self.area_side_m);
        let margin = (self.area_side_m * 0.05).min(2.0);
        let lo = margin;
        let hi = self.area_side_m - margin;
        (0..self.phones)
            .map(|i| {
                let x = rng.range(lo..hi);
                let y = rng.range(lo..hi);
                let walker = rng.unit() < self.walker_share;
                let mobility = if walker {
                    Mobility::random_waypoint(Position::new(x, y), bounds, 0.5, 1.2, 60.0)
                } else {
                    Mobility::stationary(Position::new(x, y))
                };
                DeviceSpec {
                    role: if i < self.relays {
                        Role::Relay
                    } else {
                        Role::Ue
                    },
                    apps: app_mix(i),
                    mobility,
                    battery_mah: None,
                }
            })
            .collect()
    }
}

/// The app bundle of the `index`-th device: fleets cycle through WeChat,
/// WhatsApp, and WeChat plus QQ.
fn app_mix(index: usize) -> Vec<AppProfile> {
    match index % 3 {
        0 => vec![AppProfile::wechat()],
        1 => vec![AppProfile::whatsapp()],
        _ => vec![AppProfile::wechat(), AppProfile::qq()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_has_requested_shape() {
        let fleet = FleetBuilder::new(10, 3).build(1);
        assert_eq!(fleet.len(), 10);
        assert_eq!(fleet.iter().filter(|d| d.role == Role::Relay).count(), 3);
        assert!(fleet.iter().all(|d| !d.apps.is_empty()));
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = FleetBuilder::new(15, 2).build(9);
        let b = FleetBuilder::new(15, 2).build(9);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.mobility.position(), y.mobility.position());
            assert_eq!(x.role, y.role);
        }
        let c = FleetBuilder::new(15, 2).build(10);
        assert!(
            a.iter()
                .zip(&c)
                .any(|(x, y)| x.mobility.position() != y.mobility.position()),
            "different seeds must place devices differently"
        );
    }

    #[test]
    fn positions_respect_the_area() {
        let side = 25.0;
        let fleet = FleetBuilder::new(50, 5).area_side_m(side).build(3);
        for spec in &fleet {
            let p = spec.mobility.position();
            assert!((0.0..=side).contains(&p.x) && (0.0..=side).contains(&p.y));
        }
    }

    #[test]
    fn walker_share_extremes() {
        let none = FleetBuilder::new(20, 2).walker_share(0.0).build(4);
        // With share 0, every device must be stationary: advancing time
        // never moves anyone.
        for spec in none {
            let mut m = spec.mobility.clone();
            let mut rng = SimRng::seed_from(1);
            let before = m.position();
            m.advance_to(hbr_sim::SimTime::from_secs(600), &mut rng);
            assert_eq!(m.position(), before);
        }
    }

    #[test]
    #[should_panic(expected = "more relays")]
    fn too_many_relays_rejected() {
        FleetBuilder::new(3, 4);
    }
}
