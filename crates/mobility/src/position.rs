//! Planar positions in metres.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use hbr_sim::snap_struct;
use hbr_sim::snapshot::SnapshotError;

/// A point in the 2-D simulation plane, in metres.
///
/// # Examples
///
/// ```
/// use hbr_mobility::Position;
///
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_to(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East–west coordinate in metres.
    pub x: f64,
    /// North–south coordinate in metres.
    pub y: f64,
}

impl Position {
    /// The origin of the plane.
    pub const ORIGIN: Position = Position { x: 0.0, y: 0.0 };

    /// Creates a position from coordinates in metres.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is NaN.
    pub fn new(x: f64, y: f64) -> Self {
        assert!(
            !x.is_nan() && !y.is_nan(),
            "Position coordinates must not be NaN"
        );
        Position { x, y }
    }

    /// Euclidean distance to another position, in metres.
    pub fn distance_to(self, other: Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Linear interpolation: the point a fraction `t ∈ [0, 1]` of the way
    /// towards `target` (`t` is clamped).
    pub fn lerp(self, target: Position, t: f64) -> Position {
        let t = t.clamp(0.0, 1.0);
        Position {
            x: self.x + (target.x - self.x) * t,
            y: self.y + (target.y - self.y) * t,
        }
    }

    /// The point reached by walking `distance` metres from `self` towards
    /// `target`, stopping at `target` if the distance overshoots.
    pub fn step_towards(self, target: Position, distance: f64) -> Position {
        let full = self.distance_to(target);
        if full <= distance || full == 0.0 {
            target
        } else {
            self.lerp(target, distance / full)
        }
    }
}

snap_struct!(Position { x, y } check check_not_nan);

fn check_not_nan(p: &Position) -> Result<(), SnapshotError> {
    if p.x.is_nan() || p.y.is_nan() {
        return Err(SnapshotError::Corrupt("NaN position".into()));
    }
    Ok(())
}

impl Add for Position {
    type Output = Position;

    fn add(self, rhs: Position) -> Position {
        Position {
            x: self.x + rhs.x,
            y: self.y + rhs.y,
        }
    }
}

impl Sub for Position {
    type Output = Position;

    fn sub(self, rhs: Position) -> Position {
        Position {
            x: self.x - rhs.x,
            y: self.y - rhs.y,
        }
    }
}

impl Mul<f64> for Position {
    type Output = Position;

    fn mul(self, rhs: f64) -> Position {
        Position {
            x: self.x * rhs,
            y: self.y * rhs,
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.2}m, {:.2}m)", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hbr_sim::snapshot::{Snap, SnapshotReader, SnapshotWriter};

    #[test]
    fn restore_refuses_a_nan_position() {
        let mut w = SnapshotWriter::new();
        Position {
            x: 1.0,
            y: f64::NAN,
        }
        .snap(&mut w);
        let bytes = w.into_bytes();
        let err = Position::unsnap(&mut SnapshotReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)), "{err}");
    }

    #[test]
    fn distance_is_euclidean() {
        assert_eq!(Position::ORIGIN.distance_to(Position::new(3.0, 4.0)), 5.0);
        assert_eq!(Position::ORIGIN.distance_to(Position::ORIGIN), 0.0);
    }

    #[test]
    fn lerp_clamps() {
        let a = Position::ORIGIN;
        let b = Position::new(10.0, 0.0);
        assert_eq!(a.lerp(b, 0.5), Position::new(5.0, 0.0));
        assert_eq!(a.lerp(b, 2.0), b);
        assert_eq!(a.lerp(b, -1.0), a);
    }

    #[test]
    fn step_towards_stops_at_target() {
        let a = Position::ORIGIN;
        let b = Position::new(10.0, 0.0);
        assert_eq!(a.step_towards(b, 4.0), Position::new(4.0, 0.0));
        assert_eq!(a.step_towards(b, 40.0), b);
        assert_eq!(b.step_towards(b, 1.0), b, "degenerate zero-length walk");
    }

    #[test]
    fn vector_arithmetic() {
        let a = Position::new(1.0, 2.0);
        let b = Position::new(3.0, 5.0);
        assert_eq!(a + b, Position::new(4.0, 7.0));
        assert_eq!(b - a, Position::new(2.0, 3.0));
        assert_eq!(a * 2.0, Position::new(2.0, 4.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        Position::new(f64::NAN, 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert_eq!(format!("{}", Position::new(1.5, -2.0)), "(1.50m, -2.00m)");
    }
}
