//! A uniform-grid spatial index for neighbourhood queries.
//!
//! The paper's detection sweep asks, for every matching UE, "which
//! devices sit within D2D range?" A linear scan answers that in O(n)
//! per query — O(n²) per sweep — which caps crowd sizes long before the
//! densities the related aggregation/trunking studies evaluate at.
//! [`SpatialGrid`] buckets devices into square cells whose side equals
//! the discovery radius, so a query touches only the 3×3 cell
//! neighbourhood around the querying device: O(local density) instead
//! of O(n).
//!
//! [`Field`](crate::Field) owns one as a cache and keeps it current in
//! place, patching single entries as devices arrive, leave and move, so
//! a device that moves costs one bucket update, not a rebuild. Queries
//! with a radius
//! other than the cell side stay correct — the scan just widens to
//! however many cell rings the radius needs.

use std::collections::HashMap;

use hbr_sim::DeviceId;

use crate::position::Position;

/// A uniform grid of square cells indexing device positions.
///
/// # Examples
///
/// ```
/// use hbr_mobility::grid::SpatialGrid;
/// use hbr_mobility::Position;
/// use hbr_sim::DeviceId;
///
/// let grid = SpatialGrid::build(
///     20.0,
///     [
///         (DeviceId::new(0), Position::ORIGIN),
///         (DeviceId::new(1), Position::new(6.0, 8.0)),
///         (DeviceId::new(2), Position::new(100.0, 0.0)),
///     ],
/// );
/// let near = grid.neighbours_within(DeviceId::new(0), Position::ORIGIN, 20.0);
/// assert_eq!(near, vec![(DeviceId::new(1), 10.0)]);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    cell_m: f64,
    cells: HashMap<(i64, i64), Vec<(DeviceId, Position)>>,
    len: usize,
}

impl SpatialGrid {
    /// Builds an index over `points` with square cells of side `cell_m`.
    /// A non-finite or non-positive `cell_m` falls back to 1 m cells.
    pub fn build(cell_m: f64, points: impl IntoIterator<Item = (DeviceId, Position)>) -> Self {
        let cell_m = if cell_m.is_finite() && cell_m > 0.0 {
            cell_m
        } else {
            1.0
        };
        let mut grid = SpatialGrid {
            cell_m,
            cells: HashMap::new(),
            len: 0,
        };
        for (id, pos) in points {
            grid.insert(id, pos);
        }
        grid
    }

    /// Indexes `id` at `pos`. The caller keeps ids unique: inserting an
    /// id that is already indexed leaves two entries for it.
    pub(crate) fn insert(&mut self, id: DeviceId, pos: Position) {
        self.cells
            .entry(Self::key_for(self.cell_m, pos))
            .or_default()
            .push((id, pos));
        self.len += 1;
    }

    /// Drops `id`, which was indexed at `pos`. Returns `false` (and
    /// changes nothing) if it is not in that position's bucket.
    pub(crate) fn remove(&mut self, id: DeviceId, pos: Position) -> bool {
        let key = Self::key_for(self.cell_m, pos);
        let Some(bucket) = self.cells.get_mut(&key) else {
            return false;
        };
        let Some(slot) = bucket.iter().position(|&(other, _)| other == id) else {
            return false;
        };
        bucket.swap_remove(slot);
        if bucket.is_empty() {
            self.cells.remove(&key);
        }
        self.len -= 1;
        true
    }

    /// Moves `id` from `from` to `to`: an update inside its bucket while
    /// it stays in the same cell, a move between buckets when it crosses
    /// into another. Does nothing if `id` is not indexed at `from`.
    pub(crate) fn relocate(&mut self, id: DeviceId, from: Position, to: Position) {
        let key = Self::key_for(self.cell_m, from);
        if key != Self::key_for(self.cell_m, to) {
            if self.remove(id, from) {
                self.insert(id, to);
            }
        } else if let Some(entry) = self
            .cells
            .get_mut(&key)
            .and_then(|bucket| bucket.iter_mut().find(|(other, _)| *other == id))
        {
            entry.1 = to;
        }
    }

    /// The cell side in metres.
    pub fn cell_m(&self) -> f64 {
        self.cell_m
    }

    /// Number of indexed devices.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the index holds no devices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn key_for(cell_m: f64, pos: Position) -> (i64, i64) {
        // Positions are bounded by the deployment area, so the cast
        // cannot overflow in practice; saturating keeps pathological
        // coordinates from wrapping.
        (
            (pos.x / cell_m).floor() as i64,
            (pos.y / cell_m).floor() as i64,
        )
    }

    /// Calls `visit(id, distance)` for every indexed device other than
    /// `centre_id` within `radius` metres of `centre`, in no particular
    /// order. A non-finite or negative radius visits nothing.
    ///
    /// Only the cells overlapping the query disc are scanned: for the
    /// canonical `radius == cell_m` query that is the 3×3 neighbourhood
    /// around the centre's cell.
    pub(crate) fn visit_within(
        &self,
        centre_id: DeviceId,
        centre: Position,
        radius: f64,
        mut visit: impl FnMut(DeviceId, f64),
    ) {
        if !radius.is_finite() || radius < 0.0 {
            return;
        }
        let (cx, cy) = Self::key_for(self.cell_m, centre);
        let reach = (radius / self.cell_m).ceil() as i64;
        for gx in (cx - reach)..=(cx + reach) {
            for gy in (cy - reach)..=(cy + reach) {
                let Some(bucket) = self.cells.get(&(gx, gy)) else {
                    continue;
                };
                for &(id, pos) in bucket {
                    if id == centre_id {
                        continue;
                    }
                    let d = centre.distance_to(pos);
                    if d <= radius {
                        visit(id, d);
                    }
                }
            }
        }
    }

    /// All indexed devices other than `centre_id` within `radius` metres
    /// of `centre`, sorted by ascending distance with ties broken by
    /// device id — the same contract as
    /// [`Field::neighbours_within`](crate::Field::neighbours_within).
    pub fn neighbours_within(
        &self,
        centre_id: DeviceId,
        centre: Position,
        radius: f64,
    ) -> Vec<(DeviceId, f64)> {
        let mut out = Vec::new();
        self.visit_within(centre_id, centre, radius, |id, d| out.push((id, d)));
        sort_nearest_first(&mut out);
        out
    }
}

/// Orders a neighbour list by ascending distance, ties by device id.
pub(crate) fn sort_nearest_first(neighbours: &mut [(DeviceId, f64)]) {
    neighbours.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId::new(i)
    }

    fn grid_of(cell: f64, points: &[(u32, f64, f64)]) -> SpatialGrid {
        SpatialGrid::build(
            cell,
            points
                .iter()
                .map(|&(i, x, y)| (dev(i), Position::new(x, y))),
        )
    }

    #[test]
    fn matches_linear_scan_semantics() {
        let grid = grid_of(
            20.0,
            &[
                (0, 0.0, 0.0),
                (1, 10.0, 0.0),
                (2, 5.0, 0.0),
                (3, 100.0, 0.0),
            ],
        );
        let n = grid.neighbours_within(dev(0), Position::ORIGIN, 20.0);
        assert_eq!(n, vec![(dev(2), 5.0), (dev(1), 10.0)]);
    }

    #[test]
    fn ties_break_by_id() {
        let grid = grid_of(5.0, &[(0, 0.0, 0.0), (2, 1.0, 0.0), (1, -1.0, 0.0)]);
        let n = grid.neighbours_within(dev(0), Position::ORIGIN, 5.0);
        assert_eq!(n, vec![(dev(1), 1.0), (dev(2), 1.0)]);
    }

    #[test]
    fn radius_larger_than_cell_widens_the_scan() {
        // 1 m cells, 50 m query: devices many rings away must be found.
        let grid = grid_of(1.0, &[(0, 0.0, 0.0), (1, 49.0, 0.0), (2, 51.0, 0.0)]);
        let n = grid.neighbours_within(dev(0), Position::ORIGIN, 50.0);
        assert_eq!(n, vec![(dev(1), 49.0)]);
    }

    #[test]
    fn radius_smaller_than_cell_stays_exact() {
        let grid = grid_of(100.0, &[(0, 0.0, 0.0), (1, 3.0, 4.0), (2, 30.0, 0.0)]);
        let n = grid.neighbours_within(dev(0), Position::ORIGIN, 10.0);
        assert_eq!(n, vec![(dev(1), 5.0)]);
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let grid = grid_of(10.0, &[(0, -5.0, -5.0), (1, -14.0, -5.0), (2, 4.0, -5.0)]);
        let n = grid.neighbours_within(dev(0), Position::new(-5.0, -5.0), 10.0);
        assert_eq!(n, vec![(dev(1), 9.0), (dev(2), 9.0)]);
    }

    #[test]
    fn degenerate_cell_sizes_fall_back() {
        let grid = grid_of(0.0, &[(0, 0.0, 0.0), (1, 0.5, 0.0)]);
        assert_eq!(grid.cell_m(), 1.0);
        let n = grid.neighbours_within(dev(0), Position::ORIGIN, 1.0);
        assert_eq!(n.len(), 1);
    }

    #[test]
    fn zero_radius_finds_only_coincident() {
        let grid = grid_of(1.0, &[(0, 2.0, 2.0), (1, 2.0, 2.0), (2, 2.1, 2.0)]);
        let n = grid.neighbours_within(dev(0), Position::new(2.0, 2.0), 0.0);
        assert_eq!(n, vec![(dev(1), 0.0)]);
    }

    #[test]
    fn patched_grid_answers_like_a_fresh_build() {
        let mut grid = grid_of(10.0, &[(0, 0.0, 0.0), (1, 5.0, 0.0), (2, 25.0, 0.0)]);
        // A move within a cell, one across cells, a departure, an arrival.
        grid.relocate(dev(1), Position::new(5.0, 0.0), Position::new(6.0, 0.0));
        grid.relocate(dev(2), Position::new(25.0, 0.0), Position::new(-8.0, 0.0));
        assert!(grid.remove(dev(0), Position::ORIGIN));
        assert!(!grid.remove(dev(0), Position::ORIGIN), "already gone");
        grid.insert(dev(3), Position::new(1.0, 1.0));
        assert_eq!(grid.len(), 3);
        let fresh = grid_of(10.0, &[(1, 6.0, 0.0), (2, -8.0, 0.0), (3, 1.0, 1.0)]);
        for radius in [0.0, 5.0, 10.0, 40.0] {
            assert_eq!(
                grid.neighbours_within(dev(9), Position::ORIGIN, radius),
                fresh.neighbours_within(dev(9), Position::ORIGIN, radius),
                "radius {radius}"
            );
        }
    }

    #[test]
    fn len_and_empty() {
        let grid = grid_of(1.0, &[]);
        assert!(grid.is_empty());
        let grid = grid_of(1.0, &[(0, 0.0, 0.0)]);
        assert_eq!(grid.len(), 1);
        assert!(!grid.is_empty());
    }
}
