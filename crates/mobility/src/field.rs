//! The deployment field: every device's mobility track in one place.

use hbr_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use hbr_sim::{DeviceId, SimRng, SimTime};

use crate::model::Mobility;
use crate::position::Position;

/// Tracks the mobility model of every device and answers position,
/// distance and neighbourhood queries at the current simulation time.
///
/// Tracks live in a table indexed by [`DeviceId`], so a position is one
/// array read. The table is as long as the largest id ever inserted:
/// memory grows with that id, not with the number of tracks, so the
/// field suits dense ids (a world's are its device indices, emigrated
/// husks included). Iteration and snapshots run in ascending id order.
/// Advancing touches only the *movers* — the tracks that are not
/// [`stationary`](Mobility::is_stationary) — in ascending id order.
/// Stationary models draw no randomness, so the shared RNG sees exactly
/// the draws, in exactly the order, of advancing every track.
///
/// # Examples
///
/// ```
/// use hbr_mobility::{Field, Mobility, Position};
/// use hbr_sim::{DeviceId, SimRng, SimTime};
///
/// let mut field = Field::new();
/// field.insert(DeviceId::new(0), Mobility::stationary(Position::ORIGIN));
/// field.insert(DeviceId::new(1), Mobility::stationary(Position::new(6.0, 8.0)));
/// field.insert(DeviceId::new(2), Mobility::stationary(Position::new(100.0, 0.0)));
///
/// let near = field.neighbours_within(DeviceId::new(0), 20.0);
/// assert_eq!(near, vec![(DeviceId::new(1), 10.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Field {
    /// Slot `i` holds device `i`'s track, if it is tracked.
    tracks: Vec<Option<Mobility>>,
    /// Ids of the non-stationary tracks, ascending: the only ones
    /// [`advance_to`](Field::advance_to) visits.
    movers: Vec<DeviceId>,
    now: SimTime,
}

impl Field {
    /// Creates an empty field at time zero.
    pub fn new() -> Self {
        Field::default()
    }

    /// Registers (or replaces) the mobility model for `device`.
    ///
    /// The field never advances a stationary track: it reports the
    /// track's clock (in snapshots and from [`remove`](Field::remove)) as
    /// the later of its own and the field's. That is what advancing it
    /// would give, provided the model is not behind the field's clock
    /// when inserted — mark one built mid-run with
    /// [`Mobility::started_at`].
    pub fn insert(&mut self, device: DeviceId, mobility: Mobility) {
        let moves = !mobility.is_stationary();
        let slot = device.index() as usize;
        if slot >= self.tracks.len() {
            self.tracks.resize_with(slot + 1, || None);
        }
        self.tracks[slot] = Some(mobility);
        match (self.movers.binary_search(&device), moves) {
            (Err(slot), true) => self.movers.insert(slot, device),
            (Ok(slot), false) => {
                self.movers.remove(slot);
            }
            _ => {}
        }
    }

    /// Removes a device's track, returning it if present. A stationary
    /// track comes back with its clock caught up to the field's, as if
    /// it had been advanced along with the movers.
    pub fn remove(&mut self, device: DeviceId) -> Option<Mobility> {
        let removed = self.tracks.get_mut(device.index() as usize)?.take()?;
        if let Ok(slot) = self.movers.binary_search(&device) {
            self.movers.remove(slot);
        }
        Some(if removed.is_stationary() {
            let clock = removed.updated_at().max(self.now);
            removed.started_at(clock)
        } else {
            removed
        })
    }

    /// Number of tracked devices.
    pub fn len(&self) -> usize {
        self.models().count()
    }

    /// `true` if no devices are tracked.
    pub fn is_empty(&self) -> bool {
        self.models().next().is_none()
    }

    /// The instant the field was last advanced to.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances every device's mobility model to `now`. Instants at or
    /// before the current field time are no-ops — the field never rewinds.
    ///
    /// Only the movers are visited, in ascending id order, so the cost
    /// scales with the moving devices, not the field.
    pub fn advance_to(&mut self, now: SimTime, rng: &mut SimRng) {
        if now <= self.now {
            return;
        }
        for id in &self.movers {
            self.tracks[id.index() as usize]
                .as_mut()
                .expect("every mover is tracked")
                .advance_to(now, rng);
        }
        self.now = now;
    }

    /// The position of `device` as of the last advance, if it is tracked.
    pub fn position(&self, device: DeviceId) -> Option<Position> {
        self.tracks
            .get(device.index() as usize)?
            .as_ref()
            .map(Mobility::position)
    }

    /// Distance in metres between two tracked devices.
    pub fn distance(&self, a: DeviceId, b: DeviceId) -> Option<f64> {
        Some(self.position(a)?.distance_to(self.position(b)?))
    }

    /// All other devices within `radius` metres of `device`, sorted by
    /// ascending distance (ties broken by device id for determinism),
    /// from a scan over every track. Returns an empty vector if
    /// `device` is not tracked or the radius is NaN or negative.
    pub fn neighbours_within(&self, device: DeviceId, radius: f64) -> Vec<(DeviceId, f64)> {
        let Some(centre) = self.position(device) else {
            return Vec::new();
        };
        let mut out: Vec<(DeviceId, f64)> = self
            .iter()
            .filter(|(id, _)| *id != device)
            .map(|(id, pos)| (id, centre.distance_to(pos)))
            .filter(|(_, d)| *d <= radius)
            .collect();
        out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Iterates over `(device, position)` pairs in device-id order.
    pub fn iter(&self) -> impl Iterator<Item = (DeviceId, Position)> + '_ {
        self.models().map(|(id, m)| (id, m.position()))
    }

    /// The tracked `(device, model)` pairs in device-id order.
    fn models(&self) -> impl Iterator<Item = (DeviceId, &Mobility)> + '_ {
        self.tracks
            .iter()
            .enumerate()
            .filter_map(|(slot, m)| Some((DeviceId::new(slot as u32), m.as_ref()?)))
    }

    /// Writes the tracks in the layout of a `BTreeMap<DeviceId,
    /// Mobility>`, each stationary one with its clock caught up to the
    /// field's, then the field's clock. The movers list is derived state
    /// and is not written.
    pub fn snap(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.len());
        for (id, mobility) in self.models() {
            id.snap(w);
            mobility.snap_at(self.now, w);
        }
        self.now.snap(w);
    }

    /// Reads a field written by [`snap`](Field::snap) whose every id is
    /// below `ids` (a world passes its device count) and rebuilds the
    /// movers list. The bound keeps a corrupt id from sizing the table.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Corrupt`] for a track whose id is `ids` or more
    /// or repeats an earlier one, and whatever reading the records
    /// returns.
    pub fn unsnap(r: &mut SnapshotReader<'_>, ids: usize) -> Result<Self, SnapshotError> {
        let mut field = Field::new();
        for _ in 0..r.take_usize()? {
            let id = DeviceId::unsnap(r)?;
            if id.index() as usize >= ids {
                return Err(SnapshotError::Corrupt(format!(
                    "field track names {id}, beyond the {ids} devices"
                )));
            }
            let mobility = Mobility::unsnap(r)?;
            if field.position(id).is_some() {
                return Err(SnapshotError::Corrupt(format!("field track {id} repeats")));
            }
            field.insert(id, mobility);
        }
        field.now = SimTime::unsnap(r)?;
        Ok(field)
    }
}

impl Extend<(DeviceId, Mobility)> for Field {
    fn extend<T: IntoIterator<Item = (DeviceId, Mobility)>>(&mut self, iter: T) {
        for (id, m) in iter {
            self.insert(id, m);
        }
    }
}

impl FromIterator<(DeviceId, Mobility)> for Field {
    fn from_iter<T: IntoIterator<Item = (DeviceId, Mobility)>>(iter: T) -> Self {
        let mut f = Field::new();
        f.extend(iter);
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev(i: u32) -> DeviceId {
        DeviceId::new(i)
    }

    fn static_field(positions: &[(u32, f64, f64)]) -> Field {
        positions
            .iter()
            .map(|&(i, x, y)| (dev(i), Mobility::stationary(Position::new(x, y))))
            .collect()
    }

    #[test]
    fn positions_and_distances() {
        let field = static_field(&[(0, 0.0, 0.0), (1, 3.0, 4.0)]);
        assert_eq!(field.position(dev(0)), Some(Position::ORIGIN));
        assert_eq!(field.distance(dev(0), dev(1)), Some(5.0));
        assert_eq!(field.distance(dev(0), dev(9)), None);
        assert_eq!(field.position(dev(9)), None);
    }

    #[test]
    fn neighbours_sorted_and_filtered() {
        let field = static_field(&[
            (0, 0.0, 0.0),
            (1, 10.0, 0.0),
            (2, 5.0, 0.0),
            (3, 100.0, 0.0),
        ]);
        let n = field.neighbours_within(dev(0), 20.0);
        assert_eq!(n, vec![(dev(2), 5.0), (dev(1), 10.0)]);
        assert!(field.neighbours_within(dev(9), 20.0).is_empty());
    }

    #[test]
    fn neighbour_ties_break_by_id() {
        let field = static_field(&[(0, 0.0, 0.0), (2, 1.0, 0.0), (1, -1.0, 0.0)]);
        let n = field.neighbours_within(dev(0), 5.0);
        assert_eq!(n, vec![(dev(1), 1.0), (dev(2), 1.0)]);
    }

    #[test]
    fn advance_moves_walkers() {
        let mut field = Field::new();
        field.insert(dev(0), Mobility::linear(Position::ORIGIN, (1.0, 0.0)));
        field.insert(dev(1), Mobility::stationary(Position::new(50.0, 0.0)));
        let mut rng = SimRng::seed_from(1);
        field.advance_to(SimTime::from_secs(30), &mut rng);
        assert_eq!(field.position(dev(0)), Some(Position::new(30.0, 0.0)));
        assert_eq!(field.distance(dev(0), dev(1)), Some(20.0));
        assert_eq!(field.now(), SimTime::from_secs(30));
    }

    #[test]
    fn remove_and_len() {
        let mut field = static_field(&[(0, 0.0, 0.0), (1, 1.0, 1.0)]);
        assert_eq!(field.len(), 2);
        assert!(field.remove(dev(0)).is_some());
        assert!(field.remove(dev(0)).is_none());
        assert_eq!(field.len(), 1);
        assert!(!field.is_empty());
    }

    #[test]
    fn neighbours_follow_advances_and_removals() {
        let mut field = static_field(&[(0, 0.0, 0.0), (1, 3.0, 0.0), (2, 9.0, 9.0)]);
        field.insert(
            dev(3),
            Mobility::linear(Position::new(20.0, 0.0), (-1.0, 0.0)),
        );
        assert_eq!(field.neighbours_within(dev(0), 10.0), vec![(dev(1), 3.0)]);
        let mut rng = SimRng::seed_from(4);
        field.advance_to(SimTime::from_secs(15), &mut rng);
        assert_eq!(
            field.neighbours_within(dev(0), 10.0),
            vec![(dev(1), 3.0), (dev(3), 5.0)]
        );
        field.remove(dev(1));
        assert_eq!(field.neighbours_within(dev(0), 10.0), vec![(dev(3), 5.0)]);
    }

    #[test]
    fn stationary_clocks_catch_up_and_restored_movers_move() {
        let mut field = static_field(&[(0, 0.0, 0.0)]);
        field.insert(dev(1), Mobility::linear(Position::ORIGIN, (1.0, 0.0)));
        let mut rng = SimRng::seed_from(1);
        field.advance_to(SimTime::from_secs(40), &mut rng);

        let mut w = SnapshotWriter::new();
        field.snap(&mut w);
        let bytes = w.into_bytes();
        let mut restored = Field::unsnap(&mut SnapshotReader::new(&bytes), 2).unwrap();
        restored.advance_to(SimTime::from_secs(45), &mut rng);
        assert_eq!(restored.position(dev(1)), Some(Position::new(45.0, 0.0)));

        // Never advanced, the stationary track leaves exactly as an
        // eagerly advanced one would.
        let mut eager = Mobility::stationary(Position::ORIGIN);
        eager.advance_to(SimTime::from_secs(40), &mut rng);
        assert_eq!(field.remove(dev(0)), Some(eager));
    }

    #[test]
    fn degenerate_radii_are_safe() {
        let field = static_field(&[(0, 0.0, 0.0), (1, 1.0, 0.0)]);
        assert!(field.neighbours_within(dev(0), f64::NAN).is_empty());
        assert!(field.neighbours_within(dev(0), -1.0).is_empty());
        assert_eq!(field.neighbours_within(dev(0), f64::INFINITY).len(), 1);
    }

    #[test]
    fn sparse_ids_keep_order_count_and_snapshot_bytes() {
        let far = dev(70_000);
        let mut field = static_field(&[(0, 0.0, 0.0)]);
        field.insert(far, Mobility::linear(Position::ORIGIN, (0.0, 1.0)));
        let mut rng = SimRng::seed_from(2);
        field.advance_to(SimTime::from_secs(10), &mut rng);
        let track = field.remove(dev(0)).expect("tracked");
        assert_eq!(field.len(), 1);
        assert_eq!(field.position(dev(0)), None);
        field.insert(dev(0), track);
        assert_eq!(field.len(), 2);
        let ids: Vec<_> = field.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![dev(0), far]);

        let mut w = SnapshotWriter::new();
        field.snap(&mut w);
        let bytes = w.into_bytes();
        let restored = Field::unsnap(&mut SnapshotReader::new(&bytes), 70_001).unwrap();
        let mut again = SnapshotWriter::new();
        restored.snap(&mut again);
        assert_eq!(again.into_bytes(), bytes);
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.position(far), Some(Position::new(0.0, 10.0)));
        // One id short, the far track is refused before the table grows.
        assert!(matches!(
            Field::unsnap(&mut SnapshotReader::new(&bytes), 70_000),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn iter_is_in_id_order() {
        let field = static_field(&[(2, 0.0, 0.0), (0, 1.0, 0.0), (1, 2.0, 0.0)]);
        let ids: Vec<_> = field.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }
}
