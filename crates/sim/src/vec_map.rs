//! A small map kept as one `Vec` of entries in key order.
//!
//! Per-device protocol state holds a handful of entries at a time (a
//! phone has 0–2 heartbeats in flight), where a `BTreeMap`'s first
//! insert allocates a whole leaf of eleven slots and keeps it for the
//! run. [`VecMap`] holds only what `Vec`'s growth reserves, looks keys
//! up by binary search and appends a key above the last without a
//! search, which is how ascending message ids arrive. Its snapshot is
//! byte for byte a `BTreeMap`'s with the same entries.

/// A map of `K` to `V` stored as `(K, V)` pairs in ascending key order.
///
/// Iteration is in key order, as a `BTreeMap`'s.
///
/// # Examples
///
/// ```
/// use hbr_sim::VecMap;
///
/// let mut map = VecMap::new();
/// map.insert(3, "c");
/// map.insert(1, "a");
/// assert_eq!(map.insert(3, "C"), Some("c"));
/// assert_eq!(map.keys().copied().collect::<Vec<_>>(), [1, 3]);
/// assert_eq!(map.remove(&1), Some("a"));
/// assert_eq!(map.get(&3), Some(&"C"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    // Strictly ascending keys.
    entries: Vec<(K, V)>,
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map; it allocates on its first insert.
    pub const fn new() -> Self {
        VecMap {
            entries: Vec::new(),
        }
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// Inserts `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if self.entries.last().is_none_or(|(last, _)| *last < key) {
            self.entries.push((key, value));
            return None;
        }
        match self.find(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|i| &self.entries[i].1)
    }

    /// The value under `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|i| &mut self.entries[i].1)
    }

    /// Removes the entry under `key`, returning its value.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|i| self.entries.remove(i).1)
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting
    /// them in key order.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// Appends an entry whose key is above every key held. Otherwise
    /// leaves the map as it is and returns how `key` compares with the
    /// last key: the snapshot reader's check of a strictly ascending
    /// entry list.
    pub(crate) fn push_above(&mut self, key: K, value: V) -> Result<(), std::cmp::Ordering> {
        match self.entries.last() {
            Some((last, _)) if key <= *last => Err(key.cmp(last)),
            _ => {
                self.entries.push((key, value));
                Ok(())
            }
        }
    }
}

impl<K, V> VecMap<K, V> {
    /// How many entries the map holds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The keys, ascending.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// The values, in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// The values, mutably, in key order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Ord, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snap, SnapshotReader, SnapshotWriter};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn to_bytes<T: Snap>(v: &T) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        v.snap(&mut w);
        w.into_bytes()
    }

    proptest! {
        /// Any sequence of inserts, removes, in-place updates and
        /// retains leaves a `VecMap` with a `BTreeMap`'s entries, in its
        /// order and with its snapshot bytes, and the bytes read back.
        #[test]
        fn matches_a_btree_map_through_any_operations(
            ops in proptest::collection::vec((0u8..4, 0u64..24, 0u64..1_000), 0..80),
        ) {
            let mut map = VecMap::new();
            let mut tree = BTreeMap::new();
            for (op, key, value) in ops {
                match op {
                    0 => prop_assert_eq!(map.insert(key, value), tree.insert(key, value)),
                    1 => prop_assert_eq!(map.remove(&key), tree.remove(&key)),
                    2 => {
                        let mut bump = |v: &mut u64| {
                            *v += value;
                            *v
                        };
                        prop_assert_eq!(
                            map.get_mut(&key).map(&mut bump),
                            tree.get_mut(&key).map(&mut bump)
                        );
                    }
                    _ => {
                        // Visits every entry in key order, as the tree does.
                        let mut seen = (Vec::new(), Vec::new());
                        map.retain(|k, v| {
                            seen.0.push(*k);
                            *v += 1;
                            (k + *v) % 3 != value % 3
                        });
                        tree.retain(|k, v| {
                            seen.1.push(*k);
                            *v += 1;
                            (k + *v) % 3 != value % 3
                        });
                        prop_assert_eq!(seen.0, seen.1);
                    }
                }
                prop_assert_eq!(map.get(&key), tree.get(&key));
                prop_assert_eq!(map.len(), tree.len());
                prop_assert_eq!(map.is_empty(), tree.is_empty());
            }
            let pairs: Vec<(&u64, &u64)> = map.keys().zip(map.values()).collect();
            prop_assert_eq!(pairs, tree.iter().collect::<Vec<_>>());
            for v in map.values_mut() {
                *v += 1;
            }
            for v in tree.values_mut() {
                *v += 1;
            }
            let bytes = to_bytes(&map);
            prop_assert_eq!(&bytes, &to_bytes(&tree));
            let back = VecMap::<u64, u64>::unsnap(&mut SnapshotReader::new(&bytes))
                .expect("read back");
            prop_assert_eq!(back, map);
        }
    }
}
