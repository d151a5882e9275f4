//! A bounded list stored inline, for the few small records one step of
//! a device produces (the radio's and the D2D phases' activity), so that
//! producing and handing them around never calls the allocator.

use std::fmt;
use std::ops::Deref;

/// At most `N` `Copy` items, stored inline in push order.
///
/// Dereferences to the slice of the items pushed so far. The capacity
/// is a bound its producer proves (each record type states its own), so
/// a push past it panics rather than dropping the item.
///
/// # Examples
///
/// ```
/// use hbr_sim::InlineVec;
///
/// let mut list: InlineVec<u32, 2> = InlineVec::new();
/// list.push(7);
/// list.push(9);
/// assert_eq!(&list[..], &[7, 9]);
/// assert_eq!(list.iter().sum::<u32>(), 16);
/// ```
#[derive(Clone, Copy)]
pub struct InlineVec<T: Copy + Default, const N: usize> {
    len: usize,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineVec<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        InlineVec {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` items.
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "inline list over its capacity of {N}");
        self.items[self.len] = item;
        self.len += 1;
    }

    /// Removes every item.
    pub fn clear(&mut self) {
        self.len = 0;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for InlineVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for InlineVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default, const N: usize> Extend<T> for InlineVec<T, N> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, items: I) {
        for item in items {
            self.push(item);
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a InlineVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for InlineVec<T, N> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, N>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().take(self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_push_order_and_iterates_by_reference_and_by_value() {
        let mut list: InlineVec<(u8, char), 3> = InlineVec::new();
        assert!(list.is_empty());
        list.extend([(1, 'a'), (2, 'b')]);
        let by_ref: Vec<_> = (&list).into_iter().copied().collect();
        let by_value: Vec<_> = list.into_iter().collect();
        assert_eq!(by_ref, [(1, 'a'), (2, 'b')]);
        assert_eq!(by_value, by_ref);
        assert_eq!(format!("{list:?}"), "[(1, 'a'), (2, 'b')]");
        list.clear();
        assert_eq!(list.len(), 0);
    }

    #[test]
    #[should_panic(expected = "over its capacity of 2")]
    fn a_push_past_the_capacity_panics() {
        let mut list: InlineVec<u32, 2> = InlineVec::new();
        list.extend([1, 2, 3]);
    }
}
