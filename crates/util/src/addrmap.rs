//! A fixed-capacity open-addressed `u64 → u32` map.
//!
//! Hot-path indexes (the stash CAM) need associative lookup but must
//! never allocate after construction and never pay SipHash. This map
//! uses linear probing with backward-shift deletion (no tombstones, so
//! probe sequences never degrade) over a power-of-two table sized at
//! build time. A fibonacci-multiply hash spreads the small, mostly
//! sequential block addresses the simulator produces.

const EMPTY: u32 = u32::MAX;

/// Fixed-capacity open-addressed map from `u64` keys to `u32` values.
///
/// `u32::MAX` is reserved as the "empty" marker and cannot be stored
/// as a value (values here are small slot indexes).
///
/// ```
/// use oram_util::FixedAddrMap;
///
/// let mut m = FixedAddrMap::with_capacity(8);
/// m.insert(42, 3);
/// assert_eq!(m.get(42), Some(3));
/// assert_eq!(m.remove(42), Some(3));
/// assert_eq!(m.get(42), None);
/// ```
#[derive(Debug, Clone)]
pub struct FixedAddrMap {
    /// `(key, value)`; `value == EMPTY` marks a free slot.
    slots: Vec<(u64, u32)>,
    mask: usize,
    hash_shift: u32,
    len: usize,
}

impl FixedAddrMap {
    /// Builds a map that can hold at least `capacity` entries without
    /// ever allocating again. The table is sized at ≥ 4× capacity so
    /// probe chains stay short.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let size = (capacity * 4).next_power_of_two();
        FixedAddrMap {
            slots: vec![(0, EMPTY); size],
            mask: size - 1,
            hash_shift: 64 - size.trailing_zeros(),
            len: 0,
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn home(&self, key: u64) -> usize {
        // Fibonacci hashing: the high bits of key * 2^64/φ are well
        // mixed even for sequential keys.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> self.hash_shift) as usize & self.mask
    }

    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.home(key);
        loop {
            let (k, v) = self.slots[i];
            if v == EMPTY {
                return None;
            }
            if k == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Returns the value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<u32> {
        self.find(key).map(|i| self.slots[i].1)
    }

    /// Inserts or replaces; returns the previous value if any.
    ///
    /// # Panics
    ///
    /// Panics if `value == u32::MAX` (reserved) or the table is full
    /// (the caller sized the map below its true working set).
    #[inline]
    pub fn insert(&mut self, key: u64, value: u32) -> Option<u32> {
        assert!(value != EMPTY, "u32::MAX is reserved");
        let mut i = self.home(key);
        loop {
            let (k, v) = self.slots[i];
            if v == EMPTY {
                assert!(
                    self.len < self.slots.len() - 1,
                    "FixedAddrMap overflow: capacity undersized"
                );
                self.slots[i] = (key, value);
                self.len += 1;
                return None;
            }
            if k == key {
                self.slots[i].1 = value;
                return Some(v);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value. Backward-shift deletion
    /// keeps probe chains tombstone-free.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<u32> {
        let mut i = self.find(key)?;
        let val = self.slots[i].1;
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let (k, v) = self.slots[j];
            if v == EMPTY {
                break;
            }
            // The record at `j` may fill the hole at `i` only if the
            // hole lies cyclically within [home(k), j) — otherwise the
            // move would break its probe chain.
            let h = self.home(k);
            if (i.wrapping_sub(h) & self.mask) < (j.wrapping_sub(h) & self.mask) {
                self.slots[i] = self.slots[j];
                i = j;
            }
        }
        self.slots[i] = (0, EMPTY);
        self.len -= 1;
        Some(val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;
    use std::collections::HashMap;

    #[test]
    fn basic_insert_get_remove() {
        let mut m = FixedAddrMap::with_capacity(16);
        assert!(m.is_empty());
        assert_eq!(m.insert(1, 10), None);
        assert_eq!(m.insert(2, 20), None);
        assert_eq!(m.insert(1, 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(1), Some(11));
        assert_eq!(m.get(3), None);
        assert_eq!(m.remove(1), Some(11));
        assert_eq!(m.remove(1), None);
        assert_eq!(m.get(2), Some(20));
    }

    #[test]
    fn extreme_keys_are_legal() {
        let mut m = FixedAddrMap::with_capacity(4);
        m.insert(0, 0);
        m.insert(u64::MAX, 1);
        assert_eq!(m.get(0), Some(0));
        assert_eq!(m.get(u64::MAX), Some(1));
    }

    #[test]
    fn randomized_against_std_hashmap() {
        let mut rng = Rng64::seed_from_u64(0xBEEF);
        let mut m = FixedAddrMap::with_capacity(64);
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for step in 0..20_000 {
            // Small key space forces heavy collision + churn.
            let key = rng.below(48);
            match rng.below(3) {
                0 => {
                    if reference.len() < 48 {
                        let v = (step % 1000) as u32;
                        assert_eq!(m.insert(key, v), reference.insert(key, v));
                    }
                }
                1 => assert_eq!(m.remove(key), reference.remove(&key)),
                _ => assert_eq!(m.get(key), reference.get(&key).copied()),
            }
            assert_eq!(m.len(), reference.len());
        }
        for key in 0..48 {
            assert_eq!(m.get(key), reference.get(&key).copied());
        }
    }

    #[test]
    fn deletion_keeps_probe_chains_intact() {
        // Force a collision cluster, then delete from the middle.
        let mut m = FixedAddrMap::with_capacity(4); // table of 16
        let keys: Vec<u64> = (0..10).collect();
        for (i, &k) in keys.iter().enumerate() {
            m.insert(k, i as u32);
        }
        m.remove(keys[4]);
        m.remove(keys[1]);
        m.remove(keys[8]);
        for (i, &k) in keys.iter().enumerate() {
            let expect = if [1usize, 4, 8].contains(&i) { None } else { Some(i as u32) };
            assert_eq!(m.get(k), expect, "key {k}");
        }
    }
}
