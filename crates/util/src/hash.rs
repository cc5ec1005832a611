//! Deterministic hashing for simulator-internal maps.
//!
//! `std::collections::HashMap` defaults to a randomly seeded SipHash,
//! which breaks the workspace's bit-for-bit reproducibility guarantee
//! the moment iteration order (or even probe order timing) leaks into
//! an output. [`DetHashMap`] swaps in a fixed-key SplitMix64-style
//! mixer so the same inserts always produce the same table — cheap,
//! well distributed for the simulator's integer keys, and free of any
//! process-level entropy.
//!
//! Code that iterates a [`DetHashMap`] must still be order-independent
//! (sums, maxima) or sort first; determinism of the hasher makes the
//! order stable across runs of the *same* build but not something to
//! encode in baselines.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use crate::splitmix64_mix;

/// A fixed-seed [`BuildHasher`]: every map built from it hashes
/// identically in every process.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetState;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher { state: 0x9E37_79B9_7F4A_7C15 }
    }
}

/// The hasher produced by [`DetState`]: a SplitMix64 finalizer folded
/// over the input words. Not cryptographic — collision resistance here
/// only affects simulator performance, never security.
#[derive(Debug, Clone, Copy)]
pub struct DetHasher {
    state: u64,
}

impl DetHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.state = splitmix64_mix(self.state ^ word.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.mix(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.mix(u64::from_le_bytes(buf) | ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }
}

/// A `HashMap` with process-independent, deterministic hashing.
pub type DetHashMap<K, V> = HashMap<K, V, DetState>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_stable_and_spread() {
        let one = {
            let mut h = DetState.build_hasher();
            h.write_u64(42);
            h.finish()
        };
        let two = {
            let mut h = DetState.build_hasher();
            h.write_u64(42);
            h.finish()
        };
        assert_eq!(one, two);
        let other = {
            let mut h = DetState.build_hasher();
            h.write_u64(43);
            h.finish()
        };
        assert_ne!(one, other);
    }

    #[test]
    fn map_round_trips() {
        let mut m: DetHashMap<u64, u64> = DetHashMap::default();
        for k in 0..1000u64 {
            m.insert(k, k * 3);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&999), Some(&2997));
        m.remove(&999);
        assert_eq!(m.get(&999), None);
    }
}
