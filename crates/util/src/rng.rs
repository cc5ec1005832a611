//! Deterministic pseudo-random number generation.
//!
//! The simulator only needs statistical uniformity and bit-for-bit
//! reproducibility from a seed — not cryptographic strength (the
//! protocol's security argument is about *access patterns*, and the
//! label distribution just has to be uniform). xoshiro256** is the
//! same family the `rand` crate's small RNGs use; SplitMix64 expands
//! the single `u64` seed into a full-period initial state.

/// A deterministic xoshiro256** PRNG seeded from a single `u64`.
///
/// ```
/// use oram_util::Rng64;
///
/// let mut a = Rng64::seed_from_u64(7);
/// let mut b = Rng64::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.next_f64() < 1.0);
/// assert!(a.below(10) < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

/// The SplitMix64 finalizer: a bijective avalanche of one word. The
/// seed expansion below, [`crate::DetHasher`] and per-shard seed
/// derivation all scramble through it.
#[inline]
pub fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    splitmix64_mix(*state)
}

impl Rng64 {
    /// Builds a generator whose entire stream is determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 expansion guarantees a non-zero xoshiro state for
        // every seed, including 0.
        Rng64 {
            s: [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)],
        }
    }

    /// Next uniformly distributed `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `0..n` via Lemire's widening-multiply
    /// reduction (bias ≤ 2⁻⁶⁴, irrelevant at simulation scale; the
    /// payoff is a branch-free, constant-consumption draw).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        (((self.next_u64() as u128) * (n as u128)) >> 64) as u64
    }

    /// Uniform integer in `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range");
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // The first outputs of Vigna's reference SplitMix64 from seed 0.
        let mut state = 0;
        let got = [splitmix64(&mut state), splitmix64(&mut state), splitmix64(&mut state)];
        assert_eq!(got, [0xE220_A839_7B1D_CDAF, 0x6E78_9E6A_A1B9_65F4, 0x06C4_5D18_8009_454F]);
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should not coincide");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Rng64::seed_from_u64(0);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..100 {
            distinct.insert(r.next_u64());
        }
        assert!(distinct.len() > 95);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng64::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let v = r.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }

    #[test]
    fn below_power_of_two_is_roughly_uniform() {
        let mut r = Rng64::seed_from_u64(11);
        let n = 16u64;
        let mut counts = [0u32; 16];
        let draws = 16_000;
        for _ in 0..draws {
            counts[r.below(n) as usize] += 1;
        }
        let expect = draws / 16;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as i64 - expect as i64).unsigned_abs() < expect as u64 / 2,
                "bucket {i} count {c} far from {expect}"
            );
        }
    }

    #[test]
    fn f64_bounds_and_mean() {
        let mut r = Rng64::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn range_inclusive_hits_both_ends() {
        let mut r = Rng64::seed_from_u64(3);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.range_inclusive(2, 16);
            assert!((2..=16).contains(&v));
            lo_seen |= v == 2;
            hi_seen |= v == 16;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn gen_bool_edge_probabilities() {
        let mut r = Rng64::seed_from_u64(8);
        for _ in 0..100 {
            assert!(!r.gen_bool(0.0));
            assert!(r.gen_bool(1.0));
        }
    }
}
