//! A fixed-memory, dependency-free online quantile sketch: the one
//! distribution type of the workspace (registry histograms, the
//! engine's stash occupancy, the live plane's latency windows).
//!
//! Log-linear bucketing (HDR-histogram style): values below 16 get one
//! bucket each (exact); above that, every power-of-two range is split
//! into 16 linear sub-buckets, so a bucket spanning `[lo, lo + w)` has
//! `w ≤ lo/16`. Values below 32 land in buckets of width 1, and no
//! bucket straddles a power of two.
//!
//! Three read-outs walk the same buckets:
//! * [`QuantileSketch::quantile`] interpolates linearly inside the
//!   landing bucket, clamped to the observed `[min, max]`: **relative
//!   error ≤ 1/16 = 6.25%** (exact below 16).
//! * [`QuantileSketch::quantile_pow2_upper`] reports the upper bound of
//!   the power-of-two range holding the ⌈q·n⌉-th sample (the metrics
//!   CSV's `p50`/`p99`).
//! * [`QuantileSketch::quantile_floor`] reports the ⌈q·n⌉-th sample
//!   itself below 32 and its bucket's lower bound above (the stash
//!   p99.9).
//!
//! Everything is a flat `u64` array: `record` is O(1), never allocates,
//! and the whole sketch is ~8 KiB.

/// Linear sub-buckets per power-of-two range, as a bit count.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per power-of-two range (16).
const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total bucket count: 16 exact small-value buckets plus 16 per
/// power-of-two range for exponents 4..=63.
const NUM_BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// An online quantile sketch over `u64` samples. See the module docs
/// for the bucketing scheme and its read-outs.
///
/// ```
/// use oram_util::QuantileSketch;
/// let mut s = QuantileSketch::new();
/// for v in [1, 2, 2, 3] { s.record(v); }
/// assert_eq!(s.max(), 3);
/// assert_eq!(s.quantile_floor(0.5), 2);
/// assert_eq!(s.quantile_pow2_upper(0.5), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    buckets: Box<[u64; NUM_BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index for value `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        v as usize
    } else {
        let k = 63 - v.leading_zeros(); // k ≥ SUB_BITS
        let mantissa = (v >> (k - SUB_BITS)) as usize; // in [16, 32)
        (k - SUB_BITS + 1) as usize * SUB_BUCKETS + (mantissa - SUB_BUCKETS)
    }
}

/// Inclusive lower bound of bucket `i` (the smallest value mapping to it).
#[inline]
fn bucket_lower(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        i as u64
    } else {
        let k = (i / SUB_BUCKETS - 1) as u32 + SUB_BITS;
        let m = (i % SUB_BUCKETS) as u64;
        (SUB_BUCKETS as u64 + m) << (k - SUB_BITS)
    }
}

/// Width of bucket `i` (number of distinct values mapping to it).
#[inline]
fn bucket_width(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        1
    } else {
        let k = (i / SUB_BUCKETS - 1) as u32 + SUB_BITS;
        1u64 << (k - SUB_BITS)
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: Box::new([0; NUM_BUCKETS]),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample. O(1), no allocation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) with linear interpolation
    /// inside the landing bucket, clamped to `[min, max]`. Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Target rank among `count` samples, nearest-rank style with
        // intra-bucket interpolation.
        let target = q * (self.count - 1) as f64;
        let mut cum = 0u64;
        for i in 0..NUM_BUCKETS {
            let c = self.buckets[i];
            if c == 0 {
                continue;
            }
            // Ranks [cum, cum + c) live in this bucket.
            if target < (cum + c) as f64 {
                let frac = if c == 1 { 0.5 } else { (target - cum as f64) / (c - 1) as f64 };
                let w = bucket_width(i);
                let est = bucket_lower(i) as f64 + frac * (w - 1) as f64;
                let v = est.round() as u64;
                return v.clamp(self.min, self.max);
            }
            cum += c;
        }
        self.max
    }

    /// The bucket holding the ⌈q·n⌉-th smallest sample; bucket 0 when
    /// that rank is 0 (`q = 0`, or an empty sketch).
    fn rank_bucket(&self, q: f64) -> usize {
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return i;
            }
        }
        NUM_BUCKETS - 1
    }

    /// The largest value with the bit length of the ⌈q·n⌉-th smallest
    /// sample, clamped to the observed max; the exact min at `q ≤ 0`.
    /// Exact as a bit-length read-out, because no bucket straddles a
    /// power of two. Returns 0 when empty.
    pub fn quantile_pow2_upper(&self, q: f64) -> u64 {
        if q <= 0.0 {
            return self.min();
        }
        let lo = bucket_lower(self.rank_bucket(q));
        u64::MAX.checked_shr(lo.leading_zeros()).unwrap_or(0).min(self.max)
    }

    /// The ⌈q·n⌉-th smallest sample (the smallest `v` with
    /// `P(sample ≤ v) ≥ q`): exact below 32, the lower bound of its
    /// bucket above. Returns 0 at `q = 0` and when empty.
    pub fn quantile_floor(&self, q: f64) -> u64 {
        bucket_lower(self.rank_bucket(q))
    }

    /// Adds every sample of `other` into `self`. No allocation.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for i in 0..NUM_BUCKETS {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Copies `other` into `self` wholesale. No allocation.
    pub fn copy_from(&mut self, other: &QuantileSketch) {
        self.buckets.copy_from_slice(&other.buckets[..]);
        self.count = other.count;
        self.sum = other.sum;
        self.min = other.min;
        self.max = other.max;
    }

    /// Resets to empty. No allocation.
    pub fn reset(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut prev = 0usize;
        for shift in 0..64u32 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << shift).saturating_add(off.min((1u64 << shift) - 1));
                let i = bucket_index(v);
                assert!(i < NUM_BUCKETS, "v={v} i={i}");
                assert!(i >= prev, "index not monotone at v={v}");
                prev = i;
                // Round trip: v lands inside [lower, lower + width).
                let lo = bucket_lower(i);
                let w = bucket_width(i);
                assert!(v >= lo && v < lo + w, "v={v} lo={lo} w={w}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut s = QuantileSketch::new();
        for v in 0..16u64 {
            s.record(v);
        }
        // With one sample per unit bucket, the rank walk floors the
        // fractional target rank — still exact to within one unit.
        for q in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
            let exact = (q * 15.0).floor() as u64;
            assert_eq!(s.quantile(q), exact, "q={q}");
        }
    }

    /// The documented bound: every quantile estimate within 1/16
    /// relative error of the exact sample quantile.
    #[test]
    fn quantiles_match_exact_within_documented_error() {
        let mut rng = Rng64::seed_from_u64(0x0b5e);
        let mut s = QuantileSketch::new();
        let mut exact: Vec<u64> = Vec::new();
        for _ in 0..50_000 {
            // Log-uniform-ish heavy-tailed sample mix.
            let mag = rng.below(20) + 2;
            let v = rng.next_u64() & ((1u64 << mag) - 1);
            s.record(v);
            exact.push(v);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let idx = ((q * (exact.len() - 1) as f64).round() as usize).min(exact.len() - 1);
            let want = exact[idx] as f64;
            let got = s.quantile(q) as f64;
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 1.0 / 16.0 + 1e-9, "q={q} want={want} got={got} err={err}");
        }
        assert_eq!(s.count(), 50_000);
        assert_eq!(s.sum(), exact.iter().sum::<u64>());
        assert_eq!(s.min(), exact[0]);
        assert_eq!(s.max(), *exact.last().unwrap());
    }

    /// Property: for seeded random partitions of a heavy-tailed stream
    /// into k parts, merging the per-part sketches is exactly equivalent
    /// to recording the whole stream into one sketch, state for state.
    /// This is what the soak harness's per-tenant rollups and the
    /// registry's shard merges rely on.
    #[test]
    fn merge_of_random_partitions_equals_whole() {
        let mut rng = Rng64::seed_from_u64(0xF00D);
        for case in 0..8u64 {
            let parts_n = 2 + (case % 4) as usize;
            let mut parts: Vec<QuantileSketch> =
                (0..parts_n).map(|_| QuantileSketch::new()).collect();
            let mut whole = QuantileSketch::new();
            let n = 2_000 + case * 777;
            for _ in 0..n {
                let mag = rng.below(30) + 1;
                let v = rng.next_u64() & ((1u64 << mag) - 1);
                let p = rng.below(parts_n as u64) as usize;
                parts[p].record(v);
                whole.record(v);
            }
            let mut merged = QuantileSketch::new();
            for p in &parts {
                merged.merge(p);
            }
            // Every read-out is a function of the state.
            assert_eq!(merged, whole, "case {case}");
        }
    }

    /// Property: the documented 1/16 relative-error bound survives
    /// merging — quantiles of a sketch assembled from shard merges stay
    /// within the bound of the exact combined sample.
    #[test]
    fn merge_preserves_documented_error_bound() {
        let mut rng = Rng64::seed_from_u64(0xB0B);
        let mut exact: Vec<u64> = Vec::new();
        let mut shards: Vec<QuantileSketch> = (0..5).map(|_| QuantileSketch::new()).collect();
        for i in 0..40_000u64 {
            let mag = rng.below(22) + 2;
            let v = rng.next_u64() & ((1u64 << mag) - 1);
            shards[(i % 5) as usize].record(v);
            exact.push(v);
        }
        let mut merged = QuantileSketch::new();
        for s in &shards {
            merged.merge(s);
        }
        exact.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let idx = ((q * (exact.len() - 1) as f64).round() as usize).min(exact.len() - 1);
            let want = exact[idx] as f64;
            let got = merged.quantile(q) as f64;
            let err = (got - want).abs() / want.max(1.0);
            assert!(err <= 1.0 / 16.0 + 1e-9, "q={q} want={want} got={got} err={err}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut rng = Rng64::seed_from_u64(9);
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut all = QuantileSketch::new();
        for i in 0..10_000u64 {
            let v = rng.below(1_000_000);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.quantile(0.99), all.quantile(0.99));
        let mut c = QuantileSketch::new();
        c.copy_from(&all);
        assert_eq!(c.quantile(0.5), all.quantile(0.5));
        c.reset();
        assert_eq!(c.count(), 0);
        assert_eq!(c.quantile(0.5), 0);
    }

    /// `LogHistogram::quantile`, the registry's read-out before the
    /// sketch: 65 buckets by bit length, the largest value of the bit
    /// length holding the ⌈q·n⌉-th sample, clamped to the max; the
    /// exact min and max at the extreme quantiles.
    fn log_histogram_quantile(samples: &[u64], q: f64) -> u64 {
        let (Some(&min), Some(&max)) = (samples.iter().min(), samples.iter().max()) else {
            return 0;
        };
        if q <= 0.0 {
            return min;
        }
        if q >= 1.0 {
            return max;
        }
        let mut buckets = [0u64; 65];
        for &v in samples {
            buckets[(64 - v.leading_zeros()) as usize] += 1;
        }
        let rank = (q * samples.len() as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &c) in buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let hi = if i == 0 { 0 } else { (1u64 << (i - 1)).saturating_mul(2) - 1 };
                return hi.min(max);
            }
        }
        max
    }

    /// `sim::stats::Histogram::quantile`, the stash read-out before the
    /// sketch: the smallest `v` with `P(sample ≤ v) ≥ q`, and 0 at a
    /// zero rank (its dense walk started at value 0).
    fn dense_histogram_quantile(samples: &[u64], q: f64) -> u64 {
        let need = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        need.checked_sub(1).map_or(0, |i| sorted[i])
    }

    /// Both rank read-outs of `s` agree with the code they replace,
    /// evaluated on the raw `samples`.
    fn assert_read_outs_match(s: &QuantileSketch, samples: &[u64], case: &str) {
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            let want = log_histogram_quantile(samples, q);
            let got = s.quantile_pow2_upper(q);
            if want == u64::MAX - 1 && s.max() == u64::MAX {
                // `LogHistogram` saturated the top range's bound one
                // short: the 64-bit range ends at `u64::MAX`.
                assert_eq!(got, u64::MAX, "{case} q={q}: top range");
            } else {
                assert_eq!(got, want, "{case} q={q}: power-of-two upper bound");
            }
            let exact = dense_histogram_quantile(samples, q);
            let floor = if exact < 32 { exact } else { bucket_lower(bucket_index(exact)) };
            assert_eq!(s.quantile_floor(q), floor, "{case} q={q}: floor");
        }
    }

    #[test]
    fn rank_read_outs_match_the_replaced_histograms() {
        assert_read_outs_match(&QuantileSketch::new(), &[], "empty");
        let mut rng = Rng64::seed_from_u64(0x5EED);
        for case in 0..16u64 {
            // Even cases look like stash occupancy (small values around
            // the width-1/width-2 boundary at 32); odd cases span every
            // bit length and include the edges of both bucketings.
            let mut samples: Vec<u64> = Vec::new();
            if case % 2 == 1 {
                samples.extend([0, 1, 15, 16, 31, 32, 33, 1 << 63, u64::MAX]);
            }
            for _ in 0..case * 150 {
                samples.push(if case % 2 == 0 {
                    rng.below(48)
                } else {
                    rng.next_u64() >> rng.below(64)
                });
            }
            let (mut whole, mut a, mut b) =
                (QuantileSketch::new(), QuantileSketch::new(), QuantileSketch::new());
            for (i, &v) in samples.iter().enumerate() {
                whole.record(v);
                if i % 3 == 0 {
                    a.record(v);
                } else {
                    b.record(v);
                }
            }
            a.merge(&b);
            assert_read_outs_match(&whole, &samples, &format!("case {case}"));
            assert_read_outs_match(&a, &samples, &format!("case {case} merged"));
        }
    }

    /// The stash read-out: one outlier in a thousand samples sits
    /// beyond p99.9.
    #[test]
    fn floor_read_out_quantiles_and_max() {
        let mut s = QuantileSketch::new();
        assert_eq!((s.max(), s.quantile_floor(0.999)), (0, 0));
        for _ in 0..999 {
            s.record(3);
        }
        s.record(17);
        assert_eq!(s.count(), 1000);
        assert_eq!(s.max(), 17);
        assert_eq!(s.quantile_floor(0.5), 3);
        assert_eq!(s.quantile_floor(0.999), 3, "the single outlier sits beyond p99.9");
        assert_eq!(s.quantile_floor(1.0), 17);
        assert!((s.mean() - (3.0 * 999.0 + 17.0) / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s = QuantileSketch::new();
        s.record(3);
        s.record(5);
        let before = s.clone();
        s.merge(&QuantileSketch::new());
        assert_eq!(s, before);
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    /// The sum saturates instead of wrapping, in `record` and `merge`.
    #[test]
    fn sum_saturates() {
        let mut s = QuantileSketch::new();
        s.record(u64::MAX);
        s.record(1);
        assert_eq!(s.sum(), u64::MAX);
        let mut t = QuantileSketch::new();
        t.record(2);
        t.merge(&s);
        assert_eq!((t.sum(), t.count()), (u64::MAX, 3));
    }
}
