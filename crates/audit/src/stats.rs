//! Hand-rolled goodness-of-fit tests over observed leaf distributions.
//!
//! The repo carries no external crates, so the critical values are
//! computed from the Wilson–Hilferty chi-square approximation and the
//! asymptotic Kolmogorov distribution. All tests run at significance
//! `α = 0.001`: strict enough that an honest uniform remapper passes
//! fuzz sweeps reliably, loose enough that even a mildly biased remap
//! fails within a few thousand samples.

/// Normal upper quantile `z` for `α = 0.001`.
const Z_ALPHA: f64 = 3.0902;
/// Kolmogorov–Smirnov coefficient `c(α)` for `α = 0.001`.
const KS_C_ALPHA: f64 = 1.9495;

/// Outcome of one goodness-of-fit test.
#[derive(Debug, Clone, PartialEq)]
pub struct GofTest {
    /// Which test ran (for report lines).
    pub name: &'static str,
    /// The computed statistic (chi-square value or KS `D`).
    pub statistic: f64,
    /// The `α = 0.001` critical value it was compared against.
    pub critical: f64,
    /// `true` when the sample is consistent with the null hypothesis.
    pub pass: bool,
}

impl GofTest {
    fn conclude(name: &'static str, statistic: f64, critical: f64) -> Self {
        GofTest { name, statistic, critical, pass: statistic <= critical }
    }
}

/// Wilson–Hilferty approximation of the upper-`α` chi-square quantile
/// with `df` degrees of freedom (exact enough for df ≥ 3, which every
/// caller here guarantees).
fn chi_square_critical(df: f64) -> f64 {
    let t = 1.0 - 2.0 / (9.0 * df) + Z_ALPHA * (2.0 / (9.0 * df)).sqrt();
    df * t * t * t
}

/// Pearson chi-square test of `counts` against the uniform distribution.
///
/// Bins with too few expected observations inflate the statistic, so
/// callers should aggregate with [`bin_counts`] first; this function
/// assumes the binning is already sane (`counts.len() ≥ 4`, expected
/// per-bin count ≥ 5 for the approximation to hold).
pub fn chi_square_uniform(counts: &[u64]) -> GofTest {
    assert!(counts.len() >= 4, "need at least 4 bins");
    let total: u64 = counts.iter().sum();
    let expected = total as f64 / counts.len() as f64;
    let statistic: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    GofTest::conclude(
        "chi-square uniform",
        statistic,
        chi_square_critical(counts.len() as f64 - 1.0),
    )
}

/// Two-sample chi-square homogeneity test: were `a` and `b` drawn from
/// the same distribution? This is the distributional distinguisher — `a`
/// and `b` are per-bin leaf counts from two different secret access
/// patterns, and a pass means the traces are indistinguishable at this
/// sample size.
pub fn chi_square_two_sample(a: &[u64], b: &[u64]) -> GofTest {
    assert_eq!(a.len(), b.len(), "samples must share the binning");
    assert!(a.len() >= 4, "need at least 4 bins");
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    let (na, nb) = (na as f64, nb as f64);
    let mut statistic = 0.0;
    for (&ca, &cb) in a.iter().zip(b) {
        let pooled = (ca + cb) as f64;
        if pooled == 0.0 {
            continue;
        }
        let ea = pooled * na / (na + nb);
        let eb = pooled * nb / (na + nb);
        let da = ca as f64 - ea;
        let db = cb as f64 - eb;
        statistic += da * da / ea + db * db / eb;
    }
    GofTest::conclude("chi-square two-sample", statistic, chi_square_critical(a.len() as f64 - 1.0))
}

/// One-sample Kolmogorov–Smirnov test of `values` against the discrete
/// uniform distribution on `0..domain`.
///
/// Complements the chi-square test: KS is sensitive to smooth CDF-level
/// drifts (e.g. a remap that halves every label) that coarse binning can
/// wash out.
pub fn ks_uniform(values: &[u64], domain: u64) -> GofTest {
    assert!(domain > 0 && !values.is_empty());
    let mut counts = vec![0u64; domain as usize];
    for &v in values {
        counts[v as usize] += 1;
    }
    ks_uniform_counts(&counts)
}

/// [`ks_uniform`] of a sample given as one count per value of
/// `0..counts.len()`.
pub fn ks_uniform_counts(counts: &[u64]) -> GofTest {
    let domain = counts.len() as u64;
    let n: u64 = counts.iter().sum();
    assert!(domain > 0 && n > 0);
    let n = n as f64;
    let mut cum = 0u64;
    let mut d_max = 0.0f64;
    for (v, &c) in counts.iter().enumerate() {
        // Compare the empirical CDF against the uniform CDF at both edges
        // of the step.
        let uniform_lo = v as f64 / domain as f64;
        let uniform_hi = (v as f64 + 1.0) / domain as f64;
        let ecdf_lo = cum as f64 / n;
        cum += c;
        let ecdf_hi = cum as f64 / n;
        d_max = d_max.max((ecdf_lo - uniform_lo).abs()).max((ecdf_hi - uniform_hi).abs());
    }
    GofTest::conclude("ks uniform", d_max, KS_C_ALPHA / n.sqrt())
}

/// Aggregates raw values from `0..domain` into at most `max_bins`
/// equal-width bins (a power of two dividing `domain`), so the
/// chi-square expected-count assumption holds on small samples over
/// large leaf domains.
pub fn bin_counts(values: &[u64], domain: u64, max_bins: usize) -> Vec<u64> {
    assert!(domain.is_power_of_two(), "leaf domains are powers of two");
    let mut bins = max_bins.next_power_of_two();
    if bins > max_bins {
        bins /= 2;
    }
    let bins = (bins as u64).min(domain);
    let width = domain / bins;
    let mut counts = vec![0u64; bins as usize];
    for &v in values {
        assert!(v < domain, "value {v} outside domain {domain}");
        counts[(v / width) as usize] += 1;
    }
    counts
}

/// Largest leaf domain whose sample the uniformity check walks with
/// [`ks_uniform`]; past it, chi-square alone.
const KS_MAX_DOMAIN: u64 = 4096;

/// Most bins the uniformity check's chi-square uses.
const MAX_BINS: u64 = 64;

/// A sample of leaves of a depth-`L` tree as the uniformity check reads
/// it: 64 (or `2^L`, if fewer) equal-width bin counts, plus one count per
/// leaf when `2^L ≤ 4096`. These are the arrays
/// [`bin_counts`] and [`ks_uniform`] build from the sample, so a sample
/// folded here leaf by leaf tests exactly as the stored sample does, in
/// memory that does not grow with its length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafCounts {
    levels: u32,
    total: u64,
    bins: Vec<u64>,
    per_leaf: Vec<u64>,
}

impl LeafCounts {
    /// No leaves yet, of a depth-`levels` tree.
    pub fn new(levels: u32) -> Self {
        let domain = 1u64 << levels;
        let per_leaf = if domain <= KS_MAX_DOMAIN { domain as usize } else { 0 };
        LeafCounts {
            levels,
            total: 0,
            bins: vec![0; domain.min(MAX_BINS) as usize],
            per_leaf: vec![0; per_leaf],
        }
    }

    /// The counts of a stored sample.
    pub fn from_leaves(leaves: &[u64], levels: u32) -> Self {
        let mut counts = LeafCounts::new(levels);
        leaves.iter().for_each(|&leaf| counts.add(leaf));
        counts
    }

    /// Counts one more `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is outside the tree's `0..2^L`.
    #[inline]
    pub fn add(&mut self, leaf: u64) {
        let domain = 1u64 << self.levels;
        assert!(leaf < domain, "value {leaf} outside domain {domain}");
        let width = domain / self.bins.len() as u64;
        self.total += 1;
        self.bins[(leaf / width) as usize] += 1;
        if let Some(count) = self.per_leaf.get_mut(leaf as usize) {
            *count += 1;
        }
    }

    /// Tree depth `L`.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Leaves counted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// [`bin_counts`] of the sample over `2^L` with `bins` bins (a power
    /// of two, at most `min(64, 2^L)`), merged from the fine bins.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is not such a power of two.
    pub fn binned(&self, bins: usize) -> Vec<u64> {
        let fine = self.bins.len();
        assert!(bins.is_power_of_two() && bins <= fine, "{bins} bins of {fine}");
        self.bins.chunks(fine / bins).map(|run| run.iter().sum()).collect()
    }

    /// One count per leaf, when `2^L ≤ 4096`.
    pub fn per_leaf(&self) -> Option<&[u64]> {
        (!self.per_leaf.is_empty()).then_some(&self.per_leaf[..])
    }
}

/// Leaf-uniformity checks sized to the sample: chi-square always (with
/// adaptive binning), KS when the leaf domain is small enough to walk.
///
/// # Errors
///
/// Returns why the sample is too small, or which test rejected it.
pub(crate) fn leaf_uniformity(counts: &LeafCounts) -> Result<(), String> {
    let n = counts.total();
    if n < 128 {
        return Err(format!("only {n} bus-visible path reads: sample too small"));
    }
    let domain = 1u64 << counts.levels();
    let bins = (n / 16).next_power_of_two().min(MAX_BINS).clamp(4, domain);
    let chi = chi_square_uniform(&counts.binned(bins as usize));
    if !chi.pass {
        return Err(format!(
            "leaf distribution rejected by {} ({:.2} > {:.2})",
            chi.name, chi.statistic, chi.critical
        ));
    }
    if let Some(per_leaf) = counts.per_leaf() {
        let ks = ks_uniform_counts(per_leaf);
        if !ks.pass {
            return Err(format!(
                "leaf distribution rejected by {} ({:.4} > {:.4})",
                ks.name, ks.statistic, ks.critical
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_util::Rng64;

    #[test]
    fn critical_values_match_tables() {
        // Reference values for chi2(0.999, df): df=15 → 37.70, df=63 → 103.4.
        assert!((chi_square_critical(15.0) - 37.70).abs() < 0.3);
        assert!((chi_square_critical(63.0) - 103.4).abs() < 0.8);
    }

    #[test]
    fn uniform_sample_passes_all_tests() {
        let mut rng = Rng64::seed_from_u64(42);
        let domain = 256u64;
        let values: Vec<u64> = (0..8000).map(|_| rng.below(domain)).collect();
        let chi = chi_square_uniform(&bin_counts(&values, domain, 64));
        assert!(chi.pass, "{chi:?}");
        let ks = ks_uniform(&values, domain);
        assert!(ks.pass, "{ks:?}");
    }

    #[test]
    fn biased_sample_fails_both_tests() {
        let mut rng = Rng64::seed_from_u64(7);
        let domain = 256u64;
        // Everything lands in the lower half: a remap bug this gross must
        // be unmissable.
        let values: Vec<u64> = (0..4000).map(|_| rng.below(domain / 2)).collect();
        assert!(!chi_square_uniform(&bin_counts(&values, domain, 64)).pass);
        assert!(!ks_uniform(&values, domain).pass);
    }

    #[test]
    fn two_sample_distinguishes_different_distributions() {
        let mut rng = Rng64::seed_from_u64(3);
        let domain = 128u64;
        let a: Vec<u64> = (0..6000).map(|_| rng.below(domain)).collect();
        let b: Vec<u64> = (0..6000).map(|_| rng.below(domain)).collect();
        let same = chi_square_two_sample(&bin_counts(&a, domain, 32), &bin_counts(&b, domain, 32));
        assert!(same.pass, "{same:?}");

        let skew: Vec<u64> = (0..6000).map(|_| rng.below(domain) / 2).collect();
        let diff =
            chi_square_two_sample(&bin_counts(&a, domain, 32), &bin_counts(&skew, domain, 32));
        assert!(!diff.pass, "{diff:?}");
    }

    /// The sample-based check the counts replaced, kept as the reference:
    /// the same binning and tests, straight from the stored leaves.
    fn sample_uniformity(leaves: &[u64], levels: u32) -> Result<(), String> {
        if leaves.len() < 128 {
            return Err(format!("only {} bus-visible path reads: sample too small", leaves.len()));
        }
        let domain = 1u64 << levels;
        let bins = (leaves.len() as u64 / 16).next_power_of_two().min(64).clamp(4, domain);
        let chi = chi_square_uniform(&bin_counts(leaves, domain, bins as usize));
        if !chi.pass {
            return Err(format!(
                "leaf distribution rejected by {} ({:.2} > {:.2})",
                chi.name, chi.statistic, chi.critical
            ));
        }
        if domain <= 4096 {
            let ks = ks_uniform(leaves, domain);
            if !ks.pass {
                return Err(format!(
                    "leaf distribution rejected by {} ({:.4} > {:.4})",
                    ks.name, ks.statistic, ks.critical
                ));
            }
        }
        Ok(())
    }

    /// Counts folded leaf by leaf give the stored sample's statistics bit
    /// for bit — chi-square at every binning the check can pick, KS where
    /// it runs — and its verdict, over uniform, biased and too-small
    /// samples.
    #[test]
    fn counted_leaves_test_exactly_as_the_sample_does() {
        let mut rng = Rng64::seed_from_u64(0xC0_4275);
        let mut verdicts = [0u32; 2];
        for levels in [3u32, 10, 12, 14] {
            let domain = 1u64 << levels;
            for case in 0..24 {
                let n = [0, 1, 127, 128, 129, 700, 5_000][case % 7] + rng.below(40);
                let sample: Vec<u64> = (0..n)
                    .map(|_| match case % 3 {
                        0 => rng.below(domain),
                        // The lower half only, as `BiasedRemap` draws.
                        1 => rng.below(domain) / 2,
                        // Mostly uniform, a few leaves too often.
                        _ if rng.below(8) == 0 => rng.below(domain.min(5)),
                        _ => rng.below(domain),
                    })
                    .collect();
                let mut counts = LeafCounts::new(levels);
                sample.iter().for_each(|&leaf| counts.add(leaf));
                assert_eq!(counts, LeafCounts::from_leaves(&sample, levels));
                assert_eq!(counts.total(), n);
                let ctx = format!("L={levels} case {case} n={n}");
                if n == 0 {
                    assert_eq!(
                        leaf_uniformity(&counts),
                        sample_uniformity(&sample, levels),
                        "{ctx}"
                    );
                    continue;
                }
                let mut bins = 4;
                while bins <= domain.min(64) as usize {
                    let binned = chi_square_uniform(&counts.binned(bins));
                    let stored = chi_square_uniform(&bin_counts(&sample, domain, bins));
                    let bits = |t: &GofTest| t.statistic.to_bits();
                    assert_eq!(bits(&binned), bits(&stored), "{ctx} bins {bins}");
                    assert_eq!(binned, stored, "{ctx} bins {bins}");
                    bins *= 2;
                }
                match counts.per_leaf() {
                    Some(per_leaf) => {
                        let folded = ks_uniform_counts(per_leaf);
                        let stored = ks_uniform(&sample, domain);
                        assert_eq!(folded.statistic.to_bits(), stored.statistic.to_bits(), "{ctx}");
                        assert_eq!(folded, stored, "{ctx}");
                    }
                    None => assert!(domain > KS_MAX_DOMAIN, "{ctx}"),
                }
                let verdict = leaf_uniformity(&counts);
                assert_eq!(verdict, sample_uniformity(&sample, levels), "{ctx}");
                verdicts[usize::from(verdict.is_ok())] += 1;
            }
        }
        assert!(
            verdicts.iter().all(|&v| v > 10),
            "passes and failures both exercised: {verdicts:?}"
        );
    }

    #[test]
    fn bin_counts_respects_domain_and_cap() {
        let values = vec![0, 1, 63, 64, 127];
        let counts = bin_counts(&values, 128, 4);
        assert_eq!(counts, vec![2, 1, 1, 1]);
        // Caps at the domain when the domain is small.
        assert_eq!(bin_counts(&[0, 1], 2, 64).len(), 2);
    }
}
