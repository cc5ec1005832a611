//! Order statistics for the ledger: quartiles the way the acceptance
//! driver computes them, a five-number summary per host metric, and the
//! rule for which tail percentile a sample is large enough to report.

/// The `q`-quantile of an ascending slice by the *exclusive* method
/// (position `q·(n+1)`, linear interpolation, clamped to the ends) —
/// the method of Python's `statistics.quantiles`, so a spread printed
/// here is the spread the acceptance driver will compute.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    let pos = q * (n as f64 + 1.0);
    if pos <= 1.0 {
        return sorted[0];
    }
    if pos >= n as f64 {
        return sorted[n - 1];
    }
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    sorted[lo - 1] + frac * (sorted[lo] - sorted[lo - 1])
}

/// Five-number summary of one host metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarizes a non-empty sample (any order).
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Summary {
            n: v.len(),
            min: v[0],
            q1: quantile(&v, 0.25),
            median: quantile(&v, 0.5),
            q3: quantile(&v, 0.75),
            max: v[v.len() - 1],
        }
    }

    /// Inter-quartile distance as a share of the median (0 for a
    /// constant sample, including a constant 0).
    pub fn spread(&self) -> f64 {
        if self.q3 == self.q1 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The tail percentiles a latency report may name, lowest first, as
/// (parts per 10 000, name) so the sample-count rule is exact.
pub const TAILS: [(u64, &str); 4] =
    [(5_000, "p50"), (9_900, "p99"), (9_990, "p99.9"), (9_999, "p99.99")];

/// The highest percentile of [`TAILS`] that still has at least ten
/// samples beyond it in a sample of `n` (none below 20 samples).
pub fn highest_reportable_tail(n: u64) -> Option<(u64, &'static str)> {
    TAILS.iter().rev().find(|(p, _)| n * (10_000 - p) >= 100_000).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), 2.75);
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert_eq!(quantile(&v, 0.75), 8.25);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let v = [1.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.25), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.0);
        assert_eq!(quantile(&v, 0.75), 3.0);
        assert_eq!(quantile(&[4.0], 0.75), 4.0);
    }

    #[test]
    fn summary_orders_and_spreads() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 5.0, 9.0));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert_eq!(s.spread(), (s.q3 - s.q1) / 5.0);
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_reportable_tail(19), None);
        assert_eq!(highest_reportable_tail(20).unwrap().1, "p50");
        assert_eq!(highest_reportable_tail(999).unwrap().1, "p50");
        assert_eq!(highest_reportable_tail(1_000).unwrap().1, "p99");
        assert_eq!(highest_reportable_tail(9_999).unwrap().1, "p99");
        assert_eq!(highest_reportable_tail(10_000).unwrap().1, "p99.9");
        assert_eq!(highest_reportable_tail(100_000).unwrap().1, "p99.99");
    }
}
