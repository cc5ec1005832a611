//! The metrics registry: fixed-schema counters and quantile-sketch
//! histograms, sized once at construction so the record path never
//! allocates.

use oram_util::{MetricId, MetricKind, QuantileSketch};

/// Counter metrics: the schema puts every counter before the first
/// histogram.
const COUNTERS: usize = MetricId::ServedPosition as usize;
/// Histogram metrics, one sketch each.
const HISTOGRAMS: usize = MetricId::ALL.len() - COUNTERS;

/// The full fixed-schema registry: one counter or sketch per
/// [`MetricId`]. Construction allocates everything; recording never
/// does.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: [u64; COUNTERS],
    hists: Vec<QuantileSketch>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry covering the whole schema.
    pub fn new() -> Self {
        MetricsRegistry { counters: [0; COUNTERS], hists: vec![QuantileSketch::new(); HISTOGRAMS] }
    }

    /// Adds `delta` to a counter.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `id` is a counter metric.
    #[inline]
    pub fn count(&mut self, id: MetricId, delta: u64) {
        debug_assert_eq!(id.kind(), MetricKind::Counter, "{id:?} is not a counter");
        self.counters[id.index()] += delta;
    }

    /// Records one histogram sample.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `id` is a histogram metric.
    #[inline]
    pub fn sample(&mut self, id: MetricId, value: u64) {
        debug_assert_eq!(id.kind(), MetricKind::Histogram, "{id:?} is not a histogram");
        self.hists[id.index() - COUNTERS].record(value);
    }

    /// Current value of a counter.
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters[id.index()]
    }

    /// The sketch behind a distribution metric.
    pub fn histogram(&self, id: MetricId) -> &QuantileSketch {
        &self.hists[id.index() - COUNTERS]
    }

    /// Merges another registry into this one, metric by metric.
    /// Deterministic: merging shards in a fixed order gives the same
    /// registry regardless of how work was split across threads.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge(b);
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.iter().all(|&c| c == 0) && self.hists.iter().all(|h| h.count() == 0)
    }

    /// CSV export: one row per metric with fixed columns
    /// `metric,kind,count,sum,min,max,mean,p50,p99`.
    /// Counters report their total in `count` and leave the
    /// distribution columns zero; `p50`/`p99` are bit-length upper
    /// bounds ([`QuantileSketch::quantile_pow2_upper`]).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("metric,kind,count,sum,min,max,mean,p50,p99\n");
        for id in MetricId::ALL {
            match id.kind() {
                MetricKind::Counter => {
                    out.push_str(&format!(
                        "{},counter,{},0,0,0,0,0,0\n",
                        id.name(),
                        self.counter(id)
                    ));
                }
                MetricKind::Histogram => {
                    let h = self.histogram(id);
                    out.push_str(&format!(
                        "{},histogram,{},{},{},{},{:.3},{},{}\n",
                        id.name(),
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max(),
                        h.mean(),
                        h.quantile_pow2_upper(0.5),
                        h.quantile_pow2_upper(0.99),
                    ));
                }
            }
        }
        out
    }

    /// Human-readable dump of every non-empty metric, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for id in MetricId::ALL {
            match id.kind() {
                MetricKind::Counter => {
                    let c = self.counter(id);
                    if c > 0 {
                        out.push_str(&format!("  {:<24} {c}\n", id.name()));
                    }
                }
                MetricKind::Histogram => {
                    let h = self.histogram(id);
                    if h.count() > 0 {
                        out.push_str(&format!(
                            "  {:<24} n={} mean={:.2} min={} p50={} p99={} max={}\n",
                            id.name(),
                            h.count(),
                            h.mean(),
                            h.min(),
                            h.quantile_pow2_upper(0.5),
                            h.quantile_pow2_upper(0.99),
                            h.max(),
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const H: MetricId = MetricId::ServedPosition;

    fn registry_of(samples: &[u64]) -> MetricsRegistry {
        let mut r = MetricsRegistry::new();
        for &v in samples {
            r.sample(H, v);
        }
        r
    }

    /// The `p50` column reads the bit length of the median sample: the
    /// largest value of that length.
    #[test]
    fn buckets_by_bit_length() {
        for (v, hi) in [(0, 0), (1, 1), (2, 3), (3, 3), (4, 7), (u64::MAX, u64::MAX)] {
            let r = registry_of(&[v, u64::MAX]);
            assert_eq!(r.histogram(H).quantile_pow2_upper(0.5), hi, "v={v}");
        }
    }

    #[test]
    fn histogram_tracks_exact_extremes_and_mean() {
        let h = registry_of(&[3, 9, 27, 81]);
        let h = h.histogram(H);
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), 3);
        assert_eq!(h.max(), 81);
        assert_eq!(h.sum(), 120);
        assert!((h.mean() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_bounded_by_bucket_and_max() {
        let r = registry_of(&(0..100).collect::<Vec<u64>>());
        let h = r.histogram(H);
        // p0/p100 are exact.
        assert_eq!(h.quantile_pow2_upper(0.0), 0);
        assert_eq!(h.quantile_pow2_upper(1.0), 99);
        // Any quantile is within a factor of two of the true value and
        // never exceeds the observed max.
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile_pow2_upper(q);
            let true_v = ((q * 100.0).ceil() as u64).saturating_sub(1);
            assert!(est <= 99, "q={q} est={est}");
            assert!(est >= true_v, "bit-length upper bound must dominate: q={q} est={est}");
            assert!(est <= true_v.max(1) * 2, "q={q} est={est} true={true_v}");
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = registry_of(&[1, 5, 70, 4000]);
        let b = registry_of(&[0, 2, 900, 65535]);
        let both = registry_of(&[1, 5, 70, 4000, 0, 2, 900, 65535]);
        a.merge(&b);
        assert_eq!(a.histogram(H), both.histogram(H));
        assert_eq!(a.to_csv(), both.to_csv());
    }

    #[test]
    fn registry_counts_samples_and_merges() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.count(MetricId::StashHitReal, 2);
        r.sample(MetricId::ServedPosition, 17);
        let mut s = MetricsRegistry::new();
        s.count(MetricId::StashHitReal, 3);
        s.sample(MetricId::ServedPosition, 40);
        r.merge(&s);
        assert_eq!(r.counter(MetricId::StashHitReal), 5);
        assert_eq!(r.histogram(MetricId::ServedPosition).count(), 2);
        assert_eq!(r.histogram(MetricId::ServedPosition).max(), 40);
        assert!(!r.is_empty());
    }

    #[test]
    fn csv_has_header_and_full_schema() {
        let r = MetricsRegistry::new();
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines[0], "metric,kind,count,sum,min,max,mean,p50,p99");
        assert_eq!(lines.len(), 1 + MetricId::ALL.len());
        for (line, id) in lines[1..].iter().zip(MetricId::ALL.iter()) {
            assert!(line.starts_with(id.name()), "{line}");
        }
    }
}
