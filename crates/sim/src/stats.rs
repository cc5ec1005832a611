//! Simulation statistics: the paper's Eq. 1 decomposition
//! (`total = data access time + DRI`), energy, and derived metrics.

use oram_dram::{ChannelStats, EnergyCounters, EnergyModel};
use oram_protocol::OramStats;

/// Timing and event statistics for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Total execution time in CPU cycles.
    pub total_cycles: u64,
    /// Cycles during which a *real data* ORAM request occupied the memory
    /// system (path reads plus piggybacked evictions).
    pub data_cycles: u64,
    /// Everything else — the paper's DRI: idle intervals plus dummy
    /// requests (`total - data`).
    pub dri_cycles: u64,
    /// Real ORAM requests serviced via path access.
    pub data_requests: u64,
    /// Requests served on chip (stash/treetop) without memory traffic.
    pub onchip_served: u64,
    /// Dummy ORAM requests injected (timing protection).
    pub dummy_requests: u64,
    /// LLC misses consumed from the workload.
    pub misses_consumed: u64,
    /// DRAM energy in millijoules (dynamic + background over total time).
    pub energy_mj: f64,
    /// ORAM controller statistics over the same span as the fields
    /// above (the measured window alone, for a measured replay).
    pub oram: OramStats,
    /// DRAM scheduling statistics over the same span.
    pub dram: ChannelStats,
}

impl SimStats {
    /// Fraction of total time spent in real data requests.
    pub fn data_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.data_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Fraction of total time that is DRI (Eq. 1 residual).
    pub fn dri_fraction(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.dri_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Slowdown of this run relative to a baseline run (e.g. the insecure
    /// system): `self.total / baseline.total`.
    pub fn slowdown_vs(&self, baseline: &SimStats) -> f64 {
        if baseline.total_cycles == 0 {
            f64::INFINITY
        } else {
            self.total_cycles as f64 / baseline.total_cycles as f64
        }
    }

    /// Speedup of this run relative to a slower reference:
    /// `reference.total / self.total`.
    pub fn speedup_vs(&self, reference: &SimStats) -> f64 {
        if self.total_cycles == 0 {
            f64::INFINITY
        } else {
            reference.total_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Recomputes the energy field from counters and the model.
    pub fn set_energy(&mut self, model: &EnergyModel, counters: &EnergyCounters, elapsed_ns: f64) {
        self.energy_mj = model.total_mj(counters, elapsed_ns);
    }
}

/// Geometric mean of a slice of positive values (the paper reports gmean
/// across the ten workloads). Returns 0 for an empty slice.
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_partition_total() {
        let s = SimStats {
            total_cycles: 1000,
            data_cycles: 600,
            dri_cycles: 400,
            ..Default::default()
        };
        assert!((s.data_fraction() - 0.6).abs() < 1e-12);
        assert!((s.dri_fraction() - 0.4).abs() < 1e-12);
        assert!((s.data_fraction() + s.dri_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_and_speedup_are_inverse() {
        let fast = SimStats { total_cycles: 500, ..Default::default() };
        let slow = SimStats { total_cycles: 1500, ..Default::default() };
        assert!((slow.slowdown_vs(&fast) - 3.0).abs() < 1e-12);
        assert!((fast.speedup_vs(&slow) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_is_infinite() {
        let s = SimStats { total_cycles: 10, ..Default::default() };
        let z = SimStats::default();
        assert!(s.slowdown_vs(&z).is_infinite());
    }

    /// The simulator's stash-occupancy distribution is a
    /// `QuantileSketch`: recording two streams separately and merging
    /// must equal recording the concatenated stream into one sketch.
    #[test]
    fn histogram_merge_equals_direct_recording() {
        use oram_util::QuantileSketch;
        let stream_a: Vec<u64> = (0..200).map(|i| (i * 7) % 13).collect();
        let stream_b: Vec<u64> = (0..300).map(|i| (i * 11) % 19).collect();
        let mut direct = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for &v in &stream_a {
            direct.record(v);
            a.record(v);
        }
        for &v in &stream_b {
            direct.record(v);
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a, direct);
        assert_eq!(a.count(), 500);
        for q in [0.0, 0.25, 0.5, 0.9, 0.999, 1.0] {
            assert_eq!(a.quantile_floor(q), direct.quantile_floor(q), "q={q}");
            assert_eq!(a.quantile(q), direct.quantile(q), "q={q}");
        }
        assert_eq!(a.max(), direct.max());
        assert!((a.mean() - direct.mean()).abs() < 1e-12);
    }

    #[test]
    fn gmean_basics() {
        assert_eq!(gmean(&[]), 0.0);
        assert!((gmean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }
}
