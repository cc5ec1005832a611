//! DRAM energy model.
//!
//! The paper charges energy per memory operation plus background (static)
//! power over execution time, following the parameters of Fletcher et al.
//! (HPCA 2014). We use typical DDR3 per-operation energies derived from
//! datasheet IDD values: the figures that matter for the paper's Fig. 12
//! are *relative* (normalized to the insecure baseline), so the relevant
//! property is the split between per-access dynamic energy (proportional
//! to block transfers) and time-proportional static energy.

/// Raw event counters a channel accumulates; converted to joules by an
/// [`EnergyModel`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounters {
    /// Row activations.
    pub activates: u64,
    /// Precharges.
    pub precharges: u64,
    /// Read bursts.
    pub read_bursts: u64,
    /// Write bursts.
    pub write_bursts: u64,
    /// Refresh operations.
    pub refreshes: u64,
    /// Latest data-bus busy cycle observed (per-channel activity horizon).
    pub busy_until: i64,
}

impl EnergyCounters {
    /// Sums two counter sets (e.g. across channels).
    pub fn merged(self, other: EnergyCounters) -> EnergyCounters {
        EnergyCounters {
            activates: self.activates + other.activates,
            precharges: self.precharges + other.precharges,
            read_bursts: self.read_bursts + other.read_bursts,
            write_bursts: self.write_bursts + other.write_bursts,
            refreshes: self.refreshes + other.refreshes,
            busy_until: self.busy_until.max(other.busy_until),
        }
    }
}

/// Per-operation energies in nanojoules plus background power in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one activate+precharge pair (row cycle), nJ.
    pub act_pre_nj: f64,
    /// Energy of one 64-byte read burst, nJ.
    pub read_nj: f64,
    /// Energy of one 64-byte write burst, nJ.
    pub write_nj: f64,
    /// Energy of one all-bank refresh, nJ.
    pub refresh_nj: f64,
    /// Background (static + standby) power for the whole DRAM system, W.
    pub background_w: f64,
}

impl EnergyModel {
    /// Typical 4 Gb DDR3-1333 x8 device values scaled to a 2-channel,
    /// 2-rank module system.
    pub fn ddr3_typical() -> Self {
        EnergyModel {
            act_pre_nj: 2.5,
            read_nj: 1.2,
            write_nj: 1.3,
            refresh_nj: 25.0,
            background_w: 1.0,
        }
    }

    /// Total energy in millijoules given counters and wall-clock time.
    pub fn total_mj(&self, c: &EnergyCounters, elapsed_ns: f64) -> f64 {
        let dynamic_nj = self.act_pre_nj * c.activates as f64
            + self.read_nj * c.read_bursts as f64
            + self.write_nj * c.write_bursts as f64
            + self.refresh_nj * c.refreshes as f64;
        let static_nj = self.background_w * elapsed_ns; // W * ns = nJ
        (dynamic_nj + static_nj) / 1.0e6
    }

    /// Dynamic-only energy in millijoules.
    pub fn dynamic_mj(&self, c: &EnergyCounters) -> f64 {
        (self.act_pre_nj * c.activates as f64
            + self.read_nj * c.read_bursts as f64
            + self.write_nj * c.write_bursts as f64
            + self.refresh_nj * c.refreshes as f64)
            / 1.0e6
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel::ddr3_typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_adds_counters() {
        let a =
            EnergyCounters { activates: 1, read_bursts: 2, busy_until: 5, ..Default::default() };
        let b =
            EnergyCounters { activates: 3, write_bursts: 4, busy_until: 9, ..Default::default() };
        let m = a.merged(b);
        assert_eq!(m.activates, 4);
        assert_eq!(m.read_bursts, 2);
        assert_eq!(m.write_bursts, 4);
        assert_eq!(m.busy_until, 9);
    }

    #[test]
    fn energy_scales_with_work_and_time() {
        let model = EnergyModel::ddr3_typical();
        let light = EnergyCounters { read_bursts: 10, ..Default::default() };
        let heavy = EnergyCounters { read_bursts: 1000, activates: 100, ..Default::default() };
        assert!(model.total_mj(&heavy, 1000.0) > model.total_mj(&light, 1000.0));
        // Static component dominates for long idle periods.
        let idle_long = model.total_mj(&light, 1.0e9);
        let idle_short = model.total_mj(&light, 1.0e3);
        assert!(idle_long > 100.0 * idle_short);
    }

    #[test]
    fn dynamic_ignores_time() {
        let model = EnergyModel::ddr3_typical();
        let c = EnergyCounters { read_bursts: 7, ..Default::default() };
        assert_eq!(model.dynamic_mj(&c), model.dynamic_mj(&c));
        assert!(model.dynamic_mj(&c) > 0.0);
    }
}
