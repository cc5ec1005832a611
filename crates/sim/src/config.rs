//! Full-system configuration: CPU, caches, ORAM controller, DRAM, timing
//! protection and energy — Table I of the paper in one struct.

use oram_cpu::HierarchyConfig;
use oram_dram::{DramConfig, EnergyModel};
use oram_protocol::OramConfig;

/// Everything needed to instantiate one simulated system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// CPU core clock in GHz (Table I: 2.0).
    pub cpu_freq_ghz: f64,
    /// ORAM controller configuration.
    pub oram: OramConfig,
    /// DRAM timing configuration.
    pub dram: DramConfig,
    /// Cache hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Timing protection: constant request rate in CPU cycles between
    /// ORAM request slots (`None` disables protection; the paper uses
    /// 800 cycles in Sec. VI-C).
    pub timing_protection: Option<u64>,
    /// Model XOR path compression (Ring-ORAM style): the requested data
    /// only becomes available once the whole path has been read and
    /// XOR-decoded, but read bursts do not occupy the shared data bus
    /// (the in-memory hub returns a single block).
    pub xor_compression: bool,
    /// AES-128 decryption latency in CPU cycles (Table I: 32).
    pub aes_latency_cycles: u32,
    /// On-chip service latency (stash CAM + control overhead) in CPU cycles.
    pub onchip_latency_cycles: u32,
    /// DRAM energy model.
    pub energy: EnergyModel,
    /// Idle-gap threshold (in multiples of the running mean access time)
    /// beyond which, without timing protection, the dynamic partitioner
    /// is fed a long-gap signal (the counterpart of observing a dummy
    /// request when protection is on).
    pub long_gap_factor: f64,
    /// Intra-controller pipelining: overlap access `k+1`'s path read with
    /// access `k`'s eviction where no hazard (the same leaf, or a stash
    /// that a path's worth of blocks could overflow) forces a stall.
    /// Timing-only: it decides whether the memory system frees after the
    /// path read or after the eviction; protocol state and the bus trace
    /// are the same either way. Incompatible with timing protection, whose
    /// fixed slot grid assumes a serialized controller.
    pub pipeline: bool,
}

impl SystemConfig {
    /// The scaled-down default: a `L = 14` tree that builds fast, with all
    /// other parameters at their Table I values.
    pub fn scaled_default() -> Self {
        let mut oram = OramConfig::paper_table1();
        oram.levels = 14;
        oram.stash_capacity = 200;
        SystemConfig {
            cpu_freq_ghz: 2.0,
            oram,
            dram: DramConfig::ddr3_1333(),
            hierarchy: HierarchyConfig::scaled_small(),
            timing_protection: None,
            xor_compression: false,
            aes_latency_cycles: 32,
            onchip_latency_cycles: 4,
            energy: EnergyModel::ddr3_typical(),
            long_gap_factor: 1.0,
            pipeline: false,
        }
    }

    /// A tiny configuration for unit tests.
    pub fn small_test() -> Self {
        SystemConfig {
            cpu_freq_ghz: 2.0,
            oram: OramConfig::small_test(),
            dram: DramConfig::ddr3_1333(),
            hierarchy: HierarchyConfig::small_test(),
            timing_protection: None,
            xor_compression: false,
            aes_latency_cycles: 32,
            onchip_latency_cycles: 4,
            energy: EnergyModel::ddr3_typical(),
            long_gap_factor: 1.0,
            pipeline: false,
        }
    }

    /// Builder-style: enables timing protection at the given slot period.
    pub fn with_timing_protection(mut self, period_cycles: u64) -> Self {
        self.timing_protection = Some(period_cycles);
        self
    }

    /// Builder-style: replaces the ORAM configuration.
    pub fn with_oram(mut self, oram: OramConfig) -> Self {
        self.oram = oram;
        self
    }

    /// Builder-style: enables the XOR-compression model.
    pub fn with_xor_compression(mut self) -> Self {
        self.xor_compression = true;
        self
    }

    /// Builder-style: enables intra-controller pipelining.
    pub fn with_pipeline(mut self) -> Self {
        self.pipeline = true;
        self
    }

    /// CPU cycles per DRAM cycle (e.g. 3.0 for a 2 GHz core and DDR3-1333).
    pub fn cpu_cycles_per_dram_cycle(&self) -> f64 {
        self.dram.tck_ns * self.cpu_freq_ghz
    }

    /// Converts a CPU-cycle time to DRAM cycles (floor).
    pub fn to_dram_cycles(&self, cpu_cycles: u64) -> i64 {
        (cpu_cycles as f64 / self.cpu_cycles_per_dram_cycle()) as i64
    }

    /// Converts a DRAM-cycle time to CPU cycles (ceiling).
    pub fn to_cpu_cycles(&self, dram_cycles: i64) -> u64 {
        (dram_cycles.max(0) as f64 * self.cpu_cycles_per_dram_cycle()).ceil() as u64
    }

    /// Converts CPU cycles to nanoseconds.
    pub fn cpu_cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.cpu_freq_ghz
    }

    /// Validates all components.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.cpu_freq_ghz <= 0.0 {
            return Err("CPU frequency must be positive".into());
        }
        if let Some(p) = self.timing_protection {
            if p == 0 {
                return Err("timing-protection period must be positive".into());
            }
        }
        if self.long_gap_factor <= 0.0 {
            return Err("long_gap_factor must be positive".into());
        }
        if self.pipeline && self.timing_protection.is_some() {
            return Err("pipelining is incompatible with timing protection".into());
        }
        self.oram.validate()?;
        self.dram.validate()?;
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::scaled_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        SystemConfig::scaled_default().validate().unwrap();
        SystemConfig::small_test().validate().unwrap();
    }

    #[test]
    fn clock_conversions_round_trip_approximately() {
        let c = SystemConfig::small_test();
        assert!((c.cpu_cycles_per_dram_cycle() - 3.0).abs() < 1e-9);
        assert_eq!(c.to_dram_cycles(300), 100);
        assert_eq!(c.to_cpu_cycles(100), 300);
        assert_eq!(c.to_cpu_cycles(c.to_dram_cycles(299)), 297);
    }

    #[test]
    fn builders_compose() {
        let c = SystemConfig::small_test().with_timing_protection(800).with_xor_compression();
        assert_eq!(c.timing_protection, Some(800));
        assert!(c.xor_compression);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_zero_rate() {
        let c = SystemConfig::small_test().with_timing_protection(0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn pipelining_excludes_timing_protection() {
        SystemConfig::small_test().with_pipeline().validate().unwrap();
        let c = SystemConfig::small_test().with_pipeline().with_timing_protection(800);
        assert!(c.validate().is_err());
    }
}
