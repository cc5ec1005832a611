//! DDR3 device geometry and timing parameters.
//!
//! Values follow JEDEC DDR3-1333 (the paper's configuration, modeled there
//! by DRAMSim2's defaults): a 666.7 MHz DRAM clock (tCK = 1.5 ns), 64-bit
//! channel data bus, burst length 8, and the standard core timings.

/// Geometry and timing of one DRAM configuration. All timings are in DRAM
/// clock cycles unless noted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Independent channels (each with its own bus and controller).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: usize,
    /// Data-bus width in bytes (8 = 64-bit).
    pub bus_bytes: usize,
    /// Burst length in beats (DDR3: 8).
    pub burst_length: usize,
    /// DRAM clock period in nanoseconds (DDR3-1333: 1.5 ns).
    pub tck_ns: f64,
    /// CAS latency (read command → first data beat).
    pub cl: u64,
    /// RAS-to-CAS delay (activate → read/write).
    pub trcd: u64,
    /// Row precharge time (precharge → activate).
    pub trp: u64,
    /// Minimum row-open time (activate → precharge).
    pub tras: u64,
    /// Write recovery (end of write burst → precharge).
    pub twr: u64,
    /// Write-to-read turnaround (same rank).
    pub twtr: u64,
    /// Read-to-precharge delay.
    pub trtp: u64,
    /// Column-to-column delay (back-to-back bursts).
    pub tccd: u64,
    /// Activate-to-activate delay, different banks same rank.
    pub trrd: u64,
    /// Four-activate window, same rank.
    pub tfaw: u64,
    /// Write latency (write command → first data beat).
    pub cwl: u64,
    /// Refresh interval in DRAM cycles (tREFI); 0 disables refresh.
    pub trefi: u64,
    /// Refresh cycle time (tRFC).
    pub trfc: u64,
}

impl DramConfig {
    /// DDR3-1333 with two channels and 8 KB rows — the paper's Table I
    /// memory (peak bandwidth 2 × 10.67 = 21.3 GB/s).
    pub fn ddr3_1333() -> Self {
        DramConfig {
            channels: 2,
            ranks: 2,
            banks: 8,
            row_bytes: 8192,
            bus_bytes: 8,
            burst_length: 8,
            tck_ns: 1.5,
            cl: 10,
            trcd: 10,
            trp: 10,
            tras: 24,
            twr: 10,
            twtr: 5,
            trtp: 5,
            tccd: 4,
            trrd: 4,
            tfaw: 20,
            cwl: 7,
            trefi: 5200, // 7.8 µs / 1.5 ns
            trfc: 107,   // 160 ns
        }
    }

    /// Single-channel variant (sensitivity studies).
    pub fn ddr3_1333_single_channel() -> Self {
        DramConfig { channels: 1, ..Self::ddr3_1333() }
    }

    /// Bus cycles occupied by one burst: `burst_length / 2` (DDR transfers
    /// two beats per clock).
    pub fn burst_cycles(&self) -> u64 {
        (self.burst_length as u64).div_ceil(2)
    }

    /// Bytes transferred by one full burst.
    pub fn burst_bytes(&self) -> usize {
        self.bus_bytes * self.burst_length
    }

    /// Columns (in burst units) per row.
    pub fn bursts_per_row(&self) -> usize {
        self.row_bytes / self.burst_bytes()
    }

    /// Peak bandwidth of the whole system in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        let per_channel = self.bus_bytes as f64 * 2.0 / self.tck_ns; // bytes/ns
        per_channel * self.channels as f64
    }

    /// Converts DRAM cycles to nanoseconds.
    pub fn cycles_to_ns(&self, cycles: u64) -> f64 {
        cycles as f64 * self.tck_ns
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.ranks == 0 || self.banks == 0 {
            return Err("channels, ranks and banks must be positive".into());
        }
        if self.row_bytes == 0 || self.bus_bytes == 0 || self.burst_length == 0 {
            return Err("row_bytes, bus_bytes and burst_length must be positive".into());
        }
        if !self.row_bytes.is_multiple_of(self.burst_bytes()) {
            return Err("row size must be a whole number of bursts".into());
        }
        if self.tck_ns <= 0.0 {
            return Err("tCK must be positive".into());
        }
        if self.tras < self.trcd {
            return Err("tRAS must cover at least tRCD".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::ddr3_1333()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr3_defaults_validate() {
        DramConfig::ddr3_1333().validate().unwrap();
        DramConfig::ddr3_1333_single_channel().validate().unwrap();
    }

    #[test]
    fn peak_bandwidth_matches_table1() {
        let c = DramConfig::ddr3_1333();
        // Table I: 21.3 GB/s across two channels.
        let bw = c.peak_bandwidth_gbps();
        assert!((bw - 21.33).abs() < 0.1, "got {bw}");
    }

    #[test]
    fn burst_arithmetic() {
        let c = DramConfig::ddr3_1333();
        assert_eq!(c.burst_cycles(), 4);
        assert_eq!(c.burst_bytes(), 64); // one ORAM block per burst
        assert_eq!(c.bursts_per_row(), 128);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut c = DramConfig::ddr3_1333();
        c.channels = 0;
        assert!(c.validate().is_err());

        let mut c = DramConfig::ddr3_1333();
        c.row_bytes = 100;
        assert!(c.validate().is_err());

        let mut c = DramConfig::ddr3_1333();
        c.tras = 1;
        assert!(c.validate().is_err());

        // A zero size would make `bursts_per_row()` zero (or divide by
        // zero computing it) and the address decode meaningless.
        let zeroed: [fn(&mut DramConfig); 3] =
            [|c| c.row_bytes = 0, |c| c.bus_bytes = 0, |c| c.burst_length = 0];
        for zero in zeroed {
            let mut c = DramConfig::ddr3_1333();
            zero(&mut c);
            let err = c.validate().unwrap_err();
            assert!(err.contains("must be positive"), "{err}");
        }
    }
}
