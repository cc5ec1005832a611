//! The insecure baseline system: the same CPU and DRAM, but each LLC miss
//! is a single 64-byte DRAM access with no ORAM indirection. Figures 11,
//! 12 and 15 normalize against this system.

use oram_cpu::{MissRecord, MissStream};
use oram_dram::{BlockRequest, DramSystem};

use crate::config::SystemConfig;
use crate::stats::SimStats;

/// The insecure-system simulator.
#[derive(Debug)]
pub struct InsecureSystem {
    cfg: SystemConfig,
    dram: DramSystem,
    mem_free: u64,
    stats: SimStats,
}

impl InsecureSystem {
    /// Builds the baseline system.
    ///
    /// # Errors
    ///
    /// Returns the validation error of any component.
    pub fn new(cfg: SystemConfig) -> Result<Self, String> {
        cfg.validate()?;
        let dram = DramSystem::new(cfg.dram)?;
        Ok(InsecureSystem { dram, mem_free: 0, stats: SimStats::default(), cfg })
    }

    /// Runs the miss stream to completion.
    pub fn run<S: MissStream>(&mut self, misses: &mut S) -> SimStats {
        let mut cpu_ready: u64 = 0;
        while let Some(miss) = misses.next_miss() {
            self.stats.misses_consumed += 1;
            cpu_ready = cpu_ready.saturating_add(miss.gap_cycles);
            let timing = self.one_access(&miss, cpu_ready);
            if miss.blocking {
                cpu_ready = timing;
            }
        }
        self.stats.total_cycles = self.mem_free.max(cpu_ready);
        self.stats.dri_cycles = self.stats.total_cycles.saturating_sub(self.stats.data_cycles);
        self.stats.dram = self.dram.stats();
        let elapsed_ns = self.cfg.cpu_cycles_to_ns(self.stats.total_cycles);
        let counters = self.dram.energy();
        self.stats.set_energy(&self.cfg.energy, &counters, elapsed_ns);
        self.stats
    }

    /// Services one miss; returns the data-ready time.
    fn one_access(&mut self, miss: &MissRecord, ready: u64) -> u64 {
        let start = ready.max(self.mem_free);
        let req = if miss.is_write {
            BlockRequest::write(miss.block_addr)
        } else {
            BlockRequest::read(miss.block_addr)
        };
        let now_dram = self.cfg.to_dram_cycles(start);
        let finish = self.dram.service_batch(now_dram, &[req])[0];
        let end = self.cfg.to_cpu_cycles(finish);
        self.mem_free = end;
        self.stats.data_requests += 1;
        self.stats.data_cycles += end - start;
        end + u64::from(self.cfg.onchip_latency_cycles)
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_cpu::ReplayMisses;

    fn miss(addr: u64, gap: u64) -> MissRecord {
        MissRecord { block_addr: addr, is_write: false, gap_cycles: gap, blocking: true }
    }

    #[test]
    fn insecure_is_much_faster_than_oram() {
        let misses: Vec<MissRecord> = (0..100).map(|i| miss(i % 64, 50)).collect();
        let mut ins = InsecureSystem::new(SystemConfig::small_test()).unwrap();
        let si = ins.run(&mut ReplayMisses::new(misses.clone()));

        let mut eng = crate::engine::Engine::new(SystemConfig::small_test()).unwrap();
        eng.prefill_working_set(64);
        let so = eng.run(&mut ReplayMisses::new(misses));

        assert!(
            so.total_cycles > 2 * si.total_cycles,
            "ORAM {} should be several times the insecure {}",
            so.total_cycles,
            si.total_cycles
        );
    }

    #[test]
    fn accounts_every_miss() {
        let misses: Vec<MissRecord> = (0..25).map(|i| miss(i, 10)).collect();
        let mut ins = InsecureSystem::new(SystemConfig::small_test()).unwrap();
        let s = ins.run(&mut ReplayMisses::new(misses));
        assert_eq!(s.misses_consumed, 25);
        assert_eq!(s.data_requests, 25);
        assert!(s.energy_mj > 0.0);
    }

    #[test]
    fn writes_do_not_block_cpu_time() {
        let wb = MissRecord { block_addr: 1, is_write: true, gap_cycles: 0, blocking: false };
        let demand = miss(2, 0);
        let mut ins = InsecureSystem::new(SystemConfig::small_test()).unwrap();
        let s = ins.run(&mut ReplayMisses::new(vec![wb, demand]));
        assert_eq!(s.data_requests, 2);
    }
}
