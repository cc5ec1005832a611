//! The on-chip cache hierarchy (L1 data + unified L2/LLC) that converts a
//! memory-reference stream into the LLC miss stream driving the ORAM.
//!
//! Geometry and latencies follow Table I of the paper: 32 KB 2-way L1
//! (1-cycle), 1 MB 8-way L2 (10-cycle), 64-byte lines, LRU, write-back /
//! write-allocate. Dirty LLC victims become non-blocking write misses.

use crate::cache::{Cache, CacheAccess, CacheStats};
use crate::stream::{MemRef, MissRecord};

/// Hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u32,
    /// L2 (LLC) size in bytes.
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u32,
}

impl HierarchyConfig {
    /// Table I: 32 KB / 2-way / 1-cycle L1; 1 MB / 8-way / 10-cycle L2.
    pub fn paper_table1() -> Self {
        HierarchyConfig {
            l1_bytes: 32 * 1024,
            l1_ways: 2,
            l1_latency: 1,
            l2_bytes: 1024 * 1024,
            l2_ways: 8,
            l2_latency: 10,
        }
    }

    /// A hierarchy scaled down to match scaled ORAM trees: when working
    /// sets are shrunk to fit a small tree, the LLC must shrink with them
    /// or every workload fits on chip and no misses reach the ORAM.
    /// Latencies stay at Table I values.
    pub fn scaled_small() -> Self {
        HierarchyConfig {
            l1_bytes: 4 * 1024,
            l1_ways: 2,
            l1_latency: 1,
            // Scaled so that hot working sets exceed the LLC the way SPEC
            // hot sets exceed the paper's 1 MB LLC — otherwise the ORAM
            // never sees the locality HD-Dup exploits.
            l2_bytes: 16 * 1024,
            l2_ways: 8,
            l2_latency: 10,
        }
    }

    /// A small hierarchy for unit tests (keeps miss streams interesting at
    /// tiny working sets).
    pub fn small_test() -> Self {
        HierarchyConfig {
            l1_bytes: 2 * 1024,
            l1_ways: 2,
            l1_latency: 1,
            l2_bytes: 16 * 1024,
            l2_ways: 4,
            l2_latency: 10,
        }
    }
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig::paper_table1()
    }
}

/// Outcome of pushing one reference through the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Cycles spent in the hierarchy if everything hit on chip (L1 or L2
    /// latency); meaningful only when `misses` is empty.
    pub on_chip_cycles: u32,
    /// Demand miss that must go to memory, if any.
    pub demand_miss: Option<MissRecord>,
    /// Dirty LLC victim to write back, if any (non-blocking).
    pub writeback: Option<MissRecord>,
}

/// The two-level hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    cfg: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    /// Cycles of pure compute + on-chip time accumulated since the last
    /// demand miss (becomes the next miss's `gap_cycles`).
    gap_accumulator: u64,
}

impl CacheHierarchy {
    /// Builds the hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        CacheHierarchy {
            l1: Cache::new(cfg.l1_bytes, cfg.l1_ways),
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways),
            gap_accumulator: 0,
            cfg,
        }
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats()
    }

    /// L2 (LLC) statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Pushes one reference through L1 then L2, accumulating on-chip time
    /// into the inter-miss gap and emitting a [`MissRecord`] when the LLC
    /// misses.
    pub fn access(&mut self, r: &MemRef) -> HierarchyOutcome {
        self.gap_accumulator += u64::from(r.gap_cycles);

        if self.l1.access(r.block_addr, r.is_write).is_hit() {
            self.gap_accumulator += u64::from(self.cfg.l1_latency);
            return HierarchyOutcome {
                on_chip_cycles: self.cfg.l1_latency,
                demand_miss: None,
                writeback: None,
            };
        }
        // L1 miss: consult L2. (L1 victims are clean w.r.t. memory: the
        // hierarchy is modeled inclusive with write-back at the LLC only,
        // so L1 dirty evictions update L2 silently.)
        match self.l2.access(r.block_addr, r.is_write) {
            CacheAccess::Hit => {
                self.gap_accumulator += u64::from(self.cfg.l2_latency);
                HierarchyOutcome {
                    on_chip_cycles: self.cfg.l2_latency,
                    demand_miss: None,
                    writeback: None,
                }
            }
            CacheAccess::Miss { writeback } => {
                let gap = self.gap_accumulator + u64::from(self.cfg.l2_latency);
                self.gap_accumulator = 0;
                HierarchyOutcome {
                    on_chip_cycles: self.cfg.l2_latency,
                    demand_miss: Some(MissRecord {
                        block_addr: r.block_addr,
                        is_write: r.is_write,
                        gap_cycles: gap,
                        blocking: true,
                    }),
                    writeback: writeback.map(|addr| MissRecord {
                        block_addr: addr,
                        is_write: true,
                        gap_cycles: 0,
                        blocking: false,
                    }),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig::small_test())
    }

    #[test]
    fn first_touch_misses_to_memory() {
        let mut h = hier();
        let out = h.access(&MemRef::read(1, 5));
        let m = out.demand_miss.expect("cold miss");
        assert_eq!(m.block_addr, 1);
        assert!(m.blocking);
        assert_eq!(m.gap_cycles, 5 + 10); // gap + L2 latency
    }

    #[test]
    fn repeat_access_hits_l1() {
        let mut h = hier();
        h.access(&MemRef::read(1, 0));
        let out = h.access(&MemRef::read(1, 0));
        assert!(out.demand_miss.is_none());
        assert_eq!(out.on_chip_cycles, 1);
    }

    #[test]
    fn gaps_accumulate_across_hits() {
        let mut h = hier();
        h.access(&MemRef::read(1, 0)); // miss, resets gap
        h.access(&MemRef::read(1, 7)); // L1 hit: 7 + 1 cycles accumulate
        let out = h.access(&MemRef::read(999, 3)); // miss
        let m = out.demand_miss.unwrap();
        assert_eq!(m.gap_cycles, 7 + 1 + 3 + 10);
    }

    #[test]
    fn l1_victim_still_hits_l2() {
        let mut h = hier();
        // Fill far beyond L1 (32 lines) but within L2 (256 lines).
        for a in 0..128u64 {
            h.access(&MemRef::read(a, 0));
        }
        // Address 0 is long gone from L1 but resident in L2.
        let out = h.access(&MemRef::read(0, 0));
        assert!(out.demand_miss.is_none());
        assert_eq!(out.on_chip_cycles, 10);
    }

    #[test]
    fn dirty_llc_victim_produces_nonblocking_writeback() {
        let mut h = hier();
        // Dirty a line, then stream enough conflicting lines through its
        // L2 set to evict it. small_test L2: 16 KB 4-way = 64 sets.
        h.access(&MemRef::write(0, 0));
        for i in 1..=4u64 {
            h.access(&MemRef::read(i * 64, 0)); // same L2 set as 0
        }
        // One of those misses must carry the write-back of block 0.
        let mut h2 = hier();
        h2.access(&MemRef::write(0, 0));
        let mut wb = None;
        for i in 1..=4u64 {
            let out = h2.access(&MemRef::read(i * 64, 0));
            if let Some(w) = out.writeback {
                wb = Some(w);
            }
        }
        let w = wb.expect("dirty victim written back");
        assert_eq!(w.block_addr, 0);
        assert!(w.is_write);
        assert!(!w.blocking);
    }

    #[test]
    fn llc_miss_rate_reflects_working_set() {
        let mut h = hier();
        // Working set of 512 lines (32 KB) overflows the 16 KB LLC.
        for round in 0..4 {
            for a in 0..512u64 {
                h.access(&MemRef::read(a, 0));
                let _ = round;
            }
        }
        assert!(h.l2_stats().miss_rate() > 0.5, "thrash expected");

        let mut h2 = hier();
        // 64-line working set fits everywhere after warmup.
        for _ in 0..4 {
            for a in 0..64u64 {
                h2.access(&MemRef::read(a, 0));
            }
        }
        assert!(h2.l2_stats().miss_rate() < 0.3, "small set should fit");
    }
}
