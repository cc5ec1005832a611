//! Simplified out-of-order / multicore front-end.
//!
//! The paper's sensitivity study (Fig. 18) swaps the in-order core for a
//! quad-core 8-way out-of-order CPU with a shared LLC, each core running a
//! copy of the benchmark. Two effects matter for ORAM behavior and both
//! are captured here without modeling a pipeline:
//!
//! * **Memory-level parallelism** — an O3 core keeps executing past a load
//!   miss until its reorder-buffer window fills or a dependent use is
//!   reached, so several misses overlap and effective inter-miss gaps
//!   shrink. We model this by scaling gaps down and marking a fraction of
//!   misses non-blocking (those the window can hide).
//! * **Multicore interleaving** — per-core miss streams merge into one
//!   memory-side stream, multiplying miss intensity.
//!
//! The result is the higher memory intensity the paper observes, which
//! reduces DRI and therefore RD-Dup's advantage.

use crate::stream::{MissRecord, MissStream};

/// Configuration of the O3 window model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct O3Config {
    /// Cores sharing the LLC (paper: 4).
    pub cores: usize,
    /// Of `window` consecutive misses, the first `window - 1` can be
    /// overlapped by the ROB; every `window`-th miss drains the pipeline
    /// and blocks (models dependent loads / window exhaustion). Paper's
    /// 8-way core ≈ window 4.
    pub window: usize,
    /// Gap scale in percent (compute overlaps with outstanding misses, so
    /// effective gaps shrink; 100 = unchanged).
    pub gap_scale_pct: u32,
}

impl O3Config {
    /// The paper's quad-core 8-way O3 configuration.
    pub fn paper_o3() -> Self {
        O3Config { cores: 4, window: 4, gap_scale_pct: 35 }
    }
}

impl Default for O3Config {
    fn default() -> Self {
        O3Config::paper_o3()
    }
}

/// Wraps per-core miss streams into one memory-side stream with MLP
/// semantics applied.
#[derive(Debug)]
pub struct O3Frontend<S> {
    cores: Vec<S>,
    cfg: O3Config,
    /// Round-robin pointer over cores.
    next_core: usize,
    /// Per-core position in the blocking window.
    window_pos: Vec<usize>,
    exhausted: Vec<bool>,
}

impl<S: MissStream> O3Frontend<S> {
    /// Creates the front-end from one miss stream per core.
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or `cfg.window` is zero.
    pub fn new(streams: Vec<S>, cfg: O3Config) -> Self {
        assert!(!streams.is_empty(), "need at least one core");
        assert!(cfg.window > 0, "window must be positive");
        let n = streams.len();
        O3Frontend {
            cores: streams,
            cfg,
            next_core: 0,
            window_pos: vec![0; n],
            exhausted: vec![false; n],
        }
    }
}

impl<S: MissStream> MissStream for O3Frontend<S> {
    fn next_miss(&mut self) -> Option<MissRecord> {
        let n = self.cores.len();
        for _ in 0..n {
            let c = self.next_core;
            self.next_core = (self.next_core + 1) % n;
            if self.exhausted[c] {
                continue;
            }
            match self.cores[c].next_miss() {
                Some(mut m) => {
                    // Scale the gap for overlap with outstanding misses.
                    m.gap_cycles = m.gap_cycles * u64::from(self.cfg.gap_scale_pct) / 100;
                    if m.blocking {
                        // Only every `window`-th demand miss blocks.
                        self.window_pos[c] = (self.window_pos[c] + 1) % self.cfg.window;
                        if self.window_pos[c] != 0 {
                            m.blocking = false;
                        }
                    }
                    return Some(m);
                }
                None => self.exhausted[c] = true,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::ReplayMisses;

    fn miss(addr: u64, gap: u64) -> MissRecord {
        MissRecord { block_addr: addr, is_write: false, gap_cycles: gap, blocking: true }
    }

    #[test]
    fn merges_streams_round_robin() {
        let a = ReplayMisses::new(vec![miss(1, 0), miss(2, 0)]);
        let b = ReplayMisses::new(vec![miss(10, 0), miss(20, 0)]);
        let cfg = O3Config { cores: 2, window: 1, gap_scale_pct: 100 };
        let mut fe = O3Frontend::new(vec![a, b], cfg);
        let order: Vec<u64> = std::iter::from_fn(|| fe.next_miss()).map(|m| m.block_addr).collect();
        assert_eq!(order, vec![1, 10, 2, 20]);
    }

    #[test]
    fn gaps_are_scaled() {
        let a = ReplayMisses::new(vec![miss(1, 100)]);
        let cfg = O3Config { cores: 1, window: 1, gap_scale_pct: 35 };
        let mut fe = O3Frontend::new(vec![a], cfg);
        assert_eq!(fe.next_miss().unwrap().gap_cycles, 35);
    }

    #[test]
    fn window_unblocks_all_but_every_nth() {
        let a = ReplayMisses::new((0..8).map(|i| miss(i, 0)).collect());
        let cfg = O3Config { cores: 1, window: 4, gap_scale_pct: 100 };
        let mut fe = O3Frontend::new(vec![a], cfg);
        let blocking: Vec<bool> =
            std::iter::from_fn(|| fe.next_miss()).map(|m| m.blocking).collect();
        // Positions 3 and 7 (every 4th) block; the rest overlap.
        assert_eq!(blocking, vec![false, false, false, true, false, false, false, true]);
    }

    #[test]
    fn nonblocking_writebacks_stay_nonblocking() {
        let wb = MissRecord { block_addr: 9, is_write: true, gap_cycles: 0, blocking: false };
        let a = ReplayMisses::new(vec![wb]);
        let mut fe = O3Frontend::new(vec![a], O3Config::paper_o3());
        assert!(!fe.next_miss().unwrap().blocking);
    }

    #[test]
    fn uneven_streams_drain_completely() {
        let a = ReplayMisses::new(vec![miss(1, 0)]);
        let b = ReplayMisses::new((0..5).map(|i| miss(100 + i, 0)).collect());
        let cfg = O3Config { cores: 2, window: 1, gap_scale_pct: 100 };
        let mut fe = O3Frontend::new(vec![a, b], cfg);
        let count = std::iter::from_fn(|| fe.next_miss()).count();
        assert_eq!(count, 6);
    }
}
