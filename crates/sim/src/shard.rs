//! Sharded ORAM backend: the address space partitioned across `M`
//! independent subtree shards, each owning its own tree, stash, position
//! map slice, eviction cadence and private DRAM channels, served
//! concurrently through the [`crate::parallel_map`] scoped-thread pool.
//!
//! The shard map is public-by-design (`addr mod M`, like the partition
//! in partition-based ORAMs): which shard serves a request leaks only
//! `addr mod M`, a function of the *public* address identity an
//! adversary already sees the frequency profile of. What must not leak
//! is anything beyond that — each shard's bus trace must remain a valid
//! oblivious ORAM trace on its own, and the interleaving/timing of shard
//! completions must depend only on the dispatch counts, not on which
//! addresses map where. `oram-audit` checks both (per-shard `check_trace`
//! plus the cross-shard distinguisher).
//!
//! Determinism: for a fixed `(seed, M)` the result is bit-identical at
//! any thread count. Requests are partitioned to shards in input order
//! before any of them runs, each shard serves its sub-batch sequentially
//! on its own engine (own RNG stream, seeded from the master seed and
//! the shard index), and outcomes are scattered back by input position —
//! the pool only changes *when* a shard's sub-batch runs, never what it
//! computes.

use std::sync::Mutex;

use oram_storage::{DramBackend, StorageBackend};
use oram_util::ServeClass;

use crate::config::SystemConfig;
use crate::engine::{Engine, ServeOutcome};
use crate::pool::parallel_map;
use crate::stats::SimStats;

/// One request entering the sharded backend: a global block address, the
/// read/write direction and the cycle it reached the memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRequest {
    /// Global (pre-sharding) block address.
    pub addr: u64,
    /// `true` for writes.
    pub write: bool,
    /// CPU cycle the request arrived at the memory system.
    pub arrival: u64,
}

/// Deliberate shard-layer fault for auditor validation (test-only):
/// compiled only under the `mutants` cargo feature, which nothing but
/// audit dev-dependencies enables.
#[cfg(feature = "mutants")]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardMutant {
    /// No fault: the honest `addr mod M` mapping.
    #[default]
    None,
    /// Collapses the address→shard mapping onto the lower half of the
    /// shards — the "sharding function lost a bit" class of bug.
    /// Externally visible only through the dispatch-load distribution.
    ShardSkew,
}

/// A request queued for one shard: the shard-local address plus the
/// position of the request in the caller's batch, so outcomes scatter
/// back in input order.
#[derive(Debug, Clone, Copy)]
struct SubRequest {
    local_addr: u64,
    write: bool,
    arrival: u64,
    index: usize,
}

/// `M` independent ORAM engines behind one dispatch front, generic over
/// the storage backend each shard's engine runs on (default: the
/// private-DRAM-channel model).
///
/// Each shard is a full [`Engine`] — controller, stash, posmap, private
/// storage backend (its own channels or store: shard affinity) — serving
/// the shard-local address space `addr / M` of the global addresses with
/// `addr mod M == shard`. Shards advance on their own clocks; the global
/// clock reported by [`ShardedOram::cycle`] is the earliest shard clock
/// (the soonest a new request could start somewhere).
#[derive(Debug)]
pub struct ShardedOram<B: StorageBackend = DramBackend> {
    /// Engines behind mutexes so the scoped-thread pool can serve
    /// disjoint shards concurrently; each batch locks every shard at
    /// most once, and never the same shard from two workers.
    lanes: Vec<Mutex<Engine<B>>>,
    threads: usize,
    /// Per-shard request buffers, cleared per batch, capacity retained.
    sub_reqs: Vec<Vec<SubRequest>>,
    /// Shard indices `0..M`, preallocated as the pool's job list.
    indices: Vec<usize>,
    /// Requests dispatched to each shard since construction (or the last
    /// [`ShardedOram::reset_dispatch_counts`]).
    dispatch_counts: Vec<u64>,
    #[cfg(feature = "mutants")]
    mutant: ShardMutant,
}

/// Per-shard RNG stream: a SplitMix64-style scramble of the master seed
/// and the shard index, so shards draw from disjoint, uncorrelated
/// streams while staying a pure function of `(seed, shard)`.
fn shard_seed(master: u64, shard: usize) -> u64 {
    oram_util::splitmix64_mix(master ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl ShardedOram<DramBackend> {
    /// Builds `shards` engines over the default DRAM backend from the
    /// per-shard configuration template `cfg`, serving batches on up to
    /// `threads` pool workers.
    ///
    /// With `shards == 1` the single engine keeps `cfg.oram.seed`
    /// verbatim, so a one-shard backend is the plain [`Engine`] behind a
    /// dispatch front; with more shards each engine gets its own derived
    /// seed stream.
    ///
    /// # Errors
    ///
    /// Returns a validation error for `shards == 0` or an invalid `cfg`.
    pub fn new(cfg: SystemConfig, shards: usize, threads: usize) -> Result<Self, String> {
        let dram = cfg.dram;
        Self::with_backend_factory(cfg, shards, threads, move |_| DramBackend::new(dram))
    }
}

impl<B: StorageBackend> ShardedOram<B> {
    /// Builds `shards` engines, constructing each shard's private
    /// storage backend with `make_backend(shard_index)` — e.g. a
    /// file-per-shard disk directory, or per-shard WAN links.
    /// Seed derivation and dispatch behave exactly as
    /// [`ShardedOram::new`].
    ///
    /// # Errors
    ///
    /// Returns a validation error for `shards == 0`, an invalid `cfg`,
    /// or any backend construction failure.
    pub fn with_backend_factory(
        cfg: SystemConfig,
        shards: usize,
        threads: usize,
        mut make_backend: impl FnMut(usize) -> Result<B, String>,
    ) -> Result<Self, String> {
        if shards == 0 {
            return Err("shard count must be at least 1".into());
        }
        let mut lanes = Vec::with_capacity(shards);
        for i in 0..shards {
            let mut shard_cfg = cfg.clone();
            if shards > 1 {
                shard_cfg.oram.seed = shard_seed(cfg.oram.seed, i);
            }
            lanes.push(Mutex::new(Engine::with_backend(shard_cfg, make_backend(i)?)?));
        }
        Ok(ShardedOram {
            lanes,
            threads: threads.max(1),
            sub_reqs: (0..shards).map(|_| Vec::new()).collect(),
            indices: (0..shards).collect(),
            dispatch_counts: vec![0; shards],
            #[cfg(feature = "mutants")]
            mutant: ShardMutant::None,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    /// Worker threads used per batch.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Injects a deliberate shard-layer fault (auditor validation only).
    #[cfg(feature = "mutants")]
    pub fn set_mutant(&mut self, mutant: ShardMutant) {
        self.mutant = mutant;
    }

    /// The shard serving a global address.
    pub fn shard_of(&self, addr: u64) -> usize {
        #[cfg(feature = "mutants")]
        if self.mutant == ShardMutant::ShardSkew {
            return ((addr % self.lanes.len() as u64) / 2) as usize;
        }
        (addr % self.lanes.len() as u64) as usize
    }

    /// The shard-local address of a global address (`addr / M`: dense per
    /// shard under the honest `addr mod M` dispatch).
    fn local_addr(&self, addr: u64) -> u64 {
        addr / self.lanes.len() as u64
    }

    /// Pre-installs the working set `0..blocks` (global addresses) across
    /// the shards, mirroring [`Engine::prefill_working_set`].
    pub fn prefill_working_set(&mut self, blocks: u64) {
        let mut per_shard: Vec<Vec<u64>> = vec![Vec::new(); self.lanes.len()];
        for addr in 0..blocks {
            per_shard[self.shard_of(addr)].push(self.local_addr(addr));
        }
        for (lane, addrs) in self.lanes.iter_mut().zip(per_shard) {
            lane.get_mut().expect("shard engine poisoned").prefill(addrs);
        }
    }

    /// Preallocates the per-shard dispatch buffers for batches of up to
    /// `n` requests, so steady-state [`ShardedOram::serve_batch`] calls
    /// never touch the allocator (the zero-allocation bench gates on
    /// this at one worker thread).
    pub fn reserve_batch(&mut self, n: usize) {
        for sub in &mut self.sub_reqs {
            sub.reserve(n);
        }
    }

    /// Serves one batch of requests and scatters the outcomes back into
    /// `outs` in input order (`outs` is cleared and refilled; with enough
    /// capacity the call does not allocate at `threads == 1`).
    ///
    /// Dispatch is deterministic: requests partition to shards in input
    /// order before any shard runs, each shard serves its sub-batch
    /// sequentially on its own engine, and the pool only parallelizes
    /// *across* shards — so the outcome is a pure function of
    /// `(seed, M, batch)` at any thread count.
    pub fn serve_batch(&mut self, reqs: &[ShardRequest], outs: &mut Vec<ServeOutcome>) {
        for sub in &mut self.sub_reqs {
            sub.clear();
        }
        for (index, r) in reqs.iter().enumerate() {
            let shard = self.shard_of(r.addr);
            let local_addr = self.local_addr(r.addr);
            self.dispatch_counts[shard] += 1;
            self.sub_reqs[shard].push(SubRequest {
                local_addr,
                write: r.write,
                arrival: r.arrival,
                index,
            });
        }

        outs.clear();
        outs.resize(
            reqs.len(),
            ServeOutcome { data_ready: 0, end: 0, served: ServeClass::Stash, touched_dram: false },
        );

        let workers = self.threads.min(self.lanes.len());
        if workers <= 1 {
            // Inline path: no pool, no locking overhead, no allocation.
            for (lane, sub) in self.lanes.iter_mut().zip(&self.sub_reqs) {
                let engine = lane.get_mut().expect("shard engine poisoned");
                for r in sub {
                    outs[r.index] = engine.serve_request(r.local_addr, r.write, r.arrival);
                }
            }
            return;
        }

        let lanes = &self.lanes;
        let sub_reqs = &self.sub_reqs;
        let served: Vec<Vec<(usize, ServeOutcome)>> =
            parallel_map(workers, &self.indices, |&shard| {
                let mut engine = lanes[shard].lock().expect("shard engine poisoned");
                sub_reqs[shard]
                    .iter()
                    .map(|r| (r.index, engine.serve_request(r.local_addr, r.write, r.arrival)))
                    .collect()
            });
        for (index, out) in served.into_iter().flatten() {
            outs[index] = out;
        }
    }

    /// Serves a single request inline (warmup and diagnostics; batches
    /// are the throughput path).
    pub fn serve_request(&mut self, addr: u64, write: bool, arrival: u64) -> ServeOutcome {
        let shard = self.shard_of(addr);
        self.dispatch_counts[shard] += 1;
        let local = self.local_addr(addr);
        let engine = self.lanes[shard].get_mut().expect("shard engine poisoned");
        engine.serve_request(local, write, arrival)
    }

    /// The global clock: how far the backend has advanced — the latest
    /// shard clock. Shards only advance while serving, so this is the
    /// finish time of the furthest-ahead shard, the natural admission
    /// horizon for a front-end driving the backend.
    pub fn cycle(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.lock().expect("shard engine poisoned").cycle())
            .max()
            .unwrap_or(0)
    }

    /// Mutable access to one shard's engine (telemetry and observer
    /// attachment, prefill, diagnostics).
    pub fn engine_mut(&mut self, shard: usize) -> &mut Engine<B> {
        self.lanes[shard].get_mut().expect("shard engine poisoned")
    }

    /// Requests dispatched to each shard so far. Under a uniform address
    /// mix and the honest mapping these loads are statistically uniform —
    /// the property the audit's cross-shard distinguisher checks.
    pub fn dispatch_counts(&self) -> &[u64] {
        &self.dispatch_counts
    }

    /// Zeroes the dispatch counters (e.g. after warmup, so a
    /// distribution check sees only the measured window).
    pub fn reset_dispatch_counts(&mut self) {
        self.dispatch_counts.iter_mut().for_each(|c| *c = 0);
    }

    /// Completes the Eq. 1 accounting on every shard and returns the
    /// merged statistics (see [`ShardedOram::merge_stats`]).
    pub fn finish(&mut self) -> SimStats {
        let per_shard: Vec<SimStats> = self
            .lanes
            .iter_mut()
            .map(|l| l.get_mut().expect("shard engine poisoned").finish())
            .collect();
        Self::merge_stats(&per_shard)
    }

    /// Statistics of one shard (valid after [`ShardedOram::finish`]).
    pub fn shard_stats(&self, shard: usize) -> SimStats {
        self.lanes[shard].lock().expect("shard engine poisoned").stats()
    }

    /// Folds per-shard statistics into one global view on the merged
    /// clock: `total_cycles` is the wall clock (the run ends when the
    /// slowest shard drains), event counters and energy sum, and
    /// `data_cycles` sums each shard's busy time — aggregate backend
    /// occupancy, which can exceed the wall clock when shards genuinely
    /// overlap. The Eq. 1 residual `dri_cycles` is therefore computed
    /// against the wall clock and saturates at zero; the exact per-shard
    /// Eq. 1 decomposition stays available via
    /// [`ShardedOram::shard_stats`].
    pub fn merge_stats(per_shard: &[SimStats]) -> SimStats {
        let mut merged = SimStats::default();
        for s in per_shard {
            merged.total_cycles = merged.total_cycles.max(s.total_cycles);
            merged.data_cycles += s.data_cycles;
            merged.data_requests += s.data_requests;
            merged.onchip_served += s.onchip_served;
            merged.dummy_requests += s.dummy_requests;
            merged.misses_consumed += s.misses_consumed;
            merged.energy_mj += s.energy_mj;
            merged.oram.zip_counters(&s.oram, |a, b| *a += b);
            merged.dram.zip_counters(&s.dram, |a, b| *a += b);
        }
        merged.dri_cycles = merged.total_cycles.saturating_sub(merged.data_cycles);
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u64, domain: u64) -> Vec<ShardRequest> {
        (0..n)
            .map(|i| ShardRequest { addr: (i * 131) % domain, write: i % 5 == 0, arrival: i * 40 })
            .collect()
    }

    #[test]
    fn one_shard_matches_the_plain_engine() {
        let cfg = SystemConfig::small_test();
        let mut plain = Engine::new(cfg.clone()).unwrap();
        plain.prefill_working_set(96);
        let mut sharded = ShardedOram::new(cfg, 1, 1).unwrap();
        sharded.prefill_working_set(96);

        let reqs = batch(400, 96);
        let mut outs = Vec::new();
        sharded.serve_batch(&reqs, &mut outs);
        for (i, r) in reqs.iter().enumerate() {
            let want = plain.serve_request(r.addr, r.write, r.arrival);
            assert_eq!(outs[i], want, "request {i}");
        }
        assert_eq!(sharded.finish(), plain.finish());
    }

    #[test]
    fn outcomes_are_thread_count_invariant() {
        let reqs = batch(600, 256);
        let mut reference: Option<(Vec<ServeOutcome>, SimStats)> = None;
        for threads in [1usize, 2, 4] {
            let cfg = SystemConfig::small_test();
            let mut sharded = ShardedOram::new(cfg, 4, threads).unwrap();
            sharded.prefill_working_set(256);
            let mut outs = Vec::new();
            // Several batches so per-shard clocks advance between them.
            for chunk in reqs.chunks(64) {
                let mut chunk_outs = Vec::new();
                sharded.serve_batch(chunk, &mut chunk_outs);
                outs.extend(chunk_outs);
            }
            let stats = sharded.finish();
            match &reference {
                None => reference = Some((outs, stats)),
                Some((want_outs, want_stats)) => {
                    assert_eq!(&outs, want_outs, "threads={threads}");
                    assert_eq!(&stats, want_stats, "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn dispatch_balances_a_uniform_mix() {
        let mut sharded = ShardedOram::new(SystemConfig::small_test(), 4, 1).unwrap();
        sharded.prefill_working_set(256);
        let reqs = batch(1000, 256);
        let mut outs = Vec::new();
        sharded.serve_batch(&reqs, &mut outs);
        let counts = sharded.dispatch_counts();
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 150, "shard {i} starved: {c}");
        }
        sharded.reset_dispatch_counts();
        assert!(sharded.dispatch_counts().iter().all(|&c| c == 0));
    }

    #[test]
    fn merged_stats_take_the_wall_clock_and_sum_counters() {
        let a = SimStats {
            total_cycles: 1000,
            data_cycles: 700,
            data_requests: 10,
            misses_consumed: 12,
            ..Default::default()
        };
        let b = SimStats {
            total_cycles: 1400,
            data_cycles: 900,
            data_requests: 14,
            misses_consumed: 14,
            ..Default::default()
        };
        let m = ShardedOram::<DramBackend>::merge_stats(&[a, b]);
        assert_eq!(m.total_cycles, 1400);
        assert_eq!(m.data_cycles, 1600);
        assert_eq!(m.dri_cycles, 0, "aggregate busy time exceeds the wall clock");
        assert_eq!(m.data_requests, 24);
        assert_eq!(m.misses_consumed, 26);
    }

    #[test]
    fn shards_draw_distinct_seed_streams() {
        assert_ne!(shard_seed(7, 0), shard_seed(7, 1));
        assert_ne!(shard_seed(7, 0), shard_seed(8, 0));
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(ShardedOram::new(SystemConfig::small_test(), 0, 1).is_err());
    }
}
