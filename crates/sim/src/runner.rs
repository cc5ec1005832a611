//! High-level experiment runner: workload profile in, [`SimStats`] out.
//!
//! The runner handles the plumbing every experiment shares: scaling the
//! workload's working set to the configured tree, prefilling the ORAM,
//! generating the reference trace, filtering it through the cache
//! hierarchy, warming up, and running both the ORAM system and the
//! insecure baseline on identical miss streams.

use oram_cpu::{HierarchyConfig, InOrderCore, MissRecord, MissStream, O3Config, O3Frontend};
use oram_storage::StorageBackend;
use oram_util::SharedTelemetry;
use oram_workloads::{TraceGenerator, WorkloadProfile};

use crate::config::SystemConfig;
use crate::engine::Engine;
use crate::insecure::InsecureSystem;
use crate::stats::SimStats;

/// Options controlling one experiment run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOptions {
    /// LLC misses to simulate (after warmup).
    pub misses: u64,
    /// LLC misses consumed for warmup (not measured).
    pub warmup_misses: u64,
    /// Trace seed.
    pub seed: u64,
    /// Target tree fill: the largest workload's working set is scaled to
    /// this fraction of the tree's slot capacity (paper: ~40%).
    pub fill_target: f64,
    /// Simulate the quad-core O3 front-end instead of the in-order core.
    pub o3: Option<O3Config>,
}

impl RunOptions {
    /// Quick defaults used by tests and the default harness runs.
    pub fn quick() -> Self {
        RunOptions { misses: 3000, warmup_misses: 600, seed: 7, fill_target: 0.35, o3: None }
    }

    /// Builder-style: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: enables the O3 front-end.
    pub fn with_o3(mut self, cfg: O3Config) -> Self {
        self.o3 = Some(cfg);
        self
    }
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions::quick()
    }
}

/// Result of one experiment: the ORAM system and the insecure baseline on
/// the same miss stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunResult {
    /// ORAM-system statistics.
    pub oram: SimStats,
    /// Insecure-baseline statistics.
    pub insecure: SimStats,
}

impl RunResult {
    /// Slowdown of the ORAM system over the insecure baseline.
    pub fn slowdown(&self) -> f64 {
        self.oram.slowdown_vs(&self.insecure)
    }

    /// Energy of the ORAM system normalized to the insecure baseline.
    pub fn energy_norm(&self) -> f64 {
        if self.insecure.energy_mj == 0.0 {
            f64::INFINITY
        } else {
            self.oram.energy_mj / self.insecure.energy_mj
        }
    }
}

/// Scales `profile` so the *largest* paper-scale workload hits
/// `fill_target` of the tree. All profiles share one factor so relative
/// footprints are preserved.
pub fn scale_profile(
    profile: &WorkloadProfile,
    cfg: &SystemConfig,
    fill_target: f64,
) -> WorkloadProfile {
    // mcf has the largest paper-scale working set (2^21 blocks).
    const LARGEST_WS: f64 = (1u64 << 21) as f64;
    let slots = oram_protocol::TreeShape::new(cfg.oram.levels, cfg.oram.z).slot_count() as f64;
    let factor = (slots * fill_target) / LARGEST_WS;
    profile.clone().scaled(factor.min(1.0))
}

/// Generates the miss stream for `profile` under `opts`: trace →
/// hierarchy → (optional O3 merge), collecting `warmup + misses` records.
pub fn build_miss_stream(
    profile: &WorkloadProfile,
    hierarchy: HierarchyConfig,
    opts: &RunOptions,
) -> Vec<MissRecord> {
    let total = opts.warmup_misses + opts.misses;
    let want = total as usize;
    let mut records = Vec::with_capacity(want);
    // Bound the raw-reference budget so workloads that mostly hit the LLC
    // terminate with a short stream rather than spinning forever.
    let ref_budget = total.saturating_mul(5_000).max(100_000);

    match opts.o3 {
        None => {
            let gen = TraceGenerator::new(profile.clone(), opts.seed, ref_budget);
            let mut core = InOrderCore::new(GenIter(gen), hierarchy);
            while records.len() < want {
                match core.next_miss() {
                    Some(m) => records.push(m),
                    None => break,
                }
            }
        }
        Some(o3cfg) => {
            let cores: Vec<_> = (0..o3cfg.cores)
                .map(|c| {
                    let gen = TraceGenerator::new(
                        profile.clone(),
                        opts.seed.wrapping_add(c as u64 * 0x9E37),
                        ref_budget,
                    );
                    InOrderCore::new(GenIter(gen), hierarchy)
                })
                .collect();
            let mut fe = O3Frontend::new(cores, o3cfg);
            while records.len() < want {
                match fe.next_miss() {
                    Some(m) => records.push(m),
                    None => break,
                }
            }
        }
    }
    records
}

/// Adapter giving the trace generator an `Iterator` face so it can feed
/// [`InOrderCore`] (which accepts any `RefStream`, including iterators).
#[derive(Debug)]
struct GenIter(TraceGenerator);

impl Iterator for GenIter {
    type Item = oram_cpu::MemRef;
    fn next(&mut self) -> Option<Self::Item> {
        use oram_cpu::RefStream;
        self.0.next_ref()
    }
}

/// Runs one workload under one system configuration, returning ORAM and
/// insecure statistics measured over the post-warmup misses.
///
/// # Panics
///
/// Panics if the configuration is invalid (experiments are supposed to be
/// constructed from validated building blocks).
pub fn run_workload(profile: &WorkloadProfile, cfg: &SystemConfig, opts: &RunOptions) -> RunResult {
    run_workload_with(profile, cfg, opts, None)
}

/// Like [`run_workload`], but attaches `telemetry` to the whole ORAM stack
/// for the **measured** portion of the run. Warmup runs dark, so the metric
/// stream, spans, and time-series windows cover exactly the misses that the
/// returned [`SimStats`] measure. `window_cycles` sets the time-series
/// sampling period in CPU cycles (0 disables windows).
///
/// # Panics
///
/// Panics if the configuration is invalid, as [`run_workload`] does.
pub fn run_workload_traced(
    profile: &WorkloadProfile,
    cfg: &SystemConfig,
    opts: &RunOptions,
    telemetry: SharedTelemetry,
    window_cycles: u64,
) -> RunResult {
    run_workload_with(profile, cfg, opts, Some((telemetry, window_cycles)))
}

/// Runs one workload under one system configuration on the ORAM system
/// alone, returning the statistics [`run_workload`] reports as
/// [`RunResult::oram`]: the same run without the insecure baseline, for
/// callers that never compare against it.
///
/// # Panics
///
/// Panics if the configuration is invalid, as [`run_workload`] does.
pub fn run_oram(profile: &WorkloadProfile, cfg: &SystemConfig, opts: &RunOptions) -> SimStats {
    replay_oram(profile, cfg, opts, None).0
}

/// Shared body of [`run_workload`] and [`run_workload_traced`].
fn run_workload_with(
    profile: &WorkloadProfile,
    cfg: &SystemConfig,
    opts: &RunOptions,
    telemetry: Option<(SharedTelemetry, u64)>,
) -> RunResult {
    let (oram, records, split) = replay_oram(profile, cfg, opts, telemetry);
    // The insecure baseline on the same measured records.
    let mut ins = InsecureSystem::new(cfg.clone()).expect("valid config");
    let insecure = ins.run(&mut records[split..].iter().copied());
    RunResult { oram, insecure }
}

/// The ORAM half of every closed-loop run: scales `profile` to the tree,
/// builds its miss stream, prefills an engine and replays the stream
/// through [`replay_measured`]. Returns the measured statistics, the
/// records and where the measured ones start.
fn replay_oram(
    profile: &WorkloadProfile,
    cfg: &SystemConfig,
    opts: &RunOptions,
    telemetry: Option<(SharedTelemetry, u64)>,
) -> (SimStats, Vec<MissRecord>, usize) {
    let scaled = scale_profile(profile, cfg, opts.fill_target);
    let records = build_miss_stream(&scaled, cfg.hierarchy, opts);
    let split = (opts.warmup_misses as usize).min(records.len());
    let (warm, measured) = records.split_at(split);
    let mut engine = Engine::new(cfg.clone()).expect("valid config");
    engine.prefill_working_set(scaled.working_set_blocks);
    let (oram, ()) = replay_measured(&mut engine, warm, measured, telemetry, |_| ());
    (oram, records, split)
}

/// The measured replay every closed-loop run shares: replays `warm`
/// through `engine` dark, attaches `telemetry` (sink, time-series window
/// in cycles), replays `measured`, detaches, and returns the statistics
/// of the measured replay alone. `at_measure` sees the engine between
/// the two replays; its answer comes back beside the statistics, so a
/// caller can difference its own counters over exactly the measured
/// window.
pub fn replay_measured<B: StorageBackend, T>(
    engine: &mut Engine<B>,
    warm: &[MissRecord],
    measured: &[MissRecord],
    telemetry: Option<(SharedTelemetry, u64)>,
    at_measure: impl FnOnce(&Engine<B>) -> T,
) -> (SimStats, T) {
    if !warm.is_empty() {
        engine.run(&mut warm.iter().copied());
    }
    let mark = at_measure(engine);
    if let Some((sink, window_cycles)) = telemetry {
        // Attach only now, so warmup noise never reaches the sink.
        engine.attach_telemetry(sink, window_cycles);
    }
    let before = engine.stats();
    let after = engine.run(&mut measured.iter().copied());
    engine.detach_telemetry();
    (subtract_stats(&after, &before), mark)
}

/// Subtracts the warmup portion out of cumulative statistics, the
/// controller and DRAM counters included.
fn subtract_stats(after: &SimStats, before: &SimStats) -> SimStats {
    let mut s = *after;
    s.total_cycles = after.total_cycles - before.total_cycles;
    s.data_cycles = after.data_cycles - before.data_cycles;
    s.dri_cycles = s.total_cycles.saturating_sub(s.data_cycles);
    s.data_requests = after.data_requests - before.data_requests;
    s.onchip_served = after.onchip_served - before.onchip_served;
    s.dummy_requests = after.dummy_requests - before.dummy_requests;
    s.misses_consumed = after.misses_consumed - before.misses_consumed;
    s.oram.zip_counters(&before.oram, |a, b| *a -= b);
    s.dram.zip_counters(&before.dram, |a, b| *a -= b);
    // Energy: scale the cumulative figure by the measured share of time
    // (counter-level subtraction would need per-phase snapshots; the
    // background-dominated split makes time share the right proxy).
    if after.total_cycles > 0 {
        s.energy_mj = after.energy_mj * (s.total_cycles as f64 / after.total_cycles as f64);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_workloads::spec;

    fn tiny_opts() -> RunOptions {
        RunOptions { misses: 300, warmup_misses: 100, seed: 3, fill_target: 0.3, o3: None }
    }

    #[test]
    fn measured_statistics_exclude_the_warmup() {
        let cfg = SystemConfig::small_test();
        let r = run_workload(&spec::profile("mcf"), &cfg, &tiny_opts());
        let s = r.oram;
        assert_eq!(s.misses_consumed, 300);
        assert_eq!(s.oram.real_requests, s.data_requests + s.onchip_served);
        assert_eq!(s.oram.dummy_requests, s.dummy_requests);
    }

    #[test]
    fn scale_preserves_relative_sizes() {
        let cfg = SystemConfig::small_test();
        let mcf = scale_profile(&spec::profile("mcf"), &cfg, 0.3);
        let namd = scale_profile(&spec::profile("namd"), &cfg, 0.3);
        assert!(mcf.working_set_blocks > namd.working_set_blocks);
        let slots = oram_protocol::TreeShape::new(cfg.oram.levels, cfg.oram.z).slot_count();
        assert!(mcf.working_set_blocks as f64 <= 0.31 * slots as f64);
    }

    #[test]
    fn miss_stream_has_requested_length() {
        // libquantum streams through its whole (scaled) working set, which
        // exceeds the small LLC, so misses are plentiful.
        let cfg = SystemConfig::small_test();
        let p = scale_profile(&spec::profile("mcf"), &cfg, 0.3);
        let recs = build_miss_stream(&p, cfg.hierarchy, &tiny_opts());
        assert_eq!(recs.len(), 400);
    }

    #[test]
    fn llc_resident_workload_yields_short_stream_not_hang() {
        // A workload whose scaled working set fits in the LLC produces few
        // or no misses; the bounded reference budget must terminate it.
        let cfg = SystemConfig::small_test();
        let p = scale_profile(&spec::profile("namd"), &cfg, 0.3);
        let recs = build_miss_stream(&p, cfg.hierarchy, &tiny_opts());
        assert!(recs.len() <= 400);
    }

    #[test]
    fn run_workload_end_to_end() {
        let cfg = SystemConfig::small_test();
        let r = run_workload(&spec::profile("mcf"), &cfg, &tiny_opts());
        assert!(r.oram.total_cycles > 0);
        assert!(r.insecure.total_cycles > 0);
        assert!(r.slowdown() > 1.0, "ORAM must be slower than insecure");
        assert_eq!(r.oram.misses_consumed, 300);
    }

    #[test]
    fn o3_frontend_increases_memory_intensity() {
        let cfg = SystemConfig::small_test();
        let base = run_workload(&spec::profile("mcf"), &cfg, &tiny_opts());
        let o3 =
            run_workload(&spec::profile("mcf"), &cfg, &tiny_opts().with_o3(O3Config::paper_o3()));
        // O3 shrinks gaps → lower DRI fraction.
        assert!(o3.oram.dri_fraction() < base.oram.dri_fraction());
    }
}
