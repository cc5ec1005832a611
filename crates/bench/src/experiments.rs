//! One function per table/figure of the paper's evaluation section.
//!
//! Every experiment returns a [`Table`] whose rows/columns mirror what the
//! paper plots, so `repro <figure>` regenerates the corresponding data
//! series. Absolute values differ from the paper (scaled tree, synthetic
//! workloads); EXPERIMENTS.md records the shape comparison.
//!
//! ## Parallel sweeps
//!
//! Each figure decomposes into independent *cells* — one (workload,
//! configuration) simulation apiece. A [`Cell`] carries everything a run
//! needs and seeds all randomness from its own options, so cells execute
//! on the [`parallel_map`] worker pool in any order and the assembled
//! table is bit-identical to a sequential run (`threads = 1`). Figures
//! that used to recompute a cell (e.g. the detail workloads of Fig. 9,
//! or the shared Tiny baseline of the ablation) now run it once and reuse
//! the result.

use std::collections::HashMap;

use oram_cpu::O3Config;
use oram_protocol::DupPolicy;
use oram_sim::{
    build_miss_stream, default_threads, gmean, parallel_map, parallel_map_notify, run_oram,
    run_workload, scale_profile, Engine, RunOptions, RunResult, SimStats, SystemConfig,
};
use oram_workloads::spec;

use crate::progress::Heartbeat;
use crate::table::Table;

/// Shared experiment options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpOptions {
    /// Measured LLC misses per run.
    pub misses: u64,
    /// Warmup misses per run.
    pub warmup: u64,
    /// Tree depth `L` for the scaled system.
    pub levels: u32,
    /// Trace seed.
    pub seed: u64,
    /// Worker threads for the experiment sweep (1 = sequential; results
    /// are identical either way).
    pub threads: usize,
    /// Emit progress heartbeats to stderr while a sweep runs. Off by
    /// default; the CLI turns it on for interactive terminals.
    pub progress: bool,
}

impl ExpOptions {
    /// Quick defaults: every figure regenerates in seconds.
    pub fn quick() -> Self {
        ExpOptions {
            misses: 3000,
            warmup: 800,
            levels: 14,
            seed: 7,
            threads: default_threads(),
            progress: false,
        }
    }

    /// Full-fidelity runs (tens of seconds per figure).
    pub fn full() -> Self {
        ExpOptions { misses: 10_000, warmup: 2_500, levels: 16, ..ExpOptions::quick() }
    }

    /// Builder-style: sets the sweep worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style: enables or disables progress heartbeats.
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    fn run_options(&self) -> RunOptions {
        RunOptions {
            misses: self.misses,
            warmup_misses: self.warmup,
            seed: self.seed,
            fill_target: 0.35,
            o3: None,
        }
    }

    fn base_config(&self) -> SystemConfig {
        let mut cfg = SystemConfig::scaled_default();
        cfg.oram.levels = self.levels;
        cfg
    }
}

/// The timing-protection slot period the paper uses (Sec. VI-C).
pub const TIMING_RATE: u64 = 800;

/// The ten workloads in figure order.
pub fn workload_names() -> &'static [&'static str] {
    &spec::WORKLOAD_NAMES
}

/// One independent experiment cell: everything one simulation run needs.
/// Cells are `Copy`, self-seeding and order-independent — the unit of
/// work handed to the job pool.
#[derive(Debug, Clone, Copy)]
struct Cell {
    opts: ExpOptions,
    wl: &'static str,
    policy: DupPolicy,
    timing: bool,
    treetop: u32,
    xor: bool,
    o3: bool,
    recirculate: bool,
    chains: bool,
}

impl Cell {
    fn new(opts: &ExpOptions, wl: &'static str, policy: DupPolicy, timing: bool) -> Self {
        Cell {
            opts: *opts,
            wl,
            policy,
            timing,
            treetop: 0,
            xor: false,
            o3: false,
            recirculate: true,
            chains: true,
        }
    }

    fn treetop(mut self, levels: u32) -> Self {
        self.treetop = levels;
        self
    }

    fn xor(mut self) -> Self {
        self.xor = true;
        self
    }

    fn o3(mut self) -> Self {
        self.o3 = true;
        self
    }

    fn toggles(mut self, recirculate: bool, chains: bool) -> Self {
        self.recirculate = recirculate;
        self.chains = chains;
        self
    }

    /// The cell's configuration and run options.
    fn setup(&self) -> (SystemConfig, RunOptions) {
        let mut cfg = self.opts.base_config();
        cfg.oram.dup_policy = self.policy;
        cfg.oram.treetop_levels = self.treetop;
        cfg.oram.recirculate_stash_shadows = self.recirculate;
        cfg.oram.chain_duplication = self.chains;
        if self.timing {
            cfg.timing_protection = Some(TIMING_RATE);
        }
        if self.xor {
            cfg.xor_compression = true;
        }
        let mut ro = self.opts.run_options();
        if self.o3 {
            ro = ro.with_o3(O3Config::paper_o3());
        }
        (cfg, ro)
    }

    /// The ORAM system's measured statistics: what every figure reads.
    fn run(&self) -> SimStats {
        let (cfg, ro) = self.setup();
        run_oram(&spec::profile(self.wl), &cfg, &ro)
    }

    /// [`Cell::run`] plus the insecure baseline on the same misses, for
    /// the figures normalized to it (Figs. 11, 12 and 15).
    fn run_vs_insecure(&self) -> RunResult {
        let (cfg, ro) = self.setup();
        run_workload(&spec::profile(self.wl), &cfg, &ro)
    }
}

/// Runs `run` on every cell on the sweep worker pool; results come back
/// in cell order, so index arithmetic below is the same as for a
/// sequential loop. With `opts.progress` set, completions drive a
/// rate-limited heartbeat on stderr (the results are unaffected either
/// way).
fn run_cells<T: Send>(
    opts: &ExpOptions,
    cells: &[Cell],
    run: impl Fn(&Cell) -> T + Sync,
) -> Vec<T> {
    let hb = Heartbeat::new("sweep", opts.progress);
    parallel_map_notify(opts.threads, cells, run, |done, total| hb.tick(done, total))
}

/// Table I: prints the modeled configuration (paper values and the scaled
/// values actually used).
pub fn table1(opts: &ExpOptions) -> Table {
    let paper = oram_protocol::OramConfig::paper_table1();
    let scaled = opts.base_config();
    let mut t = Table::new(
        "Table I: processor and memory configuration (paper vs scaled run)",
        &["paper", "scaled"],
    );
    t.push("tree levels L", vec![f64::from(paper.levels), f64::from(scaled.oram.levels)]);
    t.push("bucket slots Z", vec![paper.z as f64, scaled.oram.z as f64]);
    t.push(
        "eviction rate A",
        vec![f64::from(paper.eviction_rate), f64::from(scaled.oram.eviction_rate)],
    );
    t.push("stash blocks M", vec![paper.stash_capacity as f64, scaled.oram.stash_capacity as f64]);
    t.push("AES latency (cyc)", vec![32.0, f64::from(scaled.aes_latency_cycles)]);
    t.push("CPU GHz", vec![2.0, scaled.cpu_freq_ghz]);
    t.push("DRAM channels", vec![2.0, scaled.dram.channels as f64]);
    t.push("peak GB/s", vec![21.3, scaled.dram.peak_bandwidth_gbps()]);
    t.push("L2 KB", vec![1024.0, scaled.hierarchy.l2_bytes as f64 / 1024.0]);
    t
}

/// Fig. 6a: sampled LLC miss intervals for hmmer showing phase swings.
pub fn fig6a(opts: &ExpOptions) -> Table {
    let cfg = opts.base_config();
    let profile = scale_profile(&spec::profile("hmmer"), &cfg, 0.35);
    let recs = build_miss_stream(&profile, cfg.hierarchy, &opts.run_options());
    let mut t =
        Table::new("Fig 6a: hmmer LLC miss intervals (cycles) vs miss index", &["interval"]);
    for (i, r) in recs.iter().enumerate().take(500) {
        t.push(format!("{i}"), vec![r.gap_cycles as f64]);
    }
    t
}

/// Fig. 6b: cumulative execution time vs miss index for RD-Dup, HD-Dup and
/// dynamic partitioning on hmmer.
pub fn fig6b(opts: &ExpOptions) -> Table {
    let chunk = (opts.misses / 20).max(1);
    let mut t = Table::new(
        "Fig 6b: hmmer cumulative execution time (cycles) vs misses",
        &["RD-Dup", "HD-Dup", "Dynamic"],
    );
    let policies = [DupPolicy::RdOnly, DupPolicy::HdOnly, DupPolicy::Dynamic { counter_bits: 3 }];
    let cfg0 = opts.base_config();
    let profile = scale_profile(&spec::profile("hmmer"), &cfg0, 0.35);
    let recs = build_miss_stream(&profile, cfg0.hierarchy, &opts.run_options());
    // Each policy's chunked engine walk is stateful internally but
    // independent of the other policies — one worker per curve.
    let curves: Vec<Vec<f64>> = parallel_map(opts.threads, &policies, |policy| {
        let mut cfg = opts.base_config();
        cfg.oram.dup_policy = *policy;
        let mut engine = Engine::new(cfg).expect("valid config");
        engine.prefill_working_set(profile.working_set_blocks);
        let mut curve = Vec::new();
        for chunk_recs in recs.chunks(chunk as usize) {
            let s = engine.run(&mut chunk_recs.iter().copied());
            curve.push(s.total_cycles as f64);
        }
        curve
    });
    let points = curves.iter().map(Vec::len).min().unwrap_or(0);
    for i in 0..points {
        t.push(format!("{}", (i as u64 + 1) * chunk), curves.iter().map(|c| c[i]).collect());
    }
    t
}

/// Figs. 8 / 13: normalized data-access time and DRI for HD-Dup, RD-Dup
/// and the Tiny baseline, per workload (Fig. 8 without timing protection,
/// Fig. 13 with).
pub fn fig8_13(opts: &ExpOptions, timing: bool) -> Table {
    let id = if timing { "Fig 13 (timing prot.)" } else { "Fig 8" };
    let mut t = Table::new(
        format!("{id}: time normalized to Tiny total = data + interval"),
        &["HD-data", "HD-intv", "RD-data", "RD-intv", "Tiny-data", "Tiny-intv"],
    );
    let wls = workload_names();
    let cells: Vec<Cell> = wls
        .iter()
        .flat_map(|wl| {
            [
                Cell::new(opts, wl, DupPolicy::Off, timing),
                Cell::new(opts, wl, DupPolicy::RdOnly, timing),
                Cell::new(opts, wl, DupPolicy::HdOnly, timing),
            ]
        })
        .collect();
    let res = run_cells(opts, &cells, Cell::run);
    for (i, wl) in wls.iter().enumerate() {
        let (tiny, rd, hd) = (&res[3 * i], &res[3 * i + 1], &res[3 * i + 2]);
        let base = tiny.total_cycles as f64;
        t.push(
            *wl,
            vec![
                hd.data_cycles as f64 / base,
                hd.dri_cycles as f64 / base,
                rd.data_cycles as f64 / base,
                rd.dri_cycles as f64 / base,
                tiny.data_cycles as f64 / base,
                tiny.dri_cycles as f64 / base,
            ],
        );
    }
    t
}

/// Figs. 9 / 14: static-partitioning sweep of the partition level.
pub fn fig9_14(opts: &ExpOptions, timing: bool) -> Table {
    let id = if timing { "Fig 14 (timing prot.)" } else { "Fig 9" };
    let mut t = Table::new(
        format!("{id}: normalized time vs static partitioning level"),
        &[
            "sjeng-intv",
            "sjeng-data",
            "sjeng-tot",
            "h264-intv",
            "h264-data",
            "h264-tot",
            "namd-intv",
            "namd-data",
            "namd-tot",
            "gmean-tot",
        ],
    );
    let detail = ["sjeng", "h264ref", "namd"];
    let step = (opts.levels / 7).max(1);
    let plevels: Vec<u32> = (0..=opts.levels).step_by(step as usize).collect();
    let wls = workload_names();
    // One flat cell list: per-workload Tiny baselines first, then one
    // full workload sweep per partition level. The detail columns reuse
    // the sweep results instead of re-running their cells.
    let mut cells: Vec<Cell> =
        wls.iter().map(|wl| Cell::new(opts, wl, DupPolicy::Off, timing)).collect();
    for &p in &plevels {
        let policy = DupPolicy::Static { partition_level: p };
        cells.extend(wls.iter().map(|wl| Cell::new(opts, wl, policy, timing)));
    }
    let res = run_cells(opts, &cells, Cell::run);
    let base: HashMap<&str, f64> =
        wls.iter().zip(&res).map(|(wl, r)| (*wl, r.total_cycles as f64)).collect();
    for (pi, &p) in plevels.iter().enumerate() {
        let sweep = &res[wls.len() * (pi + 1)..wls.len() * (pi + 2)];
        let mut row = Vec::new();
        for name in detail {
            let ix = wls.iter().position(|w| *w == name).expect("detail workload exists");
            let r = &sweep[ix];
            let b = base[name];
            row.push(r.dri_cycles as f64 / b);
            row.push(r.data_cycles as f64 / b);
            row.push(r.total_cycles as f64 / b);
        }
        let totals: Vec<f64> =
            wls.iter().zip(sweep).map(|(wl, r)| r.total_cycles as f64 / base[wl]).collect();
        row.push(gmean(&totals));
        t.push(format!("P={p}"), row);
    }
    t
}

/// Fig. 10: dynamic partitioning DRI-counter width sweep.
pub fn fig10(opts: &ExpOptions, timing: bool) -> Table {
    let mut t = Table::new(
        "Fig 10: normalized time vs DRI counter width (dynamic partitioning)",
        &["sjeng", "h264ref", "namd", "gmean"],
    );
    let wls = workload_names();
    let widths: Vec<u32> = (1..=8).collect();
    let mut cells: Vec<Cell> =
        wls.iter().map(|wl| Cell::new(opts, wl, DupPolicy::Off, timing)).collect();
    for &bits in &widths {
        let policy = DupPolicy::Dynamic { counter_bits: bits };
        cells.extend(wls.iter().map(|wl| Cell::new(opts, wl, policy, timing)));
    }
    let res = run_cells(opts, &cells, Cell::run);
    let base: HashMap<&str, f64> =
        wls.iter().zip(&res).map(|(wl, r)| (*wl, r.total_cycles as f64)).collect();
    for (bi, &bits) in widths.iter().enumerate() {
        let sweep = &res[wls.len() * (bi + 1)..wls.len() * (bi + 2)];
        let norm = |name: &str| {
            let ix = wls.iter().position(|w| *w == name).expect("workload exists");
            sweep[ix].total_cycles as f64 / base[name]
        };
        let all: Vec<f64> =
            wls.iter().zip(sweep).map(|(wl, r)| r.total_cycles as f64 / base[wl]).collect();
        t.push(
            format!("{bits}-bit"),
            vec![norm("sjeng"), norm("h264ref"), norm("namd"), gmean(&all)],
        );
    }
    t
}

/// Figs. 11 / 15: slowdown over the insecure system for Tiny, the best
/// static partitioning and dynamic-3 (Fig. 11 without timing protection
/// with static-7; Fig. 15 with protection and static-4).
pub fn fig11_15(opts: &ExpOptions, timing: bool) -> Table {
    let (id, static_level) = if timing { ("Fig 15 (timing prot.)", 4) } else { ("Fig 11", 7) };
    let mut t = Table::new(
        format!("{id}: slowdown vs insecure system"),
        &["Tiny", &format!("static-{static_level}"), "dynamic-3", "insecure"],
    );
    let wls = workload_names();
    let cells: Vec<Cell> = wls
        .iter()
        .flat_map(|wl| {
            [
                Cell::new(opts, wl, DupPolicy::Off, timing),
                Cell::new(opts, wl, DupPolicy::Static { partition_level: static_level }, timing),
                Cell::new(opts, wl, DupPolicy::Dynamic { counter_bits: 3 }, timing),
            ]
        })
        .collect();
    let res = run_cells(opts, &cells, Cell::run_vs_insecure);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); 3];
    for (i, wl) in wls.iter().enumerate() {
        let (tiny, st, dy) = (&res[3 * i], &res[3 * i + 1], &res[3 * i + 2]);
        let row = vec![tiny.slowdown(), st.slowdown(), dy.slowdown(), 1.0];
        for (c, v) in cols.iter_mut().zip(&row) {
            c.push(*v);
        }
        t.push(*wl, row);
    }
    t.push("gmean", vec![gmean(&cols[0]), gmean(&cols[1]), gmean(&cols[2]), 1.0]);
    t
}

/// Fig. 12: memory-system energy normalized to the insecure system.
pub fn fig12(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig 12: energy normalized to insecure system",
        &["Tiny", "static-7", "dynamic-3"],
    );
    let wls = workload_names();
    let cells: Vec<Cell> = wls
        .iter()
        .flat_map(|wl| {
            [
                Cell::new(opts, wl, DupPolicy::Off, false),
                Cell::new(opts, wl, DupPolicy::Static { partition_level: 7 }, false),
                Cell::new(opts, wl, DupPolicy::Dynamic { counter_bits: 3 }, false),
            ]
        })
        .collect();
    let res = run_cells(opts, &cells, Cell::run_vs_insecure);
    for (i, wl) in wls.iter().enumerate() {
        let (tiny, st, dy) = (&res[3 * i], &res[3 * i + 1], &res[3 * i + 2]);
        t.push(*wl, vec![tiny.energy_norm(), st.energy_norm(), dy.energy_norm()]);
    }
    t
}

/// Fig. 16: on-chip (stash + treetop) hit rate with treetop-3/treetop-7,
/// with and without shadow blocks (timing protection on, like the paper).
pub fn fig16(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig 16: on-chip hit rate (stash + treetop)",
        &["Treetop-3", "SB+Treetop-3", "Treetop-7", "SB+Treetop-7"],
    );
    let wls = workload_names();
    let dyn3 = DupPolicy::Dynamic { counter_bits: 3 };
    let cells: Vec<Cell> = wls
        .iter()
        .flat_map(|wl| {
            [
                Cell::new(opts, wl, DupPolicy::Off, true).treetop(3),
                Cell::new(opts, wl, dyn3, true).treetop(3),
                Cell::new(opts, wl, DupPolicy::Off, true).treetop(7),
                Cell::new(opts, wl, dyn3, true).treetop(7),
            ]
        })
        .collect();
    let res = run_cells(opts, &cells, Cell::run);
    for (i, wl) in wls.iter().enumerate() {
        t.push(*wl, (0..4).map(|k| res[4 * i + k].oram.on_chip_hit_rate()).collect());
    }
    t
}

/// Fig. 17: speedup over Tiny ORAM for XOR compression, Shadow Block, and
/// Shadow Block combined with treetop caching.
pub fn fig17(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Fig 17: speedup over Tiny ORAM",
        &["XOR", "ShadowBlock", "SB+Treetop-3", "SB+Treetop-7"],
    );
    let wls = workload_names();
    let dyn3 = DupPolicy::Dynamic { counter_bits: 3 };
    let cells: Vec<Cell> = wls
        .iter()
        .flat_map(|wl| {
            [
                Cell::new(opts, wl, DupPolicy::Off, true),
                Cell::new(opts, wl, DupPolicy::Off, true).xor(),
                Cell::new(opts, wl, dyn3, true),
                Cell::new(opts, wl, dyn3, true).treetop(3),
                Cell::new(opts, wl, dyn3, true).treetop(7),
            ]
        })
        .collect();
    let res = run_cells(opts, &cells, Cell::run);
    for (i, wl) in wls.iter().enumerate() {
        let base = res[5 * i].total_cycles as f64;
        t.push(*wl, (1..5).map(|k| base / res[5 * i + k].total_cycles as f64).collect());
    }
    t
}

/// Fig. 18: speedup of dynamic-3 over Tiny for the in-order core and the
/// quad-core out-of-order front-end.
pub fn fig18(opts: &ExpOptions) -> Table {
    let mut t =
        Table::new("Fig 18: speedup over Tiny ORAM by CPU type", &["Out-of-Order", "In-order"]);
    let wls = workload_names();
    let dyn3 = DupPolicy::Dynamic { counter_bits: 3 };
    let cells: Vec<Cell> = wls
        .iter()
        .flat_map(|wl| {
            [
                Cell::new(opts, wl, DupPolicy::Off, true),
                Cell::new(opts, wl, dyn3, true),
                Cell::new(opts, wl, DupPolicy::Off, true).o3(),
                Cell::new(opts, wl, dyn3, true).o3(),
            ]
        })
        .collect();
    let res = run_cells(opts, &cells, Cell::run);
    for (i, wl) in wls.iter().enumerate() {
        let (tiny_io, dyn_io, tiny_o3, dyn_o3) =
            (&res[4 * i], &res[4 * i + 1], &res[4 * i + 2], &res[4 * i + 3]);
        t.push(
            *wl,
            vec![
                tiny_o3.total_cycles as f64 / dyn_o3.total_cycles as f64,
                tiny_io.total_cycles as f64 / dyn_io.total_cycles as f64,
            ],
        );
    }
    t
}

/// Fig. 19: gmean speedup of dynamic-3 over Tiny for different ORAM tree
/// sizes (scaled stand-ins for the paper's 1–16 GB sweep).
pub fn fig19(opts: &ExpOptions) -> Table {
    let mut t =
        Table::new("Fig 19: gmean speedup over Tiny vs ORAM size (tree depth)", &["speedup"]);
    let dyn3 = DupPolicy::Dynamic { counter_bits: 3 };
    let sizes =
        [("1GB~L-2", -2i32), ("2GB~L-1", -1), ("4GB~L", 0), ("8GB~L+1", 1), ("16GB~L+2", 2)];
    let wls = workload_names();
    let mut cells = Vec::new();
    let mut depths = Vec::new();
    for (_, delta) in sizes {
        let l = (opts.levels as i32 + delta).clamp(12, 22) as u32;
        depths.push(l);
        let mut sub = *opts;
        sub.levels = l;
        for wl in wls {
            cells.push(Cell::new(&sub, wl, DupPolicy::Off, true));
            cells.push(Cell::new(&sub, wl, dyn3, true));
        }
    }
    let res = run_cells(opts, &cells, Cell::run);
    for (si, (label, _)) in sizes.iter().enumerate() {
        let chunk = &res[2 * wls.len() * si..2 * wls.len() * (si + 1)];
        let mut speedups = Vec::new();
        for i in 0..wls.len() {
            let (tiny, dy) = (&chunk[2 * i], &chunk[2 * i + 1]);
            // Workloads whose scaled working set collapses into the LLC
            // produce empty runs at the smallest trees; skip them rather
            // than poison the gmean.
            if tiny.total_cycles > 0 && dy.total_cycles > 0 {
                speedups.push(tiny.total_cycles as f64 / dy.total_cycles as f64);
            }
        }
        t.push(format!("{label} (L={})", depths[si]), vec![gmean(&speedups)]);
    }
    t
}

/// Ablation study of the design choices DESIGN.md calls out: shadow
/// recirculation through the stash, and chain duplication (Fig. 4's
/// level-lowering rule). Reports gmean speedup over Tiny for dynamic-3
/// with each mechanism toggled.
pub fn ablation(opts: &ExpOptions) -> Table {
    let mut t = Table::new(
        "Ablation: gmean speedup over Tiny (dynamic-3, timing protection)",
        &["speedup", "adv/1k-req", "onchip-rate"],
    );
    let variants: [(&str, bool, bool); 4] = [
        ("full design", true, true),
        ("no recirculation", false, true),
        ("no chains", true, false),
        ("neither", false, false),
    ];
    let wls = workload_names();
    // The Tiny baseline is shared by all four variants: run it once.
    let mut cells: Vec<Cell> =
        wls.iter().map(|wl| Cell::new(opts, wl, DupPolicy::Off, true)).collect();
    for &(_, recirc, chain) in &variants {
        cells.extend(wls.iter().map(|wl| {
            Cell::new(opts, wl, DupPolicy::Dynamic { counter_bits: 3 }, true).toggles(recirc, chain)
        }));
    }
    let res = run_cells(opts, &cells, Cell::run);
    let base = &res[..wls.len()];
    for (vi, (label, _, _)) in variants.iter().enumerate() {
        let sweep = &res[wls.len() * (vi + 1)..wls.len() * (vi + 2)];
        let mut speedups = Vec::new();
        let mut adv = 0.0;
        let mut hits = 0.0;
        for (tiny, r) in base.iter().zip(sweep) {
            speedups.push(tiny.total_cycles as f64 / r.total_cycles as f64);
            adv += r.oram.shadow_advanced as f64 / (r.oram.real_requests.max(1) as f64 / 1000.0);
            hits += r.oram.on_chip_hit_rate();
        }
        let n = wls.len() as f64;
        t.push(*label, vec![gmean(&speedups), adv / n, hits / n]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExpOptions {
        ExpOptions { misses: 250, warmup: 60, levels: 10, seed: 3, threads: 2, progress: false }
    }

    #[test]
    fn table1_lists_parameters() {
        let t = table1(&tiny_opts());
        assert!(t.rows.len() >= 8);
        assert!(t.render().contains("tree levels"));
    }

    #[test]
    fn fig6a_produces_series() {
        let t = fig6a(&tiny_opts());
        assert!(!t.rows.is_empty());
        assert!(t.rows.iter().all(|(_, v)| v[0] >= 0.0));
    }

    #[test]
    fn fig8_rows_partition_to_one_for_tiny() {
        let mut o = tiny_opts();
        o.misses = 150;
        let t = fig8_13(&o, false);
        assert_eq!(t.rows.len(), 10);
        for (wl, v) in &t.rows {
            let tiny_total = v[4] + v[5];
            assert!((tiny_total - 1.0).abs() < 1e-9, "{wl}: {tiny_total}");
        }
    }

    #[test]
    fn fig19_levels_are_clamped() {
        let mut o = tiny_opts();
        o.misses = 100;
        o.warmup = 20;
        let t = fig19(&o);
        assert_eq!(t.rows.len(), 5);
        assert!(t.rows.iter().all(|(_, v)| v[0] > 0.0));
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_sequential() {
        let mut o = tiny_opts();
        o.misses = 150;
        o.warmup = 40;
        let seq = fig8_13(&o.with_threads(1), false);
        let par = fig8_13(&o.with_threads(4), false);
        assert_eq!(seq, par, "parallel sweep must reproduce the sequential table exactly");
    }
}
