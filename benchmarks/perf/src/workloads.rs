//! The six workloads: what each one calls, at what size, how its system
//! is set up, and how its outputs are checked and turned into the
//! simulated-time metrics.
//!
//! Every workload calls the public entry point the `repro` CLI calls
//! (`experiments::fig17`, `run_serve`, `run_soak`) with options made from
//! a seed; the program under test never sees the seed's provenance or
//! the workload's name.

use std::hint::black_box;
use std::sync::{Arc, Mutex};

use oram_bench::{
    experiments, run_serve, run_soak, BackendKind, ExpOptions, PosmapKind, ServeOptions,
    SoakOptions,
};
use oram_protocol::{DupPolicy, PosMapSelect};
use oram_service::SchedPolicy;
use oram_sim::{
    build_miss_stream, gmean, run_workload_traced, scale_profile, Engine, RunOptions, ShardedOram,
    SystemConfig,
};
use oram_util::{AccessSpan, MetricId, TelemetrySink, WindowSample};
use oram_workloads::spec;

/// Which of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig17Sweep,
    ServeFlat,
    ServeOverload,
    ServeRecursive,
    ServeSharded,
    SoakTenants,
}

/// A workload's name and the reason it is in the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub why: &'static str,
}

/// All workloads, in the round-robin order `perf run` interleaves them.
pub const ALL: [Workload; 6] = [
    Workload {
        kind: Kind::Fig17Sweep,
        name: "fig17_sweep",
        why: "paper Fig. 17 sweep, closed loop: the only workload where trace generation, L1/L2 filtering and the shadow-block policies do the work",
    },
    Workload {
        kind: Kind::ServeFlat,
        name: "serve_flat",
        why: "reference service path, open loop at 0.73x the knee: front-end + engine + bus recorder + telemetry + audit; control for the three variants",
    },
    Workload {
        kind: Kind::ServeOverload,
        name: "serve_overload",
        why: "same layers at 1.5x the knee: admission, queueing and coalescing dominate and a third of requests never reach the engine",
    },
    Workload {
        kind: Kind::ServeRecursive,
        name: "serve_recursive",
        why: "recursive position map (3-level chain + PLB) on every access at L=18: set-up and memory are large; serve_flat must not move with it",
    },
    Workload {
        kind: Kind::ServeSharded,
        name: "serve_sharded",
        why: "the second service driver (4 shards, pipelined engines, batch dispatch) that a later refactor folds into the single-engine path",
    },
    Workload {
        kind: Kind::SoakTenants,
        name: "soak_tenants",
        why: "phase-chained multi-tenant soak: live plane + flight recorder on the record path, no unbounded recorder; moves alone when obsv changes",
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

/// Sub-seeds per run. A run with seed `s` repeats its workload over the
/// same `SUB_SEEDS` derived seeds in rotation: simulated metrics are the
/// mean over them (fixed by `s`, whatever the host speed), which keeps
/// seed-to-seed variation of the queueing tail from swamping the bounds.
pub const SUB_SEEDS: usize = 8;

/// The `i`-th derived seed of run seed `seed` (SplitMix64 finalizer, kept
/// to 48 bits so it survives a JSON number).
pub fn sub_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(SUB_SEEDS as u64)
        .wrapping_add((i % SUB_SEEDS) as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 0xFFFF_FFFF_FFFF
}

/// The prefill cap `run_serve` applies (its private `PREFILL_CAP`).
pub const SERVE_PREFILL_CAP: u64 = 8192;

/// The ten profiles of the figure sweep, in figure order.
pub const FIG17_PROFILES: &[&str] = &spec::WORKLOAD_NAMES;

impl Kind {
    /// `fig17` options at size divisor `div` (1 = the benchmark's size).
    pub fn exp_options(self, seed: u64, div: u64) -> ExpOptions {
        ExpOptions {
            misses: (900 / div).max(20),
            warmup: (240 / div).max(5),
            levels: 14,
            seed,
            threads: 1,
            progress: false,
        }
    }

    /// `run_serve` options at size divisor `div`; `None` for the two
    /// workloads that are not `run_serve` calls.
    pub fn serve_options(self, seed: u64, div: u64) -> Option<ServeOptions> {
        let base = ServeOptions {
            clients: 4,
            requests: 6_000 / div,
            load: 8.0,
            scheduler: Some(SchedPolicy::Fcfs),
            levels: 14,
            domain: 1024,
            seed,
            shards: 1,
            threads: 1,
            backend: BackendKind::Dram,
            posmap: PosmapKind::Flat,
            ..ServeOptions::full()
        };
        match self {
            Kind::ServeFlat => Some(base),
            Kind::ServeOverload => {
                Some(ServeOptions { requests: 12_000 / div, load: 16.0, ..base })
            }
            Kind::ServeRecursive => Some(ServeOptions {
                levels: 18,
                domain: 1 << 18,
                posmap: PosmapKind::Recursive,
                posmap_onchip_kb: 1,
                requests: 3_000 / div,
                load: 2.0,
                ..base
            }),
            Kind::ServeSharded => Some(ServeOptions {
                shards: 4,
                domain: 4096,
                requests: 7_500 / div,
                load: 16.0,
                ..base
            }),
            Kind::Fig17Sweep | Kind::SoakTenants => None,
        }
    }

    /// The serve options the service-side layer probes of the traced run
    /// use: the workload's own, or `serve_flat`'s for the two workloads
    /// that are not `run_serve` calls.
    pub fn serve_options_or_reference(self, seed: u64, div: u64) -> ServeOptions {
        self.serve_options(seed, div)
            .or_else(|| Kind::ServeFlat.serve_options(seed, div))
            .expect("serve_flat has serve options")
    }

    /// `run_soak` options at size divisor `div`.
    pub fn soak_options(self, seed: u64, div: u64) -> SoakOptions {
        SoakOptions { requests_total: 48_000 / div, seed, ..SoakOptions::full() }
    }

    /// The system configuration the workload's entry point builds
    /// (`serve_system` / `run_segment_kind` / `Cell::run`, replicated
    /// from their public parts).
    pub fn system(self, seed: u64, div: u64) -> SystemConfig {
        let mut sys = SystemConfig::scaled_default();
        match self {
            Kind::Fig17Sweep => {
                sys.oram.levels = self.exp_options(seed, div).levels;
                sys.oram.dup_policy = DupPolicy::Dynamic { counter_bits: 3 };
                sys.timing_protection = Some(experiments::TIMING_RATE);
            }
            Kind::SoakTenants => sys.oram.levels = self.soak_options(seed, div).levels,
            _ => {
                let o = self.serve_options(seed, div).expect("serve workload");
                sys = serve_system(&o);
                sys.pipeline = o.shards > 1;
            }
        }
        sys
    }

    /// Operations one repetition attempts, for a size divisor.
    pub fn ops(self, div: u64) -> u64 {
        match self {
            Kind::Fig17Sweep => {
                let o = self.exp_options(0, div);
                o.misses * 5 * FIG17_PROFILES.len() as u64
            }
            Kind::SoakTenants => {
                let o = self.soak_options(0, div);
                let per = o.requests_total / (o.tenants as u64 * o.phases as u64);
                per * o.tenants as u64 * o.phases as u64
            }
            _ => {
                let o = self.serve_options(0, div).expect("serve workload");
                o.requests * o.clients as u64
            }
        }
    }
}

/// The system `run_serve` builds for these options (its private
/// `serve_system`): depth, position map and PLB override.
pub fn serve_system(o: &ServeOptions) -> SystemConfig {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = o.levels;
    if o.posmap == PosmapKind::Recursive {
        sys.oram.posmap = PosMapSelect::Recursive { onchip_kb: o.posmap_onchip_kb };
    }
    if let Some(entries) = o.plb_entries {
        sys.oram.plb_entries = entries;
    }
    sys
}

/// Builds the workload's system through public constructors, the way
/// its entry point will, and returns it boxed (so the caller decides
/// when the drop happens — outside the timed interval).
pub fn setup(kind: Kind, seed: u64, div: u64) -> Box<dyn std::any::Any> {
    let sys = kind.system(seed, div);
    match kind {
        Kind::Fig17Sweep => {
            let opts = kind.exp_options(seed, div);
            let ro = RunOptions {
                misses: opts.misses,
                warmup_misses: opts.warmup,
                seed,
                fill_target: 0.35,
                o3: None,
            };
            let built: Vec<_> = FIG17_PROFILES
                .iter()
                .map(|name| {
                    let profile = scale_profile(&spec::profile(name), &sys, ro.fill_target);
                    let stream = build_miss_stream(&profile, sys.hierarchy, &ro);
                    let mut engine = Engine::new(sys.clone()).expect("valid config");
                    engine.prefill_working_set(profile.working_set_blocks);
                    (stream, engine)
                })
                .collect();
            Box::new(built)
        }
        Kind::ServeSharded => {
            let o = kind.serve_options(seed, div).expect("serve workload");
            let mut backend = ShardedOram::new(sys, o.shards, o.threads).expect("valid config");
            backend.prefill_working_set(o.domain.min(SERVE_PREFILL_CAP));
            Box::new(backend)
        }
        Kind::SoakTenants => {
            let mut engine = Engine::new(sys).expect("valid config");
            engine.prefill_working_set(kind.soak_options(seed, div).domain);
            Box::new(engine)
        }
        Kind::ServeFlat | Kind::ServeOverload | Kind::ServeRecursive => {
            let o = kind.serve_options(seed, div).expect("serve workload");
            let mut engine = Engine::new(sys).expect("valid config");
            engine.prefill_working_set(o.domain.min(SERVE_PREFILL_CAP));
            Box::new(engine)
        }
    }
}

/// The simulated-time metrics of one repetition. Deterministic in the
/// options: the same seed and size must reproduce every field exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    pub cycles_per_op: f64,
    pub latency_p50: f64,
    pub latency_p99: f64,
    pub latency_p999: f64,
    /// Samples behind the latency percentiles.
    pub latency_n: u64,
    pub throughput_req_per_mcyc: f64,
    pub speedup_vs_tiny: f64,
}

/// What one entry-point call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Operations attempted (requests generated / misses simulated).
    pub attempted: u64,
    /// Operations served (attempted minus admission refusals).
    pub served: u64,
    /// `Ok` when every output check passed.
    pub check: Result<(), String>,
    /// FNV-1a digest of the checked output; equal seeds must give equal
    /// digests on every repetition.
    pub digest: u64,
    /// Absent when the entry point failed, or (fig17 only) when the
    /// caller skipped the companion pass.
    pub sim: Option<SimMetrics>,
}

impl Outcome {
    fn failed(attempted: u64, why: String) -> Outcome {
        Outcome { attempted, served: 0, check: Err(why), digest: 0, sim: None }
    }
}

pub fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *digest ^= u64::from(*b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Collects request latency (`data_ready - arrival`) of real accesses.
#[derive(Debug, Default)]
struct LatencySink {
    latencies: Vec<u64>,
}

impl TelemetrySink for LatencySink {
    fn count(&mut self, _id: MetricId, _delta: u64) {}
    fn sample(&mut self, _id: MetricId, _value: u64) {}
    fn span(&mut self, span: &AccessSpan) {
        if span.real {
            self.latencies.push(span.data_ready - span.arrival);
        }
    }
    fn window(&mut self, _w: &WindowSample) {}
}

/// Nearest-rank percentile over an ascending slice, as
/// `oram_service::percentile` defines it for the service reports.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    oram_service::percentile(sorted, q) as f64
}

/// The timed call for `fig17_sweep`: the figure itself.
pub fn call_fig17(opts: &ExpOptions) -> oram_bench::Table {
    experiments::fig17(black_box(opts))
}

/// Checks the figure and, when `companion` is set, re-runs its Tiny and
/// dynamic-3 cells through `run_workload_traced` to get what the table
/// does not carry: cycles per miss and the miss-latency distribution.
/// The companion's speedups must equal the table's ShadowBlock column
/// bit for bit, so the derived numbers are the figure's own.
pub fn check_fig17(opts: &ExpOptions, table: &oram_bench::Table, companion: bool) -> Outcome {
    let attempted = opts.misses * 5 * FIG17_PROFILES.len() as u64;
    let mut digest = FNV_OFFSET;
    if table.rows.len() != FIG17_PROFILES.len() {
        return Outcome::failed(attempted, format!("fig17 has {} rows", table.rows.len()));
    }
    for (label, values) in &table.rows {
        fnv1a(&mut digest, label.as_bytes());
        for v in values {
            if !(v.is_finite() && *v > 0.0) {
                return Outcome::failed(attempted, format!("fig17 cell {label} = {v}"));
            }
            fnv1a(&mut digest, &v.to_bits().to_le_bytes());
        }
    }
    let shadow: Vec<f64> = table.rows.iter().map(|(_, v)| v[1]).collect();
    let mut out = Outcome { attempted, served: attempted, check: Ok(()), digest, sim: None };
    if !companion {
        return out;
    }

    let ro = RunOptions {
        misses: opts.misses,
        warmup_misses: opts.warmup,
        seed: opts.seed,
        fill_target: 0.35,
        o3: None,
    };
    let mut dyn3 = Kind::Fig17Sweep.system(opts.seed, 1);
    dyn3.oram.levels = opts.levels;
    let mut tiny = dyn3.clone();
    tiny.oram.dup_policy = DupPolicy::Off;
    let sink = Arc::new(Mutex::new(LatencySink::default()));
    let (mut cycles, mut misses) = (0u64, 0u64);
    for (i, name) in FIG17_PROFILES.iter().enumerate() {
        let profile = spec::profile(name);
        let base = oram_sim::run_workload(&profile, &tiny, &ro);
        let run = run_workload_traced(&profile, &dyn3, &ro, sink.clone(), 0);
        let speedup = base.oram.total_cycles as f64 / run.oram.total_cycles as f64;
        if speedup.to_bits() != shadow[i].to_bits() {
            out.check =
                Err(format!("fig17 {name}: companion speedup {speedup} != table {}", shadow[i]));
            return out;
        }
        cycles += run.oram.total_cycles;
        misses += run.oram.misses_consumed;
    }
    let mut lat = std::mem::take(&mut sink.lock().expect("sink poisoned").latencies);
    lat.sort_unstable();
    if misses == 0 || lat.is_empty() {
        out.check = Err("fig17 companion simulated no misses".into());
        return out;
    }
    out.sim = Some(SimMetrics {
        cycles_per_op: cycles as f64 / misses as f64,
        latency_p50: percentile(&lat, 0.50),
        latency_p99: percentile(&lat, 0.99),
        latency_p999: percentile(&lat, 0.999),
        latency_n: lat.len() as u64,
        throughput_req_per_mcyc: misses as f64 * 1e6 / cycles as f64,
        speedup_vs_tiny: gmean(&shadow),
    });
    out
}

/// `run_serve` and `run_soak` build `SystemConfig::scaled_default()`,
/// whose duplication policy is `Off`: the service path *is* Tiny ORAM,
/// so its speedup over Tiny is 1 by construction. Checked, not assumed —
/// if that default ever changes, this metric needs a real baseline run.
fn service_speedup_vs_tiny() -> Result<f64, String> {
    match SystemConfig::scaled_default().oram.dup_policy {
        DupPolicy::Off => Ok(1.0),
        other => Err(format!(
            "service default policy is {other:?}, not Tiny: sim_speedup_vs_tiny needs a baseline run"
        )),
    }
}

/// The timed call for the four `serve_*` workloads.
pub fn call_serve(opts: &ServeOptions) -> Result<oram_bench::ServeArtifacts, String> {
    run_serve(black_box(opts), None)
}

/// Turns a validated serve run into its outcome (`run_serve` has
/// already enforced conservation, span attribution and the trace audit).
pub fn check_serve(
    opts: &ServeOptions,
    result: Result<oram_bench::ServeArtifacts, String>,
) -> Outcome {
    let attempted = opts.requests * opts.clients as u64;
    let art = match result {
        Ok(a) => a,
        Err(e) => return Outcome::failed(attempted, e),
    };
    let [s] = art.report.schedulers.as_slice() else {
        return Outcome::failed(attempted, "serve ran more than one scheduler".into());
    };
    let speedup = match service_speedup_vs_tiny() {
        Ok(x) => x,
        Err(e) => return Outcome::failed(attempted, e),
    };
    let mut digest = FNV_OFFSET;
    fnv1a(&mut digest, art.report.to_json().as_bytes());
    fnv1a(&mut digest, art.client_section.as_bytes());
    let mut out = Outcome { attempted, served: s.completed, check: Ok(()), digest, sim: None };
    if s.completed + s.rejected != attempted {
        out.check =
            Err(format!("completed {} + rejected {} != {attempted}", s.completed, s.rejected));
    } else if s.completed == 0 || s.total_cycles == 0 {
        out.check = Err("serve completed nothing".into());
    } else {
        out.sim = Some(SimMetrics {
            cycles_per_op: s.total_cycles as f64 / s.completed as f64,
            latency_p50: s.latency.p50 as f64,
            latency_p99: s.latency.p99 as f64,
            latency_p999: s.latency.p999 as f64,
            latency_n: s.latency.count,
            throughput_req_per_mcyc: s.throughput_rpmc,
            speedup_vs_tiny: speedup,
        });
    }
    out
}

/// The timed call for `soak_tenants`.
pub fn call_soak(opts: &SoakOptions) -> Result<oram_bench::SoakReport, String> {
    run_soak(black_box(opts), None)
}

/// Turns a validated soak run into its outcome (`run_soak` has already
/// enforced per-phase conservation, plane conservation, Eq. 1 and the
/// trend check). Latency is the worst tenant's.
pub fn check_soak(opts: &SoakOptions, result: Result<oram_bench::SoakReport, String>) -> Outcome {
    let rep = match result {
        Ok(r) => r,
        Err(e) => return Outcome::failed(opts.requests_total.max(1), e),
    };
    let speedup = match service_speedup_vs_tiny() {
        Ok(x) => x,
        Err(e) => return Outcome::failed(rep.generated, e),
    };
    let mut digest = FNV_OFFSET;
    fnv1a(&mut digest, rep.to_json().as_bytes());
    let mut out = Outcome {
        attempted: rep.generated,
        served: rep.completed,
        check: Ok(()),
        digest,
        sim: None,
    };
    if let Some(bad) = rep.checks.iter().find(|c| *c != "ok" && *c != "skipped") {
        out.check = Err(format!("soak self-check: {bad}"));
    } else if rep.completed == 0 || rep.final_cycle == 0 {
        out.check = Err("soak completed nothing".into());
    } else {
        let worst = |f: fn(&oram_bench::soak::TenantSoak) -> u64| {
            rep.tenants.iter().map(f).max().unwrap_or(0) as f64
        };
        out.sim = Some(SimMetrics {
            cycles_per_op: rep.final_cycle as f64 / rep.completed as f64,
            latency_p50: worst(|t| t.p50),
            latency_p99: worst(|t| t.p99),
            latency_p999: worst(|t| t.p99_9),
            latency_n: rep.tenants.iter().map(|t| t.completed).min().unwrap_or(0),
            throughput_req_per_mcyc: rep.throughput_rpmc,
            speedup_vs_tiny: speedup,
        });
    }
    out
}

/// Runs the workload's entry point once and checks its output. Returns
/// the outcome, the wall-clock seconds of the entry-point call alone, and
/// whatever `after` read the moment the call returned (allocator
/// counters, peak RSS) — before the checks and the companion pass run.
pub fn run_once<T>(
    kind: Kind,
    seed: u64,
    div: u64,
    companion: bool,
    after: impl FnOnce() -> T,
) -> (Outcome, f64, T) {
    use std::time::Instant;
    match kind {
        Kind::Fig17Sweep => {
            let opts = kind.exp_options(seed, div);
            let t = Instant::now();
            let table = black_box(call_fig17(&opts));
            let wall = t.elapsed().as_secs_f64();
            let read = after();
            (check_fig17(&opts, &table, companion), wall, read)
        }
        Kind::SoakTenants => {
            let opts = kind.soak_options(seed, div);
            let t = Instant::now();
            let result = black_box(call_soak(&opts));
            let wall = t.elapsed().as_secs_f64();
            let read = after();
            (check_soak(&opts, result), wall, read)
        }
        _ => {
            let opts = kind.serve_options(seed, div).expect("serve workload");
            let t = Instant::now();
            let result = black_box(call_serve(&opts));
            let wall = t.elapsed().as_secs_f64();
            let read = after();
            (check_serve(&opts, result), wall, read)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in ALL {
            assert!(crate::jsonx::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(by_name(w.name).unwrap().kind, w.kind);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn sub_seeds_rotate_and_differ_between_runs() {
        let a: Vec<u64> = (0..SUB_SEEDS).map(|i| sub_seed(7, i)).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), SUB_SEEDS);
        assert_eq!(sub_seed(7, SUB_SEEDS + 3), sub_seed(7, 3));
        assert!((0..SUB_SEEDS).all(|i| !a.contains(&sub_seed(8, i))));
        assert!(a.iter().all(|s| *s < 1 << 48));
    }

    #[test]
    fn a_failed_validation_fails_every_operation_of_the_repetition() {
        // 48 000 / 48 000 = 1 request over 4 tenants x 4 phases: run_soak
        // itself refuses the options, which is a validation failure the
        // ledger must count, not hide.
        let (out, _, ()) = run_once(Kind::SoakTenants, 7, 48_000, false, || ());
        assert!(out.check.is_err(), "{out:?}");
        assert_eq!(out.served, 0);
        assert!(out.attempted >= 1);
        assert!(out.sim.is_none());
    }
}
