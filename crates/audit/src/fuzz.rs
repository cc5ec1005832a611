//! The audit driver: a deterministic, seeded sweep of configurations ×
//! workloads × policies through every verification layer.
//!
//! [`run_audit`] is what `repro audit [--quick]` and the CI gate run.
//! Everything is derived from [`AuditOptions::seed`], so a failing case
//! reproduces exactly from its report line.

use oram_cpu::{MissRecord, ReplayMisses};
use oram_obsv::{
    render_prometheus, render_slo_json, FlightConfig, IncidentMeta, LiveConfig, LivePlane,
};
use oram_protocol::{OramConfig, OramController, PosMapSelect, Request};
use oram_service::{AddressMix, SchedPolicy, ServiceConfig, ServiceResult, ServiceSim};
use oram_sim::{
    DiskBackend, DiskConfig, Engine, ShardRequest, ShardedOram, StorageBackend, SystemConfig,
    WanBackend, WanConfig,
};
use oram_util::{BusEvent, LiveObserver, Rng64};

use crate::distinguisher::{
    cross_policy_traces_identical, distribution_distinguisher, fresh_stream, record_trace,
    relabel_offset, relabeled_traces_identical, reuse_stream, timing_protected_relabeled_identical,
    PolicyUnderTest,
};
use crate::invariants::{check_trace, TraceSpec, TraceSummary};
use crate::posmap::{check_posmap_trace, recursive_flat_data_identity, strip_posmap_events};
use crate::recorder::Recorder;
use crate::stats::{
    bin_counts, chi_square_two_sample, chi_square_uniform, leaf_uniformity, LeafCounts,
};

/// Tuning knobs of one audit run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuditOptions {
    /// Master seed; every configuration, workload, and RNG below derives
    /// from it.
    pub seed: u64,
    /// Number of randomized configuration cases.
    pub cases: u32,
    /// Accesses per experiment (before stash filtering).
    pub accesses: u64,
}

impl AuditOptions {
    /// The CI gate: small enough to finish in tens of seconds.
    pub fn quick() -> Self {
        AuditOptions { seed: 0x5EED_A0D1, cases: 6, accesses: 1200 }
    }

    /// The thorough sweep `repro audit` runs by default.
    pub fn full() -> Self {
        AuditOptions { seed: 0x5EED_A0D1, cases: 24, accesses: 4000 }
    }

    /// Builder-style: replaces the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One failed check, with enough context to reproduce and debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFailure {
    /// Which check failed (includes the policy/config/seed).
    pub case: String,
    /// What went wrong.
    pub error: String,
    /// The tail of the offending bus trace (empty when the failing check
    /// does not expose a trace).
    pub window: String,
}

/// The outcome of [`run_audit`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Total checks executed.
    pub checks: u64,
    /// One human-readable line per passed check group.
    pub lines: Vec<String>,
    /// Every failed check.
    pub failures: Vec<AuditFailure>,
}

impl AuditReport {
    /// `true` when every check passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the report (the CLI prints this; CI archives it on
    /// failure).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str("ok   ");
            out.push_str(line);
            out.push('\n');
        }
        for f in &self.failures {
            out.push_str("FAIL ");
            out.push_str(&f.case);
            out.push_str(": ");
            out.push_str(&f.error);
            out.push('\n');
            if !f.window.is_empty() {
                out.push_str("     trace tail:\n");
                for l in f.window.lines() {
                    out.push_str("       ");
                    out.push_str(l);
                    out.push('\n');
                }
            }
        }
        out.push_str(&format!(
            "oram-audit: {} checks, {} failures — {}\n",
            self.checks,
            self.failures.len(),
            if self.passed() { "PASS" } else { "FAIL" }
        ));
        out
    }

    fn ok(&mut self, line: String) {
        self.checks += 1;
        self.lines.push(line);
    }

    fn fail(&mut self, case: String, error: String, window: String) {
        self.checks += 1;
        self.failures.push(AuditFailure { case, error, window });
    }

    fn check(&mut self, case: String, result: Result<(), String>, window: impl FnOnce() -> String) {
        match result {
            Ok(()) => self.ok(case),
            Err(e) => self.fail(case, e, window()),
        }
    }
}

/// Formats the last events of a trace for failure reports.
fn window_of(events: &[BusEvent]) -> String {
    let tail = events.len().saturating_sub(64);
    events[tail..]
        .iter()
        .enumerate()
        .map(|(i, e)| format!("{:>7}: {e:?}", tail + i))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Audits a service-issued bus trace: structural invariants always, and
/// leaf uniformity whenever the trace carries enough bus-visible path
/// reads for the tests to have power (128; below that the statistical
/// layer is skipped, not failed — short `--quick` runs stay meaningful).
///
/// This is the check suite `repro serve` runs on its own trace and the
/// service section of [`run_audit`] runs per scheduler policy. The
/// coalescing front-end merges requests *before* the ORAM issue point,
/// so a service-issued trace must satisfy exactly the same grammar and
/// leaf statistics as a directly driven controller.
///
/// # Errors
///
/// Returns the structural violation or the failed statistical test.
pub fn check_service_trace(cfg: &OramConfig, events: &[BusEvent]) -> Result<TraceSummary, String> {
    let summary = check_trace(&TraceSpec::from_oram(cfg), events)?;
    uniform_when_sampled(&LeafCounts::from_leaves(&summary.leaves, cfg.levels))?;
    Ok(summary)
}

/// The statistical half of [`check_service_trace`], over the leaf counts
/// of a structurally valid trace.
pub(crate) fn uniform_when_sampled(counts: &LeafCounts) -> Result<(), String> {
    if counts.total() >= 128 {
        leaf_uniformity(counts)?;
    }
    Ok(())
}

/// Runs a full trace audit of one (config, workload) pair: structural
/// check, the stash bound, the controller's own invariants, and leaf
/// uniformity. The invariants are O(tree): they are checked after every
/// access up to L = 10 (every randomized case) and after the last above
/// that. A failure names the access after which they broke, and the trace
/// stops there.
fn audit_one(report: &mut AuditReport, case: String, cfg: OramConfig, reqs: &[Request]) {
    let mut ctl = match OramController::new(cfg) {
        Ok(ctl) => ctl,
        Err(e) => {
            report.fail(case, format!("controller rejected config: {e}"), String::new());
            return;
        }
    };
    let rec = Recorder::unbounded();
    ctl.set_observer(Some(rec.observer()));
    let invariants = reqs.iter().enumerate().try_for_each(|(step, &req)| {
        ctl.access(req);
        let due = cfg.levels <= 10 || step + 1 == reqs.len();
        let checked = if due { ctl.check_invariants() } else { Ok(()) };
        checked.map_err(|e| format!("after access {step}: {e}"))
    });
    let events = rec.snapshot();
    let summary = match check_trace(&TraceSpec::from_oram(&cfg), &events) {
        Ok(s) => s,
        Err(e) => {
            report.fail(case, e, window_of(&events));
            return;
        }
    };
    let max_live = ctl.stash_stats().max_live;
    if max_live > cfg.stash_capacity {
        report.fail(
            case,
            format!("stash peaked at {max_live} blocks, capacity {}", cfg.stash_capacity),
            window_of(&events),
        );
        return;
    }
    if let Err(e) = invariants {
        report.fail(case, format!("protocol invariant {e}"), window_of(&events));
        return;
    }
    match leaf_uniformity(&LeafCounts::from_leaves(&summary.leaves, cfg.levels)) {
        Ok(()) => report.ok(format!(
            "{case}: {} accesses, {} evictions, stash peak {max_live}",
            summary.accesses, summary.evictions
        )),
        Err(e) => report.fail(case, e, window_of(&events)),
    }
}

/// A deterministic synthetic workload over a bounded working set.
fn workload(kind: u32, n: u64, working_set: u64, rng: &mut Rng64) -> Vec<Request> {
    use oram_protocol::BlockAddr;
    let ws = working_set.max(4);
    (0..n)
        .map(|i| {
            let addr = match kind % 3 {
                0 => rng.below(ws),                                   // uniform
                1 if rng.below(10) < 9 => rng.below((ws / 8).max(1)), // hot set
                1 => rng.below(ws),                                   // cold tail
                _ => i % ws,                                          // sequential
            };
            let addr = BlockAddr::new(addr + 1);
            if i % 5 == 4 {
                Request::write(addr, i)
            } else {
                Request::read(addr)
            }
        })
        .collect()
}

fn workload_name(kind: u32) -> &'static str {
    match kind % 3 {
        0 => "uniform",
        1 => "hot-cold",
        _ => "sequential",
    }
}

/// A miss stream for engine-level experiments: blocking reads with
/// deterministic pseudo-random gaps (long enough that timing protection
/// injects dummies).
fn miss_stream(n: u64, working_set: u64, rng: &mut Rng64) -> Vec<MissRecord> {
    (0..n)
        .map(|i| MissRecord {
            block_addr: rng.below(working_set) + 1,
            is_write: i % 7 == 6,
            gap_cycles: 40 + rng.below(2200),
            blocking: true,
        })
        .collect()
}

/// Drives a [`ServiceSim`] over a fresh engine with a recorder attached
/// and hands `read` the captured bus trace (in place) plus the
/// bookkeeping the service checks need: the validated result, the
/// engine-level stash peak, and the ORAM configuration the trace must be
/// checked against.
fn service_trace<R>(
    sys: &SystemConfig,
    cfg: ServiceConfig,
    read: impl FnOnce(&[BusEvent], &ServiceResult, u64, &OramConfig) -> R,
) -> Result<R, String> {
    let rec = Recorder::unbounded();
    let mut engine =
        Engine::new(sys.clone()).map_err(|e| format!("engine rejected config: {e}"))?;
    engine.prefill_working_set(cfg.address_span());
    engine.attach_bus_observer(rec.observer());
    let mut sim = ServiceSim::new(cfg, engine)?;
    sim.run();
    let (res, mut engine) = sim.finish();
    engine.detach_bus_observer();
    res.validate()?;
    let stash_max = engine.stash_occupancy().max();
    Ok(rec.with_events(|events| read(events, &res, stash_max, &engine.config().oram)))
}

/// Drives one batch of workload through a fresh sharded backend with a
/// recorder on every shard. Returns each shard's `(config, trace)` pair,
/// the dispatch counts, and the completion sequence: the shard index of
/// every request, ordered by the backend cycle its access finished (ties
/// broken by shard index, so the sequence is deterministic).
#[allow(clippy::type_complexity)]
fn sharded_run(
    sys: &SystemConfig,
    shards: usize,
    working_set: u64,
    reqs: &[ShardRequest],
) -> Result<(Vec<(OramConfig, Vec<BusEvent>)>, Vec<u64>, Vec<u64>), String> {
    let mut backend = ShardedOram::new(sys.clone(), shards, 2)?;
    backend.prefill_working_set(working_set);
    let recs: Vec<Recorder> = (0..shards).map(|_| Recorder::unbounded()).collect();
    for (i, rec) in recs.iter().enumerate() {
        backend.engine_mut(i).attach_bus_observer(rec.observer());
    }
    let mut outs = Vec::new();
    let mut completions: Vec<(u64, u64)> = Vec::with_capacity(reqs.len());
    for chunk in reqs.chunks(32) {
        backend.serve_batch(chunk, &mut outs);
        for (r, o) in chunk.iter().zip(&outs) {
            completions.push((o.end, backend.shard_of(r.addr) as u64));
        }
    }
    let mut traces = Vec::with_capacity(shards);
    for (i, rec) in recs.iter().enumerate() {
        let engine = backend.engine_mut(i);
        engine.detach_bus_observer();
        traces.push((engine.config().oram, rec.snapshot()));
    }
    completions.sort_unstable();
    let sequence = completions.into_iter().map(|(_, shard)| shard).collect();
    Ok((traces, backend.dispatch_counts().to_vec(), sequence))
}

/// Replays `misses` through a fresh engine with a recorder attached and
/// returns the captured bus trace plus the ORAM configuration it must be
/// checked against. Shared by the storage-backend invariance section:
/// the same function drives every backend, so any trace difference is
/// the backend's.
fn backend_trace<B: StorageBackend>(
    mut engine: Engine<B>,
    working_set: u64,
    misses: &[MissRecord],
) -> (Vec<BusEvent>, OramConfig) {
    let rec = Recorder::unbounded();
    engine.prefill_working_set(working_set);
    engine.attach_bus_observer(rec.observer());
    engine.run(&mut ReplayMisses::new(misses.to_vec()));
    engine.detach_bus_observer();
    (rec.snapshot(), engine.config().oram)
}

/// A random but always-valid controller configuration.
fn random_config(rng: &mut Rng64) -> OramConfig {
    let mut cfg = OramConfig::small_test();
    cfg.levels = 5 + rng.below(5) as u32; // 5..=9
    cfg.z = 2 + rng.below(4) as usize; // 2..=5
    cfg.eviction_rate = 3 + rng.below(3) as u32; // 3..=5
    cfg.treetop_levels = rng.below(3) as u32; // 0..=2
    cfg.stash_capacity = cfg.z * (cfg.levels as usize + 1) + 64;
    cfg.hot_cache_sets = 8 << rng.below(2); // 8 or 16
    cfg.hot_cache_ways = 1 + rng.below(2) as usize;
    cfg.plb_page_addrs = 8 << rng.below(2);
    cfg.seed = rng.next_u64();
    cfg
}

/// Executes the whole audit: the default-config six-policy suite, the
/// byte-identity experiments, randomized configuration cases, the
/// engine-level (DRAM + timing protection) checks, the service
/// front-end sweep (every scheduler policy plus a client-mix
/// distinguisher over coalesced, batch-scheduled traffic), and the
/// recursive-posmap section (posmap-traffic grammar, flat data
/// identity, and relabeling invariance of the combined stream).
pub fn run_audit(opts: &AuditOptions) -> AuditReport {
    let mut report = AuditReport::default();
    let mut rng = Rng64::seed_from_u64(opts.seed);

    // ---- 1. Default configuration, all six policies. -------------------
    let default_oram = SystemConfig::scaled_default().oram;
    for policy in PolicyUnderTest::ALL {
        let cfg = policy.oram_config(default_oram).with_seed(opts.seed ^ 0xC0FF_EE00);
        let reqs = reuse_stream(opts.accesses, 256, 1);
        audit_one(
            &mut report,
            format!("default/{} (seed {:#x})", policy.name(), opts.seed),
            cfg,
            &reqs,
        );
    }

    // ---- 2. Byte-identity experiments. ---------------------------------
    let small = OramConfig::small_test().with_seed(opts.seed ^ 0x1D);
    let fresh_n = opts.accesses.min(250);
    report.check(
        format!("cross-policy identity ({fresh_n} fresh accesses)"),
        cross_policy_traces_identical(small, fresh_n),
        String::new,
    );

    let pattern = reuse_stream(opts.accesses.min(800), 48, 1);
    for policy in PolicyUnderTest::ALL {
        let cfg = policy.oram_config(small);
        report.check(
            format!("relabeling identity/{}", policy.name()),
            relabeled_traces_identical(cfg, &pattern, relabel_offset(&cfg)),
            String::new,
        );
    }

    // ---- 3. Randomized configuration cases. ----------------------------
    for case in 0..opts.cases {
        let cfg = random_config(&mut rng);
        if let Err(e) = cfg.validate() {
            report.fail(
                format!("case {case}: random config"),
                format!("generator produced an invalid config: {e}"),
                String::new(),
            );
            continue;
        }
        let policy = PolicyUnderTest::ALL[case as usize % PolicyUnderTest::ALL.len()];
        let cfg = policy.oram_config(cfg);
        let ws = (1u64 << cfg.levels) / 2;
        let kind = case;
        let reqs = workload(kind, opts.accesses, ws, &mut rng);
        audit_one(
            &mut report,
            format!(
                "case {case}: {} L={} z={} A={} tt={} {} (seed {:#x})",
                policy.name(),
                cfg.levels,
                cfg.z,
                cfg.eviction_rate,
                cfg.treetop_levels,
                workload_name(kind),
                cfg.seed,
            ),
            cfg,
            &reqs,
        );

        // Distributional distinguisher: the same configuration must hide
        // a locality change from kind to kind+1.
        if case % 2 == 0 {
            let a = workload(kind, opts.accesses, ws, &mut rng);
            let b = workload(kind + 1, opts.accesses, ws, &mut rng);
            let case_name = format!(
                "case {case}: distinguisher {} vs {}",
                workload_name(kind),
                workload_name(kind + 1)
            );
            match distribution_distinguisher(cfg, &a, &b) {
                Ok(t) if t.pass => report.ok(format!(
                    "{case_name} ({} {:.2} <= {:.2})",
                    t.name, t.statistic, t.critical
                )),
                Ok(t) => report.fail(
                    case_name,
                    format!(
                        "workloads distinguishable: {} {:.2} > {:.2}",
                        t.name, t.statistic, t.critical
                    ),
                    String::new(),
                ),
                Err(e) => report.fail(case_name, e, String::new()),
            }
        }
    }

    // ---- 4. Engine level: DRAM expansion + timing protection. ----------
    let sys = SystemConfig::small_test();
    let misses = miss_stream(opts.accesses.min(400), 64, &mut rng);
    for policy in PolicyUnderTest::ALL {
        report.check(
            format!("timing-protected relabeling identity/{}", policy.name()),
            timing_protected_relabeled_identical(sys.clone(), policy, &misses, 800),
            String::new,
        );
    }

    let rec = Recorder::unbounded();
    let case = "engine/dram-expansion".to_string();
    match Engine::new(sys) {
        Ok(mut engine) => {
            engine.attach_bus_observer(rec.observer());
            engine.run(&mut ReplayMisses::new(misses));
            engine.detach_bus_observer();
            let spec = TraceSpec::from_oram(&engine.config().oram);
            rec.with_events(|events| match check_trace(&spec, events) {
                Ok(s) if s.dram_blocks > 0 => {
                    let hist = engine.stash_occupancy();
                    report.ok(format!(
                        "{case}: {} DRAM blocks over {} accesses, stash max {} p99.9 {}",
                        s.dram_blocks,
                        s.accesses,
                        hist.max(),
                        hist.quantile_floor(0.999)
                    ));
                }
                Ok(_) => report.fail(
                    case,
                    "engine run produced no DRAM block events".into(),
                    window_of(events),
                ),
                Err(e) => report.fail(case, e, window_of(events)),
            });
        }
        Err(e) => report.fail(case, format!("engine rejected config: {e}"), String::new()),
    }

    // ---- 5. Service front-end: scheduler sweep + client-mix hiding. ----
    let sys = SystemConfig::small_test();
    let per_client = (opts.accesses / 8).clamp(150, 600);
    let svc_seed = opts.seed ^ 0x5E57_1CE0;
    for policy in SchedPolicy::ALL {
        let case = format!("service/{} (seed {svc_seed:#x})", policy.name());
        let mut cfg = ServiceConfig::symmetric_open(4, per_client, 300.0, 256, svc_seed);
        cfg.scheduler = policy;
        let checked = service_trace(&sys, cfg, |events, res, stash_max, oram| {
            if stash_max > oram.stash_capacity as u64 {
                return Err((
                    format!("stash peaked at {stash_max} blocks, capacity {}", oram.stash_capacity),
                    window_of(events),
                ));
            }
            match check_service_trace(oram, events) {
                Ok(s) => Ok(format!(
                    "{case}: {} bus accesses for {} completed ({} coalesced, {} rejected), stash peak {stash_max}",
                    s.accesses,
                    res.completed(),
                    res.coalesced(),
                    res.rejected()
                )),
                Err(e) => Err((e, window_of(events))),
            }
        });
        match checked {
            Ok(Ok(line)) => report.ok(line),
            Ok(Err((e, window))) => report.fail(case, e, window),
            Err(e) => report.fail(case, e, String::new()),
        }
    }

    // Client-mix distinguisher: a skewed tenant mix must not shift the
    // bus-visible leaf distribution relative to a uniform one, even
    // through coalescing and batch scheduling.
    {
        let case = "service/mix-distinguisher zipfian vs uniform".to_string();
        let mix_leaves = |mix: AddressMix, seed: u64| -> Result<Vec<u64>, String> {
            let mut cfg = ServiceConfig::symmetric_open(4, per_client, 300.0, 256, seed);
            for client in &mut cfg.clients {
                client.addresses = mix;
            }
            service_trace(&sys, cfg, |events, _res, _stash, oram| {
                check_trace(&TraceSpec::from_oram(oram), events).map(|s| s.leaves)
            })?
        };
        let a = mix_leaves(AddressMix::Zipfian { domain: 256, theta: 0.99 }, svc_seed ^ 0xA);
        let b = mix_leaves(AddressMix::Uniform { domain: 256 }, svc_seed ^ 0xB);
        match (a, b) {
            (Ok(a), Ok(b)) if a.len() >= 128 && b.len() >= 128 => {
                let domain = 1u64 << sys.oram.levels;
                let t =
                    chi_square_two_sample(&bin_counts(&a, domain, 32), &bin_counts(&b, domain, 32));
                if t.pass {
                    report
                        .ok(format!("{case} ({} {:.2} <= {:.2})", t.name, t.statistic, t.critical));
                } else {
                    report.fail(
                        case,
                        format!(
                            "client mixes distinguishable: {} {:.2} > {:.2}",
                            t.name, t.statistic, t.critical
                        ),
                        String::new(),
                    );
                }
            }
            (Ok(a), Ok(b)) => report.fail(
                case,
                format!("bus samples too small: {} vs {} path reads", a.len(), b.len()),
                String::new(),
            ),
            (Err(e), _) | (_, Err(e)) => report.fail(case, e, String::new()),
        }
    }

    // ---- 6. Sharded backend: per-shard traces + cross-shard hiding. ----
    //
    // The shard map (`addr mod M`) is public-by-design; what must not
    // leak is anything beyond it. Three layers: every shard's bus trace
    // must independently satisfy the full ORAM grammar and leaf
    // statistics; a uniform address mix must spread across shards
    // uniformly; and the interleaving/timing of shard completions must
    // depend only on the dispatch counts, not on *which* addresses map
    // where — checked by permuting the shard-local halves of every
    // address (dispatch profile preserved exactly) and comparing the
    // (completion-window × shard) distributions of the two runs.
    {
        // Pipelined, as `repro serve --shards M` runs its shards.
        let sys = SystemConfig::small_test().with_pipeline();
        let shards = 4usize;
        let ws = 256u64;
        let shard_seed = opts.seed ^ 0x51AB_D0CE;
        let mut wrng = Rng64::seed_from_u64(shard_seed);
        let reqs_a: Vec<ShardRequest> = (0..opts.accesses)
            .map(|i| ShardRequest { addr: wrng.below(ws), write: i % 5 == 4, arrival: i * 60 })
            .collect();
        // Same multiset of `addr mod M` (so identical dispatch), every
        // shard-local address permuted.
        let local_span = ws / shards as u64;
        let reqs_b: Vec<ShardRequest> = reqs_a
            .iter()
            .map(|r| {
                let permuted =
                    (r.addr / shards as u64).wrapping_mul(13).wrapping_add(7) % local_span;
                ShardRequest { addr: permuted * shards as u64 + r.addr % shards as u64, ..*r }
            })
            .collect();

        let run_a = sharded_run(&sys, shards, ws, &reqs_a);
        let run_b = sharded_run(&sys, shards, ws, &reqs_b);
        match (run_a, run_b) {
            (Ok((traces, dispatch_a, seq_a)), Ok((_, dispatch_b, seq_b))) => {
                for (i, (cfg, events)) in traces.iter().enumerate() {
                    let case = format!("sharded/shard {i}/{shards} trace (seed {shard_seed:#x})");
                    match check_service_trace(cfg, events) {
                        Ok(s) if s.accesses > 0 => report.ok(format!(
                            "{case}: {} accesses, {} evictions",
                            s.accesses, s.evictions
                        )),
                        Ok(_) => report.fail(
                            case,
                            "shard saw no traffic under a uniform mix".into(),
                            String::new(),
                        ),
                        Err(e) => report.fail(case, e, window_of(events)),
                    }
                }

                let case = format!(
                    "sharded/dispatch uniformity ({} uniform requests over {shards} shards)",
                    opts.accesses
                );
                let t = chi_square_uniform(&dispatch_a);
                if t.pass {
                    report
                        .ok(format!("{case} ({} {:.2} <= {:.2})", t.name, t.statistic, t.critical));
                } else {
                    report.fail(
                        case,
                        format!(
                            "uniform mix loads shards unevenly: {} {:.2} > {:.2} ({dispatch_a:?})",
                            t.name, t.statistic, t.critical
                        ),
                        String::new(),
                    );
                }

                let case = "sharded/completion-interleaving distinguisher".to_string();
                if dispatch_a != dispatch_b {
                    report.fail(
                        case,
                        format!(
                            "local permutation changed the dispatch profile: {dispatch_a:?} vs {dispatch_b:?}"
                        ),
                        String::new(),
                    );
                } else {
                    let windows = 8u64;
                    let domain = windows * shards as u64;
                    let encode = |seq: &[u64]| -> Vec<u64> {
                        seq.iter()
                            .enumerate()
                            .map(|(rank, &s)| {
                                (rank as u64 * windows / seq.len() as u64) * shards as u64 + s
                            })
                            .collect()
                    };
                    let t = chi_square_two_sample(
                        &bin_counts(&encode(&seq_a), domain, domain as usize),
                        &bin_counts(&encode(&seq_b), domain, domain as usize),
                    );
                    if t.pass {
                        report.ok(format!(
                            "{case} ({} {:.2} <= {:.2})",
                            t.name, t.statistic, t.critical
                        ));
                    } else {
                        report.fail(
                            case,
                            format!(
                                "shard completion timing leaks the address mix: {} {:.2} > {:.2}",
                                t.name, t.statistic, t.critical
                            ),
                            String::new(),
                        );
                    }
                }
            }
            (Err(e), _) | (_, Err(e)) => {
                report.fail("sharded/backend run".into(), e, String::new());
            }
        }
    }

    // ---- 7. Storage backends: the event stream is backend-invariant. ---
    //
    // Obliviousness lives in the *sequence* of bus events, not in their
    // timing. For a fixed (seed, policy, miss stream) the DRAM timing
    // model, the persistent on-disk store, and the simulated WAN must
    // emit byte-identical event streams — the backend decides *when* a
    // bucket transfer finishes, never *which* buckets move — and each
    // stream must independently pass the structural grammar and leaf
    // statistics.
    {
        let sys = SystemConfig::small_test();
        let backend_seed = opts.seed ^ 0xBAC7_E27D;
        let mut brng = Rng64::seed_from_u64(backend_seed);
        let ws = 64u64;
        let misses = miss_stream(opts.accesses.min(400), ws, &mut brng);

        let dram = Engine::new(sys.clone())
            .map(|e| backend_trace(e, ws, &misses))
            .map_err(|e| format!("dram engine rejected config: {e}"));
        let wan = WanBackend::new(WanConfig::default_wan())
            .and_then(|b| Engine::with_backend(sys.clone(), b))
            .map(|e| backend_trace(e, ws, &misses))
            .map_err(|e| format!("wan engine rejected config: {e}"));
        let disk_dir = std::env::temp_dir().join(format!(
            "oram_audit_disk_{}_{:x}",
            std::process::id(),
            opts.seed
        ));
        let _ = std::fs::remove_dir_all(&disk_dir);
        let bucket_count = (1u64 << (sys.oram.levels + 1)) - 1;
        let disk = DiskBackend::new(DiskConfig::new(disk_dir.clone(), sys.oram.z, bucket_count))
            .and_then(|b| Engine::with_backend(sys.clone(), b))
            .map(|e| backend_trace(e, ws, &misses))
            .map_err(|e| format!("disk engine rejected config: {e}"));
        let _ = std::fs::remove_dir_all(&disk_dir);

        match (dram, disk, wan) {
            (Ok(dram), Ok(disk), Ok(wan)) => {
                for (name, (events, oram)) in [("dram", &dram), ("disk", &disk), ("wan", &wan)] {
                    let case = format!("backend/{name} trace (seed {backend_seed:#x})");
                    match check_service_trace(oram, events) {
                        Ok(s) if s.accesses > 0 => report.ok(format!(
                            "{case}: {} accesses, {} evictions, {} DRAM blocks",
                            s.accesses, s.evictions, s.dram_blocks
                        )),
                        Ok(_) => report.fail(
                            case,
                            "backend run produced no accesses".into(),
                            String::new(),
                        ),
                        Err(e) => report.fail(case, e, window_of(events)),
                    }
                }

                let case = format!(
                    "backend/event-stream invariance ({} events, seed {backend_seed:#x})",
                    dram.0.len()
                );
                if dram.0 == disk.0 && dram.0 == wan.0 {
                    report.ok(format!("{case}: dram == disk == wan"));
                } else {
                    let diverged = if dram.0 == disk.0 { "wan" } else { "disk" };
                    report.fail(
                        case,
                        format!("the {diverged} backend changed the bus event stream"),
                        window_of(&dram.0),
                    );
                }
            }
            (dram, disk, wan) => {
                for r in [dram, disk, wan] {
                    if let Err(e) = r {
                        report.fail("backend/run".into(), e, String::new());
                    }
                }
            }
        }
    }

    // ---- 8. Observability plane: the metric/alert stream is ------------
    //      relabeling-invariant.
    //
    // The live plane watches everything the serve path exposes: engine
    // telemetry (phase cycles, stash occupancy, Eq. 1 residuals) plus
    // per-completion observations (latency, serve class). If the
    // exported Prometheus text, the SLO JSON, the structured alert
    // stream, or the flight recorder's incident bundle differed between
    // an address pattern and its structure-preserving relabeled twin,
    // the observability surface would leak address bits that the
    // audited bus trace does not. Both runs must render byte-identical
    // output across every policy — including the full forensic bundle,
    // which carries every captured span field.
    {
        let obsv_seed = opts.seed ^ 0x0B5E_07AD;
        let mut orng = Rng64::seed_from_u64(obsv_seed);
        let misses = miss_stream(opts.accesses.min(400), 64, &mut orng);
        for policy in PolicyUnderTest::ALL {
            let cfg = policy.system_config(SystemConfig::small_test());
            let offset = relabel_offset(&cfg.oram);
            let case =
                format!("obsv/relabeled metric stream/{} (seed {obsv_seed:#x})", policy.name());

            // Replays the miss stream shifted by `shift` with the plane
            // fed from both sides — engine telemetry sink and the
            // per-completion observer — exactly as `repro serve` wires
            // it, then renders every export surface.
            let run = |shift: u64| -> Result<(String, String, String, String), String> {
                let plane = LivePlane::shared(LiveConfig::for_serve(
                    1,
                    1,
                    400,
                    cfg.oram.stash_capacity as u32,
                ));
                plane.lock().expect("plane lock").attach_flight(FlightConfig::default());
                let mut engine =
                    Engine::new(cfg.clone()).map_err(|e| format!("engine rejected config: {e}"))?;
                engine.attach_telemetry(LivePlane::as_sink(&plane), 2_000);
                let mut now = 0u64;
                for m in &misses {
                    now = now.saturating_add(m.gap_cycles);
                    let out = engine.serve_request(m.block_addr + shift, m.is_write, now);
                    {
                        let mut p = plane.lock().expect("plane lock");
                        p.request_complete(
                            out.data_ready,
                            0,
                            0,
                            out.served,
                            out.data_ready - now,
                            false,
                        );
                    }
                    now = out.data_ready;
                }
                engine.detach_telemetry();
                let mut p = plane.lock().expect("plane lock");
                p.flush();
                p.validate_conservation()?;
                // The forensic surface: freeze the flight recorder and
                // render the full incident bundle. Its seven files
                // (spans with every attribution field, Chrome trace,
                // metrics, alerts, windows, service events) are one
                // concatenated byte string for the comparison.
                p.force_incident();
                let bundle = p.render_incident(&IncidentMeta::default())?;
                let bundle_bytes = bundle
                    .files()
                    .iter()
                    .map(|(name, text)| format!("== {name}\n{text}"))
                    .collect::<String>();
                Ok((
                    render_prometheus(&p),
                    render_slo_json(&p),
                    format!("{:?}", p.events()),
                    bundle_bytes,
                ))
            };

            match (run(0), run(offset)) {
                (Ok((prom_a, slo_a, ev_a, bun_a)), Ok((prom_b, slo_b, ev_b, bun_b))) => {
                    if prom_a != prom_b {
                        let diff = prom_a
                            .lines()
                            .zip(prom_b.lines())
                            .find(|(a, b)| a != b)
                            .map(|(a, b)| format!("`{a}` vs `{b}`"))
                            .unwrap_or_else(|| "length mismatch".into());
                        report.fail(
                            case,
                            format!("Prometheus exposition diverges under relabeling: {diff}"),
                            String::new(),
                        );
                    } else if slo_a != slo_b {
                        report.fail(
                            case,
                            "SLO JSON diverges under relabeling".into(),
                            String::new(),
                        );
                    } else if ev_a != ev_b {
                        report.fail(
                            case,
                            "structured alert stream diverges under relabeling".into(),
                            String::new(),
                        );
                    } else if bun_a != bun_b {
                        let diff = bun_a
                            .lines()
                            .zip(bun_b.lines())
                            .find(|(a, b)| a != b)
                            .map(|(a, b)| format!("`{a}` vs `{b}`"))
                            .unwrap_or_else(|| "length mismatch".into());
                        report.fail(
                            case,
                            format!("incident bundle diverges under relabeling: {diff}"),
                            String::new(),
                        );
                    } else {
                        report.ok(format!(
                            "{case}: {} metric bytes, {} SLO bytes, {} bundle bytes identical \
                             under +{offset} shift",
                            prom_a.len(),
                            slo_a.len(),
                            bun_a.len()
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => report.fail(case, e, String::new()),
            }
        }
    }

    // ---- 9. Recursive position map: the posmap's own traffic. ----------
    //
    // In `--posmap recursive` mode the position map itself generates
    // bus traffic (recursion-chain paths framed as `PosmapBucket`
    // events). Three layers, per policy: the posmap traffic must
    // satisfy its own structural grammar (root-anchored parent chains
    // of fixed per-level depth, eviction writes rewriting their reads)
    // while the stripped data subsequence still passes the data
    // grammar; the stripped trace must be *byte-identical* to a
    // flat-posmap run of the same requests (recursion adds posmap
    // traffic, it never changes what the data tree does); and the
    // combined stream must be byte-invariant under address relabeling —
    // PLB conflicts, level-ORAM paths and the walk interleaving must
    // not leak address bits.
    {
        let pm_seed = opts.seed ^ 0x90A5_AB70;
        // L = 10 at 16 addrs/page → 512 level-1 posmap blocks = 4 KiB,
        // over a 1 KiB budget → exactly one off-chip recursion level.
        let base = OramConfig {
            levels: 10,
            stash_capacity: 140,
            posmap: PosMapSelect::Recursive { onchip_kb: 1 },
            ..OramConfig::small_test()
        };
        let n = opts.accesses.min(600);
        let pattern = fresh_stream(n, 1);
        // Shifting every address by a multiple of `page_addrs × sets`
        // shifts level-1 posmap blocks by a multiple of the PLB set
        // count, so the direct-mapped conflict pattern is preserved
        // exactly (deeper chains would need an extra ×32 per level;
        // this config pins the chain to one level).
        let pm_offset = base.plb_page_addrs * base.plb_entries as u64;

        for policy in PolicyUnderTest::ALL {
            let cfg = policy.oram_config(base).with_seed(pm_seed);
            let case = format!("posmap/structure/{} (seed {pm_seed:#x})", policy.name());
            match record_trace(cfg, &pattern) {
                Ok((events, _)) => match check_posmap_trace(&events) {
                    Ok(s) if s.chains > 0 && s.eviction_writes > 0 => {
                        let data = strip_posmap_events(&events);
                        match check_trace(&TraceSpec::from_oram(&cfg), &data) {
                            Ok(_) => report.ok(format!(
                                "{case}: {} posmap events in {} chains ({} eviction writes)",
                                s.events, s.chains, s.eviction_writes
                            )),
                            Err(e) => report.fail(case, e, window_of(&data)),
                        }
                    }
                    Ok(s) => report.fail(
                        case,
                        format!(
                            "posmap traffic too thin to audit: {} chains, {} eviction writes",
                            s.chains, s.eviction_writes
                        ),
                        String::new(),
                    ),
                    Err(e) => report.fail(case, e, window_of(&events)),
                },
                Err(e) => {
                    report.fail(case, format!("controller rejected config: {e}"), String::new());
                }
            }

            let cfg = policy.oram_config(base).with_seed(pm_seed ^ 0xF1A7);
            report.check(
                format!("posmap/flat data identity/{}", policy.name()),
                recursive_flat_data_identity(cfg, &pattern).map(|_| ()),
                String::new,
            );

            let cfg = policy.oram_config(base).with_seed(pm_seed ^ 0x2E1A);
            report.check(
                format!("posmap/relabeling identity/{}", policy.name()),
                relabeled_traces_identical(cfg, &pattern, pm_offset),
                String::new,
            );
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_audit_passes_clean() {
        let mut opts = AuditOptions::quick();
        // Keep the unit-test footprint below the CLI's.
        opts.cases = 2;
        opts.accesses = 600;
        let report = run_audit(&opts);
        assert!(report.passed(), "{}", report.render());
        assert!(report.checks >= 20);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn options_presets_are_ordered() {
        assert!(AuditOptions::quick().cases < AuditOptions::full().cases);
        assert!(AuditOptions::quick().accesses < AuditOptions::full().accesses);
        assert_eq!(AuditOptions::quick().with_seed(9).seed, 9);
    }
}
