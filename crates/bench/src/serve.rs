//! The `repro serve` subcommand's engine: drives the multi-client
//! service front-end over every scheduler policy on the identical
//! offered workload, self-validates each run, and summarizes tail
//! latency and throughput. A load-sweep mode scales the offered rate
//! and locates the saturation knee.
//!
//! The validation is the subcommand's contract: a zero exit code means
//! the service conservation laws held (every generated request was
//! admitted or rejected exactly once and every admitted request
//! completed), every telemetry span's cycle attribution partitioned its
//! latency with `queue_wait = start − arrival`, and the service-issued
//! bus trace passed the obliviousness audit (protocol grammar plus leaf
//! uniformity) — coalescing and batch scheduling must be invisible on
//! the memory bus.

use std::cell::Cell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oram_audit::LaneAudit;
use oram_cpu::{MissRecord, ReplayMisses};
use oram_obsv::{render_top, LivePlane};
use oram_protocol::{PosMapSelect, RecursivePosMap, TreeShape};
use oram_service::{
    LatencySummary, SchedPolicy, SchedulerSummary, ServiceConfig, ServiceMeta, ServiceReport,
    ServiceResult, ShardedServiceSim, SERVE_CLASS_NAMES,
};
use oram_sim::{
    build_miss_stream, scale_profile, DiskBackend, DiskConfig, DramBackend, Engine, RunOptions,
    ShardedOram, StorageBackend, SystemConfig, WanBackend, WanConfig,
};
use oram_telemetry::{TeeSink, TelemetryConfig, TelemetryRecorder};
use oram_util::MetricId;
use oram_workloads::spec;

use crate::progress::Heartbeat;
use crate::table::Table;

/// Which storage backend serves the engine's bucket I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The cycle-accurate DDR3 timing model (the reference path;
    /// byte-identical to the pre-backend output).
    #[default]
    Dram,
    /// The persistent on-disk bucket store (WAL + crash recovery).
    Disk,
    /// The deterministic simulated-WAN model (RTT + bandwidth, batched).
    Wan,
}

impl BackendKind {
    /// The CLI / report name of this backend.
    pub const fn name(self) -> &'static str {
        match self {
            BackendKind::Dram => "dram",
            BackendKind::Disk => "disk",
            BackendKind::Wan => "wan",
        }
    }

    /// Parses a CLI backend name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(s: &str) -> Result<BackendKind, String> {
        match s {
            "dram" => Ok(BackendKind::Dram),
            "disk" => Ok(BackendKind::Disk),
            "wan" => Ok(BackendKind::Wan),
            other => Err(format!("unknown backend {other:?} (expected dram, disk or wan)")),
        }
    }
}

/// Which position map backend the engine's controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PosmapKind {
    /// The O(N)-memory flat array (the reference path; byte-identical
    /// to the pre-recursion output).
    #[default]
    Flat,
    /// The recursive position map: posmap entries packed into blocks
    /// stored in a chain of smaller ORAMs, fronted by a PLB. Costed
    /// posmap walks land in the `posmap` attribution component.
    Recursive,
}

impl PosmapKind {
    /// The CLI / report name of this posmap mode.
    pub const fn name(self) -> &'static str {
        match self {
            PosmapKind::Flat => "flat",
            PosmapKind::Recursive => "recursive",
        }
    }

    /// Parses a CLI posmap mode name.
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid names.
    pub fn parse(s: &str) -> Result<PosmapKind, String> {
        match s {
            "flat" => Ok(PosmapKind::Flat),
            "recursive" => Ok(PosmapKind::Recursive),
            other => Err(format!("unknown posmap {other:?} (expected flat or recursive)")),
        }
    }
}

/// A live observability attachment for a serve run: the shared
/// [`LivePlane`] every policy feeds (service-side completions and
/// rejections always; engine-side spans, Eq. 1 windows, and stash
/// samples on single-engine runs, where the engine executes on the
/// service thread) plus an optional rate-limited terminal ticker.
///
/// Sharded runs attach the plane service-side only: engine sinks fire
/// on worker threads there, and the plane deliberately stays off those
/// threads so the run's output and schedule are untouched.
#[derive(Debug)]
pub struct LiveRun {
    /// The plane every run in this serve feeds; the metrics endpoint
    /// and `repro top` snapshot it.
    pub plane: Arc<Mutex<LivePlane>>,
    /// The `repro top` terminal ticker, when enabled.
    pub top: Option<TopTicker>,
}

impl LiveRun {
    /// Wraps a shared plane, with the terminal ticker on or off.
    pub fn new(plane: Arc<Mutex<LivePlane>>, top: bool) -> Self {
        LiveRun { plane, top: top.then(TopTicker::new) }
    }
}

/// The `repro top` live terminal view: renders the plane snapshot to
/// stderr at most once per [`TopTicker::PERIOD`], so stepping the
/// simulation stays cheap between redraws.
#[derive(Debug)]
pub struct TopTicker {
    last: Cell<Option<Instant>>,
}

impl TopTicker {
    /// Minimum wall-clock gap between redraws.
    pub const PERIOD: Duration = Duration::from_millis(500);

    /// A ticker that draws on its first call, then rate-limits.
    pub fn new() -> Self {
        TopTicker { last: Cell::new(None) }
    }

    /// Redraws if at least [`TopTicker::PERIOD`] elapsed since the last
    /// draw (always draws on the first call).
    pub fn maybe_draw(&self, plane: &Arc<Mutex<LivePlane>>) {
        let now = Instant::now();
        if let Some(last) = self.last.get() {
            if now.duration_since(last) < TopTicker::PERIOD {
                return;
            }
        }
        self.last.set(Some(now));
        let text = {
            let p = plane.lock().expect("plane lock");
            render_top(&p)
        };
        eprint!("{text}");
    }
}

impl Default for TopTicker {
    fn default() -> Self {
        TopTicker::new()
    }
}

/// Options for one `repro serve` run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Number of client streams.
    pub clients: usize,
    /// Requests each stream generates.
    pub requests: u64,
    /// Mean per-client interarrival gap in cycles at load 1.0.
    pub base_gap_cycles: f64,
    /// Offered-rate multiplier (the gap is `base_gap_cycles / load`).
    pub load: f64,
    /// Run only this policy; `None` runs all of [`SchedPolicy::ALL`].
    pub scheduler: Option<SchedPolicy>,
    /// Address domain (blocks), also the prefilled working set.
    pub domain: u64,
    /// Tree depth `L`.
    pub levels: u32,
    /// Master seed.
    pub seed: u64,
    /// ORAM backend shards (1 = the single-engine reference path,
    /// byte-identical to the pre-sharding output; > 1 partitions the
    /// address space and enables intra-shard pipelining).
    pub shards: usize,
    /// Worker threads serving shards concurrently (results are
    /// bit-identical at any thread count).
    pub threads: usize,
    /// Storage backend serving the engine's bucket I/O.
    pub backend: BackendKind,
    /// WAN round-trip time in microseconds ([`BackendKind::Wan`] only).
    pub rtt_us: f64,
    /// WAN request batch size: block requests amortized per round trip
    /// ([`BackendKind::Wan`] only).
    pub wan_batch: usize,
    /// Disk backend directory ([`BackendKind::Disk`] only); `None` uses
    /// a fresh temporary directory, removed after the run.
    pub disk_dir: Option<PathBuf>,
    /// Position map backend the controller runs.
    pub posmap: PosmapKind,
    /// Overrides the configured PLB capacity (entries) when set.
    pub plb_entries: Option<usize>,
    /// On-chip budget (KiB) the recursive posmap chain terminates under
    /// ([`PosmapKind::Recursive`] only).
    pub posmap_onchip_kb: u32,
}

impl ServeOptions {
    /// Fast settings for CI smoke runs: seconds, not minutes.
    pub fn quick() -> Self {
        ServeOptions {
            clients: 4,
            requests: 250,
            base_gap_cycles: 25_000.0,
            load: 1.0,
            scheduler: None,
            domain: 256,
            levels: 12,
            seed: 7,
            shards: 1,
            threads: 1,
            backend: BackendKind::Dram,
            rtt_us: 200.0,
            wan_batch: 4,
            disk_dir: None,
            posmap: PosmapKind::Flat,
            plb_entries: None,
            posmap_onchip_kb: 64,
        }
    }

    /// Full-fidelity settings matching the default experiment scale.
    pub fn full() -> Self {
        ServeOptions { requests: 1000, domain: 1024, levels: 14, ..ServeOptions::quick() }
    }

    /// The service configuration at a given load factor (scheduler is
    /// set per run).
    fn service_config(&self, load: f64) -> ServiceConfig {
        ServiceConfig::symmetric_open(
            self.clients,
            self.requests,
            self.base_gap_cycles / load,
            self.domain,
            self.seed,
        )
    }
}

/// A validated serve run: the per-scheduler report plus the per-client
/// accounting section of the text output.
#[derive(Debug, Clone)]
pub struct ServeArtifacts {
    /// Per-scheduler latency/throughput summaries (renders, serializes,
    /// and compares against a baseline).
    pub report: ServiceReport,
    /// Per-client serve-class breakdown, one section per policy.
    pub client_section: String,
    /// The recursive-posmap status line (chain depth, modeled on-chip
    /// state, PLB capacity); empty under a flat posmap so flat output
    /// stays byte-identical to the pre-recursion format.
    pub posmap_section: String,
}

/// Folds a validated run into its scheduler summary line.
fn summarize(name: &str, res: &ServiceResult) -> SchedulerSummary {
    let mut lat: Vec<u64> =
        res.clients.iter().flat_map(|c| c.latencies.iter().copied()).collect();
    let latency = LatencySummary::from_samples(&mut lat);
    let completed = res.completed();
    let total_cycles = res.stats.total_cycles;
    let throughput_rpmc =
        if total_cycles == 0 { 0.0 } else { completed as f64 * 1e6 / total_cycles as f64 };
    let onchip = res
        .clients
        .iter()
        .map(|c| c.served[0] + c.served[1]) // stash + treetop
        .sum();
    SchedulerSummary {
        policy: name.to_string(),
        completed,
        issued: res.issued(),
        coalesced: res.coalesced(),
        rejected: res.rejected(),
        onchip,
        total_cycles,
        throughput_rpmc,
        latency,
    }
}

/// Blocks prefilled into the working set are capped here: prefill cost
/// is O(blocks) on the host, and a billion-address domain would spend
/// longer installing its working set than serving it. Requests past the
/// prefilled span are first touches, exactly as a cold block would be.
const PREFILL_CAP: u64 = 8192;

/// The system configuration `repro serve` runs under: depth `L` plus
/// the posmap mode and PLB overrides from the options.
fn serve_system(opts: &ServeOptions) -> Result<SystemConfig, String> {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = opts.levels;
    if opts.posmap == PosmapKind::Recursive {
        sys.oram.posmap = PosMapSelect::Recursive { onchip_kb: opts.posmap_onchip_kb };
    }
    if let Some(entries) = opts.plb_entries {
        sys.oram.plb_entries = entries;
    }
    sys.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    Ok(sys)
}

/// Builds a WAN backend with the given round-trip time and request
/// batch, on `sys`'s clock.
pub(crate) fn wan_backend(
    rtt_us: f64,
    batch: usize,
    sys: &SystemConfig,
) -> Result<WanBackend, String> {
    let per_block = WanConfig::default_wan().per_block_cycles;
    WanBackend::new(WanConfig::from_rtt_us(rtt_us, sys.dram.tck_ns, per_block, batch))
}

/// Builds (or reopens) the disk bucket store for `sys`'s tree in `dir`.
pub(crate) fn disk_backend(dir: PathBuf, sys: &SystemConfig) -> Result<DiskBackend, String> {
    let bucket_count = (1u64 << (sys.oram.levels + 1)) - 1;
    DiskBackend::new(DiskConfig::new(dir, sys.oram.z, bucket_count))
}

/// An ephemeral disk-store directory, removed when the guard drops —
/// also when the run that owned it bails out early.
#[derive(Debug)]
pub(crate) struct EphemeralDir(pub(crate) PathBuf);

impl Drop for EphemeralDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one policy at one load factor through the full validation
/// stack and returns the summary plus the raw result: the backend
/// ladder in front of [`run_policy_on`].
fn run_policy(
    opts: &ServeOptions,
    policy: SchedPolicy,
    load: f64,
    live: Option<&LiveRun>,
) -> Result<(SchedulerSummary, ServiceResult), String> {
    let name = policy.name();
    let mut sys = serve_system(opts).map_err(|e| format!("{name}: {e}"))?;
    // Shards overlap access k+1's path read with access k's eviction
    // tail; the hazard check stalls same-path and stash-pressure cases.
    // One shard is the reference engine, unpipelined.
    sys.pipeline = opts.shards > 1;
    match opts.backend {
        BackendKind::Dram => {
            run_policy_on(opts, policy, load, &sys, live, |_| DramBackend::new(sys.dram))
        }
        BackendKind::Wan => run_policy_on(opts, policy, load, &sys, live, |_| {
            wan_backend(opts.rtt_us, opts.wan_batch, &sys).map_err(|e| format!("wan: {e}"))
        }),
        BackendKind::Disk => {
            let tag = format!("{name}_{load:.2}").replace('.', "p");
            let (root, _cleanup) = match &opts.disk_dir {
                Some(d) => (d.join(tag), None),
                None => {
                    let d = std::env::temp_dir()
                        .join(format!("oram_serve_disk_{}_{tag}", std::process::id()));
                    (d.clone(), Some(EphemeralDir(d)))
                }
            };
            run_policy_on(opts, policy, load, &sys, live, |i| {
                disk_backend(root.join(format!("shard_{i}")), &sys).map_err(|e| format!("disk: {e}"))
            })
        }
    }
}

/// The backend-generic body of [`run_policy`]: builds `opts.shards`
/// engines over `make_backend`'s stores (one shard keeps the seed
/// verbatim — the reference engine; more derive a seed each), puts an
/// online bus audit and a telemetry recorder on every shard, drives the
/// service front-end over them and validates each shard independently —
/// its bus traffic must pass the obliviousness audit on its own, and its
/// telemetry spans must partition their latencies exactly.
///
/// Both per-shard verdicts are reached while the run is going: the
/// [`LaneAudit`] folds the trace grammars over each batch of bus events
/// as the engine reports it and the telemetry recorder checks each span
/// as it is pushed, so neither the trace nor more than the span ring is
/// ever held, and what is left for after the run is to ask.
fn run_policy_on<B: StorageBackend>(
    opts: &ServeOptions,
    policy: SchedPolicy,
    load: f64,
    sys: &SystemConfig,
    live: Option<&LiveRun>,
    make_backend: impl FnMut(usize) -> Result<B, String>,
) -> Result<(SchedulerSummary, ServiceResult), String> {
    let name = policy.name();
    let mut cfg = opts.service_config(load);
    cfg.scheduler = policy;

    let mut backend =
        ShardedOram::with_backend_factory(sys.clone(), opts.shards, opts.threads, make_backend)
            .map_err(|e| format!("{name}: {e}"))?;
    backend.prefill_working_set(cfg.address_span().min(PREFILL_CAP));
    let probes: Vec<_> = (0..opts.shards)
        .map(|i| {
            let engine = backend.engine_mut(i);
            let audit = LaneAudit::shared(&engine.config().oram);
            let telem = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 16 });
            // A lone engine runs on the service thread, so a live plane
            // can be teed in engine-side: the telemetry recorder stays
            // primary (validation reads it) and the plane sees the same
            // spans, Eq. 1 windows and stash samples as they happen. With
            // more shards the engine sinks fire on worker threads, and the
            // plane stays off those so the deterministic schedule is
            // untouched; completions still carry their shard id, so the
            // per-shard breakdown is live.
            let sink = match live {
                Some(lr) if opts.shards == 1 => TeeSink::shared(
                    TelemetryRecorder::as_sink(&telem),
                    LivePlane::as_sink(&lr.plane),
                ),
                _ => TelemetryRecorder::as_sink(&telem),
            };
            engine.attach_bus_observer(audit.clone());
            engine.attach_telemetry(sink, 50_000);
            (audit, telem)
        })
        .collect();

    let mut sim = ShardedServiceSim::new(cfg, backend).map_err(|e| format!("{name}: {e}"))?;
    sim.attach_telemetry(TelemetryRecorder::as_sink(&probes[0].1));
    if let Some(lr) = live {
        sim.attach_live(LivePlane::as_live(&lr.plane));
    }
    match live.and_then(|lr| lr.top.as_ref()) {
        Some(top) => {
            while sim.step() {
                top.maybe_draw(&live.expect("top implies live").plane);
            }
        }
        None => sim.run(),
    }
    let (res, mut backend) = sim.finish();

    // 1. Service conservation laws against the merged engine counters.
    res.validate().map_err(|e| format!("{name}: {e}"))?;
    for (i, (audit, telem)) in probes.iter().enumerate() {
        let engine = backend.engine_mut(i);
        engine.detach_telemetry();
        engine.detach_bus_observer();
        // 2. Every span's attribution partitioned its latency exactly,
        //    with queue_wait = start − arrival — every span, not only
        //    the ones the ring still holds.
        telem
            .lock()
            .expect("recorder poisoned")
            .attribution()
            .map_err(|e| format!("{name}: shard {i} attribution: {e}"))?;
        // 3. The shard's bus traffic was a valid ORAM trace on its own (a
        //    shard that saw no traffic has nothing to answer for): the
        //    data-path grammar (which skips posmap events) and leaf
        //    uniformity, then the recursive posmap's own structural
        //    grammar (vacuous under a flat posmap, which emits no posmap
        //    events).
        audit
            .lock()
            .expect("audit poisoned")
            .finish()
            .map_err(|e| format!("{name}: shard {i} {e}"))?;
    }
    // 4. The live plane (when attached) conserved every count: folded +
    //    ring + open window totals equal the cumulative registry.
    finish_live(name, live)?;

    Ok((summarize(name, &res), res))
}

/// Closes the live plane's open window after a policy run and checks
/// the window conservation law.
fn finish_live(name: &str, live: Option<&LiveRun>) -> Result<(), String> {
    if let Some(lr) = live {
        let mut p = lr.plane.lock().expect("plane lock");
        p.flush();
        p.validate_conservation()
            .map_err(|e| format!("{name}: observability conservation: {e}"))?;
    }
    Ok(())
}

/// Renders one policy's per-client accounting lines.
fn render_clients(policy: SchedPolicy, res: &ServiceResult) -> String {
    let mut out = format!("per-client ({}):\n", policy.name());
    for (i, c) in res.clients.iter().enumerate() {
        let classes: Vec<String> = SERVE_CLASS_NAMES
            .iter()
            .zip(c.served)
            .filter(|(_, n)| *n > 0)
            .map(|(name, n)| format!("{name} {n}"))
            .collect();
        let mean_wait = c.wait_sum.checked_div(c.completed).unwrap_or(0);
        out.push_str(&format!(
            "  client {i}: completed {} rejected {} coalesced {} | {} | wait mean {} max {}\n",
            c.completed,
            c.rejected,
            c.coalesced,
            classes.join(", "),
            mean_wait,
            c.wait_max,
        ));
    }
    out
}

/// Runs the configured policy set through the full validation stack.
///
/// # Errors
///
/// Returns a message naming the first policy whose run failed
/// validation (conservation, attribution, or the trace audit).
pub fn run_serve(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
) -> Result<ServeArtifacts, String> {
    run_serve_live(opts, progress, None)
}

/// [`run_serve`] with an optional live observability plane attached:
/// every policy run feeds the same plane, whose conservation law is
/// checked after each run. The returned artifacts are byte-identical
/// with the plane attached or absent (a CLI test holds this line).
///
/// # Errors
///
/// As [`run_serve`], plus a plane conservation failure.
pub fn run_serve_live(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
    live: Option<&LiveRun>,
) -> Result<ServeArtifacts, String> {
    let policies: Vec<SchedPolicy> = match opts.scheduler {
        Some(p) => vec![p],
        None => SchedPolicy::ALL.to_vec(),
    };
    let mut schedulers = Vec::new();
    let mut client_section = String::new();
    for (done, &policy) in policies.iter().enumerate() {
        let (summary, res) = run_policy(opts, policy, opts.load, live)?;
        schedulers.push(summary);
        client_section.push_str(&render_clients(policy, &res));
        if let Some(hb) = progress {
            hb.tick(done + 1, policies.len());
        }
    }
    let cfg = opts.service_config(opts.load);
    let report = ServiceReport {
        meta: ServiceMeta {
            clients: opts.clients as u64,
            requests_per_client: opts.requests,
            queue_capacity: cfg.queue_capacity as u64,
            batch_size: cfg.batch_size as u64,
            levels: opts.levels,
            seed: opts.seed,
            load: opts.load,
            shards: opts.shards as u64,
            backend: opts.backend.name().to_string(),
            posmap: opts.posmap.name().to_string(),
        },
        schedulers,
    };
    let posmap_section = posmap_status(opts)?;
    Ok(ServeArtifacts { report, client_section, posmap_section })
}

/// The recursive-posmap status line of a serve run: chain depth,
/// modeled on-chip state against the terminal-map budget, and PLB
/// capacity. The geometry is fixed by the configuration, so it is worked
/// out from it ([`RecursivePosMap::chain`]) without building a map.
/// Empty in flat mode.
///
/// # Errors
///
/// Returns a configuration rejection.
pub fn posmap_status(opts: &ServeOptions) -> Result<String, String> {
    if opts.posmap != PosmapKind::Recursive {
        return Ok(String::new());
    }
    let oram = serve_system(opts)?.oram;
    let shape = TreeShape::new(oram.levels, oram.z);
    let chain = RecursivePosMap::chain(&oram, shape, opts.posmap_onchip_kb);
    Ok(format!(
        "posmap: recursive, {} chain levels, on-chip state {:.1} KiB \
         (terminal-map budget {} KiB), plb {} entries\n",
        chain.counts.len(),
        chain.onchip_bytes as f64 / 1024.0,
        opts.posmap_onchip_kb,
        oram.plb_entries,
    ))
}

/// Load factors the sweep visits, spanning well under to well past
/// saturation.
pub const SWEEP_LOADS: [f64; 8] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0];

/// Load factors the *shard* sweep visits: the sharded backend pushes the
/// saturation knee far past the single-backend range, so the sweep must
/// reach much heavier loads for every shard count to show its knee.
pub const SHARD_SWEEP_LOADS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// One measured operating point of the load sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Offered-rate multiplier.
    pub load: f64,
    /// Offered requests per million cycles (generated, pre-admission).
    pub offered_rpmc: f64,
    /// Completed requests per million cycles.
    pub achieved_rpmc: f64,
    /// Fraction of generated requests bounced by admission control.
    pub rejected_frac: f64,
    /// Latency summary at this point.
    pub latency: LatencySummary,
}

/// A full load sweep: every operating point plus the detected knee.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Policy the sweep ran under.
    pub policy: SchedPolicy,
    /// Measured points, in swept-load order ([`SWEEP_LOADS`] for the
    /// plain sweep, [`SHARD_SWEEP_LOADS`] under the shard sweep).
    pub points: Vec<SweepPoint>,
    /// First load factor where admission control rejected more than 5%
    /// of offered requests — the saturation knee. `None` if the sweep
    /// never saturated.
    pub knee: Option<f64>,
}

impl SweepReport {
    /// Renders the sweep table plus the knee verdict.
    pub fn render(&self) -> String {
        let mut out = format!("load sweep ({}):\n", self.policy.name());
        out.push_str(&format!(
            "  {:>6} {:>12} {:>13} {:>9} {:>10} {:>10} {:>10}\n",
            "load", "offered/Mc", "achieved/Mc", "rej%", "p50", "p99", "p99.9"
        ));
        for p in &self.points {
            out.push_str(&format!(
                "  {:>6.2} {:>12.2} {:>13.2} {:>8.1}% {:>10} {:>10} {:>10}\n",
                p.load,
                p.offered_rpmc,
                p.achieved_rpmc,
                p.rejected_frac * 100.0,
                p.latency.p50,
                p.latency.p99,
                p.latency.p999,
            ));
        }
        match self.knee {
            Some(k) => out.push_str(&format!(
                "saturation knee at load {k:.2} (first point rejecting > 5% of offered requests)\n"
            )),
            None => out.push_str("no saturation knee within the swept range\n"),
        }
        out
    }
}

/// Sweeps [`SWEEP_LOADS`] under one policy (the configured one, or
/// FCFS) and locates the saturation knee. Every point runs the same
/// validation stack as [`run_serve`].
///
/// # Errors
///
/// Returns the first point's validation failure.
pub fn run_serve_sweep(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
) -> Result<SweepReport, String> {
    sweep_loads(opts, &SWEEP_LOADS, progress, None)
}

/// [`run_serve_sweep`] with an optional live observability plane: the
/// plane accumulates across every swept load point.
///
/// # Errors
///
/// As [`run_serve_sweep`], plus a plane conservation failure.
pub fn run_serve_sweep_live(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
    live: Option<&LiveRun>,
) -> Result<SweepReport, String> {
    sweep_loads(opts, &SWEEP_LOADS, progress, live)
}

/// The sweep engine behind [`run_serve_sweep`] and [`run_shard_sweep`]:
/// one validated run per load factor, knee detection at the 5% rejection
/// threshold.
fn sweep_loads(
    opts: &ServeOptions,
    loads: &[f64],
    progress: Option<&Heartbeat>,
    live: Option<&LiveRun>,
) -> Result<SweepReport, String> {
    let policy = opts.scheduler.unwrap_or(SchedPolicy::Fcfs);
    let mut points = Vec::new();
    let mut knee = None;
    for (done, &load) in loads.iter().enumerate() {
        let (summary, res) = run_policy(opts, policy, load, live)?;
        let generated: u64 = res.clients.iter().map(|c| c.generated).sum();
        let cycles = summary.total_cycles.max(1);
        let rejected_frac =
            if generated == 0 { 0.0 } else { summary.rejected as f64 / generated as f64 };
        points.push(SweepPoint {
            load,
            offered_rpmc: generated as f64 * 1e6 / cycles as f64,
            achieved_rpmc: summary.throughput_rpmc,
            rejected_frac,
            latency: summary.latency,
        });
        if knee.is_none() && rejected_frac > 0.05 {
            knee = Some(load);
        }
        if let Some(hb) = progress {
            hb.tick(done + 1, loads.len());
        }
    }
    Ok(SweepReport { policy, points, knee })
}

/// Shard counts the shard sweep visits.
pub const SHARD_SWEEP: [usize; 3] = [1, 2, 4];

/// A load sweep per shard count: how the saturation knee moves as the
/// address space is partitioned across more concurrent shards.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSweepReport {
    /// Policy every sweep ran under.
    pub policy: SchedPolicy,
    /// `(shard count, sweep)` pairs in [`SHARD_SWEEP`] order.
    pub entries: Vec<(usize, SweepReport)>,
}

impl ShardSweepReport {
    /// The achieved throughput at the saturation knee (or at the heaviest
    /// swept load if the sweep never saturated) for one entry.
    pub fn knee_throughput(sweep: &SweepReport) -> f64 {
        let point = match sweep.knee {
            Some(k) => sweep.points.iter().find(|p| p.load == k),
            None => sweep.points.last(),
        };
        point.map_or(0.0, |p| p.achieved_rpmc)
    }

    /// The latency summary at load 1.0 for one entry (zeros if the
    /// sweep skipped that load).
    fn at_load_one(sweep: &SweepReport) -> (u64, u64) {
        sweep
            .points
            .iter()
            .find(|p| p.load == 1.0)
            .map_or((0, 0), |p| (p.latency.p99, p.latency.p999))
    }

    /// Renders the cross-shard summary table followed by each per-shard
    /// sweep.
    pub fn render(&self) -> String {
        let mut out = format!("shard sweep ({}):\n", self.policy.name());
        out.push_str(&format!(
            "  {:>6} {:>8} {:>13} {:>10} {:>10}\n",
            "shards", "knee", "knee req/Mcyc", "p99@1.0", "p99.9@1.0"
        ));
        for (m, sweep) in &self.entries {
            let knee = sweep
                .knee
                .map_or_else(|| "none".to_string(), |k| format!("{k:.2}"));
            let (p99, p999) = Self::at_load_one(sweep);
            out.push_str(&format!(
                "  {:>6} {:>8} {:>13.2} {:>10} {:>10}\n",
                m,
                knee,
                Self::knee_throughput(sweep),
                p99,
                p999
            ));
        }
        for (m, sweep) in &self.entries {
            out.push_str(&format!("-- shards {m} --\n"));
            out.push_str(&sweep.render());
        }
        out
    }

    /// The knee table for CSV export: one row per shard count with the
    /// knee load, knee throughput, and the load-1.0 tail (p99 and
    /// p99.9). A sweep that never saturated writes knee 0.
    pub fn knee_table(&self) -> Table {
        let mut t = Table::new(
            "Fig C1: shard sweep saturation knee",
            &["knee_load", "knee_req_per_mcyc", "p99_at_load1", "p99_9_at_load1"],
        );
        for (m, sweep) in &self.entries {
            let (p99, p999) = Self::at_load_one(sweep);
            t.push(
                format!("shards_{m}"),
                vec![
                    sweep.knee.unwrap_or(0.0),
                    Self::knee_throughput(sweep),
                    p99 as f64,
                    p999 as f64,
                ],
            );
        }
        t
    }
}

/// Runs one [`SHARD_SWEEP_LOADS`] sweep per [`SHARD_SWEEP`] shard count
/// on the identical offered workload, so the knees are directly
/// comparable.
///
/// # Errors
///
/// Returns the first sweep's validation failure.
pub fn run_shard_sweep(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
) -> Result<ShardSweepReport, String> {
    let policy = opts.scheduler.unwrap_or(SchedPolicy::Fcfs);
    let mut entries = Vec::new();
    for (done, &m) in SHARD_SWEEP.iter().enumerate() {
        let o = ServeOptions { shards: m, ..opts.clone() };
        entries.push((m, sweep_loads(&o, &SHARD_SWEEP_LOADS, None, None)?));
        if let Some(hb) = progress {
            hb.tick(done + 1, SHARD_SWEEP.len());
        }
    }
    Ok(ShardSweepReport { policy, entries })
}

/// Round-trip times (µs) the WAN sweep visits: same-metro, regional,
/// and cross-region regimes.
pub const WAN_SWEEP_RTTS_US: [f64; 3] = [50.0, 200.0, 800.0];

/// Request batch sizes the WAN sweep visits at each RTT.
pub const WAN_SWEEP_BATCHES: [usize; 5] = [1, 2, 4, 8, 16];

/// One measured operating point of the WAN sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct WanSweepPoint {
    /// Configured round-trip time in microseconds.
    pub rtt_us: f64,
    /// Requests amortized per network round trip.
    pub batch: usize,
    /// Cycles over the measured misses.
    pub total_cycles: u64,
    /// `total_cycles / measured misses` — the figure's y-axis.
    pub per_request_cycles: f64,
    /// Cycles attributed to network round trips.
    pub network_cycles: u64,
    /// 99th-percentile end-to-end access latency (cycles), from the
    /// telemetry spans of the measured misses.
    pub p99_cycles: u64,
    /// 99.9th-percentile end-to-end access latency (cycles).
    pub p999_cycles: u64,
}

/// The RTT-vs-batch WAN sweep: per-request cost as batching amortizes
/// round trips, at several latency regimes.
#[derive(Debug, Clone, PartialEq)]
pub struct WanSweepReport {
    /// Workload driving the miss stream.
    pub workload: String,
    /// Measured misses per point (identical stream at every point).
    pub misses: u64,
    /// Tree depth `L`.
    pub levels: u32,
    /// Master seed.
    pub seed: u64,
    /// Points in `(RTT, batch)` lexicographic sweep order.
    pub points: Vec<WanSweepPoint>,
}

impl WanSweepReport {
    /// Renders the per-point table plus the amortization verdict.
    pub fn render(&self) -> String {
        let mut out = format!(
            "wan sweep ({} misses of {}, levels {}):\n",
            self.misses, self.workload, self.levels
        );
        out.push_str(&format!(
            "  {:>8} {:>6} {:>14} {:>12} {:>6} {:>10} {:>10}\n",
            "rtt_us", "batch", "cycles/req", "network", "net%", "p99", "p99.9"
        ));
        for p in &self.points {
            let netpct = if p.total_cycles == 0 {
                0.0
            } else {
                100.0 * p.network_cycles as f64 / p.total_cycles as f64
            };
            out.push_str(&format!(
                "  {:>8.0} {:>6} {:>14.1} {:>12} {:>5.1}% {:>10} {:>10}\n",
                p.rtt_us,
                p.batch,
                p.per_request_cycles,
                p.network_cycles,
                netpct,
                p.p99_cycles,
                p.p999_cycles
            ));
        }
        out.push_str(
            "per-request cycles are monotone non-increasing in the batch size at every RTT\n",
        );
        out
    }

    /// The figure table: one row per RTT, one column per batch size,
    /// cell = per-request cycles; followed by `p99_rtt_*` and
    /// `p99_9_rtt_*` rows carrying the tail latency at the same points.
    pub fn table(&self) -> Table {
        let cols: Vec<String> =
            WAN_SWEEP_BATCHES.iter().map(|b| format!("batch_{b}")).collect();
        let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
        let mut t = Table::new(
            "Fig B1: WAN per-request cycles vs request batch",
            &col_refs,
        );
        for &rtt in &WAN_SWEEP_RTTS_US {
            let row: Vec<f64> = self
                .points
                .iter()
                .filter(|p| p.rtt_us == rtt)
                .map(|p| p.per_request_cycles)
                .collect();
            t.push(format!("rtt_{rtt:.0}us"), row);
        }
        for (tag, pick) in [
            ("p99", (|p: &WanSweepPoint| p.p99_cycles) as fn(&WanSweepPoint) -> u64),
            ("p99_9", |p: &WanSweepPoint| p.p999_cycles),
        ] {
            for &rtt in &WAN_SWEEP_RTTS_US {
                let row: Vec<f64> = self
                    .points
                    .iter()
                    .filter(|p| p.rtt_us == rtt)
                    .map(|p| pick(p) as f64)
                    .collect();
                t.push(format!("{tag}_rtt_{rtt:.0}us"), row);
            }
        }
        t
    }
}

/// Sweeps [`WAN_SWEEP_RTTS_US`] × [`WAN_SWEEP_BATCHES`] over the
/// identical replayed miss stream and self-checks the amortization law:
/// at fixed RTT, per-request cycles must be monotone non-increasing in
/// the batch size. The stream is replayed through [`Engine::run`]
/// directly (no admission control), so the per-request figure divides by
/// a fixed miss count and the law is exact.
///
/// # Errors
///
/// Returns the first configuration or monotonicity failure.
pub fn run_wan_sweep(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
) -> Result<WanSweepReport, String> {
    let workload = "mcf";
    let sys = serve_system(opts)?;
    let ro = RunOptions {
        misses: opts.requests,
        warmup_misses: opts.requests / 4,
        seed: opts.seed,
        fill_target: 0.35,
        o3: None,
    };
    let scaled = scale_profile(&spec::profile(workload), &sys, ro.fill_target);
    let records = build_miss_stream(&scaled, sys.hierarchy, &ro);
    let split = (ro.warmup_misses as usize).min(records.len());
    let (warm, measured) = records.split_at(split);
    if measured.is_empty() {
        return Err("wan sweep: no measured misses".to_string());
    }

    let total_points = WAN_SWEEP_RTTS_US.len() * WAN_SWEEP_BATCHES.len();
    let mut points = Vec::with_capacity(total_points);
    for &rtt_us in &WAN_SWEEP_RTTS_US {
        let mut prev: Option<f64> = None;
        for &batch in &WAN_SWEEP_BATCHES {
            let backend =
                wan_backend(rtt_us, batch, &sys).map_err(|e| format!("wan sweep: {e}"))?;
            let mut engine = Engine::with_backend(sys.clone(), backend)
                .map_err(|e| format!("wan sweep: engine: {e}"))?;
            engine.prefill_working_set(scaled.working_set_blocks);
            if !warm.is_empty() {
                engine.run(&mut ReplayMisses::new(warm.to_vec()));
            }
            let rec = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 16 });
            engine.attach_telemetry(TelemetryRecorder::as_sink(&rec), 50_000);
            let before = engine.stats();
            let after = engine.run(&mut ReplayMisses::new(measured.to_vec()));
            engine.detach_telemetry();

            let total_cycles = after.total_cycles - before.total_cycles;
            let per_request_cycles = total_cycles as f64 / measured.len() as f64;
            let (network_cycles, p99_cycles, p999_cycles) = {
                let rec = rec.lock().expect("recorder poisoned");
                rec.attribution()
                    .map_err(|e| format!("wan sweep rtt {rtt_us} batch {batch}: {e}"))?;
                let mut lat: Vec<u64> =
                    rec.spans().iter().map(|s| s.end - s.arrival).collect();
                let summary = LatencySummary::from_samples(&mut lat);
                (
                    rec.metrics().histogram(MetricId::AttrNetwork).sum(),
                    summary.p99,
                    summary.p999,
                )
            };
            if let Some(prev) = prev {
                if per_request_cycles > prev {
                    return Err(format!(
                        "wan sweep: batching slowed the run at rtt {rtt_us}us: batch {batch} \
                         costs {per_request_cycles:.1} cycles/request, smaller batch cost \
                         {prev:.1}"
                    ));
                }
            }
            prev = Some(per_request_cycles);
            points.push(WanSweepPoint {
                rtt_us,
                batch,
                total_cycles,
                per_request_cycles,
                network_cycles,
                p99_cycles,
                p999_cycles,
            });
            if let Some(hb) = progress {
                hb.tick(points.len(), total_points);
            }
        }
    }
    Ok(WanSweepReport {
        workload: workload.to_string(),
        misses: measured.len() as u64,
        levels: opts.levels,
        seed: opts.seed,
        points,
    })
}

/// Tree depths the posmap sweep visits. The deepest point covers a
/// billion-block address space (2^30 addresses), where a flat map's
/// footprint is unbuildable and recursion is mandatory.
pub const POSMAP_SWEEP_LEVELS: [u32; 4] = [14, 18, 24, 30];

/// PLB capacities (entries) the posmap sweep visits at each depth.
pub const POSMAP_SWEEP_PLB: [usize; 3] = [64, 256, 1024];

/// One measured operating point of the posmap sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PosmapSweepPoint {
    /// Tree depth `L`.
    pub levels: u32,
    /// PLB capacity in entries; 0 marks the depth's flat baseline.
    pub plb_entries: usize,
    /// Cycles over the measured requests.
    pub total_cycles: u64,
    /// `total_cycles / measured requests` — the figure's y-axis.
    pub per_request_cycles: f64,
    /// Cycles attributed to costed posmap walks.
    pub posmap_cycles: u64,
    /// This point's per-request cycles over the depth's flat baseline
    /// (1.0 for the baseline itself).
    pub slowdown_vs_flat: f64,
    /// PLB hits over lookups in the measured window (0 when the chain
    /// fits on chip and the PLB is never consulted).
    pub plb_hit_rate: f64,
    /// Off-chip posmap recursion levels at this geometry.
    pub chain_levels: u16,
    /// Modeled on-chip posmap state (terminal map + PLB tags + level
    /// stashes) in bytes.
    pub onchip_bytes: u64,
}

/// The depth-vs-PLB posmap sweep: recursion overhead over the flat
/// baseline as the tree deepens to 2^30 addresses, at several PLB
/// capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct PosmapSweepReport {
    /// Measured requests per point (identical generator at every point).
    pub requests: u64,
    /// On-chip budget (KiB) the recursive chains terminate under.
    pub onchip_kb: u32,
    /// Master seed.
    pub seed: u64,
    /// Points in `(depth; flat, then PLB sizes)` sweep order.
    pub points: Vec<PosmapSweepPoint>,
}

impl PosmapSweepReport {
    /// Renders the per-point table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "posmap sweep ({} requests/point, on-chip budget {} KiB):\n",
            self.requests, self.onchip_kb
        );
        out.push_str(&format!(
            "  {:>6} {:>10} {:>6} {:>12} {:>9} {:>8} {:>8} {:>6} {:>10}\n",
            "levels", "posmap", "plb", "cycles/req", "slowdown", "posmap%", "plb_hit%", "chain",
            "onchip_kb"
        ));
        for p in &self.points {
            let posmap_pct = if p.total_cycles == 0 {
                0.0
            } else {
                100.0 * p.posmap_cycles as f64 / p.total_cycles as f64
            };
            let (mode, plb) = if p.plb_entries == 0 {
                ("flat", "-".to_string())
            } else {
                ("recursive", p.plb_entries.to_string())
            };
            out.push_str(&format!(
                "  {:>6} {:>10} {:>6} {:>12.1} {:>8.3}x {:>7.1}% {:>7.1}% {:>6} {:>10.1}\n",
                p.levels,
                mode,
                plb,
                p.per_request_cycles,
                p.slowdown_vs_flat,
                posmap_pct,
                p.plb_hit_rate * 100.0,
                p.chain_levels,
                p.onchip_bytes as f64 / 1024.0,
            ));
        }
        out.push_str("recursion costs nothing where the terminal map fits on chip\n");
        out
    }

    /// The figure table: one row per `(depth, posmap mode)` point with
    /// the per-request cycles, overhead over flat, posmap share, and
    /// PLB hit rate.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Fig D1: recursive posmap overhead vs tree depth and PLB size",
            &["cycles_per_req", "slowdown_vs_flat", "posmap_pct", "plb_hit_pct"],
        );
        for p in &self.points {
            let posmap_pct = if p.total_cycles == 0 {
                0.0
            } else {
                100.0 * p.posmap_cycles as f64 / p.total_cycles as f64
            };
            let label = if p.plb_entries == 0 {
                format!("L{}_flat", p.levels)
            } else {
                format!("L{}_plb{}", p.levels, p.plb_entries)
            };
            t.push(
                label,
                vec![
                    p.per_request_cycles,
                    p.slowdown_vs_flat,
                    posmap_pct,
                    p.plb_hit_rate * 100.0,
                ],
            );
        }
        t
    }
}

/// A deterministic xorshift64 step (the sweep's address generator; the
/// stream must be identical at every operating point).
fn posmap_sweep_rng(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// The sweep's request stream: 7/8 of the traffic inside a fixed hot
/// span (a posmap page working set the larger PLBs can hold), the rest
/// uniform over the whole domain, so the hit rate responds to the PLB
/// capacity while deep trees still see cold pages.
fn posmap_sweep_stream(n: usize, domain: u64, hot_span: u64, seed: u64) -> Vec<MissRecord> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            let r = posmap_sweep_rng(&mut s);
            let span = if r.is_multiple_of(8) { domain } else { hot_span };
            MissRecord {
                block_addr: (r >> 8) % span.max(1),
                is_write: r.is_multiple_of(3),
                gap_cycles: 0,
                blocking: true,
            }
        })
        .collect()
}

/// Measures one `(depth, posmap mode)` point over the replayed stream.
/// The flat baseline runs the sparse functional map — cost-identical to
/// the flat array (no costed walk, zero posmap attribution) without its
/// O(N) footprint, so billion-block depths have a baseline at all.
fn posmap_sweep_point(
    opts: &ServeOptions,
    levels: u32,
    plb: Option<usize>,
) -> Result<PosmapSweepPoint, String> {
    let tag = format!("posmap sweep L{levels}");
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = levels;
    sys.oram.posmap = match plb {
        Some(_) => PosMapSelect::Recursive { onchip_kb: opts.posmap_onchip_kb },
        None => PosMapSelect::Sparse,
    };
    if let Some(entries) = plb {
        sys.oram.plb_entries = entries;
    }
    sys.validate().map_err(|e| format!("{tag}: invalid configuration: {e}"))?;

    let domain = (1u64 << levels).min(1 << 30);
    let hot_span = (sys.oram.plb_page_addrs * 256).min(domain);
    let mut engine = Engine::new(sys).map_err(|e| format!("{tag}: engine: {e}"))?;
    engine.prefill_working_set(domain.min(4096));

    let n = (opts.requests as usize).max(1);
    let warm = posmap_sweep_stream(n / 4, domain, hot_span, opts.seed ^ 0xD15C);
    let measured = posmap_sweep_stream(n, domain, hot_span, opts.seed);
    engine.run(&mut ReplayMisses::new(warm));

    let rec = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 16 });
    engine.attach_telemetry(TelemetryRecorder::as_sink(&rec), 50_000);
    let plb_before = engine.controller().plb_stats();
    let before = engine.stats();
    let after = engine.run(&mut ReplayMisses::new(measured));
    engine.detach_telemetry();
    let plb_after = engine.controller().plb_stats();

    let total_cycles = after.total_cycles - before.total_cycles;
    let posmap_cycles = {
        let rec = rec.lock().expect("recorder poisoned");
        rec.attribution().map_err(|e| format!("{tag}: {e}"))?;
        rec.metrics().histogram(MetricId::AttrPosmap).sum()
    };
    let hits = plb_after.hits - plb_before.hits;
    let lookups = hits + (plb_after.misses - plb_before.misses);
    Ok(PosmapSweepPoint {
        levels,
        plb_entries: plb.unwrap_or(0),
        total_cycles,
        per_request_cycles: total_cycles as f64 / n as f64,
        posmap_cycles,
        slowdown_vs_flat: 1.0, // the caller rescales against the baseline
        plb_hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        chain_levels: engine.controller().posmap_chain_levels(),
        onchip_bytes: engine.controller().posmap_onchip_bytes(),
    })
}

/// The sweep engine behind [`run_posmap_sweep`], parameterized on the
/// depth list. Per depth: the flat-cost baseline first, then one
/// recursive point per [`POSMAP_SWEEP_PLB`] capacity, all over the
/// identical request stream. Self-checks the cost model's additivity:
/// recursion never undercuts its own flat baseline.
fn posmap_sweep_at(
    opts: &ServeOptions,
    depths: &[u32],
    progress: Option<&Heartbeat>,
) -> Result<PosmapSweepReport, String> {
    let total_points = depths.len() * (1 + POSMAP_SWEEP_PLB.len());
    let mut points = Vec::with_capacity(total_points);
    for &levels in depths {
        let flat = posmap_sweep_point(opts, levels, None)?;
        let flat_per_req = flat.per_request_cycles;
        points.push(flat);
        if let Some(hb) = progress {
            hb.tick(points.len(), total_points);
        }
        for &plb in &POSMAP_SWEEP_PLB {
            let mut p = posmap_sweep_point(opts, levels, Some(plb))?;
            p.slowdown_vs_flat =
                if flat_per_req == 0.0 { 1.0 } else { p.per_request_cycles / flat_per_req };
            if p.slowdown_vs_flat < 1.0 {
                return Err(format!(
                    "posmap sweep: recursion undercut the flat baseline at L{levels} \
                     plb {plb}: {:.1} vs {flat_per_req:.1} cycles/request",
                    p.per_request_cycles
                ));
            }
            points.push(p);
            if let Some(hb) = progress {
                hb.tick(points.len(), total_points);
            }
        }
    }
    Ok(PosmapSweepReport {
        requests: opts.requests.max(1),
        onchip_kb: opts.posmap_onchip_kb,
        seed: opts.seed,
        points,
    })
}

/// Sweeps [`POSMAP_SWEEP_LEVELS`] × (flat, [`POSMAP_SWEEP_PLB`]) over
/// the identical deterministic request stream: the recursion-overhead
/// figure family, up to a 2^30-address tree.
///
/// # Errors
///
/// Returns the first configuration or additivity failure.
pub fn run_posmap_sweep(
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
) -> Result<PosmapSweepReport, String> {
    posmap_sweep_at(opts, &POSMAP_SWEEP_LEVELS, progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_audit::Recorder;
    use oram_service::ServiceSim;

    fn tiny() -> ServeOptions {
        // Small enough for debug-mode unit tests.
        ServeOptions { requests: 60, ..ServeOptions::quick() }
    }

    #[test]
    fn serve_run_validates_and_reports_every_policy() {
        let arts = run_serve(&tiny(), None).expect("validated run");
        assert_eq!(arts.report.schedulers.len(), SchedPolicy::ALL.len());
        for s in &arts.report.schedulers {
            assert!(s.completed > 0, "{}", s.policy);
            assert!(s.latency.p50 <= s.latency.p99 && s.latency.p99 <= s.latency.p999);
            assert!(s.throughput_rpmc > 0.0);
        }
        for p in SchedPolicy::ALL {
            assert!(arts.client_section.contains(p.name()));
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let a = run_serve(&tiny(), None).expect("run a");
        let b = run_serve(&tiny(), None).expect("run b");
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.to_json(), b.report.to_json());
    }

    #[test]
    fn single_scheduler_option_restricts_the_report() {
        let mut o = tiny();
        o.scheduler = Some(SchedPolicy::RoundRobin);
        let arts = run_serve(&o, None).expect("validated run");
        assert_eq!(arts.report.schedulers.len(), 1);
        assert_eq!(arts.report.schedulers[0].policy, "round_robin");
    }

    #[test]
    fn sharded_serve_validates_every_shard() {
        let mut o = tiny();
        o.shards = 2;
        o.threads = 2;
        o.scheduler = Some(SchedPolicy::Fcfs);
        let arts = run_serve(&o, None).expect("validated sharded run");
        assert_eq!(arts.report.meta.shards, 2);
        assert!(arts.report.schedulers[0].completed > 0);
        // The shard count is part of the serialized metadata.
        assert!(arts.report.to_json().contains("\"shards\":2"));
    }

    #[test]
    fn a_shard_that_saw_no_traffic_still_passes() {
        // Two addresses over four shards: shards 2 and 3 never issue an
        // access, and an audit that saw nothing has nothing to fail.
        let mut o = tiny();
        o.domain = 2;
        o.shards = 4;
        o.scheduler = Some(SchedPolicy::Fcfs);
        let arts = run_serve(&o, None).expect("idle shards validate");
        assert_eq!(arts.report.schedulers[0].completed, o.clients as u64 * o.requests);
    }

    #[test]
    fn sharded_serve_is_thread_count_invariant() {
        let run = |threads| {
            let mut o = tiny();
            o.shards = 4;
            o.threads = threads;
            o.scheduler = Some(SchedPolicy::Fcfs);
            run_serve(&o, None).expect("validated sharded run").report.to_json()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    #[test]
    fn wan_backend_serves_and_tags_the_report() {
        let mut o = tiny();
        o.backend = BackendKind::Wan;
        o.scheduler = Some(SchedPolicy::Fcfs);
        let a = run_serve(&o, None).expect("validated wan run");
        assert_eq!(a.report.meta.backend, "wan");
        assert!(a.report.to_json().contains("\"backend\":\"wan\""));
        assert!(a.report.schedulers[0].completed > 0);
        // The jitter-free model is deterministic across runs.
        let b = run_serve(&o, None).expect("rerun");
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn disk_backend_serves_and_tags_the_report() {
        let mut o = tiny();
        o.backend = BackendKind::Disk;
        o.scheduler = Some(SchedPolicy::Fcfs);
        let a = run_serve(&o, None).expect("validated disk run");
        assert_eq!(a.report.meta.backend, "disk");
        assert!(a.report.schedulers[0].completed > 0);
        let b = run_serve(&o, None).expect("rerun");
        assert_eq!(a.report, b.report);
    }

    /// A fresh directory for a disk-backed test run, removed on drop
    /// (named per caller: tests in this binary run concurrently).
    fn scratch_dir(tag: &str) -> EphemeralDir {
        let dir = std::env::temp_dir()
            .join(format!("oram_serve_test_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        EphemeralDir(dir)
    }

    #[test]
    fn sharded_wan_and_disk_validate() {
        for backend in [BackendKind::Wan, BackendKind::Disk] {
            let run = |threads: usize| {
                let store = scratch_dir(&format!("sharded_{}_{threads}", backend.name()));
                let mut o = tiny();
                o.backend = backend;
                o.shards = 2;
                o.threads = threads;
                o.scheduler = Some(SchedPolicy::Fcfs);
                if backend == BackendKind::Disk {
                    o.disk_dir = Some(store.0.clone());
                }
                let arts = run_serve(&o, None)
                    .unwrap_or_else(|e| panic!("{} threads {threads}: {e}", backend.name()));
                if backend == BackendKind::Disk {
                    // One private store per shard.
                    for shard in ["shard_0", "shard_1"] {
                        let dat = store.0.join("fcfs_1p00").join(shard).join("buckets.dat");
                        assert!(dat.is_file(), "{}", dat.display());
                    }
                }
                arts
            };
            let one = run(1);
            assert_eq!(one.report.meta.shards, 2);
            assert_eq!(one.report.meta.backend, backend.name());
            assert!(one.report.schedulers[0].completed > 0);
            for threads in [2, 4] {
                let again = run(threads);
                assert_eq!(one.report, again.report, "{} threads {threads}", backend.name());
                assert_eq!(one.client_section, again.client_section);
            }
        }
    }

    #[test]
    fn ephemeral_disk_store_is_removed_when_a_later_shard_fails() {
        let mut o = tiny();
        o.backend = BackendKind::Disk;
        o.shards = 2;
        let sys = serve_system(&o).unwrap();
        let store = scratch_dir("failing_shard");
        let err = run_policy_on(&o, SchedPolicy::Fcfs, 1.0, &sys, None, |i| match i {
            0 => disk_backend(store.0.join("shard_0"), &sys),
            _ => Err("disk: no space".to_string()),
        })
        .unwrap_err();
        assert_eq!(err, "fcfs: disk: no space");
        assert!(store.0.join("shard_0").is_dir(), "shard 0's store was created first");
        let root = store.0.clone();
        drop(store);
        assert!(!root.exists(), "the guard removes what the failed run left behind");
    }

    /// Each shard's bus trace of a two-shard FCFS serve over `B`. Queues
    /// deep enough never to bounce a request and no coalescing, so every
    /// backend, however slow, issues the same per-shard access sequence.
    fn shard_traces<B: StorageBackend>(
        make_backend: impl FnMut(usize) -> Result<B, String>,
    ) -> Vec<Vec<oram_util::BusEvent>> {
        let o = tiny();
        let mut sys = serve_system(&o).unwrap();
        sys.pipeline = true;
        let mut cfg = o.service_config(1.0);
        cfg.scheduler = SchedPolicy::Fcfs;
        cfg.coalescing = false;
        cfg.queue_capacity = o.requests as usize;
        let mut backend = ShardedOram::with_backend_factory(sys, 2, 2, make_backend).unwrap();
        backend.prefill_working_set(cfg.address_span());
        let traces = [Recorder::unbounded(), Recorder::unbounded()];
        for (i, trace) in traces.iter().enumerate() {
            backend.engine_mut(i).attach_bus_observer(trace.observer());
        }
        let mut sim = ShardedServiceSim::new(cfg, backend).unwrap();
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        assert_eq!(res.rejected() + res.coalesced(), 0);
        traces.iter().map(Recorder::snapshot).collect()
    }

    #[test]
    fn shard_traces_are_backend_invariant() {
        let sys = serve_system(&tiny()).unwrap();
        let dram = shard_traces(|_| DramBackend::new(sys.dram));
        assert!(dram.iter().all(|t| !t.is_empty()));
        let wan = shard_traces(|_| wan_backend(200.0, 4, &sys));
        assert!(dram == wan, "wan shard traces differ from dram");
        let store = scratch_dir("trace_invariance");
        let disk = shard_traces(|i| disk_backend(store.0.join(format!("shard_{i}")), &sys));
        assert!(dram == disk, "disk shard traces differ from dram");
    }

    #[test]
    fn dram_report_is_backend_field_free() {
        // The DRAM-behind-trait path must serialize byte-identically to
        // the pre-backend output: no "backend" key in its JSON.
        let mut o = tiny();
        o.scheduler = Some(SchedPolicy::Fcfs);
        let arts = run_serve(&o, None).expect("validated run");
        assert_eq!(arts.report.meta.backend, "dram");
        assert!(!arts.report.to_json().contains("backend"));
        // Likewise the flat posmap: no "posmap" key, no status section.
        assert!(!arts.report.to_json().contains("posmap"));
        assert!(arts.posmap_section.is_empty());
    }

    /// A tiny recursive-posmap serve configuration: a 1 KiB terminal
    /// budget forces one off-chip recursion level even at quick depth.
    fn tiny_recursive() -> ServeOptions {
        let mut o = tiny();
        o.posmap = PosmapKind::Recursive;
        o.posmap_onchip_kb = 1;
        o.scheduler = Some(SchedPolicy::Fcfs);
        o
    }

    /// The bus trace of `repro serve --quick --posmap recursive
    /// --posmap-onchip-kb 1 --plb-entries 4` (every scheduler, one engine
    /// each; the small budget and PLB make the chain walk off chip), as
    /// `(events, PosmapBucket events, hash)`. Wired like `run_policy_on`:
    /// one recorder on both ends of the controller↔storage boundary.
    fn quick_recursive_trace_pin() -> (usize, usize, u64) {
        use std::hash::{BuildHasher, Hash, Hasher};

        let mut opts = ServeOptions::quick();
        opts.posmap = PosmapKind::Recursive;
        opts.posmap_onchip_kb = 1;
        opts.plb_entries = Some(4);
        let (mut events, mut posmap_events) = (0, 0);
        let mut hasher = oram_util::DetState.build_hasher();
        for policy in SchedPolicy::ALL {
            let mut cfg = opts.service_config(opts.load);
            cfg.scheduler = policy;
            let mut engine = Engine::new(serve_system(&opts).unwrap()).unwrap();
            engine.prefill_working_set(cfg.address_span().min(PREFILL_CAP));
            let trace = Recorder::unbounded();
            engine.attach_bus_observer(trace.observer());
            let mut sim = ServiceSim::new(cfg, engine).unwrap();
            sim.run();
            let (_, mut engine) = sim.finish();
            engine.detach_bus_observer();
            trace.with_events(|trace| {
                events += trace.len();
                posmap_events += trace
                    .iter()
                    .filter(|e| matches!(e, oram_util::BusEvent::PosmapBucket { .. }))
                    .count();
                trace.hash(&mut hasher);
            });
        }
        (events, posmap_events, hasher.finish())
    }

    /// Batched reporting must not move, add or drop a single bus event —
    /// including the posmap walk's `PosmapBucket` events, which
    /// interleave with the data access framing. The constants were
    /// captured on the commit before reporting was batched.
    #[test]
    fn quick_recursive_serve_trace_is_pinned() {
        assert_eq!(quick_recursive_trace_pin(), (363_786, 19_500, 0xd6c6_6065_a563_e9c0));
    }

    #[test]
    fn recursive_posmap_serve_validates_and_tags_the_report() {
        let o = tiny_recursive();
        let a = run_serve(&o, None).expect("validated recursive run");
        assert_eq!(a.report.meta.posmap, "recursive");
        assert!(a.report.to_json().contains("\"posmap\":\"recursive\""));
        assert!(a.report.schedulers[0].completed > 0);
        // The status line reports the chain geometry.
        assert!(a.posmap_section.starts_with("posmap: recursive, "), "{}", a.posmap_section);
        assert!(a.posmap_section.contains("budget 1 KiB"));
        // Bit-deterministic across runs.
        let b = run_serve(&o, None).expect("rerun");
        assert_eq!(a.report, b.report);
        assert_eq!(a.posmap_section, b.posmap_section);
    }

    #[test]
    fn recursive_posmap_walks_slow_the_serve_down() {
        // With a PLB too small for the domain's page set, most accesses
        // walk the chain, and the identical offered workload must see
        // strictly worse latency (the open-loop run *length* is
        // arrival-dominated, so cycles alone would not move).
        let mut flat = tiny();
        flat.scheduler = Some(SchedPolicy::Fcfs);
        let mut rec = tiny_recursive();
        rec.plb_entries = Some(4);
        let f = run_serve(&flat, None).expect("flat run");
        let r = run_serve(&rec, None).expect("recursive run");
        assert!(
            r.report.schedulers[0].latency.mean > f.report.schedulers[0].latency.mean,
            "recursive mean {} <= flat mean {}",
            r.report.schedulers[0].latency.mean,
            f.report.schedulers[0].latency.mean
        );
    }

    #[test]
    fn sharded_recursive_posmap_serve_validates_every_shard() {
        let mut o = tiny_recursive();
        o.shards = 2;
        o.threads = 2;
        let arts = run_serve(&o, None).expect("validated sharded recursive run");
        assert_eq!(arts.report.meta.posmap, "recursive");
        assert!(arts.report.schedulers[0].completed > 0);
        // Thread-count invariance holds with costed posmap walks too.
        let mut o4 = o.clone();
        o4.threads = 4;
        let again = run_serve(&o4, None).expect("4-thread rerun");
        assert_eq!(arts.report.to_json(), again.report.to_json());
    }

    #[test]
    fn posmap_sweep_reports_overhead_and_hit_rate() {
        let mut o = tiny();
        o.requests = 120;
        o.posmap_onchip_kb = 1; // force off-chip levels at shallow test depths
        let sweep = posmap_sweep_at(&o, &[12, 14], None).expect("posmap sweep");
        let per_depth = 1 + POSMAP_SWEEP_PLB.len();
        assert_eq!(sweep.points.len(), 2 * per_depth);
        for chunk in sweep.points.chunks(per_depth) {
            let flat = &chunk[0];
            assert_eq!(flat.plb_entries, 0);
            assert_eq!(flat.posmap_cycles, 0);
            assert_eq!(flat.chain_levels, 0);
            assert_eq!(flat.slowdown_vs_flat, 1.0);
            for p in &chunk[1..] {
                assert!(p.chain_levels >= 1, "L{} plb {}", p.levels, p.plb_entries);
                assert!(p.slowdown_vs_flat >= 1.0);
                assert!(p.onchip_bytes > 0);
            }
            // The smallest PLB cannot hold the domain's page set, so
            // misses must walk; a PLB covering every page may serve the
            // whole measured window on chip (that is the figure's point).
            assert!(
                chunk[1].posmap_cycles > 0,
                "L{} plb {} never walked",
                flat.levels,
                chunk[1].plb_entries
            );
            // More PLB entries never hit less on the fixed hot span.
            assert!(
                chunk[per_depth - 1].plb_hit_rate >= chunk[1].plb_hit_rate,
                "L{}: plb {} hit {:.3} < plb {} hit {:.3}",
                flat.levels,
                chunk[per_depth - 1].plb_entries,
                chunk[per_depth - 1].plb_hit_rate,
                chunk[1].plb_entries,
                chunk[1].plb_hit_rate,
            );
        }
        // One figure row per point, and the sweep is deterministic.
        assert_eq!(sweep.table().rows.len(), sweep.points.len());
        assert!(sweep.render().contains("plb_hit%"));
        assert_eq!(posmap_sweep_at(&o, &[12, 14], None).expect("rerun"), sweep);
    }

    #[test]
    fn wan_sweep_amortizes_round_trips() {
        let mut o = tiny();
        o.requests = 120;
        let sweep = run_wan_sweep(&o, None).expect("wan sweep");
        assert_eq!(
            sweep.points.len(),
            WAN_SWEEP_RTTS_US.len() * WAN_SWEEP_BATCHES.len()
        );
        // Monotone non-increasing per RTT is validated inside the sweep;
        // spot-check the strict end-to-end win where RTTs dominate.
        for &rtt in &WAN_SWEEP_RTTS_US {
            let row: Vec<&WanSweepPoint> =
                sweep.points.iter().filter(|p| p.rtt_us == rtt).collect();
            assert!(
                row.last().unwrap().per_request_cycles
                    < row.first().unwrap().per_request_cycles,
                "batching must win at rtt {rtt}"
            );
            assert!(row.iter().all(|p| p.network_cycles > 0));
            assert!(row.iter().all(|p| p.p99_cycles > 0 && p.p99_cycles <= p.p999_cycles));
        }
        // Higher RTT costs more at fixed batch.
        let at_batch_1: Vec<f64> = sweep
            .points
            .iter()
            .filter(|p| p.batch == 1)
            .map(|p| p.per_request_cycles)
            .collect();
        assert!(at_batch_1.windows(2).all(|w| w[0] < w[1]));
        // One cycles/req row per RTT plus p99 and p99.9 rows per RTT.
        let t = sweep.table();
        assert_eq!(t.rows.len(), 3 * WAN_SWEEP_RTTS_US.len());
        assert!(sweep.render().contains("monotone non-increasing"));
        assert!(sweep.render().contains("p99.9"));
        // Deterministic for the compare gate.
        assert_eq!(run_wan_sweep(&o, None).expect("rerun"), sweep);
    }

    #[test]
    fn live_plane_attachment_leaves_the_report_identical() {
        use oram_obsv::LiveConfig;

        let mut o = tiny();
        o.scheduler = Some(SchedPolicy::Fcfs);
        let plain = run_serve(&o, None).expect("plain run");

        let cfg = LiveConfig::for_serve(o.clients, o.shards, o.base_gap_cycles as u64, 200);
        let lr = LiveRun::new(LivePlane::shared(cfg), false);
        let live = run_serve_live(&o, None, Some(&lr)).expect("live run");

        // The tentpole invariant: the observed run is byte-identical to
        // the unobserved one.
        assert_eq!(plain.report, live.report);
        assert_eq!(plain.report.to_json(), live.report.to_json());
        assert_eq!(plain.client_section, live.client_section);

        // And the plane actually saw the traffic, conserving counts.
        let p = lr.plane.lock().unwrap();
        let completed = live.report.schedulers[0].completed;
        assert_eq!(p.total().completed, completed);
        assert!(p.total().latency.count() == completed);
        assert!(p.engine_windows() > 0, "engine-side tee must feed Eq. 1 windows");
        assert!(p.stash_peak() > 0, "engine-side tee must feed stash samples");
        p.validate_conservation().expect("conserved");
    }

    #[test]
    fn sharded_live_plane_sees_per_shard_completions() {
        use oram_obsv::LiveConfig;

        let mut o = tiny();
        o.shards = 2;
        o.threads = 2;
        o.scheduler = Some(SchedPolicy::Fcfs);
        let plain = run_serve(&o, None).expect("plain run");

        let cfg = LiveConfig::for_serve(o.clients, o.shards, o.base_gap_cycles as u64, 200);
        let lr = LiveRun::new(LivePlane::shared(cfg), false);
        let live = run_serve_live(&o, None, Some(&lr)).expect("live sharded run");
        assert_eq!(plain.report, live.report);

        let p = lr.plane.lock().unwrap();
        assert_eq!(p.total().completed, live.report.schedulers[0].completed);
        // Both shards served traffic and the plane kept them apart.
        assert!(p.total().shard_completed.iter().all(|&c| c > 0));
        p.validate_conservation().expect("conserved");
    }

    #[test]
    fn shard_sweep_knee_table_has_tail_columns() {
        let report = ShardSweepReport {
            policy: SchedPolicy::Fcfs,
            entries: vec![],
        };
        let t = report.knee_table();
        assert_eq!(
            t.columns,
            ["knee_load", "knee_req_per_mcyc", "p99_at_load1", "p99_9_at_load1"]
        );
        assert!(report.render().contains("p99.9@1.0"));
    }

    #[test]
    fn overload_finds_a_knee() {
        // A gap short enough that the top sweep loads must overflow the
        // queues on a multi-thousand-cycle ORAM access time.
        let mut o = tiny();
        o.base_gap_cycles = 4_000.0;
        let sweep = run_serve_sweep(&o, None).expect("sweep");
        assert_eq!(sweep.points.len(), SWEEP_LOADS.len());
        let knee = sweep.knee.expect("overloaded sweep must saturate");
        assert!(knee > 0.25, "knee at the lightest load suggests a broken base rate");
        assert!(sweep.render().contains("saturation knee"));
        // Rejections are monotone-ish: the heaviest load rejects more
        // than the lightest.
        assert!(
            sweep.points.last().unwrap().rejected_frac
                > sweep.points.first().unwrap().rejected_frac
        );
    }
}
