//! The `repro serve` subcommand's engine: drives the multi-client
//! service front-end over every scheduler policy on the identical
//! offered workload, self-validates each run, and summarizes tail
//! latency and throughput. Four sweeps run one engine over a grid of
//! option edits: load (the saturation knee), shard count, WAN RTT ×
//! batch, and posmap depth × PLB capacity.
//!
//! The validation is the subcommand's contract: a zero exit code means
//! the service conservation laws held (every generated request was
//! admitted or rejected exactly once and every admitted request
//! completed), every telemetry span's cycle attribution partitioned its
//! latency with `queue_wait = start − arrival`, and the service-issued
//! bus trace passed the obliviousness audit (protocol grammar plus leaf
//! uniformity) — coalescing and batch scheduling must be invisible on
//! the memory bus.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use oram_audit::LaneAudit;
use oram_cpu::MissRecord;
use oram_obsv::{render_top, LivePlane};
use oram_protocol::{PosMapSelect, PosmapChain, TreeShape};
use oram_service::{
    LatencySummary, SchedPolicy, SchedulerSummary, ServiceConfig, ServiceMeta, ServiceReport,
    ServiceResult, ShardedServiceSim,
};
use oram_sim::{
    build_miss_stream, scale_profile, DiskBackend, DiskConfig, DramBackend, Engine, RunOptions,
    ShardedOram, StorageBackend, SystemConfig, WanBackend, WanConfig,
};
use oram_telemetry::{TeeSink, TelemetryConfig, TelemetryRecorder};
use oram_util::{MetricId, ServeClass};
use oram_workloads::spec;

use crate::progress::Heartbeat;
use crate::table::Table;
use crate::trace::measured_replay;

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
    last: std::cell::Cell<Option<Instant>>,
}

impl TopTicker {
    /// Minimum wall-clock gap between redraws.
    pub const PERIOD: Duration = Duration::from_millis(500);

    /// A ticker that draws on its first call, then rate-limits.
    pub fn new() -> Self {
        TopTicker { last: std::cell::Cell::new(None) }
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

    /// The service configuration at the options' load factor (scheduler
    /// is set per run).
    fn service_config(&self) -> ServiceConfig {
        ServiceConfig::symmetric_open(
            self.clients,
            self.requests,
            self.base_gap_cycles / self.load,
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
    let mut lat: Vec<u64> = res.clients.iter().flat_map(|c| c.latencies.iter().copied()).collect();
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

/// Runs one policy at the options' load factor through the full
/// validation stack and returns the summary plus the raw result: the
/// backend ladder in front of [`run_policy_on`].
fn run_policy(
    opts: &ServeOptions,
    policy: SchedPolicy,
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
            run_policy_on(opts, policy, &sys, live, |_| DramBackend::new(sys.dram))
        }
        BackendKind::Wan => run_policy_on(opts, policy, &sys, live, |_| {
            wan_backend(opts.rtt_us, opts.wan_batch, &sys).map_err(|e| format!("wan: {e}"))
        }),
        BackendKind::Disk => {
            let tag = format!("{name}_{:.2}", opts.load).replace('.', "p");
            let (root, _cleanup) = match &opts.disk_dir {
                Some(d) => (d.join(tag), None),
                None => {
                    let d = std::env::temp_dir()
                        .join(format!("oram_serve_disk_{}_{tag}", std::process::id()));
                    (d.clone(), Some(EphemeralDir(d)))
                }
            };
            run_policy_on(opts, policy, &sys, live, |i| {
                disk_backend(root.join(format!("shard_{i}")), &sys)
                    .map_err(|e| format!("disk: {e}"))
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
    sys: &SystemConfig,
    live: Option<&LiveRun>,
    make_backend: impl FnMut(usize) -> Result<B, String>,
) -> Result<(SchedulerSummary, ServiceResult), String> {
    let name = policy.name();
    let mut cfg = opts.service_config();
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
        let classes: Vec<String> = ServeClass::ALL
            .iter()
            .zip(c.served)
            .filter(|(_, n)| *n > 0)
            .map(|(class, n)| format!("{} {n}", class.name()))
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
        let (summary, res) = run_policy(opts, policy, live)?;
        schedulers.push(summary);
        client_section.push_str(&render_clients(policy, &res));
        if let Some(hb) = progress {
            hb.tick(done + 1, policies.len());
        }
    }
    let cfg = opts.service_config();
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
/// out from it ([`PosmapChain::new`]) without building a map.
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
    let chain = PosmapChain::new(&oram, shape, opts.posmap_onchip_kb);
    Ok(format!(
        "posmap: recursive, {} chain levels, on-chip state {:.1} KiB \
         (terminal-map budget {} KiB), plb {} entries\n",
        chain.counts.len(),
        chain.onchip_bytes as f64 / 1024.0,
        opts.posmap_onchip_kb,
        oram.plb_entries,
    ))
}

/// One swept dimension: the values it visits and the edit each value
/// makes to a point's options.
#[derive(Debug, Clone, Copy)]
pub struct Axis {
    /// The values visited, in sweep order.
    pub values: &'static [f64],
    /// Applies one value to a point's options.
    pub set: fn(&mut ServeOptions, f64),
}

/// Load factors, from well under to well past saturation.
const LOADS: Axis =
    Axis { values: &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 4.0], set: |o, v| o.load = v };

/// The shard sweep's load factors: sharding pushes the knee far past
/// the single-engine range, so every shard count needs heavier loads.
const SHARD_LOADS: Axis = Axis { values: &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0], ..LOADS };

/// Shard counts.
const SHARDS: Axis = Axis { values: &[1.0, 2.0, 4.0], set: |o, v| o.shards = v as usize };

/// WAN round-trip times (µs): same-metro, regional and cross-region.
const RTTS_US: Axis = Axis { values: &[50.0, 200.0, 800.0], set: |o, v| o.rtt_us = v };

/// Requests amortized per WAN round trip.
const BATCHES: Axis =
    Axis { values: &[1.0, 2.0, 4.0, 8.0, 16.0], set: |o, v| o.wan_batch = v as usize };

/// Tree depths, up to a billion-block tree (2^30 addresses) where a flat
/// map is unbuildable; the address domain follows the depth.
const LEVELS: Axis = Axis {
    values: &[14.0, 18.0, 24.0, 30.0],
    set: |o, v| {
        o.levels = v as u32;
        o.domain = 1 << o.levels.min(30);
    },
};

/// PLB capacities in entries; 0 is the depth's flat baseline.
const PLBS: Axis = Axis {
    values: &[0.0, 64.0, 256.0, 1024.0],
    set: |o, v| {
        o.plb_entries = (v > 0.0).then_some(v as usize);
        o.posmap = if v > 0.0 { PosmapKind::Recursive } else { PosmapKind::Flat };
    },
};

/// A `repro serve` sweep: a grid of points over its axes, one
/// measurement per point — a validated service run or a measured replay
/// — and a self-check of each point against the ones before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sweep {
    /// `--sweep`: load factors under one policy, locating the saturation
    /// knee.
    Load,
    /// `--shard-sweep`: a load sweep per shard count on the identical
    /// offered workload, so the knees compare directly.
    Shard,
    /// `--wan-sweep`: RTT × request batch over one replayed miss stream;
    /// at a fixed RTT, per-request cycles never rise with the batch.
    Wan,
    /// `--posmap-sweep`: tree depth × (flat, PLB capacity) over one
    /// replayed request stream; recursion never undercuts flat.
    Posmap,
}

/// One measured point: its options and what it measured.
pub type Point = (ServeOptions, Sample);

impl Sweep {
    /// Every sweep.
    pub const ALL: [Sweep; 4] = [Sweep::Load, Sweep::Shard, Sweep::Wan, Sweep::Posmap];

    /// The `repro serve` flag that runs this sweep.
    pub const fn flag(self) -> &'static str {
        match self {
            Sweep::Load => "--sweep",
            Sweep::Shard => "--shard-sweep",
            Sweep::Wan => "--wan-sweep",
            Sweep::Posmap => "--posmap-sweep",
        }
    }

    /// The swept axes, outermost first.
    pub fn axes(self) -> &'static [Axis] {
        match self {
            Sweep::Load => &[LOADS],
            Sweep::Shard => &[SHARDS, SHARD_LOADS],
            Sweep::Wan => &[RTTS_US, BATCHES],
            Sweep::Posmap => &[LEVELS, PLBS],
        }
    }

    /// Measures one point. A replay reuses `stream` while the depth
    /// stays the same.
    fn measure(
        self,
        opts: &ServeOptions,
        live: Option<&LiveRun>,
        stream: &mut Option<Stream>,
    ) -> Result<Sample, String> {
        let tag = match self {
            Sweep::Load | Sweep::Shard => {
                let (summary, res) =
                    run_policy(opts, opts.scheduler.unwrap_or(SchedPolicy::Fcfs), live)?;
                return Ok(Sample {
                    cycles: summary.total_cycles,
                    requests: res.clients.iter().map(|c| c.generated).sum(),
                    achieved_rpmc: summary.throughput_rpmc,
                    rejected: summary.rejected,
                    latency: summary.latency,
                    ..Sample::default()
                });
            }
            Sweep::Wan => format!("wan sweep rtt {} batch {}", opts.rtt_us, opts.wan_batch),
            Sweep::Posmap => format!("posmap sweep L{}", opts.levels),
        };
        let mut sys = serve_system(opts).map_err(|e| format!("{tag}: {e}"))?;
        if self == Sweep::Posmap && sys.oram.posmap == PosMapSelect::Flat {
            // The flat baseline runs the flat map's sparse twin: cost-
            // identical (no costed walk, zero posmap attribution) without
            // its O(N) footprint, so billion-block depths have one at all.
            sys.oram.posmap = PosMapSelect::Sparse;
        }
        let stream = match stream {
            Some(s) if s.depth == (opts.levels, opts.domain) => s,
            _ => stream.insert(self.stream(opts, &sys)?),
        };
        let engine_err = |e: String| format!("{tag}: engine: {e}");
        if self == Sweep::Wan {
            let backend = wan_backend(opts.rtt_us, opts.wan_batch, &sys)
                .map_err(|e| format!("{tag}: {e}"))?;
            let mut engine = Engine::with_backend(sys, backend).map_err(engine_err)?;
            replay(&mut engine, stream, &tag)
        } else {
            replay(&mut Engine::new(sys).map_err(engine_err)?, stream, &tag)
        }
    }

    /// The request stream a replay sweep measures at `opts`' depth: the
    /// WAN sweep replays a workload's cache-filtered miss stream, the
    /// posmap sweep a hot-span mix over the depth's address domain.
    fn stream(self, opts: &ServeOptions, sys: &SystemConfig) -> Result<Stream, String> {
        let depth = (opts.levels, opts.domain);
        if self == Sweep::Posmap {
            let hot_span = (sys.oram.plb_page_addrs * 256).min(opts.domain);
            let n = (opts.requests as usize).max(1);
            let mut records = posmap_sweep_stream(n / 4, opts.domain, hot_span, opts.seed ^ 0xD15C);
            let warmup = records.len();
            records.extend(posmap_sweep_stream(n, opts.domain, hot_span, opts.seed));
            return Ok(Stream { depth, prefill: opts.domain.min(4096), records, warmup });
        }
        let ro = RunOptions {
            misses: opts.requests,
            warmup_misses: opts.requests / 4,
            seed: opts.seed,
            fill_target: 0.35,
            o3: None,
        };
        let scaled = scale_profile(&spec::profile(WAN_WORKLOAD), sys, ro.fill_target);
        let records = build_miss_stream(&scaled, sys.hierarchy, &ro);
        let warmup = (ro.warmup_misses as usize).min(records.len());
        if warmup == records.len() {
            return Err("wan sweep: no measured misses".to_string());
        }
        Ok(Stream { depth, prefill: scaled.working_set_blocks, records, warmup })
    }

    /// Checks the newest point against the ones before it.
    fn check(self, points: &[Point]) -> Result<(), String> {
        let Some(((o, s), earlier)) = points.split_last() else { return Ok(()) };
        let now = s.per_request();
        match self {
            Sweep::Wan => match earlier.last() {
                Some((p, prev)) if p.rtt_us == o.rtt_us && now > prev.per_request() => {
                    Err(format!(
                        "wan sweep: batching slowed the run at rtt {}us: batch {} costs {now:.1} \
                         cycles/request, smaller batch cost {:.1}",
                        o.rtt_us,
                        o.wan_batch,
                        prev.per_request()
                    ))
                }
                _ => Ok(()),
            },
            Sweep::Posmap => match (o.plb_entries, flat_baseline(points)) {
                (Some(plb), Some(flat)) if now < flat => Err(format!(
                    "posmap sweep: recursion undercut the flat baseline at L{} plb {plb}: \
                     {now:.1} vs {flat:.1} cycles/request",
                    o.levels
                )),
                _ => Ok(()),
            },
            Sweep::Load | Sweep::Shard => Ok(()),
        }
    }

    /// The text and figure table of the measured points.
    fn report(self, opts: &ServeOptions, points: Vec<Point>) -> SweepReport {
        let policy = opts.scheduler.unwrap_or(SchedPolicy::Fcfs).name();
        let (text, figure) = match self {
            Sweep::Load => load_table(policy, "", &points),
            Sweep::Shard => shard_table(policy, &points),
            Sweep::Wan => wan_table(&points),
            Sweep::Posmap => posmap_table(opts, &points),
        };
        SweepReport { points, text, figure }
    }
}

/// The workload whose miss stream the WAN sweep replays.
const WAN_WORKLOAD: &str = "mcf";

/// What one point measured: a validated service run, or the measured
/// window of a replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sample {
    /// Cycles: the whole service run, or the replay's measured window.
    pub cycles: u64,
    /// Requests offered: generated by the clients, or replayed.
    pub requests: u64,
    /// Completed requests per million cycles (service runs).
    pub achieved_rpmc: f64,
    /// Requests bounced by admission control (none in a replay).
    pub rejected: u64,
    /// Latency of every completed request, or of every access span in
    /// the measured window.
    pub latency: LatencySummary,
    /// Cycles attributed to network round trips (replays).
    pub network_cycles: u64,
    /// Cycles attributed to costed posmap walks (replays).
    pub posmap_cycles: u64,
    /// PLB hits over lookups in the window (replays; 0 without lookups).
    pub plb_hit_rate: f64,
    /// Off-chip posmap recursion levels (replays).
    pub chain_levels: u16,
    /// Modeled on-chip posmap state in bytes (replays).
    pub onchip_bytes: u64,
}

impl Sample {
    /// Fraction of offered requests bounced by admission control.
    pub fn rejected_frac(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.rejected as f64 / self.requests as f64
        }
    }

    /// Cycles per replayed request.
    pub fn per_request(&self) -> f64 {
        self.cycles as f64 / self.requests as f64
    }
}

/// Runs `sweep` over `axes` (normally [`Sweep::axes`]): every point of
/// the grid, each measured and self-checked in sweep order. A service
/// sweep feeds `live` (when given) at every point.
///
/// # Errors
///
/// Returns the first point's configuration, validation or self-check
/// failure.
pub fn run_sweep(
    sweep: Sweep,
    axes: &[Axis],
    opts: &ServeOptions,
    progress: Option<&Heartbeat>,
    live: Option<&LiveRun>,
) -> Result<SweepReport, String> {
    let grid = axes.iter().fold(vec![opts.clone()], |grid, axis| {
        let at = |o: &ServeOptions, v| {
            let mut o = o.clone();
            (axis.set)(&mut o, v);
            o
        };
        grid.iter().flat_map(|o| axis.values.iter().map(move |&v| at(o, v))).collect()
    });
    let (total, mut points, mut stream) = (grid.len(), Vec::with_capacity(grid.len()), None);
    for (done, o) in grid.into_iter().enumerate() {
        let sample = sweep.measure(&o, live, &mut stream)?;
        points.push((o, sample));
        sweep.check(&points)?;
        if let Some(hb) = progress {
            hb.tick(done + 1, total);
        }
    }
    Ok(sweep.report(opts, points))
}

/// A replay sweep's request stream at one depth.
#[derive(Debug)]
struct Stream {
    /// The `(levels, domain)` it was built for.
    depth: (u32, u64),
    /// Working-set blocks prefilled before the replay.
    prefill: u64,
    /// The warm-up records, then the measured ones.
    records: Vec<MissRecord>,
    /// How many leading records warm up.
    warmup: usize,
}

/// Prefills the stream's working set and measures it through
/// [`measured_replay`] under a recorder whose ring holds every measured
/// span, so the tails cover the whole window.
fn replay<B: StorageBackend>(
    engine: &mut Engine<B>,
    stream: &Stream,
    tag: &str,
) -> Result<Sample, String> {
    let (warm, measured) = stream.records.split_at(stream.warmup);
    let telemetry = (measured.len(), 50_000);
    let (window, rec, plb_before) =
        measured_replay(engine, stream.prefill, warm, measured, telemetry, |e| {
            e.controller().plb_stats()
        })
        .map_err(|e| format!("{tag}: {e}"))?;
    if rec.spans().dropped() != 0 {
        return Err(format!("{tag}: the span ring dropped {} spans", rec.spans().dropped()));
    }
    let plb = engine.controller().plb_stats();
    let hits = plb.hits - plb_before.hits;
    let lookups = hits + (plb.misses - plb_before.misses);
    let mut latencies: Vec<u64> = rec.spans().iter().map(|s| s.end - s.arrival).collect();
    Ok(Sample {
        cycles: window.total_cycles,
        requests: measured.len() as u64,
        latency: LatencySummary::from_samples(&mut latencies),
        network_cycles: rec.metrics().histogram(MetricId::AttrNetwork).sum(),
        posmap_cycles: rec.metrics().histogram(MetricId::AttrPosmap).sum(),
        plb_hit_rate: if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 },
        chain_levels: engine.controller().posmap_chain_levels(),
        onchip_bytes: engine.controller().posmap_onchip_bytes(),
        ..Sample::default()
    })
}

/// The posmap sweep's request stream: 7/8 of the traffic inside a fixed
/// hot span (a posmap page working set the larger PLBs can hold), the
/// rest uniform over the whole domain, so the hit rate responds to the
/// PLB capacity while deep trees still see cold pages. Addresses come
/// from a deterministic xorshift64, identical at every point.
fn posmap_sweep_stream(n: usize, domain: u64, hot_span: u64, seed: u64) -> Vec<MissRecord> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let span = if s.is_multiple_of(8) { domain } else { hot_span };
            MissRecord {
                block_addr: (s >> 8) % span.max(1),
                is_write: s.is_multiple_of(3),
                gap_cycles: 0,
                blocking: true,
            }
        })
        .collect()
}

/// The per-request cycles of the last point's flat baseline: the
/// nearest flat point at its depth, itself included.
fn flat_baseline(points: &[Point]) -> Option<f64> {
    let (o, _) = points.last()?;
    let flat = |(p, _): &&Point| p.posmap == PosmapKind::Flat && p.levels == o.levels;
    points.iter().rev().find(flat).map(|(_, s)| s.per_request())
}

/// What a sweep measured and how it reads: every point, the text, and
/// the figure table `--csv` writes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Every point, in sweep order.
    pub points: Vec<Point>,
    /// The text output.
    pub text: String,
    /// The figure table.
    pub figure: Table,
}

/// The one text renderer of the sweeps: the heading, a header row and
/// one row per point, each cell right-aligned in its column's width,
/// then the verdict.
fn section(
    heading: &str,
    columns: &[(&str, usize)],
    rows: Vec<Vec<String>>,
    verdict: &str,
) -> String {
    let header = columns.iter().map(|(h, _)| h.to_string()).collect();
    let mut out = heading.to_string();
    for row in std::iter::once(header).chain(rows) {
        let cells: Vec<_> = row.iter().zip(columns).map(|(c, (_, w))| format!("{c:>w$}")).collect();
        out += &format!("  {}\n", cells.join(" "));
    }
    out + verdict
}

/// A number with `d` decimals.
fn fx(v: f64, d: usize) -> String {
    format!("{v:.d$}")
}

/// The first load at which admission control rejected more than 5% of
/// offered requests: the saturation knee.
fn knee(points: &[Point]) -> Option<f64> {
    points.iter().find(|(_, s)| s.rejected_frac() > 0.05).map(|(o, _)| o.load)
}

/// One load sweep's text under `heading`, and its figure: a row per load.
fn load_table(policy: &str, heading: &str, points: &[Point]) -> (String, Table) {
    let mut figure = Table::new(
        "Fig A1: load sweep throughput and tail latency",
        &["offered_req_per_mcyc", "achieved_req_per_mcyc", "rejected_pct", "p50", "p99", "p99_9"],
    );
    let mut rows = Vec::new();
    for (o, s) in points {
        let l = &s.latency;
        let offered = s.requests as f64 * 1e6 / s.cycles.max(1) as f64;
        let rej = s.rejected_frac() * 100.0;
        let tail = [l.p50, l.p99, l.p999];
        let head = [fx(o.load, 2), fx(offered, 2), fx(s.achieved_rpmc, 2), format!("{rej:.1}%")];
        rows.push(head.into_iter().chain(tail.map(|v| v.to_string())).collect());
        let values = [[offered, s.achieved_rpmc, rej], tail.map(|v| v as f64)].concat();
        figure.push(format!("load_{:.2}", o.load), values);
    }
    let verdict = match knee(points) {
        Some(k) => format!(
            "saturation knee at load {k:.2} (first point rejecting > 5% of offered requests)\n"
        ),
        None => "no saturation knee within the swept range\n".to_string(),
    };
    let columns = [
        ("load", 6),
        ("offered/Mc", 12),
        ("achieved/Mc", 13),
        ("rej%", 9),
        ("p50", 10),
        ("p99", 10),
        ("p99.9", 10),
    ];
    (section(&format!("{heading}load sweep ({policy}):\n"), &columns, rows, &verdict), figure)
}

/// The shard sweep: a summary row per shard count (the knee load, the
/// throughput there — at the heaviest load if it never saturated — and
/// the load-1.0 tail), then each shard count's load sweep. The figure
/// carries the summary, knee 0 where none.
fn shard_table(policy: &str, points: &[Point]) -> (String, Table) {
    let mut figure = Table::new(
        "Fig C1: shard sweep saturation knee",
        &["knee_load", "knee_req_per_mcyc", "p99_at_load1", "p99_9_at_load1"],
    );
    let (mut rows, mut sweeps) = (Vec::new(), String::new());
    for sweep in points.chunk_by(|(a, _), (b, _)| a.shards == b.shards) {
        let m = sweep[0].0.shards;
        let knee = knee(sweep);
        let at_knee = sweep.iter().rfind(|(o, _)| knee.is_none_or(|k| o.load == k));
        let rpmc = at_knee.map_or(0.0, |(_, s)| s.achieved_rpmc);
        let at_one = sweep.iter().find(|(o, _)| o.load == 1.0).map(|(_, s)| s.latency);
        let (p99, p999) = at_one.map_or((0, 0), |l| (l.p99, l.p999));
        let knee_text = knee.map_or_else(|| "none".to_string(), |k| format!("{k:.2}"));
        rows.push(vec![m.to_string(), knee_text, fx(rpmc, 2), p99.to_string(), p999.to_string()]);
        let values = vec![knee.unwrap_or(0.0), rpmc, p99 as f64, p999 as f64];
        figure.push(format!("shards_{m}"), values);
        sweeps += &load_table(policy, &format!("-- shards {m} --\n"), sweep).0;
    }
    let columns =
        [("shards", 6), ("knee", 8), ("knee req/Mcyc", 13), ("p99@1.0", 10), ("p99.9@1.0", 10)];
    (section(&format!("shard sweep ({policy}):\n"), &columns, rows, "") + &sweeps, figure)
}

/// The WAN sweep: a row per point; the figure has a row per RTT and a
/// column per batch (per-request cycles), then the p99 and p99.9 rows.
fn wan_table(points: &[Point]) -> (String, Table) {
    let rows = points
        .iter()
        .map(|(o, s)| {
            let (l, n) = (&s.latency, s.network_cycles);
            let net = if s.cycles == 0 { 0.0 } else { 100.0 * n as f64 / s.cycles as f64 };
            vec![
                fx(o.rtt_us, 0),
                o.wan_batch.to_string(),
                fx(s.per_request(), 1),
                n.to_string(),
                format!("{net:.1}%"),
                l.p99.to_string(),
                l.p999.to_string(),
            ]
        })
        .collect();
    let by_rtt: Vec<_> = points.chunk_by(|(a, _), (b, _)| a.rtt_us == b.rtt_us).collect();
    let cols: Vec<_> = by_rtt[0].iter().map(|(o, _)| format!("batch_{}", o.wan_batch)).collect();
    let mut figure = Table::new(
        "Fig B1: WAN per-request cycles vs request batch",
        &cols.iter().map(String::as_str).collect::<Vec<_>>(),
    );
    let value = |s: &Sample| [s.per_request(), s.latency.p99 as f64, s.latency.p999 as f64];
    for (i, tag) in ["", "p99_", "p99_9_"].into_iter().enumerate() {
        for row in &by_rtt {
            let label = format!("{tag}rtt_{:.0}us", row[0].0.rtt_us);
            figure.push(label, row.iter().map(|(_, s)| value(s)[i]).collect());
        }
    }
    let (o, s) = &points[0];
    let columns = [
        ("rtt_us", 8),
        ("batch", 6),
        ("cycles/req", 14),
        ("network", 12),
        ("net%", 6),
        ("p99", 10),
        ("p99.9", 10),
    ];
    let heading =
        format!("wan sweep ({} misses of {WAN_WORKLOAD}, levels {}):\n", s.requests, o.levels);
    let verdict = "per-request cycles are monotone non-increasing in the batch size at every RTT\n";
    (section(&heading, &columns, rows, verdict), figure)
}

/// The posmap sweep: a row per `(depth, posmap mode)` point, in the text
/// and in the figure.
fn posmap_table(opts: &ServeOptions, points: &[Point]) -> (String, Table) {
    let mut figure = Table::new(
        "Fig D1: recursive posmap overhead vs tree depth and PLB size",
        &["cycles_per_req", "slowdown_vs_flat", "posmap_pct", "plb_hit_pct"],
    );
    let mut rows = Vec::new();
    for (i, (o, s)) in points.iter().enumerate() {
        let per = s.per_request();
        let slowdown = match (o.plb_entries, flat_baseline(&points[..=i])) {
            (Some(_), Some(flat)) if flat != 0.0 => per / flat,
            _ => 1.0,
        };
        let pm = if s.cycles == 0 { 0.0 } else { 100.0 * s.posmap_cycles as f64 / s.cycles as f64 };
        let hit = s.plb_hit_rate * 100.0;
        let plb = o.plb_entries.map_or("-".to_string(), |p| p.to_string());
        let label = o.plb_entries.map_or("flat".to_string(), |p| format!("plb{p}"));
        figure.push(format!("L{}_{label}", o.levels), vec![per, slowdown, pm, hit]);
        rows.push(vec![
            o.levels.to_string(),
            o.posmap.name().to_string(),
            plb,
            fx(per, 1),
            format!("{slowdown:.3}x"),
            format!("{pm:.1}%"),
            format!("{hit:.1}%"),
            s.chain_levels.to_string(),
            fx(s.onchip_bytes as f64 / 1024.0, 1),
        ]);
    }
    let columns = [
        ("levels", 6),
        ("posmap", 10),
        ("plb", 6),
        ("cycles/req", 12),
        ("slowdown", 9),
        ("posmap%", 8),
        ("plb_hit%", 8),
        ("chain", 6),
        ("onchip_kb", 10),
    ];
    let heading = format!(
        "posmap sweep ({} requests/point, on-chip budget {} KiB):\n",
        opts.requests.max(1),
        opts.posmap_onchip_kb
    );
    let verdict = "recursion costs nothing where the terminal map fits on chip\n";
    (section(&heading, &columns, rows, verdict), figure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_audit::Recorder;
    use oram_service::ServiceSim;
    use oram_sim::replay_measured;

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
        let dir =
            std::env::temp_dir().join(format!("oram_serve_test_{}_{tag}", std::process::id()));
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
        let err = run_policy_on(&o, SchedPolicy::Fcfs, &sys, None, |i| match i {
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
        let mut cfg = o.service_config();
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
            let mut cfg = opts.service_config();
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
        let depths = [Axis { values: &[12.0, 14.0], ..LEVELS }, PLBS];
        let sweep = run_sweep(Sweep::Posmap, &depths, &o, None, None).expect("posmap sweep");
        let per_depth = PLBS.values.len();
        assert_eq!(sweep.points.len(), 2 * per_depth);
        for (chunk, rows) in sweep.points.chunks(per_depth).zip(sweep.figure.rows.chunks(per_depth))
        {
            let (flat, f) = &chunk[0];
            assert_eq!(flat.plb_entries, None);
            assert_eq!((f.posmap_cycles, f.chain_levels), (0, 0));
            assert_eq!(rows[0].1[1], 1.0, "the baseline's slowdown");
            for ((p, s), (_, row)) in chunk.iter().zip(rows).skip(1) {
                assert!(s.chain_levels >= 1, "L{} plb {:?}", p.levels, p.plb_entries);
                assert!(row[1] >= 1.0);
                assert!(s.onchip_bytes > 0);
            }
            // The smallest PLB cannot hold the domain's page set, so
            // misses must walk; a PLB covering every page may serve the
            // whole measured window on chip (that is the figure's point).
            let (smallest, largest) = (&chunk[1].1, &chunk[per_depth - 1].1);
            assert!(smallest.posmap_cycles > 0, "L{} never walked", flat.levels);
            // More PLB entries never hit less on the fixed hot span.
            assert!(
                largest.plb_hit_rate >= smallest.plb_hit_rate,
                "L{}: hit {:.3} < {:.3}",
                flat.levels,
                largest.plb_hit_rate,
                smallest.plb_hit_rate,
            );
        }
        // One figure row per point, and the sweep is deterministic.
        assert_eq!(sweep.figure.rows.len(), sweep.points.len());
        assert!(sweep.text.contains("plb_hit%"));
        let again = run_sweep(Sweep::Posmap, &depths, &o, None, None).expect("rerun");
        assert_eq!(again, sweep);
    }

    #[test]
    fn wan_sweep_amortizes_round_trips() {
        let mut o = tiny();
        o.requests = 120;
        let sweep = run_sweep(Sweep::Wan, Sweep::Wan.axes(), &o, None, None).expect("wan sweep");
        assert_eq!(sweep.points.len(), RTTS_US.values.len() * BATCHES.values.len());
        // Monotone non-increasing per RTT is validated inside the sweep;
        // spot-check the strict end-to-end win where RTTs dominate.
        for row in sweep.points.chunk_by(|(a, _), (b, _)| a.rtt_us == b.rtt_us) {
            let (first, last) = (&row[0].1, &row[row.len() - 1].1);
            assert!(last.per_request() < first.per_request(), "batching must win");
            assert!(row.iter().all(|(_, s)| s.network_cycles > 0));
            assert!(row.iter().all(|(_, s)| s.latency.p99 > 0 && s.latency.p99 <= s.latency.p999));
        }
        // Higher RTT costs more at fixed batch.
        let at_batch_1: Vec<f64> = sweep
            .points
            .iter()
            .filter(|(o, _)| o.wan_batch == 1)
            .map(|(_, s)| s.per_request())
            .collect();
        assert!(at_batch_1.windows(2).all(|w| w[0] < w[1]));
        // One cycles/req row per RTT plus p99 and p99.9 rows per RTT.
        assert_eq!(sweep.figure.rows.len(), 3 * RTTS_US.values.len());
        assert!(sweep.text.contains("monotone non-increasing"));
        assert!(sweep.text.contains("p99.9"));
        // Deterministic for the compare gate.
        let again = run_sweep(Sweep::Wan, Sweep::Wan.axes(), &o, None, None).expect("rerun");
        assert_eq!(again, sweep);
    }

    /// The WAN sweep's tails cover every measured access: its replay's
    /// ring is sized to the measured window, and its tails are those of
    /// a span-for-span record taken beside it.
    #[test]
    fn replay_tails_cover_every_measured_span() {
        let mut o = tiny();
        o.requests = 200;
        (RTTS_US.set)(&mut o, RTTS_US.values[0]);
        (BATCHES.set)(&mut o, BATCHES.values[0]);
        let sys = serve_system(&o).unwrap();
        let stream = Sweep::Wan.stream(&o, &sys).unwrap();
        let engine = || {
            let backend = wan_backend(o.rtt_us, o.wan_batch, &sys).unwrap();
            Engine::with_backend(sys.clone(), backend).unwrap()
        };
        let sample = replay(&mut engine(), &stream, "wan").unwrap();
        let measured = (stream.records.len() - stream.warmup) as u64;
        assert_eq!(sample.latency.count, measured, "one latency per measured access");

        // The span-for-span record: a ring that holds the whole window.
        let mut e = engine();
        e.prefill_working_set(stream.prefill);
        let rec = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 16 });
        let (warm, tail) = stream.records.split_at(stream.warmup);
        let sink = Some((TelemetryRecorder::as_sink(&rec), 50_000));
        replay_measured(&mut e, warm, tail, sink, |_| {});
        let rec = rec.lock().unwrap();
        assert_eq!(rec.spans().dropped(), 0);
        let mut lat: Vec<u64> = rec.spans().iter().map(|s| s.end - s.arrival).collect();
        assert_eq!(sample.latency, LatencySummary::from_samples(&mut lat));
        let sweep = run_sweep(Sweep::Wan, Sweep::Wan.axes(), &o, None, None).unwrap();
        assert_eq!(sweep.points[0].1, sample, "the sweep measures the same point");
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
        let mut o = tiny();
        o.requests = 20;
        let axes = [Axis { values: &[1.0, 2.0], ..SHARDS }, Axis { values: &[1.0], ..LOADS }];
        let report = run_sweep(Sweep::Shard, &axes, &o, None, None).expect("shard sweep");
        assert_eq!(
            report.figure.columns,
            ["knee_load", "knee_req_per_mcyc", "p99_at_load1", "p99_9_at_load1"]
        );
        let labels: Vec<&str> = report.figure.rows.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(labels, ["shards_1", "shards_2"]);
        // No knee at load 1.0: the throughput column falls back to the
        // heaviest load, and the tail columns read the load-1.0 point.
        for ((_, row), (_, s)) in report.figure.rows.iter().zip(&report.points) {
            let tail = [s.latency.p99 as f64, s.latency.p999 as f64];
            assert_eq!(row, &[0.0, s.achieved_rpmc, tail[0], tail[1]]);
        }
        assert!(report.text.contains("p99.9@1.0"));
        assert!(report.text.contains("-- shards 2 --\nload sweep (fcfs):\n"), "{}", report.text);
    }

    #[test]
    fn overload_finds_a_knee() {
        // A gap short enough that the top sweep loads must overflow the
        // queues on a multi-thousand-cycle ORAM access time.
        let mut o = tiny();
        o.base_gap_cycles = 4_000.0;
        let sweep = run_sweep(Sweep::Load, Sweep::Load.axes(), &o, None, None).expect("sweep");
        assert_eq!(sweep.points.len(), LOADS.values.len());
        let knee = knee(&sweep.points).expect("overloaded sweep must saturate");
        assert!(knee > 0.25, "knee at the lightest load suggests a broken base rate");
        assert!(sweep.text.contains("saturation knee"));
        // Rejections are monotone-ish: the heaviest load rejects more
        // than the lightest.
        let rejected = |i: usize| sweep.points[i].1.rejected_frac();
        assert!(rejected(sweep.points.len() - 1) > rejected(0));
        // The figure carries the same points.
        assert_eq!(sweep.figure.rows.len(), sweep.points.len());
        assert_eq!(sweep.figure.rows[0].0, "load_0.25");
    }

    #[test]
    fn self_checks_keep_their_error_texts() {
        let o = |rtt_us, wan_batch| ServeOptions { rtt_us, wan_batch, ..tiny() };
        let s = |cycles| Sample { cycles, requests: 10, ..Sample::default() };
        let err = Sweep::Wan.check(&[(o(50.0, 1), s(100)), (o(50.0, 2), s(120))]).unwrap_err();
        assert_eq!(
            err,
            "wan sweep: batching slowed the run at rtt 50us: batch 2 costs 12.0 cycles/request, \
             smaller batch cost 10.0"
        );
        // A new RTT starts a new row.
        assert!(Sweep::Wan.check(&[(o(50.0, 16), s(100)), (o(200.0, 1), s(900))]).is_ok());

        let p = |plb| {
            let mut o = ServeOptions { levels: 18, ..tiny() };
            (PLBS.set)(&mut o, plb);
            o
        };
        let err = Sweep::Posmap.check(&[(p(0.0), s(100)), (p(64.0), s(90))]).unwrap_err();
        assert_eq!(
            err,
            "posmap sweep: recursion undercut the flat baseline at L18 plb 64: 9.0 vs 10.0 \
             cycles/request"
        );
        assert!(Sweep::Posmap.check(&[(p(0.0), s(100)), (p(64.0), s(100))]).is_ok());
    }
}
