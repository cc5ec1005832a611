//! The `repro soak` subcommand's engine: a long-horizon, multi-tenant,
//! phase-scheduled service run with streaming validation and trend
//! detection.
//!
//! Where `repro serve` measures one operating point per scheduler, the
//! soak harness chains **phases** over one persistent ORAM engine: each
//! phase shifts the Zipfian hot set ([`oram_service::AddressMix::ZipfianShifted`]
//! — same popularity shape, different blocks hot), ramps the offered
//! load along a symmetric diurnal profile, and optionally switches the
//! storage backend mid-run. The engine's clock, stash state, and
//! position map carry across phases (`ServiceSim::resume`), so the run
//! exercises the steady state the paper's duplication mechanisms live
//! in — not the cold start every short benchmark re-measures.
//!
//! Validation is streaming, not post-hoc: every phase's conservation
//! laws are checked as it finishes, the live plane's window conservation
//! and Eq. 1 residuals are checked at the end, and two deterministic
//! drift estimators (per-window p99 latency slope, per-window stash
//! occupancy slope) must stay under fixed thresholds — a latency or
//! stash trend that climbs across a load-symmetric run is a leak, not
//! noise. The report lands as JSON behind the `repro compare` gate.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use oram_obsv::{AlertKind, FlightConfig, IncidentMeta, LiveConfig, LivePlane, EQ1_RESIDUAL_PPM};
use oram_service::{AddressMix, ServiceConfig, ServiceSim};
use oram_sim::{Engine, StorageBackend, SystemConfig};
use oram_telemetry::json::{Layout, Value, Writer};
use oram_telemetry::{Gate, Report};

use crate::incident::write_incident_bundle;
use crate::progress::Heartbeat;
use crate::serve::{disk_backend, wan_backend, BackendKind, EphemeralDir};

/// Seed-derivation constant shared with the service layer's per-client
/// split (the golden-ratio multiplier).
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Maximum tolerated magnitude of the per-window p99 latency slope, in
/// ppm of the mean per window. The load profile is symmetric, so a
/// healthy run's linear fit is near flat (the quick DRAM baseline
/// measures about -340 ppm/window); a persistent climb means latency is
/// drifting with run length.
pub const LATENCY_TREND_MAX_PPM: i64 = 5_000;

/// Maximum tolerated per-window stash-occupancy slope, in ppm of the
/// mean per window (the quick DRAM baseline measures about -75). Only
/// growth is a leak; shrinking occupancy passes.
pub const STASH_TREND_MAX_PPM: i64 = 5_000;

/// Trend checks need at least this many fitted windows to be
/// meaningful — with few windows the per-window p99 is a handful of
/// samples and the fitted slope is noise. Below the floor the check
/// reports `skipped` (the quick CI scale fits ~540 windows).
pub const TREND_MIN_WINDOWS: u64 = 100;

/// Options for one `repro soak` run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOptions {
    /// Tenant (client) streams.
    pub tenants: usize,
    /// Total requests across all tenants and phases (split evenly).
    pub requests_total: u64,
    /// Scheduled phases (hot-set shift + load ramp per phase).
    pub phases: usize,
    /// Mean per-client interarrival gap in cycles at load 1.0.
    pub base_gap_cycles: f64,
    /// Tree depth `L`.
    pub levels: u32,
    /// Address domain (blocks), also the prefilled working set.
    pub domain: u64,
    /// Master seed (each phase derives its own).
    pub seed: u64,
    /// Storage backend the run starts on.
    pub backend: BackendKind,
    /// Backend to switch to at the midpoint phase, if any.
    pub switch_backend: Option<BackendKind>,
    /// Directory to dump an incident bundle into if a trigger alert
    /// freezes the flight recorder during the soak.
    pub incident_dir: Option<PathBuf>,
}

impl SoakOptions {
    /// CI smoke scale: seconds, not minutes.
    pub fn quick() -> Self {
        SoakOptions {
            tenants: 4,
            requests_total: 4_000,
            phases: 4,
            base_gap_cycles: 25_000.0,
            levels: 12,
            domain: 256,
            seed: 7,
            backend: BackendKind::Dram,
            switch_backend: None,
            incident_dir: None,
        }
    }

    /// The long-horizon default: one million requests.
    pub fn full() -> Self {
        SoakOptions { requests_total: 1_000_000, levels: 14, domain: 1024, ..SoakOptions::quick() }
    }

    /// Requests each client generates per phase.
    fn per_client_per_phase(&self) -> u64 {
        self.requests_total / (self.tenants as u64 * self.phases as u64)
    }

    /// Checks every parameter range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("soak needs at least one tenant".into());
        }
        if self.phases == 0 {
            return Err("soak needs at least one phase".into());
        }
        if self.per_client_per_phase() == 0 {
            return Err(format!(
                "requests_total {} splits to zero per tenant per phase ({} tenants x {} phases)",
                self.requests_total, self.tenants, self.phases
            ));
        }
        if let Some(b) = self.switch_backend {
            if b == self.backend {
                return Err(format!("switch backend {} equals the starting backend", b.name()));
            }
            if self.phases < 2 {
                return Err("a backend switch needs at least two phases".into());
            }
        }
        Ok(())
    }
}

/// The offered-load multiplier of phase `i` of `n`: a symmetric
/// triangular diurnal profile from 0.8 at the edges to 1.3 at midday.
/// Symmetry is what makes the latency-trend self-check meaningful — any
/// persistent slope is drift, not the schedule.
fn phase_load(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    let t = i as f64 / (n - 1) as f64;
    let tri = 1.0 - (2.0 * t - 1.0).abs();
    0.8 + 0.5 * tri
}

/// One phase of the schedule, resolved.
#[derive(Debug, Clone, Copy)]
struct PhasePlan {
    index: usize,
    load: f64,
    offset: u64,
    backend: BackendKind,
}

/// What one finished phase contributed.
#[derive(Debug, Clone)]
pub struct PhaseSoak {
    /// Phase index.
    pub index: u64,
    /// Offered-load multiplier this phase ran at.
    pub load: f64,
    /// Zipf hot-set rotation this phase used.
    pub offset: u64,
    /// Backend this phase ran on.
    pub backend: String,
    /// Requests completed in the phase.
    pub completed: u64,
    /// Requests rejected by admission control in the phase.
    pub rejected: u64,
    /// Completions that coalesced onto an MSHR leader.
    pub coalesced: u64,
    /// Engine cycle when the phase drained.
    pub end_cycle: u64,
}

/// Per-tenant rollup from the plane's cumulative sketches.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSoak {
    /// Requests completed for this tenant.
    pub completed: u64,
    /// Requests rejected for this tenant.
    pub rejected: u64,
    /// Median end-to-end latency in cycles.
    pub p50: u64,
    /// 99th percentile latency.
    pub p99: u64,
    /// 99.9th percentile latency.
    pub p99_9: u64,
    /// Worst latency observed.
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
}

/// Per-objective burn rollup.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSoak {
    /// Objective name.
    pub name: String,
    /// Budget-violating requests.
    pub bad: u64,
    /// Requests the objective evaluated.
    pub total: u64,
    /// Fast (1-window) burn rate at the end of the run.
    pub fast: f64,
    /// Slow (12-window) burn rate at the end of the run.
    pub slow: f64,
    /// Whether the objective ended the run in breach.
    pub breached: bool,
}

/// The full soak report: renders for humans, serializes for the
/// `repro compare` gate.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Tenant streams.
    pub tenants_n: u64,
    /// Phases scheduled.
    pub phases_n: u64,
    /// Total requests configured.
    pub requests_total: u64,
    /// Tree depth.
    pub levels: u32,
    /// Address domain.
    pub domain: u64,
    /// Master seed.
    pub seed: u64,
    /// Starting backend name.
    pub backend: String,
    /// Mid-run switch target, if any.
    pub switch_backend: Option<String>,
    /// Requests generated (admitted + rejected).
    pub generated: u64,
    /// Requests completed.
    pub completed: u64,
    /// Requests rejected.
    pub rejected: u64,
    /// Completions that coalesced.
    pub coalesced: u64,
    /// Final engine cycle.
    pub final_cycle: u64,
    /// Completed requests per million cycles.
    pub throughput_rpmc: f64,
    /// Per-tenant rollups (index = tenant id).
    pub tenants: Vec<TenantSoak>,
    /// Per-objective rollups.
    pub slos: Vec<SloSoak>,
    /// Alert firings: slo_burn, stash_pressure, rejection_knee,
    /// eq1_residual.
    pub alerts: [u64; 4],
    /// Per-phase results.
    pub phases: Vec<PhaseSoak>,
    /// Per-window p99 latency slope, ppm of the mean per window.
    pub latency_slope_ppm: i64,
    /// Windows the latency fit covers.
    pub latency_windows: u64,
    /// Per-window stash-occupancy slope, ppm of the mean per window.
    pub stash_slope_ppm: i64,
    /// Windows the stash fit covers.
    pub stash_windows: u64,
    /// Worst Eq. 1 residual seen, ppm of the window width.
    pub eq1_worst_ppm: u64,
    /// Mean Eq. 1 residual, ppm.
    pub eq1_mean_ppm: u64,
    /// Peak live stash occupancy.
    pub stash_peak: u32,
    /// Self-check verdicts: conservation, eq1, trend (`ok` or
    /// `skipped`).
    pub checks: [String; 3],
}

/// Builds the service configuration of one phase.
fn phase_config(opts: &SoakOptions, p: &PhasePlan) -> ServiceConfig {
    let mut cfg = ServiceConfig::symmetric_open(
        opts.tenants,
        opts.per_client_per_phase(),
        opts.base_gap_cycles / p.load,
        opts.domain,
        opts.seed ^ (p.index as u64 + 1).wrapping_mul(GOLDEN),
    );
    for c in &mut cfg.clients {
        c.addresses =
            AddressMix::ZipfianShifted { domain: opts.domain, theta: 0.99, offset: p.offset };
    }
    cfg
}

/// Chains the phases of one backend segment over a single engine,
/// resuming each phase at the previous phase's final cycle. Returns the
/// segment's final cycle.
fn run_segment<B: StorageBackend>(
    opts: &SoakOptions,
    engine: Engine<B>,
    plan: &[PhasePlan],
    start_cycle: u64,
    plane: &Arc<Mutex<LivePlane>>,
    hb: Option<&Heartbeat>,
    out: &mut Vec<PhaseSoak>,
) -> Result<u64, String> {
    let mut engine = engine;
    engine.prefill_working_set(opts.domain);
    engine.attach_telemetry(LivePlane::as_sink(plane), 50_000);
    let mut cycle = start_cycle;
    let mut slot = Some(engine);
    for p in plan {
        let cfg = phase_config(opts, p);
        let mut sim = ServiceSim::resume(cfg, slot.take().expect("engine slot"), cycle)
            .map_err(|e| format!("phase {}: {e}", p.index))?;
        sim.attach_live(LivePlane::as_live(plane));
        sim.run();
        let (res, engine) = sim.finish();
        // Streaming validation: this phase's conservation laws, checked
        // before the next phase starts.
        res.validate().map_err(|e| format!("phase {}: {e}", p.index))?;
        cycle = engine.cycle();
        out.push(PhaseSoak {
            index: p.index as u64,
            load: p.load,
            offset: p.offset,
            backend: p.backend.name().to_string(),
            completed: res.completed(),
            rejected: res.rejected(),
            coalesced: res.coalesced(),
            end_cycle: cycle,
        });
        slot = Some(engine);
        if let Some(hb) = hb {
            hb.tick(p.index + 1, opts.phases);
        }
    }
    let mut engine = slot.take().expect("engine slot");
    engine.detach_telemetry();
    Ok(cycle)
}

/// Builds the engine for a segment and runs it (the backend kinds have
/// different engine types, so the dispatch happens once per segment).
fn run_segment_kind(
    opts: &SoakOptions,
    kind: BackendKind,
    plan: &[PhasePlan],
    start_cycle: u64,
    plane: &Arc<Mutex<LivePlane>>,
    hb: Option<&Heartbeat>,
    out: &mut Vec<PhaseSoak>,
) -> Result<u64, String> {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = opts.levels;
    sys.validate().map_err(|e| format!("invalid configuration: {e}"))?;
    match kind {
        BackendKind::Dram => {
            let engine = Engine::new(sys).map_err(|e| format!("engine: {e}"))?;
            run_segment(opts, engine, plan, start_cycle, plane, hb, out)
        }
        BackendKind::Wan => {
            let backend = wan_backend(200.0, 4, &sys).map_err(|e| format!("wan: {e}"))?;
            let engine = Engine::with_backend(sys, backend).map_err(|e| format!("engine: {e}"))?;
            run_segment(opts, engine, plan, start_cycle, plane, hb, out)
        }
        BackendKind::Disk => {
            let cleanup = EphemeralDir(
                std::env::temp_dir()
                    .join(format!("oram_soak_disk_{}_{start_cycle}", std::process::id())),
            );
            let backend =
                disk_backend(cleanup.0.clone(), &sys).map_err(|e| format!("disk: {e}"))?;
            let engine = Engine::with_backend(sys, backend).map_err(|e| format!("engine: {e}"))?;
            run_segment(opts, engine, plan, start_cycle, plane, hb, out)
        }
    }
}

/// Runs the full soak schedule and assembles the validated report.
///
/// # Errors
///
/// Returns the first failed self-check: a phase's conservation laws,
/// the plane's window conservation, the Eq. 1 residual bound, or a
/// drifting trend.
pub fn run_soak(opts: &SoakOptions, hb: Option<&Heartbeat>) -> Result<SoakReport, String> {
    opts.validate()?;
    let stash_bound = {
        let mut probe = SystemConfig::scaled_default();
        probe.oram.levels = opts.levels;
        probe.validate().map_err(|e| format!("invalid configuration: {e}"))?;
        probe.oram.stash_capacity as u32
    };
    let plane = LivePlane::shared(LiveConfig::for_serve(
        opts.tenants,
        1,
        opts.base_gap_cycles as u64,
        stash_bound,
    ));
    plane.lock().expect("plane lock").attach_flight(FlightConfig::default());

    // The schedule: one plan entry per phase; the hot set rotates by
    // domain/phases each phase, the load follows the diurnal profile,
    // and the backend flips at the midpoint when a switch is requested.
    let plans: Vec<PhasePlan> = (0..opts.phases)
        .map(|i| PhasePlan {
            index: i,
            load: phase_load(i, opts.phases),
            offset: (opts.domain / opts.phases as u64) * i as u64 % opts.domain.max(1),
            backend: match opts.switch_backend {
                Some(b) if i >= opts.phases / 2 => b,
                _ => opts.backend,
            },
        })
        .collect();

    let mut phases_out: Vec<PhaseSoak> = Vec::with_capacity(opts.phases);
    let switch_at = opts.switch_backend.map(|_| opts.phases / 2);
    match switch_at {
        None => {
            run_segment_kind(opts, opts.backend, &plans, 0, &plane, hb, &mut phases_out)?;
        }
        Some(k) => {
            let cycle =
                run_segment_kind(opts, opts.backend, &plans[..k], 0, &plane, hb, &mut phases_out)?;
            // The switch: a fresh engine of the new backend, with
            // arrivals continuing from the prior segment's final cycle
            // so tenant clocks never rewind.
            run_segment_kind(
                opts,
                opts.switch_backend.expect("switch"),
                &plans[k..],
                cycle,
                &plane,
                hb,
                &mut phases_out,
            )?;
        }
    }

    // End-of-run plane validation: close the open window, then check
    // the conservation law over folded + ring + open totals.
    {
        let mut p = plane.lock().expect("plane lock");
        p.flush();
        p.validate_conservation().map_err(|e| format!("observability conservation: {e}"))?;
    }
    let p = plane.lock().expect("plane lock");

    // Cross-layer conservation: the plane saw exactly what the phases
    // reported.
    let phase_completed: u64 = phases_out.iter().map(|f| f.completed).sum();
    let phase_rejected: u64 = phases_out.iter().map(|f| f.rejected).sum();
    if p.total().completed != phase_completed {
        return Err(format!(
            "plane saw {} completions but the phases reported {phase_completed}",
            p.total().completed
        ));
    }
    if p.total().rejected != phase_rejected {
        return Err(format!(
            "plane saw {} rejections but the phases reported {phase_rejected}",
            p.total().rejected
        ));
    }

    // Eq. 1 self-check: residuals must stay under the alert threshold.
    let eq1_worst = p.eq1_worst_residual_ppm();
    if eq1_worst > EQ1_RESIDUAL_PPM {
        return Err(format!(
            "Eq. 1 residual {eq1_worst} ppm exceeds the {EQ1_RESIDUAL_PPM} ppm bound"
        ));
    }

    // Trend self-check: deterministic slopes under fixed thresholds.
    let lat_windows = p.latency_trend().samples();
    let stash_windows = p.stash_trend().samples();
    let lat_slope = p.latency_trend().slope_ppm_of_mean();
    let stash_slope = p.stash_trend().slope_ppm_of_mean();
    // A mid-run backend switch is a deliberate regime change: the step
    // in latency dominates any linear fit, so the drift check only
    // applies to stationary-configuration runs.
    let trend_checked = lat_windows >= TREND_MIN_WINDOWS
        && stash_windows >= TREND_MIN_WINDOWS
        && opts.switch_backend.is_none();
    if trend_checked {
        if lat_slope.abs() > LATENCY_TREND_MAX_PPM {
            return Err(format!(
                "latency trend {lat_slope} ppm/window exceeds +-{LATENCY_TREND_MAX_PPM} \
                 over {lat_windows} windows"
            ));
        }
        if stash_slope > STASH_TREND_MAX_PPM {
            return Err(format!(
                "stash occupancy trend {stash_slope} ppm/window exceeds \
                 {STASH_TREND_MAX_PPM} over {stash_windows} windows"
            ));
        }
    }

    // Incident forensics: if a trigger froze the flight recorder during
    // the soak and a dump directory was given, write the bundle.
    if let (Some(dir), Some(f)) = (&opts.incident_dir, p.flight()) {
        if f.is_frozen() {
            let bundle = p.render_incident(&IncidentMeta {
                seed: opts.seed,
                levels: opts.levels,
                clients: opts.tenants,
                shards: 1,
                requests: opts.requests_total,
                load: 1.0,
                scheduler: "fcfs".into(),
                backend: opts.backend.name().into(),
            })?;
            write_incident_bundle(dir, &bundle)?;
        }
    }

    let completed = p.total().completed;
    let rejected = p.total().rejected;
    let coalesced = p.total().coalesced;
    let final_cycle = phases_out.last().map_or(0, |f| f.end_cycle);
    let throughput_rpmc =
        if final_cycle == 0 { 0.0 } else { completed as f64 * 1e6 / final_cycle as f64 };
    let tenants = (0..opts.tenants)
        .map(|t| {
            let s = p.tenant_latency(t);
            TenantSoak {
                completed: p.total().tenant_completed[t],
                rejected: p.total().tenant_rejected[t],
                p50: s.quantile(0.5),
                p99: s.quantile(0.99),
                p99_9: s.quantile(0.999),
                max: s.max(),
                mean: s.mean(),
            }
        })
        .collect();
    let slos = p
        .config()
        .slos
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let b = p.burn(i);
            SloSoak {
                name: spec.name.clone(),
                bad: p.total().slo_bad[i],
                total: p.total().slo_total[i],
                fast: b.fast,
                slow: b.slow,
                breached: b.breached,
            }
        })
        .collect();
    let alerts = [
        p.alert_count(AlertKind::SloBurn),
        p.alert_count(AlertKind::StashPressure),
        p.alert_count(AlertKind::RejectionKnee),
        p.alert_count(AlertKind::Eq1Residual),
    ];

    Ok(SoakReport {
        tenants_n: opts.tenants as u64,
        phases_n: opts.phases as u64,
        requests_total: opts.requests_total,
        levels: opts.levels,
        domain: opts.domain,
        seed: opts.seed,
        backend: opts.backend.name().to_string(),
        switch_backend: opts.switch_backend.map(|b| b.name().to_string()),
        generated: completed + rejected,
        completed,
        rejected,
        coalesced,
        final_cycle,
        throughput_rpmc,
        tenants,
        slos,
        alerts,
        phases: phases_out,
        latency_slope_ppm: lat_slope,
        latency_windows: lat_windows,
        stash_slope_ppm: stash_slope,
        stash_windows,
        eq1_worst_ppm: eq1_worst,
        eq1_mean_ppm: p.eq1_mean_residual_ppm(),
        stash_peak: p.stash_peak(),
        checks: [
            "ok".to_string(),
            "ok".to_string(),
            if trend_checked { "ok".to_string() } else { "skipped".to_string() },
        ],
    })
}

const ALERT_NAMES: [&str; 4] = ["slo_burn", "stash_pressure", "rejection_knee", "eq1_residual"];

impl SoakReport {
    /// The human report `repro soak` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "soak: {} requests, {} tenants, {} phases, backend {}{} (levels {}, seed {})\n",
            self.requests_total,
            self.tenants_n,
            self.phases_n,
            self.backend,
            match &self.switch_backend {
                Some(b) => format!(" -> {b} at midpoint"),
                None => String::new(),
            },
            self.levels,
            self.seed,
        );
        out.push_str("phase  load   offset  backend  completed  rejected  end_Mcyc\n");
        for f in &self.phases {
            out.push_str(&format!(
                "{:>5}  {:<5.2} {:>7}  {:<7}  {:>9}  {:>8}  {:>8.1}\n",
                f.index,
                f.load,
                f.offset,
                f.backend,
                f.completed,
                f.rejected,
                f.end_cycle as f64 / 1e6,
            ));
        }
        out.push_str("tenant  completed  rejected     p50     p99   p99.9     max\n");
        for (t, s) in self.tenants.iter().enumerate() {
            out.push_str(&format!(
                "{t:>6}  {:>9}  {:>8}  {:>6}  {:>6}  {:>6}  {:>6}\n",
                s.completed, s.rejected, s.p50, s.p99, s.p99_9, s.max
            ));
        }
        out.push_str("objective        bad     total  fast   slow   breached\n");
        for s in &self.slos {
            out.push_str(&format!(
                "{:<14} {:>5}  {:>8}  {:<5.2} {:<5.2}  {}\n",
                s.name, s.bad, s.total, s.fast, s.slow, s.breached
            ));
        }
        out.push_str(&format!(
            "throughput {:.2} req/Mcyc | trends: latency {:+} ppm/window ({} w), \
             stash {:+} ppm/window ({} w)\n\
             eq1 residual worst {} ppm mean {} ppm | stash peak {} | alerts {:?}\n\
             checks: conservation {} eq1 {} trend {}\n",
            self.throughput_rpmc,
            self.latency_slope_ppm,
            self.latency_windows,
            self.stash_slope_ppm,
            self.stash_windows,
            self.eq1_worst_ppm,
            self.eq1_mean_ppm,
            self.stash_peak,
            self.alerts,
            self.checks[0],
            self.checks[1],
            self.checks[2],
        ));
        out
    }

    /// The machine-readable report the `repro compare` gate consumes.
    /// The top-level `"soak"` key is the schema discriminator.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new();
        w.object(Layout::LINES).field("soak", 1u64).key("meta").object(Layout::COMPACT);
        w.field("tenants", self.tenants_n).field("phases", self.phases_n);
        w.field("requests_total", self.requests_total).field("levels", self.levels);
        w.field("domain", self.domain).field("seed", self.seed);
        w.field("backend", self.backend.as_str());
        w.field("switch_backend", self.switch_backend.as_deref()).end();
        w.key("totals").object(Layout::COMPACT).field("generated", self.generated);
        w.field("completed", self.completed).field("rejected", self.rejected);
        w.field("coalesced", self.coalesced).field("final_cycle", self.final_cycle);
        w.field("throughput_rpmc", self.throughput_rpmc).end();
        w.key("tenants").array(Layout::COMPACT);
        for s in &self.tenants {
            w.object(Layout::COMPACT).field("completed", s.completed);
            w.field("rejected", s.rejected).field("p50", s.p50).field("p99", s.p99);
            w.field("p99_9", s.p99_9).field("max", s.max).field("mean", s.mean).end();
        }
        w.end().key("slos").array(Layout::COMPACT);
        for s in &self.slos {
            w.object(Layout::COMPACT).field("name", s.name.as_str()).field("bad", s.bad);
            w.field("total", s.total).field("fast", s.fast).field("slow", s.slow);
            w.field("breached", s.breached).end();
        }
        w.end().key("alerts").object(Layout::COMPACT);
        for (name, count) in ALERT_NAMES.into_iter().zip(self.alerts) {
            w.field(name, count);
        }
        w.end().key("phases").array(Layout::COMPACT);
        for f in &self.phases {
            w.object(Layout::COMPACT).field("index", f.index).field("load", f.load);
            w.field("offset", f.offset).field("backend", f.backend.as_str());
            w.field("completed", f.completed).field("rejected", f.rejected);
            w.field("coalesced", f.coalesced).field("end_cycle", f.end_cycle).end();
        }
        w.end().key("trends").object(Layout::COMPACT);
        w.field("latency_slope_ppm", self.latency_slope_ppm);
        w.field("latency_windows", self.latency_windows);
        w.field("stash_slope_ppm", self.stash_slope_ppm);
        w.field("stash_windows", self.stash_windows).end();
        w.key("eq1").object(Layout::COMPACT).field("worst_ppm", self.eq1_worst_ppm);
        w.field("mean_ppm", self.eq1_mean_ppm).end().field("stash_peak", self.stash_peak);
        w.key("checks").object(Layout::COMPACT);
        for (name, verdict) in CHECK_NAMES.into_iter().zip(&self.checks) {
            w.field(name, verdict.as_str());
        }
        w.end().end().newline();
        w.finish()
    }
}

/// The self-checks a soak run reports, in `checks` order.
const CHECK_NAMES: [&str; 3] = ["conservation", "eq1", "trend"];

impl Report for SoakReport {
    const KIND: &'static str = "soak";
    /// Tenants, phases, requests, seed and starting backend.
    type Meta = (u64, u64, u64, u64, String);

    fn from_json(v: &Value) -> Result<SoakReport, String> {
        v.at::<u64>("soak")?;
        let meta: &Value = v.at("meta")?;
        let totals: &Value = v.at("totals")?;
        let trends: &Value = v.at("trends")?;
        let eq1: &Value = v.at("eq1")?;
        let checks: &Value = v.at("checks")?;
        let alerts: &Value = v.at("alerts")?;
        let tenants = v
            .at::<&[Value]>("tenants")?
            .iter()
            .map(|t| {
                Ok(TenantSoak {
                    completed: t.at("completed")?,
                    rejected: t.at("rejected")?,
                    p50: t.at("p50")?,
                    p99: t.at("p99")?,
                    p99_9: t.at("p99_9")?,
                    max: t.at("max")?,
                    mean: t.at("mean")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let slos = v
            .at::<&[Value]>("slos")?
            .iter()
            .map(|o| {
                Ok(SloSoak {
                    name: o.at("name")?,
                    bad: o.at("bad")?,
                    total: o.at("total")?,
                    fast: o.at("fast")?,
                    slow: o.at("slow")?,
                    breached: o.at_or("breached", false)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let phases = v
            .at::<&[Value]>("phases")?
            .iter()
            .map(|o| {
                Ok(PhaseSoak {
                    index: o.at("index")?,
                    load: o.at("load")?,
                    offset: o.at("offset")?,
                    backend: o.at("backend")?,
                    completed: o.at("completed")?,
                    rejected: o.at("rejected")?,
                    coalesced: o.at("coalesced")?,
                    end_cycle: o.at("end_cycle")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let mut alert_counts = [0u64; 4];
        for (slot, name) in alert_counts.iter_mut().zip(ALERT_NAMES) {
            *slot = alerts.at(name)?;
        }
        let mut check_verdicts: [String; 3] = Default::default();
        for (slot, name) in check_verdicts.iter_mut().zip(CHECK_NAMES) {
            *slot = checks.at(name)?;
        }
        Ok(SoakReport {
            tenants_n: meta.at("tenants")?,
            phases_n: meta.at("phases")?,
            requests_total: meta.at("requests_total")?,
            levels: meta.at("levels")?,
            domain: meta.at("domain")?,
            seed: meta.at("seed")?,
            backend: meta.at("backend")?,
            switch_backend: meta.at_or("switch_backend", None)?,
            generated: totals.at("generated")?,
            completed: totals.at("completed")?,
            rejected: totals.at("rejected")?,
            coalesced: totals.at("coalesced")?,
            final_cycle: totals.at("final_cycle")?,
            throughput_rpmc: totals.at("throughput_rpmc")?,
            tenants,
            slos,
            alerts: alert_counts,
            phases,
            latency_slope_ppm: trends.at("latency_slope_ppm")?,
            latency_windows: trends.at("latency_windows")?,
            stash_slope_ppm: trends.at("stash_slope_ppm")?,
            stash_windows: trends.at("stash_windows")?,
            eq1_worst_ppm: eq1.at("worst_ppm")?,
            eq1_mean_ppm: eq1.at("mean_ppm")?,
            stash_peak: v.at("stash_peak")?,
            checks: check_verdicts,
        })
    }

    fn meta(&self) -> Self::Meta {
        (self.tenants_n, self.phases_n, self.requests_total, self.seed, self.backend.clone())
    }

    /// Gated: per-tenant p99/p99.9 and total throughput (relative), the
    /// rejection fraction of generated requests (absolute), and the
    /// candidate's own self-checks (`ok` or `skipped` hold). The rest is
    /// information.
    fn rows(&self) -> Vec<(String, f64, Gate)> {
        let mut rows = Vec::new();
        for (t, s) in self.tenants.iter().enumerate() {
            rows.push((format!("tenant{t}.p99"), s.p99 as f64, Gate::Rise));
            rows.push((format!("tenant{t}.p99_9"), s.p99_9 as f64, Gate::Rise));
        }
        let rejected_frac =
            if self.generated == 0 { 0.0 } else { self.rejected as f64 / self.generated as f64 };
        rows.push(("throughput_rpmc".into(), self.throughput_rpmc, Gate::Fall));
        rows.push(("rejected_frac".into(), rejected_frac, Gate::RiseAbs));
        for (name, verdict) in CHECK_NAMES.into_iter().zip(&self.checks) {
            let holds = verdict == "ok" || verdict == "skipped";
            rows.push((format!("check.{name}"), f64::from(u8::from(holds)), Gate::Hold));
        }
        rows.push(("coalesced".into(), self.coalesced as f64, Gate::Info));
        rows.push(("stash_peak".into(), f64::from(self.stash_peak), Gate::Info));
        rows.push(("eq1_worst_ppm".into(), self.eq1_worst_ppm as f64, Gate::Info));
        rows.push(("latency_slope_ppm".into(), self.latency_slope_ppm as f64, Gate::Info));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_telemetry::compare_reports;

    fn tiny() -> SoakOptions {
        SoakOptions {
            tenants: 2,
            requests_total: 240,
            phases: 3,
            base_gap_cycles: 20_000.0,
            levels: 10,
            domain: 128,
            seed: 11,
            backend: BackendKind::Dram,
            switch_backend: None,
            incident_dir: None,
        }
    }

    #[test]
    fn diurnal_profile_is_symmetric() {
        for n in [2usize, 4, 5, 8] {
            for i in 0..n {
                let a = phase_load(i, n);
                let b = phase_load(n - 1 - i, n);
                assert!((a - b).abs() < 1e-12, "n={n} i={i}");
                assert!((0.8..=1.3).contains(&a));
            }
        }
        assert_eq!(phase_load(0, 1), 1.0);
    }

    #[test]
    fn options_validation_catches_bad_parameters() {
        let mut o = tiny();
        o.requests_total = 3; // splits to zero per tenant per phase
        assert!(o.validate().is_err());
        let mut o = tiny();
        o.switch_backend = Some(BackendKind::Dram);
        assert!(o.validate().is_err());
        let mut o = tiny();
        o.phases = 1;
        o.switch_backend = Some(BackendKind::Wan);
        assert!(o.validate().is_err());
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn soak_runs_chain_phases_and_self_validate() {
        let report = run_soak(&tiny(), None).expect("soak");
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.completed + report.rejected, report.generated);
        assert_eq!(report.completed, 240 - report.rejected);
        // Phase end cycles are monotone: the engine never rewinds.
        for w in report.phases.windows(2) {
            assert!(w[0].end_cycle <= w[1].end_cycle);
        }
        assert_eq!(report.checks[0], "ok");
        assert_eq!(report.checks[1], "ok");
        let text = report.render();
        assert!(text.contains("checks: conservation ok"));
    }

    #[test]
    fn soak_is_deterministic() {
        let a = run_soak(&tiny(), None).expect("soak");
        let b = run_soak(&tiny(), None).expect("soak");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn backend_switch_keeps_clocks_monotone() {
        let mut o = tiny();
        o.requests_total = 240;
        o.phases = 2;
        o.switch_backend = Some(BackendKind::Wan);
        let report = run_soak(&o, None).expect("soak with switch");
        assert_eq!(report.phases[0].backend, "dram");
        assert_eq!(report.phases[1].backend, "wan");
        assert!(report.phases[0].end_cycle <= report.phases[1].end_cycle);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = run_soak(&tiny(), None).expect("soak");
        let parsed = SoakReport::parse(&report.to_json()).expect("parse");
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn compare_gates_tail_regressions() {
        let base = run_soak(&tiny(), None).expect("soak");
        let same = compare_reports(&base, &base, 0.02).expect("compare");
        assert!(same.passed(), "{}", same.render());
        let mut worse = base.clone();
        worse.tenants[0].p99 = (base.tenants[0].p99 as f64 * 1.5) as u64 + 10;
        let out = compare_reports(&base, &worse, 0.02).expect("compare");
        assert!(!out.passed());
        assert!(out.regressions().iter().any(|d| d.name == "tenant0.p99"));
        assert!(out.render().contains("REGRESSION"));
        let mut other_seed = base.clone();
        other_seed.seed ^= 1;
        assert!(compare_reports(&base, &other_seed, 0.02).is_err());
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        let report = run_soak(&tiny(), None).expect("soak");
        let text = report.to_json().replace("\"levels\":10", "\"levels\":4294967306");
        let err = SoakReport::parse(&text).unwrap_err();
        assert!(err.contains("levels"), "{err}");
    }
}
