//! The live aggregation core: sliding sim-time windows of quantile
//! sketches and dimensional counters, fed by both telemetry streams
//! (engine-side spans/windows via [`TelemetrySink`], service-side
//! completions/rejections via [`LiveObserver`]), plus the SLO burn-rate
//! engine and threshold alerts.
//!
//! ## Window model
//!
//! Sim time is divided into fixed windows of `window_cycles`, aligned at
//! absolute multiples (window `i` covers `[i·W, (i+1)·W)`). Exactly one
//! window is *open* at a time; every event first advances the plane to
//! the window containing its cycle, closing intervening windows (empty
//! ones included — burn rates must see quiet periods). Closed windows
//! land in a fixed ring of [`RING_WINDOWS`] slots; a window evicted from
//! the ring is folded into a `folded` accumulator first, so at any
//! instant
//!
//! ```text
//! folded + Σ ring + open == cumulative totals
//! ```
//!
//! field by field — the conservation law [`LivePlane::validate_conservation`]
//! checks and the scrape-under-load test asserts.
//!
//! Everything after construction is fixed-size: event recording performs
//! no allocation (the zero-alloc bench gate runs with the plane, windows,
//! sketches and exporter attached).

use std::sync::{Arc, Mutex};

use oram_telemetry::json::{Layout, Value, Writer};
use oram_util::{
    AccessSpan, LiveObserver, MetricId, QuantileSketch, ServeClass, SharedLive, SharedTelemetry,
    TelemetrySink, WindowSample,
};

use crate::flight::{
    FlightConfig, FlightRecorder, FlightTrigger, IncidentBundle, IncidentMeta, ServiceEventKind,
    RING_NAMES, TRIGGER_FORCED,
};
use crate::slo::{AlertKind, SloEvent, SloKind, SloSpec, MAX_SLOS};
use crate::trend::TrendEstimator;

/// Backend phases broken out per window (Eq. 1 components).
pub const PHASES: usize = 6;
/// Stable phase labels, index-aligned with `WindowAgg::phase_cycles`.
pub const PHASE_NAMES: [&str; PHASES] =
    ["dram_queue", "dram_row", "dram_bus", "eviction", "network", "posmap"];
/// Serve classes broken out per window.
pub const CLASSES: usize = ServeClass::ALL.len();
/// Closed windows kept live in the ring (≥ the slow burn span).
pub const RING_WINDOWS: usize = 16;
/// The slow burn-rate span, in windows (the "12x" of fast 1x/slow 12x).
pub const SLOW_BURN_WINDOWS: usize = 12;
/// Fast burn-rate threshold (consuming budget ≥ 2x its sustainable rate
/// over the last window)...
pub const FAST_BURN_THRESHOLD: f64 = 2.0;
/// ...combined with sustained overspend across the slow span.
pub const SLOW_BURN_THRESHOLD: f64 = 1.0;
/// Rejection-knee alert threshold (the sweep's knee definition, 5%).
pub const KNEE_REJECT_PPM: u64 = 50_000;
/// Eq. 1 residual-drift alert threshold, parts per million of the
/// window width (1%).
pub const EQ1_RESIDUAL_PPM: u64 = 10_000;

const ALERT_KINDS: usize = 4;

/// Construction-time shape of a [`LivePlane`].
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// Window width in CPU cycles.
    pub window_cycles: u64,
    /// Tenant (client) slots; completions index tenant dimensions with
    /// their client id (clamped into range).
    pub tenants: usize,
    /// Shard slots.
    pub shards: usize,
    /// Stash-occupancy alert threshold (e.g. the configured stash
    /// capacity, the Path ORAM overflow bound the design sizes for).
    pub stash_bound: u32,
    /// Declared objectives (at most [`MAX_SLOS`]; extras are ignored).
    pub slos: Vec<SloSpec>,
    /// Structured-event buffer capacity; further events are counted as
    /// dropped, never allocated.
    pub event_capacity: usize,
}

impl LiveConfig {
    /// A plane shaped for a serve run: `tenants` clients, `shards`
    /// shards, the default objectives scaled to the workload's base
    /// inter-arrival gap, and the standard 50k-cycle window.
    pub fn for_serve(
        tenants: usize,
        shards: usize,
        base_gap_cycles: u64,
        stash_bound: u32,
    ) -> Self {
        LiveConfig {
            window_cycles: 50_000,
            tenants: tenants.max(1),
            shards: shards.max(1),
            stash_bound,
            slos: SloSpec::default_set(base_gap_cycles),
            event_capacity: 1024,
        }
    }
}

/// One window's aggregates (also reused for the cumulative and folded
/// accumulators). All storage is sized at construction.
#[derive(Debug)]
pub struct WindowAgg {
    /// Window index (start cycle = `index · window_cycles`).
    pub index: u64,
    /// Completed requests.
    pub completed: u64,
    /// Rejected requests.
    pub rejected: u64,
    /// Completions that rode an MSHR leader.
    pub coalesced: u64,
    /// End-to-end latency sketch (data-ready − arrival).
    pub latency: QuantileSketch,
    /// Completions per tenant.
    pub tenant_completed: Box<[u64]>,
    /// Rejections per tenant.
    pub tenant_rejected: Box<[u64]>,
    /// Latency sum per tenant (mean = sum / completed).
    pub tenant_latency_sum: Box<[u64]>,
    /// Completions per shard.
    pub shard_completed: Box<[u64]>,
    /// Completions per serve class.
    pub class_completed: [u64; CLASSES],
    /// Cycles per backend phase (from span attribution).
    pub phase_cycles: [u64; PHASES],
    /// Engine spans observed.
    pub spans: u64,
    /// Peak live stash occupancy observed.
    pub stash_max: u32,
    /// Per-objective bad events.
    pub slo_bad: [u64; MAX_SLOS],
    /// Per-objective total events.
    pub slo_total: [u64; MAX_SLOS],
}

impl WindowAgg {
    fn new(tenants: usize, shards: usize) -> Self {
        WindowAgg {
            index: 0,
            completed: 0,
            rejected: 0,
            coalesced: 0,
            latency: QuantileSketch::new(),
            tenant_completed: vec![0; tenants].into_boxed_slice(),
            tenant_rejected: vec![0; tenants].into_boxed_slice(),
            tenant_latency_sum: vec![0; tenants].into_boxed_slice(),
            shard_completed: vec![0; shards].into_boxed_slice(),
            class_completed: [0; CLASSES],
            phase_cycles: [0; PHASES],
            spans: 0,
            stash_max: 0,
            slo_bad: [0; MAX_SLOS],
            slo_total: [0; MAX_SLOS],
        }
    }

    /// Clears to an empty window at `index`. No allocation.
    fn reset(&mut self, index: u64) {
        self.index = index;
        self.completed = 0;
        self.rejected = 0;
        self.coalesced = 0;
        self.latency.reset();
        self.tenant_completed.fill(0);
        self.tenant_rejected.fill(0);
        self.tenant_latency_sum.fill(0);
        self.shard_completed.fill(0);
        self.class_completed = [0; CLASSES];
        self.phase_cycles = [0; PHASES];
        self.spans = 0;
        self.stash_max = 0;
        self.slo_bad = [0; MAX_SLOS];
        self.slo_total = [0; MAX_SLOS];
    }

    /// Overwrites `self` with `src`. No allocation.
    fn copy_from(&mut self, src: &WindowAgg) {
        self.index = src.index;
        self.completed = src.completed;
        self.rejected = src.rejected;
        self.coalesced = src.coalesced;
        self.latency.copy_from(&src.latency);
        self.tenant_completed.copy_from_slice(&src.tenant_completed);
        self.tenant_rejected.copy_from_slice(&src.tenant_rejected);
        self.tenant_latency_sum.copy_from_slice(&src.tenant_latency_sum);
        self.shard_completed.copy_from_slice(&src.shard_completed);
        self.class_completed = src.class_completed;
        self.phase_cycles = src.phase_cycles;
        self.spans = src.spans;
        self.stash_max = src.stash_max;
        self.slo_bad = src.slo_bad;
        self.slo_total = src.slo_total;
    }

    /// Adds `self`'s tallies into `dst` (stash as max). No allocation.
    fn add_into(&self, dst: &mut WindowAgg) {
        dst.completed += self.completed;
        dst.rejected += self.rejected;
        dst.coalesced += self.coalesced;
        dst.latency.merge(&self.latency);
        for (d, s) in dst.tenant_completed.iter_mut().zip(self.tenant_completed.iter()) {
            *d += s;
        }
        for (d, s) in dst.tenant_rejected.iter_mut().zip(self.tenant_rejected.iter()) {
            *d += s;
        }
        for (d, s) in dst.tenant_latency_sum.iter_mut().zip(self.tenant_latency_sum.iter()) {
            *d += s;
        }
        for (d, s) in dst.shard_completed.iter_mut().zip(self.shard_completed.iter()) {
            *d += s;
        }
        for k in 0..CLASSES {
            dst.class_completed[k] += self.class_completed[k];
        }
        for k in 0..PHASES {
            dst.phase_cycles[k] += self.phase_cycles[k];
        }
        dst.spans += self.spans;
        dst.stash_max = dst.stash_max.max(self.stash_max);
        for k in 0..MAX_SLOS {
            dst.slo_bad[k] += self.slo_bad[k];
            dst.slo_total[k] += self.slo_total[k];
        }
    }
}

/// Per-objective burn-rate snapshot.
#[derive(Debug, Clone, Copy, Default)]
pub struct BurnState {
    /// Budget-consumption rate over the last closed window (1.0 =
    /// exactly on budget).
    pub fast: f64,
    /// Budget-consumption rate over the last [`SLOW_BURN_WINDOWS`]
    /// closed windows.
    pub slow: f64,
    /// Whether the objective is currently in breach (both thresholds
    /// exceeded at the latest window close).
    pub breached: bool,
}

/// The live observability plane. Implements both sink traits so one
/// object aggregates the engine-side stream (spans, windows, stash
/// samples) and the service-side stream (completions, rejections).
#[derive(Debug)]
pub struct LivePlane {
    cfg: LiveConfig,
    total: WindowAgg,
    folded: WindowAgg,
    open: WindowAgg,
    ring: Vec<WindowAgg>,
    closed_windows: u64,
    /// Cumulative per-tenant latency sketches (windows keep sums only).
    tenant_latency: Vec<QuantileSketch>,
    // Engine-side Eq. 1 window-stream tracking.
    engine_windows: u64,
    eq1_width: u64,
    eq1_data: u64,
    eq1_dri: u64,
    eq1_worst_residual_ppm: u64,
    stash_peak: u32,
    // SLO / alert state.
    burns: [BurnState; MAX_SLOS],
    alert_active: [bool; ALERT_KINDS],
    alert_counts: [u64; ALERT_KINDS],
    events: Vec<SloEvent>,
    events_dropped: u64,
    // Cumulative PLB counters from the engine's counter stream (the
    // posmap lookaside buffer lives outside the windowed conservation
    // law — counters are monotone totals, like `eq1_*`).
    plb_hits: u64,
    plb_misses: u64,
    plb_evictions: u64,
    // Windowed drift estimators (fed at every window close).
    latency_trend: TrendEstimator,
    stash_trend: TrendEstimator,
    // Optional flight recorder; frozen by trigger alerts.
    flight: Option<FlightRecorder>,
}

impl LivePlane {
    /// A plane shaped by `cfg`. All aggregation storage is allocated
    /// here; nothing allocates afterwards.
    pub fn new(mut cfg: LiveConfig) -> Self {
        cfg.slos.truncate(MAX_SLOS);
        cfg.tenants = cfg.tenants.max(1);
        cfg.shards = cfg.shards.max(1);
        assert!(cfg.window_cycles > 0, "window_cycles must be positive");
        let t = cfg.tenants;
        let s = cfg.shards;
        let ring = (0..RING_WINDOWS).map(|_| WindowAgg::new(t, s)).collect();
        LivePlane {
            total: WindowAgg::new(t, s),
            folded: WindowAgg::new(t, s),
            open: WindowAgg::new(t, s),
            ring,
            closed_windows: 0,
            tenant_latency: (0..t).map(|_| QuantileSketch::new()).collect(),
            engine_windows: 0,
            eq1_width: 0,
            eq1_data: 0,
            eq1_dri: 0,
            eq1_worst_residual_ppm: 0,
            stash_peak: 0,
            burns: [BurnState::default(); MAX_SLOS],
            alert_active: [false; ALERT_KINDS],
            alert_counts: [0; ALERT_KINDS],
            events: Vec::with_capacity(cfg.event_capacity),
            events_dropped: 0,
            plb_hits: 0,
            plb_misses: 0,
            plb_evictions: 0,
            latency_trend: TrendEstimator::new(),
            stash_trend: TrendEstimator::new(),
            flight: None,
            cfg,
        }
    }

    /// Wraps a fresh plane in a shared handle.
    pub fn shared(cfg: LiveConfig) -> Arc<Mutex<LivePlane>> {
        Arc::new(Mutex::new(LivePlane::new(cfg)))
    }

    /// Upcasts a shared plane to the engine-side telemetry handle.
    pub fn as_sink(this: &Arc<Mutex<LivePlane>>) -> SharedTelemetry {
        this.clone()
    }

    /// Upcasts a shared plane to the service-side observer handle.
    pub fn as_live(this: &Arc<Mutex<LivePlane>>) -> SharedLive {
        this.clone()
    }

    /// The configuration in force.
    pub fn config(&self) -> &LiveConfig {
        &self.cfg
    }

    /// Cumulative totals since construction.
    pub fn total(&self) -> &WindowAgg {
        &self.total
    }

    /// The open (in-progress) window.
    pub fn open_window(&self) -> &WindowAgg {
        &self.open
    }

    /// Closed windows so far.
    pub fn closed_windows(&self) -> u64 {
        self.closed_windows
    }

    /// The most recently closed window, if any.
    pub fn last_closed(&self) -> Option<&WindowAgg> {
        if self.closed_windows == 0 {
            return None;
        }
        let idx = self.closed_windows - 1;
        Some(&self.ring[(idx % RING_WINDOWS as u64) as usize])
    }

    /// Ring slot `i` (0-based), if a closed window occupies it.
    pub fn ring_window(&self, i: usize) -> Option<&WindowAgg> {
        if i < RING_WINDOWS && (i as u64) < self.closed_windows.min(RING_WINDOWS as u64) {
            Some(&self.ring[i])
        } else {
            None
        }
    }

    /// Cumulative latency sketch for tenant `t`.
    pub fn tenant_latency(&self, t: usize) -> &QuantileSketch {
        &self.tenant_latency[t]
    }

    /// Burn-rate snapshot for objective `i`.
    pub fn burn(&self, i: usize) -> BurnState {
        self.burns[i]
    }

    /// Structured alert events emitted so far (oldest first; bounded by
    /// the configured capacity).
    pub fn events(&self) -> &[SloEvent] {
        &self.events
    }

    /// Events discarded after the buffer filled.
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Alert firings by kind (raise edges, not per-window repeats).
    pub fn alert_count(&self, kind: AlertKind) -> u64 {
        self.alert_counts[kind.index()]
    }

    /// Peak live stash occupancy seen on the engine stream.
    pub fn stash_peak(&self) -> u32 {
        self.stash_peak
    }

    /// Engine time-series windows observed.
    pub fn engine_windows(&self) -> u64 {
        self.engine_windows
    }

    /// Cumulative posmap lookaside buffer totals: (hits, misses,
    /// evictions). All zero under a flat posmap.
    pub fn plb_totals(&self) -> (u64, u64, u64) {
        (self.plb_hits, self.plb_misses, self.plb_evictions)
    }

    /// Worst Eq. 1 residual observed, in ppm of the window width.
    pub fn eq1_worst_residual_ppm(&self) -> u64 {
        self.eq1_worst_residual_ppm
    }

    /// Mean Eq. 1 residual over all engine windows, in ppm.
    pub fn eq1_mean_residual_ppm(&self) -> u64 {
        if self.eq1_width == 0 {
            return 0;
        }
        let covered = self.eq1_data + self.eq1_dri;
        covered.saturating_sub(self.eq1_width) * 1_000_000 / self.eq1_width
    }

    /// Per-window end-to-end latency (p99) drift estimator: one point
    /// per closed window that saw completions, `x` = window index, `y` =
    /// the window's p99 latency in cycles.
    pub fn latency_trend(&self) -> &TrendEstimator {
        &self.latency_trend
    }

    /// Per-window stash-occupancy drift estimator: one point per closed
    /// window that observed the stash, `y` = the window's peak
    /// occupancy.
    pub fn stash_trend(&self) -> &TrendEstimator {
        &self.stash_trend
    }

    /// Attaches a flight recorder. All ring storage is allocated here;
    /// recording afterwards never allocates.
    pub fn attach_flight(&mut self, cfg: FlightConfig) {
        self.flight = Some(FlightRecorder::new(cfg));
    }

    /// The attached flight recorder, if any.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Freezes the flight recorder explicitly (CLI `--force-incident`,
    /// golden tests) with a synthetic [`TRIGGER_FORCED`] trigger at the
    /// open window's start. No-op without a recorder or after a real
    /// trigger already froze it.
    pub fn force_incident(&mut self) {
        let (window_index, window_cycles) = (self.open.index, self.cfg.window_cycles);
        if let Some(f) = self.flight.as_mut() {
            f.freeze(FlightTrigger {
                kind: TRIGGER_FORCED,
                cycle: window_index * window_cycles,
                window_index,
                slo: u32::MAX,
                value: 0,
                threshold: 0,
            });
        }
    }

    /// Renders the frozen flight-recorder state plus the plane's metric
    /// exposition into a self-contained incident bundle. Off the hot
    /// path; allocates freely.
    ///
    /// # Errors
    ///
    /// Fails when no recorder is attached or no trigger has frozen it.
    pub fn render_incident(&self, meta: &IncidentMeta) -> Result<IncidentBundle, String> {
        let f = self.flight.as_ref().ok_or("no flight recorder attached")?;
        let trig = *f.trigger().ok_or("no trigger fired; freeze the recorder first")?;
        let names: Vec<String> = self.cfg.slos.iter().map(|s| s.name.clone()).collect();
        let (spans_jsonl, trace_json, alerts_jsonl, windows_jsonl, events_jsonl) =
            f.render_streams(&names);
        let mut w = Writer::new();
        w.object(Layout::LINES).field("schema", 1u64).key("trigger").object(Layout::COMPACT);
        w.field("kind", trig.kind).field("cycle", trig.cycle).field("window", trig.window_index);
        w.field("slo", names.get(trig.slo as usize).map(String::as_str));
        w.field("value", trig.value).field("threshold", trig.threshold).end();
        w.key("config").object(Layout::COMPACT).field("seed", meta.seed);
        w.field("levels", meta.levels).field("clients", meta.clients);
        w.field("shards", meta.shards).field("requests", meta.requests).field("load", meta.load);
        w.field("scheduler", meta.scheduler.as_str()).field("backend", meta.backend.as_str());
        w.field("window_cycles", self.cfg.window_cycles);
        w.field("stash_bound", self.cfg.stash_bound).key("slos").array(Layout::COMPACT);
        for s in &self.cfg.slos {
            w.object(Layout::COMPACT).field("name", s.name.as_str());
            w.field("budget", s.budget).end();
        }
        w.end().end().key("counts").object(Layout::COMPACT);
        for (name, (held, dropped)) in RING_NAMES.into_iter().zip(f.counts()) {
            w.key(name).object(Layout::COMPACT).field("held", held);
            w.field("dropped", dropped).end();
        }
        w.end().end().newline();
        let meta_json = w.finish();
        Ok(IncidentBundle {
            meta_json,
            spans_jsonl,
            trace_json,
            metrics_prom: crate::prom::render_prometheus(self),
            alerts_jsonl,
            windows_jsonl,
            events_jsonl,
        })
    }

    fn push_event(&mut self, ev: SloEvent) {
        if let Some(f) = self.flight.as_mut() {
            // The triggering event is recorded first, then the freeze
            // lands, so the bundle always contains its own trigger.
            f.record_slo(&ev);
            if matches!(
                ev.kind,
                AlertKind::SloBurn | AlertKind::StashPressure | AlertKind::Eq1Residual
            ) {
                f.freeze(FlightTrigger {
                    kind: ev.kind.name(),
                    cycle: ev.cycle,
                    window_index: ev.window_index,
                    slo: ev.slo,
                    value: ev.value,
                    threshold: ev.threshold,
                });
            }
        }
        if self.events.len() < self.events.capacity() {
            self.events.push(ev);
        } else {
            self.events_dropped += 1;
        }
    }

    /// Advances the plane so the open window contains `now`, closing any
    /// windows that end at or before it.
    #[inline]
    fn advance(&mut self, now: u64) {
        let target = now / self.cfg.window_cycles;
        while self.open.index < target {
            self.close_open();
        }
    }

    /// Closes the open window: folds the evicted ring slot, copies the
    /// window in, evaluates burn rates and threshold alerts, and opens
    /// the successor.
    fn close_open(&mut self) {
        let idx = self.open.index;
        let slot = (idx % RING_WINDOWS as u64) as usize;
        if self.closed_windows >= RING_WINDOWS as u64 {
            // About to overwrite the oldest live window: fold it first so
            // conservation holds.
            let (folded, evicted) = (&mut self.folded, &self.ring[slot]);
            evicted.add_into(folded);
        }
        self.ring[slot].copy_from(&self.open);
        self.closed_windows += 1;
        // Feed the drift estimators: one point per window that actually
        // observed the signal, so idle windows don't drag slopes to zero.
        let w = &self.ring[slot];
        if w.completed > 0 {
            self.latency_trend.push(w.index as f64, w.latency.quantile(0.99) as f64);
        }
        if w.stash_max > 0 {
            self.stash_trend.push(w.index as f64, w.stash_max as f64);
        }
        self.evaluate_alerts(slot);
        self.open.reset(idx + 1);
    }

    /// Burn rates and threshold alerts at window close. `slot` is the
    /// just-closed window's ring slot.
    fn evaluate_alerts(&mut self, slot: usize) {
        let w = &self.ring[slot];
        let close_cycle = (w.index + 1) * self.cfg.window_cycles;
        let window_index = w.index;

        // Multi-window SLO burn rates: fast over this window, slow over
        // the last SLOW_BURN_WINDOWS closed windows.
        let span = (self.closed_windows.min(SLOW_BURN_WINDOWS as u64)) as usize;
        for i in 0..self.cfg.slos.len() {
            let budget = self.cfg.slos[i].budget;
            let fast = burn_rate(self.ring[slot].slo_bad[i], self.ring[slot].slo_total[i], budget);
            let (mut bad, mut tot) = (0u64, 0u64);
            for back in 0..span {
                let wi = self.closed_windows - 1 - back as u64;
                let s = (wi % RING_WINDOWS as u64) as usize;
                bad += self.ring[s].slo_bad[i];
                tot += self.ring[s].slo_total[i];
            }
            let slow = burn_rate(bad, tot, budget);
            let breach = fast >= FAST_BURN_THRESHOLD && slow >= SLOW_BURN_THRESHOLD;
            let was = self.burns[i].breached;
            self.burns[i] = BurnState { fast, slow, breached: breach };
            if breach && !was {
                self.alert_counts[AlertKind::SloBurn.index()] += 1;
                self.push_event(SloEvent {
                    window_index,
                    cycle: close_cycle,
                    kind: AlertKind::SloBurn,
                    slo: i as u32,
                    value: (fast * 1_000_000.0) as u64,
                    threshold: (FAST_BURN_THRESHOLD * 1_000_000.0) as u64,
                });
            }
        }

        // Stash pressure: window peak vs. the configured bound.
        let stash_max = self.ring[slot].stash_max;
        let stash_bound = self.cfg.stash_bound;
        let stash_breach = stash_bound > 0 && stash_max >= stash_bound;
        self.edge_alert(
            AlertKind::StashPressure,
            stash_breach,
            window_index,
            close_cycle,
            stash_max as u64,
            stash_bound as u64,
        );

        // Rejection knee: window rejection fraction vs. the sweep's 5%
        // knee definition.
        let (completed, rejected) = (self.ring[slot].completed, self.ring[slot].rejected);
        let offered = completed + rejected;
        let reject_ppm = (rejected * 1_000_000).checked_div(offered).unwrap_or(0);
        self.edge_alert(
            AlertKind::RejectionKnee,
            reject_ppm > KNEE_REJECT_PPM,
            window_index,
            close_cycle,
            reject_ppm,
            KNEE_REJECT_PPM,
        );
    }

    fn edge_alert(
        &mut self,
        kind: AlertKind,
        breach: bool,
        window_index: u64,
        cycle: u64,
        value: u64,
        threshold: u64,
    ) {
        let k = kind.index();
        if breach && !self.alert_active[k] {
            self.alert_counts[k] += 1;
            self.push_event(SloEvent {
                window_index,
                cycle,
                kind,
                slo: u32::MAX,
                value,
                threshold,
            });
        }
        self.alert_active[k] = breach;
    }

    /// Closes the open window unconditionally (end-of-run flush) so the
    /// final partial window reaches the ring, burn rates and exporters.
    pub fn flush(&mut self) {
        self.close_open();
    }

    /// The conservation law: `folded + Σ live ring + open == total`,
    /// field by field.
    ///
    /// # Errors
    ///
    /// Returns a description of the first field that fails to balance.
    pub fn validate_conservation(&self) -> Result<(), String> {
        let mut acc = WindowAgg::new(self.cfg.tenants, self.cfg.shards);
        self.folded.add_into(&mut acc);
        let live = self.closed_windows.min(RING_WINDOWS as u64) as usize;
        for s in 0..live {
            self.ring[s].add_into(&mut acc);
        }
        self.open.add_into(&mut acc);

        let checks: [(&str, u64, u64); 7] = [
            ("completed", acc.completed, self.total.completed),
            ("rejected", acc.rejected, self.total.rejected),
            ("coalesced", acc.coalesced, self.total.coalesced),
            ("latency.count", acc.latency.count(), self.total.latency.count()),
            ("latency.sum", acc.latency.sum(), self.total.latency.sum()),
            ("spans", acc.spans, self.total.spans),
            (
                "phase_cycles",
                acc.phase_cycles.iter().sum::<u64>(),
                self.total.phase_cycles.iter().sum::<u64>(),
            ),
        ];
        for (name, got, want) in checks {
            if got != want {
                return Err(format!("window {name} deltas sum to {got}, registry total {want}"));
            }
        }
        for t in 0..self.cfg.tenants {
            if acc.tenant_completed[t] != self.total.tenant_completed[t]
                || acc.tenant_rejected[t] != self.total.tenant_rejected[t]
            {
                return Err(format!("tenant {t} window deltas do not sum to totals"));
            }
        }
        for s in 0..self.cfg.shards {
            if acc.shard_completed[s] != self.total.shard_completed[s] {
                return Err(format!("shard {s} window deltas do not sum to totals"));
            }
        }
        for k in 0..CLASSES {
            if acc.class_completed[k] != self.total.class_completed[k] {
                return Err(format!("class {k} window deltas do not sum to totals"));
            }
        }
        for i in 0..self.cfg.slos.len() {
            if acc.slo_bad[i] != self.total.slo_bad[i]
                || acc.slo_total[i] != self.total.slo_total[i]
            {
                return Err(format!("slo {i} window tallies do not sum to totals"));
            }
        }
        Ok(())
    }
}
/// What an incident bundle's `meta.json` records, read back by
/// [`BundleMeta::parse`]; [`LivePlane::render_incident`] writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleMeta {
    /// Trigger family (`slo_burn`, `stash_pressure`, `eq1_residual`, or
    /// `forced`).
    pub trigger_kind: String,
    /// Sim cycle the trigger fired at.
    pub trigger_cycle: u64,
    /// Objective name for SLO-burn triggers.
    pub trigger_slo: Option<String>,
    /// Master seed of the run.
    pub seed: u64,
    /// Storage backend of the run.
    pub backend: String,
    /// Per-ring `(held, dropped)` counts, in [`RING_NAMES`] order.
    pub counts: [(u64, u64); 4],
}

impl BundleMeta {
    /// Reads a `meta.json` written by [`LivePlane::render_incident`].
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field, or an unknown schema.
    pub fn parse(text: &str) -> Result<BundleMeta, String> {
        let meta = oram_telemetry::json::parse(text)?;
        let schema: u64 = meta.at("schema")?;
        if schema != 1 {
            return Err(format!("unsupported schema {schema} (expected 1)"));
        }
        let trigger: &Value = meta.at("trigger")?;
        trigger.at::<u64>("window")?;
        let config: &Value = meta.at("config")?;
        let counts: &Value = meta.at("counts")?;
        let mut held_dropped = [(0, 0); 4];
        for (slot, name) in held_dropped.iter_mut().zip(RING_NAMES) {
            let ring: &Value = counts.at(name)?;
            *slot = (ring.at("held")?, ring.at("dropped")?);
        }
        Ok(BundleMeta {
            trigger_kind: trigger.at("kind")?,
            trigger_cycle: trigger.at("cycle")?,
            trigger_slo: trigger.at_or("slo", None)?,
            seed: config.at("seed")?,
            backend: config.at("backend")?,
            counts: held_dropped,
        })
    }
}

/// Budget-consumption rate: observed bad fraction over the allowed one.
fn burn_rate(bad: u64, total: u64, budget: f64) -> f64 {
    if total == 0 || budget <= 0.0 {
        return 0.0;
    }
    (bad as f64 / total as f64) / budget
}

impl LiveObserver for LivePlane {
    fn request_complete(
        &mut self,
        now: u64,
        tenant: u32,
        shard: u32,
        class: ServeClass,
        latency: u64,
        coalesced: bool,
    ) {
        if coalesced {
            if let Some(f) = self.flight.as_mut() {
                f.record_service(now, tenant, ServiceEventKind::Coalesce);
            }
        }
        self.advance(now);
        let t = (tenant as usize).min(self.cfg.tenants - 1);
        let s = (shard as usize).min(self.cfg.shards - 1);
        let k = class as usize;
        for agg in [&mut self.open, &mut self.total] {
            agg.completed += 1;
            if coalesced {
                agg.coalesced += 1;
            }
            agg.latency.record(latency);
            agg.tenant_completed[t] += 1;
            agg.tenant_latency_sum[t] += latency;
            agg.shard_completed[s] += 1;
            agg.class_completed[k] += 1;
        }
        self.tenant_latency[t].record(latency);
        for i in 0..self.cfg.slos.len() {
            match self.cfg.slos[i].kind {
                SloKind::LatencyAbove { threshold_cycles } => {
                    let bad = (latency > threshold_cycles) as u64;
                    for agg in [&mut self.open, &mut self.total] {
                        agg.slo_total[i] += 1;
                        agg.slo_bad[i] += bad;
                    }
                }
                SloKind::Rejection => {
                    for agg in [&mut self.open, &mut self.total] {
                        agg.slo_total[i] += 1;
                    }
                }
            }
        }
    }

    fn request_rejected(&mut self, now: u64, tenant: u32) {
        if let Some(f) = self.flight.as_mut() {
            f.record_service(now, tenant, ServiceEventKind::Reject);
        }
        self.advance(now);
        let t = (tenant as usize).min(self.cfg.tenants - 1);
        for agg in [&mut self.open, &mut self.total] {
            agg.rejected += 1;
            agg.tenant_rejected[t] += 1;
        }
        for i in 0..self.cfg.slos.len() {
            if matches!(self.cfg.slos[i].kind, SloKind::Rejection) {
                for agg in [&mut self.open, &mut self.total] {
                    agg.slo_total[i] += 1;
                    agg.slo_bad[i] += 1;
                }
            }
        }
    }

    fn request_admitted(&mut self, now: u64, tenant: u32) {
        // Admission is history for the flight recorder only: window
        // aggregation stays driven by completions/rejections, so plane
        // outputs are unchanged whether or not this hook fires.
        if let Some(f) = self.flight.as_mut() {
            f.record_service(now, tenant, ServiceEventKind::Admit);
        }
    }
}

impl TelemetrySink for LivePlane {
    #[inline]
    fn count(&mut self, id: MetricId, delta: u64) {
        // Most engine counters stay with the standard recorder; the
        // plane aggregates only what it windows — plus the PLB totals,
        // which are monotone and exported verbatim by /metrics.
        match id {
            MetricId::PlbHit => self.plb_hits += delta,
            MetricId::PlbMiss => self.plb_misses += delta,
            MetricId::PlbEvict => self.plb_evictions += delta,
            _ => {}
        }
    }

    #[inline]
    fn sample(&mut self, id: MetricId, value: u64) {
        if id == MetricId::StashOccupancy {
            let v = value as u32;
            self.stash_peak = self.stash_peak.max(v);
            self.open.stash_max = self.open.stash_max.max(v);
        }
    }

    #[inline]
    fn span(&mut self, span: &AccessSpan) {
        if let Some(f) = self.flight.as_mut() {
            f.record_span(span);
        }
        self.advance(span.end);
        let a = &span.attr;
        let phases = [a.dram_queue, a.dram_row, a.dram_bus, a.eviction, a.network, a.posmap];
        for agg in [&mut self.open, &mut self.total] {
            for (acc, add) in agg.phase_cycles.iter_mut().zip(phases) {
                *acc += add;
            }
            agg.spans += 1;
            agg.stash_max = agg.stash_max.max(span.stash_live);
        }
        self.stash_peak = self.stash_peak.max(span.stash_live);
    }

    fn window(&mut self, w: &WindowSample) {
        if let Some(f) = self.flight.as_mut() {
            f.record_window(w);
        }
        self.advance(w.end_cycle);
        self.engine_windows += 1;
        let width = w.end_cycle - w.start_cycle;
        self.eq1_width += width;
        self.eq1_data += w.data_cycles;
        self.eq1_dri += w.dri_cycles;
        self.stash_peak = self.stash_peak.max(w.stash_live);
        // Eq. 1 per window: data + dri covers exactly the window width
        // unless an access straddles the boundary; the overshoot is the
        // residual whose drift we alert on.
        let residual_ppm = ((w.data_cycles + w.dri_cycles).saturating_sub(width) * 1_000_000)
            .checked_div(width)
            .unwrap_or(0);
        self.eq1_worst_residual_ppm = self.eq1_worst_residual_ppm.max(residual_ppm);
        let window_index = self.open.index;
        self.edge_alert(
            AlertKind::Eq1Residual,
            residual_ppm > EQ1_RESIDUAL_PPM,
            window_index,
            w.end_cycle,
            residual_ppm,
            EQ1_RESIDUAL_PPM,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(slos: Vec<SloSpec>) -> LivePlane {
        LivePlane::new(LiveConfig {
            window_cycles: 1_000,
            tenants: 3,
            shards: 2,
            stash_bound: 100,
            slos,
            event_capacity: 64,
        })
    }

    #[test]
    fn windows_close_on_advance_and_conserve() {
        let mut p = plane(SloSpec::default_set(1_000));
        for i in 0..10_000u64 {
            let now = i * 37;
            p.request_complete(
                now,
                (i % 3) as u32,
                (i % 2) as u32,
                ServeClass::DramReal,
                500 + i % 3_000,
                i % 5 == 0,
            );
            if i % 11 == 0 {
                p.request_rejected(now, (i % 3) as u32);
            }
        }
        assert!(p.closed_windows() > RING_WINDOWS as u64, "ring must have wrapped");
        p.validate_conservation().expect("conservation");
        assert_eq!(p.total().completed, 10_000);
        assert_eq!(p.total().rejected, 10_000 / 11 + 1);
        let t = p.total();
        assert_eq!(t.tenant_completed.iter().sum::<u64>(), t.completed);
        assert_eq!(t.shard_completed.iter().sum::<u64>(), t.completed);
        assert_eq!(t.class_completed.iter().sum::<u64>(), t.completed);
        p.flush();
        p.validate_conservation().expect("conservation after flush");
    }

    #[test]
    fn latency_slo_burn_fires_under_sustained_breach() {
        let slo = SloSpec {
            name: "lat".to_string(),
            kind: SloKind::LatencyAbove { threshold_cycles: 100 },
            budget: 0.01,
        };
        let mut p = plane(vec![slo]);
        // Every request breaches: burn = 100x budget, fast and slow.
        for i in 0..20_000u64 {
            p.request_complete(i * 10, 0, 0, ServeClass::Stash, 1_000, false);
        }
        p.flush();
        assert!(p.burn(0).fast > FAST_BURN_THRESHOLD);
        assert!(p.burn(0).slow > SLOW_BURN_THRESHOLD);
        assert!(p.burn(0).breached);
        assert_eq!(p.alert_count(AlertKind::SloBurn), 1, "edge-triggered, not per window");
        assert!(p.events().iter().any(|e| e.kind == AlertKind::SloBurn));
    }

    #[test]
    fn healthy_run_fires_no_alerts() {
        let mut p = plane(SloSpec::default_set(1_000));
        for i in 0..20_000u64 {
            p.request_complete(i * 10, 0, 0, ServeClass::Stash, 50, false);
        }
        p.flush();
        assert_eq!(p.events().len(), 0);
        assert!(!p.burn(0).breached);
    }

    #[test]
    fn rejection_knee_and_stash_alerts() {
        let mut p = plane(vec![]);
        // 50% rejections: far past the 5% knee.
        for i in 0..4_000u64 {
            p.request_complete(i * 10, 0, 0, ServeClass::Stash, 10, false);
            p.request_rejected(i * 10, 1);
        }
        p.flush();
        assert!(p.alert_count(AlertKind::RejectionKnee) >= 1);
        // Stash breach via the engine sample stream.
        let mut p = plane(vec![]);
        p.sample(MetricId::StashOccupancy, 150);
        p.request_complete(10, 0, 0, ServeClass::Stash, 10, false);
        p.flush();
        assert_eq!(p.alert_count(AlertKind::StashPressure), 1);
        assert_eq!(p.stash_peak(), 150);
    }

    #[test]
    fn eq1_residual_tracking() {
        let mut p = plane(vec![]);
        p.window(&WindowSample {
            index: 0,
            start_cycle: 0,
            end_cycle: 1_000,
            data_cycles: 600,
            dri_cycles: 400,
            ..Default::default()
        });
        assert_eq!(p.eq1_worst_residual_ppm(), 0);
        // 2% overshoot: an access straddled the boundary.
        p.window(&WindowSample {
            index: 1,
            start_cycle: 1_000,
            end_cycle: 2_000,
            data_cycles: 620,
            dri_cycles: 400,
            ..Default::default()
        });
        assert_eq!(p.eq1_worst_residual_ppm(), 20_000);
        assert_eq!(p.alert_count(AlertKind::Eq1Residual), 1);
        assert_eq!(p.engine_windows(), 2);
    }

    #[test]
    fn flight_recorder_freezes_on_stash_trigger_and_renders() {
        let mut p = plane(vec![]);
        p.attach_flight(FlightConfig::default());
        for i in 0..2_000u64 {
            p.request_complete(i * 10, 0, 0, ServeClass::Stash, 10, i % 7 == 0);
        }
        // Stash breach (bound 100) freezes the recorder at window close.
        p.sample(MetricId::StashOccupancy, 150);
        p.request_complete(25_000, 0, 0, ServeClass::Stash, 10, false);
        p.flush();
        let f = p.flight().expect("recorder attached");
        assert!(f.is_frozen());
        let trig = f.trigger().unwrap();
        assert_eq!(trig.kind, "stash_pressure");
        assert_eq!(trig.value, 150);
        let bundle = p.render_incident(&IncidentMeta::default()).unwrap();
        assert!(bundle.meta_json.contains("\"kind\":\"stash_pressure\""));
        assert!(bundle.alerts_jsonl.contains("stash_pressure"));
        assert!(!bundle.metrics_prom.is_empty());
        assert!(bundle.events_jsonl.contains("\"kind\":\"coalesce\""));
    }

    #[test]
    fn forced_incident_renders_without_any_alert() {
        let mut p = plane(SloSpec::default_set(1_000));
        p.attach_flight(FlightConfig::default());
        for i in 0..5_000u64 {
            p.request_complete(i * 10, (i % 3) as u32, 0, ServeClass::Stash, 50, false);
        }
        p.flush();
        assert!(p.render_incident(&IncidentMeta::default()).is_err(), "no trigger yet");
        p.force_incident();
        let b = p.render_incident(&IncidentMeta::default()).unwrap();
        assert!(b.meta_json.contains("\"kind\":\"forced\""));
        assert_eq!(b.files().len(), 7);
        assert!(b.meta_json.contains("\"slos\":[{\"name\":\"latency_p99\""));
    }

    #[test]
    fn trend_estimators_follow_window_series() {
        let mut p = plane(vec![]);
        // Latency ramps linearly with time: positive per-window slope.
        for i in 0..20_000u64 {
            let now = i * 10;
            p.request_complete(now, 0, 0, ServeClass::Stash, 100 + now / 100, false);
        }
        p.flush();
        assert!(p.latency_trend().samples() > 10);
        assert!(p.latency_trend().slope() > 5.0, "slope {}", p.latency_trend().slope());
        // Flat latency: slope collapses to ~0.
        let mut q = plane(vec![]);
        for i in 0..20_000u64 {
            q.request_complete(i * 10, 0, 0, ServeClass::Stash, 500, false);
        }
        q.flush();
        assert!(q.latency_trend().slope().abs() < 1e-6);
        assert_eq!(q.stash_trend().samples(), 0, "no stash signal observed");
    }

    #[test]
    fn event_buffer_is_bounded() {
        let mut p = LivePlane::new(LiveConfig {
            window_cycles: 100,
            tenants: 1,
            shards: 1,
            stash_bound: 1,
            slos: vec![],
            event_capacity: 2,
        });
        // Alternate breach / recover so the edge trigger fires repeatedly:
        // window i carries a stash sample only when i is even.
        for i in 0..40u64 {
            p.request_complete(i * 100, 0, 0, ServeClass::Stash, 1, false);
            if i % 2 == 0 {
                p.sample(MetricId::StashOccupancy, 10);
            }
        }
        p.flush();
        assert!(p.events().len() <= 2);
        assert!(p.events_dropped() > 0);
    }
}
