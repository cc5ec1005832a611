//! The flight recorder: bounded full-fidelity recent history, frozen at
//! the moment an anomaly trigger fires and exportable as a self-contained
//! incident bundle.
//!
//! The live plane aggregates — by the time an SLO burn alert pages, the
//! individual spans and admission decisions that explain it have been
//! folded into window counters. The recorder keeps the raw recent
//! history in four preallocated overwrite-oldest [`Ring`]s:
//!
//! * engine [`AccessSpan`]s with full cycle attribution,
//! * service admission / rejection / coalesce events,
//! * structured [`SloEvent`]s,
//! * engine Eq. 1 [`WindowSample`]s.
//!
//! Recording is allocation-free after construction (the zero-alloc bench
//! gate runs with the recorder attached). When a trigger fires — an SLO
//! burn alert, stash occupancy reaching the configured bound, or an
//! Eq. 1 residual drift alert — the recorder **freezes**: the rings stop
//! overwriting, preserving the exact history leading up to the trigger.
//! The frozen state renders to an [`IncidentBundle`] of seven files
//! (`repro incident <dir>` re-validates them offline); rendering happens
//! off the hot path and may allocate freely.
//!
//! Like every other observability surface, the bundle carries no
//! addresses or leaf labels — spans, service events and window samples
//! are timing/aggregate data only, and the audit's relabeling
//! distinguisher holds the rendered bundle bytes to that contract.

use oram_telemetry::json::{self, Layout, Value, Writer};
use oram_telemetry::{spans_to_chrome_trace, spans_to_jsonl};
use oram_util::{AccessSpan, Ring, WindowSample};

use crate::slo::SloEvent;

/// Trigger kind recorded when a freeze is forced explicitly (CLI
/// `--force-incident`, golden tests) rather than raised by an alert.
pub const TRIGGER_FORCED: &str = "forced";

/// What a service-layer event ring entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEventKind {
    /// A request entered a client queue.
    Admit,
    /// Admission control refused a request (queue full).
    Reject,
    /// A completion that rode an MSHR leader (no extra ORAM access).
    Coalesce,
}

impl ServiceEventKind {
    /// Stable snake_case name used in the bundle export.
    pub fn name(self) -> &'static str {
        match self {
            ServiceEventKind::Admit => "admit",
            ServiceEventKind::Reject => "reject",
            ServiceEventKind::Coalesce => "coalesce",
        }
    }
}

/// One service-layer admission-path event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceEvent {
    /// Sim cycle the event happened at.
    pub cycle: u64,
    /// Tenant (client) id.
    pub tenant: u32,
    /// What happened.
    pub kind: ServiceEventKind,
}

/// Why (and when) the recorder froze.
#[derive(Debug, Clone, Copy)]
pub struct FlightTrigger {
    /// Trigger family: an [`crate::slo::AlertKind`] name or
    /// [`TRIGGER_FORCED`].
    pub kind: &'static str,
    /// Sim cycle the trigger fired at.
    pub cycle: u64,
    /// Window index the trigger was evaluated in.
    pub window_index: u64,
    /// Objective index for SLO-burn triggers; `u32::MAX` otherwise.
    pub slo: u32,
    /// Measured value at the trigger (same units as the source alert).
    pub value: u64,
    /// Threshold crossed.
    pub threshold: u64,
}

/// Construction-time ring capacities of a [`FlightRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct FlightConfig {
    /// Engine access spans kept.
    pub span_capacity: usize,
    /// Service admission/reject/coalesce events kept.
    pub event_capacity: usize,
    /// Structured SLO events kept.
    pub slo_capacity: usize,
    /// Engine Eq. 1 window samples kept.
    pub window_capacity: usize,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig {
            span_capacity: 4096,
            event_capacity: 8192,
            slo_capacity: 256,
            window_capacity: 512,
        }
    }
}

/// The flight recorder. Owned by a [`crate::LivePlane`] (attach with
/// [`crate::LivePlane::attach_flight`]); the plane feeds it from both
/// telemetry streams and freezes it on trigger alerts.
#[derive(Debug)]
pub struct FlightRecorder {
    spans: Ring<AccessSpan>,
    events: Ring<ServiceEvent>,
    slo_events: Ring<SloEvent>,
    windows: Ring<WindowSample>,
    trigger: Option<FlightTrigger>,
}

impl FlightRecorder {
    /// A recorder with all rings preallocated to `cfg`'s capacities.
    /// Nothing allocates after this.
    pub fn new(cfg: FlightConfig) -> Self {
        FlightRecorder {
            spans: Ring::new(cfg.span_capacity),
            events: Ring::new(cfg.event_capacity),
            slo_events: Ring::new(cfg.slo_capacity),
            windows: Ring::new(cfg.window_capacity),
            trigger: None,
        }
    }

    /// The trigger that froze the recorder, if one fired.
    pub fn trigger(&self) -> Option<&FlightTrigger> {
        self.trigger.as_ref()
    }

    /// True once a trigger has frozen the rings.
    pub fn is_frozen(&self) -> bool {
        self.trigger.is_some()
    }

    /// Records an engine access span. No-op once frozen.
    #[inline]
    pub fn record_span(&mut self, span: &AccessSpan) {
        if self.trigger.is_none() {
            self.spans.push(*span);
        }
    }

    /// Records a service admission-path event. No-op once frozen.
    #[inline]
    pub fn record_service(&mut self, cycle: u64, tenant: u32, kind: ServiceEventKind) {
        if self.trigger.is_none() {
            self.events.push(ServiceEvent { cycle, tenant, kind });
        }
    }

    /// Records a structured SLO event. No-op once frozen (the event that
    /// *causes* a freeze is recorded first, then the freeze lands).
    #[inline]
    pub fn record_slo(&mut self, ev: &SloEvent) {
        if self.trigger.is_none() {
            self.slo_events.push(*ev);
        }
    }

    /// Records an engine Eq. 1 window sample. No-op once frozen.
    #[inline]
    pub fn record_window(&mut self, w: &WindowSample) {
        if self.trigger.is_none() {
            self.windows.push(*w);
        }
    }

    /// Freezes the rings. The first trigger wins; later calls are
    /// no-ops, so the bundle always explains the *first* anomaly.
    pub fn freeze(&mut self, trigger: FlightTrigger) {
        if self.trigger.is_none() {
            self.trigger = Some(trigger);
        }
    }

    /// The held spans, oldest first.
    pub fn spans(&self) -> &Ring<AccessSpan> {
        &self.spans
    }

    /// Held service events, oldest first.
    pub fn service_events(&self) -> impl Iterator<Item = &ServiceEvent> {
        self.events.iter()
    }

    /// Held SLO events, oldest first.
    pub fn slo_events(&self) -> impl Iterator<Item = &SloEvent> {
        self.slo_events.iter()
    }

    /// Renders the ring contents into the bundle's per-stream files.
    /// `slo_names` maps objective indices to names for the alert export.
    pub(crate) fn render_streams(
        &self,
        slo_names: &[String],
    ) -> (String, String, String, String, String) {
        let spans_jsonl = spans_to_jsonl(&self.spans);
        let trace_json = spans_to_chrome_trace(&self.spans);
        let mut alerts = Writer::new();
        for ev in self.slo_events.iter() {
            ev.write_json(&mut alerts, slo_names.get(ev.slo as usize).map(String::as_str));
            alerts.newline();
        }
        let mut windows = Writer::new();
        for w in self.windows.iter() {
            let values = [
                w.index,
                w.start_cycle,
                w.end_cycle,
                w.data_requests,
                w.onchip_served,
                w.dummy_requests,
                w.data_cycles,
                w.dri_cycles,
                w.shadow_advanced,
                u64::from(w.stash_live),
            ];
            windows.object(Layout::COMPACT);
            for (key, v) in WINDOW_FIELDS.into_iter().zip(values) {
                windows.field(key, v);
            }
            windows.end().newline();
        }
        let mut events = Writer::new();
        for e in self.events.iter() {
            events.object(Layout::COMPACT).field("cycle", e.cycle).field("tenant", e.tenant);
            events.field("kind", e.kind.name()).end().newline();
        }
        let [alerts, windows, events] = [alerts, windows, events].map(Writer::finish);
        (spans_jsonl, trace_json, alerts, windows, events)
    }

    /// Per-ring `(held, dropped)` counts, in [`RING_NAMES`] order.
    pub fn counts(&self) -> [(u64, u64); 4] {
        [
            (self.spans.len() as u64, self.spans.dropped()),
            (self.events.len() as u64, self.events.dropped()),
            (self.slo_events.len() as u64, self.slo_events.dropped()),
            (self.windows.len() as u64, self.windows.dropped()),
        ]
    }
}

/// The recorder's rings as `meta.json` names their counts.
pub const RING_NAMES: [&str; 4] = ["spans", "service_events", "slo_events", "windows"];

/// Reads back the three sidecar streams [`FlightRecorder::render_streams`]
/// writes — `alerts.jsonl`, `windows.jsonl` and `events.jsonl` — checking
/// every field of every row. Returns the three row counts.
///
/// # Errors
///
/// Names the file, the line and the first missing or mistyped field.
pub fn read_streams(alerts: &str, windows: &str, events: &str) -> Result<[usize; 3], String> {
    type Row = fn(&Value) -> Result<(), String>;
    fn rows(name: &str, text: &str, row: Row) -> Result<usize, String> {
        for (i, line) in text.lines().enumerate() {
            json::parse(line)
                .and_then(|v| row(&v))
                .map_err(|e| format!("{name} line {}: {e}", i + 1))?;
        }
        Ok(text.lines().count())
    }
    Ok([
        rows("alerts.jsonl", alerts, |v| {
            for key in ["window", "cycle", "value", "threshold"] {
                v.at::<u64>(key)?;
            }
            v.at::<&str>("kind")?;
            v.at::<Option<&str>>("slo").map(drop)
        })?,
        rows("windows.jsonl", windows, |v| {
            for key in WINDOW_FIELDS {
                v.at::<u64>(key)?;
            }
            Ok(())
        })?,
        rows("events.jsonl", events, |v| {
            v.at::<u64>("cycle")?;
            v.at::<u32>("tenant")?;
            let kind: &str = v.at("kind")?;
            match kind {
                "admit" | "reject" | "coalesce" => Ok(()),
                other => Err(format!("unknown kind {other:?}")),
            }
        })?,
    ])
}

/// The fields of a `windows.jsonl` row, in the order they are written.
const WINDOW_FIELDS: [&str; 10] = [
    "index",
    "start_cycle",
    "end_cycle",
    "data_requests",
    "onchip_served",
    "dummy_requests",
    "data_cycles",
    "dri_cycles",
    "shadow_advanced",
    "stash_live",
];

/// Run identity stamped into a bundle's `meta.json` so an incident is
/// reproducible from its bundle alone.
#[derive(Debug, Clone, Default)]
pub struct IncidentMeta {
    /// Master seed of the run.
    pub seed: u64,
    /// ORAM tree levels.
    pub levels: u32,
    /// Client (tenant) count.
    pub clients: usize,
    /// Shard count.
    pub shards: usize,
    /// Requests per client the run was configured for.
    pub requests: u64,
    /// Offered load multiplier.
    pub load: f64,
    /// Scheduler policy name.
    pub scheduler: String,
    /// Storage backend name.
    pub backend: String,
}

/// The names of the files a bundle directory contains, index-aligned
/// with [`IncidentBundle::files`].
pub const BUNDLE_FILES: [&str; 7] = [
    "meta.json",
    "spans.jsonl",
    "trace.json",
    "metrics.prom",
    "alerts.jsonl",
    "windows.jsonl",
    "events.jsonl",
];

/// A fully rendered incident bundle: seven self-contained text files.
/// For a fixed seed the bytes are identical at any thread count, and
/// byte-invariant under address relabeling (audit section 8).
#[derive(Debug, Clone)]
pub struct IncidentBundle {
    /// `meta.json` — schema, trigger, run config, ring counts.
    pub meta_json: String,
    /// `spans.jsonl` — one access span per line, oldest first.
    pub spans_jsonl: String,
    /// `trace.json` — the same spans as a Chrome `trace_event` document.
    pub trace_json: String,
    /// `metrics.prom` — the plane's full Prometheus exposition.
    pub metrics_prom: String,
    /// `alerts.jsonl` — structured SLO events, oldest first.
    pub alerts_jsonl: String,
    /// `windows.jsonl` — engine Eq. 1 window samples, oldest first.
    pub windows_jsonl: String,
    /// `events.jsonl` — service admit/reject/coalesce events.
    pub events_jsonl: String,
}

impl IncidentBundle {
    /// `(file name, contents)` pairs in [`BUNDLE_FILES`] order.
    pub fn files(&self) -> [(&'static str, &str); 7] {
        [
            (BUNDLE_FILES[0], &self.meta_json),
            (BUNDLE_FILES[1], &self.spans_jsonl),
            (BUNDLE_FILES[2], &self.trace_json),
            (BUNDLE_FILES[3], &self.metrics_prom),
            (BUNDLE_FILES[4], &self.alerts_jsonl),
            (BUNDLE_FILES[5], &self.windows_jsonl),
            (BUNDLE_FILES[6], &self.events_jsonl),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_util::telemetry::SPAN_MAX_PHASES;
    use oram_util::{AccessAttribution, PhaseSpan, ServeClass};

    fn span(seq: u64) -> AccessSpan {
        AccessSpan {
            seq,
            real: true,
            arrival: seq * 10,
            start: seq * 10,
            data_ready: seq * 10,
            end: seq * 10,
            served: ServeClass::Stash,
            forward_index: u32::MAX,
            blocks_in_path: 0,
            stash_live: 3,
            attr: AccessAttribution::ZERO,
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        }
    }

    fn small() -> FlightRecorder {
        FlightRecorder::new(FlightConfig {
            span_capacity: 4,
            event_capacity: 4,
            slo_capacity: 2,
            window_capacity: 2,
        })
    }

    #[test]
    fn rings_overwrite_oldest_until_frozen() {
        let mut r = small();
        for i in 0..10 {
            r.record_span(&span(i));
            r.record_service(i * 10, 0, ServiceEventKind::Admit);
        }
        assert_eq!(r.spans().len(), 4);
        assert_eq!(r.counts()[0], (4, 6));
        assert_eq!(r.counts()[1], (4, 6));
        let seqs: Vec<u64> = r.spans().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn freeze_stops_recording_and_first_trigger_wins() {
        let mut r = small();
        r.record_span(&span(1));
        r.freeze(FlightTrigger {
            kind: "stash_pressure",
            cycle: 100,
            window_index: 2,
            slo: u32::MAX,
            value: 7,
            threshold: 5,
        });
        assert!(r.is_frozen());
        r.record_span(&span(2));
        r.record_service(1, 0, ServiceEventKind::Reject);
        r.record_window(&WindowSample::default());
        assert_eq!(r.spans().len(), 1, "frozen rings must not grow");
        assert_eq!(r.counts()[1], (0, 0));
        r.freeze(FlightTrigger {
            kind: TRIGGER_FORCED,
            cycle: 999,
            window_index: 9,
            slo: u32::MAX,
            value: 0,
            threshold: 0,
        });
        assert_eq!(r.trigger().unwrap().kind, "stash_pressure");
        assert_eq!(r.trigger().unwrap().cycle, 100);
    }

    #[test]
    fn stream_rendering_is_parseable_and_ordered() {
        let mut r = small();
        for i in 1..=3 {
            r.record_span(&span(i));
            r.record_service(i * 10, (i % 2) as u32, ServiceEventKind::Coalesce);
        }
        r.record_window(&WindowSample {
            index: 0,
            start_cycle: 0,
            end_cycle: 100,
            data_cycles: 60,
            dri_cycles: 40,
            ..Default::default()
        });
        let (spans, trace, alerts, windows, events) = r.render_streams(&[]);
        assert_eq!(oram_telemetry::validate_jsonl(&spans).unwrap(), 3);
        oram_telemetry::validate_chrome_trace(&trace).unwrap();
        assert!(alerts.is_empty());
        assert_eq!(windows.lines().count(), 1);
        assert!(windows.contains("\"data_cycles\":60"));
        assert_eq!(events.lines().count(), 3);
        assert!(events.contains("\"kind\":\"coalesce\""));
    }

    #[test]
    fn event_kind_names_are_stable() {
        assert_eq!(ServiceEventKind::Admit.name(), "admit");
        assert_eq!(ServiceEventKind::Reject.name(), "reject");
        assert_eq!(ServiceEventKind::Coalesce.name(), "coalesce");
    }
}
