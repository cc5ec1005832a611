//! The `repro incident` subcommand's engine: writing a rendered
//! [`IncidentBundle`] to a directory, and re-validating such a directory
//! offline — long after the run that produced it is gone.
//!
//! An incident bundle is self-contained: `spans.jsonl` carries every
//! field of every captured access span, so the Chrome trace can be
//! reconstructed from it byte-for-byte. The offline validator exploits
//! that: it parses the spans back, re-renders both exports, and demands
//! byte identity with the files on disk, in addition to running the
//! schema validators and cross-checking the ring counts `meta.json`
//! recorded at freeze time. A bundle that passes is internally
//! consistent evidence, not just well-formed text.

use std::fs;
use std::path::Path;

use oram_obsv::{read_streams, BundleMeta, IncidentBundle, BUNDLE_FILES, RING_NAMES};
use oram_telemetry::{
    spans_from_jsonl, spans_to_chrome_trace, spans_to_jsonl, validate_chrome_trace, validate_jsonl,
};
use oram_util::Ring;

/// Writes a rendered bundle's seven files into `dir`, creating it.
///
/// # Errors
///
/// Returns a message naming the file that failed to write.
pub fn write_incident_bundle(dir: &Path, bundle: &IncidentBundle) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    for (name, contents) in bundle.files() {
        let path = dir.join(name);
        fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// What the offline validator established about a bundle, for the
/// one-screen report `repro incident` prints.
#[derive(Debug, Clone)]
pub struct IncidentSummary {
    /// Trigger family (`slo_burn`, `stash_pressure`, `eq1_residual`, or
    /// `forced`).
    pub trigger_kind: String,
    /// Sim cycle the trigger fired at.
    pub trigger_cycle: u64,
    /// Objective name for SLO-burn triggers.
    pub trigger_slo: Option<String>,
    /// Access spans held at freeze time.
    pub spans: usize,
    /// Service admit/reject/coalesce events held.
    pub service_events: usize,
    /// Structured SLO events held.
    pub slo_events: usize,
    /// Engine Eq. 1 window samples held.
    pub windows: usize,
    /// Master seed stamped into `meta.json`.
    pub seed: u64,
    /// Backend name stamped into `meta.json`.
    pub backend: String,
}

impl IncidentSummary {
    /// The validation report `repro incident` prints on success.
    pub fn render(&self) -> String {
        let slo = match &self.trigger_slo {
            Some(s) => format!(" (objective {s})"),
            None => String::new(),
        };
        format!(
            "incident bundle OK\n\
             trigger: {} at cycle {}{}\n\
             captured: {} spans, {} service events, {} slo events, {} windows\n\
             run: seed {} backend {}\n\
             checks: schema, chrome trace, span round-trip (byte-identical), ring counts\n",
            self.trigger_kind,
            self.trigger_cycle,
            slo,
            self.spans,
            self.service_events,
            self.slo_events,
            self.windows,
            self.seed,
            self.backend,
        )
    }
}

/// Reads one bundle file, with the file name in any error.
fn read_file(dir: &Path, name: &str) -> Result<String, String> {
    fs::read_to_string(dir.join(name))
        .map_err(|e| format!("{name}: {e} (is {} an incident bundle?)", dir.display()))
}

/// The offline bundle validator behind `repro incident <dir>`.
///
/// Reads all seven [`BUNDLE_FILES`], runs the span-schema and Chrome
/// trace validators, reconstructs the spans from `spans.jsonl` and
/// re-renders both exports demanding byte identity, validates the
/// sidecar streams, and cross-checks every ring count `meta.json`
/// recorded.
///
/// # Errors
///
/// Returns a one-line description of the first inconsistency.
pub fn run_incident(dir: &Path) -> Result<IncidentSummary, String> {
    let mut contents = Vec::with_capacity(BUNDLE_FILES.len());
    for name in BUNDLE_FILES {
        contents.push(read_file(dir, name)?);
    }
    let [meta_text, spans_text, trace_text, prom_text, alerts_text, windows_text, events_text]: [String;
        7] = contents.try_into().expect("seven bundle files");

    // meta.json: schema version, trigger, config, ring counts.
    let meta = BundleMeta::parse(&meta_text).map_err(|e| format!("meta.json: {e}"))?;

    // The span exports: schema-validate, then round-trip. Byte identity
    // of the re-render proves the JSONL alone fully determines the
    // trace — the bundle needs no out-of-band state to reproduce.
    let n_spans = validate_jsonl(&spans_text).map_err(|e| format!("spans.jsonl: {e}"))?;
    validate_chrome_trace(&trace_text).map_err(|e| format!("trace.json: {e}"))?;
    let spans = spans_from_jsonl(&spans_text).map_err(|e| format!("spans.jsonl: {e}"))?;
    let mut ring = Ring::new(spans.len());
    ring.extend(&spans);
    if spans_to_jsonl(&ring) != spans_text {
        return Err("spans.jsonl is not a fixed point of the exporter".into());
    }
    if spans_to_chrome_trace(&ring) != trace_text {
        return Err("trace.json does not re-render byte-identically from spans.jsonl".into());
    }

    // Sidecar streams: every row reads back.
    let [n_alerts, n_windows, n_events] = read_streams(&alerts_text, &windows_text, &events_text)?;
    if prom_text.trim().is_empty() {
        return Err("metrics.prom is empty".into());
    }

    // Ring counts: the bundle carries exactly what the recorder held.
    let on_disk = [n_spans, n_events, n_alerts, n_windows];
    for ((ring, (held, _)), carried) in RING_NAMES.into_iter().zip(meta.counts).zip(on_disk) {
        if held != carried as u64 {
            return Err(format!(
                "meta.json says {held} {ring} held but the bundle carries {carried}"
            ));
        }
    }

    Ok(IncidentSummary {
        trigger_kind: meta.trigger_kind,
        trigger_cycle: meta.trigger_cycle,
        trigger_slo: meta.trigger_slo,
        spans: n_spans,
        service_events: n_events,
        slo_events: n_alerts,
        windows: n_windows,
        seed: meta.seed,
        backend: meta.backend,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_obsv::{FlightConfig, IncidentMeta, LiveConfig, LivePlane};
    use oram_util::{LiveObserver, ServeClass, TelemetrySink, WindowSample};

    fn test_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("oram_incident_{}_{tag}", std::process::id()))
    }

    /// A plane with a recorder, some traffic, and a forced freeze.
    fn frozen_plane() -> LivePlane {
        let mut p = LivePlane::new(LiveConfig::for_serve(2, 1, 400, 100));
        p.attach_flight(FlightConfig::default());
        for i in 0..40u64 {
            let cycle = i * 500;
            p.request_admitted(cycle, (i % 2) as u32);
            // Latency 300 stays under every default objective (p99
            // threshold is 2 x gap = 800), so the only freeze is the
            // forced one below.
            p.request_complete(cycle + 300, (i % 2) as u32, 0, ServeClass::Stash, 300, false);
        }
        p.window(&WindowSample {
            index: 0,
            start_cycle: 0,
            end_cycle: 50_000,
            data_cycles: 30_000,
            dri_cycles: 20_000,
            ..Default::default()
        });
        p.flush();
        p.force_incident();
        p
    }

    #[test]
    fn written_bundle_round_trips_through_the_validator() {
        let p = frozen_plane();
        let bundle = p
            .render_incident(&IncidentMeta {
                seed: 7,
                levels: 12,
                clients: 2,
                shards: 1,
                requests: 40,
                load: 1.0,
                scheduler: "fcfs".into(),
                backend: "dram".into(),
            })
            .expect("render");
        let dir = test_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        write_incident_bundle(&dir, &bundle).expect("write");
        let summary = run_incident(&dir).expect("validate");
        assert_eq!(summary.trigger_kind, "forced");
        assert_eq!(summary.seed, 7);
        assert_eq!(summary.backend, "dram");
        assert_eq!(summary.windows, 1);
        assert!(summary.render().contains("incident bundle OK"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tampered_bundle_is_rejected() {
        let p = frozen_plane();
        let bundle = p.render_incident(&IncidentMeta::default()).expect("render");
        let dir = test_dir("tamper");
        let _ = std::fs::remove_dir_all(&dir);
        write_incident_bundle(&dir, &bundle).expect("write");
        // Losing a window sample breaks the meta.json count cross-check.
        std::fs::write(dir.join("windows.jsonl"), "").expect("truncate");
        let err = run_incident(&dir).expect_err("must reject");
        assert!(err.contains("windows"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_one_line_error() {
        let dir = test_dir("missing");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let err = run_incident(&dir).expect_err("must fail");
        assert!(err.contains("meta.json"), "unexpected error: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn span_round_trip_covers_every_field() {
        use oram_telemetry::{TelemetryConfig, TelemetryRecorder};
        // Real engine spans: run a tiny simulation and export its ring.
        let sys = oram_sim::SystemConfig::small_test();
        let telem = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 12 });
        let mut engine = oram_sim::Engine::new(sys).expect("engine");
        engine.attach_telemetry(TelemetryRecorder::as_sink(&telem), 50_000);
        let mut rng = oram_util::Rng64::seed_from_u64(3);
        let mut now = 0u64;
        for i in 0..200u64 {
            let addr = rng.below(64) + 1;
            let out = engine.serve_request(addr, i % 5 == 0, now);
            now = out.end + 40 + rng.below(2000);
        }
        engine.finish();
        engine.detach_telemetry();
        let t = telem.lock().expect("recorder");
        let jsonl = spans_to_jsonl(t.spans());
        let trace = spans_to_chrome_trace(t.spans());
        let spans = spans_from_jsonl(&jsonl).expect("parse back");
        assert_eq!(spans.len(), t.spans().len());
        let mut ring = Ring::new(spans.len());
        ring.extend(&spans);
        assert_eq!(spans_to_jsonl(&ring), jsonl, "jsonl fixed point");
        assert_eq!(spans_to_chrome_trace(&ring), trace, "trace re-render");
    }
}
