//! The `repro trace` subcommand's engine: runs the standard policy set
//! with the full telemetry recorder attached, renders every export
//! format, and self-validates the artifacts before anything is written.
//!
//! The validation here is the subcommand's contract: a zero exit code
//! means the JSONL span log parsed against its schema, the Chrome trace
//! had balanced begin/end events with monotone timestamps, the
//! time-series CSV was contiguous, and the end-of-run report reproduced
//! Eq. 1 (`total = data + DRI`) exactly from the telemetry stream.

use std::path::Path;

use oram_protocol::DupPolicy;
use oram_sim::{run_workload_traced, RunOptions, SystemConfig};
use oram_telemetry::export::{
    spans_to_chrome_trace, spans_to_jsonl, validate_chrome_trace, validate_jsonl,
};
use oram_telemetry::{
    validate_timeseries_csv, PolicyReport, RunReport, TelemetryConfig, TelemetryRecorder,
};
use oram_util::MetricId;
use oram_workloads::spec;

use crate::experiments::TIMING_RATE;
use crate::progress::Heartbeat;

/// The policy set a trace run covers, in report order: the Tiny
/// baseline, both pure duplication modes, and dynamic partitioning.
pub const TRACE_POLICIES: [(&str, DupPolicy); 4] = [
    ("tiny", DupPolicy::Off),
    ("rd_dup", DupPolicy::RdOnly),
    ("hd_dup", DupPolicy::HdOnly),
    ("dynamic3", DupPolicy::Dynamic { counter_bits: 3 }),
];

/// Options for one `repro trace` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceOptions {
    /// Workload to trace (one of [`spec::WORKLOAD_NAMES`]).
    pub workload: String,
    /// Measured LLC misses per policy.
    pub misses: u64,
    /// Warmup misses (run dark, before the recorder attaches).
    pub warmup: u64,
    /// Tree depth `L`.
    pub levels: u32,
    /// Trace seed.
    pub seed: u64,
    /// Time-series window length in CPU cycles.
    pub window_cycles: u64,
    /// Span ring capacity per policy.
    pub span_capacity: usize,
}

impl TraceOptions {
    /// Fast settings for CI smoke runs: seconds, not minutes.
    pub fn quick() -> Self {
        TraceOptions {
            workload: "mcf".to_string(),
            misses: 1000,
            warmup: 250,
            levels: 12,
            seed: 7,
            window_cycles: 50_000,
            span_capacity: 1 << 16,
        }
    }

    /// Full-fidelity settings matching the default experiment scale.
    pub fn full() -> Self {
        TraceOptions { misses: 6000, warmup: 1500, levels: 14, ..TraceOptions::quick() }
    }
}

/// Every artifact produced for one policy, rendered and validated.
#[derive(Debug, Clone)]
pub struct PolicyArtifacts {
    /// Policy label, also the file-name stem ("tiny", "rd_dup", ...).
    pub policy: String,
    /// Per-access spans, one JSON object per line.
    pub spans_jsonl: String,
    /// The same spans in Chrome `trace_event` format (open in
    /// `chrome://tracing` or Perfetto).
    pub chrome_trace: String,
    /// Periodic window samples as CSV.
    pub timeseries_csv: String,
    /// Final counter/histogram values as CSV.
    pub metrics_csv: String,
}

/// A complete, validated trace run: per-policy artifacts plus the
/// end-of-run report.
#[derive(Debug)]
pub struct TraceArtifacts {
    /// One artifact set per entry of [`TRACE_POLICIES`].
    pub per_policy: Vec<PolicyArtifacts>,
    /// The per-policy cycle breakdown (Eq. 1).
    pub report: RunReport,
}

/// Runs the full policy set under the telemetry recorder and validates
/// every export.
///
/// # Errors
///
/// Returns a message describing the first artifact that failed schema or
/// consistency validation — including any disagreement between the
/// telemetry stream and the simulator's own statistics.
pub fn run_trace(opts: &TraceOptions) -> Result<TraceArtifacts, String> {
    run_trace_with_progress(opts, None)
}

/// [`run_trace`] with an optional per-policy progress heartbeat (one
/// tick per completed policy; pass `None` for silent runs, e.g. under
/// `--quiet` or a non-interactive stderr).
pub fn run_trace_with_progress(
    opts: &TraceOptions,
    progress: Option<&Heartbeat>,
) -> Result<TraceArtifacts, String> {
    if !spec::WORKLOAD_NAMES.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?} (expected one of {:?})",
            opts.workload,
            spec::WORKLOAD_NAMES
        ));
    }
    let profile = spec::profile(&opts.workload);
    let ro = RunOptions {
        misses: opts.misses,
        warmup_misses: opts.warmup,
        seed: opts.seed,
        fill_target: 0.35,
        o3: None,
    };

    let mut per_policy = Vec::new();
    let mut report = RunReport::new();
    for (done, (name, policy)) in TRACE_POLICIES.into_iter().enumerate() {
        let mut cfg = SystemConfig::scaled_default();
        cfg.oram.levels = opts.levels;
        cfg.oram.dup_policy = policy;
        cfg.timing_protection = Some(TIMING_RATE);
        cfg.validate().map_err(|e| format!("{name}: invalid configuration: {e}"))?;

        let rec = TelemetryRecorder::shared(TelemetryConfig { span_capacity: opts.span_capacity });
        let r = run_workload_traced(
            &profile,
            &cfg,
            &ro,
            TelemetryRecorder::as_sink(&rec),
            opts.window_cycles,
        );
        let s = r.oram;
        let rec = rec.lock().expect("recorder poisoned");

        // The telemetry stream must agree with the simulator's stats
        // before we bless the artifacts.
        let expected_spans = s.data_requests + s.onchip_served + s.dummy_requests;
        if rec.spans().total_pushed() != expected_spans {
            return Err(format!(
                "{name}: span count {} != accesses measured {}",
                rec.spans().total_pushed(),
                expected_spans
            ));
        }
        let windows = rec.series().windows();
        let window_cycles: u64 = windows.iter().map(|w| w.end_cycle - w.start_cycle).sum();
        if window_cycles != s.total_cycles {
            return Err(format!(
                "{name}: window spans cover {window_cycles} cycles, run took {}",
                s.total_cycles
            ));
        }
        if rec.series().total(|w| w.data_cycles) != s.data_cycles {
            return Err(format!("{name}: window data-cycle sum disagrees with the run"));
        }
        // Every span's cycle attribution must partition its duration
        // exactly, with duplication credits only on eligible serves.
        rec.attribution().map_err(|e| format!("{name}: attribution: {e}"))?;

        let spans_jsonl = spans_to_jsonl(rec.spans());
        let held = validate_jsonl(&spans_jsonl).map_err(|e| format!("{name}: JSONL: {e}"))?;
        if held != rec.spans().len() {
            return Err(format!("{name}: JSONL holds {held} spans, ring {}", rec.spans().len()));
        }
        let chrome_trace = spans_to_chrome_trace(rec.spans());
        validate_chrome_trace(&chrome_trace).map_err(|e| format!("{name}: Chrome trace: {e}"))?;
        let timeseries_csv = rec.series().to_csv();
        let got = validate_timeseries_csv(&timeseries_csv)
            .map_err(|e| format!("{name}: time series: {e}"))?;
        if got != windows.len() {
            return Err(format!("{name}: CSV holds {got} windows, series {}", windows.len()));
        }

        let m = rec.metrics();
        let adv = m.histogram(MetricId::AdvanceDepth);
        report.push(PolicyReport {
            policy: name.to_string(),
            total_cycles: s.total_cycles,
            data_cycles: s.data_cycles,
            dri_cycles: s.dri_cycles,
            data_requests: s.data_requests,
            onchip_served: s.onchip_served,
            dummy_requests: s.dummy_requests,
            shadow_served: m.counter(MetricId::DramServedShadow),
            mean_advance: adv.mean(),
            energy_mj: s.energy_mj,
            spans_held: rec.spans().len() as u64,
            spans_dropped: rec.spans().dropped(),
        });
        per_policy.push(PolicyArtifacts {
            policy: name.to_string(),
            spans_jsonl,
            chrome_trace,
            timeseries_csv,
            metrics_csv: m.to_csv(),
        });
        if let Some(hb) = progress {
            hb.tick(done + 1, TRACE_POLICIES.len());
        }
    }
    report.check_eq1()?;
    Ok(TraceArtifacts { per_policy, report })
}

/// Writes a validated trace run into `dir` (created if missing):
/// `spans_<policy>.jsonl`, `trace_<policy>.json`,
/// `timeseries_<policy>.csv`, `metrics_<policy>.csv`, and `report.txt`.
///
/// # Errors
///
/// Propagates the first filesystem error.
pub fn write_artifacts(dir: &Path, artifacts: &TraceArtifacts) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    for p in &artifacts.per_policy {
        std::fs::write(dir.join(format!("spans_{}.jsonl", p.policy)), &p.spans_jsonl)?;
        std::fs::write(dir.join(format!("trace_{}.json", p.policy)), &p.chrome_trace)?;
        std::fs::write(dir.join(format!("timeseries_{}.csv", p.policy)), &p.timeseries_csv)?;
        std::fs::write(dir.join(format!("metrics_{}.csv", p.policy)), &p.metrics_csv)?;
    }
    std::fs::write(dir.join("report.txt"), artifacts.report.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_rejected() {
        let mut o = TraceOptions::quick();
        o.workload = "nonesuch".to_string();
        let err = run_trace(&o).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }
}
