//! The `repro trace` and `repro profile` subcommands' engine: one
//! measured run per policy of the standard set, read two ways.
//!
//! `repro trace` renders every export format of the run's telemetry and
//! self-validates the artifacts before anything is written: a zero exit
//! code means the JSONL span log parsed against its schema, the Chrome
//! trace had balanced begin/end events with monotone timestamps, the
//! time-series CSV was contiguous, and the end-of-run report reproduced
//! Eq. 1 (`total = data + DRI`) exactly from the telemetry stream.
//!
//! `repro profile` assembles a [`ProfileReport`] from the same runs:
//! cycle attribution, DRAM utilization, the per-level bucket-touch
//! heatmap and energy, differenced over the measured misses alone.

use std::path::Path;
use std::sync::Arc;

use oram_cpu::MissRecord;
use oram_protocol::DupPolicy;
use oram_sim::{
    build_miss_stream, replay_measured, scale_profile, Engine, RunOptions, SimStats,
    StorageBackend, SystemConfig,
};
use oram_telemetry::export::{
    spans_to_chrome_trace, spans_to_jsonl, validate_chrome_trace, validate_jsonl,
};
use oram_telemetry::{
    validate_timeseries_csv, ChannelProfile, PolicyProfile, PolicyReport, ProfileMeta,
    ProfileReport, RunReport, TelemetryConfig, TelemetryRecorder,
};
use oram_util::MetricId;
use oram_workloads::spec;

use crate::experiments::TIMING_RATE;
use crate::progress::Heartbeat;

/// The policy set `repro trace` and `repro profile` cover, in report
/// order: the Tiny baseline, both pure duplication modes, and dynamic
/// partitioning.
pub const TRACE_POLICIES: [(&str, DupPolicy); 4] = [
    ("tiny", DupPolicy::Off),
    ("rd_dup", DupPolicy::RdOnly),
    ("hd_dup", DupPolicy::HdOnly),
    ("dynamic3", DupPolicy::Dynamic { counter_bits: 3 }),
];

/// Options for one `repro trace` or `repro profile` run.
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
/// every export. `progress` ticks once per completed policy (`None` for
/// silent runs, e.g. under `--quiet` or a non-interactive stderr).
///
/// # Errors
///
/// Returns a message describing the first artifact that failed schema or
/// consistency validation — including any disagreement between the
/// telemetry stream and the simulator's own statistics.
pub fn run_trace(
    opts: &TraceOptions,
    progress: Option<&Heartbeat>,
) -> Result<TraceArtifacts, String> {
    let mut report = RunReport::new();
    let read = |run: PolicyRun<'_, ()>| {
        let PolicyRun { name, stats: s, rec, .. } = run;
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
        report.push(PolicyReport {
            policy: name.to_string(),
            total_cycles: s.total_cycles,
            data_cycles: s.data_cycles,
            dri_cycles: s.dri_cycles,
            data_requests: s.data_requests,
            onchip_served: s.onchip_served,
            dummy_requests: s.dummy_requests,
            shadow_served: m.counter(MetricId::DramServedShadow),
            mean_advance: m.histogram(MetricId::AdvanceDepth).mean(),
            energy_mj: s.energy_mj,
            spans_held: rec.spans().len() as u64,
            spans_dropped: rec.spans().dropped(),
        });
        Ok(PolicyArtifacts {
            policy: name.to_string(),
            spans_jsonl,
            chrome_trace,
            timeseries_csv,
            metrics_csv: m.to_csv(),
        })
    };
    let per_policy = each_policy(opts, progress, |_| (), read)?;
    report.check_eq1()?;
    Ok(TraceArtifacts { per_policy, report })
}

/// Runs the full policy set and assembles the profile: cycle
/// attribution, backend utilization, the per-level bucket-touch heatmap
/// and energy, each over exactly the measured window.
///
/// # Errors
///
/// Returns a message on an unknown workload, an invalid configuration,
/// or an attribution invariant violation (the latter would be a
/// simulator bug, not a user error).
pub fn run_profile(
    opts: &TraceOptions,
    progress: Option<&Heartbeat>,
) -> Result<ProfileReport, String> {
    // The monotone backend counters, read after warm-up: the post-run
    // deltas cover exactly the measured misses.
    let at_measure = |e: &Engine| {
        let (lr, lw) = e.controller().level_touches();
        (e.dram().utilization(), lr, lw)
    };
    let policies = each_policy(opts, progress, at_measure, |run| {
        let PolicyRun { name, engine, stats, rec, mark: (util_base, reads_base, writes_base) } =
            run;
        let total_cycles = stats.total_cycles;
        let m = rec.metrics();
        let sum = |id: MetricId| m.histogram(id).sum();
        let attr_queue = sum(MetricId::AttrQueueWait);
        let attr_row = sum(MetricId::AttrRowOps);
        let attr_network = sum(MetricId::AttrNetwork);
        let attr_bus = sum(MetricId::AttrBusTransfer);
        let attr_eviction = sum(MetricId::AttrEvictionOverhead);
        let attr_posmap = sum(MetricId::AttrPosmap);
        let busy = attr_queue + attr_row + attr_network + attr_bus + attr_eviction + attr_posmap;
        if busy > total_cycles {
            return Err(format!(
                "{name}: attributed {busy} cycles exceed the measured {total_cycles}"
            ));
        }

        let channels = engine
            .dram()
            .utilization()
            .iter()
            .zip(&util_base)
            .map(|(now, base)| {
                let d = now.delta(base);
                ChannelProfile {
                    busy_cycles: d.busy_cycles,
                    row_hit_rate: d.row_hit_rate(),
                    reads: d.stats.reads,
                    writes: d.stats.writes,
                    queue_p50: d.queue_depth_quantile(0.5) as u64,
                    queue_max: d.queue_depth_max() as u64,
                }
            })
            .collect();
        let (lr, lw) = engine.controller().level_touches();
        let diff = |now: &[u64], base: &[u64]| -> Vec<u64> {
            now.iter().zip(base).map(|(n, b)| n - b).collect()
        };

        Ok(PolicyProfile {
            policy: name.to_string(),
            total_cycles,
            data_cycles: stats.data_cycles,
            dri_cycles: stats.dri_cycles,
            attr_queue,
            attr_row,
            attr_network,
            attr_bus,
            attr_eviction,
            attr_posmap,
            plb_hits: m.counter(MetricId::PlbHit),
            plb_misses: m.counter(MetricId::PlbMiss),
            plb_evictions: m.counter(MetricId::PlbEvict),
            forward_saved: sum(MetricId::ForwardSavedCycles),
            stash_pull_credit: sum(MetricId::StashPullCreditCycles),
            energy_mj: stats.energy_mj,
            channels,
            level_reads: diff(&lr, &reads_base),
            level_writes: diff(&lw, &writes_base),
        })
    })?;

    Ok(ProfileReport {
        meta: ProfileMeta {
            workload: opts.workload.clone(),
            misses: opts.misses,
            levels: opts.levels,
            seed: opts.seed,
        },
        policies,
    })
}

/// One policy's measured run, as [`run_trace`] and [`run_profile`] read
/// it.
struct PolicyRun<'a, T> {
    /// The policy's label in [`TRACE_POLICIES`].
    name: &'static str,
    /// The engine after the run.
    engine: &'a Engine,
    /// The measured window's statistics.
    stats: SimStats,
    /// The recorder that saw the measured window.
    rec: TelemetryRecorder,
    /// What `at_measure` read between warm-up and measurement.
    mark: T,
}

/// Runs every policy of [`TRACE_POLICIES`] once at `opts` through
/// [`measured_replay`] and hands each run to `read`, in report order.
fn each_policy<T, R>(
    opts: &TraceOptions,
    progress: Option<&Heartbeat>,
    at_measure: impl Fn(&Engine) -> T,
    mut read: impl FnMut(PolicyRun<'_, T>) -> Result<R, String>,
) -> Result<Vec<R>, String> {
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

    let mut runs = Vec::with_capacity(TRACE_POLICIES.len());
    for (done, (name, policy)) in TRACE_POLICIES.into_iter().enumerate() {
        let mut cfg = SystemConfig::scaled_default();
        cfg.oram.levels = opts.levels;
        cfg.oram.dup_policy = policy;
        cfg.timing_protection = Some(TIMING_RATE);
        cfg.validate().map_err(|e| format!("{name}: invalid configuration: {e}"))?;

        let scaled = scale_profile(&profile, &cfg, ro.fill_target);
        let records = build_miss_stream(&scaled, cfg.hierarchy, &ro);
        let (warm, measured) = records.split_at((ro.warmup_misses as usize).min(records.len()));
        let mut engine = Engine::new(cfg).expect("validated config");
        let (stats, rec, mark) = measured_replay(
            &mut engine,
            scaled.working_set_blocks,
            warm,
            measured,
            (opts.span_capacity, opts.window_cycles),
            &at_measure,
        )
        .map_err(|e| format!("{name}: {e}"))?;
        runs.push(read(PolicyRun { name, engine: &engine, stats, rec, mark })?);
        if let Some(hb) = progress {
            hb.tick(done + 1, TRACE_POLICIES.len());
        }
    }
    Ok(runs)
}

/// The measured run every closed-loop reader shares: prefills `prefill`
/// working-set blocks, replays `warm` dark, then `measured` under a fresh
/// recorder (`telemetry` = span ring capacity, time-series window in
/// cycles), and checks every span's cycle attribution. Returns the
/// measured window's statistics, the recorder and what `at_measure` read
/// of the engine between the two replays.
///
/// # Errors
///
/// Returns the first span whose attribution does not partition its
/// latency (a simulator bug).
pub(crate) fn measured_replay<B: StorageBackend, T>(
    engine: &mut Engine<B>,
    prefill: u64,
    warm: &[MissRecord],
    measured: &[MissRecord],
    (span_capacity, window_cycles): (usize, u64),
    at_measure: impl FnOnce(&Engine<B>) -> T,
) -> Result<(SimStats, TelemetryRecorder, T), String> {
    engine.prefill_working_set(prefill);
    let rec = TelemetryRecorder::shared(TelemetryConfig { span_capacity });
    let sink = Some((TelemetryRecorder::as_sink(&rec), window_cycles));
    let (stats, mark) = replay_measured(engine, warm, measured, sink, at_measure);
    // The replay detached the sink: this is the last handle.
    let rec = Arc::try_unwrap(rec).expect("recorder detached").into_inner();
    let rec = rec.expect("recorder poisoned");
    rec.attribution().map_err(|e| format!("attribution: {e}"))?;
    Ok((stats, rec, mark))
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

    fn tiny_opts() -> TraceOptions {
        TraceOptions { misses: 400, warmup: 100, levels: 12, ..TraceOptions::quick() }
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let mut o = tiny_opts();
        o.workload = "nonesuch".to_string();
        let err = run_trace(&o, None).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    #[test]
    fn profile_rejects_unknown_workload() {
        let mut o = tiny_opts();
        o.workload = "nonesuch".to_string();
        assert!(run_profile(&o, None).unwrap_err().contains("unknown workload"));
    }

    #[test]
    fn trace_and_profile_read_the_same_runs() {
        let trace = run_trace(&tiny_opts(), None).expect("trace runs");
        let profile = run_profile(&tiny_opts(), None).expect("profile runs");
        let rows = trace.report.rows();
        assert_eq!(rows.len(), profile.policies.len());
        for (t, p) in rows.iter().zip(&profile.policies) {
            assert_eq!(t.policy, p.policy);
            assert_eq!(t.total_cycles, p.total_cycles, "{}", p.policy);
            assert_eq!(t.data_cycles, p.data_cycles, "{}", p.policy);
            assert_eq!(t.dri_cycles, p.dri_cycles, "{}", p.policy);
            assert_eq!(t.energy_mj, p.energy_mj, "{}", p.policy);
        }
    }

    #[test]
    fn profile_attributes_every_cycle_and_credits_duplication() {
        let report = run_profile(&tiny_opts(), None).expect("profile runs");
        assert_eq!(report.policies.len(), TRACE_POLICIES.len());
        for p in &report.policies {
            // total = queue + row + net + bus + eviction + posmap + idle, exactly.
            assert_eq!(
                p.attr_queue
                    + p.attr_row
                    + p.attr_network
                    + p.attr_bus
                    + p.attr_eviction
                    + p.attr_posmap
                    + p.idle_cycles(),
                p.total_cycles,
                "{}: unattributed cycles",
                p.policy
            );
            assert_eq!(p.attr_network, 0, "{}: DRAM backend has no network", p.policy);
            assert_eq!(p.attr_posmap, 0, "{}: flat posmap walks no chain", p.policy);
            assert!(p.plb_hits + p.plb_misses > 0, "{}: PLB counters surface", p.policy);
            assert!(p.attr_bus > 0, "{}: a run always moves data", p.policy);
            assert!(p.attr_eviction > 0, "{}: evictions always fire", p.policy);
            assert!(!p.channels.is_empty());
            assert!(p.channels.iter().any(|c| c.busy_cycles > 0));
            assert!(p.level_reads.iter().sum::<u64>() > 0);
        }
        let tiny = &report.policies[0];
        assert_eq!(tiny.policy, "tiny");
        assert_eq!(tiny.forward_saved, 0, "baseline earns no duplication credit");
        assert_eq!(tiny.stash_pull_credit, 0);
        let rd = report.policies.iter().find(|p| p.policy == "rd_dup").unwrap();
        assert!(rd.forward_saved > 0, "RD-Dup must show early-forward savings");
        // The deterministic simulator must profile identically on reruns
        // (this is what lets `repro compare` diff against a baseline).
        let again = run_profile(&tiny_opts(), None).expect("profile reruns");
        assert_eq!(again, report);
    }

    #[test]
    fn profile_json_is_a_fixed_point_of_the_writer() {
        use oram_telemetry::Report;
        let text = run_profile(&tiny_opts(), None).expect("profile runs").to_json();
        let back = ProfileReport::parse(&text).expect("own JSON parses");
        assert_eq!(back.to_json(), text);
        assert_eq!(ProfileReport::parse(&back.to_json()).unwrap(), back);
    }
}
