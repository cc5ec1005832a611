//! The `repro profile` subcommand's engine: runs the standard policy
//! set with telemetry attached and the DRAM backend's utilization
//! counters snapshotted around the measured portion, and assembles a
//! [`ProfileReport`] — cycle attribution, backend utilization, the
//! per-level bucket-touch heatmap, and energy.
//!
//! Unlike `repro trace` (which goes through the one-call runner), this
//! module builds the [`Engine`] itself and hands it to the runner's
//! measured replay, so it can read the controller's level-touch counters
//! and the DRAM channels' utilization state before and after the
//! measured misses — the deltas are exactly the measured portion, warmup
//! excluded.

use oram_sim::{
    build_miss_stream, replay_measured, scale_profile, Engine, RunOptions, SystemConfig,
};
use oram_telemetry::{
    ChannelProfile, PolicyProfile, ProfileMeta, ProfileReport, TelemetryConfig, TelemetryRecorder,
};
use oram_util::MetricId;
use oram_workloads::spec;

use crate::experiments::TIMING_RATE;
use crate::progress::Heartbeat;
use crate::trace::{TraceOptions, TRACE_POLICIES};

/// Runs the standard policy set and assembles the profile.
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

    let mut policies = Vec::new();
    for (done, (name, policy)) in TRACE_POLICIES.into_iter().enumerate() {
        let mut cfg = SystemConfig::scaled_default();
        cfg.oram.levels = opts.levels;
        cfg.oram.dup_policy = policy;
        cfg.timing_protection = Some(TIMING_RATE);
        cfg.validate().map_err(|e| format!("{name}: invalid configuration: {e}"))?;

        let scaled = scale_profile(&profile, &cfg, ro.fill_target);
        let records = build_miss_stream(&scaled, cfg.hierarchy, &ro);
        let split = (ro.warmup_misses as usize).min(records.len());
        let (warm, measured) = records.split_at(split);

        let mut engine = Engine::new(cfg.clone()).expect("validated config");
        engine.prefill_working_set(scaled.working_set_blocks);
        let rec = TelemetryRecorder::shared(TelemetryConfig { span_capacity: opts.span_capacity });
        let sink = (TelemetryRecorder::as_sink(&rec), opts.window_cycles);
        // The monotone backend counters, snapshotted after warmup: the
        // post-run deltas cover exactly the measured misses.
        let (window, (util_base, level_reads_base, level_writes_base)) =
            replay_measured(&mut engine, warm, measured, Some(sink), |e| {
                let (lr, lw) = e.controller().level_touches();
                (e.dram().utilization(), lr, lw)
            });
        let total_cycles = window.total_cycles;

        let rec = rec.lock().expect("recorder poisoned");
        rec.attribution().map_err(|e| format!("{name}: attribution: {e}"))?;
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

        policies.push(PolicyProfile {
            policy: name.to_string(),
            total_cycles,
            data_cycles: window.data_cycles,
            dri_cycles: window.dri_cycles,
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
            energy_mj: window.energy_mj,
            channels,
            level_reads: diff(&lr, &level_reads_base),
            level_writes: diff(&lw, &level_writes_base),
        });
        if let Some(hb) = progress {
            hb.tick(done + 1, TRACE_POLICIES.len());
        }
    }

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
        assert!(run_profile(&o, None).unwrap_err().contains("unknown workload"));
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
