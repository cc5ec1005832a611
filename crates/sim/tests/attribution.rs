//! Attribution completeness, as a randomized property: over randomized
//! configurations and workloads, every span's cycle attribution must
//! partition its duration exactly (no unattributed cycles, no double
//! counting), and the duplication credits must be mutually exclusive
//! and tied to the serve class that earns them.
//!
//! Cases are deterministically seeded with the in-repo [`Rng64`], so a
//! failure reproduces exactly without an external property-testing
//! framework.

use oram_protocol::DupPolicy;
use oram_sim::{run_workload_traced, RunOptions, SystemConfig};
use oram_telemetry::{validate_attribution, TelemetryConfig, TelemetryRecorder};
use oram_util::{Rng64, ServeClass};
use oram_workloads::spec;

const CASES: u64 = 24;

fn random_policy(rng: &mut Rng64) -> DupPolicy {
    match rng.below(4) {
        0 => DupPolicy::Off,
        1 => DupPolicy::RdOnly,
        2 => DupPolicy::HdOnly,
        _ => DupPolicy::Dynamic { counter_bits: 2 + rng.below(3) as u32 },
    }
}

/// Components sum exactly to the span duration on every access of
/// every randomized run, and credits only appear on eligible serves.
#[test]
fn attribution_partitions_every_span_exactly() {
    let mut rng = Rng64::seed_from_u64(0xa77);
    let workloads = spec::WORKLOAD_NAMES;
    for case in 0..CASES {
        let mut cfg = SystemConfig::small_test();
        cfg.oram.levels = 8 + rng.below(5) as u32;
        cfg.oram.dup_policy = random_policy(&mut rng);
        cfg.xor_compression = rng.below(3) == 0;
        cfg.timing_protection = if rng.below(2) == 0 { Some(40 + rng.below(60)) } else { None };
        cfg.validate().expect("randomized config stays valid");

        let workload = workloads[rng.below(workloads.len() as u64) as usize];
        let ro = RunOptions {
            misses: 150 + rng.below(250),
            warmup_misses: rng.below(80),
            seed: rng.next_u64(),
            fill_target: 0.25 + 0.2 * (rng.below(3) as f64 / 2.0),
            o3: None,
        };

        let rec = TelemetryRecorder::shared(TelemetryConfig::default());
        let r = run_workload_traced(
            &spec::profile(workload),
            &cfg,
            &ro,
            TelemetryRecorder::as_sink(&rec),
            10_000,
        );
        let rec = rec.lock().unwrap();
        let ctx = format!(
            "case {case}: workload={workload} policy={:?} levels={} xor={} misses={}",
            cfg.oram.dup_policy, cfg.oram.levels, cfg.xor_compression, ro.misses
        );

        // The shared validator is the shipped invariant; assert the
        // pieces by hand too so a failure names the broken component.
        validate_attribution(rec.spans()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
        assert!(rec.spans().total_pushed() > 0, "{ctx}: run produced no spans");
        for s in rec.spans().iter() {
            let a = &s.attr;
            let busy = a.dram_queue + a.dram_row + a.network + a.dram_bus + a.eviction;
            if s.phase_len == 0 {
                // On-chip serves never touch the bus: nothing to attribute.
                assert_eq!(busy, 0, "{ctx}: on-chip span {} carries bus attribution", s.seq);
            } else {
                assert_eq!(busy, s.end - s.start, "{ctx}: span {} has unattributed cycles", s.seq);
            }
            // Credits are mutually exclusive and class-gated.
            assert!(
                a.forward_saved == 0 || a.stash_pull_credit == 0,
                "{ctx}: span {} claims both duplication credits",
                s.seq
            );
            if a.forward_saved > 0 {
                assert_eq!(
                    s.served,
                    ServeClass::DramShadow,
                    "{ctx}: span {} saved forward cycles without a shadow serve",
                    s.seq
                );
            }
            if a.stash_pull_credit > 0 {
                assert_eq!(
                    s.served,
                    ServeClass::Stash,
                    "{ctx}: span {} took a stash-pull credit off the stash",
                    s.seq
                );
            }
        }

        // Attribution over the span stream never exceeds the run: the
        // spans partition the busy portion, idle fills the rest.
        let busy: u64 = rec
            .spans()
            .iter()
            .map(|s| {
                s.attr.dram_queue
                    + s.attr.dram_row
                    + s.attr.network
                    + s.attr.dram_bus
                    + s.attr.eviction
            })
            .sum();
        assert!(
            busy <= r.oram.total_cycles,
            "{ctx}: attributed {busy} cycles of a {}-cycle run",
            r.oram.total_cycles
        );
    }
}

/// The Tiny baseline earns no duplication credit; RD-Dup shows early
/// forwarding on a duplication-friendly run.
#[test]
fn credits_follow_the_duplication_policy() {
    for (policy, expect_any) in [(DupPolicy::Off, false), (DupPolicy::RdOnly, true)] {
        let mut cfg = SystemConfig::small_test();
        cfg.oram.dup_policy = policy;
        cfg.validate().unwrap();
        let ro =
            RunOptions { misses: 600, warmup_misses: 150, seed: 9, fill_target: 0.3, o3: None };
        let rec = TelemetryRecorder::shared(TelemetryConfig::default());
        run_workload_traced(
            &spec::profile("mcf"),
            &cfg,
            &ro,
            TelemetryRecorder::as_sink(&rec),
            10_000,
        );
        let rec = rec.lock().unwrap();
        let saved: u64 = rec.spans().iter().map(|s| s.attr.forward_saved).sum();
        let credit: u64 = rec.spans().iter().map(|s| s.attr.stash_pull_credit).sum();
        if expect_any {
            assert!(saved > 0, "{policy:?}: RD-Dup must save forward cycles");
        } else {
            assert_eq!(saved, 0, "{policy:?}: baseline saved cycles it cannot have");
            assert_eq!(credit, 0, "{policy:?}: baseline credited a stash pull");
        }
    }
}
