//! Proof that the auditor catches real protocol faults.
//!
//! The `mutants` cargo feature (enabled here through the dev-dependency)
//! compiles five deliberate bugs into the controller (and one into the
//! sharded backend):
//!
//! * `SkipLeafRewrite` — the eviction write "optimizes away" the leaf
//!   bucket, the classic skipped-dummy-fill bug. The structural layer
//!   must reject the trace.
//! * `BiasedRemap` — remapping draws leaves from the lower half of the
//!   tree only. The trace stays structurally perfect, so only the
//!   statistical layer can catch it.
//! * `ReadRemapKeepsVersion` and `DropOnDrain` — a read's remap keeps the
//!   version, leaving a second current real copy, and an eviction write
//!   loses a block. Both traces are flawless; only the controller's
//!   exact invariant (one current real copy per sited address) can catch
//!   them.
//! * `StaleShadowLevel` — a shadow enters the stash carrying the level of
//!   the bucket it was read from, not its real copy's, so recirculation
//!   offers it under a stale Rule-2 bound. Caught by the invariant that a
//!   stash shadow carries its real copy's posmap site.
//! * `ShardSkew` — the sharded backend's address→shard mapping collapses
//!   onto the lower half of the shards (the "sharding function lost a
//!   bit" bug). Every shard trace stays valid; only the cross-shard
//!   dispatch-distribution check can catch it.
//!
//! Each test runs its positive control (the same audit with
//! `Mutant::None`) first, so a pass means the check is discriminating,
//! not merely strict. The two trace-visible controller mutants are caught
//! twice: by the slice checkers on a recorded trace, and by the
//! [`LaneAudit`] observer folding the same grammars over a running
//! engine's bus events — the path `repro serve` audits itself through.

use oram_audit::stats::{bin_counts, chi_square_uniform, ks_uniform, ks_uniform_counts};
use oram_audit::{check_service_trace, check_trace, LaneAudit, LeafCounts, Recorder, TraceSpec};
use oram_protocol::{
    BlockAddr, BusObserver, DupPolicy, Mutant, OramConfig, OramController, Request,
};
use oram_sim::{Engine, ShardMutant, ShardRequest, ShardedOram, SystemConfig};
use oram_util::Rng64;

fn traced_run(cfg: OramConfig, mutant: Mutant, accesses: u64) -> Vec<oram_protocol::BusEvent> {
    let rec = Recorder::unbounded();
    let mut ctl = OramController::new(cfg).unwrap();
    ctl.set_mutant(mutant);
    ctl.set_observer(Some(rec.observer()));
    for i in 0..accesses {
        let addr = BlockAddr::new(1 + i % 64);
        if i % 3 == 2 {
            ctl.access(Request::write(addr, i));
        } else {
            ctl.access(Request::read(addr));
        }
    }
    rec.snapshot()
}

#[test]
fn skipped_leaf_rewrite_is_caught_by_the_structural_layer() {
    let cfg = OramConfig::small_test();
    let spec = TraceSpec::from_oram(&cfg);

    // Positive control: the honest controller passes.
    check_trace(&spec, &traced_run(cfg, Mutant::None, 300)).unwrap();

    // The mutant ships one bucket short in every eviction write.
    let err = check_trace(&spec, &traced_run(cfg, Mutant::SkipLeafRewrite, 300))
        .expect_err("skipped leaf rewrite must be rejected");
    assert!(
        err.contains("buckets") || err.contains("constant"),
        "unexpected rejection reason: {err}"
    );
}

#[test]
fn biased_remap_is_caught_by_the_statistical_layer() {
    let cfg = OramConfig::small_test();
    let spec = TraceSpec::from_oram(&cfg);
    let domain = 1u64 << cfg.levels;

    // Positive control: honest leaves look uniform.
    let honest = check_trace(&spec, &traced_run(cfg, Mutant::None, 3000)).unwrap().leaves;
    assert!(honest.len() > 500, "want a real sample, got {}", honest.len());
    assert!(chi_square_uniform(&bin_counts(&honest, domain, 32)).pass);
    assert!(ks_uniform(&honest, domain).pass);

    // The biased remapper produces a structurally flawless trace...
    let biased = check_trace(&spec, &traced_run(cfg, Mutant::BiasedRemap, 3000))
        .expect("biased remap keeps the trace structurally valid")
        .leaves;
    // ...that both statistical tests reject.
    let chi = chi_square_uniform(&bin_counts(&biased, domain, 32));
    assert!(!chi.pass, "chi-square missed the biased remap: {chi:?}");
    let ks = ks_uniform(&biased, domain);
    assert!(!ks.pass, "KS missed the biased remap: {ks:?}");
}

/// A lane counts its leaves where `check_service_trace` stores them, and
/// the two reach the same verdict, word for word, on the honest trace and
/// on the biased remapper's — whose statistics the counts reproduce bit
/// for bit.
#[test]
fn counted_and_stored_leaves_judge_the_biased_remap_alike() {
    let cfg = OramConfig::small_test();
    let domain = 1u64 << cfg.levels;
    for mutant in [Mutant::None, Mutant::BiasedRemap] {
        let events = traced_run(cfg, mutant, 3000);
        let mut lane = LaneAudit::new(&cfg);
        lane.on_events(&events);
        let stored = check_service_trace(&cfg, &events)
            .map(|summary| summary.path_reads)
            .map_err(|e| format!("service trace audit: {e}"));
        let counted = lane.finish().map(|(summary, _)| summary.path_reads);
        assert_eq!(counted, stored, "{mutant:?}");
        assert_eq!(stored.is_ok(), mutant == Mutant::None, "{stored:?}");

        let leaves = check_trace(&TraceSpec::from_oram(&cfg), &events).unwrap().leaves;
        let counts = LeafCounts::from_leaves(&leaves, cfg.levels);
        let chi = (
            chi_square_uniform(&counts.binned(32)),
            chi_square_uniform(&bin_counts(&leaves, domain, 32)),
        );
        assert_eq!(chi.0.statistic.to_bits(), chi.1.statistic.to_bits(), "{mutant:?}");
        let ks = (ks_uniform_counts(counts.per_leaf().unwrap()), ks_uniform(&leaves, domain));
        assert_eq!(ks.0.statistic.to_bits(), ks.1.statistic.to_bits(), "{mutant:?}");
        assert_eq!((chi.0.pass, ks.0.pass), (mutant == Mutant::None, mutant == Mutant::None));
    }
}

/// The first access after which [`OramController::check_invariants`]
/// rejects the state a `mutant` controller under `policy` left, over
/// `accesses` random reads and writes (every third a write) to `domain`
/// addresses, with the error.
fn first_invariant_break(
    policy: DupPolicy,
    domain: u64,
    mutant: Mutant,
    accesses: u64,
) -> Option<(u64, String)> {
    let mut ctl = OramController::new(OramConfig::small_test().with_dup_policy(policy)).unwrap();
    ctl.set_mutant(mutant);
    let mut rng = Rng64::seed_from_u64(0xB10C);
    for step in 0..accesses {
        let addr = BlockAddr::new(rng.below(domain));
        if step % 3 == 2 {
            ctl.access(Request::write(addr, step));
        } else {
            ctl.access(Request::read(addr));
        }
        if let Err(e) = ctl.check_invariants() {
            return Some((step, e));
        }
    }
    None
}

#[test]
fn state_mutants_are_caught_by_the_exact_invariant() {
    // Positive control: the honest controller keeps every invariant.
    assert_eq!(first_invariant_break(DupPolicy::Off, 96, Mutant::None, 3000), None);

    let (step, err) =
        first_invariant_break(DupPolicy::Off, 96, Mutant::ReadRemapKeepsVersion, 3000)
            .expect("a read's remap that keeps the version must be rejected");
    assert!(err.contains("is off the path to"), "step {step}: unexpected rejection reason: {err}");

    let (step, err) = first_invariant_break(DupPolicy::Off, 96, Mutant::DropOnDrain, 3000)
        .expect("a block lost by an eviction write must be rejected");
    assert!(
        err.contains("has 0 current real copies"),
        "step {step}: unexpected rejection reason: {err}"
    );

    // With duplication on and more addresses than the stash holds, shadows
    // reach the stash: the honest controller keeps every invariant, and
    // the stale carried level is caught.
    let dynamic = DupPolicy::Dynamic { counter_bits: 3 };
    assert_eq!(first_invariant_break(dynamic, 300, Mutant::None, 3000), None);
    let (step, err) = first_invariant_break(dynamic, 300, Mutant::StaleShadowLevel, 3000)
        .expect("a stash shadow with a stale level must be rejected");
    assert!(err.contains("carries level"), "step {step}: unexpected rejection reason: {err}");
}

/// The verdict of a [`LaneAudit`] attached to an engine (controller and
/// storage backend both) while it serves `accesses` requests under
/// `mutant`.
fn online_verdict(mutant: Mutant, accesses: u64) -> Result<u64, String> {
    let sys = SystemConfig::small_test();
    let audit = LaneAudit::shared(&sys.oram);
    let mut engine = Engine::new(sys).unwrap();
    engine.controller_mut().set_mutant(mutant);
    engine.attach_bus_observer(audit.clone());
    for i in 0..accesses {
        engine.serve_request(1 + i % 64, i % 3 == 2, i * 40);
    }
    engine.detach_bus_observer();
    let (data, _) = audit.lock().unwrap().finish()?;
    assert!(data.dram_blocks > 0, "the device side was audited too");
    Ok(data.path_reads)
}

#[test]
fn the_online_audit_catches_both_controller_mutants() {
    // Positive control: the honest engine passes, with a leaf sample
    // large enough that the uniformity tests ran.
    let path_reads = online_verdict(Mutant::None, 3000).expect("honest engine passes");
    assert!(path_reads > 500, "want a real sample, got {path_reads}");

    let err = online_verdict(Mutant::SkipLeafRewrite, 300).expect_err("structural layer");
    assert!(
        err.starts_with("service trace audit: event ")
            && err.ends_with(
                "EvictionWrite phase touched 7 buckets, expected 8: the request count per \
                 access must be constant"
            ),
        "unexpected rejection reason: {err}"
    );

    let err = online_verdict(Mutant::BiasedRemap, 3000).expect_err("statistical layer");
    assert!(
        err.starts_with("service trace audit: leaf distribution rejected by "),
        "unexpected rejection reason: {err}"
    );
}

/// Dispatch counts of a 4-shard backend fed a uniform address mix.
fn sharded_dispatch(mutant: ShardMutant, requests: u64) -> Vec<u64> {
    let mut backend = ShardedOram::new(SystemConfig::small_test(), 4, 1).unwrap();
    backend.set_mutant(mutant);
    backend.prefill_working_set(256);
    let reqs: Vec<ShardRequest> = (0..requests)
        .map(|i| ShardRequest { addr: (i * 131) % 256, write: i % 5 == 4, arrival: i * 60 })
        .collect();
    let mut outs = Vec::new();
    for chunk in reqs.chunks(32) {
        backend.serve_batch(chunk, &mut outs);
    }
    backend.dispatch_counts().to_vec()
}

#[test]
fn shard_skew_is_caught_by_the_dispatch_distribution() {
    // Positive control: the honest `addr mod M` mapping spreads a
    // uniform mix evenly across the shards.
    let honest = sharded_dispatch(ShardMutant::None, 2000);
    assert_eq!(honest.iter().sum::<u64>(), 2000);
    let t = chi_square_uniform(&honest);
    assert!(t.pass, "honest dispatch flagged as skewed: {t:?} ({honest:?})");

    // The mutant starves the upper half of the shards. Each shard's own
    // trace is still a flawless ORAM trace — only the cross-shard load
    // distribution exposes the bug.
    let skewed = sharded_dispatch(ShardMutant::ShardSkew, 2000);
    assert_eq!(skewed.iter().sum::<u64>(), 2000);
    assert_eq!(&skewed[2..], &[0, 0], "skew maps everything onto shards 0..2");
    let t = chi_square_uniform(&skewed);
    assert!(!t.pass, "chi-square missed the shard skew: {t:?} ({skewed:?})");
}
