//! Trace-distinguishing experiments: the adversary's side of the
//! obliviousness game, played against the real controller.
//!
//! Three experiment families, in increasing strength of the claim:
//!
//! * **Cross-policy identity** ([`cross_policy_traces_identical`]) — the
//!   paper's Sec. IV-B argument. On a fresh (single-touch) request
//!   stream every duplication policy must produce a trace *byte-identical*
//!   to the Tiny ORAM baseline: duplication only changes ciphertext
//!   contents, never the address/direction sequence.
//! * **Relabeling identity** ([`relabeled_traces_identical`],
//!   [`timing_protected_relabeled_identical`]) — renaming the secret
//!   addresses of a workload must leave the trace byte-identical, because
//!   nothing observable may depend on *which* addresses are accessed.
//! * **Distributional distinguisher** ([`distribution_distinguisher`]) —
//!   for arbitrary pairs of secret patterns the traces need only be
//!   equal in distribution; a two-sample test over the observed leaf
//!   sequences must fail to tell them apart.
//!
//! ### The relabeling offset
//!
//! Byte-identity under relabeling is only promised when the renaming is
//! *structure-preserving* for the controller's public, address-indexed
//! resources: the Hot Address Cache (set-indexed by `addr mod sets`) and
//! the PLB (page-indexed by `addr / page_addrs`). A renaming that
//! changes set indices or page boundaries changes which metadata entries
//! collide — publicly visible state, not a secret. [`relabel_offset`]
//! returns the smallest address shift that preserves both; arbitrary
//! renamings get the distributional guarantee instead.

use oram_protocol::{BlockAddr, DupPolicy, Op, OramConfig, OramController, Request};
use oram_sim::{Engine, SystemConfig};
use oram_util::BusEvent;

use crate::invariants::{check_trace, TraceSpec};
use crate::recorder::Recorder;
use crate::stats::{bin_counts, chi_square_two_sample, GofTest};

/// The six externally distinguishable configurations the audit sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyUnderTest {
    /// Tiny ORAM baseline (dummy slots stay dummy).
    Baseline,
    /// Pure Rear Data Duplication.
    RdDup,
    /// Pure Hot Data Duplication.
    HdDup,
    /// Dynamic partitioning (3-bit DRI counter, the paper's optimum).
    Dynamic,
    /// Baseline protocol under the XOR bus-compression model. The
    /// controller-level trace is the baseline's by construction; the
    /// engine-level experiments exercise the compressed bus.
    Xor,
    /// Baseline protocol with two treetop levels cached on chip.
    Treetop,
}

impl PolicyUnderTest {
    /// Every policy, in sweep order.
    pub const ALL: [PolicyUnderTest; 6] = [
        PolicyUnderTest::Baseline,
        PolicyUnderTest::RdDup,
        PolicyUnderTest::HdDup,
        PolicyUnderTest::Dynamic,
        PolicyUnderTest::Xor,
        PolicyUnderTest::Treetop,
    ];

    /// Human-readable name for report lines.
    pub fn name(self) -> &'static str {
        match self {
            PolicyUnderTest::Baseline => "baseline",
            PolicyUnderTest::RdDup => "rd-dup",
            PolicyUnderTest::HdDup => "hd-dup",
            PolicyUnderTest::Dynamic => "dynamic",
            PolicyUnderTest::Xor => "xor",
            PolicyUnderTest::Treetop => "treetop",
        }
    }

    /// The controller configuration this policy runs with.
    pub fn oram_config(self, base: OramConfig) -> OramConfig {
        match self {
            PolicyUnderTest::Baseline | PolicyUnderTest::Xor => {
                base.with_dup_policy(DupPolicy::Off)
            }
            PolicyUnderTest::RdDup => base.with_dup_policy(DupPolicy::RdOnly),
            PolicyUnderTest::HdDup => base.with_dup_policy(DupPolicy::HdOnly),
            PolicyUnderTest::Dynamic => {
                base.with_dup_policy(DupPolicy::Dynamic { counter_bits: 3 })
            }
            PolicyUnderTest::Treetop => {
                let tt = base.treetop_levels.max(2).min(base.levels);
                base.with_dup_policy(DupPolicy::Off).with_treetop(tt)
            }
        }
    }

    /// The system configuration this policy runs with (engine-level
    /// experiments; XOR compression lives here, not in the controller).
    pub fn system_config(self, base: SystemConfig) -> SystemConfig {
        let oram = self.oram_config(base.oram);
        let sys = base.with_oram(oram);
        match self {
            PolicyUnderTest::Xor => sys.with_xor_compression(),
            _ => sys,
        }
    }
}

/// The smallest address shift that preserves the Hot Address Cache set
/// index and PLB page alignment of every address (see the module docs on
/// why relabeling must be structure-preserving for byte-identity).
pub fn relabel_offset(cfg: &OramConfig) -> u64 {
    let sets = cfg.hot_cache_sets.max(1) as u64;
    let page = cfg.plb_page_addrs.max(1);
    // Both are powers of two in every shipped configuration; lcm via the
    // larger works then, and the product is a safe fallback otherwise.
    let candidate = sets.max(page);
    if candidate.is_multiple_of(sets) && candidate.is_multiple_of(page) {
        candidate * 16
    } else {
        sets * page * 16
    }
}

/// Runs `reqs` through a fresh controller with an attached recorder and
/// returns the captured trace plus the controller for post-mortems.
///
/// # Errors
///
/// Propagates configuration rejection from [`OramController::new`].
pub fn record_trace(
    cfg: OramConfig,
    reqs: &[Request],
) -> Result<(Vec<BusEvent>, OramController), String> {
    let rec = Recorder::unbounded();
    let mut ctl = OramController::new(cfg)?;
    ctl.set_observer(Some(rec.observer()));
    for &req in reqs {
        ctl.access(req);
    }
    ctl.set_observer(None);
    Ok((rec.snapshot(), ctl))
}

/// A single-touch read stream: `n` distinct addresses starting at
/// `base`, each accessed exactly once (no stash reuse, so every request
/// reaches the bus under every policy).
pub fn fresh_stream(n: u64, base: u64) -> Vec<Request> {
    (0..n).map(|i| Request::read(BlockAddr::new(base + i))).collect()
}

/// A round-robin read/write stream over a working set of `set` addresses
/// starting at `base` (every third request writes), exercising stash
/// hits, version bumps, and remaps.
pub fn reuse_stream(n: u64, set: u64, base: u64) -> Vec<Request> {
    assert!(set > 0);
    (0..n)
        .map(|i| {
            let addr = BlockAddr::new(base + i % set);
            if i % 3 == 2 {
                Request::write(addr, i)
            } else {
                Request::read(addr)
            }
        })
        .collect()
}

/// Shifts every address of `pattern` by `offset`, preserving operations
/// and payloads.
fn relabel(pattern: &[Request], offset: u64) -> Vec<Request> {
    pattern
        .iter()
        .map(|r| {
            let addr = BlockAddr::new(r.addr.raw() + offset);
            match r.op {
                Op::Read => Request::read(addr),
                Op::Write => Request::write(addr, r.data),
            }
        })
        .collect()
}

/// Index and values of the first difference between two traces, for
/// error messages.
fn first_diff(a: &[BusEvent], b: &[BusEvent]) -> String {
    if a.len() != b.len() {
        return format!("lengths differ: {} vs {}", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!("first difference at event {i}: {:?} vs {:?}", a[i], b[i]),
        None => "traces are identical".into(),
    }
}

/// Drops DRAM-invisible bucket events (tree levels below `treetop`) from
/// a trace, so a treetop-caching trace can be compared against a
/// full-depth baseline.
pub fn filter_treetop(events: &[BusEvent], treetop: u32) -> Vec<BusEvent> {
    events
        .iter()
        .copied()
        .filter(|e| match e {
            BusEvent::Bucket { bucket, .. } => {
                let level = 63 - bucket.leading_zeros().min(63);
                level >= treetop
            }
            _ => true,
        })
        .collect()
}

/// Verifies the paper's core security claim: on a fresh request stream,
/// every duplication policy produces a bus trace byte-identical to the
/// baseline's (and treetop caching produces exactly the baseline trace
/// with its on-chip levels removed).
///
/// # Errors
///
/// Names the first policy whose trace diverges, with the position and
/// values of the first differing event.
pub fn cross_policy_traces_identical(base: OramConfig, n: u64) -> Result<(), String> {
    let reqs = fresh_stream(n, 0);
    let baseline_cfg = PolicyUnderTest::Baseline.oram_config(base);
    let (baseline, _) = record_trace(baseline_cfg, &reqs)?;
    check_trace(&TraceSpec::from_oram(&baseline_cfg), &baseline)
        .map_err(|e| format!("baseline trace invalid: {e}"))?;

    for policy in [
        PolicyUnderTest::RdDup,
        PolicyUnderTest::HdDup,
        PolicyUnderTest::Dynamic,
        PolicyUnderTest::Xor,
    ] {
        let (trace, _) = record_trace(policy.oram_config(base), &reqs)?;
        if trace != baseline {
            return Err(format!(
                "policy {} diverges from baseline: {}",
                policy.name(),
                first_diff(&trace, &baseline)
            ));
        }
    }

    let tt_cfg = PolicyUnderTest::Treetop.oram_config(base);
    let (tt_trace, _) = record_trace(tt_cfg, &reqs)?;
    let expected = filter_treetop(&baseline, tt_cfg.treetop_levels);
    if tt_trace != expected {
        return Err(format!(
            "treetop trace is not the filtered baseline: {}",
            first_diff(&tt_trace, &expected)
        ));
    }
    Ok(())
}

/// Verifies relabeling identity at the controller level: running
/// `pattern` and its address-shifted twin through identically configured
/// controllers must produce byte-identical traces.
///
/// `offset` must be structure-preserving; pass [`relabel_offset`].
///
/// # Errors
///
/// Reports the first differing event.
pub fn relabeled_traces_identical(
    cfg: OramConfig,
    pattern: &[Request],
    offset: u64,
) -> Result<(), String> {
    let (a, _) = record_trace(cfg, pattern)?;
    let (b, _) = record_trace(cfg, &relabel(pattern, offset))?;
    if a != b {
        return Err(format!("relabeled trace diverges: {}", first_diff(&a, &b)));
    }
    check_trace(&TraceSpec::from_oram(&cfg), &a).map_err(|e| format!("trace invalid: {e}"))?;
    Ok(())
}

/// Runs the distributional distinguisher: records the traces of two
/// different secret patterns under the same configuration and returns
/// the two-sample test over their observed leaf sequences. A `pass`
/// means the adversary failed to distinguish them.
///
/// # Errors
///
/// Propagates structural violations in either trace — a distribution
/// comparison over malformed traces would be meaningless.
pub fn distribution_distinguisher(
    cfg: OramConfig,
    pattern_a: &[Request],
    pattern_b: &[Request],
) -> Result<GofTest, String> {
    let spec = TraceSpec::from_oram(&cfg);
    let (ta, _) = record_trace(cfg, pattern_a)?;
    let (tb, _) = record_trace(cfg, pattern_b)?;
    let la = check_trace(&spec, &ta)?.leaves;
    let lb = check_trace(&spec, &tb)?.leaves;
    let domain = 1u64 << cfg.levels;
    let samples = la.len().min(lb.len());
    // Keep the expected count per bin ≥ ~8 so the chi-square
    // approximation holds on short fuzz runs.
    let bins = (samples / 8).next_power_of_two().clamp(4, 64);
    Ok(chi_square_two_sample(&bin_counts(&la, domain, bins), &bin_counts(&lb, domain, bins)))
}

/// End-to-end relabeling identity under timing protection: two engines
/// with dummy injection at `period` CPU cycles replay a miss stream and
/// its relabeled twin; the full bus traces — controller framing *and*
/// device-level DRAM block requests — must be byte-identical.
///
/// # Errors
///
/// Reports configuration rejection, trace divergence, or a structural
/// violation in the (valid) trace.
pub fn timing_protected_relabeled_identical(
    base: SystemConfig,
    policy: PolicyUnderTest,
    misses: &[oram_cpu::MissRecord],
    period: u64,
) -> Result<(), String> {
    let cfg = policy.system_config(base).with_timing_protection(period);
    let offset = relabel_offset(&cfg.oram);

    let run = |shift: u64| -> Result<Vec<BusEvent>, String> {
        let rec = Recorder::unbounded();
        let mut engine = Engine::new(cfg.clone())?;
        engine.attach_bus_observer(rec.observer());
        let shifted: Vec<oram_cpu::MissRecord> = misses
            .iter()
            .map(|m| oram_cpu::MissRecord { block_addr: m.block_addr + shift, ..*m })
            .collect();
        engine.run(&mut oram_cpu::ReplayMisses::new(shifted));
        engine.detach_bus_observer();
        Ok(rec.snapshot())
    };

    let a = run(0)?;
    let b = run(offset)?;
    if a != b {
        return Err(format!(
            "timing-protected relabeled trace diverges ({}): {}",
            policy.name(),
            first_diff(&a, &b)
        ));
    }
    check_trace(&TraceSpec::from_oram(&cfg.oram), &a)
        .map_err(|e| format!("timing-protected trace invalid: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_cover_all_six_and_configs_validate() {
        let base = OramConfig::small_test();
        for p in PolicyUnderTest::ALL {
            p.oram_config(base).validate().unwrap();
            assert!(!p.name().is_empty());
        }
        assert_eq!(PolicyUnderTest::ALL.len(), 6);
    }

    #[test]
    fn cross_policy_identity_on_default_test_config() {
        cross_policy_traces_identical(OramConfig::small_test(), 256).unwrap();
    }

    #[test]
    fn relabeling_is_invisible_for_every_policy() {
        let base = OramConfig::small_test();
        let pattern = reuse_stream(400, 48, 1);
        for p in PolicyUnderTest::ALL {
            let cfg = p.oram_config(base);
            relabeled_traces_identical(cfg, &pattern, relabel_offset(&cfg))
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
        }
    }

    #[test]
    fn non_preserving_relabeling_may_diverge_but_stays_valid() {
        // A shift that breaks hot-cache set alignment is allowed to change
        // the trace (publicly indexed metadata collides differently), but
        // whatever trace comes out must still satisfy every invariant.
        let cfg = PolicyUnderTest::HdDup.oram_config(OramConfig::small_test());
        let pattern = reuse_stream(400, 48, 1);
        let (t, _) = record_trace(cfg, &relabel(&pattern, 3)).unwrap();
        check_trace(&TraceSpec::from_oram(&cfg), &t).unwrap();
    }

    #[test]
    fn different_patterns_are_indistinguishable_in_distribution() {
        let cfg = OramConfig::small_test();
        let hot = reuse_stream(900, 8, 1); // pathological locality
        let wide = reuse_stream(900, 96, 500); // wide scan
        let test = distribution_distinguisher(cfg, &hot, &wide).unwrap();
        assert!(test.pass, "{test:?}");
    }
}
