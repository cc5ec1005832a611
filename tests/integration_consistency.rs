//! Cross-crate consistency: the full system (workload generator → cache
//! hierarchy → ORAM controller) must be a faithful memory, for every
//! duplication policy, including randomized exploration of the protocol
//! state space (deterministically seeded, so failures reproduce exactly).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use oram_protocol::{
    AccessResult, BlockAddr, BusEvent, DupPolicy, OramConfig, OramController, OramStats,
    PosMapSelect, Request, SharedObserver,
};
use oram_util::Rng64;

fn policies() -> Vec<DupPolicy> {
    vec![
        DupPolicy::Off,
        DupPolicy::RdOnly,
        DupPolicy::HdOnly,
        DupPolicy::Static { partition_level: 2 },
        DupPolicy::Static { partition_level: 5 },
        DupPolicy::Dynamic { counter_bits: 1 },
        DupPolicy::Dynamic { counter_bits: 3 },
    ]
}

#[test]
fn long_mixed_run_matches_reference_memory() {
    for policy in policies() {
        let cfg = OramConfig::small_test().with_dup_policy(policy);
        let mut ctl = OramController::new(cfg).unwrap();
        let mut reference: HashMap<BlockAddr, u64> = HashMap::new();
        let mut x = 0xFEED_5EEDu64;
        for step in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = BlockAddr::new(x % 200);
            if x.is_multiple_of(3) {
                ctl.access(Request::write(addr, step));
                reference.insert(addr, step);
            } else {
                let got = ctl.access(Request::read(addr)).value;
                let want = reference.get(&addr).copied().unwrap_or(0);
                assert_eq!(got, want, "{policy:?} step {step} {addr}");
            }
        }
        ctl.check_invariants().unwrap();
    }
}

#[test]
fn interleaved_dummies_do_not_corrupt_state() {
    for policy in [DupPolicy::Off, DupPolicy::Dynamic { counter_bits: 3 }] {
        let cfg = OramConfig::small_test().with_dup_policy(policy);
        let mut ctl = OramController::new(cfg).unwrap();
        let mut reference: HashMap<BlockAddr, u64> = HashMap::new();
        for step in 0..2000u64 {
            match step % 5 {
                0 => {
                    ctl.dummy_access();
                }
                1 => {
                    let addr = BlockAddr::new(step % 80);
                    ctl.access(Request::write(addr, step));
                    reference.insert(addr, step);
                }
                _ => {
                    let addr = BlockAddr::new((step * 7) % 80);
                    let got = ctl.access(Request::read(addr)).value;
                    let want = reference.get(&addr).copied().unwrap_or(0);
                    assert_eq!(got, want, "{policy:?} step {step}");
                }
            }
        }
        ctl.check_invariants().unwrap();
    }
}

#[test]
fn prefilled_image_reads_back_under_every_policy() {
    for policy in policies() {
        let cfg = OramConfig::small_test().with_dup_policy(policy);
        let mut ctl = OramController::new(cfg).unwrap();
        ctl.prefill((0..300u64).map(|i| (BlockAddr::new(i), i ^ 0xABCD)));
        // Churn for a while, then verify the untouched blocks.
        for i in 0..1000u64 {
            ctl.access(Request::read(BlockAddr::new(i % 150)));
        }
        for i in (150..300u64).step_by(13) {
            let got = ctl.access(Request::read(BlockAddr::new(i))).value;
            assert_eq!(got, i ^ 0xABCD, "{policy:?} block {i}");
        }
    }
}

/// Random operation sequences against a reference model, with random
/// policies and tree geometries.
#[test]
fn random_sequences_match_reference() {
    let mut rng = Rng64::seed_from_u64(0xC0FF_EE00);
    for _case in 0..24 {
        let seed = rng.below(1_000_000);
        let levels = rng.range_inclusive(5, 8) as u32;
        let policy = policies()[rng.below(7) as usize];
        let n_ops = rng.range_inclusive(50, 399);
        let mut cfg =
            OramConfig::small_test().with_dup_policy(policy).with_seed(seed).with_levels(levels);
        cfg.stash_capacity = (cfg.z * (levels as usize + 1)).max(64) + 48;
        let mut ctl = OramController::new(cfg).unwrap();
        let mut reference: HashMap<BlockAddr, u64> = HashMap::new();
        for _ in 0..n_ops {
            let addr = BlockAddr::new(rng.below(120));
            match rng.below(3) {
                0 => {
                    let val = rng.next_u64();
                    ctl.access(Request::write(addr, val));
                    reference.insert(addr, val);
                }
                1 => {
                    let got = ctl.access(Request::read(addr)).value;
                    let want = reference.get(&addr).copied().unwrap_or(0);
                    assert_eq!(got, want, "{policy:?} {addr:?}");
                }
                _ => {
                    ctl.dummy_access();
                }
            }
        }
        ctl.check_invariants().unwrap();
    }
}

/// Stash occupancy (live blocks) stays bounded well below capacity for
/// sustained random workloads — the Rule-3 claim that duplication does
/// not change stash-overflow behaviour.
#[test]
fn stash_live_occupancy_stays_bounded() {
    let mut rng = Rng64::seed_from_u64(0xBADC_AB1E);
    for case in 0..16 {
        let seed = rng.below(100_000);
        let dup = case % 2 == 0;
        let policy = if dup { DupPolicy::Dynamic { counter_bits: 3 } } else { DupPolicy::Off };
        let cfg = OramConfig::small_test().with_dup_policy(policy).with_seed(seed);
        let cap = cfg.stash_capacity;
        let mut ctl = OramController::new(cfg).unwrap();
        let mut x = seed | 1;
        for _ in 0..1500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ctl.access(Request::read(BlockAddr::new(x % 180)));
        }
        let max_live = ctl.stash_stats().max_live;
        assert!(max_live < cap, "live stash occupancy {max_live} reached capacity {cap}");
    }
}

/// What one value-reference run leaves behind: every access's result,
/// the statistics, and the bus-event stream an observer saw.
type RunRecord = (Vec<AccessResult>, OramStats, Vec<BusEvent>);

/// Drives `cfg` through reads, writes and dummies over a reuse domain,
/// checking every returned value against a map and the protocol
/// invariants after every access.
fn value_reference_run(cfg: OramConfig, accesses: u64) -> RunRecord {
    let label = format!("{:?} {:?} L={}", cfg.posmap, cfg.dup_policy, cfg.levels);
    let mut ctl = OramController::new(cfg).unwrap();
    if matches!(cfg.posmap, PosMapSelect::Recursive { .. }) {
        assert!(ctl.posmap_chain_levels() > 0, "{label}: the posmap chain is empty");
    }
    let bus = Arc::new(Mutex::new(Vec::new()));
    ctl.set_observer(Some(bus.clone() as SharedObserver));
    // Three quarters of the slots at L = 5 (Z = 4): dense enough that an
    // eviction cannot always re-place every block it pulls, which is
    // where a forgotten site update shows.
    let domain = 6u64 << cfg.levels;
    let mut reference: HashMap<BlockAddr, u64> = HashMap::new();
    let mut served = Vec::new();
    let mut x = 0x5EED_FA11u64;
    for step in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = BlockAddr::new(x % domain);
        let result = match x % 8 {
            0 => ctl.dummy_access(),
            1 | 2 => {
                reference.insert(addr, step);
                ctl.access(Request::write(addr, step))
            }
            _ => {
                let r = ctl.access(Request::read(addr));
                let want = reference.get(&addr).copied().unwrap_or(0);
                assert_eq!(r.value, want, "{label}: step {step} read {addr}");
                r
            }
        };
        served.push(result);
        if let Err(e) = ctl.check_invariants() {
            panic!("{label}: step {step}: {e}");
        }
    }
    ctl.set_observer(None);
    let events = bus.lock().unwrap().clone();
    (served, ctl.stats(), events)
}

/// The value reference over the axes the protocol spells as parameters:
/// the position map's two index kinds and its recursive chain, and every
/// policy, pure RD-Dup and pure HD-Dup included, at two depths. Beyond
/// right values and invariants it pins the identities those spellings
/// rest on: a partitioning level anywhere above the leaves is pure
/// HD-Dup, and the hashed index is the dense one.
#[test]
fn value_reference_over_policies_and_posmaps() {
    for levels in [5u32, 8] {
        let policies = [
            DupPolicy::Off,
            DupPolicy::RdOnly,
            DupPolicy::HdOnly,
            DupPolicy::Static { partition_level: 3 },
            DupPolicy::Static { partition_level: levels + 1 },
            DupPolicy::Static { partition_level: levels + 4 },
            DupPolicy::Dynamic { counter_bits: 3 },
        ];
        let posmaps =
            [PosMapSelect::Flat, PosMapSelect::Sparse, PosMapSelect::Recursive { onchip_kb: 1 }];
        let mut runs: Vec<Vec<RunRecord>> = Vec::new();
        for posmap in posmaps {
            let mut cfg = OramConfig::small_test().with_levels(levels).with_posmap(posmap);
            // One address per PLB page, so that 1 KB leaves a chain.
            cfg.plb_entries = 8;
            cfg.plb_page_addrs = 1;
            runs.push(
                policies
                    .iter()
                    .map(|&p| value_reference_run(cfg.with_dup_policy(p), 600))
                    .collect(),
            );
        }
        for (posmap, by_policy) in posmaps.iter().zip(&runs) {
            for i in [4, 5] {
                assert!(
                    by_policy[i] == by_policy[2],
                    "{posmap:?} L={levels}: {:?} differs from HdOnly",
                    policies[i]
                );
            }
        }
        for (i, policy) in policies.iter().enumerate() {
            assert!(
                runs[1][i] == runs[0][i],
                "L={levels} {policy:?}: the hashed index differs from the dense one"
            );
        }
    }
}
