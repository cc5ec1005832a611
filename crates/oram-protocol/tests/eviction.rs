//! The eviction write half against its references.
//!
//! The library sorts the stash once per eviction ([`Stash::plan_eviction`])
//! and serves duplication picks from bitsets and a heap of the hottest
//! candidates ([`DupQueues`]); victim selection reads two bitsets. Before
//! that, each of the three was a linear scan repeated per slot. Those scans
//! are kept here, outside the library, as the reference: seeded random
//! cases drive both and require identical picks slot by slot, tie-breaks
//! included. A last test pins the counters of whole controller runs to
//! values captured before the change.

use oram_protocol::{
    scheme_for_slot, Block, BlockAddr, DupCandidate, DupPolicy, DupQueues, HotAddressCache,
    InsertOutcome, LeafLabel, OramConfig, OramController, Request, SlotScheme, Stash, TreeShape,
};
use oram_util::Rng64;

const CASES: u64 = 400;

/// The per-slot stash scan: among live real blocks whose path reaches
/// `slot_level`, the one joined with the eviction path deepest; the first
/// in slot order among equals.
fn reference_select_for_eviction(
    stash: &Stash,
    shape: &TreeShape,
    eviction_leaf: LeafLabel,
    slot_level: u32,
) -> Option<BlockAddr> {
    let mut best: Option<(u32, BlockAddr)> = None;
    for entry in stash.entries() {
        if entry.replaceable || !entry.block.is_real() {
            continue;
        }
        let cl = shape.common_level(eviction_leaf, entry.block.label);
        if cl >= slot_level {
            match best {
                Some((b, _)) if b >= cl => {}
                _ => best = Some((cl, entry.block.addr)),
            }
        }
    }
    best.map(|(_, a)| a)
}

/// The per-insert victim scan: the first evicted-real entry in slot
/// order, else the first shadow.
fn reference_victim(stash: &Stash) -> Option<BlockAddr> {
    let first = |real: bool| {
        stash.entries().find(|e| e.replaceable && e.block.is_real() == real).map(|e| e.block.addr)
    };
    first(true).or_else(|| first(false))
}

/// The per-pick pool scan: eligibility and key recomputed for every
/// candidate on every pick, `max_by_key` keeping the last maximum,
/// `swap_remove` in pop mode.
struct ReferenceQueues {
    candidates: Vec<DupCandidate>,
}

impl ReferenceQueues {
    fn select(
        &mut self,
        shape: &TreeShape,
        eviction_leaf: LeafLabel,
        hot: &HotAddressCache,
        scheme: SlotScheme,
        slot_level: u32,
        chain: bool,
    ) -> Option<DupCandidate> {
        let eligible = self
            .candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.eligible_at(shape, eviction_leaf, slot_level));
        let idx = match scheme {
            SlotScheme::None => return None,
            SlotScheme::Rd => eligible.max_by_key(|(_, c)| c.real_level)?.0,
            SlotScheme::Hd => eligible.max_by_key(|(_, c)| hot.priority(c.addr))?.0,
        };
        let picked = self.candidates[idx];
        if chain {
            self.candidates[idx].real_level = slot_level;
        } else {
            self.candidates.swap_remove(idx);
        }
        Some(picked)
    }
}

/// A label whose path shares at least `level` levels with `leaf`'s, and
/// usually not many more.
fn label_joined_to(rng: &mut Rng64, shape: &TreeShape, leaf: LeafLabel, level: u32) -> LeafLabel {
    let free_bits = shape.levels() - level;
    let mask = (1u64 << free_bits) - 1;
    LeafLabel::new((leaf.raw() & !mask) | (rng.next_u64() & mask))
}

#[test]
fn queues_pick_what_the_pool_scan_picks() {
    let mut rng = Rng64::seed_from_u64(0xD0_01);
    let (mut rd_picks, mut hd_picks, mut ties_seen) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let levels = rng.range_inclusive(2, 14) as u32;
        let z = rng.range_inclusive(1, 5) as usize;
        let shape = TreeShape::new(levels, z);
        let leaf = LeafLabel::new(rng.below(shape.leaf_count()));
        // RD-only, HD-only, or a partition anywhere in between; a dynamic
        // policy is a static one for the length of a path write.
        let (policy, partition_level) = match case % 4 {
            0 => (DupPolicy::RdOnly, 0),
            1 => (DupPolicy::HdOnly, levels + 1),
            2 => {
                let p = rng.below(levels as u64 + 2) as u32;
                (DupPolicy::Static { partition_level: p }, p)
            }
            _ => (DupPolicy::Dynamic { counter_bits: 3 }, rng.below(levels as u64 + 2) as u32),
        };
        let chain = rng.gen_bool(0.5);
        // Few addresses and few distinct counters: equal keys are common.
        let addr_domain = rng.range_inclusive(4, 60);
        let mut hot = HotAddressCache::new(4, 2);
        for _ in 0..rng.below(80) {
            hot.observe(BlockAddr::new(rng.below(addr_domain)));
        }

        let mut reference = ReferenceQueues { candidates: Vec::new() };
        let mut queues = DupQueues::new(shape, 8); // small on purpose: growth is allowed
        queues.begin(leaf, chain, partition_level);
        let push = |reference: &mut ReferenceQueues, queues: &mut DupQueues, c: DupCandidate| {
            reference.candidates.push(c);
            queues.push(c, hot.priority(c.addr));
        };

        // A recirculated stash shadow: any label, any real level (level 0
        // is never eligible but still takes a place in the pool order).
        let recirculated = |rng: &mut Rng64| {
            let joined = rng.below(levels as u64 + 1) as u32;
            DupCandidate {
                addr: BlockAddr::new(rng.below(addr_domain)),
                label: label_joined_to(rng, &shape, leaf, joined),
                data: rng.next_u64(),
                version: rng.below(3),
                real_level: rng.below(levels as u64 + 1) as u32,
                recirculated: true,
            }
        };
        // Small stashes, and stashes full of shadows (150–250, as many as
        // a 200-slot stash of them offers).
        let supply = if rng.gen_bool(0.5) { rng.below(40) } else { rng.range_inclusive(150, 250) };
        for _ in 0..supply {
            let c = recirculated(&mut rng);
            push(&mut reference, &mut queues, c);
        }

        let real_share = rng.next_f64() * 0.7;
        for level in (0..=levels).rev() {
            let scheme = scheme_for_slot(policy, partition_level, level);
            for _ in 0..z {
                if rng.gen_bool(0.05) {
                    // The controller never does this, but the pool takes a
                    // candidate at any time — one already eligible too.
                    let c = recirculated(&mut rng);
                    push(&mut reference, &mut queues, c);
                }
                if rng.gen_bool(real_share) {
                    // A real block written here: a fresh candidate.
                    let blk = Block::real(
                        BlockAddr::new(rng.below(addr_domain)),
                        label_joined_to(&mut rng, &shape, leaf, level),
                        rng.next_u64(),
                        rng.below(3),
                    );
                    push(&mut reference, &mut queues, DupCandidate::from_block(&blk, level, false));
                    continue;
                }
                // Whether pool order decides this pick: two eligible
                // candidates share the highest key.
                let keys =
                    reference.candidates.iter().filter(|c| c.eligible_at(&shape, leaf, level)).map(
                        |c| match scheme {
                            SlotScheme::Rd => c.real_level as u64,
                            _ => hot.priority(c.addr),
                        },
                    );
                let top = keys.clone().max();
                let tied = keys.filter(|&k| Some(k) == top).count() > 1;

                let want = reference.select(&shape, leaf, &hot, scheme, level, chain);
                let got = queues.select(level);
                assert_eq!(got, want, "case {case} level {level} {scheme:?} chain={chain}");
                assert_eq!(queues.len(), reference.candidates.len(), "case {case}");
                match (want, scheme) {
                    (None, _) => {}
                    (Some(_), SlotScheme::Rd) => rd_picks += 1,
                    (Some(_), _) => hd_picks += 1,
                }
                ties_seen += (want.is_some() && tied) as u64;
            }
        }
    }
    // The cases must have exercised what they are there for.
    assert!(rd_picks > 1000 && hd_picks > 1000, "rd {rd_picks} hd {hd_picks}");
    assert!(ties_seen > 500, "only {ties_seen} picks decided by pool order");
}

#[test]
fn plan_drains_what_the_stash_scan_selects() {
    let mut rng = Rng64::seed_from_u64(0xD0_02);
    let mut written = 0u64;
    for case in 0..CASES {
        let levels = rng.range_inclusive(2, 14) as u32;
        let z = rng.range_inclusive(1, 5) as usize;
        let shape = TreeShape::new(levels, z);
        let leaf = LeafLabel::new(rng.below(shape.leaf_count()));
        let capacity = rng.range_inclusive(8, 200) as usize;
        let mut stash = Stash::new(capacity);
        // Live, evicted and shadow entries in random slot order; labels
        // drawn near the eviction path so common levels repeat.
        for addr in 0..rng.below(capacity as u64 + 1) {
            let joined = rng.below(levels as u64 + 1) as u32;
            let blk = Block::real(
                BlockAddr::new(addr),
                label_joined_to(&mut rng, &shape, leaf, joined),
                addr,
                1,
            );
            match rng.below(4) {
                0 => {
                    stash.insert_shadow(blk.to_shadow(), joined);
                }
                1 => {
                    stash.insert(blk);
                    stash.mark_evicted(blk.addr);
                }
                _ => {
                    stash.insert(blk);
                }
            }
            if rng.gen_bool(0.1) {
                stash.remove(BlockAddr::new(rng.below(addr + 1)));
            }
        }

        let mut reference = stash.clone();
        stash.plan_eviction(&shape, leaf);
        for level in (0..=levels).rev() {
            for slot in 0..z {
                let want = reference_select_for_eviction(&reference, &shape, leaf, level)
                    .map(|addr| reference.mark_evicted(addr));
                let got = stash.pop_planned(level);
                assert_eq!(got, want, "case {case} level {level} slot {slot}");
                written += got.is_some() as u64;
            }
        }
        assert!(stash.entries().eq(reference.entries()), "case {case}: stashes diverged");
        assert_eq!(stash.live(), reference.live());
    }
    assert!(written > 5000, "only {written} blocks written back");
}

#[test]
fn victim_sets_agree_with_the_slot_scan() {
    let mut rng = Rng64::seed_from_u64(0xD0_03);
    let (mut replaced, mut refused) = (0u64, 0u64);
    for _ in 0..40 {
        // Capacities on both sides of a bitset word boundary.
        let capacity = rng.range_inclusive(3, 140) as usize;
        let mut stash = Stash::new(capacity);
        let domain = capacity as u64 * 2;
        for step in 0..3000u64 {
            let addr = BlockAddr::new(rng.below(domain));
            let blk = Block::real(addr, LeafLabel::new(rng.below(64)), step, rng.below(4));
            match rng.below(10) {
                0..=4 => {
                    let blk = if rng.gen_bool(0.4) { blk.to_shadow() } else { blk };
                    let displaces = stash.peek(addr).is_none() && stash.occupied() == capacity;
                    let want = reference_victim(&stash);
                    let outcome = if blk.is_shadow() {
                        stash.insert_shadow(blk, 1)
                    } else {
                        stash.insert(blk)
                    };
                    if displaces {
                        match want {
                            Some(victim) => {
                                assert_eq!(outcome, InsertOutcome::ReplacedVictim(victim));
                                replaced += 1;
                            }
                            None => {
                                assert!(matches!(
                                    outcome,
                                    InsertOutcome::ShadowDropped | InsertOutcome::Overflow
                                ));
                                refused += 1;
                            }
                        }
                    }
                }
                5 | 6 => {
                    if stash.serving(addr).is_some_and(|e| !e.replaceable) {
                        stash.mark_evicted(addr);
                    }
                }
                7 => {
                    stash.write(addr, step, 5);
                }
                8 => {
                    stash.ensure_live(addr);
                }
                _ => {
                    stash.remove(addr);
                }
            }
        }
    }
    assert!(replaced > 2000 && refused > 100, "replaced {replaced} refused {refused}");
}

/// 20 000 mixed accesses at the `fig17` geometry: a prefilled working
/// set, half the requests to a hot set, a fifth writes, and two fifths
/// dummies — enough long gaps that a dynamic partition spends time on both
/// sides and path writes cross it.
fn fig17_geometry_run(policy: DupPolicy, chain: bool) -> String {
    let mut cfg = OramConfig::paper_table1().with_levels(14).with_dup_policy(policy);
    cfg.stash_capacity = 200;
    cfg.chain_duplication = chain;
    let mut ctl = OramController::new(cfg).unwrap();
    const WORKING_SET: u64 = 40_000;
    ctl.prefill((0..WORKING_SET).map(|a| (BlockAddr::new(a), a)));
    let mut rng = Rng64::seed_from_u64(0xF1_617);
    for step in 0..20_000u64 {
        let addr =
            BlockAddr::new(if rng.gen_bool(0.5) { rng.below(96) } else { rng.below(WORKING_SET) });
        match rng.below(10) {
            0..=3 => ctl.dummy_access(),
            4 | 5 => ctl.access(Request::write(addr, step)),
            _ => ctl.access(Request::read(addr)),
        };
    }
    ctl.check_invariants().expect("invariants hold after the run");
    let (reads, writes) = ctl.level_touches();
    format!("{:?}\n{:?}\nreads {reads:?}\nwrites {writes:?}", ctl.stats(), ctl.stash_stats())
}

/// Counters of [`fig17_geometry_run`] captured at the commit before the
/// plan and the heap replaced the scans (3fcd2b7).
const PINNED: [(&str, DupPolicy, bool, &str); 5] = [
    ("tiny", DupPolicy::Off, true, PIN_TINY),
    ("rd_dup", DupPolicy::RdOnly, true, PIN_RD_DUP),
    ("hd_dup", DupPolicy::HdOnly, true, PIN_HD_DUP),
    ("dynamic3", DupPolicy::Dynamic { counter_bits: 3 }, true, PIN_DYNAMIC3),
    ("dynamic3_no_chain", DupPolicy::Dynamic { counter_bits: 3 }, false, PIN_DYNAMIC3_NO_CHAIN),
];

#[test]
fn controller_counters_match_the_linear_scan_controller() {
    for (name, policy, chain, pinned) in PINNED {
        assert_eq!(fig17_geometry_run(policy, chain), pinned, "{name}");
    }
}

const PIN_TINY: &str = "\
OramStats { real_requests: 12073, dummy_requests: 7927, stash_served: 31, replaceable_stash_served: 0, shadow_stash_served: 0, treetop_served: 0, shadow_advanced: 0, dram_served: 12042, fresh_served: 0, served_position_sum: 618615, real_position_sum: 0, ro_path_reads: 19969, evictions: 4992, rd_shadows_written: 0, hd_shadows_written: 0, real_blocks_written: 71854, dummy_blocks_written: 302546, stale_discarded: 25598, stash_shadow_candidates: 0, recirculated_shadows: 0 }
StashStats { hits: 31, misses: 12042, replaceable_hits: 0, overflows: 0, shadows_dropped: 0, max_live: 30, max_occupied: 200 }
reads [24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961, 24961]
writes [4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992, 4992]";
const PIN_RD_DUP: &str = "\
OramStats { real_requests: 12073, dummy_requests: 7927, stash_served: 136, replaceable_stash_served: 106, shadow_stash_served: 106, treetop_served: 0, shadow_advanced: 2711, dram_served: 11937, fresh_served: 0, served_position_sum: 581542, real_position_sum: 145014, ro_path_reads: 19864, evictions: 4966, rd_shadows_written: 242825, hd_shadows_written: 0, real_blocks_written: 71380, dummy_blocks_written: 58245, stale_discarded: 41804, stash_shadow_candidates: 909431, recirculated_shadows: 124409 }
StashStats { hits: 136, misses: 11937, replaceable_hits: 106, overflows: 0, shadows_dropped: 0, max_live: 29, max_occupied: 200 }
reads [24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830, 24830]
writes [4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966, 4966]";
const PIN_HD_DUP: &str = "\
OramStats { real_requests: 12073, dummy_requests: 7927, stash_served: 431, replaceable_stash_served: 402, shadow_stash_served: 402, treetop_served: 0, shadow_advanced: 4736, dram_served: 11642, fresh_served: 0, served_position_sum: 548359, real_position_sum: 202471, ro_path_reads: 19569, evictions: 4892, rd_shadows_written: 0, hd_shadows_written: 238933, real_blocks_written: 70822, dummy_blocks_written: 57145, stale_discarded: 61708, stash_shadow_candidates: 895645, recirculated_shadows: 20829 }
StashStats { hits: 431, misses: 11642, replaceable_hits: 402, overflows: 0, shadows_dropped: 0, max_live: 28, max_occupied: 200 }
reads [24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461, 24461]
writes [4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892, 4892]";
const PIN_DYNAMIC3: &str = "\
OramStats { real_requests: 12073, dummy_requests: 7927, stash_served: 424, replaceable_stash_served: 394, shadow_stash_served: 394, treetop_served: 0, shadow_advanced: 4509, dram_served: 11649, fresh_served: 0, served_position_sum: 550738, real_position_sum: 197601, ro_path_reads: 19576, evictions: 4894, rd_shadows_written: 39574, hd_shadows_written: 199710, real_blocks_written: 70641, dummy_blocks_written: 57125, stale_discarded: 60110, stash_shadow_candidates: 896187, recirculated_shadows: 34193 }
StashStats { hits: 424, misses: 11649, replaceable_hits: 394, overflows: 0, shadows_dropped: 0, max_live: 30, max_occupied: 200 }
reads [24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470]
writes [4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894]";
const PIN_DYNAMIC3_NO_CHAIN: &str = "\
OramStats { real_requests: 12073, dummy_requests: 7927, stash_served: 722, replaceable_stash_served: 689, shadow_stash_served: 689, treetop_served: 0, shadow_advanced: 4627, dram_served: 11351, fresh_served: 0, served_position_sum: 576223, real_position_sum: 201196, ro_path_reads: 19278, evictions: 4819, rd_shadows_written: 21171, hd_shadows_written: 126039, real_blocks_written: 69888, dummy_blocks_written: 144327, stale_discarded: 39066, stash_shadow_candidates: 873559, recirculated_shadows: 92694 }
StashStats { hits: 722, misses: 11351, replaceable_hits: 689, overflows: 0, shadows_dropped: 0, max_live: 30, max_occupied: 200 }
reads [24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097, 24097]
writes [4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819, 4819]";
