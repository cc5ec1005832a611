//! The slot arena against the store it replaced.
//!
//! [`OramTree`] keeps every slot of a tree in one allocation of packed
//! words, dense or (past 2^21 buckets) sparse. Before that the tree was a
//! `Vec<Bucket>`, one heap `Vec<Block>` per bucket. That store is kept
//! here, outside the library, as the reference: seeded random write/read
//! sequences drive both and require identical contents. A last test pins
//! whole controller runs at the benchmark's recursive shape (L = 18) to
//! counters captured before the change.

use std::collections::HashMap;

use oram_protocol::{
    Block, BlockAddr, BlockKind, BucketId, DupPolicy, LeafLabel, OramConfig, OramController,
    OramTree, PosMapSelect, Request, TreeShape,
};
use oram_util::Rng64;

/// One bucket of the reference store: its own `Vec` of `Z` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bucket {
    slots: Vec<Block>,
}

impl Bucket {
    fn empty(z: usize) -> Self {
        Bucket {
            slots: vec![Block::DUMMY; z],
        }
    }
}

/// The reference tree: buckets materialized on first write, absent ones
/// reading as all-dummy (what both of the old store's variants did).
struct BucketTree {
    z: usize,
    buckets: HashMap<u64, Bucket>,
}

impl BucketTree {
    fn bucket(&self, id: BucketId) -> Bucket {
        self.buckets
            .get(&id.raw())
            .cloned()
            .unwrap_or_else(|| Bucket::empty(self.z))
    }

    fn bucket_mut(&mut self, id: BucketId) -> &mut Bucket {
        let z = self.z;
        self.buckets
            .entry(id.raw())
            .or_insert_with(|| Bucket::empty(z))
    }

    fn count(&self, kind: BlockKind) -> usize {
        self.buckets
            .values()
            .flat_map(|b| &b.slots)
            .filter(|b| b.kind == kind)
            .count()
    }
}

/// A block with every field drawn from the corners as often as from the
/// middle: labels at `2^L − 1`, `u64::MAX` data, version and address.
fn random_block(rng: &mut Rng64, shape: &TreeShape) -> Block {
    let word = |rng: &mut Rng64| match rng.below(4) {
        0 => 0,
        1 => u64::MAX,
        _ => rng.below(u64::MAX),
    };
    let label = match rng.below(3) {
        0 => shape.leaf_count() - 1,
        _ => rng.below(shape.leaf_count()),
    };
    let real = Block::real(
        BlockAddr::new(word(rng)),
        LeafLabel::new(label),
        word(rng),
        word(rng),
    );
    match rng.below(4) {
        // A dummy written over whatever was there, canonical or carrying
        // stray fields: either way the slot must read back `Block::DUMMY`.
        0 => Block::DUMMY,
        1 => Block {
            kind: BlockKind::Dummy,
            ..real
        },
        2 => real.to_shadow(),
        _ => real,
    }
}

fn drive_against_reference(levels: u32, z: usize, steps: u64) {
    let shape = TreeShape::new(levels, z);
    let mut rng = Rng64::seed_from_u64(0x7EE ^ u64::from(levels) << 8 ^ z as u64);
    let mut arena = OramTree::new(shape);
    let mut reference = BucketTree {
        z,
        buckets: HashMap::new(),
    };
    // A small pool of buckets so slots are overwritten many times, plus
    // the root, the last leaf and fresh random buckets.
    let pool: Vec<u64> = (0..24)
        .map(|_| 1 + rng.below(shape.bucket_count()))
        .collect();
    let mut scratch = vec![Block::DUMMY; z];
    for step in 0..steps {
        let raw = match rng.below(8) {
            0 => 1,
            1 => shape.bucket_count(),
            2 => 1 + rng.below(shape.bucket_count()),
            _ => pool[rng.below(pool.len() as u64) as usize],
        };
        let (id, slot) = (BucketId::new(raw), rng.below(z as u64) as usize);
        if rng.below(3) != 0 {
            let blk = random_block(&mut rng, &shape);
            arena.set_slot(id, slot, blk);
            reference.bucket_mut(id).slots[slot] = if blk.is_dummy() { Block::DUMMY } else { blk };
        }
        let want = reference.bucket(id);
        assert_eq!(
            arena.slot(id, slot),
            want.slots[slot],
            "L={levels} Z={z} step {step}"
        );
        arena.read_bucket(id, &mut scratch);
        assert_eq!(
            scratch, want.slots,
            "L={levels} Z={z} step {step} bucket {raw}"
        );
    }
    assert_eq!(
        arena.real_block_count(),
        reference.count(BlockKind::Real),
        "L={levels} Z={z}"
    );
    assert_eq!(
        arena.shadow_block_count(),
        reference.count(BlockKind::Shadow),
        "L={levels} Z={z}"
    );
    // Every bucket the run wrote, re-read at the end.
    for &raw in reference.buckets.keys() {
        arena.read_bucket(BucketId::new(raw), &mut scratch);
        assert_eq!(
            scratch, reference.buckets[&raw].slots,
            "L={levels} Z={z} bucket {raw}"
        );
    }
}

#[test]
fn dense_arena_matches_the_bucket_vec_store() {
    for levels in [3u32, 10, 14] {
        for z in [1usize, 4, 5] {
            drive_against_reference(levels, z, 6_000);
        }
    }
}

#[test]
fn sparse_arena_matches_the_bucket_vec_store() {
    for levels in [22u32, 30] {
        for z in [1usize, 4, 5] {
            drive_against_reference(levels, z, 6_000);
        }
    }
}

#[test]
fn every_slot_of_a_small_dense_tree_is_its_own() {
    // Writing one slot changes that slot and no neighbour: the index
    // arithmetic `(raw − 1) · Z + i` neither overlaps nor skips.
    let shape = TreeShape::new(3, 4);
    let mut tree = OramTree::new(shape);
    let tag = |raw: u64, slot: usize| {
        Block::real(
            BlockAddr::new(raw * 10 + slot as u64),
            LeafLabel::new(raw % 8),
            raw,
            slot as u64,
        )
    };
    for raw in 1..=shape.bucket_count() {
        for slot in 0..4 {
            assert_eq!(tree.slot(BucketId::new(raw), slot), Block::DUMMY);
            tree.set_slot(BucketId::new(raw), slot, tag(raw, slot));
        }
    }
    for raw in 1..=shape.bucket_count() {
        for slot in 0..4 {
            assert_eq!(tree.slot(BucketId::new(raw), slot), tag(raw, slot));
        }
    }
    assert_eq!(tree.real_block_count(), shape.slot_count() as usize);
}

/// 20 000 mixed accesses at the shape `serve_recursive` runs: L = 18, a
/// recursive position map over a 1 KiB on-chip budget, the whole 2^18
/// domain prefilled; half the requests to a hot set, a fifth writes, two
/// fifths dummies.
fn recursive_l18_run(policy: DupPolicy) -> String {
    let mut cfg = OramConfig::paper_table1()
        .with_levels(18)
        .with_dup_policy(policy)
        .with_posmap(PosMapSelect::Recursive { onchip_kb: 1 });
    cfg.stash_capacity = 200;
    let mut ctl = OramController::new(cfg).unwrap();
    const DOMAIN: u64 = 1 << 18;
    ctl.prefill((0..DOMAIN).map(|a| (BlockAddr::new(a), a)));
    let mut rng = Rng64::seed_from_u64(0x18_4EC);
    for step in 0..20_000u64 {
        let addr = BlockAddr::new(if rng.gen_bool(0.5) {
            rng.below(96)
        } else {
            rng.below(DOMAIN)
        });
        match rng.below(10) {
            0..=3 => ctl.dummy_access(),
            4 | 5 => ctl.access(Request::write(addr, step)),
            _ => ctl.access(Request::read(addr)),
        };
    }
    let (reads, writes) = ctl.level_touches();
    format!(
        "{:?}\n{:?}\n{:?}\nreads {reads:?}\nwrites {writes:?}\ninvariants {:?}\ntree real {} shadow {}",
        ctl.stats(),
        ctl.stash_stats(),
        ctl.plb_stats(),
        ctl.check_invariants(),
        ctl.tree().real_block_count(),
        ctl.tree().shadow_block_count(),
    )
}

/// Counters of [`recursive_l18_run`] captured at the commit before the
/// arena replaced `Vec<Bucket>` (6d2b06f).
#[test]
fn recursive_l18_counters_match_the_bucket_vec_controller() {
    assert_eq!(recursive_l18_run(DupPolicy::Off), PIN_L18_TINY, "tiny");
    assert_eq!(
        recursive_l18_run(DupPolicy::Dynamic { counter_bits: 3 }),
        PIN_L18_DYNAMIC3,
        "dynamic3"
    );
}

const PIN_L18_TINY: &str = "\
OramStats { real_requests: 11987, dummy_requests: 8013, stash_served: 34, replaceable_stash_served: 0, shadow_stash_served: 0, treetop_served: 0, shadow_advanced: 0, dram_served: 11953, fresh_served: 0, served_position_sum: 738131, real_position_sum: 0, ro_path_reads: 19966, evictions: 4991, rd_shadows_written: 0, hd_shadows_written: 0, real_blocks_written: 65159, dummy_blocks_written: 408986, stale_discarded: 20572, stash_shadow_candidates: 0, recirculated_shadows: 0 }
StashStats { hits: 34, misses: 11953, replaceable_hits: 0, overflows: 0, shadows_dropped: 0, max_live: 31, max_occupied: 200 }
PlbStats { hits: 252016, misses: 22081, evictions: 23878 }
reads [24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957, 24957]
writes [4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991, 4991]
invariants Ok(())
tree real 268404 shadow 0";
const PIN_L18_DYNAMIC3: &str = "\
OramStats { real_requests: 11987, dummy_requests: 8013, stash_served: 424, replaceable_stash_served: 394, shadow_stash_served: 394, treetop_served: 0, shadow_advanced: 3608, dram_served: 11563, fresh_served: 0, served_position_sum: 682216, real_position_sum: 134038, ro_path_reads: 19576, evictions: 4894, rd_shadows_written: 38165, hd_shadows_written: 196590, real_blocks_written: 64141, dummy_blocks_written: 166034, stale_discarded: 50313, stash_shadow_candidates: 899657, recirculated_shadows: 43047 }
StashStats { hits: 424, misses: 11563, replaceable_hits: 394, overflows: 0, shadows_dropped: 0, max_live: 28, max_occupied: 200 }
PlbStats { hits: 251628, misses: 22079, evictions: 23876 }
reads [24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470, 24470]
writes [4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894, 4894]
invariants Ok(())
tree real 268357 shadow 43426";
