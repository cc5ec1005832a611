//! The slot arena against the store it replaced.
//!
//! [`OramTree`] keeps the occupied buckets of a tree packed in one arena
//! of words, found through a grouped index (a directory of one word per
//! 16 bucket ids over a pool of 16-entry groups) or (past 2^21 buckets) a
//! hash index. Before that the tree was a `Vec<Bucket>`, one heap
//! `Vec<Block>` per bucket. That store is kept here, outside the library,
//! as the reference: seeded random write/read sequences drive both and
//! require identical contents — the "dense" cases through the grouped
//! index, the "sparse" ones through the hash index (prefill's `place`
//! included). Whole controller runs are pinned to digests and counters
//! captured before the change, and the arena's and the index's sizes are
//! pinned to occupancy as counts.

use std::collections::{HashMap, HashSet};

use oram_protocol::{
    Block, BlockAddr, BlockKind, BucketId, DupPolicy, LeafLabel, OramConfig, OramController,
    OramTree, PhaseKind, PosMapSelect, Request, TreeShape,
};
use oram_util::Rng64;
use oram_workloads::ZipfianSampler;

/// One bucket of the reference store: its own `Vec` of `Z` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bucket {
    slots: Vec<Block>,
}

impl Bucket {
    fn empty(z: usize) -> Self {
        Bucket { slots: vec![Block::DUMMY; z] }
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
        self.buckets.get(&id.raw()).cloned().unwrap_or_else(|| Bucket::empty(self.z))
    }

    fn bucket_mut(&mut self, id: BucketId) -> &mut Bucket {
        let z = self.z;
        self.buckets.entry(id.raw()).or_insert_with(|| Bucket::empty(z))
    }

    fn count(&self, kind: BlockKind) -> usize {
        self.buckets.values().flat_map(|b| &b.slots).filter(|b| b.kind == kind).count()
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
    let real = Block::real(BlockAddr::new(word(rng)), LeafLabel::new(label), word(rng), word(rng));
    match rng.below(4) {
        // A dummy written over whatever was there, canonical or carrying
        // stray fields: either way the slot must read back `Block::DUMMY`.
        0 => Block::DUMMY,
        1 => Block { kind: BlockKind::Dummy, ..real },
        2 => real.to_shadow(),
        _ => real,
    }
}

/// What a slot reads back after `blk` was stored in it.
fn canonical(blk: Block) -> Block {
    if blk.is_dummy() {
        Block::DUMMY
    } else {
        blk
    }
}

/// What the reference says [`OramTree::is_occupied`] must answer.
fn holds_a_block(bucket: &Bucket) -> bool {
    bucket.slots.iter().any(|b| !b.is_dummy())
}

fn drive_against_reference(levels: u32, z: usize, steps: u64) {
    let shape = TreeShape::new(levels, z);
    let mut rng = Rng64::seed_from_u64(0x7EE ^ u64::from(levels) << 8 ^ z as u64);
    let mut arena = OramTree::new(shape);
    let mut reference = BucketTree { z, buckets: HashMap::new() };
    // A small pool of buckets so slots are overwritten many times, plus
    // the root, the last leaf and fresh random buckets.
    let pool: Vec<u64> = (0..24).map(|_| 1 + rng.below(shape.bucket_count())).collect();
    let mut scratch = vec![Block::DUMMY; z];
    // `write_bucket` calls seen, by case: all-dummy onto a vacant bucket,
    // all-dummy onto an occupied one, mixed, full.
    let mut bucket_writes = [0u64; 4];
    let mut emptied_slot_by_slot = 0u64;
    // Most buckets occupied at once: a step fills at most one bucket, so
    // sampling after each step sees every peak.
    let mut high_water = 0;
    for step in 0..steps {
        let raw = match rng.below(8) {
            0 => 1,
            1 => shape.bucket_count(),
            2 => 1 + rng.below(shape.bucket_count()),
            _ => pool[rng.below(pool.len() as u64) as usize],
        };
        let (id, slot) = (BucketId::new(raw), rng.below(z as u64) as usize);
        match rng.below(8) {
            0..=2 => {
                let blk = random_block(&mut rng, &shape);
                arena.set_slot(id, slot, blk);
                reference.bucket_mut(id).slots[slot] = canonical(blk);
            }
            3 | 4 => {
                // A whole bucket at once, as the eviction write half does.
                let fill = match rng.below(3) {
                    0 => 0,
                    1 => z,
                    _ => rng.below(z as u64 + 1) as usize,
                };
                let blocks: Vec<Block> = (0..z)
                    .map(|i| loop {
                        let blk = random_block(&mut rng, &shape);
                        if blk.is_dummy() == (i >= fill) {
                            break blk;
                        }
                    })
                    .collect();
                let case = match fill {
                    0 if !arena.is_occupied(id) => 0,
                    0 => 1,
                    f if f < z => 2,
                    _ => 3,
                };
                bucket_writes[case] += 1;
                let words_before = arena.arena_words();
                arena.write_bucket(id, &blocks);
                if case == 0 {
                    assert_eq!(arena.arena_words(), words_before, "a vacant bucket stayed vacant");
                }
                reference.bucket_mut(id).slots = blocks.into_iter().map(canonical).collect();
            }
            5 => {
                // Dummies slot by slot: the bucket is vacant exactly when
                // the last block has gone.
                for i in 0..z {
                    arena.set_slot(id, i, Block::DUMMY);
                    reference.bucket_mut(id).slots[i] = Block::DUMMY;
                    assert_eq!(
                        arena.is_occupied(id),
                        holds_a_block(&reference.bucket(id)),
                        "L={levels} Z={z} step {step} bucket {raw} after slot {i}"
                    );
                }
                emptied_slot_by_slot += 1;
            }
            6 => {
                // Into the first dummy slot, as prefill places a block.
                let blk = loop {
                    let blk = random_block(&mut rng, &shape);
                    if !blk.is_dummy() {
                        break blk;
                    }
                };
                let first = reference.bucket(id).slots.iter().position(Block::is_dummy);
                assert_eq!(arena.place(id, blk), first, "L={levels} Z={z} step {step}");
                if let Some(i) = first {
                    reference.bucket_mut(id).slots[i] = blk;
                }
            }
            _ => {}
        }
        let want = reference.bucket(id);
        assert_eq!(arena.slot(id, slot), want.slots[slot], "L={levels} Z={z} step {step}");
        arena.read_bucket(id, &mut scratch);
        assert_eq!(scratch, want.slots, "L={levels} Z={z} step {step} bucket {raw}");
        assert_eq!(
            arena.is_occupied(id),
            holds_a_block(&want),
            "L={levels} Z={z} step {step} bucket {raw}"
        );
        let occupied = reference.buckets.values().filter(|b| holds_a_block(b)).count();
        assert_eq!(arena.occupied_buckets(), occupied, "L={levels} Z={z} step {step}");
        // The arena holds the buckets that were occupied at once, not
        // every bucket the run has written: vacated ranges are reused.
        high_water = high_water.max(occupied);
        assert_eq!(arena.arena_words(), z * high_water, "L={levels} Z={z} step {step}");
        // A group in use holds an occupied bucket, and freed groups are
        // taken before the pool grows.
        assert!(arena.index_groups() <= high_water, "L={levels} Z={z} step {step}");
        if step % 500 == 0 || levels <= 3 {
            arena.check_occupancy().unwrap_or_else(|e| panic!("L={levels} Z={z} step {step}: {e}"));
            assert_eq!(arena.real_block_count(), reference.count(BlockKind::Real));
            assert_eq!(arena.shadow_block_count(), reference.count(BlockKind::Shadow));
        }
    }
    // (A one-slot bucket has no mixed case.)
    let each_case =
        bucket_writes.iter().enumerate().all(|(case, &n)| n > 20 || (case == 2 && z == 1));
    assert!(
        each_case && emptied_slot_by_slot > 20,
        "L={levels} Z={z}: bucket writes by case {bucket_writes:?}, emptied {emptied_slot_by_slot}"
    );
    arena.check_occupancy().unwrap();
    assert_eq!(arena.real_block_count(), reference.count(BlockKind::Real), "L={levels} Z={z}");
    assert_eq!(arena.shadow_block_count(), reference.count(BlockKind::Shadow), "L={levels} Z={z}");
    // Every bucket the run wrote, re-read at the end.
    for &raw in reference.buckets.keys() {
        arena.read_bucket(BucketId::new(raw), &mut scratch);
        assert_eq!(scratch, reference.buckets[&raw].slots, "L={levels} Z={z} bucket {raw}");
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
    // Writing one slot changes that slot and no neighbour: the ranges the
    // index hands out neither overlap nor skip, up to the whole tree.
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
    assert_eq!(tree.arena_words(), shape.slot_count() as usize);
    tree.check_occupancy().unwrap();
}

/// FNV-1a over the `Debug` text of whatever a run produced.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, item: &dyn std::fmt::Debug) {
        for byte in format!("{item:?}|").bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One row of the controller table: 1 200 seeded reads, writes and
/// dummies (two fifths of them, so a dynamic partition moves) at L = 8 over a partly prefilled working set (the rest is
/// first touched inside the run), a 4-entry PLB of 4-address pages so a recursive
/// position map has a chain and keeps walking it. Returns the digest of everything the
/// accesses returned — value, `served`, phases, costed posmap phases —
/// and the digest of the state they left: `OramStats`, stash and PLB
/// counters, `level_touches`, and every slot of the tree.
fn controller_table_run(policy: DupPolicy, treetop: u32, recursive: bool) -> (u64, u64) {
    let mut cfg = OramConfig::small_test()
        .with_levels(8)
        .with_dup_policy(policy)
        .with_treetop(treetop)
        .with_seed(0x7AB1E);
    cfg.plb_entries = 4;
    cfg.plb_page_addrs = 4;
    if recursive {
        cfg = cfg.with_posmap(PosMapSelect::Recursive { onchip_kb: 1 });
    }
    let mut ctl = OramController::new(cfg).unwrap();
    ctl.prefill((0..200u64).map(|a| (BlockAddr::new(a), a ^ 0x5EED)));
    let mut rng = Rng64::seed_from_u64(0x7AB1E ^ u64::from(treetop));
    let mut returned = Digest::new();
    for step in 0..1_200u64 {
        let addr = BlockAddr::new(if rng.gen_bool(0.4) { rng.below(24) } else { rng.below(300) });
        let result = match rng.below(10) {
            0..=3 => ctl.dummy_access(),
            4 | 5 => ctl.access(Request::write(addr, step)),
            _ => ctl.access(Request::read(addr)),
        };
        returned.feed(&result);
        returned.feed(&ctl.posmap_pending());
        ctl.check_invariants().unwrap_or_else(|e| {
            panic!("{policy:?} treetop {treetop} recursive {recursive} step {step}: {e}")
        });
    }
    let mut state = Digest::new();
    state.feed(&ctl.stats());
    state.feed(&ctl.stash_stats());
    state.feed(&ctl.plb_stats());
    state.feed(&ctl.level_touches());
    let shape = ctl.shape();
    for raw in 1..=shape.bucket_count() {
        for slot in 0..shape.slots_per_bucket() {
            state.feed(&ctl.tree().slot(BucketId::new(raw), slot));
        }
    }
    (returned.0, state.0)
}

/// Digests of [`controller_table_run`] captured at the commit whose
/// access loops still read and wrote every bucket slot by slot through
/// `slot`/`set_slot` (364d07e): policy, treetop levels, recursive
/// position map, what the accesses returned, the state they left. The
/// state column was re-pinned when every remap began to bump the version:
/// tree slots carry version stamps, and the returned values did not move.
const CONTROLLER_TABLE: [(DupPolicy, u32, bool, u64, u64); 20] = [
    (DupPolicy::Off, 0, false, 0x39fff79bf1720395, 0x39b0817c01a4b79d),
    (DupPolicy::Off, 0, true, 0x3c98d4f9fd085a34, 0x39b0817c01a4b79d),
    (DupPolicy::Off, 3, false, 0x2f3bdabe25a2e511, 0x803d917d679fb3cc),
    (DupPolicy::Off, 3, true, 0xc6e67ba49a36f854, 0x803d917d679fb3cc),
    (DupPolicy::RdOnly, 0, false, 0x453cd5210702aabc, 0xf83a328b69d69dc7),
    (DupPolicy::RdOnly, 0, true, 0xf7e17acd54f31229, 0xf83a328b69d69dc7),
    (DupPolicy::RdOnly, 3, false, 0xd435f98a23fc9f37, 0xd2ca298f70e47733),
    (DupPolicy::RdOnly, 3, true, 0x3bc07d5366b5f30c, 0xd2ca298f70e47733),
    (DupPolicy::HdOnly, 0, false, 0x5e2cf1e0c36a9570, 0x6cbebc11ea5e5df3),
    (DupPolicy::HdOnly, 0, true, 0x6d3f1a914d5d4823, 0x6cbebc11ea5e5df3),
    (DupPolicy::HdOnly, 3, false, 0x263c25ecea123a85, 0xfd6ff2b0757d06ea),
    (DupPolicy::HdOnly, 3, true, 0xd0ece56a15223f5a, 0xfd6ff2b0757d06ea),
    (DupPolicy::Static { partition_level: 4 }, 0, false, 0xf993355c56c139c3, 0x7d7d4aab4f107f14),
    (DupPolicy::Static { partition_level: 4 }, 0, true, 0xac810ded31b8938f, 0x7d7d4aab4f107f14),
    (DupPolicy::Static { partition_level: 4 }, 3, false, 0xc137a09b36c4a3b7, 0x901756680e226dc1),
    (DupPolicy::Static { partition_level: 4 }, 3, true, 0x9f85e37ef92a6b5a, 0x901756680e226dc1),
    (DupPolicy::Dynamic { counter_bits: 3 }, 0, false, 0x6b1726efa0000ff4, 0x5863f11d6276ffd1),
    (DupPolicy::Dynamic { counter_bits: 3 }, 0, true, 0xbf0c549ef0888c20, 0x5863f11d6276ffd1),
    (DupPolicy::Dynamic { counter_bits: 3 }, 3, false, 0xc7224c9a5c56a8f1, 0x8803db66f528ee6d),
    (DupPolicy::Dynamic { counter_bits: 3 }, 3, true, 0xdd36d671250b9991, 0x8803db66f528ee6d),
];

/// Skipping vacant buckets and writing whole buckets changes nothing a
/// caller can see: under every policy, with and without a treetop, over
/// a flat and a recursive position map, each access returns what the
/// slot-by-slot controller returned and leaves the tree, the counters
/// and the per-level touches it left — with the store's occupancy
/// invariant checked after every access.
#[test]
fn vacancy_skipping_controller_matches_the_slot_by_slot_controller() {
    for (policy, treetop, recursive, returned, state) in CONTROLLER_TABLE {
        assert_eq!(
            controller_table_run(policy, treetop, recursive),
            (returned, state),
            "{policy:?} treetop {treetop} recursive {recursive}: (returned, state) digests"
        );
    }
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
        let addr =
            BlockAddr::new(if rng.gen_bool(0.5) { rng.below(96) } else { rng.below(DOMAIN) });
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

/// The buckets of the eviction write phases in `result`, added to `seen`:
/// the buckets an all-`set_slot` write half stored into, dummies or not.
fn note_rewritten(result: &oram_protocol::AccessResult, seen: &mut HashSet<u64>) {
    for phase in result.phases.iter().filter(|p| p.kind == PhaseKind::EvictionWrite) {
        seen.extend(phase.buckets().map(BucketId::raw));
    }
}

/// The memory claim as counts (peak RSS is the benchmark's to measure).
/// At the paper's depth the tree is sparse. When every slot of an
/// eviction was stored, dummies included, its arena took every bucket an
/// eviction had ever passed through and grew with the length of the run
/// (RSS ×3.2 from 50 k to 200 k accesses over 8192 blocks). Now it holds
/// the most buckets that were occupied at once; what still grows, slowly,
/// is the stale copies reads leave behind until an eviction comes by.
#[test]
fn sparse_arena_tracks_the_working_set_not_the_run_length() {
    const BLOCKS: u64 = 8192;
    let mut ctl = OramController::new(OramConfig::paper_table1()).unwrap();
    let z = ctl.shape().slots_per_bucket();
    ctl.prefill((0..BLOCKS).map(|a| (BlockAddr::new(a), a)));
    let mut rng = Rng64::seed_from_u64(0x24_5BA5E);
    let mut rewritten = HashSet::new();
    let (mut words_at_50k, mut rewritten_at_50k) = (0, 0);
    for step in 1..=200_000u64 {
        let result = ctl.access(Request::read(BlockAddr::new(rng.below(BLOCKS))));
        note_rewritten(&result, &mut rewritten);
        if step % 2_000 == 0 {
            let tree = ctl.tree();
            let blocks = tree.real_block_count() + tree.shadow_block_count();
            assert!(
                tree.occupied_buckets() <= blocks,
                "step {step}: {} buckets occupied by {blocks} blocks",
                tree.occupied_buckets()
            );
            assert!(tree.occupied_buckets() * z <= tree.arena_words(), "step {step}");
        }
        if step == 50_000 {
            (words_at_50k, rewritten_at_50k) = (ctl.tree().arena_words(), rewritten.len());
        }
    }
    let words = ctl.tree().arena_words();
    assert!(
        words * 2 < words_at_50k * 3,
        "four times the accesses grew the arena from {words_at_50k} to {words} words"
    );
    // What the arena would be had every rewritten bucket been stored.
    assert!(rewritten.len() > 3 * rewritten_at_50k, "{rewritten_at_50k} → {}", rewritten.len());
    assert!(
        words * 10 < rewritten.len() * z,
        "{words} words in the arena, {} buckets rewritten",
        rewritten.len()
    );
    ctl.tree().check_occupancy().unwrap();
}

/// `serve_recursive`'s data tree: 8192 blocks under 2^18 leaves, so from
/// level 13 down a path is almost all empty buckets — and they stay
/// vacant. The bit used to mean "written": every eviction set it on all
/// 19 buckets of its path for good, and every later read of such a
/// bucket decoded its words.
#[test]
fn deep_levels_of_a_dense_tree_stay_vacant() {
    const BLOCKS: u64 = 8192;
    let mut cfg = OramConfig::paper_table1().with_levels(18);
    cfg.stash_capacity = 200;
    let mut ctl = OramController::new(cfg).unwrap();
    ctl.prefill((0..BLOCKS).map(|a| (BlockAddr::new(a), a)));
    let mut zipf = ZipfianSampler::new(BLOCKS, 0.99, 0x18_D3E9);
    let mut rng = Rng64::seed_from_u64(0x18_D3E9);
    let mut rewritten = HashSet::new();
    for step in 0..12_000u64 {
        let addr = BlockAddr::new(zipf.sample());
        let result = if rng.gen_bool(0.3) {
            ctl.access(Request::write(addr, step))
        } else {
            ctl.access(Request::read(addr))
        };
        note_rewritten(&result, &mut rewritten);
    }
    for level in 13..=18u32 {
        let at_level = (1u64 << level)..(2u64 << level);
        let occupied =
            at_level.clone().filter(|&raw| ctl.tree().is_occupied(BucketId::new(raw))).count();
        assert!(
            occupied * 10 < at_level.clone().count(),
            "level {level}: {occupied} buckets occupied"
        );
    }
    // Not for want of evictions: a third of level 13 has been rewritten.
    let rewritten_at_13 = rewritten.iter().filter(|&&raw| BucketId::new(raw).level() == 13).count();
    assert!(rewritten_at_13 * 10 > 3 << 13, "{rewritten_at_13} level-13 buckets rewritten");
}

/// Memory follows occupancy, as counts, at `serve_recursive`'s shape
/// (L = 18, 8 192 blocks, recursive position map): the data tree's arena
/// is `Z ×` the buckets occupied once the prefill is done, and through
/// 20 000 mixed accesses `Z ×` the most occupied at once — where a
/// heap-order arena spans every bucket of the tree. "At once" can fall
/// inside an access, which these samples between accesses miss: the
/// eviction write half goes leaf first and may fill a deep bucket before
/// it empties a shallow one, so the bound allows one path on top. The
/// index holds at most one 16-entry group per bucket the arena holds,
/// where a flat table has one entry per bucket id.
#[test]
fn arena_follows_occupancy_at_the_serve_recursive_shape() {
    const BLOCKS: u64 = 8192;
    let mut cfg = OramConfig::paper_table1()
        .with_levels(18)
        .with_posmap(PosMapSelect::Recursive { onchip_kb: 1 });
    cfg.stash_capacity = 200;
    let mut ctl = OramController::new(cfg).unwrap();
    let z = ctl.shape().slots_per_bucket();
    let path = ctl.shape().levels() as usize + 1;
    ctl.prefill((0..BLOCKS).map(|a| (BlockAddr::new(a), a)));
    let mut high_water = ctl.tree().occupied_buckets();
    assert_eq!(ctl.tree().arena_words(), z * high_water, "a prefill only fills buckets");
    let mut zipf = ZipfianSampler::new(BLOCKS, 0.99, 0x5E7E);
    let mut rng = Rng64::seed_from_u64(0x5E7E);
    for step in 1..=20_000u64 {
        let addr = BlockAddr::new(zipf.sample());
        match rng.below(10) {
            0..=3 => ctl.dummy_access(),
            4 | 5 => ctl.access(Request::write(addr, step)),
            _ => ctl.access(Request::read(addr)),
        };
        let tree = ctl.tree();
        high_water = high_water.max(tree.occupied_buckets());
        assert!(
            tree.arena_words() <= z * (high_water + path),
            "step {step}: {} words, at most {high_water} buckets occupied between accesses",
            tree.arena_words()
        );
        assert!(
            tree.index_groups() * z <= tree.arena_words(),
            "step {step}: {} index groups for {} arena ranges",
            tree.index_groups(),
            tree.arena_words() / z
        );
        if step % 2_000 == 0 {
            // Indexed and free ranges tile the arena, so it is exactly
            // `Z ×` (indexed + free).
            tree.check_occupancy().unwrap_or_else(|e| panic!("step {step}: {e}"));
        }
    }
    let words = ctl.tree().arena_words();
    assert!(words * 40 < ctl.shape().slot_count() as usize, "{words} words");
    // The pool (64 B per group) is under half a flat table (4 B per
    // bucket id).
    let groups = ctl.tree().index_groups();
    assert!(groups * 64 * 2 < ctl.shape().bucket_count() as usize * 4, "{groups} index groups");
}
