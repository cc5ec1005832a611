//! The recursive front of the position map: the posmap stored in a
//! chain of smaller ORAMs, fronted by the PLB (Path ORAM recursion +
//! Freecursive-style caching).
//!
//! ## Geometry
//!
//! Position-map entries for the data ORAM are packed into *posmap
//! blocks*: a level-1 block covers one PLB page (`plb_page_addrs`
//! consecutive data addresses — the PLB caches exactly these blocks, as
//! in Freecursive ORAM). Level ℓ+1 stores the leaf labels of level-ℓ
//! posmap blocks, packed [`ENTRIES_PER_BLOCK`] per block, so the block
//! count shrinks geometrically:
//!
//! ```text
//! count₁ = ⌈domain / plb_page_addrs⌉,   countₗ = ⌈count₁ / Eˡ⁻¹⌉
//! ```
//!
//! The chain terminates at the first level whose map fits the
//! configured on-chip budget; that terminal map stays on chip (like a
//! Path ORAM root posmap) and only levels below it become real ORAMs —
//! each a full [`OramController`] with its own tree, stash, eviction
//! schedule and RNG.
//!
//! ## Access protocol
//!
//! A lookup first probes the PLB for the level-1 block. A hit
//! short-circuits everything: the leaf label is on chip, no bus
//! traffic. A miss walks *down* the chain from the deepest level whose
//! block is PLB-resident (the terminal map is always "resident"):
//! each step issues one real read access to that level's ORAM, whose
//! path phases are queued on [`crate::PosMap::pending`] for the engine
//! to cost through the same DRAM/timing model as data accesses, and
//! whose bucket touches the controller mirrors onto the bus as
//! [`oram_util::BusEvent::PosmapBucket`] events so the audit layer can
//! check the posmap traffic itself is oblivious.
//!
//! ## Modeling shortcut (documented on purpose)
//!
//! The *functional* address→entry mapping is the map's one hashed index
//! rather than being bit-packed into the level ORAM payloads: the level
//! controllers already reproduce the *access pattern* and *timing* of the
//! recursion exactly (their own posmaps stand in for "state stored at the
//! next level"). Only the terminal map, the PLB and the level stashes are
//! counted as modeled on-chip state.

use crate::config::{OramConfig, PosMapSelect};
use crate::controller::OramController;
use crate::posmap::{DirectPlb, PosmapPhase};
use crate::shadow::DupPolicy;
use crate::tree::TreeShape;
use crate::types::{BlockAddr, Request};

/// Leaf labels of lower-level posmap blocks packed per upper-level
/// posmap block (64 B block / 8 B label + header slack → 32 had the
/// map been bit-packed; fixed so the chain depth is config-independent).
pub const ENTRIES_PER_BLOCK: u64 = 32;

/// One ORAM level of the recursion.
#[derive(Debug)]
pub(crate) struct PosmapLevel {
    /// A full ORAM controller storing this level's posmap blocks.
    ctl: OramController,
    /// Raw-bucket-id offset mapping this level's tree past the data
    /// tree (and past shallower levels) in the device address space.
    bucket_offset: u64,
}

/// The chain a recursive position map builds for a configuration,
/// worked out from the configuration alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosmapChain {
    /// Posmap blocks stored at each ORAM level, largest (nearest the
    /// data) first. Empty when the level-1 map already fits on chip.
    pub counts: Vec<u64>,
    /// Blocks covered by the terminal on-chip map.
    pub top_count: u64,
    /// Modeled on-chip state in bytes: the terminal map (8 B per label),
    /// the PLB tags (16 B per entry) and the level controllers' stashes
    /// (one decrypted block ≈ 40 B each). The functional entry index is
    /// *not* counted — it models state the chain stores off chip.
    pub onchip_bytes: u64,
}

impl PosmapChain {
    /// The chain [`crate::build_posmap`] builds for a data tree of `shape`
    /// under `cfg` with a terminal-map budget of `onchip_kb` KiB, without
    /// building it: a level per map that does not fit at 8 B per label,
    /// each [`ENTRIES_PER_BLOCK`] times smaller than the one below.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.plb_entries`, `cfg.plb_page_addrs` or `onchip_kb`
    /// is zero.
    pub fn new(cfg: &OramConfig, shape: TreeShape, onchip_kb: u32) -> Self {
        assert!(cfg.plb_entries > 0 && cfg.plb_page_addrs > 0 && onchip_kb > 0);
        let budget_bytes = onchip_kb as u64 * 1024;
        // Address domain the map must cover: the data tree's block
        // capacity (callers address `0..domain`; the dense index makes the
        // same assumption when it sizes itself by high-water address).
        let domain = shape.slot_count().max(1);
        let mut counts = Vec::new();
        let mut c = domain.div_ceil(cfg.plb_page_addrs);
        while c * 8 > budget_bytes {
            counts.push(c);
            c = c.div_ceil(ENTRIES_PER_BLOCK);
        }
        let stashes: u64 = counts
            .iter()
            .map(|&count| level_stash_capacity(cfg.z, tree_levels_for(count)) as u64 * 40)
            .sum();
        let onchip_bytes = c * 8 + cfg.plb_entries as u64 * 16 + stashes;
        PosmapChain { counts, top_count: c, onchip_bytes }
    }
}

/// Stash capacity of a chain level whose tree has `tree_levels` levels.
fn level_stash_capacity(z: usize, tree_levels: u32) -> usize {
    z * (tree_levels as usize + 1) + 192
}

/// Tree depth for a level storing `count` posmap blocks: one leaf per
/// block (capacity `z·(2^(L+1)−1)` slots, so utilization stays far
/// below the Path ORAM bound and the level stash cannot grow).
fn tree_levels_for(count: u64) -> u32 {
    let l = 64 - count.saturating_sub(1).leading_zeros();
    l.clamp(1, 31)
}

/// The recursive front (see the module docs): the level ORAMs, the PLB
/// over `(level, block)` tags, and the phases its walks queued.
#[derive(Debug)]
pub(crate) struct Chain {
    /// ORAM levels 1..=K, largest (nearest the data) first. Empty when
    /// the level-1 map already fits on chip — the front degenerates to a
    /// PLB with zero posmap traffic.
    pub(crate) levels: Vec<PosmapLevel>,
    pub(crate) plb: DirectPlb<(u16, u64)>,
    /// What the levels were built from.
    pub(crate) geometry: PosmapChain,
    /// Path phases produced by PLB-miss walks since the last clear.
    pub(crate) pending: Vec<PosmapPhase>,
}

impl Chain {
    /// Builds the chain [`PosmapChain::new`] works out for these
    /// arguments, taking block parameters and seed from `cfg`.
    pub(crate) fn new(cfg: &OramConfig, shape: TreeShape, onchip_kb: u32) -> Self {
        let geometry = PosmapChain::new(cfg, shape, onchip_kb);

        // Build one real ORAM per off-chip level, laid out back-to-back
        // past the data tree in raw-bucket-id space.
        let mut levels = Vec::with_capacity(geometry.counts.len());
        let mut offset = shape.bucket_count();
        for (i, &count) in geometry.counts.iter().enumerate() {
            let tree_levels = tree_levels_for(count);
            let level_cfg = OramConfig {
                levels: tree_levels,
                z: cfg.z,
                eviction_rate: cfg.eviction_rate,
                stash_capacity: level_stash_capacity(cfg.z, tree_levels),
                dup_policy: DupPolicy::Off,
                treetop_levels: 0,
                plb_entries: 1,
                plb_page_addrs: 1,
                hot_cache_sets: 0,
                hot_cache_ways: 2,
                // Decorrelated from the data controller's stream and
                // from sibling levels.
                seed: cfg.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                recirculate_stash_shadows: true,
                chain_duplication: true,
                // The level's own posmap stands in for state stored at
                // the next level up the chain; sparse so deep chains
                // don't allocate by address space.
                posmap: PosMapSelect::Sparse,
            };
            let ctl = OramController::new(level_cfg)
                .expect("posmap level config is internally generated and valid");
            let bucket_count = ctl.shape().bucket_count();
            levels.push(PosmapLevel { ctl, bucket_offset: offset });
            offset += bucket_count;
        }

        let walk_capacity = levels.len() * 3 + 4;
        Chain {
            levels,
            plb: DirectPlb::new(cfg.plb_entries),
            geometry,
            pending: Vec::with_capacity(walk_capacity),
        }
    }

    /// Posmap block index at chain level `l` (1-based) for a PLB page.
    #[inline]
    fn block_at(page: u64, l: usize) -> u64 {
        page / ENTRIES_PER_BLOCK.pow(l as u32 - 1)
    }

    #[inline]
    fn plb_set(&self, level: u16, block: u64) -> usize {
        // Direct-mapped by the block's low bits (hardware-style index),
        // XOR-folded with a per-level constant so different levels of
        // the same page don't pile into one set. Low-bit indexing keeps
        // the conflict pattern invariant under relabeling every address
        // by a multiple of the set count — the audit's combined-trace
        // byte-invariance check relies on exactly that property.
        let mix = (level as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        ((block ^ mix) % self.plb.sets() as u64) as usize
    }

    fn plb_holds(&self, level: u16, block: u64) -> bool {
        self.plb.holds(self.plb_set(level, block), (level, block))
    }

    /// One real read access to level `l`'s ORAM for posmap block `b`:
    /// queues every resulting path phase for engine costing (and for the
    /// controller to mirror onto the bus as [`oram_util::BusEvent::PosmapBucket`]
    /// events). A stash hit inside the level
    /// controller produces no phases — the posmap block was still
    /// on-chip cached from an earlier walk, which is exactly the
    /// Freecursive behavior.
    fn access_level(&mut self, l: usize, b: u64) {
        let lev = &mut self.levels[l - 1];
        let res = lev.ctl.access(Request::read(BlockAddr::new(b)));
        for phase in res.phases.iter() {
            self.pending.push(PosmapPhase {
                phase: *phase,
                bucket_offset: lev.bucket_offset,
                level: l as u16,
            });
        }
    }

    /// The PLB front for a data address on PLB `page`: a level-1 hit is
    /// free; otherwise walk down from the deepest PLB-resident level (the
    /// terminal map counts as always resident), issuing one level-ORAM
    /// access per step.
    pub(crate) fn walk(&mut self, page: u64) {
        let k = self.levels.len();
        let deepest =
            (1..=k).find(|&l| self.plb_holds(l as u16, Self::block_at(page, l))).unwrap_or(k + 1);
        if deepest == 1 {
            self.plb.stats.hits += 1;
            return;
        }
        self.plb.stats.misses += 1;
        for l in (1..deepest).rev() {
            let b = Self::block_at(page, l);
            self.access_level(l, b);
            self.plb.install(self.plb_set(l as u16, b), (l as u16, b));
        }
    }

    pub(crate) fn check_invariants(&self) -> Result<(), String> {
        for (i, level) in self.levels.iter().enumerate() {
            level.ctl.check_invariants().map_err(|e| format!("posmap level {}: {e}", i + 1))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use oram_util::Rng64;

    use super::*;
    use crate::posmap::{build_posmap, PosMap};

    /// `L = 9, z = 4` data tree: 4092 slots → 256 level-1 blocks at 16
    /// addrs/page = 2 KiB > 1 KiB budget → one ORAM level, 8-block top.
    fn one_level_cfg() -> (OramConfig, TreeShape) {
        let cfg = OramConfig {
            levels: 9,
            stash_capacity: 120,
            posmap: PosMapSelect::Recursive { onchip_kb: 1 },
            ..OramConfig::small_test()
        };
        (cfg, TreeShape::new(9, 4))
    }

    fn one_level_map() -> PosMap {
        let (cfg, shape) = one_level_cfg();
        build_posmap(&cfg, shape)
    }

    #[test]
    fn chain_terminates_within_budget() {
        let (cfg, shape) = one_level_cfg();
        let chain = Chain::new(&cfg, shape, 1);
        assert_eq!(chain.levels.len(), 1);
        assert_eq!(chain.geometry.counts, [256]);
        assert_eq!(chain.geometry.top_count, 8);
        assert!(chain.geometry.top_count * 8 <= 1024, "terminal map within budget");
    }

    /// The chain worked out from the configuration is the one `new`
    /// builds, at the shapes the tests and `serve_recursive` run: a level
    /// tree with a leaf per block, and the on-chip state of what was built.
    #[test]
    fn chain_geometry_matches_the_built_map() {
        let shapes = [(9, 4, 1, 16), (14, 4, 1, 16), (7, 4, 64, 16), (18, 5, 1, 1024)];
        for (levels, z, onchip_kb, plb) in shapes {
            let cfg = OramConfig { levels, z, plb_entries: plb, ..OramConfig::small_test() };
            let chain = Chain::new(&cfg, TreeShape::new(levels, z), onchip_kb);
            let geometry = &chain.geometry;
            assert_eq!(geometry.counts.len(), chain.levels.len(), "L={levels}");
            for (level, &count) in chain.levels.iter().zip(&geometry.counts) {
                let leaves = level.ctl.shape().leaf_count();
                assert!(leaves >= count && leaves / 2 < count.max(2), "L={levels}: {count}");
            }
            let stashes: u64 =
                chain.levels.iter().map(|l| l.ctl.config().stash_capacity as u64 * 40).sum();
            let onchip = geometry.top_count * 8 + chain.plb.sets() as u64 * 16 + stashes;
            assert_eq!(geometry.onchip_bytes, onchip, "L={levels}");
        }
    }

    #[test]
    fn small_domains_degenerate_to_zero_levels() {
        let cfg = OramConfig::small_test().with_posmap(PosMapSelect::Recursive { onchip_kb: 64 });
        let mut pm = build_posmap(&cfg, TreeShape::new(7, 4));
        assert_eq!(pm.chain_levels(), 0);
        let mut rng = Rng64::seed_from_u64(1);
        pm.lookup_or_assign(BlockAddr::new(5), &mut rng);
        assert!(pm.pending().is_empty(), "no chain, no posmap traffic");
    }

    #[test]
    fn plb_miss_walks_and_hit_short_circuits() {
        let mut pm = one_level_map();
        let mut rng = Rng64::seed_from_u64(2);
        pm.lookup_or_assign(BlockAddr::new(0), &mut rng);
        assert_eq!(pm.plb_stats().misses, 1);
        assert!(!pm.pending().is_empty(), "cold miss issued a level access");
        let walked = pm.pending().len();
        assert!(walked <= 3, "one level access has at most three phases");
        pm.clear_pending();
        // Same page again: PLB hit, no new traffic.
        pm.lookup_or_assign(BlockAddr::new(1), &mut rng);
        assert_eq!(pm.plb_stats().hits, 1);
        assert!(pm.pending().is_empty());
    }

    #[test]
    fn pending_phases_carry_offsets_past_the_data_tree() {
        let (_, shape) = one_level_cfg();
        let mut pm = one_level_map();
        let mut rng = Rng64::seed_from_u64(3);
        pm.lookup_or_assign(BlockAddr::new(0), &mut rng);
        for p in pm.pending() {
            assert!(p.bucket_offset >= shape.bucket_count());
            assert_eq!(p.level, 1);
        }
    }

    #[test]
    fn deep_domains_build_multi_level_chains() {
        let cfg = OramConfig { levels: 14, stash_capacity: 160, ..OramConfig::small_test() };
        let shape = TreeShape::new(14, 4);
        // 131068 slots → 8192 L1 blocks → 256 L2 blocks → 8 on chip.
        let chain = Chain::new(&cfg, shape, 1);
        assert_eq!(chain.geometry.counts, [8192, 256]);
        assert_eq!(chain.geometry.top_count, 8);
        // Levels are laid out back-to-back past the data tree.
        let offsets: Vec<u64> = chain.levels.iter().map(|l| l.bucket_offset).collect();
        let first = shape.bucket_count() + chain.levels[0].ctl.shape().bucket_count();
        assert_eq!(offsets, [shape.bucket_count(), first]);
    }

    #[test]
    fn onchip_state_excludes_the_functional_map() {
        let mut pm = one_level_map();
        let before = pm.onchip_bytes();
        let mut rng = Rng64::seed_from_u64(4);
        for a in 0..512u64 {
            pm.lookup_or_assign(BlockAddr::new(a), &mut rng);
            pm.clear_pending();
        }
        assert_eq!(pm.onchip_bytes(), before, "touching addresses adds no on-chip state");
    }
}
