//! The position map and its PosMap Lookup Buffer (PLB).
//!
//! The position map is the trusted lookup table from program address to
//! current leaf label. Real hardware recurses the map into the ORAM itself
//! and fronts it with a PLB (Freecursive ORAM [14]). Here that is one
//! [`PosMap`] with two fronts. Its entries sit behind one of two index
//! kinds: dense (indexed by block address, the paper baseline's "unified
//! program address space") or hashed (memory proportional to the touched
//! working set, for billion-address domains). In front of the index sits
//! either a page PLB that costs nothing on a miss (`Flat`, `Sparse`) or
//! the recursive posmap-ORAM chain of [`crate::posmap_recursive`]
//! (`Recursive`), whose PLB misses walk real, costed level ORAMs. The
//! front only ever changes cost, never answers.
//!
//! Beyond the label, the controller tracks two pieces of trusted metadata
//! per address:
//!
//! * a **version** counter used to invalidate stale copies: every remap
//!   and every write bumps it, so a copy is current exactly when its
//!   version is the map's, and
//! * the **tree level** of the authoritative real copy (`None` while the
//!   live copy sits in the stash), which Rule-2 needs when duplicating a
//!   stash-resident shadow candidate.

use oram_util::{DetHashMap, Digit, Rng64};

use crate::access::PathPhase;
use crate::config::{OramConfig, PosMapSelect};
use crate::posmap_recursive::Chain;
use crate::tree::TreeShape;
use crate::types::{BlockAddr, LeafLabel, Version};

/// Where the authoritative real copy of an address currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RealCopySite {
    /// Live copy is in the stash (possibly marked replaceable after an
    /// eviction, in which case an identical copy also sits in the tree).
    Stash,
    /// Live copy is in the ORAM tree at the given level on its label path.
    Tree {
        /// Level of the bucket holding the copy (0 = root).
        level: u32,
    },
    /// The address has never been written: reads return the configured
    /// fill value and the first access materializes the block.
    Unmapped,
}

/// One position-map record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosEntry {
    /// Current leaf label.
    pub label: LeafLabel,
    /// Latest version; any copy with a smaller version is stale. It moves
    /// with every label change, so it alone names the current copies.
    pub version: Version,
    /// Where the live real copy is.
    pub site: RealCopySite,
}

/// Label sentinel marking a never-assigned slot in the dense index. Real
/// labels are `< leaf_count`, so the all-ones label can never collide
/// with one.
const UNASSIGNED: LeafLabel = LeafLabel::new(u64::MAX);

const VACANT: PosEntry = PosEntry { label: UNASSIGNED, version: 0, site: RealCopySite::Unmapped };

/// Statistics for the PLB model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlbStats {
    /// PLB hits.
    pub hits: u64,
    /// PLB misses.
    pub misses: u64,
    /// Valid entries displaced by a conflicting install.
    pub evictions: u64,
}

impl PlbStats {
    /// Hit rate in `[0, 1]`; `1.0` when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One posmap-ORAM path phase awaiting DRAM costing by the system
/// simulator. The page front never produces these; the chain queues one
/// per path phase of every level-ORAM access a PLB miss triggered.
#[derive(Debug, Clone, Copy)]
pub struct PosmapPhase {
    /// The path phase in the level's own tree geometry.
    pub phase: PathPhase,
    /// Raw-bucket-id offset locating this level's tree in the device
    /// address space (posmap trees are laid out past the data tree).
    pub bucket_offset: u64,
    /// Posmap-ORAM level (1 = largest, nearest the data addresses).
    pub level: u16,
}

/// A direct-mapped PLB: one tag per set, and its counters. The page
/// front tags a set by PLB page, the chain by `(level, block)`; each
/// picks the set itself.
#[derive(Debug, Clone)]
pub(crate) struct DirectPlb<T> {
    sets: Vec<Option<T>>,
    pub(crate) stats: PlbStats,
}

impl<T: Copy + PartialEq> DirectPlb<T> {
    pub(crate) fn new(entries: usize) -> Self {
        assert!(entries > 0);
        DirectPlb { sets: vec![None; entries], stats: PlbStats::default() }
    }

    pub(crate) fn sets(&self) -> usize {
        self.sets.len()
    }

    #[inline]
    pub(crate) fn holds(&self, set: usize, tag: T) -> bool {
        self.sets[set] == Some(tag)
    }

    /// Installs `tag` in `set`, counting the valid tag it displaces.
    #[inline]
    pub(crate) fn install(&mut self, set: usize, tag: T) {
        if self.sets[set].replace(tag).is_some_and(|old| old != tag) {
            self.stats.evictions += 1;
        }
    }
}

/// What sits in front of the index (see the module docs).
#[derive(Debug)]
enum Front {
    /// `Flat` and `Sparse`: a PLB over pages, set by the page's low digit
    /// (radix = set count). A miss costs nothing.
    Page { plb: DirectPlb<u64>, set_of: Digit },
    /// `Recursive`: the posmap-ORAM chain with its `(level, block)` PLB.
    Chain(Chain),
}

#[derive(Debug, Clone)]
enum PosIndex {
    /// Indexed by raw block address; [`UNASSIGNED`] labels mark
    /// never-touched addresses. Grows geometrically on first touch of a
    /// new high-water address and never shrinks.
    Dense(Vec<PosEntry>),
    /// Keyed by raw block address; a missing key is a never-touched
    /// address.
    Hashed(DetHashMap<u64, PosEntry>),
}

/// The position map: one entry index behind one of two fronts.
///
/// The dense index is a `Vec<PosEntry>` indexed by block address —
/// program addresses are dense small integers here, exactly the layout
/// real position-map hardware assumes — so the per-access lookup is one
/// bounds check and one indexed load, and it stops allocating once the
/// working set has been touched. The hashed index
/// ([`PosMapSelect::Sparse`] and [`PosMapSelect::Recursive`]) keys the same
/// entries by address, so billion-address domains and the chain's level
/// controllers cost memory proportional to the touched working set.
///
/// Under `Recursive` the entries stand in for the chain's stored state:
/// the level controllers reproduce the recursion's access pattern and
/// timing, while the labels the controller sees come from the one index,
/// so they cannot depend on the front.
#[derive(Debug)]
pub struct PosMap {
    /// Labels are drawn from `0..leaf_count`.
    leaf_count: u64,
    /// Splits an address into (offset, PLB page).
    page_addrs: Digit,
    index: PosIndex,
    front: Front,
}

/// Builds the position map selected by `cfg.posmap` for a data tree of
/// the given shape, with a PLB of `cfg.plb_entries` pages of
/// `cfg.plb_page_addrs` consecutive addresses each (64 KB PLB with 64 B
/// lines over 4 B entries → 1024 entries × 16 addresses in the paper's
/// configuration).
///
/// # Panics
///
/// Panics if `cfg.plb_entries`, `cfg.plb_page_addrs` or a recursive
/// on-chip budget is zero.
pub fn build_posmap(cfg: &OramConfig, shape: TreeShape) -> PosMap {
    assert!(cfg.plb_page_addrs > 0);
    let page = || Front::Page {
        plb: DirectPlb::new(cfg.plb_entries),
        set_of: Digit::new(cfg.plb_entries),
    };
    let (hashed, front) = match cfg.posmap {
        PosMapSelect::Flat => (false, page()),
        PosMapSelect::Sparse => (true, page()),
        PosMapSelect::Recursive { onchip_kb } => {
            (true, Front::Chain(Chain::new(cfg, shape, onchip_kb)))
        }
    };
    let index =
        if hashed { PosIndex::Hashed(DetHashMap::default()) } else { PosIndex::Dense(Vec::new()) };
    PosMap {
        leaf_count: shape.leaf_count(),
        page_addrs: Digit::new(cfg.plb_page_addrs as usize),
        index,
        front,
    }
}

/// The hashed index's half of [`PosMap::lookup_or_assign`], kept out of
/// line: inlined, the map insert's register pressure made every dense
/// lookup pay for it (prefill ≈ 40 % slower per block).
#[inline(never)]
fn hashed_lookup_or_assign(
    map: &mut DetHashMap<u64, PosEntry>,
    addr: BlockAddr,
    leaf_count: u64,
    rng: &mut Rng64,
) -> PosEntry {
    *map.entry(addr.raw()).or_insert_with(|| PosEntry {
        label: LeafLabel::new(rng.below(leaf_count)),
        version: 0,
        site: RealCopySite::Unmapped,
    })
}

impl PosMap {
    #[inline]
    fn get(&self, addr: BlockAddr) -> Option<&PosEntry> {
        match &self.index {
            PosIndex::Dense(v) => v.get(addr.raw() as usize).filter(|e| e.label != UNASSIGNED),
            PosIndex::Hashed(m) => m.get(&addr.raw()),
        }
    }

    #[inline]
    fn get_mut(&mut self, addr: BlockAddr) -> Option<&mut PosEntry> {
        match &mut self.index {
            PosIndex::Dense(v) => v.get_mut(addr.raw() as usize).filter(|e| e.label != UNASSIGNED),
            PosIndex::Hashed(m) => m.get_mut(&addr.raw()),
        }
    }

    /// Looks up (creating on first touch) the entry for `addr`, assigning
    /// a fresh random label to never-seen addresses using the controller's
    /// `rng` (so label streams do not depend on the front). Runs the front
    /// first: the page PLB counts a hit or a miss; the chain's PLB miss
    /// walks the posmap-ORAM levels and queues the resulting phases.
    pub fn lookup_or_assign(&mut self, addr: BlockAddr, rng: &mut Rng64) -> PosEntry {
        let (_, page) = self.page_addrs.peel(addr.raw());
        match &mut self.front {
            Front::Page { plb, set_of } => {
                let set = set_of.peel(page).0 as usize;
                if plb.holds(set, page) {
                    plb.stats.hits += 1;
                } else {
                    plb.stats.misses += 1;
                    plb.install(set, page);
                }
            }
            Front::Chain(chain) => chain.walk(page),
        }
        let leaf_count = self.leaf_count;
        match &mut self.index {
            PosIndex::Dense(v) => {
                let ix = addr.raw() as usize;
                if ix >= v.len() {
                    let new_len = (ix + 1).max(v.len() * 2);
                    v.resize(new_len, VACANT);
                }
                let e = &mut v[ix];
                if e.label == UNASSIGNED {
                    e.label = LeafLabel::new(rng.below(leaf_count));
                }
                *e
            }
            PosIndex::Hashed(m) => hashed_lookup_or_assign(m, addr, leaf_count, rng),
        }
    }

    /// Peeks at the entry without creating it or touching the PLB.
    pub fn peek(&self, addr: BlockAddr) -> Option<PosEntry> {
        self.get(addr).copied()
    }

    /// Moves `addr` to `label`, bumping its version by `bump` (1 but for
    /// a mutant), and returns the version.
    fn remap(&mut self, addr: BlockAddr, label: LeafLabel, bump: Version) -> Version {
        assert!(label.raw() < self.leaf_count, "label out of range");
        let e = self.get_mut(addr).expect("remap of unknown address");
        e.label = label;
        e.version += bump;
        e.version
    }

    /// Remaps `addr` to the given label under a bumped version, which it
    /// returns: every copy bound to the old label goes stale with it.
    /// Posmap writes ride the PLB line the same access's lookup already
    /// fetched, so no extra traffic is modeled.
    ///
    /// # Panics
    ///
    /// Panics if `addr` has never been looked up or `label` is out of
    /// range.
    pub fn remap_to(&mut self, addr: BlockAddr, label: LeafLabel) -> Version {
        self.remap(addr, label, 1)
    }

    /// The remap rule [`crate::Mutant::ReadRemapKeepsVersion`] restores:
    /// [`Self::remap_to`] without the bump.
    #[cfg(feature = "mutants")]
    pub fn remap_keeping_version(&mut self, addr: BlockAddr, label: LeafLabel) -> Version {
        self.remap(addr, label, 0)
    }

    /// Bumps and returns the version for `addr` without moving it (a CPU
    /// write served by the stash).
    ///
    /// # Panics
    ///
    /// Panics if `addr` has never been looked up.
    pub fn bump_version(&mut self, addr: BlockAddr) -> Version {
        let e = self.get_mut(addr).expect("version bump of unknown address");
        e.version += 1;
        e.version
    }

    /// Records where the live real copy of `addr` now resides (no-op
    /// for addresses never looked up).
    pub fn set_site(&mut self, addr: BlockAddr, site: RealCopySite) {
        if let Some(e) = self.get_mut(addr) {
            e.site = site;
        }
    }

    /// Current version for `addr` (0 if never seen).
    #[inline]
    pub fn version(&self, addr: BlockAddr) -> Version {
        self.get(addr).map_or(0, |e| e.version)
    }

    /// Returns `true` if a copy of `addr` stamped `version` is current:
    /// the one predicate for stale-copy invalidation.
    #[inline]
    pub fn is_current(&self, addr: BlockAddr, version: Version) -> bool {
        self.version(addr) == version
    }

    /// Every address the map holds an entry for, with that entry, in a
    /// deterministic order. Test/diagnostic use only.
    pub fn entries(&self) -> impl Iterator<Item = (BlockAddr, PosEntry)> + '_ {
        let (dense, hashed) = match &self.index {
            PosIndex::Dense(v) => (&v[..], None),
            PosIndex::Hashed(m) => (&[][..], Some(m)),
        };
        let dense = (0..).map(BlockAddr::new).zip(dense.iter().copied());
        let hashed = hashed.into_iter().flatten().map(|(&a, &e)| (BlockAddr::new(a), e));
        dense.filter(|(_, e)| e.label != UNASSIGNED).chain(hashed)
    }

    /// PLB statistics.
    pub fn plb_stats(&self) -> PlbStats {
        match &self.front {
            Front::Page { plb, .. } => plb.stats,
            Front::Chain(chain) => chain.plb.stats,
        }
    }

    /// Posmap-ORAM phases queued since the last [`Self::clear_pending`]
    /// (always empty behind the page front). The engine drains this once
    /// per access and charges DRAM timing for every phase.
    pub fn pending(&self) -> &[PosmapPhase] {
        match &self.front {
            Front::Page { .. } => &[],
            Front::Chain(chain) => &chain.pending,
        }
    }

    /// Clears the pending phase queue (capacity retained).
    pub fn clear_pending(&mut self) {
        if let Front::Chain(chain) = &mut self.front {
            chain.pending.clear();
        }
    }

    /// Modeled on-chip state in bytes. Behind the chain: the terminal
    /// map, the PLB and the level-ORAM stashes. Behind the page front:
    /// the whole table plus the PLB tags — the fiction the chain exists
    /// to remove.
    pub fn onchip_bytes(&self) -> u64 {
        let plb = match &self.front {
            Front::Page { plb, .. } => plb,
            Front::Chain(chain) => return chain.geometry.onchip_bytes,
        };
        let entry = std::mem::size_of::<PosEntry>() as u64;
        let table = match &self.index {
            PosIndex::Dense(v) => v.capacity() as u64 * entry,
            PosIndex::Hashed(m) => m.len() as u64 * (entry + 8),
        };
        table + plb.sets() as u64 * 16
    }

    /// Depth of the posmap-ORAM chain (0 behind the page front and for
    /// chains whose first level already fits on chip).
    pub fn chain_levels(&self) -> u16 {
        match &self.front {
            Front::Page { .. } => 0,
            Front::Chain(chain) => chain.levels.len() as u16,
        }
    }

    /// Runs [`crate::OramController::check_invariants`] on every level
    /// ORAM of the chain (none behind the page front). O(those trees);
    /// test/diagnostic use only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        match &self.front {
            Front::Page { .. } => Ok(()),
            Front::Chain(chain) => chain.check_invariants(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map over a tree with `2^levels` leaves and a PLB of `plb_entries`
    /// pages of `page_addrs` addresses each.
    fn map(select: PosMapSelect, levels: u32, plb_entries: usize, page_addrs: u64) -> PosMap {
        let cfg = OramConfig {
            plb_entries,
            plb_page_addrs: page_addrs,
            posmap: select,
            ..OramConfig::small_test()
        };
        build_posmap(&cfg, TreeShape::new(levels, cfg.z))
    }

    #[test]
    fn assigns_labels_in_range() {
        let mut pm = map(PosMapSelect::Flat, 4, 8, 4);
        let mut rng = Rng64::seed_from_u64(1);
        for a in 0..100u64 {
            let e = pm.lookup_or_assign(BlockAddr::new(a), &mut rng);
            assert!(e.label.raw() < 16);
            assert_eq!(e.version, 0);
            assert_eq!(e.site, RealCopySite::Unmapped);
        }
    }

    #[test]
    fn lookup_is_stable_until_remap() {
        let mut pm = map(PosMapSelect::Flat, 10, 8, 4);
        let mut rng = Rng64::seed_from_u64(2);
        let a = BlockAddr::new(7);
        let first = pm.lookup_or_assign(a, &mut rng).label;
        assert_eq!(pm.lookup_or_assign(a, &mut rng).label, first);
        // Remap draws fresh randomness; over many tries it must change.
        let mut changed = false;
        for _ in 0..64 {
            let label = LeafLabel::new(rng.below(1024));
            pm.remap_to(a, label);
            if label != first {
                changed = true;
                break;
            }
        }
        assert!(changed, "remap never changed the label");
    }

    #[test]
    fn versions_bump_monotonically() {
        let mut pm = map(PosMapSelect::Flat, 2, 8, 4);
        let mut rng = Rng64::seed_from_u64(3);
        let a = BlockAddr::new(0);
        pm.lookup_or_assign(a, &mut rng);
        assert!(pm.is_current(a, 0));
        assert_eq!(pm.bump_version(a), 1);
        assert!(!pm.is_current(a, 0));
        assert!(pm.is_current(a, 1));
    }

    #[test]
    fn unseen_addresses_read_as_absent() {
        let mut pm = map(PosMapSelect::Flat, 4, 8, 4);
        let mut rng = Rng64::seed_from_u64(7);
        // Touch a high address so lower ones exist as vacant slots.
        pm.lookup_or_assign(BlockAddr::new(50), &mut rng);
        assert_eq!(pm.peek(BlockAddr::new(10)), None);
        assert_eq!(pm.version(BlockAddr::new(10)), 0);
        pm.set_site(BlockAddr::new(10), RealCopySite::Stash); // must be a no-op
        assert_eq!(pm.peek(BlockAddr::new(10)), None);
        assert_eq!(pm.entries().count(), 1, "vacant slots are not entries");
    }

    #[test]
    fn plb_hits_on_spatial_locality() {
        let mut pm = map(PosMapSelect::Flat, 10, 64, 16);
        let mut rng = Rng64::seed_from_u64(4);
        // 16 consecutive addresses share a PLB page: 1 miss + 15 hits.
        for a in 0..16u64 {
            pm.lookup_or_assign(BlockAddr::new(a), &mut rng);
        }
        assert_eq!(pm.plb_stats().misses, 1);
        assert_eq!(pm.plb_stats().hits, 15);
        assert!(pm.plb_stats().hit_rate() > 0.9);
    }

    #[test]
    fn plb_conflict_misses() {
        let mut pm = map(PosMapSelect::Flat, 10, 2, 1);
        let mut rng = Rng64::seed_from_u64(5);
        // Pages 0 and 2 collide in a 2-set direct-mapped PLB.
        pm.lookup_or_assign(BlockAddr::new(0), &mut rng);
        pm.lookup_or_assign(BlockAddr::new(2), &mut rng);
        pm.lookup_or_assign(BlockAddr::new(0), &mut rng);
        assert_eq!(pm.plb_stats().misses, 3);
        // The second and third misses each displaced a valid tag.
        assert_eq!(pm.plb_stats().evictions, 2);
    }

    #[test]
    fn site_tracking_round_trip() {
        let mut pm = map(PosMapSelect::Flat, 2, 8, 4);
        let mut rng = Rng64::seed_from_u64(6);
        let a = BlockAddr::new(1);
        pm.lookup_or_assign(a, &mut rng);
        pm.set_site(a, RealCopySite::Tree { level: 5 });
        assert_eq!(pm.peek(a).unwrap().site, RealCopySite::Tree { level: 5 });
        pm.set_site(a, RealCopySite::Stash);
        assert_eq!(pm.peek(a).unwrap().site, RealCopySite::Stash);
    }

    /// The hashed index must be observationally identical to the dense
    /// one (a larger seeded fuzz of the same property, recursive
    /// included, lives in `tests/properties.rs`).
    #[test]
    fn sparse_matches_flat_semantics() {
        let mut flat = map(PosMapSelect::Flat, 6, 8, 4);
        let mut sparse = map(PosMapSelect::Sparse, 6, 8, 4);
        let mut r1 = Rng64::seed_from_u64(9);
        let mut r2 = Rng64::seed_from_u64(9);
        let mut drive = Rng64::seed_from_u64(10);
        for _ in 0..2000 {
            let a = BlockAddr::new(drive.below(96));
            match drive.below(5) {
                0 => assert_eq!(
                    flat.lookup_or_assign(a, &mut r1),
                    sparse.lookup_or_assign(a, &mut r2)
                ),
                1 => assert_eq!(flat.peek(a), sparse.peek(a)),
                2 => {
                    if flat.peek(a).is_some() {
                        let l = LeafLabel::new(drive.below(64));
                        flat.remap_to(a, l);
                        sparse.remap_to(a, l);
                    }
                }
                3 => {
                    if flat.peek(a).is_some() {
                        assert_eq!(flat.bump_version(a), sparse.bump_version(a));
                    }
                }
                _ => {
                    flat.set_site(a, RealCopySite::Stash);
                    sparse.set_site(a, RealCopySite::Stash);
                }
            }
            assert_eq!(flat.version(a), sparse.version(a));
        }
        assert_eq!(flat.plb_stats(), sparse.plb_stats());
    }
}
