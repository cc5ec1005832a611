//! Position-map backends and the PosMap Lookup Buffer (PLB).
//!
//! The position map is the trusted lookup table from program address to
//! current leaf label. Real hardware recurses the map into the ORAM itself
//! and fronts it with a PLB (Freecursive ORAM [14]). This module defines
//! the [`PosMapBackend`] abstraction the controller programs against —
//! mirroring the `StorageBackend` seam on the DRAM side — plus the
//! on-chip [`FlatPosMap`], whose entries sit behind one of two index
//! kinds: dense (indexed by block address, the paper baseline's "unified
//! program address space") or hashed (memory proportional to the touched
//! working set, for billion-address domains). The recursive posmap-ORAM
//! chain lives in [`crate::posmap_recursive::RecursivePosMap`].
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

/// Label sentinel marking a never-assigned slot in the flat table. Real
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
/// simulator. The flat backends never produce these; the recursive
/// backend queues one per path phase of every level-ORAM access a PLB
/// miss triggered.
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

/// The position-map seam of the ORAM controller.
///
/// Mirrors the `StorageBackend` pattern: the controller holds a
/// `Box<dyn PosMapBackend>` chosen by [`OramConfig::posmap`] and speaks
/// only this interface. The *functional* methods (`lookup_or_assign`,
/// `peek`, `remap_to`, …) must behave identically across backends — a
/// property test fuzzes exactly that — while the *costing* surface
/// (`pending`, `onchip_bytes`) lets the recursive backend expose the
/// posmap-ORAM traffic a PLB miss generated so the engine can charge
/// real DRAM timing for it.
pub trait PosMapBackend: std::fmt::Debug + Send {
    /// Looks up (creating on first touch) the entry for `addr`,
    /// assigning a fresh random label to never-seen addresses using the
    /// controller's `rng` (so label streams are backend-independent).
    /// Also runs the PLB model; on a recursive backend a PLB miss walks
    /// the posmap-ORAM chain and queues the resulting phases.
    fn lookup_or_assign(&mut self, addr: BlockAddr, rng: &mut Rng64) -> PosEntry;

    /// Peeks at the entry without creating it or touching the PLB.
    fn peek(&self, addr: BlockAddr) -> Option<PosEntry>;

    /// Remaps `addr` to the given label under a bumped version, which it
    /// returns: every copy bound to the old label goes stale with it.
    /// Posmap writes ride the PLB line the same access's lookup already
    /// fetched, so no extra traffic is modeled.
    ///
    /// # Panics
    ///
    /// Panics if `addr` has never been looked up or `label` is out of
    /// range.
    fn remap_to(&mut self, addr: BlockAddr, label: LeafLabel) -> Version;

    /// The remap rule [`crate::Mutant::ReadRemapKeepsVersion`] restores:
    /// [`Self::remap_to`] without the bump.
    #[cfg(feature = "mutants")]
    fn remap_keeping_version(&mut self, addr: BlockAddr, label: LeafLabel) -> Version;

    /// Bumps and returns the version for `addr` without moving it (a CPU
    /// write served by the stash).
    ///
    /// # Panics
    ///
    /// Panics if `addr` has never been looked up.
    fn bump_version(&mut self, addr: BlockAddr) -> Version;

    /// Records where the live real copy of `addr` now resides (no-op
    /// for addresses never looked up).
    fn set_site(&mut self, addr: BlockAddr, site: RealCopySite);

    /// Current version for `addr` (0 if never seen).
    fn version(&self, addr: BlockAddr) -> Version {
        self.peek(addr).map_or(0, |e| e.version)
    }

    /// Returns `true` if a copy of `addr` stamped `version` is current:
    /// the one predicate for stale-copy invalidation.
    fn is_current(&self, addr: BlockAddr, version: Version) -> bool {
        self.version(addr) == version
    }

    /// Every address the map holds an entry for, with that entry, in a
    /// deterministic order. Test/diagnostic use only.
    fn entries(&self) -> Box<dyn Iterator<Item = (BlockAddr, PosEntry)> + '_>;

    /// PLB statistics.
    fn plb_stats(&self) -> PlbStats;

    /// Number of leaves (labels are drawn from `0..leaf_count`).
    fn leaf_count(&self) -> u64;

    /// Posmap-ORAM phases queued since the last [`Self::clear_pending`]
    /// (empty for flat backends). The engine drains this once per access
    /// and charges DRAM timing for every phase.
    fn pending(&self) -> &[PosmapPhase] {
        &[]
    }

    /// Clears the pending phase queue (capacity retained).
    fn clear_pending(&mut self) {}

    /// Modeled on-chip state in bytes: the terminal map, the PLB, and
    /// any level-ORAM stashes. Flat backends report their whole table —
    /// that is the fiction the recursive backend exists to remove.
    fn onchip_bytes(&self) -> u64;

    /// Depth of the posmap-ORAM chain (0 for flat backends and for
    /// recursive maps whose first level already fits on chip).
    fn chain_levels(&self) -> u16 {
        0
    }

    /// Runs [`crate::OramController::check_invariants`] on every ORAM a
    /// backend is itself made of (none for flat backends). O(those
    /// trees); test/diagnostic use only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    fn check_invariants(&self) -> Result<(), String> {
        Ok(())
    }
}

/// Builds the position-map backend selected by `cfg.posmap` for a data
/// tree of the given shape.
pub fn build_posmap(cfg: &OramConfig, shape: TreeShape) -> Box<dyn PosMapBackend> {
    let flat = |hashed| {
        Box::new(FlatPosMap::new(shape.leaf_count(), cfg.plb_entries, cfg.plb_page_addrs, hashed))
    };
    match cfg.posmap {
        PosMapSelect::Flat => flat(false),
        PosMapSelect::Sparse => flat(true),
        PosMapSelect::Recursive { onchip_kb } => {
            Box::new(crate::posmap_recursive::RecursivePosMap::new(cfg, shape, onchip_kb))
        }
    }
}

/// Direct-mapped PLB over position-map *pages*; each page covers
/// `page_addrs` consecutive block addresses (the recursive backend tags
/// entries by chain level and has its own install logic).
#[derive(Debug, Clone)]
struct DirectPlb {
    sets: Vec<Option<u64>>,
    /// Splits an address into (offset, page).
    page_addrs: Digit,
    /// Splits a page into (set, tag); the radix is `sets.len()`.
    set_of: Digit,
    stats: PlbStats,
}

impl DirectPlb {
    fn new(entries: usize, page_addrs: u64) -> Self {
        assert!(entries > 0 && page_addrs > 0);
        DirectPlb {
            sets: vec![None; entries],
            page_addrs: Digit::new(page_addrs as usize),
            set_of: Digit::new(entries),
            stats: PlbStats::default(),
        }
    }

    /// Direct-mapped access for the page containing `addr`.
    fn touch(&mut self, addr: BlockAddr) {
        let (_, page) = self.page_addrs.peel(addr.raw());
        let set = self.set_of.peel(page).0 as usize;
        match self.sets[set] {
            Some(p) if p == page => self.stats.hits += 1,
            other => {
                self.stats.misses += 1;
                if other.is_some() {
                    self.stats.evictions += 1;
                }
                self.sets[set] = Some(page);
            }
        }
    }
}

/// The flat position map with its PLB front: one map, two index kinds.
///
/// The dense index is a `Vec<PosEntry>` indexed by block address —
/// program addresses are dense small integers here, exactly the layout
/// real position-map hardware assumes — so the per-access lookup is one
/// bounds check and one indexed load, and it stops allocating once the
/// working set has been touched. The hashed index
/// ([`PosMapSelect::Sparse`]) keys the same entries by address, so
/// billion-address domains and the recursive posmap's level controllers
/// (whose state conceptually lives in the *next* level) cost memory
/// proportional to the touched working set instead of the address space.
#[derive(Debug, Clone)]
pub struct FlatPosMap {
    leaf_count: u64,
    index: PosIndex,
    plb: DirectPlb,
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

impl FlatPosMap {
    /// Creates a position map for a tree with `leaf_count` leaves and a
    /// PLB of `plb_entries` page entries, each covering `plb_page_addrs`
    /// consecutive addresses (64 KB PLB with 64 B lines over 4 B entries →
    /// 1024 entries × 16 addresses in the paper's configuration), over
    /// the hashed index when `hashed` is set and the dense one otherwise.
    ///
    /// # Panics
    ///
    /// Panics if any numeric argument is zero.
    pub fn new(leaf_count: u64, plb_entries: usize, plb_page_addrs: u64, hashed: bool) -> Self {
        assert!(leaf_count > 0);
        let index = if hashed {
            PosIndex::Hashed(DetHashMap::default())
        } else {
            PosIndex::Dense(Vec::new())
        };
        FlatPosMap { leaf_count, index, plb: DirectPlb::new(plb_entries, plb_page_addrs) }
    }

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
}

/// Moves `e` to `label` of `n` leaves, bumping its version by `bump` (1 but
/// for a mutant), and returns the version: [`PosMapBackend::remap_to`].
pub(crate) fn remap(n: u64, e: Option<&mut PosEntry>, label: LeafLabel, bump: Version) -> Version {
    assert!(label.raw() < n, "label out of range");
    let e = e.expect("remap of unknown address");
    e.label = label;
    e.version += bump;
    e.version
}

/// The hashed index's half of [`PosMapBackend::lookup_or_assign`], kept
/// out of line: inlined, the map insert's register pressure made every
/// dense lookup pay for it (prefill ≈ 40 % slower per block).
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

impl PosMapBackend for FlatPosMap {
    fn lookup_or_assign(&mut self, addr: BlockAddr, rng: &mut Rng64) -> PosEntry {
        self.plb.touch(addr);
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

    fn peek(&self, addr: BlockAddr) -> Option<PosEntry> {
        self.get(addr).copied()
    }

    fn remap_to(&mut self, addr: BlockAddr, label: LeafLabel) -> Version {
        remap(self.leaf_count, self.get_mut(addr), label, 1)
    }

    #[cfg(feature = "mutants")]
    fn remap_keeping_version(&mut self, addr: BlockAddr, label: LeafLabel) -> Version {
        remap(self.leaf_count, self.get_mut(addr), label, 0)
    }

    fn bump_version(&mut self, addr: BlockAddr) -> Version {
        let e = self.get_mut(addr).expect("version bump of unknown address");
        e.version += 1;
        e.version
    }

    fn set_site(&mut self, addr: BlockAddr, site: RealCopySite) {
        if let Some(e) = self.get_mut(addr) {
            e.site = site;
        }
    }

    fn entries(&self) -> Box<dyn Iterator<Item = (BlockAddr, PosEntry)> + '_> {
        match &self.index {
            PosIndex::Dense(v) => Box::new(
                (0..)
                    .map(BlockAddr::new)
                    .zip(v.iter().copied())
                    .filter(|(_, e)| e.label != UNASSIGNED),
            ),
            PosIndex::Hashed(m) => Box::new(m.iter().map(|(&a, &e)| (BlockAddr::new(a), e))),
        }
    }

    fn plb_stats(&self) -> PlbStats {
        self.plb.stats
    }

    fn leaf_count(&self) -> u64 {
        self.leaf_count
    }

    fn onchip_bytes(&self) -> u64 {
        let entry = std::mem::size_of::<PosEntry>() as u64;
        // The whole table is (fictionally) on chip, plus the PLB tags.
        let table = match &self.index {
            PosIndex::Dense(v) => v.capacity() as u64 * entry,
            PosIndex::Hashed(m) => m.len() as u64 * (entry + 8),
        };
        table + self.plb.sets.len() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assigns_labels_in_range() {
        let mut pm = FlatPosMap::new(16, 8, 4, false);
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
        let mut pm = FlatPosMap::new(1024, 8, 4, false);
        let mut rng = Rng64::seed_from_u64(2);
        let a = BlockAddr::new(7);
        let first = pm.lookup_or_assign(a, &mut rng).label;
        assert_eq!(pm.lookup_or_assign(a, &mut rng).label, first);
        // Remap draws fresh randomness; over many tries it must change.
        let mut changed = false;
        for _ in 0..64 {
            let label = LeafLabel::new(rng.below(pm.leaf_count()));
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
        let mut pm = FlatPosMap::new(4, 8, 4, false);
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
        let mut pm = FlatPosMap::new(16, 8, 4, false);
        let mut rng = Rng64::seed_from_u64(7);
        // Touch a high address so lower ones exist as vacant slots.
        pm.lookup_or_assign(BlockAddr::new(50), &mut rng);
        assert_eq!(pm.peek(BlockAddr::new(10)), None);
        assert_eq!(pm.version(BlockAddr::new(10)), 0);
        pm.set_site(BlockAddr::new(10), RealCopySite::Stash); // must be a no-op
        assert_eq!(pm.peek(BlockAddr::new(10)), None);
    }

    #[test]
    fn plb_hits_on_spatial_locality() {
        let mut pm = FlatPosMap::new(1024, 64, 16, false);
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
        let mut pm = FlatPosMap::new(1024, 2, 1, false);
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
        let mut pm = FlatPosMap::new(4, 8, 4, false);
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
        let mut flat = FlatPosMap::new(64, 8, 4, false);
        let mut sparse = FlatPosMap::new(64, 8, 4, true);
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
