//! The on-chip stash: a small content-addressable memory that temporarily
//! holds data blocks between path reads and path writes.
//!
//! The stash follows the paper's hardware design (Sec. V-A):
//!
//! * every entry carries an *evicted bit* marking it **replaceable** — its
//!   slot counts as free for incoming blocks;
//! * shadow blocks are *always* replaceable the moment they are inserted
//!   (Rule-3), so duplication can never worsen stash occupancy;
//! * merge operations collapse multiple copies of the same address: the
//!   real copy wins over shadows, newer versions win over older ones;
//! * a shadow carries the tree level of its real copy, recorded when it
//!   enters. The real copy cannot move while the shadow is resident:
//!   whatever moves it brings it into the stash, where it merges over the
//!   shadow.

use oram_util::FixedAddrMap;

use crate::hotcache::HotAddressCache;
use crate::tree::TreeShape;
use crate::types::{Block, BlockAddr, LeafLabel, Version};

/// A slot's cached Hot Address Cache counter before it has been read.
const UNREAD: u64 = u64::MAX;

/// One stash entry: a decrypted block plus the evicted/replaceable bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StashEntry {
    /// The block held in this slot.
    pub block: Block,
    /// When set, this slot counts as free: its data also lives in the ORAM
    /// tree (an evicted real block or any shadow block) and may be
    /// overwritten by incoming blocks at any time.
    pub replaceable: bool,
}

/// Outcome of inserting a block into the stash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// Stored in a previously empty slot.
    Stored,
    /// Stored by overwriting a replaceable entry (whose address is given).
    ReplacedVictim(BlockAddr),
    /// Merged with an existing entry for the same address; the incoming
    /// copy was discarded as stale or redundant.
    MergedDiscardedIncoming,
    /// Merged with an existing entry for the same address; the incoming
    /// copy superseded the resident one (e.g. real over shadow).
    MergedUpgraded,
    /// The incoming block was a shadow and no slot was free; shadows are
    /// droppable, so it was silently discarded (never an overflow).
    ShadowDropped,
    /// A real block arrived with no free slot: stash overflow. The caller
    /// decides policy; the block was **not** stored.
    Overflow,
}

/// Running statistics for the stash.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StashStats {
    /// Lookups that found a usable entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Lookups that hit a shadow (or evicted-real) entry specifically.
    pub replaceable_hits: u64,
    /// Real-block inserts that found no free slot.
    pub overflows: u64,
    /// Shadow inserts dropped for lack of space.
    pub shadows_dropped: u64,
    /// High-water mark of live (non-replaceable) entries.
    pub max_live: usize,
    /// High-water mark of occupied slots (live + replaceable).
    pub max_occupied: usize,
}

/// The stash itself.
///
/// ```
/// use oram_protocol::{Stash, Block, BlockAddr, LeafLabel};
/// let mut stash = Stash::new(8);
/// let blk = Block::real(BlockAddr::new(3), LeafLabel::new(0), 7, 1);
/// stash.insert(blk);
/// assert_eq!(stash.lookup(BlockAddr::new(3)).map(|e| e.block.data), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct Stash {
    capacity: usize,
    slots: Vec<Option<StashEntry>>,
    /// CAM index: program address → slot. A fixed-capacity
    /// open-addressed table, so probes are two cache lines at worst and
    /// the stash never allocates after construction.
    index: FixedAddrMap,
    free: Vec<usize>,
    /// Live (non-replaceable) entry count, maintained incrementally so
    /// the high-water bookkeeping is O(1) per insert instead of a scan.
    live_count: usize,
    /// Replaceable sets, one bit per slot, kept in step with `slots` by
    /// [`Stash::sync_replaceable_bits`]: victim selection is a
    /// `trailing_zeros` instead of a scan of every slot.
    evicted_real: Vec<u64>,
    shadow: Vec<u64>,
    /// Per slot: the tree level of the real copy of the shadow held there
    /// (meaningless for other slots).
    real_levels: Vec<u32>,
    /// Per slot: the Hot Address Cache counter of the shadow held there,
    /// once read ([`Stash::recirculation_supply`]), or [`UNREAD`].
    priorities: Vec<u64>,
    /// The current eviction plan ([`Stash::plan_eviction`]): live real
    /// blocks as `(common level with the eviction leaf, slot)`, deepest
    /// first, drained from `plan_cursor` by [`Stash::pop_planned`].
    plan: Vec<(u32, u32)>,
    plan_cursor: usize,
    stats: StashStats,
}

impl Stash {
    /// Creates a stash with room for `capacity` blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "stash capacity must be positive");
        Stash {
            capacity,
            slots: vec![None; capacity],
            index: FixedAddrMap::with_capacity(capacity),
            free: (0..capacity).rev().collect(),
            live_count: 0,
            evicted_real: vec![0; capacity.div_ceil(64)],
            shadow: vec![0; capacity.div_ceil(64)],
            real_levels: vec![0; capacity],
            priorities: vec![UNREAD; capacity],
            plan: Vec::with_capacity(capacity),
            plan_cursor: 0,
            stats: StashStats::default(),
        }
    }

    /// Total slot capacity `M`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of occupied slots (live + replaceable).
    pub fn occupied(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// Number of live (non-replaceable) entries — the quantity that matters
    /// for stash-overflow analysis.
    pub fn live(&self) -> usize {
        debug_assert_eq!(self.check_live_count(), Ok(()));
        self.live_count
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StashStats {
        self.stats
    }

    /// Raw CAM probe by program address: returns the physical entry even
    /// when it is a freed (evicted-real) slot. Used by the merge logic;
    /// for request servicing use [`Stash::lookup`] / [`Stash::serving`].
    pub fn peek(&self, addr: BlockAddr) -> Option<&StashEntry> {
        self.index.get(addr.raw()).and_then(|i| self.slots[i as usize].as_ref())
    }

    /// The entry that would *serve* a request for `addr`, if any.
    ///
    /// Evicted real blocks are logically freed slots ("their corresponding
    /// positions in the stash become free slots", Sec. II-C): although
    /// their bits linger until overwritten, they do not answer lookups.
    /// Live real blocks always serve; shadow entries serve too — that is
    /// precisely how HD-Dup caches hot data on chip (Sec. IV-C2).
    pub fn serving(&self, addr: BlockAddr) -> Option<&StashEntry> {
        self.peek(addr).filter(|e| !(e.replaceable && e.block.is_real()))
    }

    /// CAM lookup by program address, recording hit/miss statistics.
    /// Applies the [`Stash::serving`] visibility rule.
    pub fn lookup(&mut self, addr: BlockAddr) -> Option<StashEntry> {
        match self.serving(addr).copied() {
            Some(e) => {
                self.stats.hits += 1;
                if e.replaceable {
                    self.stats.replaceable_hits += 1;
                }
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a real block, applying the merge rules; it is stored live.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `block` is not real.
    pub fn insert(&mut self, block: Block) -> InsertOutcome {
        debug_assert!(block.is_real(), "shadows enter through insert_shadow, dummies never");
        self.insert_block(block, 0)
    }

    /// Inserts a shadow block whose real copy sits at tree level
    /// `real_level`, applying the merge rules; it is stored replaceable
    /// (Rule-3).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `block` is not a shadow.
    pub fn insert_shadow(&mut self, block: Block, real_level: u32) -> InsertOutcome {
        debug_assert!(block.is_shadow(), "real blocks enter through insert");
        self.insert_block(block, real_level)
    }

    fn insert_block(&mut self, block: Block, real_level: u32) -> InsertOutcome {
        let incoming_replaceable = block.is_shadow();

        if let Some(slot) = self.index.get(block.addr.raw()) {
            return self.merge_at(slot as usize, block, real_level);
        }

        if let Some(slot) = self.free.pop() {
            self.store(slot, block, real_level);
            return InsertOutcome::Stored;
        }

        // No free slot: displace a replaceable victim. Incoming shadows
        // also qualify — replaceable slots are free slots (Rule-3), and a
        // freshly loaded shadow is the mechanism by which HD-Dup caches hot
        // data on chip.
        if let Some((slot, victim_addr)) = self.find_replaceable_victim() {
            // A replaceable victim leaves the live count as it is.
            self.index.remove(victim_addr.raw());
            self.slots[slot] = None;
            self.store(slot, block, real_level);
            return InsertOutcome::ReplacedVictim(victim_addr);
        }

        if incoming_replaceable {
            self.stats.shadows_dropped += 1;
            InsertOutcome::ShadowDropped
        } else {
            self.stats.overflows += 1;
            InsertOutcome::Overflow
        }
    }

    /// Merge an incoming copy with the resident entry at `slot`.
    fn merge_at(&mut self, slot: usize, block: Block, real_level: u32) -> InsertOutcome {
        let resident = self.slots[slot].as_ref().expect("indexed slot must be occupied");
        debug_assert_eq!(resident.block.addr, block.addr);

        let upgrade = match block.version.cmp(&resident.block.version) {
            std::cmp::Ordering::Greater => true,
            std::cmp::Ordering::Less => false,
            std::cmp::Ordering::Equal => {
                // Same version: the real copy wins over a shadow; otherwise
                // the resident stays (duplicate shadows merge into one,
                // duplicate reals are bit-identical).
                block.is_real() && resident.block.is_shadow()
            }
        };

        if upgrade {
            // A real copy arriving over a shadow keeps the data live; a
            // newer version always re-arms the entry as live if it is real.
            let (was, incoming_replaceable) = (resident.replaceable, block.is_shadow());
            self.note_replaceable_change(was, incoming_replaceable);
            self.slots[slot] = Some(StashEntry { block, replaceable: incoming_replaceable });
            self.real_levels[slot] = real_level;
            self.priorities[slot] = UNREAD;
            self.sync_replaceable_bits(slot);
            self.touch_high_water();
            InsertOutcome::MergedUpgraded
        } else {
            InsertOutcome::MergedDiscardedIncoming
        }
    }

    fn store(&mut self, slot: usize, block: Block, real_level: u32) {
        debug_assert!(self.slots[slot].is_none());
        let replaceable = block.is_shadow();
        self.slots[slot] = Some(StashEntry { block, replaceable });
        self.real_levels[slot] = real_level;
        self.priorities[slot] = UNREAD;
        self.sync_replaceable_bits(slot);
        self.index.insert(block.addr.raw(), slot as u32);
        if !replaceable {
            self.live_count += 1;
        }
        self.touch_high_water();
    }

    /// Updates the live counter for a replaceable-bit transition.
    fn note_replaceable_change(&mut self, was: bool, now: bool) {
        match (was, now) {
            (true, false) => self.live_count += 1,
            (false, true) => self.live_count -= 1,
            _ => {}
        }
    }

    fn touch_high_water(&mut self) {
        let occ = self.occupied();
        if occ > self.stats.max_occupied {
            self.stats.max_occupied = occ;
        }
        if self.live_count > self.stats.max_live {
            self.stats.max_live = self.live_count;
        }
    }

    /// The slot an incoming block displaces when no slot is free, with
    /// the address it holds: the lowest-index evicted-real entry, else
    /// the lowest-index shadow.
    fn find_replaceable_victim(&self) -> Option<(usize, BlockAddr)> {
        // Prefer displacing evicted-real entries: their data lives intact
        // in the tree, while resident shadows double as HD-Dup's on-chip
        // cache and the recirculation supply for future duplication, so
        // shadows are victimized only when no other replaceable exists.
        let slot = first_bit(&self.evicted_real).or_else(|| first_bit(&self.shadow))?;
        let entry = self.slots[slot].as_ref().expect("replaceable bit set on an empty slot");
        Some((slot, entry.block.addr))
    }

    /// Re-derives `slot`'s bits in the two replaceable sets from its
    /// entry. Every site that changes `slots[slot]` or its replaceable
    /// flag ends with this call.
    fn sync_replaceable_bits(&mut self, slot: usize) {
        let (evicted_real, shadow) = match &self.slots[slot] {
            Some(e) if e.replaceable => (e.block.is_real(), e.block.is_shadow()),
            _ => (false, false),
        };
        set_bit(&mut self.evicted_real, slot, evicted_real);
        set_bit(&mut self.shadow, slot, shadow);
    }

    /// Removes the entry for `addr` entirely (used when a block is
    /// invalidated rather than evicted).
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Block> {
        let slot = self.index.get(addr.raw())? as usize;
        let e = self.slots[slot].take()?;
        self.sync_replaceable_bits(slot);
        self.index.remove(addr.raw());
        if !e.replaceable {
            self.live_count -= 1;
        }
        self.free.push(slot);
        Some(e.block)
    }

    /// Overwrites the payload of a resident entry (a CPU write hitting the
    /// stash). The entry is promoted to a live real block with the given
    /// version; if it was a shadow or an evicted-real copy, the tree copies
    /// become stale and will be discarded by the version check on load.
    ///
    /// Returns `false` if `addr` is not resident.
    pub fn write(&mut self, addr: BlockAddr, data: u64, version: Version) -> bool {
        let Some(slot) = self.index.get(addr.raw()) else {
            return false;
        };
        let Some(entry) = self.slots[slot as usize].as_mut() else {
            return false;
        };
        entry.block = Block::real(addr, entry.block.label, data, version);
        let was = std::mem::replace(&mut entry.replaceable, false);
        self.note_replaceable_change(was, false);
        self.sync_replaceable_bits(slot as usize);
        self.touch_high_water();
        true
    }

    /// Forces the resident entry for `addr` live (non-replaceable). Used by
    /// the eviction read: blocks pulled off a path that is about to be
    /// rewritten must not be victimized before the write half re-places
    /// them. Returns `false` if `addr` is not resident.
    pub fn ensure_live(&mut self, addr: BlockAddr) -> bool {
        let Some(slot) = self.index.get(addr.raw()) else {
            return false;
        };
        let Some(entry) = self.slots[slot as usize].as_mut() else {
            return false;
        };
        if entry.block.is_real() {
            let was = std::mem::replace(&mut entry.replaceable, false);
            self.note_replaceable_change(was, false);
            self.sync_replaceable_bits(slot as usize);
            self.touch_high_water();
        }
        true
    }

    /// Plans the write half of an eviction to `eviction_leaf`: lists the
    /// live real blocks with the deepest level their label's path shares
    /// with the eviction path, ordered deepest first (lowest slot first
    /// among equals) — Path ORAM's "as deep as possible" greedy, sorted
    /// once instead of searched once per path slot.
    /// [`Stash::pop_planned`] drains the plan; any other mutation of the
    /// stash invalidates it.
    pub fn plan_eviction(&mut self, shape: &TreeShape, eviction_leaf: LeafLabel) {
        self.plan.clear();
        self.plan_cursor = 0;
        for (slot, entry) in self.slots.iter().enumerate() {
            if let Some(e) = entry {
                if !e.replaceable && e.block.is_real() {
                    let common = shape.common_level(eviction_leaf, e.block.label);
                    self.plan.push((common, slot as u32));
                }
            }
        }
        self.plan.sort_unstable_by_key(|&(common, slot)| (std::cmp::Reverse(common), slot));
    }

    /// Takes the next planned block if it fits the bucket at `slot_level`
    /// (its label's path passes through that bucket), marking it evicted
    /// (replaceable) and returning the copy to write back. Levels must be
    /// asked leaf to root: a block that fits no deeper level is the best
    /// fit for every shallower one it reaches.
    pub fn pop_planned(&mut self, slot_level: u32) -> Option<Block> {
        let &(common, slot) = self.plan.get(self.plan_cursor)?;
        if common < slot_level {
            return None;
        }
        self.plan_cursor += 1;
        debug_assert!(
            self.slots[slot as usize].is_some_and(|e| !e.replaceable && e.block.is_real()),
            "the stash changed under its eviction plan"
        );
        Some(self.mark_slot_evicted(slot as usize))
    }

    /// Marks `addr` as evicted (replaceable) after it has been written back
    /// to the tree, returning a copy of the block that was written.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not resident.
    pub fn mark_evicted(&mut self, addr: BlockAddr) -> Block {
        let slot = self.index.get(addr.raw()).expect("evicted block resident") as usize;
        self.mark_slot_evicted(slot)
    }

    fn mark_slot_evicted(&mut self, slot: usize) -> Block {
        let entry = self.slots[slot].as_mut().expect("selected entry present");
        let was = std::mem::replace(&mut entry.replaceable, true);
        let block = entry.block;
        self.note_replaceable_change(was, true);
        self.sync_replaceable_bits(slot);
        block
    }

    /// Iterates over resident shadow entries (duplication candidates whose
    /// real copy lives in the tree), in slot order, each with the tree
    /// level of its real copy. A shadow entry is always replaceable, so
    /// the shadow bitset names exactly these slots.
    pub fn shadow_entries(&self) -> impl Iterator<Item = (&StashEntry, u32)> {
        set_bits(&self.shadow).map(|slot| {
            let entry = self.slots[slot].as_ref().expect("shadow bit set on an empty slot");
            (entry, self.real_levels[slot])
        })
    }

    /// The resident shadows in slot order, each with the tree level of its
    /// real copy and its counter in `hot` (zero without one). A counter is
    /// read once and cached in the slot until the shadow leaves or
    /// [`Stash::forget_priority`] names its address.
    pub fn recirculation_supply<'a>(
        &'a mut self,
        hot: Option<&'a HotAddressCache>,
    ) -> impl Iterator<Item = (Block, u32, u64)> + 'a {
        let (slots, levels, priorities) = (&self.slots, &self.real_levels, &mut self.priorities);
        set_bits(&self.shadow).map(move |slot| {
            let block = slots[slot].as_ref().expect("shadow bit set on an empty slot").block;
            let priority = hot.map_or(0, |hot| {
                if priorities[slot] == UNREAD {
                    priorities[slot] = hot.priority(block.addr);
                }
                priorities[slot]
            });
            (block, levels[slot], priority)
        })
    }

    /// Drops the cached counter of `addr`'s shadow, if one is resident:
    /// the Hot Address Cache changed it.
    pub fn forget_priority(&mut self, addr: BlockAddr) {
        if let Some(slot) = self.index.get(addr.raw()) {
            self.priorities[slot as usize] = UNREAD;
        }
    }

    /// Checks every cached shadow counter against `hot`.
    ///
    /// # Errors
    ///
    /// Returns the first shadow whose cached counter is not its counter.
    pub fn check_priorities(&self, hot: &HotAddressCache) -> Result<(), String> {
        for slot in set_bits(&self.shadow) {
            let addr =
                self.slots[slot].as_ref().expect("shadow bit set on an empty slot").block.addr;
            let cached = self.priorities[slot];
            if cached != UNREAD && cached != hot.priority(addr) {
                return Err(format!(
                    "stash shadow of {addr} caches counter {cached}, not {}",
                    hot.priority(addr)
                ));
            }
        }
        Ok(())
    }

    /// Iterates over all occupied entries.
    pub fn entries(&self) -> impl Iterator<Item = &StashEntry> {
        self.slots.iter().flatten()
    }

    /// Checks the incrementally kept live count against a recount of the
    /// live entries.
    ///
    /// # Errors
    ///
    /// Returns both numbers when they differ.
    pub fn check_live_count(&self) -> Result<(), String> {
        let recount = self.entries().filter(|e| !e.replaceable).count();
        if recount == self.live_count {
            Ok(())
        } else {
            Err(format!("stash live count {} != {recount} live entries", self.live_count))
        }
    }
}

/// Sets or clears `slot`'s bit in a slot bitset.
fn set_bit(words: &mut [u64], slot: usize, on: bool) {
    let bit = 1u64 << (slot % 64);
    if on {
        words[slot / 64] |= bit;
    } else {
        words[slot / 64] &= !bit;
    }
}

/// The lowest set bit of a slot bitset.
fn first_bit(words: &[u64]) -> Option<usize> {
    let (i, w) = words.iter().enumerate().find(|(_, &w)| w != 0)?;
    Some(i * 64 + w.trailing_zeros() as usize)
}

/// Indices of the set bits of a slot bitset, ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(i, &w)| {
        std::iter::successors((w != 0).then_some(w), |&w| Some(w & (w - 1)).filter(|&w| w != 0))
            .map(move |w| i * 64 + w.trailing_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn real(addr: u64, label: u64, data: u64, ver: u64) -> Block {
        Block::real(BlockAddr::new(addr), LeafLabel::new(label), data, ver)
    }

    #[test]
    fn insert_and_lookup() {
        let mut s = Stash::new(4);
        assert_eq!(s.insert(real(1, 0, 10, 1)), InsertOutcome::Stored);
        assert_eq!(s.lookup(BlockAddr::new(1)).unwrap().block.data, 10);
        assert!(s.lookup(BlockAddr::new(2)).is_none());
        assert_eq!(s.stats().hits, 1);
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn shadow_is_replaceable_on_insert() {
        let mut s = Stash::new(4);
        let sh = real(1, 0, 10, 1).to_shadow();
        s.insert_shadow(sh, 1);
        let e = s.peek(BlockAddr::new(1)).unwrap();
        assert!(e.replaceable);
        assert!(e.block.is_shadow());
        assert_eq!(s.live(), 0);
    }

    #[test]
    fn real_overwrites_shadow_on_merge() {
        let mut s = Stash::new(4);
        s.insert_shadow(real(1, 0, 10, 1).to_shadow(), 1);
        assert_eq!(s.insert(real(1, 0, 10, 1)), InsertOutcome::MergedUpgraded);
        let e = s.peek(BlockAddr::new(1)).unwrap();
        assert!(e.block.is_real());
        assert!(!e.replaceable);
    }

    #[test]
    fn stale_copy_is_discarded_on_merge() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 20, 5));
        assert_eq!(s.insert(real(1, 0, 10, 3)), InsertOutcome::MergedDiscardedIncoming);
        assert_eq!(s.peek(BlockAddr::new(1)).unwrap().block.data, 20);
    }

    #[test]
    fn newer_version_supersedes() {
        let mut s = Stash::new(4);
        s.insert_shadow(real(1, 0, 10, 1).to_shadow(), 1);
        assert_eq!(s.insert(real(1, 0, 30, 2)), InsertOutcome::MergedUpgraded);
        assert_eq!(s.peek(BlockAddr::new(1)).unwrap().block.data, 30);
    }

    #[test]
    fn duplicate_shadows_merge_to_one() {
        let mut s = Stash::new(4);
        s.insert_shadow(real(1, 0, 10, 1).to_shadow(), 1);
        assert_eq!(
            s.insert_shadow(real(1, 0, 10, 1).to_shadow(), 1),
            InsertOutcome::MergedDiscardedIncoming
        );
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn real_block_displaces_replaceable_victim() {
        let mut s = Stash::new(2);
        s.insert_shadow(real(1, 0, 10, 1).to_shadow(), 1);
        s.insert(real(2, 0, 20, 1));
        // Stash full: 1 shadow (replaceable) + 1 live.
        let out = s.insert(real(3, 0, 30, 1));
        assert_eq!(out, InsertOutcome::ReplacedVictim(BlockAddr::new(1)));
        assert!(s.peek(BlockAddr::new(1)).is_none());
        assert!(s.peek(BlockAddr::new(3)).is_some());
    }

    #[test]
    fn incoming_shadow_dropped_when_full() {
        let mut s = Stash::new(2);
        s.insert(real(1, 0, 10, 1));
        s.insert(real(2, 0, 20, 1));
        let out = s.insert_shadow(real(3, 0, 30, 1).to_shadow(), 1);
        assert_eq!(out, InsertOutcome::ShadowDropped);
        assert_eq!(s.stats().shadows_dropped, 1);
        assert_eq!(s.stats().overflows, 0);
    }

    #[test]
    fn real_overflow_when_full_of_live_blocks() {
        let mut s = Stash::new(2);
        s.insert(real(1, 0, 10, 1));
        s.insert(real(2, 0, 20, 1));
        assert_eq!(s.insert(real(3, 0, 30, 1)), InsertOutcome::Overflow);
        assert_eq!(s.stats().overflows, 1);
    }

    #[test]
    fn write_promotes_shadow_to_live_real() {
        let mut s = Stash::new(4);
        s.insert_shadow(real(1, 3, 10, 1).to_shadow(), 1);
        assert!(s.write(BlockAddr::new(1), 77, 2));
        let e = s.peek(BlockAddr::new(1)).unwrap();
        assert!(e.block.is_real());
        assert!(!e.replaceable);
        assert_eq!(e.block.data, 77);
        assert_eq!(e.block.version, 2);
        assert_eq!(e.block.label.raw(), 3, "label preserved on promote");
    }

    #[test]
    fn eviction_selection_prefers_deepest_fit() {
        let shape = TreeShape::new(3, 2);
        let mut s = Stash::new(8);
        // Eviction to leaf 0 (path 0b000).
        s.insert(real(1, 0b100, 0, 1)); // shares only root
        s.insert(real(2, 0b001, 0, 1)); // shares levels 0..=2
        s.insert(real(3, 0b000, 0, 1)); // shares full path
        s.plan_eviction(&shape, LeafLabel::new(0));
        let mut pop = |level| s.pop_planned(level).map(|b| b.addr.raw());
        // For the leaf-level slot only blk 3 qualifies.
        assert_eq!(pop(3), Some(3));
        assert_eq!(pop(3), None);
        // With blk 3 evicted, blk 2 is the deepest fit at level ≤ 2.
        assert_eq!(pop(2), Some(2));
        assert_eq!(pop(1), None, "blk 1 only reaches the root");
        assert_eq!(pop(0), Some(1));
        assert_eq!(pop(0), None);
        assert_eq!(s.live(), 0, "every planned block was marked evicted");
    }

    #[test]
    fn victim_is_lowest_evicted_real_then_lowest_shadow() {
        let mut s = Stash::new(70); // two bitset words
        for a in 0..70 {
            s.insert(real(a, 0, a, 1));
        }
        s.remove(BlockAddr::new(3));
        s.insert_shadow(real(3, 0, 0, 1).to_shadow(), 1); // slot 3: shadow
        s.mark_evicted(BlockAddr::new(66)); // slot 66: evicted real
        s.mark_evicted(BlockAddr::new(9)); // slot 9: evicted real
        let outcomes: Vec<_> = (100..104).map(|a| s.insert(real(a, 0, 0, 1))).collect();
        let replaced = |a| InsertOutcome::ReplacedVictim(BlockAddr::new(a));
        assert_eq!(outcomes, [replaced(9), replaced(66), replaced(3), InsertOutcome::Overflow]);
        // A promoted entry leaves the replaceable sets.
        s.mark_evicted(BlockAddr::new(5));
        s.write(BlockAddr::new(5), 1, 2);
        assert_eq!(s.insert(real(200, 0, 0, 1)), InsertOutcome::Overflow);
    }

    /// The shadow bitset names the shadow entries a slot scan finds, in
    /// the same order and with the levels they were inserted with, across
    /// bitset words and through every kind of slot change.
    #[test]
    fn shadow_entries_match_a_slot_scan() {
        let mut s = Stash::new(150); // three bitset words
        let mut rng = oram_util::Rng64::seed_from_u64(11);
        // The level each address's shadows carry.
        let level = |a: BlockAddr| (a.raw() % 13) as u32;
        for _ in 0..4000 {
            let addr = rng.below(300);
            let a = BlockAddr::new(addr);
            match rng.below(5) {
                0 => _ = s.remove(a),
                1 => _ = s.write(a, 7, rng.below(4)),
                2 if s.peek(a).is_some_and(|e| !e.replaceable) => _ = s.mark_evicted(a),
                3 => _ = s.insert(real(addr, 0, addr, rng.below(4))),
                _ => _ = s.insert_shadow(real(addr, 0, addr, rng.below(4)).to_shadow(), level(a)),
            }
            let scan = s.slots.iter().flatten().filter(|e| e.block.is_shadow());
            assert!(s.shadow_entries().map(|(e, _)| e).eq(scan));
            assert!(s.shadow_entries().all(|(e, l)| l == level(e.block.addr)));
        }
        assert!(s.shadow_entries().count() > 0);
    }

    #[test]
    fn mark_evicted_keeps_entry_replaceable() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 10, 1));
        let b = s.mark_evicted(BlockAddr::new(1));
        assert_eq!(b.data, 10);
        assert!(s.peek(BlockAddr::new(1)).unwrap().replaceable);
        assert_eq!(s.live(), 0);
        assert_eq!(s.occupied(), 1);
    }

    #[test]
    fn high_water_marks_track() {
        let mut s = Stash::new(4);
        s.insert(real(1, 0, 0, 1));
        s.insert(real(2, 0, 0, 1));
        s.mark_evicted(BlockAddr::new(2));
        s.insert_shadow(real(3, 0, 0, 1).to_shadow(), 1);
        assert_eq!(s.stats().max_live, 2);
        assert_eq!(s.stats().max_occupied, 3);
    }
}
