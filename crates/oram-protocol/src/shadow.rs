//! Shadow-block generation: duplication candidate queues (RD-queue and
//! HD-queue), the partitioning boundary between RD-Dup and HD-Dup, and the
//! DRI saturating counter that drives dynamic partitioning.
//!
//! Terminology (matching the paper): levels are numbered from the root
//! (level 0) to the leaves (level `L`). A path read proceeds root→leaf, so
//! a block at a *larger* level number is accessed *later* — that is the
//! "rear data" RD-Dup advances. HD-Dup instead wants the root-ward levels,
//! which are shared by many paths and therefore pulled into the stash most
//! often. The partitioning level `P` splits the tree: dummy slots at
//! levels `>= P` are filled by RD-Dup, slots at levels `< P` by HD-Dup.
//! Pure RD-Dup and pure HD-Dup are its two ends, `P = 0` and `P > L`.

use std::collections::BinaryHeap;

use crate::tree::TreeShape;
use crate::types::{Block, BlockAddr, LeafLabel, Version};

/// How dummy slots are (or are not) filled with shadow blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DupPolicy {
    /// Baseline Tiny ORAM: dummy slots stay dummy.
    Off,
    /// Static partitioning at a fixed level.
    Static {
        /// The partitioning level `P`: RD-Dup at levels `>= P`, HD-Dup
        /// below. Any `P` above the leaf level `L` makes every slot HD.
        partition_level: u32,
    },
    /// Dynamic partitioning driven by the DRI saturating counter.
    Dynamic {
        /// Width of the DRI counter in bits (the paper finds 3 optimal).
        counter_bits: u32,
    },
}

#[allow(non_upper_case_globals)]
impl DupPolicy {
    /// Pure Rear Data Duplication: partitioning level 0.
    pub const RdOnly: DupPolicy = DupPolicy::Static { partition_level: 0 };
    /// Pure Hot Data Duplication: a partitioning level above every leaf.
    pub const HdOnly: DupPolicy = DupPolicy::Static { partition_level: u32::MAX };

    /// Returns `true` if any duplication happens at all.
    pub fn is_enabled(self) -> bool {
        !matches!(self, DupPolicy::Off)
    }
}

/// A block eligible for duplication into a dummy slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DupCandidate {
    /// Program address of the copied block.
    pub addr: BlockAddr,
    /// Leaf label the copy is bound to (Rule-1 constrains placement to
    /// buckets on this label's path).
    pub label: LeafLabel,
    /// Payload.
    pub data: u64,
    /// Version stamp of the copy.
    pub version: Version,
    /// Level of the authoritative real copy in the tree; Rule-2 only
    /// permits shadows strictly closer to the root than this.
    pub real_level: u32,
    /// `true` when this candidate is a recirculated stash shadow rather
    /// than a block written back by the current path write (diagnostics).
    pub recirculated: bool,
}

impl DupCandidate {
    /// The candidate offering a copy of `block`, whose real copy sits at
    /// `real_level`.
    pub fn from_block(block: &Block, real_level: u32, recirculated: bool) -> Self {
        DupCandidate {
            addr: block.addr,
            label: block.label,
            data: block.data,
            version: block.version,
            real_level,
            recirculated,
        }
    }

    /// Materializes the shadow block for this candidate.
    pub fn to_shadow_block(&self) -> Block {
        Block {
            kind: crate::types::BlockKind::Shadow,
            addr: self.addr,
            label: self.label,
            data: self.data,
            version: self.version,
        }
    }

    /// Checks Rules 1 and 2 for placing this candidate's shadow at
    /// `slot_level` on the path to `eviction_leaf`. This is the statement
    /// of the rules; [`DupQueues`] evaluates it once per candidate, as the
    /// level from which the candidate is eligible.
    pub fn eligible_at(
        &self,
        shape: &TreeShape,
        eviction_leaf: LeafLabel,
        slot_level: u32,
    ) -> bool {
        slot_level < self.real_level && shape.common_level(eviction_leaf, self.label) >= slot_level
    }
}

/// Marks the end of a [`DupQueues`] filing list, and a popped candidate.
const NIL: u32 = u32::MAX;

/// One pooled candidate with what [`DupQueues::push`] precomputed for it.
#[derive(Debug, Clone, Copy)]
struct Queued {
    cand: DupCandidate,
    /// Deepest level shared with the eviction path (Rule-1 bound).
    common_level: u32,
    /// Hot Address Cache counter at push time.
    priority: u64,
    /// Position in the pool's order — the tie-break among equal keys —
    /// or [`NIL`] once popped.
    index: u32,
    /// Next candidate filed under the same level.
    next: u32,
}

/// The duplication candidate pool built during one path write.
///
/// The paper models this as two hardware queues (RD-queue sorted by level,
/// HD-queue sorted by Hot Address Cache counters) that are cleared when the
/// path write completes. Here one pool serves both orders: a path write
/// fills slots leaf to root, so a candidate eligible at one level stays
/// eligible at every shallower one. [`DupQueues::push`] files each
/// candidate under the level at which it first becomes eligible,
/// `min(real_level − 1, common_level)`; [`DupQueues::select`] moves the
/// lists of the levels it has reached into a max-heap keyed by the
/// scheme's order and takes the top. A pick costs O(log n) instead of a
/// scan of the pool, and the heap is re-keyed only when the scheme
/// changes — once per path write, at the partition boundary.
#[derive(Debug, Clone)]
pub struct DupQueues {
    shape: TreeShape,
    eviction_leaf: LeafLabel,
    /// Every candidate pushed since [`DupQueues::begin`], by id.
    pool: Vec<Queued>,
    /// Ids in pool order: `order[i]` has `index == i`. Chained picks
    /// leave it alone; a popped pick is `swap_remove`d, which moves the
    /// last candidate into the hole and so changes its tie-break.
    order: Vec<u32>,
    /// Head of the list of ids that become eligible at each level.
    filed: Vec<u32>,
    /// Levels `>= reached` have been moved into `heap`.
    reached: u32,
    /// Eligible candidates as [`HeapEntry`]s keyed per `keyed_for`. An
    /// entry whose index is no longer its candidate's is a leftover of a
    /// `swap_remove` and is skipped.
    heap: BinaryHeap<HeapEntry>,
    keyed_for: SlotScheme,
}

/// `(key, index, id)` packed most significant first, so one integer
/// comparison orders by key, then by place in the pool. The key is
/// `real_level` for [`SlotScheme::Rd`], `priority` for [`SlotScheme::Hd`].
type HeapEntry = u128;

fn heap_entry(q: &Queued, id: u32, keyed_for: SlotScheme) -> HeapEntry {
    let key = match keyed_for {
        SlotScheme::Hd => q.priority,
        _ => q.cand.real_level as u64,
    };
    (key as u128) << 64 | (q.index as u128) << 32 | id as u128
}

/// The `(index, id)` of a [`HeapEntry`].
fn unpack(entry: HeapEntry) -> (u32, u32) {
    ((entry >> 32) as u32, entry as u32)
}

impl DupQueues {
    /// An empty pool for path writes in a tree of `shape`, with room for
    /// `capacity` candidates per path write before it has to grow.
    pub fn new(shape: TreeShape, capacity: usize) -> Self {
        DupQueues {
            shape,
            eviction_leaf: LeafLabel::new(0),
            pool: Vec::with_capacity(capacity),
            order: Vec::with_capacity(capacity),
            filed: vec![NIL; shape.levels() as usize + 1],
            reached: shape.levels() + 1,
            // Each pop-mode pick can leave one stale entry behind.
            heap: BinaryHeap::with_capacity(capacity + shape.blocks_per_path()),
            keyed_for: SlotScheme::None,
        }
    }

    /// Empties the pool and starts the path write to `eviction_leaf`.
    pub fn begin(&mut self, eviction_leaf: LeafLabel) {
        self.eviction_leaf = eviction_leaf;
        self.pool.clear();
        self.order.clear();
        self.filed.fill(NIL);
        self.reached = self.shape.levels() + 1;
        self.heap.clear();
    }

    /// Number of candidates currently enqueued.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when no candidates are enqueued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Enqueues a candidate (a block just evicted deeper on this path, or a
    /// stash-resident shadow whose real copy sits in the tree). `priority`
    /// is its Hot Address Cache counter; only [`SlotScheme::Hd`] picks
    /// read it. Neither it nor the common level can change during a path
    /// write, so both are taken here, once.
    pub fn push(&mut self, cand: DupCandidate, priority: u64) {
        let id = self.pool.len() as u32;
        let common_level = self.shape.common_level(self.eviction_leaf, cand.label);
        self.pool.push(Queued {
            cand,
            common_level,
            priority,
            index: self.order.len() as u32,
            next: NIL,
        });
        self.order.push(id);
        if let Some(level) = self.eligible_from(id) {
            self.file(id, level);
        }
    }

    /// The deepest level at which `id` satisfies Rules 1 and 2 (it then
    /// does at every shallower level too): `min(real_level − 1,
    /// common_level)`. `None` for a real copy in the root, which Rule-2
    /// keeps out of every slot.
    fn eligible_from(&self, id: u32) -> Option<u32> {
        let q = &self.pool[id as usize];
        Some(q.cand.real_level.checked_sub(1)?.min(q.common_level))
    }

    /// Makes `id` eligible from `level` on: into the heap if the path
    /// write is already there, else onto that level's list.
    fn file(&mut self, id: u32, level: u32) {
        if level >= self.reached {
            self.heap.push(heap_entry(&self.pool[id as usize], id, self.keyed_for));
        } else {
            self.pool[id as usize].next = std::mem::replace(&mut self.filed[level as usize], id);
        }
    }

    /// Picks the candidate whose shadow fills a dummy slot at `slot_level`.
    ///
    /// [`SlotScheme::Rd`] takes, among the eligible candidates, the one
    /// whose most-root-ward copy sits at the **deepest** level (the rear
    /// data); [`SlotScheme::Hd`] the one with the highest Hot Address
    /// Cache counter (zero when uncached). Equal keys go to the candidate
    /// latest in pool order.
    ///
    /// With `chain` the pick is *not* removed: following the paper's
    /// Fig. 4 ("the level of Data-A has changed to level-1 after
    /// duplication"), its effective level becomes the new shadow's level,
    /// so the same block can keep climbing through dummy slots toward the
    /// root across the path write — that chain is what produces large
    /// advances. Without it the pick leaves the pool (the ablation mode).
    ///
    /// Returns the candidate as it was before the pick.
    ///
    /// # Panics
    ///
    /// Panics if `slot_level` is deeper than an earlier call's since
    /// [`DupQueues::begin`]: slots are filled leaf to root.
    pub fn select(
        &mut self,
        scheme: SlotScheme,
        slot_level: u32,
        chain: bool,
    ) -> Option<DupCandidate> {
        if scheme == SlotScheme::None {
            return None;
        }
        assert!(slot_level <= self.reached, "duplication slots must be filled leaf to root");
        if scheme != self.keyed_for {
            self.keyed_for = scheme;
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain_mut(|e| {
                let (index, id) = unpack(*e);
                let q = &self.pool[id as usize];
                *e = heap_entry(q, id, scheme);
                q.index == index
            });
            self.heap = BinaryHeap::from(entries);
        }
        while self.reached > slot_level {
            self.reached -= 1;
            let mut id = std::mem::replace(&mut self.filed[self.reached as usize], NIL);
            while id != NIL {
                let q = &self.pool[id as usize];
                self.heap.push(heap_entry(q, id, scheme));
                id = q.next;
            }
        }

        let (index, id) = loop {
            let (index, id) = unpack(self.heap.pop()?);
            if self.pool[id as usize].index == index {
                break (index as usize, id);
            }
        };
        let picked = self.pool[id as usize].cand;
        debug_assert!(picked.eligible_at(&self.shape, self.eviction_leaf, slot_level));
        if chain {
            self.pool[id as usize].cand.real_level = slot_level;
            if slot_level > 0 {
                self.file(id, slot_level - 1);
            }
        } else {
            self.pool[id as usize].index = NIL;
            self.order.swap_remove(index);
            if let Some(&moved) = self.order.get(index) {
                self.pool[moved as usize].index = index as u32;
                // If it is in the heap, that entry carries its old index:
                // add the one it now answers to.
                if self.eligible_from(moved).is_some_and(|level| level >= self.reached) {
                    self.heap.push(heap_entry(&self.pool[moved as usize], moved, self.keyed_for));
                }
            }
        }
        Some(picked)
    }
}

/// The saturating Data-Request-Interval counter (paper Sec. IV-D2).
///
/// The counter observes the request stream: a dummy request following a
/// real one signals a long DRI (+1, RD-Dup territory); two consecutive
/// real requests signal short DRIs (−1, HD-Dup territory). It saturates at
/// `0` and `2^bits − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DriCounter {
    bits: u32,
    value: u32,
    prev_was_real: Option<bool>,
}

impl DriCounter {
    /// Creates a counter of the given width, starting at the midpoint.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 16.
    pub fn new(bits: u32) -> Self {
        assert!((1..=16).contains(&bits), "counter width out of range");
        DriCounter { bits, value: 1 << (bits - 1), prev_was_real: None }
    }

    /// Maximum (saturated) value `2^bits − 1`.
    pub fn max(&self) -> u32 {
        (1 << self.bits) - 1
    }

    /// Current counter value.
    pub fn value(&self) -> u32 {
        self.value
    }

    /// Width in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Records one ORAM request (`is_real == false` for dummy requests).
    pub fn record(&mut self, is_real: bool) {
        if let Some(prev_real) = self.prev_was_real {
            if prev_real && !is_real {
                self.value = (self.value + 1).min(self.max());
            } else if prev_real && is_real {
                self.value = self.value.saturating_sub(1);
            }
        }
        self.prev_was_real = Some(is_real);
    }

    /// Long-DRI indication: the counter is at or above the half-maximum,
    /// meaning RD-Dup is preferred and the partitioning level should fall.
    pub fn prefers_rd(&self) -> bool {
        self.value >= self.max().div_ceil(2)
    }
}

/// Dynamic partitioning state: the DRI counter plus the partitioning-level
/// register it steers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicPartitioner {
    counter: DriCounter,
    level: u32,
    max_level: u32,
    /// Counter increments, decrements and level changes so far (see
    /// [`DynamicPartitioner::moves`]).
    moves: (u64, u64, u64),
}

impl DynamicPartitioner {
    /// Creates a dynamic partitioner for a tree whose deepest level is
    /// `max_level` (= `L`), starting at the midpoint level.
    pub fn new(counter_bits: u32, max_level: u32) -> Self {
        DynamicPartitioner {
            counter: DriCounter::new(counter_bits),
            level: max_level / 2,
            max_level,
            moves: (0, 0, 0),
        }
    }

    /// Current partitioning level.
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Counter increments, counter decrements and partitioning-level
    /// changes since construction. Transitions only: a saturated counter
    /// or a clamped level that does not move counts nothing.
    pub fn moves(&self) -> (u64, u64, u64) {
        self.moves
    }

    /// Feeds one request observation and nudges the partitioning level:
    /// short DRIs (counter below half) grow the HD-Dup region, long DRIs
    /// shrink it (paper Sec. IV-D2). Returns whether the level moved.
    pub fn on_request(&mut self, is_real: bool) -> bool {
        let (value, level) = (self.counter.value(), self.level);
        self.counter.record(is_real);
        if self.counter.prefers_rd() {
            self.level = self.level.saturating_sub(1);
        } else if self.level < self.max_level {
            self.level += 1;
        }
        self.moves.0 += u64::from(self.counter.value() > value);
        self.moves.1 += u64::from(self.counter.value() < value);
        self.moves.2 += u64::from(self.level != level);
        self.level != level
    }
}

/// Which duplication scheme a given dummy slot should use, resolved from
/// the policy and the current partitioning level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotScheme {
    /// Leave the slot dummy.
    None,
    /// Fill via RD-queue.
    Rd,
    /// Fill via HD-queue.
    Hd,
}

/// Resolves the scheme for a dummy slot at `slot_level` given the
/// partitioning level: RD-Dup at and below the boundary toward the leaves
/// (`slot_level >= partition_level`), HD-Dup toward the root.
pub fn scheme_for_slot(policy: DupPolicy, partition_level: u32, slot_level: u32) -> SlotScheme {
    match policy {
        DupPolicy::Off => SlotScheme::None,
        DupPolicy::Static { .. } | DupPolicy::Dynamic { .. } => {
            if slot_level >= partition_level {
                SlotScheme::Rd
            } else {
                SlotScheme::Hd
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hotcache::HotAddressCache;

    fn cand(addr: u64, label: u64, real_level: u32) -> DupCandidate {
        DupCandidate {
            addr: BlockAddr::new(addr),
            label: LeafLabel::new(label),
            data: addr * 10,
            version: 1,
            real_level,
            recirculated: false,
        }
    }

    #[test]
    fn eligibility_enforces_both_rules() {
        let shape = TreeShape::new(3, 2);
        let c = cand(1, 0b000, 2);
        let leaf = LeafLabel::new(0);
        assert!(c.eligible_at(&shape, leaf, 1), "root-ward slot on same path");
        assert!(!c.eligible_at(&shape, leaf, 2), "Rule-2: same level rejected");
        assert!(!c.eligible_at(&shape, leaf, 3), "Rule-2: deeper rejected");
        // A leaf that diverges immediately only shares the root.
        let far = LeafLabel::new(0b100);
        assert!(c.eligible_at(&shape, far, 0));
        assert!(!c.eligible_at(&shape, far, 1), "Rule-1: off-path rejected");
    }

    fn queues(shape: TreeShape) -> DupQueues {
        let mut q = DupQueues::new(shape, 8);
        q.begin(LeafLabel::new(0));
        q
    }

    #[test]
    fn rd_selection_prefers_deepest_real_copy() {
        let mut q = queues(TreeShape::new(3, 2));
        q.push(cand(1, 0, 2), 0);
        q.push(cand(2, 0, 3), 0); // rear data
        q.push(cand(3, 0, 1), 0);
        let picked = q.select(SlotScheme::Rd, 1, true).unwrap();
        assert_eq!(picked.addr, BlockAddr::new(2));
        assert_eq!(q.len(), 3, "candidates stay queued with updated level");
        // The same block is no longer eligible at the same level (its
        // effective level is now 1), so the next pick differs.
        let second = q.select(SlotScheme::Rd, 1, true).unwrap();
        assert_eq!(second.addr, BlockAddr::new(1));
        // At a shallower slot the chain continues: every candidate now
        // sits at effective level 1, and the latest queued wins the tie.
        let third = q.select(SlotScheme::Rd, 0, true).unwrap();
        assert_eq!(third.real_level, 1, "chain continues from level 1");
        assert_eq!(third.addr, BlockAddr::new(3));
    }

    #[test]
    fn hd_selection_prefers_hottest() {
        let mut hot = HotAddressCache::new(8, 2);
        for _ in 0..5 {
            hot.observe(BlockAddr::new(3));
        }
        hot.observe(BlockAddr::new(1));
        let mut q = queues(TreeShape::new(3, 2));
        for c in [cand(1, 0, 2), cand(3, 0, 2), cand(9, 0, 2)] {
            q.push(c, hot.priority(c.addr));
        }
        let picked = q.select(SlotScheme::Hd, 0, true).unwrap();
        assert_eq!(picked.addr, BlockAddr::new(3));
    }

    #[test]
    fn selection_respects_eligibility() {
        let mut q = queues(TreeShape::new(3, 2));
        q.push(cand(1, 0b100, 3), 0); // off-path below level 0 for leaf 0
        q.push(cand(2, 0, 0), 0); // real copy in the root: Rule-2 bars it everywhere
        assert!(q.select(SlotScheme::Rd, 1, true).is_none());
        assert_eq!(q.len(), 2, "ineligible candidates stay queued");
        assert_eq!(q.select(SlotScheme::Rd, 0, true).map(|c| c.addr), Some(BlockAddr::new(1)));
        assert!(q.select(SlotScheme::Rd, 0, true).is_none());
    }

    #[test]
    fn popped_pick_moves_the_last_candidate_into_its_place() {
        let mut q = queues(TreeShape::new(3, 2));
        for addr in 1..=4 {
            q.push(cand(addr, 0, if addr == 1 { 3 } else { 2 }), 0);
        }
        // Pool order 1 2 3 4: the deepest (1) goes first, and 4 takes its
        // index 0, so the tie among 2, 3, 4 now reads 4 2 3 — 3 is last.
        let picks: Vec<u64> = std::iter::from_fn(|| q.select(SlotScheme::Rd, 1, false))
            .map(|c| c.addr.raw())
            .collect();
        assert_eq!(picks, [1, 3, 2, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn scheme_change_rekeys_the_eligible_set() {
        let mut q = queues(TreeShape::new(3, 2));
        q.push(cand(1, 0, 3), 1); // deepest, coldest
        q.push(cand(2, 0, 2), 7); // shallower, hottest
        q.push(cand(3, 0, 2), 3);
        assert_eq!(q.select(SlotScheme::Rd, 1, true).map(|c| c.addr.raw()), Some(1));
        assert_eq!(q.select(SlotScheme::Hd, 1, true).map(|c| c.addr.raw()), Some(2));
        assert_eq!(q.select(SlotScheme::None, 1, true), None);
        // Level 0: all three climb again, hottest first.
        assert_eq!(q.select(SlotScheme::Hd, 0, true).map(|c| c.addr.raw()), Some(2));
        assert_eq!(q.select(SlotScheme::Rd, 0, true).map(|c| c.addr.raw()), Some(3));
    }

    #[test]
    fn shadow_block_carries_identity() {
        let c = cand(7, 3, 4);
        let b = c.to_shadow_block();
        assert!(b.is_shadow());
        assert_eq!(b.addr, c.addr);
        assert_eq!(b.label, c.label);
        assert_eq!(b.data, c.data);
    }

    #[test]
    fn dri_counter_saturates_both_ways() {
        let mut c = DriCounter::new(2); // range 0..=3, starts at 2
        c.record(true);
        for _ in 0..10 {
            c.record(false); // real→dummy once, then dummy→dummy (no-ops)
        }
        assert!(c.value() <= c.max());
        // Alternate real/dummy to pump it up.
        for _ in 0..10 {
            c.record(true);
            c.record(false);
        }
        assert_eq!(c.value(), c.max());
        assert!(c.prefers_rd());
        // Streams of real requests drive it to zero.
        for _ in 0..20 {
            c.record(true);
        }
        assert_eq!(c.value(), 0);
        assert!(!c.prefers_rd());
    }

    #[test]
    fn dri_counter_ignores_dummy_to_real() {
        let mut c = DriCounter::new(3);
        let start = c.value();
        c.record(false);
        c.record(true); // dummy→real: unchanged
        assert_eq!(c.value(), start);
    }

    #[test]
    fn dynamic_partitioner_moves_toward_hd_on_short_dris() {
        let mut p = DynamicPartitioner::new(3, 24);
        let start = p.level();
        for _ in 0..30 {
            p.on_request(true);
        }
        assert!(p.level() > start, "real-request streams grow the HD region");
        assert_eq!(p.level(), 24, "clamped at the leaf level");
    }

    #[test]
    fn dynamic_partitioner_moves_toward_rd_on_long_dris() {
        let mut p = DynamicPartitioner::new(3, 24);
        for _ in 0..40 {
            p.on_request(true);
            p.on_request(false);
        }
        assert_eq!(p.level(), 0, "dummy-laced streams shrink the HD region");
    }

    #[test]
    fn scheme_resolution() {
        use SlotScheme::*;
        assert_eq!(scheme_for_slot(DupPolicy::Off, 0, 5), None);
        assert_eq!(scheme_for_slot(DupPolicy::RdOnly, 0, 5), Rd);
        assert_eq!(scheme_for_slot(DupPolicy::HdOnly, u32::MAX, 5), Hd);
        let p = DupPolicy::Static { partition_level: 7 };
        assert_eq!(scheme_for_slot(p, 7, 7), Rd);
        assert_eq!(scheme_for_slot(p, 7, 10), Rd);
        assert_eq!(scheme_for_slot(p, 7, 6), Hd);
        assert_eq!(scheme_for_slot(p, 7, 0), Hd);
    }
}
