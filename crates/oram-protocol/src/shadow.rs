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

/// Marks a candidate eligible at no level (its real copy sits in the
/// root).
const NIL: u32 = u32::MAX;

/// Row of [`DupQueues::rows`]: the positions eligible at the current level.
const ELIGIBLE: usize = 0;
/// First row of [`DupQueues::rows`] that files positions by the level at
/// which they become eligible, one row per level from the root.
const FILED: usize = 1;

/// One candidate of the pool with what [`DupQueues::push`] took for it.
#[derive(Debug, Clone, Copy)]
struct Pooled {
    cand: DupCandidate,
    /// Deepest level at which it satisfies Rules 1 and 2 (it then does at
    /// every shallower one), or [`NIL`].
    from: u32,
    /// Hot Address Cache counter.
    priority: u64,
}

/// The duplication candidate pool built during one path write.
///
/// The paper models this as two hardware queues (RD-queue sorted by level,
/// HD-queue sorted by Hot Address Cache counters) that are cleared when the
/// path write completes. Here one pool serves both orders: a path write
/// fills slots leaf to root, so a candidate eligible at one level stays
/// eligible at every shallower one. [`DupQueues::push`] files each
/// candidate's position in pool order under the level at which it first
/// becomes eligible, `min(real_level − 1, common_level)`, and under its
/// real level, in bitsets over pool positions. Reaching a level ORs its
/// row into the eligible set, so candidates are not ordered one by one:
///
/// * an RD pick is the highest eligible position under the deepest real
///   level that has one — at most `L` rows of a few words;
/// * an HD pick is the hottest eligible candidate with a non-zero counter
///   (a cached address) or, when none is eligible, the highest eligible
///   position. A chained pick keeps its counter and is eligible again one
///   level up, so a candidate below the `Z` hottest that became eligible
///   with it is never the hottest at a level of `Z` slots: each level
///   keeps the `Z` hottest filed under it, reaching the level merges them
///   into the `Z` hottest eligible, and a pick is the first of those still
///   eligible at its level. Without chaining picks leave for good, and a
///   heap ranks every candidate with a non-zero counter.
#[derive(Debug, Clone)]
pub struct DupQueues {
    shape: TreeShape,
    eviction_leaf: LeafLabel,
    chain: bool,
    /// Slots at levels below it are filled by HD picks, the others by RD.
    hd_below: u32,
    /// Every candidate in the pool, in pool order: a position is the
    /// tie-break among equal keys. Chained picks leave the order alone; a
    /// popped pick is `swap_remove`d, which moves the last candidate into
    /// the hole and so changes its tie-break.
    pool: Vec<Pooled>,
    /// Bitsets over pool positions, `words` words each: [`ELIGIBLE`], the
    /// filed rows from [`FILED`] (one per level), then one row per real
    /// level (the RD key), root first.
    rows: Vec<u64>,
    words: usize,
    /// Levels `>= reached` have been ORed into [`ELIGIBLE`].
    reached: u32,
    /// With chaining, per level: the `Z` hottest candidates filed there
    /// by [`DupQueues::push`] (non-zero counters), hottest first,
    /// zero-padded.
    tops: Vec<HeapEntry>,
    /// With chaining, while keyed for [`SlotScheme::Hd`]: the `Z` hottest
    /// eligible candidates with a non-zero counter, hottest first,
    /// zero-padded.
    best: Vec<HeapEntry>,
    /// Without chaining, while keyed for [`SlotScheme::Hd`]: candidates
    /// with a non-zero counter that may be the hottest eligible one. An
    /// entry whose position is not eligible under that counter is skipped.
    hot: BinaryHeap<HeapEntry>,
    keyed_for: SlotScheme,
    /// The level of the latest pick and the picks made at it.
    picks_at: (u32, usize),
}

/// `(priority, position)` packed most significant first, so one integer
/// comparison orders by counter, then by place in the pool: the HD key
/// [`DupQueues::tops`], `best` and `hot` hold. Never zero, since only
/// non-zero counters are ranked.
type HeapEntry = u128;

fn heap_entry(priority: u64, pos: usize) -> HeapEntry {
    (priority as u128) << 64 | pos as u128
}

/// Inserts `entry` into `top`, hottest first, if it beats the coldest,
/// which falls off the end.
#[inline]
fn insert_hottest(top: &mut [HeapEntry], entry: HeapEntry) {
    let Some(&coldest) = top.last() else { return };
    if entry <= coldest {
        return;
    }
    let mut at = top.len() - 1;
    while at > 0 && top[at - 1] < entry {
        top[at] = top[at - 1];
        at -= 1;
    }
    top[at] = entry;
}

/// The highest position set in both `a` and `b`.
fn highest_common(a: &[u64], b: &[u64]) -> Option<usize> {
    let (w, word) = a.iter().zip(b).map(|(x, y)| x & y).enumerate().rfind(|&(_, w)| w != 0)?;
    Some(w * 64 + 63 - word.leading_zeros() as usize)
}

impl DupQueues {
    /// An empty pool for path writes in a tree of `shape`, with room for
    /// `capacity` candidates per path write before it has to grow.
    pub fn new(shape: TreeShape, capacity: usize) -> Self {
        let words = capacity.div_ceil(64).max(1);
        let levels = shape.levels() as usize + 1;
        DupQueues {
            shape,
            eviction_leaf: LeafLabel::new(0),
            chain: true,
            hd_below: 0,
            pool: Vec::with_capacity(capacity),
            rows: vec![0; (FILED + 2 * levels) * words],
            words,
            reached: shape.levels() + 1,
            // Each pop-mode pick can leave one stale entry behind.
            hot: BinaryHeap::with_capacity(capacity + shape.blocks_per_path()),
            tops: vec![0; levels * shape.slots_per_bucket()],
            best: vec![0; shape.slots_per_bucket()],
            keyed_for: SlotScheme::None,
            picks_at: (NIL, 0),
        }
    }

    /// Empties the pool and starts the path write to `eviction_leaf`,
    /// whose dummy slots at levels below `hd_below` are filled by HD picks
    /// and the others by RD picks — the partitioning level
    /// ([`scheme_for_slot`]). With `chain` its picks stay in the pool
    /// ([`DupQueues::select`]).
    pub fn begin(&mut self, eviction_leaf: LeafLabel, chain: bool, hd_below: u32) {
        self.eviction_leaf = eviction_leaf;
        self.chain = chain;
        self.hd_below = hd_below;
        self.pool.clear();
        self.rows.fill(0);
        self.reached = self.shape.levels() + 1;
        self.tops.fill(0);
        self.best.fill(0);
        self.hot.clear();
        self.keyed_for = SlotScheme::None;
        self.picks_at = (NIL, 0);
    }

    /// Number of candidates currently enqueued.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Returns `true` when no candidates are enqueued.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Enqueues a candidate (a block just evicted deeper on this path, or a
    /// stash-resident shadow whose real copy sits in the tree). `priority`
    /// is its Hot Address Cache counter; only [`SlotScheme::Hd`] picks
    /// read it. Neither it nor the common level can change during a path
    /// write, so both are taken here, once.
    ///
    /// # Panics
    ///
    /// Panics if `cand.real_level` is deeper than the leaves.
    #[inline]
    pub fn push(&mut self, cand: DupCandidate, priority: u64) {
        let pos = self.pool.len();
        if pos == self.words * 64 {
            self.grow();
        }
        self.pool.push(Pooled { cand, from: self.eligible_from(&cand), priority });
        self.place(pos);
    }

    /// `min(real_level − 1, common_level)`, or [`NIL`] for a real copy in
    /// the root.
    ///
    /// # Panics
    ///
    /// Panics if `cand.real_level` is deeper than the leaves.
    #[inline]
    fn eligible_from(&self, cand: &DupCandidate) -> u32 {
        assert!(cand.real_level <= self.shape.levels(), "real copy below the leaves");
        let common_level = self.shape.common_level(self.eviction_leaf, cand.label);
        cand.real_level.checked_sub(1).map_or(NIL, |l| l.min(common_level))
    }

    /// Files the candidate just stored at `pos` under its real level (only
    /// RD picks read that, so only if RD slots can take it), and with
    /// chaining among the hottest of its level.
    #[inline]
    fn place(&mut self, pos: usize) {
        let Pooled { cand, from, priority } = self.pool[pos];
        if from != NIL && from >= self.hd_below {
            self.set(self.keyed_row(cand.real_level), pos, true);
        }
        if self.chain && priority > 0 && from != NIL {
            let (z, entry) = (self.shape.slots_per_bucket(), heap_entry(priority, pos));
            insert_hottest(&mut self.tops[from as usize * z..][..z], entry);
        }
        self.file(pos);
    }

    /// Doubles the positions every row holds.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let words = self.words * 2;
        let mut rows = vec![0; self.rows.len() / self.words * words];
        for (old, new) in self.rows.chunks(self.words).zip(rows.chunks_mut(words)) {
            new[..self.words].copy_from_slice(old);
        }
        (self.rows, self.words) = (rows, words);
    }

    /// The row of the candidates whose real copy sits at `real_level`.
    #[inline]
    fn keyed_row(&self, real_level: u32) -> usize {
        FILED + self.shape.levels() as usize + 1 + real_level as usize
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.rows[row * self.words..(row + 1) * self.words]
    }

    fn contains(&self, row: usize, pos: usize) -> bool {
        self.rows[row * self.words + pos / 64] & 1 << (pos % 64) != 0
    }

    #[inline]
    fn set(&mut self, row: usize, pos: usize, on: bool) {
        let (word, bit) = (&mut self.rows[row * self.words + pos / 64], 1u64 << (pos % 64));
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Moves `row`'s bit for position `from` to position `to`.
    fn move_bit(&mut self, row: usize, from: usize, to: usize) {
        let on = self.contains(row, from);
        self.set(row, from, false);
        self.set(row, to, on);
    }

    /// Makes the candidate at `pos` eligible from its level on: at once if
    /// the path write is already there, else in that level's row. (A
    /// chained pick filed again is still among `best`.)
    #[inline]
    fn file(&mut self, pos: usize) {
        let Pooled { from, priority, .. } = self.pool[pos];
        if from == NIL {
        } else if from < self.reached {
            self.set(FILED + from as usize, pos, true);
        } else {
            self.set(ELIGIBLE, pos, true);
            if self.keyed_for == SlotScheme::Hd && priority > 0 {
                self.rank(heap_entry(priority, pos));
            }
        }
    }

    /// Ranks an eligible candidate's entry for HD picks.
    fn rank(&mut self, entry: HeapEntry) {
        if self.chain {
            insert_hottest(&mut self.best, entry);
        } else {
            self.hot.push(entry);
        }
    }

    /// Ranks the candidates filed under `level` that may be the hottest
    /// eligible one: with chaining the level's `Z` hottest, else every one
    /// with a non-zero counter.
    fn rank_level(&mut self, level: u32) {
        if self.chain {
            let z = self.shape.slots_per_bucket();
            for i in 0..z {
                match self.tops[level as usize * z + i] {
                    0 => break,
                    entry => self.rank(entry),
                }
            }
        } else {
            self.rank_row(FILED + level as usize);
        }
    }

    /// Puts every position of `row` with a non-zero counter into the heap.
    fn rank_row(&mut self, row: usize) {
        for w in 0..self.words {
            let mut bits = self.rows[row * self.words + w];
            while bits != 0 {
                let pos = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let priority = self.pool[pos].priority;
                if priority > 0 {
                    self.hot.push(heap_entry(priority, pos));
                }
            }
        }
    }

    /// Picks the candidate whose shadow fills a dummy slot at `slot_level`.
    ///
    /// Below the partitioning level [`DupQueues::begin`] was given the pick
    /// is [`SlotScheme::Hd`]'s, the candidate with the highest Hot Address
    /// Cache counter (zero when uncached); at and below it
    /// [`SlotScheme::Rd`]'s, among the eligible candidates the one whose
    /// most-root-ward copy sits at the **deepest** level (the rear data).
    /// Equal keys go to the candidate latest in pool order.
    ///
    /// When the path write chains ([`DupQueues::begin`]) the pick is *not*
    /// removed: following the paper's Fig. 4 ("the level of Data-A has
    /// changed to level-1 after duplication"), its effective level becomes
    /// the new shadow's level, so the same block can keep climbing through
    /// dummy slots toward the root across the path write — that chain is
    /// what produces large advances. Otherwise the pick leaves the pool
    /// (the ablation mode).
    ///
    /// Returns the candidate as it was before the pick.
    ///
    /// # Panics
    ///
    /// Panics if `slot_level` is deeper than an earlier call's since
    /// [`DupQueues::begin`] (slots are filled leaf to root), or if a
    /// chained pick would be the `Z + 1`-th at its level (a bucket has `Z`
    /// slots).
    pub fn select(&mut self, slot_level: u32) -> Option<DupCandidate> {
        assert!(slot_level <= self.reached, "duplication slots must be filled leaf to root");
        let scheme = if slot_level < self.hd_below { SlotScheme::Hd } else { SlotScheme::Rd };
        if slot_level == self.shape.levels() {
            return None; // Rule-2 keeps every candidate out of the leaves.
        }
        if scheme != self.keyed_for {
            self.keyed_for = scheme;
            self.best.fill(0);
            self.hot.clear();
            if scheme == SlotScheme::Hd && self.chain {
                (self.reached..self.shape.levels()).for_each(|level| self.rank_level(level));
            } else if scheme == SlotScheme::Hd {
                self.rank_row(ELIGIBLE);
            }
        }
        while self.reached > slot_level {
            self.reached -= 1;
            let (w, filed) = (self.words, FILED + self.reached as usize);
            let (eligible, rest) = self.rows.split_at_mut(w);
            eligible.iter_mut().zip(&rest[(filed - 1) * w..][..w]).for_each(|(e, f)| *e |= f);
            if scheme == SlotScheme::Hd {
                self.rank_level(self.reached);
            }
        }

        let pos = match scheme {
            SlotScheme::Rd => (slot_level + 1..=self.shape.levels()).rev().find_map(|level| {
                highest_common(self.row(self.keyed_row(level)), self.row(ELIGIBLE))
            }),
            _ => self.top_hd(),
        }?;
        if self.picks_at.0 != slot_level {
            self.picks_at = (slot_level, 0);
        }
        self.picks_at.1 += 1;
        assert!(
            !self.chain || self.picks_at.1 <= self.shape.slots_per_bucket(),
            "more chained picks than slots at level {slot_level}"
        );
        let picked = self.pool[pos].cand;
        debug_assert!(picked.eligible_at(&self.shape, self.eviction_leaf, slot_level));
        self.set(ELIGIBLE, pos, false);
        self.set(self.keyed_row(picked.real_level), pos, false);
        if self.chain {
            let from = slot_level.checked_sub(1).unwrap_or(NIL);
            let p = &mut self.pool[pos];
            (p.cand.real_level, p.from) = (slot_level, from);
            if from != NIL && from >= self.hd_below {
                self.set(self.keyed_row(slot_level), pos, true);
            }
            self.file(pos);
            return Some(picked);
        }
        let last = self.pool.len() - 1;
        self.pool.swap_remove(pos);
        if pos != last {
            let Pooled { cand, from, priority } = self.pool[pos];
            self.move_bit(self.keyed_row(cand.real_level), last, pos);
            if from == NIL {
            } else if from >= self.reached {
                self.move_bit(ELIGIBLE, last, pos);
                // Its heap entry, if any, names the old position.
                if self.keyed_for == SlotScheme::Hd && priority > 0 {
                    self.hot.push(heap_entry(priority, pos));
                }
            } else {
                self.move_bit(FILED + from as usize, last, pos);
            }
        }
        Some(picked)
    }

    /// The HD pick: the hottest eligible candidate, or — no eligible
    /// counter above zero — the latest eligible in pool order.
    fn top_hd(&mut self) -> Option<usize> {
        if self.chain {
            let ranked = self.best.iter().take_while(|&&e| e != 0);
            let first =
                ranked.map(|&e| e as u32 as usize).find(|&pos| self.contains(ELIGIBLE, pos));
            if first.is_some() {
                return first;
            }
        }
        while let Some(entry) = self.hot.pop() {
            let (priority, pos) = ((entry >> 64) as u64, entry as u32 as usize);
            let current = self.pool.get(pos).is_some_and(|p| p.priority == priority);
            if current && self.contains(ELIGIBLE, pos) {
                return Some(pos);
            }
        }
        let eligible = self.row(ELIGIBLE);
        highest_common(eligible, eligible)
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

    /// A pool for the path write to leaf 0, all RD-Dup below `hd_below`.
    fn queues(shape: TreeShape, chain: bool, hd_below: u32) -> DupQueues {
        let mut q = DupQueues::new(shape, 8);
        q.begin(LeafLabel::new(0), chain, hd_below);
        q
    }

    #[test]
    fn rd_selection_prefers_deepest_real_copy() {
        let mut q = queues(TreeShape::new(3, 2), true, 0);
        q.push(cand(1, 0, 2), 0);
        q.push(cand(2, 0, 3), 0); // rear data
        q.push(cand(3, 0, 1), 0);
        let picked = q.select(1).unwrap();
        assert_eq!(picked.addr, BlockAddr::new(2));
        assert_eq!(q.len(), 3, "candidates stay queued with updated level");
        // The same block is no longer eligible at the same level (its
        // effective level is now 1), so the next pick differs.
        let second = q.select(1).unwrap();
        assert_eq!(second.addr, BlockAddr::new(1));
        // At a shallower slot the chain continues: every candidate now
        // sits at effective level 1, and the latest queued wins the tie.
        let third = q.select(0).unwrap();
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
        let mut q = queues(TreeShape::new(3, 2), true, u32::MAX);
        for c in [cand(1, 0, 2), cand(3, 0, 2), cand(9, 0, 2)] {
            q.push(c, hot.priority(c.addr));
        }
        let picked = q.select(0).unwrap();
        assert_eq!(picked.addr, BlockAddr::new(3));
    }

    #[test]
    fn selection_respects_eligibility() {
        let mut q = queues(TreeShape::new(3, 2), true, 0);
        q.push(cand(1, 0b100, 3), 0); // off-path below level 0 for leaf 0
        q.push(cand(2, 0, 0), 0); // real copy in the root: Rule-2 bars it everywhere
        assert!(q.select(1).is_none());
        assert_eq!(q.len(), 2, "ineligible candidates stay queued");
        assert_eq!(q.select(0).map(|c| c.addr), Some(BlockAddr::new(1)));
        assert!(q.select(0).is_none());
    }

    #[test]
    fn popped_pick_moves_the_last_candidate_into_its_place() {
        let mut q = queues(TreeShape::new(3, 2), false, 0);
        for addr in 1..=4 {
            q.push(cand(addr, 0, if addr == 1 { 3 } else { 2 }), 0);
        }
        // Pool order 1 2 3 4: the deepest (1) goes first, and 4 takes its
        // index 0, so the tie among 2, 3, 4 now reads 4 2 3 — 3 is last.
        let picks: Vec<u64> = std::iter::from_fn(|| q.select(1)).map(|c| c.addr.raw()).collect();
        assert_eq!(picks, [1, 3, 2, 4]);
        assert!(q.is_empty());
    }

    #[test]
    fn scheme_change_rekeys_the_eligible_set() {
        // RD at level 1 and deeper, HD at the root.
        let mut q = queues(TreeShape::new(3, 2), true, 1);
        q.push(cand(1, 0, 3), 1); // deepest, coldest
        q.push(cand(2, 0, 2), 7); // shallower, hottest
        q.push(cand(3, 0, 2), 3);
        assert_eq!(q.select(1).map(|c| c.addr.raw()), Some(1));
        assert_eq!(q.select(1).map(|c| c.addr.raw()), Some(3), "the later of two at level 2");
        // The root: all three climb again, hottest first.
        assert_eq!(q.select(0).map(|c| c.addr.raw()), Some(2));
        assert_eq!(q.select(0).map(|c| c.addr.raw()), Some(3));
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
