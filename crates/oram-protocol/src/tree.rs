//! Geometry of the binary ORAM tree.
//!
//! The external memory is logically a complete binary tree with `L + 1`
//! levels (level 0 is the root, level `L` the leaves). Each node is a
//! *bucket* of `Z` block slots. This module provides the index arithmetic —
//! bucket ids, paths, common-prefix levels, the reverse-lexicographic
//! eviction order — and the bucket storage itself: one flat arena of
//! packed slots per tree, a bucket being an index range of it.

use crate::types::{Block, BlockAddr, BlockKind, LeafLabel};
use oram_util::DetHashMap;

/// Identifier of a bucket: the 1-based heap index of the node
/// (root = 1, children of `i` = `2i` and `2i + 1`).
///
/// Heap indexing keeps level/parent/child arithmetic branch-free, which
/// matters because paths are recomputed on every ORAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BucketId(u64);

impl BucketId {
    /// The root bucket.
    pub const ROOT: BucketId = BucketId(1);

    /// Creates a bucket id from a raw 1-based heap index.
    ///
    /// # Panics
    ///
    /// Panics if `raw` is zero (heap indices start at 1).
    pub fn new(raw: u64) -> Self {
        assert!(raw >= 1, "heap indices are 1-based");
        BucketId(raw)
    }

    /// Returns the raw heap index.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Tree level of this bucket (root is level 0).
    pub fn level(self) -> u32 {
        63 - self.0.leading_zeros()
    }

    /// Parent bucket; `None` for the root.
    pub fn parent(self) -> Option<BucketId> {
        if self.0 == 1 {
            None
        } else {
            Some(BucketId(self.0 >> 1))
        }
    }
}

/// Static geometry of an ORAM tree: number of levels and slots per bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeShape {
    levels: u32,
    slots_per_bucket: usize,
}

impl TreeShape {
    /// Creates a shape with `levels = L` (so the tree has `L + 1` bucket
    /// levels and `2^L` leaves) and `Z = slots_per_bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `levels >= 48` (the bucket count would overflow practical
    /// memory) or `slots_per_bucket == 0`.
    pub fn new(levels: u32, slots_per_bucket: usize) -> Self {
        assert!(levels < 48, "tree too deep to simulate");
        assert!(slots_per_bucket > 0, "buckets need at least one slot");
        TreeShape { levels, slots_per_bucket }
    }

    /// `L`: the index of the leaf level.
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// `Z`: block slots per bucket.
    pub fn slots_per_bucket(&self) -> usize {
        self.slots_per_bucket
    }

    /// Number of leaves (`2^L`), which is also the number of distinct
    /// leaf labels.
    pub fn leaf_count(&self) -> u64 {
        1u64 << self.levels
    }

    /// Total bucket count (`2^(L+1) - 1`).
    pub fn bucket_count(&self) -> u64 {
        (1u64 << (self.levels + 1)) - 1
    }

    /// Total block slots in the tree.
    pub fn slot_count(&self) -> u64 {
        self.bucket_count() * self.slots_per_bucket as u64
    }

    /// Blocks read or written by one full path access:
    /// `Z * (L + 1)`.
    pub fn blocks_per_path(&self) -> usize {
        self.slots_per_bucket * (self.levels as usize + 1)
    }

    /// The bucket at `level` on the path to `leaf`.
    ///
    /// # Panics
    ///
    /// Panics if `level > L` or the leaf label is out of range.
    pub fn bucket_on_path(&self, leaf: LeafLabel, level: u32) -> BucketId {
        assert!(level <= self.levels, "level out of range");
        assert!(leaf.raw() < self.leaf_count(), "leaf label out of range");
        // The leaf's heap index is 2^L + leaf; its ancestor at `level`
        // is found by shifting off the lower (L - level) bits.
        let leaf_heap = (1u64 << self.levels) | leaf.raw();
        BucketId(leaf_heap >> (self.levels - level))
    }

    /// The full path root→leaf as bucket ids.
    ///
    /// Allocates a fresh `Vec` per call; the access hot path uses
    /// [`TreeShape::path_into`] with a reusable buffer or
    /// [`TreeShape::path_iter`] instead.
    pub fn path(&self, leaf: LeafLabel) -> Vec<BucketId> {
        let mut buf = Vec::with_capacity(self.levels as usize + 1);
        self.path_into(leaf, &mut buf);
        buf
    }

    /// Writes the path root→leaf into `buf` (cleared first), reusing its
    /// allocation. After the first call on a buffer, subsequent calls for
    /// the same shape never allocate.
    ///
    /// # Panics
    ///
    /// Panics if the leaf label is out of range.
    pub fn path_into(&self, leaf: LeafLabel, buf: &mut Vec<BucketId>) {
        buf.clear();
        buf.extend(self.path_iter(leaf));
    }

    /// Iterates the path root→leaf without materializing it.
    ///
    /// # Panics
    ///
    /// Panics if the leaf label is out of range.
    pub fn path_iter(&self, leaf: LeafLabel) -> PathIter {
        self.path_iter_from(leaf, 0)
    }

    /// Iterates the path to `leaf` starting at `first_level` (used to
    /// skip the on-chip treetop levels without a `skip` adapter).
    ///
    /// # Panics
    ///
    /// Panics if the leaf label is out of range.
    pub fn path_iter_from(&self, leaf: LeafLabel, first_level: u32) -> PathIter {
        assert!(leaf.raw() < self.leaf_count(), "leaf label out of range");
        PathIter {
            leaf_heap: (1u64 << self.levels) | leaf.raw(),
            levels: self.levels,
            next: first_level,
        }
    }

    /// Deepest level shared by the paths to `a` and `b` (the level of their
    /// lowest common ancestor). Level 0 (the root) is always shared.
    pub fn common_level(&self, a: LeafLabel, b: LeafLabel) -> u32 {
        let diff = a.raw() ^ b.raw();
        if diff == 0 {
            self.levels
        } else {
            // Leaves diverge below the highest differing label bit.
            let bit_len = 64 - diff.leading_zeros();
            self.levels - bit_len
        }
    }
}

/// Iterator over the buckets of one root→leaf path (see
/// [`TreeShape::path_iter`]). `Copy` and allocation-free: the whole
/// path is derived by shifting the leaf's heap index.
#[derive(Debug, Clone, Copy)]
pub struct PathIter {
    leaf_heap: u64,
    levels: u32,
    next: u32,
}

impl Iterator for PathIter {
    type Item = BucketId;

    #[inline]
    fn next(&mut self) -> Option<BucketId> {
        if self.next > self.levels {
            return None;
        }
        let id = BucketId(self.leaf_heap >> (self.levels - self.next));
        self.next += 1;
        Some(id)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.levels + 1).saturating_sub(self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for PathIter {}

/// Generator of eviction paths in reverse-lexicographic order.
///
/// Reverse-lexicographic ("bit-reversed counter") eviction spreads
/// consecutive evictions across the tree so that every bucket is refreshed
/// at a deterministic rate; it is the order Tiny ORAM / Ring ORAM use.
#[derive(Debug, Clone)]
pub struct EvictionOrder {
    levels: u32,
    counter: u64,
}

impl EvictionOrder {
    /// Creates the order for a tree with `levels = L` leaves `2^L`.
    pub fn new(levels: u32) -> Self {
        EvictionOrder { levels, counter: 0 }
    }

    /// Returns the next eviction leaf and advances the counter.
    pub fn next_leaf(&mut self) -> LeafLabel {
        let leaf = self.peek();
        self.counter = self.counter.wrapping_add(1);
        leaf
    }

    /// Returns the next eviction leaf without advancing.
    pub fn peek(&self) -> LeafLabel {
        LeafLabel::new(bit_reverse(self.counter % (1 << self.levels), self.levels))
    }

    /// Number of evictions performed so far.
    pub fn count(&self) -> u64 {
        self.counter
    }
}

/// Reverses the low `bits` bits of `v`.
fn bit_reverse(v: u64, bits: u32) -> u64 {
    if bits == 0 {
        return 0;
    }
    v.reverse_bits() >> (64 - bits)
}

/// Bucket count above which [`OramTree`] switches from the dense arena
/// to the sparse one. `2^21` buckets ≈ a few hundred MiB of address
/// space at Z = 5 — beyond that deep trees (billion-block address
/// domains) only ever materialize the buckets a run actually touches.
const DENSE_BUCKET_LIMIT: u64 = 1 << 21;

/// One stored slot: `[addr, label | kind << 62, data, version]`.
///
/// The all-zero word *is* the dummy: a fresh arena comes from the
/// zeroed-allocation path (`calloc`, untouched zero pages), so an
/// all-dummy tree costs no writes to build and none to drop.
type Word = [u64; 4];

const KIND_SHIFT: u32 = 62;
const KIND_REAL: u64 = 1;
const KIND_SHADOW: u64 = 2;
const LABEL_MASK: u64 = (1 << KIND_SHIFT) - 1;

#[inline]
fn pack(b: Block) -> Word {
    let kind = match b.kind {
        BlockKind::Dummy => return [0; 4],
        BlockKind::Real => KIND_REAL,
        BlockKind::Shadow => KIND_SHADOW,
    };
    // Labels are leaf indices (`< 2^48`, see `TreeShape::new`); one that
    // reached the kind bits would read back as a different block.
    assert!(b.label.raw() <= LABEL_MASK, "leaf label overlaps the kind bits");
    [b.addr.raw(), b.label.raw() | kind << KIND_SHIFT, b.data, b.version]
}

#[inline]
fn unpack(w: &Word) -> Block {
    let kind = match w[1] >> KIND_SHIFT {
        0 => return Block::DUMMY,
        KIND_REAL => BlockKind::Real,
        _ => BlockKind::Shadow,
    };
    Block {
        kind,
        addr: BlockAddr::new(w[0]),
        label: LeafLabel::new(w[1] & LABEL_MASK),
        data: w[2],
        version: w[3],
    }
}

/// Whether every word of a bucket's range is the dummy word.
#[inline]
fn all_dummy(words: &[Word]) -> bool {
    words.iter().all(|w| *w == [0; 4])
}

/// Physical storage behind [`OramTree`]: every slot of the tree in one
/// allocation, a bucket being the index range `base .. base + Z`.
///
/// Both variants maintain one property: a bucket is *occupied* iff some
/// word of its range is non-zero, i.e. iff it holds a block. A vacant
/// bucket reads as all-dummy *without touching its words*, and an
/// all-dummy write onto one stores nothing — so memory no block ever
/// lived in is never faulted in, and a bucket a block has left stops
/// costing anything again.
#[derive(Debug, Clone)]
enum SlotStore {
    /// All `slot_count()` words; bucket `raw` starts at `(raw − 1) · Z`.
    /// Bit `raw` of `occupied` is set iff the bucket is occupied.
    Dense { words: Vec<Word>, occupied: Vec<u64> },
    /// Only the occupied buckets: `base` maps each to its range of
    /// `words`. A bucket that empties leaves `base` and its (zeroed)
    /// range goes on `free`, to be handed to the next bucket that fills
    /// before `words` grows — the arena tracks the working set, not the
    /// number of buckets the run has ever passed through.
    Sparse { base: DetHashMap<u64, usize>, words: Vec<Word>, free: Vec<usize> },
}

/// The ORAM tree storage: geometry plus the slot arena.
///
/// This models the *untrusted external memory*; the simulator separately
/// charges DRAM timing for every slot touched. Contents here are the
/// plaintext view that only the trusted controller can see.
#[derive(Debug, Clone)]
pub struct OramTree {
    shape: TreeShape,
    store: SlotStore,
}

impl OramTree {
    /// Creates an all-dummy tree of the given shape in O(1): trees up to
    /// [`DENSE_BUCKET_LIMIT`] buckets reserve one zeroed arena whose
    /// pages are first touched when a block is written to them; deeper
    /// trees store only the buckets that hold a block, so a
    /// 2^30-address domain costs memory proportional to the working
    /// set, not the tree.
    pub fn new(shape: TreeShape) -> Self {
        let store = if shape.bucket_count() <= DENSE_BUCKET_LIMIT {
            SlotStore::Dense {
                words: vec![[0u64; 4]; shape.slot_count() as usize],
                occupied: vec![0; shape.bucket_count() as usize / 64 + 1],
            }
        } else {
            SlotStore::Sparse { base: DetHashMap::default(), words: Vec::new(), free: Vec::new() }
        };
        OramTree { shape, store }
    }

    /// The tree's geometry.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Arena index of slot 0 of bucket `id`; `None` for a vacant bucket
    /// (it reads as all-dummy).
    #[inline]
    fn base_of(&self, id: BucketId) -> Option<usize> {
        assert!(id.raw() <= self.shape.bucket_count(), "bucket outside the tree");
        match &self.store {
            SlotStore::Dense { occupied, .. } => {
                let raw = id.raw() as usize;
                (occupied[raw / 64] >> (raw % 64) & 1 == 1)
                    .then(|| (raw - 1) * self.shape.slots_per_bucket)
            }
            SlotStore::Sparse { base, .. } => base.get(&id.raw()).copied(),
        }
    }

    /// Marks bucket `id` occupied and returns the arena index of its
    /// slot 0. A vacant sparse bucket gets an all-dummy range, recycled
    /// from the free list when there is one.
    #[inline]
    fn claim(&mut self, id: BucketId) -> usize {
        let z = self.shape.slots_per_bucket;
        assert!(id.raw() <= self.shape.bucket_count(), "bucket outside the tree");
        match &mut self.store {
            SlotStore::Dense { occupied, .. } => {
                let raw = id.raw() as usize;
                occupied[raw / 64] |= 1 << (raw % 64);
                (raw - 1) * z
            }
            SlotStore::Sparse { base, words, free } => {
                *base.entry(id.raw()).or_insert_with(|| {
                    free.pop().unwrap_or_else(|| {
                        words.resize(words.len() + z, [0; 4]);
                        words.len() - z
                    })
                })
            }
        }
    }

    /// Marks the occupied bucket `id`, whose words the caller has just
    /// zeroed, vacant.
    fn vacate(&mut self, id: BucketId) {
        match &mut self.store {
            SlotStore::Dense { occupied, .. } => {
                let raw = id.raw() as usize;
                occupied[raw / 64] &= !(1 << (raw % 64));
            }
            SlotStore::Sparse { base, free, .. } => {
                free.extend(base.remove(&id.raw()));
            }
        }
    }

    fn words(&self) -> &[Word] {
        match &self.store {
            SlotStore::Dense { words, .. } | SlotStore::Sparse { words, .. } => words,
        }
    }

    fn words_mut(&mut self) -> &mut [Word] {
        match &mut self.store {
            SlotStore::Dense { words, .. } | SlotStore::Sparse { words, .. } => words,
        }
    }

    /// Whether bucket `id` holds a block. `false` means every slot reads
    /// [`Block::DUMMY`], answered without touching the bucket's memory.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is outside the tree.
    #[inline]
    pub fn is_occupied(&self, id: BucketId) -> bool {
        self.base_of(id).is_some()
    }

    /// The block in slot `i` of bucket `id`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Z` or the bucket is outside the tree.
    #[inline]
    pub fn slot(&self, id: BucketId, i: usize) -> Block {
        assert!(i < self.shape.slots_per_bucket, "slot index out of range");
        self.base_of(id).map_or(Block::DUMMY, |at| unpack(&self.words()[at + i]))
    }

    /// Overwrites slot `i` of bucket `id`. A dummy into a vacant bucket
    /// is a no-op; a dummy that empties an occupied bucket vacates it.
    ///
    /// # Panics
    ///
    /// Panics if `i >= Z` or the bucket is outside the tree.
    #[inline]
    pub fn set_slot(&mut self, id: BucketId, i: usize, block: Block) {
        let z = self.shape.slots_per_bucket;
        assert!(i < z, "slot index out of range");
        if block.is_dummy() {
            let Some(at) = self.base_of(id) else { return };
            self.words_mut()[at + i] = [0; 4];
            if all_dummy(&self.words()[at..at + z]) {
                self.vacate(id);
            }
        } else {
            let at = self.claim(id);
            self.words_mut()[at + i] = pack(block);
        }
    }

    /// Overwrites all `Z` slots of bucket `id` — what an eviction does
    /// to each bucket of its path. All-dummy onto a vacant bucket does
    /// nothing at all (no store, no page touched, no sparse entry);
    /// all-dummy onto an occupied one zeroes its words and vacates it;
    /// anything else stores `Z` words and marks it occupied.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len() != Z` or the bucket is outside the tree.
    #[inline]
    pub fn write_bucket(&mut self, id: BucketId, blocks: &[Block]) {
        let z = self.shape.slots_per_bucket;
        assert_eq!(blocks.len(), z, "a bucket is written Z blocks at a time");
        if blocks.iter().all(Block::is_dummy) {
            if let Some(at) = self.base_of(id) {
                self.words_mut()[at..at + z].fill([0; 4]);
                self.vacate(id);
            }
        } else {
            let at = self.claim(id);
            for (w, b) in self.words_mut()[at..at + z].iter_mut().zip(blocks) {
                *w = pack(*b);
            }
        }
    }

    /// Copies bucket `id` into `out`, for callers that need a whole
    /// bucket as `&[Block]` (the durable-store mirror); the access loops
    /// read slot by slot instead.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Z` or the bucket is outside the tree.
    pub fn read_bucket(&self, id: BucketId, out: &mut [Block]) {
        assert_eq!(out.len(), self.shape.slots_per_bucket, "buffer must hold exactly Z blocks");
        match self.base_of(id) {
            Some(at) => {
                for (o, w) in out.iter_mut().zip(&self.words()[at..]) {
                    *o = unpack(w);
                }
            }
            None => out.fill(Block::DUMMY),
        }
    }

    /// Counts stored blocks of `kind` (order-independent, so sparse
    /// materialization order cannot leak).
    fn count_kind(&self, kind: u64) -> usize {
        self.words().iter().filter(|w| w[1] >> KIND_SHIFT == kind).count()
    }

    /// Total number of real blocks currently stored in the tree
    /// (diagnostics only — O(size of tree)).
    pub fn real_block_count(&self) -> usize {
        self.count_kind(KIND_REAL)
    }

    /// Total number of shadow blocks currently stored in the tree
    /// (diagnostics only — O(size of tree)).
    pub fn shadow_block_count(&self) -> usize {
        self.count_kind(KIND_SHADOW)
    }

    /// Number of buckets that hold a block (diagnostics — O(buckets / 64)
    /// dense, O(1) sparse).
    pub fn occupied_buckets(&self) -> usize {
        match &self.store {
            SlotStore::Dense { occupied, .. } => {
                occupied.iter().map(|w| w.count_ones() as usize).sum()
            }
            SlotStore::Sparse { base, .. } => base.len(),
        }
    }

    /// Length of the slot arena in words (diagnostics). Fixed at
    /// `slot_count()` for a dense tree; a sparse one grows it only when
    /// a bucket fills while no vacated range is free.
    pub fn arena_words(&self) -> usize {
        self.words().len()
    }

    /// Checks the store's own invariant: a bucket is flagged occupied
    /// (dense) or mapped (sparse) iff some word of it is non-zero, and a
    /// sparse arena is exactly tiled by mapped and free ranges, none of
    /// them both. O(size of tree); test/diagnostic use only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_occupancy(&self) -> Result<(), String> {
        let z = self.shape.slots_per_bucket;
        match &self.store {
            SlotStore::Dense { words, occupied } => {
                for (ix, bucket) in words.chunks_exact(z).enumerate() {
                    let raw = ix + 1;
                    let flagged = occupied[raw / 64] >> (raw % 64) & 1 == 1;
                    if flagged == all_dummy(bucket) {
                        return Err(format!(
                            "bucket {raw}: occupied bit {flagged} but all-dummy {}",
                            !flagged
                        ));
                    }
                }
            }
            SlotStore::Sparse { base, words, free } => {
                // Each range is claimed at most once, by the map or by
                // the free list; together they cover the arena.
                let mut owner = vec![false; words.len() / z];
                let mapped = base.iter().map(|(&raw, &at)| (Some(raw), at));
                for (raw, at) in mapped.chain(free.iter().map(|&at| (None, at))) {
                    if at % z != 0 || at + z > words.len() {
                        return Err(format!("arena range {at} is not a bucket of the arena"));
                    }
                    if std::mem::replace(&mut owner[at / z], true) {
                        return Err(format!("arena range {at} is mapped or free twice"));
                    }
                    // A mapped range holds a block; a free one is zeroed.
                    if raw.is_some() == all_dummy(&words[at..at + z]) {
                        return Err(match raw {
                            Some(raw) => format!("bucket {raw} is mapped but all-dummy"),
                            None => format!("free arena range {at} holds a block"),
                        });
                    }
                }
                if let Some(lost) = owner.iter().position(|&o| !o) {
                    return Err(format!("arena range {} is neither mapped nor free", lost * z));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_id_levels() {
        assert_eq!(BucketId::ROOT.level(), 0);
        assert_eq!(BucketId::new(2).level(), 1);
        assert_eq!(BucketId::new(3).level(), 1);
        assert_eq!(BucketId::new(7).level(), 2);
    }

    #[test]
    fn parent_chain_reaches_root() {
        let mut b = BucketId::new(13);
        let mut hops = 0;
        while let Some(p) = b.parent() {
            b = p;
            hops += 1;
        }
        assert_eq!(b, BucketId::ROOT);
        assert_eq!(hops, 3);
    }

    #[test]
    fn shape_counts() {
        let s = TreeShape::new(2, 2); // Fig. 1 of the paper
        assert_eq!(s.leaf_count(), 4);
        assert_eq!(s.bucket_count(), 7);
        assert_eq!(s.slot_count(), 14);
        assert_eq!(s.blocks_per_path(), 6);
    }

    #[test]
    fn path_is_root_to_leaf() {
        let s = TreeShape::new(3, 4);
        let p = s.path(LeafLabel::new(5)); // 0b101
        assert_eq!(p.len(), 4);
        assert_eq!(p[0], BucketId::ROOT);
        for (lvl, b) in p.iter().enumerate() {
            assert_eq!(b.level() as usize, lvl);
        }
        // Each bucket is the parent of the next.
        for w in p.windows(2) {
            assert_eq!(w[1].parent(), Some(w[0]));
        }
        // Leaf bucket is heap index 2^3 + 5 = 13.
        assert_eq!(p[3], BucketId::new(13));
    }

    #[test]
    fn common_level_prefix() {
        let s = TreeShape::new(3, 1);
        // 0b000 vs 0b001 share levels 0..=2.
        assert_eq!(s.common_level(LeafLabel::new(0), LeafLabel::new(1)), 2);
        // identical leaves share the whole path.
        assert_eq!(s.common_level(LeafLabel::new(6), LeafLabel::new(6)), 3);
        // 0b000 vs 0b100 share only the root.
        assert_eq!(s.common_level(LeafLabel::new(0), LeafLabel::new(4)), 0);
    }

    #[test]
    fn common_level_matches_path_intersection() {
        let s = TreeShape::new(4, 1);
        for a in 0..16u64 {
            for b in 0..16u64 {
                let (la, lb) = (LeafLabel::new(a), LeafLabel::new(b));
                let pa = s.path(la);
                let pb = s.path(lb);
                let shared = pa
                    .iter()
                    .zip(pb.iter())
                    .take_while(|(x, y)| x == y)
                    .count() as u32
                    - 1;
                assert_eq!(s.common_level(la, lb), shared, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn eviction_order_is_bit_reversed_and_covers_all_leaves() {
        let mut order = EvictionOrder::new(3);
        let first: Vec<u64> = (0..8).map(|_| order.next_leaf().raw()).collect();
        assert_eq!(first, vec![0, 4, 2, 6, 1, 5, 3, 7]);
        // The next 8 repeat the cycle.
        let second: Vec<u64> = (0..8).map(|_| order.next_leaf().raw()).collect();
        assert_eq!(first, second);
        assert_eq!(order.count(), 16);
    }

    fn occupancy(t: &OramTree, id: BucketId) -> usize {
        let mut slots = vec![Block::DUMMY; t.shape().slots_per_bucket()];
        t.read_bucket(id, &mut slots);
        slots.iter().filter(|b| !b.is_dummy()).count()
    }

    #[test]
    fn tree_starts_all_dummy() {
        let t = OramTree::new(TreeShape::new(4, 3));
        assert_eq!(t.real_block_count(), 0);
        assert_eq!(t.shadow_block_count(), 0);
        assert_eq!(occupancy(&t, BucketId::ROOT), 0);
        assert_eq!(t.slot(BucketId::new(31), 2), Block::DUMMY);
    }

    #[test]
    fn sparse_tree_reads_empty_and_materializes_on_write() {
        // 2^30 leaves → far past the dense limit; construction must be
        // O(1) memory and absent buckets must read as all-dummy.
        let mut t = OramTree::new(TreeShape::new(30, 4));
        let deep = t.shape().bucket_on_path(LeafLabel::new(987_654_321), 30);
        assert_eq!(occupancy(&t, deep), 0);
        assert_eq!(t.real_block_count(), 0);
        let blk = Block::real(BlockAddr::new(7), LeafLabel::new(987_654_321), 42, 1);
        t.set_slot(deep, 0, blk);
        assert_eq!(t.slot(deep, 0), blk);
        assert_eq!(occupancy(&t, deep), 1);
        assert_eq!(t.real_block_count(), 1);
        // A neighbouring never-written bucket still reads empty.
        let sibling = BucketId::new(deep.raw() ^ 1);
        assert_eq!(occupancy(&t, sibling), 0);
    }

    /// The arena's word format: every kind survives the round trip with
    /// extreme field values, and whatever a dummy carried comes back as
    /// the canonical `Block::DUMMY` — the all-zero word a fresh arena is
    /// made of.
    #[test]
    fn pack_round_trips_every_kind_and_canonicalizes_dummies() {
        let real = Block::real(BlockAddr::new(u64::MAX), LeafLabel::new((1 << 47) - 1), u64::MAX, u64::MAX);
        for blk in [real, real.to_shadow(), Block::real(BlockAddr::new(0), LeafLabel::new(0), 0, 0)] {
            assert_ne!(pack(blk), [0; 4], "a data block never packs to the dummy word");
            assert_eq!(unpack(&pack(blk)), blk);
        }
        assert_eq!(pack(Block::DUMMY), [0; 4]);
        assert_eq!(unpack(&[0; 4]), Block::DUMMY);
        let odd_dummy = Block { kind: BlockKind::Dummy, ..real };
        assert_eq!(unpack(&pack(odd_dummy)), Block::DUMMY);
    }

    #[test]
    #[should_panic(expected = "bucket outside the tree")]
    fn bucket_past_the_tree_is_rejected() {
        OramTree::new(TreeShape::new(3, 2)).slot(BucketId::new(16), 0);
    }

    #[test]
    #[should_panic(expected = "slot index out of range")]
    fn slot_index_past_z_is_rejected() {
        OramTree::new(TreeShape::new(3, 2)).slot(BucketId::ROOT, 2);
    }

    #[test]
    fn bucket_on_path_consistent_with_path() {
        let s = TreeShape::new(5, 2);
        let leaf = LeafLabel::new(21);
        let p = s.path(leaf);
        for lvl in 0..=5u32 {
            assert_eq!(s.bucket_on_path(leaf, lvl), p[lvl as usize]);
        }
    }

    /// Regression for the zero-allocation path API: `path_into` and
    /// `path_iter` must reproduce the level-by-level ancestor chain
    /// (the old `path` construction) for random leaves at several
    /// tree depths.
    #[test]
    fn path_into_matches_level_by_level_path() {
        let mut rng = oram_util::Rng64::seed_from_u64(0x7EE5);
        let mut buf = Vec::new();
        for levels in [1u32, 3, 7, 14, 24] {
            let s = TreeShape::new(levels, 4);
            for _ in 0..50 {
                let leaf = LeafLabel::new(rng.below(s.leaf_count()));
                let reference: Vec<BucketId> =
                    (0..=levels).map(|lvl| s.bucket_on_path(leaf, lvl)).collect();
                assert_eq!(s.path(leaf), reference, "L={levels} leaf={leaf:?}");
                s.path_into(leaf, &mut buf);
                assert_eq!(buf, reference, "path_into L={levels}");
                let iterated: Vec<BucketId> = s.path_iter(leaf).collect();
                assert_eq!(iterated, reference, "path_iter L={levels}");
                assert_eq!(s.path_iter(leaf).len(), levels as usize + 1);
            }
        }
    }

    #[test]
    fn path_into_reuses_capacity() {
        let s = TreeShape::new(6, 2);
        let mut buf = Vec::new();
        s.path_into(LeafLabel::new(0), &mut buf);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        for leaf in 0..s.leaf_count() {
            s.path_into(LeafLabel::new(leaf), &mut buf);
        }
        assert_eq!(buf.capacity(), cap, "no regrowth");
        assert_eq!(buf.as_ptr(), ptr, "no reallocation");
    }
}
