//! Geometry of the binary ORAM tree.
//!
//! The external memory is logically a complete binary tree with `L + 1`
//! levels (level 0 is the root, level `L` the leaves). Each node is a
//! *bucket* of `Z` block slots. This module provides the index arithmetic —
//! bucket ids, paths, common-prefix levels, the reverse-lexicographic
//! eviction order — and the bucket storage itself: the packed slots of
//! the occupied buckets in one arena per tree, found through an index.

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

/// Bucket count from which [`OramTree`] indexes its buckets with a hash
/// map instead of the grouped table. Below it the directory and the
/// reserved pool and arena are a few hundred MiB of address space at most
/// (Z = 5) — beyond it, deep trees (billion-block address domains) only
/// ever index and grow by the buckets a run actually fills.
const DENSE_BUCKET_LIMIT: u64 = 1 << 21;

/// Bucket ids per group of the grouped index: 16 `u32` entries, a cache
/// line's worth.
const GROUP: usize = 16;

/// The index entries of [`GROUP`] consecutive bucket ids.
type Group = [u32; GROUP];

/// A group with no occupied bucket.
const EMPTY: Group = [0; GROUP];

/// One stored slot: `[addr, label | kind << 62, data, version]`.
///
/// The all-zero word *is* the dummy: a range enters the arena zeroed and
/// is zeroed again when its bucket empties.
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

/// Which arena range each occupied bucket owns, stored as `1 + range`;
/// 0 (or no entry) means vacant.
#[derive(Debug, Clone)]
enum BucketIndex {
    /// Two levels. `dir[raw / GROUP]` is `1 + g` when some id of that
    /// group of [`GROUP`] ids is occupied (their entries are `pool[g]`),
    /// 0 when none is. The directory is zero-allocated and the pool
    /// reserved for every group, so building the index touches no page
    /// and filling it never reallocates. A group whose last entry clears
    /// goes on `free`, which the next group to open takes from before the
    /// pool grows.
    Grouped { dir: Vec<u32>, pool: Vec<Group>, free: Vec<u32> },
    /// Entries for the occupied buckets only.
    Hashed(DetHashMap<u64, u32>),
}

/// Checks that `claims` — `(owner, unit)` pairs, `None` owning a unit of
/// the free list — hand out each of `len` units exactly once, and runs
/// `check` on each claim; `name` words a unit in the errors.
fn check_tiling<O: Copy>(
    len: usize,
    claims: impl Iterator<Item = (Option<O>, u32)>,
    name: impl Fn(u32) -> String,
    container: &str,
    mut check: impl FnMut(Option<O>, u32) -> Result<(), String>,
) -> Result<(), String> {
    let mut owned = vec![false; len];
    for (owner, unit) in claims {
        let Some(taken) = owned.get_mut(unit as usize) else {
            return Err(format!("{} is past the {container}", name(unit)));
        };
        if std::mem::replace(taken, true) {
            return Err(format!("{} is indexed or free twice", name(unit)));
        }
        check(owner, unit)?;
    }
    match owned.iter().position(|&o| !o) {
        Some(lost) => Err(format!("{} is neither indexed nor free", name(lost as u32))),
        None => Ok(()),
    }
}

/// The ORAM tree storage: geometry plus the slot arena.
///
/// This models the *untrusted external memory*; the simulator separately
/// charges DRAM timing for every slot touched. Contents here are the
/// plaintext view that only the trusted controller can see.
///
/// Only *occupied* buckets — those holding a block — have memory: `Z`
/// consecutive words of `words`, packed in the order buckets filled and
/// found through `index`. A bucket is occupied iff some word of its range
/// is non-zero. A vacant bucket reads as all-dummy without a word being
/// looked at, and an all-dummy write onto one stores nothing. A bucket
/// that empties is zeroed and its range goes on `free`, which the next
/// bucket to fill takes from before `words` grows, so the arena is `Z ×`
/// the most buckets that were ever occupied at once.
#[derive(Debug, Clone)]
pub struct OramTree {
    shape: TreeShape,
    index: BucketIndex,
    words: Vec<Word>,
    free: Vec<u32>,
}

impl OramTree {
    /// Creates an all-dummy tree of the given shape in O(1), touching no
    /// memory. Below [`DENSE_BUCKET_LIMIT`] buckets the index is grouped
    /// (a zeroed directory over a reserved pool) and the arena and free
    /// list reserve a whole tree's worth of address space, so filling the
    /// tree never reallocates; a deeper tree indexes, and grows by, only
    /// the buckets it fills, so a 2^30-address domain costs memory
    /// proportional to the working set.
    pub fn new(shape: TreeShape) -> Self {
        let buckets = shape.bucket_count();
        let (index, reserve) = if buckets < DENSE_BUCKET_LIMIT {
            let groups = buckets as usize / GROUP + 1;
            let index = BucketIndex::Grouped {
                dir: vec![0; groups],
                pool: Vec::with_capacity(groups),
                free: Vec::with_capacity(groups),
            };
            (index, buckets as usize)
        } else {
            (BucketIndex::Hashed(DetHashMap::default()), 0)
        };
        OramTree {
            shape,
            index,
            words: Vec::with_capacity(reserve * shape.slots_per_bucket),
            free: Vec::with_capacity(reserve),
        }
    }

    /// The tree's geometry.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// The index key of bucket `id`: every lookup and claim goes through
    /// here, so an id outside `1 ..= bucket_count()` never reaches the
    /// index.
    #[inline]
    fn key(&self, id: BucketId) -> u64 {
        let raw = id.raw();
        assert!(raw >= 1 && raw <= self.shape.bucket_count(), "bucket outside the tree");
        raw
    }

    /// Arena index of slot 0 of bucket `id`; `None` for a vacant bucket
    /// (it reads as all-dummy).
    #[inline]
    fn base_of(&self, id: BucketId) -> Option<usize> {
        let raw = self.key(id) as usize;
        let entry = match &self.index {
            BucketIndex::Grouped { dir, pool, .. } => match dir[raw / GROUP] {
                0 => 0,
                g => pool[g as usize - 1][raw % GROUP],
            },
            BucketIndex::Hashed(map) => map.get(&(raw as u64)).copied().unwrap_or(0),
        };
        entry.checked_sub(1).map(|range| range as usize * self.shape.slots_per_bucket)
    }

    /// Marks bucket `id` occupied and returns the arena index of its
    /// slot 0. A vacant bucket gets an all-dummy range: the last one
    /// freed, or a new one at the end of the arena.
    #[inline]
    fn claim(&mut self, id: BucketId) -> usize {
        let z = self.shape.slots_per_bucket;
        let raw = self.key(id) as usize;
        let entry = match &mut self.index {
            BucketIndex::Grouped { dir, pool, free } => {
                let g = &mut dir[raw / GROUP];
                if *g == 0 {
                    *g = 1 + free.pop().unwrap_or_else(|| {
                        pool.push(EMPTY);
                        pool.len() as u32 - 1
                    });
                }
                &mut pool[*g as usize - 1][raw % GROUP]
            }
            BucketIndex::Hashed(map) => map.entry(raw as u64).or_insert(0),
        };
        if *entry == 0 {
            *entry = 1 + self.free.pop().unwrap_or_else(|| {
                self.words.resize(self.words.len() + z, [0; 4]);
                (self.words.len() / z - 1) as u32
            });
        }
        (*entry - 1) as usize * z
    }

    /// Zeroes the occupied bucket `id`, whose range starts at `at`, and
    /// frees the range (and its index group, if that was its last entry).
    fn vacate(&mut self, id: BucketId, at: usize) {
        let z = self.shape.slots_per_bucket;
        self.words[at..at + z].fill([0; 4]);
        match &mut self.index {
            BucketIndex::Grouped { dir, pool, free } => {
                let raw = id.raw() as usize;
                let g = &mut dir[raw / GROUP];
                let group = &mut pool[*g as usize - 1];
                group[raw % GROUP] = 0;
                if *group == EMPTY {
                    free.push(*g - 1);
                    *g = 0;
                }
            }
            BucketIndex::Hashed(map) => {
                map.remove(&id.raw());
            }
        }
        self.free.push((at / z) as u32);
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
        self.base_of(id).map_or(Block::DUMMY, |at| unpack(&self.words[at + i]))
    }

    /// Stores `block` in the first dummy slot of bucket `id` and returns
    /// that slot, found from the kind bits of the packed words with one
    /// index lookup and no block decoded; `None`, storing nothing, when
    /// the bucket is full.
    ///
    /// # Panics
    ///
    /// Panics if `block` is a dummy or the bucket is outside the tree.
    #[inline]
    pub fn place(&mut self, id: BucketId, block: Block) -> Option<usize> {
        assert!(!block.is_dummy(), "placing a dummy");
        let z = self.shape.slots_per_bucket;
        let (at, slot) = match self.base_of(id) {
            Some(at) => (at, self.words[at..at + z].iter().position(|w| w[1] >> KIND_SHIFT == 0)?),
            None => (self.claim(id), 0),
        };
        self.words[at + slot] = pack(block);
        Some(slot)
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
            self.words[at + i] = [0; 4];
            if all_dummy(&self.words[at..at + z]) {
                self.vacate(id, at);
            }
        } else {
            let at = self.claim(id);
            self.words[at + i] = pack(block);
        }
    }

    /// Overwrites all `Z` slots of bucket `id` — what an eviction does
    /// to each bucket of its path. All-dummy onto a vacant bucket does
    /// nothing at all (no store, no page touched, no index entry);
    /// all-dummy onto an occupied one vacates it; anything else stores
    /// `Z` words and marks it occupied.
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
                self.vacate(id, at);
            }
        } else {
            let at = self.claim(id);
            for (w, b) in self.words[at..at + z].iter_mut().zip(blocks) {
                *w = pack(*b);
            }
        }
    }

    /// The `Z` slots of bucket `id` in order, found with one index lookup;
    /// `None` for a vacant bucket (every slot reads [`Block::DUMMY`]),
    /// answered without touching the bucket's memory. What the access
    /// loops read a path with.
    ///
    /// # Panics
    ///
    /// Panics if the bucket is outside the tree.
    #[inline]
    pub fn slots(&self, id: BucketId) -> Option<impl Iterator<Item = Block> + '_> {
        let z = self.shape.slots_per_bucket;
        self.base_of(id).map(|at| self.words[at..at + z].iter().map(unpack))
    }

    /// Copies bucket `id` into `out`, for callers that need a whole
    /// bucket as `&[Block]` (the durable-store mirror).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != Z` or the bucket is outside the tree.
    pub fn read_bucket(&self, id: BucketId, out: &mut [Block]) {
        assert_eq!(out.len(), self.shape.slots_per_bucket, "buffer must hold exactly Z blocks");
        match self.slots(id) {
            Some(slots) => out.iter_mut().zip(slots).for_each(|(o, b)| *o = b),
            None => out.fill(Block::DUMMY),
        }
    }

    /// Counts stored blocks of `kind` (order-independent, so the order
    /// buckets claimed their ranges cannot leak).
    fn count_kind(&self, kind: u64) -> usize {
        self.words.iter().filter(|w| w[1] >> KIND_SHIFT == kind).count()
    }

    /// Total number of real blocks currently stored in the tree
    /// (diagnostics only — O(size of the arena)).
    pub fn real_block_count(&self) -> usize {
        self.count_kind(KIND_REAL)
    }

    /// Total number of shadow blocks currently stored in the tree
    /// (diagnostics only — O(size of the arena)).
    pub fn shadow_block_count(&self) -> usize {
        self.count_kind(KIND_SHADOW)
    }

    /// Number of buckets that hold a block (diagnostics, O(1): the arena
    /// ranges that are not free, each of which the index maps one bucket
    /// to — [`OramTree::check_occupancy`] checks that).
    pub fn occupied_buckets(&self) -> usize {
        self.words.len() / self.shape.slots_per_bucket - self.free.len()
    }

    /// Length of the slot arena in words (diagnostics): `Z ×` the most
    /// buckets that were ever occupied at once.
    pub fn arena_words(&self) -> usize {
        self.words.len()
    }

    /// Groups the grouped index's pool has handed out, in use or free
    /// (diagnostics; 0 under the hash index). A group in use holds an
    /// occupied bucket, so this is at most the most buckets ever occupied
    /// at once — `arena_words() / Z`.
    pub fn index_groups(&self) -> usize {
        match &self.index {
            BucketIndex::Grouped { pool, .. } => pool.len(),
            BucketIndex::Hashed(_) => 0,
        }
    }

    /// Checks the store's own invariant: the indexed and the free ranges
    /// tile the arena, none of them twice; an indexed range holds a block
    /// and a free one is zeroed. Under the grouped index, likewise the
    /// groups the directory names and the free groups tile the pool, and a
    /// named group holds an entry. O(buckets + arena); test/diagnostic use
    /// only.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn check_occupancy(&self) -> Result<(), String> {
        let z = self.shape.slots_per_bucket;
        let mut indexed = Vec::new();
        match &self.index {
            BucketIndex::Grouped { dir, pool, free } => {
                let named =
                    (0..).zip(dir).filter(|&(_, &g)| g != 0).map(|(k, &g)| (Some(k), g - 1));
                let claims = named.chain(free.iter().map(|&g| (None, g)));
                let name = |g| format!("index group {g}");
                check_tiling(pool.len(), claims, name, "pool", |k, g| {
                    let group = &pool[g as usize];
                    match k {
                        Some(_) if *group == EMPTY => {
                            Err(format!("index group {g} is indexed but empty"))
                        }
                        None if *group != EMPTY => {
                            Err(format!("free index group {g} holds an entry"))
                        }
                        Some(k) => {
                            let raws = k * GROUP as u64..;
                            indexed.extend(raws.zip(*group).filter(|&(_, e)| e != 0));
                            Ok(())
                        }
                        None => Ok(()),
                    }
                })?;
            }
            BucketIndex::Hashed(map) => {
                indexed.extend(map.iter().filter(|&(_, &e)| e != 0).map(|(&raw, &e)| (raw, e)));
            }
        }
        let claims = indexed.into_iter().map(|(raw, entry)| (Some(raw), entry - 1));
        let claims = claims.chain(self.free.iter().map(|&range| (None, range)));
        let name = |range| format!("arena range {}", range as usize * z);
        check_tiling(self.words.len() / z, claims, name, "arena", |raw, range| {
            let at = range as usize * z;
            match raw {
                Some(raw) if all_dummy(&self.words[at..at + z]) => {
                    Err(format!("bucket {raw} is indexed but all-dummy"))
                }
                None if !all_dummy(&self.words[at..at + z]) => {
                    Err(format!("free arena range {at} holds a block"))
                }
                _ => Ok(()),
            }
        })
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
                let shared =
                    pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count() as u32 - 1;
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
        let real = Block::real(
            BlockAddr::new(u64::MAX),
            LeafLabel::new((1 << 47) - 1),
            u64::MAX,
            u64::MAX,
        );
        for blk in [real, real.to_shadow(), Block::real(BlockAddr::new(0), LeafLabel::new(0), 0, 0)]
        {
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

    fn tagged(n: u64) -> Block {
        Block::real(BlockAddr::new(n), LeafLabel::new(n % 8), n, n)
    }

    /// A tree of `shape` whatever its depth, but with the hash index.
    fn hashed(shape: TreeShape) -> OramTree {
        OramTree { index: BucketIndex::Hashed(DetHashMap::default()), ..OramTree::new(shape) }
    }

    /// Heap ids start at 1; id 0 would read as "vacant" from a hash index
    /// and write at `table[−1]` through a flat one.
    #[test]
    #[should_panic(expected = "bucket outside the tree")]
    fn bucket_zero_is_rejected_on_write() {
        OramTree::new(TreeShape::new(3, 2)).set_slot(BucketId(0), 0, tagged(1));
    }

    #[test]
    #[should_panic(expected = "bucket outside the tree")]
    fn bucket_zero_is_rejected_on_read() {
        hashed(TreeShape::new(3, 2)).slot(BucketId(0), 0);
    }

    /// The pointers of every buffer a grouped-index tree reserved: the
    /// arena, its free list, and the index's directory, pool and free list.
    fn buffers(t: &OramTree) -> Vec<usize> {
        let mut at = vec![t.words.as_ptr() as usize, t.free.as_ptr() as usize];
        if let BucketIndex::Grouped { dir, pool, free } = &t.index {
            at.extend([dir.as_ptr() as usize, pool.as_ptr() as usize, free.as_ptr() as usize]);
        }
        at
    }

    /// Ranges are handed out in claim order, the last one freed first,
    /// and a grouped-index tree's arena, index and free lists never move.
    #[test]
    fn ranges_pack_in_claim_order_and_freed_ones_go_first() {
        let shape = TreeShape::new(3, 2);
        for mut t in [OramTree::new(shape), hashed(shape)] {
            let reserved = buffers(&t);
            for raw in [15, 1, 8] {
                t.set_slot(BucketId::new(raw), 1, tagged(raw));
            }
            let bases = [15, 1, 8].map(|raw| t.base_of(BucketId::new(raw)));
            assert_eq!(bases, [Some(0), Some(2), Some(4)]);
            t.write_bucket(BucketId::new(1), &[Block::DUMMY; 2]);
            t.set_slot(BucketId::new(5), 0, tagged(5));
            assert_eq!(t.base_of(BucketId::new(5)), Some(2), "the freed range is taken first");
            assert_eq!((t.arena_words(), t.occupied_buckets()), (6, 3));
            for raw in 1..=shape.bucket_count() {
                t.set_slot(BucketId::new(raw), 0, tagged(raw));
            }
            for raw in 1..=shape.bucket_count() {
                t.write_bucket(BucketId::new(raw), &[Block::DUMMY; 2]);
            }
            assert_eq!((t.arena_words(), t.occupied_buckets()), (shape.slot_count() as usize, 0));
            t.check_occupancy().unwrap();
            if matches!(t.index, BucketIndex::Grouped { .. }) {
                assert_eq!(buffers(&t), reserved, "reallocated");
            }
        }
    }

    /// Ids group by `raw / 16`, so the 31 buckets of an L = 4 tree use two
    /// groups; a group opens with its first occupied id and goes back on
    /// the free list (zeroed) with its last, and filling every bucket of a
    /// tree never moves the pool.
    #[test]
    fn index_groups_open_and_close_with_their_buckets() {
        let shape = TreeShape::new(4, 1);
        let mut t = OramTree::new(shape);
        let reserved = buffers(&t);
        let groups = |t: &OramTree| match &t.index {
            BucketIndex::Grouped { dir, free, .. } => (dir.clone(), free.clone()),
            BucketIndex::Hashed(_) => unreachable!(),
        };
        t.set_slot(BucketId::new(17), 0, tagged(17));
        t.set_slot(BucketId::new(3), 0, tagged(3));
        t.set_slot(BucketId::new(31), 0, tagged(31));
        assert_eq!(groups(&t), (vec![2, 1], vec![]), "group 0 holds ids 16..32, group 1 ids 0..16");
        t.set_slot(BucketId::new(17), 0, Block::DUMMY);
        assert_eq!(groups(&t).0, vec![2, 1], "31 keeps the group open");
        t.write_bucket(BucketId::new(31), &[Block::DUMMY]);
        assert_eq!(groups(&t), (vec![2, 0], vec![0]));
        t.set_slot(BucketId::new(30), 0, tagged(30));
        assert_eq!(groups(&t), (vec![2, 1], vec![]), "the freed group is taken first");
        assert_eq!(t.index_groups(), 2);
        t.check_occupancy().unwrap();
        for raw in 1..=shape.bucket_count() {
            t.set_slot(BucketId::new(raw), 0, tagged(raw));
        }
        for raw in 1..=shape.bucket_count() {
            t.set_slot(BucketId::new(raw), 0, Block::DUMMY);
        }
        assert_eq!(groups(&t), (vec![0, 0], vec![1, 0]));
        t.check_occupancy().unwrap();
        assert_eq!(buffers(&t), reserved, "reallocated");
    }

    /// The index only finds ranges; which range a bucket gets is the
    /// arena's business. So one seeded write sequence leaves the same
    /// arena, free list and answers under either index kind — the oracle
    /// in `tests/tree.rs` reaches the hash index only past the dense
    /// limit, this ties it to the grouped one at the dense depths.
    #[test]
    fn both_index_kinds_lay_out_the_same_arena() {
        for (levels, z) in [(3u32, 1usize), (10, 4), (14, 5)] {
            let shape = TreeShape::new(levels, z);
            let mut trees = [OramTree::new(shape), hashed(shape)];
            let mut rng = oram_util::Rng64::seed_from_u64(0x1DE7 ^ u64::from(levels));
            let pool: Vec<u64> = (0..32).map(|_| 1 + rng.below(shape.bucket_count())).collect();
            for step in 0..4_000 {
                let id = BucketId::new(pool[rng.below(32) as usize]);
                let (op, slot) = (rng.below(4), rng.below(z as u64) as usize);
                let fill = rng.below(z as u64 + 1);
                let bucket: Vec<Block> = (0..z as u64)
                    .map(|i| if i < fill { tagged(step + i) } else { Block::DUMMY })
                    .collect();
                for t in &mut trees {
                    match op {
                        0 => t.set_slot(id, slot, tagged(step)),
                        1 => t.set_slot(id, slot, Block::DUMMY),
                        _ => t.write_bucket(id, &bucket),
                    }
                }
                let [grouped, hashed] =
                    trees.each_ref().map(|t| (&t.words, &t.free, t.base_of(id)));
                assert_eq!(grouped, hashed, "L={levels} step {step}");
            }
            for t in &trees {
                t.check_occupancy().unwrap_or_else(|e| panic!("L={levels}: {e}"));
            }
        }
    }

    /// `check_occupancy` names each way the store can go wrong, under
    /// either index kind, and each way the grouped index's directory can.
    #[test]
    fn check_occupancy_rejects_each_corruption() {
        let shape = TreeShape::new(4, 2);
        for make in [OramTree::new, hashed] {
            let grouped = matches!(make(shape).index, BucketIndex::Grouped { .. });
            let cases = [
                "free arena range 4 holds a block",
                "bucket 3 is indexed but all-dummy",
                "arena range 0 is indexed or free twice",
                "arena range 4 is neither indexed nor free",
                "index group 4 is past the pool",
                "index group 0 is indexed or free twice",
            ];
            for (case, want) in cases.into_iter().enumerate().take(if grouped { 6 } else { 4 }) {
                // Buckets 3 and 5 hold ranges 0 and 1; range 2 is free.
                let mut t = make(shape);
                for raw in [3, 5, 9] {
                    t.set_slot(BucketId::new(raw), 0, tagged(raw));
                }
                t.set_slot(BucketId::new(9), 0, Block::DUMMY);
                t.check_occupancy().unwrap();
                match case {
                    0 => t.words[4] = pack(tagged(4)),
                    1 => t.words[0] = [0; 4],
                    2 => match &mut t.index {
                        BucketIndex::Grouped { pool, .. } => pool[0][7] = 1,
                        BucketIndex::Hashed(map) => {
                            map.insert(7, 1);
                        }
                    },
                    3 => {
                        t.free.pop();
                    }
                    // The directory names groups past the pool, or one
                    // group twice (ids 16..32 are all vacant).
                    _ => match &mut t.index {
                        BucketIndex::Grouped { dir, .. } => {
                            dir[1] = if case == 4 { 5 } else { dir[0] };
                        }
                        BucketIndex::Hashed(_) => unreachable!(),
                    },
                }
                assert_eq!(t.check_occupancy(), Err(want.to_string()));
            }
        }
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
