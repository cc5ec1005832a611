//! Result types describing what one ORAM access did, at the granularity
//! the timing simulator needs.
//!
//! These types sit on the hottest path in the whole system — one
//! [`AccessResult`] per simulated LLC miss — so they are plain-old-data:
//! a phase stores `(kind, leaf, geometry)` and *derives* its DRAM bucket
//! list on demand instead of materializing a `Vec`, and the phase list is
//! a fixed inline array (an access produces at most three phases). The
//! whole result is `Copy` and never touches the heap.

use crate::tree::{PathIter, TreeShape};
use crate::types::LeafLabel;

/// Where the requested data became available to the CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedFrom {
    /// Found in the stash: no memory access needed for the data itself.
    Stash,
    /// Found in the on-chip treetop cache during the path read: available
    /// at on-chip latency as soon as the access starts.
    Treetop,
    /// Returned by the DRAM path read at the given flat block index
    /// (0-based, in DRAM access order root→leaf). Early shadow hits show
    /// up as small indices here — that is the paper's entire effect.
    Dram {
        /// Flat index of the block that served the data.
        block_index: usize,
        /// Total DRAM blocks in this path read (for normalization).
        blocks_in_path: usize,
        /// Whether the serving copy was a shadow block (as opposed to the
        /// authoritative real copy).
        via_shadow: bool,
    },
    /// No copy exists anywhere (first touch of a fresh address): the value
    /// is architecturally zero and is confirmed only when the full path
    /// read completes.
    Fresh {
        /// Total DRAM blocks in this path read.
        blocks_in_path: usize,
    },
}

/// One DRAM-visible phase of an ORAM access.
///
/// The DRAM bucket sequence of every phase kind is fully determined by
/// `(leaf, first DRAM level, tree shape)`: a path phase touches the
/// buckets on the path to `leaf` at levels `first_level..=L`, root-side
/// first (the eviction write half fills leaf-first internally, but the
/// controller issues the DRAM writes root-first to match the read
/// pipeline). Deriving the buckets via [`PathPhase::buckets`] keeps this
/// struct `Copy` and the access path allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathPhase {
    /// What this phase is.
    pub kind: PhaseKind,
    /// The leaf whose path is touched.
    pub leaf: LeafLabel,
    /// First DRAM level (buckets above this sit in the on-chip treetop
    /// cache and cost no DRAM time).
    first_level: u32,
    /// Tree geometry, kept inline so the bucket list can be derived
    /// without consulting the controller.
    shape: TreeShape,
}

impl PathPhase {
    /// Describes a phase touching the path to `leaf` at DRAM levels
    /// `first_level..=shape.levels()`.
    pub fn new(kind: PhaseKind, leaf: LeafLabel, shape: TreeShape, first_level: u32) -> Self {
        PathPhase { kind, leaf, first_level, shape }
    }

    /// Placeholder phase touching no buckets (fills unused slots of a
    /// [`PhaseList`]).
    fn empty() -> Self {
        let shape = TreeShape::new(0, 1);
        PathPhase { kind: PhaseKind::ReadOnly, leaf: LeafLabel::new(0), first_level: 1, shape }
    }

    /// First DRAM level of the phase.
    pub fn first_level(&self) -> u32 {
        self.first_level
    }

    /// Buckets touched in DRAM, in access order (root-side first).
    /// Treetop buckets are excluded.
    #[inline]
    pub fn buckets(&self) -> PathIter {
        self.shape.path_iter_from(self.leaf, self.first_level)
    }

    /// Number of DRAM buckets this phase touches.
    #[inline]
    pub fn bucket_count(&self) -> usize {
        (self.shape.levels() + 1).saturating_sub(self.first_level) as usize
    }
}

/// Kind of a [`PathPhase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PhaseKind {
    /// Read-only path read serving a (real or dummy) request.
    ReadOnly,
    /// The read half of an eviction.
    EvictionRead,
    /// The write half of an eviction.
    EvictionWrite,
}

/// Maximum phases one access can produce: a read-only path read plus an
/// eviction read/write pair.
pub const MAX_PHASES: usize = 3;

/// Inline, fixed-capacity list of the phases of one access. Dereferences
/// to `&[PathPhase]`, so call sites index and iterate it like the `Vec`
/// it replaces — without the per-access heap allocation.
#[derive(Debug, Clone, Copy)]
pub struct PhaseList {
    items: [PathPhase; MAX_PHASES],
    len: u8,
}

impl PhaseList {
    /// An empty list.
    pub fn new() -> Self {
        PhaseList { items: [PathPhase::empty(); MAX_PHASES], len: 0 }
    }

    /// Appends a phase.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_PHASES`] phases (an access
    /// never produces more).
    pub fn push(&mut self, phase: PathPhase) {
        assert!((self.len as usize) < MAX_PHASES, "phase list overflow");
        self.items[self.len as usize] = phase;
        self.len += 1;
    }

    /// The phases as a slice.
    pub fn as_slice(&self) -> &[PathPhase] {
        &self.items[..self.len as usize]
    }
}

impl Default for PhaseList {
    fn default() -> Self {
        PhaseList::new()
    }
}

impl std::ops::Deref for PhaseList {
    type Target = [PathPhase];

    fn deref(&self) -> &[PathPhase] {
        self.as_slice()
    }
}

impl PartialEq for PhaseList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PhaseList {}

impl<'a> IntoIterator for &'a PhaseList {
    type Item = &'a PathPhase;
    type IntoIter = std::slice::Iter<'a, PathPhase>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Complete description of one ORAM access returned to the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Where and when the requested data became available.
    pub served: ServedFrom,
    /// The value returned to the LLC (for writes, the value just written).
    pub value: u64,
    /// For stash hits: whether the serving resident entry was a
    /// shadow-kind copy (HD-Dup's stash-caching effect). The timing
    /// simulator uses this to credit the hit to duplication; always
    /// `false` when `served` is not [`ServedFrom::Stash`].
    pub stash_hit_shadow: bool,
    /// DRAM phases executed by this access, in order. Empty for pure stash
    /// hits. A read-only access contributes one `ReadOnly` phase; when the
    /// eviction counter fires, an `EvictionRead` + `EvictionWrite` pair is
    /// appended.
    pub phases: PhaseList,
}

impl AccessResult {
    /// Total DRAM block transfers implied by this access (reads + writes),
    /// given `z` slots per bucket.
    pub fn dram_blocks(&self, z: usize) -> usize {
        self.phases.iter().map(|p| p.bucket_count() * z).sum()
    }

    /// `true` if the access was served without any DRAM involvement.
    pub fn served_on_chip(&self) -> bool {
        matches!(self.served, ServedFrom::Stash | ServedFrom::Treetop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::BucketId;

    #[test]
    fn dram_block_accounting() {
        let shape = TreeShape::new(1, 4); // 2 levels: root + leaves
        let mut phases = PhaseList::new();
        // Full path in DRAM: 2 buckets.
        phases.push(PathPhase::new(PhaseKind::ReadOnly, LeafLabel::new(0), shape, 0));
        // Treetop holds the root: 1 DRAM bucket.
        phases.push(PathPhase::new(PhaseKind::EvictionWrite, LeafLabel::new(0), shape, 1));
        let r =
            AccessResult { served: ServedFrom::Stash, value: 0, stash_hit_shadow: false, phases };
        assert_eq!(r.dram_blocks(4), 12);
        assert!(r.served_on_chip());
    }

    #[test]
    fn phase_buckets_derive_the_dram_path() {
        let shape = TreeShape::new(3, 2);
        let leaf = LeafLabel::new(5);
        let full = PathPhase::new(PhaseKind::ReadOnly, leaf, shape, 0);
        assert_eq!(full.bucket_count(), 4);
        let ids: Vec<BucketId> = full.buckets().collect();
        assert_eq!(ids, shape.path(leaf));
        // Skipping a 2-level treetop leaves the two leaf-side buckets.
        let tail = PathPhase::new(PhaseKind::ReadOnly, leaf, shape, 2);
        assert_eq!(tail.bucket_count(), 2);
        let ids: Vec<BucketId> = tail.buckets().collect();
        assert_eq!(ids, shape.path(leaf)[2..]);
        assert!(ids.iter().all(|b| b.level() >= 2));
    }

    #[test]
    fn phase_list_acts_like_a_slice() {
        let shape = TreeShape::new(2, 1);
        let mut l = PhaseList::new();
        assert!(l.is_empty());
        l.push(PathPhase::new(PhaseKind::ReadOnly, LeafLabel::new(1), shape, 0));
        l.push(PathPhase::new(PhaseKind::EvictionRead, LeafLabel::new(2), shape, 1));
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].kind, PhaseKind::ReadOnly);
        assert_eq!(l.iter().count(), 2);
        let copy = l;
        assert_eq!(copy, l);
    }

    #[test]
    #[should_panic(expected = "phase list overflow")]
    fn phase_list_rejects_a_fourth_phase() {
        let shape = TreeShape::new(2, 1);
        let p = PathPhase::new(PhaseKind::ReadOnly, LeafLabel::new(0), shape, 0);
        let mut l = PhaseList::new();
        for _ in 0..4 {
            l.push(p);
        }
    }
}
