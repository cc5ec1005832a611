//! # oram-protocol
//!
//! A Tiny ORAM (Path-ORAM-derived) controller with **Shadow Block** data
//! duplication, reproducing the protocol contribution of Zhang et al.,
//! *"Shadow Block: Accelerating ORAM Accesses with Data Duplication"*
//! (MICRO 2018).
//!
//! ## What's in here
//!
//! * [`OramController`] — the trusted controller: stash, position map,
//!   read-only path reads, reverse-lexicographic evictions, and the
//!   shadow-block machinery (RD-Dup, HD-Dup, static/dynamic partitioning).
//! * [`OramTree`] / [`TreeShape`] — the untrusted external memory modeled
//!   as a binary tree of `Z`-slot buckets.
//! * [`Stash`] — the on-chip CAM with replaceable entries and merge rules.
//! * [`PosMap`] — the position map: one index of the trusted metadata
//!   (labels, versions, real-copy sites) that keeps duplicated copies
//!   coherent, behind one of two fronts: a page PLB, or the recursive
//!   chain of smaller ORAMs behind its PLB ([`PosmapChain`]).
//! * [`DupPolicy`] — Tiny ORAM, a partitioning level `P` (pure RD-Dup and
//!   pure HD-Dup are its two ends), or the dynamic partitioner.
//! * [`HotAddressCache`] — the LFU access-counter cache driving HD-Dup.
//! * [`BusObserver`] — the externally visible access pattern, which the
//!   security tests compare to show the shadow controller is
//!   indistinguishable from the baseline.
//!
//! Timing is deliberately *not* modeled here: the controller reports which
//! buckets each access touches and at which flat path position the
//! requested data became available; the `oram-sim` crate converts that into
//! cycles through a DDR3 model.
//!
//! ## Quick example
//!
//! ```
//! use oram_protocol::{OramController, OramConfig, DupPolicy, Request, BlockAddr};
//!
//! # fn main() -> Result<(), String> {
//! let cfg = OramConfig::small_test().with_dup_policy(DupPolicy::Dynamic { counter_bits: 3 });
//! let mut ctl = OramController::new(cfg)?;
//! ctl.access(Request::write(BlockAddr::new(1), 42));
//! let r = ctl.access(Request::read(BlockAddr::new(1)));
//! assert_eq!(r.value, 42);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
mod config;
mod controller;
mod hotcache;
mod posmap;
mod posmap_recursive;
mod shadow;
mod stash;
mod tree;
mod types;

pub use access::{AccessResult, PathPhase, PhaseKind, PhaseList, ServedFrom, MAX_PHASES};
pub use config::{OramConfig, PosMapSelect};
#[cfg(feature = "mutants")]
pub use controller::Mutant;
pub use controller::{AccessTicket, OramController, OramStats};
pub use hotcache::{HotAddressCache, HotCacheStats};
pub use oram_util::{BusEvent, BusObserver, BusPhase, SharedObserver};
pub use posmap::{build_posmap, PlbStats, PosEntry, PosMap, PosmapPhase, RealCopySite};
pub use posmap_recursive::{PosmapChain, ENTRIES_PER_BLOCK};
pub use shadow::{
    scheme_for_slot, DriCounter, DupCandidate, DupPolicy, DupQueues, DynamicPartitioner, SlotScheme,
};
pub use stash::{InsertOutcome, Stash, StashEntry, StashStats};
pub use tree::{BucketId, EvictionOrder, OramTree, PathIter, TreeShape};
pub use types::{Block, BlockAddr, BlockKind, LeafLabel, Op, Request, Version};
