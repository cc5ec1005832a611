//! # oram-audit
//!
//! Bus-trace capture and obliviousness verification for the Shadow Block
//! reproduction.
//!
//! The paper's security argument (Sec. IV-B) is that RD-Dup/HD-Dup
//! duplication only changes *ciphertext contents*: the DRAM-visible
//! address and direction trace is the Tiny ORAM baseline's. Nothing in a
//! performance-focused codebase keeps that true by construction, so this
//! crate mechanically verifies it, in four layers:
//!
//! 1. **Capture** — [`Recorder`], a ring-buffer [`oram_util::BusObserver`]
//!    that both the controller and the DRAM model accept. Detached, the
//!    hook is one branch on `None`; the protocol zero-alloc bench gate
//!    still passes with the hooks compiled in.
//! 2. **Structural invariants** — [`check_trace`] replays a captured
//!    trace against the protocol grammar: every access reads exactly the
//!    declared path buckets root→leaf in layout order, eviction writes
//!    rewrite exactly the buckets read, evictions follow the
//!    reverse-lexicographic order at the configured cadence, and
//!    device-level DRAM requests expand each bucket to the same `z`
//!    physical blocks every time. The [`posmap`] module supplies the
//!    matching grammar for the recursive position map's own traffic
//!    ([`check_posmap_trace`]) plus the flat-identity diff over the
//!    data subsequence ([`recursive_flat_data_identity`]). Both grammars
//!    are resumable folds ([`TraceFold`], [`PosmapFold`]) — the slice
//!    checkers are the fold applied once — and [`LaneAudit`] is the
//!    `BusObserver` that runs them on a live engine, so a serving run is
//!    audited as it goes instead of recorded and checked afterwards.
//! 3. **Statistical tests** — hand-rolled [`chi_square_uniform`] /
//!    [`ks_uniform`] over the observed leaf distribution, and the
//!    [`distinguisher`] harness: two different secret access patterns
//!    must produce traces equal in distribution, and address-relabeled
//!    patterns must produce *byte-identical* traces (also end-to-end
//!    under timing protection).
//! 4. **Fuzz driver** — [`run_audit`] sweeps random configurations ×
//!    synthetic workloads × all six policies (Baseline/RD/HD/Dynamic/
//!    XOR/Treetop) under the auditor, and drives the multi-client
//!    service front-end (MSHR coalescing + batch scheduling) through
//!    [`check_service_trace`] across every scheduler policy, including
//!    a client-mix distinguisher; `repro audit [--quick]` surfaces it
//!    on the command line and in CI.
//!
//! The companion tests in `tests/mutants.rs` inject deliberate protocol
//! faults (a skipped bucket rewrite, a biased remap) behind the
//! `mutants` cargo feature and prove each layer actually catches its
//! class of regression.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod distinguisher;
pub mod fuzz;
pub mod invariants;
pub mod online;
pub mod posmap;
pub mod recorder;
pub mod stats;

pub use distinguisher::{
    cross_policy_traces_identical, distribution_distinguisher, filter_treetop, fresh_stream,
    record_trace, relabel_offset, relabeled_traces_identical, reuse_stream,
    timing_protected_relabeled_identical, PolicyUnderTest,
};
pub use fuzz::{check_service_trace, run_audit, AuditFailure, AuditOptions, AuditReport};
pub use invariants::{check_trace, TraceFold, TraceSpec, TraceSummary};
pub use online::LaneAudit;
pub use posmap::{
    check_posmap_trace, recursive_flat_data_identity, strip_posmap_events, PosmapFold,
    PosmapSummary,
};
pub use recorder::Recorder;
pub use stats::{
    bin_counts, chi_square_two_sample, chi_square_uniform, ks_uniform, ks_uniform_counts, GofTest,
    LeafCounts,
};
