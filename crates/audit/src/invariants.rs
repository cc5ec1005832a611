//! Structural invariant checking: replaying a captured bus trace against
//! the protocol grammar.
//!
//! Everything verified here is *publicly* derivable — the checker never
//! consults a secret. That is the point: if the checker can predict the
//! trace's structure from the configuration alone, the structure leaks
//! nothing about the access pattern.

use std::collections::{HashMap, VecDeque};

use oram_protocol::{EvictionOrder, OramConfig};
use oram_util::{BusEvent, BusPhase};

/// The publicly known parameters a trace is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Tree depth `L` (leaf level index).
    pub levels: u32,
    /// Block slots per bucket.
    pub z: usize,
    /// On-chip treetop levels (excluded from the bus).
    pub treetop_levels: u32,
    /// Eviction rate `A`: one eviction per `A − 1` path reads.
    pub eviction_rate: u32,
}

impl TraceSpec {
    /// The spec corresponding to a controller configuration.
    pub fn from_oram(cfg: &OramConfig) -> Self {
        TraceSpec {
            levels: cfg.levels,
            z: cfg.z,
            treetop_levels: cfg.treetop_levels,
            eviction_rate: cfg.eviction_rate,
        }
    }

    /// DRAM-visible buckets in every phase.
    fn buckets_per_phase(&self) -> usize {
        (self.levels + 1 - self.treetop_levels) as usize
    }
}

/// What a structurally valid trace contained.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Path-touching accesses (stash hits never reach the bus).
    pub accesses: u64,
    /// Read-only path reads.
    pub path_reads: u64,
    /// Evictions (read + write path pairs).
    pub evictions: u64,
    /// Device-level DRAM block requests seen (0 for controller-only
    /// traces).
    pub dram_blocks: u64,
    /// The observed leaf of every read-only path read, in order — the
    /// raw material for the statistical layer.
    pub leaves: Vec<u64>,
}

/// Bucket ids the layout table holds flat; ids past it (deeper levels of
/// a billion-block tree, or ids a malformed trace invents) take the map.
const FLAT_BUCKET_LIMIT: u64 = 1 << 21;

/// The canonical bucket → physical-address mapping a trace has shown so
/// far: `z` addresses per bucket id in one flat table.
struct BucketLayout {
    z: usize,
    /// `z` addresses for each of the first `seen.len()` ids, valid where
    /// `seen` is set.
    addrs: Vec<u64>,
    seen: Vec<bool>,
    overflow: HashMap<u64, Vec<u64>>,
}

impl BucketLayout {
    fn new(spec: &TraceSpec) -> Self {
        // Ids are < 2^(L+1) in any trace that can pass; both tables come
        // from the zeroed-allocation path, so only touched pages cost.
        let ids = (2u64 << spec.levels).min(FLAT_BUCKET_LIMIT) as usize;
        BucketLayout {
            z: spec.z,
            addrs: vec![0; ids * spec.z],
            seen: vec![false; ids],
            overflow: HashMap::new(),
        }
    }

    /// Records `addrs` as the mapping of `bucket` on first sight;
    /// afterwards returns the recorded mapping if `addrs` differs.
    fn disagrees(&mut self, bucket: u64, addrs: &[u64]) -> Option<&[u64]> {
        let known = match usize::try_from(bucket).ok().filter(|&ix| ix < self.seen.len()) {
            Some(ix) => {
                let known = &mut self.addrs[ix * self.z..][..self.z];
                if !std::mem::replace(&mut self.seen[ix], true) {
                    known.copy_from_slice(addrs);
                }
                &*known
            }
            None => self.overflow.entry(bucket).or_insert_with(|| addrs.to_vec()),
        };
        Some(known).filter(|known| *known != addrs)
    }
}

fn level_of(bucket: u64) -> u32 {
    63 - (bucket.leading_zeros().min(63))
}

/// Checks a captured trace against every structural invariant of the
/// protocol, returning a summary of what it contained.
///
/// The trace must start at controller creation (the eviction-order and
/// cadence checks replay the schedule from its origin) and must be
/// complete — ring-truncated traces are for failure reporting, not
/// checking.
///
/// Verified invariants:
/// * event grammar: phases nest inside accesses, buckets inside phases;
/// * phase sequence per access: a read-only read, optionally followed by
///   exactly one eviction read + eviction write pair;
/// * every phase touches exactly `L + 1 − treetop` buckets, root-side
///   first, each the tree child of its predecessor, ending at a leaf —
///   and therefore the request count per access is a constant of the
///   configuration, identical across all policies;
/// * read/write direction matches the phase kind;
/// * the eviction write rewrites exactly the buckets the eviction read
///   loaded;
/// * evictions follow the reverse-lexicographic leaf order, one per
///   `A − 1` path reads, never early and never late;
/// * device-level DRAM requests (when captured) expand each bucket into
///   exactly `z` block requests with the matching direction, and every
///   bucket maps to the same physical block addresses every time it is
///   touched.
///
/// # Errors
///
/// Returns a description of the first violation, with enough context to
/// locate it in the trace.
pub fn check_trace(spec: &TraceSpec, events: &[BusEvent]) -> Result<TraceSummary, String> {
    let want_buckets = spec.buckets_per_phase();
    let leaf_count = 1u64 << spec.levels;
    let leaf_base = 1u64 << spec.levels;

    let mut summary = TraceSummary::default();
    let mut in_access = false;
    let mut phases_this_access = 0usize;
    let mut cur_phase: Option<BusPhase> = None;
    let mut cur_buckets: Vec<u64> = Vec::new();
    let mut last_evict_read: Vec<u64> = Vec::new();
    let mut ro_since_evict = 0u64;
    let mut evict_order = EvictionOrder::new(spec.levels);

    // Device-level bookkeeping: buckets awaiting their z block requests,
    // and the canonical bucket → physical-address mapping.
    let mut pending: VecDeque<(u64, bool)> = VecDeque::new();
    let mut consumed_of_front = 0usize;
    let mut front_addrs: Vec<u64> = Vec::new();
    let mut layout = BucketLayout::new(spec);

    for (ix, &event) in events.iter().enumerate() {
        let err = |msg: String| -> Result<TraceSummary, String> {
            Err(format!("event {ix}: {msg}"))
        };
        match event {
            BusEvent::AccessStart => {
                if in_access {
                    return err("nested AccessStart".into());
                }
                in_access = true;
                phases_this_access = 0;
            }
            BusEvent::PhaseStart(kind) => {
                if !in_access || cur_phase.is_some() {
                    return err(format!("{kind:?} phase outside access framing"));
                }
                let expected = match phases_this_access {
                    0 => BusPhase::ReadOnly,
                    1 => BusPhase::EvictionRead,
                    2 => BusPhase::EvictionWrite,
                    n => return err(format!("access has more than {n} phases")),
                };
                if kind != expected {
                    return err(format!(
                        "phase {phases_this_access} of access is {kind:?}, expected {expected:?}"
                    ));
                }
                cur_phase = Some(kind);
                cur_buckets.clear();
            }
            BusEvent::Bucket { bucket, write } => {
                let Some(kind) = cur_phase else {
                    return err(format!("bucket {bucket} outside any phase"));
                };
                let want_write = kind == BusPhase::EvictionWrite;
                if write != want_write {
                    return err(format!(
                        "bucket {bucket} direction write={write} in {kind:?} phase"
                    ));
                }
                if bucket == 0 {
                    return err("bucket id 0 (heap indices start at 1)".into());
                }
                match cur_buckets.last() {
                    None => {
                        if level_of(bucket) != spec.treetop_levels {
                            return err(format!(
                                "phase starts at bucket {bucket} (level {}), expected the \
                                 first DRAM level {}",
                                level_of(bucket),
                                spec.treetop_levels
                            ));
                        }
                    }
                    Some(&prev) => {
                        if bucket / 2 != prev {
                            return err(format!(
                                "bucket {bucket} is not a tree child of {prev}: the path \
                                 must be issued root→leaf in layout order"
                            ));
                        }
                    }
                }
                cur_buckets.push(bucket);
                pending.push_back((bucket, want_write));
            }
            BusEvent::PhaseEnd(kind) => {
                if cur_phase != Some(kind) {
                    return err(format!("unbalanced PhaseEnd({kind:?})"));
                }
                if cur_buckets.len() != want_buckets {
                    return err(format!(
                        "{kind:?} phase touched {} buckets, expected {want_buckets}: the \
                         request count per access must be constant",
                        cur_buckets.len()
                    ));
                }
                let leaf = cur_buckets.last().expect("non-empty phase") - leaf_base;
                if leaf >= leaf_count {
                    return err(format!("path ends at non-leaf bucket (leaf {leaf})"));
                }
                match kind {
                    BusPhase::ReadOnly => {
                        summary.path_reads += 1;
                        ro_since_evict += 1;
                        summary.leaves.push(leaf);
                    }
                    BusPhase::EvictionRead => {
                        let expected = evict_order.next_leaf().raw();
                        if leaf != expected {
                            return err(format!(
                                "eviction read of leaf {leaf}, expected reverse-lexicographic \
                                 leaf {expected}"
                            ));
                        }
                        last_evict_read.clear();
                        last_evict_read.extend_from_slice(&cur_buckets);
                    }
                    BusPhase::EvictionWrite => {
                        if cur_buckets != last_evict_read {
                            return err(format!(
                                "eviction write path {cur_buckets:?} differs from the path \
                                 read {last_evict_read:?}"
                            ));
                        }
                    }
                }
                cur_phase = None;
                phases_this_access += 1;
            }
            BusEvent::AccessEnd => {
                if !in_access || cur_phase.is_some() {
                    return err("unbalanced AccessEnd".into());
                }
                match phases_this_access {
                    1 => {
                        if ro_since_evict >= u64::from(spec.eviction_rate - 1) {
                            return err(format!(
                                "eviction overdue: {ro_since_evict} path reads since the \
                                 last eviction (rate A = {})",
                                spec.eviction_rate
                            ));
                        }
                    }
                    3 => {
                        if ro_since_evict != u64::from(spec.eviction_rate - 1) {
                            return err(format!(
                                "eviction after {ro_since_evict} path reads, expected every \
                                 {} (rate A = {})",
                                spec.eviction_rate - 1,
                                spec.eviction_rate
                            ));
                        }
                        ro_since_evict = 0;
                        summary.evictions += 1;
                    }
                    n => return err(format!("access ended with {n} phases, expected 1 or 3")),
                }
                in_access = false;
                summary.accesses += 1;
            }
            BusEvent::PosmapBucket { .. } => {
                // Posmap-ORAM traffic has its own grammar (recursion-chain
                // paths, not data-tree paths) and is checked by the
                // dedicated posmap audit; the data-path checker skips it.
            }
            BusEvent::DramBlock { addr, write } => {
                // Device requests trail their bucket events (the engine
                // issues DRAM batches after the controller reports the
                // access), consumed here in FIFO order, z per bucket.
                summary.dram_blocks += 1;
                let Some(&(bucket, bucket_write)) = pending.front() else {
                    return err(format!("DRAM block {addr:#x} with no bucket awaiting it"));
                };
                if write != bucket_write {
                    return err(format!(
                        "DRAM block {addr:#x} direction write={write} under bucket {bucket} \
                         (write={bucket_write})"
                    ));
                }
                front_addrs.push(addr);
                consumed_of_front += 1;
                if consumed_of_front == spec.z {
                    if let Some(known) = layout.disagrees(bucket, &front_addrs) {
                        return err(format!(
                            "bucket {bucket} mapped to {front_addrs:?}, previously \
                             {known:?}: the layout must be a fixed public function"
                        ));
                    }
                    pending.pop_front();
                    consumed_of_front = 0;
                    front_addrs.clear();
                }
            }
        }
    }

    if in_access || cur_phase.is_some() {
        return Err("trace ends inside an access".into());
    }
    if summary.dram_blocks > 0 && (!pending.is_empty() || consumed_of_front != 0) {
        return Err(format!(
            "trace ends with {} buckets still awaiting DRAM block requests",
            pending.len()
        ));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;
    use oram_protocol::{BlockAddr, OramController, Request};

    fn spec() -> (TraceSpec, OramConfig) {
        let cfg = OramConfig::small_test();
        (TraceSpec::from_oram(&cfg), cfg)
    }

    fn record(cfg: OramConfig, n: u64) -> Vec<BusEvent> {
        let rec = Recorder::unbounded();
        let mut ctl = OramController::new(cfg).unwrap();
        ctl.set_observer(Some(rec.observer()));
        for i in 0..n {
            ctl.access(Request::read(BlockAddr::new(i % 50)));
        }
        rec.snapshot()
    }

    #[test]
    fn honest_controller_trace_passes() {
        let (spec, cfg) = spec();
        let events = record(cfg, 300);
        let s = check_trace(&spec, &events).unwrap();
        assert!(s.accesses > 0);
        assert_eq!(s.path_reads, s.leaves.len() as u64);
        assert_eq!(s.evictions, s.path_reads / u64::from(spec.eviction_rate - 1));
        assert_eq!(s.dram_blocks, 0);
    }

    #[test]
    fn treetop_trace_passes_with_short_paths() {
        let (_, cfg) = spec();
        let cfg = cfg.with_treetop(3);
        let events = record(cfg, 200);
        let s = check_trace(&TraceSpec::from_oram(&cfg), &events).unwrap();
        assert!(s.path_reads > 0);
    }

    #[test]
    fn corrupted_traces_are_rejected() {
        let (spec, cfg) = spec();
        let events = record(cfg, 120);
        // Dropping any single structural event must break the grammar.
        for victim in [3usize, 10, 25] {
            let mut broken = events.clone();
            broken.remove(victim);
            assert!(check_trace(&spec, &broken).is_err(), "dropped event {victim}");
        }
        // Reordering two bucket events breaks layout order.
        let first_bucket = events
            .iter()
            .position(|e| matches!(e, BusEvent::Bucket { .. }))
            .unwrap();
        let mut swapped = events.clone();
        swapped.swap(first_bucket, first_bucket + 1);
        assert!(check_trace(&spec, &swapped).is_err());
        // A wrong-direction bucket is caught.
        let mut flipped = events;
        if let BusEvent::Bucket { bucket, .. } = flipped[first_bucket] {
            flipped[first_bucket] = BusEvent::Bucket { bucket, write: true };
        }
        assert!(check_trace(&spec, &flipped).is_err());
    }

    /// Device-level trace of a small engine run (`DramBlock` events
    /// trailing their buckets).
    fn record_engine(n: u64) -> (TraceSpec, Vec<BusEvent>) {
        let sys = oram_sim::SystemConfig::small_test();
        let spec = TraceSpec::from_oram(&sys.oram);
        let rec = Recorder::unbounded();
        let mut engine = oram_sim::Engine::new(sys).unwrap();
        engine.attach_bus_observer(rec.observer());
        let misses = (0..n)
            .map(|i| oram_cpu::MissRecord {
                block_addr: i * 7 % 40,
                is_write: i % 3 == 0,
                gap_cycles: 50,
                blocking: true,
            })
            .collect();
        engine.run(&mut oram_cpu::ReplayMisses::new(misses));
        (spec, rec.snapshot())
    }

    #[test]
    fn a_bucket_that_moves_is_rejected_with_both_mappings() {
        let (spec, events) = record_engine(150);
        let s = check_trace(&spec, &events).unwrap();
        assert!(s.dram_blocks > 0);
        // The root bucket is on every path: move one block of its last
        // visit and the checker must quote both mappings.
        let last = events
            .iter()
            .rposition(|e| matches!(e, BusEvent::DramBlock { .. }))
            .unwrap();
        let root_block = last + 1 - (spec.levels as usize + 1 - spec.treetop_levels as usize) * spec.z;
        let mut moved = events.clone();
        let BusEvent::DramBlock { addr, write } = moved[root_block] else { panic!("not a block") };
        moved[root_block] = BusEvent::DramBlock { addr: addr + 1_000_000, write };
        let e = check_trace(&spec, &moved).unwrap_err();
        assert!(e.contains(&format!("mapped to [{}", addr + 1_000_000)), "{e}");
        assert!(e.contains(&format!("previously [{addr}")), "{e}");
        assert!(e.ends_with("the layout must be a fixed public function"), "{e}");
    }

    #[test]
    fn layout_table_answers_alike_inside_and_past_the_flat_range() {
        let spec = TraceSpec { levels: 3, z: 2, treetop_levels: 0, eviction_rate: 5 };
        let mut layout = BucketLayout::new(&spec);
        // 15 is the deepest id of an L=3 tree; 16 and 2^40 only occur in
        // malformed traces and take the overflow map.
        for bucket in [1u64, 15, 16, 1 << 40] {
            assert_eq!(layout.disagrees(bucket, &[0, 9]), None, "first sight of {bucket}");
            assert_eq!(layout.disagrees(bucket, &[0, 9]), None);
            assert_eq!(layout.disagrees(bucket, &[0, 8]), Some(&[0u64, 9][..]));
            assert_eq!(layout.disagrees(bucket, &[0, 9]), None, "the first mapping stays");
        }
        // An all-zero mapping is a mapping, not "unseen".
        assert_eq!(layout.disagrees(2, &[0, 0]), None);
        assert_eq!(layout.disagrees(2, &[0, 1]), Some(&[0u64, 0][..]));
    }

    #[test]
    fn wrong_spec_is_rejected() {
        let (spec, cfg) = spec();
        let events = record(cfg, 60);
        let mut wrong = spec;
        wrong.eviction_rate += 1;
        assert!(check_trace(&wrong, &events).is_err(), "cadence mismatch");
        let mut wrong = spec;
        wrong.treetop_levels = 2;
        assert!(check_trace(&wrong, &events).is_err(), "path length mismatch");
    }
}
