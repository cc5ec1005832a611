//! Structural invariant checking: replaying a captured bus trace against
//! the protocol grammar.
//!
//! Everything verified here is *publicly* derivable — the checker never
//! consults a secret. That is the point: if the checker can predict the
//! trace's structure from the configuration alone, the structure leaks
//! nothing about the access pattern.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

use oram_protocol::{EvictionOrder, OramConfig};
use oram_util::{BusEvent, BusPhase};

use crate::stats::LeafCounts;

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
    /// raw material for the statistical layer. Empty from a
    /// [`LaneAudit`](crate::LaneAudit), which counts the leaves instead.
    pub leaves: Vec<u64>,
}

/// Bucket ids the layout table holds flat; ids past it (deeper levels of
/// a billion-block tree, or ids a malformed trace invents) take the map.
const FLAT_BUCKET_LIMIT: u64 = 1 << 21;

/// `compact` word of a bucket no trace event has mapped yet.
const UNSEEN: u32 = 0;
/// `compact` word of a bucket whose mapping lives in `overflow`.
const IN_OVERFLOW: u32 = 1;

/// A mapping kept in [`BucketLayout::overflow`].
#[derive(Debug)]
enum Mapping {
    /// `base, base + 1, …`: one word, however long the bucket.
    Consecutive(u64),
    /// Anything else, address by address.
    Scattered(Vec<u64>),
}

/// The canonical bucket → physical-address mapping a trace has shown so
/// far. Every layout the engine produces gives a bucket `z` consecutive
/// block addresses, so the flat table keeps one `u32` word per bucket id
/// — the base address — and only a mapping whose base does not fit the
/// word, a scattered one, or an id past the table pays for a map entry.
#[derive(Debug)]
struct BucketLayout {
    /// Per bucket id: [`UNSEEN`], [`IN_OVERFLOW`], or `base + 2` of a
    /// consecutive mapping whose base is at most `2^32 − 3`.
    compact: Vec<u32>,
    overflow: HashMap<u64, Mapping>,
}

/// The base of `addrs` when they are `base, base + 1, …`.
fn consecutive_base(addrs: &[u64]) -> Option<u64> {
    let (&base, rest) = addrs.split_first()?;
    rest.iter().zip(1u64..).all(|(&a, k)| base.checked_add(k) == Some(a)).then_some(base)
}

/// The `compact` word of a consecutive mapping from `base`, if it fits.
fn word_of(base: u64) -> Option<u32> {
    base.checked_add(2).and_then(|w| u32::try_from(w).ok())
}

/// The `len` addresses of a consecutive mapping from `base`.
fn run_from(base: u64, len: usize) -> Vec<u64> {
    (0..len as u64).map(|k| base.wrapping_add(k)).collect()
}

impl BucketLayout {
    fn new(spec: &TraceSpec) -> Self {
        // Ids are < 2^(L+1) in any trace that can pass; the table comes
        // from the zeroed-allocation path, so only touched pages cost.
        let ids = (2u64 << spec.levels).min(FLAT_BUCKET_LIMIT) as usize;
        BucketLayout { compact: vec![UNSEEN; ids], overflow: HashMap::new() }
    }

    /// Whether `bucket` is already mapped to the consecutive addresses
    /// starting at `base` in the table (the one lookup the per-bucket fast
    /// path makes; a mapping in the overflow map answers `false`).
    #[inline]
    fn is_consecutive_from(&self, bucket: u64, base: u64) -> bool {
        let word = usize::try_from(bucket).ok().and_then(|ix| self.compact.get(ix));
        word_of(base).is_some_and(|w| word == Some(&w))
    }

    /// Records `addrs` as the mapping of `bucket` on first sight;
    /// afterwards returns the recorded mapping if `addrs` differs.
    fn disagrees(&mut self, bucket: u64, addrs: &[u64]) -> Option<Vec<u64>> {
        let base = consecutive_base(addrs);
        if let Some(slot) = usize::try_from(bucket).ok().and_then(|ix| self.compact.get_mut(ix)) {
            match *slot {
                UNSEEN => {
                    let word = base.and_then(word_of);
                    *slot = word.unwrap_or(IN_OVERFLOW);
                    if word.is_some() {
                        return None;
                    }
                }
                IN_OVERFLOW => {}
                word => {
                    let known = u64::from(word) - 2;
                    return (base != Some(known)).then(|| run_from(known, addrs.len()));
                }
            }
        }
        match self.overflow.entry(bucket) {
            Entry::Vacant(entry) => {
                entry.insert(match base {
                    Some(base) => Mapping::Consecutive(base),
                    None => Mapping::Scattered(addrs.to_vec()),
                });
                None
            }
            Entry::Occupied(entry) => match entry.get() {
                &Mapping::Consecutive(known) => {
                    (base != Some(known)).then(|| run_from(known, addrs.len()))
                }
                Mapping::Scattered(known) => (known != addrs).then(|| known.clone()),
            },
        }
    }
}

fn level_of(bucket: u64) -> u32 {
    63 - (bucket.leading_zeros().min(63))
}

fn err(ix: usize, msg: String) -> Result<(), String> {
    Err(format!("event {ix}: {msg}"))
}

/// The protocol grammar as a resumable fold: [`TraceFold::feed`] consumes
/// a trace in pieces of any size, [`TraceFold::finish`] applies the
/// end-of-trace checks and hands back the [`TraceSummary`]. Feeding the
/// pieces of a trace gives exactly the result — summary, or error string
/// with its event index — of feeding the whole trace at once:
/// boundaries between calls carry no meaning, and event indices count
/// across calls.
///
/// Every buffer is sized from the [`TraceSpec`] at construction, so
/// feeding a device-level trace allocates only as
/// [`TraceSummary::leaves`] grows (8 B per path read) — or not at all in
/// the counting fold a [`LaneAudit`](crate::LaneAudit) runs. Kept state
/// is O(`L` + `z`) plus the bucket-layout table, one `u32` word per bucket
/// id the tree can hold. (A controller-only trace carries no `DramBlock`
/// events, so its buckets queue up for the whole trace, as they always
/// did.)
///
/// [`check_trace`] is this fold applied to a slice; see it for the
/// invariants verified.
#[derive(Debug)]
pub struct TraceFold {
    spec: TraceSpec,
    /// Events consumed by earlier [`TraceFold::feed`] calls.
    seen: usize,
    summary: TraceSummary,
    in_access: bool,
    phases_this_access: usize,
    cur_phase: Option<BusPhase>,
    cur_buckets: Vec<u64>,
    last_evict_read: Vec<u64>,
    ro_since_evict: u64,
    evict_order: EvictionOrder,
    /// Device-level bookkeeping: buckets awaiting their `z` block
    /// requests, the addresses the front one has received so far, and
    /// the canonical bucket → physical-address mapping.
    pending: VecDeque<(u64, bool)>,
    front_addrs: Vec<u64>,
    layout: BucketLayout,
    /// Where each read-only path's leaf goes: counts, or (when `None`)
    /// [`TraceSummary::leaves`].
    leaf_counts: Option<LeafCounts>,
}

impl TraceFold {
    /// A fold at the origin of a trace (controller creation: the
    /// eviction-order and cadence checks replay the schedule from there).
    pub fn new(spec: &TraceSpec) -> Self {
        let path = spec.levels as usize + 1;
        TraceFold {
            spec: *spec,
            seen: 0,
            summary: TraceSummary::default(),
            in_access: false,
            phases_this_access: 0,
            cur_phase: None,
            cur_buckets: Vec::with_capacity(path),
            last_evict_read: Vec::with_capacity(path),
            ro_since_evict: 0,
            evict_order: EvictionOrder::new(spec.levels),
            // The engine reports an access's three phases before its
            // first storage batch.
            pending: VecDeque::with_capacity(3 * path),
            front_addrs: Vec::with_capacity(spec.z),
            layout: BucketLayout::new(spec),
            leaf_counts: None,
        }
    }

    /// A fold that counts the leaves of the read-only paths instead of
    /// storing them: its [`TraceSummary::leaves`] stays empty.
    pub(crate) fn counting_leaves(spec: &TraceSpec) -> Self {
        TraceFold { leaf_counts: Some(LeafCounts::new(spec.levels)), ..TraceFold::new(spec) }
    }

    /// Events consumed so far.
    pub(crate) fn events_seen(&self) -> usize {
        self.seen
    }

    /// Consumes the next `events` of the trace.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation, with its event
    /// index in the whole trace. A fold that has returned an error must
    /// not be fed again.
    pub fn feed(&mut self, events: &[BusEvent]) -> Result<(), String> {
        self.feed_with(events, |_, _, _, _| {})
    }

    /// [`TraceFold::feed`], handing each `PosmapBucket` event (which the
    /// data-path grammar skips) to `posmap` as `(event index, bucket,
    /// level, write)`, so one pass over a batch serves both grammars.
    pub(crate) fn feed_with(
        &mut self,
        events: &[BusEvent],
        mut posmap: impl FnMut(usize, u64, u16, bool),
    ) -> Result<(), String> {
        let mut i = 0;
        while i < events.len() {
            match events[i] {
                BusEvent::DramBlock { addr, .. } if self.whole_bucket(&events[i..], addr) => {
                    i += self.spec.z;
                    continue;
                }
                BusEvent::PosmapBucket { bucket, level, write } => {
                    posmap(self.seen + i, bucket, level, write);
                }
                event => self.step(self.seen + i, event)?,
            }
            i += 1;
        }
        self.seen += events.len();
        Ok(())
    }

    /// The common case of device-level traffic, taken a bucket at a time:
    /// when `events` opens with all `z` block requests of the bucket at
    /// the head of the queue, in its direction and at exactly the
    /// consecutive addresses (from `base`) the layout table already holds
    /// for it, consumes the bucket and returns `true`. Everything else —
    /// first sight of a bucket, a bucket split across calls, any
    /// violation — returns `false` untouched and goes through
    /// [`TraceFold::step`] one event at a time, which words the errors.
    #[inline]
    fn whole_bucket(&mut self, events: &[BusEvent], base: u64) -> bool {
        let z = self.spec.z;
        let Some(&(bucket, write)) = self.pending.front() else { return false };
        if !self.front_addrs.is_empty()
            || events.len() < z
            || !self.layout.is_consecutive_from(bucket, base)
        {
            return false;
        }
        let matches = events[..z]
            .iter()
            .zip(0u64..)
            .all(|(e, k)| *e == BusEvent::DramBlock { addr: base.wrapping_add(k), write });
        if matches {
            self.pending.pop_front();
            self.summary.dram_blocks += z as u64;
        }
        matches
    }

    /// One event of the grammar; `ix` is its index in the whole trace.
    fn step(&mut self, ix: usize, event: BusEvent) -> Result<(), String> {
        let spec = self.spec;
        match event {
            BusEvent::AccessStart => {
                if self.in_access {
                    return err(ix, "nested AccessStart".into());
                }
                self.in_access = true;
                self.phases_this_access = 0;
            }
            BusEvent::PhaseStart(kind) => {
                if !self.in_access || self.cur_phase.is_some() {
                    return err(ix, format!("{kind:?} phase outside access framing"));
                }
                let expected = match self.phases_this_access {
                    0 => BusPhase::ReadOnly,
                    1 => BusPhase::EvictionRead,
                    2 => BusPhase::EvictionWrite,
                    n => return err(ix, format!("access has more than {n} phases")),
                };
                if kind != expected {
                    return err(
                        ix,
                        format!(
                            "phase {} of access is {kind:?}, expected {expected:?}",
                            self.phases_this_access
                        ),
                    );
                }
                self.cur_phase = Some(kind);
                self.cur_buckets.clear();
            }
            BusEvent::Bucket { bucket, write } => {
                let Some(kind) = self.cur_phase else {
                    return err(ix, format!("bucket {bucket} outside any phase"));
                };
                let want_write = kind == BusPhase::EvictionWrite;
                if write != want_write {
                    return err(
                        ix,
                        format!("bucket {bucket} direction write={write} in {kind:?} phase"),
                    );
                }
                if bucket == 0 {
                    return err(ix, "bucket id 0 (heap indices start at 1)".into());
                }
                match self.cur_buckets.last() {
                    None => {
                        if level_of(bucket) != spec.treetop_levels {
                            return err(
                                ix,
                                format!(
                                    "phase starts at bucket {bucket} (level {}), expected the \
                                     first DRAM level {}",
                                    level_of(bucket),
                                    spec.treetop_levels
                                ),
                            );
                        }
                    }
                    Some(&prev) => {
                        if bucket / 2 != prev {
                            return err(
                                ix,
                                format!(
                                    "bucket {bucket} is not a tree child of {prev}: the path \
                                     must be issued root→leaf in layout order"
                                ),
                            );
                        }
                    }
                }
                self.cur_buckets.push(bucket);
                self.pending.push_back((bucket, want_write));
            }
            BusEvent::PhaseEnd(kind) => {
                if self.cur_phase != Some(kind) {
                    return err(ix, format!("unbalanced PhaseEnd({kind:?})"));
                }
                let want_buckets = spec.buckets_per_phase();
                if self.cur_buckets.len() != want_buckets {
                    return err(
                        ix,
                        format!(
                            "{kind:?} phase touched {} buckets, expected {want_buckets}: the \
                             request count per access must be constant",
                            self.cur_buckets.len()
                        ),
                    );
                }
                let leaf_count = 1u64 << spec.levels;
                let leaf = self.cur_buckets.last().expect("non-empty phase") - leaf_count;
                if leaf >= leaf_count {
                    return err(ix, format!("path ends at non-leaf bucket (leaf {leaf})"));
                }
                match kind {
                    BusPhase::ReadOnly => {
                        self.summary.path_reads += 1;
                        self.ro_since_evict += 1;
                        match &mut self.leaf_counts {
                            Some(counts) => counts.add(leaf),
                            None => self.summary.leaves.push(leaf),
                        }
                    }
                    BusPhase::EvictionRead => {
                        let expected = self.evict_order.next_leaf().raw();
                        if leaf != expected {
                            return err(
                                ix,
                                format!(
                                    "eviction read of leaf {leaf}, expected reverse-lexicographic \
                                     leaf {expected}"
                                ),
                            );
                        }
                        self.last_evict_read.clear();
                        self.last_evict_read.extend_from_slice(&self.cur_buckets);
                    }
                    BusPhase::EvictionWrite => {
                        if self.cur_buckets != self.last_evict_read {
                            return err(
                                ix,
                                format!(
                                    "eviction write path {:?} differs from the path read {:?}",
                                    self.cur_buckets, self.last_evict_read
                                ),
                            );
                        }
                    }
                }
                self.cur_phase = None;
                self.phases_this_access += 1;
            }
            BusEvent::AccessEnd => {
                if !self.in_access || self.cur_phase.is_some() {
                    return err(ix, "unbalanced AccessEnd".into());
                }
                let ro_since_evict = self.ro_since_evict;
                match self.phases_this_access {
                    1 => {
                        if ro_since_evict >= u64::from(spec.eviction_rate - 1) {
                            return err(
                                ix,
                                format!(
                                    "eviction overdue: {ro_since_evict} path reads since the \
                                     last eviction (rate A = {})",
                                    spec.eviction_rate
                                ),
                            );
                        }
                    }
                    3 => {
                        if ro_since_evict != u64::from(spec.eviction_rate - 1) {
                            return err(
                                ix,
                                format!(
                                    "eviction after {ro_since_evict} path reads, expected every \
                                     {} (rate A = {})",
                                    spec.eviction_rate - 1,
                                    spec.eviction_rate
                                ),
                            );
                        }
                        self.ro_since_evict = 0;
                        self.summary.evictions += 1;
                    }
                    n => return err(ix, format!("access ended with {n} phases, expected 1 or 3")),
                }
                self.in_access = false;
                self.summary.accesses += 1;
            }
            BusEvent::PosmapBucket { .. } => {
                // Posmap-ORAM traffic has its own grammar (recursion-chain
                // paths, not data-tree paths) and is checked by the
                // dedicated posmap fold; the data-path grammar skips it.
            }
            BusEvent::DramBlock { addr, write } => {
                // Device requests trail their bucket events (the engine
                // issues DRAM batches after the controller reports the
                // access), consumed here in FIFO order, z per bucket.
                self.summary.dram_blocks += 1;
                let Some(&(bucket, bucket_write)) = self.pending.front() else {
                    return err(ix, format!("DRAM block {addr:#x} with no bucket awaiting it"));
                };
                if write != bucket_write {
                    return err(
                        ix,
                        format!(
                            "DRAM block {addr:#x} direction write={write} under bucket {bucket} \
                             (write={bucket_write})"
                        ),
                    );
                }
                self.front_addrs.push(addr);
                if self.front_addrs.len() == spec.z {
                    if let Some(known) = self.layout.disagrees(bucket, &self.front_addrs) {
                        return err(
                            ix,
                            format!(
                                "bucket {bucket} mapped to {:?}, previously {known:?}: the \
                                 layout must be a fixed public function",
                                self.front_addrs
                            ),
                        );
                    }
                    self.pending.pop_front();
                    self.front_addrs.clear();
                }
            }
        }
        Ok(())
    }

    /// Ends the trace: it must not stop inside an access, nor (when it
    /// carries device-level requests at all) with a bucket still awaiting
    /// some of its `z`.
    ///
    /// # Errors
    ///
    /// Returns the end-of-trace violation.
    pub fn finish(self) -> Result<TraceSummary, String> {
        self.finish_counted().map(|(summary, _)| summary)
    }

    /// [`TraceFold::finish`] of a [`TraceFold::counting_leaves`] fold,
    /// with its leaf counts.
    pub(crate) fn finish_counted(mut self) -> Result<(TraceSummary, Option<LeafCounts>), String> {
        let counts = self.leaf_counts.take();
        if self.in_access || self.cur_phase.is_some() {
            return Err("trace ends inside an access".into());
        }
        if self.summary.dram_blocks > 0
            && (!self.pending.is_empty() || !self.front_addrs.is_empty())
        {
            return Err(format!(
                "trace ends with {} buckets still awaiting DRAM block requests",
                self.pending.len()
            ));
        }
        Ok((self.summary, counts))
    }
}

/// Checks a captured trace against every structural invariant of the
/// protocol, returning a summary of what it contained: [`TraceFold`]
/// applied to one slice.
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
    let mut fold = TraceFold::new(spec);
    fold.feed(events)?;
    fold.finish()
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
        let first_bucket =
            events.iter().position(|e| matches!(e, BusEvent::Bucket { .. })).unwrap();
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
        let last = events.iter().rposition(|e| matches!(e, BusEvent::DramBlock { .. })).unwrap();
        let root_block =
            last + 1 - (spec.levels as usize + 1 - spec.treetop_levels as usize) * spec.z;
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
        // malformed traces and take the overflow map. A scattered mapping
        // ([0, 9]) and a consecutive one ([8, 9], one table word) answer
        // alike, whichever the other is compared against.
        for bucket in [1u64, 15, 16, 1 << 40] {
            for (first, other) in [([0, 9], [0, 8]), ([8, 9], [8, 10]), ([8, 9], [7, 8])] {
                let mut layout = BucketLayout::new(&spec);
                assert_eq!(layout.disagrees(bucket, &first), None, "first sight of {bucket}");
                assert_eq!(layout.disagrees(bucket, &first), None);
                assert_eq!(layout.disagrees(bucket, &other), Some(first.to_vec()));
                assert_eq!(layout.disagrees(bucket, &first), None, "the first mapping stays");
                let fast = bucket < 16 && first == [8, 9];
                assert_eq!(layout.is_consecutive_from(bucket, first[0]), fast);
                assert!(!layout.is_consecutive_from(bucket, first[0] + 1));
            }
        }
        // An all-zero mapping is a mapping, not "unseen"; nor is a
        // consecutive one from address 0, nor one the word cannot encode.
        assert_eq!(layout.disagrees(2, &[0, 0]), None);
        assert_eq!(layout.disagrees(2, &[0, 1]), Some(vec![0, 0]));
        assert_eq!(layout.disagrees(3, &[0, 1]), None);
        assert!(layout.is_consecutive_from(3, 0));
        assert_eq!(layout.disagrees(3, &[0, 0]), Some(vec![0, 1]));
        assert!(!layout.is_consecutive_from(4, 0), "unseen is not a mapping from 0");
        // A consecutive mapping whose base does not fit the word takes the
        // overflow path, and answers as one that fits does.
        assert_eq!(layout.disagrees(6, &[u64::MAX - 2, u64::MAX - 1]), None);
        assert!(!layout.is_consecutive_from(6, u64::MAX - 2));
        assert_eq!(layout.disagrees(6, &[u64::MAX - 2, u64::MAX - 1]), None);
        assert_eq!(layout.disagrees(6, &[0, 1]), Some(vec![u64::MAX - 2, u64::MAX - 1]));
        for base in [u64::MAX - 1, u64::MAX] {
            assert_eq!(layout.disagrees(5, &[base, base.wrapping_add(1)]), None);
            assert!(!layout.is_consecutive_from(5, base));
            assert!(layout.disagrees(5, &[1, 2]).is_some());
            layout = BucketLayout::new(&spec);
        }
    }

    /// At L = 21 the table ends at id 2^21 − 1; 2^21 and past take the
    /// overflow map.
    const WIDE: TraceSpec = TraceSpec { levels: 21, z: 3, treetop_levels: 0, eviction_rate: 5 };

    /// The word boundary, case by case: a consecutive mapping from each
    /// base, first seen, repeated and then moved, at ids inside the table
    /// and at and past its end. The fast path holds exactly the bases whose
    /// word fits (`base + 2 ≤ 2^32 − 1`) at ids inside the table; every
    /// other mapping answers alike from the overflow map.
    #[test]
    fn layout_words_end_at_the_u32_boundary() {
        let edges = [0, (1 << 32) - 3, (1 << 32) - 2, u64::MAX - 2, u64::MAX];
        for bucket in [1u64, (1 << 21) - 1, 1 << 21, (1 << 21) + 1, 1 << 40] {
            for base in edges {
                // From `u64::MAX` the run wraps: a scattered mapping.
                let run = run_from(base, 3);
                let mut layout = BucketLayout::new(&WIDE);
                assert_eq!(
                    layout.disagrees(bucket, &run),
                    None,
                    "first sight of {bucket} at {base}"
                );
                assert_eq!(layout.disagrees(bucket, &run), None);
                let fast = bucket < 1 << 21 && base <= (1 << 32) - 3;
                assert_eq!(layout.is_consecutive_from(bucket, base), fast, "{bucket} at {base}");
                assert_eq!(layout.disagrees(bucket, &[run[0], run[2], run[1]]), Some(run.clone()));
                assert_eq!(layout.disagrees(bucket, &run), None, "the first mapping stays");
            }
        }
    }

    /// Random first-sight / repeat / move sequences over ids inside and
    /// past the table and bases around both word boundaries: every answer
    /// is a plain map's, and the fast path says "consecutive from `base`"
    /// exactly when the map holds that run and its word fits.
    #[test]
    fn layout_table_answers_as_a_plain_map_does() {
        let ids = [1u64, 2, 77, (1 << 21) - 1, 1 << 21, (1 << 21) + 5, 1 << 40, u64::MAX];
        let bases = [
            0,
            1,
            (1 << 32) - 4,
            (1 << 32) - 3,
            (1 << 32) - 2,
            1 << 32,
            u64::MAX - 3,
            u64::MAX - 2,
        ];
        let mut rng = oram_util::Rng64::seed_from_u64(0x1A70);
        let mut layout = BucketLayout::new(&WIDE);
        let mut oracle: HashMap<u64, Vec<u64>> = HashMap::new();
        let z = WIDE.z;
        for step in 0..20_000 {
            let bucket = ids[rng.below(ids.len() as u64) as usize];
            let pick = |rng: &mut oram_util::Rng64| bases[rng.below(bases.len() as u64) as usize];
            let addrs = match (rng.below(4), oracle.get(&bucket)) {
                (0, Some(known)) => known.clone(),
                (1, _) => (0..z).map(|_| pick(&mut rng) + rng.below(3)).collect(),
                _ => run_from(pick(&mut rng), z),
            };
            let want = match oracle.entry(bucket) {
                Entry::Vacant(entry) => {
                    entry.insert(addrs.clone());
                    None
                }
                Entry::Occupied(entry) => (entry.get() != &addrs).then(|| entry.get().clone()),
            };
            let ctx = format!("step {step}: bucket {bucket} {addrs:?}");
            assert_eq!(layout.disagrees(bucket, &addrs), want, "{ctx}");
            for base in [addrs[0], pick(&mut rng)] {
                let known = &oracle[&bucket];
                let fast = bucket < 1 << 21
                    && consecutive_base(known) == Some(base)
                    && base <= (1 << 32) - 3;
                assert_eq!(layout.is_consecutive_from(bucket, base), fast, "{ctx}, from {base}");
            }
        }
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
