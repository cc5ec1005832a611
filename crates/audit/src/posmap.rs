//! Structural obliviousness checks for the recursive position map's own
//! bus traffic.
//!
//! The data-path grammar in [`crate::invariants`] deliberately skips
//! [`BusEvent::PosmapBucket`] events: posmap-ORAM paths live in their
//! own trees (one per recursion level) and follow their own geometry.
//! This module supplies the matching checker. The grammar an oblivious
//! recursion must satisfy, with no configuration input — the trace is
//! self-describing:
//!
//! 1. **Root-anchored parent chains.** Every posmap level is built with
//!    `treetop_levels = 0`, so each path phase touches buckets root→leaf
//!    in heap order: the first bucket of a chain is the root (raw id 1)
//!    and every subsequent bucket is a child of its predecessor.
//! 2. **Uniform direction and level per chain.** A chain never mixes
//!    read and write bursts or hops between recursion levels.
//! 3. **Fixed depth per level.** All chains of one recursion level have
//!    the same length (the level tree's full path); a short path would
//!    leak how deep the walk had to go within a level.
//! 4. **Eviction writes rewrite their reads.** Every write chain must
//!    rewrite exactly the bucket sequence of the read chain immediately
//!    before it at the same level — the posmap-level analogue of the
//!    data grammar's eviction-rewrite invariant.
//!
//! [`strip_posmap_events`] is the companion filter: the data-ORAM
//! subsequence of a recursive-mode trace, which must be byte-identical
//! to a flat-posmap run of the same request stream (checked by
//! [`recursive_flat_data_identity`] and by the serve-path validator).

use oram_protocol::{OramConfig, PosMapSelect, Request};
use oram_util::BusEvent;

use crate::distinguisher::record_trace;

/// Aggregates of one checked posmap trace.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PosmapSummary {
    /// `PosmapBucket` events consumed.
    pub events: u64,
    /// Root→leaf chains (path phases) parsed.
    pub chains: u64,
    /// Eviction-write chains, each verified to rewrite its read.
    pub eviction_writes: u64,
    /// Deepest recursion level seen (0 when the trace has no posmap
    /// traffic — flat mode, or a chain that fits on chip).
    pub max_level: u16,
}

/// Returns the data-ORAM subsequence of a combined bus trace: every
/// event except `PosmapBucket`. In `--posmap recursive` mode this is
/// what the data-path checkers (and the flat-identity diffs) consume.
pub fn strip_posmap_events(events: &[BusEvent]) -> Vec<BusEvent> {
    events.iter().filter(|e| !matches!(e, BusEvent::PosmapBucket { .. })).copied().collect()
}

/// One root→leaf chain. `buckets` is empty only while the chain does not
/// exist: a chain starts with its root.
#[derive(Debug, Default)]
struct Chain {
    level: u16,
    write: bool,
    buckets: Vec<u64>,
}

/// The posmap grammar (module docs) as a resumable fold:
/// [`PosmapFold::feed`] consumes a combined trace in pieces of any size —
/// non-posmap events are ignored but counted, so error indices are those
/// of the whole trace — and [`PosmapFold::finish`] closes the last chain.
/// Feeding the pieces of a trace gives exactly the result of feeding it
/// whole. The two chain buffers are reused (swapped at every close), so
/// once they have grown to the deepest level's path — at most 64 ids —
/// nothing allocates.
///
/// [`check_posmap_trace`] is this fold applied to a slice.
#[derive(Debug, Default)]
pub struct PosmapFold {
    /// Events (of any kind) consumed by earlier [`PosmapFold::feed`]
    /// calls.
    seen: usize,
    summary: PosmapSummary,
    /// Expected chain length per recursion level, learned from the first
    /// chain of each level (index 0 unused; levels are 1-based).
    depth_of: Vec<Option<usize>>,
    /// The chain being parsed (none before a root opens one).
    cur: Chain,
    /// The chain closed before it, kept for the eviction-rewrite check
    /// (none before the first close).
    prev: Chain,
}

impl PosmapFold {
    /// A fold at the start of a trace.
    pub fn new() -> Self {
        PosmapFold::default()
    }

    /// Consumes the next `events` of the trace.
    ///
    /// # Errors
    ///
    /// Returns the first structural violation with its event index in
    /// the whole trace. A fold that has returned an error must not be fed
    /// again.
    pub fn feed(&mut self, events: &[BusEvent]) -> Result<(), String> {
        for (i, event) in events.iter().enumerate() {
            if let BusEvent::PosmapBucket { bucket, level, write } = *event {
                self.step(self.seen + i, bucket, level, write)?;
            }
        }
        self.seen += events.len();
        Ok(())
    }

    /// One `PosmapBucket` event; `idx` is its index in the whole trace.
    pub(crate) fn step(
        &mut self,
        idx: usize,
        bucket: u64,
        level: u16,
        write: bool,
    ) -> Result<(), String> {
        self.summary.events += 1;
        if level == 0 {
            return Err(format!("event {idx}: posmap level 0 does not exist (levels are 1-based)"));
        }
        if bucket == 1 {
            // Root: starts a new chain.
            self.close(idx)?;
            self.cur.level = level;
            self.cur.write = write;
            self.cur.buckets.push(1);
            return Ok(());
        }
        let chain = &mut self.cur;
        let Some(&parent) = chain.buckets.last() else {
            return Err(format!(
                "event {idx}: bucket {bucket} outside any chain (chains start at the root)"
            ));
        };
        if chain.level != level || chain.write != write {
            return Err(format!(
                "event {idx}: bucket {bucket} switches to level {level} write={write} \
                 mid-chain (chain is level {} write={})",
                chain.level, chain.write
            ));
        }
        if bucket / 2 != parent {
            return Err(format!(
                "event {idx}: bucket {bucket} is not a child of {parent} — path not a \
                 root→leaf parent chain"
            ));
        }
        chain.buckets.push(bucket);
        Ok(())
    }

    /// Closes the chain being parsed, if any, at event index `idx`: its
    /// depth must be its level's, and a write must rewrite the chain
    /// closed before it. The closed chain becomes the previous one and
    /// the buffer of the chain before that is emptied for the next.
    fn close(&mut self, idx: usize) -> Result<(), String> {
        let (chain, prev) = (&self.cur, &self.prev);
        if chain.buckets.is_empty() {
            return Ok(());
        }
        let l = chain.level as usize;
        if self.depth_of.len() <= l {
            self.depth_of.resize(l + 1, None);
        }
        match self.depth_of[l] {
            None => self.depth_of[l] = Some(chain.buckets.len()),
            Some(d) if d == chain.buckets.len() => {}
            Some(d) => {
                return Err(format!(
                    "event {idx}: level {} chain of {} buckets, level paths are {d} deep",
                    chain.level,
                    chain.buckets.len()
                ));
            }
        }
        if chain.write {
            // (No previous chain: its empty `buckets` cannot match.)
            if prev.write || prev.level != chain.level || prev.buckets != chain.buckets {
                return Err(format!(
                    "event {idx}: level {} eviction write does not rewrite the path just read",
                    chain.level
                ));
            }
            self.summary.eviction_writes += 1;
        }
        self.summary.chains += 1;
        self.summary.max_level = self.summary.max_level.max(chain.level);
        std::mem::swap(&mut self.cur, &mut self.prev);
        self.cur.buckets.clear();
        Ok(())
    }

    /// Ends the trace, closing the last chain.
    ///
    /// # Errors
    ///
    /// Returns the violation the last chain commits, indexed one past the
    /// last event.
    pub fn finish(self) -> Result<PosmapSummary, String> {
        let events = self.seen;
        self.finish_at(events)
    }

    /// [`PosmapFold::finish`] for a fold driven through
    /// [`PosmapFold::step`], which does not count events: `events` is the
    /// length of the whole trace.
    pub(crate) fn finish_at(mut self, events: usize) -> Result<PosmapSummary, String> {
        self.close(events)?;
        Ok(self.summary)
    }
}

/// Replays the `PosmapBucket` subsequence of `events` against the
/// posmap grammar (module docs): [`PosmapFold`] applied to one slice.
/// Non-posmap events are ignored, so the combined trace can be passed
/// directly.
///
/// # Errors
///
/// Returns the first structural violation with its event index.
pub fn check_posmap_trace(events: &[BusEvent]) -> Result<PosmapSummary, String> {
    let mut fold = PosmapFold::new();
    fold.feed(events)?;
    fold.finish()
}

/// Records the same request stream under `cfg` with its recursive
/// posmap and under the flat equivalent, and requires the recursive
/// trace minus its `PosmapBucket` events to be byte-identical to the
/// flat trace: the recursion must add posmap traffic and change
/// *nothing* about the data-ORAM access pattern.
///
/// # Errors
///
/// Returns the divergence (or a configuration rejection); also fails if
/// `cfg` is not recursive or the recursive run produced no posmap
/// traffic (a vacuous identity).
pub fn recursive_flat_data_identity(cfg: OramConfig, reqs: &[Request]) -> Result<u64, String> {
    if !matches!(cfg.posmap, PosMapSelect::Recursive { .. }) {
        return Err("config is not in recursive posmap mode".into());
    }
    let (rec_events, _) = record_trace(cfg, reqs)?;
    let flat_cfg = cfg.with_posmap(PosMapSelect::Flat);
    let (flat_events, _) = record_trace(flat_cfg, reqs)?;
    let posmap_events = rec_events.len() as u64 - strip_posmap_events(&rec_events).len() as u64;
    if posmap_events == 0 {
        return Err("recursive run produced no posmap traffic: identity is vacuous".into());
    }
    let data = strip_posmap_events(&rec_events);
    if data.len() != flat_events.len() {
        return Err(format!(
            "data subsequence has {} events, flat trace has {}",
            data.len(),
            flat_events.len()
        ));
    }
    if let Some(i) = (0..data.len()).find(|&i| data[i] != flat_events[i]) {
        return Err(format!(
            "data traces diverge at event {i}: {:?} vs {:?}",
            data[i], flat_events[i]
        ));
    }
    Ok(posmap_events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distinguisher::fresh_stream;

    fn ev(bucket: u64, level: u16, write: bool) -> BusEvent {
        BusEvent::PosmapBucket { bucket, level, write }
    }

    fn recursive_cfg() -> OramConfig {
        // L = 10, page 16 → 512 level-1 posmap blocks = 4 KiB, over a
        // 1 KiB budget → exactly one off-chip recursion level.
        OramConfig {
            levels: 10,
            stash_capacity: 140,
            posmap: PosMapSelect::Recursive { onchip_kb: 1 },
            ..OramConfig::small_test()
        }
    }

    #[test]
    fn empty_and_dataless_traces_pass_vacuously() {
        assert_eq!(check_posmap_trace(&[]).unwrap(), PosmapSummary::default());
        let data_only = [BusEvent::DramBlock { addr: 7, write: false }];
        let s = check_posmap_trace(&data_only).unwrap();
        assert_eq!(s.events, 0);
        assert_eq!(strip_posmap_events(&data_only), data_only);
    }

    #[test]
    fn well_formed_chains_parse() {
        // Read path 1→2→5, eviction read 1→3→6, eviction write rewrites it.
        let trace = [
            ev(1, 1, false),
            ev(2, 1, false),
            ev(5, 1, false),
            ev(1, 1, false),
            ev(3, 1, false),
            ev(6, 1, false),
            ev(1, 1, true),
            ev(3, 1, true),
            ev(6, 1, true),
        ];
        let s = check_posmap_trace(&trace).unwrap();
        assert_eq!(s.chains, 3);
        assert_eq!(s.eviction_writes, 1);
        assert_eq!(s.max_level, 1);
        assert_eq!(s.events, 9);
    }

    #[test]
    fn violations_are_caught() {
        // Not a child of its predecessor.
        let broken = [ev(1, 1, false), ev(2, 1, false), ev(6, 1, false)];
        assert!(check_posmap_trace(&broken).unwrap_err().contains("not a child"));
        // Chain starting off-root.
        assert!(check_posmap_trace(&[ev(2, 1, false)]).unwrap_err().contains("outside any chain"));
        // Write chain that rewrites a different path than it read.
        let skewed = [ev(1, 1, false), ev(3, 1, false), ev(1, 1, true), ev(2, 1, true)];
        assert!(check_posmap_trace(&skewed).unwrap_err().contains("does not rewrite"));
        // Depth change within a level.
        let ragged = [ev(1, 1, false), ev(2, 1, false), ev(1, 1, false)];
        assert!(check_posmap_trace(&ragged).unwrap_err().contains("deep"));
        // Level switch mid-chain.
        let hop = [ev(1, 1, false), ev(2, 2, false)];
        assert!(check_posmap_trace(&hop).unwrap_err().contains("mid-chain"));
    }

    #[test]
    fn live_recursive_trace_satisfies_the_grammar() {
        let cfg = recursive_cfg();
        let reqs = fresh_stream(600, 1);
        let (events, _) = record_trace(cfg, &reqs).expect("controller accepts config");
        let s = check_posmap_trace(&events).expect("live trace is structurally oblivious");
        assert!(s.chains > 0, "cold PLB misses must walk the chain");
        assert_eq!(s.max_level, 1);
        assert!(s.eviction_writes > 0, "level ORAMs evict at the configured cadence");
    }

    #[test]
    fn recursive_data_subsequence_matches_flat() {
        let n = recursive_flat_data_identity(recursive_cfg(), &fresh_stream(600, 1))
            .expect("data traces identical");
        assert!(n > 0);
    }

    #[test]
    fn flat_config_is_rejected_as_vacuous() {
        let err = recursive_flat_data_identity(OramConfig::small_test(), &fresh_stream(16, 1))
            .unwrap_err();
        assert!(err.contains("not in recursive"));
    }
}
