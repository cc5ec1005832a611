//! The online folds against the slice checkers: however a trace is cut
//! into `feed` calls, [`TraceFold`], [`PosmapFold`] and the [`LaneAudit`]
//! observer that drives both must say what `check_service_trace` followed
//! by `check_posmap_trace` says of the whole slice — the same summaries
//! for a valid trace, and for a corrupted one the same error string,
//! event index included.

use oram_audit::{
    check_posmap_trace, check_service_trace, check_trace, record_trace, LaneAudit, PosmapFold,
    PosmapSummary, Recorder, TraceFold, TraceSpec, TraceSummary,
};
use oram_cpu::{MissRecord, ReplayMisses};
use oram_protocol::{
    BlockAddr, BusEvent, BusObserver, BusPhase, OramConfig, PosMapSelect, Request,
};
use oram_sim::{Engine, SystemConfig};
use oram_util::Rng64;

/// Device-level trace of `n` misses over 600 addresses through an engine
/// configured with `oram`.
fn engine_trace(oram: OramConfig, n: u64) -> Vec<BusEvent> {
    let rec = Recorder::unbounded();
    let mut engine = Engine::new(SystemConfig::small_test().with_oram(oram)).unwrap();
    engine.attach_bus_observer(rec.observer());
    let misses = (0..n)
        .map(|i| MissRecord {
            block_addr: i * 37 % 600,
            is_write: i % 3 == 0,
            gap_cycles: 50,
            blocking: true,
        })
        .collect();
    engine.run(&mut ReplayMisses::new(misses));
    rec.snapshot()
}

/// L = 10 with a 1 KiB on-chip budget puts one posmap level off chip;
/// four PLB entries for 38 pages make most accesses walk it.
fn recursive() -> OramConfig {
    OramConfig {
        levels: 10,
        stash_capacity: 140,
        plb_entries: 4,
        posmap: PosMapSelect::Recursive { onchip_kb: 1 },
        ..OramConfig::small_test()
    }
}

/// The traces the table runs over: `(name, configuration, events)`.
fn cases() -> Vec<(&'static str, OramConfig, Vec<BusEvent>)> {
    let flat = OramConfig::small_test();
    let reqs: Vec<Request> =
        (0..400).map(|i| Request::read(BlockAddr::new(1 + i * 7 % 90))).collect();
    vec![
        ("engine flat", flat, engine_trace(flat, 500)),
        ("engine flat treetop 3", flat.with_treetop(3), engine_trace(flat.with_treetop(3), 500)),
        ("engine recursive", recursive(), engine_trace(recursive(), 400)),
        (
            "engine recursive treetop 3",
            recursive().with_treetop(3),
            engine_trace(recursive().with_treetop(3), 400),
        ),
        ("controller only", flat, record_trace(flat, &reqs).unwrap().0),
    ]
}

/// What `run_policy_on` computed from a recorded trace before the audit
/// went online, with the labels it put in front of each error.
type Verdict = Result<(TraceSummary, PosmapSummary), String>;

fn post_hoc(cfg: &OramConfig, events: &[BusEvent]) -> Verdict {
    let data = check_service_trace(cfg, events).map_err(|e| format!("service trace audit: {e}"))?;
    let posmap = check_posmap_trace(events).map_err(|e| format!("posmap trace audit: {e}"))?;
    Ok((data, posmap))
}

/// A [`post_hoc`] verdict as a [`LaneAudit`] gives it: a lane counts
/// its leaves, so its data summary carries no leaf sample.
fn counted(verdict: Verdict) -> Verdict {
    verdict.map(|(data, posmap)| (TraceSummary { leaves: Vec::new(), ..data }, posmap))
}

/// Cuts `events` into consecutive pieces of 0..=`max` events.
fn pieces<'a>(events: &'a [BusEvent], max: u64, rng: &mut Rng64) -> Vec<&'a [BusEvent]> {
    let mut out = Vec::new();
    let mut rest = events;
    while !rest.is_empty() {
        let (head, tail) = rest.split_at((rng.below(max + 1) as usize).min(rest.len()));
        out.push(head);
        rest = tail;
    }
    out.push(rest); // a trailing empty call
    out
}

/// Feeds `events` to all three consumers in pieces of at most `max`
/// events (1: one event per call, through `on_event`) and checks each
/// against its slice checker.
fn same_in_pieces(name: &str, cfg: &OramConfig, events: &[BusEvent], max: u64, rng: &mut Rng64) {
    let spec = TraceSpec::from_oram(cfg);
    let mut data = TraceFold::new(&spec);
    let mut posmap = PosmapFold::new();
    let mut lane = LaneAudit::new(cfg);
    let (mut data_fed, mut posmap_fed) = (Ok(()), Ok(()));
    for piece in pieces(events, max, rng) {
        if data_fed.is_ok() {
            data_fed = data.feed(piece);
        }
        if posmap_fed.is_ok() {
            posmap_fed = posmap.feed(piece);
        }
        match piece {
            [one] if max == 1 => lane.on_event(*one),
            _ => lane.on_events(piece),
        }
    }
    let ctx = format!("{name}, pieces of <= {max}");
    assert_eq!(data_fed.and_then(|()| data.finish()), check_trace(&spec, events), "{ctx}");
    assert_eq!(posmap_fed.and_then(|()| posmap.finish()), check_posmap_trace(events), "{ctx}");
    assert_eq!(lane.finish(), counted(post_hoc(cfg, events)), "{ctx}");
    assert_eq!(lane.finish().unwrap_err(), "service trace audit: audit already finished");
}

fn same_however_cut(name: &str, cfg: &OramConfig, events: &[BusEvent], rng: &mut Rng64) {
    // One event per call; pieces that end mid-bucket and mid-chain (z is
    // 4, a chain 10 buckets) with empty calls between; storage-batch-sized
    // pieces; the whole trace at once.
    for max in [1, 5, 60, events.len() as u64] {
        same_in_pieces(name, cfg, events, max, rng);
    }
}

fn position(events: &[BusEvent], nth: usize, pred: impl Fn(&BusEvent) -> bool) -> usize {
    events.iter().enumerate().filter(|(_, e)| pred(e)).nth(nth).expect("trace has the event").0
}

#[test]
fn valid_traces_summarize_alike_however_they_are_cut() {
    let mut rng = Rng64::seed_from_u64(0xF01D);
    for (name, cfg, events) in cases() {
        let (data, posmap) = post_hoc(&cfg, &events).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(data.path_reads >= 128, "{name}: uniformity must have run");
        assert_eq!(data.dram_blocks > 0, name != "controller only", "{name}");
        assert_eq!(posmap.chains > 0, name.contains("recursive"), "{name}");
        same_however_cut(name, &cfg, &events, &mut rng);
    }
    // A lane that saw nothing passes, as an empty slice does.
    let idle = OramConfig::small_test();
    assert_eq!(LaneAudit::new(&idle).finish(), post_hoc(&idle, &[]));
    assert_eq!(post_hoc(&idle, &[]), Ok(Default::default()));
}

#[test]
fn corrupted_traces_fail_with_the_same_words_however_they_are_cut() {
    let is_bucket = |e: &BusEvent| matches!(e, BusEvent::Bucket { .. });
    let is_block = |e: &BusEvent| matches!(e, BusEvent::DramBlock { .. });
    let is_posmap = |e: &BusEvent| matches!(e, BusEvent::PosmapBucket { .. });
    let mut rng = Rng64::seed_from_u64(0xBADF01D);
    let mut seen = Vec::new();
    for (name, cfg, events) in cases() {
        let device = events.iter().any(is_block);
        let mut broken: Vec<(&str, Vec<BusEvent>)> = Vec::new();
        let mut corrupt = |what, edit: &dyn Fn(&mut Vec<BusEvent>)| {
            let mut trace = events.clone();
            edit(&mut trace);
            broken.push((what, trace));
        };

        // The corruptions of the crate's negative tests. Dropping any
        // single structural event breaks the grammar.
        for victim in [3, 10, 25, events.len() / 2, events.len() - 1] {
            corrupt("event dropped", &|t| {
                t.remove(victim);
            });
        }
        let bucket = position(&events, 40, is_bucket);
        corrupt("two buckets swapped", &|t| t.swap(bucket, bucket + 1));
        corrupt("direction flipped", &|t| {
            let BusEvent::Bucket { bucket: id, write } = t[bucket] else { unreachable!() };
            t[bucket] = BusEvent::Bucket { bucket: id, write: !write };
        });
        let phase_start = position(&events, 30, |e| matches!(e, BusEvent::PhaseStart(_)));
        corrupt("truncated inside an access", &|t| t.truncate(phase_start + 3));
        let write_end = position(&events, 5, |e| *e == BusEvent::PhaseEnd(BusPhase::EvictionWrite));
        corrupt("eviction write leaves its read path", &|t| {
            let BusEvent::Bucket { bucket: leaf, write } = t[write_end - 1] else { unreachable!() };
            t[write_end - 1] = BusEvent::Bucket { bucket: leaf ^ 1, write };
        });
        if device {
            // The last block request of the trace belongs to a bucket the
            // run has visited before (every path shares the first DRAM
            // level's few buckets, and the last path's leaf is reached by
            // moving one block of the first bucket of that batch).
            let last = events.iter().rposition(is_block).unwrap();
            let spec = TraceSpec::from_oram(&cfg);
            let first_of_path =
                last + 1 - (spec.levels + 1 - spec.treetop_levels) as usize * spec.z;
            corrupt("a bucket whose addresses move", &|t| {
                let BusEvent::DramBlock { addr, write } = t[first_of_path + 1] else {
                    unreachable!()
                };
                t[first_of_path + 1] = BusEvent::DramBlock { addr: addr + 1_000_000, write };
            });
            corrupt("a block request in the wrong direction", &|t| {
                let BusEvent::DramBlock { addr, write } = t[last - 2] else { unreachable!() };
                t[last - 2] = BusEvent::DramBlock { addr, write: !write };
            });
            corrupt("truncated inside a bucket's requests", &|t| t.truncate(last - 1));
        }
        if events.iter().any(is_posmap) {
            // Cut the second chain one bucket short; send a later write
            // chain down the sibling of the leaf it read.
            let is_root = |e: &BusEvent| matches!(e, BusEvent::PosmapBucket { bucket: 1, .. });
            let second_root = position(&events, 1, is_root);
            let depth = (second_root..)
                .take_while(|&i| {
                    is_posmap(&events[i]) && (i == second_root || !is_root(&events[i]))
                })
                .count();
            let chain_end = second_root + depth - 1;
            corrupt("posmap chain cut short", &|t| {
                t.remove(chain_end);
            });
            let write_leaf = position(&events, 2, |e| {
                matches!(e, BusEvent::PosmapBucket { bucket, write: true, .. }
                    if bucket >> (depth - 1) == 1)
            });
            corrupt("posmap write leaves its read path", &|t| {
                let BusEvent::PosmapBucket { bucket: leaf, level, write } = t[write_leaf] else {
                    unreachable!()
                };
                t[write_leaf] = BusEvent::PosmapBucket { bucket: leaf ^ 1, level, write };
            });
            // Both grammars violated, the posmap one first in the trace:
            // the data-path error is still the one reported.
            corrupt("both grammars violated", &|t| {
                t.remove(chain_end);
                let late = t.len() - 1;
                t.swap(late - 1, late);
            });
        }

        for (what, trace) in &broken {
            let ctx = format!("{name}: {what}");
            let err = post_hoc(&cfg, trace).expect_err(&ctx);
            same_however_cut(&ctx, &cfg, trace, &mut rng);
            seen.push(format!("{ctx}: {err}"));
        }
    }

    // Which grammar answers, and a sample of the words: all of these
    // read the same, character for character, on the commit before the
    // checkers became folds, and the serve error is built from them.
    let said = |case: &str| {
        seen.iter()
            .find_map(|s| s.strip_prefix(case)?.strip_prefix(": "))
            .unwrap_or_else(|| panic!("no case {case:?} in {seen:#?}"))
    };
    for (case, words) in [
        (
            "engine flat: two buckets swapped",
            "service trace audit: event 218: phase starts at bucket 3 (level 1), expected the \
             first DRAM level 0",
        ),
        (
            "engine flat treetop 3: direction flipped",
            "service trace audit: event 208: bucket 12 direction write=true in EvictionRead phase",
        ),
        (
            "engine flat: truncated inside an access",
            "service trace audit: trace ends inside an access",
        ),
        (
            "engine flat: truncated inside a bucket's requests",
            "service trace audit: trace ends with 1 buckets still awaiting DRAM block requests",
        ),
        (
            "engine flat: eviction write leaves its read path",
            "service trace audit: event 1198: eviction write path [1, 3, 6, 13, 26, 52, 104, 209] \
             differs from the path read [1, 3, 6, 13, 26, 52, 104, 208]",
        ),
        (
            "engine flat treetop 3: a bucket whose addresses move",
            "service trace audit: event 23447: bucket 14 mapped to [52, 1000053, 54, 55], \
             previously [52, 53, 54, 55]: the layout must be a fixed public function",
        ),
        (
            "engine recursive: a block request in the wrong direction",
            "service trace audit: event 45419: DRAM block 0x13dd direction write=true under \
             bucket 1032 (write=false)",
        ),
        (
            "engine recursive: posmap chain cut short",
            "posmap trace audit: event 138: level 1 chain of 9 buckets, level paths are 10 deep",
        ),
        (
            "engine recursive treetop 3: posmap write leaves its read path",
            "posmap trace audit: event 799: level 1 eviction write does not rewrite the path \
             just read",
        ),
        (
            "engine recursive: both grammars violated",
            "service trace audit: event 45420: bucket 1032 mapped to [5084, 5085, 5087, 5086], \
             previously [5084, 5085, 5086, 5087]: the layout must be a fixed public function",
        ),
        (
            "controller only: event dropped",
            "service trace audit: event 3: bucket 5 is not a tree child of 1: the path must be \
             issued root→leaf in layout order",
        ),
    ] {
        assert_eq!(said(case), words, "{case}");
    }
}
