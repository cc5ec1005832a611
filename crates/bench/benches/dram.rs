//! Micro-benchmarks of the DDR3 timing model as the engine drives it:
//! `service_batch_into` over an endless run of random ORAM paths (so row
//! hits, misses and conflicts occur in realistic proportion — replaying
//! one path would make every access a row hit), detached and with each
//! bus observer attached (the audit's ring `Recorder`, and the online
//! `LaneAudit` that `repro serve` runs), plus scattered traffic and the
//! insecure baseline's single-block read. The trace grammars' own cost
//! per event, without the timing model, closes the report.
//!
//! Run with `cargo bench --bench dram`. Every DRAM case is also a hard
//! zero-allocation gate: the bench exits non-zero if 10k steady-state
//! batches ever touch the heap, so CI can use it as a regression check.

use std::hint::black_box;
use std::time::Instant;

use oram_audit::{LaneAudit, Recorder};
use oram_bench::{bench, CountingAlloc};
use oram_dram::{BlockRequest, DramConfig, DramSystem, SubtreeLayout};
use oram_protocol::{EvictionOrder, OramConfig};
use oram_util::{BusEvent, BusObserver, BusPhase, Rng64, SharedObserver};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const LEVELS: u32 = 14;
const Z: usize = 5;
const GATE_BATCHES: usize = 10_000;

/// The controller configuration whose bus traffic [`Paths`] imitates.
fn oram(levels: u32) -> OramConfig {
    OramConfig { levels, z: Z, eviction_rate: 2, treetop_levels: 0, ..OramConfig::small_test() }
}

/// An endless run of path batches as an engine at eviction rate 2 issues
/// them — the read-only read of a random leaf, then the eviction read
/// and the eviction write of the next reverse-lexicographic leaf, so
/// every third batch is a write — each with the bus events the controller
/// reports for it. Unlike a fixed rotation of paths this is a valid ORAM
/// trace however long it runs, which is what lets an audit be attached.
struct Paths<F> {
    levels: u32,
    base_of: F,
    rng: Rng64,
    order: EvictionOrder,
    /// Batches issued so far; `issued % 3` is the phase within the access.
    issued: u64,
    leaf: u64,
    frame: Vec<BusEvent>,
    reqs: Vec<BlockRequest>,
}

impl<F: Fn(u64) -> u64> Paths<F> {
    /// Paths of a depth-`levels` tree whose bucket `b` occupies the `Z`
    /// block addresses from `base_of(b)`.
    fn new(levels: u32, base_of: F) -> Self {
        Paths {
            levels,
            base_of,
            rng: Rng64::seed_from_u64(0xD7A3),
            order: EvictionOrder::new(levels),
            issued: 0,
            leaf: 0,
            frame: Vec::new(),
            reqs: Vec::new(),
        }
    }

    /// Builds the next batch into `self.frame` and `self.reqs`, the way
    /// `Engine::service_batch` does (a bucket's slots are contiguous: map it
    /// once).
    fn advance(&mut self) {
        let (kind, is_write) = match self.issued % 3 {
            0 => {
                self.leaf = self.rng.below(1 << self.levels);
                (BusPhase::ReadOnly, false)
            }
            1 => {
                self.leaf = self.order.next_leaf().raw();
                (BusPhase::EvictionRead, false)
            }
            _ => (BusPhase::EvictionWrite, true),
        };
        self.frame.clear();
        self.reqs.clear();
        if kind == BusPhase::ReadOnly {
            self.frame.push(BusEvent::AccessStart);
        }
        self.frame.push(BusEvent::PhaseStart(kind));
        let leaf_bucket = (1u64 << self.levels) + self.leaf;
        for level in 0..=self.levels {
            let bucket = leaf_bucket >> (self.levels - level);
            self.frame.push(BusEvent::Bucket { bucket, write: is_write });
            let base = (self.base_of)(bucket);
            self.reqs
                .extend((0..Z as u64).map(|slot| BlockRequest { addr: base + slot, is_write }));
        }
        self.frame.push(BusEvent::PhaseEnd(kind));
        if kind == BusPhase::EvictionWrite {
            self.frame.push(BusEvent::AccessEnd);
        }
        self.issued += 1;
    }
}

/// Issues batches through one system, each when the previous one drained.
struct Replay {
    dram: DramSystem,
    finishes: Vec<i64>,
    now: i64,
}

impl Replay {
    fn new(dram: DramSystem) -> Self {
        Replay { dram, finishes: Vec::new(), now: 0 }
    }

    fn issue(&mut self, reqs: &[BlockRequest]) -> i64 {
        self.dram.service_batch_into(self.now, reqs, true, &mut self.finishes);
        self.now = *self.finishes.iter().max().expect("non-empty batch");
        self.now
    }
}

/// One `dram/oram_paths_l14*` case: [`Paths`] through the timing model,
/// with `observer` (if any) on both ends of the controller↔storage
/// boundary as `Engine::attach_bus_observer` puts it — the frame handed
/// over as the controller's flush does, the block requests reported by
/// the system itself. Stops at the end of an access.
fn path_case(name: &str, cfg: DramConfig, observer: Option<SharedObserver>) -> bool {
    let layout = SubtreeLayout::fit_to_row(&cfg, Z);
    let mut paths = Paths::new(LEVELS, |bucket| layout.block_addr(bucket, 0));
    let mut dram = DramSystem::new(cfg).unwrap();
    dram.set_observer(observer.clone());
    let mut replay = Replay::new(dram);
    let mut step = |paths: &mut Paths<_>| {
        paths.advance();
        if let Some(observer) = &observer {
            observer.lock().expect("bus observer poisoned").on_events(&paths.frame);
        }
        replay.issue(&paths.reqs)
    };
    let ok = run_case(name, (LEVELS as usize + 1) * Z, || step(&mut paths));
    while paths.issued % 3 != 0 {
        step(&mut paths);
    }
    ok
}

/// `dram/oram_paths_l14` once more, one line per batch kind: host time per
/// block, the share of blocks that hit an open row and the same-row runs
/// the scheduler cut the batch into (from `stats()` and `runs()` deltas).
/// Each batch is timed on its own, so the figures carry the timer's
/// ≈0.5 ns/block. A read-only path finds the rows other paths left open;
/// an eviction write finds every row its read just opened.
fn path_kinds(cfg: DramConfig) {
    const ACCESSES: usize = 20_000;
    const KINDS: [&str; 3] = ["read_only", "eviction_read", "eviction_write"];
    let layout = SubtreeLayout::fit_to_row(&cfg, Z);
    let mut paths = Paths::new(LEVELS, |bucket| layout.block_addr(bucket, 0));
    let mut replay = Replay::new(DramSystem::new(cfg).unwrap());
    let (mut ns, mut hits, mut runs) = ([0u128; 3], [0u64; 3], [0u64; 3]);
    for access in 0..ACCESSES + 200 {
        for kind in 0..KINDS.len() {
            paths.advance();
            let before = (replay.dram.stats().row_hits, replay.dram.runs());
            let start = Instant::now();
            black_box(replay.issue(&paths.reqs));
            let elapsed = start.elapsed().as_nanos();
            // The first 200 accesses warm the row buffers and the caches.
            if access >= 200 {
                ns[kind] += elapsed;
                hits[kind] += replay.dram.stats().row_hits - before.0;
                runs[kind] += replay.dram.runs() - before.1;
            }
        }
    }
    let blocks = (ACCESSES * (LEVELS as usize + 1) * Z) as f64;
    for (kind, name) in KINDS.iter().enumerate() {
        println!(
            "{:<40} {:>12.1} ns/block   {:.1} % row hits   {:.1} runs/batch of {:.1} blocks",
            format!("dram/oram_paths_l14/{name}"),
            ns[kind] as f64 / blocks,
            100.0 * hits[kind] as f64 / blocks,
            runs[kind] as f64 / ACCESSES as f64,
            blocks / runs[kind] as f64
        );
    }
}

/// The audit folds alone: ns per bus event over valid path batches of a
/// depth-`levels` tree, each checked while it is still hot in cache — the
/// time of building and checking a batch less the time of building it.
/// Timed once the eviction order has been round every leaf, so each
/// bucket's mapping is known and the table is as large as it gets.
fn fold_ns_per_event(levels: u32) {
    let warm_up = 3u64 << levels;
    let mut events: Vec<BusEvent> = Vec::new();
    let mut per_batch = |name: &str, mut audit: Option<&mut LaneAudit>| {
        let mut paths = Paths::new(levels, |bucket| bucket * Z as u64);
        let mut step = |paths: &mut Paths<_>| {
            paths.advance();
            events.clear();
            events.extend_from_slice(&paths.frame);
            events.extend(
                paths.reqs.iter().map(|r| BusEvent::DramBlock { addr: r.addr, write: r.is_write }),
            );
            if let Some(audit) = audit.as_deref_mut() {
                audit.on_events(&events);
            }
            events.len()
        };
        while paths.issued < warm_up {
            step(&mut paths);
        }
        let r = bench(name, 30, 2000, || step(&mut paths));
        while paths.issued % 3 != 0 {
            step(&mut paths);
        }
        println!("{r}");
        r.median_ns
    };
    let built = per_batch(&format!("audit/path_batches_l{levels}"), None);
    let mut audit = LaneAudit::new(&oram(levels));
    let checked = per_batch(&format!("audit/path_batches_l{levels}_checked"), Some(&mut audit));
    let (data, _) = audit.finish().expect("the generated trace is valid");
    // Two of three batches carry one framing event besides the phase's.
    let events_per_batch = (levels as f64 + 1.0) * (Z as f64 + 1.0) + 2.0 + 2.0 / 3.0;
    println!(
        "{:<40} {:>12.2} ns/event   ({} path reads, {} block requests checked)",
        format!("audit/fold_l{levels}"),
        (checked - built) / events_per_batch,
        data.path_reads,
        data.dram_blocks,
    );
}

/// Times one case and gates it at zero allocations over
/// [`GATE_BATCHES`] steady-state calls. Returns whether the gate held.
fn run_case(name: &str, blocks_per_iter: usize, mut step: impl FnMut() -> i64) -> bool {
    let r = bench(name, 30, 200, &mut step);
    let before = ALLOC.allocations();
    for _ in 0..GATE_BATCHES {
        black_box(step());
    }
    let delta = ALLOC.allocations() - before;
    let verdict = if delta == 0 { "OK" } else { "FAIL" };
    println!(
        "{r}\n{:<40} {:>12.1} ns/block   {delta} allocs in 10k batches  [{verdict}]",
        "",
        r.median_ns / blocks_per_iter as f64
    );
    delta == 0
}

fn main() {
    let cfg = DramConfig::ddr3_1333();
    let mut ok = true;

    ok &= path_case("dram/oram_paths_l14", cfg, None);
    path_kinds(cfg);

    // The audit's recorder: one `on_events` call per frame and per
    // batch. A ring keeps the trace bounded so the gate measures the
    // steady state, not the trace growing.
    let recorder = Recorder::ring(1 << 16);
    ok &= path_case("dram/oram_paths_l14_observed", cfg, Some(recorder.observer()));
    assert!(recorder.dropped() > 0, "the ring never wrapped");

    // The online audit in the recorder's place: both trace grammars
    // folded over the same calls. It counts leaves instead of storing
    // them, so nothing it keeps grows with the run.
    let audit = LaneAudit::shared(&oram(LEVELS));
    ok &= path_case("dram/oram_paths_l14_audited", cfg, Some(audit.clone()));
    let (data, _) = audit.lock().unwrap().finish().expect("the generated trace is valid");
    assert!(data.dram_blocks > 0 && data.leaves.is_empty(), "{data:?}");

    let scattered: Vec<Vec<BlockRequest>> = (0..64u64)
        .map(|b| (0..75u64).map(|i| BlockRequest::read((b * 75 + i) * 104_729)).collect())
        .collect();
    let mut replay = Replay::new(DramSystem::new(cfg).unwrap());
    let mut next = 0;
    ok &= run_case("dram/scattered_75_blocks", 75, || {
        next = (next + 1) % scattered.len();
        replay.issue(&scattered[next])
    });

    // The insecure baseline's per-miss call.
    let mut insecure = DramSystem::new(cfg).unwrap();
    let mut rng = Rng64::seed_from_u64(0x1A5E);
    let mut now = 0i64;
    ok &= run_case("dram/single_read_latency", 1, || {
        now += 40 + insecure.single_read_latency(now, rng.below(1 << 24));
        now
    });

    fold_ns_per_event(14);
    fold_ns_per_event(18);

    if !ok {
        eprintln!("steady-state DRAM batch loop allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
