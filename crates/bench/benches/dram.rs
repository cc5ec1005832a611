//! Micro-benchmarks of the DDR3 timing model as the engine drives it:
//! `service_batch_into` over a rotation of random ORAM paths (so row
//! hits, misses and conflicts occur in realistic proportion — replaying
//! one path would make every access a row hit), with and without a bus
//! observer attached, plus scattered traffic and the insecure baseline's
//! single-block read.
//!
//! Run with `cargo bench --bench dram`. Every case is also a hard
//! zero-allocation gate: the bench exits non-zero if 10k steady-state
//! batches ever touch the heap, so CI can use it as a regression check.

use std::hint::black_box;

use oram_audit::Recorder;
use oram_bench::{bench, CountingAlloc};
use oram_dram::{BlockRequest, DramConfig, DramSystem, SubtreeLayout};
use oram_util::Rng64;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const LEVELS: u32 = 14;
const Z: usize = 5;
const PATHS: usize = 1024;
const GATE_BATCHES: usize = 10_000;

/// `PATHS` random root-to-leaf paths at L = 14, Z = 5 (75 blocks each);
/// every third one is an eviction write batch.
fn random_paths(layout: &SubtreeLayout) -> Vec<Vec<BlockRequest>> {
    let mut rng = Rng64::seed_from_u64(0xD7A3);
    (0..PATHS)
        .map(|i| {
            let leaf = (1u64 << LEVELS) + rng.below(1 << LEVELS);
            let is_write = i % 3 == 2;
            (0..=LEVELS)
                .flat_map(|level| {
                    let base = layout.block_addr(leaf >> (LEVELS - level), 0);
                    (0..Z as u64).map(move |slot| BlockRequest { addr: base + slot, is_write })
                })
                .collect()
        })
        .collect()
}

/// Replays `batches` in rotation through one system, each batch issued
/// when the previous one drained.
struct Replay {
    dram: DramSystem,
    batches: Vec<Vec<BlockRequest>>,
    finishes: Vec<i64>,
    next: usize,
    now: i64,
}

impl Replay {
    fn new(dram: DramSystem, batches: Vec<Vec<BlockRequest>>) -> Self {
        Replay { dram, batches, finishes: Vec::new(), next: 0, now: 0 }
    }

    fn step(&mut self) -> i64 {
        let reqs = &self.batches[self.next];
        self.next = (self.next + 1) % self.batches.len();
        self.dram.service_batch_into(self.now, reqs, true, &mut self.finishes);
        self.now = *self.finishes.iter().max().expect("non-empty batch");
        self.now
    }
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
    let layout = SubtreeLayout::fit_to_row(&cfg, Z);
    let paths = random_paths(&layout);
    let path_blocks = paths[0].len();
    let mut ok = true;

    let mut plain = Replay::new(DramSystem::new(cfg).unwrap(), paths.clone());
    ok &= run_case("dram/oram_paths_l14", path_blocks, || plain.step());

    // The audit's recorder on the device side: one `on_events` call per
    // batch. A ring keeps the trace bounded so the gate measures the
    // steady state, not the trace growing.
    let recorder = Recorder::ring(1 << 16);
    let mut observed = DramSystem::new(cfg).unwrap();
    observed.set_observer(Some(recorder.observer()));
    let mut observed = Replay::new(observed, paths);
    ok &= run_case("dram/oram_paths_l14_observed", path_blocks, || observed.step());
    assert!(recorder.dropped() > 0, "the ring never wrapped");

    let scattered: Vec<Vec<BlockRequest>> = (0..64u64)
        .map(|b| (0..75u64).map(|i| BlockRequest::read((b * 75 + i) * 104_729)).collect())
        .collect();
    let mut scattered = Replay::new(DramSystem::new(cfg).unwrap(), scattered);
    ok &= run_case("dram/scattered_75_blocks", 75, || scattered.step());

    // The insecure baseline's per-miss call.
    let mut insecure = DramSystem::new(cfg).unwrap();
    let mut rng = Rng64::seed_from_u64(0x1A5E);
    let mut now = 0i64;
    ok &= run_case("dram/single_read_latency", 1, || {
        now += 40 + insecure.single_read_latency(now, rng.below(1 << 24));
        now
    });

    if !ok {
        eprintln!("steady-state DRAM batch loop allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
