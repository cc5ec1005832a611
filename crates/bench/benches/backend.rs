//! Micro-benchmarks of the storage-backend layer: miss-stream replay
//! throughput of the DRAM timing model behind the [`StorageBackend`]
//! trait and of the simulated-WAN model — and a hard zero-allocation
//! check that the trait indirection added no steady-state heap traffic.
//!
//! Run with `cargo bench --bench backend`. The allocation check exits
//! non-zero if the steady-state access loop ever touches the heap, so
//! CI can use this bench as a regression gate.

use std::hint::black_box;

use oram_bench::{bench, CountingAlloc};
use oram_cpu::ReplayMisses;
use oram_sim::{
    build_miss_stream, scale_profile, Engine, RunOptions, StorageBackend, SystemConfig, WanBackend,
    WanConfig,
};
use oram_workloads::spec;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn system() -> SystemConfig {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = 12;
    sys.validate().expect("valid bench configuration");
    sys
}

/// A warmed engine plus a prebuilt miss stream of `misses` records.
fn warmed<B: StorageBackend>(
    mut engine: Engine<B>,
    misses: u64,
) -> (Engine<B>, Vec<oram_cpu::MissRecord>) {
    let sys = system();
    let ro = RunOptions { misses, warmup_misses: 0, seed: 11, fill_target: 0.35, o3: None };
    let scaled = scale_profile(&spec::profile("mcf"), &sys, ro.fill_target);
    let records = build_miss_stream(&scaled, sys.hierarchy, &ro);
    engine.prefill_working_set(scaled.working_set_blocks);
    // Warmup: grow every reusable buffer (stash, queues, finish vectors)
    // to its steady-state high-water mark.
    engine.run(&mut ReplayMisses::new(records.clone()));
    (engine, records)
}

fn replay_throughput() {
    println!("-- miss-stream replay throughput (2k misses/iter) --");
    let (mut dram, records) = warmed(Engine::new(system()).expect("engine"), 2000);
    let r = bench("backend/dram_behind_trait", 10, 3, || {
        black_box(dram.run(&mut ReplayMisses::new(records.clone())))
    });
    println!("{r}");

    let wan = WanBackend::new(WanConfig::default_wan()).expect("wan backend");
    let (mut wan, records) = warmed(Engine::with_backend(system(), wan).expect("engine"), 2000);
    let r = bench("backend/wan_default", 10, 3, || {
        black_box(wan.run(&mut ReplayMisses::new(records.clone())))
    });
    println!("{r}");
}

/// The trait-refactor zero-allocation claim, checked: after warmup, a
/// sustained 10k-access replay through `Engine<DramBackend>` must
/// perform **zero** allocator calls — the trait boundary reuses the
/// same finish buffers the concrete engine did.
fn steady_state_allocation_check() -> bool {
    println!("-- steady-state allocation check (dram behind trait) --");
    let (mut engine, records) = warmed(Engine::new(system()).expect("engine"), 10_000);
    // Build the replay source outside the measured region: the stream
    // copy is the driver's allocation, not the engine's.
    let mut replay = ReplayMisses::new(records);
    let before = ALLOC.allocations();
    black_box(engine.run(&mut replay));
    let delta = ALLOC.allocations() - before;
    let verdict = if delta == 0 { "OK" } else { "FAIL" };
    println!("steady_state_allocs/dram_trait {delta:>6} allocs in 10k accesses  [{verdict}]");
    delta == 0
}

fn main() {
    replay_throughput();
    if !steady_state_allocation_check() {
        eprintln!("steady-state backend access loop allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
