//! Micro-benchmarks of the service front-end: request round-trip cost
//! through admission + scheduling + coalescing into the engine, and a
//! hard zero-allocation check over the steady-state service issue path.
//!
//! Run with `cargo bench --bench service`. The allocation check exits
//! non-zero if the service-driven steady state ever touches the heap,
//! so CI can use this bench as a regression gate. Per-request *setup*
//! (queue and sample buffers sized at construction) may allocate; the
//! admission/schedule/coalesce/issue loop may not.

use oram_bench::{bench, CountingAlloc};
use oram_service::{SchedPolicy, ServeTarget, ServiceConfig, ServiceDriver, ServiceSim};
use oram_sim::{Engine, ShardedOram, SystemConfig};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn engine() -> Engine {
    let mut e = Engine::new(SystemConfig::small_test()).expect("valid config");
    e.prefill_working_set(512);
    e
}

fn service_roundtrip() {
    println!("-- service round-trip (admission + schedule + ORAM access) --");
    for policy in SchedPolicy::ALL {
        let mut cfg = ServiceConfig::symmetric_open(4, 0, 1_000.0, 512, 11);
        cfg.scheduler = policy;
        let mut sim = ServiceSim::new(cfg, engine()).expect("valid config");
        let mut i = 0u64;
        let r = bench(&format!("service_roundtrip/{}", policy.name()), 20, 2000, || {
            i = (i + 17) % 512;
            sim.inject((i % 4) as usize, i, i.is_multiple_of(5));
            while sim.step() {}
            black_box(i)
        });
        println!("{r}");
    }
}

/// The zero-allocation claim, extended through the service layer: with
/// the target's engines warmed to their high-water marks (DRAM queues,
/// stash and duplication structures at steady-state capacity) and the
/// service and dispatch buffers sized at construction, a full generated
/// run — Poisson admission, Zipfian draws, scheduling, MSHR coalescing,
/// batch partitioning and outcome scatter, and the ORAM accesses
/// themselves — must perform **zero** allocator calls. `warmed` builds
/// and warms one target off the books. (Multi-thread shard serving
/// allocates per-shard result buffers by design; the sharded gate pins
/// the single-thread path.)
fn steady_state_allocation_check<T: ServeTarget>(label: &str, warmed: impl Fn() -> T) -> bool {
    let mut ok = true;
    for policy in SchedPolicy::ALL {
        let mut cfg = ServiceConfig::symmetric_open(4, 2_500, 400.0, 512, 11);
        cfg.scheduler = policy;
        // Construction preallocates queues, waiter scratch, and latency
        // buffers — allowed to allocate.
        let mut sim = ServiceDriver::new(cfg, warmed()).expect("valid config");
        let before = ALLOC.allocations();
        sim.run();
        let delta = ALLOC.allocations() - before;
        let (res, _) = sim.finish();
        assert_eq!(res.completed() + res.rejected(), 10_000, "{}", policy.name());
        let verdict = if delta == 0 { "OK" } else { "FAIL" };
        println!("{label}/{:<12} {delta:>6} allocs in 10k requests  [{verdict}]", policy.name());
        ok &= delta == 0;
    }
    ok
}

/// The engine with 4k accesses behind it.
fn warmed_engine() -> Engine {
    let mut eng = engine();
    let mut i = 0u64;
    for step in 0..4000u64 {
        i = (i + 17) % 512;
        black_box(eng.serve_request(i, step.is_multiple_of(5), 0));
    }
    eng
}

/// Four shards with 8k accesses behind them: (i + 17) % 512 cycles all
/// residues mod 4, so every shard is warm.
fn warmed_shards() -> ShardedOram {
    let mut backend = ShardedOram::new(SystemConfig::small_test(), 4, 1).expect("valid config");
    backend.prefill_working_set(512);
    let mut i = 0u64;
    for step in 0..8000u64 {
        i = (i + 17) % 512;
        black_box(backend.serve_request(i, step.is_multiple_of(5), 0));
    }
    backend
}

fn main() {
    service_roundtrip();
    println!("-- service steady-state allocation check --");
    let mut ok = steady_state_allocation_check("service_steady_allocs", warmed_engine);
    println!("-- sharded service steady-state allocation check (4 shards) --");
    ok &= steady_state_allocation_check("sharded_steady_allocs", warmed_shards);
    if !ok {
        eprintln!("service steady-state issue path allocated — zero-allocation regression");
        std::process::exit(1);
    }
}
