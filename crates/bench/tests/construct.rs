//! What the allocator sees of the two big consumers:
//!
//! * building an engine costs the same number of allocator calls at any
//!   tree depth: the ORAM tree is one zeroed arena, not one `Vec` per
//!   bucket (1 023 buckets at L=10, 32 767 at L=14, 524 287 at L=18);
//! * a serve run allocates for its set-up, not for its length: the bus
//!   audit runs online, so no trace (≈ 130 events × 16 B per request,
//!   doubled by `Vec` growth) is ever stored.
//!
//! The counting allocator is process-wide, so the tests take turns behind
//! one lock; the test harness itself allocates a little on its own thread
//! when a test finishes, which the exact counts below step around by
//! taking the least of three measurements.

use std::sync::Mutex;

use oram_bench::{run_serve, CountingAlloc, ServeOptions};
use oram_service::SchedPolicy;
use oram_sim::{Engine, SystemConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

static TURN: Mutex<()> = Mutex::new(());

fn allocations_to_build(levels: u32) -> u64 {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = levels;
    let build = || {
        let before = ALLOC.allocations();
        let engine = Engine::new(sys.clone()).expect("valid configuration");
        let built = ALLOC.allocations() - before;
        drop(engine);
        built
    };
    [build(), build(), build()].into_iter().min().expect("three builds")
}

#[test]
fn engine_construction_allocates_the_same_at_every_depth() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let [l10, l14, l18] = [10, 14, 18].map(allocations_to_build);
    assert_eq!(l10, l14, "allocator calls at L=10 vs L=14");
    assert_eq!(l14, l18, "allocator calls at L=14 vs L=18");
    assert!(l18 < 100, "{l18} allocator calls to build one engine");
}

/// Bytes requested from the allocator by one `run_serve` of the
/// `serve_flat` benchmark workload's shape with `requests` per client.
fn bytes_to_serve(requests: u64) -> u64 {
    let opts = ServeOptions {
        clients: 4,
        requests,
        load: 8.0,
        scheduler: Some(SchedPolicy::Fcfs),
        ..ServeOptions::full()
    };
    let before = ALLOC.bytes();
    run_serve(&opts, None).expect("validated run");
    ALLOC.bytes() - before
}

#[test]
fn serve_allocates_for_its_setup_not_its_length() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    // Tree arena, span ring and layout table are ≈ 19 MB whatever the
    // length; a stored trace added ≈ 8 KiB per request on top.
    let quarter = bytes_to_serve(1500);
    let flat = bytes_to_serve(6000);
    let per_request = flat / 24_000;
    assert!(per_request < 1024, "{per_request} B allocated per request at serve_flat's shape");
    assert!(
        flat < quarter + quarter / 4,
        "four times the requests allocated {flat} B, up from {quarter} B"
    );
}
