//! Building an engine costs the same number of allocator calls at any
//! tree depth: the ORAM tree is one zeroed arena, not one `Vec` per
//! bucket (1 023 buckets at L=10, 32 767 at L=14, 524 287 at L=18).
//!
//! The counting allocator is process-wide, so this file holds exactly one
//! test: a second one running on another thread would count into it.

use oram_bench::CountingAlloc;
use oram_sim::{Engine, SystemConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn allocations_to_build(levels: u32) -> u64 {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = levels;
    let before = ALLOC.allocations();
    let engine = Engine::new(sys).expect("valid configuration");
    let built = ALLOC.allocations() - before;
    drop(engine);
    built
}

#[test]
fn engine_construction_allocates_the_same_at_every_depth() {
    let [l10, l14, l18] = [10, 14, 18].map(allocations_to_build);
    assert_eq!(l10, l14, "allocator calls at L=10 vs L=14");
    assert_eq!(l14, l18, "allocator calls at L=14 vs L=18");
    assert!(l18 < 100, "{l18} allocator calls to build one engine");
}
