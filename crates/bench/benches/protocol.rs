//! Micro-benchmarks of the ORAM protocol layer: controller access
//! throughput per duplication policy and at the two shapes `repro serve`
//! is benchmarked at, stash primitives, what it costs to build and drop
//! a controller or an engine — and a hard zero-allocation check over the
//! steady-state access loop.
//!
//! Run with `cargo bench --bench protocol`. The allocation checks exit
//! non-zero if the hot loop ever touches the heap again, or if building
//! a tree goes back to allocating per bucket, so CI can use this bench
//! as a regression gate.

use oram_bench::{bench, CountingAlloc};
use oram_protocol::{
    Block, BlockAddr, DupPolicy, LeafLabel, OramConfig, OramController, PosMapSelect, Request,
    Stash,
};
use oram_sim::{Engine, SystemConfig};
use oram_util::Rng64;
use oram_workloads::ZipfianSampler;
use std::hint::black_box;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const POLICIES: [(&str, DupPolicy); 4] = [
    ("tiny", DupPolicy::Off),
    ("rd_dup", DupPolicy::RdOnly),
    ("hd_dup", DupPolicy::HdOnly),
    ("dynamic3", DupPolicy::Dynamic { counter_bits: 3 }),
];

/// The geometries the controller is timed and allocation-gated at: the
/// unit-test tree, where an eviction is 44 slots over a 96-slot stash,
/// and the `fig17` sweep's (L=14, Z=A=5, stash 200, Table I caches),
/// where it is 75 slots over 200 and the duplication queues run full.
fn geometries() -> [(&'static str, OramConfig, u64); 2] {
    let mut fig17 = OramConfig::paper_table1().with_levels(14);
    fig17.stash_capacity = 200;
    [("small_L10", OramConfig::small_test().with_levels(10), 400), ("fig17_L14", fig17, 40_000)]
}

/// A prefilled controller and the address stream driven over it: a
/// stride through the working set, every fourth access to a 96-block
/// hot set so HD-Dup has counters to rank.
fn prefilled(cfg: OramConfig, working_set: u64) -> (OramController, impl FnMut() -> BlockAddr) {
    let mut ctl = OramController::new(cfg).unwrap();
    ctl.prefill((0..working_set).map(|i| (BlockAddr::new(i), i)));
    let (mut i, mut step) = (0u64, 0u64);
    let next = move || {
        step += 1;
        i = (i + 17) % working_set;
        BlockAddr::new(if step % 4 == 0 { i % 96 } else { i })
    };
    (ctl, next)
}

/// Runs `hot_loop` (10k accesses) and reports whether it stayed off the
/// heap, as the gate line `name`.
fn zero_alloc_gate(name: &str, hot_loop: impl FnOnce()) -> bool {
    let before = ALLOC.allocations();
    hot_loop();
    let delta = ALLOC.allocations() - before;
    let verdict = if delta == 0 { "OK" } else { "FAIL" };
    println!("{name:<40} {delta:>6} allocs in 10k accesses  [{verdict}]");
    delta == 0
}

fn controller_access() {
    println!("-- controller access throughput --");
    for (geometry, cfg, working_set) in geometries() {
        let mut medians = Vec::new();
        for (name, policy) in POLICIES {
            let (mut ctl, mut next) = prefilled(cfg.with_dup_policy(policy), working_set);
            let r = bench(&format!("controller_access/{geometry}/{name}"), 20, 2000, || {
                black_box(ctl.access(Request::read(next())))
            });
            println!("{r}");
            medians.push(r.median_ns);
        }
        // What the duplication policies cost the host over Tiny ORAM: the
        // medians above were taken one policy after another, minutes apart
        // on a busy host; the paired ratio alternates them.
        let dup = medians[1..].iter().sum::<f64>() / (medians.len() - 1) as f64;
        println!("controller_access/{geometry}/dup_over_tiny_unpaired {:>11.2}x", dup / medians[0]);
        let paired = paired_dup_over_tiny(cfg, working_set);
        println!("controller_access/{geometry}/dup_over_tiny {:>20.2}x", paired);
    }
}

/// Seconds [`SLICE`] reads take.
fn timed_slice(ctl: &mut OramController, next: &mut impl FnMut() -> BlockAddr) -> f64 {
    let start = Instant::now();
    for _ in 0..SLICE {
        black_box(ctl.access(Request::read(next())));
    }
    start.elapsed().as_secs_f64()
}

/// Accesses per slice, and slices, of [`paired_dup_over_tiny`].
const SLICE: u64 = 200;
const SLICES: usize = 41;

/// What the duplication policies cost the host over Tiny ORAM, measured in
/// pairs: one prefilled controller per policy, each driven by its own copy
/// of the address stream, in alternating slices of [`SLICE`] reads. Each
/// round of slices gives the mean duplication-policy slice time over the
/// Tiny one; the result is the median over [`SLICES`] rounds, so a slow
/// minute on a shared host moves both sides of a ratio alike.
fn paired_dup_over_tiny(cfg: OramConfig, working_set: u64) -> f64 {
    let mut ctls: Vec<_> = POLICIES
        .iter()
        .map(|&(_, policy)| prefilled(cfg.with_dup_policy(policy), working_set))
        .collect();
    // Warmup: fill the stashes with shadows.
    for _ in 0..10 {
        ctls.iter_mut().for_each(|(ctl, next)| _ = timed_slice(ctl, next));
    }
    let mut ratios: Vec<f64> = (0..SLICES)
        .map(|_| {
            let times: Vec<f64> =
                ctls.iter_mut().map(|(ctl, next)| timed_slice(ctl, next)).collect();
            times[1..].iter().sum::<f64>() / (times.len() - 1) as f64 / times[0]
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios[SLICES / 2]
}

fn stash_ops() {
    println!("-- stash primitives --");
    let mut stash = Stash::new(256);
    let mut i = 0u64;
    let r = bench("stash/insert_lookup_evict", 20, 10_000, || {
        i += 1;
        let addr = BlockAddr::new(i % 512);
        stash.insert(Block::real(addr, LeafLabel::new(i % 64), i, 0));
        black_box(stash.lookup(addr));
        if stash.occupied() > 200 {
            stash.mark_evicted(addr);
        }
    });
    println!("{r}");
}

fn eviction_path() {
    println!("-- access with evictions, L=12 --");
    let cfg = OramConfig::small_test().with_levels(12).with_dup_policy(DupPolicy::RdOnly);
    let mut ctl = OramController::new(cfg).unwrap();
    ctl.prefill((0..1500u64).map(|i| (BlockAddr::new(i), i)));
    let mut i = 0u64;
    let r = bench("eviction/access_with_eviction_L12", 20, 2000, || {
        i = (i + 31) % 1500;
        black_box(ctl.access(Request::read(BlockAddr::new(i))))
    });
    println!("{r}");
}

/// The zero-allocation claim, checked: after warmup (position map grown
/// to the working set), a sustained mixed read/write/dummy loop must
/// perform **zero** allocator calls under every duplication policy, at
/// both geometries.
fn steady_state_allocation_check() -> bool {
    println!("-- steady-state allocation check --");
    let mut ok = true;
    for (geometry, cfg, working_set) in geometries() {
        for (name, policy) in POLICIES {
            let (mut ctl, mut next) = prefilled(cfg.with_dup_policy(policy), working_set);
            // Warmup: fire plenty of evictions, fill the stash with shadows.
            for _ in 0..4000 {
                black_box(ctl.access(Request::read(next())));
            }
            ok &= zero_alloc_gate(&format!("steady_state_allocs/{geometry}/{name}"), || {
                for step in 0..10_000u64 {
                    match step % 5 {
                        0 => black_box(ctl.access(Request::write(next(), step))),
                        4 => black_box(ctl.dummy_access()),
                        _ => black_box(ctl.access(Request::read(next()))),
                    };
                }
            });
        }
    }
    ok
}

/// The recursive position map keeps the zero-allocation property
/// whenever the PLB answers: with the working set confined to a few
/// posmap pages (all PLB-resident after warmup), a sustained mixed
/// loop — chain walks only ever fired during warmup — must perform
/// **zero** allocator calls across 10k accesses.
fn recursive_plb_hit_allocation_check() -> bool {
    println!("-- recursive posmap PLB-hit allocation check --");
    let cfg = OramConfig::small_test()
        .with_levels(10)
        .with_posmap(PosMapSelect::Recursive { onchip_kb: 1 });
    let mut ctl = OramController::new(cfg).unwrap();
    // 64 addresses = 4 posmap pages: the 64-entry PLB holds them all.
    ctl.prefill((0..64u64).map(|i| (BlockAddr::new(i), i)));
    let mut i = 0u64;
    for _ in 0..4000 {
        i = (i + 17) % 64;
        black_box(ctl.access(Request::read(BlockAddr::new(i))));
    }
    zero_alloc_gate("steady_state_allocs/recursive_plb_hit", || {
        for step in 0..10_000u64 {
            i = (i + 17) % 64;
            match step % 5 {
                0 => black_box(ctl.access(Request::write(BlockAddr::new(i), step))),
                4 => black_box(ctl.dummy_access()),
                _ => black_box(ctl.access(Request::read(BlockAddr::new(i)))),
            };
        }
    })
}

/// Most allocator calls one build may make, at any depth. A tree is one
/// allocation however many buckets it has (32 767 at L=14, 524 287 at
/// L=18), so a build is a few dozen calls — components, plus the growth
/// steps of whatever a 1024-block prefill fills.
const CONSTRUCT_ALLOC_CAP: u64 = 256;

/// The `fig17`/`serve_flat` shape (L=14, flat position map) and the
/// `serve_recursive` one (L=18, a level tree per recursion level on top
/// of the data tree), both Tiny ORAM.
fn serve_shapes() -> (SystemConfig, SystemConfig) {
    let mut flat = SystemConfig::scaled_default();
    flat.oram.levels = 14;
    let mut recursive = SystemConfig::scaled_default();
    recursive.oram.levels = 18;
    recursive.oram.posmap = PosMapSelect::Recursive { onchip_kb: 1 };
    (flat, recursive)
}

/// The controller alone at the two serve shapes, over the prefilled
/// working sets `repro serve` gives them: Zipf (θ = 0.99) addresses, 30 %
/// writes. Most buckets of these paths are empty — 1024 and 8192 blocks
/// under 2^14 and 2^18 leaves — which is what the tree store's vacancy
/// bit is for. Allocation-gated like the loops above, chain walks of the
/// recursive map included.
fn serve_shape_access() -> bool {
    println!("-- controller at the serve shapes --");
    let (flat, recursive) = serve_shapes();
    let mut ok = true;
    for (name, cfg, blocks) in
        [("l18_recursive_tiny", recursive.oram, 8192u64), ("l14_serve_shape", flat.oram, 1024)]
    {
        let mut ctl = OramController::new(cfg).unwrap();
        ctl.prefill((0..blocks).map(|a| (BlockAddr::new(a), a)));
        let mut zipf = ZipfianSampler::new(blocks, 0.99, 0x5E7E);
        let mut rng = Rng64::seed_from_u64(0x5E7E);
        let mut step = 0u64;
        let mut next = move || {
            step += 1;
            let addr = BlockAddr::new(zipf.sample());
            if rng.gen_bool(0.3) {
                Request::write(addr, step)
            } else {
                Request::read(addr)
            }
        };
        let r = bench(&format!("controller/{name}"), 20, 2000, || black_box(ctl.access(next())));
        println!("{r}");
        ok &= zero_alloc_gate(&format!("steady_state_allocs/{name}"), || {
            for _ in 0..10_000 {
                black_box(ctl.access(next()));
            }
        });
    }
    ok
}

/// Build + drop, timed and allocation-gated: the controller alone and
/// the engine with a 1024-block prefill, at the two serve shapes.
fn construct() -> bool {
    println!("-- construct: build + drop --");
    let (flat, recursive) = serve_shapes();
    let mut ok = true;
    for (shape, sys) in [("L14_flat", flat), ("L18_recursive", recursive)] {
        let builds: [(&str, &dyn Fn()); 2] = [
            ("controller", &|| drop(black_box(OramController::new(sys.oram).unwrap()))),
            ("engine_prefill1024", &|| {
                let mut engine = Engine::new(sys.clone()).unwrap();
                engine.prefill_working_set(1024);
                drop(black_box(engine));
            }),
        ];
        for (what, build) in builds {
            let before = ALLOC.allocations();
            build();
            let allocs = ALLOC.allocations() - before;
            let r = bench(&format!("construct/{what}/{shape}"), 10, 5, build);
            let verdict = if allocs <= CONSTRUCT_ALLOC_CAP { "OK" } else { "FAIL" };
            println!("{r}");
            println!(
                "construct_allocs/{what}/{shape:<19} {allocs:>6} allocs per build \
                 (cap {CONSTRUCT_ALLOC_CAP})  [{verdict}]"
            );
            ok &= allocs <= CONSTRUCT_ALLOC_CAP;
        }
    }
    ok
}

fn main() {
    controller_access();
    let mut steady = serve_shape_access();
    stash_ops();
    eviction_path();
    let built_flat = construct();
    if !built_flat {
        eprintln!(
            "building a controller or an engine allocated per bucket — tree arena regression"
        );
    }
    steady &= steady_state_allocation_check();
    steady &= recursive_plb_hit_allocation_check();
    if !steady {
        eprintln!("steady-state ORAM access loop allocated — zero-allocation regression");
    }
    if !(built_flat && steady) {
        std::process::exit(1);
    }
}
