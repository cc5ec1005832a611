//! Full-system integration: workloads through caches through ORAM through
//! DRAM, checking the qualitative results the paper reports.

use oram_protocol::DupPolicy;
use oram_sim::{gmean, run_workload, RunOptions, SystemConfig};
use oram_workloads::spec;

fn opts() -> RunOptions {
    RunOptions { misses: 1200, warmup_misses: 300, seed: 11, fill_target: 0.35, o3: None }
}

fn cfg(policy: DupPolicy, timing: bool) -> SystemConfig {
    let mut c = SystemConfig::scaled_default();
    c.oram.levels = 12;
    c.oram.dup_policy = policy;
    if timing {
        c.timing_protection = Some(800);
    }
    c
}

#[test]
fn oram_is_substantially_slower_than_insecure() {
    // The paper's premise: Tiny ORAM costs 2-8x over an insecure system,
    // worst for the memory-intensive workloads.
    let mcf = run_workload(&spec::profile("mcf"), &cfg(DupPolicy::Off, false), &opts());
    let namd = run_workload(&spec::profile("namd"), &cfg(DupPolicy::Off, false), &opts());
    assert!(mcf.slowdown() > 3.0, "mcf slowdown {}", mcf.slowdown());
    assert!(namd.slowdown() > 1.0, "namd slowdown {}", namd.slowdown());
    assert!(mcf.slowdown() > namd.slowdown(), "memory-intensive workloads suffer more");
}

#[test]
fn shadow_block_speeds_up_the_gmean() {
    let mut base = Vec::new();
    let mut shadow = Vec::new();
    for wl in ["hmmer", "h264ref", "sjeng", "namd"] {
        let t = run_workload(&spec::profile(wl), &cfg(DupPolicy::Off, true), &opts());
        let s = run_workload(
            &spec::profile(wl),
            &cfg(DupPolicy::Dynamic { counter_bits: 3 }, true),
            &opts(),
        );
        base.push(t.oram.total_cycles as f64);
        shadow.push(s.oram.total_cycles as f64);
    }
    let speedups: Vec<f64> = base.iter().zip(&shadow).map(|(b, s)| b / s).collect();
    let g = gmean(&speedups);
    assert!(g > 1.01, "gmean speedup {g} too small: {speedups:?}");
}

#[test]
fn rd_dup_cuts_interval_hd_dup_cuts_data_requests() {
    // Fig 8's split: RD-Dup mainly reduces DRI, HD-Dup mainly reduces the
    // number of data requests (via on-chip hits).
    let wl = spec::profile("h264ref");
    let tiny = run_workload(&wl, &cfg(DupPolicy::Off, false), &opts());
    let rd = run_workload(&wl, &cfg(DupPolicy::RdOnly, false), &opts());
    let hd = run_workload(&wl, &cfg(DupPolicy::HdOnly, false), &opts());

    // RD-Dup advances the serving position of DRAM accesses (the DRI cut
    // follows from that at scale; position is the robust per-run metric).
    assert!(rd.oram.oram.shadow_advanced > 0, "RD-Dup advanced accesses");
    assert!(
        rd.oram.oram.mean_served_position() < tiny.oram.oram.mean_served_position(),
        "RD-Dup should lower the mean serving position: {:.1} vs {:.1}",
        rd.oram.oram.mean_served_position(),
        tiny.oram.oram.mean_served_position()
    );
    assert!(
        hd.oram.data_requests < tiny.oram.data_requests,
        "HD-Dup should reduce data requests: {} vs {}",
        hd.oram.data_requests,
        tiny.oram.data_requests
    );
}

#[test]
fn treetop_caching_composes_with_shadow_block() {
    let wl = spec::profile("hmmer");
    let dyn3 = DupPolicy::Dynamic { counter_bits: 3 };
    let plain = run_workload(&wl, &cfg(dyn3, true), &opts());
    let mut with_tt = cfg(dyn3, true);
    with_tt.oram.treetop_levels = 3;
    let tt = run_workload(&wl, &with_tt, &opts());
    assert!(
        tt.oram.total_cycles <= plain.oram.total_cycles,
        "treetop must not hurt: {} vs {}",
        tt.oram.total_cycles,
        plain.oram.total_cycles
    );
    // Treetop's robust effect: the top levels never touch DRAM, so the
    // DRAM traffic per access shrinks.
    assert!(
        tt.oram.dram.reads < plain.oram.dram.reads,
        "treetop should cut DRAM reads: {} vs {}",
        tt.oram.dram.reads,
        plain.oram.dram.reads
    );
}

#[test]
fn shadow_block_beats_xor_compression() {
    // Fig 17: shadow block outperforms XOR compression on average.
    let mut sb_speedups = Vec::new();
    let mut xor_speedups = Vec::new();
    for wl in ["hmmer", "namd", "sjeng"] {
        let tiny = run_workload(&spec::profile(wl), &cfg(DupPolicy::Off, true), &opts());
        let sb = run_workload(
            &spec::profile(wl),
            &cfg(DupPolicy::Dynamic { counter_bits: 3 }, true),
            &opts(),
        );
        let mut xc = cfg(DupPolicy::Off, true);
        xc.xor_compression = true;
        let xor = run_workload(&spec::profile(wl), &xc, &opts());
        let base = tiny.oram.total_cycles as f64;
        sb_speedups.push(base / sb.oram.total_cycles as f64);
        xor_speedups.push(base / xor.oram.total_cycles as f64);
    }
    assert!(
        gmean(&sb_speedups) > gmean(&xor_speedups) * 0.98,
        "shadow {sb_speedups:?} should not lose to XOR {xor_speedups:?}"
    );
}

#[test]
fn energy_tracks_requests_and_time() {
    let wl = spec::profile("h264ref");
    let tiny = run_workload(&wl, &cfg(DupPolicy::Off, false), &opts());
    let dy = run_workload(&wl, &cfg(DupPolicy::Dynamic { counter_bits: 3 }, false), &opts());
    assert!(tiny.energy_norm() > 1.5, "ORAM energy tax exists");
    assert!(
        dy.oram.energy_mj <= tiny.oram.energy_mj * 1.02,
        "duplication must not cost extra energy: {} vs {}",
        dy.oram.energy_mj,
        tiny.oram.energy_mj
    );
}

#[test]
fn identical_seeds_are_fully_reproducible() {
    let wl = spec::profile("gcc");
    let a = run_workload(&wl, &cfg(DupPolicy::Dynamic { counter_bits: 3 }, true), &opts());
    let b = run_workload(&wl, &cfg(DupPolicy::Dynamic { counter_bits: 3 }, true), &opts());
    assert_eq!(a.oram.total_cycles, b.oram.total_cycles);
    assert_eq!(a.insecure.total_cycles, b.insecure.total_cycles);
}
