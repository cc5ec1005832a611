//! Sweeping the ORAM partitioning level and the DRI counter width on one
//! workload — a miniature of the paper's Figs. 9 and 10 that you can point
//! at any workload profile.
//!
//! ```text
//! cargo run --release -p oram-sim --example partition_tuning [workload]
//! ```

use oram_protocol::DupPolicy;
use oram_sim::{run_workload, RunOptions, SystemConfig};
use oram_workloads::spec;

fn main() {
    let wl = std::env::args().nth(1).unwrap_or_else(|| "hmmer".to_string());
    let profile = spec::profile(&wl);
    let opts =
        RunOptions { misses: 3000, warmup_misses: 800, seed: 7, fill_target: 0.35, o3: None };

    let mut base_cfg = SystemConfig::scaled_default().with_timing_protection(800);
    base_cfg.oram.levels = 12;
    let baseline = run_workload(&profile, &base_cfg, &opts);
    let base_total = baseline.oram.total_cycles as f64;
    println!("workload {wl}: Tiny ORAM total = {base_total:.0} cycles\n");

    println!("static partitioning sweep (levels >= P use RD-Dup, < P use HD-Dup):");
    let mut best = (0u32, f64::INFINITY);
    for p in (0..=12).step_by(2) {
        let mut cfg = base_cfg.clone();
        cfg.oram.dup_policy = DupPolicy::Static { partition_level: p };
        let r = run_workload(&profile, &cfg, &opts);
        let norm = r.oram.total_cycles as f64 / base_total;
        if norm < best.1 {
            best = (p, norm);
        }
        println!(
            "  P={p:>2}: total {norm:.4}  (data {:.2}, interval {:.2})",
            r.oram.data_fraction(),
            r.oram.dri_fraction()
        );
    }
    println!("  best static level: P={} at {:.4}\n", best.0, best.1);

    println!("dynamic partitioning, DRI counter width sweep:");
    for bits in 1..=8u32 {
        let mut cfg = base_cfg.clone();
        cfg.oram.dup_policy = DupPolicy::Dynamic { counter_bits: bits };
        let r = run_workload(&profile, &cfg, &opts);
        println!("  {bits}-bit: total {:.4}", r.oram.total_cycles as f64 / base_total);
    }
}
