//! A secure key-value store running over the full system simulator.
//!
//! The scenario the paper's introduction motivates: a private program (here
//! a small key-value store with a hot key set) runs on a secure processor
//! whose memory traffic must not leak its access pattern. We execute the
//! same query mix over the Tiny ORAM baseline and the Shadow Block
//! controller and report how much of the ORAM tax duplication recovers.
//!
//! ```text
//! cargo run --release -p oram-sim --example secure_database
//! ```

use oram_cpu::{MissRecord, ReplayMisses};
use oram_protocol::DupPolicy;
use oram_sim::{Engine, SystemConfig};

/// A toy query mix: 70% lookups of hot keys (Zipf-ish), 20% cold scans,
/// 10% updates. Each query touches one 64-byte record.
fn query_mix(n: u64, records: u64, hot: u64) -> Vec<MissRecord> {
    let mut x = 0x0123_4567_89AB_CDEFu64;
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (addr, is_write) = match x % 10 {
            0..=6 => (x % hot, false),                     // hot lookup
            7 | 8 => (hot + (i % (records - hot)), false), // cold scan
            _ => (x % records, true),                      // update
        };
        out.push(MissRecord {
            block_addr: addr,
            is_write,
            gap_cycles: 150 + (x % 300),
            blocking: !is_write,
        });
    }
    out
}

fn run(policy: DupPolicy, queries: &[MissRecord], records: u64) -> oram_sim::SimStats {
    let mut cfg = SystemConfig::scaled_default();
    cfg.oram.levels = 12;
    cfg.oram.dup_policy = policy;
    let mut engine = Engine::new(cfg).expect("valid configuration");
    engine.prefill_working_set(records);
    engine.run(&mut ReplayMisses::new(queries.to_vec()))
}

fn main() {
    let records = 8_000u64; // 8k × 64 B = a 512 KB table
    let hot = 300u64;
    let queries = query_mix(6_000, records, hot);

    let baseline = run(DupPolicy::Off, &queries, records);
    let shadow = run(DupPolicy::Dynamic { counter_bits: 3 }, &queries, records);

    println!("secure key-value store, {} queries over {} records:", queries.len(), records);
    println!(
        "  Tiny ORAM   : {:>12} cycles ({} ORAM requests, {} served on-chip)",
        baseline.total_cycles, baseline.data_requests, baseline.onchip_served
    );
    println!(
        "  Shadow Block: {:>12} cycles ({} ORAM requests, {} served on-chip)",
        shadow.total_cycles, shadow.data_requests, shadow.onchip_served
    );
    let speedup = baseline.total_cycles as f64 / shadow.total_cycles as f64;
    println!("  speedup from data duplication: {speedup:.3}x");
    println!(
        "  shadow copies advanced {} of {} DRAM-served queries",
        shadow.oram.shadow_advanced, shadow.oram.dram_served
    );
    assert!(
        shadow.total_cycles <= baseline.total_cycles,
        "duplication must not slow the store down"
    );
}
