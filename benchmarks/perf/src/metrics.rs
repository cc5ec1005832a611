//! The benchmark's metric tables: names, units, directions and
//! regression bounds. `BENCHMARK.json` is generated from these
//! (`perf manifest`) and a unit test keeps the checked-in file in step.

use crate::jsonx::{count, emit, num, obj, text, Value};
use crate::workloads;

/// One end-to-end metric: what a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression, between runs of *different*
    /// seeds on a shared host (what the acceptance driver measures; goes
    /// into `BENCHMARK.json`). At least three times the spread measured
    /// there, so wide for the host metrics and the latency tails.
    pub bound: f64,
    /// The same share between two `perf run` files of the *same* seed
    /// (`perf compare`): a simulated metric repeats exactly for a seed,
    /// so it is held to 0.1 %, and an exact count to 0.
    pub compare_bound: f64,
    /// Host metrics (what the Rust code costs) vary run to run and are
    /// reported as a median with quartiles; sim metrics (what the
    /// modelled hardware costs) are deterministic in the seed.
    pub host: bool,
}

/// `setup_s` is not a regression in `perf compare` unless it also
/// worsens by this many seconds (a 10 % move of a 2 ms set-up is noise).
pub const SETUP_ABS_FLOOR_S: f64 = 0.020;

/// Seconds one contract run measures for (`run_seconds` in the manifest).
pub const RUN_SECONDS: u64 = 12;

const fn host(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    cmp: f64,
) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound, compare_bound: cmp, host: true }
}

const fn sim(
    name: &'static str,
    unit: &'static str,
    higher: bool,
    bound: f64,
    cmp: f64,
) -> EndToEnd {
    EndToEnd { name, unit, higher_is_better: higher, bound, compare_bound: cmp, host: false }
}

pub const END_TO_END: [EndToEnd; 10] = [
    host("host_ops_per_s", "ops/s", true, 0.25, 0.10),
    host("setup_s", "s", false, 0.25, 0.10),
    host("peak_rss_mb", "MiB", false, 0.10, 0.05),
    sim("served_frac", "ratio", true, 0.02, 0.0),
    sim("sim_cycles_per_op", "cycles", false, 0.03, 0.001),
    sim("sim_latency_p50_cycles", "cycles", false, 0.10, 0.001),
    sim("sim_latency_p99_cycles", "cycles", false, 0.25, 0.001),
    sim("sim_latency_p999_cycles", "cycles", false, 0.25, 0.001),
    sim("sim_throughput_req_per_mcyc", "req/Mcycle", true, 0.03, 0.001),
    sim("sim_speedup_vs_tiny", "ratio", true, 0.02, 0.001),
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric of the traced run: (name, unit, higher is better).
pub type Layer = (&'static str, &'static str, bool);

/// Every per-layer metric `perf trace` prints, grouped by the crate the
/// layer lives in. README.md says which end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: &[Layer] = &[
    // workloads: trace generation and arrival processes.
    ("workloads.ref_ns", "ns", false),
    ("workloads.refs_per_miss", "ratio", false),
    ("workloads.arrival_draw_ns", "ns", false),
    // cpu: L1/L2 filtering of the reference stream.
    ("cpu.hierarchy_ns_per_ref", "ns", false),
    ("cpu.l1_hit_rate", "ratio", true),
    ("cpu.l2_hit_rate", "ratio", true),
    ("cpu.miss_stream_self_frac", "ratio", false),
    // oram-protocol: controller host cost by policy, op and shape.
    ("protocol.access_ns.tiny", "ns", false),
    ("protocol.access_ns.rd_dup", "ns", false),
    ("protocol.access_ns.hd_dup", "ns", false),
    ("protocol.access_ns.dynamic3", "ns", false),
    ("protocol.access_ns.read", "ns", false),
    ("protocol.access_ns.write", "ns", false),
    ("protocol.access_ns.dummy", "ns", false),
    ("protocol.access_ns.readonly", "ns", false),
    ("protocol.access_ns.evicting", "ns", false),
    ("protocol.dup_host_ratio", "ratio", false),
    // oram-protocol: what the mechanism did (counts of the traced pass).
    ("protocol.stash_served_frac", "ratio", true),
    ("protocol.shadow_advanced_frac", "ratio", true),
    ("protocol.mean_served_position", "count", false),
    ("protocol.shadows_written_per_eviction", "count", true),
    ("protocol.shadow_useful_ratio", "ratio", true),
    ("protocol.stale_discarded_per_access", "count", false),
    ("protocol.stash_peak", "count", false),
    // oram-protocol: position map and PLB.
    ("posmap.lookup_ns.flat", "ns", false),
    ("posmap.lookup_ns.sparse", "ns", false),
    ("posmap.lookup_ns.recursive_plb_hit", "ns", false),
    ("posmap.lookup_ns.recursive_walk", "ns", false),
    ("posmap.plb_hit_rate", "ratio", true),
    ("posmap.walk_levels_per_miss", "count", false),
    ("posmap.chain_levels", "count", false),
    ("posmap.onchip_bytes", "bytes", false),
    ("posmap.setup_s", "s", false),
    // storage / dram: the bucket-storage seam.
    ("storage.batch_ns.dram", "ns", false),
    ("storage.batch_ns.wan", "ns", false),
    ("storage.batch_ns.disk", "ns", false),
    ("storage.batches_per_access", "count", false),
    ("storage.blocks_per_batch", "count", false),
    ("storage.busy_frac", "ratio", false),
    ("dram.row_hit_rate", "ratio", true),
    ("dram.reads", "count", false),
    ("dram.writes", "count", false),
    // sim: engine, baseline, set-up, shards, pool.
    ("sim.engine.access_ns", "ns", false),
    ("sim.engine.self_ns", "ns", false),
    ("sim.engine.unattributed_ns", "ns", false),
    ("sim.insecure.ns_per_miss", "ns", false),
    ("sim.engine_new_s", "s", false),
    ("sim.prefill_ns_per_block", "ns", false),
    ("sim.shard.batch_ns.t1", "ns", false),
    ("sim.shard.batch_ns.t2", "ns", false),
    ("sim.pool.dispatch_ns", "ns", false),
    // service: the front-end.
    ("service.roundtrip_ns", "ns", false),
    ("service.self_ns", "ns", false),
    ("service.sharded_self_ns", "ns", false),
    ("service.coalesced_frac", "ratio", true),
    ("service.rejected_frac", "ratio", false),
    ("service.issued_per_attempt", "ratio", false),
    // telemetry: the post-hoc recorder.
    ("telemetry.span_record_ns", "ns", false),
    ("telemetry.attached_overhead_ns_per_access", "ns", false),
    // obsv: the live plane and flight recorder.
    ("obsv.record_ns", "ns", false),
    ("obsv.record_ns.flight", "ns", false),
    ("obsv.prom_render_ns", "ns", false),
    ("obsv.flight_dropped", "count", false),
    // audit: the bus recorder and the trace checks.
    ("audit.record_ns_per_event", "ns", false),
    ("audit.check_ns_per_event", "ns", false),
    ("audit.events_per_request", "count", false),
    ("audit.trace_bytes_per_request", "bytes", false),
    // bench: CLI glue around the service, and the allocator.
    ("bench.serve_overhead_ns_per_req", "ns", false),
    ("bench.allocs_per_op", "count", false),
    ("bench.alloc_bytes_per_op", "bytes", false),
    // the harness itself.
    ("trace.pass_ns_per_op", "ns", false),
    ("trace.timer_overhead_ns", "ns", false),
    ("trace.overhead_frac", "ratio", false),
];

pub fn layer(name: &str) -> Option<&'static Layer> {
    PER_LAYER.iter().find(|(n, _, _)| *n == name)
}

fn better(higher: bool) -> Value {
    text(if higher { "higher" } else { "lower" })
}

/// The program and arguments the acceptance driver appends its
/// `--workload .. --seed .. --seconds .. --trace ..` to.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmarks/perf/Cargo.toml",
    "--",
];

/// The `BENCHMARK.json` this package answers to, one entry per line.
pub fn manifest() -> String {
    let lines = |items: Vec<Value>| -> String {
        items.iter().map(|v| format!("    {}", emit(v))).collect::<Vec<_>>().join(",\n")
    };
    let workloads = workloads::ALL
        .iter()
        .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
        .collect();
    let e2e = END_TO_END
        .iter()
        .map(|m| {
            obj([
                ("name", text(m.name)),
                ("unit", text(m.unit)),
                ("better", better(m.higher_is_better)),
                ("bound", num(m.bound)),
            ])
        })
        .collect();
    let layers = PER_LAYER
        .iter()
        .map(|(name, unit, higher)| {
            obj([("name", text(*name)), ("unit", text(*unit)), ("better", better(*higher))])
        })
        .collect();
    format!(
        "{{\n  \"command\": {},\n  \"paths\": [\"benchmarks/perf\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        emit(&Value::Array(COMMAND.iter().map(|s| text(*s)).collect())),
        emit(&count(RUN_SECONDS)),
        lines(workloads),
        lines(e2e),
        lines(layers),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonx::{parse, valid_name, valid_unit};
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        let layers = PER_LAYER.iter().map(|(n, u, _)| (*n, *u));
        for (name, unit) in e2e.chain(layers) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.compare_bound <= m.bound, "{}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn checked_in_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(on_disk, manifest(), "regenerate with `perf manifest > BENCHMARK.json`");
        let v = parse(&on_disk).expect("valid JSON");
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        assert!(on_disk.len() < 64 * 1024);
    }
}
