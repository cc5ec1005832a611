//! The service report behind `repro serve`: per-scheduler latency
//! percentiles, throughput and serve accounting, in one structure that
//! renders as a text table, serializes to JSON, parses back, and is
//! gated against a checked-in baseline by `repro compare` through the
//! [`Report`] trait.

use oram_telemetry::json::{Layout, Value, Writer};
use oram_telemetry::{Gate, Report};

/// Nearest-rank percentile of an ascending-sorted slice (`q` in
/// `[0, 1]`; 0 for an empty slice).
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let need = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[need.saturating_sub(1).min(sorted.len() - 1)]
}

/// Summary statistics of one latency population.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Samples summarized.
    pub count: u64,
    /// Arithmetic mean, cycles.
    pub mean: f64,
    /// Median, cycles.
    pub p50: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
    /// 99.9th percentile, cycles — the service-level tail objective.
    pub p999: u64,
    /// Worst observed, cycles.
    pub max: u64,
}

impl LatencySummary {
    /// Summarizes a sample slice (sorted in place).
    pub fn from_samples(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let count = samples.len() as u64;
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<u64>() as f64 / count as f64
        };
        LatencySummary {
            count,
            mean,
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
            p999: percentile(samples, 0.999),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

/// Run parameters a service report was captured under. `repro compare`
/// refuses to diff mismatched metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceMeta {
    /// Number of client streams.
    pub clients: u64,
    /// Requests each stream generates.
    pub requests_per_client: u64,
    /// Bounded per-client queue depth.
    pub queue_capacity: u64,
    /// Requests per scheduling batch.
    pub batch_size: u64,
    /// Tree depth `L`.
    pub levels: u32,
    /// Master seed.
    pub seed: u64,
    /// Load factor the offered rate was scaled by (1.0 = the base rate).
    pub load: f64,
    /// ORAM backend shards serving the run (1 = the single-engine
    /// reference path; serialized only when different, so single-shard
    /// reports stay byte-identical to their pre-sharding format).
    pub shards: u64,
    /// Storage backend the run was served from (`"dram"`, `"disk"`,
    /// `"wan"`; serialized only when not `"dram"`, so DRAM reports stay
    /// byte-identical to their pre-backend format).
    pub backend: String,
    /// Position map mode the run was served under (`"flat"` or
    /// `"recursive"`; serialized only when not `"flat"`, so flat-posmap
    /// reports stay byte-identical to their pre-recursion format).
    pub posmap: String,
}

/// One scheduler policy's results over the identical offered workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerSummary {
    /// Policy name (`fcfs`, `round_robin`, `oldest_first`).
    pub policy: String,
    /// Requests completed.
    pub completed: u64,
    /// ORAM accesses issued (coalesced-group leaders).
    pub issued: u64,
    /// Requests that rode a coalesced group.
    pub coalesced: u64,
    /// Requests bounced by admission control.
    pub rejected: u64,
    /// Completions served on chip (stash + treetop).
    pub onchip: u64,
    /// Engine cycles for the whole run.
    pub total_cycles: u64,
    /// Completed requests per million CPU cycles.
    pub throughput_rpmc: f64,
    /// End-to-end request latency (arrival → data ready).
    pub latency: LatencySummary,
}

/// A complete service report: metadata plus one [`SchedulerSummary`]
/// per policy, all measured on the identical offered workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceReport {
    /// Capture parameters.
    pub meta: ServiceMeta,
    /// Per-policy results, in report order.
    pub schedulers: Vec<SchedulerSummary>,
}

impl ServiceReport {
    /// Renders the human-readable per-scheduler table.
    pub fn render(&self) -> String {
        let m = &self.meta;
        let shard_note =
            if m.shards > 1 { format!(", shards {}", m.shards) } else { String::new() };
        let backend_note =
            if m.backend != "dram" { format!(", backend {}", m.backend) } else { String::new() };
        let posmap_note =
            if m.posmap != "flat" { format!(", posmap {}", m.posmap) } else { String::new() };
        let mut out = format!(
            "service: {} clients x {} requests (queue {}, batch {}, L={}, seed {}, load {:.2}{}{}{})\n",
            m.clients,
            m.requests_per_client,
            m.queue_capacity,
            m.batch_size,
            m.levels,
            m.seed,
            m.load,
            shard_note,
            backend_note,
            posmap_note
        );
        out.push_str(&format!(
            "  {:<13} {:>9} {:>8} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
            "scheduler",
            "completed",
            "rejected",
            "coalesced",
            "onchip",
            "p50",
            "p99",
            "p99.9",
            "max",
            "req/Mcyc"
        ));
        for s in &self.schedulers {
            out.push_str(&format!(
                "  {:<13} {:>9} {:>8} {:>9} {:>8} {:>10} {:>10} {:>10} {:>10} {:>9.2}\n",
                s.policy,
                s.completed,
                s.rejected,
                s.coalesced,
                s.onchip,
                s.latency.p50,
                s.latency.p99,
                s.latency.p999,
                s.latency.max,
                s.throughput_rpmc
            ));
        }
        out
    }

    /// Serializes the report as JSON (the `"schedulers"` key is how
    /// `repro compare` recognizes a service report).
    pub fn to_json(&self) -> String {
        let m = &self.meta;
        let mut w = Writer::new();
        w.object(Layout::INDENTED).key("meta").object(Layout::COMPACT);
        w.field("clients", m.clients).field("requests_per_client", m.requests_per_client);
        w.field("queue_capacity", m.queue_capacity).field("batch_size", m.batch_size);
        w.field("levels", m.levels).field("seed", m.seed).field("load", m.load);
        // Written only when not the default, so reports stay
        // byte-identical to the formats that predate each field.
        if m.shards != 1 {
            w.field("shards", m.shards);
        }
        if m.backend != "dram" {
            w.field("backend", m.backend.as_str());
        }
        if m.posmap != "flat" {
            w.field("posmap", m.posmap.as_str());
        }
        w.end().key("schedulers").array(Layout::INDENTED_ROWS);
        for s in &self.schedulers {
            let l = &s.latency;
            w.object(Layout::COMPACT).field("policy", s.policy.as_str());
            w.field("completed", s.completed).field("issued", s.issued);
            w.field("coalesced", s.coalesced).field("rejected", s.rejected);
            w.field("onchip", s.onchip).field("total_cycles", s.total_cycles);
            w.field("throughput_rpmc", s.throughput_rpmc).field("count", l.count);
            w.field("mean", l.mean).field("p50", l.p50).field("p99", l.p99);
            w.field("p999", l.p999).field("max", l.max).end();
        }
        w.end().end().newline();
        w.finish()
    }
}

impl Report for ServiceReport {
    const KIND: &'static str = "service";
    type Meta = ServiceMeta;

    fn from_json(doc: &Value) -> Result<ServiceReport, String> {
        let m: &Value = doc.at("meta")?;
        let meta = ServiceMeta {
            clients: m.at("clients")?,
            requests_per_client: m.at("requests_per_client")?,
            queue_capacity: m.at("queue_capacity")?,
            batch_size: m.at("batch_size")?,
            levels: m.at("levels")?,
            seed: m.at("seed")?,
            load: m.at("load")?,
            // Absent in reports captured before sharding existed.
            shards: m.at_or("shards", 1)?,
            // Absent in reports captured before storage backends existed.
            backend: m.at_or("backend", "dram")?.to_string(),
            // Absent in reports captured before the recursive posmap.
            posmap: m.at_or("posmap", "flat")?.to_string(),
        };
        let mut schedulers = Vec::new();
        for s in doc.at::<&[Value]>("schedulers")? {
            schedulers.push(SchedulerSummary {
                policy: s.at("policy")?,
                completed: s.at("completed")?,
                issued: s.at("issued")?,
                coalesced: s.at("coalesced")?,
                rejected: s.at("rejected")?,
                onchip: s.at("onchip")?,
                total_cycles: s.at("total_cycles")?,
                throughput_rpmc: s.at("throughput_rpmc")?,
                latency: LatencySummary {
                    count: s.at("count")?,
                    mean: s.at("mean")?,
                    p50: s.at("p50")?,
                    p99: s.at("p99")?,
                    p999: s.at("p999")?,
                    max: s.at("max")?,
                },
            });
        }
        Ok(ServiceReport { meta, schedulers })
    }

    fn meta(&self) -> ServiceMeta {
        self.meta.clone()
    }

    /// Latency percentiles and run length are gated; throughput and
    /// serve accounting are information. Throughput regressions show up
    /// as total_cycles increases (the offered workload is fixed), so the
    /// rate itself is info-only.
    fn rows(&self) -> Vec<(String, f64, Gate)> {
        let mut rows = Vec::new();
        for s in &self.schedulers {
            let l = &s.latency;
            for (metric, v, gate) in [
                ("total_cycles", s.total_cycles as f64, Gate::Rise),
                ("p50", l.p50 as f64, Gate::Rise),
                ("p99", l.p99 as f64, Gate::Rise),
                ("p999", l.p999 as f64, Gate::Rise),
                ("mean", l.mean, Gate::Rise),
                ("throughput_rpmc", s.throughput_rpmc, Gate::Info),
                ("completed", s.completed as f64, Gate::Info),
                ("issued", s.issued as f64, Gate::Info),
                ("coalesced", s.coalesced as f64, Gate::Info),
                ("rejected", s.rejected as f64, Gate::Info),
                ("onchip", s.onchip as f64, Gate::Info),
            ] {
                rows.push((format!("{}.{metric}", s.policy), v, gate));
            }
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_telemetry::compare_reports;

    fn summary(policy: &str, p99: u64) -> SchedulerSummary {
        SchedulerSummary {
            policy: policy.into(),
            completed: 1000,
            issued: 900,
            coalesced: 100,
            rejected: 17,
            onchip: 250,
            total_cycles: 5_000_000,
            throughput_rpmc: 0.2,
            latency: LatencySummary {
                count: 1000,
                mean: 4200.5,
                p50: 3000,
                p99,
                p999: p99 * 2,
                max: p99 * 3,
            },
        }
    }

    fn report() -> ServiceReport {
        ServiceReport {
            meta: ServiceMeta {
                clients: 4,
                requests_per_client: 250,
                queue_capacity: 16,
                batch_size: 4,
                levels: 12,
                seed: 7,
                load: 1.0,
                shards: 1,
                backend: "dram".to_string(),
                posmap: "flat".to_string(),
            },
            schedulers: vec![summary("fcfs", 9000), summary("round_robin", 9500)],
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[42], 0.999), 42);
    }

    #[test]
    fn latency_summary_from_samples() {
        let mut v: Vec<u64> = (0..1000).rev().collect();
        let s = LatencySummary::from_samples(&mut v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 499);
        assert_eq!(s.p99, 989);
        assert_eq!(s.p999, 998);
        assert_eq!(s.max, 999);
        assert!((s.mean - 499.5).abs() < 1e-9);
    }

    #[test]
    fn json_round_trips() {
        let r = report();
        let parsed = ServiceReport::parse(&r.to_json()).expect("parse back");
        assert_eq!(parsed.meta, r.meta);
        assert_eq!(parsed.schedulers.len(), r.schedulers.len());
        for (a, b) in parsed.schedulers.iter().zip(&r.schedulers) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.latency.p999, b.latency.p999);
            assert!((a.latency.mean - b.latency.mean).abs() < 1e-3);
            assert!((a.throughput_rpmc - b.throughput_rpmc).abs() < 1e-6);
        }
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(ServiceReport::parse("{}").is_err());
        assert!(ServiceReport::parse("{\"meta\": {}}").is_err());
        assert!(ServiceReport::parse("not json").is_err());
    }

    #[test]
    fn identical_reports_pass_comparison() {
        let r = report();
        let out = compare_reports(&r, &r, 0.02).expect("comparable");
        assert!(out.passed());
    }

    #[test]
    fn tail_regression_is_caught() {
        let base = report();
        let mut cand = report();
        cand.schedulers[0].latency.p999 = (base.schedulers[0].latency.p999 as f64 * 1.10) as u64;
        let out = compare_reports(&base, &cand, 0.02).expect("comparable");
        assert!(!out.passed());
        assert!(out.regressions().iter().any(|d| d.name == "fcfs.p999"));
    }

    #[test]
    fn info_metrics_never_gate() {
        let base = report();
        let mut cand = report();
        cand.schedulers[1].rejected = 400;
        cand.schedulers[1].throughput_rpmc = 0.05;
        let out = compare_reports(&base, &cand, 0.02).expect("comparable");
        assert!(out.passed(), "rejected/throughput are informational");
    }

    #[test]
    fn mismatched_meta_is_not_comparable() {
        let base = report();
        let mut cand = report();
        cand.meta.seed = 8;
        assert!(compare_reports(&base, &cand, 0.02).is_err());
    }

    #[test]
    fn shard_count_is_optional_and_round_trips() {
        // Single-shard reports omit the field entirely (byte-compatible
        // with pre-sharding baselines) and parse back to 1.
        let single = report();
        assert!(!single.to_json().contains("shards"));
        assert!(!single.render().contains("shards"));
        assert_eq!(ServiceReport::parse(&single.to_json()).unwrap().meta.shards, 1);

        let mut multi = report();
        multi.meta.shards = 4;
        assert!(multi.to_json().contains("\"shards\":4"));
        assert!(multi.render().contains("shards 4"));
        assert_eq!(ServiceReport::parse(&multi.to_json()).unwrap().meta.shards, 4);

        // Shard count is part of the comparability contract.
        assert!(compare_reports(&single, &multi, 0.02).is_err());
    }

    #[test]
    fn backend_is_optional_and_round_trips() {
        // DRAM reports omit the field entirely (byte-compatible with
        // pre-backend baselines) and parse back to "dram".
        let dram = report();
        assert!(!dram.to_json().contains("backend"));
        assert!(!dram.render().contains("backend"));
        assert_eq!(ServiceReport::parse(&dram.to_json()).unwrap().meta.backend, "dram");

        let mut wan = report();
        wan.meta.backend = "wan".to_string();
        assert!(wan.to_json().contains("\"backend\":\"wan\""));
        assert!(wan.render().contains("backend wan"));
        assert_eq!(ServiceReport::parse(&wan.to_json()).unwrap().meta.backend, "wan");

        // The backend is part of the comparability contract.
        assert!(compare_reports(&dram, &wan, 0.02).is_err());
    }

    #[test]
    fn posmap_is_optional_and_round_trips() {
        // Flat-posmap reports omit the field entirely (byte-compatible
        // with pre-recursion baselines) and parse back to "flat".
        let flat = report();
        assert!(!flat.to_json().contains("posmap"));
        assert!(!flat.render().contains("posmap"));
        assert_eq!(ServiceReport::parse(&flat.to_json()).unwrap().meta.posmap, "flat");

        let mut rec = report();
        rec.meta.posmap = "recursive".to_string();
        assert!(rec.to_json().contains("\"posmap\":\"recursive\""));
        assert!(rec.render().contains("posmap recursive"));
        assert_eq!(ServiceReport::parse(&rec.to_json()).unwrap().meta.posmap, "recursive");

        // The posmap mode is part of the comparability contract.
        assert!(compare_reports(&flat, &rec, 0.02).is_err());
    }

    #[test]
    fn render_mentions_every_policy() {
        let text = report().render();
        assert!(text.contains("fcfs"));
        assert!(text.contains("round_robin"));
        assert!(text.contains("p99.9"));
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        let text = report().to_json().replace("\"levels\":12", "\"levels\":4294967308");
        let err = ServiceReport::parse(&text).unwrap_err();
        assert!(err.contains("levels"), "{err}");
    }

    #[test]
    fn quick_reports_are_a_fixed_point_of_the_writer() {
        // The checked-in baselines are `repro serve --quick` reports.
        for text in [
            include_str!("../../../bench_results/BENCH_service_baseline.json"),
            include_str!("../../../bench_results/BENCH_shard_baseline.json"),
            include_str!("../../../bench_results/BENCH_backend_baseline.json"),
            include_str!("../../../bench_results/BENCH_posmap_baseline.json"),
        ] {
            let r = ServiceReport::parse(text).expect("baseline parses");
            assert_eq!(r.to_json(), text);
            assert_eq!(ServiceReport::parse(&r.to_json()).unwrap(), r);
        }
    }
}
