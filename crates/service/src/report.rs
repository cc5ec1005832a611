//! The service report behind `repro serve`: per-scheduler latency
//! percentiles, throughput and serve accounting, in one structure that
//! renders as a text table, serializes to JSON, parses back, and
//! compares against a checked-in baseline with the same regression
//! machinery `repro compare` uses for profiles.

use oram_telemetry::json::{self, Value};
use oram_telemetry::{CompareOutcome, MetricDelta};

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
        let shard_field =
            if m.shards != 1 { format!(",\"shards\":{}", m.shards) } else { String::new() };
        let backend_field = if m.backend != "dram" {
            format!(",\"backend\":\"{}\"", json::escape(&m.backend))
        } else {
            String::new()
        };
        let posmap_field = if m.posmap != "flat" {
            format!(",\"posmap\":\"{}\"", json::escape(&m.posmap))
        } else {
            String::new()
        };
        let mut out = String::from("{\n");
        out.push_str(&format!(
            concat!(
                "  \"meta\": {{\"clients\":{},\"requests_per_client\":{},",
                "\"queue_capacity\":{},\"batch_size\":{},\"levels\":{},\"seed\":{},",
                "\"load\":{:.6}{}{}{}}},\n"
            ),
            m.clients,
            m.requests_per_client,
            m.queue_capacity,
            m.batch_size,
            m.levels,
            m.seed,
            m.load,
            shard_field,
            backend_field,
            posmap_field
        ));
        out.push_str("  \"schedulers\": [\n");
        for (i, s) in self.schedulers.iter().enumerate() {
            out.push_str(&format!(
                concat!(
                    "    {{\"policy\":\"{}\",\"completed\":{},\"issued\":{},",
                    "\"coalesced\":{},\"rejected\":{},\"onchip\":{},\"total_cycles\":{},",
                    "\"throughput_rpmc\":{:.6},\"count\":{},\"mean\":{:.6},",
                    "\"p50\":{},\"p99\":{},\"p999\":{},\"max\":{}}}{}\n"
                ),
                json::escape(&s.policy),
                s.completed,
                s.issued,
                s.coalesced,
                s.rejected,
                s.onchip,
                s.total_cycles,
                s.throughput_rpmc,
                s.latency.count,
                s.latency.mean,
                s.latency.p50,
                s.latency.p99,
                s.latency.p999,
                s.latency.max,
                if i + 1 < self.schedulers.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a report previously written by [`ServiceReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message locating the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<ServiceReport, String> {
        let doc = json::parse(text)?;
        let req_u64 = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key).and_then(Value::as_u64).ok_or(format!("missing or non-u64 {key:?}"))
        };
        let req_f64 = |v: &Value, key: &str| -> Result<f64, String> {
            v.get(key).and_then(Value::as_f64).ok_or(format!("missing or non-number {key:?}"))
        };
        let m = doc.get("meta").ok_or("missing meta")?;
        let meta = ServiceMeta {
            clients: req_u64(m, "clients")?,
            requests_per_client: req_u64(m, "requests_per_client")?,
            queue_capacity: req_u64(m, "queue_capacity")?,
            batch_size: req_u64(m, "batch_size")?,
            levels: req_u64(m, "levels")? as u32,
            seed: req_u64(m, "seed")?,
            load: req_f64(m, "load")?,
            // Absent in reports captured before sharding existed.
            shards: m.get("shards").and_then(Value::as_u64).unwrap_or(1),
            // Absent in reports captured before storage backends existed.
            backend: m
                .get("backend")
                .and_then(Value::as_str)
                .unwrap_or("dram")
                .to_string(),
            // Absent in reports captured before the recursive posmap.
            posmap: m
                .get("posmap")
                .and_then(Value::as_str)
                .unwrap_or("flat")
                .to_string(),
        };
        let list = doc.get("schedulers").and_then(Value::as_array).ok_or("missing schedulers")?;
        let mut schedulers = Vec::new();
        for s in list {
            schedulers.push(SchedulerSummary {
                policy: s
                    .get("policy")
                    .and_then(Value::as_str)
                    .ok_or("missing policy")?
                    .to_string(),
                completed: req_u64(s, "completed")?,
                issued: req_u64(s, "issued")?,
                coalesced: req_u64(s, "coalesced")?,
                rejected: req_u64(s, "rejected")?,
                onchip: req_u64(s, "onchip")?,
                total_cycles: req_u64(s, "total_cycles")?,
                throughput_rpmc: req_f64(s, "throughput_rpmc")?,
                latency: LatencySummary {
                    count: req_u64(s, "count")?,
                    mean: req_f64(s, "mean")?,
                    p50: req_u64(s, "p50")?,
                    p99: req_u64(s, "p99")?,
                    p999: req_u64(s, "p999")?,
                    max: req_u64(s, "max")?,
                },
            });
        }
        Ok(ServiceReport { meta, schedulers })
    }
}

/// Compares a candidate service report against a baseline, reusing the
/// profile regression machinery: latency percentiles and run length are
/// gated (a worsening beyond `tolerance` is a regression), throughput
/// and serve accounting are informational.
///
/// # Errors
///
/// Returns an error when the reports are not comparable (mismatched
/// metadata or scheduler sets).
pub fn compare_service_reports(
    base: &ServiceReport,
    candidate: &ServiceReport,
    tolerance: f64,
) -> Result<CompareOutcome, String> {
    if base.meta != candidate.meta {
        return Err(format!(
            "service reports are not comparable: baseline {:?} vs candidate {:?}",
            base.meta, candidate.meta
        ));
    }
    let mut deltas = Vec::new();
    for b in &base.schedulers {
        let c = candidate
            .schedulers
            .iter()
            .find(|c| c.policy == b.policy)
            .ok_or(format!("candidate is missing scheduler {:?}", b.policy))?;
        let mut push = |metric: &str, bv: f64, cv: f64, gated: bool| {
            let delta = if bv == 0.0 { 0.0 } else { (cv - bv) / bv };
            deltas.push(MetricDelta {
                name: format!("{}.{metric}", b.policy),
                base: bv,
                candidate: cv,
                delta,
                gated,
            });
        };
        push("total_cycles", b.total_cycles as f64, c.total_cycles as f64, true);
        push("p50", b.latency.p50 as f64, c.latency.p50 as f64, true);
        push("p99", b.latency.p99 as f64, c.latency.p99 as f64, true);
        push("p999", b.latency.p999 as f64, c.latency.p999 as f64, true);
        push("mean", b.latency.mean, c.latency.mean, true);
        // Throughput regressions show up as total_cycles increases (the
        // offered workload is fixed), so the rate itself is info-only.
        push("throughput_rpmc", b.throughput_rpmc, c.throughput_rpmc, false);
        push("completed", b.completed as f64, c.completed as f64, false);
        push("issued", b.issued as f64, c.issued as f64, false);
        push("coalesced", b.coalesced as f64, c.coalesced as f64, false);
        push("rejected", b.rejected as f64, c.rejected as f64, false);
        push("onchip", b.onchip as f64, c.onchip as f64, false);
    }
    for c in &candidate.schedulers {
        if !base.schedulers.iter().any(|b| b.policy == c.policy) {
            return Err(format!("baseline is missing scheduler {:?}", c.policy));
        }
    }
    Ok(CompareOutcome { deltas, tolerance })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let out = compare_service_reports(&r, &r, 0.02).expect("comparable");
        assert!(out.passed());
    }

    #[test]
    fn tail_regression_is_caught() {
        let base = report();
        let mut cand = report();
        cand.schedulers[0].latency.p999 = (base.schedulers[0].latency.p999 as f64 * 1.10) as u64;
        let out = compare_service_reports(&base, &cand, 0.02).expect("comparable");
        assert!(!out.passed());
        assert!(out.regressions().iter().any(|d| d.name == "fcfs.p999"));
    }

    #[test]
    fn info_metrics_never_gate() {
        let base = report();
        let mut cand = report();
        cand.schedulers[1].rejected = 400;
        cand.schedulers[1].throughput_rpmc = 0.05;
        let out = compare_service_reports(&base, &cand, 0.02).expect("comparable");
        assert!(out.passed(), "rejected/throughput are informational");
    }

    #[test]
    fn mismatched_meta_is_not_comparable() {
        let base = report();
        let mut cand = report();
        cand.meta.seed = 8;
        assert!(compare_service_reports(&base, &cand, 0.02).is_err());
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
        assert!(compare_service_reports(&single, &multi, 0.02).is_err());
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
        assert!(compare_service_reports(&dram, &wan, 0.02).is_err());
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
        assert!(compare_service_reports(&flat, &rec, 0.02).is_err());
    }

    #[test]
    fn render_mentions_every_policy() {
        let text = report().render();
        assert!(text.contains("fcfs"));
        assert!(text.contains("round_robin"));
        assert!(text.contains("p99.9"));
    }
}
