//! Turning repetitions into the ten end-to-end metrics of a workload,
//! and a set of workloads into a result file.
//!
//! Host metrics are the median over repetitions (quartiles and n beside
//! it). Simulated metrics are the mean over the run's `SUB_SEEDS`
//! derived seeds, each taken the first time that seed runs; when a seed
//! comes round again it must reproduce them bit for bit.

use std::collections::BTreeMap;

use crate::child::Rep;
use crate::jsonx::{count, num, obj, text, Value};
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::Summary;
use crate::workloads::{SimMetrics, Workload};

/// One end-to-end metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    /// A host metric: one value per repetition.
    Host(Summary),
    /// A simulated metric or exact ratio: fixed by the seed.
    Sim(f64),
}

impl Reading {
    /// The value the metric is judged by.
    pub fn value(&self) -> f64 {
        match self {
            Reading::Host(s) => s.median,
            Reading::Sim(v) => *v,
        }
    }
}

/// A repetition counts as measured on a quiet machine when every
/// contention reading around it is within this factor of the quiet floor
/// (the two states are 1.5-2x apart).
pub const QUIET_FACTOR: f64 = 1.2;
/// Host metrics rest on at least this many repetitions: when fewer were
/// quiet, the ones with the lowest readings fill up.
pub const MIN_QUIET: usize = 3;

/// The quiet floor a run's own readings suggest: their 10th percentile
/// (not the minimum, which one preempted kernel can set). `None` without
/// finite readings.
pub fn run_floor(reps: &[Rep]) -> Option<f64> {
    let mut readings: Vec<f64> =
        reps.iter().flat_map(|r| r.contention).filter(|c| c.is_finite()).collect();
    readings.sort_by(f64::total_cmp);
    readings.get(readings.len() / 10).copied()
}

/// The repetitions with passing checks that were measured on a quiet
/// machine. `floor` is the lowest floor known from earlier runs on this
/// machine, if any: a run that a neighbour sat through from start to end
/// has no quiet reading of its own to go by.
pub fn quiet(reps: &[Rep], floor: Option<f64>) -> Vec<&Rep> {
    let floor = run_floor(reps).into_iter().chain(floor).fold(f64::INFINITY, f64::min);
    reps.iter()
        .filter(|r| r.outcome.check.is_ok())
        .filter(|r| r.contention.iter().all(|c| *c <= QUIET_FACTOR * floor))
        .collect()
}

/// The repetitions the host metrics of a run rest on: the quiet ones, or
/// when fewer than [`MIN_QUIET`] were, the [`MIN_QUIET`] whose worst
/// reading was lowest.
fn calmest(reps: &[Rep], floor: Option<f64>) -> Vec<&Rep> {
    let calm = quiet(reps, floor);
    if calm.len() >= MIN_QUIET {
        return calm;
    }
    let worst = |r: &Rep| r.contention.iter().copied().fold(f64::NAN, f64::max);
    let mut good: Vec<&Rep> = reps.iter().filter(|r| r.outcome.check.is_ok()).collect();
    good.sort_by(|a, b| worst(a).total_cmp(&worst(b)));
    good.truncate(MIN_QUIET);
    good
}

/// The end-to-end result of one workload in one run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub name: &'static str,
    pub reps: usize,
    /// Repetitions measured while no neighbour contended for the core
    /// (see [`quiet`]); the host metrics rest on these.
    pub quiet_reps: usize,
    pub attempted: u64,
    /// Operations of repetitions whose output check failed, whose
    /// process was lost, or that did not reproduce an earlier repetition
    /// of the same seed.
    pub failed: u64,
    /// Why, one line per failed repetition.
    pub failures: Vec<String>,
    /// Smallest sample behind the latency percentiles of any repetition.
    pub latency_n: u64,
    pub readings: BTreeMap<&'static str, Reading>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len() as f64
}

/// Folds the repetitions of one workload, in the order they ran. `floor`
/// is as for [`quiet`].
pub fn aggregate(w: Workload, reps: &[Rep], floor: Option<f64>) -> WorkloadResult {
    let mut failures = Vec::new();
    let mut failed = 0u64;
    // First repetition of each derived seed; later ones must match it.
    let mut first: BTreeMap<u64, &Rep> = BTreeMap::new();
    let mut order: Vec<&Rep> = Vec::new();
    for rep in reps {
        if let Err(why) = &rep.outcome.check {
            failed += rep.outcome.attempted;
            failures.push(format!("{} seed {}: {why}", w.name, rep.seed));
            continue;
        }
        match first.get(&rep.seed) {
            None => {
                first.insert(rep.seed, rep);
                order.push(rep);
            }
            Some(prev) => {
                let same = prev.outcome.digest == rep.outcome.digest
                    && prev.outcome.sim == rep.outcome.sim
                    && prev.outcome.served == rep.outcome.served;
                if !same {
                    failed += rep.outcome.attempted;
                    failures.push(format!(
                        "{} seed {}: a repeat of the same inputs gave different simulated results",
                        w.name, rep.seed
                    ));
                }
            }
        }
    }

    let calm = calmest(reps, floor);
    let host = |f: fn(&Rep) -> f64| -> Reading {
        let v: Vec<f64> = calm.iter().map(|r| f(r)).collect();
        if v.is_empty() {
            Reading::Sim(f64::NAN)
        } else {
            Reading::Host(Summary::of(&v))
        }
    };
    let sims: Vec<&SimMetrics> = order.iter().filter_map(|r| r.outcome.sim.as_ref()).collect();
    let sim = |f: fn(&SimMetrics) -> f64| -> Reading {
        if sims.is_empty() {
            Reading::Sim(f64::NAN)
        } else {
            Reading::Sim(mean(sims.iter().map(|s| f(s))))
        }
    };
    let (served, attempted_first) = order
        .iter()
        .fold((0u64, 0u64), |(s, a), r| (s + r.outcome.served, a + r.outcome.attempted));

    let mut readings = BTreeMap::new();
    for m in &END_TO_END {
        let reading = match m.name {
            "host_ops_per_s" => host(|r| r.outcome.attempted as f64 / r.wall_s),
            "setup_s" => host(|r| r.setup_s),
            "peak_rss_mb" => host(|r| r.peak_rss_mb),
            "served_frac" => Reading::Sim(if attempted_first == 0 {
                f64::NAN
            } else {
                served as f64 / attempted_first as f64
            }),
            "sim_cycles_per_op" => sim(|s| s.cycles_per_op),
            "sim_latency_p50_cycles" => sim(|s| s.latency_p50),
            "sim_latency_p99_cycles" => sim(|s| s.latency_p99),
            "sim_latency_p999_cycles" => sim(|s| s.latency_p999),
            "sim_throughput_req_per_mcyc" => sim(|s| s.throughput_req_per_mcyc),
            "sim_speedup_vs_tiny" => sim(|s| s.speedup_vs_tiny),
            other => unreachable!("no reading defined for {other}"),
        };
        readings.insert(m.name, reading);
    }
    WorkloadResult {
        name: w.name,
        reps: reps.len(),
        quiet_reps: quiet(reps, floor).len(),
        attempted: reps.iter().map(|r| r.outcome.attempted).sum(),
        failed,
        failures,
        latency_n: sims.iter().map(|s| s.latency_n).min().unwrap_or(0),
        readings,
    }
}

fn summary_json(s: &Summary) -> Value {
    obj([
        ("n", count(s.n as u64)),
        ("min", num(s.min)),
        ("q1", num(s.q1)),
        ("median", num(s.median)),
        ("q3", num(s.q3)),
        ("max", num(s.max)),
    ])
}

fn summary_from_json(v: &Value) -> Option<Summary> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(Summary {
        n: v.get("n")?.as_u64()? as usize,
        min: f("min")?,
        q1: f("q1")?,
        median: f("median")?,
        q3: f("q3")?,
        max: f("max")?,
    })
}

/// One metric of a result file: its table entry plus the reading.
pub fn reading_json(m: &EndToEnd, r: &Reading) -> Value {
    let kind = text(if m.host { "host" } else { "sim" });
    match r {
        Reading::Host(s) => {
            obj([("unit", text(m.unit)), ("kind", kind), ("summary", summary_json(s))])
        }
        Reading::Sim(v) => obj([("unit", text(m.unit)), ("kind", kind), ("value", num(*v))]),
    }
}

pub fn reading_from_json(v: &Value) -> Option<Reading> {
    match v.get("summary") {
        Some(s) => summary_from_json(s).map(Reading::Host),
        None => v.get("value").and_then(Value::as_f64).map(Reading::Sim),
    }
}

impl WorkloadResult {
    pub fn to_json(&self) -> Value {
        let metrics: BTreeMap<String, Value> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), reading_json(m, &self.readings[m.name])))
            .collect();
        obj([
            ("reps", count(self.reps as u64)),
            ("quiet_reps", count(self.quiet_reps as u64)),
            ("attempted", count(self.attempted)),
            ("failed", count(self.failed)),
            ("latency_n", count(self.latency_n)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{by_name, Outcome};

    fn rep(seed: u64, wall_s: f64, served: u64, p99: f64) -> Rep {
        Rep {
            seed,
            wall_s,
            setup_s: 0.002,
            peak_rss_mb: 100.0,
            allocs: 10,
            alloc_bytes: 1000,
            contention: [2.0, 2.0, 2.0],
            outcome: Outcome {
                attempted: 1000,
                served,
                check: Ok(()),
                digest: seed ^ 0x55,
                sim: Some(SimMetrics {
                    cycles_per_op: 800.0,
                    latency_p50: 3000.0,
                    latency_p99: p99,
                    latency_p999: 2.0 * p99,
                    latency_n: 1000,
                    throughput_req_per_mcyc: 1250.0,
                    speedup_vs_tiny: 1.0,
                }),
            },
        }
    }

    #[test]
    fn host_metrics_are_medians_and_sim_metrics_means_over_first_occurrences() {
        let w = by_name("serve_flat").unwrap();
        // Seeds 1 and 2, then 1 again (bit-identical): the repeat adds a
        // host sample but not a sim sample.
        let reps =
            [rep(1, 0.5, 1000, 10_000.0), rep(2, 0.25, 900, 14_000.0), rep(1, 1.0, 1000, 10_000.0)];
        let r = aggregate(w, &reps, None);
        assert!(r.correct());
        assert_eq!((r.reps, r.attempted, r.failed), (3, 3000, 0));
        let Reading::Host(ops) = &r.readings["host_ops_per_s"] else { panic!("host") };
        assert_eq!((ops.n, ops.median), (3, 2000.0));
        assert_eq!(r.readings["sim_latency_p99_cycles"], Reading::Sim(12_000.0));
        assert_eq!(r.readings["served_frac"], Reading::Sim(0.95));
        assert_eq!(r.latency_n, 1000);
    }

    #[test]
    fn a_forced_validation_failure_shows_up_as_failed_operations() {
        let w = by_name("serve_flat").unwrap();
        let mut bad = rep(2, 0.25, 0, 0.0);
        bad.outcome.check = Err("serve: conservation broke".into());
        bad.outcome.sim = None;
        let r = aggregate(w, &[rep(1, 0.5, 1000, 10_000.0), bad], None);
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (2000, 1000));
        assert!(r.failures[0].contains("conservation broke"), "{:?}", r.failures);
        // The failed repetition contributes to no metric.
        assert_eq!(r.readings["served_frac"], Reading::Sim(1.0));
        let Reading::Host(ops) = &r.readings["host_ops_per_s"] else { panic!("host") };
        assert_eq!(ops.n, 1);
    }

    #[test]
    fn host_metrics_use_the_quiet_repetitions() {
        let w = by_name("serve_flat").unwrap();
        let mut reps: Vec<Rep> = (1..=6).map(|s| rep(s, 0.5, 1000, 10_000.0)).collect();
        // Two repetitions ran beside a busy neighbour: slower, and flagged
        // by the index before or after them.
        reps[1].wall_s = 0.7;
        reps[1].contention = [2.05, 3.4, 3.3];
        reps[4].wall_s = 0.72;
        reps[4].contention = [3.35, 2.1, 2.0];
        let r = aggregate(w, &reps, None);
        assert_eq!((r.reps, r.quiet_reps), (6, 4));
        let Reading::Host(ops) = &r.readings["host_ops_per_s"] else { panic!("host") };
        assert_eq!((ops.n, ops.min, ops.max), (4, 2000.0, 2000.0));
        // The simulated metrics still cover every seed.
        assert_eq!(r.readings["sim_latency_p99_cycles"], Reading::Sim(10_000.0));

        // A neighbour sat through the whole of another run: by its own
        // readings everything looks quiet, by the floor an earlier run
        // left nothing does, and the calmest three are used.
        for (i, rep) in reps.iter_mut().enumerate() {
            rep.contention = [3.4 + 0.01 * i as f64; 3];
        }
        assert_eq!(aggregate(w, &reps, None).quiet_reps, 6);
        let r = aggregate(w, &reps, Some(2.0));
        assert_eq!(r.quiet_reps, 0);
        let Reading::Host(ops) = &r.readings["host_ops_per_s"] else { panic!("host") };
        assert_eq!(ops.n, MIN_QUIET);
        assert_eq!(run_floor(&reps), Some(3.4));
    }

    #[test]
    fn a_repeat_that_differs_is_a_failure() {
        let w = by_name("serve_flat").unwrap();
        let r = aggregate(w, &[rep(1, 0.5, 1000, 10_000.0), rep(1, 0.5, 1000, 10_001.0)], None);
        assert_eq!(r.failed, 1000);
        assert!(r.failures[0].contains("different simulated results"));
    }

    #[test]
    fn readings_round_trip_through_json() {
        let w = by_name("serve_flat").unwrap();
        let r = aggregate(w, &[rep(1, 0.5, 1000, 10_000.0), rep(2, 0.3, 1000, 11_000.0)], None);
        let v = crate::jsonx::parse(&crate::jsonx::emit(&r.to_json())).unwrap();
        for m in &END_TO_END {
            let back = reading_from_json(v.get("metrics").unwrap().get(m.name).unwrap()).unwrap();
            assert_eq!(back, r.readings[m.name], "{}", m.name);
        }
    }
}
