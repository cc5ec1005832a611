//! `perf compare <base.json> <cand.json>`: the regression rule of the
//! benchmark applied to two `perf run` result files of the same seed.

use crate::jsonx::{parse, Value};
use crate::ledger::{reading_from_json, Reading};
use crate::metrics::{EndToEnd, END_TO_END, SETUP_ABS_FLOOR_S};
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// The base's own run-to-run spread is wider than the bound and the
    /// two sets of runs overlap: the files cannot tell.
    Unresolved,
    Regressed,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// How much worse `cand` is than `base`, as a share of `base` (negative
/// when better).
fn worse_by(m: &EndToEnd, base: f64, cand: f64) -> f64 {
    let delta = if m.higher_is_better { base - cand } else { cand - base };
    if base == 0.0 {
        if delta > 0.0 {
            f64::INFINITY
        } else {
            0.0
        }
    } else {
        delta / base.abs()
    }
}

/// The verdict for one (metric, workload) pair.
pub fn verdict(m: &EndToEnd, base: &Reading, cand: &Reading) -> Verdict {
    let (b, c) = (base.value(), cand.value());
    if !b.is_finite() {
        return Verdict::Ok; // nothing to hold the candidate to
    }
    if !c.is_finite() {
        return Verdict::Regressed; // the base had a value and the candidate lost it
    }
    let over =
        worse_by(m, b, c) > m.compare_bound && !(m.name == "setup_s" && c - b <= SETUP_ABS_FLOOR_S);
    if !over {
        return Verdict::Ok;
    }
    if let (Reading::Host(bs), Reading::Host(cs)) = (base, cand) {
        // With a base spread wider than the bound, only candidate runs
        // that all read worse than every base run settle it.
        let all_worse = if m.higher_is_better { cs.max < bs.min } else { cs.min > bs.max };
        if bs.spread() > m.compare_bound && !all_worse {
            return Verdict::Unresolved;
        }
    }
    Verdict::Regressed
}

fn field<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| v.get(k))
}

/// Why two files cannot be compared, if they cannot: host numbers from
/// different machines, seeds, round counts or sizes are different
/// experiments.
pub fn incomparable(base: &Value, cand: &Value) -> Option<String> {
    for path in [&["env", "nproc"][..], &["seed"], &["rounds"], &["div"], &["sizes"]] {
        let (b, c) = (field(base, path), field(cand, path));
        if b.is_none() || b != c {
            return Some(format!(
                "{} differs: {} vs {}",
                path.join("."),
                b.map_or("absent".into(), crate::jsonx::emit),
                c.map_or("absent".into(), crate::jsonx::emit)
            ));
        }
    }
    None
}

fn show(r: &Reading) -> String {
    match r {
        Reading::Host(s) => format!("{:.6} [{:.6}, {:.6}] n={}", s.median, s.q1, s.q3, s.n),
        Reading::Sim(v) => format!("{v:.6}"),
    }
}

/// Compares two parsed result files. Returns the report and whether the
/// candidate passed (no `regressed` row, no more failed operations).
pub fn compare(base: &Value, cand: &Value) -> Result<(String, bool), String> {
    if let Some(why) = incomparable(base, cand) {
        return Err(format!("refusing to compare: {why}"));
    }
    let mut out = String::new();
    let mut passed = true;
    out.push_str(&format!(
        "{:<16} {:<28} {:<40} {:<40} {:<26} verdict\n",
        "workload", "metric", "base (median [q1, q3] n)", "candidate", "candidate / base"
    ));
    for w in workloads::ALL {
        let (Some(bw), Some(cw)) =
            (field(base, &["workloads", w.name]), field(cand, &["workloads", w.name]))
        else {
            return Err(format!("refusing to compare: workload {} is missing from a file", w.name));
        };
        let failed = |v: &Value| v.get("failed").and_then(Value::as_u64).unwrap_or(u64::MAX);
        if failed(cw) > failed(bw) {
            passed = false;
            out.push_str(&format!(
                "{:<16} failed operations rose from {} to {}: regressed\n",
                w.name,
                failed(bw),
                failed(cw)
            ));
        }
        for m in &END_TO_END {
            let read = |v: &Value| field(v, &["metrics", m.name]).and_then(reading_from_json);
            let (Some(b), Some(c)) = (read(bw), read(cw)) else {
                return Err(format!("refusing to compare: {} lacks {}", w.name, m.name));
            };
            let v = verdict(m, &b, &c);
            passed &= v != Verdict::Regressed;
            let ratio = format!("{:.4} of {:.6} {}", c.value() / b.value(), b.value(), m.unit);
            out.push_str(&format!(
                "{:<16} {:<28} {:<40} {:<40} {:<26} {}\n",
                w.name,
                m.name,
                show(&b),
                show(&c),
                ratio,
                v.name()
            ));
        }
    }
    Ok((out, passed))
}

/// Reads and compares two result files; the process exit code.
pub fn main(base_path: &str, cand_path: &str) -> i32 {
    let load = |p: &str| -> Result<Value, String> {
        let textual = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        parse(&textual).map_err(|e| format!("{p}: {e}"))
    };
    match load(base_path).and_then(|b| load(cand_path).and_then(|c| compare(&b, &c))) {
        Ok((report, passed)) => {
            print!("{report}");
            println!("{}", if passed { "PASS: no regression" } else { "FAIL: regression" });
            i32::from(!passed)
        }
        Err(e) => {
            eprintln!("perf compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::end_to_end;
    use crate::stats::Summary;

    fn host(values: &[f64]) -> Reading {
        Reading::Host(Summary::of(values))
    }

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let ops = end_to_end("host_ops_per_s").unwrap(); // higher is better, 10 %
        let tight = host(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(verdict(ops, &tight, &host(&[95.0, 96.0, 94.0, 95.5, 94.5])), Verdict::Ok);
        assert_eq!(
            verdict(ops, &tight, &host(&[85.0, 86.0, 84.0, 85.5, 84.5])),
            Verdict::Regressed
        );
        assert_eq!(verdict(ops, &tight, &host(&[150.0, 151.0, 149.0, 150.0, 150.0])), Verdict::Ok);

        // Base spread (40 %) wider than the bound, runs overlap: cannot tell.
        let loose = host(&[100.0, 140.0, 80.0, 120.0, 90.0]);
        assert_eq!(
            verdict(ops, &loose, &host(&[85.0, 86.0, 84.0, 85.5, 84.5])),
            Verdict::Unresolved
        );
        // ... unless every candidate run is on one side of every base run.
        assert_eq!(
            verdict(ops, &loose, &host(&[50.0, 51.0, 49.0, 50.0, 50.0])),
            Verdict::Regressed
        );
        assert_eq!(verdict(ops, &loose, &host(&[150.0, 151.0, 149.0, 150.0, 150.0])), Verdict::Ok);
        // Overlapping but within the bound is not a finding.
        assert_eq!(verdict(ops, &loose, &host(&[95.0, 135.0, 78.0, 118.0, 88.0])), Verdict::Ok);

        // Lower is better, with the absolute floor on set-up time.
        let setup = end_to_end("setup_s").unwrap();
        let base = host(&[0.0020, 0.0021, 0.0019]);
        assert_eq!(verdict(setup, &base, &host(&[0.0030, 0.0031, 0.0029])), Verdict::Ok);
        assert_eq!(verdict(setup, &base, &host(&[0.0300, 0.0310, 0.0290])), Verdict::Regressed);

        // Simulated metrics: 0.1 % between runs of one seed.
        let cyc = end_to_end("sim_cycles_per_op").unwrap();
        assert_eq!(verdict(cyc, &Reading::Sim(800.0), &Reading::Sim(800.0)), Verdict::Ok);
        assert_eq!(verdict(cyc, &Reading::Sim(800.0), &Reading::Sim(800.5)), Verdict::Ok);
        assert_eq!(verdict(cyc, &Reading::Sim(800.0), &Reading::Sim(801.0)), Verdict::Regressed);
        assert_eq!(verdict(cyc, &Reading::Sim(800.0), &Reading::Sim(700.0)), Verdict::Ok);
        // An exact count: any loss is a regression.
        let served = end_to_end("served_frac").unwrap();
        assert_eq!(verdict(served, &Reading::Sim(1.0), &Reading::Sim(0.9999)), Verdict::Regressed);
        assert_eq!(
            verdict(served, &Reading::Sim(1.0), &Reading::Sim(f64::NAN)),
            Verdict::Regressed
        );
    }

    #[test]
    fn files_from_different_experiments_are_refused() {
        let file = |nproc: u64, seed: u64| {
            parse(&format!(
                "{{\"env\":{{\"nproc\":{nproc}}},\"seed\":{seed},\"rounds\":16,\"div\":1,\"sizes\":{{\"serve_flat\":24000}}}}"
            ))
            .unwrap()
        };
        assert!(incomparable(&file(2, 7), &file(2, 7)).is_none());
        assert!(incomparable(&file(2, 7), &file(4, 7)).unwrap().contains("env.nproc"));
        assert!(incomparable(&file(2, 7), &file(2, 8)).unwrap().contains("seed"));
        assert!(compare(&file(2, 7), &file(2, 8)).is_err());
    }
}
