//! One repetition of one workload, measured in a process of its own: a
//! fresh allocator and page cache state every time, a peak-RSS figure
//! that belongs to this repetition alone, and no way for one workload's
//! leftovers to speed up or slow down the next.
//!
//! The parent starts `perf child --workload W --seed S --div D` and reads
//! one JSON line back.

use std::hint::black_box;
use std::process::{Command, Stdio};
use std::sync::OnceLock;
use std::time::Instant;

use oram_bench::CountingAlloc;

use crate::jsonx::{count, emit, num, obj, parse, text, Value};
use crate::workloads::{self, Kind, Outcome, SimMetrics, Workload};

/// Counts every allocation of the process. Two relaxed atomic adds per
/// allocation, on in the untraced run too so both runs execute the same
/// binary.
#[global_allocator]
pub static ALLOC: CountingAlloc = CountingAlloc::new();

/// What one repetition measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    /// The derived seed the repetition's inputs were generated from.
    pub seed: u64,
    /// Wall-clock seconds of the entry-point call: set-up, run and the
    /// validation it does itself — what the CLI user waits for.
    pub wall_s: f64,
    /// Median seconds to build the workload's system through public
    /// constructors (see [`workloads::setup`]).
    pub setup_s: f64,
    /// Peak resident set (`VmHWM`) right after the entry-point call.
    pub peak_rss_mb: f64,
    /// Allocator calls and bytes requested during the entry-point call.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// [`contention_index`] before the entry-point call, between it and
    /// the set-ups, and after them.
    pub contention: [f64; 3],
    pub outcome: Outcome,
}

/// Set-ups timed per repetition: until this many seconds are spent, at
/// least 3 and at most 15 times. The median is the repetition's
/// `setup_s`.
const SETUP_BUDGET_S: f64 = 0.06;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_setup_s(kind: Kind, seed: u64, div: u64) -> f64 {
    let mut times = Vec::new();
    let began = Instant::now();
    while times.len() < 3 || (times.len() < 15 && began.elapsed().as_secs_f64() < SETUP_BUDGET_S) {
        let t = Instant::now();
        let built = black_box(workloads::setup(kind, seed, div));
        times.push(t.elapsed().as_secs_f64());
        drop(built);
    }
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// How contended the core is right now, as the time of a kernel that a
/// busy hyperthread sibling slows (eight independent multiply-add chains
/// over an L1-resident table: throughput-bound) over the time of one it
/// does not (a single dependent chain: latency-bound). Clock frequency
/// cancels in the ratio. On the 2-vCPU cloud hosts this was written on,
/// a neighbour on the sibling thread comes and goes every few seconds
/// and slows the workloads by 1.4x while it is there; the index reads
/// about 2.0 without it and 1.5-1.9x that with it. About 12 ms.
pub fn contention_index() -> f64 {
    static TABLE: OnceLock<Vec<u32>> = OnceLock::new();
    let table = TABLE.get_or_init(|| (0..8192u32).map(|i| i.wrapping_mul(2_654_435_761)).collect());
    let t = Instant::now();
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    let mut odd = 0u64;
    for i in 0..1_000_000u64 {
        for (k, x) in lanes.iter_mut().enumerate() {
            let v = u64::from(table[((*x >> 7) as usize + k * 13) & 8191]);
            *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(v ^ i);
            if v & 3 == 0 {
                odd += *x & 1;
            }
        }
    }
    black_box((lanes, odd));
    let wide = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut acc = 1u64;
    for i in 0..2_000_000u64 {
        acc = acc.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(17) ^ i;
        acc ^= acc >> 29;
    }
    black_box(acc);
    wide / t.elapsed().as_secs_f64()
}

/// Runs one repetition in this process. The entry point goes first, in
/// the state a CLI user's process would be in; set-up is timed after it.
pub fn run_here(kind: Kind, seed: u64, div: u64) -> Rep {
    let before = contention_index();
    let (allocs0, bytes0) = (ALLOC.allocations(), ALLOC.bytes());
    let (outcome, wall_s, peak) = workloads::run_once(kind, seed, div, true, || {
        (ALLOC.allocations(), ALLOC.bytes(), peak_rss_mb())
    });
    let (allocs1, bytes1, peak_rss_mb) = peak;
    let between = contention_index();
    let setup_s = median_setup_s(kind, seed, div);
    let after = contention_index();
    Rep {
        seed,
        wall_s,
        setup_s,
        peak_rss_mb,
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        contention: [before, between, after],
        outcome,
    }
}

fn sim_to_json(s: &SimMetrics) -> Value {
    obj([
        ("cycles_per_op", num(s.cycles_per_op)),
        ("latency_p50", num(s.latency_p50)),
        ("latency_p99", num(s.latency_p99)),
        ("latency_p999", num(s.latency_p999)),
        ("latency_n", count(s.latency_n)),
        ("throughput_req_per_mcyc", num(s.throughput_req_per_mcyc)),
        ("speedup_vs_tiny", num(s.speedup_vs_tiny)),
    ])
}

fn sim_from_json(v: &Value) -> Option<SimMetrics> {
    let f = |k: &str| v.get(k).and_then(Value::as_f64);
    Some(SimMetrics {
        cycles_per_op: f("cycles_per_op")?,
        latency_p50: f("latency_p50")?,
        latency_p99: f("latency_p99")?,
        latency_p999: f("latency_p999")?,
        latency_n: v.get("latency_n")?.as_u64()?,
        throughput_req_per_mcyc: f("throughput_req_per_mcyc")?,
        speedup_vs_tiny: f("speedup_vs_tiny")?,
    })
}

impl Rep {
    /// One line of JSON; `f64` prints with every digit it needs, so
    /// [`Rep::from_json`] gets the same bits back.
    pub fn to_json(&self) -> String {
        let o = &self.outcome;
        emit(&obj([
            ("seed", count(self.seed)),
            ("wall_s", num(self.wall_s)),
            ("setup_s", num(self.setup_s)),
            ("peak_rss_mb", num(self.peak_rss_mb)),
            ("allocs", count(self.allocs)),
            ("alloc_bytes", count(self.alloc_bytes)),
            ("contention", Value::Array(self.contention.iter().map(|c| num(*c)).collect())),
            ("attempted", count(o.attempted)),
            ("served", count(o.served)),
            ("check", text(o.check.as_ref().err().map_or("ok", String::as_str))),
            ("digest", text(format!("{:016x}", o.digest))),
            ("sim", o.sim.as_ref().map_or(Value::Null, sim_to_json)),
        ]))
    }

    pub fn from_json(line: &str) -> Result<Rep, String> {
        let v = parse(line)?;
        let f = |k: &str| v.get(k).and_then(Value::as_f64).ok_or(format!("child line lacks {k}"));
        let u = |k: &str| v.get(k).and_then(Value::as_u64).ok_or(format!("child line lacks {k}"));
        let s = |k: &str| v.get(k).and_then(Value::as_str).ok_or(format!("child line lacks {k}"));
        let check = match s("check")? {
            "ok" => Ok(()),
            why => Err(why.to_string()),
        };
        Ok(Rep {
            seed: u("seed")?,
            wall_s: f("wall_s")?,
            setup_s: f("setup_s")?,
            peak_rss_mb: f("peak_rss_mb")?,
            allocs: u("allocs")?,
            alloc_bytes: u("alloc_bytes")?,
            contention: match v.get("contention").and_then(Value::as_array) {
                Some([a, b, c]) => [a, b, c].map(|x| x.as_f64().unwrap_or(f64::NAN)),
                _ => return Err("child line lacks contention".into()),
            },
            outcome: Outcome {
                attempted: u("attempted")?,
                served: u("served")?,
                check,
                digest: u64::from_str_radix(s("digest")?, 16)
                    .map_err(|e| format!("digest: {e}"))?,
                sim: v.get("sim").and_then(sim_from_json),
            },
        })
    }

    /// A repetition whose process died or printed nothing usable: every
    /// operation it was to attempt counts as failed.
    fn lost(kind: Kind, seed: u64, div: u64, why: String) -> Rep {
        Rep {
            seed,
            wall_s: f64::NAN,
            setup_s: f64::NAN,
            peak_rss_mb: f64::NAN,
            allocs: 0,
            alloc_bytes: 0,
            contention: [f64::NAN; 3],
            outcome: Outcome {
                attempted: kind.ops(div),
                served: 0,
                check: Err(why),
                digest: 0,
                sim: None,
            },
        }
    }
}

/// Runs one repetition in a child process of this binary and waits for
/// it to end.
pub fn run_in_child(w: Workload, seed: u64, div: u64) -> Rep {
    let spawned = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(["child", "--workload", w.name])
            .args(["--seed", &seed.to_string(), "--div", &div.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
    });
    let out = match spawned {
        Ok(out) => out,
        Err(e) => return Rep::lost(w.kind, seed, div, format!("cannot start child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    match Rep::from_json(line) {
        Ok(rep) if out.status.success() => rep,
        Ok(_) | Err(_) => {
            Rep::lost(w.kind, seed, div, format!("child ended with {} and {line:?}", out.status))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_round_trips_through_its_json_line() {
        let rep = Rep {
            seed: 0xABCD_EF01_2345,
            wall_s: 0.412_345_678_901_234_5,
            setup_s: 1.5e-3,
            peak_rss_mb: 101.371_093_75,
            allocs: 12_345,
            alloc_bytes: 9_876_543_210,
            contention: [1.671_234_567_89, 1.7, 2.912_345],
            outcome: Outcome {
                attempted: 24_000,
                served: 23_999,
                check: Ok(()),
                digest: 0xFEDC_BA98_7654_3210,
                sim: Some(SimMetrics {
                    cycles_per_op: 788.984_291_666_666_7,
                    latency_p50: 2891.0,
                    latency_p99: 12839.0,
                    latency_p999: 15991.0,
                    latency_n: 24_000,
                    throughput_req_per_mcyc: 1_267.457_412_3,
                    speedup_vs_tiny: 1.0,
                }),
            },
        };
        assert_eq!(Rep::from_json(&rep.to_json()).unwrap(), rep);

        let mut bad = rep.clone();
        bad.outcome.check = Err("serve: conservation broke".into());
        bad.outcome.sim = None;
        assert_eq!(Rep::from_json(&bad.to_json()).unwrap(), bad);
        assert!(Rep::from_json("{}").is_err());
        assert!(Rep::from_json("not json").is_err());
    }

    #[test]
    fn peak_rss_and_contention_read_this_machine() {
        assert!(peak_rss_mb() > 1.0);
        let c = contention_index();
        assert!(c.is_finite() && c > 0.0, "{c}");
    }
}
