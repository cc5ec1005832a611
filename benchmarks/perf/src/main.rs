//! `perf`: the host-time + simulated-time ledger of the Shadow Block
//! reproduction. See README.md beside this package.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one contract run (BENCHMARK.json)
//! perf run [--seed 7] [--rounds 16] [--out F] [--smoke]  every workload, end to end
//! perf trace [--seed 7] [--workload W] [--trace-out F]   the per-layer traced run
//! perf compare BASE.json CAND.json                       the regression rule
//! perf manifest                                          prints BENCHMARK.json
//! ```

mod adapters;
mod child;
mod compare;
mod env;
mod jsonx;
mod layers;
mod ledger;
mod metrics;
mod passes;
mod probes;
mod span;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use child::Rep;
use jsonx::{count, emit, num, obj, text, Value};
use ledger::{aggregate, Reading, WorkloadResult};
use metrics::{END_TO_END, PER_LAYER};
use workloads::{sub_seed, Workload, SUB_SEEDS};

/// Size divisor of `--smoke`.
const SMOKE_DIV: u64 = 20;
/// Rounds of `perf run`: every derived seed runs twice, so every
/// simulated metric is checked for bit-identical repetition.
const DEFAULT_ROUNDS: usize = 2 * SUB_SEEDS;

fn usage() -> ! {
    eprintln!(
        "usage: perf --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         perf run [--seed N] [--rounds N] [--out FILE] [--smoke]\n       \
         perf trace [--seed N] [--workload NAME] [--trace-out FILE] [--smoke]\n       \
         perf compare BASE.json CAND.json\n       \
         perf manifest\n\
         workloads: {}",
        workloads::ALL.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
    );
    std::process::exit(2);
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Args {
        let mut out = Args { values: BTreeMap::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if flags.contains(&a.as_str()) {
                out.flags.push(a.clone());
            } else if let (Some(key), Some(value)) = (a.strip_prefix("--"), it.next()) {
                out.values.insert(key.to_string(), value.clone());
            } else {
                eprintln!("perf: cannot read argument {a:?}");
                usage();
            }
        }
        out
    }

    fn number<T: std::str::FromStr>(&self, key: &str, default: Option<T>) -> T {
        match (self.values.get(key), default) {
            (Some(v), _) => v.parse().unwrap_or_else(|_| {
                eprintln!("perf: --{key} {v:?} is not a valid number");
                usage()
            }),
            (None, Some(d)) => d,
            (None, None) => {
                eprintln!("perf: --{key} is required");
                usage()
            }
        }
    }

    fn workload(&self) -> Option<Workload> {
        self.values.get("workload").map(|name| {
            workloads::by_name(name).unwrap_or_else(|| {
                eprintln!("perf: unknown workload {name:?}");
                usage()
            })
        })
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

fn print_result(r: &WorkloadResult) {
    println!(
        "{} ({} repetitions, {} on a quiet machine, {} ops attempted, {} failed)",
        r.name, r.reps, r.quiet_reps, r.attempted, r.failed
    );
    for m in &END_TO_END {
        let kind = if m.host { "host" } else { "sim " };
        match &r.readings[m.name] {
            Reading::Host(s) => println!(
                "  {:<28} {kind} {:>16.6} {:<10} q1 {:.6} q3 {:.6} spread {:.2}% n {}",
                m.name,
                s.median,
                m.unit,
                s.q1,
                s.q3,
                100.0 * s.spread(),
                s.n
            ),
            Reading::Sim(v) => println!("  {:<28} {kind} {:>16.6} {:<10}", m.name, v, m.unit),
        }
    }
    if let Some((_, tail)) = stats::highest_reportable_tail(r.latency_n) {
        println!(
            "  latency percentiles over n >= {} samples per repetition (reportable up to {tail})",
            r.latency_n
        );
    }
    for why in &r.failures {
        println!("  FAILED {why}");
    }
}

fn print_layers(name: &str, layers: &BTreeMap<&'static str, f64>) {
    println!("{name} per-layer (traced run)");
    for (metric, unit, _) in PER_LAYER {
        println!("  {:<44} {:>18.6} {unit}", metric, layers[metric]);
    }
}

fn metrics_json<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Value {
    Value::Object(
        items
            .map(|(name, value, unit)| {
                (name.to_string(), obj([("value", num(value)), ("unit", text(unit))]))
            })
            .collect(),
    )
}

/// The contract's last stdout line.
fn contract_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    emit(&obj([
        ("correct", Value::Bool(correct)),
        ("attempted", count(attempted.max(1))),
        ("failed", count(failed)),
        ("metrics", metrics),
    ]))
}

/// Quiet repetitions a contract run wants behind its host metrics, and
/// how far past `--seconds` it may run to get them.
const WANT_QUIET: usize = 8;
const OVERTIME: f64 = 1.5;

/// Where the lowest quiet floor seen on this machine is kept between
/// runs: beside the executable, so inside the build directory.
fn floor_file() -> Option<std::path::PathBuf> {
    Some(std::env::current_exe().ok()?.parent()?.join("perf-quiet-floor"))
}

/// The quiet floor earlier runs left, if any.
fn known_floor() -> Option<f64> {
    let text = std::fs::read_to_string(floor_file()?).ok()?;
    text.trim().parse::<f64>().ok().filter(|f| f.is_finite() && *f > 0.0)
}

/// Lowers the kept floor to what this run's readings suggest. Failing to
/// write it costs a later run its memory of this one, nothing else.
fn remember_floor<'a>(reps: impl IntoIterator<Item = &'a Vec<Rep>>, known: Option<f64>) {
    let lowest = reps
        .into_iter()
        .filter_map(|r| ledger::run_floor(r))
        .chain(known)
        .fold(f64::INFINITY, f64::min);
    if let (Some(path), true) = (floor_file(), lowest.is_finite() && known != Some(lowest)) {
        let _ = std::fs::write(path, format!("{lowest}\n"));
    }
}

/// One contract run with `--trace 0`: repetitions of one workload in
/// child processes, one at a time, until `seconds` have passed and every
/// derived seed has run; then, while a neighbour has kept too many of
/// them from being quiet, for up to half as long again.
fn contract_end_to_end(w: Workload, seed: u64, seconds: f64) -> i32 {
    let began = Instant::now();
    let floor = known_floor();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let elapsed = began.elapsed().as_secs_f64();
        let covered = elapsed >= seconds && reps.len() >= SUB_SEEDS;
        let calm = ledger::quiet(&reps, floor).len();
        if covered && (calm >= WANT_QUIET || elapsed >= OVERTIME * seconds) {
            break;
        }
        let rep = child::run_in_child(w, sub_seed(seed, reps.len()), 1);
        eprintln!(
            "perf: {} repetition {:>2} at {:>5.1}s: wall {:.3}s, contention {:.2} {:.2} {:.2}",
            w.name,
            reps.len(),
            began.elapsed().as_secs_f64(),
            rep.wall_s,
            rep.contention[0],
            rep.contention[1],
            rep.contention[2]
        );
        reps.push(rep);
    }
    remember_floor([&reps], floor);
    let r = aggregate(w, &reps, floor);
    print_result(&r);
    let metrics =
        metrics_json(END_TO_END.iter().map(|m| (m.name, r.readings[m.name].value(), m.unit)));
    println!("{}", contract_line(r.correct(), r.attempted, r.failed, metrics));
    0
}

/// One contract run with `--trace 1`: the per-layer traced run.
fn contract_layers(w: Workload, seed: u64) -> i32 {
    let t = layers::trace_workload(w, sub_seed(seed, 0), 1);
    print_layers(w.name, &t.layers);
    for why in &t.failures {
        println!("  FAILED {why}");
    }
    let metrics =
        metrics_json(PER_LAYER.iter().map(|(name, unit, _)| (*name, t.layers[name], *unit)));
    let failed = if t.failures.is_empty() { 0 } else { t.ops };
    println!("{}", contract_line(t.failures.is_empty(), t.ops, failed, metrics));
    0
}

/// `perf run`: every workload, rounds interleaved round-robin.
fn run(args: &Args) -> i32 {
    let smoke = args.flag("--smoke");
    let seed: u64 = args.number("seed", Some(7));
    let rounds: usize = args.number("rounds", Some(if smoke { 1 } else { DEFAULT_ROUNDS }));
    let div = if smoke { SMOKE_DIV } else { 1 };
    if rounds == 0 {
        eprintln!("perf: --rounds must be at least 1");
        usage();
    }
    let began = Instant::now();
    let mut reps: Vec<Vec<Rep>> = vec![Vec::new(); workloads::ALL.len()];
    for round in 0..rounds {
        for (i, w) in workloads::ALL.iter().enumerate() {
            reps[i].push(child::run_in_child(*w, sub_seed(seed, round), div));
        }
        eprintln!(
            "perf run: round {}/{rounds} done at {:.1}s",
            round + 1,
            began.elapsed().as_secs_f64()
        );
    }
    let floor = known_floor();
    remember_floor(&reps, floor);
    let results: Vec<WorkloadResult> =
        workloads::ALL.iter().zip(&reps).map(|(w, r)| aggregate(*w, r, floor)).collect();
    for r in &results {
        print_result(r);
    }
    let mut ok = results.iter().all(WorkloadResult::correct);

    // The smoke also exercises the traced pass, so one quick command
    // covers the whole harness.
    let mut layer_json = BTreeMap::new();
    if smoke {
        if let Err(why) = layers::replay_time_grows(sub_seed(seed, 0)) {
            println!("  FAILED {why}");
            ok = false;
        }
        for w in workloads::ALL {
            let t = layers::trace_workload(w, sub_seed(seed, 0), div);
            print_layers(w.name, &t.layers);
            for why in &t.failures {
                println!("  FAILED {why}");
            }
            ok &= t.failures.is_empty();
            layer_json.insert(
                w.name.to_string(),
                Value::Object(t.layers.iter().map(|(k, v)| (k.to_string(), num(*v))).collect()),
            );
        }
    }

    let file = obj([
        ("schema", count(1)),
        ("env", env::capture()),
        ("seed", count(seed)),
        ("rounds", count(rounds as u64)),
        ("div", count(div)),
        (
            "sizes",
            Value::Object(
                workloads::ALL
                    .iter()
                    .map(|w| (w.name.to_string(), count(w.kind.ops(div))))
                    .collect(),
            ),
        ),
        (
            "workloads",
            Value::Object(results.iter().map(|r| (r.name.to_string(), r.to_json())).collect()),
        ),
        ("layers", Value::Object(layer_json)),
    ]);
    if let Some(path) = args.values.get("out") {
        let dir = std::path::Path::new(path).parent().filter(|d| !d.as_os_str().is_empty());
        let written = dir
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, emit(&file) + "\n"));
        if let Err(e) = written {
            eprintln!("perf run: cannot write {path}: {e}");
            return 2;
        }
    }
    if !smoke {
        if let Err(e) = append_history(&file, &results) {
            eprintln!("perf run: cannot append to the history: {e}");
            return 2;
        }
    }
    println!(
        "perf run: {} in {:.1}s",
        if ok { "every output check passed" } else { "FAILED output checks" },
        began.elapsed().as_secs_f64()
    );
    i32::from(!ok)
}

/// Appends one row per `perf run` to `results/history.jsonl`: the
/// environment and each workload's judged values.
fn append_history(file: &Value, results: &[WorkloadResult]) -> std::io::Result<()> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/results");
    std::fs::create_dir_all(dir)?;
    let row = obj([
        ("env", file.get("env").cloned().unwrap_or(Value::Null)),
        ("seed", file.get("seed").cloned().unwrap_or(Value::Null)),
        ("rounds", file.get("rounds").cloned().unwrap_or(Value::Null)),
        (
            "workloads",
            Value::Object(
                results
                    .iter()
                    .map(|r| {
                        let values = END_TO_END
                            .iter()
                            .map(|m| (m.name.to_string(), num(r.readings[m.name].value())));
                        (
                            r.name.to_string(),
                            Value::Object(
                                values.chain([("failed".to_string(), count(r.failed))]).collect(),
                            ),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(format!("{dir}/history.jsonl"))?;
    writeln!(f, "{}", emit(&row))
}

/// `perf trace`: the per-layer traced run of one or every workload.
fn trace(args: &Args) -> i32 {
    let seed: u64 = args.number("seed", Some(7));
    let div = if args.flag("--smoke") { SMOKE_DIV } else { 1 };
    let selected: Vec<Workload> = args.workload().map_or(workloads::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in &selected {
        let t = layers::trace_workload(*w, sub_seed(seed, 0), div);
        print_layers(w.name, &t.layers);
        println!("{}", t.reconciliation);
        for why in &t.failures {
            println!("  FAILED {why}");
        }
        ok &= t.failures.is_empty();
        if let Some(path) = args.values.get("trace-out") {
            // One file per workload keeps each a valid Chrome trace.
            let file =
                if selected.len() == 1 { path.clone() } else { format!("{path}.{}.json", w.name) };
            if let Err(e) = std::fs::write(&file, &t.chrome_json) {
                eprintln!("perf trace: cannot write {file}: {e}");
                return 2;
            }
        }
    }
    i32::from(!ok)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("child") => {
            let a = Args::parse(&args[1..], &[]);
            let w = a.workload().unwrap_or_else(|| usage());
            let rep = child::run_here(w.kind, a.number("seed", None), a.number("div", Some(1)));
            println!("{}", rep.to_json());
            0
        }
        Some("run") => run(&Args::parse(&args[1..], &["--smoke"])),
        Some("trace") => trace(&Args::parse(&args[1..], &["--smoke"])),
        Some("compare") if args.len() == 3 => compare::main(&args[1], &args[2]),
        Some("manifest") if args.len() == 1 => {
            print!("{}", metrics::manifest());
            0
        }
        Some(first) if first.starts_with("--") => {
            let a = Args::parse(&args, &[]);
            let w = a.workload().unwrap_or_else(|| usage());
            let seed: u64 = a.number("seed", None);
            let seconds: f64 = a.number("seconds", None);
            match a.number::<u8>("trace", None) {
                0 => contract_end_to_end(w, seed, seconds),
                1 => contract_layers(w, seed),
                _ => usage(),
            }
        }
        _ => usage(),
    };
    std::process::exit(code);
}
