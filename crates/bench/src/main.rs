//! `repro` — regenerates every table and figure of the Shadow Block
//! paper's evaluation section on the scaled simulator, and runs the
//! obliviousness audit.
//!
//! ```text
//! repro <experiment> [--full] [--csv <dir>] [--threads <n>] [--levels <L>]
//!                    [--telemetry <dir>] [--quiet]
//!   experiments: table1 fig6a fig6b fig8 fig9 fig10 fig11 fig12 fig13
//!                fig14 fig15 fig16 fig17 fig18 fig19 ablation all
//! repro audit [--quick] [--seed <n>] [--trace-out <path>]
//! repro trace [--quick] [--out <dir>] [--workload <w>] [--misses <n>]
//!             [--levels <L>] [--seed <n>] [--window <cycles>]
//! repro serve [--quick] [--clients <n>] [--load <r>] [--scheduler <s>]
//!             [--shards <M>] [--threads <n>] [--json <path>] [--sweep]
//!             [--shard-sweep] [--backend <dram|disk|wan>] [--rtt-us <N>]
//!             [--batch <B>] [--disk-dir <dir>] [--wan-sweep] [--csv <dir>]
//!             [--posmap <flat|recursive>] [--plb-entries <n>] [--domain <n>]
//!             [--posmap-onchip-kb <K>] [--posmap-budget-mb <M>] [--posmap-sweep]
//!             [--slo-spec <file>] [--incident-dir <dir>] [--force-incident]
//! repro soak [--quick] [--tenants <n>] [--requests-total <n>] [--phases <n>]
//!            [--backend <b>] [--switch-backend <b>] [--json <path>]
//!            [--incident-dir <dir>]
//! repro incident <dir>
//! ```
//!
//! Sweeps run their independent (workload, config) cells on a worker
//! pool. The thread count defaults to the machine's available
//! parallelism; override with `--threads <n>` or the
//! `SHADOW_ORAM_THREADS` environment variable (the flag wins). Results
//! are bit-identical for every thread count.
//!
//! Exit codes: 0 success, 1 a run or audit failed, 2 usage or
//! configuration error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use oram_audit::{run_audit, AuditOptions};
use oram_bench::experiments as exp;
use oram_bench::{
    compare_soak_reports, run_incident, run_posmap_sweep, run_profile, run_serve_live,
    run_serve_sweep_live, run_shard_sweep, run_soak, run_trace, run_trace_with_progress,
    run_wan_sweep, write_artifacts, write_incident_bundle, BackendKind, ExpOptions, Heartbeat,
    LiveRun, PosmapKind, ServeOptions, SoakOptions, SoakReport, Table, TraceOptions,
};
use oram_obsv::{parse_slo_spec, FlightConfig, IncidentMeta, LiveConfig, LivePlane, MetricsServer};
use oram_service::{compare_service_reports, SchedPolicy, ServiceReport};
use oram_sim::SystemConfig;
use oram_telemetry::{compare_reports, ProfileReport, DEFAULT_TOLERANCE};

/// Usage and configuration errors (the audit uses 1 for "checks failed").
const USAGE_ERROR: u8 = 2;

fn usage() -> &'static str {
    "usage: repro <experiment> [--full] [--csv <dir>] [--threads <n>] [--levels <L>]\n\
     \x20                        [--telemetry <dir>] [--quiet]\n\
     experiments: table1 fig6a fig6b fig8 fig9 fig10 fig11 fig12 fig13 \
     fig14 fig15 fig16 fig17 fig18 fig19 ablation all\n\
     \x20      repro audit [--quick] [--seed <n>] [--trace-out <path>]\n\
     \x20      repro trace [--quick] [--out <dir>] ... (repro trace --help)\n\
     \x20      repro profile [--quick] [--json <path>] ... (repro profile --help)\n\
     \x20      repro serve [--quick] [--clients <n>] [--load <r>] ... (repro serve --help)\n\
     \x20      repro soak [--quick] [--tenants <n>] ... (repro soak --help)\n\
     \x20      repro incident <dir>\n\
     \x20      repro compare <baseline.json> <candidate.json> [--tolerance <pct>]\n\
     --threads <n>    sweep worker threads (default: available cores,\n\
                      or the SHADOW_ORAM_THREADS environment variable)\n\
     --levels <L>     tree depth for the scaled system (default 14, 16 with --full)\n\
     --telemetry <dir> after the experiment, run the four-policy traced\n\
                      companion run at the same scale and write telemetry\n\
                      artifacts (spans, Chrome trace, time series) to <dir>\n\
     --quiet          suppress progress heartbeats"
}

fn trace_usage() -> &'static str {
    "usage: repro trace [--quick] [--out <dir>] [--workload <w>] [--misses <n>]\n\
     \x20                  [--levels <L>] [--seed <n>] [--window <cycles>] [--quiet]\n\
     Runs tiny/rd_dup/hd_dup/dynamic3 with the telemetry recorder attached,\n\
     validates every export, writes spans_<policy>.jsonl, trace_<policy>.json,\n\
     timeseries_<policy>.csv, metrics_<policy>.csv and report.txt to <dir>\n\
     (default telemetry_out), and prints the end-of-run report.\n\
     --quick            CI smoke scale (1000 misses, L=12) instead of the full run\n\
     --workload <w>     workload to trace (default mcf)\n\
     --window <cycles>  time-series window length in CPU cycles (default 50000)\n\
     --quiet            suppress progress heartbeats and timing lines"
}

fn profile_usage() -> &'static str {
    "usage: repro profile [--quick] [--json <path>] [--workload <w>] [--misses <n>]\n\
     \x20                    [--levels <L>] [--seed <n>] [--quiet]\n\
     Runs tiny/rd_dup/hd_dup/dynamic3 with cycle attribution enabled and prints\n\
     where every cycle went (DRAM queue wait, row ops, bus transfer, eviction\n\
     overhead, idle), backend utilization per channel, the per-level bucket\n\
     heatmap, and energy. Attribution is validated span by span: the components\n\
     must sum exactly to each access's latency.\n\
     --quick            CI smoke scale (1000 misses, L=12) instead of the full run\n\
     --json <path>      also write the machine-readable profile (the format\n\
                        `repro compare` consumes) to <path>\n\
     --quiet            suppress progress heartbeats and timing lines"
}

fn compare_usage() -> &'static str {
    "usage: repro compare <baseline.json> <candidate.json> [--tolerance <pct>]\n\
     Diffs two `repro profile --json`, two `repro serve --json`, or two\n\
     `repro soak --json` files per policy and per metric (the file kind is\n\
     detected from its schema; the two files must be the same kind). Gated\n\
     metrics (profile: total/data/DRI cycles, energy; serve: run length and\n\
     latency percentiles; soak: tenant tails, throughput, rejection fraction,\n\
     self-checks) that worsen by more than the tolerance fail the comparison\n\
     (exit 1); the rest are reported as informational deltas.\n\
     --tolerance <pct>  allowed worsening on gated metrics, percent (default 2)"
}

fn serve_usage() -> &'static str {
    "usage: repro serve [--quick] [--clients <n>] [--requests <n>] [--load <r>]\n\
     \x20                 [--scheduler <s>] [--levels <L>] [--seed <n>]\n\
     \x20                 [--shards <M>] [--threads <n>] [--json <path>]\n\
     \x20                 [--backend <dram|disk|wan>] [--rtt-us <N>] [--batch <B>]\n\
     \x20                 [--disk-dir <dir>] [--wan-sweep] [--csv <dir>]\n\
     \x20                 [--posmap <flat|recursive>] [--plb-entries <n>] [--domain <n>]\n\
     \x20                 [--posmap-onchip-kb <K>] [--posmap-budget-mb <M>] [--posmap-sweep]\n\
     \x20                 [--sweep] [--shard-sweep] [--quiet]\n\
     \x20                 [--metrics-addr <host:port>] [--metrics-linger <secs>] [--top]\n\
     \x20                 [--slo-spec <file>] [--incident-dir <dir>] [--force-incident]\n\
     Drives the multi-client service front-end (bounded queues, admission\n\
     control, MSHR coalescing, batch scheduling) into the ORAM engine and\n\
     reports p50/p99/p99.9 latency and throughput per scheduler policy. Every\n\
     run self-validates: service conservation laws, span attribution\n\
     (queue_wait = start - arrival), and the obliviousness audit of the\n\
     service-issued bus trace (per shard when sharded).\n\
     --quick            CI smoke scale (250 requests/client, L=12)\n\
     --clients <n>      client streams (default 4)\n\
     --requests <n>     requests per client (default 1000, 250 with --quick)\n\
     --load <r>         offered-rate multiplier over the base rate (default 1.0)\n\
     --scheduler <s>    run one policy (fcfs, round_robin, oldest_first)\n\
     --shards <M>       partition the address space across M concurrent ORAM\n\
                        shards with intra-shard pipelining, on any backend\n\
                        (default 1 = the reference engine, unpipelined)\n\
     --threads <n>      worker threads serving shards (default 1; results are\n\
                        bit-identical at any thread count)\n\
     --json <path>      write the machine-readable report (the format\n\
                        `repro compare` consumes) to <path>\n\
     --backend <b>      storage backend serving bucket I/O: dram (default, the\n\
                        cycle-accurate reference path), disk (persistent WAL'd\n\
                        bucket store), or wan (deterministic RTT/bandwidth\n\
                        model with request batching)\n\
     --rtt-us <N>       WAN round-trip time in microseconds (wan only,\n\
                        default 200)\n\
     --batch <B>        WAN requests amortized per round trip (wan only,\n\
                        default 4)\n\
     --disk-dir <dir>   disk backend directory (disk only; default: a fresh\n\
                        temporary directory, removed after the run)\n\
     --posmap <m>       position map backend: flat (default, O(N) on-chip\n\
                        array, byte-identical to the pre-recursion output) or\n\
                        recursive (posmap blocks stored in a chain of smaller\n\
                        ORAMs behind a PLB; every PLB miss issues real costed\n\
                        accesses, attributed to the posmap component)\n\
     --plb-entries <n>  override the PLB capacity in page entries\n\
     --domain <n>       address domain in blocks (default 1024, 256 with\n\
                        --quick); must fit the L-level tree\n\
     --posmap-onchip-kb <K>\n\
                        on-chip budget the recursive chain terminates under\n\
                        (default 64; recursive only)\n\
     --posmap-budget-mb <M>\n\
                        reject flat-posmap configurations whose map would\n\
                        exceed this host-memory budget (default 64)\n\
     --posmap-sweep     sweep tree depth x PLB capacity over an identical\n\
                        request stream, reporting recursion overhead vs the\n\
                        flat baseline and the PLB hit rate, up to a\n\
                        2^30-address tree (incompatible with the other\n\
                        sweeps, --json, --load, --shards, --posmap,\n\
                        --plb-entries, --levels and --domain)\n\
     --wan-sweep        sweep RTT x batch over an identical replayed miss\n\
                        stream and verify the amortization law: per-request\n\
                        cycles monotone non-increasing in the batch size\n\
                        (incompatible with the other sweeps, --json, --load,\n\
                        --shards, --rtt-us and --batch)\n\
     --csv <dir>        with --wan-sweep, --shard-sweep or --posmap-sweep,\n\
                        also write the figure/knee table as CSV\n\
     --sweep            sweep load factors instead and locate the saturation\n\
                        knee (incompatible with --json and --load)\n\
     --shard-sweep      sweep loads at each of 1/2/4 shards and compare the\n\
                        knees (incompatible with --json, --load and --shards)\n\
     --metrics-addr <a> serve live Prometheus metrics at http://<a>/metrics\n\
                        (plus /healthz and /slo) while the run executes; the\n\
                        run's stdout stays byte-identical (incompatible with\n\
                        --shard-sweep and --wan-sweep)\n\
     --metrics-linger <secs>\n\
                        keep the endpoint up this long after a successful run\n\
                        so a scraper can collect the final state\n\
     --top              live terminal view of throughput, tail latency, SLO\n\
                        burn and alerts (TTY only; silenced by --quiet)\n\
     --slo-spec <file>  load SLO objectives from a JSON spec instead of the\n\
                        built-in defaults (see DESIGN.md for the format); a\n\
                        malformed spec is a one-line error, exit 2\n\
     --incident-dir <d> attach the flight recorder and, if a trigger alert\n\
                        (SLO burn, stash pressure, Eq. 1 residual) freezes\n\
                        it, dump the incident bundle into <d> after the run\n\
                        (validate offline with `repro incident <d>`)\n\
     --force-incident   freeze the recorder at end of run regardless of\n\
                        alerts, so the bundle always lands (requires\n\
                        --incident-dir; the bundle bytes are identical at\n\
                        any --threads count)\n\
     --quiet            suppress progress heartbeats, timing lines and --top"
}

fn soak_usage() -> &'static str {
    "usage: repro soak [--quick] [--tenants <n>] [--requests-total <n>] [--phases <n>]\n\
     \x20                [--levels <L>] [--seed <n>] [--backend <dram|disk|wan>]\n\
     \x20                [--switch-backend <b>] [--incident-dir <dir>] [--json <path>]\n\
     \x20                [--quiet]\n\
     Long-horizon multi-tenant soak: chains phases over one persistent ORAM\n\
     engine, rotating the Zipf hot set and ramping the offered load along a\n\
     symmetric diurnal profile each phase (optionally switching the storage\n\
     backend at the midpoint). Validation is streaming: per-phase conservation\n\
     laws, live-plane window conservation, Eq. 1 residual bounds, and\n\
     deterministic latency/stash drift estimators that must stay flat. The\n\
     report (per-tenant tails, SLO burn table, trends) prints on stdout; the\n\
     JSON lands behind the `repro compare` gate.\n\
     --quick               CI smoke scale (4000 requests, L=12) instead of 1M\n\
     --tenants <n>         tenant streams (default 4)\n\
     --requests-total <n>  total requests across tenants and phases\n\
     --phases <n>          scheduled phases (default 4)\n\
     --levels <L>          tree depth (default 14, 12 with --quick)\n\
     --seed <n>            master seed (each phase derives its own)\n\
     --backend <b>         starting storage backend (default dram)\n\
     --switch-backend <b>  switch to this backend at the midpoint phase\n\
     --incident-dir <dir>  if a trigger alert freezes the flight recorder\n\
                           during the soak, dump the incident bundle here\n\
     --json <path>         write the machine-readable report (the format\n\
                           `repro compare` consumes) to <path>\n\
     --quiet               suppress progress heartbeats and timing lines"
}

fn incident_usage() -> &'static str {
    "usage: repro incident <dir>\n\
     Offline validation of an incident bundle dumped by `repro serve\n\
     --incident-dir` or `repro soak --incident-dir`: checks the schema of all\n\
     seven files, parses the captured spans back and re-renders both exports\n\
     (demanding byte identity with the files on disk), and cross-checks the\n\
     ring counts meta.json recorded at freeze time. Exit 0 with a summary when\n\
     the bundle is internally consistent, 1 with a one-line reason otherwise."
}

fn audit_usage() -> &'static str {
    "usage: repro audit [--quick] [--seed <n>] [--trace-out <path>]\n\
     --quick            the fast CI-gate sweep instead of the full one\n\
     --seed <n>         master seed for configs and workloads\n\
     --trace-out <path> write the full report (with failing trace windows) here"
}

fn run_one(name: &str, opts: &ExpOptions) -> Option<Vec<Table>> {
    let t = match name {
        "table1" => vec![exp::table1(opts)],
        "fig6a" => vec![exp::fig6a(opts)],
        "fig6b" => vec![exp::fig6b(opts)],
        "fig8" => vec![exp::fig8_13(opts, false)],
        "fig9" => vec![exp::fig9_14(opts, false)],
        "fig10" => vec![exp::fig10(opts, false)],
        "fig11" => vec![exp::fig11_15(opts, false)],
        "fig12" => vec![exp::fig12(opts)],
        "fig13" => vec![exp::fig8_13(opts, true)],
        "fig14" => vec![exp::fig9_14(opts, true)],
        "fig15" => vec![exp::fig11_15(opts, true)],
        "fig16" => vec![exp::fig16(opts)],
        "fig17" => vec![exp::fig17(opts)],
        "fig18" => vec![exp::fig18(opts)],
        "fig19" => vec![exp::fig19(opts)],
        "ablation" => vec![exp::ablation(opts)],
        "all" => {
            let mut v = Vec::new();
            for n in [
                "table1", "fig6a", "fig6b", "fig8", "fig9", "fig10", "fig11", "fig12",
                "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation",
            ] {
                v.extend(run_one(n, opts).expect("known name"));
            }
            v
        }
        _ => return None,
    };
    Some(t)
}

/// The `repro audit` subcommand: runs the obliviousness audit and
/// reports per-check lines; on failure the report (including the
/// offending trace windows) also goes to `--trace-out` for CI to
/// archive.
fn audit_main(args: &[String]) -> ExitCode {
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => seed = Some(n),
                None => {
                    eprintln!("--seed needs an unsigned integer\n{}", audit_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--trace-out needs a path\n{}", audit_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", audit_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{}", audit_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }

    let mut opts = if quick { AuditOptions::quick() } else { AuditOptions::full() };
    if let Some(s) = seed {
        opts = opts.with_seed(s);
    }

    let started = Instant::now();
    let report = run_audit(&opts);
    print!("{}", report.render());
    if let Some(path) = &trace_out {
        if let Err(e) = std::fs::write(path, report.render()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[audit in {:.1}s]", started.elapsed().as_secs_f64());
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `repro trace` subcommand: a traced run of the standard policy
/// set, self-validated exports, artifacts on disk, report on stdout.
fn trace_main(args: &[String]) -> ExitCode {
    let mut opts = TraceOptions::full();
    let mut out = PathBuf::from("telemetry_out");
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts = TraceOptions::quick(),
            "--quiet" => quiet = true,
            "--out" => match it.next() {
                Some(d) => out = PathBuf::from(d),
                None => {
                    eprintln!("--out needs a directory\n{}", trace_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--workload" => match it.next() {
                Some(w) => opts.workload = w.clone(),
                None => {
                    eprintln!("--workload needs a name\n{}", trace_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--misses" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.misses = n,
                _ => {
                    eprintln!("--misses needs a positive integer\n{}", trace_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--levels" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => opts.levels = n,
                None => {
                    eprintln!("--levels needs an unsigned integer\n{}", trace_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => opts.seed = n,
                None => {
                    eprintln!("--seed needs an unsigned integer\n{}", trace_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--window" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.window_cycles = n,
                _ => {
                    eprintln!("--window needs a positive cycle count\n{}", trace_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", trace_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{}", trace_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    {
        // Validate the depth up front, as the experiment path does.
        let mut probe = SystemConfig::scaled_default();
        probe.oram.levels = opts.levels;
        if let Err(e) = probe.validate() {
            eprintln!("repro: invalid configuration: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
    }

    let started = Instant::now();
    // Heartbeats only where someone is watching: an interactive stderr
    // and no --quiet (--quiet wins even on a TTY).
    let hb = Heartbeat::new("trace", !quiet && Heartbeat::stderr_is_tty());
    match run_trace_with_progress(&opts, Some(&hb)) {
        Ok(artifacts) => {
            if let Err(e) = write_artifacts(&out, &artifacts) {
                eprintln!("failed to write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            print!("{}", artifacts.report.render());
            if !quiet {
                eprintln!(
                    "[trace of {} ({} policies) to {} in {:.1}s]",
                    opts.workload,
                    artifacts.per_policy.len(),
                    out.display(),
                    started.elapsed().as_secs_f64()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro trace: validation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `repro profile` subcommand: cycle attribution, backend
/// utilization and the level heatmap on stdout, optional JSON to disk.
fn profile_main(args: &[String]) -> ExitCode {
    let mut opts = TraceOptions::full();
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => opts = TraceOptions::quick(),
            "--quiet" => quiet = true,
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path\n{}", profile_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--workload" => match it.next() {
                Some(w) => opts.workload = w.clone(),
                None => {
                    eprintln!("--workload needs a name\n{}", profile_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--misses" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.misses = n,
                _ => {
                    eprintln!("--misses needs a positive integer\n{}", profile_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--levels" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => opts.levels = n,
                None => {
                    eprintln!("--levels needs an unsigned integer\n{}", profile_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => opts.seed = n,
                None => {
                    eprintln!("--seed needs an unsigned integer\n{}", profile_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", profile_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{}", profile_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    {
        let mut probe = SystemConfig::scaled_default();
        probe.oram.levels = opts.levels;
        if let Err(e) = probe.validate() {
            eprintln!("repro: invalid configuration: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
    }

    let started = Instant::now();
    let hb = Heartbeat::new("profile", !quiet && Heartbeat::stderr_is_tty());
    match run_profile(&opts, Some(&hb)) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = &json_out {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if !quiet {
                eprintln!(
                    "[profile of {} ({} policies) in {:.1}s]",
                    opts.workload,
                    report.policies.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro profile: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `repro serve` subcommand: the service front-end under every
/// scheduler policy (or a load sweep), self-validated, report on
/// stdout, optional JSON to disk.
fn serve_main(args: &[String]) -> ExitCode {
    let mut opts = ServeOptions::full();
    let mut json_out: Option<PathBuf> = None;
    let mut csv_dir: Option<PathBuf> = None;
    let mut sweep = false;
    let mut shard_sweep = false;
    let mut wan_sweep = false;
    let mut posmap_sweep = false;
    let mut load_set = false;
    let mut shards_set = false;
    let mut backend_set = false;
    let mut rtt_set = false;
    let mut batch_set = false;
    let mut posmap_set = false;
    let mut plb_set = false;
    let mut onchip_set = false;
    let mut levels_set = false;
    let mut domain_set = false;
    let mut posmap_budget_mb: u64 = 64;
    let mut quiet = false;
    let mut metrics_addr: Option<String> = None;
    let mut metrics_linger: u64 = 0;
    let mut linger_set = false;
    let mut top = false;
    let mut slo_spec: Option<PathBuf> = None;
    let mut incident_dir: Option<PathBuf> = None;
    let mut force_incident = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => top = true,
            "--force-incident" => force_incident = true,
            "--slo-spec" => match it.next() {
                Some(p) => slo_spec = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--slo-spec needs a file\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--incident-dir" => match it.next() {
                Some(d) => incident_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--incident-dir needs a directory\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--metrics-addr" => match it.next() {
                Some(addr) => metrics_addr = Some(addr.clone()),
                None => {
                    eprintln!("--metrics-addr needs HOST:PORT\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--metrics-linger" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => {
                    metrics_linger = n;
                    linger_set = true;
                }
                None => {
                    eprintln!("--metrics-linger needs seconds\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--quick" => {
                opts = ServeOptions {
                    scheduler: opts.scheduler,
                    shards: opts.shards,
                    threads: opts.threads,
                    backend: opts.backend,
                    rtt_us: opts.rtt_us,
                    wan_batch: opts.wan_batch,
                    disk_dir: opts.disk_dir.take(),
                    posmap: opts.posmap,
                    plb_entries: opts.plb_entries,
                    posmap_onchip_kb: opts.posmap_onchip_kb,
                    ..ServeOptions::quick()
                }
            }
            "--quiet" => quiet = true,
            "--sweep" => sweep = true,
            "--shard-sweep" => shard_sweep = true,
            "--wan-sweep" => wan_sweep = true,
            "--posmap-sweep" => posmap_sweep = true,
            "--posmap" => match it.next().map(|s| PosmapKind::parse(s)) {
                Some(Ok(p)) => {
                    opts.posmap = p;
                    posmap_set = true;
                }
                Some(Err(e)) => {
                    eprintln!("{e}\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
                None => {
                    eprintln!("--posmap needs a mode (flat or recursive)\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--plb-entries" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    opts.plb_entries = Some(n);
                    plb_set = true;
                }
                _ => {
                    eprintln!("--plb-entries needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--posmap-onchip-kb" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n >= 1 => {
                    opts.posmap_onchip_kb = n;
                    onchip_set = true;
                }
                _ => {
                    eprintln!("--posmap-onchip-kb needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--posmap-budget-mb" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => posmap_budget_mb = n,
                _ => {
                    eprintln!("--posmap-budget-mb needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--domain" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => {
                    opts.domain = n;
                    domain_set = true;
                }
                _ => {
                    eprintln!("--domain needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--backend" => match it.next().map(|s| BackendKind::parse(s)) {
                Some(Ok(b)) => {
                    opts.backend = b;
                    backend_set = true;
                }
                Some(Err(e)) => {
                    eprintln!("{e}\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
                None => {
                    eprintln!("--backend needs a name (dram, disk or wan)\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--rtt-us" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && r > 0.0 => {
                    opts.rtt_us = r;
                    rtt_set = true;
                }
                _ => {
                    eprintln!("--rtt-us needs a positive number\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--batch" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    opts.wan_batch = n;
                    batch_set = true;
                }
                _ => {
                    eprintln!("--batch needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--disk-dir" => match it.next() {
                Some(d) => opts.disk_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--disk-dir needs a directory\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--csv" => match it.next() {
                Some(d) => csv_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--csv needs a directory\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--shards" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => {
                    opts.shards = n;
                    shards_set = true;
                }
                _ => {
                    eprintln!("--shards needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.threads = n,
                _ => {
                    eprintln!("--threads needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--clients" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.clients = n,
                _ => {
                    eprintln!("--clients needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--requests" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.requests = n,
                _ => {
                    eprintln!("--requests needs a positive integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--load" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(r) if r.is_finite() && r > 0.0 => {
                    opts.load = r;
                    load_set = true;
                }
                _ => {
                    eprintln!("--load needs a positive number\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--scheduler" => match it.next().map(|s| SchedPolicy::parse(s)) {
                Some(Ok(p)) => opts.scheduler = Some(p),
                Some(Err(e)) => {
                    eprintln!("{e}\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
                None => {
                    eprintln!("--scheduler needs a policy name\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--levels" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => {
                    opts.levels = n;
                    levels_set = true;
                }
                None => {
                    eprintln!("--levels needs an unsigned integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => opts.seed = n,
                None => {
                    eprintln!("--seed needs an unsigned integer\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path\n{}", serve_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", serve_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{}", serve_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    if sweep && (json_out.is_some() || load_set) {
        eprintln!("--sweep is incompatible with --json and --load\n{}", serve_usage());
        return ExitCode::from(USAGE_ERROR);
    }
    if shard_sweep && (sweep || json_out.is_some() || load_set || shards_set) {
        eprintln!(
            "--shard-sweep is incompatible with --sweep, --json, --load and --shards\n{}",
            serve_usage()
        );
        return ExitCode::from(USAGE_ERROR);
    }
    if wan_sweep {
        if sweep || shard_sweep || json_out.is_some() || load_set || shards_set || rtt_set
            || batch_set
        {
            eprintln!(
                "--wan-sweep is incompatible with --sweep, --shard-sweep, --json, --load, \
                 --shards, --rtt-us and --batch (the sweep sets its own RTT x batch grid)\n{}",
                serve_usage()
            );
            return ExitCode::from(USAGE_ERROR);
        }
        if backend_set && opts.backend != BackendKind::Wan {
            eprintln!("--wan-sweep requires --backend wan\n{}", serve_usage());
            return ExitCode::from(USAGE_ERROR);
        }
        opts.backend = BackendKind::Wan;
    }
    if posmap_sweep {
        if sweep || shard_sweep || wan_sweep || json_out.is_some() || load_set || shards_set
            || posmap_set || plb_set || levels_set || domain_set
        {
            eprintln!(
                "--posmap-sweep is incompatible with --sweep, --shard-sweep, --wan-sweep, \
                 --json, --load, --shards, --posmap, --plb-entries, --levels and --domain \
                 (the sweep sets its own depth x PLB grid)\n{}",
                serve_usage()
            );
            return ExitCode::from(USAGE_ERROR);
        }
        if opts.backend != BackendKind::Dram {
            eprintln!("--posmap-sweep runs on the DRAM reference backend\n{}", serve_usage());
            return ExitCode::from(USAGE_ERROR);
        }
    }
    if opts.posmap != PosmapKind::Recursive && !posmap_sweep && (plb_set || onchip_set) {
        eprintln!(
            "--plb-entries and --posmap-onchip-kb apply only to --posmap recursive\n{}",
            serve_usage()
        );
        return ExitCode::from(USAGE_ERROR);
    }
    if opts.backend != BackendKind::Wan && (rtt_set || batch_set) {
        eprintln!("--rtt-us and --batch apply only to --backend wan\n{}", serve_usage());
        return ExitCode::from(USAGE_ERROR);
    }
    if opts.backend != BackendKind::Disk && opts.disk_dir.is_some() {
        eprintln!("--disk-dir applies only to --backend disk\n{}", serve_usage());
        return ExitCode::from(USAGE_ERROR);
    }
    if csv_dir.is_some() && !wan_sweep && !shard_sweep && !posmap_sweep {
        eprintln!(
            "--csv applies only to --wan-sweep, --shard-sweep and --posmap-sweep\n{}",
            serve_usage()
        );
        return ExitCode::from(USAGE_ERROR);
    }
    if (metrics_addr.is_some() || top) && (shard_sweep || wan_sweep || posmap_sweep) {
        eprintln!(
            "--metrics-addr and --top are incompatible with --shard-sweep, --wan-sweep and \
             --posmap-sweep (those sweeps re-run many configurations; attach the live plane \
             to a plain run or --sweep)\n{}",
            serve_usage()
        );
        return ExitCode::from(USAGE_ERROR);
    }
    if linger_set && metrics_addr.is_none() {
        eprintln!("--metrics-linger applies only with --metrics-addr\n{}", serve_usage());
        return ExitCode::from(USAGE_ERROR);
    }
    if force_incident && incident_dir.is_none() {
        eprintln!("--force-incident requires --incident-dir\n{}", serve_usage());
        return ExitCode::from(USAGE_ERROR);
    }
    if (incident_dir.is_some() || slo_spec.is_some())
        && (sweep || shard_sweep || wan_sweep || posmap_sweep)
    {
        eprintln!(
            "--slo-spec and --incident-dir are incompatible with the sweeps (the flight \
             recorder and SLO overrides attach to a single plain run)\n{}",
            serve_usage()
        );
        return ExitCode::from(USAGE_ERROR);
    }
    // A custom SLO spec is validated before anything runs: a malformed
    // file is a one-line message and exit 2, never a mid-run surprise.
    let slos_override = match &slo_spec {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => match parse_slo_spec(&text) {
                Ok(slos) => Some(slos),
                Err(e) => {
                    eprintln!("repro serve: {}: {e}", path.display());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            Err(e) => {
                eprintln!("repro serve: failed to read {}: {e}", path.display());
                return ExitCode::from(USAGE_ERROR);
            }
        },
        None => None,
    };
    let stash_bound = {
        let mut probe = SystemConfig::scaled_default();
        probe.oram.levels = opts.levels;
        if let Err(e) = probe.validate() {
            eprintln!("repro: invalid configuration: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
        // The flat position map is sized by the tree's block slots, at
        // ~24 modeled bytes per entry (leaf label, version, residency).
        // Depths whose map would blow the host-memory budget are a
        // usage error, not an OOM kill ten minutes in.
        let slots = probe.oram.z as u64 * ((1u64 << (opts.levels + 1)) - 1);
        if !posmap_sweep && opts.domain > slots {
            eprintln!(
                "repro serve: --domain {} exceeds the L={} tree's {slots} block slots; \
                 raise --levels",
                opts.domain, opts.levels
            );
            return ExitCode::from(USAGE_ERROR);
        }
        let flat_mib = slots.saturating_mul(24) >> 20;
        if opts.posmap == PosmapKind::Flat && !posmap_sweep && flat_mib > posmap_budget_mb {
            eprintln!(
                "repro serve: a flat position map at L={} needs ~{flat_mib} MiB \
                 (over the {posmap_budget_mb} MiB budget); use --posmap recursive, \
                 or raise --posmap-budget-mb",
                opts.levels
            );
            return ExitCode::from(USAGE_ERROR);
        }
        probe.oram.stash_capacity as u32
    };

    let started = Instant::now();
    let hb = Heartbeat::new("serve", !quiet && Heartbeat::stderr_is_tty());
    // The live observability plane: built whenever the metrics endpoint
    // or the terminal view is requested. The `repro top` ticker is
    // TTY-gated and silenced by --quiet; the endpoint serves snapshots
    // from a side thread and never perturbs the run (stdout stays
    // byte-identical — a CLI test holds that line).
    let live = if metrics_addr.is_some() || top || slos_override.is_some() || incident_dir.is_some()
    {
        let mut cfg = LiveConfig::for_serve(
            opts.clients,
            opts.shards,
            opts.base_gap_cycles as u64,
            stash_bound,
        );
        if let Some(slos) = slos_override {
            cfg.slos = slos;
        }
        let draw_top = top && !quiet && Heartbeat::stderr_is_tty();
        let lr = LiveRun::new(LivePlane::shared(cfg), draw_top);
        if incident_dir.is_some() {
            lr.plane.lock().expect("plane lock").attach_flight(FlightConfig::default());
        }
        Some(lr)
    } else {
        None
    };
    let server = match (&metrics_addr, &live) {
        (Some(addr), Some(lr)) => match MetricsServer::start(addr, lr.plane.clone()) {
            Ok(s) => {
                eprintln!("[metrics endpoint on http://{}/metrics]", s.local_addr());
                Some(s)
            }
            Err(e) => {
                eprintln!("repro serve: failed to bind metrics endpoint {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => None,
    };
    if wan_sweep {
        return match run_wan_sweep(&opts, Some(&hb)) {
            Ok(report) => {
                print!("{}", report.render());
                if let Some(dir) = &csv_dir {
                    if let Err(e) = report.table().write_csv(dir) {
                        eprintln!("failed to write CSV: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if !quiet {
                    eprintln!("[serve wan sweep in {:.1}s]", started.elapsed().as_secs_f64());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("repro serve: validation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if posmap_sweep {
        return match run_posmap_sweep(&opts, Some(&hb)) {
            Ok(report) => {
                print!("{}", report.render());
                if let Some(dir) = &csv_dir {
                    if let Err(e) = report.table().write_csv(dir) {
                        eprintln!("failed to write CSV: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if !quiet {
                    eprintln!("[serve posmap sweep in {:.1}s]", started.elapsed().as_secs_f64());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("repro serve: validation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if shard_sweep {
        return match run_shard_sweep(&opts, Some(&hb)) {
            Ok(report) => {
                print!("{}", report.render());
                if let Some(dir) = &csv_dir {
                    if let Err(e) = report.knee_table().write_csv(dir) {
                        eprintln!("failed to write CSV: {e}");
                        return ExitCode::FAILURE;
                    }
                }
                if !quiet {
                    eprintln!("[serve shard sweep in {:.1}s]", started.elapsed().as_secs_f64());
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("repro serve: validation failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if sweep {
        let (ok, code) = match run_serve_sweep_live(&opts, Some(&hb), live.as_ref()) {
            Ok(report) => {
                print!("{}", report.render());
                if !quiet {
                    eprintln!("[serve sweep in {:.1}s]", started.elapsed().as_secs_f64());
                }
                (true, ExitCode::SUCCESS)
            }
            Err(e) => {
                eprintln!("repro serve: validation failed: {e}");
                (false, ExitCode::FAILURE)
            }
        };
        finish_metrics(server, metrics_linger, ok, quiet);
        return code;
    }
    let (ok, code) = match run_serve_live(&opts, Some(&hb), live.as_ref()) {
        Ok(arts) => {
            print!("{}", arts.report.render());
            print!("{}", arts.posmap_section);
            print!("{}", arts.client_section);
            let mut ok = true;
            if let Some(path) = &json_out {
                if let Err(e) = std::fs::write(path, arts.report.to_json()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    ok = false;
                }
            }
            // Incident forensics: dump the frozen flight recorder's
            // bundle. A forced freeze always lands one; otherwise the
            // bundle appears only when a trigger alert fired mid-run.
            if let (Some(dir), Some(lr)) = (&incident_dir, &live) {
                let mut p = lr.plane.lock().expect("plane lock");
                if force_incident {
                    p.force_incident();
                }
                if p.flight().is_some_and(|f| f.is_frozen()) {
                    let meta = IncidentMeta {
                        seed: opts.seed,
                        levels: opts.levels,
                        clients: opts.clients,
                        shards: opts.shards,
                        requests: opts.requests,
                        load: opts.load,
                        scheduler: opts
                            .scheduler
                            .map_or_else(|| "all".to_string(), |s| s.name().to_string()),
                        backend: opts.backend.name().to_string(),
                    };
                    match p.render_incident(&meta).and_then(|b| write_incident_bundle(dir, &b)) {
                        Ok(()) => {
                            if !quiet {
                                eprintln!("[incident bundle in {}]", dir.display());
                            }
                        }
                        Err(e) => {
                            eprintln!("repro serve: incident bundle: {e}");
                            ok = false;
                        }
                    }
                } else if !quiet {
                    eprintln!("[no incident: no trigger alert fired]");
                }
            }
            if ok && !quiet {
                eprintln!(
                    "[serve ({} policies) in {:.1}s]",
                    arts.report.schedulers.len(),
                    started.elapsed().as_secs_f64()
                );
            }
            (ok, if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
        }
        Err(e) => {
            eprintln!("repro serve: validation failed: {e}");
            (false, ExitCode::FAILURE)
        }
    };
    finish_metrics(server, metrics_linger, ok, quiet);
    code
}

/// The `repro soak` subcommand: the long-horizon multi-tenant soak with
/// streaming validation, report on stdout, optional JSON to disk.
fn soak_main(args: &[String]) -> ExitCode {
    let mut opts = SoakOptions::full();
    let mut json_out: Option<PathBuf> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                opts = SoakOptions {
                    backend: opts.backend,
                    switch_backend: opts.switch_backend,
                    incident_dir: opts.incident_dir.take(),
                    ..SoakOptions::quick()
                }
            }
            "--quiet" => quiet = true,
            "--tenants" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.tenants = n,
                _ => {
                    eprintln!("--tenants needs a positive integer\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--requests-total" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n >= 1 => opts.requests_total = n,
                _ => {
                    eprintln!("--requests-total needs a positive integer\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--phases" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => opts.phases = n,
                _ => {
                    eprintln!("--phases needs a positive integer\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--levels" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => opts.levels = n,
                None => {
                    eprintln!("--levels needs an unsigned integer\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--seed" => match it.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => opts.seed = n,
                None => {
                    eprintln!("--seed needs an unsigned integer\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--backend" => match it.next().map(|s| BackendKind::parse(s)) {
                Some(Ok(b)) => opts.backend = b,
                Some(Err(e)) => {
                    eprintln!("{e}\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
                None => {
                    eprintln!("--backend needs a name (dram, disk or wan)\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--switch-backend" => match it.next().map(|s| BackendKind::parse(s)) {
                Some(Ok(b)) => opts.switch_backend = Some(b),
                Some(Err(e)) => {
                    eprintln!("{e}\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
                None => {
                    eprintln!(
                        "--switch-backend needs a name (dram, disk or wan)\n{}",
                        soak_usage()
                    );
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--incident-dir" => match it.next() {
                Some(d) => opts.incident_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--incident-dir needs a directory\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--json" => match it.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("--json needs a path\n{}", soak_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", soak_usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unexpected argument {other:?}\n{}", soak_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    if let Err(e) = opts.validate() {
        eprintln!("repro soak: {e}\n{}", soak_usage());
        return ExitCode::from(USAGE_ERROR);
    }

    let started = Instant::now();
    let hb = Heartbeat::new("soak", !quiet && Heartbeat::stderr_is_tty());
    match run_soak(&opts, Some(&hb)) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = &json_out {
                if let Err(e) = std::fs::write(path, report.to_json()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
            if !quiet {
                eprintln!(
                    "[soak of {} requests ({} phases) in {:.1}s]",
                    report.requests_total,
                    report.phases_n,
                    started.elapsed().as_secs_f64()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro soak: validation failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The `repro incident` subcommand: offline re-validation of a dumped
/// incident bundle.
fn incident_main(args: &[String]) -> ExitCode {
    let mut dir: Option<PathBuf> = None;
    for a in args {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{}", incident_usage());
                return ExitCode::SUCCESS;
            }
            other if dir.is_none() && !other.starts_with('-') => dir = Some(PathBuf::from(other)),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", incident_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("{}", incident_usage());
        return ExitCode::from(USAGE_ERROR);
    };
    match run_incident(&dir) {
        Ok(summary) => {
            print!("{}", summary.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro incident: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Holds the metrics endpoint open for `linger_secs` after a successful
/// serve (so a scraper can collect the final state), then shuts it down
/// and joins its thread. No-op without an endpoint.
fn finish_metrics(server: Option<MetricsServer>, linger_secs: u64, ok: bool, quiet: bool) {
    if let Some(server) = server {
        if ok && linger_secs > 0 {
            if !quiet {
                eprintln!(
                    "[metrics endpoint lingering {linger_secs}s at http://{}/metrics]",
                    server.local_addr()
                );
            }
            std::thread::sleep(std::time::Duration::from_secs(linger_secs));
        }
        server.shutdown();
    }
}

/// The `repro compare` subcommand: the regression guard over two
/// `repro profile --json` files.
fn compare_main(args: &[String]) -> ExitCode {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance" => match it.next().and_then(|n| n.parse::<f64>().ok()) {
                Some(p) if p >= 0.0 => tolerance = p / 100.0,
                _ => {
                    eprintln!("--tolerance needs a non-negative percentage\n{}", compare_usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", compare_usage());
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", compare_usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    if paths.len() != 2 {
        eprintln!("expected exactly two profile files\n{}", compare_usage());
        return ExitCode::from(USAGE_ERROR);
    }

    let read = |path: &PathBuf| -> Result<String, String> {
        std::fs::read_to_string(path)
            .map_err(|e| format!("failed to read {}: {e}", path.display()))
    };
    let (base_text, cand_text) = match (read(&paths[0]), read(&paths[1])) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("repro compare: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Detect the report kind from its schema: a soak report leads with
    // a "soak" key, a serve report carries a "schedulers" array, a
    // profile carries per-policy attribution. Both files must be the
    // same kind.
    let is_soak = |t: &str| t.contains("\"soak\"");
    if is_soak(&base_text) || is_soak(&cand_text) {
        if !(is_soak(&base_text) && is_soak(&cand_text)) {
            eprintln!("repro compare: cannot compare a soak report against another kind");
            return ExitCode::FAILURE;
        }
        let parse = |text: &str, path: &PathBuf| {
            SoakReport::parse(text).map_err(|e| format!("{}: {e}", path.display()))
        };
        return match (parse(&base_text, &paths[0]), parse(&cand_text, &paths[1])) {
            (Ok(b), Ok(c)) => match compare_soak_reports(&b, &c, tolerance) {
                Ok(outcome) => {
                    print!("{}", outcome.render());
                    if outcome.passed() {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("repro compare: {e}");
                    ExitCode::FAILURE
                }
            },
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("repro compare: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let is_service = |t: &str| t.contains("\"schedulers\"");
    let compared = if is_service(&base_text) || is_service(&cand_text) {
        if !(is_service(&base_text) && is_service(&cand_text)) {
            eprintln!("repro compare: cannot compare a service report against a profile");
            return ExitCode::FAILURE;
        }
        let parse = |text: &str, path: &PathBuf| {
            ServiceReport::parse(text).map_err(|e| format!("{}: {e}", path.display()))
        };
        match (parse(&base_text, &paths[0]), parse(&cand_text, &paths[1])) {
            (Ok(b), Ok(c)) => compare_service_reports(&b, &c, tolerance),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("repro compare: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let parse = |text: &str, path: &PathBuf| {
            ProfileReport::parse(text).map_err(|e| format!("{}: {e}", path.display()))
        };
        match (parse(&base_text, &paths[0]), parse(&cand_text, &paths[1])) {
            (Ok(b), Ok(c)) => compare_reports(&b, &c, tolerance),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("repro compare: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    match compared {
        Ok(outcome) => {
            print!("{}", outcome.render());
            if outcome.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repro compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("audit") {
        return audit_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace") {
        return trace_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("profile") {
        return profile_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("soak") {
        return soak_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("incident") {
        return incident_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("compare") {
        return compare_main(&args[1..]);
    }

    let mut name = None;
    let mut opts = ExpOptions::quick();
    let mut threads: Option<usize> = None;
    let mut levels: Option<u32> = None;
    let mut csv_dir: Option<PathBuf> = None;
    let mut telemetry_dir: Option<PathBuf> = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => opts = ExpOptions::full(),
            "--quiet" => quiet = true,
            "--csv" => match it.next() {
                Some(d) => csv_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--csv needs a directory\n{}", usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--telemetry" => match it.next() {
                Some(d) => telemetry_dir = Some(PathBuf::from(d)),
                None => {
                    eprintln!("--telemetry needs a directory\n{}", usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--threads" => match it.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer\n{}", usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "--levels" => match it.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => levels = Some(n),
                None => {
                    eprintln!("--levels needs an unsigned integer\n{}", usage());
                    return ExitCode::from(USAGE_ERROR);
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other if name.is_none() && !other.starts_with('-') => name = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}\n{}", usage());
                return ExitCode::from(USAGE_ERROR);
            }
        }
    }
    let Some(name) = name else {
        eprintln!("{}", usage());
        return ExitCode::from(USAGE_ERROR);
    };
    if let Some(n) = threads {
        opts = opts.with_threads(n);
    }
    // Heartbeats only where someone is watching: an interactive stderr
    // and no --quiet.
    opts = opts.with_progress(!quiet && Heartbeat::stderr_is_tty());
    if let Some(l) = levels {
        // Validate through the real system-config checks so a bad depth is
        // a one-line message, not an unwrap backtrace mid-sweep.
        let mut probe = SystemConfig::scaled_default();
        probe.oram.levels = l;
        if let Err(e) = probe.validate() {
            eprintln!("repro: invalid configuration: {e}");
            return ExitCode::from(USAGE_ERROR);
        }
        opts.levels = l;
    }

    let started = Instant::now();
    match run_one(&name, &opts) {
        Some(tables) => {
            for t in &tables {
                println!("{}", t.render());
                if let Some(dir) = &csv_dir {
                    if let Err(e) = t.write_csv(dir) {
                        eprintln!("failed to write CSV: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            eprintln!("[{} in {:.1}s]", name, started.elapsed().as_secs_f64());
            if let Some(dir) = &telemetry_dir {
                // Companion traced run at the experiment's scale, so the
                // artifacts describe the same configuration the tables do.
                let topts = TraceOptions {
                    misses: opts.misses,
                    warmup: opts.warmup,
                    levels: opts.levels,
                    seed: opts.seed,
                    ..TraceOptions::full()
                };
                match run_trace(&topts) {
                    Ok(artifacts) => {
                        if let Err(e) = write_artifacts(dir, &artifacts) {
                            eprintln!("failed to write {}: {e}", dir.display());
                            return ExitCode::FAILURE;
                        }
                        print!("{}", artifacts.report.render());
                        eprintln!("[telemetry artifacts in {}]", dir.display());
                    }
                    Err(e) => {
                        eprintln!("repro: telemetry validation failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown experiment {name:?}\n{}", usage());
            ExitCode::from(USAGE_ERROR)
        }
    }
}
