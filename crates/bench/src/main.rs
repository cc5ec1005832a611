//! `repro` — regenerates every table and figure of the Shadow Block
//! paper's evaluation section on the scaled simulator, runs the
//! obliviousness audit, and drives the traced, profiled, served and
//! soaked scenarios built on the same engine. `repro --help` and
//! `repro <subcommand> --help` print the synopsis; `cli.rs` is the
//! grammar.
//!
//! Sweeps run their independent (workload, config) cells on a worker
//! pool. The thread count defaults to the machine's available
//! parallelism; override with `--threads <n>` or the
//! `SHADOW_ORAM_THREADS` environment variable (the flag wins). Results
//! are bit-identical for every thread count.
//!
//! Exit codes: 0 success, 1 a run or audit failed, 2 usage or
//! configuration error.

mod cli;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use cli::{Command, Parsed, USAGE_ERROR};
use oram_audit::{run_audit, AuditOptions};
use oram_bench::experiments as exp;
use oram_bench::{
    run_incident, run_profile, run_serve_live, run_soak, run_sweep, run_trace, write_artifacts,
    write_incident_bundle, BackendKind, ExpOptions, Heartbeat, LiveRun, PosmapKind, ServeOptions,
    SoakOptions, SoakReport, Sweep, Table, TraceOptions,
};
use oram_obsv::{parse_slo_spec, FlightConfig, IncidentMeta, LiveConfig, LivePlane, MetricsServer};
use oram_service::{SchedPolicy, ServiceReport};
use oram_sim::SystemConfig;
use oram_telemetry::json::{self, Value};
use oram_telemetry::{compare_reports, CompareOutcome, ProfileReport, Report, DEFAULT_TOLERANCE};

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
                "table1", "fig6a", "fig6b", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
                "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "ablation",
            ] {
                v.extend(run_one(n, opts).expect("known name"));
            }
            v
        }
        _ => return None,
    };
    Some(t)
}

/// Exit 0 when a run, audit or comparison passed, 1 when it failed.
fn exit_code(passed: bool) -> ExitCode {
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Validates a tree depth through the real system-config checks, so a
/// bad `--levels` is a one-line message before anything runs, not an
/// unwrap backtrace mid-sweep. Returns the probed configuration.
fn probe_levels(levels: u32) -> Option<SystemConfig> {
    let mut probe = SystemConfig::scaled_default();
    probe.oram.levels = levels;
    match probe.validate() {
        Ok(()) => Some(probe),
        Err(e) => {
            eprintln!("repro: invalid configuration: {e}");
            None
        }
    }
}

/// `repro <experiment>`: the tables on stdout, optional CSVs and the
/// traced companion run.
fn experiment_main(p: &Parsed) -> ExitCode {
    let name = p.positional(0);
    let mut opts = if p.has("--full") { ExpOptions::full() } else { ExpOptions::quick() };
    if let Some(n) = p.get("--threads") {
        opts = opts.with_threads(n);
    }
    // Heartbeats only where someone is watching: an interactive stderr
    // and no --quiet (--quiet wins even on a TTY).
    opts = opts.with_progress(!p.has("--quiet") && Heartbeat::stderr_is_tty());
    opts.levels = p.get("--levels").unwrap_or(opts.levels);
    if probe_levels(opts.levels).is_none() {
        return ExitCode::from(USAGE_ERROR);
    }

    let started = Instant::now();
    let Some(tables) = run_one(name, &opts) else {
        eprintln!("unknown experiment {name:?}\n{}", cli::EXPERIMENT.usage);
        return ExitCode::from(USAGE_ERROR);
    };
    let csv_dir = p.path("--csv");
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
    if let Some(dir) = p.path("--telemetry") {
        // Companion traced run at the experiment's scale, so the
        // artifacts describe the same configuration the tables do.
        let topts = TraceOptions {
            misses: opts.misses,
            warmup: opts.warmup,
            levels: opts.levels,
            seed: opts.seed,
            ..TraceOptions::full()
        };
        match run_trace(&topts, None) {
            Ok(artifacts) => {
                if let Err(e) = write_artifacts(&dir, &artifacts) {
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

/// The `repro audit` subcommand: runs the obliviousness audit and
/// reports per-check lines; on failure the report (including the
/// offending trace windows) also goes to `--trace-out` for CI to
/// archive.
fn audit_main(p: &Parsed) -> ExitCode {
    let mut opts = if p.has("--quick") { AuditOptions::quick() } else { AuditOptions::full() };
    if let Some(s) = p.get("--seed") {
        opts = opts.with_seed(s);
    }

    let started = Instant::now();
    let report = run_audit(&opts);
    print!("{}", report.render());
    if let Some(path) = p.path("--trace-out") {
        if let Err(e) = std::fs::write(&path, report.render()) {
            eprintln!("failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    eprintln!("[audit in {:.1}s]", started.elapsed().as_secs_f64());
    exit_code(report.passed())
}

/// The options `repro trace` and `repro profile` share: the preset, then
/// every flag that was given, the depth validated up front. `None` after
/// the one-line configuration error.
fn trace_options(p: &Parsed) -> Option<TraceOptions> {
    let mut opts = if p.has("--quick") { TraceOptions::quick() } else { TraceOptions::full() };
    opts.workload = p.text("--workload").map_or(opts.workload, str::to_string);
    opts.misses = p.get("--misses").unwrap_or(opts.misses);
    opts.levels = p.get("--levels").unwrap_or(opts.levels);
    opts.seed = p.get("--seed").unwrap_or(opts.seed);
    probe_levels(opts.levels).map(|_| opts)
}

/// The `repro trace` subcommand: a traced run of the standard policy
/// set, self-validated exports, artifacts on disk, report on stdout.
fn trace_main(p: &Parsed) -> ExitCode {
    let Some(mut opts) = trace_options(p) else {
        return ExitCode::from(USAGE_ERROR);
    };
    opts.window_cycles = p.get("--window").unwrap_or(opts.window_cycles);
    let out = p.path("--out").unwrap_or_else(|| PathBuf::from("telemetry_out"));
    let quiet = p.has("--quiet");

    let started = Instant::now();
    let hb = Heartbeat::new("trace", !quiet && Heartbeat::stderr_is_tty());
    match run_trace(&opts, Some(&hb)) {
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
fn profile_main(p: &Parsed) -> ExitCode {
    let Some(opts) = trace_options(p) else {
        return ExitCode::from(USAGE_ERROR);
    };
    let quiet = p.has("--quiet");

    let started = Instant::now();
    let hb = Heartbeat::new("profile", !quiet && Heartbeat::stderr_is_tty());
    match run_profile(&opts, Some(&hb)) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = p.path("--json") {
                if let Err(e) = std::fs::write(&path, report.to_json()) {
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

/// `ServeOptions` from the flags: the preset, then every flag that was
/// given.
fn serve_options(p: &Parsed) -> ServeOptions {
    let mut opts = if p.has("--quick") { ServeOptions::quick() } else { ServeOptions::full() };
    opts.clients = p.get("--clients").unwrap_or(opts.clients);
    opts.requests = p.get("--requests").unwrap_or(opts.requests);
    opts.load = p.get("--load").unwrap_or(opts.load);
    opts.scheduler = p.get_by("--scheduler", SchedPolicy::parse);
    opts.domain = p.get("--domain").unwrap_or(opts.domain);
    opts.levels = p.get("--levels").unwrap_or(opts.levels);
    opts.seed = p.get("--seed").unwrap_or(opts.seed);
    opts.shards = p.get("--shards").unwrap_or(opts.shards);
    opts.threads = p.get("--threads").unwrap_or(opts.threads);
    opts.backend = p.get_by("--backend", BackendKind::parse).unwrap_or(opts.backend);
    opts.rtt_us = p.get("--rtt-us").unwrap_or(opts.rtt_us);
    opts.wan_batch = p.get("--batch").unwrap_or(opts.wan_batch);
    opts.disk_dir = p.path("--disk-dir");
    opts.posmap = p.get_by("--posmap", PosmapKind::parse).unwrap_or(opts.posmap);
    opts.plb_entries = p.get("--plb-entries");
    opts.posmap_onchip_kb = p.get("--posmap-onchip-kb").unwrap_or(opts.posmap_onchip_kb);
    opts
}

/// The `repro serve` subcommand: the service front-end under every
/// scheduler policy (or a sweep), self-validated, report on stdout,
/// optional JSON to disk.
fn serve_main(p: &Parsed) -> ExitCode {
    let opts = serve_options(p);
    let posmap_budget_mb: u64 = p.get("--posmap-budget-mb").unwrap_or(64);
    let posmap_sweep = p.has("--posmap-sweep");
    let quiet = p.has("--quiet");
    let incident_dir = p.path("--incident-dir");
    // A custom SLO spec is validated before anything runs: a malformed
    // file is a one-line message and exit 2, never a mid-run surprise.
    let slos_override = match p.path("--slo-spec") {
        Some(path) => match std::fs::read_to_string(&path) {
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
    let Some(probe) = probe_levels(opts.levels) else {
        return ExitCode::from(USAGE_ERROR);
    };
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
    if !posmap_sweep && opts.domain < 2 {
        eprintln!(
            "repro serve: --domain {} is below the 2 blocks the zipfian request \
             generator needs",
            opts.domain
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

    let started = Instant::now();
    let hb = Heartbeat::new("serve", !quiet && Heartbeat::stderr_is_tty());
    // The live observability plane: built whenever the metrics endpoint
    // or the terminal view is requested. The `repro top` ticker is
    // TTY-gated and silenced by --quiet; the endpoint serves snapshots
    // from a side thread and never perturbs the run (stdout stays
    // byte-identical — a CLI test holds that line).
    let live = if p.any(&["--metrics-addr", "--top", "--slo-spec", "--incident-dir"]) {
        let mut cfg = LiveConfig::for_serve(
            opts.clients,
            opts.shards,
            opts.base_gap_cycles as u64,
            probe.oram.stash_capacity as u32,
        );
        if let Some(slos) = slos_override {
            cfg.slos = slos;
        }
        let draw_top = p.has("--top") && !quiet && Heartbeat::stderr_is_tty();
        let lr = LiveRun::new(LivePlane::shared(cfg), draw_top);
        if incident_dir.is_some() {
            lr.plane.lock().expect("plane lock").attach_flight(FlightConfig::default());
        }
        Some(lr)
    } else {
        None
    };
    let server = match (p.text("--metrics-addr"), &live) {
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
    let progress = Some(&hb);
    let ran = match Sweep::ALL.into_iter().find(|s| p.has(s.flag())) {
        Some(sweep) => {
            run_sweep(sweep, sweep.axes(), &opts, progress, live.as_ref()).map(|report| {
                print!("{}", report.text);
                if let Some(Err(e)) = p.path("--csv").map(|dir| report.figure.write_csv(&dir)) {
                    eprintln!("failed to write CSV: {e}");
                    return false;
                }
                if !quiet {
                    let name = sweep.flag()[2..].replace('-', " ");
                    eprintln!("[serve {name} in {:.1}s]", started.elapsed().as_secs_f64());
                }
                true
            })
        }
        None => run_serve_live(&opts, progress, live.as_ref()).map(|arts| {
            print!("{}", arts.report.render());
            print!("{}", arts.posmap_section);
            print!("{}", arts.client_section);
            let mut ok = true;
            if let Some(path) = p.path("--json") {
                if let Err(e) = std::fs::write(&path, arts.report.to_json()) {
                    eprintln!("failed to write {}: {e}", path.display());
                    ok = false;
                }
            }
            // Incident forensics: dump the frozen flight recorder's
            // bundle. A forced freeze always lands one; otherwise the
            // bundle appears only when a trigger alert fired mid-run.
            if let (Some(dir), Some(lr)) = (&incident_dir, &live) {
                let mut plane = lr.plane.lock().expect("plane lock");
                if p.has("--force-incident") {
                    plane.force_incident();
                }
                if plane.flight().is_some_and(|f| f.is_frozen()) {
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
                    let dumped =
                        plane.render_incident(&meta).and_then(|b| write_incident_bundle(dir, &b));
                    match dumped {
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
            ok
        }),
    };
    let ok = ran.unwrap_or_else(|e| {
        eprintln!("repro serve: validation failed: {e}");
        false
    });
    finish_metrics(server, p.get("--metrics-linger").unwrap_or(0), ok, quiet);
    exit_code(ok)
}

/// The `repro soak` subcommand: the long-horizon multi-tenant soak with
/// streaming validation, report on stdout, optional JSON to disk.
fn soak_main(p: &Parsed) -> ExitCode {
    let mut opts = if p.has("--quick") { SoakOptions::quick() } else { SoakOptions::full() };
    opts.tenants = p.get("--tenants").unwrap_or(opts.tenants);
    opts.requests_total = p.get("--requests-total").unwrap_or(opts.requests_total);
    opts.phases = p.get("--phases").unwrap_or(opts.phases);
    opts.levels = p.get("--levels").unwrap_or(opts.levels);
    opts.seed = p.get("--seed").unwrap_or(opts.seed);
    opts.backend = p.get_by("--backend", BackendKind::parse).unwrap_or(opts.backend);
    opts.switch_backend = p.get_by("--switch-backend", BackendKind::parse);
    opts.incident_dir = p.path("--incident-dir");
    let quiet = p.has("--quiet");
    if let Err(e) = opts.validate() {
        eprintln!("repro soak: {e}\n{}", cli::SOAK.usage);
        return ExitCode::from(USAGE_ERROR);
    }

    let started = Instant::now();
    let hb = Heartbeat::new("soak", !quiet && Heartbeat::stderr_is_tty());
    match run_soak(&opts, Some(&hb)) {
        Ok(report) => {
            print!("{}", report.render());
            if let Some(path) = p.path("--json") {
                if let Err(e) = std::fs::write(&path, report.to_json()) {
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
fn incident_main(p: &Parsed) -> ExitCode {
    match run_incident(Path::new(p.positional(0))) {
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

/// Reads both reports as `R` and compares them.
fn compare_as<R: Report>(
    docs: [(&str, &Value); 2],
    tolerance: f64,
) -> Result<CompareOutcome, String> {
    let [base, cand] =
        docs.map(|(path, doc)| R::from_json(doc).map_err(|e| format!("{path}: {e}")));
    compare_reports(&base?, &cand?, tolerance)
}

/// Reads two report files and compares them as the kind their
/// top-level key declares: `"soak"`, `"schedulers"` (service) or
/// `"policies"` (profile). Both files must be the same kind.
fn compare_files(paths: [&str; 2], tolerance: f64) -> Result<CompareOutcome, String> {
    let read = |path: &str| {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("failed to read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (base, cand) = (read(paths[0])?, read(paths[1])?);
    let kind = |path: &str, doc: &Value| {
        [
            ("soak", SoakReport::KIND),
            ("schedulers", ServiceReport::KIND),
            ("policies", ProfileReport::KIND),
        ]
        .into_iter()
        .find(|(key, _)| doc.get(key).is_some())
        .map(|(_, kind)| kind)
        .ok_or_else(|| format!("cannot compare {path}: not a profile, service or soak report"))
    };
    let (kb, kc) = (kind(paths[0], &base)?, kind(paths[1], &cand)?);
    if kb != kc {
        return Err(format!("cannot compare a {kb} report against a {kc} report"));
    }
    let docs = [(paths[0], &base), (paths[1], &cand)];
    match kb {
        SoakReport::KIND => compare_as::<SoakReport>(docs, tolerance),
        ServiceReport::KIND => compare_as::<ServiceReport>(docs, tolerance),
        _ => compare_as::<ProfileReport>(docs, tolerance),
    }
}

/// The `repro compare` subcommand: the regression guard over two
/// `repro profile --json`, `repro serve --json` or `repro soak --json`
/// files.
fn compare_main(p: &Parsed) -> ExitCode {
    let tolerance = p.get::<f64>("--tolerance").map_or(DEFAULT_TOLERANCE, |pct| pct / 100.0);
    match compare_files([p.positional(0), p.positional(1)], tolerance) {
        Ok(outcome) => {
            print!("{}", outcome.render());
            exit_code(outcome.passed())
        }
        Err(e) => {
            eprintln!("repro compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    type Main = fn(&Parsed) -> ExitCode;
    let (cmd, run, rest): (&'static Command, Main, &[String]) =
        match args.first().map(String::as_str) {
            Some("audit") => (&cli::AUDIT, audit_main, &args[1..]),
            Some("trace") => (&cli::TRACE, trace_main, &args[1..]),
            Some("profile") => (&cli::PROFILE, profile_main, &args[1..]),
            Some("serve") => (&cli::SERVE, serve_main, &args[1..]),
            Some("soak") => (&cli::SOAK, soak_main, &args[1..]),
            Some("incident") => (&cli::INCIDENT, incident_main, &args[1..]),
            Some("compare") => (&cli::COMPARE, compare_main, &args[1..]),
            _ => (&cli::EXPERIMENT, experiment_main, &args),
        };
    match cli::parse(cmd, rest) {
        Ok(p) => run(&p),
        Err(code) => code,
    }
}
