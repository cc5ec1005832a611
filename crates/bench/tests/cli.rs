//! CLI contract tests: usage errors exit with code 2 and a usage string,
//! never a panic. The audit itself runs in release mode in CI; here we
//! only exercise argument handling.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro")).args(args).output().expect("spawn repro")
}

/// Every vector exits 2, its stderr opening with exactly `first_line`
/// (the messages are part of the contract, not just the exit code) and
/// carrying the subcommand's `usage`.
fn assert_usage_errors(usage: &str, vectors: &[(&[&str], &str)]) {
    for (args, first_line) in vectors {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(err.lines().next(), Some(*first_line), "args {args:?}");
        assert!(err.contains(usage), "args {args:?}");
    }
}

#[test]
fn unknown_experiment_exits_2_with_usage() {
    let out = repro(&["figNaN"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment"), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}

#[test]
fn missing_experiment_exits_2() {
    assert_eq!(repro(&[]).status.code(), Some(2));
}

#[test]
fn malformed_flags_exit_2() {
    assert_usage_errors(
        "usage: repro",
        &[
            (&["table1", "--threads", "zero"], "--threads needs a positive integer"),
            (&["table1", "--threads"], "--threads needs a positive integer"),
            (&["table1", "--csv"], "--csv needs a directory"),
            (&["table1", "--levels", "many"], "--levels needs an unsigned integer"),
            (&["table1", "--no-such-flag"], "unexpected argument \"--no-such-flag\""),
        ],
    );
}

#[test]
fn invalid_levels_is_a_one_line_config_error() {
    let out = repro(&["table1", "--levels", "40"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("repro: invalid configuration:"), "{err}");
    assert!(err.contains("levels"), "{err}");
    // One line, no backtrace.
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
}

#[test]
fn help_exits_0() {
    for args in [&["--help"][..], &["audit", "--help"][..]] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(0), "args {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro"));
    }
}

#[test]
fn trace_usage_errors_exit_2() {
    assert_usage_errors(
        "usage: repro trace",
        &[
            (&["trace", "--misses", "NaN"], "--misses needs a positive integer"),
            (&["trace", "--misses", "0"], "--misses needs a positive integer"),
            (&["trace", "--out"], "--out needs a directory"),
            (&["trace", "--window", "0"], "--window needs a positive cycle count"),
            (&["trace", "--no-such-flag"], "unexpected argument \"--no-such-flag\""),
        ],
    );
}

#[test]
fn trace_help_exits_0() {
    let out = repro(&["trace", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro trace"));
}

#[test]
fn trace_unknown_workload_fails_cleanly() {
    let out = repro(&["trace", "--quick", "--workload", "nonesuch"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown workload"), "{err}");
}

#[test]
fn trace_run_exports_validated_artifacts() {
    use oram_telemetry::export::{validate_chrome_trace, validate_jsonl};
    use oram_telemetry::validate_timeseries_csv;

    let dir = std::env::temp_dir().join(format!("repro_trace_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Tiny but real: ~1s in debug mode.
    let out = repro(&[
        "trace",
        "--quick",
        "--misses",
        "250",
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("end-of-run report"), "{stdout}");

    for policy in ["tiny", "rd_dup", "hd_dup", "dynamic3"] {
        assert!(stdout.contains(policy), "report lists {policy}");
        let jsonl =
            std::fs::read_to_string(dir.join(format!("spans_{policy}.jsonl"))).expect("jsonl");
        assert!(validate_jsonl(&jsonl).expect("schema-valid JSONL") > 0, "{policy}");
        let trace =
            std::fs::read_to_string(dir.join(format!("trace_{policy}.json"))).expect("trace");
        assert!(validate_chrome_trace(&trace).expect("balanced trace") > 0, "{policy}");
        let ts = std::fs::read_to_string(dir.join(format!("timeseries_{policy}.csv")))
            .expect("timeseries");
        assert!(validate_timeseries_csv(&ts).expect("valid CSV") > 0, "{policy}");
        let metrics =
            std::fs::read_to_string(dir.join(format!("metrics_{policy}.csv"))).expect("metrics");
        assert!(metrics.starts_with("metric,kind,count,"), "{policy}: {metrics}");
    }
    assert!(dir.join("report.txt").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro trace --quick` against `tests/golden/trace_quick/`, byte for
/// byte: the counter and histogram totals, the time-series windows and
/// the Eq. 1 report of every policy. The spans and Chrome traces are
/// validated by the subcommand itself.
#[test]
fn trace_quick_exports_are_golden() {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace_quick");
    let dir = std::env::temp_dir().join(format!("repro_trace_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out =
        repro(&["trace", "--quick", "--quiet", "--out", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let mut files = vec!["report.txt".to_string()];
    for policy in ["tiny", "rd_dup", "hd_dup", "dynamic3"] {
        files.push(format!("metrics_{policy}.csv"));
        files.push(format!("timeseries_{policy}.csv"));
    }
    for file in &files {
        let want = std::fs::read_to_string(golden.join(file)).expect("golden");
        let got = std::fs::read_to_string(dir.join(file)).expect("export");
        assert_eq!(got, want, "{file}");
    }
    // Reading a spans file back and writing it again reproduces both
    // span exports byte for byte.
    for policy in ["tiny", "rd_dup", "hd_dup", "dynamic3"] {
        let read = |name: String| std::fs::read_to_string(dir.join(name)).expect("export");
        let jsonl = read(format!("spans_{policy}.jsonl"));
        let spans = oram_telemetry::spans_from_jsonl(&jsonl).expect("spans read back");
        let mut ring = oram_util::Ring::new(spans.len());
        ring.extend(&spans);
        assert_eq!(oram_telemetry::spans_to_jsonl(&ring), jsonl, "{policy}");
        let trace = read(format!("trace_{policy}.json"));
        assert_eq!(oram_telemetry::spans_to_chrome_trace(&ring), trace, "{policy}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quiet_flag_is_accepted() {
    // --quiet must parse on the experiment path (heartbeats are already
    // suppressed for non-TTY stderr, so output is unchanged here).
    let out = repro(&["table1", "--quiet"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table I"));
}

#[test]
fn trace_quiet_suppresses_the_timing_line() {
    let dir = std::env::temp_dir().join(format!("repro_trace_quiet_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "trace",
        "--quick",
        "--quiet",
        "--misses",
        "250",
        "--out",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    // --quiet silences everything the subcommand says on stderr: the
    // heartbeat (even on a TTY) and the closing timing line.
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("end-of-run report"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn profile_usage_errors_exit_2() {
    assert_usage_errors(
        "usage: repro profile",
        &[
            (&["profile", "--misses", "NaN"], "--misses needs a positive integer"),
            (&["profile", "--misses", "0"], "--misses needs a positive integer"),
            (&["profile", "--json"], "--json needs a path"),
            (&["profile", "--workload"], "--workload needs a name"),
            (&["profile", "--no-such-flag"], "unexpected argument \"--no-such-flag\""),
        ],
    );
}

#[test]
fn profile_help_exits_0() {
    let out = repro(&["profile", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro profile"));
}

#[test]
fn profile_then_compare_round_trips_through_the_guard() {
    use oram_telemetry::{ProfileReport, Report};

    let dir = std::env::temp_dir().join(format!("repro_profile_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("profile.json");

    // Tiny but real: the attribution table and the JSON export.
    let out = repro(&[
        "profile",
        "--quick",
        "--quiet",
        "--misses",
        "250",
        "--json",
        json.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycle attribution"), "{stdout}");
    assert!(stdout.contains("backend utilization"), "{stdout}");
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Identical runs compare clean (exit 0) — the simulator is
    // deterministic, so a self-compare is exactly zero on every metric.
    let self_cmp = repro(&["compare", json.to_str().unwrap(), json.to_str().unwrap()]);
    assert_eq!(self_cmp.status.code(), Some(0), "{}", String::from_utf8_lossy(&self_cmp.stderr));
    assert!(String::from_utf8_lossy(&self_cmp.stdout).contains("verdict: PASS"));

    // Inject a 10% latency regression into the candidate: exit 1.
    let text = std::fs::read_to_string(&json).expect("profile JSON");
    let mut report = ProfileReport::parse(&text).expect("own JSON parses");
    report.policies[0].total_cycles = report.policies[0].total_cycles * 11 / 10;
    let bad = dir.join("regressed.json");
    std::fs::write(&bad, report.to_json()).expect("write candidate");
    let cmp = repro(&["compare", json.to_str().unwrap(), bad.to_str().unwrap()]);
    assert_eq!(cmp.status.code(), Some(1), "{}", String::from_utf8_lossy(&cmp.stderr));
    let cmp_out = String::from_utf8_lossy(&cmp.stdout);
    assert!(cmp_out.contains("REGRESSION"), "{cmp_out}");
    assert!(cmp_out.contains("verdict: FAIL"), "{cmp_out}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_usage_errors_exit_2() {
    assert_usage_errors(
        "usage: repro compare",
        &[
            (&["compare"], "expected exactly two profile files"),
            (&["compare", "one.json"], "expected exactly two profile files"),
            (&["compare", "a.json", "b.json", "c.json"], "expected exactly two profile files"),
            (
                &["compare", "a.json", "b.json", "--tolerance", "NaN"],
                "--tolerance needs a non-negative percentage",
            ),
            (
                &["compare", "a.json", "b.json", "--no-such-flag"],
                "unexpected argument \"--no-such-flag\"",
            ),
        ],
    );
}

#[test]
fn compare_missing_file_exits_1() {
    let out = repro(&["compare", "/nonexistent/a.json", "/nonexistent/b.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failed to read"));
}

#[test]
fn serve_usage_errors_exit_2() {
    const SWEEP: &str = "--sweep is incompatible with --json and --load";
    const SHARD_SWEEP: &str =
        "--shard-sweep is incompatible with --sweep, --json, --load and --shards";
    const WAN_SWEEP: &str = "\
        --wan-sweep is incompatible with --sweep, --shard-sweep, --json, --load, \
        --shards, --rtt-us and --batch (the sweep sets its own RTT x batch grid)";
    const POSMAP_SWEEP: &str = "\
        --posmap-sweep is incompatible with --sweep, --shard-sweep, --wan-sweep, \
        --json, --load, --shards, --posmap, --plb-entries, --levels and --domain (the \
        sweep sets its own depth x PLB grid)";
    const LIVE_ON_A_GRID: &str = "\
        --metrics-addr and --top are incompatible with --shard-sweep, --wan-sweep and \
        --posmap-sweep (those sweeps re-run many configurations; attach the live plane \
        to a plain run or --sweep)";
    const WAN_ONLY: &str = "--rtt-us and --batch apply only to --backend wan";
    const RECURSIVE_ONLY: &str =
        "--plb-entries and --posmap-onchip-kb apply only to --posmap recursive";
    assert_usage_errors(
        "usage: repro serve",
        &[
            (&["serve", "--clients", "0"], "--clients needs a positive integer"),
            (&["serve", "--requests", "NaN"], "--requests needs a positive integer"),
            (&["serve", "--load", "-1"], "--load needs a positive number"),
            (
                &["serve", "--scheduler", "nonesuch"],
                "unknown scheduler \"nonesuch\" (fcfs, round_robin, oldest_first)",
            ),
            (&["serve", "--json"], "--json needs a path"),
            (&["serve", "--sweep", "--json", "/tmp/x.json"], SWEEP),
            (&["serve", "--sweep", "--load", "2"], SWEEP),
            (&["serve", "--shards", "0"], "--shards needs a positive integer"),
            (&["serve", "--shards", "NaN"], "--shards needs a positive integer"),
            (&["serve", "--shards"], "--shards needs a positive integer"),
            (&["serve", "--threads", "0"], "--threads needs a positive integer"),
            (&["serve", "--shard-sweep", "--shards", "2"], SHARD_SWEEP),
            (&["serve", "--shard-sweep", "--json", "/tmp/x.json"], SHARD_SWEEP),
            (&["serve", "--shard-sweep", "--sweep"], SHARD_SWEEP),
            (&["serve", "--backend"], "--backend needs a name (dram, disk or wan)"),
            (
                &["serve", "--backend", "tape"],
                "unknown backend \"tape\" (expected dram, disk or wan)",
            ),
            (&["serve", "--backend", "dram", "--rtt-us", "100"], WAN_ONLY),
            (&["serve", "--backend", "dram", "--batch", "8"], WAN_ONLY),
            (&["serve", "--rtt-us", "100"], WAN_ONLY),
            (&["serve", "--backend", "wan", "--rtt-us", "0"], "--rtt-us needs a positive number"),
            (&["serve", "--backend", "wan", "--rtt-us", "NaN"], "--rtt-us needs a positive number"),
            (&["serve", "--backend", "wan", "--batch", "0"], "--batch needs a positive integer"),
            (
                &["serve", "--backend", "dram", "--disk-dir", "/tmp/x"],
                "--disk-dir applies only to --backend disk",
            ),
            (&["serve", "--wan-sweep", "--backend", "disk"], "--wan-sweep requires --backend wan"),
            (&["serve", "--wan-sweep", "--rtt-us", "100"], WAN_SWEEP),
            (&["serve", "--wan-sweep", "--batch", "8"], WAN_SWEEP),
            (&["serve", "--wan-sweep", "--sweep"], WAN_SWEEP),
            (&["serve", "--wan-sweep", "--json", "/tmp/x.json"], WAN_SWEEP),
            (
                &["serve", "--csv", "/tmp/x"],
                "--csv applies only to --sweep, --shard-sweep, --wan-sweep and --posmap-sweep",
            ),
            (&["serve", "--metrics-addr"], "--metrics-addr needs HOST:PORT"),
            (&["serve", "--metrics-linger"], "--metrics-linger needs seconds"),
            (&["serve", "--metrics-linger", "NaN"], "--metrics-linger needs seconds"),
            (
                &["serve", "--metrics-linger", "5"],
                "--metrics-linger applies only with --metrics-addr",
            ),
            (&["serve", "--shard-sweep", "--metrics-addr", "127.0.0.1:0"], LIVE_ON_A_GRID),
            (&["serve", "--wan-sweep", "--metrics-addr", "127.0.0.1:0"], LIVE_ON_A_GRID),
            (&["serve", "--shard-sweep", "--top"], LIVE_ON_A_GRID),
            (&["serve", "--wan-sweep", "--top"], LIVE_ON_A_GRID),
            (&["serve", "--posmap"], "--posmap needs a mode (flat or recursive)"),
            (
                &["serve", "--posmap", "nonesuch"],
                "unknown posmap \"nonesuch\" (expected flat or recursive)",
            ),
            (&["serve", "--plb-entries", "0"], "--plb-entries needs a positive integer"),
            (&["serve", "--plb-entries", "NaN"], "--plb-entries needs a positive integer"),
            (&["serve", "--posmap-onchip-kb", "0"], "--posmap-onchip-kb needs a positive integer"),
            (&["serve", "--posmap-budget-mb", "0"], "--posmap-budget-mb needs a positive integer"),
            (&["serve", "--domain", "0"], "--domain needs a positive integer"),
            (&["serve", "--plb-entries", "8"], RECURSIVE_ONLY),
            (&["serve", "--posmap-onchip-kb", "32"], RECURSIVE_ONLY),
            (&["serve", "--posmap-sweep", "--sweep"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--json", "/tmp/x.json"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--posmap", "recursive"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--plb-entries", "64"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--levels", "12"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--domain", "512"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--shards", "2"], POSMAP_SWEEP),
            (&["serve", "--posmap-sweep", "--load", "2"], POSMAP_SWEEP),
            (
                &["serve", "--posmap-sweep", "--backend", "disk"],
                "--posmap-sweep runs on the DRAM reference backend",
            ),
            (&["serve", "--posmap-sweep", "--metrics-addr", "127.0.0.1:0"], LIVE_ON_A_GRID),
            (&["serve", "--posmap-sweep", "--top"], LIVE_ON_A_GRID),
            (&["serve", "--no-such-flag"], "unexpected argument \"--no-such-flag\""),
            // Two rules broken at once: the earlier one in the table is reported.
            (&["serve", "--wan-sweep", "--sweep", "--backend", "disk"], WAN_SWEEP),
        ],
    );
}

/// A flat position map that would not fit the configured memory budget
/// is a one-line exit-2 error pointing at `--posmap recursive`, before
/// anything runs — no usage dump, no panic.
#[test]
fn oversized_flat_posmap_is_a_one_line_exit_2() {
    let out = repro(&["serve", "--quick", "--levels", "24"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("use --posmap recursive"), "{err}");
    assert!(err.contains("MiB budget"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    // Raising the budget clears the guard (the config itself is valid);
    // so does switching to the recursive map at the default budget.
    let ok = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "20",
        "--scheduler",
        "fcfs",
        "--levels",
        "24",
        "--posmap-budget-mb",
        "8192",
    ]);
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));
}

/// `--domain` past the tree's block slots is caught up front with a
/// one-line exit-2 error naming the slot count.
#[test]
fn domain_past_tree_capacity_is_a_one_line_exit_2() {
    let out = repro(&["serve", "--quick", "--levels", "12", "--domain", "999999999"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("block slots; raise --levels"), "{err}");
    assert_eq!(err.trim_end().lines().count(), 1, "{err}");
    // So is a domain the zipfian request generator cannot draw from:
    // knowable from the flags, so exit 2 before the run, not 1 inside it.
    let out = repro(&["serve", "--quick", "--domain", "1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        err,
        "repro serve: --domain 1 is below the 2 blocks the zipfian request generator needs\n"
    );
    assert!(out.stdout.is_empty(), "nothing ran");
}

/// A preset (`--quick`, `--full`) picks defaults; it never overrides a
/// flag, whichever comes first on the command line.
#[test]
fn presets_do_not_eat_earlier_flags() {
    let serve: &[&str] = &["--quiet", "--scheduler", "fcfs", "--requests", "40", "--levels", "11"];
    for (sub, preset, flags) in [
        ("serve", "--quick", &[serve, &["--seed", "9"]].concat()[..]),
        ("profile", "--quick", &["--quiet", "--misses", "250"][..]),
        ("soak", "--quick", &["--quiet", "--requests-total", "800", "--tenants", "2"][..]),
        // The control: the experiment path kept its flags in locals.
        ("table1", "--full", &["--levels", "12"][..]),
    ] {
        let preset_first = repro(&[&[sub, preset], flags].concat());
        let preset_last = repro(&[&[sub], flags, &[preset]].concat());
        assert_eq!(preset_first.status.code(), Some(0), "repro {sub} {preset} {flags:?}");
        assert_eq!(preset_last.status.code(), Some(0), "repro {sub} {flags:?} {preset}");
        assert!(!preset_first.stdout.is_empty(), "repro {sub}");
        assert_eq!(
            String::from_utf8_lossy(&preset_first.stdout),
            String::from_utf8_lossy(&preset_last.stdout),
            "repro {sub}: {preset} after {flags:?} changed the run"
        );
    }
}

/// End-to-end recursive-posmap serve: the status line reports the chain
/// geometry, the report meta is tagged, and the run is deterministic.
/// The line is pinned as the probe engine that used to work it out
/// printed it, at the default on-chip budget (no chain) and at 1 KiB.
#[test]
fn recursive_posmap_serve_prints_the_status_line() {
    let quick = repro(&["serve", "--quick", "--quiet", "--posmap", "recursive"]);
    assert_eq!(quick.status.code(), Some(0), "{}", String::from_utf8_lossy(&quick.stderr));
    let status = |out: &std::process::Output| {
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        stdout.lines().find(|l| l.starts_with("posmap: ")).map(str::to_string)
    };
    assert_eq!(
        status(&quick).as_deref(),
        Some(
            "posmap: recursive, 0 chain levels, on-chip state 36.0 KiB (terminal-map budget \
             64 KiB), plb 1024 entries"
        )
    );
    let run = || {
        repro(&[
            "serve",
            "--quick",
            "--quiet",
            "--requests",
            "40",
            "--scheduler",
            "fcfs",
            "--posmap",
            "recursive",
            "--posmap-onchip-kb",
            "1",
        ])
    };
    let out = run();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        status(&out).as_deref(),
        Some(
            "posmap: recursive, 1 chain levels, on-chip state 26.7 KiB (terminal-map budget \
             1 KiB), plb 1024 entries"
        )
    );
    assert!(stdout.contains("posmap recursive"), "{stdout}");
    let again = run();
    assert_eq!(stdout, String::from_utf8_lossy(&again.stdout), "non-deterministic");
}

#[test]
fn serve_help_exits_0() {
    let out = repro(&["serve", "--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: repro serve"));
}

#[test]
fn serve_quick_json_is_deterministic_and_self_compares() {
    let dir = std::env::temp_dir().join(format!("repro_serve_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Tiny but real: full self-validation (conservation laws, span
    // attribution, bus-trace audit) runs inside every serve invocation.
    let run = |path: &std::path::Path| {
        let out = repro(&[
            "serve",
            "--quick",
            "--quiet",
            "--requests",
            "80",
            "--json",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        stdout
    };
    let a = dir.join("a.json");
    let b = dir.join("b.json");
    let stdout_a = run(&a);
    let stdout_b = run(&b);

    // Same seed, same report — byte for byte, stdout and JSON alike.
    assert_eq!(stdout_a, stdout_b);
    for policy in ["fcfs", "round_robin", "oldest_first"] {
        assert!(stdout_a.contains(policy), "report lists {policy}: {stdout_a}");
    }
    assert!(stdout_a.contains("per-client"), "{stdout_a}");
    let json_a = std::fs::read_to_string(&a).expect("json a");
    let json_b = std::fs::read_to_string(&b).expect("json b");
    assert_eq!(json_a, json_b);

    // A deterministic report self-compares clean through the guard.
    let cmp = repro(&["compare", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(cmp.status.code(), Some(0), "{}", String::from_utf8_lossy(&cmp.stderr));
    assert!(String::from_utf8_lossy(&cmp.stdout).contains("verdict: PASS"));

    // Service reports never compare against profile reports.
    let profile = dir.join("profile.json");
    std::fs::write(&profile, "{}").expect("write stub");
    let mixed = repro(&["compare", a.to_str().unwrap(), profile.to_str().unwrap()]);
    assert_eq!(mixed.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&mixed.stderr).contains("cannot compare"),
        "{}",
        String::from_utf8_lossy(&mixed.stderr)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_serve_json_is_identical_across_thread_counts() {
    let dir = std::env::temp_dir().join(format!("repro_serve_shards_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    // The sharded backend partitions batches to shards in input order
    // before any shard runs, so the worker thread count must not change
    // a single output byte.
    let run = |threads: &str, path: &std::path::Path| {
        let out = repro(&[
            "serve",
            "--quick",
            "--quiet",
            "--requests",
            "60",
            "--scheduler",
            "fcfs",
            "--shards",
            "4",
            "--threads",
            threads,
            "--json",
            path.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let p1 = dir.join("t1.json");
    let p2 = dir.join("t2.json");
    let p4 = dir.join("t4.json");
    let s1 = run("1", &p1);
    let s2 = run("2", &p2);
    let s4 = run("4", &p4);
    assert_eq!(s1, s2);
    assert_eq!(s1, s4);
    assert!(s1.contains("shards 4"), "{s1}");
    let j1 = std::fs::read_to_string(&p1).expect("json t1");
    assert_eq!(j1, std::fs::read_to_string(&p2).expect("json t2"));
    assert_eq!(j1, std::fs::read_to_string(&p4).expect("json t4"));
    assert!(j1.contains("\"shards\":4"), "{j1}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wan_serve_tags_the_report_and_takes_wan_flags() {
    let dir = std::env::temp_dir().join(format!("repro_serve_wan_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("wan.json");
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "60",
        "--scheduler",
        "fcfs",
        "--backend",
        "wan",
        "--rtt-us",
        "300",
        "--batch",
        "8",
        "--json",
        json.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("backend wan"), "{stdout}");
    let j = std::fs::read_to_string(&json).expect("wan json");
    assert!(j.contains("\"backend\":\"wan\""), "{j}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_wan_serve_runs_through_the_full_validation_stack() {
    let dir = std::env::temp_dir().join(format!("repro_serve_wan_shards_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json = dir.join("wan_shards.json");
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--backend",
        "wan",
        "--shards",
        "2",
        "--json",
        json.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let j = std::fs::read_to_string(&json).expect("sharded wan json");
    assert!(j.contains("\"shards\":2"), "{j}");
    assert!(j.contains("\"backend\":\"wan\""), "{j}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn disk_serve_round_trips_on_a_named_dir() {
    let dir = std::env::temp_dir().join(format!("repro_serve_disk_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "40",
        "--scheduler",
        "fcfs",
        "--backend",
        "disk",
        "--disk-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("backend disk"));
    // A named --disk-dir persists the store instead of cleaning it up.
    let kept = std::fs::read_dir(&dir).expect("dir").count();
    assert!(kept > 0, "named disk dir must keep the store");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wan_sweep_smoke_writes_the_figure_csv() {
    let dir = std::env::temp_dir().join(format!("repro_wan_sweep_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "60",
        "--wan-sweep",
        "--csv",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wan sweep"), "{stdout}");
    assert!(stdout.contains("monotone non-increasing"), "{stdout}");
    let csv =
        std::fs::read_to_string(dir.join("fig_b1_wan_per_request_cycles_vs_request_batch.csv"))
            .expect("figure csv");
    assert!(csv.contains("label,batch_1,batch_2,batch_4,batch_8,batch_16"), "{csv}");
    assert!(csv.contains("rtt_50us"), "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The tentpole invariant of the observability plane: attaching the
/// metrics endpoint must not change a single output byte of the run.
#[test]
fn serve_output_is_byte_identical_with_metrics_endpoint() {
    let dir = std::env::temp_dir().join(format!("repro_serve_obsv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");

    let run = |extra: &[&str], json: &std::path::Path| {
        let mut args = vec![
            "serve",
            "--quick",
            "--quiet",
            "--requests",
            "60",
            "--scheduler",
            "fcfs",
            "--json",
            json.to_str().expect("utf-8 temp path"),
        ];
        args.extend_from_slice(extra);
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    let plain_json = dir.join("plain.json");
    let live_json = dir.join("live.json");
    let plain = run(&[], &plain_json);
    let live = run(&["--metrics-addr", "127.0.0.1:0"], &live_json);
    assert_eq!(plain, live, "stdout must not change with the endpoint attached");
    assert_eq!(
        std::fs::read_to_string(&plain_json).expect("plain json"),
        std::fs::read_to_string(&live_json).expect("live json"),
        "JSON report must not change with the endpoint attached"
    );
    // --top is TTY-gated and silenced by --quiet: same invariant.
    let top_json = dir.join("top.json");
    let top = run(&["--top"], &top_json);
    assert_eq!(plain, top, "stdout must not change with --top --quiet");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--quiet` silences `--top` completely: stderr stays empty.
#[test]
fn serve_top_is_suppressed_by_quiet() {
    let out =
        repro(&["serve", "--quick", "--quiet", "--requests", "40", "--scheduler", "fcfs", "--top"]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(out.stderr.is_empty(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// End-to-end scrape: spawn a serve with the endpoint attached and a
/// linger window, read the bound address off stderr, and pull /metrics,
/// /healthz and /slo while the process is alive.
#[test]
fn serve_metrics_endpoint_answers_scrapes() {
    use std::io::BufRead;

    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "serve",
            "--quick",
            "--requests",
            "40",
            "--scheduler",
            "fcfs",
            "--metrics-addr",
            "127.0.0.1:0",
            "--metrics-linger",
            "60",
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn repro serve");
    let stderr = child.stderr.take().expect("piped stderr");
    let mut reader = std::io::BufReader::new(stderr);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read the endpoint line");
    let addr: std::net::SocketAddr = line
        .split("http://")
        .nth(1)
        .and_then(|s| s.split("/metrics").next())
        .expect("endpoint line names the address")
        .parse()
        .expect("address parses");

    let scrape = (|| -> std::io::Result<()> {
        // Poll /healthz until the endpoint answers (it is up already —
        // the address line prints after binding — but be tolerant).
        let mut last = None;
        for _ in 0..50 {
            match oram_obsv::http_get(addr, "/healthz") {
                Ok((status, body)) => {
                    assert!(status.contains("200"), "{status}");
                    assert!(body.contains("\"status\""), "{body}");
                    last = Some(());
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(100)),
            }
        }
        assert!(last.is_some(), "endpoint never answered /healthz");

        let (status, body) = oram_obsv::http_get(addr, "/metrics")?;
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("# TYPE oram_requests_completed_total counter"), "{body}");
        assert!(body.contains("oram_latency_cycles{quantile=\"0.999\"}"), "{body}");

        let (status, body) = oram_obsv::http_get(addr, "/slo")?;
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("\"objectives\""), "{body}");
        Ok(())
    })();

    let _ = child.kill();
    let _ = child.wait();
    scrape.expect("scrapes succeed");
}

/// `--shard-sweep --csv` writes the knee table with the new tail
/// columns.
#[test]
fn shard_sweep_writes_the_knee_csv() {
    let dir = std::env::temp_dir().join(format!("repro_shard_knee_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "30",
        "--clients",
        "2",
        "--shard-sweep",
        "--csv",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("p99.9@1.0"), "{stdout}");
    let csv = std::fs::read_to_string(dir.join("fig_c1_shard_sweep_saturation_knee.csv"))
        .expect("knee csv");
    assert!(csv.contains("label,knee_load,knee_req_per_mcyc,p99_at_load1,p99_9_at_load1"), "{csv}");
    assert!(csv.contains("shards_1"), "{csv}");
    assert!(csv.contains("shards_4"), "{csv}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn audit_usage_errors_exit_2() {
    assert_usage_errors(
        "usage: repro audit",
        &[
            (&["audit", "--seed", "NaN"], "--seed needs an unsigned integer"),
            (&["audit", "--seed"], "--seed needs an unsigned integer"),
            (&["audit", "--trace-out"], "--trace-out needs a path"),
            (&["audit", "--frobnicate"], "unexpected argument \"--frobnicate\""),
        ],
    );
}

/// A valid `--slo-spec` replaces the default objectives: the custom
/// objective name shows up in the dumped incident bundle's meta.json.
#[test]
fn slo_spec_overrides_objectives_in_the_bundle() {
    let dir = std::env::temp_dir().join(format!("repro_slo_spec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let spec = dir.join("slo.json");
    std::fs::write(
        &spec,
        "{\"slos\":[{\"name\":\"latency_p95\",\"kind\":\"latency_above\",\
         \"threshold_cycles\":1500,\"budget\":0.05},\
         {\"name\":\"rejections\",\"kind\":\"rejection\",\"budget\":0.01}]}",
    )
    .expect("write spec");
    let bundle = dir.join("bundle");
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "40",
        "--clients",
        "2",
        "--scheduler",
        "fcfs",
        "--slo-spec",
        spec.to_str().expect("utf-8 temp path"),
        "--force-incident",
        "--incident-dir",
        bundle.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let meta = std::fs::read_to_string(bundle.join("meta.json")).expect("meta.json");
    assert!(meta.contains("\"latency_p95\""), "{meta}");
    assert!(!meta.contains("\"latency_p99\""), "{meta}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A malformed SLO spec is a one-line error and exit 2, before anything
/// runs.
#[test]
fn malformed_slo_spec_is_a_one_line_exit_2() {
    let dir = std::env::temp_dir().join(format!("repro_slo_bad_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let cases = [
        "{\"slos\":[{\"name\":\"x\",\"kind\":\"latency_above\",\
         \"threshold_cycles\":0,\"budget\":0.05}]}",
        "{\"slos\":[]}",
        "not json",
        "{\"slos\":[{\"name\":\"Bad Name\",\"kind\":\"rejection\",\"budget\":0.5}]}",
    ];
    for (i, text) in cases.iter().enumerate() {
        let spec = dir.join(format!("bad{i}.json"));
        std::fs::write(&spec, text).expect("write spec");
        let out =
            repro(&["serve", "--quick", "--slo-spec", spec.to_str().expect("utf-8 temp path")]);
        assert_eq!(out.status.code(), Some(2), "case {i}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("slo spec:"), "case {i}: {err}");
        assert_eq!(err.trim_end().lines().count(), 1, "case {i}: {err}");
    }
    // A missing file is also exit 2, not a panic.
    let out = repro(&["serve", "--quick", "--slo-spec", "/no/such/spec.json"]);
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// `--force-incident` without a dump directory is a usage error, as are
/// the incident flags on the sweeps.
#[test]
fn incident_flag_incompatibilities_exit_2() {
    assert_usage_errors(
        "usage: repro",
        &[
            (&["serve", "--quick", "--force-incident"], "--force-incident requires --incident-dir"),
            (
                &["serve", "--quick", "--sweep", "--incident-dir", "x"],
                "--slo-spec and --incident-dir are incompatible with the sweeps (the flight \
                 recorder and SLO overrides attach to a single plain run)",
            ),
            (&["incident"], "usage: repro incident <dir>"),
            (&["incident", "--no-such-flag"], "unexpected argument \"--no-such-flag\""),
            (&["soak", "--quick", "--tenants", "0"], "--tenants needs a positive integer"),
            (
                &["soak", "--quick", "--switch-backend", "dram"],
                "repro soak: switch backend dram equals the starting backend",
            ),
        ],
    );
}

/// The forced incident bundle lands on disk and `repro incident`
/// re-validates it offline.
#[test]
fn forced_incident_bundle_revalidates_offline() {
    let dir = std::env::temp_dir().join(format!("repro_incident_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = repro(&[
        "serve",
        "--quick",
        "--quiet",
        "--requests",
        "40",
        "--clients",
        "2",
        "--scheduler",
        "fcfs",
        "--force-incident",
        "--incident-dir",
        dir.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    for f in ["meta.json", "spans.jsonl", "trace.json", "metrics.prom"] {
        assert!(dir.join(f).is_file(), "{f} missing");
    }
    let out = repro(&["incident", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("incident bundle OK"), "{stdout}");
    assert!(stdout.contains("trigger: forced"), "{stdout}");
    // Tampering is caught.
    std::fs::write(dir.join("windows.jsonl"), "{\"broken\":1}\n").expect("tamper");
    let out = repro(&["incident", dir.to_str().expect("utf-8 temp path")]);
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scaled-down soak produces a self-validated report that the compare
/// gate accepts against itself.
#[test]
fn soak_quick_report_passes_its_own_compare_gate() {
    let dir = std::env::temp_dir().join(format!("repro_soak_cli_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let json = dir.join("soak.json");
    let out = repro(&[
        "soak",
        "--quick",
        "--quiet",
        "--requests-total",
        "800",
        "--json",
        json.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("checks: conservation ok eq1 ok"), "{stdout}");
    let out = repro(&[
        "compare",
        json.to_str().expect("utf-8 temp path"),
        json.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("PASS"));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `repro serve [--quick] --<sweep> --csv` and diffs its stdout and
/// every CSV it wrote against `tests/golden/serve_sweeps/`, byte for
/// byte, at both sizes. The golden files are `<sweep>_<size>.txt` and
/// `<sweep>_<size>_<figure>.csv`.
fn assert_sweep_matches_golden(sweep: &str) {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve_sweeps");
    for size in ["quick", "full"] {
        let name = format!("{sweep}_{size}");
        let dir = std::env::temp_dir().join(format!("repro_golden_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flag = format!("--{sweep}");
        let mut args = vec!["serve", "--quiet", flag.as_str()];
        if size == "quick" {
            args.push("--quick");
        }
        let out = repro(&[&args[..], &["--csv", dir.to_str().expect("utf-8 temp path")]].concat());
        assert_eq!(out.status.code(), Some(0), "{name}: {}", String::from_utf8_lossy(&out.stderr));
        let want = std::fs::read_to_string(golden.join(format!("{name}.txt"))).expect("golden");
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "{name} stdout");
        let csvs: Vec<_> = std::fs::read_dir(&dir).expect("csv dir").map(|e| e.unwrap()).collect();
        assert_eq!(csvs.len(), 1, "{name}: one figure table");
        let file = csvs[0].file_name().into_string().expect("utf-8 file name");
        let want = std::fs::read_to_string(golden.join(format!("{name}_{file}")))
            .unwrap_or_else(|e| panic!("{name}: no golden for {file}: {e}"));
        let got = std::fs::read_to_string(csvs[0].path()).expect("csv");
        assert_eq!(got, want, "{name} {file}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn load_sweep_output_is_golden() {
    assert_sweep_matches_golden("sweep");
}

#[test]
fn shard_sweep_output_is_golden() {
    assert_sweep_matches_golden("shard-sweep");
}

#[test]
fn wan_sweep_output_is_golden() {
    assert_sweep_matches_golden("wan-sweep");
}

#[test]
fn posmap_sweep_output_is_golden() {
    assert_sweep_matches_golden("posmap-sweep");
}

/// Replaces the number after the `nth` (0-based) `"key":` in a JSON
/// text with `f(old)`.
fn with_number(text: &str, key: &str, nth: usize, f: impl Fn(f64) -> String) -> String {
    let needle = format!("\"{key}\":");
    let at = text.match_indices(&needle).nth(nth).unwrap_or_else(|| panic!("no {needle}")).0;
    let start = at + needle.len();
    let len = text[start..].find([',', '}']).expect("number ends");
    let old: f64 = text[start..start + len].parse().expect("a number");
    format!("{}{}{}", &text[..start], f(old), &text[start + len..])
}

/// The metric names a `repro compare` rendering marks as regressed:
/// table rows whose status is `REGRESSION`, and `FAIL <name>: …` lines
/// (the listing form soak comparisons have printed).
fn regressed_names(stdout: &str) -> std::collections::BTreeSet<String> {
    stdout
        .lines()
        .filter_map(|l| {
            let l = l.trim();
            if let Some(rest) = l.strip_prefix("FAIL ") {
                rest.split_once(':').map(|(name, _)| name)
            } else if l.ends_with("REGRESSION") {
                l.split_whitespace().next()
            } else {
                None
            }
        })
        .map(str::to_string)
        .collect()
}

/// The `repro compare` verdict table: one row per (baseline, edit) pair,
/// each asserting the exit code, pass/fail and the exact set of
/// regressed metric names. `None` marks a pair the gate must refuse to
/// compare (exit 1, nothing on stdout).
#[test]
fn compare_verdict_table() {
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_results");
    let read = |name: &str| std::fs::read_to_string(results.join(name)).expect("baseline");
    let profile = read("BENCH_profile_baseline.json");
    let service = read("BENCH_service_baseline.json");
    let soak = read("BENCH_soak_baseline.json");
    let scale = |by: f64| move |v: f64| format!("{}", (v * by).round());
    let scale6 = |by: f64| move |v: f64| format!("{:.6}", v * by);
    type Row = (&'static str, String, String, Option<&'static [&'static str]>);
    let mut rows: Vec<Row> = Vec::new();
    for name in [
        "BENCH_profile_baseline.json",
        "BENCH_service_baseline.json",
        "BENCH_shard_baseline.json",
        "BENCH_backend_baseline.json",
        "BENCH_posmap_baseline.json",
        "BENCH_soak_baseline.json",
    ] {
        rows.push((name, read(name), read(name), Some(&[])));
    }
    rows.extend([
        (
            "profile total_cycles +5%",
            profile.clone(),
            with_number(&profile, "total_cycles", 0, scale(1.05)),
            Some(&["tiny.total_cycles"][..]),
        ),
        (
            "service p99 +5%",
            service.clone(),
            with_number(&service, "p99", 0, scale(1.05)),
            Some(&["fcfs.p99"][..]),
        ),
        (
            "soak tenant p99 +50%",
            soak.clone(),
            with_number(&soak, "p99", 0, scale(1.5)),
            Some(&["tenant0.p99"][..]),
        ),
        (
            "soak throughput -5%",
            soak.clone(),
            with_number(&soak, "throughput_rpmc", 0, scale6(0.95)),
            Some(&["throughput_rpmc"][..]),
        ),
        (
            "soak rejected_frac +0.03",
            soak.clone(),
            with_number(&soak, "rejected", 0, |v| format!("{}", v + 120.0)),
            Some(&["rejected_frac"][..]),
        ),
        (
            "soak failed self-check",
            soak.clone(),
            soak.replace("\"conservation\":\"ok\"", "\"conservation\":\"failed\""),
            Some(&["check.conservation"][..]),
        ),
        (
            "profile info-only attr_queue x10",
            profile.clone(),
            with_number(&profile, "attr_queue", 0, scale(10.0)),
            Some(&[][..]),
        ),
        (
            "service info-only onchip x10",
            service.clone(),
            with_number(&service, "onchip", 0, scale(10.0)),
            Some(&[][..]),
        ),
        (
            "soak info-only coalesced x10",
            soak.clone(),
            with_number(&soak, "coalesced", 0, scale(10.0)),
            Some(&[][..]),
        ),
        (
            "profile zero-base dri_cycles",
            with_number(&profile, "dri_cycles", 0, scale(0.0)),
            profile.clone(),
            Some(&["tiny.dri_cycles"][..]),
        ),
        (
            "service zero-base p99",
            with_number(&service, "p99", 0, scale(0.0)),
            service.clone(),
            Some(&["fcfs.p99"][..]),
        ),
        (
            "soak zero-base tenant p99",
            with_number(&soak, "p99", 0, scale(0.0)),
            soak.clone(),
            Some(&["tenant0.p99"][..]),
        ),
        (
            "profile mismatched seed",
            profile.clone(),
            with_number(&profile, "seed", 0, scale(2.0)),
            None,
        ),
        (
            "service mismatched seed",
            service.clone(),
            with_number(&service, "seed", 0, scale(2.0)),
            None,
        ),
        ("soak mismatched seed", soak.clone(), with_number(&soak, "seed", 0, scale(2.0)), None),
    ]);

    let dir = std::env::temp_dir().join(format!("repro_verdicts_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (base_path, cand_path) = (dir.join("base.json"), dir.join("cand.json"));
    for (label, base, cand, want) in rows {
        std::fs::write(&base_path, base).expect("write base");
        std::fs::write(&cand_path, cand).expect("write candidate");
        let out = repro(&["compare", base_path.to_str().unwrap(), cand_path.to_str().unwrap()]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        match want {
            None => {
                assert_eq!(out.status.code(), Some(1), "{label}: {stdout}");
                assert!(stdout.is_empty(), "{label}: {stdout}");
                assert!(stderr.starts_with("repro compare: "), "{label}: {stderr}");
            }
            Some(names) => {
                let pass = names.is_empty();
                assert_eq!(
                    out.status.code(),
                    Some(if pass { 0 } else { 1 }),
                    "{label}: {stdout}{stderr}"
                );
                assert_eq!(stdout.contains("PASS"), pass, "{label}: {stdout}");
                assert_eq!(stdout.contains("FAIL"), !pass, "{label}: {stdout}");
                let want: std::collections::BTreeSet<String> =
                    names.iter().map(|s| s.to_string()).collect();
                assert_eq!(regressed_names(&stdout), want, "{label}: {stdout}");
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
