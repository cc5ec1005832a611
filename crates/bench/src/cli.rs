//! The `repro` command line as data: a [`Flag`] row per flag, an ordered
//! [`Rule`] list per subcommand, and the one [`parse`] that reads them.
//! A new flag is a row here, its paragraph in the usage text and the line
//! in `main.rs` that reads it; a constraint between flags is a rule. The
//! usage texts stay prose; the unit tests hold tables and texts together.

use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use oram_bench::{BackendKind, PosmapKind};
use oram_service::SchedPolicy;

/// Usage and configuration errors (the audit uses 1 for "checks failed").
pub const USAGE_ERROR: u8 = 2;

/// What a flag's value must be; checked as the argument is met.
pub enum Kind {
    /// Takes no value.
    Switch,
    /// Free text: a path, a workload name, an address.
    Text,
    /// An unsigned integer of at most `bits` bits and at least `min`.
    Uint { bits: u32, min: u64 },
    /// A finite real above zero.
    Positive,
    /// A real of at least zero (infinity passes: a gate that never trips).
    NonNegative,
    /// A name one of the library's `parse` functions accepts; a rejected
    /// name reports that function's message.
    Name(fn(&str) -> Result<(), String>),
}

const COUNT: Kind = Kind::Uint { bits: usize::BITS, min: 1 };
const POSITIVE_U64: Kind = Kind::Uint { bits: 64, min: 1 };
const POSITIVE_U32: Kind = Kind::Uint { bits: 32, min: 1 };
const U64: Kind = Kind::Uint { bits: 64, min: 0 };
const U32: Kind = Kind::Uint { bits: 32, min: 0 };
const BACKEND: Kind = Kind::Name(|s| BackendKind::parse(s).map(drop));
const BACKEND_NEEDS: &str = "a name (dram, disk or wan)";

/// One flag: `needs` completes the "`<name>` needs …" line a missing or
/// malformed value prints.
pub struct Flag {
    pub name: &'static str,
    pub kind: Kind,
    pub needs: &'static str,
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, kind: Kind::Switch, needs: "" }
}

const fn flag(name: &'static str, kind: Kind, needs: &'static str) -> Flag {
    Flag { name, kind, needs }
}

impl Flag {
    fn check(&self, value: &str) -> Result<(), String> {
        let ok = match self.kind {
            Kind::Switch | Kind::Text => true,
            Kind::Uint { bits, min } => {
                value.parse::<u64>().is_ok_and(|n| n >= min && n <= u64::MAX >> (64 - bits))
            }
            Kind::Positive => value.parse::<f64>().is_ok_and(|r| r.is_finite() && r > 0.0),
            Kind::NonNegative => value.parse::<f64>().is_ok_and(|r| r >= 0.0),
            Kind::Name(parse) => return parse(value),
        };
        if ok {
            Ok(())
        } else {
            Err(self.needs_line())
        }
    }

    fn needs_line(&self) -> String {
        format!("{} needs {}", self.name, self.needs)
    }
}

/// A constraint between flags, checked after the walk in table order;
/// the first broken rule's `msg` is the error.
pub enum Rule {
    /// `flag` may not be combined with any of `with`.
    Conflicts { flag: &'static str, with: &'static [&'static str], msg: &'static str },
    /// Any of `flags` may be given only when `when` holds.
    OnlyWhen { flags: &'static [&'static str], when: fn(&Parsed) -> bool, msg: &'static str },
}

/// One subcommand's grammar.
pub struct Command {
    pub flags: &'static [Flag],
    pub rules: &'static [Rule],
    pub usage: &'static str,
    /// Bare arguments: up to `takes` are collected as they are met (one
    /// more is an "unexpected argument"); a final count other than
    /// `wants` prints `wants_msg`, if any, and the usage.
    pub takes: usize,
    pub wants: usize,
    pub wants_msg: &'static str,
}

/// The flags that were given (raw values, already validated) and the
/// bare arguments. A repeated flag reads as its last value.
pub struct Parsed<'a> {
    cmd: &'static Command,
    given: Vec<(&'static str, &'a str)>,
    positionals: Vec<&'a str>,
}

impl<'a> Parsed<'a> {
    pub fn has(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    pub fn any(&self, names: &[&str]) -> bool {
        names.iter().any(|n| self.has(n))
    }

    pub fn text(&self, name: &str) -> Option<&'a str> {
        debug_assert!(self.cmd.flags.iter().any(|f| f.name == name), "no flag {name} in the table");
        self.given.iter().rev().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.text(name).map(|v| v.parse().ok().expect("validated against the flag's kind"))
    }

    /// The value of a [`Kind::Name`] flag, through the `parse` that validated it.
    pub fn get_by<T>(&self, name: &str, parse: fn(&str) -> Result<T, String>) -> Option<T> {
        self.text(name).map(|v| parse(v).expect("validated against the flag's kind"))
    }

    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.text(name).map(PathBuf::from)
    }

    pub fn positional(&self, i: usize) -> &'a str {
        self.positionals[i]
    }
}

/// Why a walk ended without a [`Parsed`].
enum Stop {
    Help,
    /// The message above the usage text; empty prints the usage alone.
    Usage(String),
}

impl From<String> for Stop {
    fn from(msg: String) -> Stop {
        Stop::Usage(msg)
    }
}

/// Walks `args` left to right, validating each value as it is met (so
/// the first error in argument order is the one reported), then checks
/// the positional count and the rules.
fn walk<'a>(cmd: &'static Command, args: &'a [String]) -> Result<Parsed<'a>, Stop> {
    let mut p = Parsed { cmd, given: Vec::new(), positionals: Vec::new() };
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if a == "-h" || a == "--help" {
            return Err(Stop::Help);
        }
        if let Some(f) = cmd.flags.iter().find(|f| f.name == a) {
            let value = match f.kind {
                Kind::Switch => "",
                _ => it.next().ok_or_else(|| f.needs_line())?,
            };
            f.check(value)?;
            p.given.push((f.name, value));
        } else if !a.starts_with('-') && p.positionals.len() < cmd.takes {
            p.positionals.push(a);
        } else {
            return Err(Stop::Usage(format!("unexpected argument {a:?}")));
        }
    }
    if p.positionals.len() != cmd.wants {
        return Err(Stop::Usage(cmd.wants_msg.to_string()));
    }
    for rule in cmd.rules {
        let (broken, msg) = match *rule {
            Rule::Conflicts { flag, with, msg } => (p.has(flag) && p.any(with), msg),
            Rule::OnlyWhen { flags, when, msg } => (p.any(flags) && !when(&p), msg),
        };
        if broken {
            return Err(Stop::Usage(msg.to_string()));
        }
    }
    Ok(p)
}

/// The one parser: `Ok` with the flags that were given, or the exit code
/// after printing the usage (`--help`, stdout) or `msg\n<usage>` (stderr).
pub fn parse<'a>(cmd: &'static Command, args: &'a [String]) -> Result<Parsed<'a>, ExitCode> {
    walk(cmd, args).map_err(|stop| match stop {
        Stop::Help => {
            println!("{}", cmd.usage);
            ExitCode::SUCCESS
        }
        Stop::Usage(msg) => {
            if msg.is_empty() {
                eprintln!("{}", cmd.usage);
            } else {
                eprintln!("{msg}\n{}", cmd.usage);
            }
            ExitCode::from(USAGE_ERROR)
        }
    })
}

const EXPERIMENT_USAGE: &str = "\
    usage: repro <experiment> [--full] [--csv <dir>] [--threads <n>] [--levels <L>]\n\
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
     --quiet          suppress progress heartbeats";

const TRACE_USAGE: &str = "\
    usage: repro trace [--quick] [--out <dir>] [--workload <w>] [--misses <n>]\n\
     \x20                  [--levels <L>] [--seed <n>] [--window <cycles>] [--quiet]\n\
     Runs tiny/rd_dup/hd_dup/dynamic3 with the telemetry recorder attached,\n\
     validates every export, writes spans_<policy>.jsonl, trace_<policy>.json,\n\
     timeseries_<policy>.csv, metrics_<policy>.csv and report.txt to <dir>\n\
     (default telemetry_out), and prints the end-of-run report.\n\
     --quick            CI smoke scale (1000 misses, L=12) instead of the full run\n\
     --workload <w>     workload to trace (default mcf)\n\
     --window <cycles>  time-series window length in CPU cycles (default 50000)\n\
     --quiet            suppress progress heartbeats and timing lines";

const PROFILE_USAGE: &str = "\
    usage: repro profile [--quick] [--json <path>] [--workload <w>] [--misses <n>]\n\
     \x20                    [--levels <L>] [--seed <n>] [--quiet]\n\
     Runs tiny/rd_dup/hd_dup/dynamic3 with cycle attribution enabled and prints\n\
     where every cycle went (DRAM queue wait, row ops, bus transfer, eviction\n\
     overhead, idle), backend utilization per channel, the per-level bucket\n\
     heatmap, and energy. Attribution is validated span by span: the components\n\
     must sum exactly to each access's latency.\n\
     --quick            CI smoke scale (1000 misses, L=12) instead of the full run\n\
     --json <path>      also write the machine-readable profile (the format\n\
                        `repro compare` consumes) to <path>\n\
     --quiet            suppress progress heartbeats and timing lines";

const COMPARE_USAGE: &str = "\
    usage: repro compare <baseline.json> <candidate.json> [--tolerance <pct>]\n\
     Diffs two `repro profile --json`, two `repro serve --json`, or two\n\
     `repro soak --json` files per policy and per metric (the file kind is\n\
     detected from its schema; the two files must be the same kind). Gated\n\
     metrics (profile: total/data/DRI cycles, energy; serve: run length and\n\
     latency percentiles; soak: tenant tails, throughput, rejection fraction,\n\
     self-checks) that worsen by more than the tolerance fail the comparison\n\
     (exit 1); the rest are reported as informational deltas.\n\
     --tolerance <pct>  allowed worsening on gated metrics, percent (default 2)";

const SERVE_USAGE: &str = "\
    usage: repro serve [--quick] [--clients <n>] [--requests <n>] [--load <r>]\n\
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
     --csv <dir>        with any sweep, also write its figure table as CSV\n\
     --sweep            sweep load factors instead and locate the saturation\n\
                        knee (incompatible with --json and --load)\n\
     --shard-sweep      sweep loads at each of 1/2/4 shards and compare the\n\
                        knees (incompatible with --json, --load and --shards)\n\
     --metrics-addr <a> serve live Prometheus metrics at http://<a>/metrics\n\
                        (plus /healthz and /slo) while the run executes; the\n\
                        run's stdout stays byte-identical (incompatible with\n\
                        --shard-sweep, --wan-sweep and --posmap-sweep)\n\
     --metrics-linger <secs>\n\
                        keep the endpoint up this long after a successful run\n\
                        so a scraper can collect the final state\n\
     --top              live terminal view of throughput, tail latency, SLO\n\
                        burn and alerts (TTY only; silenced by --quiet;\n\
                        incompatible with the same sweeps as --metrics-addr)\n\
     --slo-spec <file>  load SLO objectives from a JSON spec instead of the\n\
                        built-in defaults (see DESIGN.md for the format); a\n\
                        malformed spec is a one-line error, exit 2\n\
                        (incompatible with the sweeps)\n\
     --incident-dir <d> attach the flight recorder and, if a trigger alert\n\
                        (SLO burn, stash pressure, Eq. 1 residual) freezes\n\
                        it, dump the incident bundle into <d> after the run\n\
                        (validate offline with `repro incident <d>`;\n\
                        incompatible with the sweeps)\n\
     --force-incident   freeze the recorder at end of run regardless of\n\
                        alerts, so the bundle always lands (requires\n\
                        --incident-dir; the bundle bytes are identical at\n\
                        any --threads count)\n\
     --quiet            suppress progress heartbeats, timing lines and --top";

const SOAK_USAGE: &str = "\
    usage: repro soak [--quick] [--tenants <n>] [--requests-total <n>] [--phases <n>]\n\
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
     --quiet               suppress progress heartbeats and timing lines";

const INCIDENT_USAGE: &str = "\
    usage: repro incident <dir>\n\
     Offline validation of an incident bundle dumped by `repro serve\n\
     --incident-dir` or `repro soak --incident-dir`: checks the schema of all\n\
     seven files, parses the captured spans back and re-renders both exports\n\
     (demanding byte identity with the files on disk), and cross-checks the\n\
     ring counts meta.json recorded at freeze time. Exit 0 with a summary when\n\
     the bundle is internally consistent, 1 with a one-line reason otherwise.";

const AUDIT_USAGE: &str = "\
    usage: repro audit [--quick] [--seed <n>] [--trace-out <path>]\n\
     --quick            the fast CI-gate sweep instead of the full one\n\
     --seed <n>         master seed for configs and workloads\n\
     --trace-out <path> write the full report (with failing trace windows) here";

const NO_ARGUMENTS: Command =
    Command { flags: &[], rules: &[], usage: "", takes: 0, wants: 0, wants_msg: "" };

const GRID_SWEEPS: &[&str] = &["--shard-sweep", "--wan-sweep", "--posmap-sweep"];

pub static EXPERIMENT: Command = Command {
    flags: &[
        switch("--full"),
        switch("--quiet"),
        flag("--csv", Kind::Text, "a directory"),
        flag("--telemetry", Kind::Text, "a directory"),
        flag("--threads", COUNT, "a positive integer"),
        flag("--levels", U32, "an unsigned integer"),
    ],
    usage: EXPERIMENT_USAGE,
    takes: 1,
    wants: 1,
    ..NO_ARGUMENTS
};

pub static AUDIT: Command = Command {
    flags: &[
        switch("--quick"),
        flag("--seed", U64, "an unsigned integer"),
        flag("--trace-out", Kind::Text, "a path"),
    ],
    usage: AUDIT_USAGE,
    ..NO_ARGUMENTS
};

pub static TRACE: Command = Command {
    flags: &[
        switch("--quick"),
        switch("--quiet"),
        flag("--out", Kind::Text, "a directory"),
        flag("--workload", Kind::Text, "a name"),
        flag("--misses", POSITIVE_U64, "a positive integer"),
        flag("--levels", U32, "an unsigned integer"),
        flag("--seed", U64, "an unsigned integer"),
        flag("--window", POSITIVE_U64, "a positive cycle count"),
    ],
    usage: TRACE_USAGE,
    ..NO_ARGUMENTS
};

pub static PROFILE: Command = Command {
    flags: &[
        switch("--quick"),
        switch("--quiet"),
        flag("--json", Kind::Text, "a path"),
        flag("--workload", Kind::Text, "a name"),
        flag("--misses", POSITIVE_U64, "a positive integer"),
        flag("--levels", U32, "an unsigned integer"),
        flag("--seed", U64, "an unsigned integer"),
    ],
    usage: PROFILE_USAGE,
    ..NO_ARGUMENTS
};

pub static SERVE: Command = Command {
    flags: &[
        switch("--quick"),
        switch("--quiet"),
        switch("--sweep"),
        switch("--shard-sweep"),
        switch("--wan-sweep"),
        switch("--posmap-sweep"),
        switch("--top"),
        switch("--force-incident"),
        flag("--clients", COUNT, "a positive integer"),
        flag("--requests", POSITIVE_U64, "a positive integer"),
        flag("--load", Kind::Positive, "a positive number"),
        flag("--scheduler", Kind::Name(|s| SchedPolicy::parse(s).map(drop)), "a policy name"),
        flag("--levels", U32, "an unsigned integer"),
        flag("--seed", U64, "an unsigned integer"),
        flag("--shards", COUNT, "a positive integer"),
        flag("--threads", COUNT, "a positive integer"),
        flag("--json", Kind::Text, "a path"),
        flag("--backend", BACKEND, BACKEND_NEEDS),
        flag("--rtt-us", Kind::Positive, "a positive number"),
        flag("--batch", COUNT, "a positive integer"),
        flag("--disk-dir", Kind::Text, "a directory"),
        flag("--csv", Kind::Text, "a directory"),
        flag(
            "--posmap",
            Kind::Name(|s| PosmapKind::parse(s).map(drop)),
            "a mode (flat or recursive)",
        ),
        flag("--plb-entries", COUNT, "a positive integer"),
        flag("--domain", POSITIVE_U64, "a positive integer"),
        flag("--posmap-onchip-kb", POSITIVE_U32, "a positive integer"),
        flag("--posmap-budget-mb", POSITIVE_U64, "a positive integer"),
        flag("--metrics-addr", Kind::Text, "HOST:PORT"),
        flag("--metrics-linger", U64, "seconds"),
        flag("--slo-spec", Kind::Text, "a file"),
        flag("--incident-dir", Kind::Text, "a directory"),
    ],
    rules: &[
        Rule::Conflicts {
            flag: "--sweep",
            with: &["--json", "--load"],
            msg: "--sweep is incompatible with --json and --load",
        },
        Rule::Conflicts {
            flag: "--shard-sweep",
            with: &["--sweep", "--json", "--load", "--shards"],
            msg: "--shard-sweep is incompatible with --sweep, --json, --load and --shards",
        },
        Rule::Conflicts {
            flag: "--wan-sweep",
            with: &[
                "--sweep",
                "--shard-sweep",
                "--json",
                "--load",
                "--shards",
                "--rtt-us",
                "--batch",
            ],
            msg: "--wan-sweep is incompatible with --sweep, --shard-sweep, --json, --load, \
                  --shards, --rtt-us and --batch (the sweep sets its own RTT x batch grid)",
        },
        Rule::OnlyWhen {
            flags: &["--wan-sweep"],
            when: |p| matches!(p.text("--backend"), None | Some("wan")),
            msg: "--wan-sweep requires --backend wan",
        },
        Rule::Conflicts {
            flag: "--posmap-sweep",
            with: &[
                "--sweep",
                "--shard-sweep",
                "--wan-sweep",
                "--json",
                "--load",
                "--shards",
                "--posmap",
                "--plb-entries",
                "--levels",
                "--domain",
            ],
            msg: "--posmap-sweep is incompatible with --sweep, --shard-sweep, --wan-sweep, \
                  --json, --load, --shards, --posmap, --plb-entries, --levels and --domain \
                  (the sweep sets its own depth x PLB grid)",
        },
        Rule::OnlyWhen {
            flags: &["--posmap-sweep"],
            when: |p| matches!(p.text("--backend"), None | Some("dram")),
            msg: "--posmap-sweep runs on the DRAM reference backend",
        },
        Rule::OnlyWhen {
            flags: &["--plb-entries", "--posmap-onchip-kb"],
            when: |p| p.text("--posmap") == Some("recursive") || p.has("--posmap-sweep"),
            msg: "--plb-entries and --posmap-onchip-kb apply only to --posmap recursive",
        },
        Rule::OnlyWhen {
            flags: &["--rtt-us", "--batch"],
            when: |p| p.text("--backend") == Some("wan"),
            msg: "--rtt-us and --batch apply only to --backend wan",
        },
        Rule::OnlyWhen {
            flags: &["--disk-dir"],
            when: |p| p.text("--backend") == Some("disk"),
            msg: "--disk-dir applies only to --backend disk",
        },
        Rule::OnlyWhen {
            flags: &["--csv"],
            when: |p| p.has("--sweep") || p.any(GRID_SWEEPS),
            msg: "--csv applies only to --sweep, --shard-sweep, --wan-sweep and --posmap-sweep",
        },
        Rule::OnlyWhen {
            flags: &["--metrics-addr", "--top"],
            when: |p| !p.any(GRID_SWEEPS),
            msg: "--metrics-addr and --top are incompatible with --shard-sweep, --wan-sweep and \
                  --posmap-sweep (those sweeps re-run many configurations; attach the live plane \
                  to a plain run or --sweep)",
        },
        Rule::OnlyWhen {
            flags: &["--metrics-linger"],
            when: |p| p.has("--metrics-addr"),
            msg: "--metrics-linger applies only with --metrics-addr",
        },
        Rule::OnlyWhen {
            flags: &["--force-incident"],
            when: |p| p.has("--incident-dir"),
            msg: "--force-incident requires --incident-dir",
        },
        Rule::OnlyWhen {
            flags: &["--incident-dir", "--slo-spec"],
            when: |p| !p.has("--sweep") && !p.any(GRID_SWEEPS),
            msg: "--slo-spec and --incident-dir are incompatible with the sweeps (the flight \
                  recorder and SLO overrides attach to a single plain run)",
        },
    ],
    usage: SERVE_USAGE,
    ..NO_ARGUMENTS
};

pub static SOAK: Command = Command {
    flags: &[
        switch("--quick"),
        switch("--quiet"),
        flag("--tenants", COUNT, "a positive integer"),
        flag("--requests-total", POSITIVE_U64, "a positive integer"),
        flag("--phases", COUNT, "a positive integer"),
        flag("--levels", U32, "an unsigned integer"),
        flag("--seed", U64, "an unsigned integer"),
        flag("--backend", BACKEND, BACKEND_NEEDS),
        flag("--switch-backend", BACKEND, BACKEND_NEEDS),
        flag("--incident-dir", Kind::Text, "a directory"),
        flag("--json", Kind::Text, "a path"),
    ],
    usage: SOAK_USAGE,
    ..NO_ARGUMENTS
};

pub static INCIDENT: Command =
    Command { usage: INCIDENT_USAGE, takes: 1, wants: 1, ..NO_ARGUMENTS };

pub static COMPARE: Command = Command {
    flags: &[flag("--tolerance", Kind::NonNegative, "a non-negative percentage")],
    usage: COMPARE_USAGE,
    takes: usize::MAX,
    wants: 2,
    wants_msg: "expected exactly two profile files",
    ..NO_ARGUMENTS
};

#[cfg(test)]
mod tests;
