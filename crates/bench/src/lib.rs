//! # oram-bench
//!
//! Experiment harness for the Shadow Block reproduction: one function per
//! table and figure of the paper's evaluation section, shared between the
//! `repro` binary and the micro-benchmarks in `benches/`.
//!
//! ```no_run
//! use oram_bench::{experiments, ExpOptions};
//!
//! let table = experiments::fig11_15(&ExpOptions::quick(), false);
//! println!("{}", table.render());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod experiments;
pub mod incident;
pub mod microbench;
pub mod progress;
pub mod serve;
pub mod soak;
pub mod table;
pub mod trace;

pub use experiments::ExpOptions;
pub use incident::{run_incident, write_incident_bundle, IncidentSummary};
pub use microbench::{bench, BenchReport, CountingAlloc};
pub use progress::Heartbeat;
pub use serve::{
    run_serve, run_serve_live, run_sweep, BackendKind, LiveRun, PosmapKind, ServeArtifacts,
    ServeOptions, Sweep, SweepReport, TopTicker,
};
pub use soak::{run_soak, SoakOptions, SoakReport};
pub use table::Table;
pub use trace::{
    run_profile, run_trace, write_artifacts, TraceArtifacts, TraceOptions, TRACE_POLICIES,
};
