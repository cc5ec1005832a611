//! # oram-telemetry
//!
//! The measurement substrate of the Shadow Block reproduction: a
//! fixed-schema metrics registry (counters + quantile-sketch histograms),
//! a fixed-capacity per-access span tracer with JSONL and Chrome
//! `trace_event` exporters, periodic time-series windows as CSV, and a
//! human-readable end-of-run report reproducing the paper's Eq. 1
//! `total = data + DRI` cycle decomposition.
//!
//! The hook vocabulary ([`oram_util::TelemetrySink`], [`oram_util::MetricId`],
//! [`oram_util::AccessSpan`], [`oram_util::WindowSample`]) lives in
//! `oram-util` so instrumented crates don't depend on this one; this
//! crate provides the standard sink ([`TelemetryRecorder`]), the
//! exporters and the validators that tests and the CI smoke job use to
//! check exported files.
//!
//! Relation to `oram-audit`: the audit's [`oram_util::BusObserver`]
//! models the *adversary's* view of the memory bus (addresses and
//! timing only — what obliviousness is judged on). Telemetry is the
//! *designer's* view: controller internals an adversary never sees.
//! Both use the same attachment pattern — an `Option<Arc<Mutex<dyn …>>>`
//! costing one branch on `None` when detached — and may be attached
//! simultaneously.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compare;
pub mod export;
pub mod json;
pub mod profile;
pub mod registry;
pub mod report;
pub mod tee;
pub mod timeseries;

mod recorder;

pub use compare::{compare_reports, CompareOutcome, Gate, MetricDelta, Report, DEFAULT_TOLERANCE};
pub use export::{
    spans_from_jsonl, spans_to_chrome_trace, spans_to_jsonl, validate_chrome_trace, validate_jsonl,
};
pub use profile::{
    validate_attribution, ChannelProfile, PolicyProfile, ProfileMeta, ProfileReport,
};
pub use recorder::{TelemetryConfig, TelemetryRecorder};
pub use registry::MetricsRegistry;
pub use report::{PolicyReport, RunReport};
pub use tee::TeeSink;
pub use timeseries::{validate_timeseries_csv, TimeSeries};
