//! # oram-obsv
//!
//! The live observability plane of the Shadow Block reproduction: where
//! `oram-telemetry` is post-hoc (spans and counters exported after a
//! run), this crate watches a serve/soak *while it runs*:
//!
//! * [`LivePlane`] — sliding sim-time windows of
//!   [`oram_util::QuantileSketch`]es (interpolated p50/p99/p99.9) and
//!   dimensional counters (tenant, shard, serve class, backend phase),
//!   fed by both telemetry streams: it implements
//!   [`oram_util::TelemetrySink`] for the engine side (spans, Eq. 1
//!   windows, stash samples) and [`oram_util::LiveObserver`] for the
//!   service side (completions, rejections), under a conservation law
//!   (`folded + ring + open == totals`) the scrape tests assert.
//! * [`SloSpec`] / [`SloEvent`] — declarative latency/rejection
//!   objectives with multi-window (fast 1x / slow 12x) burn rates and
//!   threshold alerts (stash vs. the Path ORAM bound, the rejection
//!   knee, Eq. 1 residual drift) as structured, address-free events.
//! * [`MetricsServer`] — a dependency-free `std::net` endpoint serving
//!   `/metrics` (Prometheus text format 0.0.4), `/healthz` and `/slo`
//!   from plane snapshots without perturbing the simulation.
//! * [`render_top`] — the `repro top` terminal panel over the same
//!   snapshots.
//! * [`FlightRecorder`] — bounded rings of raw recent history (spans,
//!   admission events, SLO events, Eq. 1 windows) frozen when a trigger
//!   alert fires and rendered into a self-contained incident bundle
//!   (`repro incident` re-validates it offline).
//! * [`TrendEstimator`] — deterministic per-window drift slopes
//!   (latency, stash occupancy) for the `repro soak` long-horizon
//!   harness.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod flight;
pub mod plane;
pub mod prom;
pub mod server;
pub mod slo;
pub mod trend;

pub use flight::{
    read_streams, FlightConfig, FlightRecorder, FlightTrigger, IncidentBundle, IncidentMeta,
    ServiceEvent, ServiceEventKind, BUNDLE_FILES, RING_NAMES, TRIGGER_FORCED,
};
pub use plane::{
    BundleMeta, BurnState, LiveConfig, LivePlane, WindowAgg, EQ1_RESIDUAL_PPM, FAST_BURN_THRESHOLD,
    KNEE_REJECT_PPM, PHASES, PHASE_NAMES, RING_WINDOWS, SLOW_BURN_THRESHOLD, SLOW_BURN_WINDOWS,
};
pub use prom::{render_healthz, render_prometheus, render_slo_json, render_top};
pub use server::{http_get, MetricsServer};
pub use slo::{parse_slo_spec, AlertKind, SloEvent, SloKind, SloSpec, MAX_SLOS};
pub use trend::TrendEstimator;
