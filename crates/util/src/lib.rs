//! # oram-util
//!
//! Dependency-free utilities shared across the Shadow Block
//! reproduction crates:
//!
//! * [`Rng64`] — a small, fast, deterministic PRNG (xoshiro256**
//!   seeded via SplitMix64) replacing the external `rand` crate so the
//!   workspace builds without network access and every experiment is
//!   reproducible bit-for-bit from a single `u64` seed.
//! * [`FixedAddrMap`] — a fixed-capacity open-addressed `u64 → u32`
//!   map (linear probing, backward-shift deletion) for hot-path
//!   indexes that must never allocate after construction.
//! * [`Digit`] — `(v % n, v / n)` as a mask and a shift when `n` is a
//!   power of two, for address decodes and cache set indexing.
//! * [`DetHashMap`] — a `HashMap` alias with a fixed-seed hasher so
//!   sparse simulator state (billion-block trees, recursive posmap
//!   entries) stays bit-for-bit reproducible across processes.
//! * [`BusObserver`] / [`BusEvent`] — the controller↔DRAM bus
//!   observation interface shared by `oram-protocol`, `oram-dram` and
//!   the `oram-audit` verification crate.
//! * [`TelemetrySink`] / [`MetricId`] — the trusted-side telemetry
//!   interface (designer-facing counters, spans and windows) consumed
//!   by the `oram-telemetry` crate.
//! * [`QuantileSketch`] — the one distribution type: a fixed-memory
//!   log-linear quantile sketch behind the metrics registry, the
//!   engine's stash occupancy and the live plane.
//! * [`Ring`] — the one bounded record store: a preallocated
//!   overwrite-oldest ring behind the telemetry span tracer, the flight
//!   recorder and the audit's bus-trace recorder.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod addrmap;
mod digit;
pub mod hash;
pub mod observe;
mod ring;
mod rng;
mod sketch;
pub mod telemetry;

pub use addrmap::FixedAddrMap;
pub use digit::Digit;
pub use hash::{DetHashMap, DetState};
pub use observe::{BusEvent, BusObserver, BusPhase, EventBatch, SharedObserver};
pub use ring::Ring;
pub use rng::{splitmix64_mix, Rng64};
pub use sketch::QuantileSketch;
pub use telemetry::{
    AccessAttribution, AccessSpan, LiveObserver, MetricId, MetricKind, PhaseSpan, ServeClass,
    SharedLive, SharedTelemetry, TelemetrySink, WindowSample,
};
