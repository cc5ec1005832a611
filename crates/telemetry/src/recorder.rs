//! The standard telemetry sink: registry + span ring + time series
//! behind one [`TelemetrySink`] implementation, with a shared-handle
//! constructor matching how the audit crate shares its bus observers.

use std::sync::{Arc, Mutex};

use oram_util::{AccessSpan, MetricId, Ring, SharedTelemetry, TelemetrySink, WindowSample};

use crate::profile::span_attribution;
use crate::registry::MetricsRegistry;
use crate::timeseries::TimeSeries;

/// Sizing knobs for a [`TelemetryRecorder`].
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Span ring capacity (most recent spans kept; older ones counted
    /// as dropped).
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        // ~64k spans ≈ 10 MB: enough to hold a full quick run and the
        // tail of a long one.
        TelemetryConfig { span_capacity: 1 << 16 }
    }
}

/// The standard in-memory recorder. All storage is preallocated at
/// construction (the time series grows one small `Copy` struct per
/// window, far off the per-access hot path), so `count`/`sample`/`span`
/// never allocate.
#[derive(Debug)]
pub struct TelemetryRecorder {
    metrics: MetricsRegistry,
    spans: Ring<AccessSpan>,
    series: TimeSeries,
    /// The attribution invariant over every span recorded so far: the
    /// first violation stays, whether or not the ring still holds its
    /// span.
    attribution: Result<(), String>,
}

impl TelemetryRecorder {
    /// A recorder sized by `cfg`.
    pub fn new(cfg: TelemetryConfig) -> Self {
        TelemetryRecorder {
            metrics: MetricsRegistry::new(),
            spans: Ring::new(cfg.span_capacity),
            series: TimeSeries::new(),
            attribution: Ok(()),
        }
    }

    /// Wraps a fresh recorder in the shared handle the instrumented
    /// components attach to.
    pub fn shared(cfg: TelemetryConfig) -> Arc<Mutex<TelemetryRecorder>> {
        Arc::new(Mutex::new(TelemetryRecorder::new(cfg)))
    }

    /// Upcasts a concrete shared recorder to the trait handle.
    pub fn as_sink(this: &Arc<Mutex<TelemetryRecorder>>) -> SharedTelemetry {
        this.clone()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span ring.
    pub fn spans(&self) -> &Ring<AccessSpan> {
        &self.spans
    }

    /// The time series of completed windows.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// [`validate_attribution`](crate::validate_attribution) over every
    /// span ever recorded, checked as each arrived — unlike the ring,
    /// which forgets all but its newest `span_capacity`.
    ///
    /// # Errors
    ///
    /// Returns the message naming the first offending span.
    pub fn attribution(&self) -> Result<(), String> {
        self.attribution.clone()
    }
}

impl TelemetrySink for TelemetryRecorder {
    #[inline]
    fn count(&mut self, id: MetricId, delta: u64) {
        self.metrics.count(id, delta);
    }

    #[inline]
    fn sample(&mut self, id: MetricId, value: u64) {
        self.metrics.sample(id, value);
    }

    #[inline]
    fn span(&mut self, span: &AccessSpan) {
        if self.attribution.is_ok() {
            self.attribution = span_attribution(span);
        }
        self.spans.push(*span);
    }

    fn window(&mut self, w: &WindowSample) {
        self.series.push(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_util::telemetry::SPAN_MAX_PHASES;
    use oram_util::{AccessAttribution, PhaseSpan, ServeClass};

    #[test]
    fn recorder_routes_all_event_kinds() {
        let shared = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 8 });
        let sink: SharedTelemetry = TelemetryRecorder::as_sink(&shared);
        {
            let mut s = sink.lock().unwrap();
            s.count(MetricId::TreetopServed, 3);
            s.sample(MetricId::StashOccupancy, 42);
            s.span(&AccessSpan {
                seq: 1,
                real: true,
                arrival: 0,
                start: 0,
                data_ready: 4,
                end: 9,
                served: ServeClass::DramReal,
                forward_index: 2,
                blocks_in_path: 24,
                stash_live: 5,
                attr: AccessAttribution::ZERO,
                phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
                phase_len: 0,
            });
            s.window(&WindowSample { index: 0, end_cycle: 100, ..Default::default() });
        }
        let r = shared.lock().unwrap();
        assert_eq!(r.metrics().counter(MetricId::TreetopServed), 3);
        assert_eq!(r.metrics().histogram(MetricId::StashOccupancy).count(), 1);
        assert_eq!(r.spans().len(), 1);
        assert_eq!(r.series().windows().len(), 1);
    }

    #[test]
    fn attribution_verdict_outlives_the_ring() {
        let mut span = AccessSpan {
            seq: 0,
            real: true,
            arrival: 0,
            start: 0,
            data_ready: 9,
            end: 9,
            served: ServeClass::DramReal,
            forward_index: 0,
            blocks_in_path: 24,
            stash_live: 0,
            attr: AccessAttribution { dram_bus: 8, ..AccessAttribution::ZERO },
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        };
        let mut rec = TelemetryRecorder::new(TelemetryConfig::default());
        assert_eq!(rec.attribution(), Ok(()));
        // One span a cycle short of its duration, then more good ones
        // than the default ring (65 536) holds.
        rec.span(&span);
        span.attr.dram_bus = 9;
        for seq in 1..=70_000 {
            span.seq = seq;
            rec.span(&span);
        }
        assert!(rec.spans().dropped() > 0 && rec.spans().iter().all(|s| s.seq > 0));
        assert_eq!(crate::validate_attribution(rec.spans()), Ok(()), "the ring forgot it");
        let verdict = rec.attribution().unwrap_err();
        assert!(verdict.starts_with("span 0: attribution 8 != duration 9"), "{verdict}");
        // The text is the ring validator's.
        let mut ring = Ring::new(1);
        span.seq = 0;
        span.attr.dram_bus = 8;
        ring.push(span);
        assert_eq!(crate::validate_attribution(&ring), Err(verdict));
    }
}
