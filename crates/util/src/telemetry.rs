//! The trusted-side telemetry interface: metric identifiers, per-access
//! spans and time-series window samples.
//!
//! This is the measurement counterpart of [`crate::observe`]: where
//! [`crate::observe::BusEvent`] models what an *adversary* on the memory
//! bus can see, the types here expose what the *designer* wants to see —
//! controller-internal events (stash hit classes, shadow serving
//! positions, DRI counter transitions, duplication-queue depths) and
//! simulator-internal timing (per-access lifecycle spans, periodic
//! data/DRI windows). The two vocabularies are deliberately separate:
//! emitting telemetry must never be mistaken for widening the adversary's
//! view.
//!
//! The attachment pattern is the same as for the bus observer: every
//! instrumented component carries an `Option<SharedTelemetry>`, and when
//! none is attached a report costs a single branch on `None` — the
//! steady-state access loop stays allocation-free and effectively
//! unchanged. The trait lives here, in the only crate all instrumented
//! layers already depend on; the `oram-telemetry` crate provides the
//! standard sink (metrics registry, span ring buffer, time series) and
//! the exporters.

use std::sync::{Arc, Mutex};

/// Identifier of one metric in the fixed registry schema.
///
/// Counters accumulate event totals; distribution metrics feed
/// quantile-sketch histograms. The split is encoded by [`MetricId::kind`],
/// and [`MetricId::ALL`] enumerates the schema so sinks can size fixed
/// storage up front and exports are stable across runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum MetricId {
    // ---- counters ----
    /// Requests served by a stash hit on a live real entry.
    StashHitReal,
    /// Stash hits whose resident entry was replaceable (shadow or
    /// evicted copy — hits the baseline controller could not have had).
    StashHitReplaceable,
    /// Stash hits served specifically by a shadow-kind entry (HD-Dup's
    /// "cache hot data in the stash" effect).
    StashHitShadow,
    /// Stale copies discarded by the version/label check on load.
    StaleDiscarded,
    /// Requests served from the on-chip treetop levels.
    TreetopServed,
    /// Requests served by the DRAM path read via the real copy.
    DramServedReal,
    /// Requests served by the DRAM path read via a shadow copy strictly
    /// earlier than the real copy (the paper's early-forward effect).
    DramServedShadow,
    /// First-touch requests (no copy existed anywhere).
    FreshServed,
    /// Shadow blocks pulled from the tree into the stash during path
    /// reads (HD-Dup's stash-population mechanism).
    ShadowStashPull,
    /// Hot Address Cache observations that hit an existing line.
    HotCacheHit,
    /// Hot Address Cache observations that missed.
    HotCacheMiss,
    /// Hot Address Cache lines evicted by LFU replacement.
    HotCacheEvict,
    /// DRI saturating-counter increments (dummy/idle observations).
    DriCounterUp,
    /// DRI saturating-counter decrements (real-request observations).
    DriCounterDown,
    /// Dynamic-partition boundary moves (level changed).
    PartitionShift,
    /// Evictions (read+write path pairs) issued.
    Evictions,
    /// Shadow blocks written by RD-Dup.
    RdShadowWritten,
    /// Shadow blocks written by HD-Dup.
    HdShadowWritten,
    /// Dummy blocks written by evictions (slots no scheme could fill).
    DummyBlockWritten,
    /// Shadow writes sourced from a recirculated stash shadow.
    RecirculatedShadow,
    /// Requests admitted into a service-layer client queue.
    ServiceAdmitted,
    /// Requests merged MSHR-style onto an already-queued same-address
    /// request before the ORAM issue point (no extra access issued).
    ServiceCoalesced,
    /// Requests refused by service-layer admission control (bounded
    /// client queue was full at arrival).
    ServiceRejected,
    /// Position-map lookups answered by the PLB (no posmap-ORAM walk).
    PlbHit,
    /// Position-map lookups that missed the PLB (recursive mode walks
    /// the posmap-ORAM chain; flat mode only counts the model).
    PlbMiss,
    /// Valid PLB entries displaced by a conflicting page install.
    PlbEvict,
    // ---- distributions (quantile sketches) ----
    /// Flat path position (0 = root side) at which DRAM-served requests
    /// completed.
    ServedPosition,
    /// Flat path position the *real* copy occupied for shadow-advanced
    /// accesses.
    RealPosition,
    /// Positions saved per shadow-advanced access (real − served).
    AdvanceDepth,
    /// Duplication-queue depth sampled at each eviction write half.
    DupQueueDepth,
    /// Live stash occupancy sampled at each eviction.
    StashOccupancy,
    /// Per-channel DRAM queue occupancy sampled at batch submission.
    DramQueueDepth,
    /// Dynamic partition level sampled whenever it changes.
    PartitionLevel,
    /// Cycles a real/dummy access spent waiting for DRAM banks and the
    /// data bus (per-access, from the critical transaction of the
    /// read-only path read).
    AttrQueueWait,
    /// Cycles spent on row activate/precharge for the critical
    /// transaction (per-access).
    AttrRowOps,
    /// Cycles spent on CAS latency and burst transfer for the critical
    /// transaction (per-access).
    AttrBusTransfer,
    /// Cycles the access spent in eviction read/write phases (the
    /// paper's background/DRI overhead, per-access).
    AttrEvictionOverhead,
    /// Cycles saved by RD-Dup early forwarding (data_ready to path-read
    /// end), sampled per shadow-served access.
    ForwardSavedCycles,
    /// Estimated path-read cycles avoided by an HD-Dup shadow stash hit,
    /// sampled per shadow stash hit.
    StashPullCreditCycles,
    /// Cycles a request waited between arriving at the memory system
    /// (service queue or CPU issue) and its access starting, sampled
    /// per real access.
    ServiceQueueWait,
    /// Cycles of network round-trip latency for the critical request of
    /// the read-only path read (per-access; zero for local backends).
    /// Appended after the original schema so earlier indices are stable.
    AttrNetwork,
    /// Cycles spent walking the recursive position-map ORAM chain before
    /// the data path read could issue (per-access; zero for the flat
    /// posmap and on PLB hits). Appended at the end of the histogram
    /// block so earlier histogram indices are stable.
    AttrPosmap,
}

/// Whether a metric accumulates a total or a distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone event count.
    Counter,
    /// Value distribution, kept in a [`crate::QuantileSketch`].
    Histogram,
}

impl MetricId {
    /// Every metric in schema order (counters first, then histograms).
    pub const ALL: [MetricId; 42] = [
        MetricId::StashHitReal,
        MetricId::StashHitReplaceable,
        MetricId::StashHitShadow,
        MetricId::StaleDiscarded,
        MetricId::TreetopServed,
        MetricId::DramServedReal,
        MetricId::DramServedShadow,
        MetricId::FreshServed,
        MetricId::ShadowStashPull,
        MetricId::HotCacheHit,
        MetricId::HotCacheMiss,
        MetricId::HotCacheEvict,
        MetricId::DriCounterUp,
        MetricId::DriCounterDown,
        MetricId::PartitionShift,
        MetricId::Evictions,
        MetricId::RdShadowWritten,
        MetricId::HdShadowWritten,
        MetricId::DummyBlockWritten,
        MetricId::RecirculatedShadow,
        MetricId::ServiceAdmitted,
        MetricId::ServiceCoalesced,
        MetricId::ServiceRejected,
        MetricId::PlbHit,
        MetricId::PlbMiss,
        MetricId::PlbEvict,
        MetricId::ServedPosition,
        MetricId::RealPosition,
        MetricId::AdvanceDepth,
        MetricId::DupQueueDepth,
        MetricId::StashOccupancy,
        MetricId::DramQueueDepth,
        MetricId::PartitionLevel,
        MetricId::AttrQueueWait,
        MetricId::AttrRowOps,
        MetricId::AttrBusTransfer,
        MetricId::AttrEvictionOverhead,
        MetricId::ForwardSavedCycles,
        MetricId::StashPullCreditCycles,
        MetricId::ServiceQueueWait,
        MetricId::AttrNetwork,
        MetricId::AttrPosmap,
    ];

    /// Dense index of this metric (stable; usable for fixed arrays).
    #[inline]
    pub fn index(self) -> usize {
        self as u16 as usize
    }

    /// Counter or histogram.
    pub fn kind(self) -> MetricKind {
        if self.index() < MetricId::ServedPosition.index() {
            MetricKind::Counter
        } else {
            MetricKind::Histogram
        }
    }

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            MetricId::StashHitReal => "stash_hit_real",
            MetricId::StashHitReplaceable => "stash_hit_replaceable",
            MetricId::StashHitShadow => "stash_hit_shadow",
            MetricId::StaleDiscarded => "stale_discarded",
            MetricId::TreetopServed => "treetop_served",
            MetricId::DramServedReal => "dram_served_real",
            MetricId::DramServedShadow => "dram_served_shadow",
            MetricId::FreshServed => "fresh_served",
            MetricId::ShadowStashPull => "shadow_stash_pull",
            MetricId::HotCacheHit => "hot_cache_hit",
            MetricId::HotCacheMiss => "hot_cache_miss",
            MetricId::HotCacheEvict => "hot_cache_evict",
            MetricId::DriCounterUp => "dri_counter_up",
            MetricId::DriCounterDown => "dri_counter_down",
            MetricId::PartitionShift => "partition_shift",
            MetricId::Evictions => "evictions",
            MetricId::RdShadowWritten => "rd_shadow_written",
            MetricId::HdShadowWritten => "hd_shadow_written",
            MetricId::DummyBlockWritten => "dummy_block_written",
            MetricId::RecirculatedShadow => "recirculated_shadow",
            MetricId::ServiceAdmitted => "service_admitted",
            MetricId::ServiceCoalesced => "service_coalesced",
            MetricId::ServiceRejected => "service_rejected",
            MetricId::PlbHit => "plb_hit",
            MetricId::PlbMiss => "plb_miss",
            MetricId::PlbEvict => "plb_evict",
            MetricId::ServedPosition => "served_position",
            MetricId::RealPosition => "real_position",
            MetricId::AdvanceDepth => "advance_depth",
            MetricId::DupQueueDepth => "dup_queue_depth",
            MetricId::StashOccupancy => "stash_occupancy",
            MetricId::DramQueueDepth => "dram_queue_depth",
            MetricId::PartitionLevel => "partition_level",
            MetricId::AttrQueueWait => "attr_queue_wait",
            MetricId::AttrRowOps => "attr_row_ops",
            MetricId::AttrBusTransfer => "attr_bus_transfer",
            MetricId::AttrEvictionOverhead => "attr_eviction_overhead",
            MetricId::ForwardSavedCycles => "forward_saved_cycles",
            MetricId::StashPullCreditCycles => "stash_pull_credit_cycles",
            MetricId::ServiceQueueWait => "service_queue_wait",
            MetricId::AttrNetwork => "attr_network",
            MetricId::AttrPosmap => "attr_posmap",
        }
    }
}

/// Where one access's requested data came from, at span granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeClass {
    /// On-chip stash hit.
    Stash,
    /// On-chip treetop hit during the path read.
    Treetop,
    /// DRAM path read, served by the authoritative real copy.
    DramReal,
    /// DRAM path read, served early by a shadow copy.
    DramShadow,
    /// First touch: value is architecturally zero.
    Fresh,
    /// Dummy access (timing protection): serves nothing.
    Dummy,
}

impl ServeClass {
    /// Every class in declaration order, so `ALL[c as usize] == c`: a
    /// class indexes per-class arrays by its discriminant.
    pub const ALL: [ServeClass; 6] = [
        ServeClass::Stash,
        ServeClass::Treetop,
        ServeClass::DramReal,
        ServeClass::DramShadow,
        ServeClass::Fresh,
        ServeClass::Dummy,
    ];

    /// Stable snake_case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            ServeClass::Stash => "stash",
            ServeClass::Treetop => "treetop",
            ServeClass::DramReal => "dram_real",
            ServeClass::DramShadow => "dram_shadow",
            ServeClass::Fresh => "fresh",
            ServeClass::Dummy => "dummy",
        }
    }
}

/// One timed DRAM phase inside an access span. Uses the bus-phase
/// vocabulary from [`crate::observe`] — the phase structure is the same
/// object seen from the trusted side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which phase this is.
    pub kind: crate::observe::BusPhase,
    /// CPU cycle the phase began occupying the memory system.
    pub start: u64,
    /// CPU cycle the phase completed.
    pub end: u64,
}

impl PhaseSpan {
    /// A zeroed placeholder filling unused slots of the fixed array.
    pub const EMPTY: PhaseSpan =
        PhaseSpan { kind: crate::observe::BusPhase::ReadOnly, start: 0, end: 0 };
}

/// Maximum DRAM phases per access (read-only + eviction read/write).
pub const SPAN_MAX_PHASES: usize = 3;

/// Per-access cycle attribution: where a span's `end − start` cycles
/// went, in named causes, plus the duplication credits.
///
/// The six latency components partition the span exactly:
/// `dram_queue + dram_row + network + dram_bus + eviction + posmap ==
/// end − start` for every span (on-chip serves have all six at zero
/// because they never occupy the memory system). The queue/row/network/bus
/// split comes from the *critical* request of the read-only path read —
/// the one whose finish time bounds the phase — so attributing its
/// wait, positioning, round trips and transfer accounts for the whole
/// phase duration. `network` is zero for local backends (DRAM, disk);
/// boundary rounding from the backend→CPU clock conversion lands
/// deterministically in the component whose boundary crossed it.
///
/// The two credit fields are *not* part of the latency sum: they record
/// cycles the duplication mechanisms saved, and they are mutually
/// exclusive by serve class (`forward_saved` only on shadow DRAM
/// serves, `stash_pull_credit` only on shadow stash hits). A baseline
/// (Tiny) run therefore attributes exactly 0 to duplication.
///
/// `queue_wait` sits outside the latency partition too: it covers the
/// `arrival → start` interval *before* the span's `start..end` window —
/// time the request spent queued (service-layer client queues and
/// backpressure, or the controller being busy with a previous access).
/// It always equals `start − arrival` of the owning span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessAttribution {
    /// Cycles between the request arriving at the memory system and its
    /// access starting (pre-issue queueing; not part of the `start..end`
    /// latency partition).
    pub queue_wait: u64,
    /// Cycles waiting for banks, refresh and the data bus before the
    /// critical transaction could issue.
    pub dram_queue: u64,
    /// Cycles spent on row precharge/activate (or device positioning)
    /// for the critical transaction.
    pub dram_row: u64,
    /// Cycles of network round-trip latency for the critical request
    /// (simulated-WAN backend; zero for local backends).
    pub network: u64,
    /// Cycles of CAS latency plus burst transfer for the critical
    /// transaction.
    pub dram_bus: u64,
    /// Cycles spent in the eviction read/write halves (background/DRI
    /// overhead attached to this access).
    pub eviction: u64,
    /// Cycles spent walking the recursive position-map ORAM chain
    /// before the data path read issued (zero for the flat posmap and
    /// for PLB hits).
    pub posmap: u64,
    /// RD-Dup early-forward savings: cycles between the shadow copy's
    /// data arrival and the end of the path read.
    pub forward_saved: u64,
    /// HD-Dup stash-pull credit: estimated path-read cycles this shadow
    /// stash hit avoided (running mean of recent DRAM access times).
    pub stash_pull_credit: u64,
}

impl AccessAttribution {
    /// All-zero attribution (on-chip serves, unattributed spans).
    pub const ZERO: AccessAttribution = AccessAttribution {
        queue_wait: 0,
        dram_queue: 0,
        dram_row: 0,
        network: 0,
        dram_bus: 0,
        eviction: 0,
        posmap: 0,
        forward_saved: 0,
        stash_pull_credit: 0,
    };

    /// Sum of the latency components (must equal the span duration).
    pub fn latency_total(&self) -> u64 {
        self.dram_queue + self.dram_row + self.network + self.dram_bus + self.eviction + self.posmap
    }
}

/// The full lifecycle of one ORAM access as the simulator timed it:
/// arrival → issue → per-phase DRAM occupancy → data forwarding →
/// completion. Plain `Copy` data so recording into a preallocated ring
/// buffer never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpan {
    /// Monotone per-engine sequence number.
    pub seq: u64,
    /// `false` for injected dummy accesses.
    pub real: bool,
    /// CPU cycle the request arrived at the memory system.
    pub arrival: u64,
    /// CPU cycle the access started (slot-aligned under timing
    /// protection, queued behind the previous access otherwise).
    pub start: u64,
    /// CPU cycle the requested data reached the CPU (early forwarding
    /// lands this before `end` on shadow-advanced accesses).
    pub data_ready: u64,
    /// CPU cycle the memory system finished all phases.
    pub end: u64,
    /// Where the data came from.
    pub served: ServeClass,
    /// Flat path position of the serving block for DRAM serves;
    /// `u32::MAX` when not applicable.
    pub forward_index: u32,
    /// Total DRAM blocks in the read-only path read (0 for pure on-chip
    /// serves).
    pub blocks_in_path: u32,
    /// Live stash occupancy right after the access.
    pub stash_live: u32,
    /// Cycle attribution: named causes summing exactly to `end − start`,
    /// plus duplication credits.
    pub attr: AccessAttribution,
    /// Timed DRAM phases, `phase_len` of them valid.
    pub phases: [PhaseSpan; SPAN_MAX_PHASES],
    /// Number of valid entries in `phases`.
    pub phase_len: u8,
}

impl AccessSpan {
    /// The valid phases as a slice.
    pub fn phases(&self) -> &[PhaseSpan] {
        &self.phases[..self.phase_len as usize]
    }

    /// Appends a phase.
    ///
    /// # Panics
    ///
    /// Panics if [`SPAN_MAX_PHASES`] phases are already recorded.
    pub fn push_phase(&mut self, p: PhaseSpan) {
        assert!((self.phase_len as usize) < SPAN_MAX_PHASES, "span phase overflow");
        self.phases[self.phase_len as usize] = p;
        self.phase_len += 1;
    }
}

/// One periodic time-series window: where cycles went between two sample
/// points (the paper's Eq. 1 split, per window instead of per run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSample {
    /// Window index (0-based, monotone).
    pub index: u64,
    /// First CPU cycle covered.
    pub start_cycle: u64,
    /// One past the last CPU cycle covered.
    pub end_cycle: u64,
    /// Real data requests that touched DRAM in the window.
    pub data_requests: u64,
    /// Requests served on chip in the window.
    pub onchip_served: u64,
    /// Dummy requests in the window.
    pub dummy_requests: u64,
    /// Cycles a real data request occupied the memory system.
    pub data_cycles: u64,
    /// Everything else (Eq. 1's DRI residual for the window).
    pub dri_cycles: u64,
    /// Shadow-advanced accesses in the window.
    pub shadow_advanced: u64,
    /// Live stash occupancy at the sample point.
    pub stash_live: u32,
}

/// A sink for telemetry events.
///
/// Implementations must be cheap: whenever a sink is attached, the
/// controller reports each access half's counter deltas and samples in
/// one batch of calls, and the engine adds one span per access. The
/// standard implementation (the `oram-telemetry` registry/ring/time-series
/// recorder) performs no allocation in `count`, `sample` or `span`.
pub trait TelemetrySink: std::fmt::Debug + Send {
    /// Adds `delta` to a counter metric.
    fn count(&mut self, id: MetricId, delta: u64);
    /// Records one sample of a distribution metric.
    fn sample(&mut self, id: MetricId, value: u64);
    /// Records one completed access lifecycle span.
    fn span(&mut self, span: &AccessSpan);
    /// Records one completed time-series window.
    fn window(&mut self, w: &WindowSample);
}

/// A shareable, thread-safe telemetry handle. The same handle can be
/// attached to the controller, the DRAM system and the engine at once,
/// producing one coherent stream.
pub type SharedTelemetry = Arc<Mutex<dyn TelemetrySink>>;

/// A sink for *service-level* live events: per-request completions and
/// rejections with their public dimensions (tenant, shard, serve class).
///
/// This is the front-end counterpart of [`TelemetrySink`] (which carries
/// the engine-side stream: counters, spans, windows). The live
/// observability plane in `oram-obsv` implements both so a single object
/// can aggregate the full picture during a run. Like `TelemetrySink`,
/// implementations must be cheap and allocation-free: the hooks fire
/// once per request on the service hot path whenever an observer is
/// attached.
///
/// Every field is already part of the public surface: tenant/client ids,
/// the shard a request dispatched to (`addr % M` is public routing per
/// the sharding design), serve classes, and cycle timings are all
/// visible to the existing reports. No secret addresses appear here —
/// the audit's relabeling distinguisher holds the observer stream to
/// that contract.
pub trait LiveObserver: std::fmt::Debug + Send {
    /// A request completed: served at `now` (its data-ready cycle) for
    /// `tenant`, dispatched to `shard`, served from `class`, with
    /// end-to-end `latency` cycles (data-ready − arrival). `coalesced`
    /// marks MSHR followers that piggybacked on a leader's access.
    fn request_complete(
        &mut self,
        now: u64,
        tenant: u32,
        shard: u32,
        class: ServeClass,
        latency: u64,
        coalesced: bool,
    );
    /// A request was rejected by admission control at cycle `now` for
    /// `tenant`.
    fn request_rejected(&mut self, now: u64, tenant: u32);
    /// A request was admitted into a service-layer client queue at cycle
    /// `now` for `tenant`. Default no-op so observers that only consume
    /// completions/rejections need not implement it; the flight recorder
    /// captures these to reconstruct admission history around an
    /// incident.
    fn request_admitted(&mut self, _now: u64, _tenant: u32) {}
}

/// A shareable, thread-safe live-observer handle.
pub type SharedLive = Arc<Mutex<dyn LiveObserver>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_serve_class_indexes_its_own_slot() {
        for (i, c) in ServeClass::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
    }

    #[test]
    fn schema_indices_are_dense_and_stable() {
        for (i, id) in MetricId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "{id:?} out of order in ALL");
        }
        // Counters strictly precede histograms.
        let first_hist = MetricId::ServedPosition.index();
        for id in MetricId::ALL {
            match id.kind() {
                MetricKind::Counter => assert!(id.index() < first_hist),
                MetricKind::Histogram => assert!(id.index() >= first_hist),
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = MetricId::ALL.iter().map(|m| m.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), MetricId::ALL.len());
    }

    #[test]
    fn span_phases_push_and_slice() {
        let mut s = AccessSpan {
            seq: 0,
            real: true,
            arrival: 0,
            start: 0,
            data_ready: 0,
            end: 0,
            served: ServeClass::Stash,
            forward_index: u32::MAX,
            blocks_in_path: 0,
            stash_live: 0,
            attr: AccessAttribution::ZERO,
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        };
        assert!(s.phases().is_empty());
        s.push_phase(PhaseSpan { kind: crate::observe::BusPhase::ReadOnly, start: 1, end: 5 });
        assert_eq!(s.phases().len(), 1);
        assert_eq!(s.phases()[0].end, 5);
    }

    #[test]
    fn spans_are_copy_and_compact() {
        // One span per access lands in a preallocated ring: keep it flat
        // and modest (no heap indirection).
        assert!(std::mem::size_of::<AccessSpan>() <= 216);
        let s = AccessSpan {
            seq: 1,
            real: false,
            arrival: 2,
            start: 3,
            data_ready: 4,
            end: 5,
            served: ServeClass::Dummy,
            forward_index: u32::MAX,
            blocks_in_path: 0,
            stash_live: 9,
            attr: AccessAttribution::ZERO,
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        };
        let t = s;
        assert_eq!(s, t);
    }

    #[test]
    fn attribution_components_sum() {
        let a = AccessAttribution {
            queue_wait: 500,
            dram_queue: 10,
            dram_row: 20,
            network: 15,
            dram_bus: 30,
            eviction: 40,
            posmap: 25,
            forward_saved: 99,
            stash_pull_credit: 0,
        };
        // Credits are not part of the latency partition.
        assert_eq!(a.latency_total(), 140);
        assert_eq!(AccessAttribution::ZERO.latency_total(), 0);
        assert_eq!(AccessAttribution::default(), AccessAttribution::ZERO);
    }
}
