//! Timing adapters: each wraps one public seam of the system in a
//! [`Meter`], so the traced run gets busy time and call counts where the
//! work happens without touching anything inside `crates/`.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

use oram_cpu::{MemRef, RefStream};
use oram_dram::{BlockRequest, ChannelStats, ChannelUtilization, EnergyCounters};
use oram_protocol::Block;
use oram_sim::{BatchBreakdown, StorageBackend};
use oram_util::{
    AccessSpan, LiveObserver, MetricId, ServeClass, SharedLive, SharedObserver, SharedTelemetry,
    TelemetrySink, WindowSample,
};

use crate::span::{Meter, Sampled};

/// Batches [`TimedBackend`] keeps for replay into the other backends.
const BATCH_CAPTURE: usize = 4096;
/// Spans the sink adapter keeps for replay.
const EVENT_CAPTURE: usize = 1 << 16;

/// One captured `service_batch_into` call.
#[derive(Debug, Clone)]
pub struct Batch {
    pub now: i64,
    pub reqs: Vec<BlockRequest>,
    pub occupy_bus: bool,
}

/// [`StorageBackend`] seam: times every batch, counts blocks, and keeps
/// the first batches verbatim.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    pub meter: Meter,
    pub blocks: u64,
    pub batches: Vec<Batch>,
}

impl<B: StorageBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        TimedBackend { inner, meter: Meter::default(), blocks: 0, batches: Vec::new() }
    }
}

impl<B: StorageBackend> StorageBackend for TimedBackend<B> {
    fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    ) {
        if self.batches.len() < BATCH_CAPTURE {
            self.batches.push(Batch { now, reqs: reqs.to_vec(), occupy_bus });
        }
        self.blocks += reqs.len() as u64;
        let inner = &mut self.inner;
        self.meter.time(|| inner.service_batch_into(now, reqs, occupy_bus, finishes));
    }

    fn last_batch_breakdown(&self) -> Option<BatchBreakdown> {
        self.inner.last_batch_breakdown()
    }

    fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.inner.set_observer(observer);
    }

    fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>) {
        self.inner.set_telemetry(telemetry);
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.inner.energy()
    }

    fn utilization(&self) -> Vec<ChannelUtilization> {
        self.inner.utilization()
    }

    fn wants_payloads(&self) -> bool {
        self.inner.wants_payloads()
    }

    fn persist_bucket(&mut self, bucket: u64, slots: &[Block]) {
        self.inner.persist_bucket(bucket, slots);
    }
}

/// [`TelemetrySink`] seam: times the span path and the counter path
/// separately, and keeps what replays need — whether each access was
/// real or a dummy, in order, and the first spans verbatim.
#[derive(Debug)]
pub struct TimedSink {
    inner: SharedTelemetry,
    pub span_meter: Meter,
    /// Counter and sample calls: a dozen per access, tens of nanoseconds each.
    pub other_meter: Sampled,
    pub real_flags: Vec<bool>,
    pub spans: Vec<AccessSpan>,
}

impl TimedSink {
    pub fn shared(inner: SharedTelemetry) -> Arc<Mutex<TimedSink>> {
        Arc::new(Mutex::new(TimedSink {
            inner,
            span_meter: Meter::default(),
            other_meter: Sampled::every(8),
            real_flags: Vec::new(),
            spans: Vec::new(),
        }))
    }

    fn forward(&mut self, f: impl FnOnce(&mut dyn TelemetrySink)) {
        let inner = &self.inner;
        self.other_meter.time(|| f(&mut *inner.lock().expect("inner sink poisoned")));
    }
}

impl TelemetrySink for TimedSink {
    fn count(&mut self, id: MetricId, delta: u64) {
        self.forward(|s| s.count(id, delta));
    }

    fn sample(&mut self, id: MetricId, value: u64) {
        self.forward(|s| s.sample(id, value));
    }

    fn span(&mut self, span: &AccessSpan) {
        self.real_flags.push(span.real);
        if self.spans.len() < EVENT_CAPTURE {
            self.spans.push(*span);
        }
        let inner = &self.inner;
        self.span_meter.time(|| inner.lock().expect("inner sink poisoned").span(span));
    }

    fn window(&mut self, w: &WindowSample) {
        self.forward(|s| s.window(w));
    }
}

/// [`LiveObserver`] seam: every front-end event on its way to the live
/// plane, sampled.
#[derive(Debug)]
pub struct TimedLive {
    inner: SharedLive,
    pub meter: Sampled,
}

impl TimedLive {
    pub fn shared(inner: SharedLive) -> Arc<Mutex<TimedLive>> {
        Arc::new(Mutex::new(TimedLive { inner, meter: Sampled::every(4) }))
    }
}

impl LiveObserver for TimedLive {
    fn request_complete(
        &mut self,
        now: u64,
        tenant: u32,
        shard: u32,
        class: ServeClass,
        latency: u64,
        coalesced: bool,
    ) {
        let inner = &self.inner;
        self.meter.time(|| {
            inner
                .lock()
                .expect("inner live observer poisoned")
                .request_complete(now, tenant, shard, class, latency, coalesced)
        });
    }

    fn request_rejected(&mut self, now: u64, tenant: u32) {
        let inner = &self.inner;
        self.meter.time(|| {
            inner.lock().expect("inner live observer poisoned").request_rejected(now, tenant)
        });
    }

    fn request_admitted(&mut self, now: u64, tenant: u32) {
        let inner = &self.inner;
        self.meter.time(|| {
            inner.lock().expect("inner live observer poisoned").request_admitted(now, tenant)
        });
    }
}

/// [`RefStream`] seam: times the trace generator under the core.
#[derive(Debug)]
pub struct TimedRefs<S> {
    inner: S,
    meter: Rc<RefCell<Sampled>>,
}

impl<S: RefStream> TimedRefs<S> {
    /// The meter is shared out because `InOrderCore` owns its stream and
    /// does not hand it back.
    pub fn new(inner: S) -> (Self, Rc<RefCell<Sampled>>) {
        let meter = Rc::new(RefCell::new(Sampled::every(16)));
        (TimedRefs { inner, meter: meter.clone() }, meter)
    }
}

impl<S: RefStream> RefStream for TimedRefs<S> {
    fn next_ref(&mut self) -> Option<MemRef> {
        let inner = &mut self.inner;
        self.meter.borrow_mut().time(|| inner.next_ref()).0
    }
}
