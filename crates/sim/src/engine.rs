//! The full-system engine: drives an LLC miss stream through the ORAM
//! controller and the DRAM timing model, producing the paper's Eq. 1
//! decomposition (`total = data access time + DRI`).
//!
//! Timeline model (all times in CPU cycles):
//!
//! * the CPU computes `gap` cycles after the previous blocking miss's data
//!   arrived, then issues the next request;
//! * the ORAM controller serializes accesses: a request starts no earlier
//!   than the end of the previous access's phases — or, with
//!   [`SystemConfig::pipeline`], of its path read, so its eviction drains
//!   under the next path read unless a hazard stalls that read;
//! * with timing protection, accesses start only on multiples of the slot
//!   period, and empty slots carry dummy accesses;
//! * within a read-only path read, the requested data becomes available at
//!   the completion time of the earliest current copy (shadow advancing
//!   shows up here), plus AES latency; with XOR compression it is instead
//!   available at the end of the path read.

use oram_dram::{BlockRequest, DramSystem, SubtreeLayout};
use oram_protocol::{
    Block, BlockAddr, BucketId, LeafLabel, OramController, PathPhase, PhaseKind, PosmapPhase,
    Request, ServedFrom, SharedObserver,
};
use oram_storage::{DramBackend, StorageBackend};
use oram_util::telemetry::SPAN_MAX_PHASES;
use oram_util::{
    AccessAttribution, AccessSpan, BusPhase, MetricId, PhaseSpan, QuantileSketch, ServeClass,
    SharedTelemetry, WindowSample,
};

use oram_cpu::{MissRecord, MissStream};

use crate::config::SystemConfig;
use crate::stats::SimStats;

/// How one access resolved in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccessTiming {
    /// When the requested data reached the CPU.
    data_ready: u64,
    /// When the memory system finished all phases.
    end: u64,
    /// Whether any DRAM phases ran.
    touched_dram: bool,
}

/// How one externally scheduled request resolved (the service layer's
/// view of [`Engine::serve_request`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// CPU cycle the requested data reached the requester.
    pub data_ready: u64,
    /// CPU cycle the memory system finished all phases of the access.
    pub end: u64,
    /// Where the data came from.
    pub served: ServeClass,
    /// Whether the access occupied the DRAM path (false for pure
    /// on-chip serves).
    pub touched_dram: bool,
}

/// The system engine, generic over the bucket-storage backend that
/// answers path I/O. The default [`DramBackend`] reproduces the
/// original hard-wired DRAM engine bit for bit; [`Engine::with_backend`]
/// swaps in any other [`StorageBackend`] (persistent disk, simulated
/// WAN) without touching the protocol or attribution machinery.
#[derive(Debug)]
pub struct Engine<B: StorageBackend = DramBackend> {
    cfg: SystemConfig,
    controller: OramController,
    backend: B,
    layout: SubtreeLayout,
    /// When the memory system becomes free.
    controller_free: u64,
    /// In-flight eviction tail under pipelining: the eviction path's
    /// leaf and the cycle its write half drains. The next path read may
    /// start under this tail unless a hazard stalls it.
    pending_evict: Option<(LeafLabel, u64)>,
    /// Accesses whose path read overlapped an in-flight eviction tail.
    pipeline_overlapped: u64,
    /// Accesses stalled behind an eviction tail by a hazard.
    pipeline_stalled: u64,
    /// Running mean duration of a real DRAM-touching access (for the
    /// long-gap heuristic feeding dynamic partitioning).
    mean_access_cycles: f64,
    /// Statistics accumulated so far (Eq. 1 is closed by `finalize`).
    stats: SimStats,
    /// Reusable per-phase request buffer: sized once to a full path's
    /// blocks, then recycled so the steady-state access loop never
    /// allocates.
    reqs: Vec<BlockRequest>,
    /// The eviction read (and its bucket offset) whose requests `reqs`
    /// holds, if it was the last batch built: its write half goes out
    /// over the same addresses.
    reqs_read: Option<(PathPhase, u64)>,
    /// Reusable completion-time buffer matching `reqs`.
    finishes: Vec<i64>,
    /// Per-access live stash occupancy (sampled after every controller
    /// access; the Path ORAM overflow argument lives in its tail).
    stash_hist: QuantileSketch,
    /// Optional telemetry sink; `None` costs one branch per hook site.
    telemetry: Option<SharedTelemetry>,
    /// Time-series window length in CPU cycles (0 disables windows).
    window_cycles: u64,
    /// Monotone span sequence number.
    span_seq: u64,
    /// Cumulative-counter snapshot at the open window's start.
    window: WindowCursor,
    /// Per-access phase timing scratch, filled by `run_phase` when
    /// telemetry is attached (fixed array: no allocation).
    phase_scratch: [PhaseSpan; SPAN_MAX_PHASES],
    phase_scratch_len: u8,
    /// Per-access cycle-attribution scratch, filled alongside
    /// `phase_scratch` (plain `Copy` data: no allocation).
    attr_scratch: AccessAttribution,
    /// Reusable posmap-walk phase buffer: the controller's pending
    /// posmap-ORAM phases are copied here before costing so the batch
    /// loop can borrow the backend mutably. Empty on flat backends and
    /// PLB hits, so the steady-state hot path never touches it.
    posmap_scratch: Vec<PosmapPhase>,
    /// One bucket's worth of blocks (`Z`): the tree stores packed slots,
    /// so a bucket headed for `StorageBackend::persist_bucket` is
    /// unpacked here first.
    bucket_scratch: Vec<Block>,
    /// The attached bus observer, kept so posmap walk batches can run
    /// with the backend observer detached (the combined trace carries
    /// `PosmapBucket` framing from the controller; device-level
    /// `DramBlock` events for walk batches would break the data-ORAM
    /// trace's flat-identity).
    bus_observer: Option<SharedObserver>,
}

/// Snapshot of the cumulative counters at the start of the open
/// time-series window, so each window emits deltas.
#[derive(Debug, Clone, Copy, Default)]
struct WindowCursor {
    index: u64,
    start_cycle: u64,
    data_requests: u64,
    onchip_served: u64,
    dummy_requests: u64,
    data_cycles: u64,
    shadow_advanced: u64,
}

impl Engine<DramBackend> {
    /// Builds an engine over the default DRAM timing backend.
    ///
    /// # Errors
    ///
    /// Returns the validation error of any component.
    pub fn new(cfg: SystemConfig) -> Result<Self, String> {
        cfg.validate()?;
        let backend = DramBackend::new(cfg.dram)?;
        Self::with_backend(cfg, backend)
    }

    /// Read access to the DRAM system (utilization counters, energy).
    pub fn dram(&self) -> &DramSystem {
        self.backend.system()
    }
}

impl<B: StorageBackend> Engine<B> {
    /// Builds an engine over an explicit storage backend. The backend
    /// must answer addresses produced by the [`SubtreeLayout`] derived
    /// from `cfg.dram` (every backend reuses that address map so bus
    /// traces stay backend-invariant).
    ///
    /// # Errors
    ///
    /// Returns the validation error of any component.
    pub fn with_backend(cfg: SystemConfig, backend: B) -> Result<Self, String> {
        cfg.validate()?;
        let controller = OramController::new(cfg.oram)?;
        let layout = SubtreeLayout::fit_to_row(&cfg.dram, cfg.oram.z);
        let path_blocks = (cfg.oram.levels as usize + 1) * cfg.oram.z;
        Ok(Engine {
            controller,
            backend,
            layout,
            controller_free: 0,
            pending_evict: None,
            pipeline_overlapped: 0,
            pipeline_stalled: 0,
            mean_access_cycles: 0.0,
            stats: SimStats::default(),
            reqs: Vec::with_capacity(path_blocks),
            reqs_read: None,
            finishes: Vec::with_capacity(path_blocks),
            stash_hist: QuantileSketch::new(),
            telemetry: None,
            window_cycles: 0,
            span_seq: 0,
            window: WindowCursor::default(),
            phase_scratch: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_scratch_len: 0,
            attr_scratch: AccessAttribution::ZERO,
            posmap_scratch: Vec::with_capacity(16),
            bucket_scratch: vec![Block::DUMMY; cfg.oram.z],
            bus_observer: None,
            cfg,
        })
    }

    /// Attaches one bus observer to both ends of the controller↔storage
    /// boundary, producing a single interleaved trace: access framing and
    /// bucket order from the controller, device-level block requests from
    /// the storage backend.
    pub fn attach_bus_observer(&mut self, observer: SharedObserver) {
        self.controller.set_observer(Some(observer.clone()));
        self.backend.set_observer(Some(observer.clone()));
        self.bus_observer = Some(observer);
    }

    /// Detaches any attached bus observer from both components.
    pub fn detach_bus_observer(&mut self) {
        self.controller.set_observer(None);
        self.backend.set_observer(None);
        self.bus_observer = None;
    }

    /// Attaches one telemetry sink to the whole stack: the controller's
    /// event counters, the DRAM system's queue sampling, and the
    /// engine's own per-access spans and periodic time-series windows
    /// (`window_cycles` CPU cycles per window; 0 disables windows).
    /// Attaching mid-run is fine — the first window opens at the current
    /// cycle, so warmup can run dark.
    pub fn attach_telemetry(&mut self, telemetry: SharedTelemetry, window_cycles: u64) {
        self.controller.set_telemetry(Some(telemetry.clone()));
        self.backend.set_telemetry(Some(telemetry.clone()));
        self.telemetry = Some(telemetry);
        self.window_cycles = window_cycles;
        self.window = self.window_snapshot(self.window.index);
    }

    /// Detaches the telemetry sink from every component. The open
    /// time-series window (if any) is flushed first so no completed work
    /// goes unreported.
    pub fn detach_telemetry(&mut self) {
        if self.telemetry.is_some() && self.window_cycles > 0 {
            self.flush_window();
        }
        self.controller.set_telemetry(None);
        self.backend.set_telemetry(None);
        self.telemetry = None;
        self.window_cycles = 0;
    }

    /// A cursor capturing the cumulative counters right now, opening
    /// window `index` at the current cycle.
    fn window_snapshot(&self, index: u64) -> WindowCursor {
        WindowCursor {
            index,
            start_cycle: self.controller_free,
            data_requests: self.stats.data_requests,
            onchip_served: self.stats.onchip_served,
            dummy_requests: self.stats.dummy_requests,
            data_cycles: self.stats.data_cycles,
            shadow_advanced: self.controller.stats().shadow_advanced,
        }
    }

    /// Closes the open window at the current cycle, emitting the deltas
    /// accumulated since its start, and opens the next one.
    fn flush_window(&mut self) {
        let now = self.controller_free;
        let cur = self.window;
        if now <= cur.start_cycle {
            return; // nothing elapsed: nothing to report
        }
        let data_cycles = self.stats.data_cycles - cur.data_cycles;
        let sample = WindowSample {
            index: cur.index,
            start_cycle: cur.start_cycle,
            end_cycle: now,
            data_requests: self.stats.data_requests - cur.data_requests,
            onchip_served: self.stats.onchip_served - cur.onchip_served,
            dummy_requests: self.stats.dummy_requests - cur.dummy_requests,
            data_cycles,
            dri_cycles: (now - cur.start_cycle).saturating_sub(data_cycles),
            shadow_advanced: self.controller.stats().shadow_advanced - cur.shadow_advanced,
            stash_live: self.controller.stash().live() as u32,
        };
        if let Some(t) = &self.telemetry {
            t.lock().expect("telemetry poisoned").window(&sample);
        }
        self.window = self.window_snapshot(cur.index + 1);
    }

    /// The live stash-occupancy sketch, one sample per controller
    /// access (real or dummy) since construction.
    pub fn stash_occupancy(&self) -> &QuantileSketch {
        &self.stash_hist
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Access to the controller (prefill, diagnostics).
    pub fn controller_mut(&mut self) -> &mut OramController {
        &mut self.controller
    }

    /// Immutable controller access.
    pub fn controller(&self) -> &OramController {
        &self.controller
    }

    /// Read access to the storage backend (stats, utilization, energy).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the storage backend (persistent-store
    /// inspection, error draining).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Pre-installs the working set `0..blocks`; see [`Engine::prefill`].
    pub fn prefill_working_set(&mut self, blocks: u64) {
        self.prefill(0..blocks);
    }

    /// Pre-installs the given block addresses (see
    /// [`OramController::prefill`]); call before [`Engine::run`]. For a
    /// persistent backend the whole post-prefill tree is synced so the
    /// durable image starts consistent.
    pub fn prefill(&mut self, addrs: impl IntoIterator<Item = u64>) {
        self.controller.prefill(addrs.into_iter().map(|a| (BlockAddr::new(a), 0)));
        if self.backend.wants_payloads() {
            for raw in 1..=self.controller.shape().bucket_count() {
                self.persist_bucket(BucketId::new(raw));
            }
        }
    }

    /// Mirrors the tree's current contents of bucket `id` to the backend.
    fn persist_bucket(&mut self, id: BucketId) {
        self.controller.tree().read_bucket(id, &mut self.bucket_scratch);
        self.backend.persist_bucket(id.raw() - 1, &self.bucket_scratch);
    }

    /// Runs the whole miss stream to completion and returns the final
    /// statistics. Can be called repeatedly; state (tree, caches inside
    /// the stream, DRAM banks) persists, and statistics accumulate.
    pub fn run<S: MissStream>(&mut self, misses: &mut S) -> SimStats {
        let mut cpu_ready: u64 = self.controller_free; // CPU may issue from here
        while let Some(miss) = misses.next_miss() {
            self.stats.misses_consumed += 1;
            cpu_ready = cpu_ready.saturating_add(miss.gap_cycles);
            let (timing, _) = self.dispatch(&miss, cpu_ready);
            if miss.blocking {
                cpu_ready = timing.data_ready;
            }
        }
        self.finalize();
        self.stats
    }

    /// Issues one externally scheduled request: the entry point for the
    /// service layer, which schedules its own batches instead of
    /// replaying a closed-loop miss stream.
    ///
    /// `arrival` is the CPU cycle the request reached the memory
    /// system; the access starts at `max(arrival, now)` (or the next
    /// timing-protection slot, with dummy accesses filling any idle
    /// slots in between, exactly as [`Engine::run`] would). The engine
    /// stays consistent with [`Engine::run`] — statistics accumulate,
    /// telemetry spans and bus events are emitted identically — so a
    /// service-driven run is auditable by the same machinery.
    ///
    /// Call [`Engine::finish`] after the last request to close the
    /// Eq. 1 accounting.
    pub fn serve_request(&mut self, addr: u64, is_write: bool, arrival: u64) -> ServeOutcome {
        self.stats.misses_consumed += 1;
        let miss = MissRecord { block_addr: addr, is_write, gap_cycles: 0, blocking: true };
        let (timing, served) = self.dispatch(&miss, arrival);
        ServeOutcome {
            data_ready: timing.data_ready,
            end: timing.end,
            served,
            touched_dram: timing.touched_dram,
        }
    }

    /// The current cycle: when the memory system becomes free.
    pub fn cycle(&self) -> u64 {
        self.controller_free
    }

    /// Completes the Eq. 1 accounting for an externally driven run (the
    /// counterpart of the bookkeeping [`Engine::run`] performs after
    /// draining its miss stream) and returns the statistics.
    pub fn finish(&mut self) -> SimStats {
        self.finalize();
        self.stats
    }

    /// Issues one miss at its ready time, injecting dummy slots first when
    /// timing protection is on. Returns the access timing and serve class.
    fn dispatch(&mut self, miss: &MissRecord, ready: u64) -> (AccessTiming, ServeClass) {
        let req = if miss.is_write {
            Request::write(BlockAddr::new(miss.block_addr), 0)
        } else {
            Request::read(BlockAddr::new(miss.block_addr))
        };

        // On-chip stash hits bypass the memory pipeline entirely: the CAM
        // answers while the DRAM side keeps whatever it was doing, and no
        // request slot is consumed (nothing externally visible happens).
        if self.controller.stash_would_serve(req.addr) {
            return self.execute(Some(req), ready, ready);
        }

        match self.cfg.timing_protection {
            None => {
                // Dynamic-partitioning feedback: a gap much longer than an
                // access means a dummy would have been injected.
                if self.mean_access_cycles > 0.0 {
                    let idle = ready.saturating_sub(self.controller_free) as f64;
                    if idle > self.cfg.long_gap_factor * self.mean_access_cycles {
                        self.controller.record_long_gap();
                    }
                }
                self.execute(Some(req), ready, ready.max(self.controller_free))
            }
            Some(rate) => {
                // Fill slots with dummies until the request is ready.
                loop {
                    let slot = next_slot(self.controller_free, rate);
                    if slot >= ready {
                        return self.execute(Some(req), ready, slot);
                    }
                    self.execute(None, slot, slot);
                }
            }
        }
    }

    /// Runs one access — `req`, or a dummy when `None` — that arrived at
    /// `arrival` and may start at `start`: the controller's issue half,
    /// the hazard check against an in-flight eviction tail, the
    /// completion half, then the posmap walk and every phase on the
    /// storage backend. Protocol state and the bus trace are the same
    /// with and without [`SystemConfig::pipeline`], which decides only
    /// whether the memory system frees after the path read (leaving the
    /// eviction as the in-flight tail) or after the eviction.
    fn execute(
        &mut self,
        req: Option<Request>,
        arrival: u64,
        mut start: u64,
    ) -> (AccessTiming, ServeClass) {
        let (mut result, ticket) = match req {
            Some(req) => {
                let (result, ticket) = self.controller.access_issue(req);
                (result, Some(ticket))
            }
            None => (self.controller.dummy_access(), None),
        };
        // A path read of the leaf the in-flight writeback is rewriting
        // waits for it to drain, as does one the stash cannot absorb;
        // anything else overlaps (bucket-level collisions serialize inside
        // the DRAM bank model). The stash is read before this access's
        // own eviction refills it.
        let tail = self.pending_evict.filter(|&(_, ev_end)| start < ev_end);
        if let (Some(ro), Some((ev_leaf, ev_end))) = (result.phases.first(), tail) {
            if self.evict_hazard(ro.leaf, ev_leaf) {
                self.pipeline_stalled += 1;
                start = ev_end;
            } else {
                self.pipeline_overlapped += 1;
            }
        }
        if let Some((er, ew)) = ticket.and_then(|t| self.controller.access_complete(t)) {
            result.phases.push(er);
            result.phases.push(ew);
        }
        self.stash_hist.record(self.controller.stash().live() as u64);

        self.phase_scratch_len = 0;
        self.attr_scratch = AccessAttribution::ZERO;
        let (timing, span_end) = if result.phases.is_empty() {
            // Pure on-chip service.
            let data_ready = start + u64::from(self.cfg.onchip_latency_cycles);
            (AccessTiming { data_ready, end: start, touched_dram: false }, start)
        } else {
            // A pending posmap walk resolves the leaf label before the
            // data tree can be addressed, so it sits on the critical path.
            let mut t = self.cost_posmap_walk(start);
            let mut data_ready = None;
            let mut ro_end = t;
            for (i, phase) in result.phases.iter().enumerate() {
                t = self.run_phase(phase, result.served, start, t, &mut data_ready);
                if i == 0 {
                    ro_end = t;
                }
            }
            let end = if self.cfg.pipeline {
                if let Some(er) = result.phases.get(1) {
                    self.pending_evict = (t > ro_end).then_some((er.leaf, t));
                }
                ro_end
            } else {
                t
            };
            self.controller_free = end;
            let data_ready = data_ready.unwrap_or(end);
            (AccessTiming { data_ready, end, touched_dram: true }, t)
        };

        debug_assert!(timing.end >= start);
        match req {
            // Dummy time is DRI by definition: finalize() counts it.
            None => self.stats.dummy_requests += 1,
            // Eq. 1 charges the access's critical path; an overlapped
            // eviction tail is DRI unless it is the run's tail.
            Some(_) if timing.touched_dram => {
                self.stats.data_requests += 1;
                self.stats.data_cycles += timing.end - start;
                let dur = (timing.end - start) as f64;
                // Exponential moving average of access duration.
                self.mean_access_cycles = if self.mean_access_cycles == 0.0 {
                    dur
                } else {
                    0.95 * self.mean_access_cycles + 0.05 * dur
                };
            }
            Some(_) => self.stats.onchip_served += 1,
        }
        if self.telemetry.is_some() {
            if result.stash_hit_shadow {
                // HD-Dup stash-caching credit: the hit avoided roughly one
                // average DRAM access (the EMA the DRI feedback already
                // maintains).
                self.attr_scratch.stash_pull_credit = self.mean_access_cycles.round() as u64;
            }
            let span_timing = AccessTiming { end: span_end, ..timing };
            self.emit_span(result.served, req.is_some(), arrival, start, span_timing);
            self.maybe_close_window();
        }
        (timing, classify(result.served, req.is_some()))
    }

    /// Whether the next read-only path read must stall behind the
    /// in-flight eviction: same-path conflicts (the read needs buckets
    /// the writeback is still rewriting) and stash-capacity pressure (a
    /// path's worth of inserts could overflow before the writeback
    /// drains) stall; everything else overlaps.
    fn evict_hazard(&self, ro_leaf: LeafLabel, ev_leaf: LeafLabel) -> bool {
        if ro_leaf == ev_leaf {
            return true;
        }
        let shape = self.controller.shape();
        let path_blocks = (shape.levels() as usize + 1) * self.cfg.oram.z;
        self.controller.stash().live() + path_blocks >= self.cfg.oram.stash_capacity
    }

    /// Pipelining effectiveness counters: accesses whose path read
    /// overlapped an eviction tail, and accesses a hazard stalled behind
    /// one. Both stay zero with pipelining off.
    pub fn pipeline_counters(&self) -> (u64, u64) {
        (self.pipeline_overlapped, self.pipeline_stalled)
    }

    /// Emits one access-lifecycle span from the phase scratch the last
    /// `execute` call filled. Only called with telemetry attached.
    fn emit_span(
        &mut self,
        served: ServedFrom,
        real: bool,
        arrival: u64,
        start: u64,
        timing: AccessTiming,
    ) {
        self.span_seq += 1;
        let class = classify(served, real);
        let (forward, blocks) = if !real {
            (u32::MAX, 0u32)
        } else {
            match served {
                ServedFrom::Stash | ServedFrom::Treetop => (u32::MAX, 0),
                ServedFrom::Dram { block_index, blocks_in_path, .. } => {
                    (block_index as u32, blocks_in_path as u32)
                }
                ServedFrom::Fresh { blocks_in_path } => (u32::MAX, blocks_in_path as u32),
            }
        };
        self.attr_scratch.queue_wait = start.saturating_sub(arrival);
        let span = AccessSpan {
            seq: self.span_seq,
            real,
            arrival,
            start,
            data_ready: timing.data_ready.max(start),
            end: timing.end.max(start),
            served: class,
            forward_index: forward,
            blocks_in_path: blocks,
            stash_live: self.controller.stash().live() as u32,
            attr: self.attr_scratch,
            phases: self.phase_scratch,
            phase_len: self.phase_scratch_len,
        };
        if let Some(t) = &self.telemetry {
            let mut sink = t.lock().expect("telemetry poisoned");
            sink.span(&span);
            let a = &span.attr;
            if span.phase_len > 0 {
                sink.sample(MetricId::AttrQueueWait, a.dram_queue);
                sink.sample(MetricId::AttrRowOps, a.dram_row);
                sink.sample(MetricId::AttrBusTransfer, a.dram_bus);
                sink.sample(MetricId::AttrEvictionOverhead, a.eviction);
                if a.network > 0 {
                    sink.sample(MetricId::AttrNetwork, a.network);
                }
                if a.posmap > 0 {
                    sink.sample(MetricId::AttrPosmap, a.posmap);
                }
            }
            if a.forward_saved > 0 {
                sink.sample(MetricId::ForwardSavedCycles, a.forward_saved);
            }
            if a.stash_pull_credit > 0 {
                sink.sample(MetricId::StashPullCreditCycles, a.stash_pull_credit);
            }
            if span.real {
                sink.sample(MetricId::ServiceQueueWait, a.queue_wait);
            }
        }
    }

    /// Closes the open time-series window if the current cycle has moved
    /// past its end. Only called with telemetry attached.
    fn maybe_close_window(&mut self) {
        if self.window_cycles == 0 {
            return;
        }
        if self.controller_free >= self.window.start_cycle + self.window_cycles {
            self.flush_window();
        }
    }

    /// Costs the posmap-ORAM walk the controller queued for the current
    /// access through the storage backend, returning the cycle the walk
    /// drains (`t` unchanged when no walk is pending — flat backends,
    /// PLB hits, dummies). The walk runs *before* the data path read:
    /// recursion has to resolve the leaf label before the data tree can
    /// be addressed. Its cycles land in the span's `posmap` attribution
    /// component; device-level `DramBlock` events are suppressed for
    /// walk batches (the combined trace carries the controller's
    /// `PosmapBucket` framing instead), so the data-ORAM device trace
    /// stays byte-identical to a flat-posmap run.
    fn cost_posmap_walk(&mut self, start: u64) -> u64 {
        if self.controller.posmap_pending().is_empty() {
            return start;
        }
        self.posmap_scratch.clear();
        self.posmap_scratch.extend_from_slice(self.controller.posmap_pending());
        if self.bus_observer.is_some() {
            self.backend.set_observer(None);
        }
        let mut t = start;
        for i in 0..self.posmap_scratch.len() {
            let p = self.posmap_scratch[i];
            if let Some(end_dram) = self.service_batch(&p.phase, p.bucket_offset, true, t) {
                t = self.cfg.to_cpu_cycles(end_dram);
            }
        }
        if self.bus_observer.is_some() {
            self.backend.set_observer(self.bus_observer.clone());
        }
        if self.telemetry.is_some() {
            self.attr_scratch.posmap += t - start;
        }
        t
    }

    /// Issues `phase`'s buckets, shifted by `bucket_offset` in the
    /// backend's address space, as one batch at `t`. Returns the cycle
    /// (DRAM clock) the batch drains — the finish of its critical request,
    /// which is the latest — with the per-block finishes left in
    /// `self.finishes`; `None` when every bucket is in the treetop.
    fn service_batch(
        &mut self,
        phase: &PathPhase,
        bucket_offset: u64,
        occupy_bus: bool,
        t: u64,
    ) -> Option<i64> {
        let mut read_half = *phase;
        read_half.kind = PhaseKind::EvictionRead;
        if phase.kind == PhaseKind::EvictionWrite
            && self.reqs_read == Some((read_half, bucket_offset))
        {
            // An eviction writes back the path its read half fetched:
            // same leaf, same buckets, same order.
            for r in &mut self.reqs {
                r.is_write = true;
            }
        } else {
            let z = self.cfg.oram.z as u64;
            let is_write = phase.kind == PhaseKind::EvictionWrite;
            self.reqs.clear();
            for b in phase.buckets() {
                // A bucket's slots are contiguous: map it once.
                let base = self.layout.block_addr(b.raw() + bucket_offset, 0);
                self.reqs.extend((0..z).map(|slot| BlockRequest { addr: base + slot, is_write }));
            }
        }
        self.reqs_read = (phase.kind == PhaseKind::EvictionRead).then_some((*phase, bucket_offset));
        if self.reqs.is_empty() {
            return None;
        }
        let now_dram = self.cfg.to_dram_cycles(t);
        self.backend.service_batch_into(now_dram, &self.reqs, occupy_bus, &mut self.finishes);
        let end = self.backend.last_batch_breakdown().map(|bd| bd.finish);
        debug_assert_eq!(end, self.finishes.iter().max().copied(), "critical request not the last");
        end
    }

    /// Executes one DRAM phase issued at `t` of an access started at
    /// `start`, updating attribution and the phase scratch, and filling
    /// `data_ready` when this is the serving read-only phase. Returns the
    /// phase's end time (`t` unchanged for fully treetop-cached phases).
    fn run_phase(
        &mut self,
        phase: &PathPhase,
        served: ServedFrom,
        start: u64,
        t: u64,
        data_ready: &mut Option<u64>,
    ) -> u64 {
        let is_ro = phase.kind == PhaseKind::ReadOnly;
        let occupy_bus = !(self.cfg.xor_compression && is_ro);
        let Some(phase_end_dram) = self.service_batch(phase, 0, occupy_bus, t) else {
            return t; // fully treetop-cached phase
        };
        if phase.kind == PhaseKind::EvictionWrite && self.backend.wants_payloads() {
            // The controller mutated the tree before the timing script
            // ran, so the bucket contents here are post-eviction: mirror
            // them to the durable store.
            for b in phase.buckets() {
                self.persist_bucket(b);
            }
        }
        let phase_end = self.cfg.to_cpu_cycles(phase_end_dram);

        if is_ro && data_ready.is_none() {
            *data_ready = match served {
                ServedFrom::Treetop | ServedFrom::Stash => {
                    Some(start + u64::from(self.cfg.onchip_latency_cycles))
                }
                ServedFrom::Dram { block_index, via_shadow, .. } => {
                    if self.cfg.xor_compression {
                        // Data decodes only after the whole path
                        // arrives and is XORed.
                        Some(phase_end + u64::from(self.cfg.aes_latency_cycles))
                    } else {
                        let f = self.finishes.get(block_index).copied().unwrap_or(phase_end_dram);
                        let arrived = self.cfg.to_cpu_cycles(f);
                        if via_shadow && self.telemetry.is_some() {
                            // RD-Dup early-forward savings: cycles
                            // between the shadow copy arriving and the
                            // path read draining.
                            self.attr_scratch.forward_saved = phase_end.saturating_sub(arrived);
                        }
                        Some(arrived + u64::from(self.cfg.aes_latency_cycles))
                    }
                }
                ServedFrom::Fresh { .. } => {
                    Some(phase_end + u64::from(self.cfg.aes_latency_cycles))
                }
            };
        }
        if self.telemetry.is_some() {
            if is_ro {
                // Decompose the path read along the batch's critical
                // (finish-determining) request: queue wait, then device
                // positioning (row ops / seek), then network round
                // trips, then data transfer. Boundaries are clamped
                // monotonically so the parts partition [t, phase_end]
                // exactly even across the backend→CPU clock-domain
                // rounding; for the DRAM backend `network` is zero and
                // the cuts collapse to the original three-way split.
                if let Some(bd) = self.backend.last_batch_breakdown() {
                    let b_queue = bd.finish - (bd.row + bd.network + bd.transfer) as i64;
                    let b_row = bd.finish - (bd.network + bd.transfer) as i64;
                    let b_net = bd.finish - bd.transfer as i64;
                    let cut_q = self.cfg.to_cpu_cycles(b_queue).clamp(t, phase_end);
                    let cut_r = self.cfg.to_cpu_cycles(b_row).clamp(cut_q, phase_end);
                    let cut_n = self.cfg.to_cpu_cycles(b_net).clamp(cut_r, phase_end);
                    self.attr_scratch.dram_queue += cut_q - t;
                    self.attr_scratch.dram_row += cut_r - cut_q;
                    self.attr_scratch.network += cut_n - cut_r;
                    self.attr_scratch.dram_bus += phase_end - cut_n;
                } else {
                    self.attr_scratch.dram_bus += phase_end - t;
                }
            } else {
                // Both eviction halves count as background overhead.
                self.attr_scratch.eviction += phase_end - t;
            }
        }
        if self.telemetry.is_some() && (self.phase_scratch_len as usize) < SPAN_MAX_PHASES {
            self.phase_scratch[self.phase_scratch_len as usize] = PhaseSpan {
                kind: match phase.kind {
                    PhaseKind::ReadOnly => BusPhase::ReadOnly,
                    PhaseKind::EvictionRead => BusPhase::EvictionRead,
                    PhaseKind::EvictionWrite => BusPhase::EvictionWrite,
                },
                start: t,
                end: phase_end,
            };
            self.phase_scratch_len += 1;
        }
        phase_end
    }

    /// Completes the Eq. 1 accounting after a run.
    fn finalize(&mut self) {
        if self.telemetry.is_some() && self.window_cycles > 0 {
            // Flush the tail so window sums cover the whole measured run.
            self.flush_window();
        }
        // Under pipelining the run only ends once the last eviction tail
        // drains, even though the controller freed earlier.
        self.stats.total_cycles =
            self.controller_free.max(self.pending_evict.map_or(0, |(_, end)| end));
        self.stats.dri_cycles = self.stats.total_cycles.saturating_sub(self.stats.data_cycles);
        self.stats.oram = self.controller.stats();
        self.stats.dram = self.backend.stats();
        let elapsed_ns = self.cfg.cpu_cycles_to_ns(self.stats.total_cycles);
        let counters = self.backend.energy();
        self.stats.set_energy(&self.cfg.energy, &counters, elapsed_ns);
    }

    /// Statistics of the work done so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }
}

/// Smallest multiple of `rate` that is `>= t`.
fn next_slot(t: u64, rate: u64) -> u64 {
    t.div_ceil(rate) * rate
}

/// Collapses the controller's serve source into the telemetry class.
fn classify(served: ServedFrom, real: bool) -> ServeClass {
    if !real {
        return ServeClass::Dummy;
    }
    match served {
        ServedFrom::Stash => ServeClass::Stash,
        ServedFrom::Treetop => ServeClass::Treetop,
        ServedFrom::Dram { via_shadow, .. } => {
            if via_shadow {
                ServeClass::DramShadow
            } else {
                ServeClass::DramReal
            }
        }
        ServedFrom::Fresh { .. } => ServeClass::Fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_cpu::ReplayMisses;
    use oram_protocol::DupPolicy;

    fn miss(addr: u64, gap: u64) -> MissRecord {
        MissRecord { block_addr: addr, is_write: false, gap_cycles: gap, blocking: true }
    }

    fn run_with(cfg: SystemConfig, misses: Vec<MissRecord>) -> SimStats {
        let mut e = Engine::new(cfg).unwrap();
        e.prefill_working_set(64);
        let mut s = ReplayMisses::new(misses);
        e.run(&mut s)
    }

    /// The durable mirror goes through the engine's one-bucket scratch
    /// buffer (the tree stores packed slots): after a prefill and a run
    /// with evictions, every bucket on disk equals the controller's tree,
    /// before and after the process "dies" and the store is reopened.
    #[test]
    fn disk_store_mirrors_the_tree_across_reopen() {
        use oram_storage::{DiskBackend, DiskConfig, DiskStore};
        let cfg = SystemConfig::small_test();
        let shape = oram_protocol::TreeShape::new(cfg.oram.levels, cfg.oram.z);
        let dir = std::env::temp_dir().join(format!("oram_engine_mirror_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskConfig::new(dir.clone(), cfg.oram.z, shape.bucket_count());
        let mut e = Engine::with_backend(cfg, DiskBackend::new(disk).unwrap()).unwrap();
        e.prefill_working_set(64);
        let misses = (0..120).map(|i| MissRecord { is_write: i % 3 == 0, ..miss(i * 5 % 64, 40) });
        e.run(&mut ReplayMisses::new(misses.collect()));
        assert!(e.controller().stats().evictions > 0, "the write half must have run");
        assert_eq!(e.backend_mut().take_io_error(), None);

        let tree: Vec<Vec<Block>> = (1..=shape.bucket_count())
            .map(|raw| {
                let mut slots = vec![Block::DUMMY; shape.slots_per_bucket()];
                e.controller().tree().read_bucket(BucketId::new(raw), &mut slots);
                slots
            })
            .collect();
        assert!(tree.iter().flatten().any(|b| b.is_real()));
        for (ix, slots) in tree.iter().enumerate() {
            let on_disk = e.backend_mut().store().read_bucket(ix as u64).unwrap();
            assert_eq!(on_disk.as_ref(), Some(slots), "bucket {ix} before the crash");
        }
        drop(e); // no checkpoint: the reopen replays the write-ahead log
        let mut store =
            DiskStore::open(&dir, shape.slots_per_bucket(), shape.bucket_count()).unwrap();
        for (ix, slots) in tree.iter().enumerate() {
            assert_eq!(store.read_bucket(ix as u64).unwrap().as_ref(), Some(slots), "bucket {ix}");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn next_slot_arithmetic() {
        assert_eq!(next_slot(0, 800), 0);
        assert_eq!(next_slot(1, 800), 800);
        assert_eq!(next_slot(800, 800), 800);
        assert_eq!(next_slot(801, 800), 1600);
    }

    #[test]
    fn totals_partition_into_data_plus_dri() {
        let misses: Vec<MissRecord> = (0..40).map(|i| miss(i % 64, 100)).collect();
        let s = run_with(SystemConfig::small_test(), misses);
        assert!(s.total_cycles > 0);
        assert_eq!(s.total_cycles, s.data_cycles + s.dri_cycles);
        assert_eq!(s.misses_consumed, 40);
    }

    #[test]
    fn gaps_increase_dri_not_data() {
        let short: Vec<MissRecord> = (0..30).map(|i| miss(i % 64, 10)).collect();
        let long: Vec<MissRecord> = (0..30).map(|i| miss(i % 64, 2000)).collect();
        let s_short = run_with(SystemConfig::small_test(), short);
        let s_long = run_with(SystemConfig::small_test(), long);
        assert!(s_long.dri_cycles > s_short.dri_cycles);
        assert!(s_long.total_cycles > s_short.total_cycles);
    }

    #[test]
    fn timing_protection_injects_dummies_on_long_gaps() {
        let misses: Vec<MissRecord> = (0..20).map(|i| miss(i % 64, 20_000)).collect();
        let cfg = SystemConfig::small_test().with_timing_protection(800);
        let s = run_with(cfg, misses);
        assert!(s.dummy_requests > 0, "long gaps must be filled with dummies");
    }

    #[test]
    fn timing_protection_none_means_no_dummies() {
        let misses: Vec<MissRecord> = (0..20).map(|i| miss(i % 64, 20_000)).collect();
        let s = run_with(SystemConfig::small_test(), misses);
        assert_eq!(s.dummy_requests, 0);
    }

    #[test]
    fn dummy_rate_tracks_idleness() {
        // Zero-gap streams keep every slot busy with real work (at most a
        // stray dummy when data lands just past a slot boundary); huge
        // gaps make dummies dominate.
        let busy: Vec<MissRecord> = (0..20).map(|i| miss(i % 64, 0)).collect();
        let idle: Vec<MissRecord> = (0..20).map(|i| miss(i % 64, 20_000)).collect();
        let cfg = SystemConfig::small_test().with_timing_protection(800);
        let s_busy = run_with(cfg.clone(), busy);
        let s_idle = run_with(cfg, idle);
        assert!(s_busy.dummy_requests <= s_busy.data_requests);
        assert!(s_idle.dummy_requests > 10 * s_busy.dummy_requests.max(1));
    }

    #[test]
    fn rd_dup_advances_accesses_without_hurting_total_time() {
        // A working set well beyond the stash keeps real path reads
        // flowing; at this toy tree depth (L = 7) advances span only a few
        // levels, so the assertion is mechanism + non-regression; the
        // quantitative win grows with tree depth and is validated by the
        // figure-level experiments (L >= 14).
        let misses: Vec<MissRecord> = (0..5000).map(|i| miss(i % 160, 300)).collect();
        let mut base_cfg = SystemConfig::small_test();
        base_cfg.oram.stash_capacity = 48;
        let mut rd_cfg = base_cfg.clone();
        rd_cfg.oram.dup_policy = DupPolicy::RdOnly;
        let base = run_with(base_cfg, misses.clone());
        let rd = run_with(rd_cfg, misses);
        assert!(rd.oram.shadow_advanced > 500, "accesses were advanced");
        assert!(
            rd.oram.mean_served_position() < base.oram.mean_served_position(),
            "advances must lower the mean serving position"
        );
        assert!(
            (rd.total_cycles as f64) < base.total_cycles as f64 * 1.03,
            "RD-Dup must not regress: {} vs {}",
            rd.total_cycles,
            base.total_cycles
        );
    }

    #[test]
    fn onchip_serves_do_not_consume_data_time() {
        // A stream with immediate re-references: blocks stay live in the
        // stash for roughly an eviction period, so re-touching a tiny set
        // produces on-chip serves.
        let mut misses = Vec::new();
        for i in 0..50u64 {
            misses.push(miss(i % 2, 5));
        }
        let s = run_with(SystemConfig::small_test(), misses);
        assert!(s.onchip_served > 0);
        assert_eq!(s.onchip_served + s.data_requests, 50);
    }

    #[test]
    fn xor_mode_runs_and_serves_at_path_end() {
        let misses: Vec<MissRecord> = (0..60).map(|i| miss(i % 64, 100)).collect();
        let base = run_with(SystemConfig::small_test(), misses.clone());
        let xor = run_with(SystemConfig::small_test().with_xor_compression(), misses);
        // XOR trades latency (data only at path end) for bus relief; the
        // result must stay in a sane band around the baseline.
        let ratio = xor.total_cycles as f64 / base.total_cycles as f64;
        assert!((0.5..=1.5).contains(&ratio), "xor/base ratio {ratio}");
        assert!(xor.data_requests > 0);
    }

    #[test]
    fn baseline_stash_occupancy_stays_within_path_oram_bound() {
        // Regression gate on the security parameter: under the default
        // (scaled Table I) configuration and a miss stream that defeats
        // the stash's natural caching, the live stash occupancy must stay
        // within the Path ORAM bound — a transient path's worth of blocks
        // plus a small overflow tail (Stefanov et al. give Pr[> R] ~
        // exp(-R); capacity 200 leaves head-room the run must not eat).
        let cfg = SystemConfig::scaled_default();
        let cap = cfg.oram.stash_capacity;
        let mut e = Engine::new(cfg).unwrap();
        e.prefill_working_set(4096);
        let misses: Vec<MissRecord> = (0..6000).map(|i| miss((i * 131) % 4096, 40)).collect();
        let mut s = ReplayMisses::new(misses);
        e.run(&mut s);
        let h = e.stash_occupancy();
        assert_eq!(h.count(), 6000);
        assert!(h.max() <= cap as u64, "stash occupancy {} exceeded capacity {}", h.max(), cap);
        // The empirical bound with margin: regressions in eviction or
        // remap logic blow well past this before hitting capacity.
        assert!(h.max() <= 120, "max live occupancy regressed: {}", h.max());
        assert!(h.quantile_floor(0.999) <= h.max());
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn stats_capture_controller_and_dram() {
        let misses: Vec<MissRecord> = (0..30).map(|i| miss(i, 10)).collect();
        let s = run_with(SystemConfig::small_test(), misses);
        assert!(s.oram.real_requests >= 30);
        assert!(s.dram.reads > 0);
        assert!(s.energy_mj > 0.0);
    }

    #[test]
    fn pipelining_overlaps_evictions_and_never_slows_the_run() {
        // Back-to-back misses over a working set large enough to defeat
        // the stash: evictions fire every A-1 accesses and their tails
        // overlap the following path reads.
        let misses: Vec<MissRecord> = (0..2000).map(|i| miss((i * 131) % 500, 50)).collect();
        let seq = run_with(SystemConfig::small_test(), misses.clone());

        let cfg = SystemConfig::small_test().with_pipeline();
        let mut e = Engine::new(cfg).unwrap();
        e.prefill_working_set(64);
        let mut s = ReplayMisses::new(misses);
        let pipe = e.run(&mut s);
        let (overlapped, stalled) = e.pipeline_counters();

        assert!(overlapped > 0, "no path read ever overlapped an eviction tail");
        assert!(
            pipe.total_cycles < seq.total_cycles,
            "pipelining must shorten a back-to-back run: {} vs {}",
            pipe.total_cycles,
            seq.total_cycles
        );
        // Eq. 1 still partitions: overlapped eviction time lands in DRI.
        assert_eq!(pipe.total_cycles, pipe.data_cycles + pipe.dri_cycles);
        // The protocol work itself is identical either way.
        assert_eq!(pipe.oram, seq.oram);
        let _ = stalled; // stall count is workload-dependent; may be zero
    }

    /// Pipelining moves time, not the trace: both modes flush every
    /// controller event before any device event, so one stream gives the
    /// same bus trace and protocol statistics either way. Dynamic
    /// partitioning is left out: its long-gap feedback reads the access
    /// duration, which pipelining shortens.
    #[test]
    fn pipelining_keeps_the_bus_trace_and_the_protocol() {
        use oram_util::BusEvent;
        use std::sync::{Arc, Mutex};
        let run = |policy: DupPolicy, pipeline: bool| {
            let mut cfg = SystemConfig::small_test();
            cfg.oram.dup_policy = policy;
            cfg.pipeline = pipeline;
            let mut e = Engine::new(cfg).unwrap();
            e.prefill_working_set(96);
            let tape = Arc::new(Mutex::new(Vec::<BusEvent>::new()));
            e.attach_bus_observer(tape.clone());
            let misses = (0..600).map(|i| miss((i * 37) % 96, 20)).collect();
            let stats = e.run(&mut ReplayMisses::new(misses));
            let trace = std::mem::take(&mut *tape.lock().unwrap());
            (trace, stats.oram, e.pipeline_counters().0)
        };
        for policy in [DupPolicy::Off, DupPolicy::RdOnly, DupPolicy::HdOnly] {
            let (seq_trace, seq_oram, _) = run(policy, false);
            let (pipe_trace, pipe_oram, overlapped) = run(policy, true);
            assert!(overlapped > 0, "{policy:?}: no path read overlapped an eviction tail");
            assert_eq!(pipe_oram, seq_oram, "{policy:?}");
            assert_eq!(pipe_trace.len(), seq_trace.len(), "{policy:?}");
            if let Some(i) = (0..seq_trace.len()).find(|&i| seq_trace[i] != pipe_trace[i]) {
                panic!("{policy:?}: traces first differ at event {i} of {}", seq_trace.len());
            }
        }
    }

    #[test]
    fn pipelining_counters_stay_zero_when_disabled() {
        let misses: Vec<MissRecord> = (0..200).map(|i| miss(i % 64, 50)).collect();
        let mut e = Engine::new(SystemConfig::small_test()).unwrap();
        e.prefill_working_set(64);
        let mut s = ReplayMisses::new(misses);
        e.run(&mut s);
        assert_eq!(e.pipeline_counters(), (0, 0));
    }

    #[test]
    fn recursive_posmap_walks_cost_real_time_and_keep_the_protocol_identical() {
        use oram_protocol::PosMapSelect;
        // L = 10 with a 1 KiB budget yields one posmap-ORAM level
        // (512 level-1 blocks → 16 top entries on chip).
        let misses: Vec<MissRecord> = (0..800).map(|i| miss((i * 131) % 700, 50)).collect();
        let mut flat_cfg = SystemConfig::small_test();
        flat_cfg.oram.levels = 10;
        let mut rec_cfg = flat_cfg.clone();
        rec_cfg.oram.posmap = PosMapSelect::Recursive { onchip_kb: 1 };

        let flat = run_with(flat_cfg, misses.clone());
        let rec = run_with(rec_cfg.clone(), misses.clone());
        // The walk costs real cycles on PLB misses...
        assert!(
            rec.total_cycles > flat.total_cycles,
            "posmap walks must cost time: {} vs {}",
            rec.total_cycles,
            flat.total_cycles
        );
        // ...but the data-ORAM protocol work is label-for-label identical
        // (the recursion only changes *where* the map lives).
        assert_eq!(rec.oram, flat.oram);
        assert_eq!(rec.data_requests, flat.data_requests);
        // And the whole thing is deterministic.
        let again = run_with(rec_cfg, misses);
        assert_eq!(again.total_cycles, rec.total_cycles);
    }

    #[test]
    fn stash_pressure_stalls_the_pipeline() {
        // With a roomy stash the hazard is (rare) same-path conflicts
        // only; shrinking the stash toward one path's worth of slots
        // must convert overlaps into stalls.
        let run = |capacity: usize| {
            let mut cfg = SystemConfig::small_test().with_pipeline();
            cfg.oram.stash_capacity = capacity;
            let misses: Vec<MissRecord> = (0..600).map(|i| miss((i * 131) % 200, 20)).collect();
            let mut e = Engine::new(cfg).unwrap();
            e.prefill_working_set(64);
            let mut s = ReplayMisses::new(misses);
            e.run(&mut s);
            e.pipeline_counters()
        };
        let path = (SystemConfig::small_test().oram.levels as usize + 1)
            * SystemConfig::small_test().oram.z;
        let (_, roomy_stalls) = run(SystemConfig::small_test().oram.stash_capacity);
        let (_, tight_stalls) = run(path + 1);
        assert!(tight_stalls > 0, "a one-path stash must stall on pressure");
        assert!(
            tight_stalls > roomy_stalls,
            "tighter stash must stall more: {tight_stalls} vs {roomy_stalls}"
        );
    }
}
