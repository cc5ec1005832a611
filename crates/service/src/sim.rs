//! The service front-end simulator: client streams feeding bounded
//! queues, a batch scheduler draining them into the ORAM engine, and
//! MSHR-style coalescing of same-address reads before the issue point.
//!
//! One driver, [`ServiceDriver`], runs the scheduling front-end over
//! anything that implements [`ServeTarget`]: a single [`Engine`]
//! ([`ServiceSim`], the reference path) or a [`ShardedOram`]
//! ([`ShardedServiceSim`]). Each scheduling round issues up to
//! `batch_size` coalesced group leaders; a one-lane target takes them
//! one at a time, a multi-lane target as one batch that it partitions
//! across its shards and serves concurrently (see
//! [`ServiceDriver::step`]).
//!
//! ## Obliviousness note
//!
//! Coalescing merges requests strictly *before* the ORAM issue point:
//! a coalesced group results in exactly one ordinary ORAM access, whose
//! bus trace is byte-identical to the access a single request would
//! have produced. The adversary on the memory bus sees only the
//! (unchanged) access stream — never which requests were merged — so
//! the service layer adds no leakage beyond what the engine already
//! emits. The integration tests pin this down with a trace-equality
//! check, and `oram-audit` fuzzes service-driven traces with the same
//! structural and distribution distinguishers as CPU-driven ones.
//! Sharding adds one public quantity — which shard serves a request is
//! `addr mod M` — and `oram-audit`'s cross-shard distinguisher checks
//! nothing beyond that leaks.
//!
//! ## Determinism
//!
//! Every decision derives from the master seed and the target's clock:
//! per-client generators are seeded by client index, admission
//! processes arrivals in global time order (ties by client id), and the
//! scheduler is a pure function of queue state. Two runs with the same
//! configuration produce bit-identical results; for a sharded target
//! that holds at any worker thread count, because batches partition to
//! shards in input order before any shard runs.

use std::collections::VecDeque;

use oram_sim::{
    DramBackend, Engine, ServeOutcome, ShardRequest, ShardedOram, SimStats, StorageBackend,
};
use oram_util::{MetricId, Rng64, ServeClass, SharedLive, SharedTelemetry};
use oram_workloads::{PoissonProcess, ZipfianSampler};

use crate::config::{AddressMix, ArrivalModel, ClientSpec, SchedPolicy, ServiceConfig};

/// Arrival-time sentinel: no further request pending from this client
/// (stream exhausted, or closed loop awaiting its completion).
const NEVER: u64 = u64::MAX;

/// One queued request as the scheduler sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedRequest {
    /// Global admission sequence number (FCFS order).
    seq: u64,
    /// Block address.
    addr: u64,
    /// Write request (writes never coalesce).
    write: bool,
    /// CPU cycle the request arrived at the service layer.
    arrival: u64,
}

/// Live state of one client stream.
#[derive(Debug)]
struct ClientState {
    spec: ClientSpec,
    /// Interarrival / think-time generator.
    gaps: PoissonProcess,
    /// Zipfian sampler when the mix needs one.
    zipf: Option<ZipfianSampler>,
    /// Uniform/hot draws and the write coin.
    rng: Rng64,
    /// Cycle of the next generated arrival; [`NEVER`] when exhausted or
    /// (closed loop) awaiting completion.
    next_arrival: u64,
    queue: VecDeque<QueuedRequest>,
    // ---- accounting ----
    generated: u64,
    admitted: u64,
    rejected: u64,
    coalesced: u64,
    completed: u64,
    /// ORAM accesses this client issued as a group leader.
    issued: u64,
    served: [u64; 6],
    /// Completion-order per-request latency (`data_ready − arrival`).
    latencies: Vec<u64>,
    /// Completion-order per-request queue wait (`issue − arrival`).
    wait_sum: u64,
    wait_max: u64,
}

impl ClientState {
    /// `zipfs` holds one sampler per distinct `(domain, θ)` built so far
    /// this run; a client with the same mix reseeds it rather than summing
    /// the normalisation again.
    fn new(
        spec: ClientSpec,
        master_seed: u64,
        index: usize,
        start_cycle: u64,
        zipfs: &mut Vec<ZipfianSampler>,
    ) -> Self {
        // SplitMix-style per-client stream separation: one multiply is
        // enough because Rng64's seeding finalizes with SplitMix64.
        let base = master_seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mean = match spec.arrivals {
            ArrivalModel::Open { mean_gap_cycles } => mean_gap_cycles,
            ArrivalModel::Closed { think_cycles } => think_cycles,
        };
        let mut gaps = PoissonProcess::new(base, mean);
        let zipf = match spec.addresses {
            AddressMix::Zipfian { domain, theta }
            | AddressMix::ZipfianShifted { domain, theta, .. } => {
                let seed = base ^ 0xA11CE;
                Some(match zipfs.iter().find(|z| z.domain() == domain && z.theta() == theta) {
                    Some(built) => built.reseeded(seed),
                    None => {
                        let zipf = ZipfianSampler::new(domain, theta, seed);
                        zipfs.push(zipf.clone());
                        zipf
                    }
                })
            }
            _ => None,
        };
        // Later arrivals chain off the previous one, so only the first
        // needs the phase offset (soak phases resume mid-clock).
        let next_arrival = if spec.requests == 0 { NEVER } else { start_cycle + gaps.next_gap() };
        ClientState {
            gaps,
            zipf,
            rng: Rng64::seed_from_u64(base ^ 0xC0FFEE),
            next_arrival,
            queue: VecDeque::with_capacity(64),
            generated: 0,
            admitted: 0,
            rejected: 0,
            coalesced: 0,
            completed: 0,
            issued: 0,
            served: [0; ServeClass::ALL.len()],
            latencies: Vec::with_capacity(spec.requests as usize),
            wait_sum: 0,
            wait_max: 0,
            spec,
        }
    }

    /// Draws the next address from this client's mix.
    fn draw_addr(&mut self) -> u64 {
        match self.spec.addresses {
            AddressMix::Uniform { domain } => self.rng.below(domain),
            AddressMix::Zipfian { .. } => self.zipf.as_mut().expect("zipf sampler").sample(),
            AddressMix::ZipfianShifted { domain, offset, .. } => {
                (self.zipf.as_mut().expect("zipf sampler").sample() + offset) % domain
            }
            AddressMix::Hot { domain, hot_blocks, hot_frac } => {
                if hot_blocks == domain || self.rng.gen_bool(hot_frac) {
                    self.rng.below(hot_blocks)
                } else {
                    hot_blocks + self.rng.below(domain - hot_blocks)
                }
            }
        }
    }

    /// Draws the write coin.
    fn draw_write(&mut self) -> bool {
        self.rng.gen_bool(self.spec.write_frac)
    }
}

/// Final per-client accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResult {
    /// Requests the stream generated (admitted + rejected).
    pub generated: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests refused by admission control (queue full at arrival).
    pub rejected: u64,
    /// Requests completed by riding a coalesced group (no own access).
    pub coalesced: u64,
    /// Requests completed (equals `admitted` after a drained run).
    pub completed: u64,
    /// ORAM accesses issued with this client as group leader.
    pub issued: u64,
    /// Completions per serve class, indexed like [`ServeClass::ALL`].
    pub served: [u64; ServeClass::ALL.len()],
    /// Per-request latency (`data_ready − arrival`) in completion order.
    pub latencies: Vec<u64>,
    /// Sum of per-request queue waits (`issue − arrival`).
    pub wait_sum: u64,
    /// Largest single queue wait.
    pub wait_max: u64,
}

/// Result of a drained service run: engine statistics plus per-client
/// service accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceResult {
    /// Engine statistics over the whole run (Eq. 1 accounting closed).
    /// For a resumed phase these are *cumulative* across every phase
    /// that shared the engine — see [`ServiceResult::prior_issued`].
    pub stats: SimStats,
    /// Per-client accounting, index = client id.
    pub clients: Vec<ClientResult>,
    /// Accesses the shared engine had already consumed when this phase
    /// began (0 for a fresh run). Validation charges the engine's
    /// cumulative counter against `issued + prior_issued`.
    pub prior_issued: u64,
}

impl ServiceResult {
    /// Total completions across clients.
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }

    /// Total ORAM accesses issued (group leaders).
    pub fn issued(&self) -> u64 {
        self.clients.iter().map(|c| c.issued).sum()
    }

    /// Total requests that coalesced onto another access.
    pub fn coalesced(&self) -> u64 {
        self.clients.iter().map(|c| c.coalesced).sum()
    }

    /// Total admission-control rejections.
    pub fn rejected(&self) -> u64 {
        self.clients.iter().map(|c| c.rejected).sum()
    }

    /// Cross-checks the service-layer conservation laws against the
    /// engine's own counters — every generated request must be accounted
    /// for exactly once, and every engine access must have a leader.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        for (i, c) in self.clients.iter().enumerate() {
            if c.generated != c.admitted + c.rejected {
                return Err(format!(
                    "client {i}: generated {} != admitted {} + rejected {}",
                    c.generated, c.admitted, c.rejected
                ));
            }
            if c.completed != c.admitted {
                return Err(format!(
                    "client {i}: completed {} != admitted {} (requests lost in queue)",
                    c.completed, c.admitted
                ));
            }
            if c.completed != c.issued + c.coalesced {
                return Err(format!(
                    "client {i}: completed {} != issued {} + coalesced {}",
                    c.completed, c.issued, c.coalesced
                ));
            }
            if c.latencies.len() as u64 != c.completed {
                return Err(format!(
                    "client {i}: {} latency samples for {} completions",
                    c.latencies.len(),
                    c.completed
                ));
            }
            let classed: u64 = c.served.iter().sum();
            if classed != c.completed {
                return Err(format!(
                    "client {i}: served-class sum {classed} != completed {}",
                    c.completed
                ));
            }
            if c.served[ServeClass::Dummy as usize] != 0 {
                return Err(format!("client {i}: a real request was served as a dummy"));
            }
        }
        let issued = self.issued() + self.prior_issued;
        if self.stats.misses_consumed != issued {
            return Err(format!(
                "engine consumed {} requests but service issued {issued} \
                 (including {} from earlier phases)",
                self.stats.misses_consumed, self.prior_issued
            ));
        }
        Ok(())
    }
}

/// The target-independent scheduling front-end: client streams,
/// admission control, scheduler policy and completion accounting.
#[derive(Debug)]
struct Frontend {
    cfg: ServiceConfig,
    clients: Vec<ClientState>,
    next_seq: u64,
    /// Round-robin rotation cursor.
    rr_cursor: usize,
    /// Optional sink for the service-layer counters (admitted /
    /// coalesced / rejected).
    telemetry: Option<SharedTelemetry>,
    /// Optional live observer for per-request completion/rejection
    /// events (the `oram-obsv` plane). One branch on `None` when
    /// detached, exactly like `telemetry`.
    live: Option<SharedLive>,
}

impl Frontend {
    /// Builds the front-end with every client's *first* arrival offset
    /// by `start_cycle` — the resume point for phase-chained soak runs
    /// whose engine clock is already deep into a previous phase.
    fn new_at(cfg: ServiceConfig, start_cycle: u64) -> Result<Self, String> {
        cfg.validate()?;
        let mut zipfs = Vec::new();
        let mut clients: Vec<ClientState> = cfg
            .clients
            .iter()
            .enumerate()
            .map(|(i, spec)| ClientState::new(*spec, cfg.seed, i, start_cycle, &mut zipfs))
            .collect();
        for c in &mut clients {
            // VecDeque grows to a power of two; reserving the bound up
            // front keeps the admission path allocation-free.
            c.queue.reserve(cfg.queue_capacity + 1);
        }
        Ok(Frontend { clients, next_seq: 0, rr_cursor: 0, telemetry: None, live: None, cfg })
    }

    /// Upper bound on coalesce-group waiters in flight at once.
    fn waiter_capacity(&self) -> usize {
        self.clients.len() * self.cfg.queue_capacity
    }

    fn count(&self, id: MetricId) {
        if let Some(t) = &self.telemetry {
            t.lock().expect("telemetry lock").count(id, 1);
        }
    }

    fn observe_rejected(&self, now: u64, tenant: usize) {
        if let Some(l) = &self.live {
            l.lock().expect("live observer lock").request_rejected(now, tenant as u32);
        }
    }

    fn observe_admitted(&self, now: u64, tenant: usize) {
        if let Some(l) = &self.live {
            l.lock().expect("live observer lock").request_admitted(now, tenant as u32);
        }
    }

    /// Admission control for one request arriving at `arrival`: queued
    /// if the client's queue has room, rejected otherwise, and counted
    /// either way. `false` means rejected (queue full).
    #[inline]
    fn admit(&mut self, client: usize, addr: u64, write: bool, arrival: u64) -> bool {
        let seq = self.next_seq;
        let c = &mut self.clients[client];
        c.generated += 1;
        if c.queue.len() >= self.cfg.queue_capacity {
            c.rejected += 1;
            self.count(MetricId::ServiceRejected);
            self.observe_rejected(arrival, client);
            return false;
        }
        c.queue.push_back(QueuedRequest { seq, addr, write, arrival });
        c.admitted += 1;
        self.next_seq += 1;
        self.count(MetricId::ServiceAdmitted);
        self.observe_admitted(arrival, client);
        true
    }

    /// Admits every pending arrival with time ≤ `horizon`, in global
    /// time order (ties by client id).
    fn admit_until(&mut self, horizon: u64) {
        loop {
            let mut best: Option<(u64, usize)> = None;
            for (i, c) in self.clients.iter().enumerate() {
                if c.next_arrival <= horizon {
                    match best {
                        Some((t, _)) if t <= c.next_arrival => {}
                        _ => best = Some((c.next_arrival, i)),
                    }
                }
            }
            let Some((_, i)) = best else { return };
            self.admit_one(i);
        }
    }

    /// Admits (or rejects) client `i`'s pending arrival and schedules
    /// the stream's next one.
    fn admit_one(&mut self, i: usize) {
        let c = &mut self.clients[i];
        let arrival = c.next_arrival;
        let addr = c.draw_addr();
        let write = c.draw_write();
        let admitted = self.admit(i, addr, write, arrival);

        // Schedule the stream's next arrival. Closed loops wait for the
        // completion of the request just queued — unless it was
        // rejected, which cannot happen when capacity ≥ 1 (a closed
        // client has at most one request in flight); a rejected closed
        // request would otherwise deadlock the stream, so treat the
        // rejection itself as an instant (failed) completion.
        let c = &mut self.clients[i];
        c.next_arrival = if c.generated >= c.spec.requests {
            NEVER
        } else {
            match c.spec.arrivals {
                ArrivalModel::Open { .. } => arrival + c.gaps.next_gap(),
                ArrivalModel::Closed { .. } => {
                    if admitted {
                        NEVER
                    } else {
                        arrival + c.gaps.next_gap()
                    }
                }
            }
        };
    }

    /// Picks the client whose queue head the policy issues next, or
    /// `None` if every queue is empty.
    fn select_client(&mut self) -> Option<usize> {
        let n = self.clients.len();
        match self.cfg.scheduler {
            SchedPolicy::Fcfs => {
                let mut best: Option<(u64, usize)> = None;
                for (i, c) in self.clients.iter().enumerate() {
                    if let Some(head) = c.queue.front() {
                        if best.is_none_or(|(s, _)| head.seq < s) {
                            best = Some((head.seq, i));
                        }
                    }
                }
                best.map(|(_, i)| i)
            }
            SchedPolicy::RoundRobin => {
                for off in 0..n {
                    let i = (self.rr_cursor + off) % n;
                    if !self.clients[i].queue.is_empty() {
                        self.rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            SchedPolicy::OldestFirst => {
                // Min arrival; ties prefer the deeper backlog, then the
                // lower client id.
                let mut best: Option<(u64, usize, usize)> = None;
                for (i, c) in self.clients.iter().enumerate() {
                    if let Some(head) = c.queue.front() {
                        let key = (head.arrival, c.queue.len(), i);
                        let better = match best {
                            None => true,
                            Some((a, d, _)) => {
                                head.arrival < a || (head.arrival == a && c.queue.len() > d)
                            }
                        };
                        if better {
                            best = Some((key.0, key.1, key.2));
                        }
                    }
                }
                best.map(|(_, _, i)| i)
            }
        }
    }

    /// Pops the selected client's queue head and records its queue wait
    /// against issue time `now`.
    fn pop_leader(&mut self, ci: usize, now: u64) -> QueuedRequest {
        let req = self.clients[ci].queue.pop_front().expect("selected head");
        let wait = now.max(req.arrival) - req.arrival;
        let c = &mut self.clients[ci];
        c.wait_sum += wait;
        c.wait_max = c.wait_max.max(wait);
        req
    }

    /// Records one completed request on its client. `shard` is the
    /// public `addr mod M` routing slot (0 on a single engine).
    fn complete(
        &mut self,
        client: usize,
        req: &QueuedRequest,
        out: &ServeOutcome,
        leader: bool,
        shard: u32,
    ) {
        let latency = out.data_ready.saturating_sub(req.arrival);
        let c = &mut self.clients[client];
        c.completed += 1;
        c.served[out.served as usize] += 1;
        c.latencies.push(latency);
        if leader {
            c.issued += 1;
        } else {
            c.coalesced += 1;
        }
        // Closed loop: completion re-arms the stream's next arrival.
        if matches!(c.spec.arrivals, ArrivalModel::Closed { .. }) && c.generated < c.spec.requests {
            c.next_arrival = out.data_ready + c.gaps.next_gap();
        }
        if !leader {
            self.count(MetricId::ServiceCoalesced);
        }
        if let Some(l) = &self.live {
            l.lock().expect("live observer lock").request_complete(
                out.data_ready,
                client as u32,
                shard,
                out.served,
                latency,
                !leader,
            );
        }
    }

    /// `true` when every queue is empty (streams may still generate).
    fn queues_empty(&self) -> bool {
        self.clients.iter().all(|c| c.queue.is_empty())
    }

    /// The earliest pending arrival across streams ([`NEVER`] if none).
    fn next_pending_arrival(&self) -> u64 {
        self.clients.iter().map(|c| c.next_arrival).min().unwrap_or(NEVER)
    }

    /// `true` when nothing is queued and no stream will generate again.
    fn drained(&self) -> bool {
        self.clients.iter().all(|c| c.queue.is_empty() && c.next_arrival == NEVER)
    }

    /// Folds the client states into their final accounting.
    fn into_results(self) -> Vec<ClientResult> {
        self.clients
            .into_iter()
            .map(|c| ClientResult {
                generated: c.generated,
                admitted: c.admitted,
                rejected: c.rejected,
                coalesced: c.coalesced,
                completed: c.completed,
                issued: c.issued,
                served: c.served,
                latencies: c.latencies,
                wait_sum: c.wait_sum,
                wait_max: c.wait_max,
            })
            .collect()
    }
}

/// What the front-end needs from the thing it drives: a clock, the
/// public routing function, a cumulative access counter and batch
/// dispatch. [`Engine`] is the one-lane implementation, [`ShardedOram`]
/// the `M`-lane one; every method mirrors the inherent method of the
/// same name.
pub trait ServeTarget {
    /// Independent engines a batch can spread over.
    fn lanes(&self) -> usize;
    /// The current cycle: how far the memory system has advanced.
    fn cycle(&self) -> u64;
    /// The lane serving `addr` (the public `addr mod M` routing slot).
    fn shard_of(&self, addr: u64) -> usize;
    /// Accesses consumed so far, summed over the lanes.
    fn consumed(&self) -> u64;
    /// Sizes the dispatch buffers for batches of up to `n` requests.
    fn reserve_batch(&mut self, n: usize);
    /// Serves `reqs` and refills `outs` with their outcomes in input
    /// order.
    fn serve_batch(&mut self, reqs: &[ShardRequest], outs: &mut Vec<ServeOutcome>);
    /// Closes the Eq. 1 accounting and returns the (merged) statistics.
    fn finish(&mut self) -> SimStats;
}

impl<B: StorageBackend> ServeTarget for Engine<B> {
    fn lanes(&self) -> usize {
        1
    }
    fn cycle(&self) -> u64 {
        Engine::cycle(self)
    }
    fn shard_of(&self, _addr: u64) -> usize {
        0
    }
    fn consumed(&self) -> u64 {
        self.stats().misses_consumed
    }
    fn reserve_batch(&mut self, _n: usize) {}
    fn serve_batch(&mut self, reqs: &[ShardRequest], outs: &mut Vec<ServeOutcome>) {
        outs.clear();
        outs.extend(reqs.iter().map(|r| self.serve_request(r.addr, r.write, r.arrival)));
    }
    fn finish(&mut self) -> SimStats {
        Engine::finish(self)
    }
}

impl<B: StorageBackend> ServeTarget for ShardedOram<B> {
    fn lanes(&self) -> usize {
        self.shard_count()
    }
    fn cycle(&self) -> u64 {
        ShardedOram::cycle(self)
    }
    fn shard_of(&self, addr: u64) -> usize {
        ShardedOram::shard_of(self, addr)
    }
    fn consumed(&self) -> u64 {
        (0..self.shard_count()).map(|s| self.shard_stats(s).misses_consumed).sum()
    }
    fn reserve_batch(&mut self, n: usize) {
        ShardedOram::reserve_batch(self, n);
    }
    fn serve_batch(&mut self, reqs: &[ShardRequest], outs: &mut Vec<ServeOutcome>) {
        ShardedOram::serve_batch(self, reqs, outs);
    }
    fn finish(&mut self) -> SimStats {
        ShardedOram::finish(self)
    }
}

/// A group leader selected this round: the request that becomes one
/// ORAM access, and where its coalesced waiters end in the waiter buffer
/// (they start where the previous leader's end).
#[derive(Debug, Clone, Copy)]
struct Leader {
    client: u32,
    req: QueuedRequest,
    waiters_end: usize,
}

/// The service front-end driving a [`ServeTarget`].
///
/// Construction wires the client streams; [`ServiceDriver::step`] runs
/// one scheduling round (admission plus up to `batch_size` issued
/// accesses); [`ServiceDriver::finish`] closes the target's accounting
/// and returns the [`ServiceResult`]. Results are bit-identical for a
/// fixed `(seed, lane count)` at any worker thread count.
#[derive(Debug)]
pub struct ServiceDriver<T> {
    front: Frontend,
    target: T,
    /// The current dispatch's group leaders, by batch slot.
    leaders: Vec<Leader>,
    /// `(client, request)` waiters swept out of the queues by the
    /// current dispatch, grouped by leader slot and completed with the
    /// leader's outcome. Preallocated, like the other three buffers: the
    /// steady-state issue path never allocates.
    waiter_buf: Vec<(u32, QueuedRequest)>,
    /// The batch handed to the target, by batch slot.
    batch: Vec<ShardRequest>,
    /// Per-slot outcomes returned by the target.
    outs: Vec<ServeOutcome>,
    /// Accesses the target had consumed before this phase began.
    prior_issued: u64,
}

/// The driver over a single [`Engine`]: the one-lane case.
pub type ServiceSim<B = DramBackend> = ServiceDriver<Engine<B>>;

/// The driver over a [`ShardedOram`] backend.
pub type ShardedServiceSim<B = DramBackend> = ServiceDriver<ShardedOram<B>>;

impl<T: ServeTarget> ServiceDriver<T> {
    /// Builds a front-end over a ready target (prefill the working set
    /// and attach observers/telemetry to its engines *before* handing it
    /// in; the service never reconfigures it).
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error.
    pub fn new(cfg: ServiceConfig, target: T) -> Result<Self, String> {
        ServiceDriver::resume(cfg, target, 0)
    }

    /// Builds a front-end over a target whose clock is already running
    /// — typically one returned by a previous phase's
    /// [`ServiceDriver::finish`] — with every client's first arrival
    /// offset by `start_cycle`. Stash occupancy, position map and Eq. 1
    /// accounting all carry over, so phase-chained soak runs observe one
    /// continuous ORAM rather than a sequence of cold starts.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error.
    pub fn resume(cfg: ServiceConfig, mut target: T, start_cycle: u64) -> Result<Self, String> {
        let front = Frontend::new_at(cfg, start_cycle)?;
        let batch = front.cfg.batch_size;
        target.reserve_batch(batch);
        Ok(ServiceDriver {
            waiter_buf: Vec::with_capacity(front.waiter_capacity()),
            leaders: Vec::with_capacity(batch),
            batch: Vec::with_capacity(batch),
            outs: Vec::with_capacity(batch),
            prior_issued: target.consumed(),
            front,
            target,
        })
    }

    /// Attaches a sink for the service-layer counters. (Engine-side
    /// telemetry — spans, windows, queue-wait samples — is attached to
    /// the engines themselves before construction.)
    pub fn attach_telemetry(&mut self, sink: SharedTelemetry) {
        self.front.telemetry = Some(sink);
    }

    /// Attaches a live observer for per-request completion and
    /// rejection events (tenant, shard, serve class, latency).
    pub fn attach_live(&mut self, live: SharedLive) {
        self.front.live = Some(live);
    }

    /// The target being driven.
    pub fn target(&self) -> &T {
        &self.target
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServiceConfig {
        &self.front.cfg
    }

    /// Injects one request directly into a client's queue at the
    /// current target cycle, subject to normal admission control.
    /// Returns `false` if the queue was full (request rejected). The
    /// deterministic entry point for invariant tests; generated streams
    /// use the client specs instead.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn inject(&mut self, client: usize, addr: u64, write: bool) -> bool {
        let now = self.target.cycle();
        self.front.admit(client, addr, write, now)
    }

    /// Selects up to `max` group leaders against the current clock,
    /// sweeps each one's coalesced waiters out of the queues, serves the
    /// leaders as one batch and completes every group. Returns the
    /// number of leaders issued.
    fn dispatch(&mut self, max: usize) -> usize {
        self.leaders.clear();
        self.batch.clear();
        let now = self.target.cycle();
        while self.leaders.len() < max {
            let Some(ci) = self.front.select_client() else { break };
            let req = self.front.pop_leader(ci, now);
            let first_waiter = self.waiter_buf.len();

            // MSHR sweep: absorb every queued read of the same address
            // (any client, any queue position) into this access. Writes
            // never coalesce — they carry distinct payloads. A later
            // leader can never alias an earlier read leader's address —
            // the sweep just emptied the queues of it.
            if self.front.cfg.coalescing && !req.write {
                let buf = &mut self.waiter_buf;
                for (i, c) in self.front.clients.iter_mut().enumerate() {
                    c.queue.retain(|q| {
                        if q.addr == req.addr && !q.write {
                            buf.push((i as u32, *q));
                            false
                        } else {
                            true
                        }
                    });
                }
            }

            // The group's effective arrival is its oldest member — the
            // leader under FCFS/oldest-first, and still the honest choice
            // under round-robin where an older waiter may ride along.
            let arrival = self.waiter_buf[first_waiter..]
                .iter()
                .fold(req.arrival, |oldest, (_, w)| oldest.min(w.arrival));
            self.leaders.push(Leader {
                client: ci as u32,
                req,
                waiters_end: self.waiter_buf.len(),
            });
            self.batch.push(ShardRequest { addr: req.addr, write: req.write, arrival });
        }
        if self.batch.is_empty() {
            return 0;
        }
        self.target.serve_batch(&self.batch, &mut self.outs);

        // Complete leaders in slot order, each followed by its waiters,
        // last swept first.
        let mut waiters_start = 0;
        for (leader, out) in self.leaders.iter().zip(&self.outs) {
            let shard = self.target.shard_of(leader.req.addr) as u32;
            self.front.complete(leader.client as usize, &leader.req, out, true, shard);
            for (wc, wreq) in self.waiter_buf[waiters_start..leader.waiters_end].iter().rev() {
                self.front.complete(*wc as usize, wreq, out, false, shard);
            }
            waiters_start = leader.waiters_end;
        }
        self.waiter_buf.clear();
        self.leaders.len()
    }

    /// Runs one scheduling round: admits every arrival up to the
    /// current target cycle (advancing to the next pending arrival if
    /// all queues are empty), then issues up to `batch_size` group
    /// leaders. Returns `false` once the run is drained.
    ///
    /// How the leaders reach the target follows from its lane count. A
    /// one-lane target serves requests back to back, so each leader is
    /// handed over as soon as it is selected: its queue wait is measured
    /// against the clock the previous leader left, and its completion is
    /// observed before the next selection. A multi-lane target serves
    /// its lanes concurrently, so the round's leaders go out as one
    /// batch against the round-start clock.
    pub fn step(&mut self) -> bool {
        self.front.admit_until(self.target.cycle());
        if self.front.queues_empty() {
            let next = self.front.next_pending_arrival();
            if next == NEVER {
                return false;
            }
            self.front.admit_until(next);
        }
        let round = self.front.cfg.batch_size;
        let group = if self.target.lanes() == 1 { 1 } else { round };
        for _ in 0..round / group {
            if self.dispatch(group) < group {
                break;
            }
        }
        !self.front.drained()
    }

    /// Steps until drained.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Closes the target's Eq. 1 accounting and returns the result
    /// together with the target (so callers can inspect engines,
    /// attached observers and dispatch counters, or reuse it).
    pub fn finish(mut self) -> (ServiceResult, T) {
        let stats = self.target.finish();
        let clients = self.front.into_results();
        (ServiceResult { stats, clients, prior_issued: self.prior_issued }, self.target)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_sim::SystemConfig;

    fn engine() -> Engine {
        let mut e = Engine::new(SystemConfig::small_test()).expect("valid config");
        e.prefill_working_set(512);
        e
    }

    fn quick_cfg(scheduler: SchedPolicy) -> ServiceConfig {
        let mut cfg = ServiceConfig::symmetric_open(3, 40, 2_000.0, 512, 11);
        cfg.scheduler = scheduler;
        cfg
    }

    #[test]
    fn generated_run_drains_and_validates() {
        for policy in SchedPolicy::ALL {
            let mut sim = ServiceSim::new(quick_cfg(policy), engine()).unwrap();
            sim.run();
            let (res, _) = sim.finish();
            res.validate().unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            assert_eq!(res.completed() + res.rejected(), 3 * 40, "{}", policy.name());
            assert!(res.stats.total_cycles > 0);
        }
    }

    #[test]
    fn same_seed_same_result() {
        let run = || {
            let mut sim = ServiceSim::new(quick_cfg(SchedPolicy::RoundRobin), engine()).unwrap();
            sim.run();
            sim.finish().0
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut cfg = quick_cfg(SchedPolicy::Fcfs);
            cfg.seed = seed;
            let mut sim = ServiceSim::new(cfg, engine()).unwrap();
            sim.run();
            sim.finish().0
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn fcfs_and_oldest_first_agree_on_monotone_arrivals() {
        // Admission order equals arrival order here, so the two
        // policies must produce the same schedule (see SchedPolicy
        // docs); round-robin is the one allowed to differ.
        let run = |policy| {
            let mut sim = ServiceSim::new(quick_cfg(policy), engine()).unwrap();
            sim.run();
            let (res, _) = sim.finish();
            res
        };
        let fcfs = run(SchedPolicy::Fcfs);
        let oldest = run(SchedPolicy::OldestFirst);
        assert_eq!(fcfs, oldest);
    }

    #[test]
    fn round_robin_reorders_across_clients() {
        // Client 0 backlogs three requests, client 1 one; under FCFS
        // client 1 waits behind all of client 0, under round-robin it
        // goes second.
        let run = |policy| {
            let mut cfg = ServiceConfig::symmetric_open(2, 0, 1_000.0, 64, 5);
            cfg.scheduler = policy;
            cfg.coalescing = false;
            let mut sim = ServiceSim::new(cfg, engine()).unwrap();
            for addr in [1, 2, 3] {
                assert!(sim.inject(0, addr, false));
            }
            assert!(sim.inject(1, 9, false));
            sim.run();
            let (res, _) = sim.finish();
            res.validate().unwrap();
            res.clients[1].latencies[0]
        };
        let fcfs = run(SchedPolicy::Fcfs);
        let rr = run(SchedPolicy::RoundRobin);
        assert!(rr < fcfs, "round-robin {rr} should beat fcfs {fcfs} for the minority client");
    }

    #[test]
    fn injection_respects_queue_bound() {
        let mut cfg = ServiceConfig::symmetric_open(1, 0, 1_000.0, 64, 5);
        cfg.queue_capacity = 2;
        let mut sim = ServiceSim::new(cfg, engine()).unwrap();
        assert!(sim.inject(0, 1, false));
        assert!(sim.inject(0, 2, false));
        assert!(!sim.inject(0, 3, false), "third injection must bounce");
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        assert_eq!(res.clients[0].admitted, 2);
        assert_eq!(res.clients[0].rejected, 1);
    }

    #[test]
    fn closed_loop_never_rejects() {
        let mut cfg = ServiceConfig::symmetric_open(2, 30, 500.0, 256, 3);
        cfg.queue_capacity = 1;
        for c in &mut cfg.clients {
            c.arrivals = ArrivalModel::Closed { think_cycles: 300.0 };
        }
        let mut sim = ServiceSim::new(cfg, engine()).unwrap();
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        assert_eq!(res.rejected(), 0);
        assert_eq!(res.completed(), 60);
    }

    #[test]
    fn open_loop_overload_rejects() {
        // Offered gap of ~30 cycles against multi-thousand-cycle ORAM
        // accesses: queues must overflow.
        let mut cfg = ServiceConfig::symmetric_open(2, 200, 30.0, 256, 9);
        cfg.queue_capacity = 4;
        let mut sim = ServiceSim::new(cfg, engine()).unwrap();
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        assert!(res.rejected() > 0, "overload must trip admission control");
    }

    #[test]
    fn coalescing_reduces_issued_accesses() {
        let mk = |coalescing| {
            let mut cfg = ServiceConfig::symmetric_open(4, 60, 200.0, 4096, 13);
            cfg.coalescing = coalescing;
            for c in &mut cfg.clients {
                // All clients hammer the same 2 hot blocks with reads.
                c.addresses = AddressMix::Hot { domain: 256, hot_blocks: 2, hot_frac: 1.0 };
                c.write_frac = 0.0;
            }
            let mut sim = ServiceSim::new(cfg, engine()).unwrap();
            sim.run();
            let (res, _) = sim.finish();
            res.validate().unwrap();
            res
        };
        let with = mk(true);
        let without = mk(false);
        assert!(with.coalesced() > 0);
        assert_eq!(without.coalesced(), 0);
        assert!(with.issued() < without.issued());
    }

    #[test]
    fn writes_never_coalesce() {
        let mut cfg = ServiceConfig::symmetric_open(3, 0, 1_000.0, 64, 5);
        cfg.coalescing = true;
        let mut sim = ServiceSim::new(cfg, engine()).unwrap();
        for c in 0..3 {
            assert!(sim.inject(c, 7, true));
        }
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        assert_eq!(res.coalesced(), 0);
        assert_eq!(res.issued(), 3, "each write must issue its own access");
    }

    #[test]
    fn shifted_zipf_migrates_the_hot_set_but_keeps_its_shape() {
        // Same seed, same theta: the shifted mix must draw the *same
        // rank sequence* rotated by the offset — popularity shape
        // intact, hot blocks moved.
        let draws = |addresses| {
            let spec = ClientSpec {
                arrivals: ArrivalModel::Open { mean_gap_cycles: 100.0 },
                addresses,
                write_frac: 0.0,
                requests: 0,
            };
            let mut c = ClientState::new(spec, 42, 0, 0, &mut Vec::new());
            (0..2_000).map(|_| c.draw_addr()).collect::<Vec<u64>>()
        };
        let base = draws(AddressMix::Zipfian { domain: 512, theta: 0.9 });
        let moved = draws(AddressMix::ZipfianShifted { domain: 512, theta: 0.9, offset: 100 });
        assert_eq!(moved.len(), base.len());
        for (b, m) in base.iter().zip(&moved) {
            assert_eq!(*m, (b + 100) % 512);
        }
        let zero = draws(AddressMix::ZipfianShifted { domain: 512, theta: 0.9, offset: 0 });
        assert_eq!(zero, base);
    }

    #[test]
    fn resumed_phase_offsets_arrivals_and_keeps_the_engine_warm() {
        // Phase 1 runs to completion; phase 2 resumes on the returned
        // engine from the final cycle. Arrivals must start at or after
        // the resume point and the engine's cumulative accounting must
        // keep growing (no cold restart).
        let mut p1 = ServiceSim::new(quick_cfg(SchedPolicy::Fcfs), engine()).unwrap();
        p1.run();
        let (r1, e1) = p1.finish();
        r1.validate().unwrap();
        let resume_at = e1.cycle();
        assert!(resume_at > 0);

        let mut cfg2 = quick_cfg(SchedPolicy::Fcfs);
        cfg2.seed ^= 0x50AC;
        let mut p2 = ServiceSim::resume(cfg2, e1, resume_at).unwrap();
        p2.run();
        let (r2, e2) = p2.finish();
        r2.validate().unwrap();
        assert_eq!(r2.completed() + r2.rejected(), 3 * 40);
        assert!(e2.cycle() > resume_at, "phase 2 must advance the shared clock");
        // Every phase-2 latency is measured from a post-resume arrival,
        // so no sample can exceed the phase-2 span.
        for c in &r2.clients {
            for &l in &c.latencies {
                assert!(l <= e2.cycle() - resume_at, "latency {l} spans phases");
            }
        }
    }

    #[test]
    fn resume_at_zero_matches_new() {
        let run_new = || {
            let mut s = ServiceSim::new(quick_cfg(SchedPolicy::Fcfs), engine()).unwrap();
            s.run();
            s.finish().0
        };
        let run_resume = || {
            let mut s = ServiceSim::resume(quick_cfg(SchedPolicy::Fcfs), engine(), 0).unwrap();
            s.run();
            s.finish().0
        };
        assert_eq!(run_new(), run_resume());
    }

    // ---- sharded backend ----

    fn sharded(shards: usize, threads: usize) -> ShardedOram {
        let mut b =
            ShardedOram::new(SystemConfig::small_test(), shards, threads).expect("valid config");
        b.prefill_working_set(512);
        b
    }

    #[test]
    fn sharded_run_drains_and_validates() {
        for policy in SchedPolicy::ALL {
            let mut sim = ShardedServiceSim::new(quick_cfg(policy), sharded(4, 2)).unwrap();
            sim.run();
            let (res, backend) = sim.finish();
            res.validate().unwrap_or_else(|e| panic!("{}: {e}", policy.name()));
            assert_eq!(res.completed() + res.rejected(), 3 * 40, "{}", policy.name());
            assert!(res.stats.total_cycles > 0);
            let dispatched: u64 = backend.dispatch_counts().iter().sum();
            assert_eq!(dispatched, res.issued(), "{}", policy.name());
        }
    }

    #[test]
    fn sharded_results_are_thread_count_invariant() {
        let run = |threads| {
            let mut sim =
                ShardedServiceSim::new(quick_cfg(SchedPolicy::Fcfs), sharded(4, threads)).unwrap();
            sim.run();
            sim.finish().0
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    /// Records every hook call, service-side and engine-side, in order.
    #[derive(Debug, Default)]
    struct EventLog(Vec<String>);

    impl oram_util::TelemetrySink for EventLog {
        fn count(&mut self, id: MetricId, delta: u64) {
            self.0.push(format!("count {id:?} {delta}"));
        }
        fn sample(&mut self, id: MetricId, value: u64) {
            self.0.push(format!("sample {id:?} {value}"));
        }
        fn span(&mut self, span: &oram_util::AccessSpan) {
            self.0.push(format!("{span:?}"));
        }
        fn window(&mut self, w: &oram_util::WindowSample) {
            self.0.push(format!("{w:?}"));
        }
    }

    impl oram_util::LiveObserver for EventLog {
        fn request_complete(
            &mut self,
            now: u64,
            tenant: u32,
            shard: u32,
            class: ServeClass,
            latency: u64,
            coalesced: bool,
        ) {
            self.0.push(format!("complete {now} {tenant} {shard} {class:?} {latency} {coalesced}"));
        }
        fn request_rejected(&mut self, now: u64, tenant: u32) {
            self.0.push(format!("rejected {now} {tenant}"));
        }
        fn request_admitted(&mut self, now: u64, tenant: u32) {
            self.0.push(format!("admitted {now} {tenant}"));
        }
    }

    /// Runs `cfg` over `target` with one [`EventLog`] attached to the
    /// engine (through `attach`) and to both service-side hooks.
    fn logged_run<T: ServeTarget>(
        cfg: ServiceConfig,
        mut target: T,
        attach: impl FnOnce(&mut T, SharedTelemetry),
    ) -> (ServiceResult, Vec<String>) {
        let log = std::sync::Arc::new(std::sync::Mutex::new(EventLog::default()));
        attach(&mut target, log.clone());
        let mut sim = ServiceDriver::new(cfg, target).unwrap();
        sim.attach_telemetry(log.clone());
        sim.attach_live(log.clone());
        sim.run();
        let (res, _) = sim.finish();
        let events = std::mem::take(&mut log.lock().unwrap().0);
        (res, events)
    }

    #[test]
    fn one_lane_sharded_backend_is_the_single_engine() {
        // An overloaded hot set: queues fill, requests bounce, groups
        // coalesce, and several leaders issue per round — so the wait
        // accounting depends on when each leader met the clock.
        for policy in SchedPolicy::ALL {
            for coalescing in [true, false] {
                for closed in [false, true] {
                    let mut cfg = ServiceConfig::symmetric_open(4, 60, 400.0, 32, 11);
                    cfg.scheduler = policy;
                    cfg.coalescing = coalescing;
                    if closed {
                        for c in &mut cfg.clients {
                            c.arrivals = ArrivalModel::Closed { think_cycles: 300.0 };
                        }
                    }
                    let tag = format!("{} coalescing={coalescing} closed={closed}", policy.name());
                    let (plain, plain_events) = logged_run(cfg.clone(), engine(), |e, sink| {
                        e.attach_telemetry(sink, 50_000)
                    });
                    let (lane, lane_events) = logged_run(cfg, sharded(1, 1), |b, sink| {
                        b.engine_mut(0).attach_telemetry(sink, 50_000)
                    });
                    plain.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
                    assert_eq!(plain, lane, "{tag}");
                    assert_eq!(plain_events, lane_events, "{tag}");
                    assert!(plain.clients.iter().any(|c| c.wait_max > 0), "{tag}: no queueing");
                    if !closed {
                        assert_eq!(coalescing, plain.coalesced() > 0, "{tag}");
                        assert!(plain.rejected() > 0, "{tag}: no overload");
                    }
                }
            }
        }
    }

    #[test]
    fn multi_lane_rounds_go_out_as_one_batch_against_the_round_start_clock() {
        // Pinned on the commit that still had a separate sharded driver:
        // per client (completed, issued, coalesced, rejected, wait_sum,
        // wait_max, latency sum), then the merged clock.
        let mut cfg = ServiceConfig::symmetric_open(4, 60, 100.0, 32, 11);
        cfg.scheduler = SchedPolicy::RoundRobin;
        let mut sim = ShardedServiceSim::new(cfg, sharded(4, 2)).unwrap();
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        let got: Vec<_> = res
            .clients
            .iter()
            .map(|c| {
                let lat: u64 = c.latencies.iter().sum();
                (c.completed, c.issued, c.coalesced, c.rejected, c.wait_sum, c.wait_max, lat)
            })
            .collect();
        assert_eq!(
            format!("{got:?} {}", res.stats.total_cycles),
            "[(55, 29, 26, 5, 68460, 3596, 50871), (52, 31, 21, 8, 69902, 3544, 40932), \
             (43, 22, 21, 17, 49072, 4302, 46614), (44, 28, 16, 16, 75428, 5078, 52429)] 10170"
        );
    }

    #[test]
    fn sharded_coalescing_spans_the_batch() {
        let mut cfg = ServiceConfig::symmetric_open(3, 0, 1_000.0, 64, 5);
        cfg.coalescing = true;
        let mut sim = ShardedServiceSim::new(cfg, sharded(2, 1)).unwrap();
        for c in 0..3 {
            assert!(sim.inject(c, 6, false));
        }
        sim.run();
        let (res, _) = sim.finish();
        res.validate().unwrap();
        assert_eq!(res.issued(), 1, "three same-address reads must share one access");
        assert_eq!(res.coalesced(), 2);
    }
}
