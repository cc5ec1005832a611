//! The traced pass: each workload's entry point rebuilt from the public
//! pieces it is made of, with a timing adapter at every public seam and
//! a span around every step. Nothing inside `crates/` changes, so these
//! are replicas; each proves it is a faithful one by reproducing the
//! entry point's simulated results exactly.

use std::sync::{Arc, Mutex};

use oram_audit::{check_posmap_trace, check_service_trace, Recorder};
use oram_bench::{experiments, ExpOptions, ServeOptions, SoakOptions};
use oram_cpu::{InOrderCore, MissRecord, MissStream, ReplayMisses};
use oram_dram::ChannelStats;
use oram_obsv::{FlightConfig, LiveConfig, LivePlane};
use oram_protocol::{DupPolicy, OramStats};
use oram_service::{
    AddressMix, LatencySummary, ServiceConfig, ServiceResult, ServiceSim, ShardedServiceSim,
};
use oram_sim::{
    scale_profile, DramBackend, Engine, InsecureSystem, RunOptions, ShardedOram, SimStats,
    StorageBackend, SystemConfig,
};
use oram_telemetry::{validate_attribution, TelemetryConfig, TelemetryRecorder};
use oram_util::{BusEvent, SharedObserver, SharedTelemetry};
use oram_workloads::{spec, TraceGenerator, ZipfianSampler};

use crate::adapters::{Batch, TimedBackend, TimedLive, TimedRefs, TimedSink};
use crate::span::{Meter, Sampled, Tracer};
use crate::workloads::{
    fnv1a, serve_system, SimMetrics, FIG17_PROFILES, FNV_OFFSET, SERVE_PREFILL_CAP,
};

/// One logical access sequence and the system it runs on: what the
/// layer-alone replays are fed.
#[derive(Debug, Clone)]
pub struct Segment {
    pub sys: SystemConfig,
    /// The working set `0..prefill` is installed before the sequence.
    pub prefill: u64,
    pub records: Vec<MissRecord>,
}

/// Front-end counts of a service pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounts {
    pub attempted: u64,
    pub completed: u64,
    pub issued: u64,
    pub coalesced: u64,
    pub rejected: u64,
}

impl ServiceCounts {
    fn of(res: &ServiceResult) -> ServiceCounts {
        ServiceCounts {
            attempted: res.completed() + res.rejected(),
            completed: res.completed(),
            issued: res.issued(),
            coalesced: res.coalesced(),
            rejected: res.rejected(),
        }
    }
}

/// What one traced pass measured in situ.
#[derive(Debug, Default)]
pub struct Pass {
    /// Engine accesses (real and dummy) inside `run_ns`.
    pub accesses: u64,
    /// Nanoseconds inside the driver loops (`Engine::run`,
    /// `ServiceSim::run`): the parent of the per-access ledger.
    pub run_ns: f64,
    pub storage: Meter,
    pub storage_blocks: u64,
    pub batches: Vec<Batch>,
    pub sink_span: Meter,
    pub sink_other: Sampled,
    /// Bus events the audit recorder took, and how many of them the
    /// storage backend emitted from inside `service_batch_into`. The
    /// recorder sees a hundred-odd events per access, tens of
    /// nanoseconds each, so its share is priced by replay, not timed in
    /// situ; the second count is what comes off the storage meter.
    pub bus_events: u64,
    pub bus_block_events: u64,
    pub live: Sampled,
    pub engine_new_s: f64,
    pub prefill_ns_per_block: f64,
    pub oram: OramStats,
    pub stash_peak: u64,
    pub dram: ChannelStats,
    pub service: Option<ServiceCounts>,
    /// The access sequences the replays use: exact for `fig17_sweep`
    /// (the harness generated them), drawn from the same distribution
    /// for the service workloads (the front-end does not expose the
    /// addresses it issued).
    pub segments: Vec<Segment>,
    /// What the replica reproduced of the entry point's results.
    pub digest: u64,
    pub sim_metrics: Option<SimMetrics>,
    pub served: u64,
}

fn timed_engine(sys: &SystemConfig) -> Engine<TimedBackend<DramBackend>> {
    let backend = TimedBackend::new(DramBackend::new(sys.dram).expect("valid DRAM config"));
    Engine::with_backend(sys.clone(), backend).expect("valid config")
}

fn accesses_of(s: &SimStats) -> u64 {
    s.data_requests + s.onchip_served + s.dummy_requests
}

fn add_oram(total: &mut OramStats, s: &OramStats) {
    macro_rules! add {
        ($($f:ident),*) => { $( total.$f += s.$f; )* };
    }
    add!(
        real_requests,
        dummy_requests,
        stash_served,
        replaceable_stash_served,
        shadow_stash_served,
        treetop_served,
        shadow_advanced,
        dram_served,
        fresh_served,
        served_position_sum,
        real_position_sum,
        ro_path_reads,
        evictions,
        rd_shadows_written,
        hd_shadows_written,
        real_blocks_written,
        dummy_blocks_written,
        stale_discarded,
        stash_shadow_candidates,
        recirculated_shadows
    );
}

fn harvest_engine(pass: &mut Pass, engine: &Engine<TimedBackend<DramBackend>>) {
    let b = engine.backend();
    pass.storage.add(&b.meter);
    pass.storage_blocks += b.blocks;
    let room = 4096usize.saturating_sub(pass.batches.len());
    pass.batches.extend(b.batches.iter().take(room).cloned());
    add_oram(&mut pass.oram, &engine.controller().stats());
    let d = engine.backend().stats();
    pass.dram.reads += d.reads;
    pass.dram.writes += d.writes;
    pass.dram.row_hits += d.row_hits;
    pass.dram.row_misses += d.row_misses;
    pass.dram.row_conflicts += d.row_conflicts;
    pass.stash_peak = pass.stash_peak.max(engine.controller().stash_stats().max_live as u64);
}

/// The five cells of one Fig. 17 row, as `experiments::fig17` builds them.
fn fig17_cells(opts: &ExpOptions) -> [SystemConfig; 5] {
    let mut base = SystemConfig::scaled_default();
    base.oram.levels = opts.levels;
    base.timing_protection = Some(experiments::TIMING_RATE);
    let with = |policy: DupPolicy, treetop: u32, xor: bool| {
        let mut c = base.clone();
        c.oram.dup_policy = policy;
        c.oram.treetop_levels = treetop;
        c.xor_compression = xor;
        c
    };
    let dyn3 = DupPolicy::Dynamic { counter_bits: 3 };
    [
        with(DupPolicy::Off, 0, false),
        with(DupPolicy::Off, 0, true),
        with(dyn3, 0, false),
        with(dyn3, 3, false),
        with(dyn3, 7, false),
    ]
}

/// `build_miss_stream` with the trace generator behind a meter: returns
/// the records, the generator's busy time and the core for its counters.
pub fn metered_miss_stream(
    profile: &oram_workloads::WorkloadProfile,
    sys: &SystemConfig,
    ro: &RunOptions,
) -> (Vec<MissRecord>, Sampled, InOrderCore<TimedRefs<TraceGenerator>>) {
    let total = ro.warmup_misses + ro.misses;
    let ref_budget = total.saturating_mul(5_000).max(100_000);
    let gen = TraceGenerator::new(profile.clone(), ro.seed, ref_budget);
    let (refs, meter) = TimedRefs::new(gen);
    let mut core = InOrderCore::new(refs, sys.hierarchy);
    let mut records = Vec::with_capacity(total as usize);
    while records.len() < total as usize {
        match core.next_miss() {
            Some(m) => records.push(m),
            None => break,
        }
    }
    let meter = meter.borrow().clone();
    (records, meter, core)
}

/// `experiments::fig17` cell by cell (the body of `run_workload`).
pub fn fig17(opts: &ExpOptions, t: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let ro = RunOptions {
        misses: opts.misses,
        warmup_misses: opts.warmup,
        seed: opts.seed,
        fill_target: 0.35,
        o3: None,
    };
    let mut digest = FNV_OFFSET;
    let mut prefilled = 0u64;
    for name in FIG17_PROFILES {
        let mut cycles = [0u64; 5];
        for (k, sys) in fig17_cells(opts).iter().enumerate() {
            t.scope("cell", |t| {
                let (scaled, records) = t.scope("workloads+cpu.miss_stream", |t| {
                    let scaled = scale_profile(&spec::profile(name), sys, ro.fill_target);
                    let (records, refs, _core) = metered_miss_stream(&scaled, sys, &ro);
                    t.attach("workloads.next_ref", &refs.timed);
                    (scaled, records)
                });
                let split = (ro.warmup_misses as usize).min(records.len());
                let mut engine = t.scope("sim.engine_new", |_| timed_engine(sys));
                t.scope("sim.prefill", |_| engine.prefill_working_set(scaled.working_set_blocks));
                prefilled += scaled.working_set_blocks;
                let warm = ReplayMisses::new(records[..split].to_vec());
                let measured = ReplayMisses::new(records[split..].to_vec());
                let (before, after) = t.scope("sim.engine.run", |_| {
                    let mut warm = warm;
                    let mut measured = measured;
                    let before = engine.run(&mut warm);
                    (before, engine.run(&mut measured))
                });
                cycles[k] = after.total_cycles - before.total_cycles;
                pass.accesses += accesses_of(&after);
                t.scope("sim.insecure.run", |_| {
                    let mut ins = InsecureSystem::new(sys.clone()).expect("valid config");
                    ins.run(&mut ReplayMisses::new(records[split..].to_vec()))
                });
                harvest_engine(&mut pass, &engine);
                pass.segments.push(Segment {
                    sys: sys.clone(),
                    prefill: scaled.working_set_blocks,
                    records,
                });
            });
        }
        fnv1a(&mut digest, name.as_bytes());
        for k in 1..5 {
            let speedup = cycles[0] as f64 / cycles[k] as f64;
            fnv1a(&mut digest, &speedup.to_bits().to_le_bytes());
        }
    }
    let cells = (FIG17_PROFILES.len() * 5) as f64;
    pass.engine_new_s = t.total_ns("sim.engine_new") as f64 / 1e9 / cells;
    pass.prefill_ns_per_block = t.total_ns("sim.prefill") as f64 / prefilled.max(1) as f64;
    pass.run_ns = t.total_ns("sim.engine.run") as f64;
    pass.digest = digest;
    pass.served = opts.misses * 5 * FIG17_PROFILES.len() as u64;
    pass
}

/// The front-end configuration `run_serve` builds (`service_config`).
pub fn service_config(o: &ServeOptions) -> ServiceConfig {
    let mut cfg = ServiceConfig::symmetric_open(
        o.clients,
        o.requests,
        o.base_gap_cycles / o.load,
        o.domain,
        o.seed,
    );
    cfg.scheduler = o.scheduler.expect("one scheduler per serve workload");
    cfg
}

/// A request sequence with the front-end's address and write mix
/// (Zipf θ = 0.99 over the domain, 30 % writes), seeded.
pub fn zipf_records(domain: u64, offset: u64, n: u64, seed: u64) -> Vec<MissRecord> {
    let mut zipf = ZipfianSampler::new(domain.max(2), 0.99, seed);
    let mut rng = oram_util::Rng64::seed_from_u64(seed ^ 0x5EED);
    (0..n)
        .map(|_| MissRecord {
            block_addr: (zipf.sample() + offset) % domain.max(1),
            is_write: rng.gen_bool(0.3),
            gap_cycles: 0,
            blocking: true,
        })
        .collect()
}

fn sim_metrics_of(res: &ServiceResult) -> Option<SimMetrics> {
    let mut lat: Vec<u64> = res.clients.iter().flat_map(|c| c.latencies.iter().copied()).collect();
    let latency = LatencySummary::from_samples(&mut lat);
    let (completed, cycles) = (res.completed(), res.stats.total_cycles);
    (completed > 0 && cycles > 0).then(|| SimMetrics {
        cycles_per_op: cycles as f64 / completed as f64,
        latency_p50: latency.p50 as f64,
        latency_p99: latency.p99 as f64,
        latency_p999: latency.p999 as f64,
        latency_n: latency.count,
        throughput_req_per_mcyc: completed as f64 * 1e6 / cycles as f64,
        speedup_vs_tiny: 1.0,
    })
}

/// The observers `run_serve` attaches: the bus recorder as is, the
/// telemetry recorder behind its timing adapter.
struct Observers {
    trace: Recorder,
    telem: Arc<Mutex<TelemetryRecorder>>,
    sink: Arc<Mutex<TimedSink>>,
}

impl Observers {
    fn new() -> Observers {
        let trace = Recorder::unbounded();
        let telem = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 16 });
        let sink = TimedSink::shared(TelemetryRecorder::as_sink(&telem));
        Observers { trace, telem, sink }
    }

    fn bus(&self) -> SharedObserver {
        self.trace.observer()
    }

    fn sink(&self) -> SharedTelemetry {
        self.sink.clone()
    }

    fn harvest(&self, pass: &mut Pass) {
        let sink = self.sink.lock().expect("sink poisoned");
        pass.sink_span.add(&sink.span_meter);
        pass.sink_other.add(&sink.other_meter);
    }

    /// The post-run checks of `run_policy_on`, each under its own span.
    fn validate(
        &self,
        t: &mut Tracer,
        pass: &mut Pass,
        oram: &oram_protocol::OramConfig,
    ) -> Result<(), String> {
        t.scope("telemetry.validate_attribution", |_| {
            validate_attribution(self.telem.lock().expect("recorder poisoned").spans())
        })?;
        let snapshot = t.scope("audit.snapshot", |_| self.trace.snapshot());
        pass.bus_events += snapshot.len() as u64;
        pass.bus_block_events +=
            snapshot.iter().filter(|e| matches!(e, BusEvent::DramBlock { .. })).count() as u64;
        if snapshot.is_empty() {
            return Ok(());
        }
        t.scope("audit.check", |_| {
            check_service_trace(oram, &snapshot)
                .map_err(|e| format!("service trace audit: {e}"))?;
            check_posmap_trace(&snapshot)
                .map(|_| ())
                .map_err(|e| format!("posmap trace audit: {e}"))
        })
    }
}

/// `run_policy_on`: the single-engine service path.
pub fn serve(o: &ServeOptions, t: &mut Tracer) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let sys = serve_system(o);
    let cfg = service_config(o);
    let prefill = cfg.address_span().min(SERVE_PREFILL_CAP);
    let obs = Observers::new();

    let mut engine = t.scope("sim.engine_new", |_| timed_engine(&sys));
    t.scope("sim.prefill", |_| engine.prefill_working_set(prefill));
    engine.attach_bus_observer(obs.bus());
    engine.attach_telemetry(obs.sink(), 50_000);
    let mut sim = ServiceSim::new(cfg, engine)?;
    sim.attach_telemetry(obs.sink());
    t.scope("service.run", |_| sim.run());
    let (res, mut engine) = sim.finish();
    engine.detach_telemetry();
    engine.detach_bus_observer();
    t.scope("service.validate", |_| res.validate())?;
    obs.validate(t, &mut pass, &engine.config().oram)?;

    obs.harvest(&mut pass);
    harvest_engine(&mut pass, &engine);
    pass.accesses = accesses_of(&res.stats);
    pass.run_ns = t.total_ns("service.run") as f64;
    pass.engine_new_s = t.total_ns("sim.engine_new") as f64 / 1e9;
    pass.prefill_ns_per_block = t.total_ns("sim.prefill") as f64 / prefill.max(1) as f64;
    pass.service = Some(ServiceCounts::of(&res));
    pass.sim_metrics = sim_metrics_of(&res);
    pass.served = res.completed();
    pass.segments =
        vec![Segment { sys, prefill, records: zipf_records(o.domain, 0, pass.accesses, o.seed) }];
    Ok(pass)
}

/// `run_policy_sharded`: the sharded service path.
pub fn sharded(o: &ServeOptions, t: &mut Tracer) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut sys = serve_system(o);
    sys.pipeline = true;
    let cfg = service_config(o);
    let prefill = cfg.address_span().min(SERVE_PREFILL_CAP);
    let dram = sys.dram;

    let mut backend = t.scope("sim.engine_new", |_| {
        ShardedOram::with_backend_factory(sys.clone(), o.shards, o.threads, |_| {
            DramBackend::new(dram).map(TimedBackend::new)
        })
    })?;
    t.scope("sim.prefill", |_| backend.prefill_working_set(prefill));
    let observers: Vec<Observers> = (0..o.shards).map(|_| Observers::new()).collect();
    for (i, obs) in observers.iter().enumerate() {
        backend.engine_mut(i).attach_bus_observer(obs.bus());
        backend.engine_mut(i).attach_telemetry(obs.sink(), 50_000);
    }
    let mut sim = ShardedServiceSim::new(cfg, backend)?;
    sim.attach_telemetry(observers[0].sink());
    t.scope("service.run", |_| sim.run());
    let (res, mut backend) = sim.finish();
    for i in 0..o.shards {
        backend.engine_mut(i).detach_telemetry();
        backend.engine_mut(i).detach_bus_observer();
    }
    t.scope("service.validate", |_| res.validate())?;
    let global = zipf_records(o.domain, 0, accesses_of(&res.stats), o.seed);
    let m = o.shards as u64;
    for (i, obs) in observers.iter().enumerate() {
        let engine = backend.engine_mut(i);
        obs.validate(t, &mut pass, &engine.config().oram).map_err(|e| format!("shard {i}: {e}"))?;
        obs.harvest(&mut pass);
        harvest_engine(&mut pass, engine);
        // Shard i serves addresses = i (mod M) at local address a / M.
        let records = global
            .iter()
            .filter(|r| r.block_addr % m == i as u64)
            .map(|r| MissRecord { block_addr: r.block_addr / m, ..*r })
            .collect();
        pass.segments.push(Segment {
            sys: engine.config().clone(),
            prefill: (prefill + m - 1 - i as u64) / m,
            records,
        });
    }
    pass.accesses = accesses_of(&res.stats);
    pass.run_ns = t.total_ns("service.run") as f64;
    pass.engine_new_s = t.total_ns("sim.engine_new") as f64 / 1e9 / o.shards as f64;
    pass.prefill_ns_per_block = t.total_ns("sim.prefill") as f64 / prefill.max(1) as f64;
    pass.service = Some(ServiceCounts::of(&res));
    pass.sim_metrics = sim_metrics_of(&res);
    pass.served = res.completed();
    Ok(pass)
}

/// `phase_load` of the soak schedule: a triangular diurnal profile from
/// 0.8 at the edges to 1.3 at midday.
fn phase_load(i: usize, n: usize) -> f64 {
    if n <= 1 {
        return 1.0;
    }
    let tri = 1.0 - (2.0 * (i as f64 / (n - 1) as f64) - 1.0).abs();
    0.8 + 0.5 * tri
}

/// `run_soak` on the DRAM backend: one engine, phases chained with
/// `ServiceSim::resume`, live plane and flight recorder on the record
/// path, streaming validation.
pub fn soak(o: &SoakOptions, t: &mut Tracer) -> Result<Pass, String> {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut pass = Pass::default();
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = o.levels;
    let per = o.requests_total / (o.tenants as u64 * o.phases as u64);
    if per == 0 {
        return Err("soak size splits to zero requests per tenant per phase".into());
    }

    let plane = LivePlane::shared(LiveConfig::for_serve(
        o.tenants,
        1,
        o.base_gap_cycles as u64,
        sys.oram.stash_capacity as u32,
    ));
    plane.lock().expect("plane lock").attach_flight(FlightConfig::default());
    let sink = TimedSink::shared(LivePlane::as_sink(&plane));
    let live = TimedLive::shared(LivePlane::as_live(&plane));

    let mut engine = t.scope("sim.engine_new", |_| timed_engine(&sys));
    t.scope("sim.prefill", |_| engine.prefill_working_set(o.domain));
    engine.attach_telemetry(sink.clone(), 50_000);
    let mut slot = Some(engine);
    let mut cycle = 0u64;
    let mut counts = ServiceCounts::default();
    for i in 0..o.phases {
        let offset = (o.domain / o.phases as u64) * i as u64 % o.domain.max(1);
        let mut cfg = ServiceConfig::symmetric_open(
            o.tenants,
            per,
            o.base_gap_cycles / phase_load(i, o.phases),
            o.domain,
            o.seed ^ (i as u64 + 1).wrapping_mul(GOLDEN),
        );
        for c in &mut cfg.clients {
            c.addresses = AddressMix::ZipfianShifted { domain: o.domain, theta: 0.99, offset };
        }
        let mut sim = ServiceSim::resume(cfg, slot.take().expect("engine slot"), cycle)?;
        sim.attach_live(live.clone());
        t.scope("service.run", |_| sim.run());
        let (res, engine) = sim.finish();
        t.scope("service.validate", |_| res.validate()).map_err(|e| format!("phase {i}: {e}"))?;
        cycle = engine.cycle();
        counts.attempted += res.completed() + res.rejected();
        counts.completed += res.completed();
        counts.issued += res.issued();
        counts.coalesced += res.coalesced();
        counts.rejected += res.rejected();
        slot = Some(engine);
    }
    let mut engine = slot.take().expect("engine slot");
    engine.detach_telemetry();
    t.scope("obsv.validate_conservation", |_| {
        let mut p = plane.lock().expect("plane lock");
        p.flush();
        p.validate_conservation()
    })?;

    {
        let s = sink.lock().expect("sink poisoned");
        pass.sink_span.add(&s.span_meter);
        pass.sink_other.add(&s.other_meter);
        pass.live.add(&live.lock().expect("live poisoned").meter);
    }
    harvest_engine(&mut pass, &engine);
    pass.accesses = accesses_of(&engine.stats());
    pass.run_ns = t.total_ns("service.run") as f64;
    pass.engine_new_s = t.total_ns("sim.engine_new") as f64 / 1e9;
    pass.prefill_ns_per_block = t.total_ns("sim.prefill") as f64 / o.domain.max(1) as f64;
    pass.service = Some(counts);
    pass.served = counts.completed;
    let p = plane.lock().expect("plane lock");
    let worst =
        |q: f64| (0..o.tenants).map(|i| p.tenant_latency(i).quantile(q)).max().unwrap_or(0) as f64;
    pass.sim_metrics = (counts.completed > 0 && cycle > 0).then(|| SimMetrics {
        cycles_per_op: cycle as f64 / counts.completed as f64,
        latency_p50: worst(0.5),
        latency_p99: worst(0.99),
        latency_p999: worst(0.999),
        latency_n: (0..o.tenants).map(|i| p.total().tenant_completed[i]).min().unwrap_or(0),
        throughput_req_per_mcyc: counts.completed as f64 * 1e6 / cycle as f64,
        speedup_vs_tiny: 1.0,
    });
    pass.segments = vec![Segment {
        sys,
        prefill: o.domain,
        records: zipf_records(o.domain, 0, pass.accesses, o.seed),
    }];
    Ok(pass)
}
