//! Layer-alone replays: where a layer has no public seam to time it in
//! situ, the identical call sequence is replayed into the layer by
//! itself. Inputs and results pass through `black_box`, and the smoke
//! run checks that replay time grows with the iteration count.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use oram_audit::{check_posmap_trace, check_service_trace, Recorder};
use oram_bench::{run_serve, ExpOptions, ServeOptions};
use oram_cpu::{MissRecord, ReplayMisses};
use oram_obsv::{render_prometheus, FlightConfig, LiveConfig, LivePlane};
use oram_protocol::{
    build_posmap, BlockAddr, DupPolicy, OramConfig, OramController, OramStats, PosMapSelect,
    Request, TreeShape,
};
use oram_service::{ServiceConfig, ServiceSim, ShardedServiceSim};
use oram_sim::{
    parallel_map, scale_profile, DiskBackend, DiskConfig, DramBackend, Engine, InsecureSystem,
    RunOptions, ServeOutcome, ShardRequest, ShardedOram, StorageBackend, SystemConfig, WanBackend,
    WanConfig,
};
use oram_telemetry::{TelemetryConfig, TelemetryRecorder};
use oram_util::{AccessSpan, BusEvent, LiveObserver, Rng64, TelemetrySink};
use oram_workloads::{spec, PoissonProcess, ZipfianSampler};

use crate::adapters::{Batch, TimedBackend, TimedSink};
use crate::passes::{metered_miss_stream, service_config, zipf_records, Segment};
use crate::span::{Meter, Sampled, TimerCost};
use crate::workloads::{serve_system, FIG17_PROFILES, SERVE_PREFILL_CAP};

/// Wall-clock nanoseconds of `f`.
fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as f64)
}

// ---------------------------------------------------------------- cpu

#[derive(Debug, Default)]
pub struct CpuProbe {
    pub ref_ns: f64,
    pub refs_per_miss: f64,
    pub hierarchy_ns_per_ref: f64,
    pub l1_hit_rate: f64,
    pub l2_hit_rate: f64,
    pub miss_stream_self_frac: f64,
}

/// Trace generation and L1/L2 filtering for the ten figure profiles, the
/// generator metered through the `RefStream` seam.
pub fn cpu(exp: &ExpOptions, timer: TimerCost) -> CpuProbe {
    let mut sys = SystemConfig::scaled_default();
    sys.oram.levels = exp.levels;
    let ro = RunOptions {
        misses: exp.misses,
        warmup_misses: exp.warmup,
        seed: exp.seed,
        fill_target: 0.35,
        o3: None,
    };
    let (mut total_ns, mut refs, mut misses) = (0.0, Sampled::default(), 0u64);
    let (mut l1, mut l2) = ((0u64, 0u64), (0u64, 0u64));
    for name in FIG17_PROFILES {
        let scaled = scale_profile(&spec::profile(name), &sys, ro.fill_target);
        let ((records, meter, core), ns) =
            time_ns(|| metered_miss_stream(black_box(&scaled), &sys, &ro));
        total_ns += ns;
        refs.add(&meter);
        misses += black_box(records).len() as u64;
        let (s1, s2) = (core.hierarchy().l1_stats(), core.hierarchy().l2_stats());
        l1 = (l1.0 + s1.hits, l1.1 + s1.hits + s1.misses);
        l2 = (l2.0 + s2.hits, l2.1 + s2.hits + s2.misses);
    }
    // The timer's own cost sits inside the stream build but outside the
    // generator: it belongs to neither layer.
    let refs_ns = refs.est_ns(timer);
    let timers_ns = (timer.inside_ns + timer.around_ns) * refs.timed.calls as f64;
    let self_ns = (total_ns - refs_ns - timers_ns).max(0.0);
    let n = refs.calls.max(1) as f64;
    CpuProbe {
        ref_ns: refs_ns / n,
        refs_per_miss: refs.calls as f64 / misses.max(1) as f64,
        hierarchy_ns_per_ref: self_ns / n,
        l1_hit_rate: l1.0 as f64 / l1.1.max(1) as f64,
        l2_hit_rate: l2.0 as f64 / l2.1.max(1) as f64,
        miss_stream_self_frac: self_ns / (self_ns + refs_ns).max(1.0),
    }
}

/// One Poisson gap plus one Zipf address: what the front-end draws per
/// generated request.
pub fn arrival_draw_ns(o: &ServeOptions, draws: u64) -> f64 {
    let mut gaps = PoissonProcess::new(o.seed, o.base_gap_cycles / o.load);
    let mut zipf = ZipfianSampler::new(o.domain.max(2), 0.99, o.seed);
    let ((), ns) = time_ns(|| {
        for _ in 0..draws {
            black_box(gaps.next_gap());
            black_box(zipf.sample());
        }
    });
    ns / draws.max(1) as f64
}

// ------------------------------------------------------------- engine

/// One engine-alone replay of a set of segments.
#[derive(Debug, Default)]
pub struct EngineReplay {
    pub ns: f64,
    pub accesses: u64,
    pub storage: Meter,
    /// With the sink attached: whether each access was real, per segment.
    pub real_flags: Vec<Vec<bool>>,
    pub spans: Vec<AccessSpan>,
    pub span_meter: Meter,
    pub sink_other: Sampled,
    /// Final controller statistics per segment.
    pub oram: Vec<OramStats>,
}

/// `Engine::run` over each segment on a fresh, prefilled engine whose
/// only adapter is the storage meter; `attached` adds the telemetry
/// recorder behind the sink meter, as the service path runs it.
pub fn engine(segments: &[Segment], attached: bool) -> EngineReplay {
    let mut out = EngineReplay::default();
    for seg in segments {
        let backend = TimedBackend::new(DramBackend::new(seg.sys.dram).expect("valid DRAM config"));
        let mut engine = Engine::with_backend(seg.sys.clone(), backend).expect("valid config");
        engine.prefill_working_set(seg.prefill);
        let sink = attached.then(|| {
            let telem = TelemetryRecorder::shared(TelemetryConfig { span_capacity: 1 << 16 });
            let sink = TimedSink::shared(TelemetryRecorder::as_sink(&telem));
            engine.attach_telemetry(sink.clone(), 50_000);
            sink
        });
        let mut stream = ReplayMisses::new(black_box(seg.records.clone()));
        let (stats, ns) = time_ns(|| engine.run(&mut stream));
        engine.detach_telemetry();
        out.ns += ns;
        out.accesses += black_box(stats).data_requests + stats.onchip_served + stats.dummy_requests;
        out.storage.add(&engine.backend().meter);
        out.oram.push(engine.controller().stats());
        if let Some(sink) = sink {
            let mut s = sink.lock().expect("sink poisoned");
            out.real_flags.push(std::mem::take(&mut s.real_flags));
            out.span_meter.add(&s.span_meter);
            out.sink_other.add(&s.other_meter);
            let room = (1usize << 16).saturating_sub(out.spans.len());
            out.spans.extend(s.spans.iter().take(room));
        }
    }
    out
}

/// The bus events of one segment, as the audit recorder sees them.
pub fn bus_events(seg: &Segment) -> Vec<BusEvent> {
    let mut engine = Engine::new(seg.sys.clone()).expect("valid config");
    engine.prefill_working_set(seg.prefill);
    let trace = Recorder::unbounded();
    engine.attach_bus_observer(trace.observer());
    engine.run(&mut ReplayMisses::new(seg.records.clone()));
    engine.detach_bus_observer();
    trace.snapshot()
}

pub fn insecure_ns_per_miss(segments: &[Segment]) -> f64 {
    let (mut ns, mut misses) = (0.0, 0u64);
    for seg in segments {
        let mut ins = InsecureSystem::new(seg.sys.clone()).expect("valid config");
        let mut stream = ReplayMisses::new(black_box(seg.records.clone()));
        let (stats, t) = time_ns(|| ins.run(&mut stream));
        ns += t;
        misses += black_box(stats).misses_consumed;
    }
    ns / misses.max(1) as f64
}

// ----------------------------------------------------------- protocol

/// Host time of the controller alone, by how each call ended.
#[derive(Debug, Default)]
pub struct ProtocolReplay {
    pub total: Meter,
    pub read: Meter,
    pub write: Meter,
    pub dummy: Meter,
    /// Accesses that ran one path read.
    pub readonly: Meter,
    /// Accesses that also ran an eviction (three phases).
    pub evicting: Meter,
    pub oram: Vec<OramStats>,
}

/// Replays each segment's call sequence into `OramController` alone:
/// `access` per record (`access_issue` + `access_complete` where the
/// engine pipelines), `dummy_access` where `real_flags` says the engine
/// injected a dummy. A `HashMap` oracle checks every read returns the
/// last value written. `policy` overrides the segment's duplication
/// policy; `per_call` times each call (for the breakdown) instead of the
/// whole loop.
pub fn protocol(
    segments: &[Segment],
    real_flags: &[Vec<bool>],
    policy: Option<DupPolicy>,
    posmap: Option<PosMapSelect>,
    per_call: bool,
) -> Result<ProtocolReplay, String> {
    let mut out = ProtocolReplay::default();
    for (i, seg) in segments.iter().enumerate() {
        let mut cfg: OramConfig = seg.sys.oram;
        if let Some(p) = policy {
            cfg.dup_policy = p;
        }
        if let Some(p) = posmap {
            cfg.posmap = p;
        }
        let mut ctl = OramController::new(cfg)?;
        ctl.prefill((0..seg.prefill).map(|a| (BlockAddr::new(a), 0)));
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        let all_real = vec![true; seg.records.len()];
        let flags = real_flags.get(i).unwrap_or(&all_real);
        let mut records = seg.records.iter();
        let mut stamp = 0u64;
        let began = Instant::now();
        for &real in flags {
            if !real {
                if per_call {
                    let r = out.dummy.time(|| ctl.dummy_access());
                    black_box(r);
                } else {
                    black_box(ctl.dummy_access());
                }
                continue;
            }
            let Some(rec) = records.next() else { break };
            stamp += 1;
            let req = if rec.is_write {
                Request::write(BlockAddr::new(rec.block_addr), stamp)
            } else {
                Request::read(BlockAddr::new(rec.block_addr))
            };
            let req = black_box(req);
            let pipeline = seg.sys.pipeline;
            let mut call = || {
                if pipeline {
                    let (r, ticket) = ctl.access_issue(req);
                    black_box(ctl.access_complete(ticket));
                    (r.value, if ticket.eviction_due() { 3 } else { r.phases.as_slice().len() })
                } else {
                    let r = ctl.access(req);
                    (r.value, r.phases.as_slice().len())
                }
            };
            let (value, _) = if per_call {
                let start = crate::span::now_ns();
                let r = call();
                let ns = crate::span::now_ns() - start;
                let by_op = if rec.is_write { &mut out.write } else { &mut out.read };
                by_op.calls += 1;
                by_op.ns += ns;
                let by_shape = match r.1 {
                    0 => None,
                    1 => Some(&mut out.readonly),
                    _ => Some(&mut out.evicting),
                };
                if let Some(m) = by_shape {
                    m.calls += 1;
                    m.ns += ns;
                }
                r
            } else {
                call()
            };
            // A write served by a path read returns the block's previous
            // contents, one served from the stash the new ones: only
            // reads are held to the oracle.
            if rec.is_write {
                oracle.insert(rec.block_addr, stamp);
                black_box(value);
                continue;
            }
            let expected = oracle.get(&rec.block_addr).copied().unwrap_or(0);
            if black_box(value) != expected {
                return Err(format!(
                    "protocol replay ({:?}, {:?}): access {stamp} of segment {i} to block {} returned {value}, expected {expected}",
                    cfg.dup_policy, cfg.posmap, rec.block_addr
                ));
            }
        }
        out.total.ns += began.elapsed().as_nanos() as u64;
        out.total.calls += flags.len() as u64;
        out.oram.push(ctl.stats());
    }
    Ok(out)
}

/// The check behind every replay number: the optimizer has not deleted
/// the replayed work, so replaying the whole of a sequence takes longer
/// than replaying its first half (best of five each, so one preempted
/// try does not decide it).
pub fn replay_time_grows(seg: &Segment) -> Result<(), String> {
    let half = Segment { records: seg.records[..seg.records.len() / 2].to_vec(), ..seg.clone() };
    // Alternating, so a neighbour that slows one kind of try slows the other.
    let time =
        |s: &Segment| protocol(std::slice::from_ref(s), &[], None, None, false).map(|p| p.total.ns);
    let (mut short, mut long) = (u64::MAX, u64::MAX);
    for _ in 0..5 {
        short = short.min(time(&half)?);
        long = long.min(time(seg)?);
    }
    if long as f64 >= 1.3 * short as f64 {
        Ok(())
    } else {
        Err(format!(
            "replaying {} accesses took {long} ns but {} took {short} ns: replay time does not grow with the iteration count",
            seg.records.len(),
            half.records.len()
        ))
    }
}

// ------------------------------------------------------------- posmap

#[derive(Debug, Default)]
pub struct PosmapProbe {
    pub flat_ns: f64,
    pub sparse_ns: f64,
    pub plb_hit_ns: f64,
    pub walk_ns: f64,
    pub plb_hit_rate: f64,
    pub walk_levels_per_miss: f64,
    pub chain_levels: f64,
    pub onchip_bytes: f64,
    pub setup_s: f64,
}

/// `lookup_or_assign` on each position-map backend alone, over the
/// workload's address distribution and tree depth.
pub fn posmap(
    sys: &SystemConfig,
    domain: u64,
    lookups: u64,
    seed: u64,
    timer: TimerCost,
) -> PosmapProbe {
    let addrs: Vec<u64> =
        zipf_records(domain, 0, lookups, seed).iter().map(|r| r.block_addr).collect();
    let shape = TreeShape::new(sys.oram.levels, sys.oram.z);
    let onchip_kb = match sys.oram.posmap {
        PosMapSelect::Recursive { onchip_kb } => onchip_kb,
        _ => 1,
    };
    let mut out = PosmapProbe::default();
    for select in [PosMapSelect::Flat, PosMapSelect::Sparse, PosMapSelect::Recursive { onchip_kb }]
    {
        let cfg = OramConfig { posmap: select, ..sys.oram };
        let (mut map, build_ns) = time_ns(|| build_posmap(black_box(&cfg), shape));
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut hit, mut walk) = (Meter::default(), Meter::default());
        let mut walk_levels = 0u64;
        for &a in &addrs {
            let start = crate::span::now_ns();
            black_box(map.lookup_or_assign(black_box(BlockAddr::new(a)), &mut rng));
            let ns = crate::span::now_ns() - start;
            let pending = map.pending();
            let m = if pending.is_empty() {
                &mut hit
            } else {
                let mut levels: Vec<u16> = pending.iter().map(|p| p.level).collect();
                levels.sort_unstable();
                levels.dedup();
                walk_levels += levels.len() as u64;
                &mut walk
            };
            m.calls += 1;
            m.ns += ns;
            map.clear_pending();
        }
        let per = |m: &Meter| if m.calls == 0 { 0.0 } else { m.net_ns(timer) / m.calls as f64 };
        match select {
            PosMapSelect::Flat => out.flat_ns = per(&hit),
            PosMapSelect::Sparse => out.sparse_ns = per(&hit),
            PosMapSelect::Recursive { .. } => {
                out.plb_hit_ns = per(&hit);
                out.walk_ns = per(&walk);
                out.plb_hit_rate = map.plb_stats().hit_rate();
                out.walk_levels_per_miss = walk_levels as f64 / walk.calls.max(1) as f64;
                out.chain_levels = f64::from(map.chain_levels());
                out.onchip_bytes = map.onchip_bytes() as f64;
                out.setup_s = build_ns / 1e9;
            }
        }
    }
    out
}

// ------------------------------------------------------------ storage

/// Host nanoseconds per `service_batch_into` of the captured batches
/// replayed into each backend: (dram, wan, disk).
pub fn storage(
    sys: &SystemConfig,
    batches: &[Batch],
    scratch: &Path,
) -> Result<(f64, f64, f64), String> {
    fn replay<B: StorageBackend>(mut backend: B, batches: &[Batch]) -> f64 {
        let mut finishes = Vec::with_capacity(256);
        let ((), ns) = time_ns(|| {
            for b in batches {
                backend.service_batch_into(
                    black_box(b.now),
                    black_box(&b.reqs),
                    b.occupy_bus,
                    &mut finishes,
                );
                black_box(&finishes);
            }
        });
        ns / batches.len().max(1) as f64
    }
    let dram = replay(DramBackend::new(sys.dram)?, batches);
    let wan = replay(WanBackend::new(WanConfig::default_wan())?, batches);
    // The timing model never consults the files, so a small store will do.
    let dir = scratch.join(format!("perf-disk-probe-{}", std::process::id()));
    let disk = DiskBackend::new(DiskConfig::new(dir.clone(), sys.oram.z, 1023))
        .map(|b| replay(b, batches));
    let _ = std::fs::remove_dir_all(&dir);
    Ok((dram, wan, disk?))
}

// ------------------------------------------------------------ service

/// An injection-driven front-end configuration: the workload's clients
/// with no generated requests.
fn injected(o: &ServeOptions) -> ServiceConfig {
    let mut cfg = service_config(o);
    for c in &mut cfg.clients {
        c.requests = 0;
    }
    cfg
}

#[derive(Debug, Default)]
pub struct ServiceProbe {
    /// `inject` + `step` per request on a prefilled engine.
    pub roundtrip_ns: f64,
    /// The same minus `Engine::serve_request` over the same sequence on
    /// an identical engine, scaled by the share of requests that became
    /// engine accesses (the rest were coalesced).
    pub self_ns: f64,
}

/// One request per client, then one scheduling round, over and over: the
/// front-end's admission, scheduling and coalescing with nothing else
/// attached; then the engine alone, back to back under the same
/// conditions, so the difference is the front-end's own time.
pub fn service(o: &ServeOptions, records: &[MissRecord]) -> Result<ServiceProbe, String> {
    let fresh = || -> Result<Engine, String> {
        let mut engine = Engine::new(serve_system(o))?;
        engine.prefill_working_set(o.domain.min(SERVE_PREFILL_CAP));
        Ok(engine)
    };
    let mut sim = ServiceSim::new(injected(o), fresh()?)?;
    let ((), front_ns) = time_ns(|| {
        for group in records.chunks(o.clients) {
            for (client, r) in group.iter().enumerate() {
                black_box(sim.inject(client, black_box(r.block_addr), r.is_write));
            }
            black_box(sim.step());
        }
    });
    let (res, _engine) = sim.finish();
    let mut engine = fresh()?;
    let ((), engine_ns) = time_ns(|| {
        for r in records {
            let arrival = engine.cycle();
            black_box(engine.serve_request(black_box(r.block_addr), r.is_write, arrival));
        }
    });
    let n = records.len().max(1) as f64;
    let issued_share = res.issued() as f64 / n;
    Ok(ServiceProbe {
        roundtrip_ns: front_ns / n,
        self_ns: (front_ns - engine_ns * issued_share) / n,
    })
}

#[derive(Debug, Default)]
pub struct ShardProbe {
    /// `ShardedOram::serve_batch` per batch of `clients` requests.
    pub batch_ns_t1: f64,
    pub batch_ns_t2: f64,
    /// `ShardedServiceSim` inject + step per request, minus the batches
    /// its accesses cost at one thread.
    pub sharded_self_ns: f64,
}

pub fn shards(o: &ServeOptions, records: &[MissRecord]) -> Result<ShardProbe, String> {
    let shards = o.shards;
    let mut sys = serve_system(o);
    sys.pipeline = true;
    let build = |threads: usize| -> Result<ShardedOram, String> {
        let mut b = ShardedOram::new(sys.clone(), shards, threads)?;
        b.prefill_working_set(o.domain.min(SERVE_PREFILL_CAP));
        b.reserve_batch(o.clients);
        Ok(b)
    };
    let batch_ns = |threads: usize, records: &[MissRecord]| -> Result<(f64, f64), String> {
        let mut backend = build(threads)?;
        let mut outs: Vec<ServeOutcome> = Vec::with_capacity(o.clients);
        let mut reqs: Vec<ShardRequest> = Vec::with_capacity(o.clients);
        let ((), ns) = time_ns(|| {
            for group in records.chunks(o.clients) {
                let now = backend.cycle();
                reqs.clear();
                reqs.extend(group.iter().map(|r| ShardRequest {
                    addr: r.block_addr,
                    write: r.is_write,
                    arrival: now,
                }));
                backend.serve_batch(black_box(&reqs), &mut outs);
                black_box(&outs);
            }
        });
        let batches = records.len().div_ceil(o.clients).max(1) as f64;
        Ok((ns / batches, ns / records.len().max(1) as f64))
    };
    let (t1, t1_per_access) = batch_ns(1, records)?;
    // Two threads pay a pool dispatch per batch; a shorter sequence keeps
    // the probe's own cost down.
    let (t2, _) = batch_ns(2, &records[..records.len().min(4096)])?;

    let mut sim = ShardedServiceSim::new(injected(o), build(1)?)?;
    let ((), ns) = time_ns(|| {
        for group in records.chunks(o.clients) {
            for (client, r) in group.iter().enumerate() {
                black_box(sim.inject(client, black_box(r.block_addr), r.is_write));
            }
            black_box(sim.step());
        }
    });
    let (res, _backend) = sim.finish();
    let self_ns = (ns - t1_per_access * res.issued() as f64) / records.len().max(1) as f64;
    Ok(ShardProbe { batch_ns_t1: t1, batch_ns_t2: t2, sharded_self_ns: self_ns })
}

/// `parallel_map` over no-op jobs on two threads: what one pool dispatch
/// costs.
pub fn pool_dispatch_ns(calls: u64) -> f64 {
    let items = [0u8; 64];
    let ((), ns) = time_ns(|| {
        for _ in 0..calls {
            black_box(parallel_map(2, black_box(&items), |x| black_box(*x)));
        }
    });
    ns / calls.max(1) as f64
}

// --------------------------------------------------------------- obsv

#[derive(Debug, Default)]
pub struct ObsvProbe {
    pub record_ns: f64,
    pub record_flight_ns: f64,
    pub prom_render_ns: f64,
    pub flight_dropped: f64,
}

/// The live plane's record path alone: each captured span through the
/// telemetry face and one completion through the live face, with and
/// without the flight recorder.
pub fn obsv(o: &ServeOptions, sys: &SystemConfig, spans: &[AccessSpan]) -> ObsvProbe {
    let feed = |flight: bool| -> (LivePlane, f64) {
        let mut plane = LivePlane::new(LiveConfig::for_serve(
            o.clients,
            o.shards,
            o.base_gap_cycles as u64,
            sys.oram.stash_capacity as u32,
        ));
        if flight {
            plane.attach_flight(FlightConfig::default());
        }
        let ((), ns) = time_ns(|| {
            for (i, s) in spans.iter().enumerate() {
                plane.span(black_box(s));
                if s.real {
                    let tenant = (i % o.clients) as u32;
                    plane.request_admitted(s.arrival, tenant);
                    plane.request_complete(
                        s.data_ready,
                        tenant,
                        0,
                        s.served,
                        s.data_ready - s.arrival,
                        false,
                    );
                }
            }
        });
        (plane, ns / spans.len().max(1) as f64)
    };
    let (plain, record_ns) = feed(false);
    black_box(&plain);
    let (with_flight, record_flight_ns) = feed(true);
    let (text, prom_render_ns) = time_ns(|| render_prometheus(black_box(&with_flight)));
    black_box(text);
    let dropped: u64 = with_flight.flight().map_or(0, |f| f.counts().iter().map(|(_, d)| d).sum());
    ObsvProbe { record_ns, record_flight_ns, prom_render_ns, flight_dropped: dropped as f64 }
}

// -------------------------------------------------------------- audit

#[derive(Debug, Default)]
pub struct AuditProbe {
    pub record_ns_per_event: f64,
    pub check_ns_per_event: f64,
    pub events: u64,
}

/// The bus recorder and the two trace checks alone, over one segment's
/// event stream.
pub fn audit(cfg: &OramConfig, events: &[BusEvent]) -> Result<AuditProbe, String> {
    let recorder = Recorder::unbounded();
    let observer = recorder.observer();
    let ((), record_ns) = time_ns(|| {
        for e in events {
            observer.lock().expect("observer poisoned").on_event(black_box(*e));
        }
    });
    let (snapshot, snap_ns) = time_ns(|| recorder.snapshot());
    let (checked, check_ns) = time_ns(|| {
        check_service_trace(cfg, black_box(&snapshot))
            .map(|_| ())
            .and_then(|()| check_posmap_trace(&snapshot).map(|_| ()))
    });
    checked.map_err(|e| format!("audit replay: {e}"))?;
    let n = events.len().max(1) as f64;
    Ok(AuditProbe {
        record_ns_per_event: record_ns / n,
        check_ns_per_event: (snap_ns + check_ns) / n,
        events: events.len() as u64,
    })
}

// -------------------------------------------------------------- bench

/// The bare front-end over a bare engine, with none of what `run_serve`
/// attaches and checks: nanoseconds for the whole thing.
pub fn bare_service_ns(o: &ServeOptions) -> Result<f64, String> {
    let cfg = service_config(o);
    let prefill = cfg.address_span().min(SERVE_PREFILL_CAP);
    let mut sys = serve_system(o);
    let (done, ns) = if o.shards > 1 {
        sys.pipeline = true;
        time_ns(|| -> Result<u64, String> {
            let mut backend = ShardedOram::new(sys.clone(), o.shards, o.threads)?;
            backend.prefill_working_set(prefill);
            let mut sim = ShardedServiceSim::new(cfg.clone(), backend)?;
            sim.run();
            Ok(sim.finish().0.completed())
        })
    } else {
        time_ns(|| -> Result<u64, String> {
            let mut engine = Engine::new(sys.clone())?;
            engine.prefill_working_set(prefill);
            let mut sim = ServiceSim::new(cfg.clone(), engine)?;
            sim.run();
            Ok(sim.finish().0.completed())
        })
    };
    black_box(done?);
    Ok(ns)
}

/// `run_serve` on the same options, validation and all.
pub fn run_serve_ns(o: &ServeOptions) -> Result<f64, String> {
    let (r, ns) = time_ns(|| run_serve(black_box(o), None));
    black_box(r?);
    Ok(ns)
}
