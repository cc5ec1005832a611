//! `perf trace`: the per-layer traced run of one workload.
//!
//! Three measurements, in this order: the entry point untraced (the wall
//! time tracing is compared against, and the allocator counts); the
//! traced pass of [`crate::passes`], with an adapter at every public
//! seam; and the layer-alone replays of [`crate::probes`] for layers
//! without a seam. The per-access ledger at the end splits the traced
//! pass's driver loop into what each layer cost, and reports what no
//! layer accounts for.

use std::collections::BTreeMap;
use std::path::PathBuf;

use oram_protocol::{DupPolicy, PosMapSelect};

use crate::child::ALLOC;
use crate::metrics::PER_LAYER;
use crate::passes::{self, Pass};
use crate::probes;
use crate::span::{timer_cost, Breakdown, Tracer};
use crate::workloads::{self, Kind, Workload};

/// Everything one traced run produced.
#[derive(Debug)]
pub struct Traced {
    /// Operations the workload attempted (for the contract's `attempted`).
    pub ops: u64,
    pub layers: BTreeMap<&'static str, f64>,
    pub failures: Vec<String>,
    /// The span tree and the per-access ledger, as text.
    pub reconciliation: String,
    pub chrome_json: String,
}

/// Directory for the disk-backend probe's scratch store: beside the
/// executable, so inside the build directory of the checkout.
fn scratch_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn per(total: f64, n: u64) -> f64 {
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Renders the pass's span tree: every span name under the root with its
/// total, and the root's self time.
fn span_table(t: &Tracer) -> (String, f64) {
    let root = &t.spans()[0];
    let mut out = format!("  {:<40} {:>14} ns\n", root.name, root.ns());
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for s in t.spans().iter().filter(|s| s.parent == Some(0)) {
        *by_name.entry(s.name.as_str()).or_default() += s.ns();
    }
    for (name, ns) in &by_name {
        out.push_str(&format!("    {:<38} {:>14} ns\n", name, ns));
    }
    let own = t.self_ns(0);
    out.push_str(&format!("    {:<38} {:>14} ns\n", "(self)", own));
    let sum = by_name.values().sum::<u64>() + own;
    let residual = (sum as f64 - root.ns() as f64).abs() / (root.ns() as f64).max(1.0);
    (out, residual)
}

/// See [`probes::replay_time_grows`]; run by `perf run --smoke` over a
/// short `serve_flat`-shaped sequence.
pub fn replay_time_grows(seed: u64) -> Result<(), String> {
    let o = Kind::ServeFlat.serve_options_or_reference(seed, 1);
    probes::replay_time_grows(&passes::Segment {
        sys: workloads::serve_system(&o),
        prefill: o.domain.min(workloads::SERVE_PREFILL_CAP),
        records: passes::zipf_records(o.domain, 0, 4_000, seed),
    })
}

pub fn trace_workload(w: Workload, seed: u64, div: u64) -> Traced {
    let mut failures = Vec::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut set = |name: &'static str, value: f64| {
        debug_assert!(crate::metrics::layer(name).is_some(), "{name} is not a per-layer metric");
        layers.insert(name, if value.is_finite() { value } else { 0.0 });
    };
    let timer = timer_cost();
    let kind = w.kind;
    let exp = kind.exp_options(seed, div);
    let serve_opts = kind.serve_options_or_reference(seed, div);
    let own_serve = kind.serve_options(seed, div).is_some();

    // 1. The entry point, untraced.
    let (outcome, wall_s, (allocs, bytes)) = {
        let (a0, b0) = (ALLOC.allocations(), ALLOC.bytes());
        workloads::run_once(kind, seed, div, false, || {
            (ALLOC.allocations() - a0, ALLOC.bytes() - b0)
        })
    };
    if let Err(why) = &outcome.check {
        failures.push(format!("{}: entry point: {why}", w.name));
    }
    let ops = outcome.attempted.max(1);
    let untraced_ns = wall_s * 1e9;

    // 2. The traced pass.
    let mut t = Tracer::new();
    let pass = t.scope(&format!("pass:{}", w.name), |t| match kind {
        Kind::Fig17Sweep => Ok(passes::fig17(&exp, t)),
        Kind::ServeSharded => passes::sharded(&serve_opts, t),
        Kind::SoakTenants => passes::soak(&kind.soak_options(seed, div), t),
        Kind::ServeFlat | Kind::ServeOverload | Kind::ServeRecursive => {
            passes::serve(&serve_opts, t)
        }
    });
    let traced_ns = t.spans()[0].ns() as f64;
    let pass = pass.unwrap_or_else(|why| {
        failures.push(format!("{}: traced pass: {why}", w.name));
        Pass::default()
    });
    // The replica must reproduce the entry point's simulated results.
    let faithful = match kind {
        Kind::Fig17Sweep => pass.digest == outcome.digest,
        _ => pass.sim_metrics == outcome.sim && pass.served == outcome.served,
    };
    if !faithful && outcome.check.is_ok() && !pass.segments.is_empty() {
        failures.push(format!(
            "{}: the traced pass did not reproduce the entry point's simulated results",
            w.name
        ));
    }

    // 3. Layer-alone replays. The service-shaped segment feeds the
    // service-side probes; `fig17_sweep` has none of its own, so it
    // borrows `serve_flat`'s.
    let own = &pass.segments;
    let reference;
    let service_segs: &[passes::Segment] = if own_serve || kind == Kind::SoakTenants {
        own
    } else {
        let sys = workloads::serve_system(&serve_opts);
        let n = serve_opts.requests * serve_opts.clients as u64;
        reference = vec![passes::Segment {
            prefill: serve_opts.domain.min(workloads::SERVE_PREFILL_CAP),
            records: passes::zipf_records(serve_opts.domain, 0, n, seed),
            sys,
        }];
        &reference
    };

    let detached = probes::engine(own, false);
    let attached = probes::engine(own, true);
    let (svc_detached, svc_attached);
    let (service_detached, service_attached) = if std::ptr::eq(service_segs, own.as_slice()) {
        (&detached, &attached)
    } else {
        svc_detached = probes::engine(service_segs, false);
        svc_attached = probes::engine(service_segs, true);
        (&svc_detached, &svc_attached)
    };

    // oram-protocol: the own-policy replay, call by call, then the four
    // policies and both position maps over the same sequences.
    let own_protocol = probes::protocol(own, &attached.real_flags, None, None, true);
    let protocol_ns_per_access = match &own_protocol {
        Ok(p) => {
            if p.oram != attached.oram {
                failures.push(format!(
                    "{}: the controller replay did not reproduce the engine's controller statistics",
                    w.name
                ));
            }
            let calls = p.read.calls + p.write.calls + p.dummy.calls;
            let ns = p.read.net_ns(timer) + p.write.net_ns(timer) + p.dummy.net_ns(timer);
            set("protocol.access_ns.read", per(p.read.net_ns(timer), p.read.calls));
            set("protocol.access_ns.write", per(p.write.net_ns(timer), p.write.calls));
            set("protocol.access_ns.dummy", per(p.dummy.net_ns(timer), p.dummy.calls));
            set("protocol.access_ns.readonly", per(p.readonly.net_ns(timer), p.readonly.calls));
            set("protocol.access_ns.evicting", per(p.evicting.net_ns(timer), p.evicting.calls));
            per(ns, calls)
        }
        Err(why) => {
            failures.push(format!("{}: {why}", w.name));
            0.0
        }
    };
    // The policy comparison runs on plain (no treetop, no XOR) cells only,
    // so the four numbers differ by policy alone.
    let plain: Vec<usize> = (0..own.len())
        .filter(|&i| own[i].sys.oram.treetop_levels == 0 && !own[i].sys.xor_compression)
        .filter(|&i| {
            kind != Kind::Fig17Sweep
                || matches!(own[i].sys.oram.dup_policy, DupPolicy::Dynamic { .. })
        })
        .collect();
    let plain_segs: Vec<passes::Segment> = plain.iter().map(|&i| own[i].clone()).collect();
    let plain_flags: Vec<Vec<bool>> =
        plain.iter().filter_map(|&i| attached.real_flags.get(i).cloned()).collect();
    let mut by_policy = [0.0f64; 4];
    let policies = [
        ("protocol.access_ns.tiny", DupPolicy::Off),
        ("protocol.access_ns.rd_dup", DupPolicy::RdOnly),
        ("protocol.access_ns.hd_dup", DupPolicy::HdOnly),
        ("protocol.access_ns.dynamic3", DupPolicy::Dynamic { counter_bits: 3 }),
    ];
    for (slot, (name, policy)) in policies.into_iter().enumerate() {
        match probes::protocol(&plain_segs, &plain_flags, Some(policy), None, false) {
            Ok(p) => by_policy[slot] = per(p.total.ns as f64, p.total.calls),
            Err(why) => failures.push(format!("{}: {why}", w.name)),
        }
        set(name, by_policy[slot]);
    }
    // The oracle again, over a short prefix, under every policy on the
    // position map the workload does not run (the timed replays above
    // covered its own): flat and recursive are both checked either way.
    let short: Vec<passes::Segment> = plain_segs
        .iter()
        .take(1)
        .map(|s| passes::Segment {
            records: s.records[..s.records.len().min(4096)].to_vec(),
            ..s.clone()
        })
        .collect();
    let other = match short.first().map(|s| s.sys.oram.posmap) {
        Some(PosMapSelect::Recursive { .. }) => PosMapSelect::Flat,
        _ => PosMapSelect::Recursive { onchip_kb: 1 },
    };
    for (_, policy) in policies {
        if let Err(why) = probes::protocol(&short, &[], Some(policy), Some(other), false) {
            failures.push(format!("{}: {why}", w.name));
        }
    }
    set(
        "protocol.dup_host_ratio",
        if by_policy[0] > 0.0 { by_policy[3] / by_policy[0] } else { 0.0 },
    );

    // Counts of what the mechanism did, from the traced pass itself.
    let o = &pass.oram;
    let real = o.real_requests.max(1) as f64;
    set("protocol.stash_served_frac", o.stash_served as f64 / real);
    set("protocol.shadow_advanced_frac", o.shadow_advanced as f64 / real);
    set("protocol.mean_served_position", o.mean_served_position());
    let shadows = o.rd_shadows_written + o.hd_shadows_written;
    set("protocol.shadows_written_per_eviction", per(shadows as f64, o.evictions));
    set(
        "protocol.shadow_useful_ratio",
        per((o.shadow_advanced + o.shadow_stash_served) as f64, shadows),
    );
    set(
        "protocol.stale_discarded_per_access",
        per(o.stale_discarded as f64, o.real_requests + o.dummy_requests),
    );
    set("protocol.stash_peak", pass.stash_peak as f64);

    // workloads + cpu.
    let cpu = probes::cpu(&exp, timer);
    set("workloads.ref_ns", cpu.ref_ns);
    set("workloads.refs_per_miss", cpu.refs_per_miss);
    set("workloads.arrival_draw_ns", probes::arrival_draw_ns(&serve_opts, 200_000 / div));
    set("cpu.hierarchy_ns_per_ref", cpu.hierarchy_ns_per_ref);
    set("cpu.l1_hit_rate", cpu.l1_hit_rate);
    set("cpu.l2_hit_rate", cpu.l2_hit_rate);
    set("cpu.miss_stream_self_frac", cpu.miss_stream_self_frac);

    // posmap, at the workload's tree depth and address distribution.
    let sys0 = own.first().map_or_else(|| workloads::serve_system(&serve_opts), |s| s.sys.clone());
    let domain =
        if own_serve { serve_opts.domain } else { own.first().map_or(1024, |s| s.prefill.max(2)) };
    let pm = probes::posmap(&sys0, domain, 50_000 / div, seed, timer);
    set("posmap.lookup_ns.flat", pm.flat_ns);
    set("posmap.lookup_ns.sparse", pm.sparse_ns);
    set("posmap.lookup_ns.recursive_plb_hit", pm.plb_hit_ns);
    set("posmap.lookup_ns.recursive_walk", pm.walk_ns);
    set("posmap.plb_hit_rate", pm.plb_hit_rate);
    set("posmap.walk_levels_per_miss", pm.walk_levels_per_miss);
    set("posmap.chain_levels", pm.chain_levels);
    set("posmap.onchip_bytes", pm.onchip_bytes);
    set("posmap.setup_s", pm.setup_s);

    // storage / dram.
    match probes::storage(&sys0, &pass.batches, &scratch_dir()) {
        Ok((dram, wan, disk)) => {
            set("storage.batch_ns.dram", dram);
            set("storage.batch_ns.wan", wan);
            set("storage.batch_ns.disk", disk);
        }
        Err(why) => failures.push(format!("{}: storage replay: {why}", w.name)),
    }
    // The audit recorder's price per event, by replay over the
    // service-shaped segment's event stream; the events the backend
    // emits from inside a batch come off the storage meter at that price.
    let audit = service_segs.first().map(|seg| {
        let events = probes::bus_events(seg);
        (probes::audit(&seg.sys.oram, &events), seg.records.len() as u64)
    });
    let record_ns_per_event = match &audit {
        Some((Ok(a), _)) => a.record_ns_per_event,
        _ => 0.0,
    };
    let storage_ns =
        (pass.storage.net_ns(timer) - record_ns_per_event * pass.bus_block_events as f64).max(0.0);
    set("storage.batches_per_access", per(pass.storage.calls as f64, pass.accesses));
    set("storage.blocks_per_batch", per(pass.storage_blocks as f64, pass.storage.calls));
    set("storage.busy_frac", if pass.run_ns > 0.0 { storage_ns / pass.run_ns } else { 0.0 });
    let d = &pass.dram;
    set("dram.row_hit_rate", per(d.row_hits as f64, d.row_hits + d.row_misses + d.row_conflicts));
    set("dram.reads", d.reads as f64);
    set("dram.writes", d.writes as f64);

    // service.
    let svc_records = &service_segs.first().map_or(&[][..], |s| &s.records[..]);
    let engine_alone_ns = per(service_detached.ns, service_detached.accesses);
    let service_self = match probes::service(&serve_opts, svc_records) {
        Ok(p) => {
            set("service.roundtrip_ns", p.roundtrip_ns);
            set("service.self_ns", p.self_ns);
            p.self_ns
        }
        Err(why) => {
            failures.push(format!("{}: service replay: {why}", w.name));
            0.0
        }
    };
    // The sharded driver is measured on `serve_sharded`'s own options
    // whatever the workload: its rows are that workload's alone.
    let shard_opts = Kind::ServeSharded.serve_options_or_reference(seed, div);
    let shard_records = passes::zipf_records(shard_opts.domain, 0, shard_opts.requests, seed);
    match probes::shards(&shard_opts, &shard_records) {
        Ok(p) => {
            set("sim.shard.batch_ns.t1", p.batch_ns_t1);
            set("sim.shard.batch_ns.t2", p.batch_ns_t2);
            set("service.sharded_self_ns", p.sharded_self_ns);
        }
        Err(why) => failures.push(format!("{}: shard replay: {why}", w.name)),
    }
    let counts = pass.service.unwrap_or_default();
    set("service.coalesced_frac", per(counts.coalesced as f64, counts.attempted));
    set("service.rejected_frac", per(counts.rejected as f64, counts.attempted));
    set("service.issued_per_attempt", per(counts.issued as f64, counts.attempted));

    // sim.
    set("sim.insecure.ns_per_miss", probes::insecure_ns_per_miss(own));
    set("sim.engine_new_s", pass.engine_new_s);
    set("sim.prefill_ns_per_block", pass.prefill_ns_per_block);
    set("sim.pool.dispatch_ns", probes::pool_dispatch_ns(200 / div.min(10)));

    // telemetry: the recorder's span path behind the sink meter, and the
    // engine with and without the recorder attached.
    set(
        "telemetry.span_record_ns",
        per(service_attached.span_meter.net_ns(timer), service_attached.span_meter.calls),
    );
    set(
        "telemetry.attached_overhead_ns_per_access",
        per(service_attached.ns, service_attached.accesses) - engine_alone_ns,
    );

    // obsv + audit, over the service-shaped segment's spans and events.
    let ob = probes::obsv(&serve_opts, &sys0, &service_attached.spans);
    set("obsv.record_ns", ob.record_ns);
    set("obsv.record_ns.flight", ob.record_flight_ns);
    set("obsv.prom_render_ns", ob.prom_render_ns);
    set("obsv.flight_dropped", ob.flight_dropped);
    match audit {
        Some((Ok(a), requests)) => {
            set("audit.record_ns_per_event", a.record_ns_per_event);
            set("audit.check_ns_per_event", a.check_ns_per_event);
            set("audit.events_per_request", per(a.events as f64, requests));
            let bytes = a.events as usize * std::mem::size_of::<oram_util::BusEvent>();
            set("audit.trace_bytes_per_request", per(bytes as f64, requests));
        }
        Some((Err(why), _)) => failures.push(format!("{}: {why}", w.name)),
        None => {}
    }

    // bench: what `run_serve` adds around the bare front-end.
    let served_by_run_serve =
        if own_serve { Ok(untraced_ns) } else { probes::run_serve_ns(&serve_opts) };
    match served_by_run_serve
        .and_then(|full| probes::bare_service_ns(&serve_opts).map(|bare| full - bare))
    {
        Ok(extra) => set(
            "bench.serve_overhead_ns_per_req",
            per(extra, serve_opts.requests * serve_opts.clients as u64),
        ),
        Err(why) => failures.push(format!("{}: bench replay: {why}", w.name)),
    }
    set("bench.allocs_per_op", allocs as f64 / ops as f64);
    set("bench.alloc_bytes_per_op", bytes as f64 / ops as f64);

    // 4. The per-access ledger of the traced pass's driver loop. Sampled
    // seams report the sampled mean times the call count.
    let telemetry_ns = pass.sink_span.net_ns(timer) + pass.sink_other.est_ns(timer);
    let bus_ns = record_ns_per_event * pass.bus_events as f64;
    let live_ns = pass.live.est_ns(timer);
    let timers = pass.storage.calls
        + pass.sink_span.calls
        + pass.sink_other.timed.calls
        + pass.live.timed.calls;
    let timers_ns = (timer.inside_ns + timer.around_ns) * timers as f64;
    let front_ns =
        if pass.service.is_some() { service_self * counts.attempted as f64 } else { 0.0 };
    let engine_in_situ = (pass.run_ns - front_ns - live_ns).max(0.0);
    // The engine alone, as the workload runs it: with the telemetry
    // recorder attached where the entry point attaches one.
    let alone = if pass.sink_span.calls > 0 { &attached } else { &detached };
    let alone_sink_ns = alone.span_meter.net_ns(timer) + alone.sink_other.est_ns(timer);
    let alone_timers = alone.storage.calls + alone.span_meter.calls + alone.sink_other.timed.calls;
    let engine_self = per(
        alone.ns
            - alone.storage.net_ns(timer)
            - alone_sink_ns
            - (timer.inside_ns + timer.around_ns) * alone_timers as f64,
        alone.accesses,
    ) - protocol_ns_per_access;
    let ledger = Breakdown {
        parent_ns: per(engine_in_situ, pass.accesses),
        parts: vec![
            ("oram-protocol controller (replay)", protocol_ns_per_access),
            ("storage.service_batch (in situ)", per(storage_ns, pass.accesses)),
            ("telemetry sink (in situ)", per(telemetry_ns, pass.accesses)),
            ("audit bus recorder (replay)", per(bus_ns, pass.accesses)),
            ("sim engine self (replay)", engine_self),
            ("harness timers (calibrated)", per(timers_ns, pass.accesses)),
        ],
    };
    set("sim.engine.access_ns", ledger.parent_ns);
    set("sim.engine.self_ns", engine_self);
    set("sim.engine.unattributed_ns", ledger.unattributed_ns());

    set("trace.pass_ns_per_op", traced_ns / ops as f64);
    set("trace.timer_overhead_ns", timer.inside_ns + timer.around_ns);
    set("trace.overhead_frac", if untraced_ns > 0.0 { traced_ns / untraced_ns } else { 0.0 });

    let (tree, tree_residual) = span_table(&t);
    let mut text = format!("{} traced pass, span tree:\n{tree}", w.name);
    text.push_str(&format!(
        "{} per-access ledger of the driver loop ({} accesses; front-end {:.0} ns and live plane {:.0} ns per access taken off first):\n",
        w.name,
        pass.accesses,
        per(front_ns, pass.accesses),
        per(live_ns, pass.accesses)
    ));
    text.push_str(&format!(
        "  {:<40} {:>12.1} ns\n",
        "sim.engine.access_ns (parent)", ledger.parent_ns
    ));
    for (name, ns) in &ledger.parts {
        text.push_str(&format!("    {:<38} {:>12.1} ns\n", name, ns));
    }
    text.push_str(&format!("    {:<38} {:>12.1} ns\n", "unattributed", ledger.unattributed_ns()));
    text.push_str(&format!(
        "  reconciles to {:.4}% (tree) and {:.4}% (ledger)",
        100.0 * tree_residual,
        100.0 * ledger.residual_frac()
    ));
    if tree_residual > 0.01 || ledger.residual_frac() > 0.01 {
        failures
            .push(format!("{}: layer times do not reconcile to the parent span within 1%", w.name));
    }

    for (name, _, _) in PER_LAYER {
        layers.entry(name).or_insert(0.0);
    }
    Traced { ops, layers, failures, reconciliation: text, chrome_json: t.chrome_json() }
}
