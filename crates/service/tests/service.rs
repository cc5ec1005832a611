//! Integration tests for the service front-end, centered on the
//! obliviousness-critical coalescing invariant: a coalesced burst of
//! same-address reads issues exactly one ORAM access, every waiter
//! observes the same completion, and the bus trace is byte-identical to
//! the trace of a single uncoalesced request.

use std::sync::{Arc, Mutex};

use oram_service::{AddressMix, ArrivalModel, ClientSpec, SchedPolicy, ServiceConfig, ServiceSim};
use oram_sim::{Engine, SystemConfig};
use oram_util::{BusEvent, MetricId, SharedTelemetry, TelemetrySink};

/// Counter-only telemetry sink for the service metrics.
#[derive(Debug, Default)]
struct Counters {
    admitted: u64,
    coalesced: u64,
    rejected: u64,
}

impl TelemetrySink for Counters {
    fn count(&mut self, id: MetricId, delta: u64) {
        match id {
            MetricId::ServiceAdmitted => self.admitted += delta,
            MetricId::ServiceCoalesced => self.coalesced += delta,
            MetricId::ServiceRejected => self.rejected += delta,
            _ => {}
        }
    }
    fn sample(&mut self, _id: MetricId, _value: u64) {}
    fn span(&mut self, _span: &oram_util::AccessSpan) {}
    fn window(&mut self, _w: &oram_util::WindowSample) {}
}

fn engine() -> Engine {
    let mut e = Engine::new(SystemConfig::small_test()).expect("valid config");
    e.prefill_working_set(256);
    e
}

/// An injection-driven config: `clients` streams that generate nothing
/// on their own.
fn inject_cfg(clients: usize, coalescing: bool) -> ServiceConfig {
    ServiceConfig {
        clients: vec![
            ClientSpec {
                arrivals: ArrivalModel::Open { mean_gap_cycles: 1_000.0 },
                addresses: AddressMix::Uniform { domain: 256 },
                write_frac: 0.0,
                requests: 0,
            };
            clients
        ],
        queue_capacity: 8,
        batch_size: 8,
        scheduler: SchedPolicy::Fcfs,
        coalescing,
        seed: 42,
    }
}

#[test]
fn coalesced_burst_issues_exactly_one_access() {
    let trace = Arc::new(Mutex::new(Vec::<BusEvent>::new()));
    let counters = Arc::new(Mutex::new(Counters::default()));
    let mut eng = engine();
    eng.attach_bus_observer(trace.clone());
    let mut sim = ServiceSim::new(inject_cfg(4, true), eng).expect("valid config");
    sim.attach_telemetry(counters.clone() as SharedTelemetry);

    // Four clients request the same block in the same cycle.
    for c in 0..4 {
        assert!(sim.inject(c, 17, false));
    }
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");

    // Exactly one ORAM access for the whole burst.
    assert_eq!(res.issued(), 1, "burst must coalesce into one access");
    assert_eq!(res.coalesced(), 3);
    assert_eq!(res.completed(), 4);
    assert_eq!(res.stats.misses_consumed, 1);
    let starts = trace.lock().unwrap().iter().filter(|e| **e == BusEvent::AccessStart).count();
    assert_eq!(starts, 1, "the bus must see exactly one access");

    // Every waiter observed the same completion: all four latencies are
    // equal (identical arrival cycle, one shared data_ready).
    let lats: Vec<u64> = res.clients.iter().flat_map(|c| c.latencies.iter().copied()).collect();
    assert_eq!(lats.len(), 4);
    assert!(lats.windows(2).all(|w| w[0] == w[1]), "waiters diverged: {lats:?}");

    // The service counters saw the same story.
    let c = counters.lock().unwrap();
    assert_eq!((c.admitted, c.coalesced, c.rejected), (4, 3, 0));
}

#[test]
fn coalesced_trace_is_byte_identical_to_single_access() {
    // Run A: a 4-wide coalesced burst of reads of block 17.
    let trace_a = Arc::new(Mutex::new(Vec::<BusEvent>::new()));
    let mut eng = engine();
    eng.attach_bus_observer(trace_a.clone());
    let mut sim = ServiceSim::new(inject_cfg(4, true), eng).expect("valid config");
    for c in 0..4 {
        assert!(sim.inject(c, 17, false));
    }
    sim.run();
    let (res_a, _) = sim.finish();
    assert_eq!(res_a.issued(), 1);

    // Run B: one single request for the same block on a fresh engine.
    let trace_b = Arc::new(Mutex::new(Vec::<BusEvent>::new()));
    let mut eng = engine();
    eng.attach_bus_observer(trace_b.clone());
    let out = eng.serve_request(17, false, 0);
    assert!(out.end > 0);

    let a = &*trace_a.lock().unwrap();
    let b = &*trace_b.lock().unwrap();
    assert!(!a.is_empty());
    assert_eq!(a, b, "coalescing must not change the bus-visible trace");
}

#[test]
fn uncoalesced_burst_issues_one_access_each() {
    let mut sim = ServiceSim::new(inject_cfg(4, false), engine()).expect("valid config");
    for c in 0..4 {
        assert!(sim.inject(c, 17, false));
    }
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");
    assert_eq!(res.issued(), 4);
    assert_eq!(res.coalesced(), 0);
}

#[test]
fn mixed_addresses_coalesce_only_within_groups() {
    let mut sim = ServiceSim::new(inject_cfg(4, true), engine()).expect("valid config");
    // Two groups of two: blocks 5 and 9.
    assert!(sim.inject(0, 5, false));
    assert!(sim.inject(1, 9, false));
    assert!(sim.inject(2, 5, false));
    assert!(sim.inject(3, 9, false));
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");
    assert_eq!(res.issued(), 2, "one access per distinct block");
    assert_eq!(res.coalesced(), 2);
}

#[test]
fn generated_workload_is_deterministic_across_reconstruction() {
    let run = || {
        let mut cfg = ServiceConfig::symmetric_open(4, 50, 1_500.0, 256, 0xFEED);
        cfg.scheduler = SchedPolicy::OldestFirst;
        let mut sim = ServiceSim::new(cfg, engine()).expect("valid config");
        sim.run();
        let (res, _) = sim.finish();
        res.validate().expect("conservation");
        res
    };
    assert_eq!(run(), run(), "same seed must reproduce bit-identical results");
}

#[test]
fn rejected_requests_are_counted_by_telemetry() {
    let counters = Arc::new(Mutex::new(Counters::default()));
    let mut cfg = inject_cfg(1, false);
    cfg.queue_capacity = 2;
    let mut sim = ServiceSim::new(cfg, engine()).expect("valid config");
    sim.attach_telemetry(counters.clone() as SharedTelemetry);
    assert!(sim.inject(0, 1, false));
    assert!(sim.inject(0, 2, false));
    assert!(!sim.inject(0, 3, false));
    sim.run();
    let (res, _) = sim.finish();
    res.validate().expect("conservation");
    let c = counters.lock().unwrap();
    assert_eq!((c.admitted, c.rejected), (2, 1));
}
