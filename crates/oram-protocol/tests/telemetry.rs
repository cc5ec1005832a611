//! Controller telemetry contract: the metric stream must agree exactly
//! with the state the controller keeps — its `OramStats`, the hot cache's
//! and the PLB's own stats, the bus trace — and attaching a sink must not
//! change protocol behavior.

use std::sync::{Arc, Mutex};

use oram_protocol::{
    BlockAddr, BucketId, BusEvent, DupPolicy, OramConfig, OramController, PosMapSelect, Request,
    SharedObserver,
};
use oram_telemetry::{TelemetryConfig, TelemetryRecorder};
use oram_util::{MetricId, SharedTelemetry};

fn drive(ctl: &mut OramController, n: u64) {
    let mut x = 0x243F6A8885A308D3u64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let addr = BlockAddr::new(x % 71);
        if x.is_multiple_of(4) {
            ctl.access(Request::write(addr, i));
        } else {
            ctl.access(Request::read(addr));
        }
        if x.is_multiple_of(9) {
            ctl.dummy_access();
        }
    }
}

fn policy_cfg(policy: DupPolicy) -> OramConfig {
    OramConfig::small_test().with_dup_policy(policy)
}

/// A recursive position map with one address per PLB page, so the PLB
/// misses and evicts and every miss walks the posmap-ORAM chain.
fn recursive_cfg() -> OramConfig {
    let mut cfg = policy_cfg(DupPolicy::Dynamic { counter_bits: 3 })
        .with_posmap(PosMapSelect::Recursive { onchip_kb: 1 });
    cfg.plb_page_addrs = 1;
    cfg
}

fn attach(ctl: &mut OramController) -> Arc<Mutex<TelemetryRecorder>> {
    let rec = TelemetryRecorder::shared(TelemetryConfig::default());
    let sink: SharedTelemetry = TelemetryRecorder::as_sink(&rec);
    ctl.set_telemetry(Some(sink));
    rec
}

fn run_with_telemetry(cfg: OramConfig) -> (OramController, Arc<Mutex<TelemetryRecorder>>) {
    let mut ctl = OramController::new(cfg).unwrap();
    let rec = attach(&mut ctl);
    drive(&mut ctl, 3000);
    (ctl, rec)
}

/// Every metric that restates controller state, with that state's total
/// now: the counters, and the count of the histograms sampled once per
/// event of a stats counter.
fn totals(ctl: &OramController) -> Vec<(MetricId, u64)> {
    let (s, hc, plb) = (ctl.stats(), ctl.hot_cache().stats(), ctl.plb_stats());
    vec![
        (MetricId::StashHitReal, s.stash_served - s.replaceable_stash_served),
        (MetricId::StashHitReplaceable, s.replaceable_stash_served),
        (MetricId::StashHitShadow, s.shadow_stash_served),
        (MetricId::StaleDiscarded, s.stale_discarded),
        (MetricId::TreetopServed, s.treetop_served),
        (MetricId::DramServedReal, s.dram_served - s.shadow_advanced),
        (MetricId::DramServedShadow, s.shadow_advanced),
        (MetricId::FreshServed, s.fresh_served),
        (MetricId::Evictions, s.evictions),
        (MetricId::RdShadowWritten, s.rd_shadows_written),
        (MetricId::HdShadowWritten, s.hd_shadows_written),
        (MetricId::DummyBlockWritten, s.dummy_blocks_written),
        (MetricId::RecirculatedShadow, s.recirculated_shadows),
        (MetricId::HotCacheHit, hc.hits),
        (MetricId::HotCacheMiss, hc.misses),
        (MetricId::HotCacheEvict, hc.evictions),
        (MetricId::PlbHit, plb.hits),
        (MetricId::PlbMiss, plb.misses),
        (MetricId::PlbEvict, plb.evictions),
        (MetricId::ServedPosition, s.dram_served),
        (MetricId::StashOccupancy, s.evictions),
        (MetricId::DupQueueDepth, s.evictions),
    ]
}

/// The recorder holds exactly what `ctl` did since its totals were
/// `from` (empty: since construction), and a partition sample per shift.
fn assert_stream(
    name: &str,
    rec: &TelemetryRecorder,
    ctl: &OramController,
    from: &[(MetricId, u64)],
) {
    let m = rec.metrics();
    for (i, (id, now)) in totals(ctl).into_iter().enumerate() {
        let got = match id {
            MetricId::ServedPosition | MetricId::StashOccupancy | MetricId::DupQueueDepth => {
                m.histogram(id).count()
            }
            _ => m.counter(id),
        };
        assert_eq!(got, now - from.get(i).map_or(0, |f| f.1), "{name}: {id:?}");
    }
    assert_eq!(
        m.counter(MetricId::PartitionShift),
        m.histogram(MetricId::PartitionLevel).count(),
        "{name}: one level sample per shift"
    );
}

#[test]
fn counters_match_oram_stats_for_all_policies() {
    let mut cases: Vec<(String, OramConfig)> = [
        DupPolicy::Off,
        DupPolicy::RdOnly,
        DupPolicy::HdOnly,
        DupPolicy::Static { partition_level: 3 },
        DupPolicy::Dynamic { counter_bits: 3 },
    ]
    .into_iter()
    .map(|p| (format!("{p:?}"), policy_cfg(p)))
    .collect();
    cases.push(("recursive posmap".to_string(), recursive_cfg()));
    for (name, cfg) in cases {
        let (ctl, rec) = run_with_telemetry(cfg);
        let r = rec.lock().unwrap();
        assert_stream(&name, &r, &ctl, &[]);
        let (s, m) = (ctl.stats(), r.metrics());
        assert_eq!(m.histogram(MetricId::ServedPosition).sum(), s.served_position_sum, "{name}");
        assert_eq!(m.histogram(MetricId::RealPosition).sum(), s.real_position_sum, "{name}");
        if name == "recursive posmap" {
            assert!(ctl.posmap_chain_levels() > 0, "a chain to walk");
            assert!(m.counter(MetricId::PlbMiss) > 0 && m.counter(MetricId::PlbEvict) > 0);
            assert!(m.counter(MetricId::PartitionShift) > 0, "the partition moves");
        }
    }
}

#[test]
fn counters_cover_only_the_attached_accesses() {
    let image = || (0..40u64).map(|a| (BlockAddr::new(a), a));
    // Attached across prefill: its PLB lookups are not an access.
    let mut ctl = OramController::new(recursive_cfg()).unwrap();
    let rec = attach(&mut ctl);
    ctl.prefill(image());
    let from = totals(&ctl);
    assert!(ctl.plb_stats().misses > 0, "prefill walked the PLB");
    drive(&mut ctl, 500);
    assert_stream("attached before prefill", &rec.lock().unwrap(), &ctl, &from);

    // Attached after prefill and warm-up: neither is reported.
    let mut ctl = OramController::new(recursive_cfg()).unwrap();
    ctl.prefill(image());
    drive(&mut ctl, 500);
    let from = totals(&ctl);
    let rec = attach(&mut ctl);
    drive(&mut ctl, 500);
    assert_stream("attached after warm-up", &rec.lock().unwrap(), &ctl, &from);
}

#[test]
fn level_touches_count_the_bus_buckets() {
    let treetop = 2;
    let mut ctl = OramController::new(
        policy_cfg(DupPolicy::Dynamic { counter_bits: 3 }).with_treetop(treetop),
    )
    .unwrap();
    let events = Arc::new(Mutex::new(Vec::new()));
    ctl.set_observer(Some(events.clone() as SharedObserver));
    drive(&mut ctl, 2000);
    let levels = ctl.config().levels as usize + 1;
    let (mut reads, mut writes) = (vec![0u64; levels], vec![0u64; levels]);
    for event in events.lock().unwrap().iter() {
        if let BusEvent::Bucket { bucket, write } = *event {
            let level = BucketId::new(bucket).level() as usize;
            let side = if write { &mut writes } else { &mut reads };
            side[level] += 1;
        }
    }
    assert_eq!(&reads[..treetop as usize], &[0, 0], "the treetop never reaches the bus");
    assert!(writes[treetop as usize..].iter().all(|&n| n > 0));
    assert_eq!(ctl.level_touches(), (reads, writes));
}

#[test]
fn telemetry_attachment_does_not_change_behavior() {
    // Same seed, same request stream: stats with and without a sink
    // attached must be bit-identical.
    for policy in [DupPolicy::Off, DupPolicy::Dynamic { counter_bits: 3 }] {
        let mut plain = OramController::new(policy_cfg(policy)).unwrap();
        drive(&mut plain, 3000);
        let (instrumented, _rec) = run_with_telemetry(policy_cfg(policy));
        assert_eq!(plain.stats(), instrumented.stats(), "{policy:?}");
    }
}

#[test]
fn dynamic_policy_emits_dri_transitions() {
    let (_, rec) = run_with_telemetry(policy_cfg(DupPolicy::Dynamic { counter_bits: 3 }));
    let r = rec.lock().unwrap();
    let m = r.metrics();
    // The mixed real/dummy stream must move the saturating counter in
    // both directions.
    assert!(m.counter(MetricId::DriCounterUp) > 0, "dummies push the counter up");
    assert!(m.counter(MetricId::DriCounterDown) > 0, "real requests pull it down");
}

#[test]
fn shadow_policies_emit_pulls_and_positions() {
    let (_, rec) = run_with_telemetry(policy_cfg(DupPolicy::RdOnly));
    let r = rec.lock().unwrap();
    let m = r.metrics();
    assert!(m.counter(MetricId::DramServedShadow) > 0, "shadow serves happen");
    let adv = m.histogram(MetricId::AdvanceDepth);
    assert!(adv.count() > 0, "advance depths sampled");
    assert!(adv.max() > 0, "some access was served strictly earlier");

    let (_, rec) = run_with_telemetry(policy_cfg(DupPolicy::HdOnly));
    let r = rec.lock().unwrap();
    assert!(
        r.metrics().counter(MetricId::ShadowStashPull) > 0,
        "HD-Dup pulls shadows into the stash"
    );
}
