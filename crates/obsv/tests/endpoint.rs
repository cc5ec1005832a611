//! Integration tests for the observability plane's external surface:
//! the Prometheus exposition format is pinned against a golden file,
//! and concurrent scrapes under load must always see a conserved
//! snapshot (window deltas summing to the registry totals).

use oram_obsv::{http_get, render_prometheus, LiveConfig, LivePlane, MetricsServer, SloSpec};
use oram_util::{LiveObserver, MetricId, ServeClass, TelemetrySink};

/// A deterministic plane exercising every exported family: two tenants,
/// two shards, several serve classes, engine-side stash samples, and
/// enough traffic to close multiple windows.
fn golden_plane() -> LivePlane {
    let mut p = LivePlane::new(LiveConfig {
        window_cycles: 10_000,
        tenants: 2,
        shards: 2,
        stash_bound: 100,
        slos: SloSpec::default_set(5_000),
        event_capacity: 64,
    });
    for i in 0..2_000u64 {
        let class = match i % 4 {
            0 => ServeClass::Stash,
            1 => ServeClass::DramReal,
            2 => ServeClass::DramShadow,
            _ => ServeClass::Dummy,
        };
        p.request_complete(
            i * 37,
            (i % 2) as u32,
            (i % 2) as u32,
            class,
            1_000 + (i % 7) * 991,
            i % 5 == 0,
        );
        if i % 11 == 0 {
            p.request_rejected(i * 37, (i % 2) as u32);
        }
        if i % 13 == 0 {
            p.sample(MetricId::StashOccupancy, i % 40);
        }
    }
    p.flush();
    p
}

const GOLDEN: &str = include_str!("golden_metrics.prom");

/// The exposition format is part of the public contract: dashboards and
/// the CI smoke diff parse it. Any intentional change regenerates the
/// golden via `cargo test -p oram-obsv --test endpoint -- --ignored`.
#[test]
fn prometheus_exposition_matches_the_golden_file() {
    let rendered = render_prometheus(&golden_plane());
    assert_eq!(
        rendered, GOLDEN,
        "exposition format drifted from the golden file; if intentional, regenerate with \
         `cargo test -p oram-obsv --test endpoint -- --ignored`"
    );
}

/// Regenerates the golden file in the source tree. Run manually after
/// an intentional format change, then review the diff.
#[test]
#[ignore]
fn regenerate_golden_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_metrics.prom");
    std::fs::write(path, render_prometheus(&golden_plane())).expect("write golden");
}

/// Scrapes taken mid-load must each be internally consistent, and the
/// plane must conserve every count across its windows: after the run,
/// `folded + ring + open == totals`, and the final scrape reports
/// exactly the traffic that was fed.
#[test]
fn scrapes_under_load_observe_conserved_snapshots() {
    let plane = LivePlane::shared(LiveConfig {
        window_cycles: 1_000,
        tenants: 2,
        shards: 1,
        stash_bound: 100,
        slos: SloSpec::default_set(500),
        event_capacity: 64,
    });
    let server = MetricsServer::start("127.0.0.1:0", plane.clone()).expect("bind");
    let addr = server.local_addr();

    const TOTAL: u64 = 5_000;
    let feeder = {
        let plane = plane.clone();
        std::thread::spawn(move || {
            for i in 0..TOTAL {
                let mut p = plane.lock().expect("plane lock");
                p.request_complete(
                    i * 17,
                    (i % 2) as u32,
                    0,
                    ServeClass::Stash,
                    300 + i % 500,
                    false,
                );
            }
        })
    };

    // Scrape continuously while the feeder runs. Every snapshot must
    // parse, be monotone in the completed counter, and conserve its
    // windows (the plane checks the law under its own lock).
    let mut last_completed = 0u64;
    let mut scrapes = 0u32;
    while !feeder.is_finished() || scrapes < 3 {
        let (status, body) = http_get(addr, "/metrics").expect("scrape");
        assert!(status.contains("200"), "{status}");
        let completed: u64 = body
            .lines()
            .find_map(|l| l.strip_prefix("oram_requests_completed_total "))
            .expect("completed counter present")
            .trim()
            .parse()
            .expect("numeric");
        assert!(completed >= last_completed, "counter went backwards");
        last_completed = completed;
        {
            let p = plane.lock().expect("plane lock");
            p.validate_conservation().expect("mid-load snapshot conserves");
        }
        scrapes += 1;
        if scrapes > 10_000 {
            panic!("feeder never finished");
        }
    }
    feeder.join().expect("feeder");

    {
        let mut p = plane.lock().expect("plane lock");
        p.flush();
        p.validate_conservation().expect("final state conserves");
    }
    let (_, body) = http_get(addr, "/metrics").expect("final scrape");
    assert!(
        body.contains(&format!("oram_requests_completed_total {TOTAL}\n")),
        "final scrape must report all {TOTAL} completions"
    );
    // The window deltas sum to the registry totals: count the closed
    // windows' contributions through the plane accessors.
    {
        let p = plane.lock().expect("plane lock");
        let ring_sum: u64 = (0..p.closed_windows().min(16) as usize)
            .filter_map(|i| p.ring_window(i).map(|w| w.completed))
            .sum();
        assert!(ring_sum <= TOTAL);
        assert_eq!(p.total().completed, TOTAL);
    }
    server.shutdown();
}

/// The sketch quantiles served over HTTP agree with an exact post-hoc
/// histogram of the same samples within the documented 1/16 bound.
#[test]
fn served_quantiles_agree_with_exact_histogram() {
    let plane = LivePlane::shared(LiveConfig {
        window_cycles: 100_000,
        tenants: 1,
        shards: 1,
        stash_bound: 100,
        slos: SloSpec::default_set(500),
        event_capacity: 64,
    });
    let mut exact: Vec<u64> = Vec::new();
    {
        let mut p = plane.lock().unwrap();
        let mut x = 0x2545f4914f6cdd1du64;
        for i in 0..20_000u64 {
            // xorshift-mixed heavy-tailed latencies.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 500 + (x % 50_000);
            p.request_complete(i * 29, 0, 0, ServeClass::Stash, v, false);
            exact.push(v);
        }
    }
    let server = MetricsServer::start("127.0.0.1:0", plane.clone()).expect("bind");
    let (_, body) = http_get(server.local_addr(), "/metrics").expect("scrape");
    server.shutdown();

    exact.sort_unstable();
    for (q, label) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
        let got: f64 = body
            .lines()
            .find_map(|l| l.strip_prefix(&format!("oram_latency_cycles{{quantile=\"{label}\"}} ")))
            .expect("quantile line")
            .trim()
            .parse()
            .expect("numeric");
        let idx = ((q * (exact.len() - 1) as f64).round() as usize).min(exact.len() - 1);
        let want = exact[idx] as f64;
        let err = (got - want).abs() / want;
        assert!(err <= 1.0 / 16.0 + 1e-9, "q={q}: served {got}, exact {want}, err {err}");
    }
}
