//! Dependency-free exporters over a [`LivePlane`] snapshot: Prometheus
//! text exposition format 0.0.4 (`/metrics`), the SLO burn JSON
//! (`/slo`), the health JSON (`/healthz`), and the `repro top` terminal
//! panel.
//!
//! The render is a pure function of plane state with a fixed family
//! order and stable metric/label names, so a drained deterministic run
//! produces a byte-identical scrape — which is what lets CI diff a live
//! scrape against a seeded baseline.

use oram_telemetry::json::{Layout, Writer};
use oram_util::{QuantileSketch, ServeClass};

use crate::plane::{LivePlane, PHASE_NAMES};

/// Formats an `f64` the way the exposition format expects (fixed
/// six-digit precision keeps renders byte-stable across platforms).
fn f(v: f64) -> String {
    format!("{v:.6}")
}

fn summary(out: &mut String, name: &str, labels: &str, s: &QuantileSketch) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, qs) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
        out.push_str(&format!("{name}{{{labels}{sep}quantile=\"{qs}\"}} {}\n", s.quantile(q)));
    }
    out.push_str(&format!("{name}_sum{{{labels}}} {}\n", s.sum()));
    out.push_str(&format!("{name}_count{{{labels}}} {}\n", s.count()));
}

fn head(out: &mut String, name: &str, kind: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

/// Renders the full `/metrics` page for a plane snapshot.
pub fn render_prometheus(p: &LivePlane) -> String {
    let mut out = String::with_capacity(8 * 1024);
    let t = p.total();

    head(
        &mut out,
        "oram_requests_completed_total",
        "counter",
        "Requests completed by the service layer.",
    );
    out.push_str(&format!("oram_requests_completed_total {}\n", t.completed));
    head(
        &mut out,
        "oram_requests_rejected_total",
        "counter",
        "Requests rejected by admission control.",
    );
    out.push_str(&format!("oram_requests_rejected_total {}\n", t.rejected));
    head(
        &mut out,
        "oram_requests_coalesced_total",
        "counter",
        "Completions that rode an MSHR leader.",
    );
    out.push_str(&format!("oram_requests_coalesced_total {}\n", t.coalesced));

    head(
        &mut out,
        "oram_latency_cycles",
        "summary",
        "End-to-end request latency in CPU cycles (cumulative sketch; relative error <= 1/16).",
    );
    summary(&mut out, "oram_latency_cycles", "", &t.latency);

    head(
        &mut out,
        "oram_window_latency_cycles",
        "gauge",
        "Request latency quantiles over the most recently closed window.",
    );
    if let Some(w) = p.last_closed() {
        for (q, qs) in [(0.5, "0.5"), (0.99, "0.99"), (0.999, "0.999")] {
            out.push_str(&format!(
                "oram_window_latency_cycles{{quantile=\"{qs}\"}} {}\n",
                w.latency.quantile(q)
            ));
        }
    }

    head(&mut out, "oram_tenant_requests_total", "counter", "Completions per tenant.");
    for i in 0..p.config().tenants {
        out.push_str(&format!(
            "oram_tenant_requests_total{{tenant=\"{i}\"}} {}\n",
            t.tenant_completed[i]
        ));
    }
    head(&mut out, "oram_tenant_rejected_total", "counter", "Rejections per tenant.");
    for i in 0..p.config().tenants {
        out.push_str(&format!(
            "oram_tenant_rejected_total{{tenant=\"{i}\"}} {}\n",
            t.tenant_rejected[i]
        ));
    }
    head(
        &mut out,
        "oram_tenant_latency_cycles",
        "summary",
        "Per-tenant end-to-end latency in CPU cycles (cumulative sketch).",
    );
    for i in 0..p.config().tenants {
        summary(
            &mut out,
            "oram_tenant_latency_cycles",
            &format!("tenant=\"{i}\""),
            p.tenant_latency(i),
        );
    }

    head(
        &mut out,
        "oram_shard_requests_total",
        "counter",
        "Completions per shard (addr mod M routing).",
    );
    for i in 0..p.config().shards {
        out.push_str(&format!(
            "oram_shard_requests_total{{shard=\"{i}\"}} {}\n",
            t.shard_completed[i]
        ));
    }

    head(&mut out, "oram_class_requests_total", "counter", "Completions per serve class.");
    for (class, n) in ServeClass::ALL.iter().zip(t.class_completed) {
        out.push_str(&format!("oram_class_requests_total{{class=\"{}\"}} {n}\n", class.name()));
    }

    head(
        &mut out,
        "oram_phase_cycles_total",
        "counter",
        "Cycles attributed per backend phase (Eq. 1 components).",
    );
    for (name, cycles) in PHASE_NAMES.iter().zip(t.phase_cycles.iter()) {
        out.push_str(&format!("oram_phase_cycles_total{{phase=\"{name}\"}} {cycles}\n"));
    }

    head(
        &mut out,
        "oram_plb_events_total",
        "counter",
        "Posmap lookaside buffer events (all zero under a flat posmap).",
    );
    let (plb_hits, plb_misses, plb_evictions) = p.plb_totals();
    out.push_str(&format!("oram_plb_events_total{{event=\"hit\"}} {plb_hits}\n"));
    out.push_str(&format!("oram_plb_events_total{{event=\"miss\"}} {plb_misses}\n"));
    out.push_str(&format!("oram_plb_events_total{{event=\"evict\"}} {plb_evictions}\n"));

    head(&mut out, "oram_stash_occupancy_peak", "gauge", "Peak live stash occupancy observed.");
    out.push_str(&format!("oram_stash_occupancy_peak {}\n", p.stash_peak()));

    head(
        &mut out,
        "oram_eq1_residual_ppm",
        "gauge",
        "Worst Eq. 1 window residual observed, ppm of window width.",
    );
    out.push_str(&format!("oram_eq1_residual_ppm {}\n", p.eq1_worst_residual_ppm()));

    head(
        &mut out,
        "oram_slo_burn_fast",
        "gauge",
        "Error-budget burn rate over the last closed window (1.0 = on budget).",
    );
    for (i, slo) in p.config().slos.iter().enumerate() {
        out.push_str(&format!(
            "oram_slo_burn_fast{{slo=\"{}\"}} {}\n",
            slo.name,
            f(p.burn(i).fast)
        ));
    }
    head(
        &mut out,
        "oram_slo_burn_slow",
        "gauge",
        "Error-budget burn rate over the last 12 closed windows.",
    );
    for (i, slo) in p.config().slos.iter().enumerate() {
        out.push_str(&format!(
            "oram_slo_burn_slow{{slo=\"{}\"}} {}\n",
            slo.name,
            f(p.burn(i).slow)
        ));
    }

    head(&mut out, "oram_alerts_total", "counter", "Alert raise edges by kind.");
    for kind in [
        crate::slo::AlertKind::SloBurn,
        crate::slo::AlertKind::StashPressure,
        crate::slo::AlertKind::RejectionKnee,
        crate::slo::AlertKind::Eq1Residual,
    ] {
        out.push_str(&format!(
            "oram_alerts_total{{kind=\"{}\"}} {}\n",
            kind.name(),
            p.alert_count(kind)
        ));
    }

    head(&mut out, "oram_windows_closed_total", "counter", "Aggregation windows closed.");
    out.push_str(&format!("oram_windows_closed_total {}\n", p.closed_windows()));
    head(&mut out, "oram_engine_windows_total", "counter", "Engine time-series windows observed.");
    out.push_str(&format!("oram_engine_windows_total {}\n", p.engine_windows()));
    head(
        &mut out,
        "oram_events_dropped_total",
        "counter",
        "Structured events dropped after the buffer filled.",
    );
    out.push_str(&format!("oram_events_dropped_total {}\n", p.events_dropped()));
    out
}

/// Renders the `/slo` JSON: burn state per objective plus the tail of
/// the structured event stream.
pub fn render_slo_json(p: &LivePlane) -> String {
    let mut w = Writer::new();
    w.object(Layout::COMPACT).key("objectives").array(Layout::COMPACT);
    for (i, slo) in p.config().slos.iter().enumerate() {
        let b = p.burn(i);
        w.object(Layout::COMPACT).field("name", slo.name.as_str()).key("kind");
        match slo.kind {
            crate::slo::SloKind::LatencyAbove { threshold_cycles } => {
                w.object(Layout::COMPACT).field("latency_above_cycles", threshold_cycles).end()
            }
            crate::slo::SloKind::Rejection => w.value("rejection"),
        };
        w.field("budget", slo.budget).field("burn_fast", b.fast).field("burn_slow", b.slow);
        w.field("breached", b.breached).end();
    }
    w.end().key("events").array(Layout::COMPACT);
    let events = p.events();
    let tail = events.len().saturating_sub(64);
    for ev in &events[tail..] {
        let name = p.config().slos.get(ev.slo as usize).map(|s| s.name.as_str());
        ev.write_json(&mut w, name);
    }
    w.end().field("events_dropped", p.events_dropped());
    w.field("windows_closed", p.closed_windows()).end();
    w.finish()
}

/// Renders the `/healthz` JSON.
pub fn render_healthz(p: &LivePlane) -> String {
    let breached = (0..p.config().slos.len()).any(|i| p.burn(i).breached);
    let mut w = Writer::new();
    w.object(Layout::COMPACT).field("status", if breached { "degraded" } else { "ok" });
    w.field("windows_closed", p.closed_windows());
    w.field("requests_completed", p.total().completed);
    w.field("alerts", p.events().len()).end();
    w.finish()
}

/// Renders the `repro top` terminal panel: cumulative and last-window
/// aggregates, per-tenant lines, burn rates and recent alerts.
pub fn render_top(p: &LivePlane) -> String {
    let mut out = String::with_capacity(1024);
    let t = p.total();
    let offered = t.completed + t.rejected;
    out.push_str(&format!(
        "repro top · window {} · {} completed / {} offered · {} rejected · stash peak {}\n",
        p.open_window().index,
        t.completed,
        offered,
        t.rejected,
        p.stash_peak()
    ));
    out.push_str(&format!(
        "  latency cycles: p50 {}  p99 {}  p99.9 {}  max {}\n",
        t.latency.quantile(0.5),
        t.latency.quantile(0.99),
        t.latency.quantile(0.999),
        t.latency.max()
    ));
    if let Some(w) = p.last_closed() {
        let rate = w.completed as f64 / (p.config().window_cycles as f64 / 1_000_000.0);
        out.push_str(&format!(
            "  last window: {} done  {} rejected  p99 {}  ({:.1} req/Mcyc)\n",
            w.completed,
            w.rejected,
            w.latency.quantile(0.99),
            rate
        ));
    }
    for (i, slo) in p.config().slos.iter().enumerate() {
        let b = p.burn(i);
        out.push_str(&format!(
            "  slo {:<14} burn fast {:>8}  slow {:>8}{}\n",
            slo.name,
            f(b.fast),
            f(b.slow),
            if b.breached { "  BREACHED" } else { "" }
        ));
    }
    for i in 0..p.config().tenants {
        let s = p.tenant_latency(i);
        out.push_str(&format!(
            "  tenant {i}: {} done  {} rejected  p99 {}\n",
            t.tenant_completed[i],
            t.tenant_rejected[i],
            s.quantile(0.99)
        ));
    }
    let events = p.events();
    for ev in events.iter().rev().take(3).rev() {
        out.push_str(&format!(
            "  alert {} window {} value {} threshold {}\n",
            ev.kind.name(),
            ev.window_index,
            ev.value,
            ev.threshold
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plane::LiveConfig;
    use crate::slo::SloSpec;
    use oram_util::LiveObserver;

    fn filled_plane() -> LivePlane {
        let mut p = LivePlane::new(LiveConfig {
            window_cycles: 1_000,
            tenants: 2,
            shards: 2,
            stash_bound: 100,
            slos: SloSpec::default_set(500),
            event_capacity: 64,
        });
        for i in 0..5_000u64 {
            p.request_complete(
                i * 13,
                (i % 2) as u32,
                (i % 2) as u32,
                ServeClass::DramReal,
                200 + i % 900,
                false,
            );
        }
        p.flush();
        p
    }

    #[test]
    fn prometheus_render_is_well_formed() {
        let p = filled_plane();
        let text = render_prometheus(&p);
        // Every family carries HELP and TYPE; every sample line parses as
        // name{labels} value.
        let mut families = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                families += 1;
                let name = rest.split(' ').next().unwrap();
                assert!(text.contains(&format!("# TYPE {name} ")), "family {name} missing TYPE");
            } else if !line.starts_with('#') {
                let (metric, value) = line.rsplit_once(' ').expect("sample line");
                assert!(metric.starts_with("oram_"), "bad metric {metric}");
                value.parse::<f64>().expect("numeric value");
            }
        }
        assert!(families >= 15, "expected a full family set, got {families}");
        assert!(text.contains("oram_latency_cycles{quantile=\"0.999\"}"));
        assert!(text.contains("oram_phase_cycles_total{phase=\"network\"}"));
        assert!(text.contains("oram_phase_cycles_total{phase=\"posmap\"}"));
        assert!(text.contains("oram_plb_events_total{event=\"hit\"}"));
    }

    #[test]
    fn render_is_deterministic() {
        let a = render_prometheus(&filled_plane());
        let b = render_prometheus(&filled_plane());
        assert_eq!(a, b);
        assert_eq!(render_slo_json(&filled_plane()), render_slo_json(&filled_plane()));
    }

    #[test]
    fn slo_and_healthz_json_are_valid_shape() {
        let p = filled_plane();
        let slo = render_slo_json(&p);
        assert!(slo.starts_with('{') && slo.ends_with('}'));
        assert!(slo.contains("\"objectives\":["));
        assert!(slo.contains("latency_p999"));
        let h = render_healthz(&p);
        assert!(h.contains("\"status\":\"ok\"") || h.contains("\"status\":\"degraded\""));
    }

    #[test]
    fn top_panel_mentions_tenants_and_quantiles() {
        let p = filled_plane();
        let top = render_top(&p);
        assert!(top.contains("p99.9"));
        assert!(top.contains("tenant 0:"));
        assert!(top.contains("slo latency_p99"));
    }
}
