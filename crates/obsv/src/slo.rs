//! Declarative service-level objectives and the structured alert
//! events the plane emits when they burn.
//!
//! ## Burn-rate math
//!
//! An objective declares a *budget*: the fraction of events allowed to
//! be bad (latency above a threshold, or any rejection). The **burn
//! rate** over a span is
//!
//! ```text
//! burn = (bad / total) / budget
//! ```
//!
//! 1.0 means the error budget is being consumed exactly at its
//! sustainable rate; 2.0 means it will be exhausted in half the
//! intended period. The plane computes burn over two spans at every
//! window close — **fast** (the last window) and **slow** (the last 12
//! windows) — and raises an alert only when the fast rate exceeds
//! [`crate::plane::FAST_BURN_THRESHOLD`] *and* the slow rate exceeds
//! [`crate::plane::SLOW_BURN_THRESHOLD`]: the classic multi-window
//! guard against paging on a single noisy window while still catching
//! sustained overspend quickly.

use oram_telemetry::json::{Layout, Writer};

/// Maximum objectives a plane tracks (fixed arrays on the hot path).
pub const MAX_SLOS: usize = 8;

/// What makes an event "bad" for an objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloKind {
    /// A completion is bad when its end-to-end latency exceeds the
    /// threshold.
    LatencyAbove {
        /// Bad-latency threshold in CPU cycles.
        threshold_cycles: u64,
    },
    /// Every rejection is bad; total counts completions + rejections.
    Rejection,
}

/// One declared objective.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable name (a Prometheus label value — keep it label-safe).
    pub name: String,
    /// Bad-event predicate.
    pub kind: SloKind,
    /// Allowed bad fraction (e.g. `0.001` = 99.9% of events good).
    pub budget: f64,
}

impl SloSpec {
    /// The default objective set for a serve run, with latency
    /// thresholds scaled to the workload's base inter-arrival gap:
    /// p99-class latency under 2 gaps, p99.9-class latency under 6
    /// gaps, and rejections under 0.5%.
    pub fn default_set(base_gap_cycles: u64) -> Vec<SloSpec> {
        let gap = base_gap_cycles.max(1);
        vec![
            SloSpec {
                name: "latency_p99".to_string(),
                kind: SloKind::LatencyAbove { threshold_cycles: 2 * gap },
                budget: 0.01,
            },
            SloSpec {
                name: "latency_p999".to_string(),
                kind: SloKind::LatencyAbove { threshold_cycles: 6 * gap },
                budget: 0.001,
            },
            SloSpec { name: "rejections".to_string(), kind: SloKind::Rejection, budget: 0.005 },
        ]
    }
}

/// Parses a JSON SLO spec file into objectives, replacing the
/// hard-coded [`SloSpec::default_set`]. The expected shape:
///
/// ```json
/// {"slos": [
///   {"name": "latency_p99", "kind": "latency_above",
///    "threshold_cycles": 50000, "budget": 0.01},
///   {"name": "rejections", "kind": "rejection", "budget": 0.005}
/// ]}
/// ```
///
/// # Errors
///
/// Returns a one-line description of the first problem found (the CLI
/// prints it verbatim and exits with the usage code).
pub fn parse_slo_spec(text: &str) -> Result<Vec<SloSpec>, String> {
    use oram_telemetry::json::{self, Value};
    let doc = json::parse(text).map_err(|e| format!("slo spec: {e}"))?;
    let arr = doc
        .get("slos")
        .and_then(Value::as_array)
        .ok_or("slo spec: missing top-level \"slos\" array")?;
    if arr.is_empty() {
        return Err("slo spec: \"slos\" must declare at least one objective".into());
    }
    if arr.len() > MAX_SLOS {
        return Err(format!(
            "slo spec: at most {MAX_SLOS} objectives supported, got {}",
            arr.len()
        ));
    }
    let mut out: Vec<SloSpec> = Vec::with_capacity(arr.len());
    for (i, o) in arr.iter().enumerate() {
        let at = |m: &str| format!("slo spec: objective {i}: {m}");
        let name =
            o.get("name").and_then(Value::as_str).ok_or_else(|| at("missing string \"name\""))?;
        let label_safe = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_';
        if name.is_empty() || !name.bytes().all(label_safe) {
            return Err(at("\"name\" must be non-empty snake_case ([a-z0-9_])"));
        }
        if out.iter().any(|s| s.name == name) {
            return Err(at(&format!("duplicate name {name:?}")));
        }
        let budget = o
            .get("budget")
            .and_then(Value::as_f64)
            .ok_or_else(|| at("missing numeric \"budget\""))?;
        if !(budget > 0.0 && budget <= 1.0) {
            return Err(at("\"budget\" must be in (0, 1]"));
        }
        let kind = match o.get("kind").and_then(Value::as_str) {
            Some("latency_above") => {
                let t = o.get("threshold_cycles").and_then(Value::as_u64).ok_or_else(|| {
                    at("kind \"latency_above\" needs integer \"threshold_cycles\"")
                })?;
                if t == 0 {
                    return Err(at("\"threshold_cycles\" must be positive"));
                }
                SloKind::LatencyAbove { threshold_cycles: t }
            }
            Some("rejection") => SloKind::Rejection,
            Some(k) => {
                return Err(at(&format!(
                    "unknown kind {k:?} (expected \"latency_above\" or \"rejection\")"
                )))
            }
            None => return Err(at("missing string \"kind\"")),
        };
        out.push(SloSpec { name: name.to_string(), kind, budget });
    }
    Ok(out)
}

/// Alert families the plane raises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// An objective's multi-window burn rate crossed both thresholds.
    SloBurn,
    /// Window-peak stash occupancy reached the configured Path ORAM
    /// bound.
    StashPressure,
    /// Window rejection fraction crossed the saturation-knee 5%.
    RejectionKnee,
    /// An engine window's Eq. 1 residual drifted past 1% of the window.
    Eq1Residual,
}

impl AlertKind {
    /// Dense index (for fixed per-kind arrays).
    pub fn index(self) -> usize {
        match self {
            AlertKind::SloBurn => 0,
            AlertKind::StashPressure => 1,
            AlertKind::RejectionKnee => 2,
            AlertKind::Eq1Residual => 3,
        }
    }

    /// Stable snake_case name (a Prometheus label value).
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::SloBurn => "slo_burn",
            AlertKind::StashPressure => "stash_pressure",
            AlertKind::RejectionKnee => "rejection_knee",
            AlertKind::Eq1Residual => "eq1_residual",
        }
    }
}

/// One structured alert event. Every field is sim-time or a public
/// aggregate — no addresses, leaf labels or any other secret-dependent
/// value appears here (the audit's relabeling distinguisher holds the
/// event stream to that contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloEvent {
    /// The closed window that triggered the alert.
    pub window_index: u64,
    /// The cycle the alert was evaluated at (the window-close edge, or
    /// the engine-window end for residual alerts).
    pub cycle: u64,
    /// Alert family.
    pub kind: AlertKind,
    /// Objective index for [`AlertKind::SloBurn`]; `u32::MAX` otherwise.
    pub slo: u32,
    /// Measured value: burn rate ×1e6 for burns, ppm fractions for
    /// knee/residual, raw occupancy for stash.
    pub value: u64,
    /// The threshold crossed, in the same unit as `value`.
    pub threshold: u64,
}

impl SloEvent {
    /// Renders the event as one JSON object.
    pub fn to_json(&self, slo_name: Option<&str>) -> String {
        let mut w = Writer::new();
        self.write_json(&mut w, slo_name);
        w.finish()
    }

    /// Writes the event as one JSON object: the `/slo` body's events
    /// and the incident bundle's `alerts.jsonl` rows.
    pub fn write_json(&self, w: &mut Writer, slo_name: Option<&str>) {
        w.object(Layout::COMPACT).field("window", self.window_index).field("cycle", self.cycle);
        w.field("kind", self.kind.name()).field("slo", slo_name).field("value", self.value);
        w.field("threshold", self.threshold).end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alert_kind_indices_are_dense() {
        let kinds = [
            AlertKind::SloBurn,
            AlertKind::StashPressure,
            AlertKind::RejectionKnee,
            AlertKind::Eq1Residual,
        ];
        for (i, k) in kinds.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let mut names: Vec<&str> = kinds.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn default_set_scales_with_gap() {
        let slos = SloSpec::default_set(1_000);
        assert_eq!(slos.len(), 3);
        assert!(matches!(slos[0].kind, SloKind::LatencyAbove { threshold_cycles: 2_000 }));
        assert!(matches!(slos[1].kind, SloKind::LatencyAbove { threshold_cycles: 6_000 }));
        assert!(matches!(slos[2].kind, SloKind::Rejection));
    }

    #[test]
    fn spec_file_parses_round_trip() {
        let text = r#"{"slos": [
            {"name": "latency_p99", "kind": "latency_above",
             "threshold_cycles": 50000, "budget": 0.01},
            {"name": "rejections", "kind": "rejection", "budget": 0.005}
        ]}"#;
        let slos = parse_slo_spec(text).unwrap();
        assert_eq!(slos.len(), 2);
        assert_eq!(slos[0].name, "latency_p99");
        assert!(matches!(slos[0].kind, SloKind::LatencyAbove { threshold_cycles: 50_000 }));
        assert!(matches!(slos[1].kind, SloKind::Rejection));
        assert!((slos[1].budget - 0.005).abs() < 1e-12);
    }

    #[test]
    fn spec_file_rejections_are_one_line() {
        let cases = [
            ("not json", "slo spec:"),
            (r#"{"objectives": []}"#, "missing top-level"),
            (r#"{"slos": []}"#, "at least one"),
            (r#"{"slos": [{"kind": "rejection", "budget": 0.1}]}"#, "missing string \"name\""),
            (
                r#"{"slos": [{"name": "Bad Name", "kind": "rejection", "budget": 0.1}]}"#,
                "snake_case",
            ),
            (r#"{"slos": [{"name": "a", "kind": "rejection", "budget": 0.0}]}"#, "(0, 1]"),
            (r#"{"slos": [{"name": "a", "kind": "rejection", "budget": 2.0}]}"#, "(0, 1]"),
            (
                r#"{"slos": [{"name": "a", "kind": "latency_above", "budget": 0.1}]}"#,
                "threshold_cycles",
            ),
            (r#"{"slos": [{"name": "a", "kind": "percentile", "budget": 0.1}]}"#, "unknown kind"),
            (r#"{"slos": [{"name": "a", "budget": 0.1}]}"#, "missing string \"kind\""),
            (
                r#"{"slos": [{"name": "a", "kind": "rejection", "budget": 0.1},
                            {"name": "a", "kind": "rejection", "budget": 0.2}]}"#,
                "duplicate",
            ),
        ];
        for (text, want) in cases {
            let err = parse_slo_spec(text).unwrap_err();
            assert!(err.contains(want), "{text:?}: {err}");
            assert_eq!(err.lines().count(), 1, "error must be one line: {err}");
        }
        // The MAX_SLOS cap.
        let many: Vec<String> = (0..MAX_SLOS + 1)
            .map(|i| format!(r#"{{"name": "slo_{i}", "kind": "rejection", "budget": 0.1}}"#))
            .collect();
        let err = parse_slo_spec(&format!(r#"{{"slos": [{}]}}"#, many.join(","))).unwrap_err();
        assert!(err.contains("at most"), "{err}");
    }

    #[test]
    fn event_json_shape() {
        let ev = SloEvent {
            window_index: 3,
            cycle: 200_000,
            kind: AlertKind::SloBurn,
            slo: 0,
            value: 2_500_000,
            threshold: 2_000_000,
        };
        let j = ev.to_json(Some("latency_p99"));
        assert!(j.contains("\"kind\":\"slo_burn\""));
        assert!(j.contains("\"slo\":\"latency_p99\""));
        let j2 = ev.to_json(None);
        assert!(j2.contains("\"slo\":null"));
    }
}
