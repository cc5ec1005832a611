//! The one regression gate behind `repro compare`: every report kind
//! (profile, service, soak) implements [`Report`], and
//! [`compare_reports`] holds a candidate to its baseline row by row.

use std::fmt::Debug;

use crate::json::{self, Value};

/// How one row is gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Reported, never gated.
    Info,
    /// Higher is worse: fails when the candidate rises by more than the
    /// tolerance relative to the baseline (any rise from a zero baseline).
    Rise,
    /// Lower is worse: fails when the candidate falls by more than the
    /// tolerance relative to the baseline.
    Fall,
    /// A fraction where higher is worse: fails when the candidate rises
    /// by more than the tolerance in absolute terms.
    RiseAbs,
    /// A self-check (1 holds, 0 failed): fails when the candidate's
    /// does not hold, whatever the baseline's.
    Hold,
}

/// One metric's base-vs-candidate comparison line.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// `"<row>.<metric>"`, or the metric alone for run-wide rows.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub candidate: f64,
    /// The change the gate judges: absolute for [`Gate::RiseAbs`],
    /// otherwise relative, `(candidate - base) / base` (±∞ for a change
    /// from a zero baseline).
    pub delta: f64,
    /// How the row is gated.
    pub gate: Gate,
}

impl MetricDelta {
    /// The row `name` comparing `base` with `candidate` under `gate`.
    pub fn new(name: String, base: f64, candidate: f64, gate: Gate) -> Self {
        let change = candidate - base;
        let delta = if gate == Gate::RiseAbs || change == 0.0 {
            change
        } else if base == 0.0 {
            change.signum() * f64::INFINITY
        } else {
            change / base
        };
        MetricDelta { name, base, candidate, delta, gate }
    }

    /// True when this delta trips the regression guard at `tol`.
    pub fn regressed(&self, tol: f64) -> bool {
        match self.gate {
            Gate::Info => false,
            Gate::Rise | Gate::RiseAbs => self.delta > tol,
            Gate::Fall => self.delta < -tol,
            Gate::Hold => self.candidate != 1.0,
        }
    }
}

/// The outcome of comparing two reports of one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOutcome {
    /// The report kind ([`Report::KIND`]).
    pub kind: &'static str,
    /// All per-metric deltas, in render order.
    pub deltas: Vec<MetricDelta>,
    /// Tolerance the gated metrics were held to.
    pub tolerance: f64,
}

impl CompareOutcome {
    /// Gated metrics that worsened beyond tolerance.
    pub fn regressions(&self) -> Vec<&MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed(self.tolerance)).collect()
    }

    /// True when no gated metric regressed.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty()
    }

    /// Renders the comparison table plus a one-line verdict.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} comparison (tolerance {:.1}% on gated metrics)\n  {:<28} {:>14} {:>14} {:>8}  status\n",
            self.kind,
            100.0 * self.tolerance,
            "metric",
            "baseline",
            "candidate",
            "delta"
        );
        for d in &self.deltas {
            let status = if d.regressed(self.tolerance) {
                "REGRESSION"
            } else if d.gate == Gate::Info {
                "info"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "  {:<28} {:>14.1} {:>14.1} {:>+7.2}%  {status}\n",
                d.name,
                d.base,
                d.candidate,
                100.0 * d.delta
            ));
        }
        let regs = self.regressions();
        if regs.is_empty() {
            out.push_str("verdict: PASS (no gated metric regressed)\n");
        } else {
            out.push_str(&format!("verdict: FAIL ({} regression(s))\n", regs.len()));
        }
        out
    }
}

/// Default tolerance for [`compare_reports`]: 2% — tight enough that
/// the 5%-class regressions the guard exists for always trip it, loose
/// enough to absorb formatting-level noise (the simulator itself is
/// deterministic, so identical configurations diff to exactly zero).
pub const DEFAULT_TOLERANCE: f64 = 0.02;

/// A report `repro compare` can gate.
pub trait Report: Sized {
    /// The kind named in the comparison header (`"profile"`, ...).
    const KIND: &'static str;
    /// The run parameters two reports must share to be comparable.
    type Meta: PartialEq + Debug;

    /// Reads a report from its parsed JSON document.
    ///
    /// # Errors
    ///
    /// Names the first missing or mistyped field.
    fn from_json(doc: &Value) -> Result<Self, String>;

    /// Parses a report from the text its `to_json` wrote.
    ///
    /// # Errors
    ///
    /// Returns the parse error or [`Report::from_json`]'s.
    fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }

    /// This report's run parameters.
    fn meta(&self) -> Self::Meta;

    /// The rows the gate compares, in render order: a unique name, the
    /// value, and how it is gated.
    fn rows(&self) -> Vec<(String, f64, Gate)>;
}

/// Compares `candidate` against `base` row by row.
///
/// # Errors
///
/// Returns a message when the two reports were captured under different
/// parameters or do not carry the same rows.
pub fn compare_reports<R: Report>(
    base: &R,
    candidate: &R,
    tolerance: f64,
) -> Result<CompareOutcome, String> {
    let (bm, cm) = (base.meta(), candidate.meta());
    if bm != cm {
        return Err(format!(
            "{} reports are not comparable: baseline {bm:?} vs candidate {cm:?}",
            R::KIND
        ));
    }
    let (base, cand) = (base.rows(), candidate.rows());
    if let Some((name, ..)) = cand.iter().find(|(c, ..)| !base.iter().any(|(b, ..)| b == c)) {
        return Err(format!("baseline is missing {name}"));
    }
    let deltas = base
        .into_iter()
        .map(|(name, b, gate)| {
            let c = cand
                .iter()
                .find(|(c, ..)| *c == name)
                .ok_or_else(|| format!("candidate is missing {name}"))?
                .1;
            Ok(MetricDelta::new(name, b, c, gate))
        })
        .collect::<Result<_, String>>()?;
    Ok(CompareOutcome { kind: R::KIND, deltas, tolerance })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_judge_their_own_direction() {
        let row = |b: f64, c: f64, gate| MetricDelta::new("m".into(), b, c, gate);
        assert!(row(100.0, 103.0, Gate::Rise).regressed(0.02));
        assert!(!row(100.0, 97.0, Gate::Rise).regressed(0.02));
        assert!(row(100.0, 97.0, Gate::Fall).regressed(0.02));
        assert!(!row(100.0, 103.0, Gate::Fall).regressed(0.02));
        assert!(row(0.01, 0.04, Gate::RiseAbs).regressed(0.02));
        assert!(!row(0.01, 0.02, Gate::RiseAbs).regressed(0.02));
        assert!(row(1.0, 0.0, Gate::Hold).regressed(0.02));
        assert!(!row(0.0, 1.0, Gate::Hold).regressed(0.02));
        assert!(!row(1.0, 50.0, Gate::Info).regressed(0.02));
    }

    #[test]
    fn a_rise_from_zero_is_a_regression() {
        let d = MetricDelta::new("p99".into(), 0.0, 1412.0, Gate::Rise);
        assert_eq!(d.delta, f64::INFINITY);
        assert!(d.regressed(DEFAULT_TOLERANCE));
        let flat = MetricDelta::new("p99".into(), 0.0, 0.0, Gate::Rise);
        assert_eq!(flat.delta, 0.0);
        assert!(!flat.regressed(DEFAULT_TOLERANCE));
    }
}
