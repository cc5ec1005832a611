//! The profiling report behind `repro profile`: per-policy cycle
//! attribution (where every cycle of the run went), DRAM backend
//! utilization, and the per-level bucket-touch heatmap — in one
//! structure that renders as an aligned text table, serializes to JSON,
//! and parses back for `repro compare`'s regression guard.
//!
//! The attribution invariant this module enforces end to end: the six
//! latency components of every span (`dram_queue + dram_row + network +
//! dram_bus + eviction + posmap`) sum *exactly* to the span's duration,
//! so at run level `total = queue + row + network + bus + eviction +
//! posmap + idle` with nothing unattributed (`network` is zero for local
//! backends, `posmap` is zero for flat position maps). Duplication
//! effects are reported as credits on the side (RD-Dup early-forward
//! savings, HD-Dup stash-pull credit), never folded into the latency sum.

use oram_util::{AccessSpan, ServeClass};

use crate::json::{self, Value};
use crate::spans::SpanRing;

/// Run parameters a profile was captured under (for apples-to-apples
/// comparison: `repro compare` refuses to diff mismatched metadata).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileMeta {
    /// Workload name ("mcf", ...).
    pub workload: String,
    /// Measured misses per policy.
    pub misses: u64,
    /// Tree depth `L`.
    pub levels: u32,
    /// Trace seed.
    pub seed: u64,
}

/// One DRAM channel's utilization summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelProfile {
    /// Cycles the data bus moved data (measured portion).
    pub busy_cycles: u64,
    /// Row-buffer hit rate over reads + writes.
    pub row_hit_rate: f64,
    /// Read transactions serviced.
    pub reads: u64,
    /// Write transactions serviced.
    pub writes: u64,
    /// Median queue depth observed at submit.
    pub queue_p50: u64,
    /// Deepest queue observed at submit.
    pub queue_max: u64,
}

/// One policy's full profile.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyProfile {
    /// Policy label ("tiny", "rd_dup", ...).
    pub policy: String,
    /// Total measured cycles.
    pub total_cycles: u64,
    /// Cycles on real data accesses (Eq. 1 first term).
    pub data_cycles: u64,
    /// Residual cycles (Eq. 1 DRI term).
    pub dri_cycles: u64,
    /// Σ over spans: cycles waiting in DRAM bank queues.
    pub attr_queue: u64,
    /// Σ over spans: cycles in row activate/precharge.
    pub attr_row: u64,
    /// Σ over spans: cycles in network round trips (zero for local
    /// backends; populated by the simulated-WAN storage backend).
    pub attr_network: u64,
    /// Σ over spans: cycles moving data on the bus.
    pub attr_bus: u64,
    /// Σ over spans: cycles in background-eviction phases.
    pub attr_eviction: u64,
    /// Σ over spans: cycles walking the recursive posmap-ORAM chain on
    /// PLB misses (zero for flat position maps).
    pub attr_posmap: u64,
    /// PLB hits (posmap lookups short-circuited on chip).
    pub plb_hits: u64,
    /// PLB misses (posmap lookups that walked the recursion chain).
    pub plb_misses: u64,
    /// PLB lines displaced by a miss install.
    pub plb_evictions: u64,
    /// Σ RD-Dup early-forward savings (credit, not latency).
    pub forward_saved: u64,
    /// Σ HD-Dup stash-pull credits (credit, not latency).
    pub stash_pull_credit: u64,
    /// DRAM energy over the measured portion, millijoules.
    pub energy_mj: f64,
    /// Per-channel backend utilization.
    pub channels: Vec<ChannelProfile>,
    /// Off-chip bucket reads per tree level (index = level).
    pub level_reads: Vec<u64>,
    /// Off-chip bucket writes per tree level.
    pub level_writes: Vec<u64>,
}

impl PolicyProfile {
    /// Cycles not attributed to any memory phase: idle gaps between
    /// accesses. `total = queue + row + network + bus + eviction +
    /// posmap + idle` exactly.
    pub fn idle_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(
            self.attr_queue
                + self.attr_row
                + self.attr_network
                + self.attr_bus
                + self.attr_eviction
                + self.attr_posmap,
        )
    }

    /// PLB hit rate over all posmap lookups that consulted the PLB
    /// (0 when the PLB saw no traffic).
    pub fn plb_hit_rate(&self) -> f64 {
        let total = self.plb_hits + self.plb_misses;
        if total == 0 {
            0.0
        } else {
            self.plb_hits as f64 / total as f64
        }
    }
}

/// A complete profile: metadata plus one [`PolicyProfile`] per policy.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileReport {
    /// Capture parameters.
    pub meta: ProfileMeta,
    /// Per-policy profiles, in report order.
    pub policies: Vec<PolicyProfile>,
}

fn pct(part: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        100.0 * part as f64 / total as f64
    }
}

impl ProfileReport {
    /// Renders the human-readable profile: the attribution table, the
    /// backend-utilization table, and the per-level touch heatmap.
    pub fn render(&self) -> String {
        let m = &self.meta;
        let mut out = format!(
            "profile: {} ({} misses, L={}, seed {})\n",
            m.workload, m.misses, m.levels, m.seed
        );
        out.push_str(
            "cycle attribution (total = queue + row + net + bus + eviction + posmap + idle)\n",
        );
        out.push_str(&format!(
            "  {:<10} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>11} {:>12}\n",
            "policy", "total_cyc", "queue%", "row%", "net%", "bus%", "evict%", "posmap%", "idle%",
            "fwd_saved", "stash_credit"
        ));
        for p in &self.policies {
            out.push_str(&format!(
                "  {:<10} {:>12} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>11} {:>12}\n",
                p.policy,
                p.total_cycles,
                pct(p.attr_queue, p.total_cycles),
                pct(p.attr_row, p.total_cycles),
                pct(p.attr_network, p.total_cycles),
                pct(p.attr_bus, p.total_cycles),
                pct(p.attr_eviction, p.total_cycles),
                pct(p.attr_posmap, p.total_cycles),
                pct(p.idle_cycles(), p.total_cycles),
                p.forward_saved,
                p.stash_pull_credit,
            ));
        }
        out.push_str("posmap lookaside buffer (hits / misses / evictions)\n");
        for p in &self.policies {
            out.push_str(&format!(
                "  {:<10} {:>9} {:>9} {:>9}  hit_rate {:>5.1}%\n",
                p.policy,
                p.plb_hits,
                p.plb_misses,
                p.plb_evictions,
                100.0 * p.plb_hit_rate(),
            ));
        }
        out.push_str("backend utilization (per channel)\n");
        out.push_str(&format!(
            "  {:<10} {:>3} {:>12} {:>8} {:>9} {:>9} {:>6} {:>6}\n",
            "policy", "ch", "busy_cyc", "row_hit", "reads", "writes", "q_p50", "q_max"
        ));
        for p in &self.policies {
            for (i, c) in p.channels.iter().enumerate() {
                out.push_str(&format!(
                    "  {:<10} {:>3} {:>12} {:>7.1}% {:>9} {:>9} {:>6} {:>6}\n",
                    p.policy,
                    i,
                    c.busy_cycles,
                    100.0 * c.row_hit_rate,
                    c.reads,
                    c.writes,
                    c.queue_p50,
                    c.queue_max,
                ));
            }
        }
        out.push_str("bucket touches per level (reads/writes, level 0 = root)\n");
        for p in &self.policies {
            out.push_str(&format!("  {:<10}", p.policy));
            for (l, (r, w)) in p.level_reads.iter().zip(&p.level_writes).enumerate() {
                out.push_str(&format!(" L{l}:{r}/{w}"));
            }
            out.push('\n');
        }
        out.push_str("energy (measured portion)\n");
        for p in &self.policies {
            out.push_str(&format!("  {:<10} {:>10.3} mJ\n", p.policy, p.energy_mj));
        }
        out
    }

    /// Serializes the profile as a single JSON document (the baseline
    /// format `repro compare` consumes).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"meta\": {{\"workload\":\"{}\",\"misses\":{},\"levels\":{},\"seed\":{}}},\n",
            json::escape(&self.meta.workload),
            self.meta.misses,
            self.meta.levels,
            self.meta.seed
        ));
        out.push_str("  \"policies\": [\n");
        for (i, p) in self.policies.iter().enumerate() {
            let channels: Vec<String> = p
                .channels
                .iter()
                .map(|c| {
                    format!(
                        concat!(
                            "{{\"busy_cycles\":{},\"row_hit_rate\":{:.6},\"reads\":{},",
                            "\"writes\":{},\"queue_p50\":{},\"queue_max\":{}}}"
                        ),
                        c.busy_cycles, c.row_hit_rate, c.reads, c.writes, c.queue_p50, c.queue_max
                    )
                })
                .collect();
            let nums = |v: &[u64]| {
                let s: Vec<String> = v.iter().map(u64::to_string).collect();
                format!("[{}]", s.join(","))
            };
            out.push_str(&format!(
                concat!(
                    "    {{\"policy\":\"{}\",\"total_cycles\":{},\"data_cycles\":{},",
                    "\"dri_cycles\":{},\"attr_queue\":{},\"attr_row\":{},\"attr_network\":{},",
                    "\"attr_bus\":{},\"attr_eviction\":{},\"attr_posmap\":{},",
                    "\"plb_hits\":{},\"plb_misses\":{},\"plb_evictions\":{},",
                    "\"forward_saved\":{},\"stash_pull_credit\":{},",
                    "\"energy_mj\":{:.6},\"channels\":[{}],\"level_reads\":{},",
                    "\"level_writes\":{}}}{}\n"
                ),
                json::escape(&p.policy),
                p.total_cycles,
                p.data_cycles,
                p.dri_cycles,
                p.attr_queue,
                p.attr_row,
                p.attr_network,
                p.attr_bus,
                p.attr_eviction,
                p.attr_posmap,
                p.plb_hits,
                p.plb_misses,
                p.plb_evictions,
                p.forward_saved,
                p.stash_pull_credit,
                p.energy_mj,
                channels.join(","),
                nums(&p.level_reads),
                nums(&p.level_writes),
                if i + 1 < self.policies.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses a profile previously written by [`ProfileReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message locating the first missing or mistyped field.
    pub fn parse(text: &str) -> Result<ProfileReport, String> {
        let doc = json::parse(text)?;
        let meta = doc.get("meta").ok_or("missing meta")?;
        let req_u64 = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key).and_then(Value::as_u64).ok_or(format!("missing or non-u64 {key:?}"))
        };
        let meta = ProfileMeta {
            workload: meta
                .get("workload")
                .and_then(Value::as_str)
                .ok_or("missing meta.workload")?
                .to_string(),
            misses: req_u64(meta, "misses")?,
            levels: req_u64(meta, "levels")? as u32,
            seed: req_u64(meta, "seed")?,
        };
        let list = doc.get("policies").and_then(Value::as_array).ok_or("missing policies")?;
        let mut policies = Vec::new();
        for p in list {
            let u64s = |key: &str| -> Result<Vec<u64>, String> {
                p.get(key)
                    .and_then(Value::as_array)
                    .ok_or(format!("missing array {key:?}"))?
                    .iter()
                    .map(|v| v.as_u64().ok_or(format!("non-u64 entry in {key:?}")))
                    .collect()
            };
            let mut channels = Vec::new();
            for c in p.get("channels").and_then(Value::as_array).ok_or("missing channels")? {
                channels.push(ChannelProfile {
                    busy_cycles: req_u64(c, "busy_cycles")?,
                    row_hit_rate: c
                        .get("row_hit_rate")
                        .and_then(Value::as_f64)
                        .ok_or("missing row_hit_rate")?,
                    reads: req_u64(c, "reads")?,
                    writes: req_u64(c, "writes")?,
                    queue_p50: req_u64(c, "queue_p50")?,
                    queue_max: req_u64(c, "queue_max")?,
                });
            }
            policies.push(PolicyProfile {
                policy: p
                    .get("policy")
                    .and_then(Value::as_str)
                    .ok_or("missing policy name")?
                    .to_string(),
                total_cycles: req_u64(p, "total_cycles")?,
                data_cycles: req_u64(p, "data_cycles")?,
                dri_cycles: req_u64(p, "dri_cycles")?,
                attr_queue: req_u64(p, "attr_queue")?,
                attr_row: req_u64(p, "attr_row")?,
                // Lenient: baselines captured before the storage-backend
                // refactor predate this field; they are all-local runs,
                // so a missing value is exactly zero.
                attr_network: p.get("attr_network").and_then(Value::as_u64).unwrap_or(0),
                attr_bus: req_u64(p, "attr_bus")?,
                attr_eviction: req_u64(p, "attr_eviction")?,
                // Lenient: baselines captured before the recursive
                // posmap subsystem predate these fields; those are all
                // flat-posmap runs, so a missing value is exactly zero.
                attr_posmap: p.get("attr_posmap").and_then(Value::as_u64).unwrap_or(0),
                plb_hits: p.get("plb_hits").and_then(Value::as_u64).unwrap_or(0),
                plb_misses: p.get("plb_misses").and_then(Value::as_u64).unwrap_or(0),
                plb_evictions: p.get("plb_evictions").and_then(Value::as_u64).unwrap_or(0),
                forward_saved: req_u64(p, "forward_saved")?,
                stash_pull_credit: req_u64(p, "stash_pull_credit")?,
                energy_mj: p
                    .get("energy_mj")
                    .and_then(Value::as_f64)
                    .ok_or("missing energy_mj")?,
                channels,
                level_reads: u64s("level_reads")?,
                level_writes: u64s("level_writes")?,
            });
        }
        Ok(ProfileReport { meta, policies })
    }
}

/// Checks the attribution invariant on every span in `ring`: the six
/// latency components sum exactly to the span's duration (no
/// unattributed cycles) and duplication credits sit only on the serve
/// classes that can earn them (`forward_saved` ⇒ shadow DRAM serve,
/// `stash_pull_credit` ⇒ stash hit).
///
/// A ring holds only its newest spans; a run longer than that reads
/// [`TelemetryRecorder::attribution`](crate::TelemetryRecorder::attribution),
/// which applies the same check to every span as it is recorded.
///
/// # Errors
///
/// Returns a message naming the first offending span.
pub fn validate_attribution(ring: &SpanRing) -> Result<(), String> {
    ring.iter().try_for_each(span_attribution)
}

/// The attribution invariant ([`validate_attribution`]) on one span.
pub(crate) fn span_attribution(s: &AccessSpan) -> Result<(), String> {
    let a = &s.attr;
    let sum = a.dram_queue + a.dram_row + a.network + a.dram_bus + a.eviction + a.posmap;
    let dur = s.end - s.start;
    if sum != dur {
        return Err(format!(
            "span {}: attribution {sum} != duration {dur} \
             (queue {} + row {} + network {} + bus {} + eviction {} + posmap {})",
            s.seq, a.dram_queue, a.dram_row, a.network, a.dram_bus, a.eviction, a.posmap
        ));
    }
    if a.queue_wait != s.start - s.arrival {
        return Err(format!(
            "span {}: queue_wait {} != start {} - arrival {}",
            s.seq, a.queue_wait, s.start, s.arrival
        ));
    }
    if a.forward_saved > 0 && s.served != ServeClass::DramShadow {
        return Err(format!(
            "span {}: forward_saved {} on {:?} serve",
            s.seq, a.forward_saved, s.served
        ));
    }
    if a.stash_pull_credit > 0 && s.served != ServeClass::Stash {
        return Err(format!(
            "span {}: stash_pull_credit {} on {:?} serve",
            s.seq, a.stash_pull_credit, s.served
        ));
    }
    Ok(())
}

/// One metric's base-vs-candidate comparison line.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// `"<policy>.<metric>"`.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Relative change `(candidate - base) / base` (0 when base is 0).
    pub delta: f64,
    /// Whether this metric is gated (a worsening beyond tolerance is a
    /// regression) or informational only.
    pub gated: bool,
}

impl MetricDelta {
    /// True when this delta trips the regression guard at `tol`.
    pub fn regressed(&self, tol: f64) -> bool {
        self.gated && self.delta > tol
    }
}

/// The outcome of comparing two profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareOutcome {
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
            "profile comparison (tolerance {:.1}% on gated metrics)\n  {:<28} {:>14} {:>14} {:>8}  status\n",
            100.0 * self.tolerance,
            "metric",
            "baseline",
            "candidate",
            "delta"
        );
        for d in &self.deltas {
            let status = if d.regressed(self.tolerance) {
                "REGRESSION"
            } else if d.gated {
                "ok"
            } else {
                "info"
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

/// Compares `candidate` against `base` per policy. Gated
/// (higher-is-worse) metrics: total/data/DRI cycles and energy; the
/// attribution components ride along as informational deltas.
///
/// # Errors
///
/// Returns a message when the two profiles were captured under
/// different parameters or cover different policy sets.
pub fn compare_reports(
    base: &ProfileReport,
    candidate: &ProfileReport,
    tolerance: f64,
) -> Result<CompareOutcome, String> {
    if base.meta != candidate.meta {
        return Err(format!(
            "profiles are not comparable: baseline {:?} vs candidate {:?}",
            base.meta, candidate.meta
        ));
    }
    let mut deltas = Vec::new();
    for b in &base.policies {
        let c = candidate
            .policies
            .iter()
            .find(|c| c.policy == b.policy)
            .ok_or(format!("candidate is missing policy {:?}", b.policy))?;
        let mut push = |metric: &str, bv: f64, cv: f64, gated: bool| {
            let delta = if bv == 0.0 { 0.0 } else { (cv - bv) / bv };
            deltas.push(MetricDelta {
                name: format!("{}.{metric}", b.policy),
                base: bv,
                candidate: cv,
                delta,
                gated,
            });
        };
        push("total_cycles", b.total_cycles as f64, c.total_cycles as f64, true);
        push("data_cycles", b.data_cycles as f64, c.data_cycles as f64, true);
        push("dri_cycles", b.dri_cycles as f64, c.dri_cycles as f64, true);
        push("energy_mj", b.energy_mj, c.energy_mj, true);
        push("attr_queue", b.attr_queue as f64, c.attr_queue as f64, false);
        push("attr_row", b.attr_row as f64, c.attr_row as f64, false);
        push("attr_network", b.attr_network as f64, c.attr_network as f64, false);
        push("attr_bus", b.attr_bus as f64, c.attr_bus as f64, false);
        push("attr_eviction", b.attr_eviction as f64, c.attr_eviction as f64, false);
        push("attr_posmap", b.attr_posmap as f64, c.attr_posmap as f64, false);
        push("plb_hits", b.plb_hits as f64, c.plb_hits as f64, false);
        push("plb_misses", b.plb_misses as f64, c.plb_misses as f64, false);
        push("forward_saved", b.forward_saved as f64, c.forward_saved as f64, false);
    }
    for c in &candidate.policies {
        if !base.policies.iter().any(|b| b.policy == c.policy) {
            return Err(format!("baseline is missing policy {:?}", c.policy));
        }
    }
    Ok(CompareOutcome { deltas, tolerance })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_util::telemetry::SPAN_MAX_PHASES;
    use oram_util::{AccessAttribution, AccessSpan, PhaseSpan};

    fn policy(name: &str, total: u64) -> PolicyProfile {
        PolicyProfile {
            policy: name.into(),
            total_cycles: total,
            data_cycles: total / 2,
            dri_cycles: total - total / 2,
            attr_queue: total / 10,
            attr_row: total / 10,
            attr_network: 0,
            attr_bus: total / 4,
            attr_eviction: total / 4,
            attr_posmap: total / 20,
            plb_hits: 900,
            plb_misses: 100,
            plb_evictions: 60,
            forward_saved: if name == "tiny" { 0 } else { total / 20 },
            stash_pull_credit: 0,
            energy_mj: total as f64 * 1e-6,
            channels: vec![ChannelProfile {
                busy_cycles: total / 8,
                row_hit_rate: 0.75,
                reads: 1000,
                writes: 500,
                queue_p50: 2,
                queue_max: 9,
            }],
            level_reads: vec![0, 0, 40, 40],
            level_writes: vec![0, 0, 10, 10],
        }
    }

    fn report() -> ProfileReport {
        ProfileReport {
            meta: ProfileMeta { workload: "mcf".into(), misses: 1000, levels: 12, seed: 7 },
            policies: vec![policy("tiny", 100_000), policy("rd_dup", 90_000)],
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_field() {
        let r = report();
        let parsed = ProfileReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed.meta, r.meta);
        assert_eq!(parsed.policies.len(), r.policies.len());
        // Floats go through decimal text, so compare them to within the
        // serialized precision and everything else exactly.
        for (a, b) in parsed.policies.iter().zip(&r.policies) {
            assert!((a.energy_mj - b.energy_mj).abs() < 1e-6, "{} vs {}", a.energy_mj, b.energy_mj);
            for (ca, cb) in a.channels.iter().zip(&b.channels) {
                assert!((ca.row_hit_rate - cb.row_hit_rate).abs() < 1e-6);
            }
            let mut a = a.clone();
            let mut b = b.clone();
            a.energy_mj = 0.0;
            b.energy_mj = 0.0;
            for c in a.channels.iter_mut().chain(b.channels.iter_mut()) {
                c.row_hit_rate = 0.0;
            }
            assert_eq!(a, b);
        }
    }

    #[test]
    fn parse_rejects_missing_fields() {
        let text = report().to_json().replace("\"attr_queue\"", "\"attr_q\"");
        assert!(ProfileReport::parse(&text).is_err());
        assert!(ProfileReport::parse("not json").is_err());
    }

    #[test]
    fn render_names_every_policy_and_section() {
        let text = report().render();
        for needle in ["tiny", "rd_dup", "cycle attribution", "backend utilization", "L3:40/10"] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn idle_completes_the_partition() {
        let p = policy("tiny", 100_000);
        assert_eq!(
            p.attr_queue + p.attr_row + p.attr_network + p.attr_bus + p.attr_eviction
                + p.attr_posmap
                + p.idle_cycles(),
            p.total_cycles
        );
        assert!((p.plb_hit_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn pre_posmap_baselines_parse_as_zero() {
        // Strip the posmap-era fields the way an old baseline would lack
        // them: parsing must succeed with all four read as zero.
        let mut text = report().to_json();
        for field in ["attr_posmap", "plb_hits", "plb_misses", "plb_evictions"] {
            let needle = format!("\"{field}\":");
            while let Some(at) = text.find(&needle) {
                let end = at + text[at..].find(',').unwrap() + 1;
                text.replace_range(at..end, "");
            }
        }
        let parsed = ProfileReport::parse(&text).unwrap();
        for p in &parsed.policies {
            assert_eq!(p.attr_posmap, 0);
            assert_eq!(p.plb_hits + p.plb_misses + p.plb_evictions, 0);
        }
    }

    #[test]
    fn identical_profiles_compare_clean() {
        let r = report();
        let out = compare_reports(&r, &r, DEFAULT_TOLERANCE).unwrap();
        assert!(out.passed());
        assert!(out.deltas.iter().all(|d| d.delta == 0.0));
        assert!(out.render().contains("PASS"));
    }

    #[test]
    fn five_percent_latency_regression_trips_the_guard() {
        let base = report();
        let mut cand = report();
        cand.policies[0].total_cycles = base.policies[0].total_cycles * 105 / 100;
        let out = compare_reports(&base, &cand, DEFAULT_TOLERANCE).unwrap();
        assert!(!out.passed());
        let regs = out.regressions();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].name, "tiny.total_cycles");
        assert!(out.render().contains("REGRESSION"));
    }

    #[test]
    fn informational_deltas_never_gate() {
        let base = report();
        let mut cand = report();
        cand.policies[1].forward_saved *= 10;
        let out = compare_reports(&base, &cand, DEFAULT_TOLERANCE).unwrap();
        assert!(out.passed(), "forward_saved is informational");
    }

    #[test]
    fn mismatched_meta_or_policies_are_rejected() {
        let base = report();
        let mut other = report();
        other.meta.seed = 8;
        assert!(compare_reports(&base, &other, 0.02).is_err());
        let mut fewer = report();
        fewer.policies.pop();
        assert!(compare_reports(&base, &fewer, 0.02).is_err());
        assert!(compare_reports(&fewer, &base, 0.02).is_err());
    }

    fn span_with(attr: AccessAttribution, served: ServeClass, dur: u64) -> AccessSpan {
        AccessSpan {
            seq: 1,
            real: true,
            arrival: 100,
            start: 100,
            data_ready: 100 + dur,
            end: 100 + dur,
            served,
            forward_index: u32::MAX,
            blocks_in_path: 0,
            stash_live: 0,
            attr,
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        }
    }

    #[test]
    fn attribution_validator_accepts_exact_and_rejects_drift() {
        let good = AccessAttribution {
            queue_wait: 0,
            dram_queue: 10,
            dram_row: 20,
            network: 0,
            dram_bus: 30,
            eviction: 25,
            posmap: 15,
            forward_saved: 0,
            stash_pull_credit: 0,
        };
        let mut ring = SpanRing::new(4);
        ring.push(&span_with(good, ServeClass::DramReal, 100));
        assert!(validate_attribution(&ring).is_ok());

        let mut bad = good;
        bad.dram_bus += 1;
        let mut ring = SpanRing::new(4);
        ring.push(&span_with(bad, ServeClass::DramReal, 100));
        assert!(validate_attribution(&ring).unwrap_err().contains("!= duration"));
    }

    #[test]
    fn attribution_validator_checks_queue_wait() {
        let attr = AccessAttribution { dram_queue: 100, ..AccessAttribution::ZERO };
        let mut s = span_with(attr, ServeClass::DramReal, 100);
        s.arrival = 60; // start 100 → queue_wait must be exactly 40
        let mut ring = SpanRing::new(4);
        ring.push(&s);
        assert!(validate_attribution(&ring).unwrap_err().contains("queue_wait"));

        s.attr.queue_wait = 40;
        let mut ring = SpanRing::new(4);
        ring.push(&s);
        assert!(validate_attribution(&ring).is_ok());
    }

    #[test]
    fn attribution_validator_enforces_credit_exclusivity() {
        let mut with_fwd = AccessAttribution::ZERO;
        with_fwd.forward_saved = 5;
        let mut ring = SpanRing::new(4);
        ring.push(&span_with(with_fwd, ServeClass::DramReal, 0));
        assert!(validate_attribution(&ring).unwrap_err().contains("forward_saved"));

        let mut with_credit = AccessAttribution::ZERO;
        with_credit.stash_pull_credit = 7;
        let mut ring = SpanRing::new(4);
        ring.push(&span_with(with_credit, ServeClass::Treetop, 0));
        assert!(validate_attribution(&ring).unwrap_err().contains("stash_pull_credit"));
    }
}
