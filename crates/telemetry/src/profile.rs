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

use oram_util::{AccessSpan, Ring, ServeClass};

use crate::compare::{Gate, Report};
use crate::json::{Layout, Value, Writer};

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
            "policy",
            "total_cyc",
            "queue%",
            "row%",
            "net%",
            "bus%",
            "evict%",
            "posmap%",
            "idle%",
            "fwd_saved",
            "stash_credit"
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
        let m = &self.meta;
        let mut w = Writer::new();
        w.object(Layout::INDENTED).key("meta").object(Layout::COMPACT);
        w.field("workload", m.workload.as_str()).field("misses", m.misses);
        w.field("levels", m.levels).field("seed", m.seed).end();
        w.key("policies").array(Layout::INDENTED_ROWS);
        for p in &self.policies {
            w.object(Layout::COMPACT).field("policy", p.policy.as_str());
            w.field("total_cycles", p.total_cycles).field("data_cycles", p.data_cycles);
            w.field("dri_cycles", p.dri_cycles).field("attr_queue", p.attr_queue);
            w.field("attr_row", p.attr_row).field("attr_network", p.attr_network);
            w.field("attr_bus", p.attr_bus).field("attr_eviction", p.attr_eviction);
            w.field("attr_posmap", p.attr_posmap).field("plb_hits", p.plb_hits);
            w.field("plb_misses", p.plb_misses).field("plb_evictions", p.plb_evictions);
            w.field("forward_saved", p.forward_saved);
            w.field("stash_pull_credit", p.stash_pull_credit).field("energy_mj", p.energy_mj);
            w.key("channels").array(Layout::COMPACT);
            for c in &p.channels {
                w.object(Layout::COMPACT).field("busy_cycles", c.busy_cycles);
                w.field("row_hit_rate", c.row_hit_rate).field("reads", c.reads);
                w.field("writes", c.writes).field("queue_p50", c.queue_p50);
                w.field("queue_max", c.queue_max).end();
            }
            w.end().list("level_reads", p.level_reads.iter().copied());
            w.list("level_writes", p.level_writes.iter().copied()).end();
        }
        w.end().end().newline();
        w.finish()
    }
}

impl Report for ProfileReport {
    const KIND: &'static str = "profile";
    type Meta = ProfileMeta;

    fn from_json(doc: &Value) -> Result<ProfileReport, String> {
        let m: &Value = doc.at("meta")?;
        let meta = ProfileMeta {
            workload: m.at("workload")?,
            misses: m.at("misses")?,
            levels: m.at("levels")?,
            seed: m.at("seed")?,
        };
        let mut policies = Vec::new();
        for p in doc.at::<&[Value]>("policies")? {
            let mut channels = Vec::new();
            for c in p.at::<&[Value]>("channels")? {
                channels.push(ChannelProfile {
                    busy_cycles: c.at("busy_cycles")?,
                    row_hit_rate: c.at("row_hit_rate")?,
                    reads: c.at("reads")?,
                    writes: c.at("writes")?,
                    queue_p50: c.at("queue_p50")?,
                    queue_max: c.at("queue_max")?,
                });
            }
            let u64s = |key: &str| -> Result<Vec<u64>, String> {
                p.at::<&[Value]>(key)?
                    .iter()
                    .map(|v| v.as_u64().ok_or(format!("non-u64 entry in {key:?}")))
                    .collect()
            };
            policies.push(PolicyProfile {
                policy: p.at("policy")?,
                total_cycles: p.at("total_cycles")?,
                data_cycles: p.at("data_cycles")?,
                dri_cycles: p.at("dri_cycles")?,
                attr_queue: p.at("attr_queue")?,
                attr_row: p.at("attr_row")?,
                // Lenient: baselines captured before the storage-backend
                // refactor predate this field; they are all-local runs,
                // so a missing value is exactly zero.
                attr_network: p.at_or("attr_network", 0)?,
                attr_bus: p.at("attr_bus")?,
                attr_eviction: p.at("attr_eviction")?,
                // Lenient: baselines captured before the recursive
                // posmap subsystem predate these fields; those are all
                // flat-posmap runs, so a missing value is exactly zero.
                attr_posmap: p.at_or("attr_posmap", 0)?,
                plb_hits: p.at_or("plb_hits", 0)?,
                plb_misses: p.at_or("plb_misses", 0)?,
                plb_evictions: p.at_or("plb_evictions", 0)?,
                forward_saved: p.at("forward_saved")?,
                stash_pull_credit: p.at("stash_pull_credit")?,
                energy_mj: p.at("energy_mj")?,
                channels,
                level_reads: u64s("level_reads")?,
                level_writes: u64s("level_writes")?,
            });
        }
        Ok(ProfileReport { meta, policies })
    }

    fn meta(&self) -> ProfileMeta {
        self.meta.clone()
    }

    /// Gated (higher-is-worse) per policy: total/data/DRI cycles and
    /// energy; the attribution components ride along as information.
    fn rows(&self) -> Vec<(String, f64, Gate)> {
        let mut rows = Vec::new();
        for p in &self.policies {
            for (metric, v, gate) in [
                ("total_cycles", p.total_cycles as f64, Gate::Rise),
                ("data_cycles", p.data_cycles as f64, Gate::Rise),
                ("dri_cycles", p.dri_cycles as f64, Gate::Rise),
                ("energy_mj", p.energy_mj, Gate::Rise),
                ("attr_queue", p.attr_queue as f64, Gate::Info),
                ("attr_row", p.attr_row as f64, Gate::Info),
                ("attr_network", p.attr_network as f64, Gate::Info),
                ("attr_bus", p.attr_bus as f64, Gate::Info),
                ("attr_eviction", p.attr_eviction as f64, Gate::Info),
                ("attr_posmap", p.attr_posmap as f64, Gate::Info),
                ("plb_hits", p.plb_hits as f64, Gate::Info),
                ("plb_misses", p.plb_misses as f64, Gate::Info),
                ("forward_saved", p.forward_saved as f64, Gate::Info),
            ] {
                rows.push((format!("{}.{metric}", p.policy), v, gate));
            }
        }
        rows
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
pub fn validate_attribution(ring: &Ring<AccessSpan>) -> Result<(), String> {
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
             (the sum of queue {} + row {} + network {} + bus {} + eviction {} + posmap {})",
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::{compare_reports, DEFAULT_TOLERANCE};
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
            p.attr_queue
                + p.attr_row
                + p.attr_network
                + p.attr_bus
                + p.attr_eviction
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
        let mut ring = Ring::new(4);
        ring.push(span_with(good, ServeClass::DramReal, 100));
        assert!(validate_attribution(&ring).is_ok());

        let mut bad = good;
        bad.dram_bus += 1;
        let mut ring = Ring::new(4);
        ring.push(span_with(bad, ServeClass::DramReal, 100));
        assert!(validate_attribution(&ring).unwrap_err().contains("!= duration"));
    }

    #[test]
    fn attribution_validator_checks_queue_wait() {
        let attr = AccessAttribution { dram_queue: 100, ..AccessAttribution::ZERO };
        let mut s = span_with(attr, ServeClass::DramReal, 100);
        s.arrival = 60; // start 100 → queue_wait must be exactly 40
        let mut ring = Ring::new(4);
        ring.push(s);
        assert!(validate_attribution(&ring).unwrap_err().contains("queue_wait"));

        s.attr.queue_wait = 40;
        let mut ring = Ring::new(4);
        ring.push(s);
        assert!(validate_attribution(&ring).is_ok());
    }

    #[test]
    fn attribution_validator_enforces_credit_exclusivity() {
        let mut with_fwd = AccessAttribution::ZERO;
        with_fwd.forward_saved = 5;
        let mut ring = Ring::new(4);
        ring.push(span_with(with_fwd, ServeClass::DramReal, 0));
        assert!(validate_attribution(&ring).unwrap_err().contains("forward_saved"));

        let mut with_credit = AccessAttribution::ZERO;
        with_credit.stash_pull_credit = 7;
        let mut ring = Ring::new(4);
        ring.push(span_with(with_credit, ServeClass::Treetop, 0));
        assert!(validate_attribution(&ring).unwrap_err().contains("stash_pull_credit"));
    }

    #[test]
    fn narrow_fields_reject_out_of_range_values() {
        let text = report().to_json().replace("\"levels\":12", "\"levels\":4294967308");
        let err = ProfileReport::parse(&text).unwrap_err();
        assert!(err.contains("levels"), "{err}");
    }

    #[test]
    fn the_pre_network_baseline_parses_with_zero_defaults() {
        // The profile baseline as it was checked in before the network,
        // posmap and PLB fields existed; it is the only fixture of that
        // schema.
        let text = include_str!("../tests/golden/profile_pre_network.json");
        assert!(!text.contains("attr_network") && !text.contains("plb_hits"));
        let parsed = ProfileReport::parse(text).unwrap();
        assert!(!parsed.policies.is_empty());
        for p in &parsed.policies {
            assert!(p.total_cycles > 0);
            assert_eq!((p.attr_network, p.attr_posmap), (0, 0));
            assert_eq!((p.plb_hits, p.plb_misses, p.plb_evictions), (0, 0, 0));
        }
    }
}
