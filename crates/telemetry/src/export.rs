//! Span exporters (JSONL, Chrome `trace_event`), the JSONL reader, and
//! the validators the tests and the CI smoke job run against exported
//! files. The span schema is named here and nowhere else: the writer
//! and the reader sit side by side.

use oram_util::observe::BusPhase;
use oram_util::telemetry::SPAN_MAX_PHASES;
use oram_util::{AccessAttribution, AccessSpan, PhaseSpan, Ring, ServeClass};

use crate::json::{self, Layout, Value, Writer};
use crate::profile::span_attribution;

/// Every bus phase, by its schema name ([`phase_name`]).
const PHASES: [BusPhase; 3] = [BusPhase::ReadOnly, BusPhase::EvictionRead, BusPhase::EvictionWrite];

fn phase_name(p: BusPhase) -> &'static str {
    match p {
        BusPhase::ReadOnly => "read_only",
        BusPhase::EvictionRead => "eviction_read",
        BusPhase::EvictionWrite => "eviction_write",
    }
}

fn write_span(w: &mut Writer, s: &AccessSpan) {
    let a = &s.attr;
    w.object(Layout::COMPACT).field("seq", s.seq).field("real", s.real);
    w.field("arrival", s.arrival).field("start", s.start).field("data_ready", s.data_ready);
    w.field("end", s.end).field("served", s.served.name());
    w.field("forward_index", (s.forward_index != u32::MAX).then_some(s.forward_index));
    w.field("blocks_in_path", s.blocks_in_path).field("stash_live", s.stash_live);
    w.key("attr").object(Layout::COMPACT).field("queue_wait", a.queue_wait);
    w.field("dram_queue", a.dram_queue).field("dram_row", a.dram_row);
    w.field("network", a.network).field("dram_bus", a.dram_bus).field("eviction", a.eviction);
    // The posmap component is omitted when zero so flat-posmap exports
    // stay byte-identical to the pre-recursion schema (the reader treats
    // a missing field as 0).
    if a.posmap > 0 {
        w.field("posmap", a.posmap);
    }
    w.field("forward_saved", a.forward_saved);
    w.field("stash_pull_credit", a.stash_pull_credit).end();
    w.key("phases").array(Layout::COMPACT);
    for p in s.phases() {
        w.object(Layout::COMPACT).field("kind", phase_name(p.kind));
        w.field("start", p.start).field("end", p.end).end();
    }
    w.end().end();
}

/// Reads one span from its JSONL object — the inverse of the exporter,
/// field for field.
fn span_from_json(v: &Value) -> Result<AccessSpan, String> {
    let served: &str = v.at("served")?;
    let served = ServeClass::ALL
        .into_iter()
        .find(|c| c.name() == served)
        .ok_or_else(|| format!("unknown serve class {served:?}"))?;
    let a: &Value = v.at("attr")?;
    let mut span = AccessSpan {
        seq: v.at("seq")?,
        real: v.at("real")?,
        arrival: v.at("arrival")?,
        start: v.at("start")?,
        data_ready: v.at("data_ready")?,
        end: v.at("end")?,
        served,
        forward_index: v.at::<Option<u32>>("forward_index")?.unwrap_or(u32::MAX),
        blocks_in_path: v.at("blocks_in_path")?,
        stash_live: v.at("stash_live")?,
        attr: AccessAttribution {
            queue_wait: a.at("queue_wait")?,
            dram_queue: a.at("dram_queue")?,
            dram_row: a.at("dram_row")?,
            network: a.at("network")?,
            dram_bus: a.at("dram_bus")?,
            eviction: a.at("eviction")?,
            // Optional: absent in pre-recursion exports.
            posmap: a.at_or("posmap", 0)?,
            forward_saved: a.at("forward_saved")?,
            stash_pull_credit: a.at("stash_pull_credit")?,
        },
        phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
        phase_len: 0,
    };
    let phases: &[Value] = v.at("phases")?;
    if phases.len() > SPAN_MAX_PHASES {
        return Err(format!("{} phases exceeds {SPAN_MAX_PHASES}", phases.len()));
    }
    for p in phases {
        let kind: &str = p.at("kind")?;
        let kind = PHASES
            .into_iter()
            .find(|p| phase_name(*p) == kind)
            .ok_or_else(|| format!("unknown phase kind {kind:?}"))?;
        span.push_phase(PhaseSpan { kind, start: p.at("start")?, end: p.at("end")? });
    }
    Ok(span)
}

/// Serializes the ring's spans as JSONL: one self-contained JSON object
/// per line, oldest span first.
pub fn spans_to_jsonl(ring: &Ring<AccessSpan>) -> String {
    let mut w = Writer::new();
    for s in ring.iter() {
        write_span(&mut w, s);
        w.newline();
    }
    w.finish()
}

/// Reads a JSONL export back into its spans, oldest first.
///
/// # Errors
///
/// Names the line and the first missing or mistyped field.
pub fn spans_from_jsonl(text: &str) -> Result<Vec<AccessSpan>, String> {
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            json::parse(line)
                .and_then(|v| span_from_json(&v))
                .map_err(|e| format!("line {}: {e}", i + 1))
        })
        .collect()
}

/// Validates a JSONL export: every line reads back as a span
/// ([`spans_from_jsonl`]), sequence numbers strictly increase,
/// timestamps and phases are ordered, and every span passes the
/// attribution invariant ([`validate_attribution`](crate::validate_attribution)).
/// Returns the number of valid spans.
///
/// # Errors
///
/// Names the line and the first broken rule.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    let spans = spans_from_jsonl(text)?;
    let mut prev_seq: Option<u64> = None;
    for (i, s) in spans.iter().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}", i + 1);
        if prev_seq.is_some_and(|p| s.seq <= p) {
            return Err(at("seq not strictly increasing"));
        }
        prev_seq = Some(s.seq);
        if s.arrival > s.start || s.start > s.end || s.data_ready < s.start {
            return Err(at("timestamps out of order"));
        }
        if s.phases().iter().any(|p| p.start > p.end) {
            return Err(at("phase start after end"));
        }
        span_attribution(s).map_err(|e| at(&e))?;
    }
    Ok(spans.len())
}

/// Thread id used for accesses that occupy the memory system.
const TID_MEMORY: u64 = 1;
/// Thread id used for on-chip serves (zero DRAM phases): they do not
/// occupy the memory pipeline, so they get their own lane to keep the
/// memory lane's begin/end events properly nested.
const TID_ONCHIP: u64 = 2;

/// One timed Chrome event of a memory span, before sorting.
#[derive(Clone, Copy)]
enum Mark {
    Open,
    Phase(BusPhase, &'static str),
    DataReady,
    Close,
}

/// Opens one Chrome event object and writes its common fields; the
/// caller adds any extra fields and closes it.
fn event<'w>(
    w: &'w mut Writer,
    name: &str,
    cat: Option<&str>,
    ph: &str,
    ts: u64,
    tid: u64,
) -> &'w mut Writer {
    w.object(Layout::COMPACT).field("name", name);
    if let Some(cat) = cat {
        w.field("cat", cat);
    }
    w.field("ph", ph).field("ts", ts).field("pid", 0u64).field("tid", tid)
}

/// Serializes the ring's spans in Chrome `trace_event` JSON (the format
/// `chrome://tracing` and Perfetto load directly). Timestamps are CPU
/// cycles reported in the `ts` microsecond field — absolute scale is
/// irrelevant for inspection, ordering and nesting are what matter.
pub fn spans_to_chrome_trace(ring: &Ring<AccessSpan>) -> String {
    let mut w = Writer::new();
    w.object(Layout::COMPACT).key("traceEvents").array(Layout::ROWS);
    for (tid, key, name) in [
        (0, "process_name", "shadow-oram"),
        (TID_MEMORY, "thread_name", "memory system"),
        (TID_ONCHIP, "thread_name", "on-chip serves"),
    ] {
        w.object(Layout::COMPACT).field("name", key).field("ph", "M").field("pid", 0u64);
        w.field("tid", tid).key("args").object(Layout::COMPACT).field("name", name).end().end();
    }
    let mut marks: Vec<(u64, Mark)> = Vec::new();
    for s in ring.iter() {
        let name = format!(
            "{}#{}{}",
            if s.real { "access" } else { "dummy" },
            s.seq,
            if s.served == ServeClass::DramShadow { " (shadow)" } else { "" }
        );
        let class = Some(s.served.name());
        if s.phase_len == 0 {
            // On-chip serve: a zero-duration begin/end pair on its own lane.
            event(&mut w, &name, class, "B", s.start, TID_ONCHIP).end();
            event(&mut w, &name, None, "E", s.start, TID_ONCHIP).end();
            continue;
        }
        // Collect this span's events, then stable-sort by timestamp so
        // the early-forward instant (data_ready precedes the span end)
        // lands between the right phase boundaries and the per-thread
        // timestamp order the validator enforces holds.
        marks.clear();
        marks.push((s.start, Mark::Open));
        for p in s.phases() {
            marks.push((p.start, Mark::Phase(p.kind, "B")));
            marks.push((p.end, Mark::Phase(p.kind, "E")));
        }
        if s.real && s.data_ready >= s.start && s.data_ready <= s.end {
            // Early forwarding shows up as an instant marker inside the span.
            marks.push((s.data_ready, Mark::DataReady));
        }
        marks.push((s.end, Mark::Close));
        marks.sort_by_key(|(ts, _)| *ts);
        for &(ts, mark) in &marks {
            match mark {
                Mark::Open => {
                    event(&mut w, &name, class, "B", ts, TID_MEMORY).key("args");
                    w.object(Layout::COMPACT).field("stash_live", s.stash_live);
                    w.field("blocks_in_path", s.blocks_in_path).end()
                }
                Mark::Phase(kind, ph) => event(&mut w, phase_name(kind), None, ph, ts, TID_MEMORY),
                Mark::DataReady => {
                    event(&mut w, "data_ready", None, "i", ts, TID_MEMORY).field("s", "t")
                }
                Mark::Close => event(&mut w, &name, None, "E", ts, TID_MEMORY),
            }
            .end();
        }
    }
    w.end().end().newline();
    w.finish()
}

/// Validates a Chrome `trace_event` document: parses as JSON, every
/// event carries `name`/`ph`/`pid`/`tid` (+`ts` for timed events), and
/// per thread the `B`/`E` events are balanced, properly nested (an `E`
/// closes the most recent open `B` of the same name) and have monotone
/// non-decreasing timestamps. Returns the number of complete slices.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let doc = json::parse(text)?;
    let events: &[Value] = doc.at("traceEvents")?;
    // tid → (open B name stack, last ts seen)
    let mut threads: std::collections::BTreeMap<u64, (Vec<String>, u64)> =
        std::collections::BTreeMap::new();
    let mut slices = 0usize;
    for (i, e) in events.iter().enumerate() {
        let at = |msg: &str| format!("event {i}: {msg}");
        let name: &str = e.at("name").map_err(|m| at(&m))?;
        let ph: &str = e.at("ph").map_err(|m| at(&m))?;
        let tid: u64 = e.at("tid").map_err(|m| at(&m))?;
        e.at::<u64>("pid").map_err(|m| at(&m))?;
        if ph == "M" {
            continue; // metadata events carry no timestamp
        }
        let ts: u64 = e.at("ts").map_err(|m| at(&m))?;
        let entry = threads.entry(tid).or_insert_with(|| (Vec::new(), 0));
        if ts < entry.1 {
            return Err(at(&format!("ts {ts} before {} on tid {tid}", entry.1)));
        }
        entry.1 = ts;
        match ph {
            "B" => entry.0.push(name.to_string()),
            "E" => {
                let open = entry.0.pop().ok_or_else(|| at("E without open B"))?;
                if open != name {
                    return Err(at(&format!("E {name:?} closes open B {open:?}")));
                }
                slices += 1;
            }
            "i" | "I" => {}
            other => return Err(at(&format!("unsupported phase {other:?}"))),
        }
    }
    for (tid, (stack, _)) in &threads {
        if !stack.is_empty() {
            return Err(format!("tid {tid}: {} unclosed B events {stack:?}", stack.len()));
        }
    }
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oram_util::telemetry::SPAN_MAX_PHASES;
    use oram_util::{AccessAttribution, PhaseSpan};

    fn mem_span(seq: u64, start: u64) -> AccessSpan {
        let mut s = AccessSpan {
            seq,
            real: true,
            arrival: start.saturating_sub(2),
            start,
            data_ready: start + 30,
            end: start + 100,
            served: ServeClass::DramShadow,
            forward_index: 12,
            blocks_in_path: 56,
            stash_live: 40,
            attr: AccessAttribution {
                queue_wait: 2,
                dram_queue: 10,
                dram_row: 15,
                network: 0,
                dram_bus: 35,
                eviction: 40,
                posmap: 0,
                forward_saved: 70,
                stash_pull_credit: 0,
            },
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        };
        s.push_phase(PhaseSpan { kind: BusPhase::ReadOnly, start, end: start + 60 });
        s.push_phase(PhaseSpan {
            kind: BusPhase::EvictionRead,
            start: start + 60,
            end: start + 100,
        });
        s
    }

    fn onchip_span(seq: u64, start: u64) -> AccessSpan {
        AccessSpan {
            seq,
            real: true,
            arrival: start,
            start,
            data_ready: start,
            end: start,
            served: ServeClass::Stash,
            forward_index: u32::MAX,
            blocks_in_path: 0,
            stash_live: 11,
            attr: AccessAttribution::ZERO,
            phases: [PhaseSpan::EMPTY; SPAN_MAX_PHASES],
            phase_len: 0,
        }
    }

    fn ring() -> Ring<AccessSpan> {
        let mut r = Ring::new(16);
        r.push(mem_span(1, 100));
        r.push(onchip_span(2, 150));
        r.push(mem_span(3, 300));
        r
    }

    #[test]
    fn jsonl_roundtrips_through_validator() {
        let text = spans_to_jsonl(&ring());
        assert_eq!(validate_jsonl(&text).unwrap(), 3);
    }

    #[test]
    fn jsonl_validator_rejects_corruption() {
        let good = spans_to_jsonl(&ring());
        // Break the schema in several distinct ways.
        assert!(
            validate_jsonl(&good.replace("\"served\":\"stash\"", "\"served\":\"cache\"")).is_err()
        );
        assert!(validate_jsonl(&good.replace("\"seq\":3", "\"seq\":1")).is_err());
        assert!(validate_jsonl(&good.replacen("\"arrival\":", "\"arival\":", 1)).is_err());
        // One unattributed cycle breaks the exact-sum invariant.
        assert!(validate_jsonl(&good.replace("\"dram_queue\":10", "\"dram_queue\":11"))
            .unwrap_err()
            .contains("sum"));
        // A queue wait disagreeing with start - arrival is rejected.
        assert!(validate_jsonl(&good.replace("\"queue_wait\":2", "\"queue_wait\":3"))
            .unwrap_err()
            .contains("queue_wait"));
        // A duplication credit on the wrong serve class is rejected.
        assert!(validate_jsonl(
            &good.replace("\"stash_pull_credit\":0", "\"stash_pull_credit\":5")
        )
        .is_err());
        assert!(validate_jsonl("not json\n").is_err());
    }

    #[test]
    fn jsonl_emits_posmap_only_when_nonzero() {
        // Flat-posmap spans (posmap == 0) keep the pre-recursion schema.
        assert!(!spans_to_jsonl(&ring()).contains("\"posmap\""));
        let mut s = mem_span(1, 100);
        s.attr.dram_bus = 15;
        s.attr.posmap = 20;
        let mut r = Ring::new(4);
        r.push(s);
        let text = spans_to_jsonl(&r);
        assert!(text.contains("\"posmap\":20"));
        assert_eq!(validate_jsonl(&text).unwrap(), 1);
        // The posmap component participates in the exact-sum invariant.
        assert!(validate_jsonl(&text.replace("\"posmap\":20", "\"posmap\":21"))
            .unwrap_err()
            .contains("sum"));
    }

    #[test]
    fn chrome_trace_roundtrips_through_validator() {
        let text = spans_to_chrome_trace(&ring());
        // 2 memory spans with 2 phases each (3 slices per access) + 1 on-chip.
        assert_eq!(validate_chrome_trace(&text).unwrap(), 7);
    }

    #[test]
    fn chrome_validator_rejects_unbalanced_and_nonmonotone() {
        let no_end = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(no_end).unwrap_err().contains("unclosed"));
        let wrong_close = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1,"pid":0,"tid":1},
            {"name":"b","ph":"E","ts":2,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(wrong_close).is_err());
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5,"pid":0,"tid":1},
            {"name":"a","ph":"E","ts":3,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(backwards).unwrap_err().contains("before"));
        let stray_end = r#"{"traceEvents":[
            {"name":"a","ph":"E","ts":3,"pid":0,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(stray_end).unwrap_err().contains("without open B"));
    }

    #[test]
    fn empty_ring_exports_are_valid() {
        let r = Ring::new(4);
        assert_eq!(validate_jsonl(&spans_to_jsonl(&r)).unwrap(), 0);
        assert_eq!(validate_chrome_trace(&spans_to_chrome_trace(&r)).unwrap(), 0);
    }

    #[test]
    fn narrow_span_fields_reject_out_of_range_values() {
        let good = spans_to_jsonl(&ring());
        for (from, to, key) in [
            ("\"stash_live\":40", "\"stash_live\":4294967336", "stash_live"),
            ("\"blocks_in_path\":56", "\"blocks_in_path\":4294967352", "blocks_in_path"),
            ("\"forward_index\":12", "\"forward_index\":4294967308", "forward_index"),
        ] {
            let err = spans_from_jsonl(&good.replacen(from, to, 1)).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
    }
}
