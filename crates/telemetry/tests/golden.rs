//! Golden-file tests for the span exporters: the serialized forms of a
//! fixed span set are committed under `tests/golden/` and any byte-level
//! drift in the JSONL schema or the Chrome `trace_event` layout fails
//! here first, before downstream consumers notice.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test -p oram-telemetry --test golden regenerate -- --ignored
//! ```

use oram_telemetry::export::{
    spans_to_chrome_trace, spans_to_jsonl, validate_chrome_trace, validate_jsonl,
};
use oram_util::observe::BusPhase;
use oram_util::telemetry::SPAN_MAX_PHASES;
use oram_util::{AccessAttribution, AccessSpan, PhaseSpan, Ring, ServeClass};

const GOLDEN_JSONL: &str = include_str!("golden/spans.jsonl");
const GOLDEN_CHROME: &str = include_str!("golden/trace.json");

/// A fixed, fully deterministic span set covering every interesting
/// shape: an on-chip stash hit, a DRAM read with an early shadow
/// forward, a full eviction access with all three phases, and a dummy.
fn golden_ring() -> Ring<AccessSpan> {
    let mut ring = Ring::new(16);
    let empty = [PhaseSpan::EMPTY; SPAN_MAX_PHASES];

    // On-chip stash hit: no memory phases, zero-latency data.
    ring.push(AccessSpan {
        seq: 0,
        real: true,
        arrival: 100,
        start: 100,
        data_ready: 100,
        end: 100,
        served: ServeClass::Stash,
        forward_index: u32::MAX,
        blocks_in_path: 0,
        stash_live: 7,
        attr: AccessAttribution { stash_pull_credit: 450, ..AccessAttribution::ZERO },
        phases: empty,
        phase_len: 0,
    });

    // Path read served early by an RD-Dup shadow at position 3 of 33.
    let mut shadow = AccessSpan {
        seq: 1,
        real: true,
        arrival: 120,
        start: 140,
        data_ready: 520,
        end: 900,
        served: ServeClass::DramShadow,
        forward_index: 3,
        blocks_in_path: 33,
        stash_live: 9,
        attr: AccessAttribution {
            queue_wait: 20,
            dram_queue: 100,
            dram_row: 200,
            network: 50,
            dram_bus: 410,
            eviction: 0,
            posmap: 0,
            forward_saved: 380,
            stash_pull_credit: 0,
        },
        phases: empty,
        phase_len: 0,
    };
    shadow.push_phase(PhaseSpan { kind: BusPhase::ReadOnly, start: 140, end: 900 });
    ring.push(shadow);

    // Eviction access: read-only, then the eviction read/write halves.
    let mut evict = AccessSpan {
        seq: 2,
        real: true,
        arrival: 900,
        start: 950,
        data_ready: 1400,
        end: 2600,
        served: ServeClass::DramReal,
        forward_index: 32,
        blocks_in_path: 33,
        stash_live: 12,
        attr: AccessAttribution {
            queue_wait: 50,
            dram_queue: 60,
            dram_row: 120,
            network: 0,
            dram_bus: 320,
            eviction: 1150,
            posmap: 0,
            forward_saved: 0,
            stash_pull_credit: 0,
        },
        phases: empty,
        phase_len: 0,
    };
    evict.push_phase(PhaseSpan { kind: BusPhase::ReadOnly, start: 950, end: 1450 });
    evict.push_phase(PhaseSpan { kind: BusPhase::EvictionRead, start: 1450, end: 2000 });
    evict.push_phase(PhaseSpan { kind: BusPhase::EvictionWrite, start: 2000, end: 2600 });
    ring.push(evict);

    // Timing-protection dummy.
    let mut dummy = AccessSpan {
        seq: 3,
        real: false,
        arrival: 2600,
        start: 2600,
        data_ready: 3000,
        end: 3100,
        served: ServeClass::Dummy,
        forward_index: u32::MAX,
        blocks_in_path: 0,
        stash_live: 12,
        attr: AccessAttribution {
            queue_wait: 0,
            dram_queue: 50,
            dram_row: 90,
            network: 0,
            dram_bus: 360,
            eviction: 0,
            posmap: 0,
            forward_saved: 0,
            stash_pull_credit: 0,
        },
        phases: empty,
        phase_len: 0,
    };
    dummy.push_phase(PhaseSpan { kind: BusPhase::ReadOnly, start: 2600, end: 3100 });
    ring.push(dummy);

    ring
}

#[test]
fn jsonl_matches_golden_file() {
    let got = spans_to_jsonl(&golden_ring());
    assert_eq!(
        got, GOLDEN_JSONL,
        "JSONL schema drifted from tests/golden/spans.jsonl — if intentional, \
         regenerate with: cargo test -p oram-telemetry --test golden regenerate -- --ignored"
    );
}

#[test]
fn chrome_trace_matches_golden_file() {
    let got = spans_to_chrome_trace(&golden_ring());
    assert_eq!(
        got, GOLDEN_CHROME,
        "Chrome trace layout drifted from tests/golden/trace.json — if intentional, \
         regenerate with: cargo test -p oram-telemetry --test golden regenerate -- --ignored"
    );
}

#[test]
fn golden_files_pass_their_own_validators() {
    assert_eq!(validate_jsonl(GOLDEN_JSONL).expect("golden JSONL valid"), 4);
    assert!(validate_chrome_trace(GOLDEN_CHROME).expect("golden trace valid") >= 4);
}

#[test]
fn validators_reject_corrupted_goldens() {
    // Drop a required field from every JSONL line.
    let broken = GOLDEN_JSONL.replace("\"served\":", "\"serbed\":");
    assert!(validate_jsonl(&broken).is_err(), "missing field must fail");
    // Unbalance the Chrome trace by turning an end event into a begin.
    let broken = GOLDEN_CHROME.replacen("\"ph\":\"E\"", "\"ph\":\"B\"", 1);
    assert!(validate_chrome_trace(&broken).is_err(), "unbalanced B/E must fail");
}

/// Not a test: rewrites the golden files from the current serializers.
/// Run explicitly (see module docs) after an intentional format change.
#[test]
#[ignore = "regenerates golden files; run explicitly after intentional format changes"]
fn regenerate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("spans.jsonl"), spans_to_jsonl(&golden_ring())).unwrap();
    std::fs::write(dir.join("trace.json"), spans_to_chrome_trace(&golden_ring())).unwrap();
}
