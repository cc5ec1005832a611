//! Golden-file tests for the `repro profile` attribution table and the
//! `repro compare` regression report: the rendered forms of a fixed
//! profile pair are committed under `tests/golden/` so any byte-level
//! drift in the human-readable output fails here first.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```text
//! cargo test -p oram-telemetry --test golden_profile regenerate -- --ignored
//! ```

use oram_telemetry::{
    compare_reports, ChannelProfile, PolicyProfile, ProfileMeta, ProfileReport, Report,
    DEFAULT_TOLERANCE,
};

const GOLDEN_PROFILE: &str = include_str!("golden/profile.txt");
const GOLDEN_COMPARE: &str = include_str!("golden/compare.txt");

fn channel(busy: u64, hit: f64, reads: u64, writes: u64) -> ChannelProfile {
    ChannelProfile {
        busy_cycles: busy,
        row_hit_rate: hit,
        reads,
        writes,
        queue_p50: 2,
        queue_max: 9,
    }
}

/// A fixed two-policy profile: a Tiny baseline with zero duplication
/// credit and an RD-Dup run with early-forward savings.
fn golden_report() -> ProfileReport {
    ProfileReport {
        meta: ProfileMeta { workload: "mcf".to_string(), misses: 1000, levels: 12, seed: 7 },
        policies: vec![
            PolicyProfile {
                policy: "tiny".to_string(),
                total_cycles: 2_000_000,
                data_cycles: 800_000,
                dri_cycles: 1_200_000,
                attr_queue: 200_000,
                attr_row: 150_000,
                attr_network: 0,
                attr_bus: 900_000,
                attr_eviction: 650_000,
                attr_posmap: 0,
                plb_hits: 0,
                plb_misses: 0,
                plb_evictions: 0,
                forward_saved: 0,
                stash_pull_credit: 0,
                energy_mj: 1.25,
                channels: vec![
                    channel(700_000, 0.62, 4000, 4100),
                    channel(680_000, 0.6, 3900, 4000),
                ],
                level_reads: vec![0, 0, 120, 240, 480],
                level_writes: vec![40, 80, 160, 320, 640],
            },
            PolicyProfile {
                policy: "rd_dup".to_string(),
                total_cycles: 1_700_000,
                data_cycles: 650_000,
                dri_cycles: 1_050_000,
                attr_queue: 170_000,
                attr_row: 130_000,
                attr_network: 0,
                attr_bus: 780_000,
                attr_eviction: 560_000,
                attr_posmap: 40_000,
                plb_hits: 9_000,
                plb_misses: 600,
                plb_evictions: 180,
                forward_saved: 240_000,
                stash_pull_credit: 0,
                energy_mj: 1.1,
                channels: vec![
                    channel(610_000, 0.64, 3600, 3700),
                    channel(590_000, 0.63, 3500, 3600),
                ],
                level_reads: vec![0, 0, 110, 220, 440],
                level_writes: vec![40, 80, 160, 320, 640],
            },
        ],
    }
}

/// The golden report with a >5% latency and energy regression injected
/// into the baseline policy — what a broken candidate looks like.
fn regressed_report() -> ProfileReport {
    let mut r = golden_report();
    let tiny = &mut r.policies[0];
    tiny.total_cycles = 2_200_000; // +10%
    tiny.dri_cycles = 1_400_000;
    tiny.energy_mj = 1.38;
    tiny.attr_queue = 400_000;
    r
}

#[test]
fn profile_table_matches_golden_file() {
    let got = golden_report().render();
    assert_eq!(
        got, GOLDEN_PROFILE,
        "profile table drifted from tests/golden/profile.txt — if intentional, regenerate \
         with: cargo test -p oram-telemetry --test golden_profile regenerate -- --ignored"
    );
}

#[test]
fn compare_report_matches_golden_file() {
    let outcome = compare_reports(&golden_report(), &regressed_report(), DEFAULT_TOLERANCE)
        .expect("matching meta");
    assert!(!outcome.passed(), "the injected regression must trip the guard");
    assert_eq!(
        outcome.render(),
        GOLDEN_COMPARE,
        "compare report drifted from tests/golden/compare.txt — if intentional, regenerate \
         with: cargo test -p oram-telemetry --test golden_profile regenerate -- --ignored"
    );
}

#[test]
fn golden_profile_json_roundtrips() {
    let report = golden_report();
    let parsed = ProfileReport::parse(&report.to_json()).expect("own JSON parses");
    assert_eq!(parsed.meta, report.meta);
    assert_eq!(parsed.policies.len(), report.policies.len());
    // Byte-identical render proves the roundtrip preserved every field
    // the table shows (floats included, to display precision).
    assert_eq!(parsed.render(), GOLDEN_PROFILE);
}

/// Not a test: rewrites the golden files from the current renderers.
/// Run explicitly (see module docs) after an intentional format change.
#[test]
#[ignore = "regenerates golden files; run explicitly after intentional format changes"]
fn regenerate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("profile.txt"), golden_report().render()).unwrap();
    let outcome = compare_reports(&golden_report(), &regressed_report(), DEFAULT_TOLERANCE)
        .expect("matching meta");
    std::fs::write(dir.join("compare.txt"), outcome.render()).unwrap();
}
