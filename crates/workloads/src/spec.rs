//! SPEC-CPU2006-like synthetic workload profiles.
//!
//! The paper evaluates ten SPEC 2006 benchmarks. The actual suites are
//! licensed and gem5 checkpoints are unavailable, so each benchmark is
//! replaced by a profile calibrated to its well-documented qualitative
//! memory behaviour — the properties the paper's results actually hinge
//! on:
//!
//! | benchmark  | character reproduced |
//! |------------|----------------------|
//! | mcf        | very memory-intensive pointer chasing, poor locality |
//! | libquantum | streaming over a large array, high intensity |
//! | omnetpp    | memory-intensive discrete-event heap churn |
//! | hmmer      | compute-heavy with periodic phase swings (Fig. 6a) |
//! | sjeng      | compute-bound game tree search, long miss intervals |
//! | h264ref    | moderate intensity, strong spatial locality |
//! | namd       | compute-bound molecular dynamics, tiny miss rate |
//! | astar      | pointer-heavy path search, medium intensity |
//! | bzip2      | block-sorting compressor, bursty with good reuse |
//! | gcc        | irregular control/data, medium intensity |
//!
//! Working sets are expressed at "paper scale" (multi-MB) and scaled down
//! by the experiment harness to fit scaled ORAM trees; relative ordering
//! of intensity and locality across benchmarks is what matters.

use crate::profile::WorkloadProfile;

/// Names of the ten workloads, in the order the figures list them.
pub const WORKLOAD_NAMES: [&str; 10] =
    ["mcf", "libquantum", "omnetpp", "hmmer", "sjeng", "h264ref", "namd", "astar", "bzip2", "gcc"];

/// Returns the profile for `name`.
///
/// # Panics
///
/// Panics if `name` is not one of [`WORKLOAD_NAMES`].
pub fn profile(name: &str) -> WorkloadProfile {
    match name {
        "mcf" => WorkloadProfile {
            name: "mcf".into(),
            working_set_blocks: 1 << 21, // 128 MB
            hot_access_frac: 0.25,
            hot_set_frac: 0.02,
            stride_run_prob: 0.05,
            pointer_chase_prob: 0.55,
            write_frac: 0.25,
            mean_gap_cycles: 40.0,
            gap_cv: 0.6,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "libquantum" => WorkloadProfile {
            name: "libquantum".into(),
            working_set_blocks: 1 << 20, // 64 MB
            hot_access_frac: 0.05,
            hot_set_frac: 0.01,
            stride_run_prob: 0.85,
            pointer_chase_prob: 0.02,
            write_frac: 0.45,
            mean_gap_cycles: 35.0,
            gap_cv: 0.3,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "omnetpp" => WorkloadProfile {
            name: "omnetpp".into(),
            working_set_blocks: 1 << 20,
            hot_access_frac: 0.45,
            hot_set_frac: 0.05,
            stride_run_prob: 0.10,
            pointer_chase_prob: 0.40,
            write_frac: 0.35,
            mean_gap_cycles: 60.0,
            gap_cv: 0.8,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "hmmer" => WorkloadProfile {
            name: "hmmer".into(),
            working_set_blocks: 1 << 17, // 8 MB
            hot_access_frac: 0.60,
            hot_set_frac: 0.10,
            stride_run_prob: 0.45,
            pointer_chase_prob: 0.05,
            write_frac: 0.30,
            mean_gap_cycles: 320.0,
            gap_cv: 0.5,
            phase_period_refs: 400,
            phase_gap_swing: 6.0,
        },
        "sjeng" => WorkloadProfile {
            name: "sjeng".into(),
            working_set_blocks: 1 << 18, // 16 MB
            hot_access_frac: 0.50,
            hot_set_frac: 0.08,
            stride_run_prob: 0.10,
            pointer_chase_prob: 0.15,
            write_frac: 0.30,
            mean_gap_cycles: 700.0,
            gap_cv: 0.9,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "h264ref" => WorkloadProfile {
            name: "h264ref".into(),
            working_set_blocks: 1 << 17,
            hot_access_frac: 0.70,
            hot_set_frac: 0.12,
            stride_run_prob: 0.65,
            pointer_chase_prob: 0.03,
            write_frac: 0.35,
            mean_gap_cycles: 260.0,
            gap_cv: 0.5,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "namd" => WorkloadProfile {
            name: "namd".into(),
            working_set_blocks: 1 << 16, // 4 MB
            hot_access_frac: 0.75,
            hot_set_frac: 0.15,
            stride_run_prob: 0.50,
            pointer_chase_prob: 0.02,
            write_frac: 0.25,
            mean_gap_cycles: 900.0,
            gap_cv: 0.4,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "astar" => WorkloadProfile {
            name: "astar".into(),
            working_set_blocks: 1 << 19, // 32 MB
            hot_access_frac: 0.40,
            hot_set_frac: 0.06,
            stride_run_prob: 0.15,
            pointer_chase_prob: 0.45,
            write_frac: 0.30,
            mean_gap_cycles: 160.0,
            gap_cv: 0.7,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        "bzip2" => WorkloadProfile {
            name: "bzip2".into(),
            working_set_blocks: 1 << 18,
            hot_access_frac: 0.55,
            hot_set_frac: 0.10,
            stride_run_prob: 0.55,
            pointer_chase_prob: 0.08,
            write_frac: 0.40,
            mean_gap_cycles: 220.0,
            gap_cv: 1.0,
            phase_period_refs: 800,
            phase_gap_swing: 3.0,
        },
        "gcc" => WorkloadProfile {
            name: "gcc".into(),
            working_set_blocks: 1 << 19,
            hot_access_frac: 0.45,
            hot_set_frac: 0.07,
            stride_run_prob: 0.30,
            pointer_chase_prob: 0.20,
            write_frac: 0.35,
            mean_gap_cycles: 180.0,
            gap_cv: 0.8,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        },
        other => panic!("unknown workload {other:?}"),
    }
}

/// All ten profiles in figure order.
pub fn all_profiles() -> Vec<WorkloadProfile> {
    WORKLOAD_NAMES.iter().map(|n| profile(n)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_profiles_validate() {
        for p in all_profiles() {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn names_match_profiles() {
        for n in WORKLOAD_NAMES {
            assert_eq!(profile(n).name, n);
        }
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_name_panics() {
        profile("doom");
    }

    #[test]
    fn memory_intense_trio_has_smallest_gaps() {
        // The paper singles out mcf, libquantum and omnetpp as the most
        // memory-intensive workloads (Fig. 11 discussion).
        let intense: f64 = ["mcf", "libquantum", "omnetpp"]
            .iter()
            .map(|n| profile(n).mean_gap_cycles)
            .fold(f64::MIN, f64::max);
        let relaxed: f64 = ["sjeng", "namd", "hmmer"]
            .iter()
            .map(|n| profile(n).mean_gap_cycles)
            .fold(f64::MAX, f64::min);
        assert!(intense < relaxed);
    }

    #[test]
    fn hmmer_is_the_phased_workload() {
        assert!(profile("hmmer").phase_period_refs > 0);
        assert!(profile("hmmer").phase_gap_swing > 1.0);
    }

    #[test]
    fn pointer_chasers_are_marked() {
        assert!(profile("mcf").pointer_chase_prob > 0.4);
        assert!(profile("astar").pointer_chase_prob > 0.4);
        assert!(profile("libquantum").pointer_chase_prob < 0.1);
    }
}
