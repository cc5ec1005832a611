//! The trace generator: turns a [`WorkloadProfile`] into a stream of
//! memory references ([`MemRef`]s) with the profile's locality, dependence
//! and phase structure.

use oram_cpu::{MemRef, RefStream};
use oram_util::Rng64;

use crate::profile::WorkloadProfile;

/// Pseudo-random reference stream for one workload profile.
///
/// The generator is deterministic given `(profile, seed)`, so experiments
/// are reproducible and baseline/optimized controllers can be driven with
/// bit-identical traces.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: Rng64,
    emitted: u64,
    limit: u64,
    /// Current position of the sequential-run cursor.
    run_cursor: u64,
    /// References remaining in the current sequential run.
    run_left: u32,
}

impl TraceGenerator {
    /// Creates a generator producing at most `limit` references.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation.
    pub fn new(profile: WorkloadProfile, seed: u64, limit: u64) -> Self {
        profile.validate().expect("profile must be valid");
        TraceGenerator {
            rng: Rng64::seed_from_u64(seed ^ 0xABCD_EF01_2345_6789),
            emitted: 0,
            limit,
            run_cursor: 0,
            run_left: 0,
            profile,
        }
    }

    /// The profile being generated.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// References emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Draws a compute gap from a log-normal-ish distribution with the
    /// profile's mean (phase-modulated) and CV.
    fn draw_gap(&mut self) -> u32 {
        let p = &self.profile;
        let mut mean = p.mean_gap_cycles;
        if p.phase_period_refs > 0 {
            // Square-wave phases: half the period fast, half slow, with the
            // configured swing around the base mean.
            let phase = (self.emitted / (p.phase_period_refs / 2).max(1)) % 2;
            mean = if phase == 0 {
                p.mean_gap_cycles / p.phase_gap_swing.sqrt()
            } else {
                p.mean_gap_cycles * p.phase_gap_swing.sqrt()
            };
        }
        if mean <= 0.0 {
            return 0;
        }
        // Sum of two uniforms approximates a unimodal distribution; scale
        // to the target mean and CV without pulling in a stats crate.
        let u: f64 = (self.rng.next_f64() + self.rng.next_f64()) / 2.0; // mean 0.5
        let spread = p.gap_cv.min(1.0);
        let factor = 1.0 + spread * (2.0 * u - 1.0) * 1.7;
        (mean * factor).max(0.0) as u32
    }

    /// Draws the next block address with the hot/stride structure.
    fn draw_addr(&mut self) -> u64 {
        let p = &self.profile;
        // Continue a sequential run if one is active.
        if self.run_left > 0 {
            self.run_left -= 1;
            self.run_cursor = (self.run_cursor + 1) % p.working_set_blocks;
            return self.run_cursor;
        }
        let hot = self.rng.gen_bool(p.hot_access_frac);
        let addr = if hot {
            self.rng.below(p.hot_set_blocks())
        } else {
            self.rng.below(p.working_set_blocks)
        };
        // Possibly begin a new sequential run from here.
        if self.rng.gen_bool(p.stride_run_prob) {
            self.run_left = self.rng.range_inclusive(2, 16) as u32;
            self.run_cursor = addr;
        }
        addr
    }
}

impl RefStream for TraceGenerator {
    fn next_ref(&mut self) -> Option<MemRef> {
        if self.emitted >= self.limit {
            return None;
        }
        let gap = self.draw_gap();
        let addr = self.draw_addr();
        let is_write = self.rng.gen_bool(self.profile.write_frac);
        let depends = self.rng.gen_bool(self.profile.pointer_chase_prob);
        self.emitted += 1;
        Some(MemRef { block_addr: addr, is_write, gap_cycles: gap, depends_on_prev: depends })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(profile: WorkloadProfile, seed: u64, n: u64) -> Vec<MemRef> {
        let mut g = TraceGenerator::new(profile, seed, n);
        std::iter::from_fn(|| g.next_ref()).collect()
    }

    #[test]
    fn respects_limit_and_working_set() {
        let p = WorkloadProfile::uniform("u", 500, 50.0);
        let refs = collect(p, 1, 1000);
        assert_eq!(refs.len(), 1000);
        assert!(refs.iter().all(|r| r.block_addr < 500));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = WorkloadProfile::uniform("u", 100, 10.0);
        assert_eq!(collect(p.clone(), 42, 200), collect(p, 42, 200));
    }

    #[test]
    fn different_seeds_differ() {
        let p = WorkloadProfile::uniform("u", 100, 10.0);
        assert_ne!(collect(p.clone(), 1, 200), collect(p, 2, 200));
    }

    #[test]
    fn mean_gap_approximates_target() {
        let p = WorkloadProfile::uniform("u", 100, 200.0);
        let refs = collect(p, 3, 5000);
        let mean: f64 =
            refs.iter().map(|r| f64::from(r.gap_cycles)).sum::<f64>() / refs.len() as f64;
        assert!((mean - 200.0).abs() < 20.0, "mean gap {mean}");
    }

    #[test]
    fn hot_fraction_concentrates_accesses() {
        let mut p = WorkloadProfile::uniform("h", 1000, 1.0);
        p.hot_access_frac = 0.9;
        p.hot_set_frac = 0.01; // 10 hot blocks
        let refs = collect(p, 4, 5000);
        let hot_hits = refs.iter().filter(|r| r.block_addr < 10).count();
        let frac = hot_hits as f64 / refs.len() as f64;
        assert!(frac > 0.85, "hot fraction {frac}");
    }

    #[test]
    fn stride_runs_produce_sequential_pairs() {
        let mut p = WorkloadProfile::uniform("s", 10_000, 1.0);
        p.stride_run_prob = 0.8;
        let refs = collect(p, 5, 2000);
        let sequential = refs.windows(2).filter(|w| w[1].block_addr == w[0].block_addr + 1).count();
        assert!(sequential as f64 / refs.len() as f64 > 0.4, "sequential pairs {sequential}");
    }

    #[test]
    fn write_fraction_approximates_target() {
        let mut p = WorkloadProfile::uniform("w", 100, 1.0);
        p.write_frac = 0.25;
        let refs = collect(p, 6, 4000);
        let frac = refs.iter().filter(|r| r.is_write).count() as f64 / refs.len() as f64;
        assert!((frac - 0.25).abs() < 0.05, "write frac {frac}");
    }

    #[test]
    fn phases_modulate_gaps() {
        let mut p = WorkloadProfile::uniform("ph", 100, 100.0);
        p.phase_period_refs = 1000;
        p.phase_gap_swing = 9.0; // 3x down then 3x up
        let refs = collect(p, 7, 2000);
        let first_half: f64 =
            refs[..500].iter().map(|r| f64::from(r.gap_cycles)).sum::<f64>() / 500.0;
        let second_half: f64 =
            refs[500..1000].iter().map(|r| f64::from(r.gap_cycles)).sum::<f64>() / 500.0;
        assert!(
            second_half > 2.0 * first_half,
            "phases should swing: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn pointer_chase_flags_appear() {
        let mut p = WorkloadProfile::uniform("pc", 100, 1.0);
        p.pointer_chase_prob = 0.5;
        let refs = collect(p, 8, 1000);
        let frac = refs.iter().filter(|r| r.depends_on_prev).count() as f64 / refs.len() as f64;
        assert!((frac - 0.5).abs() < 0.08, "chase frac {frac}");
    }
}
