//! Workload profiles: the parameter set describing one synthetic
//! benchmark's memory behaviour.
//!
//! Each profile abstracts the properties that drive the paper's results:
//! memory intensity (mean compute gap between references), spatial and
//! temporal locality (hot set + stride runs), pointer-chase dependences
//! (which serialize ORAM requests) and phase behaviour (hmmer's periodic
//! miss-interval swings, Fig. 6a).

/// Parameters of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name (matching the paper's figures).
    pub name: String,
    /// Working-set size in 64-byte blocks.
    pub working_set_blocks: u64,
    /// Fraction of references addressed to the hot subset.
    pub hot_access_frac: f64,
    /// Size of the hot subset as a fraction of the working set.
    pub hot_set_frac: f64,
    /// Probability that a reference continues a sequential run (stride-1
    /// spatial locality), as opposed to jumping to a fresh location.
    pub stride_run_prob: f64,
    /// Probability that a reference depends on the previous load's value
    /// (pointer chasing; serializes misses).
    pub pointer_chase_prob: f64,
    /// Fraction of references that are stores.
    pub write_frac: f64,
    /// Mean compute cycles between consecutive references.
    pub mean_gap_cycles: f64,
    /// Coefficient of variation of the gap distribution.
    pub gap_cv: f64,
    /// Phase modulation: period in references (0 disables phases).
    pub phase_period_refs: u64,
    /// Phase modulation: multiplicative swing of the mean gap between
    /// phases (e.g. 4.0 = the slow phase has 4× the gap of the fast one).
    pub phase_gap_swing: f64,
}

impl WorkloadProfile {
    /// A neutral profile useful as a starting point for tests.
    pub fn uniform(name: &str, working_set_blocks: u64, mean_gap_cycles: f64) -> Self {
        WorkloadProfile {
            name: name.to_string(),
            working_set_blocks,
            hot_access_frac: 0.0,
            hot_set_frac: 0.1,
            stride_run_prob: 0.0,
            pointer_chase_prob: 0.0,
            write_frac: 0.3,
            mean_gap_cycles,
            gap_cv: 0.5,
            phase_period_refs: 0,
            phase_gap_swing: 1.0,
        }
    }

    /// Number of blocks in the hot subset (at least 1).
    pub fn hot_set_blocks(&self) -> u64 {
        ((self.working_set_blocks as f64 * self.hot_set_frac) as u64).max(1)
    }

    /// Validates all fractions and sizes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.working_set_blocks == 0 {
            return Err(format!("{}: empty working set", self.name));
        }
        for (label, v) in [
            ("hot_access_frac", self.hot_access_frac),
            ("hot_set_frac", self.hot_set_frac),
            ("stride_run_prob", self.stride_run_prob),
            ("pointer_chase_prob", self.pointer_chase_prob),
            ("write_frac", self.write_frac),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {label} = {v} out of [0,1]", self.name));
            }
        }
        if self.mean_gap_cycles < 0.0 || self.gap_cv < 0.0 {
            return Err(format!("{}: negative gap parameters", self.name));
        }
        if self.phase_gap_swing <= 0.0 {
            return Err(format!("{}: phase swing must be positive", self.name));
        }
        Ok(())
    }

    /// Scales the working set (and hence memory footprint) by `factor`,
    /// used to fit paper-scale workloads onto scaled-down trees.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.working_set_blocks = ((self.working_set_blocks as f64 * factor) as u64).max(16);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profile_validates() {
        WorkloadProfile::uniform("u", 1000, 100.0).validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut p = WorkloadProfile::uniform("bad", 10, 1.0);
        p.write_frac = 1.5;
        assert!(p.validate().is_err());
        let mut p = WorkloadProfile::uniform("bad", 10, 1.0);
        p.phase_gap_swing = 0.0;
        assert!(p.validate().is_err());
        let p = WorkloadProfile::uniform("bad", 0, 1.0);
        assert!(p.validate().is_err());
    }

    #[test]
    fn hot_set_is_never_empty() {
        let mut p = WorkloadProfile::uniform("h", 5, 1.0);
        p.hot_set_frac = 0.01;
        assert_eq!(p.hot_set_blocks(), 1);
    }

    #[test]
    fn scaling_shrinks_working_set() {
        let p = WorkloadProfile::uniform("s", 10_000, 1.0).scaled(0.01);
        assert_eq!(p.working_set_blocks, 100);
        let tiny = WorkloadProfile::uniform("t", 100, 1.0).scaled(0.0001);
        assert_eq!(tiny.working_set_blocks, 16, "floor applies");
    }
}
