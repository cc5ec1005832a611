//! Configuration of the ORAM controller.

use crate::shadow::DupPolicy;

/// Which position-map organization the controller instantiates.
///
/// Every selection is the one map ([`crate::PosMap`]) with two fronts;
/// this picks its index and its front, and the answers are the same.
/// `Flat` and `Sparse` put the page PLB, which costs nothing, in front of
/// the dense and the hashed index: memory proportional to the address
/// space or to the touched working set. `Recursive` puts the posmap-ORAM
/// chain (Path ORAM recursion) behind its PLB in front of the hashed
/// index; only the top-level map — sized to fit `onchip_kb` — plus the
/// PLB stay on chip, and every PLB miss issues real, costed accesses to
/// the posmap ORAMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PosMapSelect {
    /// On-chip map over the dense index (the default).
    Flat,
    /// On-chip map over the hashed index, for huge domains.
    Sparse,
    /// Recursive posmap-ORAM chain with an on-chip budget in KiB.
    Recursive {
        /// On-chip budget for the terminal (top) map, in KiB.
        onchip_kb: u32,
    },
}

/// Complete configuration of a [`crate::OramController`].
///
/// Defaults follow Table I of the paper scaled to a tree that fits
/// comfortably in host memory (`L = 16`); [`OramConfig::paper_table1`]
/// gives the unscaled parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OramConfig {
    /// Tree depth `L` (leaf level index; the tree has `L + 1` levels).
    pub levels: u32,
    /// Block slots per bucket (`Z`, Table I: 5).
    pub z: usize,
    /// Eviction rate `A`: one eviction (path read + path write) after every
    /// `A − 1` read-only accesses (Table I: 5).
    pub eviction_rate: u32,
    /// Stash capacity in blocks (`M`, ~200 in the literature).
    pub stash_capacity: usize,
    /// Shadow-block duplication policy.
    pub dup_policy: DupPolicy,
    /// Number of root-side tree levels cached on chip (0 disables treetop
    /// caching).
    pub treetop_levels: u32,
    /// PLB entries (pages).
    pub plb_entries: usize,
    /// Consecutive block addresses per PLB page.
    pub plb_page_addrs: u64,
    /// Hot Address Cache geometry: sets.
    pub hot_cache_sets: usize,
    /// Hot Address Cache geometry: ways.
    pub hot_cache_ways: usize,
    /// Seed for label assignment / remapping and dummy-path selection.
    pub seed: u64,
    /// Ablation: offer stash-resident shadows as duplication candidates at
    /// evictions (Sec. V-B2). Disabling kills shadow recirculation, so
    /// shadows die the first time an eviction crosses their bucket.
    pub recirculate_stash_shadows: bool,
    /// Ablation: after duplicating a candidate, lower its effective level
    /// to the new shadow's level so it can keep climbing toward the root
    /// (the paper's Fig. 4 chain). Disabling limits each candidate to one
    /// shadow per path write.
    pub chain_duplication: bool,
    /// Position-map organization (flat array, sparse map, or recursive
    /// posmap-ORAM chain).
    pub posmap: PosMapSelect,
}

impl OramConfig {
    /// A small configuration suitable for unit tests and doc examples.
    pub fn small_test() -> Self {
        OramConfig {
            levels: 7,
            z: 4,
            eviction_rate: 4,
            stash_capacity: 96,
            dup_policy: DupPolicy::Off,
            treetop_levels: 0,
            plb_entries: 64,
            plb_page_addrs: 16,
            hot_cache_sets: 16,
            hot_cache_ways: 2,
            seed: 0xD0E5_11AD,
            recirculate_stash_shadows: true,
            chain_duplication: true,
            posmap: PosMapSelect::Flat,
        }
    }

    /// The paper's Table I configuration (4 GB data ORAM, `L = 24`,
    /// `Z = A = 5`, 64 KB PLB, 1 KB Hot Address Cache).
    ///
    /// Note: materializing this tree takes several GB of host memory; the
    /// experiment harness uses scaled-down trees by default.
    pub fn paper_table1() -> Self {
        OramConfig {
            levels: 24,
            z: 5,
            eviction_rate: 5,
            stash_capacity: 200,
            dup_policy: DupPolicy::Off,
            treetop_levels: 0,
            plb_entries: 1024,
            plb_page_addrs: 16,
            hot_cache_sets: 64,
            hot_cache_ways: 2,
            seed: 0xD0E5_11AD,
            recirculate_stash_shadows: true,
            chain_duplication: true,
            posmap: PosMapSelect::Flat,
        }
    }

    /// Builder-style: sets the position-map organization.
    pub fn with_posmap(mut self, posmap: PosMapSelect) -> Self {
        self.posmap = posmap;
        self
    }

    /// Builder-style: sets the duplication policy.
    pub fn with_dup_policy(mut self, policy: DupPolicy) -> Self {
        self.dup_policy = policy;
        self
    }

    /// Builder-style: sets the number of on-chip treetop levels.
    pub fn with_treetop(mut self, levels: u32) -> Self {
        self.treetop_levels = levels;
        self
    }

    /// Builder-style: sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style: sets the tree depth.
    pub fn with_levels(mut self, levels: u32) -> Self {
        self.levels = levels;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.levels == 0 || self.levels >= 32 {
            return Err(format!("levels must be in 1..32, got {}", self.levels));
        }
        if self.z == 0 {
            return Err("z must be positive".into());
        }
        if self.eviction_rate < 2 {
            return Err("eviction_rate must be at least 2".into());
        }
        if self.stash_capacity < self.z * (self.levels as usize + 1) {
            return Err(format!(
                "stash capacity {} cannot hold one full path of {} blocks",
                self.stash_capacity,
                self.z * (self.levels as usize + 1)
            ));
        }
        if self.treetop_levels > self.levels {
            return Err("treetop_levels exceeds tree depth".into());
        }
        if self.plb_entries == 0 || self.plb_page_addrs == 0 {
            return Err("the PLB needs at least one entry of at least one address".into());
        }
        if let DupPolicy::Dynamic { counter_bits } = self.dup_policy {
            if !(1..=16).contains(&counter_bits) {
                return Err("DRI counter width must be in 1..=16".into());
            }
        }
        if let PosMapSelect::Recursive { onchip_kb } = self.posmap {
            if onchip_kb == 0 {
                return Err("recursive posmap needs a positive on-chip budget".into());
            }
        }
        Ok(())
    }
}

impl Default for OramConfig {
    fn default() -> Self {
        OramConfig::small_test()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        OramConfig::small_test().validate().unwrap();
        OramConfig::paper_table1().validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = OramConfig::small_test();
        c.stash_capacity = 1;
        assert!(c.validate().is_err());

        let mut c = OramConfig::small_test();
        c.eviction_rate = 1;
        assert!(c.validate().is_err());

        let mut c = OramConfig::small_test();
        c.treetop_levels = 99;
        assert!(c.validate().is_err());

        let mut c = OramConfig::small_test();
        c.dup_policy = DupPolicy::Dynamic { counter_bits: 0 };
        assert!(c.validate().is_err());
    }

    #[test]
    fn builder_methods_compose() {
        let c = OramConfig::small_test()
            .with_dup_policy(DupPolicy::RdOnly)
            .with_treetop(3)
            .with_seed(7)
            .with_levels(8);
        assert_eq!(c.dup_policy, DupPolicy::RdOnly);
        assert_eq!(c.treetop_levels, 3);
        assert_eq!(c.seed, 7);
        assert_eq!(c.levels, 8);
        c.validate().unwrap();
    }
}
