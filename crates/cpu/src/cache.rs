//! Generic set-associative, write-back/write-allocate cache with LRU
//! replacement — the building block for the L1/L2 hierarchy.

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAccess {
    /// The line was present.
    Hit,
    /// The line was absent; it has been allocated. If the victim line was
    /// dirty, its block address is returned for write-back.
    Miss {
        /// Dirty victim evicted by the fill, if any (block address).
        writeback: Option<u64>,
    },
}

impl CacheAccess {
    /// Returns `true` for hits.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheAccess::Hit)
    }
}

/// Hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Dirty write-backs produced.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate in `[0, 1]`; 0 when no accesses happened.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU timestamp: larger = more recent; 0 marks an empty way (the
    /// clock is 1 at the first access).
    lru: u64,
}

impl Line {
    const EMPTY: Line = Line { tag: 0, dirty: false, lru: 0 };

    fn holds(&self, tag: u64) -> bool {
        self.lru != 0 && self.tag == tag
    }
}

/// Block address → `(set, tag)`: a mask and a shift when the set count is
/// a power of two (every Table I cache), the exact `%` and `/` otherwise.
/// (`oram_util::Digit` is the same decode; this crate has no dependencies
/// and the benchmark's committed lock file records that.)
#[derive(Debug, Clone, Copy)]
struct SetIndex {
    sets: u64,
    /// `log2(sets)` when `sets` is a power of two.
    shift: Option<u32>,
}

impl SetIndex {
    fn new(sets: usize) -> Self {
        let sets = sets as u64;
        SetIndex { sets, shift: sets.is_power_of_two().then(|| sets.trailing_zeros()) }
    }

    #[inline]
    fn split(self, block_addr: u64) -> (u64, u64) {
        match self.shift {
            Some(shift) => (block_addr & (self.sets - 1), block_addr >> shift),
            None => (block_addr % self.sets, block_addr / self.sets),
        }
    }
}

/// A set-associative cache over 64-byte lines, addressed by *block*
/// address (byte address / 64).
///
/// ```
/// use oram_cpu::{Cache, CacheAccess};
/// let mut c = Cache::new(4 * 1024, 2); // 4 KB, 2-way
/// assert!(!c.access(7, false).is_hit());
/// assert!(c.access(7, false).is_hit());
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// Way `w` of set `s` at `s · ways + w`.
    lines: Vec<Line>,
    sets: SetIndex,
    ways: usize,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_bytes` capacity and `ways` associativity
    /// with 64-byte lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets or ways, or size
    /// not a multiple of `64 * ways`).
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            size_bytes.is_multiple_of(64 * ways) && size_bytes > 0,
            "size must be a positive multiple of 64 * ways"
        );
        let sets = size_bytes / (64 * ways);
        Cache {
            lines: vec![Line::EMPTY; sets * ways],
            sets: SetIndex::new(sets),
            ways,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.sets as usize
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Accesses `block_addr`; `write` marks the line dirty on hit or fill.
    pub fn access(&mut self, block_addr: u64, write: bool) -> CacheAccess {
        self.clock += 1;
        let (set_ix, tag) = self.sets.split(block_addr);
        let clock = self.clock;
        let set = &mut self.lines[set_ix as usize * self.ways..][..self.ways];

        if let Some(line) = set.iter_mut().find(|l| l.holds(tag)) {
            line.lru = clock;
            line.dirty |= write;
            self.stats.hits += 1;
            return CacheAccess::Hit;
        }

        self.stats.misses += 1;
        // Least recently used way; an empty one (stamp 0) always wins.
        let victim = set.iter_mut().min_by_key(|l| l.lru).expect("ways > 0");
        let mut writeback = None;
        if victim.lru != 0 && victim.dirty {
            writeback = Some(victim.tag * self.sets.sets + set_ix);
            self.stats.writebacks += 1;
        }
        *victim = Line { tag, dirty: write, lru: clock };
        CacheAccess::Miss { writeback }
    }

    /// Returns `true` if `block_addr` is resident (no LRU update).
    pub fn contains(&self, block_addr: u64) -> bool {
        let (set_ix, tag) = self.sets.split(block_addr);
        self.lines[set_ix as usize * self.ways..][..self.ways].iter().any(|l| l.holds(tag))
    }

    /// Invalidates everything, keeping statistics.
    pub fn flush(&mut self) {
        self.lines.fill(Line::EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_hit_miss() {
        let mut c = Cache::new(64 * 8, 2); // 8 lines, 4 sets x 2 ways
        assert!(!c.access(1, false).is_hit());
        assert!(c.access(1, false).is_hit());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(64 * 2, 2); // 1 set, 2 ways
        c.access(0, false);
        c.access(1, false);
        c.access(0, false); // 0 now MRU
        c.access(2, false); // evicts 1
        assert!(c.contains(0));
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn dirty_victim_produces_writeback() {
        let mut c = Cache::new(64 * 2, 2); // 1 set, 2 ways
        c.access(0, true); // dirty
        c.access(1, false);
        let out = c.access(2, false); // evicts 0 (LRU, dirty)
        assert_eq!(out, CacheAccess::Miss { writeback: Some(0) });
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_victim_no_writeback() {
        let mut c = Cache::new(64 * 2, 2);
        c.access(0, false);
        c.access(1, false);
        let out = c.access(2, false);
        assert_eq!(out, CacheAccess::Miss { writeback: None });
    }

    #[test]
    fn writeback_reconstructs_correct_address() {
        let mut c = Cache::new(64 * 8, 2); // 4 sets
                                           // Block addresses 3, 7, 11 all map to set 3.
        c.access(3, true);
        c.access(7, false);
        let out = c.access(11, false);
        assert_eq!(out, CacheAccess::Miss { writeback: Some(3) });
    }

    #[test]
    fn hit_marks_dirty_for_later_writeback() {
        let mut c = Cache::new(64 * 2, 2);
        c.access(0, false);
        c.access(0, true); // becomes dirty via hit
        c.access(1, false);
        let out = c.access(2, false);
        assert_eq!(out, CacheAccess::Miss { writeback: Some(0) });
    }

    #[test]
    fn flush_clears_contents() {
        let mut c = Cache::new(64 * 4, 2);
        c.access(5, false);
        c.flush();
        assert!(!c.contains(5));
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = Cache::new(64 * 64, 4); // 64 lines
        for round in 0..3 {
            for a in 0..32u64 {
                let hit = c.access(a, false).is_hit();
                if round > 0 {
                    assert!(hit, "addr {a} round {round} should hit");
                }
            }
        }
    }

    /// The per-set `Vec` cache this one replaced (push until full, then
    /// `swap_remove` the LRU way), kept as the oracle: way order inside a
    /// set differs, outcomes must not.
    struct SetVecCache {
        sets: Vec<Vec<Line>>,
        ways: usize,
        clock: u64,
    }

    impl SetVecCache {
        fn access(&mut self, block_addr: u64, write: bool) -> CacheAccess {
            self.clock += 1;
            let set_count = self.sets.len() as u64;
            let (set_ix, tag) = ((block_addr % set_count) as usize, block_addr / set_count);
            let set = &mut self.sets[set_ix];
            if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
                line.lru = self.clock;
                line.dirty |= write;
                return CacheAccess::Hit;
            }
            let mut writeback = None;
            if set.len() >= self.ways {
                let victim_ix = (0..set.len()).min_by_key(|&i| set[i].lru).unwrap();
                let victim = set.swap_remove(victim_ix);
                if victim.dirty {
                    writeback = Some(victim.tag * set_count + set_ix as u64);
                }
            }
            set.push(Line { tag, dirty: write, lru: self.clock });
            CacheAccess::Miss { writeback }
        }
    }

    #[test]
    fn flat_store_matches_the_per_set_vec_cache() {
        let mut rng = oram_util::Rng64::seed_from_u64(0xCAC4E);
        // Power-of-two and odd set counts, 1 to 8 ways, tag 0 included.
        for (sets, ways) in [(1usize, 1usize), (4, 2), (16, 8), (3, 2), (12, 4)] {
            let mut flat = Cache::new(64 * sets * ways, ways);
            assert_eq!((flat.set_count(), flat.ways()), (sets, ways));
            let mut oracle = SetVecCache { sets: vec![Vec::new(); sets], ways, clock: 0 };
            let span = (sets * ways * 3) as u64;
            for step in 0..20_000 {
                let (addr, write) = (rng.below(span), rng.below(4) == 0);
                assert_eq!(
                    flat.access(addr, write),
                    oracle.access(addr, write),
                    "{sets}x{ways} step {step} addr {addr}"
                );
            }
            for addr in 0..span {
                let resident =
                    oracle.sets[addr as usize % sets].iter().any(|l| l.tag == addr / sets as u64);
                assert_eq!(flat.contains(addr), resident, "{sets}x{ways} addr {addr}");
            }
        }
    }

    #[test]
    fn miss_rate_calculation() {
        let mut c = Cache::new(64 * 4, 2);
        c.access(0, false);
        c.access(0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-9);
    }
}
