//! Hot Address Cache: the set-associative access-counter cache that drives
//! HD-Dup (paper Sec. V-B1).
//!
//! The cache stores program addresses observed at LLC misses (reads and
//! writes) together with a hit counter. Replacement is Least Frequently
//! Used. HD-Dup consults it to pick the hottest duplication candidate; an
//! address absent from the cache has priority zero.

use crate::types::BlockAddr;
use oram_util::Digit;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: BlockAddr,
    count: u64,
}

/// Statistics for the Hot Address Cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HotCacheStats {
    /// Observations that incremented an existing line.
    pub hits: u64,
    /// Observations that allocated (or failed to allocate) a line.
    pub misses: u64,
    /// Lines evicted by LFU replacement.
    pub evictions: u64,
}

/// Set-associative, LFU-replaced cache of per-address access counters.
///
/// ```
/// use oram_protocol::{HotAddressCache, BlockAddr};
/// let mut hac = HotAddressCache::new(4, 2);
/// hac.observe(BlockAddr::new(1));
/// hac.observe(BlockAddr::new(1));
/// assert_eq!(hac.priority(BlockAddr::new(1)), 2);
/// assert_eq!(hac.priority(BlockAddr::new(9)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct HotAddressCache {
    /// Way `w` of set `s` at `s · ways + w`; empty when disabled.
    lines: Vec<Option<Line>>,
    sets: Digit,
    ways: usize,
    stats: HotCacheStats,
}

impl HotAddressCache {
    /// Creates a cache with `sets` sets of `ways` ways. The paper's 1 KB
    /// cache corresponds to roughly 64 sets × 2 ways of 8-byte lines.
    ///
    /// A zero in either dimension builds a *disabled* cache: observations
    /// are ignored and every address has priority zero, which degrades
    /// HD-Dup to an arbitrary (but still valid) candidate choice — the
    /// paper's system without its Hot Address Cache.
    pub fn new(sets: usize, ways: usize) -> Self {
        let sets = if ways == 0 { 0 } else { sets };
        HotAddressCache {
            lines: vec![None; sets * ways],
            sets: Digit::new(sets),
            ways,
            stats: HotCacheStats::default(),
        }
    }

    /// `false` when the cache was built with zero sets or ways.
    pub fn is_enabled(&self) -> bool {
        !self.lines.is_empty()
    }

    /// Number of sets.
    pub fn set_count(&self) -> usize {
        self.sets.size() as usize
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> HotCacheStats {
        self.stats
    }

    /// Index of way 0 of the set `addr` maps to.
    fn set_base(&self, addr: BlockAddr) -> usize {
        self.sets.peel(addr.raw()).0 as usize * self.ways
    }

    /// Records one LLC-miss observation of `addr`, incrementing its counter
    /// (allocating a line via LFU replacement if absent). A no-op when
    /// the cache is disabled. Returns the address whose line went to
    /// `addr`, if one did: its priority fell to zero. No other address's
    /// priority changed.
    pub fn observe(&mut self, addr: BlockAddr) -> Option<BlockAddr> {
        if self.lines.is_empty() {
            return None;
        }
        let base = self.set_base(addr);
        let lines = &mut self.lines[base..base + self.ways];

        if let Some(line) = lines.iter_mut().flatten().find(|l| l.tag == addr) {
            line.count += 1;
            self.stats.hits += 1;
            return None;
        }
        self.stats.misses += 1;

        if let Some(slot) = lines.iter_mut().find(|l| l.is_none()) {
            *slot = Some(Line { tag: addr, count: 1 });
            return None;
        }

        // LFU: evict the line with the smallest counter; a new line starts
        // at 1 so a single-touch newcomer cannot immediately displace a
        // genuinely hot line with count > 1.
        let victim =
            lines.iter_mut().min_by_key(|l| l.as_ref().map_or(0, |x| x.count)).expect("ways > 0");
        if victim.as_ref().map_or(0, |x| x.count) > 1 {
            // The newcomer is not allocated — classic LFU insertion filter
            // that keeps thrash streams from flushing the hot set.
            return None;
        }
        let evicted = victim.replace(Line { tag: addr, count: 1 }).map(|l| l.tag);
        self.stats.evictions += 1;
        evicted
    }

    /// Duplication priority of `addr`: its access counter, or zero when
    /// the address is not cached (paper Sec. IV-C2) or the cache is
    /// disabled.
    pub fn priority(&self, addr: BlockAddr) -> u64 {
        if self.lines.is_empty() {
            return 0;
        }
        let base = self.set_base(addr);
        self.lines[base..base + self.ways]
            .iter()
            .flatten()
            .find(|l| l.tag == addr)
            .map_or(0, |l| l.count)
    }

    /// Clears all lines and statistics.
    pub fn reset(&mut self) {
        self.lines.fill(None);
        self.stats = HotCacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate() {
        let mut c = HotAddressCache::new(8, 2);
        for _ in 0..5 {
            c.observe(BlockAddr::new(3));
        }
        assert_eq!(c.priority(BlockAddr::new(3)), 5);
        assert_eq!(c.stats().hits, 4);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn absent_address_has_zero_priority() {
        let c = HotAddressCache::new(8, 2);
        assert_eq!(c.priority(BlockAddr::new(42)), 0);
    }

    #[test]
    fn lfu_protects_hot_lines() {
        // One set, one way: addr 1 becomes hot, then a cold stream passes.
        let mut c = HotAddressCache::new(1, 1);
        for _ in 0..10 {
            c.observe(BlockAddr::new(1));
        }
        for a in 2..20u64 {
            c.observe(BlockAddr::new(a));
        }
        assert_eq!(c.priority(BlockAddr::new(1)), 10, "hot line survived");
    }

    #[test]
    fn single_touch_lines_are_replaceable() {
        let mut c = HotAddressCache::new(1, 1);
        assert_eq!(c.observe(BlockAddr::new(1)), None); // count 1
                                                        // Displaces the count-1 line, and says whose it was.
        assert_eq!(c.observe(BlockAddr::new(2)), Some(BlockAddr::new(1)));
        assert_eq!(c.priority(BlockAddr::new(1)), 0);
        assert_eq!(c.priority(BlockAddr::new(2)), 1);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn sets_isolate_addresses() {
        let mut c = HotAddressCache::new(2, 1);
        c.observe(BlockAddr::new(0)); // set 0
        c.observe(BlockAddr::new(1)); // set 1
        assert_eq!(c.priority(BlockAddr::new(0)), 1);
        assert_eq!(c.priority(BlockAddr::new(1)), 1);
    }

    #[test]
    fn capacity_pressure_evicts_only_replaceable_lines() {
        // One set under heavy pressure: two genuinely hot lines and a
        // stream of cold aliases fighting for 2 ways.
        let mut c = HotAddressCache::new(1, 2);
        for _ in 0..6 {
            c.observe(BlockAddr::new(1));
            c.observe(BlockAddr::new(2));
        }
        let evictions_before = c.stats().evictions;
        for a in 100..130u64 {
            c.observe(BlockAddr::new(a));
        }
        // The insertion filter refuses to displace count>1 lines, so the
        // hot pair survives the flood and nothing was evicted.
        assert_eq!(c.priority(BlockAddr::new(1)), 6);
        assert_eq!(c.priority(BlockAddr::new(2)), 6);
        assert_eq!(c.stats().evictions, evictions_before);
        // Once a hot line cools relative to a newcomer's first touch,
        // pressure does displace it: rebuild with a count-1 resident.
        let mut c = HotAddressCache::new(1, 1);
        c.observe(BlockAddr::new(7));
        c.observe(BlockAddr::new(8));
        assert_eq!(c.priority(BlockAddr::new(7)), 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn aliased_addresses_are_tracked_independently() {
        // addr and addr + sets land in the same set; counters must not
        // bleed between them.
        let sets = 4u64;
        let mut c = HotAddressCache::new(sets as usize, 2);
        for _ in 0..3 {
            c.observe(BlockAddr::new(5));
        }
        c.observe(BlockAddr::new(5 + sets));
        assert_eq!(c.priority(BlockAddr::new(5)), 3);
        assert_eq!(c.priority(BlockAddr::new(5 + sets)), 1);
    }

    #[test]
    fn disabled_cache_is_inert() {
        for (sets, ways) in [(0usize, 2usize), (16, 0), (0, 0)] {
            let mut c = HotAddressCache::new(sets, ways);
            assert!(!c.is_enabled());
            c.observe(BlockAddr::new(1));
            c.observe(BlockAddr::new(1));
            assert_eq!(c.priority(BlockAddr::new(1)), 0);
            assert_eq!(c.stats(), HotCacheStats::default());
            c.reset();
            assert_eq!(c.set_count(), 0);
        }
        assert!(HotAddressCache::new(4, 2).is_enabled());
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = HotAddressCache::new(4, 2);
        c.observe(BlockAddr::new(9));
        c.reset();
        assert_eq!(c.priority(BlockAddr::new(9)), 0);
        assert_eq!(c.stats(), HotCacheStats::default());
    }
}
