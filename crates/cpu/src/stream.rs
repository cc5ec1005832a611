//! Memory-reference and LLC-miss stream abstractions.
//!
//! Workload generators produce [`MemRef`]s; the cache hierarchy filters
//! them into [`MissRecord`]s — the only thing the ORAM subsystem ever
//! sees. The simulator is trace-driven at this boundary.

/// One memory reference as issued by the core (before any cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// 64-byte block address.
    pub block_addr: u64,
    /// `true` for stores.
    pub is_write: bool,
    /// Compute cycles the core spends *before* issuing this reference.
    pub gap_cycles: u32,
    /// `true` if this reference's address depends on the previous
    /// reference's data (pointer chase): it cannot issue until the
    /// previous load returns.
    pub depends_on_prev: bool,
}

impl MemRef {
    /// A simple independent read after `gap` compute cycles.
    pub fn read(block_addr: u64, gap: u32) -> Self {
        MemRef { block_addr, is_write: false, gap_cycles: gap, depends_on_prev: false }
    }

    /// A simple independent write after `gap` compute cycles.
    pub fn write(block_addr: u64, gap: u32) -> Self {
        MemRef { block_addr, is_write: true, gap_cycles: gap, depends_on_prev: false }
    }
}

/// A stream of memory references.
///
/// Implementors are ordinary iterators with a known (possibly infinite)
/// character; the trait exists so generators and recorded traces can be
/// used interchangeably.
pub trait RefStream {
    /// Returns the next reference, or `None` when the trace ends.
    fn next_ref(&mut self) -> Option<MemRef>;
}

impl<I: Iterator<Item = MemRef>> RefStream for I {
    fn next_ref(&mut self) -> Option<MemRef> {
        self.next()
    }
}

/// One LLC miss as seen by the memory (ORAM) subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MissRecord {
    /// 64-byte block address.
    pub block_addr: u64,
    /// `true` for stores and dirty write-backs.
    pub is_write: bool,
    /// Compute + cache-hit cycles elapsed since the previous miss was
    /// *serviced* (what the CPU does between misses).
    pub gap_cycles: u64,
    /// Whether the core must stall for this miss (demand miss) or it can
    /// proceed (write-back).
    pub blocking: bool,
}

/// A stream of LLC misses.
pub trait MissStream {
    /// Returns the next miss, or `None` when the trace ends.
    fn next_miss(&mut self) -> Option<MissRecord>;
}

/// Adapter: replay a pre-recorded vector of misses.
#[derive(Debug, Clone)]
pub struct ReplayMisses {
    records: std::vec::IntoIter<MissRecord>,
}

impl ReplayMisses {
    /// Creates a replay stream from recorded misses.
    pub fn new(records: Vec<MissRecord>) -> Self {
        ReplayMisses { records: records.into_iter() }
    }
}

impl Iterator for ReplayMisses {
    type Item = MissRecord;

    fn next(&mut self) -> Option<MissRecord> {
        self.records.next()
    }
}

/// Any iterator of misses is a miss stream — a borrowed recording
/// replays as `records.iter().copied()`, with nothing copied up front.
impl<I: Iterator<Item = MissRecord>> MissStream for I {
    fn next_miss(&mut self) -> Option<MissRecord> {
        self.next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memref_constructors() {
        let r = MemRef::read(5, 10);
        assert!(!r.is_write);
        assert_eq!(r.gap_cycles, 10);
        let w = MemRef::write(6, 0);
        assert!(w.is_write);
    }

    #[test]
    fn iterators_are_ref_streams() {
        let refs = vec![MemRef::read(1, 0), MemRef::read(2, 0)];
        let mut s = refs.into_iter();
        assert_eq!(RefStream::next_ref(&mut s).unwrap().block_addr, 1);
        assert_eq!(RefStream::next_ref(&mut s).unwrap().block_addr, 2);
        assert!(RefStream::next_ref(&mut s).is_none());
    }

    #[test]
    fn replay_misses_round_trips() {
        let recs = vec![
            MissRecord { block_addr: 1, is_write: false, gap_cycles: 3, blocking: true },
            MissRecord { block_addr: 2, is_write: true, gap_cycles: 0, blocking: false },
        ];
        let mut s = ReplayMisses::new(recs.clone());
        assert_eq!(s.next_miss(), Some(recs[0]));
        assert_eq!(s.next_miss(), Some(recs[1]));
        assert_eq!(s.next_miss(), None);
    }
}
