//! The one bounded record store: a preallocated overwrite-oldest ring.
//!
//! Long runs produce millions of records; a ring keeps the most recent
//! `capacity` of them and counts the rest as dropped, so memory is
//! bounded and `push` never allocates after construction. It holds the
//! telemetry recorder's access spans, the flight recorder's four
//! histories and the audit recorder's bus trace (which may also be
//! [`Ring::unbounded`], for verification runs that inspect the whole
//! trace).

/// An overwrite-oldest ring of `Copy` records, read oldest first.
///
/// ```
/// use oram_util::Ring;
///
/// let mut r = Ring::new(3);
/// r.extend(&[1, 2, 3, 4]);
/// r.push(5);
/// assert_eq!(r.snapshot(), vec![3, 4, 5]);
/// assert_eq!((r.len(), r.total_pushed(), r.dropped()), (3, 5, 2));
/// ```
#[derive(Debug)]
pub struct Ring<T> {
    buf: Vec<T>,
    /// Most records held; `usize::MAX` when unbounded.
    capacity: usize,
    /// Index of the oldest record once `buf` is full (0 until then).
    head: usize,
    /// Records ever pushed (held + dropped).
    pushed: u64,
}

impl<T: Copy> Ring<T> {
    /// A ring holding at most `capacity` records, all preallocated.
    /// Capacity 0 counts pushes but holds nothing.
    pub fn new(capacity: usize) -> Self {
        Ring { buf: Vec::with_capacity(capacity), capacity, head: 0, pushed: 0 }
    }

    /// A ring that keeps every record (and so allocates as it grows).
    pub fn unbounded() -> Self {
        Ring { buf: Vec::new(), capacity: usize::MAX, head: 0, pushed: 0 }
    }

    /// Records `item`, overwriting the oldest when full.
    #[inline]
    pub fn push(&mut self, item: T) {
        self.pushed += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else if self.capacity > 0 {
            self.buf[self.head] = item;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        }
    }

    /// Records `items` exactly as repeated [`Ring::push`] calls would,
    /// in at most three slice copies.
    pub fn extend(&mut self, items: &[T]) {
        self.pushed += items.len() as u64;
        let cap = self.capacity;
        let (fill, over) = items.split_at(items.len().min(cap - self.buf.len()));
        self.buf.extend_from_slice(fill);
        if over.is_empty() || cap == 0 {
            return;
        }
        // Of the overwriting records only the last `cap` survive, and
        // they go in oldest first from the current ring start.
        let over = &over[over.len().saturating_sub(cap)..];
        let first = over.len().min(cap - self.head);
        self.buf[self.head..self.head + first].copy_from_slice(&over[..first]);
        self.buf[..over.len() - first].copy_from_slice(&over[first..]);
        self.head = (self.head + over.len()) % cap;
    }

    /// The held records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// The held records, oldest first, as one slice (a wrapped ring is
    /// rotated into place first).
    pub fn contiguous(&mut self) -> &[T] {
        self.buf.rotate_left(self.head);
        self.head = 0;
        &self.buf
    }

    /// The held records, oldest first, as an owned copy.
    pub fn snapshot(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Records ever pushed (held + dropped).
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Records overwritten (or, at capacity 0, never held).
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Forgets every record and the push count; the capacity and its
    /// allocation are kept.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.pushed = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::Rng64;

    #[test]
    fn keeps_most_recent_in_order() {
        let mut r = Ring::new(4);
        for i in 0..10u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 10);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.snapshot(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn partial_fill_iterates_in_push_order() {
        let mut r = Ring::new(8);
        for i in 0..3u64 {
            r.push(i);
        }
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn zero_capacity_counts_but_holds_nothing() {
        let mut r = Ring::new(0);
        r.push(0u64);
        r.extend(&[1, 2]);
        assert!(r.is_empty());
        assert_eq!(r.total_pushed(), 3);
        assert_eq!(r.dropped(), 3);
    }

    /// The reference: a deque trimmed from the front to `cap`.
    struct Model {
        cap: Option<usize>,
        held: VecDeque<u64>,
        pushed: u64,
    }

    impl Model {
        fn push(&mut self, v: u64) {
            self.pushed += 1;
            self.held.push_back(v);
            if self.cap.is_some_and(|cap| self.held.len() > cap) {
                self.held.pop_front();
            }
        }
    }

    fn make(cap: Option<usize>) -> (Ring<u64>, Model) {
        let ring = cap.map_or_else(Ring::unbounded, Ring::new);
        (ring, Model { cap, held: VecDeque::new(), pushed: 0 })
    }

    fn check(ring: &mut Ring<u64>, model: &Model, what: &str) {
        let want: Vec<u64> = model.held.iter().copied().collect();
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), want, "iter: {what}");
        assert_eq!(ring.snapshot(), want, "snapshot: {what}");
        assert_eq!((ring.len(), ring.is_empty()), (want.len(), want.is_empty()), "len: {what}");
        assert_eq!(ring.total_pushed(), model.pushed, "total_pushed: {what}");
        assert_eq!(ring.dropped(), model.pushed - want.len() as u64, "dropped: {what}");
        assert_eq!(ring.contiguous(), &want[..], "contiguous: {what}");
        // Rotating in place leaves the order (and later pushes) intact.
        assert_eq!(ring.snapshot(), want, "snapshot after contiguous: {what}");
    }

    const CAPS: [Option<usize>; 5] = [Some(0), Some(1), Some(7), Some(64), None];

    #[test]
    fn random_operations_match_a_vecdeque() {
        let mut rng = Rng64::seed_from_u64(43);
        for cap in CAPS {
            for round in 0..40 {
                let (mut ring, mut model) = make(cap);
                let mut next = 0u64;
                for op in 0..60 {
                    let what = format!("cap {cap:?}, round {round}, op {op}");
                    match rng.below(10) {
                        0..=4 => {
                            ring.push(next);
                            model.push(next);
                            next += 1;
                        }
                        5..=8 => {
                            // Up to a few laps of the largest finite ring.
                            let n = rng.below(150);
                            let items: Vec<u64> = (next..next + n).collect();
                            ring.extend(&items);
                            items.iter().for_each(|&v| model.push(v));
                            next += n;
                        }
                        _ => {
                            ring.clear();
                            model.held.clear();
                            model.pushed = 0;
                        }
                    }
                    if rng.below(4) == 0 {
                        check(&mut ring, &model, &what);
                    }
                }
                check(&mut ring, &model, &format!("cap {cap:?}, round {round}, end"));
            }
        }
    }

    #[test]
    fn extend_matches_repeated_push_at_every_cut() {
        // Slices that stay inside the ring, fill it exactly, wrap inside
        // one slice, and lap it more than once (5 + 18 > 2 × 7).
        let cut_lists: [&[usize]; 6] =
            [&[], &[3, 4], &[7], &[5, 4, 9], &[5, 18], &[0, 1, 0, 6, 7, 7]];
        let items: Vec<u64> = (1..=23).collect();
        for cap in CAPS {
            for cuts in cut_lists {
                let (mut ring, mut model) = make(cap);
                let mut rest = &items[..];
                for &cut in cuts {
                    let (head, tail) = rest.split_at(cut.min(rest.len()));
                    ring.extend(head);
                    rest = tail;
                }
                ring.extend(rest);
                items.iter().for_each(|&v| model.push(v));
                check(&mut ring, &model, &format!("cap {cap:?}, cuts {cuts:?}"));
            }
        }
    }
}
