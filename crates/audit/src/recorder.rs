//! Trace capture: a ring-buffer [`BusObserver`] and its shareable handle.

use std::sync::{Arc, Mutex};

use oram_util::{BusEvent, BusObserver, SharedObserver};

/// The event store behind a [`Recorder`]: either unbounded (verification
/// runs that inspect the whole trace) or a fixed-capacity ring that
/// keeps the most recent events (long fuzz runs, where only the window
/// around a failure matters).
#[derive(Debug)]
pub struct TraceBuffer {
    events: Vec<BusEvent>,
    capacity: Option<usize>,
    /// Ring start once `events` is full (oldest retained event).
    head: usize,
    dropped: u64,
}

impl TraceBuffer {
    fn unbounded() -> Self {
        TraceBuffer { events: Vec::new(), capacity: None, head: 0, dropped: 0 }
    }

    fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        TraceBuffer {
            events: Vec::with_capacity(capacity),
            capacity: Some(capacity),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, event: BusEvent) {
        match self.capacity {
            Some(cap) if self.events.len() == cap => {
                self.events[self.head] = event;
                self.head = (self.head + 1) % cap;
                self.dropped += 1;
            }
            _ => self.events.push(event),
        }
    }

    /// Appends `events` exactly as repeated [`TraceBuffer::push`] calls
    /// would, in at most three slice copies.
    fn extend(&mut self, events: &[BusEvent]) {
        let Some(cap) = self.capacity else {
            self.events.extend_from_slice(events);
            return;
        };
        let (fill, over) = events.split_at(events.len().min(cap - self.events.len()));
        self.events.extend_from_slice(fill);
        self.dropped += over.len() as u64;
        // Of the overwriting events only the last `cap` survive; the
        // ones before them just advance the ring start.
        let skipped = over.len().saturating_sub(cap);
        let over = &over[skipped..];
        self.head = (self.head + skipped) % cap;
        let first = over.len().min(cap - self.head);
        self.events[self.head..self.head + first].copy_from_slice(&over[..first]);
        self.events[..over.len() - first].copy_from_slice(&over[first..]);
        self.head = (self.head + over.len()) % cap;
    }

    /// The retained events, oldest first, as one slice (a wrapped ring
    /// is rotated into place first).
    fn contiguous(&mut self) -> &[BusEvent] {
        self.events.rotate_left(self.head);
        self.head = 0;
        &self.events
    }

    fn snapshot(&self) -> Vec<BusEvent> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

impl BusObserver for TraceBuffer {
    fn on_event(&mut self, event: BusEvent) {
        self.push(event);
    }

    fn on_events(&mut self, events: &[BusEvent]) {
        self.extend(events);
    }
}

/// A clonable handle to a shared [`TraceBuffer`].
///
/// [`Recorder::observer`] yields the [`SharedObserver`] to attach to a
/// controller, a DRAM system, or both at once (one interleaved trace);
/// the handle keeps access to the recorded events.
///
/// ```
/// use oram_audit::Recorder;
/// use oram_protocol::{OramConfig, OramController, Request, BlockAddr};
///
/// let rec = Recorder::unbounded();
/// let mut ctl = OramController::new(OramConfig::small_test()).unwrap();
/// ctl.set_observer(Some(rec.observer()));
/// ctl.access(Request::read(BlockAddr::new(1)));
/// assert!(!rec.snapshot().is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Mutex<TraceBuffer>>,
}

impl Recorder {
    /// A recorder that keeps every event.
    pub fn unbounded() -> Self {
        Recorder { inner: Arc::new(Mutex::new(TraceBuffer::unbounded())) }
    }

    /// A recorder that keeps only the `capacity` most recent events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        Recorder { inner: Arc::new(Mutex::new(TraceBuffer::ring(capacity))) }
    }

    /// The observer handle to attach (shares this recorder's buffer).
    pub fn observer(&self) -> SharedObserver {
        self.inner.clone()
    }

    /// The recorded events, oldest first, as an owned copy. To read the
    /// trace once, prefer [`Recorder::with_events`]: a verification run's
    /// trace is tens of megabytes.
    pub fn snapshot(&self) -> Vec<BusEvent> {
        self.inner.lock().expect("recorder poisoned").snapshot()
    }

    /// Runs `f` over the recorded events, oldest first, in place — the
    /// same sequence [`Recorder::snapshot`] returns, without the copy.
    /// The recorder is locked for the duration of `f`, so `f` must not
    /// drive anything this recorder is attached to.
    pub fn with_events<R>(&self, f: impl FnOnce(&[BusEvent]) -> R) -> R {
        f(self.inner.lock().expect("recorder poisoned").contiguous())
    }

    /// Discards all recorded events (capacity mode is kept).
    pub fn clear(&self) {
        let mut buf = self.inner.lock().expect("recorder poisoned");
        buf.events.clear();
        buf.head = 0;
        buf.dropped = 0;
    }

    /// Events overwritten by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder poisoned").dropped
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder poisoned").events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> BusEvent {
        BusEvent::Bucket { bucket: n, write: false }
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let rec = Recorder::unbounded();
        {
            let obs = rec.observer();
            let mut o = obs.lock().unwrap();
            for i in 1..=5 {
                o.on_event(ev(i));
            }
        }
        assert_eq!(rec.snapshot(), (1..=5).map(ev).collect::<Vec<_>>());
        assert_eq!(rec.dropped(), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let rec = Recorder::ring(3);
        let obs = rec.observer();
        for i in 1..=7 {
            obs.lock().unwrap().on_event(ev(i));
        }
        assert_eq!(rec.snapshot(), vec![ev(5), ev(6), ev(7)]);
        assert_eq!(rec.dropped(), 4);
        rec.clear();
        assert!(rec.is_empty());
        obs.lock().unwrap().on_event(ev(9));
        assert_eq!(rec.snapshot(), vec![ev(9)]);
    }

    /// Feeds `events` to two recorders of the same mode — one event at a
    /// time, and in slices cut at `cuts` — and checks they end up equal.
    fn batched_matches_single(make: impl Fn() -> Recorder, events: &[BusEvent], cuts: &[usize]) {
        let (single, batched) = (make(), make());
        for &e in events {
            single.observer().lock().unwrap().on_event(e);
        }
        let mut rest = events;
        for &cut in cuts {
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            batched.observer().lock().unwrap().on_events(head);
            rest = tail;
        }
        batched.observer().lock().unwrap().on_events(rest);
        assert_eq!(batched.snapshot(), single.snapshot(), "cuts {cuts:?}");
        assert_eq!(batched.dropped(), single.dropped(), "cuts {cuts:?}");
        assert_eq!(batched.len(), single.len());
    }

    #[test]
    fn on_events_matches_repeated_on_event() {
        let events: Vec<BusEvent> = (1..=23).map(ev).collect();
        // Slices that stay inside the ring, fill it exactly, wrap inside
        // one slice, and lap it more than once (5 + 18 > 2 × 7).
        for cuts in [&[][..], &[3, 4], &[7], &[5, 4, 9], &[5, 18], &[0, 1, 0, 6, 7, 7]] {
            batched_matches_single(Recorder::unbounded, &events, cuts);
            batched_matches_single(|| Recorder::ring(7), &events, cuts);
            batched_matches_single(|| Recorder::ring(1), &events, cuts);
            batched_matches_single(|| Recorder::ring(64), &events, cuts);
        }
    }

    #[test]
    fn with_events_matches_snapshot_in_both_modes() {
        for rec in [Recorder::unbounded(), Recorder::ring(5), Recorder::ring(40)] {
            assert_eq!(rec.with_events(<[BusEvent]>::len), 0);
            let obs = rec.observer();
            for i in 1..=12 {
                obs.lock().unwrap().on_event(ev(i));
            }
            let snap = rec.snapshot();
            assert!(rec.with_events(|e| e == snap));
            // Reading in place leaves the recorder usable: later events
            // land behind the ones already retained.
            obs.lock().unwrap().on_events(&[ev(13), ev(14)]);
            let snap = rec.snapshot();
            assert_eq!(snap.last(), Some(&ev(14)));
            assert!(rec.with_events(|e| e == snap));
        }
    }

    #[test]
    fn one_recorder_interleaves_two_sources() {
        // The same handle attached twice (controller + DRAM in real use)
        // produces one ordered stream.
        let rec = Recorder::unbounded();
        let a = rec.observer();
        let b = rec.observer();
        a.lock().unwrap().on_event(ev(1));
        b.lock().unwrap().on_event(BusEvent::DramBlock { addr: 2, write: true });
        a.lock().unwrap().on_event(ev(3));
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.snapshot()[1], BusEvent::DramBlock { addr: 2, write: true });
    }
}
