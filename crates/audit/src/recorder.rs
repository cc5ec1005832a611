//! Trace capture: a shareable [`oram_util::BusObserver`] over a
//! [`Ring`] of bus events.

use std::sync::{Arc, Mutex};

use oram_util::{BusEvent, Ring, SharedObserver};

/// A clonable handle to a shared [`Ring`] of bus events: unbounded for
/// verification runs that inspect the whole trace, or a fixed-capacity
/// ring that keeps the most recent events (long fuzz runs, where only
/// the window around a failure matters).
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
    inner: Arc<Mutex<Ring<BusEvent>>>,
}

impl Recorder {
    /// A recorder that keeps every event.
    pub fn unbounded() -> Self {
        Recorder { inner: Arc::new(Mutex::new(Ring::unbounded())) }
    }

    /// A recorder that keeps only the `capacity` most recent events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn ring(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Recorder { inner: Arc::new(Mutex::new(Ring::new(capacity))) }
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
        self.inner.lock().expect("recorder poisoned").clear();
    }

    /// Events overwritten by the ring so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("recorder poisoned").dropped()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder poisoned").len()
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

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn a_ring_of_zero_events_is_refused() {
        Recorder::ring(0);
    }

    #[test]
    fn on_events_matches_repeated_on_event() {
        // The observer routes a batch through `Ring::extend`; the ring's
        // own model test covers every capacity and cut list.
        let events: Vec<BusEvent> = (1..=23).map(ev).collect();
        for make in [Recorder::unbounded, || Recorder::ring(7)] {
            let (single, batched) = (make(), make());
            for &e in &events {
                single.observer().lock().unwrap().on_event(e);
            }
            let (head, tail) = events.split_at(5);
            batched.observer().lock().unwrap().on_events(head);
            batched.observer().lock().unwrap().on_events(tail);
            assert_eq!(batched.snapshot(), single.snapshot());
            assert_eq!((batched.dropped(), batched.len()), (single.dropped(), single.len()));
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
