//! The controller↔DRAM bus observation interface.
//!
//! Obliviousness is a property of what an adversary on the memory bus can
//! see. [`BusEvent`] is the vocabulary of that adversary: access framing,
//! per-bucket reads/writes in the order the controller issues them, and
//! the device-level block requests the DRAM system receives. Both the
//! ORAM controller (`oram-protocol`) and the DRAM model (`oram-dram`)
//! carry an optional [`SharedObserver`]; when none is attached the hook
//! is a single branch on `None`, so the steady-state access loop stays
//! allocation-free and effectively unchanged.
//!
//! The trait lives here — the only crate both sides already depend on —
//! so the `oram-audit` crate can record one interleaved trace across the
//! whole boundary.

use std::sync::{Arc, Mutex};

use crate::Ring;

/// The phase of an ORAM access a bus event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusPhase {
    /// The read-only path read serving the request (Tiny ORAM Step 3).
    ReadOnly,
    /// The read half of an eviction.
    EvictionRead,
    /// The write half of an eviction.
    EvictionWrite,
}

/// One externally visible event at the controller↔DRAM boundary.
///
/// Everything here is information an adversary probing the memory bus
/// already has: burst framing, bucket addresses, read/write direction,
/// and physical block addresses. Block *contents* are never exposed —
/// they are ciphertext on the real bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusEvent {
    /// A path-touching access begins (stash hits emit nothing: they are
    /// served by the on-chip CAM and never reach the bus).
    AccessStart,
    /// A phase of the current access begins.
    PhaseStart(BusPhase),
    /// The controller touches one tree bucket (raw heap index, root = 1),
    /// in issue order. `write` is `true` only during eviction writes.
    Bucket {
        /// Raw bucket id (1-based heap index).
        bucket: u64,
        /// Direction of the burst.
        write: bool,
    },
    /// The current phase ends.
    PhaseEnd(BusPhase),
    /// The current access ends.
    AccessEnd,
    /// The DRAM system received one 64-byte block request at a physical
    /// device address (after the subtree layout mapping).
    DramBlock {
        /// Physical block address (units of 64 B).
        addr: u64,
        /// Direction of the request.
        write: bool,
    },
    /// The recursive position map touched one bucket of a posmap-ORAM
    /// tree (raw heap index within that level's tree, root = 1). Only
    /// emitted in `--posmap recursive` mode, so flat-mode traces are
    /// byte-identical to before the subsystem existed.
    PosmapBucket {
        /// Raw bucket id (1-based heap index) in the level's tree.
        bucket: u64,
        /// Which posmap-ORAM level (1 = largest / nearest the data).
        level: u16,
        /// Direction of the burst.
        write: bool,
    },
}

/// An observer of the externally visible bus activity.
///
/// Implementations must be cheap: hooks fire in the hot loop whenever an
/// observer is attached.
///
/// **Batch-reporting contract.** Producers report through
/// [`BusObserver::on_events`]: one call (under one lock of the
/// [`SharedObserver`]) per storage batch, controller access half or
/// posmap walk, with the events in issue order. An observer must treat
/// `on_events(&[a, b, c])` exactly like `on_event(a); on_event(b);
/// on_event(c)` — slice boundaries carry no meaning and may move between
/// versions — so overriding `on_events` is purely an optimisation.
pub trait BusObserver: std::fmt::Debug + Send {
    /// Called for every bus event, in issue order.
    fn on_event(&mut self, event: BusEvent);

    /// Called with a run of consecutive bus events, in issue order.
    /// Defaults to one [`BusObserver::on_event`] call per element.
    fn on_events(&mut self, events: &[BusEvent]) {
        for &event in events {
            self.on_event(event);
        }
    }
}

/// The plain collector: keeps every event, in issue order — the access
/// trace the security tests compare.
impl BusObserver for Vec<BusEvent> {
    fn on_event(&mut self, event: BusEvent) {
        self.push(event);
    }
}

/// The bounded (or [`Ring::unbounded`]) collector behind the audit's
/// trace recorder; a batch lands in at most three slice copies.
impl BusObserver for Ring<BusEvent> {
    fn on_event(&mut self, event: BusEvent) {
        self.push(event);
    }

    fn on_events(&mut self, events: &[BusEvent]) {
        self.extend(events);
    }
}

/// A shareable, thread-safe observer handle.
///
/// The same handle can be attached to the controller and the DRAM system
/// at once, producing one interleaved trace. Cloning shares the
/// underlying observer.
pub type SharedObserver = Arc<Mutex<dyn BusObserver>>;

/// The producer's side of the batch-reporting contract: an optional
/// observer plus a reused buffer the producer fills while it works and
/// hands over with one lock and one [`BusObserver::on_events`] call.
/// Detached, [`EventBatch::push`] is one branch and nothing is buffered.
/// Cloning shares the observer.
#[derive(Debug, Clone, Default)]
pub struct EventBatch {
    observer: Option<SharedObserver>,
    events: Vec<BusEvent>,
}

impl EventBatch {
    /// Attaches (or with `None` detaches) the observer. Call between
    /// flushes: buffered events are not carried over.
    pub fn set_observer(&mut self, observer: Option<SharedObserver>) {
        debug_assert!(self.events.is_empty(), "observer swapped mid-batch");
        self.observer = observer;
    }

    /// Buffers one event for the next [`EventBatch::flush`].
    #[inline]
    pub fn push(&mut self, event: BusEvent) {
        if self.observer.is_some() {
            self.events.push(event);
        }
    }

    /// Buffers a run of events for the next [`EventBatch::flush`].
    #[inline]
    pub fn extend(&mut self, events: impl IntoIterator<Item = BusEvent>) {
        if self.observer.is_some() {
            self.events.extend(events);
        }
    }

    /// Hands the buffered events to the observer, in order, and empties
    /// the buffer (its capacity is kept, so steady state never
    /// allocates).
    ///
    /// # Panics
    ///
    /// Panics if the observer's mutex is poisoned.
    pub fn flush(&mut self) {
        if let Some(obs) = &self.observer {
            obs.lock().expect("bus observer poisoned").on_events(&self.events);
            self.events.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Counter(u64);

    impl BusObserver for Counter {
        fn on_event(&mut self, _event: BusEvent) {
            self.0 += 1;
        }
    }

    #[test]
    fn shared_observer_coerces_and_records() {
        let obs: SharedObserver = Arc::new(Mutex::new(Counter::default()));
        obs.lock().unwrap().on_event(BusEvent::AccessStart);
        obs.lock().unwrap().on_event(BusEvent::Bucket { bucket: 1, write: false });
        // Downcast-free check: debug formatting exposes the count.
        assert!(format!("{:?}", obs.lock().unwrap()).contains('2'));
    }

    #[test]
    fn default_on_events_replays_each_event() {
        let mut c = Counter::default();
        c.on_events(&[BusEvent::AccessStart, BusEvent::AccessEnd, BusEvent::AccessStart]);
        c.on_events(&[]);
        assert_eq!(c.0, 3);
    }

    #[test]
    fn event_batch_hands_over_in_order_and_only_when_attached() {
        #[derive(Debug, Default)]
        struct Tape(Vec<Vec<BusEvent>>);
        impl BusObserver for Tape {
            fn on_event(&mut self, _event: BusEvent) {
                unreachable!("batches arrive through on_events");
            }
            fn on_events(&mut self, events: &[BusEvent]) {
                self.0.push(events.to_vec());
            }
        }

        let mut batch = EventBatch::default();
        batch.push(BusEvent::AccessStart);
        batch.flush(); // detached: nothing buffered, nothing delivered

        let tape = Arc::new(Mutex::new(Tape::default()));
        batch.set_observer(Some(tape.clone()));
        batch.push(BusEvent::AccessStart);
        batch.extend([1, 2].map(|bucket| BusEvent::Bucket { bucket, write: true }));
        batch.push(BusEvent::AccessEnd);
        batch.flush();
        batch.push(BusEvent::AccessStart);
        batch.flush();
        assert_eq!(
            tape.lock().unwrap().0,
            vec![
                vec![
                    BusEvent::AccessStart,
                    BusEvent::Bucket { bucket: 1, write: true },
                    BusEvent::Bucket { bucket: 2, write: true },
                    BusEvent::AccessEnd,
                ],
                vec![BusEvent::AccessStart],
            ]
        );
    }

    #[test]
    fn events_are_small_and_copyable() {
        // The hot path hands events by value; keep them register-sized.
        assert!(std::mem::size_of::<BusEvent>() <= 24);
        let e = BusEvent::DramBlock { addr: 7, write: true };
        let f = e;
        assert_eq!(e, f);
    }
}
