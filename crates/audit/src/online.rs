//! The serve-path audit as a [`BusObserver`]: both trace grammars folded
//! over the bus events while the run produces them, so auditing a lane
//! keeps the folds' O(`L` + `z`) state (plus the bucket-layout table and
//! the leaf counts the uniformity tests read) instead of its whole trace.
//!
//! Use the [`Recorder`](crate::Recorder) instead when the trace itself is
//! wanted afterwards — to print the window around a failure, to diff two
//! runs, to corrupt and re-check — and hand it to the slice checkers,
//! which run these same folds.

use std::sync::{Arc, Mutex};

use oram_protocol::OramConfig;
use oram_util::{BusEvent, BusObserver};

use crate::fuzz::uniform_when_sampled;
use crate::invariants::{TraceFold, TraceSpec, TraceSummary};
use crate::posmap::{PosmapFold, PosmapSummary};

/// What a finished or already failed [`LaneAudit`] answers.
const FINISHED: &str = "audit already finished";

/// The audit of one engine's bus traffic, run online: attach it where a
/// [`Recorder`](crate::Recorder) would go, and after the run
/// [`LaneAudit::finish`] gives the verdict
/// [`check_service_trace`](crate::check_service_trace) followed by
/// [`check_posmap_trace`](crate::check_posmap_trace) would give on the
/// recorded trace, error text included.
///
/// Each batch is consumed in one pass: `PosmapBucket` events go to the
/// posmap fold, everything else to the data-path fold, both with the
/// event's index in the combined stream. The first violation of each
/// grammar is latched and that fold stops; once the data path has failed
/// nothing more is checked, because its error is the one reported.
///
/// The leaves of the read-only paths are counted as they pass
/// ([`LeafCounts`](crate::LeafCounts)), so a lane's memory does not grow with the length of
/// its run, and the data summary comes back with no leaf sample.
///
/// ```
/// use oram_audit::LaneAudit;
/// use oram_sim::{Engine, SystemConfig};
///
/// let sys = SystemConfig::small_test();
/// let audit = LaneAudit::shared(&sys.oram);
/// let mut engine = Engine::new(sys).unwrap();
/// engine.attach_bus_observer(audit.clone());
/// engine.serve_request(3, false, 0);
/// engine.detach_bus_observer();
/// let (data, posmap) = audit.lock().unwrap().finish().unwrap();
/// assert_eq!((data.accesses, posmap.events), (1, 0));
/// ```
#[derive(Debug)]
pub struct LaneAudit {
    /// Each grammar's fold while it holds, its first violation after.
    trace: Result<TraceFold, String>,
    posmap: Result<PosmapFold, String>,
}

impl LaneAudit {
    /// An audit for an engine configured with `cfg`, attached from its
    /// creation.
    pub fn new(cfg: &OramConfig) -> Self {
        let trace = TraceFold::counting_leaves(&TraceSpec::from_oram(cfg));
        LaneAudit { trace: Ok(trace), posmap: Ok(PosmapFold::new()) }
    }

    /// [`LaneAudit::new`] behind the handle an engine's
    /// `attach_bus_observer` takes (a clone of it) and the caller keeps.
    pub fn shared(cfg: &OramConfig) -> Arc<Mutex<LaneAudit>> {
        Arc::new(Mutex::new(LaneAudit::new(cfg)))
    }

    /// Ends the audited stream and reports on it: the data-path grammar,
    /// then leaf uniformity when the stream carried at least 128 path
    /// reads, then the posmap grammar. A lane that saw no traffic passes
    /// with empty summaries.
    ///
    /// # Errors
    ///
    /// Returns the first check that failed, in that order, as
    /// `service trace audit: …` or `posmap trace audit: …`; and says so
    /// when called a second time.
    pub fn finish(&mut self) -> Result<(TraceSummary, PosmapSummary), String> {
        let service = |e| format!("service trace audit: {e}");
        let trace = std::mem::replace(&mut self.trace, Err(FINISHED.into())).map_err(service)?;
        let posmap = std::mem::replace(&mut self.posmap, Err(FINISHED.into()));
        let events = trace.events_seen();
        let (data, counts) = trace.finish_counted().map_err(service)?;
        uniform_when_sampled(&counts.expect("a lane counts its leaves")).map_err(service)?;
        let posmap = posmap
            .and_then(|fold| fold.finish_at(events))
            .map_err(|e| format!("posmap trace audit: {e}"))?;
        Ok((data, posmap))
    }
}

impl BusObserver for LaneAudit {
    fn on_event(&mut self, event: BusEvent) {
        self.on_events(std::slice::from_ref(&event));
    }

    fn on_events(&mut self, events: &[BusEvent]) {
        let Ok(trace) = &mut self.trace else { return };
        let posmap = &mut self.posmap;
        let fed = trace.feed_with(events, |idx, bucket, level, write| {
            if let Ok(fold) = posmap {
                if let Err(e) = fold.step(idx, bucket, level, write) {
                    *posmap = Err(e);
                }
            }
        });
        if let Err(e) = fed {
            self.trace = Err(e);
        }
    }
}
