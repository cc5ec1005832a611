//! Spans for the traced run: a tree of timed intervals recorded by the
//! harness around calls into each layer, meters for seams that are
//! crossed millions of times, the self-time arithmetic over both, and
//! the Chrome trace writer.

use std::cell::Cell;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

use crate::jsonx::{count, emit, num, obj, text, Value};

/// Nanoseconds since the first call in this process: one clock for every
/// span and meter sample, so they line up in the written trace.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Individual calls a meter keeps as spans for the written trace (the
/// totals cover every call).
const METER_SAMPLES: usize = 512;

thread_local! {
    /// Nanoseconds already claimed by meter calls that finished on this
    /// thread, and how many of them were direct children of the call now
    /// running: what lets a meter report *self* time when seams nest (the
    /// DRAM backend reports every block to the bus recorder from inside
    /// `service_batch_into`).
    static CLAIMED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Self time and call count of one seam, accumulated in situ by a timing
/// adapter: each call's interval minus the intervals of meter calls
/// nested inside it. `ns` still includes the timer's own cost;
/// [`Meter::net_ns`] subtracts the calibrated share.
#[derive(Debug, Clone, Default)]
pub struct Meter {
    pub calls: u64,
    pub ns: u64,
    /// Meter calls made directly from inside this meter's calls.
    pub children: u64,
    samples: Vec<(u64, u64)>,
}

/// What the timer itself costs, per call: the part that lands inside the
/// measured interval, and the part a caller pays around it (which lands
/// inside the *parent* meter's interval when seams nest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerCost {
    pub inside_ns: f64,
    pub around_ns: f64,
}

impl Meter {
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (claimed0, siblings) = CLAIMED.get();
        CLAIMED.set((claimed0, 0));
        let start = now_ns();
        let r = f();
        let end = now_ns();
        let (claimed1, children) = CLAIMED.get();
        let gross = end - start;
        self.calls += 1;
        self.ns += gross.saturating_sub(claimed1 - claimed0);
        self.children += children;
        // The whole interval is now spoken for, once.
        CLAIMED.set((claimed0 + gross, siblings + 1));
        if self.samples.len() < METER_SAMPLES {
            self.samples.push((start, end));
        }
        r
    }

    /// Self nanoseconds with the timer's cost taken off (never below 0).
    pub fn net_ns(&self, timer: TimerCost) -> f64 {
        let overhead = timer.inside_ns * self.calls as f64 + timer.around_ns * self.children as f64;
        (self.ns as f64 - overhead).max(0.0)
    }

    pub fn add(&mut self, other: &Meter) {
        self.calls += other.calls;
        self.ns += other.ns;
        self.children += other.children;
        let room = METER_SAMPLES - self.samples.len();
        self.samples.extend(other.samples.iter().take(room));
    }
}

/// A meter for seams crossed so often, for so little, that timing every
/// call would measure the timer: one call in `every` is timed and the
/// rest are forwarded behind a counter, so busy time is the sampled mean
/// times the call count.
#[derive(Debug, Clone)]
pub struct Sampled {
    pub timed: Meter,
    pub calls: u64,
    every: u64,
}

impl Default for Sampled {
    fn default() -> Sampled {
        Sampled::every(1)
    }
}

impl Sampled {
    pub fn every(every: u64) -> Sampled {
        Sampled { timed: Meter::default(), calls: 0, every: every.max(1) }
    }

    /// Runs `f`, timing it when its turn comes; says whether it was timed.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, bool) {
        self.calls += 1;
        if self.calls.is_multiple_of(self.every) {
            (self.timed.time(f), true)
        } else {
            (f(), false)
        }
    }

    /// Mean self nanoseconds of one call, the timer's cost taken off.
    pub fn mean_ns(&self, timer: TimerCost) -> f64 {
        if self.timed.calls == 0 {
            0.0
        } else {
            self.timed.net_ns(timer) / self.timed.calls as f64
        }
    }

    /// Estimated self nanoseconds of every call.
    pub fn est_ns(&self, timer: TimerCost) -> f64 {
        self.mean_ns(timer) * self.calls as f64
    }

    pub fn add(&mut self, other: &Sampled) {
        self.timed.add(&other.timed);
        self.calls += other.calls;
    }
}

/// Calibrates the timer on an empty call: the median of several batches,
/// so one preempted batch does not set it.
pub fn timer_cost() -> TimerCost {
    let mut batches: Vec<(f64, f64)> = (0..9)
        .map(|_| {
            let mut m = Meter::default();
            let began = Instant::now();
            for i in 0..100_000u64 {
                black_box(m.time(|| black_box(i)));
            }
            let total = began.elapsed().as_nanos() as f64 / m.calls as f64;
            (m.ns as f64 / m.calls as f64, total)
        })
        .collect();
    batches.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (inside_ns, total) = batches[batches.len() / 2];
    TimerCost { inside_ns, around_ns: (total - inside_ns).max(0.0) }
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The part of `parent` not covered by the union of `children`, each
/// child clipped to the parent first: a layer's self time. Children may
/// overlap or arrive in any order.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.clamp(p0, p1), b.clamp(p0, p1)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut edge = p0;
    for (a, b) in clipped {
        let a = a.max(edge);
        if b > a {
            covered += b - a;
            edge = b;
        }
    }
    (p1 - p0) - covered
}

/// Spans kept in memory for the length of a traced run.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
    meters: Vec<(usize, String, Meter)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Runs `f` inside a new span, a child of the innermost open one.
    pub fn scope<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name: name.to_string(), parent, start_ns: now_ns(), end_ns: 0 });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end = now_ns();
        self.spans[id].end_ns = end.max(self.spans[id].start_ns);
        r
    }

    /// Files a harvested meter under the innermost open span.
    pub fn attach(&mut self, name: &str, meter: &Meter) {
        let owner = self.open.last().copied().unwrap_or(0);
        self.meters.push((owner, name.to_string(), meter.clone()));
    }

    /// Total nanoseconds of every span with this name.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).sum()
    }

    /// Self time of span `id`: its interval minus what its child spans
    /// cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        let p = &self.spans[id];
        self_time((p.start_ns, p.end_ns), &kids)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): spans as
    /// complete events on track 1, sampled seam calls on track 2, and each
    /// meter's totals as a counter-style instant event.
    pub fn chrome_json(&self) -> String {
        let us = |ns: u64| num(ns as f64 / 1000.0);
        let mut events = Vec::new();
        for (id, s) in self.spans.iter().enumerate() {
            events.push(obj([
                ("name", text(s.name.as_str())),
                ("ph", text("X")),
                ("pid", count(1)),
                ("tid", count(1)),
                ("ts", us(s.start_ns)),
                ("dur", us(s.ns())),
                (
                    "args",
                    obj([
                        ("id", count(id as u64)),
                        ("parent", s.parent.map_or(Value::Null, |p| count(p as u64))),
                        ("self_ns", count(self.self_ns(id))),
                    ]),
                ),
            ]));
        }
        for (owner, name, m) in &self.meters {
            for &(a, b) in &m.samples {
                events.push(obj([
                    ("name", text(name.as_str())),
                    ("ph", text("X")),
                    ("pid", count(1)),
                    ("tid", count(2)),
                    ("ts", us(a)),
                    ("dur", us(b - a)),
                    ("args", obj([("parent", count(*owner as u64))])),
                ]));
            }
            events.push(obj([
                ("name", text(format!("{name} (total)"))),
                ("ph", text("i")),
                ("s", text("p")),
                ("pid", count(1)),
                ("tid", count(2)),
                ("ts", us(self.spans.get(*owner).map_or(0, |s| s.end_ns))),
                (
                    "args",
                    obj([
                        ("parent", count(*owner as u64)),
                        ("calls", count(m.calls)),
                        ("busy_ns", count(m.ns)),
                    ]),
                ),
            ]));
        }
        emit(&obj([("traceEvents", Value::Array(events)), ("displayTimeUnit", text("ns"))]))
    }
}

/// A parent interval split into named parts: in-situ children, parts
/// estimated by replaying a layer alone, and whatever is left.
#[derive(Debug, Clone)]
pub struct Breakdown {
    pub parent_ns: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Breakdown {
    /// What no part accounts for. Negative when layers replayed alone
    /// cost more than they did in situ; reported either way.
    pub fn unattributed_ns(&self) -> f64 {
        self.parent_ns - self.parts.iter().map(|(_, ns)| ns).sum::<f64>()
    }

    /// How far parts + unattributed are from the parent, as a share of it
    /// (only rounding can make this non-zero; the traced run fails
    /// above 1 %).
    pub fn residual_frac(&self) -> f64 {
        let sum: f64 = self.parts.iter().map(|(_, ns)| ns).sum::<f64>() + self.unattributed_ns();
        if self.parent_ns == 0.0 {
            0.0
        } else {
            ((sum - self.parent_ns) / self.parent_ns).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_never_exceed_the_parent() {
        // Overlapping, out-of-order, partly outside: union clipped to parent.
        let parent = (100, 200);
        let kids = [(150, 180), (90, 120), (170, 260), (300, 400), (130, 130)];
        let own = self_time(parent, &kids);
        assert_eq!(own, 100 - (20 + 50));
        assert_eq!(self_time(parent, &[(0, 1000)]), 0);
        assert_eq!(self_time(parent, &[]), 100);
    }

    #[test]
    fn self_plus_children_plus_unattributed_is_the_parent() {
        let mut t = Tracer::new();
        t.scope("root", |t| {
            t.scope("a", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.scope("b", |t| {
                t.scope("b.inner", |_| std::thread::sleep(std::time::Duration::from_millis(1)));
            });
        });
        let root = &t.spans()[0];
        let kids: u64 = t.spans().iter().filter(|s| s.parent == Some(0)).map(Span::ns).sum();
        assert_eq!(t.self_ns(0) + kids, root.ns());
        assert!(t.self_ns(2) + t.spans()[3].ns() == t.spans()[2].ns());
        assert_eq!(t.total_ns("b.inner"), t.spans()[3].ns());

        let b = Breakdown { parent_ns: 1000.0, parts: vec![("x", 300.0), ("y", 450.5)] };
        assert_eq!(b.unattributed_ns(), 249.5);
        assert!(b.residual_frac() < 1e-12);
        let over = Breakdown { parent_ns: 100.0, parts: vec![("x", 130.0)] };
        assert_eq!(over.unattributed_ns(), -30.0);
        assert!(over.residual_frac() < 1e-12);
    }

    #[test]
    fn meters_count_and_subtract_the_timer() {
        let mut m = Meter::default();
        for i in 0..1000u64 {
            black_box(m.time(|| black_box(i) + 1));
        }
        assert_eq!((m.calls, m.children), (1000, 0));
        let free = TimerCost { inside_ns: 0.0, around_ns: 0.0 };
        assert!(m.net_ns(free) == m.ns as f64);
        assert_eq!(m.net_ns(TimerCost { inside_ns: 1e9, around_ns: 0.0 }), 0.0);
        let mut sum = Meter::default();
        sum.add(&m);
        sum.add(&m);
        assert_eq!((sum.calls, sum.ns), (2000, 2 * m.ns));
        let cost = timer_cost();
        assert!(cost.inside_ns > 0.0 && cost.around_ns >= 0.0);
    }

    #[test]
    fn sampled_meters_time_one_call_in_n() {
        let mut s = Sampled::every(4);
        let timed = (0..10u64).filter(|i| s.time(|| black_box(*i)).1).count();
        assert_eq!((s.calls, s.timed.calls, timed), (10, 2, 2));
        let free = TimerCost { inside_ns: 0.0, around_ns: 0.0 };
        assert_eq!(s.est_ns(free), s.timed.ns as f64 / 2.0 * 10.0);
        assert_eq!(Sampled::every(3).est_ns(free), 0.0);
    }

    #[test]
    fn nested_meters_report_self_time() {
        let (mut outer, mut inner) = (Meter::default(), Meter::default());
        let nap = std::time::Duration::from_millis(2);
        outer.time(|| {
            std::thread::sleep(nap);
            inner.time(|| std::thread::sleep(nap));
            inner.time(|| std::thread::sleep(nap));
        });
        assert_eq!((outer.calls, outer.children), (1, 2));
        assert_eq!((inner.calls, inner.children), (2, 0));
        // The outer meter keeps its own nap, not the inner ones.
        assert!(inner.ns >= 4_000_000, "{}", inner.ns);
        assert!((2_000_000..4_000_000).contains(&outer.ns), "{}", outer.ns);
    }

    #[test]
    fn chrome_trace_parses_and_carries_every_span() {
        let mut t = Tracer::new();
        let mut m = Meter::default();
        t.scope("pass", |t| {
            m.time(|| ());
            t.attach("storage.service_batch", &m);
        });
        let v = crate::jsonx::parse(&t.chrome_json()).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("name").and_then(Value::as_str), Some("pass"));
    }
}
