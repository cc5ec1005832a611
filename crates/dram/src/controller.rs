//! Per-channel memory controller: run queue, FR-FCFS scheduling, command
//! generation under bank/rank/bus constraints, and refresh.
//!
//! The controller is *event-stepped* rather than ticked: it repeatedly
//! picks the best waiting work (row hits first, then oldest), computes the
//! earliest legal issue time for its next command given all constraints,
//! and commits it. That keeps full-path ORAM workloads (hundreds of
//! transactions per access) fast to simulate while preserving the timing
//! interactions that matter: row-buffer locality, bank parallelism, bus
//! occupancy, tRRD/tFAW and refresh. Column-to-column constraints are
//! *not* modelled beyond the data bus: there is no tWTR, and tCCD holds
//! only because a burst occupies the bus for `burst_cycles ≥ tCCD` — with
//! `occupy_bus = false` every read of a bank may issue in the same cycle.
//!
//! # The unit is a run
//!
//! A batch ([`Channel::begin_batch`], [`Channel::submit`]…,
//! [`Channel::drain`]) arrives whole at one cycle `now`. What the channel
//! queues, picks and times is a **run**: a maximal stretch of consecutive
//! arrivals with the same bank, row and direction — the sub-tree layout
//! makes that ≈ 7 blocks of an ORAM path, a scattered block is a run of
//! one. FR-FCFS serves a run's blocks back to back: they are adjacent in
//! age, and a bank's open row is the same for all of them, so whenever
//! the first is the pick the others are the next picks. Between them only
//! column commands to one open row issue, and then the k-th issue time is
//! the first plus `k` bursts (plus nothing for reads that bypass the data
//! bus): `column_run` times the first command as a single transaction
//! would be and the rest in closed form.
//!
//! # What queues and what does not
//!
//! FR-FCFS takes the waiting row hits oldest-first before anything else,
//! and a column command opens or closes no row, so while no refresh is due
//! (`refresh_due > now`, the same test for every transaction of the
//! batch) two things are known without scheduling anything:
//!
//! * a run that finds its row open **when it arrives** is the next pick —
//!   every older hit was served the same way — so it is timed the moment
//!   the next arrival closes it and never enters the queue;
//! * after an activate, the hits it made (the rest of a sub-tree's row,
//!   on ORAM paths) are the next picks in age order and that set is fixed
//!   until the next row command, so `drain` serves them in one pass over
//!   the `hit` words instead of one pick each.
//!
//! A run that *will* hit once an older miss has opened its row still
//! queues: a later arrival whose row is open already goes first and moves
//! `bus_free`. A due refresh is the one thing that can turn a waiting
//! "hit" into a miss (it idles the rank when the first transaction for
//! that rank is serviced), so while one is due nothing is served on
//! arrival or streamed: every run is a pick, and a pick starts with its
//! rank's refresh check, as each transaction of the reference model in
//! `tests/scheduler.rs` does.
//!
//! # Scheduler data structure
//!
//! A drain services a whole ORAM path phase, so the pick must not rescan
//! the queue. The queue is a `Vec` of runs in submission (= age) order
//! that is never compacted; two bitsets over its indices drive FR-FCFS:
//!
//! * `live` — bit `i` set while run `i` is unserviced;
//! * `hit` — bit `i` set while `i` is live **and** its bank's open row
//!   is `i`'s row.
//!
//! The pick is the lowest set bit of `hit` (oldest row hit), else the
//! lowest set bit of `live` (oldest overall) — exactly what a linear scan
//! in age order returns. `hit` stays exact because a bit can only change
//! when its run retires or when its bank's open row changes, and a bank's
//! open row changes in three places only: an activate (row miss, or the
//! second half of a conflict), the precharge that opens a conflict
//! (always followed by that activate before the next pick), and a refresh
//! idling every bank of a rank. A per-bank membership mask (`member`)
//! names the queue entries of one bank, so those events recompute or
//! clear just that bank's bits.

use crate::address::Location;
use crate::bank::{Bank, Command, RowState};
use crate::config::DramConfig;
use crate::energy::EnergyCounters;

/// A memory transaction: one 64-byte burst read or write. The
/// transactions of a batch arrive together, at the `now` of the
/// [`Channel::begin_batch`] that opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Index of the transaction's finish cycle in the buffer handed to
    /// [`Channel::submit`] and [`Channel::drain`].
    pub id: u32,
    /// Decoded target location.
    pub loc: Location,
    /// `true` for writes.
    pub is_write: bool,
}

/// Cycle decomposition (DRAM clock) of one serviced transaction: where
/// the cycles between queue entry (`base = max(now, arrival)`) and the
/// data-burst finish went. The three components partition that interval
/// exactly: `queue + row + transfer == finish − base`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxBreakdown {
    /// Cycles waiting before/between row and column activity: bank
    /// readiness, refresh stalls, tRRD/tFAW spacing and data-bus
    /// back-pressure.
    pub queue: u64,
    /// Cycles spent on row operations (precharge on a conflict, then
    /// activate + tRCD). Zero for row-buffer hits.
    pub row: u64,
    /// CAS latency plus burst-transfer cycles.
    pub transfer: u64,
    /// Absolute finish time (DRAM clock) of the data burst.
    pub finish: i64,
}

/// Buckets of the dense per-channel queue-depth histogram (depths
/// `0..QUEUE_DEPTH_BUCKETS-1`, last bucket saturating).
pub const QUEUE_DEPTH_BUCKETS: usize = 65;

/// Point-in-time utilization snapshot of one channel, for profiling.
/// Counters are monotone, so a measured interval is the elementwise
/// [`ChannelUtilization::delta`] of two snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelUtilization {
    /// Scheduling statistics (reads/writes, row hit/miss/conflict, ...).
    pub stats: ChannelStats,
    /// Cycles the channel's data bus spent transferring bursts.
    pub busy_cycles: u64,
    /// Queue depth observed by each arriving transaction — the arrivals
    /// of its batch ahead of it, which the modelled controller holds until
    /// the batch drains ([`QUEUE_DEPTH_BUCKETS`] dense buckets, last
    /// saturating).
    pub queue_depth_hist: Vec<u64>,
    /// Transactions serviced per bank (`[rank][bank]` flattened).
    pub bank_touches: Vec<u64>,
    /// Cycles each bank spent actively servicing (row operations plus
    /// column access and transfer), `[rank][bank]` flattened.
    pub bank_busy: Vec<u64>,
}

impl ChannelUtilization {
    /// Elementwise difference `self − base` (counters are monotone).
    pub fn delta(&self, base: &ChannelUtilization) -> ChannelUtilization {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter()
                .enumerate()
                .map(|(i, v)| v.saturating_sub(b.get(i).copied().unwrap_or(0)))
                .collect()
        };
        let mut stats = self.stats;
        stats.zip_counters(&base.stats, |a, b| *a -= b);
        ChannelUtilization {
            stats,
            busy_cycles: self.busy_cycles - base.busy_cycles,
            queue_depth_hist: sub(&self.queue_depth_hist, &base.queue_depth_hist),
            bank_touches: sub(&self.bank_touches, &base.bank_touches),
            bank_busy: sub(&self.bank_busy, &base.bank_busy),
        }
    }

    /// Fraction of serviced transactions that hit an open row.
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.stats.row_hits + self.stats.row_misses + self.stats.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.stats.row_hits as f64 / total as f64
        }
    }

    /// Queue-depth quantile (`q` in `[0, 1]`) from the dense histogram.
    pub fn queue_depth_quantile(&self, q: f64) -> usize {
        let total: u64 = self.queue_depth_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (depth, &n) in self.queue_depth_hist.iter().enumerate() {
            seen += n;
            if seen >= target {
                return depth;
            }
        }
        self.queue_depth_hist.len() - 1
    }

    /// Deepest queue depth observed.
    pub fn queue_depth_max(&self) -> usize {
        self.queue_depth_hist.iter().rposition(|&n| n > 0).unwrap_or(0)
    }
}

/// Scheduling statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Reads serviced.
    pub reads: u64,
    /// Writes serviced.
    pub writes: u64,
    /// Transactions that hit an open row.
    pub row_hits: u64,
    /// Transactions that required opening a row on an idle bank.
    pub row_misses: u64,
    /// Transactions that had to close another row first (conflicts).
    pub row_conflicts: u64,
    /// Activates issued.
    pub activates: u64,
    /// Precharges issued.
    pub precharges: u64,
    /// Refresh operations performed.
    pub refreshes: u64,
}

impl ChannelStats {
    /// Applies `f` to each counter of `self` and the same counter of
    /// `other`: the one field list behind every sum and difference of
    /// these statistics (a counter added to the struct but not here
    /// fails to compile).
    pub fn zip_counters(&mut self, other: &Self, mut f: impl FnMut(&mut u64, u64)) {
        let ChannelStats {
            reads,
            writes,
            row_hits,
            row_misses,
            row_conflicts,
            activates,
            precharges,
            refreshes,
        } = self;
        f(reads, other.reads);
        f(writes, other.writes);
        f(row_hits, other.row_hits);
        f(row_misses, other.row_misses);
        f(row_conflicts, other.row_conflicts);
        f(activates, other.activates);
        f(precharges, other.precharges);
        f(refreshes, other.refreshes);
    }
}

/// A run: consecutive arrivals of one batch on the same bank, row and
/// direction, which FR-FCFS serves back to back.
#[derive(Debug, Clone, Copy)]
struct Run {
    row: u64,
    /// Flat bank index and direction as one word, `bank · 2 + is_write`,
    /// so that one compare tells whether an arrival continues the run.
    key: u32,
    /// Where the run's transaction ids start in `Channel::ids`.
    first: u32,
    /// Transactions in the run; unknown (0) while it is the open tail.
    len: u32,
}

impl Run {
    /// The tail before a batch's first arrival: a key no transaction has.
    const NONE: Run = Run { row: 0, key: u32::MAX, first: 0, len: 0 };

    /// Flat bank index, `rank · banks + bank`.
    #[inline]
    fn bank(self) -> usize {
        (self.key >> 1) as usize
    }

    #[inline]
    fn is_write(self) -> bool {
        self.key & 1 != 0
    }
}

/// One bank with its utilization counters beside it.
#[derive(Debug, Clone, Copy)]
struct BankSlot {
    bank: Bank,
    /// Transactions serviced.
    touches: u64,
    /// Active service cycles.
    busy: u64,
}

/// The last four activate times of one rank (tRRD looks at the newest,
/// tFAW at the oldest), oldest at `next`.
#[derive(Debug, Clone, Copy)]
struct ActivateWindow {
    at: [i64; 4],
    next: usize,
}

impl ActivateWindow {
    /// Far enough in the past that neither tRRD nor tFAW binds.
    const LONG_AGO: i64 = i64::MIN / 2;

    fn new() -> Self {
        ActivateWindow { at: [Self::LONG_AGO; 4], next: 0 }
    }

    /// Earliest activate allowed by the window: tRRD after the newest
    /// activate and tFAW after the fourth-newest.
    #[inline]
    fn earliest(&self, cfg: &DramConfig) -> i64 {
        let newest = self.at[(self.next + 3) % 4];
        (newest + cfg.trrd as i64).max(self.at[self.next] + cfg.tfaw as i64)
    }

    #[inline]
    fn record(&mut self, at: i64) {
        self.at[self.next] = at;
        self.next = (self.next + 1) % 4;
    }
}

const WORD: usize = u64::BITS as usize;

/// One channel: banks, queue and data-bus state.
#[derive(Debug, Clone)]
pub struct Channel {
    cfg: DramConfig,
    /// `[rank · banks + bank]`.
    banks: Vec<BankSlot>,
    /// The ids of the batch's transactions in arrival order; a run names
    /// a range of it. Cleared, capacity kept, when the batch drains.
    ids: Vec<u32>,
    /// The run the latest arrival belongs to, open until an arrival that
    /// does not continue it closes it: its length is how far `ids` has got
    /// by then ([`Run::NONE`] between batches).
    tail: Run,
    /// The runs of the batch that could not be served on arrival, in
    /// submission (= age) order. Entries stay in place while the batch
    /// drains; the bitsets below say which are still waiting.
    queue: Vec<Run>,
    /// Bit `i`: `queue[i]` is unserviced.
    live: Vec<u64>,
    /// Bit `i`: `queue[i]` is unserviced and its row is open in its bank.
    hit: Vec<u64>,
    /// Word `w · banks.len() + b`: the entries `queue[64w..64w + 64]`
    /// that target flat bank `b`.
    member: Vec<u64>,
    /// Arrival cycle of the batch being collected: lower-bounds every
    /// issue time.
    now: i64,
    /// Whether the batch's read bursts hold the shared data bus.
    occupy_bus: bool,
    /// Cycle after which the shared data bus is free.
    bus_free: i64,
    /// Recent activate times per rank (for tFAW / tRRD).
    recent_activates: Vec<ActivateWindow>,
    /// Next refresh deadline per rank (`i64::MAX` with refresh off).
    next_refresh: Vec<i64>,
    /// Earliest deadline in `next_refresh`: one compare per transaction
    /// rules refresh out.
    refresh_due: i64,
    stats: ChannelStats,
    /// Latest data-burst finish over the run (the energy model's
    /// activity horizon).
    busy_until: i64,
    /// Breakdown of the longest-finishing transaction since the last
    /// [`Channel::begin_batch`] (the batch's critical transaction).
    batch_crit: Option<TxBreakdown>,
    /// Data-bus burst occupancy accumulated over the run.
    busy_cycles: u64,
    /// Drained batches by arrival count, the last entry counting those of
    /// `QUEUE_DEPTH_BUCKETS − 1` or more. Queue-depth bucket `k` counts the
    /// batches of more than `k` arrivals, a suffix sum of these taken when
    /// [`Channel::utilization`] asks: one add per batch, not per arrival.
    batch_arrivals: [u64; QUEUE_DEPTH_BUCKETS],
    /// Arrivals past the `QUEUE_DEPTH_BUCKETS − 1`-th of their batch: the
    /// saturating bucket of the queue-depth histogram.
    deep_arrivals: u64,
    /// Runs timed so far.
    runs: u64,
}

/// Index of the lowest set bit across `words`.
#[inline]
fn lowest(words: &[u64]) -> Option<usize> {
    words.iter().position(|&w| w != 0).map(|w| w * WORD + words[w].trailing_zeros() as usize)
}

impl Channel {
    /// Creates an idle channel.
    pub fn new(cfg: DramConfig) -> Self {
        let first_refresh = if cfg.trefi == 0 { i64::MAX } else { cfg.trefi as i64 };
        Channel {
            banks: vec![BankSlot { bank: Bank::new(), touches: 0, busy: 0 }; cfg.ranks * cfg.banks],
            ids: Vec::new(),
            tail: Run::NONE,
            queue: Vec::new(),
            live: Vec::new(),
            hit: Vec::new(),
            member: Vec::new(),
            now: 0,
            occupy_bus: true,
            bus_free: 0,
            recent_activates: vec![ActivateWindow::new(); cfg.ranks],
            next_refresh: vec![first_refresh; cfg.ranks],
            refresh_due: first_refresh,
            stats: ChannelStats::default(),
            busy_until: 0,
            batch_crit: None,
            busy_cycles: 0,
            batch_arrivals: [0; QUEUE_DEPTH_BUCKETS],
            deep_arrivals: 0,
            runs: 0,
            cfg,
        }
    }

    /// Opens a batch arriving at cycle `now`, which lower-bounds all its
    /// issue times, and resets the batch-critical breakdown. When
    /// `occupy_bus` is `false` read bursts do not hold the shared data
    /// bus (models an in-memory XOR hub that consumes read data locally
    /// and returns a single block). The previous batch must have been
    /// drained.
    pub fn begin_batch(&mut self, now: i64, occupy_bus: bool) {
        debug_assert!(
            self.queue.is_empty() && self.tail.key == Run::NONE.key,
            "previous batch not drained"
        );
        self.now = now;
        self.occupy_bus = occupy_bus;
        self.batch_crit = None;
    }

    /// Breakdown of the critical (longest-finishing) transaction serviced
    /// since the last [`Channel::begin_batch`], if any were serviced.
    pub fn batch_critical(&self) -> Option<TxBreakdown> {
        self.batch_crit
    }

    /// Utilization snapshot (allocates; intended for run boundaries, not
    /// the access hot path).
    pub fn utilization(&self) -> ChannelUtilization {
        ChannelUtilization {
            stats: self.stats,
            busy_cycles: self.busy_cycles,
            queue_depth_hist: self.queue_depth_hist(),
            bank_touches: self.banks.iter().map(|b| b.touches).collect(),
            bank_busy: self.banks.iter().map(|b| b.busy).collect(),
        }
    }

    /// The queue-depth histogram of [`ChannelUtilization`].
    fn queue_depth_hist(&self) -> Vec<u64> {
        let mut hist = vec![0; QUEUE_DEPTH_BUCKETS];
        let mut deeper = 0;
        for k in (0..QUEUE_DEPTH_BUCKETS - 1).rev() {
            deeper += self.batch_arrivals[k + 1];
            hist[k] = deeper;
        }
        hist[QUEUE_DEPTH_BUCKETS - 1] = self.deep_arrivals;
        hist
    }

    /// Queue depth of the controller this models, which holds every
    /// transaction of a batch until the batch drains: the arrivals since
    /// the last [`Channel::drain`].
    pub fn pending(&self) -> usize {
        self.ids.len()
    }

    /// Runs timed so far — what the scheduler handled, where
    /// [`ChannelStats`] counts the transactions in them. A host-side
    /// figure: no simulated output depends on where runs break.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Energy counters snapshot: the commands counted in
    /// [`Channel::stats`] plus the activity horizon.
    pub fn energy(&self) -> EnergyCounters {
        EnergyCounters {
            activates: self.stats.activates,
            precharges: self.stats.precharges,
            read_bursts: self.stats.reads,
            write_bursts: self.stats.writes,
            refreshes: self.stats.refreshes,
            busy_until: self.busy_until,
        }
    }

    /// Takes one transaction of the open batch: it continues the tail run
    /// or closes it and starts the next. A closed run that finds its row
    /// open with no refresh due is the next FR-FCFS pick whatever arrives
    /// behind it — every older hit was served the same way, a column
    /// command opens or closes no row, and no refresh can fall due during
    /// a batch, whose transactions all test against the same `now` — so
    /// it is timed here, its data-finish cycles written to `finishes` at
    /// its transactions' ids. Anything else waits for [`Channel::drain`].
    #[inline]
    pub fn submit(&mut self, t: Transaction, finishes: &mut [i64]) {
        let flat = (t.loc.rank * self.cfg.banks + t.loc.bank) as u32;
        let key = flat << 1 | u32::from(t.is_write);
        let at = self.ids.len() as u32;
        self.ids.push(t.id);
        if self.tail.key == key && self.tail.row == t.loc.row {
            return;
        }
        if let Some(run) = self.close_tail(at) {
            if self.refresh_due > self.now && self.banks[run.bank()].bank.is_open(run.row) {
                self.column_run(run, None, finishes);
            } else {
                self.queue.push(run);
            }
        }
        self.tail = Run { row: t.loc.row, key, first: at, len: 0 };
    }

    /// The tail run, closed by the arrival with index `end` in `ids`, if
    /// there is one.
    #[inline]
    fn close_tail(&self, end: u32) -> Option<Run> {
        let tail = self.tail;
        (tail.key != Run::NONE.key).then_some(Run { len: end - tail.first, ..tail })
    }

    /// Builds `live`, `hit` and `member` (all empty since the last drain)
    /// over the queued runs. Left until the batch drains: every bank's
    /// open row is still what each arrival saw — only column commands have
    /// run — and one pass here is cheaper than the same work spread over
    /// the arrival loop.
    fn index_queue(&mut self) {
        let stride = self.banks.len();
        let words = self.queue.len().div_ceil(WORD);
        self.live.resize(words, 0);
        self.hit.resize(words, 0);
        self.member.resize(words * stride, 0);
        for (w, runs) in self.queue.chunks(WORD).enumerate() {
            let mut hit = 0u64;
            for (i, run) in runs.iter().enumerate() {
                let flat = run.bank();
                self.member[w * stride + flat] |= 1 << i;
                hit |= u64::from(self.banks[flat].bank.is_open(run.row)) << i;
            }
            self.live[w] = u64::MAX >> (WORD - runs.len());
            self.hit[w] = hit;
        }
    }

    /// Services every queued run of the batch, writing each transaction's
    /// data-finish cycle to `finishes` at its id, without allocating.
    pub fn drain(&mut self, finishes: &mut [i64]) {
        let tail = self.close_tail(self.ids.len() as u32);
        self.tail = Run::NONE;
        // Nothing is queued when every earlier run found its row open (an
        // eviction write). Then the tail is all that waits, and the pick.
        // Behind queued runs it waits like them: if its row is open and no
        // refresh is due it is the one hit, and the loop's first stream
        // serves it before anything else, as on arrival.
        if self.queue.is_empty() {
            if let Some(tail) = tail {
                self.service_one(tail, finishes);
            }
        } else {
            self.queue.extend(tail);
            self.index_queue();
            loop {
                // FR-FCFS: the oldest run whose row is open, else the
                // oldest overall.
                let hit = lowest(&self.hit);
                if hit.is_some() && self.refresh_due > self.now {
                    self.stream_hits(finishes);
                    continue;
                }
                let Some(idx) = hit.or_else(|| lowest(&self.live)) else { break };
                let (w, bit) = (idx / WORD, 1u64 << (idx % WORD));
                self.live[w] &= !bit;
                self.hit[w] &= !bit;
                self.service_one(self.queue[idx], finishes);
            }
            self.queue.clear();
            self.live.clear();
            self.hit.clear();
            self.member.clear();
        }
        // The batch's k-th arrival found k transactions ahead of it.
        let arrivals = self.ids.len();
        let dense = arrivals.min(QUEUE_DEPTH_BUCKETS - 1);
        self.batch_arrivals[dense] += 1;
        self.deep_arrivals += (arrivals - dense) as u64;
        self.ids.clear();
    }

    /// Serves every waiting row hit, oldest first, in one pass over the
    /// `hit` words. With no refresh due these are the next FR-FCFS picks
    /// in this order, and the set cannot change before the next row
    /// command: a column command opens or closes no row. Kept out of
    /// line: inlined, its loop slows the pick loop of traffic that never
    /// gets here (scattered reads by 15 %).
    #[inline(never)]
    fn stream_hits(&mut self, finishes: &mut [i64]) {
        for w in 0..self.hit.len() {
            let mut hits = std::mem::take(&mut self.hit[w]);
            self.live[w] &= !hits;
            while hits != 0 {
                let run = self.queue[w * WORD + hits.trailing_zeros() as usize];
                self.column_run(run, None, finishes);
                hits &= hits - 1;
            }
        }
    }

    /// Recomputes the `hit` bits of flat bank `flat` after its open row
    /// changed to `open` (`None`: the bank went idle).
    fn rescan_bank(&mut self, flat: usize, open: Option<u64>) {
        let stride = self.banks.len();
        for w in 0..self.live.len() {
            let member = self.member[w * stride + flat];
            let mut hits = 0u64;
            if let Some(row) = open {
                let mut waiting = member & self.live[w];
                while waiting != 0 {
                    let i = waiting.trailing_zeros() as usize;
                    if self.queue[w * WORD + i].row == row {
                        hits |= 1 << i;
                    }
                    waiting &= waiting - 1;
                }
            }
            self.hit[w] = (self.hit[w] & !member) | hits;
        }
    }

    /// Issues all commands a picked `run` needs. The rank's refresh check
    /// and the row operation belong to the run's first transaction; the
    /// others follow it as row hits — a second check would find the rank
    /// refreshed — so a due refresh takes nothing from the closed form.
    fn service_one(&mut self, run: Run, finishes: &mut [i64]) {
        let (flat, base) = (run.bank(), self.now);
        if self.refresh_due <= base {
            self.maybe_refresh(flat / self.cfg.banks, base);
        }
        // The row operation the first column command waits behind: none
        // on a row hit, precharge-to-column-ready on a conflict,
        // activate-to-column-ready on a miss.
        let row_op = match self.banks[flat].bank.state() {
            RowState::Open(r) if r == run.row => None,
            RowState::Open(_) => {
                self.stats.row_conflicts += 1;
                let bank = &mut self.banks[flat].bank;
                let at = bank.earliest(Command::Precharge, &self.cfg).max(base);
                bank.issue(Command::Precharge, at, 0, &self.cfg);
                self.stats.precharges += 1;
                self.activate(run, base);
                Some((at, self.banks[flat].bank.row_ready(&self.cfg)))
            }
            RowState::Idle => {
                self.stats.row_misses += 1;
                let at = self.activate(run, base);
                Some((at, self.banks[flat].bank.row_ready(&self.cfg)))
            }
        };
        self.column_run(run, row_op, finishes);
    }

    /// Issues `run`'s column commands on its open row and writes their
    /// data-finish cycles to `finishes`. The first is constrained by bank
    /// readiness and bus occupancy; behind it nothing but this run's own
    /// bursts moves either, so command `k` issues `k` bursts later, or in
    /// the same cycle when the run's reads bypass the data bus. `row_op`
    /// is the `[start, end]` interval of the row operation the first
    /// command waited behind (`None`: it is a row hit, as the others
    /// always are). Arrival, the hit stream and the picks all end here, so
    /// this is the one place a transfer is timed and accounted — once per
    /// run: every bank timestamp is a maximum over issue times, which
    /// ascend, so the last command alone leaves the state all of them
    /// would. Inlined at its three call sites: a call costs more than the
    /// code it shares (PR 18 measured it for the per-block routine).
    #[inline(always)]
    fn column_run(&mut self, run: Run, row_op: Option<(i64, i64)>, finishes: &mut [i64]) {
        let base = self.now;
        let n = u64::from(run.len);
        let burst = self.cfg.burst_cycles() as i64;
        let slot = &mut self.banks[run.bank()];
        let cmd = if run.is_write() { Command::Write } else { Command::Read };
        let bank_ready = slot.bank.earliest(cmd, &self.cfg).max(base);
        // A data burst occupies the bus [issue+latency, issue+latency+burst).
        let latency = if run.is_write() { self.cfg.cwl } else { self.cfg.cl } as i64;
        let use_bus = self.occupy_bus || run.is_write();
        let (issue, step) = if use_bus {
            (bank_ready.max(self.bus_free - latency), burst)
        } else {
            (bank_ready, 0)
        };
        let transfer = latency + burst;
        let last_issue = issue + (n as i64 - 1) * step;
        slot.bank.issue(cmd, last_issue, run.row, &self.cfg);
        if use_bus {
            self.bus_free = last_issue + transfer;
            self.busy_cycles += n * burst as u64;
        }
        let mut finish = issue + transfer;
        for &id in &self.ids[run.first as usize..(run.first + run.len) as usize] {
            finishes[id as usize] = finish;
            finish += step;
        }

        // Exact decomposition of [base, finish] for the first command:
        // row cycles are the part of the row interval it actually waited
        // behind; everything else before issue is queueing. The others
        // waited behind no row operation.
        let row_d = match row_op {
            Some((start, end)) => {
                self.stats.row_hits += n - 1;
                end.min(issue).saturating_sub(start.max(base)).max(0) as u64
            }
            None => {
                self.stats.row_hits += n;
                0
            }
        };
        // The batch's critical transaction is the first to finish
        // strictly later than all before it: the run's last when its
        // finishes ascend, its first when they tie.
        let (crit_issue, crit_row) =
            if step > 0 && n > 1 { (last_issue, 0) } else { (issue, row_d) };
        if self.batch_crit.is_none_or(|c| crit_issue + transfer > c.finish) {
            self.batch_crit = Some(TxBreakdown {
                queue: (crit_issue - base) as u64 - crit_row,
                row: crit_row,
                transfer: transfer as u64,
                finish: crit_issue + transfer,
            });
        }
        slot.touches += n;
        slot.busy += row_d + n * transfer as u64;

        if run.is_write() {
            self.stats.writes += n;
        } else {
            self.stats.reads += n;
        }
        self.busy_until = self.busy_until.max(last_issue + transfer);
        self.runs += 1;
    }

    /// Opens `run`'s row respecting tRRD and tFAW for the rank, returning
    /// the cycle the activate was committed at.
    fn activate(&mut self, run: Run, base: i64) -> i64 {
        let flat = run.bank();
        let window = &mut self.recent_activates[flat / self.cfg.banks];
        let bank = &mut self.banks[flat].bank;
        let at =
            bank.earliest(Command::Activate, &self.cfg).max(base).max(window.earliest(&self.cfg));
        bank.issue(Command::Activate, at, run.row, &self.cfg);
        window.record(at);
        self.stats.activates += 1;
        self.rescan_bank(flat, Some(run.row));
        at
    }

    /// Performs any due refreshes for `rank` before `now` by stalling the
    /// whole rank for tRFC (all-bank refresh; rows must be precharged).
    #[cold]
    fn maybe_refresh(&mut self, rank: usize, now: i64) {
        if self.next_refresh[rank] > now {
            return;
        }
        let banks = rank * self.cfg.banks..(rank + 1) * self.cfg.banks;
        // Every refresh due by `now`, in closed form: the first precharges
        // the rank's open banks at its deadline; after it every bank is
        // idle, so the later ones precharge nothing, and as a stall only
        // raises a bank's timestamps to its resume cycle, the last one
        // leaves the state all of them would.
        let first = self.next_refresh[rank];
        let trefi = self.cfg.trefi as i64;
        let due = (now - first) / trefi + 1;
        // The whole rank is unavailable for tRFC after each deadline.
        let resume = first + (due - 1) * trefi + self.cfg.trfc as i64;
        for slot in &mut self.banks[banks.clone()] {
            if slot.bank.state() != RowState::Idle {
                let at = slot.bank.earliest(Command::Precharge, &self.cfg).max(first);
                slot.bank.issue(Command::Precharge, at, 0, &self.cfg);
                self.stats.precharges += 1;
            }
            slot.bank.stall_until(resume, &self.cfg);
        }
        self.stats.refreshes += due as u64;
        self.next_refresh[rank] = first + due * trefi;
        self.refresh_due = self.next_refresh.iter().copied().min().expect("at least one rank");
        for flat in banks {
            self.rescan_bank(flat, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::{AddressMapping, Interleave};

    fn cfg() -> DramConfig {
        let mut c = DramConfig::ddr3_1333();
        c.trefi = 0; // deterministic tests without refresh
        c
    }

    fn tx(id: u32, addr: u64, write: bool, cfg: &DramConfig) -> Transaction {
        let m = AddressMapping::new(cfg, Interleave::RowRankBankColChan);
        Transaction { id, loc: m.decode(addr), is_write: write }
    }

    /// One transaction's outcome.
    struct Done {
        id: u32,
        finish: i64,
    }

    /// Runs `txs` as one batch arriving at `now` (reads holding the bus)
    /// and returns their outcomes in finish order, whether they were
    /// served on arrival or by the drain.
    fn run(ch: &mut Channel, now: i64, txs: &[Transaction]) -> Vec<Done> {
        let mut finishes = vec![0; txs.iter().map(|t| t.id as usize + 1).max().unwrap_or(0)];
        ch.begin_batch(now, true);
        for &t in txs {
            ch.submit(t, &mut finishes);
        }
        ch.drain(&mut finishes);
        let mut done: Vec<Done> =
            txs.iter().map(|t| Done { id: t.id, finish: finishes[t.id as usize] }).collect();
        done.sort_by_key(|d| d.finish);
        done
    }

    #[test]
    fn single_read_latency_is_act_rcd_cl_burst() {
        let c = cfg();
        let mut ch = Channel::new(c);
        let done = run(&mut ch, 0, &[tx(1, 0, false, &c)]);
        assert_eq!(done.len(), 1);
        let expect = (c.trcd + c.cl + c.burst_cycles()) as i64;
        assert_eq!(done[0].finish, expect);
        assert_eq!(ch.stats().row_misses, 1);
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let c = cfg();
        let mut ch = Channel::new(c);
        // Same row: columns 0..8 on channel 0 (addresses step by
        // channels to stay on channel 0's row).
        let txs: Vec<Transaction> =
            (0..8u32).map(|i| tx(i, u64::from(i) * c.channels as u64, false, &c)).collect();
        let done = run(&mut ch, 0, &txs);
        assert_eq!(ch.stats().row_hits, 7);
        // After the first access, consecutive bursts complete every
        // burst_cycles (bus-limited streaming).
        let gaps: Vec<i64> = done.windows(2).map(|w| w[1].finish - w[0].finish).collect();
        assert!(gaps.iter().all(|&g| g == c.burst_cycles() as i64), "{gaps:?}");
    }

    #[test]
    fn a_run_ends_where_bank_row_or_direction_changes() {
        let c = cfg();
        let mut ch = Channel::new(c);
        let same_row = |i: u32, write| tx(i, u64::from(i) * c.channels as u64, write, &c);
        // Four reads of one row, two writes to it, then a read of the
        // next bank: three runs, timed as 4 + 2 + 1 transactions.
        let next_bank = (c.bursts_per_row() * c.channels) as u64;
        let mut txs: Vec<Transaction> = (0..4).map(|i| same_row(i, false)).collect();
        txs.extend((4..6).map(|i| same_row(i, true)));
        txs.push(tx(6, next_bank, false, &c));
        let done = run(&mut ch, 0, &txs);
        assert_eq!(ch.runs(), 3);
        assert_eq!((ch.stats().reads, ch.stats().writes), (5, 2));
        assert_eq!((ch.stats().row_misses, ch.stats().row_hits), (2, 5));
        assert!(done.iter().all(|d| d.finish > 0));
    }

    #[test]
    fn row_conflict_pays_precharge_plus_activate() {
        let c = cfg();
        let mut ch = Channel::new(c);
        // Same bank, different row: bursts_per_row*banks*ranks apart in
        // column-major decode; easier to construct via decode probing.
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let base = m.decode(0);
        let mut conflict_addr = None;
        for a in 1..1_000_000u64 {
            let l = m.decode(a);
            if l.channel == base.channel
                && l.rank == base.rank
                && l.bank == base.bank
                && l.row != base.row
            {
                conflict_addr = Some(a);
                break;
            }
        }
        let txs = [tx(1, 0, false, &c), tx(2, conflict_addr.unwrap(), false, &c)];
        let done = run(&mut ch, 0, &txs);
        assert_eq!(ch.stats().row_conflicts, 1);
        // Second access must wait ≥ tRAS + tRP after the first activate.
        let min_second = (c.tras + c.trp + c.trcd + c.cl + c.burst_cycles()) as i64;
        assert!(done[1].finish >= min_second, "{} < {min_second}", done[1].finish);
    }

    #[test]
    fn bank_parallelism_beats_serial_access() {
        let c = cfg();
        // Two different banks: overlap activates.
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let mut other_bank = None;
        let base = m.decode(0);
        for a in 1..1_000_000u64 {
            let l = m.decode(a);
            if l.channel == base.channel && (l.bank != base.bank || l.rank != base.rank) {
                other_bank = Some(a);
                break;
            }
        }
        let mut ch = Channel::new(c);
        let done = run(&mut ch, 0, &[tx(1, 0, false, &c), tx(2, other_bank.unwrap(), false, &c)]);
        let serial = 2 * (c.trcd + c.cl + c.burst_cycles()) as i64;
        assert!(done[1].finish < serial, "no overlap: {}", done[1].finish);
    }

    #[test]
    fn fr_fcfs_prefers_open_rows() {
        let c = cfg();
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let mut ch = Channel::new(c);
        // t1 opens row R; t2 conflicts (same bank, other row); t3 hits R.
        let base = m.decode(0);
        let mut conflict = None;
        for a in 1..1_000_000u64 {
            let l = m.decode(a);
            if l.channel == base.channel
                && l.rank == base.rank
                && l.bank == base.bank
                && l.row != base.row
            {
                conflict = Some(a);
                break;
            }
        }
        let txs = [
            tx(1, 0, false, &c),
            tx(2, conflict.unwrap(), false, &c),
            tx(3, c.channels as u64, false, &c), // same row as t1
        ];
        let done = run(&mut ch, 0, &txs);
        let order: Vec<u32> = done.iter().map(|d| d.id).collect();
        assert_eq!(order, vec![1, 3, 2], "row hit t3 bypasses conflicting t2");
    }

    #[test]
    fn writes_then_reads_respect_turnaround() {
        let c = cfg();
        let mut ch = Channel::new(c);
        // A write, then a read of the same row.
        let done = run(&mut ch, 0, &[tx(1, 0, true, &c), tx(2, c.channels as u64, false, &c)]);
        assert_eq!(ch.stats().writes, 1);
        assert_eq!(ch.stats().reads, 1);
        assert!(done[1].finish > done[0].finish);
        // The spacing the model produces is bus occupancy alone: the read
        // burst starts the cycle the write burst ends. tWTR is not
        // enforced — DDR3 would hold the read command until tWTR after
        // the write data, finishing it at 21 + tWTR + CL + burst = 40.
        let burst = c.burst_cycles() as i64;
        assert_eq!(done[0].finish, (c.trcd + c.cwl) as i64 + burst);
        assert_eq!(done[1].finish, done[0].finish + burst);
    }

    #[test]
    fn breakdown_partitions_service_time_exactly() {
        let c = cfg();
        let mut ch = Channel::new(c);
        ch.begin_batch(0, true);
        assert!(ch.batch_critical().is_none());
        // Second: a same-row hit.
        let done = run(&mut ch, 0, &[tx(1, 0, false, &c), tx(2, c.channels as u64, false, &c)]);
        let crit = ch.batch_critical().expect("batch serviced");
        let last = done.iter().map(|d| d.finish).max().unwrap();
        assert_eq!(crit.finish, last, "critical transaction is the longest-finishing");
        assert_eq!(
            crit.queue + crit.row + crit.transfer,
            crit.finish as u64,
            "components partition [base, finish] exactly"
        );
        ch.begin_batch(crit.finish, true);
        assert!(ch.batch_critical().is_none(), "begin_batch resets");
    }

    #[test]
    fn utilization_counters_accumulate_and_delta() {
        let c = cfg();
        let mut ch = Channel::new(c);
        let before = ch.utilization();
        let txs: Vec<Transaction> =
            (0..4u32).map(|i| tx(i, u64::from(i) * c.channels as u64, false, &c)).collect();
        run(&mut ch, 0, &txs);
        let d = ch.utilization().delta(&before);
        assert_eq!(d.stats.reads, 4);
        assert_eq!(d.busy_cycles, 4 * c.burst_cycles());
        // Queue depth is sampled at arrival: depths 0, 1, 2, 3.
        assert_eq!(d.queue_depth_hist.iter().sum::<u64>(), 4);
        assert_eq!(d.queue_depth_max(), 3);
        assert_eq!(d.queue_depth_quantile(0.5), 1);
        assert_eq!(d.bank_touches.iter().sum::<u64>(), 4);
        assert!(d.bank_busy.iter().sum::<u64>() > 0);
        // Three of four accesses hit the open row.
        assert!((d.row_hit_rate() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn refresh_inserts_stall() {
        let mut c = DramConfig::ddr3_1333();
        c.trefi = 100;
        c.trfc = 50;
        let mut ch = Channel::new(c);
        // Arrival after two refresh intervals.
        let done = run(&mut ch, 250, &[tx(1, 0, false, &c)]);
        assert!(ch.stats().refreshes >= 2);
        // Finish must be at least after the last refresh window + access.
        assert!(done[0].finish >= 250 + (c.trcd + c.cl + c.burst_cycles()) as i64);
    }
}
