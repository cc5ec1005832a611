//! The multi-channel DRAM system facade used by the ORAM simulator.

use oram_util::{BusEvent, EventBatch, MetricId, SharedObserver, SharedTelemetry};

use crate::address::{AddressMapping, Interleave};
use crate::config::DramConfig;
use crate::controller::{Channel, ChannelStats, ChannelUtilization, Transaction, TxBreakdown};
use crate::energy::EnergyCounters;

/// One block request submitted to the system: a 64-byte read or write at a
/// physical block address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRequest {
    /// Physical block address (units of 64 B).
    pub addr: u64,
    /// `true` for writes.
    pub is_write: bool,
}

impl BlockRequest {
    /// Convenience constructor for a read.
    pub fn read(addr: u64) -> Self {
        BlockRequest { addr, is_write: false }
    }

    /// Convenience constructor for a write.
    pub fn write(addr: u64) -> Self {
        BlockRequest { addr, is_write: true }
    }
}

/// Reports one storage batch to the bus observer behind `bus`: every
/// request as a [`BusEvent::DramBlock`], in submission order, handed over
/// in a single call. Every storage backend reports through here, so the
/// device-level trace cannot drift between them.
pub fn report_blocks(bus: &mut EventBatch, reqs: &[BlockRequest]) {
    bus.extend(reqs.iter().map(|r| BusEvent::DramBlock { addr: r.addr, write: r.is_write }));
    bus.flush();
}

/// The DRAM system: one controller per channel plus the shared address
/// mapping. Bank and row-buffer state persists across batches, so
/// consecutive ORAM path accesses interact (row reuse, open-page wins).
///
/// ```
/// use oram_dram::{DramSystem, DramConfig, BlockRequest};
///
/// let mut dram = DramSystem::new(DramConfig::ddr3_1333()).unwrap();
/// let done = dram.service_batch(0, &[BlockRequest::read(0), BlockRequest::read(1)]);
/// assert_eq!(done.len(), 2);
/// assert!(done[0] > 0);
/// ```
#[derive(Debug, Clone)]
pub struct DramSystem {
    cfg: DramConfig,
    mapping: AddressMapping,
    channels: Vec<Channel>,
    /// Optional bus observer; cloning the system shares it.
    bus: EventBatch,
    /// Optional telemetry sink sampling per-channel queue occupancy at
    /// each batch submission; cloning the system shares it.
    telemetry: Option<SharedTelemetry>,
    /// Completion buffer for [`DramSystem::single_read_latency`].
    scratch: Vec<i64>,
}

impl DramSystem {
    /// Builds a system from `cfg` with the default interleave.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(cfg: DramConfig) -> Result<Self, String> {
        Self::with_interleave(cfg, Interleave::RowRankBankColChan)
    }

    /// Builds a system with an explicit interleave order.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn with_interleave(cfg: DramConfig, il: Interleave) -> Result<Self, String> {
        cfg.validate()?;
        Ok(DramSystem {
            mapping: AddressMapping::new(&cfg, il),
            channels: (0..cfg.channels).map(|_| Channel::new(cfg)).collect(),
            bus: EventBatch::default(),
            telemetry: None,
            scratch: Vec::new(),
            cfg,
        })
    }

    /// Attaches (or with `None` detaches) a bus observer that sees every
    /// block request at submission, in order — the device-level half of
    /// the externally visible trace.
    pub fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.bus.set_observer(observer);
    }

    /// Attaches (or with `None` detaches) a telemetry sink that samples
    /// each channel's transaction-queue occupancy right after every batch
    /// submission — the paper's queueing-pressure view of an ORAM path
    /// access. One branch on `None` when detached.
    pub fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>) {
        self.telemetry = telemetry;
    }

    /// The configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Services a batch of block requests arriving together at DRAM cycle
    /// `now`, returning each request's completion cycle **in submission
    /// order**. Bank state persists to the next batch.
    ///
    /// Requests arrive in order; channels schedule independently with
    /// FR-FCFS, which is how an ORAM path access behaves: the controller
    /// issues the whole path and blocks arrive as banks allow.
    pub fn service_batch(&mut self, now: i64, reqs: &[BlockRequest]) -> Vec<i64> {
        self.service_batch_with(now, reqs, true)
    }

    /// Like [`DramSystem::service_batch`] but with explicit control over
    /// data-bus occupancy for reads (see [`Channel::begin_batch`]); used by
    /// the XOR-compression model, where the in-memory hub consumes read
    /// data locally.
    pub fn service_batch_with(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
    ) -> Vec<i64> {
        let mut finishes = Vec::new();
        self.service_batch_into(now, reqs, occupy_bus, &mut finishes);
        finishes
    }

    /// Like [`DramSystem::service_batch_with`], but writes the completion
    /// cycles into a caller-owned buffer (cleared and resized to
    /// `reqs.len()`). Reusing one buffer across batches keeps the
    /// simulator's per-access hot loop allocation-free.
    pub fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    ) {
        report_blocks(&mut self.bus, reqs);
        assert!(u32::try_from(reqs.len()).is_ok(), "batch larger than 2^32 requests");
        finishes.clear();
        finishes.resize(reqs.len(), 0);
        for ch in &mut self.channels {
            ch.begin_batch(now, occupy_bus);
        }
        // Each channel cuts its arrivals into same-row runs. A run that
        // finds its row open completes as the next arrival closes it; the
        // rest queue for the drain below.
        for (i, r) in reqs.iter().enumerate() {
            let loc = self.mapping.decode(r.addr);
            let t = Transaction { id: i as u32, loc, is_write: r.is_write };
            self.channels[loc.channel].submit(t, finishes);
        }
        if let Some(t) = &self.telemetry {
            if !reqs.is_empty() {
                let mut t = t.lock().expect("telemetry poisoned");
                for ch in &self.channels {
                    t.sample(MetricId::DramQueueDepth, ch.pending() as u64);
                }
            }
        }
        for ch in &mut self.channels {
            ch.drain(finishes);
        }
    }

    /// Cycle decomposition of the most recent batch's critical
    /// transaction — the one whose finish time bounded the batch across
    /// all channels. `None` if the last batch was empty. Valid until the
    /// next `service_batch*` call.
    pub fn last_batch_breakdown(&self) -> Option<TxBreakdown> {
        self.channels.iter().filter_map(Channel::batch_critical).max_by_key(|bd| bd.finish)
    }

    /// Per-channel utilization snapshots (allocates; call at run
    /// boundaries, not per access).
    pub fn utilization(&self) -> Vec<ChannelUtilization> {
        self.channels.iter().map(Channel::utilization).collect()
    }

    /// Latency (in DRAM cycles, relative to `now`) of one isolated block
    /// read — the insecure-baseline cost of an LLC miss.
    pub fn single_read_latency(&mut self, now: i64, addr: u64) -> i64 {
        let mut done = std::mem::take(&mut self.scratch);
        self.service_batch_into(now, &[BlockRequest::read(addr)], true, &mut done);
        let latency = done[0] - now;
        self.scratch = done;
        latency
    }

    /// Same-row runs timed so far across channels: the units the
    /// scheduler queued, picked and timed for the transactions
    /// [`DramSystem::stats`] counts (see [`Channel::runs`]).
    pub fn runs(&self) -> u64 {
        self.channels.iter().map(Channel::runs).sum()
    }

    /// Merged statistics across channels.
    pub fn stats(&self) -> ChannelStats {
        let mut total = ChannelStats::default();
        for ch in &self.channels {
            total.zip_counters(&ch.stats(), |a, b| *a += b);
        }
        total
    }

    /// Merged energy counters across channels.
    pub fn energy(&self) -> EnergyCounters {
        self.channels.iter().fold(EnergyCounters::default(), |acc, ch| acc.merged(ch.energy()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        let mut c = DramConfig::ddr3_1333();
        c.trefi = 0;
        c
    }

    #[test]
    fn batch_completes_all_in_order_ids() {
        let mut d = DramSystem::new(cfg()).unwrap();
        let reqs: Vec<BlockRequest> = (0..32).map(BlockRequest::read).collect();
        let done = d.service_batch(0, &reqs);
        assert_eq!(done.len(), 32);
        assert!(done.iter().all(|&f| f > 0));
    }

    #[test]
    fn two_channels_roughly_double_throughput() {
        let mut two = DramSystem::new(cfg()).unwrap();
        let mut one =
            DramSystem::new(DramConfig { channels: 1, trefi: 0, ..DramConfig::ddr3_1333() })
                .unwrap();
        // A long sequential stream.
        let reqs: Vec<BlockRequest> = (0..512).map(BlockRequest::read).collect();
        let t2 = *two.service_batch(0, &reqs).iter().max().unwrap();
        let t1 = *one.service_batch(0, &reqs).iter().max().unwrap();
        let ratio = t1 as f64 / t2 as f64;
        assert!(ratio > 1.6, "two channels should be ~2x: ratio {ratio}");
    }

    #[test]
    fn sequential_stream_approaches_peak_bandwidth() {
        let c = cfg();
        let mut d = DramSystem::new(c).unwrap();
        let n = 2048usize;
        let reqs: Vec<BlockRequest> = (0..n as u64).map(BlockRequest::read).collect();
        let finish = *d.service_batch(0, &reqs).iter().max().unwrap();
        let bytes = (n * 64) as f64;
        let ns = c.cycles_to_ns(finish as u64);
        let gbps = bytes / ns;
        let peak = c.peak_bandwidth_gbps();
        assert!(gbps > 0.7 * peak, "sequential stream only reached {gbps:.1} of {peak:.1} GB/s");
    }

    #[test]
    fn bank_conflict_stream_is_slower_than_sequential() {
        // With 16 banks per channel a scattered stream stays bus-bound, so
        // the honest worst case is a same-bank different-row stream: every
        // access pays a full row cycle on one bank.
        let c = cfg();
        let m = AddressMapping::new(&c, Interleave::RowRankBankColChan);
        let base = m.decode(0);
        let mut conflicts = Vec::new();
        let mut a = 1u64;
        let mut last_row = base.row;
        while conflicts.len() < 64 {
            let l = m.decode(a);
            if l.channel == base.channel
                && l.rank == base.rank
                && l.bank == base.bank
                && l.row != last_row
            {
                conflicts.push(BlockRequest::read(a));
                last_row = l.row;
            }
            a += 1;
        }
        let mut seq = DramSystem::new(c).unwrap();
        let mut cfl = DramSystem::new(c).unwrap();
        let seq_reqs: Vec<BlockRequest> = (0..64).map(BlockRequest::read).collect();
        let t_seq = *seq.service_batch(0, &seq_reqs).iter().max().unwrap();
        let t_cfl = *cfl.service_batch(0, &conflicts).iter().max().unwrap();
        assert!(
            t_cfl > 2 * t_seq,
            "conflict stream {t_cfl} should be far slower than sequential {t_seq}"
        );
    }

    #[test]
    fn state_persists_across_batches() {
        let c = cfg();
        let mut d = DramSystem::new(c).unwrap();
        let first = d.service_batch(0, &[BlockRequest::read(0)]);
        // Second batch to the same row starts later but should be a row hit.
        let now = first[0];
        let _ = d.service_batch(now, &[BlockRequest::read(c.channels as u64)]);
        assert_eq!(d.stats().row_hits, 1);
    }

    #[test]
    fn single_read_latency_is_positive_and_stable() {
        let mut d = DramSystem::new(cfg()).unwrap();
        let l1 = d.single_read_latency(0, 4096);
        assert!(l1 > 0);
        let l2 = d.single_read_latency(10_000, 4096 + 2);
        // Row hit the second time: strictly cheaper or equal.
        assert!(l2 <= l1);
    }

    #[test]
    fn batch_breakdown_tracks_the_critical_transaction() {
        let mut d = DramSystem::new(cfg()).unwrap();
        assert!(d.last_batch_breakdown().is_none());
        let reqs: Vec<BlockRequest> = (0..32).map(BlockRequest::read).collect();
        let now = 1000;
        let done = d.service_batch(now, &reqs);
        let crit = d.last_batch_breakdown().expect("non-empty batch");
        assert_eq!(crit.finish, *done.iter().max().unwrap());
        assert_eq!(
            crit.queue + crit.row + crit.transfer,
            (crit.finish - now) as u64,
            "critical breakdown partitions [now, finish] exactly"
        );
        // An empty batch resets the tracking.
        d.service_batch(crit.finish, &[]);
        assert!(d.last_batch_breakdown().is_none());
    }

    #[test]
    fn utilization_reports_every_channel() {
        let c = cfg();
        let mut d = DramSystem::new(c).unwrap();
        let reqs: Vec<BlockRequest> = (0..64).map(BlockRequest::read).collect();
        d.service_batch(0, &reqs);
        let util = d.utilization();
        assert_eq!(util.len(), c.channels);
        let total_reads: u64 = util.iter().map(|u| u.stats.reads).sum();
        assert_eq!(total_reads, 64);
        assert!(util.iter().all(|u| u.busy_cycles > 0));
    }

    #[test]
    fn writes_are_counted() {
        let mut d = DramSystem::new(cfg()).unwrap();
        d.service_batch(0, &[BlockRequest::write(0), BlockRequest::read(64)]);
        assert_eq!(d.stats().writes, 1);
        assert_eq!(d.stats().reads, 1);
        assert!(d.energy().write_bursts == 1);
    }
}
