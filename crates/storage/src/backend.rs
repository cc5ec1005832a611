//! The storage-backend trait: batched block I/O with deterministic
//! timing, a per-batch cost breakdown, and optional payload
//! persistence.

use oram_dram::{BlockRequest, ChannelStats, ChannelUtilization, TxBreakdown};
use oram_protocol::Block;
use oram_util::{SharedObserver, SharedTelemetry};

/// Cycle decomposition of one serviced batch's critical (slowest)
/// request, in the backend clock domain.
///
/// The four cost components partition `[base, finish]` exactly, where
/// `base = max(now, arrival)` is when the batch entered the backend:
/// `queue + row + network + transfer == finish − base`. The engine
/// converts the boundaries to CPU cycles with a monotone clamped
/// cursor, so per-access attribution always sums to the span duration
/// regardless of clock-domain rounding.
///
/// Components map per backend:
///
/// * DRAM — `queue` is bank/bus/refresh wait, `row` is
///   precharge/activate, `transfer` is CAS + burst; `network` is 0.
/// * Disk — `row` models device positioning (seek/settle) per batch,
///   `transfer` is per-block media transfer; `queue` and `network`
///   are 0.
/// * WAN — `network` is the round-trip latency paid once per request
///   round (batching amortizes it), `transfer` is serialized bytes on
///   the link; `queue` and `row` are 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchBreakdown {
    /// Cycles waiting before the critical request could make progress.
    pub queue: u64,
    /// Cycles of device positioning (DRAM row operations, disk seek).
    pub row: u64,
    /// Cycles of network round-trip latency (0 for local backends).
    pub network: u64,
    /// Cycles of data transfer for the critical request.
    pub transfer: u64,
    /// Absolute finish time (backend clock) of the critical request.
    pub finish: i64,
}

impl BatchBreakdown {
    /// Lifts the DRAM model's critical-transaction breakdown into the
    /// backend-agnostic form (`network` = 0).
    pub fn from_tx(tx: TxBreakdown) -> Self {
        BatchBreakdown {
            queue: tx.queue,
            row: tx.row,
            network: 0,
            transfer: tx.transfer,
            finish: tx.finish,
        }
    }
}

/// A bucket-storage backend: services batched block requests with
/// deterministic completion times and optionally persists bucket
/// payloads.
///
/// The contract mirrors how the engine drives the DRAM model:
///
/// * [`StorageBackend::service_batch_into`] is the hot path — called
///   once per DRAM phase with a reused request buffer, it must write
///   one completion time per request (submission order) into the
///   caller's buffer and **allocate nothing** in steady state.
/// * Each request must be reported to the attached bus observer as a
///   [`oram_util::BusEvent::DramBlock`] *in submission order* before
///   timing is computed, so bus traces are backend-invariant and the
///   obliviousness audit applies unchanged.
/// * Completion times are in the backend clock domain (the engine
///   converts; see `SystemConfig::to_dram_cycles`). State may persist
///   across batches (DRAM row buffers do; the WAN model is
///   stateless).
/// * [`StorageBackend::last_batch_breakdown`] reports the critical
///   request's cost split for the most recent non-empty batch. The
///   critical request finishes last: its `finish` is the batch's
///   latest completion, which the engine reads as the batch end instead
///   of scanning the per-request finishes.
///
/// Payload persistence is opt-in: backends that return `true` from
/// [`StorageBackend::wants_payloads`] receive the post-eviction bucket
/// contents via [`StorageBackend::persist_bucket`]. The default no-op
/// implementations keep the timing-only backends allocation-free.
pub trait StorageBackend: std::fmt::Debug + Send {
    /// Services a batch of block requests arriving together at backend
    /// cycle `now`, writing each request's completion cycle into
    /// `finishes` (cleared and resized) **in submission order**.
    /// `occupy_bus` is false when the XOR-compression hub consumes read
    /// data locally instead of transferring every block.
    fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    );

    /// Cost decomposition of the most recent batch's critical request;
    /// `None` if the last batch was empty. Valid until the next
    /// [`StorageBackend::service_batch_into`] call.
    fn last_batch_breakdown(&self) -> Option<BatchBreakdown>;

    /// Attaches (or with `None` detaches) a bus observer that must see
    /// every block request at submission, in order.
    fn set_observer(&mut self, observer: Option<SharedObserver>);

    /// Attaches (or with `None` detaches) a telemetry sink (queue-depth
    /// sampling and the like; backends without queues may ignore it).
    fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>);

    /// Merged request statistics over the run.
    fn stats(&self) -> ChannelStats;

    /// Energy counters over the run (all-zero for backends without an
    /// energy model).
    fn energy(&self) -> oram_dram::EnergyCounters;

    /// Per-channel utilization snapshots (allocates; call at run
    /// boundaries). Empty for backends without channels.
    fn utilization(&self) -> Vec<ChannelUtilization> {
        Vec::new()
    }

    /// `true` when the backend durably stores bucket payloads and wants
    /// [`StorageBackend::persist_bucket`] calls after eviction writes.
    fn wants_payloads(&self) -> bool {
        false
    }

    /// Durably records the post-write contents of one bucket (heap
    /// index `bucket`). Only called when
    /// [`StorageBackend::wants_payloads`] returns `true`.
    fn persist_bucket(&mut self, _bucket: u64, _slots: &[Block]) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    use oram_util::Rng64;

    use crate::{DiskBackend, DiskConfig, DramBackend, WanBackend, WanConfig};
    use oram_dram::{BlockRequest, DramConfig};

    /// Seeded batches of path-like stretches and scattered blocks, mixed
    /// directions, arriving back to back or after idle gaps; checks after
    /// every one that the critical request's finish is the batch's latest.
    fn critical_finish_is_the_latest(
        backend: &mut dyn StorageBackend,
        occupy_bus: bool,
        seed: u64,
    ) {
        let mut rng = Rng64::seed_from_u64(seed);
        let (mut now, mut finishes) = (0i64, Vec::new());
        for batch in 0..300 {
            let (mut reqs, len) = (Vec::new(), 1 + rng.below(90) as usize);
            while reqs.len() < len {
                let base = rng.below(1 << 16);
                let is_write = rng.gen_bool(0.3);
                for addr in base..base + 1 + rng.below(12) {
                    reqs.push(BlockRequest { addr, is_write });
                }
            }
            backend.service_batch_into(now, &reqs, occupy_bus, &mut finishes);
            let bd = backend.last_batch_breakdown().expect("non-empty batch");
            let latest = *finishes.iter().max().expect("non-empty batch");
            assert_eq!(bd.finish, latest, "{backend:?}: batch {batch}, occupy_bus {occupy_bus}");
            now = latest + if rng.gen_bool(0.2) { rng.below(20_000) as i64 } else { 0 };
        }
    }

    #[test]
    fn every_backend_ends_a_batch_with_its_critical_request() {
        for occupy_bus in [true, false] {
            // DDR3 timing with refresh on, over one and two channels.
            for channels in [1, 2] {
                let cfg = DramConfig { channels, ..DramConfig::ddr3_1333() };
                let mut dram = DramBackend::new(cfg).unwrap();
                critical_finish_is_the_latest(&mut dram, occupy_bus, 0xC0_0001 + channels as u64);
            }
            for batch in 1..=16 {
                let cfg = WanConfig { rtt_cycles: 700, per_block_cycles: 9, batch };
                let mut wan = WanBackend::new(cfg).unwrap();
                critical_finish_is_the_latest(&mut wan, occupy_bus, 0xC0_0100 + batch as u64);
            }
            let dir = std::env::temp_dir()
                .join(format!("oram-storage-critical-{occupy_bus}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut disk = DiskBackend::new(DiskConfig::new(dir.clone(), 5, 1 << 14)).unwrap();
            critical_finish_is_the_latest(&mut disk, occupy_bus, 0xC0_0200);
            drop(disk);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn breakdown_lifts_tx_with_zero_network() {
        let tx = TxBreakdown { queue: 5, row: 7, transfer: 11, finish: 40 };
        let bd = BatchBreakdown::from_tx(tx);
        assert_eq!(bd.queue, 5);
        assert_eq!(bd.row, 7);
        assert_eq!(bd.network, 0);
        assert_eq!(bd.transfer, 11);
        assert_eq!(bd.finish, 40);
    }
}
