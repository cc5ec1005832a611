//! A deterministic simulated-WAN storage backend: buckets live across a
//! network, so the dominant cost is round-trip latency, and batching
//! path requests amortizes it.

use oram_dram::{report_blocks, BlockRequest, ChannelStats, EnergyCounters};
use oram_util::{EventBatch, SharedObserver, SharedTelemetry};

use crate::backend::{BatchBreakdown, StorageBackend};

/// Cost model of the simulated network store. All times are in backend
/// cycles (the engine converts from CPU cycles exactly as it does for
/// the DRAM clock), and the model is jitter-free: two runs with the
/// same configuration produce bit-identical timings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanConfig {
    /// Round-trip latency paid once per request round.
    pub rtt_cycles: u64,
    /// Link serialization time per 64-byte block (the bandwidth term).
    pub per_block_cycles: u64,
    /// Requests per network round: a path access of `n` blocks costs
    /// `ceil(n / batch)` round trips. 1 models naive per-block RPCs;
    /// larger values amortize the RTT (the cloud-ORAM batching lever).
    pub batch: usize,
}

impl WanConfig {
    /// A 10 ms-class WAN at DRAM-cycle resolution: the regime where the
    /// RTT dwarfs every other term.
    pub fn default_wan() -> Self {
        WanConfig { rtt_cycles: 666_667, per_block_cycles: 8, batch: 4 }
    }

    /// Builds a config from an RTT in microseconds and the backend
    /// clock period in nanoseconds (`tck_ns`, the DRAM tCK the engine's
    /// clock conversion already uses).
    pub fn from_rtt_us(rtt_us: f64, tck_ns: f64, per_block_cycles: u64, batch: usize) -> Self {
        WanConfig {
            rtt_cycles: ((rtt_us * 1000.0) / tck_ns).round().max(1.0) as u64,
            per_block_cycles,
            batch,
        }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns a one-line description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.rtt_cycles == 0 {
            return Err("wan: rtt_cycles must be positive".into());
        }
        if self.batch == 0 {
            return Err("wan: batch must be positive".into());
        }
        Ok(())
    }
}

/// The simulated-WAN backend.
///
/// Request `i` of a batch completes at
/// `now + (i / batch + 1) * rtt + transfer(i)`: its round's round trip
/// plus the link serialization of everything up to and including it.
/// With XOR compression (`occupy_bus == false`) the remote hub returns
/// one combined block, so the transfer term is a single block per
/// round instead of cumulative.
#[derive(Debug, Clone)]
pub struct WanBackend {
    cfg: WanConfig,
    bus: EventBatch,
    stats: ChannelStats,
    last: Option<BatchBreakdown>,
}

impl WanBackend {
    /// Builds the backend.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(cfg: WanConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(WanBackend {
            cfg,
            bus: EventBatch::default(),
            stats: ChannelStats::default(),
            last: None,
        })
    }

    /// The cost model in force.
    pub fn config(&self) -> &WanConfig {
        &self.cfg
    }
}

impl StorageBackend for WanBackend {
    fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    ) {
        report_blocks(&mut self.bus, reqs);
        finishes.clear();
        finishes.resize(reqs.len(), 0);
        if reqs.is_empty() {
            self.last = None;
            return;
        }
        let rtt = self.cfg.rtt_cycles as i64;
        let per_block = self.cfg.per_block_cycles as i64;
        let batch = self.cfg.batch as i64;
        for (i, r) in reqs.iter().enumerate() {
            if r.is_write {
                self.stats.writes += 1;
            } else {
                self.stats.reads += 1;
            }
            let i = i as i64;
            let round = i / batch;
            let transfer = if occupy_bus { (i + 1) * per_block } else { per_block };
            finishes[i as usize] = now + (round + 1) * rtt + transfer;
        }
        let n = reqs.len() as i64;
        let rounds = (n - 1) / batch + 1;
        let transfer = if occupy_bus { n * per_block } else { per_block };
        self.last = Some(BatchBreakdown {
            queue: 0,
            row: 0,
            network: (rounds * rtt) as u64,
            transfer: transfer as u64,
            finish: now + rounds * rtt + transfer,
        });
    }

    fn last_batch_breakdown(&self) -> Option<BatchBreakdown> {
        self.last
    }

    fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.bus.set_observer(observer);
    }

    fn set_telemetry(&mut self, _telemetry: Option<SharedTelemetry>) {}

    fn stats(&self) -> ChannelStats {
        self.stats
    }

    fn energy(&self) -> EnergyCounters {
        EnergyCounters::default()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use oram_util::BusEvent;

    use super::*;

    fn run(cfg: WanConfig, n: usize) -> (Vec<i64>, BatchBreakdown) {
        let mut wan = WanBackend::new(cfg).unwrap();
        let reqs: Vec<BlockRequest> = (0..n as u64).map(BlockRequest::read).collect();
        let mut f = Vec::new();
        wan.service_batch_into(1000, &reqs, true, &mut f);
        let bd = wan.last_batch_breakdown().unwrap();
        (f, bd)
    }

    #[test]
    fn breakdown_partitions_the_batch_exactly() {
        let cfg = WanConfig { rtt_cycles: 500, per_block_cycles: 3, batch: 4 };
        let (f, bd) = run(cfg, 10);
        assert_eq!(bd.finish, *f.iter().max().unwrap());
        assert_eq!(bd.queue + bd.row + bd.network + bd.transfer, (bd.finish - 1000) as u64);
        // 10 requests in rounds of 4 => 3 round trips.
        assert_eq!(bd.network, 3 * 500);
        assert_eq!(bd.transfer, 10 * 3);
    }

    #[test]
    fn batching_amortizes_round_trips_monotonically() {
        // Fixed RTT, growing batch: the batch finish time must be
        // monotone non-increasing in the batch size, strictly down from
        // batch 1 to 2 while rounds still dominate.
        let finishes: Vec<i64> = [1, 2, 4, 8, 16, 32]
            .iter()
            .map(|&b| {
                let cfg = WanConfig { rtt_cycles: 10_000, per_block_cycles: 2, batch: b };
                run(cfg, 52).1.finish
            })
            .collect();
        for w in finishes.windows(2) {
            assert!(w[1] <= w[0], "batching must never slow a batch: {finishes:?}");
        }
        assert!(finishes[1] < finishes[0], "doubling the batch must save round trips");
    }

    #[test]
    fn xor_mode_transfers_one_block_per_round() {
        let cfg = WanConfig { rtt_cycles: 500, per_block_cycles: 7, batch: 64 };
        let mut wan = WanBackend::new(cfg).unwrap();
        let reqs: Vec<BlockRequest> = (0..8).map(BlockRequest::read).collect();
        let mut f = Vec::new();
        wan.service_batch_into(0, &reqs, false, &mut f);
        assert_eq!(wan.last_batch_breakdown().unwrap().transfer, 7);
    }

    #[test]
    fn observer_sees_every_request_in_order() {
        let tape = Arc::new(Mutex::new(Vec::<BusEvent>::new()));
        let mut wan = WanBackend::new(WanConfig::default_wan()).unwrap();
        wan.set_observer(Some(tape.clone()));
        let reqs = vec![BlockRequest::read(7), BlockRequest::write(9), BlockRequest::read(11)];
        let mut f = Vec::new();
        wan.service_batch_into(0, &reqs, true, &mut f);
        let got = &tape.lock().unwrap();
        assert_eq!(
            got.as_slice(),
            &[
                BusEvent::DramBlock { addr: 7, write: false },
                BusEvent::DramBlock { addr: 9, write: true },
                BusEvent::DramBlock { addr: 11, write: false },
            ]
        );
        assert_eq!(wan.stats().reads, 2);
        assert_eq!(wan.stats().writes, 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(
            WanBackend::new(WanConfig { rtt_cycles: 0, per_block_cycles: 1, batch: 1 }).is_err()
        );
        assert!(
            WanBackend::new(WanConfig { rtt_cycles: 1, per_block_cycles: 1, batch: 0 }).is_err()
        );
        let c = WanConfig::from_rtt_us(1000.0, 1.5, 4, 8);
        assert_eq!(c.rtt_cycles, 666_667);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = WanConfig { rtt_cycles: 123, per_block_cycles: 5, batch: 3 };
        assert_eq!(run(cfg, 17), run(cfg, 17));
    }
}
