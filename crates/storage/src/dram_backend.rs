//! The DRAM timing model behind the storage trait.

use oram_dram::{
    BlockRequest, ChannelStats, ChannelUtilization, DramConfig, DramSystem, EnergyCounters,
};
use oram_util::{SharedObserver, SharedTelemetry};

use crate::backend::{BatchBreakdown, StorageBackend};

/// The existing bank-level DDR3 model wrapped behind [`StorageBackend`].
///
/// A zero-cost wrapper: every trait method forwards to the identically
/// shaped [`DramSystem`] call, so an engine instantiated with this
/// backend produces byte-identical traces, statistics and timings to
/// the pre-trait code, and the hot path stays allocation-free (the
/// engine's generic parameter resolves these calls statically).
#[derive(Debug, Clone)]
pub struct DramBackend {
    system: DramSystem,
}

impl DramBackend {
    /// Builds the backend from a DRAM configuration.
    ///
    /// # Errors
    ///
    /// Returns the configuration validation error, if any.
    pub fn new(cfg: DramConfig) -> Result<Self, String> {
        Ok(DramBackend { system: DramSystem::new(cfg)? })
    }

    /// The wrapped DRAM system (utilization counters, energy, config).
    pub fn system(&self) -> &DramSystem {
        &self.system
    }
}

impl StorageBackend for DramBackend {
    #[inline]
    fn service_batch_into(
        &mut self,
        now: i64,
        reqs: &[BlockRequest],
        occupy_bus: bool,
        finishes: &mut Vec<i64>,
    ) {
        self.system.service_batch_into(now, reqs, occupy_bus, finishes);
    }

    #[inline]
    fn last_batch_breakdown(&self) -> Option<BatchBreakdown> {
        self.system.last_batch_breakdown().map(BatchBreakdown::from_tx)
    }

    fn set_observer(&mut self, observer: Option<SharedObserver>) {
        self.system.set_observer(observer);
    }

    fn set_telemetry(&mut self, telemetry: Option<SharedTelemetry>) {
        self.system.set_telemetry(telemetry);
    }

    fn stats(&self) -> ChannelStats {
        self.system.stats()
    }

    fn energy(&self) -> EnergyCounters {
        self.system.energy()
    }

    fn utilization(&self) -> Vec<ChannelUtilization> {
        self.system.utilization()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_matches_the_raw_system_exactly() {
        let cfg = DramConfig::ddr3_1333();
        let mut raw = DramSystem::new(cfg).unwrap();
        let mut wrapped = DramBackend::new(cfg).unwrap();
        let reqs: Vec<BlockRequest> = (0..64)
            .map(|i| if i % 7 == 0 { BlockRequest::write(i) } else { BlockRequest::read(i) })
            .collect();
        let mut fr = Vec::new();
        let mut fw = Vec::new();
        let mut now = 0i64;
        for _ in 0..4 {
            raw.service_batch_into(now, &reqs, true, &mut fr);
            wrapped.service_batch_into(now, &reqs, true, &mut fw);
            assert_eq!(fr, fw);
            now = *fr.iter().max().unwrap();
        }
        assert_eq!(raw.stats(), wrapped.stats());
        assert_eq!(raw.energy(), wrapped.energy());
        let tx = raw.last_batch_breakdown().unwrap();
        let bd = wrapped.last_batch_breakdown().unwrap();
        assert_eq!(bd, BatchBreakdown::from_tx(tx));
        assert_eq!(bd.network, 0);
    }
}
