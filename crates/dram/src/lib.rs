//! # oram-dram
//!
//! A bank-level DDR3 timing and energy model — the repo's stand-in for
//! DRAMSim2, which the Shadow Block paper (MICRO 2018) used to time ORAM
//! path accesses.
//!
//! The model covers what matters for ORAM performance studies:
//!
//! * JEDEC core timings (tRCD/CL/CWL/tRP/tRAS/tWR/tRTP/tRRD/tFAW),
//!   DDR3-1333 defaults matching the paper's Table I (2 channels,
//!   21.3 GB/s peak). Not enforced: tWTR (a read may follow a write at
//!   bus rate) and tCCD, which burst occupancy of the data bus implies
//!   only while reads hold the bus — [`DramConfig`] carries both values
//!   for a later model fix;
//! * per-bank row-buffer state with FR-FCFS scheduling and data-bus
//!   contention, so sequential path reads stream near peak bandwidth
//!   while scattered accesses pay activate/precharge penalties;
//! * the sub-tree address layout of Ren et al., which packs ORAM subtrees
//!   into DRAM rows ([`SubtreeLayout`]);
//! * refresh (tREFI/tRFC) and an energy model (per-op energies plus
//!   background power) for the paper's Fig. 12.
//!
//! ## Quick example
//!
//! ```
//! use oram_dram::{DramSystem, DramConfig, BlockRequest};
//!
//! let mut dram = DramSystem::new(DramConfig::ddr3_1333()).unwrap();
//! // An ORAM path access: a batch of block reads issued together.
//! let reqs: Vec<BlockRequest> = (0..125).map(BlockRequest::read).collect();
//! let finish_cycles = dram.service_batch(0, &reqs);
//! assert_eq!(finish_cycles.len(), 125);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod address;
mod bank;
mod config;
mod controller;
mod energy;
mod system;

pub use address::{AddressMapping, Interleave, Location, SubtreeLayout};
pub use bank::{Bank, Command, RowState};
pub use config::DramConfig;
pub use controller::{
    Channel, ChannelStats, ChannelUtilization, Transaction, TxBreakdown, QUEUE_DEPTH_BUCKETS,
};
pub use energy::{EnergyCounters, EnergyModel};
pub use system::{report_blocks, BlockRequest, DramSystem};
