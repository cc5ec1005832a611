//! # oram-service
//!
//! Multi-client service front-end for the Shadow Block ORAM stack: N
//! independent client streams (open-loop Poisson and closed-loop
//! think-time generators over Zipfian/uniform/hot address mixes) feed
//! bounded per-client queues with admission control; a batch scheduler
//! (FCFS / round-robin / oldest-first) drains them into the
//! [`oram_sim::Engine`], merging same-address reads MSHR-style strictly
//! *before* the ORAM issue point so the bus-visible access stream — and
//! therefore the obliviousness argument — is unchanged.
//!
//! Everything is deterministic under the master seed: identical
//! configurations produce bit-identical results, which is what lets
//! `repro serve` keep a checked-in baseline under a regression guard.
//!
//! ## Quick example
//!
//! ```
//! use oram_service::{ServiceConfig, ServiceSim};
//! use oram_sim::{Engine, SystemConfig};
//!
//! let cfg = ServiceConfig::symmetric_open(2, 20, 2_000.0, 256, 7);
//! let mut engine = Engine::new(SystemConfig::small_test()).unwrap();
//! engine.prefill_working_set(256);
//! let mut sim = ServiceSim::new(cfg, engine).unwrap();
//! sim.run();
//! let (result, _engine) = sim.finish();
//! result.validate().unwrap();
//! assert_eq!(result.completed() + result.rejected(), 40);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod report;
mod sim;

pub use config::{AddressMix, ArrivalModel, ClientSpec, SchedPolicy, ServiceConfig};
pub use report::{percentile, LatencySummary, SchedulerSummary, ServiceMeta, ServiceReport};
pub use sim::{
    ClientResult, ServeTarget, ServiceDriver, ServiceResult, ServiceSim, ShardedServiceSim,
};
