//! # oram-sim
//!
//! Full-system simulator for the Shadow Block reproduction: connects the
//! synthetic workloads, cache hierarchy, ORAM controller and DDR3 timing
//! model, and produces the measurements the paper reports — total
//! execution time split into data-access time and DRI (Eq. 1), slowdown
//! over an insecure baseline, energy, and on-chip hit rates.
//!
//! * [`SystemConfig`] — Table I in one struct (CPU, caches, ORAM, DRAM,
//!   timing protection, XOR compression, energy model).
//! * [`Engine`] — the ORAM-system event loop.
//! * [`InsecureSystem`] — the no-ORAM baseline for normalization.
//! * [`run_workload`] — one-call experiment: profile + config → stats.
//! * [`parallel_map`] — scoped-thread job pool running independent
//!   experiment cells in parallel with bit-identical (ordered) results.
//! * [`ShardedOram`] — the address space partitioned over `M` independent
//!   engine shards served concurrently through the pool.
//! * [`StorageBackend`] — pluggable bucket storage behind the engine:
//!   [`DramBackend`] (the DDR3 model, the default), [`DiskBackend`]
//!   (persistent crash-consistent bucket store), and [`WanBackend`]
//!   (deterministic RTT/bandwidth network model), re-exported from
//!   `oram-storage`.
//!
//! ## Quick example
//!
//! ```
//! use oram_sim::{run_workload, RunOptions, SystemConfig};
//! use oram_workloads::spec;
//!
//! let cfg = SystemConfig::small_test();
//! let opts = RunOptions { misses: 200, warmup_misses: 50, ..RunOptions::quick() };
//! let r = run_workload(&spec::profile("hmmer"), &cfg, &opts);
//! assert!(r.slowdown() > 1.0); // ORAM costs something
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod insecure;
mod pool;
mod runner;
mod shard;
mod stats;

pub use config::SystemConfig;
pub use engine::{Engine, ServeOutcome};
pub use insecure::InsecureSystem;
pub use oram_storage::{
    BatchBreakdown, DiskBackend, DiskConfig, DiskStore, DramBackend, RecoveredBucket,
    StorageBackend, WanBackend, WanConfig,
};
pub use pool::{default_threads, parallel_map, parallel_map_notify, THREADS_ENV};
pub use runner::{
    build_miss_stream, replay_measured, run_oram, run_workload, run_workload_traced, scale_profile,
    RunOptions, RunResult,
};
#[cfg(feature = "mutants")]
pub use shard::ShardMutant;
pub use shard::{ShardRequest, ShardedOram};
pub use stats::{gmean, SimStats};
