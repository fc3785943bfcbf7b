//! # snake-sim
//!
//! A from-scratch, cycle-driven GPU simulator substrate for the
//! reproduction of *Snake: A Variable-length Chain-based Prefetching
//! for GPUs* (MICRO '23). It stands in for Accel-Sim v1.2.0 in the
//! paper's methodology: streaming multiprocessors with GTO warp
//! scheduling, a unified L1/shared-memory SRAM with MSHRs, a bounded
//! miss queue (the source of reservation fails), a bandwidth-limited
//! interconnect, a banked L2, and a latency/bandwidth DRAM model —
//! plus a first-order energy model standing in for AccelWattch.
//!
//! The crate is prefetcher-agnostic: mechanisms implement the
//! [`Prefetcher`] trait (see the `snake-core` crate for Snake itself
//! and all baselines).
//!
//! ## Quick start
//!
//! ```
//! use snake_sim::{run_kernel, GpuConfig, Instr, KernelTrace, NullPrefetcher, WarpTrace, CtaId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One warp streaming over four cache lines.
//! let warp = WarpTrace::new(
//!     CtaId(0),
//!     (0..4).map(|i| Instr::load(i as u32, (i * 128) as u64)).collect(),
//! );
//! let kernel = KernelTrace::new("stream", vec![warp]);
//! let outcome = run_kernel(GpuConfig::scaled(1), kernel, |_| Box::new(NullPrefetcher))?;
//! assert_eq!(outcome.stats.l1.misses, 4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod audit;
pub mod cache;
mod config;
pub mod energy;
pub mod fault;
mod gpu;
pub mod json;
mod kernel;
pub mod mem;
pub mod obs;
pub mod perfstat;
mod prefetch;
mod scheduler;
mod sm;
pub mod snapshot;
mod stats;
mod types;
mod warp;
pub mod watchdog;

pub use audit::Auditor;
pub use config::{CacheGeometry, ConfigError, GpuConfig, SchedulerPolicy};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use fault::{Brownout, FaultPlan, Recovery};
pub use gpu::{run_kernel, Gpu, SimError, SimOutcome, StopReason};
pub use kernel::{AddrList, Instr, KernelTrace, WarpTrace};
pub use obs::{
    Drained, LatencyHistogram, MetricsSample, MetricsSeries, PrefetchLifecycle, Ring, RingSink,
    SimEvent, Subscription, TelemetryRecord, TelemetryRing, TraceEvent, TraceSink, VecSink,
    WalkStop,
};
pub use perfstat::{HostProfile, Phase, PhaseStat};
pub use prefetch::{
    AccessEvent, NullPrefetcher, PrefetchContext, PrefetchPlacement, PrefetchRequest, Prefetcher,
    PrefetcherEvent,
};
pub use sm::Sm;
pub use snapshot::{Checkpoint, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
pub use stats::{
    stall_shares_from_json, stall_shares_to_json, AccessOutcome, CacheStats, FaultStats,
    PrefetchStats, ReservationFailReason, SimStats, StallBreakdown, StallBucket, STALL_BUCKETS,
};
pub use types::{Address, CtaId, Cycle, LineAddr, Pc, SmId, WarpId};
pub use watchdog::{
    DeadlockReport, NocCensus, PartitionCensus, SmCensus, WarpBlock, WarpCensus, Watchdog,
};
