//! Simulator configuration.
//!
//! [`GpuConfig`] mirrors Table 1 of the paper (NVIDIA Volta V100 as
//! modeled by Accel-Sim). Two constructors are provided:
//!
//! * [`GpuConfig::volta_v100`] — the paper's full-scale parameters.
//! * [`GpuConfig::scaled`] — a proportionally scaled-down machine that
//!   keeps the same contention *ratios* (cache capacity per warp, MSHR
//!   per miss-queue slot, bandwidth per SM) but simulates in
//!   milliseconds instead of minutes. All experiments default to it.

use crate::fault::FaultPlan;
use crate::types::Cycle;
use crate::warp::MAX_WARP_SLOTS;

/// Warp scheduling policy, per SM scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SchedulerPolicy {
    /// Greedy-then-oldest: keep issuing from the current warp until it
    /// stalls, then switch to the oldest ready warp (paper baseline).
    #[default]
    GreedyThenOldest,
    /// Loose round-robin over ready warps.
    LooseRoundRobin,
}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity_bytes: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry, validating that the parameters divide evenly.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero, if `capacity_bytes` is not a
    /// multiple of `line_bytes * ways`, or if the derived set count is
    /// not a power of two.
    pub fn new(capacity_bytes: u32, line_bytes: u32, ways: u32) -> Self {
        assert!(capacity_bytes > 0 && line_bytes > 0 && ways > 0);
        let lines = capacity_bytes / line_bytes;
        assert_eq!(
            capacity_bytes % line_bytes,
            0,
            "capacity must be a whole number of lines"
        );
        assert_eq!(lines % ways, 0, "lines must divide evenly into sets");
        let sets = lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheGeometry {
            capacity_bytes,
            line_bytes,
            ways,
        }
    }

    /// Number of lines in the cache.
    pub fn lines(&self) -> u32 {
        self.capacity_bytes / self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.lines() / self.ways
    }
}

/// Full simulator configuration (Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Core clock in MHz (used only for energy/second conversions).
    pub core_clock_mhz: u32,
    /// Warp schedulers per SM.
    pub schedulers_per_sm: u32,
    /// Scheduling policy.
    pub scheduler: SchedulerPolicy,
    /// Maximum resident warps per SM (threads/SM ÷ 32).
    pub max_warps_per_sm: u32,
    /// Outstanding loads one warp may have in flight before it blocks
    /// (stall-on-use: back-to-back loads issue without waiting; any
    /// non-load instruction acts as the use barrier).
    pub max_outstanding_loads: u32,

    /// Unified L1/shared-memory SRAM geometry (the decoupled space).
    pub l1: CacheGeometry,
    /// Bytes of the unified SRAM carved out as shared memory.
    pub shared_mem_carveout_bytes: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_latency: u32,
    /// MSHR entries in the L1.
    pub mshr_entries: u32,
    /// Maximum requests merged into one MSHR entry.
    pub mshr_merge: u32,
    /// L1 miss queue depth; a full queue produces reservation fails.
    pub miss_queue_depth: u32,

    /// L2 geometry (aggregate over all banks).
    pub l2: CacheGeometry,
    /// Number of L2 banks (requests are address-interleaved).
    pub l2_banks: u32,
    /// Total L1↔L2 round-trip latency for an L2 hit, in cycles.
    pub l2_hit_latency: u32,

    /// Additional latency of a DRAM access beyond an L2 hit, in cycles.
    pub dram_latency: u32,
    /// DRAM bandwidth in bytes per core cycle (aggregate).
    pub dram_bytes_per_cycle: u32,

    /// Interconnect peak bandwidth, bytes per cycle per direction,
    /// aggregated over the device (shared by all SMs).
    pub noc_bytes_per_cycle: u32,
    /// Interconnect one-way latency in cycles.
    pub noc_latency: u32,
    /// Window (cycles) over which interconnect utilization is measured
    /// (drives the Snake bandwidth throttle).
    pub bw_window: u32,

    /// Stop simulation after this many cycles even if warps remain
    /// (safety net; `None` = run to completion).
    pub max_cycles: Option<Cycle>,

    /// Externally imposed cycle budget, distinct from [`max_cycles`]
    /// (`max_cycles` is the "something is wrong" safety net; the budget
    /// is a *planned* truncation set by a sweep supervisor). Exceeding
    /// it ends the run with
    /// [`StopReason::BudgetExceeded`](crate::StopReason::BudgetExceeded)
    /// so truncated-but-reported runs stay distinguishable from both
    /// converged runs and runaway ones. `None` (the default) imposes no
    /// budget.
    ///
    /// [`max_cycles`]: GpuConfig::max_cycles
    pub cycle_budget: Option<Cycle>,

    /// Forward-progress watchdog: after this many consecutive cycles
    /// with no retired instruction, no delivered fill, and no movement
    /// anywhere in the memory system, the run stops with
    /// [`StopReason::Deadlock`](crate::StopReason::Deadlock) and a
    /// structured report instead of spinning until `max_cycles`.
    /// `None` disables the watchdog. Must comfortably exceed the
    /// longest legitimate quiet period (a DRAM round trip plus any
    /// injected response delay).
    pub watchdog_cycles: Option<u64>,
    /// Memory-hierarchy fault injection (default: no faults).
    pub fault: FaultPlan,
    /// Run the invariant auditor every this many cycles (and once at
    /// the end of the run). `None` disables auditing. Building the
    /// crate with the `audit` feature turns it on by default in both
    /// constructors.
    pub audit_window: Option<u64>,
    /// Sample windowed time-series metrics (IPC, hit rate, occupancy,
    /// NoC utilization, throttle state, chain depth) every this many
    /// cycles into [`SimOutcome::series`](crate::SimOutcome). `None`
    /// (the default) disables collection.
    pub metrics_window: Option<u64>,
    /// Write a checkpoint of the complete simulator state every this
    /// many cycles when a harness runs a job with a checkpoint path
    /// (it hands this cadence to
    /// [`Gpu::run_serviced`](crate::Gpu::run_serviced)).
    /// `None` (the default) disables periodic checkpointing entirely —
    /// the run pays zero overhead, matching the no-observer-effect
    /// discipline of tracing and profiling.
    pub checkpoint_every: Option<u64>,
    /// Collect a host-side performance profile: per-phase wall time of
    /// the tick loop (see [`perfstat`](crate::perfstat)) delivered as
    /// [`SimOutcome::host`](crate::SimOutcome::host). `false` (the
    /// default) keeps every timing site to a single branch — profiling
    /// never changes simulated behavior either way.
    pub host_profile: bool,
}

impl GpuConfig {
    /// The paper's Table 1 configuration (NVIDIA Volta V100).
    ///
    /// # Examples
    ///
    /// ```
    /// let cfg = snake_sim::GpuConfig::volta_v100();
    /// assert_eq!(cfg.num_sms, 80);
    /// assert_eq!(cfg.l1.capacity_bytes, 128 * 1024);
    /// ```
    pub fn volta_v100() -> Self {
        GpuConfig {
            num_sms: 80,
            core_clock_mhz: 1530,
            schedulers_per_sm: 4,
            scheduler: SchedulerPolicy::GreedyThenOldest,
            max_warps_per_sm: 64, // 2048 threads / 32
            max_outstanding_loads: 4,
            l1: CacheGeometry::new(128 * 1024, 128, 256),
            shared_mem_carveout_bytes: 0,
            l1_hit_latency: 28,
            mshr_entries: 512,
            mshr_merge: 8,
            miss_queue_depth: 8,
            // 96KB per sub-partition x 64 banks is the full device; we
            // model the aggregate with the paper's 24-way/128B shape.
            l2: CacheGeometry::new(6 * 1024 * 1024, 128, 24),
            l2_banks: 64,
            l2_hit_latency: 212,
            dram_latency: 260,
            dram_bytes_per_cycle: 576,
            noc_bytes_per_cycle: 1024,
            noc_latency: 20,
            bw_window: 256,
            max_cycles: Some(Cycle(50_000_000)),
            cycle_budget: None,
            watchdog_cycles: Some(10_000),
            fault: FaultPlan::default(),
            audit_window: if cfg!(feature = "audit") {
                Some(64)
            } else {
                None
            },
            metrics_window: None,
            checkpoint_every: None,
            host_profile: false,
        }
    }

    /// A scaled-down machine for fast runs: `sms` SMs, each with 16
    /// resident warps under 2 schedulers and a 16 KiB unified L1. This
    /// is the default substrate for all experiments: it produces the
    /// paper's baseline symptoms (≈30% reservation fails, ≈33% NoC
    /// utilization, ≈55% memory stalls) while simulating thousands of
    /// times faster.
    ///
    /// Per resident warp it keeps some V100 proportions (8 MSHRs, one
    /// miss-queue entry per 8 warps, 4 L1 sets, the L1-hit and NoC
    /// latencies) and not others (ROADMAP.md item 1): `scaled(2)` gives
    /// each warp 12.5× the V100's NoC and 35.6× its DRAM bandwidth,
    /// half its L1 (1 KiB, so cache contention is clearly exercised),
    /// 6.7× its L2, 8 warps per scheduler instead of 16, and L2-hit and
    /// DRAM latencies of 120 and 220 cycles instead of 212 and 260.
    ///
    /// # Examples
    ///
    /// ```
    /// let cfg = snake_sim::GpuConfig::scaled(2);
    /// assert_eq!(cfg.num_sms, 2);
    /// assert_eq!(cfg.l1.capacity_bytes / cfg.max_warps_per_sm, 1024);
    /// ```
    pub fn scaled(sms: u32) -> Self {
        assert!(sms > 0, "need at least one SM");
        GpuConfig {
            num_sms: sms,
            core_clock_mhz: 1530,
            schedulers_per_sm: 2,
            scheduler: SchedulerPolicy::GreedyThenOldest,
            max_warps_per_sm: 16,
            max_outstanding_loads: 4,
            l1: CacheGeometry::new(16 * 1024, 128, 32),
            shared_mem_carveout_bytes: 0,
            l1_hit_latency: 28,
            mshr_entries: 128,
            mshr_merge: 8,
            miss_queue_depth: 2,
            l2: CacheGeometry::new(256 * 1024, 128, 16),
            l2_banks: 8,
            l2_hit_latency: 120,
            dram_latency: 220,
            dram_bytes_per_cycle: 64 * sms,
            noc_bytes_per_cycle: 40 * sms,
            noc_latency: 20,
            bw_window: 256,
            max_cycles: Some(Cycle(20_000_000)),
            cycle_budget: None,
            watchdog_cycles: Some(10_000),
            fault: FaultPlan::default(),
            audit_window: if cfg!(feature = "audit") {
                Some(64)
            } else {
                None
            },
            metrics_window: None,
            checkpoint_every: None,
            host_profile: false,
        }
    }

    /// Usable (non-shared-memory) bytes of the unified L1 SRAM.
    pub fn l1_usable_bytes(&self) -> u32 {
        self.l1.capacity_bytes - self.shared_mem_carveout_bytes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first inconsistency
    /// found (e.g. a shared-memory carve-out larger than the SRAM).
    pub fn validate(&self) -> Result<(), ConfigError> {
        // The carve-out removes ways and keeps the set count
        // (`TagArray::from_geometry`), so it must leave a line per set.
        let left = self
            .l1
            .capacity_bytes
            .saturating_sub(self.shared_mem_carveout_bytes);
        if left / self.l1.line_bytes < self.l1.sets() {
            return Err(ConfigError::CarveoutTooLarge {
                carveout: self.shared_mem_carveout_bytes,
                capacity: self.l1.capacity_bytes,
            });
        }
        if self.mshr_merge == 0 || self.mshr_entries == 0 {
            return Err(ConfigError::ZeroParameter("mshr"));
        }
        if self.miss_queue_depth == 0 {
            return Err(ConfigError::ZeroParameter("miss_queue_depth"));
        }
        if self.noc_bytes_per_cycle == 0 || self.dram_bytes_per_cycle == 0 {
            return Err(ConfigError::ZeroParameter("bandwidth"));
        }
        if self.schedulers_per_sm == 0 || self.max_warps_per_sm == 0 {
            return Err(ConfigError::ZeroParameter("sm shape"));
        }
        if self.max_warps_per_sm > MAX_WARP_SLOTS {
            return Err(ConfigError::TooManyWarps {
                requested: self.max_warps_per_sm,
                limit: MAX_WARP_SLOTS,
            });
        }
        if self.max_outstanding_loads == 0 {
            return Err(ConfigError::ZeroParameter("max_outstanding_loads"));
        }
        if self.l1.line_bytes != self.l2.line_bytes {
            return Err(ConfigError::LineSizeMismatch {
                l1: self.l1.line_bytes,
                l2: self.l2.line_bytes,
            });
        }
        if self.cycle_budget == Some(Cycle(0)) {
            return Err(ConfigError::ZeroParameter("cycle_budget"));
        }
        if self.watchdog_cycles == Some(0) {
            return Err(ConfigError::ZeroParameter("watchdog_cycles"));
        }
        if self.audit_window == Some(0) {
            return Err(ConfigError::ZeroParameter("audit_window"));
        }
        if self.metrics_window == Some(0) {
            return Err(ConfigError::ZeroParameter("metrics_window"));
        }
        if self.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroParameter("checkpoint_every"));
        }
        self.fault
            .validate()
            .map_err(ConfigError::InvalidFaultPlan)?;
        if let (Some(wd), Some(r)) = (self.watchdog_cycles, self.fault.recovery) {
            if r.timeout >= wd {
                return Err(ConfigError::InvalidFaultPlan(format!(
                    "recovery timeout {} must be below watchdog_cycles {wd} \
                     or recovery can never fire",
                    r.timeout
                )));
            }
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig::scaled(2)
    }
}

/// Error returned by [`GpuConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The shared-memory carve-out leaves less than one cache line per
    /// set.
    CarveoutTooLarge {
        /// Requested carve-out bytes.
        carveout: u32,
        /// Total unified SRAM bytes.
        capacity: u32,
    },
    /// A parameter that must be non-zero was zero.
    ZeroParameter(&'static str),
    /// More warp slots per SM than the SM's one-bit-per-slot warp
    /// masks can hold.
    TooManyWarps {
        /// Requested `max_warps_per_sm`.
        requested: u32,
        /// The most slots an SM supports.
        limit: u32,
    },
    /// L1 and L2 line sizes differ.
    LineSizeMismatch {
        /// L1 line bytes.
        l1: u32,
        /// L2 line bytes.
        l2: u32,
    },
    /// The fault-injection plan is inconsistent (probability outside
    /// `[0, 1]`, malformed brownout, or recovery that cannot fire).
    InvalidFaultPlan(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::CarveoutTooLarge { carveout, capacity } => write!(
                f,
                "shared-memory carve-out {carveout} B leaves less than one line per set \
                 in {capacity} B SRAM"
            ),
            ConfigError::ZeroParameter(p) => write!(f, "parameter {p} must be non-zero"),
            ConfigError::TooManyWarps { requested, limit } => write!(
                f,
                "max_warps_per_sm {requested} exceeds the {limit} warp slots an SM supports"
            ),
            ConfigError::LineSizeMismatch { l1, l2 } => {
                write!(f, "L1 line size {l1} B differs from L2 line size {l2} B")
            }
            ConfigError::InvalidFaultPlan(why) => write!(f, "invalid fault plan: {why}"),
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_table1() {
        let c = GpuConfig::volta_v100();
        assert_eq!(c.num_sms, 80);
        assert_eq!(c.schedulers_per_sm, 4);
        assert_eq!(c.max_warps_per_sm, 64);
        assert_eq!(c.l1.line_bytes, 128);
        assert_eq!(c.l1.ways, 256);
        assert_eq!(c.mshr_entries, 512);
        assert_eq!(c.mshr_merge, 8);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaled_is_valid_and_proportional() {
        for sms in [1, 2, 4, 8] {
            let c = GpuConfig::scaled(sms);
            assert!(c.validate().is_ok(), "scaled({sms}) invalid");
            assert_eq!(c.l1.capacity_bytes / c.max_warps_per_sm, 1024);
        }
    }

    #[test]
    fn geometry_math() {
        let g = CacheGeometry::new(16 * 1024, 128, 32);
        assert_eq!(g.lines(), 128);
        assert_eq!(g.sets(), 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_pow2_sets() {
        // 24 lines / 8 ways = 3 sets -> reject.
        let _ = CacheGeometry::new(24 * 128, 128, 8);
    }

    #[test]
    fn validate_rejects_oversized_carveout() {
        let mut c = GpuConfig::scaled(1);
        c.shared_mem_carveout_bytes = c.l1.capacity_bytes;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::CarveoutTooLarge { .. })
        ));
    }

    #[test]
    fn validate_rejects_carveout_leaving_fewer_lines_than_sets() {
        let mut c = GpuConfig::scaled(1);
        let capacity = c.l1.capacity_bytes;
        c.shared_mem_carveout_bytes = capacity - c.l1.sets() * c.l1.line_bytes;
        assert!(c.validate().is_ok(), "one line per set is enough");
        // 384 B left: three lines for four sets.
        c.shared_mem_carveout_bytes = 16_000;
        assert_eq!((capacity - 16_000) / c.l1.line_bytes, 3);
        assert_eq!(c.l1.sets(), 4);
        assert_eq!(
            c.validate(),
            Err(ConfigError::CarveoutTooLarge {
                carveout: 16_000,
                capacity
            })
        );
    }

    #[test]
    fn validate_rejects_more_warps_than_a_mask_holds() {
        let mut c = GpuConfig::volta_v100();
        assert_eq!(c.max_warps_per_sm, MAX_WARP_SLOTS, "V100's 64 warps fit");
        assert!(c.validate().is_ok());
        c.max_warps_per_sm = MAX_WARP_SLOTS + 1;
        let err = c.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::TooManyWarps {
                requested: 65,
                limit: 64
            }
        );
        assert!(err.to_string().contains("65"), "{err}");
    }

    #[test]
    fn validate_rejects_line_mismatch() {
        let mut c = GpuConfig::scaled(1);
        c.l2 = CacheGeometry::new(128 * 1024, 64, 16);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::LineSizeMismatch { .. })
        ));
    }

    #[test]
    fn config_error_displays() {
        let e = ConfigError::ZeroParameter("mshr");
        assert!(e.to_string().contains("mshr"));
        let e = ConfigError::InvalidFaultPlan("bad".into());
        assert!(e.to_string().contains("bad"));
    }

    #[test]
    fn validate_rejects_bad_fault_plan() {
        let mut c = GpuConfig::scaled(1);
        c.fault.drop_response = 2.0;
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidFaultPlan(_))
        ));
    }

    #[test]
    fn validate_rejects_recovery_slower_than_watchdog() {
        let mut c = GpuConfig::scaled(1);
        c.watchdog_cycles = Some(100);
        c.fault.recovery = Some(crate::fault::Recovery {
            timeout: 200,
            max_retries: 4,
        });
        assert!(matches!(
            c.validate(),
            Err(ConfigError::InvalidFaultPlan(_))
        ));
        c.watchdog_cycles = Some(1_000);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_zero_watchdog_and_audit() {
        let mut c = GpuConfig::scaled(1);
        c.watchdog_cycles = Some(0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ZeroParameter("watchdog_cycles"))
        ));
        let mut c = GpuConfig::scaled(1);
        c.audit_window = Some(0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ZeroParameter("audit_window"))
        ));
        let mut c = GpuConfig::scaled(1);
        c.metrics_window = Some(0);
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ZeroParameter("metrics_window"))
        ));
        let mut c = GpuConfig::scaled(1);
        c.cycle_budget = Some(Cycle(0));
        assert!(matches!(
            c.validate(),
            Err(ConfigError::ZeroParameter("cycle_budget"))
        ));
    }
}
