//! The prefetcher interface.
//!
//! The simulator is prefetcher-agnostic: on every demand access it
//! calls [`Prefetcher::on_demand_access`] with an [`AccessEvent`] and a
//! [`PrefetchContext`] snapshot (free space, measured bandwidth), and
//! the prefetcher appends [`PrefetchRequest`]s to an output buffer.
//! The concrete mechanisms (Snake and all baselines) live in the
//! `snake-core` crate; the simulator itself only ships
//! [`NullPrefetcher`].

use crate::json::Value;
use crate::kernel::KernelTrace;
use crate::obs::WalkStop;
use crate::snapshot::{Restore, SnapshotError};
use crate::stats::AccessOutcome;
use crate::types::{Address, CtaId, Cycle, Pc, SmId, WarpId};

/// A demand access observed at the L1, the prefetcher's training input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// SM the access originated from.
    pub sm: SmId,
    /// Warp that executed the load (SM-local id).
    pub warp: WarpId,
    /// CTA of the warp.
    pub cta: CtaId,
    /// Program counter of the load (`PC_ld`).
    pub pc: Pc,
    /// Coalesced base address of the warp's transaction.
    pub addr: Address,
    /// What the L1 did with the access.
    pub outcome: AccessOutcome,
    /// Cycle of the access.
    pub cycle: Cycle,
}

/// A prefetch the mechanism wants issued (line granularity is applied
/// by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchRequest {
    /// Target byte address (the whole containing line is fetched).
    pub addr: Address,
}

impl PrefetchRequest {
    /// Creates a request for the line containing `addr`.
    pub fn new(addr: Address) -> Self {
        PrefetchRequest { addr }
    }
}

/// Machine-state snapshot given to the prefetcher on each event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchContext {
    /// Current cycle.
    pub cycle: Cycle,
    /// Interconnect utilization in `[0, 1]`, measured over the
    /// configured window (drives the bandwidth throttle trigger).
    pub bw_utilization: f64,
    /// Invalid (free) lines in the unified L1 SRAM.
    pub free_lines: u32,
    /// Total usable lines in the unified L1 SRAM.
    pub total_lines: u32,
    /// The prefetcher recently outran consumption: a prefetch
    /// allocation (or bulk free) had to evict a *not yet used*
    /// prefetched line. This is the space-throttle trigger — pausing
    /// gives the resident prefetched data time to be consumed (§3.3).
    pub prefetch_overrun: bool,
    /// Whether the simulator has a trace sink attached and wants
    /// [`PrefetcherEvent`]s recorded. Mechanisms must skip all event
    /// bookkeeping when this is `false` so the no-sink path stays
    /// zero-cost.
    pub telemetry: bool,
}

impl PrefetchContext {
    /// `true` when the unified cache has no free space (the paper's
    /// space-based throttle trigger).
    pub fn cache_full(&self) -> bool {
        self.free_lines == 0
    }
}

/// A telemetry event recorded by a mechanism during
/// [`Prefetcher::on_demand_access`] and collected by the simulator via
/// [`Prefetcher::drain_events`]. Only recorded when
/// [`PrefetchContext::telemetry`] is set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetcherEvent {
    /// A chain walk started from a trigger access.
    ChainWalkStart {
        /// Triggering warp.
        warp: WarpId,
        /// Load PC indexing the head table.
        pc: Pc,
    },
    /// One chain-walk step emitted a target.
    ChainWalkStep {
        /// 1-based step depth.
        depth: u32,
        /// Target address of the step.
        addr: Address,
    },
    /// The chain walk stopped.
    ChainWalkStop {
        /// Steps completed before stopping.
        steps: u32,
        /// Why it stopped.
        reason: WalkStop,
    },
}

/// Where prefetched lines are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPlacement {
    /// Decoupled inside the unified L1 SRAM via per-line flags
    /// (Snake's §3.2 mechanism).
    Decoupled,
    /// Straight into the L1 as ordinary lines (no decoupling —
    /// Snake-DT and all plain baselines).
    PlainL1,
    /// A dedicated buffer of the given number of lines, separate from
    /// the unified SRAM (Isolated-Snake, §5.7).
    Isolated {
        /// Buffer capacity in lines.
        lines: u32,
    },
}

/// A hardware prefetching mechanism.
///
/// Implementations observe the demand stream and emit prefetch
/// candidates. All methods but [`name`](Prefetcher::name) have
/// defaults so trivial mechanisms stay trivial; the trait is
/// object-safe (the simulator stores a `Box<dyn Prefetcher>`).
///
/// A mechanism's checkpointed state is its [`Restore`] encoding: a
/// stateful one names the fields its decisions depend on with
/// [`restore_fields!`](crate::restore_fields), or a restored run will
/// diverge from an uninterrupted one; a stateless one declares itself
/// with [`stateless!`](crate::stateless).
///
/// # Contract
///
/// [`trained`](Prefetcher::trained) may change, and
/// [`throttled`](Prefetcher::throttled) may switch on, only inside
/// [`on_demand_access`](Prefetcher::on_demand_access) or
/// [`on_kernel_launch`](Prefetcher::on_kernel_launch); a throttle may
/// switch off with time alone. An SM with nothing to issue makes no
/// demand access, so while its prefetcher is unthrottled it replays
/// one recorded idle tick instead of re-reading these (see
/// [`Sm::tick`](crate::Sm::tick)).
pub trait Prefetcher: Restore {
    /// Short mechanism name used in reports (e.g. `"snake"`, `"mta"`).
    fn name(&self) -> &str;

    /// Storage placement policy for this mechanism's prefetched lines.
    fn placement(&self) -> PrefetchPlacement {
        PrefetchPlacement::PlainL1
    }

    /// Called once per kernel before simulation starts. Oracle-style
    /// mechanisms may inspect the full trace; hardware mechanisms
    /// should only reset state.
    fn on_kernel_launch(&mut self, trace: &KernelTrace) {
        let _ = trace;
    }

    /// Observe one demand access; append prefetch requests to `out`.
    ///
    /// `out` is a reusable scratch buffer owned by the simulator; it is
    /// cleared before every call.
    ///
    /// Host-time note: when
    /// [`GpuConfig::host_profile`](crate::GpuConfig::host_profile) is
    /// set, the cycles the run loop samples time this method (and
    /// [`drain_events`](Prefetcher::drain_events)) as the `prefetch`
    /// phase of the run's [`HostProfile`](crate::perfstat::HostProfile),
    /// and the L1 issue of the candidates it returns as `l1_lookup`: an
    /// expensive mechanism shows up here, not smeared over the SM
    /// front-end.
    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    );

    /// Whether the mechanism is currently throttled. While throttled
    /// the L1 confines demand data to its own partition (§3.2/§3.3).
    /// It may turn `true` only in an access or a kernel launch (see the
    /// trait's contract).
    fn throttled(&self, now: Cycle) -> bool {
        let _ = now;
        false
    }

    /// Whether the training phase has completed (while training, the
    /// decoupled L1 limits demand data to 50% of the SRAM, §3.2). It
    /// changes only in an access or a kernel launch (see the trait's
    /// contract).
    fn trained(&self) -> bool {
        true
    }

    /// Current chain-walk depth limit, for mechanisms with a
    /// throttle-controlled walk (Snake). Non-chaining mechanisms
    /// report 0.
    fn chain_depth(&self) -> u32 {
        0
    }

    /// Moves any telemetry events recorded since the last drain into
    /// `out`. Only called when a trace sink is attached; the default
    /// is a no-op for mechanisms without telemetry.
    fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
        let _ = out;
    }
}

impl Restore for Box<dyn Prefetcher> {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        (**self).restore_state(v)
    }
}

/// A prefetcher that never prefetches (the baseline GPU).
///
/// # Examples
///
/// ```
/// use snake_sim::{NullPrefetcher, Prefetcher};
/// assert_eq!(NullPrefetcher.name(), "baseline");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullPrefetcher;

crate::stateless!(NullPrefetcher);

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &str {
        "baseline"
    }

    fn on_demand_access(
        &mut self,
        _event: &AccessEvent,
        _ctx: &PrefetchContext,
        _out: &mut Vec<PrefetchRequest>,
    ) {
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_prefetcher_emits_nothing() {
        let mut p = NullPrefetcher;
        let ev = AccessEvent {
            sm: SmId(0),
            warp: WarpId(0),
            cta: CtaId(0),
            pc: Pc(0),
            addr: Address(0),
            outcome: AccessOutcome::Miss,
            cycle: Cycle(0),
        };
        let ctx = PrefetchContext {
            cycle: Cycle(0),
            bw_utilization: 0.0,
            free_lines: 10,
            total_lines: 10,
            prefetch_overrun: false,
            telemetry: false,
        };
        let mut out = Vec::new();
        p.on_demand_access(&ev, &ctx, &mut out);
        assert!(out.is_empty());
        assert!(!p.throttled(Cycle(0)));
        assert!(p.trained());
        assert_eq!(p.placement(), PrefetchPlacement::PlainL1);
        assert_eq!(p.chain_depth(), 0);
        let mut events = Vec::new();
        p.drain_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn context_full_flag() {
        let mut ctx = PrefetchContext {
            cycle: Cycle(0),
            bw_utilization: 0.5,
            free_lines: 0,
            total_lines: 4,
            prefetch_overrun: false,
            telemetry: false,
        };
        assert!(ctx.cache_full());
        ctx.free_lines = 1;
        assert!(!ctx.cache_full());
    }

    #[test]
    fn prefetcher_is_object_safe() {
        let b: Box<dyn Prefetcher> = Box::new(NullPrefetcher);
        assert_eq!(b.name(), "baseline");
    }
}
