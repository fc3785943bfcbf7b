//! The streaming multiprocessor: warp slots, schedulers, the unified
//! L1, and the prefetcher hook.

use std::collections::VecDeque;

use crate::cache::unified_l1::{L1Mode, OutgoingRequest, PrefetchIssue, UnifiedL1};
use crate::config::GpuConfig;
use crate::json::{self, Value};
use crate::kernel::{Instr, KernelTrace};
use crate::obs::{SimEvent, TraceEvent};
use crate::perfstat::{HostProfiler, Phase, Stopwatch};
use crate::prefetch::{
    AccessEvent, PrefetchContext, PrefetchPlacement, PrefetchRequest, Prefetcher, PrefetcherEvent,
};
use crate::scheduler::{partition_mask, Scheduler};
use crate::snapshot::SnapshotError;
use crate::stats::{AccessOutcome, ReservationFailReason, SimStats, StallBreakdown};
use crate::types::{CtaId, Cycle, SmId, WarpId};
use crate::warp::{bits, WarpMasks, WarpSlot, WarpState, MAX_WARP_SLOTS};
use crate::watchdog::{SmCensus, WarpBlock, WarpCensus};

/// A CTA waiting to be launched on this SM.
#[derive(Debug, Clone)]
pub(crate) struct PendingCta {
    pub cta: CtaId,
    /// Kernel trace indices of the CTA's warps.
    pub warps: Vec<usize>,
}

/// What one idle tick charged: a tick that found no ready warp, no
/// launchable CTA, no due timeout recovery and an unthrottled
/// prefetcher. Nothing such a tick reads changes until a busy warp's
/// deadline or a recovery deadline comes due, a warp-state mask changes
/// or a CTA is queued, so every tick before `wake` charges the same
/// counters and replays this record instead of picking. Derived state:
/// never checkpointed, dropped on restore, checked by the auditor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IdleCharge {
    /// The first cycle whose tick must run in full again.
    wake: Cycle,
    /// Scheduler slots charged to `no_warp`, `mem_data`, `barrier` and
    /// `scoreboard`, in that order (see [`Sm::idle_bucket`]).
    slots: [u64; 4],
    /// 1 when the tick counted an all-stall cycle.
    all_stall: u64,
    /// 1 when that all-stall cycle was a memory stall.
    all_stall_mem: u64,
}

/// One streaming multiprocessor.
pub struct Sm {
    id: SmId,
    slots: Vec<Option<WarpSlot>>,
    /// Per-slot warp states as bitmasks, re-derived after every slot
    /// mutation (see [`WarpMasks`]).
    masks: WarpMasks,
    schedulers: Vec<Scheduler>,
    /// Slot mask of each scheduler's static partition.
    partitions: Vec<u64>,
    /// Mask of every slot this SM has.
    all_slots: u64,
    l1: UnifiedL1,
    prefetcher: Box<dyn Prefetcher>,
    cta_queue: VecDeque<PendingCta>,
    launch_seq: u64,
    line_bytes: u32,
    hit_latency: u32,
    /// Per-SM statistic counters (NoC/L2 fields stay zero here).
    pub stats: SimStats,
    scratch: Vec<PrefetchRequest>,
    /// Maximum prefetch requests accepted from one access event.
    max_prefetches_per_event: usize,
    /// Stall-on-use: loads a warp may have in flight before blocking.
    max_outstanding_loads: u32,
    /// Pipeline events buffered while tracing is enabled; the GPU
    /// drains them each cycle. `None` (default) keeps the issue path
    /// branch-only.
    trace: Option<Vec<TraceEvent>>,
    /// Scratch buffer for prefetcher-reported chain-walk events.
    pf_events: Vec<PrefetcherEvent>,
    /// Host-time accumulator for the SM front-end
    /// ([`Phase::SmIssue`]) and the prefetcher hook
    /// ([`Phase::Prefetch`]). `None` (default) keeps every timed
    /// region to a single branch.
    prof: Option<HostProfiler>,
    /// Throttle state at the last tick (edge detection for
    /// [`SimEvent::ThrottleHalt`]/[`SimEvent::ThrottleResume`]).
    prev_throttled: bool,
    /// The charge later ticks replay while nothing changes (see
    /// [`IdleCharge`]).
    idle: Option<IdleCharge>,
    /// Ticks that replayed `idle` instead of picking. Host-only: never
    /// checkpointed, reported in the host profile.
    replayed_ticks: u64,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("prefetcher", &self.prefetcher.name())
            .field("resident_warps", &self.active_warps())
            .field("queued_ctas", &self.cta_queue.len())
            .finish()
    }
}

impl Sm {
    /// Builds an SM with the given prefetcher. The L1 placement mode is
    /// derived from the prefetcher's [`PrefetchPlacement`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_warps_per_sm` exceeds the 64 slots a warp
    /// mask can hold ([`GpuConfig::validate`] rejects such configs).
    pub fn new(cfg: &GpuConfig, id: SmId, prefetcher: Box<dyn Prefetcher>) -> Self {
        assert!(
            cfg.max_warps_per_sm <= MAX_WARP_SLOTS,
            "an SM holds at most {MAX_WARP_SLOTS} warps, config asks for {}",
            cfg.max_warps_per_sm
        );
        let n_slots = cfg.max_warps_per_sm as usize;
        let n_sched = cfg.schedulers_per_sm as usize;
        let mode = match prefetcher.placement() {
            PrefetchPlacement::Decoupled => L1Mode::Decoupled,
            PrefetchPlacement::PlainL1 => L1Mode::Plain,
            PrefetchPlacement::Isolated { lines } => L1Mode::Isolated { lines },
        };
        Sm {
            id,
            slots: (0..n_slots).map(|_| None).collect(),
            masks: WarpMasks::default(),
            schedulers: (0..n_sched)
                .map(|_| Scheduler::new(cfg.scheduler))
                .collect(),
            partitions: (0..n_sched)
                .map(|sid| partition_mask(n_slots, sid, n_sched))
                .collect(),
            all_slots: partition_mask(n_slots, 0, 1),
            l1: UnifiedL1::new(cfg, mode),
            prefetcher,
            cta_queue: VecDeque::new(),
            launch_seq: 0,
            line_bytes: cfg.l1.line_bytes,
            hit_latency: cfg.l1_hit_latency,
            stats: SimStats::default(),
            scratch: Vec::new(),
            max_prefetches_per_event: 16,
            max_outstanding_loads: cfg.max_outstanding_loads,
            trace: None,
            pf_events: Vec::new(),
            prof: None,
            prev_throttled: false,
            idle: None,
            replayed_ticks: 0,
        }
    }

    /// SM identifier.
    pub fn id(&self) -> SmId {
        self.id
    }

    /// Starts buffering trace events for this SM, its L1/MSHR, and the
    /// prefetcher (chain-walk telemetry).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
        self.l1.enable_trace(self.id);
    }

    /// Moves buffered trace events into `out`: the SM's own pipeline
    /// events first, then the L1's (which include the MSHR's).
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some(buf) = self.trace.as_mut() {
            out.append(buf);
        }
        self.l1.drain_trace(out);
    }

    fn emit(&mut self, cycle: Cycle, data: SimEvent) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(TraceEvent { cycle, data });
        }
    }

    /// Starts accumulating host-time for this SM's phases and its
    /// L1's (see [`perfstat`](crate::perfstat)).
    pub fn enable_profiling(&mut self) {
        self.prof = Some(HostProfiler::new());
        self.l1.enable_profiling();
    }

    /// Folds this SM's host-time accumulator (and its L1's) into
    /// `into` (end of run).
    pub fn merge_profile(&mut self, into: &mut HostProfiler) {
        if let Some(prof) = self.prof.take() {
            into.merge(&prof);
        }
        self.l1.merge_profile(into);
    }

    /// Number of resident warps (windowed-metrics input).
    pub fn active_warps(&self) -> usize {
        self.masks.live.count_ones() as usize
    }

    /// Whether the prefetcher reported throttling at the last tick.
    pub fn is_throttled(&self) -> bool {
        self.prev_throttled
    }

    /// The prefetcher's current chain-walk depth budget (0 for
    /// mechanisms without chains).
    pub fn chain_depth(&self) -> u32 {
        self.prefetcher.chain_depth()
    }

    /// Queues a CTA for execution on this SM.
    pub(crate) fn enqueue_cta(&mut self, cta: PendingCta) {
        self.cta_queue.push_back(cta);
        self.idle = None;
    }

    /// Gives the prefetcher its pre-kernel look at the trace.
    pub fn kernel_launch(&mut self, kernel: &KernelTrace) {
        self.prefetcher.on_kernel_launch(kernel);
    }

    /// Whether all queued and resident work has finished and the L1
    /// has drained (no queued requests, no outstanding misses).
    pub fn is_done(&self) -> bool {
        self.cta_queue.is_empty()
            && self.masks.live == 0
            && self.l1.peek_outgoing().is_none()
            && self.l1.outstanding_misses() == 0
    }

    /// Immutable view of the L1 (diagnostics and tests).
    pub fn l1(&self) -> &UnifiedL1 {
        &self.l1
    }

    /// The prefetcher's report name.
    pub fn prefetcher_name(&self) -> &str {
        self.prefetcher.name()
    }

    /// Re-derives slot `i`'s warp-state bits after a mutation, which
    /// ends any idle charge (a fill unstalling a warp, for one).
    fn sync(&mut self, i: usize) {
        self.masks.set(i, self.slots[i].as_ref());
        self.idle = None;
    }

    /// Whether the front of the CTA queue fits in the free slots.
    fn cta_launchable(&self) -> bool {
        let free = self.all_slots & !self.masks.live;
        self.cta_queue
            .front()
            .is_some_and(|cta| free.count_ones() as usize >= cta.warps.len())
    }

    fn try_launch_ctas(&mut self) {
        while self.cta_launchable() {
            let free = self.all_slots & !self.masks.live;
            let cta = self.cta_queue.pop_front().expect("front checked");
            for (slot_idx, trace_idx) in bits(free).zip(cta.warps.iter().copied()) {
                self.slots[slot_idx] = Some(WarpSlot::new(cta.cta, trace_idx, self.launch_seq));
                self.launch_seq += 1;
                self.sync(slot_idx);
            }
        }
    }

    /// Normalizes busy warps whose deadline has passed to ready. Only
    /// busy slots are visited, and only once the earliest deadline is
    /// due; `next_wake` is recomputed from the slots still busy.
    fn refresh_busy(&mut self, now: Cycle) {
        if now < self.masks.next_wake {
            return;
        }
        self.masks.next_wake = Cycle(u64::MAX);
        for i in bits(self.masks.busy) {
            if let Some(slot) = self.slots[i].as_mut() {
                slot.refresh(now);
            }
            self.sync(i);
        }
    }

    /// Advances the SM by one cycle: launch CTAs, refresh warps, issue
    /// from each scheduler, account stalls, sync prefetcher state.
    /// Returns the number of instructions issued.
    ///
    /// A tick that finds nothing to do records an idle charge, and
    /// the ticks after it replay that charge until its wake cycle
    /// instead of picking: same counters, a few adds.
    ///
    /// `noc_backpressured` reports whether the interconnect refused
    /// injections *last* cycle (the SMs tick before this cycle's
    /// injection loop) — it reattributes `MissQueueFull` rejections to
    /// the NoC when the queue is full because the network will not
    /// drain it.
    pub fn tick(
        &mut self,
        kernel: &KernelTrace,
        now: Cycle,
        noc_utilization: f64,
        noc_backpressured: bool,
    ) -> u32 {
        if let Some(charge) = self.idle {
            if now < charge.wake {
                self.replay_idle(1, now.plus(1));
                return 0;
            }
            self.idle = None;
        }
        // Phase attribution: the front-end regions below (CTA launch,
        // warp refresh, scheduler picks) are timed as `SmIssue`; the
        // L1 and prefetcher calls nested in `issue()` time themselves
        // (`L1Lookup`/`Mshr`/`Prefetch`), so phases stay disjoint.
        let sw = Stopwatch::start(self.prof.is_some());
        self.try_launch_ctas();
        sw.stop(&mut self.prof, Phase::SmIssue);
        self.l1.tick_recovery(now);
        let sw = Stopwatch::start(self.prof.is_some());
        self.refresh_busy(now);
        sw.stop(&mut self.prof, Phase::SmIssue);
        // No scheduler can pick: this tick charges only idle buckets.
        let idle = self.masks.ready == 0;

        let n_sched = self.schedulers.len();
        let mut issued = 0u32;
        for sid in 0..n_sched {
            let mut sched = std::mem::take(&mut self.schedulers[sid]);
            let part = self.partitions[sid];
            let sw = Stopwatch::start(self.prof.is_some());
            let picked = sched.pick(self.masks.ready & part, &self.slots, sid, n_sched);
            sw.stop(&mut self.prof, Phase::SmIssue);
            // Exactly one stall-taxonomy bucket is charged per
            // scheduler per cycle, so the buckets partition
            // `scheduler_cycles` exactly (audit-enforced).
            if let Some(slot_idx) = picked {
                let retrying = self.masks.retry & 1 << slot_idx != 0;
                self.l1.clear_last_fail();
                let did_issue = self.issue(slot_idx, kernel, now, noc_utilization);
                self.sync(slot_idx);
                let retired = self.slots[slot_idx].is_none();
                if retired {
                    sched.invalidate(slot_idx);
                }
                if did_issue {
                    issued += 1;
                    self.stats.stall.issued += 1;
                } else if retired {
                    // Trace exhausted: the warp retired, nothing to run.
                    self.stats.stall.no_warp += 1;
                } else if retrying {
                    // A reservation-failed memory instruction retried.
                    // The L1 latched which resource rejected it; a clean
                    // drain (no new fail) is an ordinary stall-on-use.
                    match self.l1.last_fail() {
                        Some(
                            ReservationFailReason::MshrFull | ReservationFailReason::NoEvictableWay,
                        ) => self.stats.stall.mem_struct_mshr += 1,
                        Some(ReservationFailReason::MissQueueFull) => {
                            if noc_backpressured {
                                self.stats.stall.mem_struct_noc += 1;
                            } else {
                                self.stats.stall.mem_struct_missq += 1;
                            }
                        }
                        None => self.stats.stall.mem_data += 1,
                    }
                } else {
                    // issue() only declines on retry or retire today;
                    // keep the partition exact if that ever changes.
                    self.stats.stall.scoreboard += 1;
                }
            } else {
                // Nothing issuable in this scheduler's slot partition,
                // so none of its warps is ready.
                let bucket = self.idle_bucket(part);
                *stall_bucket(&mut self.stats.stall, bucket) += 1;
            }
            self.schedulers[sid] = sched;
        }
        self.stats.stall.scheduler_cycles += n_sched as u64;

        // Stall taxonomy (Fig 5).
        let live = self.masks.live;
        if live != 0 && issued == 0 {
            self.stats.all_stall_cycles += 1;
            if live & !self.masks.memory_stalled() == 0 {
                self.stats.all_stall_mem_cycles += 1;
            }
        }
        self.stats.cycles = now.0 + 1;

        // Prefetcher/L1 policy sync (charged to the prefetch phase:
        // it is the mechanism's throttle/training state being read).
        let sw = Stopwatch::start(self.prof.is_some());
        self.l1.set_trained(self.prefetcher.trained());
        let throttled = self.prefetcher.throttled(now);
        if throttled != self.prev_throttled {
            self.prev_throttled = throttled;
            let data = if throttled {
                SimEvent::ThrottleHalt {
                    sm: self.id,
                    bw_utilization: noc_utilization,
                }
            } else {
                SimEvent::ThrottleResume {
                    sm: self.id,
                    bw_utilization: noc_utilization,
                }
            };
            self.emit(now, data);
        }
        if throttled {
            self.l1.confine_until(now.plus(1));
            self.stats.prefetch.throttled_cycles += 1;
        }
        sw.stop(&mut self.prof, Phase::Prefetch);
        // An unthrottled mechanism stays unthrottled, and its training
        // fixed, until its next access (the `Prefetcher` contract), so
        // only the busy-warp and recovery deadlines end the charge.
        if idle && !throttled {
            let wake = self.masks.next_wake.min(self.l1.recovery_due());
            if wake > now {
                self.idle = Some(self.idle_charge(wake));
            }
        }
        issued
    }

    /// The bucket an idle scheduler slot over partition `part` is
    /// charged to, as an index into [`IdleCharge::slots`]: what its
    /// warps are doing, memory stalls outranking memory-entered busy
    /// latency outranking compute.
    fn idle_bucket(&self, part: u64) -> usize {
        if self.masks.live & part == 0 {
            0
        } else if self.masks.memory_stalled() & part != 0 {
            1
        } else if self.masks.busy_mem & part != 0 {
            2
        } else {
            3
        }
    }

    /// What an idle tick charges under the current warp masks.
    fn idle_charge(&self, wake: Cycle) -> IdleCharge {
        let mut slots = [0; 4];
        for &part in &self.partitions {
            slots[self.idle_bucket(part)] += 1;
        }
        let live = self.masks.live;
        IdleCharge {
            wake,
            slots,
            all_stall: u64::from(live != 0),
            all_stall_mem: u64::from(live != 0 && live & !self.masks.memory_stalled() == 0),
        }
    }

    /// Charges `ticks` idle ticks from the held [`IdleCharge`], the last
    /// of them at cycle `end - 1`: what that many full ticks would add.
    pub(crate) fn replay_idle(&mut self, ticks: u64, end: Cycle) {
        let charge = self.idle.expect("replaying needs an idle charge");
        let stall = &mut self.stats.stall;
        for (bucket, n) in charge.slots.into_iter().enumerate() {
            *stall_bucket(stall, bucket) += n * ticks;
        }
        stall.scheduler_cycles += self.schedulers.len() as u64 * ticks;
        self.stats.all_stall_cycles += charge.all_stall * ticks;
        self.stats.all_stall_mem_cycles += charge.all_stall_mem * ticks;
        self.stats.cycles = end.0;
        self.replayed_ticks += ticks;
    }

    /// The first cycle whose tick runs in full, when this SM holds an
    /// idle charge its ticks before then replay (see [`Sm::tick`]).
    pub(crate) fn idle_until(&self) -> Option<Cycle> {
        self.idle.map(|charge| charge.wake)
    }

    /// Ticks that replayed an idle charge instead of picking (host-only).
    pub(crate) fn replayed_ticks(&self) -> u64 {
        self.replayed_ticks
    }

    /// Issues from `slot_idx`. Returns `true` if a *new* instruction
    /// was issued (retries of reservation-failed transactions return
    /// `false`).
    fn issue(
        &mut self,
        slot_idx: usize,
        kernel: &KernelTrace,
        now: Cycle,
        noc_utilization: f64,
    ) -> bool {
        let mut slot = self.slots[slot_idx]
            .take()
            .expect("scheduler picked a live slot");

        if !slot.pending.is_empty() {
            let next_is_load = matches!(
                kernel.warps()[slot.trace_idx].instrs.get(slot.next),
                Some(Instr::Load { .. })
            );
            self.process_txns(&mut slot, slot_idx, now, noc_utilization, next_is_load);
            self.slots[slot_idx] = Some(slot);
            return false;
        }

        let trace = &kernel.warps()[slot.trace_idx];
        match trace.instrs.get(slot.next) {
            None => {
                // Trace exhausted: retire the warp and free the slot.
                return false;
            }
            Some(Instr::Compute { cycles }) => {
                slot.next += 1;
                slot.state = WarpState::Busy(now.plus(u64::from(*cycles).max(1)));
                slot.busy_mem = false;
                self.stats.instructions += 1;
                self.emit(
                    now,
                    SimEvent::WarpIssue {
                        sm: self.id,
                        warp: WarpId(slot_idx as u32),
                    },
                );
            }
            Some(Instr::Load { pc, addrs }) => {
                slot.next += 1;
                slot.cur_pc = *pc;
                slot.cur_is_load = true;
                slot.cur_coalesced = addrs.len() == 1;
                slot.pending.clear();
                slot.pending.extend(addrs.iter());
                self.stats.instructions += 1;
                self.emit(
                    now,
                    SimEvent::WarpIssue {
                        sm: self.id,
                        warp: WarpId(slot_idx as u32),
                    },
                );
                let next_is_load = matches!(trace.instrs.get(slot.next), Some(Instr::Load { .. }));
                self.process_txns(&mut slot, slot_idx, now, noc_utilization, next_is_load);
            }
            Some(Instr::Store { pc, addrs }) => {
                slot.next += 1;
                slot.cur_pc = *pc;
                slot.cur_is_load = false;
                slot.cur_coalesced = addrs.len() == 1;
                slot.pending.clear();
                slot.pending.extend(addrs.iter());
                self.stats.instructions += 1;
                self.emit(
                    now,
                    SimEvent::WarpIssue {
                        sm: self.id,
                        warp: WarpId(slot_idx as u32),
                    },
                );
                self.process_txns(&mut slot, slot_idx, now, noc_utilization, false);
            }
        }
        self.slots[slot_idx] = Some(slot);
        true
    }

    /// Sends the warp's pending transactions to the L1, stopping at the
    /// first reservation fail (in-order LSU).
    fn process_txns(
        &mut self,
        slot: &mut WarpSlot,
        slot_idx: usize,
        now: Cycle,
        noc_utilization: f64,
        next_is_load: bool,
    ) {
        let mut accepted = 0;
        while let Some(&addr) = slot.pending.get(accepted) {
            let line = addr.line(self.line_bytes);
            if slot.cur_is_load {
                let outcome = self.l1.access_demand(line, WarpId(slot_idx as u32), now);
                if outcome == AccessOutcome::ReservationFail {
                    break;
                }
                accepted += 1;
                self.stats.demand_loads += 1;
                if matches!(outcome, AccessOutcome::Miss | AccessOutcome::HitReserved) {
                    slot.outstanding += 1;
                }
                if slot.cur_coalesced {
                    let event = AccessEvent {
                        sm: self.id,
                        warp: WarpId(slot_idx as u32),
                        cta: slot.cta,
                        pc: slot.cur_pc,
                        addr,
                        outcome,
                        cycle: now,
                    };
                    self.run_prefetcher(&event, now, noc_utilization);
                }
            } else {
                if !self.l1.access_store(line, now) {
                    break;
                }
                accepted += 1;
                self.stats.stores += 1;
            }
        }
        slot.pending.drain(..accepted);
        if slot.pending.is_empty() {
            if slot.cur_is_load {
                if next_is_load && slot.outstanding < self.max_outstanding_loads {
                    // Stall-on-use: keep issuing back-to-back loads;
                    // the next non-load instruction is the use barrier.
                    slot.state = WarpState::Ready;
                } else {
                    slot.settle_mem_instr(now, self.hit_latency);
                    if slot.state == WarpState::Waiting {
                        self.emit(
                            now,
                            SimEvent::WarpStall {
                                sm: self.id,
                                warp: WarpId(slot_idx as u32),
                            },
                        );
                    }
                }
            } else {
                slot.state = WarpState::Busy(now.plus(1));
                slot.busy_mem = true;
            }
        }
        // else: stay Ready; the scheduler retries next cycle.
    }

    fn run_prefetcher(&mut self, event: &AccessEvent, now: Cycle, noc_utilization: f64) {
        let sw = Stopwatch::start(self.prof.is_some());
        let ctx = PrefetchContext {
            cycle: now,
            bw_utilization: noc_utilization,
            free_lines: self.l1.free_lines(),
            total_lines: self.l1.total_lines(),
            prefetch_overrun: self.l1.take_overrun(),
            telemetry: self.trace.is_some(),
        };
        self.scratch.clear();
        self.prefetcher
            .on_demand_access(event, &ctx, &mut self.scratch);
        if self.trace.is_some() {
            self.pf_events.clear();
            self.prefetcher.drain_events(&mut self.pf_events);
            for i in 0..self.pf_events.len() {
                let data = match self.pf_events[i] {
                    PrefetcherEvent::ChainWalkStart { warp, pc } => SimEvent::ChainWalkStart {
                        sm: self.id,
                        warp,
                        pc,
                    },
                    PrefetcherEvent::ChainWalkStep { depth, addr } => SimEvent::ChainWalkStep {
                        sm: self.id,
                        depth,
                        addr,
                    },
                    PrefetcherEvent::ChainWalkStop { steps, reason } => SimEvent::ChainWalkStop {
                        sm: self.id,
                        steps,
                        reason,
                    },
                };
                self.emit(now, data);
            }
        }
        // Stop before the issue loop: `request_prefetch` times itself
        // under `L1Lookup`.
        sw.stop(&mut self.prof, Phase::Prefetch);
        self.scratch.truncate(self.max_prefetches_per_event);
        self.stats.prefetch.requested += self.scratch.len() as u64;
        for i in 0..self.scratch.len() {
            let line = self.scratch[i].addr.line(self.line_bytes);
            match self.l1.request_prefetch(line, now) {
                PrefetchIssue::Issued => self.stats.prefetch.issued += 1,
                PrefetchIssue::Redundant => self.stats.prefetch.redundant += 1,
                PrefetchIssue::Rejected => self.stats.prefetch.rejected += 1,
            }
        }
    }

    /// Drains one outgoing L1 request, if any (called by the GPU's
    /// interconnect injection loop).
    pub fn pop_outgoing(&mut self) -> Option<OutgoingRequest> {
        self.l1.pop_outgoing()
    }

    /// Whether the L1 has requests waiting for the interconnect.
    pub fn has_outgoing(&self) -> bool {
        self.l1.peek_outgoing().is_some()
    }

    /// Delivers a fill from the interconnect; wakes waiting warps and
    /// retires finished ones.
    pub fn deliver_fill(&mut self, line: crate::types::LineAddr, now: Cycle) {
        let waiters = self.l1.fill(line, now);
        for wid in waiters {
            let unstalled = self
                .slots
                .get_mut(wid.index())
                .and_then(|s| s.as_mut())
                .is_some_and(WarpSlot::complete_response);
            if unstalled {
                self.sync(wid.index());
                self.emit(
                    now,
                    SimEvent::WarpUnstall {
                        sm: self.id,
                        warp: wid,
                    },
                );
            }
        }
    }

    /// Folds the L1's counters into this SM's [`SimStats`] (called once
    /// at the end of simulation).
    pub fn finalize_stats(&mut self) {
        self.stats.l1 = self.l1.stats;
        let pf = &mut self.stats.prefetch;
        let l1pf = &self.l1.pf_stats;
        pf.fills = l1pf.fills;
        pf.useful = l1pf.useful;
        pf.late = l1pf.late;
        pf.evicted_unused = l1pf.evicted_unused;
        self.stats.fault.reissued_requests = self.l1.fault_stats.reissued_requests;
        self.stats.fault.spurious_fills = self.l1.fault_stats.spurious_fills;
    }

    /// Count of instructions issued so far (windowed-metrics input).
    pub fn instructions_issued(&self) -> u64 {
        self.stats.instructions
    }

    /// Whether any resident warp is absorbing a fixed latency —
    /// guaranteed future progress the watchdog must not mistake for a
    /// wedge. Between ticks every busy warp's deadline lies ahead: a
    /// full tick turns the due ones ready, and a replayed tick comes
    /// before the earliest deadline (audit-checked).
    pub fn has_busy_warp(&self) -> bool {
        self.masks.busy != 0
    }

    /// Snapshot of this SM's blocked state for a
    /// [`DeadlockReport`](crate::DeadlockReport).
    pub fn census(&self) -> SmCensus {
        let warps = self
            .slots
            .iter()
            .flatten()
            .map(|s| WarpCensus {
                cta: s.cta,
                trace_idx: s.trace_idx,
                next: s.next,
                block: match s.state {
                    WarpState::Ready => WarpBlock::Ready,
                    WarpState::Busy(until) => WarpBlock::Busy(until),
                    WarpState::Waiting => WarpBlock::Waiting,
                },
                outstanding: s.outstanding,
                pending_txns: s.pending.len(),
            })
            .collect();
        SmCensus {
            sm: self.id,
            mshr_entries: self.l1.outstanding_misses(),
            mshr_capacity: self.l1.mshr_capacity(),
            reserved_lines: self.l1.reserved_lines(),
            miss_queue: self.l1.miss_queue_len(),
            queued_ctas: self.cta_queue.len(),
            warps,
        }
    }

    /// Serializes the complete SM state for a checkpoint: every warp
    /// slot, scheduler cursors, the unified L1, the prefetcher's own
    /// state, the CTA launch queue, and counters. Config-derived
    /// fields (latencies, capacities) are not captured; trace and
    /// profiling attachments are runtime-only (event buffers are
    /// drained every cycle, so they are empty at a checkpoint
    /// boundary), and `scratch`/`pf_events` never hold data across
    /// cycles.
    pub fn save_state(&self) -> Value {
        let slots = self
            .slots
            .iter()
            .map(|s| match s {
                Some(slot) => slot.save_state(),
                None => Value::Null,
            })
            .collect();
        let cta_queue = self
            .cta_queue
            .iter()
            .map(|c| {
                Value::Arr(vec![
                    Value::u64(u64::from(c.cta.0)),
                    Value::Arr(c.warps.iter().map(|&w| Value::u64(w as u64)).collect()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("slots".into(), Value::Arr(slots)),
            (
                "schedulers".into(),
                Value::Arr(self.schedulers.iter().map(Scheduler::save_state).collect()),
            ),
            ("l1".into(), self.l1.save_state()),
            ("prefetcher".into(), self.prefetcher.save_state()),
            ("cta_queue".into(), Value::Arr(cta_queue)),
            ("launch_seq".into(), Value::u64(self.launch_seq)),
            ("stats".into(), self.stats.save_state()),
            ("prev_throttled".into(), Value::Bool(self.prev_throttled)),
        ])
    }

    /// Restores from [`save_state`](Sm::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or malformed field,
    /// or when the slot/scheduler counts do not match this SM's
    /// configuration (the checkpoint belongs to a different config).
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let slot_entries = json::arr_field(v, "slots")?;
        if slot_entries.len() != self.slots.len() {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} warp slots, SM has {}",
                slot_entries.len(),
                self.slots.len()
            )));
        }
        let mut slots = Vec::with_capacity(slot_entries.len());
        for entry in slot_entries {
            slots.push(match entry {
                Value::Null => None,
                other => Some(WarpSlot::from_state(other)?),
            });
        }
        let sched_entries = json::arr_field(v, "schedulers")?;
        if sched_entries.len() != self.schedulers.len() {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} schedulers, SM has {}",
                sched_entries.len(),
                self.schedulers.len()
            )));
        }
        let mut cta_queue = VecDeque::new();
        for entry in json::arr_field(v, "cta_queue")? {
            let pending = entry
                .as_arr()
                .and_then(|row| {
                    if let [cta, warps] = row {
                        let warps = warps
                            .as_arr()?
                            .iter()
                            .map(|w| w.as_u64().map(|w| w as usize))
                            .collect::<Option<Vec<_>>>()?;
                        Some(PendingCta {
                            cta: CtaId(cta.as_u32()?),
                            warps,
                        })
                    } else {
                        None
                    }
                })
                .ok_or_else(|| SnapshotError::malformed("SM cta_queue entry"))?;
            cta_queue.push_back(pending);
        }
        for (sched, entry) in self.schedulers.iter_mut().zip(sched_entries) {
            sched.restore_state(entry)?;
        }
        self.l1.restore_state(json::field(v, "l1")?)?;
        self.prefetcher
            .restore_state(json::field(v, "prefetcher")?)?;
        self.stats.restore_state(json::field(v, "stats")?)?;
        self.masks = WarpMasks::from_slots(&slots);
        self.idle = None;
        self.slots = slots;
        self.cta_queue = cta_queue;
        self.launch_seq = json::u64_field(v, "launch_seq")?;
        self.prev_throttled = json::bool_field(v, "prev_throttled")?;
        Ok(())
    }

    /// Frees retired warps (trace exhausted, nothing outstanding).
    /// Called each cycle by the GPU after fills are delivered.
    pub fn retire_finished(&mut self, kernel: &KernelTrace) {
        // Ready with nothing pending; the trace and responses decide.
        for i in bits(self.masks.ready & !self.masks.retry) {
            let retire = self.slots[i].as_ref().is_some_and(|s| {
                s.outstanding == 0 && s.next >= kernel.warps()[s.trace_idx].instrs.len()
            });
            if retire {
                self.slots[i] = None;
                self.sync(i);
            }
        }
    }

    /// Checks the derived warp state against the slots it summarizes:
    /// recomputes every warp mask, the resident-warp count and
    /// `next_wake` from scratch and reports each mismatch (empty when
    /// consistent). Called by the device's invariant auditor.
    pub fn audit_invariants(&self) -> Vec<String> {
        let want = WarpMasks::from_slots(&self.slots);
        let have = self.masks;
        let mut violations: Vec<String> = [
            ("live", have.live, want.live),
            ("ready", have.ready, want.ready),
            ("waiting", have.waiting, want.waiting),
            ("retry", have.retry, want.retry),
            ("busy", have.busy, want.busy),
            ("busy_mem", have.busy_mem, want.busy_mem),
        ]
        .into_iter()
        .filter(|(_, have, want)| have != want)
        .map(|(name, have, want)| {
            format!("warp mask {name} is {have:#018x} but the slots give {want:#018x}")
        })
        .collect();
        let resident = self.slots.iter().flatten().count();
        if self.active_warps() != resident {
            violations.push(format!(
                "{} active warps counted but {resident} slots occupied",
                self.active_warps()
            ));
        }
        if have.next_wake != want.next_wake {
            violations.push(format!(
                "next_wake is cycle {} but the earliest busy deadline is cycle {}",
                have.next_wake.0, want.next_wake.0
            ));
        }
        // The last tick ran at cycle `stats.cycles - 1`; it left no busy
        // deadline due, which is what lets the watchdog read the mask.
        if self.stats.cycles > 0 && want.next_wake.0 < self.stats.cycles {
            violations.push(format!(
                "a warp is still busy until cycle {} after the tick at cycle {}",
                want.next_wake.0,
                self.stats.cycles - 1
            ));
        }
        if let Some(charge) = self.idle {
            violations.extend(self.audit_idle_charge(charge, &want));
        }
        violations
    }

    /// Checks a held idle charge against what a full tick would do now:
    /// pick nothing, launch nothing, recover nothing, stay unthrottled,
    /// and charge exactly the recorded buckets until the wake cycle.
    fn audit_idle_charge(&self, charge: IdleCharge, masks: &WarpMasks) -> Vec<String> {
        let mut v = Vec::new();
        if masks.ready != 0 {
            v.push(format!(
                "idle charge held with ready warps {:#018x}",
                masks.ready
            ));
        }
        if self.cta_launchable() {
            v.push("idle charge held with a launchable CTA".to_string());
        }
        if self.prev_throttled {
            v.push("idle charge held by a throttled SM".to_string());
        }
        let due = masks.next_wake.min(self.l1.recovery_due());
        if charge.wake > due {
            v.push(format!(
                "idle charge wakes at cycle {} but a deadline is due at cycle {}",
                charge.wake.0, due.0
            ));
        }
        let want = self.idle_charge(charge.wake);
        if charge != want {
            v.push(format!(
                "idle charge {charge:?} but the warp masks charge {want:?}"
            ));
        }
        v
    }
}

/// The [`StallBreakdown`] counter of idle bucket `bucket` (see
/// [`Sm::idle_bucket`]).
fn stall_bucket(stall: &mut StallBreakdown, bucket: usize) -> &mut u64 {
    match bucket {
        0 => &mut stall.no_warp,
        1 => &mut stall.mem_data,
        2 => &mut stall.barrier,
        _ => &mut stall.scoreboard,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::WarpTrace;
    use crate::prefetch::NullPrefetcher;
    use crate::types::LineAddr;

    /// One SM holding one warp that issues a load, then waits on it.
    fn waiting_sm() -> (Sm, KernelTrace) {
        let kernel = KernelTrace::new(
            "wait",
            vec![WarpTrace::new(
                CtaId(0),
                vec![Instr::load(0u32, 0u64), Instr::compute(1)],
            )],
        );
        let mut sm = Sm::new(&GpuConfig::scaled(1), SmId(0), Box::new(NullPrefetcher));
        sm.enqueue_cta(PendingCta {
            cta: CtaId(0),
            warps: vec![0],
        });
        assert_eq!(sm.tick(&kernel, Cycle(0), 0.0, false), 1, "the load issues");
        assert_eq!(sm.idle_until(), None, "an issuing tick records no charge");
        (sm, kernel)
    }

    #[test]
    fn idle_ticks_replay_exactly_what_a_full_tick_charged() {
        let (mut sm, kernel) = waiting_sm();
        let before = sm.stats;
        assert_eq!(sm.tick(&kernel, Cycle(1), 0.0, false), 0);
        assert_eq!(
            sm.idle_until(),
            Some(Cycle(u64::MAX)),
            "no deadline to wake at"
        );
        let full = sm.stats;
        assert_eq!(sm.tick(&kernel, Cycle(2), 0.0, false), 0);
        assert_eq!(sm.replayed_ticks(), 1);
        let replayed = sm.stats;
        let delta = |a: &SimStats, b: &SimStats| {
            (
                b.stall.no_warp - a.stall.no_warp,
                b.stall.mem_data - a.stall.mem_data,
                b.stall.scheduler_cycles - a.stall.scheduler_cycles,
                b.all_stall_cycles - a.all_stall_cycles,
                b.all_stall_mem_cycles - a.all_stall_mem_cycles,
                b.cycles - a.cycles,
            )
        };
        assert_eq!(delta(&before, &full), delta(&full, &replayed));
        assert!(
            sm.audit_invariants().is_empty(),
            "{:?}",
            sm.audit_invariants()
        );

        // The fill unstalls the warp, which ends the charge.
        sm.deliver_fill(LineAddr(0), Cycle(3));
        assert_eq!(sm.idle_until(), None);
        assert_eq!(sm.tick(&kernel, Cycle(3), 0.0, false), 1);
    }

    #[test]
    fn audit_flags_a_stale_idle_charge() {
        let (mut sm, kernel) = waiting_sm();
        sm.tick(&kernel, Cycle(1), 0.0, false);
        assert!(sm.idle_until().is_some());
        // Make the warp ready behind the charge's back.
        let slot = sm.slots[0].as_mut().expect("resident warp");
        slot.state = WarpState::Ready;
        slot.outstanding = 0;
        let slot = sm.slots[0].clone();
        sm.masks.set(0, slot.as_ref());
        let violations = sm.audit_invariants();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("idle charge held with ready warps")),
            "{violations:?}"
        );
    }
}
