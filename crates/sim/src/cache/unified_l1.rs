//! The unified L1 data cache / shared-memory SRAM, with Snake's
//! decoupled prefetch space (§3.2 of the paper).
//!
//! One structure models all three placement modes:
//!
//! * **Plain** — prefetched lines are ordinary L1 lines (baselines and
//!   Snake-DT). The per-line [`Side`] flag is still tracked for
//!   coverage accounting, but no partition policy applies.
//! * **Decoupled** — Snake's flag-based partitioning: a 50% demand cap
//!   while the prefetcher trains, confinement of demand evictions to
//!   the demand side while throttled, bulk 25% LRU eviction when the
//!   SRAM fills, with the eviction side chosen by the 80%-transferred
//!   rule.
//! * **Isolated** — prefetched lines live in a dedicated side buffer
//!   (Isolated-Snake, §5.7).

use std::collections::VecDeque;

use crate::cache::mshr::{MergeResult, MissOrigin, MshrFile};
use crate::cache::tag_array::{Side, TagArray};
use crate::config::GpuConfig;
use crate::fault::Recovery;
use crate::json::{self, Value};
use crate::obs::{PrefetchDropReason, PrefetchLifecycle, SimEvent, TraceEvent};
use crate::perfstat::{HostProfiler, Phase, Stopwatch};
use crate::snapshot::SnapshotError;
use crate::stats::{AccessOutcome, CacheStats, FaultStats, PrefetchStats, ReservationFailReason};
use crate::types::{Cycle, LineAddr, SmId, WarpId};

/// Placement/policy mode of the unified SRAM (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Mode {
    /// No partition policies.
    Plain,
    /// Snake's decoupled unified cache.
    Decoupled,
    /// Separate prefetch buffer of the given number of lines.
    Isolated {
        /// Side-buffer capacity in lines.
        lines: u32,
    },
}

/// Result of asking the L1 to issue a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchIssue {
    /// Sent down the hierarchy.
    Issued,
    /// Line already present or in flight.
    Redundant,
    /// No resources (MSHR/miss queue/victim); dropped.
    Rejected,
}

/// A miss waiting to be picked up by the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutgoingRequest {
    /// Missing line (reads) or written line (stores).
    pub line: LineAddr,
    /// Read miss vs write-through store traffic.
    pub kind: RequestKind,
}

/// What an outgoing request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Read that expects a fill response.
    ReadMiss,
    /// Write-through store; no response.
    Store,
}

/// Warps to wake after a fill.
pub type Waiters = Vec<WarpId>;

/// An unused prefetched line evicted younger than this is counted as
/// prefetcher overrun (the §3.3 space-throttle trigger); older unused
/// lines are merely inaccurate prefetches.
const OVERRUN_AGE_CYCLES: u64 = 256;

/// The unified L1 SRAM.
#[derive(Debug, Clone)]
pub struct UnifiedL1 {
    tags: TagArray,
    isolated: Option<TagArray>,
    mshr: MshrFile,
    miss_queue: VecDeque<OutgoingRequest>,
    miss_queue_depth: usize,
    mode: L1Mode,
    /// While `now < confined_until`, demand allocations may not evict
    /// prefetch-side lines (§3.2 throttle confinement).
    confined_until: Cycle,
    /// While the prefetcher is untrained, demand data is capped at 50%
    /// of the SRAM (§3.2).
    trained: bool,
    /// Cumulative prefetch fills and flag-flip transfers, for the
    /// 80%-transferred eviction-side rule.
    transfer_numer: u64,
    transfer_denom: u64,
    /// Sticky flag: an unused prefetched line was evicted since the
    /// last [`UnifiedL1::take_overrun`] call.
    overrun: bool,
    /// Timeout-and-reissue recovery for lost fills, if enabled.
    recovery: Option<Recovery>,
    /// Recovery/fault counters (reissues, spurious fills).
    pub fault_stats: FaultStats,
    /// Counters exposed to the simulator.
    pub stats: CacheStats,
    /// The rejecting resource of the most recent reservation fail —
    /// the attribution signal for the stall taxonomy's structural
    /// buckets. Transient: cleared by the SM before every issue
    /// attempt and read back the same cycle, so it never needs to be
    /// checkpointed (checkpoints land at cycle boundaries).
    last_fail: Option<ReservationFailReason>,
    /// Prefetch-effectiveness counters (fills/useful/evicted tracked
    /// here; issued/redundant tracked by the SM front-end).
    pub pf_stats: PrefetchStats,
    /// Prefetch-lifecycle latency histograms (always collected; a
    /// `Copy` histogram record is cheaper than gating it).
    pub lifecycle: PrefetchLifecycle,
    /// Cycle-stamped events buffered while tracing is enabled, drained
    /// by the SM each cycle. `None` (the default) keeps every emission
    /// site to a single branch.
    trace: Option<(SmId, Vec<TraceEvent>)>,
    /// Host-time accumulator for lookup ([`Phase::L1Lookup`]) and
    /// MSHR-completion ([`Phase::Mshr`]) work. `None` (the default)
    /// keeps every timed entry point to a single branch.
    prof: Option<HostProfiler>,
}

impl UnifiedL1 {
    /// Builds the L1 from the GPU configuration and a placement mode.
    pub fn new(cfg: &GpuConfig, mode: L1Mode) -> Self {
        let tags = TagArray::from_geometry(&cfg.l1, cfg.shared_mem_carveout_bytes);
        let isolated = match mode {
            L1Mode::Isolated { lines } => Some(TagArray::new(lines, lines)),
            _ => None,
        };
        UnifiedL1 {
            tags,
            isolated,
            mshr: MshrFile::new(cfg.mshr_entries, cfg.mshr_merge),
            miss_queue: VecDeque::new(),
            miss_queue_depth: cfg.miss_queue_depth as usize,
            mode,
            confined_until: Cycle::ZERO,
            trained: false,
            transfer_numer: 0,
            transfer_denom: 0,
            overrun: false,
            recovery: cfg.fault.recovery,
            fault_stats: FaultStats::default(),
            stats: CacheStats::default(),
            last_fail: None,
            pf_stats: PrefetchStats::default(),
            lifecycle: PrefetchLifecycle::default(),
            trace: None,
            prof: None,
        }
    }

    /// Starts accumulating host-time for this L1's lookup and MSHR
    /// phases (see [`perfstat`](crate::perfstat)).
    pub fn enable_profiling(&mut self) {
        self.prof = Some(HostProfiler::new());
    }

    /// Folds this L1's host-time accumulator into `into` (end of run).
    pub fn merge_profile(&mut self, into: &mut HostProfiler) {
        if let Some(prof) = self.prof.take() {
            into.merge(&prof);
        }
    }

    /// Starts buffering trace events on behalf of the SM that owns
    /// this L1 (also enables the MSHR file's allocation events).
    pub fn enable_trace(&mut self, sm: SmId) {
        self.trace = Some((sm, Vec::new()));
        self.mshr.enable_trace(sm);
    }

    /// Moves buffered trace events (L1 first, then MSHR allocations)
    /// into `out`.
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some((_, buf)) = self.trace.as_mut() {
            out.append(buf);
        }
        self.mshr.drain_trace(out);
    }

    fn emit(&mut self, cycle: Cycle, make: impl FnOnce(SmId) -> SimEvent) {
        if let Some((sm, buf)) = self.trace.as_mut() {
            buf.push(TraceEvent {
                cycle,
                data: make(*sm),
            });
        }
    }

    /// Lines currently free (invalid) in the unified SRAM — the space
    /// throttle trigger input.
    pub fn free_lines(&self) -> u32 {
        self.tags.free_lines()
    }

    /// Total usable lines in the unified SRAM.
    pub fn total_lines(&self) -> u32 {
        self.tags.capacity()
    }

    /// Valid prefetch-side lines (decoupled/plain modes).
    pub fn prefetch_lines(&self) -> u32 {
        self.tags.prefetch_lines()
    }

    /// Returns and clears the prefetch-overrun flag (the §3.3 space
    /// throttle trigger input).
    pub fn take_overrun(&mut self) -> bool {
        std::mem::take(&mut self.overrun)
    }

    /// Marks the prefetcher trained/untrained (drives the 50% cap).
    pub fn set_trained(&mut self, trained: bool) {
        self.trained = trained;
    }

    /// Confines demand evictions to the demand side until `until`
    /// (called when the prefetcher throttles).
    pub fn confine_until(&mut self, until: Cycle) {
        if until > self.confined_until {
            self.confined_until = until;
        }
    }

    fn fraction_transferred(&self) -> f64 {
        if self.transfer_denom == 0 {
            0.0
        } else {
            self.transfer_numer as f64 / self.transfer_denom as f64
        }
    }

    /// Records a reservation fail in the stats and latches the
    /// rejecting resource for this cycle's stall attribution.
    fn reservation_fail(&mut self, reason: ReservationFailReason) {
        self.stats.record_fail(reason);
        self.last_fail = Some(reason);
    }

    /// Clears the per-attempt fail-reason latch (the SM calls this
    /// before each issue attempt).
    pub fn clear_last_fail(&mut self) {
        self.last_fail = None;
    }

    /// The rejecting resource of the most recent reservation fail
    /// since [`clear_last_fail`](UnifiedL1::clear_last_fail), if any.
    pub fn last_fail(&self) -> Option<ReservationFailReason> {
        self.last_fail
    }

    /// A demand load access.
    pub fn access_demand(&mut self, line: LineAddr, warp: WarpId, now: Cycle) -> AccessOutcome {
        let sw = Stopwatch::start(self.prof.is_some());
        let outcome = self.access_demand_inner(line, warp, now);
        self.emit(now, |sm| SimEvent::L1Access {
            sm,
            warp,
            line,
            outcome,
        });
        sw.stop(&mut self.prof, Phase::L1Lookup);
        outcome
    }

    fn access_demand_inner(&mut self, line: LineAddr, warp: WarpId, now: Cycle) -> AccessOutcome {
        // Isolated prefetch buffer is checked in parallel with the L1.
        if let Some(iso) = &mut self.isolated {
            if let Some(way) = iso.probe(line) {
                use crate::cache::tag_array::LineState;
                if iso.line(way).state == LineState::Reserved {
                    // Demand caught an in-flight isolated prefetch:
                    // merge into its MSHR entry (late prefetch).
                    return match self.mshr.merge_demand(line, warp) {
                        MergeResult::Merged {
                            was_prefetch,
                            first_demand,
                        } => {
                            if was_prefetch {
                                self.stats.merges_with_prefetch += 1;
                                if first_demand {
                                    self.pf_stats.late += 1;
                                }
                            } else {
                                self.stats.hits_reserved += 1;
                            }
                            self.emit(now, |sm| SimEvent::MshrMerge { sm, line, warp });
                            AccessOutcome::HitReserved
                        }
                        MergeResult::Full => {
                            self.reservation_fail(ReservationFailReason::MshrFull);
                            AccessOutcome::ReservationFail
                        }
                    };
                }
                if iso.line(way).state == LineState::Valid {
                    let first_use = !iso.line(way).used;
                    let filled = iso.line(way).fill_cycle;
                    iso.touch(way, now);
                    if iso.line(way).side == Side::Prefetch {
                        // Serve from the buffer; flag it used.
                        iso.transfer_to_demand(way, now);
                        // Keep it resident as demand data in the buffer.
                    }
                    if first_use {
                        self.pf_stats.useful += 1;
                        self.transfer_numer += 1;
                        let latency = now.since(filled);
                        self.lifecycle.fill_to_first_use.record(latency);
                        self.emit(now, |sm| SimEvent::PrefetchFirstUse { sm, line, latency });
                    }
                    self.stats.hits_on_prefetch += 1;
                    return AccessOutcome::HitPrefetch;
                }
            }
        }

        if let Some(way) = self.tags.probe(line) {
            use crate::cache::tag_array::LineState;
            let l = *self.tags.line(way);
            match l.state {
                LineState::Valid => {
                    if l.side == Side::Prefetch {
                        self.tags.transfer_to_demand(way, now);
                        self.transfer_numer += 1;
                        self.pf_stats.useful += 1;
                        self.stats.hits_on_prefetch += 1;
                        let latency = now.since(l.fill_cycle);
                        self.lifecycle.fill_to_first_use.record(latency);
                        self.emit(now, |sm| SimEvent::PrefetchFirstUse { sm, line, latency });
                        AccessOutcome::HitPrefetch
                    } else if l.origin_prefetch {
                        // Re-touch of data a prefetch brought in: the
                        // address was correctly predicted (coverage),
                        // though `useful` was already counted once.
                        self.tags.touch(way, now);
                        self.stats.hits_on_prefetch += 1;
                        AccessOutcome::HitPrefetch
                    } else {
                        self.tags.touch(way, now);
                        self.stats.hits += 1;
                        AccessOutcome::Hit
                    }
                }
                LineState::Reserved => match self.mshr.merge_demand(line, warp) {
                    MergeResult::Merged {
                        was_prefetch,
                        first_demand,
                    } => {
                        // A demand merged into an in-flight prefetch:
                        // the line must land on the demand side.
                        self.tags.set_reserved_side(way, Side::Demand);
                        if was_prefetch {
                            self.stats.merges_with_prefetch += 1;
                            if first_demand {
                                self.pf_stats.late += 1;
                            }
                        } else {
                            self.stats.hits_reserved += 1;
                        }
                        self.emit(now, |sm| SimEvent::MshrMerge { sm, line, warp });
                        AccessOutcome::HitReserved
                    }
                    MergeResult::Full => {
                        self.reservation_fail(ReservationFailReason::MshrFull);
                        AccessOutcome::ReservationFail
                    }
                },
                LineState::Invalid => unreachable!("probe never returns invalid lines"),
            }
        } else {
            self.allocate_demand_miss(line, warp, now)
        }
    }

    fn allocate_demand_miss(&mut self, line: LineAddr, warp: WarpId, now: Cycle) -> AccessOutcome {
        if !self.mshr.has_free_entry() {
            self.reservation_fail(ReservationFailReason::MshrFull);
            return AccessOutcome::ReservationFail;
        }
        if self.miss_queue.len() >= self.miss_queue_depth {
            self.reservation_fail(ReservationFailReason::MissQueueFull);
            return AccessOutcome::ReservationFail;
        }
        let victim = match self.demand_victim(line, now) {
            Some(w) => w,
            None => {
                self.reservation_fail(ReservationFailReason::NoEvictableWay);
                return AccessOutcome::ReservationFail;
            }
        };
        self.evict_for_alloc(victim, now);
        self.tags.reserve(victim, line, Side::Demand, now);
        self.mshr
            .allocate(line, MissOrigin::Demand, Some(warp), now);
        self.miss_queue.push_back(OutgoingRequest {
            line,
            kind: RequestKind::ReadMiss,
        });
        self.stats.misses += 1;
        AccessOutcome::Miss
    }

    /// Victim choice for a demand allocation, honoring the decoupling
    /// policies.
    fn demand_victim(
        &mut self,
        line: LineAddr,
        now: Cycle,
    ) -> Option<crate::cache::tag_array::Way> {
        if self.mode != L1Mode::Decoupled {
            return self.tags.find_victim(line, |_| true);
        }
        let confined = now < self.confined_until;
        let capped = !self.trained && self.tags.demand_lines() >= self.tags.capacity() / 2;
        if capped {
            // At the 50% training cap: force replacement of a demand
            // line; never expand into free space or the prefetch side.
            self.tags
                .find_lru_valid(line, |l| l.side == Side::Demand)
                .or_else(|| self.tags.find_victim(line, |l| l.side == Side::Demand))
        } else if confined {
            // Throttle confinement: free space is fine, but prefetch
            // lines must not be displaced.
            self.tags.find_victim(line, |l| l.side == Side::Demand)
        } else {
            if self.tags.free_lines() == 0 {
                self.bulk_free(now);
            }
            // §3.2: both sides expand freely; the LRU victim may be an
            // unconsumed prefetched line, which raises the overrun flag
            // (the throttle's space trigger).
            let v = self.tags.find_victim(line, |_| true);
            if let Some(w) = v {
                use crate::cache::tag_array::LineState;
                let l = self.tags.line(w);
                if l.state == LineState::Valid
                    && l.side == Side::Prefetch
                    && !l.used
                    && now.since(l.fill_cycle) < OVERRUN_AGE_CYCLES
                {
                    self.overrun = true;
                }
            }
            v
        }
    }

    /// §3.2: when the SRAM is full, free 25% of it by LRU, from the
    /// prefetch side unless ≥80% of prefetched data was transferred
    /// (accurate prefetching), in which case older demand data goes.
    fn bulk_free(&mut self, now: Cycle) {
        let quarter = (self.tags.capacity() / 4).max(1);
        let side = if self.fraction_transferred() >= 0.8 {
            Side::Demand
        } else {
            Side::Prefetch
        };
        let mut evicted = self.tags.bulk_evict_lru(side, quarter);
        if evicted.is_empty() {
            // Chosen side empty; fall back to the other side.
            let other = match side {
                Side::Demand => Side::Prefetch,
                Side::Prefetch => Side::Demand,
            };
            evicted = self.tags.bulk_evict_lru(other, quarter);
        }
        for l in &evicted {
            self.stats.evictions += 1;
            if l.side == Side::Prefetch && !l.used {
                self.pf_stats.evicted_unused += 1;
                if now.since(l.fill_cycle) < OVERRUN_AGE_CYCLES {
                    self.overrun = true;
                }
                let lifetime = now.since(l.fill_cycle);
                self.lifecycle.lifetime_unused.record(lifetime);
                let dead = l.tag;
                self.emit(now, |sm| SimEvent::PrefetchEvictedUnused {
                    sm,
                    line: dead,
                    lifetime,
                });
            }
        }
    }

    fn evict_for_alloc(&mut self, way: crate::cache::tag_array::Way, now: Cycle) {
        use crate::cache::tag_array::LineState;
        if self.tags.line(way).state == LineState::Valid {
            let l = self.tags.evict(way);
            self.stats.evictions += 1;
            if l.side == Side::Prefetch && !l.used {
                self.pf_stats.evicted_unused += 1;
                // Young lines dying unused = the prefetcher outran
                // consumption (frontier churn). Old unused lines are
                // simply wrong prefetches — not a space signal.
                if now.since(l.fill_cycle) < OVERRUN_AGE_CYCLES {
                    self.overrun = true;
                }
                let lifetime = now.since(l.fill_cycle);
                self.lifecycle.lifetime_unused.record(lifetime);
                self.emit(now, |sm| SimEvent::PrefetchEvictedUnused {
                    sm,
                    line: l.tag,
                    lifetime,
                });
            }
        }
    }

    /// Asks the L1 to issue a prefetch for `line`.
    pub fn request_prefetch(&mut self, line: LineAddr, now: Cycle) -> PrefetchIssue {
        let sw = Stopwatch::start(self.prof.is_some());
        let res = self.request_prefetch_inner(line, now);
        match res {
            PrefetchIssue::Issued => {
                self.emit(now, |sm| SimEvent::PrefetchIssued { sm, line });
            }
            PrefetchIssue::Redundant => {
                self.emit(now, |sm| SimEvent::PrefetchDropped {
                    sm,
                    line,
                    reason: PrefetchDropReason::Redundant,
                });
            }
            PrefetchIssue::Rejected => {
                self.emit(now, |sm| SimEvent::PrefetchDropped {
                    sm,
                    line,
                    reason: PrefetchDropReason::Rejected,
                });
            }
        }
        sw.stop(&mut self.prof, Phase::L1Lookup);
        res
    }

    fn request_prefetch_inner(&mut self, line: LineAddr, now: Cycle) -> PrefetchIssue {
        // Present or in-flight anywhere -> redundant.
        if self.tags.probe(line).is_some() {
            return PrefetchIssue::Redundant;
        }
        if let Some(iso) = &self.isolated {
            if iso.probe(line).is_some() {
                return PrefetchIssue::Redundant;
            }
        }
        if !self.mshr.has_free_entry() || self.miss_queue.len() >= self.miss_queue_depth {
            return PrefetchIssue::Rejected;
        }
        // Reserve space at the destination.
        let mut iso_dead: Option<(LineAddr, u64)> = None;
        let reserved = if let Some(iso) = &mut self.isolated {
            match iso.find_victim(line, |_| true) {
                Some(w) => {
                    use crate::cache::tag_array::LineState;
                    if iso.line(w).state == LineState::Valid {
                        let l = iso.evict(w);
                        if l.side == Side::Prefetch && !l.used {
                            self.pf_stats.evicted_unused += 1;
                            iso_dead = Some((l.tag, now.since(l.fill_cycle)));
                        }
                    }
                    iso.reserve(w, line, Side::Prefetch, now);
                    true
                }
                None => false,
            }
        } else {
            if self.mode == L1Mode::Decoupled && self.tags.free_lines() == 0 {
                self.bulk_free(now);
            }
            // Plain LRU victim: recently filled prefetch lines (the
            // frontier) are naturally protected.
            let victim = self.tags.find_victim(line, |_| true);
            match victim {
                Some(w) => {
                    self.evict_for_alloc(w, now);
                    self.tags.reserve(w, line, Side::Prefetch, now);
                    true
                }
                None => false,
            }
        };
        if let Some((dead, lifetime)) = iso_dead {
            self.lifecycle.lifetime_unused.record(lifetime);
            self.emit(now, |sm| SimEvent::PrefetchEvictedUnused {
                sm,
                line: dead,
                lifetime,
            });
        }
        if !reserved {
            return PrefetchIssue::Rejected;
        }
        self.mshr.allocate(line, MissOrigin::Prefetch, None, now);
        self.miss_queue.push_back(OutgoingRequest {
            line,
            kind: RequestKind::ReadMiss,
        });
        PrefetchIssue::Issued
    }

    /// A write-through, no-allocate store. Returns `false` when the
    /// miss queue is full (reservation fail; the warp retries).
    pub fn access_store(&mut self, line: LineAddr, now: Cycle) -> bool {
        let sw = Stopwatch::start(self.prof.is_some());
        let accepted = self.access_store_inner(line, now);
        sw.stop(&mut self.prof, Phase::L1Lookup);
        accepted
    }

    fn access_store_inner(&mut self, line: LineAddr, now: Cycle) -> bool {
        if self.miss_queue.len() >= self.miss_queue_depth {
            self.reservation_fail(ReservationFailReason::MissQueueFull);
            return false;
        }
        if let Some(way) = self.tags.probe(line) {
            use crate::cache::tag_array::LineState;
            if self.tags.line(way).state == LineState::Valid {
                self.tags.touch(way, now);
            }
        }
        self.miss_queue.push_back(OutgoingRequest {
            line,
            kind: RequestKind::Store,
        });
        true
    }

    /// Pops the next outgoing request if the interconnect can take it.
    pub fn pop_outgoing(&mut self) -> Option<OutgoingRequest> {
        self.miss_queue.pop_front()
    }

    /// Peeks the head of the miss queue.
    pub fn peek_outgoing(&self) -> Option<&OutgoingRequest> {
        self.miss_queue.front()
    }

    /// Delivers a fill from the memory partition: completes the MSHR,
    /// fills the reserved line, returns the warps to wake.
    ///
    /// A fill with no outstanding MSHR entry (a fault-injected
    /// duplicate, or the original response finally arriving after a
    /// timeout reissue already completed the miss) is counted as
    /// spurious and discarded.
    pub fn fill(&mut self, line: LineAddr, now: Cycle) -> Waiters {
        let sw = Stopwatch::start(self.prof.is_some());
        let waiters = self.fill_inner(line, now);
        sw.stop(&mut self.prof, Phase::Mshr);
        waiters
    }

    fn fill_inner(&mut self, line: LineAddr, now: Cycle) -> Waiters {
        let Some(entry) = self.mshr.try_complete(line) else {
            self.fault_stats.spurious_fills += 1;
            return Vec::new();
        };
        let waiters = entry.waiters.len() as u32;
        self.emit(now, |sm| SimEvent::MshrFill { sm, line, waiters });
        let pure_prefetch = entry.origin == MissOrigin::Prefetch && !entry.demand_merged;
        if pure_prefetch {
            self.pf_stats.fills += 1;
            self.transfer_denom += 1;
            let latency = now.since(entry.alloc_cycle);
            self.lifecycle.issue_to_fill.record(latency);
            self.emit(now, |sm| SimEvent::PrefetchFilled { sm, line, latency });
        }
        if let Some(iso) = &mut self.isolated {
            if let Some(way) = iso.probe(line) {
                iso.fill(way, now);
                return entry.waiters;
            }
        }
        let way = self
            .tags
            .probe(line)
            .expect("reserved line must still be present at fill time");
        // A demand-merged prefetch lands on the demand side (set at
        // merge time); late-merged waiters get the data now.
        self.tags.fill(way, now);
        entry.waiters
    }

    /// Outstanding MSHR entries (diagnostics).
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }

    /// MSHR entry capacity (diagnostics).
    pub fn mshr_capacity(&self) -> usize {
        self.mshr.capacity()
    }

    /// Requests queued for the interconnect (diagnostics).
    pub fn miss_queue_len(&self) -> usize {
        self.miss_queue.len()
    }

    /// Configured miss-queue depth (diagnostics/metrics).
    pub fn miss_queue_capacity(&self) -> usize {
        self.miss_queue_depth
    }

    /// Tag-array lines reserved for in-flight misses, including the
    /// isolated side buffer (diagnostics).
    pub fn reserved_lines(&self) -> u32 {
        self.tags.reserved_lines() + self.isolated.as_ref().map_or(0, TagArray::reserved_lines)
    }

    /// Timeout recovery: re-issues read misses whose fill has been
    /// outstanding longer than the configured timeout, up to the
    /// per-entry retry budget and the miss queue's spare room. The
    /// MSHR entry (and its reserved line and waiters) stays in place;
    /// only a fresh read goes down the hierarchy. No-op unless
    /// [`FaultPlan::recovery`](crate::FaultPlan) is set.
    pub fn tick_recovery(&mut self, now: Cycle) {
        let sw = Stopwatch::start(self.prof.is_some());
        self.tick_recovery_inner(now);
        sw.stop(&mut self.prof, Phase::Mshr);
    }

    /// The earliest cycle at which [`tick_recovery`] may re-issue a
    /// miss: the soonest timeout among entries with retries left, or
    /// never without recovery or outstanding misses.
    ///
    /// [`tick_recovery`]: UnifiedL1::tick_recovery
    pub(crate) fn recovery_due(&self) -> Cycle {
        let Some(rec) = self.recovery else {
            return Cycle(u64::MAX);
        };
        self.mshr
            .iter()
            .filter(|e| e.retries < rec.max_retries)
            .map(|e| Cycle(e.last_issue.0.saturating_add(rec.timeout)))
            .min()
            .unwrap_or(Cycle(u64::MAX))
    }

    fn tick_recovery_inner(&mut self, now: Cycle) {
        let Some(rec) = self.recovery else { return };
        if self.mshr.is_empty() {
            return;
        }
        let room = self.miss_queue_depth.saturating_sub(self.miss_queue.len());
        if room == 0 {
            return;
        }
        // HashMap iteration order varies between runs; reissue oldest
        // first (line address breaking ties) so identical seeds stay
        // bit-identical.
        let mut candidates: Vec<(Cycle, crate::types::LineAddr)> = self
            .mshr
            .iter()
            .filter(|e| now.since(e.last_issue) >= rec.timeout && e.retries < rec.max_retries)
            .map(|e| (e.last_issue, e.line))
            .collect();
        candidates.sort_unstable();
        candidates.truncate(room);
        for (_, line) in candidates {
            let entry = self
                .mshr
                .get_mut(line)
                .expect("candidate collected from the MSHR above");
            entry.retries += 1;
            entry.last_issue = now;
            self.miss_queue.push_back(OutgoingRequest {
                line,
                kind: RequestKind::ReadMiss,
            });
            self.fault_stats.reissued_requests += 1;
        }
    }

    /// Serializes the complete cache state for a checkpoint: tag
    /// arrays, MSHRs, the miss queue, the decoupling policy state,
    /// and every counter/histogram. The placement mode, queue depth,
    /// and recovery plan are config-derived and not captured; trace
    /// and profiling attachments are runtime-only (checkpoints are
    /// taken at a flushed cycle boundary, so their buffers are empty).
    pub fn save_state(&self) -> Value {
        let mut fields = vec![
            ("tags".into(), self.tags.save_state()),
            (
                "isolated".into(),
                match &self.isolated {
                    Some(iso) => iso.save_state(),
                    None => Value::Null,
                },
            ),
            ("mshr".into(), self.mshr.save_state()),
            (
                "miss_queue".into(),
                Value::Arr(
                    self.miss_queue
                        .iter()
                        .map(|r| {
                            Value::Arr(vec![
                                Value::u64(r.line.0),
                                Value::u64(match r.kind {
                                    RequestKind::ReadMiss => 0,
                                    RequestKind::Store => 1,
                                }),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("confined_until".into(), Value::u64(self.confined_until.0)),
            ("trained".into(), Value::Bool(self.trained)),
            ("transfer_numer".into(), Value::u64(self.transfer_numer)),
            ("transfer_denom".into(), Value::u64(self.transfer_denom)),
            ("overrun".into(), Value::Bool(self.overrun)),
        ];
        fields.push(("fault_stats".into(), self.fault_stats.save_state()));
        fields.push(("stats".into(), self.stats.save_state()));
        fields.push(("pf_stats".into(), self.pf_stats.save_state()));
        fields.push(("lifecycle".into(), self.lifecycle.save_state()));
        Value::Obj(fields)
    }

    /// Restores the complete cache state from [`save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when a field is missing, mistyped,
    /// or inconsistent with this cache's configured geometry.
    ///
    /// [`save_state`]: UnifiedL1::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.tags.restore_state(json::field(v, "tags")?)?;
        match (&mut self.isolated, json::field(v, "isolated")?) {
            (None, Value::Null) => {}
            (Some(iso), saved @ Value::Obj(_)) => iso.restore_state(saved)?,
            _ => {
                return Err(SnapshotError::malformed(
                    "isolated-buffer presence disagrees with the configuration",
                ))
            }
        }
        self.mshr.restore_state(json::field(v, "mshr")?)?;
        let queue = json::arr_field(v, "miss_queue")?;
        if queue.len() > self.miss_queue_depth {
            return Err(SnapshotError::malformed(format!(
                "checkpoint miss queue holds {}, depth is {}",
                queue.len(),
                self.miss_queue_depth
            )));
        }
        let bad = || SnapshotError::malformed("bad miss-queue entry");
        self.miss_queue = queue
            .iter()
            .map(|e| {
                let f = e.as_arr().filter(|f| f.len() == 2).ok_or_else(bad)?;
                Ok(OutgoingRequest {
                    line: LineAddr(f[0].as_u64().ok_or_else(bad)?),
                    kind: match f[1].as_u64().ok_or_else(bad)? {
                        0 => RequestKind::ReadMiss,
                        1 => RequestKind::Store,
                        _ => return Err(bad()),
                    },
                })
            })
            .collect::<Result<VecDeque<_>, SnapshotError>>()?;
        self.confined_until = Cycle(json::u64_field(v, "confined_until")?);
        self.trained = json::bool_field(v, "trained")?;
        self.transfer_numer = json::u64_field(v, "transfer_numer")?;
        self.transfer_denom = json::u64_field(v, "transfer_denom")?;
        self.overrun = json::bool_field(v, "overrun")?;
        self.fault_stats
            .restore_state(json::field(v, "fault_stats")?)?;
        self.stats.restore_state(json::field(v, "stats")?)?;
        self.pf_stats.restore_state(json::field(v, "pf_stats")?)?;
        self.lifecycle.restore_state(json::field(v, "lifecycle")?)?;
        Ok(())
    }

    /// Checks the L1's conservation laws, returning a description of
    /// every violated invariant (empty = healthy). Used by the device
    /// auditor each audit window; cheap enough to leave on in tests.
    pub fn audit_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        if self.mshr.len() > self.mshr.capacity() {
            v.push(format!(
                "MSHR occupancy {} exceeds capacity {}",
                self.mshr.len(),
                self.mshr.capacity()
            ));
        }
        if self.miss_queue.len() > self.miss_queue_depth {
            v.push(format!(
                "miss queue length {} exceeds depth {}",
                self.miss_queue.len(),
                self.miss_queue_depth
            ));
        }
        // Every outstanding miss must hold exactly one reserved line,
        // and vice versa: a reservation with no MSHR entry can never
        // be filled, an entry with no reservation has nowhere to land.
        let reserved = self.reserved_lines() as usize;
        if reserved != self.mshr.len() {
            v.push(format!(
                "{} reserved lines but {} MSHR entries",
                reserved,
                self.mshr.len()
            ));
        }
        for entry in self.mshr.iter() {
            use crate::cache::tag_array::LineState;
            let in_tags = self
                .tags
                .probe(entry.line)
                .is_some_and(|w| self.tags.line(w).state == LineState::Reserved);
            let in_iso = self.isolated.as_ref().is_some_and(|iso| {
                iso.probe(entry.line)
                    .is_some_and(|w| iso.line(w).state == LineState::Reserved)
            });
            if !in_tags && !in_iso {
                v.push(format!(
                    "MSHR entry for line {:#x} has no reserved cache line",
                    entry.line.0
                ));
            }
        }
        // Line accounting must balance: every line is free, valid on
        // one side, or reserved.
        let t = &self.tags;
        let sum = t.free_lines() + t.demand_lines() + t.prefetch_lines() + t.reserved_lines();
        if sum != t.capacity() {
            v.push(format!(
                "line census {} (free {} + demand {} + prefetch {} + reserved {}) \
                 != capacity {}",
                sum,
                t.free_lines(),
                t.demand_lines(),
                t.prefetch_lines(),
                t.reserved_lines(),
                t.capacity()
            ));
        }
        v.extend(t.audit_invariants());
        if let Some(iso) = &self.isolated {
            v.extend(
                iso.audit_invariants()
                    .into_iter()
                    .map(|e| format!("side buffer: {e}")),
            );
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        let mut c = GpuConfig::scaled(1);
        c.miss_queue_depth = 2;
        c.mshr_merge = 8;
        c
    }

    fn l1(mode: L1Mode) -> UnifiedL1 {
        UnifiedL1::new(&cfg(), mode)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = l1(L1Mode::Plain);
        let line = LineAddr(5);
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(0)),
            AccessOutcome::Miss
        );
        assert_eq!(c.stats.misses, 1);
        let out = c.pop_outgoing().unwrap();
        assert_eq!(out.line, line);
        assert_eq!(out.kind, RequestKind::ReadMiss);
        let waiters = c.fill(line, Cycle(100));
        assert_eq!(waiters, vec![WarpId(0)]);
        assert_eq!(
            c.access_demand(line, WarpId(1), Cycle(101)),
            AccessOutcome::Hit
        );
    }

    #[test]
    fn reserved_merge_and_mshr_merge_limit() {
        let mut c = l1(L1Mode::Plain);
        let line = LineAddr(5);
        c.access_demand(line, WarpId(0), Cycle(0));
        for w in 1..8 {
            assert_eq!(
                c.access_demand(line, WarpId(w), Cycle(1)),
                AccessOutcome::HitReserved,
                "merge {w}"
            );
        }
        // merge capacity 8 = 1 allocator + 7 merges.
        assert_eq!(
            c.access_demand(line, WarpId(9), Cycle(2)),
            AccessOutcome::ReservationFail
        );
        assert_eq!(c.stats.fail_mshr, 1);
    }

    #[test]
    fn miss_queue_full_is_reservation_fail() {
        let mut c = l1(L1Mode::Plain);
        assert_eq!(
            c.access_demand(LineAddr(1), WarpId(0), Cycle(0)),
            AccessOutcome::Miss
        );
        assert_eq!(
            c.access_demand(LineAddr(2), WarpId(1), Cycle(0)),
            AccessOutcome::Miss
        );
        // Queue depth 2 -> third miss fails.
        assert_eq!(
            c.access_demand(LineAddr(3), WarpId(2), Cycle(0)),
            AccessOutcome::ReservationFail
        );
        assert_eq!(c.stats.fail_miss_queue, 1);
        // Draining the queue unblocks.
        c.pop_outgoing();
        assert_eq!(
            c.access_demand(LineAddr(3), WarpId(2), Cycle(1)),
            AccessOutcome::Miss
        );
    }

    #[test]
    fn prefetch_hit_transfers_and_counts_useful() {
        let mut c = l1(L1Mode::Decoupled);
        let line = LineAddr(9);
        assert_eq!(c.request_prefetch(line, Cycle(0)), PrefetchIssue::Issued);
        assert_eq!(c.request_prefetch(line, Cycle(1)), PrefetchIssue::Redundant);
        c.pop_outgoing();
        let waiters = c.fill(line, Cycle(50));
        assert!(waiters.is_empty());
        assert_eq!(c.pf_stats.fills, 1);
        assert_eq!(c.prefetch_lines(), 1);
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(60)),
            AccessOutcome::HitPrefetch
        );
        assert_eq!(c.pf_stats.useful, 1);
        assert_eq!(c.stats.hits_on_prefetch, 1);
        assert_eq!(c.prefetch_lines(), 0, "flag flipped to demand side");
        // Re-touch: still counted as a covered (predicted) address,
        // but `useful` is not double-counted.
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(61)),
            AccessOutcome::HitPrefetch
        );
        assert_eq!(c.pf_stats.useful, 1);
        assert_eq!(c.stats.hits_on_prefetch, 2);
    }

    #[test]
    fn demand_merging_into_inflight_prefetch_is_late() {
        let mut c = l1(L1Mode::Decoupled);
        let line = LineAddr(9);
        c.request_prefetch(line, Cycle(0));
        assert_eq!(
            c.access_demand(line, WarpId(3), Cycle(1)),
            AccessOutcome::HitReserved
        );
        assert_eq!(c.pf_stats.late, 1);
        assert_eq!(c.stats.merges_with_prefetch, 1);
        c.pop_outgoing();
        let waiters = c.fill(line, Cycle(40));
        assert_eq!(waiters, vec![WarpId(3)]);
        // Landed on the demand side: no prefetch lines resident.
        assert_eq!(c.prefetch_lines(), 0);
        assert_eq!(
            c.pf_stats.fills, 0,
            "demand-merged fill is not a pure prefetch fill"
        );
    }

    #[test]
    fn training_cap_restricts_demand_to_half() {
        let mut c = l1(L1Mode::Decoupled);
        c.set_trained(false);
        let total = c.total_lines();
        let mut failed_expand = false;
        // Swamp the cache with demand misses; with an untrained
        // prefetcher demand may occupy at most half the SRAM.
        let mut cycle = 0u64;
        for i in 0..(total * 2) as u64 {
            let line = LineAddr(i);
            match c.access_demand(line, WarpId(0), Cycle(cycle)) {
                AccessOutcome::Miss => {
                    c.pop_outgoing();
                    c.fill(line, Cycle(cycle + 1));
                }
                AccessOutcome::ReservationFail => failed_expand = true,
                _ => {}
            }
            cycle += 2;
        }
        assert!(c.tags.demand_lines() <= total / 2 + 1);
        let _ = failed_expand;
    }

    #[test]
    fn confinement_protects_prefetch_side() {
        let mut cfgv = cfg();
        cfgv.miss_queue_depth = 64;
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Decoupled);
        c.set_trained(true);
        let total = c.total_lines();
        // Fill the whole cache with prefetched lines.
        for i in 0..total as u64 {
            assert_eq!(
                c.request_prefetch(LineAddr(i), Cycle(0)),
                PrefetchIssue::Issued
            );
            c.pop_outgoing();
            c.fill(LineAddr(i), Cycle(1));
        }
        assert_eq!(c.prefetch_lines(), total);
        // Confine demand; a demand miss cannot displace prefetch data.
        c.confine_until(Cycle(1000));
        assert_eq!(
            c.access_demand(LineAddr(10_000), WarpId(0), Cycle(2)),
            AccessOutcome::ReservationFail
        );
        assert_eq!(c.stats.fail_no_way, 1);
        // After the window the same access succeeds.
        assert_eq!(
            c.access_demand(LineAddr(10_000), WarpId(0), Cycle(2000)),
            AccessOutcome::Miss
        );
    }

    #[test]
    fn unused_prefetch_eviction_is_counted() {
        let mut cfgv = cfg();
        cfgv.miss_queue_depth = 1024;
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Decoupled);
        c.set_trained(true);
        let total = c.total_lines() as u64;
        // Overfill with prefetches only; evictions must count unused.
        for i in 0..total * 2 {
            let r = c.request_prefetch(LineAddr(i), Cycle(i));
            if r == PrefetchIssue::Issued {
                c.pop_outgoing();
                c.fill(LineAddr(i), Cycle(i));
            }
        }
        assert!(c.pf_stats.evicted_unused > 0);
    }

    #[test]
    fn isolated_buffer_serves_hits_without_touching_l1() {
        let mut c = l1(L1Mode::Isolated { lines: 4 });
        let line = LineAddr(3);
        assert_eq!(c.request_prefetch(line, Cycle(0)), PrefetchIssue::Issued);
        c.pop_outgoing();
        c.fill(line, Cycle(10));
        assert_eq!(c.free_lines(), c.total_lines(), "L1 untouched");
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(20)),
            AccessOutcome::HitPrefetch
        );
        assert_eq!(c.pf_stats.useful, 1);
        // Still served from the buffer on re-access.
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(21)),
            AccessOutcome::HitPrefetch
        );
        assert_eq!(c.pf_stats.useful, 1, "useful counted once");
    }

    /// Fills the whole decoupled cache with prefetched lines at
    /// consecutive line addresses starting at `base`.
    fn fill_with_prefetches(c: &mut UnifiedL1, base: u64, count: u64, cycle_base: u64) {
        for i in 0..count {
            assert_eq!(
                c.request_prefetch(LineAddr(base + i), Cycle(cycle_base + i)),
                PrefetchIssue::Issued
            );
            c.pop_outgoing();
            c.fill(LineAddr(base + i), Cycle(cycle_base + i));
        }
    }

    #[test]
    fn bulk_free_evicts_prefetch_side_when_transfers_are_rare() {
        let mut cfgv = cfg();
        cfgv.miss_queue_depth = 4096;
        cfgv.mshr_entries = 4096;
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Decoupled);
        c.set_trained(true);
        let total = u64::from(c.total_lines());
        fill_with_prefetches(&mut c, 0, total, 0);
        // Nothing transferred: a demand miss on a full cache triggers
        // the 25% bulk free on the *prefetch* side (§3.2 rule).
        let before = c.prefetch_lines();
        assert_eq!(
            c.access_demand(LineAddr(1 << 20), WarpId(0), Cycle(10_000)),
            AccessOutcome::Miss
        );
        assert!(
            c.prefetch_lines() + c.total_lines() / 4 <= before + 1,
            "prefetch side must shrink by ~25%: {before} -> {}",
            c.prefetch_lines()
        );
    }

    #[test]
    fn bulk_free_spares_prefetch_side_when_mostly_transferred() {
        let mut cfgv = cfg();
        cfgv.miss_queue_depth = 4096;
        cfgv.mshr_entries = 4096;
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Decoupled);
        c.set_trained(true);
        let total = u64::from(c.total_lines());
        fill_with_prefetches(&mut c, 0, total, 0);
        // Consume >80% of the prefetched data (flag-flip transfers).
        let consumed = total * 9 / 10;
        for i in 0..consumed {
            assert_eq!(
                c.access_demand(LineAddr(i), WarpId(0), Cycle(1000 + i)),
                AccessOutcome::HitPrefetch
            );
        }
        // Cache is still full; accurate prefetching (>80% transferred)
        // means the bulk free takes *demand* (transferred) lines and
        // keeps the remaining unconsumed prefetch lines.
        let unconsumed_before = c.prefetch_lines();
        assert_eq!(
            c.access_demand(LineAddr(1 << 20), WarpId(0), Cycle(100_000)),
            AccessOutcome::Miss
        );
        assert!(
            c.prefetch_lines() >= unconsumed_before.saturating_sub(1),
            "unconsumed prefetches survive: {unconsumed_before} -> {}",
            c.prefetch_lines()
        );
        assert!(c.pf_stats.evicted_unused <= 1, "no unused prefetch deaths");
    }

    #[test]
    fn overrun_flag_raised_and_cleared() {
        let mut cfgv = cfg();
        cfgv.miss_queue_depth = 4096;
        cfgv.mshr_entries = 4096;
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Decoupled);
        c.set_trained(true);
        let total = u64::from(c.total_lines());
        assert!(!c.take_overrun());
        // Overfill with young prefetches: the second lap evicts unused
        // young prefetch lines -> overrun.
        fill_with_prefetches(&mut c, 0, total * 2, 0);
        assert!(c.take_overrun(), "frontier churn must raise the flag");
        assert!(!c.take_overrun(), "take clears it");
    }

    #[test]
    fn spurious_fill_is_discarded_not_fatal() {
        let mut c = l1(L1Mode::Plain);
        let line = LineAddr(5);
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(0)),
            AccessOutcome::Miss
        );
        c.pop_outgoing();
        assert_eq!(c.fill(line, Cycle(100)), vec![WarpId(0)]);
        // The duplicate of the same fill arrives later.
        assert!(c.fill(line, Cycle(101)).is_empty());
        assert_eq!(c.fault_stats.spurious_fills, 1);
        // A fill for a line never requested is equally harmless.
        assert!(c.fill(LineAddr(9999), Cycle(102)).is_empty());
        assert_eq!(c.fault_stats.spurious_fills, 2);
        assert!(c.audit_invariants().is_empty());
    }

    #[test]
    fn recovery_reissues_timed_out_miss() {
        let mut cfgv = cfg();
        cfgv.fault.recovery = Some(crate::fault::Recovery {
            timeout: 100,
            max_retries: 2,
        });
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Plain);
        let line = LineAddr(5);
        assert_eq!(
            c.access_demand(line, WarpId(0), Cycle(0)),
            AccessOutcome::Miss
        );
        c.pop_outgoing(); // request leaves; its fill will be "lost"
        c.tick_recovery(Cycle(50));
        assert!(c.peek_outgoing().is_none(), "too early to reissue");
        c.tick_recovery(Cycle(100));
        let re = c.pop_outgoing().expect("timed-out miss reissued");
        assert_eq!(re.line, line);
        assert_eq!(re.kind, RequestKind::ReadMiss);
        assert_eq!(c.fault_stats.reissued_requests, 1);
        // Retry budget: one more, then the entry is left alone.
        c.tick_recovery(Cycle(200));
        assert!(c.pop_outgoing().is_some());
        c.tick_recovery(Cycle(300));
        assert!(c.pop_outgoing().is_none(), "retry budget spent");
        assert_eq!(c.fault_stats.reissued_requests, 2);
        // The reissued fill completes the original miss and waiters.
        assert_eq!(c.fill(line, Cycle(400)), vec![WarpId(0)]);
        assert!(c.audit_invariants().is_empty());
    }

    #[test]
    fn recovery_respects_miss_queue_room() {
        let mut cfgv = cfg();
        cfgv.miss_queue_depth = 2;
        cfgv.fault.recovery = Some(crate::fault::Recovery {
            timeout: 10,
            max_retries: 8,
        });
        let mut c = UnifiedL1::new(&cfgv, L1Mode::Plain);
        c.access_demand(LineAddr(1), WarpId(0), Cycle(0));
        c.access_demand(LineAddr(2), WarpId(1), Cycle(0));
        // Queue still full: no room to reissue.
        c.tick_recovery(Cycle(100));
        assert_eq!(c.miss_queue_len(), 2);
        assert_eq!(c.fault_stats.reissued_requests, 0);
        c.pop_outgoing();
        c.pop_outgoing();
        c.tick_recovery(Cycle(200));
        assert_eq!(c.miss_queue_len(), 2, "both reissued into freed room");
        assert_eq!(c.fault_stats.reissued_requests, 2);
    }

    #[test]
    fn audit_is_clean_through_normal_operation() {
        let mut c = l1(L1Mode::Decoupled);
        assert!(c.audit_invariants().is_empty());
        c.access_demand(LineAddr(1), WarpId(0), Cycle(0));
        c.request_prefetch(LineAddr(2), Cycle(0));
        assert!(c.audit_invariants().is_empty());
        assert_eq!(c.reserved_lines(), 2);
        assert_eq!(c.outstanding_misses(), 2);
        c.pop_outgoing();
        c.pop_outgoing();
        c.fill(LineAddr(1), Cycle(10));
        c.fill(LineAddr(2), Cycle(11));
        assert!(c.audit_invariants().is_empty());
        assert_eq!(c.reserved_lines(), 0);
    }

    #[test]
    fn store_uses_miss_queue_and_can_fail() {
        let mut c = l1(L1Mode::Plain);
        assert!(c.access_store(LineAddr(1), Cycle(0)));
        assert!(c.access_store(LineAddr(2), Cycle(0)));
        assert!(!c.access_store(LineAddr(3), Cycle(0)), "queue depth 2");
        assert_eq!(c.stats.fail_miss_queue, 1);
        assert_eq!(c.pop_outgoing().unwrap().kind, RequestKind::Store);
    }
}
