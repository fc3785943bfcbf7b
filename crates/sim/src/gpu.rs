//! The full device: SMs, interconnect, and the shared memory
//! partition, advanced by a single cycle loop.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;

use crate::audit::{self, Auditor};
use crate::config::{ConfigError, GpuConfig};
use crate::kernel::{Instr, KernelTrace};
use crate::mem::interconnect::{Interconnect, UpPacket, READ_REQUEST_BYTES};
use crate::mem::partition::MemoryPartition;
use crate::obs::ring::{RingSink, TelemetryRecord, TelemetryRing};
use crate::obs::{
    MetricsSeries, PrefetchLifecycle, SimEvent, TerminalKind, TraceEvent, TraceSink, WindowTotals,
    WindowedMetrics,
};
use crate::perfstat::{HostProfile, HostProfiler, Phase};
use crate::prefetch::Prefetcher;
use crate::sm::{PendingCta, Sm};
use crate::snapshot::{self, Checkpoint, SnapshotError};
use crate::stats::SimStats;
use crate::types::{Cycle, SmId};
use crate::watchdog::{DeadlockReport, NocCensus, Watchdog};

/// Why a simulation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum StopReason {
    /// All warps retired and the memory system drained.
    Completed,
    /// The configured cycle limit was reached first.
    CycleLimit,
    /// The externally imposed [`GpuConfig::cycle_budget`] ran out: the
    /// run was deliberately truncated (e.g. by a sweep supervisor) and
    /// its statistics cover only the budgeted prefix.
    BudgetExceeded {
        /// The budget that was exhausted, in cycles.
        budget: u64,
    },
    /// The forward-progress watchdog found the device wedged: for
    /// [`GpuConfig::watchdog_cycles`] consecutive cycles nothing
    /// issued, filled, or moved. The boxed report says who was blocked
    /// on what.
    Deadlock(Box<DeadlockReport>),
}

impl StopReason {
    /// Stable lower-case label, matching
    /// [`TerminalKind::label`](crate::obs::TerminalKind::label) for the
    /// corresponding terminal trace event. Used by manifests and
    /// exporters.
    pub fn label(&self) -> &'static str {
        match self {
            StopReason::Completed => "completed",
            StopReason::CycleLimit => "cycle_limit",
            StopReason::BudgetExceeded { .. } => "budget_exceeded",
            StopReason::Deadlock(_) => "deadlock",
        }
    }

    /// Whether the run retired every warp (statistics describe the
    /// whole kernel, not a truncated prefix).
    pub fn is_complete(&self) -> bool {
        matches!(self, StopReason::Completed)
    }
}

/// The simulated GPU.
///
/// # Examples
///
/// ```
/// use snake_sim::{Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, WarpTrace, CtaId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kernel = KernelTrace::new(
///     "demo",
///     vec![WarpTrace::new(CtaId(0), vec![Instr::load(0u32, 0u64), Instr::compute(4)])],
/// );
/// let mut gpu = Gpu::new(GpuConfig::scaled(1), kernel, |_| Box::new(NullPrefetcher))?;
/// let outcome = gpu.run();
/// assert!(outcome.stats.instructions >= 2);
/// # Ok(())
/// # }
/// ```
pub struct Gpu {
    cfg: GpuConfig,
    kernel: KernelTrace,
    sms: Vec<Sm>,
    noc: Interconnect,
    partition: MemoryPartition,
    cycle: Cycle,
    watchdog: Option<Watchdog>,
    auditor: Option<Auditor>,
    deadlock: Option<Box<DeadlockReport>>,
    brownout_cycles: u64,
    /// Destination for trace events; `None` (default) leaves every
    /// component's emission path branch-only.
    sink: Option<Box<dyn TraceSink>>,
    /// Reusable buffer events are drained into before forwarding.
    trace_scratch: Vec<TraceEvent>,
    /// Device-level events (brownout transitions, terminal events)
    /// that have no owning component.
    device_events: Vec<TraceEvent>,
    /// Windowed time-series collector, present when
    /// [`GpuConfig::metrics_window`] is set.
    metrics: Option<WindowedMetrics>,
    /// Brownout state at the last step (edge detection for
    /// [`SimEvent::Brownout`]).
    prev_brownout: bool,
    /// Whether last cycle's injection loop hit interconnect
    /// backpressure (uplink credit refused). The SMs read it the next
    /// cycle to attribute `MissQueueFull` rejections to the NoC.
    noc_backpressured: bool,
    /// The run's one host-time profiler, present when
    /// [`GpuConfig::host_profile`] is set. The run loop decides which
    /// of its iterations the profiler times (see [`Gpu::run_serviced`]).
    prof: Option<HostProfiler>,
    /// Trace events forwarded to the sink so far (throughput input for
    /// the host profile).
    events_flushed: u64,
    /// Host wall time of the run-loop segments that ended in a
    /// suspension, added to the final segment's time in the host
    /// profile. Host-only: neither checkpointed nor fingerprinted.
    host_wall_nanos: u64,
    /// Cycles the run loop skipped as device-quiet (host-only, like
    /// `host_wall_nanos`; see [`Gpu::quiet_until`]).
    skipped_cycles: u64,
    /// Live telemetry ring for per-window metric rows (and, via a
    /// [`RingSink`], trace events), attached by
    /// [`Gpu::attach_telemetry`]. With zero subscribers every push is
    /// a counter bump — see the no-observer-effect guarantee on
    /// [`crate::obs::ring`].
    tap: Option<TelemetryRing>,
    /// [`Gpu::fingerprint`], computed on first use: hashing the kernel
    /// trace costs milliseconds, which only checkpointing pays.
    fingerprint: OnceLock<u64>,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("kernel", &self.kernel.name())
            .field("sms", &self.sms.len())
            .field("cycle", &self.cycle)
            .finish()
    }
}

/// Result of running a kernel to completion.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// Device-wide merged statistics.
    pub stats: SimStats,
    /// How the run ended.
    pub stop: StopReason,
    /// Prefetch-lifecycle latency attribution, merged across SMs
    /// (always collected; empty histograms when nothing prefetched).
    pub lifecycle: PrefetchLifecycle,
    /// Windowed time series, present when
    /// [`GpuConfig::metrics_window`] is set.
    pub series: Option<MetricsSeries>,
    /// Host-side performance profile (per-phase wall time of the tick
    /// loop), present when [`GpuConfig::host_profile`] is set.
    pub host: Option<HostProfile>,
}

impl Gpu {
    /// Builds a device and distributes the kernel's CTAs round-robin
    /// over the SMs. `mk_prefetcher` is called once per SM.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(
        cfg: GpuConfig,
        kernel: KernelTrace,
        mut mk_prefetcher: impl FnMut(SmId) -> Box<dyn Prefetcher>,
    ) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mut sms: Vec<Sm> = (0..cfg.num_sms)
            .map(|i| Sm::new(&cfg, SmId(i), mk_prefetcher(SmId(i))))
            .collect();

        // Group warps into CTAs preserving first-appearance order.
        let mut ctas: Vec<(crate::types::CtaId, Vec<usize>)> = Vec::new();
        for (idx, warp) in kernel.warps().iter().enumerate() {
            match ctas.iter_mut().find(|(c, _)| *c == warp.cta) {
                Some((_, v)) => v.push(idx),
                None => ctas.push((warp.cta, vec![idx])),
            }
        }
        let mut queue: VecDeque<(crate::types::CtaId, Vec<usize>)> = ctas.into();
        let mut sm_rr = 0usize;
        while let Some((cta, warps)) = queue.pop_front() {
            assert!(
                warps.len() <= cfg.max_warps_per_sm as usize,
                "CTA {cta} has {} warps but SMs hold only {}",
                warps.len(),
                cfg.max_warps_per_sm
            );
            sms[sm_rr].enqueue_cta(PendingCta { cta, warps });
            sm_rr = (sm_rr + 1) % sms.len();
        }

        for sm in &mut sms {
            sm.kernel_launch(&kernel);
        }

        let noc = Interconnect::new(cfg.noc_bytes_per_cycle, cfg.noc_latency, cfg.bw_window);
        let partition = MemoryPartition::new(&cfg);
        let watchdog = cfg.watchdog_cycles.map(Watchdog::new);
        let auditor = cfg.audit_window.map(|_| Auditor::new());
        let metrics = cfg.metrics_window.map(WindowedMetrics::new);
        let prof = cfg.host_profile.then(HostProfiler::default);
        Ok(Gpu {
            cfg,
            kernel,
            sms,
            noc,
            partition,
            cycle: Cycle::ZERO,
            watchdog,
            auditor,
            deadlock: None,
            brownout_cycles: 0,
            sink: None,
            trace_scratch: Vec::new(),
            device_events: Vec::new(),
            metrics,
            prev_brownout: false,
            noc_backpressured: false,
            prof,
            events_flushed: 0,
            host_wall_nanos: 0,
            skipped_cycles: 0,
            tap: None,
            fingerprint: OnceLock::new(),
        })
    }

    /// Attaches a trace sink and enables event collection in every
    /// component. Buffered events are forwarded to the sink once per
    /// cycle in a fixed order — SMs by id (pipeline, then L1, then
    /// MSHR), then interconnect, then partition, then device-level —
    /// so a given configuration and kernel produce a byte-identical
    /// event stream on every run.
    pub fn attach_sink(&mut self, sink: Box<dyn TraceSink>) {
        for sm in &mut self.sms {
            sm.enable_trace();
        }
        self.noc.enable_trace();
        self.partition.enable_trace();
        self.sink = Some(sink);
    }

    /// Attaches a live telemetry ring. Per-window [`MetricsSample`]
    /// rows (when [`GpuConfig::metrics_window`] is set) are pushed as
    /// each window closes; with `include_events` the full trace-event
    /// stream is forwarded too (via [`attach_sink`](Gpu::attach_sink)
    /// with a [`RingSink`], so it cannot be combined with another
    /// sink). Subscribers drain the ring from other threads; with none
    /// live, pushes only advance the ring's sequence counter and the
    /// simulation outcome is bit-identical to an untapped run.
    ///
    /// [`MetricsSample`]: crate::obs::MetricsSample
    pub fn attach_telemetry(&mut self, ring: &TelemetryRing, include_events: bool) {
        if include_events {
            self.attach_sink(Box::new(RingSink::new(ring.clone())));
        }
        self.tap = Some(ring.clone());
    }

    /// Forwards the most recently closed metrics window to the
    /// telemetry ring, if one is attached.
    fn tap_window(tap: &Option<TelemetryRing>, metrics: &WindowedMetrics) {
        if let Some(tap) = tap {
            if let Some(sample) = metrics.last_sample() {
                let sample = *sample;
                tap.push(|| TelemetryRecord::Window(sample));
            }
        }
    }

    /// Forwards this cycle's buffered events to the sink, in the fixed
    /// component order documented on [`Gpu::attach_sink`].
    fn flush_trace(&mut self) {
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        self.trace_scratch.clear();
        for sm in &mut self.sms {
            sm.drain_trace(&mut self.trace_scratch);
        }
        self.noc.drain_trace(&mut self.trace_scratch);
        self.partition.drain_trace(&mut self.trace_scratch);
        self.trace_scratch.append(&mut self.device_events);
        for ev in &self.trace_scratch {
            sink.record(ev);
        }
        self.events_flushed += self.trace_scratch.len() as u64;
        self.trace_scratch.clear();
    }

    /// The configuration the device was built with.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The kernel the device runs.
    pub fn kernel(&self) -> &KernelTrace {
        &self.kernel
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Read-only view of the SMs.
    pub fn sms(&self) -> &[Sm] {
        &self.sms
    }

    /// Advances one cycle. Returns `false` once the device is idle,
    /// the cycle limit is reached, or the forward-progress watchdog
    /// trips (see [`StopReason::Deadlock`]).
    ///
    /// In a run-loop iteration the profiler samples, each region of the
    /// step is timed as one [`Phase`]; `observability` only when there
    /// is an audit, a trace flush or a metrics sample to do.
    pub fn step(&mut self) -> bool {
        let now = self.cycle;
        self.switch(Phase::Noc);

        // Fault injection: scale interconnect bandwidth during brownout
        // windows before this cycle's credit refill.
        let scale = self.cfg.fault.bandwidth_scale(now);
        self.noc.set_bandwidth_scale(scale);
        let brownout = scale < 1.0;
        if brownout {
            self.brownout_cycles += 1;
        }
        if brownout != self.prev_brownout {
            self.prev_brownout = brownout;
            if self.sink.is_some() {
                self.device_events.push(TraceEvent {
                    cycle: now,
                    data: SimEvent::Brownout { active: brownout },
                });
            }
        }

        // Progress baseline for the watchdog.
        let partition_events_before = self.partition.events();
        let mut noc_moved = false;

        self.noc.begin_cycle(now);
        self.switch(Phase::MemPartition);
        self.partition.tick(now);

        self.switch(Phase::SmIssue);
        let util = self.noc.utilization();
        let backpressured = self.noc_backpressured;
        let mut issued = 0u64;
        for sm in &mut self.sms {
            let prof = self.prof.as_mut().filter(|p| p.sampling);
            issued += u64::from(sm.tick(&self.kernel, now, util, backpressured, prof));
        }
        self.noc_backpressured = false;

        self.switch(Phase::Noc);

        // Inject L1 requests into the interconnect, round-robin start.
        let n = self.sms.len();
        let start = (now.0 as usize) % n;
        let line_bytes = u64::from(self.cfg.l1.line_bytes);
        'inject: for k in 0..n {
            let i = (start + k) % n;
            while self.sms[i].has_outgoing() {
                let req = *self.sms[i]
                    .l1()
                    .peek_outgoing()
                    .expect("has_outgoing checked");
                let is_store = req.kind == crate::cache::unified_l1::RequestKind::Store;
                let bytes = if is_store {
                    line_bytes
                } else {
                    READ_REQUEST_BYTES
                };
                let pkt = UpPacket {
                    sm: SmId(i as u32),
                    line: req.line,
                    is_store,
                };
                if self.noc.try_send_up(pkt, bytes, now) {
                    self.sms[i].pop_outgoing();
                    noc_moved = true;
                } else {
                    self.noc_backpressured = true;
                    break 'inject; // uplink budget spent this cycle
                }
            }
        }

        // Deliver requests to the partition.
        while let Some(up) = self.noc.pop_up(now) {
            noc_moved = true;
            if up.is_store {
                self.partition.push_store(up.line, now);
            } else {
                self.partition.push_read(up.sm, up.line);
            }
        }

        // Send responses back, bandwidth permitting.
        while let Some(resp) = self.partition.pop_response() {
            if !self.noc.try_send_down(resp, line_bytes, now) {
                self.partition.unpop_response(resp);
                break;
            }
            noc_moved = true;
        }

        // Deliver fills to the L1s.
        self.switch(Phase::Mshr);
        while let Some(down) = self.noc.pop_down(now) {
            noc_moved = true;
            self.sms[down.sm.0 as usize].deliver_fill(down.line, now);
        }

        self.switch(Phase::SmIssue);
        for sm in &mut self.sms {
            sm.retire_finished();
        }

        self.cycle = now.plus(1);

        if let Some(window) = self.cfg.audit_window {
            if self.cycle.0.is_multiple_of(window) {
                self.switch(Phase::Observability);
                self.run_audit(false);
                self.switch(Phase::SmIssue);
            }
        }

        let done = self.drained();
        let budget_hit = self
            .cfg
            .cycle_budget
            .is_some_and(|budget| self.cycle >= budget);
        let limit_hit = self.cfg.max_cycles.is_some_and(|limit| self.cycle >= limit);
        let mut advance = !(done || budget_hit || limit_hit);

        if advance {
            if let Some(watchdog) = &mut self.watchdog {
                let progressed = issued > 0
                    || noc_moved
                    || self.partition.events() > partition_events_before
                    || self.sms.iter().any(Sm::has_busy_warp);
                if watchdog.observe(progressed, self.cycle) {
                    let stalled_for = watchdog.stalled_for(self.cycle);
                    self.deadlock = Some(self.deadlock_report(stalled_for));
                    advance = false;
                }
            }
        }
        if self.sink.is_some() {
            self.switch(Phase::Observability);
        }
        self.flush_trace();

        // Close the metrics window only after this cycle's trace events
        // are flushed, so a telemetry ring sees the window row *after*
        // every event it covers — live subscribers then observe
        // non-decreasing cycle stamps. The sample itself is unchanged:
        // nothing above mutates the counters it reads.
        if let Some(mut metrics) = self.metrics.take() {
            if self.cycle.0.is_multiple_of(metrics.window()) {
                self.switch(Phase::Observability);
                metrics.record(self.cycle, &self.window_totals());
                Self::tap_window(&self.tap, &metrics);
            }
            self.metrics = Some(metrics);
        }
        advance
    }

    /// The first cycle at or after the current one whose step must run
    /// in full: the current cycle unless the device is quiet. On a
    /// quiet device every SM replays an idle charge, no L1 request
    /// waits for the interconnect, no packet arrives, the partition
    /// only gains DRAM credit and no device trace event is pending, so
    /// a step changes only counters that [`Gpu::run_serviced`] can
    /// advance in bulk. The quiet stretch ends at the first SM wake,
    /// packet arrival, partition event or brownout edge, and at the
    /// step that closes an audit or metrics window, reaches the cycle
    /// budget or limit, or would trip the watchdog.
    pub fn quiet_until(&self) -> Cycle {
        let now = self.cycle;
        let brownout = self.cfg.fault.bandwidth_scale(now) < 1.0;
        if !self.device_events.is_empty() || brownout != self.prev_brownout {
            return now;
        }
        let mut until = Cycle(u64::MAX);
        for sm in &self.sms {
            match sm.idle_until() {
                Some(wake) if !sm.has_outgoing() => until = until.min(wake),
                _ => return now,
            }
        }
        until = until
            .min(self.noc.next_arrival())
            .min(self.partition.next_event(now))
            .min(self.cfg.fault.next_bandwidth_change(now));
        for limit in [self.cfg.cycle_budget, self.cfg.max_cycles]
            .into_iter()
            .flatten()
        {
            until = until.min(Cycle(limit.0.saturating_sub(1)));
        }
        for every in [self.cfg.audit_window, self.cfg.metrics_window]
            .into_iter()
            .flatten()
        {
            until = until.min(window_step(now, every));
        }
        if let Some(watchdog) = &self.watchdog {
            if !self.sms.iter().any(Sm::has_busy_warp) {
                until = until.min(Cycle(watchdog.trips_at().0.saturating_sub(1)));
            }
        }
        until.max(now)
    }

    /// Advances over the steps of cycles `self.cycle..to`, all before
    /// [`Gpu::quiet_until`], in bulk: exactly what stepping them would
    /// change, that is interconnect credit and utilization windows,
    /// DRAM credit, the SMs' idle charges, brownout cycles and the
    /// watchdog's progress mark. The bandwidth scale needs no update:
    /// no brownout edge lies inside the stretch. Each bulk update is
    /// timed as the phase of the step work it stands for.
    fn skip_quiet(&mut self, to: Cycle) {
        let now = self.cycle;
        let ticks = to.since(now);
        if ticks == 0 {
            return;
        }
        self.switch(Phase::Noc);
        if self.prev_brownout {
            self.brownout_cycles += ticks;
        }
        self.noc.skip_quiet(now, to);
        self.switch(Phase::MemPartition);
        self.partition.skip_quiet(ticks);
        self.switch(Phase::SmIssue);
        for sm in &mut self.sms {
            sm.replay_idle(ticks, to);
        }
        let busy = self.sms.iter().any(Sm::has_busy_warp);
        if let Some(watchdog) = self.watchdog.as_mut().filter(|_| busy) {
            watchdog.observe(true, to);
        }
        self.skipped_cycles += ticks;
        self.cycle = to;
    }

    /// Whether every warp retired and the memory system drained: the
    /// end of a completed run.
    fn drained(&self) -> bool {
        self.sms.iter().all(Sm::is_done) && self.partition.is_idle() && self.noc.is_idle()
    }

    /// Gathers the cumulative/instantaneous counters a windowed-metrics
    /// sample is built from.
    fn window_totals(&self) -> WindowTotals {
        let mut t = WindowTotals {
            noc_utilization: self.noc.utilization(),
            ..WindowTotals::default()
        };
        for sm in &self.sms {
            let l1 = sm.l1();
            let c = &l1.stats;
            t.instructions += sm.instructions_issued();
            t.l1_hits += c.hits + c.hits_on_prefetch;
            t.l1_accesses +=
                c.hits + c.hits_on_prefetch + c.hits_reserved + c.merges_with_prefetch + c.misses;
            t.mshr_occupancy += l1.outstanding_misses();
            t.mshr_capacity += l1.mshr_capacity();
            t.miss_queue_occupancy += l1.miss_queue_len();
            t.miss_queue_capacity += l1.miss_queue_capacity();
            t.active_warps += sm.active_warps();
            t.throttled_sms += usize::from(sm.is_throttled());
            t.max_chain_depth = t.max_chain_depth.max(sm.chain_depth());
            t.stall.merge(&sm.stats.stall);
        }
        t
    }

    /// Merged prefetch-lifecycle histograms across all SMs.
    pub fn prefetch_lifecycle(&self) -> PrefetchLifecycle {
        let mut total = PrefetchLifecycle::default();
        for sm in &self.sms {
            total.merge(&sm.l1().lifecycle);
        }
        total
    }

    /// Snapshot of everything the watchdog can see, for
    /// [`StopReason::Deadlock`].
    fn deadlock_report(&self, stalled_for: u64) -> Box<DeadlockReport> {
        Box::new(DeadlockReport {
            cycle: self.cycle.0,
            stalled_for,
            sms: self.sms.iter().map(Sm::census).collect(),
            noc: NocCensus {
                in_flight_up: self.noc.in_flight_up(),
                in_flight_down: self.noc.in_flight_down(),
            },
            partition: self.partition.census(),
        })
    }

    /// Runs the invariant auditor, panicking on any violation.
    ///
    /// # Panics
    ///
    /// Panics with the full violation list if any conservation law
    /// fails — by design: an invariant break means simulator state is
    /// corrupt and every stat after this point is suspect.
    fn run_audit(&mut self, end_of_run: bool) {
        let Some(mut auditor) = self.auditor.take() else {
            return;
        };
        let mut violations: Vec<String> = Vec::new();
        for sm in &self.sms {
            for v in sm
                .audit_invariants(&self.kernel)
                .into_iter()
                .chain(sm.l1().audit_invariants())
            {
                violations.push(format!("sm {}: {v}", sm.id().0));
            }
        }
        for v in self.partition.audit_invariants() {
            violations.push(format!("L2: {v}"));
        }
        let stats = self.collect_stats();
        violations.extend(auditor.check_stats(&stats));
        if end_of_run {
            let misses: usize = self.sms.iter().map(|s| s.l1().outstanding_misses()).sum();
            let reserved: u32 = self.sms.iter().map(|s| s.l1().reserved_lines()).sum();
            let queued: usize = self.sms.iter().map(|s| s.l1().miss_queue_len()).sum();
            let in_flight = self.noc.in_flight_up() + self.noc.in_flight_down();
            violations.extend(audit::check_drained(
                misses,
                reserved,
                queued,
                in_flight,
                self.partition.is_idle(),
            ));
        }
        self.auditor = Some(auditor);
        if !violations.is_empty() {
            // Flush the failure into the trace before panicking so an
            // attached sink observes the terminal event.
            if self.sink.is_some() {
                self.device_events.push(TraceEvent {
                    cycle: self.cycle,
                    data: SimEvent::Terminal {
                        kind: TerminalKind::AuditFail,
                        detail: violations.join("\n  "),
                    },
                });
                self.flush_trace();
            }
            panic!(
                "invariant audit failed at cycle {}:\n  {}",
                self.cycle.0,
                violations.join("\n  ")
            );
        }
    }

    /// Runs to completion (or the cycle limit, or a watchdog trip) and
    /// returns merged device statistics.
    pub fn run(&mut self) -> SimOutcome {
        self.run_interruptible(|_| false)
            .expect("suspend predicate is constant false")
    }

    /// Like [`Gpu::run`], but after every cycle asks `suspend` whether
    /// to stop early. Returns `None` when suspended: no terminal trace
    /// event is emitted, no partial metrics window is closed, and the
    /// device can be checkpointed with [`Gpu::checkpoint`] and later
    /// resumed (here or in another process via [`Gpu::restore`]).
    ///
    /// A suspended device is paused mid-run, not finished — calling
    /// [`Gpu::run`] again continues it to a normal outcome.
    pub fn run_interruptible(&mut self, suspend: impl FnMut(Cycle) -> bool) -> Option<SimOutcome> {
        self.run_serviced(None, |_, _| {}, suspend)
            .expect("no checkpoint path, so no checkpoint I/O")
    }

    /// The run loop: the only place that steps the device to an end.
    /// With `checkpoint = Some((path, every))` it writes a checkpoint
    /// of the full simulator state to `path` (atomically, replacing
    /// the previous one) every `every` cycles, invoking
    /// `on_checkpoint(cycle, bytes)` after each durable write so a
    /// supervisor can journal the artifact; after every cycle it asks
    /// `suspend` whether to stop early, returning `None` with the
    /// device paused mid-run (checkpointable via [`Gpu::checkpoint`]).
    ///
    /// Device-quiet stretches (see [`Gpu::quiet_until`]) are skipped in
    /// bulk, up to the next checkpoint too, with `suspend` asked about
    /// every skipped cycle: counters, checkpoints, trace events and the
    /// cycle a suspension lands on are those of stepping every cycle.
    ///
    /// With profiling on, the device's [`HostProfiler`] times sampled
    /// iterations, and the host wall time of every call adds up, so a
    /// run suspended and then continued reports all its segments.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] if a checkpoint cannot be written; the
    /// simulation stops at that cycle rather than silently continuing
    /// without crash protection.
    pub fn run_serviced(
        &mut self,
        checkpoint: Option<(&Path, u64)>,
        mut on_checkpoint: impl FnMut(u64, u64),
        mut suspend: impl FnMut(Cycle) -> bool,
    ) -> Result<Option<SimOutcome>, SnapshotError> {
        let t0 = self.prof.as_ref().map(|_| std::time::Instant::now());
        loop {
            if !self.step() {
                self.end_iteration();
                return Ok(Some(self.finalize(t0)));
            }
            if let Some(p) = &mut self.prof {
                p.switch_to_loop();
            }
            if let Some((path, every)) = checkpoint {
                if self.cycle.0.is_multiple_of(every) {
                    let written = self.checkpoint().write_atomic(path);
                    let bytes = written.inspect_err(|_| self.end_iteration())?;
                    // Stamped after the rename lands, so the event is
                    // never part of the artifact it describes; it rides
                    // out with the next cycle's flush.
                    if self.sink.is_some() {
                        self.device_events.push(TraceEvent {
                            cycle: self.cycle,
                            data: SimEvent::CheckpointSaved { bytes },
                        });
                    }
                    on_checkpoint(self.cycle.0, bytes);
                }
            }
            let mut until = self.quiet_until();
            if let Some((_, every)) = checkpoint {
                until = until.min(window_step(self.cycle, every));
            }
            let mut at = self.cycle;
            let suspended = loop {
                if suspend(at) {
                    break true;
                }
                if at >= until {
                    break false;
                }
                at = at.plus(1);
            };
            self.skip_quiet(at);
            self.end_iteration();
            if suspended {
                if let Some(t0) = t0 {
                    self.host_wall_nanos += t0.elapsed().as_nanos() as u64;
                }
                return Ok(None);
            }
        }
    }

    /// Times the step's next region as `phase` in a sampled iteration.
    /// Inlined, so a step with profiling off pays one branch here.
    #[inline]
    fn switch(&mut self, phase: Phase) {
        if let Some(p) = &mut self.prof {
            p.switch(phase);
        }
    }

    /// Ends the run-loop iteration for the profiler.
    fn end_iteration(&mut self) {
        if let Some(p) = &mut self.prof {
            p.end_iteration();
        }
    }

    /// Computes the stop reason, runs the end-of-run audit, emits the
    /// terminal trace event, closes the final metrics window, and
    /// assembles the [`SimOutcome`]. The tail of [`Gpu::run_serviced`],
    /// reached only after [`Gpu::step`] returned `false`.
    fn finalize(&mut self, t0: Option<std::time::Instant>) -> SimOutcome {
        let stop = if let Some(report) = self.deadlock.take() {
            StopReason::Deadlock(report)
        } else if self.drained() {
            StopReason::Completed
        } else if let Some(budget) = self.cfg.cycle_budget.filter(|budget| self.cycle >= *budget) {
            StopReason::BudgetExceeded { budget: budget.0 }
        } else {
            StopReason::CycleLimit
        };
        if self.auditor.is_some() && stop == StopReason::Completed {
            self.run_audit(true);
        }
        if self.sink.is_some() {
            let (kind, detail) = match &stop {
                StopReason::Completed => (TerminalKind::Completed, String::new()),
                StopReason::CycleLimit => (TerminalKind::CycleLimit, String::new()),
                StopReason::BudgetExceeded { budget } => (
                    TerminalKind::BudgetExceeded,
                    format!("cycle budget {budget} exhausted"),
                ),
                StopReason::Deadlock(report) => (TerminalKind::Deadlock, report.to_string()),
            };
            self.device_events.push(TraceEvent {
                cycle: self.cycle,
                data: SimEvent::Terminal { kind, detail },
            });
            self.flush_trace();
        }
        // Close a partial final window so short runs still get a
        // closing sample, and mark truncated series so observability
        // output distinguishes them from converged runs.
        if let Some(mut metrics) = self.metrics.take() {
            if !self.cycle.0.is_multiple_of(metrics.window()) {
                metrics.record(self.cycle, &self.window_totals());
                Self::tap_window(&self.tap, &metrics);
            }
            if !stop.is_complete() {
                metrics.mark_stop(stop.label());
            }
            self.metrics = Some(metrics);
        }
        let host = t0.and_then(|t0| {
            let wall = self.host_wall_nanos + t0.elapsed().as_nanos() as u64;
            self.collect_host_profile(wall)
        });
        SimOutcome {
            stats: self.collect_stats(),
            stop,
            lifecycle: self.prefetch_lifecycle(),
            series: self.metrics.take().map(WindowedMetrics::finish),
            host,
        }
    }

    /// Seals the run's profiler into its [`HostProfile`] (`None` when
    /// profiling is off).
    fn collect_host_profile(&mut self, wall_nanos: u64) -> Option<HostProfile> {
        let prof = self.prof.take()?;
        Some(prof.finish(
            wall_nanos,
            self.cycle.0,
            self.events_flushed,
            self.skipped_cycles,
            self.sms.iter().map(Sm::replayed_ticks).sum(),
            self.cycle.0 * self.sms.len() as u64,
        ))
    }

    /// Merges per-SM, interconnect, and partition statistics.
    pub fn collect_stats(&mut self) -> SimStats {
        let mut total = SimStats::default();
        for sm in &mut self.sms {
            sm.finalize_stats();
            total.merge(&sm.stats);
        }
        total.cycles = self.cycle.0;
        total.noc_bytes_up = self.noc.total_bytes_up();
        total.noc_bytes_down = self.noc.total_bytes_down();
        total.l2_hits = self.partition.stats.l2_hits;
        total.l2_misses = self.partition.stats.l2_misses;
        let pf = self.partition.fault_stats();
        total.fault.dropped_responses = pf.dropped_responses;
        total.fault.duplicated_responses = pf.duplicated_responses;
        total.fault.delayed_responses = pf.delayed_responses;
        total.fault.brownout_cycles = self.brownout_cycles;
        total
    }

    /// The deadlock report from a tripped watchdog, if stepping stopped
    /// because of one (also carried by [`StopReason::Deadlock`] when
    /// using [`Gpu::run`]).
    pub fn deadlock_info(&self) -> Option<&DeadlockReport> {
        self.deadlock.as_deref()
    }

    /// Fingerprint of everything a checkpoint's state is only valid
    /// under: the configuration (with fields that do not affect
    /// simulated behavior zeroed — checkpoint cadence, host profiling),
    /// the kernel trace, and the per-SM mechanism names. Two devices
    /// with equal fingerprints step identically, so state captured on
    /// one restores exactly onto the other.
    ///
    /// The value is one [`Fnv1a64`] stream over the text
    /// `"{cfg:?}|"`, then the kernel by its 64-bit words, then
    /// `"|<name>"` per SM. The kernel's words are its name (length,
    /// then bytes), its warp count, and per warp its CTA, its
    /// instruction count and each instruction as a tag (0 compute,
    /// 1 load, 2 store) followed by its cycles, or by its PC, address
    /// count and every address. Each word is one [`Fnv1a64::word`]
    /// step, so the kernel costs one pass over its trace, where
    /// formatting it would make about a megabyte of `Debug` text at
    /// standard size. The encoding is written out here rather than
    /// left to `derive(Hash)`, so the value cannot move with the
    /// toolchain. Computed on first use and cached: only checkpointing
    /// pays.
    ///
    /// [`Fnv1a64`]: snapshot::Fnv1a64
    /// [`Fnv1a64::word`]: snapshot::Fnv1a64::word
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut cfg = self.cfg.clone();
            cfg.checkpoint_every = None;
            cfg.host_profile = false;
            let mut hash = snapshot::Fnv1a64::default();
            write!(hash, "{cfg:?}|").expect("hashing cannot fail");
            hash_kernel(&mut hash, &self.kernel);
            for sm in &self.sms {
                write!(hash, "|{}", sm.prefetcher_name()).expect("hashing cannot fail");
            }
            hash.0
        })
    }

    /// Captures the complete mutable simulator state as a checkpoint
    /// artifact. Must be taken at a cycle boundary (between
    /// [`Gpu::step`] calls): [`Gpu::step`] ends by flushing trace
    /// buffers, so none of the transient per-cycle scratch exists then.
    ///
    /// Deliberately excluded (see the `snapshot` module doc): host-time
    /// profiling accumulators, the invariant auditor's reference stats
    /// (rebuilt on the first post-restore audit window), and attached
    /// trace sinks — a resumed run re-attaches its own sink and the
    /// restored `events_flushed` counter keeps throughput accounting
    /// continuous.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            fingerprint: self.fingerprint(),
            state: self.save_state(),
        }
    }

    /// Applies a checkpoint captured by [`Gpu::checkpoint`] onto a
    /// freshly built device (same config, kernel, and mechanism —
    /// enforced via the fingerprint). After this returns, stepping the
    /// device is bit-identical to stepping the one the checkpoint was
    /// taken from.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when the checkpoint was taken
    /// under a different fingerprint, [`SnapshotError::Malformed`] when
    /// the state document does not decode. On error the device is
    /// unchanged or must be discarded (a malformed document detected
    /// mid-apply leaves partially restored state; callers treat any
    /// error as fatal for this device).
    pub fn restore(&mut self, ckpt: &Checkpoint) -> Result<(), SnapshotError> {
        ckpt.verify_fingerprint(self.fingerprint())?;
        self.restore_state(&ckpt.state)?;
        // Mark the splice point on the trace (when a sink is attached
        // before restoring), stamped with the restored cycle. The
        // fingerprint is config-derived, so the stream stays
        // deterministic.
        if self.sink.is_some() {
            self.device_events.push(TraceEvent {
                cycle: self.cycle,
                data: SimEvent::Restored {
                    fingerprint: ckpt.fingerprint,
                },
            });
        }
        Ok(())
    }

    /// Rebuilds each restored SM's warp masks against the kernel, and
    /// clears the deadlock report of the run the device was built for.
    fn rebuild_sms(&mut self) -> Result<(), SnapshotError> {
        for (i, sm) in self.sms.iter_mut().enumerate() {
            sm.rebuild_masks(&self.kernel)
                .map_err(|e| e.at(i).at("sms"))?;
        }
        self.deadlock = None;
        Ok(())
    }
}

// All mutable state. The watchdog and the windowed metrics exist in some
// configurations only: each is `null` when absent, and the fingerprint
// guarantees that presence agrees between capture and restore.
crate::restore_fields!(fn Gpu {
    cycle,
    brownout_cycles,
    prev_brownout,
    noc_backpressured,
    events_flushed,
    sms,
    noc,
    partition,
    watchdog,
    metrics,
} then rebuild_sms);

/// Folds `kernel` into `hash` by the words [`Gpu::fingerprint`] lists.
/// Each variable-length part carries its length, so two kernels that
/// differ always feed the hash different sequences.
fn hash_kernel(hash: &mut snapshot::Fnv1a64, kernel: &KernelTrace) {
    hash.word(kernel.name().len() as u64);
    hash.write_str(kernel.name()).expect("hashing cannot fail");
    hash.word(kernel.warp_count() as u64);
    for warp in kernel.warps() {
        hash.word(u64::from(warp.cta.0));
        hash.word(warp.instrs.len() as u64);
        for instr in &warp.instrs {
            match instr {
                Instr::Compute { cycles } => {
                    hash.word(0);
                    hash.word(u64::from(*cycles));
                }
                Instr::Load { pc, addrs } | Instr::Store { pc, addrs } => {
                    hash.word(if instr.is_load() { 1 } else { 2 });
                    hash.word(u64::from(pc.0));
                    hash.word(addrs.len() as u64);
                    for addr in addrs.iter() {
                        hash.word(addr.0);
                    }
                }
            }
        }
    }
}

/// The cycle whose step closes the first `every`-cycle window ending
/// after `now` (the step of cycle `c` ends with the cycle count at
/// `c + 1`); never for `every == 0`, which no cycle count after a step
/// is a multiple of.
fn window_step(now: Cycle, every: u64) -> Cycle {
    now.0.checked_div(every).map_or(Cycle(u64::MAX), |n| {
        Cycle((n + 1).saturating_mul(every) - 1)
    })
}

/// A typed error from building or running a simulation.
///
/// The enum is `non_exhaustive` so harnesses that propagate it keep
/// compiling as failure modes are added. (Not `Clone`/`PartialEq`:
/// checkpoint failures carry a [`std::io::Error`].)
#[non_exhaustive]
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed [`GpuConfig::validate`].
    Config(ConfigError),
    /// Writing, loading, or applying a checkpoint failed (see
    /// [`Gpu::run_serviced`] and [`Gpu::restore`]).
    Snapshot(SnapshotError),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(e) => write!(f, "invalid configuration: {e}"),
            SimError::Snapshot(e) => write!(f, "checkpoint error: {e}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::Snapshot(e) => Some(e),
        }
    }
}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<SnapshotError> for SimError {
    fn from(e: SnapshotError) -> Self {
        SimError::Snapshot(e)
    }
}

/// Convenience: builds and runs a kernel in one call.
///
/// # Errors
///
/// Returns [`ConfigError`] if the configuration is inconsistent.
pub fn run_kernel(
    cfg: GpuConfig,
    kernel: KernelTrace,
    mk_prefetcher: impl FnMut(SmId) -> Box<dyn Prefetcher>,
) -> Result<SimOutcome, ConfigError> {
    let mut gpu = Gpu::new(cfg, kernel, mk_prefetcher)?;
    Ok(gpu.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AddrList, WarpTrace};
    use crate::prefetch::NullPrefetcher;
    use crate::types::{Address, CtaId, Pc};

    fn simple_kernel(warps: usize, loads_per_warp: usize) -> KernelTrace {
        let traces = (0..warps)
            .map(|w| {
                let instrs = (0..loads_per_warp)
                    .map(|i| Instr::load(i as u32, ((w * loads_per_warp + i) * 128) as u64))
                    .collect();
                WarpTrace::new(CtaId((w / 4) as u32), instrs)
            })
            .collect();
        KernelTrace::new("test", traces)
    }

    fn run(kernel: KernelTrace) -> SimOutcome {
        run_kernel(GpuConfig::scaled(1), kernel, |_| Box::new(NullPrefetcher)).unwrap()
    }

    /// The baseline under another name: what a device with a
    /// different mechanism on one SM looks like to the fingerprint.
    struct Renamed;
    crate::stateless!(Renamed);

    impl Prefetcher for Renamed {
        fn name(&self) -> &str {
            "renamed"
        }

        fn on_demand_access(
            &mut self,
            _event: &crate::prefetch::AccessEvent,
            _ctx: &crate::prefetch::PrefetchContext,
            _out: &mut Vec<crate::prefetch::PrefetchRequest>,
        ) {
        }
    }

    /// Three warps (two in CTA 0), each a compute, a load, a divergent
    /// load and a store.
    fn mixed_warps() -> Vec<WarpTrace> {
        let warp = |cta, base: u64| {
            let divergent = AddrList::from_vec(vec![Address(base + 128), Address(base + 4096)]);
            let instrs = vec![
                Instr::compute(3),
                Instr::load(4u32, base),
                Instr::Load {
                    pc: Pc(8),
                    addrs: divergent,
                },
                Instr::store(12u32, base + 256),
            ];
            WarpTrace::new(CtaId(cta), instrs)
        };
        vec![warp(0, 0), warp(0, 8192), warp(1, 16384)]
    }

    #[test]
    fn fingerprint_tells_apart_what_a_state_depends_on() {
        let fingerprint = |cfg: &GpuConfig, name: &str, warps: Vec<WarpTrace>, renamed: bool| {
            let kernel = KernelTrace::new(name, warps);
            let gpu = Gpu::new(cfg.clone(), kernel, |sm| -> Box<dyn Prefetcher> {
                match renamed && sm == SmId(1) {
                    true => Box::new(Renamed),
                    false => Box::new(NullPrefetcher),
                }
            })
            .unwrap();
            let value = gpu.fingerprint();
            assert_eq!(gpu.fingerprint(), value, "cached value");
            value
        };
        let cfg = GpuConfig::scaled(2);
        let base = fingerprint(&cfg, "fp", mixed_warps(), false);
        assert_eq!(fingerprint(&cfg, "fp", mixed_warps(), false), base);
        let mut host_only = cfg.clone();
        host_only.checkpoint_every = Some(100);
        host_only.host_profile = true;
        assert_eq!(fingerprint(&host_only, "fp", mixed_warps(), false), base);

        type Edit = fn(&mut Vec<WarpTrace>);
        let edits: [(&str, Edit); 7] = [
            ("a warp's CTA", |w| w[1].cta = CtaId(1)),
            ("a compute's cycles", |w| w[0].instrs[0] = Instr::compute(4)),
            ("a load's PC", |w| {
                w[2].instrs[1] = Instr::load(5u32, 16384u64)
            }),
            ("a divergent load's address", |w| {
                let addrs = AddrList::from_vec(vec![Address(128), Address(4224)]);
                w[0].instrs[2] = Instr::Load { pc: Pc(8), addrs };
            }),
            ("a load turned store", |w| {
                w[0].instrs[1] = Instr::store(4u32, 0u64);
            }),
            ("two warps swapped", |w| w.swap(0, 1)),
            ("an instruction split in two", |w| {
                let halves = [Instr::load(8u32, 128u64), Instr::load(8u32, 4096u64)];
                w[0].instrs.splice(2..3, halves);
            }),
        ];
        let mut slower = cfg.clone();
        slower.noc_latency += 1;
        let mut seen = vec![
            ("no edit", base),
            (
                "the kernel name",
                fingerprint(&cfg, "fq", mixed_warps(), false),
            ),
            (
                "a config field",
                fingerprint(&slower, "fp", mixed_warps(), false),
            ),
            (
                "one SM's mechanism",
                fingerprint(&cfg, "fp", mixed_warps(), true),
            ),
        ];
        for (what, edit) in edits {
            let mut warps = mixed_warps();
            edit(&mut warps);
            seen.push((what, fingerprint(&cfg, "fp", warps, false)));
        }
        for (i, (what, value)) in seen.iter().enumerate() {
            for (other, earlier) in &seen[..i] {
                assert_ne!(value, earlier, "{what} and {other} share a fingerprint");
            }
        }
    }

    #[test]
    fn single_warp_completes() {
        let out = run(simple_kernel(1, 4));
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.instructions, 4);
        assert_eq!(out.stats.demand_loads, 4);
        assert_eq!(out.stats.l1.misses, 4, "all cold misses");
        assert!(out.stats.cycles > 200, "misses pay memory latency");
    }

    #[test]
    fn repeated_loads_hit_in_l1() {
        // Compute between the loads forms a use barrier, so the later
        // loads find valid data (plain hits).
        let instrs = vec![
            Instr::load(0u32, 0u64),
            Instr::compute(2),
            Instr::load(1u32, 0u64),
            Instr::compute(2),
            Instr::load(2u32, 0u64),
        ];
        let k = KernelTrace::new("hits", vec![WarpTrace::new(CtaId(0), instrs)]);
        let out = run(k);
        assert_eq!(out.stats.l1.misses, 1);
        assert_eq!(out.stats.l1.hits, 2);
    }

    #[test]
    fn back_to_back_loads_overlap_misses() {
        // Stall-on-use: four consecutive loads to distinct lines issue
        // back-to-back, overlapping their memory latency (MLP).
        let overlapped = vec![
            Instr::load(0u32, 0u64),
            Instr::load(1u32, 4096u64),
            Instr::load(2u32, 8192u64),
            Instr::load(3u32, 12288u64),
        ];
        let serialized = vec![
            Instr::load(0u32, 0u64),
            Instr::compute(1),
            Instr::load(1u32, 4096u64),
            Instr::compute(1),
            Instr::load(2u32, 8192u64),
            Instr::compute(1),
            Instr::load(3u32, 12288u64),
        ];
        let fast = run(KernelTrace::new(
            "mlp",
            vec![WarpTrace::new(CtaId(0), overlapped)],
        ));
        let slow = run(KernelTrace::new(
            "serial",
            vec![WarpTrace::new(CtaId(0), serialized)],
        ));
        assert!(
            (fast.stats.cycles as f64) < (slow.stats.cycles as f64) * 0.5,
            "MLP must overlap latency: {} vs {}",
            fast.stats.cycles,
            slow.stats.cycles
        );
    }

    #[test]
    fn tlp_hides_latency() {
        // 16 warps, disjoint lines: more warps should not be 16x slower.
        let one = run(simple_kernel(1, 8)).stats.cycles;
        let many = run(simple_kernel(16, 8)).stats.cycles;
        assert!(
            (many as f64) < (one as f64) * 8.0,
            "TLP must overlap latency: 1 warp {one} cy, 16 warps {many} cy"
        );
    }

    #[test]
    fn compute_only_kernel_is_fast() {
        let instrs = vec![Instr::compute(2); 10];
        let k = KernelTrace::new("compute", vec![WarpTrace::new(CtaId(0), instrs)]);
        let out = run(k);
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.demand_loads, 0);
        assert!(out.stats.cycles < 100);
    }

    #[test]
    fn stores_complete_and_count() {
        let instrs = vec![Instr::store(0u32, 0u64), Instr::store(1u32, 128u64)];
        let k = KernelTrace::new("stores", vec![WarpTrace::new(CtaId(0), instrs)]);
        let out = run(k);
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.stores, 2);
        assert!(out.stats.noc_bytes_up >= 256, "store data on the wire");
    }

    #[test]
    fn cycle_limit_stops_runaway() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.max_cycles = Some(Cycle(100));
        let out = run_kernel(cfg, simple_kernel(8, 100), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::CycleLimit);
        assert_eq!(out.stats.cycles, 100);
    }

    #[test]
    fn cycle_budget_truncates_with_its_own_stop_reason() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.cycle_budget = Some(Cycle(100));
        let out = run_kernel(cfg, simple_kernel(8, 100), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::BudgetExceeded { budget: 100 });
        assert_eq!(out.stop.label(), "budget_exceeded");
        assert!(!out.stop.is_complete());
        assert_eq!(out.stats.cycles, 100);
    }

    #[test]
    fn budget_beneath_max_cycles_wins_and_completion_beats_both() {
        // Budget below the safety net: the budget is reported.
        let mut cfg = GpuConfig::scaled(1);
        cfg.cycle_budget = Some(Cycle(100));
        cfg.max_cycles = Some(Cycle(10_000));
        let out = run_kernel(cfg, simple_kernel(8, 100), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::BudgetExceeded { budget: 100 });
        // A run that finishes inside the budget stays Completed.
        let mut cfg = GpuConfig::scaled(1);
        cfg.cycle_budget = Some(Cycle(1_000_000));
        let out = run_kernel(cfg, simple_kernel(1, 2), |_| Box::new(NullPrefetcher)).unwrap();
        assert_eq!(out.stop, StopReason::Completed);
        assert!(out.stop.is_complete());
    }

    #[test]
    fn completion_needs_the_memory_system_drained() {
        // Every fill arrives twice, so the warp retires while the
        // duplicate is still on its way: a budget that ends the run
        // then truncates it, and the drain audit must not run.
        let mut cfg = GpuConfig::scaled(1);
        cfg.fault.duplicate_response = 1.0;
        cfg.audit_window = Some(1_000);
        let kernel = simple_kernel(1, 1);
        let run =
            |cfg: GpuConfig| run_kernel(cfg, kernel.clone(), |_| Box::new(NullPrefetcher)).unwrap();
        let drained = run(cfg.clone()).stats.cycles;
        for budget in drained - 10..=drained {
            let mut cfg = cfg.clone();
            cfg.cycle_budget = Some(Cycle(budget));
            let stop = run(cfg).stop;
            assert_eq!(
                stop.is_complete(),
                budget == drained,
                "budget {budget}: {stop:?}"
            );
        }
    }

    #[test]
    fn sim_error_wraps_and_displays_config_errors() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.miss_queue_depth = 0;
        let err = SimError::from(cfg.validate().unwrap_err());
        assert!(err.to_string().contains("miss_queue_depth"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn multi_sm_distributes_ctas() {
        let cfg = GpuConfig::scaled(2);
        let kernel = simple_kernel(8, 4); // 2 CTAs of 4 warps
        let mut gpu = Gpu::new(cfg, kernel, |_| Box::new(NullPrefetcher)).unwrap();
        let out = gpu.run();
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.instructions, 32);
    }

    #[test]
    fn more_ctas_than_slots_queue_up() {
        // 10 CTAs x 4 warps = 40 warps on 1 SM with 16 slots.
        let out = run(simple_kernel(40, 3));
        assert_eq!(out.stop, StopReason::Completed);
        assert_eq!(out.stats.instructions, 120);
    }

    #[test]
    fn memory_bound_kernel_shows_memory_stalls() {
        let out = run(simple_kernel(16, 32));
        assert!(out.stats.all_stall_cycles > 0);
        assert!(out.stats.memory_stall_fraction() > 0.5);
    }
}
