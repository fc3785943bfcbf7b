//! Host-side performance observatory: where does *wall-clock* time go
//! while the simulator runs?
//!
//! PR 2's `obs` layer made the simulated GPU observable; this module
//! makes the simulator itself observable. Each component that does
//! per-cycle work (SM front-end, unified L1, MSHR, prefetcher hook,
//! interconnect, memory partition, trace flushing) owns an
//! `Option<HostProfiler>` and wraps its entry points in a
//! [`Stopwatch`] — the same Option-gated pattern as
//! [`TraceSink`](crate::obs::TraceSink), so the disabled path costs a
//! single branch and no clock reads. The GPU merges every component's
//! accumulator at the end of [`run`](crate::Gpu::run) into one
//! [`HostProfile`] carried on [`SimOutcome`](crate::SimOutcome).
//!
//! Phases are **disjoint leaf measurements**: a component times only
//! its own entry points, never a region that contains another
//! component's timed call, so phase times never double-count and sum
//! to at most the wall time. Whatever falls between timed regions
//! (loop glue, retirement, watchdog checks) is reported as
//! [`HostProfile::unaccounted_nanos`].
//!
//! Profiling is enabled with [`GpuConfig::host_profile`]; it never
//! changes simulated behavior, only measures the host cost of it.
//!
//! [`GpuConfig::host_profile`]: crate::GpuConfig::host_profile

use std::time::Instant;

/// A host-time phase of the per-cycle tick loop.
///
/// The taxonomy maps one-to-one onto the simulator's components (see
/// the module docs for which entry points feed each phase). Every
/// phase is always present in a [`HostProfile`], zeroed when it never
/// ran, so downstream serializers can rely on a fixed row set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// SM front-end: CTA launch, warp refresh, scheduler picks.
    SmIssue,
    /// Unified-L1 lookups: demand loads, stores, prefetch issue.
    L1Lookup,
    /// MSHR completion work: fills and timeout-recovery scans.
    Mshr,
    /// Prefetcher training and candidate generation
    /// (`on_demand_access` plus telemetry drain).
    Prefetch,
    /// Interconnect: credit refill, packet injection, arrivals.
    Noc,
    /// Memory partition: L2 banks, DRAM pipes, request/response queues.
    MemPartition,
    /// Observability itself: per-cycle trace drain/forward and
    /// windowed-metrics sampling.
    Observability,
}

impl Phase {
    /// Every phase, in fixed report order.
    pub const ALL: [Phase; 7] = [
        Phase::SmIssue,
        Phase::L1Lookup,
        Phase::Mshr,
        Phase::Prefetch,
        Phase::Noc,
        Phase::MemPartition,
        Phase::Observability,
    ];

    /// Stable lower-case label used in `BENCH_*.json` and tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::SmIssue => "sm_issue",
            Phase::L1Lookup => "l1_lookup",
            Phase::Mshr => "mshr",
            Phase::Prefetch => "prefetch",
            Phase::Noc => "noc",
            Phase::MemPartition => "mem_partition",
            Phase::Observability => "observability",
        }
    }

    /// Parses a [`Phase::label`] back to the phase.
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }

    fn index(self) -> usize {
        match self {
            Phase::SmIssue => 0,
            Phase::L1Lookup => 1,
            Phase::Mshr => 2,
            Phase::Prefetch => 3,
            Phase::Noc => 4,
            Phase::MemPartition => 5,
            Phase::Observability => 6,
        }
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Accumulated wall-time and call count for one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Total nanoseconds spent inside the phase's timed regions.
    pub nanos: u64,
    /// Number of timed regions that contributed.
    pub calls: u64,
}

impl PhaseStat {
    /// Mean nanoseconds per call (0 when the phase never ran).
    pub fn nanos_per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.nanos as f64 / self.calls as f64
        }
    }
}

/// A component-owned phase-time accumulator.
///
/// Components hold `Option<HostProfiler>` (`None` = profiling off) and
/// the GPU merges them all at the end of a run. The accumulator is a
/// flat array indexed by [`Phase`], so `add` is two integer adds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfiler {
    stats: [PhaseStat; Phase::ALL.len()],
}

impl HostProfiler {
    /// An empty accumulator.
    pub fn new() -> Self {
        HostProfiler::default()
    }

    /// Records one timed region of `nanos` under `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, nanos: u64) {
        let s = &mut self.stats[phase.index()];
        s.nanos += nanos;
        s.calls += 1;
    }

    /// Accumulated stat for one phase.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.stats[phase.index()]
    }

    /// Folds another accumulator into this one.
    pub fn merge(&mut self, other: &HostProfiler) {
        for (into, from) in self.stats.iter_mut().zip(other.stats.iter()) {
            into.nanos += from.nanos;
            into.calls += from.calls;
        }
    }

    /// Seals the accumulator into a [`HostProfile`] with run-level
    /// context (total wall time, simulated cycles, trace events).
    pub fn finish(self, wall_nanos: u64, cycles: u64, trace_events: u64) -> HostProfile {
        HostProfile {
            wall_nanos,
            cycles,
            trace_events,
            skipped_cycles: 0,
            replayed_ticks: 0,
            sm_ticks: 0,
            phases: self.stats,
        }
    }
}

/// A scoped wall-clock timer for one phase region.
///
/// `start(false)` reads no clock at all; `stop` against a `None`
/// profiler is a no-op — so a disabled profiler costs one branch per
/// region, matching the `obs` layer's zero-cost-when-off contract.
///
/// # Examples
///
/// ```
/// use snake_sim::perfstat::{HostProfiler, Phase, Stopwatch};
///
/// let mut prof = Some(HostProfiler::new());
/// let sw = Stopwatch::start(prof.is_some());
/// // ... the timed region ...
/// sw.stop(&mut prof, Phase::Noc);
/// assert_eq!(prof.unwrap().get(Phase::Noc).calls, 1);
/// ```
#[derive(Debug)]
#[must_use = "a started stopwatch must be stopped into a profiler"]
pub struct Stopwatch(Option<Instant>);

impl Stopwatch {
    /// Starts timing when `enabled`, otherwise returns an inert watch.
    #[inline]
    pub fn start(enabled: bool) -> Self {
        Stopwatch(if enabled { Some(Instant::now()) } else { None })
    }

    /// Stops the watch and charges the elapsed time to `phase`.
    #[inline]
    pub fn stop(self, prof: &mut Option<HostProfiler>, phase: Phase) {
        if let (Some(t0), Some(p)) = (self.0, prof.as_mut()) {
            p.add(phase, t0.elapsed().as_nanos() as u64);
        }
    }
}

/// Where the host's wall-clock time went during one simulation run.
///
/// Carried on [`SimOutcome::host`](crate::SimOutcome::host) when
/// [`GpuConfig::host_profile`](crate::GpuConfig::host_profile) is set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostProfile {
    /// Total wall time of [`Gpu::run`](crate::Gpu::run), nanoseconds.
    pub wall_nanos: u64,
    /// Simulated cycles covered by the run.
    pub cycles: u64,
    /// Trace events flushed to an attached sink (0 without a sink).
    pub trace_events: u64,
    /// Cycles the run loop skipped as device-quiet instead of stepping
    /// (see [`Gpu::quiet_until`](crate::Gpu::quiet_until)).
    pub skipped_cycles: u64,
    /// SM ticks that replayed an idle charge instead of picking, in
    /// skipped cycles too (see [`Sm::tick`](crate::Sm::tick)).
    pub replayed_ticks: u64,
    /// Every SM tick of the run: SMs × `cycles`.
    pub sm_ticks: u64,
    /// Per-phase accumulators, indexed in [`Phase::ALL`] order.
    phases: [PhaseStat; Phase::ALL.len()],
}

impl HostProfile {
    /// Accumulated stat for one phase.
    pub fn get(&self, phase: Phase) -> PhaseStat {
        self.phases[phase.index()]
    }

    /// Iterates phases with their stats, in [`Phase::ALL`] order.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, PhaseStat)> + '_ {
        Phase::ALL.into_iter().map(|p| (p, self.get(p)))
    }

    /// Sum of all phase times, nanoseconds.
    pub fn phase_nanos_total(&self) -> u64 {
        self.phases.iter().map(|s| s.nanos).sum()
    }

    /// Wall time not attributed to any phase (loop glue, retirement,
    /// watchdog checks). Saturates at zero: per-region clock reads can
    /// in principle over-measure very short regions.
    pub fn unaccounted_nanos(&self) -> u64 {
        self.wall_nanos.saturating_sub(self.phase_nanos_total())
    }

    /// Simulated cycles per wall-clock second (0 for a zero-length run).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Share of the run's cycles skipped as device-quiet.
    pub fn skipped_share(&self) -> f64 {
        share(self.skipped_cycles, self.cycles)
    }

    /// Share of the run's SM ticks that replayed an idle charge.
    pub fn replayed_share(&self) -> f64 {
        share(self.replayed_ticks, self.sm_ticks)
    }

    /// Trace events flushed per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_nanos == 0 {
            0.0
        } else {
            self.trace_events as f64 * 1e9 / self.wall_nanos as f64
        }
    }

    /// Builds a profile directly from per-phase stats (exporters and
    /// tests; simulation code goes through [`HostProfiler::finish`]).
    pub fn from_parts(
        wall_nanos: u64,
        cycles: u64,
        trace_events: u64,
        stats: impl IntoIterator<Item = (Phase, PhaseStat)>,
    ) -> Self {
        let mut phases = [PhaseStat::default(); Phase::ALL.len()];
        for (p, s) in stats {
            phases[p.index()] = s;
        }
        HostProfile {
            wall_nanos,
            cycles,
            trace_events,
            skipped_cycles: 0,
            replayed_ticks: 0,
            sm_ticks: 0,
            phases,
        }
    }
}

/// `part / whole`, 0 for an empty whole.
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip_and_cover_all() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
            assert_eq!(p.to_string(), p.label());
        }
        assert_eq!(Phase::from_label("bogus"), None);
        // Index must be a bijection onto 0..len.
        let mut seen = [false; Phase::ALL.len()];
        for p in Phase::ALL {
            assert!(!seen[p.index()], "duplicate index for {p}");
            seen[p.index()] = true;
        }
    }

    #[test]
    fn profiler_accumulates_and_merges() {
        let mut a = HostProfiler::new();
        a.add(Phase::Noc, 100);
        a.add(Phase::Noc, 50);
        a.add(Phase::Mshr, 7);
        let mut b = HostProfiler::new();
        b.add(Phase::Noc, 1);
        a.merge(&b);
        assert_eq!(
            a.get(Phase::Noc),
            PhaseStat {
                nanos: 151,
                calls: 3
            }
        );
        assert_eq!(a.get(Phase::Mshr), PhaseStat { nanos: 7, calls: 1 });
        assert_eq!(a.get(Phase::SmIssue), PhaseStat::default());
    }

    #[test]
    fn disabled_stopwatch_records_nothing() {
        let mut prof = Some(HostProfiler::new());
        Stopwatch::start(false).stop(&mut prof, Phase::L1Lookup);
        assert_eq!(prof.unwrap().get(Phase::L1Lookup).calls, 0);
        let mut off: Option<HostProfiler> = None;
        Stopwatch::start(true).stop(&mut off, Phase::L1Lookup);
        assert!(off.is_none());
    }

    #[test]
    fn enabled_stopwatch_charges_the_phase() {
        let mut prof = Some(HostProfiler::new());
        let sw = Stopwatch::start(true);
        std::hint::black_box(1 + 1);
        sw.stop(&mut prof, Phase::Prefetch);
        let s = prof.unwrap().get(Phase::Prefetch);
        assert_eq!(s.calls, 1);
    }

    #[test]
    fn profile_derived_metrics() {
        let mut p = HostProfiler::new();
        p.add(Phase::SmIssue, 600);
        p.add(Phase::MemPartition, 300);
        let profile = p.finish(2_000, 4_000_000_000, 1_000_000_000);
        assert_eq!(profile.phase_nanos_total(), 900);
        assert_eq!(profile.unaccounted_nanos(), 1_100);
        assert!((profile.cycles_per_sec() - 2e15).abs() < 1e6);
        assert!((profile.events_per_sec() - 5e14).abs() < 1e6);
        assert_eq!(profile.iter().count(), Phase::ALL.len());
        // Over-measurement saturates instead of underflowing.
        let mut p = HostProfiler::new();
        p.add(Phase::SmIssue, 500);
        assert_eq!(p.finish(100, 1, 0).unaccounted_nanos(), 0);
    }

    #[test]
    fn zero_wall_profile_reports_zero_rates() {
        let profile = HostProfiler::new().finish(0, 0, 0);
        assert_eq!(profile.cycles_per_sec(), 0.0);
        assert_eq!(profile.events_per_sec(), 0.0);
    }

    #[test]
    fn from_parts_places_stats_by_phase() {
        let profile =
            HostProfile::from_parts(10, 20, 30, [(Phase::Noc, PhaseStat { nanos: 5, calls: 2 })]);
        assert_eq!(profile.get(Phase::Noc).calls, 2);
        assert_eq!(profile.get(Phase::SmIssue).calls, 0);
        assert_eq!(profile.wall_nanos, 10);
    }

    #[test]
    fn nanos_per_call_handles_zero() {
        assert_eq!(PhaseStat::default().nanos_per_call(), 0.0);
        let s = PhaseStat {
            nanos: 10,
            calls: 4,
        };
        assert!((s.nanos_per_call() - 2.5).abs() < 1e-12);
    }
}
