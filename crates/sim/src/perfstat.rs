//! Host-side performance observatory: where does *wall-clock* time go
//! while the simulator runs?
//!
//! The `obs` layer makes the simulated GPU observable; this module
//! makes the simulator itself observable. When
//! [`GpuConfig::host_profile`] is set the device owns one
//! [`HostProfiler`], and its run loop ([`Gpu::run_serviced`]) has it
//! time one iteration in 64 on average, on a deterministic, jittered
//! schedule. A sampled iteration reads the clock once at each switch
//! between [`Phase`]s; other iterations, and runs with profiling off,
//! read no clock. At the end of the run the wall time is split by the
//! shares the sampled iterations show, net of the switches' own cost,
//! so phases plus unaccounted time (the run loop's own bookkeeping)
//! equal the wall time exactly. DESIGN.md § Host performance
//! observatory has the phase map of a step and the estimate's limits.
//!
//! Profiling never changes simulated behavior, only measures the host
//! cost of it.
//!
//! [`GpuConfig::host_profile`]: crate::GpuConfig::host_profile
//! [`Gpu::run_serviced`]: crate::Gpu::run_serviced

use std::time::Instant;

/// A host-time phase of the per-cycle tick loop.
///
/// Every region of a step belongs to exactly one phase (DESIGN.md §
/// Host performance observatory has the map of a step). Every phase is
/// always present in a [`HostProfile`], zeroed when it never ran, so
/// downstream serializers can rely on a fixed row set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// SM front-end: CTA launch, warp refresh, scheduler picks, idle
    /// ticks replayed, warp retirement, the end-of-run check and the
    /// watchdog.
    SmIssue,
    /// Unified-L1 lookups: demand loads, stores, prefetch issue.
    L1Lookup,
    /// MSHR completion work: fills and timeout-recovery scans.
    Mshr,
    /// Prefetcher training and candidate generation
    /// (`on_demand_access` plus telemetry drain) and the throttle sync.
    Prefetch,
    /// Interconnect: credit refill, packet injection, arrivals handed
    /// to the partition, responses sent.
    Noc,
    /// Memory partition: L2 banks, DRAM pipes, response queues.
    MemPartition,
    /// Observability itself: trace flush, windowed-metrics sampling
    /// and the invariant audit.
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

    /// Stable lower-case label used in the worker protocol and tables.
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
        self as usize
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
    /// Nanoseconds spent in the phase's regions: the run's wall time
    /// times the phase's share of the sampled iterations.
    pub nanos: u64,
    /// Regions of the phase entered, estimated from the sampled
    /// iterations.
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

/// Mean run-loop iterations from one sampled iteration to the next,
/// chosen by measurement (DESIGN.md § Host performance observatory).
const SAMPLE_PERIOD: u64 = 64;

/// Slots after the phases: the run loop's own bookkeeping, the empty
/// region timing one switch, and the unread time between samples.
const LOOP: usize = Phase::ALL.len();
const CLOCK: usize = LOOP + 1;
const IDLE: usize = CLOCK + 1;

/// The run's one host-time profiler, owned by the device and driven by
/// its run loop (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use snake_sim::perfstat::{HostProfiler, Phase};
///
/// let mut prof = HostProfiler::default();
/// prof.switch(Phase::Noc); // the first iteration is sampled: starts the clock
/// prof.end_iteration();
/// prof.switch(Phase::Noc); // the second is not: reads no clock
/// prof.end_iteration();
/// let profile = prof.finish(1_000, 2, 0, 0, 0, 2);
/// assert_eq!(profile.get(Phase::Noc).calls, 2, "one region, scaled by 2 / 1");
/// assert_eq!(profile.phase_nanos_total() + profile.unaccounted_nanos(), 1_000);
/// ```
#[derive(Debug, Clone)]
pub struct HostProfiler {
    /// Sampled nanoseconds and regions per slot: the phases in
    /// [`Phase::ALL`] order, then `LOOP`, `CLOCK` and `IDLE`.
    nanos: [u64; IDLE + 1],
    regions: [u64; IDLE + 1],
    /// The slot the running region is charged to, and when it began.
    current: usize,
    since: Instant,
    /// The schedule: whether this iteration is sampled and how many
    /// follow before the next is. Gaps come in pairs `SAMPLE_PERIOD ∓ d`
    /// (`d < SAMPLE_PERIOD / 2` from a fixed-seed xorshift `rng`,
    /// `pending` holding a pair's second gap): deterministic, never in
    /// step with a power-of-two window, `SAMPLE_PERIOD` on average.
    pub(crate) sampling: bool,
    wait: u64,
    rng: u64,
    pending: Option<u64>,
    /// Run-loop iterations so far, and how many of them were sampled.
    iterations: u64,
    sampled: u64,
    /// The fastest empty region: what a switch costs.
    switch_nanos: u64,
}

impl Default for HostProfiler {
    /// A profiler whose first iteration is sampled.
    fn default() -> Self {
        HostProfiler {
            nanos: [0; IDLE + 1],
            regions: [0; IDLE + 1],
            current: IDLE,
            since: Instant::now(),
            sampling: true,
            wait: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
            pending: None,
            iterations: 0,
            sampled: 0,
            switch_nanos: u64::MAX,
        }
    }
}

impl HostProfiler {
    /// In a sampled iteration, ends the running region and starts one
    /// charged to `phase` (nothing when `phase` is already running). The
    /// first switch of a sampled iteration starts the clock.
    #[inline]
    pub fn switch(&mut self, phase: Phase) {
        self.switch_to(phase.index());
    }

    /// Like [`switch`](HostProfiler::switch), to the run loop's own
    /// bookkeeping, which no phase accounts for.
    #[inline]
    pub fn switch_to_loop(&mut self) {
        self.switch_to(LOOP);
    }

    /// Ends a run-loop iteration. A sampled one ends its last region,
    /// times one empty region between two switches and stops the clock.
    /// Then the schedule decides whether the next one is sampled.
    pub fn end_iteration(&mut self) {
        self.switch_to(CLOCK);
        let before = self.nanos[CLOCK];
        self.switch_to(IDLE);
        if self.sampling {
            self.switch_nanos = self.switch_nanos.min(self.nanos[CLOCK] - before);
            self.sampled += 1;
            self.wait = self.gap();
        }
        self.iterations += 1;
        self.wait -= 1;
        self.sampling = self.wait == 0;
    }

    /// Iterations from this sampled one to the next.
    fn gap(&mut self) -> u64 {
        if let Some(gap) = self.pending.take() {
            return gap;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let d = self.rng % (SAMPLE_PERIOD / 2);
        self.pending = Some(SAMPLE_PERIOD + d);
        SAMPLE_PERIOD - d
    }

    #[inline]
    fn switch_to(&mut self, slot: usize) {
        if !self.sampling || slot == self.current {
            return;
        }
        let now = Instant::now();
        self.nanos[self.current] += now.duration_since(self.since).as_nanos() as u64;
        self.regions[self.current] += 1;
        self.current = slot;
        self.since = now;
    }

    /// Seals the run into a [`HostProfile`]: each slot's sampled time
    /// less one switch per region (the fastest switch, so that one
    /// preempted empty region cannot erase every short region's work)
    /// is its share of `wall_nanos`, and each phase's regions are scaled
    /// by iterations over sampled iterations. The other arguments are
    /// carried as in [`HostProfile::from_parts`].
    pub fn finish(
        self,
        wall_nanos: u64,
        cycles: u64,
        trace_events: u64,
        skipped_cycles: u64,
        replayed_ticks: u64,
        sm_ticks: u64,
    ) -> HostProfile {
        let per = |count: u64, num: u64, den: u64| -> u64 {
            (u128::from(count) * u128::from(num) / u128::from(den.max(1))) as u64
        };
        let work: [u64; LOOP + 1] = std::array::from_fn(|slot| {
            let switches = per(self.regions[slot], self.switch_nanos, 1);
            self.nanos[slot].saturating_sub(switches)
        });
        let total = work.iter().sum();
        let stats = Phase::ALL.map(|p| {
            let i = p.index();
            let nanos = per(wall_nanos, work[i], total);
            let calls = per(self.regions[i], self.iterations, self.sampled);
            (p, PhaseStat { nanos, calls })
        });
        HostProfile::from_parts(
            wall_nanos,
            cycles,
            trace_events,
            skipped_cycles,
            replayed_ticks,
            sm_ticks,
            stats,
        )
    }
}

/// Switches a sampled iteration's profiler to `phase`; nothing on an
/// unsampled iteration (`None`).
#[inline]
pub(crate) fn switch(prof: &mut Option<&mut HostProfiler>, phase: Phase) {
    if let Some(p) = prof {
        p.switch(phase);
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

    /// Wall time not attributed to any phase: the run loop's own
    /// bookkeeping. Saturates at zero for a profile built by
    /// [`HostProfile::from_parts`] with more phase time than wall time;
    /// [`HostProfiler::finish`] never builds one.
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

    /// Builds a profile from its fields, in declaration order, and its
    /// per-phase stats (exporters, tests and [`HostProfiler::finish`]).
    pub fn from_parts(
        wall_nanos: u64,
        cycles: u64,
        trace_events: u64,
        skipped_cycles: u64,
        replayed_ticks: u64,
        sm_ticks: u64,
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
            skipped_cycles,
            replayed_ticks,
            sm_ticks,
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
    fn finish_splits_wall_by_sampled_shares_and_scales_calls() {
        let (mut nanos, mut regions) = ([0; IDLE + 1], [0; IDLE + 1]);
        let sm = Phase::SmIssue.index();
        let noc = Phase::Noc.index();
        (nanos[sm], regions[sm]) = (340, 4); // 300 ns of work
        (nanos[noc], regions[noc]) = (120, 2); // 100 ns
        (nanos[LOOP], regions[LOOP]) = (110, 1); // 100 ns
                                                 // 64 iterations per sampled one, and a switch costs 10 ns.
        let prof = HostProfiler {
            nanos,
            regions,
            iterations: 640,
            sampled: 10,
            switch_nanos: 10,
            ..HostProfiler::default()
        };
        let profile = prof.finish(1_000, 5, 0, 0, 0, 5);
        assert_eq!(
            profile.get(Phase::SmIssue),
            PhaseStat {
                nanos: 600,
                calls: 256
            }
        );
        assert_eq!(
            profile.get(Phase::Noc),
            PhaseStat {
                nanos: 200,
                calls: 128
            }
        );
        assert_eq!(profile.get(Phase::Mshr), PhaseStat::default());
        assert_eq!(profile.unaccounted_nanos(), 200, "the loop's share");
    }

    #[test]
    fn unsampled_iterations_record_nothing() {
        let mut prof = HostProfiler::default();
        prof.switch(Phase::L1Lookup);
        prof.end_iteration();
        let (nanos, regions) = (prof.nanos, prof.regions);
        while !prof.sampling {
            prof.switch(Phase::L1Lookup);
            prof.end_iteration();
        }
        assert!(prof.iterations > 2, "the second sample comes later");
        assert_eq!(prof.sampled, 1);
        assert_eq!(prof.nanos[..CLOCK], nanos[..CLOCK], "no phase time");
        assert_eq!(prof.regions[..CLOCK], regions[..CLOCK], "no region");
    }

    #[test]
    fn switch_charges_the_previous_phase() {
        let mut prof = HostProfiler::default();
        prof.switch(Phase::Prefetch);
        std::hint::black_box(1 + 1);
        prof.switch(Phase::Prefetch);
        prof.switch_to_loop();
        prof.switch(Phase::Noc);
        prof.end_iteration();
        assert_eq!(prof.regions[Phase::Prefetch.index()], 1, "one region");
        assert_eq!(prof.regions[LOOP], 1);
        assert_eq!(prof.regions[Phase::Noc.index()], 1);
        assert_eq!(prof.regions[CLOCK], 1, "the empty region");
        assert_eq!(prof.switch_nanos, prof.nanos[CLOCK]);
        assert_eq!(prof.regions[Phase::Mshr.index()], 0);
        assert_eq!(prof.regions[IDLE], 1, "before the first switch");
    }

    #[test]
    fn schedule_is_deterministic_bounded_and_averages_the_period() {
        let gaps = || {
            let mut prof = HostProfiler::default();
            let sampled: Vec<u64> = (0..64_000)
                .filter(|_| {
                    let sampled = prof.sampling;
                    prof.end_iteration();
                    sampled
                })
                .collect();
            sampled.windows(2).map(|w| w[1] - w[0]).collect::<Vec<_>>()
        };
        let a = gaps();
        assert_eq!(a, gaps(), "deterministic");
        assert!(a.len() > 900, "{} gaps", a.len());
        for &gap in &a {
            assert!(
                gap > SAMPLE_PERIOD / 2 && gap < SAMPLE_PERIOD * 3 / 2,
                "gap {gap}"
            );
        }
        assert!(a.windows(2).any(|w| w[0] != w[1]), "jittered");
        let pairs = a.len() / 2 * 2;
        let sum: u64 = a[..pairs].iter().sum();
        assert_eq!(sum, SAMPLE_PERIOD * pairs as u64, "mean gap");
    }

    #[test]
    fn profile_derived_metrics() {
        let profile = HostProfile::from_parts(
            2_000,
            4_000_000_000,
            1_000_000_000,
            0,
            0,
            4_000_000_000,
            [
                (
                    Phase::SmIssue,
                    PhaseStat {
                        nanos: 600,
                        calls: 1,
                    },
                ),
                (
                    Phase::MemPartition,
                    PhaseStat {
                        nanos: 300,
                        calls: 1,
                    },
                ),
            ],
        );
        assert_eq!(profile.phase_nanos_total(), 900);
        assert_eq!(profile.unaccounted_nanos(), 1_100);
        assert!((profile.cycles_per_sec() - 2e15).abs() < 1e6);
        assert!((profile.events_per_sec() - 5e14).abs() < 1e6);
        assert_eq!(profile.iter().count(), Phase::ALL.len());
        // Over-measurement saturates instead of underflowing.
        let over = HostProfile::from_parts(
            100,
            1,
            0,
            0,
            0,
            1,
            [(
                Phase::SmIssue,
                PhaseStat {
                    nanos: 500,
                    calls: 1,
                },
            )],
        );
        assert_eq!(over.unaccounted_nanos(), 0);
    }

    #[test]
    fn zero_wall_profile_reports_zero_rates() {
        let profile = HostProfiler::default().finish(0, 0, 0, 0, 0, 0);
        assert_eq!(profile.cycles_per_sec(), 0.0);
        assert_eq!(profile.events_per_sec(), 0.0);
        assert_eq!(profile.skipped_share(), 0.0);
        assert_eq!(profile.replayed_share(), 0.0);
    }

    #[test]
    fn quiet_counters_reach_their_shares() {
        let built = HostProfile::from_parts(1_000, 5_000, 0, 2_000, 3_000, 10_000, []);
        let finished = HostProfiler::default().finish(1_000, 5_000, 0, 2_000, 3_000, 10_000);
        for profile in [built, finished] {
            assert_eq!(
                (
                    profile.skipped_cycles,
                    profile.replayed_ticks,
                    profile.sm_ticks
                ),
                (2_000, 3_000, 10_000)
            );
            assert!((profile.skipped_share() - 0.4).abs() < 1e-12);
            assert!((profile.replayed_share() - 0.3).abs() < 1e-12);
        }
    }

    #[test]
    fn from_parts_places_stats_by_phase() {
        let profile = HostProfile::from_parts(
            10,
            20,
            30,
            0,
            0,
            20,
            [(Phase::Noc, PhaseStat { nanos: 5, calls: 2 })],
        );
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
