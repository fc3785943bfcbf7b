//! End-to-end tests of the host performance observatory: profiling is
//! off by default, populates every exercised phase when on, and never
//! perturbs simulated behavior (no observer effect on architectural
//! state).

use std::time::{Duration, Instant};

use snake_sim::{
    run_kernel, AccessEvent, CtaId, Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, Phase,
    PrefetchContext, PrefetchRequest, Prefetcher, WarpTrace,
};

fn streaming_kernel(warps: u32, loads: usize) -> KernelTrace {
    let warps: Vec<WarpTrace> = (0..warps)
        .map(|w| {
            let instrs = (0..loads)
                .map(|i| Instr::load(i as u32, (w as u64) * 65536 + (i as u64) * 128))
                .collect();
            WarpTrace::new(CtaId(w), instrs)
        })
        .collect();
    KernelTrace::new("hp", warps)
}

fn run(cfg: GpuConfig) -> snake_sim::SimOutcome {
    run_kernel(cfg, streaming_kernel(4, 32), |_| Box::new(NullPrefetcher)).unwrap()
}

#[test]
fn profiling_off_by_default_yields_no_host_profile() {
    let out = run(GpuConfig::scaled(1));
    assert!(out.host.is_none(), "host profile must be opt-in");
}

#[test]
fn profiling_on_populates_exercised_phases() {
    let mut cfg = GpuConfig::scaled(1);
    cfg.host_profile = true;
    let out = run(cfg);
    let host = out.host.expect("host_profile=true must deliver a profile");
    assert!(host.wall_nanos > 0, "wall clock must be measured");
    assert!(host.cycles > 0, "cycle count must be captured");
    // A streaming kernel exercises the SM front-end, the L1, the MSHRs,
    // the prefetch hook, the NoC, and the memory partition every run.
    for phase in [
        Phase::SmIssue,
        Phase::L1Lookup,
        Phase::Mshr,
        Phase::Prefetch,
        Phase::Noc,
        Phase::MemPartition,
    ] {
        let stat = host.get(phase);
        assert!(stat.calls > 0, "phase {phase} must record calls");
    }
    // With no trace sink attached the observability phase stays silent
    // apart from the per-cycle metrics hook (which only fires when a
    // metrics window is configured — scaled(1) leaves it off).
    assert!(
        host.phase_nanos_total() <= host.wall_nanos,
        "phases are disjoint so their sum cannot exceed wall time"
    );
    assert!(host.cycles_per_sec() > 0.0);
}

/// The architectural results must be bit-identical with and without
/// profiling: the observatory reads clocks, never simulated state.
#[test]
fn profiling_has_no_observer_effect_on_simulated_state() {
    let plain = run(GpuConfig::scaled(1));
    let mut cfg = GpuConfig::scaled(1);
    cfg.host_profile = true;
    let profiled = run(cfg);
    assert_eq!(plain.stats, profiled.stats, "every counter must match");
    assert_eq!(plain.stop, profiled.stop);
    assert_eq!(plain.lifecycle, profiled.lifecycle);
}

/// The sampling schedule is deterministic and the regions a step
/// enters depend only on simulated state, so two profiled runs of one
/// kernel report the same `calls`. The streaming kernel exercises every
/// phase; `observability` only when the build audits (no sink, no
/// metrics window).
#[test]
fn profile_call_counts_are_deterministic() {
    let mut cfg = GpuConfig::scaled(1);
    cfg.host_profile = true;
    let audits = cfg.audit_window.is_some();
    let a = run(cfg.clone()).host.expect("profile");
    let b = run(cfg).host.expect("profile");
    for phase in Phase::ALL {
        assert_eq!(a.get(phase).calls, b.get(phase).calls, "phase {phase}");
        let exercised = phase != Phase::Observability || audits;
        assert_eq!(a.get(phase).calls > 0, exercised, "phase {phase}");
    }
}

/// The baseline mechanism, except that every demand access it observes
/// burns 20 µs of host time: a stand-in for an expensive prefetcher.
struct SlowPrefetcher;

impl Prefetcher for SlowPrefetcher {
    fn name(&self) -> &str {
        "baseline"
    }

    fn on_demand_access(
        &mut self,
        _event: &AccessEvent,
        _ctx: &PrefetchContext,
        _out: &mut Vec<PrefetchRequest>,
    ) {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
    }
}

fn run_slow(cfg: GpuConfig) -> snake_sim::SimOutcome {
    run_kernel(cfg, streaming_kernel(4, 32), |_| Box::new(SlowPrefetcher)).unwrap()
}

/// Host time burned inside the prefetcher hook is charged to the
/// `prefetch` phase, and touches no simulated state.
#[test]
fn slow_prefetcher_inflates_prefetch_phase_only() {
    let mut cfg = GpuConfig::scaled(1);
    cfg.host_profile = true;
    let base = run(cfg.clone());
    let slow = run_slow(cfg);

    // Same simulated results...
    assert_eq!(base.stats, slow.stats, "every counter must match");

    // ...but far more host time charged to the prefetch phase. Each
    // access burns 20 µs, so even one sampled access dwarfs the real
    // work.
    let base_pf = base.host.unwrap().get(Phase::Prefetch).nanos;
    let slow_pf = slow.host.unwrap().get(Phase::Prefetch).nanos;
    assert!(
        slow_pf > base_pf.saturating_mul(2),
        "the slow hook must inflate the prefetch phase \
         (baseline {base_pf} ns, slow {slow_pf} ns)"
    );
}

/// A device suspended with `run_interruptible` and finished with `run`
/// reports the wall time of both segments. Its phase times carry over
/// between the calls, so a wall time covering only the last segment
/// would fall below their sum.
#[test]
fn wall_time_covers_every_run_segment() {
    let cycles = run(GpuConfig::scaled(1)).stats.cycles;
    let mut cfg = GpuConfig::scaled(1);
    cfg.host_profile = true;
    let mut gpu = Gpu::new(cfg, streaming_kernel(4, 32), |_| Box::new(SlowPrefetcher)).unwrap();
    assert!(
        gpu.run_interruptible(|c| c.0 >= cycles * 9 / 10).is_none(),
        "suspended before the end"
    );
    let out = gpu.run();
    assert_eq!(out.stats.cycles, cycles);
    let host = out.host.expect("host_profile=true must deliver a profile");
    assert!(
        host.phase_nanos_total() <= host.wall_nanos,
        "phases ({} ns) must fit in the wall time of both segments ({} ns)",
        host.phase_nanos_total(),
        host.wall_nanos
    );
}
