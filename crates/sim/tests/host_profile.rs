//! End-to-end tests of the host performance observatory: profiling is
//! off by default, populates every exercised phase when on, and never
//! perturbs simulated behavior (no observer effect on architectural
//! state).

use snake_sim::{
    run_kernel, CtaId, Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, Phase, SimStats,
    WarpTrace,
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
    let a: &SimStats = &plain.stats;
    let b: &SimStats = &profiled.stats;
    assert_eq!(a.cycles, b.cycles, "cycle count must not change");
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.l1.hits, b.l1.hits);
    assert_eq!(a.l1.misses, b.l1.misses);
    assert_eq!(a.l2_hits, b.l2_hits);
    assert_eq!(a.l2_misses, b.l2_misses);
    assert_eq!(a.noc_bytes_down, b.noc_bytes_down);
    assert_eq!(plain.stop, profiled.stop);
}

/// The `perf_inject_stall_ns` hook burns host time inside the
/// mem-partition phase without touching simulated behavior — the
/// regression gate's integration tests rely on both halves.
#[test]
fn inject_stall_inflates_mem_partition_phase_only() {
    let mut base_cfg = GpuConfig::scaled(1);
    base_cfg.host_profile = true;
    let base = run(base_cfg);

    let mut slow_cfg = GpuConfig::scaled(1);
    slow_cfg.host_profile = true;
    slow_cfg.perf_inject_stall_ns = 20_000;
    let slow = run(slow_cfg);

    // Same simulated results...
    assert_eq!(base.stats.cycles, slow.stats.cycles);
    assert_eq!(base.stats.l1.misses, slow.stats.l1.misses);

    // ...but far more host time charged to the partition phase. Each
    // tick burns >=20us, so even one tick dwarfs the real work.
    let base_mem = base.host.unwrap().get(Phase::MemPartition).nanos;
    let slow_mem = slow.host.unwrap().get(Phase::MemPartition).nanos;
    assert!(
        slow_mem > base_mem.saturating_mul(2),
        "injected stall must inflate the mem_partition phase \
         (base {base_mem} ns, injected {slow_mem} ns)"
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
    cfg.perf_inject_stall_ns = 20_000;
    let mut gpu = Gpu::new(cfg, streaming_kernel(4, 32), |_| Box::new(NullPrefetcher)).unwrap();
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
