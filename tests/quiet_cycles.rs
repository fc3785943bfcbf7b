//! The run loop skips device-quiet stretches in bulk (`Gpu::quiet_until`);
//! `Gpu::step` advances exactly one cycle and is the reference. These
//! tests hold the skipping loop to the stepped device under everything
//! that bounds a quiet stretch: brownouts, dropped and delayed fills
//! with timeout recovery, audit and metrics windows, the watchdog, a
//! cycle budget, checkpoint cadence and suspension.

use snake_repro::prelude::*;
use snake_repro::sim::obs::{SharedVecSink, SimEvent};
use snake_repro::sim::{Brownout, Checkpoint, Cycle, FaultPlan, Recovery, StopReason};

fn size() -> WorkloadSize {
    WorkloadSize {
        warps_per_cta: 4,
        ctas: 4,
        iters: 24,
        seed: 0xC0FFEE,
    }
}

/// A memory-bound device under every horizon the skip must respect.
fn faulty_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::scaled(2);
    cfg.fault = FaultPlan {
        seed: 7,
        drop_response: 0.02,
        delay_response: 0.05,
        delay_cycles: 300,
        brownout: Some(Brownout {
            period: 700,
            active: 150,
            scale: 0.5,
        }),
        recovery: Some(Recovery {
            timeout: 600,
            max_retries: 32,
        }),
        ..FaultPlan::default()
    };
    cfg.audit_window = Some(64);
    cfg.metrics_window = Some(250);
    cfg.watchdog_cycles = Some(3_000);
    cfg
}

fn build(cfg: &GpuConfig, kind: PrefetcherKind) -> Gpu {
    let warps = cfg.max_warps_per_sm;
    Gpu::new(cfg.clone(), Benchmark::Lib.build(&size()), |_| {
        kind.build(warps)
    })
    .expect("valid config")
}

fn traced(mut gpu: Gpu) -> (Gpu, SharedVecSink) {
    let sink = SharedVecSink::new();
    gpu.attach_sink(Box::new(sink.clone()));
    (gpu, sink)
}

fn checkpoint_text(gpu: &Gpu) -> String {
    gpu.checkpoint().to_json().to_string()
}

#[test]
fn run_matches_stepping_every_cycle_under_faults_and_windows() {
    for kind in [PrefetcherKind::Baseline, PrefetcherKind::Snake] {
        let mut cfg = faulty_cfg();
        let natural = build(&cfg, kind).run().stats.cycles;
        cfg.cycle_budget = Some(Cycle(natural * 2 / 3));

        let (mut stepped, stepped_events) = traced(build(&cfg, kind));
        while stepped.step() {}
        cfg.host_profile = true;
        let (mut skipping, skipping_events) = traced(build(&cfg, kind));
        let out = skipping.run();

        assert!(matches!(out.stop, StopReason::BudgetExceeded { .. }));
        assert_eq!(out.stats, stepped.collect_stats(), "{kind}");
        assert_eq!(out.lifecycle, stepped.prefetch_lifecycle(), "{kind}");
        let f = &out.stats.fault;
        assert!(
            f.dropped_responses > 0
                && f.delayed_responses > 0
                && f.reissued_requests > 0
                && f.brownout_cycles > 0,
            "{kind}: the fault plan must fire: {f:?}"
        );
        let host = out.host.expect("profiled");
        assert!(host.skipped_cycles > 0, "{kind}: nothing was skipped");
        assert!(host.replayed_ticks > 0 && host.replayed_ticks <= host.sm_ticks);

        // The same event stream, then the run loop's terminal event.
        let (mut a, b) = (skipping_events.snapshot(), stepped_events.snapshot());
        let terminal = a.pop().expect("terminal event");
        assert!(matches!(terminal.data, SimEvent::Terminal { .. }));
        assert!(a == b, "{kind}: trace events differ");
    }
}

#[test]
fn watchdog_trips_on_the_stepped_cycle() {
    let mut cfg = GpuConfig::scaled(2);
    cfg.fault.drop_response = 1.0;
    cfg.watchdog_cycles = Some(700);
    let mut stepped = build(&cfg, PrefetcherKind::Baseline);
    while stepped.step() {}
    let out = build(&cfg, PrefetcherKind::Baseline).run();
    let StopReason::Deadlock(report) = out.stop else {
        panic!("dropped fills must deadlock, got {:?}", out.stop);
    };
    assert_eq!(Some(&*report), stepped.deadlock_info());
    assert_eq!(out.stats, stepped.collect_stats());
}

#[test]
fn suspension_and_checkpoints_inside_skipped_stretches_match_stepping() {
    const EVERY: u64 = 97;
    let cfg = faulty_cfg();
    let kind = PrefetcherKind::Snake;

    // Step the reference, keeping its state at every checkpoint-cadence
    // cycle and at a few cycles strictly inside a stretch the run loop
    // skips: `quiet_until() > c + 1` at cycle `c` means the loop jumps
    // from `c` past `c + 1`.
    let mut stepped = build(&cfg, kind);
    let mut at_cadence = Vec::new();
    let mut inside: Vec<(u64, String)> = Vec::new();
    let mut capture = false;
    while stepped.step() {
        let c = stepped.cycle().0;
        if c.is_multiple_of(EVERY) {
            at_cadence.push((c, checkpoint_text(&stepped)));
        }
        if capture {
            inside.push((c, checkpoint_text(&stepped)));
            capture = false;
        } else if inside.last().is_none_or(|&(k, _)| c > k + 400) {
            capture = stepped.quiet_until().0 > c + 1;
        }
    }
    assert!(inside.len() >= 3, "too few skipped stretches: {inside:?}");

    for (k, want) in &inside {
        let mut gpu = build(&cfg, kind);
        assert!(gpu.run_interruptible(|c| c.0 == *k).is_none());
        assert_eq!(gpu.cycle().0, *k);
        assert!(checkpoint_text(&gpu) == *want, "state differs at cycle {k}");
    }

    // A suspended device resumes to the uninterrupted outcome.
    let (k, _) = inside[inside.len() / 2];
    let mut resumed = build(&cfg, kind);
    assert!(resumed.run_interruptible(|c| c.0 == k).is_none());
    assert_eq!(resumed.run(), build(&cfg, kind).run());

    // Checkpoints written on a cadence hold the stepped device's state.
    let dir = std::env::temp_dir().join(format!("snake-quiet-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("cadence.ckpt");
    let mut written = Vec::new();
    build(&cfg, kind)
        .run_serviced(
            Some((&path, EVERY)),
            |cycle, _| {
                let ckpt = Checkpoint::load(&path).expect("written checkpoint");
                written.push((cycle, ckpt.to_json().to_string()));
            },
            |_| false,
        )
        .expect("checkpoint I/O")
        .expect("never suspended");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    assert_eq!(written.len(), at_cadence.len());
    for ((c, got), (want_c, want)) in written.iter().zip(&at_cadence) {
        assert_eq!(c, want_c);
        assert!(got == want, "checkpoint at cycle {c} differs");
    }
}
