//! Cross-crate integration tests: workloads → simulator → prefetchers
//! → metrics, exercising the full reproduction pipeline.

use snake_repro::prelude::*;
use snake_repro::sim::json::Value;
use snake_repro::sim::{Checkpoint, StopReason};

fn small() -> WorkloadSize {
    WorkloadSize {
        warps_per_cta: 4,
        ctas: 4,
        iters: 24,
        seed: 0xC0FFEE,
    }
}

fn run(app: Benchmark, kind: PrefetcherKind) -> SimOutcome {
    let mut cfg = GpuConfig::scaled(1);
    // Every integration run doubles as an invariant audit (conservation
    // laws checked every window; violations panic the test).
    cfg.audit_window = Some(64);
    let warps = cfg.max_warps_per_sm;
    run_kernel(cfg, app.build(&small()), |_| kind.build(warps)).expect("valid config")
}

#[test]
fn every_app_completes_under_baseline_and_snake() {
    for &app in Benchmark::all() {
        for kind in [PrefetcherKind::Baseline, PrefetcherKind::Snake] {
            let out = run(app, kind);
            assert_eq!(out.stop, StopReason::Completed, "{app}/{kind}");
            assert!(out.stats.instructions > 0, "{app}/{kind}");
        }
    }
}

#[test]
fn every_mechanism_completes_on_a_chain_app() {
    for &kind in PrefetcherKind::all() {
        let out = run(Benchmark::Lps, kind);
        assert_eq!(out.stop, StopReason::Completed, "{kind}");
    }
    let out = run(Benchmark::Lps, PrefetcherKind::IsolatedSnake);
    assert_eq!(out.stop, StopReason::Completed);
}

#[test]
fn simulation_is_deterministic() {
    for kind in [PrefetcherKind::Baseline, PrefetcherKind::Snake] {
        let a = run(Benchmark::Srad, kind);
        let b = run(Benchmark::Srad, kind);
        assert_eq!(a.stats, b.stats, "{kind} must be deterministic");
    }
}

#[test]
fn snake_improves_chain_heavy_apps() {
    // (Hotspot needs the standard scale for training to amortize;
    // the figure harness covers it.)
    for app in [Benchmark::Lps, Benchmark::Mrq, Benchmark::Cp] {
        let base = run(app, PrefetcherKind::Baseline);
        let snake = run(app, PrefetcherKind::Snake);
        let speedup = snake.stats.ipc() / base.stats.ipc();
        assert!(speedup > 1.05, "{app}: speedup {speedup:.3}");
        assert!(
            snake.stats.coverage() > 0.4,
            "{app}: coverage {}",
            snake.stats.coverage()
        );
    }
}

#[test]
fn no_mechanism_helps_pointer_chasing() {
    let base = run(Benchmark::Mum, PrefetcherKind::Baseline);
    for kind in [
        PrefetcherKind::Snake,
        PrefetcherKind::Mta,
        PrefetcherKind::Cta,
    ] {
        let out = run(Benchmark::Mum, kind);
        let speedup = out.stats.ipc() / base.stats.ipc();
        assert!((0.9..1.1).contains(&speedup), "{kind} on MUM: {speedup:.3}");
        assert!(out.stats.coverage() < 0.1, "{kind} MUM coverage");
    }
}

#[test]
fn prefetch_accounting_identities_hold() {
    for &app in Benchmark::all() {
        let out = run(app, PrefetcherKind::Snake);
        assert_eq!(out.stop, StopReason::Completed);
        let s = &out.stats;
        let p = &s.prefetch;
        // Every demand transaction is classified exactly once.
        let classified = s.l1.hits
            + s.l1.hits_on_prefetch
            + s.l1.hits_reserved
            + s.l1.merges_with_prefetch
            + s.l1.misses;
        assert_eq!(classified, s.demand_loads, "{app}: demand classification");
        // Every issued prefetch either filled as a pure prefetch or was
        // converted by a merging demand (counted late exactly once).
        assert_eq!(p.issued, p.fills + p.late, "{app}: prefetch fate");
        // Funnel ordering.
        assert!(p.useful <= p.fills, "{app}");
        assert!(
            p.issued + p.redundant + p.rejected == p.requested || p.requested == 0,
            "{app}"
        );
        // Rates are probabilities.
        for v in [
            s.coverage(),
            s.timely_coverage(),
            s.l1.hit_rate(),
            s.l1.reservation_fail_rate(),
            s.memory_stall_fraction(),
        ] {
            assert!((0.0..=1.0).contains(&v), "{app}: {v}");
        }
        assert!(s.timely_coverage() <= s.coverage() + 1e-12, "{app}");
    }
}

#[test]
fn energy_tracks_runtime_for_winning_apps() {
    let cfg = GpuConfig::scaled(1);
    let em = EnergyModel::volta_like();
    let base = run(Benchmark::Lps, PrefetcherKind::Baseline);
    let snake = run(Benchmark::Lps, PrefetcherKind::Snake);
    let be = em.evaluate(&base.stats, &cfg, false).total_j();
    let se = em.evaluate(&snake.stats, &cfg, true).total_j();
    assert!(se < be, "snake energy {se} < baseline {be}");
}

#[test]
fn analysis_and_timing_agree_on_predictability_ordering() {
    // Apps the trace analysis calls highly chain-predictable should
    // show high Snake coverage in the timing simulation, and vice
    // versa for MUM.
    let lps = snake_repro::core::analysis::predictability(&Benchmark::Lps.build(&small()));
    let mum = snake_repro::core::analysis::predictability(&Benchmark::Mum.build(&small()));
    assert!(lps.chains > 0.6);
    assert!(mum.chains < 0.1);
    let lps_cov = run(Benchmark::Lps, PrefetcherKind::Snake).stats.coverage();
    let mum_cov = run(Benchmark::Mum, PrefetcherKind::Snake).stats.coverage();
    assert!(lps_cov > mum_cov + 0.3);
}

#[test]
fn isolated_snake_does_not_pollute_the_l1() {
    // Isolated placement serves prefetch hits from a side buffer; the
    // L1 keeps at least the baseline's demand hit behaviour.
    let out = run(Benchmark::Cp, PrefetcherKind::IsolatedSnake);
    assert_eq!(out.stop, StopReason::Completed);
    assert!(out.stats.l1.hit_rate() > 0.0);
}

#[test]
fn volta_config_also_runs() {
    // The full-scale Table 1 configuration is heavy; a tiny kernel
    // suffices to validate it end to end.
    let mut cfg = GpuConfig::volta_v100();
    cfg.num_sms = 4; // keep the test fast
    cfg.audit_window = Some(64);
    let size = WorkloadSize::tiny();
    let warps = cfg.max_warps_per_sm;
    let out = run_kernel(cfg, Benchmark::Lps.build(&size), |_| {
        PrefetcherKind::Snake.build(warps)
    })
    .expect("volta config valid");
    assert_eq!(out.stop, StopReason::Completed);
}

/// The state value at `/`-joined `path` (object keys and array
/// indices).
fn state_at<'a>(v: &'a mut Value, path: &str) -> &'a mut Value {
    path.split('/').fold(v, |v, step| match v {
        Value::Obj(fields) => {
            let at = fields.iter().position(|(k, _)| k == step);
            &mut fields[at.unwrap_or_else(|| panic!("no field {step}"))].1
        }
        Value::Arr(items) => &mut items[step.parse::<usize>().expect("an index")],
        _ => panic!("{step} is inside a scalar"),
    })
}

/// LIB under `kind` on two SMs, suspended at cycle 1000.
fn lib_at_1000(cfg: GpuConfig, kind: PrefetcherKind) -> Gpu {
    let warps = cfg.max_warps_per_sm;
    let mut gpu =
        Gpu::new(cfg, Benchmark::Lib.build(&small()), |_| kind.build(warps)).expect("valid config");
    assert!(gpu.run_interruptible(|c| c.0 >= 1000).is_none());
    gpu
}

/// A state corrupted deep inside one component fails to restore with
/// that field's path. The checkpoint is built directly, so its
/// checksum does not catch the corruption first.
#[test]
fn restore_names_the_path_of_a_corrupt_field() {
    let cfg = GpuConfig::scaled(2);
    let gpu = lib_at_1000(cfg.clone(), PrefetcherKind::Snake);
    let mut state = gpu.checkpoint().state;
    let origin = state_at(&mut state, "sms/1/l1/mshr/entries/3/origin");
    assert!(origin.as_u64().is_some_and(|code| code < 2));
    *origin = Value::u64(2);
    let corrupt = Checkpoint {
        fingerprint: gpu.fingerprint(),
        state,
    };
    let mut fresh = Gpu::new(cfg, Benchmark::Lib.build(&small()), |_| {
        PrefetcherKind::Snake.build(16)
    })
    .expect("valid config");
    let err = fresh.restore(&corrupt).unwrap_err();
    assert_eq!(
        err.to_string(),
        "malformed checkpoint: sms/1/l1/mshr/entries/3/origin: bad MissOrigin code"
    );
}

/// A state restores only onto a device whose configuration holds the
/// same components: an optional one (watchdog, metrics collector,
/// isolated prefetch buffer) present exactly when it is, and as many
/// SMs.
#[test]
fn restore_rejects_components_the_configuration_lacks() {
    let rejection = |from: &Gpu, onto: &mut Gpu| {
        let ckpt = Checkpoint {
            fingerprint: onto.fingerprint(),
            state: from.checkpoint().state,
        };
        onto.restore(&ckpt).unwrap_err().to_string()
    };
    let snake = PrefetcherKind::Snake;
    let plain = lib_at_1000(GpuConfig::scaled(2), snake);
    let mut unwatched = GpuConfig::scaled(2);
    unwatched.watchdog_cycles = None;
    assert_eq!(
        rejection(&plain, &mut lib_at_1000(unwatched, snake)),
        "malformed checkpoint: watchdog: present in the checkpoint, \
         absent from this configuration"
    );
    let mut sampled = GpuConfig::scaled(2);
    sampled.metrics_window = Some(128);
    assert_eq!(
        rejection(&plain, &mut lib_at_1000(sampled, snake)),
        "malformed checkpoint: metrics: absent from the checkpoint, \
         present in this configuration"
    );
    let isolated = lib_at_1000(GpuConfig::scaled(2), PrefetcherKind::IsolatedSnake);
    assert_eq!(
        rejection(
            &plain,
            &mut lib_at_1000(GpuConfig::scaled(2), PrefetcherKind::IsolatedSnake)
        ),
        "malformed checkpoint: sms/0/l1/isolated: absent from the checkpoint, \
         present in this configuration"
    );
    assert_eq!(
        rejection(&isolated, &mut lib_at_1000(GpuConfig::scaled(2), snake)),
        "malformed checkpoint: sms/0/l1/isolated: present in the checkpoint, \
         absent from this configuration"
    );
    assert_eq!(
        rejection(&plain, &mut lib_at_1000(GpuConfig::scaled(4), snake)),
        "malformed checkpoint: sms: checkpoint has 2 entries, this configuration has 4"
    );
}
