//! End-to-end observability tests: the cycle-stamped trace stream, the
//! golden Chrome trace export, windowed metrics under throttling, and
//! prefetch-lifecycle attribution.

use std::collections::BTreeSet;

use snake_repro::prelude::*;
use snake_repro::sim::obs::{
    chrome_trace, FaultKind, SharedVecSink, SimEvent, TerminalKind, TraceEvent,
};
use snake_repro::sim::snapshot::Checkpoint;
use snake_repro::sim::{
    Brownout, CacheGeometry, Cycle, FaultPlan, Recovery, StopReason, TelemetryRecord, TelemetryRing,
};

/// Every [`SimEvent`] variant, by its stable exporter name. The golden
/// run must produce at least one of each.
const ALL_EVENTS: &[&str] = &[
    "WarpIssue",
    "WarpStall",
    "WarpUnstall",
    "L1Access",
    "MshrAllocate",
    "MshrMerge",
    "MshrFill",
    "NocEnqueue",
    "NocDequeue",
    "ThrottleHalt",
    "ThrottleResume",
    "PrefetchIssued",
    "PrefetchDropped",
    "PrefetchFilled",
    "PrefetchFirstUse",
    "PrefetchEvictedUnused",
    "ChainWalkStart",
    "ChainWalkStep",
    "ChainWalkStop",
    "FaultInjected",
    "Brownout",
    "CheckpointSaved",
    "Restored",
    "Terminal",
];

/// The golden configuration: a 1-SM GPU with a starved interconnect
/// (so the bandwidth throttle engages and releases), a tiny L1 (so
/// some prefetches die unused), every fault kind injected at a low
/// recoverable rate, and periodic brownouts — the one deterministic
/// run that exercises every event variant.
fn golden_cfg() -> GpuConfig {
    let mut cfg = GpuConfig::scaled(1);
    cfg.noc_bytes_per_cycle = 16;
    cfg.l1 = CacheGeometry::new(4 * 1024, 128, 8);
    cfg.fault = FaultPlan {
        seed: 5,
        drop_response: 0.02,
        duplicate_response: 0.02,
        delay_response: 0.05,
        delay_cycles: 16,
        brownout: Some(Brownout {
            period: 300,
            active: 60,
            scale: 0.5,
        }),
        recovery: Some(Recovery {
            timeout: 600,
            max_retries: 8,
        }),
    };
    cfg
}

fn traced_run(
    cfg: GpuConfig,
    kernel: KernelTrace,
    kind: PrefetcherKind,
) -> (SimOutcome, Vec<TraceEvent>) {
    let warps = cfg.max_warps_per_sm;
    let mut gpu = Gpu::new(cfg, kernel, |_| kind.build(warps)).expect("valid config");
    let sink = SharedVecSink::new();
    gpu.attach_sink(Box::new(sink.clone()));
    let out = gpu.run();
    (out, sink.snapshot())
}

/// The golden run, extended with the snapshot layer: a checkpointing
/// pass (emitting `CheckpointSaved` at every interval) followed by a
/// restore of the final checkpoint on a fresh device (emitting
/// `Restored` at the splice point), both feeding one shared sink. The
/// combined stream exercises all 24 event variants deterministically.
fn golden_traced_run(tag: &str) -> (SimOutcome, Vec<TraceEvent>) {
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let cfg = golden_cfg();
    let warps = cfg.max_warps_per_sm;
    let dir = std::env::temp_dir().join(format!("snake-golden-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt_path = dir.join("golden.ckpt");

    let sink = SharedVecSink::new();
    let mut gpu = Gpu::new(cfg.clone(), kernel.clone(), |_| {
        PrefetcherKind::Snake.build(warps)
    })
    .expect("valid config");
    gpu.attach_sink(Box::new(sink.clone()));
    let out = gpu
        .run_serviced(Some((&ckpt_path, 1_000)), |_, _| {}, |_| false)
        .expect("checkpointing run")
        .expect("never suspended");

    // Restore leg: attach the sink *before* restoring so the Restored
    // splice event is captured, then finish the remaining cycles.
    let mut resumed =
        Gpu::new(cfg, kernel, |_| PrefetcherKind::Snake.build(warps)).expect("valid config");
    resumed.attach_sink(Box::new(sink.clone()));
    let ckpt = Checkpoint::load(&ckpt_path).expect("checkpoint exists");
    resumed.restore(&ckpt).expect("restore");
    let tail = resumed.run();
    assert_eq!(tail.stop, StopReason::Completed);

    std::fs::remove_dir_all(&dir).expect("cleanup");
    (out, sink.snapshot())
}

#[test]
fn golden_chrome_trace_is_byte_stable_and_complete() {
    let (out, events) = golden_traced_run("a");
    assert_eq!(out.stop, StopReason::Completed);

    // One event of every variant — including the snapshot layer's
    // CheckpointSaved/Restored pair.
    let seen: BTreeSet<&str> = events.iter().map(|e| e.data.name()).collect();
    let missing: Vec<&&str> = ALL_EVENTS.iter().filter(|n| !seen.contains(**n)).collect();
    assert!(missing.is_empty(), "missing event kinds: {missing:?}");

    // The terminal event is last and says the run completed (the
    // restore leg finishes the same kernel, so there are two).
    match &events.last().expect("nonempty trace").data {
        SimEvent::Terminal { kind, .. } => assert_eq!(*kind, TerminalKind::Completed),
        other => panic!("last event must be Terminal, got {other:?}"),
    }
    let terminals = events
        .iter()
        .filter(|e| e.data.name() == "Terminal")
        .count();
    assert_eq!(terminals, 2, "checkpointing pass + restored tail");

    // Byte-stable across two identical runs.
    let json = chrome_trace(&events);
    let (_, again) = golden_traced_run("b");
    assert!(
        json == chrome_trace(&again),
        "two identical runs produced different traces"
    );

    // ... and against the checked-in golden file.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/chrome_trace.json"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing; re-record with UPDATE_GOLDEN=1");
    assert!(
        json == golden,
        "chrome trace diverged from {path} ({} vs {} bytes); \
         re-record with UPDATE_GOLDEN=1 if the change is intended",
        json.len(),
        golden.len()
    );
}

#[test]
fn windowed_metrics_capture_throttle_transitions() {
    // A roomy L1 (no space-trigger overruns) but a lean interconnect:
    // prefetch + demand traffic pushes utilization past the 70% halt
    // threshold, and with prefetching halted demand alone falls below
    // the 50% release threshold — the bandwidth hysteresis oscillates.
    let mut cfg = GpuConfig::scaled(1);
    cfg.noc_bytes_per_cycle = 16;
    cfg.metrics_window = Some(200);
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let (out, events) = traced_run(cfg, kernel, PrefetcherKind::Snake);

    // The trace carries the hysteresis thresholds: some halt fired at
    // ≥70% utilization and some resume at ≤50% (space-triggered halts
    // may transition at other utilizations, so existence, not
    // universality).
    let halt_bw: Vec<f64> = events
        .iter()
        .filter_map(|e| match e.data {
            SimEvent::ThrottleHalt { bw_utilization, .. } => Some(bw_utilization),
            _ => None,
        })
        .collect();
    let resume_bw: Vec<f64> = events
        .iter()
        .filter_map(|e| match e.data {
            SimEvent::ThrottleResume { bw_utilization, .. } => Some(bw_utilization),
            _ => None,
        })
        .collect();
    assert!(
        halt_bw.iter().any(|&bw| bw >= 0.70),
        "no bandwidth-triggered halt at the 70% threshold: {halt_bw:?}"
    );
    assert!(
        resume_bw.iter().any(|&bw| bw <= 0.50),
        "no resume at the 50% threshold: {resume_bw:?}"
    );

    // The windowed series shows both throttled and free-running
    // windows, and NoC utilization stays a valid fraction throughout.
    let series = out.series.expect("metrics window was configured");
    assert!(!series.samples.is_empty());
    assert!(series.samples.iter().any(|s| s.throttled_sms > 0));
    assert!(series.samples.iter().any(|s| s.throttled_sms == 0));
    for s in &series.samples {
        assert!(
            (0.0..=1.0).contains(&s.noc_utilization),
            "window at cycle {} has utilization {}",
            s.cycle,
            s.noc_utilization
        );
    }
    // The CSV export covers every window.
    let csv = series.to_csv();
    assert_eq!(csv.lines().count(), series.samples.len() + 1);
}

/// Budget truncation is visible at every observability layer: the
/// structured stop reason, the terminal trace event, and the windowed
/// metrics exports (CSV trailer + timeline banner).
#[test]
fn budget_truncation_is_observable_end_to_end() {
    let mut cfg = GpuConfig::scaled(1);
    cfg.cycle_budget = Some(Cycle(400));
    cfg.metrics_window = Some(100);
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let (out, events) = traced_run(cfg, kernel, PrefetcherKind::Snake);

    assert_eq!(out.stop, StopReason::BudgetExceeded { budget: 400 });
    assert!(out.stats.cycles <= 400);

    match &events.last().expect("nonempty trace").data {
        SimEvent::Terminal { kind, detail } => {
            assert_eq!(*kind, TerminalKind::BudgetExceeded);
            assert!(detail.contains("400"), "detail names the budget: {detail}");
        }
        other => panic!("last event must be Terminal, got {other:?}"),
    }

    let series = out.series.expect("metrics window was configured");
    assert_eq!(series.stop.as_deref(), Some("budget_exceeded"));
    assert!(
        series.to_csv().ends_with("# stop=budget_exceeded\n"),
        "CSV must carry the truncation marker"
    );
    assert!(
        series
            .ascii_timeline()
            .contains("truncated: budget_exceeded"),
        "timeline banner must flag the truncation"
    );
}

#[test]
fn deadlock_is_reported_as_terminal_trace_event() {
    let mut cfg = GpuConfig::scaled(1);
    cfg.fault = FaultPlan {
        seed: 7,
        drop_response: 1.0,
        ..FaultPlan::default()
    };
    cfg.watchdog_cycles = Some(1_000);
    let kernel = Benchmark::Srad.build(&WorkloadSize::tiny());
    let (out, events) = traced_run(cfg, kernel, PrefetcherKind::Baseline);
    assert!(matches!(out.stop, StopReason::Deadlock(_)));

    // Every dropped fill is in the stream as a cycle-stamped fault.
    let drops = events
        .iter()
        .filter(|e| {
            matches!(
                e.data,
                SimEvent::FaultInjected {
                    kind: FaultKind::Drop,
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(drops, out.stats.fault.dropped_responses);

    // The watchdog's census rides in the terminal event.
    match &events.last().expect("nonempty trace").data {
        SimEvent::Terminal { kind, detail } => {
            assert_eq!(*kind, TerminalKind::Deadlock);
            assert!(detail.contains("deadlock at cycle"), "detail: {detail}");
        }
        other => panic!("last event must be Terminal, got {other:?}"),
    }
}

#[test]
fn lifecycle_histograms_match_the_event_stream() {
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let (out, events) = traced_run(GpuConfig::scaled(1), kernel, PrefetcherKind::Snake);
    assert_eq!(out.stop, StopReason::Completed);

    let count = |name: &str| events.iter().filter(|e| e.data.name() == name).count() as u64;
    let lc = &out.lifecycle;
    assert!(lc.issue_to_fill.count() > 0, "no prefetch fills attributed");
    assert_eq!(lc.issue_to_fill.count(), count("PrefetchFilled"));
    assert_eq!(lc.fill_to_first_use.count(), count("PrefetchFirstUse"));
    assert_eq!(lc.lifetime_unused.count(), count("PrefetchEvictedUnused"));
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let cfg = golden_cfg();
    let warps = cfg.max_warps_per_sm;
    let mut silent = Gpu::new(cfg.clone(), kernel.clone(), |_| {
        PrefetcherKind::Snake.build(warps)
    })
    .expect("valid config");
    let quiet = silent.run();
    let (traced, _) = traced_run(cfg, kernel, PrefetcherKind::Snake);
    assert_eq!(quiet.stats, traced.stats, "observer effect detected");
    assert_eq!(quiet.lifecycle, traced.lifecycle);
}

/// Builds the telemetry-test device: golden config plus a metrics
/// window, so the ring carries both window rows and trace events.
fn telemetry_gpu(ring: Option<(&TelemetryRing, bool)>) -> Gpu {
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let mut cfg = golden_cfg();
    cfg.metrics_window = Some(200);
    let warps = cfg.max_warps_per_sm;
    let mut gpu =
        Gpu::new(cfg, kernel, |_| PrefetcherKind::Snake.build(warps)).expect("valid config");
    if let Some((ring, events)) = ring {
        gpu.attach_telemetry(ring, events);
    }
    gpu
}

/// The telemetry plane's hard guarantee: with zero subscribers the
/// ring's produce path never constructs a record, and the *entire*
/// outcome — stats, lifecycle, windowed series, stop reason — is
/// bit-identical to a run without any ring attached.
#[test]
fn telemetry_with_zero_subscribers_has_no_observer_effect() {
    let quiet = telemetry_gpu(None).run();

    let ring = TelemetryRing::new(1024);
    let ringed = telemetry_gpu(Some((&ring, true))).run();

    assert_eq!(quiet, ringed, "observer effect detected");
    assert!(
        ring.produced() > 0,
        "the ring must still count every record it skipped"
    );
    assert_eq!(
        ring.buffered(),
        0,
        "zero subscribers must mean zero stored records"
    );
}

/// The stall-taxonomy counters must stay free of observer effects:
/// a bare run (no trace sink, no metrics window, no telemetry ring)
/// and a fully instrumented run of the same device carry a
/// bit-identical stall breakdown, and the [`MechanismReport`] rows
/// rendered from the two outcomes — taxonomy columns included — are
/// byte-identical.
#[test]
fn stall_taxonomy_report_bytes_are_observer_independent() {
    let kernel = Benchmark::Lps.build(&WorkloadSize::tiny());
    let cfg = golden_cfg();
    let warps = cfg.max_warps_per_sm;
    let energy = EnergyModel::default();
    let report = |out: &SimOutcome, cfg: &GpuConfig| {
        MechanismReport::from_outcome("snake", "lps", out, cfg, &energy, true)
            .to_json()
            .to_string()
    };

    let bare = Gpu::new(cfg.clone(), kernel.clone(), |_| {
        PrefetcherKind::Snake.build(warps)
    })
    .expect("valid config")
    .run();

    let mut watched_cfg = cfg.clone();
    watched_cfg.metrics_window = Some(200);
    let ring = TelemetryRing::new(1 << 20);
    let _sub = ring.subscribe();
    let sink = SharedVecSink::new();
    let mut gpu = Gpu::new(watched_cfg.clone(), kernel, |_| {
        PrefetcherKind::Snake.build(warps)
    })
    .expect("valid config");
    gpu.attach_sink(Box::new(sink.clone()));
    gpu.attach_telemetry(&ring, true);
    let watched = gpu.run();

    assert_eq!(
        bare.stats.stall, watched.stats.stall,
        "observer effect on the stall breakdown"
    );
    assert!(
        bare.stats.stall.is_exact(),
        "buckets must partition scheduler cycles"
    );
    assert_eq!(
        report(&bare, &cfg),
        report(&watched, &watched_cfg),
        "report bytes must not depend on attached observers"
    );
}

/// A subscribed ring delivers exactly the windowed series the outcome
/// reports, cycle-stamped and in order — and subscribing still does
/// not perturb the simulation.
#[test]
fn subscribed_ring_carries_the_exact_window_series() {
    let quiet = telemetry_gpu(None).run();

    let ring = TelemetryRing::new(1 << 20);
    let mut sub = ring.subscribe();
    let ringed = telemetry_gpu(Some((&ring, false))).run();
    assert_eq!(quiet, ringed, "observer effect detected");

    let drained = sub.drain();
    assert_eq!(drained.dropped, 0, "capacity covers the whole run");
    let windows: Vec<_> = drained
        .records
        .iter()
        .map(|r| match r {
            TelemetryRecord::Window(s) => *s,
            TelemetryRecord::Event(e) => panic!("events were not requested, got {e:?}"),
        })
        .collect();
    let series = ringed.series.expect("metrics window was configured");
    assert_eq!(windows, series.samples, "ring must mirror the series");
    assert!(
        windows.windows(2).all(|w| w[0].cycle < w[1].cycle),
        "window cycles must be strictly increasing"
    );
}
