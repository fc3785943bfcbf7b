//! End-to-end tests for the sweep supervisor: interrupt/resume
//! byte-identity, panic/deadlock quarantine with unharmed siblings,
//! retry schedules, and manifest hygiene.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use snake_bench::runner::JobRun;
use snake_bench::supervise::{
    self, campaign, CrashKind, ExecError, JobRecord, JobSpec, SweepConfig, SweepError,
    EXIT_INTERRUPTED, EXIT_QUARANTINE,
};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::{Cycle, SimError};
use snake_workloads::Benchmark;

fn tmp_manifest(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "snake-supervise-{}-{name}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// A fast, quiet supervision policy for tests.
fn test_cfg() -> SweepConfig {
    SweepConfig {
        max_attempts: 2,
        backoff_base_ms: 1,
        backoff_cap_ms: 2,
        workers: 2,
        ..SweepConfig::default()
    }
}

/// Satellite (c) / acceptance: a sweep interrupted mid-way and resumed
/// from its manifest renders byte-identically to an uninterrupted run.
#[test]
fn interrupted_then_resumed_sweep_is_byte_identical() {
    let h = Harness::quick();
    let jobs = campaign(
        &[Benchmark::Lps, Benchmark::Cp],
        &[PrefetcherKind::Baseline, PrefetcherKind::Snake],
    );
    let cfg = test_cfg();

    let full_path = tmp_manifest("full");
    let full = supervise::run_campaign(&h, &jobs, &cfg, Some(&full_path), false).unwrap();
    assert_eq!(full.exit_code(), 0, "clean sweep exits 0");
    assert_eq!(full.counts(), (4, 0, 0, 0));
    let reference = full.render(false);

    // "Kill" the sweep after two jobs: --stop-after is the
    // deterministic stand-in for an interrupt.
    let part_path = tmp_manifest("part");
    let interrupted_cfg = SweepConfig {
        stop_after: Some(2),
        ..test_cfg()
    };
    let part =
        supervise::run_campaign(&h, &jobs, &interrupted_cfg, Some(&part_path), false).unwrap();
    assert_eq!(part.exit_code(), EXIT_INTERRUPTED);
    assert!(part.interrupted);
    assert_eq!(part.counts(), (2, 0, 2, 0), "two done, two skipped");

    // Resume from the manifest: the finished jobs replay from their
    // records, the skipped ones run now.
    let resumed = supervise::run_campaign(&h, &jobs, &cfg, Some(&part_path), true).unwrap();
    assert_eq!(resumed.exit_code(), 0);
    assert_eq!(resumed.counts(), (4, 0, 0, 0));
    assert_eq!(
        resumed.render(false),
        reference,
        "resumed report must be byte-identical to the uninterrupted run"
    );
    assert_eq!(resumed.render(true), full.render(true), "markdown too");

    std::fs::remove_file(&full_path).unwrap();
    std::fs::remove_file(&part_path).unwrap();
}

/// `stop_after` starts the first pending jobs in campaign order, by
/// position, so the same jobs run however many workers claim them.
#[test]
fn stop_after_runs_the_first_pending_jobs_with_many_workers() {
    let h = Harness::quick();
    let jobs = campaign(
        &[Benchmark::Lps, Benchmark::Cp, Benchmark::Nw],
        &[PrefetcherKind::Baseline],
    );
    let cfg = SweepConfig {
        stop_after: Some(1),
        workers: 2,
        ..test_cfg()
    };
    for round in 0..20 {
        let ran = Mutex::new(Vec::new());
        let result = supervise::run_campaign_with(&h, &jobs, &cfg, None, false, |h, job, _| {
            ran.lock().unwrap().push(job.id());
            h.run_job(job.bench, job.kind)
                .map(Box::new)
                .map(JobRun::Finished)
                .map_err(ExecError::from)
        })
        .unwrap();
        assert_eq!(ran.into_inner().unwrap(), ["LPS/baseline"], "round {round}");
        assert_eq!(result.counts(), (1, 0, 2, 0), "round {round}");
        assert_eq!(result.exit_code(), EXIT_INTERRUPTED);
    }
}

/// Resume replays checkpointed jobs from the manifest; their
/// simulations must not run again.
#[test]
fn resume_skips_checkpointed_jobs() {
    let h = Harness::quick();
    let jobs = campaign(
        &[Benchmark::Lib],
        &[PrefetcherKind::Baseline, PrefetcherKind::Snake],
    );
    let path = tmp_manifest("skip");

    let ran: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let runner = |_: &Harness, job: &JobSpec, _resume: Option<&std::path::Path>| {
        ran.lock().unwrap().push(job.id());
        h.run_job(job.bench, job.kind)
            .map(Box::new)
            .map(JobRun::Finished)
            .map_err(ExecError::from)
    };

    let cfg = SweepConfig {
        stop_after: Some(1),
        workers: 1,
        ..test_cfg()
    };
    let part = supervise::run_campaign_with(&h, &jobs, &cfg, Some(&path), false, runner).unwrap();
    assert_eq!(part.counts(), (1, 0, 1, 0));
    assert_eq!(ran.lock().unwrap().as_slice(), ["LIB/baseline"]);

    let resumed =
        supervise::run_campaign_with(&h, &jobs, &test_cfg(), Some(&path), true, runner).unwrap();
    assert_eq!(resumed.counts(), (2, 0, 0, 0));
    assert_eq!(
        ran.lock().unwrap().as_slice(),
        ["LIB/baseline", "LIB/snake"],
        "the checkpointed job must not re-run on resume"
    );

    std::fs::remove_file(&path).unwrap();
}

/// Satellite (d) / acceptance: one panicking, one deadlocking, and one
/// over-budget job in a sweep — every healthy row still renders, the
/// poisoned jobs are retried then quarantined, and the process exit
/// code is the distinct quarantine code.
#[test]
fn poisoned_jobs_are_quarantined_and_siblings_are_unharmed() {
    let healthy = Harness::quick();

    // All responses dropped and no recovery: the memory system starves
    // and the watchdog declares deadlock.
    let mut deadlocked = Harness::quick();
    deadlocked.cfg.fault.drop_response = 1.0;

    // A tiny planned budget: truncated, but still a valid report row.
    let mut budgeted = Harness::quick();
    budgeted.cfg.cycle_budget = Some(Cycle(64));

    let jobs = campaign(
        &[
            Benchmark::Cp,  // will panic
            Benchmark::Lps, // will deadlock
            Benchmark::Lib, // over budget
            Benchmark::Mum, // healthy
            Benchmark::Nw,  // healthy
        ],
        &[PrefetcherKind::Baseline],
    );
    let cfg = test_cfg();

    let result = supervise::run_campaign_with(&healthy, &jobs, &cfg, None, false, |_, job, _| {
        match job.bench {
            Benchmark::Cp => panic!("injected poison in {job}"),
            Benchmark::Lps => deadlocked.run_job(job.bench, job.kind),
            Benchmark::Lib => budgeted.run_job(job.bench, job.kind),
            _ => healthy.run_job(job.bench, job.kind),
        }
        .map(Box::new)
        .map(JobRun::Finished)
        .map_err(ExecError::from)
    })
    .unwrap();

    assert_eq!(result.exit_code(), EXIT_QUARANTINE);
    assert_eq!(result.counts(), (3, 2, 0, 0));

    let outcome = |bench: Benchmark| {
        result
            .outcomes
            .iter()
            .find(|(job, _)| job.bench == bench)
            .map(|(_, o)| o.clone())
            .unwrap()
    };
    match outcome(Benchmark::Cp) {
        Some(JobRecord::Quarantined {
            error: message,
            attempts,
            crash,
            ..
        }) => {
            assert!(message.starts_with("panic: injected poison"), "{message}");
            assert_eq!(attempts, cfg.max_attempts, "panics are retried first");
            assert_eq!(crash, Some(CrashKind::Panic), "panics carry their kind");
        }
        other => panic!("CP should be quarantined, got {other:?}"),
    }
    match outcome(Benchmark::Lps) {
        Some(JobRecord::Quarantined {
            error: message,
            attempts,
            crash,
            ..
        }) => {
            assert!(message.starts_with("deadlock:"), "{message}");
            assert_eq!(attempts, cfg.max_attempts, "deadlocks are retried first");
            assert_eq!(crash, None, "deadlocks are sim outcomes, not crashes");
        }
        other => panic!("LPS should be quarantined, got {other:?}"),
    }
    match outcome(Benchmark::Lib) {
        Some(JobRecord::Completed { stop, report, .. }) => {
            assert_eq!(stop, "budget_exceeded");
            assert!(report.cycles <= 64, "truncated at the budget");
        }
        other => panic!("LIB should complete under budget truncation, got {other:?}"),
    }
    for bench in [Benchmark::Mum, Benchmark::Nw] {
        assert!(
            matches!(outcome(bench), Some(JobRecord::Completed { ref stop, .. }) if stop == "completed"),
            "healthy sibling {bench} must be unaffected"
        );
    }

    // Healthy rows render; the quarantine section names the poisoned
    // jobs without leaking multi-line panic payloads.
    let rendered = result.render(false);
    for row in ["MUM", "nw", "LIB"] {
        assert!(
            rendered.contains(row),
            "missing healthy row {row}:\n{rendered}"
        );
    }
    let quarantine = result.quarantine_table().expect("quarantine section");
    let quarantined: Vec<String> = quarantine.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(quarantined, ["CP/baseline", "LPS/baseline"]);
}

/// A flaky job that fails its first attempts and then succeeds is
/// retried with the attempt count recorded — not quarantined. Attempt
/// 1 runs the harness's own fault seed; attempt `n` runs
/// `retry_seed(job, n)`.
#[test]
fn flaky_job_succeeds_after_retries() {
    let h = Harness::quick();
    let jobs = campaign(&[Benchmark::Hotspot], &[PrefetcherKind::Snake]);
    let cfg = SweepConfig {
        max_attempts: 3,
        ..test_cfg()
    };

    let calls = AtomicU32::new(0);
    let seeds = Mutex::new(Vec::new());
    let result = supervise::run_campaign_with(&h, &jobs, &cfg, None, false, |attempt_h, job, _| {
        let attempt = calls.fetch_add(1, Ordering::SeqCst) + 1;
        seeds.lock().unwrap().push(attempt_h.cfg.fault.seed);
        if attempt < 3 {
            panic!("transient failure on attempt {attempt}");
        }
        h.run_job(job.bench, job.kind)
            .map(Box::new)
            .map(JobRun::Finished)
            .map_err(ExecError::from)
    })
    .unwrap();
    let id = jobs[0].id();
    assert_eq!(
        seeds.into_inner().unwrap(),
        [
            h.cfg.fault.seed,
            supervise::retry_seed(&id, 2),
            supervise::retry_seed(&id, 3)
        ],
        "attempt 1 keeps the harness's seed, retries follow the schedule"
    );

    assert_eq!(result.exit_code(), 0);
    match &result.outcomes[0].1 {
        Some(JobRecord::Completed { attempts, stop, .. }) => {
            assert_eq!(*attempts, 3);
            assert_eq!(stop, "completed");
        }
        other => panic!("expected completion on attempt 3, got {other:?}"),
    }
    assert_eq!(calls.load(Ordering::SeqCst), 3);
}

/// A typed configuration error is deterministic: no retries, straight
/// to quarantine.
#[test]
fn deterministic_sim_error_quarantines_without_retry() {
    let h = Harness::quick();
    let mut broken = Harness::quick();
    broken.cfg.mshr_entries = 0;
    let jobs = campaign(&[Benchmark::Srad], &[PrefetcherKind::Baseline]);

    let calls = AtomicU32::new(0);
    let result = supervise::run_campaign_with(&h, &jobs, &test_cfg(), None, false, |_, job, _| {
        calls.fetch_add(1, Ordering::SeqCst);
        broken
            .run_job(job.bench, job.kind)
            .map(Box::new)
            .map(JobRun::Finished)
            .map_err(ExecError::from)
    })
    .unwrap();

    assert_eq!(result.exit_code(), EXIT_QUARANTINE);
    match &result.outcomes[0].1 {
        Some(JobRecord::Quarantined {
            error: message,
            attempts,
            crash,
            ..
        }) => {
            assert!(message.contains("invalid configuration"), "{message}");
            assert_eq!(*attempts, 1, "deterministic errors are not retried");
            assert_eq!(*crash, None, "typed sim errors carry no crash kind");
        }
        other => panic!("expected quarantine, got {other:?}"),
    }
    assert_eq!(calls.load(Ordering::SeqCst), 1);
}

/// Tentpole acceptance: a job that reaches the deadline is *suspended*
/// — checkpointed mid-simulation and recorded in the manifest — not
/// killed; resume restores it from the checkpoint and the final report
/// is byte-identical to an uninterrupted sweep, with no quarantine.
#[test]
fn deadline_suspended_job_resumes_mid_simulation() {
    let h = Harness::quick();
    let jobs = campaign(
        &[Benchmark::Lps],
        &[PrefetcherKind::Snake, PrefetcherKind::Mta],
    );
    let cfg = test_cfg();

    let full_path = tmp_manifest("suspend-full");
    let full = supervise::run_campaign(&h, &jobs, &cfg, Some(&full_path), false).unwrap();
    assert_eq!(full.counts(), (2, 0, 0, 0));
    let reference = full.render(false);

    // Preempt every job that reaches cycle 300: `suspend_after` is the
    // deterministic stand-in for wall-deadline preemption.
    let part_path = tmp_manifest("suspend-part");
    let suspend_cfg = SweepConfig {
        suspend_after: Some(300),
        ..test_cfg()
    };
    let part = supervise::run_campaign(&h, &jobs, &suspend_cfg, Some(&part_path), false).unwrap();
    assert_eq!(part.exit_code(), EXIT_INTERRUPTED);
    let (_, quarantined, _, suspended) = part.counts();
    assert_eq!(quarantined, 0, "suspension is not a failure");
    assert!(suspended > 0, "jobs reaching the deadline are suspended");
    let mut checkpoints = Vec::new();
    for (_, o) in &part.outcomes {
        if let Some(JobRecord::Suspended {
            cycle, checkpoint, ..
        }) = o
        {
            assert!(*cycle >= 300, "suspended at or after the trigger cycle");
            assert!(
                std::path::Path::new(checkpoint).exists(),
                "checkpoint artifact written: {checkpoint}"
            );
            checkpoints.push(checkpoint.clone());
        }
    }

    // Resume without the trigger: the suspended jobs restore from
    // their checkpoints and finish the remaining cycles.
    let resumed = supervise::run_campaign(&h, &jobs, &cfg, Some(&part_path), true).unwrap();
    assert_eq!(resumed.exit_code(), 0, "resume finishes cleanly");
    assert_eq!(resumed.counts(), (2, 0, 0, 0), "nothing quarantined");
    assert_eq!(
        resumed.render(false),
        reference,
        "restored jobs must finish byte-identically to uninterrupted runs"
    );

    std::fs::remove_file(&full_path).unwrap();
    std::fs::remove_file(&part_path).unwrap();
    for c in checkpoints {
        let _ = std::fs::remove_file(c);
    }
}

/// The manifest life cycle refuses the two dangerous cases: clobbering
/// an existing manifest without `--resume`, and resuming a manifest
/// recorded by a different harness or campaign.
#[test]
fn manifest_guards_reject_clobber_and_mismatch() {
    let h = Harness::quick();
    let jobs = campaign(&[Benchmark::Histo], &[PrefetcherKind::Baseline]);
    let path = tmp_manifest("guards");

    supervise::run_campaign(&h, &jobs, &test_cfg(), Some(&path), false).unwrap();

    // Fresh run onto an existing manifest: refused.
    let err = supervise::run_campaign(&h, &jobs, &test_cfg(), Some(&path), false).unwrap_err();
    assert!(matches!(err, SweepError::ManifestExists(_)), "{err}");

    // Resume with a different harness: fingerprint mismatch.
    let mut other = Harness::quick();
    other.cfg.cycle_budget = Some(Cycle(1000));
    let err = supervise::run_campaign(&other, &jobs, &test_cfg(), Some(&path), true).unwrap_err();
    assert!(
        matches!(err, SweepError::FingerprintMismatch { .. }),
        "{err}"
    );

    // Resume with a different campaign: also a mismatch.
    let more = campaign(
        &[Benchmark::Histo, Benchmark::Mrq],
        &[PrefetcherKind::Baseline],
    );
    let err = supervise::run_campaign(&h, &more, &test_cfg(), Some(&path), true).unwrap_err();
    assert!(
        matches!(err, SweepError::FingerprintMismatch { .. }),
        "{err}"
    );

    std::fs::remove_file(&path).unwrap();
}

/// An invalid harness fails the whole campaign up front with a typed
/// error instead of quarantining every job one by one.
#[test]
fn invalid_harness_fails_fast() {
    let mut h = Harness::quick();
    h.cfg.mshr_entries = 0;
    let jobs = campaign(&[Benchmark::Lps], &[PrefetcherKind::Baseline]);
    let err = supervise::run_campaign(&h, &jobs, &test_cfg(), None, false).unwrap_err();
    assert!(matches!(err, SweepError::Sim(SimError::Config(_))), "{err}");
}

/// Satellite: the hung-job watchdog. A job wedged past the sweep
/// deadline plus the grace period shows up as `overdue` in the shared
/// `Progress` while it hangs, and the gauge drops back to zero once
/// the sweep drains — the hang is observable even though an in-thread
/// job cannot be killed.
#[test]
fn watchdog_marks_wedged_jobs_overdue_then_clears() {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let h = Harness::quick();
    let jobs = campaign(&[Benchmark::Lps], &[PrefetcherKind::Baseline]);
    let progress = Arc::new(supervise::Progress::default());
    let cfg = SweepConfig {
        max_attempts: 1,
        workers: 1,
        wall_deadline: Some(Duration::from_millis(20)),
        watchdog_grace: Duration::from_millis(20),
        progress: Some(progress.clone()),
        ..SweepConfig::default()
    };

    // Observer: sample the gauge while the sweep blocks on the wedge.
    let seen_overdue = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let observer = {
        let progress = progress.clone();
        let seen = seen_overdue.clone();
        std::thread::spawn(move || {
            let give_up = Instant::now() + Duration::from_secs(10);
            while Instant::now() < give_up {
                if progress.snapshot().overdue > 0 {
                    seen.store(true, Ordering::Relaxed);
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // The runner ignores the cooperative deadline entirely — the
    // stand-in for a simulation wedged inside one cycle.
    let result = supervise::run_campaign_with(&h, &jobs, &cfg, None, false, |_, _, _| {
        std::thread::sleep(Duration::from_millis(400));
        Err(ExecError::Typed("wedged job finally died".into()))
    })
    .unwrap();
    observer.join().unwrap();

    assert!(
        seen_overdue.load(Ordering::Relaxed),
        "the watchdog never marked the wedged job overdue"
    );
    assert_eq!(
        progress.snapshot().overdue,
        0,
        "the gauge must clear once the sweep drains"
    );
    assert_eq!(result.exit_code(), EXIT_QUARANTINE);
}
