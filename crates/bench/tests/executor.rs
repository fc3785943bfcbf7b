//! End-to-end tests for the process-isolated job executor: report
//! byte-identity across executors, crash classification through the
//! real `repro --exec-job` worker, graceful degradation when the
//! worker binary is missing, and lease-kill → checkpoint-resume.

use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};

use snake_bench::runner::JobRun;
use snake_bench::supervise::{
    self, campaign, CrashKind, ExecContext, ExecError, JobExecutor, SandboxLimits, SweepConfig,
};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_workloads::Benchmark;

/// The real worker binary, compiled by cargo for this test run.
fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_repro"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snake-executor-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Acceptance: the same campaign through the in-thread executor and
/// the subprocess sandbox must render byte-identically — the report
/// wire format is lossless.
#[test]
fn sandboxed_sweep_renders_byte_identical_to_in_thread() {
    let h = Harness::quick();
    let jobs = campaign(
        &[Benchmark::Lps, Benchmark::Cp],
        &[PrefetcherKind::Baseline, PrefetcherKind::Snake],
    );

    let run = |executor: JobExecutor| {
        let cfg = SweepConfig {
            workers: 2,
            executor: std::sync::Arc::new(executor),
            ..SweepConfig::default()
        };
        supervise::run_campaign(&h, &jobs, &cfg, None, false).unwrap()
    };
    let reference = run(JobExecutor::in_thread());
    assert_eq!(reference.exit_code(), 0);
    let sandboxed = run(JobExecutor::sandbox_with_worker(
        SandboxLimits::default(),
        worker(),
    ));
    assert_eq!(sandboxed.exit_code(), 0, "sandboxed sweep finishes clean");
    assert_eq!(
        sandboxed.render(false),
        reference.render(false),
        "sandboxed reports must be byte-identical to in-thread reports"
    );
    assert_eq!(
        sandboxed.render(true),
        reference.render(true),
        "markdown too"
    );
}

/// A missing worker binary must not fail the job: the executor
/// degrades to in-thread execution, sets the sticky health flag, and
/// the report is still byte-identical to a native in-thread run.
#[test]
fn spawn_failure_degrades_to_in_thread_with_sticky_flag() {
    let h = Harness::quick();
    let job = &campaign(&[Benchmark::Lib], &[PrefetcherKind::Snake])[0];

    let broken = JobExecutor::sandbox_with_worker(
        SandboxLimits::default(),
        PathBuf::from("/nonexistent/snake-worker"),
    );
    assert!(!broken.degraded(), "healthy until a spawn fails");
    let run = broken
        .run(&h, job, &ExecContext::default(), &mut |_, _| {})
        .expect("degraded execution still completes the job");
    assert!(broken.degraded(), "the degradation flag is sticky");

    let native = JobExecutor::in_thread()
        .run(&h, job, &ExecContext::default(), &mut |_, _| {})
        .expect("in-thread reference");
    match (run, native) {
        (JobRun::Finished(a), JobRun::Finished(b)) => {
            assert_eq!(
                a.report.to_json().to_string(),
                b.report.to_json().to_string(),
                "degraded report must match the in-thread report byte-for-byte"
            );
        }
        other => panic!("both executions should finish, got {other:?}"),
    }
}

/// A worker that emits garbage instead of the NDJSON protocol is a
/// protocol error — never a silently mis-parsed report.
#[test]
fn garbage_worker_output_is_a_protocol_error() {
    let dir = scratch("garbage");
    let script = dir.join("garbage-worker");
    std::fs::write(
        &script,
        "#!/bin/sh\necho 'this is not the protocol'\nexit 0\n",
    )
    .expect("write script");
    let mut perms = std::fs::metadata(&script).expect("stat").permissions();
    std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
    std::fs::set_permissions(&script, perms).expect("chmod");

    let h = Harness::quick();
    let job = &campaign(&[Benchmark::Lps], &[PrefetcherKind::Baseline])[0];
    let exec = JobExecutor::sandbox_with_worker(SandboxLimits::default(), script);
    match exec.run(&h, job, &ExecContext::default(), &mut |_, _| {}) {
        Err(ExecError::Crash(c)) => assert_eq!(c.kind, CrashKind::ProtocolError, "{c:?}"),
        other => panic!("garbage output must be a protocol error, got {other:?}"),
    }
    assert!(!exec.degraded(), "a protocol error is not a spawn failure");
}

/// A worker that exits cleanly without ever sending a terminal line is
/// also a protocol error (a truncated stream must not look like
/// success).
#[test]
fn silent_worker_exit_is_a_protocol_error() {
    let dir = scratch("silent");
    let script = dir.join("silent-worker");
    std::fs::write(&script, "#!/bin/sh\nexit 0\n").expect("write script");
    let mut perms = std::fs::metadata(&script).expect("stat").permissions();
    std::os::unix::fs::PermissionsExt::set_mode(&mut perms, 0o755);
    std::fs::set_permissions(&script, perms).expect("chmod");

    let h = Harness::quick();
    let job = &campaign(&[Benchmark::Lps], &[PrefetcherKind::Baseline])[0];
    let exec = JobExecutor::sandbox_with_worker(SandboxLimits::default(), script);
    match exec.run(&h, job, &ExecContext::default(), &mut |_, _| {}) {
        Err(ExecError::Crash(c)) => assert_eq!(c.kind, CrashKind::ProtocolError, "{c:?}"),
        other => panic!("silent exit must be a protocol error, got {other:?}"),
    }
}

/// An expired wall-clock lease (the job's deadline) with no checkpoint
/// to resume from is a non-retryable timeout crash.
#[test]
fn lease_expiry_without_checkpoint_is_timed_out() {
    // Standard harness: slow enough that the child cannot finish
    // before the monitor's first poll.
    let h = Harness::standard();
    let job = &campaign(&[Benchmark::Lps], &[PrefetcherKind::Snake])[0];
    let exec = JobExecutor::sandbox_with_worker(SandboxLimits::default(), worker());
    let ctx = ExecContext {
        deadline: Some(Instant::now() + Duration::from_millis(1)),
        ..ExecContext::default()
    };
    match exec.run(&h, job, &ctx, &mut |_, _| {}) {
        Err(ExecError::Crash(c)) => {
            assert_eq!(c.kind, CrashKind::TimedOut, "{c:?}");
            assert!(!c.kind.retryable(), "timeouts are deterministic: no retry");
        }
        other => panic!("a 1ms lease must time the job out, got {other:?}"),
    }
}

/// Acceptance: a lease-killed child with a durable checkpoint suspends
/// (like a deadline-suspended in-thread job), and resuming — through
/// the *other* executor — finishes byte-identically to an
/// uninterrupted run.
#[test]
fn lease_killed_job_resumes_from_checkpoint_byte_identically() {
    let dir = scratch("lease-resume");
    let ckpt = dir.join("job.ckpt");
    let mut h = Harness::standard();
    // A tight cadence so the child is guaranteed a durable checkpoint
    // within the lease.
    h.cfg.checkpoint_every = Some(200);
    let job = &campaign(&[Benchmark::Lps], &[PrefetcherKind::Snake])[0];

    let exec = JobExecutor::sandbox_with_worker(SandboxLimits::default(), worker());
    let mut checkpoints = 0u32;
    let ctx = ExecContext {
        checkpoint_to: Some(&ckpt),
        deadline: Some(Instant::now() + Duration::from_millis(400)),
        ..ExecContext::default()
    };
    let run = exec
        .run(&h, job, &ctx, &mut |_, _| checkpoints += 1)
        .expect("a checkpointed lease kill is a suspension, not a crash");
    let cycle = match run {
        JobRun::Suspended { cycle, .. } => cycle,
        other => panic!("expected suspension at the lease, got {other:?}"),
    };
    assert!(cycle > 0, "the checkpoint captured real progress");
    assert!(
        checkpoints > 0,
        "checkpoint notifications reached the parent"
    );
    assert!(ckpt.exists(), "the checkpoint artifact is durable");

    // Resume in-thread (crossing executors) and compare to a clean run.
    let resume_ctx = ExecContext {
        resume_from: Some(&ckpt),
        ..ExecContext::default()
    };
    let resumed = JobExecutor::in_thread()
        .run(&h, job, &resume_ctx, &mut |_, _| {})
        .expect("resume completes");
    let clean = JobExecutor::in_thread()
        .run(&h, job, &ExecContext::default(), &mut |_, _| {})
        .expect("clean reference run");
    match (resumed, clean) {
        (JobRun::Finished(a), JobRun::Finished(b)) => assert_eq!(
            a.report.to_json().to_string(),
            b.report.to_json().to_string(),
            "kill-resume must be byte-identical to an uninterrupted run"
        ),
        other => panic!("both runs should finish, got {other:?}"),
    }
}

/// The worker's `suspend_after` path: a sandboxed job told to suspend
/// at a cycle, with a checkpoint path, ends `Suspended` at exactly
/// that cycle, and resuming it in-thread finishes byte-identically to
/// an uninterrupted run.
#[test]
fn sandboxed_suspend_after_resumes_in_thread_byte_identically() {
    let dir = scratch("suspend-after");
    let ckpt = dir.join("job.ckpt");
    let h = Harness::quick();
    let job = &campaign(&[Benchmark::Lps], &[PrefetcherKind::Snake])[0];

    let exec = JobExecutor::sandbox_with_worker(SandboxLimits::default(), worker());
    let ctx = ExecContext {
        checkpoint_to: Some(&ckpt),
        suspend_after: Some(300),
        ..ExecContext::default()
    };
    let mut fired = Vec::new();
    let run = exec
        .run(&h, job, &ctx, &mut |cycle, _| fired.push(cycle))
        .expect("a suspend_after trigger is a suspension, not a failure");
    assert_eq!(
        run,
        JobRun::Suspended {
            cycle: 300,
            checkpoint: ckpt.display().to_string()
        }
    );
    assert!(!exec.degraded(), "the job ran in a sandboxed child");
    assert_eq!(fired, [300], "the suspension checkpoint reached the parent");
    assert!(ckpt.exists(), "the checkpoint artifact is durable");

    let resume_ctx = ExecContext {
        resume_from: Some(&ckpt),
        ..ExecContext::default()
    };
    let resumed = JobExecutor::in_thread()
        .run(&h, job, &resume_ctx, &mut |_, _| {})
        .expect("resume completes");
    let clean = JobExecutor::in_thread()
        .run(&h, job, &ExecContext::default(), &mut |_, _| {})
        .expect("clean reference run");
    match (resumed, clean) {
        (JobRun::Finished(a), JobRun::Finished(b)) => assert_eq!(
            a.report.to_json().to_string(),
            b.report.to_json().to_string(),
            "suspend-resume must be byte-identical to an uninterrupted run"
        ),
        other => panic!("both runs should finish, got {other:?}"),
    }
}

/// Crash classification through the real binary: an injected
/// `std::process::abort()` in a sandboxed child quarantines that job
/// as `signal 6` while the sibling completes — and the whole sweep
/// exits with the quarantine code, not a crash.
#[test]
fn injected_abort_quarantines_with_decoded_signal_kind() {
    let output = Command::new(worker())
        .args([
            "--sweep",
            "--quick",
            "--isolate",
            "--benchmarks",
            "LPS,CP",
            "--mechanisms",
            "baseline",
            "--retries",
            "2",
        ])
        .env("SNAKE_EXEC_WORKER", worker())
        .env("SNAKE_EXEC_CRASH", "CP/baseline=abort")
        .output()
        .expect("run repro --sweep --isolate");
    assert_eq!(
        output.status.code(),
        Some(3),
        "a quarantined job must exit with the quarantine code\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("signal 6"),
        "the quarantine table must name the decoded crash kind:\n{stdout}"
    );
    assert!(
        stdout.contains("CP/baseline"),
        "the crashed job is named:\n{stdout}"
    );
    assert!(
        stdout.contains("LPS"),
        "the sibling's report row still renders:\n{stdout}"
    );
}

/// An address-space blowout under `--isolate-mem` is classified as an
/// OOM kill (the allocator's abort message is decoded), not a generic
/// signal.
#[test]
fn injected_oom_under_rlimit_is_classified_as_oom() {
    let output = Command::new(worker())
        .args([
            "--sweep",
            "--quick",
            "--isolate",
            "--isolate-mem",
            "512",
            "--benchmarks",
            "LPS,CP",
            "--mechanisms",
            "baseline",
            "--retries",
            "2",
        ])
        .env("SNAKE_EXEC_WORKER", worker())
        .env("SNAKE_EXEC_CRASH", "CP/baseline=oom")
        .output()
        .expect("run repro --sweep --isolate --isolate-mem");
    assert_eq!(
        output.status.code(),
        Some(3),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("oom"),
        "the blowout must be classified as oom:\n{stdout}"
    );
    assert!(stdout.contains("LPS"), "sibling unharmed:\n{stdout}");
}
