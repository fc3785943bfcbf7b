//! Integration tests of the host performance observatory's CLI
//! surface: `repro --perf` emits a schema-versioned BENCH_*.json with
//! every tick phase, the self-compare gate passes, an injected stall
//! trips it with the dedicated exit code, and `--profile` renders the
//! per-phase table.

use std::path::PathBuf;
use std::process::Command;
use std::str::FromStr;
use std::sync::Arc;

use snake_bench::perfstat::{self, CollectError, PerfReport, EXIT_PERF_REGRESSION, SCHEMA_VERSION};
use snake_bench::supervise::{campaign, JobExecutor};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::{Phase, SimError};
use snake_workloads::Benchmark;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("snake-bench-perf-{}-{name}", std::process::id()));
    p
}

/// A small, fast perf invocation: quick harness, one job, three runs.
fn perf_cmd(out: &PathBuf, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args([
        "--perf",
        "--quick",
        "--benchmarks",
        "lps",
        "--mechanisms",
        "snake",
        "--runs",
        "3",
        "--perf-out",
    ])
    .arg(out)
    .args(extra);
    cmd
}

/// Gate threshold for these tests. Sibling test processes contend for
/// cores, so run-to-run noise here is far above a quiet machine's; the
/// injected stall inflates its phase by >10x, so even a generous bar
/// discriminates perfectly.
const TEST_THRESHOLD: &str = "0.75";

#[test]
fn perf_emits_schema_versioned_report_with_every_phase() {
    let out = tmp("emit.json");
    let status = perf_cmd(&out, &["--label", "emit"])
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro --perf exited with {status}");
    let text = std::fs::read_to_string(&out).expect("report written");
    std::fs::remove_file(&out).ok();

    let report = PerfReport::from_str(&text).expect("parseable report");
    assert_eq!(report.label, "emit");
    assert_eq!(report.runs, 3);
    assert!(text.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
    let job = report.job("LPS/snake").expect("job present");
    assert_eq!(job.samples.len(), 3, "one sample per run");
    for sample in &job.samples {
        assert!(sample.wall_nanos > 0);
        assert!(sample.cycles > 0);
        // Every tick phase appears, and the ones a streaming kernel
        // exercises have nonzero call counts.
        for phase in [
            Phase::SmIssue,
            Phase::L1Lookup,
            Phase::Mshr,
            Phase::Prefetch,
            Phase::Noc,
            Phase::MemPartition,
        ] {
            assert!(sample.get(phase).calls > 0, "phase {phase} has no calls");
        }
        assert!(text.contains(Phase::Observability.label()));
    }

    // Bit-exact round trip through snake_core::json.
    let reparsed = PerfReport::from_str(&report.to_json().to_string()).unwrap();
    assert_eq!(reparsed, report);
    assert_eq!(reparsed.to_json().to_string(), report.to_json().to_string());
}

#[test]
fn perf_gate_passes_self_comparison_and_fails_injected_stall() {
    let base = tmp("gate-base.json");
    let cur = tmp("gate-cur.json");
    let slow = tmp("gate-slow.json");

    let status = perf_cmd(&base, &["--label", "base"])
        .status()
        .expect("spawn repro");
    assert!(status.success(), "baseline run exited with {status}");

    // Same binary, same config: the gate must pass.
    let base_arg = base.to_str().unwrap().to_string();
    let output = perf_cmd(
        &cur,
        &[
            "--label",
            "cur",
            "--compare",
            &base_arg,
            "--rel-threshold",
            TEST_THRESHOLD,
        ],
    )
    .output()
    .expect("spawn repro");
    assert!(
        output.status.success(),
        "self-compare must pass; stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Perf comparison"), "no table in: {stdout}");

    // An injected 20 us stall per partition tick dwarfs the quick
    // harness's real per-tick work: the gate must flag it and exit
    // with the dedicated code.
    let output = perf_cmd(
        &slow,
        &[
            "--label",
            "slow",
            "--compare",
            &base_arg,
            "--rel-threshold",
            TEST_THRESHOLD,
            "--perf-inject-ns",
            "20000",
        ],
    )
    .output()
    .expect("spawn repro");
    assert_eq!(
        output.status.code(),
        Some(EXIT_PERF_REGRESSION),
        "injected stall must trip the gate; stdout: {}",
        String::from_utf8_lossy(&output.stdout)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("REGRESSED"),
        "no regression verdict in: {stdout}"
    );
    assert!(
        stdout.contains("mem_partition"),
        "regression not attributed to the injected phase: {stdout}"
    );

    for p in [&base, &cur, &slow] {
        std::fs::remove_file(p).ok();
    }
}

/// NaN or infinity makes every gate comparison false, so an injected
/// stall would pass; a negative bar flags any delta. Each is a usage
/// error, refused before any job runs.
#[test]
fn perf_gate_rejects_non_finite_and_negative_thresholds() {
    let base = tmp("threshold-base.json");
    let status = perf_cmd(&base, &["--label", "base"])
        .status()
        .expect("spawn repro");
    assert!(status.success(), "baseline run exited with {status}");
    let base_arg = base.to_str().unwrap().to_string();
    for bad in ["nan", "inf", "-1"] {
        let out = tmp(&format!("threshold-{bad}.json"));
        let output = perf_cmd(
            &out,
            &[
                "--compare",
                &base_arg,
                "--rel-threshold",
                bad,
                "--perf-inject-ns",
                "20000",
            ],
        )
        .output()
        .expect("spawn repro");
        assert_eq!(
            output.status.code(),
            Some(2),
            "--rel-threshold {bad} must be a usage error; stdout: {}",
            String::from_utf8_lossy(&output.stdout)
        );
        assert!(!out.exists(), "--rel-threshold {bad} wrote a report");
    }
    std::fs::remove_file(&base).ok();
}

#[test]
fn profile_flag_prints_per_phase_tables() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--profile",
            "--quick",
            "--benchmarks",
            "lps",
            "--mechanisms",
            "baseline,snake",
        ])
        .output()
        .expect("spawn repro");
    assert!(output.status.success(), "repro --profile failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Host profile — LPS/baseline"), "{stdout}");
    assert!(stdout.contains("Host profile — LPS/snake"), "{stdout}");
    assert!(stdout.contains("sm_issue"), "{stdout}");
    assert!(stdout.contains("(unaccounted)"), "{stdout}");
}

#[test]
fn pfdebug_profile_prints_the_table() {
    let output = Command::new(env!("CARGO_BIN_EXE_pfdebug"))
        .args(["--profile", "--budget", "20000", "lps", "snake"])
        .output()
        .expect("spawn pfdebug");
    assert!(output.status.success(), "pfdebug --profile failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Host profile — LPS/snake"), "{stdout}");
    assert!(stdout.contains("mem_partition"), "{stdout}");
}

#[test]
fn perf_rejects_mixing_modes() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--perf", "--sweep"])
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--perf", "fig16"])
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
}

#[test]
fn collect_refuses_an_invalid_harness_before_any_rep() {
    let mut h = Harness::quick();
    h.cfg.mshr_entries = 0;
    let jobs = campaign(&[Benchmark::Lps], &[PrefetcherKind::Baseline]);
    let err = perfstat::collect(&h, &jobs, 3, "bad", Arc::new(JobExecutor::in_thread()))
        .expect_err("an invalid harness cannot be measured");
    // A rep that ran would fail as `Unfinished`, naming its job.
    assert!(
        matches!(err, CollectError::Sim(SimError::Config(_))),
        "{err}"
    );
}

#[test]
fn collect_fails_at_a_deadlocked_job_and_names_it() {
    // Every response dropped and no recovery: the watchdog stops the
    // run with a deadlock report.
    let mut h = Harness::quick();
    h.cfg.fault.drop_response = 1.0;
    let jobs = campaign(&[Benchmark::Lps], &[PrefetcherKind::Baseline]);
    let err = perfstat::collect(&h, &jobs, 2, "stuck", Arc::new(JobExecutor::in_thread()))
        .expect_err("a deadlocked job has no comparable sample");
    match &err {
        CollectError::Unfinished { job, why } => {
            assert_eq!(job, "LPS/baseline");
            assert!(why.starts_with("deadlock:"), "{why}");
        }
        other => panic!("expected an unfinished job, got {other:?}"),
    }
    assert!(err.to_string().contains("LPS/baseline"), "{err}");
}
