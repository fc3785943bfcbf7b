//! Integration tests of the host performance observatory's CLI
//! surface: `repro --profile` and `pfdebug --profile` print one
//! per-phase table per run, a sandboxed run reports what an in-thread
//! one does, and `--profile` refuses what it cannot measure.

use std::process::{Command, Output};

use snake_sim::Phase;

/// `repro --profile --quick` over the given mechanisms of LPS.
fn profile(mechanisms: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--profile",
            "--quick",
            "--benchmarks",
            "lps",
            "--mechanisms",
            mechanisms,
        ])
        .args(extra)
        .output()
        .expect("spawn repro")
}

#[test]
fn profile_flag_prints_per_phase_tables() {
    let output = profile("baseline,snake", &[]);
    assert!(output.status.success(), "repro --profile failed");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Host profile — LPS/baseline"), "{stdout}");
    assert!(stdout.contains("Host profile — LPS/snake"), "{stdout}");
    assert!(stdout.contains("sm_issue"), "{stdout}");
    assert!(stdout.contains("(unaccounted)"), "{stdout}");
}

/// The `calls` column and the quiet note of a profile table: the parts
/// that depend only on the simulated run, not on the host's speed.
fn deterministic_parts(table: &str) -> (Vec<String>, String) {
    let calls = Phase::ALL
        .iter()
        .map(|phase| {
            let row = table
                .lines()
                .find(|l| l.split_whitespace().next() == Some(phase.label()))
                .unwrap_or_else(|| panic!("no {phase} row in: {table}"));
            row.split_whitespace()
                .nth(2)
                .expect("calls cell")
                .to_string()
        })
        .collect();
    let quiet = table
        .lines()
        .find(|l| l.trim_start().starts_with("note: quiet:"))
        .unwrap_or_else(|| panic!("no quiet note in: {table}"))
        .to_string();
    (calls, quiet)
}

/// The sampling schedule is deterministic and a sampled step's regions
/// depend only on simulated state, so a job run in a sandboxed worker
/// must report the same calls and quiet counters as in-thread: the
/// profile crosses the child protocol whole.
#[test]
fn isolated_profile_matches_in_thread_calls_and_quiet_note() {
    let in_thread = profile("snake", &[]);
    let isolated = profile("snake", &["--isolate"]);
    for out in [&in_thread, &isolated] {
        assert!(
            out.status.success(),
            "repro --profile failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = deterministic_parts(&String::from_utf8_lossy(&in_thread.stdout));
    let b = deterministic_parts(&String::from_utf8_lossy(&isolated.stdout));
    assert_eq!(a, b, "in-thread vs sandboxed");
    assert!(!a.1.contains(" 0 of "), "quiet counters are empty: {}", a.1);
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
    assert!(stdout.contains("note: quiet:"), "{stdout}");
}

#[test]
fn perf_rejects_mixing_modes() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--profile", "--sweep"])
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--profile", "fig16"])
        .output()
        .expect("spawn repro");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
}

/// A zero cycle budget is an invalid configuration: refused as a usage
/// error before any job runs, so no table is printed.
#[test]
fn profile_refuses_an_invalid_harness_before_any_run() {
    let output = profile("baseline", &["--budget", "0"]);
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("invalid configuration"), "{stderr}");
    assert!(output.stdout.is_empty(), "a job ran");
}

/// A job that does not finish has no profile: the run fails at it and
/// names it, after printing the tables of the jobs before it.
#[test]
fn profile_fails_at_a_crashed_job_and_names_it() {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .env("SNAKE_EXEC_CRASH", "LPS/snake=abort")
        .args([
            "--profile",
            "--quick",
            "--isolate",
            "--benchmarks",
            "lps",
            "--mechanisms",
            "baseline,snake",
        ])
        .output()
        .expect("spawn repro");
    assert_eq!(
        output.status.code(),
        Some(2),
        "the crashed job must fail the run"
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("Host profile — LPS/baseline"), "{stdout}");
    assert!(!stdout.contains("Host profile — LPS/snake"), "{stdout}");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("LPS/snake did not finish"), "{stderr}");
}
