//! Integration tests for the bench binaries' observability flags:
//! `repro --metrics-csv`, `repro --profile`'s output flags and
//! `pfdebug --trace-out` / `--timeline`.

use std::path::PathBuf;
use std::process::Command;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("snake-bench-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn repro_metrics_csv_writes_the_time_series() {
    let out = tmp("metrics.csv");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--metrics-csv"])
        .arg(&out)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");
    let csv = std::fs::read_to_string(&out).expect("csv written");
    std::fs::remove_file(&out).ok();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some(
            "cycle,ipc,l1_hit_rate,mshr_occupancy,miss_queue_occupancy,\
             noc_utilization,active_warps,throttled_sms,chain_depth,\
             stall_issued,stall_no_warp,stall_barrier,stall_scoreboard,\
             stall_mem_data,stall_mem_mshr,stall_mem_missq,stall_mem_noc"
        )
    );
    let rows: Vec<&str> = lines.collect();
    assert!(!rows.is_empty(), "no metric windows in: {csv}");
    for row in rows {
        assert_eq!(row.split(',').count(), 17, "malformed row: {row}");
        // The eight stall fractions partition the window's issue slots.
        let stalls: f64 = row
            .split(',')
            .skip(9)
            .map(|c| c.parse::<f64>().unwrap())
            .sum();
        assert!(
            (stalls - 1.0).abs() < 1e-4,
            "stall fractions sum to {stalls} in: {row}"
        );
    }
}

/// `--profile` writes its tables like every other mode: as markdown
/// with `--markdown`, into the `--out` file and not to stdout.
#[test]
fn repro_profile_honours_markdown_and_out() {
    let out = tmp("profile.md");
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "--quick",
            "--profile",
            "--benchmarks",
            "LPS",
            "--mechanisms",
            "snake",
            "--markdown",
            "--out",
        ])
        .arg(&out)
        .output()
        .expect("spawn repro");
    assert!(
        output.status.success(),
        "repro exited with {}",
        output.status
    );
    let md = std::fs::read_to_string(&out).expect("profile written");
    std::fs::remove_file(&out).ok();
    assert!(md.starts_with("### Host profile — LPS/snake\n"), "{md}");
    assert!(
        md.contains("| phase | ms | calls | ns/call | % wall |"),
        "{md}"
    );
    assert!(md.contains("| prefetch |"), "{md}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.is_empty(), "table printed to stdout: {stdout}");
}

#[test]
fn pfdebug_trace_out_writes_chrome_json() {
    let out = tmp("trace.json");
    let output = Command::new(env!("CARGO_BIN_EXE_pfdebug"))
        .args(["--trace-out"])
        .arg(&out)
        .args(["--timeline", "--window", "500", "lps", "snake"])
        .output()
        .expect("spawn pfdebug");
    assert!(
        output.status.success(),
        "pfdebug exited with {}",
        output.status
    );
    let json = std::fs::read_to_string(&out).expect("trace written");
    std::fs::remove_file(&out).ok();
    assert!(json.starts_with("{\"traceEvents\":["), "not a chrome trace");
    assert!(json.contains("\"name\":\"Terminal\""), "no terminal event");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains("timeline:"),
        "no ASCII timeline in: {stdout}"
    );
    assert!(
        stdout.contains("lifecycle"),
        "no lifecycle line in: {stdout}"
    );
}

#[test]
fn pfdebug_rejects_a_zero_window() {
    let output = Command::new(env!("CARGO_BIN_EXE_pfdebug"))
        .args(["--window", "0"])
        .output()
        .expect("spawn pfdebug");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("window"), "unhelpful error: {stderr}");
}

/// `--checkpoint-out` only says where `--checkpoint-at` writes: alone
/// it is a usage error, refused before any simulation, not an option
/// that silently writes nothing.
#[test]
fn pfdebug_rejects_checkpoint_out_without_checkpoint_at() {
    let out = tmp("orphan.ckpt");
    let output = Command::new(env!("CARGO_BIN_EXE_pfdebug"))
        .args(["--budget", "2000", "--checkpoint-out"])
        .arg(&out)
        .args(["lps", "snake"])
        .output()
        .expect("spawn pfdebug");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--checkpoint-at"),
        "unhelpful error: {stderr}"
    );
    assert!(!out.exists(), "no checkpoint may be written");
}

/// `--checkpoint-at N` writes cycle N or nothing. The run is suspended
/// after a step, so N = 0, or N at or before the cycle `--restore`
/// resumes from, would write a later cycle under N's name: both are
/// usage errors, refused before any checkpoint is written.
#[test]
fn pfdebug_rejects_a_checkpoint_cycle_it_cannot_write() {
    let pfdebug = || Command::new(env!("CARGO_BIN_EXE_pfdebug"));
    let output = pfdebug()
        .args(["--checkpoint-at", "0", "lps", "snake"])
        .output()
        .expect("spawn pfdebug");
    assert_eq!(output.status.code(), Some(2), "usage error expected");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("checkpoint-at"),
        "unhelpful error: {stderr}"
    );

    let c2000 = tmp("c2000.ckpt");
    let status = pfdebug()
        .args(["--checkpoint-at", "2000", "--checkpoint-out"])
        .arg(&c2000)
        .args(["lps", "snake"])
        .output()
        .expect("spawn pfdebug")
        .status;
    assert!(status.success(), "pfdebug exited with {status}");
    for at in ["1500", "2000"] {
        let earlier = tmp(&format!("at{at}.ckpt"));
        let output = pfdebug()
            .arg("--restore")
            .arg(&c2000)
            .args(["--checkpoint-at", at, "--checkpoint-out"])
            .arg(&earlier)
            .args(["lps", "snake"])
            .output()
            .expect("spawn pfdebug");
        assert_eq!(output.status.code(), Some(2), "--checkpoint-at {at}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("cycle {at} is not after the restored cycle 2000")),
            "unhelpful error: {stderr}"
        );
        assert!(!earlier.exists(), "no checkpoint may be written");
    }
    std::fs::remove_file(&c2000).ok();
}
