//! Crash/recovery tests for the journaled `snaked` daemon.
//!
//! Two layers:
//!
//! * in-process restarts (clean shutdown, then a second daemon over
//!   the same journal) prove the replay rules — terminal jobs keep
//!   their exact report bytes, orphaned submissions re-queue and run
//!   to completion, ids never collide;
//! * a real-process chaos loop `kill -9`s the daemon binary at
//!   randomized points and asserts the survivor invariants the paper
//!   plane needs: the final report bytes are identical to an
//!   uninterrupted run's, and the journal balances (every
//!   `submitted` line has exactly one `"terminal":true` line).
//!
//! `CHAOS_TRIALS` scales the kill loop (default 3 here; the
//! `scripts/chaos_snaked.sh` driver runs 10 against release builds).

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use snake_bench::serve::{self, DaemonOptions, Request, SubmitSpec};
use snake_core::json::Value;

use serve::client;
use serve::journal::{Journal, JournalEvent};

/// A fresh per-test scratch directory (sockets, journals, checkpoints).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snake-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Submits a spec and returns the assigned job id.
fn submit(socket: &Path, spec: SubmitSpec) -> u64 {
    client::request(socket, &Request::Submit(spec))
        .expect("submit accepted")
        .get("id")
        .and_then(Value::as_u64)
        .expect("submit response carries the job id")
}

/// One job's current state string, from a live daemon.
fn job_state(socket: &Path, id: u64) -> String {
    client::request(socket, &Request::Status { id: Some(id) })
        .expect("status answered")
        .get("job")
        .and_then(|j| j.get("state"))
        .and_then(Value::as_str)
        .expect("status carries the state")
        .to_string()
}

/// Polls until the job is done (panicking if it lands anywhere else).
fn wait_done(socket: &Path, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let state = job_state(socket, id);
        if state == "done" {
            return;
        }
        assert_ne!(state, "cancelled", "job {id} cancelled instead of done");
        assert!(
            Instant::now() < deadline,
            "job {id} never finished (stuck at {state:?})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A finished job's report rows, as the exact bytes `snakectl reports`
/// prints — the chaos invariant compares these across runs.
fn report_bytes(socket: &Path, id: u64) -> String {
    client::request(socket, &Request::Status { id: Some(id) })
        .expect("status answered")
        .get("job")
        .and_then(|j| j.get("reports"))
        .cloned()
        .unwrap_or(Value::Arr(Vec::new()))
        .to_string()
}

/// In-process restart: a journaled daemon finishes a sweep, shuts down
/// cleanly, and a second daemon over the same journal must report the
/// job as done with bit-identical report bytes — and hand the next
/// submission a fresh id, not a recycled one.
#[test]
fn restart_preserves_terminal_reports_bit_exactly() {
    let dir = scratch("restart");
    let journal = dir.join("state.jsonl");
    let first = DaemonOptions {
        socket: dir.join("a.sock"),
        state_log: Some(journal.clone()),
        checkpoint_every: None,
        quota_queued: None,
        quota_running: None,
        workers: 1,
        isolate: false,
    };
    let handle = serve::serve(&first).expect("first daemon starts");
    let id = submit(
        &first.socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: true,
            ..SubmitSpec::default()
        },
    );
    wait_done(&first.socket, id);
    let before = report_bytes(&first.socket, id);
    assert!(before.len() > 2, "finished job must carry report rows");
    client::request(&first.socket, &Request::Shutdown).expect("shutdown accepted");
    handle.join();

    let second = DaemonOptions {
        socket: dir.join("b.sock"),
        ..first
    };
    let handle = serve::serve(&second).expect("restart over the journal");
    assert_eq!(
        job_state(&second.socket, id),
        "done",
        "terminal state survives"
    );
    let after = report_bytes(&second.socket, id);
    assert_eq!(after, before, "recovered report bytes diverged");
    let next = submit(&second.socket, SubmitSpec::default());
    assert_eq!(next, id + 1, "recovered id counter must not recycle ids");
    client::request(&second.socket, &Request::Cancel { id: next }).expect("cancel accepted");
    client::request(&second.socket, &Request::Shutdown).expect("shutdown accepted");
    handle.join();
}

/// A journal holding a `submitted` line with no terminal line is an
/// orphan from a crash: on startup the daemon must re-queue it at its
/// original priority and run it to completion, balancing the journal.
#[test]
fn orphaned_submission_requeues_and_completes_on_startup() {
    let dir = scratch("orphan");
    let journal_path = dir.join("state.jsonl");
    let spec = SubmitSpec {
        benchmarks: Some("LPS".into()),
        mechanisms: Some("snake".into()),
        quick: true,
        priority: 3,
        ..SubmitSpec::default()
    };
    {
        // Hand-write the journal a crashed daemon would have left.
        let (_, j) = Journal::open(&journal_path).expect("journal opens");
        j.append(&JournalEvent::Submitted {
            id: 1,
            spec: spec.clone(),
        });
        j.append(&JournalEvent::Running { id: 1 });
        assert_eq!(j.errors(), 0);
    }
    let opts = DaemonOptions {
        socket: dir.join("snaked.sock"),
        state_log: Some(journal_path.clone()),
        checkpoint_every: None,
        quota_queued: None,
        quota_running: None,
        workers: 1,
        isolate: false,
    };
    let handle = serve::serve(&opts).expect("daemon replays the journal");
    wait_done(&opts.socket, 1);
    assert!(report_bytes(&opts.socket, 1).contains("snake"));
    assert_eq!(submit(&opts.socket, SubmitSpec::default()), 2);
    client::request(&opts.socket, &Request::Cancel { id: 2 }).expect("cancel accepted");
    client::request(&opts.socket, &Request::Shutdown).expect("shutdown accepted");
    handle.join();

    let text = std::fs::read_to_string(&journal_path).expect("journal readable");
    assert!(
        text.contains("\"event\":\"requeued\""),
        "recovery must journal the re-queue: {text}"
    );
    assert_eq!(
        text.matches("\"event\":\"submitted\"").count(),
        text.matches("\"terminal\":true").count(),
        "journal must balance: {text}"
    );
}

/// Spawns the real `snaked` binary with a journal and an aggressive
/// checkpoint cadence.
fn spawn_daemon(socket: &Path, journal: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_snaked"))
        .arg("--socket")
        .arg(socket)
        .arg("--state")
        .arg(journal)
        .arg("--checkpoint-every")
        .arg("500")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn snaked")
}

/// Waits until the daemon answers on its socket (replay included).
fn wait_ready(socket: &Path) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if client::request(socket, &Request::Status { id: None }).is_ok() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never became ready on {}",
            socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The chaos workload: long enough (seconds, between the cycle budget
/// and the fsync per checkpoint) that `kill -9` reliably lands
/// mid-simulation, deterministic so report bytes are comparable.
fn workload() -> SubmitSpec {
    SubmitSpec {
        benchmarks: Some("LPS".into()),
        mechanisms: Some("snake".into()),
        quick: false,
        budget: Some(200_000),
        window: Some(500),
        ..SubmitSpec::default()
    }
}

/// The acceptance gate: `kill -9` the daemon process at randomized
/// points, restart it over the same journal, repeat until the job
/// finishes — the final report bytes must equal an uninterrupted
/// run's, and the journal must balance. `CHAOS_TRIALS` (default 3)
/// scales the number of independent kill schedules.
#[test]
fn kill_nine_anywhere_yields_byte_identical_reports() {
    // Reference: the same workload through the same binary, unkilled.
    let reference = {
        let dir = scratch("chaos-ref");
        let socket = dir.join("snaked.sock");
        let journal = dir.join("state.jsonl");
        let mut child = spawn_daemon(&socket, &journal);
        wait_ready(&socket);
        let id = submit(&socket, workload());
        wait_done(&socket, id);
        let bytes = report_bytes(&socket, id);
        client::request(&socket, &Request::Shutdown).expect("shutdown accepted");
        child.wait().expect("daemon exits");
        bytes
    };
    assert!(reference.len() > 2, "reference run must produce reports");

    let trials: u64 = std::env::var("CHAOS_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let mut total_kills = 0u32;
    for trial in 0..trials {
        let dir = scratch(&format!("chaos-{trial}"));
        let socket = dir.join("snaked.sock");
        let journal = dir.join("state.jsonl");
        let mut child = spawn_daemon(&socket, &journal);
        wait_ready(&socket);
        let id = submit(&socket, workload());

        // Deterministic per-trial LCG so every trial kills at a
        // different schedule but failures replay exactly.
        let mut rng = 0x5_DEEC_E66Du64 ^ trial.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut kills = 0u32;
        loop {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = 30 + (rng >> 33) % 200;
            std::thread::sleep(Duration::from_millis(delay));
            if job_state(&socket, id) == "done" {
                break;
            }
            child.kill().expect("SIGKILL delivered");
            child.wait().expect("killed daemon reaped");
            kills += 1;
            assert!(
                kills < 200,
                "trial {trial}: job {id} made no progress after {kills} kills"
            );
            child = spawn_daemon(&socket, &journal);
            wait_ready(&socket);
        }

        let bytes = report_bytes(&socket, id);
        assert_eq!(
            bytes, reference,
            "trial {trial}: report bytes diverged after {kills} kills"
        );
        let text = std::fs::read_to_string(&journal).expect("journal readable");
        assert_eq!(
            text.matches("\"event\":\"submitted\"").count(),
            1,
            "trial {trial}: submit must be journaled exactly once"
        );
        assert_eq!(
            text.matches("\"terminal\":true").count(),
            1,
            "trial {trial}: exactly one terminal line must balance it"
        );
        client::request(&socket, &Request::Shutdown).expect("shutdown accepted");
        child.wait().expect("daemon exits");
        eprintln!("chaos trial {trial}: survived {kills} kills, reports identical");
        total_kills += kills;
    }
    assert!(
        total_kills >= 1,
        "the chaos loop never killed the daemon — workload too short for this machine"
    );
}

/// Isolation chaos: a sandboxed child dying by SIGSEGV or SIGKILL must
/// quarantine its own job with the decoded signal kind while the
/// daemon survives, finishes the sibling job normally, and reports a
/// healthy (non-degraded) sandbox executor.
#[test]
fn child_signal_deaths_quarantine_without_harming_the_daemon() {
    for (mode, want_kind) in [("segv", "signal 11"), ("kill9", "signal 9")] {
        let dir = scratch(&format!("isolate-{mode}"));
        let socket = dir.join("snaked.sock");
        let journal = dir.join("state.jsonl");
        let mut child = Command::new(env!("CARGO_BIN_EXE_snaked"))
            .arg("--socket")
            .arg(&socket)
            .arg("--state")
            .arg(&journal)
            .arg("--isolate")
            .env("SNAKE_EXEC_WORKER", env!("CARGO_BIN_EXE_repro"))
            .env("SNAKE_EXEC_CRASH", format!("CP/snake={mode}"))
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn snaked");
        wait_ready(&socket);
        let id = submit(
            &socket,
            SubmitSpec {
                benchmarks: Some("LPS,CP".into()),
                mechanisms: Some("snake".into()),
                quick: true,
                ..SubmitSpec::default()
            },
        );
        wait_done(&socket, id);

        let status = client::request(&socket, &Request::Status { id: Some(id) })
            .expect("status answered after the child died");
        let job = status.get("job").expect("job object");
        assert_eq!(
            job.get("exit").and_then(Value::as_u64),
            Some(3),
            "{mode}: a quarantined job yields the sweep quarantine exit"
        );
        let quarantined = job
            .get("quarantined")
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("{mode}: done status must carry the quarantined array"));
        assert_eq!(quarantined.len(), 1, "{mode}: exactly the crashed job");
        let note = &quarantined[0];
        assert_eq!(note.get("job").and_then(Value::as_str), Some("CP/snake"));
        assert_eq!(
            note.get("crash").and_then(Value::as_str),
            Some(want_kind),
            "{mode}: crash kind must decode from the child's wait status"
        );

        let reports = report_bytes(&socket, id);
        assert!(
            reports.contains("LPS/snake"),
            "{mode}: the sibling job must finish normally: {reports}"
        );
        let health = client::request(&socket, &Request::Health).expect("health answered");
        assert_eq!(
            health.get("exec_degraded").and_then(Value::as_bool),
            Some(false),
            "{mode}: child crashes are contained, not an executor degradation"
        );
        client::request(&socket, &Request::Shutdown).expect("shutdown accepted");
        child.wait().expect("daemon exits");
    }
}
