//! End-to-end tests for the `snaked` telemetry daemon: an in-process
//! daemon on a temp socket, driven through exactly the client
//! functions `snakectl` ships. Covers the acceptance contract —
//! subscribe mid-run and receive cycle-stamped window rows with exact
//! drop accounting, zero-subscriber runs whose report bytes are
//! bit-identical to a daemon-free run, cancellation surfacing as a
//! distinct exit code — plus the multi-tenant hardening: typed quota
//! rejections that never affect other clients, deadline slices that
//! suspend-to-checkpoint and requeue without changing final bytes,
//! reconnectable tails, counted subscriber disconnects, a cancel that
//! wins every race with checkpointing, and a journal that degrades
//! loudly (never silently, never fatally) when its disk fails.
//!
//! Kill -9 crash/recovery is exercised separately in `serve_chaos.rs`
//! (it needs real processes to kill).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use snake_bench::serve::{self, DaemonHandle, DaemonOptions, Request, SubmitSpec, EXIT_CANCELLED};
use snake_bench::Harness;
use snake_core::json::Value;
use snake_core::PrefetcherKind;
use snake_workloads::Benchmark;

use serve::client;
use serve::journal;

/// A fresh per-test scratch directory (sockets, journals, checkpoints).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snake-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Default options on a test-unique socket inside `dir`.
fn options(dir: &Path) -> DaemonOptions {
    DaemonOptions {
        socket: dir.join("snaked.sock"),
        state_log: None,
        checkpoint_every: None,
        quota_queued: None,
        quota_running: None,
        workers: 1,
        isolate: false,
    }
}

/// Starts an in-process daemon on a test-unique temp socket.
fn daemon(name: &str) -> (PathBuf, DaemonHandle) {
    let opts = options(&scratch(name));
    let handle = serve::serve(&opts).expect("daemon starts");
    (opts.socket, handle)
}

/// Submits a spec and returns the assigned job id.
fn submit(socket: &Path, spec: SubmitSpec) -> u64 {
    client::request(socket, &Request::Submit(spec))
        .expect("submit accepted")
        .get("id")
        .and_then(Value::as_u64)
        .expect("submit response carries the job id")
}

/// Polls one job's status until it reaches `want`, returning the job
/// object. Panics on an unexpected terminal state or a stuck daemon.
fn wait_for(socket: &Path, id: u64, want: &str) -> Value {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp =
            client::request(socket, &Request::Status { id: Some(id) }).expect("status answered");
        let job = resp.get("job").expect("status carries the job").clone();
        let state = job.get("state").and_then(Value::as_str).unwrap_or("?");
        if state == want {
            return job;
        }
        assert!(
            !matches!(state, "done" | "cancelled"),
            "job {id} terminal as {state:?} while waiting for {want:?}"
        );
        assert!(
            Instant::now() < deadline,
            "job {id} never reached {want:?} (stuck at {state:?})"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// A job that outlasts any check made while it runs, at any simulator
/// speed: the whole standard-size campaign (every app under every
/// mechanism), which simulates orders of magnitude more cycles than the
/// quick jobs the tests race against it. Tests cancel it (or shut the
/// daemon down) once they are done with it.
fn held_job(budget: u64, client: Option<&str>) -> SubmitSpec {
    SubmitSpec {
        benchmarks: None,
        mechanisms: None,
        quick: false,
        budget: Some(budget),
        client: client.map(str::to_string),
        ..SubmitSpec::default()
    }
}

/// Polls the daemon's state journal until a line contains `needle`.
fn wait_for_journal(state: &Path, needle: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    while !std::fs::read_to_string(state).is_ok_and(|text| text.contains(needle)) {
        assert!(
            Instant::now() < deadline,
            "journal never recorded {needle:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Shuts the daemon down and joins its threads.
fn shutdown(socket: &Path, handle: DaemonHandle) {
    client::request(socket, &Request::Shutdown).expect("shutdown accepted");
    handle.join();
}

/// Submit a two-job sweep with full event streaming and tail it while
/// it runs: the stream must carry at least one window row, cycles must
/// be non-decreasing within each job, and the `done` line's
/// delivered/dropped totals must match the stream exactly
/// ([`client::tail`] errors on any accounting mismatch).
#[test]
fn tail_mid_run_streams_cycle_stamped_windows_with_exact_accounting() {
    let (socket, handle) = daemon("tail");
    // Standard harness with a cycle budget: each job runs far longer
    // than the tail's subscription latency, so the tail reliably
    // attaches mid-run and observes live windows.
    let id = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: false,
            budget: Some(30_000),
            window: Some(200),
            events: true,
            ..SubmitSpec::default()
        },
    );

    let mut windows = 0u64;
    let mut events = 0u64;
    let mut last_cycle: HashMap<String, u64> = HashMap::new();
    let end = client::tail(&socket, id, |v| {
        let kind = v.get("type").and_then(Value::as_str).unwrap_or("");
        if kind != "window" && kind != "event" {
            return;
        }
        let job = v
            .get("job")
            .and_then(Value::as_str)
            .expect("record carries its job id")
            .to_string();
        let cycle = v
            .get("cycle")
            .and_then(Value::as_u64)
            .expect("record is cycle-stamped");
        let prev = last_cycle.entry(job).or_insert(0);
        assert!(
            cycle >= *prev,
            "cycle went backwards within a job: {cycle} after {prev}"
        );
        *prev = cycle;
        if kind == "window" {
            windows += 1;
        } else {
            events += 1;
        }
    })
    .expect("tail stream verifies end-to-end");

    assert!(windows >= 1, "tail saw no window rows");
    assert!(events >= 1, "tail saw no trace events despite events:true");
    assert_eq!(end.state, "done");
    assert_eq!(end.exit, 0);
    assert_eq!(end.delivered, windows + events);
    assert!(
        !last_cycle.is_empty(),
        "tail attached but observed no job at all"
    );

    shutdown(&socket, handle);
}

/// With no tail attached, the telemetry plane must be invisible: the
/// report the daemon publishes for a job is byte-for-byte identical to
/// the report a plain daemon-free [`Harness`] run produces — same
/// config, no ring, no daemon.
#[test]
fn zero_subscriber_daemon_report_bytes_match_daemon_free_run() {
    let (socket, handle) = daemon("quiet");
    let id = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("snake".into()),
            quick: true,
            ..SubmitSpec::default() // daemon defaults the window to 500
        },
    );

    // Poll status — never tail — so the job runs with zero subscribers.
    let job = wait_for(&socket, id, "done");
    assert_eq!(job.get("exit").and_then(Value::as_u64), Some(0));
    let reports = match job.get("reports") {
        Some(Value::Arr(rows)) => rows.clone(),
        other => panic!("done status must carry reports, got {other:?}"),
    };
    assert_eq!(reports.len(), 1);
    let daemon_report = reports[0]
        .get("report")
        .expect("report row present")
        .to_string();
    let daemon_stop = reports[0]
        .get("stop")
        .and_then(Value::as_str)
        .expect("stop label present")
        .to_string();

    // The daemon-free reference: same harness the daemon resolves for
    // this spec (quick + metrics window 500), no ring anywhere.
    let mut harness = Harness::quick();
    harness.cfg.metrics_window = Some(500);
    let direct = harness
        .run_job(Benchmark::Lps, PrefetcherKind::Snake)
        .expect("direct run succeeds");
    assert_eq!(
        daemon_report,
        direct.report.to_json().to_string(),
        "telemetry plane perturbed the simulation (observer effect)"
    );
    assert_eq!(daemon_stop, direct.stop.label());

    shutdown(&socket, handle);
}

/// Cancelling a job makes its tail terminate with the distinct
/// cancelled exit code, never a fake success.
#[test]
fn cancelled_job_tails_as_cancelled_with_distinct_exit_code() {
    let (socket, handle) = daemon("cancel");
    // Occupy the single scheduler slot so the victim stays queued.
    let _busy = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS,CP".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: true,
            budget: Some(50_000),
            window: Some(500),
            ..SubmitSpec::default()
        },
    );
    let victim = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("snake".into()),
            quick: true,
            ..SubmitSpec::default()
        },
    );

    client::request(&socket, &Request::Cancel { id: victim }).expect("cancel accepted");
    let end = client::tail(&socket, victim, |_| {}).expect("tail of cancelled job verifies");
    assert_eq!(end.state, "cancelled");
    assert_eq!(end.exit, EXIT_CANCELLED);

    shutdown(&socket, handle);
}

/// A client at its queued quota gets the *typed* `"quota"` rejection —
/// and other clients (and the anonymous bucket) are untouched.
#[test]
fn quota_rejection_is_typed_and_leaves_other_clients_alone() {
    let dir = scratch("quota");
    let opts = DaemonOptions {
        quota_queued: Some(1),
        ..options(&dir)
    };
    let socket = opts.socket.clone();
    let handle = serve::serve(&opts).expect("daemon starts");

    // A long-running job occupies the scheduler; Running jobs do not
    // count against the *queued* quota.
    let busy = submit(&socket, held_job(60_000, Some("alice")));
    wait_for(&socket, busy, "running");

    let queued = SubmitSpec {
        benchmarks: Some("LPS".into()),
        mechanisms: Some("snake".into()),
        quick: true,
        client: Some("alice".into()),
        ..SubmitSpec::default()
    };
    let _alice_queued = submit(&socket, queued.clone());
    // Second queued submit for alice: rejected, typed, no job id burned.
    let err = client::request(&socket, &Request::Submit(queued.clone()))
        .expect_err("over-quota submit must be rejected");
    assert!(
        err.has_code("quota"),
        "rejection must carry the typed quota code, got {err:?}"
    );
    assert!(
        err.to_string().contains("alice"),
        "rejection names the client: {err}"
    );
    // A different client and the anonymous bucket are unaffected.
    let bob = submit(
        &socket,
        SubmitSpec {
            client: Some("bob".into()),
            ..queued.clone()
        },
    );
    let anon = submit(
        &socket,
        SubmitSpec {
            client: None,
            ..queued
        },
    );
    assert!(bob > 0 && anon > 0);

    shutdown(&socket, handle);
}

/// With a running-jobs quota, the scheduler passes over a saturated
/// client's queued work — without starving anyone else — and picks it
/// back up the moment a slot frees.
#[test]
fn running_quota_holds_a_client_without_starving_others() {
    let dir = scratch("runquota");
    let opts = DaemonOptions {
        quota_running: Some(1),
        // Two workers: without concurrency a running quota of 1 can
        // never be the thing holding alice's second job back.
        workers: 2,
        ..options(&dir)
    };
    let socket = opts.socket.clone();
    let handle = serve::serve(&opts).expect("daemon starts");

    let long = submit(&socket, held_job(120_000, Some("alice")));
    wait_for(&socket, long, "running");
    let quick = SubmitSpec {
        benchmarks: Some("LPS".into()),
        mechanisms: Some("snake".into()),
        quick: true,
        ..SubmitSpec::default()
    };
    let alice2 = submit(
        &socket,
        SubmitSpec {
            client: Some("alice".into()),
            ..quick.clone()
        },
    );
    let bob = submit(
        &socket,
        SubmitSpec {
            client: Some("bob".into()),
            ..quick
        },
    );
    // Bob was submitted *after* alice2 at the same priority, yet runs
    // first: alice is at her running quota, and the scheduler must not
    // let her queued job block the line.
    let job = wait_for(&socket, bob, "done");
    assert_eq!(job.get("exit").and_then(Value::as_u64), Some(0));
    let alice2_state = client::request(&socket, &Request::Status { id: Some(alice2) })
        .expect("status answered")
        .get("job")
        .and_then(|j| j.get("state"))
        .and_then(Value::as_str)
        .map(str::to_string);
    assert_eq!(
        alice2_state.as_deref(),
        Some("queued"),
        "alice's second job must wait for her running slot"
    );
    // Freeing the slot un-blocks her immediately.
    client::request(&socket, &Request::Cancel { id: long }).expect("cancel accepted");
    wait_for(&socket, alice2, "done");

    shutdown(&socket, handle);
}

/// A per-job deadline suspends the running simulation to a checkpoint,
/// requeues the sweep, and later slices resume mid-simulation — and
/// the final report bytes are identical to a run that was never
/// preempted (checkpoint/restore is bit-exact).
#[test]
fn deadline_slices_suspend_requeue_and_finish_byte_identically() {
    let dir = scratch("deadline");
    let state = dir.join("state.jsonl");
    let opts = DaemonOptions {
        state_log: Some(state.clone()),
        checkpoint_every: Some(1000),
        ..options(&dir)
    };
    let socket = opts.socket.clone();
    let handle = serve::serve(&opts).expect("daemon starts");

    let id = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("snake".into()),
            quick: false,
            budget: Some(30_000),
            window: Some(200),
            // Far below the run's wall time (30k cycles plus fsync'd
            // checkpoints), so slices reliably expire; progress is
            // still guaranteed — each slice advances at least one
            // deadline-poll block before it can suspend.
            deadline_ms: Some(5),
            ..SubmitSpec::default()
        },
    );
    let job = wait_for(&socket, id, "done");
    assert_eq!(job.get("exit").and_then(Value::as_u64), Some(0));
    let reports = match job.get("reports") {
        Some(Value::Arr(rows)) => rows.clone(),
        other => panic!("done status must carry reports, got {other:?}"),
    };
    assert_eq!(reports.len(), 1);
    let daemon_report = reports[0].get("report").expect("report row").to_string();

    // The journal must show the deadline actually fired: at least one
    // requeue beyond the initial queueing, and a checkpoint record.
    let journal = std::fs::read_to_string(&state).expect("journal readable");
    assert!(
        journal.contains("\"event\":\"requeued\""),
        "no requeue journaled — the deadline never fired:\n{journal}"
    );
    assert!(
        journal.contains("\"event\":\"checkpoint\""),
        "no checkpoint journaled:\n{journal}"
    );

    // Byte-identity with an unpreempted daemon-free run of the same
    // resolved config (standard harness, budget, window, checkpointing
    // enabled but never suspended).
    let mut harness = Harness::standard();
    harness.cfg.cycle_budget = Some(snake_sim::Cycle(30_000));
    harness.cfg.metrics_window = Some(200);
    let direct = harness
        .run_job(Benchmark::Lps, PrefetcherKind::Snake)
        .expect("direct run succeeds");
    assert_eq!(
        daemon_report,
        direct.report.to_json().to_string(),
        "deadline preemption changed the simulation's bytes"
    );

    shutdown(&socket, handle);
}

/// A submit with a field of the wrong type is refused outright. Read
/// as its default, this one would queue every benchmark under every
/// mechanism on the standard harness with no budget.
#[test]
fn mistyped_submit_is_rejected_and_queues_nothing() {
    let (socket, handle) = daemon("mistyped");
    let mut stream = UnixStream::connect(&socket).expect("connect");
    writeln!(
        stream,
        r#"{{"op":"submit","benchmarks":["LPS"],"budget":"100","quick":"yes"}}"#
    )
    .expect("send submit");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("submit answered");
    let response = snake_core::json::parse(line.trim()).expect("response json");
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(false),
        "{line}"
    );
    let status = client::request(&socket, &Request::Status { id: None }).expect("status");
    assert_eq!(
        status
            .get("jobs")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0),
        "nothing may be queued: {status}"
    );

    shutdown(&socket, handle);
}

/// `tail --from-seq`/`--ring` resume a cut-off subscription: a second
/// tail starting mid-stream sees exactly the suffix, with the same
/// verified sequence arithmetic.
#[test]
fn tail_from_seq_resumes_mid_stream_with_exact_accounting() {
    let (socket, handle) = daemon("fromseq");
    // Standard harness with a budget: the job runs long enough to cut
    // a tail mid-stream and reconnect while windows are still flowing.
    let id = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("snake".into()),
            quick: false,
            budget: Some(30_000),
            window: Some(200),
            ..SubmitSpec::default()
        },
    );
    // First connection: a raw tail, cut off after a few records — the
    // "ssh dropped" scenario. Remember the last sequence we saw.
    //
    // The connection stays open, unread, until the resumed tail has
    // subscribed: its subscription is still live then, so the ring
    // keeps every record and the reconnect gets exactly `from..`
    // whether or not the job has finished by now. (With no subscriber
    // left the ring releases its buffer, so closing first would make
    // the result depend on host speed.)
    let mut cut_at = None;
    let stream = UnixStream::connect(&socket).expect("connect");
    {
        let mut w = &stream;
        writeln!(
            w,
            "{}",
            Request::Tail {
                id,
                ring: 0,
                from: None
            }
            .to_json()
        )
        .expect("send tail request");
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        let mut records = 0;
        while records < 3 {
            line.clear();
            assert!(reader.read_line(&mut line).expect("stream line") > 0);
            let v = snake_core::json::parse(line.trim()).expect("stream json");
            if let Some(seq) = v.get("seq").and_then(Value::as_u64) {
                records += 1;
                cut_at = Some(seq);
            }
        }
    }
    let from = cut_at.expect("saw records before the cut") + 1;

    // Reconnect where the first connection died. `tail_from` verifies
    // the stream's sequence arithmetic internally (gaps vs. the done
    // line), so a successful return *is* the exactness proof; on top
    // of that the resumed tail must actually deliver the live suffix.
    // The first connection drops once the resumed subscription exists.
    let mut first = Some(stream);
    let resumed = client::tail_from(&socket, id, 0, Some(from), |v| {
        if v.get("type").and_then(Value::as_str) == Some("stream") {
            first = None;
        }
    })
    .expect("resumed tail");
    assert!(first.is_none(), "the resumed tail opened its ring");
    assert_eq!(resumed.state, "done");
    assert_eq!(
        resumed.exit, 0,
        "job must complete while we tailed: {resumed:?}"
    );
    assert!(
        resumed.delivered >= 1,
        "a mid-run reconnect must catch live records: {resumed:?}"
    );

    // After completion every subscription is gone and the ring's
    // buffer is released; a from-origin reconnect now delivers nothing
    // but must still account for the *entire* stream as drops. That
    // total pins the resumed tail's coverage: prefix + suffix = all.
    let post = client::tail_from(&socket, id, 0, Some(0), |_| {}).expect("post-done tail");
    assert_eq!(post.state, "done");
    assert_eq!(
        post.delivered + post.dropped,
        from + resumed.delivered + resumed.dropped,
        "cut prefix plus resumed suffix must cover the whole stream"
    );
    // Resuming past the end of the first ring via --ring: skip it
    // entirely (this sweep has exactly one ring, so nothing arrives).
    let skipped = client::tail_from(&socket, id, 1, None, |_| {}).expect("ring-skip tail");
    assert_eq!(skipped.delivered, 0);

    shutdown(&socket, handle);
}

/// A tail subscriber that vanishes mid-stream never stalls the job —
/// the daemon drops the subscription, counts it in `health`, and the
/// simulation finishes normally.
#[test]
fn vanishing_tail_subscriber_is_counted_and_never_stalls_the_job() {
    let (socket, handle) = daemon("vanish");
    let id = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: false,
            budget: Some(30_000),
            window: Some(200),
            events: true,
            ..SubmitSpec::default()
        },
    );
    // A raw tail connection, abandoned after the handshake: the daemon
    // keeps writing into a dead socket until the kernel reports it.
    {
        let stream = UnixStream::connect(&socket).expect("connect");
        {
            let mut w = &stream;
            writeln!(
                w,
                "{}",
                Request::Tail {
                    id,
                    ring: 0,
                    from: None
                }
                .to_json()
            )
            .expect("send tail request");
        }
        let mut reader = BufReader::new(&stream);
        let mut line = String::new();
        reader.read_line(&mut line).expect("ok line");
        // Dropped here: the subscriber vanishes mid-run.
    }

    let job = wait_for(&socket, id, "done");
    assert_eq!(job.get("exit").and_then(Value::as_u64), Some(0));
    // The disconnect surfaces in health (the write error may land a
    // moment after the socket closes).
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let health = client::request(&socket, &Request::Health).expect("health answered");
        if health
            .get("tails_disconnected")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1
        {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never counted the vanished subscriber: {health}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    shutdown(&socket, handle);
}

/// Cancellation wins every race with checkpointing: cancelling a job
/// that checkpoints aggressively still exits with the cancelled code,
/// and no checkpoint artifact survives — on disk or in the journal's
/// live set (a restart must not resurrect a cancelled job).
#[test]
fn cancel_during_checkpointing_leaves_no_stray_artifact() {
    let dir = scratch("cancelrace");
    let state = dir.join("state.jsonl");
    let opts = DaemonOptions {
        state_log: Some(state.clone()),
        checkpoint_every: Some(200), // aggressive: many writes in flight
        ..options(&dir)
    };
    let socket = opts.socket.clone();
    let handle = serve::serve(&opts).expect("daemon starts");

    let id = submit(&socket, held_job(60_000, None));
    wait_for(&socket, id, "running");
    // Let it write at least one checkpoint before the cancel lands.
    wait_for_journal(&state, "\"event\":\"checkpoint\"");
    client::request(&socket, &Request::Cancel { id }).expect("cancel accepted");
    let end = client::tail(&socket, id, |_| {}).expect("tail verifies");
    assert_eq!(end.state, "cancelled");
    assert_eq!(end.exit, EXIT_CANCELLED);

    // No checkpoint artifact may survive the cancel.
    let stray: Vec<String> = std::fs::read_dir(&dir)
        .expect("scratch dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    assert!(
        stray.is_empty(),
        "cancelled job left checkpoints: {stray:?}"
    );
    // And a restart must not resurrect the cancelled job: replaying
    // the journal through the daemon's own recovery fold must find
    // checkpoints were written, but none left live.
    let journal_text = std::fs::read_to_string(&state).expect("journal readable");
    assert!(
        journal_text.contains("\"event\":\"checkpoint\""),
        "budget 60k at cadence 200 never checkpointed:\n{journal_text}"
    );
    let recovered = journal::recover(&journal::load(&state).expect("journal loads"));
    for job in &recovered.jobs {
        assert!(
            job.live_checkpoints.is_empty(),
            "job {} kept live checkpoints after cancel: {:?}",
            job.id,
            job.live_checkpoints
        );
        assert!(job.terminal.is_some(), "job {} left non-terminal", job.id);
    }

    shutdown(&socket, handle);
}

/// When the journal's disk fails mid-flight the daemon degrades
/// gracefully: jobs keep running and completing, and the failure is
/// *counted* and surfaced in `status`/`health` — never silent, never
/// fatal. `/dev/full` accepts opens and fails every write with ENOSPC.
#[test]
fn journal_disk_failure_degrades_loudly_but_jobs_still_complete() {
    let dev_full = Path::new("/dev/full");
    if std::fs::metadata(dev_full).is_err() {
        eprintln!("skipping: /dev/full not available on this platform");
        return;
    }
    let dir = scratch("degraded");
    let opts = DaemonOptions {
        state_log: Some(dev_full.to_path_buf()),
        checkpoint_every: Some(1000),
        ..options(&dir)
    };
    let socket = opts.socket.clone();
    let handle = serve::serve(&opts).expect("daemon starts even on a failing journal disk");

    let id = submit(
        &socket,
        SubmitSpec {
            benchmarks: Some("LPS".into()),
            mechanisms: Some("snake".into()),
            quick: true,
            ..SubmitSpec::default()
        },
    );
    let job = wait_for(&socket, id, "done");
    assert_eq!(
        job.get("exit").and_then(Value::as_u64),
        Some(0),
        "journal failure must not fail the job"
    );

    let health = client::request(&socket, &Request::Health).expect("health answered");
    assert_eq!(
        health.get("journal").and_then(Value::as_str),
        Some("degraded")
    );
    assert_eq!(
        health.get("journal_degraded").and_then(Value::as_bool),
        Some(true)
    );
    assert!(
        health
            .get("journal_errors")
            .and_then(Value::as_u64)
            .unwrap_or(0)
            >= 1,
        "errors must be counted: {health}"
    );
    // The same counters ride on every status response.
    let status = client::request(&socket, &Request::Status { id: None }).expect("status");
    assert_eq!(
        status.get("journal_degraded").and_then(Value::as_bool),
        Some(true)
    );

    shutdown(&socket, handle);
}
