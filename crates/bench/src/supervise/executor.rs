//! Process-isolated job execution: the [`JobExecutor`] abstraction
//! behind the sweep supervisor and the `snaked` scheduler.
//!
//! Two execution modes share one contract:
//!
//! - **In-thread** — the historical path: the job runs on the calling
//!   worker thread behind `catch_unwind`. Cheap, but a job that
//!   aborts, overflows its stack, segfaults, or gets OOM-killed takes
//!   the whole supervisor (and every co-tenant's jobs) down with it.
//! - **Sandbox** — the job runs in a *subprocess*: the `repro` binary
//!   re-executed in its hidden `--exec-job` worker mode. The job spec
//!   travels down a pipe as one NDJSON line (the complete harness is
//!   serialized field-by-field through `snake_core::json`, so the
//!   child reconstructs it bit-exactly), and the child streams
//!   telemetry window rows, checkpoint notices, and one terminal line
//!   back up. Per-job rlimits (address space, CPU time) are applied
//!   via a `/bin/sh` `ulimit` wrapper — the workspace is
//!   dependency-free, so no `libc` — and a supervisor-side wall-clock
//!   lease ends in `SIGKILL`.
//!
//! Child death is decoded into a typed [`CrashKind`] that flows into
//! quarantine records, the daemon journal, `snakectl status`, and the
//! retry policy. Reports are **byte-identical** across executors: the
//! harness, the report, and the stop reason all round-trip through
//! lexeme-preserving JSON. A killed child resumes from its newest
//! durable checkpoint exactly as a deadline-suspended job does, and a
//! failed `spawn` degrades gracefully to in-thread execution with a
//! sticky health flag (see [`JobExecutor::degraded`]).

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use snake_core::json::{self, Value};
use snake_core::MechanismReport;
use snake_sim::snapshot::Checkpoint;
use snake_sim::{
    Brownout, CacheGeometry, EnergyModel, FaultPlan, GpuConfig, HostProfile, MetricsSample, Phase,
    PhaseStat, Recovery, SchedulerPolicy, SimError, StopReason, TelemetryRecord, TelemetryRing,
};
use snake_workloads::WorkloadSize;

use super::JobSpec;
use crate::runner::{ExecContext, Harness, JobRun, RunOutput};

/// Environment variable overriding the worker binary the sandbox
/// re-executes (normally the `repro` binary is located automatically).
/// Pointing it at something that is not a worker is a supported chaos
/// hook: a missing path exercises the degrade-to-in-thread fallback,
/// a misbehaving one exercises [`CrashKind::ProtocolError`].
pub const WORKER_ENV: &str = "SNAKE_EXEC_WORKER";

/// Environment variable injecting crashes into sandboxed children for
/// tests and CI smokes: a comma-separated list of `<job-id>=<mode>`
/// pairs, where mode is `abort`, `oom` (address-space blowout),
/// `segv`, `kill9`, or `hang`. Read only inside the `--exec-job`
/// worker, after the job spec is parsed — the supervisor process is
/// never affected.
pub const CRASH_ENV: &str = "SNAKE_EXEC_CRASH";

/// How a sandboxed child died, decoded from its wait status and
/// captured stderr. The kind is preserved through retries into the
/// quarantine record, the manifest, the daemon journal, and
/// `snakectl status`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// The child panicked (Rust panic exit code 101). Panics are
    /// deterministic under the fixed seeds, so the sandbox does not
    /// retry them.
    Panic,
    /// The child was killed by the given signal (SIGABRT 6,
    /// SIGSEGV 11, SIGKILL 9, ...).
    Signal(i32),
    /// The child died failing to allocate memory: SIGABRT with the
    /// Rust allocation-failure signature on stderr — the shape an
    /// address-space rlimit produces.
    OomKilled,
    /// The child exceeded its CPU rlimit (SIGXCPU) or its
    /// supervisor-side wall-clock lease (SIGKILL from the lease
    /// monitor).
    TimedOut,
    /// The child exited without a valid terminal protocol line — a
    /// torn pipe, truncated NDJSON, or an unexpected exit code. Never
    /// mis-parsed into a report: anything short of a byte-exact
    /// terminal line lands here.
    ProtocolError,
}

/// SIGXCPU — delivered when the `ulimit -t` CPU rlimit expires.
const SIGXCPU: i32 = 24;
/// SIGABRT — `std::process::abort()` and the Rust alloc-error handler.
const SIGABRT: i32 = 6;

impl CrashKind {
    /// Stable lower-case label used in manifests, the journal, and
    /// status output (`"panic"`, `"signal 11"`, `"oom"`, `"timeout"`,
    /// `"protocol"`).
    pub fn label(&self) -> String {
        match self {
            CrashKind::Panic => "panic".into(),
            CrashKind::Signal(n) => format!("signal {n}"),
            CrashKind::OomKilled => "oom".into(),
            CrashKind::TimedOut => "timeout".into(),
            CrashKind::ProtocolError => "protocol".into(),
        }
    }

    /// Parses a [`CrashKind::label`] back; `None` for foreign strings
    /// (old manifests carry no kind at all, never a bad one).
    pub fn parse(label: &str) -> Option<CrashKind> {
        match label {
            "panic" => Some(CrashKind::Panic),
            "oom" => Some(CrashKind::OomKilled),
            "timeout" => Some(CrashKind::TimedOut),
            "protocol" => Some(CrashKind::ProtocolError),
            other => {
                let n = other.strip_prefix("signal ")?;
                n.parse().ok().map(CrashKind::Signal)
            }
        }
    }

    /// Whether the supervisor should spend retry budget on this kind.
    /// Panics are deterministic (fixed seeds) and a timeout would just
    /// burn the lease again from the same state, so neither retries;
    /// signals, OOM kills, and protocol tears may be environmental and
    /// retry into quarantine with the kind preserved.
    pub fn retryable(&self) -> bool {
        !matches!(self, CrashKind::Panic | CrashKind::TimedOut)
    }
}

impl std::fmt::Display for CrashKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// A decoded child death: the kind, a one-line description, and the
/// tail of the child's captured stderr (bounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashReport {
    /// What killed the child.
    pub kind: CrashKind,
    /// Human-readable one-liner for the quarantine table.
    pub message: String,
    /// Last stderr excerpt (panic message, abort notice, ...), empty
    /// when the child wrote nothing.
    pub stderr: String,
}

/// Why an executor run failed — richer than [`SimError`] because a
/// sandboxed child can die in ways an in-thread run cannot.
#[derive(Debug)]
pub enum ExecError {
    /// A typed simulator error from the in-thread path (invalid
    /// configuration, unusable checkpoint). Deterministic: quarantined
    /// without retry.
    Sim(SimError),
    /// A typed error reported *by the child* over the protocol — the
    /// sandboxed twin of [`ExecError::Sim`]. Quarantined without
    /// retry.
    Typed(String),
    /// A retryable in-band failure (a deadlocked run reported by the
    /// child); handled exactly like an in-thread deadlock.
    Failure(String),
    /// The child process died; see [`CrashReport`].
    Crash(CrashReport),
}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Sim(e) => write!(f, "{e}"),
            ExecError::Typed(m) | ExecError::Failure(m) => f.write_str(m),
            ExecError::Crash(c) => write!(f, "{}: {}", c.kind, c.message),
        }
    }
}

/// Decodes a child wait status (plus its captured stderr and whether
/// the supervisor's lease monitor fired) into a [`CrashKind`].
///
/// Only called when the child did *not* deliver a valid terminal
/// protocol line — a clean exit without one is a protocol error by
/// definition.
pub fn decode_exit(status: &ExitStatus, stderr: &str, lease_killed: bool) -> CrashKind {
    use std::os::unix::process::ExitStatusExt;
    if lease_killed {
        return CrashKind::TimedOut;
    }
    match status.signal() {
        Some(SIGXCPU) => CrashKind::TimedOut,
        Some(SIGABRT) if is_alloc_failure(stderr) => CrashKind::OomKilled,
        Some(n) => CrashKind::Signal(n),
        None => match status.code() {
            Some(101) => CrashKind::Panic,
            _ => CrashKind::ProtocolError,
        },
    }
}

/// The Rust alloc-error handler prints
/// `memory allocation of N bytes failed` before aborting — the
/// signature that distinguishes an OOM abort from a plain abort.
fn is_alloc_failure(stderr: &str) -> bool {
    stderr.contains("memory allocation of") && stderr.contains("failed")
}

/// Resource limits for sandboxed children, applied via `ulimit` in the
/// spawn wrapper. `None` fields are unlimited. The wall-clock lease is
/// the job's [`ExecContext::deadline`], enforced supervisor-side with
/// `SIGKILL`: the job then either resumes from its newest checkpoint
/// or is quarantined as [`CrashKind::TimedOut`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SandboxLimits {
    /// Address-space cap in MiB (`ulimit -v`).
    pub mem_mb: Option<u64>,
    /// CPU-time cap in seconds (`ulimit -t`, delivers SIGXCPU).
    pub cpu_secs: Option<u64>,
}

/// How a [`JobExecutor`] runs jobs.
#[derive(Debug, Clone)]
enum ExecMode {
    /// On the calling thread, behind `catch_unwind` (historical path).
    InThread,
    /// In a sandboxed subprocess with the given limits.
    Sandbox {
        limits: SandboxLimits,
        /// Worker binary override (tests); `None` resolves `repro`
        /// automatically.
        worker: Option<PathBuf>,
    },
}

/// A job execution strategy shared by a whole campaign (or daemon):
/// either the historical in-thread path or the subprocess sandbox,
/// with one sticky degradation flag across all jobs.
#[derive(Debug)]
pub struct JobExecutor {
    mode: ExecMode,
    /// Set (and never cleared) when a sandbox spawn failed and the job
    /// fell back to in-thread execution; surfaced in `repro` warnings
    /// and daemon `health`.
    degraded: AtomicBool,
}

impl JobExecutor {
    /// The historical in-thread executor.
    pub fn in_thread() -> Self {
        JobExecutor {
            mode: ExecMode::InThread,
            degraded: AtomicBool::new(false),
        }
    }

    /// A subprocess sandbox executor. The worker binary is the
    /// [`WORKER_ENV`] override if set, otherwise the `repro` binary
    /// located relative to the current executable.
    pub fn sandbox(limits: SandboxLimits) -> Self {
        let worker = std::env::var_os(WORKER_ENV).map(PathBuf::from);
        JobExecutor {
            mode: ExecMode::Sandbox { limits, worker },
            degraded: AtomicBool::new(false),
        }
    }

    /// A sandbox executor with an explicit worker binary (tests).
    pub fn sandbox_with_worker(limits: SandboxLimits, worker: PathBuf) -> Self {
        JobExecutor {
            mode: ExecMode::Sandbox {
                limits,
                worker: Some(worker),
            },
            degraded: AtomicBool::new(false),
        }
    }

    /// Sticky health flag: a sandbox spawn failed at least once and
    /// execution degraded to in-thread. Never set by the in-thread
    /// executor.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Runs one job to a [`JobRun`], dispatching on the executor mode:
    /// in-thread (and after a failed sandbox spawn) this is
    /// [`Harness::run_job_with`]; a sandboxed child makes the same call
    /// on its side. `on_checkpoint(cycle, bytes)` fires after every
    /// durable checkpoint write (the child's writes included — the
    /// supervisor can journal them before anything else crashes).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] for simulator errors (both executors) and
    /// decoded child deaths (sandbox only).
    pub fn run(
        &self,
        h: &Harness,
        job: &JobSpec,
        ctx: &ExecContext<'_>,
        on_checkpoint: &mut dyn FnMut(u64, u64),
    ) -> Result<JobRun, ExecError> {
        if let ExecMode::Sandbox { limits, worker } = &self.mode {
            if !self.degraded() {
                match run_sandbox(h, job, ctx, limits, worker.as_deref(), on_checkpoint) {
                    Ok(result) => return result,
                    Err(spawn_err) => {
                        self.degraded.store(true, Ordering::Relaxed);
                        eprintln!(
                            "supervise: sandbox spawn failed ({spawn_err}); \
                             degrading to in-thread execution"
                        );
                    }
                }
            }
        }
        h.run_job_with(job.bench, job.kind, ctx, on_checkpoint)
            .map_err(ExecError::from)
    }
}

// ---------------------------------------------------------------------------
// Sandbox parent side
// ---------------------------------------------------------------------------

/// Locates the worker binary when no override is given: `repro` is
/// either the current executable itself, a sibling of it, or (for
/// test binaries under `target/*/deps/`) a sibling of its directory.
fn locate_worker() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    if exe.file_name().is_some_and(|n| n == "repro") {
        return Some(exe);
    }
    let dir = exe.parent()?;
    [dir.join("repro"), dir.parent()?.join("repro")]
        .into_iter()
        .find(|cand| cand.is_file())
}

/// Builds the child command: a direct `repro --exec-job` when no
/// rlimits apply, or the same behind a `/bin/sh` `ulimit` wrapper (the
/// workspace has no `libc`, so rlimits are set by the shell between
/// `fork` and `exec`). `0` means "leave unlimited" inside the script.
fn worker_command(worker: &Path, limits: &SandboxLimits) -> Command {
    if limits.mem_mb.is_none() && limits.cpu_secs.is_none() {
        let mut cmd = Command::new(worker);
        cmd.arg("--exec-job");
        return cmd;
    }
    let mut cmd = Command::new("/bin/sh");
    cmd.arg("-c")
        .arg(r#"[ "$1" -gt 0 ] && ulimit -v "$1"; [ "$2" -gt 0 ] && ulimit -t "$2"; shift 2; exec "$@""#)
        .arg("sh")
        .arg(limits.mem_mb.map_or(0, |mb| mb * 1024).to_string())
        .arg(limits.cpu_secs.unwrap_or(0).to_string())
        .arg(worker)
        .arg("--exec-job");
    cmd
}

/// Kills the child, tolerating an already-dead one and a poisoned
/// lock (a panicking sibling must not leak the process).
fn kill_child(child: &Mutex<Child>) {
    let mut guard = child.lock().unwrap_or_else(|e| e.into_inner());
    let _ = guard.kill();
}

/// Runs one job in a sandboxed subprocess. The outer `Err` is a spawn
/// failure (worker missing / fork failed) that the caller degrades on;
/// the inner result is the job's fate.
fn run_sandbox(
    h: &Harness,
    job: &JobSpec,
    ctx: &ExecContext<'_>,
    limits: &SandboxLimits,
    worker: Option<&Path>,
    on_checkpoint: &mut dyn FnMut(u64, u64),
) -> Result<Result<JobRun, ExecError>, std::io::Error> {
    let resolved;
    let worker = match worker {
        Some(w) => w,
        None => {
            resolved = locate_worker().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "no repro worker binary found")
            })?;
            &resolved
        }
    };
    // A sandboxed child writes *periodic* checkpoints so a kill loses
    // bounded work; default the cadence when the caller enabled
    // checkpointing but set none (the in-thread path only checkpoints
    // on suspension, where no cadence is needed).
    let mut spec_h = h.clone();
    if ctx.checkpoint_to.is_some() && spec_h.cfg.checkpoint_every.is_none() {
        spec_h.cfg.checkpoint_every = Some(2000);
    }
    let spec_line = worker_spec_json(
        &spec_h,
        job,
        ctx.resume_from,
        ctx.checkpoint_to,
        ctx.suspend_after,
        ctx.ring.is_some(),
    )
    .to_string();

    let mut cmd = worker_command(worker, limits);
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn()?;
    // Pipe handles are taken before the child goes behind the mutex.
    let mut stdin = child.stdin.take().expect("child stdin piped");
    let stdout = child.stdout.take().expect("child stdout piped");
    let stderr = child.stderr.take().expect("child stderr piped");
    // A child that dies before reading its spec is handled by the
    // decode path below, so a broken pipe here is not fatal.
    let _ = writeln!(stdin, "{spec_line}");
    drop(stdin);

    let child = Mutex::new(child);
    let done = AtomicBool::new(false);

    let mut terminal: Option<ChildLine> = None;
    let mut garbage: Option<String> = None;
    let (status, child_stderr, watched) = std::thread::scope(|s| {
        let stderr_tail = s.spawn(move || read_bounded_tail(stderr, 8192));
        let monitor = s.spawn(|| {
            watch_child(&done, ctx.cancel, ctx.deadline, MONITOR_POLL, || {
                kill_child(&child)
            })
        });
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if line.is_empty() {
                continue;
            }
            match parse_child_line(&line) {
                Ok(ChildLine::Window(sample)) => {
                    if let Some(ring) = ctx.ring {
                        ring.push(|| TelemetryRecord::Window(sample));
                    }
                }
                Ok(ChildLine::Checkpoint { cycle, bytes }) => on_checkpoint(cycle, bytes),
                Ok(other) => {
                    terminal = Some(other);
                    break;
                }
                Err(why) => {
                    garbage = Some(why);
                    kill_child(&child);
                    break;
                }
            }
        }
        done.store(true, Ordering::Relaxed);
        monitor.thread().unpark();
        let status = child
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .wait()
            .expect("child was spawned, wait cannot fail");
        let tail = stderr_tail.join().unwrap_or_default();
        let watched = monitor.join().expect("the monitor does not panic");
        (status, tail, watched)
    });

    Ok(resolve_child(
        job,
        ctx,
        terminal,
        garbage,
        &status,
        &child_stderr,
        watched,
    ))
}

/// How often the sandbox monitor checks cancellation and the lease.
const MONITOR_POLL: Duration = Duration::from_millis(10);

/// How [`watch_child`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Watched {
    /// The child's output ended first.
    Done,
    /// The job was cancelled and the child killed.
    Cancelled,
    /// The lease ran out and the child was killed.
    LeaseExpired,
}

/// The lease / cancellation monitor of one sandboxed child: the only
/// thing that can stop a wedged child is SIGKILL from out here. Every
/// `poll` it checks `cancel` and `deadline` and calls `kill` on either.
/// It parks between checks, and whoever sets `done` unparks it, so it
/// returns as soon as the child's output ends instead of at its next
/// check: a job never waits out a poll interval.
fn watch_child(
    done: &AtomicBool,
    cancel: Option<&AtomicBool>,
    deadline: Option<Instant>,
    poll: Duration,
    kill: impl FnOnce(),
) -> Watched {
    loop {
        if done.load(Ordering::Relaxed) {
            return Watched::Done;
        }
        if cancel.is_some_and(|c| c.load(Ordering::Relaxed)) {
            kill();
            return Watched::Cancelled;
        }
        if deadline.is_some_and(|t| Instant::now() >= t) {
            kill();
            return Watched::LeaseExpired;
        }
        std::thread::park_timeout(poll);
    }
}

/// Turns what the child left behind — terminal line, wait status,
/// stderr, how the monitor ended — into the job's fate. Pure decision
/// logic, kept apart from the plumbing above.
fn resolve_child(
    job: &JobSpec,
    ctx: &ExecContext<'_>,
    terminal: Option<ChildLine>,
    garbage: Option<String>,
    status: &ExitStatus,
    stderr: &str,
    watched: Watched,
) -> Result<JobRun, ExecError> {
    if watched == Watched::Cancelled {
        return Ok(JobRun::Cancelled);
    }
    if garbage.is_none() && status.success() {
        match terminal {
            Some(ChildLine::Finished { output }) => return Ok(JobRun::Finished(output)),
            Some(ChildLine::Suspended { cycle, checkpoint }) => {
                return Ok(JobRun::Suspended { cycle, checkpoint })
            }
            Some(ChildLine::Cancelled) => return Ok(JobRun::Cancelled),
            Some(ChildLine::Failed { message }) => return Err(ExecError::Failure(message)),
            Some(ChildLine::Error { message }) => return Err(ExecError::Typed(message)),
            Some(ChildLine::Window(_) | ChildLine::Checkpoint { .. }) => unreachable!(),
            None => {} // clean exit, no terminal line: protocol error
        }
    }
    let kind = match &garbage {
        Some(_) => CrashKind::ProtocolError,
        None => decode_exit(status, stderr, watched == Watched::LeaseExpired),
    };
    // A lease or CPU-limit kill with a durable checkpoint is not a
    // failure: the job suspends exactly like a deadline-suspended one
    // and `--resume` finishes it bit-identically.
    if kind == CrashKind::TimedOut {
        if let Some(path) = ctx.checkpoint_to {
            if let Ok(ckpt) = Checkpoint::load(path) {
                return Ok(JobRun::Suspended {
                    cycle: ckpt.cycle().unwrap_or(0),
                    checkpoint: path.display().to_string(),
                });
            }
        }
    }
    let message = match (&kind, &garbage) {
        (CrashKind::ProtocolError, Some(why)) => format!("sandbox protocol error: {why}"),
        (CrashKind::ProtocolError, None) => {
            format!("sandbox protocol error: child exited ({status}) without a terminal line")
        }
        (CrashKind::TimedOut, _) => format!(
            "sandboxed job {} exceeded its lease with no durable checkpoint",
            job.id()
        ),
        (CrashKind::OomKilled, _) => format!("sandboxed job {} was killed by OOM", job.id()),
        (kind, _) => format!("sandboxed job {} died: {kind}", job.id()),
    };
    Err(ExecError::Crash(CrashReport {
        kind,
        message,
        stderr: stderr_excerpt(stderr),
    }))
}

/// Reads a stream to EOF keeping only the last `cap` bytes.
fn read_bounded_tail(mut from: impl Read, cap: usize) -> String {
    let mut tail: Vec<u8> = Vec::new();
    let mut buf = [0u8; 1024];
    while let Ok(n) = from.read(&mut buf) {
        if n == 0 {
            break;
        }
        tail.extend_from_slice(&buf[..n]);
        if tail.len() > cap {
            let cut = tail.len() - cap;
            tail.drain(..cut);
        }
    }
    String::from_utf8_lossy(&tail).into_owned()
}

/// Distills captured stderr into a short quarantine-table excerpt:
/// the most diagnostic line (a panic or alloc-failure message beats
/// backtrace chatter), else the last non-empty line, bounded.
fn stderr_excerpt(stderr: &str) -> String {
    let line = stderr
        .lines()
        .rev()
        .find(|l| {
            let l = l.trim();
            l.contains("panicked at") || l.contains("memory allocation of")
        })
        .or_else(|| stderr.lines().rev().find(|l| !l.trim().is_empty()))
        .unwrap_or("")
        .trim();
    let mut excerpt: String = line.chars().take(200).collect();
    if excerpt.len() < line.len() {
        excerpt.push('…');
    }
    excerpt
}

// ---------------------------------------------------------------------------
// Wire format: the job spec (parent → child)
// ---------------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn opt_u64(fields: &mut Vec<(&str, Value)>, key: &'static str, v: Option<u64>) {
    if let Some(n) = v {
        fields.push((key, Value::u64(n)));
    }
}

fn cache_to_json(c: &CacheGeometry) -> Value {
    obj(vec![
        ("capacity_bytes", Value::u64(c.capacity_bytes.into())),
        ("line_bytes", Value::u64(c.line_bytes.into())),
        ("ways", Value::u64(c.ways.into())),
    ])
}

fn cache_from_json(v: &Value) -> Result<CacheGeometry, String> {
    Ok(CacheGeometry {
        capacity_bytes: json::u32_field(v, "capacity_bytes")?,
        line_bytes: json::u32_field(v, "line_bytes")?,
        ways: json::u32_field(v, "ways")?,
    })
}

fn fault_to_json(f: &FaultPlan) -> Value {
    let mut fields = vec![
        ("seed", Value::u64(f.seed)),
        ("drop_response", Value::f64(f.drop_response)),
        ("duplicate_response", Value::f64(f.duplicate_response)),
        ("delay_response", Value::f64(f.delay_response)),
        ("delay_cycles", Value::u64(f.delay_cycles)),
    ];
    if let Some(b) = &f.brownout {
        fields.push((
            "brownout",
            obj(vec![
                ("period", Value::u64(b.period)),
                ("active", Value::u64(b.active)),
                ("scale", Value::f64(b.scale)),
            ]),
        ));
    }
    if let Some(r) = &f.recovery {
        fields.push((
            "recovery",
            obj(vec![
                ("timeout", Value::u64(r.timeout)),
                ("max_retries", Value::u64(r.max_retries.into())),
            ]),
        ));
    }
    obj(fields)
}

fn fault_from_json(v: &Value) -> Result<FaultPlan, String> {
    Ok(FaultPlan {
        seed: json::u64_field(v, "seed")?,
        drop_response: json::f64_field(v, "drop_response")?,
        duplicate_response: json::f64_field(v, "duplicate_response")?,
        delay_response: json::f64_field(v, "delay_response")?,
        delay_cycles: json::u64_field(v, "delay_cycles")?,
        brownout: match v.get("brownout") {
            None => None,
            Some(b) => Some(Brownout {
                period: json::u64_field(b, "period")?,
                active: json::u64_field(b, "active")?,
                scale: json::f64_field(b, "scale")?,
            }),
        },
        recovery: match v.get("recovery") {
            None => None,
            Some(r) => Some(Recovery {
                timeout: json::u64_field(r, "timeout")?,
                max_retries: json::u32_field(r, "max_retries")?,
            }),
        },
    })
}

/// Serializes a complete [`Harness`] — every [`GpuConfig`] field, the
/// workload size, and the energy model — with lexeme-preserving
/// numbers, so the child reconstructs it bit-exactly and its report is
/// byte-identical to an in-thread run's.
pub fn harness_to_json(h: &Harness) -> Value {
    let c = &h.cfg;
    let mut cfg = vec![
        ("num_sms", Value::u64(c.num_sms.into())),
        ("core_clock_mhz", Value::u64(c.core_clock_mhz.into())),
        ("schedulers_per_sm", Value::u64(c.schedulers_per_sm.into())),
        (
            "scheduler",
            Value::str(match c.scheduler {
                SchedulerPolicy::GreedyThenOldest => "greedy_then_oldest",
                SchedulerPolicy::LooseRoundRobin => "loose_round_robin",
            }),
        ),
        ("max_warps_per_sm", Value::u64(c.max_warps_per_sm.into())),
        (
            "max_outstanding_loads",
            Value::u64(c.max_outstanding_loads.into()),
        ),
        ("l1", cache_to_json(&c.l1)),
        (
            "shared_mem_carveout_bytes",
            Value::u64(c.shared_mem_carveout_bytes.into()),
        ),
        ("l1_hit_latency", Value::u64(c.l1_hit_latency.into())),
        ("mshr_entries", Value::u64(c.mshr_entries.into())),
        ("mshr_merge", Value::u64(c.mshr_merge.into())),
        ("miss_queue_depth", Value::u64(c.miss_queue_depth.into())),
        ("l2", cache_to_json(&c.l2)),
        ("l2_banks", Value::u64(c.l2_banks.into())),
        ("l2_hit_latency", Value::u64(c.l2_hit_latency.into())),
        ("dram_latency", Value::u64(c.dram_latency.into())),
        (
            "dram_bytes_per_cycle",
            Value::u64(c.dram_bytes_per_cycle.into()),
        ),
        (
            "noc_bytes_per_cycle",
            Value::u64(c.noc_bytes_per_cycle.into()),
        ),
        ("noc_latency", Value::u64(c.noc_latency.into())),
        ("bw_window", Value::u64(c.bw_window.into())),
        ("fault", fault_to_json(&c.fault)),
        ("host_profile", Value::Bool(c.host_profile)),
    ];
    opt_u64(&mut cfg, "max_cycles", c.max_cycles.map(|n| n.0));
    opt_u64(&mut cfg, "cycle_budget", c.cycle_budget.map(|n| n.0));
    opt_u64(&mut cfg, "watchdog_cycles", c.watchdog_cycles);
    opt_u64(&mut cfg, "audit_window", c.audit_window);
    opt_u64(&mut cfg, "metrics_window", c.metrics_window);
    opt_u64(&mut cfg, "checkpoint_every", c.checkpoint_every);
    let size = obj(vec![
        ("warps_per_cta", Value::u64(h.size.warps_per_cta.into())),
        ("ctas", Value::u64(h.size.ctas.into())),
        ("iters", Value::u64(h.size.iters.into())),
        ("seed", Value::u64(h.size.seed)),
    ]);
    let e = &h.energy;
    let energy = obj(vec![
        ("instr_pj", Value::f64(e.instr_pj)),
        ("l1_access_pj", Value::f64(e.l1_access_pj)),
        ("l2_access_pj", Value::f64(e.l2_access_pj)),
        ("dram_access_pj", Value::f64(e.dram_access_pj)),
        ("noc_byte_pj", Value::f64(e.noc_byte_pj)),
        ("prefetcher_access_pj", Value::f64(e.prefetcher_access_pj)),
        ("static_w_per_sm", Value::f64(e.static_w_per_sm)),
        ("prefetcher_static_w", Value::f64(e.prefetcher_static_w)),
    ]);
    obj(vec![
        (
            "cfg",
            Value::Obj(match obj(cfg) {
                Value::Obj(o) => o,
                _ => unreachable!(),
            }),
        ),
        ("size", size),
        ("energy", energy),
    ])
}

/// Reconstructs a [`Harness`] from [`harness_to_json`] output.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn harness_from_json(v: &Value) -> Result<Harness, String> {
    let c = json::field(v, "cfg")?;
    let cfg = GpuConfig {
        num_sms: json::u32_field(c, "num_sms")?,
        core_clock_mhz: json::u32_field(c, "core_clock_mhz")?,
        schedulers_per_sm: json::u32_field(c, "schedulers_per_sm")?,
        scheduler: match json::str_field(c, "scheduler")? {
            "greedy_then_oldest" => SchedulerPolicy::GreedyThenOldest,
            "loose_round_robin" => SchedulerPolicy::LooseRoundRobin,
            other => return Err(format!("unknown scheduler policy {other:?}")),
        },
        max_warps_per_sm: json::u32_field(c, "max_warps_per_sm")?,
        max_outstanding_loads: json::u32_field(c, "max_outstanding_loads")?,
        l1: cache_from_json(json::field(c, "l1")?)?,
        shared_mem_carveout_bytes: json::u32_field(c, "shared_mem_carveout_bytes")?,
        l1_hit_latency: json::u32_field(c, "l1_hit_latency")?,
        mshr_entries: json::u32_field(c, "mshr_entries")?,
        mshr_merge: json::u32_field(c, "mshr_merge")?,
        miss_queue_depth: json::u32_field(c, "miss_queue_depth")?,
        l2: cache_from_json(json::field(c, "l2")?)?,
        l2_banks: json::u32_field(c, "l2_banks")?,
        l2_hit_latency: json::u32_field(c, "l2_hit_latency")?,
        dram_latency: json::u32_field(c, "dram_latency")?,
        dram_bytes_per_cycle: json::u32_field(c, "dram_bytes_per_cycle")?,
        noc_bytes_per_cycle: json::u32_field(c, "noc_bytes_per_cycle")?,
        noc_latency: json::u32_field(c, "noc_latency")?,
        bw_window: json::u32_field(c, "bw_window")?,
        max_cycles: json::if_present(c, "max_cycles", json::u64_field)?.map(snake_sim::Cycle),
        cycle_budget: json::if_present(c, "cycle_budget", json::u64_field)?.map(snake_sim::Cycle),
        watchdog_cycles: json::if_present(c, "watchdog_cycles", json::u64_field)?,
        fault: fault_from_json(json::field(c, "fault")?)?,
        audit_window: json::if_present(c, "audit_window", json::u64_field)?,
        metrics_window: json::if_present(c, "metrics_window", json::u64_field)?,
        checkpoint_every: json::if_present(c, "checkpoint_every", json::u64_field)?,
        host_profile: json::bool_field(c, "host_profile")?,
    };
    let s = json::field(v, "size")?;
    let size = WorkloadSize {
        warps_per_cta: json::u32_field(s, "warps_per_cta")?,
        ctas: json::u32_field(s, "ctas")?,
        iters: json::u32_field(s, "iters")?,
        seed: json::u64_field(s, "seed")?,
    };
    let e = json::field(v, "energy")?;
    let energy = EnergyModel {
        instr_pj: json::f64_field(e, "instr_pj")?,
        l1_access_pj: json::f64_field(e, "l1_access_pj")?,
        l2_access_pj: json::f64_field(e, "l2_access_pj")?,
        dram_access_pj: json::f64_field(e, "dram_access_pj")?,
        noc_byte_pj: json::f64_field(e, "noc_byte_pj")?,
        prefetcher_access_pj: json::f64_field(e, "prefetcher_access_pj")?,
        static_w_per_sm: json::f64_field(e, "static_w_per_sm")?,
        prefetcher_static_w: json::f64_field(e, "prefetcher_static_w")?,
    };
    Ok(Harness { cfg, size, energy })
}

/// The single NDJSON spec line shipped to a worker.
fn worker_spec_json(
    h: &Harness,
    job: &JobSpec,
    resume_from: Option<&Path>,
    checkpoint_to: Option<&Path>,
    suspend_after: Option<u64>,
    stream: bool,
) -> Value {
    let mut fields = vec![
        ("v", Value::u64(1)),
        ("job", Value::str(job.id())),
        ("harness", harness_to_json(h)),
        ("stream", Value::Bool(stream)),
    ];
    if let Some(p) = resume_from {
        fields.push(("resume", Value::str(p.display().to_string())));
    }
    if let Some(p) = checkpoint_to {
        fields.push(("checkpoint", Value::str(p.display().to_string())));
    }
    opt_u64(&mut fields, "suspend_after", suspend_after);
    obj(fields)
}

/// A parsed worker spec line (child side).
struct WorkerSpec {
    h: Harness,
    job: JobSpec,
    resume_from: Option<PathBuf>,
    checkpoint_to: Option<PathBuf>,
    suspend_after: Option<u64>,
    stream: bool,
}

fn parse_job_id(id: &str) -> Result<JobSpec, String> {
    let (bench, kind) = id
        .split_once('/')
        .ok_or_else(|| format!("malformed job id {id:?}"))?;
    Ok(JobSpec {
        bench: bench.parse().map_err(|e| format!("{e:?}"))?,
        kind: kind.parse().map_err(|e| format!("{e:?}"))?,
    })
}

fn parse_worker_spec(line: &str) -> Result<WorkerSpec, String> {
    let v = json::parse(line).map_err(|e| format!("malformed spec line: {e}"))?;
    if json::u64_field(&v, "v")? != 1 {
        return Err("unsupported spec version".into());
    }
    let path = |key: &str| -> Result<Option<PathBuf>, String> {
        Ok(json::if_present(&v, key, json::str_field)?.map(PathBuf::from))
    };
    Ok(WorkerSpec {
        h: harness_from_json(json::field(&v, "harness")?)?,
        job: parse_job_id(json::str_field(&v, "job")?)?,
        resume_from: path("resume")?,
        checkpoint_to: path("checkpoint")?,
        suspend_after: json::if_present(&v, "suspend_after", json::u64_field)?,
        stream: json::bool_field(&v, "stream")?,
    })
}

// ---------------------------------------------------------------------------
// Wire format: the child's NDJSON stream (child → parent)
// ---------------------------------------------------------------------------

/// One line of the child's NDJSON stream. Telemetry (`Window`,
/// `Checkpoint`) may repeat; everything else is terminal.
#[derive(Debug, Clone, PartialEq)]
pub enum ChildLine {
    /// A closed metrics window, republished into the parent's ring.
    Window(MetricsSample),
    /// A durable periodic checkpoint was written.
    Checkpoint {
        /// Cycle the state was captured at.
        cycle: u64,
        /// Size of the artifact in bytes.
        bytes: u64,
    },
    /// The run finished; carries the bit-exact report, stop reason,
    /// and optional host profile.
    Finished {
        /// The reconstructed run output.
        output: Box<RunOutput>,
    },
    /// The run suspended to a checkpoint (cooperative `suspend_after`).
    Suspended {
        /// Cycle the simulation was suspended at.
        cycle: u64,
        /// Path of the checkpoint artifact.
        checkpoint: String,
    },
    /// The run was cancelled before completion.
    Cancelled,
    /// A retryable in-band failure (deadlock).
    Failed {
        /// The failure description, quarantine-table ready.
        message: String,
    },
    /// A typed simulator error (invalid config, bad checkpoint);
    /// quarantined without retry, like an in-thread [`SimError`].
    Error {
        /// The error description.
        message: String,
    },
}

impl ChildLine {
    /// The line as the child writes it.
    fn to_json(&self) -> Value {
        match self {
            ChildLine::Window(sample) => {
                let mut fields = vec![("t".to_string(), Value::str("window"))];
                if let Value::Obj(payload) = sample.to_json() {
                    fields.extend(payload);
                }
                Value::Obj(fields)
            }
            ChildLine::Checkpoint { cycle, bytes } => obj(vec![
                ("t", Value::str("checkpoint")),
                ("cycle", Value::u64(*cycle)),
                ("bytes", Value::u64(*bytes)),
            ]),
            ChildLine::Finished { output: out } => {
                let mut fields = vec![
                    ("t", Value::str("finished")),
                    ("stop", Value::str(out.stop.label())),
                ];
                if let StopReason::BudgetExceeded { budget } = out.stop {
                    fields.push(("budget", Value::u64(budget)));
                }
                fields.push(("report", out.report.to_json()));
                if let Some(host) = &out.host {
                    fields.push(("host", profile_to_json(host)));
                }
                obj(fields)
            }
            ChildLine::Suspended { cycle, checkpoint } => obj(vec![
                ("t", Value::str("suspended")),
                ("cycle", Value::u64(*cycle)),
                ("checkpoint", Value::str(checkpoint)),
            ]),
            ChildLine::Cancelled => obj(vec![("t", Value::str("cancelled"))]),
            ChildLine::Failed { message } => obj(vec![
                ("t", Value::str("failed")),
                ("message", Value::str(message)),
            ]),
            ChildLine::Error { message } => obj(vec![
                ("t", Value::str("error")),
                ("message", Value::str(message)),
            ]),
        }
    }
}

/// A host profile as the `finished` line carries it: every counter
/// and every phase, so a sandboxed run reports what an in-thread one
/// does.
fn profile_to_json(p: &HostProfile) -> Value {
    let phases = p
        .iter()
        .map(|(phase, stat)| {
            obj(vec![
                ("phase", Value::str(phase.label())),
                ("nanos", Value::u64(stat.nanos)),
                ("calls", Value::u64(stat.calls)),
            ])
        })
        .collect();
    obj(vec![
        ("wall_nanos", Value::u64(p.wall_nanos)),
        ("cycles", Value::u64(p.cycles)),
        ("trace_events", Value::u64(p.trace_events)),
        ("skipped_cycles", Value::u64(p.skipped_cycles)),
        ("replayed_ticks", Value::u64(p.replayed_ticks)),
        ("sm_ticks", Value::u64(p.sm_ticks)),
        ("phases", Value::Arr(phases)),
    ])
}

fn profile_from_json(v: &Value) -> Result<HostProfile, String> {
    let mut phases = Vec::new();
    for entry in json::arr_field(v, "phases")? {
        let label = json::str_field(entry, "phase")?;
        let phase = Phase::from_label(label).ok_or_else(|| format!("unknown phase {label:?}"))?;
        phases.push((
            phase,
            PhaseStat {
                nanos: json::u64_field(entry, "nanos")?,
                calls: json::u64_field(entry, "calls")?,
            },
        ));
    }
    Ok(HostProfile::from_parts(
        json::u64_field(v, "wall_nanos")?,
        json::u64_field(v, "cycles")?,
        json::u64_field(v, "trace_events")?,
        json::u64_field(v, "skipped_cycles")?,
        json::u64_field(v, "replayed_ticks")?,
        json::u64_field(v, "sm_ticks")?,
        phases,
    ))
}

fn stop_from_json(v: &Value) -> Result<StopReason, String> {
    match json::str_field(v, "stop")? {
        "completed" => Ok(StopReason::Completed),
        "cycle_limit" => Ok(StopReason::CycleLimit),
        "budget_exceeded" => Ok(StopReason::BudgetExceeded {
            budget: json::u64_field(v, "budget")?,
        }),
        other => Err(format!("unexpected stop reason {other:?} on the wire")),
    }
}

/// Parses one line of a child's NDJSON stream. Strict by design: any
/// torn, truncated, or foreign line is an error (never a mis-parsed
/// report) — the property the `exec` proptests pin down.
///
/// # Errors
///
/// Returns a description of what made the line unusable.
pub fn parse_child_line(line: &str) -> Result<ChildLine, String> {
    let v = json::parse(line).map_err(|e| format!("unparseable child line: {e}"))?;
    match json::str_field(&v, "t")? {
        "window" => Ok(ChildLine::Window(MetricsSample::from_json(&v)?)),
        "checkpoint" => Ok(ChildLine::Checkpoint {
            cycle: json::u64_field(&v, "cycle")?,
            bytes: json::u64_field(&v, "bytes")?,
        }),
        "finished" => {
            let report = MechanismReport::from_json(json::field(&v, "report")?)?;
            let host = match v.get("host") {
                None => None,
                Some(h) => {
                    Some(profile_from_json(h).map_err(|e| format!("bad host profile: {e}"))?)
                }
            };
            Ok(ChildLine::Finished {
                output: Box::new(RunOutput {
                    report,
                    stop: stop_from_json(&v)?,
                    host,
                }),
            })
        }
        "suspended" => Ok(ChildLine::Suspended {
            cycle: json::u64_field(&v, "cycle")?,
            checkpoint: json::str_field(&v, "checkpoint")?.into(),
        }),
        "cancelled" => Ok(ChildLine::Cancelled),
        "failed" => Ok(ChildLine::Failed {
            message: json::str_field(&v, "message")?.into(),
        }),
        "error" => Ok(ChildLine::Error {
            message: json::str_field(&v, "message")?.into(),
        }),
        other => Err(format!("unknown child line type {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Worker (child) side
// ---------------------------------------------------------------------------

fn emit(v: &Value) {
    let line = v.to_string();
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Fires an injected crash when [`CRASH_ENV`] names this job — the
/// test hook behind the CI isolation smoke and the chaos trials.
fn maybe_injected_crash(job_id: &str) {
    let Ok(plan) = std::env::var(CRASH_ENV) else {
        return;
    };
    for pair in plan.split(',') {
        let Some((id, mode)) = pair.split_once('=') else {
            continue;
        };
        if id != job_id {
            continue;
        }
        match mode {
            "abort" => std::process::abort(),
            "oom" => {
                // Address-space blowout: with an rlimit this fails the
                // allocation (Rust aborts with the alloc-failure
                // signature); without one the size is absurd enough to
                // fail anyway.
                let blowout = vec![0xABu8; 1usize << 40];
                std::hint::black_box(&blowout);
            }
            "segv" => unsafe {
                std::ptr::null_mut::<u8>().write_volatile(1);
            },
            "kill9" => {
                let _ = Command::new("kill")
                    .args(["-9", &std::process::id().to_string()])
                    .status();
                loop {
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
            "hang" => loop {
                std::thread::sleep(Duration::from_millis(50));
            },
            other => eprintln!("exec-job: unknown injected crash mode {other:?}"),
        }
    }
}

/// The `--exec-job` worker: reads one spec line from stdin, runs the
/// job, streams telemetry/checkpoint lines, and ends with one terminal
/// line. Returns the process exit code (0 even for in-band failures —
/// those travel as protocol lines; 2 only for an unusable spec).
pub fn run_worker() -> i32 {
    let mut line = String::new();
    if std::io::stdin().lock().read_line(&mut line).is_err() {
        eprintln!("exec-job: failed to read the spec line");
        return 2;
    }
    let spec = match parse_worker_spec(line.trim()) {
        Ok(spec) => spec,
        Err(why) => {
            eprintln!("exec-job: {why}");
            return 2;
        }
    };
    maybe_injected_crash(&spec.job.id());

    let ring = TelemetryRing::new(4096);
    let drain = spec.stream.then(|| {
        let mut sub = ring.subscribe();
        std::thread::spawn(move || loop {
            let d = sub.drain();
            for rec in d.records {
                if let TelemetryRecord::Window(sample) = rec {
                    emit(&ChildLine::Window(sample).to_json());
                }
            }
            if d.done {
                return;
            }
            // Unparked when the ring closes, so the terminal line
            // does not wait out the interval.
            std::thread::park_timeout(Duration::from_millis(20));
        })
    });

    let ctx = ExecContext {
        resume_from: spec.resume_from.as_deref(),
        checkpoint_to: spec.checkpoint_to.as_deref(),
        suspend_after: spec.suspend_after,
        ring: spec.stream.then_some(&ring),
        ..ExecContext::default()
    };
    let result = spec
        .h
        .run_job_with(spec.job.bench, spec.job.kind, &ctx, &mut |cycle, bytes| {
            emit(&ChildLine::Checkpoint { cycle, bytes }.to_json());
        });
    ring.close();
    if let Some(handle) = drain {
        handle.thread().unpark();
        let _ = handle.join();
    }
    let line = match result {
        Ok(JobRun::Finished(output)) => match &output.stop {
            StopReason::Deadlock(report) => ChildLine::Failed {
                message: format!("deadlock: {report}"),
            },
            _ => ChildLine::Finished { output },
        },
        Ok(JobRun::Suspended { cycle, checkpoint }) => ChildLine::Suspended { cycle, checkpoint },
        Ok(JobRun::Cancelled) => ChildLine::Cancelled,
        Err(err) => ChildLine::Error {
            message: err.to_string(),
        },
    };
    emit(&line.to_json());
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;

    fn sig(n: i32) -> ExitStatus {
        ExitStatus::from_raw(n)
    }

    fn code(c: i32) -> ExitStatus {
        ExitStatus::from_raw(c << 8)
    }

    #[test]
    fn exit_statuses_decode_to_typed_crash_kinds() {
        assert_eq!(decode_exit(&code(101), "", false), CrashKind::Panic);
        assert_eq!(decode_exit(&sig(11), "", false), CrashKind::Signal(11));
        assert_eq!(decode_exit(&sig(9), "", false), CrashKind::Signal(9));
        assert_eq!(decode_exit(&sig(6), "", false), CrashKind::Signal(6));
        assert_eq!(
            decode_exit(
                &sig(6),
                "memory allocation of 1099511627776 bytes failed",
                false
            ),
            CrashKind::OomKilled
        );
        assert_eq!(
            decode_exit(&sig(24), "", false),
            CrashKind::TimedOut,
            "SIGXCPU"
        );
        assert_eq!(
            decode_exit(&sig(9), "", true),
            CrashKind::TimedOut,
            "lease kill"
        );
        assert_eq!(decode_exit(&code(0), "", false), CrashKind::ProtocolError);
        assert_eq!(decode_exit(&code(2), "", false), CrashKind::ProtocolError);
    }

    #[test]
    fn crash_kind_labels_round_trip() {
        for kind in [
            CrashKind::Panic,
            CrashKind::Signal(11),
            CrashKind::Signal(6),
            CrashKind::OomKilled,
            CrashKind::TimedOut,
            CrashKind::ProtocolError,
        ] {
            assert_eq!(CrashKind::parse(&kind.label()), Some(kind));
        }
        assert_eq!(CrashKind::parse("weird"), None);
        assert_eq!(CrashKind::parse("signal x"), None);
    }

    #[test]
    fn retry_policy_by_kind() {
        assert!(!CrashKind::Panic.retryable());
        assert!(!CrashKind::TimedOut.retryable());
        assert!(CrashKind::Signal(11).retryable());
        assert!(CrashKind::OomKilled.retryable());
        assert!(CrashKind::ProtocolError.retryable());
    }

    #[test]
    fn harness_round_trips_bit_exactly() {
        let mut h = Harness::quick();
        h.cfg.cycle_budget = Some(snake_sim::Cycle(123_456));
        h.cfg.metrics_window = Some(500);
        h.cfg.checkpoint_every = Some(2000);
        h.cfg.fault = FaultPlan {
            seed: 0xC4A05,
            drop_response: 0.002,
            duplicate_response: 0.005,
            delay_response: 0.05,
            delay_cycles: 200,
            brownout: Some(Brownout {
                period: 2000,
                active: 250,
                scale: 0.5,
            }),
            recovery: Some(Recovery {
                timeout: 500,
                max_retries: 4,
            }),
        };
        h.cfg.host_profile = true;
        let doc = harness_to_json(&h).to_string();
        let back = harness_from_json(&json::parse(&doc).expect("parses")).expect("round-trips");
        assert_eq!(back.cfg, h.cfg);
        assert_eq!(back.size, h.size);
        assert_eq!(doc, harness_to_json(&back).to_string(), "bytes are stable");
    }

    #[test]
    fn decoded_harness_with_too_many_warps_is_refused_not_run() {
        // The worker decodes its harness from stdin: a warp count the
        // SM's slot masks cannot hold must come back as a typed config
        // error, never a panic inside the simulator.
        let mut h = Harness::quick();
        h.cfg.max_warps_per_sm = 65;
        let doc = harness_to_json(&h).to_string();
        let back = harness_from_json(&json::parse(&doc).expect("parses")).expect("decodes");
        let err = back
            .run_job(
                snake_workloads::Benchmark::Lps,
                snake_core::PrefetcherKind::Snake,
            )
            .expect_err("65 warps per SM is refused");
        assert!(
            matches!(
                err,
                SimError::Config(snake_sim::ConfigError::TooManyWarps {
                    requested: 65,
                    limit: 64
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn spec_round_trips_including_paths() {
        let h = Harness::quick();
        let job = JobSpec {
            bench: snake_workloads::Benchmark::Lps,
            kind: snake_core::PrefetcherKind::Snake,
        };
        let doc = worker_spec_json(
            &h,
            &job,
            Some(Path::new("/tmp/a.ckpt")),
            Some(Path::new("/tmp/b.ckpt")),
            Some(300),
            true,
        )
        .to_string();
        let spec = parse_worker_spec(&doc).expect("parses");
        assert_eq!(spec.job, job);
        assert_eq!(spec.resume_from.as_deref(), Some(Path::new("/tmp/a.ckpt")));
        assert_eq!(
            spec.checkpoint_to.as_deref(),
            Some(Path::new("/tmp/b.ckpt"))
        );
        assert_eq!(spec.suspend_after, Some(300));
        assert!(spec.stream);
    }

    #[test]
    fn child_lines_round_trip_and_tears_are_rejected() {
        let sample = MetricsSample {
            cycle: 500,
            ipc: 1.25,
            l1_hit_rate: 0.5,
            mshr_occupancy: 0.25,
            miss_queue_occupancy: 0.0,
            noc_utilization: 0.75,
            active_warps: 8,
            throttled_sms: 1,
            chain_depth: 3,
            stall: [0.5, 0.0, 0.125, 0.125, 0.25, 0.0, 0.0, 0.0],
        };
        let line = ChildLine::Window(sample).to_json().to_string();
        assert_eq!(parse_child_line(&line), Ok(ChildLine::Window(sample)));
        // Every strict prefix of a valid line is rejected, never
        // mis-parsed.
        for cut in 0..line.len() {
            assert!(
                parse_child_line(&line[..cut]).is_err(),
                "prefix of length {cut} must not parse"
            );
        }
        assert!(parse_child_line(r#"{"t":"mystery"}"#).is_err());
        assert!(parse_child_line("").is_err());
    }

    #[test]
    fn host_profile_round_trips_bit_exact() {
        // The quiet counters travel too: a sandboxed profile reports
        // the skipped cycles and replayed ticks an in-thread one does.
        let host = HostProfile::from_parts(
            1_000_000,
            9134,
            42,
            3783,
            5448,
            9134,
            Phase::ALL.iter().enumerate().map(|(i, &p)| {
                let i = i as u64 + 1;
                (
                    p,
                    PhaseStat {
                        nanos: i * 1_000,
                        calls: i * 10,
                    },
                )
            }),
        );
        let text = profile_to_json(&host).to_string();
        let back = profile_from_json(&json::parse(&text).expect("parses")).expect("decodes");
        assert_eq!(back, host);
        assert_eq!(profile_to_json(&back).to_string(), text, "bytes are stable");
        let err = profile_from_json(&json::parse(r#"{"phases":[]}"#).unwrap()).unwrap_err();
        assert!(err.contains("wall_nanos"), "{err}");
    }

    #[test]
    fn worker_spec_bytes_are_pinned() {
        let mut h = Harness::quick();
        h.cfg.cycle_budget = Some(snake_sim::Cycle(6000));
        h.cfg.metrics_window = Some(500);
        h.cfg.fault.brownout = Some(Brownout {
            period: 2000,
            active: 250,
            scale: 0.5,
        });
        h.cfg.fault.recovery = Some(Recovery {
            timeout: 500,
            max_retries: 4,
        });
        let job = JobSpec {
            bench: snake_workloads::Benchmark::Lps,
            kind: snake_core::PrefetcherKind::Snake,
        };
        let line = worker_spec_json(
            &h,
            &job,
            Some(Path::new("sweep.LPS-snake.ckpt")),
            Some(Path::new("next.ckpt")),
            Some(300),
            true,
        );
        assert_eq!(
            line.to_string(),
            r#"{"v":1,"job":"LPS/snake","harness":{"cfg":{"num_sms":1,"core_clock_mhz":1530,"schedulers_per_sm":2,"scheduler":"greedy_then_oldest","max_warps_per_sm":16,"max_outstanding_loads":4,"l1":{"capacity_bytes":16384,"line_bytes":128,"ways":32},"shared_mem_carveout_bytes":0,"l1_hit_latency":28,"mshr_entries":128,"mshr_merge":8,"miss_queue_depth":2,"l2":{"capacity_bytes":262144,"line_bytes":128,"ways":16},"l2_banks":8,"l2_hit_latency":120,"dram_latency":220,"dram_bytes_per_cycle":64,"noc_bytes_per_cycle":40,"noc_latency":20,"bw_window":256,"fault":{"seed":0,"drop_response":0.0,"duplicate_response":0.0,"delay_response":0.0,"delay_cycles":0,"brownout":{"period":2000,"active":250,"scale":0.5},"recovery":{"timeout":500,"max_retries":4}},"host_profile":false,"max_cycles":20000000,"cycle_budget":6000,"watchdog_cycles":10000,"metrics_window":500},"size":{"warps_per_cta":4,"ctas":2,"iters":48,"seed":12648430},"energy":{"instr_pj":60.0,"l1_access_pj":150.0,"l2_access_pj":800.0,"dram_access_pj":4000.0,"noc_byte_pj":4.0,"prefetcher_access_pj":6.4,"static_w_per_sm":3.0,"prefetcher_static_w":0.006}},"stream":true,"resume":"sweep.LPS-snake.ckpt","checkpoint":"next.ckpt","suspend_after":300}"#
        );
        let bare = worker_spec_json(&Harness::quick(), &job, None, None, None, false);
        assert_eq!(
            bare.to_string(),
            r#"{"v":1,"job":"LPS/snake","harness":{"cfg":{"num_sms":1,"core_clock_mhz":1530,"schedulers_per_sm":2,"scheduler":"greedy_then_oldest","max_warps_per_sm":16,"max_outstanding_loads":4,"l1":{"capacity_bytes":16384,"line_bytes":128,"ways":32},"shared_mem_carveout_bytes":0,"l1_hit_latency":28,"mshr_entries":128,"mshr_merge":8,"miss_queue_depth":2,"l2":{"capacity_bytes":262144,"line_bytes":128,"ways":16},"l2_banks":8,"l2_hit_latency":120,"dram_latency":220,"dram_bytes_per_cycle":64,"noc_bytes_per_cycle":40,"noc_latency":20,"bw_window":256,"fault":{"seed":0,"drop_response":0.0,"duplicate_response":0.0,"delay_response":0.0,"delay_cycles":0},"host_profile":false,"max_cycles":20000000,"watchdog_cycles":10000},"size":{"warps_per_cta":4,"ctas":2,"iters":48,"seed":12648430},"energy":{"instr_pj":60.0,"l1_access_pj":150.0,"l2_access_pj":800.0,"dram_access_pj":4000.0,"noc_byte_pj":4.0,"prefetcher_access_pj":6.4,"static_w_per_sm":3.0,"prefetcher_static_w":0.006}},"stream":false}"#
        );
    }

    #[test]
    fn child_line_bytes_are_pinned() {
        let sample = MetricsSample {
            cycle: 600,
            ipc: 1.25,
            l1_hit_rate: 0.5,
            mshr_occupancy: 0.25,
            miss_queue_occupancy: 0.0,
            noc_utilization: 0.75,
            active_warps: 8,
            throttled_sms: 1,
            chain_depth: 3,
            stall: [0.5, 0.0, 0.125, 0.125, 0.25, 0.0, 0.0, 1.0 / 3.0],
        };
        let report = MechanismReport {
            mechanism: "snake".into(),
            app: "LPS".into(),
            ipc: 1.5,
            cycles: 4000,
            ..MechanismReport::default()
        };
        let host = HostProfile::from_parts(
            9000,
            4000,
            12,
            1500,
            2500,
            8000,
            [(
                Phase::L1Lookup,
                PhaseStat {
                    nanos: 700,
                    calls: 40,
                },
            )],
        );
        let finished = |stop: StopReason, host: Option<HostProfile>| RunOutput {
            report: report.clone(),
            stop,
            host,
        };
        let cases = [
            (
                ChildLine::Window(sample).to_json(),
                r#"{"t":"window","cycle":600,"ipc":1.25,"l1_hit_rate":0.5,"mshr_occupancy":0.25,"miss_queue_occupancy":0.0,"noc_utilization":0.75,"active_warps":8,"throttled_sms":1,"chain_depth":3,"stall_issued":0.5,"stall_no_warp":0.0,"stall_barrier":0.125,"stall_scoreboard":0.125,"stall_mem_data":0.25,"stall_mem_mshr":0.0,"stall_mem_missq":0.0,"stall_mem_noc":0.3333333333333333}"#,
            ),
            (
                ChildLine::Checkpoint {
                    cycle: 2000,
                    bytes: 89_162,
                }
                .to_json(),
                r#"{"t":"checkpoint","cycle":2000,"bytes":89162}"#,
            ),
            (
                ChildLine::Finished {
                    output: Box::new(finished(StopReason::Completed, None)),
                }
                .to_json(),
                r#"{"t":"finished","stop":"completed","report":{"mechanism":"snake","app":"LPS","ipc":1.5,"coverage":0.0,"accuracy":0.0,"precision":0.0,"l1_hit_rate":0.0,"reservation_fail_rate":0.0,"noc_utilization":0.0,"memory_stall_fraction":0.0,"energy_j":0.0,"cycles":4000,"timeliness_p50":0,"timeliness_p90":0,"evicted_unused":0,"stall_issued":0.0,"stall_no_warp":0.0,"stall_barrier":0.0,"stall_scoreboard":0.0,"stall_mem_data":0.0,"stall_mem_mshr":0.0,"stall_mem_missq":0.0,"stall_mem_noc":0.0}}"#,
            ),
            (
                ChildLine::Finished {
                    output: Box::new(finished(
                        StopReason::BudgetExceeded { budget: 4000 },
                        Some(host),
                    )),
                }
                .to_json(),
                r#"{"t":"finished","stop":"budget_exceeded","budget":4000,"report":{"mechanism":"snake","app":"LPS","ipc":1.5,"coverage":0.0,"accuracy":0.0,"precision":0.0,"l1_hit_rate":0.0,"reservation_fail_rate":0.0,"noc_utilization":0.0,"memory_stall_fraction":0.0,"energy_j":0.0,"cycles":4000,"timeliness_p50":0,"timeliness_p90":0,"evicted_unused":0,"stall_issued":0.0,"stall_no_warp":0.0,"stall_barrier":0.0,"stall_scoreboard":0.0,"stall_mem_data":0.0,"stall_mem_mshr":0.0,"stall_mem_missq":0.0,"stall_mem_noc":0.0},"host":{"wall_nanos":9000,"cycles":4000,"trace_events":12,"skipped_cycles":1500,"replayed_ticks":2500,"sm_ticks":8000,"phases":[{"phase":"sm_issue","nanos":0,"calls":0},{"phase":"l1_lookup","nanos":700,"calls":40},{"phase":"mshr","nanos":0,"calls":0},{"phase":"prefetch","nanos":0,"calls":0},{"phase":"noc","nanos":0,"calls":0},{"phase":"mem_partition","nanos":0,"calls":0},{"phase":"observability","nanos":0,"calls":0}]}}"#,
            ),
            (
                ChildLine::Suspended {
                    cycle: 300,
                    checkpoint: "sweep.LPS-snake.ckpt".into(),
                }
                .to_json(),
                r#"{"t":"suspended","cycle":300,"checkpoint":"sweep.LPS-snake.ckpt"}"#,
            ),
            (ChildLine::Cancelled.to_json(), r#"{"t":"cancelled"}"#),
            (
                ChildLine::Failed {
                    message: "deadlock: no progress".into(),
                }
                .to_json(),
                r#"{"t":"failed","message":"deadlock: no progress"}"#,
            ),
            (
                ChildLine::Error {
                    message: "invalid configuration: mshr_entries is 0".into(),
                }
                .to_json(),
                r#"{"t":"error","message":"invalid configuration: mshr_entries is 0"}"#,
            ),
        ];
        for (value, line) in cases {
            assert_eq!(value.to_string(), line);
            assert!(parse_child_line(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn the_monitor_wakes_when_the_child_is_done() {
        let (done, cancel) = (AtomicBool::new(false), AtomicBool::new(false));
        let (minute, hour) = (Duration::from_secs(60), Duration::from_secs(3600));
        let start = Instant::now();
        let watched = std::thread::scope(|s| {
            let monitor = s.spawn(|| watch_child(&done, Some(&cancel), None, minute, || {}));
            // Most likely the monitor is waiting by now; if it is not,
            // it sees `done` on its first check, and either way it
            // must not wait out its minute.
            std::thread::sleep(Duration::from_millis(20));
            done.store(true, Ordering::Relaxed);
            monitor.thread().unpark();
            monitor.join().unwrap()
        });
        assert_eq!(watched, Watched::Done);
        let waited = start.elapsed();
        assert!(waited < Duration::from_secs(5), "returned after {waited:?}");

        // Cancellation and an expired lease each kill the child.
        let done = AtomicBool::new(false);
        cancel.store(true, Ordering::Relaxed);
        let mut kills = 0;
        let watched = watch_child(&done, Some(&cancel), None, hour, || kills += 1);
        assert_eq!((watched, kills), (Watched::Cancelled, 1));
        let past = Some(Instant::now());
        let watched = watch_child(&done, None, past, hour, || kills += 1);
        assert_eq!((watched, kills), (Watched::LeaseExpired, 2));
    }

    #[test]
    fn lease_kill_message_and_stderr_excerpt() {
        assert_eq!(stderr_excerpt(""), "");
        assert_eq!(
            stderr_excerpt("first\npanicked at 'boom'\n\n"),
            "panicked at 'boom'"
        );
        let long = "x".repeat(400);
        assert!(stderr_excerpt(&long).len() < 220);
    }
}
