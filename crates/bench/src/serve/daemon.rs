//! The `snaked` server: a Unix-socket accept loop, a priority job
//! queue with cancellation, and a single scheduler thread that runs
//! each submitted sweep through the supervisor while per-job telemetry
//! rings fan windows and events out to `tail` subscribers.
//!
//! Concurrency layout: connection handler threads only touch the
//! registry (submit / status / cancel / health / shutdown) or read
//! rings (`tail`); the scheduler thread is the only one that *runs*
//! simulations, so jobs execute strictly in priority order (FIFO
//! within a priority) and telemetry rings have exactly one producer —
//! the invariant the lock-light ring design depends on.
//!
//! Crash safety: every state transition is journaled ([`journal`])
//! before the daemon acts on it being durable, and on startup the
//! journal is replayed — terminal jobs come back with their recorded
//! reports (bit-exact, via the lexeme-preserving json layer),
//! non-terminal jobs re-queue at their original priority, and sub-jobs
//! with a live mid-simulation checkpoint resume from it instead of
//! cycle zero. Combined with the simulator's deterministic
//! kill-anywhere snapshots, a `kill -9`'d daemon finishes its sweeps
//! byte-identically to one that was never killed (chaos-tested in
//! `tests/serve_chaos.rs`).
//!
//! Multi-tenancy: submits carry an optional client id; the daemon can
//! cap queued jobs per client (typed `"quota"` rejection → `snakectl`
//! exit [`EXIT_QUOTA`]) and cap concurrently running jobs per client
//! (the scheduler passes over a client at its running quota without
//! starving other clients). Per-job `deadline_ms` bounds a scheduling
//! slice: on expiry the running simulation suspends to a checkpoint,
//! the job re-queues behind its priority peers, and the next slice
//! resumes mid-simulation — cooperative time-sharing with zero lost
//! cycles.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snake_core::json::Value;
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::snapshot::Checkpoint;
use snake_sim::{TelemetryRecord, TelemetryRing};
use snake_workloads::Benchmark;

use super::journal::{self, Journal, JournalEvent};
use super::protocol::{
    done_line, err_line, err_line_coded, ok_line, progress_line, record_line, stream_end_line,
    stream_line, Request, SubmitSpec,
};
use crate::jsonl_log::LogError;
use crate::runner::Harness;
use crate::supervise::{
    campaign, run_supervised, ExecContext, JobExecutor, JobOutcome, JobRecord, JobSpec, Progress,
    SandboxLimits, SweepConfig,
};

/// Exit code `snakectl tail` reports for a cancelled job — distinct
/// from every supervisor and CLI code (0/2/3/4/5/6).
pub const EXIT_CANCELLED: i32 = 7;

/// Exit code `snakectl submit` reports for a quota rejection — the
/// typed admission-control refusal, distinct from every other code.
pub const EXIT_QUOTA: i32 = 8;

/// Records per telemetry ring; at quick-harness rates a full event
/// stream overflows this, which is exactly what the drop accounting is
/// for — subscribers see the precise count of what they missed.
const RING_CAPACITY: usize = 65_536;

/// How long `tail` sleeps when a poll finds nothing new.
const TAIL_IDLE: Duration = Duration::from_millis(15);

/// Where `snaked` listens and journals, set by the binary's flags.
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Unix-domain socket path (created on start, removed on shutdown).
    pub socket: PathBuf,
    /// Optional JSONL state journal: one `submitted` line per accepted
    /// job and one `"terminal":true` line per finished/cancelled job
    /// (so an orphan check is `count(submitted) == count(terminal)`),
    /// plus running/requeued/record/checkpoint lines in between. The
    /// journal is what makes the daemon restartable: on startup it is
    /// replayed and unfinished jobs resume.
    pub state_log: Option<PathBuf>,
    /// Default mid-simulation checkpoint cadence (cycles) for daemon
    /// jobs, applied when the journal is enabled; per-submit
    /// `checkpoint_every` overrides it. `None` disables checkpointing
    /// unless a submit asks for it.
    pub checkpoint_every: Option<u64>,
    /// Max jobs one client may have *queued* at once; further submits
    /// are rejected with the typed `"quota"` code. `None` = unlimited.
    pub quota_queued: Option<usize>,
    /// Max jobs one client may have *running* at once; the scheduler
    /// passes over that client's queued jobs until a slot frees.
    /// `None` = unlimited.
    pub quota_running: Option<usize>,
    /// Scheduler worker threads — how many sweeps run concurrently.
    /// Must be at least 1; a running quota only has teeth with more
    /// than one worker (one worker never runs two jobs at once).
    pub workers: usize,
    /// Run every submitted job in a sandboxed subprocess (see
    /// [`JobExecutor`]): a job that aborts, segfaults, or is
    /// OOM-killed is quarantined with a typed crash kind instead of
    /// taking the daemon (and every co-tenant's jobs) down. Individual
    /// submits can also opt in per-job.
    pub isolate: bool,
}

/// Lifecycle of one submitted sweep.
#[derive(Debug)]
enum ReqState {
    /// Waiting in the priority queue.
    Queued,
    /// The scheduler is running it now.
    Running,
    /// Finished; holds the supervisor exit code, the report rows, and
    /// a note per quarantined sub-job (crash kind + stderr excerpt).
    Done {
        exit: i32,
        reports: Vec<(String, String, MechanismReport)>,
        failures: Vec<QuarantineNote>,
    },
    /// Cancelled before completion (queued or mid-run).
    Cancelled,
}

/// What `snakectl status` shows for one quarantined sub-job: enough to
/// diagnose the quarantine without grepping the journal.
#[derive(Debug, Clone)]
struct QuarantineNote {
    job: String,
    attempts: u32,
    error: String,
    /// Typed crash classification label, when the failure was a
    /// process death or panic.
    crash: Option<String>,
    /// Last stderr excerpt from a crashed sandboxed child.
    stderr: Option<String>,
}

impl QuarantineNote {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("job".to_string(), Value::str(&self.job)),
            ("attempts".to_string(), Value::u64(u64::from(self.attempts))),
            ("error".to_string(), Value::str(&self.error)),
        ];
        if let Some(kind) = &self.crash {
            fields.push(("crash".into(), Value::str(kind)));
        }
        if let Some(excerpt) = &self.stderr {
            fields.push(("stderr".into(), Value::str(excerpt)));
        }
        Value::Obj(fields)
    }
}

impl ReqState {
    fn label(&self) -> &'static str {
        match self {
            ReqState::Queued => "queued",
            ReqState::Running => "running",
            ReqState::Done { .. } => "done",
            ReqState::Cancelled => "cancelled",
        }
    }

    /// `(state label, exit code)` once terminal, `None` while live.
    fn terminal(&self) -> Option<(&'static str, i32)> {
        match self {
            ReqState::Done { exit, .. } => Some(("done", *exit)),
            ReqState::Cancelled => Some(("cancelled", EXIT_CANCELLED)),
            _ => None,
        }
    }
}

/// One submitted sweep: immutable plan plus live state.
struct JobEntry {
    id: u64,
    desc: String,
    priority: u64,
    client: Option<String>,
    harness: Harness,
    jobs: Vec<JobSpec>,
    events: bool,
    /// Run this sweep's jobs in sandboxed subprocesses.
    isolate: bool,
    /// Wall budget per scheduling slice; expiry suspends-to-checkpoint
    /// and re-queues instead of finishing the sweep in one sitting.
    deadline: Option<Duration>,
    cancel: AtomicBool,
    progress: Arc<Progress>,
    /// One ring per supervised job *attempt*, appended as each starts
    /// (across every scheduling slice); `tail` subscribers walk this
    /// list in order. Rings are closed when their job ends, so drains
    /// observe completion, not silence.
    rings: Mutex<Vec<(String, TelemetryRing)>>,
    state: Mutex<ReqState>,
    /// Durable per-sub-job records carried across scheduling slices
    /// (and across daemon restarts): the supervisor replays these
    /// instead of re-running finished work.
    recovered: Mutex<HashMap<String, JobRecord>>,
    /// Checkpoint artifacts currently registered in the journal, keyed
    /// by sub-job id. Cleared (file removed + journaled) the moment a
    /// sub-job completes or the sweep is cancelled, so a cancel leaves
    /// no stray checkpoint registered.
    live_ckpts: Mutex<HashMap<String, PathBuf>>,
}

struct Registry {
    next_id: u64,
    /// `(id, priority)`, submission order; the scheduler pops the
    /// highest priority, earliest submitted.
    queue: Vec<(u64, u64)>,
    entries: BTreeMap<u64, Arc<JobEntry>>,
    shutdown: bool,
}

struct Shared {
    socket: PathBuf,
    registry: Mutex<Registry>,
    wake: Condvar,
    journal: Option<Journal>,
    /// Default checkpoint cadence (see [`DaemonOptions`]).
    checkpoint_every: Option<u64>,
    quota_queued: Option<usize>,
    quota_running: Option<usize>,
    /// Tail subscribers that vanished mid-stream (write failure); the
    /// simulation never notices — the subscription is just dropped —
    /// but the count is surfaced in `health`.
    tails_disconnected: AtomicU64,
    /// Mid-simulation checkpoints made durable since startup.
    checkpoints_written: AtomicU64,
    /// The historical in-thread executor (non-isolated submits).
    exec_in_thread: Arc<JobExecutor>,
    /// The subprocess sandbox executor, shared across every isolated
    /// sweep so one spawn failure degrades the daemon with one sticky
    /// flag (surfaced as `exec_degraded` in `health`).
    exec_sandbox: Arc<JobExecutor>,
    /// Whether the daemon isolates every submit (`snaked --isolate`).
    isolate_all: bool,
}

impl Shared {
    fn journal(&self, event: &JournalEvent) {
        if let Some(j) = &self.journal {
            j.append(event);
        }
    }

    fn journal_terminal(&self, id: u64, state: &str, exit: i32) {
        self.journal(&JournalEvent::Terminal {
            id,
            state: state.to_string(),
            exit,
        });
    }

    /// `(label, degraded, errors)` for status/health lines.
    fn journal_health(&self) -> (&'static str, bool, u64) {
        match &self.journal {
            Some(j) if j.degraded() => ("degraded", true, j.errors()),
            Some(_) => ("ok", false, 0),
            None => ("disabled", false, 0),
        }
    }
}

/// Removes one sub-job's checkpoint artifact and journals the clear.
fn clear_checkpoint(shared: &Shared, entry: &JobEntry, job: &str) {
    let removed = entry.live_ckpts.lock().unwrap().remove(job);
    if let Some(path) = removed {
        let _ = std::fs::remove_file(&path);
        shared.journal(&JournalEvent::CheckpointCleared {
            id: entry.id,
            job: job.to_string(),
        });
    }
}

/// Removes every live checkpoint of a sweep (cancellation path).
fn clear_all_checkpoints(shared: &Shared, entry: &JobEntry) {
    let drained: Vec<(String, PathBuf)> = entry.live_ckpts.lock().unwrap().drain().collect();
    for (job, path) in drained {
        let _ = std::fs::remove_file(&path);
        shared.journal(&JournalEvent::CheckpointCleared { id: entry.id, job });
    }
}

/// The sibling file a daemon job's mid-simulation checkpoint goes to:
/// `<journal file name>.j<id>.<sub-job id with '/' → '-'>.ckpt`, in
/// the journal's directory — daemon state and simulation state travel
/// together, mirroring the sweep manifest convention.
fn checkpoint_path(journal_path: &Path, id: u64, job_id: &str) -> PathBuf {
    let stem = journal_path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snaked-state".into());
    journal_path.with_file_name(format!("{stem}.j{id}.{}.ckpt", job_id.replace('/', "-")))
}

/// A running daemon; `join` blocks until shutdown completes.
pub struct DaemonHandle {
    accept: JoinHandle<()>,
    schedulers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for DaemonHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DaemonHandle").finish_non_exhaustive()
    }
}

impl DaemonHandle {
    /// Waits for the accept loop and every scheduler worker to exit
    /// (they do after a `shutdown` request).
    pub fn join(self) {
        let _ = self.accept.join();
        for worker in self.schedulers {
            let _ = worker.join();
        }
    }
}

/// Starts the daemon: binds the socket, replays the state journal
/// (re-queueing unfinished jobs, resurrecting mid-run simulations from
/// their checkpoints), spawns the scheduler workers and the accept
/// loop, and returns immediately.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] when the socket cannot be
/// bound, a quota or worker count is zero, the state journal cannot be
/// opened,
/// or the journal is corrupt (mid-file corruption — a torn tail is
/// healed silently).
pub fn serve(opts: &DaemonOptions) -> io::Result<DaemonHandle> {
    if opts.quota_queued == Some(0) || opts.quota_running == Some(0) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "quotas must be at least 1 (omit the flag for unlimited)",
        ));
    }
    if opts.workers == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "the daemon needs at least 1 scheduler worker",
        ));
    }
    // A stale socket file from a crashed daemon would make bind fail;
    // connecting to it distinguishes stale from live.
    if opts.socket.exists() {
        if UnixStream::connect(&opts.socket).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("a daemon is already listening on {}", opts.socket.display()),
            ));
        }
        std::fs::remove_file(&opts.socket)?;
    }
    let listener = UnixListener::bind(&opts.socket)?;
    let mut registry = Registry {
        next_id: 1,
        queue: Vec::new(),
        entries: BTreeMap::new(),
        shutdown: false,
    };
    let journal = match &opts.state_log {
        Some(path) => {
            let (events, j) = Journal::open(path).map_err(|e| match e {
                LogError::Io { source, .. } => source,
                malformed => io::Error::new(io::ErrorKind::InvalidData, malformed.to_string()),
            })?;
            let recovered = journal::recover(&events);
            registry.next_id = recovered.next_id.max(1);
            for job in recovered.jobs {
                restore_job(&j, job, opts.checkpoint_every, opts.isolate, &mut registry);
            }
            Some(j)
        }
        None => None,
    };
    let shared = Arc::new(Shared {
        socket: opts.socket.clone(),
        registry: Mutex::new(registry),
        wake: Condvar::new(),
        journal,
        checkpoint_every: opts.checkpoint_every,
        quota_queued: opts.quota_queued,
        quota_running: opts.quota_running,
        tails_disconnected: AtomicU64::new(0),
        checkpoints_written: AtomicU64::new(0),
        exec_in_thread: Arc::new(JobExecutor::in_thread()),
        exec_sandbox: Arc::new(JobExecutor::sandbox(SandboxLimits::default())),
        isolate_all: opts.isolate,
    });

    let schedulers = (0..opts.workers)
        .map(|_| {
            let sched_shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(&sched_shared))
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || {
        for stream in listener.incoming() {
            if accept_shared.registry.lock().unwrap().shutdown {
                break;
            }
            let Ok(stream) = stream else { continue };
            let conn_shared = Arc::clone(&accept_shared);
            std::thread::spawn(move || {
                let _ = handle_connection(&conn_shared, stream);
            });
        }
        let _ = std::fs::remove_file(&accept_shared.socket);
    });

    Ok(DaemonHandle { accept, schedulers })
}

/// Reconstructs one journaled job into the registry: terminal jobs
/// come back with their recorded reports, non-terminal jobs re-queue
/// at their original priority with validated resume checkpoints.
fn restore_job(
    j: &Journal,
    job: journal::RecoveredJob,
    default_every: Option<u64>,
    daemon_isolate: bool,
    registry: &mut Registry,
) {
    let id = job.id;
    let plan = match resolve(&job.spec, true, default_every, daemon_isolate) {
        Ok(plan) => plan,
        Err(why) => {
            // A journal from an incompatible build: the job cannot be
            // re-planned. Balance its `submitted` line and move on —
            // never fail the whole recovery for one bad entry.
            if job.terminal.is_none() {
                j.append(&JournalEvent::Terminal {
                    id,
                    state: "cancelled".into(),
                    exit: EXIT_CANCELLED,
                });
            }
            registry.entries.insert(
                id,
                Arc::new(JobEntry {
                    id,
                    desc: format!("unrecoverable: {why}"),
                    priority: job.spec.priority,
                    client: job.spec.client.clone(),
                    harness: Harness::quick(),
                    jobs: Vec::new(),
                    events: false,
                    isolate: false,
                    deadline: None,
                    cancel: AtomicBool::new(true),
                    progress: Arc::new(Progress::default()),
                    rings: Mutex::new(Vec::new()),
                    state: Mutex::new(ReqState::Cancelled),
                    recovered: Mutex::new(HashMap::new()),
                    live_ckpts: Mutex::new(HashMap::new()),
                }),
            );
            return;
        }
    };
    let mut records = job.records;
    let mut live: HashMap<String, PathBuf> = job
        .live_checkpoints
        .iter()
        .map(|(k, v)| (k.clone(), PathBuf::from(v)))
        .collect();
    let state = match &job.terminal {
        Some((state, exit)) => {
            // Terminal before the crash: nothing resumes, so any
            // checkpoint artifact still registered is stale.
            for (jid, path) in live.drain() {
                let _ = std::fs::remove_file(&path);
                j.append(&JournalEvent::CheckpointCleared { id, job: jid });
            }
            if state == "cancelled" {
                ReqState::Cancelled
            } else {
                // Reports in campaign order, exactly how a live run
                // publishes them — recovery must not reorder bytes.
                let reports = plan
                    .jobs
                    .iter()
                    .filter_map(|js| match records.get(&js.id()) {
                        Some(JobRecord::Completed { stop, report, .. }) => {
                            Some((js.id(), stop.clone(), report.clone()))
                        }
                        _ => None,
                    })
                    .collect();
                let failures = plan
                    .jobs
                    .iter()
                    .filter_map(|js| match records.get(&js.id()) {
                        Some(JobRecord::Quarantined {
                            attempts,
                            error,
                            crash,
                            stderr,
                            ..
                        }) => Some(QuarantineNote {
                            job: js.id(),
                            attempts: *attempts,
                            error: error.clone(),
                            crash: crash.clone(),
                            stderr: stderr.clone(),
                        }),
                        _ => None,
                    })
                    .collect();
                ReqState::Done {
                    exit: *exit,
                    reports,
                    failures,
                }
            }
        }
        None => ReqState::Queued,
    };
    let queued = matches!(state, ReqState::Queued);
    if queued {
        // A resume checkpoint must actually load (schema, crc, and
        // fingerprint checked); an unusable one means that sub-job
        // simply re-runs from cycle zero — deterministically, so the
        // final bytes are unaffected.
        records.retain(|jid, rec| match rec {
            JobRecord::Suspended { checkpoint, .. } => {
                if Checkpoint::load(Path::new(checkpoint)).is_ok() {
                    true
                } else {
                    if let Some(p) = live.remove(jid) {
                        let _ = std::fs::remove_file(&p);
                        j.append(&JournalEvent::CheckpointCleared {
                            id,
                            job: jid.clone(),
                        });
                    }
                    false
                }
            }
            _ => true,
        });
        // A checkpoint superseded by a completed/quarantined record is
        // dead weight: clear it so the journal never re-resurrects it.
        let stale: Vec<String> = live
            .keys()
            .filter(|jid| !matches!(records.get(*jid), Some(JobRecord::Suspended { .. })))
            .cloned()
            .collect();
        for jid in stale {
            if let Some(p) = live.remove(&jid) {
                let _ = std::fs::remove_file(&p);
                j.append(&JournalEvent::CheckpointCleared { id, job: jid });
            }
        }
    }
    let entry = Arc::new(JobEntry {
        id,
        desc: plan.desc,
        priority: job.spec.priority,
        client: job.spec.client.clone(),
        harness: plan.harness,
        jobs: plan.jobs,
        events: job.spec.events,
        isolate: plan.isolate,
        deadline: job.spec.deadline_ms.map(Duration::from_millis),
        cancel: AtomicBool::new(false),
        progress: Arc::new(Progress::default()),
        rings: Mutex::new(Vec::new()),
        state: Mutex::new(state),
        recovered: Mutex::new(records),
        live_ckpts: Mutex::new(live),
    });
    if queued {
        registry.queue.push((id, entry.priority));
        j.append(&JournalEvent::Requeued { id });
    }
    registry.entries.insert(id, entry);
}

/// A resolved submit: the concrete harness and job list to run.
#[derive(Debug)]
struct Plan {
    harness: Harness,
    jobs: Vec<JobSpec>,
    desc: String,
    /// Whether this sweep runs sandboxed (per-submit or daemon-wide).
    isolate: bool,
}

/// Resolves a submit spec into a concrete plan, rejecting bad operands
/// before anything is queued. `journaled` gates the checkpoint/deadline
/// features: without a journal there is nowhere durable to register
/// checkpoints, so both are refused rather than silently ignored.
/// `daemon_isolate` forces sandboxing for every submit; the combination
/// of isolation and the full event stream is refused because trace
/// events do not round-trip the child protocol losslessly (window rows
/// do).
fn resolve(
    spec: &SubmitSpec,
    journaled: bool,
    default_every: Option<u64>,
    daemon_isolate: bool,
) -> Result<Plan, String> {
    let isolate = spec.isolate || daemon_isolate;
    if isolate && spec.events {
        return Err(
            "\"events\" and \"isolate\" are mutually exclusive: a sandboxed \
             child streams metric windows but not the full trace-event \
             stream (submit without events, or without isolate)"
                .into(),
        );
    }
    let benches: Vec<Benchmark> = match &spec.benchmarks {
        Some(raw) => parse_list(raw, "benchmark")?,
        None => Benchmark::all().to_vec(),
    };
    let kinds: Vec<PrefetcherKind> = match &spec.mechanisms {
        Some(raw) => parse_list(raw, "mechanism")?,
        None => PrefetcherKind::all().to_vec(),
    };
    let mut harness = if spec.quick {
        Harness::quick()
    } else {
        Harness::standard()
    };
    if let Some(budget) = spec.budget {
        harness.cfg.cycle_budget = Some(snake_sim::Cycle(budget));
    }
    // Window rows are the tail stream's payload, so sampling is always
    // on; the default matches `pfdebug`'s windowed view.
    harness.cfg.metrics_window = Some(spec.window.unwrap_or(500));
    if !journaled && spec.checkpoint_every.is_some() {
        return Err("checkpointing requires the daemon to run with --state \
             (there is no journal to register checkpoints in)"
            .into());
    }
    let every = if journaled {
        spec.checkpoint_every.or(default_every)
    } else {
        None
    };
    harness.cfg.checkpoint_every = every;
    if spec.deadline_ms == Some(0) {
        return Err("\"deadline_ms\" must be positive".into());
    }
    if spec.deadline_ms.is_some() && every.is_none() {
        return Err(
            "a per-job deadline requires checkpointing: run the daemon with \
             --state and --checkpoint-every, or pass checkpoint_every on submit"
                .into(),
        );
    }
    harness.validate().map_err(|e| e.to_string())?;
    let jobs = campaign(&benches, &kinds);
    if jobs.is_empty() {
        return Err("empty campaign: no benchmarks or no mechanisms".into());
    }
    let desc = format!(
        "{} jobs ({} × {}){}",
        jobs.len(),
        benches.len(),
        kinds.len(),
        if spec.quick { ", quick" } else { "" }
    );
    Ok(Plan {
        harness,
        jobs,
        desc,
        isolate,
    })
}

fn parse_list<T>(raw: &str, what: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let items: Result<Vec<T>, String> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.trim().parse().map_err(|e: T::Err| format!("{what}: {e}")))
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(format!("{what} list is empty"));
    }
    Ok(items)
}

/// Queue ids whose client is at its running quota right now — the
/// scheduler passes over them without starving anybody else.
fn quota_blocked(reg: &Registry, quota_running: Option<usize>) -> HashSet<u64> {
    let Some(max) = quota_running else {
        return HashSet::new();
    };
    let mut running: HashMap<&Option<String>, usize> = HashMap::new();
    for e in reg.entries.values() {
        if matches!(*e.state.lock().unwrap(), ReqState::Running) {
            *running.entry(&e.client).or_insert(0) += 1;
        }
    }
    reg.queue
        .iter()
        .filter_map(|(id, _)| {
            let e = reg.entries.get(id)?;
            (running.get(&e.client).copied().unwrap_or(0) >= max).then_some(*id)
        })
        .collect()
}

/// Pops the runnable entry with the highest priority (FIFO within a
/// priority level, quota-blocked clients passed over), blocking until
/// one exists or shutdown.
fn next_entry(shared: &Shared) -> Option<Arc<JobEntry>> {
    let mut reg = shared.registry.lock().unwrap();
    loop {
        let blocked = quota_blocked(&reg, shared.quota_running);
        if let Some(pos) = best_queued(&reg.queue, &blocked) {
            let (id, _) = reg.queue.remove(pos);
            return Some(Arc::clone(&reg.entries[&id]));
        }
        if reg.shutdown {
            return None;
        }
        reg = shared.wake.wait(reg).unwrap();
    }
}

/// Index of the highest-priority, earliest-submitted queued job that
/// is not quota-blocked.
fn best_queued(queue: &[(u64, u64)], blocked: &HashSet<u64>) -> Option<usize> {
    queue
        .iter()
        .enumerate()
        .filter(|(_, (id, _))| !blocked.contains(id))
        .max_by_key(|(i, (_, prio))| (*prio, std::cmp::Reverse(*i)))
        .map(|(i, _)| i)
}

fn scheduler_loop(shared: &Shared) {
    while let Some(entry) = next_entry(shared) {
        run_entry(shared, &entry);
    }
}

/// Marks an entry cancelled, clears its checkpoint artifacts, and
/// journals the terminal line. The caller must have observed a state
/// that makes it the unique finalizer.
fn finalize_cancelled(shared: &Shared, entry: &JobEntry) {
    clear_all_checkpoints(shared, entry);
    *entry.state.lock().unwrap() = ReqState::Cancelled;
    shared.journal_terminal(entry.id, "cancelled", EXIT_CANCELLED);
    shared.wake.notify_all();
}

/// Runs one scheduling slice of a submitted sweep: to a terminal state
/// when it finishes (or is cancelled), or back to the queue when its
/// per-slice deadline suspends it mid-simulation.
fn run_entry(shared: &Shared, entry: &JobEntry) {
    {
        // The cancel check and the Queued → Running transition must be
        // one atomic step: the cancel handler marks-and-logs terminal
        // under the same lock, so exactly one of us writes the
        // terminal journal line.
        let mut state = entry.state.lock().unwrap();
        if !matches!(*state, ReqState::Queued) {
            return;
        }
        if entry.cancel.load(Ordering::Relaxed) {
            // Cancelled after a requeue put it back in the queue (the
            // cancel handler saw Running and left finalizing to us).
            *state = ReqState::Cancelled;
            drop(state);
            clear_all_checkpoints(shared, entry);
            shared.journal_terminal(entry.id, "cancelled", EXIT_CANCELLED);
            shared.wake.notify_all();
            return;
        }
        *state = ReqState::Running;
    }
    shared.journal(&JournalEvent::Running { id: entry.id });

    let cfg = SweepConfig {
        workers: 1,
        max_attempts: 2,
        progress: Some(Arc::clone(&entry.progress)),
        // The per-slice wall budget: jobs not yet claimed when it
        // expires are skipped (the supervisor's exit-4 path) and the
        // whole sweep re-queues below.
        wall_deadline: entry.deadline,
        ..SweepConfig::default()
    };
    let slice_deadline = entry.deadline.map(|d| Instant::now() + d);
    let ckpt_base = match &shared.journal {
        Some(j) if entry.harness.cfg.checkpoint_every.is_some() => Some(j.path().to_path_buf()),
        _ => None,
    };
    let runner = |job: &JobSpec, attempt: u32, resume: Option<&Path>| {
        if entry.cancel.load(Ordering::Relaxed) {
            return Ok(crate::runner::JobRun::Cancelled);
        }
        let ring = TelemetryRing::new(RING_CAPACITY);
        entry.rings.lock().unwrap().push((job.id(), ring.clone()));
        let harness = if attempt == 1 {
            entry.harness.clone()
        } else {
            let mut retry = entry.harness.clone();
            retry.cfg.fault.seed =
                crate::supervise::retry_seed(cfg.retry_seed_base, &job.id(), attempt);
            retry
        };
        let jid = job.id();
        let ckpt_path = ckpt_base
            .as_ref()
            .map(|b| checkpoint_path(b, entry.id, &jid));
        let executor = if entry.isolate {
            &shared.exec_sandbox
        } else {
            &shared.exec_in_thread
        };
        let ctx = ExecContext {
            resume_from: resume,
            checkpoint_to: ckpt_path.as_deref(),
            deadline: slice_deadline,
            cancel: Some(&entry.cancel),
            ring: Some(&ring),
            include_events: entry.events,
            ..ExecContext::default()
        };
        let result = executor.run(&harness, job, &ctx, &mut |cycle, _bytes| {
            // A checkpoint is durable on disk the moment this
            // fires; register it before anything can crash.
            let Some(p) = &ckpt_path else { return };
            shared.checkpoints_written.fetch_add(1, Ordering::Relaxed);
            entry
                .live_ckpts
                .lock()
                .unwrap()
                .insert(jid.clone(), p.clone());
            shared.journal(&JournalEvent::Checkpoint {
                id: entry.id,
                job: jid.clone(),
                cycle,
                path: p.display().to_string(),
            });
        });
        // Closing lets tail subscribers distinguish "job over" from
        // "no data yet"; a retry gets a fresh ring.
        ring.close();
        result
    };
    let recovered_at_start = entry.recovered.lock().unwrap().clone();
    let result = run_supervised(&entry.jobs, &cfg, &recovered_at_start, None, runner);

    // Journal every record that became durable this slice (replayed
    // ones are already in the journal — appending them again would
    // make recovery quadratic) and drop checkpoints of finished jobs.
    {
        let mut recovered = entry.recovered.lock().unwrap();
        for (job, outcome) in &result.outcomes {
            let jid = job.id();
            let Some(rec) = outcome.to_record(jid.clone()) else {
                continue;
            };
            if recovered.get(&jid) != Some(&rec) {
                shared.journal(&JournalEvent::Job {
                    id: entry.id,
                    record: rec.clone(),
                });
                recovered.insert(jid.clone(), rec.clone());
            }
            if !matches!(rec, JobRecord::Suspended { .. }) {
                clear_checkpoint(shared, entry, &jid);
            }
        }
    }

    if entry.cancel.load(Ordering::Relaxed) {
        finalize_cancelled(shared, entry);
        return;
    }
    let unfinished = result
        .outcomes
        .iter()
        .any(|(_, o)| matches!(o, JobOutcome::Skipped { .. } | JobOutcome::Suspended { .. }));
    if unfinished {
        // The slice deadline hit: suspended state is durable, so the
        // sweep goes back to the queue at its original priority and
        // the next slice resumes mid-simulation.
        let mut reg = shared.registry.lock().unwrap();
        if reg.shutdown || entry.cancel.load(Ordering::Relaxed) {
            drop(reg);
            finalize_cancelled(shared, entry);
            return;
        }
        *entry.state.lock().unwrap() = ReqState::Queued;
        reg.queue.push((entry.id, entry.priority));
        drop(reg);
        shared.journal(&JournalEvent::Requeued { id: entry.id });
        shared.wake.notify_all();
        return;
    }

    let exit = result.exit_code();
    let reports: Vec<(String, String, MechanismReport)> = result
        .outcomes
        .iter()
        .filter_map(|(job, o)| match o {
            JobOutcome::Completed { report, stop, .. } => {
                Some((job.id(), stop.clone(), report.clone()))
            }
            _ => None,
        })
        .collect();
    let failures: Vec<QuarantineNote> = result
        .outcomes
        .iter()
        .filter_map(|(job, o)| match o {
            JobOutcome::Crashed {
                message,
                attempts,
                crash,
                stderr,
            } => Some(QuarantineNote {
                job: job.id(),
                attempts: *attempts,
                error: message.clone(),
                crash: crash.map(|k| k.label()),
                stderr: stderr.clone(),
            }),
            _ => None,
        })
        .collect();
    *entry.state.lock().unwrap() = ReqState::Done {
        exit,
        reports,
        failures,
    };
    shared.journal_terminal(entry.id, "done", exit);
    shared.wake.notify_all();
}

fn handle_connection(shared: &Shared, stream: UnixStream) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut out = stream;
    let request = match Request::parse(line.trim()) {
        Ok(r) => r,
        Err(e) => return writeln!(out, "{}", err_line(&e)),
    };
    match request {
        Request::Submit(spec) => handle_submit(shared, &spec, &mut out),
        Request::Status { id } => handle_status(shared, id, &mut out),
        Request::Cancel { id } => handle_cancel(shared, id, &mut out),
        Request::Tail { id, ring, from } => handle_tail(shared, id, ring, from, &mut out),
        Request::Health => handle_health(shared, &mut out),
        Request::Shutdown => handle_shutdown(shared, &mut out),
    }
}

fn handle_submit(shared: &Shared, spec: &SubmitSpec, out: &mut UnixStream) -> io::Result<()> {
    let plan = match resolve(
        spec,
        shared.journal.is_some(),
        shared.checkpoint_every,
        shared.isolate_all,
    ) {
        Ok(plan) => plan,
        Err(e) => return writeln!(out, "{}", err_line(&e)),
    };
    let id = {
        let mut reg = shared.registry.lock().unwrap();
        if reg.shutdown {
            drop(reg);
            return writeln!(out, "{}", err_line("daemon is shutting down"));
        }
        if let Some(max) = shared.quota_queued {
            let queued = reg
                .entries
                .values()
                .filter(|e| {
                    e.client == spec.client && matches!(*e.state.lock().unwrap(), ReqState::Queued)
                })
                .count();
            if queued >= max {
                let who = spec.client.as_deref().unwrap_or("(anonymous)");
                drop(reg);
                return writeln!(
                    out,
                    "{}",
                    err_line_coded(
                        &format!("client {who:?} already has {queued} queued jobs (quota {max})"),
                        "quota",
                    )
                );
            }
        }
        let id = reg.next_id;
        reg.next_id += 1;
        let entry = Arc::new(JobEntry {
            id,
            desc: plan.desc,
            priority: spec.priority,
            client: spec.client.clone(),
            harness: plan.harness,
            jobs: plan.jobs,
            events: spec.events,
            isolate: plan.isolate,
            deadline: spec.deadline_ms.map(Duration::from_millis),
            cancel: AtomicBool::new(false),
            progress: Arc::new(Progress::default()),
            rings: Mutex::new(Vec::new()),
            state: Mutex::new(ReqState::Queued),
            recovered: Mutex::new(HashMap::new()),
            live_ckpts: Mutex::new(HashMap::new()),
        });
        reg.entries.insert(id, entry);
        reg.queue.push((id, spec.priority));
        id
    };
    shared.journal(&JournalEvent::Submitted {
        id,
        spec: spec.clone(),
    });
    shared.wake.notify_all();
    writeln!(out, "{}", ok_line(vec![("id".into(), Value::u64(id))]))
}

/// One job's status object.
fn status_json(entry: &JobEntry) -> Value {
    let state = entry.state.lock().unwrap();
    let mut fields = vec![
        ("id".to_string(), Value::u64(entry.id)),
        ("desc".to_string(), Value::str(&entry.desc)),
        ("priority".to_string(), Value::u64(entry.priority)),
        ("state".to_string(), Value::str(state.label())),
        ("progress".to_string(), entry.progress.snapshot().to_json()),
    ];
    if let Some(client) = &entry.client {
        fields.push(("client".into(), Value::str(client)));
    }
    if let ReqState::Done {
        exit,
        reports,
        failures,
    } = &*state
    {
        fields.push(("exit".into(), Value::u64((*exit).max(0) as u64)));
        fields.push((
            "reports".into(),
            Value::Arr(
                reports
                    .iter()
                    .map(|(job, stop, report)| {
                        Value::Obj(vec![
                            ("job".into(), Value::str(job)),
                            ("stop".into(), Value::str(stop)),
                            ("report".into(), report.to_json()),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !failures.is_empty() {
            fields.push((
                "quarantined".into(),
                Value::Arr(failures.iter().map(QuarantineNote::to_json).collect()),
            ));
        }
    }
    Value::Obj(fields)
}

fn handle_status(shared: &Shared, id: Option<u64>, out: &mut UnixStream) -> io::Result<()> {
    let reg = shared.registry.lock().unwrap();
    let (journal_state, degraded, errors) = shared.journal_health();
    let line = match id {
        Some(id) => match reg.entries.get(&id) {
            Some(entry) => ok_line(vec![
                ("job".into(), status_json(entry)),
                ("journal".into(), Value::str(journal_state)),
                ("journal_degraded".into(), Value::Bool(degraded)),
                ("journal_errors".into(), Value::u64(errors)),
            ]),
            None => err_line(&format!("no job {id}")),
        },
        None => ok_line(vec![
            (
                "jobs".into(),
                Value::Arr(reg.entries.values().map(|e| status_json(e)).collect()),
            ),
            ("journal".into(), Value::str(journal_state)),
            ("journal_degraded".into(), Value::Bool(degraded)),
            ("journal_errors".into(), Value::u64(errors)),
        ]),
    };
    drop(reg);
    writeln!(out, "{line}")
}

fn handle_health(shared: &Shared, out: &mut UnixStream) -> io::Result<()> {
    let (journal_state, degraded, errors) = shared.journal_health();
    // Sum of the overdue gauges across running sweeps: non-zero means
    // the hung-job watchdog sees at least one job past its deadline
    // plus grace right now.
    let jobs_overdue: u64 = {
        let reg = shared.registry.lock().unwrap();
        reg.entries
            .values()
            .filter(|e| matches!(*e.state.lock().unwrap(), ReqState::Running))
            .map(|e| e.progress.snapshot().overdue)
            .sum()
    };
    writeln!(
        out,
        "{}",
        ok_line(vec![
            ("journal".into(), Value::str(journal_state)),
            ("journal_degraded".into(), Value::Bool(degraded)),
            ("journal_errors".into(), Value::u64(errors)),
            (
                "tails_disconnected".into(),
                Value::u64(shared.tails_disconnected.load(Ordering::Relaxed)),
            ),
            (
                "checkpoints_written".into(),
                Value::u64(shared.checkpoints_written.load(Ordering::Relaxed)),
            ),
            (
                "exec_degraded".into(),
                Value::Bool(shared.exec_sandbox.degraded()),
            ),
            ("jobs_overdue".into(), Value::u64(jobs_overdue)),
        ])
    )
}

fn handle_cancel(shared: &Shared, id: u64, out: &mut UnixStream) -> io::Result<()> {
    let entry = {
        let reg = shared.registry.lock().unwrap();
        match reg.entries.get(&id) {
            Some(e) => Arc::clone(e),
            None => {
                drop(reg);
                return writeln!(out, "{}", err_line(&format!("no job {id}")));
            }
        }
    };
    entry.cancel.store(true, Ordering::Relaxed);
    let label = {
        let mut state = entry.state.lock().unwrap();
        match &*state {
            // Still queued: run_entry re-checks under this lock and
            // will not start it, so it is terminal right now.
            ReqState::Queued => {
                *state = ReqState::Cancelled;
                drop(state);
                clear_all_checkpoints(shared, &entry);
                shared.journal_terminal(id, "cancelled", EXIT_CANCELLED);
                "cancelled"
            }
            // Running: the flag stops it within a cycle; the
            // scheduler marks and logs the terminal state.
            ReqState::Running => "cancelling",
            other => other.label(),
        }
    };
    writeln!(
        out,
        "{}",
        ok_line(vec![
            ("id".into(), Value::u64(id)),
            ("state".into(), Value::str(label)),
        ])
    )
}

fn handle_shutdown(shared: &Shared, out: &mut UnixStream) -> io::Result<()> {
    {
        let mut reg = shared.registry.lock().unwrap();
        reg.shutdown = true;
        reg.queue.clear();
        // Cancel every live entry, queued or running — including one
        // the scheduler popped but has not transitioned yet (its
        // Queued → Running step re-checks under the state lock).
        for (id, entry) in reg.entries.iter() {
            let mut state = entry.state.lock().unwrap();
            match &*state {
                ReqState::Queued => {
                    entry.cancel.store(true, Ordering::Relaxed);
                    *state = ReqState::Cancelled;
                    drop(state);
                    clear_all_checkpoints(shared, entry);
                    shared.journal_terminal(*id, "cancelled", EXIT_CANCELLED);
                }
                ReqState::Running => entry.cancel.store(true, Ordering::Relaxed),
                _ => {}
            }
        }
    }
    shared.wake.notify_all();
    writeln!(out, "{}", ok_line(vec![]))?;
    // Unblock the accept loop so it observes the shutdown flag.
    let _ = UnixStream::connect(&shared.socket);
    Ok(())
}

/// Streams a job's telemetry until it reaches a terminal state:
/// `stream`/`window`/`event` lines per ring, `progress` lines on
/// change, then one `done` line with exact delivered/dropped totals.
///
/// A write failure (the subscriber vanished) only drops this
/// connection's subscription — the simulation thread never blocks on a
/// tail — and is counted in `health`'s `tails_disconnected`.
fn handle_tail(
    shared: &Shared,
    id: u64,
    ring_start: u64,
    from: Option<u64>,
    out: &mut UnixStream,
) -> io::Result<()> {
    let entry = {
        let reg = shared.registry.lock().unwrap();
        match reg.entries.get(&id) {
            Some(e) => Arc::clone(e),
            None => {
                drop(reg);
                return writeln!(out, "{}", err_line(&format!("no job {id}")));
            }
        }
    };
    writeln!(out, "{}", ok_line(vec![("id".into(), Value::u64(id))]))?;
    let result = stream_tail(&entry, ring_start, from, out);
    if result.is_err() {
        shared.tails_disconnected.fetch_add(1, Ordering::Relaxed);
    }
    result
}

fn stream_tail(
    entry: &JobEntry,
    ring_start: u64,
    from: Option<u64>,
    out: &mut UnixStream,
) -> io::Result<()> {
    let mut ring_idx = ring_start as usize;
    // `--from-seq` applies to the first ring this subscriber opens; a
    // reconnect resumes exactly where the last connection was cut off.
    let mut resume_from = from;
    let mut current: Option<(String, snake_sim::Subscription<TelemetryRecord>)> = None;
    let mut delivered = 0u64;
    let mut dropped = 0u64;
    let mut last_progress = None;
    loop {
        let snap = entry.progress.snapshot();
        if last_progress != Some(snap) {
            writeln!(out, "{}", progress_line(&snap))?;
            last_progress = Some(snap);
        }
        let mut advanced = false;
        if current.is_none() {
            let opened = {
                let rings = entry.rings.lock().unwrap();
                // Subscribe from the requested sequence (0 for later
                // rings): a late subscriber gets whatever the ring
                // still holds, and the overwritten prefix is *counted*
                // (not silently absent) — the first drain reports it
                // in `dropped`.
                rings.get(ring_idx).map(|(job, ring)| {
                    (
                        job.clone(),
                        ring.subscribe_from(resume_from.take().unwrap_or(0)),
                    )
                })
            };
            if let Some((job, sub)) = opened {
                writeln!(out, "{}", stream_line(&job, sub.cursor()))?;
                current = Some((job, sub));
                advanced = true;
            }
        }
        if let Some((job, sub)) = &mut current {
            let drained = sub.drain();
            dropped += drained.dropped;
            if !drained.records.is_empty() {
                advanced = true;
            }
            for (k, rec) in drained.records.iter().enumerate() {
                writeln!(
                    out,
                    "{}",
                    record_line(job, drained.first_seq + k as u64, rec, dropped)
                )?;
                delivered += 1;
            }
            if drained.done {
                // After a complete drain the cursor sits one past the
                // last record the ring ever produced; publishing it
                // makes trailing drops verifiable by the client.
                writeln!(out, "{}", stream_end_line(job, sub.cursor()))?;
                current = None;
                ring_idx += 1;
                // Skip the idle sleep: the next ring may already exist.
                continue;
            }
        }
        if current.is_none() && ring_idx >= entry.rings.lock().unwrap().len() {
            if let Some((state, exit)) = entry.state.lock().unwrap().terminal() {
                let snap = entry.progress.snapshot();
                if last_progress != Some(snap) {
                    writeln!(out, "{}", progress_line(&snap))?;
                }
                return writeln!(out, "{}", done_line(state, exit, delivered, dropped));
            }
        }
        if !advanced {
            std::thread::sleep(TAIL_IDLE);
        }
    }
}

// Exercised end-to-end (daemon process, socket, client) in
// `tests/serve.rs` and `tests/serve_chaos.rs`; unit tests here cover
// the pure pieces.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_pops_priority_then_fifo_and_respects_blocking() {
        let none = HashSet::new();
        let queue = vec![(1, 0), (2, 5), (3, 5), (4, 1)];
        assert_eq!(best_queued(&queue, &none), Some(1), "highest priority wins");
        let queue = vec![(7, 2), (8, 2)];
        assert_eq!(
            best_queued(&queue, &none),
            Some(0),
            "FIFO within a priority"
        );
        assert_eq!(best_queued(&[], &none), None);
        // A quota-blocked id is passed over without starving the rest.
        let blocked: HashSet<u64> = [2].into_iter().collect();
        let queue = vec![(1, 0), (2, 5), (3, 1)];
        assert_eq!(best_queued(&queue, &blocked), Some(2));
        let all: HashSet<u64> = [1, 2, 3].into_iter().collect();
        assert_eq!(best_queued(&queue, &all), None);
    }

    #[test]
    fn resolve_rejects_bad_operands_and_defaults_sensibly() {
        let mut spec = SubmitSpec {
            quick: true,
            ..SubmitSpec::default()
        };
        let plan = resolve(&spec, false, None, false).unwrap();
        assert_eq!(
            plan.jobs.len(),
            Benchmark::all().len() * PrefetcherKind::all().len()
        );
        assert_eq!(
            plan.harness.cfg.metrics_window,
            Some(500),
            "window always on"
        );
        assert!(plan.desc.contains("quick"));

        spec.benchmarks = Some("LPS".into());
        spec.mechanisms = Some("baseline,snake".into());
        spec.window = Some(200);
        spec.budget = Some(6000);
        let plan = resolve(&spec, false, None, false).unwrap();
        assert_eq!(plan.jobs.len(), 2);
        assert_eq!(plan.harness.cfg.metrics_window, Some(200));
        assert_eq!(plan.harness.cfg.cycle_budget, Some(snake_sim::Cycle(6000)));

        spec.benchmarks = Some("NOPE".into());
        assert!(resolve(&spec, false, None, false)
            .unwrap_err()
            .contains("benchmark"));
        spec.benchmarks = Some(",".into());
        assert!(resolve(&spec, false, None, false)
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn resolve_gates_checkpointing_and_deadlines_on_the_journal() {
        let mut spec = SubmitSpec {
            quick: true,
            checkpoint_every: Some(1000),
            ..SubmitSpec::default()
        };
        // Checkpointing without a journal is refused, not ignored.
        assert!(resolve(&spec, false, None, false)
            .unwrap_err()
            .contains("--state"));
        let plan = resolve(&spec, true, None, false).unwrap();
        assert_eq!(plan.harness.cfg.checkpoint_every, Some(1000));
        // The daemon default applies when the submit does not override.
        spec.checkpoint_every = None;
        let plan = resolve(&spec, true, Some(2000), false).unwrap();
        assert_eq!(plan.harness.cfg.checkpoint_every, Some(2000));
        // A deadline needs somewhere to suspend to.
        spec.deadline_ms = Some(100);
        assert!(resolve(&spec, true, None, false)
            .unwrap_err()
            .contains("deadline"));
        assert!(resolve(&spec, true, Some(2000), false).is_ok());
        spec.deadline_ms = Some(0);
        assert!(resolve(&spec, true, Some(2000), false)
            .unwrap_err()
            .contains("positive"));
        // checkpoint_every = 0 falls to the config validator.
        spec.deadline_ms = None;
        spec.checkpoint_every = Some(0);
        assert!(resolve(&spec, true, None, false).is_err());
    }

    #[test]
    fn checkpoint_paths_are_journal_siblings() {
        let p = checkpoint_path(Path::new("/tmp/state.jsonl"), 3, "LPS/snake");
        assert_eq!(p, PathBuf::from("/tmp/state.jsonl.j3.LPS-snake.ckpt"));
    }

    #[test]
    fn protocol_mentions_every_terminal_state() {
        assert_eq!(ReqState::Queued.terminal(), None);
        assert_eq!(ReqState::Running.terminal(), None);
        assert_eq!(
            ReqState::Cancelled.terminal(),
            Some(("cancelled", EXIT_CANCELLED))
        );
        let done = ReqState::Done {
            exit: 0,
            reports: Vec::new(),
            failures: Vec::new(),
        };
        assert_eq!(done.terminal(), Some(("done", 0)));
    }

    #[test]
    fn resolve_arbitrates_isolation() {
        let spec = SubmitSpec {
            quick: true,
            ..SubmitSpec::default()
        };
        assert!(!resolve(&spec, false, None, false).unwrap().isolate);
        // Either side can turn isolation on.
        let spec = SubmitSpec {
            quick: true,
            isolate: true,
            ..SubmitSpec::default()
        };
        assert!(resolve(&spec, false, None, false).unwrap().isolate);
        let spec = SubmitSpec {
            quick: true,
            ..SubmitSpec::default()
        };
        assert!(resolve(&spec, false, None, true).unwrap().isolate);
        // Events cannot cross the sandbox wire, whichever side asked
        // for isolation.
        let spec = SubmitSpec {
            quick: true,
            events: true,
            isolate: true,
            ..SubmitSpec::default()
        };
        assert!(resolve(&spec, false, None, false)
            .unwrap_err()
            .contains("isolate"));
        let spec = SubmitSpec {
            quick: true,
            events: true,
            ..SubmitSpec::default()
        };
        assert!(resolve(&spec, false, None, true)
            .unwrap_err()
            .contains("isolate"));
        assert!(resolve(&spec, false, None, false).is_ok());
    }
}
