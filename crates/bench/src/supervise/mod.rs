//! The sweep supervisor: experiment campaigns as supervised jobs.
//!
//! A campaign is a list of `(benchmark, mechanism)` jobs. Each job
//! runs on a worker thread behind `catch_unwind`, so one poisoned
//! simulation cannot take down the sweep: a panicking or deadlocking
//! job is retried with capped exponential backoff and a deterministic
//! per-attempt fault seed, and quarantined after the attempt budget —
//! while every healthy sibling still produces its row.
//!
//! Progress checkpoints into a crash-consistent JSONL [`manifest`]
//! (versioned header created atomically; one durable record appended
//! per finished job), so an interrupted sweep can be resumed with
//! `repro --resume <manifest>`: completed jobs are replayed from their
//! recorded reports and the final rendered output is byte-identical to
//! an uninterrupted run.
//!
//! Jobs caught *mid-simulation* by the sweep deadline (or the
//! deterministic `suspend_after` trigger) are not killed and retried
//! from zero: their complete simulator state is checkpointed next to
//! the manifest ([`job_checkpoint_path`]) and a `suspended` record is
//! appended; `--resume` restores the state and finishes the remaining
//! cycles, with the same byte-identical guarantee.
//!
//! Exit codes: `0` all jobs completed, [`EXIT_QUARANTINE`] when any
//! job was quarantined, [`EXIT_INTERRUPTED`] when the sweep stopped
//! early (deadline or `--stop-after`) with jobs still pending.

pub mod executor;
pub mod manifest;
pub mod progress;
mod supervisor;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use snake_core::PrefetcherKind;
use snake_sim::snapshot::fnv1a64;
use snake_sim::SimError;
use snake_workloads::Benchmark;

use crate::jsonl_log::{Appender, LogError};
use crate::runner::{Harness, JobRun};
use manifest::{LoadedManifest, ManifestHeader};

pub use crate::runner::ExecContext;
pub use executor::{CrashKind, CrashReport, ExecError, JobExecutor, SandboxLimits};
pub use manifest::JobRecord;
pub use progress::{Progress, ProgressSnapshot};
pub use supervisor::{run_supervised, JobOutcome, SweepResult};

/// Exit code when the sweep finished but quarantined at least one job
/// (healthy rows were still produced and rendered).
pub const EXIT_QUARANTINE: i32 = 3;

/// Exit code when the sweep stopped before running every job (wall
/// deadline or `--stop-after`); resume from the manifest to finish.
pub const EXIT_INTERRUPTED: i32 = 4;

/// One supervised unit of work: a benchmark under a mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// The application to run.
    pub bench: Benchmark,
    /// The prefetching mechanism to run it under.
    pub kind: PrefetcherKind,
}

impl JobSpec {
    /// The manifest identity of this job, `"<abbr>/<mechanism>"`.
    pub fn id(&self) -> String {
        format!("{}/{}", self.bench.abbr(), self.kind.name())
    }
}

impl std::fmt::Display for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.bench.abbr(), self.kind.name())
    }
}

/// The full cross product of benchmarks × mechanisms, in campaign
/// order (benchmark-major, matching the paper's table layout).
pub fn campaign(benches: &[Benchmark], kinds: &[PrefetcherKind]) -> Vec<JobSpec> {
    benches
        .iter()
        .flat_map(|&bench| kinds.iter().map(move |&kind| JobSpec { bench, kind }))
        .collect()
}

/// Supervision policy for one sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Attempts per job before quarantine (≥1).
    pub max_attempts: u32,
    /// Base backoff between attempts; attempt `n` waits
    /// `min(cap, base << (n-1))` milliseconds.
    pub backoff_base_ms: u64,
    /// Backoff ceiling in milliseconds.
    pub backoff_cap_ms: u64,
    /// Worker threads pulling jobs from the queue.
    pub workers: usize,
    /// Wall-clock budget for the whole sweep; jobs not yet claimed
    /// when it expires are skipped and the sweep reports interrupted.
    pub wall_deadline: Option<Duration>,
    /// Stop claiming new jobs after this many have been started this
    /// run (checkpointed jobs excluded) — a deterministic stand-in for
    /// killing the process mid-sweep.
    pub stop_after: Option<usize>,
    /// Suspend (checkpoint mid-simulation and requeue) every running
    /// job once its simulation reaches this cycle — the deterministic
    /// stand-in for deadline preemption, mirroring `stop_after`.
    /// Requires a manifest; applies to this invocation only, so a
    /// resume without the flag restores and finishes the job.
    pub suspend_after: Option<u64>,
    /// Base value for the deterministic per-attempt retry seed
    /// schedule (see [`retry_seed`]).
    pub retry_seed_base: u64,
    /// Live progress counters the supervisor updates as jobs finish —
    /// shared with `repro --progress` and the daemon's `tail` stream.
    /// `None` (the default) skips all bookkeeping.
    pub progress: Option<Arc<Progress>>,
    /// How jobs execute: the historical in-thread path (default) or a
    /// subprocess sandbox with rlimits and a kill lease. Shared across
    /// the sweep so one spawn failure degrades the whole campaign with
    /// one sticky flag (see [`JobExecutor::degraded`]).
    pub executor: Arc<JobExecutor>,
    /// How long past the wall deadline a still-running job may keep
    /// the sweep before the watchdog marks it overdue in `Progress`
    /// (the cooperative in-thread deadline check only fires every 1024
    /// cycles — a job wedged *inside* one cycle never reaches it).
    pub watchdog_grace: Duration,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            max_attempts: 3,
            backoff_base_ms: 10,
            backoff_cap_ms: 200,
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            wall_deadline: None,
            stop_after: None,
            suspend_after: None,
            retry_seed_base: 0x534E414B45, // "SNAKE"
            progress: None,
            executor: Arc::new(JobExecutor::in_thread()),
            watchdog_grace: Duration::from_millis(1000),
        }
    }
}

/// The deterministic fault seed for retry `attempt` of `job_id`.
///
/// Attempt 1 always uses the harness's own seed (so a job that never
/// fails is bit-identical to an unsupervised run); later attempts
/// perturb the fault-injection RNG reproducibly, independent of
/// thread scheduling or wall-clock time.
pub fn retry_seed(base: u64, job_id: &str, attempt: u32) -> u64 {
    fnv1a64(job_id.as_bytes()) ^ base ^ u64::from(attempt).wrapping_mul(0x9E3779B97F4A7C15)
}

/// Fingerprint binding a manifest to one (harness, campaign) pair, so
/// `--resume` refuses to splice reports from a different experiment.
pub fn fingerprint(h: &Harness, jobs: &[JobSpec]) -> String {
    let mut text = format!("snake-sweep-v1|{:?}|{:?}|", h.cfg, h.size);
    for job in jobs {
        text.push_str(&job.id());
        text.push('|');
    }
    format!("{:016x}", fnv1a64(text.as_bytes()))
}

/// A fatal error setting up or checkpointing a sweep (job-level
/// failures are *not* errors — they become quarantine records).
#[derive(Debug)]
pub enum SweepError {
    /// The harness configuration is invalid.
    Sim(SimError),
    /// Reading or writing the manifest failed.
    Manifest(LogError),
    /// A manifest already exists at the path and `resume` was not
    /// requested; refusing to clobber checkpointed work.
    ManifestExists(String),
    /// The manifest on disk belongs to a different harness or
    /// campaign.
    FingerprintMismatch {
        /// Fingerprint of the requested sweep.
        expected: String,
        /// Fingerprint recorded in the manifest.
        found: String,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Sim(e) => write!(f, "{e}"),
            SweepError::Manifest(e) => write!(f, "{e}"),
            SweepError::ManifestExists(path) => write!(
                f,
                "manifest {path} already exists; pass --resume to continue it \
                 or remove it to start over"
            ),
            SweepError::FingerprintMismatch { expected, found } => write!(
                f,
                "manifest belongs to a different sweep \
                 (expected fingerprint {expected}, found {found}); \
                 the harness, flags, and job list must match the original run"
            ),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SweepError::Sim(e) => Some(e),
            SweepError::Manifest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for SweepError {
    fn from(e: SimError) -> Self {
        SweepError::Sim(e)
    }
}

impl From<LogError> for SweepError {
    fn from(e: LogError) -> Self {
        SweepError::Manifest(e)
    }
}

/// The sibling file a suspended job's mid-simulation checkpoint goes
/// to: `<manifest file name>.<job id with '/' → '-'>.ckpt`, in the
/// manifest's directory — so sweep state and simulation state travel
/// together.
pub fn job_checkpoint_path(manifest: &Path, job_id: &str) -> PathBuf {
    let stem = manifest
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "sweep".into());
    manifest.with_file_name(format!("{stem}.{}.ckpt", job_id.replace('/', "-")))
}

/// Runs a campaign under supervision with an injectable per-job
/// runner, wiring up the manifest life cycle:
///
/// * `manifest_path = None` — no checkpointing (tests, throwaway runs);
/// * fresh path — a versioned header is written atomically, then one
///   record per finished job;
/// * `resume = true` — previously recorded jobs are replayed from the
///   manifest (their simulations are *not* re-run), jobs suspended
///   mid-simulation are requeued with their checkpoint path, and new
///   records are appended to the same file.
///
/// # Errors
///
/// Returns [`SweepError`] for an invalid harness, an unusable
/// manifest, or a fingerprint mismatch on resume.
pub fn run_campaign_with<F>(
    h: &Harness,
    jobs: &[JobSpec],
    cfg: &SweepConfig,
    manifest_path: Option<&Path>,
    resume: bool,
    runner: F,
) -> Result<SweepResult, SweepError>
where
    F: Fn(&JobSpec, u32, Option<&Path>) -> Result<JobRun, ExecError> + Sync,
{
    h.validate()?;
    let fp = fingerprint(h, jobs);
    let mut checkpointed: HashMap<String, JobRecord> = HashMap::new();
    let mut writer: Option<Appender> = None;
    if let Some(path) = manifest_path {
        if resume {
            let (LoadedManifest { header, records }, appender) = manifest::open(path)?;
            if header.fingerprint != fp {
                return Err(SweepError::FingerprintMismatch {
                    expected: fp,
                    found: header.fingerprint,
                });
            }
            for rec in records {
                // Last record wins if a job somehow appears twice.
                checkpointed.insert(rec.job().to_string(), rec);
            }
            writer = Some(appender);
        } else {
            if path.exists() {
                return Err(SweepError::ManifestExists(path.display().to_string()));
            }
            let header = ManifestHeader {
                fingerprint: fp,
                jobs: jobs.len() as u64,
            };
            writer = Some(manifest::create(path, &header)?);
        }
    }
    Ok(run_supervised(jobs, cfg, &checkpointed, writer, runner))
}

/// [`run_campaign_with`] using the configured [`JobExecutor`]:
/// attempt 1 runs the harness untouched; retries perturb only the
/// fault-injection seed via the deterministic [`retry_seed`] schedule.
///
/// With a manifest, running jobs are *suspended* rather than lost when
/// the sweep deadline expires (or `suspend_after` fires): their full
/// simulator state is checkpointed next to the manifest and the
/// `--resume` run restores it mid-simulation, finishing the remaining
/// cycles bit-identically. Without a manifest there is nowhere durable
/// to put the state, so jobs run to completion as before. Under the
/// sandbox executor a deadline kills the child instead, which suspends
/// from its newest periodic checkpoint (or quarantines as a timeout
/// when it never wrote one).
///
/// # Errors
///
/// Returns [`SweepError`] for an invalid harness, an unusable
/// manifest, or a fingerprint mismatch on resume.
pub fn run_campaign(
    h: &Harness,
    jobs: &[JobSpec],
    cfg: &SweepConfig,
    manifest_path: Option<&Path>,
    resume: bool,
) -> Result<SweepResult, SweepError> {
    let base = cfg.retry_seed_base;
    let deadline = cfg.wall_deadline.map(|d| Instant::now() + d);
    let suspend_cycle = cfg.suspend_after;
    run_campaign_with(
        h,
        jobs,
        cfg,
        manifest_path,
        resume,
        |job, attempt, resume_from| {
            let checkpoint_to = manifest_path.map(|m| job_checkpoint_path(m, &job.id()));
            let ctx = ExecContext {
                resume_from: if attempt == 1 { resume_from } else { None },
                checkpoint_to: checkpoint_to.as_deref(),
                suspend_after: suspend_cycle,
                deadline,
                ..ExecContext::default()
            };
            if attempt == 1 {
                cfg.executor.run(h, job, &ctx, &mut |_, _| {})
            } else {
                let mut retry = h.clone();
                retry.cfg.fault.seed = retry_seed(base, &job.id(), attempt);
                cfg.executor.run(&retry, job, &ctx, &mut |_, _| {})
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_is_benchmark_major_and_ids_are_stable() {
        let jobs = campaign(
            &[Benchmark::Lps, Benchmark::Cp],
            &[PrefetcherKind::Baseline, PrefetcherKind::Snake],
        );
        let ids: Vec<String> = jobs.iter().map(JobSpec::id).collect();
        assert_eq!(
            ids,
            ["LPS/baseline", "LPS/snake", "CP/baseline", "CP/snake"]
        );
    }

    #[test]
    fn retry_seeds_differ_by_job_and_attempt_but_are_deterministic() {
        let a2 = retry_seed(7, "LPS/snake", 2);
        let a3 = retry_seed(7, "LPS/snake", 3);
        let b2 = retry_seed(7, "CP/snake", 2);
        assert_ne!(a2, a3);
        assert_ne!(a2, b2);
        assert_eq!(a2, retry_seed(7, "LPS/snake", 2));
    }

    #[test]
    fn fingerprint_tracks_harness_and_campaign() {
        let h = Harness::quick();
        let jobs = campaign(&[Benchmark::Lps], &[PrefetcherKind::Snake]);
        let fp = fingerprint(&h, &jobs);
        assert_eq!(fp, fingerprint(&h, &jobs), "deterministic");
        let mut budgeted = h.clone();
        budgeted.cfg.cycle_budget = Some(snake_sim::Cycle(1000));
        assert_ne!(fp, fingerprint(&budgeted, &jobs), "config changes it");
        let more = campaign(&[Benchmark::Lps, Benchmark::Cp], &[PrefetcherKind::Snake]);
        assert_ne!(fp, fingerprint(&h, &more), "job list changes it");
    }
}
