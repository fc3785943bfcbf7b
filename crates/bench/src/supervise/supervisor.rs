//! The supervision policy: hands jobs to the one job pool, isolates
//! panics, retries with backoff, checkpoints records, and assembles the
//! final result.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use snake_sim::StopReason;

use super::executor::{CrashKind, ExecError};
use super::manifest::JobRecord;
use super::{retry_seed, JobSpec, SweepConfig, EXIT_INTERRUPTED, EXIT_QUARANTINE};
use crate::figures::{panic_message, par_map};
use crate::jsonl_log::Appender;
use crate::report::{render_tables, Cell, Table};
use crate::runner::{Harness, JobRun};

/// Everything a finished (or interrupted) sweep produced.
#[derive(Debug)]
pub struct SweepResult {
    /// One outcome per job, in campaign order: its record, or `None`
    /// when it was skipped (deadline, `stop_after`, or cancellation) —
    /// not durable state, it simply re-runs.
    pub outcomes: Vec<(JobSpec, Option<JobRecord>)>,
    /// True when some job did not finish this run: it was skipped
    /// (deadline, `stop_after`, or cancellation) or suspended.
    pub interrupted: bool,
    /// Checkpointing failures (the sweep itself kept going; resume
    /// from this manifest may re-run the affected jobs).
    pub manifest_errors: Vec<String>,
}

impl SweepResult {
    /// Completed / quarantined / skipped / suspended counts.
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for (_, o) in &self.outcomes {
            match o {
                Some(JobRecord::Completed { .. }) => c.0 += 1,
                Some(JobRecord::Quarantined { .. }) => c.1 += 1,
                None => c.2 += 1,
                Some(JobRecord::Suspended { .. }) => c.3 += 1,
            }
        }
        c
    }

    /// The process exit code this result calls for: interrupted sweeps
    /// (skipped or suspended jobs remain) exit [`EXIT_INTERRUPTED`] —
    /// resume to finish; quarantines exit [`EXIT_QUARANTINE`], clean
    /// sweeps exit 0.
    pub fn exit_code(&self) -> i32 {
        let (_, quarantined, skipped, suspended) = self.counts();
        if self.interrupted || skipped > 0 || suspended > 0 {
            EXIT_INTERRUPTED
        } else if quarantined > 0 {
            EXIT_QUARANTINE
        } else {
            0
        }
    }

    /// The healthy rows, in campaign order.
    pub fn results_table(&self) -> Table {
        let mut t = Table::new(
            "Sweep — per-job results",
            [
                "app",
                "mechanism",
                "ipc",
                "coverage",
                "accuracy",
                "cycles",
                "stop",
                "attempts",
            ],
        );
        for (job, outcome) in &self.outcomes {
            if let Some(JobRecord::Completed {
                report,
                stop,
                attempts,
                ..
            }) = outcome
            {
                t.push_row([
                    job.bench.abbr().into(),
                    job.kind.name().into(),
                    Cell::Fixed(report.ipc, 3),
                    Cell::Pct(report.coverage),
                    Cell::Pct(report.accuracy),
                    Cell::Count(report.cycles),
                    stop.as_str().into(),
                    Cell::Count((*attempts).into()),
                ]);
            }
        }
        let (completed, quarantined, skipped, suspended) = self.counts();
        let mut note = format!(
            "{completed} completed, {quarantined} quarantined, {skipped} skipped \
             of {} jobs",
            self.outcomes.len()
        );
        if suspended > 0 {
            note.push_str(&format!(
                " ({suspended} suspended mid-simulation; resume restores them)"
            ));
        }
        t.note(note);
        t
    }

    /// The quarantine section, if any job crashed out: the typed crash
    /// kind and last stderr excerpt ride along so a quarantine is
    /// diagnosable from the summary without grepping the manifest.
    pub fn quarantine_table(&self) -> Option<Table> {
        let crashed: Vec<_> = self
            .outcomes
            .iter()
            .filter_map(|(job, o)| match o {
                Some(JobRecord::Quarantined {
                    error,
                    attempts,
                    crash,
                    stderr,
                    ..
                }) => Some((job, error, *attempts, crash, stderr)),
                _ => None,
            })
            .collect();
        if crashed.is_empty() {
            return None;
        }
        let mut t = Table::new(
            "Sweep — quarantined jobs",
            ["job", "attempts", "crash", "last failure"],
        );
        for (job, message, attempts, crash, stderr) in crashed {
            // Keep the table single-line per job.
            let mut first_line = message.lines().next().unwrap_or("").to_string();
            if let Some(excerpt) = stderr.as_deref().map(str::trim).filter(|s| !s.is_empty()) {
                let line = excerpt.lines().next().unwrap_or("");
                first_line.push_str(&format!(" [stderr: {line}]"));
            }
            let kind = crash.map_or_else(|| "-".to_string(), |k| k.label());
            t.push_row([
                job.id().into(),
                Cell::Count(attempts.into()),
                kind.into(),
                first_line.into(),
            ]);
        }
        t.note("quarantined jobs exhausted their retry budget; healthy rows above are unaffected");
        Some(t)
    }

    /// Renders the result tables (results, then quarantine, then a
    /// resume hint when interrupted) as text or markdown.
    pub fn render(&self, markdown: bool) -> String {
        let mut tables = vec![self.results_table()];
        tables.extend(self.quarantine_table());
        render_tables(&tables, markdown)
    }
}

/// How far [`run_supervised`] backs off before retry `attempt + 1`:
/// `min(cap, base << (attempt - 1))` milliseconds.
pub(super) fn backoff_ms(cfg: &SweepConfig, attempt: u32) -> u64 {
    cfg.backoff_base_ms
        .checked_shl(attempt.saturating_sub(1))
        .unwrap_or(u64::MAX)
        .min(cfg.backoff_cap_ms)
}

/// Runs `jobs` on `h` through `runner` under the supervision policy.
///
/// * Jobs present in `checkpointed` are replayed from their records —
///   their simulations never run again. A `Suspended` record instead
///   *requeues* the job with its mid-simulation checkpoint: the runner
///   restores the state and finishes the remaining cycles.
/// * The remaining jobs run on the one job pool (`figures::par_map`)
///   with `cfg.workers` threads. Only the first `cfg.stop_after` of
///   them start (by position, so the same ones whatever the worker
///   count), and none starts once the wall deadline has passed.
/// * Each job runs its attempts under the one attempt policy: a panic
///   or deadlock is retried with backoff and a new fault seed up to
///   `cfg.max_attempts`, then quarantined; a typed `SimError` is
///   deterministic, so it quarantines at once.
/// * Every finished job is appended to `writer` (when given) before
///   it counts as done.
pub fn run_supervised<F>(
    h: &Harness,
    jobs: &[JobSpec],
    cfg: &SweepConfig,
    checkpointed: &HashMap<String, JobRecord>,
    writer: Option<Appender>,
    runner: F,
) -> SweepResult
where
    F: Fn(&Harness, &JobSpec, Option<&Path>) -> Result<JobRun, ExecError> + Sync,
{
    let started_at = Instant::now();
    let mut outcomes: Vec<Option<JobRecord>> = vec![None; jobs.len()];
    // `(index, job, checkpoint to resume from)`: the path is `Some` for
    // jobs a previous run suspended mid-simulation.
    let mut pending: Vec<(usize, &JobSpec, Option<&str>)> = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        match checkpointed.get(&job.id()) {
            Some(JobRecord::Suspended { checkpoint, .. }) => {
                pending.push((i, job, Some(checkpoint.as_str())));
            }
            Some(record) => outcomes[i] = Some(record.clone()),
            None => pending.push((i, job, None)),
        }
    }
    if let Some(p) = &cfg.progress {
        p.begin(jobs.len() as u64);
        // Replayed jobs count toward their buckets up front, so a
        // resumed sweep's progress line starts where the last one
        // ended instead of at zero.
        for record in outcomes.iter().flatten() {
            p.observe(Some(record));
        }
    }
    let started = pending.len().min(cfg.stop_after.unwrap_or(usize::MAX));

    let writer = writer.map(Mutex::new);
    let running = AtomicU64::new(0);
    let settled = std::thread::scope(|scope| {
        // Per started job: its record (`None` when skipped or
        // cancelled) and the manifest append failure, if any.
        let pool = scope.spawn(|| {
            par_map(
                cfg.workers.max(1),
                &pending[..started],
                |(_, job, _)| job.id(),
                |&(_, job, resume)| {
                    if cfg.wall_deadline.is_some_and(|d| started_at.elapsed() >= d) {
                        if let Some(p) = &cfg.progress {
                            p.observe(None);
                        }
                        return (None, None);
                    }
                    running.fetch_add(1, Ordering::Relaxed);
                    let outcome = supervise_one(h, job, cfg, resume, &runner);
                    running.fetch_sub(1, Ordering::Relaxed);
                    if let Some(p) = &cfg.progress {
                        p.observe(outcome.as_ref());
                    }
                    let mut manifest_error = None;
                    if let (Some(w), Some(record)) = (&writer, &outcome) {
                        let mut w = w.lock().expect("no manifest append panics");
                        if let Err(e) = w.append(&record.to_json()) {
                            manifest_error = Some(format!("{}: {e}", job.id()));
                        }
                    }
                    (outcome, manifest_error)
                },
            )
        });
        // Hung-job reaper, on this thread until the pool returns: the
        // cooperative deadline check inside a running simulation fires
        // only every 1024 cycles, so a job wedged *inside* one cycle
        // can hold the sweep open silently. The reaper cannot kill an
        // in-thread job, but it makes the hang observable: jobs still
        // running past the deadline plus the grace period are counted
        // as overdue in `Progress`, which `repro --progress` repaints
        // and daemon health surfaces.
        if let (Some(deadline), Some(progress)) = (cfg.wall_deadline, &cfg.progress) {
            let overdue_at = started_at + deadline + cfg.watchdog_grace;
            while !pool.is_finished() {
                let overdue = if Instant::now() >= overdue_at {
                    running.load(Ordering::Relaxed)
                } else {
                    0
                };
                progress.set_overdue(overdue);
                std::thread::sleep(Duration::from_millis(25));
            }
            progress.set_overdue(0);
        }
        pool.join()
            .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
    });
    // Jobs past `stop_after` never start.
    if let Some(p) = &cfg.progress {
        for _ in started..pending.len() {
            p.observe(None);
        }
    }

    let mut manifest_errors = Vec::new();
    for (&(i, _, _), (outcome, error)) in pending.iter().zip(settled) {
        outcomes[i] = outcome;
        manifest_errors.extend(error);
    }
    let outcomes: Vec<_> = jobs.iter().copied().zip(outcomes).collect();
    SweepResult {
        interrupted: outcomes
            .iter()
            .any(|(_, o)| matches!(o, None | Some(JobRecord::Suspended { .. }))),
        outcomes,
        manifest_errors,
    }
}

/// A retryable failure captured mid-attempt-loop, with whatever typed
/// classification it arrived with.
struct Failure {
    message: String,
    crash: Option<CrashKind>,
    stderr: Option<String>,
}

/// Runs one job's attempt loop: panic isolation, retry classification,
/// capped exponential backoff, quarantine. Returns the job's record, or
/// `None` when the caller cancelled it.
///
/// This is the one attempt policy. Attempt 1 runs the caller's
/// harness and resumes from `resume_from` when given. Attempt `n > 1`
/// runs from cycle zero with the fault seed [`retry_seed`]`(job, n)`
/// (a perturbed fault seed cannot take effect inside restored RNG
/// state anyway), so a job that never fails is bit-identical to an
/// unsupervised run.
///
/// Retry classification: typed simulator errors (and their sandboxed
/// [`ExecError::Typed`] twin) are deterministic and quarantine
/// immediately; deadlocks and in-thread panics retry as before; child
/// deaths retry only when their [`CrashKind::retryable`] — a child
/// panic re-runs the same deterministic seed, and a lease timeout
/// would just burn the lease again, so neither spends retry budget.
fn supervise_one<F>(
    h: &Harness,
    job: &JobSpec,
    cfg: &SweepConfig,
    resume_from: Option<&str>,
    runner: &F,
) -> Option<JobRecord>
where
    F: Fn(&Harness, &JobSpec, Option<&Path>) -> Result<JobRun, ExecError> + Sync,
{
    let max_attempts = cfg.max_attempts.max(1);
    let quarantined = |error: String, attempts: u32, crash: Option<CrashKind>, stderr| {
        Some(JobRecord::Quarantined {
            job: job.id(),
            attempts,
            error,
            crash,
            stderr,
        })
    };
    let mut attempt = 1u32;
    loop {
        let mut harness = h.clone();
        let mut resume = resume_from.map(Path::new);
        if attempt > 1 {
            harness.cfg.fault.seed = retry_seed(&job.id(), attempt);
            resume = None;
        }
        let failure = match catch_unwind(AssertUnwindSafe(|| runner(&harness, job, resume))) {
            Ok(Ok(JobRun::Finished(output))) => match output.stop {
                StopReason::Deadlock(report) => Failure {
                    message: format!("deadlock: {report}"),
                    crash: None,
                    stderr: None,
                },
                _ => {
                    return Some(JobRecord::Completed {
                        job: job.id(),
                        attempts: attempt,
                        stop: output.stop.label().to_string(),
                        report: output.report,
                    });
                }
            },
            Ok(Ok(JobRun::Suspended { cycle, checkpoint })) => {
                return Some(JobRecord::Suspended {
                    job: job.id(),
                    attempts: attempt,
                    cycle,
                    checkpoint,
                });
            }
            // Cancellation is a caller decision, not a failure:
            // skipped, never retried.
            Ok(Ok(JobRun::Cancelled)) => return None,
            // A typed simulator error is deterministic (bad
            // configuration); retrying cannot change it.
            Ok(Err(ExecError::Sim(err))) => {
                return quarantined(err.to_string(), attempt, None, None)
            }
            Ok(Err(ExecError::Typed(message))) => return quarantined(message, attempt, None, None),
            Ok(Err(ExecError::Failure(message))) => Failure {
                message,
                crash: None,
                stderr: None,
            },
            Ok(Err(ExecError::Crash(c))) => {
                let stderr = (!c.stderr.is_empty()).then(|| c.stderr.clone());
                if !c.kind.retryable() {
                    return quarantined(c.message, attempt, Some(c.kind), stderr);
                }
                Failure {
                    message: c.message,
                    crash: Some(c.kind),
                    stderr,
                }
            }
            Err(payload) => Failure {
                message: format!("panic: {}", panic_message(payload.as_ref())),
                crash: Some(CrashKind::Panic),
                stderr: None,
            },
        };
        if attempt >= max_attempts {
            return quarantined(failure.message, attempt, failure.crash, failure.stderr);
        }
        if let Some(p) = &cfg.progress {
            p.note_retry();
        }
        std::thread::sleep(std::time::Duration::from_millis(backoff_ms(cfg, attempt)));
        attempt += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = SweepConfig {
            backoff_base_ms: 10,
            backoff_cap_ms: 50,
            ..SweepConfig::default()
        };
        assert_eq!(backoff_ms(&cfg, 1), 10);
        assert_eq!(backoff_ms(&cfg, 2), 20);
        assert_eq!(backoff_ms(&cfg, 3), 40);
        assert_eq!(backoff_ms(&cfg, 4), 50, "capped");
        assert_eq!(backoff_ms(&cfg, 200), 50, "shift overflow saturates");
    }
}
