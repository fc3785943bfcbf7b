//! The simulation workloads: `memory_bound` and `prefetch_heavy` (one
//! in-thread job after another) and `isolated_resume` (each job
//! sandboxed, then paused, checkpointed, restored and resumed).

use std::collections::hash_map::{Entry, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use snake_bench::runner::JobRun;
use snake_bench::supervise::{ExecContext, JobExecutor, JobSpec, SandboxLimits};
use snake_bench::Harness;
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::snapshot::Checkpoint;
use snake_sim::{Gpu, HostProfile, Phase, SimError, SimOutcome, SimStats, Sm, StopReason};
use snake_workloads::Benchmark;

use crate::metric::Checks;
use crate::stats::{median, sum_of_fastest, tail_percentile};
use crate::trace::Tracer;
use crate::{ratio, stats_digest, BenchResult, Outcome, Plan};

/// What one simulation job produced.
#[derive(Debug, Clone)]
pub(crate) struct JobResult {
    /// The report row, as `Harness::run_job` would build it.
    pub report: MechanismReport,
    /// Merged simulated statistics.
    pub stats: SimStats,
    /// Whether the simulation ran to completion.
    pub completed: bool,
    /// Host time spent simulating (`Gpu::run` or the step loop).
    pub sim_ns: u64,
    /// Host profile, when the harness enabled it.
    pub host: Option<HostProfile>,
    /// Steps by class, when the job was traced.
    pub steps: StepCounts,
    /// Wall time of the job's sandboxed run (`isolated_resume`), else 0.
    pub sandbox_ns: u64,
}

/// Times set-up: building every job's kernel and constructing its
/// device. The process is warm, so this measures the set-up work rather
/// than the process's first touches of memory.
///
/// Within one process the cost of a set-up drifts by about ±5% over
/// seconds, so samples are taken a few after each timed pass and their
/// median covers the whole run rather than one moment of it.
pub(crate) struct SetupTimer<'a> {
    h: &'a Harness,
    jobs: &'a [JobSpec],
    samples: Vec<f64>,
    /// The first job whose device `Gpu::new` refused, if any.
    refused: Option<JobSpec>,
}

impl<'a> SetupTimer<'a> {
    /// Set-ups timed after each timed pass.
    pub(crate) const PER_PASS: usize = 4;

    pub(crate) fn new(h: &'a Harness, jobs: &'a [JobSpec]) -> Self {
        SetupTimer {
            h,
            jobs,
            samples: Vec::new(),
            refused: None,
        }
    }

    /// Times `reps` set-ups of every job.
    pub(crate) fn sample(&mut self, reps: usize) {
        let warps = self.h.cfg.max_warps_per_sm;
        for _ in 0..reps {
            let t = Instant::now();
            for &job in self.jobs {
                let kernel = job.bench.build(&self.h.size);
                let gpu = Gpu::new(self.h.cfg.clone(), kernel, |_| job.kind.build(warps));
                if gpu.is_err() {
                    self.refused.get_or_insert(job);
                }
                std::hint::black_box(gpu.ok());
            }
            self.samples.push(t.elapsed().as_secs_f64());
        }
    }

    /// Tops the samples up to `plan.setup_reps`, then sets `setup_s` to
    /// their median and checks that every `Gpu::new` succeeded.
    pub(crate) fn finish(mut self, plan: &Plan, out: &mut Outcome) {
        self.sample(plan.setup_reps.saturating_sub(self.samples.len()));
        let setup = median(&self.samples).unwrap_or(f64::NAN);
        out.e2e.set("setup_s", setup, self.samples.len());
        out.checks.check(self.refused.is_none(), || {
            format!("{:?}: Gpu::new refused the harness", self.refused)
        });
    }
}

fn report_of(
    h: &Harness,
    kind: PrefetcherKind,
    app: &str,
    outcome: &SimOutcome,
) -> MechanismReport {
    MechanismReport::from_outcome(
        kind.name(),
        app,
        outcome,
        &h.cfg,
        &h.energy,
        kind.has_hardware(),
    )
}

/// Runs one job: build, construct, simulate, report. With a recording
/// tracer the device is driven one `Gpu::step` at a time.
fn sim_job(h: &Harness, job: JobSpec, idx: usize, tr: &mut Tracer) -> Result<JobResult, SimError> {
    let warps = h.cfg.max_warps_per_sm;
    let j = Some(idx);
    tr.span("job", j, |tr| {
        let kernel = tr.span("workloads.build", j, |_| job.bench.build(&h.size));
        let app = kernel.name().to_string();
        let mut gpu = tr.span("sim.new", j, |_| {
            Gpu::new(h.cfg.clone(), kernel, |_| job.kind.build(warps))
        })?;
        let t = Instant::now();
        let mut steps = StepCounts::default();
        let outcome = if tr.enabled() {
            steps = step_until(&mut gpu, tr, idx, None).1;
            stepped_outcome(&mut gpu)
        } else {
            gpu.run()
        };
        let sim_ns = t.elapsed().as_nanos() as u64;
        let report = tr.span("metrics.report", j, |_| {
            report_of(h, job.kind, &app, &outcome)
        });
        Ok(JobResult {
            report,
            completed: outcome.stop == StopReason::Completed,
            stats: outcome.stats,
            sim_ns,
            host: outcome.host,
            steps,
            sandbox_ns: 0,
        })
    })
}

/// On average one step in this many is timed on its own. A clock read
/// costs about a tenth of an idle step, so timing every step would
/// make the traced pass mostly measure the clock.
const STEP_SAMPLE: u64 = 32;

/// Steps a traced job took, by whether any SM issued in them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct StepCounts {
    /// Steps in which no SM issued an instruction.
    pub idle: u64,
    /// Steps in which at least one SM issued.
    pub active: u64,
}

impl StepCounts {
    fn add(&mut self, other: StepCounts) {
        self.idle += other.idle;
        self.active += other.active;
    }
}

/// Drives `gpu` one `Gpu::step` at a time until it finishes or reaches
/// cycle `pause_at`, classifying every step as idle (no SM issued) or
/// active. A jittered sample of steps is timed one by one as
/// `sim.step.idle` / `sim.step.active` spans; the untimed steps between
/// two samples form one `sim.step` span. Returns whether the device
/// finished, and the step counts.
fn step_until(
    gpu: &mut Gpu,
    tr: &mut Tracer,
    idx: usize,
    pause_at: Option<u64>,
) -> (bool, StepCounts) {
    let issued = |gpu: &Gpu| -> u64 { gpu.sms().iter().map(Sm::instructions_issued).sum() };
    let j = Some(idx);
    let mut counts = StepCounts::default();
    let mut rng = 0x9E37_79B9_7F4A_7C15 ^ idx as u64;
    let mut gap = next_gap(&mut rng);
    let (mut block_start, mut block_steps) = (tr.now_ns(), 0u64);
    loop {
        let before = issued(gpu);
        let timed_at = (gap == 0).then(|| tr.now_ns());
        let more = gpu.step();
        let idle = issued(gpu) == before;
        if idle {
            counts.idle += 1;
        } else {
            counts.active += 1;
        }
        if let Some(t0) = timed_at {
            let t1 = tr.now_ns();
            if block_steps > 0 {
                tr.record("sim.step", j, (block_start, t0), block_steps);
            }
            let name = if idle {
                "sim.step.idle"
            } else {
                "sim.step.active"
            };
            tr.record(name, j, (t0, t1), 1);
            (block_start, block_steps) = (t1, 0);
            gap = next_gap(&mut rng);
        } else {
            block_steps += 1;
            gap -= 1;
        }
        if !more || pause_at.is_some_and(|c| gpu.cycle().0 >= c) {
            if block_steps > 0 {
                let end = tr.now_ns();
                tr.record("sim.step", j, (block_start, end), block_steps);
            }
            return (!more, counts);
        }
    }
}

/// Untimed steps before the next timed one: uniform in
/// `0..2 * STEP_SAMPLE - 1`, so one step in `STEP_SAMPLE` is timed and
/// the sample cannot lock onto a periodic pattern in the simulation.
fn next_gap(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state % (2 * STEP_SAMPLE - 1)
}

/// The outcome of a device stepped to its end, assembled from public
/// accessors as `Gpu::run` returns it (no sink, no metrics window, no
/// profile, as in every run here). Any end but completion reads as
/// `CycleLimit`, which fails the caller's check.
fn stepped_outcome(gpu: &mut Gpu) -> SimOutcome {
    let completed = gpu.deadlock_info().is_none() && gpu.sms().iter().all(Sm::is_done);
    SimOutcome {
        stats: gpu.collect_stats(),
        stop: if completed {
            StopReason::Completed
        } else {
            StopReason::CycleLimit
        },
        lifecycle: gpu.prefetch_lifecycle(),
        series: None,
        host: None,
    }
}

/// Reference results: one untimed run of each job (the warm-up), plus
/// baseline and Snake runs of any app the job set lacks them for, which
/// only the fidelity gaps use.
fn references(
    h: &Harness,
    jobs: &[JobSpec],
    out: &mut Outcome,
) -> Result<Vec<JobResult>, SimError> {
    let mut off = Tracer::off();
    let mut refs = Vec::with_capacity(jobs.len());
    for (i, &job) in jobs.iter().enumerate() {
        let r = sim_job(h, job, i, &mut off)?;
        out.checks
            .check(r.completed, || format!("{job}: did not complete"));
        refs.push(r);
    }
    let mut reports: HashMap<JobSpec, MechanismReport> = jobs
        .iter()
        .zip(&refs)
        .map(|(&j, r)| (j, r.report.clone()))
        .collect();
    let apps = apps_of(jobs);
    for &bench in &apps {
        for kind in [PrefetcherKind::Baseline, PrefetcherKind::Snake] {
            let job = JobSpec { bench, kind };
            if let Entry::Vacant(slot) = reports.entry(job) {
                let r = sim_job(h, job, usize::MAX, &mut off)?;
                out.checks
                    .check(r.completed, || format!("{job}: did not complete"));
                slot.insert(r.report);
            }
        }
    }
    out.set_fidelity(&apps, |bench, kind| {
        reports[&JobSpec { bench, kind }].clone()
    });
    let stats: Vec<&SimStats> = refs.iter().map(|r| &r.stats).collect();
    out.set_modelled(&stats);
    out.digest = stats_digest(stats);
    out.digest_n = refs.len();
    Ok(refs)
}

fn apps_of(jobs: &[JobSpec]) -> Vec<Benchmark> {
    let mut apps: Vec<Benchmark> = Vec::new();
    for j in jobs {
        if !apps.contains(&j.bench) {
            apps.push(j.bench);
        }
    }
    apps
}

/// Counts one run of `job` as checked: it completed and its statistics
/// and report equal the reference run's.
fn check_same(checks: &mut Checks, job: JobSpec, r: &JobResult, reference: &JobResult, what: &str) {
    checks.check(
        r.completed && r.stats == reference.stats && r.report == reference.report,
        || format!("{job}: {what} differs from the reference run"),
    );
}

/// Timings the timed passes collect, per job index.
#[derive(Debug)]
struct Timings {
    /// Wall time of each pass, seconds.
    pass_s: Vec<f64>,
    /// Wall time of each rep, milliseconds.
    job_ms: Vec<Vec<f64>>,
    /// Host simulation time of each rep, nanoseconds.
    sim_ns: Vec<Vec<f64>>,
    /// Sandboxed run time of each rep, nanoseconds (`isolated_resume`).
    sandbox_ns: Vec<Vec<f64>>,
}

impl Timings {
    /// Runs timed passes over `n` jobs until `plan` says stop, timing
    /// set-ups after each; `job(i)` runs job `i`.
    fn collect(
        plan: &Plan,
        n: usize,
        setup: &mut SetupTimer<'_>,
        mut job: impl FnMut(usize) -> Result<JobResult, SimError>,
    ) -> Result<Timings, SimError> {
        let mut tm = Timings {
            pass_s: Vec::new(),
            job_ms: vec![Vec::new(); n],
            sim_ns: vec![Vec::new(); n],
            sandbox_ns: vec![Vec::new(); n],
        };
        let started = Instant::now();
        while plan.keep_going(started, &tm.pass_s, tm.pass_s.len() * n) {
            let t = Instant::now();
            for i in 0..n {
                let tj = Instant::now();
                let r = job(i)?;
                tm.job_ms[i].push(tj.elapsed().as_secs_f64() * 1e3);
                tm.sim_ns[i].push(r.sim_ns as f64);
                tm.sandbox_ns[i].push(r.sandbox_ns as f64);
            }
            tm.pass_s.push(t.elapsed().as_secs_f64());
            setup.sample(SetupTimer::PER_PASS);
        }
        Ok(tm)
    }

    /// Sets the end-to-end metrics these timings give, plus the job
    /// latency percentiles.
    fn report(&self, refs: &[JobResult], out: &mut Outcome) {
        let passes = self.pass_s.len();
        out.e2e
            .set("pass_s", sum_of_fastest(&self.job_ms) / 1e3, passes);
        let denom_ns = sum_of_fastest(&self.sim_ns);
        let cycles: u64 = refs.iter().map(|r| r.stats.cycles).sum();
        let instrs: u64 = refs.iter().map(|r| r.stats.instructions).sum();
        out.e2e
            .set("sim_mcycles_per_s", cycles as f64 * 1e3 / denom_ns, passes);
        out.e2e
            .set("sim_minstr_per_s", instrs as f64 * 1e3 / denom_ns, passes);
        let all: Vec<f64> = self.job_ms.concat();
        let n = all.len();
        let p50 = median(&all);
        let p90 = tail_percentile(&all, 90.0);
        out.push_info("job_p50_ms", "ms", p50.unwrap_or(f64::NAN), n);
        out.push_info("job_p90_ms", "ms", p90.unwrap_or(f64::NAN), n);
        if let (Some(p50), Some(p90)) = (p50, p90) {
            out.layers.set("job.p50_ms", p50, n);
            out.layers.set("job.p90_ms", p90, n);
        }
    }
}

/// `memory_bound` and `prefetch_heavy`: each pass runs every job once,
/// in-thread, so reps of one job interleave with the others.
pub(crate) fn run(plan: &Plan, jobs: &[JobSpec], out: &mut Outcome) -> BenchResult<()> {
    let h = &plan.h;
    let refs = references(h, jobs, out)?;
    let mut off = Tracer::off();
    let mut setup = SetupTimer::new(h, jobs);
    let tm = Timings::collect(plan, jobs.len(), &mut setup, |i| {
        let r = sim_job(h, jobs[i], i, &mut off)?;
        check_same(&mut out.checks, jobs[i], &r, &refs[i], "a timed rep");
        Ok(r)
    })?;
    tm.report(&refs, out);
    setup.finish(plan, out);

    if plan.trace {
        profiled(plan, jobs, &refs, &tm.sim_ns, out)?;
        out.traced_passes(|tr, checks| {
            let mut steps = StepCounts::default();
            for (i, &job) in jobs.iter().enumerate() {
                let r = sim_job(h, job, i, tr)?;
                steps.add(r.steps);
                check_same(checks, job, &r, &refs[i], "the traced run");
            }
            Ok(steps)
        })?;
    }
    Ok(())
}

/// Passes with `GpuConfig::host_profile` on: the product's profiled
/// mode, its throughput, its overhead against the plain runs and its
/// per-phase split.
fn profiled(
    plan: &Plan,
    jobs: &[JobSpec],
    refs: &[JobResult],
    plain_ns: &[Vec<f64>],
    out: &mut Outcome,
) -> Result<(), SimError> {
    let mut h = plan.h.clone();
    h.cfg.host_profile = true;
    let mut off = Tracer::off();
    let mut ns = vec![Vec::new(); jobs.len()];
    let (mut wall, mut unaccounted) = (0u64, 0u64);
    let mut phases = [0u64; Phase::ALL.len()];
    for _ in 0..plan.profiled_reps {
        for (i, &job) in jobs.iter().enumerate() {
            let r = sim_job(&h, job, i, &mut off)?;
            check_same(&mut out.checks, job, &r, &refs[i], "the profiled run");
            ns[i].push(r.sim_ns as f64);
            if let Some(host) = r.host {
                wall += host.wall_nanos;
                unaccounted += host.unaccounted_nanos();
                for (k, p) in Phase::ALL.into_iter().enumerate() {
                    phases[k] += host.get(p).nanos;
                }
            }
        }
    }
    let share = |x: u64| ratio(x as f64, wall as f64);
    let reps = plan.profiled_reps;
    for (k, p) in Phase::ALL.into_iter().enumerate() {
        out.layers.set(
            &format!("profile.{}_share", p.label()),
            share(phases[k]),
            reps,
        );
    }
    out.layers
        .set("profile.unaccounted_share", share(unaccounted), reps);
    let profiled_ns = sum_of_fastest(&ns);
    let cycles: u64 = refs.iter().map(|r| r.stats.cycles).sum();
    out.layers.set(
        "profile.overhead_ratio",
        profiled_ns / sum_of_fastest(plain_ns),
        reps,
    );
    out.layers.set(
        "profile.mcycles_per_s",
        cycles as f64 * 1e3 / profiled_ns,
        reps,
    );
    Ok(())
}

/// The in-thread half of an `isolated_resume` job: run to half the
/// reference cycle count, checkpoint to disk, load it back, restore
/// into a fresh device and run that to the end.
fn resume_job(
    h: &Harness,
    job: JobSpec,
    idx: usize,
    half: u64,
    path: &Path,
    tr: &mut Tracer,
) -> Result<(JobResult, bool), SimError> {
    let warps = h.cfg.max_warps_per_sm;
    let j = Some(idx);
    let kernel = tr.span("workloads.build", j, |_| job.bench.build(&h.size));
    let app = kernel.name().to_string();
    let mut gpu = tr.span("sim.new", j, |_| {
        Gpu::new(h.cfg.clone(), kernel.clone(), |_| job.kind.build(warps))
    })?;
    let t = Instant::now();
    let mut steps = StepCounts::default();
    let paused = if tr.enabled() {
        let (finished, first) = step_until(&mut gpu, tr, idx, Some(half));
        steps = first;
        !finished
    } else {
        gpu.run_interruptible(|c| c.0 >= half).is_none()
    };
    let mut sim_ns = t.elapsed().as_nanos() as u64;
    let ckpt = tr.span("snapshot.capture", j, |_| gpu.checkpoint());
    let bytes = tr.span("snapshot.write", j, |_| ckpt.write_atomic(path))?;
    tr.add_bytes(bytes);
    let loaded = tr.span("snapshot.load", j, |_| Checkpoint::load(path))?;
    let mut fresh = tr.span("sim.new", j, |_| {
        Gpu::new(h.cfg.clone(), kernel, |_| job.kind.build(warps))
    })?;
    tr.span("snapshot.restore", j, |_| fresh.restore(&loaded))?;
    let t = Instant::now();
    let outcome = if tr.enabled() {
        steps.add(step_until(&mut fresh, tr, idx, None).1);
        stepped_outcome(&mut fresh)
    } else {
        fresh.run()
    };
    sim_ns += t.elapsed().as_nanos() as u64;
    let report = tr.span("metrics.report", j, |_| {
        report_of(h, job.kind, &app, &outcome)
    });
    let result = JobResult {
        report,
        completed: outcome.stop == StopReason::Completed,
        stats: outcome.stats,
        sim_ns,
        host: None,
        steps,
        sandbox_ns: 0,
    };
    Ok((result, paused))
}

/// What every `isolated_resume` job shares: the sandbox, the
/// in-thread references and one checkpoint file per job.
struct Isolated<'a> {
    h: &'a Harness,
    exec: JobExecutor,
    jobs: &'a [JobSpec],
    refs: &'a [JobResult],
    paths: Vec<PathBuf>,
}

impl Isolated<'_> {
    /// One job: sandboxed, then resumed in-thread. Both reports must
    /// equal the in-thread reference.
    fn job(&self, i: usize, tr: &mut Tracer, checks: &mut Checks) -> Result<JobResult, SimError> {
        let (job, reference) = (self.jobs[i], &self.refs[i]);
        tr.span("job", Some(i), |tr| {
            let t = Instant::now();
            let run = tr.span("executor.sandbox", Some(i), |_| {
                self.exec
                    .run(self.h, &job, &ExecContext::default(), &mut |_, _| {})
            });
            let sandbox_ns = t.elapsed().as_nanos() as u64;
            match run {
                Ok(JobRun::Finished(o)) => checks.check(
                    o.stop == StopReason::Completed && o.report == reference.report,
                    || format!("{job}: sandboxed report differs from the in-thread one"),
                ),
                Ok(other) => checks.fail(format!("{job}: sandbox ended as {other:?}")),
                Err(e) => checks.fail(format!("{job}: sandbox failed: {e}")),
            }
            let half = reference.stats.cycles / 2;
            let (r, paused) = resume_job(self.h, job, i, half, &self.paths[i], tr)?;
            checks.check(
                paused && r.completed && r.report == reference.report && r.stats == reference.stats,
                || format!("{job}: resumed run differs from the uninterrupted one"),
            );
            Ok(JobResult { sandbox_ns, ..r })
        })
    }

    fn pass(&self, tr: &mut Tracer, checks: &mut Checks) -> Result<StepCounts, SimError> {
        let mut steps = StepCounts::default();
        for i in 0..self.jobs.len() {
            steps.add(self.job(i, tr, checks)?.steps);
        }
        Ok(steps)
    }
}

/// `isolated_resume`: every job runs sandboxed in a worker subprocess,
/// then again in-thread with a checkpoint round trip at half its cycles.
pub(crate) fn run_isolated(plan: &Plan, jobs: &[JobSpec], out: &mut Outcome) -> BenchResult<()> {
    let h = &plan.h;
    let refs = references(h, jobs, out)?;
    std::fs::create_dir_all(&plan.scratch)?;
    let iso = Isolated {
        h,
        exec: JobExecutor::sandbox_with_worker(SandboxLimits::default(), plan.worker.clone()),
        jobs,
        refs: &refs,
        paths: (0..jobs.len())
            .map(|i| plan.scratch.join(format!("job{i}.ckpt")))
            .collect(),
    };
    let result = isolated_passes(plan, &iso, out);
    let _ = std::fs::remove_dir_all(&plan.scratch);
    result
}

fn isolated_passes(plan: &Plan, iso: &Isolated<'_>, out: &mut Outcome) -> BenchResult<()> {
    let n = iso.jobs.len();
    let mut off = Tracer::off();
    // Warm-up: the first spawn pays for loading the worker binary.
    iso.pass(&mut off, &mut out.checks)?;
    let mut setup = SetupTimer::new(iso.h, iso.jobs);
    let tm = Timings::collect(plan, n, &mut setup, |i| {
        iso.job(i, &mut off, &mut out.checks)
    })?;
    tm.report(iso.refs, out);
    setup.finish(plan, out);
    if plan.trace {
        out.traced_passes(|tr, checks| iso.pass(tr, checks))?;
    }
    // What the sandbox costs beyond simulating: per job, the fastest
    // sandboxed run minus the fastest in-thread simulation of it.
    let overhead_ns = sum_of_fastest(&tm.sandbox_ns) - sum_of_fastest(&tm.sim_ns);
    out.layers.set(
        "executor.sandbox_overhead_ms",
        overhead_ns / n as f64 / 1e6,
        n,
    );
    out.checks.check(!iso.exec.degraded(), || {
        "sandbox degraded to in-thread execution".into()
    });
    Ok(())
}
