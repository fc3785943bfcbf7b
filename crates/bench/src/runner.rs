//! Shared run harness: configuration, simulation, and report rows.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::snapshot::Checkpoint;
use snake_sim::{
    EnergyModel, Gpu, GpuConfig, HostProfile, KernelTrace, Prefetcher, SimError, SmId, StopReason,
    TelemetryRing,
};
use snake_workloads::{Benchmark, WorkloadSize};

/// The experiment harness: one GPU configuration, one workload size,
/// one energy model, shared by every figure.
#[derive(Debug, Clone)]
pub struct Harness {
    /// GPU configuration (scaled V100 by default).
    pub cfg: GpuConfig,
    /// Workload scale.
    pub size: WorkloadSize,
    /// Energy model.
    pub energy: EnergyModel,
}

/// A finished supervised run: the report row plus why the simulation
/// stopped, so the sweep supervisor can distinguish clean completion
/// from budget truncation or deadlock without re-deriving it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// The metrics row for the run.
    pub report: MechanismReport,
    /// Why the simulation stopped.
    pub stop: StopReason,
    /// Host-side per-phase timing, present when the harness config set
    /// [`GpuConfig::host_profile`] (what `repro --profile` prints).
    pub host: Option<HostProfile>,
}

/// What [`Harness::run_job_with`] produced: either a finished run, a
/// mid-simulation suspension whose state is now durable in a
/// checkpoint file (resume it by passing the path back as
/// `resume_from`), or a cancellation.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRun {
    /// The simulation ran (or resumed) to its stop reason.
    Finished(Box<RunOutput>),
    /// The suspend policy fired; the complete simulator state was
    /// checkpointed atomically before returning.
    Suspended {
        /// Cycle the simulation was suspended at.
        cycle: u64,
        /// Path of the checkpoint artifact that was written.
        checkpoint: String,
    },
    /// The job was cancelled before or during its simulation (daemon
    /// cancellation through [`ExecContext::cancel`]); no report was
    /// produced and no state was saved. The supervisor records it as
    /// skipped and never retries it.
    Cancelled,
}

/// The run control of one job besides the harness: resume /
/// checkpoint paths, suspension policy, cancellation, and the live
/// telemetry ring. All optional — a plain batch run passes
/// [`ExecContext::default`]. [`Harness::run_job_with`] states the rules
/// that combine them.
#[derive(Default)]
pub struct ExecContext<'a> {
    /// Restore the simulator from this checkpoint before running.
    pub resume_from: Option<&'a Path>,
    /// Where checkpoints (periodic and suspension) are written.
    pub checkpoint_to: Option<&'a Path>,
    /// Suspend once the simulation reaches this cycle (test knob,
    /// `repro --suspend-after`).
    pub suspend_after: Option<u64>,
    /// Wall-clock deadline: the in-thread path suspends cooperatively,
    /// the sandbox kills the child and resumes from its newest
    /// checkpoint.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag (daemon `cancel`); the sandbox
    /// polls it and kills the child.
    pub cancel: Option<&'a AtomicBool>,
    /// Live telemetry ring for window rows (daemon `tail`/`top`).
    pub ring: Option<&'a TelemetryRing>,
    /// Also publish the full trace-event stream (in-thread only;
    /// sandboxed children stream window rows).
    pub include_events: bool,
}

impl Harness {
    /// The standard harness used for the reported numbers: a 2-SM
    /// scaled V100 and the standard workload size.
    pub fn standard() -> Self {
        Harness {
            cfg: GpuConfig::scaled(2),
            size: WorkloadSize::standard(),
            energy: EnergyModel::volta_like(),
        }
    }

    /// A fast harness for tests and smoke runs.
    pub fn quick() -> Self {
        Harness {
            cfg: GpuConfig::scaled(1),
            size: WorkloadSize {
                warps_per_cta: 4,
                ctas: 2,
                iters: 48,
                seed: 0xC0FFEE,
            },
            energy: EnergyModel::volta_like(),
        }
    }

    /// Checks the harness configuration without running anything, so
    /// campaign drivers can fail fast once instead of per job.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SimError`] when the GPU configuration
    /// is invalid.
    pub fn validate(&self) -> Result<(), SimError> {
        self.cfg.validate().map_err(SimError::from)
    }

    /// Runs one benchmark under one mechanism and reports.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run(&self, bench: Benchmark, kind: PrefetcherKind) -> Result<MechanismReport, SimError> {
        Ok(self.run_job(bench, kind)?.report)
    }

    /// Runs one benchmark under one mechanism, keeping the stop reason
    /// alongside the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run_job(&self, bench: Benchmark, kind: PrefetcherKind) -> Result<RunOutput, SimError> {
        let kernel = bench.build(&self.size);
        self.finish(kernel, kind.name(), kind.has_hardware(), self.factory(kind))
    }

    /// Runs one job under the run control in `ctx` — the entry point
    /// of the sweep supervisor, the `snaked` scheduler and the sandbox
    /// worker. It builds the device, attaches `ctx.ring` (with the
    /// event stream when `include_events`), restores `resume_from`
    /// *after* that so the ring sees the
    /// [`Restored`](snake_sim::SimEvent::Restored) splice, and runs
    /// [`Gpu::run_serviced`] under one rule set:
    ///
    /// * cadence checkpoints go to `checkpoint_to` every
    ///   [`GpuConfig::checkpoint_every`] cycles when both are set;
    ///   `on_checkpoint(cycle, bytes)` fires after each durable write,
    ///   so the caller can journal the artifact before anything else
    ///   can crash;
    /// * `suspend_after` (checked every cycle) and `deadline` (polled
    ///   every 1024 cycles) take effect only when `checkpoint_to` is
    ///   set: the run stops, its state is written to `checkpoint_to`
    ///   (unless a cadence write already captured that cycle),
    ///   `on_checkpoint` fires, and the result is
    ///   [`JobRun::Suspended`];
    /// * `cancel` is checked before the device is built and polled
    ///   every cycle, and wins over the deadline: a cancelled run
    ///   returns [`JobRun::Cancelled`] and writes no final checkpoint,
    ///   so it never leaves a fresh resume artifact behind.
    ///
    /// With an empty context this is [`Harness::run_job`]; a ring with
    /// no subscribers changes no report byte.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for an invalid configuration, an unusable
    /// or mismatched (fingerprint-checked) resume checkpoint, or a
    /// failed checkpoint write.
    pub fn run_job_with(
        &self,
        bench: Benchmark,
        kind: PrefetcherKind,
        ctx: &ExecContext<'_>,
        on_checkpoint: &mut dyn FnMut(u64, u64),
    ) -> Result<JobRun, SimError> {
        let kernel = bench.build(&self.size);
        let mk = self.factory(kind);
        self.run_ctx(
            kernel,
            kind.name(),
            kind.has_hardware(),
            mk,
            ctx,
            on_checkpoint,
        )
    }

    /// Runs an arbitrary kernel under one registry mechanism.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run_kernel(
        &self,
        kernel: &KernelTrace,
        kind: PrefetcherKind,
    ) -> Result<MechanismReport, SimError> {
        let out = self.finish(
            kernel.clone(),
            kind.name(),
            kind.has_hardware(),
            self.factory(kind),
        )?;
        Ok(out.report)
    }

    /// Runs an arbitrary kernel with a custom prefetcher factory
    /// (parameter sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    pub fn run_custom(
        &self,
        kernel: &KernelTrace,
        name: &str,
        mk: impl FnMut(SmId) -> Box<dyn Prefetcher>,
    ) -> Result<MechanismReport, SimError> {
        Ok(self.finish(kernel.clone(), name, true, mk)?.report)
    }

    /// Per-SM prefetcher factory for a registry mechanism.
    fn factory(&self, kind: PrefetcherKind) -> impl FnMut(SmId) -> Box<dyn Prefetcher> {
        let warps = self.cfg.max_warps_per_sm;
        move |_| kind.build(warps)
    }

    /// Runs `kernel` to its stop reason with no run control.
    fn finish(
        &self,
        kernel: KernelTrace,
        name: &str,
        hardware: bool,
        mk: impl FnMut(SmId) -> Box<dyn Prefetcher>,
    ) -> Result<RunOutput, SimError> {
        let ctx = ExecContext::default();
        match self.run_ctx(kernel, name, hardware, mk, &ctx, &mut |_, _| {})? {
            JobRun::Finished(out) => Ok(*out),
            other => unreachable!("a run without run control finishes, got {other:?}"),
        }
    }

    /// Builds the device and runs it under `ctx` by the rules on
    /// [`Harness::run_job_with`]: the one place the harness makes a
    /// [`Gpu`]. `name` and `hardware` label the report row.
    fn run_ctx(
        &self,
        kernel: KernelTrace,
        name: &str,
        hardware: bool,
        mk: impl FnMut(SmId) -> Box<dyn Prefetcher>,
        ctx: &ExecContext<'_>,
        on_checkpoint: &mut dyn FnMut(u64, u64),
    ) -> Result<JobRun, SimError> {
        let cancelled = || ctx.cancel.is_some_and(|c| c.load(Ordering::Relaxed));
        if cancelled() {
            return Ok(JobRun::Cancelled);
        }
        let mut gpu = Gpu::new(self.cfg.clone(), kernel, mk)?;
        if let Some(ring) = ctx.ring {
            gpu.attach_telemetry(ring, ctx.include_events);
        }
        if let Some(path) = ctx.resume_from {
            gpu.restore(&Checkpoint::load(path)?)?;
        }
        let can_suspend = ctx.checkpoint_to.is_some();
        let mut written_at = None;
        let outcome = gpu.run_serviced(
            ctx.checkpoint_to.zip(self.cfg.checkpoint_every),
            |cycle, bytes| {
                written_at = Some(cycle);
                on_checkpoint(cycle, bytes);
            },
            |c| {
                // The deadline only matters at millisecond scale;
                // reading the clock every cycle would dominate the
                // simulation.
                cancelled()
                    || can_suspend
                        && (ctx.suspend_after.is_some_and(|n| c.0 >= n)
                            || c.0.is_multiple_of(1024)
                                && ctx.deadline.is_some_and(|d| Instant::now() >= d))
            },
        )?;
        if let Some(outcome) = outcome {
            let report = MechanismReport::from_outcome(
                name,
                gpu.kernel().name(),
                &outcome,
                &self.cfg,
                &self.energy,
                hardware,
            );
            return Ok(JobRun::Finished(Box::new(RunOutput {
                report,
                stop: outcome.stop,
                host: outcome.host,
            })));
        }
        let Some(path) = ctx.checkpoint_to.filter(|_| !cancelled()) else {
            return Ok(JobRun::Cancelled);
        };
        let cycle = gpu.cycle().0;
        if written_at != Some(cycle) {
            let bytes = gpu.checkpoint().write_atomic(path)?;
            on_checkpoint(cycle, bytes);
        }
        Ok(JobRun::Suspended {
            cycle,
            checkpoint: path.display().to_string(),
        })
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_runs_every_benchmark_baseline() {
        let h = Harness::quick();
        for &b in Benchmark::all() {
            let r = h.run(b, PrefetcherKind::Baseline).unwrap();
            assert!(r.ipc > 0.0, "{b}: ipc {}", r.ipc);
            assert!(r.cycles > 0, "{b}");
        }
    }

    #[test]
    fn snake_beats_baseline_on_lps() {
        let h = Harness::quick();
        let base = h.run(Benchmark::Lps, PrefetcherKind::Baseline).unwrap();
        let snake = h.run(Benchmark::Lps, PrefetcherKind::Snake).unwrap();
        assert!(
            snake.speedup_over(&base) > 1.02,
            "snake {} vs baseline {} IPC (speedup {:.3})",
            snake.ipc,
            base.ipc,
            snake.speedup_over(&base)
        );
        assert!(snake.coverage > 0.3, "snake coverage {}", snake.coverage);
    }

    #[test]
    fn custom_factory_is_usable() {
        let h = Harness::quick();
        let kernel = Benchmark::Lib.build(&h.size);
        let r = h
            .run_custom(&kernel, "null-custom", |_| {
                Box::new(snake_sim::NullPrefetcher)
            })
            .unwrap();
        assert_eq!(r.mechanism, "null-custom");
        assert!(r.ipc > 0.0);
    }

    #[test]
    fn invalid_config_surfaces_as_sim_error() {
        let mut h = Harness::quick();
        h.cfg.mshr_entries = 0;
        assert!(h.validate().is_err());
        let err = h.run(Benchmark::Lps, PrefetcherKind::Baseline).unwrap_err();
        assert!(matches!(err, SimError::Config(_)));
        assert!(h.run_job(Benchmark::Lps, PrefetcherKind::Baseline).is_err());
    }

    /// A scratch directory unique to this test process and `tag`.
    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("snake-runner-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Runs `ctx` and returns the result with the cycles at which
    /// `on_checkpoint` fired.
    fn run_with(
        h: &Harness,
        bench: Benchmark,
        kind: PrefetcherKind,
        ctx: &ExecContext<'_>,
    ) -> Result<(JobRun, Vec<u64>), SimError> {
        let mut fired = Vec::new();
        let run = h.run_job_with(bench, kind, ctx, &mut |cycle, _| fired.push(cycle))?;
        Ok((run, fired))
    }

    #[test]
    fn suspended_then_resumed_job_matches_uninterrupted() {
        let h = Harness::quick();
        let full = h.run_job(Benchmark::Lps, PrefetcherKind::Snake).unwrap();
        let dir = scratch("suspend");
        let ckpt = dir.join("job.ckpt");
        let suspend = ExecContext {
            checkpoint_to: Some(&ckpt),
            suspend_after: Some(200),
            ..ExecContext::default()
        };
        let (run, _) = run_with(&h, Benchmark::Lps, PrefetcherKind::Snake, &suspend).unwrap();
        let JobRun::Suspended { cycle, checkpoint } = run else {
            panic!("expected suspension, got {run:?}");
        };
        assert!(cycle >= 200, "suspended at cycle {cycle}");
        assert_eq!(checkpoint, ckpt.display().to_string());
        let resume = ExecContext {
            resume_from: Some(&ckpt),
            ..ExecContext::default()
        };
        let (resumed, _) = run_with(&h, Benchmark::Lps, PrefetcherKind::Snake, &resume).unwrap();
        assert_eq!(resumed, JobRun::Finished(Box::new(full)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_under_a_different_mechanism_is_refused() {
        let h = Harness::quick();
        let dir = scratch("mismatch");
        let ckpt = dir.join("job.ckpt");
        let suspend = ExecContext {
            checkpoint_to: Some(&ckpt),
            suspend_after: Some(100),
            ..ExecContext::default()
        };
        run_with(&h, Benchmark::Lps, PrefetcherKind::Snake, &suspend).unwrap();
        let resume = ExecContext {
            resume_from: Some(&ckpt),
            ..ExecContext::default()
        };
        let err = run_with(&h, Benchmark::Lps, PrefetcherKind::Mta, &resume).unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Snapshot(snake_sim::snapshot::SnapshotError::ConfigMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The rule set of [`Harness::run_job_with`], one row per
    /// combination of run-control fields: the result, how often
    /// `on_checkpoint` fired, and whether `checkpoint_to` exists after.
    #[test]
    fn run_control_rule_set() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Expect {
            Finished,
            Suspended(u64),
            Cancelled,
        }
        /// When the row's cancel flag is set.
        #[derive(Clone, Copy, PartialEq)]
        enum Cancel {
            Never,
            Before,
            AtFirstCheckpoint,
        }
        /// One row: the harness cadence and context fields (`deadline`
        /// is one that has already passed), then what must happen.
        struct Row {
            name: &'static str,
            cadence: Option<u64>,
            resume: bool,
            checkpoint: bool,
            suspend_after: Option<u64>,
            deadline: bool,
            cancel: Cancel,
            expect: Expect,
            fires: u64,
            exists: bool,
        }
        let (bench, kind) = (Benchmark::Lps, PrefetcherKind::Snake);
        let plain = Harness::quick();
        let full = plain.run_job(bench, kind).unwrap();
        let cycles = full.report.cycles;
        assert!(
            cycles > 2 * 1024,
            "the deadline rows need a long run ({cycles})"
        );
        let dir = scratch("rules");
        let resume_ckpt = dir.join("resume.ckpt");
        let early = ExecContext {
            checkpoint_to: Some(&resume_ckpt),
            suspend_after: Some(300),
            ..ExecContext::default()
        };
        run_with(&plain, bench, kind, &early).unwrap();

        use Cancel::*;
        use Expect::*;
        let cadenced = (cycles - 1) / 512;
        #[rustfmt::skip]
        let rows = [
            Row { name: "plain", cadence: None, resume: false, checkpoint: false, suspend_after: None, deadline: false, cancel: Never, expect: Finished, fires: 0, exists: false },
            Row { name: "resume", cadence: None, resume: true, checkpoint: false, suspend_after: None, deadline: false, cancel: Never, expect: Finished, fires: 0, exists: false },
            Row { name: "checkpoint, no cadence", cadence: None, resume: false, checkpoint: true, suspend_after: None, deadline: false, cancel: Never, expect: Finished, fires: 0, exists: false },
            Row { name: "checkpoint + cadence", cadence: Some(512), resume: false, checkpoint: true, suspend_after: None, deadline: false, cancel: Never, expect: Finished, fires: cadenced, exists: true },
            Row { name: "cadence, no checkpoint", cadence: Some(512), resume: false, checkpoint: false, suspend_after: None, deadline: false, cancel: Never, expect: Finished, fires: 0, exists: false },
            Row { name: "suspend_after, no checkpoint", cadence: None, resume: false, checkpoint: false, suspend_after: Some(500), deadline: false, cancel: Never, expect: Finished, fires: 0, exists: false },
            Row { name: "suspend_after + checkpoint", cadence: None, resume: false, checkpoint: true, suspend_after: Some(500), deadline: false, cancel: Never, expect: Suspended(500), fires: 1, exists: true },
            Row { name: "deadline, no checkpoint", cadence: None, resume: false, checkpoint: false, suspend_after: None, deadline: true, cancel: Never, expect: Finished, fires: 0, exists: false },
            Row { name: "deadline + checkpoint", cadence: None, resume: false, checkpoint: true, suspend_after: None, deadline: true, cancel: Never, expect: Suspended(1024), fires: 1, exists: true },
            Row { name: "deadline on a cadence cycle", cadence: Some(1024), resume: false, checkpoint: true, suspend_after: None, deadline: true, cancel: Never, expect: Suspended(1024), fires: 1, exists: true },
            Row { name: "cancel set beforehand", cadence: Some(512), resume: false, checkpoint: true, suspend_after: None, deadline: true, cancel: Before, expect: Cancelled, fires: 0, exists: false },
            Row { name: "cancel + deadline", cadence: Some(1024), resume: false, checkpoint: true, suspend_after: None, deadline: true, cancel: AtFirstCheckpoint, expect: Cancelled, fires: 1, exists: true },
        ];
        for (i, row) in rows.iter().enumerate() {
            let name = row.name;
            let mut h = plain.clone();
            h.cfg.checkpoint_every = row.cadence;
            let path = dir.join(format!("row{i}.ckpt"));
            let flag = AtomicBool::new(row.cancel == Before);
            let ctx = ExecContext {
                resume_from: row.resume.then_some(resume_ckpt.as_path()),
                checkpoint_to: row.checkpoint.then_some(path.as_path()),
                suspend_after: row.suspend_after,
                deadline: row.deadline.then(Instant::now),
                cancel: (row.cancel != Never).then_some(&flag),
                ..ExecContext::default()
            };
            let mut fired = Vec::new();
            let run = h
                .run_job_with(bench, kind, &ctx, &mut |cycle, _| {
                    fired.push(cycle);
                    if row.cancel == AtFirstCheckpoint {
                        flag.store(true, Ordering::Relaxed);
                    }
                })
                .unwrap();
            let got = match &run {
                JobRun::Finished(out) => {
                    assert_eq!(out.report, full.report, "{name}: the report is unchanged");
                    Finished
                }
                JobRun::Suspended { cycle, checkpoint } => {
                    assert_eq!(checkpoint, &path.display().to_string(), "{name}");
                    Suspended(*cycle)
                }
                JobRun::Cancelled => Cancelled,
            };
            assert_eq!(got, row.expect, "{name}");
            assert_eq!(
                fired.len() as u64,
                row.fires,
                "{name}: on_checkpoint at {fired:?}"
            );
            assert_eq!(path.exists(), row.exists, "{name}: checkpoint file");
            if let Suspended(cycle) = row.expect {
                assert_eq!(fired.last(), Some(&cycle), "{name}: the final write fired");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Telemetry is attached before the restore, so a resumed job's
    /// event stream carries exactly one `Restored` splice, stamped with
    /// the checkpoint's cycle, and the report is unchanged.
    #[test]
    fn resumed_job_publishes_the_restored_splice() {
        let (bench, kind) = (Benchmark::Lps, PrefetcherKind::Snake);
        let h = Harness::quick();
        let full = h.run_job(bench, kind).unwrap();
        let dir = scratch("splice");
        let ckpt = dir.join("job.ckpt");
        let at = full.report.cycles * 9 / 10;
        let suspend = ExecContext {
            checkpoint_to: Some(&ckpt),
            suspend_after: Some(at),
            ..ExecContext::default()
        };
        run_with(&h, bench, kind, &suspend).unwrap();

        let ring = TelemetryRing::new(1 << 16);
        let mut sub = ring.subscribe();
        let resume = ExecContext {
            resume_from: Some(&ckpt),
            ring: Some(&ring),
            include_events: true,
            ..ExecContext::default()
        };
        let (run, _) = run_with(&h, bench, kind, &resume).unwrap();
        assert_eq!(
            run,
            JobRun::Finished(Box::new(full)),
            "report bytes unchanged"
        );
        ring.close();
        let drained = sub.drain();
        assert_eq!(drained.dropped, 0, "the ring held the whole tail");
        let restored: Vec<u64> = drained
            .records
            .iter()
            .filter_map(|rec| match rec {
                snake_sim::TelemetryRecord::Event(ev)
                    if matches!(ev.data, snake_sim::SimEvent::Restored { .. }) =>
                {
                    Some(ev.cycle.0)
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            restored,
            vec![at],
            "one Restored event at the checkpoint's cycle"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_job_reports_stop_reason() {
        let mut h = Harness::quick();
        let full = h.run_job(Benchmark::Lps, PrefetcherKind::Baseline).unwrap();
        assert_eq!(full.stop, StopReason::Completed);

        h.cfg.cycle_budget = Some(snake_sim::Cycle(50));
        let cut = h.run_job(Benchmark::Lps, PrefetcherKind::Baseline).unwrap();
        assert_eq!(cut.stop, StopReason::BudgetExceeded { budget: 50 });
        assert!(cut.report.cycles <= 50);
    }
}
