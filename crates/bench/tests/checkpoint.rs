//! Kill-anywhere acceptance: killing a real benchmark at any cycle
//! and restoring from the checkpoint must reproduce the uninterrupted
//! run's `SimOutcome` byte-for-byte, across benchmarks and
//! mechanisms; and with checkpointing off the harness's job entry
//! point must be exactly a plain run.

use snake_bench::runner::{ExecContext, JobRun};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::snapshot::Checkpoint;
use snake_sim::{json, Gpu};
use snake_workloads::Benchmark;

fn gpu(h: &Harness, bench: Benchmark, kind: PrefetcherKind) -> Gpu {
    let kernel = bench.build(&h.size);
    let warps = h.cfg.max_warps_per_sm;
    Gpu::new(h.cfg.clone(), kernel, |_| kind.build(warps)).unwrap()
}

/// The acceptance sweep: 20 kill cycles spread over the whole run, on
/// two benchmarks under two mechanisms. Every (kill, restore, finish)
/// must be byte-identical (Debug form) to the uninterrupted outcome.
#[test]
fn kill_anywhere_restore_is_byte_identical() {
    let h = Harness::quick();
    for bench in [Benchmark::Lps, Benchmark::Lib] {
        for kind in [PrefetcherKind::Snake, PrefetcherKind::Mta] {
            let full = gpu(&h, bench, kind).run();
            let reference = format!("{full:?}");
            let cycles = full.stats.cycles;
            assert!(cycles > 40, "{bench}/{}: run too short", kind.name());

            let step = cycles / 21;
            for i in 1..=20u64 {
                let kill = (i * step).max(1);
                let mut victim = gpu(&h, bench, kind);
                let early = victim.run_interruptible(|c| c.0 >= kill);
                assert!(
                    early.is_none(),
                    "{bench}/{}: kill cycle {kill} past the end",
                    kind.name()
                );

                // Round-trip the checkpoint through its text encoding,
                // as a crash + reload would.
                let text = victim.checkpoint().to_text();
                let ckpt = Checkpoint::from_doc(json::parse(&text).unwrap()).unwrap();

                let mut resumed = gpu(&h, bench, kind);
                resumed.restore(&ckpt).unwrap();
                assert_eq!(
                    format!("{:?}", resumed.run()),
                    reference,
                    "{bench}/{}: restore at cycle {kill} diverged",
                    kind.name()
                );
            }
        }
    }
}

/// With `checkpoint_every` unset, a job given a checkpoint path but no
/// suspend trigger is exactly [`Harness::run_job`]: identical output,
/// and no artifact is ever written.
#[test]
fn checkpointing_off_is_exactly_run() {
    let h = Harness::quick();
    assert!(h.cfg.checkpoint_every.is_none());
    let reference = h.run_job(Benchmark::Cp, PrefetcherKind::Snake).unwrap();
    let path = std::env::temp_dir().join(format!("snake-ckpt-off-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let ctx = ExecContext {
        checkpoint_to: Some(&path),
        ..ExecContext::default()
    };
    let mut fired = 0;
    let run = h
        .run_job_with(Benchmark::Cp, PrefetcherKind::Snake, &ctx, &mut |_, _| {
            fired += 1
        })
        .unwrap();
    assert_eq!(run, JobRun::Finished(Box::new(reference)));
    assert_eq!(fired, 0, "no checkpoint may be reported");
    assert!(
        !path.exists(),
        "no artifact may be written when checkpointing is off"
    );
}

/// With a checkpoint cadence set, the run still produces the same
/// output (checkpointing is observation, not perturbation) and the
/// final artifact resumes to a run with identical output.
#[test]
fn periodic_checkpointing_does_not_perturb_the_run() {
    let mut h = Harness::quick();
    let reference = h.run_job(Benchmark::Lps, PrefetcherKind::Snake).unwrap();

    h.cfg.checkpoint_every = Some(256);
    let dir = std::env::temp_dir().join(format!("snake-ckpt-cadence-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("periodic.ckpt");
    let ctx = ExecContext {
        checkpoint_to: Some(&path),
        ..ExecContext::default()
    };
    let mut fired = Vec::new();
    let run = h
        .run_job_with(
            Benchmark::Lps,
            PrefetcherKind::Snake,
            &ctx,
            &mut |cycle, _| fired.push(cycle),
        )
        .unwrap();
    assert_eq!(
        run,
        JobRun::Finished(Box::new(reference.clone())),
        "periodic checkpointing must not change the simulation"
    );
    assert!(path.exists(), "cadence produced an artifact");
    assert_eq!(
        fired.len() as u64,
        (reference.report.cycles - 1) / 256,
        "one write per cadence cycle before the end: {fired:?}"
    );

    // The artifact is a valid mid-run state under the *cadence*
    // config; resume it and finish.
    let resume = ExecContext {
        resume_from: Some(&path),
        ..ExecContext::default()
    };
    let resumed = h
        .run_job_with(
            Benchmark::Lps,
            PrefetcherKind::Snake,
            &resume,
            &mut |_, _| {},
        )
        .unwrap();
    assert_eq!(resumed, JobRun::Finished(Box::new(reference)));
    std::fs::remove_dir_all(&dir).unwrap();
}
