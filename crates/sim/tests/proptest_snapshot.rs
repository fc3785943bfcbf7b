//! Property-based kill-anywhere checkpointing at the whole-device
//! level: for arbitrary kernels, fault plans, and kill cycles, a
//! checkpoint taken mid-run must round-trip bit-stably through the
//! json text encoding, restore onto a fresh device, and finish with a
//! byte-identical outcome — and a torn (truncated) artifact must be
//! rejected with a typed error, never partially applied.

use proptest::prelude::*;
use snake_sim::snapshot::{self, Checkpoint, SnapshotError};
use snake_sim::{json, Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, Recovery, WarpTrace};
use snake_sim::{CtaId, FaultPlan};

#[derive(Debug, Clone)]
struct Scenario {
    warps: usize,
    loads: usize,
    stride: u64,
    kill: u64,
    metrics: bool,
    faults: bool,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (1usize..5, 1usize..20, 1u64..8),
        (1u64..400, any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((warps, loads, stride), (kill, metrics, faults))| Scenario {
                warps,
                loads,
                stride: stride * 64,
                kill,
                metrics,
                faults,
            },
        )
}

fn build(s: &Scenario) -> (GpuConfig, KernelTrace) {
    let mut cfg = GpuConfig::scaled(1);
    cfg.metrics_window = s.metrics.then_some(64);
    if s.faults {
        cfg.fault = FaultPlan {
            seed: 0x5EED,
            drop_response: 0.02,
            duplicate_response: 0.02,
            delay_response: 0.1,
            delay_cycles: 40,
            brownout: None,
            recovery: Some(Recovery {
                timeout: 200,
                max_retries: 4,
            }),
        };
    }
    let traces = (0..s.warps)
        .map(|w| {
            let instrs = (0..s.loads)
                .map(|i| Instr::load(i as u32, (w * s.loads + i) as u64 * s.stride))
                .collect();
            WarpTrace::new(CtaId((w / 4) as u32), instrs)
        })
        .collect();
    (cfg, KernelTrace::new("proptest-ckpt", traces))
}

fn gpu(cfg: &GpuConfig, kernel: &KernelTrace) -> Gpu {
    Gpu::new(cfg.clone(), kernel.clone(), |_| Box::new(NullPrefetcher)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Kill at an arbitrary cycle, round-trip the checkpoint through
    /// text, restore onto a fresh device: the resumed outcome must be
    /// byte-identical (Debug form) to the uninterrupted run's.
    #[test]
    fn kill_anywhere_resume_is_byte_identical(s in scenario()) {
        let (cfg, kernel) = build(&s);
        let reference = format!("{:?}", gpu(&cfg, &kernel).run());

        let mut victim = gpu(&cfg, &kernel);
        match victim.run_interruptible(|c| c.0 >= s.kill) {
            Some(out) => {
                // Finished before the kill cycle: nothing to restore.
                prop_assert_eq!(format!("{out:?}"), reference);
            }
            None => {
                let ckpt = victim.checkpoint();
                let text = ckpt.to_text();
                let reparsed = json::parse(&text).expect("checkpoint is valid json");
                let ckpt2 = Checkpoint::from_doc(reparsed).expect("checkpoint decodes");
                prop_assert_eq!(
                    ckpt2.to_text(),
                    text,
                    "encode/decode/encode must be bit-stable"
                );

                let mut resumed = gpu(&cfg, &kernel);
                resumed.restore(&ckpt2).expect("restore succeeds");
                prop_assert_eq!(
                    snapshot::first_divergence(&resumed.checkpoint().state, &ckpt.state),
                    None,
                    "restored state must re-encode identically"
                );

                prop_assert_eq!(
                    format!("{:?}", resumed.run()),
                    reference.clone(),
                    "restored run diverged (killed at cycle {})",
                    s.kill
                );
                // The suspended original also finishes identically.
                prop_assert_eq!(format!("{:?}", victim.run()), reference);
            }
        }
    }

    /// A checkpoint artifact truncated at any byte is rejected with a
    /// typed error on load — it can never be partially applied.
    #[test]
    fn torn_checkpoint_tail_is_rejected(cut_seed in any::<u64>()) {
        let (cfg, kernel) = build(&Scenario {
            warps: 2,
            loads: 8,
            stride: 64,
            kill: 40,
            metrics: true,
            faults: false,
        });
        let mut victim = gpu(&cfg, &kernel);
        prop_assert!(victim.run_interruptible(|c| c.0 >= 40).is_none());
        let dir = std::env::temp_dir().join(format!("snake-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let whole = dir.join("whole.ckpt");
        victim.checkpoint().write_atomic(&whole).unwrap();
        let text = std::fs::read_to_string(&whole).unwrap();
        let body = text.trim_end().len();
        let cut = 1 + (cut_seed as usize) % (body - 1);

        let torn = dir.join("torn.ckpt");
        std::fs::write(&torn, &text[..cut]).unwrap();
        let err = Checkpoint::load(&torn).expect_err("torn artifact must not load");
        prop_assert!(
            matches!(err, SnapshotError::Malformed { .. } | SnapshotError::SchemaMismatch { .. }),
            "cut at byte {} of {}: unexpected error {:?}",
            cut,
            body,
            err
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A restore that fails its fingerprint check leaves the device
/// untouched: it runs on to exactly the outcome a never-touched
/// device produces.
#[test]
fn refused_restore_leaves_the_device_unchanged() {
    let (cfg, kernel) = build(&Scenario {
        warps: 2,
        loads: 8,
        stride: 64,
        kill: 30,
        metrics: false,
        faults: false,
    });
    let mut victim = gpu(&cfg, &kernel);
    assert!(victim.run_interruptible(|c| c.0 >= 30).is_none());
    let ckpt = victim.checkpoint();

    let other = KernelTrace::new("different", kernel.warps().to_vec());
    let reference = format!("{:?}", gpu(&cfg, &other).run());
    let mut target = gpu(&cfg, &other);
    let err = target.restore(&ckpt).expect_err("fingerprint must differ");
    assert!(matches!(err, SnapshotError::ConfigMismatch { .. }), "{err}");
    assert_eq!(
        format!("{:?}", target.run()),
        reference,
        "a refused restore must not perturb the device"
    );
}
