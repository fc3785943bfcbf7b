//! Property-based exactness of the issue-slot stall taxonomy: for
//! arbitrary instruction mixes, fault plans, scheduler policies, SM
//! counts and shapes and checkpoint cut points, the eight stall buckets
//! must partition scheduler-cycles exactly — at every observation
//! point, after merging across SMs, and bit-identically across a
//! checkpoint/restore round-trip. Every run is audited, so the SMs'
//! warp-state masks and per-slot words are checked against their slots
//! throughout: kernels hold more CTAs than the device has slots (later
//! CTAs launch into the slots of retired warps, with newer ages), some
//! warp traces are empty (exhausted at launch), and some runs use one
//! `volta_v100()` SM, whose 64 slots reach the last bit of a mask.

use proptest::prelude::*;
use snake_sim::snapshot::Checkpoint;
use snake_sim::{
    json, Gpu, GpuConfig, Instr, KernelTrace, NullPrefetcher, Recovery, SchedulerPolicy,
    StallBreakdown, WarpTrace,
};
use snake_sim::{CtaId, FaultPlan};

#[derive(Debug, Clone)]
struct Scenario {
    /// A power of two, so one wave of CTAs fills every slot.
    warps_per_cta: usize,
    /// CTAs beyond the first full wave: they launch as warps retire.
    extra_ctas: usize,
    instrs: usize,
    stride: u64,
    /// Per-instruction selector stream: load / store / compute.
    mix: u64,
    /// Warp `w`'s trace is empty when bit `w % 64` is set.
    empty: u64,
    kill: u64,
    faults: bool,
    lrr: bool,
    /// One `volta_v100()` SM (64 slots, 4 schedulers) instead of `sms`
    /// scaled ones (16 slots, 2 schedulers).
    v100: bool,
    sms: u32,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        (0u32..4, 1usize..5, 2usize..24, 1u64..8),
        (any::<u64>(), any::<u64>(), any::<u64>(), 1u64..2000),
        (any::<bool>(), any::<bool>(), any::<bool>(), 1u32..3),
    )
        .prop_map(
            |(
                (cta_log2, extra_ctas, instrs, stride),
                (mix, empty_a, empty_b, kill),
                (faults, lrr, v100, sms),
            )| Scenario {
                warps_per_cta: 1 << cta_log2,
                extra_ctas,
                instrs,
                stride: stride * 64,
                mix,
                empty: empty_a & empty_b,
                kill,
                faults,
                lrr,
                v100,
                sms,
            },
        )
}

fn build(s: &Scenario) -> (GpuConfig, KernelTrace) {
    let mut cfg = if s.v100 {
        GpuConfig {
            num_sms: 1,
            ..GpuConfig::volta_v100()
        }
    } else {
        GpuConfig::scaled(s.sms)
    };
    cfg.metrics_window = Some(64);
    cfg.audit_window = Some(16);
    cfg.scheduler = if s.lrr {
        SchedulerPolicy::LooseRoundRobin
    } else {
        SchedulerPolicy::GreedyThenOldest
    };
    if s.faults {
        cfg.fault = FaultPlan {
            seed: 0xD15EA5E,
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
    let slots = (cfg.num_sms * cfg.max_warps_per_sm) as usize;
    let warps = slots + s.extra_ctas * s.warps_per_cta;
    let traces = (0..warps)
        .map(|w| {
            let len = if s.empty >> (w % 64) & 1 == 1 {
                0
            } else {
                s.instrs
            };
            let instrs = (0..len)
                .map(|i| {
                    let addr = (w * s.instrs + i) as u64 * s.stride;
                    // Cheap deterministic per-slot selector derived
                    // from the scenario's mix seed.
                    match (s.mix >> ((w * s.instrs + i) % 32)) % 3 {
                        0 => Instr::load(i as u32, addr),
                        1 => Instr::store(i as u32, addr),
                        _ => Instr::compute(1 + (s.mix % 4) as u32),
                    }
                })
                .collect();
            WarpTrace::new(CtaId((w / s.warps_per_cta) as u32), instrs)
        })
        .collect();
    (cfg, KernelTrace::new("proptest-stall", traces))
}

fn gpu(cfg: &GpuConfig, kernel: &KernelTrace) -> Gpu {
    Gpu::new(cfg.clone(), kernel.clone(), |_| Box::new(NullPrefetcher)).unwrap()
}

fn assert_exact(stall: &StallBreakdown, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        stall.is_exact(),
        "{what}: buckets sum to {} but scheduler cycles are {}",
        stall.total(),
        stall.scheduler_cycles,
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The taxonomy partitions scheduler-cycles exactly: for any
    /// workload/fault mix, at the end of a run, mid-run at an
    /// arbitrary cut point, and after a checkpoint/restore of that
    /// cut, buckets always sum to scheduler cycles — and the restored
    /// breakdown is bit-identical to the suspended one.
    #[test]
    fn stall_buckets_partition_scheduler_cycles(s in scenario()) {
        let (cfg, kernel) = build(&s);

        // Uninterrupted reference run.
        let reference = gpu(&cfg, &kernel).run();
        assert_exact(&reference.stats.stall, "uninterrupted run")?;
        prop_assert!(
            reference.stats.stall.scheduler_cycles > 0,
            "run accounted no scheduler cycles"
        );

        let mut victim = gpu(&cfg, &kernel);
        match victim.run_interruptible(|c| c.0 >= s.kill) {
            Some(out) => {
                prop_assert_eq!(out.stats.stall, reference.stats.stall);
            }
            None => {
                // Mid-run, the partial accounting is already exact.
                let at_cut = victim.collect_stats().stall;
                assert_exact(&at_cut, "suspended mid-run")?;

                // The breakdown survives the text round-trip
                // bit-identically.
                let ckpt = victim.checkpoint();
                let text = ckpt.to_json().to_string();
                let reparsed = json::parse(&text).expect("checkpoint is valid json");
                let ckpt2 = Checkpoint::from_json(&reparsed).expect("checkpoint decodes");
                let mut resumed = gpu(&cfg, &kernel);
                resumed.restore(&ckpt2).expect("restore succeeds");
                prop_assert_eq!(
                    resumed.collect_stats().stall,
                    at_cut,
                    "restored breakdown diverged (killed at cycle {})",
                    s.kill
                );

                // And the resumed run lands on the reference exactly.
                let resumed_out = resumed.run();
                assert_exact(&resumed_out.stats.stall, "resumed run")?;
                prop_assert_eq!(resumed_out.stats.stall, reference.stats.stall);
            }
        }
    }
}
