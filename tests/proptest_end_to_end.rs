//! End-to-end fuzzing: random kernels through the full simulator under
//! every mechanism. The simulator must always terminate, conserve its
//! accounting identities, and never panic — regardless of the access
//! pattern thrown at it.

use proptest::prelude::*;
use snake_repro::prelude::*;
use snake_repro::sim::{Brownout, CtaId, Cycle, Recovery, StopReason};

#[derive(Debug, Clone, Copy)]
enum GenInstr {
    Load { pc: u8, addr: u32 },
    Store { pc: u8, addr: u32 },
    Compute { cycles: u8 },
}

fn gen_instr() -> impl Strategy<Value = GenInstr> {
    prop_oneof![
        4 => (0u8..8, 0u32..(1 << 18)).prop_map(|(pc, addr)| GenInstr::Load { pc, addr }),
        1 => (8u8..12, 0u32..(1 << 18)).prop_map(|(pc, addr)| GenInstr::Store { pc, addr }),
        2 => (1u8..12).prop_map(|cycles| GenInstr::Compute { cycles }),
    ]
}

fn kernel() -> impl Strategy<Value = KernelTrace> {
    prop::collection::vec(prop::collection::vec(gen_instr(), 1..40), 1..8).prop_map(|warps| {
        let traces = warps
            .into_iter()
            .enumerate()
            .map(|(i, instrs)| {
                let instrs = instrs
                    .into_iter()
                    .map(|g| match g {
                        GenInstr::Load { pc, addr } => Instr::load(u32::from(pc), u64::from(addr)),
                        GenInstr::Store { pc, addr } => {
                            Instr::store(u32::from(pc), u64::from(addr))
                        }
                        GenInstr::Compute { cycles } => Instr::compute(u32::from(cycles)),
                    })
                    .collect();
                WarpTrace::new(CtaId((i / 4) as u32), instrs)
            })
            .collect();
        KernelTrace::new("fuzz", traces)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_kernels_complete_under_every_mechanism(k in kernel()) {
        let cfg = GpuConfig::scaled(1);
        let warps = cfg.max_warps_per_sm;
        let expected_instrs = k.total_instrs() as u64;
        let expected_loads: u64 = k
            .warps()
            .iter()
            .flat_map(|w| w.instrs.iter())
            .filter_map(|i| match i {
                Instr::Load { addrs, .. } => Some(addrs.len() as u64),
                _ => None,
            })
            .sum();
        for &kind in PrefetcherKind::all() {
            let out = run_kernel(cfg.clone(), k.clone(), |_| kind.build(warps))
                .expect("config valid");
            prop_assert_eq!(out.stop, StopReason::Completed, "{} must finish", kind);
            let s = &out.stats;
            prop_assert_eq!(s.instructions, expected_instrs, "{}", kind);
            prop_assert_eq!(s.demand_loads, expected_loads, "{}", kind);
            // Demand classification identity.
            let classified = s.l1.hits + s.l1.hits_on_prefetch + s.l1.hits_reserved
                + s.l1.merges_with_prefetch + s.l1.misses;
            prop_assert_eq!(classified, s.demand_loads, "{}", kind);
            // Prefetch fate identity (run drained, so nothing in flight).
            prop_assert_eq!(s.prefetch.issued, s.prefetch.fills + s.prefetch.late, "{}", kind);
            prop_assert!(s.cycles > 0);
        }
    }

    #[test]
    fn trace_text_round_trips_for_any_kernel(k in kernel()) {
        use snake_repro::sim::trace_io;
        let text = trace_io::to_text(&k);
        let parsed = trace_io::from_text(&text).expect("serializer output must parse");
        prop_assert_eq!(parsed, k);
    }

    /// `Gpu::run` skips device-quiet stretches in bulk; stepping every
    /// cycle is the reference it must match, faults, windows, watchdog
    /// and budget included, and a suspension at any cycle must leave
    /// the stepped device's checkpoint bytes.
    #[test]
    fn skipping_quiet_cycles_matches_stepping(
        k in kernel(),
        seed in 0u64..1000,
        period in 50u64..400,
        window in 16u64..200,
        budget in 200u64..3000,
        pause in 1u64..3000,
    ) {
        let mut cfg = GpuConfig::scaled(1);
        cfg.fault.seed = seed;
        cfg.fault.drop_response = 0.05;
        cfg.fault.delay_response = 0.1;
        cfg.fault.delay_cycles = 90;
        cfg.fault.brownout = Some(Brownout { period, active: period / 3, scale: 0.25 });
        cfg.fault.recovery = Some(Recovery { timeout: 300, max_retries: 4 });
        cfg.audit_window = Some(window);
        cfg.metrics_window = Some(window + 7);
        cfg.watchdog_cycles = Some(400 + window);
        cfg.cycle_budget = Some(Cycle(budget));
        let warps = cfg.max_warps_per_sm;
        let state = |gpu: &Gpu| gpu.checkpoint().to_json().to_string();
        for kind in [PrefetcherKind::Baseline, PrefetcherKind::Snake] {
            let build = || Gpu::new(cfg.clone(), k.clone(), |_| kind.build(warps)).expect("valid");
            let (mut skipping, mut stepped) = (build(), build());
            let mut more = true;
            while more && stepped.cycle().0 < pause {
                more = stepped.step();
            }
            let out = match skipping.run_interruptible(|c| c.0 == pause) {
                Some(out) => out,
                None => {
                    prop_assert_eq!(skipping.cycle().0, pause);
                    prop_assert!(state(&skipping) == state(&stepped), "{} at {}", kind, pause);
                    skipping.run()
                }
            };
            while more && stepped.step() {}
            prop_assert_eq!(&out.stats, &stepped.collect_stats(), "{}", kind);
            prop_assert_eq!(out.stop.label() == "deadlock", stepped.deadlock_info().is_some());
        }
    }

    #[test]
    fn isolated_snake_also_survives_fuzzing(k in kernel()) {
        let cfg = GpuConfig::scaled(1);
        let warps = cfg.max_warps_per_sm;
        let out = run_kernel(cfg, k, |_| PrefetcherKind::IsolatedSnake.build(warps))
            .expect("config valid");
        prop_assert_eq!(out.stop, StopReason::Completed);
    }
}
