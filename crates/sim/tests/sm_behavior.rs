//! Behavioral tests of the SM/GPU layer: CTA waves, scheduler
//! partitioning, stall taxonomy, divergence handling, and the
//! decoupled-L1 policy interactions that the unit tests inside the
//! crate cannot see end to end.

use snake_sim::{
    run_kernel, AccessEvent, AddrList, Address, CtaId, Gpu, GpuConfig, Instr, KernelTrace,
    NullPrefetcher, PrefetchContext, PrefetchPlacement, PrefetchRequest, Prefetcher, WarpTrace,
};

fn cfg() -> GpuConfig {
    GpuConfig::scaled(1)
}

fn streaming_warp(cta: u32, base: u64, loads: usize) -> WarpTrace {
    let instrs = (0..loads)
        .map(|i| Instr::load(i as u32, base + (i as u64) * 128))
        .collect();
    WarpTrace::new(CtaId(cta), instrs)
}

#[test]
fn cta_waves_rotate_through_slots() {
    // 8 CTAs x 8 warps on a 16-slot SM: 4 waves must run sequentially
    // and all instructions must retire.
    let warps: Vec<WarpTrace> = (0..8)
        .flat_map(|c| (0..8).map(move |w| streaming_warp(c, (c * 8 + w) as u64 * 65536, 6)))
        .collect();
    let k = KernelTrace::new("waves", warps);
    let out = run_kernel(cfg(), k, |_| Box::new(NullPrefetcher)).unwrap();
    assert_eq!(out.stats.instructions, 8 * 8 * 6);
}

#[test]
fn oversized_cta_is_rejected() {
    // One CTA with more warps than an SM can hold must be refused
    // loudly rather than silently deadlock.
    let warps: Vec<WarpTrace> = (0..17).map(|w| streaming_warp(0, w * 65536, 1)).collect();
    let k = KernelTrace::new("oversized", warps);
    let result = std::panic::catch_unwind(|| {
        let _ = Gpu::new(cfg(), k, |_| Box::new(NullPrefetcher));
    });
    assert!(result.is_err(), "CTA larger than the SM must panic");
}

#[test]
fn divergent_loads_fetch_every_transaction() {
    let instrs = vec![Instr::Load {
        pc: 0u32.into(),
        addrs: AddrList::from_vec(vec![Address(0), Address(4096), Address(8192)]),
    }];
    let k = KernelTrace::new("div", vec![WarpTrace::new(CtaId(0), instrs)]);
    let out = run_kernel(cfg(), k, |_| Box::new(NullPrefetcher)).unwrap();
    assert_eq!(out.stats.demand_loads, 3, "three transactions");
    assert_eq!(out.stats.l1.misses, 3);
}

/// Prefetcher that records whether it was ever trained on an event.
struct SpyPrefetcher {
    events: std::sync::Arc<std::sync::atomic::AtomicU64>,
}
snake_sim::stateless!(SpyPrefetcher);

impl Prefetcher for SpyPrefetcher {
    fn name(&self) -> &str {
        "spy"
    }
    fn on_demand_access(
        &mut self,
        _event: &AccessEvent,
        _ctx: &PrefetchContext,
        _out: &mut Vec<PrefetchRequest>,
    ) {
        self.events
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

#[test]
fn divergent_loads_do_not_train_the_prefetcher() {
    let instrs = vec![
        Instr::Load {
            pc: 0u32.into(),
            addrs: AddrList::from_vec(vec![Address(0), Address(4096)]),
        },
        Instr::load(1u32, 128u64),
    ];
    let k = KernelTrace::new("train", vec![WarpTrace::new(CtaId(0), instrs)]);
    let events = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
    let e2 = events.clone();
    let out = run_kernel(cfg(), k, move |_| {
        Box::new(SpyPrefetcher { events: e2.clone() })
    })
    .unwrap();
    assert_eq!(out.stats.demand_loads, 3);
    assert_eq!(
        events.load(std::sync::atomic::Ordering::Relaxed),
        1,
        "only the coalesced load trains (§3.4)"
    );
}

/// Prefetcher that immediately prefetches a fixed future line.
struct OneShot {
    target: u64,
    done: bool,
}
snake_sim::stateless!(OneShot);

impl Prefetcher for OneShot {
    fn name(&self) -> &str {
        "one-shot"
    }
    fn placement(&self) -> PrefetchPlacement {
        PrefetchPlacement::Decoupled
    }
    fn on_demand_access(
        &mut self,
        _event: &AccessEvent,
        _ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if !self.done {
            self.done = true;
            out.push(PrefetchRequest::new(Address(self.target)));
        }
    }
}

#[test]
fn prefetched_line_turns_a_future_miss_into_a_hit() {
    // Load A triggers a prefetch of B; plenty of compute later, load B
    // must hit on the prefetched (then transferred) line.
    let instrs = vec![
        Instr::load(0u32, 0u64),
        Instr::compute(600), // long enough for the prefetch to land
        Instr::load(1u32, 1 << 20),
    ];
    let k = KernelTrace::new("oneshot", vec![WarpTrace::new(CtaId(0), instrs)]);
    let out = run_kernel(cfg(), k, |_| {
        Box::new(OneShot {
            target: 1 << 20,
            done: false,
        })
    })
    .unwrap();
    assert_eq!(out.stats.prefetch.issued, 1);
    assert_eq!(out.stats.prefetch.useful, 1);
    assert_eq!(out.stats.l1.hits_on_prefetch, 1, "B was covered");
    assert_eq!(out.stats.coverage(), 0.5);
    assert_eq!(out.stats.timely_coverage(), 0.5);
}

#[test]
fn late_prefetch_counts_as_covered_but_not_timely() {
    // No compute gap: the demand for B arrives while the prefetch is
    // still in flight and merges with it.
    let instrs = vec![
        Instr::load(0u32, 0u64),
        Instr::compute(1),
        Instr::load(1u32, 1 << 20),
    ];
    let k = KernelTrace::new("late", vec![WarpTrace::new(CtaId(0), instrs)]);
    let out = run_kernel(cfg(), k, |_| {
        Box::new(OneShot {
            target: 1 << 20,
            done: false,
        })
    })
    .unwrap();
    assert_eq!(out.stats.prefetch.late, 1);
    assert_eq!(out.stats.l1.merges_with_prefetch, 1);
    assert_eq!(out.stats.coverage(), 0.5, "covered");
    assert_eq!(out.stats.timely_coverage(), 0.0, "but not timely");
}

#[test]
fn stall_taxonomy_distinguishes_compute_from_memory() {
    // A single warp alternating long compute and loads: stalls happen
    // both ways, but not every stall is a memory stall.
    let mut instrs = Vec::new();
    for i in 0..8u64 {
        instrs.push(Instr::load(i as u32, i * 4096));
        instrs.push(Instr::compute(50));
    }
    let k = KernelTrace::new("mix", vec![WarpTrace::new(CtaId(0), instrs)]);
    let out = run_kernel(cfg(), k, |_| Box::new(NullPrefetcher)).unwrap();
    let s = &out.stats;
    assert!(s.all_stall_cycles > 0);
    assert!(s.all_stall_mem_cycles > 0);
    assert!(
        s.all_stall_mem_cycles < s.all_stall_cycles,
        "compute stalls must show up: {} vs {}",
        s.all_stall_mem_cycles,
        s.all_stall_cycles
    );
}

#[test]
fn two_sms_split_the_work() {
    let warps: Vec<WarpTrace> = (0..4)
        .flat_map(|c| (0..4).map(move |w| streaming_warp(c, (c * 4 + w) as u64 * 65536, 8)))
        .collect();
    let k = KernelTrace::new("split", warps);
    let one = run_kernel(GpuConfig::scaled(1), k.clone(), |_| {
        Box::new(NullPrefetcher)
    })
    .unwrap()
    .stats
    .cycles;
    let two = run_kernel(GpuConfig::scaled(2), k, |_| Box::new(NullPrefetcher))
        .unwrap()
        .stats
        .cycles;
    assert!(
        (two as f64) < (one as f64) * 0.9,
        "2 SMs must be meaningfully faster: {one} vs {two}"
    );
}
