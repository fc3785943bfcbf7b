//! Many-Thread-Aware prefetcher (Lee et al. \[29\]): the union of the
//! intra-warp and inter-warp mechanisms — the best-coverage prior work
//! the paper compares against (§2, Fig 6/11/16).

use snake_sim::{AccessEvent, KernelTrace, PrefetchContext, PrefetchRequest, Prefetcher};

use crate::baselines::inter_warp::InterWarp;
use crate::baselines::intra_warp::IntraWarp;

/// MTA = intra-warp + inter-warp.
#[derive(Debug, Clone, Default)]
pub struct Mta {
    intra: IntraWarp,
    inter: InterWarp,
}

impl Mta {
    /// Creates an MTA prefetcher from its two components.
    pub fn new(intra: IntraWarp, inter: InterWarp) -> Self {
        Mta { intra, inter }
    }
}

impl Prefetcher for Mta {
    fn name(&self) -> &str {
        "mta"
    }

    fn on_kernel_launch(&mut self, trace: &KernelTrace) {
        self.intra.on_kernel_launch(trace);
        self.inter.on_kernel_launch(trace);
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.intra.on_demand_access(event, ctx, out);
        self.inter.on_demand_access(event, ctx, out);
        out.dedup_by_key(|r| r.addr);
    }
}

snake_sim::restore_fields!(Mta { intra, inter });

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{AccessOutcome, Address, CtaId, Cycle, Pc, SmId, WarpId};

    fn ev(warp: u32, pc: u32, addr: u64) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(warp),
            cta: CtaId(0),
            pc: Pc(pc),
            addr: Address(addr),
            outcome: AccessOutcome::Miss,
            cycle: Cycle(0),
        }
    }

    fn ctx() -> PrefetchContext {
        PrefetchContext {
            cycle: Cycle(0),
            bw_utilization: 0.0,
            free_lines: 8,
            total_lines: 16,
            prefetch_overrun: false,
            telemetry: false,
        }
    }

    #[test]
    fn combines_both_mechanisms() {
        let mut p = Mta::default();
        let mut out = Vec::new();
        // Loop in warp 0 trains intra; warps 0..2 train inter.
        for iter in 0..3u64 {
            for w in 0..3u32 {
                out.clear();
                p.on_demand_access(
                    &ev(w, 1, 4096 * u64::from(w) + 128 * iter),
                    &ctx(),
                    &mut out,
                );
            }
        }
        // Last access (warp 2): intra target (+128) and inter targets
        // (+4096 x degree) both present.
        let addrs: Vec<u64> = out.iter().map(|r| r.addr.0).collect();
        let last = 4096 * 2 + 128 * 2;
        assert!(addrs.contains(&(last + 128)), "intra target in {addrs:?}");
        assert!(addrs.contains(&(last + 4096)), "inter target in {addrs:?}");
    }

    #[test]
    fn deduplicates_overlapping_targets() {
        let mut p = Mta::default();
        let mut out = Vec::new();
        // Equal intra and inter strides: targets coincide.
        for iter in 0..4u64 {
            for w in 0..4u32 {
                out.clear();
                p.on_demand_access(
                    &ev(w, 1, 1024 * u64::from(w) + 1024 * iter * 4),
                    &ctx(),
                    &mut out,
                );
            }
        }
        let mut addrs: Vec<u64> = out.iter().map(|r| r.addr.0).collect();
        let before = addrs.len();
        addrs.dedup();
        assert_eq!(before, addrs.len(), "duplicates must be removed");
    }
}
