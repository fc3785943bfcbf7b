//! Composition: `Snake+CTA` (§4, comparison point 9 — the two
//! mechanisms are orthogonal).

use snake_sim::{
    AccessEvent, KernelTrace, PrefetchContext, PrefetchPlacement, PrefetchRequest, Prefetcher,
    PrefetcherEvent,
};

/// Runs two prefetchers side by side, merging their requests
/// (first prefetcher's targets take priority; duplicates removed).
pub struct Combined {
    name: String,
    first: Box<dyn Prefetcher>,
    second: Box<dyn Prefetcher>,
    placement: PrefetchPlacement,
}

impl std::fmt::Debug for Combined {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Combined")
            .field("name", &self.name)
            .finish()
    }
}

impl Combined {
    /// Combines two mechanisms under `name`, storing prefetches per
    /// `placement`.
    pub fn new(
        name: impl Into<String>,
        first: Box<dyn Prefetcher>,
        second: Box<dyn Prefetcher>,
        placement: PrefetchPlacement,
    ) -> Self {
        Combined {
            name: name.into(),
            first,
            second,
            placement,
        }
    }
}

impl Prefetcher for Combined {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> PrefetchPlacement {
        self.placement
    }

    fn on_kernel_launch(&mut self, trace: &KernelTrace) {
        self.first.on_kernel_launch(trace);
        self.second.on_kernel_launch(trace);
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.first.on_demand_access(event, ctx, out);
        self.second.on_demand_access(event, ctx, out);
        // Stable dedup preserving first-mechanism priority.
        let mut seen = Vec::with_capacity(out.len());
        out.retain(|r| {
            if seen.contains(&r.addr) {
                false
            } else {
                seen.push(r.addr);
                true
            }
        });
    }

    fn throttled(&self, now: snake_sim::Cycle) -> bool {
        self.first.throttled(now) || self.second.throttled(now)
    }

    fn trained(&self) -> bool {
        self.first.trained() || self.second.trained()
    }

    fn chain_depth(&self) -> u32 {
        self.first.chain_depth().max(self.second.chain_depth())
    }

    fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
        self.first.drain_events(out);
        self.second.drain_events(out);
    }
}

snake_sim::restore_fields!(Combined { first, second });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::cta_aware::CtaAware;
    use crate::snake::{Snake, SnakeConfig};
    use snake_sim::{AccessOutcome, Address, CtaId, Cycle, Pc, SmId, WarpId};

    fn ev(cta: u32, warp: u32, pc: u32, addr: u64) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(warp),
            cta: CtaId(cta),
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

    fn snake_cta() -> Combined {
        Combined::new(
            "snake+cta",
            Box::new(Snake::new(SnakeConfig::snake())),
            Box::new(CtaAware::default()),
            PrefetchPlacement::Decoupled,
        )
    }

    #[test]
    fn combined_merges_and_dedups() {
        let mut p = snake_cta();
        let mut out = Vec::new();
        // Train the CTA-aware half.
        for c in 0..3u32 {
            out.clear();
            p.on_demand_access(&ev(c, c, 1, 65_536 * u64::from(c)), &ctx(), &mut out);
        }
        assert!(
            out.iter().any(|r| r.addr == Address(3 * 65_536)),
            "CTA half contributes"
        );
        let mut addrs: Vec<_> = out.iter().map(|r| r.addr).collect();
        let n = addrs.len();
        addrs.dedup();
        assert_eq!(n, addrs.len());
    }

    #[test]
    fn combined_reports_placement_and_name() {
        let p = snake_cta();
        assert_eq!(p.name(), "snake+cta");
        assert_eq!(p.placement(), PrefetchPlacement::Decoupled);
    }

    #[test]
    fn combined_forwards_snake_telemetry_and_chain_depth() {
        let mut p = snake_cta();
        assert_eq!(
            p.chain_depth(),
            Snake::new(SnakeConfig::snake()).chain_depth()
        );
        let traced = PrefetchContext {
            telemetry: true,
            ..ctx()
        };
        // Train Snake's pc 10 -> pc 20 chain on three warps, then fire
        // it from a fresh warp.
        let mut out = Vec::new();
        for w in 0..3u32 {
            let base = 100_000 * u64::from(w);
            p.on_demand_access(&ev(0, w, 10, base), &traced, &mut out);
            p.on_demand_access(&ev(0, w, 20, base + 400), &traced, &mut out);
            p.on_demand_access(
                &ev(0, w, 999, base + 50_000 + u64::from(w)),
                &traced,
                &mut out,
            );
        }
        p.on_demand_access(&ev(0, 7, 10, 1_000_000), &traced, &mut out);
        let mut events = Vec::new();
        p.drain_events(&mut events);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, PrefetcherEvent::ChainWalkStart { .. })),
            "Snake's chain walks must reach the simulator: {events:?}"
        );
        events.clear();
        p.drain_events(&mut events);
        assert!(events.is_empty(), "draining empties Snake's buffer");
    }
}
