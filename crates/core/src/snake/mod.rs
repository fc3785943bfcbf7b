//! The Snake prefetcher (§3): chain-of-strides detection on the Head
//! and Tail tables, prefetch generation with chain walking, store
//! decoupling, and throttling.

pub mod head_table;
pub mod tail_table;
pub mod throttle;

use snake_sim::json::{self, Value};
use snake_sim::snapshot::SnapshotError;
use snake_sim::{
    AccessEvent, Address, KernelTrace, PrefetchContext, PrefetchPlacement, PrefetchRequest,
    Prefetcher, PrefetcherEvent, WalkStop,
};

use head_table::{HeadLayout, HeadTable};
use tail_table::{TailTable, TailTableConfig};
use throttle::{Throttle, ThrottleConfig};

/// Configuration of the Snake prefetcher and its ablation variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnakeConfig {
    /// Tail-table knobs (capacity, eviction).
    pub tail: TailTableConfig,
    /// Head-table rows (should equal the SM's resident warps).
    pub head_warps: u32,
    /// Physical Head-table organization (§5.5 ablation).
    pub head_layout: HeadLayout,
    /// Maximum inter-thread chain-walk depth per trigger.
    pub chain_depth: usize,
    /// Future warps covered per inter-warp trigger.
    pub inter_warp_degree: u32,
    /// Whether intra-warp and inter-warp strides are exploited
    /// (s-Snake turns this off to isolate the chain contribution).
    pub use_fixed_strides: bool,
    /// Throttle configuration.
    pub throttle: ThrottleConfig,
    /// Where prefetched lines are stored.
    pub placement: PrefetchPlacement,
}

impl Default for SnakeConfig {
    fn default() -> Self {
        SnakeConfig {
            tail: TailTableConfig::default(),
            head_warps: 64,
            head_layout: HeadLayout::PerWarp,
            chain_depth: 16,
            inter_warp_degree: 2,
            use_fixed_strides: true,
            throttle: ThrottleConfig::default(),
            placement: PrefetchPlacement::Decoupled,
        }
    }
}

impl SnakeConfig {
    /// Full Snake (the paper's headline configuration).
    pub fn snake() -> Self {
        SnakeConfig::default()
    }

    /// `s-Snake`: chains of strides only, no intra-/inter-warp fixed
    /// strides (§4, comparison point 6).
    pub fn s_snake() -> Self {
        SnakeConfig {
            use_fixed_strides: false,
            ..Default::default()
        }
    }

    /// `Snake-DT`: no decoupling and no throttling (comparison point 7).
    pub fn snake_dt() -> Self {
        SnakeConfig {
            throttle: ThrottleConfig {
                enabled: false,
                ..Default::default()
            },
            placement: PrefetchPlacement::PlainL1,
            ..Default::default()
        }
    }

    /// `Snake-T`: decoupling without throttling (comparison point 8).
    pub fn snake_t() -> Self {
        SnakeConfig {
            throttle: ThrottleConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// `Isolated-Snake`: prefetches go to a dedicated buffer of
    /// `lines` cache lines (§5.7).
    pub fn isolated(lines: u32) -> Self {
        SnakeConfig {
            placement: PrefetchPlacement::Isolated { lines },
            ..Default::default()
        }
    }
}

/// The Snake prefetcher.
///
/// # Examples
///
/// ```
/// use snake_core::snake::{Snake, SnakeConfig};
/// use snake_sim::Prefetcher;
///
/// let snake = Snake::new(SnakeConfig::snake());
/// assert_eq!(snake.name(), "snake");
/// ```
#[derive(Debug, Clone)]
pub struct Snake {
    cfg: SnakeConfig,
    head: HeadTable,
    tail: TailTable,
    throttle: Throttle,
    name: &'static str,
    /// Chain-walk telemetry recorded only when
    /// [`PrefetchContext::telemetry`] is set, drained by the SM.
    events: Vec<PrefetcherEvent>,
}

impl Snake {
    /// Creates a Snake instance from a configuration.
    pub fn new(cfg: SnakeConfig) -> Self {
        let name = match (cfg.use_fixed_strides, cfg.throttle.enabled, cfg.placement) {
            (false, _, _) => "s-snake",
            (true, false, PrefetchPlacement::PlainL1) => "snake-dt",
            (true, false, PrefetchPlacement::Decoupled) => "snake-t",
            (true, _, PrefetchPlacement::Isolated { .. }) => "isolated-snake",
            _ => "snake",
        };
        let mut throttle = Throttle::new(cfg.throttle);
        throttle.set_max_depth(cfg.chain_depth);
        Snake {
            head: HeadTable::with_layout(cfg.head_warps, cfg.head_layout),
            tail: TailTable::new(cfg.tail),
            throttle,
            cfg,
            name,
            events: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SnakeConfig {
        &self.cfg
    }

    /// Read access to the Tail table (diagnostics, examples, Fig 8).
    pub fn tail_table(&self) -> &TailTable {
        &self.tail
    }
}

/// The Tail table's target sink for one demand access: each target
/// goes straight into the SM's request buffer.
struct Requests<'a>(&'a mut Vec<PrefetchRequest>);

impl Extend<Address> for Requests<'_> {
    fn extend<I: IntoIterator<Item = Address>>(&mut self, targets: I) {
        self.0.extend(targets.into_iter().map(PrefetchRequest::new));
    }
}

impl Prefetcher for Snake {
    fn name(&self) -> &str {
        self.name
    }

    fn placement(&self) -> PrefetchPlacement {
        self.cfg.placement
    }

    fn on_kernel_launch(&mut self, _trace: &KernelTrace) {
        self.head.reset();
        self.tail.reset();
        self.throttle.reset();
        self.events.clear();
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        // Detection always runs: throttling halts issuing, not learning.
        if let Some(transition) = self.head.update(event.warp, event.pc, event.addr) {
            self.tail.observe(&transition);
        }

        self.throttle.update(ctx);
        if ctx.telemetry {
            self.events.push(PrefetcherEvent::ChainWalkStart {
                warp: event.warp,
                pc: event.pc,
            });
        }
        if self.throttle.is_throttled(ctx.cycle) {
            if ctx.telemetry {
                self.events.push(PrefetcherEvent::ChainWalkStop {
                    steps: 0,
                    reason: WalkStop::Throttled,
                });
            }
            return;
        }

        let start = out.len();
        let summary = self.tail.generate(
            event.warp,
            event.pc,
            event.addr,
            self.throttle.depth(),
            self.cfg.inter_warp_degree,
            self.cfg.use_fixed_strides,
            &mut Requests(out),
        );
        if ctx.telemetry {
            for (i, r) in out[start..start + summary.chain_targets].iter().enumerate() {
                self.events.push(PrefetcherEvent::ChainWalkStep {
                    depth: i as u32 + 1,
                    addr: r.addr,
                });
            }
            self.events.push(PrefetcherEvent::ChainWalkStop {
                steps: summary.steps,
                reason: if summary.exhausted {
                    WalkStop::DepthLimit
                } else {
                    WalkStop::NoEntry
                },
            });
        }
    }

    fn throttled(&self, now: snake_sim::Cycle) -> bool {
        self.throttle.is_throttled(now)
    }

    fn trained(&self) -> bool {
        self.tail.any_trained()
    }

    fn chain_depth(&self) -> u32 {
        self.throttle.depth() as u32
    }

    fn drain_events(&mut self, out: &mut Vec<PrefetcherEvent>) {
        out.append(&mut self.events);
    }

    /// Captures the Head table, Tail table, and throttle state machine.
    /// The telemetry buffer is not captured: checkpoints are taken at
    /// cycle boundaries, after the SM has drained it.
    fn save_state(&self) -> Value {
        Value::Obj(vec![
            ("head".into(), self.head.save_state()),
            ("tail".into(), self.tail.save_state()),
            ("throttle".into(), self.throttle.save_state()),
        ])
    }

    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.head.restore_state(json::field(v, "head")?)?;
        self.tail.restore_state(json::field(v, "tail")?)?;
        self.throttle.restore_state(json::field(v, "throttle")?)?;
        self.events.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{AccessOutcome, CtaId, Cycle, Pc, SmId, WarpId};

    fn ev(warp: u32, pc: u32, addr: u64, cycle: u64) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(warp),
            cta: CtaId(0),
            pc: Pc(pc),
            addr: Address(addr),
            outcome: AccessOutcome::Miss,
            cycle: Cycle(cycle),
        }
    }

    fn ctx(cycle: u64) -> PrefetchContext {
        PrefetchContext {
            cycle: Cycle(cycle),
            bw_utilization: 0.0,
            free_lines: 64,
            total_lines: 128,
            prefetch_overrun: false,
            telemetry: false,
        }
    }

    /// Trains the chain pc1 -(s)-> pc2 on three warps.
    fn train_pair(s: &mut Snake, pc1: u32, pc2: u32, stride: i64) {
        let mut out = Vec::new();
        for w in 0..3u32 {
            let base = 100_000 * u64::from(w);
            s.on_demand_access(&ev(w, pc1, base, 0), &ctx(0), &mut out);
            s.on_demand_access(
                &ev(w, pc2, base.wrapping_add_signed(stride), 0),
                &ctx(0),
                &mut out,
            );
            // Break the warp's chain so pc2 -> pc1 noise is distinct.
            s.on_demand_access(
                &ev(w, 999, base + 50_000 + u64::from(w), 0),
                &ctx(0),
                &mut out,
            );
        }
        out.clear();
    }

    #[test]
    fn trained_chain_produces_prefetch() {
        let mut s = Snake::new(SnakeConfig::snake());
        train_pair(&mut s, 10, 20, 400);
        let mut out = Vec::new();
        // A fresh warp executes pc 10: the promoted chain fires.
        s.on_demand_access(&ev(7, 10, 1_000_000, 10), &ctx(10), &mut out);
        assert!(
            out.iter().any(|r| r.addr == Address(1_000_400)),
            "expected chain prefetch, got {out:?}"
        );
    }

    #[test]
    fn untrained_snake_is_silent() {
        let mut s = Snake::new(SnakeConfig::snake());
        let mut out = Vec::new();
        s.on_demand_access(&ev(0, 10, 0, 0), &ctx(0), &mut out);
        s.on_demand_access(&ev(0, 20, 400, 0), &ctx(0), &mut out);
        assert!(out.is_empty());
        assert!(!s.trained());
    }

    #[test]
    fn throttle_on_prefetch_overrun_suppresses_issuing() {
        let mut s = Snake::new(SnakeConfig::snake());
        train_pair(&mut s, 10, 20, 400);
        let full = PrefetchContext {
            cycle: Cycle(100),
            free_lines: 0,
            // The L1 reports that unconsumed prefetched data started
            // dying: the space trigger fires.
            prefetch_overrun: true,
            ..ctx(100)
        };
        let mut out = Vec::new();
        s.on_demand_access(&ev(7, 10, 1_000_000, 100), &full, &mut out);
        assert!(out.is_empty(), "space-throttled Snake must not issue");
        assert!(s.throttled(Cycle(100)));
        // 50 cycles later it resumes.
        let mut out = Vec::new();
        s.on_demand_access(&ev(8, 10, 2_000_000, 151), &ctx(151), &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn bandwidth_throttle_suppresses_issuing() {
        let mut s = Snake::new(SnakeConfig::snake());
        train_pair(&mut s, 10, 20, 400);
        let busy = PrefetchContext {
            bw_utilization: 0.8,
            ..ctx(10)
        };
        let mut out = Vec::new();
        s.on_demand_access(&ev(7, 10, 1_000_000, 10), &busy, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn snake_dt_uses_plain_placement_and_no_throttle() {
        let s = Snake::new(SnakeConfig::snake_dt());
        assert_eq!(s.name(), "snake-dt");
        assert_eq!(s.placement(), PrefetchPlacement::PlainL1);
        let mut s = s;
        let full = PrefetchContext {
            free_lines: 0,
            ..ctx(0)
        };
        train_pair(&mut s, 10, 20, 400);
        let mut out = Vec::new();
        s.on_demand_access(&ev(7, 10, 1_000_000, 0), &full, &mut out);
        assert!(!out.is_empty(), "DT never throttles");
    }

    #[test]
    fn variant_names() {
        assert_eq!(Snake::new(SnakeConfig::snake()).name(), "snake");
        assert_eq!(Snake::new(SnakeConfig::s_snake()).name(), "s-snake");
        assert_eq!(Snake::new(SnakeConfig::snake_t()).name(), "snake-t");
        assert_eq!(
            Snake::new(SnakeConfig::isolated(32)).name(),
            "isolated-snake"
        );
    }

    #[test]
    fn telemetry_reports_chain_walks() {
        let mut s = Snake::new(SnakeConfig::snake());
        train_pair(&mut s, 10, 20, 400);
        let telem = PrefetchContext {
            telemetry: true,
            ..ctx(10)
        };
        let mut out = Vec::new();
        s.on_demand_access(&ev(7, 10, 1_000_000, 10), &telem, &mut out);
        let mut events = Vec::new();
        s.drain_events(&mut events);
        assert!(matches!(
            events.first(),
            Some(PrefetcherEvent::ChainWalkStart { .. })
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, PrefetcherEvent::ChainWalkStep { .. })));
        assert!(matches!(
            events.last(),
            Some(PrefetcherEvent::ChainWalkStop { .. })
        ));
        // A second drain is empty, and without telemetry nothing is
        // recorded at all.
        let mut events = Vec::new();
        s.drain_events(&mut events);
        assert!(events.is_empty());
        s.on_demand_access(&ev(8, 10, 2_000_000, 11), &ctx(11), &mut out);
        s.drain_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn telemetry_reports_throttled_walks() {
        let mut s = Snake::new(SnakeConfig::snake());
        train_pair(&mut s, 10, 20, 400);
        let full = PrefetchContext {
            free_lines: 0,
            prefetch_overrun: true,
            telemetry: true,
            ..ctx(100)
        };
        let mut out = Vec::new();
        s.on_demand_access(&ev(7, 10, 1_000_000, 100), &full, &mut out);
        let mut events = Vec::new();
        s.drain_events(&mut events);
        assert!(events.iter().any(|e| matches!(
            e,
            PrefetcherEvent::ChainWalkStop {
                reason: WalkStop::Throttled,
                ..
            }
        )));
    }

    #[test]
    fn kernel_launch_resets_state() {
        let mut s = Snake::new(SnakeConfig::snake());
        train_pair(&mut s, 10, 20, 400);
        assert!(s.trained());
        let kernel =
            snake_sim::KernelTrace::new("k", vec![snake_sim::WarpTrace::new(CtaId(0), vec![])]);
        s.on_kernel_launch(&kernel);
        assert!(!s.trained());
    }

    #[test]
    fn detection_continues_while_throttled() {
        let mut s = Snake::new(SnakeConfig::snake());
        let full = PrefetchContext {
            free_lines: 0,
            ..ctx(0)
        };
        let mut out = Vec::new();
        // Train entirely under throttle pressure.
        for w in 0..3u32 {
            let base = 100_000 * u64::from(w);
            s.on_demand_access(&ev(w, 10, base, 0), &full, &mut out);
            s.on_demand_access(&ev(w, 20, base + 400, 0), &full, &mut out);
            s.on_demand_access(
                &ev(w, 999, base + 77_000 + u64::from(w), 0),
                &full,
                &mut out,
            );
        }
        assert!(s.trained(), "learning must continue under throttle");
    }
}
