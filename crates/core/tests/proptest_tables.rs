//! Property-based tests for Snake's Head and Tail tables: capacity
//! bounds, training monotonicity, warp-vector consistency, generation
//! bounds under arbitrary transition streams, and a cached chain walk
//! that matches one taken afresh.

use std::collections::HashMap;

use proptest::prelude::*;
use snake_core::snake::head_table::{HeadTable, Transition};
use snake_core::snake::tail_table::{EvictionPolicy, TailTable, TailTableConfig};
use snake_core::snake::{Snake, SnakeConfig};
use snake_sim::{
    AccessEvent, AccessOutcome, Address, CtaId, Cycle, Pc, PrefetchContext, Prefetcher, SmId,
    WarpId,
};

#[derive(Debug, Clone, Copy)]
struct Load {
    warp: u32,
    pc: u32,
    addr: u64,
}

fn load() -> impl Strategy<Value = Load> {
    (0u32..8, 0u32..6, 0u64..1 << 16).prop_map(|(warp, pc, addr)| Load {
        warp,
        pc: pc * 10,
        addr: (addr / 64) * 64,
    })
}

fn feed(table: &mut TailTable, head: &mut HeadTable, loads: &[Load]) {
    for l in loads {
        if let Some(t) = head.update(WarpId(l.warp), Pc(l.pc), Address(l.addr)) {
            table.observe(&t);
        }
    }
}

/// The load PCs of the looping program that [`walk_script_step`]
/// drives, and each one's byte offset within an iteration.
const LOOP_PCS: [u32; 4] = [10, 20, 30, 40];
const LOOP_OFFSETS: [u64; 4] = [0, 400, 1_000, 1_800];
/// Bytes from one iteration of a warp's loop to the next. Every fourth
/// warp re-reads the same lines each iteration instead, so its chain
/// is a cycle whose laps revisit the offsets of the first.
fn loop_stride(warp: u32) -> u64 {
    if warp % 4 == 3 {
        0
    } else {
        4_096
    }
}

/// One table operation of a walk-cache script: `(op, warp, pc index,
/// noise, depth, degree)`. Ops 0–4 observe the warp's next transition
/// around the loop: one in 16 goes to a random address (a new entry,
/// often an eviction) and one in 16 to a second, consistent stride
/// that trains beside the first (a demotion between existing
/// entries). Op 5 generates for `(warp, pc index)` (index 4 is a PC
/// outside the loop); ops 6–7 generate again for the previous trigger
/// at a new depth and address.
type ScriptOp = (u32, u32, usize, u64, usize, u32);

/// Warps are mostly 0–3, so that a few warps promote, demote and
/// re-walk each other's chains, and otherwise any of 0–127, so that
/// warps 64 apart share a warp bit. Depths reach past the 16 hops a
/// cached walk holds.
fn script_op() -> impl Strategy<Value = ScriptOp> {
    (
        0u32..8,
        prop_oneof![3 => 0u32..4, 1 => 0u32..128],
        0usize..5,
        0u64..1 << 16,
        0usize..=20,
        0u32..4,
    )
}

/// Applies `op` to both tables: `cached` keeps its walk cache, `cold`
/// is restored from its own checkpoint before every `generate`, which
/// drops its cache. Fails unless both return the same targets and
/// summary and end in the same checkpointed state.
fn walk_script_step(
    cached: &mut TailTable,
    cold: &mut TailTable,
    positions: &mut HashMap<u32, (usize, u64, u64)>,
    trigger: &mut (u32, u32),
    op: ScriptOp,
) -> Result<(), TestCaseError> {
    let (kind, warp, pc_idx, noise, depth, degree) = op;
    if kind < 5 {
        let base = u64::from(warp) * 65_536;
        let (k, iter, prev_addr) = *positions.entry(warp).or_insert((0, 0, base));
        let next = (k + 1) % LOOP_PCS.len();
        let iter = iter + u64::from(next == 0);
        let on_loop = base + LOOP_OFFSETS[next] + iter * loop_stride(warp);
        let cur_addr = match noise % 16 {
            0 => noise * 64,
            1 => on_loop + 128,
            _ => on_loop,
        };
        positions.insert(warp, (next, iter, cur_addr));
        let t = Transition {
            warp: WarpId(warp),
            prev_pc: Pc(LOOP_PCS[k]),
            prev_addr: Address(prev_addr),
            cur_pc: Pc(LOOP_PCS[next]),
            cur_addr: Address(cur_addr),
        };
        cached.observe(&t);
        cold.observe(&t);
    } else {
        if kind == 5 {
            *trigger = (warp, LOOP_PCS.get(pc_idx).copied().unwrap_or(99));
        }
        let (warp, pc) = *trigger;
        let addr = Address(noise * 64);
        let use_fixed = degree < 3;
        let checkpoint = cold.save_state();
        cold.restore_state(&checkpoint)
            .expect("a table restores its own state");
        let (mut hot, mut fresh) = (Vec::new(), Vec::new());
        let a = cached.generate(
            WarpId(warp),
            Pc(pc),
            addr,
            depth,
            degree,
            use_fixed,
            &mut hot,
        );
        let b = cold.generate(
            WarpId(warp),
            Pc(pc),
            addr,
            depth,
            degree,
            use_fixed,
            &mut fresh,
        );
        prop_assert_eq!(
            &hot,
            &fresh,
            "targets of warp {} pc {} depth {}",
            warp,
            pc,
            depth
        );
        prop_assert_eq!(a, b, "walk summary");
    }
    prop_assert_eq!(
        cached.save_state(),
        cold.save_state(),
        "table state after {:?}",
        op
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cached_walks_match_walks_taken_afresh(
        script in prop::collection::vec(script_op(), 1..240),
        entries in prop::sample::select(vec![2usize, 10, 1024]),
        popcount_only in any::<bool>(),
    ) {
        let cfg = TailTableConfig {
            entries,
            eviction: if popcount_only {
                EvictionPolicy::PopcountOnly
            } else {
                EvictionPolicy::LruThenPopcount
            },
        };
        let (mut cached, mut cold) = (TailTable::new(cfg), TailTable::new(cfg));
        let mut positions = HashMap::new();
        let mut trigger = (0, LOOP_PCS[0]);
        for op in script {
            walk_script_step(&mut cached, &mut cold, &mut positions, &mut trigger, op)?;
        }
    }

    #[test]
    fn tail_table_capacity_and_vector_invariants(
        loads in prop::collection::vec(load(), 1..300),
        entries in 1usize..12,
        popcount_only in any::<bool>(),
    ) {
        let cfg = TailTableConfig {
            entries,
            eviction: if popcount_only {
                EvictionPolicy::PopcountOnly
            } else {
                EvictionPolicy::LruThenPopcount
            },
        };
        let mut table = TailTable::new(cfg);
        let mut head = HeadTable::new(8);
        feed(&mut table, &mut head, &loads);

        prop_assert!(table.entries().len() <= entries);
        for e in table.entries() {
            // No duplicate (pc1, pc2, stride) triples.
            let dups = table
                .entries()
                .iter()
                .filter(|o| o.pc1 == e.pc1 && o.pc2 == e.pc2
                    && o.inter_thread_stride == e.inter_thread_stride)
                .count();
            prop_assert_eq!(dups, 1, "duplicate chain entries");
            // A prefetchable entry must have been confirmed by three
            // warps or by in-warp repetition.
            if e.t1.can_prefetch() {
                prop_assert!(e.popcount() >= 1);
            }
        }
        if table.entries().iter().any(|e| e.t1.can_prefetch() || e.t2.can_prefetch())
        {
            prop_assert!(table.any_trained());
        }
    }

    #[test]
    fn generation_is_bounded_and_line_sane(
        loads in prop::collection::vec(load(), 1..300),
        depth in 0usize..20,
        degree in 0u32..4,
    ) {
        let mut table = TailTable::new(TailTableConfig::default());
        let mut head = HeadTable::new(8);
        feed(&mut table, &mut head, &loads);
        let mut out = Vec::new();
        table.generate(WarpId(0), Pc(0), Address(1 << 20), depth, degree, true, &mut out);
        // At most depth chain targets + 1 intra + degree inter-warp.
        prop_assert!(out.len() <= depth + 1 + degree as usize);
        // Targets are deduplicated within the chain walk and never the
        // trigger address itself.
        for t in &out[..out.len().min(depth)] {
            prop_assert_ne!(*t, Address(1 << 20));
        }
    }

    #[test]
    fn head_table_emits_transitions_consistent_with_input(
        loads in prop::collection::vec(load(), 2..100),
    ) {
        let mut head = HeadTable::new(8);
        let mut last: std::collections::HashMap<u32, (u32, u64)> = Default::default();
        for l in &loads {
            let t = head.update(WarpId(l.warp), Pc(l.pc), Address(l.addr));
            match last.insert(l.warp, (l.pc, l.addr)) {
                None => prop_assert!(t.is_none()),
                Some((ppc, paddr)) => {
                    let t = t.expect("transition after first load");
                    prop_assert_eq!(t.prev_pc, Pc(ppc));
                    prop_assert_eq!(t.prev_addr, Address(paddr));
                    prop_assert_eq!(t.cur_pc, Pc(l.pc));
                    prop_assert_eq!(t.stride(), l.addr as i64 - paddr as i64);
                }
            }
        }
    }

    #[test]
    fn snake_never_panics_and_respects_throttle(
        loads in prop::collection::vec(load(), 1..200),
        free in 0u32..64,
        bw in 0.0f64..1.0,
    ) {
        let mut snake = Snake::new(SnakeConfig {
            head_warps: 8,
            ..SnakeConfig::snake()
        });
        let mut out = Vec::new();
        for (i, l) in loads.iter().enumerate() {
            let ctx = PrefetchContext {
                cycle: Cycle(i as u64),
                bw_utilization: bw,
                free_lines: free,
                total_lines: 64,
                prefetch_overrun: free == 0,
                telemetry: false,
            };
            out.clear();
            snake.on_demand_access(
                &AccessEvent {
                    sm: SmId(0),
                    warp: WarpId(l.warp),
                    cta: CtaId(l.warp / 4),
                    pc: Pc(l.pc),
                    addr: Address(l.addr),
                    outcome: AccessOutcome::Miss,
                    cycle: Cycle(i as u64),
                },
                &ctx,
                &mut out,
            );
            if snake.throttled(Cycle(i as u64)) {
                prop_assert!(out.is_empty(), "throttled Snake must not issue");
            }
        }
    }
}
