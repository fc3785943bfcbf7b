//! Property-based tests for the simulator's core data structures:
//! tag array occupancy invariants and line index, MSHR merge bounds,
//! and interconnect conservation/ordering.

use proptest::prelude::*;
use snake_sim::cache::mshr::{MergeResult, MissOrigin, MshrFile};
use snake_sim::cache::tag_array::{LineState, Side, TagArray};
use snake_sim::mem::interconnect::{Interconnect, UpPacket};
use snake_sim::snapshot::Restore;
use snake_sim::{Cycle, LineAddr, SmId, WarpId};

#[derive(Debug, Clone)]
enum TagOp {
    /// Reserve a line (if space allows), filling it at once if `fill`.
    Install {
        key: u64,
        prefetch: bool,
        fill: bool,
    },
    /// Fill a line if it is reserved.
    Fill { key: u64 },
    /// Touch a line if present.
    Touch { key: u64 },
    /// Evict a line if it is valid.
    Evict { key: u64 },
    /// Transfer a prefetch-side line to the demand side if present.
    Transfer { key: u64 },
    /// Bulk-evict the `count` LRU valid lines of one side.
    BulkEvict { prefetch: bool, count: u32 },
    /// Checkpoint every line and restore into a fresh array.
    SaveRestore,
}

/// Ops address lines `key * stride` for keys below this.
const KEYS: u64 = 64;

fn tag_op() -> impl Strategy<Value = TagOp> {
    prop_oneof![
        3 => (0..KEYS, any::<bool>(), 0u8..4).prop_map(|(key, prefetch, f)| TagOp::Install {
            key,
            prefetch,
            fill: f != 0,
        }),
        1 => (0..KEYS).prop_map(|key| TagOp::Fill { key }),
        1 => (0..KEYS).prop_map(|key| TagOp::Touch { key }),
        1 => (0..KEYS).prop_map(|key| TagOp::Evict { key }),
        1 => (0..KEYS).prop_map(|key| TagOp::Transfer { key }),
        1 => (any::<bool>(), 0u32..8).prop_map(|(prefetch, count)| TagOp::BulkEvict {
            prefetch,
            count,
        }),
        1 => Just(TagOp::SaveRestore),
    ]
}

fn side(prefetch: bool) -> Side {
    if prefetch {
        Side::Prefetch
    } else {
        Side::Demand
    }
}

/// The oracle for `probe`: a linear scan of `addr`'s set, as an index
/// into `t.lines()`.
fn scan(t: &TagArray, ways: u32, addr: LineAddr) -> Option<usize> {
    let sets = u64::from(t.capacity() / ways);
    let first = (addr.0 % sets) as usize * ways as usize;
    (first..first + ways as usize).find(|&i| {
        let l = &t.lines()[i];
        l.state != LineState::Invalid && l.tag == addr
    })
}

/// `probe`'s answer as an index into `t.lines()`.
fn probed(t: &TagArray, addr: LineAddr) -> Option<usize> {
    let way = t.probe(addr)?;
    t.lines().iter().position(|l| std::ptr::eq(l, t.line(way)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tag_array_occupancy_invariants(
        // (lines, ways): a small L1, the 1-set side buffer, the V100 L1.
        shape in prop::sample::select(vec![(16u32, 4u32), (32, 32), (1024, 256)]),
        // A stride that is a multiple of every set count puts every key
        // in set 0, and its lines differ only in high bits.
        stride in prop::sample::select(vec![1u64, 3, 1 << 40]),
        ops in prop::collection::vec(tag_op(), 1..200),
    ) {
        let (lines, ways) = shape;
        let mut t = TagArray::new(lines, ways);
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            let now = Cycle(clock);
            let at = |key: u64| LineAddr(key * stride);
            match op {
                TagOp::Install { key, prefetch, fill } => {
                    let a = at(key);
                    if t.probe(a).is_none() {
                        if let Some(w) = t.find_victim(a, |_| true) {
                            if t.line(w).state == LineState::Valid {
                                t.evict(w);
                            }
                            t.reserve(w, a, side(prefetch), now);
                            if fill {
                                t.fill(w, now);
                            }
                        }
                    }
                }
                TagOp::Fill { key } => {
                    if let Some(w) = t.probe(at(key)) {
                        if t.line(w).state == LineState::Reserved {
                            t.fill(w, now);
                        }
                    }
                }
                TagOp::Touch { key } => {
                    if let Some(w) = t.probe(at(key)) {
                        t.touch(w, now);
                    }
                }
                TagOp::Evict { key } => {
                    if let Some(w) = t.probe(at(key)) {
                        if t.line(w).state == LineState::Valid {
                            t.evict(w);
                        }
                    }
                }
                TagOp::Transfer { key } => {
                    if let Some(w) = t.probe(at(key)) {
                        let l = *t.line(w);
                        if l.state == LineState::Valid && l.side == Side::Prefetch {
                            t.transfer_to_demand(w, now);
                        }
                    }
                }
                TagOp::BulkEvict { prefetch, count } => {
                    let evicted = t.bulk_evict_lru(side(prefetch), count);
                    prop_assert!(evicted.len() <= count as usize);
                }
                TagOp::SaveRestore => {
                    let saved = t.save_state();
                    let mut fresh = TagArray::new(lines, ways);
                    prop_assert!(fresh.restore_state(&saved).is_ok());
                    prop_assert_eq!(fresh.save_state(), saved);
                    t = fresh;
                }
            }
            // Invariants after every operation.
            let occupied = t.capacity() - t.free_lines();
            prop_assert!(occupied <= t.capacity());
            prop_assert_eq!(t.demand_lines() + t.prefetch_lines() + t.reserved_lines(), occupied);
            let valid = || t.lines().iter().filter(|l| l.state == LineState::Valid);
            prop_assert_eq!(valid().count() as u32, t.demand_lines() + t.prefetch_lines());
            prop_assert_eq!(
                valid().filter(|l| l.side == Side::Prefetch).count() as u32,
                t.prefetch_lines()
            );
            prop_assert_eq!(t.audit_invariants(), Vec::<String>::new());
            for key in 0..KEYS {
                let a = at(key);
                prop_assert_eq!(probed(&t, a), scan(&t, ways, a), "line {:#x}", a.0);
            }
        }
    }

    #[test]
    fn tag_array_probe_finds_installed_lines(addrs in prop::collection::vec(0u64..32, 1..16)) {
        let mut t = TagArray::new(32, 8);
        let mut installed = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let a = LineAddr(*addr);
            if t.probe(a).is_some() {
                continue;
            }
            if let Some(w) = t.find_victim(a, |_| true) {
                if t.line(w).state == LineState::Valid {
                    let evicted = t.evict(w);
                    installed.retain(|x| *x != evicted.tag);
                }
                t.reserve(w, a, Side::Demand, Cycle(i as u64));
                t.fill(w, Cycle(i as u64));
                installed.push(a);
            }
        }
        for a in installed {
            prop_assert!(t.probe(a).is_some(), "installed line {a} must be found");
        }
    }

    #[test]
    fn mshr_never_exceeds_capacity_or_merge_bound(
        lines in prop::collection::vec(0u64..8, 1..100),
        entries in 1u32..8,
        merge in 1u32..8,
    ) {
        let mut m = MshrFile::new(entries, merge);
        let mut outstanding: Vec<u64> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let a = LineAddr(*line);
            if m.get(a).is_some() {
                match m.merge_demand(a, WarpId(i as u32)) {
                    MergeResult::Merged { .. } => {
                        prop_assert!(m.get(a).unwrap().requests <= merge);
                    }
                    MergeResult::Full => {
                        prop_assert_eq!(m.get(a).unwrap().requests, merge);
                    }
                }
            } else if m.has_free_entry() {
                m.allocate(a, MissOrigin::Demand, Some(WarpId(i as u32)), Cycle(i as u64));
                outstanding.push(*line);
            }
            prop_assert!(m.len() <= entries as usize);
        }
        // Completing everything empties the file.
        outstanding.sort_unstable();
        outstanding.dedup();
        for line in outstanding {
            let e = m.complete(LineAddr(line));
            prop_assert!(e.requests >= 1);
            prop_assert!(e.waiters.len() as u32 <= merge);
        }
        prop_assert!(m.is_empty());
    }

    #[test]
    fn interconnect_conserves_and_orders_packets(
        sizes in prop::collection::vec(1u64..200, 1..64),
        budget in 16u32..256,
        latency in 1u32..16,
    ) {
        let mut n = Interconnect::new(budget, latency, 64);
        let mut sent = Vec::new();
        let mut received = Vec::new();
        let mut cycle = 0u64;
        let mut queue: Vec<(u64, u64)> = sizes.iter().enumerate()
            .map(|(i, s)| (i as u64, *s)).collect();
        queue.reverse();
        let mut bytes_sent = 0u64;
        while received.len() < sizes.len() {
            n.begin_cycle(Cycle(cycle));
            while let Some(&(id, bytes)) = queue.last() {
                let pkt = UpPacket { sm: SmId(0), line: LineAddr(id), is_store: false };
                if n.try_send_up(pkt, bytes, Cycle(cycle)) {
                    queue.pop();
                    sent.push(id);
                    bytes_sent += bytes;
                } else {
                    break;
                }
            }
            while let Some(p) = n.pop_up(Cycle(cycle)) {
                received.push(p.line.0);
            }
            cycle += 1;
            prop_assert!(cycle < 1_000_000, "must drain");
        }
        prop_assert_eq!(&received, &sent, "FIFO order, no loss");
        prop_assert_eq!(n.total_bytes_up(), bytes_sent);
        prop_assert!(n.is_idle());
        // Token-bucket borrowing allows short-run overshoot, so
        // lifetime utilization is only meaningful on long runs; it must
        // simply be finite and non-negative here.
        prop_assert!(n.lifetime_utilization() >= 0.0);
    }
}
