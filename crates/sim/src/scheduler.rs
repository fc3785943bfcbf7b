//! Warp schedulers.
//!
//! Each SM has `schedulers_per_sm` schedulers; resident warp slots are
//! statically partitioned among them by `slot % schedulers` (as on real
//! NVIDIA SMs). The paper's baseline is Greedy-Then-Oldest (GTO) —
//! notably, GTO's greediness is why Snake's Head table doubles its
//! warp-id/base-address columns (§3.1, §5.5).

use crate::config::SchedulerPolicy;
use crate::warp::bits;

/// The slots of an `n`-slot SM owned by scheduler `offset` of `stride`
/// (`slot_idx % stride == offset`), as a mask.
pub(crate) fn partition_mask(n: usize, offset: usize, stride: usize) -> u64 {
    (offset..n).step_by(stride).fold(0, |m, i| m | 1 << i)
}

/// Per-scheduler pick state.
#[derive(Debug, Clone, Default)]
pub struct Scheduler {
    policy: SchedulerPolicy,
    /// GTO: the warp currently issued greedily. LRR: last issued warp.
    current: Option<usize>,
}

impl Scheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: SchedulerPolicy) -> Self {
        Scheduler {
            policy,
            current: None,
        }
    }

    /// Picks a slot index to issue from. `ready` holds this scheduler's
    /// issuable slots: the SM's ready mask restricted to
    /// [`partition_mask`]`(ages.len(), offset, stride)`, the slots with
    /// `slot_idx % stride == offset`. `ages` holds the launch age of
    /// each of the SM's slots (the SM's `WarpMasks::age`, smaller is
    /// older), one per slot: GTO takes the oldest ready warp from it
    /// without reading a slot.
    pub fn pick(
        &mut self,
        ready: u64,
        ages: &[u64],
        offset: usize,
        stride: usize,
    ) -> Option<usize> {
        match self.policy {
            SchedulerPolicy::GreedyThenOldest => {
                if let Some(cur) = self.current {
                    if cur < ages.len() && ready & 1 << cur != 0 {
                        return Some(cur);
                    }
                }
                let pick = bits(ready).min_by_key(|&i| ages[i]);
                self.current = pick;
                pick
            }
            SchedulerPolicy::LooseRoundRobin => {
                let n = ages.len();
                if n == 0 {
                    return None;
                }
                let start = self.current.map_or(offset, |c| c + stride);
                // Walk this scheduler's slots once, wrapping: the lowest
                // ready slot at or after `start`, else the lowest overall.
                let after = ready & (!0u64 << (start % n));
                let pick = [after, ready]
                    .into_iter()
                    .find(|&m| m != 0)
                    .map(|m| m.trailing_zeros() as usize);
                if pick.is_some() {
                    self.current = pick;
                }
                pick
            }
        }
    }

    /// Forgets the greedy warp (e.g. when its slot is recycled).
    pub fn invalidate(&mut self, slot: usize) {
        if self.current == Some(slot) {
            self.current = None;
        }
    }
}

// The pick state; the policy is config-derived.
crate::restore_fields!(Scheduler { current });
crate::snapshot::restore_in_place!(Vec<Scheduler>);

#[cfg(test)]
mod tests {
    use super::*;

    /// A warp of age `age` and its readiness.
    type Slot = (u64, bool);

    /// Picks the way the SM does: from the ready mask of `offset`'s
    /// partition and the slots' ages.
    fn pick(s: &mut Scheduler, slots: &[Slot], offset: usize, stride: usize) -> Option<usize> {
        let ready = slots
            .iter()
            .enumerate()
            .filter(|(_, &(_, ready))| ready)
            .fold(0, |m, (i, _)| m | 1 << i)
            & partition_mask(slots.len(), offset, stride);
        let ages: Vec<u64> = slots.iter().map(|&(age, _)| age).collect();
        s.pick(ready, &ages, offset, stride)
    }

    fn slot(age: u64, ready: bool) -> Slot {
        (age, ready)
    }

    #[test]
    fn gto_sticks_to_current_warp() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(5, true), slot(1, true), slot(2, true)];
        // First pick: oldest (seq 1) = slot 1.
        assert_eq!(pick(&mut s, &slots, 0, 1), Some(1));
        // Stays greedy on slot 1 even though slot 2 is also ready.
        assert_eq!(pick(&mut s, &slots, 0, 1), Some(1));
    }

    #[test]
    fn gto_falls_back_to_oldest_when_current_stalls() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let mut slots = vec![slot(5, true), slot(1, true), slot(2, true)];
        assert_eq!(pick(&mut s, &slots, 0, 1), Some(1));
        slots[1].1 = false;
        // Oldest ready is seq 2 = slot 2.
        assert_eq!(pick(&mut s, &slots, 0, 1), Some(2));
    }

    #[test]
    fn gto_respects_scheduler_partition() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(0, true), slot(1, true), slot(2, true), slot(3, true)];
        // Scheduler 1 of 2 only sees odd slots.
        assert_eq!(pick(&mut s, &slots, 1, 2), Some(1));
    }

    #[test]
    fn gto_returns_none_when_nothing_ready() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(0, false), slot(1, false)];
        assert_eq!(pick(&mut s, &slots, 0, 1), None);
    }

    #[test]
    fn lrr_rotates() {
        let mut s = Scheduler::new(SchedulerPolicy::LooseRoundRobin);
        let slots = vec![slot(0, true), slot(1, true), slot(2, true)];
        let a = pick(&mut s, &slots, 0, 1).unwrap();
        let b = pick(&mut s, &slots, 0, 1).unwrap();
        let c = pick(&mut s, &slots, 0, 1).unwrap();
        let mut seen = vec![a, b, c];
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2], "all warps get a turn");
    }

    #[test]
    fn invalidate_clears_greedy_warp() {
        let mut s = Scheduler::new(SchedulerPolicy::GreedyThenOldest);
        let slots = vec![slot(0, true), slot(1, true)];
        let first = pick(&mut s, &slots, 0, 1).unwrap();
        s.invalidate(first);
        assert_eq!(s.current, None);
    }
}
