//! Invariant auditor: conservation-law checks over the whole device.
//!
//! Enabled by [`GpuConfig::audit_window`](crate::GpuConfig): every
//! window the auditor verifies the structural invariants the rest of
//! the simulator silently relies on, and panics with a precise
//! description the moment one breaks — *at the cycle it breaks*, not
//! thousands of cycles later when a stat goes negative or a warp
//! never retires. Building with the `audit` cargo feature turns the
//! window on by default in both config constructors.
//!
//! Checked each window:
//!
//! * **L1 conservation** (per SM, see
//!   [`UnifiedL1::audit_invariants`](crate::cache::unified_l1::UnifiedL1::audit_invariants)):
//!   MSHR occupancy within capacity, miss queue within depth, a 1:1
//!   correspondence between MSHR entries and reserved cache lines, and
//!   free/demand/prefetch/reserved line counts summing to capacity.
//! * **Warp-state masks** (per SM, see
//!   [`Sm::audit_invariants`](crate::Sm::audit_invariants)): the
//!   front end's per-slot bitmasks, resident-warp count and next
//!   busy-warp wake-up all equal what the warp slots themselves say.
//! * **Stats monotonicity**: every cumulative counter is
//!   non-decreasing between windows (a decrease means double-counting
//!   or underflow somewhere).
//! * **End of run** (on completion): the MSHRs, miss queues,
//!   interconnect, and partition have all drained — every reservation
//!   was eventually filled.

use crate::stats::{SimStats, STALL_BUCKETS};

/// Cross-window auditor state (previous stats snapshot).
#[derive(Debug, Clone, Default)]
pub struct Auditor {
    prev: Option<SimStats>,
}

/// The cumulative counters that must never decrease, with names for
/// the violation message. The eight stall buckets are checked beside
/// them, named `stall.<field>` after [`STALL_BUCKETS`].
fn monotone_counters(s: &SimStats) -> [(&'static str, u64); 17] {
    [
        ("cycles", s.cycles),
        ("instructions", s.instructions),
        ("demand_loads", s.demand_loads),
        ("stores", s.stores),
        ("all_stall_cycles", s.all_stall_cycles),
        ("all_stall_mem_cycles", s.all_stall_mem_cycles),
        ("stall.scheduler_cycles", s.stall.scheduler_cycles),
        ("l1.hits", s.l1.hits),
        ("l1.misses", s.l1.misses),
        ("l1.evictions", s.l1.evictions),
        ("l2_hits", s.l2_hits),
        ("l2_misses", s.l2_misses),
        ("noc_bytes_up", s.noc_bytes_up),
        ("noc_bytes_down", s.noc_bytes_down),
        ("prefetch.issued", s.prefetch.issued),
        ("prefetch.fills", s.prefetch.fills),
        ("fault.reissued_requests", s.fault.reissued_requests),
    ]
}

impl Auditor {
    /// Creates an auditor with no history.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Checks stats monotonicity against the previous window's
    /// snapshot and records the new one. Returns violations.
    pub fn check_stats(&mut self, current: &SimStats) -> Vec<String> {
        let mut violations = Vec::new();
        if let Some(prev) = &self.prev {
            let mut check = |name: &dyn std::fmt::Display, before: u64, now: u64| {
                if now < before {
                    violations.push(format!("counter {name} went backwards: {before} -> {now}"));
                }
            };
            for ((name, now), (_, before)) in monotone_counters(current)
                .iter()
                .zip(monotone_counters(prev).iter())
            {
                check(name, *before, *now);
            }
            let buckets = STALL_BUCKETS.iter().zip(current.stall.counts());
            for ((bucket, now), before) in buckets.zip(prev.stall.counts()) {
                check(&format_args!("stall.{}", bucket.field), before, now);
            }
        }
        if !current.stall.is_exact() {
            violations.push(format!(
                "stall taxonomy not exact: buckets sum to {}, scheduler cycles {}",
                current.stall.total(),
                current.stall.scheduler_cycles
            ));
        }
        self.prev = Some(*current);
        violations
    }
}

/// End-of-run drain obligations: each argument is a residue that must
/// be zero (or idle) once the device reports completion.
pub(crate) fn check_drained(
    outstanding_misses: usize,
    reserved_lines: u32,
    miss_queue: usize,
    noc_in_flight: usize,
    partition_idle: bool,
) -> Vec<String> {
    let mut v = Vec::new();
    if outstanding_misses != 0 {
        v.push(format!(
            "{outstanding_misses} MSHR entries never completed after quiescence"
        ));
    }
    if reserved_lines != 0 {
        v.push(format!(
            "{reserved_lines} reserved lines never filled after quiescence"
        ));
    }
    if miss_queue != 0 {
        v.push(format!("{miss_queue} requests stuck in a miss queue"));
    }
    if noc_in_flight != 0 {
        v.push(format!("{noc_in_flight} packets stuck on the interconnect"));
    }
    if !partition_idle {
        v.push("memory partition not idle after quiescence".to_string());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_window_never_violates() {
        let mut a = Auditor::new();
        assert!(a.check_stats(&SimStats::default()).is_empty());
    }

    #[test]
    fn monotone_growth_is_clean() {
        let mut a = Auditor::new();
        let mut s = SimStats::default();
        for i in 0..10 {
            s.cycles = i * 100;
            s.instructions = i * 42;
            s.l1.hits = i * 7;
            assert!(a.check_stats(&s).is_empty(), "window {i}");
        }
    }

    #[test]
    fn backwards_counter_is_flagged() {
        let mut a = Auditor::new();
        let mut s = SimStats {
            instructions: 100,
            ..SimStats::default()
        };
        assert!(a.check_stats(&s).is_empty());
        s.instructions = 50;
        let v = a.check_stats(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("instructions"));
        assert!(v[0].contains("100 -> 50"));
        // A stall bucket is named by its field.
        s.stall.mem_struct_noc = 9;
        assert!(a.check_stats(&s).iter().any(|m| m.contains("not exact")));
        s.stall.mem_struct_noc = 2;
        let v = a.check_stats(&s);
        assert_eq!(v[0], "counter stall.mem_struct_noc went backwards: 9 -> 2");
    }

    #[test]
    fn inexact_stall_partition_is_flagged() {
        let mut a = Auditor::new();
        let mut s = SimStats::default();
        s.stall.issued = 3;
        s.stall.scheduler_cycles = 4;
        let v = a.check_stats(&s);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("not exact"));
        assert!(v[0].contains("3"));
        // Closing the gap clears the violation.
        s.stall.mem_data = 1;
        assert!(a.check_stats(&s).is_empty());
    }

    #[test]
    fn drain_check_reports_every_residue() {
        assert!(check_drained(0, 0, 0, 0, true).is_empty());
        let v = check_drained(3, 2, 1, 4, false);
        assert_eq!(v.len(), 5);
        assert!(v[0].contains("3 MSHR entries"));
        assert!(v[4].contains("partition"));
    }
}
