//! Forward-progress watchdog and structured deadlock reporting.
//!
//! The simulator's quiescence check (`all SMs done && memory system
//! drained`) assumes every outstanding miss eventually produces a
//! fill. A lost response — an injected fault, or simply a simulator
//! bug — breaks that assumption and turns `Gpu::run` into an infinite
//! loop (or a multi-minute crawl to `max_cycles`). The [`Watchdog`]
//! counts consecutive cycles in which *nothing* moved: no instruction
//! issued, no fill delivered, no packet entered or left the
//! interconnect, no event inside the memory partition. Past the
//! threshold the run stops with
//! [`StopReason::Deadlock`](crate::StopReason::Deadlock) carrying a
//! [`DeadlockReport`]: who is blocked, on what, and where every
//! in-flight request was parked.

use crate::types::{CtaId, Cycle, SmId};

pub use crate::mem::partition::PartitionCensus;

/// Tracks forward progress across cycles.
#[derive(Debug, Clone)]
pub struct Watchdog {
    threshold: u64,
    last_progress: Cycle,
}

impl Watchdog {
    /// Creates a watchdog that trips after `threshold` consecutive
    /// cycles without progress.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero.
    pub fn new(threshold: u64) -> Self {
        assert!(threshold > 0, "a zero threshold would trip immediately");
        Watchdog {
            threshold,
            last_progress: Cycle::ZERO,
        }
    }

    /// Records one cycle's outcome. Returns `true` when the stall has
    /// reached the threshold and the device should stop.
    pub fn observe(&mut self, progressed: bool, now: Cycle) -> bool {
        if progressed {
            self.last_progress = now;
            return false;
        }
        now.since(self.last_progress) >= self.threshold
    }

    /// The cycle count at which a run with no further progress trips.
    pub(crate) fn trips_at(&self) -> Cycle {
        Cycle(self.last_progress.0.saturating_add(self.threshold))
    }

    /// Cycles since the last observed progress.
    pub fn stalled_for(&self, now: Cycle) -> u64 {
        now.since(self.last_progress)
    }
}

// The progress counter; the threshold is config-derived.
crate::restore_fields!(Watchdog { last_progress });
crate::snapshot::restore_in_place!(Option<Watchdog>);

/// Why one resident warp cannot proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarpBlock {
    /// Issuable — not blocked (present in reports for completeness
    /// when *other* warps wedge the SM).
    Ready,
    /// Absorbing compute/hit latency until the given cycle.
    Busy(Cycle),
    /// Waiting for outstanding memory responses.
    Waiting,
}

/// One resident warp's state at deadlock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WarpCensus {
    /// CTA the warp belongs to.
    pub cta: CtaId,
    /// Index of the warp's trace in the kernel.
    pub trace_idx: usize,
    /// Next instruction index (how far it got).
    pub next: usize,
    /// Why it is blocked.
    pub block: WarpBlock,
    /// Memory responses it is still owed.
    pub outstanding: u32,
    /// Transactions rejected by the L1 and awaiting retry.
    pub pending_txns: usize,
}

/// One SM's state at deadlock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmCensus {
    /// The SM.
    pub sm: SmId,
    /// Outstanding MSHR entries.
    pub mshr_entries: usize,
    /// MSHR capacity (occupancy context).
    pub mshr_capacity: usize,
    /// Cache lines reserved for in-flight misses.
    pub reserved_lines: u32,
    /// Requests stuck in the miss queue.
    pub miss_queue: usize,
    /// CTAs never launched.
    pub queued_ctas: usize,
    /// Resident warps.
    pub warps: Vec<WarpCensus>,
}

/// Interconnect occupancy at deadlock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NocCensus {
    /// Requests in flight L1→L2.
    pub in_flight_up: usize,
    /// Responses in flight L2→L1.
    pub in_flight_down: usize,
}

/// Everything the watchdog could see when it tripped.
///
/// Carried inside [`StopReason::Deadlock`](crate::StopReason::Deadlock)
/// (boxed: it is much larger than the other variants). The `Display`
/// impl renders a human-readable dump for logs and panics.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadlockReport {
    /// Cycle the watchdog stopped the device.
    pub cycle: u64,
    /// Consecutive cycles without any observed progress.
    pub stalled_for: u64,
    /// Per-SM state: blocked warps, MSHR occupancy, reserved lines.
    pub sms: Vec<SmCensus>,
    /// Packets in flight on the interconnect.
    pub noc: NocCensus,
    /// Memory-partition queue occupancy.
    pub partition: PartitionCensus,
}

impl DeadlockReport {
    /// Warps blocked on memory across all SMs.
    pub fn waiting_warps(&self) -> usize {
        self.sms
            .iter()
            .flat_map(|s| &s.warps)
            .filter(|w| w.block == WarpBlock::Waiting || w.pending_txns > 0)
            .count()
    }

    /// Outstanding MSHR entries across all SMs.
    pub fn total_mshr_entries(&self) -> usize {
        self.sms.iter().map(|s| s.mshr_entries).sum()
    }
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deadlock at cycle {} after {} cycles without progress",
            self.cycle, self.stalled_for
        )?;
        writeln!(
            f,
            "  noc: {} up / {} down in flight",
            self.noc.in_flight_up, self.noc.in_flight_down
        )?;
        let p = &self.partition;
        writeln!(
            f,
            "  partition: incoming {} | hit pipe {} | dram queue {} | dram pipe {} \
             | merged {} | outbox {} | fault-delayed {}",
            p.incoming,
            p.hit_pipe,
            p.dram_queue,
            p.dram_pipe,
            p.merged_readers,
            p.outbox,
            p.fault_delayed
        )?;
        for sm in &self.sms {
            writeln!(
                f,
                "  sm {}: mshr {}/{} | reserved lines {} | miss queue {} | queued CTAs {}",
                sm.sm.0,
                sm.mshr_entries,
                sm.mshr_capacity,
                sm.reserved_lines,
                sm.miss_queue,
                sm.queued_ctas
            )?;
            for w in &sm.warps {
                writeln!(
                    f,
                    "    warp trace {} ({}): {:?}, instr {}, {} outstanding, {} pending",
                    w.trace_idx, w.cta, w.block, w.next, w.outstanding, w.pending_txns
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_trips_only_after_threshold_quiet_cycles() {
        let mut w = Watchdog::new(3);
        assert!(!w.observe(true, Cycle(0)));
        assert_eq!(w.trips_at(), Cycle(3));
        assert!(!w.observe(false, Cycle(1)));
        assert!(!w.observe(false, Cycle(2)));
        assert!(w.observe(false, Cycle(3)), "3 quiet cycles = threshold");
    }

    #[test]
    fn progress_resets_the_count() {
        let mut w = Watchdog::new(3);
        assert!(!w.observe(false, Cycle(1)));
        assert!(!w.observe(false, Cycle(2)));
        assert!(!w.observe(true, Cycle(3)));
        assert!(!w.observe(false, Cycle(4)));
        assert!(!w.observe(false, Cycle(5)));
        assert_eq!(w.stalled_for(Cycle(5)), 2);
        assert!(w.observe(false, Cycle(6)));
    }

    #[test]
    #[should_panic(expected = "zero threshold")]
    fn zero_threshold_rejected() {
        let _ = Watchdog::new(0);
    }

    #[test]
    fn report_rollups_and_display() {
        let report = DeadlockReport {
            cycle: 1234,
            stalled_for: 500,
            sms: vec![SmCensus {
                sm: SmId(0),
                mshr_entries: 2,
                mshr_capacity: 128,
                reserved_lines: 2,
                miss_queue: 0,
                queued_ctas: 0,
                warps: vec![
                    WarpCensus {
                        cta: CtaId(0),
                        trace_idx: 0,
                        next: 3,
                        block: WarpBlock::Waiting,
                        outstanding: 1,
                        pending_txns: 0,
                    },
                    WarpCensus {
                        cta: CtaId(0),
                        trace_idx: 1,
                        next: 0,
                        block: WarpBlock::Ready,
                        outstanding: 0,
                        pending_txns: 2,
                    },
                ],
            }],
            noc: NocCensus::default(),
            partition: PartitionCensus::default(),
        };
        assert_eq!(report.waiting_warps(), 2);
        assert_eq!(report.total_mshr_entries(), 2);
        let text = report.to_string();
        assert!(text.contains("deadlock at cycle 1234"));
        assert!(text.contains("mshr 2/128"));
        assert!(text.contains("Waiting"));
    }
}
