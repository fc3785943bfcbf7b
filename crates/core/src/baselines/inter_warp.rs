//! Inter-warp stride prefetcher (Lee et al. \[29\], §2): threads
//! prefetch for the corresponding threads of *future warps*, exploiting
//! the fixed per-warp stride of index-based addressing. Its weakness is
//! the timeliness/accuracy trade-off: warps in a CTA schedule close in
//! time, so the prefetch often cannot hide the full memory latency.

use std::collections::HashMap;

use snake_sim::snapshot::SnapshotError;
use snake_sim::{
    AccessEvent, Address, KernelTrace, Pc, PrefetchContext, PrefetchRequest, Prefetcher, WarpId,
};

#[derive(Debug, Clone, Copy)]
struct PcEntry {
    last_warp: WarpId,
    last_addr: Address,
    candidate: Option<i64>,
    /// Saturating confidence in `candidate` (trained at >= 2).
    confidence: u8,
    stamp: u64,
}

snake_sim::state_row!(PcEntry {
    last_warp,
    last_addr,
    candidate,
    confidence,
    stamp,
});

/// Per-PC inter-warp stride table.
#[derive(Debug, Clone)]
pub struct InterWarp {
    table: HashMap<Pc, PcEntry>,
    capacity: usize,
    /// Future warps covered per trigger.
    degree: u32,
    /// Distinct warps required to train (3, as in Snake's rule).
    threshold: u32,
    seq: u64,
}

impl InterWarp {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    pub fn new(capacity: usize, degree: u32, threshold: u32) -> Self {
        assert!(capacity > 0 && degree > 0 && threshold > 0);
        InterWarp {
            table: HashMap::with_capacity(capacity),
            capacity,
            degree,
            threshold,
            seq: 0,
        }
    }

    /// Checks a restored table against the configured capacity.
    fn check_capacity(&mut self) -> Result<(), SnapshotError> {
        if self.table.len() > self.capacity {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} inter-warp entries, capacity is {}",
                self.table.len(),
                self.capacity
            )));
        }
        Ok(())
    }
}

impl Default for InterWarp {
    fn default() -> Self {
        InterWarp::new(64, 2, 3)
    }
}

impl Prefetcher for InterWarp {
    fn name(&self) -> &str {
        "inter-warp"
    }

    fn on_kernel_launch(&mut self, _trace: &KernelTrace) {
        self.table.clear();
        self.seq = 0;
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        _ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.seq += 1;
        let stamp = self.seq;
        if self.table.len() >= self.capacity && !self.table.contains_key(&event.pc) {
            if let Some(&key) = self
                .table
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                self.table.remove(&key);
            }
        }
        let e = self.table.entry(event.pc).or_insert(PcEntry {
            last_warp: event.warp,
            last_addr: event.addr,
            candidate: None,
            confidence: 0,
            stamp,
        });
        e.stamp = stamp;
        if event.warp != e.last_warp {
            let dw = i64::from(event.warp.0) - i64::from(e.last_warp.0);
            let delta = event.addr.stride_from(e.last_addr);
            if delta % dw == 0 {
                let per_warp = delta / dw;
                if e.candidate == Some(per_warp) {
                    e.confidence = (e.confidence + 1).min(3);
                } else if e.confidence <= 1 {
                    // Low confidence: adopt the new candidate. (Loop
                    // wrap-around pairs produce transient mismatches;
                    // confidence absorbs them without losing training.)
                    e.candidate = Some(per_warp);
                    e.confidence = 1;
                } else {
                    e.confidence -= 1;
                }
            }
            e.last_warp = event.warp;
            e.last_addr = event.addr;
        }
        // Trained once (threshold - 1) consecutive distinct-warp pairs
        // agreed; `threshold` warps total, matching Snake's 3-warp rule.
        if e.confidence >= (self.threshold - 1) as u8 {
            if let Some(s) = e.candidate {
                for k in 1..=i64::from(self.degree) {
                    out.push(PrefetchRequest::new(event.addr.offset(s * k)));
                }
            }
        }
    }
}

// The table, as `[pc, entry..]` rows sorted by PC, and the stamp
// sequence; capacity, degree and threshold are configuration.
snake_sim::restore_fields!(InterWarp { table, seq } then check_capacity);

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{AccessOutcome, CtaId, Cycle, SmId};

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
    fn trains_on_three_consistent_warps() {
        let mut p = InterWarp::default();
        let mut out = Vec::new();
        for w in 0..3u32 {
            out.clear();
            p.on_demand_access(&ev(w, 1, 4096 * u64::from(w)), &ctx(), &mut out);
        }
        // Third warp trains and prefetches for warps 3 and 4.
        assert_eq!(
            out,
            vec![
                PrefetchRequest::new(Address(3 * 4096)),
                PrefetchRequest::new(Address(4 * 4096)),
            ]
        );
    }

    #[test]
    fn irregular_warp_addresses_never_train() {
        let mut p = InterWarp::default();
        let mut out = Vec::new();
        for (w, a) in [(0u32, 0u64), (1, 4096), (2, 5000), (3, 12345)] {
            p.on_demand_access(&ev(w, 1, a), &ctx(), &mut out);
        }
        assert!(out.is_empty());
    }

    #[test]
    fn nonadjacent_warps_use_per_warp_stride() {
        let mut p = InterWarp::default();
        let mut out = Vec::new();
        // Warps 0, 2, 4: addresses w*1024; per-warp stride 1024.
        for w in [0u32, 2, 4] {
            out.clear();
            p.on_demand_access(&ev(w, 1, 1024 * u64::from(w)), &ctx(), &mut out);
        }
        assert_eq!(out[0], PrefetchRequest::new(Address(5 * 1024)));
    }

    #[test]
    fn capacity_bound_holds() {
        let mut p = InterWarp::new(4, 1, 3);
        let mut out = Vec::new();
        for pc in 0..10u32 {
            p.on_demand_access(&ev(0, pc, 0), &ctx(), &mut out);
        }
        assert!(p.table.len() <= 4);
    }
}
