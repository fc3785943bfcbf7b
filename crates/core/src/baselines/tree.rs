//! Spatial chunk prefetcher (Ganguly et al. \[15\], adapted to the GPU
//! context as in §4: "considers 64KB chunks of the global memory and
//! prefetches them to the L1 data cache"). On demand misses it streams
//! the following lines of the surrounding chunk — aggressive, high
//! traffic, and inaccurate on irregular applications, which is exactly
//! the behaviour the paper contrasts Snake against.

use snake_sim::snapshot::SnapshotError;
use snake_sim::{
    AccessEvent, AccessOutcome, Address, KernelTrace, PrefetchContext, PrefetchRequest, Prefetcher,
};

/// The chunk-based spatial prefetcher.
#[derive(Debug, Clone)]
pub struct Tree {
    /// Chunk size in bytes (64 KiB in the paper's adaptation).
    chunk_bytes: u64,
    /// Line size used to pace sequential prefetches.
    line_bytes: u64,
    /// Lines prefetched ahead per trigger.
    degree: u32,
    /// Each tracked chunk with its high-water mark, so the same lines
    /// are not re-requested, oldest first (bounded, FIFO replacement).
    chunks: Vec<(u64, u64)>,
    capacity: usize,
}

impl Tree {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the chunk is not a multiple of the line size or any
    /// parameter is zero.
    pub fn new(chunk_bytes: u64, line_bytes: u64, degree: u32, capacity: usize) -> Self {
        assert!(chunk_bytes > 0 && line_bytes > 0 && degree > 0 && capacity > 0);
        assert_eq!(chunk_bytes % line_bytes, 0);
        Tree {
            chunk_bytes,
            line_bytes,
            degree,
            chunks: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Checks restored chunks against the configured capacity.
    fn check_capacity(&mut self) -> Result<(), SnapshotError> {
        if self.chunks.len() > self.capacity {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} chunks, capacity is {}",
                self.chunks.len(),
                self.capacity
            )));
        }
        Ok(())
    }
}

impl Default for Tree {
    fn default() -> Self {
        Tree::new(64 * 1024, 128, 4, 64)
    }
}

impl Prefetcher for Tree {
    fn name(&self) -> &str {
        "tree"
    }

    fn on_kernel_launch(&mut self, _trace: &KernelTrace) {
        self.chunks.clear();
    }

    fn on_demand_access(
        &mut self,
        event: &AccessEvent,
        _ctx: &PrefetchContext,
        out: &mut Vec<PrefetchRequest>,
    ) {
        if event.outcome == AccessOutcome::Hit {
            return; // stream on misses and prefetch hits only
        }
        let chunk = event.addr.raw() / self.chunk_bytes;
        let chunk_end = (chunk + 1) * self.chunk_bytes;
        let idx = match self.chunks.iter().position(|&(c, _)| c == chunk) {
            Some(idx) => idx,
            None => {
                if self.chunks.len() >= self.capacity {
                    self.chunks.remove(0);
                }
                self.chunks.push((chunk, event.addr.raw()));
                self.chunks.len() - 1
            }
        };
        let frontier = &mut self.chunks[idx].1;
        // Advance the frontier from max(current access, old frontier).
        let mut next =
            (*frontier).max(event.addr.raw()) / self.line_bytes * self.line_bytes + self.line_bytes;
        for _ in 0..self.degree {
            if next >= chunk_end {
                break;
            }
            out.push(PrefetchRequest::new(Address(next)));
            next += self.line_bytes;
        }
        *frontier = next.saturating_sub(self.line_bytes);
    }
}

// The tracked chunks as `[chunk, frontier]` rows, oldest first; chunk
// size, line size, degree and capacity are configuration.
snake_sim::restore_fields!(Tree { chunks } then check_capacity);

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::{CtaId, Cycle, Pc, SmId, WarpId};

    fn ev(addr: u64, outcome: AccessOutcome) -> AccessEvent {
        AccessEvent {
            sm: SmId(0),
            warp: WarpId(0),
            cta: CtaId(0),
            pc: Pc(0),
            addr: Address(addr),
            outcome,
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
    fn miss_streams_following_lines() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, AccessOutcome::Miss), &ctx(), &mut out);
        assert_eq!(
            out.iter().map(|r| r.addr.0).collect::<Vec<_>>(),
            vec![128, 256, 384, 512]
        );
    }

    #[test]
    fn frontier_advances_without_rerequesting() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, AccessOutcome::Miss), &ctx(), &mut out);
        out.clear();
        p.on_demand_access(&ev(128, AccessOutcome::Miss), &ctx(), &mut out);
        assert_eq!(
            out.iter().map(|r| r.addr.0).collect::<Vec<_>>(),
            vec![640, 768, 896, 1024],
            "continues past the old frontier"
        );
    }

    #[test]
    fn stops_at_chunk_boundary() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        let near_end = 64 * 1024 - 256;
        p.on_demand_access(&ev(near_end, AccessOutcome::Miss), &ctx(), &mut out);
        assert_eq!(
            out.iter().map(|r| r.addr.0).collect::<Vec<_>>(),
            vec![64 * 1024 - 128],
            "must not cross into the next 64KB chunk"
        );
    }

    #[test]
    fn hits_do_not_trigger() {
        let mut p = Tree::default();
        let mut out = Vec::new();
        p.on_demand_access(&ev(0, AccessOutcome::Hit), &ctx(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn chunk_state_is_bounded() {
        let mut p = Tree::new(64 * 1024, 128, 1, 2);
        let mut out = Vec::new();
        for c in 0..5u64 {
            p.on_demand_access(&ev(c * 64 * 1024, AccessOutcome::Miss), &ctx(), &mut out);
        }
        assert!(p.chunks.len() <= 2);
    }
}
