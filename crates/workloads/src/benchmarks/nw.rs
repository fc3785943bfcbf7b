//! nw — Needleman-Wunsch (Rodinia \[31\]).
//!
//! Dynamic-programming sequence alignment processed in anti-diagonal
//! wavefronts. Accesses are regular *within* a diagonal but each
//! diagonal is a separate short kernel launch with fresh load PCs and
//! a different base — so no pattern repeats often enough to train.
//! The paper singles nw out: "low coverage despite regular patterns,
//! due to the low number of repetitions" (§5.1 observation 7).

use snake_sim::KernelTrace;

use crate::pattern::{warp_grid, WarpBuilder, WorkloadSize};

const SCORE: u64 = 0x9000_0000;
const REF: u64 = 0x9400_0000;
/// DP matrix row pitch.
const ROW: u64 = 2048;
/// Loads per diagonal segment (short!).
const SEG: u64 = 3;

/// Generates the nw kernel trace.
pub fn trace(size: &WorkloadSize) -> KernelTrace {
    size.assert_valid();
    let segments = u64::from(size.iters) / SEG + 1;
    let warps = warp_grid(size)
        .map(|(cta, w, g)| {
            let mut b = WarpBuilder::new();
            b.stagger(g);
            for d in 0..segments {
                // New diagonal = new kernel launch: fresh PCs, new base.
                let pc = (100 + d * 8) as u32;
                let base =
                    SCORE + u64::from(cta.0) * (1 << 22) + d * (ROW + 128) + u64::from(w) * 256;
                for i in 0..SEG {
                    b.load(pc, base + i * ROW); // north-west deps
                    b.load(pc + 2, REF + d * 128 + i * 128); // reference
                    b.compute(4);
                    b.store(pc + 4, base + i * ROW + 128);
                }
            }
            b.build(cta)
        })
        .collect();
    KernelTrace::new("nw", warps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_core::analysis::{analyze_chains, predictability};

    #[test]
    fn low_repetition_limits_chain_training() {
        let k = trace(&WorkloadSize::tiny());
        let r = analyze_chains(&k);
        assert!(
            r.max_repetition <= SEG as u32,
            "diagonal segments are short: {r:?}"
        );
    }

    #[test]
    fn coverage_is_mediocre_despite_regularity() {
        let k = trace(&WorkloadSize::tiny());
        let p = predictability(&k);
        assert!(p.chains < 0.75, "nw chains: {}", p.chains);
        assert!(p.ideal > p.chains, "ideal still higher");
    }
}
