//! LPS — 3D Laplace Solver (ISPASS \[5\]).
//!
//! The paper's running example (Figs 7/8): each thread walks the z
//! dimension of a 3D grid; iteration `k` reads `u1[ind]` and
//! `u1[ind+KOFF]` and writes `u1[ind-KOFF]`. That yields
//!
//! * an **inter-thread chain** between the two load PCs with stride
//!   `+KOFF` elements,
//! * an **intra-warp** stride of `+KOFF` per iteration, and
//! * a fixed **inter-warp** stride of one grid row (`JOFF`).
//!
//! Constants follow the ISPASS source: `BLOCK_X = 32`, `BLOCK_Y = 4`,
//! so `KOFF = (BLOCK_X+2)*(BLOCK_Y+2) = 204` elements and
//! `JOFF = BLOCK_X+2 = 34` elements (4-byte floats).

use snake_sim::KernelTrace;

use crate::pattern::{warp_grid, WarpBuilder, WorkloadSize};

/// Byte stride of one z-plane (`KOFF * 4`).
pub const KOFF_BYTES: u64 = 204 * 4;
/// Byte stride of one y-row (`JOFF * 4`).
pub const JOFF_BYTES: u64 = 34 * 4;
/// Base of the `u1` grid in global memory.
const U1: u64 = 0x1000_0000;
/// Per-CTA slab spacing.
const CTA_SPAN: u64 = 1 << 22;

/// Generates the LPS kernel trace.
pub fn trace(size: &WorkloadSize) -> KernelTrace {
    size.assert_valid();
    let warps = warp_grid(size)
        .map(|(cta, w, g)| {
            let mut b = WarpBuilder::new();
            b.stagger(g);
            // Each warp covers one y-row of its CTA's block.
            let base = U1 + u64::from(cta.0) * CTA_SPAN + u64::from(w) * JOFF_BYTES + KOFF_BYTES;
            for k in 0..u64::from(size.iters) {
                let ind = base + k * KOFF_BYTES;
                // u1[ind-KOFF] = u1[ind]  (line 12 of Fig 7)
                b.load(10, ind);
                b.store(12, ind - KOFF_BYTES);
                // u1[ind] = u1[ind+KOFF]  (line 13 of Fig 7)
                b.load(14, ind + KOFF_BYTES);
                b.store(16, ind);
                b.compute(8);
            }
            b.build(cta)
        })
        .collect();
    KernelTrace::new("LPS", warps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_core::analysis::{analyze_chains, predictability};

    #[test]
    fn loads_form_the_paper_chain() {
        let k = trace(&WorkloadSize::tiny());
        let r = analyze_chains(&k);
        assert!(
            r.pc_fraction_in_chains > 0.9,
            "LPS PCs live in chains: {r:?}"
        );
        assert!(r.max_repetition >= WorkloadSize::tiny().iters - 2);
    }

    #[test]
    fn highly_predictable_for_chains() {
        let k = trace(&WorkloadSize::tiny());
        let p = predictability(&k);
        assert!(p.chains > 0.7, "chains bound on LPS: {}", p.chains);
        assert!(p.ideal >= p.chains);
    }

    #[test]
    fn trace_shape() {
        let size = WorkloadSize::tiny();
        let k = trace(&size);
        assert_eq!(k.warp_count(), size.total_warps() as usize);
        assert_eq!(k.cta_count(), size.ctas as usize);
        assert_eq!(
            k.total_loads(),
            (size.total_warps() * size.iters * 2) as usize
        );
    }
}
