//! Hotspot — thermal simulation (Rodinia \[31\]).
//!
//! A 2D five-point stencil over temperature plus a power-density read:
//! each iteration loads center, north, south neighbors and the power
//! cell, then writes the new temperature. The four loads form a fixed
//! four-link chain (strides −ROW, +2·ROW, array offset), each row step
//! adds a uniform intra-warp stride, and warps tile rows at a fixed
//! inter-warp stride.

use snake_sim::KernelTrace;

use crate::pattern::{warp_grid, WarpBuilder, WorkloadSize};

const TEMP: u64 = 0x6000_0000;
const POWER: u64 = 0x6400_0000;
const RESULT: u64 = 0x6800_0000;
/// Grid row pitch in bytes.
pub const ROW_BYTES: u64 = 8192;
/// Per-CTA tile of rows.
const CTA_ROWS: u64 = 512;

/// Generates the Hotspot kernel trace.
pub fn trace(size: &WorkloadSize) -> KernelTrace {
    size.assert_valid();
    let warps = warp_grid(size)
        .map(|(cta, w, g)| {
            let mut b = WarpBuilder::new();
            b.stagger(g);
            let base =
                TEMP + u64::from(cta.0) * CTA_ROWS * ROW_BYTES + u64::from(w) * 128 + ROW_BYTES; // skip halo row
            for r in 0..u64::from(size.iters) {
                let center = base + r * ROW_BYTES;
                b.load(60, center);
                b.load(62, center - ROW_BYTES); // north
                b.load(64, center + ROW_BYTES); // south
                b.load(66, center - TEMP + POWER); // power cell
                b.compute(8);
                b.store(68, center - TEMP + RESULT);
            }
            b.build(cta)
        })
        .collect();
    KernelTrace::new("Hotspot", warps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_core::analysis::{analyze_chains, predictability};

    #[test]
    fn stencil_chain_is_stable_and_long() {
        let k = trace(&WorkloadSize::tiny());
        let r = analyze_chains(&k);
        assert!(r.pc_fraction_in_chains > 0.9, "{r:?}");
        assert!(r.stable_links >= 3, "four PCs -> at least 3 links: {r:?}");
    }

    #[test]
    fn chains_dominate_fixed_strides() {
        let k = trace(&WorkloadSize::tiny());
        let p = predictability(&k);
        assert!(
            p.chains > p.intra,
            "chains {} vs intra {}",
            p.chains,
            p.intra
        );
        assert!(p.ideal > 0.8);
    }
}
