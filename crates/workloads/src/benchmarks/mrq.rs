//! MRQ — mri-q, MRI reconstruction Q-matrix (Parboil \[44\]).
//!
//! Streams the k-space sample arrays (`kx`, `ky`, `kz`, `phi`) in
//! lockstep — a textbook four-link chain with fixed inter-array
//! offsets and a uniform per-iteration stride — interleaved with
//! trigonometric compute.

use snake_sim::KernelTrace;

use crate::pattern::{warp_grid, WarpBuilder, WorkloadSize};

const KX: u64 = 0xb000_0000;
const KY: u64 = 0xb200_0000;
const KZ: u64 = 0xb400_0000;
const PHI: u64 = 0xb600_0000;
const QOUT: u64 = 0xb800_0000;

/// Generates the MRQ kernel trace.
pub fn trace(size: &WorkloadSize) -> KernelTrace {
    size.assert_valid();
    let warps = warp_grid(size)
        .map(|(cta, _w, g)| {
            let mut b = WarpBuilder::new();
            b.stagger(g);
            // Every warp (and CTA wave) re-sweeps the shared k-space
            // sample arrays (temporal reuse across waves).
            for i in 0..u64::from(size.iters) {
                b.load(120, KX + i * 128);
                b.load(122, KY + i * 128);
                b.load(124, KZ + i * 128);
                b.load(126, PHI + i * 128);
                b.compute(8); // sin/cos accumulation
            }
            b.store(128, QOUT + u64::from(g) * 8192);
            b.build(cta)
        })
        .collect();
    KernelTrace::new("MRQ", warps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_core::analysis::{analyze_chains, predictability};

    #[test]
    fn four_link_chain_is_fully_stable() {
        let k = trace(&WorkloadSize::tiny());
        let r = analyze_chains(&k);
        assert!((r.pc_fraction_in_chains - 1.0).abs() < 1e-9, "{r:?}");
    }

    #[test]
    fn everything_regular_is_covered() {
        let k = trace(&WorkloadSize::tiny());
        let p = predictability(&k);
        assert!(p.ideal > 0.85, "mrq ideal: {}", p.ideal);
        assert!(p.chains > 0.7, "mrq chains: {}", p.chains);
    }
}
