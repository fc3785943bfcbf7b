//! Chain-of-strides trace analysis (Figs 8–10).
//!
//! Operates on raw kernel traces, independent of the timing simulator:
//! extracts the `(PC1, PC2, stride)` pairs of each warp's load stream,
//! decides which are *stable* (repeated within a warp or confirmed
//! across warps, by Snake's promotion threshold
//! [`PROMOTE_THRESHOLD`]), and reports
//! the paper's two motivation statistics — the fraction of load PCs
//! participating in chains (Fig 9) and the maximum chain repetition
//! count per warp (Fig 10).

use std::collections::HashMap;

use snake_sim::{Address, Instr, KernelTrace, Pc, WarpTrace};

use crate::snake::tail_table::PROMOTE_THRESHOLD;

/// A directed chain link between two load PCs with a concrete stride.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChainLink {
    /// Head load PC.
    pub pc1: Pc,
    /// Next load PC.
    pub pc2: Pc,
    /// Byte stride between their addresses.
    pub stride: i64,
}

/// Extracts a warp's load stream as `(PC, base address)` pairs.
pub fn load_sequence(warp: &WarpTrace) -> Vec<(Pc, Address)> {
    warp.instrs
        .iter()
        .filter_map(|i| match i {
            Instr::Load { pc, addrs } => Some((*pc, addrs.base())),
            _ => None,
        })
        .collect()
}

/// All consecutive chain links of a warp with their occurrence counts.
pub fn link_counts(warp: &WarpTrace) -> HashMap<ChainLink, u32> {
    let seq = load_sequence(warp);
    let mut counts = HashMap::new();
    for w in seq.windows(2) {
        let (pc1, a1) = w[0];
        let (pc2, a2) = w[1];
        let link = ChainLink {
            pc1,
            pc2,
            stride: a2.stride_from(a1),
        };
        *counts.entry(link).or_insert(0) += 1;
    }
    counts
}

/// Result of the chain analysis on one kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainReport {
    /// Fraction of the representative warp's distinct load PCs that
    /// participate in at least one stable chain link (Fig 9).
    pub pc_fraction_in_chains: f64,
    /// Maximum repetition count of a stable chain link within the
    /// representative warp (Fig 10).
    pub max_repetition: u32,
    /// Number of stable links found kernel-wide.
    pub stable_links: usize,
    /// Distinct load PCs in the representative warp.
    pub representative_pcs: usize,
}

/// Every warp's link counts, and how many warps observed each link.
struct LinkCensus {
    per_warp: Vec<HashMap<ChainLink, u32>>,
    warps_per_link: HashMap<ChainLink, u32>,
}

impl LinkCensus {
    fn new(kernel: &KernelTrace) -> Self {
        let per_warp: Vec<HashMap<ChainLink, u32>> =
            kernel.warps().iter().map(link_counts).collect();
        let mut warps_per_link = HashMap::new();
        for counts in &per_warp {
            for link in counts.keys() {
                *warps_per_link.entry(*link).or_insert(0) += 1;
            }
        }
        LinkCensus {
            per_warp,
            warps_per_link,
        }
    }

    /// Whether `link` is stable for the warp whose link counts are
    /// `counts`: repeated [`PROMOTE_THRESHOLD`] times within it, or
    /// observed by [`PROMOTE_THRESHOLD`] warps.
    fn stable_in(&self, link: &ChainLink, counts: &HashMap<ChainLink, u32>) -> bool {
        counts.get(link).copied().unwrap_or(0) >= PROMOTE_THRESHOLD
            || self.warps_per_link.get(link).copied().unwrap_or(0) >= PROMOTE_THRESHOLD
    }

    /// The links stable for at least one warp, in no fixed order.
    fn stable_links(&self) -> impl Iterator<Item = &ChainLink> {
        self.warps_per_link
            .keys()
            .filter(|l| self.per_warp.iter().any(|c| self.stable_in(l, c)))
    }
}

/// Runs the chain analysis (Figs 9 and 10).
pub fn analyze_chains(kernel: &KernelTrace) -> ChainReport {
    let census = LinkCensus::new(kernel);
    let (rep_id, rep) = kernel.representative_warp();
    let rep_counts = &census.per_warp[rep_id.index()];
    let mut rep_pcs: Vec<Pc> = load_sequence(rep).iter().map(|(pc, _)| *pc).collect();
    rep_pcs.sort_unstable();
    rep_pcs.dedup();

    let pcs_in_chains = rep_pcs
        .iter()
        .filter(|pc| {
            rep_counts
                .keys()
                .any(|l| (l.pc1 == **pc || l.pc2 == **pc) && census.stable_in(l, rep_counts))
        })
        .count();

    let max_repetition = rep_counts
        .iter()
        .filter(|(l, _)| census.stable_in(l, rep_counts))
        .map(|(_, c)| *c)
        .max()
        .unwrap_or(0);

    ChainReport {
        pc_fraction_in_chains: if rep_pcs.is_empty() {
            0.0
        } else {
            pcs_in_chains as f64 / rep_pcs.len() as f64
        },
        max_repetition,
        stable_links: census.stable_links().count(),
        representative_pcs: rep_pcs.len(),
    }
}

/// Renders the kernel's stable chain links as a Graphviz DOT digraph —
/// the paper's Fig 8 ("a graph representation of the founded chain
/// between PC_lds").
///
/// Nodes are load PCs; each edge is a stable `(PC1 → PC2)` link
/// labelled with its stride and kernel-wide repetition count.
///
/// # Examples
///
/// ```
/// use snake_core::analysis::chain_graph_dot;
/// use snake_sim::{CtaId, Instr, KernelTrace, WarpTrace};
///
/// let warp = WarpTrace::new(CtaId(0), (0..8).flat_map(|i| {
///     let b = i * 4096;
///     [Instr::load(1u32, b), Instr::load(2u32, b + 400)]
/// }).collect());
/// let k = KernelTrace::new("demo", vec![warp]);
/// let dot = chain_graph_dot(&k);
/// assert!(dot.contains("digraph"));
/// assert!(dot.contains("+400"));
/// ```
pub fn chain_graph_dot(kernel: &KernelTrace) -> String {
    let census = LinkCensus::new(kernel);
    let mut stable: Vec<&ChainLink> = census.stable_links().collect();
    stable.sort_unstable();

    let mut dot = String::from(
        "digraph chains {
  rankdir=LR;
  node [shape=box];
",
    );
    let mut pcs: Vec<Pc> = stable.iter().flat_map(|l| [l.pc1, l.pc2]).collect();
    pcs.sort_unstable();
    pcs.dedup();
    for pc in pcs {
        dot.push_str(&format!("  pc{0} [label=\"PC {0}\"];\n", pc.0));
    }
    for l in stable {
        let occ: u32 = census.per_warp.iter().filter_map(|c| c.get(l)).sum();
        let warps = census.warps_per_link[l];
        dot.push_str(&format!(
            "  pc{} -> pc{} [label=\"{}{} (x{}, {}w)\"];\n",
            l.pc1.0,
            l.pc2.0,
            if l.stride >= 0 { "+" } else { "" },
            l.stride,
            occ,
            warps
        ));
    }
    dot.push_str("}\n");
    dot
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::CtaId;

    /// A warp looping over the LPS-like chain pc10 -> pc20 -> pc30.
    fn chain_warp(iters: u64, base: u64) -> WarpTrace {
        let mut instrs = Vec::new();
        for i in 0..iters {
            let b = base + i * 4096;
            instrs.push(Instr::load(10u32, b));
            instrs.push(Instr::load(20u32, b + 400));
            instrs.push(Instr::load(30u32, b + 1000));
        }
        WarpTrace::new(CtaId(0), instrs)
    }

    fn random_warp(n: usize, seed: u64) -> WarpTrace {
        // Deterministic xorshift addresses — no stable strides.
        let mut x = seed | 1;
        let instrs = (0..n)
            .map(|i| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                Instr::load(i as u32, x % (1 << 30))
            })
            .collect();
        WarpTrace::new(CtaId(0), instrs)
    }

    #[test]
    fn loop_chain_has_full_pc_coverage() {
        let k = KernelTrace::new("lps-ish", vec![chain_warp(10, 0)]);
        let r = analyze_chains(&k);
        assert_eq!(r.representative_pcs, 3);
        assert!((r.pc_fraction_in_chains - 1.0).abs() < 1e-12);
        // Each intra-iteration link repeats 10x; wraparound link 9x.
        assert_eq!(r.max_repetition, 10);
    }

    #[test]
    fn random_trace_has_no_stable_chains() {
        let k = KernelTrace::new("mum-ish", vec![random_warp(64, 7)]);
        let r = analyze_chains(&k);
        assert_eq!(r.max_repetition, 0);
        assert_eq!(r.pc_fraction_in_chains, 0.0);
    }

    #[test]
    fn cross_warp_confirmation_stabilizes_single_occurrence_links() {
        // Each warp runs the chain once: no within-warp repetition,
        // but three warps share the same links.
        let warps = (0..3).map(|w| chain_warp(1, w * 100_000)).collect();
        let k = KernelTrace::new("k", warps);
        let r = analyze_chains(&k);
        assert!(r.pc_fraction_in_chains > 0.99);
        assert_eq!(r.max_repetition, 1);
    }

    #[test]
    fn link_counts_capture_strides() {
        let counts = link_counts(&chain_warp(2, 0));
        assert_eq!(
            counts
                .get(&ChainLink {
                    pc1: Pc(10),
                    pc2: Pc(20),
                    stride: 400
                })
                .copied(),
            Some(2)
        );
        assert_eq!(
            counts
                .get(&ChainLink {
                    pc1: Pc(30),
                    pc2: Pc(10),
                    stride: 4096 - 1000
                })
                .copied(),
            Some(1)
        );
    }

    #[test]
    fn load_sequence_skips_non_loads() {
        let w = WarpTrace::new(
            CtaId(0),
            vec![
                Instr::compute(3),
                Instr::load(1u32, 128u64),
                Instr::store(2u32, 256u64),
                Instr::load(3u32, 512u64),
            ],
        );
        let seq = load_sequence(&w);
        assert_eq!(seq.len(), 2);
        assert_eq!(seq[0], (Pc(1), Address(128)));
    }
}
