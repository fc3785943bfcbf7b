//! Trace analyses behind the paper's motivation figures: chain
//! extraction (Figs 8–10) and per-mechanism predictability bounds
//! versus the Ideal prefetcher (Figs 6 and 11).

pub mod chains;
pub mod coverage;

pub use chains::{analyze_chains, chain_graph_dot, ChainLink, ChainReport};
pub use coverage::{
    ideal_bound, mechanism_bound, predictability, CoverageBound, PredictabilityReport,
};
