//! Baseline prefetchers the paper compares against (§4, comparison
//! points 1–5 and 9), plus composition helpers.

pub mod combo;
pub mod cta_aware;
pub mod inter_warp;
pub mod intra_warp;
pub mod mta;
pub mod tree;

pub use combo::Combined;
pub use cta_aware::CtaAware;
pub use inter_warp::InterWarp;
pub use intra_warp::IntraWarp;
pub use mta::Mta;
pub use tree::Tree;
