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

#[cfg(test)]
mod tests {
    use super::*;
    use snake_sim::json::parse;
    use snake_sim::Prefetcher;

    /// Restores `state` into `p`, returning it re-encoded or the error.
    fn restore(mut p: impl Prefetcher, state: &str) -> String {
        match p.restore_state(&parse(state).unwrap()) {
            Ok(()) => p.save_state().to_string(),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn tables_restore_their_rows_up_to_their_capacity() {
        let intra = r#"{"table":[[0,1,64,-128,1,5]],"seq":5}"#;
        assert_eq!(restore(IntraWarp::new(1, 1), intra), intra);
        assert_eq!(
            restore(
                IntraWarp::new(1, 1),
                r#"{"table":[[0,1,64,-128,1,5],[0,2,0,0,0,6]],"seq":6}"#
            ),
            "malformed checkpoint: checkpoint has 2 intra-warp entries, capacity is 1"
        );
        let inter = r#"{"table":[[4,2,640,null,0,3]],"seq":3}"#;
        assert_eq!(restore(InterWarp::new(1, 1, 3), inter), inter);
        assert_eq!(
            restore(
                InterWarp::new(1, 1, 3),
                r#"{"table":[[4,2,640,null,0,3],[5,2,0,64,2,4]],"seq":4}"#
            ),
            "malformed checkpoint: checkpoint has 2 inter-warp entries, capacity is 1"
        );
        let cta = r#"{"table":[[4,[[0,0],[1,4096]],4096,2]],"seq":2}"#;
        assert_eq!(restore(CtaAware::new(1, 1, 2), cta), cta);
        assert_eq!(
            restore(
                CtaAware::new(1, 1, 2),
                r#"{"table":[[4,[],null,1],[5,[],null,2]],"seq":2}"#
            ),
            "malformed checkpoint: checkpoint has 2 cta-aware entries, capacity is 1"
        );
        let tree = r#"{"chunks":[[3,196736]]}"#;
        assert_eq!(restore(Tree::new(65536, 128, 1, 1), tree), tree);
        assert_eq!(
            restore(Tree::new(65536, 128, 1, 1), r#"{"chunks":[[3,0],[4,0]]}"#),
            "malformed checkpoint: checkpoint has 2 chunks, capacity is 1"
        );
        let mta = Mta::new(IntraWarp::new(1, 1), InterWarp::new(1, 1, 3));
        assert_eq!(
            restore(mta, r#"{"intra":{"table":[[0,1,64,-128,256,5]],"seq":5}}"#),
            "malformed checkpoint: intra/table/0/4: u8 out of range: 256"
        );
    }
}
