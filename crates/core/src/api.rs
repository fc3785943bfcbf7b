//! Mechanism registry: every comparison point of §4 behind one enum,
//! so the bench harness (and users) can build any of the paper's ten
//! configurations by name.

use snake_sim::{NullPrefetcher, PrefetchPlacement, Prefetcher};

use crate::baselines::{Combined, CtaAware, InterWarp, IntraWarp, Mta, Tree};
use crate::snake::{Snake, SnakeConfig};

/// The prefetching mechanisms evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrefetcherKind {
    /// No prefetching (the baseline GPU).
    Baseline,
    /// Intra-warp stride prefetcher (comparison point 1).
    Intra,
    /// Inter-warp stride prefetcher (comparison point 2).
    Inter,
    /// Many-Thread-Aware = intra + inter (comparison point 3).
    Mta,
    /// CTA-aware prefetcher (comparison point 4).
    Cta,
    /// Spatial 64KB-chunk prefetcher (comparison point 5).
    Tree,
    /// Chains of strides only (comparison point 6).
    SSnake,
    /// Snake without decoupling and throttling (comparison point 7).
    SnakeDt,
    /// Snake with decoupling, without throttling (comparison point 8).
    SnakeT,
    /// Full Snake.
    Snake,
    /// Snake combined with CTA-aware (comparison point 9).
    SnakeCta,
    /// Snake with an isolated prefetch buffer (§5.7).
    IsolatedSnake,
}

impl PrefetcherKind {
    /// Every mechanism in Fig 16/17/18 order, baseline first.
    pub const fn all() -> &'static [PrefetcherKind] {
        &[
            PrefetcherKind::Baseline,
            PrefetcherKind::Intra,
            PrefetcherKind::Inter,
            PrefetcherKind::Mta,
            PrefetcherKind::Cta,
            PrefetcherKind::Tree,
            PrefetcherKind::SSnake,
            PrefetcherKind::SnakeDt,
            PrefetcherKind::SnakeT,
            PrefetcherKind::Snake,
            PrefetcherKind::SnakeCta,
        ]
    }

    /// The report name (matches each mechanism's `Prefetcher::name`).
    pub fn name(self) -> &'static str {
        match self {
            PrefetcherKind::Baseline => "baseline",
            PrefetcherKind::Intra => "intra-warp",
            PrefetcherKind::Inter => "inter-warp",
            PrefetcherKind::Mta => "mta",
            PrefetcherKind::Cta => "cta-aware",
            PrefetcherKind::Tree => "tree",
            PrefetcherKind::SSnake => "s-snake",
            PrefetcherKind::SnakeDt => "snake-dt",
            PrefetcherKind::SnakeT => "snake-t",
            PrefetcherKind::Snake => "snake",
            PrefetcherKind::SnakeCta => "snake+cta",
            PrefetcherKind::IsolatedSnake => "isolated-snake",
        }
    }

    /// Builds a fresh instance. `warps` sizes the Snake Head table
    /// (use the SM's resident-warp count).
    pub fn build(self, warps: u32) -> Box<dyn Prefetcher> {
        let snake_cfg = |cfg: SnakeConfig| SnakeConfig {
            head_warps: warps,
            ..cfg
        };
        match self {
            PrefetcherKind::Baseline => Box::new(NullPrefetcher),
            PrefetcherKind::Intra => Box::new(IntraWarp::default()),
            PrefetcherKind::Inter => Box::new(InterWarp::default()),
            PrefetcherKind::Mta => Box::new(Mta::default()),
            PrefetcherKind::Cta => Box::new(CtaAware::default()),
            PrefetcherKind::Tree => Box::new(Tree::default()),
            PrefetcherKind::SSnake => Box::new(Snake::new(snake_cfg(SnakeConfig::s_snake()))),
            PrefetcherKind::SnakeDt => Box::new(Snake::new(snake_cfg(SnakeConfig::snake_dt()))),
            PrefetcherKind::SnakeT => Box::new(Snake::new(snake_cfg(SnakeConfig::snake_t()))),
            PrefetcherKind::Snake => Box::new(Snake::new(snake_cfg(SnakeConfig::snake()))),
            PrefetcherKind::SnakeCta => Box::new(Combined::new(
                "snake+cta",
                Box::new(Snake::new(snake_cfg(SnakeConfig::snake()))),
                Box::new(CtaAware::default()),
                PrefetchPlacement::Decoupled,
            )),
            PrefetcherKind::IsolatedSnake => {
                Box::new(Snake::new(snake_cfg(SnakeConfig::isolated(32))))
            }
        }
    }

    /// Whether this mechanism carries prefetcher hardware (for the
    /// energy model's table costs).
    pub fn has_hardware(self) -> bool {
        self != PrefetcherKind::Baseline
    }
}

impl std::fmt::Display for PrefetcherKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for PrefetcherKind {
    type Err = ParseKindError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let all = [
            PrefetcherKind::Baseline,
            PrefetcherKind::Intra,
            PrefetcherKind::Inter,
            PrefetcherKind::Mta,
            PrefetcherKind::Cta,
            PrefetcherKind::Tree,
            PrefetcherKind::SSnake,
            PrefetcherKind::SnakeDt,
            PrefetcherKind::SnakeT,
            PrefetcherKind::Snake,
            PrefetcherKind::SnakeCta,
            PrefetcherKind::IsolatedSnake,
        ];
        all.into_iter()
            .find(|k| k.name() == s)
            .ok_or_else(|| ParseKindError(s.to_owned()))
    }
}

/// Error parsing a mechanism name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseKindError(String);

impl std::fmt::Display for ParseKindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown prefetcher kind: {:?}", self.0)
    }
}

impl std::error::Error for ParseKindError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_build() {
        for &k in PrefetcherKind::all() {
            let p = k.build(16);
            assert_eq!(p.name(), k.name(), "{k:?}");
        }
        let iso = PrefetcherKind::IsolatedSnake.build(16);
        assert_eq!(iso.name(), "isolated-snake");
    }

    #[test]
    fn names_parse_back() {
        for &k in PrefetcherKind::all() {
            assert_eq!(k.name().parse::<PrefetcherKind>().unwrap(), k);
        }
        assert!("nope".parse::<PrefetcherKind>().is_err());
    }

    #[test]
    fn placements_match_the_paper() {
        assert_eq!(
            PrefetcherKind::Snake.build(16).placement(),
            PrefetchPlacement::Decoupled
        );
        assert_eq!(
            PrefetcherKind::SnakeDt.build(16).placement(),
            PrefetchPlacement::PlainL1
        );
        assert_eq!(
            PrefetcherKind::Mta.build(16).placement(),
            PrefetchPlacement::PlainL1
        );
        assert!(matches!(
            PrefetcherKind::IsolatedSnake.build(16).placement(),
            PrefetchPlacement::Isolated { .. }
        ));
    }

    #[test]
    fn all_excludes_isolated_but_it_still_builds() {
        assert!(!PrefetcherKind::all().contains(&PrefetcherKind::IsolatedSnake));
        assert_eq!(PrefetcherKind::all().len(), 11);
    }

    #[test]
    fn baseline_has_no_hardware() {
        assert!(!PrefetcherKind::Baseline.has_hardware());
        assert!(PrefetcherKind::Snake.has_hardware());
    }
}
