//! The noise-aware regression comparator.
//!
//! Host wall-time is noisy — frequency scaling, page-cache state, and
//! sibling processes all move it — so comparing two single numbers
//! with a fixed threshold either misses real regressions (threshold
//! too loose) or cries wolf (too tight). The gate here flags a
//! regression only when the median delta clears **three** bars at
//! once:
//!
//! 1. relative: `delta > rel_threshold × baseline_median`;
//! 2. noise: `delta > noise_mult × (baseline_IQR + current_IQR)` —
//!    the measured run-to-run spread of *both* reports;
//! 3. absolute: `delta > min_delta_ns` — microsecond jitter on a
//!    microsecond phase is never a finding.
//!
//! All bars use strict `>`: a delta exactly at a threshold passes.
//! Single-sample reports have an IQR of zero, so the gate degrades to
//! a plain relative-plus-floor comparison (exactly what the legacy
//! `pfdebug --overhead-guard` wall-clock check was).

use crate::report::Table;

use super::{JobPerf, PerfReport};
use snake_sim::perfstat::Phase;

/// Gate thresholds. The defaults suit CI smoke runs: 10% relative,
/// one full noise band, and a 10 µs absolute floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareConfig {
    /// Relative slowdown bar (0.10 = 10% over the baseline median).
    pub rel_threshold: f64,
    /// Noise bar multiplier on `base_iqr + cur_iqr`.
    pub noise_mult: f64,
    /// Absolute floor in nanoseconds; deltas at or under it never
    /// flag, no matter how large relatively.
    pub min_delta_ns: f64,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            rel_threshold: 0.10,
            noise_mult: 1.0,
            min_delta_ns: 10_000.0,
        }
    }
}

/// The interpolated `q`-quantile (0 ≤ q ≤ 1) of `sorted` (ascending).
fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0] as f64,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

/// Median of `samples` (interpolated for even counts; 0 when empty).
pub fn median(samples: &[u64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    quantile(&sorted, 0.5)
}

/// `(median, interquartile range)` of `samples`. The IQR of fewer
/// than two samples is zero — no spread was observed.
pub fn median_iqr(samples: &[u64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let med = quantile(&sorted, 0.5);
    if sorted.len() < 2 {
        return (med, 0.0);
    }
    let iqr = quantile(&sorted, 0.75) - quantile(&sorted, 0.25);
    (med, iqr)
}

/// The core gate predicate: is `cur` a regression over `base`?
///
/// Strict `>` on every bar: a delta exactly at the relative threshold,
/// exactly at the noise band, or exactly at the absolute floor does
/// **not** flag.
pub fn is_regression(
    base_med: f64,
    base_iqr: f64,
    cur_med: f64,
    cur_iqr: f64,
    cfg: &CompareConfig,
) -> bool {
    let delta = cur_med - base_med;
    delta > cfg.rel_threshold * base_med
        && delta > cfg.noise_mult * (base_iqr + cur_iqr)
        && delta > cfg.min_delta_ns
}

/// One compared metric: a job's wall time or one of its phases.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Job id (`"<abbr>/<mechanism>"`).
    pub job: String,
    /// `"wall"` or a phase label.
    pub metric: String,
    /// Baseline median, nanoseconds.
    pub base_med: f64,
    /// Baseline interquartile range, nanoseconds.
    pub base_iqr: f64,
    /// Current median, nanoseconds.
    pub cur_med: f64,
    /// Current interquartile range, nanoseconds.
    pub cur_iqr: f64,
    /// `true` when the gate flags this metric.
    pub regressed: bool,
}

impl CompareRow {
    /// Signed delta of the medians, nanoseconds.
    pub fn delta(&self) -> f64 {
        self.cur_med - self.base_med
    }

    /// Relative delta against the baseline median (0 when the
    /// baseline is zero).
    pub fn rel_delta(&self) -> f64 {
        if self.base_med > 0.0 {
            self.delta() / self.base_med
        } else {
            0.0
        }
    }
}

/// The comparator's verdict over two reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareResult {
    /// One row per compared metric, campaign order, wall first.
    pub rows: Vec<CompareRow>,
    /// Jobs present in only one of the reports (compared jobs must
    /// match; these are reported, not failed on).
    pub unmatched: Vec<String>,
    /// Whether the two reports came from the same machine and
    /// toolchain ([`HostFingerprint::same_host`]).
    ///
    /// [`HostFingerprint::same_host`]: crate::perfstat::HostFingerprint::same_host
    pub same_host: bool,
}

impl CompareResult {
    /// Rows the gate flagged.
    pub fn regressions(&self) -> impl Iterator<Item = &CompareRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// `true` when no metric regressed.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| !r.regressed)
    }

    /// Renders the verdict as a printable table: medians in
    /// milliseconds with their noise bands, the relative delta, and a
    /// verdict column.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Perf comparison (median ± IQR, ms)",
            vec![
                "job".into(),
                "metric".into(),
                "baseline".into(),
                "current".into(),
                "delta".into(),
                "verdict".into(),
            ],
        );
        for r in &self.rows {
            t.push_row(vec![
                r.job.clone(),
                r.metric.clone(),
                format!("{:.3} ±{:.3}", r.base_med / 1e6, r.base_iqr / 1e6),
                format!("{:.3} ±{:.3}", r.cur_med / 1e6, r.cur_iqr / 1e6),
                format!("{:+.1}%", r.rel_delta() * 100.0),
                if r.regressed { "REGRESSED" } else { "ok" }.into(),
            ]);
        }
        if !self.same_host {
            t.note(
                "host fingerprints differ between baseline and current; \
                 the noise bands may not transfer",
            );
        }
        for job in &self.unmatched {
            t.note(format!("{job}: present in only one report, not compared"));
        }
        let flagged = self.regressions().count();
        if flagged > 0 {
            t.note(format!("{flagged} metric(s) regressed"));
        }
        t
    }
}

fn push_rows(rows: &mut Vec<CompareRow>, base: &JobPerf, cur: &JobPerf, cfg: &CompareConfig) {
    let mut push = |metric: &str, base_samples: Vec<u64>, cur_samples: Vec<u64>| {
        let (base_med, base_iqr) = median_iqr(&base_samples);
        let (cur_med, cur_iqr) = median_iqr(&cur_samples);
        rows.push(CompareRow {
            job: base.job.clone(),
            metric: metric.to_string(),
            base_med,
            base_iqr,
            cur_med,
            cur_iqr,
            regressed: is_regression(base_med, base_iqr, cur_med, cur_iqr, cfg),
        });
    };
    push("wall", base.wall_nanos(), cur.wall_nanos());
    for phase in Phase::ALL {
        push(
            phase.label(),
            base.phase_nanos(phase),
            cur.phase_nanos(phase),
        );
    }
}

/// Compares `cur` against `base` under `cfg`: per job, the total wall
/// time plus every phase.
pub fn compare(base: &PerfReport, cur: &PerfReport, cfg: &CompareConfig) -> CompareResult {
    let mut rows = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for cur_job in &cur.jobs {
        match base.job(&cur_job.job) {
            Some(base_job) => push_rows(&mut rows, base_job, cur_job, cfg),
            None => unmatched.push(cur_job.job.clone()),
        }
    }
    for base_job in &base.jobs {
        if cur.job(&base_job.job).is_none() {
            unmatched.push(base_job.job.clone());
        }
    }
    CompareResult {
        rows,
        unmatched,
        same_host: base.host.same_host(&cur.host),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perfstat::{HostFingerprint, JobPerf};
    use snake_sim::perfstat::PhaseStat;
    use snake_sim::HostProfile;

    fn profile(wall: u64) -> HostProfile {
        HostProfile::from_parts(
            wall,
            100,
            0,
            [(
                Phase::MemPartition,
                PhaseStat {
                    nanos: wall / 2,
                    calls: 10,
                },
            )],
        )
    }

    fn report(label: &str, walls: &[u64]) -> PerfReport {
        PerfReport {
            label: label.into(),
            runs: walls.len() as u32,
            host: HostFingerprint {
                cpus: 4,
                rustc: "r".into(),
                git_sha: "g".into(),
                cargo_profile: "debug".into(),
                os: "linux".into(),
            },
            jobs: vec![JobPerf {
                job: "LPS/snake".into(),
                samples: walls.iter().map(|&w| profile(w)).collect(),
            }],
        }
    }

    fn strict() -> CompareConfig {
        // No absolute floor and no noise bar: isolates the relative
        // threshold for the exactness tests.
        CompareConfig {
            rel_threshold: 0.10,
            noise_mult: 0.0,
            min_delta_ns: 0.0,
        }
    }

    #[test]
    fn median_and_iqr_basics() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7]), 7.0);
        assert_eq!(median(&[1, 3]), 2.0);
        assert_eq!(median(&[3, 1, 2]), 2.0);
        let (med, iqr) = median_iqr(&[10, 20, 30, 40, 50]);
        assert_eq!(med, 30.0);
        assert_eq!(iqr, 20.0);
        let (_, iqr1) = median_iqr(&[42]);
        assert_eq!(iqr1, 0.0, "single sample has no spread");
    }

    #[test]
    fn zero_variance_baseline_gates_on_relative_threshold() {
        // All bars except relative disabled; identical samples have
        // IQR 0 so the noise bar contributes nothing even when on.
        let base = report("base", &[1_000_000, 1_000_000, 1_000_000]);
        let same = report("cur", &[1_000_000, 1_000_000, 1_000_000]);
        assert!(compare(&base, &same, &strict()).passed());
        let slow = report("cur", &[1_200_000, 1_200_000, 1_200_000]);
        let result = compare(&base, &slow, &strict());
        assert!(!result.passed());
        let wall = result.rows.iter().find(|r| r.metric == "wall").unwrap();
        assert!(wall.regressed);
    }

    #[test]
    fn regression_exactly_at_threshold_does_not_flag() {
        // Strict `>`: a delta of exactly rel_threshold x base passes.
        let base = report("base", &[1_000_000]);
        let at = report("cur", &[1_100_000]); // exactly +10%
        assert!(compare(&base, &at, &strict()).passed());
        let over = report("cur", &[1_100_001]); // one nanosecond over
        assert!(!compare(&base, &over, &strict()).passed());
    }

    #[test]
    fn single_sample_runs_compare_without_noise_band() {
        let base = report("base", &[1_000_000]);
        let cur = report("cur", &[1_500_000]);
        let cfg = CompareConfig {
            min_delta_ns: 0.0,
            ..CompareConfig::default()
        };
        // IQRs are both zero, so the default noise_mult of 1.0 gates
        // on the relative threshold alone.
        assert!(!compare(&base, &cur, &cfg).passed());
    }

    #[test]
    fn noise_band_suppresses_within_spread_deltas() {
        // +20% median shift, but the spread of each report is larger
        // than the shift: the noise bar must suppress the flag.
        let base = report("base", &[800_000, 1_000_000, 1_600_000]);
        let cur = report("cur", &[900_000, 1_200_000, 1_900_000]);
        let cfg = CompareConfig {
            rel_threshold: 0.10,
            noise_mult: 1.0,
            min_delta_ns: 0.0,
        };
        assert!(compare(&base, &cur, &cfg).passed());
        // With the noise bar off the same delta flags.
        assert!(!compare(&base, &cur, &strict()).passed());
    }

    #[test]
    fn absolute_floor_suppresses_tiny_deltas() {
        let base = report("base", &[10_000]);
        let cur = report("cur", &[19_000]); // +90% but only 9 us
        let cfg = CompareConfig::default(); // floor 10 us
        assert!(compare(&base, &cur, &cfg).passed());
    }

    #[test]
    fn improvements_never_flag() {
        let base = report("base", &[2_000_000]);
        let cur = report("cur", &[1_000_000]);
        let result = compare(&base, &cur, &strict());
        assert!(result.passed());
        let wall = result.rows.iter().find(|r| r.metric == "wall").unwrap();
        assert!(wall.rel_delta() < 0.0);
    }

    #[test]
    fn unmatched_jobs_are_reported_not_compared() {
        let base = report("base", &[1_000_000]);
        let mut cur = report("cur", &[1_000_000]);
        cur.jobs[0].job = "CP/snake".into();
        let result = compare(&base, &cur, &strict());
        assert!(result.rows.is_empty());
        assert_eq!(result.unmatched.len(), 2);
        assert!(result.passed(), "unmatched jobs are not failures");
    }

    #[test]
    fn same_host_ignores_the_revision() {
        let base = report("base", &[1_000_000]);
        let mut cur = report("cur", &[1_000_000]);
        cur.host.git_sha = "g-dirty".into();
        let result = compare(&base, &cur, &strict());
        assert!(result.same_host, "a parent and its change share a host");
        assert!(!result.table().to_string().contains("fingerprints differ"));
        cur.host.cpus = 2;
        assert!(!compare(&base, &cur, &strict()).same_host);
    }

    #[test]
    fn table_renders_verdicts_and_notes() {
        let base = report("base", &[1_000_000]);
        let slow = report("cur", &[2_000_000]);
        let rendered = compare(&base, &slow, &strict()).table().to_string();
        assert!(rendered.contains("REGRESSED"));
        assert!(rendered.contains("wall"));
        assert!(rendered.contains("mem_partition"));
        assert!(rendered.contains("metric(s) regressed"));
    }
}
