//! Order statistics for timing samples.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; fewer make it a reading of one or two outliers.
const MIN_TAIL: usize = 10;

/// Median of `xs` (the mean of the two middle values for an even
/// count), or `None` when there are no samples.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `p`-th percentile of `xs` (`0 < p < 100`), or `None`
/// when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn tail_percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let idx = rank.clamp(1, n) - 1;
    (n - 1 - idx >= MIN_TAIL).then(|| v[idx])
}

/// The smallest sample, or `None` when there are none.
pub fn fastest(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().min_by(f64::total_cmp)
}

/// Sum over groups of each group's fastest sample: the time the jobs
/// take without outside interference.
///
/// On a shared host the same job alternates between its own speed and
/// about half of it as neighbours come and go. Over a run, each job's
/// fastest rep is steady to a few percent while its median moves with
/// the share of slow reps.
pub fn sum_of_fastest(groups: &[Vec<f64>]) -> f64 {
    groups.iter().filter_map(|g| fastest(g)).sum()
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: samples 91..=100 lie beyond it.
        assert_eq!(tail_percentile(&hundred, 90.0), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 90.0), None);
        assert_eq!(tail_percentile(&[], 90.0), None);
        // The median of 21 samples has 10 beyond it.
        let small: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail_percentile(&small, 50.0), Some(11.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail_percentile(&xs, 90.0), Some(180.0));
        assert_eq!(median(&xs), Some(100.5));
    }

    #[test]
    fn sum_of_fastest_skips_empty_groups() {
        let groups = vec![vec![3.0, 9.0, 2.0], vec![], vec![4.0, 6.0]];
        assert_eq!(fastest(&groups[0]), Some(2.0));
        assert_eq!(fastest(&[]), None);
        assert_eq!(sum_of_fastest(&groups), 6.0);
    }
}
