//! Fixed-bucket latency histograms for prefetch-lifecycle attribution.
//!
//! The simulator needs cheap, always-on latency distributions
//! (issue→fill, fill→first-use, lifetime of evicted-unused lines)
//! without allocating per-sample storage. [`LatencyHistogram`] uses
//! 16 power-of-two buckets — `record` is a shift and an increment, and
//! the whole type is `Copy`, so carrying one per L1 costs nothing on
//! the hot path. Percentiles are bucket-resolution upper bounds, which
//! is plenty for "did the fill beat the first use" questions.

use crate::json::{self, Value};
use crate::snapshot::SnapshotError;

/// Number of power-of-two buckets in a [`LatencyHistogram`].
///
/// Bucket 0 holds exactly the value 0; bucket `i` (for `0 < i < 15`)
/// holds values in `[2^(i-1), 2^i)`; the last bucket is an overflow
/// bucket for everything `>= 2^14`.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// A fixed-size log2-bucketed histogram of cycle latencies.
///
/// # Examples
///
/// ```
/// use snake_sim::obs::LatencyHistogram;
/// let mut h = LatencyHistogram::default();
/// for v in [1u64, 2, 3, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.percentile(50.0) <= h.percentile(99.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

/// Bucket index for a value (see [`HISTOGRAM_BUCKETS`]).
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        let bits = 64 - value.leading_zeros() as usize;
        bits.min(HISTOGRAM_BUCKETS - 1)
    }
}

impl LatencyHistogram {
    /// Adds one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample seen, 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// sample (`p` in `[0, 100]`), clamped to the observed maximum so
    /// a reported percentile never exceeds any real sample. Returns 0
    /// for an empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the target sample, 1-based, ceil so p=100 → count.
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return self.bucket_upper_bound(i);
            }
        }
        self.max
    }

    /// Median (`percentile(50.0)`).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Elementwise merge of another histogram into this one.
    /// Associative and commutative, so per-SM histograms can be folded
    /// in any order.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// Largest value representable by bucket `i`, clamped to the
    /// observed maximum (the overflow bucket has no artificial bound,
    /// and a final bucket that holds only the largest samples would
    /// otherwise report an upper bound no sample ever reached).
    fn bucket_upper_bound(&self, i: usize) -> u64 {
        if i == 0 {
            0
        } else if i == HISTOGRAM_BUCKETS - 1 {
            self.max
        } else {
            ((1u64 << i) - 1).min(self.max)
        }
    }

    /// Raw bucket counts (for exporters and tests).
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Serializes the histogram for a checkpoint.
    pub fn save_state(&self) -> Value {
        Value::Obj(vec![
            (
                "buckets".into(),
                Value::Arr(self.buckets.iter().map(|&b| Value::u64(b)).collect()),
            ),
            ("count".into(), Value::u64(self.count)),
            ("sum".into(), Value::u64(self.sum)),
            ("max".into(), Value::u64(self.max)),
        ])
    }

    /// Restores the histogram from [`save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing field or a bucket
    /// array of the wrong length.
    ///
    /// [`save_state`]: LatencyHistogram::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let buckets = json::arr_field(v, "buckets")?;
        if buckets.len() != HISTOGRAM_BUCKETS {
            return Err(SnapshotError::malformed(format!(
                "histogram has {} buckets, expected {HISTOGRAM_BUCKETS}",
                buckets.len()
            )));
        }
        for (slot, b) in self.buckets.iter_mut().zip(buckets) {
            *slot = b
                .as_u64()
                .ok_or_else(|| SnapshotError::malformed("non-u64 histogram bucket"))?;
        }
        self.count = json::u64_field(v, "count")?;
        self.sum = json::u64_field(v, "sum")?;
        self.max = json::u64_field(v, "max")?;
        Ok(())
    }
}

impl std::fmt::Display for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.max
        )
    }
}

/// Prefetch-lifecycle latency attribution, kept always-on by the
/// unified L1 (recording into a `Copy` histogram is cheaper than the
/// branch structure needed to gate it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrefetchLifecycle {
    /// Cycles from prefetch issue (MSHR allocation) to the fill
    /// arriving in the L1.
    pub issue_to_fill: LatencyHistogram,
    /// Cycles from the fill landing to the first demand use — the
    /// paper's timeliness: small is "just in time", large is "fetched
    /// too early, occupied SRAM for nothing".
    pub fill_to_first_use: LatencyHistogram,
    /// For prefetched lines evicted *without ever being used*: cycles
    /// the dead line sat in the SRAM (allocation to eviction).
    pub lifetime_unused: LatencyHistogram,
}

impl PrefetchLifecycle {
    /// Merges another lifecycle record into this one (per-SM fold).
    pub fn merge(&mut self, other: &PrefetchLifecycle) {
        self.issue_to_fill.merge(&other.issue_to_fill);
        self.fill_to_first_use.merge(&other.fill_to_first_use);
        self.lifetime_unused.merge(&other.lifetime_unused);
    }

    /// Serializes all three histograms for a checkpoint.
    pub fn save_state(&self) -> Value {
        Value::Obj(vec![
            ("issue_to_fill".into(), self.issue_to_fill.save_state()),
            (
                "fill_to_first_use".into(),
                self.fill_to_first_use.save_state(),
            ),
            ("lifetime_unused".into(), self.lifetime_unused.save_state()),
        ])
    }

    /// Restores from [`save_state`](PrefetchLifecycle::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or malformed field.
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.issue_to_fill
            .restore_state(json::field(v, "issue_to_fill")?)?;
        self.fill_to_first_use
            .restore_state(json::field(v, "fill_to_first_use")?)?;
        self.lifetime_unused
            .restore_state(json::field(v, "lifetime_unused")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index((1 << 13) - 1), 13);
        assert_eq!(bucket_index(1 << 13), 14);
        assert_eq!(bucket_index((1 << 14) - 1), 14);
        // Everything >= 2^14 lands in the overflow bucket.
        assert_eq!(bucket_index(1 << 14), 15);
        assert_eq!(bucket_index(u64::MAX), 15);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn percentiles_on_known_distribution() {
        // 100 samples of value 1, then 10 of value 100, then 1 of 5000.
        let mut h = LatencyHistogram::default();
        for _ in 0..100 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(100);
        }
        h.record(5000);
        assert_eq!(h.count(), 111);
        assert_eq!(h.max(), 5000);
        // p50 (rank 56) and p90 (rank 100) are in the value-1 bucket,
        // whose upper bound is 1.
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p90(), 1);
        // p99 (rank 110) falls among the value-100 samples:
        // bucket 7 covers [64, 128) → upper bound 127.
        assert_eq!(h.p99(), 127);
        // p100 reaches the 5000 sample: bucket 13 covers [4096, 8192),
        // but the bound is clamped to the true maximum.
        assert_eq!(h.percentile(100.0), 5000);
    }

    #[test]
    fn percentile_never_exceeds_the_maximum() {
        // All samples in one bucket: [256, 512) would report 511
        // without clamping, above every real sample.
        let mut h = LatencyHistogram::default();
        for v in [260u64, 270, 273] {
            h.record(v);
        }
        assert_eq!(h.p50(), 273);
        assert_eq!(h.p99(), 273);
    }

    #[test]
    fn overflow_bucket_reports_true_max() {
        let mut h = LatencyHistogram::default();
        h.record(1 << 20);
        assert_eq!(h.percentile(100.0), 1 << 20);
        assert_eq!(h.p50(), 1 << 20);
    }

    #[test]
    fn zero_values_have_their_own_bucket() {
        let mut h = LatencyHistogram::default();
        for _ in 0..9 {
            h.record(0);
        }
        h.record(1);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        let mut c = LatencyHistogram::default();
        for v in [0u64, 1, 5, 9] {
            a.record(v);
        }
        for v in [2u64, 2, 300] {
            b.record(v);
        }
        for v in [70_000u64, 4] {
            c.record(v);
        }

        // (a ⊔ b) ⊔ c
        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        // a ⊔ (b ⊔ c)
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        // b ⊔ a == a ⊔ b
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);

        assert_eq!(left.count(), 9);
        assert_eq!(left.max(), 70_000);
    }

    #[test]
    fn display_is_compact() {
        let mut h = LatencyHistogram::default();
        h.record(10);
        let s = h.to_string();
        assert!(s.contains("n=1"));
        assert!(s.contains("p50="));
    }

    #[test]
    fn lifecycle_merge_folds_all_three() {
        let mut a = PrefetchLifecycle::default();
        a.issue_to_fill.record(10);
        let mut b = PrefetchLifecycle::default();
        b.fill_to_first_use.record(20);
        b.lifetime_unused.record(30);
        a.merge(&b);
        assert_eq!(a.issue_to_fill.count(), 1);
        assert_eq!(a.fill_to_first_use.count(), 1);
        assert_eq!(a.lifetime_unused.count(), 1);
    }
}
