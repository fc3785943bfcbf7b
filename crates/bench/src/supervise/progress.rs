//! Live sweep progress: a lock-free counter block the supervisor
//! updates as jobs finish, shared by `repro --progress` (stderr render
//! loop) and the `snaked` daemon (streamed to `snakectl tail`
//! subscribers). One source, two consumers — the numbers can never
//! disagree.

use std::sync::atomic::{AtomicU64, Ordering};

use snake_core::json::Value;

use super::manifest::JobRecord;

/// Monotone sweep counters, updated by the supervisor's worker threads
/// with relaxed atomics (exact totals matter, cross-counter ordering
/// does not — a reader may transiently see `done` bumped before
/// `retries`, never a wrong final count).
#[derive(Debug, Default)]
pub struct Progress {
    total: AtomicU64,
    done: AtomicU64,
    quarantined: AtomicU64,
    skipped: AtomicU64,
    suspended: AtomicU64,
    retries: AtomicU64,
    /// A gauge, not a monotone counter: jobs currently running past
    /// the sweep deadline plus the watchdog grace (set by the reaper
    /// thread, re-zeroed when the hang clears).
    overdue: AtomicU64,
}

impl Progress {
    /// Declares the sweep size and zeroes every bucket. Called once by
    /// the supervisor before any job runs; replayed (checkpointed)
    /// jobs are counted toward their buckets immediately after. The
    /// reset matters when one `Progress` instance spans several
    /// supervised slices of the same sweep (the daemon's
    /// deadline-requeue path): replayed jobs are re-observed each
    /// slice, so without it `done` would run past `total`.
    pub fn begin(&self, total: u64) {
        self.total.store(total, Ordering::Relaxed);
        self.done.store(0, Ordering::Relaxed);
        self.quarantined.store(0, Ordering::Relaxed);
        self.skipped.store(0, Ordering::Relaxed);
        self.suspended.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
        self.overdue.store(0, Ordering::Relaxed);
    }

    /// Records a finished job's outcome in its bucket: its record, or
    /// `None` for a job that was skipped.
    pub fn observe(&self, outcome: Option<&JobRecord>) {
        let bucket = match outcome {
            Some(JobRecord::Completed { .. }) => &self.done,
            Some(JobRecord::Quarantined { .. }) => &self.quarantined,
            None => &self.skipped,
            Some(JobRecord::Suspended { .. }) => &self.suspended,
        };
        bucket.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one retry (a failed attempt about to be re-run).
    pub fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the overdue gauge: how many jobs are still running past
    /// the sweep deadline plus the watchdog grace. Called only by the
    /// supervisor's watchdog thread.
    pub fn set_overdue(&self, n: u64) {
        self.overdue.store(n, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the counters for rendering.
    pub fn snapshot(&self) -> ProgressSnapshot {
        ProgressSnapshot {
            total: self.total.load(Ordering::Relaxed),
            done: self.done.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            skipped: self.skipped.load(Ordering::Relaxed),
            suspended: self.suspended.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            overdue: self.overdue.load(Ordering::Relaxed),
        }
    }
}

/// One observation of a [`Progress`] block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgressSnapshot {
    /// Jobs in the sweep.
    pub total: u64,
    /// Jobs that produced a report.
    pub done: u64,
    /// Jobs quarantined after exhausting their attempt budget.
    pub quarantined: u64,
    /// Jobs never started (deadline / stop-after / cancellation).
    pub skipped: u64,
    /// Jobs checkpointed mid-simulation.
    pub suspended: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Jobs currently running past the deadline + watchdog grace
    /// (a gauge: non-zero only while the hang persists).
    pub overdue: u64,
}

impl ProgressSnapshot {
    /// Jobs not yet accounted for in any terminal bucket.
    pub fn remaining(&self) -> u64 {
        self.total
            .saturating_sub(self.done + self.quarantined + self.skipped + self.suspended)
    }

    /// The human-readable one-liner `repro --progress` repaints:
    /// `sweep 3/8 done, 1 quarantined, 4 remaining, 2 retries, 12.3s`.
    /// Buckets that are zero (quarantined, suspended, skipped, retries)
    /// are omitted to keep the line short.
    pub fn render(&self, elapsed: std::time::Duration) -> String {
        let mut line = format!("sweep {}/{} done", self.done, self.total);
        if self.quarantined > 0 {
            line.push_str(&format!(", {} quarantined", self.quarantined));
        }
        if self.suspended > 0 {
            line.push_str(&format!(", {} suspended", self.suspended));
        }
        if self.skipped > 0 {
            line.push_str(&format!(", {} skipped", self.skipped));
        }
        line.push_str(&format!(", {} remaining", self.remaining()));
        if self.retries > 0 {
            line.push_str(&format!(", {} retries", self.retries));
        }
        if self.overdue > 0 {
            line.push_str(&format!(", {} OVERDUE", self.overdue));
        }
        line.push_str(&format!(", {:.1}s", elapsed.as_secs_f64()));
        line
    }

    /// The counters as a json object (the daemon's `progress` stream
    /// line payload).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("total".into(), Value::u64(self.total)),
            ("done".into(), Value::u64(self.done)),
            ("quarantined".into(), Value::u64(self.quarantined)),
            ("skipped".into(), Value::u64(self.skipped)),
            ("suspended".into(), Value::u64(self.suspended)),
            ("retries".into(), Value::u64(self.retries)),
            ("overdue".into(), Value::u64(self.overdue)),
            ("remaining".into(), Value::u64(self.remaining())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_core::MechanismReport;

    #[test]
    fn buckets_and_remaining() {
        let p = Progress::default();
        p.begin(5);
        p.observe(Some(&JobRecord::Completed {
            job: "LPS/snake".into(),
            attempts: 1,
            stop: "completed".into(),
            report: MechanismReport::default(),
        }));
        p.observe(Some(&JobRecord::Quarantined {
            job: "CP/snake".into(),
            attempts: 3,
            error: "panic".into(),
            crash: None,
            stderr: None,
        }));
        p.note_retry();
        p.note_retry();
        let s = p.snapshot();
        assert_eq!((s.total, s.done, s.quarantined), (5, 1, 1));
        assert_eq!(s.retries, 2);
        assert_eq!(s.remaining(), 3);
    }

    #[test]
    fn render_elides_zero_buckets() {
        let p = Progress::default();
        p.begin(4);
        p.observe(Some(&JobRecord::Completed {
            job: "LPS/snake".into(),
            attempts: 1,
            stop: "completed".into(),
            report: MechanismReport::default(),
        }));
        let line = p.snapshot().render(std::time::Duration::from_millis(1500));
        assert_eq!(line, "sweep 1/4 done, 3 remaining, 1.5s");
        p.observe(None);
        p.note_retry();
        let line = p.snapshot().render(std::time::Duration::ZERO);
        assert_eq!(
            line,
            "sweep 1/4 done, 1 skipped, 2 remaining, 1 retries, 0.0s"
        );
        p.set_overdue(2);
        let line = p.snapshot().render(std::time::Duration::ZERO);
        assert_eq!(
            line,
            "sweep 1/4 done, 1 skipped, 2 remaining, 1 retries, 2 OVERDUE, 0.0s"
        );
        p.set_overdue(0);
        let line = p.snapshot().render(std::time::Duration::ZERO);
        assert_eq!(
            line, "sweep 1/4 done, 1 skipped, 2 remaining, 1 retries, 0.0s",
            "the gauge clears when the hang does"
        );
    }

    #[test]
    fn json_shape_is_stable() {
        let p = Progress::default();
        p.begin(2);
        assert_eq!(
            p.snapshot().to_json().to_string(),
            "{\"total\":2,\"done\":0,\"quarantined\":0,\"skipped\":0,\
             \"suspended\":0,\"retries\":0,\"overdue\":0,\"remaining\":2}"
        );
    }
}
