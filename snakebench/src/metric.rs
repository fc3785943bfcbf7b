//! Metric declarations, output checks and the printed result.
//!
//! The names here are the benchmark's contract: `BENCHMARK.json` at
//! the repository root lists the same end-to-end and per-layer
//! metrics, and a test keeps the two in step.

use std::fmt::Write as _;

use crate::paper::FIGURES;

/// End-to-end metrics, with units. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("sim_minstr_per_s", "Minstr/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, with units, apart from the per-figure times of
/// [`FIGURES`]. A layer a workload does not exercise reads 0.
const LAYERS: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("sim.new_ms", "ms"),
    ("sim.step_ns_idle", "ns"),
    ("sim.step_ns_active", "ns"),
    ("sim.idle_time_share", "ratio"),
    ("metrics.report_us", "us"),
    ("snapshot.capture_ms", "ms"),
    ("snapshot.write_ms", "ms"),
    ("snapshot.load_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.bytes", "bytes"),
    ("executor.sandbox_overhead_ms", "ms"),
    ("figures.matrix_s", "s"),
    ("report.render_ms", "ms"),
    ("bench.trace_overhead", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("job.p50_ms", "ms"),
    ("job.p90_ms", "ms"),
    ("profile.sm_issue_share", "ratio"),
    ("profile.l1_lookup_share", "ratio"),
    ("profile.mshr_share", "ratio"),
    ("profile.prefetch_share", "ratio"),
    ("profile.noc_share", "ratio"),
    ("profile.mem_partition_share", "ratio"),
    ("profile.observability_share", "ratio"),
    ("profile.unaccounted_share", "ratio"),
    ("profile.overhead_ratio", "ratio"),
    ("profile.mcycles_per_s", "Mcycles/s"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("sim.idle_cycle_share", "ratio"),
    ("sm.issue_slot_util", "ratio"),
    ("sm.mem_stall_share", "ratio"),
    ("l1.accesses", "count"),
    ("l1.hit_rate", "ratio"),
    ("l1.reservation_fail_rate", "ratio"),
    ("mshr.stall_share", "ratio"),
    ("noc.bytes", "bytes"),
    ("noc.stall_share", "ratio"),
    ("l2.hit_rate", "ratio"),
    ("dram.reads", "count"),
    ("prefetch.issued", "count"),
    ("prefetch.useful_ratio", "ratio"),
    ("prefetch.late_share", "ratio"),
    ("fidelity.speedup_gap_pp", "pp"),
    ("fidelity.coverage_gap_pp", "pp"),
    ("fidelity.accuracy_gap_pp", "pp"),
];

/// Every per-layer metric name with its unit, in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    all.extend(FIGURES.iter().map(|(span, _)| (format!("{span}_s"), "s")));
    all
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms` or `ratio`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// A fixed set of declared metrics, each starting at `init`.
#[derive(Debug, Clone)]
pub struct MetricSet(Vec<Metric>);

impl MetricSet {
    /// The declared metrics, all set to `init` with no samples.
    fn declared(decl: impl IntoIterator<Item = (String, &'static str)>, init: f64) -> Self {
        MetricSet(
            decl.into_iter()
                .map(|(name, unit)| Metric {
                    name,
                    unit,
                    value: init,
                    n: 0,
                })
                .collect(),
        )
    }

    /// The end-to-end metrics, unset (NaN) until measured.
    pub fn end_to_end() -> Self {
        Self::declared(
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)),
            f64::NAN,
        )
    }

    /// The per-layer metrics, 0 until measured.
    pub fn per_layer() -> Self {
        Self::declared(per_layer(), 0.0)
    }

    /// Sets a declared metric.
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: that is a bug in this benchmark.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let m = self
            .0
            .iter_mut()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        m.value = value;
        m.n = n;
    }

    /// The value of a metric, if declared.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The metrics in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// Output checks: every checked operation counts as attempted, and as
/// failed when its check does not hold.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Checks {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records an operation that could not run at all.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        self.check(false, || what);
    }
}

/// A JSON number; non-finite values (which JSON cannot hold) print as
/// `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One metric as a JSON line.
pub fn metric_line(workload: &str, m: &Metric) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"metric\":\"{}\",\"value\":{},\"unit\":\"{}\",\"n\":{}}}",
        m.name,
        num(m.value),
        m.unit,
        m.n
    )
}

/// The digest line: FNV-1a over the simulated results, in job order.
pub fn digest_line(workload: &str, digest: u64, n: usize) -> String {
    format!(
        "{{\"workload\":\"{workload}\",\"metric\":\"sim_digest\",\"value\":\"{digest:016x}\",\"unit\":\"fnv1a64\",\"n\":{n}}}"
    )
}

/// The result object: the last line a run prints.
pub fn result_line(checks: &Checks, metrics: &MetricSet) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            num(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{body}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        assert!(names.len() <= 16 + 128);
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        assert!(valid_name("sim.step_ns_idle"));
        assert!(valid_name("9a-b"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/name"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared: Vec<String> = END_TO_END
            .iter()
            .map(|(n, _)| n.to_string())
            .chain(per_layer().into_iter().map(|(n, _)| n))
            .collect();
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split('"').next())
            .collect();
        for n in &declared {
            assert!(
                listed.contains(&n.as_str()),
                "{n} missing from BENCHMARK.json"
            );
        }
        for (n, u) in END_TO_END {
            assert!(
                text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "{n} [{u}]"
            );
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = MetricSet::end_to_end();
        for (n, _) in END_TO_END {
            m.set(n, 1.5, 3);
        }
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let line = result_line(&checks, &m);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        checks.fail("boom");
        assert!(
            result_line(&checks, &m).starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1")
        );
    }

    #[test]
    fn non_finite_values_print_as_null() {
        let m = Metric {
            name: "x".into(),
            unit: "s",
            value: f64::NAN,
            n: 0,
        };
        assert!(metric_line("w", &m).contains("\"value\":null"));
    }
}
