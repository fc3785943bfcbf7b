//! The host performance observatory's harness half.
//!
//! The simulator measures *where host time goes* per run (see
//! `snake_sim::perfstat`); this module turns those measurements into
//! durable artifacts and decisions:
//!
//! * [`collect`] runs every `(benchmark, mechanism)` job `runs` times
//!   through the job executor, one at a time so samples never contend
//!   for cores, with [`GpuConfig::host_profile`] enabled and gathers
//!   one [`HostProfile`] per repetition;
//! * [`PerfReport`] serializes the samples plus a [`HostFingerprint`]
//!   (cpu count, rustc, git sha, cargo profile) into a
//!   schema-versioned `BENCH_<label>.json` via `snake_core::json`, and
//!   parses it back bit-exactly — every number is a `u64` lexeme;
//! * [`compare`] implements the noise-aware regression gate: medians
//!   are compared against an interquartile-range noise band, so a
//!   regression is only flagged when the delta clears both the
//!   relative threshold *and* the measured run-to-run noise.
//!
//! [`GpuConfig::host_profile`]: snake_sim::GpuConfig::host_profile

pub mod compare;

use std::path::Path;

use snake_core::json::{self, Value};
use snake_sim::perfstat::{Phase, PhaseStat};
use snake_sim::{HostProfile, SimError, StopReason};

use crate::runner::{ExecContext, Harness, JobRun};
use crate::supervise::{JobExecutor, JobSpec};

pub use compare::{CompareConfig, CompareResult, CompareRow};

/// Version stamped into every `BENCH_*.json`; bump when the shape of
/// the document changes incompatibly.
pub const SCHEMA_VERSION: u64 = 1;

/// Exit code for `repro --perf --compare` when the gate flags at least
/// one regression (0/3/4 are taken by the sweep supervisor).
pub const EXIT_PERF_REGRESSION: i32 = 5;

/// Identity of the machine and toolchain a perf report was measured
/// on. Compared loudly (a warning, not a failure) before gating: a
/// baseline from a different host is still *informative*, but its
/// noise band does not transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostFingerprint {
    /// Logical CPUs available to the process.
    pub cpus: u64,
    /// `rustc --version` line, or `"unknown"`.
    pub rustc: String,
    /// Short git revision of the working tree, suffixed `-dirty` when
    /// the tree has uncommitted changes, or `"unknown"`.
    pub git_sha: String,
    /// `"debug"` or `"release"` (from `cfg!(debug_assertions)`).
    pub cargo_profile: String,
    /// Operating system the binary was compiled for.
    pub os: String,
}

impl HostFingerprint {
    /// Captures the current host's fingerprint. Never fails: fields
    /// that cannot be determined degrade to `"unknown"`.
    pub fn capture() -> Self {
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(0);
        let rustc = command_line("rustc", &["--version"]);
        let git_sha = command_line("git", &["describe", "--always", "--dirty", "--abbrev=7"]);
        let cargo_profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        HostFingerprint {
            cpus,
            rustc,
            git_sha,
            cargo_profile: cargo_profile.into(),
            os: std::env::consts::OS.into(),
        }
    }

    /// Whether `other` was measured on the same machine and toolchain:
    /// every field but the revision, which a parent-versus-change
    /// comparison differs in by design.
    pub fn same_host(&self, other: &HostFingerprint) -> bool {
        self.cpus == other.cpus
            && self.rustc == other.rustc
            && self.cargo_profile == other.cargo_profile
            && self.os == other.os
    }

    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("cpus".into(), Value::u64(self.cpus)),
            ("rustc".into(), Value::str(&self.rustc)),
            ("git_sha".into(), Value::str(&self.git_sha)),
            ("cargo_profile".into(), Value::str(&self.cargo_profile)),
            ("os".into(), Value::str(&self.os)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, PerfError> {
        Ok(HostFingerprint {
            cpus: json::u64_field(v, "cpus")?,
            rustc: json::str_field(v, "rustc")?.into(),
            git_sha: json::str_field(v, "git_sha")?.into(),
            cargo_profile: json::str_field(v, "cargo_profile")?.into(),
            os: json::str_field(v, "os")?.into(),
        })
    }
}

/// First stdout line of `cmd args...`, or `"unknown"`.
fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        })
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// All repetitions of one `(benchmark, mechanism)` job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPerf {
    /// The job's manifest identity (`"<abbr>/<mechanism>"`).
    pub job: String,
    /// One [`HostProfile`] per repetition, in run order.
    pub samples: Vec<HostProfile>,
}

impl JobPerf {
    /// Wall-clock nanoseconds of every sample, in run order.
    pub fn wall_nanos(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.wall_nanos).collect()
    }

    /// Nanoseconds charged to `phase` in every sample, in run order.
    pub fn phase_nanos(&self, phase: Phase) -> Vec<u64> {
        self.samples.iter().map(|s| s.get(phase).nanos).collect()
    }
}

/// A complete perf measurement: fingerprint plus per-job samples —
/// the in-memory form of one `BENCH_<label>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Report label (`BENCH_<label>.json`).
    pub label: String,
    /// Repetitions per job this report was collected with.
    pub runs: u32,
    /// The measuring host.
    pub host: HostFingerprint,
    /// Per-job samples, in campaign order.
    pub jobs: Vec<JobPerf>,
}

/// A malformed or incompatible `BENCH_*.json`.
#[derive(Debug)]
pub enum PerfError {
    /// The file is not valid JSON.
    Json(json::ParseError),
    /// The document is JSON but not a perf report (the message names
    /// the missing or mistyped field).
    Shape(String),
    /// The report's schema version is not [`SCHEMA_VERSION`].
    Version(u64),
}

impl std::fmt::Display for PerfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PerfError::Json(e) => write!(f, "{e}"),
            PerfError::Shape(msg) => write!(f, "not a perf report: {msg}"),
            PerfError::Version(v) => write!(
                f,
                "perf report schema version {v} is not supported \
                 (this binary writes version {SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for PerfError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PerfError::Json(e) => Some(e),
            _ => None,
        }
    }
}

/// A missing or mistyped field makes the document not a perf report.
impl From<json::FieldError> for PerfError {
    fn from(e: json::FieldError) -> Self {
        PerfError::Shape(e.into())
    }
}

pub(crate) fn profile_to_json(p: &HostProfile) -> Value {
    let phases = p
        .iter()
        .map(|(phase, stat)| {
            Value::Obj(vec![
                ("phase".into(), Value::str(phase.label())),
                ("nanos".into(), Value::u64(stat.nanos)),
                ("calls".into(), Value::u64(stat.calls)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("wall_nanos".into(), Value::u64(p.wall_nanos)),
        ("cycles".into(), Value::u64(p.cycles)),
        ("trace_events".into(), Value::u64(p.trace_events)),
        ("phases".into(), Value::Arr(phases)),
    ])
}

pub(crate) fn profile_from_json(v: &Value) -> Result<HostProfile, PerfError> {
    let mut phases = Vec::new();
    for entry in json::arr_field(v, "phases")? {
        let label = json::str_field(entry, "phase")?;
        let phase = Phase::from_label(label)
            .ok_or_else(|| PerfError::Shape(format!("unknown phase {label:?}")))?;
        phases.push((
            phase,
            PhaseStat {
                nanos: json::u64_field(entry, "nanos")?,
                calls: json::u64_field(entry, "calls")?,
            },
        ));
    }
    Ok(HostProfile::from_parts(
        json::u64_field(v, "wall_nanos")?,
        json::u64_field(v, "cycles")?,
        json::u64_field(v, "trace_events")?,
        phases,
    ))
}

impl PerfReport {
    /// Renders the report as its canonical JSON document. Every number
    /// is an integer lexeme, so write → parse → write is bit-exact.
    pub fn to_json(&self) -> Value {
        let jobs = self
            .jobs
            .iter()
            .map(|j| {
                Value::Obj(vec![
                    ("job".into(), Value::str(&j.job)),
                    (
                        "samples".into(),
                        Value::Arr(j.samples.iter().map(profile_to_json).collect()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("schema_version".into(), Value::u64(SCHEMA_VERSION)),
            ("label".into(), Value::str(&self.label)),
            ("runs".into(), Value::u64(u64::from(self.runs))),
            ("host".into(), self.host.to_json()),
            ("jobs".into(), Value::Arr(jobs)),
        ])
    }

    /// Parses a report back from its JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`PerfError`] when the document is malformed or carries
    /// an unsupported schema version.
    pub fn from_json(v: &Value) -> Result<Self, PerfError> {
        let version = json::u64_field(v, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(PerfError::Version(version));
        }
        let mut jobs = Vec::new();
        for j in json::arr_field(v, "jobs")? {
            let mut samples = Vec::new();
            for s in json::arr_field(j, "samples")? {
                samples.push(profile_from_json(s)?);
            }
            jobs.push(JobPerf {
                job: json::str_field(j, "job")?.into(),
                samples,
            });
        }
        Ok(PerfReport {
            label: json::str_field(v, "label")?.into(),
            runs: json::u32_field(v, "runs")?,
            host: HostFingerprint::from_json(json::field(v, "host")?)?,
            jobs,
        })
    }

    /// Writes the report to `path` as one JSON document plus a
    /// trailing newline.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, format!("{}\n", self.to_json()))
    }

    /// Loads a report from `path`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error or the parse failure, stringly-merged so
    /// CLI callers get one diagnostic type.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        text.parse().map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The samples for `job`, if the report has them.
    pub fn job(&self, job: &str) -> Option<&JobPerf> {
        self.jobs.iter().find(|j| j.job == job)
    }
}

impl std::str::FromStr for PerfReport {
    type Err = PerfError;

    /// Parses a report from JSON text: invalid JSON, a malformed
    /// document, and an unsupported schema version all surface as
    /// [`PerfError`].
    fn from_str(text: &str) -> Result<Self, PerfError> {
        let v = json::parse(text).map_err(PerfError::Json)?;
        PerfReport::from_json(&v)
    }
}

/// A failed perf collection.
#[derive(Debug)]
pub enum CollectError {
    /// The harness configuration is invalid; no rep ran.
    Sim(SimError),
    /// A job did not finish, so the report could not be compared.
    Unfinished {
        /// The job's identity (`"<abbr>/<mechanism>"`).
        job: String,
        /// What happened instead: the executor's error, a suspension,
        /// a cancellation, or the deadlock report.
        why: String,
    },
}

impl std::fmt::Display for CollectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CollectError::Sim(e) => write!(f, "{e}"),
            CollectError::Unfinished { job, why } => write!(
                f,
                "perf collection needs every job to finish: {job} did not ({why})"
            ),
        }
    }
}

impl std::error::Error for CollectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectError::Sim(e) => Some(e),
            CollectError::Unfinished { .. } => None,
        }
    }
}

/// Collects a perf report: `runs` passes over `jobs`, one job after
/// another on the calling thread, with host profiling enabled
/// (samples must not contend with each other for cores — parallel
/// jobs would measure the scheduler, not the simulator). Each rep calls
/// `executor` directly: a perf pass wants samples, not retries. A
/// sandbox `executor` gives each rep a fresh address space, so
/// allocator state and heap layout from one rep cannot contaminate the
/// next; host profiles travel back over the child protocol losslessly.
///
/// # Errors
///
/// Returns [`CollectError`] when the harness is invalid, or at the
/// first job that does not finish (an executor error, a suspension, a
/// cancellation or a deadlock): a report with a missing job cannot be
/// compared. A job that panics in-thread panics the caller.
pub fn collect(
    h: &Harness,
    jobs: &[JobSpec],
    runs: u32,
    label: &str,
    executor: std::sync::Arc<JobExecutor>,
) -> Result<PerfReport, CollectError> {
    h.validate().map_err(CollectError::Sim)?;
    let mut h = h.clone();
    h.cfg.host_profile = true;
    let mut perfs: Vec<JobPerf> = jobs
        .iter()
        .map(|job| JobPerf {
            job: job.id(),
            samples: Vec::new(),
        })
        .collect();
    for _ in 0..runs {
        for (job, perf) in jobs.iter().zip(&mut perfs) {
            let why = match executor.run(&h, job, &ExecContext::default(), &mut |_, _| {}) {
                Ok(JobRun::Finished(out)) => match out.stop {
                    StopReason::Deadlock(report) => format!("deadlock: {report}"),
                    _ => {
                        perf.samples.extend(out.host);
                        continue;
                    }
                },
                Ok(JobRun::Suspended { cycle, .. }) => format!("suspended at cycle {cycle}"),
                Ok(JobRun::Cancelled) => "cancelled".into(),
                Err(e) => e.to_string(),
            };
            return Err(CollectError::Unfinished { job: job.id(), why });
        }
    }
    Ok(PerfReport {
        label: label.to_string(),
        runs,
        host: HostFingerprint::capture(),
        jobs: perfs,
    })
}

/// Renders one job's median per-phase wall time as a printable table
/// (`repro --profile` / `pfdebug --profile`).
pub fn profile_table(job: &str, samples: &[HostProfile]) -> crate::report::Table {
    use crate::report::Table;
    let mut t = Table::new(
        format!("Host profile — {job}"),
        vec![
            "phase".into(),
            "ms".into(),
            "calls".into(),
            "ns/call".into(),
            "% wall".into(),
        ],
    );
    if samples.is_empty() {
        t.note("no samples collected");
        return t;
    }
    let wall = compare::median(&samples.iter().map(|s| s.wall_nanos).collect::<Vec<_>>());
    for phase in Phase::ALL {
        let nanos = compare::median(
            &samples
                .iter()
                .map(|s| s.get(phase).nanos)
                .collect::<Vec<_>>(),
        );
        let calls = compare::median(
            &samples
                .iter()
                .map(|s| s.get(phase).calls)
                .collect::<Vec<_>>(),
        );
        let ns_per_call = if calls > 0.0 { nanos / calls } else { 0.0 };
        let share = if wall > 0.0 {
            100.0 * nanos / wall
        } else {
            0.0
        };
        t.push_row(vec![
            phase.label().into(),
            format!("{:.3}", nanos / 1e6),
            format!("{calls:.0}"),
            format!("{ns_per_call:.0}"),
            format!("{share:.1}"),
        ]);
    }
    let accounted: f64 = Phase::ALL
        .iter()
        .map(|&p| compare::median(&samples.iter().map(|s| s.get(p).nanos).collect::<Vec<_>>()))
        .sum();
    t.push_row(vec![
        "(unaccounted)".into(),
        format!("{:.3}", (wall - accounted).max(0.0) / 1e6),
        "-".into(),
        "-".into(),
        format!(
            "{:.1}",
            if wall > 0.0 {
                100.0 * (wall - accounted).max(0.0) / wall
            } else {
                0.0
            }
        ),
    ]);
    let sample = &samples[samples.len() / 2];
    t.note(format!(
        "median of {} run(s); wall {:.3} ms, {:.0} cycles/s, {:.0} trace events/s",
        samples.len(),
        wall / 1e6,
        sample.cycles_per_sec(),
        sample.events_per_sec()
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    fn sample_profile(scale: u64) -> HostProfile {
        HostProfile::from_parts(
            1_000_000 * scale,
            5_000,
            42,
            Phase::ALL.iter().enumerate().map(|(i, &p)| {
                (
                    p,
                    PhaseStat {
                        nanos: (i as u64 + 1) * 1_000 * scale,
                        calls: (i as u64 + 1) * 10,
                    },
                )
            }),
        )
    }

    fn sample_report() -> PerfReport {
        PerfReport {
            label: "unit".into(),
            runs: 2,
            host: HostFingerprint {
                cpus: 8,
                rustc: "rustc 1.0".into(),
                git_sha: "abc1234".into(),
                cargo_profile: "debug".into(),
                os: "linux".into(),
            },
            jobs: vec![JobPerf {
                job: "LPS/snake".into(),
                samples: vec![sample_profile(1), sample_profile(2)],
            }],
        }
    }

    #[test]
    fn report_round_trips_bit_exact() {
        let report = sample_report();
        let text = report.to_json().to_string();
        let parsed = PerfReport::from_str(&text).unwrap();
        assert_eq!(parsed, report);
        // Bit-exact: write -> parse -> write reproduces the bytes.
        assert_eq!(parsed.to_json().to_string(), text);
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut v = sample_report().to_json();
        if let Value::Obj(entries) = &mut v {
            entries[0].1 = Value::u64(99);
        }
        match PerfReport::from_json(&v) {
            Err(PerfError::Version(99)) => {}
            other => panic!("expected version error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_name_the_field() {
        let err = PerfReport::from_str("{\"schema_version\":1}").unwrap_err();
        assert!(err.to_string().contains("jobs"), "{err}");
        let err = PerfReport::from_str("not json").unwrap_err();
        assert!(matches!(err, PerfError::Json(_)));
    }

    #[test]
    fn fingerprint_capture_never_fails() {
        let fp = HostFingerprint::capture();
        assert!(!fp.os.is_empty());
        assert!(!fp.cargo_profile.is_empty());
        // rustc/git may be missing in a stripped container; the field
        // degrades to "unknown" rather than erroring.
        assert!(!fp.rustc.is_empty());
        assert!(!fp.git_sha.is_empty());
    }

    #[test]
    fn profile_table_lists_every_phase() {
        let t = profile_table("LPS/snake", &[sample_profile(1)]);
        let rendered = t.to_string();
        for phase in Phase::ALL {
            assert!(rendered.contains(phase.label()), "missing {phase}");
        }
        assert!(rendered.contains("(unaccounted)"));
    }
}
