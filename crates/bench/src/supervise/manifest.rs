//! The sweep checkpoint file: a [`crate::jsonl_log`] log whose first
//! line is a versioned header binding the file to a (harness,
//! campaign) fingerprint; each following line records one finished
//! job:
//!
//! ```text
//! {"manifest":"snake-sweep-manifest","version":1,"fingerprint":"ab12…","jobs":22}
//! {"job":"LPS/snake","state":"completed","attempts":1,"stop":"completed","report":{…}}
//! {"job":"MUM/mta","state":"quarantined","attempts":3,"error":"panic: …"}
//! {"job":"CP/snake","state":"suspended","attempts":1,"cycle":48213,"checkpoint":"sweep.CP-snake.ckpt"}
//! ```
//!
//! Crash consistency is the log's: the header is created atomically,
//! a record is durable before its job counts as checkpointed, and a
//! torn final record is dropped (that job simply re-runs on resume).
//!
//! Reports round-trip bit-exactly (see [`snake_core::json`]), which is
//! what makes a resumed sweep's rendered output byte-identical to an
//! uninterrupted run.

use std::path::Path;

use snake_core::json::{self, Value};
use snake_core::MechanismReport;

use super::executor::CrashKind;
use crate::jsonl_log::{self, Appender, Lines, LogError};

/// The header's `manifest` field — identifies the file format.
pub const MANIFEST_MAGIC: &str = "snake-sweep-manifest";

/// Current manifest format version.
pub const MANIFEST_VERSION: u64 = 1;

/// The manifest's first line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestHeader {
    /// Fingerprint of the (harness, campaign) pair the file belongs to.
    pub fingerprint: String,
    /// Number of jobs in the campaign.
    pub jobs: u64,
}

impl ManifestHeader {
    fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("manifest".into(), Value::str(MANIFEST_MAGIC)),
            ("version".into(), Value::u64(MANIFEST_VERSION)),
            ("fingerprint".into(), Value::str(&self.fingerprint)),
            ("jobs".into(), Value::u64(self.jobs)),
        ])
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let magic = json::str_field(v, "manifest")?;
        if magic != MANIFEST_MAGIC {
            return Err(format!("not a sweep manifest (magic {magic:?})"));
        }
        let version = json::u64_field(v, "version")?;
        if version != MANIFEST_VERSION {
            return Err(format!(
                "unsupported manifest version {version} (this build reads {MANIFEST_VERSION})"
            ));
        }
        Ok(ManifestHeader {
            fingerprint: json::str_field(v, "fingerprint")?.into(),
            jobs: json::u64_field(v, "jobs")?,
        })
    }
}

/// How one job of a sweep finished: the one shape the supervisor
/// returns, the manifest and the daemon journal append as they are,
/// and `snakectl status` lists.
//
// The report row dominates the enum's size; a sweep holds tens of
// these, so boxing it would only add churn at every construction and
// match site.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobRecord {
    /// The job produced a report (including budget-truncated runs).
    Completed {
        /// Job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Attempts it took (1 = first try).
        attempts: u32,
        /// Stop-reason label (`"completed"`, `"budget_exceeded"`, …).
        stop: String,
        /// The recorded report row.
        report: MechanismReport,
    },
    /// Every attempt panicked, deadlocked, or errored (or one hit a
    /// deterministic error); the job is quarantined and its siblings
    /// were unaffected.
    Quarantined {
        /// Job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Attempts made before giving up.
        attempts: u32,
        /// The last failure, human-readable.
        error: String,
        /// Typed crash classification when the failure was a process
        /// death (sandbox executor) or a panic; absent for typed
        /// simulator errors, deadlocks, and pre-isolation manifests.
        crash: Option<CrashKind>,
        /// Last stderr excerpt from a crashed sandboxed child.
        stderr: Option<String>,
    },
    /// The job was preempted mid-simulation (deadline or
    /// `suspend_after`); its complete simulator state is durable in the
    /// checkpoint file, and resume restores it instead of re-running
    /// from cycle zero.
    Suspended {
        /// Job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Attempts when it was suspended.
        attempts: u32,
        /// Simulation cycle the state was captured at.
        cycle: u64,
        /// Path of the mid-simulation checkpoint artifact.
        checkpoint: String,
    },
}

impl JobRecord {
    /// The job id this record belongs to.
    pub fn job(&self) -> &str {
        match self {
            JobRecord::Completed { job, .. }
            | JobRecord::Quarantined { job, .. }
            | JobRecord::Suspended { job, .. } => job,
        }
    }

    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> Value {
        match self {
            JobRecord::Completed {
                job,
                attempts,
                stop,
                report,
            } => Value::Obj(vec![
                ("job".into(), Value::str(job)),
                ("state".into(), Value::str("completed")),
                ("attempts".into(), Value::u64(u64::from(*attempts))),
                ("stop".into(), Value::str(stop)),
                ("report".into(), report.to_json()),
            ]),
            JobRecord::Quarantined {
                job,
                attempts,
                error,
                crash,
                stderr,
            } => {
                let mut fields = vec![
                    ("job".into(), Value::str(job)),
                    ("state".into(), Value::str("quarantined")),
                    ("attempts".into(), Value::u64(u64::from(*attempts))),
                    ("error".into(), Value::str(error)),
                ];
                // Optional fields are omitted entirely when absent, so
                // pre-isolation manifests stay byte-identical.
                if let Some(kind) = crash {
                    fields.push(("crash".into(), Value::str(kind.label())));
                }
                if let Some(excerpt) = stderr {
                    fields.push(("stderr".into(), Value::str(excerpt)));
                }
                Value::Obj(fields)
            }
            JobRecord::Suspended {
                job,
                attempts,
                cycle,
                checkpoint,
            } => Value::Obj(vec![
                ("job".into(), Value::str(job)),
                ("state".into(), Value::str("suspended")),
                ("attempts".into(), Value::u64(u64::from(*attempts))),
                ("cycle".into(), Value::u64(*cycle)),
                ("checkpoint".into(), Value::str(checkpoint)),
            ]),
        }
    }

    /// Parses one record line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let job = json::str_field(v, "job")?.to_string();
        let attempts = json::u32_field(v, "attempts")?;
        match json::str_field(v, "state")? {
            "completed" => Ok(JobRecord::Completed {
                job,
                attempts,
                stop: json::str_field(v, "stop")?.into(),
                report: MechanismReport::from_json(json::field(v, "report")?)?,
            }),
            "quarantined" => Ok(JobRecord::Quarantined {
                job,
                attempts,
                error: json::str_field(v, "error")?.into(),
                crash: match json::if_present(v, "crash", json::str_field)? {
                    Some(label) => Some(
                        CrashKind::parse(label)
                            .ok_or_else(|| format!("unknown crash kind {label:?}"))?,
                    ),
                    None => None,
                },
                stderr: json::if_present(v, "stderr", json::str_field)?.map(str::to_string),
            }),
            "suspended" => Ok(JobRecord::Suspended {
                job,
                attempts,
                cycle: json::u64_field(v, "cycle")?,
                checkpoint: json::str_field(v, "checkpoint")?.into(),
            }),
            other => Err(format!("unknown record state {other:?}")),
        }
    }
}

/// A successfully loaded manifest.
#[derive(Debug)]
pub struct LoadedManifest {
    /// The validated header.
    pub header: ManifestHeader,
    /// Every intact record, in file order. A torn final line (crash
    /// mid-append) is dropped — that job just re-runs.
    pub records: Vec<JobRecord>,
}

fn decode(lines: &Lines) -> Result<LoadedManifest, LogError> {
    Ok(LoadedManifest {
        header: lines.decode_line(1, ManifestHeader::from_json)?,
        records: lines.decode_from(2, JobRecord::from_json)?,
    })
}

/// Creates a fresh manifest holding only `header`, atomically, and
/// opens it for appending records.
///
/// # Errors
///
/// [`LogError::Io`] on any file-system failure.
pub fn create(path: &Path, header: &ManifestHeader) -> Result<Appender, LogError> {
    Appender::create(path, Some(&header.to_json()))
}

/// Loads and validates a manifest without touching it.
///
/// # Errors
///
/// [`LogError`] when the file is unreadable, the header is invalid, or
/// a record is corrupt.
pub fn load(path: &Path) -> Result<LoadedManifest, LogError> {
    jsonl_log::load(path, "manifest", decode)
}

/// Loads a manifest and opens it for appending (resume): its torn
/// final line, if any, is truncated away so the next record starts on
/// a clean line.
///
/// # Errors
///
/// As [`load`]; the file is left untouched when it does not load.
pub fn open(path: &Path) -> Result<(LoadedManifest, Appender), LogError> {
    jsonl_log::open(path, "manifest", decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::PathBuf;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snake-manifest-{}-{name}", std::process::id()))
    }

    fn sample_report() -> MechanismReport {
        MechanismReport {
            mechanism: "snake".into(),
            app: "lps".into(),
            ipc: 1.0 / 3.0,
            coverage: 0.8,
            accuracy: 0.75,
            precision: 0.9,
            l1_hit_rate: 0.7,
            reservation_fail_rate: 0.1,
            noc_utilization: 0.3,
            memory_stall_fraction: 0.5,
            energy_j: 1e-3,
            cycles: 123_456_789_012_345,
            timeliness_p50: 40,
            timeliness_p90: 90,
            evicted_unused: 3,
            stall: [1.0 / 7.0, 0.05, 0.1, 0.05, 0.4, 0.15, 0.08, 0.02],
        }
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = tmp_path("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        let header = ManifestHeader {
            fingerprint: "deadbeefdeadbeef".into(),
            jobs: 2,
        };
        let completed = JobRecord::Completed {
            job: "LPS/snake".into(),
            attempts: 2,
            stop: "completed".into(),
            report: sample_report(),
        };
        let quarantined = JobRecord::Quarantined {
            job: "MUM/mta".into(),
            attempts: 3,
            error: "panic: boom".into(),
            crash: Some(CrashKind::Signal(11)),
            stderr: Some("Segmentation fault".into()),
        };
        let suspended = JobRecord::Suspended {
            job: "CP/snake".into(),
            attempts: 1,
            cycle: 48_213,
            checkpoint: "sweep.CP-snake.ckpt".into(),
        };
        {
            let mut w = create(&path, &header).unwrap();
            w.append(&completed.to_json()).unwrap();
            w.append(&quarantined.to_json()).unwrap();
            w.append(&suspended.to_json()).unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.header, header);
        assert_eq!(loaded.records, vec![completed, quarantined, suspended]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_and_record_bytes_are_pinned() {
        let header = ManifestHeader {
            fingerprint: "deadbeefdeadbeef".into(),
            jobs: 22,
        };
        assert_eq!(
            header.to_json().to_string(),
            r#"{"manifest":"snake-sweep-manifest","version":1,"fingerprint":"deadbeefdeadbeef","jobs":22}"#
        );
        let report = MechanismReport {
            mechanism: "snake".into(),
            app: "LPS".into(),
            ipc: 1.5,
            cycles: 4000,
            ..MechanismReport::default()
        };
        let cases = [
            (
                JobRecord::Completed {
                    job: "LPS/snake".into(),
                    attempts: 2,
                    stop: "budget_exceeded".into(),
                    report,
                },
                r#"{"job":"LPS/snake","state":"completed","attempts":2,"stop":"budget_exceeded","report":{"mechanism":"snake","app":"LPS","ipc":1.5,"coverage":0.0,"accuracy":0.0,"precision":0.0,"l1_hit_rate":0.0,"reservation_fail_rate":0.0,"noc_utilization":0.0,"memory_stall_fraction":0.0,"energy_j":0.0,"cycles":4000,"timeliness_p50":0,"timeliness_p90":0,"evicted_unused":0,"stall_issued":0.0,"stall_no_warp":0.0,"stall_barrier":0.0,"stall_scoreboard":0.0,"stall_mem_data":0.0,"stall_mem_mshr":0.0,"stall_mem_missq":0.0,"stall_mem_noc":0.0}}"#,
            ),
            (
                JobRecord::Quarantined {
                    job: "MUM/mta".into(),
                    attempts: 3,
                    error: "panic: boom \"quoted\"".into(),
                    crash: Some(CrashKind::Signal(11)),
                    stderr: Some("Segmentation fault".into()),
                },
                r#"{"job":"MUM/mta","state":"quarantined","attempts":3,"error":"panic: boom \"quoted\"","crash":"signal 11","stderr":"Segmentation fault"}"#,
            ),
            (
                JobRecord::Quarantined {
                    job: "MUM/mta".into(),
                    attempts: 1,
                    error: "deadlock: no progress".into(),
                    crash: None,
                    stderr: None,
                },
                r#"{"job":"MUM/mta","state":"quarantined","attempts":1,"error":"deadlock: no progress"}"#,
            ),
            (
                JobRecord::Quarantined {
                    job: "CP/snake".into(),
                    attempts: 1,
                    error: "sandboxed job CP/snake died: panic".into(),
                    crash: Some(CrashKind::Panic),
                    stderr: None,
                },
                r#"{"job":"CP/snake","state":"quarantined","attempts":1,"error":"sandboxed job CP/snake died: panic","crash":"panic"}"#,
            ),
            (
                JobRecord::Suspended {
                    job: "CP/snake".into(),
                    attempts: 1,
                    cycle: 48_213,
                    checkpoint: "sweep.CP-snake.ckpt".into(),
                },
                r#"{"job":"CP/snake","state":"suspended","attempts":1,"cycle":48213,"checkpoint":"sweep.CP-snake.ckpt"}"#,
            ),
        ];
        for (record, line) in cases {
            assert_eq!(record.to_json().to_string(), line);
        }
    }

    #[test]
    fn torn_tail_is_dropped_but_midfile_corruption_is_fatal() {
        let path = tmp_path("torn.jsonl");
        let header = ManifestHeader {
            fingerprint: "f".into(),
            jobs: 3,
        };
        let rec = JobRecord::Quarantined {
            job: "CP/mta".into(),
            attempts: 1,
            error: "e".into(),
            crash: None,
            stderr: None,
        };
        {
            let mut w = create(&path, &header).unwrap();
            w.append(&rec.to_json()).unwrap();
        }
        // Simulate a crash mid-append: a truncated record on the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\":\"LPS/sn").unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.records, vec![rec.clone()]);

        // The same garbage in the middle of the file is corruption.
        std::fs::write(
            &path,
            format!(
                "{}\n{{\"job\":\"LPS/sn\n{}\n",
                ManifestHeader {
                    fingerprint: "f".into(),
                    jobs: 3
                }
                .to_json(),
                rec.to_json()
            ),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, LogError::Malformed { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_to_heals_a_torn_tail() {
        let path = tmp_path("heal.jsonl");
        let _ = std::fs::remove_file(&path);
        let header = ManifestHeader {
            fingerprint: "f".into(),
            jobs: 2,
        };
        let first = JobRecord::Quarantined {
            job: "CP/mta".into(),
            attempts: 1,
            error: "e".into(),
            crash: None,
            stderr: None,
        };
        {
            let mut w = create(&path, &header).unwrap();
            w.append(&first.to_json()).unwrap();
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"job\":\"LPS/sn").unwrap();
        }
        // Resuming must not glue the next record onto the torn bytes.
        let second = JobRecord::Quarantined {
            job: "LPS/snake".into(),
            attempts: 2,
            error: "panic: boom".into(),
            crash: Some(CrashKind::Panic),
            stderr: None,
        };
        {
            let (_, mut w) = open(&path).unwrap();
            w.append(&second.to_json()).unwrap();
        }
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.records, vec![first, second]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let path = tmp_path("magic.jsonl");
        std::fs::write(&path, "{\"manifest\":\"other\",\"version\":1}\n").unwrap();
        assert!(load(&path).is_err());
        std::fs::write(
            &path,
            format!("{{\"manifest\":{MANIFEST_MAGIC:?},\"version\":99,\"fingerprint\":\"f\",\"jobs\":1}}\n"),
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_nothing_but_load_reports_missing_file() {
        let path = tmp_path("missing.jsonl");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(load(&path).unwrap_err(), LogError::Io { .. }));
    }
}
