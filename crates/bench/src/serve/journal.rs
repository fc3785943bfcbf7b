//! The daemon's crash-consistent state journal: a headerless
//! [`crate::jsonl_log`] log, one event object per line:
//!
//! ```text
//! {"event":"submitted","id":1,"spec":{"benchmarks":"LPS","quick":true}}
//! {"event":"running","id":1}
//! {"event":"checkpoint","id":1,"job":"LPS/snake","cycle":2000,"path":"state.jsonl.j1.LPS-snake.ckpt"}
//! {"event":"job","id":1,"record":{"job":"LPS/snake","state":"completed",...}}
//! {"event":"checkpoint_cleared","id":1,"job":"LPS/snake"}
//! {"event":"done","id":1,"terminal":true,"exit":0}
//! ```
//!
//! The `submitted` / `"terminal":true` line shapes are a stable
//! contract: the CI journal-balance check counts them with `grep`, and
//! `submitted == terminal` is the no-orphans invariant.
//!
//! Three layers, separable on purpose:
//!
//! * [`JournalEvent`] — the typed line vocabulary with bidirectional
//!   JSON mapping (job records reuse the manifest's
//!   [`JobRecord`] serialization verbatim, so the sweep and serving
//!   planes journal identical facts);
//! * [`Journal`] — the append handle. Writes are best-effort by design
//!   (a full disk must never take down running simulations) but *never
//!   silent*: every failed append is counted and flips the sticky
//!   degraded flag that `status` and `health` surface;
//! * [`Journal::open`] / [`load`] + [`recover`] — replay: read the
//!   surviving events, then pure-functionally fold them into per-job
//!   recovered state (what to re-queue, what was terminal, which
//!   mid-simulation checkpoints are still live). `recover` touches no
//!   I/O, so property tests can feed it arbitrary event interleavings.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use snake_core::json::Value;

use super::protocol::SubmitSpec;
use crate::jsonl_log::{self, Appender, Lines, LogError};
use crate::supervise::JobRecord;

/// One journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A sweep was accepted; `spec` is everything needed to re-resolve
    /// it after a restart (including client id and priority).
    Submitted {
        /// The daemon-assigned job id.
        id: u64,
        /// The submitted spec, replayable through `resolve`.
        spec: SubmitSpec,
    },
    /// The scheduler started (or restarted) running the job.
    Running {
        /// The job id.
        id: u64,
    },
    /// The job went back to the queue (deadline suspension, or restart
    /// recovery re-queueing a non-terminal job).
    Requeued {
        /// The job id.
        id: u64,
    },
    /// One supervised sub-job reached a durable record (completed,
    /// quarantined, or suspended) — the manifest vocabulary, reused.
    Job {
        /// The sweep the sub-job belongs to.
        id: u64,
        /// The sub-job's manifest record.
        record: JobRecord,
    },
    /// A mid-simulation checkpoint became durable on disk.
    Checkpoint {
        /// The sweep the sub-job belongs to.
        id: u64,
        /// The sub-job id, `"<abbr>/<mechanism>"`.
        job: String,
        /// Simulation cycle the state was captured at.
        cycle: u64,
        /// Path of the checkpoint artifact.
        path: String,
    },
    /// A sub-job's checkpoint artifact was removed (the sub-job
    /// finished, or its sweep was cancelled).
    CheckpointCleared {
        /// The sweep the sub-job belongs to.
        id: u64,
        /// The sub-job id.
        job: String,
    },
    /// The sweep reached a terminal state; balances its `submitted`.
    Terminal {
        /// The job id.
        id: u64,
        /// `"done"` or `"cancelled"`.
        state: String,
        /// The exit code `snakectl tail` reports for it.
        exit: i32,
    },
}

impl JournalEvent {
    /// Serializes to one compact JSON line (no trailing newline).
    pub fn to_json(&self) -> Value {
        let base = |event: &str, id: u64| {
            vec![
                ("event".to_string(), Value::str(event)),
                ("id".to_string(), Value::u64(id)),
            ]
        };
        match self {
            JournalEvent::Submitted { id, spec } => {
                let mut fields = base("submitted", *id);
                fields.push(("spec".into(), spec.to_json()));
                Value::Obj(fields)
            }
            JournalEvent::Running { id } => Value::Obj(base("running", *id)),
            JournalEvent::Requeued { id } => Value::Obj(base("requeued", *id)),
            JournalEvent::Job { id, record } => {
                let mut fields = base("job", *id);
                fields.push(("record".into(), record.to_json()));
                Value::Obj(fields)
            }
            JournalEvent::Checkpoint {
                id,
                job,
                cycle,
                path,
            } => {
                let mut fields = base("checkpoint", *id);
                fields.push(("job".into(), Value::str(job)));
                fields.push(("cycle".into(), Value::u64(*cycle)));
                fields.push(("path".into(), Value::str(path)));
                Value::Obj(fields)
            }
            JournalEvent::CheckpointCleared { id, job } => {
                let mut fields = base("checkpoint_cleared", *id);
                fields.push(("job".into(), Value::str(job)));
                Value::Obj(fields)
            }
            JournalEvent::Terminal { id, state, exit } => {
                let mut fields = base(state, *id);
                fields.push(("terminal".into(), Value::Bool(true)));
                fields.push(("exit".into(), Value::u64((*exit).max(0) as u64)));
                Value::Obj(fields)
            }
        }
    }

    /// Parses one journal line.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let event = v
            .get("event")
            .and_then(Value::as_str)
            .ok_or("missing \"event\" field")?;
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or("missing \"id\" field")?;
        let job = || -> Result<String, String> {
            Ok(v.get("job")
                .and_then(Value::as_str)
                .ok_or("missing \"job\" field")?
                .to_string())
        };
        match event {
            "submitted" => Ok(JournalEvent::Submitted {
                id,
                spec: match v.get("spec") {
                    Some(spec) => SubmitSpec::from_json(spec),
                    // PR-5-era journals had no spec; an empty spec still
                    // resolves (full campaign at default priority).
                    None => SubmitSpec::default(),
                },
            }),
            "running" => Ok(JournalEvent::Running { id }),
            "requeued" => Ok(JournalEvent::Requeued { id }),
            "job" => Ok(JournalEvent::Job {
                id,
                record: JobRecord::from_json(v.get("record").ok_or("missing \"record\" field")?)?,
            }),
            "checkpoint" => Ok(JournalEvent::Checkpoint {
                id,
                job: job()?,
                cycle: v
                    .get("cycle")
                    .and_then(Value::as_u64)
                    .ok_or("missing \"cycle\" field")?,
                path: v
                    .get("path")
                    .and_then(Value::as_str)
                    .ok_or("missing \"path\" field")?
                    .to_string(),
            }),
            "checkpoint_cleared" => Ok(JournalEvent::CheckpointCleared { id, job: job()? }),
            state if v.get("terminal").and_then(Value::as_bool) == Some(true) => {
                Ok(JournalEvent::Terminal {
                    id,
                    state: state.to_string(),
                    exit: v
                        .get("exit")
                        .and_then(Value::as_u64)
                        .ok_or("missing \"exit\" field")? as i32,
                })
            }
            other => Err(format!("unknown journal event {other:?}")),
        }
    }
}

/// Append handle on the daemon's state journal.
///
/// Appends are deliberately infallible at the call site: a journal
/// failure (disk full, device error) must degrade observability, not
/// availability — running simulations keep going. But the loss is
/// *counted*, not swallowed: [`Journal::errors`] and
/// [`Journal::degraded`] feed the `journal_degraded` field in `status`
/// and `health`, and the degraded flag is sticky because a journal
/// with a hole in it can no longer prove the no-orphans invariant.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    log: Mutex<Appender>,
    errors: AtomicU64,
}

fn decode(lines: &Lines) -> Result<Vec<JournalEvent>, LogError> {
    lines.decode_from(1, JournalEvent::from_json)
}

impl Journal {
    /// Opens (or creates) the journal for appending and returns the
    /// events it already holds; its torn final line, if any, is
    /// truncated away so a new event is never glued onto partial bytes.
    /// Non-regular targets (`/dev/null`, a full device node) have no
    /// replayable history — reading one could block forever — so they
    /// are opened as-is and the degradation counters do their job.
    ///
    /// # Errors
    ///
    /// [`LogError`] when the journal cannot be read, truncated or
    /// opened, or holds a corrupt line (which leaves it untouched).
    pub fn open(path: &Path) -> Result<(Vec<JournalEvent>, Journal), LogError> {
        let (events, log) = if path.is_file() {
            jsonl_log::open(path, "journal", decode)?
        } else {
            (Vec::new(), Appender::open_as_is(path)?)
        };
        let journal = Journal {
            path: path.to_path_buf(),
            log: Mutex::new(log),
            errors: AtomicU64::new(0),
        };
        Ok((events, journal))
    }

    /// Appends one event, making it durable before returning. On
    /// failure the event is lost but the loss is counted — see the
    /// type-level contract.
    pub fn append(&self, event: &JournalEvent) {
        let line = event.to_json();
        let mut log = self.log.lock().expect("no journal append panics");
        if log.append(&line).is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Number of events lost to append failures.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// True once any append has failed. Sticky: a journal that lost
    /// even one event can no longer prove `submitted == terminal`.
    pub fn degraded(&self) -> bool {
        self.errors() > 0
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Loads a journal without touching it, dropping a torn final line
/// (the events before it are intact and sufficient).
///
/// # Errors
///
/// [`LogError`] when the file is unreadable or holds a corrupt line.
pub fn load(path: &Path) -> Result<Vec<JournalEvent>, LogError> {
    jsonl_log::load(path, "journal", decode)
}

/// One job reconstructed from the journal.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    /// The daemon-assigned id it had (and keeps).
    pub id: u64,
    /// The spec it was submitted with.
    pub spec: SubmitSpec,
    /// `Some((state, exit))` when the journal recorded a terminal line;
    /// `None` means the job is non-terminal and must be re-queued.
    pub terminal: Option<(String, i32)>,
    /// Last durable record per sub-job. For a non-terminal job this is
    /// the replay set handed to the supervisor — a live checkpoint
    /// newer than the sub-job's last record (the daemon died after the
    /// checkpoint but before the record) is folded in as a synthesized
    /// `Suspended` record, which is exactly what resurrects the
    /// simulation mid-run.
    pub records: HashMap<String, JobRecord>,
    /// Checkpoint artifacts journaled and never cleared, keyed by
    /// sub-job id. For terminal jobs these are stale files to sweep up.
    pub live_checkpoints: HashMap<String, String>,
}

/// Everything [`recover`] reconstructed.
#[derive(Debug, Default, PartialEq)]
pub struct Recovered {
    /// Jobs in id order.
    pub jobs: Vec<RecoveredJob>,
    /// The next id a fresh submit gets (max recovered id + 1).
    pub next_id: u64,
}

/// Folds a journal's events into recovered per-job state. Pure — no
/// file-system access — so the replay rules are property-testable
/// against arbitrary event interleavings.
pub fn recover(events: &[JournalEvent]) -> Recovered {
    struct Acc {
        spec: SubmitSpec,
        // (event index, record): the index orders records against
        // checkpoints, deciding which of the two is the job's truth.
        records: HashMap<String, (usize, JobRecord)>,
        ckpts: HashMap<String, (usize, u64, String)>,
        terminal: Option<(String, i32)>,
    }
    let mut accs: BTreeMap<u64, Acc> = BTreeMap::new();
    for (n, ev) in events.iter().enumerate() {
        match ev {
            JournalEvent::Submitted { id, spec } => {
                accs.insert(
                    *id,
                    Acc {
                        spec: spec.clone(),
                        records: HashMap::new(),
                        ckpts: HashMap::new(),
                        terminal: None,
                    },
                );
            }
            JournalEvent::Running { .. } | JournalEvent::Requeued { .. } => {}
            JournalEvent::Job { id, record } => {
                if let Some(a) = accs.get_mut(id) {
                    a.records
                        .insert(record.job().to_string(), (n, record.clone()));
                }
            }
            JournalEvent::Checkpoint {
                id,
                job,
                cycle,
                path,
            } => {
                if let Some(a) = accs.get_mut(id) {
                    a.ckpts.insert(job.clone(), (n, *cycle, path.clone()));
                }
            }
            JournalEvent::CheckpointCleared { id, job } => {
                if let Some(a) = accs.get_mut(id) {
                    a.ckpts.remove(job);
                }
            }
            JournalEvent::Terminal { id, state, exit } => {
                if let Some(a) = accs.get_mut(id) {
                    a.terminal = Some((state.clone(), *exit));
                }
            }
        }
    }
    let next_id = accs.keys().next_back().map_or(1, |max| max + 1);
    let jobs = accs
        .into_iter()
        .map(|(id, a)| {
            let mut records: HashMap<String, JobRecord> = HashMap::new();
            for (job, (rec_n, rec)) in &a.records {
                let newer_ckpt = a
                    .terminal
                    .is_none()
                    .then(|| a.ckpts.get(job).filter(|(ck_n, _, _)| ck_n > rec_n))
                    .flatten();
                match newer_ckpt {
                    // The simulation advanced past this record before
                    // the crash: resume from the checkpoint instead.
                    Some((_, cycle, path)) => {
                        records.insert(
                            job.clone(),
                            JobRecord::Suspended {
                                job: job.clone(),
                                attempts: 1,
                                cycle: *cycle,
                                checkpoint: path.clone(),
                            },
                        );
                    }
                    None => {
                        records.insert(job.clone(), rec.clone());
                    }
                }
            }
            if a.terminal.is_none() {
                // Checkpoints for sub-jobs with no record at all: the
                // daemon died mid-first-run of that sub-job.
                for (job, (_, cycle, path)) in &a.ckpts {
                    records.entry(job.clone()).or_insert(JobRecord::Suspended {
                        job: job.clone(),
                        attempts: 1,
                        cycle: *cycle,
                        checkpoint: path.clone(),
                    });
                }
            }
            RecoveredJob {
                id,
                spec: a.spec,
                terminal: a.terminal,
                records,
                live_checkpoints: a
                    .ckpts
                    .into_iter()
                    .map(|(job, (_, _, path))| (job, path))
                    .collect(),
            }
        })
        .collect();
    Recovered { jobs, next_id }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snake_core::json;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn ev_roundtrip(ev: JournalEvent) {
        let line = ev.to_json().to_string();
        let back = JournalEvent::from_json(&json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, ev, "line was {line}");
    }

    #[test]
    fn events_round_trip() {
        ev_roundtrip(JournalEvent::Submitted {
            id: 3,
            spec: SubmitSpec {
                benchmarks: Some("LPS".into()),
                client: Some("alice".into()),
                deadline_ms: Some(250),
                checkpoint_every: Some(1000),
                priority: 2,
                quick: true,
                ..SubmitSpec::default()
            },
        });
        ev_roundtrip(JournalEvent::Running { id: 3 });
        ev_roundtrip(JournalEvent::Requeued { id: 3 });
        ev_roundtrip(JournalEvent::Job {
            id: 3,
            record: JobRecord::Quarantined {
                job: "LPS/snake".into(),
                attempts: 2,
                error: "panic: boom".into(),
                crash: Some("signal 9".into()),
                stderr: Some("Killed".into()),
            },
        });
        ev_roundtrip(JournalEvent::Checkpoint {
            id: 3,
            job: "LPS/snake".into(),
            cycle: 4000,
            path: "state.jsonl.j3.LPS-snake.ckpt".into(),
        });
        ev_roundtrip(JournalEvent::CheckpointCleared {
            id: 3,
            job: "LPS/snake".into(),
        });
        ev_roundtrip(JournalEvent::Terminal {
            id: 3,
            state: "done".into(),
            exit: 0,
        });
        ev_roundtrip(JournalEvent::Terminal {
            id: 4,
            state: "cancelled".into(),
            exit: 7,
        });
    }

    #[test]
    fn terminal_lines_keep_the_grep_contract() {
        // ci.sh balances the journal with these exact substrings.
        let sub = JournalEvent::Submitted {
            id: 1,
            spec: SubmitSpec::default(),
        }
        .to_json()
        .to_string();
        assert!(sub.contains("\"event\":\"submitted\""), "{sub}");
        let term = JournalEvent::Terminal {
            id: 1,
            state: "done".into(),
            exit: 0,
        }
        .to_json()
        .to_string();
        assert!(term.contains("\"terminal\":true"), "{term}");
        assert!(term.contains("\"event\":\"done\""), "{term}");
    }

    #[test]
    fn recover_requeues_non_terminal_and_keeps_terminal() {
        let spec = SubmitSpec {
            priority: 5,
            ..SubmitSpec::default()
        };
        let events = vec![
            JournalEvent::Submitted {
                id: 1,
                spec: spec.clone(),
            },
            JournalEvent::Running { id: 1 },
            JournalEvent::Terminal {
                id: 1,
                state: "done".into(),
                exit: 0,
            },
            JournalEvent::Submitted {
                id: 2,
                spec: SubmitSpec::default(),
            },
        ];
        let r = recover(&events);
        assert_eq!(r.next_id, 3);
        assert_eq!(r.jobs.len(), 2);
        assert_eq!(r.jobs[0].terminal, Some(("done".into(), 0)));
        assert_eq!(r.jobs[1].terminal, None);
        assert_eq!(r.jobs[1].spec, SubmitSpec::default());
        assert_eq!(r.jobs[0].spec, spec);
    }

    #[test]
    fn recover_synthesizes_suspension_from_a_live_checkpoint() {
        let events = vec![
            JournalEvent::Submitted {
                id: 1,
                spec: SubmitSpec::default(),
            },
            JournalEvent::Running { id: 1 },
            JournalEvent::Checkpoint {
                id: 1,
                job: "LPS/snake".into(),
                cycle: 6000,
                path: "j1.ckpt".into(),
            },
        ];
        let r = recover(&events);
        assert_eq!(
            r.jobs[0].records.get("LPS/snake"),
            Some(&JobRecord::Suspended {
                job: "LPS/snake".into(),
                attempts: 1,
                cycle: 6000,
                checkpoint: "j1.ckpt".into(),
            })
        );
        assert_eq!(
            r.jobs[0].live_checkpoints.get("LPS/snake"),
            Some(&"j1.ckpt".to_string())
        );
    }

    #[test]
    fn recover_prefers_newer_evidence() {
        let completed = JobRecord::Completed {
            job: "LPS/snake".into(),
            attempts: 1,
            stop: "completed".into(),
            report: snake_core::MechanismReport::default(),
        };
        // Record then newer checkpoint: the sim resumed and advanced —
        // the checkpoint wins.
        let mut events = vec![
            JournalEvent::Submitted {
                id: 1,
                spec: SubmitSpec::default(),
            },
            JournalEvent::Job {
                id: 1,
                record: completed.clone(),
            },
            JournalEvent::Checkpoint {
                id: 1,
                job: "LPS/snake".into(),
                cycle: 9000,
                path: "late.ckpt".into(),
            },
        ];
        let r = recover(&events);
        assert!(matches!(
            r.jobs[0].records.get("LPS/snake"),
            Some(JobRecord::Suspended { cycle: 9000, .. })
        ));
        // Checkpoint then newer record (plus a cleared checkpoint):
        // the record wins.
        events = vec![
            JournalEvent::Submitted {
                id: 1,
                spec: SubmitSpec::default(),
            },
            JournalEvent::Checkpoint {
                id: 1,
                job: "LPS/snake".into(),
                cycle: 2000,
                path: "early.ckpt".into(),
            },
            JournalEvent::Job {
                id: 1,
                record: completed.clone(),
            },
            JournalEvent::CheckpointCleared {
                id: 1,
                job: "LPS/snake".into(),
            },
        ];
        let r = recover(&events);
        assert_eq!(r.jobs[0].records.get("LPS/snake"), Some(&completed));
        assert!(r.jobs[0].live_checkpoints.is_empty());
    }

    #[test]
    fn append_counts_failures_instead_of_hiding_them() {
        // /dev/full accepts the open but fails every write with ENOSPC
        // — the canonical journal-disk-death simulation.
        let full = Path::new("/dev/full");
        if !full.exists() {
            return; // non-Linux CI
        }
        let (_, j) = Journal::open(full).expect("open /dev/full");
        assert!(!j.degraded());
        j.append(&JournalEvent::Running { id: 1 });
        j.append(&JournalEvent::Running { id: 2 });
        assert_eq!(j.errors(), 2);
        assert!(j.degraded(), "degradation must be visible");
    }

    #[test]
    fn open_append_heals_a_torn_tail() {
        let path =
            std::env::temp_dir().join(format!("snake-journal-heal-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let (_, j) = Journal::open(&path).unwrap();
            j.append(&JournalEvent::Submitted {
                id: 1,
                spec: SubmitSpec::default(),
            });
            assert_eq!(j.errors(), 0);
        }
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"event\":\"runn").unwrap();
        }
        // Load tolerates the torn tail; reopen truncates it so the next
        // append starts on a clean line.
        assert_eq!(load(&path).unwrap().len(), 1);
        {
            let (_, j) = Journal::open(&path).unwrap();
            j.append(&JournalEvent::Running { id: 1 });
        }
        let events = load(&path).unwrap();
        assert_eq!(
            events,
            vec![
                JournalEvent::Submitted {
                    id: 1,
                    spec: SubmitSpec::default(),
                },
                JournalEvent::Running { id: 1 },
            ]
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn midfile_corruption_is_fatal_on_load() {
        let path = std::env::temp_dir().join(format!(
            "snake-journal-corrupt-{}.jsonl",
            std::process::id()
        ));
        std::fs::write(
            &path,
            "{\"event\":\"submitted\",\"id\":1}\nnot json\n{\"event\":\"running\",\"id\":1}\n",
        )
        .unwrap();
        let err = load(&path).unwrap_err();
        assert!(matches!(err, LogError::Malformed { line: 2, .. }), "{err}");
        std::fs::remove_file(&path).unwrap();
    }
}
