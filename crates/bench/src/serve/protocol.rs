//! The `snaked` wire format: newline-delimited JSON over a Unix-domain
//! socket, built on the dependency-free `snake_core::json` module.
//!
//! A connection carries exactly one request line. The daemon answers
//! with one response line — `{"ok":true,...}` or
//! `{"ok":false,"error":"..."}` — and for `tail` keeps the connection
//! open, streaming one object per line:
//!
//! - `{"type":"stream","job":"lps/snake","from":N}` — a per-job ring
//!   subscription opened; `from` is the first sequence number the
//!   subscriber can observe (later records may still be dropped).
//! - `{"type":"window",...}` — one metrics window (cycle, IPC, L1 hit
//!   rate, MSHR/miss-queue occupancy, NoC utilization, active warps,
//!   throttled SMs, chain depth, and the eight `stall_*` issue-slot
//!   fractions) plus `seq` and the cumulative `dropped` count.
//! - `{"type":"event",...}` — one trace event (`seq`, `cycle`, `name`,
//!   cumulative `dropped`).
//! - `{"type":"progress",...}` — the sweep counters, emitted whenever
//!   they change.
//! - `{"type":"done","state":...,"exit":N,"delivered":N,"dropped":N}`
//!   — terminal; `dropped` is the exact number of records this
//!   subscriber missed (ring overflow), never silently hidden.
//!
//! Drop accounting is end-to-end checkable: starting from each
//! `stream` line's `from`, the gaps in the delivered `seq` numbers sum
//! to the final `dropped` — [`client::tail`](super::client::tail)
//! verifies exactly that.

use snake_core::json::{self, FieldError, Value};
use snake_sim::{MetricsSample, TelemetryRecord, TraceEvent};

use crate::supervise::ProgressSnapshot;

/// A submitted sweep description, before benchmark/mechanism parsing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubmitSpec {
    /// Comma-separated benchmark list; `None` means the full suite.
    pub benchmarks: Option<String>,
    /// Comma-separated mechanism list; `None` means all mechanisms.
    pub mechanisms: Option<String>,
    /// Use the quick (scaled-down) harness instead of the standard one.
    pub quick: bool,
    /// Per-job cycle budget override.
    pub budget: Option<u64>,
    /// Metrics window in cycles (default 500).
    pub window: Option<u64>,
    /// Also stream per-cycle trace events (not just window rows).
    pub events: bool,
    /// Run every job of this sweep in a sandboxed worker subprocess
    /// (crash/rlimit containment). Mutually exclusive with `events`:
    /// the child protocol carries window rows losslessly but not the
    /// full trace-event stream.
    pub isolate: bool,
    /// Scheduling priority; higher runs first, FIFO within a priority.
    pub priority: u64,
    /// Client id for quota accounting (`snakectl --client`); anonymous
    /// submits share one bucket.
    pub client: Option<String>,
    /// Wall-clock budget per scheduling slice, in milliseconds: when it
    /// expires the running simulation suspends to a checkpoint and the
    /// job re-queues at its priority. Requires checkpointing.
    pub deadline_ms: Option<u64>,
    /// Mid-simulation checkpoint cadence in cycles (overrides the
    /// daemon default); what makes the job resurrectable after a crash.
    pub checkpoint_every: Option<u64>,
}

impl SubmitSpec {
    /// Serializes as a bare object of the non-default fields — shared
    /// by the `submit` wire line and the daemon's state journal, so a
    /// restarted daemon re-resolves exactly what was submitted.
    pub fn to_json(&self) -> Value {
        let mut fields = Vec::new();
        if let Some(b) = &self.benchmarks {
            fields.push(("benchmarks".to_string(), Value::str(b)));
        }
        if let Some(m) = &self.mechanisms {
            fields.push(("mechanisms".to_string(), Value::str(m)));
        }
        if self.quick {
            fields.push(("quick".to_string(), Value::Bool(true)));
        }
        if let Some(b) = self.budget {
            fields.push(("budget".to_string(), Value::u64(b)));
        }
        if let Some(w) = self.window {
            fields.push(("window".to_string(), Value::u64(w)));
        }
        if self.events {
            fields.push(("events".to_string(), Value::Bool(true)));
        }
        if self.isolate {
            fields.push(("isolate".to_string(), Value::Bool(true)));
        }
        if self.priority != 0 {
            fields.push(("priority".to_string(), Value::u64(self.priority)));
        }
        if let Some(c) = &self.client {
            fields.push(("client".to_string(), Value::str(c)));
        }
        if let Some(d) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::u64(d)));
        }
        if let Some(n) = self.checkpoint_every {
            fields.push(("checkpoint_every".to_string(), Value::u64(n)));
        }
        Value::Obj(fields)
    }

    /// Parses the spec fields out of an object; absent fields default.
    ///
    /// # Errors
    ///
    /// [`FieldError`] for a field that is present but mistyped.
    pub fn from_json(v: &Value) -> Result<SubmitSpec, FieldError> {
        let text = |key| json::if_present(v, key, json::str_field).map(|s| s.map(str::to_string));
        let flag = |key| json::if_present(v, key, json::bool_field).map(|b| b.unwrap_or(false));
        let number = |key| json::if_present(v, key, json::u64_field);
        Ok(SubmitSpec {
            benchmarks: text("benchmarks")?,
            mechanisms: text("mechanisms")?,
            quick: flag("quick")?,
            budget: number("budget")?,
            window: number("window")?,
            events: flag("events")?,
            isolate: flag("isolate")?,
            priority: number("priority")?.unwrap_or(0),
            client: text("client")?,
            deadline_ms: number("deadline_ms")?,
            checkpoint_every: number("checkpoint_every")?,
        })
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Queue a sweep; answered with `{"ok":true,"id":N}`.
    Submit(SubmitSpec),
    /// Report job states — all jobs, or one if `id` is given.
    Status {
        /// Restrict to a single job.
        id: Option<u64>,
    },
    /// Subscribe to a job's telemetry stream.
    Tail {
        /// The job to follow.
        id: u64,
        /// Ring index to start at (0 = from the job's first sub-job);
        /// a reconnecting client resumes at the ring it was cut off in.
        ring: u64,
        /// Sequence number to resume the first ring's subscription
        /// from; records the ring already overwrote are *counted* as
        /// dropped, keeping the sequence arithmetic verifiable.
        from: Option<u64>,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// The job to cancel.
        id: u64,
    },
    /// Report daemon health: journal degradation counters, disconnect
    /// and checkpoint totals.
    Health,
    /// Stop accepting work, cancel everything, and exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A description of the malformed line, missing field, or field of
    /// the wrong type.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("bad json: {e}"))?;
        match json::str_field(&v, "op")? {
            "submit" => Ok(Request::Submit(SubmitSpec::from_json(&v)?)),
            "status" => Ok(Request::Status {
                id: json::if_present(&v, "id", json::u64_field)?,
            }),
            "tail" => Ok(Request::Tail {
                id: json::u64_field(&v, "id")?,
                ring: json::if_present(&v, "ring", json::u64_field)?.unwrap_or(0),
                from: json::if_present(&v, "from", json::u64_field)?,
            }),
            "cancel" => Ok(Request::Cancel {
                id: json::u64_field(&v, "id")?,
            }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Renders the request as its wire line (without the newline).
    pub fn to_json(&self) -> Value {
        match self {
            Request::Submit(s) => {
                let mut fields = vec![("op".to_string(), Value::str("submit"))];
                if let Value::Obj(spec_fields) = s.to_json() {
                    fields.extend(spec_fields);
                }
                Value::Obj(fields)
            }
            Request::Status { id } => {
                let mut fields = vec![("op".into(), Value::str("status"))];
                if let Some(id) = id {
                    fields.push(("id".into(), Value::u64(*id)));
                }
                Value::Obj(fields)
            }
            Request::Tail { id, ring, from } => {
                let mut fields = vec![
                    ("op".to_string(), Value::str("tail")),
                    ("id".to_string(), Value::u64(*id)),
                ];
                if *ring != 0 {
                    fields.push(("ring".into(), Value::u64(*ring)));
                }
                if let Some(seq) = from {
                    fields.push(("from".into(), Value::u64(*seq)));
                }
                Value::Obj(fields)
            }
            Request::Cancel { id } => Value::Obj(vec![
                ("op".into(), Value::str("cancel")),
                ("id".into(), Value::u64(*id)),
            ]),
            Request::Health => Value::Obj(vec![("op".into(), Value::str("health"))]),
            Request::Shutdown => Value::Obj(vec![("op".into(), Value::str("shutdown"))]),
        }
    }
}

/// `{"ok":true,...fields}`.
pub fn ok_line(fields: Vec<(String, Value)>) -> Value {
    let mut all = vec![("ok".into(), Value::Bool(true))];
    all.extend(fields);
    Value::Obj(all)
}

/// `{"ok":false,"error":...}`.
pub fn err_line(message: &str) -> Value {
    Value::Obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::str(message)),
    ])
}

/// `{"ok":false,"error":...,"code":...}` — a *typed* rejection the
/// client can dispatch on (e.g. `"quota"` → `snakectl` exit code 8)
/// instead of string-matching the message.
pub fn err_line_coded(message: &str, code: &str) -> Value {
    Value::Obj(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::str(message)),
        ("code".into(), Value::str(code)),
    ])
}

/// The `stream` line announcing a per-job ring subscription.
pub fn stream_line(job: &str, from: u64) -> Value {
    Value::Obj(vec![
        ("type".into(), Value::str("stream")),
        ("job".into(), Value::str(job)),
        ("from".into(), Value::u64(from)),
    ])
}

/// The `stream_end` line closing a per-job ring subscription: `next`
/// is the sequence one past the last record the ring ever produced, so
/// a trailing gap (records dropped and never followed by a delivered
/// one — e.g. a ring produced entirely before the subscriber arrived)
/// is still visible arithmetic, not silent absence.
pub fn stream_end_line(job: &str, next: u64) -> Value {
    Value::Obj(vec![
        ("type".into(), Value::str("stream_end")),
        ("job".into(), Value::str(job)),
        ("next".into(), Value::u64(next)),
    ])
}

/// One metrics window as a stream line: the sample's own object
/// between the stream framing keys and the cumulative `dropped` count.
pub fn window_line(job: &str, seq: u64, s: &MetricsSample, dropped: u64) -> Value {
    let mut fields = vec![
        ("type".into(), Value::str("window")),
        ("job".into(), Value::str(job)),
        ("seq".into(), Value::u64(seq)),
    ];
    if let Value::Obj(sample) = s.to_json() {
        fields.extend(sample);
    }
    fields.push(("dropped".into(), Value::u64(dropped)));
    Value::Obj(fields)
}

/// One trace event as a stream line.
pub fn event_line(job: &str, seq: u64, e: &TraceEvent, dropped: u64) -> Value {
    Value::Obj(vec![
        ("type".into(), Value::str("event")),
        ("job".into(), Value::str(job)),
        ("seq".into(), Value::u64(seq)),
        ("cycle".into(), Value::u64(e.cycle.0)),
        ("name".into(), Value::str(e.data.name())),
        ("dropped".into(), Value::u64(dropped)),
    ])
}

/// One telemetry record as a stream line.
pub fn record_line(job: &str, seq: u64, rec: &TelemetryRecord, dropped: u64) -> Value {
    match rec {
        TelemetryRecord::Window(s) => window_line(job, seq, s, dropped),
        TelemetryRecord::Event(e) => event_line(job, seq, e, dropped),
    }
}

/// The sweep counters as a stream line.
pub fn progress_line(snap: &ProgressSnapshot) -> Value {
    let mut fields = vec![("type".into(), Value::str("progress"))];
    if let Value::Obj(counters) = snap.to_json() {
        fields.extend(counters);
    }
    Value::Obj(fields)
}

/// The terminal stream line.
pub fn done_line(state: &str, exit: i32, delivered: u64, dropped: u64) -> Value {
    // Exit codes are small non-negative constants; the json module is
    // unsigned-only, which is fine here.
    Value::Obj(vec![
        ("type".into(), Value::str("done")),
        ("state".into(), Value::str(state)),
        ("exit".into(), Value::u64(exit.max(0) as u64)),
        ("delivered".into(), Value::u64(delivered)),
        ("dropped".into(), Value::u64(dropped)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_round_trips() {
        let spec = SubmitSpec {
            benchmarks: Some("LPS,CP".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: true,
            budget: Some(6000),
            window: Some(200),
            events: true,
            isolate: true,
            priority: 5,
            client: Some("alice".into()),
            deadline_ms: Some(1500),
            checkpoint_every: Some(2000),
        };
        let line = Request::Submit(spec.clone()).to_json().to_string();
        assert_eq!(Request::parse(&line), Ok(Request::Submit(spec.clone())));
        // The bare-spec object (the journal's `spec` field) agrees.
        assert_eq!(SubmitSpec::from_json(&spec.to_json()), Ok(spec));
    }

    #[test]
    fn defaults_are_omitted_and_reparsed() {
        let line = Request::Submit(SubmitSpec::default()).to_json().to_string();
        assert_eq!(line, "{\"op\":\"submit\"}");
        assert_eq!(
            Request::parse(&line),
            Ok(Request::Submit(SubmitSpec::default()))
        );
    }

    #[test]
    fn ops_round_trip() {
        for req in [
            Request::Status { id: None },
            Request::Status { id: Some(3) },
            Request::Tail {
                id: 1,
                ring: 0,
                from: None,
            },
            Request::Tail {
                id: 1,
                ring: 2,
                from: Some(777),
            },
            Request::Cancel { id: 9 },
            Request::Health,
            Request::Shutdown,
        ] {
            assert_eq!(Request::parse(&req.to_json().to_string()), Ok(req));
        }
    }

    #[test]
    fn request_bytes_are_pinned() {
        let full = SubmitSpec {
            benchmarks: Some("LPS,CP".into()),
            mechanisms: Some("baseline,snake".into()),
            quick: true,
            budget: Some(6000),
            window: Some(200),
            events: true,
            isolate: true,
            priority: 5,
            client: Some("alice".into()),
            deadline_ms: Some(1500),
            checkpoint_every: Some(2000),
        };
        let cases = [
            (
                Request::Submit(full),
                r#"{"op":"submit","benchmarks":"LPS,CP","mechanisms":"baseline,snake","quick":true,"budget":6000,"window":200,"events":true,"isolate":true,"priority":5,"client":"alice","deadline_ms":1500,"checkpoint_every":2000}"#,
            ),
            (Request::Submit(SubmitSpec::default()), r#"{"op":"submit"}"#),
            (Request::Status { id: None }, r#"{"op":"status"}"#),
            (Request::Status { id: Some(3) }, r#"{"op":"status","id":3}"#),
            (
                Request::Tail {
                    id: 1,
                    ring: 0,
                    from: None,
                },
                r#"{"op":"tail","id":1}"#,
            ),
            (
                Request::Tail {
                    id: 1,
                    ring: 2,
                    from: Some(777),
                },
                r#"{"op":"tail","id":1,"ring":2,"from":777}"#,
            ),
            (Request::Cancel { id: 9 }, r#"{"op":"cancel","id":9}"#),
            (Request::Health, r#"{"op":"health"}"#),
            (Request::Shutdown, r#"{"op":"shutdown"}"#),
        ];
        for (req, line) in cases {
            assert_eq!(req.to_json().to_string(), line);
        }
    }

    #[test]
    fn stream_line_bytes_are_pinned() {
        let sample = MetricsSample {
            cycle: 600,
            ipc: 1.25,
            l1_hit_rate: 0.5,
            mshr_occupancy: 0.25,
            miss_queue_occupancy: 0.0,
            noc_utilization: 0.75,
            active_warps: 8,
            throttled_sms: 1,
            chain_depth: 3,
            stall: [0.5, 0.0, 0.125, 0.125, 0.25, 0.0, 0.0, 1.0 / 3.0],
        };
        let event = TraceEvent {
            cycle: snake_sim::Cycle(1200),
            data: snake_sim::SimEvent::WarpIssue {
                sm: snake_sim::SmId(0),
                warp: snake_sim::WarpId(3),
            },
        };
        let progress = ProgressSnapshot {
            total: 4,
            done: 1,
            quarantined: 1,
            skipped: 0,
            suspended: 0,
            retries: 2,
            overdue: 0,
        };
        let cases = [
            (
                window_line("LPS/snake", 7, &sample, 2),
                r#"{"type":"window","job":"LPS/snake","seq":7,"cycle":600,"ipc":1.25,"l1_hit_rate":0.5,"mshr_occupancy":0.25,"miss_queue_occupancy":0.0,"noc_utilization":0.75,"active_warps":8,"throttled_sms":1,"chain_depth":3,"stall_issued":0.5,"stall_no_warp":0.0,"stall_barrier":0.125,"stall_scoreboard":0.125,"stall_mem_data":0.25,"stall_mem_mshr":0.0,"stall_mem_missq":0.0,"stall_mem_noc":0.3333333333333333,"dropped":2}"#,
            ),
            (
                event_line("LPS/snake", 8, &event, 2),
                r#"{"type":"event","job":"LPS/snake","seq":8,"cycle":1200,"name":"WarpIssue","dropped":2}"#,
            ),
            (
                progress_line(&progress),
                r#"{"type":"progress","total":4,"done":1,"quarantined":1,"skipped":0,"suspended":0,"retries":2,"overdue":0,"remaining":2}"#,
            ),
            (
                stream_line("LPS/snake", 5),
                r#"{"type":"stream","job":"LPS/snake","from":5}"#,
            ),
            (
                stream_end_line("LPS/snake", 40),
                r#"{"type":"stream_end","job":"LPS/snake","next":40}"#,
            ),
            (
                done_line("done", 0, 33, 2),
                r#"{"type":"done","state":"done","exit":0,"delivered":33,"dropped":2}"#,
            ),
        ];
        for (value, line) in cases {
            assert_eq!(value.to_string(), line);
        }
    }

    #[test]
    fn mistyped_request_fields_are_rejected_not_defaulted() {
        // A present field of the wrong type is an error, never its
        // default: this submit must not queue every benchmark under
        // every mechanism with no budget.
        let submit = r#"{"op":"submit","benchmarks":["LPS"],"budget":"100","quick":"yes"}"#;
        assert!(
            Request::parse(submit).is_err(),
            "{:?}",
            Request::parse(submit)
        );
        let tail = r#"{"op":"tail","id":1,"ring":"2","from":-1}"#;
        assert!(Request::parse(tail).is_err(), "{:?}", Request::parse(tail));
    }

    #[test]
    fn coded_errors_carry_their_code() {
        let line = err_line_coded("too many queued jobs", "quota").to_string();
        let v = snake_core::json::parse(&line).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("quota"));
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::parse("nonsense").is_err());
        assert!(Request::parse("{\"op\":\"warp\"}").is_err());
        assert!(Request::parse("{\"op\":\"tail\"}").is_err());
        assert!(Request::parse("{\"op\":\"tail\",\"id\":\"x\"}").is_err());
    }
}
