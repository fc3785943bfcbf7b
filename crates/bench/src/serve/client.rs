//! The `snakectl` side of the protocol: one-shot requests and the
//! `tail` line pump. The end-to-end tests drive the daemon through
//! exactly these functions, so what the tests verify is what the CLI
//! ships.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

use snake_core::json::{self, Value};

use super::protocol::Request;

/// Why a client call failed: transport trouble, or the daemon said no.
///
/// The split matters for exit codes: a typed daemon refusal (e.g. the
/// `"quota"` admission rejection) carries its `code` so `snakectl` can
/// map it to a distinct exit code instead of a generic failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket/stream failure, or a malformed stream (bad JSON, broken
    /// sequence accounting).
    Io(io::Error),
    /// The daemon answered `{"ok":false,...}`.
    Daemon {
        /// The daemon's human-readable error message.
        message: String,
        /// Machine-readable rejection code, when the daemon sent one
        /// (currently `"quota"` for admission-control rejections).
        code: Option<String>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "{e}"),
            ClientError::Daemon { message, .. } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Daemon { .. } => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Whether this is a daemon rejection carrying the given code.
    pub fn has_code(&self, code: &str) -> bool {
        matches!(self, ClientError::Daemon { code: Some(c), .. } if c == code)
    }
}

/// A stream line missing a field the accounting needs is malformed.
impl From<json::FieldError> for ClientError {
    fn from(e: json::FieldError) -> Self {
        protocol_error(e)
    }
}

/// Turns a protocol-level failure into an [`io::Error`]-backed error.
fn protocol_error(message: impl Into<String>) -> ClientError {
    ClientError::Io(io::Error::new(io::ErrorKind::InvalidData, message.into()))
}

/// Reads one response line and checks its `ok` field.
fn read_response(reader: &mut impl BufRead) -> Result<Value, ClientError> {
    let mut line = String::new();
    if reader.read_line(&mut line).map_err(ClientError::Io)? == 0 {
        return Err(protocol_error("daemon closed the connection"));
    }
    let v = json::parse(line.trim()).map_err(|e| protocol_error(format!("bad response: {e}")))?;
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => Ok(v),
        _ => Err(ClientError::Daemon {
            message: v
                .get("error")
                .and_then(Value::as_str)
                .unwrap_or("unknown daemon error")
                .to_string(),
            code: v.get("code").and_then(Value::as_str).map(str::to_string),
        }),
    }
}

/// Sends one request and returns the daemon's response object.
///
/// # Errors
///
/// [`ClientError::Io`] when the socket is unreachable or the response
/// is malformed; [`ClientError::Daemon`] (with any typed `code`) when
/// the daemon answers `{"ok":false,...}`.
pub fn request(socket: &Path, req: &Request) -> Result<Value, ClientError> {
    let mut stream = UnixStream::connect(socket).map_err(ClientError::Io)?;
    writeln!(stream, "{}", req.to_json()).map_err(ClientError::Io)?;
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)
}

/// How a [`tail_watch`] pump ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailOutcome {
    /// The daemon sent its terminal `done` line, and the drop
    /// accounting verified.
    Done(TailEnd),
    /// The callback asked to stop; the connection was dropped
    /// mid-stream, so there is no terminal accounting to report.
    Stopped,
}

/// What a finished [`tail`] verified and observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailEnd {
    /// Terminal state label (`"done"` or `"cancelled"`).
    pub state: String,
    /// The exit code the daemon reported for the job.
    pub exit: i32,
    /// Stream records (window/event lines) delivered.
    pub delivered: u64,
    /// Records this subscriber provably missed (ring overflow, or —
    /// with `from` — history overwritten before the reconnect).
    pub dropped: u64,
}

/// Follows a job's telemetry stream from the beginning; see
/// [`tail_from`].
///
/// # Errors
///
/// As [`tail_from`].
pub fn tail(socket: &Path, id: u64, on_line: impl FnMut(&Value)) -> Result<TailEnd, ClientError> {
    tail_from(socket, id, 0, None, on_line)
}

/// Follows a job's telemetry stream, invoking `on_line` for every
/// stream object (including the final `done` line), and returns the
/// terminal summary. `ring` skips already-consumed per-attempt rings
/// and `from` resumes the first ring at a sequence number — together
/// they let a disconnected subscriber reconnect mid-stream without
/// re-reading (or silently missing) anything.
///
/// Verifies the daemon's drop accounting end-to-end: within each ring
/// (the span from its `stream` line's `from` to its `stream_end`
/// line's `next`), the gaps in delivered `seq` numbers — including the
/// trailing gap up to `next` — must sum to exactly the `dropped` total
/// the `done` line claims. Any mismatch is an error, so loss can never
/// pass silently.
///
/// # Errors
///
/// [`ClientError::Io`] for socket failures, a malformed stream, or
/// inconsistent drop accounting; [`ClientError::Daemon`] for a
/// daemon-side error response.
pub fn tail_from(
    socket: &Path,
    id: u64,
    ring: u64,
    from: Option<u64>,
    mut on_line: impl FnMut(&Value),
) -> Result<TailEnd, ClientError> {
    match tail_watch(socket, id, ring, from, |v| {
        on_line(v);
        true
    })? {
        TailOutcome::Done(end) => Ok(end),
        TailOutcome::Stopped => unreachable!("callback always continues"),
    }
}

/// Like [`tail_from`], but the callback decides whether to keep
/// following: returning `false` drops the connection and ends the pump
/// with [`TailOutcome::Stopped`] — how `snakectl top --once` exits
/// after its first rendered window without waiting for the job to
/// finish. Sequence verification still runs on every line delivered
/// before the stop.
///
/// # Errors
///
/// As [`tail_from`].
pub fn tail_watch(
    socket: &Path,
    id: u64,
    ring: u64,
    from: Option<u64>,
    mut on_line: impl FnMut(&Value) -> bool,
) -> Result<TailOutcome, ClientError> {
    let stream = UnixStream::connect(socket).map_err(ClientError::Io)?;
    {
        let mut w = &stream;
        writeln!(w, "{}", Request::Tail { id, ring, from }.to_json()).map_err(ClientError::Io)?;
    }
    let mut reader = BufReader::new(stream);
    read_response(&mut reader)?;

    let mut expected_next: Option<u64> = None;
    let mut gaps = 0u64;
    let mut seen = 0u64;
    for line in reader.lines() {
        let line = line.map_err(ClientError::Io)?;
        let v = json::parse(line.trim())
            .map_err(|e| protocol_error(format!("bad stream line: {e}")))?;
        let kind = json::str_field(&v, "type")?.to_string();
        let keep_going = on_line(&v);
        match kind.as_str() {
            "stream" => expected_next = Some(json::u64_field(&v, "from")?),
            "stream_end" => {
                let next = json::u64_field(&v, "next")?;
                let expected = expected_next
                    .ok_or_else(|| protocol_error("stream_end before its stream header"))?;
                if next < expected {
                    return Err(protocol_error(format!(
                        "stream_end went backwards: {next} after {expected}"
                    )));
                }
                // A trailing gap means records were produced that this
                // subscriber never saw; they are part of `dropped`.
                gaps += next - expected;
                expected_next = None;
            }
            "window" | "event" => {
                let seq = json::u64_field(&v, "seq")?;
                let expected = expected_next
                    .ok_or_else(|| protocol_error("record before its stream header"))?;
                if seq < expected {
                    return Err(protocol_error(format!(
                        "sequence went backwards: {seq} after {expected}"
                    )));
                }
                gaps += seq - expected;
                expected_next = Some(seq + 1);
                seen += 1;
            }
            "progress" => {}
            "done" => {
                let end = TailEnd {
                    state: json::str_field(&v, "state")?.to_string(),
                    exit: json::u64_field(&v, "exit")? as i32,
                    delivered: json::u64_field(&v, "delivered")?,
                    dropped: json::u64_field(&v, "dropped")?,
                };
                if end.delivered != seen {
                    return Err(protocol_error(format!(
                        "daemon claims {} delivered records, stream carried {seen}",
                        end.delivered
                    )));
                }
                if end.dropped != gaps {
                    return Err(protocol_error(format!(
                        "drop accounting mismatch: done line claims {}, \
                         sequence gaps sum to {gaps}",
                        end.dropped
                    )));
                }
                return Ok(TailOutcome::Done(end));
            }
            other => {
                return Err(protocol_error(format!(
                    "unknown stream line type {other:?}"
                )))
            }
        }
        if !keep_going {
            return Ok(TailOutcome::Stopped);
        }
    }
    Err(protocol_error("stream ended without a done line"))
}
