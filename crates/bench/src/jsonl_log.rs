//! The one crash-consistent log format, behind the sweep manifest
//! ([`crate::supervise::manifest`]) and the daemon journal
//! ([`crate::serve::journal`]): compact JSON values, one per line,
//! only ever appended. Its rules:
//!
//! * **Durable appends.** [`Appender::append`] writes the line and its
//!   newline with one `write_all` and returns after `sync_data`.
//! * **Only the final line may be torn**: it lacks its newline, or it
//!   is not valid JSON. `load` drops exactly those bytes and `open`
//!   truncates exactly those bytes, so reading a log and reopening it
//!   agree on what it holds. No strict prefix of a JSON object parses,
//!   so a torn append never passes for a line.
//! * **Anything else is corruption**: a line before the final one that
//!   is not JSON, or any line that is JSON but not a valid record. It
//!   fails as [`LogError::Malformed`] with its 1-based line number, and
//!   `open` then truncates nothing.
//! * **Atomic creation.** `Appender::create` writes the first line, if
//!   any, with [`write_atomic`]: the file holds that whole line (or is
//!   empty) or is absent, and its directory entry is synced.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use snake_core::json::{self, Value};
use snake_sim::snapshot::write_atomic;

/// A failure reading or writing a log.
#[derive(Debug)]
pub enum LogError {
    /// File-system failure.
    Io {
        /// The log's path.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A line is corrupt (see the module rules).
    Malformed {
        /// The log's path.
        path: String,
        /// What the log is (`"manifest"`, `"journal"`).
        log: &'static str,
        /// 1-based line number of the bad line.
        line: usize,
        /// What was wrong with it.
        why: String,
    },
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io { path, source } => write!(f, "{path}: {source}"),
            LogError::Malformed {
                path,
                log,
                line,
                why,
            } => write!(f, "{path}:{line}: malformed {log}: {why}"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io { source, .. } => Some(source),
            LogError::Malformed { .. } => None,
        }
    }
}

fn io_error(path: &Path) -> impl Fn(std::io::Error) -> LogError + '_ {
    move |source| LogError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// The intact lines of a log, parsed: what a decoder sees.
#[derive(Debug)]
pub(crate) struct Lines {
    path: String,
    log: &'static str,
    values: Vec<Value>,
}

impl Lines {
    /// Decodes line `n` (1-based) with `decode`. `n` is 1 or a line
    /// the log holds; an empty log fails as empty.
    ///
    /// # Errors
    ///
    /// [`LogError::Malformed`] naming the line and `decode`'s reason.
    pub(crate) fn decode_line<T>(
        &self,
        n: usize,
        decode: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<T, LogError> {
        self.values
            .get(n - 1)
            .ok_or_else(|| format!("empty {}", self.log))
            .and_then(decode)
            .map_err(|why| self.malformed(n, why))
    }

    /// Decodes every line from line `first` (1-based) on.
    ///
    /// # Errors
    ///
    /// [`LogError::Malformed`] for the first line that does not decode.
    pub(crate) fn decode_from<T>(
        &self,
        first: usize,
        decode: impl Fn(&Value) -> Result<T, String>,
    ) -> Result<Vec<T>, LogError> {
        (first..=self.values.len())
            .map(|n| self.decode_line(n, &decode))
            .collect()
    }

    fn malformed(&self, line: usize, why: String) -> LogError {
        LogError::Malformed {
            path: self.path.clone(),
            log: self.log,
            line,
            why,
        }
    }
}

/// Reads the log at `path` and splits it by the torn-tail rule:
/// returns its intact lines and, when its final line is torn, the
/// byte length of the lines before it.
fn read(path: &Path, log: &'static str) -> Result<(Lines, Option<u64>), LogError> {
    let bytes = std::fs::read(path).map_err(io_error(path))?;
    let mut lines = Lines {
        path: path.display().to_string(),
        log,
        values: Vec::new(),
    };
    let mut intact = 0;
    let mut raw_lines = bytes.split_inclusive(|&b| b == b'\n').peekable();
    while let Some(raw) = raw_lines.next() {
        let parsed = match raw.strip_suffix(b"\n") {
            Some(text) => std::str::from_utf8(text)
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(text).map_err(|e| e.to_string())),
            None => Err("no newline".into()),
        };
        match parsed {
            Ok(value) => {
                lines.values.push(value);
                intact += raw.len();
            }
            Err(_) if raw_lines.peek().is_none() => break,
            Err(why) => return Err(lines.malformed(lines.values.len() + 1, why)),
        }
    }
    let torn = (intact < bytes.len()).then_some(intact as u64);
    Ok((lines, torn))
}

/// Reads the log at `path` and decodes its intact lines, without
/// modifying the file.
///
/// # Errors
///
/// [`LogError`] when the file is unreadable or holds a corrupt line.
pub(crate) fn load<T>(
    path: &Path,
    log: &'static str,
    decode: impl FnOnce(&Lines) -> Result<T, LogError>,
) -> Result<T, LogError> {
    decode(&read(path, log)?.0)
}

/// [`load`], then truncates the torn final line, if any, and opens the
/// log for appending — the one call behind `repro --resume` and
/// `snaked` start-up. A log that fails to load is left untouched.
///
/// # Errors
///
/// As [`load`], or when the truncation or the open fails.
pub(crate) fn open<T>(
    path: &Path,
    log: &'static str,
    decode: impl FnOnce(&Lines) -> Result<T, LogError>,
) -> Result<(T, Appender), LogError> {
    let (lines, torn) = read(path, log)?;
    let decoded = decode(&lines)?;
    let appender = Appender::open_as_is(path)?;
    if let Some(intact) = torn {
        appender.file.set_len(intact).map_err(io_error(path))?;
        appender.file.sync_all().map_err(io_error(path))?;
    }
    Ok((decoded, appender))
}

/// Append handle on a log.
#[derive(Debug)]
pub struct Appender {
    path: PathBuf,
    file: File,
}

impl Appender {
    /// Creates a log holding only `first` (the manifest header), or
    /// empty (the daemon journal), atomically, and opens it for
    /// appending: the file is absent or whole, and its directory entry
    /// is durable.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] on any file-system failure.
    pub(crate) fn create(path: &Path, first: Option<&Value>) -> Result<Appender, LogError> {
        let text = first.map_or_else(String::new, |line| format!("{line}\n"));
        write_atomic(path, text.as_bytes()).map_err(io_error(path))?;
        Appender::open_as_is(path)
    }

    /// Opens `path` for appending as it is, creating it when missing:
    /// nothing is read and nothing truncated. For targets with no
    /// history to replay, such as a device node.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] when the file cannot be opened.
    pub(crate) fn open_as_is(path: &Path) -> Result<Appender, LogError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io_error(path))?;
        Ok(Appender {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends `line` and makes it durable before returning.
    ///
    /// # Errors
    ///
    /// [`LogError::Io`] on a write or sync failure.
    pub fn append(&mut self, line: &Value) -> Result<(), LogError> {
        let text = format!("{line}\n");
        self.file
            .write_all(text.as_bytes())
            .and_then(|()| self.file.sync_data())
            .map_err(io_error(&self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervise::manifest::{self, JobRecord, ManifestHeader};
    use crate::supervise::CrashKind;

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snake-jsonl-log-{}-{name}", std::process::id()))
    }

    fn record(job: &str, stderr: &str) -> JobRecord {
        JobRecord::Quarantined {
            job: job.into(),
            attempts: 2,
            error: "panic: boom".into(),
            crash: Some(CrashKind::Signal(11)),
            stderr: Some(stderr.into()),
        }
    }

    /// A manifest as the sweep writes it: header plus three records,
    /// one with multi-byte characters a crash can cut in half.
    fn written_manifest(path: &Path) -> (Vec<u8>, Vec<JobRecord>) {
        let _ = std::fs::remove_file(path);
        let header = ManifestHeader {
            fingerprint: "f".into(),
            jobs: 3,
        };
        let records = vec![
            record("LPS/snake", "Segmentation fault"),
            record("CP/mta", "état corrompu — “core dumped”"),
            JobRecord::Suspended {
                job: "MUM/snake".into(),
                attempts: 1,
                cycle: 48_213,
                checkpoint: "sweep.MUM-snake.ckpt".into(),
            },
        ];
        let mut w = manifest::create(path, &header).unwrap();
        for r in &records {
            w.append(&r.to_json()).unwrap();
        }
        (std::fs::read(path).unwrap(), records)
    }

    /// Write system calls this thread has made, where the kernel counts
    /// them per thread (Linux).
    fn write_calls() -> Option<u64> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines()
            .find_map(|l| l.strip_prefix("syscw: ")?.parse().ok())
    }

    #[test]
    fn an_append_is_one_write_call() {
        let path = tmp_path("one-write.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut log = Appender::open_as_is(&path).unwrap();
        // Every character of a string is its own formatter piece.
        let line = record("CP/mta", &"é\"x".repeat(100)).to_json();
        let Some(before) = write_calls() else {
            return; // no per-thread counters on this platform
        };
        log.append(&line).unwrap();
        assert_eq!(write_calls(), Some(before + 1));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), format!("{line}\n"));
        std::fs::remove_file(&path).unwrap();
    }

    /// The manifest side of the load/heal agreement: for every crash
    /// image — a cut at or just before each newline, inside each line
    /// and inside a multi-byte character, a garbage final line with and
    /// without its newline — `load` returns exactly the records whose
    /// lines survived, `open` returns the same records, and one append
    /// after it gives that load plus the new record. Only a torn header
    /// fails to load, and then `open` refuses it untouched.
    #[test]
    fn load_and_open_agree_on_every_crash_image() {
        let path = tmp_path("agree.jsonl");
        let (bytes, records) = written_manifest(&path);
        let newline_count = |image: &[u8]| image.iter().filter(|&&b| b == b'\n').count();
        // (crash image, records expected to survive; None = no header)
        let mut images: Vec<(Vec<u8>, Option<usize>)> = Vec::new();
        let mut start = 0;
        for (line, (at, _)) in bytes
            .iter()
            .enumerate()
            .filter(|(_, b)| **b == b'\n')
            .enumerate()
        {
            // Line 0 is the header; line n >= 1 is records[n - 1].
            images.push((bytes[..at].to_vec(), line.checked_sub(1)));
            images.push((bytes[..(start + at) / 2].to_vec(), line.checked_sub(1)));
            images.push((bytes[..=at].to_vec(), Some(line)));
            start = at + 1;
        }
        let multibyte = bytes.iter().position(|&b| b >= 0x80).unwrap() + 1;
        images.push((
            bytes[..multibyte].to_vec(),
            Some(newline_count(&bytes[..multibyte]) - 1),
        ));
        for garbage in [&b"{\"job\":\"LPS/sn"[..], b"{\"job\":\"LPS/sn\n", b"\xff\n"] {
            images.push(([&bytes[..], garbage].concat(), Some(records.len())));
        }
        let extra = record("GEMM/stride", "Killed");
        for (image, survivors) in images {
            std::fs::write(&path, &image).unwrap();
            let shown = String::from_utf8_lossy(&image).into_owned();
            match (manifest::load(&path), survivors) {
                (Ok(loaded), Some(n)) => {
                    assert_eq!(loaded.records, &records[..n], "{shown}");
                    let (reopened, mut w) = manifest::open(&path).unwrap();
                    assert_eq!(reopened.records, loaded.records, "{shown}");
                    w.append(&extra.to_json()).unwrap();
                    let mut expected = loaded.records;
                    expected.push(extra.clone());
                    assert_eq!(manifest::load(&path).unwrap().records, expected, "{shown}");
                }
                (Err(LogError::Malformed { line: 1, .. }), None) => {
                    assert!(manifest::open(&path).is_err(), "{shown}");
                    assert_eq!(std::fs::read(&path).unwrap(), image);
                }
                (got, _) => panic!("{shown}: expected {survivors:?} records, got {got:?}"),
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// A bad line before the final one is corruption, and so is a final
    /// line that is valid JSON but not a record (no torn append can
    /// produce one): both are reported by line and left on disk.
    #[test]
    fn corruption_is_reported_by_line_and_never_truncated() {
        let path = tmp_path("corrupt.jsonl");
        let (bytes, _) = written_manifest(&path);
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let midfile = [
            &bytes[..header_end],
            b"{\"job\":\"LPS/sn\n",
            &bytes[header_end..],
        ]
        .concat();
        let not_a_record = [&bytes[..], b"{\"job\":\"LPS/snake\"}\n"].concat();
        for (image, line) in [(midfile, 2), (not_a_record, 5)] {
            std::fs::write(&path, &image).unwrap();
            let err = manifest::load(&path).unwrap_err();
            assert!(
                matches!(err, LogError::Malformed { line: l, log: "manifest", .. } if l == line),
                "{err}"
            );
            assert!(err
                .to_string()
                .contains(&format!(":{line}: malformed manifest: ")));
            assert!(manifest::open(&path).is_err());
            assert_eq!(std::fs::read(&path).unwrap(), image);
        }
        std::fs::remove_file(&path).unwrap();
    }
}
