//! Mid-simulation checkpoint/restore: kill-anywhere crash tolerance.
//!
//! A checkpoint captures the **complete** simulator state at a cycle
//! boundary — warp slots, scoreboards, L1 tag arrays, MSHRs, miss and
//! interconnect queues, the memory partition, prefetcher tables, the
//! fault injector's RNG stream position, watchdog progress counters,
//! and the observability accumulators — as one schema-versioned JSON
//! document. The format rides on [`crate::json`]'s lossless lexeme
//! round-trips: a restored run continues on exactly the bit pattern
//! the interrupted run would have used, so the final [`SimOutcome`]
//! is byte-identical to the uninterrupted run's.
//!
//! Durability comes from [`write_atomic`], which the sweep manifest's
//! header shares: the document is written to a temporary file,
//! fsynced, and atomically renamed into place, so a crash mid-write
//! leaves either the previous checkpoint or none — never a torn one.
//! Loading additionally verifies a checksum over the state payload, so
//! a truncated or corrupted file is rejected with a typed
//! [`SnapshotError`] before any state is applied.
//!
//! What is deliberately **excluded**: host wall-clock profiling
//! ([`crate::perfstat`] measures the machine, not the simulation) and
//! the invariant auditor's scratch state (a validation tool, rebuilt
//! from scratch on resume). See DESIGN.md "Checkpoint/restore".
//!
//! [`SimOutcome`]: crate::SimOutcome

use std::fmt;
use std::io::Write;
use std::path::Path;

use crate::json::{self, Value};

/// Version of the checkpoint document schema. Bump on any change to
/// the component state layouts; a mismatch on load is a typed error,
/// never a silent misinterpretation.
pub const SNAPSHOT_SCHEMA_VERSION: u64 = 1;

/// First token of every checkpoint file.
const SNAPSHOT_MAGIC: &str = "snake-checkpoint";

/// A checkpoint artifact: the config/kernel fingerprint it was taken
/// under plus the full simulator state document.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the configuration + kernel + mechanism the
    /// state belongs to (see [`Gpu::checkpoint`]); restoring under a
    /// different fingerprint is refused.
    ///
    /// [`Gpu::checkpoint`]: crate::Gpu::checkpoint
    pub fingerprint: u64,
    /// The serialized simulator state.
    pub state: Value,
}

/// A typed failure while writing, loading, or applying a checkpoint.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the checkpoint file failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The file or a state field is not a valid checkpoint: torn
    /// tail, checksum mismatch, missing or mistyped field.
    Malformed {
        /// What exactly was wrong.
        what: String,
    },
    /// The checkpoint was written by a different schema version.
    SchemaMismatch {
        /// Version found in the file.
        found: u64,
    },
    /// The checkpoint belongs to a different configuration, kernel,
    /// or mechanism than the one it is being restored into.
    ConfigMismatch {
        /// Fingerprint found in the file.
        found: u64,
        /// Fingerprint of the restoring simulation.
        expected: u64,
    },
}

impl SnapshotError {
    /// Convenience constructor for malformed-state errors.
    pub fn malformed(what: impl Into<String>) -> Self {
        SnapshotError::Malformed { what: what.into() }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => write!(f, "checkpoint {path}: {source}"),
            SnapshotError::Malformed { what } => write!(f, "malformed checkpoint: {what}"),
            SnapshotError::SchemaMismatch { found } => write!(
                f,
                "checkpoint schema version {found} does not match this binary's \
                 version {SNAPSHOT_SCHEMA_VERSION}"
            ),
            SnapshotError::ConfigMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match this \
                 run's configuration/kernel/mechanism fingerprint {expected:#018x}"
            ),
        }
    }
}

/// A missing or mistyped state field is a malformed checkpoint.
impl From<json::FieldError> for SnapshotError {
    fn from(e: json::FieldError) -> Self {
        SnapshotError::malformed(e)
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// FNV-1a 64-bit hash: the checkpoint checksum, and the workspace's
/// one stable non-cryptographic hash (the sweep supervisor's manifest
/// fingerprint and retry seeds, the golden `SimStats` digests).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::default();
    h.update(bytes);
    h.0
}

/// A streaming [`fnv1a64`] whose field is the running value:
/// formatting into it with `write!` hashes the text without building
/// it, and gives the same value as `fnv1a64` of the formatted string.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a64(pub u64);

impl Default for Fnv1a64 {
    fn default() -> Self {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a64 {
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv1a64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Writes `bytes` to `path` so that a crash leaves either the old file
/// (or none) or the whole new one: the bytes go to `<file name>.tmp`
/// in the same directory, are fsynced, and the temporary file is then
/// renamed over `path`; syncing the directory makes the rename itself
/// durable.
///
/// # Errors
///
/// The underlying [`std::io::Error`]; `InvalidInput` when `path` has
/// no file name.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path
        .file_name()
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no file name"))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

impl Checkpoint {
    /// The simulation cycle the state was captured at — what a
    /// recovery supervisor reports when it resurrects a run from this
    /// artifact. Every schema-v1 state document carries the device
    /// cycle at its top level; `None` only for a foreign document.
    pub fn cycle(&self) -> Option<u64> {
        self.state.get("cycle").and_then(Value::as_u64)
    }

    /// Serializes the artifact as a single JSON document. The payload
    /// checksum goes in before the state, so [`from_json`] can detect
    /// any corruption that still parses.
    ///
    /// [`from_json`]: Checkpoint::from_json
    pub fn to_json(&self) -> Value {
        let crc = fnv1a64(self.state.to_string().as_bytes());
        Value::Obj(vec![
            ("magic".into(), Value::str(SNAPSHOT_MAGIC)),
            ("version".into(), Value::u64(SNAPSHOT_SCHEMA_VERSION)),
            ("fingerprint".into(), Value::u64(self.fingerprint)),
            ("crc".into(), Value::u64(crc)),
            ("state".into(), self.state.clone()),
        ])
    }

    /// Rebuilds and validates an artifact from its JSON document.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing magic/field or a
    /// checksum mismatch; [`SnapshotError::SchemaMismatch`] when the
    /// document was written by a different schema version.
    pub fn from_json(v: &Value) -> Result<Self, SnapshotError> {
        let magic = json::str_field(v, "magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::malformed(format!(
                "magic {magic:?} is not {SNAPSHOT_MAGIC:?}"
            )));
        }
        let version = json::u64_field(v, "version")?;
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch { found: version });
        }
        let fingerprint = json::u64_field(v, "fingerprint")?;
        let crc = json::u64_field(v, "crc")?;
        let state = json::field(v, "state")?.clone();
        let actual = fnv1a64(state.to_string().as_bytes());
        if actual != crc {
            return Err(SnapshotError::malformed(format!(
                "state checksum {actual:#018x} does not match recorded {crc:#018x}"
            )));
        }
        Ok(Checkpoint { fingerprint, state })
    }

    /// Writes the artifact to `path`, one line, with [`write_atomic`]:
    /// a crash mid-write leaves the previous file (or none) intact.
    /// Returns the artifact size in bytes (reported on the
    /// [`SimEvent::CheckpointSaved`](crate::obs::SimEvent) trace event).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] with the offending path.
    pub fn write_atomic(&self, path: &Path) -> Result<u64, SnapshotError> {
        let mut text = self.to_json().to_string();
        text.push('\n');
        write_atomic(path, text.as_bytes()).map_err(|source| SnapshotError::Io {
            path: path.display().to_string(),
            source,
        })?;
        Ok(text.len() as u64)
    }

    /// Loads and validates an artifact from `path`. A torn tail (the
    /// process died mid-write without the atomic rename, or the file
    /// was truncated afterwards) fails the parse or the checksum and
    /// is rejected here — state is never partially applied.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] / [`SnapshotError::Malformed`] /
    /// [`SnapshotError::SchemaMismatch`] as described above.
    pub fn load(path: &Path) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path).map_err(|source| SnapshotError::Io {
            path: path.display().to_string(),
            source,
        })?;
        let v = json::parse(text.trim_end())
            .map_err(|e| SnapshotError::malformed(format!("{}: {e}", path.display())))?;
        Checkpoint::from_json(&v)
    }

    /// Checks the artifact against the fingerprint of the simulation
    /// about to be restored.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when they differ.
    pub fn verify_fingerprint(&self, expected: u64) -> Result<(), SnapshotError> {
        if self.fingerprint != expected {
            return Err(SnapshotError::ConfigMismatch {
                found: self.fingerprint,
                expected,
            });
        }
        Ok(())
    }
}

/// Reports where two state documents first diverge, as a `/`-joined
/// path of object keys and array indices (e.g. `sms/0/warps/3/next`),
/// or `None` when they are identical. Drives `pfdebug`'s divergence
/// bisector: the path names the first component whose restored state
/// differs.
pub fn first_divergence(a: &Value, b: &Value) -> Option<String> {
    fn walk(a: &Value, b: &Value, path: &mut Vec<String>) -> Option<String> {
        match (a, b) {
            (Value::Obj(fa), Value::Obj(fb)) if fa.len() == fb.len() => {
                for ((ka, va), (kb, vb)) in fa.iter().zip(fb) {
                    if ka != kb {
                        return Some(format!("{}/{ka}≠{kb}", path.join("/")));
                    }
                    path.push(ka.clone());
                    if let Some(hit) = walk(va, vb, path) {
                        return Some(hit);
                    }
                    path.pop();
                }
                None
            }
            (Value::Arr(xa), Value::Arr(xb)) if xa.len() == xb.len() => {
                for (i, (va, vb)) in xa.iter().zip(xb).enumerate() {
                    path.push(i.to_string());
                    if let Some(hit) = walk(va, vb, path) {
                        return Some(hit);
                    }
                    path.pop();
                }
                None
            }
            _ if a == b => None,
            _ => Some(path.join("/")),
        }
    }
    walk(a, b, &mut Vec::new())
}

/// Encodes an `i64` as a decimal [`Value::Num`] lexeme.
pub fn i64_value(n: i64) -> Value {
    Value::Num(n.to_string())
}

/// Encodes an `Option<u64>` as the number or `null`.
pub fn opt_u64_value(n: Option<u64>) -> Value {
    match n {
        Some(n) => Value::u64(n),
        None => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0123_4567,
            state: Value::Obj(vec![
                ("cycle".into(), Value::u64(41)),
                ("ipc".into(), Value::f64(1.0 / 3.0)),
            ]),
        }
    }

    #[test]
    fn checkpoint_round_trips_bit_exactly() {
        let c = sample();
        let text = c.to_json().to_string();
        let back = Checkpoint::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn atomic_write_then_load() {
        let dir = std::env::temp_dir().join(format!("snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        std::fs::write(&path, "an older artifact").unwrap();
        let c = sample();
        let size = c.write_atomic(&path).unwrap();
        assert_eq!(size, std::fs::metadata(&path).unwrap().len());
        assert_eq!(Checkpoint::load(&path).unwrap(), c);
        // The temporary file was renamed over the old artifact.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, vec![std::ffi::OsString::from("state.ckpt")]);
        assert!(write_atomic(Path::new("/"), b"x").is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv_is_stable() {
        // Reference value for "abc" from the FNV-1a specification.
        assert_eq!(fnv1a64(b"abc"), 0xe71fa2190541574b);
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abd"));
    }

    #[test]
    fn torn_tail_is_rejected_not_applied() {
        let dir = std::env::temp_dir().join(format!("snap-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.ckpt");
        let c = sample();
        c.write_atomic(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in [1, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = Checkpoint::load(&path).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Malformed { .. }),
                "cut at {cut}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_that_still_parses_fails_the_checksum() {
        let text = sample().to_json().to_string().replace("41", "42");
        let err = Checkpoint::from_json(&json::parse(&text).unwrap()).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn version_and_fingerprint_mismatches_are_typed() {
        let mut v = sample().to_json();
        if let Value::Obj(fields) = &mut v {
            fields[1].1 = Value::u64(SNAPSHOT_SCHEMA_VERSION + 1);
        }
        assert!(matches!(
            Checkpoint::from_json(&v).unwrap_err(),
            SnapshotError::SchemaMismatch { .. }
        ));
        let c = sample();
        assert!(c.verify_fingerprint(c.fingerprint).is_ok());
        assert!(matches!(
            c.verify_fingerprint(1).unwrap_err(),
            SnapshotError::ConfigMismatch { .. }
        ));
    }

    #[test]
    fn first_divergence_names_the_deep_path() {
        let a = json::parse(r#"{"sms":[{"w":[1,2]},{"w":[3,4]}],"cycle":9}"#).unwrap();
        assert_eq!(first_divergence(&a, &a), None);
        let b = json::parse(r#"{"sms":[{"w":[1,2]},{"w":[3,5]}],"cycle":9}"#).unwrap();
        assert_eq!(first_divergence(&a, &b).as_deref(), Some("sms/1/w/1"));
        let c = json::parse(r#"{"sms":[{"w":[1,2]}],"cycle":9}"#).unwrap();
        assert_eq!(first_divergence(&a, &c).as_deref(), Some("sms"));
    }

    #[test]
    fn field_accessors_report_the_key() {
        let v = Value::Obj(vec![("a".into(), Value::u64(1))]);
        let err = SnapshotError::from(json::u64_field(&v, "b").unwrap_err());
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        assert_eq!(
            err.to_string(),
            r#"malformed checkpoint: missing or non-u64 field "b""#
        );
    }
}
