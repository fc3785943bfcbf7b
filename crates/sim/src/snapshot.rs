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
//! The state document has one codec, in this module. [`State`] gives
//! each value type its one encoding: `null` for an absent value,
//! arrays for sequences, objects keyed by field name, flat positional
//! [`Row`]s (a nested row's cells inlined), and maps as key-sorted
//! rows. Declarative macros describe a struct once by its field list
//! and a fieldless enum once by its codes. A component built from its
//! configuration is restored in place through [`Restore`], from the
//! list of the fields it checkpoints; its own code keeps only what the
//! format cannot say: checks against that configuration, and the
//! rebuild of derived state. A malformed document fails with the
//! `/`-joined path of the field that failed, the form
//! [`first_divergence`] prints.
//!
//! ```
//! use snake_sim::snapshot::{Restore, SnapshotError, State};
//! use snake_sim::{Cycle, LineAddr};
//!
//! #[derive(Debug, PartialEq)]
//! enum Kind { Read, Write }
//! snake_sim::state_codes!(Kind { Read = 0, Write = 1 });
//! #[derive(Debug, PartialEq)]
//! struct Packet { ready: Cycle, line: LineAddr, kind: Kind }
//! snake_sim::state_row!(Packet { ready, line, kind });
//! #[derive(Debug, PartialEq)]
//! struct Stats { sent: u64, last: Option<Packet> }
//! snake_sim::state_struct!(Stats { sent, last });
//!
//! struct Queue { depth: usize, packets: Vec<Packet>, stats: Stats }
//! impl Queue {
//!     fn check_depth(&mut self) -> Result<(), SnapshotError> {
//!         match self.packets.len() > self.depth {
//!             true => Err(SnapshotError::malformed("queue exceeds its depth")),
//!             false => Ok(()),
//!         }
//!     }
//! }
//! snake_sim::restore_fields!(Queue { packets, stats } then check_depth);
//!
//! let packet = || Packet { ready: Cycle(9), line: LineAddr(4), kind: Kind::Write };
//! let stats = Stats { sent: 2, last: None };
//! let queue = Queue { depth: 4, packets: vec![packet()], stats };
//! let saved = queue.save_state();
//! assert_eq!(saved.to_string(), r#"{"packets":[[9,4,1]],"stats":{"sent":2,"last":null}}"#);
//! let stats = Stats { sent: 0, last: Some(packet()) };
//! let mut shallow = Queue { depth: 0, packets: Vec::new(), stats };
//! let err = shallow.restore_state(&saved).unwrap_err();
//! assert_eq!(err.to_string(), "malformed checkpoint: queue exceeds its depth");
//! let torn = snake_sim::json::parse(r#"{"packets":[[9,4,2]],"stats":{}}"#).unwrap();
//! let err = shallow.restore_state(&torn).unwrap_err();
//! assert_eq!(err.to_string(), "malformed checkpoint: packets/0/2: bad Kind code");
//! ```
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

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::io::Write;
use std::path::Path;

use crate::json::{self, Value};
use crate::types::{Address, CtaId, Cycle, LineAddr, Pc, SmId, WarpId};

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
        /// The `/`-joined path of object keys and array indices to the
        /// state field that failed (`sms/1/l1/mshr/entries/3/origin`);
        /// empty when the fault is not inside one field.
        path: String,
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
        SnapshotError::Malformed {
            path: String::new(),
            what: what.into(),
        }
    }

    /// Places a malformed-state error one level deeper in the
    /// document: under object key or array index `step`. Other errors
    /// pass through.
    pub fn at(self, step: impl fmt::Display) -> Self {
        match self {
            SnapshotError::Malformed { path, what } => SnapshotError::Malformed {
                path: if path.is_empty() {
                    step.to_string()
                } else {
                    format!("{step}/{path}")
                },
                what,
            },
            other => other,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => write!(f, "checkpoint {path}: {source}"),
            SnapshotError::Malformed { path, what } if path.is_empty() => {
                write!(f, "malformed checkpoint: {what}")
            }
            SnapshotError::Malformed { path, what } => {
                write!(f, "malformed checkpoint: {path}: {what}")
            }
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

// ---------------------------------------------------------------------------
// The state codec. A state holds tens of thousands of values, each
// decoded through a few of these small generic layers; the `#[inline]`
// hints let them fold across codegen units (without them a restore
// takes about 1.5 times as long).
// ---------------------------------------------------------------------------

/// A value with one checkpoint encoding (the rules are in the module
/// doc).
pub trait State: Sized {
    /// Encodes the value.
    fn save(&self) -> Value;

    /// Decodes what [`save`](State::save) wrote.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] with the path of the field that
    /// failed.
    fn load(v: &Value) -> Result<Self, SnapshotError>;
}

/// A component restored in place: it keeps what its configuration
/// built and takes the fields it checkpoints from the state. A
/// [`State`] value restores by value.
pub trait Restore {
    /// Encodes the checkpointed fields.
    fn save_state(&self) -> Value;

    /// Restores what [`save_state`](Restore::save_state) wrote. After
    /// an error the component may be partly restored and must be
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] with the path of the field that
    /// failed, or when the state disagrees with the configuration.
    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError>;
}

impl<T: State> Restore for T {
    #[inline]
    fn save_state(&self) -> Value {
        self.save()
    }

    #[inline]
    fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        *self = T::load(v)?;
        Ok(())
    }
}

/// Hands field `key` of object `v` to `read`; a failure carries `key`
/// in its path.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when `v` is not an object, lacks
/// `key`, or `read` fails.
#[inline]
pub fn with_field<T>(
    v: &Value,
    key: &str,
    read: impl FnOnce(&Value) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let Value::Obj(fields) = v else {
        return Err(SnapshotError::malformed("expected an object"));
    };
    match fields.iter().find(|(k, _)| k == key) {
        Some((_, item)) => read(item).map_err(|e| e.at(key)),
        None => Err(SnapshotError::malformed("missing field").at(key)),
    }
}

/// Decodes field `key` of object `v`.
///
/// # Errors
///
/// As [`with_field`].
#[inline]
pub fn field<T: State>(v: &Value, key: &str) -> Result<T, SnapshotError> {
    with_field(v, key, T::load)
}

fn items(v: &Value) -> Result<&[Value], SnapshotError> {
    v.as_arr()
        .ok_or_else(|| SnapshotError::malformed("expected an array"))
}

/// Restores a component held in an `Option` or a `Vec` in place: an
/// optional one (a watchdog, a metrics collector, an isolated buffer)
/// is `null` exactly when this configuration has none, and a fixed
/// number of them (SMs, schedulers) is one array element each.
pub(crate) trait InPlace {
    fn save_in_place(&self) -> Value;
    fn restore_in_place(&mut self, v: &Value) -> Result<(), SnapshotError>;
}

impl<T: Restore> InPlace for Option<T> {
    #[inline]
    fn save_in_place(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::save_state)
    }

    #[inline]
    fn restore_in_place(&mut self, v: &Value) -> Result<(), SnapshotError> {
        match (self, v) {
            (None, Value::Null) => Ok(()),
            (Some(component), v) if *v != Value::Null => component.restore_state(v),
            (None, _) => Err(SnapshotError::malformed(
                "present in the checkpoint, absent from this configuration",
            )),
            (Some(_), _) => Err(SnapshotError::malformed(
                "absent from the checkpoint, present in this configuration",
            )),
        }
    }
}

impl<T: Restore> InPlace for Vec<T> {
    #[inline]
    fn save_in_place(&self) -> Value {
        Value::Arr(self.iter().map(T::save_state).collect())
    }

    #[inline]
    fn restore_in_place(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let saved = items(v)?;
        if saved.len() != self.len() {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} entries, this configuration has {}",
                saved.len(),
                self.len()
            )));
        }
        for (i, (item, v)) in self.iter_mut().zip(saved).enumerate() {
            item.restore_state(v).map_err(|e| e.at(i))?;
        }
        Ok(())
    }
}

/// Implements [`Restore`] for each listed `Option<T>` or `Vec<T>` of a
/// component `T` through [`InPlace`]. (A generic impl would overlap
/// `Restore` of the `State` containers.)
macro_rules! restore_in_place {
    ($($ty:ty),+) => {$(
        impl $crate::snapshot::Restore for $ty {
            #[inline]
            fn save_state(&self) -> $crate::json::Value {
                $crate::snapshot::InPlace::save_in_place(self)
            }

            #[inline]
            fn restore_state(
                &mut self,
                v: &$crate::json::Value,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                $crate::snapshot::InPlace::restore_in_place(self, v)
            }
        }
    )+};
}
pub(crate) use restore_in_place;

/// A flat positional row: its cells follow one another in one array,
/// a nested row's cells inlined (a timed packet is `[ready, sm, line]`,
/// a map entry `[key.., value..]`). Every other [`State`] value is one
/// cell.
pub trait Row: Sized {
    /// Appends the row's cells to `out`.
    fn cells(&self, out: &mut Vec<Value>);

    /// Reads the row's cells from `cells`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] naming the cell that failed.
    fn read(cells: &mut Cells<'_>) -> Result<Self, SnapshotError>;
}

/// The cells of a row being read, in order.
#[derive(Debug)]
pub struct Cells<'a> {
    cells: &'a [Value],
    next: usize,
}

impl Cells<'_> {
    /// Decodes the next cell; a failure names the cell's index.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when no cell is left or the cell
    /// does not decode.
    #[inline]
    pub fn cell<T: State>(&mut self) -> Result<T, SnapshotError> {
        let i = self.next;
        let cell = self.cells.get(i).ok_or_else(|| {
            SnapshotError::malformed(format!("row of {} cells is too short", self.cells.len()))
        })?;
        self.next += 1;
        T::load(cell).map_err(|e| e.at(i))
    }
}

/// Encodes a [`Row`] as one array.
#[inline]
pub fn save_row<T: Row>(row: &T) -> Value {
    // Room for a tag-array line (7 cells), the widest row a capture
    // writes by the thousand.
    let mut cells = Vec::with_capacity(8);
    row.cells(&mut cells);
    Value::Arr(cells)
}

/// Decodes an array [`save_row`] wrote.
///
/// # Errors
///
/// [`SnapshotError::Malformed`] when `v` is not an array, has a cell
/// too many or too few, or a cell does not decode.
#[inline]
pub fn load_row<T: Row>(v: &Value) -> Result<T, SnapshotError> {
    let row = v
        .as_arr()
        .ok_or_else(|| SnapshotError::malformed("expected a row"))?;
    let mut cells = Cells {
        cells: row,
        next: 0,
    };
    let value = T::read(&mut cells)?;
    if cells.next != row.len() {
        return Err(SnapshotError::malformed(format!(
            "row has {} cells, expected {}",
            row.len(),
            cells.next
        )));
    }
    Ok(value)
}

/// Makes each listed [`State`] type a one-cell [`Row`]; `for<T>` lists
/// types generic over a `T: State`.
macro_rules! cell {
    (@body) => {
        #[inline]
        fn cells(&self, out: &mut Vec<Value>) {
            out.push(self.save());
        }

        #[inline]
        fn read(cells: &mut Cells<'_>) -> Result<Self, SnapshotError> {
            cells.cell()
        }
    };
    (for<$param:ident> $($ty:ty),+) => {$(
        impl<$param: State> Row for $ty {
            cell!(@body);
        }
    )+};
    ($($ty:ty),+) => {$(
        impl Row for $ty {
            cell!(@body);
        }
    )+};
}

/// The scalars, each written as itself.
macro_rules! scalar_state {
    ($($ty:ty: $save:expr, $load:expr, $what:literal;)+) => {$(
        impl State for $ty {
            #[inline]
            fn save(&self) -> Value {
                $save(self)
            }

            #[inline]
            fn load(v: &Value) -> Result<Self, SnapshotError> {
                $load(v).ok_or_else(|| SnapshotError::malformed(concat!("expected ", $what)))
            }
        }
    )+};
}
scalar_state! {
    u64: |n: &u64| Value::u64(*n), Value::as_u64, "a u64";
    i64: |n: &i64| Value::Num(n.to_string()), Value::as_i64, "an i64";
    bool: |b: &bool| Value::Bool(*b), Value::as_bool, "a bool";
    f64: |x: &f64| Value::f64(*x), Value::as_f64, "an f64";
    String: |s: &String| Value::str(s.as_str()), |v: &Value| v.as_str().map(str::to_string), "a string";
}

/// Unsigned integers narrower than `u64`: a number out of range is
/// malformed.
macro_rules! narrow_state {
    ($($ty:ty),+) => {$(
        impl State for $ty {
            #[inline]
            fn save(&self) -> Value {
                Value::u64(*self as u64)
            }

            #[inline]
            fn load(v: &Value) -> Result<Self, SnapshotError> {
                let n = u64::load(v)?;
                <$ty>::try_from(n).map_err(|_| {
                    SnapshotError::malformed(format!(concat!(stringify!($ty), " out of range: {}"), n))
                })
            }
        }
    )+};
}
narrow_state!(u8, u32, usize);

/// The id newtypes: each is its number.
macro_rules! newtype_state {
    ($($ty:ident($inner:ty)),+) => {$(
        impl State for $ty {
            #[inline]
            fn save(&self) -> Value {
                self.0.save()
            }

            #[inline]
            fn load(v: &Value) -> Result<Self, SnapshotError> {
                <$inner>::load(v).map($ty)
            }
        }
    )+};
}
newtype_state!(Cycle(u64), LineAddr(u64), Address(u64));
newtype_state!(Pc(u32), WarpId(u32), CtaId(u32), SmId(u32));

impl<T: State> State for Option<T> {
    #[inline]
    fn save(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::save)
    }

    #[inline]
    fn load(v: &Value) -> Result<Self, SnapshotError> {
        match v {
            Value::Null => Ok(None),
            v => T::load(v).map(Some),
        }
    }
}

/// A sequence is the array of its items.
impl<T: State> State for Vec<T> {
    #[inline]
    fn save(&self) -> Value {
        Value::Arr(self.iter().map(T::save).collect())
    }

    #[inline]
    fn load(v: &Value) -> Result<Self, SnapshotError> {
        let items = items(v)?;
        let mut seq = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            seq.push(T::load(item).map_err(|e| e.at(i))?);
        }
        Ok(seq)
    }
}

impl<T: State> State for VecDeque<T> {
    #[inline]
    fn save(&self) -> Value {
        Value::Arr(self.iter().map(T::save).collect())
    }

    #[inline]
    fn load(v: &Value) -> Result<Self, SnapshotError> {
        Vec::load(v).map(VecDeque::from)
    }
}
cell!(u64, u8, u32, usize, i64, bool, f64, String);
cell!(Cycle, LineAddr, Address, Pc, WarpId, CtaId, SmId);
cell!(for<T> Option<T>, Vec<T>, VecDeque<T>);

impl<T: Row, const N: usize> Row for [T; N] {
    #[inline]
    fn cells(&self, out: &mut Vec<Value>) {
        for item in self {
            item.cells(out);
        }
    }

    #[inline]
    fn read(cells: &mut Cells<'_>) -> Result<Self, SnapshotError> {
        let mut items = (0..N)
            .map(|_| T::read(cells))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter();
        Ok(std::array::from_fn(|_| items.next().expect("N items read")))
    }
}

impl<A: Row, B: Row> Row for (A, B) {
    #[inline]
    fn cells(&self, out: &mut Vec<Value>) {
        self.0.cells(out);
        self.1.cells(out);
    }

    #[inline]
    fn read(cells: &mut Cells<'_>) -> Result<Self, SnapshotError> {
        Ok((A::read(cells)?, B::read(cells)?))
    }
}

/// Fixed arrays and pairs are rows.
macro_rules! row_state {
    ($([$($gen:tt)*] $ty:ty),+) => {$(
        impl<$($gen)*> State for $ty {
            #[inline]
            fn save(&self) -> Value {
                save_row(self)
            }

            #[inline]
            fn load(v: &Value) -> Result<Self, SnapshotError> {
                load_row(v)
            }
        }
    )+};
}
row_state!([T: Row, const N: usize] [T; N], [A: Row, B: Row] (A, B));

/// A map is the `[key.., value..]` rows of its entries in ascending key
/// order, whatever the hasher's iteration order.
impl<K, V, S> State for HashMap<K, V, S>
where
    K: Row + Ord + Hash,
    V: Row,
    S: BuildHasher + Default,
{
    #[inline]
    fn save(&self) -> Value {
        let mut entries: Vec<_> = self.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        Value::Arr(
            entries
                .into_iter()
                .map(|(k, v)| {
                    let mut cells = Vec::new();
                    k.cells(&mut cells);
                    v.cells(&mut cells);
                    Value::Arr(cells)
                })
                .collect(),
        )
    }

    #[inline]
    fn load(v: &Value) -> Result<Self, SnapshotError> {
        Ok(Vec::<(K, V)>::load(v)?.into_iter().collect())
    }
}

/// Implements [`State`] for a struct as an object with one key per
/// field, named and ordered as listed. The list names every field.
#[macro_export]
macro_rules! state_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::snapshot::State for $ty {
            #[inline]
            fn save(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![$((
                    stringify!($field).into(),
                    $crate::snapshot::State::save(&self.$field),
                ),)+])
            }

            #[inline]
            fn load(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self {
                    $($field: $crate::snapshot::field(v, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implements [`Row`] and [`State`] for a struct as one flat row of its
/// fields' cells, in the listed order. The list names every field.
#[macro_export]
macro_rules! state_row {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::snapshot::Row for $ty {
            #[inline]
            fn cells(&self, out: &mut Vec<$crate::json::Value>) {
                $($crate::snapshot::Row::cells(&self.$field, out);)+
            }

            #[inline]
            fn read(
                cells: &mut $crate::snapshot::Cells<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                Ok(Self {
                    $($field: $crate::snapshot::Row::read(cells)?,)+
                })
            }
        }

        impl $crate::snapshot::State for $ty {
            #[inline]
            fn save(&self) -> $crate::json::Value {
                $crate::snapshot::save_row(self)
            }

            #[inline]
            fn load(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                $crate::snapshot::load_row(v)
            }
        }
    };
}

/// Implements [`State`] and one-cell [`Row`] for a fieldless enum as
/// the listed number of each variant; any other number is malformed.
#[macro_export]
macro_rules! state_codes {
    ($ty:ident { $($variant:ident = $code:literal),+ $(,)? }) => {
        impl $crate::snapshot::State for $ty {
            #[inline]
            fn save(&self) -> $crate::json::Value {
                $crate::json::Value::u64(match self {
                    $($ty::$variant => $code,)+
                })
            }

            #[inline]
            fn load(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                match <u64 as $crate::snapshot::State>::load(v)? {
                    $($code => Ok($ty::$variant),)+
                    _ => Err($crate::snapshot::SnapshotError::malformed(
                        concat!("bad ", stringify!($ty), " code"),
                    )),
                }
            }
        }

        impl $crate::snapshot::Row for $ty {
            #[inline]
            fn cells(&self, out: &mut Vec<$crate::json::Value>) {
                out.push($crate::snapshot::State::save(self));
            }

            #[inline]
            fn read(
                cells: &mut $crate::snapshot::Cells<'_>,
            ) -> Result<Self, $crate::snapshot::SnapshotError> {
                cells.cell()
            }
        }
    };
}

/// Implements [`Restore`] for a type with no checkpointed state (a
/// stateless prefetcher): it saves `null` and restores only `null`, so
/// a type that gains state without a codec fails loudly instead of
/// resuming wrong.
#[macro_export]
macro_rules! stateless {
    ($ty:ty) => {
        impl $crate::snapshot::Restore for $ty {
            fn save_state(&self) -> $crate::json::Value {
                $crate::json::Value::Null
            }

            fn restore_state(
                &mut self,
                v: &$crate::json::Value,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                match v {
                    $crate::json::Value::Null => Ok(()),
                    _ => Err($crate::snapshot::SnapshotError::malformed(concat!(
                        stringify!($ty),
                        " has no state to restore"
                    ))),
                }
            }
        }
    };
}

/// Implements [`Restore`] for a component from the fields it
/// checkpoints: an object with one key per listed field, in order,
/// each restored in place (a [`State`] field by value). Fields left
/// out are configuration or derived state. `then hook` names a method
/// `fn hook(&mut self) -> Result<(), SnapshotError>` run once the
/// fields are restored: the checks against the configuration and the
/// rebuild of derived state. One bounded type parameter is accepted
/// (`Channel<T: Row> { .. }`). `fn Ty { .. }` writes the pair as the
/// type's private methods instead of a [`Restore`] impl, for a type
/// whose public restore path must add checks of its own (the device's
/// checks the fingerprint).
#[macro_export]
macro_rules! restore_fields {
    (@impl [$($header:tt)*] { $($field:ident),+ $(,)? } $(then $after:ident)?) => {
        impl $($header)* {
            #[inline]
            fn save_state(&self) -> $crate::json::Value {
                $crate::json::Value::Obj(vec![$((
                    stringify!($field).into(),
                    $crate::snapshot::Restore::save_state(&self.$field),
                ),)+])
            }

            #[inline]
            fn restore_state(
                &mut self,
                v: &$crate::json::Value,
            ) -> Result<(), $crate::snapshot::SnapshotError> {
                $($crate::snapshot::with_field(v, stringify!($field), |item| {
                    $crate::snapshot::Restore::restore_state(&mut self.$field, item)
                })?;)+
                $(self.$after()?;)?
                Ok(())
            }
        }
    };
    (fn $ty:ident { $($fields:tt)* } $(then $after:ident)?) => {
        $crate::restore_fields!(@impl [$ty] { $($fields)* } $(then $after)?);
    };
    ($ty:ident { $($fields:tt)* } $(then $after:ident)?) => {
        $crate::restore_fields!(
            @impl [$crate::snapshot::Restore for $ty] { $($fields)* } $(then $after)?
        );
    };
    ($ty:ident<$param:ident: $bound:path> { $($fields:tt)* } $(then $after:ident)?) => {
        $crate::restore_fields!(
            @impl [<$param: $bound> $crate::snapshot::Restore for $ty<$param>]
            { $($fields)* } $(then $after)?
        );
    };
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

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Kind {
        Read,
        Write,
    }
    crate::state_codes!(Kind { Read = 0, Write = 1 });

    #[derive(Debug, PartialEq)]
    struct Cells5 {
        small: u8,
        id: u32,
        kind: Kind,
        pair: [u64; 2],
    }
    crate::state_row!(Cells5 {
        small,
        id,
        kind,
        pair
    });

    #[derive(Debug, PartialEq)]
    struct Table {
        rows: Vec<Cells5>,
        last: Option<(Cycle, LineAddr)>,
    }
    crate::state_struct!(Table { rows, last });

    /// The message `T::load` rejects `text` with.
    fn rejection<T: State + fmt::Debug>(text: &str) -> String {
        T::load(&json::parse(text).unwrap())
            .unwrap_err()
            .to_string()
    }

    #[test]
    fn rows_flatten_and_round_trip() {
        let row = Cells5 {
            small: 7,
            id: 9,
            kind: Kind::Write,
            pair: [1, 2],
        };
        assert_eq!(row.save().to_string(), "[7,9,1,1,2]");
        assert_eq!(Cells5::load(&row.save()).unwrap(), row);
        let table = Table {
            rows: vec![row],
            last: Some((Cycle(3), LineAddr(4))),
        };
        let text = r#"{"rows":[[7,9,1,1,2]],"last":[3,4]}"#;
        assert_eq!(table.save().to_string(), text);
        assert_eq!(Table::load(&json::parse(text).unwrap()).unwrap(), table);
        let map: HashMap<(u32, u32), Kind> =
            HashMap::from([((2, 1), Kind::Read), ((1, 5), Kind::Write)]);
        assert_eq!(map.save().to_string(), "[[1,5,1],[2,1,0]]", "key-sorted");
        assert_eq!(HashMap::load(&map.save()).unwrap(), map);
    }

    #[test]
    fn each_malformed_shape_is_rejected_with_its_cell() {
        let m = |what: &str| format!("malformed checkpoint: {what}");
        // A row with one cell too many or too few.
        assert_eq!(
            rejection::<Cells5>("[7,9,1,1,2,3]"),
            m("row has 6 cells, expected 5")
        );
        assert_eq!(
            rejection::<Cells5>("[7,9,1,1]"),
            m("row of 4 cells is too short")
        );
        // A u8 or u32 out of range.
        assert_eq!(
            rejection::<Cells5>("[256,9,1,1,2]"),
            m("0: u8 out of range: 256")
        );
        assert_eq!(
            rejection::<Cells5>("[7,4294967296,1,1,2]"),
            m("1: u32 out of range: 4294967296")
        );
        // An unknown enum code.
        assert_eq!(rejection::<Cells5>("[7,9,2,1,2]"), m("2: bad Kind code"));
        // A fixed array of the wrong length.
        assert_eq!(
            rejection::<[u64; 2]>("[1,2,3]"),
            m("row has 3 cells, expected 2")
        );
        assert_eq!(
            rejection::<[u64; 2]>("[1]"),
            m("row of 1 cells is too short")
        );
        // A non-array where a row belongs.
        assert_eq!(rejection::<Cells5>(r#"{"small":7}"#), m("expected a row"));
        assert_eq!(rejection::<(Cycle, LineAddr)>("7"), m("expected a row"));
        // Mistyped scalars.
        assert_eq!(rejection::<u64>("-1"), m("expected a u64"));
        assert_eq!(rejection::<bool>("1"), m("expected a bool"));
    }

    #[test]
    fn a_deep_failure_names_its_path() {
        let m = |what: &str| format!("malformed checkpoint: {what}");
        assert_eq!(
            rejection::<Table>(r#"{"rows":[[7,9,1,1,2],[7,9,5,1,2]],"last":null}"#),
            m("rows/1/2: bad Kind code")
        );
        assert_eq!(
            rejection::<Table>(r#"{"rows":[],"last":[3,true]}"#),
            m("last/1: expected a u64")
        );
        assert_eq!(
            rejection::<Table>(r#"{"rows":[]}"#),
            m("last: missing field")
        );
        assert_eq!(rejection::<Table>("[]"), m("expected an object"));
        assert_eq!(
            rejection::<Table>(r#"{"rows":{},"last":null}"#),
            m("rows: expected an array")
        );
        // Only malformed-state errors carry a path.
        let err = SnapshotError::SchemaMismatch { found: 2 }.at("sms");
        assert!(matches!(err, SnapshotError::SchemaMismatch { found: 2 }));
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
