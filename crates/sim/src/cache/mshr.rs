//! Miss Status Holding Registers.
//!
//! The L1 tracks outstanding misses in an MSHR file with a bounded
//! number of entries and a bounded merge capability per entry
//! (Table 1: 512 entries, 8 merges on the V100). Exhaustion of either
//! produces reservation fails, one of the paper's motivation points.

use std::collections::HashMap;

use crate::json::{self, Value};
use crate::obs::{SimEvent, TraceEvent};
use crate::snapshot::SnapshotError;
use crate::types::{Cycle, LineAddr, SmId, WarpId};

/// The origin of an outstanding miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissOrigin {
    /// Allocated by a demand load.
    Demand,
    /// Allocated by a prefetch (no warp waits unless one merges later).
    Prefetch,
}

/// One outstanding miss.
#[derive(Debug, Clone)]
pub struct MshrEntry {
    /// Missing line.
    pub line: LineAddr,
    /// How the miss was created.
    pub origin: MissOrigin,
    /// Warps waiting on this line (empty for un-merged prefetches).
    pub waiters: Vec<WarpId>,
    /// Whether a demand request has merged into a prefetch-origin
    /// entry (a *late* prefetch in the §4 metrics).
    pub demand_merged: bool,
    /// Total requests merged into this entry, including the allocator.
    pub requests: u32,
    /// Allocation cycle.
    pub alloc_cycle: Cycle,
    /// Cycle the miss was last sent down the hierarchy (allocation, or
    /// the most recent timeout-recovery reissue).
    pub last_issue: Cycle,
    /// Timeout-recovery reissues consumed.
    pub retries: u32,
}

/// Result of attempting to merge into an existing entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeResult {
    /// Merged into the outstanding entry.
    Merged {
        /// The entry was allocated by a prefetch: the merging demand's
        /// address was correctly predicted (late prefetch coverage).
        was_prefetch: bool,
        /// This is the first demand to merge into the entry (counts
        /// the prefetch as late exactly once).
        first_demand: bool,
    },
    /// The entry's merge capacity is exhausted.
    Full,
}

/// The MSHR file.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: HashMap<LineAddr, MshrEntry>,
    capacity: usize,
    merge_capacity: usize,
    /// Allocation events buffered while tracing is enabled; the owning
    /// L1 drains them each cycle. `None` (the default) keeps the hot
    /// path to a single branch.
    trace: Option<(SmId, Vec<TraceEvent>)>,
}

impl MshrFile {
    /// Creates a file with `entries` slots and `merge` requesters per
    /// slot (the allocating request counts as one).
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(entries: u32, merge: u32) -> Self {
        assert!(entries > 0 && merge > 0);
        MshrFile {
            entries: HashMap::with_capacity(entries as usize),
            capacity: entries as usize,
            merge_capacity: merge as usize,
            trace: None,
        }
    }

    /// Starts buffering [`SimEvent::MshrAllocate`] events on behalf of
    /// the SM that owns this file.
    pub fn enable_trace(&mut self, sm: SmId) {
        self.trace = Some((sm, Vec::new()));
    }

    /// Moves buffered trace events into `out` (in allocation order).
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some((_, buf)) = self.trace.as_mut() {
            out.append(buf);
        }
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether a new entry can be allocated.
    pub fn has_free_entry(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Looks up an outstanding miss.
    pub fn get(&self, line: LineAddr) -> Option<&MshrEntry> {
        self.entries.get(&line)
    }

    /// Allocates a new entry.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line already has an entry or the file is
    /// full — callers must check [`MshrFile::has_free_entry`] and
    /// [`MshrFile::get`] first.
    pub fn allocate(
        &mut self,
        line: LineAddr,
        origin: MissOrigin,
        waiter: Option<WarpId>,
        now: Cycle,
    ) {
        debug_assert!(self.has_free_entry());
        debug_assert!(!self.entries.contains_key(&line));
        if let Some((sm, buf)) = self.trace.as_mut() {
            buf.push(TraceEvent {
                cycle: now,
                data: SimEvent::MshrAllocate {
                    sm: *sm,
                    line,
                    prefetch: origin == MissOrigin::Prefetch,
                },
            });
        }
        let waiters = waiter.into_iter().collect();
        self.entries.insert(
            line,
            MshrEntry {
                line,
                origin,
                waiters,
                demand_merged: false,
                requests: 1,
                alloc_cycle: now,
                last_issue: now,
                retries: 0,
            },
        );
    }

    /// Merges a demand request into an existing entry.
    pub fn merge_demand(&mut self, line: LineAddr, waiter: WarpId) -> MergeResult {
        let entry = self
            .entries
            .get_mut(&line)
            .expect("merge target must exist");
        // The allocating request occupies one merge slot.
        if entry.requests as usize >= self.merge_capacity {
            return MergeResult::Full;
        }
        entry.requests += 1;
        entry.waiters.push(waiter);
        let was_prefetch = entry.origin == MissOrigin::Prefetch;
        let first_demand = was_prefetch && !entry.demand_merged;
        if was_prefetch {
            entry.demand_merged = true;
        }
        MergeResult::Merged {
            was_prefetch,
            first_demand,
        }
    }

    /// Completes a miss, removing and returning its entry.
    ///
    /// # Panics
    ///
    /// Panics if no entry exists for `line`.
    pub fn complete(&mut self, line: LineAddr) -> MshrEntry {
        self.try_complete(line)
            .expect("completed line must have an MSHR entry")
    }

    /// Completes a miss if an entry exists. Fault injection can deliver
    /// a fill twice (or a recovered fill after the original straggles
    /// in); the second arrival finds no entry and must not panic.
    pub fn try_complete(&mut self, line: LineAddr) -> Option<MshrEntry> {
        self.entries.remove(&line)
    }

    /// Configured entry capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates over all outstanding entries (auditing).
    pub fn iter(&self) -> impl Iterator<Item = &MshrEntry> {
        self.entries.values()
    }

    /// Iterates mutably over all outstanding entries (timeout
    /// recovery updates `last_issue`/`retries` in place).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut MshrEntry> {
        self.entries.values_mut()
    }

    /// Mutable access to the entry for `line`, if present.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut MshrEntry> {
        self.entries.get_mut(&line)
    }

    /// Serializes every outstanding entry for a checkpoint. Entries
    /// are written in ascending line order so the encoding is
    /// independent of `HashMap` iteration order — the byte-stability
    /// the kill-anywhere guarantee needs.
    pub fn save_state(&self) -> Value {
        let mut lines: Vec<&MshrEntry> = self.entries.values().collect();
        lines.sort_by_key(|e| e.line);
        let entries = lines
            .into_iter()
            .map(|e| {
                Value::Obj(vec![
                    ("line".into(), Value::u64(e.line.0)),
                    (
                        "origin".into(),
                        Value::u64(match e.origin {
                            MissOrigin::Demand => 0,
                            MissOrigin::Prefetch => 1,
                        }),
                    ),
                    (
                        "waiters".into(),
                        Value::Arr(
                            e.waiters
                                .iter()
                                .map(|w| Value::u64(u64::from(w.0)))
                                .collect(),
                        ),
                    ),
                    ("demand_merged".into(), Value::Bool(e.demand_merged)),
                    ("requests".into(), Value::u64(u64::from(e.requests))),
                    ("alloc_cycle".into(), Value::u64(e.alloc_cycle.0)),
                    ("last_issue".into(), Value::u64(e.last_issue.0)),
                    ("retries".into(), Value::u64(u64::from(e.retries))),
                ])
            })
            .collect();
        Value::Obj(vec![("entries".into(), Value::Arr(entries))])
    }

    /// Restores the outstanding entries from [`save_state`]
    /// (capacities are config-derived and kept).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a mistyped entry or more
    /// entries than this file's capacity.
    ///
    /// [`save_state`]: MshrFile::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let entries = json::arr_field(v, "entries")?;
        if entries.len() > self.capacity {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} MSHR entries, capacity is {}",
                entries.len(),
                self.capacity
            )));
        }
        let mut restored = HashMap::with_capacity(self.capacity);
        for e in entries {
            let line = LineAddr(json::u64_field(e, "line")?);
            let origin = match json::u64_field(e, "origin")? {
                0 => MissOrigin::Demand,
                1 => MissOrigin::Prefetch,
                _ => return Err(SnapshotError::malformed("bad MSHR origin")),
            };
            let waiters = json::arr_field(e, "waiters")?
                .iter()
                .map(|w| {
                    w.as_u32()
                        .map(WarpId)
                        .ok_or_else(|| SnapshotError::malformed("bad MSHR waiter"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            restored.insert(
                line,
                MshrEntry {
                    line,
                    origin,
                    waiters,
                    demand_merged: json::bool_field(e, "demand_merged")?,
                    requests: json::u32_field(e, "requests")?,
                    alloc_cycle: Cycle(json::u64_field(e, "alloc_cycle")?),
                    last_issue: Cycle(json::u64_field(e, "last_issue")?),
                    retries: json::u32_field(e, "retries")?,
                },
            );
        }
        self.entries = restored;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m = MshrFile::new(2, 3);
        assert!(m.is_empty());
        m.allocate(LineAddr(1), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        assert_eq!(m.len(), 1);
        assert!(m.get(LineAddr(1)).is_some());
        assert_eq!(
            m.merge_demand(LineAddr(1), WarpId(1)),
            MergeResult::Merged {
                was_prefetch: false,
                first_demand: false
            }
        );
        assert_eq!(
            m.merge_demand(LineAddr(1), WarpId(2)),
            MergeResult::Merged {
                was_prefetch: false,
                first_demand: false
            }
        );
        // merge capacity 3 = allocator + 2 merges.
        assert_eq!(m.merge_demand(LineAddr(1), WarpId(3)), MergeResult::Full);
        let e = m.complete(LineAddr(1));
        assert_eq!(e.waiters, vec![WarpId(0), WarpId(1), WarpId(2)]);
        assert!(m.is_empty());
    }

    #[test]
    fn entry_capacity() {
        let mut m = MshrFile::new(1, 8);
        m.allocate(LineAddr(1), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        assert!(!m.has_free_entry());
        assert_eq!(m.capacity(), 1);
    }

    #[test]
    fn try_complete_tolerates_missing_entry() {
        let mut m = MshrFile::new(2, 8);
        assert!(m.try_complete(LineAddr(1)).is_none());
        m.allocate(LineAddr(1), MissOrigin::Demand, Some(WarpId(0)), Cycle(0));
        assert!(m.try_complete(LineAddr(1)).is_some());
        assert!(m.try_complete(LineAddr(1)).is_none(), "duplicate fill");
    }

    #[test]
    fn retry_bookkeeping_starts_at_allocation() {
        let mut m = MshrFile::new(1, 8);
        m.allocate(LineAddr(3), MissOrigin::Demand, Some(WarpId(0)), Cycle(17));
        let e = m.get(LineAddr(3)).unwrap();
        assert_eq!(e.last_issue, Cycle(17));
        assert_eq!(e.retries, 0);
        for e in m.iter_mut() {
            e.retries += 1;
            e.last_issue = Cycle(40);
        }
        assert_eq!(m.iter().count(), 1);
        assert_eq!(m.get(LineAddr(3)).unwrap().retries, 1);
    }

    #[test]
    fn prefetch_merge_is_flagged_once() {
        let mut m = MshrFile::new(1, 8);
        m.allocate(LineAddr(7), MissOrigin::Prefetch, None, Cycle(0));
        assert_eq!(
            m.merge_demand(LineAddr(7), WarpId(4)),
            MergeResult::Merged {
                was_prefetch: true,
                first_demand: true
            }
        );
        // Later merges are still covered, but the prefetch is counted
        // late only once.
        assert_eq!(
            m.merge_demand(LineAddr(7), WarpId(5)),
            MergeResult::Merged {
                was_prefetch: true,
                first_demand: false
            }
        );
        let e = m.complete(LineAddr(7));
        assert!(e.demand_merged);
        assert_eq!(e.origin, MissOrigin::Prefetch);
    }
}
