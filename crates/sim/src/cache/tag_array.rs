//! Set-associative tag array with per-line state, LRU, and the
//! demand/prefetch side flag used by Snake's decoupled unified cache.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::config::CacheGeometry;
use crate::json::{self, Value};
use crate::snapshot::SnapshotError;
use crate::types::{Cycle, LineAddr};

/// Allocation state of a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Empty.
    Invalid,
    /// Allocated for an in-flight miss; data not yet arrived.
    Reserved,
    /// Holds valid data.
    Valid,
}

/// Which logical partition of the unified SRAM a line belongs to.
///
/// The paper's decoupling is "not a physical movement but the
/// alteration of the corresponding flag" (§3.2) — exactly this flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Ordinary demand (L1) data.
    Demand,
    /// Prefetched data not yet consumed by a demand access.
    Prefetch,
}

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Line {
    /// Line-granular address tag (full address; sets are recomputed).
    pub tag: LineAddr,
    /// Allocation state.
    pub state: LineState,
    /// Demand/prefetch side flag.
    pub side: Side,
    /// Last touch, for LRU.
    pub last_use: Cycle,
    /// Cycle the line's data arrived (fills) or was allocated.
    pub fill_cycle: Cycle,
    /// For prefetch-side lines: whether a demand access ever hit it.
    pub used: bool,
    /// Sticky: the line's data was brought in by a prefetch (survives
    /// the transfer to the demand side). Coverage accounting counts
    /// every demand hit on such lines as a correctly predicted address.
    pub origin_prefetch: bool,
}

impl Line {
    fn invalid() -> Self {
        Line {
            tag: LineAddr(0),
            state: LineState::Invalid,
            side: Side::Demand,
            last_use: Cycle::ZERO,
            fill_cycle: Cycle::ZERO,
            used: false,
            origin_prefetch: false,
        }
    }
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Way(pub(crate) usize);

/// Hasher for the line index: one multiply by an odd 64-bit constant,
/// then a rotate. The product's low bits depend only on the key's low
/// bits, and the lines of a strided stream differ only in high bits,
/// so `finish` rotates the well-mixed high bits down to where the
/// table takes its bucket index.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A set-associative tag array.
///
/// `L2` and the unified L1 share this structure; the L1 additionally
/// drives the [`Side`] flags and occupancy counters.
#[derive(Debug, Clone)]
pub struct TagArray {
    /// `sets - 1`; the set count is a power of two.
    set_mask: u64,
    ways: u32,
    lines: Vec<Line>,
    /// Exact map from the tag of every non-invalid line to its way:
    /// kept in step by [`TagArray::reserve`] and [`TagArray::evict`],
    /// rebuilt on restore, never checkpointed.
    index: HashMap<LineAddr, u32, BuildHasherDefault<LineHasher>>,
    valid: u32,
    valid_prefetch: u32,
    reserved: u32,
}

impl TagArray {
    /// Builds an empty array for `usable_lines` lines with the given
    /// associativity. The set count is `usable_lines / ways` and must
    /// be a power of two.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn new(usable_lines: u32, ways: u32) -> Self {
        assert!(ways > 0 && usable_lines >= ways);
        assert_eq!(usable_lines % ways, 0, "lines must divide into sets");
        let sets = usable_lines / ways;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        TagArray {
            set_mask: u64::from(sets - 1),
            ways,
            lines: vec![Line::invalid(); usable_lines as usize],
            index: HashMap::with_capacity_and_hasher(usable_lines as usize, Default::default()),
            valid: 0,
            valid_prefetch: 0,
            reserved: 0,
        }
    }

    /// Builds an array from a [`CacheGeometry`], reduced by a
    /// carve-out (bytes removed from the top, e.g. shared memory).
    pub fn from_geometry(geom: &CacheGeometry, carveout_bytes: u32) -> Self {
        let usable = (geom.capacity_bytes - carveout_bytes) / geom.line_bytes;
        // Shrink ways to keep the set count: carve-out removes ways,
        // matching how Volta's carve-out reduces associativity.
        let ways = (usable / geom.sets()).max(1);
        let usable = ways * geom.sets();
        TagArray::new(usable, ways)
    }

    /// Number of lines.
    pub fn capacity(&self) -> u32 {
        self.lines.len() as u32
    }

    /// Lines currently invalid.
    pub fn free_lines(&self) -> u32 {
        self.capacity() - self.valid - self.reserved
    }

    /// Valid lines on the prefetch side.
    pub fn prefetch_lines(&self) -> u32 {
        self.valid_prefetch
    }

    /// Valid lines on the demand side.
    pub fn demand_lines(&self) -> u32 {
        self.valid - self.valid_prefetch
    }

    /// Lines reserved for in-flight misses.
    pub fn reserved_lines(&self) -> u32 {
        self.reserved
    }

    fn set_of(&self, addr: LineAddr) -> usize {
        (addr.0 & self.set_mask) as usize
    }

    fn set_range(&self, addr: LineAddr) -> std::ops::Range<usize> {
        let s = self.set_of(addr) * self.ways as usize;
        s..s + self.ways as usize
    }

    /// Finds the way holding `addr`, if present (any state but Invalid).
    pub fn probe(&self, addr: LineAddr) -> Option<Way> {
        self.index.get(&addr).map(|&i| Way(i as usize))
    }

    /// Immutable view of a line.
    pub fn line(&self, way: Way) -> &Line {
        &self.lines[way.0]
    }

    /// Touches a line for LRU and marks prefetch-side usage.
    pub fn touch(&mut self, way: Way, now: Cycle) {
        let l = &mut self.lines[way.0];
        l.last_use = now;
    }

    /// Flips a prefetch-side line to the demand side (the §3.2
    /// "transfer" on a demand hit) and marks it used.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is not a valid prefetch-side line.
    pub fn transfer_to_demand(&mut self, way: Way, now: Cycle) {
        let l = &mut self.lines[way.0];
        debug_assert_eq!(l.state, LineState::Valid);
        debug_assert_eq!(l.side, Side::Prefetch);
        l.side = Side::Demand;
        l.used = true;
        l.last_use = now;
        self.valid_prefetch -= 1;
    }

    /// Selects a victim way in `addr`'s set: an invalid way if any,
    /// otherwise the LRU *valid* way passing `allow` (reserved ways are
    /// never victims). Returns `None` if nothing is evictable.
    pub fn find_victim<F>(&self, addr: LineAddr, allow: F) -> Option<Way>
    where
        F: Fn(&Line) -> bool,
    {
        let mut best: Option<(usize, Cycle)> = None;
        for i in self.set_range(addr) {
            match self.lines[i].state {
                LineState::Invalid => return Some(Way(i)),
                LineState::Reserved => continue,
                LineState::Valid => {
                    if allow(&self.lines[i]) {
                        let lu = self.lines[i].last_use;
                        if best.is_none_or(|(_, b)| lu < b) {
                            best = Some((i, lu));
                        }
                    }
                }
            }
        }
        best.map(|(i, _)| Way(i))
    }

    /// Like [`TagArray::find_victim`] but never returns an invalid way:
    /// used to *force* replacement within a partition (the decoupled
    /// L1's 50% demand cap must not expand into free space).
    pub fn find_lru_valid<F>(&self, addr: LineAddr, allow: F) -> Option<Way>
    where
        F: Fn(&Line) -> bool,
    {
        let mut best: Option<(usize, Cycle)> = None;
        for i in self.set_range(addr) {
            if self.lines[i].state == LineState::Valid && allow(&self.lines[i]) {
                let lu = self.lines[i].last_use;
                if best.is_none_or(|(_, b)| lu < b) {
                    best = Some((i, lu));
                }
            }
        }
        best.map(|(i, _)| Way(i))
    }

    /// Evicts (invalidates) a line, returning its bookkeeping for the
    /// caller's statistics.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is reserved — in-flight lines cannot
    /// be evicted.
    pub fn evict(&mut self, way: Way) -> Line {
        let l = self.lines[way.0];
        debug_assert_ne!(l.state, LineState::Reserved);
        if l.state != LineState::Invalid {
            self.index.remove(&l.tag);
        }
        if l.state == LineState::Valid {
            self.valid -= 1;
            if l.side == Side::Prefetch {
                self.valid_prefetch -= 1;
            }
        }
        self.lines[way.0] = Line::invalid();
        l
    }

    /// Reserves a (previously invalid) way for an in-flight miss.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the way is not an invalid way of `addr`'s set
    /// or `addr` is already present.
    pub fn reserve(&mut self, way: Way, addr: LineAddr, side: Side, now: Cycle) {
        debug_assert_eq!(self.lines[way.0].state, LineState::Invalid);
        debug_assert!(self.set_range(addr).contains(&way.0));
        let held = self.index.insert(addr, way.0 as u32);
        debug_assert_eq!(held, None, "line {:#x} reserved twice", addr.0);
        self.lines[way.0] = Line {
            tag: addr,
            state: LineState::Reserved,
            side,
            last_use: now,
            fill_cycle: now,
            used: false,
            origin_prefetch: side == Side::Prefetch,
        };
        self.reserved += 1;
    }

    /// Changes the side of a reserved line (a demand merging into an
    /// in-flight prefetch promotes it to the demand side on arrival).
    pub fn set_reserved_side(&mut self, way: Way, side: Side) {
        debug_assert_eq!(self.lines[way.0].state, LineState::Reserved);
        self.lines[way.0].side = side;
    }

    /// Completes a reserved line's fill.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the line is not reserved.
    pub fn fill(&mut self, way: Way, now: Cycle) {
        let l = &mut self.lines[way.0];
        debug_assert_eq!(l.state, LineState::Reserved);
        l.state = LineState::Valid;
        l.fill_cycle = now;
        l.last_use = now;
        self.reserved -= 1;
        self.valid += 1;
        if l.side == Side::Prefetch {
            self.valid_prefetch += 1;
        }
    }

    /// Bulk-evicts the LRU `count` valid lines of `side`, returning the
    /// evicted lines (the §3.2 "free 25% of the unified cache" rule).
    pub fn bulk_evict_lru(&mut self, side: Side, count: u32) -> Vec<Line> {
        let mut candidates: Vec<usize> = (0..self.lines.len())
            .filter(|&i| self.lines[i].state == LineState::Valid && self.lines[i].side == side)
            .collect();
        candidates.sort_by_key(|&i| self.lines[i].last_use);
        candidates.truncate(count as usize);
        candidates.into_iter().map(|i| self.evict(Way(i))).collect()
    }

    /// Every line in way order, set after set (testing/diagnostics).
    pub fn lines(&self) -> &[Line] {
        &self.lines
    }

    /// Serializes every line for a checkpoint. The geometry and the
    /// occupancy counters are not captured: geometry comes from the
    /// config, counters are recomputed from the lines on restore.
    pub fn save_state(&self) -> Value {
        let lines = self
            .lines
            .iter()
            .map(|l| {
                Value::Arr(vec![
                    Value::u64(l.tag.0),
                    Value::u64(match l.state {
                        LineState::Invalid => 0,
                        LineState::Reserved => 1,
                        LineState::Valid => 2,
                    }),
                    Value::u64(match l.side {
                        Side::Demand => 0,
                        Side::Prefetch => 1,
                    }),
                    Value::u64(l.last_use.0),
                    Value::u64(l.fill_cycle.0),
                    Value::Bool(l.used),
                    Value::Bool(l.origin_prefetch),
                ])
            })
            .collect();
        Value::Obj(vec![("lines".into(), Value::Arr(lines))])
    }

    /// Restores every line from [`save_state`] and recomputes the
    /// occupancy counters and the line index.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when the line count does not match
    /// this array's geometry, a line entry is mistyped, a line sits
    /// outside its tag's set, or a tag is held twice.
    ///
    /// [`save_state`]: TagArray::save_state
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let lines = json::arr_field(v, "lines")?;
        if lines.len() != self.lines.len() {
            return Err(SnapshotError::malformed(format!(
                "tag array has {} lines, checkpoint has {}",
                self.lines.len(),
                lines.len()
            )));
        }
        let bad = || SnapshotError::malformed("bad tag-array line entry");
        let mut restored = Vec::with_capacity(lines.len());
        for entry in lines {
            let f = entry.as_arr().ok_or_else(bad)?;
            if f.len() != 7 {
                return Err(bad());
            }
            let num = |i: usize| f[i].as_u64().ok_or_else(bad);
            let flag = |i: usize| f[i].as_bool().ok_or_else(bad);
            restored.push(Line {
                tag: LineAddr(num(0)?),
                state: match num(1)? {
                    0 => LineState::Invalid,
                    1 => LineState::Reserved,
                    2 => LineState::Valid,
                    _ => return Err(bad()),
                },
                side: match num(2)? {
                    0 => Side::Demand,
                    1 => Side::Prefetch,
                    _ => return Err(bad()),
                },
                last_use: Cycle(num(3)?),
                fill_cycle: Cycle(num(4)?),
                used: flag(5)?,
                origin_prefetch: flag(6)?,
            });
        }
        let mut index = HashMap::with_capacity_and_hasher(restored.len(), Default::default());
        for (i, l) in restored.iter().enumerate() {
            if l.state == LineState::Invalid {
                continue;
            }
            if !self.set_range(l.tag).contains(&i) {
                return Err(SnapshotError::malformed(format!(
                    "tag-array line {:#x} stored at way {i}, outside its set",
                    l.tag.0
                )));
            }
            if let Some(first) = index.insert(l.tag, i as u32) {
                return Err(SnapshotError::malformed(format!(
                    "tag-array line {:#x} stored twice, at ways {first} and {i}",
                    l.tag.0
                )));
            }
        }
        self.lines = restored;
        self.index = index;
        self.valid = self
            .lines
            .iter()
            .filter(|l| l.state == LineState::Valid)
            .count() as u32;
        self.valid_prefetch = self
            .lines
            .iter()
            .filter(|l| l.state == LineState::Valid && l.side == Side::Prefetch)
            .count() as u32;
        self.reserved = self
            .lines
            .iter()
            .filter(|l| l.state == LineState::Reserved)
            .count() as u32;
        Ok(())
    }

    /// Checks the line index against the lines, returning a description
    /// of every mismatch (empty = healthy): each non-invalid line must
    /// sit inside its tag's set and be indexed at its own way, no tag
    /// may be held twice, and the index holds nothing else.
    pub fn audit_invariants(&self) -> Vec<String> {
        let mut v = Vec::new();
        let mut occupied = 0;
        for (i, l) in self.lines.iter().enumerate() {
            if l.state == LineState::Invalid {
                continue;
            }
            occupied += 1;
            if !self.set_range(l.tag).contains(&i) {
                v.push(format!(
                    "line {:#x} sits at way {i}, outside set {}",
                    l.tag.0,
                    self.set_of(l.tag)
                ));
            }
            match self.index.get(&l.tag).map(|&w| w as usize) {
                Some(w) if w == i => {}
                Some(w)
                    if self.lines[w].state != LineState::Invalid && self.lines[w].tag == l.tag =>
                {
                    v.push(format!(
                        "line {:#x} is held twice, at ways {w} and {i}",
                        l.tag.0
                    ));
                }
                found => v.push(format!(
                    "line {:#x} at way {i} is indexed at {found:?}",
                    l.tag.0
                )),
            }
        }
        if self.index.len() != occupied {
            v.push(format!(
                "line index holds {} entries for {occupied} occupied lines",
                self.index.len()
            ));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arr() -> TagArray {
        TagArray::new(8, 2) // 4 sets x 2 ways
    }

    #[test]
    fn reserve_fill_probe_evict_roundtrip() {
        let mut t = arr();
        let a = LineAddr(4); // set 0
        assert!(t.probe(a).is_none());
        let w = t.find_victim(a, |_| true).unwrap();
        t.reserve(w, a, Side::Demand, Cycle(1));
        assert_eq!(t.reserved_lines(), 1);
        assert_eq!(t.line(t.probe(a).unwrap()).state, LineState::Reserved);
        t.fill(w, Cycle(5));
        assert_eq!(t.reserved_lines(), 0);
        assert_eq!(t.free_lines(), 7);
        let l = t.evict(t.probe(a).unwrap());
        assert_eq!(l.tag, a);
        assert_eq!(t.free_lines(), 8);
    }

    #[test]
    fn victim_is_lru_valid() {
        let mut t = arr();
        // Fill both ways of set 1 (addrs 1 and 5).
        for (addr, cy) in [(1u64, 10u64), (5, 20)] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, Side::Demand, Cycle(cy));
            t.fill(w, Cycle(cy));
        }
        // LRU is addr 1.
        let v = t.find_victim(LineAddr(9), |_| true).unwrap();
        assert_eq!(t.line(v).tag, LineAddr(1));
        // Touch addr 1; now addr 5 is LRU.
        let w1 = t.probe(LineAddr(1)).unwrap();
        t.touch(w1, Cycle(30));
        let v = t.find_victim(LineAddr(9), |_| true).unwrap();
        assert_eq!(t.line(v).tag, LineAddr(5));
    }

    #[test]
    fn reserved_lines_are_not_victims() {
        let mut t = TagArray::new(2, 2); // 1 set x 2 ways
        for addr in [0u64, 1] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, Side::Demand, Cycle(0));
        }
        assert!(t.find_victim(LineAddr(2), |_| true).is_none());
    }

    #[test]
    fn side_counters_and_transfer() {
        let mut t = arr();
        let a = LineAddr(2);
        let w = t.find_victim(a, |_| true).unwrap();
        t.reserve(w, a, Side::Prefetch, Cycle(0));
        t.fill(w, Cycle(3));
        assert_eq!(t.prefetch_lines(), 1);
        assert_eq!(t.demand_lines(), 0);
        t.transfer_to_demand(t.probe(a).unwrap(), Cycle(4));
        assert_eq!(t.prefetch_lines(), 0);
        assert_eq!(t.demand_lines(), 1);
        assert!(t.line(t.probe(a).unwrap()).used);
    }

    #[test]
    fn victim_filter_respects_side() {
        let mut t = TagArray::new(2, 2);
        for (addr, side) in [(0u64, Side::Demand), (1, Side::Prefetch)] {
            let a = LineAddr(addr);
            let w = t.find_victim(a, |_| true).unwrap();
            t.reserve(w, a, side, Cycle(0));
            t.fill(w, Cycle(0));
        }
        let v = t
            .find_victim(LineAddr(2), |l| l.side == Side::Prefetch)
            .unwrap();
        assert_eq!(t.line(v).tag, LineAddr(1));
        assert!(t
            .find_victim(LineAddr(2), |l| l.side == Side::Prefetch && l.used)
            .is_none());
    }

    #[test]
    fn bulk_evict_takes_lru_of_side() {
        let mut t = TagArray::new(16, 4);
        for i in 0..8u64 {
            let a = LineAddr(i);
            let w = t.find_victim(a, |_| true).unwrap();
            let side = if i % 2 == 0 {
                Side::Prefetch
            } else {
                Side::Demand
            };
            t.reserve(w, a, side, Cycle(i));
            t.fill(w, Cycle(i));
        }
        let evicted = t.bulk_evict_lru(Side::Prefetch, 2);
        assert_eq!(evicted.len(), 2);
        // Oldest prefetch lines are addrs 0 and 2.
        let mut tags: Vec<u64> = evicted.iter().map(|l| l.tag.0).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 2]);
        assert_eq!(t.prefetch_lines(), 2);
    }

    #[test]
    fn restore_rejects_misplaced_and_duplicated_lines() {
        let mut t = arr();
        let a = LineAddr(4); // set 0: ways 0 and 1
        let w = t.find_victim(a, |_| true).unwrap();
        t.reserve(w, a, Side::Demand, Cycle(1));
        let saved = t.save_state();
        let mut back = arr();
        back.restore_state(&saved).unwrap();
        assert_eq!(back.probe(a), Some(w));
        assert!(back.audit_invariants().is_empty());

        let edited = |edit: &dyn Fn(&mut Vec<Value>)| {
            let mut v = saved.clone();
            let Value::Obj(fields) = &mut v else {
                unreachable!()
            };
            let Value::Arr(lines) = &mut fields[0].1 else {
                unreachable!()
            };
            edit(lines);
            v
        };
        // The reserved line moved into set 1.
        let moved = edited(&|lines| lines.swap(w.0, 2));
        let err = arr().restore_state(&moved).unwrap_err();
        assert!(err.to_string().contains("outside its set"), "{err}");
        // The reserved line copied into the other way of its set.
        let twice = edited(&|lines| lines[w.0 ^ 1] = lines[w.0].clone());
        let err = arr().restore_state(&twice).unwrap_err();
        assert!(err.to_string().contains("stored twice"), "{err}");
    }

    #[test]
    fn from_geometry_respects_carveout() {
        let g = CacheGeometry::new(16 * 1024, 128, 32); // 128 lines, 4 sets
        let full = TagArray::from_geometry(&g, 0);
        assert_eq!(full.capacity(), 128);
        let half = TagArray::from_geometry(&g, 8 * 1024);
        assert_eq!(half.capacity(), 64);
    }
}
