//! The Tail table (§3.1–§3.2): chains of inter-thread strides plus
//! intra-warp and inter-warp strides, with the paper's training FSM,
//! promotion rule, verification/demotion, and eviction policies.

use snake_sim::json::{self, Value};
use snake_sim::snapshot::{self, SnapshotError};
use snake_sim::{Address, Pc, WarpId};

use crate::snake::head_table::Transition;

/// The 2-bit train status of a stride (`T1`/`T2` in Fig 13/15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrainState {
    /// `00` — not trained.
    NotTrained,
    /// `01` — observed once; awaiting confirmation.
    Observed,
    /// `10` — promoted: confirmed by enough warps; prefetches issue
    /// for all future warps.
    Promoted,
    /// `11` — trained: re-confirmed after promotion.
    Trained,
}

impl TrainState {
    /// Whether prefetches may be issued from this state.
    pub fn can_prefetch(self) -> bool {
        matches!(self, TrainState::Promoted | TrainState::Trained)
    }

    /// The raw 2-bit encoding.
    pub fn bits(self) -> u8 {
        match self {
            TrainState::NotTrained => 0b00,
            TrainState::Observed => 0b01,
            TrainState::Promoted => 0b10,
            TrainState::Trained => 0b11,
        }
    }

    /// Decodes the 2-bit encoding; `None` for out-of-range values.
    pub fn from_bits(bits: u8) -> Option<TrainState> {
        match bits {
            0b00 => Some(TrainState::NotTrained),
            0b01 => Some(TrainState::Observed),
            0b10 => Some(TrainState::Promoted),
            0b11 => Some(TrainState::Trained),
            _ => None,
        }
    }
}

/// Eviction policy for a full Tail table (§3.1, Fig 20 vs Fig 22).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// The paper's main policy: take the LRU half of the entries, then
    /// evict the one with the fewest set bits in its warp vector.
    #[default]
    LruThenPopcount,
    /// Ablation: fewest set bits only (Fig 22).
    PopcountOnly,
}

/// One Tail-table entry (the eight fields of §3.1).
#[derive(Debug, Clone)]
pub struct TailEntry {
    /// Head load PC.
    pub pc1: Pc,
    /// Consecutive load PC.
    pub pc2: Pc,
    /// Inter-thread stride between `pc1` and `pc2` addresses.
    pub inter_thread_stride: i64,
    /// Train status of the inter-thread stride.
    pub t1: TrainState,
    /// Warps that observed this `(pc1, pc2, stride)` pattern.
    pub warp_vec: u64,
    /// Intra-warp (loop) stride of `pc1`, once observed.
    pub intra_stride: Option<i64>,
    /// Train status of the intra-warp stride.
    pub t2: TrainState,
    /// Warps confirming the intra-warp stride (3 promote it).
    intra_warps: u64,
    /// Committed inter-warp stride of `pc1` (no train field: it is
    /// only written once three warps agree).
    pub inter_warp_stride: Option<i64>,
    /// First `(warp, address)` observation of `pc1`, for deriving the
    /// per-warp stride.
    iw_base: Option<(WarpId, Address)>,
    /// Per-warp stride candidate derived from `iw_base`.
    iw_candidate: Option<i64>,
    /// Warps confirming the candidate.
    iw_confirm: u64,
    /// Same-warp re-observations of the inter-thread stride (loop
    /// repetition — the §3.2 single-warp training path).
    repeats: u8,
    /// LRU sequence stamp.
    last_use: u64,
}

impl TailEntry {
    fn new(pc1: Pc, pc2: Pc, stride: i64, warp: WarpId, seq: u64) -> Self {
        TailEntry {
            pc1,
            pc2,
            inter_thread_stride: stride,
            t1: TrainState::Observed,
            warp_vec: warp_bit(warp),
            intra_stride: None,
            t2: TrainState::NotTrained,
            intra_warps: 0,
            inter_warp_stride: None,
            iw_base: None,
            iw_candidate: None,
            iw_confirm: 0,
            repeats: 0,
            last_use: seq,
        }
    }

    /// Serializes every field (including the private training scratch)
    /// for a checkpoint.
    pub fn save_state(&self) -> Value {
        let opt_i64 = |s: Option<i64>| s.map_or(Value::Null, snapshot::i64_value);
        Value::Obj(vec![
            ("pc1".into(), Value::u64(u64::from(self.pc1.0))),
            ("pc2".into(), Value::u64(u64::from(self.pc2.0))),
            (
                "inter_thread_stride".into(),
                snapshot::i64_value(self.inter_thread_stride),
            ),
            ("t1".into(), Value::u64(u64::from(self.t1.bits()))),
            ("warp_vec".into(), Value::u64(self.warp_vec)),
            ("intra_stride".into(), opt_i64(self.intra_stride)),
            ("t2".into(), Value::u64(u64::from(self.t2.bits()))),
            ("intra_warps".into(), Value::u64(self.intra_warps)),
            ("inter_warp_stride".into(), opt_i64(self.inter_warp_stride)),
            (
                "iw_base".into(),
                self.iw_base.map_or(Value::Null, |(w, a)| {
                    Value::Arr(vec![Value::u64(u64::from(w.0)), Value::u64(a.raw())])
                }),
            ),
            ("iw_candidate".into(), opt_i64(self.iw_candidate)),
            ("iw_confirm".into(), Value::u64(self.iw_confirm)),
            ("repeats".into(), Value::u64(u64::from(self.repeats))),
            ("last_use".into(), Value::u64(self.last_use)),
        ])
    }

    /// Decodes an entry captured by [`TailEntry::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when any field is missing or does
    /// not decode.
    pub fn from_state(v: &Value) -> Result<TailEntry, SnapshotError> {
        let bad = |what: &str| SnapshotError::malformed(format!("tail entry: bad {what}"));
        let opt_i64 = |key: &str| -> Result<Option<i64>, SnapshotError> {
            match json::field(v, key)? {
                Value::Null => Ok(None),
                other => Ok(Some(other.as_i64().ok_or_else(|| bad(key))?)),
            }
        };
        let state = |key: &str| -> Result<TrainState, SnapshotError> {
            let bits = u8::try_from(json::u64_field(v, key)?).map_err(|_| bad(key))?;
            TrainState::from_bits(bits).ok_or_else(|| bad(key))
        };
        let iw_base = match json::field(v, "iw_base")? {
            Value::Null => None,
            other => match other.as_arr() {
                Some([w, a]) => Some((
                    WarpId(w.as_u32().ok_or_else(|| bad("iw_base"))?),
                    Address(a.as_u64().ok_or_else(|| bad("iw_base"))?),
                )),
                _ => return Err(bad("iw_base")),
            },
        };
        Ok(TailEntry {
            pc1: Pc(json::u32_field(v, "pc1")?),
            pc2: Pc(json::u32_field(v, "pc2")?),
            inter_thread_stride: json::i64_field(v, "inter_thread_stride")?,
            t1: state("t1")?,
            warp_vec: json::u64_field(v, "warp_vec")?,
            intra_stride: opt_i64("intra_stride")?,
            t2: state("t2")?,
            intra_warps: json::u64_field(v, "intra_warps")?,
            inter_warp_stride: opt_i64("inter_warp_stride")?,
            iw_base,
            iw_candidate: opt_i64("iw_candidate")?,
            iw_confirm: json::u64_field(v, "iw_confirm")?,
            repeats: u8::try_from(json::u64_field(v, "repeats")?).map_err(|_| bad("repeats"))?,
            last_use: json::u64_field(v, "last_use")?,
        })
    }

    /// Number of warps that observed the inter-thread pattern.
    pub fn popcount(&self) -> u32 {
        self.warp_vec.count_ones()
    }

    /// Whether `warp`'s bit is set.
    pub fn has_warp(&self, warp: WarpId) -> bool {
        self.warp_vec & warp_bit(warp) != 0
    }
}

fn warp_bit(warp: WarpId) -> u64 {
    1u64 << (warp.0 % 64)
}

/// Hops held by a [`CachedWalk`]: the deepest walk Snake's throttle
/// allows (`SnakeConfig::chain_depth`). Hops beyond it are walked
/// afresh on every call.
const CACHED_HOPS: usize = 16;

/// The first hops of the inter-thread chain walk from one start PC for
/// one warp bit, as [`TailTable::generate`] took them against the table
/// contents that `stamp` names.
///
/// The walk reads the warp only through [`TailEntry::has_warp`] and
/// the trigger address only as the base its offsets are added to, so
/// one walk serves every later trigger of the same (PC, `warp % 64`)
/// until an entry, a `t1` state or that warp's bit changes. A walk
/// keeps entry indices, not offsets: replaying it sums the strides of
/// the entries it stamps anyway, so a cache hit reads one small record
/// beside the table.
#[derive(Debug, Clone, Copy)]
struct CachedWalk {
    /// [`TailTable::walk_stamp`] for this warp bit when the walk was
    /// taken.
    stamp: u64,
    /// Index of the entry each hop followed.
    hops: [u16; CACHED_HOPS],
    /// Bit `i` is set when hop `i` reached an offset from the trigger
    /// address that no earlier hop reached, and that is not zero.
    new_target: u16,
    /// Hops held.
    len: u8,
    /// Whether the walk ran out of links after its `len` hops.
    ended: bool,
    /// Index of the first entry whose `pc1` is the start PC: the one
    /// whose fixed strides [`TailTable::generate`] issues.
    fixed: Option<u16>,
}

impl CachedWalk {
    /// A walk that no stamp matches.
    const STALE: CachedWalk = CachedWalk {
        stamp: 0,
        hops: [0; CACHED_HOPS],
        new_target: 0,
        len: 0,
        ended: false,
        fixed: None,
    };
}

/// Index of a table entry in a [`CachedWalk`].
fn entry_index(idx: usize) -> u16 {
    u16::try_from(idx).expect("TailTable::new bounds the capacity to u16 indices")
}

/// Distinct warps required to promote a stride (the paper uses 3).
/// The trace analysis of Figs 8–10 reads the same rule.
pub const PROMOTE_THRESHOLD: u32 = 3;

/// Maximum hops when reconstructing a non-consecutive intra-warp
/// stride by accumulating chain strides (§3.1 case 2).
const MAX_CHAIN_WALK: usize = 8;

/// Configuration knobs of the table: the two that Figs 20–22 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailTableConfig {
    /// Entry capacity (the paper settles on 10, §5.5/Fig 20).
    pub entries: usize,
    /// Eviction policy.
    pub eviction: EvictionPolicy,
}

impl Default for TailTableConfig {
    fn default() -> Self {
        TailTableConfig {
            entries: 10,
            eviction: EvictionPolicy::LruThenPopcount,
        }
    }
}

/// The Tail table.
#[derive(Debug, Clone)]
pub struct TailTable {
    entries: Vec<TailEntry>,
    cfg: TailTableConfig,
    seq: u64,
    /// Set once any stride reaches a prefetchable state.
    any_trained: bool,
    /// Bumped whenever a chain walk may change for every warp: an
    /// insert or eviction (entry order and links) or a `t1` change.
    /// Starts at 1, so that a walk stamped 0 is never valid.
    version: u64,
    /// Bumped per warp bit whenever that bit changes in any entry's
    /// `warp_vec`.
    warp_versions: [u64; 64],
    /// The last chain walk per (start PC, `warp % 64`): the 64 walks of
    /// `walk_pcs[i]` start at index `64 * i`. Derived state: never
    /// checkpointed, dropped by `reset` and `restore_state`, and valid
    /// only while its stamp matches.
    walks: Vec<CachedWalk>,
    /// The start PCs that have walks: those of a kernel's few load PCs
    /// that ever started a chain, so a scan finds one faster than a
    /// hash would.
    walk_pcs: Vec<Pc>,
    /// Scratch for one walk's offsets; empty between calls.
    offsets: Vec<i64>,
}

impl TailTable {
    /// Creates an empty table.
    ///
    /// # Panics
    ///
    /// Panics if the configured capacity is zero or more than
    /// `u16::MAX` entries.
    pub fn new(cfg: TailTableConfig) -> Self {
        assert!(cfg.entries > 0, "tail table needs capacity");
        assert!(
            cfg.entries <= usize::from(u16::MAX),
            "tail table capacity exceeds 16-bit entry indices"
        );
        TailTable {
            entries: Vec::with_capacity(cfg.entries),
            cfg,
            seq: 0,
            any_trained: false,
            version: 1,
            warp_versions: [0; 64],
            walks: Vec::new(),
            walk_pcs: Vec::new(),
            offsets: Vec::new(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TailTableConfig {
        &self.cfg
    }

    /// Current entries (diagnostics, cost model, examples).
    pub fn entries(&self) -> &[TailEntry] {
        &self.entries
    }

    /// Whether any stride has reached a prefetchable state (drives the
    /// decoupled L1's 50% training cap).
    pub fn any_trained(&self) -> bool {
        self.any_trained
    }

    /// Clears all entries (kernel boundary).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.seq = 0;
        self.any_trained = false;
        self.walks.clear();
        self.walk_pcs.clear();
    }

    /// Serializes entries (in table order — it is LRU-meaningful) and
    /// training cursors for a checkpoint. The configuration is not
    /// captured; restore requires a table built with the same config.
    pub fn save_state(&self) -> Value {
        Value::Obj(vec![
            (
                "entries".into(),
                Value::Arr(self.entries.iter().map(TailEntry::save_state).collect()),
            ),
            ("seq".into(), Value::u64(self.seq)),
            ("any_trained".into(), Value::Bool(self.any_trained)),
        ])
    }

    /// Restores state captured by [`TailTable::save_state`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] when an entry does not decode or
    /// the checkpoint holds more entries than this table's capacity.
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let items = json::arr_field(v, "entries")?;
        if items.len() > self.cfg.entries {
            return Err(SnapshotError::malformed(format!(
                "checkpoint has {} tail entries, capacity is {}",
                items.len(),
                self.cfg.entries
            )));
        }
        let seq = json::u64_field(v, "seq")?;
        let any_trained = json::bool_field(v, "any_trained")?;
        let mut entries = Vec::with_capacity(self.cfg.entries);
        for item in items {
            entries.push(TailEntry::from_state(item)?);
        }
        self.entries = entries;
        self.seq = seq;
        self.any_trained = any_trained;
        self.walks.clear();
        self.walk_pcs.clear();
        Ok(())
    }

    fn tick(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The stamp a [`CachedWalk`] for warp bit `bit` must carry to be
    /// valid: both counters only grow, so their sum moves whenever
    /// either does.
    fn walk_stamp(&self, bit: u32) -> u64 {
        self.version + self.warp_versions[bit as usize]
    }

    /// The detection step (Fig 12): digest one Head-table transition.
    pub fn observe(&mut self, t: &Transition) {
        let stride = t.stride();
        let seq = self.tick();

        // ── Verification / demotion (§3.2 last paragraph): if this
        // warp previously claimed a different (pc2, stride) continuation
        // for prev_pc, remove it from that entry's warp vector.
        let bit = (t.warp.0 % 64) as usize;
        for e in &mut self.entries {
            if e.pc1 == t.prev_pc
                && e.has_warp(t.warp)
                && !(e.pc2 == t.cur_pc && e.inter_thread_stride == stride)
            {
                e.warp_vec &= !warp_bit(t.warp);
                self.warp_versions[bit] += 1;
                if e.popcount() < PROMOTE_THRESHOLD && e.t1.can_prefetch() {
                    e.t1 = TrainState::NotTrained;
                    self.version += 1;
                }
            }
        }

        // ── Intra-warp stride candidate (computed against the *old*
        // table contents, before this transition is inserted):
        // case 1 — the same PC re-executed consecutively; case 2 —
        // non-consecutive re-execution, reconstructed by accumulating
        // the warp's chain strides from cur_pc to prev_pc (§3.1).
        let intra_candidate = if t.cur_pc == t.prev_pc {
            Some(stride)
        } else {
            self.chain_distance(t.warp, t.cur_pc, t.prev_pc)
                .map(|total| {
                    let old_base = t.prev_addr.offset(-total);
                    t.cur_addr.stride_from(old_base)
                })
        };

        // ── Inter-thread chain entry: match or insert (Fig 12 ❷–❺).
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.pc1 == t.prev_pc && e.pc2 == t.cur_pc && e.inter_thread_stride == stride)
        {
            let had_warp = e.has_warp(t.warp);
            let t1 = e.t1;
            e.warp_vec |= warp_bit(t.warp);
            e.last_use = seq;
            if had_warp {
                e.repeats = e.repeats.saturating_add(1);
            } else {
                self.warp_versions[bit] += 1;
            }
            if e.t1 == TrainState::Promoted && had_warp {
                // Re-confirmation after promotion.
                e.t1 = TrainState::Trained;
            } else if e.t1 < TrainState::Promoted
                && (e.popcount() >= PROMOTE_THRESHOLD || e.repeats >= 2)
            {
                // Promote via the SIMT multi-warp rule (>= 3 warps) or
                // via in-warp loop repetition (seen, then repeated) —
                // both training paths of §3.2.
                e.t1 = TrainState::Promoted;
            }
            if e.t1 != t1 {
                self.version += 1;
            }
            if e.t1.can_prefetch() {
                self.any_trained = true;
            }
        } else {
            self.insert(TailEntry::new(t.prev_pc, t.cur_pc, stride, t.warp, seq));
        }

        // ── Fixed strides, applied after the entry exists so the very
        // first observation of a PC is not lost.
        if let Some(intra) = intra_candidate {
            self.update_intra(t.cur_pc, t.warp, intra);
        }
        self.update_inter_warp(t.prev_pc, t.warp, t.prev_addr);
    }

    /// Accumulated stride from `from` to `to` along `warp`'s trained
    /// chain links, if a path exists within the walk bound.
    fn chain_distance(&self, warp: WarpId, from: Pc, to: Pc) -> Option<i64> {
        let mut pc = from;
        let mut total = 0i64;
        for _ in 0..MAX_CHAIN_WALK {
            let e = self
                .entries
                .iter()
                .find(|e| e.pc1 == pc && e.has_warp(warp))?;
            total += e.inter_thread_stride;
            if e.pc2 == to {
                return Some(total);
            }
            pc = e.pc2;
            if pc == from {
                return None; // cycle without reaching `to`
            }
        }
        None
    }

    fn update_intra(&mut self, pc: Pc, warp: WarpId, stride: i64) {
        let mut trained = false;
        if let Some(e) = self.entries.iter_mut().find(|e| e.pc1 == pc) {
            match e.intra_stride {
                None => {
                    e.intra_stride = Some(stride);
                    e.t2 = TrainState::Observed;
                    e.intra_warps = warp_bit(warp);
                }
                Some(v) if v == stride => {
                    e.intra_warps |= warp_bit(warp);
                    if e.intra_warps.count_ones() >= PROMOTE_THRESHOLD {
                        e.t2 = TrainState::Trained;
                    } else if e.t2 == TrainState::Observed {
                        // Second consistent sighting (possibly the same
                        // warp looping): promote.
                        e.t2 = TrainState::Promoted;
                    }
                }
                Some(_) => {
                    // Pattern changed: retrain.
                    e.intra_stride = Some(stride);
                    e.t2 = TrainState::Observed;
                    e.intra_warps = warp_bit(warp);
                }
            }
            trained = e.t2.can_prefetch();
        }
        if trained {
            self.any_trained = true;
        }
    }

    fn update_inter_warp(&mut self, pc: Pc, warp: WarpId, addr: Address) {
        let mut trained = false;
        if let Some(e) = self.entries.iter_mut().find(|e| e.pc1 == pc) {
            match e.iw_base {
                None => e.iw_base = Some((warp, addr)),
                Some((w0, a0)) if w0 != warp => {
                    let dw = i64::from(warp.0) - i64::from(w0.0);
                    let delta = addr.stride_from(a0);
                    if delta % dw == 0 {
                        let per_warp = delta / dw;
                        if e.iw_candidate == Some(per_warp) {
                            e.iw_confirm |= warp_bit(warp);
                            if e.iw_confirm.count_ones() >= PROMOTE_THRESHOLD {
                                e.inter_warp_stride = Some(per_warp);
                                trained = true;
                            }
                        } else {
                            e.iw_candidate = Some(per_warp);
                            e.iw_confirm = warp_bit(w0) | warp_bit(warp);
                        }
                    }
                }
                Some(_) => {} // same warp re-executing: intra-warp's job
            }
        }
        if trained {
            self.any_trained = true;
        }
    }

    fn insert(&mut self, entry: TailEntry) {
        self.version += 1;
        if self.entries.len() >= self.cfg.entries {
            let victim = self.eviction_victim();
            self.entries.swap_remove(victim);
        }
        self.entries.push(entry);
    }

    /// Chooses the entry index to evict per the configured policy.
    fn eviction_victim(&self) -> usize {
        debug_assert!(!self.entries.is_empty());
        match self.cfg.eviction {
            EvictionPolicy::PopcountOnly => self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| (e.popcount(), e.last_use))
                .map(|(i, _)| i)
                .expect("non-empty"),
            EvictionPolicy::LruThenPopcount => {
                // LRU bucket = oldest half (at least one entry).
                let mut order: Vec<usize> = (0..self.entries.len()).collect();
                order.sort_by_key(|&i| self.entries[i].last_use);
                let bucket = self.entries.len().div_ceil(2);
                order[..bucket]
                    .iter()
                    .copied()
                    .min_by_key(|&i| (self.entries[i].popcount(), self.entries[i].last_use))
                    .expect("non-empty bucket")
            }
        }
    }

    /// The prefetching step (§3.2): generate target addresses for a
    /// demand execution of `pc` at `addr` by `warp`.
    ///
    /// `chain_depth` bounds the inter-thread chain walk; `iw_degree`
    /// is how many future warps to cover with the inter-warp stride;
    /// `use_fixed` enables the intra-warp/inter-warp fixed-stride
    /// targets (s-Snake passes `false`). Targets are appended to `out`
    /// in priority order (inter-thread first — "Snake accords priority
    /// to the inter-thread stride", §3.4 — then intra-warp, then
    /// inter-warp); the chain targets are distinct from each other and
    /// from `addr`, and `out`'s earlier contents are not read. Returns
    /// a [`WalkSummary`] describing how the chain walk ended, for
    /// telemetry.
    ///
    /// The walk is cached per (`pc`, `warp % 64`) and taken again only
    /// after the table changed in a way it reads (an insert, an
    /// eviction, a `t1` change, that warp bit in a `warp_vec`, a
    /// restore); a cached walk is cut to, or extended to,
    /// `chain_depth`. A cache hit stamps the visited entries' LRU
    /// state exactly as walking them would.
    #[allow(clippy::too_many_arguments)]
    pub fn generate(
        &mut self,
        warp: WarpId,
        pc: Pc,
        addr: Address,
        chain_depth: usize,
        iw_degree: u32,
        use_fixed: bool,
        out: &mut impl Extend<Address>,
    ) -> WalkSummary {
        let seq = self.tick();

        // Inter-thread chain walk: replay the cached hops, then walk on.
        let bit = warp.0 % 64;
        let stamp = self.walk_stamp(bit);
        let block = self.walk_pcs.iter().position(|&p| p == pc);
        let mut first_walk = CachedWalk::STALE;
        let walk = match block {
            Some(b) => &mut self.walks[64 * b + bit as usize],
            None => &mut first_walk,
        };
        if walk.stamp != stamp {
            *walk = CachedWalk {
                stamp,
                fixed: self
                    .entries
                    .iter()
                    .position(|e| e.pc1 == pc)
                    .map(entry_index),
                ..CachedWalk::STALE
            };
        }
        let mut cum = 0i64;
        let mut cur_pc = pc;
        let mut steps = chain_depth.min(usize::from(walk.len));
        for (i, &idx) in walk.hops[..steps].iter().enumerate() {
            let e = &mut self.entries[usize::from(idx)];
            e.last_use = seq;
            cum += e.inter_thread_stride;
            if walk.new_target & (1 << i) != 0 {
                self.offsets.push(cum);
            }
            cur_pc = e.pc2;
        }
        while steps < chain_depth && !walk.ended {
            let Some(idx) = self.entries.iter().position(|e| {
                e.pc1 == cur_pc
                    && e.t1.can_prefetch()
                    && (e.has_warp(warp) || e.t1 == TrainState::Promoted)
            }) else {
                walk.ended = steps == usize::from(walk.len);
                break;
            };
            let e = &mut self.entries[idx];
            e.last_use = seq;
            cum += e.inter_thread_stride;
            // Zero-stride links (e.g. a chain returning to the same
            // address) and laps revisiting earlier targets add nothing.
            let new_target = cum != 0 && !self.offsets.contains(&cum);
            if new_target {
                self.offsets.push(cum);
            }
            cur_pc = e.pc2;
            if steps == usize::from(walk.len) && steps < CACHED_HOPS {
                walk.hops[steps] = entry_index(idx);
                walk.new_target |= u16::from(new_target) << steps;
                walk.len += 1;
            }
            steps += 1;
            // Note: deliberately *no* cycle break — walking around a
            // loop's chain cycle repeatedly is how Snake prefetches
            // multiple iterations ahead ("delving deeper", §3.2/Fig 13);
            // `chain_depth` (throttling) bounds the walk.
        }
        let fixed = walk.fixed;
        // A PC gets its 64 walks once a walk from it takes a hop: most
        // loads of an irregular kernel never start a chain.
        if block.is_none() && first_walk.len > 0 {
            self.walk_pcs.push(pc);
            self.walks.extend([CachedWalk::STALE; 64]);
            self.walks[64 * (self.walk_pcs.len() - 1) + bit as usize] = first_walk;
        }
        let summary = WalkSummary {
            steps: steps as u32,
            exhausted: steps == chain_depth,
            chain_targets: self.offsets.len(),
        };
        out.extend(self.offsets.drain(..).map(|o| addr.offset(o)));

        // Intra-warp and inter-warp strides of this PC.
        if !use_fixed {
            return summary;
        }
        if let Some(e) = fixed.map(|i| &mut self.entries[usize::from(i)]) {
            e.last_use = seq;
            if e.t2.can_prefetch() {
                if let Some(s) = e.intra_stride {
                    out.extend([addr.offset(s)]);
                }
            }
            if let Some(s) = e.inter_warp_stride {
                out.extend((1..=i64::from(iw_degree)).map(|k| addr.offset(s * k)));
            }
        }
        summary
    }
}

/// Aggregate result of one [`TailTable::generate`] chain walk, used
/// for chain-walk telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalkSummary {
    /// Inter-thread chain hops taken.
    pub steps: u32,
    /// Whether the walk stopped at the depth bound, rather than
    /// running out of trained links.
    pub exhausted: bool,
    /// Chain-walk targets appended to `out` (fixed-stride targets
    /// appended afterwards are not counted).
    pub chain_targets: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tr(warp: u32, pc1: u32, a1: u64, pc2: u32, a2: u64) -> Transition {
        Transition {
            warp: WarpId(warp),
            prev_pc: Pc(pc1),
            prev_addr: Address(a1),
            cur_pc: Pc(pc2),
            cur_addr: Address(a2),
        }
    }

    fn table() -> TailTable {
        TailTable::new(TailTableConfig::default())
    }

    #[test]
    fn three_warps_promote_inter_thread_stride() {
        let mut t = table();
        for w in 0..3u32 {
            let base = 1000 * u64::from(w);
            t.observe(&tr(w, 10, base, 20, base + 400));
        }
        let e = &t.entries()[0];
        assert_eq!(e.pc1, Pc(10));
        assert_eq!(e.pc2, Pc(20));
        assert_eq!(e.inter_thread_stride, 400);
        assert_eq!(e.t1, TrainState::Promoted);
        assert_eq!(e.popcount(), 3);
        assert!(t.any_trained());
    }

    #[test]
    fn two_warps_do_not_promote() {
        let mut t = table();
        for w in 0..2u32 {
            t.observe(&tr(w, 10, 0, 20, 400));
        }
        assert_eq!(t.entries()[0].t1, TrainState::Observed);
        assert!(!t.any_trained());
    }

    #[test]
    fn reconfirmation_upgrades_promoted_to_trained() {
        let mut t = table();
        for w in 0..3u32 {
            t.observe(&tr(w, 10, 0, 20, 400));
        }
        assert_eq!(t.entries()[0].t1, TrainState::Promoted);
        t.observe(&tr(0, 10, 4000, 20, 4400));
        assert_eq!(t.entries()[0].t1, TrainState::Trained);
    }

    #[test]
    fn divergent_continuation_demotes_warp() {
        let mut t = table();
        for w in 0..3u32 {
            t.observe(&tr(w, 10, 0, 20, 400));
        }
        // Warp 1 now continues 10 -> 30 instead: removed from the
        // (10,20) entry; popcount drops below 3 -> not trained.
        t.observe(&tr(1, 10, 0, 30, 800));
        let e = t
            .entries()
            .iter()
            .find(|e| e.pc1 == Pc(10) && e.pc2 == Pc(20))
            .unwrap();
        assert!(!e.has_warp(WarpId(1)));
        assert_eq!(e.t1, TrainState::NotTrained);
    }

    #[test]
    fn variable_strides_coexist_in_separate_entries() {
        let mut t = table();
        t.observe(&tr(0, 10, 0, 20, 400));
        t.observe(&tr(1, 10, 0, 20, 800));
        assert_eq!(t.entries().len(), 2, "different strides, different entries");
    }

    #[test]
    fn consecutive_same_pc_trains_intra_stride() {
        let mut t = table();
        // Warp 0 loops on pc 10 with stride 128 (case 1).
        t.observe(&tr(0, 10, 0, 10, 128));
        t.observe(&tr(0, 10, 128, 10, 256));
        let e = &t.entries()[0];
        assert_eq!(e.intra_stride, Some(128));
        assert!(e.t2.can_prefetch(), "second consistent sighting promotes");
    }

    #[test]
    fn nonconsecutive_intra_stride_reconstructed_via_chain() {
        // Loop body: pc10 -> pc20 -> pc30 -> pc10 (next iteration).
        // Iteration i: pc10@b, pc20@b+400, pc30@b+1000, next b' = b+4096.
        let mut t = table();
        let mut b = 0u64;
        for _ in 0..4 {
            t.observe(&tr(0, 10, b, 20, b + 400));
            t.observe(&tr(0, 20, b + 400, 30, b + 1000));
            t.observe(&tr(0, 30, b + 1000, 10, b + 4096));
            b += 4096;
        }
        let e = t.entries().iter().find(|e| e.pc1 == Pc(10)).unwrap();
        assert_eq!(
            e.intra_stride,
            Some(4096),
            "chain accumulation must recover the loop stride"
        );
        assert!(e.t2.can_prefetch());
    }

    #[test]
    fn inter_warp_stride_commits_after_three_warps() {
        let mut t = table();
        // Warps 0..3 execute pc 10 at addresses w*512 (per-warp 512),
        // each followed by pc 20 (so pc10 appears as PC1).
        for w in 0..4u32 {
            let base = 512 * u64::from(w);
            t.observe(&tr(w, 10, base, 20, base + 128));
        }
        let e = t.entries().iter().find(|e| e.pc1 == Pc(10)).unwrap();
        assert_eq!(e.inter_warp_stride, Some(512));
    }

    #[test]
    fn inconsistent_inter_warp_stride_never_commits() {
        let mut t = table();
        let addrs = [0u64, 512, 700, 1900];
        for (w, a) in addrs.iter().enumerate() {
            t.observe(&tr(w as u32, 10, *a, 20, a + 128));
        }
        let e = t.entries().iter().find(|e| e.pc1 == Pc(10)).unwrap();
        assert_eq!(e.inter_warp_stride, None);
    }

    #[test]
    fn generate_walks_chain_to_depth() {
        let mut t = table();
        // Train chain 10 -(+400)-> 20 -(+600)-> 30 on 3 warps.
        for w in 0..3u32 {
            let b = 10_000 * u64::from(w);
            t.observe(&tr(w, 10, b, 20, b + 400));
            t.observe(&tr(w, 20, b + 400, 30, b + 1000));
        }
        let mut out = Vec::new();
        t.generate(WarpId(0), Pc(10), Address(50_000), 4, 0, true, &mut out);
        assert_eq!(out[0], Address(50_400), "one hop");
        assert_eq!(out[1], Address(51_000), "two hops");
    }

    #[test]
    fn generate_uses_promoted_entries_for_new_warps() {
        let mut t = table();
        for w in 0..3u32 {
            t.observe(&tr(
                w,
                10,
                1000 * u64::from(w),
                20,
                1000 * u64::from(w) + 400,
            ));
        }
        // Warp 7 never observed the pattern but it is promoted.
        let mut out = Vec::new();
        t.generate(WarpId(7), Pc(10), Address(9000), 4, 0, true, &mut out);
        assert_eq!(out, vec![Address(9400)]);
    }

    #[test]
    fn generate_reports_walk_summary() {
        let mut t = table();
        for w in 0..3u32 {
            let b = 10_000 * u64::from(w);
            t.observe(&tr(w, 10, b, 20, b + 400));
            t.observe(&tr(w, 20, b + 400, 30, b + 1000));
        }
        let mut out = Vec::new();
        // Depth 2 on a two-link chain: the depth bound is what stops it.
        let s = t.generate(WarpId(0), Pc(10), Address(50_000), 2, 0, true, &mut out);
        assert_eq!(s.steps, 2);
        assert!(s.exhausted);
        assert_eq!(s.chain_targets, 2);
        // Depth 4: the chain runs out of links after two hops.
        let mut out = Vec::new();
        let s = t.generate(WarpId(0), Pc(10), Address(50_000), 4, 0, true, &mut out);
        assert_eq!(s.steps, 2);
        assert!(!s.exhausted);
        // Untrained PC: the walk never starts.
        let mut out = Vec::new();
        let s = t.generate(WarpId(0), Pc(77), Address(0), 4, 0, true, &mut out);
        assert_eq!(s.steps, 0);
        assert!(!s.exhausted);
        assert_eq!(s.chain_targets, 0);
    }

    #[test]
    fn generate_emits_nothing_untrained() {
        let mut t = table();
        t.observe(&tr(0, 10, 0, 20, 400));
        let mut out = Vec::new();
        t.generate(WarpId(0), Pc(10), Address(0), 4, 2, true, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn generate_inter_warp_degree() {
        let mut t = table();
        for w in 0..4u32 {
            let base = 512 * u64::from(w);
            t.observe(&tr(w, 10, base, 20, base + 128));
        }
        let mut out = Vec::new();
        t.generate(WarpId(5), Pc(10), Address(10_000), 0, 3, true, &mut out);
        assert_eq!(out, vec![Address(10_512), Address(11_024), Address(11_536)]);
    }

    #[test]
    fn capacity_is_enforced_with_eviction() {
        let mut t = TailTable::new(TailTableConfig {
            entries: 4,
            ..Default::default()
        });
        for i in 0..10u32 {
            t.observe(&tr(0, i, 0, i + 100, 400));
        }
        assert_eq!(t.entries().len(), 4);
    }

    #[test]
    fn eviction_prefers_low_popcount_in_lru_bucket() {
        let mut t = TailTable::new(TailTableConfig {
            entries: 3,
            ..Default::default()
        });
        // Entry A: 3 warps (popular, oldest).
        for w in 0..3u32 {
            t.observe(&tr(w, 1, 0, 2, 400));
        }
        // Entry B: 1 warp.
        t.observe(&tr(0, 3, 0, 4, 400));
        // Entry C: 1 warp (most recent).
        t.observe(&tr(0, 5, 0, 6, 400));
        // Insert D: LRU bucket = {A, B} (oldest half); B has fewer bits.
        t.observe(&tr(0, 7, 0, 8, 400));
        assert!(
            t.entries().iter().any(|e| e.pc1 == Pc(1)),
            "popular old entry A survives"
        );
        assert!(
            !t.entries().iter().any(|e| e.pc1 == Pc(3)),
            "unpopular old entry B evicted"
        );
    }

    #[test]
    fn popcount_only_policy_evicts_globally_fewest() {
        let mut t = TailTable::new(TailTableConfig {
            entries: 3,
            eviction: EvictionPolicy::PopcountOnly,
        });
        for w in 0..3u32 {
            t.observe(&tr(w, 1, 0, 2, 400));
        }
        t.observe(&tr(0, 3, 0, 4, 400));
        for w in 0..2u32 {
            t.observe(&tr(w, 5, 0, 6, 400));
        }
        // Newest entry (pc 3->4) has 1 bit: it goes despite recency.
        t.observe(&tr(0, 7, 0, 8, 400));
        assert!(!t.entries().iter().any(|e| e.pc1 == Pc(3)));
    }

    #[test]
    fn reset_clears_everything() {
        let mut t = table();
        for w in 0..3u32 {
            t.observe(&tr(w, 10, 0, 20, 400));
        }
        assert!(t.any_trained());
        t.reset();
        assert!(t.entries().is_empty());
        assert!(!t.any_trained());
    }

    /// Trains the chain 10 -(+stride)-> 20 on three warps.
    fn chain_table(stride: u64) -> TailTable {
        let mut t = table();
        for w in 0..3u32 {
            let b = 10_000 * u64::from(w);
            t.observe(&tr(w, 10, b, 20, b + stride));
        }
        t
    }

    fn walk(t: &mut TailTable) -> Vec<Address> {
        let mut out = Vec::new();
        t.generate(WarpId(0), Pc(10), Address(50_000), 4, 0, false, &mut out);
        out
    }

    #[test]
    fn reset_drops_cached_walks() {
        let mut t = chain_table(400);
        assert_eq!(walk(&mut t), vec![Address(50_400)]);
        t.reset();
        assert!(walk(&mut t).is_empty(), "a reset table has no chains");
    }

    #[test]
    fn restore_state_drops_cached_walks() {
        let mut t = chain_table(400);
        assert_eq!(walk(&mut t), vec![Address(50_400)]);
        t.restore_state(&chain_table(800).save_state()).unwrap();
        assert_eq!(walk(&mut t), vec![Address(50_800)]);
    }

    #[test]
    fn walks_deeper_than_the_cache_are_finished_afresh() {
        // An 18-link straight chain 0 -> 1 -> ... -> 18 of +64 strides.
        let mut t = TailTable::new(TailTableConfig {
            entries: 32,
            ..Default::default()
        });
        for w in 0..3u32 {
            for pc in 0..18u32 {
                let a = 10_000 * u64::from(w) + 64 * u64::from(pc);
                t.observe(&tr(w, pc, a, pc + 1, a + 64));
            }
        }
        let chain: Vec<Address> = (1..=18).map(|k| Address(64 * k)).collect();
        for _ in 0..2 {
            let mut out = Vec::new();
            let s = t.generate(WarpId(0), Pc(0), Address(0), 20, 0, false, &mut out);
            assert_eq!(out, chain);
            assert_eq!((s.steps, s.exhausted), (18, false));
        }
    }

    #[test]
    fn train_state_bits_match_paper_encoding() {
        assert_eq!(TrainState::NotTrained.bits(), 0b00);
        assert_eq!(TrainState::Observed.bits(), 0b01);
        assert_eq!(TrainState::Promoted.bits(), 0b10);
        assert_eq!(TrainState::Trained.bits(), 0b11);
    }
}
