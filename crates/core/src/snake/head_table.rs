//! The Head table (§3.1).
//!
//! Stores, per warp, the last executed load PC and its requested base
//! address. Whenever a warp executes a new load, the table emits the
//! *transition* — `(warp, previous PC, current PC, address stride)` —
//! which is what trains the Tail table (Fig 12 ❶).
//!
//! Hardware note: the paper sizes the table at `N = warps/2` rows with
//! *doubled* warp-id/base-address columns so that a greedy scheduler
//! (GTO) interleaving two warps on one row does not destroy the
//! inter-warp history (§5.5, Table 3: 14 bytes × 32 entries = 448 B).
//! [`HeadLayout`] models all three options: the idealized one-record-
//! per-warp table, the paper's paired rows with doubled columns, and
//! the cheaper single-column paired row the doubling defends against.

use snake_sim::snapshot::SnapshotError;
use snake_sim::{Address, Pc, WarpId};

/// A Head-table update result: the load-to-load transition of a warp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The warp that executed both loads.
    pub warp: WarpId,
    /// Previous load PC (`PC1` in the Tail table).
    pub prev_pc: Pc,
    /// Previous load base address.
    pub prev_addr: Address,
    /// Current load PC (`PC2` in the Tail table).
    pub cur_pc: Pc,
    /// Current load base address.
    pub cur_addr: Address,
}

impl Transition {
    /// The inter-thread stride between the two loads.
    pub fn stride(&self) -> i64 {
        self.cur_addr.stride_from(self.prev_addr)
    }
}

/// Physical organization of the Head table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HeadLayout {
    /// Idealized: one `(PC, address)` record per warp. Equivalent to
    /// the paper's paired layout when paired warps execute the same
    /// PCs (the common SIMT case); used as the default.
    #[default]
    PerWarp,
    /// The paper's layout (§5.5): `warps/2` rows, each with *one* PC
    /// column and **two** `(warp id, base address)` slots, so both
    /// warps of a pair keep their base address when a greedy scheduler
    /// interleaves them.
    PairedDoubled,
    /// The cheaper organization the doubling defends against: paired
    /// rows with a *single* `(warp id, base address)` slot — the
    /// second warp of a pair evicts the first's history on every
    /// interleaving (ablation for the §5.5 claim).
    PairedSingle,
}

#[derive(Debug, Clone, Copy, Default)]
struct PairedRow {
    /// The row's shared last-executed load PC.
    pc: Option<Pc>,
    /// Up to two `(warp, base address)` slots.
    slots: [Option<(WarpId, Address)>; 2],
}

// A checkpointed paired row is `[pc, slot, slot]`, each cell `null` or a
// value.
snake_sim::state_row!(PairedRow { pc, slots });

/// The Head table.
#[derive(Debug, Clone)]
pub struct HeadTable {
    layout: HeadLayout,
    /// Warp rows the table was built for.
    warps: u32,
    /// PerWarp storage.
    entries: Vec<Option<(Pc, Address)>>,
    /// Paired-row storage.
    rows: Vec<PairedRow>,
}

impl HeadTable {
    /// Creates a table for `warps` resident warps with the idealized
    /// per-warp layout.
    ///
    /// # Panics
    ///
    /// Panics if `warps` is zero.
    pub fn new(warps: u32) -> Self {
        HeadTable::with_layout(warps, HeadLayout::PerWarp)
    }

    /// Creates a table with an explicit physical layout.
    ///
    /// # Panics
    ///
    /// Panics if `warps` is zero.
    pub fn with_layout(warps: u32, layout: HeadLayout) -> Self {
        assert!(warps > 0, "head table needs at least one warp row");
        HeadTable {
            layout,
            warps,
            entries: vec![None; warps as usize],
            rows: vec![PairedRow::default(); warps.div_ceil(2) as usize],
        }
    }

    /// The layout in use.
    pub fn layout(&self) -> HeadLayout {
        self.layout
    }

    /// Number of warp rows.
    pub fn warps(&self) -> u32 {
        self.warps
    }

    /// Records that `warp` executed a load at `pc` for `addr`; returns
    /// the transition from the warp's previous load, if any.
    ///
    /// Warps beyond the table's capacity alias onto existing rows
    /// (modulo), as bounded hardware would.
    pub fn update(&mut self, warp: WarpId, pc: Pc, addr: Address) -> Option<Transition> {
        match self.layout {
            HeadLayout::PerWarp => {
                let idx = warp.index() % self.entries.len();
                let prev = self.entries[idx].replace((pc, addr));
                prev.map(|(prev_pc, prev_addr)| Transition {
                    warp,
                    prev_pc,
                    prev_addr,
                    cur_pc: pc,
                    cur_addr: addr,
                })
            }
            HeadLayout::PairedDoubled | HeadLayout::PairedSingle => {
                let slots = if self.layout == HeadLayout::PairedDoubled {
                    2
                } else {
                    1
                };
                let idx = (warp.index() / 2) % self.rows.len();
                let row = &mut self.rows[idx];
                // A transition exists only if this warp still holds a
                // slot *and* the row's shared PC is its previous PC
                // (the pair partner may have overwritten it).
                let prev = row.slots[..slots]
                    .iter()
                    .flatten()
                    .find(|(w, _)| *w == warp)
                    .map(|(_, a)| *a)
                    .zip(row.pc);
                // Update: shared PC column takes the new PC; this
                // warp's slot takes the new address (evicting the
                // partner when only one slot exists).
                row.pc = Some(pc);
                let slot = row.slots[..slots]
                    .iter()
                    .position(|s| s.is_some_and(|(w, _)| w == warp))
                    .or_else(|| row.slots[..slots].iter().position(|s| s.is_none()))
                    .unwrap_or(0);
                row.slots[slot] = Some((warp, addr));
                prev.map(|(prev_addr, prev_pc)| Transition {
                    warp,
                    prev_pc,
                    prev_addr,
                    cur_pc: pc,
                    cur_addr: addr,
                })
            }
        }
    }

    /// The last recorded `(PC, address)` for `warp`, if any.
    pub fn last(&self, warp: WarpId) -> Option<(Pc, Address)> {
        match self.layout {
            HeadLayout::PerWarp => self.entries[warp.index() % self.entries.len()],
            HeadLayout::PairedDoubled | HeadLayout::PairedSingle => {
                let slots = if self.layout == HeadLayout::PairedDoubled {
                    2
                } else {
                    1
                };
                let row = &self.rows[(warp.index() / 2) % self.rows.len()];
                row.slots[..slots]
                    .iter()
                    .flatten()
                    .find(|(w, _)| *w == warp)
                    .and_then(|(_, a)| row.pc.map(|pc| (pc, *a)))
            }
        }
    }

    /// Clears all rows (kernel boundary).
    pub fn reset(&mut self) {
        self.entries.fill(None);
        self.rows.fill(PairedRow::default());
    }

    /// Checks restored rows against the table's construction.
    fn check_shape(&mut self) -> Result<(), SnapshotError> {
        let (entries, rows) = (self.warps as usize, self.warps.div_ceil(2) as usize);
        if self.entries.len() != entries || self.rows.len() != rows {
            return Err(SnapshotError::malformed(format!(
                "head table shape mismatch: checkpoint {}x{} rows, table {entries}x{rows}",
                self.entries.len(),
                self.rows.len(),
            )));
        }
        Ok(())
    }
}

// Both storage organizations; the layout and row count are configuration.
snake_sim::restore_fields!(HeadTable { entries, rows } then check_shape);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_load_yields_no_transition() {
        let mut h = HeadTable::new(4);
        assert!(h.update(WarpId(0), Pc(10), Address(1000)).is_none());
        assert_eq!(h.last(WarpId(0)), Some((Pc(10), Address(1000))));
    }

    #[test]
    fn second_load_yields_transition_with_stride() {
        let mut h = HeadTable::new(4);
        h.update(WarpId(1), Pc(10), Address(1000));
        let t = h.update(WarpId(1), Pc(20), Address(600)).unwrap();
        assert_eq!(t.prev_pc, Pc(10));
        assert_eq!(t.cur_pc, Pc(20));
        assert_eq!(t.stride(), -400);
    }

    #[test]
    fn warps_do_not_interfere() {
        let mut h = HeadTable::new(4);
        h.update(WarpId(0), Pc(10), Address(0));
        h.update(WarpId(1), Pc(10), Address(128));
        let t0 = h.update(WarpId(0), Pc(20), Address(64)).unwrap();
        assert_eq!(t0.stride(), 64);
        let t1 = h.update(WarpId(1), Pc(20), Address(256)).unwrap();
        assert_eq!(t1.stride(), 128);
    }

    #[test]
    fn overflow_warps_alias() {
        let mut h = HeadTable::new(2);
        h.update(WarpId(0), Pc(1), Address(0));
        // Warp 2 aliases onto row 0.
        let t = h.update(WarpId(2), Pc(2), Address(128)).unwrap();
        assert_eq!(t.prev_pc, Pc(1));
    }

    #[test]
    fn paired_doubled_survives_pair_interleaving() {
        // Warps 0 and 1 share a row; with doubled slots both keep
        // their base address across interleaving on the same PC.
        let mut h = HeadTable::with_layout(4, HeadLayout::PairedDoubled);
        assert!(h.update(WarpId(0), Pc(10), Address(0)).is_none());
        assert!(h.update(WarpId(1), Pc(10), Address(128)).is_none());
        let t0 = h.update(WarpId(0), Pc(20), Address(400)).unwrap();
        assert_eq!(t0.prev_pc, Pc(10));
        assert_eq!(t0.prev_addr, Address(0));
        let t1 = h.update(WarpId(1), Pc(20), Address(528)).unwrap();
        // The shared PC column was overwritten to 20 by warp 0; warp 1
        // therefore attributes its transition to PC 20 — the benign
        // SIMT case is when pairs run the same PCs, as here.
        assert_eq!(t1.prev_addr, Address(128));
    }

    #[test]
    fn paired_single_loses_the_partner_history() {
        let mut h = HeadTable::with_layout(4, HeadLayout::PairedSingle);
        assert!(h.update(WarpId(0), Pc(10), Address(0)).is_none());
        // Warp 1 evicts warp 0's only slot.
        assert!(h.update(WarpId(1), Pc(10), Address(128)).is_none());
        // Warp 0's next load finds no slot: the transition is lost.
        assert!(h.update(WarpId(0), Pc(20), Address(400)).is_none());
    }

    #[test]
    fn paired_layouts_report_and_reset() {
        let mut h = HeadTable::with_layout(4, HeadLayout::PairedDoubled);
        assert_eq!(h.layout(), HeadLayout::PairedDoubled);
        h.update(WarpId(2), Pc(1), Address(64));
        assert_eq!(h.last(WarpId(2)), Some((Pc(1), Address(64))));
        assert_eq!(h.last(WarpId(3)), None);
        h.reset();
        assert_eq!(h.last(WarpId(2)), None);
    }

    #[test]
    fn reset_clears() {
        let mut h = HeadTable::new(2);
        h.update(WarpId(0), Pc(1), Address(0));
        h.reset();
        assert!(h.last(WarpId(0)).is_none());
        assert!(h.update(WarpId(0), Pc(2), Address(4)).is_none());
    }
}
