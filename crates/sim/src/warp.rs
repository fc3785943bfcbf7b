//! Per-warp execution state inside an SM.
//!
//! The simulator uses a simple but faithful warp model: a warp issues
//! its trace in order and blocks on memory (stall-on-load). Thread
//! level parallelism across the SM's resident warps provides the
//! latency hiding, exactly the mechanism whose breakdown (the memory
//! wall) the paper quantifies in Figs 3–5.

use crate::json::Value;
use crate::kernel::KernelTrace;
use crate::snapshot::{SnapshotError, State};
use crate::types::{Address, CtaId, Cycle, Pc};

/// The most warp slots one SM can hold: one bit each in a [`WarpMasks`]
/// word.
pub(crate) const MAX_WARP_SLOTS: u32 = u64::BITS;

/// Iterates the indices of the set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let i = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(i)
    })
}

/// One SM's warp states as bitmasks, bit `i` describing slot `i`, so the
/// per-cycle front-end decisions are mask tests instead of slot scans,
/// plus two per-slot words the front end would otherwise read out of
/// the slots: each busy slot's deadline and each live slot's age.
///
/// Derived state: every mutation of a slot is followed by
/// [`WarpMasks::set`] for that slot, which keeps the masks equal to
/// [`WarpMasks::from_slots`] of the slot array and the kernel (the
/// invariant auditor checks exactly that). They are rebuilt on restore,
/// never checkpointed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WarpMasks {
    /// Occupied slots.
    pub live: u64,
    /// [`WarpState::Ready`]: issuable this cycle (busy warps whose
    /// deadline has passed are refreshed to ready first).
    pub ready: u64,
    /// [`WarpState::Waiting`] on memory responses.
    pub waiting: u64,
    /// Ready, with reservation-failed transactions still pending.
    pub retry: u64,
    /// [`WarpState::Busy`] until a known cycle.
    pub busy: u64,
    /// Busy, with the latency entered by a memory instruction
    /// ([`WarpSlot::busy_mem`]).
    pub busy_mem: u64,
    /// Live slots whose trace cursor is at or past the end of their
    /// trace: the only slots retirement looks at. The trace length is
    /// not in the slot, so `set` keeps a live slot's bit (a cursor only
    /// moves forward) and clears a free slot's; the SM sets it with
    /// [`WarpMasks::exhaust`] at launch for an empty trace and when an
    /// issue moves the cursor past the last instruction.
    pub exhausted: u64,
    /// The earliest `Busy` deadline; `Cycle(u64::MAX)` when no slot is
    /// busy. No busy slot can become ready before this cycle.
    pub next_wake: Cycle,
    /// Each busy slot's deadline (`Cycle::ZERO` for a slot not busy).
    pub deadline: [Cycle; SLOTS],
    /// Each live slot's launch sequence number, GTO's age: smaller is
    /// older (0 for a free slot).
    pub age: [u64; SLOTS],
}

/// Slot count of a [`WarpMasks`] word.
const SLOTS: usize = MAX_WARP_SLOTS as usize;

impl Default for WarpMasks {
    fn default() -> Self {
        WarpMasks {
            live: 0,
            ready: 0,
            waiting: 0,
            retry: 0,
            busy: 0,
            busy_mem: 0,
            exhausted: 0,
            next_wake: Cycle(u64::MAX),
            deadline: [Cycle::ZERO; SLOTS],
            age: [0; SLOTS],
        }
    }
}

impl WarpMasks {
    /// Masks describing `slots` of a device running `kernel` from
    /// scratch. Every slot's `trace_idx` must index `kernel`.
    pub fn from_slots(slots: &[Option<WarpSlot>], kernel: &KernelTrace) -> Self {
        let mut masks = WarpMasks::default();
        for (i, slot) in slots.iter().enumerate() {
            masks.set(i, slot.as_ref());
            if slot
                .as_ref()
                .is_some_and(|s| s.next >= kernel.warps()[s.trace_idx].instrs.len())
            {
                masks.exhaust(i);
            }
        }
        masks
    }

    /// Re-derives slot `i`'s bits and words from its current contents
    /// (`None` for a free slot). `next_wake` only ever moves earlier
    /// here; the busy-slot refresh recomputes it.
    pub fn set(&mut self, i: usize, slot: Option<&WarpSlot>) {
        let bit = 1u64 << i;
        let clear = !bit;
        self.live &= clear;
        self.ready &= clear;
        self.waiting &= clear;
        self.retry &= clear;
        self.busy &= clear;
        self.busy_mem &= clear;
        self.deadline[i] = Cycle::ZERO;
        let Some(slot) = slot else {
            self.exhausted &= clear;
            self.age[i] = 0;
            return;
        };
        self.live |= bit;
        self.age[i] = slot.launch_seq;
        match slot.state {
            WarpState::Ready => {
                self.ready |= bit;
                if !slot.pending.is_empty() {
                    self.retry |= bit;
                }
            }
            WarpState::Waiting => self.waiting |= bit,
            WarpState::Busy(until) => {
                self.busy |= bit;
                if slot.busy_mem {
                    self.busy_mem |= bit;
                }
                self.deadline[i] = until;
                self.next_wake = self.next_wake.min(until);
            }
        }
    }

    /// Marks live slot `i`'s trace as exhausted.
    pub fn exhaust(&mut self, i: usize) {
        self.exhausted |= 1 << i;
    }

    /// Slots stalled *on memory* (for the Fig 5 stall taxonomy): waiting
    /// for responses or retrying rejected transactions.
    pub fn memory_stalled(&self) -> u64 {
        self.waiting | self.retry
    }
}

/// Execution state of a warp slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpState {
    /// Can issue this cycle (includes retrying reservation-failed
    /// transactions still in `pending`).
    Ready,
    /// Executing compute (or absorbing L1 hit latency) until the cycle.
    Busy(Cycle),
    /// Blocked on outstanding memory responses.
    Waiting,
}

/// `null` for ready, the deadline for busy, `true` for waiting.
impl State for WarpState {
    fn save(&self) -> Value {
        match self {
            WarpState::Ready => Value::Null,
            WarpState::Busy(until) => until.save(),
            WarpState::Waiting => Value::Bool(true),
        }
    }

    fn load(v: &Value) -> Result<Self, SnapshotError> {
        match v {
            Value::Null => Ok(WarpState::Ready),
            Value::Bool(true) => Ok(WarpState::Waiting),
            until => Cycle::load(until).map(WarpState::Busy),
        }
    }
}

/// A resident warp: trace cursor plus memory bookkeeping.
#[derive(Debug, Clone)]
pub struct WarpSlot {
    /// CTA this warp belongs to.
    pub cta: CtaId,
    /// Index of this warp's trace in the kernel.
    pub trace_idx: usize,
    /// Monotonic launch sequence number (for "oldest" scheduling).
    pub launch_seq: u64,
    /// Next instruction index in the trace.
    pub next: usize,
    /// Current state.
    pub state: WarpState,
    /// Transactions of the current memory instruction not yet accepted
    /// by the L1 (reservation-fail retry set).
    pub pending: Vec<Address>,
    /// PC of the in-flight memory instruction.
    pub cur_pc: Pc,
    /// Whether the in-flight memory instruction is a load.
    pub cur_is_load: bool,
    /// Whether the in-flight load was coalesced to one transaction
    /// (divergent warps are excluded from prefetcher training, §3.4).
    pub cur_coalesced: bool,
    /// Outstanding memory responses the warp is waiting for.
    pub outstanding: u32,
    /// Whether the current `Busy` state was entered by a memory
    /// instruction (absorbing L1 hit latency or a store settle) rather
    /// than compute. Disambiguates `Barrier` from `Scoreboard` in the
    /// stall taxonomy: an all-busy scheduler partition with a
    /// memory-entered busy warp is a memory-use barrier, not a compute
    /// dependency.
    pub busy_mem: bool,
}

impl WarpSlot {
    /// Creates a fresh slot about to execute `trace_idx`.
    pub fn new(cta: CtaId, trace_idx: usize, launch_seq: u64) -> Self {
        WarpSlot {
            cta,
            trace_idx,
            launch_seq,
            next: 0,
            state: WarpState::Ready,
            pending: Vec::new(),
            cur_pc: Pc(0),
            cur_is_load: false,
            cur_coalesced: true,
            outstanding: 0,
            busy_mem: false,
        }
    }

    /// Normalizes time-based state transitions at the start of a cycle.
    pub fn refresh(&mut self, now: Cycle) {
        if let WarpState::Busy(until) = self.state {
            if until <= now {
                self.state = WarpState::Ready;
            }
        }
    }

    /// Records a completed memory response; returns `true` when the
    /// warp became ready again.
    pub fn complete_response(&mut self) -> bool {
        debug_assert!(self.outstanding > 0, "spurious response");
        self.outstanding -= 1;
        if self.outstanding == 0 && self.state == WarpState::Waiting && self.pending.is_empty() {
            self.state = WarpState::Ready;
            true
        } else {
            false
        }
    }

    /// Called when the current memory instruction's transactions are
    /// all accepted: block on responses or absorb the hit latency (at
    /// least one cycle, like compute, so a busy deadline always lies
    /// past the tick that set it).
    pub fn settle_mem_instr(&mut self, now: Cycle, hit_latency: u32) {
        debug_assert!(self.pending.is_empty());
        if self.outstanding > 0 {
            self.state = WarpState::Waiting;
        } else {
            self.state = WarpState::Busy(now.plus(u64::from(hit_latency).max(1)));
            self.busy_mem = true;
        }
    }
}

crate::state_struct!(WarpSlot {
    cta,
    trace_idx,
    launch_seq,
    next,
    state,
    pending,
    cur_pc,
    cur_is_load,
    cur_coalesced,
    outstanding,
    busy_mem,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{Instr, WarpTrace};

    /// A kernel whose trace `t` holds `lens[t]` compute instructions.
    fn kernel(lens: &[usize]) -> KernelTrace {
        let traces = lens
            .iter()
            .map(|&n| WarpTrace::new(CtaId(0), vec![Instr::compute(1); n]))
            .collect();
        KernelTrace::new("masks", traces)
    }

    #[test]
    fn busy_refreshes_to_ready() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.state = WarpState::Busy(Cycle(10));
        w.refresh(Cycle(9));
        assert_eq!(w.state, WarpState::Busy(Cycle(10)));
        w.refresh(Cycle(10));
        assert_eq!(w.state, WarpState::Ready);
    }

    #[test]
    fn responses_unblock_when_all_arrive() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.outstanding = 2;
        w.state = WarpState::Waiting;
        assert!(!w.complete_response());
        assert!(w.complete_response());
        assert_eq!(w.state, WarpState::Ready);
    }

    #[test]
    fn settle_blocks_or_busies() {
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.outstanding = 1;
        w.settle_mem_instr(Cycle(5), 28);
        assert_eq!(w.state, WarpState::Waiting);

        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.settle_mem_instr(Cycle(5), 28);
        assert_eq!(w.state, WarpState::Busy(Cycle(33)));
    }

    #[test]
    fn masks_track_each_state() {
        let mut busy = WarpSlot::new(CtaId(0), 0, 0);
        busy.state = WarpState::Busy(Cycle(40));
        busy.busy_mem = true;
        let mut waiting = WarpSlot::new(CtaId(0), 1, 1);
        waiting.state = WarpState::Waiting;
        let mut retry = WarpSlot::new(CtaId(0), 2, 2);
        retry.pending.push(Address(4));
        let mut late = WarpSlot::new(CtaId(0), 3, 3);
        late.state = WarpState::Busy(Cycle(90));
        let mut slots = vec![None; 64];
        slots[0] = Some(busy);
        slots[5] = Some(waiting);
        slots[17] = Some(retry);
        slots[63] = Some(late);
        // Trace 3 is empty, so slot 63's warp is exhausted at launch.
        let m = WarpMasks::from_slots(&slots, &kernel(&[1, 1, 1, 0]));
        assert_eq!(m.live, 1 | 1 << 5 | 1 << 17 | 1 << 63);
        assert_eq!(m.ready, 1 << 17);
        assert_eq!(m.retry, 1 << 17);
        assert_eq!(m.waiting, 1 << 5);
        assert_eq!(m.busy, 1 | 1 << 63);
        assert_eq!(m.busy_mem, 1);
        assert_eq!(m.memory_stalled(), 1 << 5 | 1 << 17);
        assert_eq!(m.next_wake, Cycle(40));
        assert_eq!(m.exhausted, 1 << 63);
        assert_eq!((m.deadline[0], m.deadline[63]), (Cycle(40), Cycle(90)));
        assert_eq!(m.deadline[5], Cycle::ZERO, "only busy slots have deadlines");
        assert_eq!((m.age[5], m.age[17], m.age[63]), (1, 2, 3));
        assert_eq!(bits(m.live).collect::<Vec<_>>(), vec![0, 5, 17, 63]);

        let mut cleared = m;
        cleared.set(63, None);
        assert_eq!(cleared.live, 1 | 1 << 5 | 1 << 17);
        assert_eq!(cleared.busy, 1);
        assert_eq!(cleared.exhausted, 0, "a freed slot is not exhausted");
        assert_eq!((cleared.deadline[63], cleared.age[63]), (Cycle::ZERO, 0));
    }

    #[test]
    fn memory_stall_taxonomy() {
        let k = kernel(&[1]);
        let stalled = |w: WarpSlot| WarpMasks::from_slots(&[Some(w)], &k).memory_stalled() == 1;
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        assert!(!stalled(w.clone()));
        w.state = WarpState::Waiting;
        assert!(stalled(w));
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.pending.push(Address(4));
        assert!(stalled(w), "retrying a reservation fail is a memory stall");
        let mut w = WarpSlot::new(CtaId(0), 0, 0);
        w.state = WarpState::Busy(Cycle(100));
        assert!(!stalled(w), "compute busy is not a memory stall");
    }
}
