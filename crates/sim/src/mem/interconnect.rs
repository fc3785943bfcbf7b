//! Bandwidth-limited interconnection network between the SMs' L1
//! caches and the shared L2.
//!
//! Models a per-direction byte budget per cycle and a fixed transit
//! latency. Utilization is measured over a sliding window — this is
//! the signal Snake's bandwidth throttle watches (halt ≥70% of peak,
//! resume ≤50%, §3.3) and the metric of Fig 4.

use std::collections::VecDeque;

use crate::json::{self, Value};
use crate::obs::{NocDir, SimEvent, TraceEvent};
use crate::perfstat::{HostProfiler, Phase, Stopwatch};
use crate::snapshot::{self, SnapshotError};
use crate::types::{Cycle, LineAddr, SmId};

/// A request travelling L1→L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpPacket {
    /// Originating SM (for routing the response).
    pub sm: SmId,
    /// Target line.
    pub line: LineAddr,
    /// Write-through store traffic (no response expected).
    pub is_store: bool,
}

/// A fill response travelling L2→L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DownPacket {
    /// Destination SM.
    pub sm: SmId,
    /// Filled line.
    pub line: LineAddr,
}

/// Size in bytes of a read-request header on the wire.
pub const READ_REQUEST_BYTES: u64 = 32;

#[derive(Debug, Clone)]
struct Channel<T> {
    budget: u64,
    /// Budget actually granted per cycle; below `budget` during an
    /// injected bandwidth brownout.
    effective_budget: u64,
    /// Token-bucket credit; may go negative when a packet larger than
    /// one cycle's budget is sent (it then borrows from future cycles,
    /// modeling multi-cycle flit serialization).
    credit: i64,
    latency: u64,
    in_flight: VecDeque<(Cycle, T)>,
    total_bytes: u64,
    window_bytes: u64,
}

impl<T> Channel<T> {
    fn new(budget: u64, latency: u64) -> Self {
        Channel {
            budget,
            effective_budget: budget,
            credit: budget as i64,
            latency,
            in_flight: VecDeque::new(),
            total_bytes: 0,
            window_bytes: 0,
        }
    }

    fn begin_cycle(&mut self) {
        let b = self.effective_budget as i64;
        self.credit = (self.credit + b).min(b);
    }

    fn try_send(&mut self, pkt: T, bytes: u64, now: Cycle) -> bool {
        if self.credit <= 0 {
            return false;
        }
        self.credit -= bytes as i64;
        self.total_bytes += bytes;
        self.window_bytes += bytes;
        self.in_flight.push_back((now.plus(self.latency), pkt));
        true
    }

    fn pop_arrived(&mut self, now: Cycle) -> Option<T> {
        if let Some((ready, _)) = self.in_flight.front() {
            if *ready <= now {
                return self.in_flight.pop_front().map(|(_, p)| p);
            }
        }
        None
    }

    /// Serializes the runtime channel state (budget and latency are
    /// config-derived). Packets encode through `enc`, prefixed with
    /// their ready cycle.
    fn save_state(&self, enc: impl Fn(&T) -> Vec<Value>) -> Value {
        let in_flight = self
            .in_flight
            .iter()
            .map(|(ready, pkt)| {
                let mut row = vec![Value::u64(ready.0)];
                row.extend(enc(pkt));
                Value::Arr(row)
            })
            .collect();
        Value::Obj(vec![
            ("effective_budget".into(), Value::u64(self.effective_budget)),
            ("credit".into(), snapshot::i64_value(self.credit)),
            ("in_flight".into(), Value::Arr(in_flight)),
            ("total_bytes".into(), Value::u64(self.total_bytes)),
            ("window_bytes".into(), Value::u64(self.window_bytes)),
        ])
    }

    /// Restores from [`Channel::save_state`]; `dec` decodes the packet
    /// fields that follow the ready cycle. Nothing is applied until the
    /// whole in-flight queue decodes.
    fn restore_state(
        &mut self,
        v: &Value,
        dec: impl Fn(&[Value]) -> Option<T>,
    ) -> Result<(), SnapshotError> {
        let mut in_flight = VecDeque::new();
        for entry in json::arr_field(v, "in_flight")? {
            let row = entry
                .as_arr()
                .ok_or_else(|| SnapshotError::malformed("in-flight packet"))?;
            let ready = row
                .first()
                .and_then(Value::as_u64)
                .ok_or_else(|| SnapshotError::malformed("in-flight ready cycle"))?;
            let pkt =
                dec(&row[1..]).ok_or_else(|| SnapshotError::malformed("in-flight packet body"))?;
            in_flight.push_back((Cycle(ready), pkt));
        }
        self.effective_budget = json::u64_field(v, "effective_budget")?;
        self.credit = json::i64_field(v, "credit")?;
        self.in_flight = in_flight;
        self.total_bytes = json::u64_field(v, "total_bytes")?;
        self.window_bytes = json::u64_field(v, "window_bytes")?;
        Ok(())
    }
}

/// The L1↔L2 interconnect.
#[derive(Debug, Clone)]
pub struct Interconnect {
    up: Channel<UpPacket>,
    down: Channel<DownPacket>,
    window: u64,
    window_start: Cycle,
    last_window_utilization: f64,
    /// Deliverable bytes accumulated over the current window (both
    /// directions at their *effective* budgets). Utilization is
    /// measured against this, so a brownout raises utilization for the
    /// same traffic — exactly the signal Snake's bandwidth throttle
    /// must see to back off.
    window_capacity: u64,
    cycles: u64,
    /// Enqueue/dequeue events buffered while tracing is enabled; the
    /// GPU drains them each cycle. `None` (default) keeps the send/pop
    /// hot paths to a single branch.
    trace: Option<Vec<TraceEvent>>,
    /// Host-time accumulator for [`Phase::Noc`]. `None` (default)
    /// keeps every timed entry point to a single branch.
    prof: Option<HostProfiler>,
}

impl Interconnect {
    /// Creates an interconnect with `bytes_per_cycle` per direction,
    /// `latency` cycles transit time, and a utilization-measurement
    /// window of `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_cycle` or `window` is zero.
    pub fn new(bytes_per_cycle: u32, latency: u32, window: u32) -> Self {
        assert!(bytes_per_cycle > 0 && window > 0);
        Interconnect {
            up: Channel::new(u64::from(bytes_per_cycle), u64::from(latency)),
            down: Channel::new(u64::from(bytes_per_cycle), u64::from(latency)),
            window: u64::from(window),
            window_start: Cycle::ZERO,
            last_window_utilization: 0.0,
            window_capacity: 0,
            cycles: 0,
            trace: None,
            prof: None,
        }
    }

    /// Starts accumulating host-time for the interconnect's phase (see
    /// [`perfstat`](crate::perfstat)).
    pub fn enable_profiling(&mut self) {
        self.prof = Some(HostProfiler::new());
    }

    /// Folds the interconnect's host-time accumulator into `into`.
    pub fn merge_profile(&mut self, into: &mut HostProfiler) {
        if let Some(prof) = self.prof.take() {
            into.merge(&prof);
        }
    }

    /// Starts buffering [`SimEvent::NocEnqueue`]/[`SimEvent::NocDequeue`]
    /// events.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Moves buffered trace events into `out`.
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some(buf) = self.trace.as_mut() {
            out.append(buf);
        }
    }

    /// Scales both directions' per-cycle budgets (fault-injected
    /// brownouts). `1.0` restores full bandwidth; the effective budget
    /// never drops below one byte per cycle.
    pub fn set_bandwidth_scale(&mut self, scale: f64) {
        debug_assert!((0.0..=1.0).contains(&scale) && scale > 0.0);
        let eff = ((self.up.budget as f64 * scale) as u64).max(1);
        self.up.effective_budget = eff;
        self.down.effective_budget = eff;
    }

    /// Starts a new cycle: refreshes per-cycle credits and rolls the
    /// utilization window.
    pub fn begin_cycle(&mut self, now: Cycle) {
        let sw = Stopwatch::start(self.prof.is_some());
        self.up.begin_cycle();
        self.down.begin_cycle();
        self.cycles += 1;
        if now.since(self.window_start) >= self.window {
            let capacity = self.window_capacity.max(1);
            self.last_window_utilization =
                (self.up.window_bytes + self.down.window_bytes) as f64 / capacity as f64;
            self.up.window_bytes = 0;
            self.down.window_bytes = 0;
            self.window_capacity = 0;
            self.window_start = now;
        }
        self.window_capacity += self.up.effective_budget + self.down.effective_budget;
        sw.stop(&mut self.prof, Phase::Noc);
    }

    /// Runs [`begin_cycle`](Interconnect::begin_cycle) for every cycle
    /// of `from..to` in bulk. Only valid over cycles in which nothing
    /// is sent or delivered and the bandwidth scale stays fixed: then
    /// credit refills toward one cycle's budget, and every utilization
    /// window rolled after the first one measures no traffic.
    pub(crate) fn skip_quiet(&mut self, from: Cycle, to: Cycle) {
        let sw = Stopwatch::start(self.prof.is_some());
        let k = to.since(from);
        for (credit, budget) in [
            (&mut self.up.credit, self.up.effective_budget),
            (&mut self.down.credit, self.down.effective_budget),
        ] {
            let b = budget as i64;
            *credit = credit.saturating_add(b.saturating_mul(k as i64)).min(b);
        }
        self.cycles += k;
        let per_cycle = self.up.effective_budget + self.down.effective_budget;
        // `begin_cycle(from - 1)` left `from - window_start <= window`.
        let first_roll = self.window_start.plus(self.window);
        if first_roll < to {
            let capacity = self.window_capacity + first_roll.since(from) * per_cycle;
            self.last_window_utilization =
                (self.up.window_bytes + self.down.window_bytes) as f64 / capacity.max(1) as f64;
            self.up.window_bytes = 0;
            self.down.window_bytes = 0;
            let last_roll = first_roll.plus((to.0 - 1 - first_roll.0) / self.window * self.window);
            if last_roll > first_roll {
                self.last_window_utilization = 0.0;
            }
            self.window_start = last_roll;
            self.window_capacity = to.since(last_roll) * per_cycle;
        } else {
            self.window_capacity += k * per_cycle;
        }
        sw.stop(&mut self.prof, Phase::Noc);
    }

    /// The cycle the next in-flight packet arrives, in either
    /// direction; never when nothing is in flight.
    pub(crate) fn next_arrival(&self) -> Cycle {
        let up = self.up.in_flight.front().map(|(ready, _)| *ready);
        let down = self.down.in_flight.front().map(|(ready, _)| *ready);
        up.into_iter().chain(down).min().unwrap_or(Cycle(u64::MAX))
    }

    /// Utilization (both directions) measured over the last completed
    /// window, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        self.last_window_utilization
    }

    /// Attempts to inject a request; `false` when this cycle's uplink
    /// budget is exhausted.
    pub fn try_send_up(&mut self, pkt: UpPacket, bytes: u64, now: Cycle) -> bool {
        let sw = Stopwatch::start(self.prof.is_some());
        let sent = self.up.try_send(pkt, bytes, now);
        if sent {
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent {
                    cycle: now,
                    data: SimEvent::NocEnqueue {
                        dir: NocDir::Up,
                        sm: pkt.sm,
                        line: pkt.line,
                        bytes,
                    },
                });
            }
        }
        sw.stop(&mut self.prof, Phase::Noc);
        sent
    }

    /// Attempts to inject a response; `false` when this cycle's
    /// downlink budget is exhausted.
    pub fn try_send_down(&mut self, pkt: DownPacket, bytes: u64, now: Cycle) -> bool {
        let sw = Stopwatch::start(self.prof.is_some());
        let sent = self.down.try_send(pkt, bytes, now);
        if sent {
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent {
                    cycle: now,
                    data: SimEvent::NocEnqueue {
                        dir: NocDir::Down,
                        sm: pkt.sm,
                        line: pkt.line,
                        bytes,
                    },
                });
            }
        }
        sw.stop(&mut self.prof, Phase::Noc);
        sent
    }

    /// Pops the next request that has completed transit.
    pub fn pop_up(&mut self, now: Cycle) -> Option<UpPacket> {
        let sw = Stopwatch::start(self.prof.is_some());
        let pkt = self.up.pop_arrived(now);
        if let Some(p) = pkt {
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent {
                    cycle: now,
                    data: SimEvent::NocDequeue {
                        dir: NocDir::Up,
                        sm: p.sm,
                        line: p.line,
                    },
                });
            }
        }
        sw.stop(&mut self.prof, Phase::Noc);
        pkt
    }

    /// Pops the next response that has completed transit.
    pub fn pop_down(&mut self, now: Cycle) -> Option<DownPacket> {
        let sw = Stopwatch::start(self.prof.is_some());
        let pkt = self.down.pop_arrived(now);
        if let Some(p) = pkt {
            if let Some(buf) = self.trace.as_mut() {
                buf.push(TraceEvent {
                    cycle: now,
                    data: SimEvent::NocDequeue {
                        dir: NocDir::Down,
                        sm: p.sm,
                        line: p.line,
                    },
                });
            }
        }
        sw.stop(&mut self.prof, Phase::Noc);
        pkt
    }

    /// Total bytes ever sent L1→L2.
    pub fn total_bytes_up(&self) -> u64 {
        self.up.total_bytes
    }

    /// Total bytes ever sent L2→L1.
    pub fn total_bytes_down(&self) -> u64 {
        self.down.total_bytes
    }

    /// Whether no packets are in flight in either direction.
    pub fn is_idle(&self) -> bool {
        self.up.in_flight.is_empty() && self.down.in_flight.is_empty()
    }

    /// Requests currently in flight L1→L2 (deadlock diagnostics).
    pub fn in_flight_up(&self) -> usize {
        self.up.in_flight.len()
    }

    /// Responses currently in flight L2→L1 (deadlock diagnostics).
    pub fn in_flight_down(&self) -> usize {
        self.down.in_flight.len()
    }

    /// Lifetime utilization over `cycles` simulated cycles (Fig 4).
    pub fn lifetime_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let capacity = 2 * self.up.budget * self.cycles;
        (self.up.total_bytes + self.down.total_bytes) as f64 / capacity as f64
    }

    /// Serializes in-flight packets, credits, brownout scaling, and the
    /// utilization window for a checkpoint. Budgets, latency, and the
    /// window length are config-derived and not captured; trace and
    /// profiling attachments are runtime-only (the trace buffer is
    /// drained every cycle, so it is empty at a checkpoint boundary).
    pub fn save_state(&self) -> Value {
        Value::Obj(vec![
            (
                "up".into(),
                self.up.save_state(|p| {
                    vec![
                        Value::u64(u64::from(p.sm.0)),
                        Value::u64(p.line.0),
                        Value::Bool(p.is_store),
                    ]
                }),
            ),
            (
                "down".into(),
                self.down
                    .save_state(|p| vec![Value::u64(u64::from(p.sm.0)), Value::u64(p.line.0)]),
            ),
            ("window_start".into(), Value::u64(self.window_start.0)),
            (
                "last_window_utilization".into(),
                Value::f64(self.last_window_utilization),
            ),
            ("window_capacity".into(), Value::u64(self.window_capacity)),
            ("cycles".into(), Value::u64(self.cycles)),
        ])
    }

    /// Restores from [`save_state`](Interconnect::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or malformed field.
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        self.up.restore_state(json::field(v, "up")?, |row| {
            if let [sm, line, is_store] = row {
                Some(UpPacket {
                    sm: SmId(sm.as_u32()?),
                    line: LineAddr(line.as_u64()?),
                    is_store: is_store.as_bool()?,
                })
            } else {
                None
            }
        })?;
        self.down.restore_state(json::field(v, "down")?, |row| {
            if let [sm, line] = row {
                Some(DownPacket {
                    sm: SmId(sm.as_u32()?),
                    line: LineAddr(line.as_u64()?),
                })
            } else {
                None
            }
        })?;
        self.window_start = Cycle(json::u64_field(v, "window_start")?);
        self.last_window_utilization = json::f64_field(v, "last_window_utilization")?;
        self.window_capacity = json::u64_field(v, "window_capacity")?;
        self.cycles = json::u64_field(v, "cycles")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(line: u64) -> UpPacket {
        UpPacket {
            sm: SmId(0),
            line: LineAddr(line),
            is_store: false,
        }
    }

    #[test]
    fn bandwidth_budget_limits_per_cycle() {
        let mut n = Interconnect::new(64, 2, 16);
        n.begin_cycle(Cycle(0));
        assert!(n.try_send_up(pkt(1), 32, Cycle(0)));
        assert!(n.try_send_up(pkt(2), 32, Cycle(0)));
        assert!(!n.try_send_up(pkt(3), 32, Cycle(0)), "64B budget spent");
        n.begin_cycle(Cycle(1));
        assert!(n.try_send_up(pkt(3), 32, Cycle(1)), "credit refreshed");
    }

    #[test]
    fn latency_delays_arrival() {
        let mut n = Interconnect::new(64, 3, 16);
        n.begin_cycle(Cycle(0));
        assert!(n.try_send_up(pkt(1), 32, Cycle(0)));
        assert!(n.pop_up(Cycle(2)).is_none());
        let p = n.pop_up(Cycle(3)).unwrap();
        assert_eq!(p.line, LineAddr(1));
        assert!(n.pop_up(Cycle(4)).is_none(), "drained");
    }

    #[test]
    fn fifo_order_preserved() {
        let mut n = Interconnect::new(640, 1, 16);
        n.begin_cycle(Cycle(0));
        for i in 0..4 {
            assert!(n.try_send_up(pkt(i), 32, Cycle(0)));
        }
        for i in 0..4 {
            assert_eq!(n.pop_up(Cycle(1)).unwrap().line, LineAddr(i));
        }
    }

    #[test]
    fn windowed_utilization() {
        let mut n = Interconnect::new(100, 1, 4);
        // Send 100 B/cycle up for 4 cycles: half of the 2x100 peak.
        for cy in 0..5u64 {
            n.begin_cycle(Cycle(cy));
            if cy < 4 {
                assert!(n.try_send_up(pkt(cy), 100, Cycle(cy)));
            }
        }
        assert!((n.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn brownout_reduces_per_cycle_budget() {
        let mut n = Interconnect::new(64, 2, 16);
        n.set_bandwidth_scale(0.5);
        n.begin_cycle(Cycle(0));
        assert!(n.try_send_up(pkt(1), 32, Cycle(0)));
        assert!(!n.try_send_up(pkt(2), 32, Cycle(0)), "32 B brownout budget");
        n.set_bandwidth_scale(1.0);
        n.begin_cycle(Cycle(1));
        assert!(n.try_send_up(pkt(2), 32, Cycle(1)));
        assert!(n.try_send_up(pkt(3), 32, Cycle(1)), "full budget restored");
    }

    #[test]
    fn brownout_raises_windowed_utilization_for_same_traffic() {
        // 50 B/cy of traffic: 25% of healthy capacity, 50% of a half-
        // bandwidth brownout's capacity.
        let mut healthy = Interconnect::new(100, 1, 4);
        let mut browned = Interconnect::new(100, 1, 4);
        browned.set_bandwidth_scale(0.5);
        for cy in 0..5u64 {
            healthy.begin_cycle(Cycle(cy));
            browned.begin_cycle(Cycle(cy));
            if cy < 4 {
                assert!(healthy.try_send_up(pkt(cy), 50, Cycle(cy)));
                assert!(browned.try_send_up(pkt(cy), 50, Cycle(cy)));
            }
        }
        assert!((healthy.utilization() - 0.25).abs() < 1e-9);
        assert!((browned.utilization() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn skip_quiet_matches_beginning_every_cycle() {
        for window in [1u32, 3, 16] {
            for len in [1u64, 2, 3, 5, 17, 40] {
                let mut stepped = Interconnect::new(64, 2, window);
                stepped.set_bandwidth_scale(0.5);
                for cy in 0..7 {
                    stepped.begin_cycle(Cycle(cy));
                    stepped.try_send_up(pkt(cy), 48, Cycle(cy));
                }
                let mut skipped = stepped.clone();
                for cy in 7..7 + len {
                    stepped.begin_cycle(Cycle(cy));
                }
                skipped.skip_quiet(Cycle(7), Cycle(7 + len));
                assert_eq!(
                    skipped.save_state(),
                    stepped.save_state(),
                    "window {window}, {len} cycles"
                );
            }
        }
    }

    #[test]
    fn in_flight_census() {
        let mut n = Interconnect::new(640, 5, 16);
        n.begin_cycle(Cycle(0));
        n.try_send_up(pkt(1), 32, Cycle(0));
        n.try_send_up(pkt(2), 32, Cycle(0));
        assert_eq!(n.in_flight_up(), 2);
        assert_eq!(n.in_flight_down(), 0);
        assert!(!n.is_idle());
    }

    #[test]
    fn lifetime_utilization_counts_both_directions() {
        let mut n = Interconnect::new(100, 1, 4);
        n.begin_cycle(Cycle(0));
        n.try_send_up(pkt(0), 50, Cycle(0));
        n.try_send_down(
            DownPacket {
                sm: SmId(0),
                line: LineAddr(0),
            },
            150,
            Cycle(0),
        );
        assert_eq!(n.total_bytes_up(), 50);
        assert_eq!(n.total_bytes_down(), 150);
        assert!((n.lifetime_utilization() - 1.0).abs() < 1e-9);
    }
}
