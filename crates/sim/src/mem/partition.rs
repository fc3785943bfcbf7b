//! The shared memory partition: banked L2 cache backed by a
//! latency/bandwidth DRAM model.
//!
//! Requests arrive from the interconnect, are serviced by up to
//! `l2_banks` bank lookups per cycle, and produce fill responses after
//! the L2 service latency (hits) or the additional DRAM latency
//! (misses). DRAM line transfers are bandwidth-limited.

use std::collections::{HashMap, VecDeque};

use crate::cache::tag_array::{LineState, Side, TagArray};
use crate::config::GpuConfig;
use crate::fault::{FaultInjector, ResponseFault};
use crate::json::{self, Value};
use crate::mem::interconnect::DownPacket;
use crate::obs::{FaultKind, SimEvent, TraceEvent};
use crate::snapshot::SnapshotError;
use crate::stats::{persist_u64_fields, FaultStats};
use crate::types::{Cycle, LineAddr, SmId};

/// A read request pending in the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRead {
    sm: SmId,
    line: LineAddr,
}

/// Partition statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionStats {
    /// L2 lookups that hit.
    pub l2_hits: u64,
    /// L2 lookups that missed (DRAM reads).
    pub l2_misses: u64,
    /// Store (write) requests absorbed.
    pub stores: u64,
    /// DRAM read transactions issued.
    pub dram_reads: u64,
}

persist_u64_fields!(PartitionStats {
    l2_hits,
    l2_misses,
    stores,
    dram_reads,
});

/// The L2 + DRAM memory partition.
#[derive(Debug, Clone)]
pub struct MemoryPartition {
    l2: TagArray,
    line_bytes: u32,
    banks: u32,
    l2_service_latency: u64,
    dram_latency: u64,
    /// Byte credit added per cycle for DRAM transfers.
    dram_bytes_per_cycle: u64,
    dram_credit: u64,
    /// Requests waiting for a bank this cycle.
    incoming: VecDeque<PendingRead>,
    /// L2-hit responses in flight (ready_cycle, packet).
    hit_pipe: VecDeque<(Cycle, DownPacket)>,
    /// DRAM reads waiting for bandwidth.
    dram_queue: VecDeque<PendingRead>,
    /// DRAM reads in flight (ready_cycle ordered FIFO: fixed latency).
    dram_pipe: VecDeque<(Cycle, PendingRead)>,
    /// Every line with a DRAM read queued or in flight, with the
    /// requesters merged onto that read (empty until one merges): the
    /// O(1) merge check for each L2 request.
    dram_merges: HashMap<LineAddr, Vec<SmId>>,
    /// Responses ready to go back over the interconnect.
    outbox: VecDeque<DownPacket>,
    /// Responses held back by injected delay faults (constant delay,
    /// so FIFO release order is preserved).
    delayed: VecDeque<(Cycle, DownPacket)>,
    /// Injected-fault decision stream for outgoing responses.
    injector: FaultInjector,
    /// Monotone count of state-changing events, for the
    /// forward-progress watchdog (a partition quietly working through
    /// its DRAM pipe is progress even when nothing crosses the NoC).
    events: u64,
    /// Fault-injection events buffered while tracing is enabled; the
    /// GPU drains them each cycle. `None` (default) keeps `emit` to a
    /// single extra branch.
    trace: Option<Vec<TraceEvent>>,
    /// Counters.
    pub stats: PartitionStats,
}

impl MemoryPartition {
    /// Builds the partition from the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        // The configured l2_hit_latency is the total L1→data latency;
        // subtract the interconnect round trip to get bank time.
        let noc_round_trip = u64::from(2 * cfg.noc_latency);
        let l2_service = u64::from(cfg.l2_hit_latency)
            .saturating_sub(noc_round_trip)
            .max(1);
        MemoryPartition {
            l2: TagArray::new(cfg.l2.lines(), cfg.l2.ways),
            line_bytes: cfg.l2.line_bytes,
            banks: cfg.l2_banks,
            l2_service_latency: l2_service,
            dram_latency: u64::from(cfg.dram_latency),
            dram_bytes_per_cycle: u64::from(cfg.dram_bytes_per_cycle),
            dram_credit: 0,
            incoming: VecDeque::new(),
            hit_pipe: VecDeque::new(),
            dram_queue: VecDeque::new(),
            dram_pipe: VecDeque::new(),
            dram_merges: HashMap::new(),
            outbox: VecDeque::new(),
            delayed: VecDeque::new(),
            injector: FaultInjector::new(cfg.fault),
            events: 0,
            trace: None,
            stats: PartitionStats::default(),
        }
    }

    /// Starts buffering [`SimEvent::FaultInjected`] events.
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Moves buffered trace events into `out`.
    pub fn drain_trace(&mut self, out: &mut Vec<TraceEvent>) {
        if let Some(buf) = self.trace.as_mut() {
            out.append(buf);
        }
    }

    fn trace_fault(&mut self, kind: FaultKind, pkt: DownPacket, now: Cycle) {
        if let Some(buf) = self.trace.as_mut() {
            buf.push(TraceEvent {
                cycle: now,
                data: SimEvent::FaultInjected {
                    kind,
                    sm: pkt.sm,
                    line: pkt.line,
                },
            });
        }
    }

    /// Routes a finished read response through the fault injector.
    fn emit(&mut self, pkt: DownPacket, now: Cycle) {
        match self.injector.on_response() {
            ResponseFault::Deliver => self.outbox.push_back(pkt),
            ResponseFault::Drop => {
                // stats counted by the injector
                self.trace_fault(FaultKind::Drop, pkt, now);
            }
            ResponseFault::Duplicate => {
                self.trace_fault(FaultKind::Duplicate, pkt, now);
                self.outbox.push_back(pkt);
                self.outbox.push_back(pkt);
            }
            ResponseFault::Delay(extra) => {
                self.trace_fault(FaultKind::Delay, pkt, now);
                self.delayed.push_back((now.plus(extra), pkt));
            }
        }
    }

    /// Accepts a read request from the interconnect.
    pub fn push_read(&mut self, sm: SmId, line: LineAddr) {
        self.incoming.push_back(PendingRead { sm, line });
    }

    /// Accepts a write-through store: updates the L2 if present and
    /// consumes DRAM write bandwidth (no response).
    pub fn push_store(&mut self, line: LineAddr, now: Cycle) {
        self.stats.stores += 1;
        if let Some(way) = self.l2.probe(line) {
            if self.l2.line(way).state == LineState::Valid {
                self.l2.touch(way, now);
            }
        }
        // Write data consumes DRAM bandwidth alongside reads.
        self.dram_credit = self.dram_credit.saturating_sub(u64::from(self.line_bytes));
    }

    /// Advances the partition by one cycle.
    pub fn tick(&mut self, now: Cycle) {
        // 0. Release fault-delayed responses whose hold expired.
        while let Some((ready, _)) = self.delayed.front() {
            if *ready > now {
                break;
            }
            let (_, pkt) = self.delayed.pop_front().expect("front checked");
            self.outbox.push_back(pkt);
            self.events += 1;
        }

        // 1. DRAM completions fill the L2 and produce responses.
        while let Some((ready, _)) = self.dram_pipe.front() {
            if *ready > now {
                break;
            }
            let (_, req) = self.dram_pipe.pop_front().expect("front checked");
            self.fill_l2(req.line, now);
            self.emit(
                DownPacket {
                    sm: req.sm,
                    line: req.line,
                },
                now,
            );
            if let Some(extra) = self.dram_merges.remove(&req.line) {
                for sm in extra {
                    self.emit(DownPacket { sm, line: req.line }, now);
                }
            }
            self.events += 1;
        }

        // 2. L2 hit pipeline completions.
        while let Some((ready, _)) = self.hit_pipe.front() {
            if *ready > now {
                break;
            }
            let (_, pkt) = self.hit_pipe.pop_front().expect("front checked");
            self.emit(pkt, now);
            self.events += 1;
        }

        // 3. Bank services.
        for _ in 0..self.banks {
            let Some(req) = self.incoming.pop_front() else {
                break;
            };
            self.service(req, now);
            self.events += 1;
        }

        // 4. DRAM bandwidth: accumulate credit, start queued reads.
        self.dram_credit = self
            .dram_credit
            .saturating_add(self.dram_bytes_per_cycle)
            .min(self.dram_bytes_per_cycle * 8);
        while self.dram_credit >= u64::from(self.line_bytes) {
            let Some(req) = self.dram_queue.pop_front() else {
                break;
            };
            self.dram_credit -= u64::from(self.line_bytes);
            self.stats.dram_reads += 1;
            self.dram_pipe.push_back((now.plus(self.dram_latency), req));
            self.events += 1;
        }
    }

    /// The first cycle at or after `now` whose tick does more than
    /// gain DRAM credit: a delayed, DRAM or L2-hit response comes due,
    /// or the credit covers a queued DRAM read. `now` itself while a
    /// request waits for a bank or a response for the interconnect.
    pub(crate) fn next_event(&self, now: Cycle) -> Cycle {
        if !self.incoming.is_empty() || !self.outbox.is_empty() {
            return now;
        }
        let mut next = [
            self.delayed.front().map(|(ready, _)| *ready),
            self.dram_pipe.front().map(|(ready, _)| *ready),
            self.hit_pipe.front().map(|(ready, _)| *ready),
        ]
        .into_iter()
        .flatten()
        .min()
        .unwrap_or(Cycle(u64::MAX));
        let (line, rate) = (u64::from(self.line_bytes), self.dram_bytes_per_cycle);
        if !self.dram_queue.is_empty() && rate > 0 && rate * 8 >= line {
            // The tick at cycle `now + j - 1` raises the credit to
            // `min(credit + j * rate, 8 * rate)`.
            let j = line.saturating_sub(self.dram_credit).div_ceil(rate).max(1);
            next = next.min(now.plus(j - 1));
        }
        next
    }

    /// Runs `ticks` ticks in bulk that, by [`next_event`], only gain
    /// DRAM credit.
    ///
    /// [`next_event`]: MemoryPartition::next_event
    pub(crate) fn skip_quiet(&mut self, ticks: u64) {
        let rate = self.dram_bytes_per_cycle;
        self.dram_credit = self
            .dram_credit
            .saturating_add(rate.saturating_mul(ticks))
            .min(rate * 8);
    }

    fn service(&mut self, req: PendingRead, now: Cycle) {
        // Merge with an outstanding DRAM read for the same line.
        if let Some(readers) = self.dram_merges.get_mut(&req.line) {
            readers.push(req.sm);
            // Merged requests still count as L2 misses (they need DRAM).
            self.stats.l2_misses += 1;
            return;
        }
        match self.l2.probe(req.line) {
            Some(way) if self.l2.line(way).state == LineState::Valid => {
                self.l2.touch(way, now);
                self.stats.l2_hits += 1;
                self.hit_pipe.push_back((
                    now.plus(self.l2_service_latency),
                    DownPacket {
                        sm: req.sm,
                        line: req.line,
                    },
                ));
            }
            _ => {
                self.stats.l2_misses += 1;
                self.dram_merges.insert(req.line, Vec::new());
                self.dram_queue.push_back(req);
            }
        }
    }

    fn fill_l2(&mut self, line: LineAddr, now: Cycle) {
        if self.l2.probe(line).is_some() {
            return; // Raced with another fill.
        }
        if let Some(victim) = self.l2.find_victim(line, |_| true) {
            if self.l2.line(victim).state == LineState::Valid {
                self.l2.evict(victim);
            }
            self.l2.reserve(victim, line, Side::Demand, now);
            self.l2.fill(victim, now);
        }
    }

    /// Pops the next response ready for the interconnect.
    pub fn pop_response(&mut self) -> Option<DownPacket> {
        self.outbox.pop_front()
    }

    /// Pushes back a response the interconnect could not take this
    /// cycle.
    pub fn unpop_response(&mut self, pkt: DownPacket) {
        self.outbox.push_front(pkt);
    }

    /// Whether all queues and pipes are empty (quiescence check).
    pub fn is_idle(&self) -> bool {
        self.incoming.is_empty()
            && self.hit_pipe.is_empty()
            && self.dram_queue.is_empty()
            && self.dram_pipe.is_empty()
            && self.outbox.is_empty()
            && self.delayed.is_empty()
    }

    /// Checks the L2 tag array's line index and that the DRAM merge
    /// table holds exactly the lines with a DRAM read queued or in
    /// flight, returning a description of every violated invariant
    /// (empty = healthy). Used by the device auditor each audit window.
    pub fn audit_invariants(&self) -> Vec<String> {
        let mut v = self.l2.audit_invariants();
        let reads = self.dram_queue.len() + self.dram_pipe.len();
        let mut reads_iter = self
            .dram_queue
            .iter()
            .chain(self.dram_pipe.iter().map(|(_, r)| r));
        if let Some(r) = reads_iter.find(|r| !self.dram_merges.contains_key(&r.line)) {
            v.push(format!(
                "DRAM read of line {:#x} has no merge entry",
                r.line.0
            ));
        }
        if self.dram_merges.len() != reads {
            v.push(format!(
                "{} DRAM merge entries but {reads} DRAM reads queued or in flight",
                self.dram_merges.len()
            ));
        }
        v
    }

    /// Monotone count of state-changing events (watchdog input).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Fault counters accumulated by this partition's injector.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats
    }

    /// Serializes the complete partition state for a checkpoint: the
    /// L2 tag array, every queue and pipe, the DRAM merges that have
    /// readers (sorted by line for order-independence of the backing
    /// `HashMap`; the empty entries follow from the DRAM queue and
    /// pipe), fault injector, and counters. Latencies, bank count, and
    /// bandwidth are config-derived; trace attachments are runtime-only
    /// (the trace buffer is drained every cycle, so it is empty at a
    /// checkpoint boundary).
    pub fn save_state(&self) -> Value {
        let read =
            |r: &PendingRead| Value::Arr(vec![Value::u64(u64::from(r.sm.0)), Value::u64(r.line.0)]);
        let pkt =
            |p: &DownPacket| Value::Arr(vec![Value::u64(u64::from(p.sm.0)), Value::u64(p.line.0)]);
        let timed_read = |(ready, r): &(Cycle, PendingRead)| {
            Value::Arr(vec![
                Value::u64(ready.0),
                Value::u64(u64::from(r.sm.0)),
                Value::u64(r.line.0),
            ])
        };
        let timed_pkt = |(ready, p): &(Cycle, DownPacket)| {
            Value::Arr(vec![
                Value::u64(ready.0),
                Value::u64(u64::from(p.sm.0)),
                Value::u64(p.line.0),
            ])
        };
        let mut merges: Vec<_> = self
            .dram_merges
            .iter()
            .filter(|(_, sms)| !sms.is_empty())
            .collect();
        merges.sort_by_key(|(line, _)| line.0);
        let merges = merges
            .into_iter()
            .map(|(line, sms)| {
                Value::Arr(vec![
                    Value::u64(line.0),
                    Value::Arr(sms.iter().map(|s| Value::u64(u64::from(s.0))).collect()),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("l2".into(), self.l2.save_state()),
            ("dram_credit".into(), Value::u64(self.dram_credit)),
            (
                "incoming".into(),
                Value::Arr(self.incoming.iter().map(read).collect()),
            ),
            (
                "hit_pipe".into(),
                Value::Arr(self.hit_pipe.iter().map(timed_pkt).collect()),
            ),
            (
                "dram_queue".into(),
                Value::Arr(self.dram_queue.iter().map(read).collect()),
            ),
            (
                "dram_pipe".into(),
                Value::Arr(self.dram_pipe.iter().map(timed_read).collect()),
            ),
            ("dram_merges".into(), Value::Arr(merges)),
            (
                "outbox".into(),
                Value::Arr(self.outbox.iter().map(pkt).collect()),
            ),
            (
                "delayed".into(),
                Value::Arr(self.delayed.iter().map(timed_pkt).collect()),
            ),
            ("injector".into(), self.injector.save_state()),
            ("events".into(), Value::u64(self.events)),
            ("stats".into(), self.stats.save_state()),
        ])
    }

    /// Restores from [`save_state`](MemoryPartition::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or malformed field;
    /// queues are fully decoded before anything is applied.
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        fn decode_read(row: &[Value]) -> Option<PendingRead> {
            if let [sm, line] = row {
                Some(PendingRead {
                    sm: SmId(sm.as_u32()?),
                    line: LineAddr(line.as_u64()?),
                })
            } else {
                None
            }
        }
        fn decode_pkt(row: &[Value]) -> Option<DownPacket> {
            if let [sm, line] = row {
                Some(DownPacket {
                    sm: SmId(sm.as_u32()?),
                    line: LineAddr(line.as_u64()?),
                })
            } else {
                None
            }
        }
        fn queue<T>(
            v: &Value,
            key: &str,
            dec: impl Fn(&[Value]) -> Option<T>,
        ) -> Result<VecDeque<T>, SnapshotError> {
            json::arr_field(v, key)?
                .iter()
                .map(|entry| {
                    entry
                        .as_arr()
                        .and_then(&dec)
                        .ok_or_else(|| SnapshotError::malformed(format!("partition {key} entry")))
                })
                .collect()
        }
        fn timed<T>(
            v: &Value,
            key: &str,
            dec: impl Fn(&[Value]) -> Option<T>,
        ) -> Result<VecDeque<(Cycle, T)>, SnapshotError> {
            json::arr_field(v, key)?
                .iter()
                .map(|entry| {
                    entry
                        .as_arr()
                        .and_then(|row| {
                            let ready = row.first()?.as_u64()?;
                            Some((Cycle(ready), dec(&row[1..])?))
                        })
                        .ok_or_else(|| SnapshotError::malformed(format!("partition {key} entry")))
                })
                .collect()
        }
        let incoming = queue(v, "incoming", decode_read)?;
        let hit_pipe = timed(v, "hit_pipe", decode_pkt)?;
        let dram_queue = queue(v, "dram_queue", decode_read)?;
        let dram_pipe = timed(v, "dram_pipe", decode_read)?;
        let outbox = queue(v, "outbox", decode_pkt)?;
        let delayed = timed(v, "delayed", decode_pkt)?;
        let mut dram_merges = HashMap::new();
        for entry in json::arr_field(v, "dram_merges")? {
            let (line, sms) = entry
                .as_arr()
                .and_then(|row| {
                    if let [line, sms] = row {
                        let sms = sms
                            .as_arr()?
                            .iter()
                            .map(|s| s.as_u32().map(SmId))
                            .collect::<Option<Vec<_>>>()?;
                        Some((LineAddr(line.as_u64()?), sms))
                    } else {
                        None
                    }
                })
                .ok_or_else(|| SnapshotError::malformed("partition dram_merges entry"))?;
            dram_merges.insert(line, sms);
        }
        for r in dram_queue.iter().chain(dram_pipe.iter().map(|(_, r)| r)) {
            dram_merges.entry(r.line).or_default();
        }
        self.l2.restore_state(json::field(v, "l2")?)?;
        self.injector.restore_state(json::field(v, "injector")?)?;
        self.stats.restore_state(json::field(v, "stats")?)?;
        self.dram_credit = json::u64_field(v, "dram_credit")?;
        self.events = json::u64_field(v, "events")?;
        self.incoming = incoming;
        self.hit_pipe = hit_pipe;
        self.dram_queue = dram_queue;
        self.dram_pipe = dram_pipe;
        self.dram_merges = dram_merges;
        self.outbox = outbox;
        self.delayed = delayed;
        Ok(())
    }

    /// Snapshot of queue and pipe occupancy for deadlock reports.
    pub fn census(&self) -> PartitionCensus {
        PartitionCensus {
            incoming: self.incoming.len(),
            hit_pipe: self.hit_pipe.len(),
            dram_queue: self.dram_queue.len(),
            dram_pipe: self.dram_pipe.len(),
            merged_readers: self.dram_merges.values().map(Vec::len).sum(),
            outbox: self.outbox.len(),
            fault_delayed: self.delayed.len(),
        }
    }
}

/// Occupancy snapshot of the memory partition's internal queues,
/// embedded in [`DeadlockReport`](crate::DeadlockReport).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCensus {
    /// Requests waiting for an L2 bank.
    pub incoming: usize,
    /// L2-hit responses still in the service pipeline.
    pub hit_pipe: usize,
    /// DRAM reads waiting for bandwidth.
    pub dram_queue: usize,
    /// DRAM reads in flight.
    pub dram_pipe: usize,
    /// Extra readers merged onto outstanding DRAM reads.
    pub merged_readers: usize,
    /// Responses waiting for the interconnect.
    pub outbox: usize,
    /// Responses held back by injected delay faults.
    pub fault_delayed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> MemoryPartition {
        let mut cfg = GpuConfig::scaled(1);
        cfg.l2_hit_latency = 50; // service = 50 - 40 = 10
        cfg.noc_latency = 20;
        cfg.dram_latency = 100;
        MemoryPartition::new(&cfg)
    }

    fn run_until_response(p: &mut MemoryPartition, start: u64, limit: u64) -> (u64, DownPacket) {
        for cy in start..start + limit {
            p.tick(Cycle(cy));
            if let Some(pkt) = p.pop_response() {
                return (cy, pkt);
            }
        }
        panic!("no response within {limit} cycles");
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut p = part();
        p.push_read(SmId(0), LineAddr(7));
        let (cy_miss, pkt) = run_until_response(&mut p, 0, 400);
        assert_eq!(pkt.line, LineAddr(7));
        assert!(cy_miss >= 100, "DRAM latency applies, got {cy_miss}");
        assert_eq!(p.stats.l2_misses, 1);
        assert!(p.is_idle());

        // Second read of the same line hits in L2 and is much faster.
        p.push_read(SmId(1), LineAddr(7));
        let (cy_hit, pkt) = run_until_response(&mut p, cy_miss + 1, 400);
        assert_eq!(pkt.sm, SmId(1));
        assert!(cy_hit - cy_miss < 20, "L2 hit should be fast");
        assert_eq!(p.stats.l2_hits, 1);
    }

    #[test]
    fn concurrent_reads_same_line_are_merged() {
        let mut p = part();
        p.push_read(SmId(0), LineAddr(3));
        p.tick(Cycle(0));
        p.push_read(SmId(1), LineAddr(3));
        let mut got = Vec::new();
        for cy in 1..400u64 {
            p.tick(Cycle(cy));
            while let Some(pkt) = p.pop_response() {
                got.push(pkt.sm);
            }
        }
        assert_eq!(p.stats.dram_reads, 1, "one DRAM read for both");
        got.sort_by_key(|s| s.0);
        assert_eq!(got, vec![SmId(0), SmId(1)]);
    }

    #[test]
    fn bank_limit_serializes_service() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.l2_banks = 1;
        let mut p = MemoryPartition::new(&cfg);
        for i in 0..3u64 {
            p.push_read(SmId(0), LineAddr(i));
        }
        p.tick(Cycle(0));
        assert_eq!(p.incoming.len(), 2, "one bank serves one request/cycle");
    }

    #[test]
    fn dram_bandwidth_limits_read_starts() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.dram_bytes_per_cycle = 64; // half a line per cycle
        cfg.l2_banks = 16;
        let mut p = MemoryPartition::new(&cfg);
        for i in 0..4u64 {
            p.push_read(SmId(0), LineAddr(i));
        }
        p.tick(Cycle(0)); // all serviced by banks, queued for DRAM
                          // 64 B/cy credit: one 128 B line starts every 2 cycles.
        assert!(p.stats.dram_reads <= 1);
        p.tick(Cycle(1));
        p.tick(Cycle(2));
        assert!(p.stats.dram_reads <= 2);
    }

    #[test]
    fn quiet_ticks_only_gain_credit_until_the_next_event() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.dram_bytes_per_cycle = 24; // one 128 B line per 5.3 cycles
        cfg.l2_banks = 16;
        let mut p = MemoryPartition::new(&cfg);
        for i in 0..6 {
            p.push_read(SmId(0), LineAddr(i));
        }
        p.push_read(SmId(1), LineAddr(3));
        let mut now = Cycle(0);
        let mut events = 0;
        while !p.is_idle() {
            let next = p.next_event(now);
            let mut stepped = p.clone();
            for cy in now.0..next.0 {
                stepped.tick(Cycle(cy));
            }
            assert_eq!(stepped.events(), p.events(), "no event before {next:?}");
            p.skip_quiet(next.since(now));
            assert_eq!(p.save_state(), stepped.save_state());
            let before = p.events();
            p.tick(next);
            assert!(p.events() > before, "cycle {next:?} is an event");
            while p.pop_response().is_some() {}
            now = next.plus(1);
            events += 1;
        }
        assert!(events > 6, "reads wait for DRAM credit");
    }

    #[test]
    fn dram_merge_table_round_trips_through_a_checkpoint() {
        let mut p = part();
        for (sm, line) in [(0, 1), (1, 1), (0, 2)] {
            p.push_read(SmId(sm), LineAddr(line));
        }
        p.tick(Cycle(0));
        assert_eq!(p.dram_merges.len(), 2, "one entry per DRAM read");
        assert_eq!(p.census().merged_readers, 1);
        let saved = p.save_state();
        let mut restored = part();
        restored.restore_state(&saved).expect("restore");
        assert_eq!(restored.dram_merges, p.dram_merges);
        assert_eq!(restored.save_state(), saved);
        assert!(restored.audit_invariants().is_empty());
    }

    #[test]
    fn dropped_responses_never_leave_the_partition() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.fault.drop_response = 1.0;
        let mut p = MemoryPartition::new(&cfg);
        p.push_read(SmId(0), LineAddr(1));
        for cy in 0..500u64 {
            p.tick(Cycle(cy));
            assert!(p.pop_response().is_none(), "all responses dropped");
        }
        assert!(p.is_idle(), "the read was serviced, its response eaten");
        assert_eq!(p.fault_stats().dropped_responses, 1);
    }

    #[test]
    fn duplicated_responses_arrive_twice() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.fault.duplicate_response = 1.0;
        let mut p = MemoryPartition::new(&cfg);
        p.push_read(SmId(0), LineAddr(1));
        let mut got = 0;
        for cy in 0..500u64 {
            p.tick(Cycle(cy));
            while let Some(pkt) = p.pop_response() {
                assert_eq!(pkt.line, LineAddr(1));
                got += 1;
            }
        }
        assert_eq!(got, 2);
        assert_eq!(p.fault_stats().duplicated_responses, 1);
    }

    #[test]
    fn delayed_responses_arrive_late_and_block_idle() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.fault.delay_response = 1.0;
        cfg.fault.delay_cycles = 300;
        let mut p = MemoryPartition::new(&cfg);
        p.push_read(SmId(0), LineAddr(1));
        let mut baseline = MemoryPartition::new(&GpuConfig::scaled(1));
        baseline.push_read(SmId(0), LineAddr(1));
        let (cy_base, _) = run_until_response(&mut baseline, 0, 600);
        let (cy_delayed, _) = run_until_response(&mut p, 0, 1200);
        assert!(
            cy_delayed >= cy_base + 250,
            "delay must apply: {cy_base} vs {cy_delayed}"
        );
        assert_eq!(p.fault_stats().delayed_responses, 1);
    }

    #[test]
    fn census_tracks_queues() {
        let mut cfg = GpuConfig::scaled(1);
        cfg.l2_banks = 1;
        let mut p = MemoryPartition::new(&cfg);
        for i in 0..3u64 {
            p.push_read(SmId(0), LineAddr(i));
        }
        assert_eq!(p.census().incoming, 3);
        let before = p.events();
        p.tick(Cycle(0));
        assert_eq!(p.census().incoming, 2);
        assert!(p.events() > before, "servicing counts as progress");
    }

    #[test]
    fn store_touches_l2_and_makes_no_response() {
        let mut p = part();
        p.push_store(LineAddr(1), Cycle(0));
        for cy in 0..50 {
            p.tick(Cycle(cy));
        }
        assert!(p.pop_response().is_none());
        assert_eq!(p.stats.stores, 1);
    }
}
