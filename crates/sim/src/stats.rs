//! Simulation statistics.
//!
//! Every figure in the paper's evaluation is a ratio of counters
//! collected here: reservation fails (Fig 3), interconnect utilization
//! (Fig 4), memory-stall fraction (Fig 5), coverage/accuracy
//! (Figs 16/17), IPC (Fig 18), energy events (Fig 19), and L1 hit
//! rates (Fig 25).

use crate::json::{self, FieldError, Value};

crate::state_struct!(CacheStats {
    hits,
    hits_on_prefetch,
    hits_reserved,
    merges_with_prefetch,
    misses,
    fail_mshr,
    fail_miss_queue,
    fail_no_way,
    evictions,
});

crate::state_struct!(PrefetchStats {
    requested,
    issued,
    redundant,
    rejected,
    fills,
    useful,
    late,
    evicted_unused,
    throttled_cycles,
});

crate::state_struct!(FaultStats {
    dropped_responses,
    duplicated_responses,
    delayed_responses,
    reissued_requests,
    spurious_fills,
    brownout_cycles,
});

crate::state_struct!(StallBreakdown {
    issued,
    no_warp,
    barrier,
    scoreboard,
    mem_data,
    mem_struct_mshr,
    mem_struct_missq,
    mem_struct_noc,
    scheduler_cycles,
});

/// One bucket of the issue-slot stall taxonomy under each of its
/// names: a row of [`STALL_BUCKETS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallBucket {
    /// The [`StallBreakdown`] field, which is also the bucket's
    /// checkpoint key and its counter name in the auditor
    /// (`stall.<field>`).
    pub field: &'static str,
    /// The key of the bucket's share in JSON objects and its CSV
    /// column: report rows, metrics samples and `repro --metrics-csv`.
    pub wire: &'static str,
    /// The short label of Fig 5b's header and `snakectl top`'s legend.
    pub label: &'static str,
}

/// The issue-slot stall taxonomy, in [`StallBreakdown`] field order:
/// the one place that names the eight buckets. Every per-bucket array
/// ([`StallBreakdown::counts`], [`StallBreakdown::shares`], the
/// `stall` shares of reports and metrics samples) follows this order,
/// and every reader that names a bucket (JSON codecs, CSV, Fig 5b,
/// the auditor, `snakectl top`) reads it from here.
pub const STALL_BUCKETS: [StallBucket; 8] = [
    StallBucket {
        field: "issued",
        wire: "stall_issued",
        label: "issued",
    },
    StallBucket {
        field: "no_warp",
        wire: "stall_no_warp",
        label: "no-warp",
    },
    StallBucket {
        field: "barrier",
        wire: "stall_barrier",
        label: "barrier",
    },
    StallBucket {
        field: "scoreboard",
        wire: "stall_scoreboard",
        label: "scoreb",
    },
    StallBucket {
        field: "mem_data",
        wire: "stall_mem_data",
        label: "mem-data",
    },
    StallBucket {
        field: "mem_struct_mshr",
        wire: "stall_mem_mshr",
        label: "mshr",
    },
    StallBucket {
        field: "mem_struct_missq",
        wire: "stall_mem_missq",
        label: "missq",
    },
    StallBucket {
        field: "mem_struct_noc",
        wire: "stall_mem_noc",
        label: "noc",
    },
];

/// Per-bucket shares as JSON fields keyed by [`StallBucket::wire`], in
/// table order.
pub fn stall_shares_to_json(shares: &[f64; 8]) -> impl Iterator<Item = (String, Value)> + '_ {
    STALL_BUCKETS
        .iter()
        .zip(shares)
        .map(|(b, &share)| (b.wire.into(), Value::f64(share)))
}

/// Decodes the fields [`stall_shares_to_json`] writes.
///
/// # Errors
///
/// [`FieldError`] for the first missing or mistyped share.
pub fn stall_shares_from_json(v: &Value) -> Result<[f64; 8], FieldError> {
    let mut shares = [0.0; 8];
    for (share, b) in shares.iter_mut().zip(&STALL_BUCKETS) {
        *share = json::f64_field(v, b.wire)?;
    }
    Ok(shares)
}

/// Exact per-issue-slot cycle accounting: every scheduler, every
/// cycle, lands in exactly one bucket (mutually exclusive,
/// collectively exhaustive). The partition unit is the
/// *scheduler-cycle*: one SM tick contributes `schedulers_per_sm`
/// slots. The hard invariant — the eight buckets sum to
/// [`scheduler_cycles`](StallBreakdown::scheduler_cycles) — is
/// enforced every audit window (see [`crate::audit`]) and proptested.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    /// The slot issued a new instruction.
    pub issued: u64,
    /// No live warp in the scheduler's slot partition (SM idle, CTAs
    /// drained or not yet launched, or a warp retired this cycle).
    pub no_warp: u64,
    /// Live warps were serializing at a memory-use barrier: absorbing
    /// L1 hit latency or store issue latency (`Busy` entered by a
    /// memory instruction).
    pub barrier: u64,
    /// Live warps were blocked on a non-memory data dependency
    /// (`Busy` entered by a compute instruction).
    pub scoreboard: u64,
    /// Stall-on-use: warps waiting on outstanding loads, or a retry
    /// whose transactions drained cleanly this cycle.
    pub mem_data: u64,
    /// A retry was rejected at the L1 because the MSHR file was full
    /// (or every way in the set was held by in-flight reservations).
    pub mem_struct_mshr: u64,
    /// A retry was rejected because the miss queue was full, with the
    /// interconnect accepting traffic.
    pub mem_struct_missq: u64,
    /// A retry was rejected because the miss queue was full *while the
    /// interconnect was backpressured* last cycle — the NoC, not the
    /// queue, is the bottleneck.
    pub mem_struct_noc: u64,
    /// Total issue slots accounted: SM ticks × schedulers per SM.
    pub scheduler_cycles: u64,
}

impl StallBreakdown {
    /// The eight buckets, in [`STALL_BUCKETS`] order.
    pub fn counts(&self) -> [u64; 8] {
        [
            self.issued,
            self.no_warp,
            self.barrier,
            self.scoreboard,
            self.mem_data,
            self.mem_struct_mshr,
            self.mem_struct_missq,
            self.mem_struct_noc,
        ]
    }

    /// Each bucket as a fraction of all scheduler-cycles, in
    /// [`STALL_BUCKETS`] order.
    pub fn shares(&self) -> [f64; 8] {
        self.counts().map(|n| ratio(n, self.scheduler_cycles))
    }

    /// Sum of the eight buckets — must equal
    /// [`scheduler_cycles`](StallBreakdown::scheduler_cycles).
    pub fn total(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Whether the buckets partition the scheduler-cycles exactly.
    pub fn is_exact(&self) -> bool {
        self.total() == self.scheduler_cycles
    }

    /// Sums another breakdown into this one (per-SM → device merge).
    pub fn merge(&mut self, other: &StallBreakdown) {
        self.issued += other.issued;
        self.no_warp += other.no_warp;
        self.barrier += other.barrier;
        self.scoreboard += other.scoreboard;
        self.mem_data += other.mem_data;
        self.mem_struct_mshr += other.mem_struct_mshr;
        self.mem_struct_missq += other.mem_struct_missq;
        self.mem_struct_noc += other.mem_struct_noc;
        self.scheduler_cycles += other.scheduler_cycles;
    }
}

/// Outcome of a single L1 access attempt.
///
/// Mirrors the paper's four L1 statuses (§2 footnote): *hit*, *miss*,
/// *reserved* (hit on a line still in flight) and *reservation fail*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// Data present in the demand (L1) partition.
    Hit,
    /// Data present in the prefetch partition (counts as a hit; the
    /// line is transferred to the demand side by flipping its flag).
    HitPrefetch,
    /// Line already reserved by an outstanding miss; request merged
    /// into the existing MSHR entry.
    HitReserved,
    /// Miss: line reserved, request sent down the hierarchy.
    Miss,
    /// The cache could not accept the request (MSHR full, miss queue
    /// full, or no evictable way); the warp must retry.
    ReservationFail,
}

impl AccessOutcome {
    /// Whether the requesting warp obtained (or will obtain) the data
    /// from this access, i.e. anything but a reservation fail.
    pub fn accepted(self) -> bool {
        !matches!(self, AccessOutcome::ReservationFail)
    }
}

/// Why a reservation fail occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReservationFailReason {
    /// No free MSHR entry (or merge capacity exhausted).
    MshrFull,
    /// The miss queue to the interconnect is full — the dominant cause
    /// on recent GPU generations per the paper (§2).
    MissQueueFull,
    /// Every way in the set is reserved by in-flight misses.
    NoEvictableWay,
}

/// Counters for one cache (L1 or prefetch partition view).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand hits on the demand partition.
    pub hits: u64,
    /// Demand hits served by prefetched data.
    pub hits_on_prefetch: u64,
    /// Merges into an in-flight miss (reserved hits).
    pub hits_reserved: u64,
    /// Demand merges into an in-flight *prefetch* (late prefetch:
    /// covered, partially timely).
    pub merges_with_prefetch: u64,
    /// Demand misses that allocated a new MSHR entry.
    pub misses: u64,
    /// Reservation fails, by reason.
    pub fail_mshr: u64,
    /// Reservation fails due to a full miss queue.
    pub fail_miss_queue: u64,
    /// Reservation fails due to no evictable way.
    pub fail_no_way: u64,
    /// Lines evicted before first use (demand side).
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses = hits + reserved-hits + misses + fails
    /// (the denominator of Fig 3).
    pub fn total_accesses(&self) -> u64 {
        self.hits
            + self.hits_on_prefetch
            + self.hits_reserved
            + self.merges_with_prefetch
            + self.misses
            + self.reservation_fails()
    }

    /// Total reservation fails.
    pub fn reservation_fails(&self) -> u64 {
        self.fail_mshr + self.fail_miss_queue + self.fail_no_way
    }

    /// Fraction of accesses that were reservation fails (Fig 3).
    pub fn reservation_fail_rate(&self) -> f64 {
        ratio(self.reservation_fails(), self.total_accesses())
    }

    /// Hit rate over *accepted* accesses (Fig 25). Reserved hits and
    /// prefetch merges count as misses from the warp's perspective
    /// (it still waits), but reservation fails are excluded since the
    /// access is retried.
    pub fn hit_rate(&self) -> f64 {
        let accepted = self.hits
            + self.hits_on_prefetch
            + self.hits_reserved
            + self.merges_with_prefetch
            + self.misses;
        ratio(self.hits + self.hits_on_prefetch, accepted)
    }

    /// Records a reservation fail of the given kind.
    pub fn record_fail(&mut self, reason: ReservationFailReason) {
        match reason {
            ReservationFailReason::MshrFull => self.fail_mshr += 1,
            ReservationFailReason::MissQueueFull => self.fail_miss_queue += 1,
            ReservationFailReason::NoEvictableWay => self.fail_no_way += 1,
        }
    }
}

/// Prefetch effectiveness counters (definitions from §4 of the paper).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Prefetch requests the prefetcher asked for.
    pub requested: u64,
    /// Requests actually sent down the hierarchy (not already present
    /// or in flight, and accepted by the cache).
    pub issued: u64,
    /// Dropped because the line was already present or in flight.
    pub redundant: u64,
    /// Dropped because the cache could not accept them.
    pub rejected: u64,
    /// Prefetch fills that arrived in the cache.
    pub fills: u64,
    /// Prefetched lines referenced by a demand access after arriving
    /// (timely useful prefetches).
    pub useful: u64,
    /// Demand requests that merged with an in-flight prefetch
    /// (late but covering prefetches).
    pub late: u64,
    /// Prefetched lines evicted without ever being referenced
    /// (inaccurate prefetches).
    pub evicted_unused: u64,
    /// Cycles the prefetcher spent throttled.
    pub throttled_cycles: u64,
}

impl PrefetchStats {
    /// Fraction of issued prefetches that were used (precision).
    pub fn precision(&self) -> f64 {
        ratio(self.useful + self.late, self.issued)
    }
}

/// Counters for injected faults and the simulator's reaction to them
/// (see [`crate::FaultPlan`]). All zero on a healthy run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Fill responses silently dropped by the injector.
    pub dropped_responses: u64,
    /// Fill responses delivered twice.
    pub duplicated_responses: u64,
    /// Fill responses held back by the injected extra delay.
    pub delayed_responses: u64,
    /// Read misses re-issued by timeout recovery.
    pub reissued_requests: u64,
    /// Fills that arrived with no outstanding MSHR entry (duplicate or
    /// post-recovery stragglers) and were discarded.
    pub spurious_fills: u64,
    /// Cycles the interconnect ran at reduced (brownout) bandwidth.
    pub brownout_cycles: u64,
}

/// Per-SM and device-wide summary.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Instructions retired (all warps).
    pub instructions: u64,
    /// Demand load transactions sent to L1 (coverage denominator).
    pub demand_loads: u64,
    /// Store transactions.
    pub stores: u64,
    /// Cycles in which at least one warp was resident but *no* warp
    /// could issue because all were waiting on memory (Fig 5
    /// numerator).
    pub all_stall_mem_cycles: u64,
    /// Cycles in which no warp could issue for any reason
    /// (Fig 5 denominator: "total stalls").
    pub all_stall_cycles: u64,
    /// Exact per-issue-slot stall-reason taxonomy (buckets partition
    /// scheduler-cycles; see [`StallBreakdown`]).
    pub stall: StallBreakdown,
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (DRAM accesses).
    pub l2_misses: u64,
    /// Bytes moved L1→L2 (requests + write data).
    pub noc_bytes_up: u64,
    /// Bytes moved L2→L1 (fills).
    pub noc_bytes_down: u64,
    /// Prefetch counters.
    pub prefetch: PrefetchStats,
    /// Injected-fault counters.
    pub fault: FaultStats,
}

impl SimStats {
    /// Instructions per cycle, across the device.
    pub fn ipc(&self) -> f64 {
        ratio(self.instructions, self.cycles)
    }

    /// Fraction of stall cycles attributable to memory (Fig 5).
    pub fn memory_stall_fraction(&self) -> f64 {
        ratio(self.all_stall_mem_cycles, self.all_stall_cycles)
    }

    /// Interconnect utilization against a peak of `peak_bytes_per_cycle`
    /// per direction (Fig 4).
    pub fn noc_utilization(&self, peak_bytes_per_cycle: u64) -> f64 {
        // Saturating: a pathological peak (u64::MAX from a fuzzer or a
        // misparsed config) times a long run must clamp, not wrap into
        // a tiny denominator. `ratio` already guards the zero case.
        let capacity = 2u64
            .saturating_mul(peak_bytes_per_cycle)
            .saturating_mul(self.cycles);
        ratio(self.noc_bytes_up + self.noc_bytes_down, capacity)
    }

    /// Prefetch coverage (Fig 16): demand accesses whose data was
    /// correctly predicted (served by prefetched data, or merged with
    /// an in-flight prefetch) over all demand accesses.
    pub fn coverage(&self) -> f64 {
        ratio(
            self.l1.hits_on_prefetch + self.l1.merges_with_prefetch,
            self.demand_loads,
        )
    }

    /// Timely coverage, the paper's "accuracy" (Fig 17): correctly
    /// predicted *and in the cache by the time the demand arrived*,
    /// over all demand accesses.
    pub fn timely_coverage(&self) -> f64 {
        ratio(self.l1.hits_on_prefetch, self.demand_loads)
    }

    /// Merges another SM's (or partition's) counters into this one.
    /// `cycles` is maxed, everything else summed.
    pub fn merge(&mut self, other: &SimStats) {
        self.cycles = self.cycles.max(other.cycles);
        self.instructions += other.instructions;
        self.demand_loads += other.demand_loads;
        self.stores += other.stores;
        self.all_stall_mem_cycles += other.all_stall_mem_cycles;
        self.all_stall_cycles += other.all_stall_cycles;
        self.stall.merge(&other.stall);
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.noc_bytes_up += other.noc_bytes_up;
        self.noc_bytes_down += other.noc_bytes_down;
        let l = &mut self.l1;
        let o = &other.l1;
        l.hits += o.hits;
        l.hits_on_prefetch += o.hits_on_prefetch;
        l.hits_reserved += o.hits_reserved;
        l.merges_with_prefetch += o.merges_with_prefetch;
        l.misses += o.misses;
        l.fail_mshr += o.fail_mshr;
        l.fail_miss_queue += o.fail_miss_queue;
        l.fail_no_way += o.fail_no_way;
        l.evictions += o.evictions;
        let p = &mut self.prefetch;
        let q = &other.prefetch;
        p.requested += q.requested;
        p.issued += q.issued;
        p.redundant += q.redundant;
        p.rejected += q.rejected;
        p.fills += q.fills;
        p.useful += q.useful;
        p.late += q.late;
        p.evicted_unused += q.evicted_unused;
        p.throttled_cycles += q.throttled_cycles;
        let f = &mut self.fault;
        let g = &other.fault;
        f.dropped_responses += g.dropped_responses;
        f.duplicated_responses += g.duplicated_responses;
        f.delayed_responses += g.delayed_responses;
        f.reissued_requests += g.reissued_requests;
        f.spurious_fills += g.spurious_fills;
        // Brownouts are device-global; like cycles, take the max rather
        // than multiply by the SM count.
        f.brownout_cycles = f.brownout_cycles.max(g.brownout_cycles);
    }
}

crate::state_struct!(SimStats {
    cycles,
    instructions,
    demand_loads,
    stores,
    all_stall_mem_cycles,
    all_stall_cycles,
    stall,
    l1,
    l2_hits,
    l2_misses,
    noc_bytes_up,
    noc_bytes_down,
    prefetch,
    fault,
});

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::State;

    #[test]
    fn outcome_accepted() {
        assert!(AccessOutcome::Hit.accepted());
        assert!(AccessOutcome::Miss.accepted());
        assert!(AccessOutcome::HitReserved.accepted());
        assert!(!AccessOutcome::ReservationFail.accepted());
    }

    #[test]
    fn cache_stats_rates() {
        let mut c = CacheStats {
            hits: 60,
            misses: 30,
            ..Default::default()
        };
        c.record_fail(ReservationFailReason::MissQueueFull);
        c.record_fail(ReservationFailReason::MshrFull);
        c.record_fail(ReservationFailReason::NoEvictableWay);
        assert_eq!(c.reservation_fails(), 3);
        assert_eq!(c.total_accesses(), 93);
        assert!((c.hit_rate() - 60.0 / 90.0).abs() < 1e-12);
        assert!((c.reservation_fail_rate() - 3.0 / 93.0).abs() < 1e-12);
    }

    #[test]
    fn coverage_definitions() {
        let s = SimStats {
            demand_loads: 100,
            l1: CacheStats {
                hits_on_prefetch: 70,
                merges_with_prefetch: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        assert!((s.coverage() - 0.80).abs() < 1e-12);
        assert!((s.timely_coverage() - 0.70).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_are_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.coverage(), 0.0);
        assert_eq!(s.memory_stall_fraction(), 0.0);
        assert_eq!(s.noc_utilization(0), 0.0);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(PrefetchStats::default().precision(), 0.0);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = SimStats {
            cycles: 10,
            instructions: 5,
            ..Default::default()
        };
        let b = SimStats {
            cycles: 20,
            instructions: 7,
            demand_loads: 3,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles, 20);
        assert_eq!(a.instructions, 12);
        assert_eq!(a.demand_loads, 3);
    }

    #[test]
    fn stats_state_round_trips_bit_exactly() {
        let c = CacheStats {
            hits: 1,
            misses: u64::MAX - 3,
            fail_no_way: 7,
            ..Default::default()
        };
        let text = c.save().to_string();
        let back = CacheStats::load(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.save().to_string(), text);
        assert!(CacheStats::load(&Value::Obj(vec![])).is_err());
    }

    #[test]
    fn stall_breakdown_partitions_and_round_trips() {
        let b = StallBreakdown {
            issued: 10,
            no_warp: 3,
            barrier: 2,
            scoreboard: 1,
            mem_data: 20,
            mem_struct_mshr: 4,
            mem_struct_missq: 5,
            mem_struct_noc: 6,
            scheduler_cycles: 51,
        };
        assert_eq!(b.total(), 51);
        assert!(b.is_exact());
        assert_eq!(b.counts(), [10, 3, 2, 1, 20, 4, 5, 6]);
        assert_eq!(b.shares()[4], 20.0 / 51.0);
        // The table's field names are the checkpoint keys, in order.
        let keys: Vec<String> = match b.save() {
            Value::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        };
        let fields = STALL_BUCKETS.map(|b| b.field);
        assert_eq!(keys[..8], fields[..]);
        let mut merged = b;
        merged.merge(&b);
        assert_eq!(merged.scheduler_cycles, 102);
        assert!(merged.is_exact());
        let text = b.save().to_string();
        let back = StallBreakdown::load(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.save().to_string(), text);
        let short = StallBreakdown {
            scheduler_cycles: 52,
            ..b
        };
        assert!(!short.is_exact());
    }

    #[test]
    fn noc_utilization_math() {
        let s = SimStats {
            cycles: 100,
            noc_bytes_up: 500,
            noc_bytes_down: 1500,
            ..Default::default()
        };
        // peak 10 B/cy/direction -> capacity = 2*10*100 = 2000
        assert!((s.noc_utilization(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noc_utilization_saturates_instead_of_wrapping() {
        let s = SimStats {
            cycles: u64::MAX,
            noc_bytes_up: 1,
            ..Default::default()
        };
        // 2 * MAX * MAX would wrap to a tiny denominator and report an
        // absurd utilization; saturation keeps it sane.
        let u = s.noc_utilization(u64::MAX);
        assert!(u.is_finite());
        assert!(u <= 1e-9, "got {u}");
    }
}
