//! Per-window time-series metrics.
//!
//! A [`WindowedMetrics`] collector turns the simulator's cumulative
//! counters into per-window rates: every `window` cycles the GPU hands
//! it a [`WindowTotals`] snapshot, the collector subtracts the previous
//! snapshot and appends a [`MetricsSample`]. The finished
//! [`MetricsSeries`] rides along in
//! [`SimOutcome`](crate::SimOutcome) and can be exported as CSV
//! ([`MetricsSeries::to_csv`]) or rendered as an ASCII timeline
//! ([`MetricsSeries::ascii_timeline`]).

use std::fmt::Write as _;

use crate::json::{self, FieldError, Value};
use crate::snapshot::SnapshotError;
use crate::stats::{self, StallBreakdown, STALL_BUCKETS};
use crate::types::Cycle;

/// Cumulative device-wide counters snapshotted at a window boundary.
/// Occupancies and utilization are instantaneous; the rest are
/// monotone totals the collector differences.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowTotals {
    /// Instructions issued since the run started.
    pub instructions: u64,
    /// Demand L1 accesses that hit (cumulative).
    pub l1_hits: u64,
    /// Demand L1 accesses in total (cumulative).
    pub l1_accesses: u64,
    /// MSHR entries currently in flight (all SMs).
    pub mshr_occupancy: usize,
    /// MSHR capacity (all SMs).
    pub mshr_capacity: usize,
    /// Miss-queue entries currently waiting (all SMs).
    pub miss_queue_occupancy: usize,
    /// Miss-queue capacity (all SMs).
    pub miss_queue_capacity: usize,
    /// NoC utilization over the interconnect's own window, `[0, 1]`.
    pub noc_utilization: f64,
    /// Warps currently resident and not retired.
    pub active_warps: usize,
    /// SMs whose prefetcher is currently throttled.
    pub throttled_sms: usize,
    /// Deepest chain-walk depth currently configured across SMs.
    pub max_chain_depth: u32,
    /// Cumulative issue-slot stall taxonomy (all SMs); the collector
    /// differences it into per-window fractions.
    pub stall: StallBreakdown,
}

/// One row of the time series: rates over a single window plus
/// instantaneous gauges at its closing edge.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSample {
    /// Cycle at the closing edge of the window.
    pub cycle: u64,
    /// Instructions per cycle over the window.
    pub ipc: f64,
    /// L1 demand hit rate over the window, `[0, 1]` (0 when no
    /// accesses fell in the window).
    pub l1_hit_rate: f64,
    /// MSHR occupancy fraction, `[0, 1]`.
    pub mshr_occupancy: f64,
    /// Miss-queue occupancy fraction, `[0, 1]`.
    pub miss_queue_occupancy: f64,
    /// NoC utilization, `[0, 1]`.
    pub noc_utilization: f64,
    /// Resident warps at the window edge.
    pub active_warps: usize,
    /// Throttled SMs at the window edge.
    pub throttled_sms: usize,
    /// Max chain depth across SMs at the window edge.
    pub chain_depth: u32,
    /// Fraction of the window's issue slots in each stall bucket, in
    /// [`STALL_BUCKETS`] order; they sum to 1 over a non-empty window.
    pub stall: [f64; 8],
}

impl MetricsSample {
    /// The sample as one JSON object, in field order: the payload of
    /// the sandbox child's `window` line and of the daemon's `window`
    /// stream line, which wrap it in their own framing keys.
    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            ("cycle".into(), Value::u64(self.cycle)),
            ("ipc".into(), Value::f64(self.ipc)),
            ("l1_hit_rate".into(), Value::f64(self.l1_hit_rate)),
            ("mshr_occupancy".into(), Value::f64(self.mshr_occupancy)),
            (
                "miss_queue_occupancy".into(),
                Value::f64(self.miss_queue_occupancy),
            ),
            ("noc_utilization".into(), Value::f64(self.noc_utilization)),
            ("active_warps".into(), Value::u64(self.active_warps as u64)),
            (
                "throttled_sms".into(),
                Value::u64(self.throttled_sms as u64),
            ),
            (
                "chain_depth".into(),
                Value::u64(u64::from(self.chain_depth)),
            ),
        ];
        fields.extend(stats::stall_shares_to_json(&self.stall));
        Value::Obj(fields)
    }

    /// Decodes [`to_json`](MetricsSample::to_json)'s object; framing
    /// keys around it are ignored.
    ///
    /// # Errors
    ///
    /// [`FieldError`] for the first missing or mistyped field.
    pub fn from_json(v: &Value) -> Result<Self, FieldError> {
        Ok(MetricsSample {
            cycle: json::u64_field(v, "cycle")?,
            ipc: json::f64_field(v, "ipc")?,
            l1_hit_rate: json::f64_field(v, "l1_hit_rate")?,
            mshr_occupancy: json::f64_field(v, "mshr_occupancy")?,
            miss_queue_occupancy: json::f64_field(v, "miss_queue_occupancy")?,
            noc_utilization: json::f64_field(v, "noc_utilization")?,
            active_warps: json::usize_field(v, "active_warps")?,
            throttled_sms: json::usize_field(v, "throttled_sms")?,
            chain_depth: json::u32_field(v, "chain_depth")?,
            stall: stats::stall_shares_from_json(v)?,
        })
    }
}

/// The collected time series.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSeries {
    /// Sampling period in cycles.
    pub window: u64,
    /// One sample per elapsed window, in time order.
    pub samples: Vec<MetricsSample>,
    /// Label of a non-`Completed` stop reason (`"budget_exceeded"`,
    /// `"cycle_limit"`, `"deadlock"`), set when the run was truncated —
    /// so a series that simply ends can be told apart from one whose
    /// run was cut short. `None` for converged runs.
    pub stop: Option<String>,
}

fn fraction(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl MetricsSeries {
    /// Renders the series as CSV with a header row. Floats use six
    /// decimal places so output is byte-stable across runs.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "cycle,ipc,l1_hit_rate,mshr_occupancy,miss_queue_occupancy,\
             noc_utilization,active_warps,throttled_sms,chain_depth",
        );
        for b in &STALL_BUCKETS {
            let _ = write!(out, ",{}", b.wire);
        }
        out.push('\n');
        for s in &self.samples {
            let _ = write!(
                out,
                "{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{}",
                s.cycle,
                s.ipc,
                s.l1_hit_rate,
                s.mshr_occupancy,
                s.miss_queue_occupancy,
                s.noc_utilization,
                s.active_warps,
                s.throttled_sms,
                s.chain_depth,
            );
            for share in s.stall {
                let _ = write!(out, ",{share:.6}");
            }
            out.push('\n');
        }
        if let Some(stop) = &self.stop {
            out.push_str(&format!("# stop={stop}\n"));
        }
        out
    }

    /// Renders a fixed-width ASCII timeline: one column per sample,
    /// one row per tracked signal. Utilization-style rows use a
    /// ten-level ramp (` .:-=+*#%@`); the throttle row marks windows
    /// where any SM was throttled with `#`.
    pub fn ascii_timeline(&self) -> String {
        const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
        let level = |v: f64| {
            let idx = (v.clamp(0.0, 1.0) * 9.0).round() as usize;
            RAMP[idx.min(9)]
        };
        let peak_ipc = self
            .samples
            .iter()
            .map(|s| s.ipc)
            .fold(0.0_f64, f64::max)
            .max(1e-9);

        let mut throttle = String::new();
        let mut noc = String::new();
        let mut hit = String::new();
        let mut ipc = String::new();
        for s in &self.samples {
            throttle.push(if s.throttled_sms > 0 { '#' } else { '.' });
            noc.push(level(s.noc_utilization));
            hit.push(level(s.l1_hit_rate));
            ipc.push(level(s.ipc / peak_ipc));
        }
        let span = self.samples.last().map_or(0, |s| s.cycle);
        let mut out = String::new();
        out.push_str(&format!(
            "timeline: {} windows x {} cycles (through cycle {}){}\n",
            self.samples.len(),
            self.window,
            span,
            match &self.stop {
                Some(stop) => format!(" — truncated: {stop}"),
                None => String::new(),
            }
        ));
        out.push_str(&format!("throttle |{throttle}|\n"));
        out.push_str(&format!("noc util |{noc}|\n"));
        out.push_str(&format!("hit rate |{hit}|\n"));
        out.push_str(&format!(
            "ipc/peak |{ipc}| (peak {:.2})\n",
            if peak_ipc <= 1e-9 { 0.0 } else { peak_ipc }
        ));
        out
    }
}

/// Columns of a checkpointed sample row ahead of its stall shares.
const SAMPLE_GAUGES: usize = 9;

/// Incremental collector the GPU drives once per `window` cycles.
#[derive(Debug, Clone, Default)]
pub struct WindowedMetrics {
    series: MetricsSeries,
    last_cycle: u64,
    last_instructions: u64,
    last_l1_hits: u64,
    last_l1_accesses: u64,
    last_stall: StallBreakdown,
}

impl WindowedMetrics {
    /// Creates a collector sampling every `window` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero (rejected earlier by
    /// [`GpuConfig::validate`](crate::GpuConfig::validate)).
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "metrics window must be non-zero");
        WindowedMetrics {
            series: MetricsSeries {
                window,
                samples: Vec::new(),
                stop: None,
            },
            last_cycle: 0,
            last_instructions: 0,
            last_l1_hits: 0,
            last_l1_accesses: 0,
            last_stall: StallBreakdown::default(),
        }
    }

    /// Sampling period in cycles.
    pub fn window(&self) -> u64 {
        self.series.window
    }

    /// The most recently closed window's sample, if any — the row the
    /// GPU forwards to a live telemetry ring right after
    /// [`record`](WindowedMetrics::record).
    pub fn last_sample(&self) -> Option<&MetricsSample> {
        self.series.samples.last()
    }

    /// Closes the window ending at `cycle` with the given cumulative
    /// snapshot and appends a sample.
    pub fn record(&mut self, cycle: Cycle, totals: &WindowTotals) {
        let elapsed = cycle.0.saturating_sub(self.last_cycle).max(1);
        let d_instr = totals.instructions.saturating_sub(self.last_instructions);
        let d_hits = totals.l1_hits.saturating_sub(self.last_l1_hits);
        let d_acc = totals.l1_accesses.saturating_sub(self.last_l1_accesses);
        let d_sched = totals
            .stall
            .scheduler_cycles
            .saturating_sub(self.last_stall.scheduler_cycles);
        let (now, before) = (totals.stall.counts(), self.last_stall.counts());
        let stall = std::array::from_fn(|i| {
            if d_sched == 0 {
                0.0
            } else {
                now[i].saturating_sub(before[i]) as f64 / d_sched as f64
            }
        });
        self.series.samples.push(MetricsSample {
            cycle: cycle.0,
            ipc: d_instr as f64 / elapsed as f64,
            l1_hit_rate: if d_acc == 0 {
                0.0
            } else {
                d_hits as f64 / d_acc as f64
            },
            mshr_occupancy: fraction(totals.mshr_occupancy, totals.mshr_capacity),
            miss_queue_occupancy: fraction(totals.miss_queue_occupancy, totals.miss_queue_capacity),
            noc_utilization: totals.noc_utilization,
            active_warps: totals.active_warps,
            throttled_sms: totals.throttled_sms,
            chain_depth: totals.max_chain_depth,
            stall,
        });
        self.last_cycle = cycle.0;
        self.last_instructions = totals.instructions;
        self.last_l1_hits = totals.l1_hits;
        self.last_l1_accesses = totals.l1_accesses;
        self.last_stall = totals.stall;
    }

    /// Marks the series as belonging to a truncated run (any
    /// non-`Completed` stop reason), by its stable label.
    pub fn mark_stop(&mut self, label: impl Into<String>) {
        self.series.stop = Some(label.into());
    }

    /// Consumes the collector and returns the series.
    pub fn finish(self) -> MetricsSeries {
        self.series
    }

    /// Serializes the collected samples and differencing cursors for a
    /// checkpoint. The sampling period itself is config-derived and not
    /// captured; the restored collector must be built with the same
    /// window (guaranteed by the checkpoint's config fingerprint).
    pub fn save_state(&self) -> Value {
        let samples = self
            .series
            .samples
            .iter()
            .map(|s| {
                let gauges: [Value; SAMPLE_GAUGES] = [
                    Value::u64(s.cycle),
                    Value::f64(s.ipc),
                    Value::f64(s.l1_hit_rate),
                    Value::f64(s.mshr_occupancy),
                    Value::f64(s.miss_queue_occupancy),
                    Value::f64(s.noc_utilization),
                    Value::u64(s.active_warps as u64),
                    Value::u64(s.throttled_sms as u64),
                    Value::u64(u64::from(s.chain_depth)),
                ];
                Value::Arr(gauges.into_iter().chain(s.stall.map(Value::f64)).collect())
            })
            .collect();
        Value::Obj(vec![
            ("samples".into(), Value::Arr(samples)),
            (
                "stop".into(),
                match &self.series.stop {
                    Some(s) => Value::str(s.clone()),
                    None => Value::Null,
                },
            ),
            ("last_cycle".into(), Value::u64(self.last_cycle)),
            (
                "last_instructions".into(),
                Value::u64(self.last_instructions),
            ),
            ("last_l1_hits".into(), Value::u64(self.last_l1_hits)),
            ("last_l1_accesses".into(), Value::u64(self.last_l1_accesses)),
            ("last_stall".into(), self.last_stall.save_state()),
        ])
    }

    /// Restores from [`save_state`](WindowedMetrics::save_state).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] on a missing or malformed field;
    /// nothing is applied until the whole sample array decodes.
    pub fn restore_state(&mut self, v: &Value) -> Result<(), SnapshotError> {
        let mut samples = Vec::new();
        for (i, entry) in json::arr_field(v, "samples")?.iter().enumerate() {
            let row = entry
                .as_arr()
                .filter(|r| r.len() == SAMPLE_GAUGES + STALL_BUCKETS.len())
                .ok_or_else(|| SnapshotError::malformed(format!("metrics sample {i}")))?;
            let u = |j: usize| {
                row[j]
                    .as_u64()
                    .ok_or_else(|| SnapshotError::malformed(format!("metrics sample {i} col {j}")))
            };
            let f = |j: usize| {
                row[j]
                    .as_f64()
                    .ok_or_else(|| SnapshotError::malformed(format!("metrics sample {i} col {j}")))
            };
            let mut stall = [0.0; 8];
            for (j, share) in stall.iter_mut().enumerate() {
                *share = f(SAMPLE_GAUGES + j)?;
            }
            samples.push(MetricsSample {
                cycle: u(0)?,
                ipc: f(1)?,
                l1_hit_rate: f(2)?,
                mshr_occupancy: f(3)?,
                miss_queue_occupancy: f(4)?,
                noc_utilization: f(5)?,
                active_warps: u(6)? as usize,
                throttled_sms: u(7)? as usize,
                chain_depth: u(8)? as u32,
                stall,
            });
        }
        let stop = match json::field(v, "stop")? {
            Value::Null => None,
            other => Some(
                other
                    .as_str()
                    .ok_or_else(|| SnapshotError::malformed("metrics stop label"))?
                    .to_string(),
            ),
        };
        self.series.samples = samples;
        self.series.stop = stop;
        self.last_cycle = json::u64_field(v, "last_cycle")?;
        self.last_instructions = json::u64_field(v, "last_instructions")?;
        self.last_l1_hits = json::u64_field(v, "last_l1_hits")?;
        self.last_l1_accesses = json::u64_field(v, "last_l1_accesses")?;
        self.last_stall
            .restore_state(json::field(v, "last_stall")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn totals(instr: u64, hits: u64, acc: u64) -> WindowTotals {
        WindowTotals {
            instructions: instr,
            l1_hits: hits,
            l1_accesses: acc,
            mshr_occupancy: 4,
            mshr_capacity: 16,
            miss_queue_occupancy: 1,
            miss_queue_capacity: 4,
            noc_utilization: 0.5,
            active_warps: 8,
            throttled_sms: 1,
            max_chain_depth: 2,
            stall: StallBreakdown::default(),
        }
    }

    #[test]
    fn deltas_not_totals() {
        let mut m = WindowedMetrics::new(100);
        m.record(Cycle(100), &totals(200, 50, 100));
        m.record(Cycle(200), &totals(260, 80, 200));
        let s = m.finish();
        assert_eq!(s.samples.len(), 2);
        assert_eq!(s.samples[0].ipc, 2.0);
        assert_eq!(s.samples[0].l1_hit_rate, 0.5);
        // Second window: 60 instructions / 100 cycles, 30 hits / 100.
        assert_eq!(s.samples[1].ipc, 0.6);
        assert_eq!(s.samples[1].l1_hit_rate, 0.3);
        assert_eq!(s.samples[1].mshr_occupancy, 0.25);
        assert_eq!(s.samples[1].miss_queue_occupancy, 0.25);
    }

    #[test]
    fn sample_json_round_trips_and_ignores_framing() {
        let mut m = WindowedMetrics::new(10);
        m.record(Cycle(10), &totals(7, 5, 10));
        let sample = m.finish().samples[0];
        let mut line = sample.to_json();
        if let Value::Obj(fields) = &mut line {
            fields.insert(0, ("t".into(), Value::str("window")));
        }
        let text = line.to_string();
        let back = MetricsSample::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, sample);
        let err = MetricsSample::from_json(&json::parse(r#"{"cycle":1}"#).unwrap()).unwrap_err();
        assert_eq!(err.to_string(), r#"missing or non-f64 field "ipc""#);
    }

    #[test]
    fn empty_window_is_zero_not_nan() {
        let mut m = WindowedMetrics::new(10);
        m.record(Cycle(10), &totals(0, 0, 0));
        let s = m.finish();
        assert_eq!(s.samples[0].ipc, 0.0);
        assert_eq!(s.samples[0].l1_hit_rate, 0.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_window_rejected() {
        let _ = WindowedMetrics::new(0);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut m = WindowedMetrics::new(10);
        m.record(Cycle(10), &totals(10, 5, 10));
        let csv = m.finish().to_csv();
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("cycle,ipc,l1_hit_rate"));
        let row = lines.next().unwrap();
        assert!(row.starts_with("10,1.000000,0.500000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn stall_fractions_are_window_deltas() {
        let mut m = WindowedMetrics::new(10);
        let mut t = totals(10, 5, 10);
        t.stall = StallBreakdown {
            issued: 6,
            mem_data: 4,
            scheduler_cycles: 10,
            ..StallBreakdown::default()
        };
        m.record(Cycle(10), &t);
        // Second window adds 10 scheduler-cycles: 2 issued, 8 MSHR.
        let mut t2 = totals(20, 10, 20);
        t2.stall = StallBreakdown {
            issued: 8,
            mem_data: 4,
            mem_struct_mshr: 8,
            scheduler_cycles: 20,
            ..StallBreakdown::default()
        };
        m.record(Cycle(20), &t2);
        let s = m.finish();
        assert_eq!(s.samples[0].stall, [0.6, 0.0, 0.0, 0.0, 0.4, 0.0, 0.0, 0.0]);
        assert_eq!(s.samples[1].stall, [0.2, 0.0, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0]);
        // The CSV carries all eight fraction columns.
        let csv = s.to_csv();
        assert!(csv.lines().next().unwrap().ends_with("stall_mem_noc"));
    }

    #[test]
    fn ascii_timeline_marks_throttle() {
        let mut m = WindowedMetrics::new(10);
        m.record(Cycle(10), &totals(10, 5, 10));
        m.record(
            Cycle(20),
            &WindowTotals {
                throttled_sms: 0,
                ..totals(20, 10, 20)
            },
        );
        let art = m.finish().ascii_timeline();
        assert!(art.contains("throttle |#.|"), "got:\n{art}");
        assert!(art.contains("noc util |"));
        assert!(art.contains("hit rate |"));
    }

    #[test]
    fn timeline_of_empty_series_is_harmless() {
        let s = MetricsSeries {
            window: 10,
            samples: Vec::new(),
            stop: None,
        };
        let art = s.ascii_timeline();
        assert!(art.contains("0 windows"));
    }

    #[test]
    fn truncation_marker_reaches_csv_and_timeline() {
        let mut m = WindowedMetrics::new(10);
        m.record(Cycle(10), &totals(10, 5, 10));
        m.mark_stop("budget_exceeded");
        let series = m.finish();
        assert_eq!(series.stop.as_deref(), Some("budget_exceeded"));
        assert!(series.to_csv().ends_with("# stop=budget_exceeded\n"));
        assert!(series
            .ascii_timeline()
            .contains("truncated: budget_exceeded"));
        // Converged series carry no marker.
        let mut m = WindowedMetrics::new(10);
        m.record(Cycle(10), &totals(10, 5, 10));
        let series = m.finish();
        assert!(!series.to_csv().contains('#'));
        assert!(!series.ascii_timeline().contains("truncated"));
    }
}
