//! Outside-in spans: every public call the benchmark makes into a
//! layer of the simulator is wrapped in a span recorded by the
//! benchmark itself, never by the program.
//!
//! Spans are kept in memory and written, if asked, when the run ends.
//! A disabled tracer records nothing and reads no clock, so the
//! untraced passes that produce the end-to-end numbers pay one branch
//! per call.

use std::io::Write;
use std::time::Instant;

/// One timed call: which layer, when, and which span caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.new` or `snapshot.write`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Index of the job (in the workload's job order) this span works
    /// for; spans of one job share it.
    pub job: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Operations the span covers: 1 for a call, the step count for a
    /// run of consecutive `Gpu::step`s.
    pub count: u64,
    /// Bytes the operation moved (checkpoint writes), else 0.
    pub bytes: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            job,
            start_ns,
            end_ns: start_ns,
            count: 1,
            bytes: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed span under the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        interval: (u64, u64),
        count: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied(),
                job,
                start_ns: interval.0,
                end_ns: interval.1,
                count,
                bytes: 0,
            });
        }
    }

    /// Attaches a byte count to the most recently recorded span.
    pub fn add_bytes(&mut self, bytes: u64) {
        if let Some(last) = self.spans.last_mut() {
            last.bytes += bytes;
        }
    }

    /// Every span recorded so far, in start order of their opening.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one object per span, with its
    /// self time.
    pub fn write_jsonl(&self, mut out: impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (id, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"job\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"count\":{},\"bytes\":{}}}",
                opt(s.parent),
                s.name,
                opt(s.job),
                s.start_ns,
                s.end_ns,
                s.count,
                s.bytes
            )?;
        }
        out.flush()
    }
}

fn opt(v: Option<usize>) -> String {
    v.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            covered[p] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// What all spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Summed self time.
    pub self_ns: u64,
    /// Summed wall time.
    pub wall_ns: u64,
    /// Summed operation counts.
    pub count: u64,
    /// Summed byte counts.
    pub bytes: u64,
}

impl Totals {
    /// Mean self time per operation, in `unit_ns` units (0 with no
    /// operations).
    pub fn per_op(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

/// Totals of every span named `name`, given precomputed self times.
pub fn totals(spans: &[Span], selfs: &[u64], name: &str) -> Totals {
    let mut t = Totals::default();
    for (s, &self_ns) in spans.iter().zip(selfs) {
        if s.name == name {
            t.self_ns += self_ns;
            t.wall_ns += s.duration_ns();
            t.count += s.count;
            t.bytes += s.bytes;
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            job: None,
            start_ns,
            end_ns,
            count: 1,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_only_direct_children() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("job", Some(0), 10, 90),
            span("sim.new", Some(1), 20, 30),
            span("sim.step.idle", Some(1), 30, 70),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 10, 40]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_interval() {
        // A child recorded with explicit timestamps can overhang its
        // parent by a clock read; only the overlap is subtracted.
        let spans = vec![
            span("job", None, 10, 50),
            span("sim.step.active", Some(0), 40, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20]);
    }

    #[test]
    fn tracer_nests_spans_and_totals_them() {
        let mut tr = Tracer::on();
        tr.span("pass", None, |tr| {
            tr.span("job", Some(0), |tr| {
                tr.span("sim.new", Some(0), |_| ());
                tr.record("sim.step.idle", Some(0), (0, 0), 7);
            });
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(1));
        let selfs = self_times(spans);
        assert_eq!(totals(spans, &selfs, "sim.step.idle").count, 7);
        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 4);
        assert!(text
            .lines()
            .nth(2)
            .unwrap()
            .contains("\"name\":\"sim.new\",\"job\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("pass", None, |tr| {
            tr.record("sim.step.idle", None, (0, 1), 1);
            5
        });
        assert_eq!(v, 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn per_op_divides_self_time_by_count() {
        let t = Totals {
            self_ns: 3_000,
            wall_ns: 3_000,
            count: 3,
            bytes: 0,
        };
        assert_eq!(t.per_op(1.0), 1_000.0);
        assert_eq!(t.per_op(1e3), 1.0);
        assert_eq!(Totals::default().per_op(1.0), 0.0);
    }
}
