//! # snakebench
//!
//! The repository benchmark: four workloads, each run as its own
//! process with one job at a time (a closed loop of concurrency 1),
//! measured from outside by timing calls into the simulator's public
//! API. End-to-end numbers come from untraced passes; a separate
//! traced pass gives the per-layer numbers and its own overhead.
//! See `README.md` beside this package for the workloads, metrics and
//! time budget.

pub mod metric;
pub mod paper;
mod sim;
mod stats;
pub mod trace;

use std::path::PathBuf;
use std::time::Instant;

use snake_bench::supervise::{campaign, JobSpec};
use snake_bench::Harness;
use snake_core::metrics::{geometric_mean, mean};
use snake_core::{MechanismReport, PrefetcherKind};
use snake_sim::{SimError, SimStats};
use snake_workloads::{memory_bound, Benchmark};

use metric::{Checks, Metric, MetricSet};
use sim::StepCounts;
use stats::fastest;
use trace::Tracer;

/// Paper targets the fidelity gaps are measured against: Snake's mean
/// speedup (+17%), coverage (~80%) and timely coverage (~75%).
const PAPER_SPEEDUP_PCT: f64 = 17.0;
const PAPER_COVERAGE_PCT: f64 = 80.0;
const PAPER_ACCURACY_PCT: f64 = 75.0;

/// Traced passes per traced run.
const TRACED_PASSES: usize = 3;

/// Any failure that stops a workload run.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;

/// How one run measures.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Simulated GPU, workload size and seed.
    pub h: Harness,
    /// Timed passes stop once another pass would end past this many
    /// seconds (after the minimums below are met).
    pub seconds: f64,
    /// At least this many timed passes.
    pub min_passes: usize,
    /// At least this many timed jobs (so the p90 job latency has ten
    /// samples beyond it).
    pub min_job_samples: usize,
    /// At least this many set-ups timed; the median is reported.
    pub setup_reps: usize,
    /// Passes with the host profiler on (traced runs only).
    pub profiled_reps: usize,
    /// Whether to run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Binary the sandbox re-executes in `--exec-job` worker mode.
    pub worker: PathBuf,
    /// Directory for checkpoint files; created and removed by the run.
    pub scratch: PathBuf,
}

impl Plan {
    /// The plan a command-line run uses: `Harness::standard()` for the
    /// simulation workloads and `Harness::quick()` for `paper_all` (see
    /// the `paper` module), both with `seed` as the workload seed.
    pub fn new(
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        worker: PathBuf,
        scratch: PathBuf,
    ) -> Plan {
        let mut h = match workload {
            Workload::PaperAll => Harness::quick(),
            _ => Harness::standard(),
        };
        h.size.seed = seed;
        Plan {
            h,
            seconds,
            min_passes: 3,
            min_job_samples: 100,
            setup_reps: 50,
            profiled_reps: 5,
            trace,
            worker,
            scratch,
        }
    }

    /// Whether to start another timed pass, given the passes so far.
    pub fn keep_going(&self, started: Instant, passes_s: &[f64], jobs_timed: usize) -> bool {
        let last = passes_s.last().copied().unwrap_or(0.0);
        passes_s.len() < self.min_passes
            || jobs_timed < self.min_job_samples
            || started.elapsed().as_secs_f64() + last <= self.seconds
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The memory-bound suite under baseline and Snake.
    MemoryBound,
    /// The chain-heavy streaming apps under three prefetchers.
    PrefetchHeavy,
    /// The memory-bound suite under Snake, sandboxed, then paused,
    /// checkpointed, restored and resumed in-thread.
    IsolatedResume,
    /// Every table and figure of the paper, as `repro --all` makes them.
    PaperAll,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::MemoryBound,
        Workload::PrefetchHeavy,
        Workload::IsolatedResume,
        Workload::PaperAll,
    ];

    /// The workload's name on the command line and in the output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MemoryBound => "memory_bound",
            Workload::PrefetchHeavy => "prefetch_heavy",
            Workload::IsolatedResume => "isolated_resume",
            Workload::PaperAll => "paper_all",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The timed jobs, in the order every pass runs them.
    pub fn jobs(self) -> Vec<JobSpec> {
        use PrefetcherKind::{Baseline, Mta, Snake, SnakeDt};
        match self {
            Workload::MemoryBound => campaign(memory_bound(), &[Baseline, Snake]),
            Workload::PrefetchHeavy => campaign(
                &[Benchmark::Cp, Benchmark::Lps, Benchmark::Mrq],
                &[Snake, SnakeDt, Mta],
            ),
            Workload::IsolatedResume => campaign(memory_bound(), &[Snake]),
            Workload::PaperAll => campaign(Benchmark::all(), &paper::matrix_kinds()),
        }
    }

    /// Runs the workload under `plan`.
    pub fn run(self, plan: &Plan) -> Outcome {
        let mut out = Outcome::new();
        let result = match self {
            Workload::MemoryBound | Workload::PrefetchHeavy => {
                sim::run(plan, &self.jobs(), &mut out)
            }
            Workload::IsolatedResume => sim::run_isolated(plan, &self.jobs(), &mut out),
            Workload::PaperAll => paper::run(plan, &mut out),
        };
        if let Err(e) = result {
            out.checks.fail(format!("{}: {e}", self.name()));
        }
        if let Some(rss) = peak_rss_mib() {
            out.e2e.set("peak_rss_mb", rss, 1);
        }
        out
    }
}

/// Everything one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// End-to-end metrics (untraced passes).
    pub e2e: MetricSet,
    /// Per-layer metrics (traced pass and profiled reps).
    pub layers: MetricSet,
    /// Further lines printed before the result: the job latency
    /// percentiles.
    pub info: Vec<Metric>,
    /// FNV-1a over the simulated results, in job order.
    pub digest: u64,
    /// Results the digest covers.
    pub digest_n: usize,
    /// Output checks.
    pub checks: Checks,
    /// Spans of the traced pass (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    fn new() -> Self {
        Outcome {
            e2e: MetricSet::end_to_end(),
            layers: MetricSet::per_layer(),
            info: Vec::new(),
            digest: 0,
            digest_n: 0,
            checks: Checks::default(),
            tracer: Tracer::off(),
        }
    }

    fn push_info(&mut self, name: &str, unit: &'static str, value: f64, n: usize) {
        self.info.push(Metric {
            name: name.to_string(),
            unit,
            value,
            n,
        });
    }

    /// Sets the three fidelity gaps from Snake's and the baseline's
    /// reports on `apps`. They are deterministic for a seed but move
    /// with it (MUM and histo draw their inputs from it), so they are
    /// per-layer metrics rather than bounded end-to-end ones.
    fn set_fidelity(
        &mut self,
        apps: &[Benchmark],
        report: impl Fn(Benchmark, PrefetcherKind) -> MechanismReport,
    ) {
        let snake: Vec<MechanismReport> = apps
            .iter()
            .map(|&b| report(b, PrefetcherKind::Snake))
            .collect();
        let speedups: Vec<f64> = apps
            .iter()
            .zip(&snake)
            .map(|(&b, s)| s.speedup_over(&report(b, PrefetcherKind::Baseline)))
            .collect();
        let pct = |v: f64| v * 100.0;
        let cov: Vec<f64> = snake.iter().map(|r| r.coverage).collect();
        let acc: Vec<f64> = snake.iter().map(|r| r.accuracy).collect();
        let gaps = [
            (
                "fidelity.speedup_gap_pp",
                pct(geometric_mean(&speedups) - 1.0) - PAPER_SPEEDUP_PCT,
            ),
            (
                "fidelity.coverage_gap_pp",
                pct(mean(&cov)) - PAPER_COVERAGE_PCT,
            ),
            (
                "fidelity.accuracy_gap_pp",
                pct(mean(&acc)) - PAPER_ACCURACY_PCT,
            ),
        ];
        for (name, gap) in gaps {
            self.layers.set(name, gap.abs(), apps.len());
        }
    }

    /// Sets the modelled-GPU metrics: deterministic sums over the jobs'
    /// simulated statistics.
    fn set_modelled(&mut self, all: &[&SimStats]) {
        let mut s = SimStats::default();
        let mut cycles = 0u64;
        for st in all {
            s.merge(st);
            cycles += st.cycles;
        }
        let ratio = |a: u64, b: u64| ratio(a as f64, b as f64);
        let st = &s.stall;
        let slots = st.scheduler_cycles;
        let n = all.len();
        let p = &s.prefetch;
        let values: [(&str, f64); 15] = [
            ("sim.cycles", cycles as f64),
            ("sim.instructions", s.instructions as f64),
            ("sm.issue_slot_util", ratio(st.issued, slots)),
            (
                "sm.mem_stall_share",
                ratio(
                    st.mem_data + st.mem_struct_mshr + st.mem_struct_missq + st.mem_struct_noc,
                    slots,
                ),
            ),
            ("l1.accesses", s.l1.total_accesses() as f64),
            ("l1.hit_rate", s.l1.hit_rate()),
            ("l1.reservation_fail_rate", s.l1.reservation_fail_rate()),
            ("mshr.stall_share", ratio(st.mem_struct_mshr, slots)),
            ("noc.bytes", (s.noc_bytes_up + s.noc_bytes_down) as f64),
            ("noc.stall_share", ratio(st.mem_struct_noc, slots)),
            ("l2.hit_rate", ratio(s.l2_hits, s.l2_hits + s.l2_misses)),
            ("dram.reads", s.l2_misses as f64),
            ("prefetch.issued", p.issued as f64),
            ("prefetch.useful_ratio", ratio(p.useful, p.issued)),
            ("prefetch.late_share", ratio(p.late, p.useful + p.late)),
        ];
        for (name, v) in values {
            self.layers.set(name, v, n);
        }
    }

    /// Runs the traced passes, each under a `pass` root span and each
    /// after an untraced pass of the same work, then sets the per-layer
    /// metrics their spans give, the trace overhead (fastest traced over
    /// fastest of the alternating untraced passes) and the idle share of
    /// simulated cycles. `pass` runs one pass and returns its steps.
    fn traced_passes(
        &mut self,
        mut pass: impl FnMut(&mut Tracer, &mut Checks) -> Result<StepCounts, SimError>,
    ) -> Result<(), SimError> {
        let mut tr = Tracer::on();
        let mut off = Tracer::off();
        let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
        let mut steps = StepCounts::default();
        for _ in 0..TRACED_PASSES {
            let t = Instant::now();
            pass(&mut off, &mut self.checks)?;
            untraced_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            steps = tr.span("pass", None, |tr| pass(tr, &mut self.checks))?;
            traced_s.push(t.elapsed().as_secs_f64());
        }
        let overhead =
            fastest(&traced_s).unwrap_or(f64::NAN) / fastest(&untraced_s).unwrap_or(f64::NAN);
        self.layers
            .set("bench.trace_overhead", overhead, traced_s.len());
        let all = steps.idle + steps.active;
        let idle_share = ratio(steps.idle as f64, all as f64);
        self.layers
            .set("sim.idle_cycle_share", idle_share, all as usize);
        self.tracer = tr;
        self.set_layer_times();
        Ok(())
    }

    /// Sets the per-layer times every workload derives the same way
    /// from its traced passes: mean self time per operation of each
    /// layer's spans. Step times come from the individually timed
    /// sample of steps.
    fn set_layer_times(&mut self) {
        let spans = self.tracer.spans();
        let selfs = trace::self_times(spans);
        let t = |name: &str| trace::totals(spans, &selfs, name);
        let per_op: [(&str, &str, f64); 9] = [
            ("workloads.build_ms", "workloads.build", 1e6),
            ("sim.new_ms", "sim.new", 1e6),
            ("sim.step_ns_idle", "sim.step.idle", 1.0),
            ("sim.step_ns_active", "sim.step.active", 1.0),
            ("metrics.report_us", "metrics.report", 1e3),
            ("snapshot.capture_ms", "snapshot.capture", 1e6),
            ("snapshot.write_ms", "snapshot.write", 1e6),
            ("snapshot.load_ms", "snapshot.load", 1e6),
            ("snapshot.restore_ms", "snapshot.restore", 1e6),
        ];
        let mut values: Vec<(String, f64, u64)> = per_op
            .iter()
            .map(|&(metric, span, unit)| {
                let x = t(span);
                (metric.to_string(), x.per_op(unit), x.count)
            })
            .collect();
        let figure_spans = paper::FIGURES.iter().map(|&(span, _)| span);
        for span in figure_spans.chain(["figures.matrix"]) {
            let x = t(span);
            values.push((format!("{span}_s"), x.per_op(1e9), x.count));
        }
        let render = t("report.render");
        values.push(("report.render_ms".into(), render.per_op(1e6), render.count));
        let write = t("snapshot.write");
        let bytes = ratio(write.bytes as f64, write.count as f64);
        values.push(("snapshot.bytes".into(), bytes, write.count));
        let (idle, active) = (t("sim.step.idle"), t("sim.step.active"));
        let stepping = (idle.self_ns + active.self_ns) as f64;
        let idle_share = ratio(idle.self_ns as f64, stepping);
        values.push((
            "sim.idle_time_share".into(),
            idle_share,
            idle.count + active.count,
        ));
        let pass = t("pass");
        let glue = (pass.self_ns + t("job").self_ns) as f64;
        let unattributed = ratio(glue, pass.wall_ns as f64);
        values.push(("trace.unattributed_share".into(), unattributed, pass.count));
        for (name, v, n) in values {
            self.layers.set(&name, v, n as usize);
        }
    }
}

/// `a / b`, or 0 when `b` is 0: a layer the workload did not exercise.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// FNV-1a over the `Debug` text of each job's simulated statistics, in
/// job order: equal digests mean bit-identical simulated results.
pub(crate) fn stats_digest<'a>(all: impl IntoIterator<Item = &'a SimStats>) -> u64 {
    let mut text = String::new();
    for s in all {
        text.push_str(&format!("{s:?}\n"));
    }
    snake_sim::snapshot::fnv1a64(text.as_bytes())
}

/// The process's peak resident set (`VmHWM`) in MiB, where the OS
/// reports it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
