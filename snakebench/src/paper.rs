//! The `paper_all` workload: the body of `figures::all`, called figure
//! by figure, then rendered as `repro --all` prints it.
//!
//! At the standard size one pass takes about 20 s and moves by ±20%
//! from run to run on a shared host, so a run measures whole passes at
//! the quick size (`repro --quick --all`, about 1.4 s each) and keeps
//! the fastest.

use std::time::Instant;

use snake_bench::figures::{self, EvalMatrix};
use snake_bench::report::Table;
use snake_bench::supervise::JobSpec;
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::SimError;
use snake_workloads::Benchmark;

use crate::metric::Checks;
use crate::sim::{SetupTimer, StepCounts};
use crate::stats::fastest;
use crate::trace::Tracer;
use crate::{BenchResult, Outcome, Plan};

/// A table or figure function, given the harness and the timing matrix.
pub(crate) type FigureFn = fn(&Harness, &EvalMatrix) -> Result<Table, SimError>;

/// Every table and figure in `figures::all` order, under its span name
/// (`figures.` plus the id `repro --list` prints; `fig05b` is the stall
/// breakdown that `repro --all` prints after Fig 5).
pub(crate) const FIGURES: [(&str, FigureFn); 24] = [
    ("figures.table1", |h, _| Ok(figures::table1_config(h))),
    ("figures.table2", |_, _| Ok(figures::table2_benchmarks())),
    ("figures.table3", |_, _| Ok(figures::table3_cost())),
    ("figures.fig03", |_, m| {
        Ok(figures::fig03_reservation_fails(m))
    }),
    ("figures.fig04", |_, m| {
        Ok(figures::fig04_noc_utilization(m))
    }),
    ("figures.fig05", |_, m| Ok(figures::fig05_memory_stalls(m))),
    ("figures.fig05b", |_, m| {
        Ok(figures::fig05_stall_breakdown(m))
    }),
    ("figures.fig06", |h, _| {
        Ok(figures::fig06_coverage_vs_ideal(h))
    }),
    ("figures.fig09", |h, _| Ok(figures::fig09_chain_pcs(h))),
    ("figures.fig10", |h, _| {
        Ok(figures::fig10_chain_repetition(h))
    }),
    ("figures.fig11", |h, _| Ok(figures::fig11_chain_vs_mta(h))),
    ("figures.fig16", |_, m| Ok(figures::fig16_coverage(m))),
    ("figures.fig17", |_, m| Ok(figures::fig17_accuracy(m))),
    ("figures.fig18", |_, m| Ok(figures::fig18_performance(m))),
    ("figures.fig19", |_, m| Ok(figures::fig19_energy(m))),
    ("figures.fig20", |h, _| figures::fig20_tail_entries(h)),
    ("figures.fig21", |_, _| Ok(figures::fig21_hw_cost())),
    ("figures.fig22", |h, _| figures::fig22_eviction_policy(h)),
    ("figures.fig23", |h, _| figures::fig23_throttling(h)),
    ("figures.fig24", |h, _| figures::fig24_tiling(h)),
    ("figures.fig25", |_, m| Ok(figures::fig25_hit_rate(m))),
    ("figures.xhead", |h, _| figures::extra_head_layout(h)),
    ("figures.xsched", |h, _| figures::extra_scheduler(h)),
    ("figures.xmulti", |h, _| figures::extra_multi_app(h)),
];

/// The mechanisms of the timing matrix, as `figures::all` collects it.
pub fn matrix_kinds() -> Vec<PrefetcherKind> {
    let mut kinds = figures::figure_mechanisms();
    kinds.push(PrefetcherKind::IsolatedSnake);
    kinds
}

/// What one pass produced.
struct PaperPass {
    /// The timing matrix.
    matrix: EvalMatrix,
    /// Every table, rendered as `repro --all` prints them.
    text: String,
}

/// One pass: the matrix, every table function, then rendering.
fn paper_pass(h: &Harness, tr: &mut Tracer) -> Result<PaperPass, SimError> {
    let kinds = matrix_kinds();
    let matrix = tr.span("figures.matrix", None, |_| EvalMatrix::collect(h, &kinds))?;
    let mut tables = Vec::with_capacity(FIGURES.len());
    for (span, f) in FIGURES {
        tables.push(tr.span(span, None, |_| f(h, &matrix))?);
    }
    let text = tr.span("report.render", None, |_| {
        tables.iter().map(|t| format!("{t}\n")).collect::<String>()
    });
    Ok(PaperPass { matrix, text })
}

/// Every `(app, mechanism)` pair the matrix must hold; a missing pair
/// makes `EvalMatrix::get` panic, which is caught and counted.
fn matrix_is_complete(m: &EvalMatrix) -> bool {
    matrix_kinds().into_iter().all(|k| {
        Benchmark::all().iter().all(|&b| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| m.get(b, k).cycles)).is_ok()
        })
    })
}

/// Simulated cycles and instructions over the whole matrix.
fn matrix_work(m: &EvalMatrix) -> (u64, u64) {
    let (mut cycles, mut instrs) = (0u64, 0u64);
    for k in matrix_kinds() {
        for &b in Benchmark::all() {
            let r = m.get(b, k);
            cycles += r.cycles;
            instrs += (r.ipc * r.cycles as f64).round() as u64;
        }
    }
    (cycles, instrs)
}

/// `paper_all`: whole passes of `repro --all` in-process, at the
/// plan's harness (`Harness::quick()` when run from the command line).
/// Traced runs also collect one timing matrix at the standard size,
/// for the fidelity gaps.
pub(crate) fn run(plan: &Plan, out: &mut Outcome) -> BenchResult<()> {
    let h = &plan.h;
    let jobs: Vec<JobSpec> = crate::Workload::PaperAll.jobs();
    let mut off = Tracer::off();
    let mut setup = SetupTimer::new(h, &jobs);
    let mut pass_s = Vec::new();
    let mut first: Option<PaperPass> = None;
    let started = Instant::now();
    while plan.keep_going(started, &pass_s, pass_s.len() * jobs.len()) {
        let t = Instant::now();
        let p = paper_pass(h, &mut off)?;
        pass_s.push(t.elapsed().as_secs_f64());
        check_pass(out, &p, first.as_ref());
        first.get_or_insert(p);
        setup.sample(SetupTimer::PER_PASS);
    }
    let first = first.ok_or("no timed pass ran")?;
    let passes = pass_s.len();
    let best = fastest(&pass_s).unwrap_or(f64::NAN);
    out.e2e.set("pass_s", best, passes);
    // The sweeps' own cycles are not visible from outside, and the
    // matrix's two-thread wall time shifts by ~10% between runs with
    // where the host places the two vCPUs; so the rates divide the
    // matrix's simulated work by the whole pass, mostly single-threaded.
    let (cycles, instrs) = matrix_work(&first.matrix);
    out.e2e
        .set("sim_mcycles_per_s", cycles as f64 / best / 1e6, passes);
    out.e2e
        .set("sim_minstr_per_s", instrs as f64 / best / 1e6, passes);
    out.digest = snake_sim::snapshot::fnv1a64(first.text.as_bytes());
    out.digest_n = FIGURES.len();
    out.layers.set("sim.cycles", cycles as f64, jobs.len());
    out.layers
        .set("sim.instructions", instrs as f64, jobs.len());
    setup.finish(plan, out);

    if plan.trace {
        out.traced_passes(|tr, checks| {
            let p = paper_pass(h, tr)?;
            check_text(checks, &p, &first);
            Ok(StepCounts::default())
        })?;
        let mut standard = Harness::standard();
        standard.size.seed = h.size.seed;
        let m = EvalMatrix::collect(&standard, &matrix_kinds())?;
        out.checks.check(matrix_is_complete(&m), || {
            "the standard-size matrix is missing (app, mechanism) pairs".into()
        });
        out.set_fidelity(Benchmark::all(), |b, k| m.get(b, k).clone());
    }
    Ok(())
}

/// A pass is correct when its matrix is complete and its text matches
/// the first pass byte for byte.
fn check_pass(out: &mut Outcome, p: &PaperPass, first: Option<&PaperPass>) {
    out.checks.check(matrix_is_complete(&p.matrix), || {
        "the timing matrix is missing (app, mechanism) pairs".into()
    });
    check_text(&mut out.checks, p, first.unwrap_or(p));
}

/// The rendered text holds every table and equals the first pass's.
fn check_text(checks: &mut Checks, p: &PaperPass, first: &PaperPass) {
    let titles = p.text.lines().filter(|l| l.starts_with("== ")).count();
    checks.check(p.text == first.text && titles == FIGURES.len(), || {
        "rendered tables differ between passes".into()
    });
}
