//! One function per table/figure of the paper's evaluation.
//!
//! Every function returns a [`Table`] whose notes carry the
//! paper-reported numbers, so `repro <figure>` prints paper-vs-measured
//! side by side. `repro --all` writes the full set into
//! `EXPERIMENTS.md` format.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use snake_core::analysis::{analyze_chains, ideal_bound, mechanism_bound};
use snake_core::cost::{head_table_cost, snake_storage_bytes, tail_table_cost, FieldWidths};
use snake_core::metrics::{geometric_mean, mean, MechanismReport};
use snake_core::snake::tail_table::{EvictionPolicy, TailTableConfig};
use snake_core::snake::{Snake, SnakeConfig};
use snake_core::PrefetcherKind;
use snake_sim::{GpuConfig, SimError, STALL_BUCKETS};
use snake_workloads::{tiled, Benchmark};

use crate::report::{Cell, Table};
use crate::runner::Harness;

/// All timing-simulated mechanism/application results, computed once
/// and shared by Figs 16–19 and 25.
#[derive(Debug)]
pub struct EvalMatrix {
    reports: HashMap<(Benchmark, PrefetcherKind), MechanismReport>,
}

impl EvalMatrix {
    /// Runs every `(application, mechanism)` pair, in parallel across
    /// OS threads.
    ///
    /// The harness configuration is validated once up front, so the
    /// per-pair workers cannot hit a configuration error mid-flight.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the harness configuration is invalid.
    ///
    /// # Panics
    ///
    /// Panics after *all* workers have drained if any pair's
    /// evaluation panicked, naming every failed `benchmark/mechanism`
    /// pair — one bad benchmark no longer aborts the whole matrix with
    /// an anonymous `Any` payload.
    pub fn collect(h: &Harness, kinds: &[PrefetcherKind]) -> Result<Self, SimError> {
        h.validate()?;
        Ok(Self::collect_with(kinds, |b, k| {
            // Unreachable after validate(); a failure here panics and
            // is caught and named by the pool.
            h.run(b, k).expect("configuration validated above")
        }))
    }

    fn collect_with(
        kinds: &[PrefetcherKind],
        runner: impl Fn(Benchmark, PrefetcherKind) -> MechanismReport + Sync,
    ) -> Self {
        let pairs = grid(Benchmark::all(), kinds);
        let reports = par_map(
            host_threads(),
            &pairs,
            |(b, k)| format!("{b}/{k}"),
            |&(b, k)| runner(b, k),
        );
        EvalMatrix {
            reports: pairs.into_iter().zip(reports).collect(),
        }
    }

    /// The report for one pair.
    ///
    /// # Panics
    ///
    /// Panics if the pair was not part of the collected set.
    pub fn get(&self, b: Benchmark, k: PrefetcherKind) -> &MechanismReport {
        self.reports
            .get(&(b, k))
            .unwrap_or_else(|| panic!("missing report for {b}/{k}"))
    }
}

/// Best-effort text of a worker's panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// The figures' pool width: every host core (4 when the count is
/// unknown).
fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// Runs `f` on every job on up to `threads` scoped threads and returns
/// the results in job order. This is the one job pool: the figures'
/// simulations and the sweep supervisor's jobs both run through it.
///
/// Each thread claims the next job index from one shared counter, so
/// no thread idles while a job is left, and jobs start in job order.
/// Every job runs under `catch_unwind`.
///
/// # Panics
///
/// Panics after every thread has drained if any job panicked, naming
/// each failed job (by `name`) with its panic message.
pub(crate) fn par_map<J: Sync, R: Send>(
    threads: usize,
    jobs: &[J],
    name: impl Fn(&J) -> String,
    f: impl Fn(&J) -> R + Sync,
) -> Vec<R> {
    let threads = threads.min(jobs.len());
    // The counter only hands out indices: `fetch_add` gives each index
    // to one thread under any ordering, the jobs were shared before the
    // spawn and the results come back through `join`, which
    // synchronizes. So `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let mut slots: Vec<Option<std::thread::Result<R>>> = jobs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            break done;
                        };
                        done.push((i, catch_unwind(AssertUnwindSafe(|| f(job)))));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .expect("a job's panic is caught inside its worker");
            for (i, result) in done {
                slots[i] = Some(result);
            }
        }
    });
    let mut results = Vec::with_capacity(jobs.len());
    let mut failures = Vec::new();
    for (job, slot) in jobs.iter().zip(slots) {
        match slot.expect("every job index is claimed once") {
            Ok(r) => results.push(r),
            Err(payload) => failures.push(format!(
                "{}: {}",
                name(job),
                panic_message(payload.as_ref())
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "eval worker(s) panicked:\n  {}",
        failures.join("\n  ")
    );
    results
}

/// A parameter sweep: validates `h` once, then runs every job through
/// [`par_map`] and returns the results in job order, or the first
/// error in job order.
fn sweep<J: Sync, R: Send>(
    h: &Harness,
    jobs: &[J],
    name: impl Fn(&J) -> String,
    f: impl Fn(&J) -> Result<R, SimError> + Sync,
) -> Result<Vec<R>, SimError> {
    h.validate()?;
    par_map(host_threads(), jobs, name, f).into_iter().collect()
}

/// Every `(a, b)` pair, `a`-major: the job list of a sweep.
fn grid<A: Copy, B: Copy>(outer: &[A], inner: &[B]) -> Vec<(A, B)> {
    outer
        .iter()
        .flat_map(|&a| inner.iter().map(move |&b| (a, b)))
        .collect()
}

/// A per-application table: one row per application (its abbreviation,
/// then `row(app)`, called in [`Benchmark::all`] order) under `columns`,
/// then the `summary` row over applications ([`mean`] or
/// [`geometric_mean`]), then `note`.
fn app_table<R: IntoIterator<Item = Cell>>(
    title: &str,
    columns: impl IntoIterator<Item = impl Into<String>>,
    summary: fn(&[f64]) -> f64,
    mut row: impl FnMut(Benchmark) -> R,
    note: &str,
) -> Table {
    let headers = std::iter::once("app".to_string()).chain(columns.into_iter().map(Into::into));
    let mut t = Table::new(title, headers);
    for &b in Benchmark::all() {
        t.push_row(std::iter::once(b.abbr().into()).chain(row(b)));
    }
    t.push_summary("MEAN", summary);
    t.note(note);
    t
}

/// The mechanisms shown in Figs 16–18 (baseline excluded from the
/// coverage/accuracy plots but needed as the speedup denominator).
pub fn figure_mechanisms() -> Vec<PrefetcherKind> {
    PrefetcherKind::all().to_vec()
}

// ───────────────────────────── tables ─────────────────────────────

/// Table 1 — baseline GPU configuration (paper values + the scaled
/// substitute actually simulated).
pub fn table1_config(h: &Harness) -> Table {
    let paper = GpuConfig::volta_v100();
    let ours = &h.cfg;
    let mut t = Table::new(
        "Table 1 — Baseline GPU configuration (paper V100 vs scaled substrate)",
        ["parameter", "paper (V100)", "simulated"],
    );
    type Parameter = (&'static str, fn(&GpuConfig) -> Cell);
    let rows: [Parameter; 9] = [
        ("SMs", |c| Cell::Count(c.num_sms.into())),
        ("schedulers/SM (GTO)", |c| {
            Cell::Count(c.schedulers_per_sm.into())
        }),
        ("warps/SM", |c| Cell::Count(c.max_warps_per_sm.into())),
        ("unified L1", |c| {
            format!(
                "{} KiB, {}-way, {} B lines",
                c.l1.capacity_bytes / 1024,
                c.l1.ways,
                c.l1.line_bytes
            )
            .into()
        }),
        ("MSHR", |c| {
            format!("{} entries, {} merges", c.mshr_entries, c.mshr_merge).into()
        }),
        ("L2", |c| {
            format!(
                "{} KiB agg., {} banks",
                c.l2.capacity_bytes / 1024,
                c.l2_banks
            )
            .into()
        }),
        ("L1 hit / L2 / +DRAM latency", |c| {
            format!(
                "{} / {} / {} cy",
                c.l1_hit_latency, c.l2_hit_latency, c.dram_latency
            )
            .into()
        }),
        ("NoC bytes/cycle/direction", |c| {
            Cell::Count(c.noc_bytes_per_cycle.into())
        }),
        ("DRAM bytes/cycle", |c| {
            Cell::Count(c.dram_bytes_per_cycle.into())
        }),
    ];
    for (parameter, cell) in rows {
        t.push_row([parameter.into(), cell(&paper), cell(ours)]);
    }
    let l1_kib =
        |c: &GpuConfig| f64::from(c.l1.capacity_bytes / 1024) / f64::from(c.max_warps_per_sm);
    let per_warp = |c: &GpuConfig, bytes: fn(&GpuConfig) -> u32| {
        f64::from(bytes(c)) / f64::from(c.num_sms) / f64::from(c.max_warps_per_sm)
    };
    let vs_v100 = |bytes: fn(&GpuConfig) -> u32| per_warp(ours, bytes) / per_warp(&paper, bytes);
    t.note(format!(
        "L1 per resident warp: {} KiB (V100), {} KiB (simulated). NoC and DRAM bytes/cycle \
         per resident warp: {:.1}× and {:.1}× the V100's. See DESIGN.md § Substrate modeling \
         decisions.",
        l1_kib(&paper),
        l1_kib(ours),
        vs_v100(|c| c.noc_bytes_per_cycle),
        vs_v100(|c| c.dram_bytes_per_cycle),
    ));
    t
}

/// Table 2 — benchmark suites.
pub fn table2_benchmarks() -> Table {
    let mut t = Table::new(
        "Table 2 — Benchmark suites",
        ["abbr", "application", "suite"],
    );
    for &b in Benchmark::all() {
        t.push_row([b.abbr().into(), b.full_name().into(), b.suite().into()]);
    }
    t.note("All eleven applications from the paper's Table 2, rebuilt as synthetic trace generators (see snake-workloads).");
    t
}

/// Table 3 — Snake's table parameters and storage.
pub fn table3_cost() -> Table {
    let w = FieldWidths::default();
    let mut t = Table::new(
        "Table 3 — Snake's tables parameters",
        ["table", "bytes/entry", "entries", "total", "paper"],
    );
    for (name, cost, paper) in [
        ("Head", head_table_cost(&w, 32), "14 B x 32 = 448 B"),
        ("Tail", tail_table_cost(&w, 10), "32 B x 10 = 320 B"),
    ] {
        t.push_row([
            name.into(),
            Cell::Count(cost.bytes_per_entry().into()),
            Cell::Count(cost.entries.into()),
            format!("{} B", cost.total_bytes).into(),
            paper.into(),
        ]);
    }
    t.note("Field widths in snake_core::cost reproduce the paper's byte counts exactly.");
    t
}

// ─────────────────────── motivation figures ───────────────────────

/// Fig 3 — reservation fails as a share of all L1 accesses (baseline).
pub fn fig03_reservation_fails(m: &EvalMatrix) -> Table {
    baseline_metric_table(
        m,
        "Fig 3 — Reservation-fail share of L1 accesses (baseline)",
        "reservation fails",
        |r| r.reservation_fail_rate,
        "paper: ~30% on average, dominated by miss-queue congestion",
    )
}

/// Fig 4 — interconnect bandwidth utilization (baseline).
pub fn fig04_noc_utilization(m: &EvalMatrix) -> Table {
    baseline_metric_table(
        m,
        "Fig 4 — Interconnect bandwidth utilization (baseline)",
        "NoC utilization",
        |r| r.noc_utilization,
        "paper: ~33% of theoretical L1<->L2 bandwidth",
    )
}

/// Fig 5 — memory-stall share of all-stall cycles (baseline).
pub fn fig05_memory_stalls(m: &EvalMatrix) -> Table {
    baseline_metric_table(
        m,
        "Fig 5 — Memory-stall share of stall cycles (baseline)",
        "memory stalls",
        |r| r.memory_stall_fraction,
        "paper: ~55% of run-time stalls are memory stalls",
    )
}

/// Fig 5 companion — the exact issue-slot breakdown behind the
/// two-bucket stall share: where every scheduler cycle went, per app
/// (baseline). Columns sum to 100% by construction (audit-enforced in
/// the simulator).
pub fn fig05_stall_breakdown(m: &EvalMatrix) -> Table {
    app_table(
        "Fig 5 (breakdown) — Issue-slot taxonomy, baseline (% of scheduler cycles)",
        STALL_BUCKETS.map(|b| b.label),
        mean,
        |b| m.get(b, PrefetcherKind::Baseline).stall.map(Cell::Pct),
        "MECE per-cycle accounting: the eight columns partition scheduler cycles exactly",
    )
}

fn baseline_metric_table(
    m: &EvalMatrix,
    title: &str,
    col: &str,
    f: impl Fn(&MechanismReport) -> f64,
    note: &str,
) -> Table {
    app_table(
        title,
        [col],
        mean,
        |b| [Cell::Pct(f(m.get(b, PrefetcherKind::Baseline)))],
        note,
    )
}

// The trace-analysis figures (6, 9, 10, 11) run on the calling thread,
// not through `par_map`. On pool threads they raised the process's
// peak RSS over `paper_all`'s quick passes from about 7.7 MiB to
// 9.4–9.6 MiB (two host threads), beyond that metric's 10% bound.

/// Fig 6 — coverage upper bounds of prior mechanisms vs the Ideal
/// prefetcher (trace analysis under infinite storage / zero latency).
pub fn fig06_coverage_vs_ideal(h: &Harness) -> Table {
    app_table(
        "Fig 6 — Coverage of Intra/Inter/MTA/CTA vs Ideal (trace bounds)",
        ["intra", "inter", "mta", "cta", "ideal"],
        mean,
        |b| {
            let k = b.build(&h.size);
            [
                PrefetcherKind::Intra,
                PrefetcherKind::Inter,
                PrefetcherKind::Mta,
                PrefetcherKind::Cta,
            ]
            .map(|kind| mechanism_bound(&k, kind))
            .into_iter()
            .chain([ideal_bound(&k)])
            .map(|bound| Cell::Pct(bound.fraction()))
        },
        "paper: Ideal is ~25% above MTA and ~70% above CTA-aware",
    )
}

/// Fig 9 — load PCs participating in chains, per representative warp.
pub fn fig09_chain_pcs(h: &Harness) -> Table {
    app_table(
        "Fig 9 — Load PCs in chains / all load PCs (representative warp)",
        ["PCs in chains"],
        mean,
        |b| {
            let r = analyze_chains(&b.build(&h.size));
            [Cell::Pct(r.pc_fraction_in_chains)]
        },
        "paper: chains cover ~65% of the PCs on average",
    )
}

/// Fig 10 — maximum chain repetition within the representative warp.
pub fn fig10_chain_repetition(h: &Harness) -> Table {
    app_table(
        "Fig 10 — Maximum chain repetitions per representative warp",
        ["max repetitions"],
        mean,
        |b| {
            let r = analyze_chains(&b.build(&h.size));
            [Cell::Count(r.max_repetition.into())]
        },
        "paper: chains repeat ~35x per warp on average (scales with workload size)",
    )
}

/// Fig 11 — chain-prefetchable accesses vs MTA (trace bounds).
pub fn fig11_chain_vs_mta(h: &Harness) -> Table {
    app_table(
        "Fig 11 — Accesses prefetchable via chains vs MTA (trace bounds)",
        ["chains", "mta"],
        mean,
        |b| {
            let k = b.build(&h.size);
            [PrefetcherKind::SSnake, PrefetcherKind::Mta]
                .map(|kind| Cell::Pct(mechanism_bound(&k, kind).fraction()))
        },
        "paper: chains reach ~70% on memory-bound apps; chains add opportunities MTA misses",
    )
}

// ─────────────────────── evaluation figures ───────────────────────

/// One column per mechanism but the baseline: `cell(report, baseline)`.
fn mechanism_rows(
    m: &EvalMatrix,
    title: &str,
    summary: fn(&[f64]) -> f64,
    cell: impl Fn(&MechanismReport, &MechanismReport) -> Cell,
    note: &str,
) -> Table {
    let kinds: Vec<PrefetcherKind> = figure_mechanisms()
        .into_iter()
        .filter(|k| *k != PrefetcherKind::Baseline)
        .collect();
    app_table(
        title,
        kinds.iter().map(|k| k.name()),
        summary,
        |b| {
            let base = m.get(b, PrefetcherKind::Baseline);
            kinds
                .iter()
                .map(|&k| cell(m.get(b, k), base))
                .collect::<Vec<_>>()
        },
        note,
    )
}

/// Fig 16 — prefetch coverage of all mechanisms.
pub fn fig16_coverage(m: &EvalMatrix) -> Table {
    mechanism_rows(
        m,
        "Fig 16 — Prefetch coverage (correctly predicted / all demand)",
        mean,
        |r, _| Cell::Pct(r.coverage),
        "paper: Snake ~80%, ~15% above MTA; nw low due to low repetition",
    )
}

/// Fig 17 — prefetch accuracy (timely coverage).
pub fn fig17_accuracy(m: &EvalMatrix) -> Table {
    mechanism_rows(
        m,
        "Fig 17 — Prefetch accuracy (timely correctly predicted / all demand)",
        mean,
        |r, _| Cell::Pct(r.accuracy),
        "paper: Snake ~75% timely; throttling trades ~2% coverage for ~20% accuracy",
    )
}

/// Fig 18 — IPC improvement over the baseline.
pub fn fig18_performance(m: &EvalMatrix) -> Table {
    mechanism_rows(
        m,
        "Fig 18 — Speedup over baseline (IPC ratio)",
        geometric_mean,
        |r, base| Cell::Fixed(r.speedup_over(base), 3),
        "paper: Snake +17% avg (up to +60%); Snake beats Snake-DT by ~13% and Snake-T by ~7%",
    )
}

/// Fig 19 — energy consumption normalized to baseline.
pub fn fig19_energy(m: &EvalMatrix) -> Table {
    mechanism_rows(
        m,
        "Fig 19 — Energy vs baseline (lower is better)",
        geometric_mean,
        |r, base| Cell::Fixed(r.energy_vs(base), 3),
        "paper: Snake uses ~17% less energy on average",
    )
}

/// Fig 25 — L1 hit rate for baseline / Snake / Isolated-Snake.
pub fn fig25_hit_rate(m: &EvalMatrix) -> Table {
    app_table(
        "Fig 25 — L1 data cache hit rate",
        HIT_RATES.iter().map(|k| k.name()),
        mean,
        |b| HIT_RATES.iter().map(move |&k| Cell::Pct(m.get(b, k).l1_hit_rate)),
        "paper: 45% baseline / 79% Snake / 84% Isolated-Snake — Snake within 5% of a dedicated buffer",
    )
}

// ─────────────────────── sensitivity figures ───────────────────────

/// The Tail-table entry counts swept in Figs 20–22.
pub const ENTRY_SWEEP: [usize; 5] = [2, 5, 10, 20, 1024];

fn snake_with_tail(h: &Harness, entries: usize, eviction: EvictionPolicy) -> SnakeConfig {
    SnakeConfig {
        tail: TailTableConfig { entries, eviction },
        head_warps: h.cfg.max_warps_per_sm,
        ..SnakeConfig::snake()
    }
}

/// A per-application table of swept coverage values, app-major with
/// one column per setting.
fn coverage_table(
    title: &str,
    columns: impl IntoIterator<Item = impl Into<String>>,
    coverage: &[f64],
    note: &str,
) -> Table {
    let mut apps = coverage.chunks(coverage.len() / Benchmark::all().len());
    app_table(
        title,
        columns,
        mean,
        |_| {
            apps.next()
                .expect("one chunk per application")
                .iter()
                .map(|&v| Cell::Pct(v))
        },
        note,
    )
}

fn entry_sweep_table(
    h: &Harness,
    title: &str,
    eviction: EvictionPolicy,
    note: &str,
) -> Result<Table, SimError> {
    let jobs = grid(Benchmark::all(), &ENTRY_SWEEP);
    let coverage = sweep(
        h,
        &jobs,
        |(b, entries)| format!("{b}/{entries} tail entries"),
        |&(b, entries)| {
            let cfg = snake_with_tail(h, entries, eviction);
            let r = h.run_custom(&b.build(&h.size), "snake-sweep", |_| {
                Box::new(Snake::new(cfg))
            })?;
            Ok(r.coverage)
        },
    )?;
    let columns = ENTRY_SWEEP.map(|e| {
        if e >= 1024 {
            "unbounded".to_string()
        } else {
            format!("{e} entries")
        }
    });
    Ok(coverage_table(title, columns, &coverage, note))
}

/// Fig 20 — Tail-table entry-count sweep (main eviction policy).
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn fig20_tail_entries(h: &Harness) -> Result<Table, SimError> {
    entry_sweep_table(
        h,
        "Fig 20 — Coverage vs Tail-table entries (LRU+popcount eviction)",
        EvictionPolicy::LruThenPopcount,
        "paper: only ~8% coverage loss at 10 entries vs unbounded",
    )
}

/// Fig 21 — hardware cost vs Tail-table entries.
pub fn fig21_hw_cost() -> Table {
    let w = FieldWidths::default();
    let mut t = Table::new(
        "Fig 21 — Snake storage per SM vs Tail-table entries",
        ["tail entries", "total bytes"],
    );
    for &e in &ENTRY_SWEEP {
        if e >= 1024 {
            continue;
        }
        t.push_row([
            Cell::Count(e as u64),
            Cell::Count(snake_storage_bytes(&w, 32, e as u32).into()),
        ]);
    }
    t.note("Head table fixed at 448 B; Tail table 32 B/entry (Table 3 widths)");
    t
}

/// Fig 22 — eviction-policy ablation (popcount-only).
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn fig22_eviction_policy(h: &Harness) -> Result<Table, SimError> {
    entry_sweep_table(
        h,
        "Fig 22 — Coverage vs Tail-table entries (popcount-only eviction)",
        EvictionPolicy::PopcountOnly,
        "paper: LRU+popcount (Fig 20) achieves higher coverage than popcount-only at equal capacity",
    )
}

/// The throttle pause intervals swept in Fig 23.
pub const THROTTLE_SWEEP: [u64; 6] = [0, 10, 25, 50, 100, 200];

/// Fig 23 — accuracy/coverage trade-off across throttle intervals.
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn fig23_throttling(h: &Harness) -> Result<Table, SimError> {
    let mut t = Table::new(
        "Fig 23 — Throttle-interval sweep (mean over all apps)",
        ["pause (cycles)", "coverage", "accuracy", "precision"],
    );
    let jobs = grid(&THROTTLE_SWEEP, Benchmark::all());
    let reports = sweep(
        h,
        &jobs,
        |(pause, b)| format!("{b}/pause {pause}"),
        |&(pause, b)| {
            let mut cfg = SnakeConfig {
                head_warps: h.cfg.max_warps_per_sm,
                ..SnakeConfig::snake()
            };
            cfg.throttle.pause_cycles = pause;
            cfg.throttle.enabled = pause > 0;
            h.run_custom(&b.build(&h.size), "snake-throttle", |_| {
                Box::new(Snake::new(cfg))
            })
        },
    )?;
    for (&pause, runs) in THROTTLE_SWEEP
        .iter()
        .zip(reports.chunks(Benchmark::all().len()))
    {
        let mean_of = |f: fn(&MechanismReport) -> f64| {
            Cell::Pct(mean(&runs.iter().map(f).collect::<Vec<_>>()))
        };
        t.push_row([
            Cell::Count(pause),
            mean_of(|r| r.coverage),
            mean_of(|r| r.accuracy),
            mean_of(|r| r.precision),
        ]);
    }
    t.note("paper: 50 cycles gives ~75% accuracy at only ~2% coverage loss; longer pauses trade coverage for accuracy");
    Ok(t)
}

/// The tile sizes swept in Fig 24, as a percent of the unified cache.
pub const TILE_SWEEP: [u32; 4] = [25, 50, 75, 100];

/// Fig 24 — tiling with and without Snake (IPC and energy vs the
/// untiled, unprefetched baseline).
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn fig24_tiling(h: &Harness) -> Result<Table, SimError> {
    let mut t = Table::new(
        "Fig 24 — Tiled convolution: IPC and energy vs untiled baseline",
        [
            "tile size",
            "tiled IPC",
            "snake+tiled IPC",
            "tiled energy",
            "snake+tiled energy",
        ],
    );
    let tile_bytes = |frac: u32| {
        let bytes = u64::from(h.cfg.l1_usable_bytes()) * u64::from(frac) / 100;
        (bytes / 128).max(1) * 128
    };
    // Job 0 is the untiled (tile size 0) baseline every ratio divides
    // by; then each tile size under baseline and under Snake.
    let mut jobs = vec![(0, PrefetcherKind::Baseline)];
    jobs.extend(grid(
        &TILE_SWEEP.map(tile_bytes),
        &[PrefetcherKind::Baseline, PrefetcherKind::Snake],
    ));
    let runs = sweep(
        h,
        &jobs,
        |(bytes, k)| format!("{bytes} B tiles/{k}"),
        |&(bytes, k)| h.run_kernel(&tiled::trace(&h.size, bytes), k),
    )?;
    let (base, tiled_runs) = runs.split_first().expect("job 0 is the untiled run");
    for (frac, pair) in TILE_SWEEP.iter().zip(tiled_runs.chunks(2)) {
        let (tiled_r, snake_r) = (&pair[0], &pair[1]);
        t.push_row([
            format!("{frac}%").into(),
            Cell::Fixed(tiled_r.speedup_over(base), 3),
            Cell::Fixed(snake_r.speedup_over(base), 3),
            Cell::Fixed(tiled_r.energy_vs(base), 3),
            Cell::Fixed(snake_r.energy_vs(base), 3),
        ]);
    }
    t.note("paper: best at 75% tile size; Snake+Tiled beats Tiled except at 100% where Snake stays throttled");
    Ok(t)
}

// ─────────────────── extension experiments ───────────────────
//
// Not figures from the paper's evaluation, but direct tests of two of
// its design claims (§5.5 Head-table doubling, GTO sensitivity) and of
// the §1 multi-application extension.

/// Extra A — Head-table layout sensitivity (§5.5's "doubling the warp
/// ID and base address columns" under a greedy scheduler).
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn extra_head_layout(h: &Harness) -> Result<Table, SimError> {
    use snake_core::snake::head_table::HeadLayout;
    let layouts = [
        HeadLayout::PerWarp,
        HeadLayout::PairedDoubled,
        HeadLayout::PairedSingle,
    ];
    let jobs = grid(Benchmark::all(), &layouts);
    let coverage = sweep(
        h,
        &jobs,
        |(b, layout)| format!("{b}/{layout:?}"),
        |&(b, layout)| {
            let cfg = SnakeConfig {
                head_warps: h.cfg.max_warps_per_sm,
                head_layout: layout,
                ..SnakeConfig::snake()
            };
            let r = h.run_custom(&b.build(&h.size), "snake-layout", |_| {
                Box::new(Snake::new(cfg))
            })?;
            Ok(r.coverage)
        },
    )?;
    Ok(coverage_table(
        "Extra A — Snake coverage vs Head-table layout (GTO scheduler)",
        ["per-warp (ideal)", "paired doubled (paper)", "paired single"],
        &coverage,
        "paper claim (§5.5): doubled columns keep the paired layout near the ideal; a single column loses history under GTO",
    ))
}

/// Extra B — scheduler sensitivity: Snake under GTO vs loose
/// round-robin.
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn extra_scheduler(h: &Harness) -> Result<Table, SimError> {
    use snake_sim::SchedulerPolicy;
    let mut t = Table::new(
        "Extra B — Snake speedup under GTO vs loose round-robin",
        ["app", "GTO speedup", "LRR speedup"],
    );
    let harnesses = [
        SchedulerPolicy::GreedyThenOldest,
        SchedulerPolicy::LooseRoundRobin,
    ]
    .map(|policy| {
        let mut harness = h.clone();
        harness.cfg.scheduler = policy;
        harness
    });
    let settings = grid(
        &harnesses.each_ref(),
        &[PrefetcherKind::Baseline, PrefetcherKind::Snake],
    );
    let jobs = grid(Benchmark::all(), &settings);
    let runs = sweep(
        h,
        &jobs,
        |(b, (harness, k))| format!("{b}/{k}/{:?}", harness.cfg.scheduler),
        |&(b, (harness, k))| harness.run(b, k),
    )?;
    for (&b, app_runs) in Benchmark::all().iter().zip(runs.chunks(settings.len())) {
        // Per policy: the baseline run, then the Snake run.
        let speedups = app_runs
            .chunks(2)
            .map(|pair| Cell::Fixed(pair[1].speedup_over(&pair[0]), 3));
        t.push_row(std::iter::once(b.abbr().into()).chain(speedups));
    }
    t.note(
        "the paper's baseline is GTO (Table 1); Snake's tables are scheduler-agnostic by design",
    );
    Ok(t)
}

/// Extra C — the §1 multi-application extension: co-located kernels
/// with per-application chain detection vs an untagged shared table.
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn extra_multi_app(h: &Harness) -> Result<Table, SimError> {
    use snake_workloads::multi::{colocate, PcSpace};
    let mut t = Table::new(
        "Extra C — Multi-application co-location (Snake coverage)",
        [
            "pair",
            "per-app chains (extension)",
            "shared PCs (untagged)",
        ],
    );
    let pairs = [
        (Benchmark::Lps, Benchmark::Mrq),
        (Benchmark::Hotspot, Benchmark::Lib),
        (Benchmark::Cp, Benchmark::Srad),
    ];
    let jobs = grid(&pairs, &[PcSpace::PerApp, PcSpace::Shared]);
    let coverage = sweep(
        h,
        &jobs,
        |((a, b), space)| format!("{a}+{b}/{space:?}"),
        |&((a, b), space)| {
            let kernel = colocate(&a.build(&h.size), &b.build(&h.size), space);
            Ok(h.run_kernel(&kernel, PrefetcherKind::Snake)?.coverage)
        },
    )?;
    for ((a, b), spaces) in pairs.iter().zip(coverage.chunks(2)) {
        t.push_row([
            format!("{}+{}", a.abbr(), b.abbr()).into(),
            Cell::Pct(spaces[0]),
            Cell::Pct(spaces[1]),
        ]);
    }
    t.note("paper §1: chains must be \"detected within each application\"; aliasing two apps' load PCs onto one table degrades the chains");
    Ok(t)
}

/// One experiment `repro` can print.
#[derive(Debug)]
pub struct Experiment {
    /// The id `repro` lists and selects it by.
    pub id: &'static str,
    /// Renders its table from the harness and a timing matrix that
    /// holds at least the mechanisms in `reads`.
    pub render: fn(&Harness, &EvalMatrix) -> Result<Table, SimError>,
    /// The timing-matrix mechanisms it reads; empty when it simulates
    /// on its own or only analyzes traces.
    pub reads: &'static [PrefetcherKind],
}

// What the experiments read from the timing matrix.
const BASELINE: &[PrefetcherKind] = &[PrefetcherKind::Baseline];
const MECHANISMS: &[PrefetcherKind] = PrefetcherKind::all();
const HIT_RATES: &[PrefetcherKind] = &[
    PrefetcherKind::Baseline,
    PrefetcherKind::Snake,
    PrefetcherKind::IsolatedSnake,
];

const fn exp(
    id: &'static str,
    render: fn(&Harness, &EvalMatrix) -> Result<Table, SimError>,
    reads: &'static [PrefetcherKind],
) -> Experiment {
    Experiment { id, render, reads }
}

/// Every table and figure, in paper order: what [`all`] renders and
/// `repro --list` lists. `fig05b` is the Fig 5 stall breakdown.
pub const EXPERIMENTS: &[Experiment] = &[
    exp("table1", |h, _| Ok(table1_config(h)), &[]),
    exp("table2", |_, _| Ok(table2_benchmarks()), &[]),
    exp("table3", |_, _| Ok(table3_cost()), &[]),
    exp("fig03", |_, m| Ok(fig03_reservation_fails(m)), BASELINE),
    exp("fig04", |_, m| Ok(fig04_noc_utilization(m)), BASELINE),
    exp("fig05", |_, m| Ok(fig05_memory_stalls(m)), BASELINE),
    exp("fig05b", |_, m| Ok(fig05_stall_breakdown(m)), BASELINE),
    exp("fig06", |h, _| Ok(fig06_coverage_vs_ideal(h)), &[]),
    exp("fig09", |h, _| Ok(fig09_chain_pcs(h)), &[]),
    exp("fig10", |h, _| Ok(fig10_chain_repetition(h)), &[]),
    exp("fig11", |h, _| Ok(fig11_chain_vs_mta(h)), &[]),
    exp("fig16", |_, m| Ok(fig16_coverage(m)), MECHANISMS),
    exp("fig17", |_, m| Ok(fig17_accuracy(m)), MECHANISMS),
    exp("fig18", |_, m| Ok(fig18_performance(m)), MECHANISMS),
    exp("fig19", |_, m| Ok(fig19_energy(m)), MECHANISMS),
    exp("fig20", |h, _| fig20_tail_entries(h), &[]),
    exp("fig21", |_, _| Ok(fig21_hw_cost()), &[]),
    exp("fig22", |h, _| fig22_eviction_policy(h), &[]),
    exp("fig23", |h, _| fig23_throttling(h), &[]),
    exp("fig24", |h, _| fig24_tiling(h), &[]),
    exp("fig25", |_, m| Ok(fig25_hit_rate(m)), HIT_RATES),
    exp("xhead", |h, _| extra_head_layout(h), &[]),
    exp("xsched", |h, _| extra_scheduler(h), &[]),
    exp("xmulti", |h, _| extra_multi_app(h), &[]),
];

/// Renders `experiments` in order. The timing matrix is collected once,
/// for exactly the mechanisms they read.
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn render(h: &Harness, experiments: &[&Experiment]) -> Result<Vec<Table>, SimError> {
    let mut kinds = figure_mechanisms();
    kinds.push(PrefetcherKind::IsolatedSnake);
    kinds.retain(|k| experiments.iter().any(|e| e.reads.contains(k)));
    let m = EvalMatrix::collect(h, &kinds)?;
    experiments.iter().map(|e| (e.render)(h, &m)).collect()
}

/// Runs every table and figure, in paper order.
///
/// # Errors
///
/// Returns [`SimError`] when the harness configuration is invalid.
pub fn all(h: &Harness) -> Result<Vec<Table>, SimError> {
    render(h, &EXPERIMENTS.iter().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Harness {
        Harness::quick()
    }

    #[test]
    fn matrix_collects_all_pairs() {
        let h = quick();
        let kinds = [PrefetcherKind::Baseline, PrefetcherKind::Snake];
        let m = EvalMatrix::collect(&h, &kinds).unwrap();
        for &b in Benchmark::all() {
            assert!(m.get(b, PrefetcherKind::Baseline).ipc > 0.0);
            assert!(m.get(b, PrefetcherKind::Snake).ipc > 0.0);
        }
    }

    #[test]
    fn analysis_figures_have_a_row_per_app_plus_mean() {
        let h = quick();
        let expected = Benchmark::all().len() + 1;
        assert_eq!(fig09_chain_pcs(&h).rows.len(), expected);
        assert_eq!(fig10_chain_repetition(&h).rows.len(), expected);
        assert_eq!(fig06_coverage_vs_ideal(&h).rows.len(), expected);
        assert_eq!(fig11_chain_vs_mta(&h).rows.len(), expected);
    }

    #[test]
    fn cost_figure_is_static_and_exact() {
        let t = fig21_hw_cost();
        assert_eq!(t.rows.len(), 4);
        // 10 entries: 448 + 320 bytes.
        assert!(t.rows.contains(&vec![Cell::Count(10), Cell::Count(768)]));
    }

    #[test]
    fn table3_matches_paper() {
        let t = table3_cost();
        let total = |row: &[Cell]| row[1].value().zip(row[2].value()).map(|(b, n)| b * n);
        assert_eq!(total(&t.rows[0]), Some(448.0));
        assert_eq!(total(&t.rows[1]), Some(320.0));
        assert_eq!(t.rows[0][3], Cell::from("448 B"));
        assert_eq!(t.rows[1][3], Cell::from("320 B"));
    }

    #[test]
    fn table1_note_states_each_configs_own_per_warp_l1() {
        for h in [Harness::quick(), Harness::standard()] {
            assert_eq!(h.cfg.l1.capacity_bytes / h.cfg.max_warps_per_sm, 1024);
            let t = table1_config(&h);
            let note = &t.notes[0];
            assert!(
                note.contains("L1 per resident warp: 2 KiB (V100), 1 KiB (simulated)."),
                "{note}"
            );
            assert!(note.contains("12.5× and 35.6× the V100's"), "{note}");
            assert!(note.contains("DESIGN.md § Substrate modeling decisions"));
        }
    }

    #[test]
    fn pool_returns_results_in_job_order_when_later_jobs_finish_first() {
        use std::time::{Duration, Instant};
        let jobs: Vec<usize> = (0..16).collect();
        let finished = AtomicUsize::new(0);
        let finish_order = std::sync::Mutex::new(Vec::new());
        let parallel = std::thread::available_parallelism().map_or(1, |n| n.get()) > 1;
        let out = par_map(
            host_threads(),
            &jobs,
            |i| format!("job {i}"),
            |&i| {
                if i == 0 && parallel {
                    // Hold job 0 until the other thread has run every
                    // later job (bounded, so a broken pool fails
                    // rather than hangs).
                    let deadline = Instant::now() + Duration::from_secs(30);
                    while finished.load(Ordering::SeqCst) < jobs.len() - 1
                        && Instant::now() < deadline
                    {
                        std::thread::yield_now();
                    }
                }
                finished.fetch_add(1, Ordering::SeqCst);
                finish_order.lock().expect("no job panics").push(i);
                i * 10
            },
        );
        assert_eq!(out, jobs.iter().map(|i| i * 10).collect::<Vec<_>>());
        if parallel {
            let finish_order = finish_order.into_inner().expect("no job panics");
            assert_eq!(finish_order.last(), Some(&0), "{finish_order:?}");
        }
    }

    #[test]
    fn pool_runs_every_job_exactly_once() {
        let jobs: Vec<usize> = (0..100).collect();
        let runs: Vec<AtomicUsize> = jobs.iter().map(|_| AtomicUsize::new(0)).collect();
        let out = par_map(
            host_threads(),
            &jobs,
            |i| format!("job {i}"),
            |&i| runs[i].fetch_add(1, Ordering::SeqCst),
        );
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
        // Each job saw its counter at zero.
        assert_eq!(out, vec![0; jobs.len()]);
    }

    #[test]
    fn pool_of_no_jobs_returns_nothing() {
        let out: Vec<u8> = par_map(
            4,
            &[] as &[u8],
            |_| String::new(),
            |_| unreachable!("no job"),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn panicking_worker_is_named_and_the_rest_drain() {
        let h = quick();
        let kinds = [PrefetcherKind::Baseline];
        let ran = std::sync::Mutex::new(Vec::new());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            EvalMatrix::collect_with(&kinds, |b, k| {
                if b == Benchmark::Mum {
                    panic!("synthetic failure");
                }
                let r = h.run(b, k).unwrap();
                ran.lock().unwrap().push(b);
                r
            })
        }));
        let payload = outcome.expect_err("the failed pair must surface");
        let msg = panic_message(payload.as_ref());
        assert!(
            msg.contains(&format!("{}/{}", Benchmark::Mum, PrefetcherKind::Baseline)),
            "failure must name the pair: {msg}"
        );
        assert!(msg.contains("synthetic failure"), "{msg}");
        // Every other pair still produced a report before the abort.
        assert_eq!(ran.lock().unwrap().len(), Benchmark::all().len() - 1);

        // The same for a sweep-shaped job list (app x setting): every
        // failed job is named, in job order, and the rest still run.
        let jobs = grid(Benchmark::all(), &ENTRY_SWEEP);
        let failing = [jobs[7], jobs[40]];
        let ran = AtomicUsize::new(0);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            sweep(
                &h,
                &jobs,
                |(b, entries)| format!("{b}/{entries} tail entries"),
                |job| {
                    if failing.contains(job) {
                        panic!("synthetic failure");
                    }
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                },
            )
        }));
        let payload = outcome.expect_err("the failed jobs must surface");
        let msg = panic_message(payload.as_ref());
        let named_at = |(b, e): (Benchmark, usize)| {
            msg.find(&format!("{b}/{e} tail entries: synthetic failure"))
                .unwrap_or_else(|| panic!("failure must name {b}/{e}: {msg}"))
        };
        assert!(
            named_at(failing[0]) < named_at(failing[1]),
            "failures are listed in job order: {msg}"
        );
        assert_eq!(ran.load(Ordering::SeqCst), jobs.len() - failing.len());
    }

    #[test]
    fn invalid_harness_is_rejected_before_dispatch() {
        let mut h = quick();
        h.cfg.mshr_entries = 0;
        assert!(EvalMatrix::collect(&h, &[PrefetcherKind::Baseline]).is_err());
        assert!(fig24_tiling(&h).is_err());
        // A sweep checks the harness before it hands out any job.
        let jobs = grid(Benchmark::all(), &ENTRY_SWEEP);
        let swept = sweep(
            &h,
            &jobs,
            |(b, entries)| format!("{b}/{entries}"),
            |_| -> Result<(), SimError> { panic!("a job was dispatched") },
        );
        assert!(swept.is_err());
    }

    #[test]
    fn baseline_figures_render() {
        let h = quick();
        let kinds = [PrefetcherKind::Baseline];
        let m = EvalMatrix::collect(&h, &kinds).unwrap();
        let t = fig03_reservation_fails(&m);
        let (summary, apps) = t.rows.split_last().expect("app rows and a summary");
        assert_eq!(apps.len(), Benchmark::all().len());
        let rates: Vec<f64> = apps.iter().map(|r| r[1].value().unwrap()).collect();
        assert_eq!(summary[1], Cell::Pct(mean(&rates)), "the MEAN row");
        let _ = fig04_noc_utilization(&m);
        let _ = fig05_memory_stalls(&m);
        // The breakdown's eight columns partition scheduler cycles, so
        // every row of the stacked figure, MEAN included, sums to 1.
        let t = fig05_stall_breakdown(&m);
        assert_eq!(t.rows.len(), Benchmark::all().len() + 1);
        for row in &t.rows {
            let total: f64 = row[1..].iter().map(|c| c.value().unwrap()).sum();
            assert!((total - 1.0).abs() < 1e-9, "row {} sums to {total}", row[0]);
        }
    }
}
