//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro --list              list experiment ids
//! repro fig16 fig18         run specific experiments
//! repro --all               run everything (paper order)
//! repro --all --markdown    emit EXPERIMENTS.md-ready markdown
//! repro --quick ...         use the fast test harness
//! repro --sweep --manifest sweep.jsonl     supervised, checkpointed sweep
//! repro --resume sweep.jsonl               finish an interrupted sweep
//! ```
//!
//! Sweep exit codes: 0 all jobs completed, 3 at least one job
//! quarantined (healthy rows still rendered), 4 interrupted with jobs
//! pending (resume from the manifest).

use std::io::Write;
use std::path::Path;
use std::time::Duration;

use snake_bench::cli::{self, CliError};
use snake_bench::figures;
use snake_bench::jsonl_log::LogError;
use snake_bench::perfstat::{self, CompareConfig, PerfReport};
use snake_bench::supervise::{self, SweepConfig, SweepError};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::{Brownout, Cycle, FaultPlan, Gpu, Recovery};
use snake_workloads::Benchmark;

/// Window width (cycles) for the `--metrics-csv` time series.
const METRICS_WINDOW: u64 = 500;

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--markdown] [--out FILE] [--metrics-csv FILE] (--list | --all | <experiment>...)\n       repro --sweep [SWEEP FLAGS]   supervised sweep over (benchmark, mechanism) jobs\n       repro --resume FILE           finish an interrupted sweep from its manifest\n       repro --perf [PERF FLAGS]     host-side perf measurement (BENCH_<label>.json)\n       repro --profile [PERF FLAGS]  one profiled pass, per-phase wall-time tables\n  --metrics-csv FILE  run lps under snake with windowed metrics and write the time series\nsweep flags:\n  --manifest FILE     checkpoint each finished job into FILE (must not pre-exist)\n  --benchmarks A,B    job benchmarks (abbr; default: all)\n  --mechanisms X,Y    job mechanisms (default: all)\n  --budget N          per-job cycle budget (jobs stop with budget_exceeded)\n  --retries N         attempts per job before quarantine (default 3)\n  --deadline-ms N     wall-clock budget for the whole sweep\n  --stop-after N      stop claiming jobs after N started (deterministic interrupt; exit 4)\n  --suspend-after N   checkpoint and requeue any job reaching cycle N (exit 4; resume restores)\n  --chaos             inject the canned fault plan (drops/delays/brownouts + recovery)\n  --progress          repaint a live progress line on stderr (done/total, retries, quarantines, elapsed)\nisolation flags (sweep and perf):\n  --isolate           run each job in a sandboxed worker subprocess; crashes\n                      (abort/signal/OOM/timeout) quarantine with a typed kind\n                      instead of killing the sweep\n  --isolate-mem MB    child address-space rlimit in MiB (requires --isolate)\n  --isolate-cpu SECS  child CPU-time rlimit in seconds (requires --isolate)\nperf flags (--benchmarks/--mechanisms/--budget also apply):\n  --label NAME        report label; output defaults to BENCH_<label>.json (default: local)\n  --runs N            repetitions per job (default 5; median +/- IQR)\n  --perf-out FILE     write the report here instead of BENCH_<label>.json\n  --compare FILE      gate against a baseline BENCH_*.json; exit {} on regression\n  --rel-threshold X   relative slowdown bar for the gate (default 0.10)\n  --perf-inject-ns N  burn N host ns per mem-partition tick (gate self-test hook)\nexperiments: {}",
        perfstat::EXIT_PERF_REGRESSION,
        figures::EXPERIMENTS
            .iter()
            .map(|e| e.id)
            .collect::<Vec<_>>()
            .join(" ")
    )
}

fn main() {
    // Hidden worker mode: `repro --exec-job` is how the sandbox
    // executor re-executes this binary as an isolated child. It must
    // be dispatched before any other argument handling so the worker
    // protocol never collides with user-facing flags.
    if std::env::args().nth(1).as_deref() == Some("--exec-job") {
        std::process::exit(supervise::executor::run_worker());
    }
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => cli::fail("repro", &e, &usage()),
    }
}

fn run() -> Result<i32, CliError> {
    let mut quick = false;
    let mut markdown = false;
    let mut all = false;
    let mut list = false;
    let mut out_file: Option<String> = None;
    let mut metrics_csv: Option<String> = None;
    let mut sweep = false;
    let mut manifest: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut budget: Option<u64> = None;
    let mut retries: Option<u32> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut stop_after: Option<usize> = None;
    let mut suspend_after: Option<u64> = None;
    let mut chaos = false;
    let mut progress = false;
    let mut isolate = false;
    let mut isolate_mem: Option<u64> = None;
    let mut isolate_cpu: Option<u64> = None;
    let mut benches: Option<Vec<Benchmark>> = None;
    let mut kinds: Option<Vec<PrefetcherKind>> = None;
    let mut perf = false;
    let mut profile = false;
    let mut label: Option<String> = None;
    let mut runs: Option<u32> = None;
    let mut perf_out: Option<String> = None;
    let mut compare_file: Option<String> = None;
    let mut rel_threshold: Option<f64> = None;
    let mut inject_ns: Option<u64> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--markdown" => markdown = true,
            "--all" => all = true,
            "--list" => list = true,
            "--sweep" => sweep = true,
            "--chaos" => chaos = true,
            "--progress" => progress = true,
            "--isolate" => isolate = true,
            "--isolate-mem" => {
                isolate_mem = Some(parse_num(&mut args, "isolate-mem", "a MiB count")?);
            }
            "--isolate-cpu" => {
                isolate_cpu = Some(parse_num(&mut args, "isolate-cpu", "a second count")?);
            }
            "--perf" => perf = true,
            "--profile" => profile = true,
            "--label" => {
                label = Some(
                    args.next()
                        .ok_or_else(|| CliError::Usage("--label needs a name operand".into()))?,
                );
            }
            "--runs" => runs = Some(parse_num(&mut args, "runs", "a repetition count")?),
            "--perf-out" => {
                perf_out =
                    Some(args.next().ok_or_else(|| {
                        CliError::Usage("--perf-out needs a file operand".into())
                    })?);
            }
            "--compare" => {
                compare_file = Some(args.next().ok_or_else(|| {
                    CliError::Usage("--compare needs a baseline file operand".into())
                })?);
            }
            "--rel-threshold" => {
                rel_threshold = Some(parse_num(&mut args, "rel-threshold", "a fraction")?);
            }
            "--perf-inject-ns" => {
                inject_ns = Some(parse_num(
                    &mut args,
                    "perf-inject-ns",
                    "a nanosecond count",
                )?);
            }
            "--out" => {
                out_file = Some(
                    args.next()
                        .ok_or_else(|| CliError::Usage("--out needs a file operand".into()))?,
                );
            }
            "--metrics-csv" => {
                metrics_csv =
                    Some(args.next().ok_or_else(|| {
                        CliError::Usage("--metrics-csv needs a file operand".into())
                    })?);
            }
            "--manifest" => {
                manifest =
                    Some(args.next().ok_or_else(|| {
                        CliError::Usage("--manifest needs a file operand".into())
                    })?);
            }
            "--resume" => {
                resume = Some(
                    args.next()
                        .ok_or_else(|| CliError::Usage("--resume needs a file operand".into()))?,
                );
            }
            "--budget" => budget = Some(parse_num(&mut args, "budget", "a cycle count")?),
            "--retries" => retries = Some(parse_num(&mut args, "retries", "an attempt count")?),
            "--deadline-ms" => {
                deadline_ms = Some(parse_num(&mut args, "deadline-ms", "a millisecond count")?);
            }
            "--stop-after" => {
                stop_after = Some(parse_num(&mut args, "stop-after", "a job count")?);
            }
            "--suspend-after" => {
                suspend_after = Some(parse_num(&mut args, "suspend-after", "a cycle count")?);
            }
            "--benchmarks" => {
                let raw = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--benchmarks needs a comma list".into()))?;
                benches = Some(parse_list(&raw, "benchmark")?);
            }
            "--mechanisms" => {
                let raw = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--mechanisms needs a comma list".into()))?;
                kinds = Some(parse_list(&raw, "mechanism")?);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(0);
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag: {other}")));
            }
            other => wanted.push(other.to_string()),
        }
    }
    if list {
        for e in figures::EXPERIMENTS {
            println!("{}", e.id);
        }
        return Ok(0);
    }
    if !isolate && (isolate_mem.is_some() || isolate_cpu.is_some()) {
        return Err(CliError::Usage(
            "--isolate-mem/--isolate-cpu configure the sandbox; pass them with --isolate".into(),
        ));
    }
    if isolate && !(sweep || resume.is_some() || perf || profile) {
        return Err(CliError::Usage(
            "--isolate is a sweep/perf flag; pass it with --sweep, --resume, or --perf".into(),
        ));
    }
    let executor = || {
        std::sync::Arc::new(if isolate {
            supervise::JobExecutor::sandbox(supervise::SandboxLimits {
                mem_mb: isolate_mem,
                cpu_secs: isolate_cpu,
                lease: None,
            })
        } else {
            supervise::JobExecutor::in_thread()
        })
    };
    if perf || profile {
        if sweep || resume.is_some() {
            return Err(CliError::Usage(
                "--perf/--profile and --sweep/--resume are separate modes; pass only one".into(),
            ));
        }
        if !wanted.is_empty() || all {
            return Err(CliError::Usage(
                "--perf/--profile runs jobs, not experiment ids; drop the extra operands".into(),
            ));
        }
        let opts = PerfOpts {
            quick,
            profile_only: profile && !perf,
            label: label.unwrap_or_else(|| "local".into()),
            runs: runs.unwrap_or(5).max(1),
            perf_out,
            compare_file,
            rel_threshold,
            inject_ns,
            budget,
            benches,
            kinds,
            executor: executor(),
        };
        return run_perf(opts);
    }
    if sweep || resume.is_some() {
        if manifest.is_some() && resume.is_some() {
            return Err(CliError::Usage(
                "--manifest starts a fresh sweep and --resume continues one; pass only one".into(),
            ));
        }
        if !wanted.is_empty() || all {
            return Err(CliError::Usage(
                "--sweep/--resume runs jobs, not experiment ids; drop the extra operands".into(),
            ));
        }
        let opts = SweepOpts {
            quick,
            markdown,
            out_file,
            manifest,
            resume,
            budget,
            retries,
            deadline_ms,
            stop_after,
            suspend_after,
            chaos,
            progress,
            benches,
            kinds,
            executor: executor(),
        };
        return run_sweep(opts);
    }
    if progress {
        return Err(CliError::Usage(
            "--progress is a sweep flag; pass it with --sweep or --resume".into(),
        ));
    }
    if !all && wanted.is_empty() && metrics_csv.is_none() {
        return Err(CliError::Usage(
            "nothing to do: pass --all, --list, --sweep, --metrics-csv, or experiment ids".into(),
        ));
    }
    let selected = wanted
        .iter()
        .map(|w| {
            figures::EXPERIMENTS
                .iter()
                .find(|e| e.id == w)
                .ok_or_else(|| CliError::BadArg {
                    what: "experiment",
                    why: format!("unknown experiment: {w}"),
                })
        })
        .collect::<Result<Vec<_>, _>>()?;

    let h = if quick {
        Harness::quick()
    } else {
        Harness::standard()
    };
    if let Some(path) = &metrics_csv {
        write_metrics_csv(&h, path)?;
    }
    if !all && wanted.is_empty() {
        return Ok(0);
    }
    let tables = if all {
        figures::all(&h)?
    } else {
        figures::render(&h, &selected)?
    };

    let mut rendered = String::new();
    for t in &tables {
        if markdown {
            rendered.push_str(&t.to_markdown());
            rendered.push('\n');
        } else {
            rendered.push_str(&t.to_string());
            rendered.push('\n');
        }
    }
    match out_file {
        Some(path) => {
            let mut f = std::fs::File::create(&path).map_err(|e| CliError::io(&path, e))?;
            f.write_all(rendered.as_bytes())
                .map_err(|e| CliError::io(&path, e))?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(0)
}

/// Options for the supervised sweep path.
struct SweepOpts {
    quick: bool,
    markdown: bool,
    out_file: Option<String>,
    manifest: Option<String>,
    resume: Option<String>,
    budget: Option<u64>,
    retries: Option<u32>,
    deadline_ms: Option<u64>,
    stop_after: Option<usize>,
    suspend_after: Option<u64>,
    chaos: bool,
    progress: bool,
    benches: Option<Vec<Benchmark>>,
    kinds: Option<Vec<PrefetcherKind>>,
    executor: std::sync::Arc<supervise::JobExecutor>,
}

/// The `--progress` stderr repainter: a thread that rerenders the
/// sweep counter line (`sweep 3/8 done, 1 quarantined, ...`) every
/// 200 ms over itself with a carriage return. Stdout — the rendered
/// tables — is untouched, so piped output stays byte-stable.
struct ProgressReporter {
    counters: std::sync::Arc<supervise::Progress>,
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    painter: std::thread::JoinHandle<()>,
}

impl ProgressReporter {
    fn start() -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let counters = Arc::new(supervise::Progress::default());
        let stop = Arc::new(AtomicBool::new(false));
        let painter = {
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    eprint!("\r{}\x1b[K", counters.snapshot().render(started.elapsed()));
                    let _ = std::io::stderr().flush();
                    std::thread::sleep(Duration::from_millis(200));
                }
                // One final repaint so the finished counts are what
                // remains on screen, then move off the line.
                eprintln!("\r{}\x1b[K", counters.snapshot().render(started.elapsed()));
            })
        };
        ProgressReporter {
            counters,
            stop,
            painter,
        }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.painter.join();
    }
}

/// The canned `--chaos` fault plan: dropped/duplicated/delayed fill
/// responses, periodic interconnect brownouts, and timeout/reissue
/// recovery so most faults heal instead of deadlocking. Deterministic
/// (seeded), so chaos sweeps checkpoint and resume byte-identically.
fn chaos_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xC4A05,
        drop_response: 0.002,
        duplicate_response: 0.005,
        delay_response: 0.05,
        delay_cycles: 200,
        brownout: Some(Brownout {
            period: 2000,
            active: 250,
            scale: 0.5,
        }),
        recovery: Some(Recovery {
            timeout: 500,
            max_retries: 4,
        }),
    }
}

fn run_sweep(opts: SweepOpts) -> Result<i32, CliError> {
    let mut h = if opts.quick {
        Harness::quick()
    } else {
        Harness::standard()
    };
    h.cfg.cycle_budget = opts.budget.map(Cycle);
    if opts.chaos {
        h.cfg.fault = chaos_plan();
    }
    let benches = opts.benches.unwrap_or_else(|| Benchmark::all().to_vec());
    let kinds = opts.kinds.unwrap_or_else(|| PrefetcherKind::all().to_vec());
    let jobs = supervise::campaign(&benches, &kinds);
    let mut cfg = SweepConfig::default();
    if let Some(n) = opts.retries {
        cfg.max_attempts = n.max(1);
    }
    cfg.wall_deadline = opts.deadline_ms.map(Duration::from_millis);
    cfg.stop_after = opts.stop_after;
    cfg.suspend_after = opts.suspend_after;
    cfg.executor = opts.executor;
    // The live progress line is off by default so sweep output stays
    // byte-stable; with --progress the repaints go to stderr only and
    // the same counter block feeds the snaked daemon's tail stream.
    let reporter = opts.progress.then(ProgressReporter::start);
    if let Some(r) = &reporter {
        cfg.progress = Some(std::sync::Arc::clone(&r.counters));
    }
    let (manifest_path, resume) = match (&opts.manifest, &opts.resume) {
        (_, Some(path)) => (Some(Path::new(path)), true),
        (Some(path), None) => (Some(Path::new(path)), false),
        (None, None) => (None, false),
    };
    let result =
        supervise::run_campaign(&h, &jobs, &cfg, manifest_path, resume).map_err(sweep_error_to_cli);
    if let Some(r) = reporter {
        r.finish();
    }
    let result = result?;
    let rendered = result.render(opts.markdown);
    match &opts.out_file {
        Some(path) => {
            let mut f = std::fs::File::create(path).map_err(|e| CliError::io(path, e))?;
            f.write_all(rendered.as_bytes())
                .map_err(|e| CliError::io(path, e))?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    for e in &result.manifest_errors {
        eprintln!("repro: warning: checkpoint failed for {e}");
    }
    let (completed, quarantined, skipped, suspended) = result.counts();
    eprintln!(
        "repro: sweep {completed} completed, {quarantined} quarantined, \
         {skipped} skipped, {suspended} suspended"
    );
    if result.exit_code() == supervise::EXIT_INTERRUPTED {
        if let Some(path) = manifest_path {
            eprintln!(
                "repro: sweep interrupted; finish with: repro --resume {}",
                path.display()
            );
        }
    }
    Ok(result.exit_code())
}

/// Options for the perf-observatory path (`--perf` / `--profile`).
struct PerfOpts {
    quick: bool,
    /// `--profile` without `--perf`: one pass, tables only, no
    /// report file and no gate.
    profile_only: bool,
    label: String,
    runs: u32,
    perf_out: Option<String>,
    compare_file: Option<String>,
    rel_threshold: Option<f64>,
    inject_ns: Option<u64>,
    budget: Option<u64>,
    benches: Option<Vec<Benchmark>>,
    kinds: Option<Vec<PrefetcherKind>>,
    executor: std::sync::Arc<supervise::JobExecutor>,
}

fn run_perf(opts: PerfOpts) -> Result<i32, CliError> {
    let mut h = if opts.quick {
        Harness::quick()
    } else {
        Harness::standard()
    };
    h.cfg.cycle_budget = opts.budget.map(Cycle);
    if let Some(ns) = opts.inject_ns {
        h.cfg.perf_inject_stall_ns = ns;
    }
    let benches = opts.benches.unwrap_or_else(|| Benchmark::all().to_vec());
    // Default to the two mechanisms the paper's story pivots on; a
    // full-registry perf pass is `--mechanisms` away.
    let kinds = opts
        .kinds
        .unwrap_or_else(|| vec![PrefetcherKind::Baseline, PrefetcherKind::Snake]);
    let jobs = supervise::campaign(&benches, &kinds);
    let runs = if opts.profile_only { 1 } else { opts.runs };
    let report = perfstat::collect(&h, &jobs, runs, &opts.label, opts.executor).map_err(|e| {
        CliError::BadArg {
            what: "perf collection",
            why: e.to_string(),
        }
    })?;

    if opts.profile_only {
        for job in &report.jobs {
            print!("{}", perfstat::profile_table(&job.job, &job.samples));
        }
        return Ok(0);
    }

    let out_path = opts
        .perf_out
        .unwrap_or_else(|| format!("BENCH_{}.json", report.label));
    report
        .write_to(Path::new(&out_path))
        .map_err(|e| CliError::io(&out_path, e))?;
    eprintln!(
        "repro: wrote {out_path} ({} job(s) x {} run(s))",
        report.jobs.len(),
        report.runs
    );

    let Some(baseline_path) = opts.compare_file else {
        return Ok(0);
    };
    let baseline = PerfReport::load(Path::new(&baseline_path)).map_err(|why| CliError::BadArg {
        what: "baseline",
        why,
    })?;
    let cfg = CompareConfig {
        rel_threshold: opts.rel_threshold.unwrap_or(0.10),
        ..CompareConfig::default()
    };
    let result = perfstat::compare::compare(&baseline, &report, &cfg);
    print!("{}", result.table());
    if result.passed() {
        eprintln!("repro: perf gate passed against {baseline_path}");
        Ok(0)
    } else {
        eprintln!(
            "repro: perf gate FAILED against {baseline_path}: {} metric(s) regressed",
            result.regressions().count()
        );
        Ok(perfstat::EXIT_PERF_REGRESSION)
    }
}

fn sweep_error_to_cli(e: SweepError) -> CliError {
    match e {
        SweepError::Sim(e) => CliError::from(e),
        SweepError::Manifest(LogError::Io { path, source }) => CliError::Io { path, source },
        other => CliError::BadArg {
            what: "manifest",
            why: other.to_string(),
        },
    }
}

/// Parses the next operand of `flag` as an integer.
fn parse_num<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &'static str,
    what: &str,
) -> Result<T, CliError> {
    let raw = args
        .next()
        .ok_or_else(|| CliError::Usage(format!("--{flag} needs {what}")))?;
    raw.parse().map_err(|_| CliError::BadArg {
        what: flag,
        why: format!("not {what}: {raw:?}"),
    })
}

/// Parses a comma-separated operand list (benchmarks or mechanisms).
fn parse_list<T>(raw: &str, what: &'static str) -> Result<Vec<T>, CliError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let items: Result<Vec<T>, CliError> = raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.trim().parse().map_err(|e: T::Err| CliError::BadArg {
                what,
                why: e.to_string(),
            })
        })
        .collect();
    let items = items?;
    if items.is_empty() {
        return Err(CliError::Usage(format!("--{what}s list is empty")));
    }
    Ok(items)
}

/// Runs LPS under Snake with windowed metrics enabled and writes the
/// resulting time series as CSV — the machine-readable companion to
/// `pfdebug --timeline`.
fn write_metrics_csv(h: &Harness, path: &str) -> Result<(), CliError> {
    let mut cfg = h.cfg.clone();
    cfg.metrics_window = Some(METRICS_WINDOW);
    let kernel = Benchmark::Lps.build(&h.size);
    let warps = cfg.max_warps_per_sm;
    let mut gpu = Gpu::new(cfg, kernel, |_| PrefetcherKind::Snake.build(warps))?;
    let out = gpu.run();
    let series = out
        .series
        .ok_or_else(|| CliError::Internal("metrics window set but no series returned".into()))?;
    let mut f = std::fs::File::create(path).map_err(|e| CliError::io(path, e))?;
    f.write_all(series.to_csv().as_bytes())
        .map_err(|e| CliError::io(path, e))?;
    eprintln!("wrote {} metric windows to {path}", series.samples.len());
    Ok(())
}
