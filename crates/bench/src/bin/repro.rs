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
use snake_bench::report;
use snake_bench::runner::{ExecContext, JobRun};
use snake_bench::supervise::{self, JobExecutor, JobSpec, SweepConfig, SweepError};
use snake_bench::Harness;
use snake_core::PrefetcherKind;
use snake_sim::{Brownout, Cycle, FaultPlan, Gpu, Recovery, StopReason};
use snake_workloads::Benchmark;

/// Window width (cycles) for the `--metrics-csv` time series.
const METRICS_WINDOW: u64 = 500;

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--markdown] [--out FILE] [--metrics-csv FILE] (--list | --all | <experiment>...)\n       repro --sweep [SWEEP FLAGS]   supervised sweep over (benchmark, mechanism) jobs\n       repro --resume FILE           finish an interrupted sweep from its manifest\n       repro --profile [JOB FLAGS]   one profiled run per job, per-phase wall-time tables\n  --metrics-csv FILE  run lps under snake with windowed metrics and write the time series\nsweep flags:\n  --manifest FILE     checkpoint each finished job into FILE (must not pre-exist)\n  --benchmarks A,B    job benchmarks (abbr; default: all)\n  --mechanisms X,Y    job mechanisms (default: all)\n  --budget N          per-job cycle budget (jobs stop with budget_exceeded)\n  --retries N         attempts per job before quarantine (default 3)\n  --deadline-ms N     wall-clock budget for the whole sweep\n  --stop-after N      stop claiming jobs after N started (deterministic interrupt; exit 4)\n  --suspend-after N   checkpoint and requeue any job reaching cycle N (exit 4; resume restores)\n  --chaos             inject the canned fault plan (drops/delays/brownouts + recovery)\n  --progress          repaint a live progress line on stderr (done/total, retries, quarantines, elapsed)\nisolation flags (sweep and profile):\n  --isolate           run each job in a sandboxed worker subprocess; crashes\n                      (abort/signal/OOM/timeout) quarantine with a typed kind\n                      instead of killing the sweep\n  --isolate-mem MB    child address-space rlimit in MiB (requires --isolate)\n  --isolate-cpu SECS  child CPU-time rlimit in seconds (requires --isolate)\nprofile flags: --benchmarks, --mechanisms (default baseline,snake) and --budget as above\nexperiments: {}",
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
    let mut profile = false;
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
            "--profile" => profile = true,
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
    if isolate && !(sweep || resume.is_some() || profile) {
        return Err(CliError::Usage(
            "--isolate is a sweep/profile flag; pass it with --sweep, --resume, or --profile"
                .into(),
        ));
    }
    let executor = || {
        std::sync::Arc::new(if isolate {
            supervise::JobExecutor::sandbox(supervise::SandboxLimits {
                mem_mb: isolate_mem,
                cpu_secs: isolate_cpu,
            })
        } else {
            supervise::JobExecutor::in_thread()
        })
    };
    if profile {
        if sweep || resume.is_some() {
            return Err(CliError::Usage(
                "--profile and --sweep/--resume are separate modes; pass only one".into(),
            ));
        }
        if !wanted.is_empty() || all {
            return Err(CliError::Usage(
                "--profile runs jobs, not experiment ids; drop the extra operands".into(),
            ));
        }
        let mut h = if quick {
            Harness::quick()
        } else {
            Harness::standard()
        };
        h.cfg.cycle_budget = budget.map(Cycle);
        h.cfg.host_profile = true;
        let benches = benches.unwrap_or_else(|| Benchmark::all().to_vec());
        // Default to the two mechanisms the paper's story pivots on; a
        // full-registry profile is `--mechanisms` away.
        let kinds = kinds.unwrap_or_else(|| vec![PrefetcherKind::Baseline, PrefetcherKind::Snake]);
        let jobs = supervise::campaign(&benches, &kinds);
        return run_profile(&h, &jobs, &executor(), markdown, out_file.as_deref());
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
    write_output(
        &report::render_tables(&tables, markdown),
        out_file.as_deref(),
    )?;
    Ok(0)
}

/// Writes rendered tables to `out_file`, or to stdout without one.
fn write_output(rendered: &str, out_file: Option<&str>) -> Result<(), CliError> {
    match out_file {
        Some(path) => {
            let mut f = std::fs::File::create(path).map_err(|e| CliError::io(path, e))?;
            f.write_all(rendered.as_bytes())
                .map_err(|e| CliError::io(path, e))?;
            eprintln!("wrote {path}");
        }
        None => print!("{rendered}"),
    }
    Ok(())
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
    write_output(&result.render(opts.markdown), opts.out_file.as_deref())?;
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

/// `--profile`: one profiled run per job, one job after another on this
/// thread (parallel jobs would time the scheduler, not the simulator),
/// each rendered as its per-phase table and written like the figures
/// (`--markdown`, `--out`). Each run calls the executor directly: a
/// profile wants one run, not retries. A sandbox executor gives each
/// run a fresh address space.
///
/// Fails at the first job that does not finish (an executor error, a
/// suspension, a cancellation or a deadlock), naming it, after writing
/// the tables of the jobs before it.
fn run_profile(
    h: &Harness,
    jobs: &[JobSpec],
    executor: &JobExecutor,
    markdown: bool,
    out_file: Option<&str>,
) -> Result<i32, CliError> {
    h.validate()?;
    let mut tables = Vec::new();
    let mut failed = None;
    for job in jobs {
        let why = match executor.run(h, job, &ExecContext::default(), &mut |_, _| {}) {
            Ok(JobRun::Finished(out)) => match out.stop {
                StopReason::Deadlock(report) => format!("deadlock: {report}"),
                _ => {
                    let host = out
                        .host
                        .expect("a profiled run that finished has a profile");
                    tables.push(report::profile_table(&job.id(), &host));
                    continue;
                }
            },
            Ok(JobRun::Suspended { cycle, .. }) => format!("suspended at cycle {cycle}"),
            Ok(JobRun::Cancelled) => "cancelled".into(),
            Err(e) => e.to_string(),
        };
        failed = Some(CliError::BadArg {
            what: "profile",
            why: format!("{} did not finish ({why})", job.id()),
        });
        break;
    }
    write_output(&report::render_tables(&tables, markdown), out_file)?;
    failed.map_or(Ok(0), Err)
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
