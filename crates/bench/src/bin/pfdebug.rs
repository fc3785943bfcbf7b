//! Prefetch-funnel diagnostics for one benchmark/mechanism pair.
//!
//! Besides the funnel counters, the binary exposes the observability
//! layer: `--trace-out` streams a Chrome trace-event JSON loadable in
//! Perfetto, `--timeline` renders the windowed time series as an ASCII
//! chart, and `--profile` prints the run's per-phase host wall-time
//! table.

use std::io::{BufWriter, Write};
use std::path::Path;

use snake_bench::cli::{self, CliError};
use snake_bench::{report, Harness};
use snake_core::PrefetcherKind;
use snake_sim::json;
use snake_sim::obs::{chrome_trace_to, SharedVecSink};
use snake_sim::snapshot::{self, Checkpoint, SnapshotError};
use snake_sim::Gpu;
use snake_workloads::Benchmark;

/// Window width (cycles) used when `--timeline` is given without an
/// explicit `--window`.
const DEFAULT_WINDOW: u64 = 1000;

fn usage() -> String {
    let benches: Vec<&str> = Benchmark::all().iter().map(|b| b.abbr()).collect();
    format!(
        "usage: pfdebug [FLAGS] [BENCH] [MECHANISM]\n  \
         BENCH: {} (default lps)\n  \
         MECHANISM: a PrefetcherKind name, e.g. baseline, snake (default snake)\n  \
         --trace-out FILE       write a Chrome trace-event JSON (open in Perfetto)\n  \
         --timeline             print an ASCII timeline of the windowed metrics\n  \
         --window N             sample windowed metrics every N cycles (default {} with --timeline)\n  \
         --budget N             stop the run after N cycles (StopReason::BudgetExceeded)\n  \
         --profile              print the run's per-phase host wall-time table\n  \
         --checkpoint-at N      checkpoint the full simulator state at cycle N, then finish\n                         (N >= 1, and after the cycle --restore resumes from)\n  \
         --checkpoint-out FILE  where --checkpoint-at writes (default BENCH-MECHANISM-cN.ckpt)\n  \
         --restore FILE         restore a checkpoint and run it to completion\n                         (schema/config mismatch exits {})\n  \
         --outcome-out FILE     write the final SimOutcome (Debug form) for byte comparison\n  \
         --diverge A B          bisect two checkpoints of the same run: restore the earlier,\n                         replay a golden device from cycle 0, report the first divergent\n                         cycle and state path (exit 1 on divergence)",
        benches.join(" "),
        DEFAULT_WINDOW,
        cli::EXIT_CHECKPOINT_MISMATCH
    )
}

fn main() {
    if let Err(e) = run() {
        cli::fail("pfdebug", &e, &usage());
    }
}

fn run() -> Result<(), CliError> {
    let mut trace_out: Option<String> = None;
    let mut timeline = false;
    let mut window: Option<u64> = None;
    let mut budget: Option<u64> = None;
    let mut profile = false;
    let mut checkpoint_at: Option<u64> = None;
    let mut checkpoint_out: Option<String> = None;
    let mut restore: Option<String> = None;
    let mut outcome_out: Option<String> = None;
    let mut diverge: Option<(String, String)> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace-out" => {
                trace_out =
                    Some(args.next().ok_or_else(|| {
                        CliError::Usage("--trace-out needs a file operand".into())
                    })?);
            }
            "--timeline" => timeline = true,
            "--window" => {
                let raw = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--window needs a cycle count".into()))?;
                let n: u64 = raw.parse().map_err(|_| CliError::BadArg {
                    what: "window",
                    why: format!("not a cycle count: {raw:?}"),
                })?;
                if n == 0 {
                    return Err(CliError::BadArg {
                        what: "window",
                        why: "window must be at least one cycle".into(),
                    });
                }
                window = Some(n);
            }
            "--budget" => {
                let raw = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--budget needs a cycle count".into()))?;
                let n: u64 = raw.parse().map_err(|_| CliError::BadArg {
                    what: "budget",
                    why: format!("not a cycle count: {raw:?}"),
                })?;
                if n == 0 {
                    return Err(CliError::BadArg {
                        what: "budget",
                        why: "budget must be at least one cycle".into(),
                    });
                }
                budget = Some(n);
            }
            "--profile" => profile = true,
            "--checkpoint-at" => {
                let raw = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--checkpoint-at needs a cycle count".into()))?;
                let n: u64 = raw.parse().map_err(|_| CliError::BadArg {
                    what: "checkpoint-at",
                    why: format!("not a cycle count: {raw:?}"),
                })?;
                // The run is suspended after a step, so cycle 0 is
                // never a cycle boundary it stops at.
                if n == 0 {
                    return Err(CliError::BadArg {
                        what: "checkpoint-at",
                        why: "the checkpoint cycle must be at least 1".into(),
                    });
                }
                checkpoint_at = Some(n);
            }
            "--checkpoint-out" => {
                checkpoint_out = Some(args.next().ok_or_else(|| {
                    CliError::Usage("--checkpoint-out needs a file operand".into())
                })?);
            }
            "--restore" => {
                restore = Some(args.next().ok_or_else(|| {
                    CliError::Usage("--restore needs a checkpoint operand".into())
                })?);
            }
            "--outcome-out" => {
                outcome_out =
                    Some(args.next().ok_or_else(|| {
                        CliError::Usage("--outcome-out needs a file operand".into())
                    })?);
            }
            "--diverge" => {
                let a = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--diverge needs two checkpoints".into()))?;
                let b = args
                    .next()
                    .ok_or_else(|| CliError::Usage("--diverge needs two checkpoints".into()))?;
                diverge = Some((a, b));
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(());
            }
            other if other.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag: {other}")));
            }
            other => positional.push(other.to_string()),
        }
    }
    if checkpoint_out.is_some() && checkpoint_at.is_none() {
        return Err(CliError::Usage(
            "--checkpoint-out names where --checkpoint-at writes; pass it with --checkpoint-at"
                .into(),
        ));
    }
    if positional.len() > 2 {
        return Err(CliError::Usage(format!(
            "expected at most 2 positional arguments, got {}",
            positional.len()
        )));
    }
    let bench: Benchmark = match positional.first() {
        Some(s) => {
            s.parse().map_err(
                |e: <Benchmark as std::str::FromStr>::Err| CliError::BadArg {
                    what: "benchmark",
                    why: e.to_string(),
                },
            )?
        }
        None => Benchmark::Lps,
    };
    let kind: PrefetcherKind = match positional.get(1) {
        Some(s) => {
            s.parse().map_err(
                |e: <PrefetcherKind as std::str::FromStr>::Err| CliError::BadArg {
                    what: "mechanism",
                    why: e.to_string(),
                },
            )?
        }
        None => PrefetcherKind::Snake,
    };

    let mut h = Harness::standard();
    if timeline && window.is_none() {
        window = Some(DEFAULT_WINDOW);
    }
    h.cfg.metrics_window = window;
    h.cfg.cycle_budget = budget.map(snake_sim::Cycle);
    h.cfg.host_profile = profile;
    if let Some((a, b)) = diverge {
        return diverge_report(&a, &b, bench, kind, &h);
    }
    let kernel = bench.build(&h.size);
    let warps = h.cfg.max_warps_per_sm;
    let mut gpu = Gpu::new(h.cfg.clone(), kernel, |_| kind.build(warps))?;
    let sink = trace_out.as_ref().map(|_| {
        let s = SharedVecSink::new();
        gpu.attach_sink(Box::new(s.clone()));
        s
    });
    if let Some(path) = &restore {
        let ckpt = Checkpoint::load(Path::new(path))?;
        gpu.restore(&ckpt)?;
        eprintln!("restored {path} at cycle {}", gpu.cycle().0);
        if let Some(n) = checkpoint_at.filter(|&n| n <= gpu.cycle().0) {
            return Err(CliError::BadArg {
                what: "checkpoint-at",
                why: format!(
                    "cycle {n} is not after the restored cycle {}",
                    gpu.cycle().0
                ),
            });
        }
    }
    let out = match checkpoint_at {
        Some(n) => match gpu.run_interruptible(|c| c.0 >= n) {
            // Suspended at the requested cycle: capture, then finish
            // the run normally from the captured state.
            None => {
                let path = checkpoint_out.unwrap_or_else(|| {
                    format!("{}-{}-c{}.ckpt", bench.abbr(), kind.name(), gpu.cycle().0)
                });
                gpu.checkpoint().write_atomic(Path::new(&path))?;
                eprintln!("wrote checkpoint at cycle {} to {path}", gpu.cycle().0);
                gpu.run()
            }
            Some(out) => {
                eprintln!("run finished before cycle {n}; no checkpoint written");
                out
            }
        },
        None => gpu.run(),
    };
    let s = &out.stats;
    let p = &s.prefetch;
    println!("bench={bench} kind={} stop={:?}", kind.name(), out.stop);
    println!(
        "cycles={} instr={} ipc={:.3}",
        s.cycles,
        s.instructions,
        s.ipc()
    );
    println!(
        "demand={} hits={} hits_pf={} reserved={} merge_pf={} miss={} rfail={}",
        s.demand_loads,
        s.l1.hits,
        s.l1.hits_on_prefetch,
        s.l1.hits_reserved,
        s.l1.merges_with_prefetch,
        s.l1.misses,
        s.l1.reservation_fails()
    );
    println!(
        "pf requested={} issued={} redundant={} rejected={} fills={} useful={} late={} evicted_unused={} throttled_cy={}",
        p.requested, p.issued, p.redundant, p.rejected, p.fills, p.useful, p.late,
        p.evicted_unused, p.throttled_cycles
    );
    println!(
        "coverage={:.3} timely={:.3} precision={:.3} l1_hit={:.3} noc_util={:.3}",
        s.coverage(),
        s.timely_coverage(),
        s.prefetch.precision(),
        s.l1.hit_rate(),
        s.noc_utilization(u64::from(h.cfg.noc_bytes_per_cycle))
    );
    println!(
        "lifecycle issue->fill {} | fill->first-use {} | unused lifetime {}",
        out.lifecycle.issue_to_fill, out.lifecycle.fill_to_first_use, out.lifecycle.lifetime_unused
    );
    if let Some(path) = &outcome_out {
        std::fs::write(path, format!("{out:?}\n")).map_err(|e| CliError::io(path, e))?;
        eprintln!("wrote outcome to {path}");
    }
    if let Some(path) = trace_out {
        let events = sink.expect("sink attached with trace_out").snapshot();
        // Stream the document: peak memory is one event's formatting
        // buffer, not the whole multi-megabyte JSON string.
        let f = std::fs::File::create(&path).map_err(|e| CliError::io(&path, e))?;
        let mut w = BufWriter::new(f);
        chrome_trace_to(&events, &mut w).map_err(|e| CliError::io(&path, e))?;
        w.flush().map_err(|e| CliError::io(&path, e))?;
        eprintln!("wrote {} events to {path}", events.len());
    }
    if profile {
        match &out.host {
            Some(host) => print!(
                "{}",
                report::profile_table(&format!("{}/{}", bench.abbr(), kind.name()), host)
            ),
            None => eprintln!("no host profile collected"),
        }
    }
    if timeline {
        match &out.series {
            Some(series) => print!("{}", series.ascii_timeline()),
            None => eprintln!("no metrics series collected"),
        }
    }
    Ok(())
}

/// `--diverge A B`: the checkpoint divergence bisector.
///
/// Both checkpoints must come from runs of the BENCH/MECHANISM pair
/// and the configuration flags (`--window`, `--budget`) given on the
/// command line (enforced by the config fingerprint; a mismatch exits
/// with the checkpoint-mismatch code). The earlier
/// checkpoint is restored onto a fresh device while a *golden* device
/// replays the same run from cycle zero; from the earlier cycle on,
/// the two advance in lockstep with their full state compared every
/// cycle. The first cycle where the restored trajectory leaves the
/// golden one is reported together with the state path that differs
/// (`sms/3/l1/...`), which is the bit that failed to round-trip. At
/// the later checkpoint's cycle the golden state is also compared
/// against that checkpoint itself, catching capture-side bugs.
///
/// Exits 0 when both checkpoints sit on the golden trajectory, 1 on
/// any divergence.
fn diverge_report(
    a_path: &str,
    b_path: &str,
    bench: Benchmark,
    kind: PrefetcherKind,
    h: &Harness,
) -> Result<(), CliError> {
    let kernel = bench.build(&h.size);
    let warps = h.cfg.max_warps_per_sm;
    let mut a = Checkpoint::load(Path::new(a_path))?;
    let mut b = Checkpoint::load(Path::new(b_path))?;
    let mut ca = json::u64_field(&a.state, "cycle").map_err(SnapshotError::from)?;
    let mut cb = json::u64_field(&b.state, "cycle").map_err(SnapshotError::from)?;
    let (mut a_name, mut b_name) = (a_path, b_path);
    if cb < ca {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut ca, &mut cb);
        std::mem::swap(&mut a_name, &mut b_name);
    }

    let mut restored = Gpu::new(h.cfg.clone(), kernel.clone(), |_| kind.build(warps))?;
    restored.restore(&a)?;
    b.verify_fingerprint(restored.fingerprint())?;

    let mut golden = Gpu::new(h.cfg.clone(), kernel.clone(), |_| kind.build(warps))?;
    if golden.run_interruptible(|c| c.0 >= ca).is_some() {
        return Err(CliError::BadArg {
            what: "checkpoint",
            why: format!(
                "{a_name}: golden replay of {bench}/{} finished at cycle {} \
                 before the checkpoint cycle {ca}",
                kind.name(),
                golden.cycle().0
            ),
        });
    }

    loop {
        let at = golden.cycle().0;
        if let Some(path) =
            snapshot::first_divergence(&restored.checkpoint().state, &golden.checkpoint().state)
        {
            println!(
                "diverged at cycle {at}: {path}\n  \
                 restored-from-{a_name} trajectory vs golden replay from cycle 0"
            );
            std::process::exit(1);
        }
        if at >= cb {
            break;
        }
        let g = golden.run_interruptible(|_| true);
        let r = restored.run_interruptible(|_| true);
        if g.is_some() || r.is_some() {
            if g.is_some() != r.is_some() {
                println!(
                    "diverged at cycle {}: one trajectory finished, the other kept running",
                    golden.cycle().0
                );
                std::process::exit(1);
            }
            break;
        }
    }
    if let Some(path) = snapshot::first_divergence(&b.state, &golden.checkpoint().state) {
        println!("diverged: {b_name} (cycle {cb}) disagrees with the golden replay at {path}");
        std::process::exit(1);
    }
    println!(
        "no divergence: {a_name} (cycle {ca}) and {b_name} (cycle {cb}) \
         both sit on the golden trajectory"
    );
    Ok(())
}
