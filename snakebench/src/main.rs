//! `snakebench`: runs one workload, or each in its own process, and
//! prints every metric as a JSON line, ending with the result object.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use snake_bench::supervise::executor::run_worker;
use snakebench::metric::{digest_line, metric_line, result_line, Metric};
use snakebench::{Plan, Workload};

/// The workloads' own default seed.
const DEFAULT_SEED: u64 = 0xC0FFEE;
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: snakebench (--workload NAME | --all) [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\n\
         workloads: {}",
        names.join(" ")
    )
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
    };
    while let Some(flag) = args.next() {
        if flag == "--all" {
            a.all = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                a.seed = parsed.map_err(|_| format!("bad seed {value:?}"))?;
            }
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?;
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    match (a.all, a.workload, &a.trace_out) {
        (true, Some(_), _) => Err("--all and --workload exclude each other".into()),
        (true, None, Some(_)) => Err("--trace-out needs a single --workload".into()),
        (false, None, _) => Err("name a --workload or pass --all".into()),
        _ => Ok(a),
    }
}

fn main() -> ExitCode {
    // Worker mode: the sandbox re-executes this binary as its child.
    if std::env::args().nth(1).as_deref() == Some("--exec-job") {
        std::process::exit(run_worker());
    }
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("snakebench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("snakebench: cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w, exe),
        None => run_all(&args, &exe),
    }
}

/// Re-executes this binary once per workload, one after another.
fn run_all(args: &Args, exe: &PathBuf) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("snakebench: {} ended with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("snakebench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(args: &Args, w: Workload, exe: PathBuf) -> ExitCode {
    let scratch_root = PathBuf::from(".snakebench");
    let scratch = scratch_root.join(std::process::id().to_string());
    let plan = Plan::new(w, args.seed, args.seconds, args.trace, exe, scratch);
    let out = w.run(&plan);
    let _ = std::fs::remove_dir(&scratch_root);

    let name = w.name();
    let mut checks = out.checks.clone();
    for m in out.e2e.iter() {
        checks.check(m.value.is_finite() && m.value > 0.0, || {
            format!("{} was not measured", m.name)
        });
    }
    if let Some(path) = &args.trace_out {
        let written = std::fs::File::create(path)
            .and_then(|f| out.tracer.write_jsonl(std::io::BufWriter::new(f)));
        checks.check(written.is_ok(), || {
            format!("cannot write {}", path.display())
        });
    }
    for m in out.e2e.iter().chain(&out.info) {
        println!("{}", metric_line(name, m));
    }
    let error_rate = Metric {
        name: "error_rate".into(),
        unit: "ratio",
        value: checks.failed as f64 / checks.attempted.max(1) as f64,
        n: checks.attempted as usize,
    };
    println!("{}", metric_line(name, &error_rate));
    println!("{}", digest_line(name, out.digest, out.digest_n));
    if args.trace {
        for m in out.layers.iter() {
            println!("{}", metric_line(name, m));
        }
    }
    for f in &checks.failures {
        eprintln!("snakebench: {name}: check failed: {f}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    println!("{}", result_line(&checks, metrics));
    if checks.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_invocation() {
        let a = args("--workload paper_all --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::PaperAll));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert_eq!(args("--all --seed 0xC0FFEE").unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn rejects_bad_invocations() {
        for bad in [
            "",
            "--workload nope",
            "--workload memory_bound --trace 2",
            "--workload memory_bound --seconds -1",
            "--workload memory_bound --seed",
            "--all --workload memory_bound",
            "--all --trace-out spans.jsonl",
            "--frobnicate 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} parsed");
        }
    }
}
