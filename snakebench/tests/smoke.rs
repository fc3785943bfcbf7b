//! Smoke test: the three simulation workloads run end to end at the
//! quick harness with two timed passes, traced, and every output check
//! holds; `paper_all`'s timing matrix collects every pair.

use std::path::PathBuf;

use snake_bench::figures::EvalMatrix;
use snake_bench::Harness;
use snake_workloads::Benchmark;
use snakebench::paper::matrix_kinds;
use snakebench::{Plan, Workload};

fn quick_plan(w: Workload) -> Plan {
    Plan {
        h: Harness::quick(),
        seconds: 0.0,
        min_passes: 2,
        min_job_samples: 0,
        setup_reps: 2,
        profiled_reps: 1,
        trace: true,
        worker: PathBuf::from(env!("CARGO_BIN_EXE_snakebench")),
        scratch: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{}", w.name())),
    }
}

#[test]
fn simulation_workloads_pass_their_checks() {
    for w in [
        Workload::MemoryBound,
        Workload::PrefetchHeavy,
        Workload::IsolatedResume,
    ] {
        let out = w.run(&quick_plan(w));
        let name = w.name();
        assert_eq!(out.checks.failed, 0, "{name}: {:?}", out.checks.failures);
        assert!(out.checks.attempted >= 2 * w.jobs().len() as u64, "{name}");
        for m in out.e2e.iter() {
            assert!(m.value.is_finite() && m.value > 0.0, "{name}: {m:?}");
        }
        let layer = |metric: &str| out.layers.get(metric).unwrap();
        assert!(layer("sim.cycles") > 0.0, "{name}");
        assert!(
            layer("sim.step_ns_idle") + layer("sim.step_ns_active") > 0.0,
            "{name}"
        );
        assert!(layer("bench.trace_overhead") > 0.0, "{name}");
        assert!(!out.tracer.spans().is_empty(), "{name}");
        // Snapshot and sandbox layers run only in isolated_resume.
        let resumes = w == Workload::IsolatedResume;
        assert_eq!(layer("snapshot.bytes") > 0.0, resumes, "{name}");
        assert_eq!(layer("snapshot.capture_ms") > 0.0, resumes, "{name}");
        assert_eq!(
            layer("executor.sandbox_overhead_ms") != 0.0,
            resumes,
            "{name}"
        );
        assert!(
            !std::path::Path::new(&quick_plan(w).scratch).exists(),
            "{name}"
        );
    }
}

#[test]
fn paper_matrix_collects_every_pair_identically_twice() {
    let h = Harness::quick();
    let kinds = matrix_kinds();
    let first = EvalMatrix::collect(&h, &kinds).unwrap();
    let second = EvalMatrix::collect(&h, &kinds).unwrap();
    for k in kinds {
        for &b in Benchmark::all() {
            assert!(first.get(b, k).cycles > 0, "{b}/{k}");
            assert_eq!(first.get(b, k), second.get(b, k), "{b}/{k}");
        }
    }
}
