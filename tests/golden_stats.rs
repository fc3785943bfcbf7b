//! Golden statistics digests: pins every simulated counter of a fixed
//! run matrix so host-side refactors of the cycle loop can prove they
//! leave the simulation bit-identical.
//!
//! Each run contributes one line to `tests/golden/stats_digests.txt`:
//! the run's name, the FNV-1a hash of its `SimStats` `Debug` text, and
//! its stop label. The matrix is every Table 2 app × {baseline, snake,
//! snake-dt, mta} × {GTO, LRR} on `GpuConfig::scaled(2)`, one
//! `volta_v100()` row whose SMs fill all 64 warp slots under four
//! schedulers, and every app under Isolated-Snake (GTO, `scaled(2)`),
//! whose 32-line side buffer is the one fully associative tag array.
//! Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_stats`
//! only when a change is *meant* to alter simulated behaviour.
//!
//! Every row runs twice: suspended after every cycle, which steps each
//! cycle, and through plain `Gpu::run`, which skips device-quiet
//! stretches in bulk. Both must give the pinned digest. The Snake rows
//! of the matrix (every app under GTO and LRR) run a third time,
//! through `Gpu::run` with the host profiler on, which hands itself to
//! the steps it samples: that run must give the pinned digest too.
//!
//! `tests/golden/checkpoint_digest.txt` pins the FNV-1a digest of
//! `Gpu::checkpoint()` documents taken mid-run: every mechanism of
//! `PrefetcherKind::all()` plus Isolated-Snake on LPS, LIB and MUM,
//! once at cycle 1000 with a 128-cycle metrics window and once at
//! cycle 3000 under injected faults with timeout recovery, and LPS
//! under Snake with CTAs queued on every SM. A change to any
//! component's state layout, a row's cells or a key's name shows
//! there even when save and restore agree with each other, and the
//! test requires the matrix to reach every row shape, an isolated
//! buffer and a re-issued MSHR entry, so no layout goes unpinned.
//! Regenerate it the same way, and only for an intended format change
//! (which also bumps `SNAPSHOT_SCHEMA_VERSION`).

use snake_repro::prelude::*;
use snake_repro::sim::json::Value;
use snake_repro::sim::snapshot::fnv1a64;
use snake_repro::sim::{Brownout, FaultPlan, Recovery, SchedulerPolicy};

/// The integration suite's small size: 4 CTAs of 4 warps, 24 iterations.
fn small() -> WorkloadSize {
    WorkloadSize {
        warps_per_cta: 4,
        ctas: 4,
        iters: 24,
        seed: 0xC0FFEE,
    }
}

fn digest_line(name: &str, out: &SimOutcome) -> String {
    let hash = fnv1a64(format!("{:?}", out.stats).as_bytes());
    format!("{name} {hash:016x} {}\n", out.stop.label())
}

fn policy_label(policy: SchedulerPolicy) -> &'static str {
    match policy {
        SchedulerPolicy::GreedyThenOldest => "gto",
        SchedulerPolicy::LooseRoundRobin => "lrr",
    }
}

/// Runs `app` under `kind` and returns the outcome plus the largest
/// number of warps any single SM held at a cycle boundary. Also runs
/// it through `Gpu::run` and checks that both drives agree.
fn run(
    cfg: GpuConfig,
    app: Benchmark,
    size: &WorkloadSize,
    kind: PrefetcherKind,
) -> (SimOutcome, usize) {
    let warps = cfg.max_warps_per_sm;
    let build =
        || Gpu::new(cfg.clone(), app.build(size), |_| kind.build(warps)).expect("valid config");
    let whole = build().run();
    let mut gpu = build();
    let mut peak = 0;
    // Suspending after every cycle steps every cycle (the run loop
    // asks before it could skip one) while letting the occupancy be
    // sampled between steps.
    loop {
        if let Some(out) = gpu.run_interruptible(|_| true) {
            assert_eq!(
                digest_line("stepped", &out),
                digest_line("stepped", &whole),
                "{app}/{kind}: Gpu::run disagrees with stepping every cycle"
            );
            return (out, peak);
        }
        let resident = gpu.sms().iter().map(|sm| sm.active_warps()).max();
        peak = peak.max(resident.unwrap_or(0));
    }
}

fn digests() -> String {
    let mut text = String::new();
    for &app in Benchmark::all() {
        for kind in [
            PrefetcherKind::Baseline,
            PrefetcherKind::Snake,
            PrefetcherKind::SnakeDt,
            PrefetcherKind::Mta,
        ] {
            for policy in [
                SchedulerPolicy::GreedyThenOldest,
                SchedulerPolicy::LooseRoundRobin,
            ] {
                let mut cfg = GpuConfig::scaled(2);
                cfg.scheduler = policy;
                cfg.audit_window = Some(64);
                let (out, _) = run(cfg.clone(), app, &small(), kind);
                if kind == PrefetcherKind::Snake {
                    cfg.host_profile = true;
                    let warps = cfg.max_warps_per_sm;
                    let profiled = Gpu::new(cfg, app.build(&small()), |_| kind.build(warps))
                        .expect("valid config")
                        .run();
                    assert!(profiled.host.is_some(), "{app}/{kind}: no host profile");
                    assert_eq!(
                        digest_line("profiled", &profiled),
                        digest_line("profiled", &out),
                        "{app}/{kind}: a profiled Gpu::run disagrees with stepping every cycle"
                    );
                }
                let name = format!("{app}/{kind}/{}", policy_label(policy));
                text.push_str(&digest_line(&name, &out));
            }
        }
    }

    // The Table 1 SM shape: 64 warp slots and 4 schedulers. Eight
    // 16-warp CTAs per SM keep every slot (down to bit 63 of a warp
    // mask) occupied while the first waves run.
    let mut cfg = GpuConfig::volta_v100();
    cfg.num_sms = 2;
    cfg.audit_window = Some(64);
    let slots = cfg.max_warps_per_sm as usize;
    let size = WorkloadSize {
        warps_per_cta: 16,
        ctas: 16,
        iters: 8,
        seed: 0xC0FFEE,
    };
    let (out, peak) = run(cfg, Benchmark::Lps, &size, PrefetcherKind::Snake);
    assert_eq!(peak, slots, "the volta row must fill every warp slot");
    text.push_str(&digest_line("LPS/snake/gto/volta_v100", &out));

    // Isolated-Snake keeps its prefetches in a 1-set, 32-way side
    // buffer: the one tag-array shape the rows above never build.
    for &app in Benchmark::all() {
        let mut cfg = GpuConfig::scaled(2);
        cfg.audit_window = Some(64);
        let kind = PrefetcherKind::IsolatedSnake;
        let (out, _) = run(cfg, app, &small(), kind);
        text.push_str(&digest_line(&format!("{app}/{kind}/gto"), &out));
    }
    text
}

#[test]
fn stats_digests_match_golden_file() {
    let text = digests();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/stats_digests.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    let changed: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("want {want}\n   got {got}"))
        .collect();
    assert!(
        changed.is_empty() && golden == text,
        "simulated statistics changed ({} of {} rows differ):\n{}",
        changed.len(),
        golden.lines().count(),
        changed.join("\n")
    );
}

/// The values at `path` in a state document, where `*` steps into
/// every element of an array.
fn at<'a>(v: &'a Value, path: &str) -> Vec<&'a Value> {
    let mut found = vec![v];
    for seg in path.split('/') {
        found = found
            .into_iter()
            .flat_map(|v| match seg {
                "*" => v.as_arr().map_or(Vec::new(), |a| a.iter().collect()),
                key => v.get(key).into_iter().collect(),
            })
            .collect();
    }
    found
}

/// Rows of every array at `path`.
fn rows(v: &Value, path: &str) -> usize {
    at(v, path)
        .iter()
        .filter_map(|a| a.as_arr())
        .map(<[_]>::len)
        .sum()
}

/// The row shapes a checkpoint can hold, by state path: the matrix
/// must reach each of them at least once, so a codec edit that changes
/// one of their encodings changes a pinned digest. The DRAM queue is
/// left out: it holds the same `[sm, line]` rows as `incoming`, and
/// DRAM bandwidth keeps it empty at every cut of the matrix.
const SHAPES: [&str; 19] = [
    "metrics/samples",
    "noc/up/in_flight",
    "noc/down/in_flight",
    "partition/incoming",
    "partition/hit_pipe",
    "partition/dram_pipe",
    "partition/dram_merges",
    "partition/outbox",
    "partition/delayed",
    "sms/*/cta_queue",
    "sms/*/l1/miss_queue",
    "sms/*/l1/mshr/entries",
    "sms/*/prefetcher/table",
    "sms/*/prefetcher/intra/table",
    "sms/*/prefetcher/inter/table",
    "sms/*/prefetcher/second/table",
    "sms/*/prefetcher/chunks",
    "sms/*/prefetcher/tail/entries",
    "sms/*/prefetcher/first/tail/entries",
];

/// Suspends `app` under `kind` at cycle `at` and returns its digest
/// line plus the checkpoint's state document.
fn checkpoint_row(
    name: &str,
    cfg: GpuConfig,
    app: Benchmark,
    size: &WorkloadSize,
    kind: PrefetcherKind,
    at: u64,
) -> (String, Value) {
    let warps = cfg.max_warps_per_sm;
    let mut gpu = Gpu::new(cfg, app.build(size), |_| kind.build(warps)).expect("valid config");
    assert!(
        gpu.run_interruptible(|c| c.0 >= at).is_none(),
        "{name}: runs past cycle {at}"
    );
    let doc = gpu.checkpoint().to_json();
    let line = format!("{name} {:016x}\n", fnv1a64(doc.to_string().as_bytes()));
    let state = doc.get("state").expect("checkpoint state").clone();
    (line, state)
}

/// Every mechanism of `PrefetcherKind::all()` plus Isolated-Snake on
/// LPS, LIB and MUM, each suspended once at cycle 1000 with a
/// 128-cycle metrics window and once at cycle 3000 under a fault plan
/// (drops, duplicates, delays, brownouts and timeout recovery), plus
/// LPS/Snake at 16 CTAs, so each SM holds queued CTAs. Asserts that
/// the matrix reaches every row shape of [`SHAPES`], an isolated side
/// buffer and an MSHR entry that timeout recovery re-issued.
fn checkpoint_digest() -> String {
    let mut windowed = GpuConfig::scaled(2);
    windowed.metrics_window = Some(128);
    let mut faulty = GpuConfig::scaled(2);
    faulty.fault = FaultPlan {
        seed: 7,
        drop_response: 0.02,
        duplicate_response: 0.05,
        delay_response: 0.10,
        delay_cycles: 40,
        brownout: Some(Brownout {
            period: 500,
            active: 100,
            scale: 0.5,
        }),
        recovery: Some(Recovery {
            timeout: 2_000,
            max_retries: 3,
        }),
    };
    let kinds = PrefetcherKind::all()
        .iter()
        .copied()
        .chain([PrefetcherKind::IsolatedSnake]);
    let mut text = String::new();
    let mut states = Vec::new();
    for app in [Benchmark::Lps, Benchmark::Lib, Benchmark::Mum] {
        for kind in kinds.clone() {
            for (cfg, label, at) in [(&windowed, "window128", 1000), (&faulty, "faults", 3000)] {
                let name = format!("{app}/{kind}/{label}@{at}");
                let (line, state) = checkpoint_row(&name, cfg.clone(), app, &small(), kind, at);
                if name == "LIB/snake/window128@1000" {
                    assert_eq!(rows(&state, "metrics/samples"), 7, "{name}: seven samples");
                }
                text.push_str(&line);
                states.push(state);
            }
        }
    }
    let queued = WorkloadSize {
        ctas: 16,
        ..small()
    };
    let (line, state) = checkpoint_row(
        "LPS/snake/ctas16@1000",
        windowed,
        Benchmark::Lps,
        &queued,
        PrefetcherKind::Snake,
        1000,
    );
    text.push_str(&line);
    assert_eq!(rows(&state, "sms/*/cta_queue"), 8, "4 queued CTAs per SM");
    states.push(state);

    let empty: Vec<&str> = SHAPES
        .into_iter()
        .filter(|shape| states.iter().all(|s| rows(s, shape) == 0))
        .collect();
    assert!(empty.is_empty(), "no checkpoint holds a row of {empty:?}");
    let isolated = states
        .iter()
        .flat_map(|s| at(s, "sms/*/l1/isolated"))
        .filter(|iso| rows(iso, "lines") > 0)
        .count();
    assert!(isolated > 0, "no checkpoint holds an isolated buffer");
    let retried = states
        .iter()
        .flat_map(|s| at(s, "sms/*/l1/mshr/entries/*/retries"))
        .filter(|r| r.as_u64().is_some_and(|r| r > 0))
        .count();
    assert!(retried > 0, "no checkpoint holds a re-issued MSHR entry");
    text
}

#[test]
fn checkpoint_digest_matches_golden_file() {
    let text = checkpoint_digest();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/checkpoint_digest.txt"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden");
    }
    let golden = std::fs::read_to_string(path)
        .expect("golden file exists (regenerate with UPDATE_GOLDEN=1)");
    let changed: Vec<String> = golden
        .lines()
        .zip(text.lines())
        .filter(|(want, got)| want != got)
        .map(|(want, got)| format!("want {want}\n   got {got}"))
        .collect();
    assert!(
        changed.is_empty() && golden == text,
        "checkpoint bytes changed ({} of {} rows differ):\n{}",
        changed.len(),
        golden.lines().count(),
        changed.join("\n")
    );
}
