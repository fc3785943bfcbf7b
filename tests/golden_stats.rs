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

use snake_repro::prelude::*;
use snake_repro::sim::snapshot::fnv1a64;
use snake_repro::sim::SchedulerPolicy;

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
