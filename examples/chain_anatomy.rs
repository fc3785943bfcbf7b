//! Fig 8-style chain anatomy: train Snake's Tail table on the LPS
//! trace and dump the chains of strides it discovered, then show the
//! trace-analysis view of the same kernel (Figs 9/10).
//!
//! ```text
//! cargo run --release --example chain_anatomy [APP]
//! ```

use snake_repro::core::analysis::{analyze_chains, chain_graph_dot};
use snake_repro::core::snake::{Snake, SnakeConfig};
use snake_repro::prelude::*;
use snake_repro::sim::Gpu;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app: Benchmark = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(Benchmark::Lps);
    let size = WorkloadSize::tiny();
    let cfg = GpuConfig::scaled(1);
    let kernel = app.build(&size);

    // Run the timing simulation, keeping a handle on the SM's Snake.
    let mut gpu = Gpu::new(cfg.clone(), kernel.clone(), |_| {
        Box::new(Snake::new(SnakeConfig {
            head_warps: cfg.max_warps_per_sm,
            ..SnakeConfig::snake()
        }))
    })?;
    gpu.run();

    println!("== Tail-table contents after running {} ==", app.abbr());
    println!(
        "{:>6} {:>6} {:>12} {:>4} {:>8} {:>12} {:>4} {:>12}",
        "PC1", "PC2", "it-stride", "T1", "warps", "intra", "T2", "inter-warp"
    );
    // The Tail table lives inside the prefetcher; re-train a fresh one
    // on the trace analytically for display (same detection logic).
    let mut snake = Snake::new(SnakeConfig {
        head_warps: cfg.max_warps_per_sm,
        ..SnakeConfig::snake()
    });
    let bound = snake_repro::core::analysis::coverage::bound_with(&kernel, &mut snake);
    for e in snake.tail_table().entries() {
        println!(
            "{:>6} {:>6} {:>12} {:>4} {:>8} {:>12} {:>4} {:>12}",
            e.pc1.0,
            e.pc2.0,
            e.inter_thread_stride,
            format!("{:02b}", e.t1.bits()),
            format!("{:x}", e.warp_vec),
            e.intra_stride.map_or("-".into(), |s| s.to_string()),
            format!("{:02b}", e.t2.bits()),
            e.inter_warp_stride.map_or("-".into(), |s| s.to_string()),
        );
    }
    println!(
        "\nchains-of-strides coverage bound: {:.1}%",
        bound.fraction() * 100.0
    );

    if std::env::args().any(|a| a == "--dot") {
        println!("\n== Chain graph (Graphviz DOT, Fig 8 style) ==");
        print!("{}", chain_graph_dot(&kernel));
    }

    let r = analyze_chains(&kernel);
    println!("\n== Trace analysis (Figs 9/10) ==");
    println!(
        "PCs in chains: {:.1}% of {} PCs (representative warp)",
        r.pc_fraction_in_chains * 100.0,
        r.representative_pcs
    );
    println!("max chain repetition: {}x", r.max_repetition);
    println!("stable links kernel-wide: {}", r.stable_links);
    Ok(())
}
