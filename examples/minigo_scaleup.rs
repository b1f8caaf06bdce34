//! Case study 3 (paper §4.3): the scale-up Minigo workload.
//!
//! Sixteen self-play workers collect Go games in parallel to "keep the GPU
//! busy". `nvidia-smi` dutifully reports near-100% utilization — while
//! RL-Scope's per-process breakdown shows each worker spends almost no
//! time actually executing GPU kernels (finding F.11).
//!
//! Run with: `cargo run --release --example minigo_scaleup`

// CLI errors exit with a message; they never unwrap or panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rlscope::workloads::{run_minigo, MinigoConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = MinigoConfig {
        workers: 8, // scaled from the paper's 16 for a quick example run
        board: 7,
        max_moves: 24,
        sims_per_move: 6,
        ..MinigoConfig::default()
    };
    println!(
        "== Minigo scale-up: {} self-play workers, {}x{} board ==\n",
        cfg.workers, cfg.board, cfg.board
    );

    let result = run_minigo(&cfg);
    println!("{}", result.report.render());

    println!("fork/join dependency edges:");
    for (from, to) in &result.report.dependencies {
        println!("  {from} -> {to}");
    }

    let worst = result
        .worker_walls
        .iter()
        .zip(&result.worker_gpu)
        .map(|(w, g)| (w, g, g.ratio(*w)))
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .ok_or("the run had no workers")?;
    println!(
        "\nbusiest worker: {} wall, {} on the GPU ({:.2}% GPU-bound) — \
         yet nvidia-smi reported {:.0}% utilization.",
        worst.0,
        worst.1,
        100.0 * worst.2,
        result.report.smi_reported_percent
    );
    Ok(())
}
