//! Quickstart: profile a DQN agent learning Atari-style Pong.
//!
//! Mirrors the paper's §2.1 walkthrough — the training loop alternates
//! inference, simulation, and backpropagation, and RL-Scope's breakdown
//! shows where the time actually goes.
//!
//! Run with: `cargo run --release --example quickstart`

// CLI errors exit with a message; they never unwrap or panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rlscope::core::analysis::{Analysis, Dim};
use rlscope::core::report::BreakdownReport;
use rlscope::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reproducible workload spec: DQN on Pong under stable-baselines
    // (TensorFlow Graph execution).
    let spec = TrainSpec {
        scale: ScaleConfig { hidden: 16, batch: 8, freq_div: 10, ppo: None },
        ..TrainSpec::new(AlgoKind::Dqn, "Pong", STABLE_BASELINES, 400)
    };

    // Run fully instrumented (annotations, Python<->C interception, CUDA
    // API interception, CUPTI activity collection).
    let outcome = spec.run(Some(Toggles::all()));
    let trace = outcome.trace.ok_or("the profiled run produced no trace")?;

    println!("== RL-Scope quickstart: DQN on Pong ==\n");
    println!(
        "trained {} steps ({} episodes) in {} of virtual time\n",
        400,
        outcome.episodes,
        trace.wall_time()
    );

    // Cross-stack overlap via the unified query API: every instant
    // attributed to (operation, resources, stack level).
    let breakdown = Analysis::of(&trace).table()?;
    println!("{}", BreakdownReport::from_table(&breakdown).render());

    // The same pipeline scoped per operation: one single-operation table
    // per annotation, conserving the overall total exactly.
    for (key, table) in Analysis::of(&trace).group_by([Dim::Operation]).tables()? {
        println!(
            "{:<18} {:>12}  ({:.1}% of total)",
            key.label(),
            table.total().to_string(),
            100.0 * table.total().ratio(breakdown.total())
        );
    }
    println!();

    // The paper's headline observation, visible even in a quickstart: the
    // CPU side of the CUDA API costs more than the GPU kernels it feeds.
    let cuda = breakdown.cpu_category_total(CpuCategory::CudaApi);
    let gpu = breakdown.gpu_total();
    println!(
        "CUDA API CPU time {} vs GPU-busy time {} ({:.1}x) — RL is CPU-bound.",
        cuda,
        gpu,
        cuda.ratio(gpu)
    );
    Ok(())
}
