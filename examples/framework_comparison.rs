//! Case study 1 (paper §4.1): which RL framework should you pick?
//!
//! Profiles the same TD3 + Walker2D workload (identical hyperparameters)
//! under all four ⟨execution model, ML backend⟩ configurations of Table 1
//! and prints the corrected time breakdown plus transition counts — the
//! data behind findings F.1–F.3.
//!
//! Run with: `cargo run --release --example framework_comparison`

// CLI errors exit with a message; they never unwrap or panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rlscope::core::profiler::TransitionKind;
use rlscope::prelude::*;
use rlscope::workloads::run_framework_comparison;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steps = 150;
    let scale = ScaleConfig { hidden: 16, batch: 8, freq_div: 10, ppo: None };
    println!("== Framework comparison: TD3 on Walker2D, {steps} steps ==\n");

    let runs = run_framework_comparison(AlgoKind::Td3, steps, scale);
    let baseline =
        runs.iter().map(|r| r.profile.corrected_total).min().ok_or("no framework was profiled")?;

    for run in &runs {
        let total = run.profile.corrected_total;
        println!(
            "{:<22} corrected total {:>12}  ({:.2}x slowest-vs-best)  GPU {:>4.1}%",
            run.label,
            format!("{total}"),
            total.ratio(baseline),
            100.0 * run.profile.table.gpu_total().ratio(run.profile.table.total()),
        );
        for op in ["backpropagation", "inference"] {
            println!(
                "    {:<16} {:>7.1} backend transitions/iter",
                op,
                run.transitions.per_iteration(op, TransitionKind::Backend)
            );
        }
    }

    println!(
        "\nF.1 expectation: Eager configurations are slowest; Graph and \
         Autograph are close.\nF.3 expectation: TensorFlow Eager makes several \
         times more Python->Backend transitions than PyTorch Eager."
    );
    Ok(())
}
