//! Using the profiler API directly on custom code — the paper's Figure 2
//! scenario: a Go-playing training script annotated with nested
//! `mcts_tree_search` / `expand_leaf` operations, then calibrated and
//! corrected.
//!
//! Run with: `cargo run --release --example custom_annotations`

// CLI errors exit with a message; they never unwrap or panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rlscope::core::prelude::*;
use rlscope::prelude::*;
use rlscope::sim::ids::ProcessId;
use rlscope::sim::time::DurationNs;
use rlscope::workloads::Stack;
use rlscope_backend::{Activation, Mlp, Params, RunKind, Tensor};
use rlscope_sim::rng::SimRng;

/// The user's training script: traverse a move tree in Python, expand
/// leaves with neural-network inference (Figure 2 of the paper).
fn train_script(stack: &Stack, rls: &Profiler, timesteps: usize) {
    let mut rng = SimRng::seed_from_u64(1);
    let mut params = Params::new();
    let net = Mlp::new(
        &mut params,
        &mut rng,
        "value",
        &[32, 64, 1],
        Activation::Relu,
        Activation::Linear,
    );

    rls.set_phase("data_collection");
    for _t in 0..timesteps {
        let _op = rls.operation("mcts_tree_search");
        // Pure-Python tree traversal.
        stack.exec.python(DurationNs::from_micros(400));
        for _minibatch in 0..4 {
            let _inner = rls.operation("expand_leaf");
            let x = Tensor::full(8, 32, 0.1);
            let out = stack.exec.run(RunKind::Inference, |tape| {
                let xv = tape.constant(x.clone());
                let y = net.forward(tape, &params, xv);
                tape.value(y).clone()
            });
            stack.exec.fetch(&out);
        }
    }
}

fn main() {
    println!("== Custom annotations: the paper's Figure 2 script ==\n");

    // Calibrate once: five deterministic re-runs under different
    // book-keeping toggles (paper Appendix C).
    let run_once = |toggles: Toggles| {
        let stack = Stack::new(BackendKind::TensorFlow, ExecModel::Graph);
        let rls = stack.profile(ProcessId(0), toggles);
        train_script(&stack, &rls, 50);
        RunStats::from_trace(&rls.finish())
    };
    let cal = calibrate(&mut |t| run_once(t));
    println!(
        "calibrated means: annotation {}, transition {}, CUDA API {}",
        cal.annotation_mean, cal.py_interception_mean, cal.cuda_interception_mean
    );

    // Full profiled run + correction.
    let stack = Stack::new(BackendKind::TensorFlow, ExecModel::Graph);
    let rls = stack.profile(ProcessId(0), Toggles::all());
    train_script(&stack, &rls, 50);
    let trace = rls.finish();
    let profile = match Analysis::of(&trace).corrected(&cal).profile() {
        Ok(profile) => profile,
        Err(e) => {
            eprintln!("correction failed: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "\ninstrumented {} -> corrected {} (profiling inflated the run {:.2}x)\n",
        profile.instrumented_total,
        profile.corrected_total,
        profile.inflation()
    );
    println!("{}", BreakdownReport::from_table(&profile.table).render());
    println!(
        "nesting works as in Figure 3: expand_leaf owns its inference time,\n\
         mcts_tree_search keeps only the pure-Python traversal."
    );
}
