//! # rlscope-workloads — the profiled workloads of the RL-Scope evaluation
//!
//! Wires the substrate ([`rlscope_sim`]), backend ([`rlscope_backend`]),
//! environments ([`rlscope_envs`]), algorithms ([`rlscope_rl`]) and the
//! profiler ([`rlscope_core`]) into the exact experiments of the paper:
//!
//! * [`frameworks`] — the ⟨execution model, ML backend⟩ matrix of Table 1;
//! * [`runner`] — the annotated inference/simulation/backpropagation
//!   training loop and reproducible [`runner::TrainSpec`]s;
//! * [`experiments`] — Figure 4 (framework comparison), Figure 5
//!   (algorithm survey), Figure 7 (simulator survey), §C.4 (correction
//!   ablation);
//! * [`calibration_suite`] — Figure 11 (correction-accuracy validation);
//! * [`minigo`] — the Figure 8 scale-up workload with 16 self-play
//!   workers and the `nvidia-smi` comparison.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adapter;
pub mod calibration_suite;
pub mod experiments;
pub mod frameworks;
pub mod membench;
pub mod minigo;
pub mod runner;
pub mod stack;

pub use calibration_suite::{fig11a, fig11b, validate_correction, BiasRow};
pub use experiments::{
    calibration_for, profile_spec, profile_spec_with, run_algorithm_survey,
    run_correction_ablation, run_framework_comparison, run_simulator_survey, ExperimentRun,
};
pub use frameworks::{table1, CollectCosts, FrameworkConfig};
pub use membench::{run_membench, MemBenchReport, TrackingAlloc};
pub use minigo::{run_minigo, MinigoConfig, MinigoResult};
pub use runner::{make_agent, make_env, run_annotated_loop, RunOutcome, ScaleConfig, TrainSpec};
pub use stack::Stack;
