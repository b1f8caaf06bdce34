//! # rlscope — cross-stack profiling for deep reinforcement learning
//! workloads
//!
//! A from-scratch Rust reproduction of **"RL-Scope: Cross-stack Profiling
//! for Deep Reinforcement Learning Workloads"** (Gleeson et al., MLSys
//! 2021). This facade crate re-exports the whole workspace:
//!
//! * [`core`] — the profiler itself: annotations, transparent
//!   interception, cross-stack event overlap, calibration, overhead
//!   correction, async trace storage, reports;
//! * [`sim`] — the virtual-time CPU/GPU substrate (clock, streams, CUDA
//!   API layer, CUPTI-style hooks, `nvidia-smi` model, process graph);
//! * [`backend`] — the tensor/autograd engine with Graph, Eager, and
//!   Autograph execution models;
//! * [`envs`] — Pong, the locomotion family, the AirLearning drone, and a
//!   Go engine with MCTS;
//! * [`rl`] — DQN, DDPG, TD3, SAC, A2C, PPO2;
//! * [`workloads`] — the paper's profiled experiments, Minigo scale-up
//!   workload, and calibration validation suite.
//!
//! ## Quickstart
//!
//! ```
//! use rlscope::prelude::*;
//!
//! // Profile 50 steps of DDPG on Walker2D under stable-baselines
//! // (TensorFlow Graph), with full instrumentation.
//! let spec = TrainSpec {
//!     scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
//!     ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", STABLE_BASELINES, 50)
//! };
//! let outcome = spec.run(Some(Toggles::all()));
//! let trace = outcome.trace.unwrap();
//! let breakdown = trace.breakdown();
//! assert!(breakdown.total() > rlscope::sim::time::DurationNs::ZERO);
//! ```

pub use rlscope_backend as backend;
pub use rlscope_collector as collector;
pub use rlscope_core as core;
pub use rlscope_envs as envs;
pub use rlscope_rl as rl;
pub use rlscope_sim as sim;
pub use rlscope_workloads as workloads;

/// The most common imports for profiling an RL workload.
pub mod prelude {
    pub use rlscope_backend::prelude::*;
    pub use rlscope_core::prelude::*;
    pub use rlscope_envs::{Action, ActionSpace, Environment, StepResult};
    pub use rlscope_rl::{Agent, AlgoKind, Transition};
    pub use rlscope_workloads::frameworks::{
        REAGENT, STABLE_BASELINES, TF_AGENTS_AUTOGRAPH, TF_AGENTS_EAGER,
    };
    pub use rlscope_workloads::{ScaleConfig, Stack, TrainSpec};
}
