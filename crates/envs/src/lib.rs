//! # rlscope-envs — RL environments on the virtual timeline
//!
//! Stand-ins for the simulators the RL-Scope paper surveys (Appendix B.1,
//! Figure 6), organized by computational complexity:
//!
//! * **Low** — [`pong::Pong`] (Atari-style computer game) and the
//!   [`go::GoGame`] engine with [`mcts`] search (board game, Minigo).
//! * **Medium** — the [`locomotion`] family: Walker2D, Hopper, HalfCheetah,
//!   Ant (MuJoCo-style robotics physics).
//! * **High** — [`airlearning::AirLearning`] (photo-realistic drone
//!   simulation that renders on the GPU).
//!
//! Each environment advances the shared [`rlscope_sim::VirtualClock`] by
//! its modelled CPU step cost, and the dynamics are real: actions change
//! trajectories, rewards respond to behaviour, episodes terminate.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod airlearning;
pub mod env;
pub mod go;
pub mod locomotion;
pub mod mcts;
pub mod pong;

pub use airlearning::AirLearning;
pub use env::{Action, ActionSpace, Environment, SimComplexity, StepResult};
pub use go::{Color, GoGame, GoMove, IllegalMove};
pub use locomotion::{Locomotion, LocomotionTask};
pub use mcts::{Evaluator, Mcts, UniformEvaluator};
pub use pong::Pong;

use rlscope_sim::time::DurationNs;
use rlscope_sim::VirtualClock;

/// The environments used in the simulator survey (Figure 7), by name.
///
/// Returns `None` for unknown names. `"AirLearning"` is created without a
/// GPU rendering context; attach one via [`AirLearning::new`] directly when
/// GPU rendering should be modelled.
pub fn by_name(name: &str, clock: VirtualClock, seed: u64) -> Option<Box<dyn Environment>> {
    match name {
        "Pong" => Some(Box::new(Pong::new(clock, seed))),
        "Walker2D" => Some(Box::new(Locomotion::new(LocomotionTask::Walker2d, clock, seed))),
        "Hopper" => Some(Box::new(Locomotion::new(LocomotionTask::Hopper, clock, seed))),
        "HalfCheetah" => Some(Box::new(Locomotion::new(LocomotionTask::HalfCheetah, clock, seed))),
        "Ant" => Some(Box::new(Locomotion::new(LocomotionTask::Ant, clock, seed))),
        "AirLearning" => Some(Box::new(AirLearning::new(clock, None, seed))),
        _ => None,
    }
}

/// Default per-step simulator CPU cost for a named environment, used by the
/// survey workloads.
pub fn default_step_cost(name: &str) -> Option<DurationNs> {
    match name {
        "Pong" => Some(Pong::DEFAULT_STEP_COST),
        "Walker2D" => Some(LocomotionTask::Walker2d.default_step_cost()),
        "Hopper" => Some(LocomotionTask::Hopper.default_step_cost()),
        "HalfCheetah" => Some(LocomotionTask::HalfCheetah.default_step_cost()),
        "Ant" => Some(LocomotionTask::Ant.default_step_cost()),
        "AirLearning" => {
            Some(AirLearning::DEFAULT_PHYSICS_COST + AirLearning::DEFAULT_RENDER_CPU_COST)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_covers_survey_environments() {
        for name in ["Pong", "Walker2D", "Hopper", "HalfCheetah", "Ant", "AirLearning"] {
            let env = by_name(name, VirtualClock::new(), 0);
            assert!(env.is_some(), "missing env {name}");
            assert_eq!(env.unwrap().name(), name);
        }
        assert!(by_name("Tetris", VirtualClock::new(), 0).is_none());
    }

    #[test]
    fn step_costs_rank_by_complexity() {
        let pong = default_step_cost("Pong").unwrap();
        let walker = default_step_cost("Walker2D").unwrap();
        let drone = default_step_cost("AirLearning").unwrap();
        assert!(pong < walker);
        assert!(walker < drone);
    }
}
