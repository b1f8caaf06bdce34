//! # rlscope-rl — reinforcement-learning algorithms over the modelled stack
//!
//! Real implementations (actual tensors, actual gradients, actual learning
//! on the [`rlscope_envs`] environments) of the six algorithms the RL-Scope
//! paper surveys:
//!
//! | Algorithm | Policy class | Data regime | Paper role |
//! |---|---|---|---|
//! | [`Dqn`] | discrete Q | off-policy | §2.1 walkthrough example |
//! | [`Ddpg`] | deterministic | off-policy | Fig 4b/5; F.4 MPI-Adam quirk, F.5 `train_freq`=100 |
//! | [`Td3`] | deterministic | off-policy | Fig 4a; F.5 `train_freq`=1000 |
//! | [`Sac`] | stochastic | off-policy | Fig 5 |
//! | [`A2c`] | stochastic | on-policy | Fig 5; most simulation-bound (F.10) |
//! | [`Ppo`] | stochastic | on-policy | Fig 5/7 survey algorithm |
//!
//! All agents implement [`Agent`]; the workload layer drives them through
//! the annotated inference / simulation / backpropagation loop.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod a2c;
pub mod buffer;
pub mod common;
pub mod ddpg;
pub mod dqn;
pub mod noise;
pub mod onpolicy;
pub mod ppo;
pub mod sac;
pub mod td3;
#[cfg(test)]
pub(crate) mod testutil;

pub use a2c::{A2c, A2cConfig};
pub use buffer::{ReplayBuffer, RolloutBuffer, RolloutStep, Transition};
pub use common::{Agent, AlgoKind};
pub use ddpg::{Ddpg, DdpgConfig};
pub use dqn::{Dqn, DqnConfig};
pub use noise::{ActionNoise, GaussianNoise, OuNoise};
pub use ppo::{Ppo, PpoConfig};
pub use sac::{Sac, SacConfig};
pub use td3::{Td3, Td3Config};
