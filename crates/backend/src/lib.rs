//! # rlscope-backend — tensor engine, autograd, and execution models
//!
//! A stand-in for the TensorFlow / PyTorch backends the RL-Scope paper
//! profiles. The numerics are real (dense f32 tensors, reverse-mode
//! autodiff, Adam); the *dispatch* is modelled on the virtual-time
//! substrate of [`rlscope_sim`], reproducing the structural differences
//! between the Graph, Eager, and Autograph execution models that the
//! paper's framework case study (§4.1) measures:
//!
//! * per-op vs per-step Python→Backend transitions,
//! * backend scheduling cost differences,
//! * TensorFlow-Eager's extra administrative calls (F.3),
//! * the Autograph inference anomaly (F.6),
//! * the MPI-friendly, GPU-unfriendly Adam of stable-baselines DDPG (F.4).
//!
//! ```
//! use rlscope_backend::prelude::*;
//! use rlscope_sim::{VirtualClock, CudaContext, CudaCostConfig, GpuDevice};
//! use rlscope_sim::python::{PyCostConfig, PyRuntime};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let clock = VirtualClock::new();
//! let py = Rc::new(RefCell::new(PyRuntime::new(clock.clone(), PyCostConfig::default())));
//! let cuda = Rc::new(RefCell::new(CudaContext::new(
//!     clock, GpuDevice::new(1), CudaCostConfig::default())));
//! let stream = cuda.borrow().default_stream();
//! let exec = Executor::new(
//!     BackendKind::PyTorch, ExecModel::Eager, py, cuda.clone(),
//!     OpCostModel::for_config(BackendKind::PyTorch, ExecModel::Eager), stream);
//!
//! let out = exec.run(RunKind::Inference, |tape| {
//!     let x = tape.constant(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
//!     let w = tape.param(0, Tensor::from_vec(2, 1, vec![0.5, 0.25]));
//!     let y = tape.matmul(x, w);
//!     tape.value(y).item()
//! });
//! assert_eq!(out, 1.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod exec;
pub mod nn;
pub mod optim;
pub mod tape;
pub mod tensor;

/// Convenient glob-import of the most-used types.
pub mod prelude {
    pub use crate::exec::{BackendKind, ExecModel, Executor, OpCostModel, RunKind};
    pub use crate::nn::{Activation, Mlp, Params};
    pub use crate::optim::{Adam, MpiAdam, Optimizer, Sgd};
    pub use crate::tape::{Gradients, OpSink, Tape, VarId};
    pub use crate::tensor::Tensor;
}

pub use exec::{BackendKind, ExecModel, Executor, OpCostModel, RunKind};
pub use nn::{Activation, Mlp, Params};
pub use optim::{Adam, MpiAdam, Optimizer, Sgd};
pub use tape::{Gradients, Tape, VarId};
pub use tensor::Tensor;
