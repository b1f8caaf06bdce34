//! # rlscope-sim — virtual-time CPU/GPU execution substrate
//!
//! The RL-Scope paper profiles real Python/TensorFlow/PyTorch/CUDA stacks on
//! physical GPUs. This crate is the substitution that makes the reproduction
//! possible on commodity hardware: a **deterministic, nanosecond-resolution
//! virtual-time model** of the same execution stack.
//!
//! The substrate models:
//!
//! * a [`clock::VirtualClock`] shared by every layer of one simulated process;
//! * a [`gpu::GpuDevice`] with FIFO streams ([`ids::StreamId`]) on which kernels and
//!   memory copies execute *asynchronously* with respect to the CPU timeline,
//!   exactly the asynchrony that makes CPU/GPU overlap analysis non-trivial;
//! * a [`cuda::CudaContext`] exposing `cudaLaunchKernel` /
//!   `cudaMemcpyAsync` / `cudaDeviceSynchronize`-shaped calls, with
//!   CUPTI-style [`hooks::CudaHooks`] callbacks and configurable
//!   *closed-source profiling inflation* per API (the quantity RL-Scope's
//!   difference-of-average calibration exists to correct);
//! * a [`python::PyRuntime`] modelling high-level-language execution and the
//!   Python↔C boundary, with [`hooks::StackHooks`] transition callbacks and
//!   configurable interception book-keeping cost (the quantity delta
//!   calibration corrects);
//! * an [`smi::UtilizationSampler`] reproducing the documented `nvidia-smi`
//!   coarse-sampling semantics;
//! * a [`process::ProcessGraph`] of fork/join relationships for
//!   multi-process workloads (Minigo).
//!
//! Everything is deterministic: two runs with the same configuration produce
//! byte-identical event streams, which is what makes the paper's ±16%
//! overhead-correction validation an exact, unit-testable property here.
//!
//! ## Example
//!
//! ```
//! use rlscope_sim::clock::VirtualClock;
//! use rlscope_sim::cuda::{CudaContext, CudaCostConfig};
//! use rlscope_sim::gpu::{GpuDevice, KernelDesc};
//! use rlscope_sim::time::DurationNs;
//!
//! let clock = VirtualClock::new();
//! let mut cuda = CudaContext::new(clock.clone(), GpuDevice::new(1), CudaCostConfig::default());
//! let stream = cuda.default_stream();
//! cuda.launch_kernel(stream, KernelDesc::new("gemm", DurationNs::from_micros(40)));
//! cuda.device_synchronize();
//! assert!(clock.now().as_nanos() > 40_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod cost;
pub mod cuda;
pub mod gpu;
pub mod hooks;
pub mod ids;
pub mod process;
pub mod python;
pub mod rng;
pub mod smi;
pub mod time;

pub use clock::VirtualClock;
pub use cuda::{CudaApiKind, CudaContext, CudaCostConfig};
pub use gpu::{GpuDevice, KernelDesc, KernelRecord, MemcpyDir, MemcpyRecord};
pub use hooks::{CudaHooks, NativeLib, StackHooks};
pub use ids::{ProcessId, StreamId, ThreadId};
pub use python::{PyCostConfig, PyRuntime};
pub use smi::UtilizationSampler;
pub use time::{DurationNs, TimeNs};
