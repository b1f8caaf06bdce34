//! Overhead correction: subtracting calibrated book-keeping time at the
//! point where it occurred (paper §3.4, Appendix C.3–C.4).
//!
//! RL-Scope knows *when* book-keeping occurred from the events it already
//! records (every transition, API call, and annotation is an occurrence),
//! and *how much* each occurrence costs from calibration. Correction
//! subtracts `count × mean` from the affected buckets of the breakdown:
//!
//! * Python↔C interception → the Python bucket of the operation where the
//!   transition happened (split by simulator vs backend transitions);
//! * annotation book-keeping → the Python bucket of the annotated
//!   operation;
//! * CUDA API interception and CUPTI inflation → the CUDA-API bucket of
//!   the operation issuing the call.
//!
//! Skipping this correction reproduces the paper's §C.4 failure modes:
//! inflated totals (1.6–2.2×) and a CUDA/GPU ratio overstated from 3.6× to
//! 5.7×.

use crate::calibrate::Calibration;
use crate::event::CpuCategory;
use crate::overlap::{BreakdownTable, BucketKey};
use crate::profiler::TransitionKind;
use crate::trace::Trace;
use rlscope_sim::cuda::CudaApiKind;
use rlscope_sim::time::DurationNs;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Overhead attributed to each book-keeping source (the stacked overhead
/// bars of the paper's Figure 11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OverheadBreakdown {
    /// CUPTI-internal inflation.
    pub cupti: DurationNs,
    /// CUDA API interception book-keeping.
    pub cuda_interception: DurationNs,
    /// Python→Backend interception wrappers.
    pub python_backend: DurationNs,
    /// Python→Simulator interception wrappers.
    pub python_simulator: DurationNs,
    /// Annotation book-keeping.
    pub python_annotation: DurationNs,
}

impl OverheadBreakdown {
    /// Total estimated profiling overhead.
    pub fn total(&self) -> DurationNs {
        self.cupti
            + self.cuda_interception
            + self.python_backend
            + self.python_simulator
            + self.python_annotation
    }
}

/// A corrected profile: the breakdown with overhead removed, the corrected
/// total training time, and the overhead estimate itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrectedProfile {
    /// Corrected per-bucket breakdown.
    pub table: BreakdownTable,
    /// Corrected total training time (wall time minus estimated overhead).
    pub corrected_total: DurationNs,
    /// The uncorrected wall time, for §C.4-style comparisons.
    pub instrumented_total: DurationNs,
    /// Estimated overhead by source.
    pub overhead: OverheadBreakdown,
}

impl CorrectedProfile {
    /// Inflation factor the profiler imposed: instrumented / corrected.
    pub fn inflation(&self) -> f64 {
        self.instrumented_total.ratio(self.corrected_total)
    }
}

/// Subtracts `amount` from the `(op, cat)` buckets, taking from the
/// CPU-only bucket first, then the CPU+GPU bucket.
fn subtract_split(table: &mut BreakdownTable, op: &Arc<str>, cat: CpuCategory, amount: DurationNs) {
    let key_cpu = BucketKey { operation: op.clone(), cpu: Some(cat), gpu: false };
    let have = table.get(&key_cpu);
    let first = amount.min(have);
    table.subtract(&key_cpu, first);
    let rest = amount.saturating_sub(first);
    if !rest.is_zero() {
        let key_both = BucketKey { operation: op.clone(), cpu: Some(cat), gpu: true };
        table.subtract(&key_both, rest);
    }
}

/// Subtracts `amount` from Python buckets across all operations, largest
/// first (used for costs whose per-operation attribution is unknown).
fn subtract_python_pool(table: &mut BreakdownTable, amount: DurationNs) {
    let mut python_buckets: Vec<(BucketKey, DurationNs)> = table
        .iter()
        .filter(|(k, _)| k.cpu == Some(CpuCategory::Python))
        .map(|(k, d)| (k.clone(), d))
        .collect();
    python_buckets.sort_by_key(|&(_, d)| std::cmp::Reverse(d));
    let mut remaining = amount;
    for (key, have) in python_buckets {
        if remaining.is_zero() {
            break;
        }
        let take = remaining.min(have);
        table.subtract(&key, take);
        remaining = remaining.saturating_sub(take);
    }
}

/// The book-keeping counters and wall time correction needs, detached
/// from any particular [`Trace`] so the unified analysis pipeline can
/// build them from merged sources too.
#[derive(Debug, Clone)]
pub(crate) struct CorrectionInputs {
    /// Operation annotations recorded.
    pub annotations: u64,
    /// Per-(operation, kind) transition counts.
    pub per_op_transitions: Vec<((Arc<str>, TransitionKind), u64)>,
    /// Per-CUDA-API `(call count, total CPU duration)`.
    pub api_stats: Vec<(CudaApiKind, (u64, DurationNs))>,
    /// Instrumented wall time.
    pub wall: DurationNs,
}

impl CorrectionInputs {
    /// Inputs of one finalized trace.
    pub fn from_trace(trace: &Trace) -> Self {
        CorrectionInputs {
            annotations: trace.counts.annotations,
            per_op_transitions: trace.per_op_transitions.clone(),
            api_stats: trace.api_stats.clone(),
            wall: trace.wall_time(),
        }
    }

    /// Inputs of several traces analyzed as one merged stream: counters
    /// sum (through the same find-or-push merges as [`Trace::merge`], so
    /// the two cannot diverge), the wall time is the latest finalization
    /// instant.
    pub fn from_traces(traces: &[Trace]) -> Self {
        let mut merged = CorrectionInputs {
            annotations: 0,
            per_op_transitions: Vec::new(),
            api_stats: Vec::new(),
            wall: DurationNs::ZERO,
        };
        for t in traces {
            merged.annotations += t.counts.annotations;
            merged.wall = merged.wall.max(t.wall_time());
            crate::trace::merge_transition_counts(
                &mut merged.per_op_transitions,
                t.per_op_transitions.iter().cloned(),
            );
            crate::trace::merge_api_stats(&mut merged.api_stats, t.api_stats.iter().copied());
        }
        merged
    }
}

/// Subtracts calibrated overhead from `table` in place at the buckets
/// where it occurred, returning the per-source overhead estimate. This is
/// the correction engine shared by [`correct`] and the analysis
/// pipeline's [`crate::analysis::Analysis::corrected`].
pub(crate) fn apply_correction(
    table: &mut BreakdownTable,
    inputs: &CorrectionInputs,
    cal: &Calibration,
) -> OverheadBreakdown {
    let mut overhead = OverheadBreakdown::default();

    // Python↔C interception and CUDA interception, attributed per
    // operation from the transition counters.
    let cupti_per_call = cal.cupti_weighted_mean(&inputs.api_stats);
    for ((op, kind), n) in &inputs.per_op_transitions {
        match kind {
            TransitionKind::Backend => {
                let amount = cal.py_interception_mean * *n;
                overhead.python_backend += amount;
                subtract_split(table, op, CpuCategory::Python, amount);
            }
            TransitionKind::Simulator => {
                let amount = cal.py_interception_mean * *n;
                overhead.python_simulator += amount;
                subtract_split(table, op, CpuCategory::Python, amount);
            }
            TransitionKind::Cuda => {
                let interception = cal.cuda_interception_mean * *n;
                let cupti = cupti_per_call * *n;
                overhead.cuda_interception += interception;
                overhead.cupti += cupti;
                subtract_split(table, op, CpuCategory::CudaApi, interception + cupti);
            }
        }
    }

    // Annotation book-keeping: per-operation attribution is not tracked,
    // so drain the Python pool.
    let ann = cal.annotation_mean * inputs.annotations;
    overhead.python_annotation = ann;
    subtract_python_pool(table, ann);

    overhead
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Analysis;
    use crate::event::{BookkeepingCounts, Event, EventKind};
    use rlscope_sim::cuda::CudaApiKind;
    use rlscope_sim::ids::ProcessId;
    use rlscope_sim::time::TimeNs;

    fn us(v: u64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    fn base_trace() -> Trace {
        // 100us total: operation "backprop" covers all of it; python
        // [0,60), cuda api [60,100).
        Trace {
            pid: ProcessId(0),
            events: vec![
                Event::new(ProcessId(0), EventKind::Operation, "backprop", us(0), us(100)),
                Event::new(
                    ProcessId(0),
                    EventKind::Cpu(CpuCategory::Python),
                    "python",
                    us(0),
                    us(60),
                ),
                Event::new(
                    ProcessId(0),
                    EventKind::Cpu(CpuCategory::CudaApi),
                    "cudaLaunchKernel",
                    us(60),
                    us(100),
                ),
            ],
            counts: BookkeepingCounts {
                annotations: 2,
                backend_transitions: 10,
                simulator_transitions: 0,
                cuda_api_calls: 4,
            },
            per_op_transitions: vec![
                ((Arc::from("backprop"), TransitionKind::Backend), 10),
                ((Arc::from("backprop"), TransitionKind::Cuda), 4),
            ],
            api_stats: vec![(CudaApiKind::LaunchKernel, (4, DurationNs::from_micros(40)))],
            iterations: 1,
            wall_end: us(100),
        }
    }

    fn correct(trace: &Trace, cal: &Calibration) -> CorrectedProfile {
        Analysis::of(trace).corrected(cal).profile().unwrap()
    }

    fn calibration() -> Calibration {
        Calibration {
            annotation_mean: DurationNs::from_micros(1),
            py_interception_mean: DurationNs::from_micros(2),
            cuda_interception_mean: DurationNs::from_micros(1),
            cupti_means: vec![(CudaApiKind::LaunchKernel, DurationNs::from_micros(3))],
        }
    }

    #[test]
    fn correction_subtracts_from_the_right_buckets() {
        let profile = correct(&base_trace(), &calibration());
        // Python bucket: 60 − 10×2 (backend transitions) − 2×1
        // (annotations) = 38.
        let py = profile.table.get(&BucketKey {
            operation: Arc::from("backprop"),
            cpu: Some(CpuCategory::Python),
            gpu: false,
        });
        assert_eq!(py, DurationNs::from_micros(38));
        // CUDA bucket: 40 − 4×(1 + 3) = 24.
        let cuda = profile.table.get(&BucketKey {
            operation: Arc::from("backprop"),
            cpu: Some(CpuCategory::CudaApi),
            gpu: false,
        });
        assert_eq!(cuda, DurationNs::from_micros(24));
    }

    #[test]
    fn corrected_total_subtracts_all_overhead() {
        let profile = correct(&base_trace(), &calibration());
        // Overhead: 20 (py) + 2 (ann) + 4 (api) + 12 (cupti) = 38.
        assert_eq!(profile.overhead.total(), DurationNs::from_micros(38));
        assert_eq!(profile.corrected_total, DurationNs::from_micros(62));
        assert_eq!(profile.instrumented_total, DurationNs::from_micros(100));
        assert!((profile.inflation() - 100.0 / 62.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_breakdown_by_source() {
        let profile = correct(&base_trace(), &calibration());
        assert_eq!(profile.overhead.python_backend, DurationNs::from_micros(20));
        assert_eq!(profile.overhead.python_simulator, DurationNs::ZERO);
        assert_eq!(profile.overhead.python_annotation, DurationNs::from_micros(2));
        assert_eq!(profile.overhead.cuda_interception, DurationNs::from_micros(4));
        assert_eq!(profile.overhead.cupti, DurationNs::from_micros(12));
    }

    #[test]
    fn zero_calibration_changes_nothing() {
        let trace = base_trace();
        let profile = correct(&trace, &Calibration::default());
        assert_eq!(profile.table, trace.breakdown());
        assert_eq!(profile.corrected_total, trace.wall_time());
        assert_eq!(profile.inflation(), 1.0);
    }

    #[test]
    fn uncorrected_view_reports_instrumented_time() {
        let trace = base_trace();
        let profile = Analysis::of(&trace).profile().unwrap();
        assert_eq!(profile.corrected_total, DurationNs::from_micros(100));
        assert_eq!(profile.overhead.total(), DurationNs::ZERO);
    }

    #[test]
    fn oversubtraction_saturates_and_spills_to_gpu_bucket() {
        let mut trace = base_trace();
        // Make the python bucket tiny and add a CPU+GPU python bucket.
        trace.events[1] =
            Event::new(ProcessId(0), EventKind::Cpu(CpuCategory::Python), "python", us(0), us(10));
        trace.events.push(Event::new(
            ProcessId(0),
            EventKind::Gpu(crate::event::GpuCategory::Kernel),
            "k",
            us(5),
            us(10),
        ));
        let profile = correct(&trace, &calibration());
        // Pool/splits never go negative.
        for (_, d) in profile.table.iter() {
            assert!(d >= DurationNs::ZERO);
        }
    }
}
