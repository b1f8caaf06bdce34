//! Correction-accuracy validation (paper Appendix C.3, Figure 11).
//!
//! Each workload runs twice: once uninstrumented, once with full RL-Scope;
//! the corrected training time must land within ±16% of the
//! uninstrumented time. The suite also reports the per-source overhead
//! stack (CUPTI, CUDA API interception, Python interception per library,
//! annotations) that Figure 11 draws.

use crate::experiments::calibration_for;
use crate::frameworks::STABLE_BASELINES;
use crate::runner::{ScaleConfig, TrainSpec};
use rlscope_core::analysis::Analysis;
use rlscope_core::correct::OverheadBreakdown;
use rlscope_core::profiler::Toggles;
use rlscope_rl::AlgoKind;
use rlscope_sim::time::DurationNs;
use serde::{Deserialize, Serialize};

/// One row of the Figure-11 validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BiasRow {
    /// Workload label (algorithm or simulator name).
    pub label: String,
    /// Training time of the uninstrumented run.
    pub uninstrumented: DurationNs,
    /// Training time of the fully instrumented run.
    pub instrumented: DurationNs,
    /// Corrected training time.
    pub corrected: DurationNs,
    /// Correction bias: `(corrected − uninstrumented) / uninstrumented`,
    /// in percent. The paper validates |bias| ≤ 16%.
    pub bias_percent: f64,
    /// Overhead attributed per book-keeping source.
    pub overhead: OverheadBreakdown,
}

impl BiasRow {
    /// Uncorrected inflation factor (instrumented / uninstrumented) —
    /// the paper observes up to 1.9×.
    pub fn inflation(&self) -> f64 {
        self.instrumented.ratio(self.uninstrumented)
    }
}

/// Validates correction accuracy for one workload spec.
pub fn validate_correction(spec: &TrainSpec, label: impl Into<String>) -> BiasRow {
    let uninstrumented = spec.run(None).wall;
    let cal = calibration_for(spec);
    let out = spec.run(Some(Toggles::all()));
    let trace = out.trace.expect("profiled run has a trace");
    let profile = Analysis::of(&trace)
        .corrected(&cal)
        .profile()
        .expect("a trace carries the counters correction needs");
    let corrected = profile.corrected_total;
    // Guard the ratio: a degenerate zero-length uninstrumented run must
    // report zero bias, not NaN.
    let bias_percent = if uninstrumented.is_zero() {
        0.0
    } else {
        100.0 * (corrected.as_nanos() as f64 - uninstrumented.as_nanos() as f64)
            / uninstrumented.as_nanos() as f64
    };
    BiasRow {
        label: label.into(),
        uninstrumented,
        instrumented: profile.instrumented_total,
        corrected,
        bias_percent,
        overhead: profile.overhead,
    }
}

/// Figure 11a: algorithm choice (PPO2, A2C, SAC, DDPG on Walker2D).
pub fn fig11a(steps: usize, scale: ScaleConfig) -> Vec<BiasRow> {
    [AlgoKind::Ppo2, AlgoKind::A2c, AlgoKind::Sac, AlgoKind::Ddpg]
        .into_iter()
        .map(|algo| {
            let spec =
                TrainSpec { scale, ..TrainSpec::new(algo, "Walker2D", STABLE_BASELINES, steps) };
            validate_correction(&spec, algo.to_string())
        })
        .collect()
}

/// Figure 11b: simulator choice (PPO2 on Hopper, Ant, HalfCheetah, Pong).
pub fn fig11b(steps: usize, scale: ScaleConfig) -> Vec<BiasRow> {
    ["Hopper", "Ant", "HalfCheetah", "Pong"]
        .into_iter()
        .map(|env| {
            let spec =
                TrainSpec { scale, ..TrainSpec::new(AlgoKind::Ppo2, env, STABLE_BASELINES, steps) };
            validate_correction(&spec, env.to_string())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_bias_within_paper_bound() {
        let spec = TrainSpec {
            scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
            ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", STABLE_BASELINES, 80)
        };
        let row = validate_correction(&spec, "DDPG");
        assert!(
            row.bias_percent.abs() <= 16.0,
            "bias {}% exceeds the paper's ±16% bound",
            row.bias_percent
        );
        assert!(row.inflation() > 1.0);
        assert!(row.instrumented > row.uninstrumented);
    }

    #[test]
    fn overhead_sources_are_populated() {
        let spec = TrainSpec {
            scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
            ..TrainSpec::new(AlgoKind::Sac, "Hopper", STABLE_BASELINES, 60)
        };
        let row = validate_correction(&spec, "SAC");
        assert!(!row.overhead.cupti.is_zero());
        assert!(!row.overhead.cuda_interception.is_zero());
        assert!(!row.overhead.python_backend.is_zero());
        assert!(!row.overhead.python_simulator.is_zero());
        assert!(!row.overhead.python_annotation.is_zero());
    }
}
