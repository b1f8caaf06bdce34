//! # rlscope-bench — experiment harness shared by the `repro` binary and
//! the criterion benches.
//!
//! Each `render_*` function regenerates the rows/series of one table or
//! figure from the RL-Scope paper and renders them as text. The `repro`
//! binary prints them; `EXPERIMENTS.md` records paper-vs-measured.

pub mod gate;

use rlscope_core::event::CpuCategory;
use rlscope_core::profiler::TransitionKind;
use rlscope_rl::AlgoKind;
use rlscope_workloads::{
    fig11a, fig11b, run_algorithm_survey, run_correction_ablation, run_framework_comparison,
    run_minigo, run_simulator_survey, table1, ExperimentRun, MinigoConfig, ScaleConfig, TrainSpec,
};
use std::fmt::Write as _;

/// Number of environment steps per experiment run (scaled-down workload).
pub const DEFAULT_STEPS: usize = 300;

/// Default hyperparameter scaling for experiments.
pub fn default_scale() -> ScaleConfig {
    ScaleConfig { hidden: 16, batch: 8, freq_div: 10, ppo: None }
}

fn breakdown_block(out: &mut String, run: &ExperimentRun) {
    let table = &run.profile.table;
    let total = table.total();
    let _ = writeln!(
        out,
        "  {:<22} total {:>10}  GPU {:>5.1}%  CUDA/GPU {:>4.1}x",
        run.label,
        format!("{total}"),
        run.gpu_percent(),
        run.cuda_over_gpu()
    );
    for op in ["backpropagation", "inference", "simulation"] {
        let op_total = table.operation_total(op);
        if op_total.is_zero() {
            continue;
        }
        let pct = |cat: CpuCategory| {
            100.0 * table.total_where(|k| &*k.operation == op && k.cpu == Some(cat)).ratio(op_total)
        };
        let gpu = 100.0 * table.total_where(|k| &*k.operation == op && k.gpu).ratio(op_total);
        let _ = writeln!(
            out,
            "    {:<18} {:>6.1}% of total | py {:>5.1}% sim {:>5.1}% backend {:>5.1}% cuda {:>5.1}% gpu {:>5.1}%",
            op,
            100.0 * op_total.ratio(total),
            pct(CpuCategory::Python),
            pct(CpuCategory::Simulator),
            pct(CpuCategory::Backend),
            pct(CpuCategory::CudaApi),
            gpu,
        );
    }
}

/// Table 1: the framework configuration matrix.
pub fn render_table1() -> String {
    let mut out = String::from("Table 1 — RL framework configurations\n");
    let _ = writeln!(out, "  {:<18} {:<11} {:<12}", "RL framework", "Exec model", "ML backend");
    for fw in table1() {
        let _ = writeln!(
            out,
            "  {:<18} {:<11} {:<12}",
            fw.name,
            fw.model.to_string(),
            fw.backend.to_string()
        );
    }
    out
}

/// Figure 4a/4b: framework comparison time breakdown for one algorithm.
pub fn render_fig4_breakdown(algo: AlgoKind, steps: usize) -> (String, Vec<ExperimentRun>) {
    let runs = run_framework_comparison(algo, steps, default_scale());
    let mut out = format!("Figure 4 ({algo}, Walker2D) — time breakdown per framework\n");
    for run in &runs {
        breakdown_block(&mut out, run);
    }
    (out, runs)
}

/// Figure 4c/4d: transitions per iteration for one algorithm.
pub fn render_fig4_transitions(runs: &[ExperimentRun], algo: AlgoKind) -> String {
    let mut out = format!("Figure 4c/d ({algo}) — language transitions per iteration\n");
    for run in runs {
        let _ = writeln!(out, "  {}", run.label);
        for op in ["backpropagation", "inference", "simulation"] {
            // `+ 0.0` normalizes IEEE negative zero for display.
            let be = run.transitions.per_iteration(op, TransitionKind::Backend) + 0.0;
            let sim = run.transitions.per_iteration(op, TransitionKind::Simulator) + 0.0;
            let cuda = run.transitions.per_iteration(op, TransitionKind::Cuda) + 0.0;
            if be + sim + cuda > 0.0 {
                let _ = writeln!(
                    out,
                    "    {:<18} backend {:>8.1}  simulator {:>6.1}  cuda {:>8.1}",
                    op, be, sim, cuda
                );
            }
        }
    }
    out
}

/// Figure 5: algorithm survey.
pub fn render_fig5(steps: usize) -> (String, Vec<ExperimentRun>) {
    let runs = run_algorithm_survey(steps, default_scale());
    let mut out = String::from("Figure 5 — algorithm choice (Walker2D)\n");
    for run in &runs {
        let _ = writeln!(
            out,
            "  {:<6} sim {:>5.1}%  gpu {:>5.1}%",
            run.label,
            run.simulation_percent(),
            run.gpu_percent(),
        );
        breakdown_block(&mut out, run);
    }
    (out, runs)
}

/// Figure 7: simulator survey.
pub fn render_fig7(steps: usize) -> (String, Vec<ExperimentRun>) {
    let runs = run_simulator_survey(steps, default_scale());
    let mut out = String::from("Figure 7 — simulator choice (PPO2)\n");
    for run in &runs {
        let _ = writeln!(
            out,
            "  {:<12} total {:>10}  sim {:>5.1}%  gpu {:>5.1}%",
            run.label,
            format!("{}", run.profile.table.total()),
            run.simulation_percent(),
            run.gpu_percent(),
        );
    }
    (out, runs)
}

/// Figure 8: the Minigo multi-process view, rendered from an
/// already-computed round (the workload is the heaviest in the suite and
/// nondeterministic, so callers wanting both the per-process and
/// per-phase views should run it once and render twice).
pub fn render_fig8_result(result: &rlscope_workloads::MinigoResult) -> String {
    let mut out = String::from("Figure 8 — Minigo multi-process view\n");
    out.push_str(&result.report.render());
    let _ = writeln!(
        out,
        "F.11: reported utilization {:.0}% vs true GPU-bound {:.3}%",
        result.report.smi_reported_percent, result.report.true_gpu_percent
    );
    out
}

/// Figure 8: runs one Minigo round and renders the multi-process view.
pub fn render_fig8(cfg: &MinigoConfig) -> String {
    render_fig8_result(&run_minigo(cfg))
}

/// Figure 8, per-phase variant, rendered from an already-computed round:
/// the Minigo round broken down by training phase (selfplay /
/// sgd_updates / evaluation) via the unified analysis pipeline
/// (`Analysis::of(&merged).group_by([Dim::Phase])`) — a view the paper
/// shows per process only, and the pre-`Analysis` sweep could not
/// produce at all (phase events were dropped).
pub fn render_fig8_phases_result(result: &rlscope_workloads::MinigoResult) -> String {
    let mut out = String::from("Figure 8 (per-phase) — Minigo time breakdown by training phase\n");
    out.push_str(&result.phase_report.render());
    out
}

/// Figure 8 per-phase variant: runs one Minigo round and renders it.
pub fn render_fig8_phases(cfg: &MinigoConfig) -> String {
    render_fig8_phases_result(&run_minigo(cfg))
}

/// Figures 9/10: calibration means for one workload.
pub fn render_fig9_10(steps: usize) -> String {
    let spec = TrainSpec {
        scale: default_scale(),
        ..TrainSpec::new(
            AlgoKind::Ddpg,
            "Walker2D",
            rlscope_workloads::frameworks::STABLE_BASELINES,
            steps,
        )
    };
    let cal = rlscope_workloads::calibration_for(&spec);
    let mut out = String::from("Figures 9/10 — calibration (DDPG, Walker2D)\n");
    let _ = writeln!(
        out,
        "  delta calibration: annotation {} / transition {} / CUDA API {}",
        cal.annotation_mean, cal.py_interception_mean, cal.cuda_interception_mean
    );
    for (api, infl) in &cal.cupti_means {
        let _ = writeln!(out, "  difference-of-average: {api} CUPTI inflation {infl}");
    }
    out
}

/// Figure 11a/11b: correction-accuracy validation.
pub fn render_fig11(steps: usize) -> String {
    let mut out = String::from("Figure 11 — overhead correction validation\n");
    out.push_str("  (a) algorithm choice, Walker2D\n");
    for row in fig11a(steps, default_scale()) {
        let _ = writeln!(
            out,
            "    {:<6} uninstrumented {:>10} corrected {:>10} bias {:>+6.1}%  inflation {:.2}x",
            row.label,
            format!("{}", row.uninstrumented),
            format!("{}", row.corrected),
            row.bias_percent,
            row.inflation(),
        );
    }
    out.push_str("  (b) simulator choice, PPO2\n");
    for row in fig11b(steps, default_scale()) {
        let _ = writeln!(
            out,
            "    {:<12} uninstrumented {:>10} corrected {:>10} bias {:>+6.1}%  inflation {:.2}x",
            row.label,
            format!("{}", row.uninstrumented),
            format!("{}", row.corrected),
            row.bias_percent,
            row.inflation(),
        );
    }
    out
}

/// §C.4: effect of skipping overhead correction.
pub fn render_c4(steps: usize) -> String {
    let spec = TrainSpec {
        scale: default_scale(),
        ..TrainSpec::new(
            AlgoKind::Ddpg,
            "Walker2D",
            rlscope_workloads::frameworks::STABLE_BASELINES,
            steps,
        )
    };
    let (corrected, raw) = run_correction_ablation(&spec);
    let ratio = |p: &rlscope_core::CorrectedProfile| {
        p.table.cpu_category_total(CpuCategory::CudaApi).ratio(p.table.gpu_total())
    };
    let mut out = String::from("§C.4 — effect of skipping correction (DDPG, Walker2D)\n");
    let _ = writeln!(
        out,
        "  corrected total {} | uncorrected total {} | inflation {:.2}x",
        corrected.corrected_total,
        raw.corrected_total,
        raw.corrected_total.ratio(corrected.corrected_total)
    );
    let _ = writeln!(
        out,
        "  CUDA/GPU ratio: corrected {:.1}x, uncorrected {:.1}x",
        ratio(&corrected),
        ratio(&raw)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_four_rows() {
        let t = render_table1();
        assert_eq!(t.lines().count(), 6);
        assert!(t.contains("stable-baselines"));
        assert!(t.contains("ReAgent"));
    }
}
