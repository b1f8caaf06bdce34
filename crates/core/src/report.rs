//! Human-readable reports: the tabular equivalents of the paper's figures.

use crate::analysis::{Analysis, Dim, GroupKey};
use crate::event::CpuCategory;
use crate::overlap::{BreakdownTable, BucketKey};
use crate::profiler::TransitionKind;
use crate::trace::Trace;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::smi::UtilizationReport;
use rlscope_sim::time::DurationNs;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One row of a time-breakdown report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownRow {
    /// Operation annotation.
    pub operation: String,
    /// Resource combination: `"CPU"`, `"GPU"`, or `"CPU+GPU"`.
    pub resources: String,
    /// Stack-level category label.
    pub category: String,
    /// Attributed time.
    pub time: DurationNs,
    /// Percent of the table total.
    pub percent: f64,
}

/// Renders a breakdown table as rows plus a formatted text table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BreakdownReport {
    /// The rows, sorted by operation then time (descending).
    pub rows: Vec<BreakdownRow>,
    /// Total attributed time.
    pub total: DurationNs,
}

impl BreakdownReport {
    /// Builds a report from a breakdown table.
    pub fn from_table(table: &BreakdownTable) -> Self {
        let total = table.total();
        let mut rows: Vec<BreakdownRow> = table
            .iter()
            .map(|(k, d)| BreakdownRow {
                operation: k.operation.to_string(),
                resources: match (k.cpu.is_some(), k.gpu) {
                    (true, true) => "CPU+GPU".into(),
                    (true, false) => "CPU".into(),
                    (false, true) => "GPU".into(),
                    (false, false) => "-".into(),
                },
                category: match k.cpu {
                    Some(c) => c.to_string(),
                    None => "GPU kernel".into(),
                },
                time: d,
                percent: 100.0 * d.ratio(total),
            })
            .collect();
        rows.sort_by(|a, b| a.operation.cmp(&b.operation).then(b.time.cmp(&a.time)));
        BreakdownReport { rows, total }
    }

    /// Formats the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<24} {:<8} {:<11} {:>14} {:>7}",
            "operation", "resource", "category", "time", "%"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<24} {:<8} {:<11} {:>14} {:>6.1}%",
                r.operation,
                r.resources,
                r.category,
                r.time.to_string(),
                r.percent
            );
        }
        let _ = writeln!(
            out,
            "{:<24} {:<8} {:<11} {:>14} {:>6.1}%",
            "TOTAL",
            "",
            "",
            self.total.to_string(),
            100.0
        );
        out
    }
}

/// Per-operation language-transition counts per iteration (Figure 4c/4d).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionReport {
    /// `(operation, kind, transitions per iteration)` rows.
    pub rows: Vec<(String, TransitionKind, f64)>,
}

impl TransitionReport {
    /// Builds the report from a trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut rows: Vec<(String, TransitionKind, f64)> = trace
            .per_op_transitions
            .iter()
            .map(|((op, kind), n)| {
                let per_iter = if trace.iterations == 0 {
                    *n as f64
                } else {
                    *n as f64 / trace.iterations as f64
                };
                (op.to_string(), *kind, per_iter)
            })
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        TransitionReport { rows }
    }

    /// Transitions per iteration for one `(operation, kind)`.
    pub fn per_iteration(&self, op: &str, kind: TransitionKind) -> f64 {
        self.rows.iter().filter(|(o, k, _)| o == op && *k == kind).map(|(_, _, v)| *v).sum()
    }

    /// Formats the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<24} {:<10} {:>16}", "operation", "kind", "transitions/iter");
        for (op, kind, v) in &self.rows {
            let _ = writeln!(out, "{:<24} {:<10} {:>16.1}", op, kind.to_string(), v);
        }
        out
    }
}

/// Per-process summary for scale-up workloads (Figure 8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessSummary {
    /// Process id.
    pub pid: ProcessId,
    /// Process name (from the fork graph).
    pub name: String,
    /// Total attributed time in this process.
    pub total: DurationNs,
    /// CPU-bound portion.
    pub cpu: DurationNs,
    /// Time with the GPU busy.
    pub gpu: DurationNs,
}

/// The multi-process view: one node per process plus the nvidia-smi
/// comparison that exposes the utilization-metric trap (F.11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiProcessReport {
    /// Per-process summaries, in pid order.
    pub processes: Vec<ProcessSummary>,
    /// Fork/join dependency edges between processes.
    pub dependencies: Vec<(ProcessId, ProcessId)>,
    /// `nvidia-smi`-style reported utilization (percent).
    pub smi_reported_percent: f64,
    /// True GPU-busy percentage over the same window.
    pub true_gpu_percent: f64,
}

impl MultiProcessReport {
    /// Builds the view from per-process tables — any source's
    /// `Analysis::…group_by([Dim::Process]).tables()` ([`Analysis`]) —
    /// process names, dependency edges, and an smi sampling report. A
    /// named process without a table gets an all-zero summary.
    pub fn from_tables(
        tables: Vec<(GroupKey, BreakdownTable)>,
        names: &[(ProcessId, String)],
        dependencies: Vec<(ProcessId, ProcessId)>,
        smi: &UtilizationReport,
    ) -> Self {
        let empty = BreakdownTable::new();
        let processes = names
            .iter()
            .map(|(pid, name)| {
                let table =
                    tables.iter().find(|(k, _)| k.process == Some(*pid)).map_or(&empty, |(_, t)| t);
                ProcessSummary {
                    pid: *pid,
                    name: name.clone(),
                    total: table.total(),
                    cpu: table.total_where(|k: &BucketKey| k.cpu.is_some() && !k.gpu),
                    gpu: table.gpu_total(),
                }
            })
            .collect();
        MultiProcessReport {
            processes,
            dependencies,
            smi_reported_percent: smi.reported_percent,
            true_gpu_percent: smi.true_percent(),
        }
    }

    /// Formats the report as text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{:<26} {:>12} {:>12} {:>12}", "process", "total", "cpu", "gpu");
        for p in &self.processes {
            let _ = writeln!(
                out,
                "{:<26} {:>12} {:>12} {:>12}",
                p.name,
                p.total.to_string(),
                p.cpu.to_string(),
                p.gpu.to_string()
            );
        }
        let _ = writeln!(
            out,
            "nvidia-smi reported GPU utilization: {:.0}%  |  true GPU-bound time: {:.3}%",
            self.smi_reported_percent, self.true_gpu_percent
        );
        out
    }
}

/// Per-phase summary row of a [`MultiPhaseReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSummary {
    /// Phase name ([`crate::overlap::NO_PHASE`] for untagged time).
    pub phase: String,
    /// The phase's full breakdown table.
    pub table: BreakdownTable,
    /// Total attributed time in the phase.
    pub total: DurationNs,
    /// CPU-bound portion (CPU busy, GPU idle).
    pub cpu: DurationNs,
    /// Time with the GPU busy.
    pub gpu: DurationNs,
}

/// The per-phase view of a trace: the paper's time-breakdown figures
/// scoped to training phases (§3.1/§3.3), which the pre-`Analysis`
/// pipeline could not produce (phases were dropped by the sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiPhaseReport {
    /// Per-phase summaries, in first-seen phase order of the stream.
    pub phases: Vec<PhaseSummary>,
}

impl MultiPhaseReport {
    /// Builds the view from a (possibly merged multi-process) trace via
    /// `Analysis::of(trace).group_by([Dim::Phase]).tables()`.
    pub fn from_trace(trace: &Trace) -> Self {
        let tables = Analysis::of(trace)
            .group_by([Dim::Phase])
            .tables()
            .expect("in-memory analysis cannot fail");
        Self::from_tables(
            tables
                .into_iter()
                .map(|(key, t)| (key.phase.expect("grouped by phase").to_string(), t)),
        )
    }

    /// Builds the view from already-grouped per-phase tables.
    pub fn from_tables(tables: impl IntoIterator<Item = (String, BreakdownTable)>) -> Self {
        let phases = tables
            .into_iter()
            .map(|(phase, table)| PhaseSummary {
                total: table.total(),
                cpu: table.total_where(|k: &BucketKey| k.cpu.is_some() && !k.gpu),
                gpu: table.gpu_total(),
                phase,
                table,
            })
            .collect();
        MultiPhaseReport { phases }
    }

    /// Total attributed time across all phases (equals the ungrouped
    /// table's total — phase grouping conserves time exactly).
    pub fn total(&self) -> DurationNs {
        self.phases.iter().map(|p| p.total).sum()
    }

    /// Formats the report as text: one summary line per phase plus each
    /// phase's top operations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let total = self.total();
        let _ =
            writeln!(out, "{:<20} {:>12} {:>7} {:>12} {:>12}", "phase", "total", "%", "cpu", "gpu");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<20} {:>12} {:>6.1}% {:>12} {:>12}",
                p.phase,
                p.total.to_string(),
                100.0 * p.total.ratio(total),
                p.cpu.to_string(),
                p.gpu.to_string()
            );
            for op in p.table.operations() {
                let op_total = p.table.operation_total(&op);
                let _ = writeln!(
                    out,
                    "    {:<16} {:>12} {:>6.1}%",
                    op,
                    op_total.to_string(),
                    100.0 * op_total.ratio(p.total)
                );
            }
        }
        out
    }
}

/// Percentage of a table's total spent in a CPU category (helper used all
/// over the experiment harness).
pub fn percent_of_total(table: &BreakdownTable, pred: impl Fn(&BucketKey) -> bool) -> f64 {
    100.0 * table.total_where(pred).ratio(table.total())
}

/// Percent of an operation's time spent executing GPU kernels.
pub fn gpu_percent_of_operation(table: &BreakdownTable, op: &str) -> f64 {
    let op_total = table.operation_total(op);
    let op_gpu = table.total_where(|k| &*k.operation == op && k.gpu);
    100.0 * op_gpu.ratio(op_total)
}

/// Percent of total time in simulation-category CPU work.
pub fn simulation_percent(table: &BreakdownTable) -> f64 {
    percent_of_total(table, |k| k.cpu == Some(CpuCategory::Simulator))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CpuCategory, Event, EventKind};
    use crate::trace::Trace;
    use rlscope_sim::smi::UtilizationSampler;
    use rlscope_sim::time::TimeNs;
    use std::sync::Arc;

    fn us(v: u64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    fn table() -> BreakdownTable {
        let mut t = BreakdownTable::new();
        t.add(
            BucketKey {
                operation: Arc::from("sim"),
                cpu: Some(CpuCategory::Simulator),
                gpu: false,
            },
            DurationNs::from_micros(60),
        );
        t.add(
            BucketKey { operation: Arc::from("bp"), cpu: Some(CpuCategory::CudaApi), gpu: true },
            DurationNs::from_micros(30),
        );
        t.add(
            BucketKey { operation: Arc::from("bp"), cpu: None, gpu: true },
            DurationNs::from_micros(10),
        );
        t
    }

    #[test]
    fn breakdown_report_percentages_sum() {
        let rep = BreakdownReport::from_table(&table());
        let sum: f64 = rep.rows.iter().map(|r| r.percent).sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!(rep.render().contains("TOTAL"));
        assert!(rep.render().contains("CPU+GPU"));
    }

    #[test]
    fn helpers_compute_shares() {
        let t = table();
        assert!((simulation_percent(&t) - 60.0).abs() < 1e-9);
        assert!((gpu_percent_of_operation(&t, "bp") - 100.0).abs() < 1e-9);
        assert!((gpu_percent_of_operation(&t, "sim") - 0.0).abs() < 1e-9);
    }

    /// Zero-denominator guards: percentage helpers over empty tables or
    /// absent operations must report 0.0, never NaN.
    #[test]
    fn percentage_helpers_guard_zero_denominators() {
        let empty = BreakdownTable::new();
        for v in [
            percent_of_total(&empty, |_| true),
            simulation_percent(&empty),
            gpu_percent_of_operation(&empty, "missing"),
            gpu_percent_of_operation(&table(), "no_such_operation"),
        ] {
            assert_eq!(v, 0.0);
            assert!(!v.is_nan());
        }
        // The report builder itself: rows over a zero-total table carry
        // 0% instead of NaN.
        let rep = BreakdownReport::from_table(&empty);
        assert!(rep.rows.is_empty());
        assert_eq!(rep.total, DurationNs::ZERO);
    }

    #[test]
    fn transition_report_per_iteration() {
        let trace = Trace {
            pid: ProcessId(0),
            events: vec![],
            counts: Default::default(),
            per_op_transitions: vec![
                ((Arc::from("backprop"), TransitionKind::Backend), 40),
                ((Arc::from("simulation"), TransitionKind::Simulator), 100),
            ],
            api_stats: vec![],
            iterations: 10,
            wall_end: us(1),
        };
        let rep = TransitionReport::from_trace(&trace);
        assert_eq!(rep.per_iteration("backprop", TransitionKind::Backend), 4.0);
        assert_eq!(rep.per_iteration("simulation", TransitionKind::Simulator), 10.0);
        assert!(rep.render().contains("backprop"));
    }

    #[test]
    fn multi_process_report_summarizes_each_pid() {
        let mk_event = |pid: u32, kind: EventKind, s: u64, e: u64| {
            Event::new(ProcessId(pid), kind, "x", us(s), us(e))
        };
        let trace = Trace {
            pid: ProcessId(0),
            events: vec![
                mk_event(0, EventKind::Cpu(CpuCategory::Python), 0, 50),
                mk_event(1, EventKind::Cpu(CpuCategory::Python), 0, 30),
                mk_event(1, EventKind::Gpu(crate::event::GpuCategory::Kernel), 10, 20),
            ],
            counts: Default::default(),
            per_op_transitions: vec![],
            api_stats: vec![],
            iterations: 0,
            wall_end: us(50),
        };
        let smi = UtilizationSampler::new(DurationNs::from_micros(10)).sample(
            &[(us(10), us(20))],
            us(0),
            us(50),
        );
        let rep = MultiProcessReport::from_tables(
            Analysis::of(&trace).group_by([Dim::Process]).tables().unwrap(),
            &[(ProcessId(0), "loader".into()), (ProcessId(1), "worker_0".into())],
            vec![(ProcessId(0), ProcessId(1))],
            &smi,
        );
        assert_eq!(rep.processes.len(), 2);
        assert_eq!(rep.processes[0].total, DurationNs::from_micros(50));
        assert_eq!(rep.processes[1].gpu, DurationNs::from_micros(10));
        assert!((rep.true_gpu_percent - 20.0).abs() < 1e-9);
        assert!(rep.render().contains("worker_0"));
    }

    #[test]
    fn chunk_dir_report_matches_in_memory_report() {
        use crate::store::TraceWriter;

        let mk_event = |pid: u32, kind: EventKind, s: u64, e: u64| {
            Event::new(ProcessId(pid), kind, "x", us(s), us(e))
        };
        let trace = Trace {
            pid: ProcessId(0),
            events: vec![
                mk_event(0, EventKind::Cpu(CpuCategory::Python), 0, 50),
                mk_event(1, EventKind::Cpu(CpuCategory::Python), 0, 30),
                mk_event(1, EventKind::Gpu(crate::event::GpuCategory::Kernel), 10, 20),
            ],
            counts: Default::default(),
            per_op_transitions: vec![],
            api_stats: vec![],
            iterations: 0,
            wall_end: us(50),
        };
        let smi = UtilizationSampler::new(DurationNs::from_micros(10)).sample(
            &[(us(10), us(20))],
            us(0),
            us(50),
        );
        let names = [(ProcessId(0), "loader".to_string()), (ProcessId(1), "worker_0".to_string())];
        let deps = vec![(ProcessId(0), ProcessId(1))];
        let tables = Analysis::of(&trace).group_by([Dim::Process]).tables().unwrap();
        let in_memory = MultiProcessReport::from_tables(tables, &names, deps.clone(), &smi);

        let dir = std::env::temp_dir().join(format!("rlscope_report_dir_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 64).unwrap();
        writer.write(trace.events.clone());
        writer.finish().unwrap();
        let tables = Analysis::from_chunk_dir(&dir).group_by([Dim::Process]).tables().unwrap();
        let streamed = MultiProcessReport::from_tables(tables, &names, deps, &smi);
        assert_eq!(streamed, in_memory);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
