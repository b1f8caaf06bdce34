//! The finalized trace of one profiled process, and multi-process merging.

use crate::analysis::Analysis;
use crate::event::{BookkeepingCounts, Event};
use crate::overlap::BreakdownTable;
use crate::profiler::TransitionKind;
use rlscope_sim::cuda::CudaApiKind;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::{DurationNs, TimeNs};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Everything recorded for one process in one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The traced process.
    pub pid: ProcessId,
    /// All recorded intervals.
    pub events: Vec<Event>,
    /// Book-keeping occurrence counters.
    pub counts: BookkeepingCounts,
    /// Per-(operation, kind) transition counts.
    pub per_op_transitions: Vec<((Arc<str>, TransitionKind), u64)>,
    /// Per-CUDA-API `(call count, total CPU duration)`.
    pub api_stats: Vec<(CudaApiKind, (u64, DurationNs))>,
    /// Training-loop iterations marked.
    pub iterations: u64,
    /// Clock value when the trace was finalized.
    pub wall_end: TimeNs,
}

impl Trace {
    /// Total wall-clock time covered by the trace (finalization instant —
    /// the profiled program ran from 0 to here).
    pub fn wall_time(&self) -> DurationNs {
        self.wall_end - TimeNs::ZERO
    }

    /// Runs the overlap sweep over this trace's events — a wrapper over
    /// `Analysis::of(self).table()` ([`Analysis`]).
    #[expect(clippy::expect_used, reason = "an in-memory analysis cannot fail")]
    pub fn breakdown(&self) -> BreakdownTable {
        Analysis::of(self).table().expect("in-memory analysis cannot fail")
    }

    /// Transition count for one operation and kind.
    pub fn transitions_for(&self, op: &str, kind: TransitionKind) -> u64 {
        self.per_op_transitions
            .iter()
            .filter(|((o, k), _)| &**o == op && *k == kind)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Transitions per training iteration (Figure 4c/4d's y-axis).
    ///
    /// Returns 0.0 if no iterations were marked.
    pub fn transitions_per_iteration(&self, op: &str, kind: TransitionKind) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.transitions_for(op, kind) as f64 / self.iterations as f64
        }
    }

    /// Mean CPU duration of one CUDA API across the run (difference-of-
    /// average calibration input).
    pub fn api_mean(&self, api: CudaApiKind) -> Option<DurationNs> {
        self.api_stats.iter().find(|(a, _)| *a == api).and_then(|(_, (n, total))| {
            if *n == 0 {
                None
            } else {
                Some(*total / *n)
            }
        })
    }

    /// Operation names seen in annotations, deduplicated, in first-seen
    /// order of the event stream.
    pub fn operation_names(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = Vec::new();
        for e in &self.events {
            if e.kind == crate::event::EventKind::Operation && !names.iter().any(|n| n == &e.name) {
                names.push(e.name.clone());
            }
        }
        names
    }

    /// Merges traces from multiple processes into one (the multi-process
    /// view of paper §4.3). Events keep their per-process ids; counters
    /// and iteration counts are summed; the wall end is the max.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty.
    #[expect(clippy::expect_used, reason = "documented panic on zero traces")]
    pub fn merge(traces: impl IntoIterator<Item = Trace>) -> Trace {
        let mut iter = traces.into_iter();
        let mut merged = iter.next().expect("merge of zero traces");
        for t in iter {
            merged.events.extend(t.events);
            merged.counts.annotations += t.counts.annotations;
            merged.counts.backend_transitions += t.counts.backend_transitions;
            merged.counts.simulator_transitions += t.counts.simulator_transitions;
            merged.counts.cuda_api_calls += t.counts.cuda_api_calls;
            merged.iterations += t.iterations;
            merged.wall_end = merged.wall_end.max(t.wall_end);
            merge_counts(&mut merged.per_op_transitions, t.per_op_transitions, |n, more| {
                *n += more
            });
            merge_counts(&mut merged.api_stats, t.api_stats, |(n, total), (more, time)| {
                *n += more;
                *total += time;
            });
        }
        merged
    }

    /// Events belonging to one process (after a merge).
    pub fn events_for(&self, pid: ProcessId) -> Vec<&Event> {
        self.events.iter().filter(|e| e.pid == pid).collect()
    }
}

/// Find-or-push accumulation of keyed counter rows into an existing
/// list, for [`Trace::merge`]: a key already there has `add` fold the
/// new row's counts into its own, and a new key is appended.
fn merge_counts<K: PartialEq, V>(
    dst: &mut Vec<(K, V)>,
    src: impl IntoIterator<Item = (K, V)>,
    add: impl Fn(&mut V, V),
) {
    for (key, n) in src {
        match dst.iter_mut().find(|(k, _)| *k == key) {
            Some((_, existing)) => add(existing, n),
            None => dst.push((key, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::Dim;
    use crate::event::{CpuCategory, EventKind};

    fn trace_with(pid: u32, n_backend: u64, end_us: u64) -> Trace {
        Trace {
            pid: ProcessId(pid),
            events: vec![Event::new(
                ProcessId(pid),
                EventKind::Cpu(CpuCategory::Python),
                "python",
                TimeNs::ZERO,
                TimeNs::from_micros(end_us),
            )],
            counts: BookkeepingCounts { backend_transitions: n_backend, ..Default::default() },
            per_op_transitions: vec![((Arc::from("backprop"), TransitionKind::Backend), n_backend)],
            api_stats: vec![(CudaApiKind::LaunchKernel, (2, DurationNs::from_micros(13)))],
            iterations: 2,
            wall_end: TimeNs::from_micros(end_us),
        }
    }

    #[test]
    fn wall_time_and_breakdown() {
        let t = trace_with(0, 1, 50);
        assert_eq!(t.wall_time(), DurationNs::from_micros(50));
        assert_eq!(t.breakdown().total(), DurationNs::from_micros(50));
    }

    #[test]
    fn api_mean_divides_total_by_count() {
        let t = trace_with(0, 1, 10);
        assert_eq!(t.api_mean(CudaApiKind::LaunchKernel), Some(DurationNs::from_nanos(6_500)));
        assert_eq!(t.api_mean(CudaApiKind::MemcpyAsync), None);
    }

    #[test]
    fn merge_sums_counters_and_keeps_pids() {
        let merged = Trace::merge(vec![trace_with(0, 3, 100), trace_with(1, 4, 80)]);
        assert_eq!(merged.counts.backend_transitions, 7);
        assert_eq!(merged.iterations, 4);
        assert_eq!(merged.wall_end, TimeNs::from_micros(100));
        assert_eq!(merged.events_for(ProcessId(1)).len(), 1);
        assert_eq!(merged.transitions_for("backprop", TransitionKind::Backend), 7);
        // API stats merged: 4 calls totalling 26us → mean 6.5us.
        assert_eq!(merged.api_mean(CudaApiKind::LaunchKernel), Some(DurationNs::from_nanos(6_500)));
        // Per-process breakdown only sees that process.
        let only_1 = Analysis::of(&merged).process(ProcessId(1)).table().unwrap();
        assert_eq!(only_1.total(), DurationNs::from_micros(80));
    }

    #[test]
    fn transitions_per_iteration_divides() {
        let t = trace_with(0, 6, 10);
        assert_eq!(t.transitions_per_iteration("backprop", TransitionKind::Backend), 3.0);
        assert_eq!(t.transitions_per_iteration("inference", TransitionKind::Backend), 0.0);
    }

    #[test]
    fn transitions_per_iteration_zero_iterations_is_zero_not_nan() {
        let mut t = trace_with(0, 6, 10);
        t.iterations = 0;
        let v = t.transitions_per_iteration("backprop", TransitionKind::Backend);
        assert_eq!(v, 0.0);
        assert!(!v.is_nan());
    }

    #[test]
    #[should_panic(expected = "zero traces")]
    fn merge_empty_panics() {
        Trace::merge(Vec::new());
    }

    #[test]
    fn parallel_per_process_matches_serial_filtering() {
        let merged = Trace::merge(vec![
            trace_with(0, 1, 100),
            trace_with(1, 2, 80),
            trace_with(2, 3, 60),
            trace_with(3, 4, 40),
        ]);
        let parallel = Analysis::of(&merged).group_by([Dim::Process]).tables().unwrap();
        assert_eq!(parallel.len(), 4);
        // First-seen pid order of the merged event stream.
        assert_eq!(
            parallel.iter().map(|(k, _)| k.process).collect::<Vec<_>>(),
            (0..4).map(|p| Some(ProcessId(p))).collect::<Vec<_>>()
        );
        for (key, table) in &parallel {
            let pid = key.process.unwrap();
            let filtered = Analysis::of(&merged).process(pid).table().unwrap();
            assert_eq!(table, &filtered, "pid {pid:?}");
        }
        // The aggregate equals the sum of the partials.
        let aggregate = Analysis::of(&merged).group_by([Dim::Process]).table().unwrap();
        let expected: DurationNs = parallel.iter().map(|(_, t)| t.total()).sum();
        assert_eq!(aggregate.total(), expected);
        assert_eq!(aggregate.total(), DurationNs::from_micros(100 + 80 + 60 + 40));
    }

    #[test]
    fn parallel_per_process_empty_trace() {
        let mut t = trace_with(0, 0, 10);
        t.events.clear();
        assert!(Analysis::of(&t).group_by([Dim::Process]).tables().unwrap().is_empty());
        assert!(Analysis::of(&t).group_by([Dim::Process]).table().unwrap().is_empty());
    }

    #[test]
    fn streamed_chunk_dir_matches_in_memory_sharding() {
        use crate::store::TraceWriter;

        let mut merged =
            Trace::merge(vec![trace_with(0, 1, 100), trace_with(1, 2, 80), trace_with(2, 3, 60)]);
        // End-ordered disorder on pid 0: a later record starting earlier,
        // as the profiler's record-at-close order produces.
        let py = |s: u64, e: u64| {
            Event::new(
                ProcessId(0),
                EventKind::Cpu(CpuCategory::Python),
                "late",
                TimeNs::from_micros(s),
                TimeNs::from_micros(e),
            )
        };
        merged.events.push(py(150, 220));
        merged.events.push(py(110, 130));
        let dir = std::env::temp_dir().join(format!("rlscope_streamed_bd_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 64).unwrap();
        for chunk in merged.events.chunks(2) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();

        let expected = Analysis::of(&merged).group_by([Dim::Process]).tables().unwrap();
        let streamed = || Analysis::from_chunk_dir(&dir).group_by([Dim::Process]);
        // Every sweep is released behind the starts the footers of the
        // later chunks record, which the late records hold back — one
        // pass, no fallback, the same tables.
        assert_eq!(streamed().tables().unwrap(), expected);
        let windowed = |a: Analysis<'_>| {
            a.time_window(TimeNs::from_micros(105), TimeNs::from_micros(160)).tables().unwrap()
        };
        assert_eq!(windowed(streamed()), windowed(Analysis::of(&merged).group_by([Dim::Process])));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streamed_chunk_dir_propagates_errors() {
        let dir = std::env::temp_dir().join(format!("rlscope_streamed_err_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("chunk_00000.rls"), b"garbage").unwrap();
        assert!(Analysis::from_chunk_dir(&dir).group_by([Dim::Process]).tables().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
