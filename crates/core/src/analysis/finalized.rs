//! Sources whose sweeps already ran: live snapshots and rollups.

use super::exec::ViewTables;
use super::{Analysis, AnalysisError, Dim, FirstSeen, LiveTables, LiveView};
use crate::overlap::{BreakdownTable, PhaseTables};
use crate::rollup::Rollup;
use rlscope_sim::ids::ProcessId;
use std::sync::Arc;

/// One sweep's tables by phase, merged in first-seen phase order.
type Phases = FirstSeen<Arc<str>, BreakdownTable>;

impl Analysis<'_> {
    /// Live-snapshot execution: the sweeps already ran at ingest, so the
    /// query only selects among their finalized tables
    /// ([`Analysis::select_finalized`]); phase and operation filters
    /// apply downstream, as for every other source.
    pub(super) fn resolve_live(
        &self,
        tables: &LiveTables,
        filters: bool,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        if self.window.is_some() {
            return Err(AnalysisError::Unsupported(
                "time_window over a live snapshot: sweep state has no event-level \
                 granularity — window queries need the session's chunk directory"
                    .to_string(),
            ));
        }
        self.select_finalized((tables.merged.clone(), tables.per_process.clone()), filters)
    }

    /// Selects among tables whose sweeps already ran by the one rule of
    /// [`LiveView::for_query`]: the merged-stream tables, or the
    /// per-process ones (every process, or the filtered one; an absent
    /// pid yields the empty table an in-memory source would produce). A
    /// view the source does not hold (`None`) is a typed error.
    pub(super) fn select_finalized(
        &self,
        (merged, per_process): ViewTables,
        filters: bool,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        let absent = |view: &str| {
            AnalysisError::Unsupported(format!(
                "this live snapshot was taken without the {view} view the query reads \
                 (take it with LiveView::for_query over the same dims and process filter)"
            ))
        };
        let pid_filter = self.process_filter.filter(|_| filters);
        if LiveView::for_query(&self.dims, pid_filter) == LiveView::Merged {
            return Ok(vec![(None, merged.ok_or_else(|| absent("merged"))?)]);
        }
        let per_process = per_process.ok_or_else(|| absent("per-process"))?;
        if self.dims.contains(&Dim::Process) {
            Ok(per_process
                .into_iter()
                .filter(|(pid, _)| pid_filter.is_none_or(|want| *pid == want))
                .map(|(pid, t)| (Some(pid), t))
                .collect())
        } else {
            let own = per_process.into_iter().find(|(p, _)| Some(*p) == pid_filter);
            Ok(vec![(None, own.map(|(_, t)| t).unwrap_or_default())])
        }
    }

    /// Rollup-directory execution: the sweeps ran at compaction time, so
    /// the query selects segments by window, merges their stored tables
    /// and selects among them as a live snapshot does
    /// ([`Analysis::select_finalized`]), plus the segment-granularity
    /// window rule (see [`Analysis::from_rollup_dir`]). No raw event is
    /// ever decoded.
    pub(super) fn resolve_rollup(
        &self,
        rollup: &Rollup,
        filters: bool,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        let selected: Vec<usize> = match self.window.filter(|_| filters) {
            None => (0..rollup.segments().len()).collect(),
            Some((lo, hi)) => {
                rollup.select_window(lo.as_nanos(), hi.as_nanos()).ok_or_else(|| {
                    AnalysisError::Unsupported(format!(
                        "time_window [{}, {}) over a rollup splits a segment: rollups \
                         hold {} ns pre-aggregated windows, so window edges must land \
                         on segment boundaries (raw resolution needs the raw tier)",
                        lo.as_nanos(),
                        hi.as_nanos(),
                        rollup.segment_ns(),
                    ))
                })?
            }
        };
        // Time-ordered segments merge phase by phase in first-seen order,
        // which is the phase order one sweep of the covering window gives
        // (a phase's first attribution instant is monotone across them).
        let mut merged: Phases = FirstSeen::default();
        let mut per_proc: FirstSeen<ProcessId, Phases> = FirstSeen::default();
        for idx in selected {
            let seg = rollup.read_segment(idx)?;
            merged.extend(seg.merged);
            per_proc.extend(
                seg.per_process
                    .into_iter()
                    .map(|(pid, tables)| (pid, tables.into_iter().collect())),
            );
        }
        // Segments store presence rows (empty tables mark a phase whose
        // annotation intersects the window) to pin cross-segment group
        // order; a sweep never emits empty phase groups, so drop the
        // rows that stayed empty after the merge.
        let present = |tables: Phases| -> PhaseTables {
            tables.into_vec().into_iter().filter(|(_, t)| !t.is_empty()).collect()
        };
        let per_proc = per_proc.into_vec().into_iter().map(|(pid, t)| (pid, present(t))).collect();
        self.select_finalized((Some(present(merged)), Some(per_proc)), filters)
    }
}
