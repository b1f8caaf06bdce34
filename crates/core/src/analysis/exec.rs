//! The sweep executor and what feeds it: an event slice, or a chunk
//! directory's pushdown selection and release frontiers.

use super::{Analysis, AnalysisError, Dim, LiveView};
use crate::event::Event;
use crate::intern::Interner;
use crate::overlap::{OverlapSweep, PhaseTables, SweepError, NO_PHASE};
use crate::store::{
    decode_workers, for_each_decoded_chunk_columns, ChunkQuery, Cut, EventRow, Manifest, OpenScope,
    TraceIoError, TAG_OP, TAG_PHASE,
};
use rlscope_sim::ids::ProcessId;
use std::path::PathBuf;
use std::sync::Arc;

/// The one sweep executor (see the [module docs](crate::analysis)): the
/// [`OverlapSweep`]s one [`LiveView`] needs, fed rows that pass one
/// filter-and-clip rule ([`admit`]).
///
/// * `Merged` holds one merged-stream sweep; `PerProcess` one sweep per
///   process, made where its first admitted row arrives, so the slot
///   order is the group order.
/// * `Both` holds the per-process sweeps, plus a merged sweep from the
///   second process on. Until then the merged stream *is* the one
///   process's stream, so the merged sweep starts as a clone of that
///   process's sweep (checkpoints included) just before the second
///   process's rows land, and a single-process stream pays one push per
///   event, not two.
#[derive(Debug, Clone)]
pub(super) struct SweepSet {
    view: LiveView,
    /// Always under `Merged`, never under `PerProcess`.
    pub(super) merged: Option<OverlapSweep>,
    pub(super) per_process: Vec<(ProcessId, OverlapSweep)>,
    pid_filter: Option<u32>,
    /// The half-open window `[lo, hi)` rows are clipped to.
    window: Option<(u64, u64)>,
    /// An empty sweep, configured: each per-process slot starts as a
    /// clone of it (`None` under `Merged`, whose one sweep it became).
    template: Option<OverlapSweep>,
    /// How each sweep finishes ([`OverlapSweep::finalize_grouped`]
    /// unless the set's owner picks another form).
    finalize: fn(OverlapSweep) -> PhaseTables,
}

/// The merged-stream tables and the per-process tables a [`SweepSet`]
/// read returns, each `None` when the view read leaves it out.
pub(super) type ViewTables = (Option<PhaseTables>, Option<Vec<(ProcessId, PhaseTables)>>);

impl SweepSet {
    /// An empty, unfiltered and unclipped set for `view` whose sweeps
    /// start as `template`.
    pub(super) fn new(view: LiveView, template: OverlapSweep) -> Self {
        let (merged, template) = match view {
            LiveView::Merged => (Some(template), None),
            _ => (None, Some(template)),
        };
        SweepSet {
            view,
            merged,
            per_process: Vec::new(),
            pid_filter: None,
            window: None,
            template,
            finalize: OverlapSweep::finalize_grouped,
        }
    }

    /// Pushes one batch of rows: the rows [`admit`] keeps go to the
    /// merged sweep and to their process's sweep. Slots for the batch's
    /// new processes are made first, in first-appearance order, so the
    /// merged sweep of a [`LiveView::Both`] set is cloned before any row
    /// of the batch lands.
    ///
    /// # Errors
    ///
    /// The first [`SweepError`] of any sweep.
    pub(super) fn push_rows<R: EventRow>(
        &mut self,
        rows: impl Iterator<Item = R> + Clone,
    ) -> Result<(), SweepError> {
        match (self.pid_filter, self.window) {
            // Nothing to drop or clip: the rows go in as they are (the
            // wrapper cost a plain 10k-event query about 6 %).
            (None, None) => self.push_admitted(rows),
            (pid, window) => {
                self.push_admitted(rows.filter_map(move |row| admit(row, pid, window)))
            }
        }
    }

    fn push_admitted<R: EventRow>(
        &mut self,
        rows: impl Iterator<Item = R> + Clone,
    ) -> Result<(), SweepError> {
        let mut pids: Vec<u32> = Vec::new();
        if self.view != LiveView::Merged {
            for pid in rows.clone().map(|row| row.pid()) {
                if pids.last() != Some(&pid) && !pids.contains(&pid) {
                    pids.push(pid);
                }
            }
            self.make_slots(&pids);
        }
        if let Some(merged) = &mut self.merged {
            merged.push_rows(rows.clone())?;
        }
        for (pid, sweep) in &mut self.per_process {
            let pid = pid.as_u32();
            if pids.contains(&pid) {
                sweep.push_rows(rows.clone().filter(move |row| row.pid() == pid))?;
            }
        }
        Ok(())
    }

    /// Makes a per-process slot for each of `pids` the set has none
    /// for, in order (see the type docs on `Both`).
    fn make_slots(&mut self, pids: &[u32]) {
        for &pid in pids {
            if self.per_process.iter().all(|(known, _)| known.as_u32() != pid) {
                if self.view == LiveView::Both && self.merged.is_none() {
                    // At most one process so far (see the type docs).
                    self.merged = self.per_process.first().map(|(_, first)| first.clone());
                }
                self.per_process.push((ProcessId(pid), self.template.clone().unwrap_or_default()));
            }
        }
    }

    /// Enters a declared open scope into the merged sweep and its
    /// process's sweep ([`OverlapSweep::enter_scope`]).
    ///
    /// # Errors
    ///
    /// The first [`SweepError`] of any sweep.
    pub(super) fn enter(&mut self, scope: &OpenScope) -> Result<(), SweepError> {
        if self.view != LiveView::Merged {
            self.make_slots(&[scope.pid]);
        }
        let own = self.per_process.iter_mut().filter(|(pid, _)| pid.as_u32() == scope.pid);
        for sweep in self.merged.iter_mut().chain(own.map(|(_, sweep)| sweep)) {
            sweep.enter_scope(scope)?;
        }
        Ok(())
    }

    /// Lets every sweep of the set, and each one made later, sort and
    /// drain a large range on up to `workers` threads
    /// ([`OverlapSweep::set_workers`]).
    pub(super) fn fan_out(&mut self, workers: usize) {
        self.template.iter_mut().for_each(|sweep| sweep.set_workers(workers));
        self.sweeps().for_each(|sweep| sweep.set_workers(workers));
    }

    /// Releases every sweep to `t` ([`OverlapSweep::release_to`]).
    pub(super) fn release_to(&mut self, t: u64) {
        self.sweeps().for_each(|sweep| sweep.release_to(t));
    }

    /// The merged sweep, if any, then each process's.
    pub(super) fn sweeps(&mut self) -> impl Iterator<Item = &mut OverlapSweep> {
        self.merged.iter_mut().chain(self.per_process.iter_mut().map(|(_, sweep)| sweep))
    }

    /// The tables of the sweeps `view` covers, with the sweeps left as
    /// they were ([`OverlapSweep::tables_so_far`]).
    pub(super) fn tables_so_far(&mut self, view: LiveView) -> ViewTables {
        let per_process = if view.per_process() || self.merged.is_none() {
            self.per_process.iter_mut().map(|(pid, sweep)| (*pid, sweep.tables_so_far())).collect()
        } else {
            Vec::new()
        };
        let merged = self.merged.as_mut().filter(|_| view.merged());
        view_tables(view, merged.map(OverlapSweep::tables_so_far), per_process)
    }

    /// Finalizes the sweeps `view` covers, as
    /// [`SweepSet::tables_so_far`] reads them. A merged view drops the
    /// per-process sweeps before it drains the merged one.
    pub(super) fn finish(self, view: LiveView) -> ViewTables {
        let SweepSet { merged, per_process, finalize, .. } = self;
        let per_process = if view.per_process() || merged.is_none() {
            per_process.into_iter().map(|(pid, sweep)| (pid, finalize(sweep))).collect()
        } else {
            drop(per_process);
            Vec::new()
        };
        view_tables(view, merged.filter(|_| view.merged()).map(finalize), per_process)
    }
}

/// What a read of `view` returns, from the merged sweep's tables (when
/// the view covers it and the set has one) and the per-process ones.
/// With no merged sweep, the merged stream is the (at most one)
/// process's stream, and that process's tables serve both views.
fn view_tables(
    view: LiveView,
    merged: Option<PhaseTables>,
    per_process: Vec<(ProcessId, PhaseTables)>,
) -> ViewTables {
    let first = || per_process.first().map(|(_, tables)| tables.clone()).unwrap_or_default();
    let merged = view.merged().then(|| merged.unwrap_or_else(first));
    (merged, view.per_process().then_some(per_process))
}

/// A row as the sweeps see it: its span as [`admit`] let it in.
struct Clipped<R> {
    row: R,
    span: (u64, u64),
}

impl<R: EventRow> EventRow for Clipped<R> {
    fn pid(&self) -> u32 {
        self.row.pid()
    }
    fn tag(&self) -> u8 {
        self.row.tag()
    }
    fn span(&self) -> (u64, u64) {
        self.span
    }
    fn name(&self) -> &Arc<str> {
        self.row.name()
    }
    fn dense_id(&self, xlat: &mut Vec<u32>, interner: &mut Interner) -> u32 {
        self.row.dense_id(xlat, interner)
    }
}

/// The one filter-and-clip rule every row passes on its way into the
/// sweeps: a row of a process other than `pid` is dropped, and a row the
/// half-open window `[lo, hi)` does not intersect is dropped. A CPU/GPU
/// row that stays is clipped to the window; an operation or phase row
/// enters with its own span. Only CPU/GPU activity accrues time, so the
/// tables hold exactly the time inside the window, and attribution
/// within it — the innermost operation, the latest-activated phase —
/// depends on the active scopes *and* their start order, which clipping
/// them would erase: scopes spanning `lo` would all start there and
/// activate in arrival order, which for a profiler's close-ordered
/// stream is inside-out. A released sweep stays valid: the frontier
/// chunk footers give bounds the unclipped starts.
///
/// An **instant** row (`start == end`) is kept when its instant lies in
/// `[lo, hi)`. It attributes no time, but it carries *presence*: the
/// pid/phase/operation it introduces must enumerate in windowed queries
/// exactly as in the full stream (the rollup tier rebuilds group order
/// from per-window queries — see [`crate::rollup`]), and aligned windows
/// tile the line, so each instant lands in exactly one.
fn admit<R: EventRow>(row: R, pid: Option<u32>, window: Option<(u64, u64)>) -> Option<Clipped<R>> {
    if pid.is_some_and(|pid| row.pid() != pid) {
        return None;
    }
    let (start, end) = row.span();
    let span = match window {
        None => (start, end),
        Some((lo, hi)) => {
            let (s, t) = (start.max(lo), end.min(hi));
            let clipped =
                if matches!(row.tag(), TAG_OP | TAG_PHASE) { (start, end) } else { (s, t) };
            (s < t || (start == end && lo <= start && start < hi)).then_some(clipped)?
        }
    };
    Some(Clipped { row, span })
}

impl Analysis<'_> {
    /// Runs the query's sweep set over what `feed` pushes and selects
    /// among its tables by the rule every finalized source shares
    /// ([`Analysis::select_finalized`]). The set reads the view
    /// [`LiveView::for_query`] names, tags phases only when a phase is
    /// grouped or filtered, and takes the process filter and window
    /// unless `filters` is off (the unfiltered full view).
    pub(super) fn sweep(
        &self,
        filters: bool,
        feed: impl FnOnce(&mut SweepSet) -> Result<(), AnalysisError>,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        let pid_filter = self.process_filter.filter(|_| filters);
        let tagged = self.dims.contains(&Dim::Phase) || self.phase_filter.is_some();
        let template = OverlapSweep::new();
        let view = LiveView::for_query(&self.dims, pid_filter);
        let mut set =
            SweepSet::new(view, if tagged { template.with_phase_tagging() } else { template });
        set.pid_filter = pid_filter.map(ProcessId::as_u32);
        set.window = self.window.filter(|_| filters).map(|(lo, hi)| (lo.as_nanos(), hi.as_nanos()));
        set.finalize = match (self.keep_empty_phases, tagged) {
            (true, _) => OverlapSweep::finalize_grouped_keep_empty,
            (false, true) => OverlapSweep::finalize_grouped,
            // An untagged sweep has one phase row: finalize it as one table.
            (false, false) => |sweep| vec![(Arc::from(NO_PHASE), sweep.finalize())],
        };
        feed(&mut set)?;
        self.select_finalized(set.finish(view), filters)
    }

    /// The manifest-pushdown predicate for the current filters. Phase
    /// pushdown is withheld for [`NO_PHASE`] (not expressible as a chunk
    /// predicate) and for process-grouped **windowed** queries (group
    /// enumeration follows each process's first *in-window* event, which
    /// footers cannot locate) — see the module docs' table. Plain
    /// process-grouped queries push the phase down and keep each pid's
    /// first-appearance chunk instead, so group rows and their first-seen
    /// order survive the skipping exactly.
    fn chunk_query(&self, filters: bool) -> ChunkQuery {
        let mut query = ChunkQuery::default();
        if !filters {
            return query;
        }
        let per_process = self.dims.contains(&Dim::Process);
        if let Some((lo, hi)) = self.window {
            query.window = Some((lo.as_nanos(), hi.as_nanos()));
        }
        if let Some(pid) = self.process_filter {
            query.pid = Some(pid.as_u32());
        }
        if let Some(phase) = &self.phase_filter {
            if &**phase != NO_PHASE && !(per_process && self.window.is_some()) {
                query.phase = Some(phase.clone());
                // Exact group enumeration: a process row exists for every
                // process in the (possibly pid-filtered) stream even when
                // the phase contributes it nothing, in first-seen order.
                query.keep_pid_introductions = per_process;
            }
        }
        query
    }

    /// Resolves which chunk files the query must decode and what each
    /// one releases (see [`Selection`]), both from the chunk footers in
    /// `index`.
    pub(super) fn pushdown_selection(&self, index: &Manifest, filters: bool) -> Selection {
        let closing = index
            .entries()
            .last()
            .and_then(|entry| entry.footer.cut.as_ref())
            .map(Cut::closing_events)
            .unwrap_or_default();
        let mut query = self.chunk_query(filters);
        if !closing.is_empty() {
            // A phase still open has no span in any footer.
            query.phase = None;
            query.keep_pid_introductions = false;
        }
        let selected = index.select(&query);
        // Empty chunks carry `min_start == u64::MAX` and bound nothing;
        // the closing events follow the last chunk.
        let last = closing.iter().map(|e| e.start.as_nanos()).min().unwrap_or(u64::MAX);
        // The suffix minimum, by a scan from the last chunk back.
        let mut frontier: Vec<u64> = selected
            .iter()
            .rev()
            .scan(last, |later, entry| {
                let bound = *later;
                *later = bound.min(entry.footer.min_start);
                Some(bound)
            })
            .collect();
        frontier.reverse();
        Selection {
            files: selected.iter().map(|e| index.dir().join(&e.file)).collect(),
            frontier,
            closing,
        }
    }

    /// Sweeps the chunks `index` selects for this query, one pass, every
    /// sweep released behind each chunk's frontier.
    pub(super) fn sweep_index(
        &self,
        index: &Manifest,
        filters: bool,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        let selection = self.pushdown_selection(index, filters);
        self.sweep(filters, |set| push_chunks(set, &selection))
    }
}

/// What a chunk-directory query reads: the selected chunk files in
/// stream order and, beside each, its **release frontier** — the
/// earliest start any later selected chunk holds (`u64::MAX` after the
/// last), i.e. the time every sweep can be released to once that file is
/// pushed.
pub(super) struct Selection {
    pub(super) files: Vec<PathBuf>,
    pub(super) frontier: Vec<u64>,
    /// The scopes the directory's last chunk declares open, closed at
    /// its cut ([`Cut::closing_events`]): pushed after the last chunk.
    closing: Vec<Event>,
}

/// In-memory sources: the slice is pushed as it is, as one batch that
/// nothing is released behind. An unreleased sweep rejects nothing but
/// more scopes than its u32 ids can number.
pub(super) fn push_events(set: &mut SweepSet, events: &[Event]) -> Result<(), AnalysisError> {
    set.push_rows(events.iter()).map_err(|err| AnalysisError::Unsupported(err.to_string()))
}

/// Chunk-directory sources, one pass over the selected chunks: the
/// chunk-parallel decode stage feeds them in stream order, and after
/// each one every sweep is released to its frontier.
fn push_chunks(set: &mut SweepSet, selection: &Selection) -> Result<(), AnalysisError> {
    // An order violation means a footer promised a frontier its
    // chunks do not keep: corrupt outside input, like any other.
    let corrupt = |err: SweepError| TraceIoError::Corrupt(err.to_string());
    let mut frontiers = selection.frontier.iter().copied();
    let threads = decode_workers();
    // A large sort or drain uses as many threads as the decode stage,
    // also while the decode workers are still at work.
    set.fan_out(threads);
    for_each_decoded_chunk_columns(&selection.files, threads, |cols| {
        set.push_rows(cols.rows()).map_err(corrupt)?;
        // Every sweep, those this chunk did not feed or only just
        // created included: no later chunk starts before this. There is
        // one frontier per file; 0 would promise nothing.
        set.release_to(frontiers.next().unwrap_or(0));
        Ok(())
    })
    .map_err(AnalysisError::Io)?;
    set.push_rows(selection.closing.iter()).map_err(|err| AnalysisError::Io(corrupt(err)))
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ev, write_chunk_dir};
    use super::*;
    use crate::event::{CpuCategory, EventKind};
    use crate::overlap::compute_overlap;
    use rlscope_sim::time::TimeNs;

    /// Rewrites the footer in `chunk`'s own trailer as `forge` edits it,
    /// under a valid checksum, so only the footer cross-check of a full
    /// decode can tell.
    fn forge_footer(chunk: &std::path::Path, forge: impl FnOnce(&mut crate::store::ChunkFooter)) {
        use bytes::BufMut;
        let bytes = std::fs::read(chunk).unwrap();
        let mut footer = crate::store::read_chunk_footer(&bytes).unwrap().unwrap();
        let len_at = bytes.len() - 8;
        let footer_len = u32::from_be_bytes(bytes[len_at..len_at + 4].try_into().unwrap());
        let body = &bytes[..len_at - footer_len as usize];
        forge(&mut footer);
        let mut out = bytes::BytesMut::new();
        out.put_slice(body);
        crate::store::encode_footer_payload(&footer, &mut out);
        out.put_u32((out.len() - body.len()) as u32);
        out.put_slice(&bytes[len_at + 4..]);
        std::fs::write(chunk, &out[..]).unwrap();
    }

    /// A start-sorted stream of `n` events, one operation in sixteen,
    /// each operation spanning the fifteen events after it.
    fn start_sorted_events(n: u64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                if i % 16 == 0 {
                    ev(0, EventKind::Operation, "op", i * 10, i * 10 + 155)
                } else {
                    ev(0, EventKind::Cpu(CpuCategory::Python), "py", i * 10, i * 10 + 9)
                }
            })
            .collect()
    }

    /// The working set is derived, not chosen: on a start-sorted
    /// directory the frontier is the next chunk's first start, and a
    /// sweep released to it after every chunk never holds more than two
    /// chunks' boundaries plus the open scopes — at any stream length.
    #[test]
    fn start_sorted_working_set_stays_within_two_chunks() {
        const PER_CHUNK: usize = 64;
        for n in [640u64, 6_400] {
            let events = start_sorted_events(n);
            let dir = write_chunk_dir("workset", &events, PER_CHUNK);
            let query = Analysis::from_chunk_dir(&dir);
            let selection = query.pushdown_selection(&Manifest::open(&dir).unwrap(), true);
            assert_eq!(selection.files.len(), n as usize / PER_CHUNK);
            for (i, &frontier) in selection.frontier.iter().enumerate() {
                let next = events.get((i + 1) * PER_CHUNK).map_or(u64::MAX, |e| e.start.as_nanos());
                assert_eq!(frontier, next, "chunk {i}");
            }
            let mut sweep = OverlapSweep::new();
            let mut frontiers = selection.frontier.iter();
            let mut max_pending = 0;
            for_each_decoded_chunk_columns(&selection.files, 1, |cols| {
                sweep.push_columns(&cols).unwrap();
                sweep.release_to(*frontiers.next().unwrap());
                max_pending = max_pending.max(sweep.pending_boundaries());
                Ok(())
            })
            .unwrap();
            // One operation and one CPU span can straddle a chunk edge.
            assert!(max_pending <= 2 * 2 * PER_CHUNK + 2, "{n} events: {max_pending} pending");
            assert_eq!(sweep.finalize(), compute_overlap(&events));
            assert_eq!(query.table().unwrap(), compute_overlap(&events));
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// A footer is outside input. The last chunk's, forged to overstate
    /// its `min_start` under a valid checksum, promises the earlier
    /// chunks a frontier the last one does not keep: every query shape
    /// fails with a typed corruption error — no panic, no table, no
    /// second pass — and the true footer answers again. The forgery is
    /// caught by the decode's footer cross-check, before the chunk's
    /// late event could meet the released sweeps.
    #[test]
    fn overstated_min_start_in_the_manifest_is_typed_corruption() {
        let mut events = start_sorted_events(64);
        // Recorded at close, in the last chunk: starts before chunk 1.
        events.push(ev(1, EventKind::Operation, "late", 50, 700));
        let dir = write_chunk_dir("forged", &events, 13);
        let queries = || {
            [
                Analysis::from_chunk_dir(&dir),
                Analysis::from_chunk_dir(&dir).group_by([Dim::Process]),
                Analysis::from_chunk_dir(&dir).time_window(TimeNs::ZERO, TimeNs::from_micros(900)),
            ]
        };
        let last = crate::store::list_chunk_files(&dir).unwrap().pop().unwrap();
        let genuine = std::fs::read(&last).unwrap();
        forge_footer(&last, |footer| footer.min_start = footer.max_start);
        for query in queries() {
            let err = query.tables().unwrap_err();
            assert!(matches!(err, AnalysisError::Io(TraceIoError::Corrupt(_))), "{err}");
            assert!(err.to_string().contains("footer contradicts chunk events"), "{err}");
        }
        std::fs::write(&last, genuine).unwrap();
        let expected = Analysis::of_events(&events);
        assert_eq!(queries()[0].table().unwrap(), expected.table().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// 16 chunks with disjoint time ranges: a windowed query must decode
    /// strictly fewer chunks than the directory holds while producing
    /// exactly the full scan's windowed table.
    #[test]
    fn time_window_pushdown_skips_chunks_and_matches_batch() {
        let mut events = Vec::new();
        for c in 0..16u64 {
            for i in 0..8u64 {
                let t = c * 10_000 + i * 1_000;
                events.push(ev(
                    (i % 2) as u32,
                    if i == 0 { EventKind::Operation } else { EventKind::Cpu(CpuCategory::Python) },
                    if i == 0 { "op" } else { "py" },
                    t,
                    t + 800,
                ));
            }
        }
        let dir = write_chunk_dir("window", &events, 8);
        let lo = TimeNs::from_micros(20_000);
        let hi = TimeNs::from_micros(50_000);
        let query = Analysis::from_chunk_dir(&dir).time_window(lo, hi);
        let (decoded, total) = query.chunk_plan().unwrap().expect("chunk-dir source");
        assert_eq!(total, 16);
        assert!(decoded < total, "pushdown decoded {decoded}/{total}");
        assert!(decoded >= 3, "window spans 3 chunks, got {decoded}");
        let expected = Analysis::of_events(&events).time_window(lo, hi).table().unwrap();
        assert_eq!(query.table().unwrap(), expected);
        // A given index plans and answers the same, and is the one read:
        // with the window's chunks left out of it, they are not decoded.
        let index = Manifest::open(&dir).unwrap();
        let given = Analysis::from_chunk_index(&index).time_window(lo, hi);
        assert_eq!(given.chunk_plan().unwrap(), Some((decoded, total)));
        assert_eq!(given.table().unwrap(), expected);
        let mut entries = index.entries().to_vec();
        entries.retain(|e| !e.footer.overlaps(lo.as_nanos(), hi.as_nanos()));
        let stripped = Manifest::from_entries(&dir, entries);
        let stripped = Analysis::from_chunk_index(&stripped).time_window(lo, hi);
        assert_eq!(stripped.chunk_plan().unwrap(), Some((0, total - decoded)));
        // Unfiltered plan decodes everything.
        assert_eq!(Analysis::from_chunk_dir(&dir).chunk_plan().unwrap(), Some((16, 16)));
        // In-memory sources have no chunk plan.
        assert_eq!(Analysis::of_events(&events).chunk_plan().unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn process_pushdown_skips_chunks_and_matches_batch() {
        // Each chunk holds one pid; filtering pid 2 decodes 1/3 of them.
        let mut events = Vec::new();
        for c in 0..9u64 {
            let pid = (c % 3) as u32;
            for i in 0..4u64 {
                let t = c * 1_000 + i * 100;
                events.push(ev(pid, EventKind::Cpu(CpuCategory::Python), "py", t, t + 80));
            }
        }
        let dir = write_chunk_dir("pid", &events, 4);
        let query = Analysis::from_chunk_dir(&dir).process(ProcessId(2));
        let (decoded, total) = query.chunk_plan().unwrap().unwrap();
        assert_eq!((decoded, total), (3, 9));
        let expected = Analysis::of_events(&events).process(ProcessId(2)).table().unwrap();
        assert_eq!(query.table().unwrap(), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn phase_pushdown_skips_chunks_and_matches_batch() {
        // A phase recorded at close (profiler order): its event lands in
        // a later chunk than the time it covers. Chunks far outside the
        // phase's span are skipped; the table still matches the batch.
        let mut events: Vec<Event> = (0..64u64)
            .map(|i| ev(0, EventKind::Cpu(CpuCategory::Python), "py", i * 1_000, i * 1_000 + 900))
            .collect();
        // Covers [4ms, 10ms); recorded after the events it spans.
        events.insert(10, ev(0, EventKind::Phase, "warmup", 4_000, 10_000));
        let dir = write_chunk_dir("phase", &events, 8);
        let query = Analysis::from_chunk_dir(&dir).phase("warmup");
        let (decoded, total) = query.chunk_plan().unwrap().unwrap();
        assert!(decoded < total, "pushdown decoded {decoded}/{total}");
        let expected = Analysis::of_events(&events).phase("warmup").table().unwrap();
        assert!(!expected.is_empty());
        assert_eq!(query.table().unwrap(), expected);
        // NO_PHASE is not a chunk predicate: nothing is skipped, results
        // still agree.
        let untagged = Analysis::from_chunk_dir(&dir).phase(NO_PHASE);
        assert_eq!(untagged.chunk_plan().unwrap(), Some((total, total)));
        assert_eq!(
            untagged.table().unwrap(),
            Analysis::of_events(&events).phase(NO_PHASE).table().unwrap()
        );
        // Process-grouped phase queries push down too now: per-pid phase
        // presence in the footers plus introduction-chunk keeping make
        // the skipped scan enumeration-exact.
        let grouped = Analysis::from_chunk_dir(&dir).phase("warmup").group_by([Dim::Process]);
        let (gdec, gtotal) = grouped.chunk_plan().unwrap().unwrap();
        assert!(gdec < gtotal, "grouped pushdown decoded {gdec}/{gtotal}");
        assert_eq!(
            grouped.tables().unwrap(),
            Analysis::of_events(&events).phase("warmup").group_by([Dim::Process]).tables().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The lifted `Dim::Process` carve-out: a phase-filtered grouped
    /// query skips chunks, yet a process whose only events sit far
    /// outside the phase span keeps its (empty) group row in first-seen
    /// order, because its introduction chunk is retained.
    #[test]
    fn grouped_phase_pushdown_preserves_group_enumeration() {
        let mut events = Vec::new();
        // pid 7 appears first — and never again after the first chunk.
        events.push(ev(7, EventKind::Cpu(CpuCategory::Simulator), "sim", 0, 500));
        events.push(ev(7, EventKind::Cpu(CpuCategory::Simulator), "sim", 600, 900));
        // pid 0 carries a long tail of work plus the phase annotation.
        for i in 0..32u64 {
            let t = 10_000 + i * 1_000;
            events.push(ev(0, EventKind::Cpu(CpuCategory::Python), "py", t, t + 800));
        }
        events.push(ev(0, EventKind::Phase, "train", 30_000, 36_000));
        let dir = write_chunk_dir("groupenum", &events, 2);
        let grouped = Analysis::from_chunk_dir(&dir).phase("train").group_by([Dim::Process]);
        let (decoded, total) = grouped.chunk_plan().unwrap().unwrap();
        assert!(decoded < total, "grouped pushdown decoded {decoded}/{total}");
        let batch =
            Analysis::of_events(&events).phase("train").group_by([Dim::Process]).tables().unwrap();
        let streamed = grouped.tables().unwrap();
        assert_eq!(streamed, batch);
        // pid 7's row survives (empty) and leads, pid 0 follows.
        assert_eq!(streamed.len(), 2);
        assert_eq!(streamed[0].0.process, Some(ProcessId(7)));
        assert!(streamed[0].1.is_empty());
        assert_eq!(streamed[1].0.process, Some(ProcessId(0)));
        assert!(!streamed[1].1.is_empty());
        // A process filter composes with the pid-refined phase span: the
        // pid-7 view decodes almost nothing and still matches batch.
        let filtered = Analysis::from_chunk_dir(&dir)
            .phase("train")
            .group_by([Dim::Process])
            .process(ProcessId(7));
        assert_eq!(
            filtered.tables().unwrap(),
            Analysis::of_events(&events)
                .phase("train")
                .group_by([Dim::Process])
                .process(ProcessId(7))
                .tables()
                .unwrap()
        );
        // Windowed grouped queries keep the conservative full-phase scan
        // (enumeration follows the first in-window event), still
        // matching batch.
        let windowed = Analysis::from_chunk_dir(&dir)
            .phase("train")
            .group_by([Dim::Process])
            .time_window(TimeNs::from_micros(10_000), TimeNs::from_micros(40_000));
        assert_eq!(
            windowed.tables().unwrap(),
            Analysis::of_events(&events)
                .phase("train")
                .group_by([Dim::Process])
                .time_window(TimeNs::from_micros(10_000), TimeNs::from_micros(40_000))
                .tables()
                .unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A filter naming a phase that exists nowhere decodes nothing and
    /// returns the empty result the batch path produces.
    #[test]
    fn absent_phase_pushdown_decodes_nothing() {
        let events: Vec<Event> =
            (0..8u64).map(|i| ev(0, EventKind::Cpu(CpuCategory::Python), "py", i, i + 1)).collect();
        let dir = write_chunk_dir("absent", &events, 2);
        let query = Analysis::from_chunk_dir(&dir).phase("never");
        let (decoded, _) = query.chunk_plan().unwrap().unwrap();
        assert_eq!(decoded, 0);
        assert_eq!(
            query.table().unwrap(),
            Analysis::of_events(&events).phase("never").table().unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Windowed per-process grouping: streamed and batch paths must
    /// enumerate identical groups — an event fully clipped away creates a
    /// group in neither.
    #[test]
    fn windowed_process_groups_match_batch_enumeration() {
        let events = vec![
            ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 100),
            ev(1, EventKind::Cpu(CpuCategory::Python), "py", 500, 600), // outside window
        ];
        let dir = write_chunk_dir("wgroups", &events, 1);
        let window = (TimeNs::ZERO, TimeNs::from_micros(200));
        let batch = Analysis::of_events(&events)
            .time_window(window.0, window.1)
            .group_by([Dim::Process])
            .tables()
            .unwrap();
        let streamed = Analysis::from_chunk_dir(&dir)
            .time_window(window.0, window.1)
            .group_by([Dim::Process])
            .tables()
            .unwrap();
        assert_eq!(streamed, batch);
        assert_eq!(streamed.len(), 1, "pid 1 is fully clipped away: {streamed:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
