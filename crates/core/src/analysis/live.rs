//! Live state: the executor over a still-streaming session, the checks
//! its declared chunks are held to, and its snapshots.

use super::exec::SweepSet;
use super::Dim;
#[cfg(doc)]
use super::{Analysis, AnalysisError};
use crate::event::Event;
use crate::overlap::{OverlapSweep, PhaseTables, SweepError};
use crate::store::{decode_workers, Cut, EventColumns, EventRow, OpenScope, TAG_OP, TAG_PHASE};
use rlscope_sim::ids::ProcessId;

/// Which of a live session's two sweep layouts a query reads: the
/// merged-stream sweep, the per-process sweeps, or both. A snapshot
/// sorts and drains what is new in every sweep it covers, and a query
/// reads exactly one layout, so the asker names it
/// ([`LiveView::for_query`]) and [`LiveState::snapshot_view`] touches
/// nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveView {
    /// The merged-stream tables: ungrouped-by-process, unfiltered-by-
    /// process queries.
    Merged,
    /// The per-process tables: [`Dim::Process`] grouping and
    /// [`Analysis::process`] filters.
    PerProcess,
    /// Both layouts ([`LiveState::snapshot`]) — for a caller that does
    /// not know the queries yet.
    Both,
}

impl LiveView {
    /// The view a query with these grouping dimensions and process
    /// filter reads — the one rule, shared by whoever takes the snapshot
    /// and by the executor that later reads it: per-process iff
    /// [`Dim::Process`] is grouped or a process filter is set (an
    /// ungrouped `.process(pid)` query means "sweep only that process's
    /// events", which is that process's own sweep).
    pub fn for_query(dims: &[Dim], process_filter: Option<ProcessId>) -> LiveView {
        if dims.contains(&Dim::Process) || process_filter.is_some() {
            LiveView::PerProcess
        } else {
            LiveView::Merged
        }
    }

    pub(super) fn merged(self) -> bool {
        self != LiveView::PerProcess
    }

    pub(super) fn per_process(self) -> bool {
        self != LiveView::Merged
    }
}

/// Incrementally-maintained sweep state over a **live** (still
/// in-flight) event stream — the analysis substrate behind the
/// `rlscope-collector` daemon's mid-session queries.
///
/// Feed accepted chunks with [`LiveState::push_columns`] as they arrive;
/// at any point, [`LiveState::snapshot_view`] returns [`LiveTables`] —
/// the finalized tables of the sweeps one [`LiveView`] needs, over
/// exactly the events observed so far — and [`Analysis::of_live`]
/// answers queries over them with batch-identical semantics (see the
/// [module docs](crate::analysis) on live-query consistency).
/// [`LiveState::snapshot`] is the same over both views.
///
/// A snapshot takes `&mut self` because it **keeps its work** in the
/// sweeps it read ([`OverlapSweep::tables_so_far`]; see the module docs:
/// a snapshot reads, it does not change, and costs what arrived since
/// the last one). Pushing a chunk never drains.
///
/// Internally this is the query executor over [`LiveView::Both`],
/// phase-tagged, and released only behind a declared stream's frontier
/// ([`LiveState::release`]): nothing else bounds a live stream's next
/// start. Its merged-stream sweep is not materialized until a second
/// process appears, so single-process sessions — the common case — pay
/// one sweep push per event, not two, and one resumed drain per
/// snapshot whichever view is asked.
#[derive(Debug, Clone)]
pub struct LiveState {
    sweeps: SweepSet,
    events: u64,
    /// The standing declaration, from the stream's first declared chunk
    /// on (see [`LiveState::push_columns`]).
    declared: Option<Declared>,
}

/// A declared stream's latest declaration as the live sweeps hold it:
/// the cut's clock and frontier, and each open scope with whether the
/// sweeps have entered its start ([`OverlapSweep::enter_scope`]).
#[derive(Debug, Clone)]
struct Declared {
    at: u64,
    frontier: u64,
    open: Vec<(OpenScope, bool)>,
}

impl Declared {
    /// A stream's first declaration: nothing before it promised
    /// anything, so nothing is checked.
    fn first(cut: &Cut) -> Declared {
        let open = cut.open.iter().map(|scope| (scope.clone(), false)).collect();
        Declared { at: cut.at, frontier: cut.frontier, open }
    }

    /// Holds the chunk `cols`, declared by `cut`, to this declaration
    /// and returns the one that replaces it. An event that starts
    /// before the frontier must close a declared scope, at or after the
    /// cut; every declared scope must close in the chunk or be declared
    /// again; a newly declared scope counts as a later event; and the
    /// frontier must not move back. Matching is by pid, kind, name and
    /// start, and identical scopes are interchangeable.
    ///
    /// # Errors
    ///
    /// [`SweepError::BrokenDeclaration`], naming the broken promise.
    fn next(&self, cols: &EventColumns, cut: &Cut) -> Result<Declared, SweepError> {
        let mut closed = vec![false; self.open.len()];
        for row in cols.rows() {
            let (start, end) = row.span();
            let tag = row.tag();
            let closes = matches!(tag, TAG_OP | TAG_PHASE)
                && self
                    .open
                    .iter()
                    .zip(&mut closed)
                    .find(|((scope, _), closed)| {
                        !**closed
                            && (scope.pid, scope.phase, scope.start)
                                == (row.pid(), tag == TAG_PHASE, start)
                            && scope.name == *row.name()
                    })
                    .map(|(_, closed)| *closed = true)
                    .is_some();
            if !closes && start < self.frontier {
                return Err(broken(format!(
                    "an event starts at {start} ns, before the frontier {} ns, and closes no \
                     declared scope",
                    self.frontier
                )));
            }
            if closes && end < self.at {
                return Err(broken(format!(
                    "a declared scope closes at {end} ns, before the cut {} ns it was open at",
                    self.at
                )));
            }
        }
        if cut.frontier < self.frontier {
            return Err(broken(format!(
                "the frontier moved back from {} ns to {} ns",
                self.frontier, cut.frontier
            )));
        }
        // Each still-open scope is carried into the new declaration,
        // keeping whether it was entered.
        let mut carried: Vec<Option<bool>> = vec![None; cut.open.len()];
        for ((scope, entered), _) in self.open.iter().zip(&closed).filter(|(_, closed)| !**closed) {
            let again = cut.open.iter().zip(&mut carried).find(|(s, c)| c.is_none() && *s == scope);
            let Some((_, slot)) = again else {
                return Err(broken(format!(
                    "scope {:?} (start {} ns) neither closed nor was declared again",
                    scope.name, scope.start
                )));
            };
            *slot = Some(*entered);
        }
        let open = cut.open.iter().zip(carried).map(|(scope, carried)| match carried {
            Some(entered) => Ok((scope.clone(), entered)),
            None if scope.start < self.frontier => Err(broken(format!(
                "scope {:?} starts at {} ns, before the frontier {} ns",
                scope.name, scope.start, self.frontier
            ))),
            None => Ok((scope.clone(), false)),
        });
        Ok(Declared { at: cut.at, frontier: cut.frontier, open: open.collect::<Result<_, _>>()? })
    }

    /// Ends every scope still open at the cut, in `sweeps`: an entered
    /// one by its end alone, any other as a whole event, innermost
    /// first — the stream as if the scopes closed at the cut.
    fn close(&self, sweeps: &mut SweepSet) {
        sweeps.sweeps().for_each(|sweep| sweep.close_entered(self.at));
        let rest: Vec<Event> = self
            .open
            .iter()
            .rev()
            .filter(|(_, entered)| !entered)
            .map(|(scope, _)| scope.closed_at(self.at))
            .collect();
        // These start at or past the frontier, so only more scopes than
        // a sweep can number fail; the tables then leave them out.
        let _ = sweeps.push_rows(rest.iter());
    }
}

/// A [`SweepError::BrokenDeclaration`] saying `what`.
fn broken(what: impl Into<String>) -> SweepError {
    SweepError::BrokenDeclaration(what.into())
}

impl Default for LiveState {
    fn default() -> Self {
        Self::with_sweep(OverlapSweep::new())
    }
}

impl LiveState {
    /// Empty live state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Test support, not a tuning knob: an empty live state whose sweeps
    /// lay a drain checkpoint every `ends` event ends
    /// ([`OverlapSweep::with_checkpoint_spacing`]), so that streams of a
    /// few dozen events exercise resumes and roll-backs.
    #[doc(hidden)]
    pub fn with_checkpoint_spacing(ends: usize) -> Self {
        Self::with_sweep(OverlapSweep::new().with_checkpoint_spacing(ends))
    }

    /// An empty live state whose phase-tagged sweeps start as `template`.
    fn with_sweep(template: OverlapSweep) -> Self {
        let sweeps = SweepSet::new(LiveView::Both, template.with_phase_tagging());
        LiveState { sweeps, events: 0, declared: None }
    }

    /// Events accepted so far (including zero-length and phase events).
    pub fn events_observed(&self) -> u64 {
        self.events
    }

    /// Accepts one decoded chunk ([`crate::store::decode_columns`]) into
    /// the live sweeps — the one apply path, shared by the collector's
    /// ingest and its crash-recovery replay. A chunk introducing the
    /// session's second process materializes the merged-stream sweep
    /// (see the type docs) before any of its events land.
    ///
    /// **Declared chunks** ([`EventColumns::cut`]). From a stream's first
    /// declared chunk on, each chunk is held to the previous
    /// declaration before anything of it lands (see the module docs on
    /// live consistency), and then its own declaration stands. A scope
    /// declared open is entered into the sweeps — its start logged as
    /// its close would log it — once its start lies before the
    /// declared frontier, in the order the closes will arrive
    /// (innermost first): no later event can start at that time, so
    /// the same-time start order, which decides nesting, is the one the
    /// whole stream would give. Its close then logs only its end.
    ///
    /// # Errors
    ///
    /// [`SweepError::MalformedColumns`] for hand-built columns that
    /// differ in length or name ids outside their name table;
    /// [`SweepError::BrokenDeclaration`] for a chunk that breaks the
    /// previous declaration, or sends none after it, with nothing of
    /// the chunk applied;
    /// otherwise [`SweepError`] from the underlying sweeps (only
    /// pathological annotation counts). After an error the state is
    /// to be discarded.
    pub fn push_columns(&mut self, cols: &EventColumns) -> Result<(), SweepError> {
        if !cols.readable() {
            return Err(SweepError::MalformedColumns);
        }
        let next = match (&self.declared, &cols.cut) {
            (None, None) => None,
            (Some(_), None) => return Err(broken("a declared stream sent an undeclared chunk")),
            (None, Some(cut)) => Some(Declared::first(cut)),
            (Some(held), Some(cut)) => Some(held.next(cols, cut)?),
        };
        self.sweeps.push_rows(cols.rows())?;
        self.events += cols.len() as u64;
        if let Some(mut next) = next {
            for (scope, entered) in next.open.iter_mut().rev() {
                if !*entered && scope.start < next.frontier {
                    self.sweeps.enter(scope)?;
                    *entered = true;
                }
            }
            self.declared = Some(next);
        }
        Ok(())
    }

    /// Drains the live sweeps up to the standing declaration's frontier
    /// for good and drops the boundary log behind it
    /// ([`OverlapSweep::release_to`]); nothing for an undeclared
    /// stream. The collector calls it once a chunk's ack is out, so
    /// the drain runs beside the stream and a seal finalizes only what
    /// arrived since. The tables do not change.
    pub fn release(&mut self) {
        if let Some(held) = &self.declared {
            self.sweeps.release_to(held.frontier);
        }
    }

    /// The finalized tables of the sweeps `view` covers, over exactly
    /// the events pushed so far ([`OverlapSweep::tables_so_far`] on
    /// each). Pushing may continue afterwards. A single-process
    /// session's one sweep is read once and its tables shared by both
    /// views.
    ///
    /// A declared stream with scopes open reads a copy of its sweeps,
    /// with those scopes closed at the cut: what
    /// [`crate::profiler::Profiler::snapshot`] shows at that instant.
    /// Its sweeps are released, so the copy holds about a chunk.
    pub fn snapshot_view(&mut self, view: LiveView) -> LiveTables {
        let open = self.declared.as_ref().filter(|held| !held.open.is_empty());
        let (merged, per_process) = match open {
            Some(held) => {
                let mut sweeps = self.sweeps.clone();
                held.close(&mut sweeps);
                sweeps.finish(view)
            }
            None => self.sweeps.tables_so_far(view),
        };
        LiveTables { merged, per_process, events: self.events }
    }

    /// The finalized tables of **both** views over exactly the events
    /// pushed so far: `snapshot_view(LiveView::Both)`.
    pub fn snapshot(&mut self) -> LiveTables {
        self.snapshot_view(LiveView::Both)
    }

    /// The merged-view tables over every event pushed — what
    /// `snapshot_view(LiveView::Merged)` returns — for a stream that has
    /// ended: the collector seals a cleanly finished session this way.
    /// Consuming the state lets it drop the per-process sweeps before
    /// the drain and finalize the merged sweep in place
    /// ([`OverlapSweep::finalize_grouped`], resuming from the latest
    /// valid checkpoint), so no sweep is cloned and no checkpoint is
    /// laid.
    ///
    /// A declared stream's scopes still open at its last cut close
    /// there, as in [`LiveState::snapshot_view`]; its sweeps were
    /// released chunk by chunk, so the seal drains about the last
    /// chunk.
    ///
    /// The seal sorts and drains on the decode stage's worker count, as
    /// a directory query does (see the module docs on threads), where an
    /// undeclared stream's whole log is over the fan-out minimums and a
    /// declared seal's last chunk stays below them.
    pub fn seal(mut self) -> LiveTables {
        if let Some(held) = self.declared.take() {
            held.close(&mut self.sweeps);
        }
        self.sweeps.fan_out(decode_workers());
        let (merged, per_process) = self.sweeps.finish(LiveView::Merged);
        LiveTables { merged, per_process, events: self.events }
    }
}

/// A finalized snapshot of a [`LiveState`]: per-phase tables for the
/// merged stream, for each process, or both — whichever [`LiveView`] the
/// snapshot was taken for — over exactly the events observed at snapshot
/// time. Query it with [`Analysis::of_live`]; a query that reads a view
/// the snapshot does not hold is a typed [`AnalysisError::Unsupported`],
/// never an empty table. A finished stream's seal ([`LiveState::seal`])
/// is the same tables, merged view only.
#[derive(Debug, Clone)]
pub struct LiveTables {
    /// `None` when the snapshot's view left the merged tables out.
    pub(super) merged: Option<PhaseTables>,
    /// `None` when the snapshot's view left the per-process tables out.
    pub(super) per_process: Option<Vec<(ProcessId, PhaseTables)>>,
    events: u64,
}

impl LiveTables {
    /// Events the snapshot covers — the consistency token a live query
    /// reports alongside its result.
    pub fn events_observed(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ev, phased_events};
    use super::*;
    use crate::analysis::{Analysis, AnalysisError};
    use crate::calibrate::Calibration;
    use crate::event::{CpuCategory, EventKind};
    use crate::overlap::NO_PHASE;
    use rlscope_sim::time::TimeNs;

    /// Every supported live query must equal its batch counterpart over
    /// the same events — the consistency contract of the collector's
    /// mid-session queries.
    #[test]
    fn live_state_queries_match_batch_semantics() {
        let events = phased_events();
        let mut live = LiveState::new();
        live.push_columns(&EventColumns::from_events(&events)).unwrap();
        assert_eq!(live.events_observed(), events.len() as u64);
        let tables = live.snapshot();
        assert_eq!(tables.events_observed(), events.len() as u64);

        // Ungrouped, grouped, filtered — all match the batch pipeline,
        // canonical JSON included.
        let cases: Vec<(Analysis<'_>, Analysis<'_>)> = vec![
            (Analysis::of_live(&tables), Analysis::of_events(&events)),
            (
                Analysis::of_live(&tables).group_by([Dim::Phase]),
                Analysis::of_events(&events).group_by([Dim::Phase]),
            ),
            (
                Analysis::of_live(&tables).group_by([Dim::Process]),
                Analysis::of_events(&events).group_by([Dim::Process]),
            ),
            (
                Analysis::of_live(&tables).group_by([Dim::Phase, Dim::Process, Dim::Operation]),
                Analysis::of_events(&events).group_by([Dim::Phase, Dim::Process, Dim::Operation]),
            ),
            (
                Analysis::of_live(&tables).phase("train"),
                Analysis::of_events(&events).phase("train"),
            ),
            (
                Analysis::of_live(&tables).phase(NO_PHASE),
                Analysis::of_events(&events).phase(NO_PHASE),
            ),
            (
                Analysis::of_live(&tables).process(ProcessId(1)),
                Analysis::of_events(&events).process(ProcessId(1)),
            ),
            (
                Analysis::of_live(&tables).process(ProcessId(9)),
                Analysis::of_events(&events).process(ProcessId(9)),
            ),
            (
                Analysis::of_live(&tables).operation("backprop"),
                Analysis::of_events(&events).operation("backprop"),
            ),
            (
                Analysis::of_live(&tables).process(ProcessId(0)).group_by([Dim::Phase]),
                Analysis::of_events(&events).process(ProcessId(0)).group_by([Dim::Phase]),
            ),
        ];
        for (i, (live_q, batch_q)) in cases.iter().enumerate() {
            assert_eq!(live_q.tables().unwrap(), batch_q.tables().unwrap(), "case {i}");
            assert_eq!(
                live_q.canonical_json().unwrap(),
                batch_q.canonical_json().unwrap(),
                "case {i}"
            );
        }
    }

    /// Snapshots are consistent prefixes: pushing more events afterwards
    /// neither disturbs an existing snapshot nor is visible to it, and a
    /// later snapshot covers the longer prefix.
    #[test]
    fn live_snapshots_are_nondestructive_prefixes() {
        let events = phased_events();
        let mut live = LiveState::new();
        let (first, rest) = events.split_at(4);
        live.push_columns(&EventColumns::from_events(first)).unwrap();
        let early = live.snapshot();
        live.push_columns(&EventColumns::from_events(rest)).unwrap();
        let late = live.snapshot();
        assert_eq!(
            Analysis::of_live(&early).table().unwrap(),
            Analysis::of_events(first).table().unwrap()
        );
        assert_eq!(
            Analysis::of_live(&late).table().unwrap(),
            Analysis::of_events(&events).table().unwrap()
        );
        assert!(
            Analysis::of_live(&late).table().unwrap().total()
                >= Analysis::of_live(&early).table().unwrap().total()
        );
    }

    /// The merged sweep materializes lazily: single-process streams never
    /// build it, and the promotion on the second process reproduces the
    /// from-the-start merged sweep exactly (the second pid first appears
    /// in a later chunk, so the promotion happens mid-stream).
    #[test]
    fn live_state_promotes_merged_sweep_exactly() {
        let single: Vec<Event> =
            phased_events().into_iter().filter(|e| e.pid == ProcessId(0)).collect();
        let mut live = LiveState::new();
        live.push_columns(&EventColumns::from_events(&single)).unwrap();
        assert!(live.sweeps.merged.is_none(), "single-pid streams skip the merged sweep");
        let t = live.snapshot();
        assert_eq!(
            Analysis::of_live(&t).table().unwrap(),
            Analysis::of_events(&single).table().unwrap()
        );

        let events = phased_events();
        let mut live = LiveState::new();
        live.push_columns(&EventColumns::from_events(&events[..6])).unwrap();
        assert!(live.sweeps.merged.is_none());
        live.push_columns(&EventColumns::from_events(&events[6..])).unwrap();
        assert!(live.sweeps.merged.is_some(), "second pid must materialize the merged sweep");
        assert_eq!(
            Analysis::of_live(&live.snapshot()).group_by([Dim::Phase]).tables().unwrap(),
            Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap()
        );
    }

    /// The queries that read `view`, as canonical JSON: the merged
    /// breakdown, then the per-process grouping and one process filtered
    /// out ungrouped.
    fn view_queries<'a>(view: LiveView, q: impl Fn() -> Analysis<'a>) -> Vec<String> {
        let mut queries = Vec::new();
        if view.merged() {
            queries.push(q().group_by([Dim::Phase, Dim::Operation]));
        }
        if view.per_process() {
            queries.extend([q().group_by([Dim::Process]), q().process(ProcessId(0))]);
        }
        queries.iter().map(|q| q.canonical_json().unwrap()).collect()
    }

    /// With no merged sweep a session's one sweep serves both views: a
    /// merged-only, a per-process-only and a both-view snapshot each
    /// equal batch and read that sweep alone — and still equal batch
    /// once a second pid has promoted the merged sweep mid-stream.
    #[test]
    fn single_process_snapshots_share_one_sweep_across_views() {
        let events = phased_events();
        let mut live = LiveState::new();
        for prefix in [6, events.len()] {
            live.push_columns(&EventColumns::from_events(&events[live.events as usize..prefix]))
                .unwrap();
            assert_eq!(live.sweeps.merged.is_none(), prefix == 6);
            for view in [LiveView::Merged, LiveView::PerProcess, LiveView::Both] {
                let tables = live.snapshot_view(view);
                assert_eq!(tables.events, prefix as u64);
                assert_eq!(tables.merged.is_some(), view.merged(), "{view:?} at {prefix}");
                assert_eq!(tables.per_process.is_some(), view.per_process(), "{view:?}");
                assert_eq!(
                    view_queries(view, || Analysis::of_live(&tables)),
                    view_queries(view, || Analysis::of_events(&events[..prefix])),
                    "{view:?} at {prefix}"
                );
            }
        }
    }

    /// A read of a view the snapshot was taken without is a typed error
    /// in both directions, never an empty table.
    #[test]
    fn absent_live_view_is_unsupported() {
        let mut live = LiveState::new();
        live.push_columns(&EventColumns::from_events(&phased_events())).unwrap();
        let merged_only = live.snapshot_view(LiveView::Merged);
        for q in [
            Analysis::of_live(&merged_only).group_by([Dim::Process]),
            Analysis::of_live(&merged_only).process(ProcessId(1)),
        ] {
            let err = q.tables().unwrap_err();
            assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
        }
        assert!(!Analysis::of_live(&merged_only).table().unwrap().is_empty());
        let per_process_only = live.snapshot_view(LiveView::PerProcess);
        let err = Analysis::of_live(&per_process_only).table().unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
    }

    /// The executor reads the view `LiveView::for_query` names for the
    /// same dims and filter: a snapshot taken for a query answers it.
    #[test]
    fn live_view_for_query_is_the_view_the_executor_reads() {
        let mut live = LiveState::new();
        live.push_columns(&EventColumns::from_events(&phased_events())).unwrap();
        let pid = Some(ProcessId(1));
        let cases: [(&[Dim], Option<ProcessId>, LiveView); 5] = [
            (&[], None, LiveView::Merged),
            (&[Dim::Phase, Dim::Operation], None, LiveView::Merged),
            (&[Dim::Session, Dim::Phase], None, LiveView::Merged),
            (&[Dim::Process], None, LiveView::PerProcess),
            (&[Dim::Phase], pid, LiveView::PerProcess),
        ];
        for (dims, filter, view) in cases {
            assert_eq!(LiveView::for_query(dims, filter), view, "{dims:?} {filter:?}");
            let tables = live.snapshot_view(view);
            let dims = dims.iter().copied().filter(|d| *d != Dim::Session);
            let mut q = Analysis::of_live(&tables).group_by(dims);
            if let Some(pid) = filter {
                q = q.process(pid);
            }
            q.tables().unwrap();
        }
    }

    /// Sort once: a snapshot leaves the live sweeps it covered in order,
    /// so a second one over an unchanged state has nothing to sort, and
    /// one more chunk leaves only that chunk's boundaries to sort —
    /// while a view that was never asked for stays untouched.
    #[test]
    fn snapshots_sort_only_what_arrived_since_the_last_one() {
        // End-ordered streams (how the profiler records): start times
        // arrive out of order, so every chunk leaves boundaries to sort.
        let chunk = |base: u64| -> Vec<Event> {
            (0..50u64)
                .flat_map(|i| {
                    let t = base + i * 10;
                    [
                        ev(0, EventKind::Cpu(CpuCategory::Python), "py", t + 1, t + 4),
                        ev(1, EventKind::Cpu(CpuCategory::Simulator), "sim", t + 2, t + 5),
                        ev(0, EventKind::Operation, "step", t, t + 6),
                    ]
                })
                .collect()
        };
        let unsorted = |live: &LiveState| -> (usize, usize) {
            let merged = live.sweeps.merged.as_ref().map_or(0, OverlapSweep::unsorted_boundaries);
            let per = live.sweeps.per_process.iter().map(|(_, s)| s.unsorted_boundaries()).sum();
            (merged, per)
        };
        let first = chunk(0);
        let mut live = LiveState::new();
        live.push_columns(&EventColumns::from_events(&first)).unwrap();
        let (merged, per) = unsorted(&live);
        assert!(merged > 0 && per > 0, "the stream must arrive disordered: {merged} {per}");

        live.snapshot_view(LiveView::Merged);
        assert_eq!(unsorted(&live), (0, per), "only the asked view is tidied");
        live.snapshot();
        assert_eq!(unsorted(&live), (0, 0));
        let twice = live.snapshot();

        let next = chunk(10_000);
        live.push_columns(&EventColumns::from_events(&next)).unwrap();
        let (merged, per) = unsorted(&live);
        // Two boundaries per event; a tail starts at the first disorder.
        assert!(0 < merged && merged <= 2 * next.len(), "{merged}");
        assert!(0 < per && per <= 2 * next.len(), "{per}");
        let events = [first.clone(), next].concat();
        let batch = view_queries(LiveView::Both, || Analysis::of_events(&events));
        let of_clone = live.clone().snapshot();
        assert_eq!(view_queries(LiveView::Both, || Analysis::of_live(&of_clone)), batch);
        assert_eq!(unsorted(&live), (merged, per), "a clone's snapshot tidies the clone");
        let of_live = live.snapshot();
        assert_eq!(view_queries(LiveView::Both, || Analysis::of_live(&of_live)), batch);
        // The earlier snapshot still answers over its own prefix.
        assert_eq!(
            view_queries(LiveView::Both, || Analysis::of_live(&twice)),
            view_queries(LiveView::Both, || Analysis::of_events(&first))
        );
    }

    /// Drain what arrived: a snapshot one chunk after the previous one
    /// drains about that chunk — behind a 100k-event prefix and behind a
    /// 600k-event one alike — an immediate repeat drains nothing, and a
    /// scope that starts at `t` but is pushed late rolls the drain back
    /// to the checkpoint before `t`, not to the first boundary.
    #[test]
    fn snapshots_drain_only_what_arrived_since_the_last_valid_checkpoint() {
        use crate::overlap::{CHECKPOINT_SPACING, LADDER_THINNING};
        const CHUNK: usize = 512;
        // Close-ordered, four processes in turn: a step's operation is
        // recorded after the activity it encloses, so every chunk brings
        // starts from before the end of the one before.
        let mut events: Vec<Event> = (0..200_000u64)
            .flat_map(|i| {
                let (t, pid) = (i * 10, (i % 4) as u32);
                [
                    ev(pid, EventKind::Cpu(CpuCategory::Python), "py", t + 1, t + 4),
                    ev(pid, EventKind::Cpu(CpuCategory::Simulator), "sim", t + 2, t + 5),
                    ev(pid, EventKind::Operation, "step", t, t + 6),
                ]
            })
            .collect();
        // Merged sweep first, then each process's.
        let drained = |live: &LiveState| -> Vec<usize> {
            let per = live.sweeps.per_process.iter().map(|(_, sweep)| sweep.last_drained());
            live.sweeps.merged.iter().map(OverlapSweep::last_drained).chain(per).collect()
        };
        let mut live = LiveState::new();
        let mut fed = 0;
        for at in [100_000, 600_000] {
            for chunk in events[fed..at - CHUNK].chunks(CHUNK) {
                live.push_columns(&EventColumns::from_events(chunk)).unwrap();
            }
            live.snapshot();
            live.push_columns(&EventColumns::from_events(&events[at - CHUNK..at])).unwrap();
            fed = at;
            live.snapshot();
            let one_chunk_later = drained(&live);
            assert_eq!(one_chunk_later.len(), 5);
            for n in one_chunk_later {
                assert!(0 < n && n <= 2 * CHUNK + 4 * CHECKPOINT_SPACING, "{n} drained at {at}");
            }
            live.snapshot();
            assert_eq!(drained(&live), [0; 5], "nothing arrived since");
        }

        let late = TimeNs::from_micros(1_500_000);
        events.push(ev(0, EventKind::Phase, "late", 1_500_000, 2_000_010));
        live.push_columns(&EventColumns::from_events(&events[fed..])).unwrap();
        let tables = live.snapshot();
        let behind = |pid: Option<u32>| {
            let of_pid = events.iter().filter(|e| pid.is_none_or(|pid| e.pid == ProcessId(pid)));
            of_pid.map(|e| usize::from(e.start >= late) + usize::from(e.end >= late)).sum::<usize>()
        };
        let rolled_back = drained(&live);
        for (n, behind) in [(rolled_back[0], behind(None)), (rolled_back[1], behind(Some(0)))] {
            let overshoot = 2 * CHECKPOINT_SPACING + behind / LADDER_THINNING;
            assert!(behind <= n && n <= behind + overshoot, "{n} drained, {behind} behind t");
        }
        assert_eq!(rolled_back[2..], [0; 3], "the other processes saw nothing new");
        assert_eq!(
            view_queries(LiveView::Both, || Analysis::of_live(&tables)),
            view_queries(LiveView::Both, || Analysis::of_events(&events))
        );
    }

    /// A seal is the merged snapshot, taken by consuming the state: for
    /// an empty stream, one process, and four whose merged sweep is
    /// promoted mid-stream — sealed cold, and after snapshots whose
    /// checkpoints a late phase then partly invalidates — `seal()`
    /// equals `snapshot_view(LiveView::Merged)` and the batch answer.
    #[test]
    fn seal_equals_the_merged_snapshot() {
        let four: Vec<Event> = (0..2_000u64)
            .flat_map(|i| {
                let (t, pid) = (i * 10, (i % 4) as u32);
                [
                    ev(pid, EventKind::Cpu(CpuCategory::Python), "py", t + 1, t + 4),
                    ev(pid, EventKind::Operation, "step", t, t + 6),
                ]
            })
            .chain([ev(0, EventKind::Phase, "late", 5_000, 15_000)])
            .collect();
        let one: Vec<Event> = four.iter().filter(|e| e.pid == ProcessId(0)).cloned().collect();
        for events in [Vec::new(), one, four, phased_events()] {
            for snapshot_every in [None, Some(3)] {
                let mut live = LiveState::with_checkpoint_spacing(8);
                for (i, chunk) in events.chunks(64).enumerate() {
                    live.push_columns(&EventColumns::from_events(chunk)).unwrap();
                    if snapshot_every.is_some_and(|n| i % n == 0) {
                        live.snapshot();
                    }
                }
                let snapshot = live.clone().snapshot_view(LiveView::Merged);
                let sealed = live.seal();
                assert_eq!(sealed.events, events.len() as u64);
                assert!(sealed.per_process.is_none());
                assert_eq!(sealed.merged, snapshot.merged, "{} events", events.len());
                assert_eq!(
                    view_queries(LiveView::Merged, || Analysis::of_live(&sealed)),
                    view_queries(LiveView::Merged, || Analysis::of_events(&events))
                );
            }
        }
    }

    #[test]
    fn live_unsupported_queries_error() {
        let tables = LiveState::new().snapshot();
        let err = Analysis::of_live(&tables)
            .time_window(TimeNs::ZERO, TimeNs::from_micros(1))
            .table()
            .unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
        let cal = Calibration::default();
        let err = Analysis::of_live(&tables).corrected(&cal).table().unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
        // Empty live state answers (emptily) rather than erroring.
        assert!(Analysis::of_live(&tables).table().unwrap().is_empty());
    }
}
