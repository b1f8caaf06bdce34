//! The unified `Analysis` query API: one composable pipeline for every
//! breakdown the profiler can produce. [`Analysis`] is one builder that
//! composes
//!
//! * a **source** — [`Analysis::of`] (one trace; several traces are one
//!   trace after [`Trace::merge`]), [`Analysis::of_events`] (a raw event
//!   slice), [`Analysis::from_chunk_dir`] (on-disk chunk directories,
//!   streamed chunk-at-a-time, each sweep holding no more of the stream
//!   than the chunk footers say is still open), a rollup
//!   ([`Analysis::from_rollup_dir`]), a live snapshot
//!   ([`Analysis::of_live`]), or many sessions of those tiers at once
//!   ([`Analysis::of_sessions`]);
//! * **filters** — [`Analysis::phase`], [`Analysis::process`],
//!   [`Analysis::operation`], [`Analysis::time_window`];
//! * **grouping** — [`Analysis::group_by`] over [`Dim`] dimensions,
//!   making the training *phase* a first-class key next to process and
//!   operation;
//! * **overhead correction** — [`Analysis::corrected`] runs the paper's
//!   §3.4 subtraction inside the same pipeline;
//! * **sinks** — [`Analysis::table`] (one merged [`BreakdownTable`]),
//!   [`Analysis::tables`] (grouped), [`Analysis::report`],
//!   [`Analysis::profile`] (a [`CorrectedProfile`]), and
//!   [`Analysis::canonical_json`].
//!
//! Every source — in memory, on disk or live — reaches the one engine
//! ([`OverlapSweep`]) through one executor, under one set of semantics
//! (see *How each source reaches the sweep*).
//!
//! # Module map
//!
//! One file per contract; every public item is re-exported here.
//!
//! | file | holds |
//! |------|-------|
//! | `mod.rs` | [`Dim`], [`GroupKey`], [`AnalysisError`], the sources ([`SessionSource`]), the [`Analysis`] builder and its sinks, group assembly, canonical JSON ([`groups_canonical_json`]), and the one first-seen keyed merge ([`FirstSeen`]) |
//! | `exec.rs` | the sweep executor: the sweep set, the filter-and-clip rule every row passes, the chunk pushdown's selection and release frontiers, and the in-memory and chunk feeds |
//! | `live.rs` | [`LiveState`] (with the declared-stream checks), [`LiveTables`], [`LiveView`] |
//! | `finalized.rs` | sources whose sweeps already ran: live snapshots and rollups, and the one view-selection rule they share |
//!
//! The share of the correction each group takes is
//! [`crate::correct`]'s, beside the correction itself.
//!
//! # Phase semantics
//!
//! Phases tag segments by the innermost *active* phase annotation, with
//! [`NO_PHASE`] collecting time outside any phase. Phase boundaries only
//! split segments; they never move time between buckets, so grouping or
//! filtering by phase conserves totals exactly: merging the per-phase
//! tables reproduces the ungrouped table bucket for bucket.
//!
//! Phase scoping is **per process**: a segment's phase is the innermost
//! open phase among the phases owned by processes with at least one
//! active event in that segment. In a merged multi-process sweep,
//! process A's phase annotations therefore never tag a segment where
//! only process B is active — two pids carrying overlapping but
//! different phase spans each keep their own time under their own
//! phase.
//!
//! The profiler records a phase event when the phase **closes**, and any
//! enclosing annotation after everything inside it. For a chunk-directory
//! query this decides how much of the stream its sweeps hold at once
//! (see *the release frontier* below): a raw dump's whole-run phase sits
//! in the last chunk with a start near zero, so nothing before it is
//! final until it is read, while a directory rewritten with
//! [`crate::store::reorder_chunk_dir`] carries no close-order disorder
//! and is swept about one chunk at a time. The tables are the same
//! either way.
//!
//! # Predicate pushdown: when is a whole chunk skipped?
//!
//! Chunk-directory sources consult the directory's index, the
//! [`crate::store::Manifest`] read off the chunks' footers, before
//! decoding anything: filters become a
//! [`crate::store::ChunkQuery`] and chunks whose footers cannot
//! contribute are never read. The decisions are conservative — a
//! selected chunk may still contribute nothing — and never lossy (the
//! result is table-identical to a full scan). [`Analysis::chunk_plan`]
//! reports the selection for a query without running it.
//!
//! | filter | pushed down when | a chunk is skipped when |
//! |--------|------------------|--------------------------|
//! | [`Analysis::time_window`] `[lo, hi)` | always | the chunk's `[min_start, max_end)` is disjoint from the window |
//! | [`Analysis::process`] | always | the footer's pid set lacks the process |
//! | [`Analysis::phase`] | the phase is named (not [`NO_PHASE`]); the only remaining carve-out is a process-grouped query that *also* has a time window | the chunk's `[min_start, max_end)` is disjoint from the phase's bounding span across the whole manifest — reduced, under a process filter, over only the footer spans whose per-phase pid set carries that process (a phase present in no eligible footer skips everything) |
//! | [`Analysis::operation`] | never — operations are table rows, not chunk predicates | — |
//!
//! `NO_PHASE` selects time *outside* every phase, which any chunk can
//! hold, so it never skips. Process-grouped phase queries keep group
//! enumeration identical to a full scan by additionally selecting each
//! process's first-appearance chunk
//! ([`crate::store::ChunkQuery::keep_pid_introductions`]) — a pure
//! over-selection, so a process whose chunks are all skippable still
//! gets its (empty) group row. v3 footers record the pid set of every
//! phase span ([`crate::store::PhaseSpan::pids`]); footers written
//! before that field existed decode with an empty (= unknown) set, which
//! every reader treats as "possibly any pid" — old chunks stay readable
//! and their skip decisions are identical-or-safer, never wrong.
//!
//! The selected chunks are read in **rounds**, each cut into one
//! contiguous run of chunks per core (`available_parallelism`, looked
//! up once). Each run is read, decoded, pushed and sorted side by side
//! into a fragment of the query's sweeps, the first run on the calling
//! thread; the calling thread then absorbs the fragments in stream order
//! ([`OverlapSweep`]'s merge of sorted logs) and releases every sweep to
//! the round's frontier. A round holds at least as many boundaries as
//! the sweeps held after the last release, and at least a chunk per
//! run, so the working set stays bounded on a start-sorted directory
//! and the merging stays linear where the frontier stands still. On one
//! core a round is one run on the calling thread. The index the
//! pushdown reads is built on the same core count:
//! [`crate::store::Manifest::open`] reads a large directory's chunk
//! tails side by side.
//!
//! # The release frontier: how much of a directory a query holds
//!
//! A streamed query reads each selected chunk **once**, in stream order,
//! whatever order the events inside are in. After chunk *i* is pushed,
//! every sweep is told ([`OverlapSweep::release_to`]) the earliest start
//! any *later* selected chunk can hold — the suffix minimum of
//! [`crate::store::ChunkFooter::min_start`] over the manifest entries
//! the pushdown selected (window clipping only raises CPU/GPU starts and
//! leaves scope starts as recorded, so the recorded minimum stays a
//! valid bound). Boundaries at or before that frontier are final: they
//! are attributed for good and their log is dropped. The working set is
//! therefore derived from the data, not chosen by the caller — on a
//! start-sorted directory the frontier trails the stream by one chunk;
//! on a raw dump it stands at the start of the oldest annotation that
//! has not been written yet. When the directory's last chunk declares
//! scopes still open ([`crate::store::ChunkFooter::cut`]), they close at
//! its cut, as events pushed after that chunk
//! ([`crate::store::Cut::closing_events`]); their starts bound every
//! frontier, and a phase filter is not pushed down (an open phase has
//! no span in any footer). Two consequences:
//!
//! * The frontier comes from the chunks themselves: every directory
//!   query opens the index from the chunks' footer tails
//!   ([`crate::store::Manifest::open`]), so every query releases, with
//!   or without a pushdown predicate, and no query writes anything.
//! * A footer is outside input. One that overstates its chunk's
//!   `min_start` fails the footer cross-check when that chunk is
//!   decoded, before any of its events reach a sweep; an event that
//!   still arrived behind the frontier would fail the query with
//!   [`crate::overlap::SweepError::OrderViolation`]. Either way the query
//!   gets a typed [`TraceIoError::Corrupt`] — never a wrong table, and no
//!   second pass.
//!
//! # How each source reaches the sweep
//!
//! Every source that still has events to sweep runs one executor: the
//! sweeps the query's [`LiveView`] needs, fed batches of rows that pass
//! one process-filter and window-clip rule, finished into the per-view
//! tables live snapshots and rollups are read from too. The sources
//! differ only in what they push:
//!
//! * [`Analysis::of`] and [`Analysis::of_events`] push the event slice
//!   as it is, as one batch, released nowhere.
//!   Rows are not converted to columns: building
//!   [`crate::store::EventColumns`] measured 20–40 ns/event, against
//!   55–90 ns/event for the sweep itself, a copy that saves no decode.
//! * [`Analysis::from_chunk_dir`] (and [`Analysis::from_chunk_index`],
//!   which is handed the index instead of reading it) decodes each
//!   selected chunk with [`crate::store::decode_columns`] (five flat
//!   primitive columns plus a per-chunk name table; no `Vec<Event>`),
//!   pushes it, and releases every sweep to that chunk's frontier.
//! * [`LiveState`] is the executor over both views, fed by the
//!   collector's live ingest and crash-recovery replay
//!   ([`LiveState::push_columns`]).
//!
//! Per-process sweeps run one after another on the calling thread (a
//! thread per process measured no faster on two cores). Inside one
//! sweep, a chunk-directory query also uses the core count for what the
//! calling thread runs between rounds and after the last: a large
//! absorb merges the two boundary queues side by side, and a large
//! drain — released or final — is cut into time slices that drain side
//! by side into tables that are summed, exactly (see [`OverlapSweep`]'s
//! docs on threads). [`LiveState::seal`] does the
//! same for a finished session's one final sort and drain. Every other
//! source keeps its sweeps on one thread: in-memory sources, and
//! [`LiveState`] snapshots, which run on a session's owner thread
//! beside other sessions' ingest and drain only what is new.
//! Rows and columns go through one generic push body (see [`crate::overlap`]),
//! pinned table-identical by `columnar_sweep_matches_batch_canonical_json`
//! in `tests/properties.rs`.
//!
//! # Live-query consistency
//!
//! [`Analysis::of_live`] answers queries over sessions that are **still
//! streaming** (the `rlscope-collector` daemon's live path, fed through
//! [`LiveState`]). What such a query observes is defined precisely:
//!
//! * **A consistent chunk prefix.** The collector applies each accepted
//!   chunk atomically — one thread owns a session's [`LiveState`], so a
//!   chunk's events enter the live sweeps and the observed-event counter
//!   together — and that same thread takes the snapshots
//!   ([`LiveState::snapshot_view`]), between two chunks.
//!   A live query therefore sees *exactly* the first `events_observed()`
//!   events of the session stream, never a partially-applied chunk, and
//!   its result equals the batch analysis of that prefix table for table
//!   (canonical JSON included).
//! * **A snapshot reads, it does not change.** Taking a snapshot puts
//!   the boundary logs of the live sweeps it covers in order, in place,
//!   and drains them *beside* the sweeps
//!   ([`OverlapSweep::tables_so_far`]), resuming from a checkpoint the
//!   previous snapshot left and leaving its own behind. Sorting in
//!   steps may place same-time CPU/GPU edges differently from sorting
//!   once at the end, which no table can tell, and a resumed drain meets
//!   the boundaries as one uninterrupted drain would, so no answer — of
//!   this snapshot, a later one, or the
//!   finished session — depends on whether, when, or for which
//!   [`LiveView`] snapshots were taken.
//! * **A snapshot costs what arrived since the last one** of the same
//!   sweep, whatever the length of the prefix behind it; nothing is
//!   drained when a chunk is pushed. The one thing that costs more is
//!   an enclosing scope that closes late — the profiler records an
//!   operation after its children and a phase when it ends, seconds
//!   after it began: its start lands behind work already drained, and
//!   the next snapshot re-drains from the checkpoint before that start.
//!   The worst case is the span of the latest late-closing scope, never
//!   the session's age.
//! * **Monotonicity.** Later queries observe a superset prefix; totals
//!   for any fixed filter never decrease between queries. This holds
//!   across a collector crash and restart too: recovery replays the
//!   durable chunk prefix through the same decode and
//!   [`LiveState::push_columns`] calls into a fresh [`LiveState`], so
//!   a post-restart query answers over exactly the acknowledged prefix
//!   the pre-crash daemon had persisted.
//! * **Open annotations: declared or invisible.** The profiler records
//!   an interval when it *closes*, so the events of a stream never hold
//!   a still-open operation or phase. What a live answer does about
//!   them depends on the stream:
//!   - *Undeclared* (raw clients, [`crate::store::encode_events`]
//!     chunks): the time inside an open annotation appears once it
//!     closes. A session's whole-run phase typically shows up only at
//!     finish — live tables attribute that time to [`NO_PHASE`] until
//!     then — and a late close rolls the next snapshot back to the
//!     checkpoint before its start (below).
//!   - *Declared* (chunks that carry the producer's
//!     [`crate::store::Cut`], as a [`crate::profiler::Profiler`]
//!     streaming through the collector's sink sends them): a live
//!     answer equals the batch analysis of the prefix **plus the
//!     scopes the last chunk declared open, closed at its cut** — what
//!     [`crate::profiler::Profiler::snapshot`] shows at that instant —
//!     and so does a sealed or an aborted session's answer (a chunk
//!     directory closes its last chunk's declared scopes at its cut
//!     too). [`LiveState::push_columns`] holds each chunk to the
//!     previous declaration, and [`LiveState::release`] drains the
//!     sweeps up to the frontier for good, so a snapshot reads a copy
//!     of about one chunk and needs no checkpoints, and the seal
//!     finalizes about one chunk.
//! * **Supported queries.** Phase/process/operation filters and every
//!   `group_by` combination run with batch-identical semantics, over a
//!   snapshot that holds the view the query reads
//!   ([`LiveView::for_query`]; [`LiveState::snapshot`] holds both).
//!   Three reads answer [`AnalysisError::Unsupported`] instead, for
//!   three different reasons:
//!   - *A view the snapshot was taken without.* Not a gap: the asker
//!     named the view, and an absent one is an error rather than an
//!     empty table.
//!   - *[`Analysis::time_window`].* Unimplemented, not fundamental. A
//!     live sweep keeps its whole boundary log and attribution is
//!     additive over any partition of the time axis, so a window's
//!     table is the difference of two drain states (one parked at each
//!     edge) — the checkpoints snapshots already leave are most of the
//!     machinery. Nothing builds that yet; once the session finishes,
//!     its chunk directory answers any window.
//!   - *[`Analysis::corrected`].* Fundamental to what is streamed, not
//!     to being live: chunks carry events, not the profiler's
//!     book-keeping counters, so no collector-side source — live,
//!     finished directory or rollup — can subtract overhead. Correction
//!     needs a trace-backed source ([`Analysis::of`]).
//!
//! # Cross-session composition and `Dim::Session`
//!
//! [`Analysis::of_sessions`] composes **many sources** — finished chunk
//! directories and live snapshots, freely mixed — into one pipeline,
//! and [`Dim::Session`] makes the session a first-class grouping key:
//!
//! * Each session resolves through the same code as a single-source
//!   query over its tier, under the same window, filters and dims, so
//!   per-session semantics are exactly the single-source semantics
//!   above: a live session answers over its consistent acked prefix, a
//!   finished one over its chunk directory with full manifest pushdown.
//! * Merged sinks fold the per-session tables by group key
//!   ([`FirstSeen`]): grouping by `Dim::Session` and merging the groups
//!   reproduces the ungrouped cross-session rollup bucket for bucket —
//!   the same conservation law phases and processes obey.
//! * Group order is first-seen composition order, and the session name
//!   leads every [`GroupKey`].
//! * `Dim::Session` over a non-session source is a typed
//!   [`AnalysisError::Unsupported`] — there is no session to group by.
//!
//! **Live multi-session consistency.** A multi-session query observes
//! one consistent prefix *per session* (each snapshot is taken by its
//! own session's owner thread); there is no cross-session barrier, so
//! two sessions' prefixes may be unequally fresh — but each is exactly some
//! acked prefix of its own stream, and re-querying is monotone per
//! session. This is the substrate of the collector daemon's `QUERY_ALL`
//! frame and the federation tier's fleet-wide rollups
//! (`rlscope-collector`'s `FleetClient`).
//!
//! # Storage tiers: which queries each tier can answer
//!
//! The collector ages finished sessions down a storage ladder
//! (raw → start-sorted → segment rollup → gone; see [`crate::rollup`]
//! and the `rlscope-collector` crate docs). Every tier answers through
//! this same pipeline; what changes is the supported query surface —
//! and an unsupported combination is always a typed
//! [`AnalysisError::Unsupported`], never a silently degraded answer:
//!
//! | query feature | raw / sorted dir ([`Analysis::from_chunk_dir`]) | rollup dir ([`Analysis::from_rollup_dir`]) | live snapshot ([`Analysis::of_live`]) |
//! |---------------|--------------------------------------------------|---------------------------------------------|----------------------------------------|
//! | phase / process / operation filters | yes | yes | yes |
//! | `group_by` (phase × process × operation) | yes | yes | yes |
//! | [`Analysis::time_window`] | yes, any `[lo, hi)` | only on segment boundaries (edges past the covered span are fine) | no |
//! | sweep working set | what the chunk footers leave open (about one chunk on a sorted dir) | none — nothing is streamed | the whole live log |
//! | [`Analysis::corrected`] / [`Analysis::profile`] | no (needs a trace-backed source) | no | no |
//! | cost | decodes selected chunks (manifest pushdown) | reads pre-aggregated tables only — **no raw event decode** | reads finalized tables |
//!
//! Where both a raw/sorted directory and a rollup exist, prefer the
//! rollup for coarse queries — a `(phase, op)` breakdown over a rollup
//! reads a few dozen stored tables where the raw tier decodes and sweeps
//! every event (the e2e record's `daemon.query_rollup_ms_p50` against
//! `daemon.query_cold_ms_p50`) — and the raw tier for anything
//! sub-segment.
//!
//! # Example
//!
//! ```
//! use rlscope_core::analysis::{Analysis, Dim};
//! use rlscope_core::event::{CpuCategory, Event, EventKind};
//! use rlscope_sim::ids::ProcessId;
//! use rlscope_sim::time::{DurationNs, TimeNs};
//!
//! let e = |kind, name: &str, start_us, end_us| {
//!     Event::new(
//!         ProcessId(0),
//!         kind,
//!         name,
//!         TimeNs::from_micros(start_us),
//!         TimeNs::from_micros(end_us),
//!     )
//! };
//! let events = vec![
//!     e(EventKind::Phase, "collect", 0, 100),
//!     e(EventKind::Phase, "train", 100, 200),
//!     e(EventKind::Operation, "simulation", 0, 100),
//!     e(EventKind::Operation, "backpropagation", 100, 200),
//!     e(EventKind::Cpu(CpuCategory::Python), "py", 0, 200),
//! ];
//!
//! let overall = Analysis::of_events(&events).table().unwrap();
//! let by_phase = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
//! assert_eq!(by_phase.len(), 2);
//! // Per-phase tables conserve the overall total exactly.
//! let phase_sum: DurationNs = by_phase.iter().map(|(_, t)| t.total()).sum();
//! assert_eq!(phase_sum, overall.total());
//! assert_eq!(overall.total(), DurationNs::from_micros(200));
//! ```

use crate::calibrate::Calibration;
use crate::correct::{share_correction, CorrectedProfile, OverheadBreakdown};
use crate::event::Event;
use crate::overlap::{BreakdownTable, BucketKey, PhaseTables};
#[cfg(doc)]
use crate::overlap::{OverlapSweep, NO_PHASE};
use crate::report::BreakdownReport;
use crate::rollup::Rollup;
use crate::store::{Manifest, TraceIoError};
use crate::trace::Trace;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::path::PathBuf;
use std::sync::Arc;

mod exec;
mod finalized;
mod live;

use exec::push_events;
pub use live::{LiveState, LiveTables, LiveView};

/// A grouping dimension for [`Analysis::group_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dim {
    /// Training phase (`rls.set_phase(...)` annotations); time outside
    /// any phase lands in the [`NO_PHASE`] group.
    Phase,
    /// Traced process.
    Process,
    /// Innermost operation annotation (already the row key inside a
    /// [`BreakdownTable`]; as a group dimension it splits the output into
    /// one single-operation table per name).
    Operation,
    /// Profiling session, for cross-session sources
    /// ([`Analysis::of_sessions`]): one group per composed session, in
    /// the composition order. Requires a sessions source — other sources
    /// have no session identity to group by.
    Session,
}

/// Identity of one group in a grouped analysis result. A field is `Some`
/// exactly when the corresponding [`Dim`] was requested via
/// [`Analysis::group_by`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupKey {
    /// Session name; `None` when not grouped by session.
    pub session: Option<Arc<str>>,
    /// Phase name ([`NO_PHASE`] for untagged time); `None` when not
    /// grouped by phase.
    pub phase: Option<Arc<str>>,
    /// Process id; `None` when not grouped by process.
    pub process: Option<ProcessId>,
    /// Operation name; `None` when not grouped by operation.
    pub operation: Option<Arc<str>>,
}

impl GroupKey {
    /// Human-readable label, e.g. `session=run-3 phase=training pid=2
    /// op=backprop` (`all` for the ungrouped key).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if let Some(s) = &self.session {
            parts.push(format!("session={s}"));
        }
        if let Some(p) = &self.phase {
            parts.push(format!("phase={p}"));
        }
        if let Some(p) = self.process {
            parts.push(format!("pid={}", p.as_u32()));
        }
        if let Some(o) = &self.operation {
            parts.push(format!("op={o}"));
        }
        if parts.is_empty() {
            "all".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl fmt::Display for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Error from running an [`Analysis`] query.
#[derive(Debug)]
pub enum AnalysisError {
    /// I/O or corruption error from a chunk-directory source.
    Io(TraceIoError),
    /// The requested combination is not supported, e.g. overhead
    /// correction on a source without book-keeping metadata.
    Unsupported(String),
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Io(e) => write!(f, "analysis i/o error: {e}"),
            AnalysisError::Unsupported(msg) => write!(f, "unsupported analysis: {msg}"),
        }
    }
}

impl std::error::Error for AnalysisError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AnalysisError::Io(e) => Some(e),
            AnalysisError::Unsupported(_) => None,
        }
    }
}

impl From<TraceIoError> for AnalysisError {
    fn from(e: TraceIoError) -> Self {
        AnalysisError::Io(e)
    }
}

#[derive(Debug)]
enum Source<'a> {
    Events(&'a [Event]),
    Trace(&'a Trace),
    RollupDir(PathBuf),
    /// One session's tier, resolved as each session of `Sessions` is.
    Tier(SessionSource<'a>),
    Sessions(Vec<(Arc<str>, SessionSource<'a>)>),
}

/// One session's data inside a cross-session composition
/// ([`Analysis::of_sessions`]): finished sessions come from their chunk
/// directories, in-flight ones from a consistent live snapshot — both
/// answer with batch-identical semantics, so the two kinds compose
/// freely in one query.
#[derive(Debug)]
pub enum SessionSource<'a> {
    /// A finished (or recovered) session's on-disk chunk directory.
    ChunkDir(PathBuf),
    /// A chunk directory through the index its caller already read
    /// ([`Analysis::from_chunk_index`]).
    ChunkIndex(&'a Manifest),
    /// An aged-out session's segment-summary rollup directory
    /// ([`crate::rollup`]) through the index its caller already opened
    /// ([`Analysis::from_rollup`]): coarse queries answer from
    /// pre-aggregated tables, sub-segment resolution is a typed
    /// [`AnalysisError::Unsupported`].
    Rollup(&'a Rollup),
    /// A live session's snapshot over its consistent acked prefix
    /// ([`LiveState::snapshot_view`] for the view the query reads).
    Live(&'a LiveTables),
}

/// The unified analysis query builder. See the [module docs](crate::analysis)
/// for the full pipeline and an example.
#[derive(Debug)]
pub struct Analysis<'a> {
    source: Source<'a>,
    phase_filter: Option<Arc<str>>,
    process_filter: Option<ProcessId>,
    operation_filter: Option<Arc<str>>,
    window: Option<(TimeNs, TimeNs)>,
    dims: Vec<Dim>,
    calibration: Option<&'a Calibration>,
    /// Keep empty phase groups (presence rows) in the output — the
    /// rollup builder's knob (see
    /// [`OverlapSweep::finalize_grouped_keep_empty`]). Honored by the
    /// chunk-dir streamed path only; never user-visible.
    keep_empty_phases: bool,
}

impl<'a> Analysis<'a> {
    fn new(source: Source<'a>) -> Self {
        Analysis {
            source,
            phase_filter: None,
            process_filter: None,
            operation_filter: None,
            window: None,
            dims: Vec::new(),
            calibration: None,
            keep_empty_phases: false,
        }
    }

    /// Crate-internal: emit presence rows for phases with empty tables
    /// (chunk-dir sources only). See the `keep_empty_phases` field.
    pub(crate) fn keep_empty_phases(mut self) -> Self {
        self.keep_empty_phases = true;
        self
    }

    // ----- sources ------------------------------------------------------

    /// Analyzes one finalized trace (single- or multi-process after a
    /// [`Trace::merge`]).
    pub fn of(trace: &'a Trace) -> Self {
        Self::new(Source::Trace(trace))
    }

    /// Analyzes a raw event slice.
    pub fn of_events(events: &'a [Event]) -> Self {
        Self::new(Source::Events(events))
    }

    /// Analyzes an on-disk chunk directory by streaming it one decoded
    /// chunk at a time; the concatenated event stream is never
    /// materialized. `.time_window` / `.process` / `.phase` filters push
    /// down into the directory's [`Manifest`], skipping whole chunks
    /// before any decode, and the surviving chunks are decoded in
    /// rounds of contiguous runs, side by side, whose sweeps the query
    /// absorbs in stream order, releasing behind the frontier the
    /// remaining chunks' footers give (see the module docs).
    pub fn from_chunk_dir(dir: impl Into<PathBuf>) -> Self {
        Self::new(Source::Tier(SessionSource::ChunkDir(dir.into())))
    }

    /// [`Analysis::from_chunk_dir`] over the directory `index` describes,
    /// pushing down into and releasing behind `index` instead of reading
    /// the directory's chunk footers again — for a caller that already
    /// holds the index ([`Manifest::open`]) and must know that the answer
    /// was computed from exactly that one.
    pub fn from_chunk_index(index: &'a Manifest) -> Self {
        Self::new(Source::Tier(SessionSource::ChunkIndex(index)))
    }

    /// Analyzes a segment-summary **rollup directory**
    /// ([`crate::rollup::rollup_chunk_dir`]) — the cold storage tier.
    /// Queries answer from the pre-aggregated per-segment tables without
    /// decoding any raw events: phase/process/operation filters and
    /// every [`Analysis::group_by`] combination behave exactly as over
    /// the raw directory, and [`Analysis::time_window`] is supported
    /// **iff** the window lands on segment boundaries (edges beyond the
    /// covered span are fine) — anything finer returns a typed
    /// [`AnalysisError::Unsupported`] rather than a silently coarse
    /// answer. [`Analysis::corrected`] is unsupported (no book-keeping
    /// counters survive the rollup). See the module docs' storage-tier
    /// table.
    pub fn from_rollup_dir(dir: impl Into<PathBuf>) -> Self {
        Self::new(Source::RollupDir(dir.into()))
    }

    /// [`Analysis::from_rollup_dir`] through a rollup index already
    /// opened ([`Rollup::open`]): segments are selected by that index
    /// instead of reading and verifying the `ROLLUP` file again — for a
    /// caller that holds the index and must know that the answer was
    /// computed from exactly that one.
    pub fn from_rollup(rollup: &'a Rollup) -> Self {
        Self::new(Source::Tier(SessionSource::Rollup(rollup)))
    }

    /// Analyzes a [`LiveTables`] snapshot of an in-flight stream
    /// ([`LiveState::snapshot`], or [`LiveState::snapshot_view`] for
    /// just the [`LiveView`] this query reads). Phase, process, and
    /// operation filters and every [`Analysis::group_by`] combination
    /// behave exactly as over the equivalent batch source, provided the
    /// snapshot holds the view they read; [`Analysis::time_window`] is
    /// unsupported (finished tables have no event-level granularity —
    /// window queries go to the session's chunk directory instead), as
    /// is [`Analysis::corrected`] (no book-keeping counters). See the
    /// [module docs](crate::analysis) on live-query consistency, which
    /// say of each gap whether it is fundamental. A finished stream's
    /// [`LiveState::seal`] is the same tables over the whole stream, and
    /// answers the merged-view queries it holds byte-identically to the
    /// stream's chunk directory.
    pub fn of_live(tables: &'a LiveTables) -> Self {
        Self::new(Source::Tier(SessionSource::Live(tables)))
    }

    /// Analyzes many sessions as **one pipeline** — the cross-session
    /// aggregation substrate behind `Dim::Session` grouping and the
    /// collector's fleet queries. Each entry pairs a session name with a
    /// [`SessionSource`] (a finished chunk directory or a live snapshot;
    /// the two kinds mix freely).
    ///
    /// Filters apply to every session identically. Without
    /// `group_by([Dim::Session])` the per-session results are merged by
    /// group key in first-seen key order ([`FirstSeen`]) —
    /// the fleet rollup. With it, each group is keyed by its session in
    /// composition order, and merging those groups reproduces the rollup
    /// exactly (conservation, as for phase/process grouping).
    ///
    /// [`Analysis::corrected`] is unsupported (no cross-session
    /// book-keeping counters), and [`Analysis::time_window`] is supported
    /// exactly when every composed source supports it (chunk dirs yes,
    /// live snapshots no).
    pub fn of_sessions(sessions: impl IntoIterator<Item = (Arc<str>, SessionSource<'a>)>) -> Self {
        Self::new(Source::Sessions(sessions.into_iter().collect()))
    }

    // ----- filters ------------------------------------------------------

    /// Keeps only time attributed to the named phase ([`NO_PHASE`]
    /// selects time outside any phase annotation).
    pub fn phase(mut self, name: &str) -> Self {
        self.phase_filter = Some(Arc::from(name));
        self
    }

    /// Keeps only events of one process.
    pub fn process(mut self, pid: ProcessId) -> Self {
        self.process_filter = Some(pid);
        self
    }

    /// Keeps only table rows of one operation ([`BucketKey::UNTRACKED`]
    /// selects unannotated time).
    pub fn operation(mut self, name: &str) -> Self {
        self.operation_filter = Some(Arc::from(name));
        self
    }

    /// Restricts attribution to `[start, end)`: CPU/GPU events are
    /// clipped to the window, so exactly the time inside it is
    /// attributed, and operations and phases that intersect it keep their
    /// own spans, so each instant inside it is attributed as in the whole
    /// stream.
    pub fn time_window(mut self, start: TimeNs, end: TimeNs) -> Self {
        self.window = Some((start, end));
        self
    }

    // ----- grouping and correction --------------------------------------

    /// Groups the output by the given dimensions (duplicates ignored).
    /// Grouped results come out of [`Analysis::tables`]; the
    /// [`Analysis::table`] sink merges the groups.
    ///
    /// Note the process dimension changes *how* time is counted, not just
    /// how it is keyed: each process is swept separately, so one instant
    /// with two busy processes counts twice (the multi-process view of
    /// paper §4.3), whereas the ungrouped sweep counts the union once.
    pub fn group_by(mut self, dims: impl IntoIterator<Item = Dim>) -> Self {
        for d in dims {
            if !self.dims.contains(&d) {
                self.dims.push(d);
            }
        }
        self
    }

    /// Applies calibrated overhead correction (paper §3.4) inside the
    /// pipeline. Requires a trace-backed source ([`Analysis::of`]) for
    /// the book-keeping counters.
    ///
    /// Correction always estimates the **whole-run** overhead and
    /// subtracts it from the full (unfiltered) view first; the query's
    /// result tables then take each bucket's subtraction **in proportion
    /// to their share of that bucket**. Grouped sinks therefore still
    /// sum exactly to the corrected merged table, and a filtered query
    /// (`.phase(..)`, `.process(..)`, `.time_window(..)`) is charged only
    /// its share of the overhead — never the whole run's. The counters do
    /// not record *when* each occurrence happened, so the proportional
    /// split assumes occurrences are uniform over a bucket's time; a
    /// filter that changes attribution itself (a process filter on a
    /// merged stream whose operations span processes) makes the mapping
    /// approximate for the shifted buckets.
    pub fn corrected(mut self, cal: &'a Calibration) -> Self {
        self.calibration = Some(cal);
        self
    }

    // ----- sinks --------------------------------------------------------

    /// One merged [`BreakdownTable`] honoring all filters, grouping
    /// semantics, and correction.
    ///
    /// # Errors
    ///
    /// I/O errors from chunk-dir sources; [`AnalysisError::Unsupported`]
    /// if correction was requested without a trace-backed source.
    pub fn table(&self) -> Result<BreakdownTable, AnalysisError> {
        Ok(self.merged_table()?.0)
    }

    /// Grouped tables, one per [`GroupKey`] combination, in deterministic
    /// order (process first-seen, then phase first-seen, then operation
    /// name). Without [`Analysis::group_by`] this is a single entry with
    /// the all-`None` key.
    ///
    /// # Errors
    ///
    /// Same as [`Analysis::table`].
    pub fn tables(&self) -> Result<Vec<(GroupKey, BreakdownTable)>, AnalysisError> {
        let mut groups = self.resolve_groups(true)?;
        if let Some(cal) = self.calibration {
            self.apply_corrected(&mut groups, self.counted_trace()?, cal)?;
        }
        Ok(groups)
    }

    /// The merged table rendered as a [`BreakdownReport`].
    ///
    /// # Errors
    ///
    /// Same as [`Analysis::table`].
    pub fn report(&self) -> Result<BreakdownReport, AnalysisError> {
        Ok(BreakdownReport::from_table(&self.table()?))
    }

    /// A full [`CorrectedProfile`]: the (possibly corrected) merged table
    /// plus the instrumented/corrected totals and the per-source overhead
    /// stack. Without [`Analysis::corrected`] this is the uncorrected
    /// view (zero overhead, totals equal).
    ///
    /// # Errors
    ///
    /// [`AnalysisError::Unsupported`] unless the source is trace-backed
    /// (wall time and counters are needed); I/O errors otherwise as for
    /// [`Analysis::table`].
    pub fn profile(&self) -> Result<CorrectedProfile, AnalysisError> {
        let trace = self.counted_trace()?;
        let (table, overhead) = self.merged_table()?;
        // The totals and overhead stack always describe the whole run
        // (that is what calibration measured); filters scope the table.
        let instrumented_total = trace.wall_time();
        Ok(CorrectedProfile {
            table,
            corrected_total: instrumented_total.saturating_sub(overhead.total()),
            instrumented_total,
            overhead,
        })
    }

    /// Canonical JSON for the query result: the bare table array
    /// ([`BreakdownTable::canonical_json`]) when ungrouped, or an object
    /// keyed by [`GroupKey::label`] when grouped. Byte-stable for a given
    /// query, suitable for golden files.
    ///
    /// # Errors
    ///
    /// Same as [`Analysis::table`].
    pub fn canonical_json(&self) -> Result<String, AnalysisError> {
        if self.dims.is_empty() {
            return Ok(self.table()?.canonical_json());
        }
        Ok(groups_canonical_json(&self.tables()?, true))
    }

    /// For chunk-directory sources: `(decoded, total)` — how many chunks
    /// the manifest pushdown selects for this query versus the directory
    /// total (see the module docs' pushdown table). `Ok(None)` for
    /// in-memory sources. Running the query decodes exactly the selected
    /// chunks; the result is table-identical to a full scan either way.
    ///
    /// # Errors
    ///
    /// I/O or corruption errors from the directory or its chunks' footers, and
    /// [`AnalysisError::Unsupported`] when [`Analysis::corrected`] is
    /// set — overhead correction needs a trace-backed source, so such a
    /// query cannot run (and therefore has no decode plan).
    pub fn chunk_plan(&self) -> Result<Option<(usize, usize)>, AnalysisError> {
        let index = match &self.source {
            Source::Tier(SessionSource::ChunkDir(dir)) => Cow::Owned(Manifest::open(dir)?),
            Source::Tier(SessionSource::ChunkIndex(index)) => Cow::Borrowed(*index),
            _ => return Ok(None),
        };
        if self.calibration.is_some() {
            // Mirror the error the query itself produces, rather than
            // reporting a plan for an impossible run.
            self.counted_trace()?;
        }
        Ok(Some((self.pushdown_selection(&index, true).files.len(), index.entries().len())))
    }

    // ----- execution ----------------------------------------------------

    /// Runs the source + filters + grouping stages, producing the final
    /// keyed tables (correction is applied by the sinks). With `filters`
    /// off every filter is ignored: the full-view reference that
    /// [`Analysis::apply_corrected`] distributes overhead against.
    fn resolve_groups(
        &self,
        filters: bool,
    ) -> Result<Vec<(GroupKey, BreakdownTable)>, AnalysisError> {
        if self.dims.contains(&Dim::Session) && !matches!(self.source, Source::Sessions(_)) {
            return Err(AnalysisError::Unsupported(
                "group_by(Dim::Session) needs a cross-session source (Analysis::of_sessions); \
                 single-source queries have no session identity"
                    .to_string(),
            ));
        }
        let raw = match &self.source {
            Source::Sessions(sessions) => return self.resolve_sessions(sessions, filters),
            Source::Events(events) => self.sweep(filters, |set| push_events(set, events))?,
            Source::Trace(t) => self.sweep(filters, |set| push_events(set, &t.events))?,
            Source::RollupDir(dir) => self.resolve_rollup(&Rollup::open(dir)?, filters)?,
            Source::Tier(tier) => self.resolve_tier(tier, filters)?,
        };
        Ok(self.assemble(raw, filters))
    }

    /// Runs one tier's part of the query, for a single-tier source and
    /// for each session of a cross-session one alike.
    fn resolve_tier(
        &self,
        tier: &SessionSource<'_>,
        filters: bool,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        match tier {
            SessionSource::ChunkDir(dir) => self.sweep_index(&Manifest::open(dir)?, filters),
            SessionSource::ChunkIndex(index) => self.sweep_index(index, filters),
            SessionSource::Rollup(rollup) => self.resolve_rollup(rollup, filters),
            SessionSource::Live(tables) => self.resolve_live(tables, filters),
        }
    }

    /// Cross-session execution: each composed session resolves as a
    /// single-tier query would ([`Analysis::resolve_tier`], the same
    /// filters and grouping; the session dimension only names it), then
    /// the per-session groups are either tagged with their session name
    /// (`group_by(Dim::Session)`, composition order) or merged by group
    /// key in first-seen order ([`FirstSeen`]) — so the grouped view
    /// always sums exactly to the merged rollup.
    fn resolve_sessions(
        &self,
        sessions: &[(Arc<str>, SessionSource<'_>)],
        filters: bool,
    ) -> Result<Vec<(GroupKey, BreakdownTable)>, AnalysisError> {
        let want_session = self.dims.contains(&Dim::Session);
        let mut out = FirstSeen::default();
        for (name, tier) in sessions {
            let groups = self.assemble(self.resolve_tier(tier, filters)?, filters);
            out.extend(groups.into_iter().map(|(mut key, table)| {
                key.session = want_session.then(|| name.clone());
                (key, table)
            }));
        }
        Ok(out.into_vec())
    }

    /// Applies the phase filter, collapses undesired dimensions, applies
    /// the operation filter/split, and assembles the final group keys.
    fn assemble(
        &self,
        raw: Vec<(Option<ProcessId>, PhaseTables)>,
        filters: bool,
    ) -> Vec<(GroupKey, BreakdownTable)> {
        let want_phase = self.dims.contains(&Dim::Phase);
        let want_op = self.dims.contains(&Dim::Operation);
        let mut out = Vec::new();
        for (pid, mut phase_tables) in raw {
            if let Some(pf) = self.phase_filter.as_ref().filter(|_| filters) {
                phase_tables.retain(|(name, _)| name == pf);
            }
            let keyed: Vec<(Option<Arc<str>>, BreakdownTable)> = if want_phase {
                phase_tables.into_iter().map(|(name, t)| (Some(name), t)).collect()
            } else {
                // A process entry survives even when its table is empty
                // (a process can exist with nothing attributable); empty
                // *phase* groups are never emitted by the sweeps.
                vec![(None, merge_tables(phase_tables.into_iter().map(|(_, t)| t)))]
            };
            for (phase, mut table) in keyed {
                if let Some(of) = self.operation_filter.as_ref().filter(|_| filters) {
                    table = filter_table(&table, |k| k.operation == *of);
                }
                if want_op {
                    // One sorted walk over the table (op-major key order)
                    // instead of a full re-scan per operation.
                    for (op, sub) in table.split_by_operation() {
                        out.push((
                            GroupKey {
                                session: None,
                                phase: phase.clone(),
                                process: pid,
                                operation: Some(op),
                            },
                            sub,
                        ));
                    }
                } else {
                    out.push((
                        GroupKey { session: None, phase, process: pid, operation: None },
                        table,
                    ));
                }
            }
        }
        out
    }

    /// The groups merged into one table, corrected as one group when
    /// [`Analysis::corrected`] is set, and the whole-run overhead estimate
    /// (zero without correction).
    fn merged_table(&self) -> Result<(BreakdownTable, OverheadBreakdown), AnalysisError> {
        let mut single =
            [((), merge_tables(self.resolve_groups(true)?.into_iter().map(|(_, t)| t)))];
        let overhead = match self.calibration {
            Some(cal) => self.apply_corrected(&mut single, self.counted_trace()?, cal)?,
            None => OverheadBreakdown::default(),
        };
        let [((), table)] = single;
        Ok((table, overhead))
    }

    /// Applies overhead correction to already-resolved result tables (see
    /// [`Analysis::corrected`] for the semantics): the whole-run overhead
    /// is estimated on the **unfiltered** full view, and each result
    /// table takes its share of every bucket's subtraction
    /// ([`share_correction`]). Returns the whole-run overhead estimate.
    fn apply_corrected<K>(
        &self,
        groups: &mut [(K, BreakdownTable)],
        trace: &Trace,
        cal: &Calibration,
    ) -> Result<OverheadBreakdown, AnalysisError> {
        let filtered = self.phase_filter.is_some()
            || self.process_filter.is_some()
            || self.operation_filter.is_some()
            || self.window.is_some();
        let full = if filtered {
            merge_tables(self.resolve_groups(false)?.into_iter().map(|(_, t)| t))
        } else {
            merge_tables(groups.iter().map(|(_, t)| t.clone()))
        };
        Ok(share_correction(&full, groups, trace, cal))
    }

    /// The trace whose book-keeping counters and wall time overhead
    /// correction and [`Analysis::profile`] need.
    fn counted_trace(&self) -> Result<&'a Trace, AnalysisError> {
        match self.source {
            Source::Trace(t) => Ok(t),
            _ => Err(AnalysisError::Unsupported(
                "overhead correction and profiles need a trace-backed source \
                 (Analysis::of) for book-keeping counters"
                    .to_string(),
            )),
        }
    }
}

/// Renders already-resolved groups in the canonical JSON form of
/// [`Analysis::canonical_json`]: the bare merged-table array when
/// `grouped` is false, otherwise an object keyed by [`GroupKey::label`]
/// in group order. Byte-stable. Public so consumers that merge groups
/// *across* pipelines — the collector's federation tier foremost — can
/// render the exact bytes a single equivalent query would have produced.
pub fn groups_canonical_json(groups: &[(GroupKey, BreakdownTable)], grouped: bool) -> String {
    if !grouped {
        return merge_tables(groups.iter().map(|(_, t)| t.clone())).canonical_json();
    }
    let mut out = String::from("{\n");
    for (i, (key, table)) in groups.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        crate::overlap::json_escape_into(&key.label(), &mut out);
        out.push_str(": ");
        out.push_str(table.canonical_json().trim_end());
    }
    out.push_str("\n}\n");
    out
}

/// `tables` merged into one; the first is moved, not copied.
fn merge_tables(tables: impl IntoIterator<Item = BreakdownTable>) -> BreakdownTable {
    let mut tables = tables.into_iter();
    let mut out = tables.next().unwrap_or_default();
    for t in tables {
        out.merge(&t);
    }
    out
}

/// A table restricted to buckets matching `pred`.
fn filter_table(table: &BreakdownTable, pred: impl Fn(&BucketKey) -> bool) -> BreakdownTable {
    let mut out = BreakdownTable::new();
    for (k, d) in table.iter() {
        if pred(k) {
            out.add(k.clone(), d);
        }
    }
    out
}

/// Keyed parts of one answer merged in **first-seen key order**: a key
/// met again has its part merged into the one held ([`Absorb`]), a new
/// key is appended. The one keyed merge of answers put together from
/// parts (the sessions of [`Analysis::of_sessions`], a rollup's
/// segments, the collector's fleet shards), so they keep the group order
/// one query over all the parts gives ([`groups_canonical_json`]). Keys
/// are found through a hash index.
#[derive(Debug, Clone)]
pub struct FirstSeen<K, V> {
    entries: Vec<(K, V)>,
    index: HashMap<K, usize>,
}

impl<K, V> Default for FirstSeen<K, V> {
    fn default() -> Self {
        FirstSeen { entries: Vec::new(), index: HashMap::new() }
    }
}

impl<K, V> FirstSeen<K, V> {
    /// The merged parts, in first-seen key order.
    pub fn into_vec(self) -> Vec<(K, V)> {
        self.entries
    }
}

impl<K: Clone + Eq + Hash, V: Absorb> Extend<(K, V)> for FirstSeen<K, V> {
    fn extend<I: IntoIterator<Item = (K, V)>>(&mut self, parts: I) {
        for (key, value) in parts {
            match self.index.get(&key).and_then(|&at| self.entries.get_mut(at)) {
                Some((_, held)) => held.absorb(value),
                None => {
                    self.index.insert(key.clone(), self.entries.len());
                    self.entries.push((key, value));
                }
            }
        }
    }
}

impl<K: Clone + Eq + Hash, V: Absorb> FromIterator<(K, V)> for FirstSeen<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(parts: I) -> Self {
        let mut merged = FirstSeen::default();
        merged.extend(parts);
        merged
    }
}

/// A part that merges into another held under the same key.
pub trait Absorb {
    /// Merges `more` into `self`.
    fn absorb(&mut self, more: Self);
}

impl Absorb for BreakdownTable {
    fn absorb(&mut self, more: Self) {
        self.merge(&more);
    }
}

/// Nested parts (a rollup's per-process phase tables) merge key by key.
impl<K: Clone + Eq + Hash, V: Absorb> Absorb for FirstSeen<K, V> {
    fn absorb(&mut self, more: Self) {
        self.extend(more.entries);
    }
}

#[cfg(test)]
mod testutil {
    use crate::event::{CpuCategory, Event, EventKind, GpuCategory};
    use rlscope_sim::ids::ProcessId;
    use rlscope_sim::time::TimeNs;

    pub(super) fn ev(pid: u32, kind: EventKind, name: &str, start_us: u64, end_us: u64) -> Event {
        Event::new(
            ProcessId(pid),
            kind,
            name,
            TimeNs::from_micros(start_us),
            TimeNs::from_micros(end_us),
        )
    }

    /// Two phases with a gap between them (untagged time), two processes,
    /// nested operations, and GPU time. Phases scope the merged stream:
    /// pid 1's simulator work falls under whatever phase is active.
    pub(super) fn phased_events() -> Vec<Event> {
        vec![
            ev(0, EventKind::Phase, "collect", 0, 100),
            ev(0, EventKind::Phase, "train", 120, 200),
            ev(0, EventKind::Operation, "simulation", 10, 90),
            ev(0, EventKind::Operation, "backprop", 130, 190),
            ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 200),
            ev(0, EventKind::Gpu(GpuCategory::Kernel), "k", 140, 180),
            ev(1, EventKind::Cpu(CpuCategory::Simulator), "sim", 20, 140),
        ]
    }

    pub(super) fn write_chunk_dir(
        tag: &str,
        events: &[Event],
        per_batch: usize,
    ) -> std::path::PathBuf {
        use crate::store::TraceWriter;
        let dir = std::env::temp_dir().join(format!("rlscope_ana_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 1).unwrap(); // rotate every batch
        for chunk in events.chunks(per_batch) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();
        dir
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::{ev, phased_events, write_chunk_dir};
    use super::*;
    use crate::event::{CpuCategory, EventKind};
    use crate::overlap::{compute_overlap, NO_PHASE};
    use crate::store::EventColumns;
    use rlscope_sim::time::DurationNs;

    #[test]
    fn phase_groups_sum_to_overall() {
        let events = phased_events();
        let overall = Analysis::of_events(&events).table().unwrap();
        let by_phase = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
        assert_eq!(by_phase.len(), 3, "expected no-phase/collect/train groups: {by_phase:?}");
        let mut merged = BreakdownTable::new();
        for (key, t) in &by_phase {
            assert!(key.phase.is_some() && key.process.is_none() && key.operation.is_none());
            merged.merge(t);
        }
        assert_eq!(merged, overall);
    }

    #[test]
    fn phase_filter_selects_one_phase() {
        let events = phased_events();
        let by_phase = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
        let train_group =
            by_phase.iter().find(|(k, _)| k.phase.as_deref() == Some("train")).unwrap();
        let filtered = Analysis::of_events(&events).phase("train").table().unwrap();
        assert_eq!(filtered, train_group.1);
        // The gap between the phases ([100,120)) lands in NO_PHASE.
        let untagged = Analysis::of_events(&events).phase(NO_PHASE).table().unwrap();
        assert_eq!(untagged.total(), DurationNs::from_micros(20));
    }

    #[test]
    fn process_group_matches_indexed_sweeps() {
        let events = phased_events();
        let groups = Analysis::of_events(&events).group_by([Dim::Process]).tables().unwrap();
        assert_eq!(groups.len(), 2);
        for (key, table) in &groups {
            let pid = key.process.unwrap();
            let filtered: Vec<Event> = events.iter().filter(|e| e.pid == pid).cloned().collect();
            assert_eq!(table, &compute_overlap(&filtered), "pid {pid:?}");
        }
    }

    #[test]
    fn phase_process_cross_product_conserves() {
        let events = phased_events();
        let groups =
            Analysis::of_events(&events).group_by([Dim::Phase, Dim::Process]).tables().unwrap();
        let per_proc_total: DurationNs = Analysis::of_events(&events)
            .group_by([Dim::Process])
            .tables()
            .unwrap()
            .iter()
            .map(|(_, t)| t.total())
            .sum();
        let cross_total: DurationNs = groups.iter().map(|(_, t)| t.total()).sum();
        assert_eq!(cross_total, per_proc_total);
        for (key, _) in &groups {
            assert!(key.phase.is_some() && key.process.is_some());
        }
    }

    #[test]
    fn operation_group_splits_tables() {
        let events = phased_events();
        let groups = Analysis::of_events(&events).group_by([Dim::Operation]).tables().unwrap();
        let overall = Analysis::of_events(&events).table().unwrap();
        let sum: DurationNs = groups.iter().map(|(_, t)| t.total()).sum();
        assert_eq!(sum, overall.total());
        for (key, table) in &groups {
            let op = key.operation.clone().unwrap();
            assert_eq!(table.total(), overall.operation_total(&op));
        }
    }

    #[test]
    fn operation_filter_keeps_one_operation() {
        let events = phased_events();
        let t = Analysis::of_events(&events).operation("backprop").table().unwrap();
        assert_eq!(
            t.total(),
            Analysis::of_events(&events).table().unwrap().operation_total("backprop")
        );
        assert!(t.iter().all(|(k, _)| &*k.operation == "backprop"));
    }

    #[test]
    fn time_window_clips_attribution() {
        let events = phased_events();
        let full = Analysis::of_events(&events).table().unwrap();
        let first_half = Analysis::of_events(&events)
            .time_window(TimeNs::ZERO, TimeNs::from_micros(100))
            .table()
            .unwrap();
        let second_half = Analysis::of_events(&events)
            .time_window(TimeNs::from_micros(100), TimeNs::from_micros(200))
            .table()
            .unwrap();
        assert_eq!(first_half.total() + second_half.total(), full.total());
        assert_eq!(first_half.gpu_total(), DurationNs::ZERO);
        assert_eq!(second_half.gpu_total(), DurationNs::from_micros(40));
    }

    #[test]
    fn canonical_json_is_stable_and_keyed() {
        let events = phased_events();
        let a = Analysis::of_events(&events)
            .group_by([Dim::Phase, Dim::Process])
            .canonical_json()
            .unwrap();
        let b = Analysis::of_events(&events)
            .group_by([Dim::Phase, Dim::Process])
            .canonical_json()
            .unwrap();
        assert_eq!(a, b);
        assert!(a.contains("\"phase=collect pid=0\""), "{a}");
        let plain = Analysis::of_events(&events).canonical_json().unwrap();
        assert!(plain.starts_with('['));
    }

    #[test]
    fn correction_requires_trace_backed_source() {
        let events = phased_events();
        let cal = Calibration::default();
        let err = Analysis::of_events(&events).corrected(&cal).table().unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
    }

    #[test]
    fn grouped_correction_sums_to_corrected_merged_table() {
        use crate::profiler::TransitionKind;
        use rlscope_sim::cuda::CudaApiKind;

        let trace = Trace {
            pid: ProcessId(0),
            events: vec![
                ev(0, EventKind::Phase, "collect", 0, 100),
                ev(0, EventKind::Phase, "train", 100, 200),
                ev(0, EventKind::Operation, "backprop", 0, 200),
                ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 200),
            ],
            counts: crate::event::BookkeepingCounts { annotations: 2, ..Default::default() },
            per_op_transitions: vec![((Arc::from("backprop"), TransitionKind::Backend), 10)],
            api_stats: vec![(CudaApiKind::LaunchKernel, (0, DurationNs::ZERO))],
            iterations: 1,
            wall_end: TimeNs::from_micros(200),
        };
        let cal = Calibration {
            annotation_mean: DurationNs::from_micros(1),
            py_interception_mean: DurationNs::from_micros(2),
            ..Default::default()
        };
        let corrected = Analysis::of(&trace).corrected(&cal).table().unwrap();
        let groups = Analysis::of(&trace).corrected(&cal).group_by([Dim::Phase]).tables().unwrap();
        let sum: DurationNs = groups.iter().map(|(_, t)| t.total()).sum();
        assert_eq!(sum, corrected.total());
        // 200 - 10*2 - 2*1 = 178us survive correction.
        assert_eq!(corrected.total(), DurationNs::from_micros(178));
    }

    /// A filtered query must take only its proportional share of the
    /// whole-run overhead, never the full amount (which used to
    /// overcorrect the filtered slice).
    #[test]
    fn filtered_correction_takes_proportional_share() {
        use crate::profiler::TransitionKind;

        // 200us of backprop/Python split evenly across two phases; 10
        // backend transitions at 2us each = 20us of overhead on the
        // (backprop, Python) bucket.
        let trace = Trace {
            pid: ProcessId(0),
            events: vec![
                ev(0, EventKind::Phase, "collect", 0, 100),
                ev(0, EventKind::Phase, "train", 100, 200),
                ev(0, EventKind::Operation, "backprop", 0, 200),
                ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 200),
            ],
            counts: Default::default(),
            per_op_transitions: vec![((Arc::from("backprop"), TransitionKind::Backend), 10)],
            api_stats: vec![],
            iterations: 1,
            wall_end: TimeNs::from_micros(200),
        };
        let cal =
            Calibration { py_interception_mean: DurationNs::from_micros(2), ..Default::default() };
        // Each phase holds half the bucket, so each is charged half the
        // 20us subtraction: 100 - 10 = 90us.
        let train = Analysis::of(&trace).phase("train").corrected(&cal).table().unwrap();
        assert_eq!(train.total(), DurationNs::from_micros(90));
        // And the filtered view equals its group in the grouped query.
        let grouped = Analysis::of(&trace).corrected(&cal).group_by([Dim::Phase]).tables().unwrap();
        let train_group =
            grouped.iter().find(|(k, _)| k.phase.as_deref() == Some("train")).unwrap();
        assert_eq!(train, train_group.1);
        // A half-run time window likewise pays half the overhead.
        let window = Analysis::of(&trace)
            .time_window(TimeNs::ZERO, TimeNs::from_micros(100))
            .corrected(&cal)
            .table()
            .unwrap();
        assert_eq!(window.total(), DurationNs::from_micros(90));
    }

    #[test]
    fn profile_without_calibration_is_uncorrected() {
        let trace = Trace {
            pid: ProcessId(0),
            events: vec![ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 50)],
            counts: Default::default(),
            per_op_transitions: vec![],
            api_stats: vec![],
            iterations: 0,
            wall_end: TimeNs::from_micros(50),
        };
        let p = Analysis::of(&trace).profile().unwrap();
        assert_eq!(p.corrected_total, p.instrumented_total);
        assert_eq!(p.overhead.total(), DurationNs::ZERO);
    }

    /// A second session shape: shares the `train` phase and `backprop`
    /// operation with [`phased_events`] (so ungrouped cross-session
    /// rollups exercise key merging) plus a pid unseen there.
    fn second_session_events() -> Vec<Event> {
        vec![
            ev(0, EventKind::Phase, "train", 0, 150),
            ev(0, EventKind::Operation, "backprop", 10, 140),
            ev(0, EventKind::Cpu(CpuCategory::Backend), "be", 20, 120),
            ev(2, EventKind::Cpu(CpuCategory::Simulator), "sim", 30, 90),
        ]
    }

    #[test]
    fn session_groups_conserve_and_match_per_session_batches() {
        let a = phased_events();
        let b = second_session_events();
        let dir_a = write_chunk_dir("sess_a", &a, 4);
        let dir_b = write_chunk_dir("sess_b", &b, 4);
        let sources = || {
            vec![
                (Arc::from("a"), SessionSource::ChunkDir(dir_a.clone())),
                (Arc::from("b"), SessionSource::ChunkDir(dir_b.clone())),
            ]
        };
        let grouped = Analysis::of_sessions(sources()).group_by([Dim::Session]).tables().unwrap();
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0.session.as_deref(), Some("a"));
        assert_eq!(grouped[1].0.session.as_deref(), Some("b"));
        // Each session group is exactly that session's own batch sweep.
        assert_eq!(grouped[0].1, Analysis::of_events(&a).table().unwrap());
        assert_eq!(grouped[1].1, Analysis::of_events(&b).table().unwrap());
        // Conservation: merging the session groups reproduces the
        // ungrouped rollup bucket for bucket.
        let rollup = Analysis::of_sessions(sources()).table().unwrap();
        let mut merged = BreakdownTable::new();
        for (_, t) in &grouped {
            merged.merge(t);
        }
        assert_eq!(merged, rollup);
        // Cross-dimension grouping and filters thread through to every
        // composed session.
        let cross =
            Analysis::of_sessions(sources()).group_by([Dim::Session, Dim::Phase]).tables().unwrap();
        assert!(cross.iter().all(|(k, _)| k.session.is_some() && k.phase.is_some()));
        let cross_total: DurationNs = cross.iter().map(|(_, t)| t.total()).sum();
        assert_eq!(cross_total, rollup.total());
        let train = Analysis::of_sessions(sources()).phase("train").table().unwrap();
        let mut expected = Analysis::of_events(&a).phase("train").table().unwrap();
        expected.merge(&Analysis::of_events(&b).phase("train").table().unwrap());
        assert_eq!(train, expected);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// The tentpole acceptance contract: `group_by([Dim::Session])` over
    /// live sessions is canonical-JSON-identical to the batch sweep of
    /// each session's acked prefix, and live/finished sources mix freely.
    #[test]
    fn live_session_groups_match_batch_of_acked_prefix() {
        let a = phased_events();
        let b = second_session_events();
        let mut live_a = LiveState::new();
        live_a.push_columns(&EventColumns::from_events(&a)).unwrap();
        let mut live_b = LiveState::new();
        live_b.push_columns(&EventColumns::from_events(&b)).unwrap();
        let snap_a = live_a.snapshot();
        let snap_b = live_b.snapshot();
        let dir_a = write_chunk_dir("sess_live_a", &a, 4);
        let dir_b = write_chunk_dir("sess_live_b", &b, 4);
        let dim_sets: [&[Dim]; 4] =
            [&[Dim::Session], &[Dim::Session, Dim::Phase], &[Dim::Session, Dim::Process], &[]];
        for dims in dim_sets {
            let live = Analysis::of_sessions(vec![
                (Arc::from("a"), SessionSource::Live(&snap_a)),
                (Arc::from("b"), SessionSource::Live(&snap_b)),
            ])
            .group_by(dims.iter().copied())
            .canonical_json()
            .unwrap();
            let batch = Analysis::of_sessions(vec![
                (Arc::from("a"), SessionSource::ChunkDir(dir_a.clone())),
                (Arc::from("b"), SessionSource::ChunkDir(dir_b.clone())),
            ])
            .group_by(dims.iter().copied())
            .canonical_json()
            .unwrap();
            assert_eq!(live, batch, "dims {dims:?}");
        }
        let mixed = Analysis::of_sessions(vec![
            (Arc::from("a"), SessionSource::ChunkDir(dir_a.clone())),
            (Arc::from("b"), SessionSource::Live(&snap_b)),
        ])
        .group_by([Dim::Session])
        .tables()
        .unwrap();
        assert_eq!(mixed.len(), 2);
        assert_eq!(mixed[1].1, Analysis::of_events(&b).table().unwrap());
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn session_dim_without_sessions_source_errors() {
        let events = phased_events();
        let err = Analysis::of_events(&events).group_by([Dim::Session]).tables().unwrap_err();
        assert!(matches!(err, AnalysisError::Unsupported(_)), "{err}");
    }

    /// Two sessions whose time ranges abut at exactly T: window clipping
    /// is half-open `[lo, hi)` (`admit`, before any slot is made), so
    /// the windows `[0, T)` and `[T, 2T)` must
    /// partition the cross-session rollup exactly — an event ending at
    /// T lands only in the first window, one starting at T only in the
    /// second, and one spanning T splits with no double count and no
    /// gap.
    #[test]
    fn abutting_session_windows_partition_attribution_exactly() {
        let t = TimeNs::from_micros(100);
        let end = TimeNs::from_micros(200);
        // Session a ends at T: one event abuts the boundary, one spans it.
        let a = vec![
            ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 60),
            ev(0, EventKind::Cpu(CpuCategory::Backend), "be", 60, 90),
            ev(0, EventKind::Cpu(CpuCategory::Simulator), "sim", 90, 110),
        ];
        // Session b starts at exactly T.
        let b = vec![
            ev(1, EventKind::Cpu(CpuCategory::Python), "py", 100, 150),
            ev(1, EventKind::Cpu(CpuCategory::CudaApi), "cuda", 150, 200),
        ];
        let dir_a = write_chunk_dir("abut_a", &a, 2);
        let dir_b = write_chunk_dir("abut_b", &b, 2);
        let sources = || {
            vec![
                (Arc::from("a"), SessionSource::ChunkDir(dir_a.clone())),
                (Arc::from("b"), SessionSource::ChunkDir(dir_b.clone())),
            ]
        };
        let whole = Analysis::of_sessions(sources()).table().unwrap();
        let before = Analysis::of_sessions(sources()).time_window(TimeNs::ZERO, t).table().unwrap();
        let after = Analysis::of_sessions(sources()).time_window(t, end).table().unwrap();
        // Exact partition at the shared boundary, bucket for bucket.
        let mut merged = before.clone();
        merged.merge(&after);
        assert_eq!(merged, whole);
        assert_eq!(before.total() + after.total(), whole.total());
        // The boundary-spanning event contributes exactly 10µs per side.
        let sim_side = |table: &BreakdownTable| {
            table
                .iter()
                .filter(|(k, _)| k.cpu == Some(CpuCategory::Simulator))
                .map(|(_, d)| d)
                .sum::<DurationNs>()
        };
        assert_eq!(sim_side(&before), DurationNs::from_micros(10));
        assert_eq!(sim_side(&after), DurationNs::from_micros(10));
        // Grouped by session, each windowed group is that session's own
        // windowed batch sweep (session b is fully clipped before T).
        let grouped = Analysis::of_sessions(sources())
            .time_window(TimeNs::ZERO, t)
            .group_by([Dim::Session])
            .tables()
            .unwrap();
        assert_eq!(grouped.len(), 2);
        assert_eq!(
            grouped[0].1,
            Analysis::of_events(&a).time_window(TimeNs::ZERO, t).table().unwrap()
        );
        assert!(grouped[1].1.is_empty(), "session b holds nothing before T: {:?}", grouped[1].1);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn group_key_labels() {
        let key = GroupKey {
            session: Some(Arc::from("run-1")),
            phase: Some(Arc::from("train")),
            process: Some(ProcessId(3)),
            operation: Some(Arc::from("bp")),
        };
        assert_eq!(key.label(), "session=run-1 phase=train pid=3 op=bp");
        let none = GroupKey { session: None, phase: None, process: None, operation: None };
        assert_eq!(none.label(), "all");
    }
}
