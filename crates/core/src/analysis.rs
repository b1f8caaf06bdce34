//! The unified `Analysis` query API: one composable pipeline for every
//! breakdown the profiler can produce.
//!
//! Historically each report reached the overlap engine through its own
//! ad-hoc door (`compute_overlap`, `Trace::breakdown`, per-process and
//! streamed variants of it, `correct`, …). [`Analysis`] replaces them
//! with a single builder that composes
//!
//! * a **source** — [`Analysis::of`] (one trace), [`Analysis::merged`]
//!   (several traces), [`Analysis::of_events`] (a raw event slice), or
//!   [`Analysis::from_chunk_dir`] (on-disk chunk directories, streamed
//!   chunk-at-a-time, each sweep holding no more of the stream than the
//!   chunk footers say is still open);
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
//! All legacy entry points are thin wrappers over this pipeline, and every
//! source — in memory, on disk or live — reaches the one engine
//! ([`OverlapSweep`]) through one executor, under one set of semantics
//! (see *How each source reaches the sweep*).
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
//! Chunk decode itself is **chunk-parallel**: selected files are decoded
//! on worker threads and fed to the per-process incremental sweeps in
//! stream order through bounded channels
//! ([`crate::store::for_each_decoded_chunk_columns`]), so decode
//! overlaps sweeping on multi-core machines with bounded in-flight
//! memory. The index the pushdown reads is built on the same worker
//! count: [`crate::store::Manifest::open`] reads a large directory's
//! chunk tails side by side.
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
//! * [`Analysis::of`], [`Analysis::merged`] and [`Analysis::of_events`]
//!   push each event slice as it is, as one batch, released nowhere.
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
//! sweep, a chunk-directory query also uses the decode stage's worker
//! count (`available_parallelism`, looked up once) for the sorts and
//! drains the calling thread runs between and after pushes: a large
//! sort puts the two boundary queues in order side by side, and a
//! large drain — released or final — is cut into time slices that
//! drain side by side into tables that are summed, exactly (see
//! [`OverlapSweep`]'s docs on threads). [`LiveState::seal`] does the
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
//! * Each session resolves as its own sub-analysis under the same
//!   window, filters, and remaining dims, so per-session semantics are
//!   exactly the single-source semantics above: a live session answers
//!   over its consistent acked prefix, a finished one over its chunk
//!   directory with full manifest pushdown.
//! * Merged sinks fold the per-session tables with
//!   [`BreakdownTable::merge`]: grouping by `Dim::Session` and merging
//!   the groups reproduces the ungrouped cross-session rollup bucket
//!   for bucket — the same conservation law phases and processes obey.
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
use crate::correct::{apply_correction, CorrectedProfile, CorrectionInputs, OverheadBreakdown};
use crate::event::Event;
use crate::intern::Interner;
use crate::overlap::{BreakdownTable, BucketKey, OverlapSweep, PhaseTables, SweepError, NO_PHASE};
use crate::report::BreakdownReport;
use crate::rollup::{merge_phase_tables, Rollup};
use crate::store::{
    decode_workers, for_each_decoded_chunk_columns, ChunkQuery, Cut, EventColumns, EventRow,
    Manifest, OpenScope, TraceIoError, TAG_OP, TAG_PHASE,
};
use crate::trace::Trace;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::{DurationNs, TimeNs};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

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
    Merged(&'a [Trace]),
    ChunkDir(PathBuf),
    ChunkIndex(&'a Manifest),
    RollupDir(PathBuf),
    Rollup(&'a Rollup),
    Live(&'a LiveTables),
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

    fn merged(self) -> bool {
        self != LiveView::PerProcess
    }

    fn per_process(self) -> bool {
        self != LiveView::Merged
    }
}

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
struct SweepSet {
    view: LiveView,
    /// Always under `Merged`, never under `PerProcess`.
    merged: Option<OverlapSweep>,
    per_process: Vec<(ProcessId, OverlapSweep)>,
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
type ViewTables = (Option<PhaseTables>, Option<Vec<(ProcessId, PhaseTables)>>);

impl SweepSet {
    /// An empty, unfiltered and unclipped set for `view` whose sweeps
    /// start as `template`.
    fn new(view: LiveView, template: OverlapSweep) -> Self {
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
    fn push_rows<R: EventRow>(
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
    fn enter(&mut self, scope: &OpenScope) -> Result<(), SweepError> {
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
    fn fan_out(&mut self, workers: usize) {
        let per_process = self.per_process.iter_mut().map(|(_, sweep)| sweep);
        for sweep in self.merged.iter_mut().chain(&mut self.template).chain(per_process) {
            sweep.set_workers(workers);
        }
    }

    /// Releases every sweep to `t` ([`OverlapSweep::release_to`]).
    fn release_to(&mut self, t: u64) {
        let per_process = self.per_process.iter_mut().map(|(_, sweep)| sweep);
        for sweep in self.merged.iter_mut().chain(per_process) {
            sweep.release_to(t);
        }
    }

    /// The tables of the sweeps `view` covers, with the sweeps left as
    /// they were ([`OverlapSweep::tables_so_far`]). With no merged sweep,
    /// the merged stream is the (at most one) process's stream, and that
    /// process's tables serve both views.
    fn tables_so_far(&mut self, view: LiveView) -> ViewTables {
        let per_process: Vec<(ProcessId, PhaseTables)> = if view.per_process()
            || self.merged.is_none()
        {
            self.per_process.iter_mut().map(|(pid, sweep)| (*pid, sweep.tables_so_far())).collect()
        } else {
            Vec::new()
        };
        let merged = view.merged().then(|| match &mut self.merged {
            Some(sweep) => sweep.tables_so_far(),
            None => per_process.first().map(|(_, tables)| tables.clone()).unwrap_or_default(),
        });
        (merged, view.per_process().then_some(per_process))
    }

    /// Finalizes the sweeps `view` covers, as
    /// [`SweepSet::tables_so_far`] reads them. A merged view drops the
    /// per-process sweeps before it drains the merged one.
    fn finish(self, view: LiveView) -> ViewTables {
        let SweepSet { merged, per_process, finalize, .. } = self;
        let per_process: Vec<(ProcessId, PhaseTables)> = if view.per_process() || merged.is_none() {
            per_process.into_iter().map(|(pid, sweep)| (pid, finalize(sweep))).collect()
        } else {
            drop(per_process);
            Vec::new()
        };
        let merged = view.merged().then(|| match merged {
            Some(sweep) => finalize(sweep),
            None => per_process.first().map(|(_, tables)| tables.clone()).unwrap_or_default(),
        });
        (merged, view.per_process().then_some(per_process))
    }
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
/// sweeps it read ([`OverlapSweep::tables_so_far`]): their boundary logs
/// are put in order once, in place, and each drain leaves checkpoints
/// from which the next one resumes, so a snapshot sorts and drains what
/// was pushed since the previous one (plus, when an enclosing scope
/// closed late, a re-drain from that scope's start). Nothing observable
/// changes, and pushing a chunk never drains.
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
        let per_process = sweeps.per_process.iter_mut().map(|(_, sweep)| sweep);
        for sweep in sweeps.merged.iter_mut().chain(per_process) {
            sweep.close_entered(self.at);
        }
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
    /// a directory query does: once an undeclared stream's pending
    /// boundaries (its whole log, when processes interleave) and its
    /// drain are over the fan-out minimums, its two queues sort side by
    /// side and the drain runs in time slices (see [`OverlapSweep`]'s
    /// threads). A declared seal's last chunk stays below them.
    /// Snapshots keep one thread.
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
    merged: Option<PhaseTables>,
    /// `None` when the snapshot's view left the per-process tables out.
    per_process: Option<Vec<(ProcessId, PhaseTables)>>,
    events: u64,
}

impl Default for LiveTables {
    /// The snapshot of an empty [`LiveState`]: both views, no events.
    fn default() -> Self {
        LiveState::new().snapshot()
    }
}

impl LiveTables {
    /// Events the snapshot covers — the consistency token a live query
    /// reports alongside its result.
    pub fn events_observed(&self) -> u64 {
        self.events
    }
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

    /// Analyzes several traces as one merged stream (events concatenated
    /// in the given order, counters summed for correction purposes) —
    /// without materializing a merged [`Trace`].
    pub fn merged(traces: &'a [Trace]) -> Self {
        Self::new(Source::Merged(traces))
    }

    /// Analyzes a raw event slice.
    pub fn of_events(events: &'a [Event]) -> Self {
        Self::new(Source::Events(events))
    }

    /// Analyzes an on-disk chunk directory by streaming it one decoded
    /// chunk at a time; the concatenated event stream is never
    /// materialized. `.time_window` / `.process` / `.phase` filters push
    /// down into the directory's [`Manifest`], skipping whole chunks
    /// before any decode, and the surviving chunks are decoded
    /// chunk-parallel while the sweeps consume them in stream order,
    /// releasing behind the frontier the remaining chunks' footers give
    /// (see the module docs).
    pub fn from_chunk_dir(dir: impl Into<PathBuf>) -> Self {
        Self::new(Source::ChunkDir(dir.into()))
    }

    /// [`Analysis::from_chunk_dir`] over the directory `index` describes,
    /// pushing down into and releasing behind `index` instead of reading
    /// the directory's chunk footers again — for a caller that already
    /// holds the index ([`Manifest::open`]) and must know that the answer
    /// was computed from exactly that one.
    pub fn from_chunk_index(index: &'a Manifest) -> Self {
        Self::new(Source::ChunkIndex(index))
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
        Self::new(Source::Rollup(rollup))
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
        Self::new(Source::Live(tables))
    }

    /// Analyzes many sessions as **one pipeline** — the cross-session
    /// aggregation substrate behind `Dim::Session` grouping and the
    /// collector's fleet queries. Each entry pairs a session name with a
    /// [`SessionSource`] (a finished chunk directory or a live snapshot;
    /// the two kinds mix freely).
    ///
    /// Filters apply to every session identically. Without
    /// `group_by([Dim::Session])` the per-session results are merged by
    /// group key (via [`BreakdownTable::merge`], first-seen key order) —
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
    /// pipeline. Requires a trace-backed source ([`Analysis::of`] or
    /// [`Analysis::merged`]) for the book-keeping counters.
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
        let mut table = merge_tables(self.resolve_groups()?.into_iter().map(|(_, t)| t));
        if let Some(cal) = self.calibration {
            let inputs = self.correction_inputs()?;
            (table, _) = self.corrected_merged(table, &inputs, cal)?;
        }
        Ok(table)
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
        let mut groups = self.resolve_groups()?;
        if let Some(cal) = self.calibration {
            let inputs = self.correction_inputs()?;
            self.apply_corrected(&mut groups, &inputs, cal)?;
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
        let inputs = self.correction_inputs()?;
        let mut table = merge_tables(self.resolve_groups()?.into_iter().map(|(_, t)| t));
        let overhead = match self.calibration {
            Some(cal) => {
                let (corrected, overhead) = self.corrected_merged(table, &inputs, cal)?;
                table = corrected;
                overhead
            }
            None => OverheadBreakdown::default(),
        };
        // The totals and overhead stack always describe the whole run
        // (that is what calibration measured); filters scope the table.
        let instrumented_total = inputs.wall;
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
            Source::ChunkDir(dir) => Cow::Owned(Manifest::open(dir)?),
            Source::ChunkIndex(index) => Cow::Borrowed(*index),
            _ => return Ok(None),
        };
        if self.calibration.is_some() {
            // Mirror the error the query itself produces, rather than
            // reporting a plan for an impossible run.
            self.correction_inputs()?;
        }
        let per_process = self.dims.contains(&Dim::Process);
        let selection = self.pushdown_selection(&index, per_process, true);
        Ok(Some((selection.files.len(), selection.total)))
    }

    // ----- execution ----------------------------------------------------

    /// Runs the source + filters + grouping stages, producing the final
    /// keyed tables with all filters applied (correction is applied by
    /// the sinks).
    fn resolve_groups(&self) -> Result<Vec<(GroupKey, BreakdownTable)>, AnalysisError> {
        self.resolve_groups_with(true)
    }

    /// [`Analysis::resolve_groups`], optionally ignoring every filter —
    /// the `filters = false` form computes the full-view reference that
    /// [`Analysis::apply_corrected`] distributes overhead against.
    fn resolve_groups_with(
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
            Source::Events(events) => self.sweep(filters, |set| push_slices(set, [*events]))?,
            Source::Trace(t) => self.sweep(filters, |set| push_slices(set, [&t.events[..]]))?,
            Source::Merged(ts) => {
                self.sweep(filters, |set| push_slices(set, ts.iter().map(|t| &t.events[..])))?
            }
            Source::ChunkDir(dir) => self.sweep_index(&Manifest::open(dir)?, filters)?,
            Source::ChunkIndex(index) => self.sweep_index(index, filters)?,
            Source::RollupDir(dir) => {
                self.resolve_rollup(&Rollup::open(dir).map_err(AnalysisError::Io)?, filters)?
            }
            Source::Rollup(rollup) => self.resolve_rollup(rollup, filters)?,
            Source::Live(tables) => self.resolve_live(tables, filters)?,
        };
        let want_phase = self.dims.contains(&Dim::Phase);
        let want_op = self.dims.contains(&Dim::Operation);
        Ok(self.assemble(raw, want_phase, want_op, filters))
    }

    /// Cross-session execution: each composed session resolves through
    /// its own sub-pipeline (the same filters and grouping minus the
    /// session dimension), then the per-session groups are either tagged
    /// with their session name (`group_by(Dim::Session)`, composition
    /// order) or merged by group key in first-seen order via
    /// [`BreakdownTable::merge`] — so the grouped view always sums
    /// exactly to the merged rollup.
    #[expect(clippy::indexing_slicing, reason = "`index` holds positions of `out`")]
    fn resolve_sessions(
        &self,
        sessions: &[(Arc<str>, SessionSource<'a>)],
        filters: bool,
    ) -> Result<Vec<(GroupKey, BreakdownTable)>, AnalysisError> {
        let want_session = self.dims.contains(&Dim::Session);
        let mut out: Vec<(GroupKey, BreakdownTable)> = Vec::new();
        let mut index: HashMap<GroupKey, usize> = HashMap::new();
        for (name, source) in sessions {
            let mut sub = match source {
                SessionSource::ChunkDir(dir) => Analysis::from_chunk_dir(dir.clone()),
                SessionSource::ChunkIndex(index) => Analysis::from_chunk_index(index),
                SessionSource::Rollup(rollup) => Analysis::from_rollup(rollup),
                SessionSource::Live(tables) => Analysis::of_live(tables),
            };
            sub.phase_filter = self.phase_filter.clone();
            sub.process_filter = self.process_filter;
            sub.operation_filter = self.operation_filter.clone();
            sub.window = self.window;
            sub.dims = self.dims.iter().copied().filter(|d| *d != Dim::Session).collect();
            for (mut key, table) in sub.resolve_groups_with(filters)? {
                if want_session {
                    key.session = Some(name.clone());
                }
                match index.get(&key) {
                    Some(&i) => out[i].1.merge(&table),
                    None => {
                        index.insert(key.clone(), out.len());
                        out.push((key, table));
                    }
                }
            }
        }
        Ok(out)
    }

    /// True when any filter stage is active.
    fn has_filters(&self) -> bool {
        self.phase_filter.is_some()
            || self.process_filter.is_some()
            || self.operation_filter.is_some()
            || self.window.is_some()
    }

    /// Runs the query's sweep set over what `feed` pushes and selects
    /// among its tables by the rule every finalized source shares
    /// ([`Analysis::select_finalized`]). The set reads the view
    /// [`LiveView::for_query`] names, tags phases only when a phase is
    /// grouped or filtered, and takes the process filter and window
    /// unless `filters` is off (the unfiltered full view).
    fn sweep(
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
    fn chunk_query(&self, per_process: bool, filters: bool) -> ChunkQuery {
        let mut query = ChunkQuery::default();
        if !filters {
            return query;
        }
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
    #[expect(
        clippy::indexing_slicing,
        reason = "`frontier` has one slot per selected entry, `i` in 1..len"
    )]
    fn pushdown_selection(&self, index: &Manifest, per_process: bool, filters: bool) -> Selection {
        let closing = index
            .entries()
            .last()
            .and_then(|entry| entry.footer.cut.as_ref())
            .map(Cut::closing_events)
            .unwrap_or_default();
        let mut query = self.chunk_query(per_process, filters);
        if !closing.is_empty() {
            // A phase still open has no span in any footer.
            query.phase = None;
            query.keep_pid_introductions = false;
        }
        let selected = index.select(&query);
        // Empty chunks carry `min_start == u64::MAX` and bound nothing;
        // the closing events follow the last chunk.
        let last = closing.iter().map(|e| e.start.as_nanos()).min().unwrap_or(u64::MAX);
        let mut frontier = vec![last; selected.len()];
        for i in (1..selected.len()).rev() {
            frontier[i - 1] = frontier[i].min(selected[i].footer.min_start);
        }
        Selection {
            files: selected.iter().map(|e| index.dir().join(&e.file)).collect(),
            frontier,
            closing,
            total: index.entries().len(),
        }
    }

    /// Sweeps the chunks `index` selects for this query, one pass, every
    /// sweep released behind each chunk's frontier.
    fn sweep_index(
        &self,
        index: &Manifest,
        filters: bool,
    ) -> Result<Vec<(Option<ProcessId>, PhaseTables)>, AnalysisError> {
        let per_process = self.dims.contains(&Dim::Process);
        let selection = self.pushdown_selection(index, per_process, filters);
        self.sweep(filters, |set| push_chunks(set, &selection))
    }

    /// Live-snapshot execution: the sweeps already ran at ingest, so the
    /// query only selects among their finalized tables — the view
    /// [`LiveView::for_query`] names: the merged-stream tables, or the
    /// per-process tables for process grouping or a process filter.
    /// Phase and operation filters are applied downstream by
    /// `assemble`, exactly as for every other source.
    fn resolve_live(
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

    /// Selects among tables whose sweeps already ran — the tail live
    /// snapshots and rollups share — by the one rule of
    /// [`LiveView::for_query`]: the merged-stream tables, or the
    /// per-process ones under process grouping (every process, or the
    /// filtered one) and for an ungrouped `.process(pid)` query, which
    /// means "sweep only that process's events" and so reads that
    /// process's own tables (an absent pid yields the empty table an
    /// in-memory source would produce). A view the source does not hold
    /// (`None`) is a typed error.
    fn select_finalized(
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
    fn resolve_rollup(
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
        let mut merged: PhaseTables = Vec::new();
        let mut per_proc: Vec<(ProcessId, PhaseTables)> = Vec::new();
        for idx in selected {
            let seg = rollup.read_segment(idx).map_err(AnalysisError::Io)?;
            merge_phase_tables(&mut merged, &seg.merged);
            for (pid, tables) in &seg.per_process {
                match per_proc.iter_mut().find(|(p, _)| p == pid) {
                    Some((_, acc)) => merge_phase_tables(acc, tables),
                    None => per_proc.push((*pid, tables.clone())),
                }
            }
        }
        // Segments store presence rows (empty tables mark a phase whose
        // annotation intersects the window) to pin cross-segment group
        // order; a sweep never emits empty phase groups, so drop the
        // rows that stayed empty after the merge.
        merged.retain(|(_, t)| !t.is_empty());
        for (_, tables) in &mut per_proc {
            tables.retain(|(_, t)| !t.is_empty());
        }
        self.select_finalized((Some(merged), Some(per_proc)), filters)
    }

    /// Applies the phase filter, collapses undesired dimensions, applies
    /// the operation filter/split, and assembles the final group keys.
    fn assemble(
        &self,
        raw: Vec<(Option<ProcessId>, PhaseTables)>,
        want_phase: bool,
        want_op: bool,
        filters: bool,
    ) -> Vec<(GroupKey, BreakdownTable)> {
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

    /// Applies overhead correction to already-resolved result tables (see
    /// [`Analysis::corrected`] for the semantics): the whole-run overhead
    /// is subtracted from the **unfiltered** full view first, then each
    /// result table takes its proportional share of every bucket's
    /// subtraction. When the result tables partition the full view
    /// exactly (no filters), a largest-remainder split keeps the groups
    /// summing to the corrected merged table to the nanosecond. Returns
    /// the whole-run overhead estimate.
    /// [`Analysis::apply_corrected`] over one already-merged table,
    /// returning the corrected table and the overhead estimate.
    fn corrected_merged(
        &self,
        table: BreakdownTable,
        inputs: &CorrectionInputs,
        cal: &Calibration,
    ) -> Result<(BreakdownTable, OverheadBreakdown), AnalysisError> {
        let mut single =
            [(GroupKey { session: None, phase: None, process: None, operation: None }, table)];
        let overhead = self.apply_corrected(&mut single, inputs, cal)?;
        let [(_, corrected)] = single;
        Ok((corrected, overhead))
    }

    fn apply_corrected(
        &self,
        groups: &mut [(GroupKey, BreakdownTable)],
        inputs: &CorrectionInputs,
        cal: &Calibration,
    ) -> Result<OverheadBreakdown, AnalysisError> {
        let full = if self.has_filters() {
            merge_tables(self.resolve_groups_with(false)?.into_iter().map(|(_, t)| t))
        } else {
            merge_tables(groups.iter().map(|(_, t)| t.clone()))
        };
        let mut corrected = full.clone();
        let overhead = apply_correction(&mut corrected, inputs, cal);
        for (key, had) in full.iter() {
            let removed = had.saturating_sub(corrected.get(key)).as_nanos();
            if removed == 0 {
                continue;
            }
            let parts: Vec<u64> = groups.iter().map(|(_, t)| t.get(key).as_nanos()).collect();
            let shares: Vec<u64> = if parts.iter().sum::<u64>() == had.as_nanos() {
                split_proportionally(removed, &parts)
            } else {
                // A filtered subset of the full view: round-down shares
                // (conservation is not observable without the complement),
                // capped at what each table holds for the buckets whose
                // attribution a filter shifted.
                parts
                    .iter()
                    .map(|&p| {
                        let share = (u128::from(removed) * u128::from(p)
                            / u128::from(had.as_nanos()))
                            as u64;
                        share.min(p)
                    })
                    .collect()
            };
            for ((_, t), share) in groups.iter_mut().zip(shares) {
                t.subtract(key, DurationNs::from_nanos(share));
            }
        }
        Ok(overhead)
    }

    /// Book-keeping counters and wall time needed by overhead correction
    /// and [`Analysis::profile`].
    fn correction_inputs(&self) -> Result<CorrectionInputs, AnalysisError> {
        match &self.source {
            Source::Trace(t) => Ok(CorrectionInputs::from_trace(t)),
            Source::Merged(ts) => Ok(CorrectionInputs::from_traces(ts)),
            _ => Err(AnalysisError::Unsupported(
                "overhead correction and profiles need a trace-backed source \
                 (Analysis::of or Analysis::merged) for book-keeping counters"
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

/// What a chunk-directory query reads: the selected chunk files in
/// stream order and, beside each, its **release frontier** — the
/// earliest start any later selected chunk holds (`u64::MAX` after the
/// last), i.e. the time every sweep can be released to once that file is
/// pushed. `total` is the directory's chunk count, for skip accounting.
struct Selection {
    files: Vec<PathBuf>,
    frontier: Vec<u64>,
    /// The scopes the directory's last chunk declares open, closed at
    /// its cut ([`Cut::closing_events`]): pushed after the last chunk.
    closing: Vec<Event>,
    total: usize,
}

/// In-memory sources: each slice is pushed as it is, as one batch that
/// nothing is released behind. An unreleased sweep rejects nothing but
/// more scopes than its u32 ids can number.
fn push_slices<'e>(
    set: &mut SweepSet,
    slices: impl IntoIterator<Item = &'e [Event]>,
) -> Result<(), AnalysisError> {
    for slice in slices {
        set.push_rows(slice.iter()).map_err(|err| AnalysisError::Unsupported(err.to_string()))?;
    }
    Ok(())
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

/// Splits `amount` across `parts` proportionally, never exceeding any
/// part, with the rounding remainder assigned round-robin to parts that
/// still have capacity. Requires `amount <= parts.sum()`.
#[expect(
    clippy::indexing_slicing,
    clippy::disallowed_macros,
    reason = "`i` wraps at `parts.len()` == `shares.len()`; the `debug_assert!` is the documented precondition"
)]
fn split_proportionally(amount: u64, parts: &[u64]) -> Vec<u64> {
    let total: u128 = parts.iter().map(|&p| u128::from(p)).sum();
    debug_assert!(u128::from(amount) <= total, "cannot remove more than the parts hold");
    if total == 0 {
        return vec![0; parts.len()];
    }
    let mut shares: Vec<u64> =
        parts.iter().map(|&p| (u128::from(amount) * u128::from(p) / total) as u64).collect();
    let mut left = amount - shares.iter().sum::<u64>();
    let mut i = 0;
    while left > 0 {
        if shares[i] < parts[i] {
            shares[i] += 1;
            left -= 1;
        }
        i = (i + 1) % parts.len();
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CpuCategory, EventKind, GpuCategory};
    use crate::overlap::compute_overlap;

    fn ev(pid: u32, kind: EventKind, name: &str, start_us: u64, end_us: u64) -> Event {
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
    fn phased_events() -> Vec<Event> {
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
    fn merged_traces_match_trace_merge() {
        let mk = |pid: u32, end: u64| Trace {
            pid: ProcessId(pid),
            events: vec![ev(pid, EventKind::Cpu(CpuCategory::Python), "py", 0, end)],
            counts: Default::default(),
            per_op_transitions: vec![],
            api_stats: vec![],
            iterations: 1,
            wall_end: TimeNs::from_micros(end),
        };
        let traces = vec![mk(0, 50), mk(1, 80)];
        let merged_trace = Trace::merge(traces.clone());
        assert_eq!(
            Analysis::merged(&traces).table().unwrap(),
            Analysis::of(&merged_trace).table().unwrap()
        );
        let per_proc = Analysis::merged(&traces).group_by([Dim::Process]).tables().unwrap();
        assert_eq!(per_proc.len(), 2);
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

    #[test]
    fn split_proportionally_is_exact_and_capped() {
        let shares = split_proportionally(10, &[3, 3, 4]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert_eq!(shares, vec![3, 3, 4]);
        let shares = split_proportionally(7, &[5, 5]);
        assert_eq!(shares.iter().sum::<u64>(), 7);
        assert!(shares.iter().zip([5, 5]).all(|(&s, p)| s <= p));
        assert_eq!(split_proportionally(0, &[1, 2]), vec![0, 0]);
    }

    fn write_chunk_dir(tag: &str, events: &[Event], per_batch: usize) -> std::path::PathBuf {
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
            let selection = query.pushdown_selection(&Manifest::open(&dir).unwrap(), false, true);
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
