//! Asynchronous, chunked binary trace storage (paper Appendix A.1).
//!
//! RL-Scope aggregates traces in a native library off the critical path and
//! dumps them once they reach ~20 MB, explicitly avoiding Python-side
//! serialization. This module reproduces that design: a dedicated writer
//! thread receives event batches over a channel, encodes them with a
//! compact binary codec, and rotates chunk files at a size threshold.
//!
//! # Chunk formats
//!
//! Three wire formats are supported. [`encode_events`] writes **v3**;
//! [`decode_events`] dispatches on the 8-byte magic and reads all three,
//! so v1 and v2 chunks on disk remain loadable.
//!
//! **v1** (`RLSCOPE1`): `magic(8) | count:u32` then per event
//! `pid:u32 | tag:u8 | name_len:u16 | name | start:u64 | end:u64`
//! (fixed-width big-endian, name bytes inline per event).
//!
//! **v2** (`RLSCOPE2`): `magic(8) | count:u32`, a per-chunk **string
//! table** `n:u32` then `n × (len:u16 | utf8)` of deduplicated names,
//! then per event
//! `pid:varint | tag:u8 | name_id:varint | start_delta:zigzag-varint |
//! duration:varint`. Event names repeat heavily (operation and category
//! labels), so the table collapses them to one varint id per event; and
//! events are emitted near-chronologically, so the signed delta from the
//! previous event's start is small and varints stay short. Varints are
//! LEB128; deltas use zigzag so slightly out-of-order streams still
//! encode compactly.
//!
//! **v3** (`RLSCOPE3`): the v2 body byte-for-byte (count, string table,
//! event records), followed by a self-describing **footer** and a fixed
//! trailer locating it:
//!
//! ```text
//! RLSCOPE3 | <v2 body> | footer payload | footer_len:u32 | "RLF3"
//! ```
//!
//! The footer payload is fixed-width big-endian:
//!
//! ```text
//! events:u32
//! min_start:u64 | max_start:u64 | max_end:u64
//! flags:u8                      (bit 0: starts ascending within chunk)
//! pid_count:u32 | pid:u32 …     (ascending)
//! phase_count:u32 | (len:u16 | name | min_start:u64 | max_end:u64
//!                    | pid_count:u32 | pid:u32 …) …
//!                               (name-ascending; span covers that
//!                                phase's events in this chunk; the
//!                                pid set only under flag bit 1)
//! [cut:u64 | frontier:u64 | open_count:u32
//!  | (pid:u32 | tag:u8 | len:u16 | name | start:u64) …]
//!                               (only under flag bit 2: the
//!                                producer's declaration, see below)
//! checksum:u64                  (FNV-1a of the payload bytes above)
//! ```
//!
//! **Declared chunks.** Flag bit 2 (`FOOTER_FLAG_OPEN_SCOPES`) marks a
//! chunk whose producer declared, at the flush that cut it, what was
//! still open ([`Cut`]): the clock at the flush, a frontier no later
//! event of the stream starts before (the close of a declared scope
//! excepted), and the open phase and operation scopes, outermost first
//! (tag 6 operation, 7 phase). A decode validates it (known tags,
//! `frontier <= cut`, every scope start `<= cut`) and hands it on as
//! [`EventColumns::cut`]; nothing else in the chunk changes, and
//! [`encode_events`] never sets the bit — only [`encode_declared`]
//! does, so every undeclared chunk keeps its bytes. A reader older than
//! the bit rejects a declared chunk as [`TraceIoError::Corrupt`]
//! ("unknown flag bits"): a daemon that predates declarations refuses
//! a declaring client's first chunk rather than misread it.
//!
//! The footer is what makes a chunk *skippable*: a reader can bound a
//! chunk's contribution to any time-window, process, or phase query from
//! the footer alone, without decoding a single event record
//! ([`read_chunk_footer`]). A full [`decode_events`] of a v3 chunk
//! additionally cross-checks the footer against the decoded events, so a
//! corrupted footer can never cause a silent wrong skip on data that
//! still decodes.
//!
//! # Compatibility matrix
//!
//! | format | encode | decode | footer |
//! |--------|--------|--------|--------|
//! | v1     | [`encode_events_v1`] (and the extreme-timestamp fallback of [`encode_events`]) | yes | none on the wire — [`Manifest::open`] decodes the chunk and computes it |
//! | v2     | none — read-only (test support rebuilds its bytes from v3: magic swapped, trailer cut) | yes | none on the wire — [`Manifest::open`] decodes the chunk and computes it |
//! | v3     | [`encode_events`] | yes | read from the trailer, no event decode |
//!
//! Every field is validated on decode: unknown magic or event tags,
//! truncation at any offset, overlong or overflowing varints,
//! out-of-range string-table ids, checksum mismatches, and footers that
//! contradict their chunk's events all surface as
//! [`TraceIoError::Corrupt`], never a panic (the corruption-fuzz suite
//! in `tests/fuzz_codec.rs` holds this line).
//!
//! # The chunk-directory index
//!
//! The chunks are their own index. [`Manifest::open`] lists a directory
//! and reads each chunk's footer from its tail — the magic, the 8-byte
//! trailer, then only the footer bytes it points at — so opening costs a
//! few small reads per chunk and no event decode; a v1 or v2 chunk,
//! which carries no footer, is decoded once and summarized. Nothing is
//! cached beside the chunks and nothing is written: the index is always
//! the directory's current chunk set, and a reader never writes into a
//! directory it queries.
//!
//! [`Manifest::write`] exports an index as a `MANIFEST` file
//! ([`MANIFEST_FILE`]), a copy of every footer:
//!
//! ```text
//! RLSMANF1 | count:u32
//!          | (name_len:u16 | file name | size:u64
//!             | footer_len:u32 | footer payload) …   (stream order)
//!          | checksum:u64       (FNV-1a of everything after the magic)
//! ```
//!
//! It is an export that nothing in this workspace reads back.
//!
//! [`Manifest::select`] is the predicate-pushdown primitive: given a
//! [`ChunkQuery`] (time window, process id, phase name), it returns
//! exactly the chunk files whose footers admit a contribution to the
//! query, in stream order. [`crate::analysis::Analysis`] pushes its
//! `.time_window` / `.process` / `.phase` filters down through this call,
//! skipping whole chunks before any decode.
//!
//! # Start-ordered rewrite
//!
//! Profiler streams record an event when it **closes**, so raw dumps are
//! end-ordered and their start-time disorder spans the longest open
//! annotation — and a streamed query's sweeps must hold everything back
//! to the start of the oldest annotation not yet written
//! ([`crate::overlap::OverlapSweep::release_to`]).
//! [`reorder_chunk_dir`] rewrites any chunk directory into a
//! start-sorted v3 directory via an external merge (sorted runs spilled
//! as raw uncompressed record files, k-way merged record-at-a-time), in
//! bounded memory. The
//! rewrite preserves the event multiset and the relative order of
//! equal-start events, so every analysis over the reordered directory is
//! table-identical to the original — and the release frontier now
//! trails the stream by one chunk (the stream is fully start-sorted,
//! [`Manifest::is_start_sorted`] reports it), so a query holds about one
//! chunk's boundaries however long the directory is.
//!
//! # Streaming reader contract
//!
//! A chunk directory is a set of `chunk_NNNNN.rls` files; stream order
//! is name-length-then-lexicographic (see [`list_chunk_files`]) — the
//! writer's rotation sequence, robust to the sequence number outgrowing
//! its zero padding. Each
//! chunk is self-contained — its string table and timestamp delta chain
//! reset at the chunk header — so chunks decode independently and a
//! reader never needs more than one chunk in memory.
//!
//! [`for_each_decoded_chunk_columns`] is the streaming access path: it
//! decodes a file list chunk-parallel and hands each chunk's
//! [`EventColumns`] to the caller in stream order, to consume and drop.
//! Downstream analysis ([`crate::analysis::Analysis::from_chunk_dir`]
//! over [`crate::overlap::OverlapSweep`]) reduces each chunk to compact
//! sweep state immediately, which is what lets
//! whole-experiment chunk directories be analyzed without ever
//! materializing the concatenated event stream. A consumer that needs
//! whole `Event` values (the start-ordered rewrite) bridges each chunk
//! with [`EventColumns::to_events`].
//!
//! # One event representation below the API
//!
//! There is one chunk parser, [`decode_columns`], and it fills an
//! [`EventColumns`] structure of arrays: parallel `pids: Vec<u32>`,
//! `kinds: Vec<u8>` (the wire tags, already validated), `name_ids:
//! Vec<u32>` (indices into the chunk's shared `names` table),
//! `starts: Vec<u64>`, and `ends: Vec<u64>` columns, plus a
//! `start_sorted` hint computed during the decode — five flat primitive
//! columns instead of one ~48-byte struct per event, and no per-event
//! `Arc<str>` clone. Everything byte-sourced consumes the columns
//! directly: the v3 footer cross-check, [`recover_chunk_prefix`],
//! [`Manifest::open`] on legacy chunks, the chunk-parallel executor, and
//! downstream the sweep's one push path,
//! [`crate::overlap::OverlapSweep::push_columns`]
//! ([`crate::overlap::compute_overlap_columns`] is a single call of it;
//! the collector's crash recovery replays through exactly the code its
//! ingest ran).
//!
//! Rows are a bridge over that parser, not a second one:
//! [`decode_events`] is `decode_columns(..)?.to_events()`, and
//! [`EventColumns::to_events`] returns typed errors, never panics, on
//! column sets no decode would produce.
//!
//! In-memory `&[Event]` sources go the other way without a copy: the
//! footer summarizer here and the sweep's push path in
//! [`crate::overlap`] are each one generic body over the crate-private
//! `EventRow` accessor, monomorphized for `&Event` and
//! for a column row. `tests/properties.rs` pins the two instantiations
//! table-identical; `tests/fuzz_codec.rs` pins never-panic on the
//! parser and the bridge.

use crate::event::{CpuCategory, Event, EventKind, GpuCategory};
use crate::intern::{FnvHasher, Interner};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use crossbeam::channel::{bounded, unbounded, Sender};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::hash::Hasher;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

const MAGIC_V1: &[u8; 8] = b"RLSCOPE1";
const MAGIC_V2: &[u8; 8] = b"RLSCOPE2";
const MAGIC_V3: &[u8; 8] = b"RLSCOPE3";
/// Trailer magic closing a v3 chunk (preceded by the footer length).
const FOOTER_MAGIC: &[u8; 4] = b"RLF3";
const MANIFEST_MAGIC: &[u8; 8] = b"RLSMANF1";

/// Name of the chunk-directory manifest file [`Manifest::write`]
/// exports; nothing in this workspace reads it (see the module docs).
pub const MANIFEST_FILE: &str = "MANIFEST";

/// FNV-1a checksum of `bytes` — the integrity check appended to chunk
/// footers and manifests. Not cryptographic; it exists to turn random
/// corruption into a detected [`TraceIoError::Corrupt`] instead of a
/// silently wrong chunk-skip decision.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FnvHasher::default();
    h.write(bytes);
    h.finish()
}

/// Errors from trace encoding, decoding, or I/O.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// The file is malformed.
    Corrupt(String),
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

fn kind_tag(kind: &EventKind) -> u8 {
    match kind {
        EventKind::Cpu(CpuCategory::Python) => 0,
        EventKind::Cpu(CpuCategory::Simulator) => 1,
        EventKind::Cpu(CpuCategory::Backend) => 2,
        EventKind::Cpu(CpuCategory::CudaApi) => 3,
        EventKind::Gpu(GpuCategory::Kernel) => 4,
        EventKind::Gpu(GpuCategory::Memcpy) => 5,
        EventKind::Operation => 6,
        EventKind::Phase => 7,
    }
}

fn tag_kind(tag: u8) -> Result<EventKind, TraceIoError> {
    Ok(match tag {
        0 => EventKind::Cpu(CpuCategory::Python),
        1 => EventKind::Cpu(CpuCategory::Simulator),
        2 => EventKind::Cpu(CpuCategory::Backend),
        3 => EventKind::Cpu(CpuCategory::CudaApi),
        4 => EventKind::Gpu(GpuCategory::Kernel),
        5 => EventKind::Gpu(GpuCategory::Memcpy),
        6 => EventKind::Operation,
        7 => EventKind::Phase,
        t => return Err(TraceIoError::Corrupt(format!("unknown event tag {t}"))),
    })
}

/// The wire tag of [`EventKind::Operation`] (see [`kind_tag`]).
pub(crate) const TAG_OP: u8 = 6;
/// The wire tag of [`EventKind::Phase`] (see [`kind_tag`]).
pub(crate) const TAG_PHASE: u8 = 7;

/// What the merged engine bodies — the footer summarizer here and the
/// sweep's push path in [`crate::overlap`] — read of one event. Each body is written once over this accessor and
/// monomorphized for `&Event` (in-memory sources, which would pay a copy
/// to become columns) and [`ColumnRow`] (decoded chunks, which never
/// materialize rows).
pub(crate) trait EventRow {
    fn pid(&self) -> u32;
    /// Wire kind tag (see [`kind_tag`]).
    fn tag(&self) -> u8;
    /// `(start, end)` in nanoseconds.
    fn span(&self) -> (u64, u64);
    fn name(&self) -> &Arc<str>;
    /// The name's dense id in `interner`. `xlat` is the caller's
    /// per-chunk name-table-id → dense-id memo: columns hash each
    /// distinct name once per chunk through it; rows hash per event and
    /// leave it untouched.
    fn dense_id(&self, xlat: &mut Vec<u32>, interner: &mut Interner) -> u32;
}

impl EventRow for &Event {
    #[inline]
    fn pid(&self) -> u32 {
        self.pid.as_u32()
    }
    #[inline]
    fn tag(&self) -> u8 {
        kind_tag(&self.kind)
    }
    #[inline]
    fn span(&self) -> (u64, u64) {
        (self.start.as_nanos(), self.end.as_nanos())
    }
    #[inline]
    fn name(&self) -> &Arc<str> {
        &self.name
    }
    #[inline]
    fn dense_id(&self, _xlat: &mut Vec<u32>, interner: &mut Interner) -> u32 {
        interner.intern(&self.name)
    }
}

/// Event `i` of an [`EventColumns`] (see [`EventColumns::rows`]).
pub(crate) struct ColumnRow<'a> {
    cols: &'a EventColumns,
    i: usize,
}

#[expect(
    clippy::indexing_slicing,
    reason = "`EventColumns::rows` yields `i < len()` of `readable` columns: equal lengths, in-range name ids"
)]
impl EventRow for ColumnRow<'_> {
    #[inline]
    fn pid(&self) -> u32 {
        self.cols.pids[self.i]
    }
    #[inline]
    fn tag(&self) -> u8 {
        self.cols.kinds[self.i]
    }
    #[inline]
    fn span(&self) -> (u64, u64) {
        (self.cols.starts[self.i], self.cols.ends[self.i])
    }
    #[inline]
    fn name(&self) -> &Arc<str> {
        &self.cols.names[self.cols.name_ids[self.i] as usize]
    }
    #[inline]
    fn dense_id(&self, xlat: &mut Vec<u32>, interner: &mut Interner) -> u32 {
        if xlat.is_empty() {
            xlat.resize(self.cols.names.len(), u32::MAX);
        }
        let id = self.cols.name_ids[self.i] as usize;
        let slot = &mut xlat[id];
        if *slot == u32::MAX {
            *slot = interner.intern(&self.cols.names[id]);
        }
        *slot
    }
}

/// Truncates a name to at most `u16::MAX` bytes **on a char boundary**,
/// so oversized names shorten cleanly instead of producing invalid UTF-8
/// that fails the round-trip decode.
fn truncate_name(name: &str) -> &str {
    const MAX: usize = u16::MAX as usize;
    if name.len() <= MAX {
        return name;
    }
    let mut end = MAX;
    while !name.is_char_boundary(end) {
        end -= 1;
    }
    &name[..end]
}

/// Writes an LEB128 varint into `out` at `at`, returning the new offset.
#[expect(
    clippy::indexing_slicing,
    reason = "encoder: callers stage into a buffer sized for the largest record"
)]
fn write_varint(out: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[at] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Reads an LEB128 varint, erroring on truncation or overlong encodings.
pub(crate) fn get_varint(data: &mut &[u8], what: &str) -> Result<u64, TraceIoError> {
    let mut v: u64 = 0;
    let mut i = 0;
    loop {
        let Some(&byte) = data.get(i) else {
            return Err(TraceIoError::Corrupt(format!("truncated varint in {what}")));
        };
        // The 10th byte carries only bit 63: anything larger overflows
        // u64 and must be rejected, not silently truncated.
        if i == 9 && byte > 1 {
            return Err(TraceIoError::Corrupt(format!("varint overflow in {what}")));
        }
        v |= u64::from(byte & 0x7f) << (7 * i as u32);
        i += 1;
        if byte & 0x80 == 0 {
            *data = data.get(i..).unwrap_or(&[]);
            return Ok(v);
        }
        if i == 10 {
            return Err(TraceIoError::Corrupt(format!("varint too long in {what}")));
        }
    }
}

/// Maps a signed value onto an unsigned varint-friendly code.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Chunk footers
// ---------------------------------------------------------------------------

/// The span one phase covers inside one chunk: the bounding interval of
/// that phase's [`EventKind::Phase`] events there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (truncated to the wire limit like every event name).
    pub name: Arc<str>,
    /// Earliest start of the phase's events in the chunk.
    pub min_start: u64,
    /// Latest end of the phase's events in the chunk.
    pub max_end: u64,
    /// Pids owning the phase's events in this chunk, ascending. Empty
    /// means **unknown** (a footer written before pid sets existed), and
    /// readers must treat the span as possibly belonging to any pid —
    /// never as belonging to none. Phase scoping is per process, so this
    /// is what lets a process-scoped query skip chunks whose span of the
    /// phase belongs entirely to other pids.
    pub pids: Vec<u32>,
}

/// Per-chunk summary recorded in v3 trailers and [`Manifest`] entries:
/// everything a reader needs to decide whether a chunk can contribute to
/// a time-window, process, or phase query without decoding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkFooter {
    /// Number of events in the chunk (including zero-length ones).
    pub events: u32,
    /// Earliest event start (`u64::MAX` for an empty chunk).
    pub min_start: u64,
    /// Latest event start (`0` for an empty chunk).
    pub max_start: u64,
    /// Latest event end (`0` for an empty chunk).
    pub max_end: u64,
    /// Whether event starts are ascending within the chunk.
    pub start_sorted: bool,
    /// Process ids present, ascending.
    pub pids: Vec<u32>,
    /// Phase spans present, ascending by name.
    pub phases: Vec<PhaseSpan>,
    /// The producer's declaration at the flush that cut this chunk
    /// (`None` for every undeclared chunk): see the module docs on
    /// declared chunks.
    pub cut: Option<Cut>,
}

/// What a producer declares at one of its flushes: the scopes still
/// open, and how far back anything it emits later can start. A
/// [`crate::profiler::Profiler`] streaming to a sink makes one per
/// batch ([`crate::profiler::cut_of`]); [`encode_declared`] carries it
/// in the chunk footer, and the collector's live ingest holds the
/// producer to it ([`crate::analysis::LiveState::push_columns`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// The producer's clock at the flush (nanoseconds).
    pub at: u64,
    /// No event emitted after the flush starts before this, except the
    /// close of a scope in `open`: the earliest enter time of a native
    /// or CUDA call still in flight, or `at` when none is.
    pub frontier: u64,
    /// The scopes open at the flush, per process outermost first: the
    /// phase, then the operation stack.
    pub open: Vec<OpenScope>,
}

/// One operation or phase still open at a [`Cut`]. Its close is an
/// ordinary event with the same pid, kind, name and start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenScope {
    /// The owning process.
    pub pid: u32,
    /// A phase (`true`) or an operation annotation.
    pub phase: bool,
    /// The scope's name (truncated to the wire limit on encode).
    pub name: Arc<str>,
    /// When it opened (nanoseconds).
    pub start: u64,
}

impl OpenScope {
    /// The scope as the event its close will be, ending at `end`.
    pub fn closed_at(&self, end: u64) -> Event {
        let kind = if self.phase { EventKind::Phase } else { EventKind::Operation };
        Event::new(
            ProcessId(self.pid),
            kind,
            self.name.clone(),
            TimeNs::from_nanos(self.start),
            TimeNs::from_nanos(end),
        )
    }
}

impl Cut {
    /// The declared scopes closed at the cut, innermost first — the
    /// order their closes arrive in. This is how a stream that ends
    /// here (a producer that died, a sink finished before its
    /// profiler) accounts for what was still open: as
    /// [`crate::profiler::Profiler::snapshot`] does, up to the cut.
    pub fn closing_events(&self) -> Vec<Event> {
        self.open.iter().rev().map(|scope| scope.closed_at(self.at)).collect()
    }
}

impl ChunkFooter {
    /// True when some event interval may overlap the half-open window
    /// `[lo, hi)` — the safe-to-decode test for time-window pushdown
    /// (every event lies inside `[min_start, max_end]`, so a disjoint
    /// window cannot receive any attribution from this chunk). The upper
    /// bound is treated inclusively: an **instant** event at exactly
    /// `max_end` belongs to a window starting there (it contributes
    /// presence, not time — see the analysis executor's window rule),
    /// so `max_end == lo` must not skip the chunk.
    pub fn overlaps(&self, lo: u64, hi: u64) -> bool {
        self.events > 0 && self.min_start < hi && self.max_end >= lo
    }

    /// True when the chunk holds events of `pid`.
    pub fn contains_pid(&self, pid: u32) -> bool {
        self.pids.binary_search(&pid).is_ok()
    }

    /// The chunk's bounding span for one phase, if present.
    pub fn phase_span(&self, name: &str) -> Option<(u64, u64)> {
        self.phase(name).map(|p| (p.min_start, p.max_end))
    }

    /// The chunk's full [`PhaseSpan`] entry for one phase, if present.
    #[expect(clippy::indexing_slicing, reason = "`i` is a `binary_search` hit")]
    pub fn phase(&self, name: &str) -> Option<&PhaseSpan> {
        self.phases.binary_search_by(|p| (*p.name).cmp(name)).ok().map(|i| &self.phases[i])
    }
}

/// Computes the footer summary of an event batch — the same values a v3
/// decode cross-checks against its trailer.
pub fn compute_footer(events: &[Event]) -> ChunkFooter {
    footer_of(events.iter())
}

/// [`compute_footer`] over decoded columns, without materializing rows.
pub fn compute_footer_columns(cols: &EventColumns) -> ChunkFooter {
    footer_of(cols.rows())
}

/// The one footer summarizer, monomorphized for in-memory rows (the
/// encode side) and decoded columns (the v3 cross-check, crash recovery,
/// and [`Manifest::open`] over legacy chunks).
fn footer_of(rows: impl ExactSizeIterator<Item = impl EventRow>) -> ChunkFooter {
    let events = rows.len() as u32;
    let mut min_start = u64::MAX;
    let mut max_start = 0u64;
    let mut max_end = 0u64;
    let mut sorted = true;
    let mut prev = 0u64;
    let mut pids: Vec<u32> = Vec::new();
    let mut phases: BTreeMap<Arc<str>, (u64, u64, Vec<u32>)> = BTreeMap::new();
    for e in rows {
        let (s, t) = e.span();
        min_start = min_start.min(s);
        max_start = max_start.max(s);
        max_end = max_end.max(t);
        sorted &= s >= prev;
        prev = s;
        let pid = e.pid();
        if let Err(at) = pids.binary_search(&pid) {
            pids.insert(at, pid);
        }
        if e.tag() == TAG_PHASE {
            // Names are truncated like the codec truncates them, so the
            // footer matches what a round-trip decode will contain
            // (decoded names are already within the wire limit).
            let name: Arc<str> = if e.name().len() <= u16::MAX as usize {
                e.name().clone()
            } else {
                Arc::from(truncate_name(e.name()))
            };
            let span = phases.entry(name).or_insert((s, t, Vec::new()));
            span.0 = span.0.min(s);
            span.1 = span.1.max(t);
            if let Err(at) = span.2.binary_search(&pid) {
                span.2.insert(at, pid);
            }
        }
    }
    ChunkFooter {
        events,
        min_start,
        max_start,
        max_end,
        start_sorted: sorted,
        pids,
        phases: phases
            .into_iter()
            .map(|(name, (min_start, max_end, pids))| PhaseSpan { name, min_start, max_end, pids })
            .collect(),
        cut: None,
    }
}

/// Flag bit: event starts are ascending within the chunk.
const FOOTER_FLAG_START_SORTED: u8 = 1;
/// Flag bit: each phase span carries its per-phase pid set. Footers
/// written before this bit existed decode with empty (= unknown) span
/// pid sets, which readers must treat conservatively.
const FOOTER_FLAG_PHASE_PIDS: u8 = 2;
/// Flag bit: the footer carries the producer's declaration at the cut
/// ([`ChunkFooter::cut`]); see the module docs on declared chunks.
const FOOTER_FLAG_OPEN_SCOPES: u8 = 4;

/// Appends the footer payload (including its trailing checksum) to `out`.
#[expect(
    clippy::indexing_slicing,
    reason = "encoder: `at` is the length before this payload was appended"
)]
pub(crate) fn encode_footer_payload(f: &ChunkFooter, out: &mut BytesMut) {
    let at = out.len();
    out.put_u32(f.events);
    out.put_u64(f.min_start);
    out.put_u64(f.max_start);
    out.put_u64(f.max_end);
    let declared = if f.cut.is_some() { FOOTER_FLAG_OPEN_SCOPES } else { 0 };
    out.put_u8(u8::from(f.start_sorted) | FOOTER_FLAG_PHASE_PIDS | declared);
    out.put_u32(f.pids.len() as u32);
    for &pid in &f.pids {
        out.put_u32(pid);
    }
    out.put_u32(f.phases.len() as u32);
    for p in &f.phases {
        out.put_u16(p.name.len() as u16);
        out.put_slice(p.name.as_bytes());
        out.put_u64(p.min_start);
        out.put_u64(p.max_end);
        out.put_u32(p.pids.len() as u32);
        for &pid in &p.pids {
            out.put_u32(pid);
        }
    }
    if let Some(cut) = &f.cut {
        out.put_u64(cut.at);
        out.put_u64(cut.frontier);
        out.put_u32(cut.open.len() as u32);
        for scope in &cut.open {
            let name = truncate_name(&scope.name);
            out.put_u32(scope.pid);
            out.put_u8(if scope.phase { TAG_PHASE } else { TAG_OP });
            out.put_u16(name.len() as u16);
            out.put_slice(name.as_bytes());
            out.put_u64(scope.start);
        }
    }
    let sum = fnv1a(&out[at..]);
    out.put_u64(sum);
}

/// Decodes a footer payload, verifying its checksum, canonical ordering,
/// and that every byte is consumed.
fn decode_footer_payload(payload: &[u8]) -> Result<ChunkFooter, TraceIoError> {
    let corrupt = |what: &str| TraceIoError::Corrupt(format!("footer: {what}"));
    if payload.len() < 8 {
        return Err(corrupt("too short for checksum"));
    }
    let (mut data, sum_bytes) = payload.split_at(payload.len() - 8);
    let mut sum = [0u8; 8];
    sum.copy_from_slice(sum_bytes);
    if u64::from_be_bytes(sum) != fnv1a(data) {
        return Err(corrupt("checksum mismatch"));
    }
    if data.remaining() < 4 + 8 + 8 + 8 + 1 + 4 {
        return Err(corrupt("truncated header"));
    }
    let events = data.get_u32();
    let min_start = data.get_u64();
    let max_start = data.get_u64();
    let max_end = data.get_u64();
    let flags = data.get_u8();
    if flags & !(FOOTER_FLAG_START_SORTED | FOOTER_FLAG_PHASE_PIDS | FOOTER_FLAG_OPEN_SCOPES) != 0 {
        return Err(corrupt("unknown flag bits"));
    }
    let has_phase_pids = flags & FOOTER_FLAG_PHASE_PIDS != 0;
    let pid_count = data.get_u32() as usize;
    if data.remaining() < pid_count.saturating_mul(4) {
        return Err(corrupt("truncated pid set"));
    }
    let mut pids = Vec::with_capacity(pid_count);
    for _ in 0..pid_count {
        let pid = data.get_u32();
        if pids.last().is_some_and(|&prev| prev >= pid) {
            return Err(corrupt("pid set not strictly ascending"));
        }
        pids.push(pid);
    }
    if data.remaining() < 4 {
        return Err(corrupt("truncated phase set"));
    }
    let phase_count = data.get_u32() as usize;
    let mut phases: Vec<PhaseSpan> = Vec::with_capacity(phase_count.min(1 << 16));
    for _ in 0..phase_count {
        if data.remaining() < 2 {
            return Err(corrupt("truncated phase entry"));
        }
        let len = data.get_u16() as usize;
        if data.remaining() < len + 16 {
            return Err(corrupt("truncated phase entry"));
        }
        let Some((name_bytes, rest)) = data.split_at_checked(len) else {
            return Err(corrupt("truncated phase entry"));
        };
        let name = std::str::from_utf8(name_bytes).map_err(|_| corrupt("non-utf8 phase name"))?;
        let name: Arc<str> = Arc::from(name);
        data = rest;
        let min = data.get_u64();
        let max = data.get_u64();
        if phases.last().is_some_and(|prev| *prev.name >= *name) {
            return Err(corrupt("phase set not strictly name-ascending"));
        }
        let mut span_pids = Vec::new();
        if has_phase_pids {
            if data.remaining() < 4 {
                return Err(corrupt("truncated phase pid set"));
            }
            let n = data.get_u32() as usize;
            if data.remaining() < n.saturating_mul(4) {
                return Err(corrupt("truncated phase pid set"));
            }
            span_pids.reserve(n);
            for _ in 0..n {
                let pid = data.get_u32();
                if span_pids.last().is_some_and(|&prev| prev >= pid) {
                    return Err(corrupt("phase pid set not strictly ascending"));
                }
                span_pids.push(pid);
            }
        }
        phases.push(PhaseSpan { name, min_start: min, max_end: max, pids: span_pids });
    }
    let cut =
        if flags & FOOTER_FLAG_OPEN_SCOPES != 0 { Some(decode_cut(&mut data)?) } else { None };
    if !data.is_empty() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(ChunkFooter {
        events,
        min_start,
        max_start,
        max_end,
        start_sorted: flags & FOOTER_FLAG_START_SORTED != 0,
        pids,
        phases,
        cut,
    })
}

/// Decodes a footer's declaration (flag bit 2), checking what a
/// declaration promises of itself: known scope tags, `frontier <= cut`
/// and every scope start `<= cut`.
fn decode_cut(data: &mut &[u8]) -> Result<Cut, TraceIoError> {
    let corrupt = |what: &str| TraceIoError::Corrupt(format!("footer declaration: {what}"));
    if data.remaining() < 8 + 8 + 4 {
        return Err(corrupt("truncated header"));
    }
    let at = data.get_u64();
    let frontier = data.get_u64();
    if frontier > at {
        return Err(corrupt("frontier after the cut"));
    }
    let count = data.get_u32() as usize;
    let mut open = Vec::with_capacity(count.min(1 << 10));
    for _ in 0..count {
        if data.remaining() < 4 + 1 + 2 {
            return Err(corrupt("truncated scope"));
        }
        let pid = data.get_u32();
        let phase = match data.get_u8() {
            TAG_OP => false,
            TAG_PHASE => true,
            _ => return Err(corrupt("scope is neither an operation nor a phase")),
        };
        let len = data.get_u16() as usize;
        let Some((name_bytes, rest)) = data.split_at_checked(len) else {
            return Err(corrupt("truncated scope"));
        };
        let name = std::str::from_utf8(name_bytes).map_err(|_| corrupt("non-utf8 scope name"))?;
        let name: Arc<str> = Arc::from(name);
        *data = rest;
        if data.remaining() < 8 {
            return Err(corrupt("truncated scope"));
        }
        let start = data.get_u64();
        if start > at {
            return Err(corrupt("scope starts after the cut"));
        }
        open.push(OpenScope { pid, phase, name, start });
    }
    Ok(Cut { at, frontier, open })
}

/// Splits the post-magic bytes of a v3 chunk into `(body, footer
/// payload)` using the fixed trailer.
fn split_v3(rem: &[u8]) -> Result<(&[u8], &[u8]), TraceIoError> {
    if rem.len() < 8 {
        return Err(TraceIoError::Corrupt("v3 chunk too short for trailer".into()));
    }
    let (tail, magic) = rem.split_at(rem.len() - 4);
    if magic != FOOTER_MAGIC {
        return Err(TraceIoError::Corrupt("missing v3 footer magic".into()));
    }
    let Some((head, len_bytes)) = tail.split_last_chunk::<4>() else {
        return Err(TraceIoError::Corrupt("v3 chunk too short for trailer".into()));
    };
    let footer_len = u32::from_be_bytes(*len_bytes) as usize;
    let Some(body_len) = head.len().checked_sub(footer_len) else {
        return Err(TraceIoError::Corrupt("v3 footer length out of range".into()));
    };
    let (body, footer) = head.split_at(body_len);
    Ok((body, footer))
}

/// Reads a chunk's footer without decoding its events: `Some` for v3
/// chunks (trailer parse only), `None` for v1/v2 chunks (no footer on
/// the wire — decode the chunk and use [`compute_footer`]).
///
/// # Errors
///
/// [`TraceIoError::Corrupt`] on unknown magic or a malformed trailer.
pub fn read_chunk_footer(data: &[u8]) -> Result<Option<ChunkFooter>, TraceIoError> {
    if data.len() < MAGIC_V1.len() + 4 {
        return Err(TraceIoError::Corrupt("chunk too short for header".into()));
    }
    let Some((magic, rest)) = data.split_first_chunk::<8>() else {
        return Err(TraceIoError::Corrupt("chunk too short for header".into()));
    };
    match magic {
        m if m == MAGIC_V1 || m == MAGIC_V2 => Ok(None),
        m if m == MAGIC_V3 => {
            let (_, footer) = split_v3(rest)?;
            Ok(Some(decode_footer_payload(footer)?))
        }
        _ => Err(TraceIoError::Corrupt("bad magic".into())),
    }
}

/// Chunks at most this long are read whole by [`read_footer_tail`]: one
/// read costs less than the three a tail takes.
const WHOLE_CHUNK_BYTES: u64 = 8 << 10;

/// [`read_chunk_footer`] over the chunk file `chunk`, `size` bytes long
/// and positioned at its start, for [`Manifest::open`]. A longer chunk
/// is read at its tail alone: the 8-byte magic, the 8-byte trailer,
/// then exactly the `footer_len` bytes before the trailer — the body is
/// never read, and a `footer_len` the file cannot hold is rejected
/// before anything of that size is allocated.
///
/// # Errors
///
/// As [`read_chunk_footer`], plus I/O errors reading the file.
fn read_footer_tail(chunk: &mut fs::File, size: u64) -> Result<Option<ChunkFooter>, TraceIoError> {
    if size <= WHOLE_CHUNK_BYTES {
        let mut data = vec![0u8; size as usize];
        chunk.read_exact(&mut data)?;
        return read_chunk_footer(&data);
    }
    let mut magic = [0u8; 8];
    chunk.read_exact(&mut magic)?;
    match &magic {
        m if m == MAGIC_V1 || m == MAGIC_V2 => return Ok(None),
        m if m == MAGIC_V3 => {}
        _ => return Err(TraceIoError::Corrupt("bad magic".into())),
    }
    // Magic and trailer; what is left holds the body and the footer.
    let room = size - 16;
    let mut trailer = [0u8; 8];
    chunk.seek(io::SeekFrom::Start(room + 8))?;
    chunk.read_exact(&mut trailer)?;
    let Some((len_bytes, footer_magic)) = trailer.split_first_chunk::<4>() else {
        return Err(TraceIoError::Corrupt("v3 chunk too short for trailer".into()));
    };
    if footer_magic != FOOTER_MAGIC {
        return Err(TraceIoError::Corrupt("missing v3 footer magic".into()));
    }
    let footer_len = u64::from(u32::from_be_bytes(*len_bytes));
    if footer_len > room {
        return Err(TraceIoError::Corrupt("v3 footer length out of range".into()));
    }
    let mut footer = vec![0u8; footer_len as usize];
    chunk.seek(io::SeekFrom::Start(room + 8 - footer_len))?;
    chunk.read_exact(&mut footer)?;
    decode_footer_payload(&footer).map(Some)
}

/// Encodes a batch of events into the current (v3) chunk wire format:
/// the v2 body (string table plus varint delta-encoded timestamps)
/// followed by the self-describing footer. See the module docs for the
/// byte layout.
pub fn encode_events(events: &[Event]) -> Bytes {
    encode_v3(events, None)
}

/// [`encode_events`] plus the producer's declaration at the cut, in the
/// footer under flag bit 2 (see the module docs on declared chunks).
/// The body is the one [`encode_events`] writes; only the footer grows.
/// A batch that falls back to v1 (a start beyond `i64::MAX`) has no
/// footer and so carries no declaration.
pub fn encode_declared(events: &[Event], cut: &Cut) -> Bytes {
    encode_v3(events, Some(cut))
}

fn encode_v3(events: &[Event], cut: Option<&Cut>) -> Bytes {
    // Start timestamps are delta-coded through i64, so batches containing
    // a start beyond i64::MAX (impossible for virtual-clock traces, but
    // representable in the event model) fall back to the fixed-width v1
    // format, which round-trips the full u64 range. (The chunk then has
    // no on-wire footer; `Manifest::open` decodes it to compute one.)
    if events.iter().any(|e| e.start.as_nanos() > i64::MAX as u64) {
        return encode_events_v1(events);
    }
    let mut buf = BytesMut::with_capacity(events.len() * 12 + 128);
    buf.put_slice(MAGIC_V3);
    encode_v2_body(events, &mut buf);
    let at = buf.len();
    let footer = ChunkFooter { cut: cut.cloned(), ..compute_footer(events) };
    encode_footer_payload(&footer, &mut buf);
    let footer_len = (buf.len() - at) as u32;
    buf.put_u32(footer_len);
    buf.put_slice(FOOTER_MAGIC);
    buf.freeze()
}

/// Appends the v3 body (the whole of a legacy v2 chunk after its magic)
/// — `count`, string table, event records — to `buf`.
#[expect(
    clippy::indexing_slicing,
    reason = "encoder: a record (four varints and a tag byte) fits its 48-byte stack buffer"
)]
fn encode_v2_body(events: &[Event], buf: &mut BytesMut) {
    let mut interner = Interner::with_capacity(64);
    let mut name_ids = Vec::with_capacity(events.len());
    for e in events {
        if e.name.len() <= u16::MAX as usize {
            name_ids.push(interner.intern(&e.name));
        } else {
            name_ids.push(interner.intern_str(truncate_name(&e.name)));
        }
    }

    buf.put_u32(events.len() as u32);
    buf.put_u32(interner.len() as u32);
    for name in interner.names() {
        buf.put_u16(name.len() as u16);
        buf.put_slice(name.as_bytes());
    }
    // Each event record is staged in a stack buffer and appended with a
    // single slice copy (4 varints ≤ 40 bytes + pid/tag bytes).
    let mut record = [0u8; 48];
    let mut prev_start: i64 = 0;
    for (e, &name_id) in events.iter().zip(&name_ids) {
        let start = e.start.as_nanos();
        let mut n = write_varint(&mut record, 0, u64::from(e.pid.as_u32()));
        record[n] = kind_tag(&e.kind);
        n += 1;
        n = write_varint(&mut record, n, u64::from(name_id));
        n = write_varint(&mut record, n, zigzag(start as i64 - prev_start));
        n = write_varint(&mut record, n, e.end.as_nanos() - start);
        buf.put_slice(&record[..n]);
        prev_start = start as i64;
    }
}

/// Encodes a batch of events in the legacy v1 chunk format (fixed-width
/// fields, names inline) — what [`encode_events`] falls back to for
/// starts beyond `i64::MAX`, which the v3 delta chain cannot carry.
pub fn encode_events_v1(events: &[Event]) -> Bytes {
    let mut buf = BytesMut::with_capacity(events.len() * 32 + 16);
    buf.put_slice(MAGIC_V1);
    buf.put_u32(events.len() as u32);
    for e in events {
        buf.put_u32(e.pid.as_u32());
        buf.put_u8(kind_tag(&e.kind));
        let name = truncate_name(&e.name);
        buf.put_u16(name.len() as u16);
        buf.put_slice(name.as_bytes());
        buf.put_u64(e.start.as_nanos());
        buf.put_u64(e.end.as_nanos());
    }
    buf.freeze()
}

/// Decodes a chunk produced by [`encode_events`] (v3), a legacy v2
/// writer, or [`encode_events_v1`] (v1) into rows: [`decode_columns`] —
/// the one parser — plus the [`EventColumns::to_events`] bridge, for
/// consumers that need whole `Event` values.
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] on bad magic, truncation, invalid
/// tags, or a footer that fails validation.
pub fn decode_events(data: &[u8]) -> Result<Vec<Event>, TraceIoError> {
    decode_columns(data)?.to_events()
}

/// The v3 cross-check predicate: the decoded footer must agree with the
/// footer recomputed from the decoded events on every field — except
/// that a phase span with an **empty** pid set (a footer written before
/// per-phase pid sets existed) is accepted against any recomputed pid
/// set. This keeps legacy v3 chunks decodable while still rejecting any
/// footer that *claims* pids and gets them wrong. A declaration is not
/// derived from the events, so it is not compared: its own checks ran
/// when the footer decoded.
fn footer_consistent(decoded: &ChunkFooter, computed: &ChunkFooter) -> bool {
    decoded.events == computed.events
        && decoded.min_start == computed.min_start
        && decoded.max_start == computed.max_start
        && decoded.max_end == computed.max_end
        && decoded.start_sorted == computed.start_sorted
        && decoded.pids == computed.pids
        && decoded.phases.len() == computed.phases.len()
        && decoded.phases.iter().zip(&computed.phases).all(|(d, c)| {
            d.name == c.name
                && d.min_start == c.min_start
                && d.max_end == c.max_end
                && (d.pids.is_empty() || d.pids == c.pids)
        })
}

/// Decodes the shared v2/v3 chunk header — `count`, then the string
/// table — advancing `data` past it.
fn decode_v2_header(data: &mut &[u8]) -> Result<(usize, Vec<Arc<str>>), TraceIoError> {
    if data.remaining() < 4 {
        return Err(TraceIoError::Corrupt("truncated chunk header".into()));
    }
    let count = data.get_u32() as usize;
    if data.remaining() < 4 {
        return Err(TraceIoError::Corrupt("truncated string table header".into()));
    }
    let n_strings = data.get_u32() as usize;
    let mut names: Vec<Arc<str>> = Vec::with_capacity(n_strings.min(1 << 20));
    for i in 0..n_strings {
        if data.remaining() < 2 {
            return Err(TraceIoError::Corrupt(format!("truncated string table at entry {i}")));
        }
        let len = data.get_u16() as usize;
        if data.remaining() < len {
            return Err(TraceIoError::Corrupt(format!("truncated string table at entry {i}")));
        }
        let cur = *data;
        let Some((str_bytes, rest)) = cur.split_at_checked(len) else {
            return Err(TraceIoError::Corrupt(format!("truncated string table at entry {i}")));
        };
        let s = std::str::from_utf8(str_bytes)
            .map_err(|_| TraceIoError::Corrupt(format!("non-utf8 string table entry {i}")))?;
        names.push(Arc::from(s));
        *data = rest;
    }
    Ok((count, names))
}

// ---------------------------------------------------------------------------
// Decode (structure of arrays)
// ---------------------------------------------------------------------------

/// A decoded chunk as a structure of arrays — see the module docs'
/// *Columnar layout* section. One entry per event across the five
/// parallel columns; `names` is the chunk's shared name table (v2/v3
/// string table verbatim; deduplicated on the fly for v1), referenced
/// by `name_ids`, never cloned per event.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventColumns {
    /// Chunk-local name table; `name_ids` index into it.
    pub names: Vec<Arc<str>>,
    /// Process id per event.
    pub pids: Vec<u32>,
    /// Wire kind tag per event (0–3 CPU, 4–5 GPU, 6 operation, 7
    /// phase), validated against the known tags at decode.
    pub kinds: Vec<u8>,
    /// Index into `names` per event, validated in range at decode.
    pub name_ids: Vec<u32>,
    /// Start timestamp (ns) per event.
    pub starts: Vec<u64>,
    /// End timestamp (ns) per event.
    pub ends: Vec<u64>,
    /// Whether `starts` is ascending — computed inline during decode,
    /// so sorted-stream consumers get the hint without a second pass.
    /// `false` is always safe.
    pub start_sorted: bool,
    /// The producer's declaration, when the chunk carries one
    /// ([`ChunkFooter::cut`]); `None` for every undeclared chunk and for
    /// columns built from rows.
    pub cut: Option<Cut>,
}

impl EventColumns {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when the chunk holds no events.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// True when the five columns differ in length — never after a
    /// decode, but the fields are public.
    pub(crate) fn ragged(&self) -> bool {
        let n = self.len();
        [self.pids.len(), self.kinds.len(), self.name_ids.len(), self.ends.len()] != [n; 4]
    }

    /// True when the columns can be read as rows ([`EventColumns::rows`]):
    /// equal lengths and every name id inside the name table. A decode
    /// always yields such columns; the sweep checks hand-built ones once
    /// per chunk instead of per row.
    pub(crate) fn readable(&self) -> bool {
        let names = self.names.len();
        !self.ragged() && self.name_ids.iter().all(|&id| (id as usize) < names)
    }

    /// The events as [`EventRow`]s, in order — how the generic engine
    /// bodies read columns. Only for [`EventColumns::readable`] columns.
    pub(crate) fn rows(&self) -> impl ExactSizeIterator<Item = ColumnRow<'_>> + Clone {
        (0..self.len()).map(move |i| ColumnRow { cols: self, i })
    }

    /// Builds columns from a row slice — the inverse of [`Self::to_events`].
    /// Names longer than the wire limit are truncated exactly as the
    /// codec truncates them, so `from_events` agrees with a round trip
    /// through [`encode_events`] + [`decode_columns`].
    pub fn from_events(events: &[Event]) -> Self {
        let mut interner = Interner::with_capacity(64);
        let mut cols = EventColumns::with_capacity(Vec::new(), events.len());
        for e in events {
            let id = if e.name.len() <= u16::MAX as usize {
                interner.intern(&e.name)
            } else {
                interner.intern_str(truncate_name(&e.name))
            };
            cols.push(e.pid.as_u32(), kind_tag(&e.kind), id, e.start.as_nanos(), e.end.as_nanos());
        }
        cols.names = interner.names().to_vec();
        cols
    }

    /// Empty columns over `names`, with room for `cap` events.
    fn with_capacity(names: Vec<Arc<str>>, cap: usize) -> Self {
        EventColumns {
            names,
            pids: Vec::with_capacity(cap),
            kinds: Vec::with_capacity(cap),
            name_ids: Vec::with_capacity(cap),
            starts: Vec::with_capacity(cap),
            ends: Vec::with_capacity(cap),
            start_sorted: true,
            cut: None,
        }
    }

    /// Appends one event, keeping `start_sorted` current.
    fn push(&mut self, pid: u32, tag: u8, name_id: u32, start: u64, end: u64) {
        self.start_sorted &= self.starts.last().is_none_or(|&prev| start >= prev);
        self.pids.push(pid);
        self.kinds.push(tag);
        self.name_ids.push(name_id);
        self.starts.push(start);
        self.ends.push(end);
    }

    /// Materializes the columns back into rows — the bridge behind
    /// [`decode_events`]; each event clones its name `Arc` out of the
    /// table.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Corrupt`] when the columns are not what a decode
    /// produces (the fields are public, so a hand-built set can carry
    /// anything): ragged column lengths, an unknown kind tag, or a name
    /// id outside the table.
    pub fn to_events(&self) -> Result<Vec<Event>, TraceIoError> {
        if self.ragged() {
            return Err(TraceIoError::Corrupt("event columns differ in length".into()));
        }
        // The fill is an infallible exact-size collect — filling under
        // `?`, or through `collect::<Result<_, _>>()` (which hides the
        // length), measures 1.6× this on the `decode_events` path. So a
        // bad field records its error and yields a placeholder row, and
        // the rows are discarded below.
        let mut bad = None;
        let fields = self.pids.iter().zip(&self.kinds).zip(&self.name_ids);
        let events = fields
            .zip(self.starts.iter().zip(&self.ends))
            .map(|(((&pid, &tag), &name_id), (&start, &end))| {
                let kind = tag_kind(tag).unwrap_or_else(|e| {
                    bad = Some(e);
                    EventKind::Phase
                });
                let name = self.names.get(name_id as usize).cloned().unwrap_or_else(|| {
                    bad = Some(TraceIoError::Corrupt(format!(
                        "name id {name_id} outside the name table"
                    )));
                    Arc::default()
                });
                Event {
                    pid: ProcessId(pid),
                    kind,
                    name,
                    start: TimeNs::from_nanos(start),
                    end: TimeNs::from_nanos(end),
                }
            })
            .collect();
        match bad {
            Some(e) => Err(e),
            None => Ok(events),
        }
    }
}

/// The chunk parser: decodes a v1/v2/v3 chunk (dispatching on the
/// magic) into [`EventColumns`] with zero `Vec<Event>` materialization.
/// v3 chunks additionally have their footer verified — checksum and
/// consistency with the decoded events — so a corrupt summary can never
/// survive a successful decode.
///
/// # Errors
///
/// Returns [`TraceIoError::Corrupt`] on bad magic, truncation, invalid
/// tags, or a footer that fails validation.
pub fn decode_columns(mut data: &[u8]) -> Result<EventColumns, TraceIoError> {
    if data.len() < MAGIC_V1.len() + 4 {
        return Err(TraceIoError::Corrupt("chunk too short for header".into()));
    }
    let mut magic = [0u8; 8];
    data.copy_to_slice(&mut magic);
    match &magic {
        m if m == MAGIC_V1 => decode_columns_v1(data),
        m if m == MAGIC_V2 => {
            let mut cursor = data;
            decode_columns_v2_body(&mut cursor)
        }
        m if m == MAGIC_V3 => decode_columns_v3(data),
        _ => Err(TraceIoError::Corrupt("bad magic".into())),
    }
}

/// Decodes the post-magic bytes of a v3 chunk: body, then footer, then
/// the footer-vs-events cross-check.
fn decode_columns_v3(rem: &[u8]) -> Result<EventColumns, TraceIoError> {
    let (body, footer_bytes) = split_v3(rem)?;
    let footer = decode_footer_payload(footer_bytes)?;
    let mut cursor = body;
    let mut cols = decode_columns_v2_body(&mut cursor)?;
    if !cursor.is_empty() {
        return Err(TraceIoError::Corrupt("trailing bytes after v3 event records".into()));
    }
    if !footer_consistent(&footer, &compute_footer_columns(&cols)) {
        return Err(TraceIoError::Corrupt("footer contradicts chunk events".into()));
    }
    cols.cut = footer.cut;
    Ok(cols)
}

/// v1 body: fixed-width records, names deduplicated into the column
/// table on the fly.
fn decode_columns_v1(mut data: &[u8]) -> Result<EventColumns, TraceIoError> {
    let count = data.get_u32() as usize;
    let mut interner = Interner::with_capacity(64);
    let mut cols = EventColumns::with_capacity(Vec::new(), count.min(1 << 20));
    for i in 0..count {
        if data.remaining() < 4 + 1 + 2 {
            return Err(TraceIoError::Corrupt(format!("truncated at event {i}")));
        }
        let pid = data.get_u32();
        let tag = data.get_u8();
        tag_kind(tag)?;
        let name_len = data.get_u16() as usize;
        if data.remaining() < name_len + 16 {
            return Err(TraceIoError::Corrupt(format!("truncated name at event {i}")));
        }
        let Some((name_bytes, rest)) = data.split_at_checked(name_len) else {
            return Err(TraceIoError::Corrupt(format!("truncated name at event {i}")));
        };
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| TraceIoError::Corrupt(format!("non-utf8 name at event {i}")))?;
        let name_id = interner.intern_str(name);
        data = rest;
        let start = data.get_u64();
        let end = data.get_u64();
        if end < start {
            return Err(TraceIoError::Corrupt(format!("event {i} ends before start")));
        }
        cols.push(pid, tag, name_id, start, end);
    }
    cols.names = interner.names().to_vec();
    Ok(cols)
}

/// Decodes the shared v2/v3 body (`count`, string table, event records),
/// advancing `data` past the records it consumed. Names stay in the
/// table, referenced by id.
fn decode_columns_v2_body(data: &mut &[u8]) -> Result<EventColumns, TraceIoError> {
    let (count, names) = decode_v2_header(data)?;
    let n_names = names.len();
    let mut cols = EventColumns::with_capacity(names, count.min(1 << 20));
    let mut prev_start: i64 = 0;
    for i in 0..count {
        let pid = get_varint(data, "pid")?;
        let pid = u32::try_from(pid)
            .map_err(|_| TraceIoError::Corrupt(format!("pid out of range at event {i}")))?;
        if data.remaining() < 1 {
            return Err(TraceIoError::Corrupt(format!("truncated at event {i}")));
        }
        let tag = data.get_u8();
        tag_kind(tag)?;
        let name_id = get_varint(data, "name id")? as usize;
        if name_id >= n_names {
            return Err(TraceIoError::Corrupt(format!(
                "name id {name_id} out of range at event {i}"
            )));
        }
        let delta = unzigzag(get_varint(data, "start delta")?);
        let start = prev_start
            .checked_add(delta)
            .ok_or_else(|| TraceIoError::Corrupt(format!("timestamp overflow at event {i}")))?;
        if start < 0 {
            return Err(TraceIoError::Corrupt(format!("negative timestamp at event {i}")));
        }
        let duration = get_varint(data, "duration")?;
        let end = (start as u64)
            .checked_add(duration)
            .ok_or_else(|| TraceIoError::Corrupt(format!("timestamp overflow at event {i}")))?;
        prev_start = start;
        cols.push(pid, tag, name_id as u32, start as u64, end);
    }
    Ok(cols)
}

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

/// Largest payload a length-prefixed wire frame may declare
/// ([`read_frame`] rejects bigger length fields before allocating, so a
/// corrupted or hostile length prefix cannot force an OOM).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes one length-prefixed wire frame: `len:u32 BE | kind:u8 |
/// payload`. This is the transport framing of the live collector
/// protocol (`rlscope-collector`); payloads are opaque here — chunk
/// bodies, handshakes, query specs.
///
/// # Errors
///
/// [`TraceIoError::Corrupt`] if the payload exceeds [`MAX_FRAME_LEN`];
/// I/O errors from the writer.
pub fn write_frame(w: &mut impl Write, kind: u8, payload: &[u8]) -> Result<(), TraceIoError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(TraceIoError::Corrupt(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit",
            payload.len()
        )));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(payload.len() as u32).to_be_bytes());
    header[4] = kind;
    w.write_all(&header)?;
    w.write_all(payload)?;
    Ok(())
}

/// Fills `buf` from `r`, discriminating the two EOF cases every
/// length-delimited reader here needs: `Ok(false)` for a clean EOF
/// before the first byte (the stream ended at a record boundary),
/// [`TraceIoError::Corrupt`] (naming `what`) for an EOF mid-record, and
/// retrying on [`io::ErrorKind::Interrupted`].
fn read_full(r: &mut impl Read, buf: &mut [u8], what: &str) -> Result<bool, TraceIoError> {
    let mut at = 0;
    while at < buf.len() {
        let (_, rest) = buf.split_at_mut(at);
        match r.read(rest) {
            Ok(0) if at == 0 => return Ok(false),
            Ok(0) => return Err(TraceIoError::Corrupt(format!("truncated {what}"))),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(true)
}

/// Reads one [`write_frame`] frame, returning `Ok(None)` on a clean EOF
/// **at a frame boundary** (the peer closed between frames). EOF inside
/// a frame — header or payload — is [`TraceIoError::Corrupt`], never a
/// short read: a truncated stream must be distinguishable from a
/// complete one, so a consumer can refuse to treat it as finished.
///
/// # Errors
///
/// Truncation inside a frame, a length field beyond [`MAX_FRAME_LEN`],
/// or I/O errors from the reader.
pub fn read_frame(r: &mut impl Read) -> Result<Option<(u8, Vec<u8>)>, TraceIoError> {
    let mut header = [0u8; 5];
    if !read_full(r, &mut header, "frame header")? {
        return Ok(None);
    }
    let [l0, l1, l2, l3, kind] = header;
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(TraceIoError::Corrupt(format!(
            "frame length {len} exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    let mut payload = vec![0u8; len];
    if len > 0 && !read_full(r, &mut payload, "frame payload")? {
        return Err(TraceIoError::Corrupt(format!("truncated frame payload (0 of {len} bytes)")));
    }
    Ok(Some((kind, payload)))
}

/// [`write_frame`] with the payload supplied in two parts (`head` then
/// `tail`), so callers prefixing a small header onto an already-encoded
/// body — the collector's sequence-numbered chunk frames — avoid
/// concatenating into a temporary buffer.
///
/// # Errors
///
/// Same as [`write_frame`]: a combined payload beyond [`MAX_FRAME_LEN`],
/// or I/O errors from the writer.
pub fn write_frame_parts(
    w: &mut impl Write,
    kind: u8,
    head: &[u8],
    tail: &[u8],
) -> Result<(), TraceIoError> {
    let len = head.len() + tail.len();
    if len > MAX_FRAME_LEN {
        return Err(TraceIoError::Corrupt(format!(
            "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit"
        )));
    }
    let mut header = [0u8; 5];
    header[..4].copy_from_slice(&(len as u32).to_be_bytes());
    header[4] = kind;
    w.write_all(&header)?;
    w.write_all(head)?;
    w.write_all(tail)?;
    Ok(())
}

/// The outcome of a [`recover_chunk_prefix`] crash-recovery scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredPrefix {
    /// Manifest entries for the surviving chunk prefix, in stream order —
    /// exactly what [`Manifest::open`] reads for those chunks.
    pub entries: Vec<ManifestEntry>,
    /// Chunk files removed by the scan: the first torn/corrupt chunk and
    /// everything after it (later chunks cannot belong to the durable
    /// prefix once the sequence is broken).
    pub removed: Vec<PathBuf>,
}

impl RecoveredPrefix {
    /// Events across the surviving prefix.
    pub fn events(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.footer.events)).sum()
    }
}

/// Crash-recovery scan over a chunk directory: validates every chunk in
/// stream order through the full decode path (codec framing, varints,
/// string ids, and the v3 footer checksum cross-check), **truncating the
/// directory at the first invalid chunk** — that chunk and every later
/// one are deleted, so what remains on disk is exactly a prefix of fully
/// validated chunks. A process killed mid-`write` leaves a torn tail
/// chunk whose footer checksum cannot match; this scan is how a restart
/// restores the "on disk ⇔ some acked prefix" invariant.
///
/// Each surviving chunk's decoded columns are handed to `sink` in stream
/// order (the collector replays them into its live sweeps through the
/// same `push_columns` ingest applied them with); pass a no-op closure
/// when only the entries are needed.
///
/// The surviving chunks are the directory's index: the next
/// [`Manifest::open`] reads exactly them.
///
/// # Errors
///
/// I/O errors listing the directory, reading chunk files, or deleting a
/// truncated tail. Corrupt chunk *bytes* are not an error — they are the
/// condition this scan exists to repair.
pub fn recover_chunk_prefix(
    dir: &Path,
    mut sink: impl FnMut(&EventColumns),
) -> Result<RecoveredPrefix, TraceIoError> {
    let files = list_chunk_files(dir)?;
    let mut entries = Vec::new();
    let mut removed = Vec::new();
    let mut broken = false;
    for path in files {
        if !broken {
            let data = fs::read(&path)?;
            if let Ok(cols) = decode_columns(&data) {
                let footer = match read_chunk_footer(&data) {
                    Ok(Some(footer)) => footer,
                    // v1-fallback chunks carry no footer on the wire.
                    _ => compute_footer_columns(&cols),
                };
                let file =
                    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                entries.push(ManifestEntry { file, size: data.len() as u64, footer });
                sink(&cols);
                continue;
            }
            broken = true;
        }
        fs::remove_file(&path)?;
        removed.push(path);
    }
    Ok(RecoveredPrefix { entries, removed })
}

enum WriterCmd {
    Batch(Vec<Event>),
    Finish,
}

/// Writes trace chunks asynchronously, off the (virtual) critical path.
pub struct TraceWriter {
    tx: Sender<WriterCmd>,
    handle: Option<JoinHandle<Result<Vec<PathBuf>, TraceIoError>>>,
}

impl fmt::Debug for TraceWriter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter").finish_non_exhaustive()
    }
}

impl TraceWriter {
    /// Starts a writer thread that stores chunks under `dir`, rotating
    /// files once the encoded pending batch reaches `chunk_bytes`.
    ///
    /// Any chunk files already in `dir` are deleted first: rotation
    /// numbering restarts at `chunk_00000`, so leftovers from a previous
    /// (possibly longer) run would otherwise survive alongside the new
    /// stream and the name-ordered readers would silently concatenate
    /// the two traces.
    ///
    /// The writer emits chunk files only; each v3 chunk carries its own
    /// footer, which is all [`Manifest::open`] reads to index the
    /// directory.
    ///
    /// # Errors
    ///
    /// Returns an error if `dir` cannot be created or stale chunk files
    /// cannot be removed.
    pub fn create(dir: &Path, chunk_bytes: usize) -> Result<Self, TraceIoError> {
        fs::create_dir_all(dir)?;
        for stale in list_chunk_files(dir)? {
            fs::remove_file(stale)?;
        }
        let dir = dir.to_path_buf();
        let (tx, rx) = unbounded::<WriterCmd>();
        let handle = std::thread::spawn(move || -> Result<Vec<PathBuf>, TraceIoError> {
            let mut pending: Vec<Event> = Vec::new();
            let mut pending_bytes = 0usize;
            let mut files = Vec::new();
            let flush = |pending: &mut Vec<Event>,
                         pending_bytes: &mut usize,
                         files: &mut Vec<PathBuf>|
             -> Result<(), TraceIoError> {
                if pending.is_empty() {
                    return Ok(());
                }
                let path = dir.join(format!("chunk_{:05}.rls", files.len()));
                fs::File::create(&path)?.write_all(&encode_events(pending))?;
                files.push(path);
                pending.clear();
                *pending_bytes = 0;
                Ok(())
            };
            for cmd in rx {
                match cmd {
                    WriterCmd::Batch(events) => {
                        pending_bytes += events.len() * 32;
                        pending.extend(events);
                        if pending_bytes >= chunk_bytes {
                            flush(&mut pending, &mut pending_bytes, &mut files)?;
                        }
                    }
                    WriterCmd::Finish => break,
                }
            }
            flush(&mut pending, &mut pending_bytes, &mut files)?;
            Ok(files)
        });
        Ok(TraceWriter { tx, handle: Some(handle) })
    }

    /// Enqueues a batch of events for asynchronous storage.
    pub fn write(&self, events: Vec<Event>) {
        // A disconnected writer is reported at finish(); drop silently here
        // (the writer thread only disconnects after an I/O failure).
        let _ = self.tx.send(WriterCmd::Batch(events));
    }

    /// Flushes and joins the writer thread, returning the chunk files.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer thread.
    ///
    /// # Panics
    ///
    /// Panics if called twice.
    #[expect(clippy::expect_used, reason = "documented panic: `finish` called twice")]
    pub fn finish(mut self) -> Result<Vec<PathBuf>, TraceIoError> {
        let _ = self.tx.send(WriterCmd::Finish);
        let handle = self.handle.take().expect("finish called twice");
        handle.join().map_err(|_| TraceIoError::Corrupt("writer thread panicked".into()))?
    }
}

impl Drop for TraceWriter {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = self.tx.send(WriterCmd::Finish);
            let _ = handle.join();
        }
    }
}

/// Lists the chunk files under `dir` in stream order: shorter names
/// first, then lexicographic — natural order for the writer's
/// zero-padded `chunk_NNNNN.rls` rotation sequence even after the
/// sequence number outgrows its padding (a plain name sort would slot
/// `chunk_100000.rls` between `chunk_10000.rls` and `chunk_10001.rls`).
///
/// # Errors
///
/// Returns an error if the directory cannot be read.
pub fn list_chunk_files(dir: &Path) -> Result<Vec<PathBuf>, TraceIoError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "rls"))
        .collect();
    paths.sort_by(|a, b| {
        (a.as_os_str().len(), a.as_os_str()).cmp(&(b.as_os_str().len(), b.as_os_str()))
    });
    Ok(paths)
}

// ---------------------------------------------------------------------------
// Manifest + predicate pushdown
// ---------------------------------------------------------------------------

/// One [`Manifest`] row: a chunk file's name, byte size, and footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Chunk file name (no directory component).
    pub file: String,
    /// Chunk file size in bytes.
    pub size: u64,
    /// The chunk's footer summary.
    pub footer: ChunkFooter,
}

/// The per-directory chunk index: every chunk's footer, in stream order,
/// as [`Manifest::open`] reads it off the chunks (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    dir: PathBuf,
    entries: Vec<ManifestEntry>,
}

/// Chunk-level predicates an analysis pushes down into a [`Manifest`]:
/// a chunk is decoded only if its footer admits a contribution under
/// **every** active predicate. An empty query selects everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChunkQuery {
    /// Half-open attribution window `[lo, hi)` in nanoseconds.
    pub window: Option<(u64, u64)>,
    /// Keep only chunks containing this process id.
    pub pid: Option<u32>,
    /// Keep only chunks overlapping this phase's bounding span (derived
    /// from the whole manifest). Must name a real phase — callers handle
    /// [`crate::overlap::NO_PHASE`] (not pushdownable) themselves. When
    /// `pid` is also set, the span is reduced over only the footer spans
    /// whose [`PhaseSpan::pids`] contain that process (an empty —
    /// legacy/unknown — pid set always participates), since a
    /// single-process sweep can only be tagged by that process's own
    /// phase annotations.
    pub phase: Option<Arc<str>>,
    /// Additionally keep each process's first-appearance chunk (stream
    /// order), regardless of the other predicates. Process-grouped
    /// queries need this for exact group enumeration: a group row exists
    /// (possibly empty) for every process in the stream, in first-seen
    /// order, so the chunk that introduces a process may not be skipped
    /// even when it cannot contribute time to the query.
    pub keep_pid_introductions: bool,
}

impl ChunkQuery {
    /// True when no predicate is set (nothing can be skipped).
    pub fn is_unconstrained(&self) -> bool {
        self.window.is_none() && self.pid.is_none() && self.phase.is_none()
    }
}

/// The outcome of [`Manifest::select`]: the chunk files to decode, in
/// stream order, plus the directory total for skip accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkSelection {
    /// Full paths of the chunks that must be decoded.
    pub files: Vec<PathBuf>,
    /// Total chunks in the directory (`files.len()` of them selected).
    pub total: usize,
}

/// Chunk tails [`Manifest::open`] gives each worker it reads them on.
/// One tail costs 2–3 µs; measured on 2 warmed cores, two readers were
/// no faster than one at 128 tails and faster from 256 on (1055 tails:
/// 2.1 → 1.6 ms).
const TAILS_PER_WORKER: usize = 128;

/// The worker count of the decode stage
/// ([`for_each_decoded_chunk_columns`] as directory queries call it),
/// which [`Manifest::open`] reads the chunk tails on too, and a seal
/// sorts and drains on ([`crate::analysis::LiveState::seal`]). Looked
/// up once per process: each lookup reads the affinity mask and the
/// cgroup quota again (15–18 µs on 2 cores), and a seal or a query asks
/// for it every time.
pub(crate) fn decode_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// [`Manifest::open`]'s entries for `paths`, in order: each chunk's
/// footer off its tail, or, for a v1 or v2 chunk, from a decode.
fn read_entries(paths: &[PathBuf]) -> Result<Vec<ManifestEntry>, TraceIoError> {
    let mut entries = Vec::with_capacity(paths.len());
    for path in paths {
        let mut chunk = fs::File::open(path)?;
        let size = chunk.metadata()?.len();
        let footer = match read_footer_tail(&mut chunk, size)? {
            Some(footer) => footer,
            None => {
                let mut data = Vec::new();
                chunk.seek(io::SeekFrom::Start(0))?;
                chunk.read_to_end(&mut data)?;
                compute_footer_columns(&decode_columns(&data)?)
            }
        };
        let file = path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
        entries.push(ManifestEntry { file, size, footer });
    }
    Ok(entries)
}

impl Manifest {
    /// Indexes the directory from its chunks: lists the chunk files in
    /// stream order and reads each one's footer from its tail (magic,
    /// trailer, then the footer bytes alone), taking the size from the
    /// open file. A v1 or v2 chunk has no footer on the wire; it is
    /// decoded once and summarized with [`compute_footer_columns`].
    /// Nothing is written: the index is a pure function of the chunk set
    /// on disk at the time of the call.
    ///
    /// # Errors
    ///
    /// I/O errors listing or reading the directory, and
    /// [`TraceIoError::Corrupt`] for a chunk whose magic, trailer or
    /// footer fails validation (or, for v1/v2 chunks, whose body does).
    pub fn open(dir: &Path) -> Result<Manifest, TraceIoError> {
        let paths = list_chunk_files(dir)?;
        let workers = decode_workers().min(paths.len() / TAILS_PER_WORKER).max(1);
        // Contiguous runs, read side by side and joined in order, keep
        // the entries in stream order; the calling thread reads the first.
        let per = paths.len().div_ceil(workers).max(1);
        let entries = std::thread::scope(|scope| {
            let mut runs = paths.chunks(per);
            let first = runs.next().unwrap_or_default();
            let rest: Vec<_> = runs.map(|run| scope.spawn(move || read_entries(run))).collect();
            let mut entries = read_entries(first)?;
            for run in rest {
                let lost = || io::Error::other("a chunk index reader panicked");
                entries.extend(run.join().map_err(|_| lost())??);
            }
            Ok::<_, TraceIoError>(entries)
        })?;
        Ok(Manifest { dir: dir.to_path_buf(), entries })
    }

    /// Writes the manifest to [`MANIFEST_FILE`] in its directory —
    /// atomically (temp file + rename), so a crash mid-emit leaves
    /// either the old file or the new one, never a partial file. An
    /// export: nothing in this workspace reads the file back (see the
    /// module docs).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write(&self) -> Result<(), TraceIoError> {
        let tmp = self.dir.join(format!(".{MANIFEST_FILE}.{}.tmp", std::process::id()));
        fs::write(&tmp, self.encode())?;
        fs::rename(&tmp, self.dir.join(MANIFEST_FILE)).inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
        Ok(())
    }

    /// The directory this manifest describes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The per-chunk entries, in stream order.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.entries
    }

    /// Total events across all chunks.
    pub fn total_events(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.footer.events)).sum()
    }

    /// True when the whole directory is start-sorted in stream order:
    /// every chunk internally sorted and no chunk starting before its
    /// predecessor's last start — under which a streamed query's release
    /// frontier ([`crate::analysis`]) trails the stream by exactly one
    /// chunk. [`reorder_chunk_dir`] establishes this.
    pub fn is_start_sorted(&self) -> bool {
        let mut prev_last = 0u64;
        for e in &self.entries {
            if e.footer.events == 0 {
                continue;
            }
            if !e.footer.start_sorted || e.footer.min_start < prev_last {
                return false;
            }
            prev_last = e.footer.max_start;
        }
        true
    }

    /// Selects the chunks that may contribute to `query`, in stream
    /// order — the predicate-pushdown step. The skip decisions are
    /// conservative (a selected chunk may still contribute nothing) but
    /// never lossy: analyzing the selected chunks is table-identical to
    /// analyzing the whole directory under the same filters.
    ///
    /// Per predicate, a chunk is skipped when:
    ///
    /// * **window `[lo, hi)`** — the chunk's `[min_start, max_end)` is
    ///   disjoint from the window (no event can overlap it);
    /// * **pid** — the footer's pid set lacks the process;
    /// * **phase** — the chunk's `[min_start, max_end)` is disjoint from
    ///   the phase's bounding span across the *whole* manifest (events
    ///   outside that span can neither be attributed to the phase nor
    ///   change which phase is active inside it). With a `pid` predicate
    ///   the span reduce consults only footer spans carried by that pid
    ///   (empty pid sets — legacy footers — always participate), which
    ///   can only tighten the span. A phase appearing in no footer
    ///   selects nothing.
    ///
    /// Empty chunks are skipped under any active predicate. When
    /// [`ChunkQuery::keep_pid_introductions`] is set, each process's
    /// first-appearance chunk is kept unconditionally (a pure
    /// over-selection, so the never-lossy guarantee is unaffected).
    pub fn select(&self, query: &ChunkQuery) -> ChunkSelection {
        let files = self.select_entries(query).iter().map(|e| self.dir.join(&e.file)).collect();
        ChunkSelection { files, total: self.entries.len() }
    }

    /// [`Manifest::select`] as manifest entries: the streamed executor
    /// needs the selected chunks' footers, not only their paths.
    pub(crate) fn select_entries(&self, query: &ChunkQuery) -> Vec<&ManifestEntry> {
        if query.is_unconstrained() {
            return self.entries.iter().collect();
        }
        // The phase predicate needs the phase's global bounding span
        // first; `None` here means the phase exists nowhere (for the
        // queried pid, when one is set).
        let phase_span: Option<Option<(u64, u64)>> = query.phase.as_ref().map(|name| {
            self.entries
                .iter()
                .filter_map(|e| e.footer.phase(name))
                .filter(|p| query.pid.is_none_or(|pid| p.pids.is_empty() || p.pids.contains(&pid)))
                .map(|p| (p.min_start, p.max_end))
                .reduce(|a, b| (a.0.min(b.0), a.1.max(b.1)))
        });
        let mut seen_pids: Vec<u32> = Vec::new();
        self.entries
            .iter()
            .filter(|e| {
                let f = &e.footer;
                // Track first appearances across *every* entry in stream
                // order, before any predicate can skip the chunk. Under a
                // pid predicate only that process is enumerated, so only
                // its introduction matters.
                let mut introduces = false;
                if query.keep_pid_introductions {
                    for &pid in &f.pids {
                        if query.pid.is_some_and(|q| q != pid) {
                            continue;
                        }
                        if !seen_pids.contains(&pid) {
                            seen_pids.push(pid);
                            introduces = true;
                        }
                    }
                }
                if f.events == 0 {
                    return false;
                }
                if introduces {
                    return true;
                }
                if let Some((lo, hi)) = query.window {
                    if !f.overlaps(lo, hi) {
                        return false;
                    }
                }
                if let Some(pid) = query.pid {
                    if !f.contains_pid(pid) {
                        return false;
                    }
                }
                match &phase_span {
                    Some(None) => false,
                    Some(Some((lo, hi))) => f.overlaps(*lo, *hi),
                    None => true,
                }
            })
            .collect()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "encoder: `at` is the length before the entries were appended"
    )]
    fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64 + self.entries.len() * 96);
        buf.put_slice(MANIFEST_MAGIC);
        let at = buf.len();
        buf.put_u32(self.entries.len() as u32);
        for entry in &self.entries {
            buf.put_u16(entry.file.len() as u16);
            buf.put_slice(entry.file.as_bytes());
            buf.put_u64(entry.size);
            let mut footer_buf = BytesMut::with_capacity(128);
            encode_footer_payload(&entry.footer, &mut footer_buf);
            buf.put_u32(footer_buf.len() as u32);
            buf.put_slice(&footer_buf);
        }
        let sum = fnv1a(&buf[at..]);
        buf.put_u64(sum);
        buf.freeze()
    }

    /// Assembles a manifest from externally-collected entries (stream
    /// order), for a caller that already holds every chunk's footer and
    /// wants the [`MANIFEST_FILE`] export ([`Manifest::write`]) without
    /// reading the chunks back.
    pub fn from_entries(dir: &Path, entries: Vec<ManifestEntry>) -> Manifest {
        Manifest { dir: dir.to_path_buf(), entries }
    }
}

// ---------------------------------------------------------------------------
// Start-ordered rewrite
// ---------------------------------------------------------------------------

/// What [`reorder_chunk_dir`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderStats {
    /// Events rewritten.
    pub events: u64,
    /// Sorted runs spilled during the external merge (1 when the whole
    /// stream fit in memory).
    pub runs: usize,
    /// Chunk files written to the destination.
    pub chunks: usize,
}

/// Events per in-memory sorted run of the external merge (~tens of MB of
/// `Event` structs — the reorder pass's peak working set).
const REORDER_RUN_EVENTS: usize = 1 << 18;

/// Appends one raw spill record:
/// `pid:u32 | tag:u8 | name_len:u16 | name | start:u64 | end:u64`
/// (fixed-width big-endian, name bytes inline). The spill format of
/// [`reorder_chunk_dir`]'s pass 1 — private to the reorder pass, never
/// persisted past it.
fn append_raw_record(out: &mut Vec<u8>, e: &Event) {
    let name = truncate_name(&e.name);
    out.extend_from_slice(&e.pid.as_u32().to_be_bytes());
    out.push(kind_tag(&e.kind));
    out.extend_from_slice(&(name.len() as u16).to_be_bytes());
    out.extend_from_slice(name.as_bytes());
    out.extend_from_slice(&e.start.as_nanos().to_be_bytes());
    out.extend_from_slice(&e.end.as_nanos().to_be_bytes());
}

/// Streaming reader over one raw spill run (see [`append_raw_record`]).
/// Repeated names are interned so they share one `Arc<str>` each, like a
/// chunk decode's string table would give them.
struct RawRunReader {
    file: io::BufReader<fs::File>,
    interner: Interner,
    scratch: Vec<u8>,
}

impl RawRunReader {
    fn open(path: &Path) -> Result<Self, TraceIoError> {
        Ok(RawRunReader {
            file: io::BufReader::with_capacity(1 << 16, fs::File::open(path)?),
            interner: Interner::with_capacity(64),
            scratch: Vec::new(),
        })
    }

    /// The next event, or `None` at the end of the run.
    fn next(&mut self) -> Result<Option<Event>, TraceIoError> {
        // pid + tag + name_len; EOF is clean only at a record boundary.
        let mut head = [0u8; 7];
        if !read_full(&mut self.file, &mut head, "raw spill record")? {
            return Ok(None);
        }
        let [p0, p1, p2, p3, tag, n0, n1] = head;
        let pid = u32::from_be_bytes([p0, p1, p2, p3]);
        let kind = tag_kind(tag)?;
        let name_len = u16::from_be_bytes([n0, n1]) as usize;
        self.scratch.resize(name_len + 16, 0);
        if !read_full(&mut self.file, &mut self.scratch, "raw spill record")? {
            return Err(TraceIoError::Corrupt("truncated raw spill record".into()));
        }
        let Some((name_bytes, times)) = self.scratch.split_at_checked(name_len) else {
            return Err(TraceIoError::Corrupt("truncated raw spill record".into()));
        };
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| TraceIoError::Corrupt("non-utf8 raw spill name".into()))?;
        let name_id = self.interner.intern_str(name);
        let (Some(start_bytes), Some(end_bytes)) =
            (times.first_chunk::<8>(), times.last_chunk::<8>())
        else {
            return Err(TraceIoError::Corrupt("truncated raw spill record".into()));
        };
        let start = u64::from_be_bytes(*start_bytes);
        let end = u64::from_be_bytes(*end_bytes);
        Ok(Some(Event {
            pid: ProcessId(pid),
            kind,
            name: self.interner.resolve(name_id).clone(),
            start: TimeNs::from_nanos(start),
            end: TimeNs::from_nanos(end),
        }))
    }
}

/// Rewrites the chunk directory `src` into a **start-sorted** v3 chunk
/// directory at `dst` via an external merge, in bounded memory.
///
/// Raw profiler dumps are end-ordered (events are recorded at close), so
/// their start-time disorder spans the longest open annotation and a
/// streamed query must hold its sweeps open that far back. After this
/// rewrite the stream is fully start-sorted
/// ([`Manifest::is_start_sorted`]), so every sweep is released one chunk
/// behind the stream — and because the rewrite preserves the event
/// multiset and the relative order of equal-start events, every analysis
/// over `dst` is table-identical to one over `src`. When the last chunk
/// of `src` declares scopes still open ([`ChunkFooter::cut`]), every
/// query of `src` closes them at its cut, and the rewrite keeps those
/// closes as events ([`Cut::closing_events`]; counted in
/// [`ReorderStats::events`]): `dst` carries no declaration.
///
/// `dst` gains a fresh [`Manifest`]; any chunks already there are
/// removed ([`TraceWriter::create`] semantics). On error the destination
/// is left in an unspecified partial state.
///
/// # Errors
///
/// I/O or corruption errors from either directory, or `src == dst`.
pub fn reorder_chunk_dir(
    src: &Path,
    dst: &Path,
    chunk_bytes: usize,
) -> Result<ReorderStats, TraceIoError> {
    reorder_chunk_dir_with(src, dst, chunk_bytes, REORDER_RUN_EVENTS)
}

/// [`reorder_chunk_dir`] with an explicit in-memory run size (events per
/// spilled sorted run) — exposed so tests can force multi-run merges on
/// small inputs.
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "heap entries carry run indices < `cursors.len()`, and a run's head is set whenever its entry is"
)]
pub fn reorder_chunk_dir_with(
    src: &Path,
    dst: &Path,
    chunk_bytes: usize,
    run_events: usize,
) -> Result<ReorderStats, TraceIoError> {
    let run_events = run_events.max(1);
    if src == dst || (dst.exists() && fs::canonicalize(src).ok() == fs::canonicalize(dst).ok()) {
        return Err(TraceIoError::Corrupt(
            "reorder_chunk_dir source and destination must differ".into(),
        ));
    }
    let spill = dst.join(".reorder_spill");
    let _ = fs::remove_dir_all(&spill);

    // Pass 1: cut the stream into sorted runs. `sort_by_key` is stable,
    // so equal-start events keep their stream order within a run. Runs
    // are spilled in the raw record format (fixed-width fields, names
    // inline — no string table, no varints, no footer, no writer
    // thread): a spill run is written and read back exactly once by this
    // process, so compactness buys nothing and the v3 encode's interning
    // and footer work was pure pass-1 CPU. Only the final merged output
    // pays the v3 encode.
    let mut buf: Vec<Event> = Vec::new();
    let mut runs: Vec<PathBuf> = Vec::new();
    let mut total = 0u64;
    let spill_run = |buf: &mut Vec<Event>, runs: &mut Vec<PathBuf>| -> Result<(), TraceIoError> {
        buf.sort_by_key(|e| e.start);
        fs::create_dir_all(&spill)?;
        let path = spill.join(format!("run_{:05}.raw", runs.len()));
        let mut w = io::BufWriter::with_capacity(1 << 16, fs::File::create(&path)?);
        let mut record = Vec::with_capacity(96);
        for e in buf.iter() {
            record.clear();
            append_raw_record(&mut record, e);
            w.write_all(&record)?;
        }
        w.flush()?;
        runs.push(path);
        buf.clear();
        Ok(())
    };
    let mut last_cut = None;
    for_each_decoded_chunk_columns(&list_chunk_files(src)?, 1, |cols| {
        total += cols.len() as u64;
        buf.extend(cols.to_events()?);
        last_cut = cols.cut;
        if buf.len() >= run_events {
            spill_run(&mut buf, &mut runs)?;
        }
        Ok(())
    })?;
    // Scopes the last chunk declares open close at its cut, as every
    // query of `src` closes them (see `Cut::closing_events`): the
    // rewrite keeps them as events, so `dst` answers the same.
    if let Some(cut) = last_cut {
        let closing = cut.closing_events();
        total += closing.len() as u64;
        buf.extend(closing);
    }

    // Single-run fast path: everything fit in memory — sort and write
    // straight to the destination, no spill.
    if runs.is_empty() {
        buf.sort_by_key(|e| e.start);
        let out = TraceWriter::create(dst, chunk_bytes)?;
        let events = buf.len() as u64;
        for chunk in buf.chunks(4096) {
            out.write(chunk.to_vec());
        }
        let files = out.finish()?;
        let _ = fs::remove_dir_all(&spill);
        return Ok(ReorderStats { events, runs: usize::from(events > 0), chunks: files.len() });
    }
    if !buf.is_empty() {
        spill_run(&mut buf, &mut runs)?;
    }

    // Pass 2: k-way merge of the runs, streamed record-at-a-time per
    // run. Ties on start break by run index — runs were cut in stream
    // order, so this preserves the original relative order of
    // equal-start events.
    let mut cursors: Vec<RawRunReader> = Vec::with_capacity(runs.len());
    for run in &runs {
        cursors.push(RawRunReader::open(run)?);
    }
    let mut heads: Vec<Option<Event>> = Vec::with_capacity(cursors.len());
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>> =
        std::collections::BinaryHeap::with_capacity(cursors.len());
    for (i, cursor) in cursors.iter_mut().enumerate() {
        let head = cursor.next()?;
        if let Some(e) = &head {
            heap.push(std::cmp::Reverse((e.start.as_nanos(), i)));
        }
        heads.push(head);
    }
    let out = TraceWriter::create(dst, chunk_bytes)?;
    let mut batch: Vec<Event> = Vec::with_capacity(4096);
    while let Some(std::cmp::Reverse((_, i))) = heap.pop() {
        let event = heads[i].take().expect("heap entry without a head");
        if let Some(next) = cursors[i].next()? {
            heap.push(std::cmp::Reverse((next.start.as_nanos(), i)));
            heads[i] = Some(next);
        }
        batch.push(event);
        if batch.len() == 4096 {
            out.write(std::mem::take(&mut batch));
        }
    }
    out.write(batch);
    let files = out.finish()?;
    fs::remove_dir_all(&spill)?;
    Ok(ReorderStats { events: total, runs: runs.len(), chunks: files.len() })
}

// ---------------------------------------------------------------------------
// Chunk-parallel decode
// ---------------------------------------------------------------------------

/// Reads and decodes `files` on up to `threads` worker threads while
/// feeding each decoded chunk to `consume` **in stream order** on the
/// calling thread — the decode stage of the chunk-parallel streaming
/// executor (see [`crate::analysis::Analysis::from_chunk_dir`]).
///
/// Files are assigned to workers round-robin and each worker feeds its
/// own bounded channel, so at most `threads × 3` decoded chunks are in
/// flight at once (bounded memory) and the consumer — which always drains
/// the channel owning the next stream index — can never deadlock against
/// a blocked producer. If `consume` fails, the remaining workers are
/// disconnected and the error is returned immediately.
///
/// # Errors
///
/// The first chunk I/O or corruption error in stream order, or the first
/// `consume` error.
#[expect(
    clippy::indexing_slicing,
    clippy::expect_used,
    reason = "`i % threads` < `receivers.len()`; a worker sends once per file it owns before it exits"
)]
pub fn for_each_decoded_chunk_columns(
    files: &[PathBuf],
    threads: usize,
    mut consume: impl FnMut(EventColumns) -> Result<(), TraceIoError>,
) -> Result<(), TraceIoError> {
    let read_decode = |path: &Path| -> Result<EventColumns, TraceIoError> {
        let mut data = Vec::new();
        fs::File::open(path)?.read_to_end(&mut data)?;
        decode_columns(&data)
    };

    let threads = threads.min(files.len());
    if threads <= 1 {
        for path in files {
            consume(read_decode(path)?)?;
        }
        return Ok(());
    }
    std::thread::scope(|scope| {
        let mut receivers = Vec::with_capacity(threads);
        for w in 0..threads {
            let (tx, rx) = bounded::<Result<EventColumns, TraceIoError>>(2);
            receivers.push(rx);
            scope.spawn(move || {
                let mut i = w;
                while let Some(path) = files.get(i) {
                    if tx.send(read_decode(path)).is_err() {
                        break; // Consumer gone: error path, stop decoding.
                    }
                    i += threads;
                }
            });
        }
        for i in 0..files.len() {
            let chunk =
                receivers[i % threads].recv().expect("decode worker exited without sending")?;
            consume(chunk)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events(n: usize) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    ProcessId((i % 3) as u32),
                    match i % 4 {
                        0 => EventKind::Cpu(CpuCategory::Python),
                        1 => EventKind::Cpu(CpuCategory::CudaApi),
                        2 => EventKind::Gpu(GpuCategory::Kernel),
                        _ => EventKind::Operation,
                    },
                    format!("ev{i}"),
                    TimeNs::from_nanos(i as u64 * 10),
                    TimeNs::from_nanos(i as u64 * 10 + 5),
                )
            })
            .collect()
    }

    /// The legacy v2 encoding, which only tests still write: its magic
    /// and the v3 body.
    fn encode_events_v2(events: &[Event]) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC_V2);
        encode_v2_body(events, &mut buf);
        buf.freeze()
    }

    /// Every event of `dir`, concatenated in stream order.
    fn read_dir_events(dir: &Path) -> Result<Vec<Event>, TraceIoError> {
        let mut events = Vec::new();
        for_each_decoded_chunk_columns(&list_chunk_files(dir)?, 1, |cols| {
            events.extend(cols.to_events()?);
            Ok(())
        })?;
        Ok(events)
    }

    #[test]
    fn encode_decode_round_trip() {
        let events = sample_events(100);
        let decoded = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(events, decoded);
    }

    #[test]
    fn v1_chunks_still_decode() {
        let events = sample_events(100);
        let decoded = decode_events(&encode_events_v1(&events)).unwrap();
        assert_eq!(events, decoded);
    }

    #[test]
    fn all_formats_decode_identically() {
        let events = sample_events(50);
        let from_v1 = decode_events(&encode_events_v1(&events)).unwrap();
        let from_v2 = decode_events(&encode_events_v2(&events)).unwrap();
        let from_v3 = decode_events(&encode_events(&events)).unwrap();
        assert_eq!(from_v1, from_v2);
        assert_eq!(from_v2, from_v3);
        assert_eq!(&encode_events(&events)[..8], MAGIC_V3);
        assert_eq!(&encode_events_v2(&events)[..8], MAGIC_V2);
        // The v3 body is the v2 body byte-for-byte.
        let v2 = encode_events_v2(&events);
        let v3 = encode_events(&events);
        assert_eq!(&v3[8..8 + v2.len() - 8], &v2[8..]);
    }

    #[test]
    fn v2_string_table_dedups_repeated_names() {
        // Two distinct names across 1000 events: v2 pays for each name
        // once plus a 1-byte id per event; v1 re-embeds the name bytes.
        let events: Vec<Event> = (0..1000)
            .map(|i| {
                Event::new(
                    ProcessId(0),
                    EventKind::Operation,
                    if i % 2 == 0 { "interleaved_operation_a" } else { "interleaved_operation_b" },
                    TimeNs::from_nanos(i * 10),
                    TimeNs::from_nanos(i * 10 + 5),
                )
            })
            .collect();
        let v1 = encode_events_v1(&events);
        let v2 = encode_events(&events);
        assert!(
            v2.len() * 3 < v1.len(),
            "v2 ({}) should be well under a third of v1 ({})",
            v2.len(),
            v1.len()
        );
        assert_eq!(decode_events(&v2).unwrap(), events);
    }

    #[test]
    fn v2_handles_out_of_order_timestamps() {
        // Deltas go negative: zigzag must round-trip exactly.
        let events = vec![
            Event::new(
                ProcessId(0),
                EventKind::Cpu(CpuCategory::Python),
                "late",
                TimeNs::from_nanos(1_000_000),
                TimeNs::from_nanos(1_000_500),
            ),
            Event::new(
                ProcessId(1),
                EventKind::Gpu(GpuCategory::Kernel),
                "early",
                TimeNs::from_nanos(10),
                TimeNs::from_nanos(20),
            ),
        ];
        assert_eq!(decode_events(&encode_events(&events)).unwrap(), events);
    }

    /// Regression: names longer than `u16::MAX` bytes used to be cut at
    /// exactly 65535 bytes even mid-codepoint, producing invalid UTF-8
    /// that failed the round-trip decode. Both encoders now truncate on
    /// a char boundary.
    #[test]
    fn oversized_name_truncates_on_char_boundary() {
        // 65534 ASCII bytes then a 3-byte char: any naive cut at 65535
        // lands mid-codepoint.
        let mut name = "x".repeat(u16::MAX as usize - 1);
        name.push('€');
        name.push_str("tail");
        let event = Event::new(
            ProcessId(0),
            EventKind::Operation,
            name.as_str(),
            TimeNs::from_nanos(0),
            TimeNs::from_nanos(10),
        );
        for encoded in [
            encode_events(std::slice::from_ref(&event)),
            encode_events_v1(std::slice::from_ref(&event)),
        ] {
            let decoded = decode_events(&encoded).unwrap();
            assert_eq!(decoded.len(), 1);
            assert_eq!(&*decoded[0].name, &name[..u16::MAX as usize - 1]);
            assert_eq!(decoded[0].start, event.start);
            assert_eq!(decoded[0].end, event.end);
        }
    }

    /// Timestamps beyond the v2 delta-codable range fall back to v1 and
    /// still round-trip exactly.
    #[test]
    fn extreme_timestamps_round_trip_via_v1_fallback() {
        let events = vec![Event::new(
            ProcessId(0),
            EventKind::Cpu(CpuCategory::Python),
            "late",
            TimeNs::from_nanos(u64::MAX - 100),
            TimeNs::from_nanos(u64::MAX - 1),
        )];
        let encoded = encode_events(&events);
        assert_eq!(&encoded[..8], MAGIC_V1, "oversized timestamps use the v1 format");
        assert_eq!(decode_events(&encoded).unwrap(), events);
    }

    /// Overlong varints whose 10th byte carries bits beyond u64 must be
    /// rejected as corruption, not silently truncated to a wrong value.
    /// The v2 and v3 bodies share the layout, so both paths are covered.
    #[test]
    fn body_rejects_overflowing_varint() {
        for base in [encode_events(&sample_events(1)), encode_events_v2(&sample_events(1))] {
            let mut data = base.to_vec();
            // Replace the 1-byte pid varint with a 10-byte overflowing one
            // (same header layout as in `body_rejects_bad_name_id`).
            let pid_offset = 8 + 4 + 4 + 2 + 3;
            data.splice(pid_offset..pid_offset + 1, [0x80u8; 9].into_iter().chain([0x7e]));
            let err = decode_events(&data).unwrap_err();
            assert!(err.to_string().contains("overflow"), "{err}");
        }
    }

    #[test]
    fn body_rejects_bad_name_id() {
        for base in [encode_events(&sample_events(1)), encode_events_v2(&sample_events(1))] {
            let mut data = base.to_vec();
            // Layout: magic(8) count(4) n_strings(4) len(2) "ev0"(3) pid(1)
            // tag(1) name_id(1) ... — corrupt the name id varint.
            let name_id_offset = 8 + 4 + 4 + 2 + 3 + 1 + 1;
            data[name_id_offset] = 0x7f;
            let err = decode_events(&data).unwrap_err();
            assert!(err.to_string().contains("name id"), "{err}");
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        assert_eq!(decode_events(&encode_events(&[])).unwrap(), Vec::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut data = encode_events(&sample_events(1)).to_vec();
        data[0] = b'X';
        assert!(matches!(decode_events(&data), Err(TraceIoError::Corrupt(_))));
    }

    #[test]
    fn truncated_chunk_rejected() {
        // Cutting into the v3 trailer destroys the footer magic.
        let data = encode_events(&sample_events(10));
        let err = decode_events(&data[..data.len() - 7]).unwrap_err();
        assert!(err.to_string().contains("footer"), "{err}");
        // Cutting inside the v2 body is reported as truncation.
        let data = encode_events_v2(&sample_events(10));
        let err = decode_events(&data[..data.len() - 7]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }

    #[test]
    fn short_header_rejected() {
        assert!(matches!(decode_events(b"RLS"), Err(TraceIoError::Corrupt(_))));
    }

    #[test]
    fn writer_rotates_chunks_and_reader_reassembles() {
        let dir = std::env::temp_dir().join(format!("rlscope_store_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 640).unwrap(); // tiny chunks
        let events = sample_events(100);
        for chunk in events.chunks(10) {
            writer.write(chunk.to_vec());
        }
        let files = writer.finish().unwrap();
        assert!(files.len() > 1, "expected rotation, got {} file(s)", files.len());
        let read = read_dir_events(&dir).unwrap();
        assert_eq!(read, events);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Rotation numbering restarts at chunk_00000 per writer, so a new
    /// writer must clear a reused directory's stale chunks — otherwise a
    /// shorter rerun leaves the previous stream's tail on disk and the
    /// name-ordered readers concatenate two traces.
    #[test]
    fn writer_clears_stale_chunks_from_reused_dir() {
        let dir = std::env::temp_dir().join(format!("rlscope_stale_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 64).unwrap(); // rotate every batch
        for chunk in sample_events(50).chunks(10) {
            writer.write(chunk.to_vec());
        }
        assert!(writer.finish().unwrap().len() > 2);

        let writer = TraceWriter::create(&dir, 64).unwrap();
        let short = sample_events(10);
        writer.write(short.clone());
        writer.finish().unwrap();
        assert_eq!(read_dir_events(&dir).unwrap(), short);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Stream order must survive the rotation sequence outgrowing its
    /// zero padding: chunk_100000 comes after chunk_99999, not between
    /// chunk_10000 and chunk_10001 as a plain name sort would put it.
    #[test]
    fn chunk_order_survives_padding_overflow() {
        let dir = std::env::temp_dir().join(format!("rlscope_pad_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for seq in ["10000", "10001", "99999", "100000", "100001"] {
            fs::write(dir.join(format!("chunk_{seq}.rls")), b"").unwrap();
        }
        let names: Vec<String> = list_chunk_files(&dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [
                "chunk_10000.rls",
                "chunk_10001.rls",
                "chunk_99999.rls",
                "chunk_100000.rls",
                "chunk_100001.rls"
            ]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_surfaces_corruption_not_panic() {
        let dir = std::env::temp_dir().join(format!("rlscope_corrupt_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("chunk_00000.rls"), b"garbage data here").unwrap();
        assert!(read_dir_events(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- codec v3 footers ------------------------------------------------

    fn phased_events() -> Vec<Event> {
        let mut events = sample_events(20);
        events.push(Event::new(
            ProcessId(7),
            EventKind::Phase,
            "train",
            TimeNs::from_nanos(40),
            TimeNs::from_nanos(160),
        ));
        events.push(Event::new(
            ProcessId(7),
            EventKind::Phase,
            "train",
            TimeNs::from_nanos(10),
            TimeNs::from_nanos(30),
        ));
        events.push(Event::new(
            ProcessId(7),
            EventKind::Phase,
            "collect",
            TimeNs::from_nanos(0),
            TimeNs::from_nanos(9),
        ));
        events
    }

    #[test]
    fn footer_summarizes_the_chunk() {
        let events = phased_events();
        let footer = compute_footer(&events);
        assert_eq!(footer.events, events.len() as u32);
        assert_eq!(footer.min_start, 0);
        assert_eq!(footer.max_start, 190);
        assert_eq!(footer.max_end, 195);
        assert!(!footer.start_sorted, "the phase tail is out of order");
        assert_eq!(footer.pids, vec![0, 1, 2, 7]);
        let spans: Vec<(&str, u64, u64)> =
            footer.phases.iter().map(|p| (&*p.name, p.min_start, p.max_end)).collect();
        assert_eq!(spans, vec![("collect", 0, 9), ("train", 10, 160)]);
        assert!(footer.contains_pid(7) && !footer.contains_pid(3));
        assert_eq!(footer.phase_span("train"), Some((10, 160)));
        assert_eq!(footer.phase_span("absent"), None);
        assert!(footer.overlaps(0, 1) && footer.overlaps(194, 1_000));
        // max_end is inclusive for the skip test: an instant event at
        // exactly 195 would belong to a window starting there.
        assert!(footer.overlaps(195, 1_000));
        assert!(!footer.overlaps(196, 1_000));
    }

    #[test]
    fn read_chunk_footer_skips_event_decode_paths() {
        let events = phased_events();
        let footer = read_chunk_footer(&encode_events(&events)).unwrap();
        assert_eq!(footer, Some(compute_footer(&events)));
        // v1/v2 chunks carry no footer.
        assert_eq!(read_chunk_footer(&encode_events_v2(&events)).unwrap(), None);
        assert_eq!(read_chunk_footer(&encode_events_v1(&events)).unwrap(), None);
        assert!(read_chunk_footer(b"XXXXXXXX____").is_err());
    }

    /// A footer that decodes cleanly (checksum recomputed) but contradicts
    /// the chunk's events must fail the full decode — the guard against a
    /// silently wrong skip surviving a successful read.
    #[test]
    fn forged_footer_fails_cross_check() {
        let events = sample_events(10);
        let data = encode_events(&events).to_vec();
        let mut footer = compute_footer(&events);
        footer.min_start += 1_000_000; // lie about the time range
        let body_len = {
            let (body, _) = split_v3(&data[8..]).unwrap();
            body.len()
        };
        let mut forged = BytesMut::new();
        forged.put_slice(MAGIC_V3);
        forged.put_slice(&data[8..8 + body_len]);
        let at = forged.len();
        encode_footer_payload(&footer, &mut forged);
        let footer_len = (forged.len() - at) as u32;
        forged.put_u32(footer_len);
        forged.put_slice(FOOTER_MAGIC);
        let err = decode_events(&forged).unwrap_err();
        assert!(err.to_string().contains("contradicts"), "{err}");
        // But the footer alone still parses (valid checksum): skip
        // decisions on unread chunks trust the checksum only.
        assert!(read_chunk_footer(&forged).unwrap().is_some());
    }

    /// A declared chunk carries its cut in the footer and nothing else
    /// changes: the body is [`encode_events`]'s byte for byte, the
    /// events decode the same, the footer and the columns hand the cut
    /// back, and a declaration that contradicts itself is corrupt.
    #[test]
    fn declared_footer_round_trips_and_checks_itself() {
        let events = phased_events();
        let scope =
            |phase, name: &str, start| OpenScope { pid: 1, phase, name: name.into(), start };
        let cut = Cut {
            at: 9_000,
            frontier: 8_500,
            open: vec![scope(true, "train", 100), scope(false, "step", 7_000)],
        };
        let plain = encode_events(&events);
        let declared = encode_declared(&events, &cut);
        let footer_len = |chunk: &[u8]| {
            u32::from_be_bytes(chunk[chunk.len() - 8..chunk.len() - 4].try_into().unwrap()) as usize
        };
        let body = plain.len() - 8 - footer_len(&plain);
        assert_eq!(declared[..body], plain[..body]);
        assert_eq!(decode_events(&declared).unwrap(), decode_events(&plain).unwrap());
        assert_eq!(read_chunk_footer(&declared).unwrap().unwrap().cut, Some(cut.clone()));
        assert_eq!(read_chunk_footer(&plain).unwrap().unwrap().cut, None);
        let cols = decode_columns(&declared).unwrap();
        assert_eq!(cols.cut.as_ref(), Some(&cut));
        assert_eq!(
            cut.closing_events().iter().map(|e| (&*e.name, e.end.as_nanos())).collect::<Vec<_>>(),
            [("step", 9_000), ("train", 9_000)],
            "innermost first, ending at the cut"
        );
        for bad in [
            Cut { frontier: 9_001, ..cut.clone() },
            Cut { open: vec![scope(false, "late", 9_001)], ..cut.clone() },
        ] {
            let chunk = encode_declared(&events, &bad);
            assert!(matches!(decode_columns(&chunk), Err(TraceIoError::Corrupt(_))), "{bad:?}");
            assert!(matches!(read_chunk_footer(&chunk), Err(TraceIoError::Corrupt(_))));
        }
    }

    /// A footer written before [`FOOTER_FLAG_PHASE_PIDS`] existed — flag
    /// bit absent, no per-span pid counts — must still decode, with every
    /// span's pid set empty (= unknown), which readers treat as "any pid"
    /// rather than "no pid". This pins the wire compatibility of old
    /// manifests and old v3 chunks.
    #[test]
    fn legacy_footer_without_phase_pids_decodes_conservatively() {
        let mut out = BytesMut::new();
        let at = out.len();
        out.put_u32(3); // events
        out.put_u64(10); // min_start
        out.put_u64(40); // max_start
        out.put_u64(50); // max_end
        out.put_u8(FOOTER_FLAG_START_SORTED); // legacy: no phase-pid bit
        out.put_u32(1); // one pid
        out.put_u32(7);
        out.put_u32(1); // one phase span, with no trailing pid set
        out.put_u16(5);
        out.put_slice(b"train");
        out.put_u64(10);
        out.put_u64(50);
        let sum = fnv1a(&out[at..]);
        out.put_u64(sum);

        let footer = decode_footer_payload(&out).unwrap();
        assert_eq!(footer.events, 3);
        assert!(footer.start_sorted);
        assert_eq!(footer.pids, vec![7]);
        let span = footer.phase("train").unwrap();
        assert_eq!((span.min_start, span.max_end), (10, 50));
        assert!(span.pids.is_empty(), "legacy spans decode with unknown (empty) pid sets");
        // Re-encoding upgrades the footer to the pid-carrying layout and
        // round-trips, still with the conservative empty set.
        let mut upgraded = BytesMut::new();
        encode_footer_payload(&footer, &mut upgraded);
        assert_eq!(decode_footer_payload(&upgraded).unwrap(), footer);
    }

    #[test]
    fn empty_chunk_footer_is_canonical() {
        let footer = compute_footer(&[]);
        assert_eq!(footer.events, 0);
        assert_eq!(footer.min_start, u64::MAX);
        assert_eq!((footer.max_start, footer.max_end), (0, 0));
        assert!(footer.start_sorted);
        assert!(!footer.overlaps(0, u64::MAX));
        assert_eq!(decode_events(&encode_events(&[])).unwrap(), Vec::new());
    }

    // -- manifest --------------------------------------------------------

    fn write_dir(dir: &Path, events: &[Event], per_batch: usize, chunk_bytes: usize) {
        let _ = fs::remove_dir_all(dir);
        let writer = TraceWriter::create(dir, chunk_bytes).unwrap();
        for chunk in events.chunks(per_batch) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();
    }

    /// The writer leaves chunk files only, and their tails index them:
    /// `Manifest::open` yields exactly the footers a full decode of each
    /// chunk computes — the v1 fallback chunk of an extreme-timestamp
    /// batch, which has no footer on the wire, included.
    #[test]
    fn open_reads_the_footers_a_full_decode_computes() {
        let dir = std::env::temp_dir().join(format!("rlscope_manifest_{}", std::process::id()));
        let mut events = phased_events();
        let far = TimeNs::from_nanos(u64::MAX - 10);
        events.push(Event::new(ProcessId(9), EventKind::Operation, "far", far, far));
        write_dir(&dir, &events, 5, 64);
        let manifest = Manifest::open(&dir).unwrap();
        assert!(manifest.entries().len() > 1, "expected rotation");
        assert_eq!(manifest.total_events(), events.len() as u64);
        let last = &manifest.entries()[manifest.entries().len() - 1];
        assert_eq!(&fs::read(dir.join(&last.file)).unwrap()[..8], MAGIC_V1);
        for entry in manifest.entries() {
            let data = fs::read(dir.join(&entry.file)).unwrap();
            assert_eq!(entry.size, data.len() as u64);
            assert_eq!(entry.footer, compute_footer_columns(&decode_columns(&data).unwrap()));
        }
        assert!(!dir.join(MANIFEST_FILE).exists(), "the writer emits chunks only");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A directory with chunks enough to read its tails on several
    /// workers is indexed in file-name order, entry for entry as one
    /// reader indexes it, and a bad chunk in a later worker's run fails
    /// the open with the typed error one reader gives.
    #[test]
    fn open_reads_many_tails_in_order_and_types_a_bad_one() {
        let dir =
            std::env::temp_dir().join(format!("rlscope_manifest_many_{}", std::process::id()));
        write_dir(&dir, &sample_events(600), 2, 1);
        let files = list_chunk_files(&dir).unwrap();
        assert!(files.len() >= 2 * TAILS_PER_WORKER);
        let manifest = Manifest::open(&dir).unwrap();
        assert_eq!(manifest.entries(), &read_entries(&files).unwrap()[..]);
        let names: Vec<&str> = manifest.entries().iter().map(|e| e.file.as_str()).collect();
        assert!(names.windows(2).all(|w| (w[0].len(), w[0]) < (w[1].len(), w[1])));
        let bad = &files[files.len() - 3];
        let mut data = fs::read(bad).unwrap();
        data[..8].copy_from_slice(b"NOTCHUNK");
        fs::write(bad, data).unwrap();
        let (one, many) = (read_entries(&files).unwrap_err(), Manifest::open(&dir).unwrap_err());
        assert!(matches!(many, TraceIoError::Corrupt(_)));
        assert_eq!(many.to_string(), one.to_string());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_synthesized_for_legacy_dirs() {
        // A dir of v1 + v2 chunks, no MANIFEST: open() scans and the
        // footers match what the events imply.
        let dir = std::env::temp_dir().join(format!("rlscope_manifest_leg_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let events = sample_events(30);
        fs::write(dir.join("chunk_00000.rls"), encode_events_v1(&events[..10])).unwrap();
        fs::write(dir.join("chunk_00001.rls"), encode_events_v2(&events[10..])).unwrap();
        let manifest = Manifest::open(&dir).unwrap();
        assert_eq!(manifest.entries().len(), 2);
        assert_eq!(manifest.entries()[0].footer, compute_footer(&events[..10]));
        assert_eq!(manifest.entries()[1].footer, compute_footer(&events[10..]));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_manifest_is_resynthesized_not_trusted() {
        let dir =
            std::env::temp_dir().join(format!("rlscope_manifest_stale_{}", std::process::id()));
        write_dir(&dir, &sample_events(40), 5, 64);
        // Overwrite one chunk after the directory was written and
        // indexed: the next open reads the new chunk's own footer.
        Manifest::open(&dir).unwrap();
        let files = list_chunk_files(&dir).unwrap();
        fs::write(&files[0], encode_events(&sample_events(3))).unwrap();
        let manifest = Manifest::open(&dir).unwrap();
        assert_eq!(manifest.entries()[0].footer, compute_footer(&sample_events(3)));
        fs::remove_dir_all(&dir).unwrap();
    }

    /// An in-place rewrite that keeps the byte size identical must still
    /// be seen — an index that trusted size (or a clock) over content
    /// would drive wrong skip decisions with no error anywhere. The
    /// footer is read from the chunk itself, so it is.
    #[test]
    fn same_size_chunk_rewrite_is_detected() {
        let shifted = |offset: u64| -> Vec<Event> {
            (0..5u64)
                .map(|i| {
                    Event::new(
                        ProcessId(0),
                        EventKind::Operation,
                        "op",
                        TimeNs::from_nanos(offset + i * 100),
                        TimeNs::from_nanos(offset + i * 100 + 50),
                    )
                })
                .collect()
        };
        let dir =
            std::env::temp_dir().join(format!("rlscope_manifest_mtime_{}", std::process::id()));
        write_dir(&dir, &shifted(1_000), 5, 1 << 20);
        let files = list_chunk_files(&dir).unwrap();
        let replacement = encode_events(&shifted(5_000));
        assert_eq!(
            replacement.len() as u64,
            fs::metadata(&files[0]).unwrap().len(),
            "rewrite must keep the byte size for this test to bite"
        );
        fs::write(&files[0], &replacement).unwrap();
        let manifest = Manifest::open(&dir).unwrap();
        assert_eq!(manifest.entries()[0].footer, compute_footer(&shifted(5_000)));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn select_pushes_down_window_pid_and_phase() {
        // Four chunks with disjoint time ranges; pid 9 and phase "late"
        // only in the last one.
        let dir = std::env::temp_dir().join(format!("rlscope_select_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        for i in 0..4u64 {
            let base = i * 1_000;
            let mut events = vec![Event::new(
                ProcessId(i as u32),
                EventKind::Cpu(CpuCategory::Python),
                "py",
                TimeNs::from_nanos(base),
                TimeNs::from_nanos(base + 900),
            )];
            if i == 3 {
                events.push(Event::new(
                    ProcessId(9),
                    EventKind::Phase,
                    "late",
                    TimeNs::from_nanos(base + 100),
                    TimeNs::from_nanos(base + 500),
                ));
            }
            fs::write(dir.join(format!("chunk_0000{i}.rls")), encode_events(&events)).unwrap();
        }
        let manifest = Manifest::open(&dir).unwrap();
        assert_eq!(manifest.select(&ChunkQuery::default()).files.len(), 4);

        let window = ChunkQuery { window: Some((1_000, 2_000)), ..Default::default() };
        let sel = manifest.select(&window);
        assert_eq!((sel.files.len(), sel.total), (1, 4));
        assert!(sel.files[0].ends_with("chunk_00001.rls"));

        let pid = ChunkQuery { pid: Some(9), ..Default::default() };
        assert_eq!(manifest.select(&pid).files.len(), 1);

        let phase = ChunkQuery { phase: Some(Arc::from("late")), ..Default::default() };
        let sel = manifest.select(&phase);
        assert_eq!(sel.files.len(), 1);
        assert!(sel.files[0].ends_with("chunk_00003.rls"));

        let absent = ChunkQuery { phase: Some(Arc::from("never")), ..Default::default() };
        assert!(manifest.select(&absent).files.is_empty());

        // Conjunction: window hits chunk 1 but pid 9 lives in chunk 3.
        let both = ChunkQuery { window: Some((1_000, 2_000)), pid: Some(9), ..Default::default() };
        assert!(manifest.select(&both).files.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A phase whose span covers events in *other* chunks must keep those
    /// chunks selected — the span test is about overlap, not containment.
    #[test]
    fn phase_selection_keeps_overlapping_chunks() {
        let dir = std::env::temp_dir().join(format!("rlscope_selphase_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Chunk 0: plain events inside the phase's interval. Chunk 1:
        // events after it. Chunk 2: the phase event itself, recorded at
        // close (profiler order).
        let ev = |s: u64, e: u64| {
            Event::new(
                ProcessId(0),
                EventKind::Cpu(CpuCategory::Python),
                "py",
                TimeNs::from_nanos(s),
                TimeNs::from_nanos(e),
            )
        };
        fs::write(dir.join("chunk_00000.rls"), encode_events(&[ev(100, 200)])).unwrap();
        fs::write(dir.join("chunk_00001.rls"), encode_events(&[ev(5_000, 6_000)])).unwrap();
        let phase = Event::new(
            ProcessId(0),
            EventKind::Phase,
            "warmup",
            TimeNs::from_nanos(50),
            TimeNs::from_nanos(300),
        );
        fs::write(dir.join("chunk_00002.rls"), encode_events(&[phase])).unwrap();
        let manifest = Manifest::open(&dir).unwrap();
        let sel =
            manifest.select(&ChunkQuery { phase: Some(Arc::from("warmup")), ..Default::default() });
        let names: Vec<String> = sel
            .files
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["chunk_00000.rls", "chunk_00002.rls"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- start-ordered rewrite -------------------------------------------

    /// Profiler-style close-ordered stream: long annotations arrive late
    /// with early starts.
    fn close_ordered_events(n: u64) -> Vec<Event> {
        let mut events = Vec::new();
        for i in 0..n {
            let t = i * 100;
            events.push(Event::new(
                ProcessId((i % 3) as u32),
                EventKind::Cpu(CpuCategory::Python),
                "py",
                TimeNs::from_nanos(t),
                TimeNs::from_nanos(t + 80),
            ));
            if i % 10 == 9 {
                // A 10-step operation recorded at close.
                events.push(Event::new(
                    ProcessId((i % 3) as u32),
                    EventKind::Operation,
                    "op",
                    TimeNs::from_nanos(t.saturating_sub(900)),
                    TimeNs::from_nanos(t + 90),
                ));
            }
        }
        events
    }

    #[test]
    fn reorder_sorts_and_preserves_the_multiset() {
        for run_events in [usize::MAX, 16] {
            let tag = format!("{}_{}", std::process::id(), run_events == 16);
            let src = std::env::temp_dir().join(format!("rlscope_reorder_src_{tag}"));
            let dst = std::env::temp_dir().join(format!("rlscope_reorder_dst_{tag}"));
            write_dir(&src, &close_ordered_events(100), 7, 256);
            let _ = fs::remove_dir_all(&dst);
            let stats = reorder_chunk_dir_with(&src, &dst, 256, run_events).unwrap();
            assert_eq!(stats.events, 110);
            if run_events == 16 {
                assert!(stats.runs > 1, "expected an external merge, got {stats:?}");
            }
            let sorted = read_dir_events(&dst).unwrap();
            assert!(sorted.windows(2).all(|w| w[0].start <= w[1].start), "not start-sorted");
            let manifest = Manifest::open(&dst).unwrap();
            assert!(manifest.is_start_sorted());
            // Same multiset: sorting the source by (start, stream order)
            // stably must reproduce the rewritten stream exactly.
            let mut expected = read_dir_events(&src).unwrap();
            expected.sort_by_key(|e| e.start);
            assert_eq!(sorted, expected);
            fs::remove_dir_all(&src).unwrap();
            fs::remove_dir_all(&dst).unwrap();
        }
    }

    #[test]
    fn reorder_rejects_same_dir_and_handles_empty() {
        let dir = std::env::temp_dir().join(format!("rlscope_reorder_same_{}", std::process::id()));
        write_dir(&dir, &sample_events(5), 5, 1 << 20);
        assert!(reorder_chunk_dir(&dir, &dir, 256).is_err());
        let empty_src =
            std::env::temp_dir().join(format!("rlscope_reorder_esrc_{}", std::process::id()));
        let empty_dst =
            std::env::temp_dir().join(format!("rlscope_reorder_edst_{}", std::process::id()));
        let _ = fs::remove_dir_all(&empty_src);
        let _ = fs::remove_dir_all(&empty_dst);
        fs::create_dir_all(&empty_src).unwrap();
        let stats = reorder_chunk_dir(&empty_src, &empty_dst, 256).unwrap();
        assert_eq!(stats, ReorderStats { events: 0, runs: 0, chunks: 0 });
        assert!(read_dir_events(&empty_dst).unwrap().is_empty());
        for d in [dir, empty_src, empty_dst] {
            fs::remove_dir_all(&d).unwrap();
        }
    }

    // -- chunk-parallel decode -------------------------------------------

    #[test]
    fn parallel_decode_preserves_stream_order() {
        let dir = std::env::temp_dir().join(format!("rlscope_pardec_{}", std::process::id()));
        let events = sample_events(200);
        write_dir(&dir, &events, 10, 64);
        let files = list_chunk_files(&dir).unwrap();
        assert!(files.len() > 2);
        for threads in [1usize, 3, 8] {
            let mut streamed = Vec::new();
            for_each_decoded_chunk_columns(&files, threads, |chunk| {
                streamed.extend(chunk.to_events()?);
                Ok(())
            })
            .unwrap();
            assert_eq!(streamed, events, "threads={threads}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_decode_surfaces_errors_and_stops() {
        let dir = std::env::temp_dir().join(format!("rlscope_parderr_{}", std::process::id()));
        write_dir(&dir, &sample_events(100), 10, 64);
        let files = list_chunk_files(&dir).unwrap();
        fs::write(&files[1], b"garbage").unwrap();
        let mut seen = 0usize;
        let err = for_each_decoded_chunk_columns(&files, 4, |_| {
            seen += 1;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, TraceIoError::Corrupt(_)));
        assert_eq!(seen, 1, "only the chunk before the corrupt one is consumed");
        // Consumer errors also stop the pipeline.
        let err = for_each_decoded_chunk_columns(&files[..1], 4, |_| {
            Err(TraceIoError::Corrupt("sink failed".into()))
        })
        .unwrap_err();
        assert!(err.to_string().contains("sink failed"));
        fs::remove_dir_all(&dir).unwrap();
    }

    // -- wire framing ----------------------------------------------------

    #[test]
    fn frames_round_trip_and_eof_is_clean_only_at_boundaries() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"payload").unwrap();
        write_frame(&mut buf, 9, b"").unwrap();
        let mut r = io::Cursor::new(buf.clone());
        assert_eq!(read_frame(&mut r).unwrap(), Some((7, b"payload".to_vec())));
        assert_eq!(read_frame(&mut r).unwrap(), Some((9, Vec::new())));
        assert_eq!(read_frame(&mut r).unwrap(), None);
        // Every cut inside a frame is corruption; cuts at the boundary
        // between frames yield the complete prefix then a clean EOF.
        let boundary = 5 + 7;
        for cut in 0..buf.len() {
            let mut r = io::Cursor::new(&buf[..cut]);
            match cut {
                0 => assert_eq!(read_frame(&mut r).unwrap(), None),
                c if c == boundary => {
                    assert!(read_frame(&mut r).unwrap().is_some());
                    assert_eq!(read_frame(&mut r).unwrap(), None);
                }
                c if c < boundary => {
                    assert!(matches!(read_frame(&mut r), Err(TraceIoError::Corrupt(_))), "cut {c}");
                }
                c => {
                    assert!(read_frame(&mut r).unwrap().is_some());
                    assert!(matches!(read_frame(&mut r), Err(TraceIoError::Corrupt(_))), "cut {c}");
                }
            }
        }
    }

    #[test]
    fn frame_length_limit_enforced_both_ways() {
        let mut header = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes().to_vec();
        header.push(1);
        let err = read_frame(&mut io::Cursor::new(header)).unwrap_err();
        assert!(err.to_string().contains("frame length"), "{err}");
        // The writer refuses to emit an unreadable frame. (Allocating a
        // >64 MB payload just to refuse it is fine in a test.)
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(write_frame(&mut Vec::new(), 0, &big), Err(TraceIoError::Corrupt(_))));
    }
}
