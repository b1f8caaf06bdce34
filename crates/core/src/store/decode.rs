//! The chunk parser ([`decode_columns`]) and what it hands out: the
//! [`EventColumns`] structure of arrays, chunk footers
//! ([`ChunkFooter`], [`read_chunk_footer`]) and producer declarations
//! ([`Cut`]). Every byte is validated; malformed input is
//! [`TraceIoError::Corrupt`], never a panic.

use super::frame::read_full;
use super::{
    fnv1a, TraceIoError, FOOTER_FLAG_OPEN_SCOPES, FOOTER_FLAG_PHASE_PIDS, FOOTER_FLAG_START_SORTED,
    FOOTER_MAGIC, MAGIC_V1, MAGIC_V2, MAGIC_V3,
};
use crate::event::{CpuCategory, Event, EventKind, GpuCategory};
use crate::intern::Interner;
use bytes::Buf;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;

pub(super) fn kind_tag(kind: &EventKind) -> u8 {
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

pub(super) fn tag_kind(tag: u8) -> Result<EventKind, TraceIoError> {
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
pub(super) fn truncate_name(name: &str) -> &str {
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

/// Inverse of the encoder's zigzag.
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

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

/// Per-chunk summary recorded in v3 trailers and [`Manifest`](super::Manifest) entries:
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
/// batch ([`crate::profiler::cut_of`]); [`super::encode_declared`] carries it
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
    pub fn phase(&self, name: &str) -> Option<&PhaseSpan> {
        self.phases.binary_search_by(|p| (*p.name).cmp(name)).ok().and_then(|i| self.phases.get(i))
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
/// and [`Manifest::open`](super::Manifest::open) over legacy chunks).
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

/// Reads one `len:u16 | utf8` name, naming `what` in its errors.
fn get_name(data: &mut &[u8], what: &str) -> Result<Arc<str>, TraceIoError> {
    let truncated = || TraceIoError::Corrupt(format!("truncated {what}"));
    if data.remaining() < 2 {
        return Err(truncated());
    }
    let len = usize::from(data.get_u16());
    let (name, rest) = data.split_at_checked(len).ok_or_else(truncated)?;
    let name =
        std::str::from_utf8(name).map_err(|_| TraceIoError::Corrupt(format!("non-utf8 {what}")))?;
    *data = rest;
    Ok(Arc::from(name))
}

/// Reads a footer pid set, `count:u32 | pid:u32 …`, which must be
/// strictly ascending.
fn get_pid_set(data: &mut &[u8], what: &str) -> Result<Vec<u32>, TraceIoError> {
    let corrupt = |problem: &str| TraceIoError::Corrupt(format!("footer: {what} {problem}"));
    if data.remaining() < 4 {
        return Err(corrupt("truncated"));
    }
    let count = data.get_u32() as usize;
    if data.remaining() < count.saturating_mul(4) {
        return Err(corrupt("truncated"));
    }
    let mut pids = Vec::with_capacity(count);
    for _ in 0..count {
        let pid = data.get_u32();
        if pids.last().is_some_and(|&prev| prev >= pid) {
            return Err(corrupt("not strictly ascending"));
        }
        pids.push(pid);
    }
    Ok(pids)
}

/// Decodes a footer payload, verifying its checksum, canonical ordering,
/// and that every byte is consumed.
pub(super) fn decode_footer_payload(payload: &[u8]) -> Result<ChunkFooter, TraceIoError> {
    let corrupt = |what: &str| TraceIoError::Corrupt(format!("footer: {what}"));
    let Some((mut data, sum)) = payload.split_last_chunk::<8>() else {
        return Err(corrupt("too short for checksum"));
    };
    if u64::from_be_bytes(*sum) != fnv1a(data) {
        return Err(corrupt("checksum mismatch"));
    }
    if data.remaining() < 4 + 8 + 8 + 8 + 1 {
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
    let pids = get_pid_set(&mut data, "pid set")?;
    if data.remaining() < 4 {
        return Err(corrupt("truncated phase set"));
    }
    let phase_count = data.get_u32() as usize;
    let mut phases: Vec<PhaseSpan> = Vec::with_capacity(phase_count.min(1 << 16));
    for _ in 0..phase_count {
        let name = get_name(&mut data, "footer phase name")?;
        if data.remaining() < 16 {
            return Err(corrupt("truncated phase entry"));
        }
        let (min_start, max_end) = (data.get_u64(), data.get_u64());
        if phases.last().is_some_and(|prev| *prev.name >= *name) {
            return Err(corrupt("phase set not strictly name-ascending"));
        }
        let pids = match flags & FOOTER_FLAG_PHASE_PIDS {
            0 => Vec::new(),
            _ => get_pid_set(&mut data, "phase pid set")?,
        };
        phases.push(PhaseSpan { name, min_start, max_end, pids });
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
        if data.remaining() < 4 + 1 {
            return Err(corrupt("truncated scope"));
        }
        let pid = data.get_u32();
        let phase = match data.get_u8() {
            TAG_OP => false,
            TAG_PHASE => true,
            _ => return Err(corrupt("scope is neither an operation nor a phase")),
        };
        let name = get_name(data, "footer declaration scope name")?;
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

/// The footer length a v3 trailer (`footer_len:u32 | "RLF3"`) names,
/// checked against the `room` bytes before the trailer, which hold the
/// body and the footer. The one trailer check: [`split_v3`] applies it
/// to chunk bytes, the directory index to file tails.
pub(super) fn trailer_footer_len(trailer: [u8; 8], room: u64) -> Result<u64, TraceIoError> {
    let [l0, l1, l2, l3, m0, m1, m2, m3] = trailer;
    if [m0, m1, m2, m3] != *FOOTER_MAGIC {
        return Err(TraceIoError::Corrupt("missing v3 footer magic".into()));
    }
    let footer_len = u64::from(u32::from_be_bytes([l0, l1, l2, l3]));
    if footer_len > room {
        return Err(TraceIoError::Corrupt("v3 footer length out of range".into()));
    }
    Ok(footer_len)
}

/// Splits the post-magic bytes of a v3 chunk into `(body, footer
/// payload)` using the fixed trailer.
fn split_v3(rem: &[u8]) -> Result<(&[u8], &[u8]), TraceIoError> {
    let Some((head, trailer)) = rem.split_last_chunk::<8>() else {
        return Err(TraceIoError::Corrupt("v3 chunk too short for trailer".into()));
    };
    let footer_len = trailer_footer_len(*trailer, head.len() as u64)?;
    Ok(head.split_at(head.len() - footer_len as usize))
}

/// Reads a chunk's footer without decoding its events: `Some` for v3
/// chunks (trailer parse only), `None` for v1/v2 chunks (no footer on
/// the wire — decode the chunk and use [`compute_footer`]).
///
/// # Errors
///
/// [`TraceIoError::Corrupt`] on unknown magic or a malformed trailer.
pub fn read_chunk_footer(data: &[u8]) -> Result<Option<ChunkFooter>, TraceIoError> {
    match split_magic(data)? {
        (m, _) if m == MAGIC_V1 || m == MAGIC_V2 => Ok(None),
        (m, rest) if m == MAGIC_V3 => Ok(Some(decode_footer_payload(split_v3(rest)?.1)?)),
        _ => Err(TraceIoError::Corrupt("bad magic".into())),
    }
}

/// A chunk's 8-byte magic and the bytes after it, of which there must
/// be at least a `count:u32`.
fn split_magic(data: &[u8]) -> Result<(&[u8; 8], &[u8]), TraceIoError> {
    match data.split_first_chunk::<8>() {
        Some((magic, rest)) if rest.len() >= 4 => Ok((magic, rest)),
        _ => Err(TraceIoError::Corrupt("chunk too short for header".into())),
    }
}

/// Decodes a v3 chunk ([`super::encode_events`]) or a legacy v1 or v2
/// chunk into rows: [`decode_columns`] —
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

/// A decoded chunk as a structure of arrays — see the module docs' *One
/// event representation below the API*. One entry per event across the
/// five parallel columns; `names` is the chunk's shared name table
/// (v2/v3 string table verbatim; deduplicated on the fly for v1), referenced
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
    /// through [`super::encode_events`] + [`decode_columns`].
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
/// Returns [`TraceIoError::Corrupt`] on bad magic, truncation, bytes
/// after the last record, invalid tags, or a footer that fails
/// validation.
pub fn decode_columns(data: &[u8]) -> Result<EventColumns, TraceIoError> {
    decode_chunk(data).map(|(cols, _)| cols)
}

/// The one chunk decode behind [`decode_columns`], crash recovery and
/// the directory index of legacy chunks: the columns and the chunk's
/// footer, read off a v3 chunk (checksummed and cross-checked against
/// the events) or computed from the events of a v1 or v2 chunk, which
/// carry none.
pub(super) fn decode_chunk(data: &[u8]) -> Result<(EventColumns, ChunkFooter), TraceIoError> {
    let (magic, rest) = split_magic(data)?;
    let cols = match magic {
        m if m == MAGIC_V1 => decode_columns_v1(rest)?,
        m if m == MAGIC_V2 => decode_columns_v2_body(rest)?,
        m if m == MAGIC_V3 => {
            let (body, footer_bytes) = split_v3(rest)?;
            let footer = decode_footer_payload(footer_bytes)?;
            let mut cols = decode_columns_v2_body(body)?;
            if !footer_consistent(&footer, &compute_footer_columns(&cols)) {
                return Err(TraceIoError::Corrupt("footer contradicts chunk events".into()));
            }
            cols.cut.clone_from(&footer.cut);
            return Ok((cols, footer));
        }
        _ => return Err(TraceIoError::Corrupt("bad magic".into())),
    };
    let footer = compute_footer_columns(&cols);
    Ok((cols, footer))
}

/// Rejects bytes left after a chunk's last event record.
fn no_trailing_bytes(rest: &[u8]) -> Result<(), TraceIoError> {
    match rest.len() {
        0 => Ok(()),
        n => Err(TraceIoError::Corrupt(format!("{n} trailing bytes after the event records"))),
    }
}

/// v1 body: `count`, then fixed-width records, names deduplicated into
/// the column table on the fly.
fn decode_columns_v1(mut data: &[u8]) -> Result<EventColumns, TraceIoError> {
    let count = data.get_u32() as usize;
    let mut records = RecordReader::default();
    let mut cols = EventColumns::with_capacity(Vec::new(), count.min(1 << 20));
    for i in 0..count {
        let Some((pid, tag, name_id, start, end)) = records.next(&mut data)? else {
            return Err(TraceIoError::Corrupt(format!("truncated at event {i}")));
        };
        cols.push(pid, tag, name_id, start, end);
    }
    no_trailing_bytes(data)?;
    cols.names = records.names.names().to_vec();
    Ok(cols)
}

/// Decodes the shared v2/v3 body (`count`, string table, event records),
/// which must end at its last record. Names stay in the table,
/// referenced by id.
fn decode_columns_v2_body(mut data: &[u8]) -> Result<EventColumns, TraceIoError> {
    let data = &mut data;
    if data.remaining() < 8 {
        return Err(TraceIoError::Corrupt("truncated chunk header".into()));
    }
    let count = data.get_u32() as usize;
    let n_names = data.get_u32() as usize;
    let mut names = Vec::with_capacity(n_names.min(1 << 20));
    for _ in 0..n_names {
        names.push(get_name(data, "string table entry")?);
    }
    let mut cols = EventColumns::with_capacity(names, count.min(1 << 20));
    let mut prev_start = 0u64;
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
        // Deltas wrap mod 2^64, as the encoder took them.
        let start = prev_start.wrapping_add(unzigzag(get_varint(data, "start delta")?) as u64);
        let duration = get_varint(data, "duration")?;
        let end = start
            .checked_add(duration)
            .ok_or_else(|| TraceIoError::Corrupt(format!("timestamp overflow at event {i}")))?;
        prev_start = start;
        cols.push(pid, tag, name_id as u32, start, end);
    }
    no_trailing_bytes(data)?;
    Ok(cols)
}

/// One fixed-width event record: `(pid, tag, name id, start, end)`.
pub(super) type Record = (u32, u8, u32, u64, u64);

/// Reads the fixed-width event record (`pid:u32 | tag:u8 |
/// name_len:u16 | name | start:u64 | end:u64`, big-endian): the record
/// of v1 chunks and of the reorder spill. Names are interned, so a
/// repeated name shares one `Arc<str>`.
#[derive(Default)]
pub(super) struct RecordReader {
    /// The names read so far; a record's name id indexes them.
    pub(super) names: Interner,
    scratch: Vec<u8>,
}

impl RecordReader {
    /// The next record of `r`, its tag known and its end not before its
    /// start; `None` when `r` ends cleanly between records.
    pub(super) fn next(&mut self, r: &mut impl Read) -> Result<Option<Record>, TraceIoError> {
        let mut head = [0u8; 7];
        if !read_full(r, &mut head, "event record")? {
            return Ok(None);
        }
        let [p0, p1, p2, p3, tag, n0, n1] = head;
        tag_kind(tag)?;
        let name_len = usize::from(u16::from_be_bytes([n0, n1]));
        self.scratch.resize(name_len + 16, 0);
        let truncated = || TraceIoError::Corrupt("truncated event record".into());
        if !read_full(r, &mut self.scratch, "event record")? {
            return Err(truncated());
        }
        let (name, times) = self.scratch.split_at(name_len);
        let name = std::str::from_utf8(name)
            .map_err(|_| TraceIoError::Corrupt("non-utf8 event record name".into()))?;
        let (Some(start), Some(end)) = (times.first_chunk::<8>(), times.last_chunk::<8>()) else {
            return Err(truncated());
        };
        let (start, end) = (u64::from_be_bytes(*start), u64::from_be_bytes(*end));
        if end < start {
            return Err(TraceIoError::Corrupt("event record ends before start".into()));
        }
        let pid = u32::from_be_bytes([p0, p1, p2, p3]);
        Ok(Some((pid, tag, self.names.intern_str(name), start, end)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::encode::{encode_declared, encode_events, encode_footer_payload};
    use super::super::testutil::{
        encode_events_v1, encode_events_v2, phased_events, sample_events,
    };
    use super::*;
    use bytes::{BufMut, BytesMut};

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

    /// Starts above `i64::MAX` stay v3: the start deltas wrap mod 2^64,
    /// in both directions across the `i64` sign boundary, and every start
    /// round-trips exactly.
    #[test]
    fn extreme_timestamps_round_trip_in_v3() {
        let event = |start: u64, end: u64| {
            Event::new(
                ProcessId(0),
                EventKind::Cpu(CpuCategory::Python),
                "late",
                TimeNs::from_nanos(start),
                TimeNs::from_nanos(end),
            )
        };
        let events = vec![
            event(u64::MAX - 100, u64::MAX - 1),
            event(5, 10),
            event(i64::MAX as u64 + 1, u64::MAX),
            event(i64::MAX as u64, i64::MAX as u64),
            event(u64::MAX, u64::MAX),
        ];
        let encoded = encode_events(&events);
        assert_eq!(&encoded[..8], MAGIC_V3);
        assert_eq!(decode_events(&encoded).unwrap(), events);
        assert_eq!(read_chunk_footer(&encoded).unwrap(), Some(compute_footer(&events)));
    }

    /// A v1 or v2 chunk must end at its last record, as a v3 body must
    /// end at its footer: bytes after it are corruption, not ignored.
    #[test]
    fn legacy_chunks_with_trailing_bytes_are_corrupt() {
        let events = sample_events(5);
        for chunk in [encode_events_v1(&events), encode_events_v2(&events)] {
            assert_eq!(decode_columns(&chunk).unwrap().len(), 5);
            let padded = [&chunk[..], &[0xde, 0xad, 0xbe, 0xef]].concat();
            let err = decode_columns(&padded).unwrap_err();
            assert!(err.to_string().contains("4 trailing bytes"), "{err}");
        }
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
}
