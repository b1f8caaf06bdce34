//! Segment-summary rollups — the cold tier of the trace storage ladder.
//!
//! A **rollup directory** replaces a session's raw event chunks with
//! pre-aggregated `(phase, operation, category)` [`BreakdownTable`]s per
//! fixed time window ("segment"). Coarse queries — anything that does
//! not need sub-segment time resolution — answer from these summaries
//! without decoding a single raw event; everything finer returns a typed
//! [`crate::analysis::AnalysisError::Unsupported`] instead of a silently
//! coarse answer. This is what makes retention a dial (raw → sorted →
//! rollup → gone) instead of a cliff: aging a session to the rollup tier
//! costs resolution, never queryability.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   rollup_00000.rlr     one file per segment (magic "RLSROLL1")
//!   rollup_00001.rlr
//!   ...
//!   ROLLUP               the index (magic "RLSRIX1\0"), written last,
//!                        atomically (tmp + rename)
//! ```
//!
//! Each segment file holds, for one half-open window
//! `[window_start, window_start + window_len)`:
//!
//! * the **merged-stream** per-phase tables (union-once counting — what
//!   ungrouped queries read), and
//! * the **per-process** per-phase tables (per-process counting — what
//!   process-grouped and process-filtered queries read), including
//!   processes whose window tables are empty, so group enumeration
//!   survives the tier transition exactly.
//!
//! Both are stored because the two countings are not derivable from one
//! another (one instant with two busy processes counts once in the
//! merged view, twice in the per-process view — see
//! [`crate::analysis::Analysis::group_by`]).
//!
//! Segment bodies are varint-encoded against a per-segment string table
//! and carry a trailing FNV-1a checksum, exactly like codec-v3 chunks;
//! the `ROLLUP` index records every segment's file size and window and
//! carries its own checksum, exactly like a chunk footer. Decode paths
//! return [`TraceIoError`] and never panic (clippy's never-panic lints,
//! denied at the crate root).
//!
//! # Equivalence contract
//!
//! Overlap attribution at an instant depends only on the events active
//! at that instant *and* on the start order of the active operations
//! and phases (the innermost operation, the latest-activated phase). A
//! window query clips only CPU/GPU events, which preserves exactly the
//! in-window activity, and admits every operation and phase that
//! intersects the window with its own span, which preserves their start
//! order; attribution is therefore **additive across any partition of
//! the time axis**, exactly. [`rollup_chunk_dir`] builds each
//! segment with the very [`Analysis`] window queries a reader would
//! have run against the raw directory, so merging a contiguous run of
//! segments reproduces one sweep of the covering window — table
//! for table, byte for byte in canonical JSON. The proptests in
//! `tests/properties.rs` and the frozen fixture in `tests/corpus/` pin
//! this.
//!
//! **Group order** needs one extra trick. A single sweep emits phase
//! groups in *presence* order (the order phase annotations appear in
//! the stream, [`NO_PHASE`] first), not first-attribution order, and a
//! phase can be present in an early window while all of its attributed
//! time lands in a later one. Segments therefore store **presence
//! rows** — phase entries with *empty* tables — for every phase whose
//! annotation intersects the window; merging then reproduces presence
//! order, and queries drop the rows that stayed empty after the merge.
//! Presence order across segments matches that order when the
//! source directory is **start-sorted** (the compaction ladder always
//! sorts before it rolls up; see `ChunkFooter::start_sorted`).

use crate::analysis::{Analysis, AnalysisError, Dim};
use crate::event::CpuCategory;
use crate::overlap::{BreakdownTable, BucketKey, PhaseTables, NO_PHASE};
use crate::store::{fnv1a, get_varint, Manifest, TraceIoError};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::{DurationNs, TimeNs};
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic opening every segment file.
const SEGMENT_MAGIC: &[u8; 8] = b"RLSROLL1";
/// Magic opening the rollup index file.
const INDEX_MAGIC: &[u8; 8] = b"RLSRIX1\0";

/// Name of the rollup-directory index file.
pub const ROLLUP_FILE: &str = "ROLLUP";

/// Hard cap on segments per rollup directory: a `segment_ns` that would
/// shatter a trace into more segments than this is a configuration
/// error, reported as such instead of filling the disk with files.
const MAX_SEGMENTS: u64 = 100_000;

/// Segment file name for index `seq`.
fn segment_file_name(seq: usize) -> String {
    format!("rollup_{seq:05}.rlr")
}

/// One decoded segment: the pre-aggregated tables for one time window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RollupSegment {
    /// Window start (nanoseconds, inclusive).
    pub window_start: u64,
    /// Window length (nanoseconds; the window is half-open).
    pub window_len: u64,
    /// Merged-stream per-phase tables (union-once counting).
    pub merged: PhaseTables,
    /// Per-process per-phase tables (per-process counting), in the
    /// process first-seen order of the source stream. An entry may have
    /// empty tables: the process exists in the window with nothing
    /// attributable.
    pub per_process: Vec<(ProcessId, PhaseTables)>,
}

/// Index metadata for one segment (without decoding it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Segment file size in bytes (staleness check on read).
    pub size: u64,
    /// Window start (nanoseconds, inclusive).
    pub window_start: u64,
    /// Window length (nanoseconds; half-open).
    pub window_len: u64,
}

impl SegmentMeta {
    /// Exclusive window end.
    pub fn window_end(&self) -> u64 {
        self.window_start.saturating_add(self.window_len)
    }
}

/// An opened rollup directory: the verified index, ready to serve
/// segment reads. See the [module docs](self) for the layout.
#[derive(Debug, Clone)]
pub struct Rollup {
    dir: PathBuf,
    segment_ns: u64,
    total_events: u64,
    segments: Vec<SegmentMeta>,
}

impl Rollup {
    /// Opens a rollup directory by reading and verifying its `ROLLUP`
    /// index.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Io`] when the index cannot be read (including a
    /// missing index — a directory without one is not a rollup dir);
    /// [`TraceIoError::Corrupt`] on checksum or format violations.
    pub fn open(dir: &Path) -> Result<Rollup, TraceIoError> {
        let bytes = fs::read(dir.join(ROLLUP_FILE))?;
        let (segment_ns, total_events, segments) = decode_index(&bytes)?;
        Ok(Rollup { dir: dir.to_path_buf(), segment_ns, total_events, segments })
    }

    /// The directory this rollup was opened from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The segment window length the rollup was built with.
    pub fn segment_ns(&self) -> u64 {
        self.segment_ns
    }

    /// Total events of the source directory the rollup summarizes (the
    /// consistency token reported by collector queries over this tier).
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Segment metadata, in window order.
    pub fn segments(&self) -> &[SegmentMeta] {
        &self.segments
    }

    /// Reads and decodes one segment by index.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::Io`] reading the file; [`TraceIoError::Corrupt`]
    /// when the index entry is out of range, the file size disagrees
    /// with the index, or the segment bytes fail validation.
    pub fn read_segment(&self, idx: usize) -> Result<RollupSegment, TraceIoError> {
        let Some(meta) = self.segments.get(idx) else {
            return Err(TraceIoError::Corrupt(format!(
                "rollup segment index {idx} out of range ({} segments)",
                self.segments.len()
            )));
        };
        let bytes = fs::read(self.dir.join(segment_file_name(idx)))?;
        if bytes.len() as u64 != meta.size {
            return Err(TraceIoError::Corrupt(format!(
                "rollup segment {idx}: file is {} bytes, index says {}",
                bytes.len(),
                meta.size
            )));
        }
        let seg = decode_segment(&bytes)?;
        if seg.window_start != meta.window_start || seg.window_len != meta.window_len {
            return Err(TraceIoError::Corrupt(format!(
                "rollup segment {idx}: window [{}, +{}) disagrees with index [{}, +{})",
                seg.window_start, seg.window_len, meta.window_start, meta.window_len
            )));
        }
        Ok(seg)
    }

    /// Selects the segments a `[lo, hi)` window query must merge, or
    /// `None` when the window **splits** a segment — rollups cannot
    /// answer below segment granularity (callers surface a typed
    /// `Unsupported`). Window edges beyond the covered span are fine:
    /// only segments the window actually touches must be wholly inside
    /// it.
    pub fn select_window(&self, lo: u64, hi: u64) -> Option<Vec<usize>> {
        let mut out = Vec::new();
        for (i, seg) in self.segments.iter().enumerate() {
            let (s, e) = (seg.window_start, seg.window_end());
            let overlaps = s < hi && e > lo;
            if !overlaps {
                continue;
            }
            if s < lo || e > hi {
                return None; // partially covered segment
            }
            out.push(i);
        }
        Some(out)
    }
}

/// Outcome of [`rollup_chunk_dir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollupStats {
    /// Segments written.
    pub segments: usize,
    /// Source events summarized (the source manifest's total).
    pub events: u64,
}

/// Builds a rollup directory at `dst` summarizing the chunk directory
/// `src` into `segment_ns`-wide windows.
///
/// Windows are aligned to multiples of `segment_ns` (the first window
/// starts at `floor(min_start / segment_ns) * segment_ns`) and cover
/// every event; empty windows inside the span are written too, so the
/// covered range is contiguous and window math never needs gap
/// handling. Each segment is computed with the public [`Analysis`]
/// window queries over `src` — the rollup stores exactly what a reader
/// would have computed, which is what makes the equivalence contract
/// (see the [module docs](self)) hold by construction.
///
/// Existing rollup files in `dst` are replaced. The index is written
/// last and atomically; a crash mid-build leaves `dst` without a valid
/// index and `src` untouched (callers wanting whole-directory atomicity
/// build into a temp dir and rename, as the collector's compaction jobs
/// do).
///
/// # Errors
///
/// [`TraceIoError::Io`] on filesystem errors, a zero `segment_ns`, or a
/// `segment_ns` so small the span would exceed 100 000 segments;
/// [`TraceIoError::Corrupt`] from reading `src`.
pub fn rollup_chunk_dir(
    src: &Path,
    dst: &Path,
    segment_ns: u64,
) -> Result<RollupStats, TraceIoError> {
    if segment_ns == 0 {
        return Err(io::Error::other("rollup segment_ns must be positive").into());
    }
    if src == dst {
        return Err(io::Error::other("rollup source and destination must differ").into());
    }
    let manifest = Manifest::open(src)?;
    let mut t0 = u64::MAX;
    let mut t_end = 0u64;
    for entry in manifest.entries() {
        if entry.footer.events > 0 {
            t0 = t0.min(entry.footer.min_start);
            t_end = t_end.max(entry.footer.max_end);
        }
    }
    fs::create_dir_all(dst)?;
    remove_rollup_files(dst)?;
    let mut segments: Vec<SegmentMeta> = Vec::new();
    if t0 != u64::MAX {
        // Cover instants at the very end of the span: `max_end` may be
        // an instant event's timestamp (not an exclusive bound), and a
        // window must contain it (`lo <= t < hi`), so the covered span
        // extends one past `t_end`. This also covers all-instantaneous
        // streams, where t_end == t0.
        let end = t_end.saturating_add(1);
        let first = t0 - (t0 % segment_ns);
        let span = end - first;
        let count = span.div_ceil(segment_ns);
        if count > MAX_SEGMENTS {
            return Err(io::Error::other(format!(
                "rollup segment_ns {segment_ns} would produce {count} segments \
                 over a {span} ns span (max {MAX_SEGMENTS}); use a coarser window"
            ))
            .into());
        }
        for i in 0..count {
            let lo = first + i * segment_ns;
            let hi = lo.saturating_add(segment_ns);
            let seg = build_segment(src, lo, segment_ns, hi)?;
            let bytes = encode_segment(&seg);
            let path = dst.join(segment_file_name(segments.len()));
            fs::write(&path, &bytes)?;
            segments.push(SegmentMeta {
                size: bytes.len() as u64,
                window_start: lo,
                window_len: segment_ns,
            });
        }
    }
    write_index(dst, segment_ns, manifest.total_events(), &segments)?;
    Ok(RollupStats { segments: segments.len(), events: manifest.total_events() })
}

/// Removes any previous rollup output from `dst` (stale segments would
/// otherwise shadow a shorter rebuild).
fn remove_rollup_files(dst: &Path) -> Result<(), TraceIoError> {
    for entry in fs::read_dir(dst)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == ROLLUP_FILE || name.ends_with(".rlr") {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// Computes one segment's tables by running the reader-visible window
/// queries against the source directory.
fn build_segment(
    src: &Path,
    lo: u64,
    window_len: u64,
    hi: u64,
) -> Result<RollupSegment, TraceIoError> {
    fn window(a: Analysis<'_>, lo: u64, hi: u64) -> Analysis<'_> {
        a.time_window(TimeNs::from_nanos(lo), TimeNs::from_nanos(hi))
    }
    let demote = |e: AnalysisError| match e {
        AnalysisError::Io(e) => e,
        AnalysisError::Unsupported(msg) => {
            TraceIoError::Corrupt(format!("rollup build query unsupported: {msg}"))
        }
    };
    // Both queries keep **empty** phase groups: a presence row records
    // that a phase's annotation intersects this window even when nothing
    // was attributed to it yet, which is what lets cross-segment merges
    // reproduce a single sweep's phase group order (presence order, not
    // first-attribution order) exactly. Queries over the rollup drop the
    // still-empty rows after merging.
    let merged_groups = window(Analysis::from_chunk_dir(src), lo, hi)
        .keep_empty_phases()
        .group_by([Dim::Phase])
        .tables()
        .map_err(demote)?;
    let mut merged: PhaseTables = Vec::new();
    for (key, table) in merged_groups {
        let name = key.phase.unwrap_or_else(|| Arc::from(NO_PHASE));
        merged.push((name, table));
    }
    // Per-process rows: with presence rows kept, every process with an
    // event intersecting the window emits at least its NO_PHASE row, so
    // this single query also enumerates the window's processes in
    // first-seen order (a process row must survive the tier transition
    // even when its window tables are empty).
    let split_groups = window(Analysis::from_chunk_dir(src), lo, hi)
        .keep_empty_phases()
        .group_by([Dim::Process, Dim::Phase])
        .tables()
        .map_err(demote)?;
    let mut per_process: Vec<(ProcessId, PhaseTables)> = Vec::new();
    for (key, table) in split_groups {
        let (Some(pid), Some(phase)) = (key.process, key.phase) else { continue };
        match per_process.last_mut() {
            Some((p, tables)) if *p == pid => tables.push((phase, table)),
            _ => match per_process.iter_mut().find(|(p, _)| *p == pid) {
                Some((_, tables)) => tables.push((phase, table)),
                None => per_process.push((pid, vec![(phase, table)])),
            },
        }
    }
    Ok(RollupSegment { window_start: lo, window_len, merged, per_process })
}

/// Merges `more` into `acc`, preserving first-seen phase order — the
/// cross-segment accumulation used by rollup-backed queries, matching
/// the phase group order one sweep of the covering window produces
/// (first attribution instant is monotone across time-ordered
/// segments).
pub(crate) fn merge_phase_tables(acc: &mut PhaseTables, more: &PhaseTables) {
    for (name, table) in more {
        match acc.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => existing.merge(table),
            None => acc.push((name.clone(), table.clone())),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Interns every phase and operation name of the segment in appearance
/// order, returning the table and a name → id map.
fn string_table(seg: &RollupSegment) -> (Vec<Arc<str>>, HashMap<Arc<str>, u64>) {
    let mut table: Vec<Arc<str>> = Vec::new();
    let mut ids: HashMap<Arc<str>, u64> = HashMap::new();
    let mut intern = |name: &Arc<str>, table: &mut Vec<Arc<str>>| {
        if !ids.contains_key(name) {
            ids.insert(name.clone(), table.len() as u64);
            table.push(name.clone());
        }
    };
    let mut walk = |tables: &PhaseTables, table: &mut Vec<Arc<str>>| {
        for (phase, t) in tables {
            intern(phase, table);
            for (k, _) in t.iter() {
                intern(&k.operation, table);
            }
        }
    };
    walk(&seg.merged, &mut table);
    for (_, tables) in &seg.per_process {
        walk(tables, &mut table);
    }
    (table, ids)
}

/// Bucket category tag: `cpu_code * 2 + gpu`, where `cpu_code` is 0 for
/// none and 1–4 for the [`CpuCategory`] variants in declaration order.
fn bucket_tag(key: &BucketKey) -> u8 {
    let cpu = match key.cpu {
        None => 0u8,
        Some(CpuCategory::Python) => 1,
        Some(CpuCategory::Simulator) => 2,
        Some(CpuCategory::Backend) => 3,
        Some(CpuCategory::CudaApi) => 4,
    };
    cpu * 2 + u8::from(key.gpu)
}

fn tag_bucket(tag: u8) -> Result<(Option<CpuCategory>, bool), TraceIoError> {
    let cpu = match tag / 2 {
        0 => None,
        1 => Some(CpuCategory::Python),
        2 => Some(CpuCategory::Simulator),
        3 => Some(CpuCategory::Backend),
        4 => Some(CpuCategory::CudaApi),
        _ => return Err(TraceIoError::Corrupt(format!("unknown rollup bucket tag {tag}"))),
    };
    Ok((cpu, tag % 2 == 1))
}

fn encode_phase_tables(out: &mut Vec<u8>, tables: &PhaseTables, ids: &HashMap<Arc<str>, u64>) {
    push_varint(out, tables.len() as u64);
    for (phase, table) in tables {
        push_varint(out, ids.get(phase).copied().unwrap_or(0));
        push_varint(out, table.len() as u64);
        for (key, d) in table.iter() {
            push_varint(out, ids.get(&key.operation).copied().unwrap_or(0));
            out.push(bucket_tag(key));
            push_varint(out, d.as_nanos());
        }
    }
}

/// Encodes one segment: magic, varint body against a per-segment string
/// table, trailing FNV-1a checksum over everything before it.
fn encode_segment(seg: &RollupSegment) -> Vec<u8> {
    let (table, ids) = string_table(seg);
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(SEGMENT_MAGIC);
    push_varint(&mut out, seg.window_start);
    push_varint(&mut out, seg.window_len);
    push_varint(&mut out, table.len() as u64);
    for name in &table {
        push_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    encode_phase_tables(&mut out, &seg.merged, &ids);
    push_varint(&mut out, seg.per_process.len() as u64);
    for (pid, tables) in &seg.per_process {
        push_varint(&mut out, u64::from(pid.as_u32()));
        encode_phase_tables(&mut out, tables, &ids);
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_be_bytes());
    out
}

fn write_index(
    dst: &Path,
    segment_ns: u64,
    total_events: u64,
    segments: &[SegmentMeta],
) -> Result<(), TraceIoError> {
    let mut out = Vec::with_capacity(64 + segments.len() * 12);
    out.extend_from_slice(INDEX_MAGIC);
    push_varint(&mut out, segment_ns);
    push_varint(&mut out, total_events);
    push_varint(&mut out, segments.len() as u64);
    for seg in segments {
        push_varint(&mut out, seg.size);
        push_varint(&mut out, seg.window_start);
        push_varint(&mut out, seg.window_len);
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_be_bytes());
    // Atomic publish: readers either see the previous index or this one.
    let tmp = dst.join(format!("{ROLLUP_FILE}.tmp"));
    fs::write(&tmp, &out)?;
    fs::rename(&tmp, dst.join(ROLLUP_FILE))?;
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding (never panics — lint-enforced)
// ---------------------------------------------------------------------------

/// Splits and verifies the trailing FNV-1a checksum.
fn decode_checked<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8], TraceIoError> {
    let Some(split) = bytes.len().checked_sub(8) else {
        return Err(TraceIoError::Corrupt(format!("{what}: too short for a checksum")));
    };
    let (body, trailer) = bytes.split_at(split);
    let mut expected = [0u8; 8];
    expected.copy_from_slice(trailer);
    if fnv1a(body) != u64::from_be_bytes(expected) {
        return Err(TraceIoError::Corrupt(format!("{what}: checksum mismatch")));
    }
    Ok(body)
}

/// Decodes the `ROLLUP` index body, returning
/// `(segment_ns, total_events, segments)`.
fn decode_index(bytes: &[u8]) -> Result<(u64, u64, Vec<SegmentMeta>), TraceIoError> {
    let body = decode_checked(bytes, "rollup index")?;
    let Some(rest) = body.strip_prefix(INDEX_MAGIC) else {
        return Err(TraceIoError::Corrupt("rollup index: bad magic".to_string()));
    };
    let mut data = rest;
    let segment_ns = get_varint(&mut data, "rollup index segment_ns")?;
    if segment_ns == 0 {
        return Err(TraceIoError::Corrupt("rollup index: zero segment_ns".to_string()));
    }
    let total_events = get_varint(&mut data, "rollup index total_events")?;
    let count = get_varint(&mut data, "rollup index segment count")?;
    if count > MAX_SEGMENTS {
        return Err(TraceIoError::Corrupt(format!(
            "rollup index: segment count {count} exceeds the {MAX_SEGMENTS} cap"
        )));
    }
    let mut segments = Vec::with_capacity(count as usize);
    let mut prev_end = 0u64;
    for i in 0..count {
        let size = get_varint(&mut data, "rollup segment size")?;
        let window_start = get_varint(&mut data, "rollup segment window start")?;
        let window_len = get_varint(&mut data, "rollup segment window length")?;
        if window_len == 0 {
            return Err(TraceIoError::Corrupt(format!(
                "rollup index: segment {i} has a zero-length window"
            )));
        }
        if i > 0 && window_start != prev_end {
            return Err(TraceIoError::Corrupt(format!(
                "rollup index: segment {i} starts at {window_start}, expected {prev_end} \
                 (segments must tile contiguously)"
            )));
        }
        prev_end = window_start.saturating_add(window_len);
        segments.push(SegmentMeta { size, window_start, window_len });
    }
    if !data.is_empty() {
        return Err(TraceIoError::Corrupt(format!("rollup index: {} trailing bytes", data.len())));
    }
    Ok((segment_ns, total_events, segments))
}

fn decode_phase_tables(
    data: &mut &[u8],
    strings: &[Arc<str>],
) -> Result<PhaseTables, TraceIoError> {
    let lookup = |id: u64| -> Result<Arc<str>, TraceIoError> {
        strings.get(id as usize).cloned().ok_or_else(|| {
            TraceIoError::Corrupt(format!(
                "rollup segment: string id {id} out of range ({} entries)",
                strings.len()
            ))
        })
    };
    let phases = get_varint(data, "rollup phase count")?;
    let mut out: PhaseTables = Vec::with_capacity(phases.min(64) as usize);
    for _ in 0..phases {
        let name = lookup(get_varint(data, "rollup phase name id")?)?;
        let buckets = get_varint(data, "rollup bucket count")?;
        let mut table = BreakdownTable::new();
        for _ in 0..buckets {
            let op = lookup(get_varint(data, "rollup bucket operation id")?)?;
            let Some((&tag, rest)) = data.split_first() else {
                return Err(TraceIoError::Corrupt("rollup segment: truncated bucket".to_string()));
            };
            *data = rest;
            let (cpu, gpu) = tag_bucket(tag)?;
            let nanos = get_varint(data, "rollup bucket nanos")?;
            table.add(BucketKey { operation: op, cpu, gpu }, DurationNs::from_nanos(nanos));
        }
        out.push((name, table));
    }
    Ok(out)
}

/// Decodes one segment file's bytes.
fn decode_segment(bytes: &[u8]) -> Result<RollupSegment, TraceIoError> {
    let body = decode_checked(bytes, "rollup segment")?;
    let Some(rest) = body.strip_prefix(SEGMENT_MAGIC) else {
        return Err(TraceIoError::Corrupt("rollup segment: bad magic".to_string()));
    };
    let mut data = rest;
    let window_start = get_varint(&mut data, "rollup window start")?;
    let window_len = get_varint(&mut data, "rollup window length")?;
    let strings_len = get_varint(&mut data, "rollup string count")?;
    let mut strings: Vec<Arc<str>> = Vec::with_capacity(strings_len.min(1024) as usize);
    for _ in 0..strings_len {
        let len = get_varint(&mut data, "rollup string length")? as usize;
        let Some(raw) = data.get(..len) else {
            return Err(TraceIoError::Corrupt("rollup segment: truncated string".to_string()));
        };
        let Ok(s) = std::str::from_utf8(raw) else {
            return Err(TraceIoError::Corrupt("rollup segment: non-UTF-8 string".to_string()));
        };
        strings.push(Arc::from(s));
        data = data.get(len..).unwrap_or(&[]);
    }
    let merged = decode_phase_tables(&mut data, &strings)?;
    let procs = get_varint(&mut data, "rollup process count")?;
    let mut per_process: Vec<(ProcessId, PhaseTables)> =
        Vec::with_capacity(procs.min(1024) as usize);
    for _ in 0..procs {
        let pid = get_varint(&mut data, "rollup process id")?;
        let Ok(pid) = u32::try_from(pid) else {
            return Err(TraceIoError::Corrupt(format!(
                "rollup segment: process id {pid} exceeds u32"
            )));
        };
        let tables = decode_phase_tables(&mut data, &strings)?;
        per_process.push((ProcessId(pid), tables));
    }
    if !data.is_empty() {
        return Err(TraceIoError::Corrupt(format!(
            "rollup segment: {} trailing bytes",
            data.len()
        )));
    }
    Ok(RollupSegment { window_start, window_len, merged, per_process })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, GpuCategory};
    use crate::store::TraceWriter;
    use std::path::PathBuf;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rlscope_rollup_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn ev(pid: u32, kind: EventKind, name: &str, start: u64, end: u64) -> Event {
        Event::new(ProcessId(pid), kind, name, TimeNs::from_nanos(start), TimeNs::from_nanos(end))
    }

    /// Two processes, two phases, ops, CPU+GPU overlap — spans 0..40_000.
    fn sample_events() -> Vec<Event> {
        vec![
            ev(0, EventKind::Phase, "warmup", 0, 18_000),
            ev(0, EventKind::Phase, "steady", 18_000, 40_000),
            ev(0, EventKind::Operation, "step", 2_000, 30_000),
            ev(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 20_000),
            ev(0, EventKind::Cpu(CpuCategory::Backend), "be", 5_000, 12_000),
            ev(0, EventKind::Gpu(GpuCategory::Kernel), "k", 8_000, 26_000),
            ev(1, EventKind::Phase, "steady", 10_000, 36_000),
            ev(1, EventKind::Operation, "sim", 11_000, 22_000),
            ev(1, EventKind::Cpu(CpuCategory::Simulator), "s", 10_000, 35_000),
            ev(1, EventKind::Gpu(GpuCategory::Memcpy), "m", 30_000, 39_000),
        ]
    }

    fn write_dir(dir: &Path, events: &[Event]) {
        let writer = TraceWriter::create(dir, 1).unwrap();
        for chunk in events.chunks(3) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();
    }

    #[test]
    fn rollup_round_trips_and_answers_coarse_queries() {
        let src = scratch("src");
        let dst = scratch("dst");
        write_dir(&src, &sample_events());
        let stats = rollup_chunk_dir(&src, &dst, 10_000).unwrap();
        assert_eq!(stats.events, 10);
        // The covered span extends one past the last event end (an
        // instant at exactly t_end must land in a window), so an
        // aligned 40_000 ns span gets a fifth (empty) segment.
        assert_eq!(stats.segments, 5);

        let rollup = Rollup::open(&dst).unwrap();
        assert_eq!(rollup.segment_ns(), 10_000);
        assert_eq!(rollup.total_events(), 10);
        assert_eq!(rollup.segments().len(), 5);

        // Merging every segment's merged tables reproduces one sweep of
        // the whole stream, phase for phase.
        let mut merged: PhaseTables = Vec::new();
        for i in 0..rollup.segments().len() {
            let seg = rollup.read_segment(i).unwrap();
            merge_phase_tables(&mut merged, &seg.merged);
        }
        let events = sample_events();
        let want = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
        assert_eq!(merged.len(), want.len());
        for ((name, table), (key, want_table)) in merged.iter().zip(&want) {
            assert_eq!(Some(name), key.phase.as_ref());
            assert_eq!(table.canonical_json(), want_table.canonical_json());
        }
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dst);
    }

    #[test]
    fn select_window_requires_segment_alignment() {
        let src = scratch("sel_src");
        let dst = scratch("sel_dst");
        write_dir(&src, &sample_events());
        rollup_chunk_dir(&src, &dst, 10_000).unwrap();
        let rollup = Rollup::open(&dst).unwrap();
        assert_eq!(rollup.select_window(0, 40_000), Some(vec![0, 1, 2, 3]));
        assert_eq!(rollup.select_window(10_000, 30_000), Some(vec![1, 2]));
        // Edges beyond the covered span are fine (segment 4 is the
        // empty instant-guard tail past the last event end).
        assert_eq!(rollup.select_window(0, 1_000_000), Some(vec![0, 1, 2, 3, 4]));
        // A window splitting a segment is not answerable.
        assert_eq!(rollup.select_window(5_000, 30_000), None);
        assert_eq!(rollup.select_window(10_000, 33_000), None);
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dst);
    }

    #[test]
    fn corrupt_rollup_bytes_decode_to_typed_errors() {
        let src = scratch("cor_src");
        let dst = scratch("cor_dst");
        write_dir(&src, &sample_events());
        rollup_chunk_dir(&src, &dst, 20_000).unwrap();

        // Flip every byte of the index: always a typed error, never a panic.
        let index = fs::read(dst.join(ROLLUP_FILE)).unwrap();
        for i in 0..index.len() {
            let mut bad = index.clone();
            bad[i] ^= 0x40;
            fs::write(dst.join(ROLLUP_FILE), &bad).unwrap();
            if let Ok(r) = Rollup::open(&dst) {
                // A byte flip that survives the checksum is astronomically
                // unlikely; the decoded value must still be self-consistent.
                assert_eq!(r.segments().len(), 1);
            }
        }
        fs::write(dst.join(ROLLUP_FILE), &index).unwrap();

        // Truncations and flips of a segment file: typed errors only.
        let rollup = Rollup::open(&dst).unwrap();
        let seg_path = dst.join(segment_file_name(0));
        let seg = fs::read(&seg_path).unwrap();
        for cut in 0..seg.len() {
            fs::write(&seg_path, &seg[..cut]).unwrap();
            assert!(rollup.read_segment(0).is_err());
        }
        for i in 0..seg.len() {
            let mut bad = seg.clone();
            bad[i] ^= 0x01;
            fs::write(&seg_path, &bad).unwrap();
            let _ = rollup.read_segment(0);
        }
        fs::write(&seg_path, &seg).unwrap();
        assert!(rollup.read_segment(0).is_ok());
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dst);
    }

    #[test]
    fn rebuild_replaces_stale_segments() {
        let src = scratch("re_src");
        let dst = scratch("re_dst");
        write_dir(&src, &sample_events());
        rollup_chunk_dir(&src, &dst, 5_000).unwrap();
        assert_eq!(Rollup::open(&dst).unwrap().segments().len(), 9);
        rollup_chunk_dir(&src, &dst, 40_000).unwrap();
        let rollup = Rollup::open(&dst).unwrap();
        assert_eq!(rollup.segments().len(), 2);
        // The coarser rebuild removed the nine fine-grained files.
        let leftovers = fs::read_dir(&dst)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".rlr"))
            .count();
        assert_eq!(leftovers, 2);
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dst);
    }

    #[test]
    fn zero_segment_ns_is_a_typed_error() {
        let src = scratch("z_src");
        let dst = scratch("z_dst");
        write_dir(&src, &sample_events());
        assert!(matches!(rollup_chunk_dir(&src, &dst, 0), Err(TraceIoError::Io(_))));
        let _ = fs::remove_dir_all(&src);
        let _ = fs::remove_dir_all(&dst);
    }
}
