//! Chunk directories: the rotating [`TraceWriter`], stream-order
//! listing, crash recovery ([`recover_chunk_prefix`]), the footer index
//! ([`Manifest`]) with predicate pushdown, and the chunk-parallel
//! decode ([`for_each_decoded_chunk_columns`]).

use super::decode::{
    decode_chunk, decode_footer_payload, read_chunk_footer, trailer_footer_len, ChunkFooter,
    EventColumns,
};
use super::{
    decode_columns, encode_events, encode_footer_payload, fnv1a, TraceIoError, MAGIC_V1, MAGIC_V2,
    MAGIC_V3,
};
use crate::event::Event;
use bytes::{BufMut, BytesMut};
use crossbeam::channel::{bounded, unbounded, Sender};
use std::fmt;
use std::fs;
use std::io::{self, Read, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

const MANIFEST_MAGIC: &[u8; 8] = b"RLSMANF1";

/// Name of the chunk-directory manifest file [`Manifest::write`]
/// exports; nothing in this workspace reads it (see the module docs).
pub const MANIFEST_FILE: &str = "MANIFEST";

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
/// string ids, and the v3 footer checksum cross-check, whose footer
/// becomes the chunk's entry), **truncating the
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
            if let Ok((cols, footer)) = decode_chunk(&data) {
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
    /// Starts a writer thread that stores chunks under `dir`. A chunk
    /// holds one or more whole batches: the pending batches are written
    /// out once their events number at least `chunk_bytes / 32` (32
    /// bytes is the size of a v1 event record, not of its v3 encoding),
    /// and whatever is pending at [`TraceWriter::finish`] becomes the
    /// last chunk. So a v3 chunk comes out well below `chunk_bytes`: a
    /// profiled trace encodes at about 7.5 bytes per event, and its
    /// chunks are about a quarter of `chunk_bytes` plus the part of the
    /// batch that crossed the count.
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
            let mut files = Vec::new();
            let mut cmds = rx.into_iter();
            loop {
                let done = match cmds.next() {
                    Some(WriterCmd::Batch(events)) => {
                        pending.extend(events);
                        false
                    }
                    Some(WriterCmd::Finish) | None => true,
                };
                // A pending event is estimated at 32 encoded bytes.
                if !pending.is_empty() && (done || pending.len() * 32 >= chunk_bytes) {
                    let path = dir.join(format!("chunk_{:05}.rls", files.len()));
                    fs::File::create(&path)?.write_all(&encode_events(&pending))?;
                    files.push(path);
                    pending.clear();
                }
                if done {
                    return Ok(files);
                }
            }
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
    pub fn finish(mut self) -> Result<Vec<PathBuf>, TraceIoError> {
        let _ = self.tx.send(WriterCmd::Finish);
        // Only `Drop` takes the handle, and `finish` consumes the writer.
        let Some(handle) = self.handle.take() else { return Ok(Vec::new()) };
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
    let footer_len = trailer_footer_len(trailer, room)?;
    let mut footer = vec![0u8; footer_len as usize];
    chunk.seek(io::SeekFrom::Start(room + 8 - footer_len))?;
    chunk.read_exact(&mut footer)?;
    decode_footer_payload(&footer).map(Some)
}

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
    /// whose [`super::PhaseSpan::pids`] contain that process (an empty —
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
                decode_chunk(&data)?.1
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
    /// decoded once and summarized with [`super::compute_footer_columns`].
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
    /// chunk. [`super::reorder_chunk_dir`] establishes this.
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
    pub fn select(&self, query: &ChunkQuery) -> Vec<&ManifestEntry> {
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

    /// The `MANIFEST` bytes (see the module docs).
    fn encode(&self) -> Vec<u8> {
        let mut body = BytesMut::with_capacity(64 + self.entries.len() * 96);
        body.put_u32(self.entries.len() as u32);
        for entry in &self.entries {
            body.put_u16(entry.file.len() as u16);
            body.put_slice(entry.file.as_bytes());
            body.put_u64(entry.size);
            let mut footer_buf = BytesMut::with_capacity(128);
            encode_footer_payload(&entry.footer, &mut footer_buf);
            body.put_u32(footer_buf.len() as u32);
            body.put_slice(&footer_buf);
        }
        [&MANIFEST_MAGIC[..], &body, &fnv1a(&body).to_be_bytes()].concat()
    }

    /// Assembles a manifest from externally-collected entries (stream
    /// order), for a caller that already holds every chunk's footer and
    /// wants the [`MANIFEST_FILE`] export ([`Manifest::write`]) without
    /// reading the chunks back.
    pub fn from_entries(dir: &Path, entries: Vec<ManifestEntry>) -> Manifest {
        Manifest { dir: dir.to_path_buf(), entries }
    }
}

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
        // Worker `i % threads` decodes file `i`, and sends once per file
        // it owns before it exits.
        for rx in receivers.iter().cycle().take(files.len()) {
            let lost = || io::Error::other("a decode worker exited without sending");
            consume(rx.recv().ok_or_else(lost)??)?;
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{
        encode_events_v1, encode_events_v2, phased_events, read_dir_events, sample_events,
        write_dir,
    };
    use super::super::{compute_footer, compute_footer_columns, MAGIC_V3};
    use super::*;
    use crate::event::{CpuCategory, EventKind};
    use rlscope_sim::ids::ProcessId;
    use rlscope_sim::time::TimeNs;

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

    /// The writer leaves chunk files only, and their tails index them:
    /// `Manifest::open` yields exactly the footers a full decode of each
    /// chunk computes — the chunk of an extreme-timestamp batch, whose
    /// start deltas wrap, included.
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
        assert_eq!(&fs::read(dir.join(&last.file)).unwrap()[..8], MAGIC_V3);
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

    /// Recovery keeps the valid prefix of a mixed v1/v2/v3 directory,
    /// with exactly the entries `Manifest::open` then reads, and hands
    /// each kept chunk's columns on; the first bad chunk and all after it
    /// are removed.
    #[test]
    fn recovery_keeps_the_valid_prefix_with_the_index_entries() {
        let dir = std::env::temp_dir().join(format!("rlscope_recover_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let events = phased_events();
        fs::write(dir.join("chunk_00000.rls"), encode_events_v1(&events[..8])).unwrap();
        fs::write(dir.join("chunk_00001.rls"), encode_events_v2(&events[8..16])).unwrap();
        fs::write(dir.join("chunk_00002.rls"), encode_events(&events[16..])).unwrap();
        let torn = encode_events(&events[..4]);
        fs::write(dir.join("chunk_00003.rls"), &torn[..torn.len() - 1]).unwrap();
        fs::write(dir.join("chunk_00004.rls"), encode_events(&events[4..])).unwrap();
        let mut replayed = Vec::new();
        let recovered =
            recover_chunk_prefix(&dir, |cols| replayed.extend(cols.to_events().unwrap())).unwrap();
        assert_eq!(replayed, events);
        assert_eq!(recovered.events(), events.len() as u64);
        assert_eq!(recovered.removed.len(), 2);
        assert_eq!(recovered.entries, Manifest::open(&dir).unwrap().entries());
        assert_eq!(recovered.entries[2].footer, compute_footer(&events[16..]));
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
        let files = |query: &ChunkQuery| -> Vec<String> {
            manifest.select(query).iter().map(|e| e.file.clone()).collect()
        };
        assert_eq!(files(&ChunkQuery::default()).len(), 4);

        let window = ChunkQuery { window: Some((1_000, 2_000)), ..Default::default() };
        assert_eq!(files(&window), ["chunk_00001.rls"]);

        let pid = ChunkQuery { pid: Some(9), ..Default::default() };
        assert_eq!(files(&pid).len(), 1);

        let phase = ChunkQuery { phase: Some(Arc::from("late")), ..Default::default() };
        assert_eq!(files(&phase), ["chunk_00003.rls"]);

        let absent = ChunkQuery { phase: Some(Arc::from("never")), ..Default::default() };
        assert!(files(&absent).is_empty());

        // Conjunction: window hits chunk 1 but pid 9 lives in chunk 3.
        let both = ChunkQuery { window: Some((1_000, 2_000)), pid: Some(9), ..Default::default() };
        assert!(files(&both).is_empty());
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
        let names: Vec<&str> = sel.iter().map(|e| e.file.as_str()).collect();
        assert_eq!(names, ["chunk_00000.rls", "chunk_00002.rls"]);
        fs::remove_dir_all(&dir).unwrap();
    }

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
}
