//! The start-ordered rewrite of a chunk directory ([`reorder_chunk_dir`]):
//! an external merge whose sorted runs are spilled as fixed-width event
//! records.

use super::decode::{tag_kind, RecordReader};
use super::encode::append_record;
use super::{for_each_decoded_chunk_columns, list_chunk_files, TraceIoError, TraceWriter};
use crate::event::Event;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

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

/// One spilled run of the merge, read back record by record, with its
/// next event held as the run's head.
struct RawRun {
    file: io::BufReader<fs::File>,
    records: RecordReader,
    head: Option<Event>,
}

impl RawRun {
    /// Opens a run and reads its first event.
    fn open(path: &Path) -> Result<Self, TraceIoError> {
        let file = io::BufReader::with_capacity(1 << 16, fs::File::open(path)?);
        let mut run = RawRun { file, records: RecordReader::default(), head: None };
        run.head = run.next()?;
        Ok(run)
    }

    /// The run's next event, or `None` at its end.
    fn next(&mut self) -> Result<Option<Event>, TraceIoError> {
        let Some((pid, tag, name_id, start, end)) = self.records.next(&mut self.file)? else {
            return Ok(None);
        };
        Ok(Some(Event {
            pid: ProcessId(pid),
            kind: tag_kind(tag)?,
            name: self.records.names.resolve(name_id).clone(),
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
/// ([`super::Manifest::is_start_sorted`]), so every sweep is released
/// one chunk behind the stream — and because the rewrite preserves the
/// event multiset and the relative order of equal-start events, every
/// analysis over `dst` is table-identical to one over `src`. When the
/// last chunk of `src` declares scopes still open
/// ([`super::ChunkFooter::cut`]), every query of `src` closes them at
/// its cut, and the rewrite keeps those closes as events
/// ([`super::Cut::closing_events`]; counted in
/// [`ReorderStats::events`]): `dst` carries no declaration.
///
/// Any chunks already in `dst` are removed ([`TraceWriter::create`]
/// semantics). On error the destination is left in an unspecified
/// partial state.
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
///
/// # Errors
///
/// As [`reorder_chunk_dir`].
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
    // are spilled as v1 event records (fixed-width fields, names inline
    // — no string table, no varints, no footer, no writer thread): a
    // spill run is written and read back exactly once by this process,
    // so compactness buys nothing and the v3 encode's interning and
    // footer work was pure pass-1 CPU. Only the final merged output pays
    // the v3 encode.
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
            append_record(&mut record, e);
            w.write_all(&record)?;
        }
        w.flush()?;
        runs.push(path);
        buf.clear();
        Ok(())
    };
    let mut last_cut = None;
    for_each_decoded_chunk_columns(&list_chunk_files(src)?, |cols| {
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
    let mut cursors: Vec<RawRun> = Vec::with_capacity(runs.len());
    let mut heap = BinaryHeap::with_capacity(runs.len());
    for (i, run) in runs.iter().enumerate() {
        let cursor = RawRun::open(run)?;
        if let Some(e) = &cursor.head {
            heap.push(Reverse((e.start.as_nanos(), i)));
        }
        cursors.push(cursor);
    }
    let out = TraceWriter::create(dst, chunk_bytes)?;
    let mut batch: Vec<Event> = Vec::with_capacity(4096);
    while let Some(Reverse((_, i))) = heap.pop() {
        // A run is on the heap exactly while it holds a head.
        let Some(cursor) = cursors.get_mut(i) else { continue };
        let Some(event) = cursor.head.take() else { continue };
        cursor.head = cursor.next()?;
        if let Some(next) = &cursor.head {
            heap.push(Reverse((next.start.as_nanos(), i)));
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

#[cfg(test)]
mod tests {
    use super::super::testutil::{read_dir_events, sample_events, write_dir};
    use super::super::Manifest;
    use super::*;
    use crate::event::{CpuCategory, EventKind};

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
}
