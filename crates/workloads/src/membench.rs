//! The `bench` workload: proves the streaming analysis pipeline's memory
//! claim — peak allocation stays flat while the trace grows 100×.
//!
//! The workload writes a deterministic start-ordered multi-process event
//! stream to a rotated chunk directory, then analyzes it twice:
//!
//! * **batch** — every decoded event is materialized in one
//!   `Vec<Event>`, then the in-memory per-process analysis runs
//!   ([`Analysis::of`] grouped by process); peak memory is linear in
//!   total event count.
//! * **streamed** — [`Analysis::from_chunk_dir`] decodes one chunk at a
//!   time into per-process [`rlscope_core::overlap::OverlapSweep`]s and
//!   releases each behind the start of the chunks still to come (read
//!   off the chunks' footers; the stream is start-ordered, so that is
//!   one chunk back); peak memory is about one chunk, independent of how
//!   many chunks the directory holds.
//!
//! Peak live heap is observed through [`TrackingAlloc`], a byte-counting
//! wrapper around the system allocator. The harness (`tests/membench.rs`)
//! installs it as the global allocator and asserts the streamed peak is
//! flat across a 100× event-count growth while the batch peak is not.

use rlscope_core::analysis::{Analysis, AnalysisError, Dim, GroupKey};
use rlscope_core::overlap::BreakdownTable;
use rlscope_core::store::{
    for_each_decoded_chunk_columns, list_chunk_files, TraceIoError, TraceWriter,
};
use rlscope_core::trace::Trace;
use rlscope_core::{CpuCategory, Event, EventKind, GpuCategory};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

/// A system-allocator wrapper that tracks live and peak heap bytes.
///
/// Install it in a test or binary crate root to activate the counters:
///
/// ```ignore
/// #[global_allocator]
/// static GLOBAL: rlscope_workloads::membench::TrackingAlloc = TrackingAlloc;
/// ```
///
/// Without installation the counters stay zero and the membench report
/// carries no peak information.
#[derive(Debug)]
pub struct TrackingAlloc;

fn on_alloc(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(bytes: usize) {
    LIVE_BYTES.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: delegates every operation to `System`, only adjusting counters.
#[expect(unsafe_code, reason = "GlobalAlloc is an unsafe trait; every method delegates to System")]
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Resets the peak-bytes watermark to the current live count.
pub fn reset_alloc_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Peak live heap bytes since the last [`reset_alloc_peak`] (zero unless
/// [`TrackingAlloc`] is installed as the global allocator).
pub fn alloc_peak() -> usize {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Live heap bytes right now (zero unless [`TrackingAlloc`] is installed).
pub fn alloc_live() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Events per unit of `scale` in [`write_scaled_chunks`].
pub const EVENTS_PER_SCALE: u64 = 4_096;

/// Processes in the synthetic stream.
pub const MEMBENCH_PIDS: u32 = 3;

/// Chunk rotation threshold used by the workload: small enough that even
/// `scale = 1` rotates several files, so the streamed path is always
/// exercised across chunk boundaries.
pub const MEMBENCH_CHUNK_BYTES: usize = 32 * 1024;

/// Writes the deterministic membench stream: `scale * EVENTS_PER_SCALE`
/// events round-robined over [`MEMBENCH_PIDS`] processes in globally
/// sorted start order — operation annotations every 16 events per lane,
/// CPU category and GPU kernel intervals otherwise. [`TraceWriter`]
/// clears any chunk files already in `dir`, so a reused directory holds
/// exactly this stream. Returns the total event count written.
///
/// # Errors
///
/// Propagates chunk-writer I/O errors.
pub fn write_scaled_chunks(dir: &Path, scale: usize) -> Result<u64, TraceIoError> {
    let total = EVENTS_PER_SCALE * scale as u64;
    let writer = TraceWriter::create(dir, MEMBENCH_CHUNK_BYTES)?;
    let mut batch: Vec<Event> = Vec::with_capacity(1024);
    for i in 0..total {
        let pid = ProcessId((i % u64::from(MEMBENCH_PIDS)) as u32);
        let t = i * 1_000;
        let event = if i % 16 == 0 {
            Event::new(
                pid,
                EventKind::Operation,
                ["inference", "simulation", "backpropagation"][(i as usize / 16) % 3],
                TimeNs::from_nanos(t),
                TimeNs::from_nanos(t + 15_500),
            )
        } else {
            let (kind, name) = match i % 4 {
                0 => (EventKind::Cpu(CpuCategory::Python), "py"),
                1 => (EventKind::Cpu(CpuCategory::Backend), "be"),
                2 => (EventKind::Cpu(CpuCategory::CudaApi), "cudaLaunchKernel"),
                _ => (EventKind::Gpu(GpuCategory::Kernel), "kernel"),
            };
            Event::new(pid, kind, name, TimeNs::from_nanos(t), TimeNs::from_nanos(t + 900))
        };
        batch.push(event);
        if batch.len() == 1024 {
            writer.write(std::mem::take(&mut batch));
        }
    }
    if !batch.is_empty() {
        writer.write(batch);
    }
    writer.finish()?;
    Ok(total)
}

/// One analysis pass's observation: its peak live heap and its result.
#[derive(Debug)]
pub struct PassMeasurement {
    /// Peak live heap bytes during the pass (0 without [`TrackingAlloc`]).
    pub peak_bytes: usize,
    /// The per-process tables the pass produced.
    pub tables: Vec<(GroupKey, BreakdownTable)>,
}

/// Runs the streamed analysis over `dir` under peak-allocation tracking.
///
/// # Errors
///
/// Propagates I/O / corruption errors from the directory.
pub fn measure_streamed(dir: &Path) -> Result<PassMeasurement, AnalysisError> {
    reset_alloc_peak();
    let base = alloc_live();
    let tables = Analysis::from_chunk_dir(dir).group_by([Dim::Process]).tables()?;
    Ok(PassMeasurement { peak_bytes: alloc_peak().saturating_sub(base), tables })
}

/// Every event of the chunk directory `dir`, concatenated in stream
/// order — the full materialization the batch pass measures.
fn read_all_events(dir: &Path) -> Result<Vec<Event>, TraceIoError> {
    let mut events = Vec::new();
    for_each_decoded_chunk_columns(&list_chunk_files(dir)?, 1, |cols| {
        events.extend(cols.to_events()?);
        Ok(())
    })?;
    Ok(events)
}

/// Runs the full-materialization analysis over `dir` under
/// peak-allocation tracking.
///
/// # Errors
///
/// Propagates I/O / corruption errors from the directory.
pub fn measure_batch(dir: &Path) -> Result<PassMeasurement, AnalysisError> {
    reset_alloc_peak();
    let base = alloc_live();
    let events = read_all_events(dir)?;
    let wall_end = events.iter().map(|e| e.end).max().unwrap_or(TimeNs::ZERO);
    let trace = Trace {
        pid: ProcessId(0),
        events,
        counts: Default::default(),
        per_op_transitions: vec![],
        api_stats: vec![],
        iterations: 0,
        wall_end,
    };
    let tables = Analysis::of(&trace).group_by([Dim::Process]).tables()?;
    Ok(PassMeasurement { peak_bytes: alloc_peak().saturating_sub(base), tables })
}

/// The membench verdict for one scale.
#[derive(Debug)]
pub struct MemBenchReport {
    /// Events written to the chunk directory.
    pub events: u64,
    /// Peak live heap of the streamed analysis pass.
    pub streamed_peak: usize,
    /// Peak live heap of the full-materialization pass.
    pub batch_peak: usize,
    /// Whether both passes produced identical per-process tables.
    pub tables_match: bool,
}

/// Writes the `scale`-sized stream into `dir` and measures both
/// analysis passes. The directory is created (and overwritten) by the
/// call.
///
/// # Errors
///
/// Propagates I/O / corruption errors.
pub fn run_membench(dir: &Path, scale: usize) -> Result<MemBenchReport, AnalysisError> {
    let events = write_scaled_chunks(dir, scale)?;
    let streamed = measure_streamed(dir)?;
    let batch = measure_batch(dir)?;
    Ok(MemBenchReport {
        events,
        streamed_peak: streamed.peak_bytes,
        batch_peak: batch.peak_bytes,
        tables_match: streamed.tables == batch.tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membench_passes_agree_without_allocator() {
        // Table equality (the correctness half of the workload) holds
        // whether or not the tracking allocator is installed.
        let dir = std::env::temp_dir().join(format!("rlscope_membench_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_membench(&dir, 1).unwrap();
        assert_eq!(report.events, EVENTS_PER_SCALE);
        assert!(report.tables_match);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rerun_into_same_dir_replaces_stale_chunks() {
        let dir = std::env::temp_dir().join(format!("rlscope_membench_re_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_scaled_chunks(&dir, 2).unwrap();
        let big = read_all_events(&dir).unwrap().len() as u64;
        assert_eq!(big, EVENTS_PER_SCALE * 2);
        // A smaller rerun must fully replace the stream, not leave the
        // old run's tail chunks behind.
        write_scaled_chunks(&dir, 1).unwrap();
        assert_eq!(read_all_events(&dir).unwrap().len() as u64, EVENTS_PER_SCALE);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn membench_stream_is_start_ordered() {
        // What keeps the release frontier one chunk back: the generator
        // must emit globally sorted start times (any drift would hold
        // sweeps open across chunks and void the flat-memory claim).
        let dir = std::env::temp_dir().join(format!("rlscope_membench_ord_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_scaled_chunks(&dir, 1).unwrap();
        let events = read_all_events(&dir).unwrap();
        assert!(events.windows(2).all(|w| w[0].start <= w[1].start));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
