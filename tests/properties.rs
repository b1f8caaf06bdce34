//! Property-based tests on the profiler's core invariants.

use proptest::prelude::*;
use rlscope::core::analysis::{Analysis, Dim, LiveState, LiveView};
use rlscope::core::event::{CpuCategory, Event, EventKind, GpuCategory};
use rlscope::core::overlap::{
    compute_overlap, compute_overlap_columns, BreakdownTable, BucketKey, OverlapSweep, NO_PHASE,
};
use rlscope::core::profiler::{cut_of, EventSink, Profiler, ProfilerConfig, Toggles};
use rlscope::core::store::{
    decode_columns, decode_events, encode_declared, encode_events, Cut, EventColumns, TraceWriter,
};
use rlscope::sim::ids::ProcessId;
use rlscope::sim::time::{DurationNs, TimeNs};
use rlscope_rl::{ReplayBuffer, RolloutBuffer, RolloutStep, Transition};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// For `encode_legacy_v2`: the library no longer writes the legacy format.
include!(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fixture.rs"));

fn arb_kind() -> impl Strategy<Value = EventKind> {
    prop_oneof![
        Just(EventKind::Cpu(CpuCategory::Python)),
        Just(EventKind::Cpu(CpuCategory::Simulator)),
        Just(EventKind::Cpu(CpuCategory::Backend)),
        Just(EventKind::Cpu(CpuCategory::CudaApi)),
        Just(EventKind::Gpu(GpuCategory::Kernel)),
        Just(EventKind::Gpu(GpuCategory::Memcpy)),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    (arb_kind(), 0u64..10_000, 1u64..500, 0u32..4).prop_map(|(kind, start, len, pid)| {
        Event::new(
            ProcessId(pid),
            kind,
            "e",
            TimeNs::from_nanos(start),
            TimeNs::from_nanos(start + len),
        )
    })
}

/// Any event kind, including operation annotations and phases, with a
/// handful of distinct names and zero-length intervals allowed — the
/// adversarial input space for the overlap engine.
fn arb_full_event() -> impl Strategy<Value = Event> {
    let kind = prop_oneof![
        Just(EventKind::Cpu(CpuCategory::Python)),
        Just(EventKind::Cpu(CpuCategory::Simulator)),
        Just(EventKind::Cpu(CpuCategory::Backend)),
        Just(EventKind::Cpu(CpuCategory::CudaApi)),
        Just(EventKind::Gpu(GpuCategory::Kernel)),
        Just(EventKind::Gpu(GpuCategory::Memcpy)),
        Just(EventKind::Operation),
        Just(EventKind::Operation),
        Just(EventKind::Operation),
        Just(EventKind::Phase),
    ];
    (kind, 0u64..2_000, 0u64..300, 0usize..4).prop_map(|(kind, start, len, name)| {
        Event::new(
            ProcessId(0),
            kind,
            ["alpha", "beta", "gamma", "delta"][name],
            TimeNs::from_nanos(start),
            TimeNs::from_nanos(start + len),
        )
    })
}

/// Like [`arb_full_event`] but spread over several processes — the input
/// space for the grouped-analysis conservation properties.
fn arb_multiproc_full_event() -> impl Strategy<Value = Event> {
    let kind = prop_oneof![
        Just(EventKind::Cpu(CpuCategory::Python)),
        Just(EventKind::Cpu(CpuCategory::Simulator)),
        Just(EventKind::Cpu(CpuCategory::Backend)),
        Just(EventKind::Cpu(CpuCategory::CudaApi)),
        Just(EventKind::Gpu(GpuCategory::Kernel)),
        Just(EventKind::Gpu(GpuCategory::Memcpy)),
        Just(EventKind::Operation),
        Just(EventKind::Operation),
        Just(EventKind::Phase),
        Just(EventKind::Phase),
    ];
    (kind, 0u64..2_000, 0u64..300, 0usize..4, 0u32..3).prop_map(|(kind, start, len, name, pid)| {
        Event::new(
            ProcessId(pid),
            kind,
            ["alpha", "beta", "gamma", "delta"][name],
            TimeNs::from_nanos(start),
            TimeNs::from_nanos(start + len),
        )
    })
}

/// [`arb_multiproc_full_event`], its start moved anywhere in `u64` for
/// two events in three (the end saturating at `u64::MAX`).
fn arb_wide_event() -> impl Strategy<Value = Event> {
    (arb_multiproc_full_event(), 0u64..u64::MAX, 0u32..3).prop_map(|(e, start, keep)| {
        if keep == 0 {
            return e;
        }
        let len = e.end.as_nanos() - e.start.as_nanos();
        let end = TimeNs::from_nanos(start.saturating_add(len));
        Event { start: TimeNs::from_nanos(start), end, ..e }
    })
}

/// Canonical JSON of the queries that read one live view (the merged
/// breakdown; the per-process grouping and every pid filtered out
/// ungrouped), over whatever source `q` builds.
fn live_view_answers<'a>(view: LiveView, q: impl Fn() -> Analysis<'a>) -> Vec<String> {
    let mut queries = Vec::new();
    if view != LiveView::PerProcess {
        queries.push(q().group_by([Dim::Phase, Dim::Operation]));
    }
    if view != LiveView::Merged {
        queries.push(q().group_by([Dim::Process]));
        queries.extend((0..3).map(|pid| q().process(ProcessId(pid))));
    }
    queries.iter().map(|q| q.canonical_json().unwrap()).collect()
}

/// Naive O(n²) reference for the overlap sweep with phase tagging: for
/// every elementary segment between adjacent boundary times, scan all
/// events for the active set and attribute the segment directly from the
/// rules (paper §3.3 and `core::overlap`'s module docs): finest CPU
/// category wins; the innermost operation is the active one that started
/// last, untracked otherwise; the phase is, among open phases whose pid
/// has at least one active CPU/GPU event in the segment, the one that
/// started last, `NO_PHASE` otherwise. "Started last" is max
/// `(start time, event index)`. Groups come in first-appearance order —
/// `NO_PHASE`, then each phase name at its first non-zero-length event —
/// with empty ones dropped.
fn reference_phase_tables(events: &[Event]) -> Vec<(Arc<str>, BreakdownTable)> {
    let mut groups = vec![(Arc::from(NO_PHASE), BreakdownTable::new())];
    for e in events.iter().filter(|e| e.kind == EventKind::Phase && e.start != e.end) {
        if !groups.iter().any(|(name, _)| *name == e.name) {
            groups.push((e.name.clone(), BreakdownTable::new()));
        }
    }
    let mut times: Vec<u64> = events
        .iter()
        .filter(|e| e.start != e.end)
        .flat_map(|e| [e.start.as_nanos(), e.end.as_nanos()])
        .collect();
    times.sort_unstable();
    times.dedup();
    for w in times.windows(2) {
        let (a, b) = (w[0], w[1]);
        let covers =
            |e: &Event| e.start != e.end && e.start.as_nanos() <= a && e.end.as_nanos() >= b;
        let cpu = events
            .iter()
            .filter(|e| covers(e))
            .filter_map(|e| match e.kind {
                EventKind::Cpu(c) => Some(c),
                _ => None,
            })
            .max_by_key(|c| (c.priority(), *c));
        let gpu = events.iter().any(|e| covers(e) && matches!(e.kind, EventKind::Gpu(_)));
        if cpu.is_none() && !gpu {
            continue;
        }
        // Of the scopes of `kind` open over the segment and passing
        // `eligible`, the one pushed last.
        let innermost = |kind: EventKind, eligible: &dyn Fn(&Event) -> bool| {
            events
                .iter()
                .enumerate()
                .filter(|(_, e)| e.kind == kind && covers(e) && eligible(e))
                .max_by_key(|(i, e)| (e.start.as_nanos(), *i))
                .map(|(_, e)| e.name.clone())
        };
        let operation = innermost(EventKind::Operation, &|_| true)
            .unwrap_or_else(|| Arc::from(BucketKey::UNTRACKED));
        let busy = |pid: ProcessId| {
            events.iter().any(|e| {
                e.pid == pid && covers(e) && matches!(e.kind, EventKind::Cpu(_) | EventKind::Gpu(_))
            })
        };
        let phase =
            innermost(EventKind::Phase, &|p| busy(p.pid)).unwrap_or_else(|| Arc::from(NO_PHASE));
        let group = groups.iter_mut().find(|(name, _)| *name == phase).unwrap();
        group.1.add(BucketKey { operation, cpu, gpu }, DurationNs::from_nanos(b - a));
    }
    groups.retain(|(_, table)| !table.is_empty());
    groups
}

/// The phase-blind reference: [`reference_phase_tables`] with the groups
/// merged — phase boundaries only split segments.
fn reference_overlap(events: &[Event]) -> BreakdownTable {
    let mut table = BreakdownTable::new();
    for (_, group) in reference_phase_tables(events) {
        table.merge(&group);
    }
    table
}

/// The window rule, written out independently of the executor: an event
/// that does not intersect `[lo, hi)` is dropped, except an instant
/// inside the window, which is kept for the presence it carries; a
/// CPU/GPU event that stays is clipped to the window, and an operation or
/// phase keeps its own span, so the scopes open inside the window start
/// in the order they did in the stream.
fn clip_to(events: &[Event], lo: u64, hi: u64) -> Vec<Event> {
    let clip = |e: &Event| {
        let (start, end) = (e.start.as_nanos(), e.end.as_nanos());
        let (s, t) = (start.max(lo), end.min(hi));
        let keep = s < t || (start == end && lo <= start && start < hi);
        let scope = matches!(e.kind, EventKind::Operation | EventKind::Phase);
        let (s, t) = if scope { (start, end) } else { (s, t) };
        keep.then(|| Event {
            start: TimeNs::from_nanos(s),
            end: TimeNs::from_nanos(t),
            ..e.clone()
        })
    };
    events.iter().filter_map(clip).collect()
}

/// `events` split by pid, in first-seen pid order.
fn split_by_pid(events: &[Event]) -> Vec<(ProcessId, Vec<Event>)> {
    let mut out: Vec<(ProcessId, Vec<Event>)> = Vec::new();
    for e in events {
        match out.iter_mut().find(|(pid, _)| *pid == e.pid) {
            Some((_, own)) => own.push(e.clone()),
            None => out.push((e.pid, vec![e.clone()])),
        }
    }
    out
}

/// A profiler-shaped multi-process stream, near-sorted and interleaved
/// on a coarse grid: `pids` processes take turns, the one furthest
/// behind running its next operation (ties to the lowest pid). Each
/// operation in `ops` is `(children, first kind, length, gap)`: its CPU/GPU
/// children run back to back and are recorded as they close — a CUDA
/// call before the backend call around it, a kernel running on past
/// the operation — and the operation after them. Every
/// `phase_every`-th operation of a process closes that process's phase,
/// recorded then, its start far behind. Every time is a multiple of 10
/// ns and every process starts at 0, so starts of different pids and
/// kinds tie all the time.
fn session_shaped(pids: usize, ops: &[(usize, usize, u64, u64)], phase_every: usize) -> Vec<Event> {
    let kinds = [
        EventKind::Cpu(CpuCategory::Python),
        EventKind::Cpu(CpuCategory::Simulator),
        EventKind::Gpu(GpuCategory::Kernel),
        EventKind::Gpu(GpuCategory::Memcpy),
        EventKind::Cpu(CpuCategory::Backend),
    ];
    let (mut cursor, mut done, mut phase_start) = (vec![0; pids], vec![0; pids], vec![0; pids]);
    let mut out = Vec::new();
    let span = |p: usize, kind, name: &str, start: u64, end: u64| {
        Event::new(
            ProcessId(p as u32),
            kind,
            name,
            TimeNs::from_nanos(start * 10),
            TimeNs::from_nanos(end * 10),
        )
    };
    for &(children, first, len, gap) in ops {
        let p = (0..pids).min_by_key(|&p| cursor[p]).unwrap();
        let mut t = cursor[p];
        for kind in (first..first + children).map(|k| kinds[k % kinds.len()].clone()) {
            let end = t + len;
            match kind {
                EventKind::Cpu(CpuCategory::Backend) if len > 2 => {
                    let api = EventKind::Cpu(CpuCategory::CudaApi);
                    out.push(span(p, api, "launch", t + 1, end - 1));
                    out.push(span(p, kind, "mm", t, end));
                }
                EventKind::Gpu(_) => out.push(span(p, kind, "k", t, end + len)),
                _ => out.push(span(p, kind, "cpu", t, end)),
            }
            t = end + gap;
        }
        let op = ["alpha", "beta", "gamma"][(first + p) % 3];
        out.push(span(p, EventKind::Operation, op, cursor[p], t));
        cursor[p] = t + gap;
        done[p] += 1;
        if done[p] % phase_every == 0 {
            let phase = ["beta", "delta"][done[p] / phase_every % 2];
            out.push(span(p, EventKind::Phase, phase, phase_start[p], cursor[p]));
            phase_start[p] = cursor[p];
        }
    }
    out
}

/// Pushes `events` into `sweep` cut into chunks of the cycled lengths.
fn push_in_splits(sweep: &mut OverlapSweep, events: &[Event], chunk_lens: &[usize]) {
    let mut rest = events;
    let mut cuts = chunk_lens.iter().cycle();
    while !rest.is_empty() {
        let take = (*cuts.next().unwrap()).min(rest.len());
        sweep.push_batch(&rest[..take]).unwrap();
        rest = &rest[take..];
    }
}

/// Union length of a set of intervals.
fn union_len(mut ivs: Vec<(u64, u64)>) -> u64 {
    ivs.sort();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in ivs {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                let _ = cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// A directory query big enough that its sort and drain use the decode
/// stage's worker count answers byte for byte as the one-thread
/// in-memory analysis of the same stream: merged, windowed and per
/// process. Each process's only phase closes with its last operation,
/// so the release frontier stays at zero until the last chunks and the
/// final drain takes about 140 k boundaries at once, over the fan-out
/// minimum (64 Ki). Pinned to one CPU, both sides run on one thread.
#[test]
fn fanned_out_chunk_dir_query_matches_one_thread() {
    let ops: Vec<_> =
        (0..12_000).map(|i| (1 + i % 7, i % 5, 3 + (i % 4) as u64, (i % 3) as u64)).collect();
    let events = session_shaped(4, &ops, 3_000);
    assert!(events.len() > 64 * 1024 / 2, "{} events", events.len());
    let dir = std::env::temp_dir().join(format!("rlscope_prop_fanout_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = TraceWriter::create(&dir, 1).unwrap(); // one chunk per batch
    for chunk in events.chunks(8192) {
        writer.write(chunk.to_vec());
    }
    writer.finish().unwrap();
    let end = TimeNs::from_nanos(events.iter().map(|e| e.end.as_nanos()).max().unwrap() + 1);
    type Shape = fn(Analysis<'_>, TimeNs) -> Analysis<'_>;
    let queries: [(&str, Shape); 3] = [
        ("by phase and operation", |q, _| q.group_by([Dim::Phase, Dim::Operation])),
        ("windowed", |q, end| {
            q.time_window(TimeNs::ZERO, end).group_by([Dim::Phase, Dim::Operation])
        }),
        ("by process", |q, _| q.group_by([Dim::Process])),
    ];
    for (what, shape) in queries {
        assert_eq!(
            shape(Analysis::from_chunk_dir(&dir), end).canonical_json().unwrap(),
            shape(Analysis::of_events(&events), end).canonical_json().unwrap(),
            "{what}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A finished undeclared session of four interleaved processes seals
/// byte for byte as one thread reads it and as the in-memory analysis
/// of the same stream. Its whole log is pending at the seal — about
/// 70 k starts and as many ends, each queue over the side-by-side sort
/// minimum (16 Ki), and a final drain of about 140 k boundaries, over
/// the slicing minimum (64 Ki) — so on two or more CPUs the seal sorts
/// and drains on two threads. A snapshot keeps one thread: it is the
/// serial answer, taken from a copy made before the seal sorted
/// anything. Pinned to one CPU, the seal runs on one thread too.
#[test]
fn fanned_out_seal_matches_one_thread_and_batch() {
    let ops: Vec<_> =
        (0..12_000).map(|i| (1 + i % 7, i % 5, 3 + (i % 4) as u64, (i % 3) as u64)).collect();
    let events = session_shaped(4, &ops, 3_000);
    assert!(events.len() > 64 * 1024 / 2, "{} events", events.len());
    let mut live = LiveState::new();
    for chunk in events.chunks(8192) {
        live.push_columns(&EventColumns::from_events(chunk)).unwrap();
    }
    let sealed = live.clone().seal();
    let serial = live.snapshot_view(LiveView::Merged);
    assert_eq!(sealed.events_observed(), events.len() as u64);
    let shapes: [&[Dim]; 3] = [&[Dim::Phase, Dim::Operation], &[Dim::Operation], &[]];
    for dims in shapes {
        let answer = |q: Analysis<'_>| q.group_by(dims.iter().copied()).canonical_json().unwrap();
        let batch = answer(Analysis::of_events(&events));
        assert_eq!(answer(Analysis::of_live(&sealed)), batch, "{dims:?}");
        assert_eq!(answer(Analysis::of_live(&serial)), batch, "{dims:?}");
    }
}

/// Records each batch a profiler emits with its declaration.
#[derive(Default)]
struct CutSink(std::sync::Mutex<Vec<(Vec<Event>, Option<Cut>)>>);

impl EventSink for CutSink {
    fn emit(&self, events: Vec<Event>) {
        let cut = cut_of(&events);
        self.0.lock().unwrap().push((events, cut));
    }
}

/// Runs a real [`Profiler`] over a scripted program — operation opens
/// and closes (same-instant opens when `annotation_cost` and the step
/// are 0), phase switches, Python spans, native calls that launch
/// kernels or step a simulator, device syncs — streaming every `flush`
/// events, and returns each batch with its declaration and the finished
/// trace's events.
fn declared_run(
    program: &[(u8, usize, u64)],
    flush: usize,
    annotation_cost: u64,
    py_interception: bool,
) -> (Vec<(Vec<Event>, Cut)>, Vec<Event>) {
    use rlscope::sim::cuda::{CudaContext, CudaCostConfig};
    use rlscope::sim::gpu::{GpuDevice, KernelDesc};
    use rlscope::sim::hooks::NativeLib;
    use rlscope::sim::python::{PyCostConfig, PyRuntime};
    use rlscope::sim::VirtualClock;

    let clock = VirtualClock::new();
    let toggles = Toggles {
        annotations: annotation_cost > 0,
        py_interception,
        cuda_interception: py_interception,
        cupti: true,
    };
    let config = ProfilerConfig {
        annotation_cost: DurationNs::from_nanos(annotation_cost),
        toggles,
        ..ProfilerConfig::default()
    };
    let rls = Profiler::new(clock.clone(), config);
    let mut py = PyRuntime::new(clock.clone(), PyCostConfig::default());
    let mut cuda = CudaContext::new(clock.clone(), GpuDevice::new(2), CudaCostConfig::default());
    rls.attach(&mut py, &mut cuda);
    let sink = Arc::new(CutSink::default());
    rls.stream_to(sink.clone(), flush);
    let names = ["alpha", "beta", "gamma"];
    let mut guards = Vec::new();
    for &(action, name, step) in program {
        let d = DurationNs::from_nanos(step * 700);
        match action {
            0 | 1 => guards.push(rls.operation(names[name])),
            2 => drop(guards.pop()),
            3 => rls.set_phase(names[name]),
            4 => py.exec(d),
            5 => py.call_native(NativeLib::Backend, || {
                clock.advance(d);
                let stream = cuda.default_stream();
                cuda.launch_kernel(stream, KernelDesc::new(names[name], d * 3));
            }),
            6 => py.call_native(NativeLib::Simulator, || {
                clock.advance(d);
            }),
            _ => cuda.device_synchronize(),
        }
    }
    while let Some(guard) = guards.pop() {
        drop(guard);
    }
    let trace = rls.finish();
    let batches = std::mem::take(&mut *sink.0.lock().unwrap());
    let batches = batches.into_iter().map(|(b, cut)| (b, cut.expect("every batch declared")));
    (batches.collect(), trace.events)
}

proptest! {
    /// Conservation: the sweep attributes exactly the union of all
    /// instrumented intervals — no time invented, none lost.
    #[test]
    fn overlap_conserves_time(events in prop::collection::vec(arb_event(), 0..60)) {
        let table = compute_overlap(&events);
        let union = union_len(
            events.iter().map(|e| (e.start.as_nanos(), e.end.as_nanos())).collect(),
        );
        prop_assert_eq!(table.total().as_nanos(), union);
    }

    /// No single bucket can exceed the total.
    #[test]
    fn no_bucket_exceeds_total(events in prop::collection::vec(arb_event(), 1..40)) {
        let table = compute_overlap(&events);
        let total = table.total();
        for (_, d) in table.iter() {
            prop_assert!(d <= total);
        }
    }

    /// The overlap engine agrees bucket-for-bucket with a naive O(n²)
    /// reference on arbitrary event sets, including nested / interleaved
    /// / duplicate-name operation annotations.
    #[test]
    fn overlap_matches_naive_reference(
        events in prop::collection::vec(arb_full_event(), 0..60),
    ) {
        let fast = compute_overlap(&events);
        let reference = reference_overlap(&events);
        prop_assert_eq!(&fast, &reference);
        // Conservation: attributed time equals the union length of the
        // instrumented (CPU/GPU) intervals.
        let union = union_len(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Cpu(_) | EventKind::Gpu(_)))
                .map(|e| (e.start.as_nanos(), e.end.as_nanos()))
                .collect(),
        );
        prop_assert_eq!(fast.total().as_nanos(), union);
    }

    /// Phase-tagged attribution — per-pid phase eligibility, innermost
    /// by activation, group order, empty groups dropped — agrees with
    /// the naive reference on arbitrary multi-process event sets, fed in
    /// one in-memory push and over arbitrary chunk splits.
    #[test]
    fn phase_tagged_overlap_matches_naive_reference(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
        chunk_lens in prop::collection::vec(1usize..12, 1..12),
    ) {
        let reference = reference_phase_tables(&events);
        let by_phase = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
        let by_phase: Vec<(Arc<str>, BreakdownTable)> =
            by_phase.into_iter().map(|(key, table)| (key.phase.unwrap(), table)).collect();
        prop_assert_eq!(&by_phase, &reference);
        let mut sweep = OverlapSweep::new().with_phase_tagging();
        push_in_splits(&mut sweep, &events, &chunk_lens);
        prop_assert_eq!(&sweep.finalize_grouped(), &reference);
    }

    /// The sweep fed over **arbitrary chunk splits** of an arbitrary
    /// event stream is bucket-for-bucket equal to one in-memory push of
    /// the concatenation (`compute_overlap`) — and to the naive
    /// reference, so the two sides cannot drift together.
    #[test]
    fn streaming_sweep_matches_batch_on_arbitrary_splits(
        events in prop::collection::vec(arb_full_event(), 0..60),
        chunk_lens in prop::collection::vec(1usize..12, 1..12),
    ) {
        let mut sweep = OverlapSweep::new();
        push_in_splits(&mut sweep, &events, &chunk_lens);
        let split = sweep.finalize();
        prop_assert_eq!(&split, &compute_overlap(&events));
        prop_assert_eq!(&split, &reference_overlap(&events));
    }

    /// The row and column instantiations of the sweep's push path
    /// produce canonically identical tables: `compute_overlap_columns`
    /// over one chunk, and chunked `push_columns` over arbitrary splits,
    /// versus `compute_overlap` over the concatenated rows.
    #[test]
    fn columnar_sweep_matches_batch_canonical_json(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
        chunk_lens in prop::collection::vec(1usize..12, 1..12),
    ) {
        let batch = compute_overlap(&events);
        let cols = EventColumns::from_events(&events);
        prop_assert_eq!(compute_overlap_columns(&cols).canonical_json(), batch.canonical_json());

        let mut sweep = OverlapSweep::new();
        let mut rest: &[Event] = &events;
        let mut cuts = chunk_lens.iter().cycle();
        while !rest.is_empty() {
            let take = (*cuts.next().unwrap()).min(rest.len());
            sweep.push_columns(&EventColumns::from_events(&rest[..take])).unwrap();
            rest = &rest[take..];
        }
        prop_assert_eq!(sweep.finalize().canonical_json(), batch.canonical_json());
    }

    /// On start-sorted streams a sweep released to the start of whatever
    /// comes next — after every batch, however the stream is cut — never
    /// rejects, never holds more than twice the boundaries that had to
    /// stay open past some frontier so far (draining is amortised), and
    /// still equals the table of one in-memory push.
    #[test]
    fn bounded_sweep_matches_batch_on_sorted_streams(
        unsorted in prop::collection::vec(arb_full_event(), 0..60),
        chunk_lens in prop::collection::vec(1usize..12, 1..12),
    ) {
        let mut events = unsorted;
        events.sort_by_key(|e| e.start);
        let batch = compute_overlap(&events);
        let mut sweep = OverlapSweep::new();
        let (mut fed, mut cuts, mut most_open) = (0, chunk_lens.iter().cycle(), 0);
        while fed < events.len() {
            let upto = events.len().min(fed + cuts.next().unwrap());
            sweep.push_batch(&events[fed..upto]).unwrap();
            fed = upto;
            let frontier = events.get(fed).map_or(u64::MAX, |e| e.start.as_nanos());
            sweep.release_to(frontier);
            let open = events[..fed].iter().filter(|e| {
                e.kind != EventKind::Phase && e.start != e.end && e.end.as_nanos() > frontier
            });
            most_open = most_open.max(open.count());
            prop_assert!(sweep.pending_boundaries() <= 2 * most_open);
        }
        prop_assert_eq!(sweep.finalize(), batch);
    }

    /// Conservation of the phase dimension: tables grouped by phase merge
    /// back to the ungrouped overall table bucket for bucket, and each
    /// phase filter reproduces exactly its group — phase boundaries split
    /// segments but never move time.
    #[test]
    fn phase_grouping_conserves_tables(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
    ) {
        let overall = Analysis::of_events(&events).table().unwrap();
        let by_phase = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
        let mut merged = BreakdownTable::new();
        for (_, t) in &by_phase {
            merged.merge(t);
        }
        prop_assert_eq!(&merged, &overall);
        for (key, table) in &by_phase {
            let name = key.phase.clone().unwrap();
            let filtered = Analysis::of_events(&events).phase(&name).table().unwrap();
            prop_assert_eq!(&filtered, table);
        }
    }

    /// Conservation of the process dimension: per-process groups sum to
    /// the per-process merged table, and each group equals an independent
    /// filter-and-clone in-memory sweep.
    #[test]
    fn process_grouping_conserves_tables(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
    ) {
        let groups = Analysis::of_events(&events).group_by([Dim::Process]).tables().unwrap();
        let merged = Analysis::of_events(&events).group_by([Dim::Process]).table().unwrap();
        let group_sum: DurationNs = groups.iter().map(|(_, t)| t.total()).sum();
        prop_assert_eq!(merged.total(), group_sum);
        for (key, table) in &groups {
            let pid = key.process.unwrap();
            let filtered: Vec<Event> =
                events.iter().filter(|e| e.pid == pid).cloned().collect();
            prop_assert_eq!(table, &compute_overlap(&filtered));
            prop_assert_eq!(
                table,
                &Analysis::of_events(&events).process(pid).table().unwrap()
            );
        }
        // The phase × process cross product conserves the same total.
        let cross = Analysis::of_events(&events)
            .group_by([Dim::Phase, Dim::Process])
            .tables()
            .unwrap();
        let cross_sum: DurationNs = cross.iter().map(|(_, t)| t.total()).sum();
        prop_assert_eq!(cross_sum, group_sum);
    }

    /// The streamed chunk-dir pipeline produces group-for-group identical
    /// phase/process tables to the batch pipeline.
    #[test]
    fn streamed_grouping_matches_batch(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..40),
        chunk_len in 1usize..16,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rlscope_prop_stream_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 256).unwrap();
        for chunk in events.chunks(chunk_len) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();

        let batch_phase = Analysis::of_events(&events).group_by([Dim::Phase]).tables().unwrap();
        let streamed_phase =
            Analysis::from_chunk_dir(&dir).group_by([Dim::Phase]).tables().unwrap();
        prop_assert_eq!(streamed_phase, batch_phase);

        let batch_proc =
            Analysis::of_events(&events).group_by([Dim::Process]).tables().unwrap();
        let streamed_proc =
            Analysis::from_chunk_dir(&dir).group_by([Dim::Process]).tables().unwrap();
        prop_assert_eq!(streamed_proc, batch_proc);

        let batch_cross = Analysis::of_events(&events)
            .group_by([Dim::Phase, Dim::Process])
            .tables()
            .unwrap();
        let streamed_cross = Analysis::from_chunk_dir(&dir)
            .group_by([Dim::Phase, Dim::Process])
            .tables()
            .unwrap();
        prop_assert_eq!(streamed_cross, batch_cross);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The binary trace codec is lossless for arbitrary event streams in
    /// every wire format (the legacy v1/v2 included): the one parser
    /// plus the row bridge reproduces the encoded rows exactly (pid,
    /// kind, name, start, end — same order), and `from_events`
    /// round-trips without the wire. Starts range over all of `u64`, so
    /// v3 start deltas wrap across the `i64` sign boundary, and the
    /// library writes v3 whatever the starts.
    #[test]
    fn codec_round_trips(
        events in prop::collection::vec(arb_wide_event(), 0..80),
    ) {
        let v3 = encode_events(&events);
        prop_assert_eq!(&v3[..8], b"RLSCOPE3");
        for encoded in [v3.to_vec(), encode_legacy_v2(&events), encode_legacy_v1(&events)] {
            let cols = decode_columns(&encoded).unwrap();
            prop_assert_eq!(cols.len(), events.len());
            prop_assert_eq!(&cols.to_events().unwrap(), &events);
            prop_assert_eq!(&decode_events(&encoded).unwrap(), &events);
        }
        prop_assert_eq!(&EventColumns::from_events(&events).to_events().unwrap(), &events);
    }

    /// Chunk footers and the directory manifest round-trip exactly:
    /// writing a directory, reopening it, and re-scanning its chunks all
    /// agree footer-for-footer — so every pushdown decision made from the
    /// stored manifest equals the one a full scan would make.
    #[test]
    fn footer_and_manifest_round_trip_with_identical_pushdown(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
        chunk_len in 1usize..16,
        lo in 0u64..3_000,
        len in 0u64..3_000,
        pid in 0u32..4,
    ) {
        use rlscope::core::store::{
            compute_footer, compute_footer_columns, decode_columns, read_chunk_footer, ChunkQuery,
            Manifest, ManifestEntry,
        };

        // The on-wire footer equals the recomputed one.
        let encoded = encode_events(&events);
        let footer = read_chunk_footer(&encoded).unwrap().expect("v3 chunk has a footer");
        prop_assert_eq!(&footer, &compute_footer(&events));

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rlscope_prop_manifest_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 256).unwrap();
        for chunk in events.chunks(chunk_len) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();

        // The index read off the chunks' tails equals one built by
        // decoding every chunk in full.
        let stored = Manifest::open(&dir).unwrap();
        let decoded = stored
            .entries()
            .iter()
            .map(|e| {
                let data = std::fs::read(dir.join(&e.file)).unwrap();
                let footer = compute_footer_columns(&decode_columns(&data).unwrap());
                ManifestEntry { file: e.file.clone(), size: data.len() as u64, footer }
            })
            .collect();
        let scanned = Manifest::from_entries(&dir, decoded);
        prop_assert_eq!(&stored, &scanned);

        // A "legacy" manifest whose footers predate per-phase pid sets:
        // clearing every span's pid set reproduces the conservative
        // pre-pid reader behaviour (empty = unknown = any pid).
        let legacy_entries: Vec<ManifestEntry> = stored
            .entries()
            .iter()
            .cloned()
            .map(|mut e| {
                for span in &mut e.footer.phases {
                    span.pids.clear();
                }
                e
            })
            .collect();
        let legacy = Manifest::from_entries(&dir, legacy_entries);

        // Identical pushdown decisions from the file and from the scan,
        // and the decisions are safe: skipped chunks hold nothing the
        // query could attribute. Against the legacy manifest the
        // pid-aware decisions must be identical-or-safer: the pid
        // refinement may only *add* skips (a subset of the conservative
        // selection), never select a chunk the old reader would skip.
        for query in [
            ChunkQuery { window: Some((lo, lo + len)), ..Default::default() },
            ChunkQuery { pid: Some(pid), ..Default::default() },
            ChunkQuery { phase: Some(std::sync::Arc::from("alpha")), ..Default::default() },
            ChunkQuery {
                pid: Some(pid),
                phase: Some(std::sync::Arc::from("alpha")),
                ..Default::default()
            },
            ChunkQuery {
                pid: Some(pid),
                phase: Some(std::sync::Arc::from("beta")),
                keep_pid_introductions: true,
                ..Default::default()
            },
            ChunkQuery {
                window: Some((lo, lo + len)),
                pid: Some(pid),
                phase: Some(std::sync::Arc::from("delta")),
                keep_pid_introductions: true,
            },
        ] {
            let a = stored.select(&query);
            let b = scanned.select(&query);
            prop_assert_eq!(&a, &b);
            let conservative = legacy.select(&query);
            prop_assert!(
                a.iter().all(|e| conservative.iter().any(|c| c.file == e.file)),
                "pid-aware selection must be a subset of the legacy conservative one",
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Manifest-pushdown queries (window, process, phase) are
    /// table-identical to the same query over the raw in-memory events —
    /// skipping chunks must never change a result. Both answers share the
    /// executor's filter, clip and slot code, so the in-memory answers
    /// are also checked against the naive reference over events filtered
    /// and clipped here.
    #[test]
    fn pushdown_queries_match_batch(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
        chunk_len in 1usize..12,
        lo in 0u64..2_500,
        len in 1u64..2_500,
        pid in 0u32..4,
    ) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rlscope_prop_pushdown_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 64).unwrap();
        for chunk in events.chunks(chunk_len) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();

        let (wlo, whi) = (TimeNs::from_nanos(lo), TimeNs::from_nanos(lo + len));
        prop_assert_eq!(
            Analysis::from_chunk_dir(&dir).time_window(wlo, whi).table().unwrap(),
            Analysis::of_events(&events).time_window(wlo, whi).table().unwrap()
        );
        prop_assert_eq!(
            Analysis::from_chunk_dir(&dir).process(ProcessId(pid)).table().unwrap(),
            Analysis::of_events(&events).process(ProcessId(pid)).table().unwrap()
        );
        prop_assert_eq!(
            Analysis::from_chunk_dir(&dir).phase("beta").table().unwrap(),
            Analysis::of_events(&events).phase("beta").table().unwrap()
        );
        // Phase + process combined — the case the per-phase pid sets
        // refine — and phase + process *grouping*, which exercises the
        // lifted pushdown carve-out (group enumeration must survive the
        // extra skips via the kept pid-introduction chunks).
        prop_assert_eq!(
            Analysis::from_chunk_dir(&dir)
                .phase("beta")
                .process(ProcessId(pid))
                .table()
                .unwrap(),
            Analysis::of_events(&events)
                .phase("beta")
                .process(ProcessId(pid))
                .table()
                .unwrap()
        );
        prop_assert_eq!(
            Analysis::from_chunk_dir(&dir)
                .phase("beta")
                .group_by([Dim::Process])
                .tables()
                .unwrap(),
            Analysis::of_events(&events)
                .phase("beta")
                .group_by([Dim::Process])
                .tables()
                .unwrap()
        );

        let clipped = clip_to(&events, lo, lo + len);
        prop_assert_eq!(
            Analysis::of_events(&events).time_window(wlo, whi).table().unwrap(),
            reference_overlap(&clipped)
        );
        let own: Vec<Event> = events.iter().filter(|e| e.pid == ProcessId(pid)).cloned().collect();
        prop_assert_eq!(
            Analysis::of_events(&events).process(ProcessId(pid)).table().unwrap(),
            reference_overlap(&own)
        );
        // One group per pid present in the window (an instant makes a pid
        // present), then one per non-empty phase of that pid's own sweep.
        let by_pid = split_by_pid(&clipped);
        let grouped = |dims: &[Dim]| -> Vec<(Option<ProcessId>, Option<Arc<str>>, BreakdownTable)> {
            let q = Analysis::of_events(&events).time_window(wlo, whi).group_by(dims.to_vec());
            q.tables().unwrap().into_iter().map(|(k, t)| (k.process, k.phase, t)).collect()
        };
        let expected: Vec<_> =
            by_pid.iter().map(|(p, own)| (Some(*p), None, reference_overlap(own))).collect();
        prop_assert_eq!(grouped(&[Dim::Process]), expected);
        let expected: Vec<_> = by_pid
            .iter()
            .flat_map(|(p, own)| {
                reference_phase_tables(own).into_iter().map(|(phase, t)| (Some(*p), Some(phase), t))
            })
            .collect();
        prop_assert_eq!(grouped(&[Dim::Process, Dim::Phase]), expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Conservation of the session dimension: `Dim::Session` grouped
    /// tables over a multi-session composition merge back to the
    /// ungrouped cross-session rollup bucket for bucket, each group is
    /// exactly its session's independent in-memory sweep, and a live
    /// snapshot source answers identically to the same session's
    /// finished chunk directory.
    #[test]
    fn session_grouping_conserves_tables(
        a in prop::collection::vec(arb_multiproc_full_event(), 0..40),
        b in prop::collection::vec(arb_multiproc_full_event(), 0..40),
        chunk_len in 1usize..12,
    ) {
        use rlscope::core::analysis::{LiveState, SessionSource};

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir_a = std::env::temp_dir().join(format!(
            "rlscope_prop_sess_a_{}_{case}", std::process::id()
        ));
        let dir_b = std::env::temp_dir().join(format!(
            "rlscope_prop_sess_b_{}_{case}", std::process::id()
        ));
        for (dir, events) in [(&dir_a, &a), (&dir_b, &b)] {
            let _ = std::fs::remove_dir_all(dir);
            let writer = TraceWriter::create(dir, 128).unwrap();
            for chunk in events.chunks(chunk_len) {
                writer.write(chunk.to_vec());
            }
            writer.finish().unwrap();
        }
        let sessions = || {
            vec![
                (Arc::<str>::from("a"), SessionSource::ChunkDir(dir_a.clone())),
                (Arc::<str>::from("b"), SessionSource::ChunkDir(dir_b.clone())),
            ]
        };

        // Grouped tables merge back to the ungrouped cross-session
        // rollup, bucket for bucket (so totals conserve too).
        let grouped =
            Analysis::of_sessions(sessions()).group_by([Dim::Session]).tables().unwrap();
        let ungrouped = Analysis::of_sessions(sessions()).table().unwrap();
        let mut merged = BreakdownTable::new();
        for (_, t) in &grouped {
            merged.merge(t);
        }
        prop_assert_eq!(&merged, &ungrouped);

        // Each group is exactly its session's independent in-memory sweep.
        for (key, table) in &grouped {
            let name = key.session.clone().expect("session groups carry the session name");
            prop_assert!(matches!(&*name, "a" | "b"), "unexpected session group {}", name);
            let events: &[Event] = if &*name == "a" { &a } else { &b };
            prop_assert_eq!(table, &Analysis::of_events(events).table().unwrap());
        }

        // A live snapshot source for one of the sessions answers
        // group-for-group identically to its finished chunk directory.
        let mut live = LiveState::new();
        for chunk in b.chunks(chunk_len) {
            live.push_columns(&EventColumns::from_events(chunk)).unwrap();
        }
        let tables = live.snapshot();
        let mixed = vec![
            (Arc::<str>::from("a"), SessionSource::ChunkDir(dir_a.clone())),
            (Arc::<str>::from("b"), SessionSource::Live(&tables)),
        ];
        let live_grouped =
            Analysis::of_sessions(mixed).group_by([Dim::Session]).tables().unwrap();
        prop_assert_eq!(live_grouped, grouped);

        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    /// Live snapshots sort the live sweeps in place, resume their drain
    /// from a checkpoint of the previous one, and take only the view
    /// asked for — none of which may be observable. A multi-pid stream
    /// on a coarse time grid (so equal timestamps abound) is pushed in
    /// random-size chunks with a snapshot of a random view after each,
    /// under a checkpoint spacing of one to three boundaries so that a
    /// few dozen events resume and roll back for real. `shape` picks the
    /// order — arbitrary (a snapshot rolls back far) or by close time,
    /// the profiler's (it resumes near the end) — whether the first
    /// third of the stream is one process under one name, so that new
    /// operation and phase names and the second pid (which promotes the
    /// merged sweep by cloning the first process's, ladder included)
    /// first appear after checkpoints exist, and whether a whole-run
    /// phase arrives last. Every snapshot equals the batch analysis of
    /// exactly that prefix, a repeated snapshot is identical, and the
    /// state snapshotted after every chunk ends up answering as one that
    /// never was.
    #[test]
    fn live_snapshots_of_any_view_match_batch_at_every_prefix(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..80),
        steps in prop::collection::vec((1usize..16, 0usize..3), 1..8),
        spacing in 1usize..4,
        shape in 0usize..8,
    ) {
        use rlscope::core::analysis::{LiveState, LiveTables};

        let (close_ordered, late_names, whole_run_phase) =
            (shape & 1 != 0, shape & 2 != 0, shape & 4 != 0);
        let mut events: Vec<Event> = events
            .into_iter()
            .map(|mut e| {
                let grid = |t: TimeNs| TimeNs::from_nanos(t.as_nanos() / 50 * 50);
                (e.start, e.end) = (grid(e.start), grid(e.end));
                e
            })
            .collect();
        if close_ordered {
            events.sort_by_key(|e| e.end);
        }
        if late_names {
            let third = events.len() / 3;
            for e in &mut events[..third] {
                (e.pid, e.name) = (ProcessId(0), Arc::from("alpha"));
            }
        }
        if whole_run_phase {
            let end = events.iter().map(|e| e.end).max().unwrap_or(TimeNs::from_nanos(50));
            events.push(Event::new(ProcessId(0), EventKind::Phase, "run", TimeNs::ZERO, end));
        }
        let live_answers = |view: LiveView, tables: &LiveTables| {
            live_view_answers(view, || Analysis::of_live(tables))
        };

        let mut snapshotted = LiveState::with_checkpoint_spacing(spacing);
        let mut untouched = LiveState::new();
        let mut fed = 0;
        for &(len, view) in steps.iter().cycle() {
            if fed == events.len() {
                break;
            }
            let chunk = EventColumns::from_events(&events[fed..events.len().min(fed + len)]);
            fed += chunk.len();
            snapshotted.push_columns(&chunk).unwrap();
            untouched.push_columns(&chunk).unwrap();
            let view = [LiveView::Merged, LiveView::PerProcess, LiveView::Both][view];
            let tables = snapshotted.snapshot_view(view);
            prop_assert_eq!(tables.events_observed(), fed as u64);
            let batch = live_view_answers(view, || Analysis::of_events(&events[..fed]));
            prop_assert_eq!(&live_answers(view, &tables), &batch, "{:?} at {}", view, fed);
            let again = snapshotted.snapshot_view(view);
            prop_assert_eq!(&live_answers(view, &again), &batch, "{:?} again at {}", view, fed);
        }
        prop_assert_eq!(
            live_answers(LiveView::Both, &snapshotted.snapshot()),
            live_answers(LiveView::Both, &untouched.snapshot())
        );
    }

    /// The boundary sort repairs one producer's tail and bucket-sorts
    /// several producers'; a drain keeps the phase tag's winning phase
    /// and weighs each pid going busy against it, rescanning only when
    /// the winner's pid goes idle or a phase opens or closes. On a
    /// profiler-shaped stream of one to eight processes whose starts tie
    /// across pids and kinds, phase-grouped and plain answers equal the
    /// naive reference in memory, through a raw chunk directory whose
    /// sweeps are released behind the footers' frontier, and through a
    /// live session after every chunk (resuming from checkpoints one to
    /// three boundaries apart).
    #[test]
    fn session_shaped_streams_match_reference_everywhere(
        pids in 1usize..9,
        ops in prop::collection::vec((1usize..4, 0usize..5, 1u64..6, 0u64..3), 1..100),
        phase_every in 2usize..6,
        chunk_lens in prop::collection::vec(8usize..40, 1..6),
        spacing in 1usize..4,
    ) {
        use rlscope::core::analysis::LiveState;

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let events = session_shaped(pids, &ops, phase_every);
        let by_phase = |q: Analysis<'_>| -> Vec<(Arc<str>, BreakdownTable)> {
            let tables = q.group_by([Dim::Phase]).tables().unwrap();
            tables.into_iter().map(|(key, table)| (key.phase.unwrap(), table)).collect()
        };
        let reference = reference_phase_tables(&events);
        prop_assert_eq!(&by_phase(Analysis::of_events(&events)), &reference);
        prop_assert_eq!(
            &Analysis::of_events(&events).table().unwrap(),
            &reference_overlap(&events)
        );

        let dir = std::env::temp_dir().join(format!(
            "rlscope_prop_sessions_{}_{}", std::process::id(), CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceWriter::create(&dir, 1).unwrap(); // one chunk per batch
        let mut live = LiveState::with_checkpoint_spacing(spacing);
        let (mut fed, mut cuts) = (0, chunk_lens.iter().cycle());
        while fed < events.len() {
            let chunk = &events[fed..events.len().min(fed + cuts.next().unwrap())];
            fed += chunk.len();
            writer.write(chunk.to_vec());
            live.push_columns(&EventColumns::from_events(chunk)).unwrap();
            let tables = live.snapshot_view(LiveView::Merged);
            prop_assert_eq!(
                &by_phase(Analysis::of_live(&tables)),
                &reference_phase_tables(&events[..fed]),
                "live after {} events", fed
            );
        }
        writer.finish().unwrap();
        prop_assert_eq!(&by_phase(Analysis::from_chunk_dir(&dir)), &reference);
        prop_assert_eq!(
            &Analysis::from_chunk_dir(&dir).table().unwrap(),
            &reference_overlap(&events)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A real profiler streaming through the declared path — every batch
    /// encoded with its declaration, decoded, pushed into a live
    /// session that is released to each frontier — answers like the
    /// batch analysis. After every chunk, both views equal
    /// `Analysis::of_events` over the emitted prefix plus the declared
    /// scopes closed at the cut (also after the release); the seal
    /// equals the analysis of the whole trace in canonical JSON; and
    /// every declaration holds: no later event starts before its
    /// frontier unless it closes a scope it declared open.
    #[test]
    fn declared_streams_match_batch_after_every_chunk(
        program in prop::collection::vec((0u8..8, 0usize..3, 0u64..4), 1..120),
        flush in 1usize..24,
        annotation_cost in prop_oneof![Just(0u64), Just(600u64)],
        py_interception in prop_oneof![Just(false), Just(true)],
    ) {
        use rlscope::core::analysis::LiveState;

        let (batches, events) = declared_run(&program, flush, annotation_cost, py_interception);
        let mut live = LiveState::new();
        let mut prefix: Vec<Event> = Vec::new();
        for (k, (batch, cut)) in batches.iter().enumerate() {
            let cols = decode_columns(&encode_declared(batch, cut)).unwrap();
            prop_assert_eq!(cols.cut.as_ref(), Some(cut));
            live.push_columns(&cols).unwrap();
            prefix.extend(batch.iter().cloned());
            let mut closed = prefix.clone();
            closed.extend(cut.closing_events());
            let want = live_view_answers(LiveView::Both, || Analysis::of_events(&closed));
            let tables = live.snapshot();
            prop_assert_eq!(tables.events_observed(), prefix.len() as u64);
            let got = live_view_answers(LiveView::Both, || Analysis::of_live(&tables));
            prop_assert_eq!(&got, &want, "after chunk {}", k);
            live.release();
            let tables = live.snapshot();
            let got = live_view_answers(LiveView::Both, || Analysis::of_live(&tables));
            prop_assert_eq!(&got, &want, "after chunk {} released", k);

            let mut declared = cut.open.clone();
            for later in batches[k + 1..].iter().flat_map(|(b, _)| b) {
                if later.start.as_nanos() >= cut.frontier {
                    continue;
                }
                let closes = declared.iter().position(|s| {
                    (s.pid, s.start, &*s.name) == (later.pid.as_u32(), later.start.as_nanos(), &*later.name)
                        && (if s.phase { EventKind::Phase } else { EventKind::Operation }) == later.kind
                });
                prop_assert!(closes.is_some(), "chunk {}: {:?} starts before {}", k, later, cut.frontier);
                declared.remove(closes.unwrap());
            }
        }
        prop_assert_eq!(&prefix, &events);
        let grouped = |q: Analysis<'_>| q.group_by([Dim::Phase, Dim::Operation]).canonical_json().unwrap();
        let sealed = live.seal();
        prop_assert_eq!(grouped(Analysis::of_live(&sealed)), grouped(Analysis::of_events(&events)));
    }

    /// One pass with a derived working set answers every directory
    /// query: an arbitrary-order multi-process stream (phases, instants
    /// and equal timestamps included) is cut into arbitrary chunks and
    /// written **raw**, then rewritten **start-sorted** (small run sizes
    /// force real external merges). Every query over either directory,
    /// with no indexing step, releases its sweeps behind the frontier the
    /// later chunks' footers give. Under every grouping, filter and window the
    /// streamed pipeline equals the in-memory analysis of the same
    /// stream (of its stable sort by start for the rewrite, which may
    /// legitimately change first-seen group order) — a frontier taken
    /// one chunk too far fails every raw case with an order violation.
    #[test]
    fn chunk_dir_queries_match_batch_raw_and_reordered(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
        chunk_lens in prop::collection::vec(1usize..12, 1..12),
        run_events in 4usize..24,
        lo in 0u64..2_500,
        len in 1u64..2_500,
        pid in 0u32..4,
    ) {
        use rlscope::core::store::{reorder_chunk_dir_with, Manifest};

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "rlscope_prop_frontier_{}_{case}", std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let (raw, sorted) = (root.join("raw"), root.join("sorted"));
        let writer = TraceWriter::create(&raw, 1).unwrap(); // one chunk per batch
        let (mut rest, mut cuts) = (&events[..], chunk_lens.iter().cycle());
        while !rest.is_empty() {
            let (chunk, tail) = rest.split_at(rest.len().min(*cuts.next().unwrap()));
            writer.write(chunk.to_vec());
            rest = tail;
        }
        writer.finish().unwrap();
        let stats = reorder_chunk_dir_with(&raw, &sorted, 128, run_events).unwrap();
        prop_assert_eq!(stats.events, events.len() as u64);
        prop_assert!(Manifest::open(&sorted).unwrap().is_start_sorted());
        let mut start_sorted = events.clone();
        start_sorted.sort_by_key(|e| e.start);

        let (wlo, whi) = (TimeNs::from_nanos(lo), TimeNs::from_nanos(lo + len));
        fn narrow(q: Analysis<'_>, how: u8, w: (TimeNs, TimeNs), pid: ProcessId) -> Analysis<'_> {
            match how {
                0 => q,
                1 => q.time_window(w.0, w.1),
                2 => q.process(pid),
                _ => q.time_window(w.0, w.1).process(pid),
            }
        }
        type Shape = fn(Analysis<'_>) -> Analysis<'_>;
        let queries: [(&str, Shape); 6] = [
            ("plain", |q| q),
            ("by phase", |q| q.group_by([Dim::Phase])),
            ("by process", |q| q.group_by([Dim::Process])),
            ("by phase and process", |q| q.group_by([Dim::Phase, Dim::Process])),
            ("phase beta", |q| q.phase("beta")),
            ("phase beta by process", |q| q.phase("beta").group_by([Dim::Process])),
        ];
        for (dir, oracle) in [(&raw, &events), (&sorted, &start_sorted)] {
            for (what, shape) in queries {
                for narrowed in 0..4 {
                    let narrow = |q| narrow(q, narrowed, (wlo, whi), ProcessId(pid));
                    prop_assert_eq!(
                        narrow(shape(Analysis::from_chunk_dir(dir))).tables().unwrap(),
                        narrow(shape(Analysis::of_events(oracle))).tables().unwrap(),
                        "{} (narrowing {}) over {}", what, narrowed, dir.display()
                    );
                }
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Windowed answers depend on the window, not on the storage tier:
    /// a profiler-shaped multi-process stream (scopes recorded at close,
    /// phases of different processes open at once) is written raw and
    /// rewritten start-sorted, and the time axis is cut into windows.
    /// Over every window the `(Phase, Operation)` tables of both
    /// directories are equal as maps and equal the reference over the
    /// window rule ([`clip_to`]), and summed over the windows they are
    /// the whole stream's tables. Clipping a scope that spans a window's
    /// start would make every such scope start there, in arrival order —
    /// inside-out on the raw tier, by start on the sorted one.
    #[test]
    fn windowed_tables_agree_across_tiers_and_sum_over_a_partition(
        pids in 2usize..5,
        ops in prop::collection::vec((1usize..4, 0usize..5, 1u64..6, 0u64..3), 1..100),
        phase_every in 2usize..6,
        chunk_len in 4usize..40,
        run_events in 4usize..24,
        cuts in prop::collection::vec(1u64..1_000, 1..5),
    ) {
        use rlscope::core::analysis::GroupKey;
        use rlscope::core::store::reorder_chunk_dir_with;
        use std::collections::HashMap;

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let events = session_shaped(pids, &ops, phase_every);
        let root = std::env::temp_dir().join(format!(
            "rlscope_prop_windows_{}_{}", std::process::id(), CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let (raw, sorted) = (root.join("raw"), root.join("sorted"));
        let writer = TraceWriter::create(&raw, 1).unwrap(); // one chunk per batch
        for chunk in events.chunks(chunk_len) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();
        reorder_chunk_dir_with(&raw, &sorted, 128, run_events).unwrap();

        type Tables = HashMap<GroupKey, BreakdownTable>;
        let by_phase_op = |q: Analysis<'_>| -> Tables {
            q.group_by([Dim::Phase, Dim::Operation]).tables().unwrap().into_iter().collect()
        };
        let end = events.iter().map(|e| e.end.as_nanos()).max().unwrap() + 1;
        let mut edges: Vec<u64> = cuts.iter().map(|c| c * end / 1_000).collect();
        edges.extend([0, end]);
        edges.sort_unstable();
        edges.dedup();
        let mut summed = Tables::new();
        for w in edges.windows(2) {
            let (lo, hi) = (TimeNs::from_nanos(w[0]), TimeNs::from_nanos(w[1]));
            let from_raw = by_phase_op(Analysis::from_chunk_dir(&raw).time_window(lo, hi));
            let from_sorted = by_phase_op(Analysis::from_chunk_dir(&sorted).time_window(lo, hi));
            prop_assert_eq!(&from_raw, &from_sorted, "window [{}, {})", w[0], w[1]);
            let reference: Tables = reference_phase_tables(&clip_to(&events, w[0], w[1]))
                .into_iter()
                .flat_map(|(phase, table)| {
                    table.split_by_operation().into_iter().map(move |(op, t)| {
                        let key = GroupKey {
                            session: None,
                            phase: Some(phase.clone()),
                            process: None,
                            operation: Some(op),
                        };
                        (key, t)
                    })
                })
                .collect();
            prop_assert_eq!(&from_raw, &reference, "window [{}, {}) vs reference", w[0], w[1]);
            for (key, table) in from_raw {
                summed.entry(key).or_default().merge(&table);
            }
        }
        summed.retain(|_, table| !table.is_empty());
        prop_assert_eq!(summed, by_phase_op(Analysis::from_chunk_dir(&raw)));
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// The tiered-storage equivalence contract: rolling a start-sorted
    /// trace up into segment summaries preserves every coarse query —
    /// ungrouped, phase/process/operation grouped, and segment-aligned
    /// time windows — with canonical JSON byte-equal to the in-memory sweep
    /// over the tier it was built from (the sorted dir; the raw→sorted
    /// transition may legitimately reorder first-seen group order, so
    /// ungrouped totals are additionally pinned to the raw events);
    /// windows that split a segment are a typed `Unsupported`, never a
    /// wrong answer.
    #[test]
    fn rollup_coarse_queries_match_batch(
        events in prop::collection::vec(arb_multiproc_full_event(), 0..60),
        chunk_len in 1usize..12,
        segment_ns in 64u64..512,
        win_a in 0u64..4,
        win_span in 1u64..4,
    ) {
        use rlscope::core::analysis::AnalysisError;
        use rlscope::core::rollup::{rollup_chunk_dir, Rollup};
        use rlscope::core::store::reorder_chunk_dir;

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!(
            "rlscope_prop_roll_{}_{case}", std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let (raw, sorted, roll) = (root.join("raw"), root.join("sorted"), root.join("rollup"));
        let writer = TraceWriter::create(&raw, 128).unwrap();
        for chunk in events.chunks(chunk_len) {
            writer.write(chunk.to_vec());
        }
        writer.finish().unwrap();
        // The compaction ladder always sorts before it rolls up — the
        // rollup builder's presence-row ordering relies on it.
        reorder_chunk_dir(&raw, &sorted, 128).unwrap();
        let stats = rollup_chunk_dir(&sorted, &roll, segment_ns).unwrap();
        prop_assert_eq!(stats.events, events.len() as u64);

        let dims: [&[Dim]; 5] = [
            &[],
            &[Dim::Phase],
            &[Dim::Process],
            &[Dim::Process, Dim::Phase],
            &[Dim::Phase, Dim::Operation],
        ];
        // Ungrouped totals are order-free: they must match the raw
        // events exactly, across the whole ladder.
        let plain = Analysis::from_rollup_dir(&roll).canonical_json().unwrap();
        prop_assert_eq!(&plain, &Analysis::of_events(&events).canonical_json().unwrap());
        // Through an index already opened, the answer is the same.
        let index = Rollup::open(&roll).unwrap();
        for dims in dims {
            let from_rollup = Analysis::from_rollup_dir(&roll)
                .group_by(dims.iter().copied())
                .canonical_json()
                .unwrap();
            let from_index =
                Analysis::from_rollup(&index).group_by(dims.iter().copied()).canonical_json();
            prop_assert_eq!(&from_index.unwrap(), &from_rollup, "group_by({:?}) via the index", dims);
            let from_batch = Analysis::from_chunk_dir(&sorted)
                .group_by(dims.iter().copied())
                .canonical_json()
                .unwrap();
            prop_assert_eq!(from_rollup, from_batch, "group_by({:?}) diverges", dims);
        }

        // Segment-aligned windows answer exactly (edges past the
        // covered span included — only touched segments must be whole).
        let (lo, hi) = (win_a * segment_ns, (win_a + win_span) * segment_ns);
        let windowed = Analysis::from_rollup_dir(&roll)
            .time_window(TimeNs::from_nanos(lo), TimeNs::from_nanos(hi))
            .canonical_json()
            .unwrap();
        let batch_windowed = Analysis::from_chunk_dir(&sorted)
            .time_window(TimeNs::from_nanos(lo), TimeNs::from_nanos(hi))
            .canonical_json()
            .unwrap();
        prop_assert_eq!(windowed, batch_windowed, "aligned window [{}, {}) diverges", lo, hi);

        // A window edge inside a segment is below rollup resolution.
        let rollup = Rollup::open(&roll).unwrap();
        if let Some(seg) = rollup.segments().first().filter(|s| s.window_len > 1) {
            let result = Analysis::from_rollup_dir(&roll)
                .time_window(
                    TimeNs::from_nanos(seg.window_start + 1),
                    TimeNs::from_nanos(seg.window_end()),
                )
                .canonical_json();
            prop_assert!(
                matches!(result, Err(AnalysisError::Unsupported(_))),
                "sub-segment window must be typed Unsupported, got {result:?}"
            );
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Truncating an encoded chunk anywhere must produce an error (or the
    /// empty prefix case), never a panic or silent wrong data.
    #[test]
    fn codec_truncation_is_detected(
        events in prop::collection::vec(arb_event(), 1..20),
        cut_frac in 0.0f64..0.99,
    ) {
        let encoded = encode_events(&events);
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        let result = decode_events(&encoded[..cut]);
        prop_assert!(result.is_err());
    }

    /// Replay buffer never exceeds capacity and keeps the newest items.
    #[test]
    fn replay_buffer_bounded(cap in 1usize..64, n in 0usize..200) {
        let mut buf = ReplayBuffer::new(cap);
        for i in 0..n {
            buf.push(Transition {
                obs: vec![i as f32],
                action: rlscope::envs::Action::Discrete(0),
                reward: i as f32,
                next_obs: vec![],
                done: false,
            });
        }
        prop_assert_eq!(buf.len(), n.min(cap));
    }

    /// GAE with zero rewards and zero values yields zero advantages.
    #[test]
    fn gae_zero_signal_zero_advantage(n in 1usize..30, gamma in 0.0f32..1.0, lambda in 0.0f32..1.0) {
        let mut r = RolloutBuffer::new(n);
        for _ in 0..n {
            r.push(RolloutStep {
                obs: vec![],
                action: rlscope::envs::Action::Discrete(0),
                reward: 0.0,
                value: 0.0,
                log_prob: 0.0,
                done: false,
            });
        }
        let (adv, ret) = r.gae(0.0, gamma, lambda);
        prop_assert!(adv.iter().all(|a| a.abs() < 1e-6));
        prop_assert!(ret.iter().all(|a| a.abs() < 1e-6));
    }

    /// Tensor matmul distributes over addition: (A+B)C == AC + BC.
    #[test]
    fn matmul_distributes(
        a in prop::collection::vec(-2.0f32..2.0, 6),
        b in prop::collection::vec(-2.0f32..2.0, 6),
        c in prop::collection::vec(-2.0f32..2.0, 6),
    ) {
        use rlscope::backend::Tensor;
        let a = Tensor::from_vec(2, 3, a);
        let b = Tensor::from_vec(2, 3, b);
        let c = Tensor::from_vec(3, 2, c);
        let lhs = a.zip(&b, |x, y| x + y).matmul(&c);
        let rhs = a.matmul(&c).zip(&b.matmul(&c), |x, y| x + y);
        for (l, r) in lhs.data().iter().zip(rhs.data()) {
            prop_assert!((l - r).abs() < 1e-3, "{l} vs {r}");
        }
    }

    /// The GPU stream scheduler never overlaps work on one stream and
    /// never starts before the enqueue instant.
    #[test]
    fn stream_fifo_invariant(durations in prop::collection::vec(1u64..100, 1..30)) {
        use rlscope::sim::gpu::{GpuDevice, KernelDesc};
        let mut gpu = GpuDevice::new(1);
        let stream = gpu.default_stream();
        let mut prev_end = TimeNs::ZERO;
        for (i, d) in durations.iter().enumerate() {
            let queued = TimeNs::from_nanos(i as u64 * 37);
            let rec = gpu.enqueue_kernel(
                stream,
                &KernelDesc::new("k", DurationNs::from_nanos(*d)),
                queued,
            );
            prop_assert!(rec.start >= queued);
            prop_assert!(rec.start >= prev_end);
            prop_assert_eq!(rec.end, rec.start + DurationNs::from_nanos(*d));
            prev_end = rec.end;
        }
    }
}
