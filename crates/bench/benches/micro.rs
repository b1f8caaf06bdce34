//! Microbenchmarks of the profiler's hot paths: the overlap sweep (fed
//! once and incrementally), trace encode/decode, chunk-directory analysis, tensor
//! math, and GPU stream scheduling.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rlscope_bench::gate;
use rlscope_core::analysis::{Analysis, Dim, LiveState, LiveView};
use rlscope_core::event::{CpuCategory, Event, EventKind, GpuCategory};
use rlscope_core::overlap::{compute_overlap, compute_overlap_columns, OverlapSweep};
use rlscope_core::profiler::{cut_of, EventSink, Toggles};
use rlscope_core::store::{
    decode_columns, decode_events, encode_events, EventColumns, TraceWriter,
};
use rlscope_core::Trace;
use rlscope_rl::AlgoKind;
use rlscope_sim::gpu::{GpuDevice, KernelDesc};
use rlscope_sim::ids::{ProcessId, StreamId};
use rlscope_sim::time::{DurationNs, TimeNs};
use rlscope_workloads::frameworks::STABLE_BASELINES;
use rlscope_workloads::{ScaleConfig, TrainSpec};
use std::sync::{Arc, Mutex};

fn synthetic_events(n: usize) -> Vec<Event> {
    let mut events = Vec::with_capacity(n);
    // One operation spanning everything plus interleaved CPU/GPU events.
    events.push(Event::new(
        ProcessId(0),
        EventKind::Operation,
        "train",
        TimeNs::ZERO,
        TimeNs::from_micros(n as u64 * 10),
    ));
    for i in 0..n {
        let t = i as u64 * 10;
        let kind = match i % 4 {
            0 => EventKind::Cpu(CpuCategory::Python),
            1 => EventKind::Cpu(CpuCategory::Backend),
            2 => EventKind::Cpu(CpuCategory::CudaApi),
            _ => EventKind::Gpu(GpuCategory::Kernel),
        };
        events.push(Event::new(
            ProcessId(0),
            kind,
            "e",
            TimeNs::from_micros(t),
            TimeNs::from_micros(t + 8),
        ));
    }
    events
}

/// Deeply nested operation annotations: `blocks` repeated blocks of
/// `depth` properly-nested operations plus CPU/GPU activity, exercising
/// the scope-indexed operation stack (the old engine's `retain` was
/// `O(depth)` per close).
fn nested_events(blocks: usize, depth: usize) -> Vec<Event> {
    let block_ns = 100_000u64;
    let step = block_ns / (2 * depth as u64 + 2);
    let mut events = Vec::with_capacity(blocks * (depth + 2));
    for b in 0..blocks {
        let base = b as u64 * block_ns;
        for d in 0..depth {
            let off = d as u64 * step;
            events.push(Event::new(
                ProcessId(0),
                EventKind::Operation,
                format!("op_{d}"),
                TimeNs::from_nanos(base + off),
                TimeNs::from_nanos(base + block_ns - off),
            ));
        }
        events.push(Event::new(
            ProcessId(0),
            EventKind::Cpu(CpuCategory::Python),
            "py",
            TimeNs::from_nanos(base),
            TimeNs::from_nanos(base + block_ns),
        ));
        events.push(Event::new(
            ProcessId(0),
            EventKind::Gpu(GpuCategory::Kernel),
            "k",
            TimeNs::from_nanos(base + block_ns / 4),
            TimeNs::from_nanos(base + block_ns / 2),
        ));
    }
    events
}

/// Interleaved events rotating over `ops` distinct operation names and
/// `procs` processes, exercising the interner and the multi-process
/// partitioning path.
fn multi_op_events(n: usize, ops: usize, procs: u32) -> Vec<Event> {
    let names: Vec<String> = (0..ops).map(|i| format!("operation_{i}")).collect();
    let mut events = Vec::with_capacity(n + n / 10);
    for i in 0..n {
        let t = i as u64 * 10;
        let pid = ProcessId(i as u32 % procs);
        if i % 10 == 0 {
            events.push(Event::new(
                pid,
                EventKind::Operation,
                names[(i / 10) % ops].as_str(),
                TimeNs::from_nanos(t),
                TimeNs::from_nanos(t + 100),
            ));
        }
        let kind = match i % 4 {
            0 => EventKind::Cpu(CpuCategory::Python),
            1 => EventKind::Cpu(CpuCategory::Backend),
            2 => EventKind::Cpu(CpuCategory::CudaApi),
            _ => EventKind::Gpu(GpuCategory::Kernel),
        };
        events.push(Event::new(pid, kind, "e", TimeNs::from_nanos(t), TimeNs::from_nanos(t + 8)));
    }
    events
}

/// `procs` single-process [`multi_op_events`] streams of `n` events each,
/// interleaved a `block` at a time — how per-process profiler flushes
/// reach a collector: every process's own stream is in order, the merged
/// stream is coarsely out of order, which is the shape that makes
/// sorting a live session's pending boundaries real work.
fn interleaved_process_streams(n: usize, ops: usize, procs: u32, block: usize) -> Vec<Event> {
    let streams: Vec<Vec<Event>> = (0..procs)
        .map(|pid| {
            let mut events = multi_op_events(n, ops, 1);
            events.iter_mut().for_each(|e| e.pid = ProcessId(pid));
            events
        })
        .collect();
    let mut out = Vec::with_capacity(streams.iter().map(Vec::len).sum());
    for at in (0..streams[0].len()).step_by(block) {
        for stream in &streams {
            out.extend_from_slice(&stream[at..stream.len().min(at + block)]);
        }
    }
    out
}

/// A collector session of `pids` processes, `n` events, as a profiler
/// streams it: the process furthest behind runs its next operation, whose
/// CPU/GPU children are recorded before it (a CUDA call inside a backend
/// call, a kernel running past both), and each process's phase is
/// recorded when it closes, two to three simulated seconds after it
/// opened. The merged stream is therefore close-ordered across pids and
/// keeps its phase starts far behind, so a cold sweep sorts nearly the
/// whole log as one multi-producer tail.
fn session_shaped_events(pids: u32, n: usize) -> Vec<Event> {
    let mut rng = rlscope_sim::rng::SimRng::seed_from_u64(1);
    let mut cursor: Vec<u64> = (0..pids).map(|_| rng.below(200_000) as u64).collect();
    let mut phase_start = vec![0u64; pids as usize];
    let mut phase_len: Vec<u64> =
        (0..pids).map(|_| 2_000_000_000 + rng.below(1_000_000_000) as u64).collect();
    let mut out = Vec::with_capacity(n + 32);
    let span = |pid: usize, kind, name: &str, start: u64, end: u64| {
        let (start, end) = (TimeNs::from_nanos(start), TimeNs::from_nanos(end));
        Event::new(ProcessId(pid as u32), kind, name, start, end)
    };
    while out.len() < n {
        let p = (0..pids as usize).min_by_key(|&p| cursor[p]).expect("pids > 0");
        let op_start = cursor[p];
        let mut t = op_start + rng.below(5_000) as u64;
        for _ in 0..6 + rng.below(10) {
            let dur = 50_000 + rng.below(180_000) as u64;
            let end = t + dur;
            match rng.below(4) {
                0 => out.push(span(p, EventKind::Cpu(CpuCategory::Python), "py", t, end)),
                1 => {
                    let api = EventKind::Cpu(CpuCategory::CudaApi);
                    out.push(span(p, api, "launch", t + dur / 4, t + dur / 2));
                    out.push(span(p, EventKind::Cpu(CpuCategory::Backend), "mm", t, end));
                    let kernel = EventKind::Gpu(GpuCategory::Kernel);
                    out.push(span(p, kernel, "k", t + dur / 2, end + dur / 4));
                }
                2 => out.push(span(p, EventKind::Cpu(CpuCategory::Simulator), "sim", t, end)),
                _ => out.push(span(p, EventKind::Gpu(GpuCategory::Memcpy), "copy", t, end)),
            }
            t = end + rng.below(40_000) as u64;
        }
        let op = ["inference", "backprop", "env_step"][rng.below(3)];
        out.push(span(p, EventKind::Operation, op, op_start, t));
        cursor[p] = t + rng.below(10_000) as u64;
        if cursor[p] - phase_start[p] >= phase_len[p] {
            let phase = ["collect", "train"][rng.below(2)];
            out.push(span(p, EventKind::Phase, phase, phase_start[p], cursor[p]));
            phase_start[p] = cursor[p];
            phase_len[p] = 2_000_000_000 + rng.below(1_000_000_000) as u64;
        }
    }
    out
}

/// The active positional benchmark filter, parsed with the harness's
/// argument grammar (vendor/criterion): value-taking flags consume their
/// next token, the LAST positional token is the filter (and single-dash
/// tokens count as positionals). Shared by the inline regression gates so
/// filtered runs of unrelated benches can't die on them.
fn bench_filter() -> Option<String> {
    let mut filter: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--profile-time" | "--save-baseline" | "--baseline" | "--measurement-time"
            | "--warm-up-time" | "--sample-size" => {
                let _ = args.next();
            }
            a if a.starts_with("--") => {}
            positional => filter = Some(positional.to_string()),
        }
    }
    filter
}

fn bench_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlap_sweep");
    for n in [1_000usize, 10_000] {
        let events = synthetic_events(n);
        group.bench_function(format!("{n}_events"), |b| {
            b.iter(|| compute_overlap(std::hint::black_box(&events)))
        });
    }
    // ~10k events, 64 operations deep.
    let deep = nested_events(156, 64);
    group.bench_function("deep_nest_10k", |b| {
        b.iter(|| compute_overlap(std::hint::black_box(&deep)))
    });
    // ~11k events across 32 distinct operation names.
    let multi = multi_op_events(10_000, 32, 1);
    group.bench_function("multi_op_10k", |b| {
        b.iter(|| compute_overlap(std::hint::black_box(&multi)))
    });
    group.finish();

    // Regression gate for the deep-nest slowdown (ROADMAP follow-up of
    // PR 1): 64-deep annotation stacks produce descending end-boundary
    // runs that used to push the sweep to ~2.5x the per-event cost of a
    // flat stream; the run-reversing boundary sort holds the ratio down.
    // Measured directly (not via criterion) so it also runs under
    // `--test`. Skipped when a substring filter excludes the deep-nest
    // bench, so filtered runs of unrelated benches can't die on it.
    let gate_name = "overlap_sweep/deep_nest_10k";
    if bench_filter().is_some_and(|f| !gate_name.contains(f.as_str())) {
        return;
    }
    let flat = synthetic_events(10_000);
    let per_event = |events: &[Event]| {
        let reps = 8;
        let t = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(compute_overlap(std::hint::black_box(events)));
        }
        t.elapsed().as_nanos() as f64 / reps as f64 / events.len() as f64
    };
    let (deep_stats, flat_stats) = gate::sample_pair(5, || per_event(&deep), || per_event(&flat));
    // With the fix this measures ~1.3-1.8x; with the descending runs
    // handed straight to std's sort it measures ~3.4x. On the CI smoke
    // path (`--test`, shared noisy runners) only catastrophic regressions
    // are gated; real bench runs assert a 3.0x target — still clear of
    // the broken behavior.
    let target = if gate::is_smoke_run() { 8.0 } else { 3.0 };
    gate::assert_ratio(
        "deep_nest_regression_gate",
        &deep_stats,
        &flat_stats,
        target,
        "the descending-run end-array sort fix measures ~1.3-1.8x here",
    );
}

fn bench_interleaved_cold(c: &mut Criterion) {
    // A cold merged query of interleaved processes, as a chunk-directory
    // scan runs it: the phase starts recorded at close hold the release
    // frontier near zero, so every chunk is pushed (untimed) and the
    // timed finalize sorts the multi-producer tail, then drains it,
    // arbitrating the phase tag among four processes.
    let id = "overlap_sweep/interleaved_4pid_cold";
    if bench_filter().is_some_and(|f| !id.contains(f.as_str())) {
        return;
    }
    let chunks: Vec<EventColumns> =
        session_shaped_events(4, 200_000).chunks(8192).map(EventColumns::from_events).collect();
    let pushed = || {
        let mut sweep = OverlapSweep::new().with_phase_tagging();
        for chunk in &chunks {
            sweep.push_columns(chunk).unwrap();
        }
        sweep
    };
    let mut group = c.benchmark_group("overlap_sweep");
    group.bench_function("interleaved_4pid_cold", |b| {
        b.iter_batched(pushed, OverlapSweep::finalize_grouped, BatchSize::LargeInput)
    });
    group.finish();
}

fn bench_chunk_dir_cold(c: &mut Criterion) {
    // The same stream as a cold chunk-directory query, end to end:
    // chunks read, decoded, pushed and sorted side by side in runs, one
    // per core, then absorbed in stream order, released and drained.
    // `query_tiers`' shape: 25 v3 chunks of 8192 events.
    chunk_dir_cold(c, "analysis_query/chunk_dir_4pid_cold", 200_000, 8192);
    // `dashboard_mixed`'s shape: 540 k events in 1055 chunks of 512.
    chunk_dir_cold(c, "analysis_query/chunk_dir_4pid_cold_1k_chunks", 540_000, 512);
}

/// Times `group_by([Phase, Operation])` over a temp directory holding
/// `n` session-shaped events of 4 pids in chunks of `per_chunk`.
fn chunk_dir_cold(c: &mut Criterion, id: &str, n: usize, per_chunk: usize) {
    if bench_filter().is_some_and(|f| !id.contains(f.as_str())) {
        return;
    }
    let dir = std::env::temp_dir().join(format!("rlscope_bench_cold_{n}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (i, chunk) in session_shaped_events(4, n).chunks(per_chunk).enumerate() {
        std::fs::write(dir.join(format!("chunk_{i:05}.rls")), encode_events(chunk)).unwrap();
    }
    let query = || Analysis::from_chunk_dir(&dir).group_by([Dim::Phase, Dim::Operation]);
    c.bench_function(id, |b| b.iter(|| query().tables().unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_analysis(c: &mut Criterion) {
    // The unified query API over the same 10k-event stream as
    // overlap_sweep/10000_events: the wrapper must stay within noise of
    // the direct engine call.
    let events = synthetic_events(10_000);
    c.bench_function("analysis_query/10000_events", |b| {
        b.iter(|| Analysis::of_events(std::hint::black_box(&events)).table().unwrap())
    });
    // The phase-tagged grouped query on a phase-annotated variant of the
    // same stream (the view the old pipeline could not produce).
    let mut phased = events.clone();
    let span = 10_000u64 * 10;
    for p in 0..4u64 {
        phased.push(Event::new(
            ProcessId(0),
            EventKind::Phase,
            format!("phase_{p}"),
            TimeNs::from_micros(p * span / 4),
            TimeNs::from_micros((p + 1) * span / 4),
        ));
    }
    c.bench_function("analysis_query/10000_events_by_phase", |b| {
        b.iter(|| {
            Analysis::of_events(std::hint::black_box(&phased))
                .group_by([Dim::Phase])
                .tables()
                .unwrap()
        })
    });

    // Regression ratio gate (CI bench-smoke entry): the `Analysis`
    // pipeline's plain table query must stay within 1.1x of the sweep
    // driven directly (`OverlapSweep` `push_batch` + `finalize`) on the
    // overlap_sweep/10000_events workload. The baseline deliberately
    // bypasses the builder — `compute_overlap` is itself an `Analysis`
    // wrapper, so gating against it would compare identical code and
    // never detect pipeline overhead. Measured inline (median of 5
    // interleaved passes, see `gate`) so it also runs under `--test`;
    // skipped when a substring filter excludes it.
    let gate_name = "analysis_query/10000_events";
    if bench_filter().is_some_and(|f| !gate_name.contains(f.as_str())) {
        return;
    }
    let time_per_call = |f: &dyn Fn() -> rlscope_core::BreakdownTable| {
        let reps = 8;
        let t = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    let direct = || {
        let mut sweep = OverlapSweep::new();
        sweep.push_batch(std::hint::black_box(&events)).unwrap();
        sweep.finalize()
    };
    let query = || Analysis::of_events(std::hint::black_box(&events)).table().unwrap();
    let (query_stats, direct_stats) =
        gate::sample_pair(5, || time_per_call(&query), || time_per_call(&direct));
    // The query pushes its rows straight into one sweep, so the ratio
    // should sit at ~1.00. Bench runs assert the acceptance target
    // (1.1x); the noisy `--test` CI smoke only gates catastrophic
    // regressions.
    let target = if gate::is_smoke_run() { 2.0 } else { 1.1 };
    gate::assert_ratio(
        "analysis_query_regression_gate",
        &query_stats,
        &direct_stats,
        target,
        "Analysis::table() should push straight into one sweep (~1.0x)",
    );
}

fn bench_streaming(c: &mut Criterion) {
    // Per-event push throughput: the same events as
    // overlap_sweep/10000_events, pushed one at a time instead of in one
    // batch.
    let events = synthetic_events(10_000);
    c.bench_function("overlap_stream_10k", |b| {
        b.iter(|| {
            let mut sweep = OverlapSweep::new();
            for e in std::hint::black_box(&events) {
                sweep.push(e).unwrap();
            }
            sweep.finalize()
        })
    });

    // End-to-end chunk-directory analysis: decode + per-pid streaming
    // sweeps, against the materialize-then-shard baseline shape.
    let dir = std::env::temp_dir().join(format!("rlscope_bench_chunks_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = TraceWriter::create(&dir, 64 * 1024).unwrap();
    for chunk in multi_op_events(40_000, 16, 4).chunks(1024) {
        writer.write(chunk.to_vec());
    }
    writer.finish().unwrap();
    let by_process =
        || Analysis::from_chunk_dir(std::hint::black_box(&dir)).group_by([Dim::Process]);
    c.bench_function("chunk_dir_streamed_4proc_40k", |b| b.iter(|| by_process().tables().unwrap()));
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_live_snapshot(c: &mut Criterion) {
    // What one dashboard refresh costs on a session that is still
    // streaming: a 4-process session holds a 100k- or 600k-event prefix
    // that an earlier snapshot already drained, one more 512-event chunk
    // arrives (untimed), and the next live query is answered — tidy the
    // new chunk's boundaries into the sorted history, resume the view's
    // sweeps from their last valid checkpoints, read the tables.
    // `batch_100k` is the 100k answer recomputed from the events.
    const CHUNK: usize = 512;
    let one_chunk_later = |(base, next): &(LiveState, EventColumns)| {
        let mut live = base.clone();
        live.push_columns(next).unwrap();
        live
    };
    // Each routine hands the session back, so freeing it is not timed.
    let merged = |mut live: LiveState| {
        let tables = live.snapshot_view(LiveView::Merged);
        let answer =
            Analysis::of_live(&tables).group_by([Dim::Phase, Dim::Operation]).tables().unwrap();
        (answer, live)
    };
    let batch_of = |events: &[Event]| {
        Analysis::of_events(std::hint::black_box(events))
            .group_by([Dim::Phase, Dim::Operation])
            .tables()
            .unwrap()
    };
    // The stream, its two pushed and snapshotted prefixes (100k and
    // 600k events, one chunk short) and the answers' check against the
    // batch sweep are built by the first selected bench, so a run whose
    // filter selects none of them pays nothing for them.
    let fixtures = std::cell::OnceCell::new();
    let fixtures = || {
        fixtures.get_or_init(|| {
            let events = interleaved_process_streams(150_000, 16, 4, 64);
            let one_chunk_before = |at: usize| {
                let mut base = LiveState::new();
                for chunk in events[..at - CHUNK].chunks(CHUNK) {
                    base.push_columns(&EventColumns::from_events(chunk)).unwrap();
                }
                base.snapshot();
                (base, EventColumns::from_events(&events[at - CHUNK..at]))
            };
            let at_100k = one_chunk_before(100_000);
            let at_600k = one_chunk_before(600_000);
            assert_eq!(merged(one_chunk_later(&at_100k)).0, batch_of(&events[..100_000]));
            assert_eq!(merged(one_chunk_later(&at_600k)).0, batch_of(&events[..600_000]));
            (events, at_100k, at_600k)
        })
    };

    let mut group = c.benchmark_group("live_snapshot");
    for (name, long) in [("merged_100k", false), ("merged_600k", true)] {
        group.bench_function(name, |b| {
            let (_, at_100k, at_600k) = fixtures();
            let at = if long { at_600k } else { at_100k };
            b.iter_batched(|| one_chunk_later(at), merged, BatchSize::LargeInput)
        });
    }
    group.bench_function("per_process_100k", |b| {
        let at_100k = &fixtures().1;
        b.iter_batched(
            || one_chunk_later(at_100k),
            |mut live| {
                let tables = live.snapshot_view(LiveView::PerProcess);
                (Analysis::of_live(&tables).group_by([Dim::Process]).tables().unwrap(), live)
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("both_views_100k", |b| {
        let at_100k = &fixtures().1;
        b.iter_batched(
            || one_chunk_later(at_100k),
            |mut live| (live.snapshot(), live),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("batch_100k", |b| {
        let events = &fixtures().0[..100_000];
        b.iter(|| batch_of(events))
    });
    group.finish();

    // Inline ratio gate (CI bench-smoke entry): a live query pays for
    // what arrived since the last one, not for the prefix. The
    // merged-view snapshot one chunk after the last costs at most 2x as
    // much behind a 600k-event prefix as behind a 100k one (it measures
    // ~1x: the same chunk, the same checkpoint spacing), and at most
    // 0.05x the batch sweep of 100k events. A snapshot that drains from
    // the first boundary measures ~6x and ~2x.
    let gate_name = "live_snapshot_ratio_gate";
    if bench_filter().is_none_or(|f| gate_name.contains(f.as_str())) {
        let (events, at_100k, at_600k) = fixtures();
        let events = &events[..100_000];
        let reps = 4;
        let time_snapshot = |at: &(LiveState, EventColumns)| {
            let mut nanos = 0;
            for _ in 0..reps {
                let live = one_chunk_later(at);
                let t = std::time::Instant::now();
                let answered = merged(live);
                nanos += t.elapsed().as_nanos();
                std::hint::black_box(answered);
            }
            nanos as f64 / reps as f64
        };
        let time_batch = || {
            let t = std::time::Instant::now();
            for _ in 0..reps {
                std::hint::black_box(batch_of(events));
            }
            t.elapsed().as_nanos() as f64 / reps as f64
        };
        let (long, short) =
            gate::sample_pair(5, || time_snapshot(at_600k), || time_snapshot(at_100k));
        let mut batch_samples: Vec<f64> = (0..5).map(|_| time_batch()).collect();
        let batch_stats = gate::GateStats::from_samples(&mut batch_samples);
        let smoke = gate::is_smoke_run();
        gate::assert_ratio(
            gate_name,
            &long,
            &short,
            if smoke { 5.0 } else { 2.0 },
            "a snapshot one chunk after the last resumes from a checkpoint near the end of \
             the log whatever the prefix; 600k measures ~1x 100k here",
        );
        gate::assert_ratio(
            gate_name,
            &long,
            &batch_stats,
            if smoke { 0.15 } else { 0.05 },
            "a snapshot one chunk after the last sorts and drains about one chunk; at 600k it \
             measures ~0.01x the batch sweep of 100k events here",
        );
    }
}

/// The stream of the e2e harness's `train_stream` run (DDPG Walker2D,
/// stable-baselines, 400 steps, seed 1, about 0.6 M events) as the
/// profiler hands it to a streaming sink: one [`EventColumns`] per
/// 4096-event batch, in delivery order, each carrying the profiler's
/// declaration ([`EventColumns::cut`]) as a decoded declared chunk does.
fn train_stream_chunks() -> Vec<EventColumns> {
    struct Batches(Mutex<Vec<EventColumns>>);
    impl EventSink for Batches {
        fn emit(&self, events: Vec<Event>) {
            let cols = EventColumns { cut: cut_of(&events), ..EventColumns::from_events(&events) };
            self.0.lock().unwrap().push(cols);
        }
    }
    let spec = TrainSpec {
        seed: 1,
        scale: ScaleConfig { hidden: 16, batch: 8, freq_div: 10, ppo: None },
        ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", STABLE_BASELINES, 400)
    };
    let sink = Arc::new(Batches(Mutex::new(Vec::new())));
    spec.run_streamed(Toggles::all(), sink.clone(), 4096);
    let chunks = std::mem::take(&mut *sink.0.lock().unwrap());
    chunks
}

fn bench_live_seal(c: &mut Criterion) {
    // What a cleanly finished session's seal costs the collector daemon:
    // a single-process training run's live state, every batch pushed
    // (untimed), turned into its merged-view tables.
    //
    // * `train_stream_shaped`: the chunks undeclared. The run's boundary
    //   log is near-sorted — a backend call starts before the CUDA call
    //   recorded ahead of it, an operation before its children — so the
    //   seal sorts its few stragglers into the run and drains it once.
    // * `train_stream_declared`: the same chunks with the profiler's
    //   declarations, each released to its frontier after its push, as
    //   the daemon does once the ack is out: the seal drains about the
    //   last chunk.
    //
    // `live_ingest/*` times the pushes themselves (with the releases,
    // for declared chunks): where the declared path moved the drain.
    let ids = [
        "live_seal/train_stream_shaped",
        "live_seal/train_stream_declared",
        "live_ingest/train_stream_shaped",
        "live_ingest/train_stream_declared",
    ];
    if bench_filter().is_some_and(|f| ids.iter().all(|id| !id.contains(f.as_str()))) {
        return;
    }
    let declared = train_stream_chunks();
    let shaped: Vec<EventColumns> =
        declared.iter().map(|c| EventColumns { cut: None, ..c.clone() }).collect();
    let push_all = |chunks: &[EventColumns]| {
        let mut live = LiveState::new();
        for chunk in chunks {
            live.push_columns(chunk).unwrap();
            live.release();
        }
        live
    };
    let mut group = c.benchmark_group("live_seal");
    group.bench_function("train_stream_shaped", |b| {
        b.iter_batched(|| push_all(&shaped), LiveState::seal, BatchSize::LargeInput)
    });
    group.bench_function("train_stream_declared", |b| {
        b.iter_batched(|| push_all(&declared), LiveState::seal, BatchSize::LargeInput)
    });
    group.finish();
    let mut group = c.benchmark_group("live_ingest");
    group.bench_function("train_stream_shaped", |b| b.iter(|| push_all(&shaped)));
    group.bench_function("train_stream_declared", |b| b.iter(|| push_all(&declared)));
    group.finish();
}

fn bench_pushdown(c: &mut Criterion) {
    // A 16-chunk directory with disjoint per-chunk time ranges — the
    // manifest-pushdown micro: a 3-chunk time-window query must skip the
    // other 13 chunks before any decode.
    let dir = std::env::temp_dir().join(format!("rlscope_bench_pushdown_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = TraceWriter::create(&dir, 1).unwrap(); // rotate per batch
    for c_idx in 0..16u64 {
        let mut events = Vec::with_capacity(2_000);
        for i in 0..2_000u64 {
            let t = c_idx * 25_000 + i * 10;
            events.push(Event::new(
                ProcessId((i % 4) as u32),
                if i % 16 == 0 {
                    EventKind::Operation
                } else {
                    EventKind::Cpu(CpuCategory::Python)
                },
                if i % 16 == 0 { "op" } else { "py" },
                TimeNs::from_micros(t),
                TimeNs::from_micros(t + 8),
            ));
        }
        writer.write(events);
    }
    writer.finish().unwrap();
    let lo = TimeNs::from_micros(5 * 25_000);
    let hi = TimeNs::from_micros(8 * 25_000 - 10_000);
    let windowed = || Analysis::from_chunk_dir(&dir).time_window(lo, hi).table().unwrap();
    let full = || Analysis::from_chunk_dir(&dir).table().unwrap();
    let plan = Analysis::from_chunk_dir(&dir).time_window(lo, hi).chunk_plan().unwrap().unwrap();
    assert_eq!(plan.1, 16);
    assert!(plan.0 <= 3, "window should select at most 3 of 16 chunks, got {}", plan.0);

    c.bench_function("manifest_pushdown/time_window_16chunks", |b| b.iter(windowed));
    c.bench_function("manifest_pushdown/full_scan_16chunks", |b| b.iter(full));

    // Inline ratio gate (CI bench-smoke entry): the windowed query must
    // cost well under the full scan — it decodes ≤3 of 16 chunks, so
    // anything near parity means the pushdown stopped skipping. Measures
    // ~0.15-0.3x; bench runs assert 0.6x, the noisy `--test` smoke 1.0x.
    let gate_name = "manifest_pushdown/time_window_16chunks";
    if bench_filter().is_some_and(|f| !gate_name.contains(f.as_str())) {
        let _ = std::fs::remove_dir_all(&dir);
        return;
    }
    let time_per_call = |f: &dyn Fn() -> rlscope_core::BreakdownTable| {
        let reps = 5;
        let t = std::time::Instant::now();
        for _ in 0..reps {
            std::hint::black_box(f());
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };
    let (windowed_stats, full_stats) =
        gate::sample_pair(5, || time_per_call(&windowed), || time_per_call(&full));
    println!("manifest_pushdown_gate: {} of {} chunks decoded by the window", plan.0, plan.1);
    let target = if gate::is_smoke_run() { 1.0 } else { 0.6 };
    gate::assert_ratio(
        "manifest_pushdown_gate",
        &windowed_stats,
        &full_stats,
        target,
        "a 3-of-16-chunk window measures ~0.15-0.3x the full scan here",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes the tiered-storage bench session: 16 close-ordered chunks of
/// 2,000 events each (operations rotating every 16 events, four
/// processes), plus per-process warmup/steady phase annotations appended
/// last — the same shape the collector's finished sessions have before
/// compaction.
fn tiered_session_dir(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    let writer = TraceWriter::create(dir, 1).unwrap(); // rotate per batch
    let span_us = 16u64 * 25_000;
    for c_idx in 0..16u64 {
        let mut events = Vec::with_capacity(2_000);
        for i in 0..2_000u64 {
            let t = c_idx * 25_000 + i * 10;
            events.push(Event::new(
                ProcessId((i % 4) as u32),
                if i % 16 == 0 {
                    EventKind::Operation
                } else {
                    EventKind::Cpu(CpuCategory::Python)
                },
                if i % 16 == 0 {
                    if (i / 16) % 2 == 0 {
                        "train_step"
                    } else {
                        "collect_rollouts"
                    }
                } else {
                    "py"
                },
                TimeNs::from_micros(t),
                TimeNs::from_micros(t + 8),
            ));
        }
        if c_idx == 15 {
            for pid in 0..4u32 {
                let mid = span_us / 2;
                events.push(Event::new(
                    ProcessId(pid),
                    EventKind::Phase,
                    "warmup",
                    TimeNs::ZERO,
                    TimeNs::from_micros(mid),
                ));
                events.push(Event::new(
                    ProcessId(pid),
                    EventKind::Phase,
                    "steady",
                    TimeNs::from_micros(mid),
                    TimeNs::from_micros(span_us + 100),
                ));
            }
        }
        writer.write(events);
    }
    writer.finish().unwrap();
}

fn bench_compaction(c: &mut Criterion) {
    use rlscope_core::rollup::rollup_chunk_dir;
    use rlscope_core::store::reorder_chunk_dir;

    // Compaction throughput: the two tier transitions the daemon's
    // retention pass performs on a finished 32k-event session — the
    // start-ordered rewrite and the segment-summary rollup. Smoke-level
    // coverage (no ratio gate): regressions here cost background
    // bandwidth, not query latency.
    let tag = std::process::id();
    let raw = std::env::temp_dir().join(format!("rlscope_bench_compact_raw_{tag}"));
    let sorted = std::env::temp_dir().join(format!("rlscope_bench_compact_sorted_{tag}"));
    let out = std::env::temp_dir().join(format!("rlscope_bench_compact_out_{tag}"));
    tiered_session_dir(&raw);
    let _ = std::fs::remove_dir_all(&sorted);
    reorder_chunk_dir(&raw, &sorted, 1 << 20).unwrap();

    c.bench_function("compaction/sort_32k_events", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&out);
            std::hint::black_box(reorder_chunk_dir(&raw, &out, 1 << 20).unwrap())
        })
    });
    c.bench_function("compaction/rollup_32k_events", |b| {
        b.iter(|| {
            let _ = std::fs::remove_dir_all(&out);
            std::hint::black_box(rollup_chunk_dir(&sorted, &out, 8_000_000).unwrap())
        })
    });
    for d in [&raw, &sorted, &out] {
        let _ = std::fs::remove_dir_all(d);
    }
}

fn bench_multiprocess(c: &mut Criterion) {
    // ~44k events over 4 processes, analyzed with the per-process path
    // used by whole-experiment reports.
    let trace = Trace {
        pid: ProcessId(0),
        events: multi_op_events(40_000, 16, 4),
        counts: Default::default(),
        per_op_transitions: vec![],
        api_stats: vec![],
        iterations: 0,
        wall_end: TimeNs::from_nanos(400_000),
    };
    c.bench_function("multiprocess_breakdown_4proc_40k", |b| {
        b.iter(|| {
            Analysis::of(std::hint::black_box(&trace)).group_by([Dim::Process]).tables().unwrap()
        })
    });
}

fn bench_trace_codec(c: &mut Criterion) {
    let events = synthetic_events(10_000);
    c.bench_function("trace_encode_10k", |b| {
        b.iter(|| encode_events(std::hint::black_box(&events)))
    });
    let encoded = encode_events(&events);
    c.bench_function("trace_decode_10k", |b| {
        b.iter(|| decode_events(std::hint::black_box(&encoded)).unwrap())
    });
    // Many distinct names: stresses the v2 per-chunk string table.
    let multi = multi_op_events(10_000, 32, 1);
    c.bench_function("trace_encode_10k_multi_op", |b| {
        b.iter(|| encode_events(std::hint::black_box(&multi)))
    });
    let multi_encoded = encode_events(&multi);
    c.bench_function("trace_decode_10k_multi_op", |b| {
        b.iter(|| decode_events(std::hint::black_box(&multi_encoded)).unwrap())
    });
}

fn bench_columnar(c: &mut Criterion) {
    // The chunk parser on the same encoded chunks as trace_decode_10k
    // (which times it plus the row bridge): `decode_columns` fills five
    // flat primitive columns with zero `Vec<Event>` materialization, and
    // the sweep consumes them without re-reading event structs.
    let events = synthetic_events(10_000);
    let encoded = encode_events(&events);
    c.bench_function("columnar_decode_10k", |b| {
        b.iter(|| decode_columns(std::hint::black_box(&encoded)).unwrap())
    });
    let multi = multi_op_events(10_000, 32, 1);
    let multi_encoded = encode_events(&multi);
    c.bench_function("columnar_decode_10k_multi_op", |b| {
        b.iter(|| decode_columns(std::hint::black_box(&multi_encoded)).unwrap())
    });
    let cols = decode_columns(&encoded).unwrap();
    c.bench_function("overlap_columnar_10k", |b| {
        b.iter(|| compute_overlap_columns(std::hint::black_box(&cols)))
    });

    // Inline ratio gate (CI bench-smoke entry): the column
    // instantiation of the sweep's push path must stay at or under the
    // row instantiation (a direct `push_batch` + `finalize`) on the
    // equivalent input. Both run one generic push body and one merge
    // loop, so this guards that neither instantiation is taxed by the
    // shared body.
    let time_per_call = |f: &mut dyn FnMut()| {
        let reps = 8;
        let t = std::time::Instant::now();
        for _ in 0..reps {
            f();
        }
        t.elapsed().as_nanos() as f64 / reps as f64
    };

    let gate_name = "overlap_columnar_ratio_gate";
    if bench_filter().is_none_or(|f| gate_name.contains(f.as_str())) {
        let row_cols = EventColumns::from_events(&events);
        let (colsweep_stats, rowsweep_stats) = gate::sample_pair(
            5,
            || {
                time_per_call(&mut || {
                    drop(std::hint::black_box(compute_overlap_columns(&row_cols)))
                })
            },
            || {
                time_per_call(&mut || {
                    let mut sweep = OverlapSweep::new();
                    sweep.push_batch(&events).unwrap();
                    drop(std::hint::black_box(sweep.finalize()))
                })
            },
        );
        let target = if gate::is_smoke_run() { 2.0 } else { 1.0 };
        gate::assert_ratio(
            gate_name,
            &colsweep_stats,
            &rowsweep_stats,
            target,
            "the columnar push shares the merge loop and logs boundaries from flat columns; \
             it measures at or under the row push here",
        );
    }
}

fn bench_tensor(c: &mut Criterion) {
    use rlscope_backend::Tensor;
    let a = Tensor::full(64, 64, 0.5);
    let bm = Tensor::full(64, 64, 0.25);
    c.bench_function("matmul_64x64", |b| {
        b.iter(|| std::hint::black_box(&a).matmul(std::hint::black_box(&bm)))
    });
}

fn bench_gpu_scheduler(c: &mut Criterion) {
    c.bench_function("gpu_enqueue_10k_kernels", |b| {
        b.iter_batched(
            || GpuDevice::new(4),
            |mut gpu| {
                for i in 0..10_000u64 {
                    gpu.enqueue_kernel(
                        StreamId((i % 4) as u32),
                        &KernelDesc::new("k", DurationNs::from_micros(2)),
                        TimeNs::from_nanos(i * 500),
                    );
                }
                gpu
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_overlap,
    bench_interleaved_cold,
    bench_chunk_dir_cold,
    bench_analysis,
    bench_streaming,
    bench_live_snapshot,
    bench_live_seal,
    bench_pushdown,
    bench_compaction,
    bench_multiprocess,
    bench_trace_codec,
    bench_columnar,
    bench_tensor,
    bench_gpu_scheduler
);
criterion_main!(benches);
