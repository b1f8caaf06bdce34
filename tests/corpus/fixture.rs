// The golden-corpus event fixture, shared (via `include!`) by the
// corpus generator (`examples/gen_corpus.rs`) and the drift harness
// (`tests/golden.rs`). Deliberately adversarial but fully deterministic:
// every event kind, multiple processes, nested and non-LIFO operation
// scopes, duplicate operation names, zero-length intervals, timestamp
// ties, end-ordered (profiler-style) disorder, and names that stress
// UTF-8 handling and JSON escaping.
//
// **Changing this fixture invalidates the checked-in corpus files** —
// regenerate them with `cargo run --example gen_corpus` and review the
// resulting diff as a deliberate format/semantics change.

/// Builds the fixture event stream (stable order, stable contents).
pub fn corpus_events() -> Vec<rlscope::core::Event> {
    use rlscope::core::event::{CpuCategory, Event, EventKind, GpuCategory};
    use rlscope::sim::ids::ProcessId;
    use rlscope::sim::time::TimeNs;

    let e = |pid: u32, kind: EventKind, name: &str, start: u64, end: u64| {
        Event::new(ProcessId(pid), kind, name, TimeNs::from_nanos(start), TimeNs::from_nanos(end))
    };
    let mut events = vec![
        // A regular annotated phase on pid 0: nested operations with CPU
        // carve-outs and GPU overlap (Figure-3-style arithmetic).
        e(0, EventKind::Phase, "training", 0, 100_000),
        e(0, EventKind::Operation, "mcts_tree_search", 0, 40_500),
        e(0, EventKind::Operation, "expand_leaf", 10_000, 39_500),
        e(0, EventKind::Cpu(CpuCategory::Python), "py", 0, 40_500),
        e(0, EventKind::Cpu(CpuCategory::Backend), "be", 12_000, 30_000),
        e(0, EventKind::Cpu(CpuCategory::CudaApi), "cudaLaunchKernel", 14_000, 19_000),
        e(0, EventKind::Gpu(GpuCategory::Kernel), "matmul_kernel", 14_500, 23_000),
        e(0, EventKind::Gpu(GpuCategory::Memcpy), "HtoD", 27_000, 35_500),
        // pid 1: duplicate operation names (recursion), a non-LIFO close,
        // simulator time, and a timestamp tie with pid 0's boundaries.
        e(1, EventKind::Operation, "simulate", 5_000, 60_000),
        e(1, EventKind::Operation, "simulate", 20_000, 30_000),
        e(1, EventKind::Operation, "overlap_a", 35_000, 50_000),
        e(1, EventKind::Operation, "overlap_b", 40_000, 55_000),
        e(1, EventKind::Cpu(CpuCategory::Simulator), "mujoco", 5_000, 58_000),
        e(1, EventKind::Cpu(CpuCategory::Python), "py", 0, 62_000),
        e(1, EventKind::Gpu(GpuCategory::Kernel), "render", 40_500, 40_500), // zero-length
        e(1, EventKind::Gpu(GpuCategory::Kernel), "render", 41_000, 47_000),
        // pid 2: untracked CPU/GPU time only, with exotic names
        // exercising string-table dedup, UTF-8, and JSON escaping.
        e(2, EventKind::Cpu(CpuCategory::Backend), "tensor→grad \"fast\"", 1_000, 9_000),
        e(2, EventKind::Cpu(CpuCategory::Backend), "tensor→grad \"fast\"", 9_000, 12_000),
        e(2, EventKind::Gpu(GpuCategory::Kernel), "kernel\tλ", 2_000, 6_000),
        // End-ordered (record-at-close) disorder: later records starting
        // earlier, as real profiler streams produce.
        e(0, EventKind::Cpu(CpuCategory::Python), "py", 50_000, 90_000),
        e(0, EventKind::Operation, "checkpoint", 45_000, 95_000),
        e(0, EventKind::Cpu(CpuCategory::CudaApi), "cudaMemcpyAsync", 52_000, 54_000),
    ];

    // A deterministic near-chronological tail over all pids: ties,
    // adjacent intervals, and rotating kinds/names.
    let mut t = 60_000u64;
    for i in 0..40u64 {
        let pid = (i % 3) as u32;
        let (kind, name) = match i % 5 {
            0 => (EventKind::Cpu(CpuCategory::Python), "py"),
            1 => (EventKind::Cpu(CpuCategory::Backend), "be"),
            2 => (EventKind::Cpu(CpuCategory::CudaApi), "cudaLaunchKernel"),
            3 => (EventKind::Gpu(GpuCategory::Kernel), "matmul_kernel"),
            _ => (EventKind::Cpu(CpuCategory::Simulator), "mujoco"),
        };
        events.push(e(pid, kind, name, t, t + 700 + (i % 4) * 150));
        if i % 8 == 0 {
            events.push(e(pid, EventKind::Operation, "tail_op", t, t + 2_000));
        }
        t += 400 + (i % 3) * 100;
    }
    events
}

/// The declaration `corpus_declared.rls` carries beside the fixture
/// events: a phase still open on pid 2 and two operations opened at the
/// same instant on pid 1 (so their close order decides their nesting).
pub fn corpus_cut() -> rlscope::core::store::Cut {
    use rlscope::core::store::{Cut, OpenScope};
    let scope = |pid, phase, name: &str, start| OpenScope { pid, phase, name: name.into(), start };
    Cut {
        at: 100_000,
        frontier: 99_000,
        open: vec![
            scope(2, true, "evaluation", 1_000),
            scope(1, false, "rollout", 41_000),
            scope(1, false, "rollout_step", 41_000),
        ],
    }
}

/// The legacy v1 encoding of `events`, which the library reads but no
/// longer writes: `count:u32`, then per event the fixed-width record
/// `pid:u32 | tag:u8 | name_len:u16 | name | start:u64 | end:u64`
/// (big-endian), its tag and name as
/// [`rlscope::core::store::EventColumns::from_events`] gives them. Over
/// the fixtures it equals the checked-in `corpus_v1.rls` and
/// `corpus_extreme.rls` byte for byte.
pub fn encode_legacy_v1(events: &[rlscope::core::Event]) -> Vec<u8> {
    let cols = rlscope::core::store::EventColumns::from_events(events);
    let mut out = b"RLSCOPE1".to_vec();
    out.extend_from_slice(&(cols.len() as u32).to_be_bytes());
    for i in 0..cols.len() {
        let name = cols.names[cols.name_ids[i] as usize].as_bytes();
        out.extend_from_slice(&cols.pids[i].to_be_bytes());
        out.push(cols.kinds[i]);
        out.extend_from_slice(&(name.len() as u16).to_be_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&cols.starts[i].to_be_bytes());
        out.extend_from_slice(&cols.ends[i].to_be_bytes());
    }
    out
}

/// The legacy v2 encoding of `events`, which the library reads but no
/// longer writes: the v3 bytes with the magic swapped and the footer
/// trailer (`payload | len:u32 | "RLF3"`) cut. Over the fixture it
/// equals the checked-in `corpus_v2.rls` byte for byte.
pub fn encode_legacy_v2(events: &[rlscope::core::Event]) -> Vec<u8> {
    let v3 = rlscope::core::store::encode_events(events);
    let (body, trailer) = v3.split_at(v3.len() - 8);
    let footer_len = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    [&b"RLSCOPE2"[..], &body[8..body.len() - footer_len as usize]].concat()
}

/// Extreme-timestamp fixture: starts above `i64::MAX`. The checked-in
/// `corpus_extreme.rls` holds them as v1, which the library wrote for
/// such starts before v3 start deltas wrapped mod 2^64;
/// [`rlscope::core::store::encode_events`] now writes them as v3.
pub fn corpus_extreme_events() -> Vec<rlscope::core::Event> {
    use rlscope::core::event::{CpuCategory, Event, EventKind, GpuCategory};
    use rlscope::sim::ids::ProcessId;
    use rlscope::sim::time::TimeNs;

    let e = |pid: u32, kind: EventKind, name: &str, start: u64, end: u64| {
        Event::new(ProcessId(pid), kind, name, TimeNs::from_nanos(start), TimeNs::from_nanos(end))
    };
    vec![
        e(0, EventKind::Operation, "edge", u64::MAX - 10_000, u64::MAX - 1),
        e(0, EventKind::Cpu(CpuCategory::Python), "py", u64::MAX - 9_000, u64::MAX - 4_000),
        e(0, EventKind::Gpu(GpuCategory::Kernel), "k", u64::MAX - 6_000, u64::MAX - 2_000),
    ]
}

/// First-seen-pid-order per-process tables over an event slice — the
/// same partition and sweep `Analysis::group_by([Dim::Process])`
/// performs, built independently of it: each pid's events are copied
/// into their own `Vec` and swept by `Analysis::of_events`. Shared by
/// the generator and the harness so the two can never disagree on the
/// per-pid reference.
pub fn per_pid_tables(
    events: &[rlscope::core::Event],
) -> Vec<(rlscope::sim::ids::ProcessId, rlscope::core::BreakdownTable)> {
    use rlscope::core::analysis::Analysis;
    use rlscope::sim::ids::ProcessId;

    let mut order: Vec<(ProcessId, Vec<rlscope::core::Event>)> = Vec::new();
    for e in events {
        match order.iter_mut().find(|(p, _)| *p == e.pid) {
            Some((_, own)) => own.push(e.clone()),
            None => order.push((e.pid, vec![e.clone()])),
        }
    }
    order
        .into_iter()
        .map(|(pid, own)| {
            let table = Analysis::of_events(&own).table().expect("in-memory analysis");
            (pid, table)
        })
        .collect()
}

/// Canonical JSON for a set of per-process tables: one object keyed
/// `"pid_N"` (in given order) whose values are each table's
/// [`rlscope::core::BreakdownTable::canonical_json`] array.
pub fn per_pid_canonical_json(
    tables: &[(rlscope::sim::ids::ProcessId, rlscope::core::BreakdownTable)],
) -> String {
    let mut out = String::from("{\n");
    for (i, (pid, table)) in tables.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!("\"pid_{}\": ", pid.as_u32()));
        out.push_str(table.canonical_json().trim_end());
    }
    out.push_str("\n}\n");
    out
}

/// Batch size (events per `TraceWriter::write`) of the fixture's
/// deterministic chunk directory — shared by the manifest golden's
/// generator and harness so the chunk boundaries can never drift apart.
pub const CORPUS_DIR_BATCH: usize = 5;

/// Rotation threshold of the fixture's deterministic chunk directory.
pub const CORPUS_DIR_CHUNK_BYTES: usize = 256;

/// Segment window of the fixture's frozen rollup (`corpus_rollup/`) —
/// shared by the generator and the harness so the segment grid can
/// never drift apart. Coarse enough for a handful of segments over the
/// fixture's ~100 µs span, fine enough that cross-segment merging is
/// actually exercised.
pub const CORPUS_ROLLUP_SEGMENT_NS: u64 = 25_000;

/// Writes the fixture's deterministic chunk directory (fresh) through
/// `TraceWriter` and returns the bytes of the `MANIFEST` export of the
/// index `Manifest::open` reads off its chunks — the manifest golden's
/// subject. The export is written into the directory, then read back.
pub fn write_corpus_chunk_dir(dir: &std::path::Path) -> Vec<u8> {
    use rlscope::core::store::{Manifest, TraceWriter, MANIFEST_FILE};

    let _ = std::fs::remove_dir_all(dir);
    let writer = TraceWriter::create(dir, CORPUS_DIR_CHUNK_BYTES).unwrap();
    for chunk in corpus_events().chunks(CORPUS_DIR_BATCH) {
        writer.write(chunk.to_vec());
    }
    writer.finish().unwrap();
    Manifest::open(dir).unwrap().write().unwrap();
    std::fs::read(dir.join(MANIFEST_FILE)).unwrap()
}

/// The fixed Minigo round behind the phase-report golden: small enough
/// to run in a test, large enough to exercise all three phases.
/// Reproducible because MCTS priors travel through sorted maps.
pub fn minigo_golden_config() -> rlscope::workloads::minigo::MinigoConfig {
    rlscope::workloads::minigo::MinigoConfig {
        workers: 2,
        games_per_worker: 1,
        sims_per_move: 4,
        board: 5,
        max_moves: 10,
        eval_games: 1,
        sgd_steps: 2,
        smi_period: rlscope::sim::time::DurationNs::from_millis(2),
        seed: 11,
    }
}

/// Canonical per-phase JSON of one golden Minigo round
/// (`Analysis::of(&merged).group_by([Dim::Phase])`): the frozen form of
/// `MinigoResult::phase_report`'s underlying tables.
pub fn minigo_phase_canonical_json() -> String {
    use rlscope::core::analysis::{Analysis, Dim};

    let result = rlscope::workloads::minigo::run_minigo(&minigo_golden_config());
    Analysis::of(&result.merged).group_by([Dim::Phase]).canonical_json().unwrap()
}
