//! The traced run: the workload's exact chunk stream replayed, single
//! threaded, through each layer's public functions, with an in-memory
//! span around every call. Spans live in the benchmark's own files;
//! spans inside the program are a later issue.
//!
//! Per-layer numbers are a span name's total time over the events that
//! went through it. They come from here and never from the untraced
//! run; end-to-end numbers come from the untraced run and never from
//! here.

use crate::child::dir_bytes;
use crate::common::{Env, Metrics, ReplayStream, BREAKDOWN};
use crate::json::Value;
use crate::oracle::{reference, Checks};
use crate::stats::{least, median};
use crate::synth::{session_events, span_ns};
use crate::train_stream;
use rlscope_collector::protocol::kind;
use rlscope_collector::{QueryAllReply, QueryReply, QuerySpec};
use rlscope_core::analysis::{Analysis, GroupKey, LiveState};
use rlscope_core::event::Event;
use rlscope_core::overlap::{compute_overlap_columns, BreakdownTable, OverlapSweep};
use rlscope_core::rollup::rollup_chunk_dir;
use rlscope_core::store::{
    decode_columns, encode_events, read_chunk_footer, read_frame, recover_chunk_prefix,
    reorder_chunk_dir, write_frame_parts, EventColumns, Manifest, ManifestEntry,
};
use rlscope_sim::time::TimeNs;
use rlscope_workloads::validate_correction;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The daemon's sorted-tier chunk size and default rollup segment.
const SORTED_CHUNK_BYTES: usize = 1 << 20;
const SEGMENT_NS: u64 = 1_000_000_000;
/// Steps of the training spec the accuracy guard calibrates (seven
/// runs of it; deterministic on the virtual clock).
const CORRECTION_STEPS: usize = 300;
/// The paper's bound on the corrected time's bias, in percent.
pub const BIAS_BOUND_PCT: f64 = 16.0;
/// Prefix sizes the live-snapshot cost is taken at, and their spans.
const SNAPSHOT_AT: [(usize, &str); 2] =
    [(100_000, "analysis.live_snapshot@100k"), (600_000, "analysis.live_snapshot@600k")];
/// Times the stream is passed through the write path and the ladder,
/// and times each heavy query is asked.
const PASSES: usize = 3;
/// Times the finished-dir scan is asked: `reconcile.query_cold_ratio`
/// sets its fastest against the fastest of the daemon's dozens, and a
/// minimum over too few samples would not reach the same floor.
const COLD_QUERIES: u64 = 9;
/// Times each light query is asked (codecs: ten times as often).
const REPEATS: u64 = 20;

/// One recorded interval. `id` is the chunk sequence number or query
/// number the span belongs to; `parent` indexes [`Tracer::spans`].
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub id: u64,
}

/// Spans kept in memory and written out once, when the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that will have children; close it with
    /// [`Tracer::close`].
    fn open(&mut self, name: &'static str, parent: Option<u32>, id: u64) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, id });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    fn span<T>(&mut self, name: &'static str, parent: u32, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, Some(parent), id);
        let value = f();
        self.close(span);
        value
    }

    /// Per pass (parent span), the total time of its spans called
    /// `name`, in nanoseconds.
    fn pass_totals_ns(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(Option<u32>, f64)> = Vec::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            let ns = (span.end_ns - span.start_ns) as f64;
            match totals.iter_mut().find(|(parent, _)| *parent == span.parent) {
                Some((_, total)) => *total += ns,
                None => totals.push((span.parent, ns)),
            }
        }
        totals.into_iter().map(|(_, total)| total).collect()
    }

    /// Durations of every span called `name`, in nanoseconds.
    fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("unit", Value::str("ns since the traced run started")),
            (
                "spans",
                Value::Arr(
                    self.spans
                        .iter()
                        .map(|s| {
                            Value::obj([
                                ("name", Value::str(s.name)),
                                ("start", Value::Num(s.start_ns as f64)),
                                ("end", Value::Num(s.end_ns as f64)),
                                (
                                    "parent",
                                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                                ),
                                ("id", Value::Num(s.id as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// The traced replay's results.
pub struct Replayed {
    pub metrics: Metrics,
    pub checks: Checks,
    pub tracer: Tracer,
    pub wall_s: f64,
}

fn io(e: rlscope_core::store::TraceIoError) -> String {
    format!("traced replay: {e}")
}

/// The directories one pass fills, and what it found on the way.
struct Pass {
    raw_dir: PathBuf,
    rollup_dir: PathBuf,
    encoded_bytes: usize,
    segments: usize,
    /// The batch sweep's table over the whole stream.
    table: BreakdownTable,
}

/// One pass of the stream through the write path and down the storage
/// ladder, every call inside a span whose parent is `pass`.
///
/// Each layer takes the whole chunk stream in its own loop, as each has
/// its own thread in the client or the daemon: interleaving them per
/// chunk in this one thread would charge every layer for its
/// neighbours' cache misses. A span's `id` is the chunk's sequence
/// number.
fn run_pass(
    tracer: &mut Tracer,
    pass: u32,
    env: &Env,
    stream: &ReplayStream,
    checks: &mut Checks,
) -> Result<Pass, String> {
    let events = &stream.events;
    let raw_dir = env.scratch.subdir("replay_raw")?;
    let chunks: Vec<&[Event]> = events.chunks(stream.chunk_events).collect();
    let ids = || 0..chunks.len() as u64;
    let encoded: Vec<_> = chunks
        .iter()
        .zip(ids())
        .map(|(chunk, id)| tracer.span("store.encode", pass, id, || encode_events(chunk)))
        .collect();
    let encoded_bytes: usize = encoded.iter().map(|bytes| bytes.len()).sum();
    // One thread plays both ends of the socket, so a chunk must fit its
    // buffer whole; every workload's chunks do, by a wide margin.
    if let Some(big) = encoded.iter().find(|bytes| bytes.len() > 128 << 10) {
        return Err(format!("a {}-byte chunk is too big to frame in one thread", big.len()));
    }
    let (mut tx, mut rx) = UnixStream::pair().map_err(|e| format!("socketpair: {e}"))?;
    let mut payloads = Vec::with_capacity(chunks.len());
    for (bytes, id) in encoded.iter().zip(ids()) {
        tracer
            .span("store.frame_write", pass, id, || {
                write_frame_parts(&mut tx, kind::CHUNK, &id.to_be_bytes(), bytes)
            })
            .map_err(io)?;
        let (_, payload) = tracer
            .span("store.frame_read", pass, id, || read_frame(&mut rx))
            .map_err(io)?
            .ok_or("socket pair closed")?;
        payloads.push(payload);
    }
    drop(encoded);
    // What the daemon persists and decodes: the frame minus its seq.
    let bodies: Vec<&[u8]> = payloads.iter().map(|payload| &payload[8..]).collect();
    let mut columns = Vec::with_capacity(chunks.len());
    for (body, id) in bodies.iter().zip(ids()) {
        columns.push(
            tracer.span("store.decode_columns", pass, id, || decode_columns(body)).map_err(io)?,
        );
    }
    let mut live = LiveState::new();
    for (cols, id) in columns.iter().zip(ids()) {
        tracer
            .span("analysis.live_push", pass, id, || live.push_columns(cols))
            .map_err(|e| format!("live push: {e}"))?;
    }
    drop(live);
    // Verbatim chunk bytes to files, a manifest entry from each chunk's
    // own footer, and the manifest written once at finish.
    let mut entries = Vec::with_capacity(chunks.len());
    for (body, id) in bodies.iter().zip(ids()) {
        let file = format!("chunk_{id:05}.rls");
        let footer = tracer
            .span("store.persist", pass, id, || {
                std::fs::write(raw_dir.join(&file), body)?;
                read_chunk_footer(body)
            })
            .map_err(io)?
            .ok_or("an encoded chunk carries its footer")?;
        entries.push(ManifestEntry { file, size: body.len() as u64, footer });
    }
    tracer
        .span("store.persist", pass, 0, || Manifest::from_entries(&raw_dir, entries).write())
        .map_err(io)?;
    let mut sweep = OverlapSweep::new().with_phase_tagging();
    for (cols, id) in columns.iter().zip(ids()) {
        tracer
            .span("overlap.stream_push", pass, id, || sweep.push_columns(cols))
            .map_err(|e| format!("sweep push: {e}"))?;
    }
    drop(columns);
    drop(payloads);
    let streamed = tracer.span("overlap.stream_push", pass, 0, || sweep.finalize());

    // The batch engine over the whole stream.
    let all = EventColumns::from_events(events);
    let table = tracer.span("overlap.sweep_columns", pass, 0, || compute_overlap_columns(&all));
    checks.check(streamed == table, "streaming sweep differs from the batch sweep");
    drop(all);

    // Recovery, then the storage ladder.
    let recovered = tracer
        .span("store.recover_prefix", pass, 0, || recover_chunk_prefix(&raw_dir, |_| {}))
        .map_err(io)?;
    checks.check(
        recovered.events() == events.len() as u64 && recovered.removed.is_empty(),
        format_args!("recovery kept {} of {} events", recovered.events(), events.len()),
    );
    let sorted_dir = env.scratch.subdir("replay_sorted")?;
    tracer
        .span("store.reorder", pass, 0, || {
            reorder_chunk_dir(&raw_dir, &sorted_dir, SORTED_CHUNK_BYTES)
        })
        .map_err(io)?;
    let rollup_dir = env.scratch.subdir("replay_rollup")?;
    let rolled = tracer
        .span("rollup.build", pass, 0, || rollup_chunk_dir(&sorted_dir, &rollup_dir, SEGMENT_NS))
        .map_err(io)?;
    Ok(Pass { raw_dir, rollup_dir, encoded_bytes, segments: rolled.segments, table })
}

/// Replays `stream` through every layer.
pub fn replay(env: &Env, stream: &ReplayStream) -> Result<Replayed, String> {
    let started = Instant::now();
    let events = &stream.events;
    let n = events.len() as f64;
    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let root = tracer.open("replay", None, 0);

    let mut last = None;
    for pass in 0..PASSES {
        let span = tracer.open("pass", Some(root), pass as u64);
        last = Some(run_pass(&mut tracer, span, env, stream, &mut checks)?);
        tracer.close(span);
    }
    let Pass { raw_dir, rollup_dir, encoded_bytes, segments, table } = last.expect("PASSES > 0");

    let (lo, hi) = span_ns(events);
    let sixteenth = (hi - lo) / 16;
    let window = (TimeNs::from_nanos(lo + 6 * sixteenth), TimeNs::from_nanos(lo + 9 * sixteenth));
    let (selected, total) = Analysis::from_chunk_dir(&raw_dir)
        .time_window(window.0, window.1)
        .group_by(BREAKDOWN)
        .chunk_plan()
        .map_err(|e| format!("chunk plan: {e}"))?
        .ok_or("a chunk dir always has a plan")?;

    // Queries: the finished-dir scan (with the workload's own cold
    // window), then the same breakdown from the rollup.
    let want = reference(events, &QuerySpec::session("any").group_by(BREAKDOWN));
    for q in 0..COLD_QUERIES {
        let answer = tracer
            .span("analysis.chunk_dir_query", root, q, || {
                let mut analysis = Analysis::from_chunk_dir(&raw_dir).group_by(BREAKDOWN);
                if stream.cold_window {
                    analysis = analysis.time_window(TimeNs::ZERO, TimeNs::from_nanos(hi + 1));
                }
                analysis.canonical_json()
            })
            .map_err(|e| format!("chunk dir query: {e}"))?;
        checks.same_json(&answer, &want, "in-process chunk-dir query");
    }
    for q in 0..REPEATS {
        let answer = tracer
            .span("analysis.rollup_query", root, q, || {
                Analysis::from_rollup_dir(&rollup_dir).group_by(BREAKDOWN).canonical_json()
            })
            .map_err(|e| format!("rollup query: {e}"))?;
        checks.same_json(&answer, &want, "in-process rollup query");
    }

    // What a live query costs at two prefix sizes — independent of the
    // workload's own stream length, so the sizes mean the same on all.
    let probe = session_events(env.sub_seed(99), 0, SNAPSHOT_AT[1].0);
    let mut live_probe = LiveState::new();
    let mut fed = 0;
    for (at, name) in SNAPSHOT_AT {
        for chunk in probe[fed..at].chunks(8192) {
            live_probe
                .push_columns(&EventColumns::from_events(chunk))
                .map_err(|e| format!("live push: {e}"))?;
        }
        fed = at;
        for q in 0..PASSES as u64 {
            tracer
                .span(name, root, q, || {
                    let tables = live_probe.snapshot();
                    Analysis::of_live(&tables).group_by(BREAKDOWN).canonical_json()
                })
                .map_err(|e| format!("live snapshot: {e}"))?;
        }
    }
    drop(probe);

    // Wire codecs at the sizes the workloads see, and the fleet merge
    // of eight session tables.
    let spec = QuerySpec::session("session-name").group_by(BREAKDOWN).window(0, hi);
    let reply = QueryReply {
        live: false,
        cache_hit: false,
        events_observed: n as u64,
        canonical_json: want,
    };
    let tables: Vec<(GroupKey, BreakdownTable)> = (0..8)
        .map(|s| {
            let key = GroupKey {
                session: Some(Arc::from(format!("s{s}"))),
                phase: None,
                process: None,
                operation: None,
            };
            (key, table.clone())
        })
        .collect();
    let all_reply = QueryAllReply {
        live: false,
        events_observed: n as u64,
        sessions: (0..8).map(|s| format!("s{s}")).collect(),
        groups: tables.clone(),
    };
    for q in 0..10 * REPEATS {
        let ok = tracer.span("protocol.query_codec", root, q, || {
            QuerySpec::decode(&spec.encode()).is_ok() && QueryReply::decode(&reply.encode()).is_ok()
        });
        let all_ok = tracer.span("protocol.query_all_codec", root, q, || {
            QueryAllReply::decode(&all_reply.encode()).is_ok()
        });
        let merged = tracer.span("fleet.merge", root, q, || {
            let mut merged = BreakdownTable::new();
            for (_, table) in &tables {
                merged.merge(table);
            }
            merged
        });
        if q == 0 {
            checks.check(ok && all_ok, "a codec did not round-trip");
            checks.check(
                merged.total().as_nanos() == 8 * table.total().as_nanos(),
                "fleet merge lost time",
            );
        }
    }

    // The accuracy guard: profiling must stay correctable.
    let bias = tracer.span("correct.validate", root, 0, || {
        validate_correction(&train_stream::spec(env.seed, CORRECTION_STEPS), "ddpg")
    });
    checks.check(
        bias.bias_percent.abs() <= BIAS_BOUND_PCT,
        format_args!(
            "correction bias {:.2}% exceeds the paper's {BIAS_BOUND_PCT}%",
            bias.bias_percent
        ),
    );
    tracer.close(root);

    // A layer run once per pass reports its least disturbed pass (see
    // `stats::least`); one run a few times its least disturbed call;
    // one run many times its median call.
    let per_event = |name: &str| least(&tracer.pass_totals_ns(name)) / n;
    let least_ms = |name: &str| least(&tracer.durations_ns(name)) / 1e6;
    let median_us = |name: &str| median(&tracer.durations_ns(name)) / 1e3;
    let many = 10 * REPEATS as usize;
    let mut m = Metrics::default();
    m.push("store.encode_ns_per_event", per_event("store.encode"), "ns", PASSES);
    m.push("store.decode_columns_ns_per_event", per_event("store.decode_columns"), "ns", PASSES);
    m.push(
        "store.frame_ns_per_event",
        per_event("store.frame_write") + per_event("store.frame_read"),
        "ns",
        PASSES,
    );
    m.push("store.frame_read_ns_per_event", per_event("store.frame_read"), "ns", PASSES);
    m.push("store.persist_ns_per_event", per_event("store.persist"), "ns", PASSES);
    m.push("store.encoded_bytes_per_event", encoded_bytes as f64 / n, "B", 1);
    m.push("store.reorder_ns_per_event", per_event("store.reorder"), "ns", PASSES);
    m.push("store.recover_prefix_ns_per_event", per_event("store.recover_prefix"), "ns", PASSES);
    m.push("store.pushdown_selected_share", selected as f64 / total.max(1) as f64, "share", 1);
    m.push("overlap.sweep_columns_ns_per_event", per_event("overlap.sweep_columns"), "ns", PASSES);
    m.push("overlap.stream_push_ns_per_event", per_event("overlap.stream_push"), "ns", PASSES);
    m.push("analysis.live_push_ns_per_event", per_event("analysis.live_push"), "ns", PASSES);
    m.push("analysis.live_snapshot_ms_at_100k", least_ms(SNAPSHOT_AT[0].1), "ms", PASSES);
    m.push("analysis.live_snapshot_ms_at_600k", least_ms(SNAPSHOT_AT[1].1), "ms", PASSES);
    m.push(
        "analysis.chunk_dir_query_ns_per_event",
        least_ms("analysis.chunk_dir_query") * 1e6 / n,
        "ns",
        COLD_QUERIES as usize,
    );
    m.push("analysis.rollup_query_us", median_us("analysis.rollup_query"), "us", REPEATS as usize);
    m.push("rollup.build_ns_per_event", per_event("rollup.build"), "ns", PASSES);
    m.push("rollup.segments", segments as f64, "count", 1);
    m.push("rollup.bytes_per_event", dir_bytes(&rollup_dir) as f64 / n, "B", 1);
    m.push("correct.abs_bias_pct_max", bias.bias_percent.abs(), "%", 1);
    m.push("correct.inflation_ratio", bias.inflation(), "x", 1);
    m.push("protocol.query_codec_us", median_us("protocol.query_codec"), "us", many);
    m.push("protocol.query_all_codec_us", median_us("protocol.query_all_codec"), "us", many);
    m.push("fleet.merge_us", median_us("fleet.merge"), "us", many);
    Ok(Replayed { metrics: m, checks, tracer, wall_s: started.elapsed().as_secs_f64() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_by_name() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root", None, 0);
        tracer.span("leaf", root, 1, || std::hint::black_box(1 + 1));
        tracer.span("leaf", root, 2, || std::hint::black_box(2 + 2));
        tracer.close(root);
        let total = (tracer.spans[0].end_ns - tracer.spans[0].start_ns) as f64;
        let leaves = tracer.durations_ns("leaf");
        assert_eq!(leaves.len(), 2);
        assert!(leaves.iter().sum::<f64>() <= total);
        assert_eq!(tracer.durations_ns("root"), [total]);
        // Both leaves share a parent, so they are one pass.
        assert_eq!(tracer.pass_totals_ns("leaf"), [leaves[0] + leaves[1]]);
        assert_eq!(tracer.spans[2].parent, Some(root));
        assert_eq!(tracer.spans[2].id, 2);
        let doc = tracer.to_json();
        assert_eq!(doc.get("spans").and_then(Value::as_arr).map(<[Value]>::len), Some(3));
    }
}
