//! `dashboard_mixed` — reads beside writes on the same session.
//!
//! Both generators are **open loop**: a dashboard refreshes on a timer
//! whether or not the last answer was quick, and a training job emits
//! events at its own pace. One producer is paced at 30 k events/s in
//! 512-event chunks through the raw client, so each chunk's send →
//! `CHUNK_ACK` time is seen; one dashboard connection issues a query
//! every 100 ms, timed from the instant it was *due*, alternating two
//! live breakdowns of the streaming session, every fifth query a
//! repeated (cached) one on a finished session. It uses the ingest
//! layers the way `ingest_burst` does, but under the session lock and
//! flush barrier a live query takes: a gain for ingest that costs
//! live-query latency, or the reverse, shows here and nowhere else.

use crate::child::{dir_bytes, Daemon, DaemonCost, DaemonOpts};
use crate::common::{
    breakdown_spec, ms, query_client, recover, Env, Metrics, Outcome, Recoverable, ReplayStream,
    Scales,
};
use crate::oracle::{reference, Checks};
use crate::raw::RawClient;
use crate::stats::{least, median};
use crate::synth::{session_events, span_ns};
use rlscope_collector::{CollectorClient, QueryReply, QuerySpec};
use rlscope_core::analysis::Dim;
use rlscope_core::event::Event;
use rlscope_core::store::encode_events;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The producer's pace.
pub const PACE_EVENTS_PER_S: usize = 30_000;
/// Events per chunk.
pub const CHUNK_EVENTS: usize = 512;
/// The dashboard's refresh period.
pub const QUERY_PERIOD: Duration = Duration::from_millis(100);
/// Every this-many-th query is the cached one on the finished session.
pub const CACHED_EVERY: usize = 5;
/// Events in the finished session the cached query targets.
pub const FINISHED_EVENTS: usize = 100_000;
const RECOVERY_PROBES: usize = 9;
/// Cold breakdowns of the finished stream under unique windows, after
/// the one that follows `FINISH_ACK`.
const COLD_QUERIES: usize = 12;

const TAG: &str = "mixed";
const LIVE: &str = "live";
const FINISHED: &str = "finished";

/// The two live views the dashboard alternates.
fn live_spec(view: usize) -> QuerySpec {
    match view % 2 {
        0 => breakdown_spec(LIVE),
        _ => QuerySpec::session(LIVE).group_by([Dim::Process]),
    }
}

pub struct Fixture {
    daemon: Daemon,
    stream: Vec<Event>,
    finished: Vec<Event>,
    checks: Checks,
}

/// Spawns the daemon, generates the stream, and ingests the finished
/// session the cached queries hit (asking once, so the cache is warm).
pub fn setup(env: &Env) -> Result<Fixture, String> {
    let daemon = env.daemon(TAG, DaemonOpts::default())?;
    let chunks = (PACE_EVENTS_PER_S as f64 * env.seconds) as usize / CHUNK_EVENTS;
    let stream = session_events(env.sub_seed(1), 0, chunks.max(1) * CHUNK_EVENTS);
    let finished = session_events(env.sub_seed(2), 4, FINISHED_EVENTS);
    let mut checks = Checks::default();
    let ingest = || -> Result<(), rlscope_collector::CollectorError> {
        let mut client = CollectorClient::open_session(&daemon.socket, FINISHED)?;
        for chunk in finished.chunks(8192) {
            client.send_events(chunk)?;
        }
        client.finish()?;
        client.query(&breakdown_spec(FINISHED)).map(drop)
    };
    checks.ok(ingest(), "ingest the finished session").ok_or("set-up ingest failed")?;
    Ok(Fixture { daemon, stream, finished, checks })
}

fn sleep_until(due: Instant) {
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
}

#[derive(Default)]
struct Produced {
    checks: Checks,
    ack_ms: Vec<f64>,
    lag_ms_max: f64,
    /// First HELLO → last ack.
    stream_s: f64,
    finish_ack_ms: f64,
    breakdown_ms: f64,
    answer: Option<QueryReply>,
}

/// The paced producer. After its last ack it waits for the dashboard
/// to stop (so no dashboard query lands on a finishing session), then
/// finishes and asks for the breakdown.
fn produce(
    daemon: &Daemon,
    stream: &[Event],
    start: Instant,
    dashboard_done: mpsc::Receiver<()>,
) -> Produced {
    let mut out = Produced::default();
    let Some(mut raw) = out.checks.ok(RawClient::open(&daemon.unix(), LIVE), "open live session")
    else {
        return out;
    };
    let period = Duration::from_secs_f64(CHUNK_EVENTS as f64 / PACE_EVENTS_PER_S as f64);
    for (i, chunk) in stream.chunks(CHUNK_EVENTS).enumerate() {
        let due = start + period * i as u32;
        if out.checks.ok(raw.absorb_acks_until(due), "absorb acks").is_none() {
            return out;
        }
        sleep_until(due);
        out.lag_ms_max = out.lag_ms_max.max(ms(due.elapsed()));
        if out.checks.ok(raw.send_chunk(&encode_events(chunk)), "send chunk").is_none() {
            return out;
        }
    }
    if out.checks.ok(raw.drain(), "drain acks").is_none() {
        return out;
    }
    out.stream_s = start.elapsed().as_secs_f64();
    out.checks.check(
        raw.events_acked == stream.len() as u64,
        format_args!("{} events acked, {} sent", raw.events_acked, stream.len()),
    );
    let _ = dashboard_done.recv();
    let Some(finished) = out.checks.ok(raw.finish(), "finish live session") else { return out };
    let t = Instant::now();
    out.answer = out.checks.ok(raw.query(&breakdown_spec(LIVE)), "post-finish breakdown");
    out.breakdown_ms = ms(t.elapsed());
    out.finish_ack_ms = finished.ack_ms;
    out.checks.check(
        finished.events == stream.len() as u64
            && finished.chunks == stream.len().div_ceil(CHUNK_EVENTS) as u64,
        format_args!(
            "{} events in {} chunks durable, {} sent",
            finished.events,
            finished.chunks,
            stream.len()
        ),
    );
    out.ack_ms = std::mem::take(&mut raw.ack_ms);
    out
}

/// One dashboard refresh.
struct Refresh {
    spec: QuerySpec,
    /// From the instant the query was due.
    latency_ms: f64,
    reply: QueryReply,
}

struct Watched {
    checks: Checks,
    refreshes: Vec<Refresh>,
    lag_ms_max: f64,
}

/// The dashboard: one query per period until `end`.
fn watch(daemon: &Daemon, start: Instant, end: Instant) -> Watched {
    let mut out = Watched { checks: Checks::default(), refreshes: Vec::new(), lag_ms_max: 0.0 };
    let Some(mut client) = query_client(&daemon.unix(), &mut out.checks) else { return out };
    for k in 0.. {
        let due = start + QUERY_PERIOD * k as u32;
        if due >= end {
            break;
        }
        sleep_until(due);
        out.lag_ms_max = out.lag_ms_max.max(ms(due.elapsed()));
        let spec = if k % CACHED_EVERY == CACHED_EVERY - 1 {
            breakdown_spec(FINISHED)
        } else {
            live_spec(k - k / CACHED_EVERY)
        };
        let Some(reply) = out.checks.ok(client.query(&spec), "dashboard query") else { continue };
        out.refreshes.push(Refresh { spec, latency_ms: ms(due.elapsed()), reply });
    }
    out
}

pub fn measure(env: &Env, fixture: Fixture) -> Result<Outcome, String> {
    let Fixture { mut daemon, stream, finished, mut checks } = fixture;
    // The machine's speed is probed before and after the stream, never
    // beside it.
    env.speed.probe();
    daemon.mark_cpu();
    let start = Instant::now() + Duration::from_millis(5);
    // The dashboard stops when the last chunk is due, so every one of
    // its queries on the live session finds it streaming.
    let end = start + Duration::from_secs_f64(stream.len() as f64 / PACE_EVENTS_PER_S as f64);
    let (done_tx, done_rx) = mpsc::channel();
    let (produced, watched) = std::thread::scope(|scope| {
        let producer = scope.spawn(|| produce(&daemon, &stream, start, done_rx));
        let dashboard = scope.spawn(|| {
            let watched = watch(&daemon, start, end);
            let _ = done_tx.send(());
            watched
        });
        (producer.join().expect("producer panicked"), dashboard.join().expect("dashboard panicked"))
    });
    let cpu_ns = daemon.cpu_since_mark_ns();
    env.speed.probe();
    checks.merge(produced.checks);
    checks.merge(watched.checks);
    let disk = dir_bytes(&daemon.session_dir(LIVE));

    // The breakdown after `FINISH_ACK` is one sample per run; more
    // cold scans of the same finished stream (a whole-stream window
    // makes each a cache miss with the same answer) say what one costs.
    let mut cold_ms = Vec::new();
    let mut cold_answers = Vec::new();
    if let Some(mut client) = query_client(&daemon.unix(), &mut checks) {
        let end = span_ns(&stream).1;
        for i in 0..COLD_QUERIES {
            let spec = breakdown_spec(LIVE).window(0, end + 1 + i as u64);
            env.speed.probe();
            let t = Instant::now();
            if let Some(reply) = checks.ok(client.query(&spec), "cold breakdown") {
                cold_ms.push(ms(t.elapsed()));
                cold_answers.push(reply.canonical_json);
            }
        }
    }

    let sessions = [
        Recoverable { name: LIVE, events: &stream, live: false },
        Recoverable { name: FINISHED, events: &finished, live: false },
    ];
    let mut probe_cost = DaemonCost::default();
    let mut recovery_s = Vec::new();
    let mut bind_ms = Vec::new();
    for _ in 0..RECOVERY_PROBES {
        env.speed.probe();
        let (next, wall_s) = recover(
            env,
            TAG,
            DaemonOpts::default(),
            daemon,
            &mut probe_cost,
            &sessions,
            &mut checks,
        )?;
        recovery_s.push(wall_s);
        daemon = next;
        bind_ms.push(daemon.bind_ms);
    }
    daemon.kill(&mut probe_cost);

    // Every answer against the batch analysis of exactly the prefix it
    // says it covers; a live prefix is always whole chunks.
    let finished_want = reference(&finished, &breakdown_spec(FINISHED));
    let (mut live_ms, mut cached_ms) = (Vec::new(), Vec::new());
    let mut cache_hits = 0usize;
    for (k, refresh) in watched.refreshes.iter().enumerate() {
        let reply = &refresh.reply;
        if refresh.spec == breakdown_spec(FINISHED) {
            checks.same_json(&reply.canonical_json, &finished_want, format_args!("refresh {k}"));
            cache_hits += usize::from(reply.cache_hit);
            cached_ms.push(refresh.latency_ms);
            continue;
        }
        let observed = reply.events_observed as usize;
        checks.check(
            reply.live && observed <= stream.len() && observed.is_multiple_of(CHUNK_EVENTS),
            format_args!("refresh {k}: live={} over {observed} events", reply.live),
        );
        let prefix = &stream[..observed.min(stream.len())];
        let want = reference(prefix, &refresh.spec);
        checks.same_json(&reply.canonical_json, &want, format_args!("refresh {k} at {observed}"));
        live_ms.push(refresh.latency_ms);
    }
    let Some(answer) = produced.answer else {
        return Err(format!("the live session never finished: {:?}", checks.failures));
    };
    let breakdown_want = reference(&stream, &breakdown_spec(LIVE));
    checks.same_json(&answer.canonical_json, &breakdown_want, "post-finish breakdown");
    for (i, got) in cold_answers.iter().enumerate() {
        checks.same_json(got, &breakdown_want, format_args!("cold breakdown {i}"));
    }
    if live_ms.is_empty() || cached_ms.is_empty() || cold_ms.is_empty() {
        return Err(format!("the dashboard got no answers: {:?}", checks.failures));
    }

    let events = stream.len() as f64;
    let mut m = Metrics::default();
    // Paced, so bound by the pace and not by the machine's speed: as
    // measured.
    m.push("ingest_events_per_s", events / produced.stream_s, "events/s", 1);
    let finish_to_breakdown_ms = produced.finish_ack_ms + median(&cold_ms);
    m.push_gated(
        "finish_to_breakdown_ms",
        finish_to_breakdown_ms,
        Scales::Duration,
        "ms",
        cold_ms.len(),
    );
    m.push_gated_median("query_ms_p50", &live_ms, "ms");
    m.push_gated("daemon_cpu_ns_per_event", cpu_ns as f64 / events, Scales::Duration, "ns", 1);
    m.push("disk_bytes_per_event", disk as f64 / events, "B", 1);
    m.push_gated_median("recovery_s", &recovery_s, "s");

    m.push_median("daemon.chunk_ack_ms_p50", &produced.ack_ms, "ms");
    m.push_tail("daemon.chunk_ack_ms_p99", &produced.ack_ms, 0.99, "ms");
    m.push_median("daemon.live_query_ms_p50", &live_ms, "ms");
    m.push_tail("daemon.live_query_ms_p90", &live_ms, 0.90, "ms");
    m.push("daemon.peak_rss_mb", probe_cost.peak_rss_kb as f64 / 1024.0, "MB", 1);
    m.push("daemon.finish_ack_ms", produced.finish_ack_ms, "ms", 1);
    // The post-finish breakdown is a cold scan like the rest.
    cold_ms.push(produced.breakdown_ms);
    m.push_median("daemon.query_cold_ms_p50", &cold_ms, "ms");
    m.push("daemon.query_cold_ms_min", least(&cold_ms), "ms", cold_ms.len());
    m.push_median("daemon.query_cached_ms_p50", &cached_ms, "ms");
    m.push("daemon.cache_hit_share", cache_hits as f64 / cached_ms.len() as f64, "share", 1);
    m.push("daemon.generator_lag_ms_max", produced.lag_ms_max.max(watched.lag_ms_max), "ms", 1);
    m.push_median("registry.bind_recover_ms", &bind_ms, "ms");

    Ok(Outcome {
        metrics: m,
        checks,
        sizes: vec![
            ("pace_events_per_s", PACE_EVENTS_PER_S as f64),
            ("chunk_events", CHUNK_EVENTS as f64),
            ("query_period_ms", ms(QUERY_PERIOD)),
            ("cached_every", CACHED_EVERY as f64),
            ("stream_events", events),
            ("finished_events", FINISHED_EVENTS as f64),
            ("queries", watched.refreshes.len() as f64),
        ],
        replay: ReplayStream { events: stream, chunk_events: CHUNK_EVENTS, cold_window: false },
    })
}
