//! `ingest_burst` — the write path alone, with a crash in the middle.
//!
//! Closed loop, two producer threads and connections, default credit
//! window, no queries while streaming. Per round, on a fresh daemon
//! and data dir: producer A streams a whole session through the public
//! `CollectorClient::send_events` and finishes; producer B streams 75 %
//! of its session through the raw client (so each chunk's ack time is
//! seen) and stops once every sent chunk is acknowledged. The daemon is
//! then SIGKILLed and restarted on the same data dir; B resumes with
//! its epoch, sends the rest and finishes. `store` encode/decode,
//! `LiveState` apply, verbatim persist, `protocol` acks and `registry`
//! recovery dominate; query and compaction code do nothing until the
//! answers are checked after the clock stops.

use crate::child::{dir_bytes, Daemon, DaemonCost, DaemonOpts};
use crate::common::{
    breakdown_spec, ms, query_client, recover, Env, Metrics, Outcome, Recoverable, ReplayStream,
    Scales,
};
use crate::oracle::{reference, Checks};
use crate::raw::RawClient;
use crate::stats::{greatest, least, median};
use crate::synth::session_events;
use rlscope_collector::CollectorClient;
use rlscope_core::event::Event;
use rlscope_core::store::encode_events;
use std::time::Instant;

/// Events each producer streams per round.
pub const EVENTS_PER_PRODUCER: usize = 500_000;
/// Events per chunk.
pub const CHUNK_EVENTS: usize = 8192;
/// Share of its stream B has sent when the daemon is killed.
pub const PAUSE_SHARE: f64 = 0.75;
const MIN_ROUNDS: usize = 3;

pub struct Fixture {
    daemon: Daemon,
    a_events: Vec<Event>,
    b_events: Vec<Event>,
}

/// Generates both streams and spawns the first round's daemon.
pub fn setup(env: &Env) -> Result<Fixture, String> {
    let daemon = env.daemon("burst0", DaemonOpts::default())?;
    Ok(Fixture {
        daemon,
        a_events: session_events(env.sub_seed(1), 0, EVENTS_PER_PRODUCER),
        b_events: session_events(env.sub_seed(2), 4, EVENTS_PER_PRODUCER),
    })
}

/// What one producer thread observed.
#[derive(Default)]
struct Produced {
    checks: Checks,
    done: Option<Instant>,
    send_ms: Vec<f64>,
    finish_ack_ms: Option<f64>,
    raw: Option<RawClient>,
}

fn produce_a(daemon: &Daemon, events: &[Event]) -> Produced {
    let mut out = Produced::default();
    let Some(mut client) =
        out.checks.ok(CollectorClient::open_session(&daemon.socket, "a"), "open session a")
    else {
        return out;
    };
    for chunk in events.chunks(CHUNK_EVENTS) {
        let t = Instant::now();
        if out.checks.ok(client.send_events(chunk), "send_events").is_none() {
            return out;
        }
        out.send_ms.push(ms(t.elapsed()));
    }
    let t = Instant::now();
    if let Some(summary) = out.checks.ok(client.finish(), "finish a") {
        out.finish_ack_ms = Some(ms(t.elapsed()));
        out.done = Some(Instant::now());
        out.checks.check(
            summary.events == events.len() as u64,
            format_args!("a: {} events durable, {} sent", summary.events, events.len()),
        );
    }
    out
}

/// Streams `chunks` through the raw client and waits for every ack.
fn stream_raw(raw: &mut RawClient, chunks: std::slice::Chunks<'_, Event>, checks: &mut Checks) {
    let before = raw.events_acked;
    let mut sent = 0u64;
    for chunk in chunks {
        if checks.ok(raw.send_chunk(&encode_events(chunk)), "send chunk").is_none() {
            return;
        }
        sent += chunk.len() as u64;
    }
    if checks.ok(raw.drain(), "drain acks").is_some() {
        checks.check(
            raw.events_acked - before == sent,
            format_args!("b: {} events acked, {sent} sent", raw.events_acked - before),
        );
    }
}

fn produce_b(daemon: &Daemon, prefix: &[Event]) -> Produced {
    let mut out = Produced::default();
    let Some(mut raw) = out.checks.ok(RawClient::open(&daemon.unix(), "b"), "open session b")
    else {
        return out;
    };
    stream_raw(&mut raw, prefix.chunks(CHUNK_EVENTS), &mut out.checks);
    out.done = Some(Instant::now());
    out.raw = Some(raw);
    out
}

/// One round's numbers; the answers are checked after the last round.
struct Round {
    /// The daemon's peak memory, over both incarnations.
    peak_rss_kb: f64,
    events_per_s: f64,
    /// Daemon CPU over both ingest phases.
    cpu_ns: f64,
    recovery_s: f64,
    bind_ms: f64,
    finish_to_breakdown_ms: f64,
    finish_ack_ms: [f64; 2],
    query_ms: [f64; 2],
    answers: [String; 2],
    disk_per_event: f64,
    send_ms: Vec<f64>,
    send_share: f64,
    ack_ms: Vec<f64>,
}

fn round(
    env: &Env,
    tag: &str,
    daemon: Daemon,
    fixture: (&[Event], &[Event]),
    checks: &mut Checks,
) -> Result<Option<Round>, String> {
    let (a_events, b_events) = fixture;
    let mut cost = DaemonCost::default();
    let pause_chunks = (b_events.len().div_ceil(CHUNK_EVENTS) as f64 * PAUSE_SHARE).ceil() as usize;
    let prefix = &b_events[..(pause_chunks * CHUNK_EVENTS).min(b_events.len())];

    // Phase 1: both producers, from the first HELLO to the later of
    // A's FINISH_ACK and B's last ack.
    env.speed.probe();
    let started = Instant::now();
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| produce_a(&daemon, a_events));
        let b = scope.spawn(|| produce_b(&daemon, prefix));
        (a.join().expect("producer a panicked"), b.join().expect("producer b panicked"))
    });
    checks.merge(a.checks);
    checks.merge(b.checks);
    let (Some(a_done), Some(b_done), Some(paused)) = (a.done, b.done, b.raw) else {
        return Ok(None);
    };
    let phase1_s = (a_done.max(b_done) - started).as_secs_f64();
    let send_share = a.send_ms.iter().sum::<f64>() / 1e3 / (a_done - started).as_secs_f64();

    // The crash. A is finished, B detached with its prefix acked.
    let sessions = [
        Recoverable { name: "a", events: a_events, live: false },
        Recoverable { name: "b", events: prefix, live: true },
    ];
    let (mut daemon, recovery_s) =
        recover(env, tag, DaemonOpts::default(), daemon, &mut cost, &sessions, checks)?;
    let bind_ms = daemon.bind_ms;
    // The recovery probes' own queries are not ingest cost.
    daemon.mark_cpu();

    // Phase 2: B resumes with its epoch, sends the rest, finishes.
    let resumed = Instant::now();
    let Some(mut raw) =
        checks.ok(RawClient::resume(&daemon.unix(), "b", paused.epoch), "resume session b")
    else {
        return Ok(None);
    };
    checks.check(
        raw.acked_at_hello == pause_chunks as u64,
        format_args!(
            "resume watermark {} but {pause_chunks} chunks were acked",
            raw.acked_at_hello
        ),
    );
    stream_raw(&mut raw, b_events[prefix.len()..].chunks(CHUNK_EVENTS), checks);
    let Some(finished) = checks.ok(raw.finish(), "finish b") else { return Ok(None) };
    let phase2_s = resumed.elapsed().as_secs_f64();
    let b_chunks = b_events.len().div_ceil(CHUNK_EVENTS) as u64;
    checks.check(
        finished.events == b_events.len() as u64 && finished.chunks == b_chunks,
        format_args!(
            "b: {} events in {} chunks durable, {} in {b_chunks} sent",
            finished.events,
            finished.chunks,
            b_events.len()
        ),
    );
    cost.cpu_ns += daemon.cpu_since_mark_ns();

    // The clock for ingest has stopped; now the breakdowns. B's comes
    // straight after its FINISH_ACK, which is `finish_to_breakdown_ms`.
    let t = Instant::now();
    let b_reply = checks.ok(raw.query(&breakdown_spec("b")), "breakdown b");
    let b_query_ms = ms(t.elapsed());
    // A's connection died with the first daemon; a fresh one asks.
    let Some(mut client) = query_client(&daemon.unix(), checks) else { return Ok(None) };
    let t = Instant::now();
    let a_reply = checks.ok(client.query(&breakdown_spec("a")), "breakdown a");
    let a_query_ms = ms(t.elapsed());
    let (Some(a_reply), Some(b_reply)) = (a_reply, b_reply) else { return Ok(None) };
    for (name, reply) in [("a", &a_reply), ("b", &b_reply)] {
        checks.check(
            reply.events_observed == EVENTS_PER_PRODUCER as u64 && !reply.live,
            format_args!("{name}: finished answer covers {} events", reply.events_observed),
        );
    }

    let total = (a_events.len() + b_events.len()) as f64;
    let disk = dir_bytes(&daemon.session_dir("a")) + dir_bytes(&daemon.session_dir("b"));
    let mut ack_ms = paused.ack_ms;
    ack_ms.extend_from_slice(&raw.ack_ms);
    // Its CPU was booked above; what remains is the queries'.
    daemon.mark_cpu();
    daemon.kill(&mut cost);
    Ok(Some(Round {
        peak_rss_kb: cost.peak_rss_kb as f64,
        events_per_s: total / (phase1_s + phase2_s),
        cpu_ns: cost.cpu_ns as f64,
        recovery_s,
        bind_ms,
        finish_to_breakdown_ms: finished.ack_ms + b_query_ms,
        finish_ack_ms: [a.finish_ack_ms.unwrap_or(0.0), finished.ack_ms],
        query_ms: [a_query_ms, b_query_ms],
        answers: [a_reply.canonical_json, b_reply.canonical_json],
        disk_per_event: disk as f64 / total,
        send_ms: a.send_ms,
        send_share,
        ack_ms,
    }))
}

pub fn measure(env: &Env, fixture: Fixture) -> Result<Outcome, String> {
    let Fixture { daemon, a_events, b_events } = fixture;
    let mut checks = Checks::default();
    let mut rounds: Vec<Round> = Vec::new();
    let mut next = Some(daemon);
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < env.seconds {
        let tag = format!("burst{}", rounds.len());
        let daemon = match next.take() {
            Some(daemon) => daemon,
            None => env.daemon(&tag, DaemonOpts::default())?,
        };
        match round(env, &tag, daemon, (&a_events, &b_events), &mut checks)? {
            Some(round) => rounds.push(round),
            None => break,
        }
    }
    if rounds.is_empty() {
        return Err(format!("no round completed: {:?}", checks.failures));
    }

    // Exactly-once: the resumed session equals an uninterrupted
    // reference, round after round.
    let want =
        [reference(&a_events, &breakdown_spec("a")), reference(&b_events, &breakdown_spec("b"))];
    for (i, round) in rounds.iter().enumerate() {
        checks.same_json(&round.answers[0], &want[0], format_args!("round {i} session a"));
        checks.same_json(&round.answers[1], &want[1], format_args!("round {i} resumed session b"));
    }

    let n = rounds.len();
    let column = |f: fn(&Round) -> f64| rounds.iter().map(f).collect::<Vec<f64>>();
    let pooled = |f: fn(&Round) -> &[f64]| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let query_ms = pooled(|r| &r.query_ms);
    let per_round = (2 * EVENTS_PER_PRODUCER) as f64;

    let mut m = Metrics::default();
    let events_per_s = median(&column(|r| r.events_per_s));
    m.push_gated("ingest_events_per_s", events_per_s, Scales::Rate, "events/s", n);
    m.push_gated_median("finish_to_breakdown_ms", &column(|r| r.finish_to_breakdown_ms), "ms");
    m.push_gated_median("query_ms_p50", &query_ms, "ms");
    // CPU is billed in 10 ms ticks, too coarse for one round: the mean.
    let cpu_ns = column(|r| r.cpu_ns).iter().sum::<f64>() / (n as f64 * per_round);
    m.push_gated("daemon_cpu_ns_per_event", cpu_ns, Scales::Duration, "ns", n);
    m.push_median("disk_bytes_per_event", &column(|r| r.disk_per_event), "B");
    m.push_gated_median("recovery_s", &column(|r| r.recovery_s), "s");

    let ack_ms = pooled(|r| &r.ack_ms);
    m.push_median("daemon.chunk_ack_ms_p50", &ack_ms, "ms");
    m.push_tail("daemon.chunk_ack_ms_p99", &ack_ms, 0.99, "ms");
    m.push_median("client.send_wall_share", &column(|r| r.send_share), "share");
    m.push_tail("client.send_ms_p99", &pooled(|r| &r.send_ms), 0.99, "ms");
    m.push("daemon.peak_rss_mb", greatest(&column(|r| r.peak_rss_kb)) / 1024.0, "MB", n);
    m.push_median("daemon.finish_ack_ms", &pooled(|r| &r.finish_ack_ms), "ms");
    m.push_median("daemon.query_cold_ms_p50", &query_ms, "ms");
    m.push("daemon.query_cold_ms_min", least(&query_ms), "ms", query_ms.len());
    m.push_median("registry.bind_recover_ms", &column(|r| r.bind_ms), "ms");

    Ok(Outcome {
        metrics: m,
        checks,
        sizes: vec![
            ("events_per_producer", EVENTS_PER_PRODUCER as f64),
            ("chunk_events", CHUNK_EVENTS as f64),
            ("pause_share", PAUSE_SHARE),
            ("rounds", n as f64),
        ],
        replay: ReplayStream { events: a_events, chunk_events: CHUNK_EVENTS, cold_window: false },
    })
}
