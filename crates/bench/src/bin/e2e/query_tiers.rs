//! `query_tiers` — the read path and the storage ladder.
//!
//! Two `rlscoped` processes listening on TCP, four sessions each. After
//! a closed-loop ingest, one query thread (one connection per daemon,
//! closed loop) cycles through the raw tier's query kinds for half of
//! `--seconds` — in cycles, not one kind after another, so that a slow
//! stretch of the machine lands on every kind's samples alike:
//!
//! 1. cold full-scan grouped queries, round-robin over the sessions,
//!    each made unique with `window(0, end + i)` so the result cache
//!    misses;
//! 2. manifest-pushdown window queries over 3/16 of a session;
//! 3. repeated (cached) queries;
//! 4. `FleetClient::query_all(group_by([Session]))` over both daemons,
//!    then each shard asked alone.
//!
//! Then the ladder:
//!
//! 5. SIGKILL and restart each daemon a few times (`recovery_s`), the
//!    last time with a retention policy, then poll
//!    `registry::SessionRecord::read` until every session records
//!    `Rollup`;
//! 6. coarse queries on the rollup tier for 10 % of `--seconds`, plus
//!    sub-segment window probes that must be refused with the typed
//!    `UnsupportedQuery` — expected answers, not failures.
//!
//! `Analysis::from_chunk_dir`, `overlap`, `Manifest::select`, `fleet`,
//! `compact` and `rollup` dominate; the profiler and live ingest do
//! nothing.

use crate::child::{dir_bytes, Daemon, DaemonCost, DaemonOpts};
use crate::common::{
    breakdown_spec, ms, query_client, recover, Env, Metrics, Outcome, Recoverable, ReplayStream,
    Scales,
};
use crate::oracle::{reference, Checks};
use crate::stats::{least, median};
use crate::synth::{session_events, span_ns};
use rlscope_collector::registry::SessionRecord;
use rlscope_collector::{
    CollectorClient, Endpoint, ErrorCode, FleetClient, QuerySpec, ReconnectPolicy, StorageTier,
};
use rlscope_core::analysis::{groups_canonical_json, Analysis, Dim, GroupKey};
use rlscope_core::event::Event;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DAEMONS: usize = 2;
pub const SESSIONS_PER_DAEMON: usize = 4;
pub const EVENTS_PER_SESSION: usize = 200_000;
pub const CHUNK_EVENTS: usize = 8192;
/// Ages every finished session raw → sorted → rollup at once.
pub const RETENTION: &str = "raw=40ms,sorted=40ms";
/// The daemon's default rollup segment.
const SEGMENT_NS: u64 = 1_000_000_000;
/// Sub-segment probes that must be refused.
const PROBES: usize = 24;
/// Times the ingest is run, each on fresh daemons.
const INGEST_ROUNDS: usize = 8;
/// Plain crash-and-restarts per daemon before the retention restart.
const RECOVERY_PROBES: usize = 4;

/// Queries of each kind per cycle of the raw-tier loop (a fleet query
/// costs about eight cold ones), the share of `--seconds` the loop and
/// the rollup phase run for, and the cycles run regardless.
const COLD_PER_CYCLE: usize = 8;
const WINDOW_PER_CYCLE: usize = 8;
const CACHED_PER_CYCLE: usize = 16;
const RAW_SHARE: f64 = 0.5;
const ROLLUP_SHARE: f64 = 0.1;
const MIN_CYCLES: usize = 3;

const SESSIONS: usize = DAEMONS * SESSIONS_PER_DAEMON;

fn tag(daemon: usize) -> String {
    format!("tier{daemon}")
}

fn session_name(session: usize) -> String {
    format!("s{session}")
}

fn tcp(daemon: &Daemon) -> Endpoint {
    daemon.tcp.clone().expect("spawned with a TCP listener")
}

const LISTEN: DaemonOpts<'static> = DaemonOpts { tcp: true, retention: None };

pub struct Fixture {
    daemons: Vec<Daemon>,
    /// Session `i` lives on daemon `i / SESSIONS_PER_DAEMON`.
    sessions: Vec<Vec<Event>>,
}

pub fn setup(env: &Env) -> Result<Fixture, String> {
    let daemons = (0..DAEMONS).map(|d| env.daemon(&tag(d), LISTEN)).collect::<Result<_, _>>()?;
    let sessions = (0..SESSIONS)
        .map(|s| session_events(env.sub_seed(s as u64), 4 * s as u32, EVENTS_PER_SESSION))
        .collect();
    Ok(Fixture { daemons, sessions })
}

/// One daemon's share of the ingest: its sessions, one after another.
struct Ingested {
    checks: Checks,
    /// Events ÷ time spent between each HELLO and its FINISH_ACK.
    events_per_s: f64,
    finish_ack_ms: Vec<f64>,
    finish_to_breakdown_ms: Vec<f64>,
}

fn ingest(daemon: &Daemon, first: usize, sessions: &[Vec<Event>]) -> Ingested {
    let mut out = Ingested {
        checks: Checks::default(),
        events_per_s: 0.0,
        finish_ack_ms: Vec::new(),
        finish_to_breakdown_ms: Vec::new(),
    };
    let mut ingest_s = 0.0;
    for (offset, events) in sessions.iter().enumerate() {
        let name = session_name(first + offset);
        let started = Instant::now();
        let Some(mut client) = out.checks.ok(
            CollectorClient::open_session_at(&tcp(daemon), &name, ReconnectPolicy::default()),
            "open session",
        ) else {
            return out;
        };
        for chunk in events.chunks(CHUNK_EVENTS) {
            if out.checks.ok(client.send_events(chunk), "send_events").is_none() {
                return out;
            }
        }
        let finish_sent = Instant::now();
        let Some(summary) = out.checks.ok(client.finish(), "finish") else { return out };
        let finished = Instant::now();
        out.checks.check(
            summary.events == events.len() as u64,
            format_args!("{name}: {} events durable, {} sent", summary.events, events.len()),
        );
        // The first breakdown of a fresh session; its bytes are checked
        // with the cached phase's, which asks the same question.
        if out.checks.ok(client.query(&breakdown_spec(&name)), "first breakdown").is_some() {
            out.finish_to_breakdown_ms.push(ms(finish_sent.elapsed()));
        }
        ingest_s += (finished - started).as_secs_f64();
        out.finish_ack_ms.push(ms(finished - finish_sent));
    }
    out.events_per_s = (sessions.len() * EVENTS_PER_SESSION) as f64 / ingest_s;
    out
}

/// One query connection per daemon; session `s` is asked through the
/// connection of the daemon that holds it.
struct Clients(Vec<CollectorClient>);

impl Clients {
    fn connect(daemons: &[Daemon], checks: &mut Checks) -> Option<Clients> {
        daemons.iter().map(|d| query_client(&tcp(d), checks)).collect::<Option<_>>().map(Clients)
    }

    fn of(&mut self, session: usize) -> &mut CollectorClient {
        &mut self.0[session / SESSIONS_PER_DAEMON]
    }
}

/// When each session's registry record first showed each tier, as
/// seconds since its daemon was respawned.
#[derive(Default, Clone, Copy)]
struct Aged {
    sorted_s: Option<f64>,
    rollup_s: Option<f64>,
}

/// Polls the registry records until every session is rolled up.
fn watch_aging(daemons: &[Daemon], respawned: &[Instant]) -> Result<Vec<Aged>, String> {
    let mut aged = vec![Aged::default(); SESSIONS];
    let deadline = Instant::now() + Duration::from_secs(120);
    while aged.iter().any(|a| a.rollup_s.is_none()) {
        if Instant::now() > deadline {
            return Err("sessions did not age to the rollup tier within 120 s".into());
        }
        for (s, seen) in aged.iter_mut().enumerate() {
            let d = s / SESSIONS_PER_DAEMON;
            let dir = daemons[d].session_dir(&session_name(s));
            let Ok(Some(record)) = SessionRecord::read(&dir) else { continue };
            let now = respawned[d].elapsed().as_secs_f64();
            if record.tier >= StorageTier::Sorted && seen.sorted_s.is_none() {
                seen.sorted_s = Some(now);
            }
            if record.tier == StorageTier::Rollup && seen.rollup_s.is_none() {
                seen.rollup_s = Some(now);
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(aged)
}

/// Per-transition wall time from the record changes: the compaction
/// worker is one thread per daemon, so the time between consecutive
/// record changes on a daemon is the job that produced the later one.
fn transition_walls(aged: &[Aged]) -> (Vec<f64>, Vec<f64>) {
    let (mut sorts, mut rollups) = (Vec::new(), Vec::new());
    for daemon in aged.chunks(SESSIONS_PER_DAEMON) {
        let mut changes: Vec<(f64, bool)> = daemon
            .iter()
            .flat_map(|a| [(a.sorted_s, true), (a.rollup_s, false)])
            .filter_map(|(at, is_sort)| at.map(|at| (at, is_sort)))
            .collect();
        changes.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut previous = 0.0;
        for (at, is_sort) in changes {
            if is_sort { &mut sorts } else { &mut rollups }.push(at - previous);
            previous = at;
        }
    }
    (sorts, rollups)
}

pub fn measure(env: &Env, fixture: Fixture) -> Result<Outcome, String> {
    let Fixture { mut daemons, sessions } = fixture;
    let mut checks = Checks::default();
    let total_events = (SESSIONS * EVENTS_PER_SESSION) as f64;

    // Phase 0: ingest, one producer per daemon. The whole ingest takes
    // a fraction of a second, so it is run several times, each on fresh
    // daemons; the fixture's daemons take the last round and go on to
    // serve the queries.
    let mut round_events_per_s = Vec::new();
    let (mut finish_ack_ms, mut finish_to_breakdown_ms) = (Vec::new(), Vec::new());
    for round in 0..INGEST_ROUNDS {
        let spare: Vec<Daemon> = if round + 1 == INGEST_ROUNDS {
            Vec::new()
        } else {
            (0..DAEMONS)
                .map(|d| env.daemon(&format!("spare{d}r{round}"), LISTEN))
                .collect::<Result<_, _>>()?
        };
        let targets = if spare.is_empty() { &daemons } else { &spare };
        env.speed.probe();
        let ingested: Vec<Ingested> = std::thread::scope(|scope| {
            let handles: Vec<_> = targets
                .iter()
                .zip(sessions.chunks(SESSIONS_PER_DAEMON))
                .enumerate()
                .map(|(d, (daemon, own))| {
                    scope.spawn(move || ingest(daemon, d * SESSIONS_PER_DAEMON, own))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("producer panicked")).collect()
        });
        let complete =
            ingested.iter().all(|part| part.finish_to_breakdown_ms.len() == SESSIONS_PER_DAEMON);
        // The producers stream in parallel, so their rates add.
        round_events_per_s.push(ingested.iter().map(|part| part.events_per_s).sum::<f64>());
        for part in ingested {
            checks.merge(part.checks);
            finish_ack_ms.extend(part.finish_ack_ms);
            finish_to_breakdown_ms.extend(part.finish_to_breakdown_ms);
        }
        if !complete {
            return Err(format!("ingest failed: {:?}", checks.failures));
        }
    }

    let names: Vec<String> = (0..SESSIONS).map(session_name).collect();
    let spans: Vec<(u64, u64)> = sessions.iter().map(|e| span_ns(e)).collect();
    let Some(mut clients) = Clients::connect(&daemons, &mut checks) else {
        return Err(format!("query connections refused: {:?}", checks.failures));
    };

    // The raw tier, in cycles.
    let by_session = QuerySpec::all_sessions().group_by([Dim::Session]);
    let mut fleet = FleetClient::connect(daemons.iter().map(tcp));
    let mut cold_answers: Vec<(usize, String)> = Vec::new();
    let mut window_answers: Vec<(usize, QuerySpec, String)> = Vec::new();
    let mut cached_answers: Vec<(usize, String)> = Vec::new();
    let mut fleet_answers: Vec<String> = Vec::new();
    let mut cold_ms = Vec::new();
    // Daemon CPU consumed by the cold scans.
    let mut cold_cpu_ns = 0u64;
    let (mut window_ms, mut cached_ms) = (Vec::new(), Vec::new());
    let (mut fleet_ms, mut shard_ms) = (Vec::new(), Vec::new());
    let mut cache_hits = 0usize;
    let raw_started = Instant::now();
    let mut cycle = 0;
    while cycle < MIN_CYCLES || raw_started.elapsed().as_secs_f64() < env.seconds * RAW_SHARE {
        env.speed.probe();
        daemons.iter_mut().for_each(Daemon::mark_cpu);
        // 1. Cold full scans. The window covers the whole session, so
        // every answer must equal the windowless breakdown; `+ i` only
        // makes the query bytes, and so the cache key, unique.
        for i in cycle * COLD_PER_CYCLE..(cycle + 1) * COLD_PER_CYCLE {
            let s = i % SESSIONS;
            let spec = breakdown_spec(&names[s]).window(0, spans[s].1 + 1 + i as u64);
            let t = Instant::now();
            let Some(reply) = checks.ok(clients.of(s).query(&spec), "cold query") else { continue };
            cold_ms.push(ms(t.elapsed()));
            checks.check(!reply.cache_hit, format_args!("cold query {i} hit the cache"));
            cold_answers.push((s, reply.canonical_json));
        }
        cold_cpu_ns += daemons.iter().map(Daemon::cpu_since_mark_ns).sum::<u64>();
        // 2. Windows over 3/16 of the session, which the manifest
        // reduces to the chunks that overlap them.
        for i in cycle * WINDOW_PER_CYCLE..(cycle + 1) * WINDOW_PER_CYCLE {
            let s = i % SESSIONS;
            let (lo, hi) = spans[s];
            let sixteenth = (hi - lo) / 16;
            let from = lo + sixteenth * ((i / SESSIONS) % 13) as u64 + i as u64;
            let spec = breakdown_spec(&names[s]).window(from, from + 3 * sixteenth);
            let t = Instant::now();
            let Some(reply) = checks.ok(clients.of(s).query(&spec), "window query") else {
                continue;
            };
            window_ms.push(ms(t.elapsed()));
            window_answers.push((s, spec, reply.canonical_json));
        }
        // 3. The same question again and again. Ingest already asked it
        // once per session, so every one of these should hit.
        for i in cycle * CACHED_PER_CYCLE..(cycle + 1) * CACHED_PER_CYCLE {
            let s = i % SESSIONS;
            let t = Instant::now();
            let reply = checks.ok(clients.of(s).query(&breakdown_spec(&names[s])), "cached query");
            let Some(reply) = reply else { continue };
            cached_ms.push(ms(t.elapsed()));
            cache_hits += usize::from(reply.cache_hit);
            cached_answers.push((s, reply.canonical_json));
        }
        // 4. The fleet view, then each shard asked alone so the
        // fan-out's own cost can be told from the shards'.
        let t = Instant::now();
        let result = fleet.query_all(&by_session);
        let latency = ms(t.elapsed());
        checks.check(result.complete(), "fleet query has a gap");
        if result.complete() {
            fleet_ms.push(latency);
            fleet_answers.push(result.canonical_json(true));
        }
        let t = Instant::now();
        let shards_ok = clients
            .0
            .iter_mut()
            .all(|client| checks.ok(client.query_all(&by_session), "shard query_all").is_some());
        if shards_ok {
            shard_ms.push(ms(t.elapsed()));
        }
        cycle += 1;
    }
    if cold_ms.is_empty() || fleet_ms.is_empty() || cached_ms.is_empty() {
        return Err(format!("the raw-tier queries failed: {:?}", checks.failures));
    }
    drop(fleet);
    drop(clients);

    // Phase 5: crash-and-restarts, recovery being respawn → every
    // session answers; then one more of each daemon, with a retention
    // policy, which starts the ageing.
    let mut cost = DaemonCost::default();
    let mut recovery_s = Vec::new();
    let mut bind_ms = Vec::new();
    let held = |d: usize| -> Vec<Recoverable<'_>> {
        (d * SESSIONS_PER_DAEMON..(d + 1) * SESSIONS_PER_DAEMON)
            .map(|s| Recoverable { name: &names[s], events: &sessions[s], live: false })
            .collect()
    };
    for _ in 0..RECOVERY_PROBES {
        for d in 0..DAEMONS {
            env.speed.probe();
            let old = daemons.remove(d);
            let (next, wall_s) =
                recover(env, &tag(d), LISTEN, old, &mut cost, &held(d), &mut checks)?;
            recovery_s.push(wall_s);
            bind_ms.push(next.bind_ms);
            daemons.insert(d, next);
        }
    }
    let aging = DaemonOpts { tcp: true, retention: Some(RETENTION) };
    let mut respawned = Vec::new();
    for d in 0..DAEMONS {
        respawned.push(Instant::now());
        let old = daemons.remove(d);
        let (next, _) = recover(env, &tag(d), aging, old, &mut cost, &held(d), &mut checks)?;
        daemons.insert(d, next);
    }
    let aged = watch_aging(&daemons, &respawned)?;
    let aging_s = aged.iter().filter_map(|a| a.rollup_s).fold(0.0, f64::max);
    let (sort_s, rollup_s) = transition_walls(&aged);
    let disk: u64 = (0..SESSIONS)
        .map(|s| dir_bytes(&daemons[s / SESSIONS_PER_DAEMON].session_dir(&names[s])))
        .sum();

    // Phase 6: the rollup tier. Window edges on segment boundaries past
    // the covered span are allowed and change nothing but the cache key.
    let Some(mut clients) = Clients::connect(&daemons, &mut checks) else {
        return Err(format!("query connections refused: {:?}", checks.failures));
    };
    let mut rollup_answers: Vec<(usize, String)> = Vec::new();
    let mut rollup_ms = Vec::new();
    let rollup_started = Instant::now();
    for i in 0.. {
        if i >= SESSIONS && rollup_started.elapsed().as_secs_f64() >= env.seconds * ROLLUP_SHARE {
            break;
        }
        let s = i % SESSIONS;
        let past_end = (spans[s].1 / SEGMENT_NS + 2 + i as u64) * SEGMENT_NS;
        let spec = breakdown_spec(&names[s]).window(0, past_end);
        let t = Instant::now();
        let Some(reply) = checks.ok(clients.of(s).query(&spec), "rollup query") else { break };
        rollup_ms.push(ms(t.elapsed()));
        rollup_answers.push((s, reply.canonical_json));
    }
    for i in 0..PROBES {
        let s = i % SESSIONS;
        let from = spans[s].0 + SEGMENT_NS / 2 + i as u64;
        let probe = breakdown_spec(&names[s]).window(from, from + SEGMENT_NS / 4);
        // The daemon closes a connection after an `ERROR` frame, so
        // every probe dials its own.
        let endpoint = tcp(&daemons[s / SESSIONS_PER_DAEMON]);
        let Some(mut client) = query_client(&endpoint, &mut checks) else { continue };
        checks.typed_refusal(
            client.query(&probe),
            ErrorCode::UnsupportedQuery,
            format_args!("sub-segment probe {i}"),
        );
    }
    drop(clients);
    for daemon in daemons {
        daemon.kill(&mut cost);
    }

    // The clock has stopped: every answer against its reference.
    let coarse: Vec<String> =
        sessions.iter().zip(&names).map(|(e, n)| reference(e, &breakdown_spec(n))).collect();
    for (what, answers) in [
        ("cold", &cold_answers),
        ("cached", &cached_answers),
        // Rollup answers must equal the raw tier's, taken before ageing.
        ("rollup", &rollup_answers),
    ] {
        for (i, (s, got)) in answers.iter().enumerate() {
            checks.same_json(got, &coarse[*s], format_args!("{what} query {i} on {}", names[*s]));
        }
    }
    for (i, (s, spec, got)) in window_answers.iter().enumerate() {
        let want = reference(&sessions[*s], spec);
        checks.same_json(got, &want, format_args!("window query {i} on {}", names[*s]));
    }
    // The fleet merge against one analysis per session, composed in
    // shard order: what a single daemon holding all eight would say.
    let groups: Vec<_> = sessions
        .iter()
        .zip(&names)
        .map(|(events, name)| {
            let key = GroupKey {
                session: Some(Arc::from(name.as_str())),
                phase: None,
                process: None,
                operation: None,
            };
            (key, Analysis::of_events(events).table().expect("in-memory analysis cannot fail"))
        })
        .collect();
    let fleet_want = groups_canonical_json(&groups, true);
    for (i, got) in fleet_answers.iter().enumerate() {
        checks.same_json(got, &fleet_want, format_args!("fleet query {i}"));
    }

    let scanned = (cold_ms.len() * EVENTS_PER_SESSION) as f64;
    let mut m = Metrics::default();
    let events_per_s = median(&round_events_per_s);
    m.push_gated("ingest_events_per_s", events_per_s, Scales::Rate, "events/s", INGEST_ROUNDS);
    m.push_gated_median("finish_to_breakdown_ms", &finish_to_breakdown_ms, "ms");
    m.push_gated_median("query_ms_p50", &cold_ms, "ms");
    let cpu_ns = cold_cpu_ns as f64 / scanned;
    m.push_gated("daemon_cpu_ns_per_event", cpu_ns, Scales::Duration, "ns", cycle);
    m.push("disk_bytes_per_event", disk as f64 / total_events, "B", 1);
    m.push_gated_median("recovery_s", &recovery_s, "s");

    m.push_tail("daemon.query_cold_ms_p95", &cold_ms, 0.95, "ms");
    m.push_median("daemon.query_rollup_ms_p50", &rollup_ms, "ms");
    m.push_median("daemon.fleet_query_ms_p50", &fleet_ms, "ms");
    m.push("daemon.compaction_events_per_s", total_events / aging_s, "events/s", 1);
    m.push("daemon.peak_rss_mb", cost.peak_rss_kb as f64 / 1024.0, "MB", 1);
    m.push_median("daemon.finish_ack_ms", &finish_ack_ms, "ms");
    m.push_median("daemon.query_cold_ms_p50", &cold_ms, "ms");
    m.push("daemon.query_cold_ms_min", least(&cold_ms), "ms", cold_ms.len());
    m.push_median("daemon.query_window_ms_p50", &window_ms, "ms");
    m.push_median("daemon.query_cached_ms_p50", &cached_ms, "ms");
    m.push("daemon.cache_hit_share", cache_hits as f64 / cached_ms.len().max(1) as f64, "share", 1);
    m.push("fleet.fanout_overhead_ms", median(&fleet_ms) - median(&shard_ms), "ms", fleet_ms.len());
    m.push_median("registry.bind_recover_ms", &bind_ms, "ms");
    m.push_median("compact.sort_s", &sort_s, "s");
    m.push_median("compact.rollup_s", &rollup_s, "s");

    Ok(Outcome {
        metrics: m,
        checks,
        sizes: vec![
            ("daemons", DAEMONS as f64),
            ("sessions", SESSIONS as f64),
            ("events_per_session", EVENTS_PER_SESSION as f64),
            ("chunk_events", CHUNK_EVENTS as f64),
            ("ingest_rounds", INGEST_ROUNDS as f64),
            ("cold_queries", cold_ms.len() as f64),
            ("window_queries", window_ms.len() as f64),
            ("cached_queries", cached_ms.len() as f64),
            ("fleet_queries", fleet_ms.len() as f64),
            ("rollup_queries", rollup_ms.len() as f64),
            ("refused_probes", PROBES as f64),
        ],
        replay: ReplayStream {
            events: sessions.into_iter().next().expect("SESSIONS > 0"),
            chunk_events: CHUNK_EVENTS,
            cold_window: true,
        },
    })
}
