//! `train_stream` — the paper's user: an annotated DDPG training run,
//! profiled and streamed live into the daemon.
//!
//! Closed loop, one connection. Each round runs the same deterministic
//! spec three ways, interleaved so drift hits all three alike:
//! (a) uninstrumented, (b) profiled in memory, (c) profiled and
//! streamed through `CollectorSink` into a daemon session, then
//! `finish` and one grouped post-finish `QUERY`. This is the only
//! workload where `core::profiler` and `collector::client` do most of
//! the work; the daemon is lightly loaded and no tiering runs.

use crate::child::{dir_bytes, Daemon, DaemonCost, DaemonOpts};
use crate::common::{
    breakdown_spec, ms, recover, Env, Metrics, Outcome, Recoverable, ReplayStream, Scales,
};
use crate::oracle::{reference, Checks};
use crate::stats::{least, median};
use rlscope_collector::CollectorSink;
use rlscope_core::event::Event;
use rlscope_core::profiler::{EventSink, Toggles};
use rlscope_rl::AlgoKind;
use rlscope_workloads::frameworks::STABLE_BASELINES;
use rlscope_workloads::{ScaleConfig, TrainSpec};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment steps per run (about 0.6 M events). Short runs, so that
/// many rounds fit a measurement and a slow stretch of the machine
/// lands on a few of them, not on the one.
pub const STEPS: usize = 400;
/// Events per streamed chunk (`Profiler::stream_to`'s flush threshold).
pub const FLUSH_EVERY: usize = 4096;
/// Rounds measured even when `--seconds` is shorter than they take.
const MIN_ROUNDS: usize = 3;
/// SIGKILL/respawn probes behind `recovery_s`.
const RECOVERY_PROBES: usize = 5;

const TAG: &str = "train";

/// The profiled workload. The benchmark seed drives the environment
/// and agent; `rlscoped` only ever sees the events that come out.
pub fn spec(seed: u64, steps: usize) -> TrainSpec {
    TrainSpec {
        seed,
        scale: ScaleConfig { hidden: 16, batch: 8, freq_div: 10, ppo: None },
        ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", STABLE_BASELINES, steps)
    }
}

/// Times every `emit` on its way into the real sink: the share of the
/// training run's wall time spent inside `CollectorClient::send_events`
/// (encode, credit wait, socket write).
struct TimedSink {
    inner: Arc<CollectorSink>,
    emit_ms: Mutex<Vec<f64>>,
}

impl EventSink for TimedSink {
    fn emit(&self, events: Vec<Event>) {
        let started = Instant::now();
        self.inner.emit(events);
        let spent = ms(started.elapsed());
        self.emit_ms.lock().expect("emit never panics holding the lock").push(spent);
    }
}

/// One streamed run into session `name`: connect, run, finish, query.
struct Streamed {
    events: Vec<Event>,
    /// Connect → `FINISH_ACK`.
    run_s: f64,
    /// Connect → breakdown answer.
    to_breakdown_s: f64,
    finish_ack_ms: f64,
    query_ms: f64,
    /// Daemon CPU consumed between connect and the breakdown answer.
    daemon_cpu_ns: u64,
    emit_ms: Vec<f64>,
    answer: String,
}

fn run_streamed(
    spec: &TrainSpec,
    daemon: &Daemon,
    name: &str,
    checks: &mut Checks,
) -> Option<Streamed> {
    let started = Instant::now();
    let cpu_before = daemon.cpu_since_mark_ns();
    let sink = checks.ok(CollectorSink::connect(&daemon.socket, name), "open session")?;
    let timed = Arc::new(TimedSink { inner: sink.clone(), emit_ms: Mutex::new(Vec::new()) });
    let outcome = spec.run_streamed(Toggles::all(), timed.clone(), FLUSH_EVERY);
    let events = outcome.trace.expect("a profiled run carries its trace").events;
    let finish_sent = Instant::now();
    let summary = checks.ok(sink.finish(), "finish")?;
    let finished = Instant::now();
    let reply = checks.ok(sink.query(&breakdown_spec(name)), "post-finish query")?;
    let answered = Instant::now();
    checks.check(
        summary.events == events.len() as u64,
        format_args!("{name}: {} events durable, {} sent", summary.events, events.len()),
    );
    let emit_ms = std::mem::take(&mut *timed.emit_ms.lock().expect("see TimedSink::emit"));
    Some(Streamed {
        events,
        run_s: (finished - started).as_secs_f64(),
        to_breakdown_s: (answered - started).as_secs_f64(),
        finish_ack_ms: ms(finished - finish_sent),
        query_ms: ms(answered - finished),
        daemon_cpu_ns: daemon.cpu_since_mark_ns() - cpu_before,
        emit_ms,
        answer: reply.canonical_json,
    })
}

/// The daemon plus the warm-up run that filled every cache on the path.
pub struct Fixture {
    daemon: Daemon,
    spec: TrainSpec,
    warm: Streamed,
    checks: Checks,
}

/// Spawns the daemon and streams one warm-up run through it.
pub fn setup(env: &Env) -> Result<Fixture, String> {
    let daemon = env.daemon(TAG, DaemonOpts::default())?;
    let spec = spec(env.seed, STEPS);
    let mut checks = Checks::default();
    let warm = run_streamed(&spec, &daemon, "warm", &mut checks)
        .ok_or_else(|| format!("warm-up run failed: {:?}", checks.failures))?;
    Ok(Fixture { daemon, spec, warm, checks })
}

/// Every round's samples.
#[derive(Default)]
struct Rounds {
    bare_s: Vec<f64>,
    profiled_s: Vec<f64>,
    run_s: Vec<f64>,
    to_breakdown_s: Vec<f64>,
    finish_to_breakdown_ms: Vec<f64>,
    query_ms: Vec<f64>,
    daemon_cpu_ns: Vec<f64>,
    finish_ack_ms: Vec<f64>,
    emit_ms: Vec<f64>,
    emit_share: Vec<f64>,
    disk_per_event: Vec<f64>,
}

pub fn measure(env: &Env, fixture: Fixture) -> Result<Outcome, String> {
    let Fixture { mut daemon, spec, warm, mut checks } = fixture;
    let events = warm.events.len();
    let want = reference(&warm.events, &breakdown_spec("any"));
    checks.same_json(&warm.answer, &want, "warm-up breakdown");

    let mut rounds = Rounds::default();
    let mut names = vec!["warm".to_string()];
    let started = Instant::now();
    while rounds.run_s.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < env.seconds {
        env.speed.probe();
        let t = Instant::now();
        std::hint::black_box(spec.run(None));
        let bare_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        std::hint::black_box(spec.run(Some(Toggles::all())));
        let profiled_s = t.elapsed().as_secs_f64();

        let name = format!("run{}", rounds.run_s.len());
        let Some(run) = run_streamed(&spec, &daemon, &name, &mut checks) else { break };
        // The spec is deterministic, so every run must stream the very
        // events the reference was computed from.
        checks.check(run.events == warm.events, format_args!("{name}: run is not deterministic"));
        checks.same_json(&run.answer, &want, format_args!("{name} breakdown"));
        rounds.bare_s.push(bare_s);
        rounds.profiled_s.push(profiled_s);
        rounds.run_s.push(run.run_s);
        rounds.to_breakdown_s.push(run.to_breakdown_s);
        rounds.finish_to_breakdown_ms.push(run.finish_ack_ms + run.query_ms);
        rounds.query_ms.push(run.query_ms);
        rounds.daemon_cpu_ns.push(run.daemon_cpu_ns as f64);
        rounds.finish_ack_ms.push(run.finish_ack_ms);
        rounds.emit_share.push(run.emit_ms.iter().sum::<f64>() / 1e3 / run.run_s);
        rounds.emit_ms.extend(run.emit_ms);
        rounds.disk_per_event.push(dir_bytes(&daemon.session_dir(&name)) as f64 / events as f64);
        names.push(name);
    }
    if rounds.run_s.is_empty() {
        return Err(format!("no streamed run completed: {:?}", checks.failures));
    }
    let n = rounds.run_s.len();

    // How many rounds fit a run depends on the machine; the sessions a
    // recovery must find answering are a fixed few, so `recovery_s`
    // does not.
    let mut cost = DaemonCost::default();
    let sessions: Vec<Recoverable<'_>> = names
        .iter()
        .take(1 + MIN_ROUNDS)
        .map(|name| Recoverable { name, events: &warm.events, live: false })
        .collect();
    let mut recovery_s = Vec::new();
    let mut bind_ms = Vec::new();
    for _ in 0..RECOVERY_PROBES {
        env.speed.probe();
        let (next, wall_s) =
            recover(env, TAG, DaemonOpts::default(), daemon, &mut cost, &sessions, &mut checks)?;
        recovery_s.push(wall_s);
        daemon = next;
        bind_ms.push(daemon.bind_ms);
    }
    daemon.kill(&mut cost);

    let per_event = |total: f64| total / events as f64;
    let (bare, profiled, run) =
        (median(&rounds.bare_s), median(&rounds.profiled_s), median(&rounds.run_s));
    let mut m = Metrics::default();
    m.push_gated("ingest_events_per_s", events as f64 / run, Scales::Rate, "events/s", n);
    m.push_gated_median("finish_to_breakdown_ms", &rounds.finish_to_breakdown_ms, "ms");
    m.push_gated_median("query_ms_p50", &rounds.query_ms, "ms");
    // CPU is billed in 10 ms ticks, too coarse for one round: the mean.
    let cpu_ns = rounds.daemon_cpu_ns.iter().sum::<f64>() / n as f64;
    m.push_gated("daemon_cpu_ns_per_event", per_event(cpu_ns), Scales::Duration, "ns", n);
    m.push_median("disk_bytes_per_event", &rounds.disk_per_event, "B");
    m.push_gated_median("recovery_s", &recovery_s, "s");

    // Per round, since whatever slowed a round slowed both of its runs.
    let ratios: Vec<f64> = rounds.run_s.iter().zip(&rounds.bare_s).map(|(c, a)| c / a).collect();
    m.push_median("daemon.profiling_overhead_ratio", &ratios, "x");
    m.push_median("daemon.time_to_breakdown_s", &rounds.to_breakdown_s, "s");
    m.push("profiler.annotate_ns_per_event", per_event((profiled - bare) * 1e9), "ns", n);
    m.push("profiler.events", events as f64, "count", 1);
    m.push("client.sink_ns_per_event", per_event((run - profiled) * 1e9), "ns", n);
    m.push_median("client.send_wall_share", &rounds.emit_share, "share");
    m.push_tail("client.send_ms_p99", &rounds.emit_ms, 0.99, "ms");
    m.push("daemon.peak_rss_mb", cost.peak_rss_kb as f64 / 1024.0, "MB", 1);
    m.push_median("daemon.finish_ack_ms", &rounds.finish_ack_ms, "ms");
    m.push_median("daemon.query_cold_ms_p50", &rounds.query_ms, "ms");
    m.push("daemon.query_cold_ms_min", least(&rounds.query_ms), "ms", n);
    m.push_median("registry.bind_recover_ms", &bind_ms, "ms");

    Ok(Outcome {
        metrics: m,
        checks,
        sizes: vec![
            ("steps", STEPS as f64),
            ("events_per_run", events as f64),
            ("flush_every", FLUSH_EVERY as f64),
            ("rounds", n as f64),
        ],
        replay: ReplayStream { events: warm.events, chunk_events: FLUSH_EVERY, cold_window: false },
    })
}
