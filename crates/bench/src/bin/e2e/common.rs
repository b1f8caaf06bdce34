//! What the four workloads share: the run environment, the metric
//! list a workload reports, and the probes every workload runs the same
//! way (breakdown after finish, recovery after SIGKILL).

use crate::child::{Daemon, DaemonCost, DaemonOpts, Scratch};
use crate::oracle::{reference, Checks};
use crate::speed::Speed;
use crate::stats::{median, tail};
use rlscope_collector::{CollectorClient, Endpoint, QuerySpec};
use rlscope_core::analysis::Dim;
use rlscope_core::event::Event;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// One measured number. `samples` is how many observations it
/// summarizes (1 for a total or a count).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// For a tail metric, the percentile `samples` could carry (see
    /// [`tail`]), which need not be the one in the name.
    pub percentile: Option<f64>,
    /// How a gated timing follows the machine's speed, until
    /// [`Metrics::correct`] has run.
    scales: Option<Scales>,
    /// The value as measured, once `value` is the corrected one.
    pub raw: Option<f64>,
}

/// How a quantity moves when the machine slows by a factor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scales {
    /// A wall or CPU time: grows by it.
    Duration,
    /// Work per second: shrinks by it.
    Rate,
}

/// A workload's metrics, in the order it reported them.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            percentile: None,
            scales: None,
            raw: None,
        });
    }

    /// An end-to-end timing, which [`Metrics::correct`] will correct for
    /// the machine's speed during the run (see [`crate::speed`]).
    pub fn push_gated(
        &mut self,
        name: &str,
        value: f64,
        scales: Scales,
        unit: &'static str,
        samples: usize,
    ) {
        self.push(name, value, unit, samples);
        self.0.last_mut().expect("just pushed").scales = Some(scales);
    }

    /// [`Metrics::push_gated`] for the median of `samples` durations.
    pub fn push_gated_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.push_gated(name, median(samples), Scales::Duration, unit, samples.len());
    }

    /// Corrects every gated timing by the run's slowdown `factor`,
    /// keeping the measured value as `raw`.
    pub fn correct(&mut self, factor: f64) {
        for metric in &mut self.0 {
            let Some(scales) = metric.scales.take() else { continue };
            metric.raw = Some(metric.value);
            match scales {
                Scales::Duration => metric.value /= factor,
                Scales::Rate => metric.value *= factor,
            }
        }
    }

    pub fn push_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.push(name, median(samples), unit, samples.len());
    }

    /// The `wanted` percentile of `samples`, or the highest one below it
    /// that has ten samples beyond; which, is recorded beside the value.
    pub fn push_tail(&mut self, name: &str, samples: &[f64], wanted: f64, unit: &'static str) {
        let (value, percentile) = tail(samples, wanted);
        self.push(name, value, unit, samples.len());
        self.0.last_mut().expect("just pushed").percentile = Some(percentile);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    /// The value as measured, whether or not it was corrected since.
    pub fn raw(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.raw.unwrap_or(m.value))
    }
}

/// The event stream a workload pushed through the daemon, kept for the
/// traced replay: the same events in the same chunks.
#[derive(Debug)]
pub struct ReplayStream {
    pub events: Vec<Event>,
    pub chunk_events: usize,
    /// Whether the workload's cold queries carried a whole-session
    /// window, so the in-process query can run the same spec.
    pub cold_window: bool,
}

/// What a workload hands back.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Metrics,
    pub checks: Checks,
    /// The fixed sizes the numbers were taken at.
    pub sizes: Vec<(&'static str, f64)>,
    pub replay: ReplayStream,
}

/// The run environment: where `rlscoped` is, where scratch files go,
/// and the two knobs the driver passes.
#[derive(Debug)]
pub struct Env {
    pub rlscoped: PathBuf,
    pub scratch: Scratch,
    pub seed: u64,
    pub seconds: f64,
    /// The run's probes of the machine's speed; workloads take one
    /// between rounds, outside every timed window.
    pub speed: Speed,
}

impl Env {
    /// Spawns a daemon named `tag` (socket `<tag>.sock`, data dir
    /// `<tag>/`) in the scratch tree; an existing data dir is reused,
    /// which is how a restart recovers.
    pub fn daemon(&self, tag: &str, opts: DaemonOpts<'_>) -> Result<Daemon, String> {
        let socket = self.scratch.path(&format!("{tag}.sock"));
        let data_dir = self.scratch.path(tag);
        Daemon::spawn(&self.rlscoped, socket, data_dir, opts)
    }

    /// A sub-seed for fixture `stream`, so fixtures do not share draws.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(stream)
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The dashboard's main view, and the breakdown every finished session
/// is asked for: time by training phase and operation.
pub const BREAKDOWN: [Dim; 2] = [Dim::Phase, Dim::Operation];

pub fn breakdown_spec(session: &str) -> QuerySpec {
    QuerySpec::session(session).group_by(BREAKDOWN)
}

/// A query that proves a finished session is being served without
/// scanning it: the first trace-second, which manifest pushdown reduces
/// to the first chunks and a rollup answers from its first segment.
/// (Live sessions take no window; they are probed with the plain
/// breakdown.)
pub fn liveness_spec(session: &str) -> QuerySpec {
    breakdown_spec(session).window(0, 1_000_000_000)
}

/// A session a recovery probe must find answering, with the reference
/// stream its answer is checked against.
pub struct Recoverable<'a> {
    pub name: &'a str,
    /// The events the daemon holds for it (for a detached session, the
    /// acked prefix).
    pub events: &'a [Event],
    pub live: bool,
}

/// SIGKILL → respawn on the same data dir → every session answers a
/// query. Returns the new daemon and the wall time in seconds.
pub fn recover(
    env: &Env,
    tag: &str,
    opts: DaemonOpts<'_>,
    old: Daemon,
    cost: &mut DaemonCost,
    sessions: &[Recoverable<'_>],
    checks: &mut Checks,
) -> Result<(Daemon, f64), String> {
    let started = Instant::now();
    old.kill(cost);
    let daemon = env.daemon(tag, opts)?;
    let mut answers = Vec::with_capacity(sessions.len());
    if let Some(mut client) =
        checks.ok(CollectorClient::connect(&daemon.socket), "recovery connect")
    {
        for session in sessions {
            let spec = if session.live {
                breakdown_spec(session.name)
            } else {
                liveness_spec(session.name)
            };
            let reply = checks.ok(client.query(&spec), "recovery query");
            answers.push((spec, reply));
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    // The references are computed after the clock stops.
    for (session, (spec, reply)) in sessions.iter().zip(answers) {
        let Some(reply) = reply else { continue };
        checks.same_json(
            &reply.canonical_json,
            &reference(session.events, &spec),
            format_args!("session {} after recovery", session.name),
        );
        checks.check(
            reply.live == session.live,
            format_args!("session {} recovered live={}", session.name, reply.live),
        );
    }
    Ok((daemon, wall_s))
}

/// Connects a query-only client, counting a refusal as a failure.
pub fn query_client(endpoint: &Endpoint, checks: &mut Checks) -> Option<CollectorClient> {
    checks.ok(CollectorClient::connect_to(endpoint), "query connect")
}
