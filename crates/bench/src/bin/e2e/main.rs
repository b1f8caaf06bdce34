//! `e2e` — one end-to-end, layer-attributed benchmark of the profile →
//! collect → query → tier path.
//!
//! ```text
//! e2e run --workload <name|all> --seed <u64> [--seconds <s>] [--out <file>]
//!         [--trace 0|1 | --traced] [--repeat <n>]
//! e2e diff <before.json> <after.json>
//! ```
//!
//! `run` drives real `rlscoped` child processes over their real
//! sockets from this one load-generator process, checks every answer
//! against an in-process reference, prints every metric as
//! `name value unit`, and ends with one JSON line for the builder's
//! driver. See the README beside this file for the layer ↔ metric ↔
//! workload map.

#![forbid(unsafe_code)]

mod child;
mod common;
mod dashboard_mixed;
mod ingest_burst;
mod json;
mod layers;
mod oracle;
mod procfs;
mod query_tiers;
mod raw;
mod record;
mod speed;
mod stats;
mod synth;
mod train_stream;

use child::{Guard, Scratch};
use common::{Env, Metrics, Outcome};
use json::Value;
use record::{BenchSpec, Header, WorkloadRuns};
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["train_stream", "ingest_burst", "dashboard_mixed", "query_tiers"];

/// Set-ups per run; `setup_s` is their median, and only the last one's
/// fixture is measured. Several, because the builder's contract asks
/// for the median of several.
const SETUP_REPS: usize = 3;

/// `reconcile.*` bands: outside them a layer is missing from the table,
/// and the run fails. `daemon_cpu_ratio` is judged on `ingest_burst`
/// (the workload whose daemon does nothing but ingest) and
/// `query_cold_ratio` on `query_tiers`. The daemon's ingest CPU measures
/// about 1.4 times the four replayed layers: socket reads and wake-ups,
/// acks, the hand-off between its threads and a fresh process's page
/// faults are seen from outside only as their sum.
const DAEMON_CPU_BAND: (f64, f64) = (0.9, 2.4);
const QUERY_COLD_BAND: (f64, f64) = (0.6, 1.6);

const USAGE: &str = "usage:
  e2e run --workload <train_stream|ingest_burst|dashboard_mixed|query_tiers|all>
          --seed <u64> [--seconds <s>] [--out <file>] [--trace 0|1 | --traced] [--repeat <n>]
  e2e diff <before.json> <after.json>
run from the repository root (BENCHMARK.json is read from the current directory)";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: Option<f64>,
    out: Option<String>,
    traced: bool,
    repeat: usize,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        out: None,
        traced: false,
        repeat: 1,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--traced" {
            parsed.traced = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => parsed.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let known = WORKLOADS.iter().find(|w| *w == value);
                parsed.workloads =
                    vec![known.ok_or_else(|| format!("unknown workload {value:?}"))?];
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
                parsed.seconds = Some(seconds);
            }
            "--out" => parsed.out = Some(value.clone()),
            "--trace" => parsed.traced = matches!(value.as_str(), "1" | "true"),
            "--repeat" => parsed.repeat = value.parse().ok().filter(|n| *n >= 1).ok_or_else(bad)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Sets a workload up [`SETUP_REPS`] times (each on an empty scratch
/// tree), then measures on the last fixture. Returns the outcome and
/// the `setup_s` metric.
fn set_up_and_measure<F>(
    env: &Env,
    setup: fn(&Env) -> Result<F, String>,
    measure: fn(&Env, F) -> Result<Outcome, String>,
) -> Result<(Outcome, Metrics), String> {
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut fixture = None;
    for _ in 0..SETUP_REPS {
        // Dropping the previous fixture kills its daemons first.
        drop(fixture.take());
        env.scratch.clear()?;
        env.speed.probe();
        let started = Instant::now();
        fixture = Some(setup(env)?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut metrics = Metrics::default();
    metrics.push_gated_median("setup_s", &setup_s, "s");
    let outcome = measure(env, fixture.expect("SETUP_REPS > 0"))?;
    Ok((outcome, metrics))
}

/// One complete run of one workload: untraced measurement, then (when
/// asked) the traced replay of the same stream.
fn run_once(
    workload: &str,
    env: &Env,
    traced: bool,
    trace_out: Option<&str>,
) -> Result<Outcome, String> {
    speed::warm_up();
    let started = Instant::now();
    let (mut outcome, mut metrics) = match workload {
        "train_stream" => set_up_and_measure(env, train_stream::setup, train_stream::measure),
        "ingest_burst" => set_up_and_measure(env, ingest_burst::setup, ingest_burst::measure),
        "dashboard_mixed" => {
            set_up_and_measure(env, dashboard_mixed::setup, dashboard_mixed::measure)
        }
        "query_tiers" => set_up_and_measure(env, query_tiers::setup, query_tiers::measure),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    let untraced_s = started.elapsed().as_secs_f64();
    metrics.0.append(&mut outcome.metrics.0);
    metrics.correct(env.speed.factor());
    metrics.push("speed.factor_p50", env.speed.factor(), "x", env.speed.probes());
    metrics.push("daemon.error_frames", outcome.checks.error_frames as f64, "count", 1);
    outcome.metrics = metrics;
    if !traced {
        return Ok(outcome);
    }

    let mut replayed = layers::replay(env, &outcome.replay)?;
    let m = &mut outcome.metrics;
    let layer = |name: &str| replayed.metrics.value(name);
    let ingest_layers = layer("store.frame_read_ns_per_event")
        + layer("store.decode_columns_ns_per_event")
        + layer("analysis.live_push_ns_per_event")
        + layer("store.persist_ns_per_event");
    let cold_query_ms =
        layer("analysis.chunk_dir_query_ns_per_event") * outcome.replay.events.len() as f64 / 1e6;
    // Both sides as measured: the replay's spans are not corrected.
    let cpu_ratio = m.raw("daemon_cpu_ns_per_event") / ingest_layers;
    // Both sides as their least disturbed sample: the two are taken
    // seconds apart on a machine whose speed drifts by the second.
    let cold_ratio = m.value("daemon.query_cold_ms_min") / cold_query_ms;
    m.0.append(&mut replayed.metrics.0);
    m.push("reconcile.daemon_cpu_ratio", cpu_ratio, "x", 1);
    m.push("reconcile.query_cold_ratio", cold_ratio, "x", 1);
    m.push("trace.overhead_ratio", (untraced_s + replayed.wall_s) / untraced_s, "x", 1);
    outcome.checks.merge(replayed.checks);
    for (judged_on, name, ratio, (lo, hi)) in [
        ("ingest_burst", "reconcile.daemon_cpu_ratio", cpu_ratio, DAEMON_CPU_BAND),
        ("query_tiers", "reconcile.query_cold_ratio", cold_ratio, QUERY_COLD_BAND),
    ] {
        if workload == judged_on {
            outcome.checks.check(
                (lo..=hi).contains(&ratio),
                format_args!(
                    "{name} = {ratio:.3} is outside {lo}..{hi}: a layer is unaccounted for"
                ),
            );
        }
    }
    if let Some(path) = trace_out {
        std::fs::write(path, replayed.tracer.to_json().render())
            .map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(outcome)
}

/// Runs `f`, and if it has not returned after a deadline far beyond any
/// run's length, kills its daemons (see [`Guard::release`]): the
/// public clients' connections take no read timeout, so a stalled
/// daemon would otherwise hang the harness until the driver kills it.
/// Every operation blocked on a daemon then fails and is counted.
fn with_deadline<T>(seconds: f64, f: impl FnOnce() -> T) -> T {
    let deadline = Duration::from_secs_f64(60.0 + 5.0 * seconds);
    let (done, hung) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            if hung.recv_timeout(deadline) == Err(mpsc::RecvTimeoutError::Timeout) {
                eprintln!("e2e: no result after {deadline:?}: killing the daemons");
                Guard::release();
            }
        });
        let value = f();
        drop(done);
        value
    })
}

/// The last line of standard output: what the builder's driver reads.
/// Untraced runs report every end-to-end metric, traced runs every
/// per-layer metric; a per-layer metric the workload does not exercise
/// reads 0 there (and is absent from the record).
fn driver_line(spec: &BenchSpec, runs: &WorkloadRuns, traced: bool) -> Result<String, String> {
    let wanted = if traced { &spec.per_layer } else { &spec.end_to_end };
    let mut metrics = Vec::new();
    for metric in wanted {
        let values = runs.values(&metric.name);
        let value = match (values.is_empty(), traced) {
            (false, _) => stats::median(&values),
            (true, true) => 0.0,
            (true, false) => {
                return Err(format!(
                    "{}: end-to-end metric {} was not measured",
                    runs.name, metric.name
                ))
            }
        };
        let fields = [("value", Value::Num(value)), ("unit", Value::str(&metric.unit))];
        metrics.push((metric.name.clone(), Value::obj(fields)));
    }
    Ok(Value::obj([
        ("correct", Value::Bool(runs.correct())),
        ("attempted", Value::Num(runs.checks.attempted as f64)),
        ("failed", Value::Num(runs.checks.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render())
}

fn print_metrics(spec: &BenchSpec, runs: &WorkloadRuns) {
    println!("# {} ({} run(s))", runs.name, runs.runs.len());
    for name in runs.names() {
        let first = runs.runs[0].get(name).expect("name came from the first run");
        let values = runs.values(name);
        print!("{name} {} {}", stats::median(&values), first.unit);
        if let Some((q1, q3)) = stats::quartiles(&values) {
            let spread = stats::spread(&values);
            print!("  # q1 {q1} q3 {q3} spread {:.1}%", spread * 100.0);
            // The repeatability self-check: an end-to-end metric that
            // cannot hold its own bound on one commit is no gate
            // (`setup_s` excepted: the builder's contract requires it
            // and judges its median only).
            let bound = spec.end_to_end.iter().find(|m| m.name == name).and_then(|m| m.bound);
            if name != "setup_s" && bound.is_some_and(|bound| spread > bound) {
                print!(" EXCEEDS its bound: demote to per-layer `daemon.{name}`");
            }
        }
        if first.raw.is_some() {
            let raw: Vec<f64> = runs.runs.iter().filter_map(|m| m.get(name)?.raw).collect();
            print!("  # as measured {}", stats::median(&raw));
        }
        if let Some(p) = first.percentile {
            print!("  # p{} of {} samples", p * 100.0, first.samples);
        }
        println!();
    }
    for failure in &runs.checks.failures {
        println!("# FAILED: {failure}");
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let spec = BenchSpec::load()?;
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let rlscoped = child::locate_rlscoped()?;
    let mut header = Header::capture(args.seed, seconds, args.traced, args.repeat);
    let _guard = Guard::start()?;
    let single = args.workloads.len() == 1;
    let mut all = Vec::new();
    let mut last_line = String::new();
    for workload in args.workloads {
        let mut runs = WorkloadRuns {
            name: workload.to_string(),
            sizes: Vec::new(),
            checks: Default::default(),
            runs: Vec::new(),
        };
        for _ in 0..args.repeat {
            let env = Env {
                rlscoped: rlscoped.clone(),
                scratch: Scratch::create()?,
                seed: args.seed,
                seconds,
                speed: Default::default(),
            };
            // `<out>.trace.json`, one per workload when there are several.
            let trace_out = args.out.as_ref().map(|out| match single {
                true => format!("{out}.trace.json"),
                false => format!("{out}.{workload}.trace.json"),
            });
            header.scratch_spread_by_name = env.scratch.spread_by_name;
            let outcome = with_deadline(seconds, || {
                run_once(workload, &env, args.traced, trace_out.as_deref())
            })?;
            runs.sizes = outcome.sizes;
            runs.checks.merge(outcome.checks);
            runs.runs.push(outcome.metrics);
        }
        print_metrics(&spec, &runs);
        last_line = driver_line(&spec, &runs, args.traced)?;
        all.push(runs);
    }
    if let Some(out) = &args.out {
        std::fs::write(out, record::record_json(&header, &all).render_pretty())
            .map_err(|e| format!("write {out}: {e}"))?;
    }
    println!("{last_line}");
    Ok(all.iter().all(WorkloadRuns::correct))
}

fn diff(args: &[String]) -> Result<bool, String> {
    let [before, after] = args else { return Err(USAGE.into()) };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let outcome = record::diff(&BenchSpec::load()?, &read(before)?, &read(after)?);
    print!("{}", outcome.report);
    Ok(outcome.regressions == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "diff" => diff(rest),
        // What `child::Guard` starts; not for the command line.
        Some((cmd, [])) if cmd == "guard" => child::guard(),
        _ => Err(USAGE.into()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
