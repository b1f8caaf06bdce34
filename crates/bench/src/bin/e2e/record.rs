//! The machine-readable side: `BENCHMARK.json` (which metrics exist,
//! their direction and bound), the record one run writes, and `diff`,
//! which compares two records metric by metric against those bounds.

use crate::common::Metrics;
use crate::json::{parse, Value};
use crate::oracle::Checks;
use crate::stats::{median, quartiles, spread};
use std::fmt::Write as _;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One metric named by `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// per-layer metrics carry none.
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the harness itself needs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl BenchSpec {
    /// Reads `BENCHMARK.json` from the current directory (the root of
    /// the checkout, where the driver and the README both run from).
    pub fn load() -> Result<BenchSpec, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        BenchSpec::parse(&text)
    }

    pub fn parse(text: &str) -> Result<BenchSpec, String> {
        let doc = parse(text)?;
        let list = |key: &str| {
            doc.get(key).and_then(Value::as_arr).ok_or(format!("BENCHMARK.json: no {key} list"))
        };
        let metric = |v: &Value| -> Result<MetricSpec, String> {
            let field = |key: &str| {
                v.get(key).and_then(Value::as_str).ok_or(format!("BENCHMARK.json: metric {key}"))
            };
            Ok(MetricSpec {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                better: match field("better")? {
                    "lower" => Better::Lower,
                    "higher" => Better::Higher,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: v.get("bound").and_then(Value::as_f64),
            })
        };
        Ok(BenchSpec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: list("end_to_end")?.iter().map(metric).collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?.iter().map(metric).collect::<Result<_, _>>()?,
        })
    }
}

/// One workload's results across `--repeat` runs (usually one).
#[derive(Debug)]
pub struct WorkloadRuns {
    pub name: String,
    pub sizes: Vec<(&'static str, f64)>,
    pub checks: Checks,
    /// Each run's metrics; all runs report the same names.
    pub runs: Vec<Metrics>,
}

impl WorkloadRuns {
    /// Every value reported under `name`, one per run.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.runs.iter().filter_map(|m| m.get(name)).map(|m| m.value).collect()
    }

    /// Metric names in first-run report order.
    pub fn names(&self) -> Vec<&str> {
        self.runs.first().map(|m| m.0.iter().map(|m| m.name.as_str()).collect()).unwrap_or_default()
    }

    pub fn correct(&self) -> bool {
        self.checks.failed == 0 && self.checks.attempted > 0
    }

    fn to_json(&self) -> Value {
        let metrics = self
            .names()
            .into_iter()
            .map(|name| {
                let first = self.runs[0].get(name).expect("name came from the first run");
                let values = self.values(name);
                let mut fields = vec![
                    ("value".to_string(), Value::Num(median(&values))),
                    ("unit".to_string(), Value::str(first.unit)),
                    ("samples".to_string(), Value::Num(first.samples as f64)),
                ];
                if let Some(p) = first.percentile {
                    fields.push(("percentile".to_string(), Value::Num(p)));
                }
                // A gated timing is corrected for the machine's speed
                // during the run; this is what was measured.
                let raw: Vec<f64> = self.runs.iter().filter_map(|m| m.get(name)?.raw).collect();
                if !raw.is_empty() {
                    fields.push(("raw".to_string(), Value::Num(median(&raw))));
                }
                if values.len() > 1 {
                    let (q1, q3) = quartiles(&values).expect("two or more values");
                    fields.push(("q1".to_string(), Value::Num(q1)));
                    fields.push(("q3".to_string(), Value::Num(q3)));
                    fields.push(("spread".to_string(), Value::Num(spread(&values))));
                    fields.push((
                        "values".to_string(),
                        Value::Arr(values.into_iter().map(Value::Num).collect()),
                    ));
                }
                (name.to_string(), Value::Obj(fields))
            })
            .collect();
        Value::obj([
            (
                "sizes",
                Value::Obj(
                    self.sizes.iter().map(|(k, v)| (k.to_string(), Value::Num(*v))).collect(),
                ),
            ),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.checks.attempted as f64)),
            ("failed", Value::Num(self.checks.failed as f64)),
            ("failures", Value::Arr(self.checks.failures.iter().map(Value::str).collect())),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// What a record says about where and how it was taken — cores and
/// commit above all, so a 1-core record is never again compared
/// silently with a 2-core one.
#[derive(Debug, Clone)]
pub struct Header {
    pub commit: String,
    pub rustc: String,
    pub cores: usize,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub repeat: usize,
    /// Whether the scratch tree's root took `chattr +T` (see
    /// `child::Scratch`): without it ingest reads lower.
    pub scratch_spread_by_name: bool,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl Header {
    pub fn capture(seed: u64, seconds: f64, traced: bool, repeat: usize) -> Header {
        Header {
            // The driver's checkout is not a git repository; there the
            // commit reads "unknown" and the driver knows which it is.
            commit: tool_line("git", &["rev-parse", "HEAD"]),
            rustc: tool_line("rustc", &["-V"]),
            cores: std::thread::available_parallelism().map_or(1, usize::from),
            seed,
            seconds,
            traced,
            repeat,
            scratch_spread_by_name: false,
        }
    }
}

/// The whole record as JSON.
pub fn record_json(header: &Header, workloads: &[WorkloadRuns]) -> Value {
    Value::obj([
        ("schema", Value::str("rlscope-e2e/1")),
        (
            "header",
            Value::obj([
                ("commit", Value::str(&header.commit)),
                ("rustc", Value::str(&header.rustc)),
                ("available_parallelism", Value::Num(header.cores as f64)),
                // As a string: a u64 seed need not fit a JSON double.
                ("seed", Value::str(header.seed.to_string())),
                ("seconds", Value::Num(header.seconds)),
                ("traced", Value::Bool(header.traced)),
                ("repeat", Value::Num(header.repeat as f64)),
                ("scratch_spread_by_name", Value::Bool(header.scratch_spread_by_name)),
            ]),
        ),
        (
            "workloads",
            Value::Obj(workloads.iter().map(|w| (w.name.clone(), w.to_json())).collect()),
        ),
    ])
}

/// How one metric moved between two records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Unchanged,
    Improved,
    Regression,
    /// The run-to-run spread is wider than the bound, so the bound
    /// cannot tell a change from noise.
    Unresolved,
}

/// Judges `after` against `before` (one value per run of each).
/// Returns the verdict, the change of the median as a share of the
/// `before` median (positive = worse), and the wider of the two
/// spreads.
pub fn verdict(before: &[f64], after: &[f64], better: Better, bound: f64) -> (Verdict, f64, f64) {
    let (a, b) = (median(before), median(after));
    let worse_by = match better {
        _ if a == 0.0 => 0.0,
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    };
    let noise = spread(before).max(spread(after));
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let every =
        |f: &dyn Fn(f64, f64) -> bool| after.iter().all(|&y| before.iter().all(|&x| f(y, x)));
    let verdict = if noise > bound {
        if every(&|y, x| beats(y, x)) {
            Verdict::Improved
        } else if worse_by > bound && every(&|y, x| beats(x, y)) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Regression
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by, noise)
}

fn record_metric<'a>(record: &'a Value, workload: &str, metric: &str) -> Option<&'a Value> {
    record.get("workloads")?.get(workload)?.get("metrics")?.get(metric)
}

/// A metric's values in a record: the per-run `values` when the record
/// was taken with `--repeat`, else the single `value`.
fn record_values(record: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let m = record_metric(record, workload, metric)?;
    match m.get("values").and_then(Value::as_arr) {
        Some(values) => Some(values.iter().filter_map(Value::as_f64).collect()),
        None => Some(vec![m.get("value")?.as_f64()?]),
    }
}

/// The outcome of `e2e diff`.
#[derive(Debug)]
pub struct Diff {
    pub report: String,
    pub regressions: usize,
    pub unresolved: usize,
}

/// Compares two records over every end-to-end metric of every workload
/// both hold, against the bounds in `spec`.
pub fn diff(spec: &BenchSpec, before: &Value, after: &Value) -> Diff {
    let mut out = Diff { report: String::new(), regressions: 0, unresolved: 0 };
    for key in ["commit", "available_parallelism", "seed", "seconds", "scratch_spread_by_name"] {
        let side = |r: &Value| r.get("header").and_then(|h| h.get(key)).map(Value::render);
        let (a, b) = (side(before), side(after));
        if a != b {
            let _ = writeln!(out.report, "note: {key} differs: {a:?} vs {b:?}");
        }
    }
    let _ = writeln!(
        out.report,
        "{:<16} {:<26} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "before", "after", "worse", "spread", "bound"
    );
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (Some(a), Some(b)) = (
                record_values(before, workload, &metric.name),
                record_values(after, workload, &metric.name),
            ) else {
                continue;
            };
            // A tail metric whose two records could not carry the same
            // percentile is two different quantities under one name.
            let percentile = |record| {
                record_metric(record, workload, &metric.name)
                    .and_then(|m| m.get("percentile"))
                    .and_then(Value::as_f64)
            };
            if percentile(before) != percentile(after) {
                out.unresolved += 1;
                let _ = writeln!(
                    out.report,
                    "{:<16} {:<26} not comparable: percentile {:?} before, {:?} after",
                    workload,
                    metric.name,
                    percentile(before),
                    percentile(after)
                );
                continue;
            }
            let bound = metric.bound.unwrap_or(0.0);
            let (verdict, worse_by, noise) = verdict(&a, &b, metric.better, bound);
            match verdict {
                Verdict::Regression => out.regressions += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Unchanged | Verdict::Improved => {}
            }
            let _ = writeln!(
                out.report,
                "{:<16} {:<26} {:>14.6} {:>14.6} {:>+7.1}% {:>6.1}% {:>5.0}%  {}",
                workload,
                metric.name,
                median(&a),
                median(&b),
                worse_by * 100.0,
                noise * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Unchanged => "unchanged",
                    Verdict::Improved => "improved",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved (spread exceeds bound)",
                }
            );
        }
    }
    let _ =
        writeln!(out.report, "{} regression(s), {} unresolved", out.regressions, out.unresolved);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "command": ["bash", "x"], "paths": ["x"], "run_seconds": 12,
        "workloads": [{"name": "w", "why": "because"}],
        "end_to_end": [
            {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}
        ],
        "per_layer": [{"name": "layer.ns", "unit": "ns", "better": "lower"}]
    }"#;

    fn header(repeat: usize) -> Header {
        Header {
            commit: "c".into(),
            rustc: "r".into(),
            cores: 2,
            seed: u64::MAX,
            seconds: 12.0,
            traced: false,
            repeat,
            scratch_spread_by_name: true,
        }
    }

    #[test]
    fn benchmark_json_parses_into_the_spec() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        assert_eq!(spec.run_seconds, 12.0);
        assert_eq!(spec.workloads, ["w"]);
        assert_eq!(spec.end_to_end[1].better, Better::Higher);
        assert_eq!(spec.end_to_end[0].bound, Some(0.1));
        assert_eq!(spec.per_layer[0].bound, None);
        assert!(BenchSpec::parse("{}").is_err());
    }

    #[test]
    fn verdicts_cover_all_four_cases() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 100.9, 99.4, 100.1, 99.8];
        let slower = [120.0, 121.0, 119.0, 120.5, 119.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(verdict(&steady, &same, Better::Lower, 0.1).0, Verdict::Unchanged);
        assert_eq!(verdict(&steady, &slower, Better::Lower, 0.1).0, Verdict::Regression);
        assert_eq!(verdict(&steady, &faster, Better::Lower, 0.1).0, Verdict::Improved);
        // The same numbers read the other way round for a throughput.
        assert_eq!(verdict(&steady, &slower, Better::Higher, 0.1).0, Verdict::Improved);
        assert_eq!(verdict(&steady, &faster, Better::Higher, 0.1).0, Verdict::Regression);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let noisy = [100.0, 140.0, 70.0, 125.0, 85.0];
        let also = [104.0, 138.0, 72.0, 120.0, 90.0];
        let (v, _, noise) = verdict(&noisy, &also, Better::Lower, 0.1);
        assert_eq!(v, Verdict::Unresolved);
        assert!(noise > 0.1);
        // ...unless every run of the change beats every run of the parent.
        let clear = [50.0, 60.0, 40.0, 55.0, 45.0];
        assert_eq!(verdict(&noisy, &clear, Better::Lower, 0.1).0, Verdict::Improved);
        // ...or every run is worse, by more than the bound.
        let awful = [300.0, 340.0, 270.0, 325.0, 285.0];
        assert_eq!(verdict(&noisy, &awful, Better::Lower, 0.1).0, Verdict::Regression);
        // Single runs have no spread to judge by; the bound decides.
        assert_eq!(verdict(&[100.0], &[105.0], Better::Lower, 0.1).0, Verdict::Unchanged);
        assert_eq!(verdict(&[100.0], &[125.0], Better::Lower, 0.1).0, Verdict::Regression);
    }

    #[test]
    fn diff_reads_records_and_counts_regressions() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        let record = |lat: &[f64], rate: f64| {
            let mut m = Metrics::default();
            m.push("rate", rate, "1/s", 1);
            let runs: Vec<Metrics> = lat
                .iter()
                .map(|&l| {
                    let mut run = m.clone();
                    run.push("lat_ms", l, "ms", 9);
                    run
                })
                .collect();
            let mut checks = Checks::default();
            checks.check(true, "an operation");
            let w = WorkloadRuns { name: "w".into(), sizes: vec![("n", 5.0)], checks, runs };
            // Through text, as `diff` reads records from files.
            parse(&record_json(&header(lat.len()), &[w]).render_pretty()).unwrap()
        };
        let before = record(&[10.0, 10.1, 9.9], 500.0);
        assert_eq!(
            before.get("header").and_then(|h| h.get("seed")).and_then(Value::as_str),
            Some("18446744073709551615")
        );
        let same = diff(&spec, &before, &record(&[10.05, 10.0, 9.95], 510.0));
        assert_eq!((same.regressions, same.unresolved), (0, 0));
        let worse = diff(&spec, &before, &record(&[12.0, 12.1, 11.9], 400.0));
        assert_eq!((worse.regressions, worse.unresolved), (2, 0));
        assert!(worse.report.contains("REGRESSION"));
        let noisy = diff(&spec, &before, &record(&[10.0, 14.0, 7.0], 500.0));
        assert_eq!((noisy.regressions, noisy.unresolved), (0, 1));
        assert!(noisy.report.contains("unresolved"));
    }

    #[test]
    fn diff_refuses_to_compare_unequal_percentiles() {
        let spec = BenchSpec::parse(SPEC).unwrap();
        let record = |samples: usize| {
            let mut run = Metrics::default();
            let latencies: Vec<f64> = (1..=samples).map(|i| i as f64).collect();
            run.push_tail("lat_ms", &latencies, 0.99, "ms");
            let mut checks = Checks::default();
            checks.check(true, "an operation");
            let w = WorkloadRuns { name: "w".into(), sizes: Vec::new(), checks, runs: vec![run] };
            parse(&record_json(&header(1), &[w]).render_pretty()).unwrap()
        };
        // 150 samples carry p90, 300 carry p95: not the same quantity.
        let unequal = diff(&spec, &record(150), &record(300));
        assert_eq!((unequal.regressions, unequal.unresolved), (0, 1));
        assert!(unequal.report.contains("not comparable"));
        let equal = diff(&spec, &record(300), &record(310));
        assert_eq!((equal.regressions, equal.unresolved), (0, 0));
    }
}
