//! `repro` — regenerates every table and figure of the RL-Scope paper,
//! and fronts the live collector daemon.
//!
//! ```text
//! repro [--experiment <id>] [--steps N]
//!   ids: table1 fig4a fig4b fig4c fig4d fig5 fig7 fig8 fig8p fig9 fig10
//!        fig11a fig11b c4 all
//!
//! repro --serve <socket> [--data-dir <dir>]
//!   runs the collector daemon (rlscoped in-process) until killed
//!
//! repro --connect <socket> [--steps N]
//!   streams a profiled DDPG run into a live collector session, queries
//!   it mid-flight and after finish, and prints both breakdowns
//! ```

use rlscope_bench::*;
use rlscope_collector::{Collector, CollectorConfig, CollectorSink, QuerySpec};
use rlscope_core::analysis::Dim;
use rlscope_core::profiler::Toggles;
use rlscope_rl::AlgoKind;
use rlscope_workloads::{MinigoConfig, ScaleConfig, TrainSpec};

/// Every experiment id `--experiment` accepts, besides `all`.
const EXPERIMENTS: &[&str] = &[
    "table1", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig7", "fig8", "fig8p", "fig9", "fig10",
    "fig11a", "fig11b", "c4",
];

/// `repro --serve`: run the collector daemon in-process until killed.
fn serve(socket: &str, data_dir: &str) -> ! {
    let collector = match Collector::bind(CollectorConfig::new(socket, data_dir)) {
        Ok(collector) => collector,
        Err(e) => {
            eprintln!("repro --serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("collector listening on {}", collector.socket().display());
    rlscope_collector::daemon::serve_forever(collector)
}

/// `repro --connect`: stream one profiled run into a live session and
/// query it while (and after) it runs.
fn connect(socket: &str, steps: usize) {
    let session = format!("repro-{}", std::process::id());
    let sink = match CollectorSink::connect(std::path::Path::new(socket), &session) {
        Ok(sink) => sink,
        Err(e) => {
            eprintln!("repro --connect: {e}");
            std::process::exit(1);
        }
    };
    let spec = TrainSpec {
        scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
        ..TrainSpec::new(
            AlgoKind::Ddpg,
            "Walker2D",
            rlscope_workloads::frameworks::STABLE_BASELINES,
            steps,
        )
    };
    let outcome = spec.run_streamed(Toggles::all(), sink.clone(), 1024);
    let fail = |e: rlscope_collector::CollectorError| -> ! {
        eprintln!("repro --connect: {e}");
        std::process::exit(1);
    };
    let live = sink
        .query(&QuerySpec::session(&session).group_by([Dim::Operation]))
        .unwrap_or_else(|e| fail(e));
    println!(
        "live query over session {session} ({} events observed):\n{}",
        live.events_observed, live.canonical_json
    );
    let summary = sink.finish().unwrap_or_else(|e| fail(e));
    println!("session finished: {} chunks, {} events durable", summary.chunks, summary.events);
    let done = sink
        .query(&QuerySpec::session(&session).group_by([Dim::Operation]))
        .unwrap_or_else(|e| fail(e));
    println!("post-finish query (pushdown + cache):\n{}", done.canonical_json);
    let Some(trace) = outcome.trace else {
        eprintln!("repro --connect: profiled run produced no trace");
        std::process::exit(2);
    };
    println!("local event count for cross-check: {}", trace.events.len());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut experiment = "all".to_string();
    let mut steps = DEFAULT_STEPS;
    let mut serve_socket: Option<String> = None;
    let mut connect_socket: Option<String> = None;
    let mut data_dir = "rlscope-collector-data".to_string();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--serve" => {
                serve_socket = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--serve requires a socket path");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--connect" => {
                connect_socket = Some(args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--connect requires a socket path");
                    std::process::exit(2);
                }));
                i += 2;
            }
            "--data-dir" => {
                data_dir = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--data-dir requires a path");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--experiment" | "-e" => {
                experiment = args.get(i + 1).cloned().unwrap_or_else(|| {
                    eprintln!("--experiment requires a value");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--steps" | "-s" => {
                steps = args.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--steps requires a number");
                    std::process::exit(2);
                });
                i += 2;
            }
            "--help" | "-h" => {
                println!(
                    "repro [--experiment {}|all] [--steps N]\n\
                     repro --serve <socket> [--data-dir <dir>]\n\
                     repro --connect <socket> [--steps N]",
                    EXPERIMENTS.join("|")
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    if let Some(socket) = serve_socket {
        serve(&socket, &data_dir);
    }
    if let Some(socket) = connect_socket {
        connect(&socket, steps.min(120));
        return;
    }

    // An unknown experiment id used to print nothing and exit 0, making
    // typos indistinguishable from success in scripts.
    if experiment != "all" && !EXPERIMENTS.contains(&experiment.as_str()) {
        eprintln!("unknown experiment id `{experiment}`");
        eprintln!("valid ids: {} (or `all`)", EXPERIMENTS.join(", "));
        std::process::exit(2);
    }

    let want = |id: &str| experiment == "all" || experiment == id;

    if want("table1") {
        println!("{}", render_table1());
    }
    if want("fig4a") || want("fig4c") {
        let (text, runs) = render_fig4_breakdown(AlgoKind::Td3, steps);
        if want("fig4a") {
            println!("{text}");
        }
        if want("fig4c") {
            println!("{}", render_fig4_transitions(&runs, AlgoKind::Td3));
        }
    }
    if want("fig4b") || want("fig4d") {
        let (text, runs) = render_fig4_breakdown(AlgoKind::Ddpg, steps);
        if want("fig4b") {
            println!("{text}");
        }
        if want("fig4d") {
            println!("{}", render_fig4_transitions(&runs, AlgoKind::Ddpg));
        }
    }
    if want("fig5") {
        println!("{}", render_fig5(steps).0);
    }
    if want("fig7") {
        println!("{}", render_fig7(steps).0);
    }
    if want("fig8") || want("fig8p") {
        // One Minigo round serves both views: the workload is the
        // heaviest in the suite and nondeterministic, so rendering both
        // figures from the same round keeps them cross-checkable.
        let result = rlscope_workloads::run_minigo(&MinigoConfig::default());
        if want("fig8") {
            println!("{}", render_fig8_result(&result));
        }
        if want("fig8p") {
            println!("{}", render_fig8_phases_result(&result));
        }
    }
    if want("fig9") || want("fig10") {
        println!("{}", render_fig9_10(steps));
    }
    if want("fig11a") || want("fig11b") {
        println!("{}", render_fig11(steps));
    }
    if want("c4") {
        println!("{}", render_c4(steps));
    }
}
