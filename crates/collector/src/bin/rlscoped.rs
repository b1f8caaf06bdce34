//! `rlscoped` — the live trace collector daemon.
//!
//! ```text
//! rlscoped --socket <path> --data-dir <dir> [--listen tcp://host:port]
//!          [--credits N] [--idle-timeout-secs N]
//!          [--retention raw=<dur>,sorted=<dur>,rollup=<dur>]
//! ```
//!
//! Binds the Unix-domain socket (plus an optional TCP listener carrying
//! the identical framed protocol), runs the crash-recovery scan over the
//! data dir (re-serving finished sessions, truncating torn tails and
//! rebuilding live state for interrupted ones, serving legacy
//! directories read-only), and serves profiling sessions and queries until
//! killed. See the `rlscope-collector` crate docs for the wire protocol
//! and the durability contract.

use rlscope_collector::daemon::serve_forever;
use rlscope_collector::{Collector, CollectorConfig, RetentionPolicy, SessionPhase};
use std::time::Duration;

const USAGE: &str = "usage: rlscoped --socket <path> --data-dir <dir> \
[--listen tcp://host:port] [--credits N] [--idle-timeout-secs N] \
[--retention raw=<dur>,sorted=<dur>,rollup=<dur>]
  --retention ages finished sessions down the storage ladder: after the
  raw= dwell a session's chunks are rewritten start-sorted, after the
  sorted= dwell they are rolled up into segment summaries (coarse
  queries only), and after the rollup= dwell the session is pruned.
  Durations take ms/s/m/h/d suffixes; omitted keys mean sessions stay
  at that tier forever (e.g. --retention raw=30m,sorted=12h).";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut socket: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut credits: Option<u32> = None;
    let mut idle_timeout_secs: Option<u64> = None;
    let mut retention: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        let value = |i: usize| -> String {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("{} requires a value", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--socket" | "-s" => socket = Some(value(i)),
            "--data-dir" | "-d" => data_dir = Some(value(i)),
            "--listen" | "-l" => listen = Some(value(i)),
            "--credits" => credits = Some(value(i).parse().unwrap_or_else(|_| usage())),
            "--idle-timeout-secs" => {
                idle_timeout_secs = Some(value(i).parse().unwrap_or_else(|_| usage()));
            }
            "--retention" | "-r" => retention = Some(value(i)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
        i += 2;
    }
    let (Some(socket), Some(data_dir)) = (socket, data_dir) else { usage() };
    let mut config = CollectorConfig::new(socket, data_dir);
    if let Some(listen) = listen {
        if !listen.starts_with("tcp://") {
            eprintln!("rlscoped: --listen takes a tcp://host:port address (got {listen:?})");
            std::process::exit(2);
        }
        config.tcp_listen = Some(listen);
    }
    if let Some(credits) = credits {
        config.credits = credits.max(1);
    }
    if let Some(secs) = idle_timeout_secs {
        config.idle_timeout = Some(Duration::from_secs(secs.max(1)));
    }
    if let Some(retention) = retention {
        match RetentionPolicy::parse(&retention) {
            Ok(policy) => config.retention = Some(policy),
            Err(e) => {
                eprintln!("rlscoped: bad --retention value: {e}");
                std::process::exit(2);
            }
        }
    }
    let collector = match Collector::bind(config) {
        Ok(collector) => collector,
        Err(e) => {
            eprintln!("rlscoped: bind failed: {e}");
            std::process::exit(1);
        }
    };
    for recovered in collector.recovered_sessions() {
        let phase = match recovered.phase {
            SessionPhase::Finished => "finished, re-serving",
            SessionPhase::Detached => "interrupted, awaiting resume",
            SessionPhase::Aborted => "aborted, data queryable",
            SessionPhase::Attached => "attached",
        };
        // Only interrupted sessions replay events into live sweeps at
        // recovery; finished/aborted dirs are served through the batch
        // path, so an event count there would always read 0.
        let events = match recovered.phase {
            SessionPhase::Detached => format!(", {} events replayed", recovered.events),
            _ => String::new(),
        };
        println!(
            "rlscoped: recovered session '{}' ({phase}; {} chunks{events}{})",
            recovered.name,
            recovered.chunks,
            if recovered.removed_chunks > 0 {
                format!(", {} torn tail chunk(s) truncated", recovered.removed_chunks)
            } else {
                String::new()
            }
        );
    }
    println!("rlscoped: listening on {}", collector.socket().display());
    if let Some(addr) = collector.tcp_addr() {
        println!("rlscoped: listening on tcp://{addr}");
    }
    serve_forever(collector);
}
