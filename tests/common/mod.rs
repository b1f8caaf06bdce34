//! What the daemon suites (`tests/chaos.rs`, `tests/collector.rs`,
//! `tests/tiering.rs`) share: a scratch directory that removes itself,
//! the session stream they send, and the real `rlscoped` binary — where
//! it is, how to spawn it on a Unix socket or a TCP listener, and the
//! guard that kills it.

// Each suite compiles its own copy of this module and uses part of it.
#![allow(dead_code)]

use rlscope::collector::{Collector, SessionPhase};
use rlscope::core::event::{CpuCategory, Event, EventKind, GpuCategory};
use rlscope::sim::ids::ProcessId;
use rlscope::sim::time::TimeNs;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A test's scratch directory, `$TMPDIR/rls_<suite>_<tag>_<pid>`,
/// removed when dropped — also while a failing test unwinds. Bind it
/// before the daemons it hosts: locals drop in reverse order, so they
/// are dead (an [`Rlscoped`] reaped, a `Collector` shut down) before
/// their directory goes.
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty scratch directory for `tag`.
    pub fn new(tag: &str) -> Scratch {
        let name = format!("rls_{}_{tag}_{}", env!("CARGO_CRATE_NAME"), std::process::id());
        let root = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Scratch(root)
    }

    /// The directory itself.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A scratch directory for `tag`, with a daemon socket path in it (a
/// short one: `sun_path` holds 108 bytes) and a data directory path.
pub fn scratch(tag: &str) -> (Scratch, PathBuf, PathBuf) {
    let scratch = Scratch::new(tag);
    let (socket, data) = (scratch.0.join("sock"), scratch.0.join("data"));
    (scratch, socket, data)
}

/// A realistic per-session stream of `n` events from process `pid`:
/// nested operation annotations over interleaved CPU/GPU activity, with
/// two phases recorded at close (profiler order — their events arrive
/// *after* the time they cover).
pub fn session_events(pid: u32, n: usize) -> Vec<Event> {
    let p = ProcessId(pid);
    let mut events = Vec::with_capacity(n + n / 50 + 2);
    let mut i = 0u64;
    while events.len() + 2 < n {
        let t = i * 1_000;
        if i.is_multiple_of(50) {
            let name = if (i / 50).is_multiple_of(2) { "train_step" } else { "collect_rollouts" };
            events.push(Event::new(
                p,
                EventKind::Operation,
                name,
                TimeNs::from_nanos(t),
                TimeNs::from_nanos(t + 50_000),
            ));
        }
        let kind = match i % 4 {
            0 => EventKind::Cpu(CpuCategory::Python),
            1 => EventKind::Cpu(CpuCategory::Backend),
            2 => EventKind::Cpu(CpuCategory::CudaApi),
            _ => EventKind::Gpu(GpuCategory::Kernel),
        };
        events.push(Event::new(p, kind, "e", TimeNs::from_nanos(t), TimeNs::from_nanos(t + 800)));
        i += 1;
    }
    let mid = i * 500;
    let end = i * 1_000 + 60_000;
    events.push(Event::new(
        p,
        EventKind::Phase,
        "warmup",
        TimeNs::from_nanos(0),
        TimeNs::from_nanos(mid),
    ));
    events.push(Event::new(
        p,
        EventKind::Phase,
        "steady",
        TimeNs::from_nanos(mid),
        TimeNs::from_nanos(end),
    ));
    events
}

/// Polls the collector until `name` reaches `phase` (the reaper and the
/// connection teardown paths run asynchronously).
pub fn wait_phase(collector: &Collector, name: &str, phase: SessionPhase) {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if collector.session_phase(name) == Some(phase) {
            return;
        }
        assert!(Instant::now() < deadline, "session '{name}' never reached {phase:?}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The `rlscoped` binary, if it has been built (CI builds it before
/// running these suites; `cargo test` does not rebuild it).
pub fn rlscoped_bin() -> Option<PathBuf> {
    let mut bin = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    bin.push("target");
    bin.push(if cfg!(debug_assertions) { "debug" } else { "release" });
    bin.push("rlscoped");
    bin.exists().then_some(bin)
}

/// A spawned `rlscoped`, SIGKILLed and reaped when dropped — also when
/// its test panics, so a failing test never leaves a daemon running.
pub struct Rlscoped(Child);

impl Rlscoped {
    /// SIGKILLs the daemon now and reaps it.
    pub fn kill(mut self) {
        self.0.kill().unwrap();
        self.0.wait().unwrap();
    }
}

impl Drop for Rlscoped {
    fn drop(&mut self) {
        // A no-op after `kill`: a reaped child is never signalled again.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn command(bin: &Path, socket: &Path, data: &Path) -> Command {
    let mut command = Command::new(bin);
    command
        .args(["--socket", socket.to_str().unwrap(), "--data-dir", data.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    command
}

/// Spawns `rlscoped` on `socket` and waits until it listens.
pub fn spawn_rlscoped(bin: &Path, socket: &Path, data: &Path) -> Rlscoped {
    spawn_listening(bin, socket, data, None).expect("rlscoped exited before it listened").0
}

/// Spawns `rlscoped` with a TCP listener and returns it with the
/// resolved `host:port` from its startup line — or `None` when the
/// process dies before announcing one (e.g. the address is still held
/// by a killed predecessor's lingering connections).
pub fn try_spawn_rlscoped_tcp(
    bin: &Path,
    socket: &Path,
    data: &Path,
    listen: &str,
) -> Option<(Rlscoped, String)> {
    spawn_listening(bin, socket, data, Some(listen))
}

/// Spawns `rlscoped` and reads its stdout up to the last line it prints
/// at startup: `listening on tcp://<addr>` when `listen` is given, else
/// `listening on <socket>`. Both follow the listen calls, so the daemon
/// accepts from then on (the socket file alone appears at `bind`, a
/// moment before the socket listens). Returns the line's address, or
/// `None` when the process exits first.
fn spawn_listening(
    bin: &Path,
    socket: &Path,
    data: &Path,
    listen: Option<&str>,
) -> Option<(Rlscoped, String)> {
    let mut command = command(bin, socket, data);
    command.stdout(Stdio::piped());
    let prefix = match listen {
        Some(listen) => {
            command.args(["--listen", listen]);
            "rlscoped: listening on tcp://"
        }
        None => "rlscoped: listening on ",
    };
    let mut daemon = Rlscoped(command.spawn().unwrap());
    let stdout = daemon.0.stdout.take().unwrap();
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if let Some(addr) = line.strip_prefix(prefix) {
            return Some((daemon, addr.to_string()));
        }
    }
    None
}
