//! The real `rlscoped` binary, shared by the suites that drive it
//! (`tests/chaos.rs`, `tests/collector.rs`): where it is, how to spawn
//! it on a Unix socket or a TCP listener, and the guard that kills it.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

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

/// Spawns `rlscoped` on `socket` and waits (up to 20 s) for the socket
/// file to appear.
pub fn spawn_rlscoped(bin: &Path, socket: &Path, data: &Path) -> Rlscoped {
    let daemon = Rlscoped(command(bin, socket, data).spawn().unwrap());
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    daemon
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
    let mut command = command(bin, socket, data);
    command.args(["--listen", listen]).stdout(Stdio::piped());
    let mut daemon = Rlscoped(command.spawn().unwrap());
    let stdout = daemon.0.stdout.take().unwrap();
    for line in std::io::BufReader::new(stdout).lines() {
        let Ok(line) = line else { break };
        if let Some(rest) = line.strip_prefix("rlscoped: listening on tcp://") {
            return Some((daemon, rest.to_string()));
        }
    }
    None
}
