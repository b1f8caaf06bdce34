//! Real `rlscoped` child processes and the scratch directory they live
//! in. Everything here cleans up on drop — SIGKILL + wait for a child,
//! `remove_dir_all` for the scratch tree — so a failed run leaves
//! neither behind; a run that is itself killed leaves them to its
//! [`Guard`].

use crate::procfs;
use rlscope_collector::Endpoint;
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Finds `rlscoped` beside this executable (both are built into the
/// same `target/<profile>/` directory).
pub fn locate_rlscoped() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let dir = me.parent().ok_or("own executable has no parent directory")?;
    let candidate = dir.join("rlscoped");
    if candidate.is_file() {
        return Ok(candidate);
    }
    Err(format!(
        "rlscoped not found at {}: build it into the same target directory first \
         (cargo build --release --offline -p rlscope-collector --bin rlscoped)",
        candidate.display()
    ))
}

/// A per-run scratch tree under the current directory. The path stays
/// *relative*: a Unix socket path is capped at 108 bytes, and the
/// checkout the driver runs in may sit arbitrarily deep.
///
/// Files live in one *generation* directory at a time, named after the
/// process and a counter no two generations of the process share, under
/// a root marked `chattr +T`. Both are for
/// ext4, which puts a new file into its directory's block group and on
/// every create steps over each inode of that group deleted in the last
/// minutes: left alone, a run's clean-up (thousands of chunk files)
/// makes every file the next run's daemons create cost up to ten times
/// more, which moved ingest throughput by a third from run to run. A
/// `+T` parent spreads its subdirectories over the block groups by name,
/// so a generation never lands where another was just deleted.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    generation: Cell<u32>,
    /// Whether `chattr +T` took on the root (it goes into the record's
    /// header: records taken with and without it differ in ingest).
    pub spread_by_name: bool,
}

/// Parent of every run's scratch tree (listed in `.gitignore`).
const SCRATCH_PARENT: &str = ".e2e_scratch";

/// Generations started by this process, over all its scratch trees.
static GENERATIONS: AtomicU32 = AtomicU32::new(0);

fn next_generation() -> u32 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
}

fn create_dir(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

impl Scratch {
    pub fn create() -> Result<Scratch, String> {
        let root = Path::new(SCRATCH_PARENT).join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        create_dir(&root)?;
        tell_guard(format_args!("tree {}", root.display()));
        // Best effort: elsewhere than on ext4, or without the tool, the
        // tree works the same and only repeats less well.
        let spread_by_name = Command::new("chattr")
            .arg("+T")
            .arg(&root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|status| status.success());
        let scratch = Scratch { root, generation: Cell::new(next_generation()), spread_by_name };
        create_dir(&scratch.current())?;
        Ok(scratch)
    }

    fn current(&self) -> PathBuf {
        self.root.join(format!("g{}_{}", std::process::id(), self.generation.get()))
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.current().join(name)
    }

    /// Empties the tree (between set-up repetitions): the generation is
    /// deleted and a new one started.
    pub fn clear(&self) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(self.current());
        self.generation.set(next_generation());
        create_dir(&self.current())
    }

    /// A fresh empty subdirectory.
    pub fn subdir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.path(name);
        let _ = std::fs::remove_dir_all(&dir);
        create_dir(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Succeeds only when no concurrent run still has a tree there.
        let _ = std::fs::remove_dir(SCRATCH_PARENT);
    }
}

/// The pipe into this process's [`Guard`] child; `None` before one is
/// started and after it was released.
static GUARD: Mutex<Option<ChildStdin>> = Mutex::new(None);

/// Tells the guard something, if there is one. A guard that has gone
/// away is not an error worth a run: the daemons are still reaped by
/// their owners on every orderly path.
fn tell_guard(line: std::fmt::Arguments<'_>) {
    if let Some(pipe) = GUARD.lock().expect("nothing panics holding the lock").as_mut() {
        let _ = writeln!(pipe, "{line}");
    }
}

/// A child of this process that ends what the harness started if the
/// harness cannot: it is told every daemon's pid and every scratch
/// tree, and when its standard input closes — which it does however
/// this process dies, a SIGKILL from the driver included — it kills
/// the daemons still registered and removes the trees. `rlscoped` has
/// no such pipe of its own, and `forbid(unsafe_code)` rules out a
/// parent-death signal.
#[derive(Debug)]
pub struct Guard(Child);

impl Guard {
    pub fn start() -> Result<Guard, String> {
        let me =
            std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
        let mut child = Command::new(me)
            .arg("guard")
            // Its own process group, so that a kill aimed at the
            // harness's group leaves it to clean up.
            .process_group(0)
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn the guard: {e}"))?;
        *GUARD.lock().expect("see tell_guard") = child.stdin.take();
        Ok(Guard(child))
    }

    /// Closes the guard's pipe, so it kills every registered daemon:
    /// what the run's watchdog does when a run has hung, so that every
    /// read blocked on a daemon fails and the run ends, counted as
    /// failed.
    pub fn release() {
        drop(GUARD.lock().expect("see tell_guard").take());
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        Guard::release();
        let _ = self.0.wait();
    }
}

/// What a [`Guard`] child runs.
pub fn guard() -> Result<bool, String> {
    let (mut pids, mut trees) = (Vec::<String>::new(), Vec::<String>::new());
    for line in std::io::stdin().lock().lines().map_while(Result::ok) {
        match line.split_once(' ') {
            Some(("watch", pid)) => pids.push(pid.to_string()),
            Some(("forget", pid)) => pids.retain(|p| p != pid),
            Some(("tree", path)) => trees.push(path.to_string()),
            _ => {}
        }
    }
    for pid in pids {
        // Only a process that still is the daemon it was registered as.
        let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
        if comm.trim() == "rlscoped" {
            let _ = Command::new("kill").args(["-KILL", &pid]).status();
        }
    }
    for tree in trees {
        let _ = std::fs::remove_dir_all(tree);
    }
    let _ = std::fs::remove_dir(SCRATCH_PARENT);
    Ok(true)
}

/// Total size of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Accumulated process-level cost of every daemon incarnation a
/// workload ran (a SIGKILLed child takes its counters with it, so they
/// are folded in just before each kill).
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonCost {
    pub cpu_ns: u64,
    pub peak_rss_kb: u64,
}

/// One running `rlscoped` child.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub socket: PathBuf,
    pub data_dir: PathBuf,
    /// The resolved TCP endpoint, when started with a listener.
    pub tcp: Option<Endpoint>,
    /// Spawn → "listening" line: bind plus the recovery scan.
    pub bind_ms: f64,
    /// CPU already consumed when the caller last called
    /// [`Daemon::mark_cpu`] (start-up recovery is charged to
    /// `recovery_s`, not to per-event ingest cost).
    cpu_mark_ns: u64,
}

/// How to start a daemon.
#[derive(Debug, Default, Clone, Copy)]
pub struct DaemonOpts<'a> {
    /// Also listen on an ephemeral loopback TCP port.
    pub tcp: bool,
    /// A `--retention` policy string.
    pub retention: Option<&'a str>,
}

impl Daemon {
    /// Spawns `rlscoped` on `socket` / `data_dir` and waits for its
    /// "listening" line(s).
    pub fn spawn(
        bin: &Path,
        socket: PathBuf,
        data_dir: PathBuf,
        opts: DaemonOpts<'_>,
    ) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--socket").arg(&socket).arg("--data-dir").arg(&data_dir);
        if opts.tcp {
            cmd.args(["--listen", "tcp://127.0.0.1:0"]);
        }
        if let Some(policy) = opts.retention {
            cmd.args(["--retention", policy]);
        }
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::inherit());
        let started = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        tell_guard(format_args!("watch {}", child.id()));
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut listening_unix = false;
        let mut tcp = None;
        let mut line = String::new();
        while !listening_unix || (opts.tcp && tcp.is_none()) {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    tell_guard(format_args!("forget {}", child.id()));
                    return Err("rlscoped exited before it was listening".into());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("rlscoped: listening on ") {
                match addr.strip_prefix("tcp://") {
                    Some(addr) => tcp = Some(Endpoint::tcp(addr)),
                    None => listening_unix = true,
                }
            }
        }
        let bind_ms = started.elapsed().as_secs_f64() * 1e3;
        let mut daemon =
            Daemon { child, _stdout: stdout, socket, data_dir, tcp, bind_ms, cpu_mark_ns: 0 };
        daemon.mark_cpu();
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The Unix-socket endpoint.
    pub fn unix(&self) -> Endpoint {
        Endpoint::unix(&self.socket)
    }

    /// The directory of session `name`.
    pub fn session_dir(&self, name: &str) -> PathBuf {
        self.data_dir.join(name)
    }

    /// Restarts CPU accounting from now.
    pub fn mark_cpu(&mut self) {
        self.cpu_mark_ns = procfs::cpu_ns(self.pid()).unwrap_or(0);
    }

    /// CPU consumed since the last [`Daemon::mark_cpu`].
    pub fn cpu_since_mark_ns(&self) -> u64 {
        procfs::cpu_ns(self.pid()).unwrap_or(0).saturating_sub(self.cpu_mark_ns)
    }

    /// SIGKILLs the daemon (the crash the durability contract is
    /// written against) and reaps it, folding its counters into `cost`
    /// first.
    pub fn kill(mut self, cost: &mut DaemonCost) {
        cost.cpu_ns += self.cpu_since_mark_ns();
        cost.peak_rss_kb = cost.peak_rss_kb.max(procfs::hwm_kb(self.pid()).unwrap_or(0));
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        tell_guard(format_args!("forget {}", self.pid()));
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}
