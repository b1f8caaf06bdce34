//! The collector daemon: socket accept loops, per-session owner threads,
//! the durable session registry and restart recovery scan, live and
//! finished-dir query execution with the finished-dir result cache, and
//! the one timer thread that reaps idle sessions and runs retention's
//! tier transitions itself.

use crate::compact::{self, JobKind, RetentionPolicy};
use crate::protocol::{
    encode_error, kind, CollectorError, ErrorCode, FrameKind, HelloAck, HelloRequest,
    QueryAllReply, QueryReply, QuerySpec, QueryTarget, SessionInfo, SessionList, PROTOCOL_VERSION,
};
use crate::registry::{SessionRecord, SessionStatus, StorageTier};
use crate::transport::Stream;
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::Mutex;
use rlscope_core::analysis::{
    Analysis, AnalysisError, LiveState, LiveTables, LiveView, SessionSource,
};
use rlscope_core::rollup::Rollup;
use rlscope_core::store::{
    decode_columns, list_chunk_files, read_frame, recover_chunk_prefix, write_frame, EventColumns,
    Manifest, TraceIoError,
};
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::TimeNs;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::hash::Hash;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Test-only fault injection for the daemon's durable I/O path, compiled
/// only under the `fault-inject` feature (release builds carry no hook).
///
/// A [`fault::FaultPlan`] is shared between a chaos test and the daemon
/// config; the daemon consults it before every chunk persist and
/// compaction job, so tests can inject ENOSPC-style failures and torn
/// writes at exact points in the stream without touching the filesystem
/// layer. The chunk-write counter is global to the plan, so fault
/// schedules are easiest to reason about with one streaming session per
/// plan.
#[cfg(feature = "fault-inject")]
pub mod fault {
    use parking_lot::Mutex;
    use rlscope_core::store::TraceIoError;
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
    use std::sync::Arc;
    use std::time::Duration;

    #[derive(Debug, Default)]
    struct Inner {
        chunk_writes_seen: u64,
        fail_chunk_writes_from: Option<u64>,
        torn_bytes: Option<usize>,
        fail_compaction: bool,
        /// The next settled query's hook: tell the test it arrived, then
        /// wait for the release.
        park: Option<(SyncSender<()>, Receiver<()>)>,
    }

    /// A settled-tier query held between its index read and its answer
    /// ([`FaultPlan::park_next_settled_query`]); dropping it releases
    /// the query too.
    #[derive(Debug)]
    pub struct ParkedQuery {
        arrived: Receiver<()>,
        release: SyncSender<()>,
    }

    impl ParkedQuery {
        /// Waits up to `timeout` for a query to reach the hook.
        pub fn wait_parked(&self, timeout: Duration) -> bool {
            self.arrived.recv_timeout(timeout).is_ok()
        }

        /// Lets the parked query go on to its answer.
        pub fn release(self) {
            let _ = self.release.send(());
        }
    }

    /// A mutable fault schedule for the daemon's chunk writes and
    /// compaction jobs (see the module docs).
    #[derive(Debug, Default)]
    pub struct FaultPlan {
        inner: Mutex<Inner>,
    }

    pub(crate) enum ChunkWriteFault {
        Pass,
        Torn(usize),
        Fail,
    }

    impl FaultPlan {
        /// A plan with no faults scheduled.
        pub fn new() -> Arc<FaultPlan> {
            Arc::new(FaultPlan::default())
        }

        /// Every chunk persist from the `nth` (0-based, counted across
        /// the plan's lifetime) fails with an injected ENOSPC-style
        /// error before any byte lands.
        pub fn fail_chunk_writes_from(&self, nth: u64) {
            let mut inner = self.inner.lock();
            inner.fail_chunk_writes_from = Some(nth);
            inner.torn_bytes = None;
        }

        /// Like [`FaultPlan::fail_chunk_writes_from`], but each failing
        /// write first leaves a torn `keep_bytes`-byte prefix on disk —
        /// the partial-write shape a real crash leaves behind.
        pub fn tear_chunk_writes_from(&self, nth: u64, keep_bytes: usize) {
            let mut inner = self.inner.lock();
            inner.fail_chunk_writes_from = Some(nth);
            inner.torn_bytes = Some(keep_bytes);
        }

        /// Make every compaction job fail mid-build with an injected
        /// ENOSPC-style error (a partial temp dir is left behind, like a
        /// real mid-build crash would).
        pub fn fail_compaction(&self, fail: bool) {
            self.inner.lock().fail_compaction = fail;
        }

        /// Clears all scheduled faults and resets the write counter, so
        /// the next schedule counts from the next chunk persist.
        pub fn clear(&self) {
            let mut inner = self.inner.lock();
            inner.chunk_writes_seen = 0;
            inner.fail_chunk_writes_from = None;
            inner.torn_bytes = None;
        }

        pub(crate) fn next_chunk_write(&self) -> ChunkWriteFault {
            let mut inner = self.inner.lock();
            let n = inner.chunk_writes_seen;
            inner.chunk_writes_seen += 1;
            match inner.fail_chunk_writes_from {
                Some(from) if n >= from => match inner.torn_bytes {
                    Some(keep) => ChunkWriteFault::Torn(keep),
                    None => ChunkWriteFault::Fail,
                },
                _ => ChunkWriteFault::Pass,
            }
        }

        pub(crate) fn compaction_fails(&self) -> bool {
            self.inner.lock().fail_compaction
        }

        /// Parks the next settled-tier query after it has read its
        /// tier's index and before it answers, until the returned
        /// [`ParkedQuery`] is released — the window in which a tier
        /// transition can move or prune what the query is reading.
        pub fn park_next_settled_query(&self) -> ParkedQuery {
            let (arrived_tx, arrived) = sync_channel(1);
            let (release, release_rx) = sync_channel(1);
            self.inner.lock().park = Some((arrived_tx, release_rx));
            ParkedQuery { arrived, release }
        }

        pub(crate) fn settled_query_hook(&self) {
            let park = self.inner.lock().park.take();
            if let Some((arrived, release)) = park {
                let _ = arrived.send(());
                let _ = release.recv();
            }
        }
    }

    pub(crate) fn injected_enospc() -> TraceIoError {
        std::io::Error::other("injected ENOSPC (fault plan)").into()
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Unix-domain socket path to listen on (created at bind, removed at
    /// shutdown; a stale file from a dead daemon is replaced).
    pub socket: PathBuf,
    /// Additional TCP listen address (`host:port`, or the full
    /// `tcp://host:port` form the `rlscoped --listen` flag takes; port 0
    /// picks an ephemeral port — [`Collector::tcp_addr`] reports the
    /// bound address). The framed protocol is transport-agnostic, so TCP
    /// connections get the identical handshake, backpressure, resume,
    /// and query surface as Unix ones. `None` serves Unix only.
    pub tcp_listen: Option<String>,
    /// Directory under which each session gets its chunk directory.
    /// Session chunk files are the client's flush batches persisted
    /// verbatim (see [`Collector`]'s session store), so chunk
    /// granularity is chosen client-side.
    pub data_dir: PathBuf,
    /// Credit window granted to each session connection (max unacked
    /// `CHUNK` frames in flight — the explicit backpressure bound).
    pub credits: u32,
    /// Finished-target query results cached (keyed by directory and
    /// query bytes), LRU eviction. Live answers are never cached.
    pub cache_capacity: usize,
    /// Abort sessions (typed [`ErrorCode::IdleTimeout`]) that receive no
    /// chunk (and no resume) for this long, so a crashed client cannot
    /// pin daemon memory forever. `None` disables the idle pass. The
    /// timer thread runs it before each retention pass, so a tick that
    /// runs tier transitions delays the next reap by their build time.
    pub idle_timeout: Option<Duration>,
    /// Retention dial: how long finished sessions dwell at each storage
    /// tier before the timer thread's retention pass ages them down the
    /// ladder (raw → sorted → rollup → gone). `None` (and an empty
    /// policy) disables the retention pass; compaction is still
    /// available through [`Collector::compact_session`].
    pub retention: Option<RetentionPolicy>,
    /// Trace-time window width (nanoseconds) of each rollup segment —
    /// the granularity floor for time-windowed queries against the
    /// rollup tier.
    pub rollup_segment_ns: u64,
    /// Fault schedule for the durable I/O path (chaos tests only).
    #[cfg(feature = "fault-inject")]
    pub faults: Option<Arc<fault::FaultPlan>>,
}

impl CollectorConfig {
    /// A config with default tuning (8 credits, 256 cached results, no
    /// idle timeout).
    pub fn new(socket: impl Into<PathBuf>, data_dir: impl Into<PathBuf>) -> Self {
        CollectorConfig {
            socket: socket.into(),
            tcp_listen: None,
            data_dir: data_dir.into(),
            credits: 8,
            cache_capacity: 256,
            idle_timeout: None,
            retention: None,
            rollup_segment_ns: 1_000_000_000,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }
}

/// Where a session currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// A connection is streaming into (or holding) the session.
    Attached,
    /// No connection holds the session; a client may resume it with the
    /// matching epoch.
    Detached,
    /// `FINISH` committed; the directory is immutable and served
    /// read-only by name.
    Finished,
    /// Aborted with a typed error; the data so far is queryable and the
    /// name is reusable.
    Aborted,
}

/// One session re-registered by the startup recovery scan.
#[derive(Debug, Clone)]
pub struct RecoveredSession {
    /// Session (and chunk directory) name.
    pub name: String,
    /// Lifecycle phase after recovery ([`SessionPhase::Detached`] for
    /// sessions that were mid-stream — they await a resume).
    pub phase: SessionPhase,
    /// Durable chunks in the recovered prefix.
    pub chunks: u64,
    /// Events across the recovered prefix (0 for finished sessions,
    /// whose chunk footers are the source of truth).
    pub events: u64,
    /// Torn/corrupt tail chunk files the scan deleted.
    pub removed_chunks: usize,
}

/// One **open** profiling session — attached or detached, from `HELLO`
/// (or startup recovery) until it settles as finished or aborted — as
/// every thread but its owner sees it: an immutable identity plus the
/// mailbox of the session's **owner thread**.
///
/// # One owner, one mailbox
///
/// The owner thread ([`Owner`]) exclusively holds everything mutable
/// about the session: the live sweeps, the chunk store, the counters,
/// the attached connection's writer and the idle clock. Nothing is
/// shared and nothing is locked; every other thread talks to it through
/// the bounded mailbox ([`Msg`]). Ingest is a two-stage pipeline: the
/// connection thread does what is expensive and stateless — it reads the
/// frame and decodes and validates the chunk straight into columnar
/// buffers ([`rlscope_core::store::decode_columns`], no `Vec<Event>` is
/// ever materialized) — then hands the columns to the owner, which
/// checks the wire sequence, pushes the chunk into the live sweeps,
/// persists it verbatim, and **then writes the `CHUNK_ACK`**. An ack
/// therefore means the chunk is durable, which is what makes client-side
/// replay after a daemon crash exactly-once. The mailbox holds at most
/// [`APPLY_QUEUE_CHUNKS`] messages, so a lagging owner blocks its
/// producer's connection thread (backpressure) and nobody else.
///
/// **Consistency follows from message order.** The mailbox is FIFO and
/// the owner handles one message at a time, so a chunk is applied whole
/// or not at all, and every chunk acked to anyone was applied before its
/// ack was written — hence before any [`Msg::Status`] or
/// [`Msg::Snapshot`] enqueued afterwards is served. A live query is
/// thereby a *consistent prefix*: whole chunks, in order, including
/// every chunk any client had been acked when it asked.
///
/// **One abort path.** Whatever fails — a sequence gap, a rejected or
/// unpersistable chunk, the attached connection, the idle timer — the
/// owner aborts the session itself, at once ([`Owner::abort`]): there is
/// one typed reason, set in one place, and no "aborted but not yet
/// finalized" state for queries to meet.
///
/// **Settling.** When the session finishes or aborts, the owner
/// replaces its [`Entry::Open`] in the daemon's session map with an
/// [`Entry::Settled`] — plain data naming the directory — *before* it
/// drops the mailbox's receiver. A thread that finds the mailbox closed
/// (or its question dropped unanswered) re-reads the map and routes to
/// the directory ([`Daemon::route`]).
///
/// **Sealing.** A clean finish does not end the owner at once. Its
/// settled entry keeps this handle as a [`Seal::Pending`]; the owner
/// writes the `FINISH_ACK`, turns its live sweeps into the finished
/// merged-view tables once ([`Owner::seal`]), swaps them into the entry
/// as [`Seal::Ready`], and only then exits. A reader that meets the
/// pending seal waits by putting a question to this mailbox that is
/// never answered — the same rule as above: it returns when the owner
/// exits — and re-reads the map ([`Daemon::sealed`]).
///
/// # Rules
///
/// - No thread blocks on a mailbox or on a reply while holding the
///   `sessions` lock — the owner takes that lock to settle and to seal,
///   so waiting on it under the lock would deadlock. The guard only
///   ever spans a lookup, an in-place update, or the claim of a name
///   (check, wipe, insert), none of which talks to an owner.
/// - The owner never runs [`Analysis`], and it drains only what arrived
///   since the last valid checkpoint: a snapshot
///   ([`LiveState::snapshot_view`], for the one [`LiveView`] the query
///   reads) resumes each sweep's drain where the previous snapshot left
///   it and hands out finished [`LiveTables`]; the query over them runs
///   on the asking connection's thread. Chunk acks queued behind a
///   snapshot wait for the chunks since the last one (worst case: the
///   span of the latest late-closing scope), never the whole prefix.
/// - A live query makes one trip through the mailbox, and its answer is
///   never cached: the [`Msg::Snapshot`] reply carries the prefix length
///   the answer reports.
struct Session {
    name: String,
    /// Server-assigned id, stable across detach/resume.
    id: u64,
    /// Incarnation epoch (see [`SessionRecord::epoch`]); immutable for
    /// the session's lifetime, echoed by resuming clients.
    epoch: u64,
    mailbox: Sender<Msg>,
}

impl Session {
    /// Sends the message `make` builds around a fresh reply channel and
    /// waits for the owner's answer; `None` when the session has settled
    /// (the mailbox is closed, or the message was dropped with it).
    fn ask<T>(&self, make: impl FnOnce(Sender<T>) -> Msg) -> Option<T> {
        let (reply, answer) = bounded(1);
        self.mailbox.send(make(reply)).ok()?;
        answer.recv()
    }
}

/// Messages the mailbox may hold — the bound on per-session in-flight
/// memory between decode and apply.
const APPLY_QUEUE_CHUNKS: usize = 8;

/// What a session's owner can be told or asked. `Chunk`, `Detach`,
/// `Abort` and `Finish` come only from the attached connection's
/// thread, in frame order.
enum Msg {
    /// One decoded, validated chunk: its wire sequence number, the raw
    /// payload to persist verbatim, and the decoded columns.
    Chunk { seq: u64, payload: Vec<u8>, cols: EventColumns },
    /// Resume handshake: attach `writer`'s connection when `epoch`
    /// matches and no connection holds the session; answers the acked
    /// watermark the client replays from.
    Attach { epoch: u64, writer: SharedWriter, reply: Sender<Result<u64, ConnError>> },
    /// The attached connection closed cleanly: keep everything and wait
    /// for a resume.
    Detach,
    /// The attached connection failed (and has already told its client
    /// why): abort with this reason.
    Abort(ConnError),
    /// `FINISH`: settle and write the `FINISH_ACK`; answers whether the
    /// ack went out, then seals.
    Finish { reply: Sender<Result<(), ConnError>> },
    /// Whether a connection is attached, and the events observed so far.
    Status { reply: Sender<(bool, u64)> },
    /// The finished tables of the live sweeps `view` covers, and with
    /// them the events observed so far.
    Snapshot { view: LiveView, reply: Sender<LiveTables> },
    /// The timer's idle check: abort when no chunk or attach arrived
    /// for this long. Ordered behind the chunks already in flight, so a
    /// session is never reaped mid-apply.
    ReapIfIdle(Duration),
}

/// One name in the daemon's session map.
#[derive(Clone)]
enum Entry {
    Open(Arc<Session>),
    Settled(Settled),
}

/// A finished or aborted session: data, not a thread — except for the
/// moment a cleanly finished one is sealing. Its durable prefix is
/// served from `dir` at `tier`, whose index holds its event total
/// ([`tier_index`]). Only tier transitions write it — a retention pass or
/// [`Collector::compact_session`] advances `tier` (dropping the seal) or
/// prunes, under the map lock — and the sealing owner, which swaps in
/// its tables.
#[derive(Clone)]
struct Settled {
    epoch: u64,
    dir: PathBuf,
    tier: StorageTier,
    /// The typed reason the session aborted; `None` for a finished one.
    abort: Option<ConnError>,
    /// Chunks durable in `dir`.
    chunks: u64,
    /// The finished merged-view tables of a session that finished
    /// cleanly in this daemon run. Only ever set at the raw tier: a tier
    /// transition drops it.
    seal: Option<Seal>,
}

/// A finished session's live sweeps, turned once into the merged-view
/// tables ([`LiveState::seal`]) that answer its windowless merged-view
/// queries in place of a directory read ([`Daemon::sealed`]).
#[derive(Clone)]
enum Seal {
    /// The owner is still computing them, after its `FINISH_ACK`. A
    /// question put to this mailbox is never answered: it returns `None`
    /// once the owner has swapped in [`Seal::Ready`] (or found the entry
    /// moved on) and exited.
    Pending(Arc<Session>),
    Ready(Arc<LiveTables>),
}

/// The session's durable half: received chunk payloads are persisted
/// **verbatim** — they are codec-v3 chunks, already validated end to end
/// by the ingest decode — so the collector never re-encodes a byte, and
/// the on-disk directory is exactly what a [`TraceWriter`] run would
/// leave behind: `chunk_NNNNN.rls` files, with chunk granularity set by
/// the client's flush batches. Each chunk carries its own footer, so the
/// directory needs no index beside the chunks ([`Manifest::open`] reads
/// their tails).
///
/// [`TraceWriter`]: rlscope_core::store::TraceWriter
struct ChunkStore {
    dir: PathBuf,
    seq: u32,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<fault::FaultPlan>>,
}

impl ChunkStore {
    /// Creates the session directory, clearing stale chunks (same
    /// reused-directory semantics as `TraceWriter::create`).
    fn create(dir: &Path, config: &CollectorConfig) -> Result<ChunkStore, TraceIoError> {
        fs::create_dir_all(dir)?;
        for stale in list_chunk_files(dir)? {
            fs::remove_file(stale)?;
        }
        Ok(ChunkStore::resume(dir, 0, config))
    }

    /// Reopens a recovered directory without wiping it: `chunks` is the
    /// length of the validated prefix a [`recover_chunk_prefix`] scan
    /// kept, and new chunks continue its contiguous `chunk_NNNNN`
    /// numbering.
    fn resume(dir: &Path, chunks: u32, config: &CollectorConfig) -> ChunkStore {
        let _ = config;
        ChunkStore {
            dir: dir.to_path_buf(),
            seq: chunks,
            #[cfg(feature = "fault-inject")]
            faults: config.faults.clone(),
        }
    }

    /// Persists one validated chunk payload verbatim.
    fn append(&mut self, payload: &[u8]) -> Result<(), TraceIoError> {
        let path = self.dir.join(format!("chunk_{:05}.rls", self.seq));
        // A failed write may have landed a partial file; the directory
        // must keep holding exactly the acked prefix.
        self.write_chunk(&path, payload).inspect_err(|_| drop(fs::remove_file(&path)))?;
        self.seq += 1;
        Ok(())
    }

    #[cfg(feature = "fault-inject")]
    fn write_chunk(&self, path: &Path, payload: &[u8]) -> Result<(), TraceIoError> {
        if let Some(plan) = &self.faults {
            match plan.next_chunk_write() {
                fault::ChunkWriteFault::Pass => {}
                fault::ChunkWriteFault::Torn(keep) => {
                    let _ = fs::write(path, payload.get(..keep).unwrap_or(payload));
                    return Err(fault::injected_enospc());
                }
                fault::ChunkWriteFault::Fail => return Err(fault::injected_enospc()),
            }
        }
        fs::write(path, payload)?;
        Ok(())
    }

    #[cfg(not(feature = "fault-inject"))]
    fn write_chunk(&self, path: &Path, payload: &[u8]) -> Result<(), TraceIoError> {
        fs::write(path, payload)?;
        Ok(())
    }
}

/// A session's mutable core, owned by its thread (see [`Session`]).
struct Owner {
    daemon: Arc<Daemon>,
    name: String,
    epoch: u64,
    live: LiveState,
    store: ChunkStore,
    /// Chunks durably applied (== acked). Chunks apply in arrival order,
    /// so this is also the next wire sequence number expected and the
    /// watermark a resume handshake returns.
    chunks: u64,
    events: u64,
    /// The attached connection's write half, if any.
    attached: Option<SharedWriter>,
    /// Last chunk or attach — the idle clock.
    last_frame: Instant,
}

/// Opens a session: spawns its owner thread around the one literal that
/// builds a session's mutable core, and returns the handle to register
/// in the session map. `live` and `events` are what recovery replayed
/// (empty for a new session); the durable chunk count is the store's.
fn spawn_owner(
    daemon: &Arc<Daemon>,
    name: &str,
    epoch: u64,
    store: ChunkStore,
    live: LiveState,
    events: u64,
    attached: Option<SharedWriter>,
) -> Arc<Session> {
    let (mailbox, inbox) = bounded(APPLY_QUEUE_CHUNKS);
    let owner = Owner {
        daemon: daemon.clone(),
        name: name.to_string(),
        epoch,
        live,
        chunks: u64::from(store.seq),
        store,
        events,
        attached,
        last_frame: Instant::now(),
    };
    daemon.track_thread(std::thread::spawn(move || owner.run(&inbox)));
    let id = daemon.next_session_id.fetch_add(1, Ordering::SeqCst);
    Arc::new(Session { name: name.to_string(), id, epoch, mailbox })
}

impl Owner {
    /// The owner loop: one message at a time until the session settles
    /// (each handler says whether it did) or every sender is gone (daemon
    /// shutdown — the session stays `Active` on disk for a resume). The
    /// receiver outlives the settle, which publishes the settled entry,
    /// so nobody meets a closed mailbox before the map says why.
    fn run(mut self, inbox: &Receiver<Msg>) {
        while let Some(msg) = inbox.recv() {
            let settled = match msg {
                Msg::Chunk { seq, payload, cols } => self.on_chunk(seq, &payload, &cols),
                Msg::Attach { epoch, writer, reply } => {
                    let _ = reply.send(self.on_attach(epoch, writer));
                    false
                }
                Msg::Detach => {
                    self.attached = None;
                    self.write_record(SessionStatus::Active);
                    false
                }
                Msg::Abort(error) => self.abort(error, false),
                Msg::Finish { reply } => self.on_finish(&reply),
                Msg::Status { reply } => {
                    let _ = reply.send((self.attached.is_some(), self.live.events_observed()));
                    false
                }
                Msg::Snapshot { view, reply } => {
                    let _ = reply.send(self.live.snapshot_view(view));
                    false
                }
                Msg::ReapIfIdle(timeout) => self.on_reap(timeout),
            };
            if settled {
                return;
            }
        }
    }

    /// Checks the wire sequence, applies, and acks. A replayed chunk
    /// (reconnect race) is already durable: acked with 0 events, never
    /// re-applied — exactly-once. A gap or a failed apply aborts.
    fn on_chunk(&mut self, seq: u64, payload: &[u8], cols: &EventColumns) -> bool {
        self.last_frame = Instant::now();
        let accepted = if seq < self.chunks {
            Ok(0)
        } else if seq > self.chunks {
            Err((
                ErrorCode::Protocol,
                format!("chunk sequence gap: got {seq}, expected {}", self.chunks),
            ))
        } else {
            self.apply_chunk(payload, cols).map(|()| cols.len() as u32)
        };
        match accepted {
            Ok(events) => {
                if let Some(writer) = &self.attached {
                    let _ = send_chunk_ack(writer, seq, events);
                }
                false
            }
            Err(error) => self.abort(error, true),
        }
    }

    /// Applies one validated chunk: live sweeps, then the verbatim
    /// persist, then the counters (the ack follows in [`Owner::on_chunk`]).
    /// Sweep rejections are client-data problems
    /// ([`ErrorCode::Protocol`]); store failures are server-side
    /// [`ErrorCode::Io`].
    fn apply_chunk(&mut self, payload: &[u8], cols: &EventColumns) -> Result<(), ConnError> {
        self.live.push_columns(cols).map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
        self.store.append(payload).map_err(io_err)?;
        self.events += cols.len() as u64;
        self.chunks += 1;
        Ok(())
    }

    fn on_attach(&mut self, epoch: u64, writer: SharedWriter) -> Result<u64, ConnError> {
        if epoch != self.epoch {
            return Err((
                ErrorCode::EpochMismatch,
                format!(
                    "session {:?} is at epoch {} (resume asked for {epoch})",
                    self.name, self.epoch
                ),
            ));
        }
        if self.attached.is_some() {
            return Err((
                ErrorCode::SessionActive,
                format!("session {:?} is already attached to a connection", self.name),
            ));
        }
        self.attached = Some(writer);
        self.last_frame = Instant::now();
        Ok(self.chunks)
    }

    /// `FINISH`: every chunk sent before it has been applied and acked
    /// (message order), and every acked chunk is already durable with
    /// its footer, so settle and write the `FINISH_ACK`. Only then, off
    /// the client's path, does the finished session seal
    /// ([`Owner::seal`]).
    fn on_finish(&mut self, reply: &Sender<Result<(), ConnError>>) -> bool {
        self.settle(None);
        let acked = self
            .attached
            .as_ref()
            .ok_or_else(|| {
                (ErrorCode::Protocol, format!("session {:?} has no connection", self.name))
            })
            .and_then(|writer| {
                let mut ack = self.chunks.to_be_bytes().to_vec();
                ack.extend_from_slice(&self.events.to_be_bytes());
                write_frame(&mut *writer.lock(), kind::FINISH_ACK, &ack).map_err(io_err)
            });
        let _ = reply.send(acked);
        self.seal();
        true
    }

    fn on_reap(&mut self, timeout: Duration) -> bool {
        if self.last_frame.elapsed() < timeout {
            return false;
        }
        let message = format!("session {:?} idle past the {timeout:?} idle timeout", self.name);
        self.abort((ErrorCode::IdleTimeout, message), true);
        if let Some(writer) = &self.attached {
            // Evict the silent client, so its connection thread goes too.
            let _ = writer.lock().shutdown(std::net::Shutdown::Both);
        }
        true
    }

    /// The one abort path: settle with the typed reason, then — when
    /// the attached client has not been told yet — the `ERROR` frame.
    /// Settled first: a client that reads the error finds the session
    /// already aborted and its durable prefix, every chunk of which
    /// carries its own footer, queryable.
    fn abort(&mut self, error: ConnError, notify: bool) -> bool {
        self.settle(Some(error.clone()));
        if let (true, Some(writer)) = (notify, &self.attached) {
            send_error(writer, error.0, &error.1);
        }
        true
    }

    /// Settles the session: records the outcome durably (an aborted
    /// name is reusable after a restart too) and replaces the map's open
    /// entry with the settled one. A clean finish keeps the open entry's
    /// handle as a [`Seal::Pending`]: its mailbox is what readers wait on
    /// until [`Owner::seal`] is done. An aborted session's live sweeps
    /// die with the thread; its queries read the directory.
    fn settle(&mut self, abort: Option<ConnError>) {
        self.write_record(match abort {
            None => SessionStatus::Finished,
            Some(_) => SessionStatus::Aborted,
        });
        let mut sessions = self.daemon.sessions.lock();
        let seal = match sessions.remove(&self.name) {
            Some(Entry::Open(session)) if abort.is_none() && session.epoch == self.epoch => {
                Some(Seal::Pending(session))
            }
            _ => None,
        };
        let settled = Settled {
            epoch: self.epoch,
            dir: self.store.dir.clone(),
            tier: StorageTier::Raw,
            abort,
            chunks: self.chunks,
            seal,
        };
        sessions.insert(self.name.clone(), Entry::Settled(settled));
    }

    /// Seals a cleanly finished session once its `FINISH_ACK` is out:
    /// the live sweeps become the finished merged-view tables
    /// ([`LiveState::seal`]), swapped into the settled entry in place of
    /// the [`Seal::Pending`] that [`Owner::settle`] left — unless a tier
    /// transition or a prune got there first. The owner exits right
    /// after, which releases every reader waiting on the seal.
    fn seal(&mut self) {
        let tables = Arc::new(std::mem::take(&mut self.live).seal());
        if let Some(Entry::Settled(settled)) = self.daemon.sessions.lock().get_mut(&self.name) {
            if settled.epoch == self.epoch && matches!(settled.seal, Some(Seal::Pending(_))) {
                settled.seal = Some(Seal::Ready(tables));
            }
        }
    }

    fn write_record(&self, status: SessionStatus) {
        let record = SessionRecord {
            epoch: self.epoch,
            status,
            acked_chunks: self.chunks,
            tier: StorageTier::Raw,
        };
        let _ = record.write(&self.store.dir);
    }
}

/// A minimal LRU map: recency is a monotonic tick per entry, eviction
/// scans for the stalest (O(capacity), fine at the daemon's cache
/// sizes).
struct LruCache<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    fn new(capacity: usize) -> Self {
        LruCache { map: HashMap::new(), tick: 0, capacity: capacity.max(1) }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        })
    }

    fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(stalest) =
                self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone())
            {
                self.map.remove(&stalest);
            }
        }
        self.map.insert(key, (value, self.tick));
    }
}

#[derive(Clone)]
struct CachedResult {
    checksum: u64,
    events: u64,
    json: String,
}

/// Live connections and the threads spawned on demand.
#[derive(Default)]
struct Conns {
    /// Clones of live connection streams (either transport), keyed by
    /// connection id (handlers deregister themselves on exit); shut down
    /// to unblock handler threads at daemon shutdown.
    streams: HashMap<u64, Stream>,
    /// Connection-handler and session-owner threads, joined at shutdown.
    threads: Vec<JoinHandle<()>>,
}

struct Daemon {
    config: CollectorConfig,
    /// Every session the daemon knows by name (see [`Session`] for the
    /// rule on holding this lock).
    sessions: Mutex<HashMap<String, Entry>>,
    /// Finished-target results keyed by `(dir, query bytes)`, validated
    /// by the checksum of the target's index, LRU-evicted.
    cache: Mutex<LruCache<(String, Vec<u8>), CachedResult>>,
    next_session_id: AtomicU64,
    next_epoch: AtomicU64,
    next_conn_id: AtomicU64,
    shutdown: AtomicBool,
    conns: Mutex<Conns>,
}

/// Where [`Daemon::route`] found a session: open, with its owner's
/// answer, or settled.
enum Routed<T> {
    Open(Arc<Session>, T),
    Settled(Settled),
}

/// Where a settled session read at one tier stands now
/// ([`Daemon::tier_now`]): still there, moved on to a later tier — a
/// read is retried there — or pruned.
enum TierNow {
    Held,
    Moved(Settled),
    Pruned,
}

impl Daemon {
    fn lookup(&self, name: &str) -> Option<Entry> {
        self.sessions.lock().get(name).cloned()
    }

    /// A name-sorted copy of the session map.
    fn entries(&self) -> Vec<(String, Entry)> {
        let mut entries: Vec<_> = self
            .sessions
            .lock()
            .iter()
            .map(|(name, entry)| (name.clone(), entry.clone()))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Puts the question `make` builds to the named session's owner, or
    /// returns its settled entry. An owner publishes the settled entry
    /// before it closes its mailbox, so after an unanswered question the
    /// map is re-read and names the directory (or a newer session under
    /// a reused name — hence a third try). Only an owner that died
    /// without settling leaves a question unanswerable; that is a typed
    /// error, not a spin.
    fn route<T>(
        &self,
        name: &str,
        make: impl Fn(Sender<T>) -> Msg,
    ) -> Result<Routed<T>, ConnError> {
        for _ in 0..3 {
            match self.lookup(name) {
                None => return Err((ErrorCode::UnknownTarget, format!("no session {name:?}"))),
                Some(Entry::Settled(settled)) => return Ok(Routed::Settled(settled)),
                Some(Entry::Open(session)) => {
                    if let Some(answer) = session.ask(&make) {
                        return Ok(Routed::Open(session, answer));
                    }
                }
            }
        }
        Err((ErrorCode::Io, format!("session {name:?} has no owner")))
    }

    /// The settled entry under `name` if it is still incarnation `epoch`
    /// — `None` once a prune removed it (and a new session may have
    /// claimed the name since).
    fn current(&self, name: &str, epoch: u64) -> Option<Settled> {
        match self.lookup(name)? {
            Entry::Settled(settled) if settled.epoch == epoch => Some(settled),
            _ => None,
        }
    }

    /// Where the settled session `name`, read at `settled`'s tier,
    /// stands now. Tiers only move forward, so a reader that retries at
    /// each moved entry's tier stops.
    fn tier_now(&self, name: &str, settled: &Settled) -> TierNow {
        match self.current(name, settled.epoch) {
            Some(now) if now.tier == settled.tier => TierNow::Held,
            Some(now) => TierNow::Moved(now),
            None => TierNow::Pruned,
        }
    }

    /// The sealed tables that answer `spec` over the settled session
    /// `name`, waiting out a seal still being computed; `None` when the
    /// query reads the directory instead: a window, the per-process view,
    /// or no seal (an aborted session, one recovered at bind, or one at
    /// an aged tier).
    fn sealed(&self, name: &str, settled: &Settled, spec: &QuerySpec) -> Option<Arc<LiveTables>> {
        if spec.window.is_some() || live_view(spec) != LiveView::Merged {
            return None;
        }
        match settled.seal.as_ref()? {
            Seal::Ready(tables) => Some(tables.clone()),
            Seal::Pending(owner) => {
                // Never answered: returns once the owner has sealed and
                // exited. No lock is held while waiting.
                let _ = owner.ask(|reply| Msg::Status { reply });
                match self.current(name, settled.epoch)?.seal? {
                    Seal::Ready(tables) => Some(tables),
                    Seal::Pending(_) => None,
                }
            }
        }
    }

    /// Why `session`'s mailbox is closed: the typed reason it aborted.
    fn settled_error(&self, session: &Session) -> ConnError {
        match self.lookup(&session.name) {
            Some(Entry::Settled(Settled { epoch, abort: Some(error), .. }))
                if epoch == session.epoch =>
            {
                error
            }
            _ => {
                (ErrorCode::SessionAborted, format!("session {:?} is no longer open", session.name))
            }
        }
    }

    fn track_thread(&self, handle: JoinHandle<()>) {
        let mut conns = self.conns.lock();
        conns.threads.retain(|h| !h.is_finished());
        conns.threads.push(handle);
    }
}

/// The collector daemon (the library form of the `rlscoped` binary):
/// binds a Unix-domain socket, recovers durable sessions from the data
/// dir, serves session and query connections on per-connection threads,
/// and shuts down cleanly on drop. See the [crate docs](crate) for the
/// protocol and the durability contract.
pub struct Collector {
    daemon: Arc<Daemon>,
    accept_thread: Option<JoinHandle<()>>,
    tcp_accept_thread: Option<JoinHandle<()>>,
    /// Bound TCP listen address, when [`CollectorConfig::tcp_listen`]
    /// was set (the resolved address, so port 0 reports the real port).
    tcp_addr: Option<SocketAddr>,
    /// Runs the idle-reap and retention passes (the latter with its
    /// tier transitions), when either is configured.
    timer_thread: Option<JoinHandle<()>>,
    recovered: Vec<RecoveredSession>,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("socket", &self.daemon.config.socket)
            .field("data_dir", &self.daemon.config.data_dir)
            .finish_non_exhaustive()
    }
}

impl Collector {
    /// Binds the socket and starts serving.
    ///
    /// Creates the data directory, replaces a stale socket file, and —
    /// before accepting any connection — runs the **recovery scan** over
    /// every session directory carrying a registry record: finished
    /// sessions are re-registered and served by name; sessions that were
    /// mid-stream have any torn tail chunk truncated
    /// ([`recover_chunk_prefix`] — full decode + footer validation, so
    /// the surviving prefix is exactly some acked prefix), their
    /// [`LiveState`] rebuilt by replaying the surviving chunks through
    /// the normal decode path, and are registered detached, awaiting a
    /// client resume; aborted sessions stay queryable and their names
    /// reusable. Directories of chunks without a record (legacy, or a
    /// torn record) are served read-only by name
    /// ([`Collector::recovered_sessions`] reports what was recovered).
    ///
    /// # Errors
    ///
    /// Filesystem or socket errors. Per-directory recovery failures are
    /// skipped, not fatal — a corrupt old session must not keep the
    /// daemon from starting.
    pub fn bind(config: CollectorConfig) -> Result<Collector, CollectorError> {
        fs::create_dir_all(&config.data_dir).map_err(TraceIoError::from)?;
        if config.socket.exists() {
            fs::remove_file(&config.socket).map_err(TraceIoError::from)?;
        }
        // Everything that can fail comes first: recovery spawns owner
        // threads, which only `stop` reaps. Connections made during the
        // scan wait in the listen backlog.
        let listener = UnixListener::bind(&config.socket).map_err(TraceIoError::from)?;
        let tcp_listener = match &config.tcp_listen {
            Some(addr) => {
                let addr = addr.strip_prefix("tcp://").unwrap_or(addr);
                let listener = TcpListener::bind(addr).map_err(TraceIoError::from)?;
                Some(listener)
            }
            None => None,
        };
        let tcp_addr = tcp_listener.as_ref().and_then(|l| l.local_addr().ok());
        let cache = LruCache::new(config.cache_capacity);
        let idle_timeout = config.idle_timeout;
        let retention = config.retention.clone().filter(|p| !p.is_empty());
        let daemon = Arc::new(Daemon {
            config,
            sessions: Mutex::new(HashMap::new()),
            cache: Mutex::new(cache),
            next_session_id: AtomicU64::new(1),
            next_epoch: AtomicU64::new(1),
            next_conn_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(Conns::default()),
        });
        let mut recovered = Vec::new();
        if let Ok(entries) = fs::read_dir(&daemon.config.data_dir) {
            for entry in entries.flatten() {
                let path = entry.path();
                if !path.is_dir() {
                    continue;
                }
                let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                    continue;
                };
                let record = match SessionRecord::read(&path) {
                    Ok(record) => record,
                    Err(_) => continue,
                };
                match record {
                    Some(record) => {
                        daemon.next_epoch.fetch_max(record.epoch + 1, Ordering::SeqCst);
                        // Finish whatever tier transition a crash
                        // interrupted before anything queries the dir.
                        compact::reconcile_tiers(&path, record.tier);
                        recovered.extend(recover_session(&daemon, &path, &name, record));
                    }
                    None => {
                        // Legacy directory (pre-registry daemon, or a torn
                        // record): served read-only by name when it holds
                        // chunks and the name is usable.
                        let has_chunks = list_chunk_files(&path).is_ok_and(|f| !f.is_empty());
                        if has_chunks && valid_session_name(&name) {
                            let legacy = SessionRecord {
                                epoch: 0,
                                status: SessionStatus::Finished,
                                acked_chunks: 0,
                                tier: StorageTier::Raw,
                            };
                            recovered.extend(recover_session(&daemon, &path, &name, legacy));
                        }
                    }
                }
            }
        }
        let accept_daemon = daemon.clone();
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_daemon.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                register_connection(&accept_daemon, Stream::Unix(stream));
            }
        });
        let tcp_accept_thread = tcp_listener.map(|listener| {
            let accept_daemon = daemon.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if accept_daemon.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let _ = stream.set_nodelay(true);
                    register_connection(&accept_daemon, Stream::Tcp(stream));
                }
            })
        });
        // One timer runs both periodic passes, ticking at a quarter of
        // the shortest configured period; no timer when neither an idle
        // timeout nor a non-empty retention policy is set. Each tick
        // reaps before it ages, and the retention pass runs its tier
        // transitions itself, so a tick that builds a tier delays the
        // next reap by that build.
        let period = idle_timeout.into_iter().chain(retention.as_ref().and_then(|p| p.min_dwell()));
        let timer_thread = period.min().map(|period| {
            let timer_daemon = daemon.clone();
            std::thread::spawn(move || {
                let tick =
                    (period / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
                while !timer_daemon.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    if let Some(timeout) = idle_timeout {
                        reap_pass(&timer_daemon, timeout);
                    }
                    if let Some(policy) = &retention {
                        retention_pass(&timer_daemon, policy);
                    }
                }
            })
        });
        Ok(Collector {
            daemon,
            accept_thread: Some(accept_thread),
            tcp_accept_thread,
            tcp_addr,
            timer_thread,
            recovered,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.daemon.config.socket
    }

    /// The bound TCP listen address, when the config asked for one
    /// (resolved, so a port-0 config reports the real ephemeral port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Sessions the startup recovery scan re-registered from durable
    /// registry records (plus legacy directories served read-only).
    pub fn recovered_sessions(&self) -> &[RecoveredSession] {
        &self.recovered
    }

    /// Session names currently registered, with their finished flag.
    pub fn sessions(&self) -> Vec<(String, bool)> {
        let finished = |entry| matches!(entry, Entry::Settled(Settled { abort: None, .. }));
        self.daemon.entries().into_iter().map(|(name, entry)| (name, finished(entry))).collect()
    }

    /// The named session's current lifecycle phase, if it exists.
    pub fn session_phase(&self, name: &str) -> Option<SessionPhase> {
        Some(match self.daemon.route(name, |reply| Msg::Status { reply }).ok()? {
            Routed::Open(_, (true, _)) => SessionPhase::Attached,
            Routed::Open(_, (false, _)) => SessionPhase::Detached,
            Routed::Settled(Settled { abort: None, .. }) => SessionPhase::Finished,
            Routed::Settled(_) => SessionPhase::Aborted,
        })
    }

    /// The storage tier the named session's durable data lives in, if
    /// the session exists (always [`StorageTier::Raw`] while it is open).
    pub fn session_tier(&self, name: &str) -> Option<StorageTier> {
        Some(match self.daemon.lookup(name)? {
            Entry::Open(_) => StorageTier::Raw,
            Entry::Settled(settled) => settled.tier,
        })
    }

    /// Ages the named finished session one step down the storage ladder
    /// on the calling thread (raw → sorted, sorted → rollup) — the same
    /// transition a retention pass runs, exposed for tests and operators.
    /// Returns the tier the session is at afterwards.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Remote`] when the session does not exist, is
    /// not finished, or already sits at the rollup tier; transition
    /// failures surface with their typed error (and leave the prior tier
    /// intact and queryable).
    pub fn compact_session(&self, name: &str) -> Result<StorageTier, CollectorError> {
        let remote =
            |(code, message): ConnError| CollectorError::Remote { code: Some(code), message };
        let tier = self
            .session_tier(name)
            .ok_or_else(|| remote((ErrorCode::UnknownTarget, format!("no session {name:?}"))))?;
        let kind = match tier {
            StorageTier::Raw => JobKind::Sort,
            StorageTier::Sorted => JobKind::Rollup,
            StorageTier::Rollup => {
                return Err(remote((
                    ErrorCode::Protocol,
                    format!("session {name:?} is already at the rollup tier"),
                )))
            }
        };
        run_compaction_job(&self.daemon, name, kind).map_err(remote)?;
        self.session_tier(name).ok_or_else(|| {
            remote((ErrorCode::UnknownTarget, format!("session {name:?} vanished mid-compaction")))
        })
    }

    /// Runs one retention pass now, on the calling thread (what the
    /// timer does every tick): the due tier transition or prune for
    /// every session past its dwell under `policy`, one after another.
    /// Returns once they are done; a failed transition leaves its
    /// session at its prior tier, and the next pass retries it.
    pub fn run_retention_pass(&self, policy: &RetentionPolicy) {
        retention_pass(&self.daemon, policy);
    }

    /// Stops accepting, disconnects live connections, joins all threads,
    /// and removes the socket file. Sessions still streaming **detach**
    /// (their registry record stays `Active`), so a restarted daemon
    /// offers them for resume — a daemon shutdown is a pause, not an
    /// abort.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.daemon.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loops with throwaway connections.
        let _ = UnixStream::connect(&self.daemon.config.socket);
        if let Some(addr) = self.tcp_addr {
            let _ = TcpStream::connect(addr);
        }
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.tcp_accept_thread.take() {
            let _ = handle.join();
        }
        for (_, stream) in self.daemon.conns.lock().streams.drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Connection threads now detach their sessions and exit. An owner
        // exits once every handle to its session is gone — the map's,
        // dropped here, and those the exiting connection threads hold.
        self.daemon.sessions.lock().clear();
        let handles = std::mem::take(&mut self.daemon.conns.lock().threads);
        for handle in handles {
            let _ = handle.join();
        }
        // The timer checks `shutdown` before each transition, so this
        // waits for at most the tier build in progress.
        if let Some(handle) = self.timer_thread.take() {
            let _ = handle.join();
        }
        let _ = fs::remove_file(&self.daemon.config.socket);
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Recovers one registry-recorded session directory into the session
/// map and reports what it found; `None` when the directory is beyond
/// recovery (skipped, never fatal).
fn recover_session(
    daemon: &Arc<Daemon>,
    dir: &Path,
    name: &str,
    record: SessionRecord,
) -> Option<RecoveredSession> {
    let register = |entry| daemon.sessions.lock().insert(name.to_string(), entry);
    let settled = |abort, chunks| {
        Entry::Settled(Settled {
            epoch: record.epoch,
            dir: dir.to_path_buf(),
            tier: record.tier,
            abort,
            chunks,
            seal: None,
        })
    };
    let report = |phase, chunks, events, removed_chunks| {
        Some(RecoveredSession { name: name.to_string(), phase, chunks, events, removed_chunks })
    };
    match record.status {
        SessionStatus::Finished => {
            register(settled(None, record.acked_chunks));
            report(SessionPhase::Finished, record.acked_chunks, 0, 0)
        }
        SessionStatus::Aborted => {
            let message = format!("session {name:?} was aborted in a previous daemon run");
            register(settled(Some((ErrorCode::SessionAborted, message)), record.acked_chunks));
            report(SessionPhase::Aborted, record.acked_chunks, 0, 0)
        }
        SessionStatus::Active => {
            // Mid-stream at the crash: truncate any torn tail through the
            // full decode path, then rebuild the live sweeps by replaying
            // the surviving prefix — the same chunks, in the same order,
            // through the same `decode_columns` + `push_columns` calls
            // the pre-crash owner made.
            let mut live = LiveState::new();
            let mut replay_error: Option<String> = None;
            let prefix = recover_chunk_prefix(dir, |cols| {
                if replay_error.is_none() {
                    if let Err(e) = live.push_columns(cols) {
                        replay_error = Some(e.to_string());
                    }
                }
            })
            .ok()?;
            let chunks = prefix.entries.len() as u64;
            let events = prefix.events();
            let removed_chunks = prefix.removed.len();
            // Decodable chunks the sweeps reject should be impossible
            // (they applied once already) — degrade to a typed abort,
            // keeping the directory queryable. Otherwise refresh the
            // record's informational watermark post-truncation.
            let status = match replay_error {
                Some(_) => SessionStatus::Aborted,
                None => SessionStatus::Active,
            };
            let _ = SessionRecord { status, acked_chunks: chunks, ..record }.write(dir);
            if let Some(err) = replay_error {
                let error = (ErrorCode::CorruptChunk, format!("recovery replay failed: {err}"));
                register(settled(Some(error), chunks));
                return report(SessionPhase::Aborted, chunks, events, removed_chunks);
            }
            let store = ChunkStore::resume(dir, prefix.entries.len() as u32, &daemon.config);
            register(Entry::Open(spawn_owner(
                daemon,
                name,
                record.epoch,
                store,
                live,
                events,
                None,
            )));
            report(SessionPhase::Detached, chunks, events, removed_chunks)
        }
    }
}

/// Blocks serving until the process is killed — the `rlscoped` binary's
/// main loop.
pub fn serve_forever(collector: Collector) -> ! {
    let _collector = collector;
    loop {
        std::thread::park();
    }
}

type ConnError = (ErrorCode, String);

/// Registers one accepted connection (either transport) and spawns its
/// handler thread — the shared tail of both accept loops.
fn register_connection(daemon: &Arc<Daemon>, stream: Stream) {
    let conn_id = daemon.next_conn_id.fetch_add(1, Ordering::SeqCst);
    if let Ok(clone) = stream.try_clone() {
        daemon.conns.lock().streams.insert(conn_id, clone);
    }
    let conn_daemon = daemon.clone();
    daemon.track_thread(std::thread::spawn(move || {
        handle_connection(&conn_daemon, stream);
        conn_daemon.conns.lock().streams.remove(&conn_id);
    }));
}

/// The write half of a connection, shared between the connection thread
/// and the attached session's owner (which writes durable `CHUNK_ACK`s):
/// the mutex keeps frames from interleaving mid-write.
type SharedWriter = Arc<Mutex<Stream>>;

fn send_error(writer: &SharedWriter, code: ErrorCode, message: &str) {
    let _ = write_frame(&mut *writer.lock(), kind::ERROR, &encode_error(code, message));
}

fn send_chunk_ack(writer: &SharedWriter, seq: u64, events: u32) -> Result<(), TraceIoError> {
    let mut payload = [0u8; 12];
    payload[..8].copy_from_slice(&seq.to_be_bytes());
    payload[8..].copy_from_slice(&events.to_be_bytes());
    write_frame(&mut *writer.lock(), kind::CHUNK_ACK, &payload)
}

/// One connection's frame loop. How it ends decides what its attached
/// session's owner is told: a clean exit **detaches** (resumable), an
/// error **aborts** (typed, name reusable).
fn handle_connection(daemon: &Arc<Daemon>, mut stream: Stream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let writer: SharedWriter = Arc::new(Mutex::new(write_half));
    let mut session: Option<Arc<Session>> = None;
    let exit = loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: the client closed (or the
            // daemon is shutting down) with nothing half-sent.
            Ok(None) => break Msg::Detach,
            Err(e) => {
                if daemon.shutdown.load(Ordering::SeqCst) {
                    break Msg::Detach;
                }
                let error = (ErrorCode::Protocol, e.to_string());
                send_error(&writer, error.0, &error.1);
                break Msg::Abort(error);
            }
        };
        // Every kind is named: a new one does not compile until it is
        // handled here.
        let outcome: Result<(), ConnError> = match FrameKind::from_u8(frame.0) {
            Some(FrameKind::Hello) => handle_hello(daemon, &writer, &mut session, &frame.1),
            Some(FrameKind::Chunk) => handle_chunk(daemon, session.as_deref(), frame.1),
            Some(FrameKind::Finish) => {
                let result = handle_finish(daemon, session.as_deref());
                if result.is_ok() {
                    session = None; // clean finish: nothing left to detach
                }
                result
            }
            Some(FrameKind::Query) => handle_query(daemon, &writer, &frame.1),
            Some(FrameKind::ListSessions) => handle_list_sessions(daemon, &writer),
            Some(FrameKind::QueryAll) => handle_query_all(daemon, &writer, &frame.1),
            Some(
                FrameKind::HelloAck
                | FrameKind::ChunkAck
                | FrameKind::FinishAck
                | FrameKind::QueryOk
                | FrameKind::Sessions
                | FrameKind::QueryAllOk
                | FrameKind::Error,
            )
            | None => Err((ErrorCode::Protocol, format!("unexpected frame kind {:#04x}", frame.0))),
        };
        if let Err(error) = outcome {
            send_error(&writer, error.0, &error.1);
            break Msg::Abort(error);
        }
    };
    if let Some(session) = session {
        // A session that already settled has closed its mailbox.
        let _ = session.mailbox.send(exit);
    }
}

/// The timer's idle pass: ask every open session's owner to abort if it
/// has been idle past `timeout`. `try_send` never blocks (so it may run
/// under the map lock): a full mailbox means chunks are in flight — not
/// idle — and the question is simply not put.
fn reap_pass(daemon: &Daemon, timeout: Duration) {
    for entry in daemon.sessions.lock().values() {
        if let Entry::Open(session) = entry {
            let _ = session.mailbox.try_send(Msg::ReapIfIdle(timeout));
        }
    }
}

/// Runs one compaction job end to end: re-check eligibility (a job can
/// be stale — the session may have been pruned, recreated, or already
/// transitioned since it was chosen), do the slow tier build with **no
/// locks held** (settled sessions are immutable, so the raw files cannot
/// change underneath the build), then record the new tier durably and
/// in memory before deleting the prior tier's files.
fn run_compaction_job(daemon: &Daemon, name: &str, kind: JobKind) -> Result<(), ConnError> {
    let settled = match daemon.lookup(name) {
        None => return Err((ErrorCode::UnknownTarget, format!("no session {name:?}"))),
        // Still open: a stale job — not an error, just nothing to do.
        Some(Entry::Open(_)) => return Ok(()),
        Some(Entry::Settled(settled)) => settled,
    };
    // Finished sessions compact; any settled session prunes.
    let finished = settled.abort.is_none();
    let eligible = match kind {
        JobKind::Sort => finished && settled.tier == StorageTier::Raw,
        JobKind::Rollup => finished && settled.tier == StorageTier::Sorted,
        JobKind::Prune => true,
    };
    if !eligible {
        return Ok(());
    }
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = &daemon.config.faults {
        if plan.compaction_fails() && kind != JobKind::Prune {
            // Simulate a mid-build failure honestly: leave a partial
            // temp dir behind, exactly what a real ENOSPC or crash
            // mid-build leaves. The next (un-faulted) run wipes it.
            let tmp = settled.dir.join(compact::TIER_TMP);
            let _ = fs::create_dir_all(&tmp);
            let _ = fs::write(tmp.join("partial.rls"), b"torn tier build");
            return Err((
                ErrorCode::Io,
                "injected ENOSPC (fault plan) during compaction".to_string(),
            ));
        }
    }
    match kind {
        JobKind::Sort => {
            compact::sort_tier(&settled.dir).map_err(io_err)?;
            advance_tier(daemon, name, &settled, StorageTier::Sorted)?;
            compact::drop_raw_files(&settled.dir);
        }
        JobKind::Rollup => {
            compact::rollup_tier(&settled.dir, daemon.config.rollup_segment_ns.max(1))
                .map_err(io_err)?;
            advance_tier(daemon, name, &settled, StorageTier::Rollup)?;
            compact::drop_sorted_dir(&settled.dir);
        }
        JobKind::Prune => {
            // Only this incarnation: a new session may hold the name
            // (and the directory) by now.
            let mut sessions = daemon.sessions.lock();
            if matches!(sessions.get(name), Some(Entry::Settled(s)) if s.epoch == settled.epoch) {
                sessions.remove(name);
                let _ = fs::remove_dir_all(&settled.dir);
            }
        }
    }
    Ok(())
}

/// Step 3 of the transition protocol: records `tier` durably in the
/// session registry, then mirrors it into the session map. On a failed
/// record write the freshly published tier directory is removed again,
/// so disk and record never disagree in this process's lifetime (a
/// crash between publish and record is reconciled at next startup).
fn advance_tier(
    daemon: &Daemon,
    name: &str,
    settled: &Settled,
    tier: StorageTier,
) -> Result<(), ConnError> {
    let record = SessionRecord {
        epoch: settled.epoch,
        status: SessionStatus::Finished,
        acked_chunks: settled.chunks,
        tier,
    };
    if let Err(e) = record.write(&settled.dir) {
        if let Some(sub) = tier.subdir() {
            let _ = fs::remove_dir_all(settled.dir.join(sub));
        }
        return Err(io_err(e));
    }
    if let Some(Entry::Settled(current)) = daemon.sessions.lock().get_mut(name) {
        if current.epoch == settled.epoch {
            current.tier = tier;
            current.seal = None;
        }
    }
    Ok(())
}

/// How long the session has dwelled at its current tier: the age of its
/// `SESSION` record, which is rewritten at every durable transition.
fn session_dwell(dir: &Path) -> Option<Duration> {
    let meta = fs::metadata(dir.join(crate::registry::SESSION_FILE)).ok()?;
    meta.modified().ok()?.elapsed().ok()
}

/// One retention pass: runs the due tier transition (or prune) for every
/// settled session past its dwell, one after another in name order, on
/// the calling thread. Open sessions are never touched; aborted sessions
/// age straight from raw to pruned after the `raw` dwell (their partial
/// data is not worth a rewrite, but deserves the same grace period).
///
/// By construction a session has at most one job at a time (the pass is
/// sequential, and each job re-checks eligibility), a failed job is
/// retried (the next pass finds its session still due), and shutdown
/// waits for at most the build in progress (`shutdown` is checked before
/// each job).
fn retention_pass(daemon: &Daemon, policy: &RetentionPolicy) {
    for (name, entry) in daemon.entries() {
        if daemon.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Entry::Settled(settled) = entry else { continue };
        let Some(dwell) = session_dwell(&settled.dir) else { continue };
        let (limit, kind) = match (&settled.abort, settled.tier) {
            (Some(_), _) => (policy.raw, JobKind::Prune),
            (None, StorageTier::Raw) => (policy.raw, JobKind::Sort),
            (None, StorageTier::Sorted) => (policy.sorted, JobKind::Rollup),
            (None, StorageTier::Rollup) => (policy.rollup, JobKind::Prune),
        };
        if limit.is_some_and(|limit| dwell >= limit) {
            let _ = run_compaction_job(daemon, &name, kind);
        }
    }
}

fn valid_session_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && !name.bytes().all(|b| b == b'.')
}

fn handle_hello(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    session: &mut Option<Arc<Session>>,
    payload: &[u8],
) -> Result<(), ConnError> {
    if session.is_some() {
        return Err((ErrorCode::Protocol, "second HELLO on one connection".into()));
    }
    // Version first, from the fixed prefix: older clients lay the rest of
    // the payload out differently, and they deserve the typed version
    // error, not a parse error.
    let Some((version_bytes, _)) = payload.split_first_chunk::<4>() else {
        return Err((ErrorCode::Protocol, "truncated HELLO".into()));
    };
    let version = u32::from_be_bytes(*version_bytes);
    if version != PROTOCOL_VERSION {
        return Err((
            ErrorCode::Version,
            format!("protocol version {version} unsupported (server speaks {PROTOCOL_VERSION})"),
        ));
    }
    let hello = HelloRequest::decode(payload).map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
    if !valid_session_name(&hello.name) {
        return Err((
            ErrorCode::BadSessionName,
            format!("bad session name {:?} (want [A-Za-z0-9_.-]{{1,64}})", hello.name),
        ));
    }
    let (opened, acked_chunks) = match hello.resume_epoch {
        None => (handle_hello_new(daemon, writer, &hello.name)?, 0),
        Some(epoch) => handle_hello_resume(daemon, writer, &hello.name, epoch)?,
    };
    let ack = HelloAck {
        session_id: opened.id,
        credits: daemon.config.credits.max(1),
        epoch: opened.epoch,
        acked_chunks,
    };
    // Attached from here on: a failed ack write aborts the session on
    // this connection's way out.
    *session = Some(opened);
    write_frame(&mut *writer.lock(), kind::HELLO_ACK, &ack.encode()).map_err(io_err)
}

/// Claims `name` for a new session attached to `writer`'s connection.
/// The claim — check, directory wipe, registry record, map insert — is
/// one critical section of the session map, so two clients cannot both
/// win a name.
fn handle_hello_new(
    daemon: &Arc<Daemon>,
    writer: &SharedWriter,
    name: &str,
) -> Result<Arc<Session>, ConnError> {
    let dir = daemon.config.data_dir.join(name);
    let mut sessions = daemon.sessions.lock();
    if daemon.shutdown.load(Ordering::SeqCst) {
        return Err((ErrorCode::Io, "daemon is shutting down".into()));
    }
    match sessions.get(name) {
        Some(Entry::Open(_)) => {
            return Err((
                ErrorCode::SessionActive,
                format!("session {name:?} is open (streaming, or detached awaiting resume)"),
            ));
        }
        Some(Entry::Settled(Settled { abort: None, .. })) => {
            return Err((
                ErrorCode::SessionExists,
                format!("session {name:?} is finished (durable data; pick a fresh name)"),
            ));
        }
        // Aborted: the name is explicitly reusable — replace the entry
        // (the old directory is wiped below).
        Some(Entry::Settled(_)) => {}
        None => {
            // Not in the session map: a directory holding chunks (or a
            // compacted tier) is durable data from an earlier run that
            // recovery did not claim — refuse rather than silently wipe
            // it.
            let compacted = [StorageTier::Sorted, StorageTier::Rollup]
                .into_iter()
                .filter_map(StorageTier::subdir)
                .any(|sub| dir.join(sub).is_dir());
            let prior_data = dir.is_dir()
                && (compacted || list_chunk_files(&dir).is_ok_and(|files| !files.is_empty()));
            if prior_data {
                return Err((
                    ErrorCode::SessionExists,
                    format!("session {name:?} has durable data from a previous daemon run"),
                ));
            }
        }
    }
    let store = ChunkStore::create(&dir, &daemon.config).map_err(io_err)?;
    let epoch = daemon.next_epoch.fetch_add(1, Ordering::SeqCst);
    let record = SessionRecord {
        epoch,
        status: SessionStatus::Active,
        acked_chunks: 0,
        tier: StorageTier::Raw,
    };
    record.write(&dir).map_err(io_err)?;
    let new = spawn_owner(daemon, name, epoch, store, LiveState::new(), 0, Some(writer.clone()));
    sessions.insert(name.to_string(), Entry::Open(new.clone()));
    Ok(new)
}

/// Resume: the owner checks the epoch and that nothing is attached, and
/// answers the acked watermark the client replays from.
fn handle_hello_resume(
    daemon: &Daemon,
    writer: &SharedWriter,
    name: &str,
    epoch: u64,
) -> Result<(Arc<Session>, u64), ConnError> {
    let attach = |reply| Msg::Attach { epoch, writer: writer.clone(), reply };
    match daemon.route(name, attach)? {
        Routed::Open(session, acked) => Ok((session, acked?)),
        // The finish committed before the client lost the connection:
        // the typed answer a retrying `finish` treats as success.
        Routed::Settled(Settled { abort: None, .. }) => {
            Err((ErrorCode::SessionExists, format!("session {name:?} already finished")))
        }
        Routed::Settled(Settled { abort: Some((_, message)), .. }) => {
            Err((ErrorCode::SessionAborted, message))
        }
    }
}

fn handle_chunk(
    daemon: &Daemon,
    session: Option<&Session>,
    mut payload: Vec<u8>,
) -> Result<(), ConnError> {
    let session = session.ok_or((ErrorCode::Protocol, "CHUNK before HELLO".to_string()))?;
    let Some((seq_bytes, _)) = payload.split_first_chunk::<8>() else {
        return Err((ErrorCode::Protocol, "CHUNK missing sequence number".into()));
    };
    let seq = u64::from_be_bytes(*seq_bytes);
    payload.drain(..8);
    // The payload is a codec-v3 chunk: decode validates everything —
    // framing, varints, string ids, the footer cross-check — before a
    // single event enters the session.
    let cols = decode_columns(&payload).map_err(|e| (ErrorCode::CorruptChunk, e.to_string()))?;
    // The bounded send blocks (backpressure) while the owner lags. The
    // sequence check, the apply, the persist and the ack are the
    // owner's, in that order.
    session
        .mailbox
        .send(Msg::Chunk { seq, payload, cols })
        .map_err(|_| daemon.settled_error(session))
}

/// `FINISH`: the owner writes the `FINISH_ACK` itself (it seals right
/// after), so this only waits for its word that the ack went out.
fn handle_finish(daemon: &Daemon, session: Option<&Session>) -> Result<(), ConnError> {
    let session = session.ok_or((ErrorCode::Protocol, "FINISH before HELLO".to_string()))?;
    session.ask(|reply| Msg::Finish { reply }).unwrap_or_else(|| Err(daemon.settled_error(session)))
}

fn handle_query(daemon: &Daemon, writer: &SharedWriter, payload: &[u8]) -> Result<(), ConnError> {
    let spec = QuerySpec::decode(payload).map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
    let reply = run_query(daemon, &spec)?;
    write_frame(&mut *writer.lock(), kind::QUERY_OK, &reply.encode()).map_err(io_err)?;
    Ok(())
}

fn run_query(daemon: &Daemon, spec: &QuerySpec) -> Result<QueryReply, ConnError> {
    match &spec.target {
        QueryTarget::Session(name) => {
            // The snapshot queues behind every chunk acked so far, so
            // the prefix it covers includes them.
            let view = live_view(spec);
            let tables = match daemon.route(name, |reply| Msg::Snapshot { view, reply })? {
                // The directory holds exactly the durable acked prefix.
                Routed::Settled(settled) => return tiered_query(daemon, name, settled, spec),
                Routed::Open(_, tables) => tables,
            };
            let canonical_json = apply_spec(Analysis::of_live(&tables), spec)
                .canonical_json()
                .map_err(analysis_err)?;
            let events_observed = tables.events_observed();
            Ok(QueryReply { live: true, cache_hit: false, events_observed, canonical_json })
        }
        QueryTarget::Dir(path) => {
            let dir = PathBuf::from(path);
            if !dir.is_dir() {
                return Err((ErrorCode::UnknownTarget, format!("no chunk directory {path:?}")));
            }
            settled_query(daemon, &dir, StorageTier::Raw, spec, || None, || Ok(()))
        }
        // A QUERY reply carries one canonical-JSON table; the all-sessions
        // answer is per-session groups, which only a QUERY_ALL_OK can carry.
        QueryTarget::AllSessions => Err((
            ErrorCode::UnsupportedQuery,
            "the all-sessions target must be sent as a QUERY_ALL frame".into(),
        )),
    }
}

fn handle_list_sessions(daemon: &Daemon, writer: &SharedWriter) -> Result<(), ConnError> {
    let mut sessions = Vec::new();
    for (name, _) in daemon.entries() {
        // A settled session's total is its tier index's, whether it
        // settled in this daemon run or was recovered from disk.
        let (live, events) = match daemon.route(&name, |reply| Msg::Status { reply }) {
            Ok(Routed::Open(_, (_, events))) => (true, events),
            Ok(Routed::Settled(s)) => match tier_index(&tier_dir(&s.dir, s.tier), s.tier) {
                Ok(index) => (false, index.total_events()),
                Err(_) => continue, // pruned since the listing was taken
            },
            Err(_) => continue, // pruned since the listing was taken
        };
        sessions.push(SessionInfo { name, live, events });
    }
    let reply = SessionList { sessions };
    write_frame(&mut *writer.lock(), kind::SESSIONS, &reply.encode()).map_err(io_err)?;
    Ok(())
}

fn handle_query_all(
    daemon: &Daemon,
    writer: &SharedWriter,
    payload: &[u8],
) -> Result<(), ConnError> {
    let spec = QuerySpec::decode(payload).map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
    let reply = run_query_all(daemon, &spec)?;
    write_frame(&mut *writer.lock(), kind::QUERY_ALL_OK, &reply.encode()).map_err(io_err)?;
    Ok(())
}

/// Runs one query across every session the daemon holds, composed
/// through [`Analysis::of_sessions`]. Open sessions contribute a
/// consistent acked-prefix snapshot (asked of each owner in turn, the
/// same way a single-session query does); finished and aborted sessions
/// contribute their seal or the directory of their tier. A directory
/// counts under [`tiered_query`]'s rule, per session: the answer stands
/// only if every directory's session still held its tier after the
/// answer was computed. Otherwise — also after a failed read — the
/// sessions that moved are re-read at their new tier, the ones pruned
/// meanwhile are dropped, and the answer is computed again (tiers only
/// move forward, so this terminates); a read of a directory being
/// dropped is never returned. Results are not cached: the answer covers
/// every live prefix at once, so any ingest anywhere invalidates it.
fn run_query_all(daemon: &Daemon, spec: &QuerySpec) -> Result<QueryAllReply, ConnError> {
    if spec.target != QueryTarget::AllSessions {
        return Err((ErrorCode::Protocol, "QUERY_ALL frames take the all-sessions target".into()));
    }
    let view = live_view(spec);
    let mut any_live = false;
    /// What one session contributes: tables (a live snapshot or a
    /// seal), or the directory of the tier its settled entry names.
    enum Part {
        Tables(Arc<LiveTables>),
        Dir(Settled),
    }
    // Each session's name, event count and part. A tier transition keeps
    // the event count, so a session re-read at a new tier keeps it too.
    let mut parts: Vec<(Arc<str>, u64, Part)> = Vec::new();
    for (name, _) in daemon.entries() {
        // `Err`: pruned since the listing was taken.
        let Ok(routed) = daemon.route(&name, |reply| Msg::Snapshot { view, reply }) else {
            continue;
        };
        let (events, part) = match routed {
            Routed::Open(_, tables) => {
                any_live = true;
                (tables.events_observed(), Part::Tables(Arc::new(tables)))
            }
            Routed::Settled(mut settled) => {
                // A tier transition can drop the directory mid-read: the
                // index is then read again at the new tier, as
                // `tiered_query` does.
                let events = loop {
                    match tier_index(&tier_dir(&settled.dir, settled.tier), settled.tier) {
                        Ok(index) => break Some(index.total_events()),
                        Err(error) => match daemon.tier_now(&name, &settled) {
                            TierNow::Held => return Err(error),
                            TierNow::Moved(now) => settled = now,
                            // Pruned since the listing was taken.
                            TierNow::Pruned => break None,
                        },
                    }
                };
                let Some(events) = events else { continue };
                match daemon.sealed(&name, &settled, spec) {
                    Some(tables) => (events, Part::Tables(tables)),
                    None => (events, Part::Dir(settled)),
                }
            }
        };
        parts.push((Arc::from(name), events, part));
    }
    loop {
        let sources = parts.iter().map(|(name, _, part)| {
            let source = match part {
                Part::Tables(tables) => SessionSource::Live(tables),
                Part::Dir(settled) => {
                    let dir = tier_dir(&settled.dir, settled.tier);
                    match settled.tier {
                        StorageTier::Rollup => SessionSource::RollupDir(dir),
                        _ => SessionSource::ChunkDir(dir),
                    }
                }
            };
            (name.clone(), source)
        });
        let groups = apply_spec(Analysis::of_sessions(sources), spec).tables();
        let mut moved = false;
        parts.retain_mut(|(name, _, part)| {
            let Part::Dir(settled) = part else { return true };
            match daemon.tier_now(name, settled) {
                TierNow::Held => true,
                TierNow::Moved(now) => {
                    *settled = now;
                    moved = true;
                    true
                }
                TierNow::Pruned => {
                    moved = true;
                    false
                }
            }
        });
        if moved {
            continue;
        }
        return Ok(QueryAllReply {
            live: any_live,
            events_observed: parts.iter().map(|(_, events, _)| events).sum(),
            sessions: parts.iter().map(|(name, _, _)| name.to_string()).collect(),
            groups: groups.map_err(analysis_err)?,
        });
    }
}

/// Where a settled session's data lives at `tier`.
fn tier_dir(dir: &Path, tier: StorageTier) -> PathBuf {
    match tier.subdir() {
        None => dir.to_path_buf(),
        Some(sub) => dir.join(sub),
    }
}

/// The index of a session's data at a tier: the rollup's `ROLLUP`
/// index, or for a raw or sorted tier the chunk index
/// [`Manifest::open`] reads off the chunks.
enum TierIndex {
    Chunks(Manifest),
    Rollup(Rollup),
}

impl TierIndex {
    /// The result cache's validation key.
    fn checksum(&self) -> u64 {
        match self {
            TierIndex::Chunks(manifest) => manifest.checksum(),
            TierIndex::Rollup(rollup) => rollup.checksum(),
        }
    }

    fn total_events(&self) -> u64 {
        match self {
            TierIndex::Chunks(manifest) => manifest.total_events(),
            TierIndex::Rollup(rollup) => rollup.total_events(),
        }
    }
}

/// Reads the index of `dir`, the data of a session at `tier`.
fn tier_index(dir: &Path, tier: StorageTier) -> Result<TierIndex, ConnError> {
    match tier {
        StorageTier::Rollup => Rollup::open(dir).map(TierIndex::Rollup),
        _ => Manifest::open(dir).map(TierIndex::Chunks),
    }
    .map_err(io_err)
}

/// Routes a settled session's query to its current storage tier, or to
/// its seal ([`Daemon::sealed`]). The query runs with no lock held, so a
/// concurrent tier transition can delete the files mid-read. Compaction
/// moves the session's tier, or a prune removes its entry, before it
/// deletes anything, so an answer counts only if the tier it read still
/// held after it was computed: otherwise — and after a failed read — it
/// is retried at the session's new tier (the tier only moves forward, so
/// this terminates), and a session pruned mid-read is an
/// [`ErrorCode::UnknownTarget`], as it is for a query sent after the
/// prune. A read of a directory being dropped is thus neither returned
/// nor cached.
fn tiered_query(
    daemon: &Daemon,
    name: &str,
    mut settled: Settled,
    spec: &QuerySpec,
) -> Result<QueryReply, ConnError> {
    loop {
        let (dir, tier) = (tier_dir(&settled.dir, settled.tier), settled.tier);
        let sealed = || daemon.sealed(name, &settled, spec);
        let held = || match daemon.tier_now(name, &settled) {
            TierNow::Held => Ok(()),
            _ => Err((ErrorCode::Io, format!("session {name:?} left the {tier:?} tier mid-read"))),
        };
        let result = settled_query(daemon, &dir, tier, spec, sealed, held);
        if let Err((ErrorCode::Io, _)) = &result {
            match daemon.tier_now(name, &settled) {
                TierNow::Held => {}
                TierNow::Moved(now) => {
                    settled = now;
                    continue;
                }
                TierNow::Pruned => {
                    return Err((ErrorCode::UnknownTarget, format!("no session {name:?}")))
                }
            }
        }
        return result;
    }
}

/// One settled-tier query, fronted by the checksum-keyed result cache.
/// A raw or sorted directory answers through footer pushdown over the
/// chunk index read once here ([`Analysis::from_chunk_index`], keyed by
/// that index's checksum, so a cached answer was computed from exactly
/// the index its key describes); a rollup answers from its
/// pre-aggregated segment summaries
/// ([`Analysis::from_rollup_dir`], keyed by the rollup index checksum)
/// without decoding a raw event, and a query needing raw resolution
/// comes back as a typed [`ErrorCode::UnsupportedQuery`] straight from
/// the analysis layer. On a cache miss, tables from `sealed` — the
/// session's seal, byte-identical to the directory's answer — replace
/// the directory as the source; lookup, insert and the checksum are the
/// same either way. `held` is asked once the answer exists, before it
/// is cached or returned: an error there discards the answer.
fn settled_query(
    daemon: &Daemon,
    dir: &Path,
    tier: StorageTier,
    spec: &QuerySpec,
    sealed: impl FnOnce() -> Option<Arc<LiveTables>>,
    held: impl FnOnce() -> Result<(), ConnError>,
) -> Result<QueryReply, ConnError> {
    let index = tier_index(dir, tier)?;
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = &daemon.config.faults {
        plan.settled_query_hook();
    }
    let (checksum, events) = (index.checksum(), index.total_events());
    let key = (dir.to_string_lossy().into_owned(), spec.encode());
    let cached = daemon.cache.lock().get(&key).filter(|cached| cached.checksum == checksum);
    if let Some(cached) = cached {
        held()?;
        return Ok(QueryReply {
            live: false,
            cache_hit: true,
            events_observed: cached.events,
            canonical_json: cached.json,
        });
    }
    let tables = sealed();
    let analysis = match (&tables, &index) {
        (Some(tables), _) => Analysis::of_live(tables),
        (None, TierIndex::Rollup(_)) => Analysis::from_rollup_dir(dir),
        (None, TierIndex::Chunks(manifest)) => Analysis::from_chunk_index(manifest),
    };
    let json = apply_spec(analysis, spec).canonical_json().map_err(analysis_err)?;
    held()?;
    daemon.cache.lock().insert(key, CachedResult { checksum, events, json: json.clone() });
    Ok(QueryReply { live: false, cache_hit: false, events_observed: events, canonical_json: json })
}

/// The live view a wire query reads — what its snapshot must hold.
fn live_view(spec: &QuerySpec) -> LiveView {
    LiveView::for_query(&spec.dims, spec.process.map(ProcessId))
}

/// Applies a wire query spec to an [`Analysis`] builder.
fn apply_spec<'a>(mut analysis: Analysis<'a>, spec: &'a QuerySpec) -> Analysis<'a> {
    if let Some(phase) = &spec.phase {
        analysis = analysis.phase(phase);
    }
    if let Some(pid) = spec.process {
        analysis = analysis.process(ProcessId(pid));
    }
    if let Some(op) = &spec.operation {
        analysis = analysis.operation(op);
    }
    if let Some((lo, hi)) = spec.window {
        analysis = analysis.time_window(TimeNs::from_nanos(lo), TimeNs::from_nanos(hi));
    }
    analysis.group_by(spec.dims.iter().copied())
}

fn io_err(e: TraceIoError) -> ConnError {
    (ErrorCode::Io, e.to_string())
}

fn analysis_err(e: AnalysisError) -> ConnError {
    match e {
        AnalysisError::Unsupported(msg) => (ErrorCode::UnsupportedQuery, msg),
        AnalysisError::Io(e) => (ErrorCode::Io, e.to_string()),
    }
}
