//! The collector daemon: socket accept loop, per-session ingest, the
//! durable session registry and restart recovery scan, live and
//! finished-dir query execution, and the keyed result caches.

use crate::compact::{self, CompactionJob, JobKind, JobQueue, RetentionPolicy};
use crate::protocol::{
    encode_error, kind, CollectorError, ErrorCode, HelloAck, HelloRequest, QueryAllReply,
    QueryReply, QuerySpec, QueryTarget, SessionInfo, SessionList, PROTOCOL_VERSION,
};
use crate::registry::{SessionRecord, SessionStatus, StorageTier};
use crate::transport::Stream;
use parking_lot::Mutex;
use rlscope_core::analysis::{Analysis, AnalysisError, LiveState, LiveTables, SessionSource};
use rlscope_core::rollup::Rollup;
use rlscope_core::store::{
    compute_footer_columns, decode_columns, list_chunk_files, read_chunk_footer, read_frame,
    recover_chunk_prefix, upgrade_chunk_dir, write_frame, EventColumns, Manifest, ManifestEntry,
    ManifestUpgrade, TraceIoError, MANIFEST_FILE,
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
/// manifest write, so tests can inject ENOSPC-style failures and torn
/// writes at exact points in the stream without touching the filesystem
/// layer. The chunk-write counter is global to the plan, so fault
/// schedules are easiest to reason about with one streaming session per
/// plan.
#[cfg(feature = "fault-inject")]
pub mod fault {
    use parking_lot::Mutex;
    use rlscope_core::store::TraceIoError;
    use std::sync::Arc;

    #[derive(Debug, Default)]
    struct Inner {
        chunk_writes_seen: u64,
        fail_chunk_writes_from: Option<u64>,
        torn_bytes: Option<usize>,
        fail_manifest_writes: bool,
        fail_compaction: bool,
    }

    /// A mutable fault schedule for the daemon's chunk and manifest
    /// writes (see the module docs).
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

        /// Make every manifest write fail with an injected error.
        pub fn fail_manifest_writes(&self, fail: bool) {
            self.inner.lock().fail_manifest_writes = fail;
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
            inner.fail_manifest_writes = false;
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

        pub(crate) fn manifest_writes_fail(&self) -> bool {
            self.inner.lock().fail_manifest_writes
        }

        pub(crate) fn compaction_fails(&self) -> bool {
            self.inner.lock().fail_compaction
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
    /// Query results cached per cache (finished-dir and live), LRU
    /// eviction.
    pub cache_capacity: usize,
    /// Force the decode→apply pipeline on (`Some(true)`) or off
    /// (`Some(false)`); `None` picks by available parallelism — a
    /// dedicated apply thread per session only pays when there is a core
    /// for it.
    pub apply_pipeline: Option<bool>,
    /// Abort sessions (typed [`ErrorCode::IdleTimeout`]) that receive no
    /// frames for this long, so a crashed client cannot pin daemon
    /// memory forever. `None` disables the reaper.
    pub idle_timeout: Option<Duration>,
    /// Retention dial: how long finished sessions dwell at each storage
    /// tier before the background compactor ages them down the ladder
    /// (raw → sorted → rollup → gone). `None` (and an empty policy)
    /// disables the retention timer; compaction is still available
    /// through [`Collector::compact_session`].
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
            apply_pipeline: None,
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
    /// whose manifest is the source of truth).
    pub events: u64,
    /// Torn/corrupt tail chunk files the scan deleted.
    pub removed_chunks: usize,
}

/// One profiling session's server-side state.
///
/// Ingest is a two-stage pipeline per session: the connection thread
/// decodes and validates each chunk straight into columnar buffers
/// ([`rlscope_core::store::decode_columns`] — no `Vec<Event>` is ever
/// materialized on the ingest path), then hands the columns to the
/// session's **apply thread** over a bounded channel (the bounded
/// per-connection buffer — at most [`APPLY_QUEUE_CHUNKS`] decoded chunks
/// in flight). The apply thread pushes them into the live sweeps and
/// the chunk store, **then writes the `CHUNK_ACK`** — an ack therefore
/// means the chunk is durable, which is what makes client-side replay
/// after a daemon crash exactly-once. (On single-core hosts the
/// pipeline is skipped and chunks apply inline before the ack — same
/// [`Session::apply_chunk`] path, same durability contract.)
///
/// Chunks apply atomically — the whole-chunk sweep push under the
/// `live` lock, then counters and the verbatim persist under the
/// `state` lock — and live snapshots run **after** a flush barrier
/// (queries wait until every chunk enqueued before them has applied).
/// That is what makes a live query a *consistent prefix*: it observes
/// whole chunks, in order, including every chunk the querying client
/// has been acked.
struct Session {
    name: String,
    /// Server-assigned id, stable across detach/resume.
    id: u64,
    /// Incarnation epoch (see [`SessionRecord::epoch`]); immutable for
    /// the session's lifetime, echoed by resuming clients.
    epoch: u64,
    dir: PathBuf,
    state: Mutex<SessionState>,
    /// The live sweeps, under their own lock so a whole-chunk sweep push
    /// never blocks the connection thread's (short) state accesses —
    /// only the apply thread and snapshots touch it. Lock order: `state`
    /// may be held while taking `live`, never the reverse.
    live: Mutex<LiveState>,
    /// Monotonic enqueue/apply counters driving the flush barrier. (std
    /// primitives: the vendored parking_lot stub has no Condvar.)
    progress: std::sync::Mutex<ApplyProgress>,
    applied: std::sync::Condvar,
}

/// Monotonic pipeline counters: `enqueued` advances when the connection
/// thread hands a chunk to the apply stage, `applied` when the apply
/// stage resolves it (applied, or discarded after a failure — the
/// counters must stay reconciled so barriers never wait forever).
#[derive(Debug, Default, Clone, Copy)]
struct ApplyProgress {
    enqueued: u64,
    applied: u64,
}

/// Decoded chunks the apply queue may hold — the bound on per-session
/// in-flight memory between decode and apply.
const APPLY_QUEUE_CHUNKS: usize = 8;

/// `(seq, raw payload, decoded columns)` handed to the apply stage.
type ApplyItem = (u64, Vec<u8>, EventColumns);

/// The session's durable half: received chunk payloads are persisted
/// **verbatim** — they are codec-v3 chunks, already validated end to end
/// by the ingest decode — so the collector never re-encodes a byte, and
/// the on-disk directory is exactly what a [`TraceWriter`] run would
/// leave behind (`chunk_NNNNN.rls` files plus a `MANIFEST` at finish,
/// with chunk granularity set by the client's flush batches).
///
/// [`TraceWriter`]: rlscope_core::store::TraceWriter
struct ChunkStore {
    dir: PathBuf,
    entries: Vec<ManifestEntry>,
    seq: u32,
    #[cfg(feature = "fault-inject")]
    faults: Option<Arc<fault::FaultPlan>>,
}

impl ChunkStore {
    /// Creates the session directory, clearing stale chunks and any old
    /// `MANIFEST` (same reused-directory semantics as
    /// `TraceWriter::create`).
    fn create(dir: &Path, config: &CollectorConfig) -> Result<ChunkStore, TraceIoError> {
        let _ = config;
        fs::create_dir_all(dir)?;
        for stale in list_chunk_files(dir)? {
            fs::remove_file(stale)?;
        }
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            fs::remove_file(&manifest)?;
        }
        Ok(ChunkStore {
            dir: dir.to_path_buf(),
            entries: Vec::new(),
            seq: 0,
            #[cfg(feature = "fault-inject")]
            faults: config.faults.clone(),
        })
    }

    /// Reopens a recovered directory without wiping it: `entries` is the
    /// validated prefix a [`recover_chunk_prefix`] scan produced, and
    /// new chunks continue its contiguous `chunk_NNNNN` numbering.
    fn resume(dir: &Path, entries: Vec<ManifestEntry>, config: &CollectorConfig) -> ChunkStore {
        let _ = config;
        ChunkStore {
            dir: dir.to_path_buf(),
            seq: entries.len() as u32,
            entries,
            #[cfg(feature = "fault-inject")]
            faults: config.faults.clone(),
        }
    }

    /// Persists one validated chunk payload verbatim and indexes its
    /// footer (parsed from the v3 trailer; computed from the decoded
    /// events for v1-fallback payloads, whose wire format carries none).
    fn append(&mut self, payload: &[u8], cols: &EventColumns) -> Result<(), TraceIoError> {
        let file = format!("chunk_{:05}.rls", self.seq);
        self.write_chunk(&self.dir.join(&file), payload)?;
        self.seq += 1;
        let footer = match read_chunk_footer(payload)? {
            Some(footer) => footer,
            None => compute_footer_columns(cols),
        };
        self.entries.push(ManifestEntry { file, size: payload.len() as u64, footer });
        Ok(())
    }

    #[cfg(feature = "fault-inject")]
    fn write_chunk(&self, path: &Path, payload: &[u8]) -> Result<(), TraceIoError> {
        if let Some(plan) = &self.faults {
            match plan.next_chunk_write() {
                fault::ChunkWriteFault::Pass => {}
                fault::ChunkWriteFault::Torn(keep) => {
                    let _ = fs::write(path, &payload[..keep.min(payload.len())]);
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

    /// Writes the manifest; the directory is then fully query-ready
    /// (pushdown included) without any scan.
    fn finish(&mut self) -> Result<(), TraceIoError> {
        #[cfg(feature = "fault-inject")]
        if let Some(plan) = &self.faults {
            if plan.manifest_writes_fail() {
                return Err(fault::injected_enospc());
            }
        }
        Manifest::from_entries(&self.dir, std::mem::take(&mut self.entries)).write()
    }
}

struct SessionState {
    /// `Some` while the session accepts chunks; taken at finish (which
    /// writes the manifest) and flushed best-effort on abort.
    store: Option<ChunkStore>,
    /// Decoded-chunk channel into the apply thread; dropped at finish,
    /// detach, or abort so the thread drains and exits.
    apply_tx: Option<crossbeam::channel::Sender<ApplyItem>>,
    apply_thread: Option<JoinHandle<()>>,
    /// First apply-stage failure; poisons the session (the apply thread
    /// reports it to the client, and it is re-reported, with its error
    /// class, on the next chunk, query, or finish).
    apply_error: Option<(ErrorCode, String)>,
    /// Chunks durably applied (== acked).
    chunks: u64,
    events: u64,
    /// Next chunk sequence number expected on the wire; while detached
    /// this equals `chunks` (the queue is drained at detach), which is
    /// the watermark a resume handshake returns.
    recv_seq: u64,
    finished: bool,
    /// Typed abort reason, latched by whichever party aborts first (the
    /// connection handler, the apply stage, or the idle reaper).
    abort: Option<(ErrorCode, String)>,
    /// Connection id currently attached, if any.
    attached: Option<u64>,
    /// Last frame receipt on the attached connection — the idle reaper's
    /// clock.
    last_frame: Instant,
    /// Storage tier the session's durable data lives in. Always
    /// [`StorageTier::Raw`] while streaming; the compaction worker
    /// advances it (after the new tier is durably recorded), and query
    /// routing reads it under this same lock.
    tier: StorageTier,
}

impl Session {
    /// Applies one validated chunk: live sweeps, then counters and the
    /// verbatim persist — the single code path both the pipelined apply
    /// thread and the single-core inline mode run. Sweep rejections are
    /// client-data problems ([`ErrorCode::Protocol`]); store failures
    /// are server-side [`ErrorCode::Io`].
    fn apply_chunk(&self, payload: &[u8], cols: &EventColumns) -> Result<(), ConnError> {
        {
            let mut live = self.live.lock();
            live.push_columns(cols).map_err(|e| (ErrorCode::Protocol, e.to_string()))?;
        }
        let mut state = self.state.lock();
        if let Some(store) = &mut state.store {
            store.append(payload, cols).map_err(|e| (ErrorCode::Io, e.to_string()))?;
            state.events += cols.len() as u64;
            state.chunks += 1;
        }
        Ok(())
    }

    /// Blocks until every chunk enqueued **before this call** has been
    /// applied — the barrier before any live snapshot. Deliberately not
    /// "wait for an empty queue": under sustained ingest a saturated
    /// pipeline may never drain, and a query only needs the chunks its
    /// sender was acked, all of which were enqueued before the query
    /// frame was read.
    fn flush_applies(&self) {
        let mut progress = self.progress.lock().unwrap_or_else(|e| e.into_inner());
        let target = progress.enqueued;
        while progress.applied < target {
            progress = self.applied.wait(progress).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops the apply thread (drains the queue first) — finish, detach,
    /// and abort all funnel through here.
    fn stop_apply_thread(&self) {
        let (tx, thread) = {
            let mut state = self.state.lock();
            (state.apply_tx.take(), state.apply_thread.take())
        };
        drop(tx);
        if let Some(thread) = thread {
            let _ = thread.join();
        }
    }

    fn phase_locked(state: &SessionState) -> SessionPhase {
        if state.finished {
            SessionPhase::Finished
        } else if state.abort.is_some() {
            SessionPhase::Aborted
        } else if state.attached.is_some() {
            SessionPhase::Attached
        } else {
            SessionPhase::Detached
        }
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

/// Live-result cache key: `(session name, epoch, events observed, query
/// bytes)`. The epoch distinguishes incarnations of a reused name; the
/// event count uniquely identifies a chunk prefix (chunks apply in
/// order), so equal keys are answer-equal — including across a daemon
/// restart that replayed the same prefix.
type LiveKey = (String, u64, u64, Vec<u8>);

struct Daemon {
    config: CollectorConfig,
    sessions: Mutex<HashMap<String, Arc<Session>>>,
    /// Finished-target results keyed by `(dir, query bytes)`, validated
    /// by manifest checksum, LRU-evicted.
    cache: Mutex<LruCache<(String, Vec<u8>), CachedResult>>,
    /// Live-target results (see [`LiveKey`]), LRU-evicted.
    live_cache: Mutex<LruCache<LiveKey, String>>,
    next_session_id: AtomicU64,
    next_epoch: AtomicU64,
    next_conn_id: AtomicU64,
    shutdown: AtomicBool,
    /// Clones of live connection streams (either transport), keyed by
    /// connection id (handlers deregister themselves on exit); shut down
    /// to unblock handler threads at daemon shutdown, and by the idle
    /// reaper to evict an attached-but-silent client.
    conn_streams: Mutex<HashMap<u64, Stream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    /// The background compaction job queue (retention timer and test
    /// hooks push, the compaction worker thread drains).
    compaction: JobQueue,
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
    reaper_thread: Option<JoinHandle<()>>,
    compaction_thread: Option<JoinHandle<()>>,
    retention_thread: Option<JoinHandle<()>>,
    upgraded: Vec<(PathBuf, ManifestUpgrade)>,
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
    /// reusable. Directories without a record get the legacy one-shot
    /// [`upgrade_chunk_dir`] pass and are served read-only by name
    /// ([`Collector::upgraded_dirs`] reports what was rebuilt,
    /// [`Collector::recovered_sessions`] what was recovered).
    ///
    /// # Errors
    ///
    /// Filesystem or socket errors. Per-directory recovery failures are
    /// skipped, not fatal — a corrupt old session must not keep the
    /// daemon from starting.
    pub fn bind(config: CollectorConfig) -> Result<Collector, CollectorError> {
        fs::create_dir_all(&config.data_dir).map_err(TraceIoError::from)?;
        let mut upgraded = Vec::new();
        let mut recovered = Vec::new();
        let mut sessions = HashMap::new();
        let mut max_epoch = 0u64;
        let mut next_id = 1u64;
        if let Ok(entries) = fs::read_dir(&config.data_dir) {
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
                        max_epoch = max_epoch.max(record.epoch);
                        // Finish whatever tier transition a crash
                        // interrupted before anything queries the dir.
                        compact::reconcile_tiers(&path, record.tier);
                        if let Some(info) =
                            recover_session(&config, &path, &name, record, &mut next_id)
                        {
                            sessions.insert(name, info.0);
                            recovered.push(info.1);
                        }
                    }
                    None => {
                        // Legacy directory (pre-registry daemon, or a torn
                        // record): one-shot manifest upgrade, then serve
                        // read-only by name when the name is usable.
                        let has_chunks = list_chunk_files(&path).is_ok_and(|f| !f.is_empty());
                        if !has_chunks {
                            continue;
                        }
                        if let Ok(outcome) = upgrade_chunk_dir(&path) {
                            if outcome.rebuilt {
                                upgraded.push((path.clone(), outcome));
                            }
                        }
                        if valid_session_name(&name) {
                            let id = next_id;
                            next_id += 1;
                            sessions.insert(
                                name.clone(),
                                finished_session(&name, id, 0, &path, StorageTier::Raw),
                            );
                            recovered.push(RecoveredSession {
                                name,
                                phase: SessionPhase::Finished,
                                chunks: 0,
                                events: 0,
                                removed_chunks: 0,
                            });
                        }
                    }
                }
            }
        }
        if config.socket.exists() {
            fs::remove_file(&config.socket).map_err(TraceIoError::from)?;
        }
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
        let live_cache = LruCache::new(config.cache_capacity);
        let idle_timeout = config.idle_timeout;
        let retention = config.retention.clone().filter(|p| !p.is_empty());
        let daemon = Arc::new(Daemon {
            config,
            sessions: Mutex::new(sessions),
            cache: Mutex::new(cache),
            live_cache: Mutex::new(live_cache),
            next_session_id: AtomicU64::new(next_id),
            next_epoch: AtomicU64::new(max_epoch + 1),
            next_conn_id: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            conn_streams: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            compaction: JobQueue::default(),
        });
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
        let reaper_thread = idle_timeout.map(|timeout| {
            let reaper_daemon = daemon.clone();
            std::thread::spawn(move || {
                let tick =
                    (timeout / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
                while !reaper_daemon.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    reap_idle_sessions(&reaper_daemon, timeout);
                }
            })
        });
        // The compaction worker always runs (the queue is also fed by
        // the explicit `compact_session` hook); the retention timer only
        // when a non-empty policy is configured.
        let worker_daemon = daemon.clone();
        let compaction_thread = Some(std::thread::spawn(move || {
            while let Some(job) = worker_daemon.compaction.pop() {
                let _ = run_compaction_job(&worker_daemon, &job);
                worker_daemon.compaction.done(&job);
            }
        }));
        let retention_thread = retention.map(|policy| {
            let timer_daemon = daemon.clone();
            std::thread::spawn(move || {
                let min = policy.min_dwell().unwrap_or(Duration::from_secs(60));
                let tick = (min / 4).clamp(Duration::from_millis(10), Duration::from_millis(500));
                while !timer_daemon.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    retention_pass(&timer_daemon, &policy);
                }
            })
        });
        Ok(Collector {
            daemon,
            accept_thread: Some(accept_thread),
            tcp_accept_thread,
            tcp_addr,
            reaper_thread,
            compaction_thread,
            retention_thread,
            upgraded,
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

    /// Legacy session directories whose manifest the startup upgrade
    /// pass rebuilt.
    pub fn upgraded_dirs(&self) -> &[(PathBuf, ManifestUpgrade)] {
        &self.upgraded
    }

    /// Sessions the startup recovery scan re-registered from durable
    /// registry records (plus legacy directories served read-only).
    pub fn recovered_sessions(&self) -> &[RecoveredSession] {
        &self.recovered
    }

    /// Session names currently registered, with their finished flag.
    pub fn sessions(&self) -> Vec<(String, bool)> {
        self.daemon
            .sessions
            .lock()
            .values()
            .map(|s| (s.name.clone(), s.state.lock().finished))
            .collect()
    }

    /// The named session's current lifecycle phase, if it exists.
    pub fn session_phase(&self, name: &str) -> Option<SessionPhase> {
        let sessions = self.daemon.sessions.lock();
        let session = sessions.get(name)?;
        let state = session.state.lock();
        Some(Session::phase_locked(&state))
    }

    /// The storage tier the named session's durable data lives in, if
    /// the session exists.
    pub fn session_tier(&self, name: &str) -> Option<StorageTier> {
        let sessions = self.daemon.sessions.lock();
        let session = sessions.get(name)?;
        let state = session.state.lock();
        Some(state.tier)
    }

    /// Ages the named finished session one step down the storage ladder
    /// synchronously (raw → sorted, sorted → rollup) — the same job the
    /// background worker runs, exposed for tests and operators. Returns
    /// the tier the session is at afterwards.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Remote`] when the session does not exist, is
    /// not finished, or already sits at the rollup tier; transition
    /// failures surface with the worker's typed error (and leave the
    /// prior tier intact and queryable).
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
        let job = CompactionJob { name: name.to_string(), kind };
        run_compaction_job(&self.daemon, &job).map_err(remote)?;
        self.session_tier(name).ok_or_else(|| {
            remote((ErrorCode::UnknownTarget, format!("session {name:?} vanished mid-compaction")))
        })
    }

    /// Runs one retention evaluation now (what the timer does every
    /// tick): enqueues a compaction or prune job for every session past
    /// its dwell under `policy`. Use [`Collector::wait_compaction_idle`]
    /// to observe completion.
    pub fn run_retention_pass(&self, policy: &RetentionPolicy) {
        retention_pass(&self.daemon, policy);
    }

    /// Blocks until the compaction queue is empty and no job is
    /// running.
    pub fn wait_compaction_idle(&self) {
        self.daemon.compaction.wait_idle();
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
        for (_, stream) in self.daemon.conn_streams.lock().drain() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        let handles: Vec<_> = self.daemon.conn_threads.lock().drain(..).collect();
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(handle) = self.reaper_thread.take() {
            let _ = handle.join();
        }
        self.daemon.compaction.shutdown();
        if let Some(handle) = self.compaction_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.retention_thread.take() {
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

/// Builds a read-only finished session entry (used for recovered and
/// legacy directories).
fn finished_session(
    name: &str,
    id: u64,
    epoch: u64,
    dir: &Path,
    tier: StorageTier,
) -> Arc<Session> {
    Arc::new(Session {
        name: name.to_string(),
        id,
        epoch,
        dir: dir.to_path_buf(),
        state: Mutex::new(SessionState {
            store: None,
            apply_tx: None,
            apply_thread: None,
            apply_error: None,
            chunks: 0,
            events: 0,
            recv_seq: 0,
            finished: true,
            abort: None,
            attached: None,
            last_frame: Instant::now(),
            tier,
        }),
        live: Mutex::new(LiveState::new()),
        progress: std::sync::Mutex::new(ApplyProgress::default()),
        applied: std::sync::Condvar::new(),
    })
}

/// Recovers one registry-recorded session directory; returns the
/// registered session plus its report, or `None` when the directory is
/// beyond recovery (skipped, never fatal).
fn recover_session(
    config: &CollectorConfig,
    dir: &Path,
    name: &str,
    record: SessionRecord,
    next_id: &mut u64,
) -> Option<(Arc<Session>, RecoveredSession)> {
    let id = *next_id;
    *next_id += 1;
    match record.status {
        SessionStatus::Finished => {
            let session = finished_session(name, id, record.epoch, dir, record.tier);
            session.state.lock().chunks = record.acked_chunks;
            Some((
                session,
                RecoveredSession {
                    name: name.to_string(),
                    phase: SessionPhase::Finished,
                    chunks: record.acked_chunks,
                    events: 0,
                    removed_chunks: 0,
                },
            ))
        }
        SessionStatus::Aborted => {
            let session = finished_session(name, id, record.epoch, dir, record.tier);
            {
                let mut state = session.state.lock();
                state.finished = false;
                state.chunks = record.acked_chunks;
                state.abort = Some((
                    ErrorCode::SessionAborted,
                    format!("session {name:?} was aborted in a previous daemon run"),
                ));
            }
            Some((
                session,
                RecoveredSession {
                    name: name.to_string(),
                    phase: SessionPhase::Aborted,
                    chunks: record.acked_chunks,
                    events: 0,
                    removed_chunks: 0,
                },
            ))
        }
        SessionStatus::Active => {
            // Mid-stream at the crash: truncate any torn tail through the
            // full decode path, then rebuild the live sweeps by replaying
            // the surviving prefix — the same chunks, in the same order,
            // through the same `decode_columns` + `push_columns` calls
            // the pre-crash apply thread made.
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
            if let Some(err) = replay_error {
                // Decodable chunks the sweeps reject should be impossible
                // (they applied once already) — degrade to a typed abort,
                // keeping the directory queryable.
                let _ = SessionRecord {
                    epoch: record.epoch,
                    status: SessionStatus::Aborted,
                    acked_chunks: chunks,
                    tier: record.tier,
                }
                .write(dir);
                let session = finished_session(name, id, record.epoch, dir, record.tier);
                {
                    let mut state = session.state.lock();
                    state.finished = false;
                    state.chunks = chunks;
                    state.abort =
                        Some((ErrorCode::CorruptChunk, format!("recovery replay failed: {err}")));
                }
                return Some((
                    session,
                    RecoveredSession {
                        name: name.to_string(),
                        phase: SessionPhase::Aborted,
                        chunks,
                        events,
                        removed_chunks: prefix.removed.len(),
                    },
                ));
            }
            let removed_chunks = prefix.removed.len();
            let store = ChunkStore::resume(dir, prefix.entries, config);
            // Refresh the record's informational watermark post-truncation.
            let _ = SessionRecord {
                epoch: record.epoch,
                status: SessionStatus::Active,
                acked_chunks: chunks,
                tier: record.tier,
            }
            .write(dir);
            let session = Arc::new(Session {
                name: name.to_string(),
                id,
                epoch: record.epoch,
                dir: dir.to_path_buf(),
                state: Mutex::new(SessionState {
                    store: Some(store),
                    apply_tx: None,
                    apply_thread: None,
                    apply_error: None,
                    chunks,
                    events,
                    recv_seq: chunks,
                    finished: false,
                    abort: None,
                    attached: None,
                    last_frame: Instant::now(),
                    tier: record.tier,
                }),
                live: Mutex::new(live),
                progress: std::sync::Mutex::new(ApplyProgress::default()),
                applied: std::sync::Condvar::new(),
            });
            Some((
                session,
                RecoveredSession {
                    name: name.to_string(),
                    phase: SessionPhase::Detached,
                    chunks,
                    events,
                    removed_chunks,
                },
            ))
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
        daemon.conn_streams.lock().insert(conn_id, clone);
    }
    let conn_daemon = daemon.clone();
    let handle = std::thread::spawn(move || {
        handle_connection(&conn_daemon, stream, conn_id);
        conn_daemon.conn_streams.lock().remove(&conn_id);
    });
    let mut threads = daemon.conn_threads.lock();
    threads.retain(|h| !h.is_finished());
    threads.push(handle);
}

/// The write half of a connection, shared between the connection thread
/// and the session's apply thread (which writes durable `CHUNK_ACK`s):
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

/// How a connection handler left its loop, which decides the fate of an
/// attached session: a clean exit **detaches** (resumable), an error
/// **aborts** (typed, name reusable).
enum ConnExit {
    Detach,
    Abort(ConnError),
}

fn handle_connection(daemon: &Daemon, mut stream: Stream, conn_id: u64) {
    let Ok(write_half) = stream.try_clone() else { return };
    let writer: SharedWriter = Arc::new(Mutex::new(write_half));
    let mut session: Option<Arc<Session>> = None;
    let exit = loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            // Clean EOF at a frame boundary: the client closed (or the
            // daemon is shutting down) with nothing half-sent.
            Ok(None) => break ConnExit::Detach,
            Err(e) => {
                if daemon.shutdown.load(Ordering::SeqCst) {
                    break ConnExit::Detach;
                }
                let error = (ErrorCode::Protocol, e.to_string());
                send_error(&writer, error.0, &error.1);
                break ConnExit::Abort(error);
            }
        };
        if let Some(session) = &session {
            session.state.lock().last_frame = Instant::now();
        }
        let outcome: Result<(), ConnError> = match frame.0 {
            kind::HELLO => handle_hello(daemon, &writer, &mut session, conn_id, &frame.1),
            kind::CHUNK => handle_chunk(&writer, session.as_deref(), frame.1),
            kind::FINISH => {
                let result = handle_finish(&writer, session.as_deref());
                if result.is_ok() {
                    session = None; // clean finish: nothing left to detach
                }
                result
            }
            kind::QUERY => handle_query(daemon, &writer, &frame.1),
            kind::LIST_SESSIONS => handle_list_sessions(daemon, &writer),
            kind::QUERY_ALL => handle_query_all(daemon, &writer, &frame.1),
            other => Err((ErrorCode::Protocol, format!("unexpected frame kind {other:#04x}"))),
        };
        if let Err(error) = outcome {
            send_error(&writer, error.0, &error.1);
            break ConnExit::Abort(error);
        }
    };
    if let Some(session) = session {
        match exit {
            ConnExit::Detach => detach_session(&session),
            ConnExit::Abort(error) => abort_session(&session, error),
        }
    }
}

/// Clean connection exit with an open session: keep everything — live
/// sweeps, chunk store, epoch — and mark the session detached so a
/// client holding the epoch can resume exactly where the acks stopped.
/// A latched failure (apply error, or the reaper's idle abort) takes
/// precedence and finalizes the abort instead.
fn detach_session(session: &Session) {
    session.stop_apply_thread();
    let mut state = session.state.lock();
    if state.finished {
        return;
    }
    if let Some(error) = state.apply_error.take() {
        finalize_abort(session, &mut state, error);
        return;
    }
    if let Some(error) = state.abort.clone() {
        finalize_abort(session, &mut state, error);
        return;
    }
    state.attached = None;
    // Queue drained ⇒ the wire watermark equals the durable count.
    state.recv_seq = state.chunks;
    let _ = SessionRecord {
        epoch: session.epoch,
        status: SessionStatus::Active,
        acked_chunks: state.chunks,
        tier: StorageTier::Raw,
    }
    .write(&session.dir);
}

fn abort_session(session: &Session, error: ConnError) {
    session.stop_apply_thread();
    let mut state = session.state.lock();
    let error = state.apply_error.take().or_else(|| state.abort.clone()).unwrap_or(error);
    finalize_abort(session, &mut state, error);
}

/// Finalizes an abort: latch the typed reason, write a best-effort
/// manifest so the durable prefix stays analyzable without a scan,
/// record `Aborted` durably (name reusable after restart), and free the
/// live sweep memory. Caller must have stopped the apply thread and
/// hold the state lock.
fn finalize_abort(session: &Session, state: &mut SessionState, error: ConnError) {
    if state.finished {
        return;
    }
    if state.abort.is_none() {
        state.abort = Some(error);
    }
    state.attached = None;
    if let Some(mut store) = state.store.take() {
        let _ = store.finish();
    }
    let _ = SessionRecord {
        epoch: session.epoch,
        status: SessionStatus::Aborted,
        acked_chunks: state.chunks,
        tier: StorageTier::Raw,
    }
    .write(&session.dir);
    *session.live.lock() = LiveState::new();
}

/// The idle reaper's periodic pass: abort every non-finished session
/// whose last frame is older than `timeout`. Detached sessions finalize
/// inline (their apply thread is already stopped); attached sessions
/// get the abort latched and their connection shut down — the handler
/// thread finalizes on its way out, keeping a single finalization path
/// per attachment.
fn reap_idle_sessions(daemon: &Daemon, timeout: Duration) {
    let sessions: Vec<Arc<Session>> = daemon.sessions.lock().values().cloned().collect();
    for session in sessions {
        let mut state = session.state.lock();
        if state.finished || state.abort.is_some() {
            continue;
        }
        if state.last_frame.elapsed() < timeout {
            continue;
        }
        {
            // An apply queue still draining means frames arrived recently
            // in wall-clock terms even if `last_frame` says otherwise —
            // never reap mid-apply.
            let progress = session.progress.lock().unwrap_or_else(|e| e.into_inner());
            if progress.applied < progress.enqueued {
                continue;
            }
        }
        let error = (
            ErrorCode::IdleTimeout,
            format!("session {:?} idle past the {timeout:?} idle timeout", session.name),
        );
        match state.attached {
            Some(conn_id) => {
                state.abort = Some(error.clone());
                drop(state);
                let stream =
                    daemon.conn_streams.lock().get(&conn_id).and_then(|s| s.try_clone().ok());
                if let Some(mut stream) = stream {
                    // Best-effort typed notice; the connection is idle, so
                    // no competing writer is mid-frame.
                    let _ = write_frame(&mut stream, kind::ERROR, &encode_error(error.0, &error.1));
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                }
            }
            None => finalize_abort(&session, &mut state, error),
        }
    }
}

/// Runs one compaction job end to end: re-check eligibility under the
/// state lock (jobs can go stale — the session may have been resumed,
/// aborted, or already transitioned), do the slow tier build with **no
/// locks held** (finished sessions are immutable, so the raw files
/// cannot change underneath the build), then record the new tier
/// durably and in memory before deleting the prior tier's files.
fn run_compaction_job(daemon: &Daemon, job: &CompactionJob) -> Result<(), ConnError> {
    let session = daemon
        .sessions
        .lock()
        .get(&job.name)
        .cloned()
        .ok_or((ErrorCode::UnknownTarget, format!("no session {:?}", job.name)))?;
    // Eligibility snapshot. Finished sessions compact; only finalized
    // sessions (finished, or abort-finalized) prune.
    {
        let state = session.state.lock();
        let finalized = state.finished || (state.abort.is_some() && state.store.is_none());
        let eligible = match job.kind {
            JobKind::Sort => state.finished && state.tier == StorageTier::Raw,
            JobKind::Rollup => state.finished && state.tier == StorageTier::Sorted,
            JobKind::Prune => finalized,
        };
        if !eligible {
            // Stale job — not an error, just nothing to do anymore.
            return Ok(());
        }
    }
    #[cfg(feature = "fault-inject")]
    if let Some(plan) = &daemon.config.faults {
        if plan.compaction_fails() && job.kind != JobKind::Prune {
            // Simulate a mid-build failure honestly: leave a partial
            // temp dir behind, exactly what a real ENOSPC or crash
            // mid-build leaves. The next (un-faulted) run wipes it.
            let tmp = session.dir.join(compact::TIER_TMP);
            let _ = fs::create_dir_all(&tmp);
            let _ = fs::write(tmp.join("partial.rls"), b"torn tier build");
            return Err((
                ErrorCode::Io,
                "injected ENOSPC (fault plan) during compaction".to_string(),
            ));
        }
    }
    match job.kind {
        JobKind::Sort => {
            compact::sort_tier(&session.dir).map_err(io_err)?;
            advance_tier(&session, StorageTier::Sorted)?;
            compact::drop_raw_files(&session.dir);
        }
        JobKind::Rollup => {
            compact::rollup_tier(&session.dir, daemon.config.rollup_segment_ns.max(1))
                .map_err(io_err)?;
            advance_tier(&session, StorageTier::Rollup)?;
            compact::drop_sorted_dir(&session.dir);
        }
        JobKind::Prune => {
            daemon.sessions.lock().remove(&job.name);
            let _ = fs::remove_dir_all(&session.dir);
        }
    }
    Ok(())
}

/// Step 3 of the transition protocol: records `tier` durably in the
/// session registry, then mirrors it into the in-memory state. On a
/// failed record write the freshly published tier directory is removed
/// again, so disk and record never disagree in this process's lifetime
/// (a crash between publish and record is reconciled at next startup).
fn advance_tier(session: &Session, tier: StorageTier) -> Result<(), ConnError> {
    let mut state = session.state.lock();
    let record = SessionRecord {
        epoch: session.epoch,
        status: SessionStatus::Finished,
        acked_chunks: state.chunks,
        tier,
    };
    if let Err(e) = record.write(&session.dir) {
        drop(state);
        if let Some(sub) = tier.subdir() {
            let _ = fs::remove_dir_all(session.dir.join(sub));
        }
        return Err(io_err(e));
    }
    state.tier = tier;
    Ok(())
}

/// How long the session has dwelled at its current tier: the age of its
/// `SESSION` record, which is rewritten at every durable transition.
fn session_dwell(dir: &Path) -> Option<Duration> {
    let meta = fs::metadata(dir.join(crate::registry::SESSION_FILE)).ok()?;
    meta.modified().ok()?.elapsed().ok()
}

/// One retention evaluation: enqueue the due tier transition (or prune)
/// for every finalized session past its dwell. Streaming and detached
/// sessions are never touched; aborted sessions age straight from raw
/// to pruned after the `raw` dwell (their partial data is not worth a
/// rewrite, but deserves the same grace period).
fn retention_pass(daemon: &Daemon, policy: &RetentionPolicy) {
    let sessions: Vec<Arc<Session>> = daemon.sessions.lock().values().cloned().collect();
    for session in sessions {
        let (finished, aborted, tier) = {
            let state = session.state.lock();
            let aborted = state.abort.is_some() && state.store.is_none();
            (state.finished, aborted, state.tier)
        };
        if !finished && !aborted {
            continue;
        }
        let Some(dwell) = session_dwell(&session.dir) else { continue };
        let kind = if aborted {
            policy.raw.filter(|d| dwell >= *d).map(|_| JobKind::Prune)
        } else {
            match tier {
                StorageTier::Raw => policy.raw.filter(|d| dwell >= *d).map(|_| JobKind::Sort),
                StorageTier::Sorted => {
                    policy.sorted.filter(|d| dwell >= *d).map(|_| JobKind::Rollup)
                }
                StorageTier::Rollup => {
                    policy.rollup.filter(|d| dwell >= *d).map(|_| JobKind::Prune)
                }
            }
        };
        if let Some(kind) = kind {
            daemon.compaction.push(CompactionJob { name: session.name.clone(), kind });
        }
    }
}

fn valid_session_name(name: &str) -> bool {
    (1..=64).contains(&name.len())
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
        && !name.bytes().all(|b| b == b'.')
}

/// Spawns the session's decode→apply pipeline stage. The apply thread
/// owns the durable side of the ack contract: it persists each chunk,
/// **then** writes its `CHUNK_ACK` through the shared writer; on
/// failure it reports the typed error itself (the client may be blocked
/// waiting on acks, so the connection thread cannot be relied on to
/// deliver it) and drains the remaining queue without applying.
fn start_apply_pipeline(session: &Arc<Session>, state: &mut SessionState, writer: &SharedWriter) {
    let (apply_tx, apply_rx) = crossbeam::channel::bounded::<ApplyItem>(APPLY_QUEUE_CHUNKS);
    let apply_session = session.clone();
    let writer = writer.clone();
    let apply_thread = std::thread::spawn(move || {
        while let Some((seq, payload, cols)) = apply_rx.recv() {
            let poisoned = apply_session.state.lock().apply_error.is_some();
            if !poisoned {
                match apply_session.apply_chunk(&payload, &cols) {
                    Ok(()) => {
                        let _ = send_chunk_ack(&writer, seq, cols.len() as u32);
                    }
                    Err(error) => {
                        send_error(&writer, error.0, &error.1);
                        let mut state = apply_session.state.lock();
                        if state.apply_error.is_none() {
                            state.apply_error = Some(error);
                        }
                    }
                }
            }
            let mut progress = apply_session.progress.lock().unwrap_or_else(|e| e.into_inner());
            progress.applied += 1;
            apply_session.applied.notify_all();
        }
    });
    state.apply_tx = Some(apply_tx);
    state.apply_thread = Some(apply_thread);
}

fn pipelined(daemon: &Daemon) -> bool {
    // Decode→apply pipelining only pays when there is a core to run the
    // apply stage on; on a single-CPU host the extra thread is pure
    // context-switch overhead, so chunks apply inline on the connection
    // thread (same `apply_chunk` code path either way).
    daemon
        .config
        .apply_pipeline
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1) > 1)
}

fn handle_hello(
    daemon: &Daemon,
    writer: &SharedWriter,
    session: &mut Option<Arc<Session>>,
    conn_id: u64,
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
    match hello.resume_epoch {
        None => handle_hello_new(daemon, writer, session, conn_id, &hello.name),
        Some(epoch) => handle_hello_resume(daemon, writer, session, conn_id, &hello.name, epoch),
    }
}

fn handle_hello_new(
    daemon: &Daemon,
    writer: &SharedWriter,
    session: &mut Option<Arc<Session>>,
    conn_id: u64,
    name: &str,
) -> Result<(), ConnError> {
    let dir = daemon.config.data_dir.join(name);
    let mut sessions = daemon.sessions.lock();
    if let Some(existing) = sessions.get(name) {
        let state = existing.state.lock();
        match Session::phase_locked(&state) {
            SessionPhase::Finished => {
                return Err((
                    ErrorCode::SessionExists,
                    format!("session {name:?} is finished (durable data; pick a fresh name)"),
                ));
            }
            SessionPhase::Attached => {
                return Err((
                    ErrorCode::SessionActive,
                    format!("session {name:?} is currently streaming"),
                ));
            }
            SessionPhase::Detached => {
                return Err((
                    ErrorCode::SessionActive,
                    format!("session {name:?} is detached awaiting resume"),
                ));
            }
            // Aborted: the name is explicitly reusable — fall through and
            // replace the entry (the old directory is wiped below).
            SessionPhase::Aborted => {}
        }
    } else {
        // Not in the registry map: a directory holding chunks (a
        // manifest, or a compacted tier) is durable data from an earlier
        // run that recovery did not claim — refuse rather than silently
        // wipe it.
        let prior_data = dir.is_dir()
            && (dir.join(MANIFEST_FILE).exists()
                || dir.join("sorted").is_dir()
                || dir.join("rollup").is_dir()
                || list_chunk_files(&dir).is_ok_and(|files| !files.is_empty()));
        if prior_data {
            return Err((
                ErrorCode::SessionExists,
                format!("session {name:?} has durable data from a previous daemon run"),
            ));
        }
    }
    let store =
        ChunkStore::create(&dir, &daemon.config).map_err(|e| (ErrorCode::Io, e.to_string()))?;
    let epoch = daemon.next_epoch.fetch_add(1, Ordering::SeqCst);
    let record = SessionRecord {
        epoch,
        status: SessionStatus::Active,
        acked_chunks: 0,
        tier: StorageTier::Raw,
    };
    record.write(&dir).map_err(|e| (ErrorCode::Io, e.to_string()))?;
    let id = daemon.next_session_id.fetch_add(1, Ordering::SeqCst);
    let new = Arc::new(Session {
        name: name.to_string(),
        id,
        epoch,
        dir,
        state: Mutex::new(SessionState {
            store: Some(store),
            apply_tx: None,
            apply_thread: None,
            apply_error: None,
            chunks: 0,
            events: 0,
            recv_seq: 0,
            finished: false,
            abort: None,
            tier: StorageTier::Raw,
            attached: Some(conn_id),
            last_frame: Instant::now(),
        }),
        live: Mutex::new(LiveState::new()),
        progress: std::sync::Mutex::new(ApplyProgress::default()),
        applied: std::sync::Condvar::new(),
    });
    if pipelined(daemon) {
        let mut state = new.state.lock();
        start_apply_pipeline(&new, &mut state, writer);
    }
    sessions.insert(name.to_string(), new.clone());
    drop(sessions);
    *session = Some(new);
    let ack =
        HelloAck { session_id: id, credits: daemon.config.credits.max(1), epoch, acked_chunks: 0 };
    write_frame(&mut *writer.lock(), kind::HELLO_ACK, &ack.encode()).map_err(io_err)?;
    Ok(())
}

fn handle_hello_resume(
    daemon: &Daemon,
    writer: &SharedWriter,
    session: &mut Option<Arc<Session>>,
    conn_id: u64,
    name: &str,
    epoch: u64,
) -> Result<(), ConnError> {
    let existing = daemon
        .sessions
        .lock()
        .get(name)
        .cloned()
        .ok_or((ErrorCode::UnknownTarget, format!("no session {name:?} to resume")))?;
    let acked = {
        let mut state = existing.state.lock();
        if state.finished {
            // The finish committed before the client lost the connection:
            // the typed answer a retrying `finish` treats as success.
            return Err((ErrorCode::SessionExists, format!("session {name:?} already finished")));
        }
        if let Some((_, message)) = &state.abort {
            return Err((ErrorCode::SessionAborted, message.clone()));
        }
        if existing.epoch != epoch {
            return Err((
                ErrorCode::EpochMismatch,
                format!(
                    "session {name:?} is at epoch {} (resume asked for {epoch})",
                    existing.epoch
                ),
            ));
        }
        if state.attached.is_some() {
            return Err((
                ErrorCode::SessionActive,
                format!("session {name:?} is already attached to a connection"),
            ));
        }
        state.attached = Some(conn_id);
        state.last_frame = Instant::now();
        // Detached invariant: queue drained at detach, so the durable
        // count is the wire watermark the client replays from.
        state.recv_seq = state.chunks;
        if pipelined(daemon) && state.apply_thread.is_none() {
            start_apply_pipeline(&existing, &mut state, writer);
        }
        state.chunks
    };
    *session = Some(existing.clone());
    let ack = HelloAck {
        session_id: existing.id,
        credits: daemon.config.credits.max(1),
        epoch,
        acked_chunks: acked,
    };
    write_frame(&mut *writer.lock(), kind::HELLO_ACK, &ack.encode()).map_err(io_err)?;
    Ok(())
}

fn handle_chunk(
    writer: &SharedWriter,
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
    let apply_tx = {
        let mut state = session.state.lock();
        if let Some(err) = &state.apply_error {
            return Err(err.clone());
        }
        if let Some((code, message)) = &state.abort {
            return Err((*code, message.clone()));
        }
        if state.apply_tx.is_none() && state.store.is_none() {
            return Err((ErrorCode::Protocol, "CHUNK after FINISH".into()));
        }
        if seq < state.recv_seq {
            // Replay overlap after a reconnect race: the chunk is already
            // durable — ack without re-applying (exactly-once).
            drop(state);
            return send_chunk_ack(writer, seq, 0).map_err(io_err);
        }
        if seq > state.recv_seq {
            return Err((
                ErrorCode::Protocol,
                format!("chunk sequence gap: got {seq}, expected {}", state.recv_seq),
            ));
        }
        state.recv_seq += 1;
        state.apply_tx.clone()
    };
    match apply_tx {
        Some(apply_tx) => {
            // Count the chunk as enqueued before sending, so the flush
            // barrier can never observe a sent-but-uncounted chunk; the
            // bounded send then blocks (backpressure) when the apply
            // stage lags. The ack is the apply thread's to write, after
            // the persist.
            session.progress.lock().unwrap_or_else(|e| e.into_inner()).enqueued += 1;
            if apply_tx.send((seq, payload, cols)).is_err() {
                // The chunk will never apply; count it resolved so
                // barriers taken against the bumped `enqueued` cannot
                // wait forever.
                let mut progress = session.progress.lock().unwrap_or_else(|e| e.into_inner());
                progress.applied += 1;
                session.applied.notify_all();
                return Err((ErrorCode::Io, "session apply stage is gone".into()));
            }
        }
        // Single-core inline mode: apply synchronously, ack after.
        None => {
            let accepted = cols.len() as u32;
            session.apply_chunk(&payload, &cols)?;
            send_chunk_ack(writer, seq, accepted).map_err(io_err)?;
        }
    }
    Ok(())
}

fn handle_finish(writer: &SharedWriter, session: Option<&Session>) -> Result<(), ConnError> {
    let session = session.ok_or((ErrorCode::Protocol, "FINISH before HELLO".to_string()))?;
    // Drain and stop the apply stage first, so every accepted chunk has
    // reached the writer (and been acked) before the manifest is cut.
    session.stop_apply_thread();
    let (chunks, events) = {
        let mut state = session.state.lock();
        if let Some(err) = state.apply_error.take() {
            // The connection loop aborts the session with this error on
            // its way out.
            return Err(err);
        }
        if let Some((code, message)) = &state.abort {
            return Err((*code, message.clone()));
        }
        let mut store =
            state.store.take().ok_or((ErrorCode::Protocol, "second FINISH".to_string()))?;
        store.finish().map_err(|e| (ErrorCode::Io, e.to_string()))?;
        state.finished = true;
        state.attached = None;
        let record = SessionRecord {
            epoch: session.epoch,
            status: SessionStatus::Finished,
            acked_chunks: state.chunks,
            tier: StorageTier::Raw,
        };
        let _ = record.write(&session.dir);
        (state.chunks, state.events)
    };
    // Finished queries route to the chunk directory (full query
    // surface, manifest pushdown, result cache) — release the live
    // sweep memory.
    *session.live.lock() = LiveState::new();
    let mut ack = chunks.to_be_bytes().to_vec();
    ack.extend_from_slice(&events.to_be_bytes());
    write_frame(&mut *writer.lock(), kind::FINISH_ACK, &ack).map_err(io_err)?;
    Ok(())
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
            let session = daemon
                .sessions
                .lock()
                .get(name)
                .cloned()
                .ok_or((ErrorCode::UnknownTarget, format!("no session {name:?}")))?;
            // Flush barrier: wait until everything enqueued before the
            // query is applied, so the snapshot covers every chunk
            // acked to any producer so far.
            session.flush_applies();
            let live_snapshot = {
                // State first, live nested — the one sanctioned nesting
                // (see the Session lock-order note): checking the phase
                // and snapshotting must be atomic against a concurrent
                // finish or abort resetting the live state.
                let state = session.state.lock();
                if let Some(err) = &state.apply_error {
                    return Err(err.clone());
                }
                if state.finished {
                    None
                } else if let Some((code, message)) = &state.abort {
                    if state.store.is_none() {
                        // Finalized abort: the directory holds exactly the
                        // durable acked prefix — queryable as such.
                        None
                    } else {
                        // Abort latched but not yet finalized: refusing is
                        // the "never a query over a non-acked prefix"
                        // guarantee.
                        return Err((*code, message.clone()));
                    }
                } else {
                    let live = session.live.lock();
                    let events_observed = live.events_observed();
                    let key = (session.name.clone(), session.epoch, events_observed, spec.encode());
                    if let Some(json) = daemon.live_cache.lock().get(&key) {
                        return Ok(QueryReply {
                            live: true,
                            cache_hit: true,
                            events_observed,
                            canonical_json: json,
                        });
                    }
                    Some((events_observed, key, live.snapshot()))
                }
            };
            match live_snapshot {
                Some((events_observed, key, tables)) => {
                    let analysis = apply_spec(Analysis::of_live(&tables), spec);
                    let json = analysis.canonical_json().map_err(analysis_err)?;
                    daemon.live_cache.lock().insert(key, json.clone());
                    Ok(QueryReply {
                        live: true,
                        cache_hit: false,
                        events_observed,
                        canonical_json: json,
                    })
                }
                None => tiered_query(daemon, &session, spec),
            }
        }
        QueryTarget::Dir(path) => {
            let dir = PathBuf::from(path);
            if !dir.is_dir() {
                return Err((ErrorCode::UnknownTarget, format!("no chunk directory {path:?}")));
            }
            dir_query(daemon, &dir, spec)
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
    let mut sessions: Vec<Arc<Session>> = daemon.sessions.lock().values().cloned().collect();
    sessions.sort_by(|a, b| a.name.cmp(&b.name));
    let mut out = Vec::with_capacity(sessions.len());
    for session in sessions {
        let state = session.state.lock();
        let live = !state.finished && state.abort.is_none();
        // Events ingested this daemon run; a finished directory recovered
        // from disk reports its manifest-counted total at query time, not
        // here — the listing stays O(sessions).
        let events = if live {
            drop(state);
            session.flush_applies();
            session.live.lock().events_observed()
        } else {
            state.events
        };
        out.push(SessionInfo { name: session.name.clone(), live, events });
    }
    let reply = SessionList { sessions: out };
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

/// What one session contributes to a cross-session query: its finished
/// (or abort-finalized) directory at whichever tier it lives, or an
/// owned live snapshot.
enum SessionSnapshot {
    Dir(PathBuf),
    Rollup(PathBuf),
    Live(LiveTables),
}

/// The snapshot a finalized session contributes, per its storage tier.
fn tier_snapshot(session: &Session, tier: StorageTier) -> SessionSnapshot {
    match tier {
        StorageTier::Raw => SessionSnapshot::Dir(session.dir.clone()),
        StorageTier::Sorted => {
            SessionSnapshot::Dir(session.dir.join(tier.subdir().unwrap_or_default()))
        }
        StorageTier::Rollup => {
            SessionSnapshot::Rollup(session.dir.join(tier.subdir().unwrap_or_default()))
        }
    }
}

/// Runs one query across every session the daemon holds, composed
/// through [`Analysis::of_sessions`]. Live sessions contribute a
/// consistent acked-prefix snapshot (same flush barrier and lock
/// discipline as a single-session query); finished and abort-finalized
/// sessions contribute their chunk directories. Results are not cached:
/// the answer covers every live prefix at once, so any ingest anywhere
/// invalidates it.
fn run_query_all(daemon: &Daemon, spec: &QuerySpec) -> Result<QueryAllReply, ConnError> {
    if spec.target != QueryTarget::AllSessions {
        return Err((ErrorCode::Protocol, "QUERY_ALL frames take the all-sessions target".into()));
    }
    let mut sessions: Vec<Arc<Session>> = daemon.sessions.lock().values().cloned().collect();
    sessions.sort_by(|a, b| a.name.cmp(&b.name));
    let mut any_live = false;
    let mut events_observed = 0u64;
    let mut names = Vec::with_capacity(sessions.len());
    let mut snapshots: Vec<(Arc<str>, SessionSnapshot)> = Vec::with_capacity(sessions.len());
    for session in &sessions {
        session.flush_applies();
        let snapshot = {
            let state = session.state.lock();
            if let Some(err) = &state.apply_error {
                return Err(err.clone());
            }
            if state.finished {
                tier_snapshot(session, state.tier)
            } else if let Some((code, message)) = &state.abort {
                if state.store.is_none() {
                    // Finalized abort: the directory holds exactly the
                    // durable acked prefix.
                    SessionSnapshot::Dir(session.dir.clone())
                } else {
                    // In-limbo abort poisons the rollup, same as it
                    // refuses a single-session query.
                    return Err((*code, format!("session {:?}: {message}", session.name)));
                }
            } else {
                let live = session.live.lock();
                events_observed += live.events_observed();
                any_live = true;
                SessionSnapshot::Live(live.snapshot())
            }
        };
        match &snapshot {
            SessionSnapshot::Dir(dir) => {
                let manifest = Manifest::open(dir).map_err(|e| (ErrorCode::Io, e.to_string()))?;
                events_observed += manifest.total_events();
            }
            SessionSnapshot::Rollup(dir) => {
                let rollup = Rollup::open(dir).map_err(|e| (ErrorCode::Io, e.to_string()))?;
                events_observed += rollup.total_events();
            }
            SessionSnapshot::Live(_) => {}
        }
        names.push(session.name.clone());
        snapshots.push((Arc::from(session.name.as_str()), snapshot));
    }
    let sources: Vec<(Arc<str>, SessionSource<'_>)> = snapshots
        .iter()
        .map(|(name, snapshot)| {
            let source = match snapshot {
                SessionSnapshot::Dir(dir) => SessionSource::ChunkDir(dir.clone()),
                SessionSnapshot::Rollup(dir) => SessionSource::RollupDir(dir.clone()),
                SessionSnapshot::Live(tables) => SessionSource::Live(tables),
            };
            (name.clone(), source)
        })
        .collect();
    let analysis = apply_spec(Analysis::of_sessions(sources), spec);
    let groups = analysis.tables().map_err(analysis_err)?;
    Ok(QueryAllReply { live: any_live, events_observed, sessions: names, groups })
}

/// Routes a finalized session's query to its current storage tier.
/// The tier is read under the state lock but the query runs without
/// it, so a concurrent tier transition can delete the files mid-read;
/// in that case the failed read is retried at the session's new tier
/// (the tier only moves forward, so this terminates).
fn tiered_query(
    daemon: &Daemon,
    session: &Session,
    spec: &QuerySpec,
) -> Result<QueryReply, ConnError> {
    let mut tier = session.state.lock().tier;
    loop {
        let dir = match tier.subdir() {
            None => session.dir.clone(),
            Some(sub) => session.dir.join(sub),
        };
        let result = match tier {
            StorageTier::Raw | StorageTier::Sorted => dir_query(daemon, &dir, spec),
            StorageTier::Rollup => rollup_query(daemon, &dir, spec),
        };
        match result {
            Err((ErrorCode::Io, _)) => {
                let now = session.state.lock().tier;
                if now > tier {
                    tier = now;
                    continue;
                }
                return result;
            }
            other => return other,
        }
    }
}

/// Rollup-tier query: answers from the pre-aggregated segment
/// summaries via [`Analysis::from_rollup_dir`] — no raw events are
/// decoded — fronted by the same checksum-keyed result cache as
/// directory queries (the rollup index checksum plays the manifest
/// checksum's role). Queries needing raw resolution come back as
/// typed [`ErrorCode::UnsupportedQuery`] straight from the analysis
/// layer.
fn rollup_query(daemon: &Daemon, dir: &Path, spec: &QuerySpec) -> Result<QueryReply, ConnError> {
    let rollup = Rollup::open(dir).map_err(|e| (ErrorCode::Io, e.to_string()))?;
    let checksum = rollup.checksum();
    let events = rollup.total_events();
    let key = (dir.to_string_lossy().into_owned(), spec.encode());
    if let Some(cached) = daemon.cache.lock().get(&key) {
        if cached.checksum == checksum {
            return Ok(QueryReply {
                live: false,
                cache_hit: true,
                events_observed: cached.events,
                canonical_json: cached.json,
            });
        }
    }
    let analysis = apply_spec(Analysis::from_rollup_dir(dir), spec);
    let json = analysis.canonical_json().map_err(analysis_err)?;
    daemon.cache.lock().insert(key, CachedResult { checksum, events, json: json.clone() });
    Ok(QueryReply { live: false, cache_hit: false, events_observed: events, canonical_json: json })
}

/// Finished-directory query: manifest pushdown via
/// [`Analysis::from_chunk_dir`], fronted by the checksum-keyed cache.
fn dir_query(daemon: &Daemon, dir: &Path, spec: &QuerySpec) -> Result<QueryReply, ConnError> {
    let manifest = Manifest::open(dir).map_err(|e| (ErrorCode::Io, e.to_string()))?;
    let checksum = manifest.checksum();
    let key = (dir.to_string_lossy().into_owned(), spec.encode());
    if let Some(cached) = daemon.cache.lock().get(&key) {
        if cached.checksum == checksum {
            return Ok(QueryReply {
                live: false,
                cache_hit: true,
                events_observed: cached.events,
                canonical_json: cached.json,
            });
        }
    }
    let analysis = apply_spec(Analysis::from_chunk_dir(dir), spec);
    let json = analysis.canonical_json().map_err(analysis_err)?;
    let events = manifest.total_events();
    daemon.cache.lock().insert(key, CachedResult { checksum, events, json: json.clone() });
    Ok(QueryReply { live: false, cache_hit: false, events_observed: events, canonical_json: json })
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
