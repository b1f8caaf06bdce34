//! Protocol messages layered over the [`rlscope_core::store`] wire
//! framing: frame kinds, handshake payloads, the query spec codec, and
//! the error taxonomy. See the [crate docs](crate) for the full spec
//! table.

use rlscope_core::analysis::{Dim, GroupKey};
use rlscope_core::event::CpuCategory;
use rlscope_core::overlap::{BreakdownTable, BucketKey};
use rlscope_core::store::TraceIoError;
use rlscope_sim::ids::ProcessId;
use rlscope_sim::time::DurationNs;
use std::fmt;
use std::sync::Arc;

/// Protocol version carried in `HELLO`; the server rejects others.
///
/// Version 2 added the resume handshake (`HELLO` mode byte + epoch),
/// sequence-numbered `CHUNK`/`CHUNK_ACK` frames, and the extended
/// `HELLO_ACK` carrying the session epoch and acked-chunk watermark.
pub const PROTOCOL_VERSION: u32 = 2;

/// Declares a `#[repr(u8)]` wire enum and its `from_u8` decoder from one
/// variant list. The decoder then cannot miss a variant, and two
/// variants on one code fail to compile (E0081).
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $($(#[$vmeta:meta])* $variant:ident = $code:literal,)+
        }
    ) => {
        $(#[$meta])*
        #[repr(u8)]
        pub enum $name {
            $($(#[$vmeta])* $variant = $code,)+
        }

        impl $name {
            /// The variant for a wire byte, if known.
            pub fn from_u8(v: u8) -> Option<$name> {
                match v {
                    $($code => Some($name::$variant),)+
                    _ => None,
                }
            }
        }
    };
}

wire_enum! {
    /// Frame kinds (the `kind` byte of the wire framing). The daemon
    /// dispatches on every variant, so a new kind does not compile until
    /// the daemon handles it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FrameKind {
        /// Client → server: open or resume a profiling session
        /// ([`HelloRequest`]).
        Hello = 0x01,
        /// Client → server: `seq:u64` followed by one codec-v3 chunk of
        /// events.
        Chunk = 0x02,
        /// Client → server: close the session durably.
        Finish = 0x03,
        /// Client → server: an analysis query ([`QuerySpec`]).
        Query = 0x04,
        /// Client → server: enumerate the daemon's sessions (empty payload).
        ListSessions = 0x05,
        /// Client → server: a cross-session query ([`QuerySpec`] with
        /// [`QueryTarget::AllSessions`]) answered over every session the
        /// daemon holds.
        QueryAll = 0x06,
        /// Server → client: session accepted ([`HelloAck`]).
        HelloAck = 0x81,
        /// Server → client: chunk `seq` is applied **and durable**;
        /// returns one credit.
        ChunkAck = 0x82,
        /// Server → client: session finished and durable.
        FinishAck = 0x83,
        /// Server → client: query result ([`QueryReply`]).
        QueryOk = 0x84,
        /// Server → client: the session listing ([`SessionList`]).
        Sessions = 0x85,
        /// Server → client: cross-session query result ([`QueryAllReply`]
        /// — machine-mergeable grouped tables, not JSON, so a federation
        /// tier can combine daemons).
        QueryAllOk = 0x86,
        /// Server → client: failure; the connection closes after this.
        Error = 0xFF,
    }
}

/// The [`FrameKind`] bytes, as [`write_frame`] takes them and
/// [`read_frame`] returns them.
///
/// [`write_frame`]: rlscope_core::store::write_frame
/// [`read_frame`]: rlscope_core::store::read_frame
pub mod kind {
    use super::FrameKind;

    /// [`FrameKind::Hello`].
    pub const HELLO: u8 = FrameKind::Hello as u8;
    /// [`FrameKind::Chunk`].
    pub const CHUNK: u8 = FrameKind::Chunk as u8;
    /// [`FrameKind::Finish`].
    pub const FINISH: u8 = FrameKind::Finish as u8;
    /// [`FrameKind::Query`].
    pub const QUERY: u8 = FrameKind::Query as u8;
    /// [`FrameKind::ListSessions`].
    pub const LIST_SESSIONS: u8 = FrameKind::ListSessions as u8;
    /// [`FrameKind::QueryAll`].
    pub const QUERY_ALL: u8 = FrameKind::QueryAll as u8;
    /// [`FrameKind::HelloAck`].
    pub const HELLO_ACK: u8 = FrameKind::HelloAck as u8;
    /// [`FrameKind::ChunkAck`].
    pub const CHUNK_ACK: u8 = FrameKind::ChunkAck as u8;
    /// [`FrameKind::FinishAck`].
    pub const FINISH_ACK: u8 = FrameKind::FinishAck as u8;
    /// [`FrameKind::QueryOk`].
    pub const QUERY_OK: u8 = FrameKind::QueryOk as u8;
    /// [`FrameKind::Sessions`].
    pub const SESSIONS: u8 = FrameKind::Sessions as u8;
    /// [`FrameKind::QueryAllOk`].
    pub const QUERY_ALL_OK: u8 = FrameKind::QueryAllOk as u8;
    /// [`FrameKind::Error`].
    pub const ERROR: u8 = FrameKind::Error as u8;
}

wire_enum! {
    /// Server-reported failure categories (the `code` byte of `ERROR`
    /// frames).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ErrorCode {
        /// `HELLO` carried an unsupported protocol version.
        Version = 1,
        /// Session name empty, too long, or containing path characters.
        BadSessionName = 2,
        /// A session of that name holds durable data (finished, or left by a
        /// previous daemon run) that a new session must not wipe. A resume
        /// `HELLO` answered with this code means the finish already
        /// committed.
        SessionExists = 3,
        /// A frame arrived that the connection state does not allow.
        Protocol = 4,
        /// A chunk payload failed to decode (corrupt bytes).
        CorruptChunk = 5,
        /// Server-side I/O failure (session storage, or a chunk index a
        /// query could not read).
        Io = 6,
        /// The query target names no known session or readable directory.
        UnknownTarget = 7,
        /// The query combination is unsupported (e.g. a time window over a
        /// live session).
        UnsupportedQuery = 8,
        /// A `HELLO` named a session that is currently streaming (attached
        /// to a live connection) or detached awaiting resume.
        SessionActive = 9,
        /// A resume `HELLO` carried an epoch that does not match the
        /// session's current incarnation — the name was recreated since this
        /// client last held it, and its buffered chunks belong to a dead
        /// stream.
        EpochMismatch = 10,
        /// The session was aborted by the daemon's idle reaper: no frames
        /// arrived within the configured idle timeout.
        IdleTimeout = 11,
        /// The session was aborted (client crash, injected I/O failure,
        /// idle timeout) and cannot be resumed; its data so far remains
        /// queryable and the name is reusable.
        SessionAborted = 12,
    }
}

/// A `HELLO` payload: open a new session, or resume a detached one.
///
/// Byte layout (integers big-endian):
///
/// ```text
/// version:u32 | mode:u8 (0 = new, 1 = resume) | name_len:u16 | name
/// [epoch:u64]                                   if mode == 1
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloRequest {
    /// Protocol version the client speaks.
    pub version: u32,
    /// Session name (also the on-disk chunk directory name).
    pub name: String,
    /// `Some(epoch)` to resume an existing session incarnation; `None`
    /// to open a new one.
    pub resume_epoch: Option<u64>,
}

impl HelloRequest {
    /// A new-session handshake at the current [`PROTOCOL_VERSION`].
    pub fn new_session(name: impl Into<String>) -> Self {
        HelloRequest { version: PROTOCOL_VERSION, name: name.into(), resume_epoch: None }
    }

    /// A resume handshake for an existing incarnation.
    pub fn resume(name: impl Into<String>, epoch: u64) -> Self {
        HelloRequest { version: PROTOCOL_VERSION, name: name.into(), resume_epoch: Some(epoch) }
    }

    /// Serializes to the `HELLO` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(15 + self.name.len());
        out.extend_from_slice(&self.version.to_be_bytes());
        out.push(u8::from(self.resume_epoch.is_some()));
        out.extend_from_slice(&(self.name.len() as u16).to_be_bytes());
        out.extend_from_slice(self.name.as_bytes());
        if let Some(epoch) = self.resume_epoch {
            out.extend_from_slice(&epoch.to_be_bytes());
        }
        out
    }

    /// Parses a `HELLO` payload, validating length and mode exactly.
    /// The version field is *not* range-checked here — the server checks
    /// it first so a version mismatch gets its own typed error.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Protocol`] on truncation, an unknown mode byte,
    /// non-UTF-8 name bytes, or trailing bytes.
    pub fn decode(data: &[u8]) -> Result<HelloRequest, CollectorError> {
        let bad = |what: &str| CollectorError::Protocol(format!("HELLO: {what}"));
        let Some((header, rest)) = data.split_first_chunk::<7>() else {
            return Err(bad("truncated header"));
        };
        let [v0, v1, v2, v3, mode, n0, n1] = *header;
        let version = u32::from_be_bytes([v0, v1, v2, v3]);
        if mode > 1 {
            return Err(bad(&format!("unknown mode {mode}")));
        }
        let name_len = u16::from_be_bytes([n0, n1]) as usize;
        let tail = if mode == 1 { 8 } else { 0 };
        if rest.len() != name_len + tail {
            return Err(bad("length mismatch"));
        }
        let Some((name_bytes, epoch_bytes)) = rest.split_at_checked(name_len) else {
            return Err(bad("length mismatch"));
        };
        let name =
            std::str::from_utf8(name_bytes).map_err(|_| bad("non-utf8 session name"))?.to_string();
        let resume_epoch = match (mode, epoch_bytes.split_first_chunk::<8>()) {
            (1, Some((word, _))) => Some(u64::from_be_bytes(*word)),
            (1, None) => return Err(bad("length mismatch")),
            _ => None,
        };
        Ok(HelloRequest { version, name, resume_epoch })
    }
}

/// A `HELLO_ACK` payload: the server's side of the handshake.
///
/// Byte layout: `session_id:u64 | credits:u32 | epoch:u64 |
/// acked_chunks:u64` (28 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HelloAck {
    /// Server-assigned connection-scoped session id.
    pub session_id: u64,
    /// Credit window granted to this connection.
    pub credits: u32,
    /// The session's incarnation epoch — echo it back to resume.
    pub epoch: u64,
    /// Chunks durably acked so far: `0` for a new session; for a resume,
    /// the watermark the client replays from (chunks below it must not
    /// be re-sent, chunks at or above it were lost and must be).
    pub acked_chunks: u64,
}

impl HelloAck {
    /// Serializes to the `HELLO_ACK` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(28);
        out.extend_from_slice(&self.session_id.to_be_bytes());
        out.extend_from_slice(&self.credits.to_be_bytes());
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&self.acked_chunks.to_be_bytes());
        out
    }

    /// Parses a `HELLO_ACK` payload.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Protocol`] unless the payload is exactly 28
    /// bytes.
    pub fn decode(data: &[u8]) -> Result<HelloAck, CollectorError> {
        if data.len() != 28 {
            return Err(CollectorError::Protocol(format!(
                "HELLO_ACK: want 28 bytes, got {}",
                data.len()
            )));
        }
        let mut data = data;
        let session_id = u64::from_be_bytes(take_n(&mut data, "HELLO_ACK session id")?);
        let credits = u32::from_be_bytes(take_n(&mut data, "HELLO_ACK credits")?);
        let epoch = u64::from_be_bytes(take_n(&mut data, "HELLO_ACK epoch")?);
        let acked_chunks = u64::from_be_bytes(take_n(&mut data, "HELLO_ACK watermark")?);
        Ok(HelloAck { session_id, credits, epoch, acked_chunks })
    }
}

/// Errors surfaced by the collector client and daemon.
#[derive(Debug)]
pub enum CollectorError {
    /// Transport or storage failure (framing, sockets, chunk files).
    Io(TraceIoError),
    /// The peer violated the protocol (unexpected frame, bad payload).
    Protocol(String),
    /// The server reported a failure via an `ERROR` frame.
    Remote {
        /// The server's error code (`None` for codes this client
        /// version does not know).
        code: Option<ErrorCode>,
        /// Human-readable server message.
        message: String,
    },
    /// A [`CollectorSink`](crate::CollectorSink)'s sender thread is gone
    /// (it panicked), so nothing more reaches the daemon and the session
    /// was never finished.
    SinkClosed,
}

impl fmt::Display for CollectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectorError::Io(e) => write!(f, "collector i/o error: {e}"),
            CollectorError::Protocol(msg) => write!(f, "collector protocol error: {msg}"),
            CollectorError::Remote { code, message } => {
                write!(f, "collector server error ({code:?}): {message}")
            }
            CollectorError::SinkClosed => write!(f, "collector sink's sender thread is gone"),
        }
    }
}

impl std::error::Error for CollectorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CollectorError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TraceIoError> for CollectorError {
    fn from(e: TraceIoError) -> Self {
        CollectorError::Io(e)
    }
}

impl From<std::io::Error> for CollectorError {
    fn from(e: std::io::Error) -> Self {
        CollectorError::Io(TraceIoError::Io(e))
    }
}

/// What a [`QuerySpec`] is asked about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryTarget {
    /// A collector session, by name — live or finished.
    Session(String),
    /// A chunk directory, by path on the daemon's filesystem.
    Dir(String),
    /// Every session the daemon holds, composed through
    /// [`rlscope_core::analysis::Analysis::of_sessions`] — the target of
    /// `QUERY_ALL` frames. Live sessions answer over their consistent
    /// acked prefix; finished and aborted ones over their directories.
    AllSessions,
}

/// An `Analysis`-shaped query, wire-codable.
///
/// Byte layout (all integers big-endian, strings UTF-8):
///
/// ```text
/// target_kind:u8        0 = session name, 1 = chunk dir path,
///                       2 = all sessions (empty target string)
/// target_len:u16 | target bytes
/// flags:u8              bit 0 phase filter, bit 1 process filter,
///                       bit 2 operation filter, bit 3 time window
/// [phase_len:u16 | phase]          if bit 0
/// [pid:u32]                        if bit 1
/// [op_len:u16 | operation]         if bit 2
/// [lo:u64 | hi:u64]                if bit 3
/// dims:u8               bit 0 Dim::Phase, bit 1 Dim::Process,
///                       bit 2 Dim::Operation, bit 3 Dim::Session
/// ```
///
/// Decoding validates every field and rejects trailing bytes, unknown
/// flag bits, and non-UTF-8 strings — the query codec holds the same
/// "corruption is an error, never a panic" line as the chunk codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuerySpec {
    /// What to query.
    pub target: QueryTarget,
    /// Keep only time attributed to this phase.
    pub phase: Option<String>,
    /// Keep only this process.
    pub process: Option<u32>,
    /// Keep only this operation's rows.
    pub operation: Option<String>,
    /// Restrict attribution to `[lo, hi)` nanoseconds (finished
    /// targets only).
    pub window: Option<(u64, u64)>,
    /// Grouping dimensions (deduplicated; output order is canonical
    /// regardless of request order).
    pub dims: Vec<Dim>,
}

const FLAG_PHASE: u8 = 1;
const FLAG_PROCESS: u8 = 1 << 1;
const FLAG_OPERATION: u8 = 1 << 2;
const FLAG_WINDOW: u8 = 1 << 3;

impl QuerySpec {
    /// A query over a collector session (live or finished).
    pub fn session(name: impl Into<String>) -> Self {
        Self::new(QueryTarget::Session(name.into()))
    }

    /// A query over a chunk directory on the daemon's filesystem.
    pub fn dir(path: impl Into<String>) -> Self {
        Self::new(QueryTarget::Dir(path.into()))
    }

    /// A cross-session query over every session the daemon holds (sent
    /// as a `QUERY_ALL` frame; answered with a `QUERY_ALL_OK`).
    pub fn all_sessions() -> Self {
        Self::new(QueryTarget::AllSessions)
    }

    fn new(target: QueryTarget) -> Self {
        QuerySpec {
            target,
            phase: None,
            process: None,
            operation: None,
            window: None,
            dims: Vec::new(),
        }
    }

    /// Filters to the named phase.
    pub fn phase(mut self, name: impl Into<String>) -> Self {
        self.phase = Some(name.into());
        self
    }

    /// Filters to one process.
    pub fn process(mut self, pid: u32) -> Self {
        self.process = Some(pid);
        self
    }

    /// Filters to one operation's rows.
    pub fn operation(mut self, name: impl Into<String>) -> Self {
        self.operation = Some(name.into());
        self
    }

    /// Restricts attribution to `[lo, hi)` nanoseconds.
    pub fn window(mut self, lo: u64, hi: u64) -> Self {
        self.window = Some((lo, hi));
        self
    }

    /// Adds grouping dimensions.
    pub fn group_by(mut self, dims: impl IntoIterator<Item = Dim>) -> Self {
        for d in dims {
            if !self.dims.contains(&d) {
                self.dims.push(d);
            }
        }
        self
    }

    /// Serializes the spec to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u16).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(64);
        let (kind, target) = match &self.target {
            QueryTarget::Session(name) => (0u8, name.as_str()),
            QueryTarget::Dir(path) => (1u8, path.as_str()),
            QueryTarget::AllSessions => (2u8, ""),
        };
        out.push(kind);
        put_str(&mut out, target);
        let mut flags = 0u8;
        flags |= if self.phase.is_some() { FLAG_PHASE } else { 0 };
        flags |= if self.process.is_some() { FLAG_PROCESS } else { 0 };
        flags |= if self.operation.is_some() { FLAG_OPERATION } else { 0 };
        flags |= if self.window.is_some() { FLAG_WINDOW } else { 0 };
        out.push(flags);
        if let Some(p) = &self.phase {
            put_str(&mut out, p);
        }
        if let Some(pid) = self.process {
            out.extend_from_slice(&pid.to_be_bytes());
        }
        if let Some(op) = &self.operation {
            put_str(&mut out, op);
        }
        if let Some((lo, hi)) = self.window {
            out.extend_from_slice(&lo.to_be_bytes());
            out.extend_from_slice(&hi.to_be_bytes());
        }
        let mut dims = 0u8;
        for d in &self.dims {
            dims |= match d {
                Dim::Phase => 1,
                Dim::Process => 1 << 1,
                Dim::Operation => 1 << 2,
                Dim::Session => 1 << 3,
            };
        }
        out.push(dims);
        out
    }

    /// Parses a wire-form spec, validating every field.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Protocol`] on truncation, unknown flag or
    /// target-kind bits, non-UTF-8 strings, or trailing bytes.
    pub fn decode(mut data: &[u8]) -> Result<QuerySpec, CollectorError> {
        fn bad(what: &str) -> CollectorError {
            CollectorError::Protocol(format!("query spec: {what}"))
        }
        let [target_kind] = take_n(&mut data, "query spec target kind")?;
        let target = take_str(&mut data, "target")?;
        let target = match target_kind {
            0 => QueryTarget::Session(target),
            1 => QueryTarget::Dir(target),
            2 if target.is_empty() => QueryTarget::AllSessions,
            2 => return Err(bad("all-sessions target carries a name")),
            k => return Err(bad(&format!("unknown target kind {k}"))),
        };
        let [flags] = take_n(&mut data, "flags")?;
        if flags & !(FLAG_PHASE | FLAG_PROCESS | FLAG_OPERATION | FLAG_WINDOW) != 0 {
            return Err(bad("unknown flag bits"));
        }
        let phase =
            if flags & FLAG_PHASE != 0 { Some(take_str(&mut data, "phase")?) } else { None };
        let process = if flags & FLAG_PROCESS != 0 {
            Some(u32::from_be_bytes(take_n(&mut data, "pid")?))
        } else {
            None
        };
        let operation = if flags & FLAG_OPERATION != 0 {
            Some(take_str(&mut data, "operation")?)
        } else {
            None
        };
        let window = if flags & FLAG_WINDOW != 0 {
            let lo = u64::from_be_bytes(take_n(&mut data, "window")?);
            let hi = u64::from_be_bytes(take_n(&mut data, "window")?);
            Some((lo, hi))
        } else {
            None
        };
        let [dim_bits] = take_n(&mut data, "dims")?;
        if dim_bits & !0b1111 != 0 {
            return Err(bad("unknown dim bits"));
        }
        let mut dims = Vec::new();
        for (bit, dim) in [
            (1, Dim::Phase),
            (1 << 1, Dim::Process),
            (1 << 2, Dim::Operation),
            (1 << 3, Dim::Session),
        ] {
            if dim_bits & bit != 0 {
                dims.push(dim);
            }
        }
        if !data.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(QuerySpec { target, phase, process, operation, window, dims })
    }
}

/// A successful query result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// True when answered from a live session's in-flight sweep state
    /// (a consistent prefix); false for finished targets.
    pub live: bool,
    /// Always false: the daemon keeps no result cache. The wire format
    /// keeps the flag (bit 1 of `QUERY_OK`'s flags).
    pub cache_hit: bool,
    /// Events the answer covers: the live prefix length, or the
    /// finished directory's total.
    pub events_observed: u64,
    /// The query's canonical JSON (same bytes
    /// [`rlscope_core::analysis::Analysis::canonical_json`] produces).
    pub canonical_json: String,
}

impl QueryReply {
    /// Serializes to the `QUERY_OK` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.canonical_json.len());
        let mut flags = 0u8;
        flags |= u8::from(self.live);
        flags |= u8::from(self.cache_hit) << 1;
        out.push(flags);
        out.extend_from_slice(&self.events_observed.to_be_bytes());
        out.extend_from_slice(self.canonical_json.as_bytes());
        out
    }

    /// Parses a `QUERY_OK` payload.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Protocol`] on truncation, unknown flag bits, or
    /// non-UTF-8 JSON bytes.
    pub fn decode(mut data: &[u8]) -> Result<QueryReply, CollectorError> {
        let [flags] = take_n(&mut data, "query reply flags")?;
        if flags & !0b11 != 0 {
            return Err(CollectorError::Protocol("unknown query reply flags".into()));
        }
        let events_observed = u64::from_be_bytes(take_n(&mut data, "query reply events")?);
        let canonical_json = String::from_utf8(data.to_vec())
            .map_err(|_| CollectorError::Protocol("non-utf8 query reply".into()))?;
        Ok(QueryReply {
            live: flags & 1 != 0,
            cache_hit: flags & 2 != 0,
            events_observed,
            canonical_json,
        })
    }
}

/// One session in a `SESSIONS` listing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session name.
    pub name: String,
    /// True while the session is still streaming (attached or detached);
    /// false for finished and aborted sessions.
    pub live: bool,
    /// Events the daemon holds for the session: the live acked prefix
    /// length, or the finished directory's total.
    pub events: u64,
}

/// A `SESSIONS` payload: every session a daemon holds, name-sorted.
///
/// Byte layout: `count:u32`, then per session `name_len:u16 | name |
/// live:u8 | events:u64`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionList {
    /// The sessions, sorted by name.
    pub sessions: Vec<SessionInfo>,
}

impl SessionList {
    /// Serializes to the `SESSIONS` payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.sessions.len() * 24);
        out.extend_from_slice(&(self.sessions.len() as u32).to_be_bytes());
        for s in &self.sessions {
            out.extend_from_slice(&(s.name.len() as u16).to_be_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.push(u8::from(s.live));
            out.extend_from_slice(&s.events.to_be_bytes());
        }
        out
    }

    /// Parses a `SESSIONS` payload.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Protocol`] on truncation, unknown live bytes,
    /// non-UTF-8 names, or trailing bytes.
    pub fn decode(mut data: &[u8]) -> Result<SessionList, CollectorError> {
        let bad = |what: &str| CollectorError::Protocol(format!("session list: {what}"));
        let count = u32::from_be_bytes(take_n(&mut data, "session list count")?) as usize;
        let mut sessions = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let name = take_str(&mut data, "session name")?;
            let [live] = take_n(&mut data, "session live flag")?;
            let live = match live {
                0 => false,
                1 => true,
                b => return Err(bad(&format!("unknown live byte {b}"))),
            };
            let events = u64::from_be_bytes(take_n(&mut data, "session events")?);
            sessions.push(SessionInfo { name, live, events });
        }
        if !data.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(SessionList { sessions })
    }
}

/// A `QUERY_ALL_OK` payload: the cross-session result as
/// machine-mergeable grouped tables (not JSON — the federation tier
/// merges tables from many daemons with
/// [`BreakdownTable::merge`] before rendering).
///
/// Byte layout (integers big-endian, strings UTF-8 with `u16` length):
///
/// ```text
/// flags:u8              bit 0: any session answered live
/// events:u64            events covered across all sessions
/// session_count:u32 | per session: name_len:u16 | name
/// group_count:u32
///   per group:
///     kflags:u8         bit 0 session, bit 1 phase,
///                       bit 2 process, bit 3 operation
///     [session string] [phase string] [pid:u32] [operation string]
///     row_count:u32
///       per row: op string | cpu:u8 (0 = none, 1 Python, 2 Simulator,
///                3 Backend, 4 CudaApi) | gpu:u8 | nanos:u64
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryAllReply {
    /// True when any composed session answered from live sweep state.
    pub live: bool,
    /// Events the answer covers, summed across sessions.
    pub events_observed: u64,
    /// The sessions composed into the answer, in composition (name)
    /// order — present even when a filter leaves a session nothing to
    /// contribute.
    pub sessions: Vec<String>,
    /// The resolved groups, in pipeline group order (an ungrouped query
    /// is a single entry with the all-`None` key).
    pub groups: Vec<(GroupKey, BreakdownTable)>,
}

impl QueryAllReply {
    /// Serializes to the `QUERY_ALL_OK` payload.
    pub fn encode(&self) -> Vec<u8> {
        fn put_str(out: &mut Vec<u8>, s: &str) {
            out.extend_from_slice(&(s.len() as u16).to_be_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        let mut out = Vec::with_capacity(64);
        out.push(u8::from(self.live));
        out.extend_from_slice(&self.events_observed.to_be_bytes());
        out.extend_from_slice(&(self.sessions.len() as u32).to_be_bytes());
        for name in &self.sessions {
            put_str(&mut out, name);
        }
        out.extend_from_slice(&(self.groups.len() as u32).to_be_bytes());
        for (key, table) in &self.groups {
            let mut kflags = 0u8;
            kflags |= u8::from(key.session.is_some());
            kflags |= u8::from(key.phase.is_some()) << 1;
            kflags |= u8::from(key.process.is_some()) << 2;
            kflags |= u8::from(key.operation.is_some()) << 3;
            out.push(kflags);
            if let Some(s) = &key.session {
                put_str(&mut out, s);
            }
            if let Some(p) = &key.phase {
                put_str(&mut out, p);
            }
            if let Some(pid) = key.process {
                out.extend_from_slice(&pid.as_u32().to_be_bytes());
            }
            if let Some(op) = &key.operation {
                put_str(&mut out, op);
            }
            out.extend_from_slice(&(table.len() as u32).to_be_bytes());
            for (bucket, d) in table.iter() {
                put_str(&mut out, &bucket.operation);
                out.push(match bucket.cpu {
                    None => 0,
                    Some(CpuCategory::Python) => 1,
                    Some(CpuCategory::Simulator) => 2,
                    Some(CpuCategory::Backend) => 3,
                    Some(CpuCategory::CudaApi) => 4,
                });
                out.push(u8::from(bucket.gpu));
                out.extend_from_slice(&d.as_nanos().to_be_bytes());
            }
        }
        out
    }

    /// Parses a `QUERY_ALL_OK` payload, validating every field.
    ///
    /// # Errors
    ///
    /// [`CollectorError::Protocol`] on truncation, unknown flag/category
    /// bytes, non-UTF-8 strings, or trailing bytes.
    pub fn decode(mut data: &[u8]) -> Result<QueryAllReply, CollectorError> {
        let bad = |what: &str| CollectorError::Protocol(format!("query-all reply: {what}"));
        let [flags] = take_n(&mut data, "query-all flags")?;
        if flags & !1 != 0 {
            return Err(bad("unknown flag bits"));
        }
        let events_observed = u64::from_be_bytes(take_n(&mut data, "query-all events")?);
        let count = u32::from_be_bytes(take_n(&mut data, "session count")?) as usize;
        let mut sessions = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            sessions.push(take_str(&mut data, "session name")?);
        }
        let count = u32::from_be_bytes(take_n(&mut data, "group count")?) as usize;
        let mut groups = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let [kflags] = take_n(&mut data, "group key flags")?;
            if kflags & !0b1111 != 0 {
                return Err(bad("unknown group key flags"));
            }
            let session: Option<Arc<str>> = if kflags & 1 != 0 {
                Some(Arc::from(take_str(&mut data, "group session")?))
            } else {
                None
            };
            let phase: Option<Arc<str>> = if kflags & 2 != 0 {
                Some(Arc::from(take_str(&mut data, "group phase")?))
            } else {
                None
            };
            let process = if kflags & 4 != 0 {
                Some(ProcessId(u32::from_be_bytes(take_n(&mut data, "group pid")?)))
            } else {
                None
            };
            let operation: Option<Arc<str>> = if kflags & 8 != 0 {
                Some(Arc::from(take_str(&mut data, "group operation")?))
            } else {
                None
            };
            let rows = u32::from_be_bytes(take_n(&mut data, "row count")?) as usize;
            let mut table = BreakdownTable::new();
            for _ in 0..rows {
                let op: Arc<str> = Arc::from(take_str(&mut data, "bucket operation")?);
                let [cpu] = take_n(&mut data, "bucket cpu")?;
                let cpu = match cpu {
                    0 => None,
                    1 => Some(CpuCategory::Python),
                    2 => Some(CpuCategory::Simulator),
                    3 => Some(CpuCategory::Backend),
                    4 => Some(CpuCategory::CudaApi),
                    b => return Err(bad(&format!("unknown cpu byte {b}"))),
                };
                let [gpu] = take_n(&mut data, "bucket gpu")?;
                let gpu = match gpu {
                    0 => false,
                    1 => true,
                    b => return Err(bad(&format!("unknown gpu byte {b}"))),
                };
                let nanos = u64::from_be_bytes(take_n(&mut data, "bucket nanos")?);
                table.add(BucketKey { operation: op, cpu, gpu }, DurationNs::from_nanos(nanos));
            }
            groups.push((GroupKey { session, phase, process, operation }, table));
        }
        if !data.is_empty() {
            return Err(bad("trailing bytes"));
        }
        Ok(QueryAllReply { live: flags & 1 != 0, events_observed, sessions, groups })
    }
}

/// Pops `n` bytes off the front of `data` (shared by the multi-field
/// payload decoders).
fn take<'a>(data: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], CollectorError> {
    let s: &'a [u8] = data;
    match s.split_at_checked(n) {
        Some((head, rest)) => {
            *data = rest;
            Ok(head)
        }
        None => Err(CollectorError::Protocol(format!("truncated {what}"))),
    }
}

/// Pops a fixed-size array off the front of `data` — the never-panic
/// counterpart of `data[..N].try_into().unwrap()`.
fn take_n<'a, const N: usize>(data: &mut &'a [u8], what: &str) -> Result<[u8; N], CollectorError> {
    let s: &'a [u8] = data;
    match s.split_first_chunk::<N>() {
        Some((head, rest)) => {
            *data = rest;
            Ok(*head)
        }
        None => Err(CollectorError::Protocol(format!("truncated {what}"))),
    }
}

/// Pops a `u16`-length-prefixed UTF-8 string off the front of `data`.
fn take_str(data: &mut &[u8], what: &str) -> Result<String, CollectorError> {
    let len = u16::from_be_bytes(take_n(data, what)?) as usize;
    let bytes = take(data, len, what)?;
    String::from_utf8(bytes.to_vec())
        .map_err(|_| CollectorError::Protocol(format!("non-utf8 {what}")))
}

/// Encodes an `ERROR` payload.
pub(crate) fn encode_error(code: ErrorCode, message: &str) -> Vec<u8> {
    let bytes = message.as_bytes();
    let msg = bytes.get(..usize::from(u16::MAX)).unwrap_or(bytes);
    let mut out = Vec::with_capacity(3 + msg.len());
    out.push(code as u8);
    out.extend_from_slice(&(msg.len() as u16).to_be_bytes());
    out.extend_from_slice(msg);
    out
}

/// Parses an `ERROR` payload into the [`CollectorError::Remote`] form.
pub(crate) fn decode_error(data: &[u8]) -> CollectorError {
    let Some((header, rest)) = data.split_first_chunk::<3>() else {
        return CollectorError::Protocol("truncated error frame".into());
    };
    let [code_byte, l0, l1] = *header;
    let code = ErrorCode::from_u8(code_byte);
    let len = (u16::from_be_bytes([l0, l1]) as usize).min(rest.len());
    let message = String::from_utf8_lossy(rest.get(..len).unwrap_or(rest)).into_owned();
    CollectorError::Remote { code, message }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `ListSessions` → `LIST_SESSIONS`: the `kind` const and table name.
    fn const_name(k: FrameKind) -> String {
        let mut out = String::new();
        for (i, c) in format!("{k:?}").chars().enumerate() {
            if c.is_uppercase() && i > 0 {
                out.push('_');
            }
            out.push(c.to_ascii_uppercase());
        }
        out
    }

    /// The crate docs' frame table and the two wire enums agree: every
    /// frame kind has its row (code and name) and no row is stale; each
    /// kind is written by the side its row names as the sender; every
    /// error code is sent by the daemon; `from_u8` inverts `as u8`.
    #[test]
    fn frame_table_senders_and_decoders_match_the_wire_enums() {
        let (docs, client, daemon) =
            (include_str!("lib.rs"), include_str!("client.rs"), include_str!("daemon.rs"));
        // `//! | `0x01` | C→S | `HELLO` | …` → (0x01, "C→S", "HELLO")
        let rows: Vec<(u8, &str, &str)> = docs
            .lines()
            .filter_map(|line| {
                let cells: Vec<&str> =
                    line.strip_prefix("//! | `0x")?.split('|').map(str::trim).collect();
                let code = u8::from_str_radix(cells[0].trim_end_matches('`'), 16).unwrap();
                Some((code, cells[1], cells[2].trim_matches('`')))
            })
            .collect();
        let kinds: Vec<FrameKind> = (0..=u8::MAX).filter_map(FrameKind::from_u8).collect();
        assert_eq!(rows.len(), kinds.len(), "frame table rows: {rows:?}");
        for &k in &kinds {
            assert_eq!(FrameKind::from_u8(k as u8), Some(k));
            let name = const_name(k);
            let &(_, dir, row_name) = rows
                .iter()
                .find(|row| row.0 == k as u8)
                .unwrap_or_else(|| panic!("{k:?} ({:#04x}) has no frame table row", k as u8));
            assert_eq!(row_name, name, "frame table row for {:#04x}", k as u8);
            let sender = if dir == "C→S" { client } else { daemon };
            assert!(sender.contains(&format!("kind::{name}")), "no {dir} sender writes {name}");
        }
        for code in (0..=u8::MAX).filter_map(ErrorCode::from_u8) {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
            assert!(daemon.contains(&format!("ErrorCode::{code:?}")), "{code:?} is never sent");
        }
    }

    #[test]
    fn query_spec_round_trips() {
        let specs = vec![
            QuerySpec::session("s1"),
            QuerySpec::dir("/tmp/run"),
            QuerySpec::session("s2")
                .phase("training")
                .process(3)
                .operation("backprop")
                .window(100, 2_000)
                .group_by([Dim::Phase, Dim::Process, Dim::Operation]),
            QuerySpec::session("s3").group_by([Dim::Operation]),
        ];
        for spec in specs {
            let decoded = QuerySpec::decode(&spec.encode()).unwrap();
            assert_eq!(decoded, spec);
        }
    }

    #[test]
    fn query_spec_rejects_malformed_bytes() {
        let good = QuerySpec::session("s").phase("p").encode();
        for cut in 0..good.len() {
            assert!(QuerySpec::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(QuerySpec::decode(&trailing).is_err());
        let mut bad_kind = good.clone();
        bad_kind[0] = 9;
        assert!(QuerySpec::decode(&bad_kind).is_err());
        let mut bad_dims = good;
        *bad_dims.last_mut().unwrap() = 0xf0;
        assert!(QuerySpec::decode(&bad_dims).is_err());
    }

    #[test]
    fn all_sessions_spec_round_trips_with_session_dim() {
        let spec = QuerySpec::all_sessions().phase("train").group_by([
            Dim::Session,
            Dim::Phase,
            Dim::Process,
            Dim::Operation,
        ]);
        // Decode canonicalizes dim order (the wire form is a bit set);
        // grouping semantics are order-independent.
        let decoded = QuerySpec::decode(&spec.encode()).unwrap();
        assert_eq!(decoded.target, spec.target);
        assert_eq!(decoded.phase, spec.phase);
        let mut dims = decoded.dims.clone();
        dims.sort_by_key(|d| format!("{d:?}"));
        let mut want = spec.dims.clone();
        want.sort_by_key(|d| format!("{d:?}"));
        assert_eq!(dims, want);
        assert_eq!(decoded.encode(), spec.encode());
        // An all-sessions target must not carry a name.
        let mut named = spec.encode();
        named[0] = 2;
        named[2] = 1; // target_len = 1 — now misaligned and named
        assert!(QuerySpec::decode(&named).is_err());
    }

    #[test]
    fn session_list_round_trips_and_rejects_malformed_bytes() {
        let list = SessionList {
            sessions: vec![
                SessionInfo { name: "a".into(), live: true, events: 3 },
                SessionInfo { name: "train-07".into(), live: false, events: 4_096 },
            ],
        };
        assert_eq!(SessionList::decode(&list.encode()).unwrap(), list);
        assert_eq!(
            SessionList::decode(&SessionList::default().encode()).unwrap(),
            SessionList::default()
        );
        let good = list.encode();
        for cut in 0..good.len() {
            assert!(SessionList::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(SessionList::decode(&trailing).is_err());
        let mut bad_live = good;
        bad_live[7] = 9; // the first session's live byte
        assert!(SessionList::decode(&bad_live).is_err());
    }

    #[test]
    fn query_all_reply_round_trips_and_rejects_malformed_bytes() {
        let mut t1 = BreakdownTable::new();
        t1.add(
            BucketKey { operation: Arc::from("step"), cpu: Some(CpuCategory::Python), gpu: false },
            DurationNs::from_nanos(1_234),
        );
        t1.add(
            BucketKey { operation: Arc::from(BucketKey::UNTRACKED), cpu: None, gpu: true },
            DurationNs::from_nanos(99),
        );
        let mut t2 = BreakdownTable::new();
        t2.add(
            BucketKey { operation: Arc::from("step"), cpu: Some(CpuCategory::CudaApi), gpu: true },
            DurationNs::from_nanos(7),
        );
        let reply = QueryAllReply {
            live: true,
            events_observed: 41,
            sessions: vec!["s1".into(), "s2".into()],
            groups: vec![
                (
                    GroupKey {
                        session: Some(Arc::from("s1")),
                        phase: None,
                        process: None,
                        operation: None,
                    },
                    t1,
                ),
                (
                    GroupKey {
                        session: Some(Arc::from("s2")),
                        phase: Some(Arc::from("train")),
                        process: Some(ProcessId(3)),
                        operation: Some(Arc::from("step")),
                    },
                    t2,
                ),
            ],
        };
        assert_eq!(QueryAllReply::decode(&reply.encode()).unwrap(), reply);
        // The empty reply (a daemon holding no sessions) round-trips too.
        let empty = QueryAllReply::default();
        assert_eq!(QueryAllReply::decode(&empty.encode()).unwrap(), empty);
        let good = reply.encode();
        for cut in 0..good.len() {
            assert!(QueryAllReply::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(QueryAllReply::decode(&trailing).is_err());
        let mut bad_flags = good;
        bad_flags[0] = 0x80;
        assert!(QueryAllReply::decode(&bad_flags).is_err());
    }

    #[test]
    fn query_reply_round_trips() {
        let reply = QueryReply {
            live: true,
            cache_hit: false,
            events_observed: 12_345,
            canonical_json: "[\n]\n".to_string(),
        };
        assert_eq!(QueryReply::decode(&reply.encode()).unwrap(), reply);
        assert!(QueryReply::decode(&[0x04, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        assert!(QueryReply::decode(&[]).is_err());
    }

    #[test]
    fn hello_round_trips_and_rejects_malformed_bytes() {
        for req in [
            HelloRequest::new_session("s1"),
            HelloRequest::resume("session-2", 17),
            HelloRequest { version: 1, name: "old".into(), resume_epoch: None },
        ] {
            assert_eq!(HelloRequest::decode(&req.encode()).unwrap(), req, "{req:?}");
        }
        let good = HelloRequest::resume("abc", 9).encode();
        for cut in 0..good.len() {
            assert!(HelloRequest::decode(&good[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(HelloRequest::decode(&trailing).is_err());
        let mut bad_mode = good;
        bad_mode[4] = 2;
        assert!(HelloRequest::decode(&bad_mode).is_err());
    }

    #[test]
    fn hello_ack_round_trips() {
        let ack = HelloAck { session_id: 5, credits: 8, epoch: 3, acked_chunks: 11 };
        assert_eq!(HelloAck::decode(&ack.encode()).unwrap(), ack);
        assert!(HelloAck::decode(&ack.encode()[..27]).is_err());
        assert!(HelloAck::decode(&[0u8; 29]).is_err());
    }

    #[test]
    fn new_error_codes_round_trip_the_wire_byte() {
        for code in [
            ErrorCode::SessionActive,
            ErrorCode::EpochMismatch,
            ErrorCode::IdleTimeout,
            ErrorCode::SessionAborted,
        ] {
            assert_eq!(ErrorCode::from_u8(code as u8), Some(code));
        }
        assert_eq!(ErrorCode::from_u8(13), None);
    }

    #[test]
    fn error_frames_round_trip() {
        let err = decode_error(&encode_error(ErrorCode::CorruptChunk, "bad chunk"));
        match err {
            CollectorError::Remote { code, message } => {
                assert_eq!(code, Some(ErrorCode::CorruptChunk));
                assert_eq!(message, "bad chunk");
            }
            other => panic!("unexpected {other}"),
        }
    }
}
