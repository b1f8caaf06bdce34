//! # rlscope-collector — the live trace collector daemon
//!
//! The paper's workflow is strictly post-hoc: profilers dump chunk
//! files, analysis runs later. This crate makes measurement
//! infrastructure **always-on**: a daemon (`rlscoped`, [`Collector`])
//! accepts many concurrent profiling sessions over Unix-domain sockets,
//! shards each session onto its own chunk directory (the exact on-disk
//! format a [`TraceWriter`] produces — `chunk_NNNNN.rls` files, each
//! carrying its own footer — but with validated chunk payloads persisted
//! **verbatim**, so ingest never re-encodes a byte), feeds every
//! accepted chunk into
//! per-session incremental
//! sweeps ([`rlscope_core::analysis::LiveState`]), and answers
//! [`Analysis`]-shaped queries — filters, `group_by`, canonical JSON —
//! over sessions that are **still streaming** as well as over finished
//! directories (the latter through predicate pushdown over the chunk
//! index [`Manifest::open`] reads off the chunks' footers, and a result
//! cache keyed by that index's checksum).
//!
//! The client half is [`CollectorClient`] (the raw protocol) and
//! [`CollectorSink`] (a [`rlscope_core::profiler::EventSink`], so an
//! existing workload streams live by calling
//! [`Profiler::stream_to`](rlscope_core::profiler::Profiler::stream_to)
//! instead of writing files). The sink sends from its own thread:
//! `emit` queues a batch and may return before it is delivered, and the
//! sink's `query` and `finish` are barriers that first wait for every
//! batch emitted before them.
//!
//! # Durability and consistency contract
//!
//! The collector is built to be the most reliable process on the box;
//! everything below survives a daemon SIGKILL at any byte boundary.
//!
//! **Acked means durable** — against the death of the daemon process,
//! not of the machine. The daemon writes a `CHUNK_ACK` only after the
//! chunk is applied to the live sweeps *and* written to the session's
//! chunk directory. A daemon crash (SIGKILL, panic, abort) can therefore
//! lose only chunks that were never acked — and those are exactly the
//! chunks the client still holds in its replay buffer. The daemon never
//! fsyncs a file or a directory: an acked chunk may still sit only in
//! the operating system's page cache, so an OS crash or a power loss
//! can lose acked chunks, or tear the file holding them.
//!
//! **What survives a daemon crash.** Every session directory carries a
//! durable registry record ([`registry::SessionRecord`]: epoch, status,
//! acked-chunk watermark), rewritten atomically at each lifecycle
//! transition. On startup the daemon runs a recovery scan: finished
//! sessions are re-served by name; sessions that were mid-stream have
//! any torn tail chunk truncated through the full decode + footer
//! validation path (so the surviving on-disk prefix is exactly some
//! acked prefix), their [`LiveState`] rebuilt by replaying that prefix,
//! and are registered **detached**, awaiting resume; aborted sessions
//! keep their data queryable and their names reusable.
//!
//! **What a client may assume after reconnect.** A resume handshake
//! (`HELLO` with the session name + epoch) returns the daemon's acked
//! watermark. Chunks below the watermark are durable and must not be
//! re-sent; chunks at or above it were lost and must be. [`CollectorClient`]
//! does this transparently under a bounded-backoff [`ReconnectPolicy`],
//! replaying only its unacked buffer — exactly-once, in-order delivery
//! across daemon restarts. The daemon additionally dedupes any replay
//! overlap by sequence number, so a racing reconnect cannot double-apply
//! a chunk.
//!
//! **Epoch semantics.** Each incarnation of a session *name* gets a
//! monotonically increasing epoch, assigned at `HELLO` and persisted in
//! the registry record. Resume requires the exact epoch: a client
//! holding a stale epoch (the name was aborted and recreated since) is
//! fenced off with [`ErrorCode::EpochMismatch`] rather than silently
//! splicing two different runs into one trace.
//!
//! **One owner per session.** Every open session — attached or
//! detached, from `HELLO` (or startup recovery) until it finishes or
//! aborts — has one owner thread that alone holds its live sweeps,
//! chunk store, counters and attached connection, fed by one bounded
//! mailbox. Connection threads read and decode frames and forward
//! messages; the owner applies, persists and acks. There is no
//! per-session lock, and the guarantees below follow from the mailbox
//! being FIFO.
//!
//! **Detach vs abort.** A connection that closes *cleanly* (EOF at a
//! frame boundary, or daemon shutdown) detaches its session — state is
//! kept, the registry stays `Active`, and the session waits for a
//! resume. A connection that fails mid-frame or violates the protocol,
//! a chunk the sweeps or the disk reject (including injected disk-full
//! faults), and a sequence gap all **abort** the session with a typed
//! error. The owner settles an abort itself, at once, whoever detected
//! it — it does not wait for the client to hang up: the durable prefix
//! is immediately queryable (as a directory target or by name), the
//! name becomes reusable, and a later resume attempt gets
//! [`ErrorCode::SessionAborted`]. Sessions that receive no chunk past
//! the configurable idle timeout are aborted the same way
//! ([`ErrorCode::IdleTimeout`]).
//!
//! **Query consistency.** A live query always observes a consistent
//! chunk prefix — never a torn chunk, never a non-acked suffix — and
//! message order is what guarantees it: the owner applies a chunk whole
//! and persists it before writing its ack, and a query's question
//! queues behind every chunk already handed to the owner, so it
//! observes at least every chunk acked to anyone before it was asked.
//! The owner's part of a query is the drain of the one view the query
//! reads ([`LiveState::snapshot_view`]): it puts that view's pending
//! boundaries in order — in place, so each query sorts only what
//! arrived since the last — and resumes each sweep's drain from the
//! latest still-valid checkpoint an earlier query left
//! ([`OverlapSweep::tables_so_far`]), handing back finished tables.
//! Running the query over them happens on the asking connection's
//! thread. Neither changes what any query observes. An aborted session
//! serves exactly the durable prefix from disk.
//!
//! # Wire protocol (version 2)
//!
//! Transport framing is [`rlscope_core::store::write_frame`] /
//! [`read_frame`]: `len:u32 BE | kind:u8 | payload`, payloads capped at
//! [`MAX_FRAME_LEN`](rlscope_core::store::MAX_FRAME_LEN). **Chunk
//! payloads are codec-v3 chunk bodies** ([`encode_events`] bytes)
//! prefixed with a sequence number, so ingest reuses [`decode_columns`]
//! and inherits its fuzz-hardened error paths — every malformed byte
//! surfaces as a protocol error, never a panic or a silently dropped
//! event.
//!
//! | kind | dir | name | payload |
//! |------|-----|------------|---------|
//! | `0x01` | C→S | `HELLO` | [`HelloRequest`]: `version:u32` \| `mode:u8` (0 new, 1 resume) \| `name_len:u16` \| name \| `epoch:u64` if resuming |
//! | `0x02` | C→S | `CHUNK` | `seq:u64` \| one codec-v3 chunk ([`encode_events`]) |
//! | `0x03` | C→S | `FINISH` | empty |
//! | `0x04` | C→S | `QUERY` | a [`QuerySpec`] (see its docs for the byte layout) |
//! | `0x05` | C→S | `LIST_SESSIONS` | empty |
//! | `0x06` | C→S | `QUERY_ALL` | a [`QuerySpec`] with the all-sessions target |
//! | `0x81` | S→C | `HELLO_ACK` | [`HelloAck`]: `session_id:u64` \| `credits:u32` \| `epoch:u64` \| `acked_chunks:u64` |
//! | `0x82` | S→C | `CHUNK_ACK` | `seq:u64` \| `events:u32` — the chunk is applied **and durable** (survives the daemon's death; see the contract above) |
//! | `0x83` | S→C | `FINISH_ACK` | `chunks:u64` \| `events:u64` (durable as above, session settled) |
//! | `0x84` | S→C | `QUERY_OK` | `flags:u8` (bit 0 live, bit 1 cache hit) \| `events_observed:u64` \| canonical JSON |
//! | `0x85` | S→C | `SESSIONS` | a [`SessionList`] (see its docs for the byte layout) |
//! | `0x86` | S→C | `QUERY_ALL_OK` | a [`QueryAllReply`]: machine-mergeable grouped tables (see its docs) |
//! | `0xFF` | S→C | `ERROR` | `code:u8` \| `msg_len:u16` \| message |
//!
//! The kinds are the variants of [`FrameKind`]; a unit test checks this
//! table against them (a row per kind, none stale) and that each kind
//! is written by the side the `dir` column names.
//!
//! **Handshake.** A session connection opens with `HELLO` (protocol
//! version [`PROTOCOL_VERSION`], session name `[A-Za-z0-9_.-]{1,64}` —
//! it names the on-disk chunk directory, so path characters are
//! rejected). The server replies `HELLO_ACK` with the session id, the
//! **credit window**, the session **epoch**, and the acked-chunk
//! watermark (0 for a new session). Query-only connections skip the
//! handshake and send `QUERY` directly.
//!
//! **Backpressure.** Credits bound the unacknowledged `CHUNK` frames a
//! client may have in flight: each `CHUNK` spends one credit, each
//! `CHUNK_ACK` returns one, and a client at zero credits must block
//! until an ack arrives ([`CollectorClient`] does). Acks are written
//! after the decode → live-sweep → persist pipeline completes for the
//! chunk, so per-session server memory is bounded by the owner's
//! mailbox plus the socket buffer, and a slow disk or a heavy live
//! sweep propagates to the producer instead of ballooning the daemon. A
//! slow-*reading* client that never drains its acks eventually fills
//! its socket buffer and stalls its session's owner on the ack write —
//! that fills its own mailbox only; other sessions keep streaming.
//!
//! # Fleet topology: transports and federation
//!
//! The daemon serves the identical framed protocol over **two
//! transports**: the Unix-domain socket (always) and an optional TCP
//! listener ([`CollectorConfig::tcp_listen`], `rlscoped --listen
//! tcp://host:port`). Clients address either through an [`Endpoint`]
//! (`unix://path` or `tcp://host:port`).
//!
//! **Unix vs TCP trade-offs.** The Unix socket is same-host only, with
//! filesystem-permission access control and the lowest latency — the
//! right default for a profiler streaming to its local daemon. TCP
//! crosses hosts (profiling rig → collector box, and daemon → daemon
//! for federation), sets `TCP_NODELAY` (small ack/credit frames must
//! not wait on Nagle), and carries **no authentication or encryption**
//! — bind loopback or a trusted network. Everything above the byte
//! stream — framing, the protocol-v2 resume handshake, credit-window
//! backpressure, the durability contract — is transport-independent.
//!
//! **Resume across transports.** A session is identified by its name +
//! epoch handshake, not by its connection, so a stream opened over one
//! transport may detach and resume over the other
//! ([`CollectorClient::resume_session_at`]) — e.g. a local Unix
//! producer resumed through a TCP endpoint after a host move.
//!
//! **Federation.** A [`FleetClient`] holds one query connection per
//! daemon endpoint and fans a single serialized spec out as `QUERY_ALL`
//! (each daemon composes **its own** sessions via
//! [`Analysis::of_sessions`](rlscope_core::analysis::Analysis::of_sessions)
//! and returns machine-mergeable grouped tables), then folds the shard
//! tables together with
//! [`BreakdownTable::merge`](rlscope_core::overlap::BreakdownTable::merge)
//! — so a fleet rollup is identical to one daemon holding every
//! session. The **failure model** is partial-and-typed: a dead or
//! unreachable daemon becomes a *named gap* (a [`ShardReport`] carrying
//! its endpoint and typed [`CollectorError`]) rather than a wrong
//! total; [`FleetResult::complete`] says whether the rollup is
//! fleet-wide, and the gap shard is re-dialed on the next query. There
//! is no cross-daemon snapshot barrier: each shard answers over its own
//! sessions' consistent acked prefixes (see the `analysis` module docs
//! on multi-session consistency).
//!
//! **Error codes** ([`ErrorCode`]): any server-side failure is reported
//! as an `ERROR` frame and closes the connection with the session
//! **aborted** (see the durability contract above for what aborted
//! means and which codes are retryable — none of them; only transport
//! failures are).
//!
//! # Query semantics
//!
//! A [`QuerySpec`] targets a session by name or a chunk directory by
//! path. Live sessions answer from a [`LiveState`] snapshot the
//! session's owner takes between two chunks — a consistent chunk
//! prefix; see the `analysis` module docs ("Live-query consistency")
//! for exactly what a mid-run query observes. The snapshot covers only
//! the view the query reads (the merged stream, or the per-process
//! sweeps for process grouping or a process filter). The owner resumes
//! each sweep's drain from a checkpoint of the previous snapshot and
//! hands back finished tables; the query over them runs on the asking
//! connection's thread. A live query therefore costs what arrived since
//! the last one of the same view (worst case, the span of the latest
//! late-closing scope), not the prefix, and one trip through the
//! owner's mailbox. Live answers are never cached: an immediate repeat
//! drains nothing, so a cache could save only the JSON rendering.
//! Finished sessions and directory targets run
//! [`Analysis::from_chunk_dir`] (footer predicate pushdown included);
//! their results are cached keyed by `(target, query bytes)`,
//! invalidated by [`Manifest::checksum`] of the index
//! [`Manifest::open`] reads off the chunks' footer tails, and evicted
//! LRU, so a repeated dashboard query costs one read of the footer
//! tails, not a re-analysis, until the directory's chunk set actually
//! changes. Cross-session
//! `QUERY_ALL` answers are never cached either: ingest on *any* session
//! invalidates them, so the daemon recomposes every session per query.
//!
//! A session that finishes cleanly is **sealed**: right after writing
//! its `FINISH_ACK`, the session's owner turns the live sweeps it
//! already built into finished merged-view tables
//! ([`LiveState::seal`]), once. Until the session leaves the raw tier,
//! its windowless merged-view questions — no time window, no process
//! grouping or filter — answer from those tables, over `QUERY` and
//! `QUERY_ALL` alike, instead of decoding and sweeping the directory
//! again. The answers are byte-identical to the directory's, and they
//! stay `live: false` and report the chunk index's event total. A `QUERY`
//! still goes through the result cache: a miss reads the seal in place
//! of the directory, and a repeat is a `cache_hit`. A query that
//! arrives while the seal is being computed waits for it. Everything
//! else reads the directory: windows, the per-process view, aborted
//! sessions, sessions recovered at startup, and every aged tier (a tier
//! transition drops the seal).
//!
//! # Tiered storage: compaction and retention
//!
//! Finished sessions age down a three-rung storage ladder, trading
//! resolution for footprint:
//!
//! | tier | layout | answers |
//! |------|--------|---------|
//! | `Raw` | close-ordered chunks at the session dir top level | everything |
//! | `Sorted` | start-sorted v3 chunks under `sorted/` | everything, with tighter footer pushdown |
//! | `Rollup` | segment summaries under `rollup/` ([`rlscope_core::rollup`]) | coarse grouped/aligned-window queries from pre-aggregated tables, without touching events |
//!
//! Transitions run on the daemon's **timer thread**, which runs each
//! retention pass's due transitions itself, one session after another
//! ([`Collector::compact_session`] forces one on the calling thread);
//! each follows a crash-safe four-step dance: build the next tier into a `.tier.tmp`
//! directory, atomically rename it into place, rewrite the session's
//! registry record with the new [`registry::StorageTier`], then delete
//! the prior tier. A daemon killed between any two steps recovers on
//! the next bind: the registry record is the source of truth, and tier
//! reconciliation removes temp debris, unrecorded tier directories, and
//! prior-tier leftovers — some recorded tier is always fully present
//! and queryable. Rollup granularity is
//! [`CollectorConfig::rollup_segment_ns`].
//!
//! **Retention is a dial**, not a cron job you write: `rlscoped
//! --retention raw=<dur>,sorted=<dur>,rollup=<dur>` (a
//! [`RetentionPolicy`]) bounds how long a finished session may dwell in
//! each tier before a retention pass ages it down — and past the last rung it
//! is pruned entirely: directory removed, registry record dropped, name
//! reusable. Aborted sessions never compact; they prune after the raw
//! dwell. Queries are **tier-transparent**: the same `QUERY` /
//! `QUERY_ALL` frames answer over whatever tier a session occupies, and
//! a query needing sub-segment resolution from a rolled-up session
//! fails typed ([`ErrorCode::UnsupportedQuery`]) rather than
//! approximating.
//!
//! [`Analysis`]: rlscope_core::analysis::Analysis
//! [`Analysis::from_chunk_dir`]: rlscope_core::analysis::Analysis::from_chunk_dir
//! [`LiveState`]: rlscope_core::analysis::LiveState
//! [`LiveState::snapshot_view`]: rlscope_core::analysis::LiveState::snapshot_view
//! [`LiveState::seal`]: rlscope_core::analysis::LiveState::seal
//! [`OverlapSweep::tables_so_far`]: rlscope_core::overlap::OverlapSweep::tables_so_far
//! [`Manifest::open`]: rlscope_core::store::Manifest::open
//! [`Manifest::checksum`]: rlscope_core::store::Manifest::checksum
//! [`TraceWriter`]: rlscope_core::store::TraceWriter
//! [`encode_events`]: rlscope_core::store::encode_events
//! [`decode_columns`]: rlscope_core::store::decode_columns
//! [`read_frame`]: rlscope_core::store::read_frame

// The never-panic contract: outside tests, nothing in this crate may
// unwrap, expect, panic, index unchecked or assert (`clippy.toml` beside
// this crate disallows the non-debug `assert*` macros). A site outside
// the contract says so with `#[expect(.., reason = "..")]`: an `allow`,
// or an exemption without a reason, is an error too.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]
// Tests assert freely (`disallowed_macros` warns by default).
#![cfg_attr(test, allow(clippy::disallowed_macros))]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod compact;
pub mod daemon;
pub mod fleet;
pub mod protocol;
pub mod registry;
pub mod transport;

pub use client::{CollectorClient, CollectorSink, ReconnectPolicy, SessionSummary};
pub use compact::RetentionPolicy;
pub use daemon::{Collector, CollectorConfig, RecoveredSession, SessionPhase};
pub use fleet::{FleetClient, FleetResult, ShardReport};
pub use protocol::{
    CollectorError, ErrorCode, FrameKind, HelloAck, HelloRequest, QueryAllReply, QueryReply,
    QuerySpec, QueryTarget, SessionInfo, SessionList, PROTOCOL_VERSION,
};
pub use registry::StorageTier;
pub use transport::{Endpoint, Stream};
