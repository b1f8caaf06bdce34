//! The client half: the raw protocol client (with resumable reconnect)
//! and the profiler sink that streams a live workload into the daemon.

use crate::protocol::{
    decode_error, kind, CollectorError, ErrorCode, HelloAck, HelloRequest, QueryAllReply,
    QueryReply, QuerySpec, SessionList,
};
use crate::transport::{Endpoint, Stream};
use rlscope_core::event::Event;
use rlscope_core::profiler::{cut_of, EventSink};
use rlscope_core::store::{
    encode_declared, encode_events, read_frame, write_frame, write_frame_parts, Cut, TraceIoError,
};
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// What the daemon reported at session finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSummary {
    /// Chunks the daemon accepted for the session.
    pub chunks: u64,
    /// Events the daemon accepted for the session.
    pub events: u64,
}

/// Bounded retry-with-exponential-backoff schedule for transparent
/// reconnects. Only **transport** failures are retried; a typed server
/// rejection ([`CollectorError::Remote`]) always surfaces immediately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Reconnect attempts per outage before giving up (0 disables
    /// reconnecting entirely).
    pub max_attempts: u32,
    /// Backoff before the first attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    /// 5 attempts, 25ms initial backoff doubling to a 1s ceiling —
    /// rides out a daemon restart of up to roughly a second.
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl ReconnectPolicy {
    /// A policy that never reconnects (every transport error is final).
    pub fn disabled() -> Self {
        ReconnectPolicy { max_attempts: 0, ..ReconnectPolicy::default() }
    }
}

/// A synchronous protocol client over one collector connection (Unix
/// socket or TCP — the wire bytes are identical, see [`Endpoint`]).
///
/// [`CollectorClient::open_session`] performs the handshake and streams
/// chunks with credit-window backpressure ([crate docs](crate));
/// [`CollectorClient::connect`] opens a query-only connection. Chunks
/// are encoded with the standard codec ([`encode_events`]), so the bytes
/// on the wire are exactly the bytes a [`rlscope_core::store::TraceWriter`]
/// would put on disk.
///
/// # Crash safety
///
/// Every sent chunk is buffered until its durable `CHUNK_ACK` arrives.
/// When the transport fails mid-session, the client reconnects under
/// its [`ReconnectPolicy`], resumes via the epoch handshake, trims the
/// buffer to the daemon's acked watermark, and replays only the unacked
/// tail — exactly-once, in-order delivery across daemon restarts. A
/// typed server rejection (epoch mismatch, abort, name in use) is never
/// retried.
pub struct CollectorClient {
    stream: Stream,
    endpoint: Endpoint,
    policy: ReconnectPolicy,
    session: Option<String>,
    session_id: u64,
    epoch: u64,
    credits: u32,
    max_credits: u32,
    events_sent: u64,
    /// Next chunk sequence number to assign.
    next_seq: u64,
    /// Sent-but-unacked chunks, oldest first: the replay buffer. Bounded
    /// by the credit window.
    unacked: VecDeque<(u64, Vec<u8>)>,
}

impl fmt::Debug for CollectorClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectorClient")
            .field("session", &self.session)
            .field("epoch", &self.epoch)
            .field("credits", &self.credits)
            .field("next_seq", &self.next_seq)
            .field("events_sent", &self.events_sent)
            .finish_non_exhaustive()
    }
}

impl CollectorClient {
    /// Opens a query-only connection (no session handshake, no
    /// reconnect).
    ///
    /// # Errors
    ///
    /// Socket connection failures.
    pub fn connect(socket: &Path) -> Result<CollectorClient, CollectorError> {
        Self::connect_to(&Endpoint::from(socket))
    }

    /// [`CollectorClient::connect`] for any [`Endpoint`] (Unix or TCP).
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect_to(endpoint: &Endpoint) -> Result<CollectorClient, CollectorError> {
        let stream = endpoint.connect()?;
        Ok(CollectorClient {
            stream,
            endpoint: endpoint.clone(),
            policy: ReconnectPolicy::disabled(),
            session: None,
            session_id: 0,
            epoch: 0,
            credits: 0,
            max_credits: 0,
            events_sent: 0,
            next_seq: 0,
            unacked: VecDeque::new(),
        })
    }

    /// Connects and opens a profiling session named `name`, with the
    /// default [`ReconnectPolicy`].
    ///
    /// # Errors
    ///
    /// Connection failures, or the server's rejection (bad name, name
    /// already in use, version mismatch) as [`CollectorError::Remote`].
    pub fn open_session(socket: &Path, name: &str) -> Result<CollectorClient, CollectorError> {
        Self::open_session_with(socket, name, ReconnectPolicy::default())
    }

    /// [`CollectorClient::open_session`] with an explicit reconnect
    /// policy.
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::open_session`].
    pub fn open_session_with(
        socket: &Path,
        name: &str,
        policy: ReconnectPolicy,
    ) -> Result<CollectorClient, CollectorError> {
        Self::open_session_at(&Endpoint::from(socket), name, policy)
    }

    /// [`CollectorClient::open_session_with`] for any [`Endpoint`]
    /// (Unix or TCP) — reconnects re-dial the same endpoint.
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::open_session`].
    pub fn open_session_at(
        endpoint: &Endpoint,
        name: &str,
        policy: ReconnectPolicy,
    ) -> Result<CollectorClient, CollectorError> {
        let (stream, ack) = handshake(endpoint, &HelloRequest::new_session(name))?;
        Ok(CollectorClient {
            stream,
            endpoint: endpoint.clone(),
            policy,
            session: Some(name.to_string()),
            session_id: ack.session_id,
            epoch: ack.epoch,
            credits: ack.credits.max(1),
            max_credits: ack.credits.max(1),
            events_sent: 0,
            next_seq: 0,
            unacked: VecDeque::new(),
        })
    }

    /// Reattaches to a detached session — e.g. one a previous process
    /// streamed before crashing, or one recovered by a restarted daemon.
    /// The returned client continues the stream at the daemon's acked
    /// watermark (chunks below it are durable; the caller re-sends from
    /// there).
    ///
    /// # Errors
    ///
    /// Connection failures, or the typed rejection: epoch mismatch,
    /// session aborted/finished/attached, unknown name.
    pub fn resume_session(
        socket: &Path,
        name: &str,
        epoch: u64,
        policy: ReconnectPolicy,
    ) -> Result<CollectorClient, CollectorError> {
        Self::resume_session_at(&Endpoint::from(socket), name, epoch, policy)
    }

    /// [`CollectorClient::resume_session`] for any [`Endpoint`] — a
    /// session opened over one transport may resume over the other; the
    /// epoch handshake, not the transport, identifies the stream.
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::resume_session`].
    pub fn resume_session_at(
        endpoint: &Endpoint,
        name: &str,
        epoch: u64,
        policy: ReconnectPolicy,
    ) -> Result<CollectorClient, CollectorError> {
        let (stream, ack) = handshake(endpoint, &HelloRequest::resume(name, epoch))?;
        Ok(CollectorClient {
            stream,
            endpoint: endpoint.clone(),
            policy,
            session: Some(name.to_string()),
            session_id: ack.session_id,
            epoch: ack.epoch,
            credits: ack.credits.max(1),
            max_credits: ack.credits.max(1),
            events_sent: 0,
            next_seq: ack.acked_chunks,
            unacked: VecDeque::new(),
        })
    }

    /// The session name, when this connection opened one.
    pub fn session(&self) -> Option<&str> {
        self.session.as_deref()
    }

    /// The server-assigned session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The session's incarnation epoch (what a resume handshake must
    /// echo).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Events sent so far over this client (across reconnects).
    pub fn events_sent(&self) -> u64 {
        self.events_sent
    }

    /// Encodes `events` as one codec-v3 chunk and streams it, blocking
    /// on the credit window when the daemon applies backpressure.
    ///
    /// # Errors
    ///
    /// Transport failures that outlive the reconnect policy, or a typed
    /// server-side rejection.
    pub fn send_events(&mut self, events: &[Event]) -> Result<(), CollectorError> {
        let chunk = encode_events(events);
        self.send_chunk_bytes(&chunk)?;
        self.events_sent += events.len() as u64;
        Ok(())
    }

    /// [`CollectorClient::send_events`] with the producer's declaration
    /// at the cut in the chunk footer ([`encode_declared`]). From the
    /// first declared chunk on, the daemon holds the session to each
    /// declaration: a later event that starts before the frontier
    /// without closing a declared scope, a close that ends before the
    /// cut, a declared scope that vanishes without its close, a
    /// frontier that moves back, or an undeclared chunk aborts the
    /// session with [`ErrorCode::Protocol`].
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::send_events`].
    pub fn send_declared(&mut self, events: &[Event], cut: &Cut) -> Result<(), CollectorError> {
        let chunk = encode_declared(events, cut);
        self.send_chunk_bytes(&chunk)?;
        self.events_sent += events.len() as u64;
        Ok(())
    }

    /// Streams an already-encoded chunk (any format [`decode_events`]
    /// accepts — the zero-copy path for relaying existing chunk files).
    ///
    /// [`decode_events`]: rlscope_core::store::decode_events
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::send_events`].
    pub fn send_chunk_bytes(&mut self, chunk: &[u8]) -> Result<(), CollectorError> {
        if self.session.is_none() {
            return Err(CollectorError::Protocol("no open session".into()));
        }
        loop {
            while self.credits == 0 {
                match self.recv_ack() {
                    Ok(()) => {}
                    Err(CollectorError::Io(e)) => {
                        self.recover(CollectorError::Io(e))?;
                    }
                    Err(e) => return Err(e),
                }
            }
            let seq = self.next_seq;
            match write_frame_parts(&mut self.stream, kind::CHUNK, &seq.to_be_bytes(), chunk) {
                Ok(()) => {
                    // Buffered only after a successful write: a failed
                    // write retries the send itself, and buffering first
                    // would replay the chunk twice.
                    self.unacked.push_back((seq, chunk.to_vec()));
                    self.next_seq += 1;
                    self.credits -= 1;
                    return Ok(());
                }
                Err(e) => {
                    // A write failure can also mean the server rejected an
                    // earlier chunk and closed: its typed ERROR frame is
                    // sitting in our receive buffer behind any acks —
                    // surface that instead of an opaque broken pipe.
                    if let Some(remote) = self.pending_server_error() {
                        return Err(remote);
                    }
                    self.recover(CollectorError::Io(e))?;
                }
            }
        }
    }

    /// Drains buffered incoming frames looking for a server `ERROR`
    /// (skipping acks), without blocking for more than a short grace
    /// period. Used to explain transport failures.
    fn pending_server_error(&mut self) -> Option<CollectorError> {
        let _ = self.stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut found = None;
        for _ in 0..self.max_credits.max(1) + 1 {
            match read_frame(&mut self.stream) {
                Ok(Some((kind::ERROR, payload))) => {
                    found = Some(decode_error(&payload));
                    break;
                }
                Ok(Some((kind::CHUNK_ACK, payload))) => {
                    self.note_ack(&payload);
                    continue;
                }
                _ => break,
            }
        }
        let _ = self.stream.set_read_timeout(None);
        found
    }

    /// Applies one `CHUNK_ACK` payload to the replay buffer and credit
    /// window.
    fn note_ack(&mut self, payload: &[u8]) {
        if payload.len() != 12 {
            return;
        }
        let Some((seq_bytes, _)) = payload.split_first_chunk::<8>() else {
            return;
        };
        let seq = u64::from_be_bytes(*seq_bytes);
        while self.unacked.front().is_some_and(|(s, _)| *s <= seq) {
            self.unacked.pop_front();
        }
        self.credits = (self.credits + 1).min(self.max_credits);
    }

    fn recv_ack(&mut self) -> Result<(), CollectorError> {
        let (frame_kind, payload) = expect_frame(&mut self.stream)?;
        match frame_kind {
            kind::CHUNK_ACK => {
                self.note_ack(&payload);
                Ok(())
            }
            kind::ERROR => Err(decode_error(&payload)),
            other => {
                Err(CollectorError::Protocol(format!("unexpected ack frame kind {other:#04x}")))
            }
        }
    }

    /// Blocks until every in-flight chunk is acknowledged — the barrier
    /// before a query or finish, so replies cannot interleave with acks.
    /// Transport failures reconnect and replay under the policy.
    fn drain_acks(&mut self) -> Result<(), CollectorError> {
        while self.credits < self.max_credits || !self.unacked.is_empty() {
            match self.recv_ack() {
                Ok(()) => {}
                Err(CollectorError::Io(e)) => self.recover(CollectorError::Io(e))?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The reconnect loop: backoff, reconnect, resume at this epoch,
    /// trim the replay buffer to the daemon's acked watermark, replay
    /// the unacked tail. Gives up (returning `last`) when the policy is
    /// exhausted; returns a typed server rejection immediately.
    fn recover(&mut self, last: CollectorError) -> Result<(), CollectorError> {
        let Some(name) = self.session.clone() else { return Err(last) };
        let mut backoff = self.policy.initial_backoff;
        let mut last = last;
        for _ in 0..self.policy.max_attempts {
            std::thread::sleep(backoff);
            backoff = (backoff * 2).min(self.policy.max_backoff);
            match self.try_resume(&name) {
                Ok(()) => return Ok(()),
                Err(CollectorError::Io(e)) => last = CollectorError::Io(e),
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    /// One resume attempt: handshake, trim, replay.
    fn try_resume(&mut self, name: &str) -> Result<(), CollectorError> {
        let (stream, ack) = handshake(&self.endpoint, &HelloRequest::resume(name, self.epoch))?;
        self.stream = stream;
        self.max_credits = ack.credits.max(1);
        self.credits = self.max_credits;
        // Chunks below the watermark are durable on the daemon; replay
        // starts at the watermark — never before it, never past a gap.
        while self.unacked.front().is_some_and(|(seq, _)| *seq < ack.acked_chunks) {
            self.unacked.pop_front();
        }
        let pending: Vec<(u64, Vec<u8>)> = self.unacked.iter().cloned().collect();
        for (seq, chunk) in pending {
            while self.credits == 0 {
                self.recv_ack()?;
            }
            write_frame_parts(&mut self.stream, kind::CHUNK, &seq.to_be_bytes(), &chunk)?;
            self.credits -= 1;
        }
        Ok(())
    }

    /// One request on this connection: outstanding chunk acks are drained
    /// first (so the reply cannot interleave with them, and reflects at
    /// least every chunk this client has sent), then `send` writes the
    /// request frame and `parse` reads the reply frame that answers it
    /// (`None` for any other kind). A transport failure reconnects,
    /// resumes and retries under the policy; a query-only connection has
    /// no acks to drain and no session to resume, so it runs the
    /// exchange once.
    fn request<T>(
        &mut self,
        send: impl Fn(&mut Stream) -> Result<(), TraceIoError>,
        parse: impl Fn(u8, &[u8]) -> Option<Result<T, CollectorError>>,
    ) -> Result<T, CollectorError> {
        loop {
            self.drain_acks()?;
            match self.exchange(&send, &parse) {
                Err(CollectorError::Io(e)) => self.recover(CollectorError::Io(e))?,
                other => return other,
            }
        }
    }

    /// Writes one request frame and reads its reply: what `parse` makes
    /// of the frame, the server's typed `ERROR`, or a protocol error for
    /// a kind neither expects.
    fn exchange<T>(
        &mut self,
        send: impl Fn(&mut Stream) -> Result<(), TraceIoError>,
        parse: impl Fn(u8, &[u8]) -> Option<Result<T, CollectorError>>,
    ) -> Result<T, CollectorError> {
        send(&mut self.stream)?;
        let (frame_kind, payload) = expect_frame(&mut self.stream)?;
        match parse(frame_kind, &payload) {
            Some(parsed) => parsed,
            None if frame_kind == kind::ERROR => Err(decode_error(&payload)),
            None => {
                Err(CollectorError::Protocol(format!("unexpected reply kind {frame_kind:#04x}")))
            }
        }
    }

    /// Runs a query. On a session connection, outstanding chunk acks are
    /// drained first, so the reply reflects at least every chunk this
    /// client has sent (its own writes are always visible).
    ///
    /// # Errors
    ///
    /// Transport failures (after reconnect attempts, for session
    /// connections) or a server-side error reply.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<QueryReply, CollectorError> {
        let spec = spec.encode();
        self.request(
            |stream| write_frame(stream, kind::QUERY, &spec),
            |reply, payload| match reply {
                kind::QUERY_OK => Some(QueryReply::decode(payload)),
                _ => None,
            },
        )
    }

    /// Lists every session the daemon holds (name-sorted), with
    /// liveness and the daemon's event count.
    ///
    /// # Errors
    ///
    /// Transport failures (after reconnect attempts, for session
    /// connections) or a server-side error reply.
    pub fn list_sessions(&mut self) -> Result<SessionList, CollectorError> {
        self.request(
            |stream| write_frame(stream, kind::LIST_SESSIONS, &[]),
            |reply, payload| match reply {
                kind::SESSIONS => Some(SessionList::decode(payload)),
                _ => None,
            },
        )
    }

    /// Runs one query across every session the daemon holds (the
    /// `QUERY_ALL` frame; the spec must carry
    /// [`QueryTarget::AllSessions`](crate::protocol::QueryTarget::AllSessions)).
    /// The reply's grouped tables are machine-mergeable — what a
    /// [`FleetClient`](crate::fleet::FleetClient) folds across daemons.
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::query`].
    pub fn query_all(&mut self, spec: &QuerySpec) -> Result<QueryAllReply, CollectorError> {
        let spec = spec.encode();
        self.request(
            |stream| write_frame(stream, kind::QUERY_ALL, &spec),
            |reply, payload| match reply {
                kind::QUERY_ALL_OK => Some(QueryAllReply::decode(payload)),
                _ => None,
            },
        )
    }

    /// Finishes the session durably: drains acks, sends `FINISH`, and
    /// waits for the daemon's acknowledgment (every chunk file durable,
    /// the session settled). The connection stays usable for queries.
    ///
    /// If the transport fails around the finish exchange, the client
    /// reconnects and retries; a resume handshake answered "already
    /// finished" means the daemon committed before the failure, and the
    /// finish reports success.
    ///
    /// # Errors
    ///
    /// Transport failures that outlive the reconnect policy, or a
    /// server-side error reply.
    pub fn finish(&mut self) -> Result<SessionSummary, CollectorError> {
        if self.session.is_none() {
            return Err(CollectorError::Protocol("no open session to finish".into()));
        }
        let finished = self.request(
            |stream| write_frame(stream, kind::FINISH, &[]),
            |reply, payload| match reply {
                kind::FINISH_ACK => Some(decode_finish_ack(payload)),
                _ => None,
            },
        );
        let summary = match finished {
            // The FINISH committed; only its ack was lost.
            Err(CollectorError::Remote { code: Some(ErrorCode::SessionExists), .. }) => {
                SessionSummary { chunks: self.next_seq, events: self.events_sent }
            }
            other => other?,
        };
        self.session = None;
        Ok(summary)
    }
}

/// Parses a `FINISH_ACK` payload: `chunks:u64 | events:u64`.
fn decode_finish_ack(payload: &[u8]) -> Result<SessionSummary, CollectorError> {
    match (payload.len(), payload.first_chunk::<8>(), payload.last_chunk::<8>()) {
        (16, Some(chunk_bytes), Some(event_bytes)) => Ok(SessionSummary {
            chunks: u64::from_be_bytes(*chunk_bytes),
            events: u64::from_be_bytes(*event_bytes),
        }),
        _ => Err(CollectorError::Protocol("malformed FINISH_ACK payload".into())),
    }
}

/// One connect + HELLO exchange.
fn handshake(
    endpoint: &Endpoint,
    hello: &HelloRequest,
) -> Result<(Stream, HelloAck), CollectorError> {
    let mut stream = endpoint.connect()?;
    write_frame(&mut stream, kind::HELLO, &hello.encode())?;
    let (frame_kind, payload) = expect_frame(&mut stream)?;
    match frame_kind {
        kind::HELLO_ACK => {
            let ack = HelloAck::decode(&payload)?;
            Ok((stream, ack))
        }
        kind::ERROR => Err(decode_error(&payload)),
        other => Err(CollectorError::Protocol(format!("unexpected HELLO reply kind {other:#04x}"))),
    }
}

fn expect_frame(stream: &mut Stream) -> Result<(u8, Vec<u8>), CollectorError> {
    match read_frame(stream)? {
        Some(frame) => Ok(frame),
        // A transport failure like any other (a killed daemon's socket
        // reads as a clean EOF): session connections reconnect on it.
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        )
        .into()),
    }
}

/// How many batches [`CollectorSink::emit`] may queue ahead of the one
/// its sender thread is sending: one queued and one in flight, so the
/// training thread overlaps one encode + write and then feels the
/// daemon's backpressure.
const SEND_QUEUE_DEPTH: usize = 1;

/// Work for a sink's sender thread, in the order it was queued.
enum Job {
    /// A batch and the declaration the profiler made beside it, if any.
    Batch(Vec<Event>, Option<Cut>),
    Query(QuerySpec, SyncSender<Result<QueryReply, CollectorError>>),
    Finish(SyncSender<Result<SessionSummary, CollectorError>>),
}

/// An [`EventSink`] that streams a profiler's events into a collector
/// session — attach with
/// [`Profiler::stream_to`](rlscope_core::profiler::Profiler::stream_to)
/// and the workload's trace flows to the daemon while it runs. The
/// underlying client reconnects and replays transparently under its
/// [`ReconnectPolicy`], so a daemon restart pauses the stream instead
/// of killing the run.
///
/// The client lives on one sender thread per sink. `emit` queues the
/// batch for it and returns: it may return before the batch is
/// delivered, and it blocks only while the queue is full, which is how
/// the daemon's backpressure reaches the training thread.
/// [`CollectorSink::query`] and [`CollectorSink::finish`] go through
/// the same queue and wait for their answer, so each is a barrier: it
/// runs after every batch emitted before it.
///
/// `emit` cannot return errors through the profiler, so transport
/// failures that outlive the policy are latched: the first error stops
/// further sends and is surfaced by [`CollectorSink::finish`], which
/// then never sends `FINISH` (a session missing a batch stays
/// unfinished). If the sender thread is gone, `finish` and `query`
/// return [`CollectorError::SinkClosed`]. Dropping the sink sends what
/// is queued and joins the thread.
pub struct CollectorSink {
    /// `None` only inside `drop`, which closes the queue to stop the
    /// sender thread.
    jobs: Option<SyncSender<Job>>,
    sender: Option<JoinHandle<()>>,
}

impl fmt::Debug for CollectorSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CollectorSink").finish_non_exhaustive()
    }
}

impl CollectorSink {
    /// Connects and opens a session with the default reconnect policy
    /// (see [`CollectorClient::open_session`]).
    ///
    /// # Errors
    ///
    /// Connection or handshake failures.
    pub fn connect(socket: &Path, session: &str) -> Result<Arc<CollectorSink>, CollectorError> {
        Self::connect_with(socket, session, ReconnectPolicy::default())
    }

    /// [`CollectorSink::connect`] with an explicit reconnect policy.
    /// Spawns the sink's sender thread.
    ///
    /// # Errors
    ///
    /// Connection or handshake failures, or a failure to spawn the
    /// thread.
    pub fn connect_with(
        socket: &Path,
        session: &str,
        policy: ReconnectPolicy,
    ) -> Result<Arc<CollectorSink>, CollectorError> {
        let client = CollectorClient::open_session_with(socket, session, policy)?;
        let (jobs, queue) = std::sync::mpsc::sync_channel(SEND_QUEUE_DEPTH);
        let sender = std::thread::Builder::new()
            .name(format!("rlscope-sink-{session}"))
            .spawn(move || run_sender(client, queue))?;
        Ok(Arc::new(CollectorSink { jobs: Some(jobs), sender: Some(sender) }))
    }

    /// Queues `job` and waits for the sender thread's answer on the
    /// reply channel `make` hands it.
    fn call<T>(
        &self,
        make: impl FnOnce(SyncSender<Result<T, CollectorError>>) -> Job,
    ) -> Result<T, CollectorError> {
        let (reply, answer) = std::sync::mpsc::sync_channel(1);
        let jobs = self.jobs.as_ref().ok_or(CollectorError::SinkClosed)?;
        jobs.send(make(reply)).map_err(|_| CollectorError::SinkClosed)?;
        answer.recv().map_err(|_| CollectorError::SinkClosed)?
    }

    /// Finishes the session durably once every emitted batch is sent,
    /// surfacing any latched streaming error instead. The underlying
    /// connection stays open for queries.
    ///
    /// # Errors
    ///
    /// A latched transport error from `emit` (and, on a later call, a
    /// protocol error: the session stays unfinished), the finish
    /// exchange's own failure, or [`CollectorError::SinkClosed`].
    pub fn finish(&self) -> Result<SessionSummary, CollectorError> {
        self.call(Job::Finish)
    }

    /// Runs a query over this sink's connection (e.g. asking about the
    /// session itself, mid-run), after every emitted batch is sent.
    ///
    /// # Errors
    ///
    /// See [`CollectorClient::query`]; [`CollectorError::SinkClosed`]
    /// if the sender thread is gone.
    pub fn query(&self, spec: &QuerySpec) -> Result<QueryReply, CollectorError> {
        self.call(|reply| Job::Query(spec.clone(), reply))
    }
}

impl EventSink for CollectorSink {
    /// Queues the batch, with the profiler's declaration when the
    /// profiler handed it over ([`cut_of`]): a declared batch goes out
    /// as a declared chunk ([`CollectorClient::send_declared`]).
    fn emit(&self, events: Vec<Event>) {
        let cut = cut_of(&events);
        // A closed queue means the sender thread is gone; `finish` then
        // reports it, so the batch has nowhere to go.
        if let Some(jobs) = &self.jobs {
            let _ = jobs.send(Job::Batch(events, cut));
        }
    }
}

impl Drop for CollectorSink {
    fn drop(&mut self) {
        drop(self.jobs.take());
        if let Some(sender) = self.sender.take() {
            let _ = sender.join();
        }
    }
}

/// The sender thread: runs the queued jobs in order until the sink
/// closes the queue. The first failed send latches; after it, batches
/// are dropped unsent and `FINISH` is never sent.
fn run_sender(mut client: CollectorClient, jobs: Receiver<Job>) {
    let mut latched: Option<CollectorError> = None;
    let mut failed = false;
    for job in jobs {
        match job {
            Job::Batch(..) if failed => {}
            Job::Batch(events, cut) => {
                let sent = match &cut {
                    Some(cut) => client.send_declared(&events, cut),
                    None => client.send_events(&events),
                };
                if let Err(e) = sent {
                    latched = Some(e);
                    failed = true;
                }
            }
            Job::Query(spec, reply) => {
                let _ = reply.send(client.query(&spec));
            }
            Job::Finish(reply) => {
                let result = match latched.take() {
                    Some(e) => Err(e),
                    None if failed => Err(CollectorError::Protocol(
                        "a batch was lost to an earlier error; the session stays unfinished".into(),
                    )),
                    None => client.finish(),
                };
                let _ = reply.send(result);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc::sync_channel;

    /// A sink over a queue whose consumer is `thread` instead of
    /// `run_sender`: the sink's own half is what these tests check.
    fn sink_over(thread: impl FnOnce(Receiver<Job>) + Send + 'static) -> CollectorSink {
        let (jobs, queue) = sync_channel(SEND_QUEUE_DEPTH);
        let sender = std::thread::spawn(move || thread(queue));
        CollectorSink { jobs: Some(jobs), sender: Some(sender) }
    }

    /// A sender thread that dies (mid-job, or before any job) leaves a
    /// sink whose `emit` returns and whose `finish` and `query` report
    /// the typed [`CollectorError::SinkClosed`].
    #[test]
    fn sink_with_a_dead_sender_thread_reports_sink_closed() {
        // Takes one job, then dies without answering it.
        let sink = sink_over(|queue| drop(queue.recv()));
        assert!(matches!(sink.finish(), Err(CollectorError::SinkClosed)));
        sink.emit(Vec::new());
        assert!(matches!(sink.finish(), Err(CollectorError::SinkClosed)));
        let spec = QuerySpec::session("gone");
        assert!(matches!(sink.query(&spec), Err(CollectorError::SinkClosed)));
    }

    /// Dropping a sink that was never finished closes its queue and
    /// waits for the sender thread to exit.
    #[test]
    fn sink_drop_joins_its_sender_thread() {
        let exited = Arc::new(AtomicBool::new(false));
        let flag = exited.clone();
        let sink = sink_over(move |queue| {
            for _ in queue {}
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, Ordering::SeqCst);
        });
        sink.emit(Vec::new());
        drop(sink);
        assert!(exited.load(Ordering::SeqCst), "drop returned before the thread exited");
    }
}
