//! A small raw protocol client built on the public `protocol::*`
//! codecs and `store::write_frame_parts` / `read_frame`. Unlike
//! `CollectorClient` it exposes what the benchmark needs to observe
//! from outside: each chunk's send → `CHUNK_ACK` time, and the
//! `FINISH` → `FINISH_ACK` time.

use rlscope_collector::protocol::kind;
use rlscope_collector::{
    CollectorError, Endpoint, ErrorCode, HelloAck, HelloRequest, QueryReply, QuerySpec, Stream,
};
use rlscope_core::store::{read_frame, write_frame, write_frame_parts};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::time::{Duration, Instant};

/// How long a read may wait for the daemon before the operation counts
/// as failed. Generous: the slowest answer of any workload takes a
/// fraction of a second.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Incoming bytes, buffered so that a read timeout in the middle of a
/// frame loses nothing: frames are parsed out only once complete.
#[derive(Debug, Default)]
struct FrameBuffer {
    bytes: Vec<u8>,
}

impl FrameBuffer {
    /// Pops one complete frame, if the buffer holds one.
    fn pop(&mut self) -> Result<Option<(u8, Vec<u8>)>, CollectorError> {
        let Some(header) = self.bytes.first_chunk::<4>() else { return Ok(None) };
        let need = 5 + u32::from_be_bytes(*header) as usize;
        if self.bytes.len() < need {
            return Ok(None);
        }
        let frame = read_frame(&mut &self.bytes[..need])?;
        self.bytes.drain(..need);
        Ok(frame)
    }

    /// Reads once from `stream` (blocking up to its read timeout).
    /// `Ok(false)` on timeout.
    fn fill(&mut self, stream: &mut Stream) -> Result<bool, CollectorError> {
        let mut buf = [0u8; 4096];
        match stream.read(&mut buf) {
            Ok(0) => Err(CollectorError::Protocol("server closed the connection".into())),
            Ok(n) => {
                self.bytes.extend_from_slice(&buf[..n]);
                Ok(true)
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(true),
            Err(e) => Err(e.into()),
        }
    }
}

/// Decodes an `ERROR` payload (`code:u8 | msg_len:u16 | message`) into
/// the typed error; the crate's own decoder is not public.
fn decode_error(payload: &[u8]) -> CollectorError {
    let Some((&code, rest)) = payload.split_first() else {
        return CollectorError::Protocol("empty ERROR payload".into());
    };
    let message = rest.get(2..).map(String::from_utf8_lossy).unwrap_or_default().into_owned();
    CollectorError::Remote { code: ErrorCode::from_u8(code), message }
}

/// What `FINISH_ACK` reported, and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    pub chunks: u64,
    pub events: u64,
    pub ack_ms: f64,
}

/// One session connection speaking protocol v2 directly.
#[derive(Debug)]
pub struct RawClient {
    stream: Stream,
    incoming: FrameBuffer,
    credits: u32,
    next_seq: u64,
    /// Sent-but-unacked chunks: `(seq, sent at)`, oldest first.
    inflight: VecDeque<(u64, Instant)>,
    /// The session epoch a resume handshake must echo.
    pub epoch: u64,
    /// The daemon's acked-chunk watermark at the handshake.
    pub acked_at_hello: u64,
    /// Send → `CHUNK_ACK` per chunk, in milliseconds, in ack order.
    pub ack_ms: Vec<f64>,
    /// Events the daemon has acknowledged as durable on this connection.
    pub events_acked: u64,
}

impl RawClient {
    /// Opens a new session.
    pub fn open(endpoint: &Endpoint, name: &str) -> Result<RawClient, CollectorError> {
        Self::hello(endpoint, &HelloRequest::new_session(name))
    }

    /// Resumes a detached session at `epoch`; sending continues at
    /// [`RawClient::acked_at_hello`].
    pub fn resume(
        endpoint: &Endpoint,
        name: &str,
        epoch: u64,
    ) -> Result<RawClient, CollectorError> {
        Self::hello(endpoint, &HelloRequest::resume(name, epoch))
    }

    fn hello(endpoint: &Endpoint, hello: &HelloRequest) -> Result<RawClient, CollectorError> {
        let mut stream = endpoint.connect()?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        write_frame(&mut stream, kind::HELLO, &hello.encode())?;
        let mut client = RawClient {
            stream,
            incoming: FrameBuffer::default(),
            credits: 0,
            next_seq: 0,
            inflight: VecDeque::new(),
            epoch: 0,
            acked_at_hello: 0,
            ack_ms: Vec::new(),
            events_acked: 0,
        };
        let payload = client.expect(kind::HELLO_ACK)?;
        let ack = HelloAck::decode(&payload)?;
        client.credits = ack.credits.max(1);
        client.epoch = ack.epoch;
        client.acked_at_hello = ack.acked_chunks;
        client.next_seq = ack.acked_chunks;
        Ok(client)
    }

    /// Blocks for the next frame, for at most [`READ_TIMEOUT`] without
    /// a byte arriving.
    fn next_frame(&mut self) -> Result<(u8, Vec<u8>), CollectorError> {
        loop {
            if let Some(frame) = self.incoming.pop()? {
                return Ok(frame);
            }
            if !self.incoming.fill(&mut self.stream)? {
                return Err(std::io::Error::new(
                    ErrorKind::TimedOut,
                    format!("no frame from the daemon within {READ_TIMEOUT:?}"),
                )
                .into());
            }
        }
    }

    /// Blocks for a frame of `want` kind, absorbing chunk acks on the
    /// way; a server `ERROR` frame becomes the typed error.
    fn expect(&mut self, want: u8) -> Result<Vec<u8>, CollectorError> {
        loop {
            let frame = self.next_frame()?;
            if frame.0 == want {
                return Ok(frame.1);
            }
            self.absorb(frame, "while waiting for a reply")?;
        }
    }

    /// Handles a frame that is not the reply being waited for: a chunk
    /// ack is recorded, a server `ERROR` becomes the typed error, and
    /// anything else is a protocol violation `when` it arrived.
    fn absorb(&mut self, frame: (u8, Vec<u8>), when: &str) -> Result<(), CollectorError> {
        match frame {
            (kind::CHUNK_ACK, payload) => self.note_ack(&payload),
            (kind::ERROR, payload) => Err(decode_error(&payload)),
            (other, _) => {
                Err(CollectorError::Protocol(format!("unexpected frame kind {other:#04x} {when}")))
            }
        }
    }

    fn note_ack(&mut self, payload: &[u8]) -> Result<(), CollectorError> {
        let now = Instant::now();
        let (Some(seq), Some(events)) = (payload.first_chunk::<8>(), payload.last_chunk::<4>())
        else {
            return Err(CollectorError::Protocol("short CHUNK_ACK payload".into()));
        };
        if payload.len() != 12 {
            return Err(CollectorError::Protocol("CHUNK_ACK payload is not 12 bytes".into()));
        }
        let seq = u64::from_be_bytes(*seq);
        match self.inflight.pop_front() {
            Some((sent_seq, sent_at)) if sent_seq == seq => {
                self.ack_ms.push(now.duration_since(sent_at).as_secs_f64() * 1e3);
            }
            other => {
                return Err(CollectorError::Protocol(format!(
                    "CHUNK_ACK for seq {seq} but oldest in flight is {other:?}"
                )))
            }
        }
        self.events_acked += u64::from(u32::from_be_bytes(*events));
        self.credits += 1;
        Ok(())
    }

    /// Sends one encoded chunk, first blocking on the credit window
    /// like any conforming client.
    pub fn send_chunk(&mut self, chunk: &[u8]) -> Result<(), CollectorError> {
        while self.credits == 0 {
            let frame = self.next_frame()?;
            self.absorb(frame, "while waiting for credit")?;
        }
        let seq = self.next_seq;
        self.inflight.push_back((seq, Instant::now()));
        write_frame_parts(&mut self.stream, kind::CHUNK, &seq.to_be_bytes(), chunk)?;
        self.next_seq += 1;
        self.credits -= 1;
        Ok(())
    }

    /// Absorbs acks as they arrive until `deadline` or until nothing is
    /// in flight — what a paced producer does between sends, so ack
    /// times are observed when acks arrive, not when credit runs out.
    pub fn absorb_acks_until(&mut self, deadline: Instant) -> Result<(), CollectorError> {
        while !self.inflight.is_empty() {
            while let Some(frame) = self.incoming.pop()? {
                self.absorb(frame, "between chunks")?;
            }
            if self.inflight.is_empty() {
                break;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left < Duration::from_micros(50) {
                break;
            }
            self.stream.set_read_timeout(Some(left))?;
            let got = self.incoming.fill(&mut self.stream);
            self.stream.set_read_timeout(Some(READ_TIMEOUT))?;
            if !got? {
                break;
            }
        }
        Ok(())
    }

    /// Blocks until every sent chunk is acknowledged.
    pub fn drain(&mut self) -> Result<(), CollectorError> {
        while !self.inflight.is_empty() {
            let frame = self.next_frame()?;
            self.absorb(frame, "while draining acks")?;
        }
        Ok(())
    }

    /// Drains acks, then runs one query on this connection.
    pub fn query(&mut self, spec: &QuerySpec) -> Result<QueryReply, CollectorError> {
        self.drain()?;
        write_frame(&mut self.stream, kind::QUERY, &spec.encode())?;
        QueryReply::decode(&self.expect(kind::QUERY_OK)?)
    }

    /// Drains acks, sends `FINISH`, and waits for the durable ack.
    pub fn finish(&mut self) -> Result<Finished, CollectorError> {
        self.drain()?;
        let sent = Instant::now();
        write_frame(&mut self.stream, kind::FINISH, &[])?;
        let payload = self.expect(kind::FINISH_ACK)?;
        let ack_ms = sent.elapsed().as_secs_f64() * 1e3;
        match (payload.first_chunk::<8>(), payload.last_chunk::<8>()) {
            (Some(chunks), Some(events)) if payload.len() == 16 => Ok(Finished {
                chunks: u64::from_be_bytes(*chunks),
                events: u64::from_be_bytes(*events),
                ack_ms,
            }),
            _ => Err(CollectorError::Protocol("FINISH_ACK payload is not 16 bytes".into())),
        }
    }
}
