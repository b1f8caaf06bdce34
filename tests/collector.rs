//! Loopback integration tests for the live collector daemon: concurrent
//! multi-session ingest over a real Unix socket, mid-run consistent-
//! prefix queries, batch-identical final tables, protocol abuse, and the
//! answers of finished sessions (their seals and their directories).

mod common;

use common::{
    rlscoped_bin, scratch, session_events, spawn_rlscoped, try_spawn_rlscoped_tcp, Rlscoped,
    Scratch,
};
use proptest::prelude::*;
use rlscope::collector::protocol::kind;
use rlscope::collector::{
    Collector, CollectorClient, CollectorConfig, CollectorError, CollectorSink, ErrorCode,
    HelloAck, HelloRequest, QuerySpec, SessionPhase, StorageTier,
};
use rlscope::core::analysis::{Analysis, Dim};
use rlscope::core::event::{CpuCategory, Event, EventKind, GpuCategory};
use rlscope::core::store::{
    encode_declared, encode_events, read_frame, write_frame, Cut, EventColumns, OpenScope,
    TraceWriter,
};
use rlscope::sim::ids::ProcessId;
use rlscope::sim::time::TimeNs;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// An in-process daemon in a fresh scratch directory, and its socket.
fn bind(tag: &str) -> (Scratch, Collector, PathBuf) {
    let (scratch, socket, data) = scratch(tag);
    let collector = Collector::bind(CollectorConfig::new(&socket, data)).unwrap();
    (scratch, collector, socket)
}

/// `n` events from each of four processes, interleaved event by event:
/// every chunk carries all four pids and arrives out of start order.
fn four_process_events(n: usize) -> Vec<Event> {
    let streams: Vec<Vec<Event>> = (0..4).map(|pid| session_events(pid, n)).collect();
    let longest = streams.iter().map(Vec::len).max().unwrap();
    (0..longest).flat_map(|i| streams.iter().filter_map(move |s| s.get(i).cloned())).collect()
}

/// The acceptance test: 4 concurrent sessions stream ≥100k events each;
/// a mid-run live query returns a consistent prefix (batch-identical
/// canonical JSON over exactly the events acknowledged so far), and the
/// final per-session tables are byte-identical to the exact in-memory sweep
/// of the same events — both through the live path and through the
/// finished chunk directory.
#[test]
fn four_concurrent_sessions_stream_live_queries_and_batch_identical_tables() {
    const EVENTS_PER_SESSION: usize = 100_000;
    const CHUNK: usize = 4_096;
    let (_scratch, collector, socket) = bind("four");

    let workers: Vec<_> = (0..4u32)
        .map(|s| {
            let socket = socket.clone();
            std::thread::spawn(move || {
                let events = if s == 3 {
                    // One multi-process session: interleave two pids so the
                    // live merged sweep exercises its promotion path.
                    let mut events = session_events(30, EVENTS_PER_SESSION / 2);
                    let other = session_events(31, EVENTS_PER_SESSION / 2);
                    let mut merged = Vec::with_capacity(EVENTS_PER_SESSION);
                    let mut a = events.drain(..);
                    let mut b = other.into_iter();
                    loop {
                        match (a.next(), b.next()) {
                            (Some(x), Some(y)) => {
                                merged.push(x);
                                merged.push(y);
                            }
                            (Some(x), None) => merged.push(x),
                            (None, Some(y)) => merged.push(y),
                            (None, None) => break,
                        }
                    }
                    merged
                } else {
                    session_events(s, EVENTS_PER_SESSION)
                };
                assert!(events.len() >= EVENTS_PER_SESSION - 2);
                let name = format!("session-{s}");
                let mut client = CollectorClient::open_session(&socket, &name).unwrap();

                let chunks: Vec<&[Event]> = events.chunks(CHUNK).collect();
                let half = chunks.len() / 2;
                for chunk in &chunks[..half] {
                    client.send_events(chunk).unwrap();
                }

                // Mid-run: the live query must observe exactly the prefix
                // this client has streamed (its own writes are drained
                // before the query), with batch-identical tables.
                let sent = client.events_sent() as usize;
                assert_eq!(sent, half * CHUNK);
                let live = client.query(&QuerySpec::session(&name)).unwrap();
                assert!(live.live && !live.cache_hit);
                assert_eq!(live.events_observed, sent as u64);
                let batch_prefix = Analysis::of_events(&events[..sent]).canonical_json().unwrap();
                assert_eq!(live.canonical_json, batch_prefix, "live prefix diverged ({name})");
                let live_grouped = client
                    .query(&QuerySpec::session(&name).group_by([Dim::Phase, Dim::Process]))
                    .unwrap();
                assert_eq!(
                    live_grouped.canonical_json,
                    Analysis::of_events(&events[..sent])
                        .group_by([Dim::Phase, Dim::Process])
                        .canonical_json()
                        .unwrap()
                );

                for chunk in &chunks[half..] {
                    client.send_events(chunk).unwrap();
                }
                let summary = client.finish().unwrap();
                assert_eq!(summary.events, events.len() as u64);
                assert_eq!(summary.chunks, chunks.len() as u64);

                // Post-finish: the query runs over the session's chunk
                // directory; tables must still be byte-identical to the
                // exact in-memory sweep of the full stream.
                let done = client.query(&QuerySpec::session(&name)).unwrap();
                assert!(!done.live && !done.cache_hit);
                assert_eq!(done.events_observed, events.len() as u64);
                let batch_full = Analysis::of_events(&events).canonical_json().unwrap();
                assert_eq!(done.canonical_json, batch_full, "finished table diverged ({name})");
                // A second identical query answers the same; nothing is
                // cached.
                let again = client.query(&QuerySpec::session(&name)).unwrap();
                assert!(!again.live && !again.cache_hit);
                assert_eq!(again.canonical_json, batch_full);
                // And the full filter surface works post-finish (window
                // queries push down through the manifest).
                let windowed =
                    client.query(&QuerySpec::session(&name).window(0, 1_000_000)).unwrap();
                assert_eq!(
                    windowed.canonical_json,
                    Analysis::of_events(&events)
                        .time_window(TimeNs::ZERO, TimeNs::from_nanos(1_000_000))
                        .canonical_json()
                        .unwrap()
                );
                events.len()
            })
        })
        .collect();
    let mut total = 0usize;
    for worker in workers {
        total += worker.join().expect("session worker panicked");
    }
    assert!(total >= 4 * (EVENTS_PER_SESSION - 2));
    let mut sessions = collector.sessions();
    sessions.sort();
    assert_eq!(
        sessions,
        (0..4).map(|s| (format!("session-{s}"), true)).collect::<Vec<_>>(),
        "all four sessions finished"
    );
    collector.shutdown();
}

/// Streaming through the profiler sink (the `Profiler::stream_to` path)
/// produces a live session whose final state matches the locally-kept
/// trace exactly.
#[test]
fn profiler_sink_streams_a_real_workload() {
    use rlscope::prelude::*;

    let (_scratch, collector, socket) = bind("sink");
    let sink = CollectorSink::connect(&socket, "workload").unwrap();
    let spec = TrainSpec {
        scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
        ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", STABLE_BASELINES, 40)
    };
    let outcome = spec.run_streamed(Toggles::all(), sink.clone(), 512);
    let trace = outcome.trace.unwrap();
    // The run has finished (profiler flushed everything) but the session
    // is still live: the live tables equal the local batch analysis.
    let live = sink.query(&QuerySpec::session("workload")).unwrap();
    assert!(live.live);
    assert_eq!(live.events_observed, trace.events.len() as u64);
    assert_eq!(live.canonical_json, Analysis::of(&trace).canonical_json().unwrap());
    let summary = sink.finish().unwrap();
    assert_eq!(summary.events, trace.events.len() as u64);
    let done = sink.query(&QuerySpec::session("workload").group_by([Dim::Operation])).unwrap();
    assert_eq!(
        done.canonical_json,
        Analysis::of(&trace).group_by([Dim::Operation]).canonical_json().unwrap()
    );
    collector.shutdown();
}

/// Frame-level abuse over the real socket: truncation of a valid session
/// byte stream at every offset, garbage bytes, and oversized length
/// fields must never panic the daemon, never mark a truncated session
/// finished (no silently dropped events), and never stop the daemon from
/// serving the next clean client.
#[test]
fn protocol_abuse_never_panics_and_never_fakes_a_finish() {
    let (_scratch, collector, socket) = bind("abuse");

    // A complete, valid session byte stream (HELLO + 2 chunks + FINISH)
    // with a patchable session name.
    let events = session_events(0, 64);
    let stream_bytes = |name: &str| -> Vec<u8> {
        let mut out = Vec::new();
        let mut hello = 2u32.to_be_bytes().to_vec();
        hello.push(0); // mode: new session
        hello.extend_from_slice(&(name.len() as u16).to_be_bytes());
        hello.extend_from_slice(name.as_bytes());
        write_frame(&mut out, 0x01, &hello).unwrap();
        for (seq, range) in [&events[..32], &events[32..]].into_iter().enumerate() {
            let mut chunk = (seq as u64).to_be_bytes().to_vec();
            chunk.extend_from_slice(&encode_events(range));
            write_frame(&mut out, 0x02, &chunk).unwrap();
        }
        write_frame(&mut out, 0x03, &[]).unwrap();
        out
    };
    let full_len = stream_bytes("fz-000000").len();
    // Truncate at every offset. A cut stream either errors or aborts at
    // EOF — the daemon survives and the session never reports finished.
    for cut in 0..full_len {
        let name = format!("fz-{cut:06}");
        let bytes = stream_bytes(&name);
        let mut conn = UnixStream::connect(&socket).unwrap();
        conn.write_all(&bytes[..cut]).unwrap();
        drop(conn);
    }
    // Interleaved-session garbage: valid frames with garbage payloads
    // and unknown kinds, plus raw noise.
    for (kind, payload) in [
        (0x02u8, b"garbage chunk".to_vec()),
        (0x01, vec![0xff; 3]),
        (0x04, vec![0x07; 40]),
        (0x7a, vec![1, 2, 3]),
    ] {
        let mut conn = UnixStream::connect(&socket).unwrap();
        let mut bytes = Vec::new();
        write_frame(&mut bytes, kind, &payload).unwrap();
        conn.write_all(&bytes).unwrap();
        drop(conn);
    }
    {
        // A length field far beyond the frame limit.
        let mut conn = UnixStream::connect(&socket).unwrap();
        let mut bytes = (u32::MAX).to_be_bytes().to_vec();
        bytes.push(0x02);
        bytes.extend_from_slice(&[0u8; 64]);
        conn.write_all(&bytes).unwrap();
        drop(conn);
    }

    // Connections are handled asynchronously: wait until the daemon has
    // registered every fuzz session, then assert none is finished.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        let sessions = collector.sessions();
        let fuzz: Vec<_> = sessions.iter().filter(|(n, _)| n.starts_with("fz-")).collect();
        // Sessions exist only for cuts past the HELLO frame; every one
        // of them must be unfinished (their streams were truncated).
        assert!(fuzz.iter().all(|(_, finished)| !finished), "truncated session marked finished");
        if fuzz.len() > full_len / 2 || std::time::Instant::now() > deadline {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }

    // The daemon is still healthy: a clean session round-trips.
    let mut client = CollectorClient::open_session(&socket, "clean").unwrap();
    client.send_events(&events).unwrap();
    client.finish().unwrap();
    let reply = client.query(&QuerySpec::session("clean")).unwrap();
    assert_eq!(reply.canonical_json, Analysis::of_events(&events).canonical_json().unwrap());
    collector.shutdown();
}

/// A raw session connection: the handshake by hand, then frames (and
/// their acks) under the test's control.
fn raw_session(socket: &Path, name: &str) -> UnixStream {
    let mut conn = UnixStream::connect(socket).unwrap();
    send_frame(&mut conn, kind::HELLO, &HelloRequest::new_session(name).encode());
    let (reply, payload) = read_frame(&mut conn).unwrap().unwrap();
    assert_eq!(reply, kind::HELLO_ACK);
    assert_eq!(HelloAck::decode(&payload).unwrap().acked_chunks, 0);
    conn
}

fn send_frame(conn: &mut UnixStream, frame_kind: u8, payload: &[u8]) {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, frame_kind, payload).unwrap();
    conn.write_all(&bytes).unwrap();
}

fn send_chunk(conn: &mut UnixStream, seq: u64, events: &[Event]) {
    let mut payload = seq.to_be_bytes().to_vec();
    payload.extend_from_slice(&encode_events(events));
    send_frame(conn, kind::CHUNK, &payload);
}

fn send_declared_chunk(conn: &mut UnixStream, seq: u64, events: &[Event], cut: &Cut) {
    let mut payload = seq.to_be_bytes().to_vec();
    payload.extend_from_slice(&encode_declared(events, cut));
    send_frame(conn, kind::CHUNK, &payload);
}

/// Reads one `CHUNK_ACK` as `(seq, events)`.
fn read_ack(conn: &mut UnixStream) -> (u64, u32) {
    let (reply, payload) = read_frame(conn).unwrap().unwrap();
    assert_eq!(reply, kind::CHUNK_ACK, "expected CHUNK_ACK, got kind {reply:#04x}");
    assert_eq!(payload.len(), 12);
    (
        u64::from_be_bytes(payload[..8].try_into().unwrap()),
        u32::from_be_bytes(payload[8..].try_into().unwrap()),
    )
}

/// The cross-connection half of the consistent-prefix guarantee (the
/// four-session test covers a connection querying its own session): a
/// second connection queries while the producer still has unacked
/// chunks in flight. Whatever it observes is a whole number of chunks,
/// covers at least every chunk acked before it asked, and is
/// batch-identical over exactly that prefix.
#[test]
fn cross_connection_query_observes_whole_chunks_past_every_ack() {
    const CHUNK: usize = 512;
    const ACKED: usize = 3;
    let (_scratch, collector, socket) = bind("cross");
    let events = session_events(2, 30_000);
    let chunks: Vec<&[Event]> = events.chunks(CHUNK).collect();

    // The producer writes every chunk but reads only three acks: the
    // rest are in flight — on the socket, in the mailbox, mid-apply.
    let mut producer = raw_session(&socket, "cross");
    for (seq, chunk) in chunks.iter().enumerate() {
        send_chunk(&mut producer, seq as u64, chunk);
    }
    for seq in 0..ACKED {
        assert_eq!(read_ack(&mut producer), (seq as u64, CHUNK as u32));
    }
    let mut query = CollectorClient::connect(&socket).unwrap();
    let mid = query.query(&QuerySpec::session("cross")).unwrap();
    let observed = mid.events_observed as usize;
    assert!(mid.live);
    assert!(observed >= ACKED * CHUNK, "acked chunks missing: {observed} events");
    assert!(observed.is_multiple_of(CHUNK) || observed == events.len(), "torn chunk: {observed}");
    assert_eq!(
        mid.canonical_json,
        Analysis::of_events(&events[..observed]).canonical_json().unwrap()
    );

    for seq in ACKED..chunks.len() {
        assert_eq!(read_ack(&mut producer).0, seq as u64);
    }
    send_frame(&mut producer, kind::FINISH, &[]);
    let (reply, _) = read_frame(&mut producer).unwrap().unwrap();
    assert_eq!(reply, kind::FINISH_ACK);
    let done = query.query(&QuerySpec::session("cross")).unwrap();
    assert_eq!(done.canonical_json, Analysis::of_events(&events).canonical_json().unwrap());
    collector.shutdown();
}

/// Wire-sequence validation, duplicate side: a replayed `seq` below the
/// expected one (a reconnect race) is acked with zero events and never
/// re-applied — the final table is the stream applied exactly once.
#[test]
fn replayed_chunk_is_acked_but_not_reapplied() {
    let (_scratch, collector, socket) = bind("replay");
    let events = &session_events(0, 800)[..768];
    let chunks: Vec<&[Event]> = events.chunks(256).collect();
    let mut conn = raw_session(&socket, "replay");
    send_chunk(&mut conn, 0, chunks[0]);
    send_chunk(&mut conn, 1, chunks[1]);
    assert_eq!(read_ack(&mut conn), (0, 256));
    assert_eq!(read_ack(&mut conn), (1, 256));
    send_chunk(&mut conn, 0, chunks[0]);
    assert_eq!(read_ack(&mut conn), (0, 0), "a replayed chunk acks with zero events");
    send_chunk(&mut conn, 2, chunks[2]);
    assert_eq!(read_ack(&mut conn), (2, 256));
    send_frame(&mut conn, kind::FINISH, &[]);
    let (reply, payload) = read_frame(&mut conn).unwrap().unwrap();
    assert_eq!(reply, kind::FINISH_ACK);
    assert_eq!(u64::from_be_bytes(payload[..8].try_into().unwrap()), 3, "three chunks, not four");
    let mut query = CollectorClient::connect(&socket).unwrap();
    let done = query.query(&QuerySpec::session("replay")).unwrap();
    assert_eq!(done.events_observed, events.len() as u64);
    assert_eq!(done.canonical_json, Analysis::of_events(events).canonical_json().unwrap());
    collector.shutdown();
}

/// Wire-sequence validation, gap side: a `seq` past the expected one is
/// a typed `Protocol` error, and by the time the client reads it the
/// session is already aborted with its acked prefix queryable.
#[test]
fn sequence_gap_aborts_typed_and_keeps_the_acked_prefix() {
    let (_scratch, collector, socket) = bind("gap");
    let events = session_events(0, 512);
    let mut conn = raw_session(&socket, "gap");
    send_chunk(&mut conn, 0, &events[..256]);
    assert_eq!(read_ack(&mut conn), (0, 256));
    send_chunk(&mut conn, 5, &events[256..]);
    let (reply, payload) = read_frame(&mut conn).unwrap().unwrap();
    assert_eq!(reply, kind::ERROR);
    assert_eq!(ErrorCode::from_u8(payload[0]), Some(ErrorCode::Protocol));
    assert_eq!(collector.session_phase("gap"), Some(SessionPhase::Aborted));
    let mut query = CollectorClient::connect(&socket).unwrap();
    let prefix = query.query(&QuerySpec::session("gap")).unwrap();
    assert!(!prefix.live);
    assert_eq!(prefix.events_observed, 256);
    assert_eq!(
        prefix.canonical_json,
        Analysis::of_events(&events[..256]).canonical_json().unwrap()
    );
    collector.shutdown();
}

/// A declared stream is held to its word. After a first declared chunk
/// (phase `run` and operation `step` open, frontier 5 µs, cut 6 µs), a
/// second chunk that breaks the declaration — an event starting before
/// the frontier that closes nothing, a declared scope that vanishes
/// unclosed, a frontier that moves back, a close that ends before the
/// cut it was open at, or no declaration at all — is a typed `Protocol`
/// error, and the session is aborted with its durable prefix
/// queryable: the first chunk, with the scopes it declared open closed
/// at its cut. A chunk that keeps the word is acked and answered live
/// the same way.
#[test]
fn broken_declarations_abort_typed_and_keep_the_durable_prefix() {
    let (_scratch, collector, socket) = bind("promise");
    let p = ProcessId(0);
    let ev = |kind, name: &str, start: u64, end: u64| {
        Event::new(p, kind, name, TimeNs::from_nanos(start), TimeNs::from_nanos(end))
    };
    let py = || EventKind::Cpu(CpuCategory::Python);
    let scope = |phase, name: &str, start| OpenScope { pid: 0, phase, name: name.into(), start };
    let first = vec![
        ev(py(), "py", 1_000, 2_000),
        ev(EventKind::Operation, "inner", 1_500, 1_800),
        ev(EventKind::Gpu(GpuCategory::Kernel), "k", 2_500, 9_000),
        ev(py(), "py", 4_000, 6_000),
    ];
    let both = vec![scope(true, "run", 0), scope(false, "step", 1_000)];
    let cut0 = Cut { at: 6_000, frontier: 5_000, open: both.clone() };
    let cut1 = |frontier, open: &[OpenScope]| Cut { at: 8_000, frontier, open: open.to_vec() };
    let late = vec![ev(py(), "py", 6_000, 7_000)];
    let broken: Vec<(&str, Vec<Event>, Option<Cut>)> = vec![
        ("early", vec![ev(py(), "py", 2_000, 7_000)], Some(cut1(7_000, &both))),
        ("dropped", late.clone(), Some(cut1(7_000, &both[..1]))),
        ("back", late.clone(), Some(cut1(4_000, &both))),
        (
            "closed_early",
            vec![ev(EventKind::Operation, "step", 1_000, 5_500)],
            Some(cut1(7_000, &both[..1])),
        ),
        ("undeclared", late.clone(), None),
    ];
    let mut durable = first.clone();
    durable.extend(cut0.closing_events());
    let prefix_answer = Analysis::of_events(&durable).group_by([Dim::Phase, Dim::Operation]);
    let prefix_answer = prefix_answer.canonical_json().unwrap();
    let mut query = CollectorClient::connect(&socket).unwrap();
    let grouped = |name: &str| QuerySpec::session(name).group_by([Dim::Phase, Dim::Operation]);
    for (case, events, cut) in broken {
        let mut conn = raw_session(&socket, case);
        send_declared_chunk(&mut conn, 0, &first, &cut0);
        assert_eq!(read_ack(&mut conn), (0, first.len() as u32), "{case}");
        match &cut {
            Some(cut) => send_declared_chunk(&mut conn, 1, &events, cut),
            None => send_chunk(&mut conn, 1, &events),
        }
        let (reply, payload) = read_frame(&mut conn).unwrap().unwrap();
        assert_eq!(reply, kind::ERROR, "{case}");
        assert_eq!(ErrorCode::from_u8(payload[0]), Some(ErrorCode::Protocol), "{case}");
        assert_eq!(collector.session_phase(case), Some(SessionPhase::Aborted), "{case}");
        let answer = query.query(&grouped(case)).unwrap();
        assert!(!answer.live, "{case}");
        assert_eq!(answer.events_observed, first.len() as u64, "{case}");
        assert_eq!(answer.canonical_json, prefix_answer, "{case}");
    }

    // Keeping the word: `step` closes, `run` stays open.
    let mut conn = raw_session(&socket, "kept");
    send_declared_chunk(&mut conn, 0, &first, &cut0);
    let kept = vec![ev(EventKind::Operation, "step", 1_000, 7_000), ev(py(), "py", 6_000, 7_000)];
    let cut = cut1(8_000, &both[..1]);
    send_declared_chunk(&mut conn, 1, &kept, &cut);
    assert_eq!(read_ack(&mut conn), (0, first.len() as u32));
    assert_eq!(read_ack(&mut conn), (1, kept.len() as u32));
    let mut stream = [first.clone(), kept].concat();
    stream.extend(cut.closing_events());
    let live = query.query(&grouped("kept")).unwrap();
    assert!(live.live);
    assert_eq!(
        live.canonical_json,
        Analysis::of_events(&stream)
            .group_by([Dim::Phase, Dim::Operation])
            .canonical_json()
            .unwrap()
    );
    collector.shutdown();
}

/// `LIST_SESSIONS` reports each settled session's full event count, read
/// from its tier's index: a finished one, one compacted to the rollup
/// tier, and an aborted one — in the daemon run that settled them and
/// after a restart recovered them from disk.
#[test]
fn list_sessions_counts_settled_sessions_across_a_restart() {
    let (_scratch, socket, data) = scratch("listed");
    let events = session_events(0, 1_024);
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    for name in ["done", "rolled"] {
        let mut client = CollectorClient::open_session(&socket, name).unwrap();
        client.send_events(&events).unwrap();
        client.finish().unwrap();
    }
    let mut conn = raw_session(&socket, "broken");
    send_chunk(&mut conn, 0, &events[..256]);
    assert_eq!(read_ack(&mut conn), (0, 256));
    send_chunk(&mut conn, 5, &events[256..]);
    assert_eq!(read_frame(&mut conn).unwrap().unwrap().0, kind::ERROR);
    assert_eq!(collector.compact_session("rolled").unwrap(), StorageTier::Sorted);
    assert_eq!(collector.compact_session("rolled").unwrap(), StorageTier::Rollup);

    let n = events.len() as u64;
    let want = vec![
        ("broken".to_string(), false, 256),
        ("done".into(), false, n),
        ("rolled".into(), false, n),
    ];
    let listed = |socket: &Path| {
        let listing = CollectorClient::connect(socket).unwrap().list_sessions().unwrap();
        listing.sessions.into_iter().map(|s| (s.name, s.live, s.events)).collect::<Vec<_>>()
    };
    assert_eq!(listed(&socket), want);
    collector.shutdown();

    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    assert_eq!(collector.session_tier("rolled"), Some(StorageTier::Rollup));
    assert_eq!(listed(&socket), want, "recovered sessions must report their full counts");
    collector.shutdown();
}

/// Server-side rejections surface as typed remote errors.
#[test]
fn protocol_errors_carry_codes() {
    let (_scratch, collector, socket) = bind("codes");

    // Path characters in a session name are rejected (it names a dir).
    let err = CollectorClient::open_session(&socket, "../evil").unwrap_err();
    assert!(matches!(err, CollectorError::Remote { code: Some(ErrorCode::BadSessionName), .. }));

    // Duplicate session names are rejected: the name is *attached* to a
    // live connection, which is its own typed code (distinct from the
    // durable-data SessionExists).
    let _first = CollectorClient::open_session(&socket, "dup").unwrap();
    let err = CollectorClient::open_session(&socket, "dup").unwrap_err();
    assert!(matches!(err, CollectorError::Remote { code: Some(ErrorCode::SessionActive), .. }));

    // A corrupt chunk poisons the session with CorruptChunk.
    let mut client = CollectorClient::open_session(&socket, "corrupt").unwrap();
    client.send_chunk_bytes(b"RLSCOPE3 but not really").unwrap();
    let err = client.finish().unwrap_err();
    assert!(matches!(err, CollectorError::Remote { code: Some(ErrorCode::CorruptChunk), .. }));

    // Unknown query targets and unsupported live queries.
    let mut query = CollectorClient::connect(&socket).unwrap();
    let err = query.query(&QuerySpec::session("nope")).unwrap_err();
    assert!(matches!(err, CollectorError::Remote { code: Some(ErrorCode::UnknownTarget), .. }));
    let mut live = CollectorClient::open_session(&socket, "winlive").unwrap();
    live.send_events(&session_events(0, 32)).unwrap();
    let err = live.query(&QuerySpec::session("winlive").window(0, 100)).unwrap_err();
    assert!(matches!(err, CollectorError::Remote { code: Some(ErrorCode::UnsupportedQuery), .. }));
    collector.shutdown();
}

/// Several clients `HELLO` one fresh name at once while other
/// connections open and close: exactly one claim wins and every other
/// gets `SessionActive`. Each win spawns the session's owner under the
/// session map's lock, and dropping the daemon then joins every thread
/// it tracked (owners and connection handlers) within a deadline.
#[test]
fn concurrent_claims_of_one_name_have_one_winner_and_shutdown_joins() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    const CLAIMERS: usize = 8;
    const ROUNDS: usize = 10;

    let (_scratch, collector, socket) = bind("claims");
    let stop = Arc::new(AtomicBool::new(false));
    let churn: Vec<_> = (0..2)
        .map(|_| {
            let (socket, stop) = (socket.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let mut client = CollectorClient::connect(&socket).unwrap();
                    client.list_sessions().unwrap();
                }
            })
        })
        .collect();
    let mut winners = Vec::new();
    for round in 0..ROUNDS {
        let name = format!("claim-{round}");
        let barrier = Arc::new(Barrier::new(CLAIMERS));
        let claims: Vec<_> = (0..CLAIMERS)
            .map(|_| {
                let (socket, name, barrier) = (socket.clone(), name.clone(), barrier.clone());
                std::thread::spawn(move || {
                    barrier.wait();
                    CollectorClient::open_session(&socket, &name)
                })
            })
            .collect();
        let mut won = 0;
        for claim in claims {
            match claim.join().unwrap() {
                Ok(client) => {
                    won += 1;
                    winners.push(client);
                }
                Err(err) => assert!(
                    matches!(
                        err,
                        CollectorError::Remote { code: Some(ErrorCode::SessionActive), .. }
                    ),
                    "{name}: a losing claim must be SessionActive, got {err:?}"
                ),
            }
        }
        assert_eq!(won, 1, "{name}: exactly one claim wins");
    }
    stop.store(true, Ordering::SeqCst);
    for thread in churn {
        thread.join().unwrap();
    }
    let sessions = CollectorClient::connect(&socket).unwrap().list_sessions().unwrap().sessions;
    assert_eq!(sessions.len(), ROUNDS);
    assert!(sessions.iter().all(|s| s.live));

    // The winners stay attached: shutdown detaches them and joins.
    let (done, finished) = std::sync::mpsc::channel();
    let dropper = std::thread::spawn(move || {
        drop(collector);
        let _ = done.send(());
    });
    finished
        .recv_timeout(std::time::Duration::from_secs(20))
        .expect("dropping the collector joins every tracked thread");
    dropper.join().unwrap();
    drop(winners);
}

/// A session name that matches durable data from a *previous daemon
/// run* is refused — reopening must never silently wipe yesterday's
/// trace. The old data stays on disk and queryable via a Dir target.
#[test]
fn session_name_reuse_across_restarts_never_wipes_durable_data() {
    let (_scratch, socket, data) = scratch("restart");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let events = session_events(0, 256);
    let mut client = CollectorClient::open_session(&socket, "keep").unwrap();
    client.send_events(&events).unwrap();
    client.finish().unwrap();
    drop(client);
    collector.shutdown();

    // A new daemon over the same data dir: the name is free in its
    // registry, but the durable directory must be protected.
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let err = CollectorClient::open_session(&socket, "keep").unwrap_err();
    assert!(matches!(err, CollectorError::Remote { code: Some(ErrorCode::SessionExists), .. }));
    let dir = data.join("keep");
    assert!(dir.join("chunk_00000.rls").exists(), "old chunks must survive");
    let mut query = CollectorClient::connect(&socket).unwrap();
    let reply = query.query(&QuerySpec::dir(dir.to_string_lossy())).unwrap();
    assert_eq!(reply.canonical_json, Analysis::of_events(&events).canonical_json().unwrap());
    assert_eq!(reply.events_observed, events.len() as u64);
    collector.shutdown();
}

/// A directory query answers the directory as it is when asked: a repeat
/// answers the same, and once the chunk set grows the next answer covers
/// the new events. No answer is ever a cache hit.
#[test]
fn dir_query_answers_the_directory_as_it_is_now() {
    let (scratch, collector, socket) = bind("cache");
    let dir = scratch.path().join("chunks");
    let events = session_events(0, 256);
    let writer = TraceWriter::create(&dir, 1).unwrap();
    for chunk in events.chunks(64) {
        writer.write(chunk.to_vec());
    }
    writer.finish().unwrap();

    let mut client = CollectorClient::connect(&socket).unwrap();
    let spec = QuerySpec::dir(dir.to_string_lossy()).group_by([Dim::Phase]);
    let first = client.query(&spec).unwrap();
    assert!(!first.cache_hit && !first.live);
    assert_eq!(
        first.canonical_json,
        Analysis::from_chunk_dir(&dir).group_by([Dim::Phase]).canonical_json().unwrap()
    );
    let second = client.query(&spec).unwrap();
    assert!(!second.cache_hit);
    assert_eq!(second.canonical_json, first.canonical_json);

    // Grow the directory: the next answer covers the new events.
    let extra = session_events(7, 128);
    std::fs::write(dir.join("chunk_99999.rls"), encode_events(&extra)).unwrap();
    let third = client.query(&spec).unwrap();
    assert!(!third.cache_hit);
    assert_ne!(third.canonical_json, first.canonical_json);
    assert_eq!(third.events_observed, (events.len() + extra.len()) as u64);
    collector.shutdown();
}

/// Every file directly in `dir`, name to bytes.
fn dir_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.is_file())
        .map(|path| {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect()
}

/// A query writes nothing. A filtered, an unfiltered and a
/// process-grouped query over a `TraceWriter` directory and over a
/// finished daemon session — in process, through the daemon by
/// directory, and by session name — leave every file name and byte of
/// both directories as they were, and a read-only copy of each answers
/// identically.
#[test]
fn queries_write_nothing_into_the_directories_they_read() {
    use std::collections::BTreeMap;
    use std::os::unix::fs::PermissionsExt;

    let (_scratch, socket, data) = scratch("readonly");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let events = four_process_events(512);
    let written = data.parent().unwrap().join("written");
    let writer = TraceWriter::create(&written, 1).unwrap();
    for chunk in events.chunks(200) {
        writer.write(chunk.to_vec());
    }
    writer.finish().unwrap();
    let mut client = CollectorClient::open_session(&socket, "ro").unwrap();
    for chunk in events.chunks(200) {
        client.send_events(chunk).unwrap();
    }
    client.finish().unwrap();
    let session = data.join("ro");
    let dirs = [written.clone(), session.clone()];
    let before: Vec<BTreeMap<String, Vec<u8>>> = dirs.iter().map(|d| dir_files(d)).collect();

    type Shape = fn(Analysis<'_>) -> Analysis<'_>;
    type WireShape = fn(QuerySpec) -> QuerySpec;
    let shapes: [(Shape, WireShape); 3] = [
        (|q| q.phase("steady").process(ProcessId(2)), |q| q.phase("steady").process(2)),
        (|q| q, |q| q),
        (|q| q.group_by([Dim::Process]), |q| q.group_by([Dim::Process])),
    ];
    let in_process =
        |dir: &Path| shapes.map(|(shape, _)| shape(Analysis::from_chunk_dir(dir)).canonical_json());
    let mut query = CollectorClient::connect(&socket).unwrap();
    let mut by_daemon = |target: QuerySpec| {
        shapes.map(|(_, spec)| query.query(&spec(target.clone())).unwrap().canonical_json)
    };
    let answers: Vec<[String; 3]> =
        dirs.iter().map(|d| in_process(d).map(|json| json.unwrap())).collect();
    assert_eq!(answers[0], answers[1], "session and writer dirs hold the same stream");
    for dir in &dirs {
        assert_eq!(by_daemon(QuerySpec::dir(dir.to_string_lossy())), answers[0]);
    }
    assert_eq!(by_daemon(QuerySpec::session("ro")), answers[0]);
    for (dir, before) in dirs.iter().zip(&before) {
        assert_eq!(&dir_files(dir), before, "a query wrote into {}", dir.display());
    }

    for (i, dir) in dirs.iter().enumerate() {
        let copy = data.parent().unwrap().join(format!("read_only_{i}"));
        let _ = std::fs::remove_dir_all(&copy);
        std::fs::create_dir_all(&copy).unwrap();
        for (name, bytes) in dir_files(dir) {
            std::fs::write(copy.join(&name), bytes).unwrap();
            std::fs::set_permissions(copy.join(&name), std::fs::Permissions::from_mode(0o444))
                .unwrap();
        }
        std::fs::set_permissions(&copy, std::fs::Permissions::from_mode(0o555)).unwrap();
        let local = in_process(&copy);
        let remote = by_daemon(QuerySpec::dir(copy.to_string_lossy()));
        std::fs::set_permissions(&copy, std::fs::Permissions::from_mode(0o755)).unwrap();
        assert_eq!(local.map(|json| json.unwrap()), answers[0], "{}", copy.display());
        assert_eq!(remote, answers[0], "{}", copy.display());
        assert_eq!(dir_files(&copy), before[i]);
    }
    collector.shutdown();
}

/// Live answers are never cached (`QueryReply::cache_hit` is always
/// false for them): a repeated query over an unchanged prefix answers
/// byte-identically from the owner's sweeps, and a grown prefix answers
/// the grown prefix.
#[test]
fn live_query_cache_hits_until_new_events_arrive() {
    let (_scratch, collector, socket) = bind("livecache");
    let events = session_events(0, 2_048);
    let mut client = CollectorClient::open_session(&socket, "lc").unwrap();
    client.send_events(&events[..1_024]).unwrap();
    let spec = QuerySpec::session("lc").group_by([Dim::Phase]);
    let first = client.query(&spec).unwrap();
    assert!(first.live && !first.cache_hit);
    assert_eq!(first.events_observed, 1_024);
    let second = client.query(&spec).unwrap();
    assert!(second.live && !second.cache_hit, "a live answer was served from a cache");
    assert_eq!(second.canonical_json, first.canonical_json);
    assert_eq!(second.events_observed, first.events_observed);
    let other = client.query(&QuerySpec::session("lc")).unwrap();
    assert!(other.live && !other.cache_hit);
    assert_eq!(
        other.canonical_json,
        Analysis::of_events(&events[..1_024]).canonical_json().unwrap()
    );
    client.send_events(&events[1_024..]).unwrap();
    let third = client.query(&spec).unwrap();
    assert!(third.live && !third.cache_hit);
    assert_eq!(third.events_observed, events.len() as u64);
    assert_eq!(
        third.canonical_json,
        Analysis::of_events(&events).group_by([Dim::Phase]).canonical_json().unwrap()
    );
    collector.shutdown();
}

fn arb_event() -> impl Strategy<Value = Event> {
    let kind = prop_oneof![
        Just(EventKind::Cpu(CpuCategory::Python)),
        Just(EventKind::Cpu(CpuCategory::Simulator)),
        Just(EventKind::Cpu(CpuCategory::Backend)),
        Just(EventKind::Cpu(CpuCategory::CudaApi)),
        Just(EventKind::Gpu(GpuCategory::Kernel)),
        Just(EventKind::Gpu(GpuCategory::Memcpy)),
        Just(EventKind::Operation),
        Just(EventKind::Phase),
    ];
    (kind, 0u64..5_000, 0u64..800, 0usize..3, 0u32..3).prop_map(|(kind, start, len, name, pid)| {
        Event::new(
            ProcessId(pid),
            kind,
            ["alpha", "beta", "gamma"][name],
            TimeNs::from_nanos(start),
            TimeNs::from_nanos(start + len),
        )
    })
}

proptest! {
    /// Loopback property: whatever the event stream and however it is
    /// chunked, a streamed session's final tables — live and post-finish
    /// — equal the exact in-memory sweep of the same events. Operation and
    /// phase annotations here arrive in arbitrary (non-profiler) order,
    /// so this also exercises the sweeps' order-independence through
    /// the whole wire path.
    #[test]
    fn streamed_session_equals_batch_sweep(
        events in prop::collection::vec(arb_event(), 1..250),
        chunk in 1usize..64,
    ) {
        // One daemon per case, in a scratch directory the case removes
        // (annotations arrive in arbitrary order — the exact sweeps
        // accept any order, which is part of the property).
        let (_scratch, _collector, socket) = bind("prop");
        let name = "prop";
        let mut client = CollectorClient::open_session(&socket, name).unwrap();
        for batch in events.chunks(chunk) {
            client.send_events(batch).unwrap();
        }
        let live = client.query(&QuerySpec::session(name)).unwrap();
        let batch_json = Analysis::of_events(&events).canonical_json().unwrap();
        prop_assert_eq!(&live.canonical_json, &batch_json);
        prop_assert_eq!(live.events_observed, events.len() as u64);
        client.finish().unwrap();
        let done = client.query(&QuerySpec::session(name)).unwrap();
        prop_assert_eq!(&done.canonical_json, &batch_json);
        // Grouped views agree too.
        let grouped = client
            .query(&QuerySpec::session(name).group_by([Dim::Process, Dim::Phase]))
            .unwrap();
        prop_assert_eq!(
            grouped.canonical_json,
            Analysis::of_events(&events)
                .group_by([Dim::Process, Dim::Phase])
                .canonical_json()
                .unwrap()
        );
    }
}

/// TCP transport + cross-session aggregation: a daemon listening on
/// both Unix and TCP serves the identical framed protocol over
/// loopback, `LIST_SESSIONS` enumerates what it holds, and the
/// acceptance property — `group_by([Dim::Session])` over two live
/// sessions is canonical-JSON-identical to the in-memory sweep of each
/// session's acked prefix — holds through the `QUERY_ALL` wire path.
#[test]
fn tcp_transport_and_query_all_over_live_sessions() {
    use rlscope::collector::{Endpoint, FleetClient, ReconnectPolicy};
    use rlscope::core::analysis::{groups_canonical_json, LiveState, SessionSource};
    use std::sync::Arc;

    let (_scratch, socket, data) = scratch("tcp");
    let mut config = CollectorConfig::new(&socket, data);
    config.tcp_listen = Some("127.0.0.1:0".into());
    let collector = Collector::bind(config).unwrap();
    let addr = collector.tcp_addr().expect("tcp listener bound").to_string();
    let ep = Endpoint::tcp(&addr);

    // Two live sessions streamed over TCP; both stay unfinished, so
    // every answer below covers exactly their acked prefixes.
    let a = session_events(0, 4_096);
    let b = session_events(1, 2_048);
    let mut ca =
        CollectorClient::open_session_at(&ep, "tcp-a", ReconnectPolicy::default()).unwrap();
    let mut cb =
        CollectorClient::open_session_at(&ep, "tcp-b", ReconnectPolicy::default()).unwrap();
    for chunk in a.chunks(512) {
        ca.send_events(chunk).unwrap();
    }
    for chunk in b.chunks(512) {
        cb.send_events(chunk).unwrap();
    }

    // Per-session queries over TCP are batch-identical (and, being
    // ordered behind the CHUNK frames, prove both prefixes fully acked).
    let live = ca.query(&QuerySpec::session("tcp-a")).unwrap();
    assert!(live.live);
    assert_eq!(live.canonical_json, Analysis::of_events(&a).canonical_json().unwrap());
    cb.query(&QuerySpec::session("tcp-b")).unwrap();

    // LIST_SESSIONS over a TCP query connection sees both, live, with
    // the acked prefix lengths.
    let mut q = CollectorClient::connect_to(&ep).unwrap();
    let listing = q.list_sessions().unwrap();
    let summary: Vec<_> =
        listing.sessions.iter().map(|s| (s.name.as_str(), s.live, s.events)).collect();
    assert_eq!(summary, vec![("tcp-a", true, a.len() as u64), ("tcp-b", true, b.len() as u64)]);

    // QUERY_ALL grouped by session == a multi-session composition of
    // each session's acked prefix, rendered through the same canonical
    // JSON path the Analysis pipeline uses.
    let reply = q.query_all(&QuerySpec::all_sessions().group_by([Dim::Session])).unwrap();
    assert!(reply.live);
    assert_eq!(reply.sessions, vec!["tcp-a".to_string(), "tcp-b".to_string()]);
    assert_eq!(reply.events_observed, (a.len() + b.len()) as u64);
    let (mut la, mut lb) = (LiveState::new(), LiveState::new());
    la.push_columns(&EventColumns::from_events(&a)).unwrap();
    lb.push_columns(&EventColumns::from_events(&b)).unwrap();
    let (ta, tb) = (la.snapshot(), lb.snapshot());
    let sessions = || {
        vec![
            (Arc::<str>::from("tcp-a"), SessionSource::Live(&ta)),
            (Arc::<str>::from("tcp-b"), SessionSource::Live(&tb)),
        ]
    };
    let expected =
        Analysis::of_sessions(sessions()).group_by([Dim::Session]).canonical_json().unwrap();
    assert_eq!(groups_canonical_json(&reply.groups, true), expected);
    // Each group is its session's independent in-memory sweep.
    for (key, table) in &reply.groups {
        let events: &[Event] = if key.session.as_deref() == Some("tcp-a") { &a } else { &b };
        assert_eq!(table, &Analysis::of_events(events).table().unwrap());
    }
    // The ungrouped rollup flattens to the same cross-session merge.
    let flat = q.query_all(&QuerySpec::all_sessions()).unwrap();
    assert_eq!(
        groups_canonical_json(&flat.groups, false),
        Analysis::of_sessions(sessions()).canonical_json().unwrap()
    );

    // A single-endpoint fleet answers identically to the raw QUERY_ALL —
    // the degenerate federation case.
    let mut fleet = FleetClient::connect([ep.clone()]);
    let result = fleet.query_all(&QuerySpec::all_sessions().group_by([Dim::Session]));
    assert!(result.complete());
    assert_eq!(result.sessions(), vec!["tcp-a", "tcp-b"]);
    assert_eq!(result.canonical_json(true), expected);
    collector.shutdown();
}

/// The daemon snapshots only the view a query reads, chosen by
/// `LiveView::for_query` at both of its call sites (`QUERY` and
/// `QUERY_ALL`). On a live 4-process session, asked from a second
/// connection while chunks are still streaming in, a merged breakdown,
/// an ungrouped `.process(pid)`, a `[Process]` grouping and a
/// `QUERY_ALL` grouped `[Session, Process]` each equal the batch
/// analysis of exactly the whole-chunk prefix the reply reports.
#[test]
fn live_queries_of_either_view_match_batch_over_the_reported_prefix() {
    const CHUNK: usize = 512;
    let (_scratch, collector, socket) = bind("views");
    let events = four_process_events(4_000);

    let mut producer = CollectorClient::open_session(&socket, "views").unwrap();
    let mut dashboard = CollectorClient::connect(&socket).unwrap();
    let mut prefixes = Vec::new();
    for (i, chunk) in events.chunks(CHUNK).enumerate() {
        producer.send_events(chunk).unwrap();
        if i % 5 != 4 {
            continue;
        }
        let specs = [
            QuerySpec::session("views").group_by([Dim::Phase, Dim::Operation]),
            QuerySpec::session("views").process(2),
            QuerySpec::session("views").process(2).group_by([Dim::Phase]),
            QuerySpec::session("views").group_by([Dim::Process]),
        ];
        for spec in &specs {
            let reply = dashboard.query(spec).unwrap();
            assert!(reply.live, "{spec:?}");
            let observed = reply.events_observed as usize;
            assert!(observed.is_multiple_of(CHUNK) && observed <= (i + 1) * CHUNK);
            let mut batch = Analysis::of_events(&events[..observed]);
            if let Some(pid) = spec.process {
                batch = batch.process(ProcessId(pid));
            }
            let batch = batch.group_by(spec.dims.iter().copied()).canonical_json().unwrap();
            assert_eq!(reply.canonical_json, batch, "{spec:?} at {observed}");
            prefixes.push(observed);
        }
        let all = dashboard
            .query_all(&QuerySpec::all_sessions().group_by([Dim::Session, Dim::Process]))
            .unwrap();
        assert!(all.live);
        let prefix = &events[..all.events_observed as usize];
        let batch = Analysis::of_events(prefix).group_by([Dim::Process]).tables().unwrap();
        assert_eq!(all.groups.len(), batch.len());
        for ((key, table), (batch_key, batch_table)) in all.groups.iter().zip(&batch) {
            assert_eq!(key.session.as_deref(), Some("views"));
            assert_eq!((key.process, table), (batch_key.process, batch_table));
        }
    }
    assert!(prefixes.iter().any(|&p| p > 0 && p < events.len()), "no mid-ingest answer");
    producer.finish().unwrap();
    collector.shutdown();
}

/// Spawns a real `rlscoped` process with an ephemeral TCP listener and
/// returns it with its resolved `host:port` (parsed from the daemon's
/// startup line).
fn spawn_rlscoped_tcp(tag: &str) -> Option<(Scratch, Rlscoped, String)> {
    let bin = rlscoped_bin()?;
    let (scratch, socket, data) = scratch(tag);
    let (daemon, addr) = try_spawn_rlscoped_tcp(&bin, &socket, &data, "tcp://127.0.0.1:0")
        .expect("rlscoped prints its tcp address");
    Some((scratch, daemon, addr))
}

/// Federation acceptance: a [`FleetClient`] over two **real** `rlscoped`
/// processes on TCP merges their answers into one rollup identical to a
/// single daemon holding every session — one shard serving a finished
/// directory, the other a live prefix (skipped when the binary has not
/// been built — CI builds it first).
#[test]
fn fleet_client_merges_two_rlscoped_daemons_over_tcp() {
    use rlscope::collector::{Endpoint, FleetClient, ReconnectPolicy};
    use rlscope::core::analysis::{LiveState, SessionSource};
    use std::sync::Arc;

    let Some((_scratch1, d1, addr1)) = spawn_rlscoped_tcp("fleet1") else {
        eprintln!("skipping: rlscoped not built");
        return;
    };
    let (_scratch2, d2, addr2) = spawn_rlscoped_tcp("fleet2").unwrap();
    let (ep1, ep2) = (Endpoint::tcp(&addr1), Endpoint::tcp(&addr2));

    let run = || -> Result<(), CollectorError> {
        let a = session_events(0, 3_000);
        let b = session_events(1, 2_000);
        // Shard 1: a finished session, served from its chunk directory.
        let mut ca = CollectorClient::open_session_at(&ep1, "fleet-a", ReconnectPolicy::default())?;
        for chunk in a.chunks(500) {
            ca.send_events(chunk)?;
        }
        ca.finish()?;
        // Shard 2: a live session; the query below drains its acks so
        // the acked prefix is the whole stream.
        let mut cb = CollectorClient::open_session_at(&ep2, "fleet-b", ReconnectPolicy::default())?;
        for chunk in b.chunks(500) {
            cb.send_events(chunk)?;
        }
        cb.query(&QuerySpec::session("fleet-b"))?;

        let mut fleet = FleetClient::connect([ep1.clone(), ep2.clone()]);
        let result = fleet.query_all(&QuerySpec::all_sessions().group_by([Dim::Session]));
        assert!(result.complete(), "both shards must answer: {:?}", result.shards);
        assert_eq!(result.sessions(), vec!["fleet-a", "fleet-b"]);
        assert!(result.live, "shard 2 is still streaming");
        assert_eq!(result.events_observed, (a.len() + b.len()) as u64);

        // The fleet rollup equals one daemon holding both sessions.
        let (mut la, mut lb) = (LiveState::new(), LiveState::new());
        la.push_columns(&EventColumns::from_events(&a)).unwrap();
        lb.push_columns(&EventColumns::from_events(&b)).unwrap();
        let (ta, tb) = (la.snapshot(), lb.snapshot());
        let expected = Analysis::of_sessions(vec![
            (Arc::<str>::from("fleet-a"), SessionSource::Live(&ta)),
            (Arc::<str>::from("fleet-b"), SessionSource::Live(&tb)),
        ])
        .group_by([Dim::Session])
        .canonical_json()
        .unwrap();
        assert_eq!(result.canonical_json(true), expected);
        Ok(())
    };
    let outcome = run();
    d1.kill();
    d2.kill();
    outcome.unwrap();
}

/// Shards that share group keys: two real `rlscoped` daemons, two
/// finished sessions on each, all of them carrying the same two phases
/// and the second shard's a third one. A fleet query grouped by phase,
/// and one ungrouped, merges tables under keys that both shards answer,
/// and must keep first-seen key order: its canonical JSON equals
/// `Analysis::of_sessions` over every session, taken in shard order and,
/// within a shard, in name order (skipped when the binary has not been
/// built — CI builds it first).
#[test]
fn fleet_merges_group_keys_that_shards_share_in_first_seen_order() {
    use rlscope::collector::{Endpoint, FleetClient, ReconnectPolicy};
    use rlscope::core::analysis::{LiveState, SessionSource};
    use std::sync::Arc;

    let Some((_scratch1, d1, addr1)) = spawn_rlscoped_tcp("fleetkeys1") else {
        eprintln!("skipping: rlscoped not built");
        return;
    };
    let (_scratch2, d2, addr2) = spawn_rlscoped_tcp("fleetkeys2").unwrap();
    let (ep1, ep2) = (Endpoint::tcp(&addr1), Endpoint::tcp(&addr2));
    let probed = |pid: u32, n: usize| {
        let mut events = session_events(pid, n);
        let (start, end) = (TimeNs::from_nanos(100_000), TimeNs::from_nanos(300_000));
        events.push(Event::new(ProcessId(pid), EventKind::Phase, "probe", start, end));
        events
    };
    // Each shard's sessions are opened out of name order, and the second
    // shard's names sort before the first's.
    let mut shards = [
        (&ep1, vec![("keys-d", session_events(0, 1_500)), ("keys-c", session_events(1, 900))]),
        (&ep2, vec![("keys-b", probed(2, 1_200)), ("keys-a", probed(0, 700))]),
    ];

    let mut run = || -> Result<(), CollectorError> {
        for (ep, sessions) in &shards {
            for (name, events) in sessions {
                let mut client =
                    CollectorClient::open_session_at(ep, name, ReconnectPolicy::default())?;
                for chunk in events.chunks(400) {
                    client.send_events(chunk)?;
                }
                client.finish()?;
            }
        }
        for (_, sessions) in &mut shards {
            sessions.sort_by_key(|(name, _)| *name);
        }
        let in_order: Vec<&(&str, Vec<Event>)> =
            shards.iter().flat_map(|(_, sessions)| sessions).collect();
        let snapshots: Vec<_> = in_order
            .iter()
            .map(|(_, events)| {
                let mut live = LiveState::new();
                live.push_columns(&EventColumns::from_events(events)).unwrap();
                live.snapshot()
            })
            .collect();
        let expected = |spec: &QuerySpec| {
            let sessions = in_order
                .iter()
                .zip(&snapshots)
                .map(|((name, _), tables)| (Arc::<str>::from(*name), SessionSource::Live(tables)));
            let query = Analysis::of_sessions(sessions).group_by(spec.dims.iter().copied());
            query.canonical_json().unwrap()
        };

        for spec in [QuerySpec::all_sessions().group_by([Dim::Phase]), QuerySpec::all_sessions()] {
            let keys = |ep: &Endpoint| -> Vec<_> {
                let alone = FleetClient::connect([ep.clone()]).query_all(&spec);
                alone.groups.into_iter().map(|(key, _)| key).collect()
            };
            let (first, second) = (keys(&ep1), keys(&ep2));
            assert!(first.iter().all(|key| second.contains(key)), "{first:?} {second:?}");
            let result = FleetClient::connect([ep1.clone(), ep2.clone()]).query_all(&spec);
            assert!(result.complete(), "both shards must answer: {:?}", result.shards);
            assert_eq!(result.sessions(), vec!["keys-c", "keys-d", "keys-a", "keys-b"]);
            let grouped = !spec.dims.is_empty();
            assert_eq!(result.groups.len(), if grouped { 3 } else { 1 }, "{:?}", result.groups);
            assert_eq!(result.canonical_json(grouped), expected(&spec), "{spec:?}");
        }
        Ok(())
    };
    let outcome = run();
    d1.kill();
    d2.kill();
    outcome.unwrap();
}

/// The actual `rlscoped` binary serves the same protocol (skipped when
/// the binary has not been built — CI builds it first).
#[test]
fn rlscoped_binary_end_to_end() {
    let Some(bin) = rlscoped_bin() else {
        eprintln!("skipping: rlscoped not built");
        return;
    };
    let (_scratch, socket, data) = scratch("bin");
    let child = spawn_rlscoped(&bin, &socket, &data);
    let run = || -> Result<(), CollectorError> {
        let events = session_events(0, 5_000);
        let mut client = CollectorClient::open_session(&socket, "bin-session")?;
        for chunk in events.chunks(1_000) {
            client.send_events(chunk)?;
        }
        let live = client.query(&QuerySpec::session("bin-session"))?;
        assert!(live.live);
        assert_eq!(live.canonical_json, Analysis::of_events(&events).canonical_json().unwrap());
        let summary = client.finish()?;
        assert_eq!(summary.events, events.len() as u64);
        let done = client.query(&QuerySpec::session("bin-session"))?;
        assert_eq!(done.canonical_json, live.canonical_json);
        Ok(())
    };
    let outcome = run();
    child.kill();
    outcome.unwrap();
    assert!(Path::new(&data).join("bin-session").join("chunk_00000.rls").exists());
}

/// Overwrites the body of every chunk file directly in `dir` with
/// garbage, keeping its magic, footer and trailer: the index still opens
/// (it reads only the tails), but any decode of the chunks now fails —
/// so a query that still answers was answered by the session's seal.
fn scramble_chunks(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "rls") {
            let mut data = std::fs::read(&path).unwrap();
            let len_at = data.len() - 8;
            let footer_len = u32::from_be_bytes(data[len_at..len_at + 4].try_into().unwrap());
            data[8..len_at - footer_len as usize].fill(0xA5);
            std::fs::write(&path, data).unwrap();
        }
    }
}

/// Overwrites everything after the magic of every chunk file directly in
/// `dir` — body, footer and trailer — with garbage: not even the chunk
/// index opens, so a query that still answers read no file at all.
fn wreck_chunks(dir: &Path) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|ext| ext == "rls") {
            let mut data = std::fs::read(&path).unwrap();
            data[8..].fill(0xA5);
            std::fs::write(&path, data).unwrap();
        }
    }
}

/// Copies the chunk files of `dir` into a fresh `to`.
fn copy_chunk_dir(dir: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if name.ends_with(".rls") {
            std::fs::copy(&path, to.join(name)).unwrap();
        }
    }
}

fn assert_remote(err: CollectorError, code: ErrorCode) {
    assert!(matches!(err, CollectorError::Remote { code: Some(c), .. } if c == code), "{err}");
}

/// A cleanly finished session answers its windowless merged-view
/// queries from its seal, byte-identical to the directory: for a
/// 4-process session, a profiled training run and a session that sent
/// no chunk, every phase and operation filter (none, each name, and the
/// no-phase bucket) crossed with every ordered subset of
/// `{Phase, Operation}` equals `Analysis::from_chunk_dir` over a copy of
/// the session directory — while the directory itself is garbage, so
/// windows and the per-process view, which read it, fail. The 4-process
/// session's footer tails are garbage too, so its chunk index does not
/// open: its seal answers without reading a file. `QUERY_ALL` over
/// `{Session, Phase}` reads the three seals alike and stays
/// `live: false`.
#[test]
fn seal_answers_merged_queries_byte_identically_to_the_directory() {
    use rlscope::core::analysis::{groups_canonical_json, SessionSource};
    use rlscope::core::overlap::NO_PHASE;
    use rlscope::prelude::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    let (_scratch, socket, data) = scratch("seal");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let spec = TrainSpec {
        scale: ScaleConfig { hidden: 8, batch: 4, freq_div: 25, ppo: None },
        ..TrainSpec::new(AlgoKind::Ddpg, "Walker2D", STABLE_BASELINES, 40)
    };
    let train = spec.run(Some(Toggles::all())).trace.unwrap().events;
    let sessions = [
        ("seal-empty", Vec::new()),
        ("seal-four", four_process_events(3_000)),
        ("seal-train", train),
    ];
    let reference = data.with_file_name("reference");
    for (name, events) in &sessions {
        let mut client = CollectorClient::open_session(&socket, name).unwrap();
        for chunk in events.chunks(512) {
            client.send_events(chunk).unwrap();
        }
        client.finish().unwrap();
        copy_chunk_dir(&data.join(name), &reference.join(name));
        if *name == "seal-four" {
            wreck_chunks(&data.join(name));
        } else {
            scramble_chunks(&data.join(name));
        }
    }

    let mut query = CollectorClient::connect(&socket).unwrap();
    let orders: [&[Dim]; 5] = [
        &[],
        &[Dim::Phase],
        &[Dim::Operation],
        &[Dim::Phase, Dim::Operation],
        &[Dim::Operation, Dim::Phase],
    ];
    for (name, events) in &sessions {
        let names = |kind: EventKind| -> BTreeSet<String> {
            events.iter().filter(|e| e.kind == kind).map(|e| e.name.to_string()).collect()
        };
        let mut phases: Vec<Option<String>> = vec![None, Some(NO_PHASE.to_string())];
        phases.extend(names(EventKind::Phase).into_iter().map(Some));
        let mut operations: Vec<Option<String>> = vec![None];
        operations.extend(names(EventKind::Operation).into_iter().map(Some));
        for phase in &phases {
            for operation in &operations {
                for dims in orders {
                    let mut spec = QuerySpec::session(*name);
                    let mut want = Analysis::from_chunk_dir(reference.join(name));
                    if let Some(phase) = phase {
                        spec = spec.phase(phase);
                        want = want.phase(phase);
                    }
                    if let Some(operation) = operation {
                        spec = spec.operation(operation);
                        want = want.operation(operation);
                    }
                    let spec = spec.group_by(dims.iter().copied());
                    let want = want.group_by(dims.iter().copied()).canonical_json().unwrap();
                    let reply = query.query(&spec).unwrap();
                    assert!(!reply.live && !reply.cache_hit, "{spec:?}");
                    assert_eq!(reply.events_observed, events.len() as u64);
                    assert_eq!(reply.canonical_json, want, "{spec:?}");
                }
            }
        }
        if !events.is_empty() {
            let window = QuerySpec::session(*name).window(0, 1 << 62);
            let per_process = QuerySpec::session(*name).group_by([Dim::Process]);
            for spec in [window, per_process] {
                // An error ends the connection it answers.
                let mut probe = CollectorClient::connect(&socket).unwrap();
                assert_remote(probe.query(&spec).unwrap_err(), ErrorCode::Io);
            }
        }
    }

    let by = [Dim::Session, Dim::Phase];
    let reply = query.query_all(&QuerySpec::all_sessions().group_by(by)).unwrap();
    assert!(!reply.live);
    let total: usize = sessions.iter().map(|(_, events)| events.len()).sum();
    assert_eq!(reply.events_observed, total as u64);
    let sources = sessions
        .iter()
        .map(|(name, _)| (Arc::<str>::from(*name), SessionSource::ChunkDir(reference.join(name))));
    let want = Analysis::of_sessions(sources).group_by(by).canonical_json().unwrap();
    assert_eq!(groups_canonical_json(&reply.groups, true), want);
    collector.shutdown();
}

/// A query sent the moment `FINISH_ACK` arrives meets a seal still being
/// computed (200k events over four processes, the merged sweep never
/// drained before) and waits for it: the chunk files were scrambled
/// before the finish, so only the seal can answer, and it answers the
/// batch breakdown exactly.
#[test]
fn seal_answers_a_query_sent_right_after_finish_ack() {
    let (_scratch, socket, data) = scratch("sealwait");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let events = four_process_events(50_000);
    let mut producer = CollectorClient::open_session(&socket, "sealwait").unwrap();
    let mut reader = CollectorClient::connect(&socket).unwrap();
    for chunk in events.chunks(4_096) {
        producer.send_events(chunk).unwrap();
    }
    // A per-process live query drains the producer's acks — every chunk
    // is durable — and leaves the merged sweep undrained.
    producer.query(&QuerySpec::session("sealwait").group_by([Dim::Process])).unwrap();
    scramble_chunks(&data.join("sealwait"));
    producer.finish().unwrap();
    let spec = QuerySpec::session("sealwait").group_by([Dim::Phase, Dim::Operation]);
    let reply = reader.query(&spec).unwrap();
    assert!(!reply.live && !reply.cache_hit);
    assert_eq!(reply.events_observed, events.len() as u64);
    let want = Analysis::of_events(&events).group_by([Dim::Phase, Dim::Operation]);
    assert_eq!(reply.canonical_json, want.canonical_json().unwrap());
    let again = reader.query(&spec).unwrap();
    assert!(!again.cache_hit);
    assert_eq!(again.canonical_json, reply.canonical_json);
    collector.shutdown();
}

/// `compact_session` issued the moment `FINISH_ACK` arrives wins over
/// the seal: the session moves to the sorted tier, where no seal is
/// consulted, and the next query reads `sorted/` — answering the very
/// bytes the seal would have given, and failing once `sorted/` is
/// scrambled.
#[test]
fn seal_yields_to_a_compaction_issued_right_after_finish_ack() {
    use rlscope::core::analysis::LiveState;

    let (_scratch, socket, data) = scratch("sealsort");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let events = four_process_events(20_000);
    let mut producer = CollectorClient::open_session(&socket, "sealsort").unwrap();
    let mut live = LiveState::new();
    for chunk in events.chunks(4_096) {
        producer.send_events(chunk).unwrap();
        live.push_columns(&EventColumns::from_events(chunk)).unwrap();
    }
    producer.finish().unwrap();
    assert_eq!(collector.compact_session("sealsort").unwrap(), StorageTier::Sorted);

    let sealed = live.seal();
    let dims = [Dim::Phase, Dim::Operation];
    let mut reader = CollectorClient::connect(&socket).unwrap();
    let reply = reader.query(&QuerySpec::session("sealsort").group_by(dims)).unwrap();
    assert!(!reply.live && !reply.cache_hit);
    let want = Analysis::of_live(&sealed).group_by(dims).canonical_json().unwrap();
    assert_eq!(reply.canonical_json, want);
    assert!(!data.join("sealsort").join("chunk_00000.rls").exists(), "raw chunks dropped");
    scramble_chunks(&data.join("sealsort").join("sorted"));
    let err = reader.query(&QuerySpec::session("sealsort").group_by([Dim::Phase])).unwrap_err();
    assert_remote(err, ErrorCode::Io);
    collector.shutdown();
}

/// An aborted session is never sealed: its live sweeps die with its
/// owner, and its queries read the directory — which fails once the
/// chunks are scrambled.
#[test]
fn seal_is_never_taken_for_an_aborted_session() {
    let (_scratch, socket, data) = scratch("sealabort");
    let collector = Collector::bind(CollectorConfig::new(&socket, &data)).unwrap();
    let events = session_events(0, 4_096);
    let mut conn = raw_session(&socket, "sealabort");
    send_chunk(&mut conn, 0, &events[..2_048]);
    assert_eq!(read_ack(&mut conn), (0, 2_048));
    send_chunk(&mut conn, 5, &events[2_048..]);
    assert_eq!(read_frame(&mut conn).unwrap().unwrap().0, kind::ERROR);
    assert_eq!(collector.session_phase("sealabort"), Some(SessionPhase::Aborted));
    let mut query = CollectorClient::connect(&socket).unwrap();
    let prefix = query.query(&QuerySpec::session("sealabort")).unwrap();
    assert_eq!(
        prefix.canonical_json,
        Analysis::of_events(&events[..2_048]).canonical_json().unwrap()
    );
    scramble_chunks(&data.join("sealabort"));
    let err = query.query(&QuerySpec::session("sealabort").group_by([Dim::Phase])).unwrap_err();
    assert_remote(err, ErrorCode::Io);
    collector.shutdown();
}
