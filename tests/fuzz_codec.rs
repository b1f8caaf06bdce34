//! Corruption-fuzz suite for the chunk codec and the chunk-dir index:
//! `decode_columns` (the one chunk parser), `decode_events` (that parser
//! plus the row bridge) and `Manifest::open` (the chunk-tail reader)
//! must map every malformed input to `TraceIoError` — truncations, bit
//! flips, bad magic, overlong varints, out-of-range string-table ids,
//! checksum mismatches — and never panic, overflow, return silently
//! wrong intervals, or (for footers) produce a silently wrong chunk-skip
//! summary.
//!
//! The "fuzzing" is deterministic (seeded xorshift), so failures
//! reproduce; a panic anywhere in a decode aborts the test process and
//! fails the suite.

use rlscope::core::store::{
    decode_columns, decode_events, encode_declared, encode_events, list_chunk_files, read_frame,
    write_frame, EventColumns, Manifest, TraceIoError, MAX_FRAME_LEN,
};
use rlscope::core::{Event, EventKind};

include!(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fixture.rs"));

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every decoded event must satisfy the event model's invariants,
/// whatever bytes produced it.
fn assert_events_sane(events: &[Event]) {
    for e in events {
        assert!(e.end >= e.start, "decoded event ends before it starts");
        assert!(e.name.len() <= u16::MAX as usize, "decoded name exceeds wire limit");
    }
}

/// Decoded columns must satisfy the same event-model invariants as
/// decoded rows, whatever bytes produced them — and stay internally
/// consistent (equal column lengths, in-table name ids).
fn assert_columns_sane(cols: &EventColumns) {
    let n = cols.len();
    assert_eq!(cols.pids.len(), n);
    assert_eq!(cols.kinds.len(), n);
    assert_eq!(cols.name_ids.len(), n);
    assert_eq!(cols.starts.len(), n);
    assert_eq!(cols.ends.len(), n);
    for i in 0..n {
        assert!(cols.ends[i] >= cols.starts[i], "decoded column event ends before it starts");
        assert!((cols.name_ids[i] as usize) < cols.names.len(), "name id past table");
        assert!(cols.names[cols.name_ids[i] as usize].len() <= u16::MAX as usize);
    }
}

/// The daemon ingest path feeds untrusted bytes straight into
/// `decode_columns`, and `decode_events` is that parser plus the
/// `to_events` bridge. Truncation at *every* byte offset of all three
/// wire formats, of a declared v3 chunk, and of a v3 chunk whose starts
/// lie above `i64::MAX` (its start deltas wrap), must yield
/// `TraceIoError::Corrupt` from both entry points — never a panic, never
/// data from a partial record, and for v3 never a chunk whose footer
/// survives the cross-check.
#[test]
fn truncation_at_every_offset_errors() {
    let events = corpus_events();
    for encoded in [
        encode_events(&events).to_vec(),
        encode_declared(&events, &corpus_cut()).to_vec(),
        encode_events(&corpus_extreme_events()).to_vec(),
        encode_legacy_v2(&events),
        encode_legacy_v1(&events),
    ] {
        assert!(decode_columns(&encoded).is_ok());
        assert!(decode_events(&encoded).is_ok());
        for cut in 0..encoded.len() {
            match decode_columns(&encoded[..cut]) {
                Err(TraceIoError::Corrupt(_)) => {}
                Err(TraceIoError::Io(e)) => panic!("unexpected io error at cut {cut}: {e}"),
                Ok(cols) => panic!(
                    "truncated chunk ({cut}/{} bytes) decoded to {} events",
                    encoded.len(),
                    cols.len()
                ),
            }
            assert!(matches!(decode_events(&encoded[..cut]), Err(TraceIoError::Corrupt(_))));
        }
    }
}

/// Seeded byte-flip fuzzing over all formats, a declared v3 chunk and a
/// v3 chunk of starts above `i64::MAX` (two corruption streams each):
/// decode must return `Ok` — with sane
/// columns that bridge to sane rows — or `Corrupt`, never panic.
#[test]
fn random_byte_flips_never_panic() {
    let events = corpus_events();
    let declared = encode_declared(&events, &corpus_cut()).to_vec();
    let extreme = encode_events(&corpus_extreme_events()).to_vec();
    for (seed, base) in [
        (0x1234_5678u64, encode_events(&events).to_vec()),
        (0xdec1, declared.clone()),
        (0xdec2, declared),
        (0x5e5e_5e5e, encode_legacy_v2(&events)),
        (0x9abc_def0, encode_legacy_v1(&events)),
        (0xe1, extreme.clone()),
        (0xe2, extreme),
        (0xc01, encode_events(&events).to_vec()),
        (0xc02, encode_legacy_v2(&events)),
        (0xc03, encode_legacy_v1(&events)),
    ] {
        let mut rng = Rng(seed);
        for _ in 0..4_000 {
            let mut data = base.to_vec();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(data.len());
                data[at] ^= (rng.next() % 255 + 1) as u8;
            }
            // Occasionally truncate as well.
            if rng.below(4) == 0 {
                data.truncate(rng.below(data.len() + 1));
            }
            match decode_columns(&data) {
                Ok(cols) => {
                    assert_columns_sane(&cols);
                    let rows = cols.to_events().expect("decoded columns always bridge to rows");
                    assert_events_sane(&rows);
                }
                Err(TraceIoError::Corrupt(_)) => {}
                Err(TraceIoError::Io(e)) => panic!("unexpected io error: {e}"),
            }
        }
    }
}

/// Pure garbage of many lengths: must error (or decode an empty/sane
/// stream if the stars align on a valid header), never panic.
#[test]
fn random_garbage_never_panics() {
    let mut rng = Rng(0x00c0_ffee);
    for len in 0..512usize {
        let data: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
        if let Ok(decoded) = decode_events(&data) {
            assert_events_sane(&decoded);
        }
        if let Ok(cols) = decode_columns(&data) {
            assert_columns_sane(&cols);
        }
    }
    // And garbage behind a valid magic + count header.
    for magic in [&b"RLSCOPE1"[..], &b"RLSCOPE2"[..], &b"RLSCOPE3"[..]] {
        for len in 0..256usize {
            let mut data = magic.to_vec();
            data.extend_from_slice(&(u32::MAX).to_be_bytes());
            data.extend((0..len).map(|_| (rng.next() & 0xff) as u8));
            if let Ok(decoded) = decode_events(&data) {
                assert_events_sane(&decoded);
            }
            if let Ok(cols) = decode_columns(&data) {
                assert_columns_sane(&cols);
            }
        }
    }
}

/// `EventColumns` has public fields, so the row bridge cannot assume a
/// decode built its input: an unknown kind tag, a name id outside the
/// table, and ragged columns are each a typed `Corrupt`, never a panic.
#[test]
fn hand_built_columns_bridge_to_typed_errors() {
    let good = EventColumns::from_events(&corpus_events());
    assert_eq!(good.to_events().unwrap(), corpus_events());
    let mut bad_tag = good.clone();
    bad_tag.kinds[3] = 8;
    let mut bad_name = good.clone();
    bad_name.name_ids[0] = bad_name.names.len() as u32;
    let mut ragged = good.clone();
    ragged.ends.pop();
    let mut no_names = good;
    no_names.names.clear();
    for (cols, what) in [
        (bad_tag, "unknown event tag 8"),
        (bad_name, "outside the name table"),
        (ragged, "differ in length"),
        (no_names, "outside the name table"),
    ] {
        match cols.to_events() {
            Err(TraceIoError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected Corrupt({what}), got {other:?}"),
        }
    }
}

fn one_event() -> Event {
    Event::new(
        rlscope::sim::ids::ProcessId(1),
        EventKind::Operation,
        "x",
        rlscope::sim::time::TimeNs::from_nanos(5),
        rlscope::sim::time::TimeNs::from_nanos(9),
    )
}

/// v2 layout for one event named "x": magic(8) count(4) n_strings(4)
/// len(2) name(1), then pid varint at offset 19. (The v3 body shares the
/// layout; [`one_event_v3`] exercises it behind the footer trailer.)
fn one_event_v2() -> Vec<u8> {
    let e = one_event();
    let data = encode_legacy_v2(std::slice::from_ref(&e));
    assert_eq!(&data[..8], b"RLSCOPE2");
    data
}

/// The same single-event chunk in v3 (footer + trailer appended).
fn one_event_v3() -> Vec<u8> {
    let e = one_event();
    let data = encode_events(std::slice::from_ref(&e)).to_vec();
    assert_eq!(&data[..8], b"RLSCOPE3");
    data
}

const V2_PID_OFFSET: usize = 8 + 4 + 4 + 2 + 1;

/// Overlong varints — 10 continuation bytes, or a 10th byte with bits
/// beyond u64 — are corruption, not silent truncation. The v2 and v3
/// bodies share the record layout, so both formats are exercised.
#[test]
fn overlong_and_overflowing_varints_rejected() {
    for base in [one_event_v2(), one_event_v3()] {
        // 11-byte varint (too long even if the value would fit).
        let mut data = base.clone();
        data.splice(V2_PID_OFFSET..V2_PID_OFFSET + 1, [0x80u8; 10].into_iter().chain([0x01]));
        let err = decode_events(&data).unwrap_err();
        assert!(err.to_string().contains("varint"), "{err}");

        // 10-byte varint whose final byte overflows u64.
        let mut data = base.clone();
        data.splice(V2_PID_OFFSET..V2_PID_OFFSET + 1, [0x80u8; 9].into_iter().chain([0x02]));
        let err = decode_events(&data).unwrap_err();
        assert!(err.to_string().contains("overflow"), "{err}");

        // Maximal legal varint in the pid field: decodes as a varint but
        // the value must then fail the pid u32 range check — not wrap.
        let mut data = base.clone();
        data.splice(V2_PID_OFFSET..V2_PID_OFFSET + 1, [0xffu8; 9].into_iter().chain([0x01]));
        let err = decode_events(&data).unwrap_err();
        assert!(err.to_string().contains("pid out of range"), "{err}");
    }
}

/// String-table ids at or past the table length are corruption.
#[test]
fn out_of_range_string_table_ids_rejected() {
    // name_id follows pid varint (1 byte) + tag (1 byte).
    let name_id_at = V2_PID_OFFSET + 2;
    for base in [one_event_v2(), one_event_v3()] {
        for bad_id in [0x01u8, 0x7f] {
            let mut data = base.clone();
            data[name_id_at] = bad_id; // table holds exactly one name (id 0)
            let err = decode_events(&data).unwrap_err();
            assert!(err.to_string().contains("name id"), "{err}");
        }
    }
}

/// Every single-byte flip anywhere in a v3 chunk's footer region —
/// payload (a declared chunk's declaration included), length field,
/// trailer magic — must yield `TraceIoError`, never a silently
/// different skip summary or declaration: the checksum (or the
/// footer-vs-events cross-check) catches it.
#[test]
fn v3_footer_flips_never_skip_silently() {
    let events = corpus_events();
    for data in [encode_events(&events).to_vec(), encode_declared(&events, &corpus_cut()).to_vec()]
    {
        // The footer region is everything after the v2 body; recover
        // its start from the trailer length field.
        let mut len_bytes = [0u8; 4];
        len_bytes.copy_from_slice(&data[data.len() - 8..data.len() - 4]);
        let footer_start = data.len() - 8 - u32::from_be_bytes(len_bytes) as usize;
        for at in footer_start..data.len() {
            for bit in [0x01u8, 0x80] {
                let mut flipped = data.clone();
                flipped[at] ^= bit;
                match decode_columns(&flipped) {
                    Err(TraceIoError::Corrupt(_)) => {}
                    Err(TraceIoError::Io(e)) => panic!("unexpected io error at byte {at}: {e}"),
                    Ok(_) => panic!("flip at footer byte {at} (bit {bit:#x}) decoded cleanly"),
                }
            }
        }
    }
}

/// Chunk-tail corruption: `Manifest::open` reads each chunk's footer
/// from its tail alone, so truncating a chunk at every offset of its
/// footer and trailer, and seeded byte flips there, must surface as
/// `TraceIoError::Corrupt` — a corrupted footer must never silently
/// drive skip decisions — and never panic. A `footer_len` the file
/// cannot hold is rejected by its bound, before a buffer of that size
/// exists (a 4 GiB claim would otherwise be allocated and read).
#[test]
fn chunk_tail_corruption_errors_never_panics() {
    let dir = std::env::temp_dir().join(format!("rlscope_fuzz_tail_{}", std::process::id()));
    write_corpus_chunk_dir(&dir);
    let chunk = list_chunk_files(&dir).unwrap().remove(0);
    let base = std::fs::read(&chunk).unwrap();
    assert_eq!(&base[..8], b"RLSCOPE3");
    let len_at = base.len() - 8;
    let footer_len = u32::from_be_bytes(base[len_at..len_at + 4].try_into().unwrap()) as usize;
    let tail = len_at - footer_len..base.len();
    let open_is_corrupt = |what: &str| match Manifest::open(&dir) {
        Err(TraceIoError::Corrupt(msg)) => msg,
        Err(TraceIoError::Io(e)) => panic!("unexpected io error ({what}): {e}"),
        Ok(_) => panic!("corrupt chunk tail indexed cleanly ({what})"),
    };

    for cut in tail.clone() {
        std::fs::write(&chunk, &base[..cut]).unwrap();
        open_is_corrupt(&format!("cut at {cut}/{}", base.len()));
    }
    let mut rng = Rng(0xfeed_beef);
    for _ in 0..2_000 {
        let mut data = base.clone();
        for _ in 0..1 + rng.below(3) {
            let at = tail.start + rng.below(tail.len());
            data[at] ^= (rng.next() % 255 + 1) as u8;
        }
        std::fs::write(&chunk, &data).unwrap();
        open_is_corrupt("byte flips in the tail");
    }
    for claim in [len_at as u32 - 8 + 1, base.len() as u32, u32::MAX] {
        let mut data = base.clone();
        data[len_at..len_at + 4].copy_from_slice(&claim.to_be_bytes());
        std::fs::write(&chunk, &data).unwrap();
        let msg = open_is_corrupt(&format!("footer_len {claim}"));
        assert!(msg.contains("footer length out of range"), "footer_len {claim}: {msg}");
    }
    // And with the genuine tail back, the index opens again.
    std::fs::write(&chunk, &base).unwrap();
    assert_eq!(Manifest::open(&dir).unwrap().total_events(), corpus_events().len() as u64);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Declared counts far beyond the payload must error cheaply (the
/// decoder clamps preallocation, so no OOM either).
#[test]
fn inflated_counts_rejected() {
    for base in [encode_events(&corpus_events()).to_vec(), encode_legacy_v1(&corpus_events())] {
        let mut data = base;
        data[8..12].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(decode_events(&data), Err(TraceIoError::Corrupt(_))));
    }
    // Inflated string-table count in v2.
    let mut data = encode_events(&corpus_events()).to_vec();
    data[12..16].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(decode_events(&data), Err(TraceIoError::Corrupt(_))));
}

/// Unknown magic values are rejected outright.
#[test]
fn unknown_magic_rejected() {
    for magic in [&b"RLSCOPE0"[..], b"RLSCOPE4", b"rlscope2", b"XXXXXXXX"] {
        let mut data = encode_events(&corpus_events()).to_vec();
        data[..8].copy_from_slice(magic);
        assert!(matches!(decode_events(&data), Err(TraceIoError::Corrupt(_))));
    }
}

/// Reads frames until EOF or error, never panicking: the consumption
/// loop every frame-fuzz assertion drives.
fn drain_frames(bytes: &[u8]) -> Result<Vec<(u8, Vec<u8>)>, TraceIoError> {
    let mut cursor = std::io::Cursor::new(bytes);
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut cursor)? {
        frames.push(frame);
    }
    Ok(frames)
}

/// The collector wire stream (length-prefixed frames whose chunk
/// payloads are codec-v3 bodies) truncated at every byte offset: each
/// cut must yield either a clean frame-boundary EOF with strictly fewer
/// frames, or `TraceIoError::Corrupt` — never a panic, and never the
/// full frame count (a truncated session must be distinguishable, so no
/// event is ever silently dropped).
#[test]
fn frame_stream_truncation_at_every_offset() {
    let events = corpus_events();
    let mut stream = Vec::new();
    write_frame(&mut stream, 0x01, b"\x00\x00\x00\x02\x00\x00\x02s1").unwrap();
    write_frame(&mut stream, 0x02, &encode_events(&events[..events.len() / 2])).unwrap();
    write_frame(&mut stream, 0x02, &encode_events(&events[events.len() / 2..])).unwrap();
    write_frame(&mut stream, 0x03, b"").unwrap();
    let full = drain_frames(&stream).unwrap();
    assert_eq!(full.len(), 4);
    for cut in 0..stream.len() {
        match drain_frames(&stream[..cut]) {
            Ok(frames) => assert!(
                frames.len() < full.len(),
                "cut {cut}/{} decoded all {} frames",
                stream.len(),
                full.len()
            ),
            Err(TraceIoError::Corrupt(_)) => {}
            Err(TraceIoError::Io(e)) => panic!("unexpected io error at cut {cut}: {e}"),
        }
    }
}

/// Length-field corruption: flipped bits in any frame header must yield
/// an error or a (different, sane) frame sequence — oversized lengths
/// are rejected before allocation, and nothing panics.
#[test]
fn frame_length_corruption_never_panics() {
    let mut stream = Vec::new();
    write_frame(&mut stream, 0x02, &encode_events(&corpus_events())).unwrap();
    write_frame(&mut stream, 0x03, b"").unwrap();
    for at in 0..stream.len().min(64) {
        for bit in 0..8u8 {
            let mut data = stream.clone();
            data[at] ^= 1 << bit;
            if let Ok(frames) = drain_frames(&data) {
                for (_, payload) in frames {
                    assert!(payload.len() <= MAX_FRAME_LEN);
                    // Chunk payloads re-enter the codec: corrupt ones
                    // must error there, sane ones must decode sanely.
                    if let Ok(decoded) = decode_events(&payload) {
                        assert_events_sane(&decoded);
                    }
                }
            }
        }
    }
    // A declared length beyond the frame limit is rejected outright.
    let mut huge = (MAX_FRAME_LEN as u32 + 1).to_be_bytes().to_vec();
    huge.push(0x02);
    huge.extend_from_slice(&[0u8; 32]);
    let err = drain_frames(&huge).unwrap_err();
    assert!(err.to_string().contains("frame length"), "{err}");
}

/// Pure garbage interpreted as a frame stream: bounded work, sane
/// results, no panics.
#[test]
fn frame_garbage_never_panics() {
    let mut rng = Rng(0x0f0f_f0f0);
    for len in 0..512usize {
        let data: Vec<u8> = (0..len).map(|_| (rng.next() & 0xff) as u8).collect();
        if let Ok(frames) = drain_frames(&data) {
            for (_, payload) in frames {
                if let Ok(decoded) = decode_events(&payload) {
                    assert_events_sane(&decoded);
                }
            }
        }
    }
}

/// Representative collector-protocol payloads, one per frame decoder
/// the daemon or client runs on peer-controlled bytes.
fn protocol_payloads() -> Vec<(&'static str, Vec<u8>)> {
    use rlscope::collector::protocol::{
        HelloAck, HelloRequest, QueryAllReply, QueryReply, QuerySpec, SessionInfo, SessionList,
    };
    use rlscope::core::analysis::{Dim, GroupKey};
    use rlscope::core::compute_overlap;

    let events = corpus_events();
    let spec = QuerySpec::session("run-1")
        .phase("training")
        .process(7)
        .operation("backprop")
        .window(10, 90)
        .group_by([Dim::Operation, Dim::Process]);
    let query_all = QueryAllReply {
        live: true,
        events_observed: events.len() as u64,
        sessions: vec!["run-1".into(), "run-2".into()],
        groups: vec![
            (
                GroupKey { session: None, phase: None, process: None, operation: None },
                compute_overlap(&events),
            ),
            (
                GroupKey {
                    session: Some("run-2".into()),
                    phase: None,
                    process: None,
                    operation: None,
                },
                compute_overlap(&events[..events.len() / 2]),
            ),
        ],
    };
    vec![
        ("HELLO(new)", HelloRequest::new_session("run-1").encode()),
        ("HELLO(resume)", HelloRequest::resume("run-1", 3).encode()),
        ("HELLO_ACK", HelloAck { session_id: 9, credits: 32, epoch: 3, acked_chunks: 17 }.encode()),
        ("QUERY spec", spec.encode()),
        (
            "QUERY_OK",
            QueryReply {
                live: false,
                cache_hit: true,
                events_observed: 12,
                canonical_json: "{\"total\":1}".into(),
            }
            .encode(),
        ),
        (
            "SESSIONS",
            SessionList {
                sessions: vec![
                    SessionInfo { name: "a".into(), live: true, events: 4 },
                    SessionInfo { name: "b".into(), live: false, events: 9 },
                ],
            }
            .encode(),
        ),
        ("QUERY_ALL_OK", query_all.encode()),
    ]
}

/// Decodes `data` with the decoder matching the payload's `label` —
/// the value is discarded; these drivers exist so corruption fuzzing
/// exercises every protocol decoder without panicking.
fn protocol_decode(label: &str, data: &[u8]) {
    use rlscope::collector::protocol::{
        HelloAck, HelloRequest, QueryAllReply, QueryReply, QuerySpec, SessionList,
    };
    match label {
        "HELLO(new)" | "HELLO(resume)" => drop(HelloRequest::decode(data)),
        "HELLO_ACK" => drop(HelloAck::decode(data)),
        "QUERY spec" => drop(QuerySpec::decode(data)),
        "QUERY_OK" => drop(QueryReply::decode(data)),
        "SESSIONS" => drop(SessionList::decode(data)),
        "QUERY_ALL_OK" => drop(QueryAllReply::decode(data)),
        other => panic!("unknown payload label {other}"),
    }
}

/// Every protocol payload must survive its own round trip — the
/// regression guard for the decoder rewrites onto checked slice
/// splitting (`take_n` / `split_first_chunk`).
#[test]
fn protocol_payloads_round_trip() {
    use rlscope::collector::protocol::{
        HelloAck, HelloRequest, QueryAllReply, QueryReply, QuerySpec, SessionList,
    };
    for (label, payload) in protocol_payloads() {
        match label {
            "HELLO(new)" | "HELLO(resume)" => {
                let v = HelloRequest::decode(&payload).unwrap();
                assert_eq!(v.encode(), payload, "{label}");
            }
            "HELLO_ACK" => {
                let v = HelloAck::decode(&payload).unwrap();
                assert_eq!(v.encode(), payload, "{label}");
            }
            "QUERY spec" => {
                let v = QuerySpec::decode(&payload).unwrap();
                assert_eq!(v.encode(), payload, "{label}");
            }
            "QUERY_OK" => {
                let v = QueryReply::decode(&payload).unwrap();
                assert_eq!(v.encode(), payload, "{label}");
            }
            "SESSIONS" => {
                let v = SessionList::decode(&payload).unwrap();
                assert_eq!(v.encode(), payload, "{label}");
            }
            "QUERY_ALL_OK" => {
                let v = QueryAllReply::decode(&payload).unwrap();
                assert_eq!(v.encode(), payload, "{label}");
            }
            other => panic!("unknown payload label {other}"),
        }
    }
}

/// Truncating any protocol payload at any offset must yield a typed
/// `CollectorError` or a (shorter, sane) value — never a panic. This
/// pins the decode-path fixes: every one of these decoders used to
/// carry an `expect`/indexing step that a short peer frame could trip.
#[test]
fn protocol_truncation_at_every_offset_never_panics() {
    use rlscope::collector::protocol::{HelloAck, HelloRequest, SessionList};
    for (label, payload) in protocol_payloads() {
        for cut in 0..payload.len() {
            protocol_decode(label, &payload[..cut]);
        }
    }
    // The fixed-size and length-prefixed decoders reject *every* strict
    // truncation outright (no prefix of them is a valid payload).
    for (label, payload) in protocol_payloads() {
        for cut in 0..payload.len() {
            let short = &payload[..cut];
            match label {
                "HELLO(new)" | "HELLO(resume)" => {
                    assert!(HelloRequest::decode(short).is_err(), "{label} cut {cut}");
                }
                "HELLO_ACK" => assert!(HelloAck::decode(short).is_err(), "{label} cut {cut}"),
                "SESSIONS" => assert!(SessionList::decode(short).is_err(), "{label} cut {cut}"),
                _ => {}
            }
        }
    }
}

/// Seeded byte-flip fuzzing over every protocol payload: decode must
/// return a value or a typed error, never panic — the same contract the
/// chunk codec honors above.
#[test]
fn protocol_byte_flips_never_panic() {
    let mut rng = Rng(0xdead_cafe);
    for (label, payload) in protocol_payloads() {
        for _ in 0..2_000 {
            let mut data = payload.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(data.len());
                data[at] ^= (rng.next() % 255 + 1) as u8;
            }
            if rng.below(4) == 0 {
                data.truncate(rng.below(data.len() + 1));
            }
            protocol_decode(label, &data);
        }
    }
}

/// v1 events whose end precedes their start are rejected (the v2 format
/// cannot express them — durations are unsigned).
#[test]
fn v1_negative_duration_rejected() {
    let e = Event::new(
        rlscope::sim::ids::ProcessId(0),
        EventKind::Operation,
        "x",
        rlscope::sim::time::TimeNs::from_nanos(100),
        rlscope::sim::time::TimeNs::from_nanos(200),
    );
    let mut data = encode_legacy_v1(std::slice::from_ref(&e));
    // Layout: magic(8) count(4) pid(4) tag(1) len(2) name(1) start(8) end(8).
    let end_at = data.len() - 8;
    data[end_at..].copy_from_slice(&10u64.to_be_bytes());
    let err = decode_events(&data).unwrap_err();
    assert!(err.to_string().contains("ends before start"), "{err}");
}
