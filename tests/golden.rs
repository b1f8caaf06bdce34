//! Golden trace corpus: any drift in codec bytes or sweep attribution
//! fails here.
//!
//! The corpus under `tests/corpus/` holds checked-in v1, v2 and v3 chunk
//! files for a fixed adversarial event stream plus the expected
//! `BreakdownTable`s in canonical JSON. Deliberate format or semantics
//! changes must regenerate it (`cargo run --example gen_corpus`) and the
//! corpus diff reviewed with the change; anything else failing these
//! tests is a regression.

use rlscope::core::analysis::{Analysis, Dim};
use rlscope::core::compute_overlap;
use rlscope::core::overlap::OverlapSweep;
use rlscope::core::store::{
    compute_footer, decode_columns, decode_events, encode_declared, encode_events,
    reorder_chunk_dir, Manifest, TraceWriter,
};
use std::path::{Path, PathBuf};

include!(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fixture.rs"));

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn corpus_file(name: &str) -> Vec<u8> {
    std::fs::read(corpus_dir().join(name)).unwrap_or_else(|e| {
        panic!("missing corpus file {name} ({e}); run `cargo run --example gen_corpus`")
    })
}

fn corpus_text(name: &str) -> String {
    String::from_utf8(corpus_file(name)).unwrap()
}

/// Decoding the checked-in chunks must reproduce the fixture exactly —
/// all three wire formats, field for field. The v1/v2 fixtures predate
/// codec v3 and must keep decoding **byte-identically** forever.
#[test]
fn corpus_chunks_decode_to_fixture() {
    let events = corpus_events();
    assert_eq!(decode_events(&corpus_file("corpus_v3.rls")).unwrap(), events, "v3 decode drift");
    assert_eq!(decode_events(&corpus_file("corpus_v2.rls")).unwrap(), events, "v2 decode drift");
    assert_eq!(decode_events(&corpus_file("corpus_v1.rls")).unwrap(), events, "v1 decode drift");
    assert_eq!(
        decode_events(&corpus_file("corpus_extreme.rls")).unwrap(),
        corpus_extreme_events(),
        "extreme (v1) decode drift"
    );
}

/// Encoding the fixture must reproduce the checked-in bytes exactly: the
/// wire formats are frozen, including string-table order, varint
/// choices, and the v3 footer layout. (New formats get a new magic, not
/// silent byte changes.) The legacy v1 and v2 bytes come from the
/// fixture's own encoders, since the library only reads them. The
/// extreme fixture, whose starts lie above `i64::MAX`, is checked in as
/// v1; the library encodes it as v3, which round-trips and sweeps to the
/// same frozen table.
#[test]
fn corpus_encode_is_byte_stable() {
    let events = corpus_events();
    assert_eq!(&encode_events(&events)[..], &corpus_file("corpus_v3.rls")[..], "v3 encode drift");
    assert_eq!(
        &encode_legacy_v2(&events)[..],
        &corpus_file("corpus_v2.rls")[..],
        "v2 encode drift"
    );
    assert_eq!(
        &encode_legacy_v1(&events)[..],
        &corpus_file("corpus_v1.rls")[..],
        "v1 encode drift"
    );
    let extreme = corpus_extreme_events();
    let committed = corpus_file("corpus_extreme.rls");
    assert_eq!(&encode_legacy_v1(&extreme)[..], &committed[..], "extreme v1 encode drift");
    assert_eq!(decode_events(&committed).unwrap(), extreme, "extreme v1 decode drift");
    let v3 = encode_events(&extreme);
    assert_eq!(&v3[..8], b"RLSCOPE3", "extreme timestamps encode as v3");
    let decoded = decode_events(&v3).unwrap();
    assert_eq!(decoded, extreme, "extreme v3 round trip");
    assert_eq!(
        compute_overlap(&decoded).canonical_json(),
        corpus_text("expected_extreme.json"),
        "extreme v3 sweep drift"
    );
}

/// The declared chunk (`corpus_declared.rls`: the fixture events with
/// [`corpus_cut`] in the footer) is byte-stable; its body is the v3
/// corpus's byte for byte; it decodes to the fixture with the cut
/// handed back; and a directory holding it answers as the fixture with
/// the declared scopes closed at the cut — also once rewritten
/// start-sorted, where those closes become events.
#[test]
fn corpus_declared_chunk_is_byte_stable_and_closes_its_scopes() {
    let (events, cut) = (corpus_events(), corpus_cut());
    let declared = corpus_file("corpus_declared.rls");
    assert_eq!(&encode_declared(&events, &cut)[..], &declared[..], "declared encode drift");
    let v3 = corpus_file("corpus_v3.rls");
    let footer_len = |chunk: &[u8]| {
        u32::from_be_bytes(chunk[chunk.len() - 8..chunk.len() - 4].try_into().unwrap()) as usize
    };
    let body = v3.len() - 8 - footer_len(&v3);
    assert_eq!(declared[..body], v3[..body], "a declaration changes only the footer");
    assert_eq!(decode_events(&declared).unwrap(), events);
    assert_eq!(decode_columns(&declared).unwrap().cut, Some(cut.clone()));

    let dir = std::env::temp_dir().join(format!("rlscope_golden_decl_{}", std::process::id()));
    let sorted = dir.join("sorted");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("chunk_00000.rls"), &declared).unwrap();
    let mut closed = events.clone();
    closed.extend(cut.closing_events());
    let dims = [Dim::Process, Dim::Phase, Dim::Operation];
    let want = Analysis::of_events(&closed).group_by(dims).canonical_json().unwrap();
    assert_eq!(Analysis::from_chunk_dir(&dir).group_by(dims).canonical_json().unwrap(), want);
    reorder_chunk_dir(&dir, &sorted, 256).unwrap();
    let mut by_start = closed.clone();
    by_start.sort_by_key(|e| e.start);
    let want = Analysis::of_events(&by_start).group_by(dims).canonical_json().unwrap();
    assert_eq!(Analysis::from_chunk_dir(&sorted).group_by(dims).canonical_json().unwrap(), want);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The chunk-directory index is byte-stable for the fixture's
/// deterministic chunking — footers, file sizes, checksums and all, as
/// its `MANIFEST` export encodes them — and the footers `Manifest::open`
/// reads off the chunks' tails are the ones a full decode computes.
#[test]
fn corpus_manifest_is_byte_stable() {
    let dir = std::env::temp_dir().join(format!("rlscope_golden_manifest_{}", std::process::id()));
    let manifest_bytes = write_corpus_chunk_dir(&dir);
    assert_eq!(
        manifest_bytes,
        corpus_file("corpus_manifest.bin"),
        "manifest drift — regenerate deliberately with `cargo run --example gen_corpus`"
    );
    for entry in Manifest::open(&dir).unwrap().entries() {
        let events = decode_events(&std::fs::read(dir.join(&entry.file)).unwrap()).unwrap();
        assert_eq!(entry.footer, compute_footer(&events), "{}", entry.file);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The in-memory sweep's attribution over the corpus is frozen in canonical
/// JSON — any bucket or nanosecond of drift fails.
#[test]
fn corpus_overlap_matches_expected_tables() {
    let events = corpus_events();
    assert_eq!(
        compute_overlap(&events).canonical_json(),
        corpus_text("expected_overall.json"),
        "merged-stream sweep drift"
    );
    assert_eq!(
        per_pid_canonical_json(&per_pid_tables(&events)),
        corpus_text("expected_by_pid.json"),
        "per-process sweep drift"
    );
    assert_eq!(
        compute_overlap(&corpus_extreme_events()).canonical_json(),
        corpus_text("expected_extreme.json"),
        "extreme-timestamp sweep drift"
    );
}

/// The streaming sweep must produce the identical frozen table over the
/// decoded corpus, at several chunk granularities.
#[test]
fn corpus_streaming_sweep_matches_expected() {
    let events = decode_events(&corpus_file("corpus_v2.rls")).unwrap();
    let expected = corpus_text("expected_overall.json");
    for chunk_len in [1usize, 7, 64, events.len()] {
        let mut sweep = OverlapSweep::new();
        for chunk in events.chunks(chunk_len) {
            sweep.push_batch(chunk).unwrap();
        }
        assert_eq!(
            sweep.finalize().canonical_json(),
            expected,
            "streaming sweep drift at chunk_len {chunk_len}"
        );
    }
}

/// A process-grouped query's tables in the fixture's `(pid, table)` shape.
fn per_pid(
    query: Analysis<'_>,
) -> Vec<(rlscope::sim::ids::ProcessId, rlscope::core::BreakdownTable)> {
    let tables = query.group_by([Dim::Process]).tables().unwrap();
    tables.into_iter().map(|(key, table)| (key.process.unwrap(), table)).collect()
}

/// End-to-end streaming over a chunk directory built from the corpus:
/// the per-process tables must match the frozen per-pid JSON.
#[test]
fn corpus_chunk_dir_streams_to_expected_tables() {
    let events = corpus_events();
    let dir = std::env::temp_dir().join(format!("rlscope_golden_dir_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let writer = TraceWriter::create(&dir, 256).unwrap();
    for chunk in events.chunks(5) {
        writer.write(chunk.to_vec());
    }
    let files = writer.finish().unwrap();
    assert!(files.len() > 1, "corpus should span multiple chunks");
    let tables = per_pid(Analysis::from_chunk_dir(&dir));
    assert_eq!(
        per_pid_canonical_json(&tables),
        corpus_text("expected_by_pid.json"),
        "streamed chunk-dir analysis drift"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The corpus carries profiler-style close-order disorder, which holds
/// a raw directory's sweeps open across chunks. After
/// `reorder_chunk_dir` every sweep is released one chunk behind the
/// stream — the frontier the query reads off the rewritten chunks'
/// footers — and must reproduce the frozen per-pid tables exactly.
#[test]
fn corpus_reordered_dir_bounded_sweep_matches_expected() {
    let src = std::env::temp_dir().join(format!("rlscope_golden_rsrc_{}", std::process::id()));
    let dst = std::env::temp_dir().join(format!("rlscope_golden_rdst_{}", std::process::id()));
    write_corpus_chunk_dir(&src);
    let _ = std::fs::remove_dir_all(&dst);
    let stats = reorder_chunk_dir(&src, &dst, 256).unwrap();
    assert_eq!(stats.events, corpus_events().len() as u64);
    assert!(Manifest::open(&dst).unwrap().is_start_sorted());
    let tables = per_pid(Analysis::from_chunk_dir(&dst));
    assert_eq!(
        per_pid_canonical_json(&tables),
        corpus_text("expected_by_pid.json"),
        "reordered bounded-sweep drift"
    );
    std::fs::remove_dir_all(&src).unwrap();
    std::fs::remove_dir_all(&dst).unwrap();
}

/// The Minigo phase report of one fixed round is frozen: any drift in
/// the workload, the simulation stack's cost models, or phase-grouped
/// analysis fails here. Regenerate deliberately with
/// `cargo run --example gen_corpus` and review the diff.
#[test]
fn corpus_minigo_phase_report_matches_expected() {
    assert_eq!(
        minigo_phase_canonical_json(),
        corpus_text("minigo_phase.json"),
        "Minigo phase-report drift"
    );
}

/// Tiered-storage golden: the checked-in rollup fixture
/// (`corpus_rollup/`) must be byte-identical to a fresh sort + rollup
/// of the corpus — freezing the segment wire format exactly as the
/// chunk goldens freeze the codecs — and the rollup reader must answer
/// the frozen coarse queries, which were generated by sweeping the
/// sorted events in memory (the reader is checked against the sweep,
/// never against itself). Regenerate deliberately with
/// `cargo run --example gen_corpus` and review the diff.
#[test]
fn corpus_rollup_is_byte_stable_and_answers_coarse_queries() {
    use rlscope::core::rollup::rollup_chunk_dir;

    let raw = std::env::temp_dir().join(format!("rlscope_golden_rollraw_{}", std::process::id()));
    let sorted =
        std::env::temp_dir().join(format!("rlscope_golden_rollsrt_{}", std::process::id()));
    let rebuilt =
        std::env::temp_dir().join(format!("rlscope_golden_rollnew_{}", std::process::id()));
    write_corpus_chunk_dir(&raw);
    let _ = std::fs::remove_dir_all(&sorted);
    let _ = std::fs::remove_dir_all(&rebuilt);
    reorder_chunk_dir(&raw, &sorted, CORPUS_DIR_CHUNK_BYTES).unwrap();
    rollup_chunk_dir(&sorted, &rebuilt, CORPUS_ROLLUP_SEGMENT_NS).unwrap();

    let frozen = corpus_dir().join("corpus_rollup");
    let listing = |d: &Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(d)
            .unwrap_or_else(|e| panic!("missing rollup fixture dir {} ({e})", d.display()))
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n == "ROLLUP" || n.ends_with(".rlr"))
            .collect();
        names.sort();
        names
    };
    let files = listing(&rebuilt);
    assert_eq!(files, listing(&frozen), "rollup fixture file-set drift");
    for name in &files {
        assert_eq!(
            std::fs::read(rebuilt.join(name)).unwrap(),
            corpus_file(&format!("corpus_rollup/{name}")),
            "rollup fixture byte drift in {name}"
        );
    }

    assert_eq!(
        Analysis::from_rollup_dir(&frozen).canonical_json().unwrap(),
        corpus_text("expected_rollup_overall.json"),
        "rollup overall-query drift"
    );
    assert_eq!(
        Analysis::from_rollup_dir(&frozen)
            .group_by([Dim::Phase, Dim::Operation])
            .canonical_json()
            .unwrap(),
        corpus_text("expected_rollup_by_phase_op.json"),
        "rollup phase/op-query drift"
    );
    for d in [&raw, &sorted, &rebuilt] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
