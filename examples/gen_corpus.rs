//! Regenerates the golden trace corpus under `tests/corpus/`.
//!
//! Run after any **deliberate** change to the chunk wire formats, the
//! overlap sweep's attribution semantics, or the fixture itself:
//!
//! ```text
//! cargo run --example gen_corpus
//! ```
//!
//! then review the corpus diff as part of the change. `tests/golden.rs`
//! fails on any drift between the checked-in files and the current
//! codec/sweep behavior.

// CLI errors exit with a message; they never unwrap or panic.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use rlscope::core::analysis::{Analysis, Dim};
use rlscope::core::compute_overlap;
use rlscope::core::rollup::rollup_chunk_dir;
use rlscope::core::store::{encode_declared, encode_events, reorder_chunk_dir};
use std::path::Path;

/// The corpus fixture, shared with the golden, fuzz and property suites.
#[expect(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "test-support code: the suites that share it fail by unwrapping"
)]
mod fixture {
    include!(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/fixture.rs"));
}
use fixture::*;

/// Writes one corpus file, exiting with a message on I/O failure —
/// a half-written corpus must never look like a successful regen.
fn write(path: &Path, data: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, data.as_ref()) {
        eprintln!("gen_corpus: writing {} failed: {e}", path.display());
        std::process::exit(2);
    }
}

/// Unwraps a fallible step, exiting with a message on failure — a
/// half-written corpus must never look like a successful regen.
fn run<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("gen_corpus: {what} failed: {e}");
        std::process::exit(2);
    })
}

fn main() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let events = corpus_events();
    let extreme = corpus_extreme_events();

    let v3 = encode_events(&events);
    assert_eq!(&v3[..8], b"RLSCOPE3", "main corpus must encode as v3");
    let v2 = encode_legacy_v2(&events);
    assert_eq!(&v2[..8], b"RLSCOPE2", "legacy corpus must encode as v2");
    let v1 = encode_legacy_v1(&events);
    // The extreme corpus stays the v1 chunk the library wrote for starts
    // above i64::MAX before v3 deltas wrapped.
    let extreme_chunk = encode_legacy_v1(&extreme);

    write(&dir.join("corpus_v3.rls"), &v3);
    write(&dir.join("corpus_v2.rls"), &v2);
    write(&dir.join("corpus_v1.rls"), &v1);
    write(&dir.join("corpus_extreme.rls"), &extreme_chunk);
    write(&dir.join("corpus_declared.rls"), encode_declared(&events, &corpus_cut()));
    write(&dir.join("expected_overall.json"), compute_overlap(&events).canonical_json());
    write(&dir.join("expected_by_pid.json"), per_pid_canonical_json(&per_pid_tables(&events)));
    write(&dir.join("expected_extreme.json"), compute_overlap(&extreme).canonical_json());

    // The deterministic chunk directory's manifest: footers for every
    // chunk, byte-stable for the fixture + chunking parameters.
    let tmp = std::env::temp_dir().join(format!("rlscope_gen_corpus_{}", std::process::id()));
    let manifest = write_corpus_chunk_dir(&tmp);
    if let Err(e) = std::fs::remove_dir_all(&tmp) {
        eprintln!("gen_corpus: cleaning {} failed: {e}", tmp.display());
        std::process::exit(2);
    }
    write(&dir.join("corpus_manifest.bin"), &manifest);

    // The tiered-storage golden: the corpus rolled up into segment
    // summaries — sorted first, exactly as the compaction ladder does —
    // byte-frozen under `corpus_rollup/`, plus the coarse query answers
    // the rollup tier must serve (generated by sweeping the sorted
    // events in memory, so the harness cross-checks the rollup reader
    // against the sweep, not against itself).
    let raw = std::env::temp_dir().join(format!("rlscope_gen_rollup_raw_{}", std::process::id()));
    let sorted =
        std::env::temp_dir().join(format!("rlscope_gen_rollup_sorted_{}", std::process::id()));
    write_corpus_chunk_dir(&raw);
    let _ = std::fs::remove_dir_all(&sorted);
    run(reorder_chunk_dir(&raw, &sorted, CORPUS_DIR_CHUNK_BYTES), "sorting the corpus dir");
    let rollup_stats = run(
        rollup_chunk_dir(&sorted, &dir.join("corpus_rollup"), CORPUS_ROLLUP_SEGMENT_NS),
        "rolling up the corpus dir",
    );
    write(
        &dir.join("expected_rollup_overall.json"),
        run(Analysis::from_chunk_dir(&sorted).canonical_json(), "overall rollup reference"),
    );
    write(
        &dir.join("expected_rollup_by_phase_op.json"),
        run(
            Analysis::from_chunk_dir(&sorted)
                .group_by([Dim::Phase, Dim::Operation])
                .canonical_json(),
            "phase/op rollup reference",
        ),
    );
    for d in [&raw, &sorted] {
        if let Err(e) = std::fs::remove_dir_all(d) {
            eprintln!("gen_corpus: cleaning {} failed: {e}", d.display());
            std::process::exit(2);
        }
    }

    // The Minigo phase-report golden (regenerate after any deliberate
    // change to the simulation stack's cost models or the workload).
    write(&dir.join("minigo_phase.json"), minigo_phase_canonical_json());

    println!(
        "wrote {} events (v1 {} B, v2 {} B, v3 {} B, manifest {} B, {} rollup segments) \
         + {} extreme events to {}",
        events.len(),
        v1.len(),
        v2.len(),
        v3.len(),
        manifest.len(),
        rollup_stats.segments,
        extreme.len(),
        dir.display()
    );
}
