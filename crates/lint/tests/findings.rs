//! Golden findings suite: runs the lock-order check over the checked-in
//! fixture workspace under `tests/fixtures/demo` and asserts the exact
//! `file:line: lock-order: message` output, and checks that the real
//! workspace is clean.

use std::path::Path;

fn findings_under(root: &Path) -> Vec<String> {
    let orders = rlscope_lint::load_manifest(root).expect("manifest parses");
    let findings = rlscope_lint::run(root, &orders).expect("lint runs");
    findings.iter().map(|f| f.to_string()).collect()
}

#[test]
fn golden_fixture_findings() {
    let got = findings_under(&Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/demo"));
    // One inversion; the in-order and `drop`-released paths are clean.
    let want = [
        "src/daemon.rs:25: lock-order: acquired `sessions` (rank 0) while holding `writer` (rank 2); declared order: sessions → state → writer",
    ];
    assert_eq!(got, want.map(String::from), "golden findings drifted:\n{}", got.join("\n"));
}

#[test]
fn manifest_typos_are_errors() {
    use rlscope_lint::manifest::parse;
    assert!(parse("[[lock_order]]\nfile = \"a.rs\"\norder = [\"x\", \"y\"]\n").is_ok());
    for bad in [
        "file = \"a.rs\"\n", // key outside an entry
        "[[lock_order]]\nfiel = \"a.rs\"\norder = [\"x\", \"y\"]\n", // unknown key
        "[[lock_order]]\nfile = \"a.rs\"\norder = [\"x\"]\n", // one lock orders nothing
        "[lock_order]\nfile = \"a.rs\"\n", // unknown section
    ] {
        assert!(parse(bad).is_err(), "accepted: {bad:?}");
    }
}

/// The real workspace must be clean — the same check CI's `lint` job
/// runs, kept here so `cargo test` alone catches an inversion.
#[test]
fn workspace_lints_clean() {
    let got = findings_under(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."));
    assert!(got.is_empty(), "workspace has lock-order findings:\n{}", got.join("\n"));
}
