//! CLI for the lock-order check. See the [library docs](rlscope_lint);
//! run as `cargo run -p rlscope-lint -- --check` from anywhere in the
//! workspace.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: rlscope-lint [--check] [--root <dir>]

Checks the lock hierarchies declared in lint/invariants.toml. Exits 0
when clean, 1 on findings, 2 on a configuration or I/O problem.";

fn workspace_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(root) = explicit {
        return Some(root);
    }
    // When run via `cargo run -p rlscope-lint`, the manifest dir is
    // <root>/crates/lint; otherwise walk up from the cwd to the first
    // directory holding lint/invariants.toml.
    if let Ok(dir) = std::env::var("CARGO_MANIFEST_DIR") {
        let candidate = PathBuf::from(dir).join("..").join("..");
        if candidate.join("lint").join("invariants.toml").exists() {
            return Some(candidate);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("lint").join("invariants.toml").exists() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let mut root_arg: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => {}
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root takes a directory\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(root) = workspace_root(root_arg) else {
        eprintln!("rlscope-lint: could not locate a workspace root holding lint/invariants.toml");
        return ExitCode::from(2);
    };
    let findings = match rlscope_lint::load_manifest(&root)
        .and_then(|orders| rlscope_lint::run(&root, &orders))
    {
        Ok(f) => f,
        Err(e) => {
            eprintln!("rlscope-lint: {e}");
            return ExitCode::from(2);
        }
    };
    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("rlscope-lint: clean");
        ExitCode::SUCCESS
    } else {
        println!("rlscope-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}
