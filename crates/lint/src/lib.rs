//! `rlscope-lint`: checks that the daemon takes its locks in one
//! declared order.
//!
//! rustc and clippy hold the workspace's other static contracts (see
//! the README's "Static contracts" table), but neither can see that two
//! `.lock()` calls nest. This crate checks that one statically, over the
//! files `lint/invariants.toml` names ([`manifest`]): a comment- and
//! string-aware [`lexer`], a shallow function and test-region [`scan`],
//! and the [`lock_order`] pass over them.
//!
//! The crate has no dependencies, not even the vendored stand-ins.

#![warn(missing_docs)]

pub mod lexer;
pub mod lock_order;
pub mod manifest;
pub mod scan;

use manifest::LockOrder;
use std::fmt;
use std::path::Path;

/// One lock acquired out of its declared order.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: lock-order: {}", self.file, self.line, self.message)
    }
}

/// A failure of the lint run itself (unreadable manifest or source) —
/// distinct from findings, and fatal.
#[derive(Debug)]
pub struct LintError(pub String);

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LintError {}

/// Checks every declared hierarchy against its file under `root` and
/// returns the findings, sorted by file, then line.
///
/// # Errors
/// Fails when a declared file cannot be read.
pub fn run(root: &Path, orders: &[LockOrder]) -> Result<Vec<Finding>, LintError> {
    let mut findings = Vec::new();
    for cfg in orders {
        let text = std::fs::read_to_string(root.join(&cfg.file))
            .map_err(|e| LintError(format!("cannot read `{}`: {e}", cfg.file)))?;
        findings.extend(lock_order::check(&text, cfg));
    }
    findings.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    Ok(findings)
}

/// Loads `lint/invariants.toml` under `root`.
///
/// # Errors
/// Fails when the manifest is missing or malformed.
pub fn load_manifest(root: &Path) -> Result<Vec<LockOrder>, LintError> {
    let path = root.join("lint").join("invariants.toml");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| LintError(format!("cannot read `{}`: {e}", path.display())))?;
    manifest::parse(&text).map_err(|e| LintError(e.to_string()))
}
