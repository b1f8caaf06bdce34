//! The checked-in lock hierarchies (`lint/invariants.toml`) and the
//! strict TOML-subset parser that loads them.
//!
//! The workspace vendors no `toml` crate, so the manifest sticks to one
//! line-oriented shape: `[[lock_order]]` headers, each followed by
//! `file = "…"` and a single-line `order = ["…", …]`. Comments start
//! with `#`. Anything else is a hard error — a manifest typo must fail
//! the lint run, not silently drop a hierarchy.

use std::fmt;

/// One `[[lock_order]]` declaration: the allowed acquisition order for
/// the named locks of one file.
#[derive(Debug, Clone, Default)]
pub struct LockOrder {
    /// Workspace-relative file path.
    pub file: String,
    /// Lock field names, outermost first; a lock may only be acquired
    /// while holding locks that appear strictly earlier.
    pub order: Vec<String>,
}

/// A manifest syntax or schema error, with its 1-based line.
#[derive(Debug)]
pub struct ManifestError {
    /// 1-based line of the offending entry (0: the manifest as a whole).
    pub line: u32,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariants manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ManifestError {}

fn err(line: u32, message: impl Into<String>) -> ManifestError {
    ManifestError { line, message: message.into() }
}

/// `"text"` → `text`. The manifest never puts `"` or `#` inside strings.
fn parse_str(line: u32, raw: &str) -> Result<String, ManifestError> {
    raw.trim()
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .filter(|s| !s.contains('"'))
        .map(str::to_string)
        .ok_or_else(|| err(line, format!("expected one quoted string, got `{}`", raw.trim())))
}

/// Parses manifest text into its lock hierarchies, in declaration order.
/// Unknown sections and keys are errors: a misspelled key that silently
/// checked nothing would be worse than a build break.
pub fn parse(src: &str) -> Result<Vec<LockOrder>, ManifestError> {
    let mut orders: Vec<LockOrder> = Vec::new();
    for (idx, raw_line) in src.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw_line.split('#').next().unwrap_or_default().trim();
        if line.is_empty() {
            continue;
        }
        if line == "[[lock_order]]" {
            orders.push(LockOrder::default());
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(err(
                line_no,
                format!("expected `[[lock_order]]` or `key = value`, got `{line}`"),
            ));
        };
        let Some(lo) = orders.last_mut() else {
            return Err(err(line_no, "key outside a [[lock_order]] entry"));
        };
        match key.trim() {
            "file" => lo.file = parse_str(line_no, value)?,
            "order" => {
                let Some(body) = value.trim().strip_prefix('[').and_then(|v| v.strip_suffix(']'))
                else {
                    return Err(err(line_no, "`order` must be an array on one line"));
                };
                lo.order = body
                    .split(',')
                    .filter(|part| !part.trim().is_empty())
                    .map(|part| parse_str(line_no, part))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(err(line_no, format!("unknown key `{other}` in [[lock_order]]"))),
        }
    }
    for (i, lo) in orders.iter().enumerate() {
        if lo.file.is_empty() || lo.order.len() < 2 {
            return Err(err(
                0,
                format!("lock_order entry {} needs `file` and an `order` of 2+ locks", i + 1),
            ));
        }
    }
    Ok(orders)
}
