//! Lock-order: checks every function of a file against the declared
//! lock hierarchy, flagging acquisitions that could deadlock.
//!
//! The model is shallow but honest about what the daemon actually
//! does. An acquisition is any `<recv>.lock()`; its lock name is the
//! last field identifier before `.lock()` (`self.sessions.lock()` →
//! `sessions`, `existing.state.lock()` → `state`). Names not in the
//! declared order are ignored. A guard is **named** when the statement
//! is exactly `let [mut] x = <recv>.lock()` followed only by an
//! optional `.unwrap_or_else(…)` / `?` and `;` — it is then held until
//! its block closes or `drop(x)`. Anything else is a **temporary**,
//! held to the end of its statement *including trailing blocks* (the
//! `if let Some(g) = m.lock().… { … }` extension), which
//! over-approximates plain `if` conditions — conservative in the
//! deadlock direction.
//!
//! Acquiring a lock of rank ≤ any held rank is an inversion (equal rank
//! covers re-entrant double-locking, which `std::sync::Mutex` turns
//! into deadlock or poison).

use crate::lexer::{lex, TokKind, Token};
use crate::manifest::LockOrder;
use crate::scan::scan;
use crate::Finding;

#[derive(Debug)]
struct Guard {
    rank: usize,
    lock: String,
    /// The `let` binding, for `drop(x)` release; `None` for temporaries.
    binding: Option<String>,
    /// Brace depth at acquisition.
    depth: u32,
}

/// Walks back from the `.` of `.lock()` to the receiver's last field
/// identifier, skipping one trailing index/call group
/// (`shards[i].lock()` → `shards`).
fn lock_name(toks: &[Token], dot_idx: usize) -> Option<String> {
    let mut j = dot_idx.checked_sub(1)?;
    if toks[j].is_punct(']') || toks[j].is_punct(')') {
        let close = if toks[j].is_punct(']') { ']' } else { ')' };
        let open = if close == ']' { '[' } else { '(' };
        let mut depth = 0i32;
        loop {
            if toks[j].is_punct(close) {
                depth += 1;
            } else if toks[j].is_punct(open) {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j = j.checked_sub(1)?;
        }
        j = j.checked_sub(1)?;
    }
    (toks[j].kind == TokKind::Ident).then(|| toks[j].text.clone())
}

/// Does the statement starting at `stmt_start` bind a `let` guard, and
/// is the tail after the `.lock()` call (index of its `)`) only the
/// allowed recovery suffix? Returns the binding name if so.
fn named_binding(toks: &[Token], stmt_start: usize, close_idx: usize) -> Option<String> {
    let mut k = stmt_start;
    if !toks.get(k)?.is_ident("let") {
        return None;
    }
    k += 1;
    if toks.get(k)?.is_ident("mut") {
        k += 1;
    }
    let name = toks.get(k).filter(|t| t.kind == TokKind::Ident)?.text.clone();
    if !toks.get(k + 1)?.is_punct('=') {
        return None;
    }
    // Tail: ( `.` unwrap_or_else|unwrap_or_default ( … ) | `?` )* `;`
    let mut j = close_idx + 1;
    loop {
        let t = toks.get(j)?;
        if t.is_punct(';') {
            return Some(name);
        }
        if t.is_punct('?') {
            j += 1;
            continue;
        }
        if t.is_punct('.')
            && toks
                .get(j + 1)
                .is_some_and(|n| n.is_ident("unwrap_or_else") || n.is_ident("unwrap_or_default"))
        {
            // Skip the call's argument list.
            let mut depth = 0i32;
            j += 2;
            loop {
                let t = toks.get(j)?;
                if t.is_punct('(') {
                    depth += 1;
                } else if t.is_punct(')') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            j += 1;
            continue;
        }
        return None;
    }
}

/// Runs the lock-order pass over `text`, the source of `cfg.file`.
pub fn check(text: &str, cfg: &LockOrder) -> Vec<Finding> {
    let toks = &lex(text);
    let ctxs = scan(toks);
    let mut findings = Vec::new();
    let mut held: Vec<Guard> = Vec::new();
    let mut depth = 0u32;
    let mut stmt_start = 0usize;
    let mut cur_fn: Option<u32> = None;

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let ctx = ctxs[i];
        // Function boundary: reset all tracking.
        if ctx.fn_idx != cur_fn {
            cur_fn = ctx.fn_idx;
            held.clear();
            stmt_start = i;
        }
        if t.is_punct('{') {
            depth += 1;
            stmt_start = i + 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            // Temporaries die when their statement's trailing block
            // chain returns to (or falls below) acquisition depth;
            // named guards only when their block closes.
            held.retain(|g| if g.binding.is_some() { g.depth <= depth } else { g.depth < depth });
            stmt_start = i + 1;
        } else if t.is_punct(';') {
            held.retain(|g| g.binding.is_some() || g.depth != depth);
            stmt_start = i + 1;
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(arg) = toks.get(i + 2).filter(|a| a.kind == TokKind::Ident) {
                if toks.get(i + 3).is_some_and(|n| n.is_punct(')')) {
                    held.retain(|g| g.binding.as_deref() != Some(arg.text.as_str()));
                }
            }
        } else if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_ident("lock"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 3).is_some_and(|n| n.is_punct(')'))
        {
            if !ctx.in_test {
                if let Some(name) = lock_name(toks, i) {
                    if let Some(rank) = cfg.order.iter().position(|l| *l == name) {
                        for g in &held {
                            if rank <= g.rank {
                                findings.push(Finding {
                                    file: cfg.file.clone(),
                                    line: t.line,
                                    message: format!(
                                        "acquired `{name}` (rank {rank}) while holding `{}` \
                                         (rank {}); declared order: {}",
                                        g.lock,
                                        g.rank,
                                        cfg.order.join(" → ")
                                    ),
                                });
                            }
                        }
                        let binding = named_binding(toks, stmt_start, i + 3);
                        held.push(Guard { rank, lock: name, binding, depth });
                    }
                }
            }
            i += 4;
            continue;
        }
        i += 1;
    }
    findings
}
