//! Shallow structural analysis over a token stream: the innermost
//! enclosing `fn` item, and `#[cfg(test)]` / `#[test]` item regions to
//! exclude. Closures belong to their enclosing function; nested `fn`
//! items shadow it.

use crate::lexer::{TokKind, Token};

/// Per-token structural context, parallel to the token stream.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The innermost enclosing function, numbered in source order of
    /// the `fn` items, if any.
    pub fn_idx: Option<u32>,
    /// `true` when the token sits inside a `#[cfg(test)]` or `#[test]`
    /// item (tests may lock freely).
    pub in_test: bool,
}

/// Marks the token ranges covered by items annotated `#[cfg(test)]` or
/// `#[test]` (the attribute itself included). Brace depth is still
/// tracked inside them by [`scan`]; the pass just skips findings
/// there.
fn test_regions(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !tokens[i].is_punct('#') || !tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let is_cfg_test = tokens.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 6).is_some_and(|t| t.is_punct(']'));
        let is_test = tokens.get(i + 2).is_some_and(|t| t.is_ident("test"))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(']'));
        if !is_cfg_test && !is_test {
            // Skip the whole attribute so `#[cfg(test_helpers)]` etc.
            // can't partially match.
            i = skip_balanced(tokens, i + 1, '[', ']');
            continue;
        }
        let attr_start = i;
        let mut j = if is_cfg_test { i + 7 } else { i + 4 };
        // Further attributes on the same item.
        while tokens.get(j).is_some_and(|t| t.is_punct('#'))
            && tokens.get(j + 1).is_some_and(|t| t.is_punct('['))
        {
            j = skip_balanced(tokens, j + 1, '[', ']');
        }
        // The item body: everything to the matching `}` of its first
        // brace, or to a `;` if one comes first (e.g. `mod tests;`).
        let mut depth = 0i32;
        while j < tokens.len() {
            let t = &tokens[j];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            } else if t.is_punct(';') && depth == 0 {
                j += 1;
                break;
            }
            j += 1;
        }
        regions.push((attr_start, j));
        i = j;
    }
    regions
}

/// Advances past the balanced `open`…`close` group whose opener is at
/// `open_idx`; returns the index just past the matching closer.
fn skip_balanced(tokens: &[Token], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0i32;
    let mut i = open_idx;
    while i < tokens.len() {
        if tokens[i].is_punct(open) {
            depth += 1;
        } else if tokens[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    i
}

/// Annotates a token stream with structural context, one [`Ctx`] per
/// token. One pass, shallow: a `fn` item is recognized as
/// `fn <ident>`, its body as the first balanced brace group after it
/// (trait methods ending in `;` have no body and are dropped). `fn`
/// pointer types (`fn(` with no name) are ignored.
pub fn scan(tokens: &[Token]) -> Vec<Ctx> {
    let regions = test_regions(tokens);
    let mut in_test = vec![false; tokens.len()];
    for (a, b) in regions {
        for flag in in_test.iter_mut().take(b.min(tokens.len())).skip(a) {
            *flag = true;
        }
    }

    let mut ctx = Vec::with_capacity(tokens.len());
    let mut fns = 0u32;
    // (fn number, depth the body's `{` opened at).
    let mut fn_stack: Vec<(u32, u32)> = Vec::new();
    // A `fn name` seen, waiting for its body's `{`.
    let mut pending: Option<u32> = None;
    let mut depth = 0u32;

    for (i, t) in tokens.iter().enumerate() {
        ctx.push(Ctx { fn_idx: fn_stack.last().map(|&(id, _)| id), in_test: in_test[i] });
        if t.is_punct('{') {
            if let Some(id) = pending.take() {
                fn_stack.push((id, depth));
                // Re-stamp the `{` itself as inside the fn.
                if let Some(c) = ctx.last_mut() {
                    c.fn_idx = Some(id);
                }
            }
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            while fn_stack.last().is_some_and(|&(_, d)| d >= depth) {
                fn_stack.pop();
            }
        } else if t.is_punct(';') {
            // `fn name(…) -> T;` in a trait: no body.
            pending = None;
        } else if t.is_ident("fn") && tokens.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
            pending = Some(fns);
            fns += 1;
        }
    }
    ctx
}
