//! A comment/string/raw-string-aware lexer for Rust source.
//!
//! This is deliberately *not* a full Rust lexer: the analysis only needs
//! identifiers, punctuation, numbers, and line positions, with string
//! bodies and comments reliably skipped so that a `".lock()"` inside a
//! string literal or a commented-out `.lock()` never produces a
//! finding. It handles the constructs that defeat naive scanners:
//! nested block comments, raw strings with arbitrary `#` fences, byte
//! and C strings, char literals (including escapes) versus lifetimes,
//! and raw identifiers.

/// What kind of lexeme a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `unwrap`, `r#type` → `type`).
    Ident,
    /// A numeric literal (`0x81`, `12`, `0.23`, `4u64`).
    Num,
    /// Any string literal (`"…"`, `r#"…"#`, `b"…"`, `c"…"`); `text`
    /// holds the *contents* (escapes unprocessed, fences stripped).
    Str,
    /// A char or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`, `'static`); `text` holds the name without `'`.
    Lifetime,
    /// A single punctuation character.
    Punct,
}

/// One lexeme with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The lexeme kind.
    pub kind: TokKind,
    /// The lexeme text (see [`TokKind`] for per-kind conventions).
    pub text: String,
    /// 1-based line the lexeme starts on.
    pub line: u32,
}

impl Token {
    /// `true` if this is punctuation `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// `true` if this is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.kind == TokKind::Ident && self.text == name
    }
}

/// Lexes `src` into tokens in source order, skipping comments and
/// classifying string-like literals so the analysis never misreads
/// their contents as code.
pub fn lex(src: &str) -> Vec<Token> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comments: `//`, `///`, `//!`.
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
            continue;
        }
        // Block comments, which nest in Rust.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 1u32;
            i += 2;
            while i < chars.len() && depth > 0 {
                if chars[i] == '\n' {
                    line += 1;
                    i += 1;
                } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            continue;
        }
        // String-like prefixes: r"…", r#"…"#, b"…", br#"…"#, c"…",
        // b'…', and raw identifiers r#ident.
        if matches!(c, 'r' | 'b' | 'c') {
            if let Some(next) = lex_prefixed(&chars, i, &mut line, &mut out) {
                i = next;
                continue;
            }
        }
        if c == '"' {
            i = lex_string(&chars, i + 1, &mut line, &mut out, 0, true);
            continue;
        }
        if c == '\'' {
            i = lex_quote(&chars, i, line, &mut out);
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            i += 1;
            while i < chars.len() {
                let d = chars[i];
                if d.is_ascii_alphanumeric()
                    || d == '_'
                    || (d == '.' && chars.get(i + 1).is_some_and(char::is_ascii_digit))
                {
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(Token { kind: TokKind::Num, text: chars[start..i].iter().collect(), line });
            continue;
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            out.push(Token { kind: TokKind::Ident, text: chars[start..i].iter().collect(), line });
            continue;
        }
        out.push(Token { kind: TokKind::Punct, text: c.to_string(), line });
        i += 1;
    }
    out
}

/// Tries to lex a prefixed literal (`r"`, `r#"`, `br"`, `b"`, `b'`,
/// `c"`, `r#ident`) starting at `i`. Returns the index after it, or
/// `None` when the characters at `i` are a plain identifier after all.
fn lex_prefixed(
    chars: &[char],
    i: usize,
    line: &mut u32,
    tokens: &mut Vec<Token>,
) -> Option<usize> {
    let start_line = *line;
    let c = chars[i];
    // b'…' byte char.
    if c == 'b' && chars.get(i + 1) == Some(&'\'') {
        let end = lex_quote(chars, i + 1, start_line, tokens);
        return Some(end);
    }
    // Raw-ish prefixes: optional leading b/c, optional r, optional #s,
    // then a quote.
    let mut j = i;
    let mut raw = false;
    if chars[j] == 'b' || chars[j] == 'c' {
        j += 1;
        if chars.get(j) == Some(&'r') {
            raw = true;
            j += 1;
        }
    } else if chars[j] == 'r' {
        raw = true;
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if chars.get(j) == Some(&'"') {
        let end = lex_string(chars, j + 1, line, tokens, hashes, !raw);
        return Some(end);
    }
    // r#ident raw identifier: strip the prefix, lex the ident.
    if raw && hashes == 1 && chars.get(j).is_some_and(|ch| ch.is_alphabetic() || *ch == '_') {
        let start = j;
        let mut k = j;
        while k < chars.len() && (chars[k].is_alphanumeric() || chars[k] == '_') {
            k += 1;
        }
        tokens.push(Token {
            kind: TokKind::Ident,
            text: chars[start..k].iter().collect(),
            line: start_line,
        });
        return Some(k);
    }
    None
}

/// Lexes a string body starting just past the opening quote. `hashes`
/// is the raw fence length (0 for non-raw), `escapes` whether `\` is an
/// escape character. Returns the index past the closing quote.
fn lex_string(
    chars: &[char],
    mut i: usize,
    line: &mut u32,
    tokens: &mut Vec<Token>,
    hashes: usize,
    escapes: bool,
) -> usize {
    let start_line = *line;
    let start = i;
    let mut content_end;
    loop {
        if i >= chars.len() {
            content_end = i;
            break;
        }
        let c = chars[i];
        if c == '\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if escapes && c == '\\' {
            i += 2;
            continue;
        }
        if c == '"' {
            // A raw string only closes on `"` followed by its fence.
            let fence_ok = (0..hashes).all(|k| chars.get(i + 1 + k) == Some(&'#'));
            if fence_ok {
                content_end = i;
                i += 1 + hashes;
                break;
            }
        }
        i += 1;
    }
    content_end = content_end.min(chars.len());
    tokens.push(Token {
        kind: TokKind::Str,
        text: chars[start..content_end].iter().collect(),
        line: start_line,
    });
    i
}

/// Lexes at a `'`: a lifetime (`'a`) or a char literal (`'x'`, `'\n'`).
/// Returns the index past the lexeme.
fn lex_quote(chars: &[char], i: usize, line: u32, tokens: &mut Vec<Token>) -> usize {
    // Lifetime: 'ident not closed by a quote right after one char.
    let first = chars.get(i + 1).copied();
    if first.is_some_and(|ch| ch.is_alphabetic() || ch == '_') && chars.get(i + 2) != Some(&'\'') {
        let start = i + 1;
        let mut j = start;
        while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        tokens.push(Token {
            kind: TokKind::Lifetime,
            text: chars[start..j].iter().collect(),
            line,
        });
        return j;
    }
    // Char literal; handle escapes including '\u{…}'.
    let start = i + 1;
    let mut j = start;
    if chars.get(j) == Some(&'\\') {
        j += 1;
        if chars.get(j) == Some(&'u') && chars.get(j + 1) == Some(&'{') {
            j += 2;
            while j < chars.len() && chars[j] != '}' {
                j += 1;
            }
        }
        j += 1; // the escaped character (or the `}`)
    } else if j < chars.len() {
        j += 1;
    }
    let content: String = chars[start..j.min(chars.len())].iter().collect();
    if chars.get(j) == Some(&'\'') {
        j += 1;
    }
    tokens.push(Token { kind: TokKind::Char, text: content, line });
    j
}
