//! Unit tests for the lexer: the constructs that defeat naive scanners
//! must never leak string/comment contents into the token stream.

use rlscope_lint::lexer::{lex, TokKind};

/// The identifier texts of a lexed snippet, for concise assertions.
fn idents(src: &str) -> Vec<String> {
    lex(src).into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
}

#[test]
fn line_comments_are_skipped() {
    let l = lex("let a = 1; // unwrap() panic! here\nlet b = 2;");
    assert!(!l.iter().any(|t| t.is_ident("unwrap") || t.is_ident("panic")));
    assert_eq!(idents("let a = 1; // unwrap()\nlet b = 2;"), ["let", "a", "let", "b"]);
}

#[test]
fn nested_block_comments_are_skipped() {
    let src = "before /* outer /* inner unwrap() */ still comment */ after";
    assert_eq!(idents(src), ["before", "after"]);
    // Line counting survives multi-line block comments.
    let l = lex("/* a\nb\nc */ x");
    assert_eq!(l[0].line, 3);
}

#[test]
fn string_contents_never_tokenize() {
    let l = lex(r#"let m = "call unwrap() and panic!";"#);
    assert!(!l.iter().any(|t| t.is_ident("unwrap") || t.is_ident("panic")));
    let strs: Vec<_> = l.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].text, "call unwrap() and panic!");
}

#[test]
fn raw_strings_with_fences() {
    // A raw string closes only on a quote followed by its full fence —
    // an interior `"#` must not end an `r##"…"##` literal.
    let l = lex(r####"let s = r##"inner "# quote and unwrap()"##;"####);
    let strs: Vec<_> = l.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].text, r##"inner "# quote and unwrap()"##);
    assert!(!l.iter().any(|t| t.is_ident("unwrap")));
    // Byte and C strings lex as strings too.
    for src in [r#"b"bytes unwrap()""#, r#"c"cstr unwrap()""#, r##"br#"raw bytes"#"##] {
        let l = lex(src);
        assert_eq!(l.iter().filter(|t| t.kind == TokKind::Str).count(), 1, "{src}");
        assert!(!l.iter().any(|t| t.is_ident("unwrap")), "{src}");
    }
}

#[test]
fn escaped_quotes_inside_strings() {
    let l = lex(r#"let s = "a \" b"; next"#);
    let strs: Vec<_> = l.iter().filter(|t| t.kind == TokKind::Str).collect();
    assert_eq!(strs.len(), 1);
    assert_eq!(strs[0].text, r#"a \" b"#);
    assert!(l.iter().any(|t| t.is_ident("next")));
}

#[test]
fn char_literals_vs_lifetimes() {
    let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; let q = '\\''; }");
    let lifetimes: Vec<_> =
        l.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text.as_str()).collect();
    assert_eq!(lifetimes, ["a", "a"]);
    let chars: Vec<_> =
        l.iter().filter(|t| t.kind == TokKind::Char).map(|t| t.text.as_str()).collect();
    assert_eq!(chars, ["x", "\\n", "\\'"]);
    // 'static is a lifetime, not an unterminated char.
    let l = lex("&'static str");
    assert!(l.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "static"));
    // b'x' is a char literal, not ident `b` + lifetime.
    let l = lex("let y = b'x';");
    assert!(l.iter().any(|t| t.kind == TokKind::Char && t.text == "x"));
    // Unicode escapes span the braces.
    let l = lex("let u = '\\u{1F600}';");
    assert!(l.iter().any(|t| t.kind == TokKind::Char && t.text == "\\u{1F600}"));
}

#[test]
fn raw_identifiers_lex_as_idents() {
    assert_eq!(idents("let r#type = 1;"), ["let", "type"]);
}

#[test]
fn numbers_and_punctuation() {
    let l = lex("x[0x81] = 12.5 + 4u64;");
    let nums: Vec<_> =
        l.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text.as_str()).collect();
    assert_eq!(nums, ["0x81", "12.5", "4u64"]);
    assert!(l.iter().any(|t| t.is_punct('[')));
    assert!(l.iter().any(|t| t.is_punct(']')));
}

#[test]
fn unterminated_string_does_not_hang_or_panic() {
    let l = lex("let s = \"never closed");
    assert_eq!(l.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    let l = lex("let s = r#\"never closed");
    assert_eq!(l.iter().filter(|t| t.kind == TokKind::Str).count(), 1);
    let l = lex("/* never closed");
    assert!(l.is_empty());
}
