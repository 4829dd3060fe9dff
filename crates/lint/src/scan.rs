//! How the audit reads a source file: on a copy in which comments and the
//! contents of string and char literals are spaces.
//!
//! [`blank`] keeps every byte offset and newline, so an offset into the
//! copy is the same offset into the source, on the same line. On the copy,
//! attribute-like text in a comment or a literal is gone and brackets pair
//! as the compiler pairs them, so the audit finds `#[...]` and `#![...]` by
//! bracket matching ([`crate::allow`]) and reads the code an attribute
//! covers from the tokens of the copy. Nothing here parses Rust: a
//! block holds items when its header's first `fn`/`mod`/`impl`/`trait`
//! keyword is one of the last three. The scan never panics; an
//! unterminated literal or comment runs to the end of the file.

/// `src` with every comment, and the contents of every string, byte-string
/// and char literal, overwritten by spaces. Newlines stay, and so do a
/// literal's quotes, prefix and raw-string fence, so the copy has the
/// source's byte length, lines and literal extents.
pub fn blank(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        // Overwrite `lo..hi`, then scan on from `next`.
        let (lo, hi, next) = match (b[i], b.get(i + 1)) {
            (b'/', Some(b'/')) => {
                let end = b[i..].iter().position(|&c| c == b'\n').map_or(b.len(), |n| i + n);
                (i, end, end)
            }
            (b'/', Some(b'*')) => {
                let end = block_comment_end(b, i);
                (i, end, end)
            }
            (b'"', _) => quoted(b, i + 1, b'"'),
            (b'\'', Some(b'\\')) => quoted(b, i + 1, b'\''),
            // `'x'` is a char; `'a` without a closing quote a lifetime.
            (b'\'', _) => match src.get(i + 1..).and_then(|s| s.chars().next()) {
                Some(c) if c != '\'' && b.get(i + 1 + c.len_utf8()) == Some(&b'\'') => {
                    (i + 1, i + 1 + c.len_utf8(), i + 2 + c.len_utf8())
                }
                _ => (i, i, i + 1),
            },
            (c, _) if is_word(c) => {
                let end = b[i..].iter().position(|&c| !is_word(c)).map_or(b.len(), |n| i + n);
                raw_string(b, &b[i..end], end).unwrap_or((end, end, end))
            }
            _ => (i, i, i + 1),
        };
        for c in &mut out[lo..hi] {
            if *c != b'\n' {
                *c = b' ';
            }
        }
        i = next;
    }
    // Only whole characters were overwritten, each by ASCII spaces.
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// True for a byte of an identifier, keyword or number. Every non-ASCII
/// byte counts, so a token never splits a character.
fn is_word(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric() || !c.is_ascii()
}

/// The content range of a literal whose content starts at `from` and ends
/// at an unescaped `close`, and the offset after its closing quote.
fn quoted(b: &[u8], from: usize, close: u8) -> (usize, usize, usize) {
    let mut j = from;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            c if c == close => return (from, j, j + 1),
            _ => j += 1,
        }
    }
    (from, b.len(), b.len())
}

/// One past the end of the (nesting) block comment opened at `from`.
fn block_comment_end(b: &[u8], from: usize) -> usize {
    let mut depth = 0usize;
    let mut j = from;
    while j + 1 < b.len() {
        match (b[j], b[j + 1]) {
            (b'/', b'*') => depth += 1,
            (b'*', b'/') => depth -= 1,
            _ => {
                j += 1;
                continue;
            }
        }
        j += 2;
        if depth == 0 {
            return j;
        }
    }
    b.len()
}

/// After the word `r`, `br` or `cr` ending at `end`: the content range of
/// the raw string `#…#"…"#…#` it opens, and the offset after its fence.
fn raw_string(b: &[u8], word: &[u8], end: usize) -> Option<(usize, usize, usize)> {
    if !matches!(word, b"r" | b"br" | b"cr") {
        return None;
    }
    let hashes = b[end..].iter().take_while(|&&c| c == b'#').count();
    let open = end + hashes;
    if b.get(open) != Some(&b'"') {
        return None;
    }
    let fence: Vec<u8> = std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
    let close = b[open + 1..].windows(fence.len()).position(|w| w == fence);
    Some(close.map_or((open + 1, b.len(), b.len()), |n| {
        (open + 1, open + 1 + n, open + 1 + n + fence.len())
    }))
}

/// The tokens of the blanked `code` from byte `from` on, each with its
/// offset: a word (identifier, keyword or number) or any other single
/// character. Whitespace only separates tokens.
pub(crate) fn tokens(code: &str, from: usize) -> impl Iterator<Item = (usize, &str)> + '_ {
    let b = code.as_bytes();
    let mut i = from;
    std::iter::from_fn(move || {
        while b.get(i).is_some_and(u8::is_ascii_whitespace) {
            i += 1;
        }
        let start = i;
        i += 1;
        if is_word(*b.get(start)?) {
            while b.get(i).is_some_and(|&c| is_word(c)) {
                i += 1;
            }
        }
        code.get(start..i).map(|t| (start, t))
    })
}

/// The offset of the bracket closing the one at `open`, or the end of the
/// code when it never closes. All three bracket kinds nest together.
pub(crate) fn close_of(code: &str, open: usize) -> usize {
    let mut depth = 0usize;
    for (at, t) in tokens(code, open) {
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return at;
                }
            }
            _ => {}
        }
    }
    code.len()
}

/// One past the end of the item (or, with `comma`, the statement, match
/// arm or field) starting at `from`: through the first `;` (or `,`)
/// outside brackets, or through the first block opened outside them unless
/// `.`, `?` or `else` continues it; at the latest, up to the close of the
/// enclosing group.
pub(crate) fn end_of(code: &str, from: usize, comma: bool) -> usize {
    let mut depth = 0usize;
    let mut toks = tokens(code, from).peekable();
    while let Some((at, t)) = toks.next() {
        match t {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return at,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                let next = toks.peek().map_or("", |&(_, n)| n);
                if depth == 0 && !matches!(next, "." | "?" | "else") {
                    return at + 1;
                }
            }
            ";" if depth == 0 => return at + 1,
            "," if comma && depth == 0 => return at + 1,
            _ => {}
        }
    }
    code.len()
}

/// The offset of the innermost `{` whose block contains `at`.
pub(crate) fn enclosing_brace(code: &str, at: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, &c) in code.as_bytes().get(..at)?.iter().enumerate().rev() {
        match c {
            b'}' => depth += 1,
            b'{' if depth == 0 => return Some(j),
            b'{' => depth -= 1,
            _ => {}
        }
    }
    None
}

/// True when the block opened at `open` holds items: a `mod`, `impl` or
/// `trait` body. Its header runs back to the previous `;`, `{` or `}`
/// outside brackets, and its first `fn`, `mod`, `impl` or `trait` decides
/// (`fn f() -> impl T {` is a function body).
pub(crate) fn holds_items(code: &str, open: usize) -> bool {
    let mut depth = 0usize;
    let mut head = 0;
    for (j, &c) in code.as_bytes()[..open].iter().enumerate().rev() {
        match c {
            b')' | b']' => depth += 1,
            b'(' | b'[' => depth = depth.saturating_sub(1),
            b';' | b'{' | b'}' if depth == 0 => {
                head = j + 1;
                break;
            }
            _ => {}
        }
    }
    let keyword = tokens(code, head)
        .take_while(|&(at, _)| at < open)
        .find(|&(_, t)| matches!(t, "fn" | "mod" | "impl" | "trait"));
    keyword.is_some_and(|(_, t)| t != "fn")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow::attrs;
    use crate::rules::FileCtx;
    use proptest::prelude::*;

    #[test]
    fn attribute_text_in_comments_and_literals_is_not_an_attribute() {
        let cases = [
            "// #[expect(clippy::exit)]",
            "/// #[expect(clippy::exit)]",
            "/* outer /* #[expect(clippy::exit)] */ #![deny(x)] */",
            "const S: &str = \"a \\\" #[expect(clippy::exit)] \\\"\";",
            "const R: &str = r#\"a \" #[expect(clippy::exit)]\"#;",
            "const B: Bytes = b\"#[expect(clippy::exit)]\";",
            "fn f<'a>(s: &'a str) -> (char, char) { ('\"', '[') }",
            "fn g<'a>(s: &'a str) -> char { let _ = '\\''; ']' }",
        ];
        for case in cases {
            let src = format!("{case}\n#[inline]\nfn after() {{}}\n");
            let found: Vec<(String, usize)> =
                attrs(&FileCtx::new(&src)).into_iter().map(|a| (a.name, a.line)).collect();
            assert_eq!(found, [("inline".to_string(), 2)], "{case}");
            assert!(!blank(case).contains(['[', ']']), "{case}");
        }
        // Unterminated, the literal or comment runs to the end of the file.
        for case in ["\"#[a]", "r#\"#[a]\"", "/* /* */ #[a]", "'\\"] {
            let src = format!("{case}\n#[inline]\nfn after() {{}}\n");
            assert!(attrs(&FileCtx::new(&src)).is_empty(), "{case}");
        }
    }

    /// Pieces of source: code (kept) or a comment or literal (`Err`:
    /// the overwritten form is given after the source form).
    const PIECES: &[Result<&str, (&str, &str)>] = &[
        Ok("#[expect(clippy::exit, reason = x)]"),
        Ok("fn f<'a>(x: &'a [u8; 3]) -> u8 { x[0] }"),
        Ok("'static"),
        Ok("r#type"),
        Ok("b"),
        Ok("1.5e-7"),
        Ok("émoji🦀"),
        Ok("\n"),
        Err(("// #[x] \"\n", "         \n")),
        Err(("/* /* # */ [ */", "               ")),
        Err(("/** doc */", "          ")),
        Err(("\"a\\\"[\"", "\"    \"")),
        Err(("\"line\nbreak\"", "\"    \n     \"")),
        Err(("r#\"q\"[\"#", "r#\"   \"#")),
        Err(("b\"é\"", "b\"  \"")),
        Err(("'\"'", "' '")),
        Err(("'['", "' '")),
        Err(("'\\''", "'  '")),
        Err(("'🦀'", "'    '")),
    ];

    proptest! {
        /// Any input keeps its length and newlines and only gains spaces;
        /// on a known mix of code, comments and literals (a prefix that an
        /// arbitrary tail cannot reach back into), exactly the comments and
        /// literal contents are overwritten.
        #[test]
        fn blanking_keeps_offsets_and_code(
            picks in prop::collection::vec(0usize..PIECES.len(), 0..40),
            tail in prop::collection::vec('\u{0}'..'\u{d7ff}', 0..40),
        ) {
            let (mut src, mut want) = (String::new(), String::new());
            for &p in &picks {
                let (s, w) = match PIECES[p] { Ok(code) => (code, code), Err(pair) => pair };
                src.push_str(s);
                src.push(' ');
                want.push_str(w);
                want.push(' ');
            }
            let known = src.len();
            src.extend(tail);
            let out = blank(&src);
            prop_assert_eq!(&out[..known], want.as_str());
            prop_assert_eq!(out.len(), src.len());
            for (o, s) in out.bytes().zip(src.bytes()) {
                prop_assert!(o == s || (o == b' ' && s != b'\n'), "{:?}", src);
            }
        }
    }
}
