//! A hand-rolled, error-tolerant Rust lexer.
//!
//! The lint-policy audit must understand just enough Rust to tell *code*
//! apart from *text* — an `#[expect(...)]` or `#![deny(...)]` inside a
//! string literal or a doc comment sanctions and enables nothing. No
//! `syn`, no dependencies: the workspace builds offline.
//!
//! Guarantees (property-tested in `tests/lexer_prop.rs`):
//!
//! * [`lex`] never panics, for any input — unterminated strings, stray
//!   quotes, and malformed raw strings all degrade into best-effort tokens
//!   that simply run to end of input;
//! * the produced tokens **partition** the source: concatenating every
//!   token's text reproduces the input byte-for-byte, so every diagnostic
//!   maps to a real source location.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#type`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// String-ish literal: `"…"`, `r#"…"#`, `b"…"`, `br"…"`, `c"…"`.
    Str,
    /// Character or byte literal (`'x'`, `b'\n'`).
    Char,
    /// `// …` comment (doc comments included).
    LineComment,
    /// `/* … */` comment, nesting-aware (doc comments included).
    BlockComment,
    /// Whitespace run.
    Whitespace,
    /// Any other single character (operators split into single chars).
    Punct,
}

/// One lexed token: a kind plus its exact byte span and 1-based position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token kind.
    pub kind: TokKind,
    /// Byte offset of the first byte, into the lexed source.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
    /// 1-based column (in characters) of the first byte.
    pub col: usize,
}

impl Token {
    /// The token's text, sliced back out of the source it was lexed from.
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// True for tokens rules should look at (not whitespace, not comments).
    pub fn is_significant(&self) -> bool {
        !matches!(self.kind, TokKind::Whitespace | TokKind::LineComment | TokKind::BlockComment)
    }
}

struct Cursor<'s> {
    src: &'s str,
    pos: usize,
    line: usize,
    col: usize,
}

impl<'s> Cursor<'s> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(n)
    }

    /// Consumes one char, keeping line/col in sync.
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn eat_while(&mut self, f: impl Fn(char) -> bool) {
        while self.peek().is_some_and(&f) {
            self.bump();
        }
    }

    /// Consumes chars until (and including) an unescaped `close`, or EOF.
    fn eat_quoted(&mut self, close: char) {
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump(); // escaped char, whatever it is
            } else if c == close {
                return;
            }
        }
    }

    /// After the opening `r`/`br`/`cr`: consumes `#…#"…"#…#` raw-string
    /// syntax (hashes already counted by the caller), or to EOF.
    fn eat_raw_string(&mut self, hashes: usize) {
        // Opening quote (the caller verified it follows the hashes).
        for _ in 0..hashes {
            self.bump();
        }
        self.bump(); // the `"`
        loop {
            match self.bump() {
                None => return,
                Some('"') => {
                    let mut seen = 0;
                    while seen < hashes && self.peek() == Some('#') {
                        self.bump();
                        seen += 1;
                    }
                    if seen == hashes {
                        return;
                    }
                }
                Some(_) => {}
            }
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Counts `#` chars at `n` positions ahead, then requires a `"`; returns
/// the hash count if this really is a raw-string opener.
fn raw_string_hashes(cur: &Cursor<'_>, from: usize) -> Option<usize> {
    let mut hashes = 0;
    loop {
        match cur.peek_at(from + hashes) {
            Some('#') => hashes += 1,
            Some('"') => return Some(hashes),
            _ => return None,
        }
    }
}

/// Lexes `src` into a token stream that exactly partitions it.
///
/// Never panics: malformed input produces best-effort tokens (an
/// unterminated string literal runs to end of input).
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor { src, pos: 0, line: 1, col: 1 };
    let mut out = Vec::new();
    while let Some(c) = cur.peek() {
        let (start, line, col) = (cur.pos, cur.line, cur.col);
        let kind = next_kind(&mut cur, c);
        // Defensive: every iteration must consume at least one char, or a
        // lexer bug would loop forever instead of mis-tokenizing.
        if cur.pos == start {
            cur.bump();
        }
        out.push(Token { kind, start, end: cur.pos, line, col });
    }
    out
}

/// Consumes one token's worth of characters and returns its kind.
fn next_kind(cur: &mut Cursor<'_>, c: char) -> TokKind {
    if c.is_whitespace() {
        cur.eat_while(char::is_whitespace);
        return TokKind::Whitespace;
    }
    if c == '/' {
        match cur.peek_at(1) {
            Some('/') => {
                cur.eat_while(|c| c != '\n');
                return TokKind::LineComment;
            }
            Some('*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match cur.bump() {
                        None => break,
                        Some('/') if cur.peek() == Some('*') => {
                            cur.bump();
                            depth += 1;
                        }
                        Some('*') if cur.peek() == Some('/') => {
                            cur.bump();
                            depth -= 1;
                        }
                        Some(_) => {}
                    }
                }
                return TokKind::BlockComment;
            }
            _ => {
                cur.bump();
                return TokKind::Punct;
            }
        }
    }
    // String-family prefixes: r"", r#""#, b"", br"", b'', c"", cr"".
    if matches!(c, 'r' | 'b' | 'c') {
        let second = cur.peek_at(1);
        // br / cr raw strings.
        if matches!(c, 'b' | 'c') && second == Some('r') {
            if let Some(h) = raw_string_hashes(cur, 2) {
                cur.bump();
                cur.bump();
                cur.eat_raw_string(h);
                return TokKind::Str;
            }
        }
        if c == 'r' {
            if let Some(h) = raw_string_hashes(cur, 1) {
                cur.bump();
                cur.eat_raw_string(h);
                return TokKind::Str;
            }
            // Raw identifier `r#ident` (but `r#"` was handled above).
            if second == Some('#') && cur.peek_at(2).is_some_and(is_ident_start) {
                cur.bump();
                cur.bump();
                cur.eat_while(is_ident_continue);
                return TokKind::Ident;
            }
        }
        if second == Some('"') {
            cur.bump();
            cur.bump();
            cur.eat_quoted('"');
            return TokKind::Str;
        }
        if c == 'b' && second == Some('\'') {
            cur.bump();
            cur.bump();
            cur.eat_quoted('\'');
            return TokKind::Char;
        }
    }
    if is_ident_start(c) {
        cur.eat_while(is_ident_continue);
        return TokKind::Ident;
    }
    if c == '"' {
        cur.bump();
        cur.eat_quoted('"');
        return TokKind::Str;
    }
    if c == '\'' {
        cur.bump();
        match cur.peek() {
            // `'\n'`-style escaped char literal.
            Some('\\') => {
                cur.eat_quoted('\'');
                TokKind::Char
            }
            // `'a` (lifetime) vs `'a'` (char): consume the identifier, then
            // a closing quote decides.
            Some(i) if is_ident_start(i) => {
                cur.eat_while(is_ident_continue);
                if cur.peek() == Some('\'') {
                    cur.bump();
                    TokKind::Char
                } else {
                    TokKind::Lifetime
                }
            }
            // `'('`-style plain char literal (or a stray quote at EOF).
            Some(_) => {
                cur.bump();
                if cur.peek() == Some('\'') {
                    cur.bump();
                }
                TokKind::Char
            }
            None => TokKind::Punct,
        }
    } else if c.is_ascii_digit() {
        cur.bump();
        loop {
            match cur.peek() {
                Some(d) if is_ident_continue(d) => {
                    let was_exp = matches!(d, 'e' | 'E');
                    cur.bump();
                    // `1e-9` / `1E+9`: the sign belongs to the number.
                    if was_exp && matches!(cur.peek(), Some('+') | Some('-')) {
                        cur.bump();
                    }
                }
                // `1.5` continues the number; `1..3` does not.
                Some('.') if cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) => {
                    cur.bump();
                }
                _ => break,
            }
        }
        TokKind::Num
    } else {
        cur.bump();
        TokKind::Punct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .into_iter()
            .filter(|t| t.is_significant())
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    fn round_trip(src: &str) {
        let toks = lex(src);
        let mut rebuilt = String::new();
        for t in &toks {
            rebuilt.push_str(t.text(src));
        }
        assert_eq!(rebuilt, src, "tokens must partition the source");
        for w in toks.windows(2) {
            assert_eq!(w[0].end, w[1].start, "tokens must be contiguous");
        }
    }

    #[test]
    fn idents_and_calls() {
        let k = kinds("let x = map.iter();");
        assert_eq!(k[0], (TokKind::Ident, "let".into()));
        assert_eq!(k[3], (TokKind::Ident, "map".into()));
        assert_eq!(k[5], (TokKind::Ident, "iter".into()));
        round_trip("let x = map.iter();");
    }

    #[test]
    fn strings_hide_code() {
        let src = r##"let s = "println!(\"hi\")"; let r = r#"unwrap()"#;"##;
        let k = kinds(src);
        assert!(k.iter().all(|(_, t)| !t.contains("println") || t.starts_with('"')));
        assert!(k.iter().any(|(kind, t)| *kind == TokKind::Str && t.contains("unwrap")));
        round_trip(src);
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b";
        let k = kinds(src);
        assert_eq!(k.len(), 2);
        round_trip(src);
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }";
        let k = kinds(src);
        assert!(k.iter().any(|(kind, t)| *kind == TokKind::Lifetime && t == "'a"));
        assert!(k.iter().any(|(kind, t)| *kind == TokKind::Char && t == "'x'"));
        assert!(k.iter().any(|(kind, t)| *kind == TokKind::Char && t == "'\\n'"));
        round_trip(src);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let s = r##"quote " and "# inside"##;"####;
        let k = kinds(src);
        assert!(k.iter().any(|(kind, t)| *kind == TokKind::Str && t.contains("inside")));
        round_trip(src);
    }

    #[test]
    fn raw_identifier() {
        let k = kinds("let r#type = 1;");
        assert_eq!(k[1], (TokKind::Ident, "r#type".into()));
    }

    #[test]
    fn numbers_with_exponents_and_ranges() {
        let k = kinds("1.5e-7 + 0..10 + 0xFFu32");
        assert_eq!(k[0], (TokKind::Num, "1.5e-7".into()));
        assert_eq!(k[2], (TokKind::Num, "0".into()));
        assert_eq!(k[5], (TokKind::Num, "10".into()));
        assert_eq!(k[7], (TokKind::Num, "0xFFu32".into()));
        round_trip("1.5e-7 + 0..10 + 0xFFu32");
    }

    #[test]
    fn unterminated_inputs_do_not_panic() {
        for src in ["\"abc", "r#\"abc", "/* abc", "'", "b\"", "'a", "r#"] {
            round_trip(src);
        }
    }

    #[test]
    fn line_and_col_tracking() {
        let toks = lex("ab\n  cd");
        let cd = toks.last().unwrap();
        assert_eq!((cd.line, cd.col), (2, 3));
    }
}
