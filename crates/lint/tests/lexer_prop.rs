//! Property tests over the lexer: it must never panic and its token
//! spans must exactly partition the input, for *any* input — the
//! lint-policy audit lexes every workspace file on every test run, so a
//! source fragment that crashes or desynchronizes the lexer would take
//! the whole audit down with it.

use gradpim_lint::lexer::lex;
use proptest::prelude::*;

/// Fragments chosen to hit every lexer mode and its unterminated edge:
/// strings, chars vs lifetimes, nested and open block comments, raw
/// strings with hash fences, numeric exponents vs ranges, prefixed
/// literals, and stray quote/backslash bytes.
const FRAGMENTS: &[&str] = &[
    "fn",
    "main",
    "r#type",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    ".",
    "..",
    "::",
    "+=",
    "=>",
    "#![forbid(unsafe_code)]",
    "#[test]",
    "\"str\\\"esc\"",
    "\"unterminated",
    "'c'",
    "'\\''",
    "'static",
    "'a",
    "// line comment\n",
    "//",
    "/* block */",
    "/* nested /* deep */ still */",
    "/* unterminated",
    "r\"raw\"",
    "r#\"fenced \" quote\"#",
    "r##\"double\"##",
    "r#\"open fence",
    "b\"bytes\"",
    "br#\"raw bytes\"#",
    "c\"cstr\"",
    "1.5e-7",
    "0..10",
    "0x1F",
    "1_000",
    "3.",
    "1e",
    "émoji🦀",
    " ",
    "\t",
    "\n",
    "\r\n",
    "'",
    "\"",
    "\\",
    "#",
    "r#",
    "b'x'",
];

proptest! {
    /// Arbitrary concatenations of tricky fragments lex without panicking,
    /// and the resulting spans are an exact, gap-free, in-order partition
    /// of the input.
    #[test]
    fn fragment_soup_lexes_and_partitions(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..60),
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let tokens = lex(&src);
        let mut pos = 0usize;
        let mut line = 1usize;
        for t in &tokens {
            prop_assert_eq!(t.start, pos, "gap or overlap at byte {} of {:?}", pos, src);
            prop_assert!(t.end > t.start, "empty token at byte {} of {:?}", pos, src);
            prop_assert!(t.line >= line, "line numbers must be monotone");
            line = t.line;
            pos = t.end;
        }
        prop_assert_eq!(pos, src.len(), "lexer stopped early on {:?}", src);
    }

    /// Fully arbitrary unicode text (no fragment structure at all) also
    /// round-trips: concatenating every token's text reproduces the input.
    #[test]
    fn arbitrary_unicode_round_trips(
        chars in prop::collection::vec('\u{0}'..'\u{d7ff}', 0..80),
    ) {
        let src: String = chars.into_iter().collect();
        let tokens = lex(&src);
        let joined: String = tokens.iter().map(|t| t.text(&src)).collect();
        prop_assert_eq!(joined, src);
    }
}
