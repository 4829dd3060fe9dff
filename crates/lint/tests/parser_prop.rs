//! Property tests over the item parser — the lexer's contract, one level
//! up: it must never panic and its item spans must exactly partition the
//! significant-token stream at *every* nesting level, for any input. The
//! lint-policy audit parses every workspace file on every test run, so a
//! fragment that crashes the parser or desynchronizes its spans would
//! take the whole audit down with it.

use gradpim_lint::lexer::lex;
use gradpim_lint::parser::{parse_items, Item};
use proptest::prelude::*;

/// Fragments chosen to hit every parser path and its torn-off edge:
/// item keywords with and without their bodies, stray closers, attribute
/// and modifier runs, `extern`'s three readings, generic headers with
/// `->` bounds, and the lexer's own nasty cases riding along underneath.
const FRAGMENTS: &[&str] = &[
    "fn",
    "fn f",
    "fn f(",
    "fn f() {}",
    "fn f() -> u32 { 1 }",
    "fn f();",
    "mod",
    "mod m;",
    "mod m {",
    "mod m { fn g() {} }",
    "use a::b::{c, d};",
    "use",
    "impl",
    "impl T {",
    "impl A for B { fn m(&self) {} }",
    "impl<F: Fn() -> u64> R<F> {}",
    "trait T { fn m(); }",
    "struct S { a: f64 }",
    "struct S;",
    "enum E { A, B }",
    "union U { a: u32 }",
    "const N: usize = 3;",
    "const fn cf() {}",
    "static S: u8 = 0;",
    "type T = u8;",
    "macro_rules! m { () => {} }",
    "macro m2 {}",
    "extern crate alloc;",
    "extern \"C\" { fn c(); }",
    "extern \"C\" fn shim() {}",
    "pub",
    "pub(crate)",
    "pub(in a::b)",
    "default",
    "async",
    "unsafe",
    "where",
    "for",
    "r#fn",
    "r#type",
    "#[derive(Debug)]",
    "#![forbid(unsafe_code)]",
    "#",
    "#[",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    ";",
    ",",
    "<",
    ">",
    "->",
    "=>",
    "::",
    "\"unterminated",
    "/* open comment",
    "r#\"open fence",
    "'a",
    "1.5e-7",
    " ",
    "\n",
];

/// Asserts that `items` is an in-order, gap-free, non-overlapping cover
/// of sig-token range `lo..hi`, recursively through every parsed body.
fn assert_partition(items: &[Item], lo: usize, hi: usize, src: &str) -> Result<(), TestCaseError> {
    let mut pos = lo;
    for it in items {
        prop_assert_eq!(it.span.0, pos, "gap or overlap at sig index {} of {:?}", pos, src);
        prop_assert!(it.span.1 > it.span.0, "empty item span in {:?}", src);
        prop_assert!(it.span.1 <= hi, "span overruns its level in {:?}", src);
        if let Some(t) = it.name_tok {
            prop_assert!(
                it.span.0 <= t && t < it.span.1,
                "name token outside its item span in {:?}",
                src
            );
        }
        if let Some((blo, bhi)) = it.body {
            prop_assert!(
                it.span.0 <= blo && blo <= bhi && bhi <= it.span.1,
                "body range outside its item span in {:?}",
                src
            );
            // `fn` bodies stay unparsed (empty children); container bodies
            // below the depth guard partition recursively.
            if !it.children.is_empty() {
                assert_partition(&it.children, blo, bhi, src)?;
            }
        } else {
            prop_assert!(it.children.is_empty(), "children without a body in {:?}", src);
        }
        pos = it.span.1;
    }
    prop_assert_eq!(pos, hi, "parser stopped early on {:?}", src);
    Ok(())
}

fn parse(src: &str) -> (Vec<Item>, usize) {
    let tokens = lex(src);
    let sig: Vec<usize> =
        tokens.iter().enumerate().filter(|(_, t)| t.is_significant()).map(|(i, _)| i).collect();
    let items = parse_items(src, &tokens, &sig);
    (items, sig.len())
}

proptest! {
    /// Arbitrary concatenations of item-shaped fragments parse without
    /// panicking, and the resulting tree exactly partitions the
    /// significant tokens at every nesting level.
    #[test]
    fn fragment_soup_parses_and_partitions(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..60),
    ) {
        let src: String = picks.iter().flat_map(|&i| [FRAGMENTS[i], " "]).collect();
        let (items, n_sig) = parse(&src);
        assert_partition(&items, 0, n_sig, &src)?;
    }

    /// Fully arbitrary unicode text (no fragment structure at all) also
    /// holds the contract: no panic, exact top-to-bottom partition.
    #[test]
    fn arbitrary_unicode_parses_and_partitions(
        chars in prop::collection::vec('\u{0}'..'\u{d7ff}', 0..80),
    ) {
        let src: String = chars.into_iter().collect();
        let (items, n_sig) = parse(&src);
        assert_partition(&items, 0, n_sig, &src)?;
    }
}
