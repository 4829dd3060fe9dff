//! The escape hatch: `#[expect(<lint>, reason = "...")]` attributes, each
//! with the code it covers.
//!
//! rustc reports an expectation that no longer fires
//! (`unfulfilled_lint_expectations`) and clippy one without a reason; this
//! module only finds the attributes so [`crate::rules`] can tell which
//! retired rule each one sanctions and whether it may sit where it does.

use crate::lexer::TokKind;
use crate::parser::{Item, ItemKind};
use crate::rules::FileCtx;

/// One attribute, `#[name(...)]` or `#![name(...)]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Significant-token index of the attribute's `#`.
    pub at: usize,
    /// Significant-token index one past its closing `]`.
    pub end: usize,
    /// 1-based source line of the `#`.
    pub line: usize,
    /// `#![...]`: applies to the enclosing module or body.
    pub inner: bool,
    /// The attribute's name (`expect`, `deny`, `cfg`, ...).
    pub name: String,
    /// The lint paths in its argument list, as written (`clippy::exit`).
    pub lints: Vec<String>,
    /// The `reason = "..."` text, quotes stripped.
    pub reason: Option<String>,
}

/// An `#[expect]` and the significant-token range `[start, end)` it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// The attribute itself.
    pub attr: Attr,
    /// What it covers: the item it is attached to, a single statement or
    /// expression inside a function body, or (for `#![expect]`) the whole
    /// enclosing module, body or file.
    pub covers: (usize, usize),
}

/// Every attribute of the file, in source order. Text in strings and
/// comments is never an attribute: the lexer keeps it inside one token.
pub fn attrs(ctx: &FileCtx<'_>) -> Vec<Attr> {
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < ctx.len() {
        let inner = ctx.text(i + 1) == "!";
        let open = if inner { i + 2 } else { i + 1 };
        if ctx.text(i) != "#" || open >= ctx.len() || ctx.text(open) != "[" {
            i += 1;
            continue;
        }
        let end = close_of(ctx, open);
        let name = if open + 1 < end { ctx.text(open + 1).to_string() } else { String::new() };
        let (lints, reason) = arguments(ctx, open + 2, end.saturating_sub(1));
        out.push(Attr { at: i, end, line: ctx.tok(i).line, inner, name, lints, reason });
        i = end;
    }
    out
}

/// Every `#[expect]` / `#![expect]` of the file with what it covers.
pub fn collect(ctx: &FileCtx<'_>) -> Vec<Expect> {
    attrs(ctx)
        .into_iter()
        .filter(|a| a.name == "expect")
        .map(|attr| {
            let covers = if attr.inner {
                enclosing_body(&ctx.items, attr.at).unwrap_or((0, ctx.len()))
            } else {
                attached_item(&ctx.items, attr.at)
                    .unwrap_or_else(|| (attr.at, statement_end(ctx, attr.end)))
            };
            Expect { attr, covers }
        })
        .collect()
}

/// Index one past the group closed by the bracket matching the opener at
/// `open`, or the end of the file when it never closes.
fn close_of(ctx: &FileCtx<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    for j in open..ctx.len() {
        match ctx.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
    }
    ctx.len()
}

/// Parses `(lint, path::lint, reason = "...")` between `lo` (the `(`) and
/// `hi` (the `]`).
fn arguments(ctx: &FileCtx<'_>, lo: usize, hi: usize) -> (Vec<String>, Option<String>) {
    let mut lints = Vec::new();
    let mut reason = None;
    if lo >= hi || ctx.text(lo) != "(" {
        return (lints, reason);
    }
    let mut path = String::new();
    let mut j = lo + 1;
    while j < hi {
        let t = ctx.text(j);
        match ctx.kind(j) {
            TokKind::Ident if t == "reason" && j + 2 < hi && ctx.text(j + 1) == "=" => {
                if ctx.kind(j + 2) == TokKind::Str {
                    reason = Some(ctx.text(j + 2).trim_matches('"').to_string());
                }
                j += 3;
                continue;
            }
            TokKind::Ident => path.push_str(t),
            _ if t == ":" => path.push(':'),
            _ => {
                if !path.is_empty() {
                    lints.push(std::mem::take(&mut path));
                }
            }
        }
        j += 1;
    }
    (lints, reason)
}

/// The span of the item whose leading attributes include the one at `at`,
/// searching into `mod`/`impl`/`trait` bodies. `None` when `at` sits
/// inside a function body (a statement attribute).
fn attached_item(items: &[Item], at: usize) -> Option<(usize, usize)> {
    let item = items.iter().find(|it| it.span.0 <= at && at < it.span.1)?;
    match item.body {
        Some((lo, hi)) if lo <= at && at < hi => match item.kind {
            ItemKind::Fn => None,
            _ => attached_item(&item.children, at),
        },
        _ => Some(item.span),
    }
}

/// The body range of the innermost item whose body contains `at`.
fn enclosing_body(items: &[Item], at: usize) -> Option<(usize, usize)> {
    let item = items.iter().find(|it| it.span.0 <= at && at < it.span.1)?;
    let (lo, hi) = item.body.filter(|&(lo, hi)| lo <= at && at < hi)?;
    Some(enclosing_body(&item.children, at).unwrap_or((lo, hi)))
}

/// End of the statement, match arm or expression starting at `from`
/// (after stacked attributes): through the first `;` or `,` at depth 0,
/// through a `{...}` block opened at depth 0, or up to the close of the
/// enclosing group.
fn statement_end(ctx: &FileCtx<'_>, from: usize) -> usize {
    let mut depth = 0usize;
    let mut j = from;
    while j < ctx.len() {
        match ctx.text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return j,
            ")" | "]" => depth -= 1,
            "}" => {
                depth -= 1;
                let next = if j + 1 < ctx.len() { ctx.text(j + 1) } else { "" };
                if depth == 0 && !matches!(next, "." | "?" | "else") {
                    return j + 1;
                }
            }
            ";" | "," if depth == 0 => return j + 1,
            _ => {}
        }
        j += 1;
    }
    ctx.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FileMeta;
    use crate::rules::{check, Finding};

    fn lib_meta() -> FileMeta {
        FileMeta::classify("crates/dram", "crates/dram/src/storage.rs".into())
    }

    fn covered(src: &str) -> Vec<String> {
        let ctx = FileCtx::new(src);
        let e = collect(&ctx);
        assert_eq!(e.len(), 1, "{e:?}");
        let (lo, hi) = e[0].covers;
        (lo..hi).map(|i| ctx.text(i).to_string()).collect()
    }

    fn rules_of(d: &[Finding]) -> Vec<&str> {
        d.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn standalone_allow_covers_next_code_line() {
        // An outer attribute covers the item it is attached to, and only it.
        let src = "#[expect(clippy::exit, reason = \"x\")]\n\nfn a() { exit(1) }\nfn b() {}\n";
        let toks = covered(src);
        assert!(toks.contains(&"a".to_string()) && !toks.contains(&"b".to_string()), "{toks:?}");
        // Inside an impl, the attached method and not its neighbour.
        let src = "impl S {\n fn x() {}\n #[expect(clippy::exit, reason = \"x\")]\n fn y() {}\n fn z() {}\n}";
        let toks = covered(src);
        assert!(toks.contains(&"y".to_string()), "{toks:?}");
        assert!(!toks.contains(&"x".to_string()) && !toks.contains(&"z".to_string()), "{toks:?}");
        // An inner attribute covers its whole file.
        let toks = covered("#![expect(clippy::exit, reason = \"x\")]\nfn a() {}\nfn b() {}\n");
        assert!(toks.contains(&"a".to_string()) && toks.contains(&"b".to_string()), "{toks:?}");
    }

    #[test]
    fn trailing_allow_covers_its_own_line() {
        // A statement attribute inside a body covers its statement only.
        let src = "fn f() {\n #[expect(clippy::exit, reason = \"x\")]\n let a = g(|| { 1 });\n let b = 2;\n}";
        let toks = covered(src);
        assert!(toks.contains(&"a".to_string()) && toks.last().is_some_and(|t| t == ";"));
        assert!(!toks.contains(&"b".to_string()), "{toks:?}");
        // A match arm ends at its comma.
        let src = "fn f(x: u8) -> u8 {\n match x {\n #[expect(clippy::unreachable, reason = \"x\")]\n 0 => unreachable!(),\n _ => 1,\n }\n}";
        let toks = covered(src);
        assert!(toks.contains(&"unreachable".to_string()), "{toks:?}");
        assert!(!toks.contains(&"_".to_string()), "{toks:?}");
    }

    #[test]
    fn justification_is_mandatory() {
        let d =
            check(&FileCtx::new("#[expect(clippy::too_many_arguments)]\nfn f() {}\n"), &lib_meta());
        assert_eq!(rules_of(&d), ["allow-syntax"], "{d:?}");
        assert!(d[0].message.contains("reason"), "{}", d[0].message);
        let d =
            check(&FileCtx::new("#[expect(dead_code, reason = \"\")]\nfn f() {}\n"), &lib_meta());
        assert_eq!(rules_of(&d), ["allow-syntax"], "an empty reason justifies nothing: {d:?}");
        let d = check(
            &FileCtx::new("#[expect(dead_code, reason = \"kept for the golden\")]\nfn f() {}\n"),
            &lib_meta(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unknown_rule_is_an_error() {
        let src = "#[expect(dead_code, reason = \"seeded: no-such-rule\")]\nfn f() {}\n";
        let d = check(&FileCtx::new(src), &lib_meta());
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("unknown rule"), "{}", d[0].message);
    }

    #[test]
    fn unused_allow_warns() {
        // A `disallowed_methods` expectation over code calling none of the
        // paths the audit knows sanctions nothing it can place.
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { let x = 1; }\n";
        let d = check(&FileCtx::new(src), &lib_meta());
        assert_eq!(rules_of(&d), ["unused-allow"], "{d:?}");
    }

    #[test]
    fn wrong_rule_on_right_line_does_not_suppress() {
        // A print expectation over an environment read sanctions printing,
        // not the read: the audit places it as print-macro only.
        let src =
            "#[expect(clippy::print_stdout, reason = \"x\")]\nfn f() { std::env::var(\"X\"); }\n";
        let d = check(&FileCtx::new(src), &lib_meta());
        assert_eq!(rules_of(&d), ["print-macro"], "{d:?}");
    }
}
