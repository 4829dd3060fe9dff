//! The escape hatch: `#[expect(<lint>, reason = "...")]` attributes, each
//! with the code it covers.
//!
//! rustc reports an expectation that no longer fires
//! (`unfulfilled_lint_expectations`) and clippy one without a reason; this
//! module only finds the attributes so [`crate::rules`] can tell which
//! retired rule each one sanctions and whether it may sit where it does.

use crate::rules::FileCtx;
use crate::scan::{self, tokens};

/// One attribute, `#[name(...)]` or `#![name(...)]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// Byte offset of the attribute's `#`.
    pub at: usize,
    /// Byte offset one past its closing `]`.
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

impl Attr {
    /// `#[test]`, or a `#[cfg(...)]` naming `test` without `not`: the item
    /// it precedes is test code.
    pub(crate) fn is_test(&self) -> bool {
        let names = |w: &str| self.lints.iter().any(|l| l == w);
        !self.inner
            && (self.name == "test" || (self.name == "cfg" && names("test")))
            && !names("not")
    }
}

/// An `#[expect]` and the byte range `[start, end)` it covers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expect {
    /// The attribute itself.
    pub attr: Attr,
    /// What it covers: from its `#` through the item it precedes (its
    /// first `{...}` or an earlier `;`), or inside a function, type or
    /// expression body through the statement, match arm or field it
    /// precedes; for `#![expect]`, the enclosing block or the whole file.
    pub covers: (usize, usize),
}

/// Every attribute of the file, in source order, found by bracket matching
/// on the blanked copy ([`scan::blank`]): text in strings and comments is
/// never an attribute.
pub fn attrs(ctx: &FileCtx<'_>) -> Vec<Attr> {
    let code = ctx.code.as_str();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(at) = code.get(from..).and_then(|rest| rest.find('#')).map(|n| from + n) {
        let mut next = tokens(code, at + 1);
        let (inner, open) = match (next.next(), next.next()) {
            (Some((_, "!")), Some((open, "["))) => (true, open),
            (Some((open, "[")), _) => (false, open),
            _ => {
                from = at + 1;
                continue;
            }
        };
        let close = scan::close_of(code, open);
        let mut inside = tokens(code, open + 1).take_while(|&(j, _)| j < close);
        let name = inside.next().map_or_else(String::new, |(_, t)| t.to_string());
        let (lints, reason) = arguments(ctx.src, inside);
        let end = (close + 1).min(code.len());
        out.push(Attr { at, end, line: ctx.line(at), inner, name, lints, reason });
        from = end;
    }
    out
}

/// Every `#[expect]` / `#![expect]` of the file with what it covers.
pub fn collect(ctx: &FileCtx<'_>) -> Vec<Expect> {
    let code = ctx.code.as_str();
    attrs(ctx)
        .into_iter()
        .filter(|a| a.name == "expect")
        .map(|attr| {
            let block = scan::enclosing_brace(code, attr.at);
            let covers = if attr.inner {
                block.map_or((0, code.len()), |open| (open + 1, scan::close_of(code, open)))
            } else {
                let in_body = block.is_some_and(|open| !scan::holds_items(code, open));
                (attr.at, scan::end_of(code, attr.end, in_body))
            };
            Expect { attr, covers }
        })
        .collect()
}

/// Parses `(lint, path::lint, reason = "...")` from the tokens after an
/// attribute's name; the reason's text comes from `src`, since the blanked
/// copy keeps only its quotes.
fn arguments<'c>(
    src: &str,
    toks: impl Iterator<Item = (usize, &'c str)>,
) -> (Vec<String>, Option<String>) {
    let mut lints = Vec::new();
    let mut reason = None;
    let mut toks = toks.peekable();
    if toks.next_if(|&(_, t)| t == "(").is_none() {
        return (lints, reason);
    }
    let mut path = String::new();
    while let Some((_, t)) = toks.next() {
        if t == "reason" && toks.next_if(|&(_, n)| n == "=").is_some() {
            while toks.next_if(|&(_, n)| matches!(n, "r" | "#")).is_some() {}
            if let (Some((lo, "\"")), Some((hi, "\""))) = (toks.next(), toks.next()) {
                reason = src.get(lo + 1..hi).map(str::to_string);
            }
        } else if t == ":" {
            path.push(':');
        } else if t.starts_with(|c: char| c == '_' || c.is_alphabetic()) {
            path.push_str(t);
        } else if !path.is_empty() {
            lints.push(std::mem::take(&mut path));
        }
    }
    (lints, reason)
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
        tokens(&ctx.code, lo).take_while(|&(at, _)| at < hi).map(|(_, t)| t.to_string()).collect()
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
