//! The sanction audit: each `#[expect]` that sanctions a retired
//! gradpim-lint rule must sit where that rule permits it.
//!
//! rustc and clippy detect every rule's pattern (README, "Lint policy"),
//! but clippy honours an `#[expect(..., reason = ...)]` anywhere. [`RULES`]
//! restores the scopes the retired analyzer built in: threads are created
//! by `engine::sched`, the environment is read in a crate's `src/env.rs`,
//! only the CLI exits, and only binaries, tests and benches print. An
//! expectation of `clippy::disallowed_methods` is placed by the call it
//! covers, so a thread sanction cannot pass as an environment one.
//! [`simple`] checks that the lints are switched on where they must be.

use std::fmt;

use crate::allow::{self, Expect};
use crate::config::{FileKind, FileMeta, Role};
use crate::lexer::{lex, TokKind, Token};
use crate::parser::{parse_items, Item};

#[cfg(test)]
mod env_discipline;
#[cfg(test)]
mod float_taint;
pub mod simple;

/// One audit finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line (0 for a whole-file or manifest finding).
    pub line: usize,
    /// The rule the finding belongs to.
    pub rule: &'static str,
    /// What is wrong and what to do instead.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// A retired rule whose replacement lint an `#[expect]` can sanction.
#[derive(Debug)]
pub struct Rule {
    /// The rule's name (README "Lint policy"); fixture seeds cite it as
    /// `reason = "seeded: <name>"`.
    pub name: &'static str,
    /// The lints whose expectation sanctions a site of this rule.
    pub lints: &'static [&'static str],
    /// For `clippy::disallowed_methods`: the calls (path tails) that make an
    /// expectation this rule's; the root `clippy.toml` lists them in full.
    pub calls: &'static [&'static str],
    /// Where a sanction may sit, as [`Rule::allows`] decides it.
    pub scope: &'static str,
    allows: fn(&FileMeta, bool) -> bool,
}

impl Rule {
    /// True when a sanction of this rule may sit in `meta`'s file, in test
    /// code when `in_test`.
    pub fn allows(&self, meta: &FileMeta, in_test: bool) -> bool {
        (self.allows)(meta, in_test)
    }
}

const DISALLOWED_METHODS: &str = "clippy::disallowed_methods";

/// Every rule an `#[expect]` can sanction, with its scope.
pub const RULES: &[Rule] = &[
    Rule {
        name: "hash-collection",
        lints: &["clippy::disallowed_types"],
        calls: &[],
        scope: "nowhere outside vendor/: use BTreeMap/BTreeSet, or sort before emitting",
        allows: |m, _| m.role == Role::Vendor,
    },
    Rule {
        name: "thread-spawn",
        lints: &[DISALLOWED_METHODS],
        calls: &["thread::spawn", "thread::scope", "thread::Builder"],
        scope: "only in crates/engine/src/sched/ and test code: run work as engine jobs",
        allows: |m, in_test| {
            m.rel.starts_with("crates/engine/src/sched/") || in_test || m.role == Role::Vendor
        },
    },
    Rule {
        name: "env-discipline",
        lints: &[DISALLOWED_METHODS],
        calls: &["env::var", "env::var_os"],
        scope: "only in the crate's src/env.rs: read the knob there and export a function",
        allows: |m, _| m.is_env_module() || m.role == Role::Vendor,
    },
    Rule {
        name: "obs-protocol",
        lints: &[DISALLOWED_METHODS],
        calls: &["io::stdout"],
        scope: "not in library code: stdout is the report pipe, return the text to the CLI",
        allows: |m, in_test| !m.is_library_code() || in_test,
    },
    Rule {
        name: "print-macro",
        lints: &["clippy::print_stdout", "clippy::print_stderr"],
        calls: &[],
        scope: "not in library code: stdout is the report pipe, return the text to the CLI",
        allows: |m, in_test| !m.is_library_code() || in_test,
    },
    Rule {
        name: "process-exit",
        lints: &["clippy::exit"],
        calls: &[],
        scope: "only in the CLI, which owns the exit-code contract: return an error",
        allows: |m, in_test| {
            m.rel == "crates/engine/src/bin/gradpim-cli.rs" || in_test || m.role == Role::Vendor
        },
    },
    Rule {
        name: "allow-syntax",
        lints: &["clippy::allow_attributes", "clippy::allow_attributes_without_reason"],
        calls: &[],
        scope: "nowhere: write `#[expect(<lint>, reason = \"...\")]`",
        allows: |_, _| false,
    },
    Rule {
        name: "panic-discipline",
        lints: &[
            "clippy::unwrap_used",
            "clippy::expect_used",
            "clippy::panic",
            "clippy::indexing_slicing",
            "clippy::unreachable",
            "clippy::unimplemented",
        ],
        calls: &[],
        scope: "anywhere, with a reason",
        allows: |_, _| true,
    },
];

/// A lexed and parsed source file.
#[derive(Debug)]
pub struct FileCtx<'s> {
    /// Full source text.
    pub src: &'s str,
    /// Every token, including whitespace and comments.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (code) tokens.
    pub sig: Vec<usize>,
    /// Per-`sig` entry: true when the token sits inside a `#[test]` /
    /// `#[cfg(test)]` item.
    pub in_test: Vec<bool>,
    /// The item tree over the significant tokens ([`crate::parser`]).
    pub items: Vec<Item>,
}

impl<'s> FileCtx<'s> {
    /// Lexes `src`, computes the test-region mask, and parses the item
    /// tree.
    pub fn new(src: &'s str) -> Self {
        let tokens = lex(src);
        let sig: Vec<usize> =
            tokens.iter().enumerate().filter(|(_, t)| t.is_significant()).map(|(i, _)| i).collect();
        let in_test = test_mask(src, &tokens, &sig);
        let items = parse_items(src, &tokens, &sig);
        Self { src, tokens, sig, in_test, items }
    }

    /// The `i`-th significant token.
    pub fn tok(&self, i: usize) -> &Token {
        &self.tokens[self.sig[i]]
    }

    /// Its text.
    pub fn text(&self, i: usize) -> &'s str {
        self.tok(i).text(self.src)
    }

    /// Its kind.
    pub fn kind(&self, i: usize) -> TokKind {
        self.tok(i).kind
    }

    /// Number of significant tokens.
    pub fn len(&self) -> usize {
        self.sig.len()
    }

    /// True when there are no significant tokens at all.
    pub fn is_empty(&self) -> bool {
        self.sig.is_empty()
    }

    /// True when the path tail `call` (`a::b`) occurs in `lo..hi`.
    fn calls(&self, (lo, hi): (usize, usize), call: &str) -> bool {
        let segs: Vec<&str> = call.split("::").collect();
        let width = 3 * segs.len() - 2; // `a`, `:`, `:`, `b`
        (lo..hi.saturating_sub(width - 1)).any(|i| {
            segs.iter().enumerate().all(|(k, seg)| {
                self.text(i + 3 * k) == *seg
                    && (k == 0
                        || (self.text(i + 3 * k - 2) == ":" && self.text(i + 3 * k - 1) == ":"))
            })
        })
    }
}

/// The rules an expectation of `lint` sanctions: for
/// `clippy::disallowed_methods`, those whose calls it covers.
fn sanctioned(ctx: &FileCtx<'_>, e: &Expect, lint: &str) -> Vec<&'static Rule> {
    RULES
        .iter()
        .filter(|r| r.lints.contains(&lint))
        .filter(|r| r.calls.is_empty() || r.calls.iter().any(|c| ctx.calls(e.covers, c)))
        .collect()
}

/// Every sanction of the file: each expectation's line with the rule it
/// sanctions, in source order.
pub fn sanctions(ctx: &FileCtx<'_>) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for e in allow::collect(ctx) {
        for lint in &e.attr.lints {
            out.extend(sanctioned(ctx, &e, lint).into_iter().map(|r| (e.attr.line, r.name)));
        }
    }
    out
}

/// Audits one file: crate-root lint levels ([`simple::crate_root`]),
/// then every `#[expect]` — its reason, and each sanction's place.
pub fn check(ctx: &FileCtx<'_>, meta: &FileMeta) -> Vec<Finding> {
    let mut out = Vec::new();
    simple::crate_root(ctx, meta, &mut out);
    for e in allow::collect(ctx) {
        let mut finding = |rule, message| {
            out.push(Finding { file: meta.rel.clone(), line: e.attr.line, rule, message });
        };
        match e.attr.reason.as_deref() {
            None | Some("") => finding(
                "allow-syntax",
                "an `#[expect]` needs a non-empty `reason = \"...\"` justification".into(),
            ),
            Some(reason) => {
                let seeded = reason.strip_prefix("seeded: ");
                if let Some(name) = seeded.filter(|n| RULES.iter().all(|r| r.name != *n)) {
                    finding("allow-syntax", format!("`seeded: {name}` names an unknown rule"));
                }
            }
        }
        let in_test = meta.kind == FileKind::Test || ctx.in_test.get(e.attr.at) == Some(&true);
        for lint in &e.attr.lints {
            let rules = sanctioned(ctx, &e, lint);
            if lint == DISALLOWED_METHODS && rules.is_empty() {
                let known: Vec<&str> = RULES.iter().flat_map(|r| r.calls.iter().copied()).collect();
                finding(
                    "unused-allow",
                    format!("`{lint}` covers none of {known:?}: name the call by its path"),
                );
            }
            for rule in rules.into_iter().filter(|r| !r.allows(meta, in_test)) {
                finding(rule.name, format!("`{lint}` may be sanctioned {}", rule.scope));
            }
        }
    }
    out
}

/// Marks the significant tokens covered by `#[test]` / `#[cfg(test)]`
/// items (the attribute, any stacked attributes after it, and the item
/// body through its matching close brace or terminating semicolon).
fn test_mask(src: &str, tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; sig.len()];
    let text = |i: usize| tokens[sig[i]].text(src);
    let mut i = 0;
    while i < sig.len() {
        // Outer attribute only: `#[...]`, not `#![...]`.
        if text(i) == "#" && i + 1 < sig.len() && text(i + 1) == "[" {
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut idents: Vec<&str> = Vec::new();
            let mut first_ident: Option<&str> = None;
            while j < sig.len() && depth > 0 {
                match text(j) {
                    "[" => depth += 1,
                    "]" => depth -= 1,
                    t if tokens[sig[j]].kind == TokKind::Ident => {
                        first_ident.get_or_insert(t);
                        idents.push(t);
                    }
                    _ => {}
                }
                j += 1;
            }
            let is_test_attr = matches!(first_ident, Some("test") | Some("cfg"))
                && idents.contains(&"test")
                && !idents.contains(&"not");
            if is_test_attr {
                // Skip any further stacked attributes.
                let mut k = j;
                while k + 1 < sig.len() && text(k) == "#" && text(k + 1) == "[" {
                    let mut depth = 1usize;
                    k += 2;
                    while k < sig.len() && depth > 0 {
                        match text(k) {
                            "[" => depth += 1,
                            "]" => depth -= 1,
                            _ => {}
                        }
                        k += 1;
                    }
                }
                // Consume the item: to the matching `}` of its first brace
                // block, or to a `;` that arrives first (e.g. `use`).
                let mut depth = 0usize;
                while k < sig.len() {
                    match text(k) {
                        "{" => depth += 1,
                        "}" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        ";" if depth == 0 => {
                            k += 1;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                for m in mask.iter_mut().take(k.min(sig.len())).skip(i) {
                    *m = true;
                }
                i = k;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(src: &str) -> Vec<(String, bool)> {
        let ctx = FileCtx::new(src);
        (0..ctx.len()).map(|i| (ctx.text(i).to_string(), ctx.in_test[i])).collect()
    }

    #[test]
    fn cfg_test_module_is_masked() {
        let src =
            "fn real() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\nfn after() {}";
        let m = mask_of(src);
        let state = |name: &str| m.iter().find(|(t, _)| t == name).map(|(_, b)| *b);
        assert_eq!(state("real"), Some(false));
        assert_eq!(state("unwrap"), Some(true));
        assert_eq!(state("after"), Some(false));
    }

    #[test]
    fn test_fn_with_stacked_attrs_is_masked() {
        let src = "#[test]\n#[should_panic(expected = \"boom\")]\nfn t() { panic!(\"boom\") }\nfn real() {}";
        let m = mask_of(src);
        assert!(m.iter().find(|(t, _)| t == "panic").is_some_and(|(_, b)| *b));
        assert!(m.iter().find(|(t, _)| t == "real").is_some_and(|(_, b)| !*b));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(not(test))]\nfn real() { x.unwrap(); }";
        let m = mask_of(src);
        assert!(m.iter().find(|(t, _)| t == "unwrap").is_some_and(|(_, b)| !*b));
    }

    #[test]
    fn inner_attribute_is_not_an_item_marker() {
        let src = "#![cfg_attr(test, allow(dead_code))]\nfn real() { x.unwrap(); }";
        let m = mask_of(src);
        assert!(m.iter().find(|(t, _)| t == "unwrap").is_some_and(|(_, b)| !*b));
    }
}
