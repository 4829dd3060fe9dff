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
use crate::scan;

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

/// A source file as the audit reads it.
#[derive(Debug)]
pub struct FileCtx<'s> {
    /// Full source text.
    pub src: &'s str,
    /// `src` with comments and literal contents blanked ([`scan::blank`]);
    /// byte offsets and lines are the source's.
    pub code: String,
    /// Byte ranges of `#[test]` / `#[cfg(test)]` items: from the attribute
    /// through the item's first `{...}` or an earlier `;`.
    pub tests: Vec<(usize, usize)>,
}

impl<'s> FileCtx<'s> {
    /// Blanks `src` and finds its test ranges.
    pub fn new(src: &'s str) -> Self {
        let mut ctx = Self { src, code: scan::blank(src), tests: Vec::new() };
        let tests = allow::attrs(&ctx).into_iter().filter(allow::Attr::is_test);
        ctx.tests = tests.map(|a| (a.at, scan::end_of(&ctx.code, a.end, false))).collect();
        ctx
    }

    /// The 1-based line of byte offset `at`.
    pub(crate) fn line(&self, at: usize) -> usize {
        1 + self.code.bytes().take(at).filter(|&c| c == b'\n').count()
    }

    /// True when byte offset `at` lies in test code.
    pub(crate) fn in_test(&self, at: usize) -> bool {
        self.tests.iter().any(|&(lo, hi)| lo <= at && at < hi)
    }

    /// True when the path tail `call` (`a::b`) occurs in `lo..hi`.
    fn calls(&self, (lo, hi): (usize, usize), call: &str) -> bool {
        let toks: Vec<&str> =
            scan::tokens(&self.code, lo).take_while(|&(at, _)| at < hi).map(|(_, t)| t).collect();
        // `a`, `:`, `:`, `b`
        let want: Vec<&str> = call.split("::").flat_map(|seg| [":", ":", seg]).skip(2).collect();
        toks.windows(want.len()).any(|w| w == want)
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
        let in_test = meta.kind == FileKind::Test || ctx.in_test(e.attr.at);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_of(src: &str) -> Vec<(String, bool)> {
        let ctx = FileCtx::new(src);
        scan::tokens(&ctx.code, 0).map(|(at, t)| (t.to_string(), ctx.in_test(at))).collect()
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
