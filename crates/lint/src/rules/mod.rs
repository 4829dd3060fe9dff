//! The rule set and the per-file analysis context.
//!
//! Every rule is a pure function over a [`FileCtx`] (token stream +
//! test-region mask) and the file's [`FileMeta`] scope flags. Rules report
//! everything they see; [`crate::check_source`] then subtracts the inline
//! allows. The rule table:
//!
//! | rule | defends | fires on |
//! |---|---|---|
//! | `hash-collection` | byte-identical reports | `HashMap`/`HashSet` in non-test lib/bin code |
//! | `float-accum` | f64 sum order | `+=` on a float inside a loop in `merge*` functions |
//! | `print-macro` | pipe-clean stdout | `print!`-family macros in library code |
//! | `obs-protocol` | trace/metrics off the report pipe | `stdout()` handle acquisition in library code |
//! | `process-exit` | CLI exit-code contract | `process::exit` outside `gradpim-cli` |
//! | `thread-spawn` | global thread budget | thread creation outside the `engine::sched` subsystem |
//! | `panic-discipline` | lowest-index panic propagation | `unwrap`/`expect`/`panic!`-family/bare indexing in sched, cache, CLI |
//! | `schema-sync` | spec-family schema drift | `Schema` columns vs `ToRow::row` cells mismatch |
//! | `forbid-unsafe` | memory safety audit trail | crate root missing `#![forbid(unsafe_code)]` |
//! | `allow-syntax` | escape-hatch hygiene | malformed/unknown `gradpim-lint:` comments |
//! | `unused-allow` *(warning)* | stale suppressions | an allow that suppresses nothing |
//! | `env-discipline` | per-host reproducibility | `std::env::var`/`var_os` outside a crate's `src/env.rs` |
//! | `float-taint` | f64 sum order at the source | unordered iteration feeding a float accumulation in row/merge code |
//! | `panic-reach` *(graph)* | protocol-loop integrity | a panic site reachable from a protocol root through the call graph |

pub mod env_discipline;
pub mod float_taint;
pub mod panic_reach;
mod schema_sync;
mod simple;

use crate::config::FileMeta;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{lex, TokKind, Token};
use crate::parser::{parse_items, Item};

/// Every rule id, for `gradpim-lint rules` and allow-comment validation.
pub const RULES: &[(&str, &str)] = &[
    ("hash-collection", "HashMap/HashSet in library code: iteration order is nondeterministic and feeds reports/traces; use BTreeMap/BTreeSet or sort before emission"),
    ("float-accum", "bare `+=` float accumulation inside a loop in merge code: f64 addition is not associative, canonical summation lives in Stats::merge_all"),
    ("print-macro", "print!/println!/eprint!/eprintln! in a library crate: stdout is the spec/report pipe; only the CLI may write the banner, to stderr"),
    ("obs-protocol", "stdout() handle acquisition in a library crate: trace/metrics output must be returned as a string for the CLI to route, never written to the report pipe"),
    ("process-exit", "std::process::exit outside gradpim-cli: the CLI owns the exit-code contract"),
    ("thread-spawn", "thread creation outside the engine::sched subsystem: escapes the thread budget and panic propagation"),
    ("panic-discipline", "unwrap/expect/panic!/unreachable!/todo!/unimplemented!/bare indexing in the sched, cache, or CLI path: panics must flow through lowest-index propagation"),
    ("schema-sync", "a sweep family's Schema columns disagree with its ToRow::row cells (names, kinds, or order)"),
    ("forbid-unsafe", "crate root missing #![forbid(unsafe_code)]"),
    ("allow-syntax", "malformed gradpim-lint allow comment (unknown rule, missing justification)"),
    ("unused-allow", "an allow comment that suppresses nothing (warning)"),
    ("env-discipline", "std::env::var/var_os read outside the crate's designated src/env.rs module: scattered env reads are per-host nondeterminism the byte-identity gates cannot see"),
    ("float-taint", "float accumulation fed by iteration over an unordered (hash) collection in ToRow::row/merge code: source-ordered nondeterminism reaches the report bytes"),
    ("panic-reach", "a potential panic site transitively reachable from a protocol root (sched/cache/CLI/report/serialize) through the workspace call graph; the diagnostic carries the full call chain"),
];

/// Rule names usable in allow comments.
pub fn rule_names() -> Vec<&'static str> {
    RULES.iter().map(|(n, _)| *n).collect()
}

/// The analysis view of one file.
pub struct FileCtx<'s> {
    /// Full source text.
    pub src: &'s str,
    /// Every token, including whitespace and comments.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of significant (code) tokens.
    pub sig: Vec<usize>,
    /// Per-`sig` entry: true when the token sits inside a `#[test]` /
    /// `#[cfg(test)]` item, where test-only idioms are fine.
    pub in_test: Vec<bool>,
    /// The structural item tree over the significant tokens (see
    /// [`crate::parser`]) — the layer the symbol graph is built from.
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

    /// True when significant token `i` and `i+1` touch with no gap —
    /// distinguishes `+=` from `+ =`.
    pub fn adjacent(&self, i: usize) -> bool {
        i + 1 < self.len() && self.tok(i).end == self.tok(i + 1).start
    }

    /// Emits an error diagnostic anchored at significant token `i`.
    pub fn error(
        &self,
        diags: &mut Vec<Diagnostic>,
        meta: &FileMeta,
        rule: &'static str,
        i: usize,
        message: String,
    ) {
        let t = self.tok(i);
        diags.push(Diagnostic {
            rule,
            severity: Severity::Error,
            file: meta.rel.clone(),
            line: t.line,
            col: t.col,
            message,
            chain: Vec::new(),
        });
    }
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

/// Runs every applicable rule over one file.
pub fn run_all(ctx: &FileCtx<'_>, meta: &FileMeta, diags: &mut Vec<Diagnostic>) {
    simple::hash_collection(ctx, meta, diags);
    simple::float_accum(ctx, meta, diags);
    simple::print_macro(ctx, meta, diags);
    simple::obs_protocol(ctx, meta, diags);
    simple::process_exit(ctx, meta, diags);
    simple::thread_spawn(ctx, meta, diags);
    simple::panic_discipline(ctx, meta, diags);
    simple::forbid_unsafe(ctx, meta, diags);
    schema_sync::check(ctx, meta, diags);
    env_discipline::check(ctx, meta, diags);
    float_taint::check(ctx, meta, diags);
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
