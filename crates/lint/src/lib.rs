//! The workspace's determinism/protocol static-analysis pass
//! (`gradpim-lint`).
//!
//! The simulator's headline property is **byte-identical output** across
//! event-skip vs per-cycle execution, thread counts, warm/cold caches, and
//! machines — a property that ordinary Rust tooling cannot defend. A
//! `HashMap` iteration feeding a report, a float `+=` loop in merge code,
//! or a stray `println!` on the spec/report pipe all compile cleanly and
//! pass clippy, then break the identity gates (or worse, break them only
//! on someone else's machine). This crate is the gate for exactly those
//! hazards: a dependency-free analyzer over a hand-rolled, error-tolerant
//! Rust lexer (no `syn`, nothing outside `std`) that walks every
//! workspace member and reports `file:line:col` diagnostics, human or
//! JSON.
//!
//! The model is **deny by default**: every rule applies everywhere unless
//! [`config`] carves out a structural exception (with its reasoning) or a
//! site carries an inline
//! `// gradpim-lint: allow(<rule>): <justification>` comment ([`allow`]).
//! Justifications are mandatory and unused allows are themselves
//! reported, so the suppression set cannot silently rot.
//!
//! The analysis has two layers. The **token layer**: [`lexer`] tokenizes
//! (exact source partition, never panics) and the per-file rules in
//! [`rules`] pattern-match the stream. The **structural layer** built on
//! top of it: [`parser`] derives an error-tolerant item tree per file
//! (same partition discipline, proptested the same way), [`graph`]
//! assembles the workspace symbol graph and approximate call graph from
//! those trees, and graph rules such as `panic-reach` traverse it,
//! reporting multi-frame call chains. [`allow`] is the escape hatch,
//! [`config`] the scoping tables, [`diag`] the severity model and
//! renderers, [`json`] a minimal reader for round-trip-validating the
//! tool's own artifacts. [`check_workspace`] is the CLI's entry point;
//! [`check_source`] checks one in-memory file with the per-file rules
//! (used by the golden/fixture tests).

#![forbid(unsafe_code)]

pub mod allow;
pub mod config;
pub mod diag;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod rules;

use std::fs;
use std::path::Path;

use config::FileMeta;
use diag::{Diagnostic, Severity};
use rules::FileCtx;

/// The result of a lint run.
#[derive(Debug)]
pub struct CheckReport {
    /// All diagnostics, in canonical order ([`diag::sort`]).
    pub diags: Vec<Diagnostic>,
    /// Number of files analyzed.
    pub files_checked: usize,
}

impl CheckReport {
    /// Number of error-severity diagnostics (nonzero fails the run).
    pub fn errors(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Error).count()
    }
}

/// Lints one file's source text: runs every applicable rule, subtracts
/// the inline allows, then reports allow hygiene (malformed comments,
/// unused suppressions).
pub fn check_source(meta: &FileMeta, src: &str) -> Vec<Diagnostic> {
    let ctx = FileCtx::new(src);
    let mut raw = Vec::new();
    rules::run_all(&ctx, meta, &mut raw);
    let mut diags = Vec::new();
    let mut allows = allow::collect(src, &ctx.tokens, &meta.rel, &rules::rule_names(), &mut diags);
    for d in raw {
        if !allows.suppress(d.rule, d.line) {
            diags.push(d);
        }
    }
    allows.unused(&meta.rel, &mut diags);
    diags
}

/// True when `rel` falls under one of the user-supplied path filters
/// (a file path, or a directory prefix). An empty filter matches all.
fn matches_filter(rel: &str, filters: &[String]) -> bool {
    if filters.is_empty() {
        return true;
    }
    filters.iter().any(|f| {
        let f = f.trim_start_matches("./").trim_end_matches('/');
        rel == f || rel.starts_with(&format!("{f}/"))
    })
}

/// Loads every workspace file and builds its analysis context. The graph
/// layer and `check_workspace` share this front end.
fn load_workspace(root: &Path) -> Result<(Vec<FileMeta>, Vec<String>), String> {
    let metas = config::workspace_files(root)?;
    let mut sources = Vec::with_capacity(metas.len());
    for meta in &metas {
        let path = root.join(&meta.rel);
        let src = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        sources.push(src);
    }
    Ok((metas, sources))
}

/// Builds the workspace symbol/call graph (the `graph` subcommand's
/// entry point).
///
/// # Errors
///
/// Propagates workspace-discovery and file-read failures.
pub fn workspace_graph(root: &Path) -> Result<graph::Graph, String> {
    let (metas, sources) = load_workspace(root)?;
    let ctxs: Vec<FileCtx<'_>> = sources.iter().map(|s| FileCtx::new(s)).collect();
    let pairs: Vec<(&FileMeta, &FileCtx<'_>)> = metas.iter().zip(ctxs.iter()).collect();
    Ok(graph::build(root, &pairs))
}

/// Lints the whole workspace rooted at `root` (every member listed in the
/// root `Cargo.toml`, plus the root facade package), optionally narrowed
/// to paths under `filters`. Diagnostics come back in canonical order.
///
/// The per-file rules and the graph rules (`panic-reach`) both run here;
/// graph diagnostics are routed through the inline-allow set of the file
/// they anchor to, exactly like token diagnostics. The graph itself is
/// always built from the *whole* workspace — path filters narrow only the
/// reporting, never the call-graph context.
///
/// # Errors
///
/// A human-readable message when the workspace manifest cannot be parsed
/// or a listed source file cannot be read.
pub fn check_workspace(root: &Path, filters: &[String]) -> Result<CheckReport, String> {
    let (metas, sources) = load_workspace(root)?;
    let ctxs: Vec<FileCtx<'_>> = sources.iter().map(|s| FileCtx::new(s)).collect();

    // Per-file rules and allow collection, with the allow sets held open
    // so graph diagnostics can still be suppressed per file.
    let names = rules::rule_names();
    let mut per_file: Vec<Vec<Diagnostic>> = vec![Vec::new(); metas.len()];
    let mut hygiene: Vec<Vec<Diagnostic>> = vec![Vec::new(); metas.len()];
    let mut allows: Vec<allow::Allows> = Vec::with_capacity(metas.len());
    for (i, (meta, ctx)) in metas.iter().zip(ctxs.iter()).enumerate() {
        rules::run_all(ctx, meta, &mut per_file[i]);
        allows.push(allow::collect(ctx.src, &ctx.tokens, &meta.rel, &names, &mut hygiene[i]));
    }

    // Graph rules over the whole workspace, routed into per-file lists.
    let pairs: Vec<(&FileMeta, &FileCtx<'_>)> = metas.iter().zip(ctxs.iter()).collect();
    let g = graph::build(root, &pairs);
    rules::panic_reach::check(&g, &mut |file, d| per_file[file].push(d));

    // Subtract allows, report unused ones, then apply the path filters to
    // the *reporting*.
    let mut diags = Vec::new();
    let mut files_checked = 0usize;
    for (i, meta) in metas.iter().enumerate() {
        if !matches_filter(&meta.rel, filters) {
            continue;
        }
        files_checked += 1;
        diags.append(&mut hygiene[i]);
        for d in per_file[i].drain(..) {
            if !allows[i].suppress(d.rule, d.line) {
                diags.push(d);
            }
        }
        allows[i].unused(&meta.rel, &mut diags);
    }
    if files_checked == 0 && !filters.is_empty() {
        return Err(format!(
            "no workspace source files match {:?} (paths are workspace-relative)",
            filters
        ));
    }
    diag::sort(&mut diags);
    Ok(CheckReport { diags, files_checked })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_meta() -> FileMeta {
        FileMeta::classify("crates/dram", "crates/dram/src/storage.rs".into())
    }

    #[test]
    fn violation_is_reported_then_suppressed_by_allow() {
        let bad = "use std::collections::HashMap;\n";
        let d = check_source(&lib_meta(), bad);
        assert!(d.iter().any(|d| d.rule == "hash-collection"), "{d:?}");

        let allowed =
            "use std::collections::HashMap; // gradpim-lint: allow(hash-collection): never iterated\n";
        let d = check_source(&lib_meta(), allowed);
        assert!(d.iter().all(|d| d.rule != "hash-collection"), "{d:?}");
        assert!(d.iter().all(|d| d.rule != "unused-allow"), "{d:?}");
    }

    #[test]
    fn unused_allow_surfaces_as_warning() {
        let src = "// gradpim-lint: allow(print-macro): nothing here prints\nlet x = 1;\n";
        let d = check_source(&lib_meta(), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].rule, d[0].severity), ("unused-allow", Severity::Warning));
    }

    #[test]
    fn filter_matches_files_and_directories() {
        let f = |s: &str| vec![s.to_string()];
        assert!(matches_filter("crates/engine/src/pool.rs", &f("crates/engine")));
        assert!(matches_filter("crates/engine/src/pool.rs", &f("crates/engine/src/pool.rs")));
        assert!(matches_filter("crates/engine/src/pool.rs", &f("./crates/engine/")));
        assert!(!matches_filter("crates/engine2/src/lib.rs", &f("crates/engine")));
        assert!(matches_filter("anything.rs", &[]));
    }

    #[test]
    fn real_workspace_has_no_errors() {
        // The repo must stay clean under its own gate — the same check CI
        // runs, minus the process boundary.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let report = check_workspace(&root, &[]).expect("workspace lints");
        let errors: Vec<_> =
            report.diags.iter().filter(|d| d.severity == Severity::Error).collect();
        assert!(errors.is_empty(), "workspace has lint errors: {errors:#?}");
    }
}
