//! The workspace lint policy's audit: what rustc and clippy cannot check
//! about their own configuration.
//!
//! Detection belongs to the toolchain: the root `clippy.toml` disallows
//! the nondeterministic and protocol-breaking paths, `[workspace.lints]`
//! sets the levels, and crate roots add their own denies (README, "Lint
//! policy"). Two things that configuration cannot say are checked here,
//! by `cargo test`:
//!
//! * **enablement** ([`rules::simple`]) — an `#[expect]` turns its lint on
//!   where it sits, so the [`fixture`] proves that a lint detects its
//!   pattern, not that the workspace enables it. The audit reads the
//!   enabling lines: lint levels, `clippy.toml` paths, every member's
//!   `[lints] workspace = true` and the crate-root denies;
//! * **scope** ([`rules`]) — clippy honours an `#[expect(..., reason =
//!   ...)]` anywhere. The audit keeps each rule's sanctions where the rule
//!   permits them: threads in `engine::sched`, environment reads in
//!   `src/env.rs`, exits in the CLI, printing outside library code.
//!
//! Sources are read on a copy in which comments and literal contents are
//! spaces ([`scan`]), so text in a string or a comment is never taken for
//! an attribute. [`allow`] finds the attributes on it by bracket matching,
//! each `#[expect]` with the item or statement it precedes, and [`config`]
//! finds the files.

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod allow;
pub mod config;
pub mod fixture;
pub mod rules;
pub mod scan;

use std::fs;
use std::path::Path;

use config::FileMeta;
use rules::FileCtx;
pub use rules::Finding;

/// Audits one source file: its crate-root denies and its `#[expect]`s.
pub fn check_source(meta: &FileMeta, src: &str) -> Vec<Finding> {
    rules::check(&FileCtx::new(src), meta)
}

/// Audits the workspace rooted at `root`: the root manifest and
/// `clippy.toml`, every member manifest, and every source file but the
/// [`fixture`]. Findings come back sorted by file, line and rule.
///
/// # Errors
///
/// A human-readable message when the workspace manifest cannot be parsed
/// or a file cannot be read.
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let read = |rel: &str| {
        fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
    };
    let mut out = rules::simple::root_config(&read("Cargo.toml")?, &read("clippy.toml")?);
    for member in config::workspace_members(root)? {
        let rel = if member == "." { "Cargo.toml".into() } else { format!("{member}/Cargo.toml") };
        out.extend(rules::simple::manifest(&rel, &read(&rel)?));
    }
    for meta in config::workspace_files(root)? {
        out.extend(check_source(&meta, &read(&meta.rel)?));
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_workspace_has_no_errors() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let findings = check_workspace(&root).expect("workspace reads");
        let shown: Vec<String> = findings.iter().map(ToString::to_string).collect();
        assert!(findings.is_empty(), "lint policy findings:\n{}", shown.join("\n"));
        // The walk reaches every member and every library root.
        assert!(config::workspace_members(&root).expect("members").len() >= 13);
        let files = config::workspace_files(&root).expect("files");
        let lib_roots = files.iter().filter(|m| m.is_crate_root && m.is_library_code()).count();
        assert!(lib_roots >= 10, "{lib_roots} library roots");
    }

    #[test]
    fn violation_is_reported_then_suppressed_by_allow() {
        // An out-of-scope sanction is reported in library code and accepted
        // once it sits in test code, where threads may be made.
        let meta = FileMeta::classify("crates/dram", "crates/dram/src/storage.rs".into());
        let spawn = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { std::thread::spawn(|| {}); }";
        let d = check_source(&meta, spawn);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].line, d[0].rule), (1, "thread-spawn"));
        assert!(d[0].to_string().starts_with("crates/dram/src/storage.rs:1: [thread-spawn]"));
        let in_test = format!("#[cfg(test)]\nmod tests {{\n#[test]\n{spawn}\n}}");
        assert!(check_source(&meta, &in_test).is_empty());
    }
}
