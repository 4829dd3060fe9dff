//! Workspace discovery and file roles: which files the audit reads and
//! what each one is.
//!
//! A new workspace member is covered automatically: membership is read
//! from the root `Cargo.toml`, so a crate cannot join the build without
//! joining the audit (and the audit then requires it to opt into the
//! workspace lints, which forbid `unsafe` code).

use std::fs;
use std::path::{Path, PathBuf};

/// The seeded-violation fixture. Every sanction in it is deliberate, so
/// the workspace walk skips it; `tests/golden.rs` audits it on its own.
pub const FIXTURE: &str = "crates/lint/src/fixture.rs";

/// Which kind of workspace member a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A library crate on the simulation/report path.
    Lib,
    /// `crates/bench` — the criterion harness support crate. Its stdout
    /// *is* its product (figure tables printed by bench targets).
    BenchHarness,
    /// `vendor/*` — offline API-subset stand-ins for external crates. They
    /// read their upstream's documented environment knobs and print
    /// measurement reports by design.
    Vendor,
    /// `crates/lint` itself, audited like a library crate.
    Tool,
}

/// Where inside a crate a file sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` library code.
    Lib,
    /// `src/main.rs` / `src/bin/**`: a CLI — stdout/stderr and exit codes
    /// are its interface.
    Bin,
    /// `examples/**`: narrative code, prints freely.
    Example,
    /// `tests/**` and `benches/**`: test/bench-only code.
    Test,
}

/// Everything a rule needs to know about one file.
#[derive(Debug, Clone)]
pub struct FileMeta {
    /// Workspace-relative path, `/`-separated (stable across platforms).
    pub rel: String,
    /// The member directory this file belongs to (e.g. `crates/engine`).
    pub member: String,
    /// Crate role.
    pub role: Role,
    /// Position within the crate.
    pub kind: FileKind,
    /// True for `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs`.
    pub is_crate_root: bool,
}

impl FileMeta {
    /// Classifies `rel` (workspace-relative path) inside `member`.
    pub fn classify(member: &str, rel: String) -> FileMeta {
        let role = match member {
            m if m.starts_with("vendor/") => Role::Vendor,
            "crates/bench" => Role::BenchHarness,
            "crates/lint" => Role::Tool,
            _ => Role::Lib,
        };
        let in_member = rel.strip_prefix(member).unwrap_or(&rel).trim_start_matches('/');
        let kind = if in_member.starts_with("tests/") || in_member.starts_with("benches/") {
            FileKind::Test
        } else if in_member.starts_with("examples/") {
            FileKind::Example
        } else if in_member.starts_with("src/bin/") || in_member == "src/main.rs" {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        let is_crate_root = in_member == "src/lib.rs"
            || in_member == "src/main.rs"
            || (in_member.starts_with("src/bin/") && in_member.matches('/').count() == 2);
        FileMeta { rel, member: member.to_string(), role, kind, is_crate_root }
    }

    /// True for a crate's designated environment module (`src/env.rs`).
    pub fn is_env_module(&self) -> bool {
        let in_member = self.rel.strip_prefix(&self.member).unwrap_or(&self.rel);
        in_member.trim_start_matches('/') == "src/env.rs"
    }

    /// Library source of our own crates, where stdout is the report pipe:
    /// not a binary, example, test or bench, not the bench harness, not a
    /// vendor stand-in.
    pub fn is_library_code(&self) -> bool {
        self.kind == FileKind::Lib && matches!(self.role, Role::Lib | Role::Tool)
    }
}

/// Reads the `members = [...]` list out of the root `Cargo.toml`, with
/// the root package as `.` first.
///
/// # Errors
///
/// A human-readable message when the manifest is unreadable or holds no
/// members list.
pub fn workspace_members(root: &Path) -> Result<Vec<String>, String> {
    let manifest = root.join("Cargo.toml");
    let text = fs::read_to_string(&manifest)
        .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
    let mut members = vec![".".to_string()]; // the root facade package
    let mut in_members = false;
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with("members") && line.contains('[') {
            in_members = true;
        }
        if in_members {
            let mut rest = line;
            while let Some(open) = rest.find('"') {
                let Some(close) = rest[open + 1..].find('"') else { break };
                members.push(rest[open + 1..open + 1 + close].to_string());
                rest = &rest[open + 2 + close..];
            }
            if line.contains(']') {
                break;
            }
        }
    }
    if members.len() == 1 {
        return Err(format!("no workspace members found in {}", manifest.display()));
    }
    Ok(members)
}

/// Recursively collects `.rs` files under `dir`, sorted, as workspace-
/// relative `/`-separated paths. Missing directories are fine (not every
/// member has `benches/`).
fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(root, &p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            if let Ok(rel) = p.strip_prefix(root) {
                let rel: Vec<String> = rel
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect();
                out.push(rel.join("/"));
            }
        }
    }
}

/// Enumerates every audited file of the workspace: for each member (and
/// the root package), the `src/`, `tests/`, `examples/`, and `benches/`
/// trees, minus the [`FIXTURE`].
///
/// # Errors
///
/// Propagates [`workspace_members`] failures.
pub fn workspace_files(root: &Path) -> Result<Vec<FileMeta>, String> {
    let mut out = Vec::new();
    for member in workspace_members(root)? {
        let member_dir = if member == "." { root.to_path_buf() } else { root.join(&member) };
        for sub in ["src", "tests", "examples", "benches"] {
            let mut rels = Vec::new();
            collect_rs(root, &member_dir.join(sub), &mut rels);
            for rel in rels.into_iter().filter(|r| r != FIXTURE) {
                let member_key = if member == "." { "" } else { member.as_str() };
                out.push(FileMeta::classify(member_key, rel));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_roles_and_kinds() {
        let m = FileMeta::classify("crates/engine", "crates/engine/src/sched/mod.rs".into());
        assert_eq!((m.role, m.kind), (Role::Lib, FileKind::Lib));
        assert!(m.is_library_code() && !m.is_crate_root);

        let m = FileMeta::classify("crates/engine", "crates/engine/src/bin/gradpim-cli.rs".into());
        assert_eq!(m.kind, FileKind::Bin);
        assert!(m.is_crate_root);
        assert!(!m.is_library_code(), "CLI stdout is its interface");

        let m = FileMeta::classify("vendor/criterion", "vendor/criterion/src/lib.rs".into());
        assert_eq!(m.role, Role::Vendor);
        assert!(m.is_crate_root && !m.is_library_code());

        let m = FileMeta::classify("crates/bench", "crates/bench/src/lib.rs".into());
        assert_eq!(m.role, Role::BenchHarness);
        assert!(!m.is_library_code(), "bench stdout is the figure table");

        let m = FileMeta::classify("crates/lint", FIXTURE.into());
        assert_eq!((m.role, m.kind), (Role::Tool, FileKind::Lib));

        let m = FileMeta::classify("", "src/lib.rs".into());
        assert_eq!(m.role, Role::Lib);
        assert!(m.is_crate_root && m.is_library_code(), "the root package is a library");

        let m = FileMeta::classify("crates/engine", "crates/engine/tests/cli.rs".into());
        assert_eq!(m.kind, FileKind::Test);
        let m = FileMeta::classify("crates/sim", "crates/sim/benches/fig.rs".into());
        assert_eq!(m.kind, FileKind::Test);

        let m = FileMeta::classify("crates/sim", "crates/sim/src/env.rs".into());
        assert!(m.is_env_module());
        let m = FileMeta::classify("crates/sim", "crates/sim/src/config.rs".into());
        assert!(!m.is_env_module());
        let m = FileMeta::classify("crates/sim", "crates/sim/src/sweeps/env.rs".into());
        assert!(!m.is_env_module(), "only the crate's top-level src/env.rs");
    }

    #[test]
    fn members_come_from_the_real_manifest() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let members = workspace_members(&root).expect("workspace manifest parses");
        assert!(members.contains(&"crates/engine".to_string()), "{members:?}");
        assert!(members.contains(&"crates/lint".to_string()), "{members:?}");
        assert!(members.contains(&"vendor/proptest".to_string()), "{members:?}");
    }
}
