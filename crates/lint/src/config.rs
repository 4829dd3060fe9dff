//! What to check where: workspace discovery, crate roles, and rule
//! scoping.
//!
//! The severity model is deny by default — every rule applies to every
//! file unless a line *here* carves out an exception, and each carve-out
//! documents its reasoning. There are two escape levels:
//!
//! * **structural** (this module): whole classes of files where a rule is
//!   meaningless — e.g. `print-macro` in a binary target, whose stdout is
//!   the user interface, or panic rules in `#[cfg(test)]` code;
//! * **site-local** ([`crate::allow`]): an inline
//!   `// gradpim-lint: allow(rule): why` for an individually-judged
//!   violation.
//!
//! Anything not carved out is an error. A new workspace member is covered
//! automatically: membership is read from the root `Cargo.toml`, so a
//! crate cannot be added without also being linted.

use std::fs;
use std::path::{Path, PathBuf};

/// Which kind of workspace member a file belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A library crate on the simulation/report path: every rule applies.
    Lib,
    /// `crates/bench` — the criterion harness support crate. Its stdout
    /// *is* its product (figure tables printed by bench targets), so the
    /// protocol-hygiene print rule does not apply; everything else does.
    BenchHarness,
    /// `vendor/*` — offline API-subset stand-ins for external crates
    /// (criterion prints its measurement report by design). Determinism
    /// and protocol rules target *our* code; vendor stand-ins only get
    /// the structural checks (lexability, `forbid(unsafe_code)`).
    Vendor,
    /// `crates/lint` itself. Checked like a library crate — the linter
    /// must pass its own gate (CI runs a dedicated self-check step).
    Tool,
}

/// Where inside a crate a file sits — decides which rules make sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` library code: the full rule set.
    Lib,
    /// `src/main.rs` / `src/bin/**`: a CLI — stdout/stderr and exit codes
    /// are its interface, so protocol print rules don't apply.
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
    /// True for `src/lib.rs`, `src/main.rs`, and `src/bin/*.rs` — the
    /// files where `#![forbid(unsafe_code)]` must live.
    pub is_crate_root: bool,
}

/// Files allowed to call `std::process::exit`: the CLI owns the process
/// exit-code contract (0 ok / 1 runtime / 2 usage).
const PROCESS_EXIT_OK: &[&str] = &["crates/engine/src/bin/gradpim-cli.rs"];

/// Directory prefixes allowed to create threads: the `engine::sched`
/// batch pool, the workspace's single spawn site — it spawns a batch's
/// scoped lanes, and everything else executes as jobs on them.
const THREAD_SPAWN_OK_PREFIXES: &[&str] = &["crates/engine/src/sched/"];

/// Files under panic discipline: a panic here either crashes a batch or
/// aborts the run without flowing through the lowest-index
/// panic-propagation machinery, so `unwrap`/`expect`/`panic!`/bare
/// indexing need an explicit justification.
const PANIC_SCOPE: &[&str] = &[
    // The result cache sits on every run's hot path: a panic while
    // reading or writing the store turns a cache lookup into a crashed
    // batch, so corruption must degrade to a miss.
    "crates/engine/src/cache.rs",
    // The CLI owns the exit-code contract: a panic there would replace a
    // diagnosed exit 1 or 2 with an abort.
    "crates/engine/src/bin/gradpim-cli.rs",
];

/// Directory prefixes under panic discipline: the scheduler subsystem,
/// where the ordered-batch machinery lives — a stray panic there masks
/// the lowest-index payload.
const PANIC_SCOPE_PREFIXES: &[&str] = &["crates/engine/src/sched/"];

/// Files whose non-test functions are `panic-reach` roots beyond the
/// per-site panic-discipline scope: the report/serialize emit paths,
/// where a panic mid-emission truncates the byte-identical report rather
/// than deadlocking a batch.
const PANIC_REACH_EXTRA_ROOTS: &[&str] =
    &["crates/engine/src/report.rs", "crates/engine/src/serialize.rs"];

/// Call-graph absorption boundaries for `panic-reach`, as qualified-name
/// suffixes with the reason each one is sound. An absorbed function is
/// neither a root nor traversed through: panics below it are converted to
/// errors at runtime, so reachability stops there.
///
/// * `ExperimentSpec::run` — every batch job it launches executes under
///   `catch_unwind` in `engine::sched`, which re-raises the
///   lowest-indexed payload: a panic below this boundary propagates like
///   a sequential run's, not as a protocol hang.
const PANIC_REACH_ABSORBED: &[(&str, &str)] = &[(
    "ExperimentSpec::run",
    "batch jobs run under catch_unwind with lowest-index payload propagation",
)];

/// True when `qname` (a fully-qualified fn name) is a registered
/// `panic-reach` absorption boundary.
pub fn panic_reach_absorbed(qname: &str) -> bool {
    PANIC_REACH_ABSORBED.iter().any(|(s, _)| qname == *s || qname.ends_with(&format!("::{s}")))
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

    fn is_code(&self) -> bool {
        matches!(self.kind, FileKind::Lib | FileKind::Bin)
    }

    /// `hash-collection`: every file of our own crates — tests, benches,
    /// and examples included. A hash-ordered collection in a test can
    /// green-light nondeterministic expectations just as well as one on
    /// the report path.
    pub fn check_hash_collection(&self) -> bool {
        self.role != Role::Vendor
    }

    /// `float-accum`: non-test library/binary code of our own crates (the
    /// merge-path summation rule stays scoped to shipped code).
    pub fn check_float_accum(&self) -> bool {
        self.is_code() && self.role != Role::Vendor
    }

    /// `float-taint`: same scope as `float-accum` — the source-to-sink
    /// refinement runs wherever the syntactic rule does.
    pub fn check_float_taint(&self) -> bool {
        self.check_float_accum()
    }

    /// `env-discipline`: every file of our own crates — tests, benches,
    /// and examples included — except each crate's designated `src/env.rs`
    /// module, the single place process-environment reads may live.
    pub fn check_env_discipline(&self) -> bool {
        self.role != Role::Vendor && !self.is_env_module()
    }

    /// True for a crate's designated environment module (`src/env.rs`).
    pub fn is_env_module(&self) -> bool {
        let in_member = self.rel.strip_prefix(&self.member).unwrap_or(&self.rel);
        in_member.trim_start_matches('/') == "src/env.rs"
    }

    /// `panic-reach` roots: every file under per-site panic discipline
    /// plus the report/serialize emit paths.
    pub fn panic_reach_root(&self) -> bool {
        self.check_panic_discipline() || PANIC_REACH_EXTRA_ROOTS.contains(&self.rel.as_str())
    }

    /// `print-macro`: library sources only — stdout is the spec/report
    /// pipe. CLIs, examples, tests, the bench harness, and vendor
    /// stand-ins all legitimately print.
    pub fn check_print_macro(&self) -> bool {
        self.kind == FileKind::Lib && matches!(self.role, Role::Lib | Role::Tool)
    }

    /// `obs-protocol`: same scope as `print-macro` — library sources only.
    /// Trace/metrics emission must stay off the stdout report pipe, so
    /// acquiring a stdout handle (`io::stdout()`) in library code is out;
    /// exporters return strings and the CLI owns emission.
    pub fn check_obs_protocol(&self) -> bool {
        self.check_print_macro()
    }

    /// `process-exit`: everywhere in our code except the CLI.
    pub fn check_process_exit(&self) -> bool {
        self.is_code() && self.role != Role::Vendor && !PROCESS_EXIT_OK.contains(&self.rel.as_str())
    }

    /// `thread-spawn`: everywhere in our code except the scheduler
    /// subsystem that owns thread creation.
    pub fn check_thread_spawn(&self) -> bool {
        self.is_code()
            && self.role != Role::Vendor
            && !THREAD_SPAWN_OK_PREFIXES.iter().any(|p| self.rel.starts_with(p))
    }

    /// `panic-discipline`: the configured panic-scope files and the
    /// scheduler subsystem.
    pub fn check_panic_discipline(&self) -> bool {
        PANIC_SCOPE.contains(&self.rel.as_str())
            || PANIC_SCOPE_PREFIXES.iter().any(|p| self.rel.starts_with(p))
    }

    /// `schema-sync`: every code file (the rule self-scopes to
    /// `impl ToRow` blocks).
    pub fn check_schema_sync(&self) -> bool {
        self.is_code()
    }

    /// `forbid-unsafe`: crate roots, with no exceptions.
    pub fn check_forbid_unsafe(&self) -> bool {
        self.is_crate_root
    }
}

/// Reads the `members = [...]` list out of the root `Cargo.toml` — the
/// workspace's own source of truth, so new crates are linted from the
/// moment they join the build.
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
        // `tests/fixtures/` trees are lint-test *data* (seeded-violation
        // mini-workspaces), not workspace code; they are linted only when
        // targeted explicitly via `--root`.
        if p.file_name().is_some_and(|n| n == "fixtures") {
            continue;
        }
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

/// Enumerates every lintable file of the workspace: for each member (and
/// the root package), the `src/`, `tests/`, `examples/`, and `benches/`
/// trees.
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
            for rel in rels {
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
        assert!(!m.check_thread_spawn(), "the scheduler subsystem owns thread creation");
        assert!(m.check_panic_discipline(), "the batch machinery lives here");
        let m = FileMeta::classify("crates/engine", "crates/engine/src/sched/cost.rs".into());
        assert!(!m.check_thread_spawn() && m.check_panic_discipline());
        // A flat file merely *named* sched is not the subsystem.
        let m = FileMeta::classify("crates/engine", "crates/engine/src/sched.rs".into());
        assert!(m.check_thread_spawn(), "the prefix carve-out must not match sched.rs");

        let m = FileMeta::classify("crates/engine", "crates/engine/src/bin/gradpim-cli.rs".into());
        assert_eq!(m.kind, FileKind::Bin);
        assert!(m.is_crate_root);
        assert!(!m.check_print_macro(), "CLI stdout is its interface");
        assert!(!m.check_process_exit(), "CLI owns the exit-code contract");
        assert!(m.check_panic_discipline(), "the CLI owns the exit-code contract");

        let m = FileMeta::classify("vendor/criterion", "vendor/criterion/src/lib.rs".into());
        assert_eq!(m.role, Role::Vendor);
        assert!(!m.check_print_macro());
        assert!(m.check_forbid_unsafe());

        let m = FileMeta::classify("crates/bench", "crates/bench/src/lib.rs".into());
        assert_eq!(m.role, Role::BenchHarness);
        assert!(!m.check_print_macro(), "bench stdout is the figure table");
        assert!(m.check_hash_collection());

        let m = FileMeta::classify("crates/dram", "crates/dram/src/stats.rs".into());
        assert!(m.check_hash_collection() && m.check_float_accum() && m.check_print_macro());
        assert!(!m.check_forbid_unsafe());

        let m = FileMeta::classify("crates/engine", "crates/engine/src/lib.rs".into());
        assert!(m.check_forbid_unsafe(), "no crate root is excused");

        let m = FileMeta::classify("crates/engine", "crates/engine/tests/cli.rs".into());
        assert_eq!(m.kind, FileKind::Test);
        assert!(m.check_hash_collection(), "tests are covered since the role extension");
        assert!(m.check_env_discipline(), "tests read knobs through env modules too");
        assert!(!m.check_panic_discipline() && !m.check_float_accum());

        let m = FileMeta::classify("crates/sim", "crates/sim/src/env.rs".into());
        assert!(!m.check_env_discipline(), "the designated env module reads the environment");
        assert!(m.is_env_module());
        let m = FileMeta::classify("crates/sim", "crates/sim/src/config.rs".into());
        assert!(m.check_env_discipline());

        let m = FileMeta::classify("crates/engine", "crates/engine/src/report.rs".into());
        assert!(m.panic_reach_root(), "report emission is a protocol root");
        assert!(!m.check_panic_discipline());

        let m = FileMeta::classify("crates/engine", "crates/engine/src/cache.rs".into());
        assert!(m.check_panic_discipline(), "the result store sits on the run hot path");
        assert!(m.panic_reach_root(), "panic-discipline files are panic-reach roots");
        assert!(panic_reach_absorbed("gradpim_engine::serialize::ExperimentSpec::run"));
        assert!(!panic_reach_absorbed("gradpim_engine::serialize::ExperimentSpec::runner"));
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
