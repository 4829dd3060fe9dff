//! Enablement: the lines that switch each rule's lint on.
//!
//! An `#[expect]` enables its lint where it sits, so the fixture proves
//! that a lint detects its pattern, not that the workspace enables it.
//! These checks read the enabling lines: the root `Cargo.toml`'s
//! `[workspace.lints]` and `clippy.toml`, each member's `[lints]` opt-in,
//! and the crate-root denies.

use super::{FileCtx, Finding};
use crate::allow;
use crate::config::FileMeta;

/// What every library crate root denies: stdout is the report pipe.
pub const PRINT_DENY: &[&str] = &["clippy::print_stdout", "clippy::print_stderr"];

/// What the engine's crate roots deny: a panic there replaces a
/// diagnosed exit code or a propagated error with an abort.
pub const PANIC_DENY: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::indexing_slicing",
    "clippy::unreachable",
    "clippy::unimplemented",
];

/// The crate roots under [`PANIC_DENY`].
pub const PANIC_ROOTS: &[&str] =
    &["crates/engine/src/lib.rs", "crates/engine/src/bin/gradpim-cli.rs"];

/// The workspace lint levels and the rule each one enforces.
const WORKSPACE_LEVELS: &[(&str, &str, &str, &str)] = &[
    ("workspace.lints.rust", "unsafe_code", "\"forbid\"", "forbid-unsafe"),
    ("workspace.lints.clippy", "exit", "\"deny\"", "process-exit"),
    ("workspace.lints.clippy", "allow_attributes", "\"deny\"", "allow-syntax"),
    ("workspace.lints.clippy", "allow_attributes_without_reason", "\"deny\"", "allow-syntax"),
    ("workspace.lints.clippy", "disallowed_methods", "\"deny\"", "thread-spawn"),
    ("workspace.lints.clippy", "disallowed_types", "\"deny\"", "hash-collection"),
];

/// The `clippy.toml` paths and the rule each one enforces.
const DISALLOWED_PATHS: &[(&str, &str)] = &[
    ("std::collections::HashMap", "hash-collection"),
    ("std::collections::HashSet", "hash-collection"),
    ("std::thread::spawn", "thread-spawn"),
    ("std::thread::scope", "thread-spawn"),
    ("std::thread::Builder::spawn", "thread-spawn"),
    ("std::thread::Builder::spawn_scoped", "thread-spawn"),
    ("std::env::var", "env-discipline"),
    ("std::env::var_os", "env-discipline"),
    ("std::io::stdout", "obs-protocol"),
];

/// The `key = value` entries of one `[table]` of a TOML document, comments
/// stripped. Enough for the flat tables lint levels live in.
fn table<'t>(toml: &'t str, name: &str) -> Vec<(&'t str, &'t str)> {
    let header = format!("[{name}]");
    let mut inside = false;
    let mut out = Vec::new();
    for line in toml.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == header;
        } else if let Some((k, v)) = line.split_once('=').filter(|_| inside) {
            out.push((k.trim(), v.trim()));
        }
    }
    out
}

/// A library crate root must deny printing; an engine crate root must deny
/// the panic family. Only real `#![deny(...)]` attributes count.
pub fn crate_root(ctx: &FileCtx<'_>, meta: &FileMeta, out: &mut Vec<Finding>) {
    if !meta.is_crate_root {
        return;
    }
    let denied: Vec<String> = allow::attrs(ctx)
        .into_iter()
        .filter(|a| a.inner && matches!(a.name.as_str(), "deny" | "forbid"))
        .flat_map(|a| a.lints)
        .collect();
    let mut require = |lints: &[&str], rule| {
        let missing: Vec<&&str> =
            lints.iter().filter(|l| !denied.iter().any(|d| d == *l)).collect();
        if !missing.is_empty() {
            let message = format!("crate root must `#![deny(...)]` {missing:?}");
            out.push(Finding { file: meta.rel.clone(), line: 1, rule, message });
        }
    };
    if meta.is_library_code() {
        require(PRINT_DENY, "print-macro");
    }
    if PANIC_ROOTS.contains(&meta.rel.as_str()) {
        require(PANIC_DENY, "panic-discipline");
    }
}

/// A member manifest (`rel`) must opt into the workspace lints, which
/// forbid `unsafe` code, and must not fork their levels.
pub fn manifest(rel: &str, toml: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut finding = |message: String| {
        out.push(Finding { file: rel.to_string(), line: 0, rule: "forbid-unsafe", message });
    };
    if !table(toml, "lints").contains(&("workspace", "true")) {
        finding("no `[lints] workspace = true`: the workspace lints, `unsafe_code = \"forbid\"` among them, do not reach this crate".into());
    }
    for line in toml.lines().map(str::trim).filter(|l| l.starts_with("[lints.")) {
        finding(format!(
            "`{line}` forks the workspace lint levels; change them in the root manifest"
        ));
    }
    out
}

/// The root manifest must set every workspace lint level, and `clippy.toml`
/// must disallow every path the rules name.
pub fn root_config(cargo: &str, clippy: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(tbl, key, level, rule) in WORKSPACE_LEVELS {
        if !table(cargo, tbl).contains(&(key, level)) {
            let message = format!("Cargo.toml must set `[{tbl}] {key} = {level}`");
            out.push(Finding { file: "Cargo.toml".into(), line: 0, rule, message });
        }
    }
    let listed: Vec<&str> = clippy.lines().map(|l| l.split('#').next().unwrap_or("")).collect();
    for &(path, rule) in DISALLOWED_PATHS {
        let entry = format!("path = \"{path}\"");
        if !listed.iter().any(|l| l.contains(&entry)) {
            let message = format!("clippy.toml must disallow `{path}`");
            out.push(Finding { file: "clippy.toml".into(), line: 0, rule, message });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{check, FileCtx, Finding, RULES};
    use super::*;

    fn lib_meta() -> FileMeta {
        FileMeta::classify("crates/dram", "crates/dram/src/stats.rs".into())
    }

    fn cache_meta() -> FileMeta {
        FileMeta::classify("crates/engine", "crates/engine/src/cache.rs".into())
    }

    fn cli_meta() -> FileMeta {
        FileMeta::classify("crates/engine", "crates/engine/src/bin/gradpim-cli.rs".into())
    }

    fn run(src: &str, meta: &FileMeta) -> Vec<Finding> {
        check(&FileCtx::new(src), meta)
    }

    fn count(d: &[Finding], rule: &str) -> usize {
        d.iter().filter(|f| f.rule == rule).count()
    }

    fn read(rel: &str) -> String {
        let path = format!("{}/../../{rel}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn hash_map_in_lib_code_is_flagged() {
        let (cargo, clippy) = (read("Cargo.toml"), read("clippy.toml"));
        assert!(root_config(&cargo, &clippy).is_empty());
        let without = clippy.replace("path = \"std::collections::HashMap\"", "");
        let d = root_config(&cargo, &without);
        assert_eq!(count(&d, "hash-collection"), 1, "{d:?}");
        // A sanction of it in library code is out of scope.
        let src = "#[expect(clippy::disallowed_types, reason = \"x\")]\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let d = run(src, &lib_meta());
        assert_eq!(count(&d, "hash-collection"), 1, "{d:?}");
        assert!(d[0].message.contains("BTreeMap"), "{}", d[0].message);
    }

    #[test]
    fn println_in_lib_is_flagged_strings_are_not() {
        let root = FileMeta::classify("crates/dram", "crates/dram/src/lib.rs".into());
        let deny = "#![deny(clippy::print_stdout, clippy::print_stderr)]\n";
        assert!(run(deny, &root).is_empty());
        // The deny in a string or a comment switches nothing on.
        let d = run(
            "//! #![deny(clippy::print_stdout, clippy::print_stderr)]\npub mod stats;\n",
            &root,
        );
        assert_eq!(count(&d, "print-macro"), 1, "{d:?}");
        let d = run(
            "const S: &str = \"#![deny(clippy::print_stdout, clippy::print_stderr)]\";\n",
            &root,
        );
        assert_eq!(count(&d, "print-macro"), 1, "{d:?}");
        // A sanctioned `println!` in library code is out of scope; the same
        // text in a string is no sanction at all.
        let src = "#[expect(clippy::print_stdout, reason = \"x\")]\nfn f() { println!(\"x\"); }";
        assert_eq!(count(&run(src, &lib_meta()), "print-macro"), 1);
        let src = "fn f() -> &'static str { \"#[expect(clippy::print_stdout)] println!\" }";
        assert!(run(src, &lib_meta()).is_empty());
        // Binaries print.
        let src = "#[expect(clippy::print_stdout, reason = \"x\")]\nfn f() { println!(\"x\"); }";
        assert_eq!(count(&run(src, &cli_meta()), "print-macro"), 0);
    }

    #[test]
    fn stdout_handle_in_lib_is_flagged_command_builder_is_not() {
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { let mut out = std::io::stdout(); }";
        assert_eq!(count(&run(src, &lib_meta()), "obs-protocol"), 1);
        // `.stdout(Stdio::piped())` is the Command builder, not the pipe.
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f(c: &mut Command) { c.stdout(Stdio::piped()); }";
        assert_eq!(count(&run(src, &lib_meta()), "obs-protocol"), 0);
        // CLIs own stdout.
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { let mut out = std::io::stdout(); }";
        let d = run(src, &cli_meta());
        assert!(count(&d, "obs-protocol") + count(&d, "unused-allow") == 0, "{d:?}");
    }

    #[test]
    fn process_exit_is_flagged_outside_cli() {
        let src = "#[expect(clippy::exit, reason = \"x\")]\nfn f() { std::process::exit(1); }";
        assert_eq!(count(&run(src, &lib_meta()), "process-exit"), 1);
        assert_eq!(count(&run(src, &cli_meta()), "process-exit"), 0);
        let cargo = read("Cargo.toml").replace("\nexit = \"deny\"", "\nexit = \"warn\"");
        let d = root_config(&cargo, &read("clippy.toml"));
        assert_eq!(count(&d, "process-exit"), 1, "{d:?}");
    }

    #[test]
    fn thread_spawn_flagged_except_in_the_scheduler() {
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { std::thread::spawn(|| {}); }";
        assert_eq!(count(&run(src, &lib_meta()), "thread-spawn"), 1);
        // Other engine files are no exception.
        assert_eq!(count(&run(src, &cache_meta()), "thread-spawn"), 1);
        let sched = FileMeta::classify("crates/engine", "crates/engine/src/sched/mod.rs".into());
        assert!(run(src, &sched).is_empty());
        // A flat file merely *named* sched is not the subsystem.
        let flat = FileMeta::classify("crates/engine", "crates/engine/src/sched.rs".into());
        assert_eq!(count(&run(src, &flat), "thread-spawn"), 1);
        // Builders and scopes are threads too.
        let src = "#[expect(clippy::disallowed_methods, reason = \"x\")]\nfn f() { thread::Builder::new().spawn(|| {}); }";
        assert_eq!(count(&run(src, &lib_meta()), "thread-spawn"), 1);
    }

    #[test]
    fn panic_discipline_catches_unwrap_and_indexing() {
        let engine = FileMeta::classify("crates/engine", "crates/engine/src/lib.rs".into());
        let print = "#![deny(clippy::print_stdout, clippy::print_stderr)]\n";
        let d = run(print, &engine);
        assert_eq!(count(&d, "panic-discipline"), 1, "{d:?}");
        let panics = "#![deny(\n clippy::unwrap_used,\n clippy::expect_used,\n clippy::panic,\n clippy::indexing_slicing,\n clippy::unreachable,\n clippy::unimplemented\n)]\n";
        assert!(run(&format!("{print}{panics}"), &engine).is_empty());
        // Dropping one lint from the deny is caught.
        let partial = panics.replace(" clippy::indexing_slicing,\n", "");
        let d = run(&format!("{print}{partial}"), &engine);
        assert!(d.len() == 1 && d[0].message.contains("indexing_slicing"), "{d:?}");
        // The CLI too; other crates are not under the panic deny.
        assert_eq!(count(&run("", &cli_meta()), "panic-discipline"), 1);
        let dram = FileMeta::classify("crates/dram", "crates/dram/src/lib.rs".into());
        assert_eq!(count(&run(print, &dram), "panic-discipline"), 0);
        // A justified site-local sanction is fine anywhere.
        let src = "#[expect(clippy::unwrap_used, reason = \"x\")]\nfn f(v: Option<u32>) -> u32 { v.unwrap() }";
        assert!(run(src, &cache_meta()).is_empty());
    }

    #[test]
    fn forbid_unsafe_missing_on_crate_root() {
        let ok = "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n";
        assert!(manifest("crates/x/Cargo.toml", ok).is_empty());
        let d = manifest("crates/x/Cargo.toml", "[package]\nname = \"x\"\n");
        assert_eq!(count(&d, "forbid-unsafe"), 1, "{d:?}");
        let d = manifest("crates/x/Cargo.toml", "[lints]\nworkspace = false\n");
        assert_eq!(count(&d, "forbid-unsafe"), 1, "{d:?}");
    }

    #[test]
    fn engine_root_requires_forbid_not_deny() {
        // The workspace forbids unsafe code outright, and the engine takes
        // the workspace levels unchanged.
        let cargo = read("Cargo.toml");
        let deny = cargo.replace("unsafe_code = \"forbid\"", "unsafe_code = \"deny\"");
        let d = root_config(&deny, &read("clippy.toml"));
        assert_eq!(count(&d, "forbid-unsafe"), 1, "{d:?}");
        let engine = read("crates/engine/Cargo.toml");
        assert!(manifest("crates/engine/Cargo.toml", &engine).is_empty());
        let forked = format!("{engine}\n[lints.clippy]\nunwrap_used = \"deny\"\n");
        assert_eq!(count(&manifest("crates/engine/Cargo.toml", &forked), "forbid-unsafe"), 1);
        assert!(
            RULES.iter().all(|r| r.name != "forbid-unsafe"),
            "no `#[expect]` overrides a forbid"
        );
    }
}
