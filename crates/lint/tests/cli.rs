//! The binary's contract, end to end: exit codes (0 clean / 1 errors /
//! 2 usage), `file:line` diagnostics on stdout, the JSON artifact path CI
//! uses, and the rule listing.

use std::path::Path;
use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gradpim-lint")).args(args).output().expect("binary runs")
}

fn fixture() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad").display().to_string()
}

fn repo_root() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").display().to_string()
}

#[test]
fn clean_workspace_exits_zero() {
    let out = run(&["check", "--root", &repo_root()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
    assert!(stdout.contains("0 errors"), "{stdout}");
}

#[test]
fn seeded_violations_exit_nonzero_with_file_line_diagnostics() {
    let out = run(&["check", "--root", &fixture()]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "error: crates/engine/src/cache.rs:6:",
        "[panic-discipline]",
        "error: crates/npu/src/lib.rs:5:",
        "[print-macro]",
        "error: crates/sim/src/sweeps.rs:9:",
        "[schema-sync]",
    ] {
        assert!(stdout.contains(needle), "missing {needle:?} in:\n{stdout}");
    }
}

#[test]
fn json_report_is_written_to_the_artifact_path() {
    let path = std::env::temp_dir().join(format!("gradpim-lint-cli-{}.json", std::process::id()));
    let out = run(&[
        "check",
        "--json",
        "-o",
        path.to_str().expect("utf8 temp path"),
        "--root",
        &fixture(),
    ]);
    assert_eq!(out.status.code(), Some(1), "errors still drive the exit code");
    let json = std::fs::read_to_string(&path).expect("artifact written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"tool\": \"gradpim-lint\""), "{json}");
    assert!(json.contains("\"rule\": \"panic-discipline\""), "{json}");
    assert!(out.stdout.is_empty(), "report goes to the file, not stdout");
}

#[test]
fn strict_promotes_stale_allows_to_errors() {
    let stale =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/stale").display().to_string();
    // Lax: the stale allow is a warning, exit 0.
    let lax = run(&["check", "--root", &stale]);
    let lax_out = String::from_utf8_lossy(&lax.stdout);
    assert!(lax.status.success(), "stdout:\n{lax_out}");
    assert!(lax_out.contains("warning:") && lax_out.contains("[unused-allow]"), "{lax_out}");
    // Strict: the same finding is an error and drives the exit code.
    let strict = run(&["check", "--strict", "--root", &stale]);
    assert_eq!(strict.status.code(), Some(1));
    let strict_out = String::from_utf8_lossy(&strict.stdout);
    assert!(strict_out.contains("error:") && strict_out.contains("[unused-allow]"), "{strict_out}");
}

#[test]
fn strict_passes_on_the_real_workspace() {
    // The CI gate runs with --strict: the repo must hold zero findings of
    // any severity, stale allows included.
    let out = run(&["check", "--strict", "--root", &repo_root()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "stdout:\n{stdout}");
}

#[test]
fn graph_json_round_trips_through_the_json_parser() {
    let out = run(&["graph", "--json", "--root", &fixture()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let v = gradpim_lint::json::parse(&text).expect("graph --json output parses");
    assert_eq!(v.get("tool").and_then(|t| t.as_str()), Some("gradpim-lint"));
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("graph"));
    // The dump knows the seeded panic-reach chain's functions…
    let fns = v.get("fns").and_then(|f| f.as_arr()).expect("fns array");
    let qnames: Vec<&str> =
        fns.iter().filter_map(|f| f.get("qname").and_then(|n| n.as_str())).collect();
    for q in
        ["engine::report::emit_rows", "engine::util::render_cell", "engine::util::parse_or_die"]
    {
        assert!(qnames.contains(&q), "missing {q} in {qnames:?}");
    }
    // …and its panic site, keyed by the fn's id in the same dump.
    let die_id = fns
        .iter()
        .find(|f| f.get("qname").and_then(|n| n.as_str()) == Some("engine::util::parse_or_die"))
        .and_then(|f| f.get("id"))
        .and_then(|i| i.as_u64())
        .expect("parse_or_die has an id");
    let sites = v.get("panic_sites").and_then(|s| s.as_arr()).expect("panic_sites array");
    assert!(sites.iter().any(|s| s.get("fn").and_then(|i| i.as_u64()) == Some(die_id)), "{text}");
}

#[test]
fn graph_human_summary_goes_to_the_artifact_path() {
    let path = std::env::temp_dir().join(format!("gradpim-lint-graph-{}.txt", std::process::id()));
    let out = run(&["graph", "-o", path.to_str().expect("utf8 temp path"), "--root", &fixture()]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("artifact written");
    std::fs::remove_file(&path).ok();
    assert!(text.contains("engine"), "{text}");
    assert!(out.stdout.is_empty(), "summary goes to the file, not stdout");
}

#[test]
fn rules_subcommand_lists_every_rule() {
    let out = run(&["rules"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for (name, _) in gradpim_lint::rules::RULES {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn usage_errors_exit_two() {
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["check", "--no-such-flag"]).status.code(), Some(2));
    assert_eq!(run(&[]).status.code(), Some(2));
}
