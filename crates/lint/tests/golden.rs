//! Golden-output tests (exact human and JSON renderings, including the
//! allow escape hatch) and the seeded-violation fixture workspace: one
//! known-bad mini-workspace under `tests/fixtures/bad/` where every rule
//! fires at a known `file:line`.

use std::path::{Path, PathBuf};

use gradpim_lint::config::FileMeta;
use gradpim_lint::diag::{self, Severity};
use gradpim_lint::{check_source, check_workspace};

/// A source with one real violation, one allow doing its job, and one
/// stale allow — exercising all three report shapes at once.
const GOLDEN_SRC: &str = "\
use std::collections::HashMap;
fn emit() { println!(\"x\"); } // gradpim-lint: allow(print-macro): golden demo
// gradpim-lint: allow(float-accum): stale suppression kept for the golden
fn noop() {}
";

const HASH_MSG: &str = "`HashMap` iteration order is nondeterministic and this workspace's \
                        reports/stats must be byte-identical across runs — use `BTreeMap` \
                        (or sort before emission and justify with an allow)";

fn golden_diags() -> Vec<gradpim_lint::diag::Diagnostic> {
    let meta = FileMeta::classify("crates/dram", "crates/dram/src/storage.rs".into());
    let mut diags = check_source(&meta, GOLDEN_SRC);
    diag::sort(&mut diags);
    diags
}

#[test]
fn golden_human_rendering() {
    let expected = format!(
        "error: crates/dram/src/storage.rs:1:23: [hash-collection] {HASH_MSG}\n\
         warning: crates/dram/src/storage.rs:3:1: [unused-allow] allow(float-accum) \
         suppresses nothing on line 4 — remove it\n\
         gradpim-lint: 1 files checked, 1 error, 1 warning\n"
    );
    assert_eq!(diag::render_human(&golden_diags(), 1), expected);
}

#[test]
fn golden_json_rendering() {
    let expected = format!(
        "{{\n  \"tool\": \"gradpim-lint\",\n  \"version\": 2,\n  \"files_checked\": 1,\n  \
         \"errors\": 1,\n  \"warnings\": 1,\n  \"diagnostics\": [\n    \
         {{\"rule\": \"hash-collection\", \"severity\": \"error\", \
         \"file\": \"crates/dram/src/storage.rs\", \"line\": 1, \"col\": 23, \
         \"message\": \"{HASH_MSG}\"}},\n    \
         {{\"rule\": \"unused-allow\", \"severity\": \"warning\", \
         \"file\": \"crates/dram/src/storage.rs\", \"line\": 3, \"col\": 1, \
         \"message\": \"allow(float-accum) suppresses nothing on line 4 — remove it\"}}\n  \
         ]\n}}\n"
    );
    assert_eq!(diag::render_json(&golden_diags(), 1), expected);
}

#[test]
fn allow_escape_hatch_suppresses_exactly_its_rule_and_line() {
    // The golden source's println! is allowed; the same line without the
    // allow must report.
    let meta = FileMeta::classify("crates/dram", "crates/dram/src/storage.rs".into());
    let diags = check_source(&meta, "fn emit() { println!(\"x\"); }\n");
    assert!(diags.iter().any(|d| d.rule == "print-macro"), "{diags:?}");
    let golden = golden_diags();
    assert!(golden.iter().all(|d| d.rule != "print-macro"), "{golden:?}");
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/bad")
}

#[test]
fn every_rule_fires_in_the_seeded_fixture_workspace() {
    let report = check_workspace(&fixture_root(), &[]).expect("fixture workspace lints");
    // (rule, file, line) for every seeded violation.
    let expected: &[(&str, &str, usize)] = &[
        ("forbid-unsafe", "crates/dram/src/lib.rs", 4),
        ("hash-collection", "crates/dram/src/lib.rs", 4),
        ("hash-collection", "crates/dram/src/lib.rs", 6),
        ("float-accum", "crates/dram/src/lib.rs", 17),
        // stats.rs seeds the float-taint source→sink chain; the blunt
        // hash-collection and float-accum rules fire on the same tokens.
        ("hash-collection", "crates/dram/src/stats.rs", 5),
        ("hash-collection", "crates/dram/src/stats.rs", 7),
        ("float-accum", "crates/dram/src/stats.rs", 10),
        ("float-taint", "crates/dram/src/stats.rs", 10),
        ("env-discipline", "crates/sim/src/config.rs", 5),
        // The reachable unwrap sits two calls below the report.rs root;
        // the chain itself is pinned frame by frame in its own test.
        ("panic-reach", "crates/engine/src/util.rs", 9),
        ("panic-discipline", "crates/engine/src/cache.rs", 6),
        // Spawning outside the `sched/` subsystem is a violation, even in
        // a panic-scoped engine file.
        ("thread-spawn", "crates/engine/src/cache.rs", 10),
        // A flat `sched.rs` is NOT the `sched/` subsystem: the directory
        // carve-out must not leak onto merely-similar names.
        ("thread-spawn", "crates/engine/src/sched.rs", 5),
        ("process-exit", "crates/engine/src/sched.rs", 9),
        ("schema-sync", "crates/sim/src/sweeps.rs", 9),
        ("allow-syntax", "crates/sim/src/sweeps.rs", 18),
        ("forbid-unsafe", "crates/npu/src/lib.rs", 5),
        ("print-macro", "crates/npu/src/lib.rs", 6),
        ("obs-protocol", "crates/npu/src/lib.rs", 13),
    ];
    for &(rule, file, line) in expected {
        assert!(
            report.diags.iter().any(|d| d.rule == rule && d.file == file && d.line == line),
            "missing {rule} at {file}:{line} in {:#?}",
            report.diags
        );
    }
    // cache.rs line 6 seeds two panic-discipline hits: the indexing and the
    // unwrap.
    let cache_hits = report
        .diags
        .iter()
        .filter(|d| d.rule == "panic-discipline" && d.file == "crates/engine/src/cache.rs")
        .count();
    assert_eq!(cache_hits, 2, "{:#?}", report.diags);
    // The stale allow in npu is a warning, not an error.
    let unused: Vec<_> = report.diags.iter().filter(|d| d.rule == "unused-allow").collect();
    assert_eq!(unused.len(), 1, "{unused:?}");
    assert_eq!(unused[0].severity, Severity::Warning);
    // The seeded `thread::Builder` under `crates/engine/src/sched/` is the
    // sanctioned spawn site: nothing may fire there.
    assert!(
        report.diags.iter().all(|d| !d.file.starts_with("crates/engine/src/sched/")),
        "{:#?}",
        report.diags
    );
    // And nothing else: the error count is exactly the seeded set.
    assert_eq!(report.errors(), 20, "{:#?}", report.diags);
}

#[test]
fn panic_reach_chain_is_pinned_frame_by_frame() {
    let report = check_workspace(&fixture_root(), &[]).expect("fixture workspace lints");
    let d =
        report.diags.iter().find(|d| d.rule == "panic-reach").expect("seeded panic-reach finding");
    assert_eq!((d.file.as_str(), d.line), ("crates/engine/src/util.rs", 9));
    // Root-first: frame 0 anchors the root at its definition, each later
    // frame anchors the callee at the call site in its caller's file.
    let frames: Vec<(&str, &str, usize)> =
        d.chain.iter().map(|f| (f.name.as_str(), f.file.as_str(), f.line)).collect();
    assert_eq!(
        frames,
        [
            ("engine::report::emit_rows", "crates/engine/src/report.rs", 7),
            ("engine::util::render_cell", "crates/engine/src/report.rs", 8),
            ("engine::util::parse_or_die", "crates/engine/src/util.rs", 5),
        ],
        "{:#?}",
        d.chain
    );
    // And the human rendering carries the chain, indented under the line.
    let human = d.to_string();
    assert!(
        human.contains("\n    #0 engine::report::emit_rows (crates/engine/src/report.rs:7)"),
        "{human}"
    );
    assert!(
        human.contains("\n    #2 engine::util::parse_or_die (crates/engine/src/util.rs:5)"),
        "{human}"
    );
}

#[test]
fn fixture_tree_is_invisible_to_the_real_workspace_walk() {
    // The seeded violations must never leak into the repo's own gate.
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = check_workspace(&repo_root, &["crates/lint".into()]).expect("lint crate lints");
    assert!(report.diags.iter().all(|d| !d.file.contains("fixtures")), "{:#?}", report.diags);
}
