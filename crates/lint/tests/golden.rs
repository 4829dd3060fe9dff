//! The seeded fixture (`src/fixture.rs`) against the audit: every rule has
//! a seeded sanction, and the workspace walk leaves the fixture out.

use std::path::Path;

use gradpim_lint::config::{self, FileMeta, FIXTURE};
use gradpim_lint::rules::{self, FileCtx, RULES};
use gradpim_lint::{check_source, check_workspace};

fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn fixture() -> String {
    std::fs::read_to_string(root().join(FIXTURE)).expect("the fixture reads")
}

#[test]
fn every_rule_fires_in_the_seeded_fixture_workspace() {
    let src = fixture();
    let ctx = FileCtx::new(&src);
    let seeded = rules::sanctions(&ctx);
    for rule in RULES {
        assert!(seeded.iter().any(|(_, r)| *r == rule.name), "no seed for {}", rule.name);
    }
    // Each seed cites the rule it is attributed to.
    for e in gradpim_lint::allow::collect(&ctx) {
        let reason = e.attr.reason.as_deref().unwrap_or("");
        let rule = reason.strip_prefix("seeded: ").unwrap_or("");
        let on_line: Vec<&str> =
            seeded.iter().filter(|(l, _)| *l == e.attr.line).map(|(_, r)| *r).collect();
        assert!(on_line.contains(&rule), "line {}: {reason} vs {on_line:?}", e.attr.line);
    }
    // Audited as ordinary library code, every seed of a rule that library
    // code may not sanction is out of place.
    let meta = FileMeta::classify("crates/lint", FIXTURE.into());
    let d = check_source(&meta, &src);
    for rule in RULES.iter().filter(|r| !r.allows(&meta, false)) {
        assert!(d.iter().any(|f| f.rule == rule.name), "{} not reported: {d:?}", rule.name);
    }
}

#[test]
fn fixture_tree_is_invisible_to_the_real_workspace_walk() {
    let files = config::workspace_files(root()).expect("files");
    assert!(files.iter().all(|m| m.rel != FIXTURE));
    assert!(
        files.iter().any(|m| m.rel == "crates/lint/src/lib.rs"),
        "the rest of the crate is audited"
    );
    assert!(check_workspace(root()).expect("workspace reads").is_empty());
}
