//! The `gradpim-cli` exit-code contract: `1` for runtime failures, `2` for
//! usage errors — including the removed process-sharding spellings, which
//! must fail loudly instead of being silently ignored.

// Integration tests build without cfg(test), so the crate-root carve-out
// for the manifest's unwrap_used/expect_used warns is restated here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::process::{Command, Output};

/// The binary under test, built by cargo for this test run.
const CLI: &str = env!("CARGO_BIN_EXE_gradpim-cli");

fn run_cli(args: &[&str]) -> Output {
    Command::new(CLI).args(args).env_remove("GRADPIM_CACHE").output().expect("run gradpim-cli")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn runtime_errors_still_exit_1() {
    // An unrunnable spec fails before any simulation: exit 1, not the
    // usage code.
    let out = run_cli(&["fig12b", "--nets", "NotANet"]);
    assert_eq!(out.status.code(), Some(1), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown network"), "{}", stderr_of(&out));
}

#[test]
fn removed_sharding_spellings_are_unknown_arguments() {
    for (args, named) in [
        (&["fig12b", "--shards", "2"][..], "`--shards`"),
        (&["fig12b", "--shard-retries", "1"][..], "`--shard-retries`"),
        (&["shard-worker", "-"][..], "`shard-worker`"),
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
        let err = stderr_of(&out);
        assert!(err.starts_with("unknown ") && err.contains(named), "{args:?}: {err}");
    }
}
