//! The `gradpim-cli` exit-code contract: `1` for runtime failures, `2` for
//! usage errors — including removed spellings (process sharding, `check
//! cache`), which must fail loudly instead of being silently ignored.

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

#[test]
fn check_cache_is_an_unknown_target() {
    // `cache verify --cache DIR` is the one way to verify a store.
    let out = run_cli(&["check", "cache", "somewhere"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("unknown check target `cache`"), "{}", stderr_of(&out));
}

#[test]
fn cache_subcommands_never_create_the_store() {
    let dir = std::env::temp_dir().join(format!("gradpim-cli-no-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let path = dir.to_str().expect("utf-8 temp path");
    for sub in ["stats", "clear", "verify"] {
        let out = run_cli(&["cache", sub, "--cache", path]);
        assert_eq!(out.status.code(), Some(1), "cache {sub}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains(path), "cache {sub}: {}", stderr_of(&out));
        assert!(!dir.exists(), "cache {sub} created {path}");
    }
}
