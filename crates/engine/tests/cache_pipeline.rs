//! End-to-end tests of the result cache: warm reruns byte-identical to
//! cold ones (as a property over arbitrary specs and overlapping network
//! subsets), partial overlaps simulating only the uncached row groups'
//! distinct phase calls, and a real `gradpim-cli` rerun over a store it
//! filled serving the same bytes.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Arc, Mutex};

use gradpim_engine::cache::{CacheBackend, CacheStats, MemCache};
use gradpim_engine::report::to_json;
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::Engine;
use gradpim_sim::sweeps::{OpsBandwidth, SweepFamily};
use gradpim_workloads::{models, Network};
use proptest::prelude::*;

/// The binary under test, built by cargo for this test run.
const CLI: &str = env!("CARGO_BIN_EXE_gradpim-cli");

/// Doc-sized caps so every process in these tests simulates quickly.
const QUICK: gradpim_sim::sweeps::QuickCaps = Some((1500, 20_000));

fn fig12b_spec() -> ExperimentSpec {
    ExperimentSpec::new(Experiment::Fig12b, QUICK, Some(vec!["MLP1".into()]))
}

/// A unique scratch path for this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gradpim-cache-test-{}-{name}", std::process::id()))
}

/// Runs the CLI with ambient `GRADPIM_CACHE` scrubbed: these tests pass
/// the store explicitly via `--cache`, so a developer's environment must
/// not leak into the assertions.
fn run_cli(args: &[&str]) -> Output {
    Command::new(CLI).args(args).env_remove("GRADPIM_CACHE").output().expect("run gradpim-cli")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn mem_store() -> Arc<dyn CacheBackend> {
    Arc::new(MemCache::new())
}

/// A [`MemCache`] that records every lookup (`get`) with whether it hit,
/// so a test can see which cache level served a run and which keys it
/// asked for. `contains` is a probe, not a lookup, and is not recorded.
#[derive(Debug, Default)]
struct CountingStore {
    inner: MemCache,
    lookups: Mutex<Vec<(String, bool)>>,
}

impl CountingStore {
    /// Takes the lookups recorded so far, in order.
    fn take(&self) -> Vec<(String, bool)> {
        std::mem::take(&mut *self.lookups.lock().unwrap())
    }
}

impl CacheBackend for CountingStore {
    fn get(&self, key: &str) -> Option<String> {
        let value = self.inner.get(key);
        self.lookups.lock().unwrap().push((key.to_string(), value.is_some()));
        value
    }
    fn put(&self, key: &str, value: &str) {
        self.inner.put(key, value);
    }
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }
    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
    fn clear(&self) -> usize {
        self.inner.clear()
    }
    fn verify(&self) -> Vec<String> {
        self.inner.verify()
    }
}

/// The keys of `lookups` under `prefix` that hit and that missed, sorted.
fn split_lookups(lookups: &[(String, bool)], prefix: &str) -> (Vec<String>, Vec<String>) {
    let (mut hits, mut misses) = (Vec::new(), Vec::new());
    for (key, hit) in lookups.iter().filter(|(key, _)| key.starts_with(prefix)) {
        if *hit { &mut hits } else { &mut misses }.push(key.clone());
    }
    hits.sort();
    misses.sort();
    (hits, misses)
}

proptest! {
    // Each case runs a whole (capped) experiment several times — keep the
    // count modest; key derivation and store behavior are also covered
    // deterministically in the `cache` unit tests.
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn warm_reruns_are_byte_identical_across_overlapping_specs(
        exp in 0usize..Experiment::ALL.len(),
        overlap in 0usize..3,
        bursts in 256u64..1500,
        params in 4096usize..20_000,
    ) {
        let caps = Some((bursts, params));
        let second: Vec<String> = match overlap {
            0 => vec!["MLP1".into()],                    // full overlap
            1 => vec!["MLP1".into(), "ResNet18".into()], // partial overlap
            _ => vec!["ResNet18".into()],                // disjoint
        };
        let prime = ExperimentSpec::new(Experiment::ALL[exp], caps, Some(vec!["MLP1".into()]));
        let spec = ExperimentSpec::new(Experiment::ALL[exp], caps, Some(second));

        let cold = to_json(&spec.run(&Engine::sequential()).expect("cold run"));

        let store = mem_store();
        let cached = Engine::sequential().with_cache(store.clone());
        prime.run(&cached).expect("priming run");
        let warm = to_json(&spec.run(&cached).expect("warm run"));
        prop_assert_eq!(&warm, &cold, "warm run diverged from the cold run");
        prop_assert!(store.stats().entries > 0, "the priming run left the store empty");
    }
}

#[test]
fn partial_overlap_executes_only_uncached_groups() {
    let counting = Arc::new(CountingStore::default());
    let store: Arc<dyn CacheBackend> = counting.clone();
    let one = ExperimentSpec::new(Experiment::Fig12a, QUICK, Some(vec!["MLP1".into()]));
    let two = ExperimentSpec::new(
        Experiment::Fig12a,
        QUICK,
        Some(vec!["MLP1".into(), "ResNet18".into()]),
    );

    // A run looks each distinct phase call of its uncached groups up once
    // and schedules one job per distinct simulation of the missed calls:
    // here, the calls of one network's Fig. 12a points.
    let groups = |net: Network| OpsBandwidth::groups(&[net], QUICK).len();
    let distinct_keys = |net: Network| {
        let specs = OpsBandwidth::specs(&[net], QUICK);
        let calls = specs.iter().flat_map(OpsBandwidth::plan).filter(|c| c.simulates());
        calls.map(|c| c.key()).collect::<BTreeSet<_>>().into_iter().collect::<Vec<_>>()
    };
    let distinct_simulations = |net: Network| {
        let specs = OpsBandwidth::specs(&[net], QUICK);
        let simulations = specs.iter().flat_map(OpsBandwidth::plan).filter_map(|c| c.simulation());
        simulations.map(|s| s.key()).collect::<BTreeSet<_>>().len() as u64
    };

    // Two worker threads: the scheduler's inline path (sequential engines,
    // single-job batches) bypasses the jobs counter, and this test is
    // precisely about counting scheduled jobs.
    let priming = Engine::new(2).with_cache(store.clone());
    one.run(&priming).expect("priming run");
    let one_net_jobs = priming.sched_stats().jobs;
    assert!(one_net_jobs > 0, "the priming run scheduled no jobs");
    assert_eq!(one_net_jobs, distinct_simulations(models::mlp()));
    let lookups = counting.take();
    assert_eq!(split_lookups(&lookups, "group/").1.len(), groups(models::mlp()));
    assert_eq!(split_lookups(&lookups, "phase/"), (vec![], distinct_keys(models::mlp())));

    // A two-net run over a store already holding MLP1 must serve every
    // MLP1 group from the store, look each distinct call of the uncached
    // ResNet18 groups (and nothing else) up once, and run exactly their
    // distinct simulations.
    let partial = Engine::new(2).with_cache(store.clone());
    let report = two.run(&partial).expect("partially warm run");
    assert_eq!(
        partial.sched_stats().jobs,
        distinct_simulations(models::resnet18()),
        "a partially warm run re-executed cached groups"
    );
    let lookups = counting.take();
    let (group_hits, group_misses) = split_lookups(&lookups, "group/");
    assert_eq!(group_hits.len(), groups(models::mlp()), "MLP1's groups were not served");
    assert_eq!(group_misses.len(), groups(models::resnet18()));
    assert_eq!(
        split_lookups(&lookups, "phase/"),
        (vec![], distinct_keys(models::resnet18())),
        "a partially warm run looked up phase calls of cached groups"
    );

    // Now everything is cached: zero jobs, no phase lookup, same bytes.
    let warm = Engine::new(2).with_cache(store);
    let again = two.run(&warm).expect("fully warm run");
    assert_eq!(warm.sched_stats().jobs, 0, "a fully warm run scheduled jobs");
    let lookups = counting.take();
    assert_eq!(split_lookups(&lookups, "group/").0.len(), lookups.len(), "a group lookup missed");
    assert_eq!(lookups.len(), groups(models::mlp()) + groups(models::resnet18()));
    assert_eq!(to_json(&again), to_json(&report));
    assert_eq!(to_json(&report), to_json(&two.run(&Engine::sequential()).expect("uncached run")));
}

#[test]
fn warm_cli_rerun_is_byte_identical_to_the_cold_run() {
    let dir = scratch("store");
    let _ = std::fs::remove_dir_all(&dir);
    let spec_path = scratch("cache.spec.json");
    std::fs::write(&spec_path, fig12b_spec().to_json()).expect("write spec");
    let spec = spec_path.to_str().expect("utf-8 temp path");
    let cache = dir.to_str().expect("utf-8 temp path");
    let args = ["--run-spec", spec, "--cache", cache, "--format", "json"];

    let cold = run_cli(&args);
    assert!(cold.status.success(), "cold run failed: {}", stderr_of(&cold));
    let filled = std::fs::read_dir(&dir).expect("the cold run created the store").count();
    assert!(filled > 0, "the cold run left the store empty");

    // The warm rerun serves the same bytes and stores nothing new.
    let warm = run_cli(&args);
    assert!(warm.status.success(), "warm rerun failed: {}", stderr_of(&warm));
    assert_eq!(cold.stdout, warm.stdout, "warm rerun diverged from the cold run");
    assert_eq!(std::fs::read_dir(&dir).expect("store").count(), filled);

    // The store the runs built passes its own integrity gate.
    let out = run_cli(&["cache", "verify", "--cache", cache]);
    assert!(out.status.success(), "cache verify: {}", stderr_of(&out));

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&spec_path);
}

#[test]
fn check_aliases_match_and_cache_usage_errors_exit_2() {
    let report_path = scratch("alias.report.json");
    let report = fig12b_spec().run(&Engine::sequential()).expect("in-process run");
    std::fs::write(&report_path, to_json(&report)).expect("write report");
    let path = report_path.to_str().expect("utf-8 temp path");

    // `check {report,trace}` is the one spelling: the removed
    // `check-report` / `check-trace` aliases are unknown commands (exit 2).
    let new = run_cli(&["check", "report", path]);
    assert!(new.status.success(), "{}", stderr_of(&new));
    for old in ["check-report", "check-trace"] {
        let out = run_cli(&[old, path]);
        assert_eq!(out.status.code(), Some(2), "{old}: {}", stderr_of(&out));
    }

    // `cache …` without a resolvable store, unknown check targets, and
    // --cache on modes that cannot use it are usage errors, not runtime ones.
    for args in [
        &["cache", "stats"][..],
        &["check", "nonsense", path][..],
        &["check", "report"][..],
        &["cache", "shrink"][..],
        &["check", "report", path, "--cache", "somewhere"][..],
        &["fig12b", "--emit-spec", "-", "--cache", "somewhere"][..],
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr_of(&out));
    }

    let _ = std::fs::remove_file(&report_path);
}
