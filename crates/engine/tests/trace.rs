//! End-to-end observability tests: the export/parse round-trip as a
//! property over arbitrary span sets, the nesting invariant of
//! really-recorded spans, and the non-perturbation guarantee — reports
//! byte-identical with tracing on or off — both in-process and through
//! the real `gradpim-cli` on a threaded pool.

// Integration tests build without cfg(test), so the crate-root carve-out
// for the manifest's unwrap_used/expect_used warns is restated here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::{Mutex, MutexGuard};

use gradpim_engine::report::to_json;
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::trace;
use gradpim_engine::Engine;
use gradpim_obs::{Ph, SpanRec};
use proptest::prelude::*;

/// The binary under test, built by cargo for this test run.
const CLI: &str = env!("CARGO_BIN_EXE_gradpim-cli");

/// Doc-sized caps so every run in these tests simulates quickly.
const QUICK: gradpim_sim::sweeps::QuickCaps = Some((1500, 20_000));

/// Span buffers, the tracing flag, and the registry are process-wide:
/// tests that touch them are serialized through this lock.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_guard() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Derives an arbitrary-but-valid span from one random seed, covering
/// both phases, every layer category, and names that need escaping.
fn synth_span(seed: u64) -> SpanRec {
    const NAMES: &[&str] =
        &["phase.stream", "sched.batch[3]", "a \"quoted\"\tname", "π.span\nline2", ""];
    const CATS: &[&str] = &["phase", "sched", "cache", "cli"];
    let instant = seed & 1 == 1;
    SpanRec {
        name: Cow::Borrowed(NAMES[((seed >> 1) % NAMES.len() as u64) as usize]),
        cat: Cow::Borrowed(CATS[((seed >> 4) % CATS.len() as u64) as usize]),
        ph: if instant { Ph::Instant } else { Ph::Complete },
        ts_us: (seed >> 8) & 0xFFFF,
        dur_us: if instant { 0 } else { (seed >> 24) & 0xFFF },
        pid: 1 + ((seed >> 36) & 3) as u32,
        tid: 1 + ((seed >> 40) & 3) as u32,
    }
}

/// True when two complete intervals are either disjoint or one contains
/// the other — the shape a scope-guard trace must always have.
fn disjoint_or_nested(a: &SpanRec, b: &SpanRec) -> bool {
    let (s1, e1) = (a.ts_us, a.ts_us + a.dur_us);
    let (s2, e2) = (b.ts_us, b.ts_us + b.dur_us);
    let overlap = s1 < e2 && s2 < e1;
    !overlap || (s1 <= s2 && e2 <= e1) || (s2 <= s1 && e1 <= e2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn export_round_trips_arbitrary_spans(
        seeds in prop::collection::vec(0u64..u64::MAX, 0..24),
    ) {
        let spans: Vec<SpanRec> = seeds.iter().map(|&s| synth_span(s)).collect();

        // The Chrome-trace document parses back to a digest that accounts
        // for every non-metadata event, category, and pid.
        let summary = trace::summarize(&trace::export(&spans)).expect("export parses");
        prop_assert_eq!(summary.events, spans.len());
        prop_assert_eq!(summary.cats.values().sum::<usize>(), spans.len());
        for s in &spans {
            prop_assert!(summary.pids.contains(&s.pid));
            prop_assert!(summary.cats.contains_key(s.cat.as_ref()));
        }
    }
}

proptest! {
    // Each case really opens and closes guards; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn recorded_spans_are_monotone_and_nested(
        ops in prop::collection::vec(0u8..4, 1..16),
        spin in 0u32..400,
    ) {
        let _serial = obs_guard();
        gradpim_obs::reset();
        gradpim_obs::set_tracing(true);
        // Interpret `ops` as a random open/close script: 0 closes the
        // innermost open span, anything else opens one (2 also drops an
        // instant inside it).
        let mut stack = Vec::new();
        for (i, &op) in ops.iter().enumerate() {
            if op == 0 {
                drop(stack.pop());
            } else {
                stack.push(gradpim_obs::span_lazy(|| format!("op{i}"), "phase"));
                if op == 2 {
                    gradpim_obs::instant("mark", "sched");
                }
            }
            std::hint::black_box((0..spin).sum::<u32>());
        }
        while let Some(guard) = stack.pop() {
            drop(guard);
        }
        gradpim_obs::set_tracing(false);
        let spans = gradpim_obs::drain_spans();

        let opened = ops.iter().filter(|&&op| op != 0).count();
        let instants = ops.iter().filter(|&&op| op == 2).count();
        prop_assert_eq!(spans.len(), opened + instants);
        let completes: Vec<&SpanRec> =
            spans.iter().filter(|s| s.ph == Ph::Complete).collect();
        for s in &completes {
            prop_assert_eq!(s.pid, gradpim_obs::COORDINATOR_PID);
            prop_assert!(s.tid >= 1);
        }
        // Scope guards can only produce disjoint-or-nested intervals —
        // microsecond truncation must never invert containment.
        for (i, a) in completes.iter().enumerate() {
            for b in completes.iter().skip(i + 1) {
                prop_assert!(
                    disjoint_or_nested(a, b),
                    "partial overlap: {a:?} vs {b:?}"
                );
            }
        }
        // And the whole set exports to a parseable document.
        let summary = trace::summarize(&trace::export(&spans)).expect("export parses");
        prop_assert_eq!(summary.events, spans.len());
    }
}

proptest! {
    // Each case runs a whole (capped) experiment twice; keep it small —
    // the CLI test below covers the threaded CLI deterministically.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn tracing_never_perturbs_reports(
        exp in 0usize..Experiment::ALL.len(),
        threads in 1usize..=3,
    ) {
        let _serial = obs_guard();
        let spec = ExperimentSpec::new(Experiment::ALL[exp], QUICK, Some(vec!["MLP1".into()]));
        gradpim_obs::reset();
        gradpim_obs::set_tracing(false);
        let off = to_json(&spec.run(&Engine::new(threads)).expect("untraced run"));
        gradpim_obs::set_tracing(true);
        gradpim_obs::set_metrics(true);
        let on = to_json(&spec.run(&Engine::new(threads)).expect("traced run"));
        gradpim_obs::set_tracing(false);
        gradpim_obs::set_metrics(false);
        let spans = gradpim_obs::drain_spans();
        gradpim_obs::reset();
        prop_assert_eq!(on, off, "tracing perturbed the report");
        prop_assert!(!spans.is_empty(), "traced run recorded nothing");
    }
}

/// A unique scratch path for this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gradpim-trace-test-{}-{name}", std::process::id()))
}

fn run_cli(args: &[&str]) -> Output {
    Command::new(CLI).args(args).output().expect("run gradpim-cli")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn traced_threaded_cli_is_byte_identical_and_spans_every_layer() {
    // The acceptance scenario: a traced run on a 2-thread pool produces
    // the same report bytes as an untraced one, and its trace holds spans
    // from the CLI stage, the scheduler and the phase executors.
    let trace_path = scratch("threaded.trace.json");
    let metrics_path = scratch("threaded.metrics.json");
    let base_args = ["fig12b", "--nets", "MLP1", "--quick", "--format", "json", "--threads", "2"];

    let base = run_cli(&base_args);
    assert!(base.status.success(), "{}", stderr_of(&base));
    let mut traced_args: Vec<&str> = base_args.to_vec();
    let (trace_str, metrics_str) =
        (trace_path.to_str().expect("utf-8"), metrics_path.to_str().expect("utf-8"));
    traced_args.extend_from_slice(&["--trace", trace_str, "--metrics", metrics_str]);
    let traced = run_cli(&traced_args);
    assert!(traced.status.success(), "{}", stderr_of(&traced));
    assert_eq!(base.stdout, traced.stdout, "tracing perturbed the threaded report");

    let doc = std::fs::read_to_string(&trace_path).expect("trace file written");
    let summary = trace::summarize(&doc).expect("trace parses");
    for cat in ["cli", "phase", "sched"] {
        assert!(summary.cats.contains_key(cat), "no `{cat}` span in {:?}", summary.cats);
    }
    assert_eq!(summary.pids.iter().copied().collect::<Vec<_>>(), [gradpim_obs::COORDINATOR_PID]);

    // The metrics file is the registry rendering, and `check trace`
    // accepts the trace it just wrote.
    let metrics = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    assert!(metrics.starts_with("{\n  \"counters\": {"), "{metrics}");
    assert!(metrics.contains("\"sched.batches\""), "{metrics}");
    let check = run_cli(&["check", "trace", trace_str]);
    assert!(check.status.success(), "{}", stderr_of(&check));

    for p in [&trace_path, &metrics_path] {
        let _ = std::fs::remove_file(p);
    }
}
