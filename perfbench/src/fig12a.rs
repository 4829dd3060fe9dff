//! `fig12a-cold`: the paper's Fig. 12a sweep (AlphaGoZero × DDR4-2133 /
//! DDR4-3200 / HBM2 × 4 MAC sizes, 12 points), run cold through
//! `ExperimentSpec::run` on a 1-thread engine with no store, then rendered
//! with `report::to_json`. 180 of its 240 phase executions repeat an
//! earlier one, so a phase memo shows here.
//!
//! The engine has one thread, spread over the CPUs like the other
//! one-thread workloads. On a 2-thread engine (this is the only figure
//! reaching the 8-channel HBM2 preset, where the scheduler and channel
//! drains would do real work), the median pass on a 2-vCPU virtual machine
//! moved between runs by more than the benchmark's `wall_s` bound. On one
//! thread the engine runs its batches and drains inline, so
//! `engine.sched.jobs` and the `engine.channels.*` metrics read 0.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use gradpim_engine::report;
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::Engine;

use crate::check::{check_report, Expected, Verdict};
use crate::cpus::Cpus;
use crate::harness::{self, digest_of, ratio, typical_of, Plan, Run};
use crate::metrics::{Outcome, Values, PER_LAYER, PHASE_KINDS};
use crate::spans::{self, PassSpans};
use crate::store::KeyRecorder;

/// Set-up repetitions behind the median `setup_s`.
const SETUP_REPS: usize = 101;

struct State {
    engine: Engine,
    spec: ExperimentSpec,
    expected: Expected,
}

/// Engine and spec construction, network resolution, and the report shape
/// the checks expect.
fn setup(seed: u64) -> Result<State, String> {
    let engine = Engine::sequential();
    let spec = ExperimentSpec::new(Experiment::Fig12a, harness::quick_caps(seed), None);
    let expected = Expected::of(&spec)?;
    Ok(State { engine, spec, expected })
}

struct Pass {
    secs: f64,
    verdict: Verdict,
    jobs: u64,
    drain_chunks: u64,
    spans: PassSpans,
}

/// One timed pass, checked against `reference` (the run's first report,
/// which the first pass sets).
fn pass(
    state: &State,
    traced: bool,
    reference: &mut Option<String>,
    kept: &mut Vec<gradpim_obs::SpanRec>,
) -> Pass {
    let before = state.engine.sched_stats();
    let t0 = Instant::now();
    let doc = {
        let _pass = gradpim_obs::span("bench.pass", "bench");
        let report = {
            let _run = gradpim_obs::span("bench.spec.run", "bench");
            state.spec.run(&state.engine)
        };
        report.map(|r| {
            let _json = gradpim_obs::span("bench.report.to_json", "bench");
            report::to_json(&r)
        })
    };
    let secs = t0.elapsed().as_secs_f64();
    let after = state.engine.sched_stats();
    let mut spans = PassSpans::default();
    if traced {
        let recorded = gradpim_obs::drain_spans();
        spans = spans::analyze(&recorded);
        kept.extend(recorded);
    }
    // An error return fails every point: an empty document never parses.
    let doc = doc.unwrap_or_else(|e| {
        eprintln!("perfbench: fig12a pass failed: {e}");
        String::new()
    });
    let verdict = check_report(&doc, &state.expected, reference.as_deref());
    reference.get_or_insert(doc);
    Pass {
        secs,
        verdict,
        jobs: after.jobs - before.jobs,
        drain_chunks: after.drain_chunks - before.drain_chunks,
        spans,
    }
}

/// The share of phase executions whose exact inputs repeat an earlier one:
/// one untimed pass on an engine whose store records keys and never hits.
fn dup_frac(spec: &ExperimentSpec) -> Result<f64, String> {
    let recorder = Arc::new(KeyRecorder::default());
    let engine = Engine::sequential().with_cache(recorder.clone());
    spec.run(&engine).map_err(|e| e.to_string())?;
    let keys: Vec<String> =
        recorder.keys().into_iter().filter(|k| k.starts_with("phase/")).collect();
    let distinct: BTreeSet<&String> = keys.iter().collect();
    Ok(ratio((keys.len() - distinct.len()) as f64, keys.len() as f64))
}

pub fn run(plan: &Plan) -> Result<Run, String> {
    let cpus = Cpus::each();
    let (state, setup_s) = harness::median_setup(&cpus, SETUP_REPS, || setup(plan.seed));
    let state = state?;
    let (mut reference, mut kept) = (None, Vec::new());
    let passes = harness::run_split(&cpus, plan.budget, plan.trace, |traced| {
        pass(&state, traced, &mut reference, &mut kept)
    });
    let attempted = passes.all().map(|p| p.verdict.expected_rows as u64).sum();
    let failed = passes.all().map(|p| p.verdict.failed_rows() as u64).sum();

    let wall_s = typical_of(&passes.untraced, |p| p.secs);
    let (values, trace_file) = if plan.trace {
        let t = &passes.traced;
        let mut v = Values::zeros(PER_LAYER);
        for (k, kind) in PHASE_KINDS.iter().enumerate() {
            v.set(
                format!("sim.phase.calls.{kind}"),
                typical_of(t, |p| p.spans.phase_calls[k] as f64),
            );
            v.set(
                format!("sim.phase.host_s.{kind}"),
                typical_of(t, |p| p.spans.phase_us[k] as f64) / 1e6,
            );
        }
        v.set("sim.phase.dup_frac", dup_frac(&state.spec)?);
        v.set("engine.sched.jobs", typical_of(t, |p| p.jobs as f64));
        v.set("engine.sched.busy_frac", typical_of(t, |p| p.spans.busy_frac));
        v.set("engine.sched.tail_s", typical_of(t, |p| p.spans.tail_us as f64) / 1e6);
        v.set("engine.channels.drain_chunks", typical_of(t, |p| p.drain_chunks as f64));
        v.set("engine.channels.host_s", typical_of(t, |p| p.spans.chunk_us as f64) / 1e6);
        v.set("obs.trace_overhead", ratio(typical_of(t, |p| p.secs), wall_s));
        let name = format!("fig12a-cold.seed{}.trace.json", plan.seed);
        (v, Some(harness::write_trace(&plan.out_dir, &name, &kept)?))
    } else {
        (harness::end_to_end(wall_s, setup_s), None)
    };
    Ok(Run {
        outcome: Outcome { attempted, failed, values },
        digest: digest_of(reference.as_deref().unwrap_or_default()),
        passes: passes.all().count(),
        trace_file,
    })
}
