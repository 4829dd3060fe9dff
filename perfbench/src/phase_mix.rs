//! `phase-mix`: the program's own phase traffic, replayed directly. The
//! calls are the distinct `gradpim_sim::phase` executor calls a quick
//! Fig. 9 run makes — every network of the figure on every `Design::ALL`
//! entry, block by block, exactly as `TrainingSim::run` issues them — each
//! made once, on one thread, with no engine and no store, so nearly all
//! host time is the DRAM cycle core and no input repeats.

use std::collections::BTreeSet;

use gradpim_dram::DramConfig;
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix};
use gradpim_sim::phase::{self, PhaseError, PhaseResult};
use gradpim_sim::sweeps::QuickCaps;
use gradpim_sim::{Design, SystemConfig};
use gradpim_workloads::traffic::layer_fwdbwd_rw;
use gradpim_workloads::{models, Network};

use crate::cpus::Cpus;
use crate::harness::{self, ratio, typical_of, Digest, Plan, Rng, Run};
use crate::metrics::{Outcome, Values, PER_LAYER, PHASE_KINDS};
use crate::spans::{self, PassSpans};

/// Set-up repetitions behind the median `setup_s`.
const SETUP_REPS: usize = 301;

/// The executor a call goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Executor {
    Stream,
    BaselineUpdate,
    PimUpdate,
    PimQuantDequant,
    AosPerBank,
}

/// One executor call: exactly the arguments the executor receives.
#[derive(Debug, Clone)]
pub struct Call {
    /// Position in the unshuffled plan: the digest's order.
    id: usize,
    executor: Executor,
    dram: DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    hyper: HyperParams,
    /// (read, write) bytes of a stream; (parameters, 0) of an update.
    size: (u64, u64),
    /// Bursts of a stream, parameters of an update.
    cap: u64,
}

impl Call {
    /// Index into [`PHASE_KINDS`]: the executor's span context.
    fn kind(&self) -> usize {
        match self.executor {
            Executor::Stream => 0,
            Executor::BaselineUpdate => 1,
            Executor::PimUpdate | Executor::PimQuantDequant => 2,
            Executor::AosPerBank => 3,
        }
    }

    /// In-DRAM executors move no bytes over the external bus.
    fn in_dram(&self) -> bool {
        self.kind() >= 2
    }

    /// Everything the executor's result depends on: two calls with the
    /// same inputs are one computation.
    fn inputs(&self) -> String {
        let Self { id: _, executor, dram, optimizer, mix, hyper, size, cap } = self;
        format!("{executor:?}/{dram:?}/{optimizer:?}/{mix:?}/{hyper:?}/{size:?}/{cap}")
    }

    /// False for the calls an executor answers with an empty result
    /// without simulating (no traffic, no parameters, or a quantize kernel
    /// at full precision).
    fn simulates(&self) -> bool {
        let (a, b) = self.size;
        a + b > 0 && (self.executor != Executor::PimQuantDequant || self.mix.is_mixed())
    }

    fn execute(&self) -> Result<PhaseResult, PhaseError> {
        let Self { dram, optimizer: opt, mix, hyper, cap, .. } = self;
        let (opt, mix, cap) = (*opt, *mix, *cap);
        match (self.executor, self.size) {
            (Executor::Stream, (read, write)) => phase::stream_phase(dram, read, write, cap),
            (Executor::BaselineUpdate, (params, _)) => {
                phase::baseline_update_phase(dram, opt, mix, params, cap)
            }
            (Executor::PimUpdate, (params, _)) => {
                phase::pim_update_phase(dram, opt, mix, hyper, params, cap)
            }
            (Executor::PimQuantDequant, (params, _)) => {
                phase::pim_quant_dequant_phase(dram, opt, mix, hyper, params, cap)
            }
            (Executor::AosPerBank, (params, _)) => {
                phase::aos_per_bank_update_phase(dram, opt, mix, params, cap)
            }
        }
    }
}

/// The phase calls `TrainingSim::run` makes for `net` on `cfg`, in order:
/// per block, the forward/backward stream on the design's
/// forward/backward DRAM view, then the update executors on its DRAM view.
fn training_calls(cfg: &SystemConfig, net: &Network) -> Vec<Call> {
    let tcfg = cfg.traffic(cfg.batch.unwrap_or(net.default_batch));
    let inflation = cfg.design.fwdbwd_inflation(cfg.mix);
    let (dram, fwdbwd_dram) = (cfg.dram(), cfg.fwdbwd_dram());
    let call = |executor, dram: &DramConfig, size, cap| Call {
        id: 0,
        executor,
        dram: dram.clone(),
        optimizer: cfg.optimizer,
        mix: cfg.mix,
        hyper: cfg.hyper,
        size,
        cap,
    };
    let updates: &[Executor] = match cfg.design {
        Design::Baseline | Design::TensorDimm => &[Executor::BaselineUpdate],
        Design::GradPimDirect | Design::GradPimBuffered | Design::Aos => {
            &[Executor::PimUpdate, Executor::PimQuantDequant]
        }
        Design::AosPerBank => &[Executor::AosPerBank, Executor::PimQuantDequant],
    };
    let mut calls = Vec::new();
    for block in net.blocks() {
        let (mut reads, mut writes, mut params) = (0u64, 0u64, 0u64);
        for layer in net.block_layers(&block) {
            let (r, w) = layer_fwdbwd_rw(layer, &tcfg);
            reads += r;
            writes += w;
            params += layer.params() as u64;
        }
        let stream = ((reads as f64 * inflation) as u64, (writes as f64 * inflation) as u64);
        calls.push(call(Executor::Stream, &fwdbwd_dram, stream, cfg.max_sim_bursts));
        for &executor in updates {
            calls.push(call(executor, &dram, (params, 0), cfg.max_sim_params as u64));
        }
    }
    calls
}

/// The seeded call list, in the seed's shuffled order: the distinct calls
/// that simulate, out of those a Fig. 9 run with quick caps `caps` makes
/// over `nets` (every design, every block).
pub fn calls_for(seed: u64, caps: QuickCaps, nets: &[Network]) -> Vec<Call> {
    let mut seen = BTreeSet::new();
    let mut calls = Vec::new();
    for net in nets {
        for design in Design::ALL {
            let mut cfg = SystemConfig::new(design);
            cfg.apply_quick(caps);
            for call in training_calls(&cfg, net) {
                if call.simulates() && seen.insert(call.inputs()) {
                    calls.push(Call { id: calls.len(), ..call });
                }
            }
        }
    }
    Rng::new(seed).shuffle(&mut calls);
    calls
}

/// One call's outcome: its host seconds and its result.
type Timed = (f64, Result<PhaseResult, PhaseError>);

/// Runs every call once, in order, timing each.
fn execute_all(calls: &[Call]) -> Vec<Timed> {
    let _pass = gradpim_obs::span("bench.pass", "bench");
    calls
        .iter()
        .map(|call| {
            let _call = gradpim_obs::span_lazy(
                || format!("bench.phase.{}", PHASE_KINDS[call.kind()]),
                "bench",
            );
            let (result, secs) = harness::timed(|| call.execute());
            (secs, result)
        })
        .collect()
}

/// A result passes when every float is finite, cycles were simulated, and
/// an in-DRAM executor moved no external bytes.
fn result_ok(call: &Call, r: &PhaseResult) -> bool {
    let e = &r.energy;
    let floats = [
        r.time_ns,
        r.scale,
        e.act_pj,
        e.rd_pj,
        e.wr_pj,
        e.io_pj,
        e.pim_pj,
        e.refresh_pj,
        e.background_pj,
        r.external_bytes,
        r.internal_bytes,
        r.cmd_bus_util,
        r.external_bw,
        r.internal_bw,
    ];
    floats.iter().all(|x| x.is_finite())
        && r.sim_cycles > 0
        && (!call.in_dram() || r.external_bytes == 0.0)
}

/// The bit strings of a pass's results, by position (`None` for an error).
fn bits(results: &[Timed]) -> Vec<Option<String>> {
    results.iter().map(|(_, r)| r.as_ref().ok().map(PhaseResult::to_bits_string)).collect()
}

/// Failed calls of one pass, judged against the first pass's results
/// (`reference`): an error, a failed check, or a result that differs from
/// the same call's earlier one.
fn failed_calls(calls: &[Call], results: &[Timed], reference: &[Option<String>]) -> u64 {
    calls
        .iter()
        .zip(results)
        .zip(bits(results).iter().zip(reference))
        .filter(|((call, (_, r)), (got, want))| {
            !r.as_ref().is_ok_and(|r| result_ok(call, r)) || got != want
        })
        .count() as u64
}

/// Simulated cycles and host nanoseconds per phase kind in one pass.
fn per_kind(calls: &[Call], results: &[Timed]) -> ([f64; 4], [f64; 4]) {
    let (mut cycles, mut ns) = ([0.0; 4], [0.0; 4]);
    for (call, (secs, r)) in calls.iter().zip(results) {
        if let Ok(r) = r {
            cycles[call.kind()] += r.sim_cycles as f64;
            ns[call.kind()] += secs * 1e9;
        }
    }
    (cycles, ns)
}

struct Pass {
    secs: f64,
    failed: u64,
    cycles: [f64; 4],
    ns: [f64; 4],
    spans: PassSpans,
}

/// One timed pass, checked against `reference` (the first pass's results,
/// which the first pass sets).
fn pass(
    calls: &[Call],
    traced: bool,
    reference: &mut Option<Vec<Option<String>>>,
    kept: &mut Vec<gradpim_obs::SpanRec>,
) -> Pass {
    let (results, secs) = harness::timed(|| execute_all(calls));
    let mut spans = PassSpans::default();
    if traced {
        let recorded = gradpim_obs::drain_spans();
        spans = spans::analyze(&recorded);
        kept.extend(recorded);
    }
    let reference = reference.get_or_insert_with(|| bits(&results));
    let (cycles, ns) = per_kind(calls, &results);
    Pass { secs, failed: failed_calls(calls, &results, reference), cycles, ns, spans }
}

/// Digest of the results, in plan order.
fn digest(calls: &[Call], reference: &[Option<String>]) -> String {
    let mut by_id: Vec<(usize, &str)> =
        calls.iter().zip(reference).map(|(c, b)| (c.id, b.as_deref().unwrap_or("error"))).collect();
    by_id.sort_unstable();
    let mut d = Digest::default();
    for (id, bits) in by_id {
        d.update(format!("{id} {bits}").as_bytes());
    }
    d.hex()
}

pub fn run(plan: &Plan) -> Result<Run, String> {
    run_over(plan, harness::quick_caps(plan.seed), models::all_networks)
}

/// The workload over the networks `nets` returns (Fig. 9's: every network)
/// with quick caps `caps`. Set-up builds the networks and the call list.
pub fn run_over(p: &Plan, caps: QuickCaps, nets: fn() -> Vec<Network>) -> Result<Run, String> {
    let cpus = Cpus::each();
    let (calls, setup_s) =
        harness::median_setup(&cpus, SETUP_REPS, || calls_for(p.seed, caps, &nets()));
    let (mut reference, mut kept) = (None, Vec::new());
    let passes = harness::run_split(&cpus, p.budget, p.trace, |traced| {
        pass(&calls, traced, &mut reference, &mut kept)
    });
    let attempted = passes.all().count() as u64 * calls.len() as u64;
    let failed = passes.all().map(|pass| pass.failed).sum();

    let wall_s = typical_of(&passes.untraced, |pass| pass.secs);
    let (values, trace_file) = if p.trace {
        let (u, t) = (&passes.untraced, &passes.traced);
        let mut v = Values::zeros(PER_LAYER);
        let cycles = u[0].1.cycles;
        for (k, kind) in PHASE_KINDS.iter().enumerate() {
            v.set(
                format!("dram.ns_per_cycle.{kind}"),
                typical_of(u, |pass| ratio(pass.ns[k], pass.cycles[k])),
            );
            v.set(format!("dram.sim_cycles.{kind}"), cycles[k]);
            v.set(
                format!("sim.phase.calls.{kind}"),
                typical_of(t, |pass| pass.spans.phase_calls[k] as f64),
            );
            v.set(
                format!("sim.phase.host_s.{kind}"),
                typical_of(t, |pass| pass.spans.phase_us[k] as f64) / 1e6,
            );
        }
        v.set("dram.sim_mcycles_per_s", ratio(cycles.iter().sum::<f64>() / 1e6, wall_s));
        let inputs: Vec<String> = calls.iter().map(Call::inputs).collect();
        let distinct: BTreeSet<&String> = inputs.iter().collect();
        v.set(
            "sim.phase.dup_frac",
            ratio((inputs.len() - distinct.len()) as f64, inputs.len() as f64),
        );
        v.set("obs.trace_overhead", ratio(typical_of(t, |pass| pass.secs), wall_s));
        let name = format!("phase-mix.seed{}.trace.json", p.seed);
        (v, Some(harness::write_trace(&p.out_dir, &name, &kept)?))
    } else {
        (harness::end_to_end(wall_s, setup_s), None)
    };
    Ok(Run {
        outcome: Outcome { attempted, failed, values },
        digest: digest(&calls, reference.as_deref().unwrap_or_default()),
        passes: passes.all().count(),
        trace_file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_sim::phase::PhaseMemo;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    /// Caps small enough for a unit test.
    const TINY: QuickCaps = Some((256, 2048));

    fn mlp() -> Vec<Network> {
        vec![models::mlp()]
    }

    fn tiny_plan(seed: u64, trace: bool) -> Plan {
        Plan { seed, budget: Duration::ZERO, trace, out_dir: crate::tests::out_dir() }
    }

    /// Answers every phase with an empty result and records its key: the
    /// phase calls a computation makes, without simulating any of them.
    #[derive(Default)]
    struct KeyLog(Mutex<Vec<String>>);

    impl PhaseMemo for KeyLog {
        fn get(&self, key: &str) -> Option<PhaseResult> {
            self.0.lock().unwrap().push(key.into());
            Some(PhaseResult::empty())
        }

        fn put(&self, _key: &str, _result: &PhaseResult) {}
    }

    fn keys_of(f: impl FnOnce()) -> Vec<String> {
        let log = Arc::new(KeyLog::default());
        phase::with_phase_memo(log.clone(), f);
        let keys = log.0.lock().unwrap().clone();
        keys
    }

    /// The plan is exactly the distinct phase calls of a quick Fig. 9 run:
    /// every call the program makes is in it, once, and nothing else is.
    #[test]
    fn the_plan_is_the_distinct_traffic_of_a_fig9_run() {
        let nets = models::all_networks();
        let caps = harness::quick_caps(7);
        let program = keys_of(|| {
            for net in &nets {
                for design in Design::ALL {
                    let mut cfg = SystemConfig::new(design);
                    cfg.apply_quick(caps);
                    gradpim_sim::TrainingSim::new(cfg).run(net).unwrap();
                }
            }
        });
        let calls = calls_for(7, caps, &nets);
        let replayed = keys_of(|| {
            for call in &calls {
                call.execute().unwrap();
            }
        });
        let distinct: BTreeSet<&String> = replayed.iter().collect();
        assert_eq!(distinct.len(), replayed.len(), "a call repeats");
        assert_eq!(distinct, program.iter().collect::<BTreeSet<_>>());
        assert!(program.len() > replayed.len(), "Fig. 9 repeats some calls");
        // Every executor is reached, streams on more than one DRAM view.
        let mut per_kind = [0; 4];
        for c in &calls {
            per_kind[c.kind()] += 1;
        }
        assert!(per_kind.iter().all(|&n| n > 0), "{per_kind:?}");
        let stream_drams: BTreeSet<String> =
            calls.iter().filter(|c| c.kind() == 0).map(|c| format!("{:?}", c.dram)).collect();
        assert!(stream_drams.len() > 1);
        // Same seed, same inputs and order; another seed moves the caps
        // and the order.
        let plan = |seed| {
            calls_for(seed, harness::quick_caps(seed), &nets)
                .iter()
                .map(Call::inputs)
                .collect::<Vec<_>>()
        };
        assert_eq!(plan(7), calls.iter().map(Call::inputs).collect::<Vec<_>>());
        assert_ne!(plan(8), plan(7));
    }

    #[test]
    fn tiny_run_passes_its_checks_and_reads_zero_dup_frac() {
        let _serial = crate::tests::serial();
        let run = run_over(&tiny_plan(3, true), TINY, mlp).unwrap();
        let calls = calls_for(3, TINY, &mlp());
        assert_eq!(run.outcome.failed, 0);
        assert_eq!(run.outcome.attempted, (calls.len() * run.passes) as u64);
        let v = &run.outcome.values;
        assert_eq!(v.get("sim.phase.dup_frac"), Some(0.0));
        let kernels = calls.iter().filter(|c| c.kind() == 2).count() as f64;
        assert_eq!(v.get("sim.phase.calls.pim-kernel"), Some(kernels));
        assert!(v.get("dram.sim_cycles.aos-pb").unwrap() > 0.0);
        assert_eq!(v.get("engine.cache.lookups"), Some(0.0));
    }

    #[test]
    fn a_changed_result_fails_its_call() {
        let _serial = crate::tests::serial();
        let calls = calls_for(4, TINY, &mlp());
        let reference = bits(&execute_all(&calls));
        let mut again = execute_all(&calls);
        assert_eq!(failed_calls(&calls, &again, &reference), 0);
        if let Ok(r) = &mut again[5].1 {
            r.time_ns = f64::from_bits(r.time_ns.to_bits() ^ 1);
        }
        if let Ok(r) = &mut again[7].1 {
            r.sim_cycles = 0;
        }
        assert_eq!(failed_calls(&calls, &again, &reference), 2);
    }
}
