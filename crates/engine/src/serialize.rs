//! Sweep-*spec* serialization: an experiment as a value that can be
//! written down and run later, elsewhere.
//!
//! An [`ExperimentSpec`] names one experiment of the evaluation (Fig. 9,
//! 12a–c/d, 13, 14) plus its knobs (quick-mode traffic caps, network
//! subset) and round-trips through the same dependency-free JSON as the
//! result reports, so one invocation can *emit* a spec
//! (`gradpim-cli --emit-spec`) and another — in a later process or on
//! another host — can *execute* it (`gradpim-cli --run-spec`) with
//! bit-identical results to an in-process run: [`ExperimentSpec::run`]
//! is the one runner of the `gradpim_sim::sweeps` families, so the
//! numbers cannot drift across the boundary.
//!
//! ```
//! use gradpim_engine::serialize::{Experiment, ExperimentSpec};
//! use gradpim_engine::Engine;
//!
//! let spec = ExperimentSpec::new(
//!     Experiment::Fig12b,
//!     Some((1500, 20_000)), // doc-sized traffic caps
//!     Some(vec!["MLP1".into()]),
//! );
//! let wire = spec.to_json();
//! let back = ExperimentSpec::from_json(&wire)?;
//! assert_eq!(back, spec);
//! let report = back.run(&Engine::sequential())?;
//! assert_eq!(report.rows.len(), 3); // three batch sizes
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::BTreeMap;
use std::fmt;

use gradpim_sim::report::{Report, Schema, SweepRow};
use gradpim_sim::sweeps::{
    BatchSize, DesignSpace, LayerScatter, OpsBandwidth, Precision, QuickCaps, Scaling, SweepFamily,
};
use gradpim_sim::{PhaseCall, PhaseError, PhaseResult, Simulation};
use gradpim_workloads::{models, Network};

use crate::cache::CacheBackend;
use crate::json::{self, Json};
use crate::report::ParseError;
use crate::{cache, Engine};

/// One experiment of the paper's evaluation, as named on the
/// `gradpim-cli` command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Training-step time per design (Fig. 9).
    Fig09,
    /// Speedup vs ops/bandwidth ratio (Fig. 12a).
    Fig12a,
    /// Speedup vs minibatch size (Fig. 12b).
    Fig12b,
    /// Speedup + energy vs precision mix (Fig. 12c/d).
    Fig12c,
    /// Per-layer speedup scatter (Fig. 13).
    Fig13,
    /// Distributed-training node scaling (Fig. 14).
    Fig14,
}

impl Experiment {
    /// Every experiment, in figure order.
    pub const ALL: [Experiment; 6] = [
        Experiment::Fig09,
        Experiment::Fig12a,
        Experiment::Fig12b,
        Experiment::Fig12c,
        Experiment::Fig13,
        Experiment::Fig14,
    ];

    /// The CLI/spec-file name (`fig09` … `fig14`).
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Fig09 => "fig09",
            Experiment::Fig12a => "fig12a",
            Experiment::Fig12b => "fig12b",
            Experiment::Fig12c => "fig12c",
            Experiment::Fig13 => "fig13",
            Experiment::Fig14 => "fig14",
        }
    }

    /// Parses the [`Experiment::name`] spelling back.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|e| e.name() == s)
    }

    /// A one-line description for `gradpim-cli list` and usage text.
    pub fn describe(self) -> &'static str {
        match self {
            Experiment::Fig09 => "training-step time per design (Fig. 9)",
            Experiment::Fig12a => "speedup vs ops/bandwidth ratio (Fig. 12a)",
            Experiment::Fig12b => "speedup vs minibatch size (Fig. 12b)",
            Experiment::Fig12c => "speedup + energy vs precision mix (Fig. 12c/d)",
            Experiment::Fig13 => "per-layer speedup scatter (Fig. 13)",
            Experiment::Fig14 => "distributed-training node scaling (Fig. 14)",
        }
    }
}

impl Experiment {
    /// Dispatches `visitor` to this experiment's [`SweepFamily`]
    /// implementation — the **single** experiment-kind match in the
    /// crate. [`ExperimentSpec::run`], [`ExperimentSpec::layout`],
    /// [`ExperimentSpec::schema`], and the cache all go through here, so
    /// the three can never disagree on an experiment's group structure.
    fn with_family<V: FamilyVisitor>(self, visitor: V) -> V::Out {
        match self {
            Experiment::Fig09 => visitor.visit::<DesignSpace>(),
            Experiment::Fig12a => visitor.visit::<OpsBandwidth>(),
            Experiment::Fig12b => visitor.visit::<BatchSize>(),
            Experiment::Fig12c => visitor.visit::<Precision>(),
            Experiment::Fig13 => visitor.visit::<LayerScatter>(),
            Experiment::Fig14 => visitor.visit::<Scaling>(),
        }
    }
}

/// A generic operation over an experiment's [`SweepFamily`] — the
/// dispatch target of [`Experiment::with_family`].
trait FamilyVisitor {
    /// What the operation produces.
    type Out;
    /// Runs the operation with the experiment's family as `F`.
    fn visit<F: SweepFamily>(self) -> Self::Out;
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One self-contained, serializable unit of sweep work: which experiment,
/// which traffic caps, which networks. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentSpec {
    /// The experiment to run.
    pub experiment: Experiment,
    /// Traffic-scaling caps: `Some((bursts, params))` for quick mode,
    /// `None` for the library's full defaults.
    pub quick: QuickCaps,
    /// Networks to evaluate, by name (case-insensitive); `None` uses the
    /// experiment's paper default (all networks; AlphaGoZero for fig12a;
    /// ResNet-18 for fig14).
    pub nets: Option<Vec<String>>,
}

impl ExperimentSpec {
    /// A spec for `experiment` with the given caps and networks.
    pub fn new(experiment: Experiment, quick: QuickCaps, nets: Option<Vec<String>>) -> Self {
        Self { experiment, quick, nets }
    }

    /// Serializes the spec as a small JSON document. Deterministic, and
    /// [`ExperimentSpec::from_json`] of the result is `==` to `self`
    /// (round-trip is byte-identical).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"experiment\": ");
        json::escape_into(&mut out, self.experiment.name());
        out.push_str(",\n  \"quick\": ");
        match self.quick {
            Some((bursts, params)) => out.push_str(&format!("[{bursts}, {params}]")),
            None => out.push_str("null"),
        }
        out.push_str(",\n  \"nets\": ");
        match &self.nets {
            Some(nets) => {
                out.push('[');
                for (i, net) in nets.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    json::escape_into(&mut out, net);
                }
                out.push(']');
            }
            None => out.push_str("null"),
        }
        out.push_str("\n}\n");
        out
    }

    /// Parses a [`ExperimentSpec::to_json`] document back.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] on malformed JSON or an unknown shape (unknown
    /// key or experiment name, wrong `quick` arity, non-string network
    /// names…).
    pub fn from_json(input: &str) -> Result<Self, ParseError> {
        let shape = |message: String| ParseError { offset: 0, message };
        let doc = json::parse(input)?;
        let Json::Obj(members) = &doc else {
            return Err(shape(format!("expected a spec object, got {}", doc.type_name())));
        };
        for (key, _) in members {
            if !matches!(key.as_str(), "experiment" | "quick" | "nets") {
                return Err(shape(format!("unknown spec key `{key}`")));
            }
        }
        let Some(Json::Str(name)) = doc.get("experiment") else {
            return Err(shape("spec is missing a string `experiment`".into()));
        };
        let experiment =
            Experiment::parse(name).ok_or_else(|| shape(format!("unknown experiment `{name}`")))?;
        let quick = match doc.get("quick") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(caps)) => {
                let [Json::Num(bursts), Json::Num(params)] = caps.as_slice() else {
                    return Err(shape("`quick` must be [max_bursts, max_params]".into()));
                };
                let bursts = bursts
                    .parse::<u64>()
                    .map_err(|_| shape(format!("bad burst cap `{bursts}`")))?;
                let params = params
                    .parse::<usize>()
                    .map_err(|_| shape(format!("bad param cap `{params}`")))?;
                Some((bursts, params))
            }
            Some(v) => {
                return Err(shape(format!(
                    "`quick` must be an array or null, got {}",
                    v.type_name()
                )))
            }
        };
        let nets = match doc.get("nets") {
            None | Some(Json::Null) => None,
            Some(Json::Arr(names)) => Some(
                names
                    .iter()
                    .map(|n| match n {
                        Json::Str(s) => Ok(s.clone()),
                        other => Err(shape(format!(
                            "network names must be strings, got {}",
                            other.type_name()
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            ),
            Some(v) => {
                return Err(shape(format!(
                    "`nets` must be an array or null, got {}",
                    v.type_name()
                )))
            }
        };
        Ok(Self { experiment, quick, nets })
    }

    /// Resolves the spec's network names against the model zoo
    /// (case-insensitive), or the experiment's paper default when no
    /// names were given.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownNetwork`] naming the first unresolvable name.
    pub fn resolve_networks(&self) -> Result<Vec<Network>, SpecError> {
        let all = models::all_networks();
        let Some(names) = &self.nets else {
            return Ok(match self.experiment {
                // The paper sweeps AlphaGoZero in Fig. 12a and scales
                // ResNet-18 in Fig. 14.
                Experiment::Fig12a => vec![models::alphago_zero()],
                Experiment::Fig14 => vec![models::resnet18()],
                _ => all,
            });
        };
        names
            .iter()
            .map(|name| {
                all.iter()
                    .find(|net| net.name.eq_ignore_ascii_case(name))
                    .cloned()
                    .ok_or_else(|| SpecError::UnknownNetwork(name.clone()))
            })
            .collect()
    }

    /// The experiment's **row-group layout**: one entry per group (in
    /// figure order) giving that group's row count. Pure enumeration — no
    /// simulation runs — so a caller can check a report's shape before or
    /// without running the spec.
    ///
    /// A *row group* is the smallest run of report rows that must be
    /// computed together, and the unit of caching: one network for fig09
    /// (its speedup column references the network's own baseline row), one
    /// sweep point for every other experiment. The sum of the entries
    /// equals `self.run(..)?.rows.len()`.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownNetwork`], exactly as [`ExperimentSpec::run`]
    /// would fail before simulating.
    pub fn layout(&self) -> Result<Vec<usize>, SpecError> {
        struct Layout<'a> {
            nets: &'a [Network],
            quick: QuickCaps,
        }
        impl FamilyVisitor for Layout<'_> {
            type Out = Vec<usize>;
            fn visit<F: SweepFamily>(self) -> Vec<usize> {
                F::groups(self.nets, self.quick).iter().map(|g| F::rows_per_group(g)).collect()
            }
        }
        let nets = self.resolve_networks()?;
        Ok(self.experiment.with_family(Layout { nets: &nets, quick: self.quick }))
    }

    /// The report schema this experiment produces — statically known, so
    /// a caller can validate a report (one read back from a file, say)
    /// without running the spec.
    pub fn schema(&self) -> Schema {
        struct SchemaOf;
        impl FamilyVisitor for SchemaOf {
            type Out = Schema;
            fn visit<F: SweepFamily>(self) -> Schema {
                F::schema()
            }
        }
        self.experiment.with_family(SchemaOf)
    }

    /// Executes the spec on `engine` and returns the structured results.
    /// Same enumerations, same phase calls, same f64 arithmetic as the
    /// family's sequential [`SweepFamily::report`] — a spec that crossed a
    /// process boundary yields **bit-identical** rows to an in-process
    /// run.
    ///
    /// The run plans every point into [`PhaseCall`]s, answers each
    /// distinct call (by [`PhaseCall::key`]) once, runs each distinct
    /// [`Simulation`] (by [`Simulation::key`]) exactly once on the
    /// engine's pool, and assembles the rows in figure order. Calls and
    /// simulations are pure, and a call's result is a function of its
    /// simulation's statistics and its own scale, so sharing changes no
    /// bit.
    ///
    /// When the engine carries a cache ([`Engine::with_cache`]), each row
    /// group is first looked up by content key (see [`crate::cache`]);
    /// validated hits are served verbatim and only the missed groups are
    /// planned. Each of their distinct calls is looked up once, and each
    /// missed call's result is stored back under its call key as soon as
    /// its simulation has run — with the same bit-identity guarantee,
    /// since a hit is the byte-exact stored output of the same
    /// computation.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownNetwork`] before any simulation starts, or the
    /// first (input-order) [`SpecError::Phase`] from the sweep
    /// ([`SpecError::Unresolved`] only on a broken runner invariant).
    pub fn run(&self, engine: &Engine) -> Result<Report, SpecError> {
        struct Run<'a> {
            spec: &'a ExperimentSpec,
            engine: &'a Engine,
        }
        impl FamilyVisitor for Run<'_> {
            type Out = Result<Report, SpecError>;
            fn visit<F: SweepFamily>(self) -> Self::Out {
                run_family::<F>(self.spec, self.engine)
            }
        }
        self.experiment.with_family(Run { spec: self, engine })
    }
}

/// The one generic experiment executor behind [`ExperimentSpec::run`]:
/// enumerate the family's row groups, serve cached groups from the store,
/// plan the rest into phase calls, resolve each distinct call and run each
/// distinct simulation once ([`resolve_unique`]), and reassemble the
/// report in figure order.
fn run_family<F: SweepFamily>(spec: &ExperimentSpec, engine: &Engine) -> Result<Report, SpecError> {
    let nets = spec.resolve_networks()?;
    let quick = spec.quick;
    let groups = F::groups(&nets, quick);

    // Row-group cache consultation: a schema-validated hit pins the
    // group's rows; a miss queues the group's specs for simulation.
    let store = engine.cache();
    let mut keys: Vec<Option<String>> = Vec::with_capacity(groups.len());
    let mut hits: Vec<Option<Vec<SweepRow>>> = Vec::with_capacity(groups.len());
    for group in &groups {
        let key = store.map(|_| cache::group_key::<F>(quick, group));
        let hit = match (store, &key) {
            (Some(s), Some(k)) => cache::load_group::<F>(s.as_ref(), k, F::rows_per_group(group)),
            _ => None,
        };
        keys.push(key);
        hits.push(hit);
    }

    // Plan only the missed groups' specs, in figure order, and resolve
    // every distinct call of the plans once.
    let missed: Vec<&F::Spec> = groups
        .iter()
        .zip(&hits)
        .filter(|(_, hit)| hit.is_none())
        .flat_map(|(group, _)| group)
        .collect();
    let plans: Vec<Vec<PhaseCall>> = missed.iter().map(|s| F::plan(s)).collect();
    let results = resolve_unique(plans, store.map(|s| s.as_ref()), engine)?;

    // Reassemble in group order, storing freshly computed groups back.
    let mut outs = missed.into_iter().zip(results).map(|(s, r)| F::assemble(s, r));
    let mut report = Report::new(F::schema());
    for ((group, key), hit) in groups.iter().zip(&keys).zip(hits) {
        let rows = match hit {
            Some(rows) => rows,
            None => {
                let fresh: Vec<F::Out> = outs.by_ref().take(group.len()).collect();
                let rows = F::group_rows(group, fresh);
                if let (Some(s), Some(k)) = (store, key) {
                    cache::store_group::<F>(s.as_ref(), k, &rows);
                }
                rows
            }
        };
        for row in rows {
            report.push(row);
        }
    }
    Ok(report)
}

/// The results of every plan, in plan order, with each distinct call
/// (by [`PhaseCall::key`]) answered once and each distinct simulation (by
/// [`Simulation::key`]) run once. Calls that do not simulate
/// ([`PhaseCall::simulates`]) answer [`PhaseResult::empty`] without a key,
/// a lookup or a job.
///
/// With a `store`, each distinct call key is looked up once. The missed
/// calls are grouped by their [`PhaseCall::simulation`], the call cut to
/// its cap: calls above the traffic cap cut to the same call and differ
/// only in scale, so they share one. The distinct
/// simulations run on `engine` in the order of their first missed call,
/// so the lowest-indexed error is that of the first failing call in
/// figure order. Each job derives all of its calls' results
/// ([`PhaseCall::result`]) and stores each under its call key on its lane
/// as soon as it has simulated, so the store holds exactly one entry per
/// call key, as a run that simulated every call would leave it.
///
/// Only the distinct calls and simulations outlive the deduplication, and
/// keys are rendered again for the store instead of kept.
///
/// # Errors
///
/// The first failing call's [`SpecError::Phase`] in figure order, or
/// [`SpecError::Unresolved`] if a planned call was left without a result.
fn resolve_unique(
    plans: Vec<Vec<PhaseCall>>,
    store: Option<&dyn CacheBackend>,
    engine: &Engine,
) -> Result<Vec<Vec<PhaseResult>>, SpecError> {
    // Each planned call's index into `calls`, the distinct calls.
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut calls: Vec<PhaseCall> = Vec::new();
    let mut slots: Vec<Vec<Option<usize>>> = Vec::with_capacity(plans.len());
    for plan in plans {
        let mut plan_slots = Vec::with_capacity(plan.len());
        for call in plan {
            if !call.simulates() {
                plan_slots.push(None);
                continue;
            }
            let next = calls.len();
            let i = *index.entry(call.key()).or_insert(next);
            if i == next {
                calls.push(call);
            }
            plan_slots.push(Some(i));
        }
        slots.push(plan_slots);
    }
    drop(index);

    // One result per distinct call: the store's hits, then the misses
    // answered from their simulations.
    let mut results: Vec<Option<PhaseResult>> =
        calls.iter().map(|call| store.and_then(|s| cache::load_phase(s, &call.key()))).collect();

    // The distinct simulations of the missed calls, each with the calls
    // it answers (and their indices into `calls`), in order of first
    // appearance.
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    let mut jobs: Vec<(Simulation, Vec<(usize, &PhaseCall)>)> = Vec::new();
    for (i, (call, hit)) in calls.iter().zip(&results).enumerate() {
        if hit.is_some() {
            continue;
        }
        let simulation = call.simulation().ok_or(SpecError::Unresolved)?;
        let next = jobs.len();
        let j = *index.entry(simulation.key()).or_insert(next);
        if j == next {
            jobs.push((simulation, Vec::new()));
        }
        if let Some((_, answers)) = jobs.get_mut(j) {
            answers.push((i, call));
        }
    }
    drop(index);

    let fresh = engine.run(&jobs, |(simulation, answers)| {
        let stats = simulation.run()?;
        let answered: Vec<PhaseResult> = answers
            .iter()
            .map(|(_, call)| {
                let result = call.result(&stats);
                if let Some(s) = store {
                    cache::store_phase(s, &call.key(), &result);
                }
                result
            })
            .collect();
        Ok::<_, PhaseError>(answered)
    })?;
    for ((_, answers), answered) in jobs.iter().zip(fresh) {
        for (&(i, _), result) in answers.iter().zip(answered) {
            if let Some(slot) = results.get_mut(i) {
                *slot = Some(result);
            }
        }
    }

    slots
        .iter()
        .map(|plan| {
            plan.iter()
                .map(|slot| match *slot {
                    None => Ok(PhaseResult::empty()),
                    Some(i) => results.get(i).cloned().flatten().ok_or(SpecError::Unresolved),
                })
                .collect()
        })
        .collect()
}

/// Why a spec could not be executed.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A requested network name matched nothing in the model zoo.
    UnknownNetwork(String),
    /// A simulation failed: the error of the first failing phase call in
    /// figure order.
    Phase(PhaseError),
    /// A planned phase call was left without a result: a broken runner
    /// invariant, reported as an error instead of as made-up rows.
    Unresolved,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::UnknownNetwork(name) => {
                let known: Vec<String> =
                    models::all_networks().iter().map(|n| n.name.clone()).collect();
                write!(f, "unknown network `{name}` (known: {})", known.join(", "))
            }
            SpecError::Phase(e) => write!(f, "{e}"),
            SpecError::Unresolved => write!(f, "a planned phase call was left without a result"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<PhaseError> for SpecError {
    fn from(e: PhaseError) -> Self {
        SpecError::Phase(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_sim::report::Value;
    use gradpim_sim::Design;

    const QUICK: QuickCaps = Some((1500, 20_000));

    #[test]
    fn spec_json_round_trips_byte_identically() {
        for spec in [
            ExperimentSpec::new(Experiment::Fig12a, QUICK, None),
            ExperimentSpec::new(Experiment::Fig09, None, None),
            ExperimentSpec::new(
                Experiment::Fig14,
                Some((u64::MAX, usize::MAX)),
                Some(vec!["MLP1".into(), "ResNet18".into()]),
            ),
        ] {
            let doc = spec.to_json();
            let back = ExperimentSpec::from_json(&doc).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.to_json(), doc);
        }
    }

    #[test]
    fn spec_json_rejects_malformed_documents() {
        for (doc, what) in [
            ("[]", "expected a spec object"),
            ("{\"quick\": null}", "missing a string `experiment`"),
            ("{\"experiment\": \"fig99\"}", "unknown experiment"),
            ("{\"experiment\": \"fig09\", \"bogus\": 1}", "unknown spec key"),
            ("{\"experiment\": \"fig09\", \"quick\": [1]}", "`quick` must be"),
            ("{\"experiment\": \"fig09\", \"quick\": [1, -2]}", "bad param cap"),
            ("{\"experiment\": \"fig09\", \"nets\": [1]}", "must be strings"),
            ("{\"experiment\": \"fig09\", \"shard\": [0, 2]}", "unknown spec key `shard`"),
        ] {
            let err = ExperimentSpec::from_json(doc).unwrap_err();
            assert!(err.message.contains(what), "{doc}: got `{err}`, wanted `{what}`");
        }
    }

    #[test]
    fn unsharded_spec_json_has_no_shard_key() {
        // Compatibility: a spec document without a `shard` key parses to
        // the same spec, and fresh specs never emit one.
        let spec = ExperimentSpec::new(Experiment::Fig12a, QUICK, None);
        assert!(!spec.to_json().contains("shard"));
        let legacy = "{\"experiment\": \"fig12a\", \"quick\": [1500, 20000], \"nets\": null}";
        assert_eq!(ExperimentSpec::from_json(legacy).unwrap(), spec);
    }

    #[test]
    fn layout_row_counts_match_run() {
        // The layout must agree with what the experiments actually
        // produce, experiment by experiment.
        let engine = Engine::sequential();
        for experiment in Experiment::ALL {
            let spec = ExperimentSpec::new(experiment, QUICK, Some(vec!["MLP1".into()]));
            let layout = spec.layout().unwrap();
            let report = spec.run(&engine).unwrap();
            assert_eq!(
                layout.iter().sum::<usize>(),
                report.rows.len(),
                "{experiment}: layout {layout:?}"
            );
            if experiment == Experiment::Fig09 {
                assert_eq!(layout, vec![Design::ALL.len()], "{experiment}");
            } else {
                assert!(layout.iter().all(|&n| n == 1), "{experiment}: layout {layout:?}");
            }
        }
    }

    #[test]
    fn static_schema_matches_what_run_produces() {
        // Report checks validate against this schema; it must agree with
        // every experiment's actual output.
        let engine = Engine::sequential();
        for experiment in Experiment::ALL {
            let spec = ExperimentSpec::new(experiment, QUICK, Some(vec!["MLP1".into()]));
            assert_eq!(spec.schema(), spec.run(&engine).unwrap().schema, "{experiment}");
        }
    }

    #[test]
    fn experiment_names_round_trip() {
        for e in Experiment::ALL {
            assert_eq!(Experiment::parse(e.name()), Some(e));
            assert_eq!(e.to_string(), e.name());
        }
        assert_eq!(Experiment::parse("fig10"), None);
    }

    #[test]
    fn unknown_network_fails_before_simulating() {
        let spec = ExperimentSpec::new(Experiment::Fig12b, QUICK, Some(vec!["NotANet".into()]));
        let err = spec.run(&Engine::sequential()).unwrap_err();
        assert!(matches!(err, SpecError::UnknownNetwork(ref n) if n == "NotANet"), "{err}");
        assert!(err.to_string().contains("known:"));
    }

    #[test]
    fn spec_run_matches_in_process_sweep_bit_identically() {
        // The acceptance property: a spec that round-tripped through JSON
        // reproduces the in-process sequential numbers bit for bit.
        // Case-insensitive network naming on purpose.
        let spec = ExperimentSpec::new(Experiment::Fig12b, QUICK, Some(vec!["mlp1".into()]));
        let spec = ExperimentSpec::from_json(&spec.to_json()).unwrap();
        let engine = Engine::sequential();
        let via_spec = spec.run(&engine).unwrap();
        let nets = [gradpim_workloads::models::mlp()];
        let direct = BatchSize::report(&nets, QUICK).unwrap();
        assert_eq!(via_spec, direct);
        // And the same rows through a threaded engine.
        let threaded = spec.run(&Engine::new(3)).unwrap();
        assert_eq!(threaded, direct);
    }

    #[test]
    fn empty_nets_yield_an_empty_report_not_a_panic() {
        // Regression: `"nets": []` is well-formed external input; fig12a
        // used to panic on it while every other experiment returned an
        // empty report.
        for experiment in Experiment::ALL {
            let spec = ExperimentSpec::new(experiment, QUICK, Some(Vec::new()));
            let spec = ExperimentSpec::from_json(&spec.to_json()).unwrap();
            let report = spec.run(&Engine::sequential()).unwrap();
            assert!(report.rows.is_empty(), "{experiment}");
            assert!(!report.schema.columns.is_empty(), "{experiment} lost its schema");
        }
    }

    #[test]
    fn fig14_report_carries_network_and_nodes() {
        let spec = ExperimentSpec::new(Experiment::Fig14, QUICK, Some(vec!["MLP1".into()]));
        let report = spec.run(&Engine::sequential()).unwrap();
        assert_eq!(report.rows.len(), 4); // nodes 1, 2, 4, 8
        assert_eq!(report.rows[0].values[0], Value::Str("MLP1".into()));
        assert_eq!(report.rows[3].values[1], Value::Int(8));
    }
}
