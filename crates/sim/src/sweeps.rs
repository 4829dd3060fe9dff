//! The evaluation's six sweep families: Fig. 9, 12a, 12b, 12c/d, 13 and 14.
//!
//! Each family is one [`SweepFamily`] impl — [`DesignSpace`],
//! [`OpsBandwidth`], [`BatchSize`], [`Precision`], [`LayerScatter`] and
//! [`Scaling`] — that enumerates its independent simulation jobs as row
//! groups in figure order, plans each spec's phase calls, assembles each
//! spec's output from their results, and turns each group's outputs into
//! report rows. [`SweepFamily::report`] runs a family sequentially and is
//! the reference; `gradpim-engine`'s `ExperimentSpec::run` is the one
//! parallel, cached runner over the same surface, and it
//! runs each distinct simulation of a run's phase calls once. Phase calls
//! are pure, so any schedule and any deduplication produce bit-identical
//! rows.
//!
//! The typed points ([`OpsBwPoint`], [`BatchPoint`], …) are each family's
//! [`SweepFamily::run_spec`] output; callers that want them rather than
//! report rows map `run_spec` over [`SweepFamily::specs`].

use gradpim_dram::DramConfig;
use gradpim_npu::NpuConfig;
use gradpim_optim::PrecisionMix;
use gradpim_workloads::{Layer, Network};

use crate::config::{Design, SystemConfig};
use crate::distributed::{DistConfig, DistReport, DistSpec};
use crate::phase::{PhaseCall, PhaseError, PhaseResult};
use crate::report::{Kind, Report, Schema, SweepRow, ToRow};
use crate::train::{TrainingReport, TrainingSim};

/// Traffic-scaling caps shared by every sweep: `Some((bursts, params))`
/// overrides `max_sim_bursts` / `max_sim_params` on each simulated system.
pub type QuickCaps = Option<(u64, usize)>;

/// One sweep family behind a single generic surface.
///
/// A family enumerates its independent simulation jobs as **row groups**
/// — the smallest runs of report rows that are computed together (one
/// sweep point for the sensitivity sweeps; one network for the Fig. 9
/// design space, whose speedups reference the group's own baseline row;
/// one `(network, nodes)` spec pair for the Fig. 14 scaling study). The
/// group is the unit of result caching: two different sweeps that share a
/// group share its rows.
///
/// Implementations must be deterministic end to end: `groups` enumerates
/// in figure order, `plan` and `assemble` are pure functions of the spec
/// (and of the results), and `group_rows` derives rows from the group's
/// own outputs only — this is what makes a content-addressed cache over
/// `{:?}`-rendered groups sound.
pub trait SweepFamily {
    /// One independent simulation job. `Debug` must render every field
    /// that influences the simulated result (derived `Debug` on the spec
    /// structs does): the rendering is the family's cache-key material.
    type Spec: Clone + Send + Sync + std::fmt::Debug;
    /// The raw result of simulating one spec, before row conversion.
    type Out: Send;

    /// Stable family name — a cache-key component, so renaming it
    /// invalidates every stored group of the family.
    const NAME: &'static str;

    /// Enumerates the family's row groups in figure order.
    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<Self::Spec>>;

    /// The report schema every group's rows follow.
    fn schema() -> Schema;

    /// The phase calls simulating one spec takes, in execution order.
    fn plan(spec: &Self::Spec) -> Vec<PhaseCall>;

    /// The spec's output from `results`, the results of
    /// [`plan`](Self::plan)`(spec)` in plan order.
    fn assemble(spec: &Self::Spec, results: Vec<PhaseResult>) -> Self::Out;

    /// How many report rows one group contributes. Defaults to one row
    /// per spec; families that fold several specs into a row override it.
    fn rows_per_group(group: &[Self::Spec]) -> usize {
        group.len()
    }

    /// Converts one group's outputs (in spec order) into its report rows.
    fn group_rows(group: &[Self::Spec], outs: Vec<Self::Out>) -> Vec<SweepRow>;

    /// All specs of every group, flattened in figure order.
    fn specs(nets: &[Network], quick: QuickCaps) -> Vec<Self::Spec> {
        Self::groups(nets, quick).into_iter().flatten().collect()
    }

    /// Simulates one spec: every call of its plan executed in order, then
    /// assembled.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PhaseError`] of the plan.
    fn run_spec(spec: &Self::Spec) -> Result<Self::Out, PhaseError> {
        let results: Vec<PhaseResult> =
            Self::plan(spec).iter().map(PhaseCall::execute).collect::<Result<_, _>>()?;
        Ok(Self::assemble(spec, results))
    }

    /// Runs the whole family sequentially into a [`Report`] — the
    /// single-threaded reference that `gradpim-engine`'s pooled and
    /// cached runner must reproduce byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PhaseError`] in figure order.
    fn report(nets: &[Network], quick: QuickCaps) -> Result<Report, PhaseError> {
        let mut rep = Report::new(Self::schema());
        for group in Self::groups(nets, quick) {
            let outs: Vec<Self::Out> =
                group.iter().map(Self::run_spec).collect::<Result<_, _>>()?;
            for row in Self::group_rows(&group, outs) {
                rep.push(row);
            }
        }
        Ok(rep)
    }
}

/// One sweep point of the pair families (Fig. 12a–d, and Fig. 13 through
/// [`LayerSpec`]): a baseline and a GradPIM-BD system training the same
/// network.
#[derive(Debug, Clone)]
pub struct PairSpec {
    base: SystemConfig,
    pim: SystemConfig,
    net: Network,
}

impl PairSpec {
    /// A (baseline, GradPIM-BD) pair on `net`, both capped by `quick` and
    /// then adjusted by `tweak`.
    fn new(net: &Network, quick: QuickCaps, tweak: impl Fn(&mut SystemConfig)) -> Self {
        let mut base = SystemConfig::new(Design::Baseline);
        let mut pim = SystemConfig::new(Design::GradPimBuffered);
        for c in [&mut base, &mut pim] {
            c.apply_quick(quick);
            tweak(c);
        }
        Self { base, pim, net: net.clone() }
    }

    /// The phase calls of one training step on each system: the
    /// baseline's, then GradPIM-BD's.
    pub fn plan(&self) -> Vec<PhaseCall> {
        let mut calls = TrainingSim::new(self.base.clone()).plan(&self.net);
        calls.extend(TrainingSim::new(self.pim.clone()).plan(&self.net));
        calls
    }

    /// Both training reports, `(baseline, GradPIM-BD)`, from the results
    /// of [`plan`](Self::plan) in plan order.
    ///
    /// # Panics
    ///
    /// If `results` ends before the plan's calls do.
    pub fn assemble(&self, results: Vec<PhaseResult>) -> (TrainingReport, TrainingReport) {
        let mut results = results.into_iter();
        let tb = TrainingSim::new(self.base.clone()).assemble(&self.net, results.by_ref());
        let tp = TrainingSim::new(self.pim.clone()).assemble(&self.net, results);
        (tb, tp)
    }
}

/// GradPIM-BD speedup over the baseline, in percent.
fn speedup_pct(tb: &TrainingReport, tp: &TrainingReport) -> f64 {
    tb.total_time_ns() / tp.total_time_ns() * 100.0
}

/// One row of the Fig. 9 design-space table: a network simulated on one
/// design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// The simulated design.
    pub design: Design,
    /// Full per-block training report.
    pub report: TrainingReport,
}

/// [`SweepFamily`] for the Fig. 9 design-space study: one row group per
/// network, containing that network on every design of [`Design::ALL`].
/// The group is the unit of caching because each row's speedup column
/// references the same group's `Baseline` row.
#[derive(Debug, Clone, Copy)]
pub struct DesignSpace;

impl SweepFamily for DesignSpace {
    type Spec = (SystemConfig, Network);
    type Out = DesignPoint;

    const NAME: &'static str = "design-space";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<Self::Spec>> {
        nets.iter()
            .map(|net| {
                Design::ALL
                    .iter()
                    .map(|&d| {
                        let mut cfg = SystemConfig::new(d);
                        cfg.apply_quick(quick);
                        (cfg, net.clone())
                    })
                    .collect()
            })
            .collect()
    }

    /// One row per (network, design) point: the phase times and the
    /// speedup over the network's baseline row.
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("design", Kind::Str),
            ("fwdbwd_ns", Kind::Float),
            ("update_ns", Kind::Float),
            ("total_ns", Kind::Float),
            ("speedup", Kind::Float),
        ])
    }

    fn plan((cfg, net): &Self::Spec) -> Vec<PhaseCall> {
        TrainingSim::new(cfg.clone()).plan(net)
    }

    fn assemble((cfg, net): &Self::Spec, results: Vec<PhaseResult>) -> DesignPoint {
        DesignPoint {
            design: cfg.design,
            report: TrainingSim::new(cfg.clone()).assemble(net, results),
        }
    }

    /// A row's speedup is over the latest [`Design::Baseline`] row of the
    /// same network (`NaN` when there is none).
    fn group_rows(_group: &[Self::Spec], outs: Vec<DesignPoint>) -> Vec<SweepRow> {
        let mut baseline: Option<(&str, f64)> = None;
        let mut rows = Vec::with_capacity(outs.len());
        for p in &outs {
            if p.design == Design::Baseline {
                baseline = Some((&p.report.network, p.report.total_time_ns()));
            }
            let speedup = match baseline {
                Some((net, base_ns)) if net == p.report.network => {
                    base_ns / p.report.total_time_ns()
                }
                _ => f64::NAN,
            };
            rows.push(SweepRow::new([
                p.report.network.as_str().into(),
                p.design.to_string().into(),
                p.report.fwdbwd_ns().into(),
                p.report.update_ns().into(),
                p.report.total_time_ns().into(),
                speedup.into(),
            ]));
        }
        rows
    }
}

/// One point of the Fig. 12a ops/bandwidth sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct OpsBwPoint {
    /// Network name (the paper sweeps AlphaGoZero).
    pub network: String,
    /// Memory preset name (DDR4-2133 / DDR4-3200 / HBM2).
    pub memory: String,
    /// MAC-array dimension.
    pub mac_dim: usize,
    /// Ops per byte of memory bandwidth (x-axis, log scale).
    pub ops_per_byte: f64,
    /// GradPIM-BD speedup over baseline, in percent (y-axis; 100 = parity).
    pub speedup_pct: f64,
}

impl ToRow for OpsBwPoint {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("memory", Kind::Str),
            ("mac_dim", Kind::Int),
            ("ops_per_byte", Kind::Float),
            ("speedup_pct", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.memory.as_str().into(),
            self.mac_dim.into(),
            self.ops_per_byte.into(),
            self.speedup_pct.into(),
        ])
    }
}

/// [`SweepFamily`] for the Fig. 12a ops/bandwidth sweep: MAC-array sizes
/// over memory presets, memory-major, per network (the paper uses
/// AlphaGoZero). One point per group.
#[derive(Debug, Clone, Copy)]
pub struct OpsBandwidth;

impl SweepFamily for OpsBandwidth {
    type Spec = PairSpec;
    type Out = OpsBwPoint;

    const NAME: &'static str = "ops-bandwidth";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<PairSpec>> {
        let mut out = Vec::new();
        for net in nets {
            for dram in [DramConfig::ddr4_2133(), DramConfig::ddr4_3200(), DramConfig::hbm2_like()]
            {
                for mac_dim in [64usize, 128, 256, 512] {
                    out.push(vec![PairSpec::new(net, quick, |c| {
                        c.base_dram = dram.clone();
                        c.npu = NpuConfig::with_mac_dim(mac_dim);
                    })]);
                }
            }
        }
        out
    }

    fn schema() -> Schema {
        OpsBwPoint::schema()
    }

    fn plan(spec: &PairSpec) -> Vec<PhaseCall> {
        spec.plan()
    }

    fn assemble(spec: &PairSpec, results: Vec<PhaseResult>) -> OpsBwPoint {
        let (tb, tp) = spec.assemble(results);
        let base = &spec.base;
        OpsBwPoint {
            network: spec.net.name.clone(),
            memory: base.base_dram.name.clone(),
            mac_dim: base.npu.mac_dim,
            ops_per_byte: base.npu.ops_per_byte(base.base_dram.peak_external_bw()),
            speedup_pct: speedup_pct(&tb, &tp),
        }
    }

    fn group_rows(_group: &[PairSpec], outs: Vec<OpsBwPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// One row of the Fig. 12b minibatch sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPoint {
    /// Network name.
    pub network: String,
    /// Minibatch size.
    pub batch: usize,
    /// Speedup over baseline, percent.
    pub speedup_pct: f64,
}

impl ToRow for BatchPoint {
    fn schema() -> Schema {
        Schema::new([("network", Kind::Str), ("batch", Kind::Int), ("speedup_pct", Kind::Float)])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([self.network.as_str().into(), self.batch.into(), self.speedup_pct.into()])
    }
}

/// [`SweepFamily`] for the Fig. 12b minibatch sweep: batch 16/32/64 per
/// network, one point per group.
#[derive(Debug, Clone, Copy)]
pub struct BatchSize;

impl SweepFamily for BatchSize {
    type Spec = PairSpec;
    type Out = BatchPoint;

    const NAME: &'static str = "batch";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<PairSpec>> {
        let mut out = Vec::new();
        for net in nets {
            for batch in [16usize, 32, 64] {
                out.push(vec![PairSpec::new(net, quick, |c| c.batch = Some(batch))]);
            }
        }
        out
    }

    fn schema() -> Schema {
        BatchPoint::schema()
    }

    fn plan(spec: &PairSpec) -> Vec<PhaseCall> {
        spec.plan()
    }

    fn assemble(spec: &PairSpec, results: Vec<PhaseResult>) -> BatchPoint {
        let (tb, tp) = spec.assemble(results);
        BatchPoint {
            network: spec.net.name.clone(),
            batch: tb.batch,
            speedup_pct: speedup_pct(&tb, &tp),
        }
    }

    fn group_rows(_group: &[PairSpec], outs: Vec<BatchPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// One row of the Fig. 12c/d precision sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionPoint {
    /// Network name.
    pub network: String,
    /// Precision mix.
    pub mix: PrecisionMix,
    /// Speedup over the same-precision baseline, percent.
    pub speedup_pct: f64,
    /// Memory energy relative to the same-precision baseline, percent.
    pub energy_pct: f64,
}

impl ToRow for PrecisionPoint {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("mix", Kind::Str),
            ("speedup_pct", Kind::Float),
            ("energy_pct", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.mix.to_string().into(),
            self.speedup_pct.into(),
            self.energy_pct.into(),
        ])
    }
}

/// [`SweepFamily`] for the Fig. 12c/d precision sweep: every precision mix
/// per network, each point relative to the no-PIM baseline *at the same
/// precision* (the paper's definition). One point per group.
#[derive(Debug, Clone, Copy)]
pub struct Precision;

impl SweepFamily for Precision {
    type Spec = PairSpec;
    type Out = PrecisionPoint;

    const NAME: &'static str = "precision";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<PairSpec>> {
        let mut out = Vec::new();
        for net in nets {
            for mix in PrecisionMix::ALL {
                out.push(vec![PairSpec::new(net, quick, |c| c.mix = mix)]);
            }
        }
        out
    }

    fn schema() -> Schema {
        PrecisionPoint::schema()
    }

    fn plan(spec: &PairSpec) -> Vec<PhaseCall> {
        spec.plan()
    }

    fn assemble(spec: &PairSpec, results: Vec<PhaseResult>) -> PrecisionPoint {
        let (tb, tp) = spec.assemble(results);
        PrecisionPoint {
            network: spec.net.name.clone(),
            mix: spec.base.mix,
            speedup_pct: speedup_pct(&tb, &tp),
            energy_pct: tp.energy().total_pj() / tb.energy().total_pj() * 100.0,
        }
    }

    fn group_rows(_group: &[PairSpec], outs: Vec<PrecisionPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// One point of the Fig. 13 layer-characterization scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPoint {
    /// Network name.
    pub network: String,
    /// Layer name.
    pub layer: String,
    /// Weight/activation ratio (x-axis, log scale).
    pub ratio: f64,
    /// Per-layer speedup over baseline, percent.
    pub speedup_pct: f64,
}

impl ToRow for LayerPoint {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("layer", Kind::Str),
            ("ratio", Kind::Float),
            ("speedup_pct", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.layer.as_str().into(),
            self.ratio.into(),
            self.speedup_pct.into(),
        ])
    }
}

/// One job of the Fig. 13 scatter: a [`PairSpec`] whose network is a
/// single layer of `network`.
#[derive(Debug, Clone)]
pub struct LayerSpec {
    network: String,
    pair: PairSpec,
}

/// [`SweepFamily`] for the Fig. 13 layer-characterization scatter: every
/// parameterized layer of every network, simulated as its own
/// single-layer network. One point per group.
#[derive(Debug, Clone, Copy)]
pub struct LayerScatter;

impl SweepFamily for LayerScatter {
    type Spec = LayerSpec;
    type Out = LayerPoint;

    const NAME: &'static str = "layer-scatter";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<LayerSpec>> {
        let mut out = Vec::new();
        for net in nets {
            for layer in net.layers.iter().filter(|l| l.has_params()) {
                let single = Network {
                    name: format!("{}:{}", net.name, layer.name),
                    layers: vec![Layer::clone(layer)],
                    default_batch: net.default_batch,
                };
                let pair = PairSpec::new(&single, quick, |_| {});
                out.push(vec![LayerSpec { network: net.name.clone(), pair }]);
            }
        }
        out
    }

    fn schema() -> Schema {
        LayerPoint::schema()
    }

    fn plan(spec: &LayerSpec) -> Vec<PhaseCall> {
        spec.pair.plan()
    }

    fn assemble(spec: &LayerSpec, results: Vec<PhaseResult>) -> LayerPoint {
        let (tb, tp) = spec.pair.assemble(results);
        // `groups` builds every single-layer network with exactly one layer.
        let layer = &spec.pair.net.layers[0];
        LayerPoint {
            network: spec.network.clone(),
            layer: layer.name.clone(),
            ratio: layer.weight_activation_ratio(),
            speedup_pct: speedup_pct(&tb, &tp),
        }
    }

    fn group_rows(_group: &[LayerSpec], outs: Vec<LayerPoint>) -> Vec<SweepRow> {
        outs.iter().map(ToRow::row).collect()
    }
}

/// The node counts of the Fig. 14 scaling study.
pub const FIG14_NODES: [usize; 4] = [1, 2, 4, 8];

/// One row of a Fig. 14-style node-scaling study.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingRow {
    /// Network under training.
    pub network: String,
    /// Data-parallel node count.
    pub nodes: usize,
    /// Baseline distributed step.
    pub baseline: DistReport,
    /// GradPIM-BD distributed step.
    pub gradpim: DistReport,
}

impl ScalingRow {
    /// Whole-step speedup of GradPIM-BD over the baseline at this node
    /// count.
    pub fn speedup(&self) -> f64 {
        self.baseline.total_ns() / self.gradpim.total_ns()
    }
}

impl ToRow for ScalingRow {
    fn schema() -> Schema {
        Schema::new([
            ("network", Kind::Str),
            ("nodes", Kind::Int),
            ("base_fwdbwd_ns", Kind::Float),
            ("base_comm_ns", Kind::Float),
            ("base_update_ns", Kind::Float),
            ("pim_fwdbwd_ns", Kind::Float),
            ("pim_comm_ns", Kind::Float),
            ("pim_update_ns", Kind::Float),
            ("speedup", Kind::Float),
        ])
    }

    fn row(&self) -> SweepRow {
        SweepRow::new([
            self.network.as_str().into(),
            self.nodes.into(),
            self.baseline.fwdbwd_ns.into(),
            self.baseline.comm_ns.into(),
            self.baseline.update_ns.into(),
            self.gradpim.fwdbwd_ns.into(),
            self.gradpim.comm_ns.into(),
            self.gradpim.update_ns.into(),
            self.speedup().into(),
        ])
    }
}

/// [`SweepFamily`] for the Fig. 14 node-scaling study: one row group per
/// (network, node count of [`FIG14_NODES`]) — a (baseline, GradPIM-BD)
/// [`DistSpec`] pair folding into a single [`ScalingRow`].
#[derive(Debug, Clone, Copy)]
pub struct Scaling;

impl SweepFamily for Scaling {
    type Spec = DistSpec;
    type Out = DistReport;

    const NAME: &'static str = "scaling";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<DistSpec>> {
        let mut out = Vec::new();
        for net in nets {
            for nodes in FIG14_NODES {
                let dist = DistConfig { nodes, ..DistConfig::paper_default() };
                let spec = |design| {
                    let mut sys = SystemConfig::new(design);
                    sys.apply_quick(quick);
                    DistSpec { sys, net: net.clone(), dist }
                };
                out.push(vec![spec(Design::Baseline), spec(Design::GradPimBuffered)]);
            }
        }
        out
    }

    fn schema() -> Schema {
        ScalingRow::schema()
    }

    fn plan(spec: &DistSpec) -> Vec<PhaseCall> {
        spec.plan()
    }

    fn assemble(spec: &DistSpec, results: Vec<PhaseResult>) -> DistReport {
        spec.assemble(results)
    }

    fn rows_per_group(group: &[DistSpec]) -> usize {
        group.len() / 2
    }

    fn group_rows(group: &[DistSpec], outs: Vec<DistReport>) -> Vec<SweepRow> {
        group
            .chunks_exact(2)
            .zip(outs.chunks_exact(2))
            .map(|(pair, reports)| {
                ScalingRow {
                    network: pair[0].net.name.clone(),
                    nodes: pair[0].dist.nodes,
                    baseline: reports[0],
                    gradpim: reports[1],
                }
                .row()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::distributed_step;
    use crate::report::Value;
    use gradpim_workloads::models;

    const QUICK: QuickCaps = Some((1500, 20_000));

    /// Every typed point of family `F` on `nets`, in figure order.
    fn points<F: SweepFamily>(nets: &[Network]) -> Vec<F::Out> {
        F::specs(nets, QUICK).iter().map(F::run_spec).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn batch_sweep_smaller_batches_gain_more() {
        // Fig. 12b: "smaller batch size leads to higher speedup".
        let pts = points::<BatchSize>(&[models::resnet18()]);
        let s16 = pts.iter().find(|p| p.batch == 16).unwrap().speedup_pct;
        let s64 = pts.iter().find(|p| p.batch == 64).unwrap().speedup_pct;
        assert!(s16 > s64, "batch16 {s16} vs batch64 {s64}");
    }

    #[test]
    fn precision_sweep_all_mixes_gain() {
        // Fig. 12c: 8/16, 16/32, 32/32 still provide meaningful speedups.
        let pts = points::<Precision>(&[models::mlp()]);
        assert_eq!(pts.len(), 4);
        for p in &pts {
            assert!(p.speedup_pct > 110.0, "{} gains only {}", p.mix, p.speedup_pct);
            assert!(p.energy_pct < 100.0, "{} energy {}", p.mix, p.energy_pct);
        }
        // The default 8/32 gains the most (largest update share).
        let s832 = pts.iter().find(|p| p.mix == PrecisionMix::MIXED_8_32).unwrap();
        let sfull = pts.iter().find(|p| p.mix == PrecisionMix::FULL_32).unwrap();
        assert!(s832.speedup_pct > sfull.speedup_pct);
    }

    #[test]
    fn layer_scatter_correlates_ratio_with_speedup() {
        // Fig. 13: "a clear correlation between the weight/activation ratio
        // and the speedup".
        let pts = points::<LayerScatter>(&[models::resnet18()]);
        let lo: Vec<&LayerPoint> = pts.iter().filter(|p| p.ratio < 1.0).collect();
        let hi: Vec<&LayerPoint> = pts.iter().filter(|p| p.ratio > 10.0).collect();
        assert!(!lo.is_empty() && !hi.is_empty());
        let avg = |v: &[&LayerPoint]| v.iter().map(|p| p.speedup_pct).sum::<f64>() / v.len() as f64;
        assert!(avg(&hi) > avg(&lo) + 20.0, "hi {} lo {}", avg(&hi), avg(&lo));
        assert!(pts.iter().all(|p| p.network == "ResNet18"), "rows name the whole network");
    }

    #[test]
    fn reports_are_tabular_views_of_points() {
        let nets = [models::mlp()];
        let pts = points::<BatchSize>(&nets);
        let rep = BatchSize::report(&nets, QUICK).unwrap();
        assert_eq!(rep.rows.len(), pts.len());
        let names: Vec<&str> = rep.schema.columns.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["network", "batch", "speedup_pct"]);
        // Cells are the point fields verbatim — bit-identical f64s included.
        assert_eq!(rep.rows[0].values[0], Value::Str(pts[0].network.clone()));
        assert_eq!(rep.rows[0].values[1], Value::Int(pts[0].batch as i64));
        assert_eq!(rep.rows[0].values[2], Value::Float(pts[0].speedup_pct));
    }

    #[test]
    fn specs_enumerate_in_figure_order() {
        let specs = OpsBandwidth::specs(&[models::mlp()], QUICK);
        // 3 memory presets × 4 MAC dims, memory-major, one point per group.
        assert_eq!(specs.len(), 12);
        assert_eq!(OpsBandwidth::groups(&[models::mlp()], QUICK).len(), 12);
        assert_eq!(specs[0].base.base_dram.name, specs[3].base.base_dram.name);
        assert_ne!(specs[0].base.base_dram.name, specs[4].base.base_dram.name);
        let nets = [models::mlp(), models::resnet18()];
        assert_eq!(BatchSize::specs(&nets, QUICK).len(), 6);
        assert_eq!(Precision::specs(&nets, QUICK).len(), 8);
        // Quick caps propagate to both systems of every pair.
        for s in BatchSize::specs(&nets, QUICK) {
            assert_eq!(s.base.max_sim_bursts, 1500);
            assert_eq!(s.pim.max_sim_params, 20_000);
        }
    }

    #[test]
    fn design_space_orders_network_major() {
        let nets = [models::mlp(), models::resnet18()];
        let groups = DesignSpace::groups(&nets, QUICK);
        assert_eq!(groups.len(), nets.len(), "one group per network");
        for (group, net) in groups.iter().zip(&nets) {
            let designs: Vec<Design> = group.iter().map(|(cfg, _)| cfg.design).collect();
            assert_eq!(designs, Design::ALL);
            assert!(group.iter().all(|(_, n)| n.name == net.name));
        }
        let base = DesignSpace::run_spec(&groups[0][0]).unwrap();
        let bd = groups[0].iter().find(|(cfg, _)| cfg.design == Design::GradPimBuffered).unwrap();
        let bd = DesignSpace::run_spec(bd).unwrap();
        assert!(base.report.total_time_ns() > bd.report.total_time_ns());
    }

    #[test]
    fn design_space_family_matches_the_report_path() {
        // Each row's speedup is the group's baseline time over the row's.
        let nets = [models::mlp()];
        let rep = DesignSpace::report(&nets, QUICK).unwrap();
        let pts = points::<DesignSpace>(&nets);
        assert_eq!(rep.rows.len(), Design::ALL.len());
        let base_ns = pts[0].report.total_time_ns();
        for (row, p) in rep.rows.iter().zip(&pts) {
            assert_eq!(row.values[1], Value::Str(p.design.to_string()));
            assert_eq!(row.values[4], Value::Float(p.report.total_time_ns()));
            assert_eq!(row.values[5], Value::Float(base_ns / p.report.total_time_ns()));
        }
        let layout: Vec<usize> = DesignSpace::groups(&nets, QUICK)
            .iter()
            .map(|g| DesignSpace::rows_per_group(g))
            .collect();
        assert_eq!(layout, vec![Design::ALL.len()]);
    }

    #[test]
    fn scaling_family_matches_distributed_scaling() {
        let net = models::mlp();
        let nets = [net.clone()];
        let rep = Scaling::report(&nets, QUICK).unwrap();
        assert_eq!(rep.rows.len(), FIG14_NODES.len());
        for (row, nodes) in rep.rows.iter().zip(FIG14_NODES) {
            let dist = DistConfig { nodes, ..DistConfig::paper_default() };
            let step = |design| {
                let mut sys = SystemConfig::new(design);
                sys.apply_quick(QUICK);
                distributed_step(&sys, &net, &dist).unwrap()
            };
            let direct = ScalingRow {
                network: net.name.clone(),
                nodes,
                baseline: step(Design::Baseline),
                gradpim: step(Design::GradPimBuffered),
            };
            assert_eq!(*row, direct.row(), "nodes={nodes}");
        }
        let layout: Vec<usize> =
            Scaling::groups(&nets, QUICK).iter().map(|g| Scaling::rows_per_group(g)).collect();
        assert_eq!(layout, vec![1; FIG14_NODES.len()]);
    }

    #[test]
    fn distributed_scaling_rows_pair_up() {
        let groups = Scaling::groups(&[models::mlp()], QUICK);
        for (group, nodes) in groups.iter().zip(FIG14_NODES) {
            let designs: Vec<Design> = group.iter().map(|s| s.sys.design).collect();
            assert_eq!(designs, [Design::Baseline, Design::GradPimBuffered]);
            assert!(group.iter().all(|s| s.dist.nodes == nodes));
        }
        let rep = Scaling::report(&[models::mlp()], QUICK).unwrap();
        for row in &rep.rows {
            let Value::Float(speedup) = row.values[8] else { panic!("speedup is a float") };
            assert!(speedup > 1.0, "nodes={} speedup {speedup}", row.values[1]);
        }
    }
}
