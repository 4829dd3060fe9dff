//! Parallel fronts for the `gradpim_sim` sweeps and experiments.
//!
//! Each function enumerates the same specs as its sequential counterpart
//! in `gradpim_sim::sweeps` / `gradpim_sim::distributed`, fans them across
//! the [`Engine`]'s scheduler, and returns **exactly the same points in
//! exactly the same order** — sweep points share no state, so per-point
//! arithmetic is unchanged and only the wall clock shrinks. With a
//! sequential engine ([`Engine::sequential`] / `GRADPIM_THREADS=1`) the
//! calls are byte-for-byte the classic sequential sweeps.
//!
//! Dispatch is **cost-seeded**: every spec exposes its coarse workload
//! shape (`params`, `batch`, `channels`), which
//! [`crate::sched::cost::sweep_point_cycles`] turns into an estimated
//! cycle count, and [`Engine::run`] starts the heaviest points first. A
//! full fig09-style batch that ends with resnet50 no longer leaves its
//! longest point to run alone on one worker after the rest of the pool
//! has gone idle. Dispatch order is unobservable in the results.

use gradpim_sim::distributed::{scaling_specs, DistReport, DistSpec};
use gradpim_sim::report::{Kind, Report, Schema, SweepRow, ToRow};
use gradpim_sim::sweeps::{
    batch_specs, layer_specs, ops_bandwidth_specs, precision_specs, BatchPoint, BatchSpec,
    LayerPoint, LayerSpec, OpsBwPoint, OpsBwSpec, PrecisionPoint, PrecisionSpec, QuickCaps,
    SweepFamily,
};
use gradpim_sim::{Design, PhaseError, SystemConfig, TrainingReport, TrainingSim};
use gradpim_workloads::Network;

use crate::sched::cost;
use crate::Engine;

/// Dispatch cost per spec, from each spec's workload shape — the
/// longest-first seed (see [`cost::sweep_point_cycles`]).
pub(crate) fn costs_of<T>(specs: &[T], workload: impl Fn(&T) -> (u64, usize, usize)) -> Vec<u64> {
    specs.iter().map(workload).map(|(p, b, c)| cost::sweep_point_cycles(p, b, c)).collect()
}

/// Fig. 12a in parallel: speedup vs ops/bandwidth ratio.
///
/// # Errors
///
/// The first (input-order) [`PhaseError`] from any simulated point.
pub fn ops_bandwidth_sweep(
    net: &Network,
    quick: QuickCaps,
    engine: &Engine,
) -> Result<Vec<OpsBwPoint>, PhaseError> {
    let specs = ops_bandwidth_specs(net, quick);
    let costs = costs_of(&specs, OpsBwSpec::workload);
    engine.run(&specs, Some(&costs), |_, s: &OpsBwSpec, _| s.run())
}

/// Fig. 12b in parallel: speedup vs minibatch size.
///
/// # Errors
///
/// The first (input-order) [`PhaseError`] from any simulated point.
pub fn batch_sweep(
    nets: &[Network],
    quick: QuickCaps,
    engine: &Engine,
) -> Result<Vec<BatchPoint>, PhaseError> {
    let specs = batch_specs(nets, quick);
    let costs = costs_of(&specs, BatchSpec::workload);
    engine.run(&specs, Some(&costs), |_, s: &BatchSpec, _| s.run())
}

/// Fig. 12c/d in parallel: speedup and energy vs precision mix.
///
/// # Errors
///
/// The first (input-order) [`PhaseError`] from any simulated point.
pub fn precision_sweep(
    nets: &[Network],
    quick: QuickCaps,
    engine: &Engine,
) -> Result<Vec<PrecisionPoint>, PhaseError> {
    let specs = precision_specs(nets, quick);
    let costs = costs_of(&specs, PrecisionSpec::workload);
    engine.run(&specs, Some(&costs), |_, s: &PrecisionSpec, _| s.run())
}

/// Fig. 13 in parallel: per-layer speedup scatter.
///
/// # Errors
///
/// The first (input-order) [`PhaseError`] from any simulated point.
pub fn layer_scatter(
    nets: &[Network],
    quick: QuickCaps,
    engine: &Engine,
) -> Result<Vec<LayerPoint>, PhaseError> {
    let specs = layer_specs(nets, quick);
    let costs = costs_of(&specs, LayerSpec::workload);
    engine.run(&specs, Some(&costs), |_, s: &LayerSpec, _| s.run())
}

/// Workload shape of one Fig. 9 (network, design) job, for [`costs_of`].
fn design_shape((cfg, net): &(SystemConfig, Network)) -> (u64, usize, usize) {
    (net.total_params() as u64, cfg.batch.unwrap_or(net.default_batch), cfg.base_dram.channels)
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

/// The column layout of [`design_space_report`] — `DesignPoint` carries a
/// whole `TrainingReport`, so Fig. 9's tabular schema lives here rather
/// than on a [`ToRow`] impl.
pub fn design_space_schema() -> Schema {
    Schema::new([
        ("network", Kind::Str),
        ("design", Kind::Str),
        ("fwdbwd_ns", Kind::Float),
        ("update_ns", Kind::Float),
        ("total_ns", Kind::Float),
        ("speedup", Kind::Float),
    ])
}

/// Fig. 9 as a structured [`Report`]: one row per (network, design) point
/// with the phase times and — when the point's network has a
/// [`Design::Baseline`] row earlier in `points`, as [`design_space`] with
/// [`Design::ALL`] always produces — the speedup over that baseline
/// (`NaN` otherwise).
pub fn design_space_report(points: &[DesignPoint]) -> Report {
    let mut report = Report::new(design_space_schema());
    let mut baseline: Option<(&str, f64)> = None;
    for p in points {
        if p.design == Design::Baseline {
            baseline = Some((&p.report.network, p.report.total_time_ns()));
        }
        let speedup = match baseline {
            Some((net, base_ns)) if net == p.report.network => base_ns / p.report.total_time_ns(),
            _ => f64::NAN,
        };
        report.push(SweepRow::new([
            p.report.network.as_str().into(),
            p.design.to_string().into(),
            p.report.fwdbwd_ns().into(),
            p.report.update_ns().into(),
            p.report.total_time_ns().into(),
            speedup.into(),
        ]));
    }
    report
}

/// Fig. 9 in parallel: every (network × design) training step, in
/// network-major order.
///
/// # Errors
///
/// The first (input-order) [`PhaseError`] from any simulated point.
pub fn design_space(
    nets: &[Network],
    designs: &[Design],
    quick: QuickCaps,
    engine: &Engine,
) -> Result<Vec<DesignPoint>, PhaseError> {
    let jobs: Vec<(SystemConfig, Network)> = nets
        .iter()
        .flat_map(|net| {
            designs.iter().map(move |&d| {
                let mut cfg = SystemConfig::new(d);
                cfg.apply_quick(quick);
                (cfg, net.clone())
            })
        })
        .collect();
    let costs = costs_of(&jobs, design_shape);
    engine.run(&jobs, Some(&costs), |_, (cfg, net), _| {
        Ok(DesignPoint { design: cfg.design, report: TrainingSim::new(cfg.clone()).run(net)? })
    })
}

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

/// Fig. 14 in parallel: distributed-training scaling across `node_counts`,
/// baseline vs GradPIM-BD per row.
///
/// # Errors
///
/// The first (input-order) [`PhaseError`] from any simulated point.
pub fn distributed_scaling(
    net: &Network,
    node_counts: &[usize],
    quick: QuickCaps,
    engine: &Engine,
) -> Result<Vec<ScalingRow>, PhaseError> {
    let specs = scaling_specs(net, node_counts, quick);
    let costs = costs_of(&specs, DistSpec::workload);
    let reports = engine.run(&specs, Some(&costs), |_, s: &DistSpec, _| s.run())?;
    // scaling_specs emits (baseline, gradpim) pairs per node count.
    Ok(node_counts
        .iter()
        .zip(reports.chunks_exact(2))
        .map(|(&nodes, pair)| ScalingRow {
            network: net.name.clone(),
            nodes,
            baseline: pair[0],
            gradpim: pair[1],
        })
        .collect())
}

/// The Fig. 9 design-space study as a [`SweepFamily`]: one row group per
/// network, containing that network on every design of [`Design::ALL`]
/// (network-major, exactly the [`design_space`] job order). The group is
/// the unit of sharding *and* caching because each row's speedup column
/// references the same group's `Baseline` row.
///
/// [`ExperimentSpec::run`](crate::serialize::ExperimentSpec::run)
/// dispatches fig09 through this impl; [`design_space`] /
/// [`design_space_report`] remain as thin direct-call surfaces over the
/// same arithmetic.
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

    fn schema() -> Schema {
        design_space_schema()
    }

    fn run_spec(spec: &Self::Spec) -> Result<Self::Out, PhaseError> {
        let (cfg, net) = spec;
        Ok(DesignPoint { design: cfg.design, report: TrainingSim::new(cfg.clone()).run(net)? })
    }

    fn workload(spec: &Self::Spec) -> (u64, usize, usize) {
        design_shape(spec)
    }

    fn group_rows(_group: &[Self::Spec], outs: Vec<Self::Out>) -> Vec<SweepRow> {
        // One group is one network, so the group-local baseline tracking
        // is exactly design_space_report's whole-run tracking restricted
        // to the group: byte-identical rows.
        design_space_report(&outs).rows
    }
}

/// The Fig. 14 node-scaling study as a [`SweepFamily`]: one row group per
/// (network, node count) pair — a consecutive (baseline, GradPIM-BD)
/// [`DistSpec`] pair folding into a single [`ScalingRow`]. Node counts are
/// the experiment's fixed [`crate::serialize::FIG14_NODES`]; for arbitrary
/// node counts use [`distributed_scaling`] directly.
#[derive(Debug, Clone, Copy)]
pub struct Scaling;

impl SweepFamily for Scaling {
    type Spec = DistSpec;
    type Out = DistReport;

    const NAME: &'static str = "scaling";

    fn groups(nets: &[Network], quick: QuickCaps) -> Vec<Vec<Self::Spec>> {
        nets.iter()
            .flat_map(|net| {
                crate::serialize::FIG14_NODES
                    .iter()
                    .map(move |&nodes| scaling_specs(net, &[nodes], quick))
            })
            .collect()
    }

    fn schema() -> Schema {
        ScalingRow::schema()
    }

    fn run_spec(spec: &Self::Spec) -> Result<Self::Out, PhaseError> {
        spec.run()
    }

    fn workload(spec: &Self::Spec) -> (u64, usize, usize) {
        spec.workload()
    }

    fn rows_per_group(group: &[Self::Spec]) -> usize {
        group.len() / 2
    }

    fn group_rows(group: &[Self::Spec], outs: Vec<Self::Out>) -> Vec<SweepRow> {
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
    use gradpim_workloads::models;

    const QUICK: QuickCaps = Some((1500, 20_000));

    #[test]
    fn parallel_batch_sweep_is_bit_identical_to_sequential() {
        let nets = [models::mlp()];
        let seq = gradpim_sim::sweeps::batch_sweep(&nets, QUICK).unwrap();
        let par = batch_sweep(&nets, QUICK, &Engine::new(3)).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn design_space_orders_network_major() {
        let nets = [models::mlp()];
        let designs = [Design::Baseline, Design::GradPimBuffered];
        let pts = design_space(&nets, &designs, QUICK, &Engine::new(2)).unwrap();
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0].design, Design::Baseline);
        assert_eq!(pts[1].design, Design::GradPimBuffered);
        assert!(pts[0].report.total_time_ns() > pts[1].report.total_time_ns());
    }

    #[test]
    fn design_space_family_matches_the_report_path() {
        let nets = [models::mlp()];
        let pts = design_space(&nets, &Design::ALL, QUICK, &Engine::sequential()).unwrap();
        let old = design_space_report(&pts);
        assert_eq!(DesignSpace::report(&nets, QUICK).unwrap(), old);
        let layout: Vec<usize> = DesignSpace::groups(&nets, QUICK)
            .iter()
            .map(|g| DesignSpace::rows_per_group(g))
            .collect();
        assert_eq!(layout, vec![Design::ALL.len()]);
    }

    #[test]
    fn scaling_family_matches_distributed_scaling() {
        let net = models::mlp();
        let nodes = crate::serialize::FIG14_NODES;
        let rows = distributed_scaling(&net, &nodes, QUICK, &Engine::sequential()).unwrap();
        let old = Report::from_points(&rows);
        let nets = [net];
        assert_eq!(Scaling::report(&nets, QUICK).unwrap(), old);
        let layout: Vec<usize> =
            Scaling::groups(&nets, QUICK).iter().map(|g| Scaling::rows_per_group(g)).collect();
        assert_eq!(layout, vec![1; nodes.len()]);
    }

    #[test]
    fn distributed_scaling_rows_pair_up() {
        let net = models::mlp();
        let rows = distributed_scaling(&net, &[2, 4], QUICK, &Engine::new(2)).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].nodes, 2);
        assert_eq!(rows[1].nodes, 4);
        for r in &rows {
            assert!(r.speedup() > 1.0, "nodes={} speedup {}", r.nodes, r.speedup());
        }
    }
}
