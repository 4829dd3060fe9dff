//! Distributed data-parallel training (§V-D, Fig. 14).
//!
//! N NPU nodes each process 1/N of the minibatch; gradients are combined
//! with ring all-reduce over 100 Gb/s links (§VI-E). The update phase runs
//! identically on every node — "almost equivalent to the sequential portion
//! of the application" — which is exactly where GradPIM helps scaling. The
//! gradient-accumulation step of the all-reduce is itself mapped to GradPIM
//! (add two gradient arrays in-DRAM) on the PIM designs.

use gradpim_workloads::Network;

use crate::config::SystemConfig;
use crate::phase::{PhaseCall, PhaseError, PhaseResult};
use crate::train::{TrainingReport, TrainingSim};

/// Distributed-training setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistConfig {
    /// Number of data-parallel NPU nodes.
    pub nodes: usize,
    /// Per-link bandwidth in Gbit/s.
    pub link_gbps: f64,
}

impl DistConfig {
    /// The paper's §VI-E setup: 4 nodes on 100 Gb/s torus links.
    pub fn paper_default() -> Self {
        Self { nodes: 4, link_gbps: 100.0 }
    }
}

/// Per-component times of one distributed training step (the Fig. 14
/// stack).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistReport {
    /// Forward + backward on the per-node sub-batch, ns.
    pub fwdbwd_ns: f64,
    /// All-reduce communication (wire + staging), ns.
    pub comm_ns: f64,
    /// Parameter-update phase, ns.
    pub update_ns: f64,
}

impl DistReport {
    /// Total step time.
    pub fn total_ns(&self) -> f64 {
        self.fwdbwd_ns + self.comm_ns + self.update_ns
    }
}

/// One independent distributed-training simulation job: a system design at
/// a node count. The spec of the Fig. 14 [`crate::sweeps::Scaling`]
/// family. It splits [`distributed_step`] on the stored inputs like a
/// training step, into [`DistSpec::plan`] and [`DistSpec::assemble`].
#[derive(Debug, Clone)]
pub struct DistSpec {
    /// System configuration for every node.
    pub sys: SystemConfig,
    /// Network under training.
    pub net: Network,
    /// Cluster shape.
    pub dist: DistConfig,
}

impl DistSpec {
    /// The phase calls of one node's training step, in execution order.
    pub fn plan(&self) -> Vec<PhaseCall> {
        node_sim(&self.sys, &self.net, &self.dist).plan(&self.net)
    }

    /// This point's report from `results`, the results of
    /// [`plan`](Self::plan) in plan order — bit-identical to
    /// [`distributed_step`] for equal results.
    ///
    /// # Panics
    ///
    /// If `results` ends before the plan's calls do.
    pub fn assemble(&self, results: impl IntoIterator<Item = PhaseResult>) -> DistReport {
        let node = node_sim(&self.sys, &self.net, &self.dist).assemble(&self.net, results);
        step_report(&self.sys, &self.net, &self.dist, &node)
    }
}

/// Simulates one distributed step of `net` on `sys` with `dist` nodes.
///
/// # Errors
///
/// Propagates any [`PhaseError`] from the per-node training simulation.
pub fn distributed_step(
    sys: &SystemConfig,
    net: &Network,
    dist: &DistConfig,
) -> Result<DistReport, PhaseError> {
    let node = node_sim(sys, net, dist).run(net)?;
    Ok(step_report(sys, net, dist, &node))
}

/// The simulator of one node: `sys` at the per-node sub-batch.
fn node_sim(sys: &SystemConfig, net: &Network, dist: &DistConfig) -> TrainingSim {
    let full_batch = sys.batch.unwrap_or(net.default_batch);
    let sub_batch = (full_batch / dist.nodes).max(1);
    let mut node_cfg = sys.clone();
    node_cfg.batch = Some(sub_batch);
    TrainingSim::new(node_cfg)
}

/// The distributed step from one node's training report: its phases plus
/// the all-reduce.
fn step_report(
    sys: &SystemConfig,
    net: &Network,
    dist: &DistConfig,
    node: &TrainingReport,
) -> DistReport {
    // Ring all-reduce moves 2·(N−1)/N of the gradient bytes per node.
    let grad_bytes = net.total_params() as f64 * sys.mix.low.bytes() as f64;
    let wire_bytes = 2.0 * (dist.nodes as f64 - 1.0) / dist.nodes as f64 * grad_bytes;
    let wire_ns = wire_bytes / (dist.link_gbps * 1e9 / 8.0) * 1e9;

    // The reduce step accumulates remote gradient shards into the local
    // array. Baseline: the NPU stages every shard through the off-chip bus
    // (read + add + write per element). GradPIM: the accumulation runs
    // in-DRAM over bank-group-internal bandwidth (§V-D: "also mapped to
    // GradPIM similar to the update procedures").
    let dram = sys.dram();
    let passes = 2.0 * (dist.nodes as f64 - 1.0) / dist.nodes as f64;
    let reduce_ns = if sys.design.uses_pim_update() {
        // 2 scaled reads + 1 add + 1 writeback per column over the
        // bank-group internal bandwidth.
        let bytes = grad_bytes * passes * 3.0;
        bytes / dram.peak_internal_bw() * 1e9
    } else {
        let bytes = grad_bytes * passes * 3.0;
        bytes / (dram.peak_external_bw() * 0.85) * 1e9
    };

    DistReport {
        fwdbwd_ns: node.fwdbwd_ns(),
        comm_ns: wire_ns + reduce_ns,
        update_ns: node.update_ns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Design;
    use gradpim_workloads::models;

    fn quick(design: Design) -> SystemConfig {
        let mut c = SystemConfig::new(design);
        c.max_sim_bursts = 4000;
        c.max_sim_params = 40_000;
        c
    }

    #[test]
    fn distributed_gradpim_scales_better() {
        // Fig. 14: "the performance is almost 2× better than the baseline
        // with distributed training" thanks to the smaller per-node batch
        // making the (GradPIM-accelerated) update phase relatively larger.
        let net = models::resnet18();
        let dist = DistConfig::paper_default();
        let base = distributed_step(&quick(Design::Baseline), &net, &dist).unwrap();
        let pim = distributed_step(&quick(Design::GradPimBuffered), &net, &dist).unwrap();
        let speedup = base.total_ns() / pim.total_ns();
        assert!(speedup > 1.4, "distributed speedup {speedup}");
    }

    #[test]
    fn distributed_speedup_exceeds_single_node() {
        // Fig. 12b's trend composed with Fig. 14: smaller effective batch ⇒
        // bigger update share ⇒ more GradPIM benefit.
        let net = models::resnet18();
        let dist = DistConfig::paper_default();
        let single = {
            let b = TrainingSim::new(quick(Design::Baseline)).run(&net).unwrap();
            let d = TrainingSim::new(quick(Design::GradPimBuffered)).run(&net).unwrap();
            b.total_time_ns() / d.total_time_ns()
        };
        let multi = {
            let b = distributed_step(&quick(Design::Baseline), &net, &dist).unwrap();
            let d = distributed_step(&quick(Design::GradPimBuffered), &net, &dist).unwrap();
            b.total_ns() / d.total_ns()
        };
        assert!(multi > single, "multi {multi} vs single {single}");
    }

    #[test]
    fn comm_time_includes_wire_and_reduction() {
        let net = models::mlp();
        let dist = DistConfig::paper_default();
        let r = distributed_step(&quick(Design::Baseline), &net, &dist).unwrap();
        // MLP has ~10 M params → ~10 MB of int8 gradients; ring wire time
        // 1.5× that at 12.5 GB/s ≈ 1.2 ms plus ~3 ms of staging.
        assert!(r.comm_ns > 1e6 && r.comm_ns < 8e6, "comm {} ns", r.comm_ns);
    }

    #[test]
    fn more_nodes_shrink_fwdbwd() {
        let net = models::resnet18();
        let two = distributed_step(
            &quick(Design::Baseline),
            &net,
            &DistConfig { nodes: 2, link_gbps: 100.0 },
        )
        .unwrap();
        let eight = distributed_step(
            &quick(Design::Baseline),
            &net,
            &DistConfig { nodes: 8, link_gbps: 100.0 },
        )
        .unwrap();
        assert!(eight.fwdbwd_ns < two.fwdbwd_ns);
        // Update time does not shrink with nodes (the sequential portion).
        assert!(eight.update_ns > two.update_ns * 0.9);
    }
}
