//! Full training-step simulation: Fig. 9 (time), Fig. 10 (energy), and
//! Fig. 11 (bandwidth / command-bus) all come from [`TrainingSim::run`],
//! the composition of [`TrainingSim::plan`] (the step's phase calls) and
//! [`TrainingSim::assemble`] (the report from their results).

use std::sync::Arc;

use gradpim_dram::EnergyBreakdown;
use gradpim_npu::compute;
use gradpim_workloads::traffic::{layer_fwdbwd_rw, layer_traffic};
use gradpim_workloads::Network;

use crate::config::{Design, SystemConfig};
use crate::phase::{PhaseCall, PhaseError, PhaseResult};

/// Results for one Fig. 9 block.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockReport {
    /// Block label.
    pub block: String,
    /// Forward + backward wall time (max of compute and memory), ns.
    pub fwdbwd_ns: f64,
    /// NPU compute component of fwd/bwd, ns.
    pub compute_ns: f64,
    /// Update-phase wall time, ns.
    pub update_ns: f64,
    /// Trainable parameters in the block.
    pub params: u64,
    /// Memory-phase detail for fwd/bwd.
    pub fwdbwd: PhaseResult,
    /// Memory-phase detail for the update.
    pub update: PhaseResult,
    /// Quant/dequant kernels overlapped with fwd/bwd (PIM designs only;
    /// empty otherwise). Their time hides under the fwd/bwd window but
    /// their energy and commands are real.
    pub overlap: PhaseResult,
}

impl BlockReport {
    /// Total block time.
    pub fn total_ns(&self) -> f64 {
        self.fwdbwd_ns + self.update_ns
    }
}

/// One training step's simulation results (one network × one design).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingReport {
    /// Network name.
    pub network: String,
    /// Simulated design.
    pub design: Design,
    /// Minibatch size used.
    pub batch: usize,
    /// Per-block results in Fig. 9 order.
    pub blocks: Vec<BlockReport>,
}

impl TrainingReport {
    /// Total forward/backward time.
    pub fn fwdbwd_ns(&self) -> f64 {
        self.blocks.iter().map(|b| b.fwdbwd_ns).sum()
    }

    /// Total update-phase time.
    pub fn update_ns(&self) -> f64 {
        self.blocks.iter().map(|b| b.update_ns).sum()
    }

    /// Total step time.
    pub fn total_time_ns(&self) -> f64 {
        self.fwdbwd_ns() + self.update_ns()
    }

    /// Total memory energy (Fig. 10).
    pub fn energy(&self) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for b in &self.blocks {
            e.merge(&b.fwdbwd.energy);
            e.merge(&b.update.energy);
            e.merge(&b.overlap.energy);
        }
        e
    }

    /// Update-phase DRAM-internal bandwidth, time-weighted across blocks
    /// (Fig. 11 bottom).
    pub fn update_internal_bw(&self) -> f64 {
        let bytes: f64 =
            self.blocks.iter().map(|b| b.update.internal_bytes + b.update.external_bytes).sum();
        let ns: f64 = self.blocks.iter().map(|b| b.update_ns).sum();
        if ns == 0.0 {
            0.0
        } else {
            bytes / (ns * 1e-9)
        }
    }

    /// Update-phase command-bus utilization, time-weighted (Fig. 11 top).
    pub fn update_cmd_util(&self) -> f64 {
        let ns: f64 = self.blocks.iter().map(|b| b.update_ns).sum();
        if ns == 0.0 {
            return 0.0;
        }
        self.blocks.iter().map(|b| b.update.cmd_bus_util * b.update_ns).sum::<f64>() / ns
    }
}

/// Simulates one training step of a network on one system design.
#[derive(Debug, Clone)]
pub struct TrainingSim {
    cfg: SystemConfig,
}

impl TrainingSim {
    /// Creates a simulator for `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The phase calls of one training step of `net`, in execution order:
    /// per block, the forward/backward stream on the design's
    /// forward/backward DRAM view, then the update executors on its DRAM
    /// view (the quant/dequant kernels last, on the PIM designs). Every
    /// call of the plan shares one copy of each view.
    pub fn plan(&self, net: &Network) -> Vec<PhaseCall> {
        let cfg = &self.cfg;
        let dram = Arc::new(cfg.dram());
        let fwdbwd_dram = Arc::new(cfg.fwdbwd_dram());
        let (opt, mix, hyper, cap) =
            (cfg.optimizer, cfg.mix, &cfg.hyper, cfg.max_sim_params as u64);
        let mut calls = Vec::new();
        for b in self.blocks(net) {
            calls.push(PhaseCall::stream(
                Arc::clone(&fwdbwd_dram),
                b.reads,
                b.writes,
                cfg.max_sim_bursts,
            ));
            let dram = Arc::clone(&dram);
            let p = b.params;
            match cfg.design {
                Design::Baseline | Design::TensorDimm => {
                    calls.push(PhaseCall::baseline_update(dram, opt, mix, p, cap));
                }
                Design::GradPimDirect | Design::GradPimBuffered | Design::Aos => {
                    calls.push(PhaseCall::pim_update(Arc::clone(&dram), opt, mix, hyper, p, cap));
                    calls.push(PhaseCall::pim_quant_dequant(dram, opt, mix, hyper, p, cap));
                }
                Design::AosPerBank => {
                    calls.push(PhaseCall::aos_per_bank_update(Arc::clone(&dram), opt, mix, p, cap));
                    calls.push(PhaseCall::pim_quant_dequant(dram, opt, mix, hyper, p, cap));
                }
            }
        }
        calls
    }

    /// The step's report from `results`, the results of
    /// [`plan`](Self::plan)`(net)` in plan order. A caller may take them
    /// from anywhere — a memo, a store, a deduplicating runner — since
    /// calls are pure. The arithmetic is [`run`](Self::run)'s, so equal
    /// results give a bit-identical report. `results` may run on past
    /// this plan's calls (the rest are left unread).
    ///
    /// # Panics
    ///
    /// If `results` ends before the plan's calls do.
    pub fn assemble(
        &self,
        net: &Network,
        results: impl IntoIterator<Item = PhaseResult>,
    ) -> TrainingReport {
        let cfg = &self.cfg;
        let mut results = results.into_iter();
        let mut next = || results.next().expect("one result per planned phase call");
        let overlapped = !matches!(cfg.design, Design::Baseline | Design::TensorDimm);
        let blocks = self
            .blocks(net)
            .into_iter()
            .map(|b| {
                let fwdbwd = next();
                let update = next();
                let overlap = if overlapped { next() } else { PhaseResult::empty() };
                // Double buffering overlaps compute with memory, and the
                // quant/dequant kernels pipeline with fwd/bwd: the phase
                // takes the slowest of the three.
                let fwdbwd_ns = fwdbwd.time_ns.max(b.compute_ns).max(overlap.time_ns);
                BlockReport {
                    block: b.block,
                    fwdbwd_ns,
                    compute_ns: b.compute_ns,
                    update_ns: update.time_ns,
                    params: b.params,
                    fwdbwd,
                    update,
                    overlap,
                }
            })
            .collect();
        let batch = cfg.batch.unwrap_or(net.default_batch);
        TrainingReport { network: net.name.clone(), design: cfg.design, batch, blocks }
    }

    /// Runs one training step of `net` and reports per-block times, energy
    /// and bandwidths: every call of [`plan`](Self::plan) executed in
    /// order, then [`assemble`](Self::assemble). The sequential reference
    /// for any runner that gets the results another way.
    ///
    /// # Errors
    ///
    /// Propagates the first [`PhaseError`] any phase executor reports
    /// (simulator errors are bugs or livelocks, never workload conditions).
    pub fn run(&self, net: &Network) -> Result<TrainingReport, PhaseError> {
        let results: Vec<PhaseResult> =
            self.plan(net).iter().map(PhaseCall::execute).collect::<Result<_, _>>()?;
        Ok(self.assemble(net, results))
    }

    /// Per block of `net`: its memory traffic, parameters and NPU compute
    /// time, the analytic inputs [`plan`](Self::plan) and
    /// [`assemble`](Self::assemble) share.
    fn blocks(&self, net: &Network) -> Vec<BlockShape> {
        let cfg = &self.cfg;
        let batch = cfg.batch.unwrap_or(net.default_batch);
        let tcfg = cfg.traffic(batch);
        let inflation = cfg.design.fwdbwd_inflation(cfg.mix);
        net.blocks()
            .into_iter()
            .map(|block| {
                let layers = net.block_layers(&block);
                let mut reads = 0u64;
                let mut writes = 0u64;
                let mut params = 0u64;
                let mut compute_cycles = 0u64;
                for l in &layers {
                    let (r, w) = layer_fwdbwd_rw(l, &tcfg);
                    reads += r;
                    writes += w;
                    params += l.params() as u64;
                    compute_cycles += compute::forward_cycles(&cfg.npu, l, batch)
                        + compute::backward_cycles(&cfg.npu, l, batch);
                    // Keep the analytic traffic model honest: the totals match.
                    debug_assert_eq!(r + w, layer_traffic(l, &tcfg).fwd_bwd());
                }
                BlockShape {
                    block,
                    reads: (reads as f64 * inflation) as u64,
                    writes: (writes as f64 * inflation) as u64,
                    params,
                    compute_ns: compute_cycles as f64 * cfg.npu.cycle_ns(),
                }
            })
            .collect()
    }
}

/// One block's analytic inputs (see [`TrainingSim::blocks`]).
struct BlockShape {
    block: String,
    /// Forward/backward bytes read and written, design inflation applied.
    reads: u64,
    writes: u64,
    params: u64,
    compute_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_workloads::models;

    fn quick(design: Design) -> SystemConfig {
        let mut c = SystemConfig::new(design);
        c.max_sim_bursts = 4000;
        c.max_sim_params = 40_000;
        c
    }

    #[test]
    fn gradpim_buffered_beats_baseline_on_resnet18() {
        let net = models::resnet18();
        let base = TrainingSim::new(quick(Design::Baseline)).run(&net).unwrap();
        let bd = TrainingSim::new(quick(Design::GradPimBuffered)).run(&net).unwrap();
        // Fig. 9: GradPIM-BD ≈ 1.94× overall; update phase ≈ 8×.
        let overall = base.total_time_ns() / bd.total_time_ns();
        assert!(overall > 1.2, "overall speedup {overall}");
        let upd = base.update_ns() / bd.update_ns();
        assert!(upd > 3.0, "update speedup {upd}");
        // fwd/bwd barely changes.
        let fb = base.fwdbwd_ns() / bd.fwdbwd_ns();
        assert!((0.8..1.3).contains(&fb), "fwdbwd ratio {fb}");
    }

    #[test]
    fn update_dominance_grows_toward_late_blocks() {
        let net = models::resnet18();
        let base = TrainingSim::new(quick(Design::Baseline)).run(&net).unwrap();
        let b1 = &base.blocks[1];
        let b4 = &base.blocks[4];
        let share1 = b1.update_ns / b1.total_ns();
        let share4 = b4.update_ns / b4.total_ns();
        assert!(share4 > share1 * 2.0, "share1 {share1} share4 {share4}");
    }

    #[test]
    fn aos_loses_fwdbwd_what_it_gains_in_update() {
        let net = models::resnet18();
        let bd = TrainingSim::new(quick(Design::GradPimBuffered)).run(&net).unwrap();
        let aos = TrainingSim::new(quick(Design::Aos)).run(&net).unwrap();
        // Same update time (same kernels)…
        let upd_ratio = aos.update_ns() / bd.update_ns();
        assert!((0.8..1.25).contains(&upd_ratio), "update ratio {upd_ratio}");
        // …but fwd/bwd inflates (≈4× traffic ⇒ substantially slower).
        assert!(
            aos.fwdbwd_ns() > bd.fwdbwd_ns() * 1.8,
            "aos fwdbwd {} vs bd {}",
            aos.fwdbwd_ns(),
            bd.fwdbwd_ns()
        );
        // Net effect: AoS loses most of GradPIM-BD's advantage (Fig. 9).
        assert!(aos.total_time_ns() > bd.total_time_ns() * 1.3);
    }

    #[test]
    fn energy_ordering_matches_fig10() {
        let net = models::mlp();
        let base = TrainingSim::new(quick(Design::Baseline)).run(&net).unwrap();
        let bd = TrainingSim::new(quick(Design::GradPimBuffered)).run(&net).unwrap();
        let eb = base.energy();
        let ed = bd.energy();
        // GradPIM saves total memory energy…
        assert!(ed.total_pj() < eb.total_pj(), "bd {} vs base {}", ed.total_pj(), eb.total_pj());
        // …by cutting RD/WR + IO, while ACT stays in the same ballpark.
        assert!(ed.rd_pj + ed.wr_pj + ed.io_pj < (eb.rd_pj + eb.wr_pj + eb.io_pj) * 0.8);
        // PIM energy appears only in the PIM design.
        assert!(ed.pim_pj > 0.0);
    }

    #[test]
    fn mlp_gains_more_than_resnet() {
        // Fig. 13's correlation at network scale: weight-heavy MLP gains
        // more from GradPIM than activation-heavy early-conv networks.
        let mlp = models::mlp();
        let resnet = models::resnet18();
        let s_mlp = {
            let b = TrainingSim::new(quick(Design::Baseline)).run(&mlp).unwrap();
            let d = TrainingSim::new(quick(Design::GradPimBuffered)).run(&mlp).unwrap();
            b.total_time_ns() / d.total_time_ns()
        };
        let s_res = {
            let b = TrainingSim::new(quick(Design::Baseline)).run(&resnet).unwrap();
            let d = TrainingSim::new(quick(Design::GradPimBuffered)).run(&resnet).unwrap();
            b.total_time_ns() / d.total_time_ns()
        };
        assert!(s_mlp > s_res, "mlp {s_mlp} vs resnet {s_res}");
    }
}
