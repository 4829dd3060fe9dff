//! `GradPimMemory`: the host-side view of a GradPIM-equipped memory.
//!
//! This facade owns a functional [`MemorySystem`], a [`Placement`] for one
//! parameter group, and the MRW programming state. It exposes the workflow
//! of §IV-D as a library API:
//!
//! 1. the host loads master weights ([`GradPimMemory::load_theta`]);
//! 2. each step, the NPU writes (quantized) gradients
//!    ([`GradPimMemory::write_gradients`]);
//! 3. the host triggers the in-DRAM update ([`GradPimMemory::step`]) —
//!    dequantization, parameter update and re-quantization all execute as
//!    timed GradPIM command streams inside the DRAM simulator;
//! 4. the NPU reads back quantized weights
//!    ([`GradPimMemory::quantized_theta`]) for the next forward pass.

use gradpim_dram::{
    AddressMapping, DramConfig, ElemKind, MemError, MemorySystem, ModeRegisters, Stats,
};
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix, Q8Scale};

use crate::kernel::{compile_step_parts, KernelParts};
use crate::placement::{ArrayName, Placement, PlacementError};

/// Errors from the GradPIM memory facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradPimError {
    /// Placement failed.
    Placement(PlacementError),
    /// Kernel compilation failed.
    Kernel(crate::kernel::KernelError),
    /// The underlying memory simulation failed.
    Memory(MemError),
}

impl std::fmt::Display for GradPimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GradPimError::Placement(e) => write!(f, "placement: {e}"),
            GradPimError::Kernel(e) => write!(f, "kernel: {e}"),
            GradPimError::Memory(e) => write!(f, "memory: {e}"),
        }
    }
}

impl std::error::Error for GradPimError {}

impl From<PlacementError> for GradPimError {
    fn from(e: PlacementError) -> Self {
        GradPimError::Placement(e)
    }
}

impl From<crate::kernel::KernelError> for GradPimError {
    fn from(e: crate::kernel::KernelError) -> Self {
        GradPimError::Kernel(e)
    }
}

impl From<MemError> for GradPimError {
    fn from(e: MemError) -> Self {
        GradPimError::Memory(e)
    }
}

/// Timing/energy results of one in-DRAM update step.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// Memory-clock cycles spent on the dequantization pass.
    pub dequant_cycles: u64,
    /// Cycles spent on update + quantization.
    pub update_cycles: u64,
    /// Commands issued during this step.
    pub commands: u64,
    /// Stats snapshot after the step (cumulative).
    pub stats: Stats,
}

impl StepReport {
    /// Total cycles of the step.
    pub fn total_cycles(&self) -> u64 {
        self.dequant_cycles + self.update_cycles
    }
}

fn elem_for(p: gradpim_optim::Precision) -> ElemKind {
    match p {
        gradpim_optim::Precision::Fp32 => ElemKind::F32,
        gradpim_optim::Precision::Fp16 => ElemKind::F16,
        gradpim_optim::Precision::Int8 => ElemKind::I8,
    }
}

/// A GradPIM-equipped memory managing one parameter group.
#[derive(Debug)]
pub struct GradPimMemory {
    mem: MemorySystem,
    placement: Placement,
    hyper: HyperParams,
    mode: ModeRegisters,
    grad_exponent: i32,
    theta_exponent: i32,
    /// Update steps applied (drives Adam's bias correction).
    steps: u64,
}

impl GradPimMemory {
    /// Builds the memory, places the arrays, and programs the scaler bank.
    ///
    /// # Errors
    ///
    /// [`GradPimError::Placement`] if the arrays don't fit;
    /// [`GradPimError::Kernel`] if the optimizer is outside the base
    /// primitive set.
    pub fn new(
        cfg: DramConfig,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        hyper: HyperParams,
        n_params: usize,
    ) -> Result<Self, GradPimError> {
        let placement = Placement::for_optimizer(optimizer, mix, n_params, &cfg)?;
        // The momentum family programs its scaler bank once; Adam (via the
        // §VIII extended ALU) reprograms per pass inside step() and needs
        // `extended_alu` on the device.
        let scalers = if optimizer == OptimizerKind::Adam {
            if !cfg.extended_alu {
                return Err(crate::kernel::KernelError::UnsupportedOptimizer(optimizer).into());
            }
            crate::scaler::ScalerBank::program([0.0, 0.0, 0.0, 1.0])
        } else {
            crate::kernel::scaler_bank_for(optimizer, &hyper)?
        };
        let mut mem = MemorySystem::with_storage(cfg, AddressMapping::GradPim);
        let mode = ModeRegisters {
            scalers: scalers.to_mode_floats(),
            q8_exponent: -7,
            high: elem_for(mix.high),
            low: elem_for(mix.low),
            eps: hyper.eps,
        };
        mem.set_mode_registers(mode);
        Ok(Self { mem, placement, hyper, mode, grad_exponent: -7, theta_exponent: -7, steps: 0 })
    }

    /// The placement in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The underlying memory system (stats, config, …).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Current hyper-parameters.
    pub fn hyper(&self) -> &HyperParams {
        &self.hyper
    }

    /// Reprograms the learning rate (MRW reprogramming, §VIII "Learning
    /// Rate Scheduling").
    ///
    /// # Errors
    ///
    /// [`GradPimError::Kernel`] if the optimizer became unsupported (cannot
    /// happen for an already-constructed memory; kept for API symmetry).
    pub fn set_lr(&mut self, lr: f32) -> Result<(), GradPimError> {
        self.hyper.lr = lr;
        let scalers = crate::kernel::scaler_bank_for(self.placement.optimizer(), &self.hyper)?;
        self.mode.scalers = scalers.to_mode_floats();
        self.mem.set_mode_registers(self.mode);
        Ok(())
    }

    fn mode_with_exponent(&self, e: i32) -> ModeRegisters {
        let mut m = self.mode;
        m.q8_exponent = e;
        m
    }

    /// Loads master weights and initializes their quantized shadow and any
    /// optimizer state to zero.
    pub fn load_theta(&mut self, theta: &[f32]) {
        let max = theta.iter().fold(0f32, |m, v| m.max(v.abs()));
        self.theta_exponent = Q8Scale::for_max_abs(max).exponent;
        let mode = self.mode_with_exponent(self.theta_exponent);
        self.placement.write_master(&mut self.mem, ArrayName::Theta, &mode, theta);
        if self.placement.has_array(ArrayName::QTheta) {
            self.placement.write_quantized(&mut self.mem, ArrayName::QTheta, &mode, theta);
        }
        let zeros = vec![0.0; theta.len()];
        if self.placement.has_array(ArrayName::State0) {
            self.placement.write_master(&mut self.mem, ArrayName::State0, &mode, &zeros);
        }
        if self.placement.has_array(ArrayName::State1) {
            self.placement.write_master(&mut self.mem, ArrayName::State1, &mode, &zeros);
        }
    }

    /// Writes one step's gradients, as the NPU would after its backward
    /// pass: quantized into `Q(g)` under a fresh power-of-two scale for
    /// mixed precision, or directly into `g` for full precision.
    ///
    /// (This uses the storage backdoor; the *timed* gradient write-out is
    /// part of the backward phase in `gradpim-sim`, not of the update
    /// kernel.)
    pub fn write_gradients(&mut self, grads: &[f32]) {
        if self.placement.mix().is_mixed() {
            let max = grads.iter().fold(0f32, |m, v| m.max(v.abs()));
            self.grad_exponent = Q8Scale::for_max_abs(max).exponent;
            let mode = self.mode_with_exponent(self.grad_exponent);
            self.placement.write_quantized(&mut self.mem, ArrayName::QGrad, &mode, grads);
        } else {
            self.placement.write_master(&mut self.mem, ArrayName::Grad, &self.mode, grads);
        }
    }

    /// Refreshes the θ quantization exponent from the current master
    /// weights (§VIII: "utilize the mode register and let the NPU provide
    /// the new value").
    fn refresh_theta_exponent(&mut self) {
        let theta = self.placement.read_master(&self.mem, ArrayName::Theta, &self.mode);
        let max = theta.iter().fold(0f32, |m, v| m.max(v.abs()));
        // Headroom: the update may grow |θ| slightly past the stale max.
        self.theta_exponent = Q8Scale::for_max_abs(max * 1.25).exponent;
    }

    /// Executes one in-DRAM update step: dequantization under the gradient
    /// scale, then update + re-quantization under the weight scale (MRW
    /// reprogrammings between phases, cf. §VIII's mode-register
    /// discussion). Adam dispatches to the two-pass extended-ALU schedule
    /// of [`crate::xalu`].
    ///
    /// # Errors
    ///
    /// Propagates kernel-compilation and drain failures.
    pub fn step(&mut self) -> Result<StepReport, GradPimError> {
        if self.placement.optimizer() == OptimizerKind::Adam {
            return self.step_adam();
        }
        let cfg = self.mem.config().clone();
        let mixed = self.placement.mix().is_mixed();
        let mut commands = 0;

        // Phase 1: dequantization with the gradient exponent.
        let c0 = self.mem.cycles();
        if mixed {
            let dq = compile_step_parts(
                &self.placement,
                &self.hyper,
                &cfg,
                KernelParts { dequant: true, update: false, quant: false },
            )?;
            self.mem.set_mode_registers(self.mode_with_exponent(self.grad_exponent));
            commands += dq.counts.total();
            self.run_streams(&dq.streams)?;
        }
        let c1 = self.mem.cycles();

        // Phase 2: update + quantization with the refreshed θ exponent.
        if mixed {
            self.refresh_theta_exponent();
            self.mem.set_mode_registers(self.mode_with_exponent(self.theta_exponent));
        }
        let upq = compile_step_parts(
            &self.placement,
            &self.hyper,
            &cfg,
            KernelParts { dequant: false, update: true, quant: true },
        )?;
        commands += upq.counts.total();
        self.run_streams(&upq.streams)?;
        let c2 = self.mem.cycles();

        self.steps += 1;
        let stats = self.mem.stats();
        Ok(StepReport { dequant_cycles: c1 - c0, update_cycles: c2 - c1, commands, stats })
    }

    /// The §VIII two-pass Adam step on the extended ALU: dequantize, pass 1
    /// (moment updates) under the β scaler bank, pass 2 (bias-corrected
    /// weight update) under the step-size bank, then re-quantize.
    fn step_adam(&mut self) -> Result<StepReport, GradPimError> {
        let cfg = self.mem.config().clone();
        let mixed = self.placement.mix().is_mixed();
        let t = self.steps + 1;
        let plan = crate::xalu::compile_adam(&self.placement, &self.hyper, t, &cfg)?;
        let mut commands = plan.counts.total();

        let c0 = self.mem.cycles();
        if mixed {
            let dq = compile_step_parts(
                &self.placement,
                &self.hyper,
                &cfg,
                KernelParts { dequant: true, update: false, quant: false },
            )?;
            self.mem.set_mode_registers(self.mode_with_exponent(self.grad_exponent));
            commands += dq.counts.total();
            self.run_streams(&dq.streams)?;
        }
        let c1 = self.mem.cycles();

        // Pass 1: moment updates under (β₁, 1−β₁, β₂, √(1−β₂)).
        self.mode.scalers = plan.scalers1.to_mode_floats();
        self.mem.set_mode_registers(self.mode_with_exponent(self.theta_exponent));
        self.run_streams(&plan.pass1)?;

        // Pass 2: bias-corrected weight update under (−a_t, ·, ·, 1).
        self.mode.scalers = plan.scalers2.to_mode_floats();
        self.mem.set_mode_registers(self.mode_with_exponent(self.theta_exponent));
        self.run_streams(&plan.pass2)?;

        // Re-quantize θ under a refreshed exponent (slot 3 is still 1.0).
        if mixed {
            self.refresh_theta_exponent();
            self.mem.set_mode_registers(self.mode_with_exponent(self.theta_exponent));
            let q = compile_step_parts(
                &self.placement,
                &self.hyper,
                &cfg,
                KernelParts { dequant: false, update: false, quant: true },
            )?;
            commands += q.counts.total();
            self.run_streams(&q.streams)?;
        }
        let c2 = self.mem.cycles();

        self.steps += 1;
        let stats = self.mem.stats();
        Ok(StepReport { dequant_cycles: c1 - c0, update_cycles: c2 - c1, commands, stats })
    }

    /// Update steps applied so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Enqueues per-unit op lists with backpressure and drains.
    fn run_streams(&mut self, streams: &[crate::kernel::UnitStream]) -> Result<(), GradPimError> {
        let mut cursors = vec![0usize; streams.len()];
        loop {
            let mut all_done = true;
            let mut progress = false;
            for (i, s) in streams.iter().enumerate() {
                while cursors[i] < s.ops.len() {
                    match self.mem.enqueue_pim(s.channel, s.rank, s.bankgroup, s.ops[cursors[i]]) {
                        Ok(_) => {
                            cursors[i] += 1;
                            progress = true;
                        }
                        Err(MemError::QueueFull) => break,
                        Err(e) => return Err(e.into()),
                    }
                }
                if cursors[i] < s.ops.len() {
                    all_done = false;
                }
            }
            if all_done {
                break;
            }
            if !progress {
                // Nothing can retire before the controller's next event;
                // fast-forward instead of spinning one tCK at a time.
                self.mem.tick_until_event();
            }
        }
        // Generous budget: streams of millions of ops still drain well
        // before this.
        let total_ops: usize = streams.iter().map(|s| s.ops.len()).sum();
        self.mem.drain(1_000_000 + total_ops as u64 * 64)?;
        self.mem.take_completions();
        Ok(())
    }

    /// Reads the master weights θ.
    pub fn theta(&self) -> Vec<f32> {
        self.placement.read_master(&self.mem, ArrayName::Theta, &self.mode)
    }

    /// Reads the optimizer's first state array (momentum v / Adam m).
    pub fn state0(&self) -> Vec<f32> {
        self.placement.read_master(&self.mem, ArrayName::State0, &self.mode)
    }

    /// Reads the optimizer's second state array (Adam u).
    ///
    /// # Panics
    ///
    /// Panics if the optimizer keeps fewer than two state arrays.
    pub fn state1(&self) -> Vec<f32> {
        self.placement.read_master(&self.mem, ArrayName::State1, &self.mode)
    }

    /// Reads the dequantized gradient array g (after a step's dequant
    /// phase).
    pub fn grad(&self) -> Vec<f32> {
        self.placement.read_master(&self.mem, ArrayName::Grad, &self.mode)
    }

    /// Reads back what the NPU will see: the quantized weights,
    /// dequantized to f32. Full-precision configurations return θ itself.
    pub fn quantized_theta(&self) -> Vec<f32> {
        if self.placement.mix().is_mixed() {
            let mode = self.mode_with_exponent(self.theta_exponent);
            self.placement.read_quantized(&self.mem, ArrayName::QTheta, &mode)
        } else {
            self.theta()
        }
    }

    /// Cumulative simulation statistics.
    pub fn stats(&self) -> Stats {
        self.mem.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_optim::{MomentumSgd, Optimizer, Sgd};

    fn small_cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    #[test]
    fn full_precision_sgd_matches_reference_exactly_modulo_scaler() {
        let n = 256;
        let hyper = HyperParams { lr: 0.25, weight_decay: 0.0, ..Default::default() };
        let mut gpm =
            GradPimMemory::new(small_cfg(), OptimizerKind::Sgd, PrecisionMix::FULL_32, hyper, n)
                .unwrap();
        let theta0: Vec<f32> = (0..n).map(|i| (i as f32 - 128.0) / 64.0).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i * 7 % 13) as f32 - 6.0) / 8.0).collect();
        gpm.load_theta(&theta0);
        gpm.write_gradients(&grads);
        gpm.step().unwrap();

        // lr = 0.25 is a pure power of two → the scaler is exact and the
        // PIM result must equal the reference bit-for-bit.
        let mut reference = Sgd::new(0.25, 0.0);
        let mut expect = theta0.clone();
        reference.step(&mut expect, &grads);
        assert_eq!(gpm.theta(), expect);
    }

    #[test]
    fn momentum_step_matches_reference_with_exact_scalers() {
        let n = 512;
        // All power-of-two hyper-parameters: exact scalers, exact f32 math.
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut gpm = GradPimMemory::new(
            small_cfg(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::FULL_32,
            hyper,
            n,
        )
        .unwrap();
        let theta0: Vec<f32> = (0..n).map(|i| (i as f32).sin()).collect();
        gpm.load_theta(&theta0);

        let mut reference = MomentumSgd::new(0.125, 0.5, 0.0, n);
        let mut expect = theta0.clone();
        for step in 0..3 {
            let grads: Vec<f32> = (0..n).map(|i| ((i + step * 31) as f32).cos() * 0.5).collect();
            gpm.write_gradients(&grads);
            gpm.step().unwrap();
            reference.step(&mut expect, &grads);
        }
        let got = gpm.theta();
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(a, b, "lane {i}");
        }
        // Velocity array matches too.
        assert_eq!(gpm.state0(), reference.velocity());
    }

    #[test]
    fn mixed_precision_step_tracks_reference_within_quant_error() {
        let n = 2048;
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut gpm = GradPimMemory::new(
            small_cfg(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            hyper,
            n,
        )
        .unwrap();
        let theta0: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.01).sin()).collect();
        gpm.load_theta(&theta0);
        let grads: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.037).cos()).collect();
        gpm.write_gradients(&grads);
        gpm.step().unwrap();

        let mut reference = MomentumSgd::new(0.125, 0.5, 0.0, n);
        let mut expect = theta0.clone();
        reference.step(&mut expect, &grads);

        // The only error source is the int8 gradient quantization: one
        // gradient quant step × lr bounds the per-weight divergence.
        let gmax = grads.iter().fold(0f32, |m, v| m.max(v.abs()));
        let qstep = Q8Scale::for_max_abs(gmax).factor();
        let tol = 0.125 * qstep / 2.0 + 1e-6;
        for (i, (a, b)) in gpm.theta().iter().zip(&expect).enumerate() {
            assert!((a - b).abs() <= tol, "lane {i}: {a} vs {b} (tol {tol})");
        }
    }

    #[test]
    fn dequant_phase_materializes_gradients() {
        let n = 1024;
        let mut gpm = GradPimMemory::new(
            small_cfg(),
            OptimizerKind::Sgd,
            PrecisionMix::MIXED_8_32,
            HyperParams { lr: 0.5, weight_decay: 0.0, ..Default::default() },
            n,
        )
        .unwrap();
        gpm.load_theta(&vec![0.0; n]);
        let grads: Vec<f32> = (0..n).map(|i| (i % 11) as f32 / 11.0 - 0.5).collect();
        gpm.write_gradients(&grads);
        gpm.step().unwrap();
        // g array in DRAM now holds the dequantized gradients.
        let g = gpm.grad();
        let gmax = grads.iter().fold(0f32, |m, v| m.max(v.abs()));
        let qstep = Q8Scale::for_max_abs(gmax).factor();
        for (a, b) in g.iter().zip(&grads) {
            assert!((a - b).abs() <= qstep / 2.0 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn step_report_counts_match_kernel_analytics() {
        let n = 2048;
        let mut gpm = GradPimMemory::new(
            small_cfg(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            HyperParams::default(),
            n,
        )
        .unwrap();
        gpm.load_theta(&vec![0.1; n]);
        gpm.write_gradients(&vec![0.01; n]);
        let report = gpm.step().unwrap();
        // 128 columns × 13.5 commands (momentum + wd, ratio 4).
        assert_eq!(report.commands, 128 * 13 + 64);
        assert!(report.dequant_cycles > 0);
        assert!(report.update_cycles > 0);
        // All traffic stayed inside the DRAM: zero external bytes.
        assert_eq!(report.stats.external_bytes(), 0);
    }

    #[test]
    fn lr_schedule_reprograms_scalers() {
        let n = 64;
        let mut gpm = GradPimMemory::new(
            small_cfg(),
            OptimizerKind::Sgd,
            PrecisionMix::FULL_32,
            HyperParams { lr: 0.5, weight_decay: 0.0, ..Default::default() },
            n,
        )
        .unwrap();
        gpm.load_theta(&vec![1.0; n]);
        gpm.write_gradients(&vec![1.0; n]);
        gpm.step().unwrap();
        assert!((gpm.theta()[0] - 0.5).abs() < 1e-6);
        // Halve the learning rate (exact power of two) and step again.
        gpm.set_lr(0.25).unwrap();
        gpm.write_gradients(&vec![1.0; n]);
        gpm.step().unwrap();
        assert!((gpm.theta()[0] - 0.25).abs() < 1e-6);
    }
}
