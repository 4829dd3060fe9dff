//! `GradPimMemory`: the host-side view of a GradPIM-equipped memory.
//!
//! This facade owns a functional [`MemorySystem`], one [`Placement`] per
//! parameter group, and the MRW programming state. It holds one group
//! ([`GradPimMemory::new`]) or several stacked by row base
//! ([`GradPimMemory::stacked`]): real deployments hold every layer's
//! θ/g/state arrays in the device at once (§V-B's allocator "supporting
//! separation between data structures"). It exposes the workflow of §IV-D
//! as a library API over the whole parameter vector, the groups' slices in
//! stacking order:
//!
//! 1. the host loads master weights ([`GradPimMemory::load_theta`]);
//! 2. each step, the NPU writes (quantized) gradients
//!    ([`GradPimMemory::write_gradients`]);
//! 3. the host triggers the in-DRAM update ([`GradPimMemory::step`]) —
//!    dequantization, parameter update and re-quantization all execute as
//!    timed GradPIM command streams inside the DRAM simulator;
//! 4. the NPU reads back quantized weights
//!    ([`GradPimMemory::quantized_theta`]) for the next forward pass.
//!
//! Each group is quantized under its own int8 scale, which the mode
//! registers carry, so groups are separated by MRW reprogrammings (§VIII).

use gradpim_dram::{AddressMapping, DramConfig, MemError, MemorySystem, ModeRegisters, Stats};
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix, Q8Scale};

use crate::kernel::{compile_step, run_unit_streams, KernelError, KernelParts, UnitStream};
use crate::placement::{ArrayName, Placement, PlacementError};
use crate::xalu::compile_adam;

/// Errors from the GradPIM memory facade.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GradPimError {
    /// Placement failed.
    Placement(PlacementError),
    /// Kernel compilation failed.
    Kernel(KernelError),
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

impl From<KernelError> for GradPimError {
    fn from(e: KernelError) -> Self {
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
    /// Cycles spent on the update and re-quantization passes.
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

/// The dequantization kernel alone.
const DEQUANT: KernelParts = KernelParts { dequant: true, update: false, quant: false };
/// The quantization kernel alone.
const QUANT: KernelParts = KernelParts { dequant: false, update: false, quant: true };

/// One stacked parameter group and the int8 exponents of its quantized
/// arrays.
#[derive(Debug)]
struct Group {
    placement: Placement,
    grad_exponent: i32,
    theta_exponent: i32,
}

/// A GradPIM-equipped memory managing one or more stacked parameter groups.
#[derive(Debug)]
pub struct GradPimMemory {
    mem: MemorySystem,
    /// Never empty.
    groups: Vec<Group>,
    hyper: HyperParams,
    mode: ModeRegisters,
    /// Update steps applied (drives Adam's bias correction).
    steps: u64,
}

impl GradPimMemory {
    /// Builds a memory holding one parameter group of `n_params` and
    /// places the arrays.
    ///
    /// # Errors
    ///
    /// As [`GradPimMemory::stacked`].
    pub fn new(
        cfg: DramConfig,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        hyper: HyperParams,
        n_params: usize,
    ) -> Result<Self, GradPimError> {
        Self::stacked(cfg, optimizer, mix, hyper, &[n_params])
    }

    /// Builds a memory holding one parameter group per entry of
    /// `group_sizes` (e.g. one per layer), stacked by row base in order.
    /// The scaler bank starts at the identity; each step programs it per
    /// update pass.
    ///
    /// # Errors
    ///
    /// [`GradPimError::Placement`] if the stacked arrays don't fit the
    /// device; [`GradPimError::Kernel`] if the optimizer is outside the
    /// base primitive set (Adam needs `extended_alu` on the device).
    ///
    /// # Panics
    ///
    /// Panics if `group_sizes` is empty or holds an empty group.
    pub fn stacked(
        cfg: DramConfig,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        hyper: HyperParams,
        group_sizes: &[usize],
    ) -> Result<Self, GradPimError> {
        assert!(!group_sizes.is_empty(), "at least one parameter group required");
        let mut groups = Vec::with_capacity(group_sizes.len());
        let mut row_base = 0;
        for &n in group_sizes {
            let placement = Placement::for_optimizer_at(optimizer, mix, n, &cfg, row_base)?;
            row_base += placement.rows_footprint();
            groups.push(Group { placement, grad_exponent: -7, theta_exponent: -7 });
        }
        // Each step programs the scalers of its update passes, so the mode
        // registers start at the identity. The momentum family runs one
        // pass on the base ALU; of the adaptive optimizers only Adam
        // compiles, into two passes on the §VIII extended ALU.
        if !(optimizer.single_pass() || (optimizer == OptimizerKind::Adam && cfg.extended_alu)) {
            return Err(KernelError::UnsupportedOptimizer(optimizer).into());
        }
        let mut mem = MemorySystem::with_storage(cfg, AddressMapping::GradPim);
        let mode =
            ModeRegisters { scalers: [0.0, 0.0, 0.0, 1.0], q8_exponent: -7, mix, eps: hyper.eps };
        mem.set_mode_registers(mode);
        Ok(Self { mem, groups, hyper, mode, steps: 0 })
    }

    /// The underlying memory system (stats, config, …).
    pub fn memory(&self) -> &MemorySystem {
        &self.mem
    }

    /// Current hyper-parameters.
    pub fn hyper(&self) -> &HyperParams {
        &self.hyper
    }

    fn optimizer(&self) -> OptimizerKind {
        self.groups[0].placement.optimizer()
    }

    fn mix(&self) -> PrecisionMix {
        self.groups[0].placement.mix()
    }

    /// Sets the learning rate of the steps that follow (§VIII "Learning
    /// Rate Scheduling"): each step programs its update passes' scalers
    /// from it over MRW, Adam's bias-corrected step size a_t included.
    ///
    /// # Errors
    ///
    /// None for a memory [`GradPimMemory::stacked`] built: no scaler is
    /// programmed before the next step, which compiles the update passes
    /// of the optimizer the memory was built for.
    pub fn set_lr(&mut self, lr: f32) -> Result<(), GradPimError> {
        self.hyper.lr = lr;
        Ok(())
    }

    fn mode_with_exponent(&self, e: i32) -> ModeRegisters {
        ModeRegisters { q8_exponent: e, ..self.mode }
    }

    /// Loads master weights and initializes their quantized shadow and any
    /// optimizer state to zero.
    ///
    /// # Panics
    ///
    /// Panics unless `theta` holds one value per parameter of every group.
    pub fn load_theta(&mut self, theta: &[f32]) {
        let parts = split(&self.groups, theta);
        for (g, part) in self.groups.iter_mut().zip(parts) {
            g.theta_exponent = Q8Scale::for_tensor(part).exponent;
            let mode = ModeRegisters { q8_exponent: g.theta_exponent, ..self.mode };
            let p = &g.placement;
            p.write(&mut self.mem, ArrayName::Theta, &mode, part);
            if p.has_array(ArrayName::QTheta) {
                p.write(&mut self.mem, ArrayName::QTheta, &mode, part);
            }
            let zeros = vec![0.0; part.len()];
            for state in [ArrayName::State0, ArrayName::State1] {
                if p.has_array(state) {
                    p.write(&mut self.mem, state, &mode, &zeros);
                }
            }
        }
    }

    /// Writes one step's gradients, as the NPU would after its backward
    /// pass: quantized into `Q(g)` under a fresh power-of-two scale per
    /// group for mixed precision, or directly into `g` for full precision.
    ///
    /// (This uses the storage backdoor; the *timed* gradient write-out is
    /// part of the backward phase in `gradpim-sim`, not of the update
    /// kernel.)
    ///
    /// # Panics
    ///
    /// Panics unless `grads` holds one value per parameter of every group.
    pub fn write_gradients(&mut self, grads: &[f32]) {
        let parts = split(&self.groups, grads);
        for (g, part) in self.groups.iter_mut().zip(parts) {
            if g.placement.mix().is_mixed() {
                g.grad_exponent = Q8Scale::for_tensor(part).exponent;
                let mode = ModeRegisters { q8_exponent: g.grad_exponent, ..self.mode };
                g.placement.write(&mut self.mem, ArrayName::QGrad, &mode, part);
            } else {
                g.placement.write(&mut self.mem, ArrayName::Grad, &self.mode, part);
            }
        }
    }

    /// Executes one in-DRAM update step over every group:
    ///
    /// 1. dequantization, one group at a time under its gradient scale;
    /// 2. one update wave per pass (the momentum family's one, Adam's two
    ///    of [`crate::xalu`]): the scaler bank programmed for the pass,
    ///    then every group's streams of the pass concatenated per unit and
    ///    run concurrently, so small groups ride along with big ones;
    /// 3. re-quantization, one group at a time under an exponent refreshed
    ///    from the updated θ (§VIII: "utilize the mode register and let
    ///    the NPU provide the new value").
    ///
    /// # Errors
    ///
    /// Propagates kernel-compilation and drain failures.
    pub fn step(&mut self) -> Result<StepReport, GradPimError> {
        let cfg = self.mem.config().clone();
        let mixed = self.mix().is_mixed();
        let mut commands = 0;

        let c0 = self.mem.cycles();
        if mixed {
            for gi in 0..self.groups.len() {
                let plan = compile_step(&self.groups[gi].placement, &self.hyper, &cfg, DEQUANT)?;
                let mode = self.mode_with_exponent(self.groups[gi].grad_exponent);
                commands += self.run(&plan.streams, mode)?;
            }
        }
        let c1 = self.mem.cycles();

        // The update passes, each group's streams merged into the pass.
        let t = self.steps + 1;
        let mut passes = Vec::new();
        for g in &self.groups {
            let plans = if self.optimizer() == OptimizerKind::Adam {
                Vec::from(compile_adam(&g.placement, &self.hyper, t, &cfg)?)
            } else {
                vec![compile_step(&g.placement, &self.hyper, &cfg, KernelParts::UPDATE_ONLY)?]
            };
            for (i, plan) in plans.into_iter().enumerate() {
                let Some(pass) = passes.get_mut(i) else {
                    passes.push(plan);
                    continue;
                };
                for s in plan.streams {
                    UnitStream::ops_of(&mut pass.streams, (s.channel, s.rank, s.bankgroup))
                        .extend(s.ops);
                }
            }
        }
        for pass in passes {
            self.mode.scalers = pass.scalers.to_mode_floats();
            commands += self.run(&pass.streams, self.mode)?;
        }

        if mixed {
            for gi in 0..self.groups.len() {
                let g = &self.groups[gi];
                let theta = g.placement.read(&self.mem, ArrayName::Theta, &self.mode);
                let exponent = Q8Scale::for_tensor(&theta).exponent;
                let plan = compile_step(&g.placement, &self.hyper, &cfg, QUANT)?;
                self.groups[gi].theta_exponent = exponent;
                commands += self.run(&plan.streams, self.mode_with_exponent(exponent))?;
            }
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

    /// Runs `streams` under `mode` through the PIM stream driver and
    /// drains; returns the number of commands run, one per op.
    fn run(&mut self, streams: &[UnitStream], mode: ModeRegisters) -> Result<u64, GradPimError> {
        self.mem.set_mode_registers(mode);
        run_unit_streams(&mut self.mem, streams)?;
        let commands = streams.iter().map(|s| s.ops.len() as u64).sum();
        // Generous budget: streams of millions of ops still drain well
        // before this.
        self.mem.drain(1_000_000 + commands * 64)?;
        self.mem.take_completions();
        Ok(commands)
    }

    /// Reads master array `name` of every group, in stacking order.
    fn read_array(&self, name: ArrayName) -> Vec<f32> {
        self.groups.iter().flat_map(|g| g.placement.read(&self.mem, name, &self.mode)).collect()
    }

    /// Reads the master weights θ.
    pub fn theta(&self) -> Vec<f32> {
        self.read_array(ArrayName::Theta)
    }

    /// Reads the optimizer's first state array (momentum v / Adam m).
    ///
    /// # Panics
    ///
    /// Panics if the optimizer keeps no state array.
    pub fn state0(&self) -> Vec<f32> {
        self.read_array(ArrayName::State0)
    }

    /// Reads the optimizer's second state array (Adam u).
    ///
    /// # Panics
    ///
    /// Panics if the optimizer keeps fewer than two state arrays.
    pub fn state1(&self) -> Vec<f32> {
        self.read_array(ArrayName::State1)
    }

    /// Reads the dequantized gradient array g (after a step's dequant
    /// phase).
    pub fn grad(&self) -> Vec<f32> {
        self.read_array(ArrayName::Grad)
    }

    /// Reads back what the NPU will see: the quantized weights,
    /// dequantized to f32, each group under its own scale. Full-precision
    /// configurations return θ itself.
    pub fn quantized_theta(&self) -> Vec<f32> {
        if !self.mix().is_mixed() {
            return self.theta();
        }
        self.groups
            .iter()
            .flat_map(|g| {
                let mode = self.mode_with_exponent(g.theta_exponent);
                g.placement.read(&self.mem, ArrayName::QTheta, &mode)
            })
            .collect()
    }

    /// Cumulative simulation statistics.
    pub fn stats(&self) -> Stats {
        self.mem.stats()
    }
}

/// `data` cut into the groups' slices, in stacking order.
///
/// # Panics
///
/// Panics unless `data` holds one value per parameter of every group.
fn split<'a>(groups: &[Group], data: &'a [f32]) -> Vec<&'a [f32]> {
    let total: usize = groups.iter().map(|g| g.placement.n_params()).sum();
    assert_eq!(data.len(), total, "array length mismatch");
    let mut rest = data;
    groups
        .iter()
        .map(|g| {
            let (head, tail) = rest.split_at(g.placement.n_params());
            rest = tail;
            head
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_dram::CommandKind;
    use gradpim_optim::{MomentumSgd, Optimizer, Sgd};

    fn hyper() -> HyperParams {
        HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() }
    }

    fn small_cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    /// Every optimizer a memory can hold, Adam on an extended-ALU device.
    fn every_optimizer() -> [(OptimizerKind, DramConfig); 4] {
        [
            (OptimizerKind::Sgd, small_cfg()),
            (OptimizerKind::MomentumSgd, small_cfg()),
            (OptimizerKind::Nag, small_cfg()),
            (OptimizerKind::Adam, DramConfig { extended_alu: true, ..small_cfg() }),
        ]
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

        // The counts derived from the compiled ops are the PIM commands
        // the memory issues, for every optimizer, mix and stacking.
        let pim_commands = |stats: &Stats| {
            let pim = &CommandKind::ALL[CommandKind::ScaledRead.index()..];
            pim.iter().map(|&k| stats.count(k)).sum::<u64>()
        };
        for (optimizer, cfg) in every_optimizer() {
            for mix in PrecisionMix::ALL {
                for sizes in [&[777][..], &[2048, 512]] {
                    let what = format!("{optimizer} {mix:?} {sizes:?}");
                    let mut gpm = GradPimMemory::stacked(
                        cfg.clone(),
                        optimizer,
                        mix,
                        HyperParams::default(),
                        sizes,
                    )
                    .unwrap();
                    let n: usize = sizes.iter().sum();
                    gpm.load_theta(&(0..n).map(|i| (i % 13) as f32 / 16.0).collect::<Vec<_>>());
                    for step in 0..2 {
                        gpm.write_gradients(&vec![0.25 - step as f32 / 8.0; n]);
                        let before = pim_commands(&gpm.stats());
                        let report = gpm.step().unwrap();
                        let issued = pim_commands(&report.stats) - before;
                        assert_eq!(report.commands, issued, "{what}, step {step}");
                    }
                }
            }
        }
    }

    #[test]
    fn requantization_takes_the_finest_scale_covering_the_updated_theta() {
        // Q(θ)'s exponent comes from the updated θ, so it needs no
        // headroom: max|θ| = 0.9 fits 127 · 2⁻⁷, and rounding stays within
        // half of that step.
        let n = 4096;
        let mut gpm = GradPimMemory::new(
            small_cfg(),
            OptimizerKind::Sgd,
            PrecisionMix::MIXED_8_32,
            hyper(),
            n,
        )
        .unwrap();
        gpm.load_theta(&(0..n).map(|i| 0.9 * (i as f32).sin()).collect::<Vec<_>>());
        gpm.write_gradients(&vec![0.0; n]);
        gpm.step().unwrap();
        let (q, theta) = (gpm.quantized_theta(), gpm.theta());
        let err = q.iter().zip(&theta).fold(0f32, |m, (a, b)| m.max((a - b).abs()));
        assert!(err <= 2f32.powi(-8), "max |Q(θ) − θ| = {err}");
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

        // Every optimizer takes a new rate at its next step, Adam through
        // a_t: a memory set to 0.5 steps as one built at 0.5, and unlike
        // one left at 0.05.
        let n = 512;
        for (optimizer, cfg) in every_optimizer() {
            let stepped = |lr: f32, set: Option<f32>| {
                let hyper = HyperParams { lr, ..hyper() };
                let mut gpm =
                    GradPimMemory::new(cfg.clone(), optimizer, PrecisionMix::FULL_32, hyper, n)
                        .unwrap();
                gpm.load_theta(&(0..n).map(|i| (i % 7) as f32 / 8.0).collect::<Vec<_>>());
                if let Some(lr) = set {
                    assert_eq!(gpm.set_lr(lr), Ok(()), "{optimizer}");
                }
                gpm.write_gradients(&vec![0.5; n]);
                gpm.step().unwrap();
                gpm.theta()
            };
            let reset = stepped(0.05, Some(0.5));
            assert_eq!(reset, stepped(0.5, None), "{optimizer}");
            let kept = stepped(0.05, None);
            assert!(reset.iter().zip(&kept).all(|(a, b)| a != b), "{optimizer}");
        }
    }

    #[test]
    fn two_groups_update_independently_and_match_references() {
        let mut net = GradPimMemory::stacked(
            DramConfig::ddr4_2133(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::FULL_32,
            hyper(),
            &[2048, 512],
        )
        .unwrap();
        let t1: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
        let t2: Vec<f32> = (0..512).map(|i| (i as f32 * 0.02).cos()).collect();
        net.load_theta(&[&t1[..], &t2[..]].concat());

        let mut r1 = MomentumSgd::new(0.125, 0.5, 0.0, 2048);
        let mut r2 = MomentumSgd::new(0.125, 0.5, 0.0, 512);
        let mut e1 = t1.clone();
        let mut e2 = t2.clone();
        for step in 0..3 {
            let g1: Vec<f32> = (0..2048).map(|i| ((i + step * 7) as f32 * 0.03).cos()).collect();
            let g2: Vec<f32> = (0..512).map(|i| ((i + step * 3) as f32 * 0.05).sin()).collect();
            net.write_gradients(&[&g1[..], &g2[..]].concat());
            net.step().unwrap();
            r1.step(&mut e1, &g1);
            r2.step(&mut e2, &g2);
        }
        let theta = net.theta();
        let (th1, th2) = theta.split_at(2048);
        assert_eq!(th1, e1, "group fc1");
        assert_eq!(th2, e2, "group fc2");
    }

    #[test]
    fn mixed_precision_groups_keep_separate_scales() {
        // Two groups with wildly different gradient magnitudes: per-group
        // exponents keep both accurate.
        let mut net = GradPimMemory::stacked(
            DramConfig::ddr4_2133(),
            OptimizerKind::Sgd,
            PrecisionMix::MIXED_8_32,
            HyperParams { lr: 0.5, weight_decay: 0.0, ..Default::default() },
            &[2048, 2048],
        )
        .unwrap();
        net.load_theta(&vec![0.0; 2 * 2048]);
        let g_big: Vec<f32> = (0..2048).map(|i| 100.0 + (i % 10) as f32).collect();
        let g_small: Vec<f32> = (0..2048).map(|i| 0.001 * (1.0 + (i % 10) as f32 / 10.0)).collect();
        net.write_gradients(&[&g_big[..], &g_small[..]].concat());
        net.step().unwrap();
        // θ = −lr·g within each group's own quantization step.
        let theta = net.theta();
        let (th_big, th_small) = theta.split_at(2048);
        let step_big = Q8Scale::for_max_abs(109.0).factor();
        let step_small = Q8Scale::for_max_abs(0.002).factor();
        for (t, g) in th_big.iter().zip(&g_big) {
            assert!((t + 0.5 * g).abs() <= 0.5 * step_big / 2.0 + 1e-4, "{t} vs {g}");
        }
        for (t, g) in th_small.iter().zip(&g_small) {
            assert!((t + 0.5 * g).abs() <= 0.5 * step_small / 2.0 + 1e-6, "{t} vs {g}");
        }
    }

    #[test]
    fn groups_are_isolated() {
        // Stepping with zero gradients in one group must leave the other
        // group's weights untouched (row stacking does not alias).
        let mut net = GradPimMemory::stacked(
            DramConfig::ddr4_2133(),
            OptimizerKind::Sgd,
            PrecisionMix::FULL_32,
            HyperParams { lr: 0.25, weight_decay: 0.0, ..Default::default() },
            &[4096, 4096],
        )
        .unwrap();
        let ta: Vec<f32> = (0..4096).map(|i| i as f32 * 0.001).collect();
        let tb: Vec<f32> = (0..4096).map(|i| -(i as f32) * 0.002).collect();
        net.load_theta(&[&ta[..], &tb[..]].concat());
        net.write_gradients(&[vec![1.0; 4096], vec![0.0; 4096]].concat());
        net.step().unwrap();
        let theta = net.theta();
        let (a, b) = theta.split_at(4096);
        assert_eq!(b, tb, "group b must be unchanged");
        for (x, x0) in a.iter().zip(&ta) {
            assert!((x - (x0 - 0.25)).abs() < 1e-6);
        }
    }

    #[test]
    fn stacking_overflows_are_reported() {
        let mut cfg = DramConfig::ddr4_2133();
        cfg.rows = 8; // tiny device
        let err = GradPimMemory::stacked(
            cfg,
            OptimizerKind::Sgd,
            PrecisionMix::MIXED_8_32,
            HyperParams::default(),
            &[
                2048 * 16 * 4, // 4 rows of chunks
                2048 * 16 * 8,
            ],
        )
        .unwrap_err();
        assert!(matches!(err, GradPimError::Placement(_)), "{err}");
    }
}
