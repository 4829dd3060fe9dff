//! Extended-ALU kernels for adaptive optimizers (§VIII "Supporting Other
//! Kinds of Parameter Update Algorithms").
//!
//! The paper's base ALU supports add/sub only, which covers the momentum
//! family; §VIII notes that algorithms with decaying factors or second-order
//! momentum (Adam, AdaGrad, RMSprop) "require more complexity", can use the
//! spare banks of the bank group for extra state, run "in multiple passes",
//! and need "change in the ALU of the GradPIM unit". This module implements
//! that extension:
//!
//! * two new ALU ops — parallel multiply and reciprocal square root — behind
//!   `DramConfig::extended_alu`;
//! * a two-pass Adam kernel with MRW scaler reprogramming between passes
//!   (pass 1 updates both moment arrays, pass 2 applies the bias-corrected
//!   step), following the paper's sketch exactly: four banks hold θ, g, m,
//!   u, and the intermediate values never leave the bank group.
//!
//! [`compile_adam`] returns the two passes as two [`StepPlan`]s, each with
//! its own scalers, so a step runs Adam as it runs the momentum family's
//! one pass: program the pass's scalers, run its streams, repeat.
//!
//! Pass structure per column (momentum-SGD baseline is 9 ops — the §VIII
//! prediction "slightly degrade the speedup" lands at 17 ops):
//!
//! ```text
//! pass 1 (slots: β₁, 1−β₁, β₂, √(1−β₂)):
//!   SR m×β₁→R0; SR g×(1−β₁)→R1; Add→R0; WB m            (m ← β₁m + (1−β₁)g)
//!   SR g×√(1−β₂)→R0; SR g×√(1−β₂)→R1; Mul→R1;
//!   SR u×β₂→R0; Add→R0; WB u                            (u ← β₂u + (1−β₂)g²)
//! pass 2 (slots: −a_t, ·, ·, 1), a_t = η·√(1−β₂ᵗ)/(1−β₁ᵗ):
//!   SR u×1→R0; Rsqrt→R0; SR m×(−a_t)→R1; Mul→R0;
//!   SR θ×1→R1; Add→R1; WB θ                             (θ ← θ − a_t·m/√(u+ε))
//! ```

use gradpim_dram::{DramConfig, PimOp};
use gradpim_optim::{HyperParams, OptimizerKind};

use crate::kernel::{KernelError, StepPlan, UnitStream};
use crate::placement::{ArrayName, Placement};
use crate::scaler::ScalerBank;

/// The exact constants the hardware will use after ±(2ⁿ ± 2ᵐ)
/// approximation — exposed so references/tests can mirror the datapath.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdamConstants {
    /// Approximated β₁.
    pub beta1: f32,
    /// Approximated 1−β₁.
    pub one_minus_beta1: f32,
    /// Approximated β₂.
    pub beta2: f32,
    /// Approximated √(1−β₂).
    pub sqrt_one_minus_beta2: f32,
    /// Approximated −a_t (negative bias-corrected step size).
    pub neg_step: f32,
}

/// Computes the bias-corrected step size `a_t` for step `t` (1-based).
pub fn adam_step_size(hyper: &HyperParams, t: u64) -> f64 {
    let b1 = hyper.beta1 as f64;
    let b2 = hyper.beta2 as f64;
    let t = t.max(1) as i32;
    hyper.lr as f64 * (1.0 - b2.powi(t)).sqrt() / (1.0 - b1.powi(t))
}

/// The scaler banks for both passes at step `t`, plus the approximated
/// constants.
pub fn adam_scalers(hyper: &HyperParams, t: u64) -> (ScalerBank, ScalerBank, AdamConstants) {
    let b1 = hyper.beta1 as f64;
    let b2 = hyper.beta2 as f64;
    let s1 = ScalerBank::program([b1, 1.0 - b1, b2, (1.0 - b2).sqrt()]);
    let a_t = adam_step_size(hyper, t);
    let s2 = ScalerBank::program([-a_t, 0.0, 0.0, 1.0]);
    let f1 = s1.to_mode_floats();
    let f2 = s2.to_mode_floats();
    let consts = AdamConstants {
        beta1: f1[0],
        one_minus_beta1: f1[1],
        beta2: f1[2],
        sqrt_one_minus_beta2: f1[3],
        neg_step: f2[0],
    };
    (s1, s2, consts)
}

/// Compiles the two-pass Adam step for step number `t` (1-based, for bias
/// correction): the moment updates under (β₁, 1−β₁, β₂, √(1−β₂)), then
/// the bias-corrected weight update under (−a_t, 0, 0, 1).
///
/// # Errors
///
/// [`KernelError::UnsupportedOptimizer`] if the placement is not for Adam
/// or the device lacks the extended ALU.
pub fn compile_adam(
    placement: &Placement,
    hyper: &HyperParams,
    t: u64,
    cfg: &DramConfig,
) -> Result<[StepPlan; 2], KernelError> {
    if placement.optimizer() != OptimizerKind::Adam || !cfg.extended_alu {
        return Err(KernelError::UnsupportedOptimizer(placement.optimizer()));
    }
    let (scalers1, scalers2, _) = adam_scalers(hyper, t);
    let theta = *placement.array(ArrayName::Theta);
    let grad = *placement.array(ArrayName::Grad);
    let m = *placement.array(ArrayName::State0);
    let u = *placement.array(ArrayName::State1);

    let (mut pass1, mut pass2) = (Vec::new(), Vec::new());
    for chunk in placement.chunks(cfg) {
        let t_row = theta.base_row + chunk.row_offset;
        let g_row = grad.base_row + chunk.row_offset;
        let m_row = m.base_row + chunk.row_offset;
        let u_row = u.base_row + chunk.row_offset;

        let ops = UnitStream::ops_of(&mut pass1, (chunk.channel, chunk.rank, chunk.bankgroup));
        for col in 0..chunk.cols {
            // m ← β₁·m + (1−β₁)·g
            ops.push(PimOp::ScaledRead { bank: m.bank, row: m_row, col, scaler: 0, dst: 0 });
            ops.push(PimOp::ScaledRead { bank: grad.bank, row: g_row, col, scaler: 1, dst: 1 });
            ops.push(PimOp::Add { bank: m.bank, dst: 0 });
            ops.push(PimOp::Writeback { bank: m.bank, row: m_row, col, src: 0 });
            // u ← β₂·u + (√(1−β₂)·g)²
            ops.push(PimOp::ScaledRead { bank: grad.bank, row: g_row, col, scaler: 3, dst: 0 });
            ops.push(PimOp::ScaledRead { bank: grad.bank, row: g_row, col, scaler: 3, dst: 1 });
            ops.push(PimOp::Mul { bank: u.bank, dst: 1 });
            ops.push(PimOp::ScaledRead { bank: u.bank, row: u_row, col, scaler: 2, dst: 0 });
            ops.push(PimOp::Add { bank: u.bank, dst: 0 });
            ops.push(PimOp::Writeback { bank: u.bank, row: u_row, col, src: 0 });
        }

        let ops = UnitStream::ops_of(&mut pass2, (chunk.channel, chunk.rank, chunk.bankgroup));
        for col in 0..chunk.cols {
            // θ ← θ + (−a_t)·m · 1/√(u+ε)
            ops.push(PimOp::ScaledRead { bank: u.bank, row: u_row, col, scaler: 3, dst: 0 });
            ops.push(PimOp::Rsqrt { bank: u.bank, dst: 0 });
            ops.push(PimOp::ScaledRead { bank: m.bank, row: m_row, col, scaler: 0, dst: 1 });
            ops.push(PimOp::Mul { bank: m.bank, dst: 0 });
            ops.push(PimOp::ScaledRead { bank: theta.bank, row: t_row, col, scaler: 3, dst: 1 });
            ops.push(PimOp::Add { bank: theta.bank, dst: 1 });
            ops.push(PimOp::Writeback { bank: theta.bank, row: t_row, col, src: 1 });
        }
    }
    Ok([
        StepPlan { streams: pass1, scalers: scalers1 },
        StepPlan { streams: pass2, scalers: scalers2 },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelCounts;
    use gradpim_optim::PrecisionMix;

    fn cfg_ext() -> DramConfig {
        let mut c = DramConfig::ddr4_2133();
        c.extended_alu = true;
        c
    }

    fn hyper() -> HyperParams {
        // Power-of-two-friendly betas: β₁ = 0.5, β₂ = 0.75 (= 2⁻¹ + 2⁻²),
        // √(1−β₂) = 0.5 — all exact in the scaler lattice.
        HyperParams { lr: 0.125, beta1: 0.5, beta2: 0.75, eps: 1e-8, ..Default::default() }
    }

    #[test]
    fn requires_extended_alu() {
        let base = DramConfig::ddr4_2133();
        let p = Placement::for_optimizer(OptimizerKind::Adam, PrecisionMix::FULL_32, 1024, &base)
            .unwrap();
        assert!(compile_adam(&p, &hyper(), 1, &base).is_err());
        assert!(compile_adam(&p, &hyper(), 1, &cfg_ext()).is_ok());
    }

    #[test]
    fn rejects_non_adam_placements() {
        let c = cfg_ext();
        let p =
            Placement::for_optimizer(OptimizerKind::MomentumSgd, PrecisionMix::FULL_32, 1024, &c)
                .unwrap();
        assert!(compile_adam(&p, &hyper(), 1, &c).is_err());
    }

    #[test]
    fn op_counts_are_seventeen_per_column() {
        let c = cfg_ext();
        let p =
            Placement::for_optimizer(OptimizerKind::Adam, PrecisionMix::FULL_32, 2048, &c).unwrap();
        let [pass1, pass2] = compile_adam(&p, &hyper(), 1, &c).unwrap();
        let counts = KernelCounts::of(&[pass1.streams, pass2.streams].concat());
        let cols = 128u64;
        assert_eq!(counts.scaled_reads, cols * 8);
        assert_eq!(counts.writebacks, cols * 3);
        assert_eq!(counts.alu_ops, cols * 6); // 2 Add + 1 Mul | Rsqrt + Mul + Add
        assert_eq!(counts.total(), cols * 17);
    }

    #[test]
    fn scaler_constants_exact_for_pow2_betas() {
        let (_, _, consts) = adam_scalers(&hyper(), 1);
        assert_eq!(consts.beta1, 0.5);
        assert_eq!(consts.one_minus_beta1, 0.5);
        assert_eq!(consts.beta2, 0.75);
        assert_eq!(consts.sqrt_one_minus_beta2, 0.5);
    }

    #[test]
    fn bias_correction_converges_to_lr() {
        let h = hyper();
        // With β₁ = β₂-driven warmup the step size settles at η.
        let a_inf = adam_step_size(&h, 10_000);
        assert!((a_inf - h.lr as f64).abs() < 1e-6, "a_inf -> lr, got {a_inf}");
        // For the customary (0.9, 0.999) betas the combined correction
        // √(1−β₂ᵗ)/(1−β₁ᵗ) ramps from √(1−β₂)/(1−β₁) ≈ 0.32 up to 1: the
        // second-moment correction dominates early.
        let hd = HyperParams::default();
        let a1 = adam_step_size(&hd, 1);
        assert!((a1 / hd.lr as f64 - 0.316).abs() < 0.01, "a1 = {a1}");
        assert!(adam_step_size(&hd, 1_000) < adam_step_size(&hd, 100_000));
    }

    #[test]
    fn streams_cover_all_units() {
        let c = cfg_ext();
        let p = Placement::for_optimizer(OptimizerKind::Adam, PrecisionMix::FULL_32, 2048 * 16, &c)
            .unwrap();
        let [pass1, pass2] = compile_adam(&p, &hyper(), 3, &c).unwrap();
        assert_eq!(pass1.streams.len(), 16);
        assert_eq!(pass2.streams.len(), 16);
    }
}
