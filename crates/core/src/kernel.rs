//! The GradPIM kernel compiler: optimizer algebra → per-unit command
//! streams (§IV-D, Fig. 5).
//!
//! One *step* of mixed-precision training compiles into three sub-kernels
//! per bank-group unit, over the columns that unit owns:
//!
//! 1. **Dequantization** (Fig. 5 top): `Q(g)` columns → quantization
//!    register → dequantized `g` columns, written back in master precision.
//! 2. **Parameter update** (Fig. 5 middle): scaled reads of g, v, θ with
//!    the MRW-pinned scaler slots, parallel adds, and writebacks of v and θ.
//! 3. **Quantization** (Fig. 5 bottom): θ columns → quant register →
//!    `Q(θ)` columns for the next forward pass.
//!
//! Scaler-slot convention for momentum SGD with weight decay (Eq. 3/4):
//! slot 0 = −η, slot 1 = α, slot 2 = −ηβ, slot 3 = +1.
//!
//! A compiled kernel is its op streams: [`compile_step`] emits the
//! selected sub-kernels ([`KernelParts`]) as one [`StepPlan`], and the
//! plan's [`KernelCounts`] are counted from those ops, never kept beside
//! them. A step's update is a sequence of such plans, one per pass, each
//! with its own scaler programming: one for the momentum family, two for
//! Adam ([`crate::xalu::compile_adam`]).
//!
//! [`run_unit_streams`] feeds compiled streams to a [`MemorySystem`]; it is
//! the one PIM stream driver, shared by [`crate::GradPimMemory`] and the
//! phase executors of `gradpim-sim`.

use gradpim_dram::{DramConfig, MemError, MemorySystem, PimOp};
use gradpim_optim::{HyperParams, OptimizerKind};

use crate::placement::{ArrayName, Chunk, Placement};
use crate::scaler::ScalerBank;

/// Scaler-slot ids used by the generated kernels.
pub mod slots {
    /// Slot 0: −η (negative learning rate).
    pub const NEG_LR: u8 = 0;
    /// Slot 1: α (momentum decay).
    pub const MOMENTUM: u8 = 1;
    /// Slot 2: −ηβ (negative learning rate × weight decay).
    pub const NEG_LR_WD: u8 = 2;
    /// Slot 3: +1 (identity; used for plain loads and the quantization
    /// kernel).
    pub const ONE: u8 = 3;
}

/// Why a kernel could not be compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelError {
    /// The optimizer is not expressible with the base GradPIM primitive set
    /// in a single pass (§VIII: Adam/AdaGrad/RMSprop need element-wise
    /// squares and square roots, which the add/sub ALU does not provide).
    UnsupportedOptimizer(OptimizerKind),
}

impl std::fmt::Display for KernelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelError::UnsupportedOptimizer(k) => {
                write!(f, "{k} is not expressible with the base GradPIM ALU (see §VIII)")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// The command stream destined for one GradPIM unit.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitStream {
    /// Channel of the unit.
    pub channel: usize,
    /// Rank of the unit.
    pub rank: u8,
    /// Bank group of the unit.
    pub bankgroup: u8,
    /// In-order micro-ops.
    pub ops: Vec<PimOp>,
}

impl UnitStream {
    /// The ops of `unit` (channel, rank, bank group) in `streams`, after
    /// appending an empty stream if the unit has none: streams keep the
    /// order in which their units first appear.
    pub fn ops_of(streams: &mut Vec<UnitStream>, unit: (usize, u8, u8)) -> &mut Vec<PimOp> {
        let i = streams.iter().position(|s| (s.channel, s.rank, s.bankgroup) == unit);
        let i = i.unwrap_or_else(|| {
            let (channel, rank, bankgroup) = unit;
            streams.push(UnitStream { channel, rank, bankgroup, ops: Vec::new() });
            streams.len() - 1
        });
        &mut streams[i].ops
    }
}

/// Static op-count analytics for compiled streams (drives the performance
/// model and the Fig. 11 command-pressure analysis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounts {
    /// Scaled reads.
    pub scaled_reads: u64,
    /// Writebacks.
    pub writebacks: u64,
    /// Parallel adds/subs.
    pub alu_ops: u64,
    /// Quantization-register loads/stores.
    pub qreg_moves: u64,
    /// Quant + dequant ALU ops.
    pub quant_ops: u64,
}

impl KernelCounts {
    /// The counts of the ops in `streams`.
    pub fn of(streams: &[UnitStream]) -> Self {
        let mut counts = Self::default();
        for op in streams.iter().flat_map(|s| &s.ops) {
            let count = match op {
                PimOp::ScaledRead { .. } => &mut counts.scaled_reads,
                PimOp::Writeback { .. } => &mut counts.writebacks,
                PimOp::Add { .. } | PimOp::Sub { .. } | PimOp::Mul { .. } | PimOp::Rsqrt { .. } => {
                    &mut counts.alu_ops
                }
                PimOp::QRegLoad { .. } | PimOp::QRegStore { .. } => &mut counts.qreg_moves,
                PimOp::Quant { .. } | PimOp::Dequant { .. } => &mut counts.quant_ops,
            };
            *count += 1;
        }
        counts
    }

    /// Total commands.
    pub fn total(&self) -> u64 {
        self.scaled_reads + self.writebacks + self.alu_ops + self.qreg_moves + self.quant_ops
    }
}

/// One compiled pass: per-unit streams plus the scaler programming they
/// run under.
#[derive(Debug, Clone, PartialEq)]
pub struct StepPlan {
    /// Streams, one per participating unit.
    pub streams: Vec<UnitStream>,
    /// The scaler values the pass expects in the mode registers.
    pub scalers: ScalerBank,
}

impl StepPlan {
    /// Op-count analytics of the streams.
    pub fn counts(&self) -> KernelCounts {
        KernelCounts::of(&self.streams)
    }
}

/// Which of the three §IV-D sub-kernels to emit.
///
/// The paper's update-phase measurements time the Fig. 5 (middle) update
/// procedure; dequantization overlaps the tail of the backward pass (Q(g)
/// columns dequantize as they arrive) and quantization overlaps the next
/// forward pass (Q(θ) columns stream out as they are consumed), so the
/// system simulator schedules them concurrently with those phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelParts {
    /// Emit the Fig. 5 (top) dequantization kernel.
    pub dequant: bool,
    /// Emit the Fig. 5 (middle) parameter-update kernel.
    pub update: bool,
    /// Emit the Fig. 5 (bottom) quantization kernel.
    pub quant: bool,
}

impl KernelParts {
    /// Every sub-kernel: a whole training step.
    pub const ALL: Self = Self { dequant: true, update: true, quant: true };
    /// The update procedure only (the paper's timed update phase).
    pub const UPDATE_ONLY: Self = Self { dequant: false, update: true, quant: false };
    /// Quantization + dequantization only (overlapped with fwd/bwd).
    pub const QUANT_DEQUANT: Self = Self { dequant: true, update: false, quant: true };
}

/// Compiles the scaler bank for `optimizer` under `hyper`.
///
/// # Errors
///
/// [`KernelError::UnsupportedOptimizer`] for optimizers outside the base
/// primitive set.
pub fn scaler_bank_for(
    optimizer: OptimizerKind,
    hyper: &HyperParams,
) -> Result<ScalerBank, KernelError> {
    if !optimizer.single_pass() {
        return Err(KernelError::UnsupportedOptimizer(optimizer));
    }
    let lr = hyper.lr as f64;
    let alpha = hyper.momentum as f64;
    let wd = hyper.weight_decay as f64;
    Ok(ScalerBank::program([-lr, alpha, -lr * wd, 1.0]))
}

/// Compiles the selected sub-kernels of one training step (see
/// [`KernelParts`]) for every unit that owns part of the parameter group.
///
/// # Errors
///
/// [`KernelError::UnsupportedOptimizer`] for an update kernel of an
/// optimizer outside the base primitive set.
pub fn compile_step(
    placement: &Placement,
    hyper: &HyperParams,
    cfg: &DramConfig,
    parts: KernelParts,
) -> Result<StepPlan, KernelError> {
    // Quant/dequant-only compilations need just the identity scaler slot,
    // so they work for any optimizer (the adaptive ones run their update
    // through `crate::xalu` instead).
    let scalers = if parts.update {
        scaler_bank_for(placement.optimizer(), hyper)?
    } else {
        ScalerBank::program([0.0, 0.0, 0.0, 1.0])
    };
    let mixed = placement.mix().is_mixed();
    let ratio = placement.mix().quant_ratio();
    let mut streams = Vec::new();
    for chunk in placement.chunks(cfg) {
        let ops = UnitStream::ops_of(&mut streams, (chunk.channel, chunk.rank, chunk.bankgroup));
        if mixed && parts.dequant {
            emit_dequant(placement, &chunk, ratio, ops);
        }
        if parts.update {
            emit_update(placement, hyper, &chunk, ops);
        }
        if mixed && parts.quant {
            emit_quant(placement, &chunk, ratio, ops);
        }
    }
    Ok(StepPlan { streams, scalers })
}

/// Ops a round offers one stream, at most, to keep the queues balanced.
const BATCH: usize = 64;

/// Enqueues per-unit op streams round-robin with backpressure,
/// fast-forwarding over dead cycles; the caller drains.
///
/// A round offers each unfinished stream a batch of up to 64 ops, in
/// stream order, cut to the room its queue has, so no enqueue meets a full
/// queue. Once the room has cut every unfinished stream's batch short,
/// every unfinished stream's queue is full and no enqueue can succeed
/// before the simulator moves, so the loop steps right away. After a step
/// only the queues that retired an op there have room
/// ([`MemorySystem::take_pim_retired`]), so the next round offers only
/// their streams: the enqueues are exactly those of a round over every
/// stream, without asking every other stream's queue for the room it
/// lacks.
///
/// # Errors
///
/// [`MemError::NoSuchUnit`] for a stream naming a unit or an op naming a
/// bank the device does not have, before anything is enqueued.
pub fn run_unit_streams(mem: &mut MemorySystem, streams: &[UnitStream]) -> Result<(), MemError> {
    for s in streams {
        mem.check_pim(s.channel, s.rank, s.bankgroup, &s.ops)?;
    }
    let cfg = mem.config();
    let (channels, bankgroups, queues) = (cfg.channels, cfg.bankgroups, cfg.ranks * cfg.bankgroups);
    // The streams of channel `c`'s PIM queue `q` at `c * queues + q`, in
    // stream order.
    let mut by_queue = vec![Vec::new(); channels * queues];
    for (i, s) in streams.iter().enumerate() {
        by_queue[s.channel * queues + usize::from(s.rank) * bankgroups + usize::from(s.bankgroup)]
            .push(i);
    }
    for c in 0..channels {
        mem.take_pim_retired(c);
    }
    let mut cursors = vec![0usize; streams.len()];
    let mut unfinished = streams.iter().filter(|s| !s.ops.is_empty()).count();
    // The streams the next round offers a batch, in stream order.
    let mut offer: Vec<usize> = (0..streams.len()).collect();
    loop {
        let mut all_full = true;
        for &i in &offer {
            let (s, cursor) = (&streams[i], &mut cursors[i]);
            let left = &s.ops[*cursor..];
            if left.is_empty() {
                continue;
            }
            let batch = left.len().min(BATCH);
            let room = mem.pim_room(s.channel, s.rank, s.bankgroup);
            let n = batch.min(room);
            for &op in &left[..n] {
                mem.enqueue_pim(s.channel, s.rank, s.bankgroup, op)?;
            }
            *cursor += n;
            if *cursor == s.ops.len() {
                unfinished -= 1;
            } else {
                all_full &= room < batch;
            }
        }
        if unfinished == 0 {
            break;
        }
        // Unless every unfinished queue is full, some stream took a whole
        // batch and may take more: the next round offers the same
        // streams, since no queue outside `offer` gained room.
        if all_full {
            mem.tick_until_event();
            offer.clear();
            for c in 0..channels {
                let mut retired = mem.take_pim_retired(c);
                while retired != 0 {
                    offer.extend(&by_queue[c * queues + retired.trailing_zeros() as usize]);
                    retired &= retired - 1;
                }
            }
            offer.sort_unstable();
            #[cfg(debug_assertions)]
            check_offer(mem, streams, &cursors, &offer);
        }
    }
    Ok(())
}

/// Debug builds only: checks that every unfinished stream a round leaves
/// out of `offer` has a full queue, so offering it would enqueue nothing.
#[cfg(debug_assertions)]
fn check_offer(mem: &MemorySystem, streams: &[UnitStream], cursors: &[usize], offer: &[usize]) {
    for (i, (s, &cursor)) in streams.iter().zip(cursors).enumerate() {
        if cursor < s.ops.len() && offer.binary_search(&i).is_err() {
            let room = mem.pim_room(s.channel, s.rank, s.bankgroup);
            debug_assert_eq!(room, 0, "stream {i} has room but is not offered a batch");
        }
    }
}

/// Fig. 5 (top): dequantize `Q(g)` into `g` for one chunk.
fn emit_dequant(p: &Placement, chunk: &Chunk, ratio: usize, ops: &mut Vec<PimOp>) {
    let qg = *p.array(ArrayName::QGrad);
    let g = *p.array(ArrayName::Grad);
    let g_row = g.base_row + chunk.row_offset;
    let q_row = qg.base_row + chunk.row_offset;
    let qcols = (chunk.cols as usize).div_ceil(ratio) as u32;
    for qcol in 0..qcols {
        // ① load one column of Q(g) into the quantization register.
        ops.push(PimOp::QRegLoad { bank: qg.bank, row: q_row, col: qcol });
        // ② dequantize each slice and write the master column back.
        for pos in 0..ratio as u32 {
            let col = qcol * ratio as u32 + pos;
            if col >= chunk.cols {
                break;
            }
            ops.push(PimOp::Dequant { bank: g.bank, pos: pos as u8, dst: 0 });
            ops.push(PimOp::Writeback { bank: g.bank, row: g_row, col, src: 0 });
        }
    }
}

/// Fig. 5 (middle): the update procedure for one chunk.
fn emit_update(p: &Placement, hyper: &HyperParams, chunk: &Chunk, ops: &mut Vec<PimOp>) {
    let theta = *p.array(ArrayName::Theta);
    let grad = *p.array(ArrayName::Grad);
    let t_row = theta.base_row + chunk.row_offset;
    let g_row = grad.base_row + chunk.row_offset;
    match p.optimizer() {
        OptimizerKind::Sgd => {
            let wd = hyper.weight_decay != 0.0;
            for col in 0..chunk.cols {
                // R0 ← −η·g
                ops.push(PimOp::ScaledRead {
                    bank: grad.bank,
                    row: g_row,
                    col,
                    scaler: slots::NEG_LR,
                    dst: 0,
                });
                if wd {
                    // R1 ← −ηβ·θ ; R0 ← R0 + R1
                    ops.push(PimOp::ScaledRead {
                        bank: theta.bank,
                        row: t_row,
                        col,
                        scaler: slots::NEG_LR_WD,
                        dst: 1,
                    });
                    ops.push(PimOp::Add { bank: theta.bank, dst: 0 });
                }
                // R1 ← θ ; R1 ← R0 + R1 ; θ ← R1
                ops.push(PimOp::ScaledRead {
                    bank: theta.bank,
                    row: t_row,
                    col,
                    scaler: slots::ONE,
                    dst: 1,
                });
                ops.push(PimOp::Add { bank: theta.bank, dst: 1 });
                ops.push(PimOp::Writeback { bank: theta.bank, row: t_row, col, src: 1 });
            }
        }
        OptimizerKind::MomentumSgd => {
            let vel = *p.array(ArrayName::State0);
            let v_row = vel.base_row + chunk.row_offset;
            let wd = hyper.weight_decay != 0.0;
            for col in 0..chunk.cols {
                // ① R0 ← −η·g ; R1 ← α·v
                ops.push(PimOp::ScaledRead {
                    bank: grad.bank,
                    row: g_row,
                    col,
                    scaler: slots::NEG_LR,
                    dst: 0,
                });
                ops.push(PimOp::ScaledRead {
                    bank: vel.bank,
                    row: v_row,
                    col,
                    scaler: slots::MOMENTUM,
                    dst: 1,
                });
                // ② R1 ← R0 + R1 (= αv − ηg)
                ops.push(PimOp::Add { bank: vel.bank, dst: 1 });
                if wd {
                    // ③ R0 ← −ηβ·θ ; ④ R1 ← R0 + R1 (= v_t, Eq. 4)
                    ops.push(PimOp::ScaledRead {
                        bank: theta.bank,
                        row: t_row,
                        col,
                        scaler: slots::NEG_LR_WD,
                        dst: 0,
                    });
                    ops.push(PimOp::Add { bank: theta.bank, dst: 1 });
                }
                // ⑤ v ← R1
                ops.push(PimOp::Writeback { bank: vel.bank, row: v_row, col, src: 1 });
                // ⑥ R0 ← θ ; R0 ← R0 + R1 (= θ + v_t, Eq. 3) ; θ ← R0
                ops.push(PimOp::ScaledRead {
                    bank: theta.bank,
                    row: t_row,
                    col,
                    scaler: slots::ONE,
                    dst: 0,
                });
                ops.push(PimOp::Add { bank: theta.bank, dst: 0 });
                ops.push(PimOp::Writeback { bank: theta.bank, row: t_row, col, src: 0 });
            }
        }
        OptimizerKind::Nag => {
            let vel = *p.array(ArrayName::State0);
            let v_row = vel.base_row + chunk.row_offset;
            for col in 0..chunk.cols {
                // v_t = α·v − η·g
                ops.push(PimOp::ScaledRead {
                    bank: grad.bank,
                    row: g_row,
                    col,
                    scaler: slots::NEG_LR,
                    dst: 0,
                });
                ops.push(PimOp::ScaledRead {
                    bank: vel.bank,
                    row: v_row,
                    col,
                    scaler: slots::MOMENTUM,
                    dst: 1,
                });
                ops.push(PimOp::Add { bank: vel.bank, dst: 1 });
                ops.push(PimOp::Writeback { bank: vel.bank, row: v_row, col, src: 1 });
                // θ' = θ + α·v_t − η·g : reread the just-written v_t scaled
                // by α (the row is open; the register transfer ordering is
                // guaranteed by the in-order unit queue).
                ops.push(PimOp::ScaledRead {
                    bank: vel.bank,
                    row: v_row,
                    col,
                    scaler: slots::MOMENTUM,
                    dst: 1,
                });
                ops.push(PimOp::Add { bank: vel.bank, dst: 1 }); // R1 = αv_t − ηg... R0 still −ηg
                ops.push(PimOp::ScaledRead {
                    bank: theta.bank,
                    row: t_row,
                    col,
                    scaler: slots::ONE,
                    dst: 0,
                });
                ops.push(PimOp::Add { bank: theta.bank, dst: 0 });
                ops.push(PimOp::Writeback { bank: theta.bank, row: t_row, col, src: 0 });
            }
        }
        other => unreachable!("scaler_bank_for already rejected {other}"),
    }
}

/// Fig. 5 (bottom): quantize θ into `Q(θ)` for one chunk.
fn emit_quant(p: &Placement, chunk: &Chunk, ratio: usize, ops: &mut Vec<PimOp>) {
    let qt = *p.array(ArrayName::QTheta);
    let theta = *p.array(ArrayName::Theta);
    let t_row = theta.base_row + chunk.row_offset;
    let q_row = qt.base_row + chunk.row_offset;
    let qcols = (chunk.cols as usize).div_ceil(ratio) as u32;
    for qcol in 0..qcols {
        // ① load and quantize ratio columns of θ.
        for pos in 0..ratio as u32 {
            let col = qcol * ratio as u32 + pos;
            if col >= chunk.cols {
                break;
            }
            ops.push(PimOp::ScaledRead {
                bank: theta.bank,
                row: t_row,
                col,
                scaler: slots::ONE,
                dst: 0,
            });
            ops.push(PimOp::Quant { bank: theta.bank, pos: pos as u8, src: 0 });
        }
        // ② write the filled quantization register to Q(θ).
        ops.push(PimOp::QRegStore { bank: qt.bank, row: q_row, col: qcol });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gradpim_dram::DramConfig;
    use gradpim_optim::PrecisionMix;

    fn plan(optimizer: OptimizerKind, mix: PrecisionMix, n: usize) -> StepPlan {
        let cfg = DramConfig::ddr4_2133();
        let placement = Placement::for_optimizer(optimizer, mix, n, &cfg).unwrap();
        compile_step(&placement, &HyperParams::default(), &cfg, KernelParts::ALL).unwrap()
    }

    #[test]
    fn momentum_with_wd_is_nine_ops_per_column_plus_quant() {
        // One full chunk = 128 columns in one bank group.
        let p = plan(OptimizerKind::MomentumSgd, PrecisionMix::MIXED_8_32, 2048);
        assert_eq!(p.streams.len(), 1);
        let cols = 128u64;
        // Update: 4 SR + 3 Add + 2 WB per column (Fig. 5 steps ①–⑥ with
        // weight decay).
        // Dequant: (1 QRegLoad)/4 + 1 Dequant + 1 WB per column.
        // Quant: 1 SR + 1 Quant per column + (1 QRegStore)/4.
        assert_eq!(p.counts().scaled_reads, cols * (4 + 1));
        assert_eq!(p.counts().alu_ops, cols * 3);
        assert_eq!(p.counts().writebacks, cols * (2 + 1));
        assert_eq!(p.counts().qreg_moves, cols / 4 * 2);
        assert_eq!(p.counts().quant_ops, cols * 2);
        // Total per column: 9 + 2.25 + 2.25 = 13.5.
        assert_eq!(p.counts().total(), cols * 13 + cols / 2);
    }

    #[test]
    fn momentum_without_wd_drops_two_ops_per_column() {
        let cfg = DramConfig::ddr4_2133();
        let placement = Placement::for_optimizer(
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            2048,
            &cfg,
        )
        .unwrap();
        let hyper = HyperParams { weight_decay: 0.0, ..Default::default() };
        let p = compile_step(&placement, &hyper, &cfg, KernelParts::ALL).unwrap();
        assert_eq!(p.counts().scaled_reads, 128 * 4); // 3 update + 1 quant
        assert_eq!(p.counts().alu_ops, 128 * 2);
    }

    #[test]
    fn full_precision_skips_quant_kernels() {
        let p = plan(OptimizerKind::MomentumSgd, PrecisionMix::FULL_32, 2048);
        assert_eq!(p.counts().qreg_moves, 0);
        assert_eq!(p.counts().quant_ops, 0);
        // Columns: 2048 f32 = 128 cols. 4 SR + 3 Add + 2 WB each.
        assert_eq!(p.counts().total(), 128 * 9);
    }

    #[test]
    fn streams_cover_all_bankgroups_for_large_arrays() {
        // 2048 × 16 chunks = all 4 bank groups × 4 ranks.
        let p = plan(OptimizerKind::MomentumSgd, PrecisionMix::MIXED_8_32, 2048 * 16);
        assert_eq!(p.streams.len(), 16);
        let mut pairs: Vec<_> = p.streams.iter().map(|s| (s.rank, s.bankgroup)).collect();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 16);
    }

    #[test]
    fn adaptive_optimizers_rejected_by_base_isa() {
        let cfg = DramConfig::ddr4_2133();
        for opt in [OptimizerKind::Adam, OptimizerKind::AdaGrad, OptimizerKind::RmsProp] {
            let placement =
                Placement::for_optimizer(opt, PrecisionMix::MIXED_8_32, 1000, &cfg).unwrap();
            let err = compile_step(&placement, &HyperParams::default(), &cfg, KernelParts::ALL)
                .unwrap_err();
            assert_eq!(err, KernelError::UnsupportedOptimizer(opt));
        }
    }

    #[test]
    fn scaler_bank_encodes_hyperparams() {
        let hyper =
            HyperParams { lr: 0.01, momentum: 0.9, weight_decay: 1e-4, ..Default::default() };
        let bank = scaler_bank_for(OptimizerKind::MomentumSgd, &hyper).unwrap();
        let f = bank.to_mode_floats();
        assert!(f[0] < 0.0 && (f[0] + 0.01).abs() / 0.01 < 0.05);
        assert!((f[1] - 0.9).abs() / 0.9 < 0.05);
        assert!(f[2] <= 0.0);
        assert_eq!(f[3], 1.0);
    }

    #[test]
    fn dequant_ops_interleave_qreg_loads_every_ratio_columns() {
        let p = plan(OptimizerKind::Sgd, PrecisionMix::MIXED_8_32, 2048);
        let ops = &p.streams[0].ops;
        // First op of the stream must be a QRegLoad (cannot dequantize an
        // empty register).
        assert!(matches!(ops[0], PimOp::QRegLoad { .. }));
        // Between consecutive QRegLoads there are exactly 8 ops
        // (4 × [Dequant, Writeback]).
        let loads: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| matches!(o, PimOp::QRegLoad { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(loads.len(), 32);
        for w in loads.windows(2) {
            assert_eq!(w[1] - w[0], 9);
        }
    }

    #[test]
    fn streams_naming_a_missing_unit_or_bank_enqueue_nothing() {
        use gradpim_dram::{AddressMapping, MemError, MemorySystem};
        let cfg = DramConfig::ddr4_2133();
        let good = plan(OptimizerKind::Sgd, PrecisionMix::FULL_32, 2048).streams.remove(0);
        let op = PimOp::Add { bank: 2, dst: 0 };
        let last_bad = [&good.ops[..], &[PimOp::Add { bank: 4, dst: 0 }]].concat();
        // The error names a missing unit with its first op's bank (0 for
        // no op), and an existing unit with its first missing bank.
        let missing = [
            (UnitStream { channel: 1, ops: vec![op], ..good.clone() }, 2),
            (UnitStream { rank: 4, ops: Vec::new(), ..good.clone() }, 0),
            (UnitStream { bankgroup: 4, ops: vec![op], ..good.clone() }, 2),
            (UnitStream { ops: last_bad, ..good.clone() }, 4),
        ];
        for (bad, bank) in missing {
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            let (channel, rank, bankgroup) = (bad.channel, bad.rank, bad.bankgroup);
            let want = MemError::NoSuchUnit { channel, rank, bankgroup, bank };
            assert_eq!(run_unit_streams(&mut mem, &[good.clone(), bad]), Err(want));
            assert_eq!(mem.pending(), 0, "{want}: ops were enqueued");
        }
    }

    #[test]
    fn sgd_stream_shape() {
        let cfg = DramConfig::ddr4_2133();
        let placement =
            Placement::for_optimizer(OptimizerKind::Sgd, PrecisionMix::FULL_32, 16, &cfg).unwrap();
        let hyper = HyperParams { weight_decay: 0.0, ..Default::default() };
        let p = compile_step(&placement, &hyper, &cfg, KernelParts::ALL).unwrap();
        // 16 f32 = 1 column: SR g, SR θ, Add, WB θ.
        assert_eq!(
            p.streams[0].ops,
            vec![
                PimOp::ScaledRead { bank: 1, row: 0, col: 0, scaler: slots::NEG_LR, dst: 0 },
                PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: slots::ONE, dst: 1 },
                PimOp::Add { bank: 0, dst: 1 },
                PimOp::Writeback { bank: 0, row: 0, col: 0, src: 1 },
            ]
        );
    }
}
