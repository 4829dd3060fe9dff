//! Data placement for GradPIM parameter arrays (§V-B, Fig. 7).
//!
//! The update kernels require that for every parameter index `i`, the
//! corresponding elements of θ, g and the optimizer-state arrays sit in the
//! *same bank group but different banks*, so a GradPIM unit can hold all of
//! their rows open simultaneously. Under the Fig. 7 mapping (bank bits at
//! the MSB) this is achieved by aligning every array to the bank-region
//! boundary; this module assigns banks and computes row/column coordinates
//! ([`Placement::col_addr`]).
//!
//! Quantized arrays cannot be element-aligned with their masters (their
//! elements are narrower), so per §V-B they use only the first
//! `1/quant_ratio` of each row: DRAM capacity is wasted, but every quantized
//! row corresponds 1:1 to a master row in the same bank group, and no
//! off-chip bandwidth is lost. One functional load/store pair,
//! [`Placement::write`] and [`Placement::read`], serves every array: a
//! master array in the mix's high format, a quantized one packed in its
//! low format.

use gradpim_dram::{Address, AddressMapping, DramConfig, MemorySystem, ModeRegisters};
use gradpim_optim::{OptimizerKind, Precision, PrecisionMix};

/// Logical names for the DRAM-resident arrays of one parameter group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayName {
    /// Master weights θ.
    Theta,
    /// (Dequantized) gradients g.
    Grad,
    /// First optimizer-state array (momentum v / Adam m / AdaGrad h).
    State0,
    /// Second optimizer-state array (Adam u).
    State1,
    /// Quantized master weights Q(θ) — read by the NPU in forward/backward.
    QTheta,
    /// Quantized gradients Q(g) — written by the NPU in backward.
    QGrad,
}

/// One placed array: its bank within every bank group and its starting row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArraySpec {
    /// Which array this is.
    pub name: ArrayName,
    /// Bank index within each bank group (the same in all groups).
    pub bank: u8,
    /// First row used in every bank of that index.
    pub base_row: u32,
    /// `true` if this array holds the mix's low format, packed into the
    /// first `1/ratio` of each row.
    pub quantized: bool,
}

/// Why a placement could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// The optimizer needs more concurrently-open arrays than there are
    /// banks in a bank group.
    TooManyArrays {
        /// Arrays needed simultaneously.
        needed: usize,
        /// Banks available per group.
        banks: usize,
    },
    /// The parameter count does not fit the device.
    CapacityExceeded {
        /// Rows needed per bank.
        rows_needed: u64,
        /// Rows available per bank.
        rows: usize,
    },
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::TooManyArrays { needed, banks } => {
                write!(
                    f,
                    "optimizer needs {needed} concurrent arrays but bank groups have {banks} banks"
                )
            }
            PlacementError::CapacityExceeded { rows_needed, rows } => {
                write!(f, "placement needs {rows_needed} rows/bank but device has {rows}")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A chunk of the element space owned by one GradPIM unit: one row's worth
/// of elements in one bank group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// Channel of the owning unit.
    pub channel: usize,
    /// Rank of the owning unit.
    pub rank: u8,
    /// Bank group of the owning unit.
    pub bankgroup: u8,
    /// Row offset from each array's `base_row`.
    pub row_offset: u32,
    /// First element index covered.
    pub elem_start: usize,
    /// Columns of master data in this chunk (≤ `cfg.columns`).
    pub cols: u32,
}

/// The complete placement of one parameter group (θ, g, state arrays, and
/// their quantized shadows) for a given optimizer and precision mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    mix: PrecisionMix,
    optimizer: OptimizerKind,
    n_params: usize,
    arrays: Vec<ArraySpec>,
    elems_per_col: usize,
    elems_per_chunk: usize,
    rows_span: u32,
}

impl Placement {
    /// Places the arrays for `optimizer` under `mix` on `cfg`.
    ///
    /// Bank assignment: θ → 0, g → 1, state arrays → 2, 3; quantized shadows
    /// go to the highest banks not used *in the same kernel phase*
    /// (dequantization touches Q(g)+g; quantization touches Q(θ)+θ; the
    /// update touches θ+g+state — see §IV-D).
    ///
    /// # Errors
    ///
    /// [`PlacementError`] if the optimizer's arrays cannot coexist or the
    /// device is too small.
    pub fn for_optimizer(
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        n_params: usize,
        cfg: &DramConfig,
    ) -> Result<Self, PlacementError> {
        Self::for_optimizer_at(optimizer, mix, n_params, cfg, 0)
    }

    /// Like [`Placement::for_optimizer`], but starting at row `row_base` of
    /// every bank — used to stack multiple parameter groups (one per layer)
    /// in the same device; see [`crate::GradPimMemory::stacked`].
    ///
    /// # Errors
    ///
    /// [`PlacementError`] if the optimizer's arrays cannot coexist or the
    /// rows starting at `row_base` do not fit the device.
    pub fn for_optimizer_at(
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        n_params: usize,
        cfg: &DramConfig,
        row_base: u32,
    ) -> Result<Self, PlacementError> {
        assert!(n_params > 0, "empty parameter group");
        let states = optimizer.state_arrays();
        // Update phase opens θ + g + states concurrently.
        let needed = 2 + states;
        if needed > cfg.banks_per_group {
            return Err(PlacementError::TooManyArrays { needed, banks: cfg.banks_per_group });
        }

        let elems_per_col = cfg.burst_bytes / mix.high.bytes();
        let elems_per_chunk = elems_per_col * cfg.columns;
        let chunk_count = n_params.div_ceil(elems_per_chunk);
        let chunks_per_row = cfg.channels * cfg.ranks * cfg.bankgroups;
        let rows_span = chunk_count.div_ceil(chunks_per_row) as u32;

        let mut arrays = vec![
            ArraySpec { name: ArrayName::Theta, bank: 0, base_row: row_base, quantized: false },
            ArraySpec { name: ArrayName::Grad, bank: 1, base_row: row_base, quantized: false },
        ];
        for s in 0..states {
            arrays.push(ArraySpec {
                name: if s == 0 { ArrayName::State0 } else { ArrayName::State1 },
                bank: (2 + s) as u8,
                base_row: row_base,
                quantized: false,
            });
        }
        let mut rows_needed = rows_span as u64;
        if mix.is_mixed() {
            // Q(g) must avoid g's bank (dequant phase); Q(θ) must avoid θ's
            // bank (quant phase). Place them in the two highest banks,
            // stacked above any state array sharing that bank.
            let qg_bank = (cfg.banks_per_group - 2) as u8;
            let qt_bank = (cfg.banks_per_group - 1) as u8;
            let base = if (qg_bank as usize) < 2 + states { rows_span } else { 0 };
            let base_t = if (qt_bank as usize) < 2 + states { rows_span } else { 0 };
            arrays.push(ArraySpec {
                name: ArrayName::QGrad,
                bank: qg_bank,
                base_row: row_base + base,
                quantized: true,
            });
            arrays.push(ArraySpec {
                name: ArrayName::QTheta,
                bank: qt_bank,
                base_row: row_base + base_t,
                quantized: true,
            });
            rows_needed += rows_span as u64; // worst case stacking
        }
        if row_base as u64 + rows_needed > cfg.rows as u64 {
            return Err(PlacementError::CapacityExceeded {
                rows_needed: row_base as u64 + rows_needed,
                rows: cfg.rows,
            });
        }
        Ok(Self { mix, optimizer, n_params, arrays, elems_per_col, elems_per_chunk, rows_span })
    }

    /// The precision mix this placement serves.
    pub fn mix(&self) -> PrecisionMix {
        self.mix
    }

    /// The optimizer this placement serves.
    pub fn optimizer(&self) -> OptimizerKind {
        self.optimizer
    }

    /// Parameter-group size.
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// All placed arrays.
    pub fn arrays(&self) -> &[ArraySpec] {
        &self.arrays
    }

    /// Looks up one array.
    ///
    /// # Panics
    ///
    /// Panics if the array does not exist in this placement (e.g. `State1`
    /// for momentum SGD).
    pub fn array(&self, name: ArrayName) -> &ArraySpec {
        self.arrays
            .iter()
            .find(|a| a.name == name)
            .unwrap_or_else(|| panic!("array {name:?} not present in this placement"))
    }

    /// Whether `name` exists in this placement.
    pub fn has_array(&self, name: ArrayName) -> bool {
        self.arrays.iter().any(|a| a.name == name)
    }

    /// Master elements per 64-byte column.
    pub fn elems_per_col(&self) -> usize {
        self.elems_per_col
    }

    /// Master elements per chunk (one row in one bank group).
    pub fn elems_per_chunk(&self) -> usize {
        self.elems_per_chunk
    }

    /// Rows each array spans per bank.
    pub fn rows_span(&self) -> u32 {
        self.rows_span
    }

    /// Total rows this placement occupies per bank *beyond its row base*
    /// (worst case: a quantized shadow stacked above a master array).
    pub fn rows_footprint(&self) -> u32 {
        if self.mix.is_mixed() {
            self.rows_span * 2
        } else {
            self.rows_span
        }
    }

    /// Enumerates the chunks of the element space in ownership order:
    /// bank groups cycle fastest, then ranks, then channels, then rows —
    /// exactly the Fig. 7 interleaving.
    pub fn chunks(&self, cfg: &DramConfig) -> Vec<Chunk> {
        let chunk_count = self.n_params.div_ceil(self.elems_per_chunk);
        let mut out = Vec::with_capacity(chunk_count);
        for c in 0..chunk_count {
            let bg = c % cfg.bankgroups;
            let rank = (c / cfg.bankgroups) % cfg.ranks;
            let ch = (c / cfg.bankgroups / cfg.ranks) % cfg.channels;
            let row = (c / (cfg.bankgroups * cfg.ranks * cfg.channels)) as u32;
            let elem_start = c * self.elems_per_chunk;
            let remaining = self.n_params - elem_start;
            let cols = remaining.min(self.elems_per_chunk).div_ceil(self.elems_per_col) as u32;
            out.push(Chunk {
                channel: ch,
                rank: rank as u8,
                bankgroup: bg as u8,
                row_offset: row,
                elem_start,
                cols,
            });
        }
        out
    }

    /// Linear address of column `col` of `array` for `chunk`. Master column
    /// `col` starts at element `chunk.elem_start + col × elems_per_col`; a
    /// quantized array uses the first `1/ratio` of each row, so each of its
    /// columns packs the elements of `ratio` master columns.
    pub fn col_addr(&self, array: &ArraySpec, chunk: &Chunk, col: u32, cfg: &DramConfig) -> u64 {
        let loc = Address {
            channel: chunk.channel,
            rank: chunk.rank as usize,
            bankgroup: chunk.bankgroup as usize,
            bank: array.bank as usize,
            row: (array.base_row + chunk.row_offset) as usize,
            column: col as usize,
        };
        AddressMapping::GradPim.encode(loc, cfg)
    }

    /// How `array` stores its elements: their format, and how many master
    /// columns one of its columns packs (the quantization ratio for a
    /// quantized array, else 1).
    fn format(&self, array: &ArraySpec) -> (Precision, usize) {
        if array.quantized {
            (self.mix.low, self.mix.quant_ratio())
        } else {
            (self.mix.high, 1)
        }
    }

    /// Functional helper: writes `data` (f32 values) into array `name`
    /// through the backdoor, following the chunk layout, in the array's
    /// format (int8 under `mode`'s exponent). Writing a quantized array is
    /// what the NPU does with gradients after the backward pass.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != n_params` or storage is disabled.
    pub fn write(
        &self,
        mem: &mut MemorySystem,
        name: ArrayName,
        mode: &ModeRegisters,
        data: &[f32],
    ) {
        assert_eq!(data.len(), self.n_params, "array length mismatch");
        let array = *self.array(name);
        let cfg = mem.config().clone();
        let (format, ratio) = self.format(&array);
        let elems_per_col = self.elems_per_col * ratio;
        for chunk in self.chunks(&cfg) {
            for col in 0..(chunk.cols as usize).div_ceil(ratio) as u32 {
                let start = chunk.elem_start + col as usize * elems_per_col;
                let end = (start + elems_per_col).min(self.n_params);
                let mut lane = data[start..end].to_vec();
                lane.resize(elems_per_col, 0.0);
                let bytes = mode.encode(format, &lane);
                debug_assert_eq!(bytes.len(), cfg.burst_bytes);
                mem.poke(self.col_addr(&array, &chunk, col, &cfg), &bytes);
            }
        }
    }

    /// Functional helper: reads array `name` back as f32 values, decoded
    /// from its format (int8 under `mode`'s exponent).
    ///
    /// # Panics
    ///
    /// Panics if storage is disabled.
    pub fn read(&self, mem: &MemorySystem, name: ArrayName, mode: &ModeRegisters) -> Vec<f32> {
        let array = *self.array(name);
        let cfg = mem.config().clone();
        let (format, ratio) = self.format(&array);
        let mut out = Vec::with_capacity(self.n_params);
        for chunk in self.chunks(&cfg) {
            for col in 0..(chunk.cols as usize).div_ceil(ratio) as u32 {
                let bytes = mem.peek(self.col_addr(&array, &chunk, col, &cfg), cfg.burst_bytes);
                out.extend(mode.decode(format, &bytes));
            }
        }
        // Drop the padding of the last column.
        out.truncate(self.n_params);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    #[test]
    fn momentum_placement_uses_three_banks_plus_quant() {
        let p = Placement::for_optimizer(
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            100_000,
            &cfg(),
        )
        .unwrap();
        assert_eq!(p.array(ArrayName::Theta).bank, 0);
        assert_eq!(p.array(ArrayName::Grad).bank, 1);
        assert_eq!(p.array(ArrayName::State0).bank, 2);
        // Q(g) in bank 2 stacked above v; Q(θ) in bank 3.
        assert_eq!(p.array(ArrayName::QGrad).bank, 2);
        assert!(p.array(ArrayName::QGrad).base_row >= p.rows_span());
        assert_eq!(p.array(ArrayName::QTheta).bank, 3);
        assert_eq!(p.array(ArrayName::QTheta).base_row, 0);
    }

    #[test]
    fn dequant_and_quant_phases_have_no_bank_conflicts() {
        for opt in [OptimizerKind::Sgd, OptimizerKind::MomentumSgd, OptimizerKind::Adam] {
            let p =
                Placement::for_optimizer(opt, PrecisionMix::MIXED_8_32, 10_000, &cfg()).unwrap();
            // Dequant touches Q(g) and g concurrently.
            assert_ne!(p.array(ArrayName::QGrad).bank, p.array(ArrayName::Grad).bank, "{opt}");
            // Quant touches Q(θ) and θ concurrently.
            assert_ne!(p.array(ArrayName::QTheta).bank, p.array(ArrayName::Theta).bank, "{opt}");
        }
    }

    #[test]
    fn update_phase_arrays_in_distinct_banks() {
        let p =
            Placement::for_optimizer(OptimizerKind::Adam, PrecisionMix::MIXED_8_32, 10_000, &cfg())
                .unwrap();
        let banks = [
            p.array(ArrayName::Theta).bank,
            p.array(ArrayName::Grad).bank,
            p.array(ArrayName::State0).bank,
            p.array(ArrayName::State1).bank,
        ];
        let set: std::collections::BTreeSet<_> = banks.iter().collect();
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn too_many_arrays_rejected() {
        let mut c = cfg();
        c.banks_per_group = 2;
        let err = Placement::for_optimizer(OptimizerKind::Adam, PrecisionMix::FULL_32, 10, &c)
            .unwrap_err();
        assert!(matches!(err, PlacementError::TooManyArrays { needed: 4, banks: 2 }));
    }

    #[test]
    fn full_precision_has_no_quant_arrays() {
        let p = Placement::for_optimizer(
            OptimizerKind::MomentumSgd,
            PrecisionMix::FULL_32,
            1000,
            &cfg(),
        )
        .unwrap();
        assert!(!p.has_array(ArrayName::QTheta));
        assert!(!p.has_array(ArrayName::QGrad));
    }

    #[test]
    fn chunks_walk_bankgroups_first() {
        let c = cfg();
        let p = Placement::for_optimizer(
            OptimizerKind::Sgd,
            PrecisionMix::MIXED_8_32,
            2048 * 6, // six full chunks
            &c,
        )
        .unwrap();
        let chunks = p.chunks(&c);
        assert_eq!(chunks.len(), 6);
        assert_eq!(
            chunks.iter().map(|ch| ch.bankgroup).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 0, 1]
        );
        assert_eq!(chunks[4].rank, 1, "fifth chunk spills to the next rank");
        assert!(chunks.iter().all(|ch| ch.row_offset == 0));
        assert!(chunks.iter().all(|ch| ch.cols == c.columns as u32));
    }

    #[test]
    fn partial_last_chunk() {
        let c = cfg();
        let p =
            Placement::for_optimizer(OptimizerKind::Sgd, PrecisionMix::MIXED_8_32, 2048 + 100, &c)
                .unwrap();
        let chunks = p.chunks(&c);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].cols, 128);
        assert_eq!(chunks[1].cols, 100u32.div_ceil(16));
    }

    #[test]
    fn master_array_round_trip_through_memory() {
        let c = cfg();
        let p = Placement::for_optimizer(
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            5000,
            &c,
        )
        .unwrap();
        let mut mem = MemorySystem::with_storage(c, AddressMapping::GradPim);
        let mode = ModeRegisters::default();
        let data: Vec<f32> = (0..5000).map(|i| i as f32 * 0.5 - 100.0).collect();
        p.write(&mut mem, ArrayName::Theta, &mode, &data);
        assert_eq!(p.read(&mem, ArrayName::Theta, &mode), data);
    }

    #[test]
    fn quantized_array_round_trip() {
        let c = cfg();
        let p = Placement::for_optimizer(
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            3000,
            &c,
        )
        .unwrap();
        let mut mem = MemorySystem::with_storage(c, AddressMapping::GradPim);
        let mode = ModeRegisters { q8_exponent: -6, ..Default::default() };
        let data: Vec<f32> = (0..3000).map(|i| ((i % 127) as f32 - 63.0) / 64.0).collect();
        p.write(&mut mem, ArrayName::QGrad, &mode, &data);
        let back = p.read(&mem, ArrayName::QGrad, &mode);
        let step = 2f32.powi(-6);
        for (a, b) in data.iter().zip(&back) {
            assert!((a - b).abs() <= step / 2.0 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn theta_and_grad_columns_share_bankgroup_and_row() {
        // The §V-B criterion the kernels rely on, verified end-to-end
        // through address encode/decode.
        let c = cfg();
        let p = Placement::for_optimizer(
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            50_000,
            &c,
        )
        .unwrap();
        let theta = *p.array(ArrayName::Theta);
        let grad = *p.array(ArrayName::Grad);
        for chunk in p.chunks(&c) {
            for col in [0, chunk.cols - 1] {
                let at = AddressMapping::GradPim.decode(p.col_addr(&theta, &chunk, col, &c), &c);
                let ag = AddressMapping::GradPim.decode(p.col_addr(&grad, &chunk, col, &c), &c);
                assert_eq!(at.bankgroup, ag.bankgroup);
                assert_eq!(at.rank, ag.rank);
                assert_eq!(at.row, ag.row);
                assert_eq!(at.column, ag.column);
                assert_ne!(at.bank, ag.bank);
            }
        }
    }
}
