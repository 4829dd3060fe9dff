//! The GradPIM unit's register file, mode registers, and functional
//! datapath (§IV-A/B).
//!
//! Each unit holds two temporary registers and one quantization register,
//! all as wide as the global sense amplifiers (one 64 B burst per rank). The
//! *timing* of the unit lives in [`crate::timing`]; this module executes the
//! data transformations when functional storage is enabled.
//!
//! Numerics are shared with `gradpim-optim` so the in-DRAM datapath and the
//! reference optimizers agree bit-for-bit on quantization behaviour.

use gradpim_optim::quant::{f16_to_f32, f32_to_f16, Q8Scale};

use crate::storage::Storage;

/// Element type stored in DRAM arrays, as seen by the PIM datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// 32-bit IEEE float (master precision).
    F32,
    /// 16-bit IEEE float.
    F16,
    /// 8-bit integer with the power-of-two scale from the mode register.
    I8,
}

impl ElemKind {
    /// Bytes per element.
    pub const fn bytes(self) -> usize {
        match self {
            ElemKind::F32 => 4,
            ElemKind::F16 => 2,
            ElemKind::I8 => 1,
        }
    }
}

/// The MRW-programmable state of the GradPIM units (§IV-B: scaler values are
/// "programmed with MRW command in case the user needs different set of
/// values"; the quantization scale and element widths follow the same
/// mechanism).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeRegisters {
    /// The four pinned scaler values (already approximated to ±(2ⁿ ± 2ᵐ) by
    /// the host; stored here as the exact resulting constants).
    pub scalers: [f32; 4],
    /// Power-of-two exponent for int8 quantization.
    pub q8_exponent: i32,
    /// Element kind of high-precision (master) arrays.
    pub high: ElemKind,
    /// Element kind of quantized arrays.
    pub low: ElemKind,
    /// Numerical-stability epsilon for the extended-ALU reciprocal square
    /// root (§VIII).
    pub eps: f32,
}

impl Default for ModeRegisters {
    fn default() -> Self {
        Self {
            scalers: [1.0; 4],
            q8_exponent: -7,
            high: ElemKind::F32,
            low: ElemKind::I8,
            eps: 1e-8,
        }
    }
}

impl ModeRegisters {
    /// Quantization ratio (how many low-precision columns pack into one
    /// register): `high.bytes() / low.bytes()`.
    ///
    /// # Panics
    ///
    /// Panics if `low` is wider than `high`.
    pub fn quant_ratio(&self) -> usize {
        assert!(self.high.bytes() >= self.low.bytes(), "low precision wider than high");
        self.high.bytes() / self.low.bytes()
    }

    /// Decodes a high-precision column into f32 lanes.
    pub fn decode_high(&self, bytes: &[u8]) -> Vec<f32> {
        match self.high {
            ElemKind::F32 => bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
            ElemKind::F16 => bytes
                .chunks_exact(2)
                .map(|c| f16_to_f32(u16::from_le_bytes([c[0], c[1]])))
                .collect(),
            ElemKind::I8 => bytes
                .iter()
                .map(|&b| (b as i8) as f32 * Q8Scale { exponent: self.q8_exponent }.factor())
                .collect(),
        }
    }

    /// Encodes f32 lanes into a high-precision column.
    pub fn encode_high(&self, vals: &[f32]) -> Vec<u8> {
        match self.high {
            ElemKind::F32 => vals.iter().flat_map(|v| v.to_le_bytes()).collect(),
            ElemKind::F16 => vals.iter().flat_map(|&v| f32_to_f16(v).to_le_bytes()).collect(),
            ElemKind::I8 => vals
                .iter()
                .map(|&v| {
                    gradpim_optim::quant::quantize_i8(v, Q8Scale { exponent: self.q8_exponent })
                        as u8
                })
                .collect(),
        }
    }

    /// Decodes a low-precision slice into f32 lanes.
    pub fn decode_low(&self, bytes: &[u8]) -> Vec<f32> {
        match self.low {
            ElemKind::I8 => bytes
                .iter()
                .map(|&b| {
                    gradpim_optim::quant::dequantize_i8(
                        b as i8,
                        Q8Scale { exponent: self.q8_exponent },
                    )
                })
                .collect(),
            ElemKind::F16 => bytes
                .chunks_exact(2)
                .map(|c| f16_to_f32(u16::from_le_bytes([c[0], c[1]])))
                .collect(),
            ElemKind::F32 => bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        }
    }

    /// Encodes f32 lanes into a low-precision slice.
    pub fn encode_low(&self, vals: &[f32]) -> Vec<u8> {
        match self.low {
            ElemKind::I8 => vals
                .iter()
                .map(|&v| {
                    gradpim_optim::quant::quantize_i8(v, Q8Scale { exponent: self.q8_exponent })
                        as u8
                })
                .collect(),
            ElemKind::F16 => vals.iter().flat_map(|&v| f32_to_f16(v).to_le_bytes()).collect(),
            ElemKind::F32 => vals.iter().flat_map(|v| v.to_le_bytes()).collect(),
        }
    }
}

/// One GradPIM unit's architectural register state.
#[derive(Debug, Clone)]
pub struct PimUnit {
    /// The two temporary registers (Reg0, Reg1).
    temp: [Vec<u8>; 2],
    /// The quantization register.
    quant: Vec<u8>,
}

impl PimUnit {
    /// A unit with zeroed registers of one burst width.
    pub fn new(burst_bytes: usize) -> Self {
        Self { temp: [vec![0; burst_bytes], vec![0; burst_bytes]], quant: vec![0; burst_bytes] }
    }

    /// Read access to temporary register `i` (tests/debug).
    ///
    /// # Panics
    ///
    /// Panics if `i > 1`.
    pub fn temp(&self, i: usize) -> &[u8] {
        &self.temp[i]
    }

    /// Read access to the quantization register (tests/debug).
    pub fn quant_reg(&self) -> &[u8] {
        &self.quant
    }

    /// Scaled read (§IV-B ①): bank column → temp register, each element
    /// multiplied by scaler slot `scaler`.
    #[expect(clippy::too_many_arguments, reason = "mirrors the command's full field list")]
    pub fn scaled_read(
        &mut self,
        storage: &Storage,
        mode: &ModeRegisters,
        bank_flat: usize,
        row: u32,
        col: u32,
        scaler: u8,
        dst: u8,
    ) {
        let raw = storage.read_col(bank_flat, row, col);
        let s = mode.scalers[scaler as usize & 3];
        let vals: Vec<f32> = mode.decode_high(&raw).into_iter().map(|v| v * s).collect();
        self.temp[dst as usize & 1] = mode.encode_high(&vals);
    }

    /// Writeback (§IV-B ③): temp register → bank column.
    pub fn writeback(&self, storage: &mut Storage, bank_flat: usize, row: u32, col: u32, src: u8) {
        storage.write_col(bank_flat, row, col, &self.temp[src as usize & 1]);
    }

    /// Q-register load: raw bank column → quantization register.
    pub fn qreg_load(&mut self, storage: &Storage, bank_flat: usize, row: u32, col: u32) {
        self.quant = storage.read_col(bank_flat, row, col);
    }

    /// Q-register store: quantization register → bank column.
    pub fn qreg_store(&self, storage: &mut Storage, bank_flat: usize, row: u32, col: u32) {
        storage.write_col(bank_flat, row, col, &self.quant);
    }

    /// Parallel add (§IV-B ②): `Reg0 + Reg1 → Reg[dst]`.
    pub fn add(&mut self, mode: &ModeRegisters, dst: u8) {
        let a = mode.decode_high(&self.temp[0]);
        let b = mode.decode_high(&self.temp[1]);
        let sum: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        self.temp[dst as usize & 1] = mode.encode_high(&sum);
    }

    /// Parallel subtract: `Reg0 − Reg1 → Reg[dst]`.
    pub fn sub(&mut self, mode: &ModeRegisters, dst: u8) {
        let a = mode.decode_high(&self.temp[0]);
        let b = mode.decode_high(&self.temp[1]);
        let diff: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x - y).collect();
        self.temp[dst as usize & 1] = mode.encode_high(&diff);
    }

    /// Extended-ALU parallel multiply: `Reg0 × Reg1 → Reg[dst]` (§VIII).
    pub fn mul(&mut self, mode: &ModeRegisters, dst: u8) {
        let a = mode.decode_high(&self.temp[0]);
        let b = mode.decode_high(&self.temp[1]);
        let prod: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
        self.temp[dst as usize & 1] = mode.encode_high(&prod);
    }

    /// Extended-ALU reciprocal square root:
    /// `1/√(max(Reg0, 0) + ε) → Reg[dst]` (§VIII).
    pub fn rsqrt(&mut self, mode: &ModeRegisters, dst: u8) {
        let a = mode.decode_high(&self.temp[0]);
        let r: Vec<f32> = a.iter().map(|x| 1.0 / (x.max(0.0) + mode.eps).sqrt()).collect();
        self.temp[dst as usize & 1] = mode.encode_high(&r);
    }

    /// Quantization (§IV-D3): temp register `src` → slice `pos` of the
    /// quantization register.
    ///
    /// # Panics
    ///
    /// Panics if `pos` exceeds the quantization ratio.
    pub fn quant_op(&mut self, mode: &ModeRegisters, pos: u8, src: u8) {
        let ratio = mode.quant_ratio();
        assert!((pos as usize) < ratio, "quant position {pos} out of range for ratio {ratio}");
        let vals = mode.decode_high(&self.temp[src as usize & 1]);
        let low = mode.encode_low(&vals);
        let slice_len = self.quant.len() / ratio;
        debug_assert_eq!(low.len(), slice_len);
        let off = pos as usize * slice_len;
        self.quant[off..off + slice_len].copy_from_slice(&low);
    }

    /// Dequantization (§IV-D1): slice `pos` of the quantization register →
    /// temp register `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` exceeds the quantization ratio.
    pub fn dequant_op(&mut self, mode: &ModeRegisters, pos: u8, dst: u8) {
        let ratio = mode.quant_ratio();
        assert!((pos as usize) < ratio, "dequant position {pos} out of range for ratio {ratio}");
        let slice_len = self.quant.len() / ratio;
        let off = pos as usize * slice_len;
        let vals = mode.decode_low(&self.quant[off..off + slice_len]);
        self.temp[dst as usize & 1] = mode.encode_high(&vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s(bytes: &[u8]) -> Vec<f32> {
        bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
    }

    fn setup() -> (Storage, PimUnit, ModeRegisters) {
        let storage = Storage::new(128, 64);
        let unit = PimUnit::new(64);
        let mode = ModeRegisters::default();
        (storage, unit, mode)
    }

    #[test]
    fn scaled_read_applies_scaler() {
        let (mut storage, mut unit, mut mode) = setup();
        mode.scalers = [1.0, -0.5, 0.25, 2.0];
        let vals: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let bytes: Vec<u8> = vals.iter().flat_map(|v| v.to_le_bytes()).collect();
        storage.write_col(0, 0, 0, &bytes);
        unit.scaled_read(&storage, &mode, 0, 0, 0, 1, 0);
        let got = f32s(unit.temp(0));
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as f32 * -0.5);
        }
    }

    #[test]
    fn add_and_sub_lanewise() {
        let (mut storage, mut unit, mode) = setup();
        let a: Vec<u8> = (0..16).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let b: Vec<u8> = (0..16).flat_map(|i| (10.0 * i as f32).to_le_bytes()).collect();
        storage.write_col(0, 0, 0, &a);
        storage.write_col(0, 0, 1, &b);
        unit.scaled_read(&storage, &mode, 0, 0, 0, 0, 0);
        unit.scaled_read(&storage, &mode, 0, 0, 1, 0, 1);
        unit.add(&mode, 0);
        let sums = f32s(unit.temp(0));
        for (i, s) in sums.iter().enumerate() {
            assert_eq!(*s, 11.0 * i as f32);
        }
        // temp1 still holds b; sub uses (current) reg0 − reg1.
        unit.sub(&mode, 1);
        let diffs = f32s(unit.temp(1));
        for (i, d) in diffs.iter().enumerate() {
            assert_eq!(*d, 11.0 * i as f32 - 10.0 * i as f32);
        }
    }

    #[test]
    fn writeback_round_trips() {
        let (mut storage, mut unit, mode) = setup();
        let a: Vec<u8> = (0..16).flat_map(|i| (0.5 * i as f32).to_le_bytes()).collect();
        storage.write_col(1, 3, 5, &a);
        unit.scaled_read(&storage, &mode, 1, 3, 5, 0, 0);
        unit.writeback(&mut storage, 2, 4, 6, 0);
        assert_eq!(storage.read_col(2, 4, 6), a);
    }

    #[test]
    fn quant_fills_quarters_8_32() {
        // 8/32 mixed precision: ratio 4, so four quant ops fill the
        // register (§IV-D3: "It fills a quarter of the quantization
        // register, so this is repeated four times").
        let (mut storage, mut unit, mut mode) = setup();
        mode.q8_exponent = -4; // step 1/16
        assert_eq!(mode.quant_ratio(), 4);
        for pos in 0..4u8 {
            let vals: Vec<f32> = (0..16).map(|i| (pos as f32) + i as f32 / 16.0).collect();
            let bytes = mode.encode_high(&vals);
            storage.write_col(0, 0, pos as u32, &bytes);
            unit.scaled_read(&storage, &mode, 0, 0, pos as u32, 0, 0);
            unit.quant_op(&mode, pos, 0);
        }
        // Dequantize each quarter back and compare within one quant step.
        for pos in 0..4u8 {
            unit.dequant_op(&mode, pos, 1);
            let got = f32s(unit.temp(1));
            for (i, v) in got.iter().enumerate() {
                let want = pos as f32 + i as f32 / 16.0;
                assert!(
                    (v - want).abs() <= (1.0 / 16.0) / 2.0 + 1e-6,
                    "pos {pos} lane {i}: {v} vs {want}"
                );
            }
        }
    }

    #[test]
    fn quant_ratio_two_for_16_32() {
        let mode = ModeRegisters { low: ElemKind::F16, ..Default::default() };
        assert_eq!(mode.quant_ratio(), 2);
        let mut unit = PimUnit::new(64);
        let vals: Vec<f32> = (0..16).map(|i| 1.5 * i as f32).collect();
        unit.temp[0] = mode.encode_high(&vals);
        unit.quant_op(&mode, 1, 0);
        unit.dequant_op(&mode, 1, 1);
        // f16 representable values survive exactly.
        assert_eq!(f32s(unit.temp(1)), vals);
    }

    #[test]
    #[should_panic(expected = "out of range for ratio")]
    fn quant_position_checked() {
        let mode = ModeRegisters { low: ElemKind::F16, ..Default::default() };
        let mut unit = PimUnit::new(64);
        unit.quant_op(&mode, 2, 0);
    }

    #[test]
    fn f16_master_precision_mode() {
        // 8/16 mix: high = F16 (32 lanes per 64 B column), low = I8.
        let mode = ModeRegisters {
            high: ElemKind::F16,
            low: ElemKind::I8,
            q8_exponent: -5,
            ..Default::default()
        };
        assert_eq!(mode.quant_ratio(), 2);
        let vals: Vec<f32> = (0..32).map(|i| i as f32 / 32.0).collect();
        let bytes = mode.encode_high(&vals);
        assert_eq!(bytes.len(), 64);
        let back = mode.decode_high(&bytes);
        for (v, b) in vals.iter().zip(&back) {
            assert!((v - b).abs() < 1e-3);
        }
    }
}
