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

use gradpim_optim::quant::{dequantize_i8, f16_to_f32, f32_to_f16, quantize_i8, Q8Scale};
use gradpim_optim::{Precision, PrecisionMix};

use crate::storage::Storage;

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
    /// Element formats: `mix.high` of master arrays and the temporary
    /// registers, `mix.low` of quantized arrays.
    pub mix: PrecisionMix,
    /// Numerical-stability epsilon for the extended-ALU reciprocal square
    /// root (§VIII).
    pub eps: f32,
}

impl Default for ModeRegisters {
    fn default() -> Self {
        Self { scalers: [1.0; 4], q8_exponent: -7, mix: PrecisionMix::MIXED_8_32, eps: 1e-8 }
    }
}

impl ModeRegisters {
    /// Decodes `bytes` of format `p` into f32 lanes (int8 under the
    /// programmed exponent).
    pub fn decode(&self, p: Precision, bytes: &[u8]) -> Vec<f32> {
        match p {
            Precision::Fp32 => bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
            Precision::Fp16 => bytes
                .chunks_exact(2)
                .map(|c| f16_to_f32(u16::from_le_bytes([c[0], c[1]])))
                .collect(),
            Precision::Int8 => bytes
                .iter()
                .map(|&b| dequantize_i8(b as i8, Q8Scale { exponent: self.q8_exponent }))
                .collect(),
        }
    }

    /// Encodes f32 lanes into format `p` (int8 under the programmed
    /// exponent).
    pub fn encode(&self, p: Precision, vals: &[f32]) -> Vec<u8> {
        match p {
            Precision::Fp32 => vals.iter().flat_map(|v| v.to_le_bytes()).collect(),
            Precision::Fp16 => vals.iter().flat_map(|&v| f32_to_f16(v).to_le_bytes()).collect(),
            Precision::Int8 => vals
                .iter()
                .map(|&v| quantize_i8(v, Q8Scale { exponent: self.q8_exponent }) as u8)
                .collect(),
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
        let vals: Vec<f32> = mode.decode(mode.mix.high, &raw).into_iter().map(|v| v * s).collect();
        self.temp[dst as usize & 1] = mode.encode(mode.mix.high, &vals);
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

    /// `f(Reg0, Reg1) → Reg[dst]`, lane by lane.
    fn lanewise(&mut self, mode: &ModeRegisters, dst: u8, f: impl Fn(f32, f32) -> f32) {
        let a = mode.decode(mode.mix.high, &self.temp[0]);
        let b = mode.decode(mode.mix.high, &self.temp[1]);
        let out: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| f(x, y)).collect();
        self.temp[dst as usize & 1] = mode.encode(mode.mix.high, &out);
    }

    /// Parallel add (§IV-B ②): `Reg0 + Reg1 → Reg[dst]`.
    pub fn add(&mut self, mode: &ModeRegisters, dst: u8) {
        self.lanewise(mode, dst, |x, y| x + y);
    }

    /// Parallel subtract: `Reg0 − Reg1 → Reg[dst]`.
    pub fn sub(&mut self, mode: &ModeRegisters, dst: u8) {
        self.lanewise(mode, dst, |x, y| x - y);
    }

    /// Extended-ALU parallel multiply: `Reg0 × Reg1 → Reg[dst]` (§VIII).
    pub fn mul(&mut self, mode: &ModeRegisters, dst: u8) {
        self.lanewise(mode, dst, |x, y| x * y);
    }

    /// Extended-ALU reciprocal square root:
    /// `1/√(max(Reg0, 0) + ε) → Reg[dst]` (§VIII).
    pub fn rsqrt(&mut self, mode: &ModeRegisters, dst: u8) {
        let a = mode.decode(mode.mix.high, &self.temp[0]);
        let r: Vec<f32> = a.iter().map(|x| 1.0 / (x.max(0.0) + mode.eps).sqrt()).collect();
        self.temp[dst as usize & 1] = mode.encode(mode.mix.high, &r);
    }

    /// Quantization (§IV-D3): temp register `src` → slice `pos` of the
    /// quantization register.
    ///
    /// # Panics
    ///
    /// Panics if `pos` exceeds the quantization ratio.
    pub fn quant_op(&mut self, mode: &ModeRegisters, pos: u8, src: u8) {
        let ratio = mode.mix.quant_ratio();
        assert!((pos as usize) < ratio, "quant position {pos} out of range for ratio {ratio}");
        let vals = mode.decode(mode.mix.high, &self.temp[src as usize & 1]);
        let low = mode.encode(mode.mix.low, &vals);
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
        let ratio = mode.mix.quant_ratio();
        assert!((pos as usize) < ratio, "dequant position {pos} out of range for ratio {ratio}");
        let slice_len = self.quant.len() / ratio;
        let off = pos as usize * slice_len;
        let vals = mode.decode(mode.mix.low, &self.quant[off..off + slice_len]);
        self.temp[dst as usize & 1] = mode.encode(mode.mix.high, &vals);
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
        assert_eq!(mode.mix.quant_ratio(), 4);
        for pos in 0..4u8 {
            let vals: Vec<f32> = (0..16).map(|i| (pos as f32) + i as f32 / 16.0).collect();
            let bytes = mode.encode(Precision::Fp32, &vals);
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
        let mode = ModeRegisters { mix: PrecisionMix::MIXED_16_32, ..Default::default() };
        assert_eq!(mode.mix.quant_ratio(), 2);
        let mut unit = PimUnit::new(64);
        let vals: Vec<f32> = (0..16).map(|i| 1.5 * i as f32).collect();
        unit.temp[0] = mode.encode(Precision::Fp32, &vals);
        unit.quant_op(&mode, 1, 0);
        unit.dequant_op(&mode, 1, 1);
        // f16 representable values survive exactly.
        assert_eq!(f32s(unit.temp(1)), vals);
    }

    #[test]
    #[should_panic(expected = "out of range for ratio")]
    fn quant_position_checked() {
        let mode = ModeRegisters { mix: PrecisionMix::MIXED_16_32, ..Default::default() };
        let mut unit = PimUnit::new(64);
        unit.quant_op(&mode, 2, 0);
    }

    #[test]
    fn f16_master_precision_mode() {
        // 8/16 mix: high = fp16 (32 lanes per 64 B column), low = int8.
        let mode =
            ModeRegisters { mix: PrecisionMix::MIXED_8_16, q8_exponent: -5, ..Default::default() };
        assert_eq!(mode.mix.quant_ratio(), 2);
        let vals: Vec<f32> = (0..32).map(|i| i as f32 / 32.0).collect();
        let bytes = mode.encode(Precision::Fp16, &vals);
        assert_eq!(bytes.len(), 64);
        let back = mode.decode(Precision::Fp16, &bytes);
        for (v, b) in vals.iter().zip(&back) {
            assert!((v - b).abs() < 1e-3);
        }
    }
}
