//! The GradPIM command encoding: Table I over the five RFU signals (§IV-E).
//!
//! GradPIM commands ride on DDR4 RFU (reserved-for-future-use) command
//! encodings; besides the usual bank-group/bank/row/column address pins,
//! five signals remain free — the paper uses A12/BC_n, A17, A13, A11 and
//! A10/AP — and Table I assigns them as `Op0, Op1, Param0, Param1, Src/Dst`:
//!
//! | Func        | Op0 | Op1 | Param0    | Param1 | Src/Dst |
//! |-------------|-----|-----|-----------|--------|---------|
//! | Scaled Read | L   | L   | Scale id  | (2 b)  | Dst     |
//! | DeQuant     | H   | L   | Src pos   | (2 b)  | Dst     |
//! | Quant       | H   | H   | Dst pos   | (2 b)  | Src     |
//! | Writeback   | L   | H   | L         | L      | Src     |
//! | Q. Reg      | L   | H   | H         | L      | RD/WR   |
//! | Add         | L   | H   | H         | H      | Dst     |
//! | Sub         | L   | H   | L         | H      | Dst     |

use gradpim_dram::PimOp;

/// The raw five-signal field of a GradPIM RFU command. Bit order (MSB→LSB):
/// `Op0, Op1, Param0, Param1, SrcDst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RfuBits {
    /// Function-select bit 0 (A12/BC_n in the paper's pin assignment).
    pub op0: bool,
    /// Function-select bit 1 (A17).
    pub op1: bool,
    /// Parameter bit 0 (A13).
    pub param0: bool,
    /// Parameter bit 1 (A11).
    pub param1: bool,
    /// Source/destination register select (A10/AP).
    pub srcdst: bool,
}

impl RfuBits {
    /// Packs into a 5-bit integer `Op0 Op1 P0 P1 SD`.
    pub fn pack(self) -> u8 {
        (self.op0 as u8) << 4
            | (self.op1 as u8) << 3
            | (self.param0 as u8) << 2
            | (self.param1 as u8) << 1
            | self.srcdst as u8
    }

    /// Unpacks from a 5-bit integer.
    ///
    /// # Panics
    ///
    /// Panics if bits above bit 4 are set.
    pub fn unpack(v: u8) -> Self {
        assert!(v < 32, "RFU field is 5 bits, got {v:#x}");
        Self {
            op0: v & 0b10000 != 0,
            op1: v & 0b01000 != 0,
            param0: v & 0b00100 != 0,
            param1: v & 0b00010 != 0,
            srcdst: v & 0b00001 != 0,
        }
    }
}

/// A decoded GradPIM function with its register-level operands (no
/// addresses; those travel on the ordinary address pins).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GradPimFunc {
    /// Scaled read with scaler slot `scale` into temp register `dst`.
    ScaledRead {
        /// Scaler slot (0–3).
        scale: u8,
        /// Destination temp register.
        dst: u8,
    },
    /// Dequantize quant-register slice `pos` into temp register `dst`.
    Dequant {
        /// Source slice within the quantization register.
        pos: u8,
        /// Destination temp register.
        dst: u8,
    },
    /// Quantize temp register `src` into quant-register slice `pos`.
    Quant {
        /// Destination slice within the quantization register.
        pos: u8,
        /// Source temp register.
        src: u8,
    },
    /// Write temp register `src` back to the addressed column.
    Writeback {
        /// Source temp register.
        src: u8,
    },
    /// Move the quantization register from (`write = false`) or to
    /// (`write = true`) the addressed column.
    QReg {
        /// Direction: `false` = RD (column → register), `true` = WR.
        write: bool,
    },
    /// Parallel add into temp register `dst`.
    Add {
        /// Destination temp register.
        dst: u8,
    },
    /// Parallel subtract into temp register `dst`.
    Sub {
        /// Destination temp register.
        dst: u8,
    },
}

/// Raised when a 5-bit pattern does not decode to a GradPIM function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError(
    /// The offending packed bits.
    pub u8,
);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid GradPIM RFU encoding {:#07b}", self.0)
    }
}

impl std::error::Error for DecodeError {}

impl GradPimFunc {
    /// Encodes per Table I.
    pub fn encode(self) -> RfuBits {
        let b = |v: u8, bit: u8| v >> bit & 1 != 0;
        match self {
            GradPimFunc::ScaledRead { scale, dst } => RfuBits {
                op0: false,
                op1: false,
                param0: b(scale, 1),
                param1: b(scale, 0),
                srcdst: dst & 1 != 0,
            },
            GradPimFunc::Dequant { pos, dst } => RfuBits {
                op0: true,
                op1: false,
                param0: b(pos, 1),
                param1: b(pos, 0),
                srcdst: dst & 1 != 0,
            },
            GradPimFunc::Quant { pos, src } => RfuBits {
                op0: true,
                op1: true,
                param0: b(pos, 1),
                param1: b(pos, 0),
                srcdst: src & 1 != 0,
            },
            GradPimFunc::Writeback { src } => RfuBits {
                op0: false,
                op1: true,
                param0: false,
                param1: false,
                srcdst: src & 1 != 0,
            },
            GradPimFunc::QReg { write } => {
                RfuBits { op0: false, op1: true, param0: true, param1: false, srcdst: write }
            }
            GradPimFunc::Add { dst } => {
                RfuBits { op0: false, op1: true, param0: true, param1: true, srcdst: dst & 1 != 0 }
            }
            GradPimFunc::Sub { dst } => {
                RfuBits { op0: false, op1: true, param0: false, param1: true, srcdst: dst & 1 != 0 }
            }
        }
    }

    /// Decodes per Table I.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for RFU patterns Table I leaves unassigned (there are
    /// none in the 5-bit space — every pattern is claimed — so this is
    /// currently infallible but kept fallible for the §IV-E extension space).
    pub fn decode(bits: RfuBits) -> Result<Self, DecodeError> {
        let two = |a: bool, b: bool| (a as u8) << 1 | b as u8;
        Ok(match (bits.op0, bits.op1) {
            (false, false) => GradPimFunc::ScaledRead {
                scale: two(bits.param0, bits.param1),
                dst: bits.srcdst as u8,
            },
            (true, false) => {
                GradPimFunc::Dequant { pos: two(bits.param0, bits.param1), dst: bits.srcdst as u8 }
            }
            (true, true) => {
                GradPimFunc::Quant { pos: two(bits.param0, bits.param1), src: bits.srcdst as u8 }
            }
            (false, true) => match (bits.param0, bits.param1) {
                (false, false) => GradPimFunc::Writeback { src: bits.srcdst as u8 },
                (true, false) => GradPimFunc::QReg { write: bits.srcdst },
                (true, true) => GradPimFunc::Add { dst: bits.srcdst as u8 },
                (false, true) => GradPimFunc::Sub { dst: bits.srcdst as u8 },
            },
        })
    }

    /// The function encoded in a [`PimOp`] (addresses dropped).
    ///
    /// Returns `None` for the §VIII extended-ALU ops (multiply, rsqrt):
    /// Table I claims the whole 5-signal space, so those ride on the §IV-E
    /// expansion mechanism ("add an extra command signal or occupy unused
    /// command combinations") and have no encoding in the base table.
    pub fn from_pim_op(op: PimOp) -> Option<Self> {
        Some(match op {
            PimOp::ScaledRead { scaler, dst, .. } => GradPimFunc::ScaledRead { scale: scaler, dst },
            PimOp::Writeback { src, .. } => GradPimFunc::Writeback { src },
            PimOp::QRegLoad { .. } => GradPimFunc::QReg { write: false },
            PimOp::QRegStore { .. } => GradPimFunc::QReg { write: true },
            PimOp::Add { dst, .. } => GradPimFunc::Add { dst },
            PimOp::Sub { dst, .. } => GradPimFunc::Sub { dst },
            PimOp::Quant { pos, src, .. } => GradPimFunc::Quant { pos, src },
            PimOp::Dequant { pos, dst, .. } => GradPimFunc::Dequant { pos, dst },
            PimOp::Mul { .. } | PimOp::Rsqrt { .. } => return None,
        })
    }

    /// Renders the Table I row for this function (`L`/`H` per signal), used
    /// by the `table1_commands` bench to print the paper's table.
    pub fn truth_table_row(self) -> String {
        let bits = self.encode();
        let lh = |b: bool| if b { "H" } else { "L" };
        format!(
            "{} {} {} {} {}",
            lh(bits.op0),
            lh(bits.op1),
            lh(bits.param0),
            lh(bits.param1),
            lh(bits.srcdst)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_fixed_rows() {
        // Writeback: L H L L; Q.Reg: L H H L; Add: L H H H; Sub: L H L H.
        assert_eq!(GradPimFunc::Writeback { src: 0 }.truth_table_row(), "L H L L L");
        assert_eq!(GradPimFunc::QReg { write: false }.truth_table_row(), "L H H L L");
        assert_eq!(GradPimFunc::Add { dst: 0 }.truth_table_row(), "L H H H L");
        assert_eq!(GradPimFunc::Sub { dst: 0 }.truth_table_row(), "L H L H L");
        // Scaled read: L L + 2-bit scale id.
        assert_eq!(GradPimFunc::ScaledRead { scale: 0, dst: 0 }.truth_table_row(), "L L L L L");
        assert_eq!(GradPimFunc::ScaledRead { scale: 3, dst: 1 }.truth_table_row(), "L L H H H");
        // DeQuant: H L; Quant: H H.
        assert_eq!(GradPimFunc::Dequant { pos: 2, dst: 1 }.truth_table_row(), "H L H L H");
        assert_eq!(GradPimFunc::Quant { pos: 1, src: 0 }.truth_table_row(), "H H L H L");
    }

    #[test]
    fn encode_decode_round_trip_all_functions() {
        let mut all = Vec::new();
        for scale in 0..4 {
            for dst in 0..2 {
                all.push(GradPimFunc::ScaledRead { scale, dst });
            }
        }
        for pos in 0..4 {
            for r in 0..2 {
                all.push(GradPimFunc::Dequant { pos, dst: r });
                all.push(GradPimFunc::Quant { pos, src: r });
            }
        }
        for r in 0..2u8 {
            all.push(GradPimFunc::Writeback { src: r });
            all.push(GradPimFunc::Add { dst: r });
            all.push(GradPimFunc::Sub { dst: r });
        }
        all.push(GradPimFunc::QReg { write: false });
        all.push(GradPimFunc::QReg { write: true });

        for f in all {
            let bits = f.encode();
            assert_eq!(GradPimFunc::decode(bits).unwrap(), f, "{f:?}");
        }
    }

    #[test]
    fn every_5bit_pattern_decodes_uniquely() {
        // The 5-bit space is fully and unambiguously assigned: decoding all
        // 32 patterns yields 32 distinct functions that re-encode to the
        // same bits.
        let mut seen = Vec::new();
        for v in 0..32u8 {
            let bits = RfuBits::unpack(v);
            let f = GradPimFunc::decode(bits).expect("all patterns assigned");
            assert_eq!(f.encode().pack(), v, "{f:?}");
            assert!(!seen.contains(&f), "pattern {v:#07b} duplicates {f:?}");
            seen.push(f);
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for v in 0..32u8 {
            assert_eq!(RfuBits::unpack(v).pack(), v);
        }
    }

    #[test]
    fn pim_op_to_func() {
        let op = PimOp::ScaledRead { bank: 0, row: 1, col: 2, scaler: 2, dst: 1 };
        assert_eq!(
            GradPimFunc::from_pim_op(op),
            Some(GradPimFunc::ScaledRead { scale: 2, dst: 1 })
        );
        assert_eq!(
            GradPimFunc::from_pim_op(PimOp::QRegStore { bank: 0, row: 0, col: 0 }),
            Some(GradPimFunc::QReg { write: true })
        );
        // §VIII extended ops have no Table I encoding.
        assert_eq!(GradPimFunc::from_pim_op(PimOp::Mul { bank: 0, dst: 0 }), None);
        assert_eq!(GradPimFunc::from_pim_op(PimOp::Rsqrt { bank: 0, dst: 1 }), None);
    }

    #[test]
    #[should_panic(expected = "5 bits")]
    fn unpack_rejects_wide_values() {
        RfuBits::unpack(32);
    }
}
