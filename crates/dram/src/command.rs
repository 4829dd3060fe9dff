//! The DDR4 command set plus the GradPIM protocol extension (§IV-B, Table I).
//!
//! GradPIM adds seven commands on top of the standard set, mapped onto RFU
//! encodings (see `gradpim_core::isa` for the bit-level truth table):
//!
//! * **Scaled read** — bank column → temporary register, scaled by one of
//!   four pinned hyper-parameter values.
//! * **Writeback** — temporary register → bank column (the latter half of a
//!   DDR write).
//! * **Q-register load/store** — bank column ↔ quantization register (the
//!   Table I "Q. Reg" RD/WR command).
//! * **Parallel add/sub** — `Reg0 op Reg1` → chosen destination register.
//! * **Quant / Dequant** — temporary register ↔ a 1/ratio slice of the
//!   quantization register.

use crate::address::Address;

/// Identifies one bank inside a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BankAddr {
    /// Rank within the channel.
    pub rank: u8,
    /// Bank group within the rank.
    pub bankgroup: u8,
    /// Bank within the bank group.
    pub bank: u8,
}

impl From<Address> for BankAddr {
    fn from(a: Address) -> Self {
        BankAddr { rank: a.rank as u8, bankgroup: a.bankgroup as u8, bank: a.bank as u8 }
    }
}

/// Discriminates command kinds for stats/timing tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum CommandKind {
    /// Row activate.
    Activate,
    /// Single-bank precharge.
    Precharge,
    /// All-bank precharge (one rank).
    PrechargeAll,
    /// Column read (external, drives the data bus).
    Read,
    /// Column write (external, drives the data bus).
    Write,
    /// All-bank refresh (one rank).
    Refresh,
    /// GradPIM scaled read: column → temp register, scaled.
    ScaledRead,
    /// GradPIM writeback: temp register → column.
    Writeback,
    /// GradPIM quantization-register load: column → quant register.
    QRegLoad,
    /// GradPIM quantization-register store: quant register → column.
    QRegStore,
    /// GradPIM parallel add.
    PimAdd,
    /// GradPIM parallel subtract.
    PimSub,
    /// GradPIM quantization (temp reg → quant-reg slice).
    Quant,
    /// GradPIM dequantization (quant-reg slice → temp reg).
    Dequant,
    /// Extended-ALU parallel multiply (§VIII expandability; requires
    /// `DramConfig::extended_alu`).
    PimMul,
    /// Extended-ALU reciprocal square root (§VIII; requires
    /// `DramConfig::extended_alu`).
    PimRsqrt,
}

impl CommandKind {
    /// Number of command kinds (for dense stat arrays).
    pub const COUNT: usize = 16;

    /// All kinds, index-ordered.
    pub const ALL: [CommandKind; Self::COUNT] = [
        CommandKind::Activate,
        CommandKind::Precharge,
        CommandKind::PrechargeAll,
        CommandKind::Read,
        CommandKind::Write,
        CommandKind::Refresh,
        CommandKind::ScaledRead,
        CommandKind::Writeback,
        CommandKind::QRegLoad,
        CommandKind::QRegStore,
        CommandKind::PimAdd,
        CommandKind::PimSub,
        CommandKind::Quant,
        CommandKind::Dequant,
        CommandKind::PimMul,
        CommandKind::PimRsqrt,
    ];

    /// Dense index for stat arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for the commands added by GradPIM.
    pub fn is_pim(self) -> bool {
        matches!(
            self,
            CommandKind::ScaledRead
                | CommandKind::Writeback
                | CommandKind::QRegLoad
                | CommandKind::QRegStore
                | CommandKind::PimAdd
                | CommandKind::PimSub
                | CommandKind::Quant
                | CommandKind::Dequant
                | CommandKind::PimMul
                | CommandKind::PimRsqrt
        )
    }

    /// True for PIM commands that move a column between a bank and a PIM
    /// register (occupying the bank-group I/O gating for tCCD_L, §IV-C).
    pub fn is_pim_column(self) -> bool {
        matches!(
            self,
            CommandKind::ScaledRead
                | CommandKind::Writeback
                | CommandKind::QRegLoad
                | CommandKind::QRegStore
        )
    }

    /// True for PIM commands executed by the parallel ALU (occupying it for
    /// tPIM, §IV-C).
    pub fn is_pim_alu(self) -> bool {
        matches!(
            self,
            CommandKind::PimAdd
                | CommandKind::PimSub
                | CommandKind::Quant
                | CommandKind::Dequant
                | CommandKind::PimMul
                | CommandKind::PimRsqrt
        )
    }

    /// True for the extended-ALU commands that exist only when
    /// `DramConfig::extended_alu` is set (§VIII).
    pub fn is_extended(self) -> bool {
        matches!(self, CommandKind::PimMul | CommandKind::PimRsqrt)
    }

    /// True for commands that read a column out of the cells (tRTP applies
    /// before a following precharge).
    pub fn is_column_read(self) -> bool {
        matches!(self, CommandKind::Read | CommandKind::ScaledRead | CommandKind::QRegLoad)
    }

    /// True for commands that write a column into the cells (tWR applies
    /// before a following precharge).
    pub fn is_column_write(self) -> bool {
        matches!(self, CommandKind::Write | CommandKind::Writeback | CommandKind::QRegStore)
    }
}

/// A fully-specified DRAM command as issued by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Open `row` in `bank`.
    Activate {
        /// Target bank.
        bank: BankAddr,
        /// Row to open.
        row: u32,
    },
    /// Close the open row of `bank`.
    Precharge {
        /// Target bank.
        bank: BankAddr,
    },
    /// Close every open row of `rank`.
    PrechargeAll {
        /// Target rank.
        rank: u8,
    },
    /// Burst-read one column to the data bus.
    Read {
        /// Target bank.
        bank: BankAddr,
        /// Open row (for checking).
        row: u32,
        /// Burst column.
        col: u32,
    },
    /// Burst-write one column from the data bus.
    Write {
        /// Target bank.
        bank: BankAddr,
        /// Open row (for checking).
        row: u32,
        /// Burst column.
        col: u32,
    },
    /// All-bank refresh of one rank.
    Refresh {
        /// Target rank.
        rank: u8,
    },
    /// GradPIM: read one column into temporary register `dst`, scaling every
    /// element by scaler slot `scaler` (Table I "Scaled Read").
    ScaledRead {
        /// Target bank.
        bank: BankAddr,
        /// Open row.
        row: u32,
        /// Burst column.
        col: u32,
        /// Scaler slot id (0–3).
        scaler: u8,
        /// Destination temporary register (0 or 1).
        dst: u8,
    },
    /// GradPIM: write temporary register `src` into one column (Table I
    /// "Writeback").
    Writeback {
        /// Target bank.
        bank: BankAddr,
        /// Open row.
        row: u32,
        /// Burst column.
        col: u32,
        /// Source temporary register (0 or 1).
        src: u8,
    },
    /// GradPIM: load one column into the quantization register (Table I
    /// "Q. Reg", RD direction).
    QRegLoad {
        /// Target bank.
        bank: BankAddr,
        /// Open row.
        row: u32,
        /// Burst column.
        col: u32,
    },
    /// GradPIM: store the quantization register into one column (Table I
    /// "Q. Reg", WR direction).
    QRegStore {
        /// Target bank.
        bank: BankAddr,
        /// Open row.
        row: u32,
        /// Burst column.
        col: u32,
    },
    /// GradPIM: `Reg0 + Reg1 → Reg[dst]` (Table I "Add").
    PimAdd {
        /// Bank-group address of the PIM unit (bank ignored for
        /// per-bank-group placement).
        unit: BankAddr,
        /// Destination temporary register.
        dst: u8,
    },
    /// GradPIM: `Reg0 − Reg1 → Reg[dst]` (Table I "Sub").
    PimSub {
        /// Bank-group address of the PIM unit.
        unit: BankAddr,
        /// Destination temporary register.
        dst: u8,
    },
    /// GradPIM: quantize temporary register `src` into quarter `pos` of the
    /// quantization register (Table I "Quant").
    Quant {
        /// Bank-group address of the PIM unit.
        unit: BankAddr,
        /// Slice position within the quantization register.
        pos: u8,
        /// Source temporary register.
        src: u8,
    },
    /// GradPIM: dequantize quarter `pos` of the quantization register into
    /// temporary register `dst` (Table I "DeQuant").
    Dequant {
        /// Bank-group address of the PIM unit.
        unit: BankAddr,
        /// Slice position within the quantization register.
        pos: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// Extended ALU: `Reg0 × Reg1 → Reg[dst]` (§VIII).
    PimMul {
        /// Bank-group address of the PIM unit.
        unit: BankAddr,
        /// Destination temporary register.
        dst: u8,
    },
    /// Extended ALU: `1/√(Reg0 + ε) → Reg[dst]` with ε from the mode
    /// registers (§VIII).
    PimRsqrt {
        /// Bank-group address of the PIM unit.
        unit: BankAddr,
        /// Destination temporary register.
        dst: u8,
    },
}

impl Command {
    /// This command's kind.
    pub fn kind(&self) -> CommandKind {
        match self {
            Command::Activate { .. } => CommandKind::Activate,
            Command::Precharge { .. } => CommandKind::Precharge,
            Command::PrechargeAll { .. } => CommandKind::PrechargeAll,
            Command::Read { .. } => CommandKind::Read,
            Command::Write { .. } => CommandKind::Write,
            Command::Refresh { .. } => CommandKind::Refresh,
            Command::ScaledRead { .. } => CommandKind::ScaledRead,
            Command::Writeback { .. } => CommandKind::Writeback,
            Command::QRegLoad { .. } => CommandKind::QRegLoad,
            Command::QRegStore { .. } => CommandKind::QRegStore,
            Command::PimAdd { .. } => CommandKind::PimAdd,
            Command::PimSub { .. } => CommandKind::PimSub,
            Command::Quant { .. } => CommandKind::Quant,
            Command::Dequant { .. } => CommandKind::Dequant,
            Command::PimMul { .. } => CommandKind::PimMul,
            Command::PimRsqrt { .. } => CommandKind::PimRsqrt,
        }
    }

    /// The bank (or unit) this command addresses; `None` for the rank-wide
    /// `PrechargeAll` and `Refresh`, which address no single bank.
    pub fn bank(&self) -> Option<BankAddr> {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. }
            | Command::ScaledRead { bank, .. }
            | Command::Writeback { bank, .. }
            | Command::QRegLoad { bank, .. }
            | Command::QRegStore { bank, .. } => Some(bank),
            Command::PimAdd { unit, .. }
            | Command::PimSub { unit, .. }
            | Command::Quant { unit, .. }
            | Command::Dequant { unit, .. }
            | Command::PimMul { unit, .. }
            | Command::PimRsqrt { unit, .. } => Some(unit),
            Command::PrechargeAll { .. } | Command::Refresh { .. } => None,
        }
    }

    /// The rank this command addresses.
    pub fn rank(&self) -> u8 {
        match *self {
            Command::PrechargeAll { rank } | Command::Refresh { rank } => rank,
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. }
            | Command::ScaledRead { bank, .. }
            | Command::Writeback { bank, .. }
            | Command::QRegLoad { bank, .. }
            | Command::QRegStore { bank, .. } => bank.rank,
            Command::PimAdd { unit, .. }
            | Command::PimSub { unit, .. }
            | Command::Quant { unit, .. }
            | Command::Dequant { unit, .. }
            | Command::PimMul { unit, .. }
            | Command::PimRsqrt { unit, .. } => unit.rank,
        }
    }
}

/// A PIM micro-operation as produced by the `gradpim-core` kernel compiler:
/// a [`Command`]-shaped payload without the ACT/PRE plumbing, which the
/// memory controller generates on demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimOp {
    /// See [`Command::ScaledRead`].
    ScaledRead {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
        /// Scaler slot (0–3).
        scaler: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// See [`Command::Writeback`].
    Writeback {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
        /// Source temporary register.
        src: u8,
    },
    /// See [`Command::QRegLoad`].
    QRegLoad {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
    },
    /// See [`Command::QRegStore`].
    QRegStore {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
    },
    /// See [`Command::PimAdd`].
    Add {
        /// Bank owning the unit (meaningful for per-bank placement only;
        /// 0 for per-bank-group units).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// See [`Command::PimSub`].
    Sub {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// See [`Command::Quant`].
    Quant {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Quant-register slice position.
        pos: u8,
        /// Source temporary register.
        src: u8,
    },
    /// See [`Command::Dequant`].
    Dequant {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Quant-register slice position.
        pos: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// See [`Command::PimMul`] (extended ALU, §VIII).
    Mul {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// See [`Command::PimRsqrt`] (extended ALU, §VIII).
    Rsqrt {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
}

impl PimOp {
    /// Lowers this op into a full [`Command`] for the unit at
    /// (`rank`, `bankgroup`).
    pub fn to_command(self, rank: u8, bankgroup: u8) -> Command {
        let at = |bank: u8| BankAddr { rank, bankgroup, bank };
        match self {
            PimOp::ScaledRead { bank, row, col, scaler, dst } => {
                Command::ScaledRead { bank: at(bank), row, col, scaler, dst }
            }
            PimOp::Writeback { bank, row, col, src } => {
                Command::Writeback { bank: at(bank), row, col, src }
            }
            PimOp::QRegLoad { bank, row, col } => Command::QRegLoad { bank: at(bank), row, col },
            PimOp::QRegStore { bank, row, col } => Command::QRegStore { bank: at(bank), row, col },
            PimOp::Add { bank, dst } => Command::PimAdd { unit: at(bank), dst },
            PimOp::Sub { bank, dst } => Command::PimSub { unit: at(bank), dst },
            PimOp::Quant { bank, pos, src } => Command::Quant { unit: at(bank), pos, src },
            PimOp::Dequant { bank, pos, dst } => Command::Dequant { unit: at(bank), pos, dst },
            PimOp::Mul { bank, dst } => Command::PimMul { unit: at(bank), dst },
            PimOp::Rsqrt { bank, dst } => Command::PimRsqrt { unit: at(bank), dst },
        }
    }

    /// The kind of the lowered command.
    pub fn kind(self) -> CommandKind {
        match self {
            PimOp::ScaledRead { .. } => CommandKind::ScaledRead,
            PimOp::Writeback { .. } => CommandKind::Writeback,
            PimOp::QRegLoad { .. } => CommandKind::QRegLoad,
            PimOp::QRegStore { .. } => CommandKind::QRegStore,
            PimOp::Add { .. } => CommandKind::PimAdd,
            PimOp::Sub { .. } => CommandKind::PimSub,
            PimOp::Quant { .. } => CommandKind::Quant,
            PimOp::Dequant { .. } => CommandKind::Dequant,
            PimOp::Mul { .. } => CommandKind::PimMul,
            PimOp::Rsqrt { .. } => CommandKind::PimRsqrt,
        }
    }

    /// The bank/row this op needs open, if it is a column op.
    pub fn row_target(self) -> Option<(u8, u32)> {
        match self {
            PimOp::ScaledRead { bank, row, .. }
            | PimOp::Writeback { bank, row, .. }
            | PimOp::QRegLoad { bank, row, .. }
            | PimOp::QRegStore { bank, row, .. } => Some((bank, row)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification_is_consistent() {
        for k in CommandKind::ALL {
            // Column reads/writes are disjoint.
            assert!(!(k.is_column_read() && k.is_column_write()), "{k:?}");
            // PIM column ops are PIM and column ops.
            if k.is_pim_column() {
                assert!(k.is_pim());
                assert!(k.is_column_read() || k.is_column_write());
            }
            // ALU ops never touch columns.
            if k.is_pim_alu() {
                assert!(k.is_pim());
                assert!(!k.is_column_read() && !k.is_column_write());
            }
        }
    }

    #[test]
    fn indices_are_dense() {
        for (i, k) in CommandKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn pim_op_lowering_preserves_addresses() {
        let op = PimOp::ScaledRead { bank: 2, row: 7, col: 13, scaler: 1, dst: 0 };
        match op.to_command(3, 1) {
            Command::ScaledRead { bank, row, col, scaler, dst } => {
                assert_eq!(bank, BankAddr { rank: 3, bankgroup: 1, bank: 2 });
                assert_eq!((row, col, scaler, dst), (7, 13, 1, 0));
            }
            other => panic!("wrong lowering: {other:?}"),
        }
        assert_eq!(op.kind(), CommandKind::ScaledRead);
        assert_eq!(op.row_target(), Some((2, 7)));
        assert_eq!(PimOp::Add { bank: 0, dst: 1 }.row_target(), None);
    }

    #[test]
    fn command_kind_round_trip() {
        let bank = BankAddr { rank: 0, bankgroup: 1, bank: 2 };
        let cmds = [
            Command::Activate { bank, row: 1 },
            Command::Precharge { bank },
            Command::PrechargeAll { rank: 0 },
            Command::Read { bank, row: 1, col: 2 },
            Command::Write { bank, row: 1, col: 2 },
            Command::Refresh { rank: 1 },
            Command::ScaledRead { bank, row: 1, col: 2, scaler: 0, dst: 0 },
            Command::Writeback { bank, row: 1, col: 2, src: 1 },
            Command::QRegLoad { bank, row: 1, col: 2 },
            Command::QRegStore { bank, row: 1, col: 2 },
            Command::PimAdd { unit: bank, dst: 0 },
            Command::PimSub { unit: bank, dst: 1 },
            Command::Quant { unit: bank, pos: 3, src: 0 },
            Command::Dequant { unit: bank, pos: 2, dst: 1 },
            Command::PimMul { unit: bank, dst: 0 },
            Command::PimRsqrt { unit: bank, dst: 1 },
        ];
        for (cmd, kind) in cmds.iter().zip(CommandKind::ALL) {
            assert_eq!(cmd.kind(), kind);
        }
    }

    #[test]
    fn rank_wide_commands_address_no_bank() {
        // REF and PRE-all name a rank, not bank 0 of bank group 0: a
        // bank-group-scoped consumer must not mistake them for a command
        // to that group.
        for cmd in [Command::Refresh { rank: 3 }, Command::PrechargeAll { rank: 2 }] {
            assert_eq!(cmd.bank(), None, "{cmd:?}");
        }
        assert_eq!(Command::Refresh { rank: 3 }.rank(), 3);
        assert_eq!(Command::PrechargeAll { rank: 2 }.rank(), 2);
        let bank = BankAddr { rank: 1, bankgroup: 3, bank: 2 };
        for cmd in [
            Command::Activate { bank, row: 9 },
            Command::Precharge { bank },
            Command::Read { bank, row: 9, col: 4 },
            Command::Writeback { bank, row: 9, col: 4, src: 0 },
            Command::PimAdd { unit: bank, dst: 1 },
            Command::PimRsqrt { unit: bank, dst: 0 },
        ] {
            assert_eq!(cmd.bank(), Some(bank), "{cmd:?}");
            assert_eq!(cmd.rank(), 1, "{cmd:?}");
        }
    }
}
