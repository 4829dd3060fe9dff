//! The DDR4 command set plus the GradPIM protocol extension (§IV-B, Table I).
//!
//! A [`Command`] is a standard DDR4 command or [`Command::Pim`]: one
//! [`PimOp`] for the GradPIM unit of one bank group. The kernel compiler
//! emits bare [`PimOp`]s; the controller opens the rows they need and
//! issues each as a `Command::Pim` of its unit. GradPIM's ops map onto RFU
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
//! * **Mul / Rsqrt** — the §VIII extended ALU, on devices with
//!   `DramConfig::extended_alu`.

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
    /// GradPIM: `op` on the unit of bank group `bankgroup` of `rank` (of
    /// bank `op.bank()` there, for per-bank units).
    Pim {
        /// Rank of the unit.
        rank: u8,
        /// Bank group of the unit.
        bankgroup: u8,
        /// The micro-operation.
        op: PimOp,
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
            Command::Pim { op, .. } => op.kind(),
        }
    }

    /// The bank (or unit) this command addresses; `None` for the rank-wide
    /// `PrechargeAll` and `Refresh`, which address no single bank.
    pub fn bank(&self) -> Option<BankAddr> {
        match *self {
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => Some(bank),
            Command::Pim { rank, bankgroup, op } => {
                Some(BankAddr { rank, bankgroup, bank: op.bank() })
            }
            Command::PrechargeAll { .. } | Command::Refresh { .. } => None,
        }
    }

    /// The rank this command addresses.
    pub fn rank(&self) -> u8 {
        match *self {
            Command::PrechargeAll { rank }
            | Command::Refresh { rank }
            | Command::Pim { rank, .. } => rank,
            Command::Activate { bank, .. }
            | Command::Precharge { bank }
            | Command::Read { bank, .. }
            | Command::Write { bank, .. } => bank.rank,
        }
    }
}

/// A GradPIM micro-operation, as produced by the `gradpim-core` kernel
/// compiler and queued per unit: the controller generates the ACT/PRE
/// plumbing on demand and issues it as [`Command::Pim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimOp {
    /// Read one column into temporary register `dst`, scaling every
    /// element by scaler slot `scaler` (Table I "Scaled Read").
    ScaledRead {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
        /// Scaler slot (0–3).
        scaler: u8,
        /// Destination temporary register (0 or 1).
        dst: u8,
    },
    /// Write temporary register `src` into one column (Table I
    /// "Writeback").
    Writeback {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
        /// Source temporary register (0 or 1).
        src: u8,
    },
    /// Load one column into the quantization register (Table I "Q. Reg",
    /// RD direction).
    QRegLoad {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
    },
    /// Store the quantization register into one column (Table I "Q. Reg",
    /// WR direction).
    QRegStore {
        /// Target bank within the unit's bank group.
        bank: u8,
        /// Target row.
        row: u32,
        /// Target column.
        col: u32,
    },
    /// `Reg0 + Reg1 → Reg[dst]` (Table I "Add").
    Add {
        /// Bank owning the unit (meaningful for per-bank placement only;
        /// 0 for per-bank-group units).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// `Reg0 − Reg1 → Reg[dst]` (Table I "Sub").
    Sub {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// Quantize temporary register `src` into slice `pos` of the
    /// quantization register (Table I "Quant").
    Quant {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Slice position within the quantization register.
        pos: u8,
        /// Source temporary register.
        src: u8,
    },
    /// Dequantize slice `pos` of the quantization register into temporary
    /// register `dst` (Table I "DeQuant").
    Dequant {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Slice position within the quantization register.
        pos: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// Extended ALU: `Reg0 × Reg1 → Reg[dst]` (§VIII).
    Mul {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
    /// Extended ALU: `1/√(Reg0 + ε) → Reg[dst]` with ε from the mode
    /// registers (§VIII).
    Rsqrt {
        /// Bank owning the unit (per-bank placement only).
        bank: u8,
        /// Destination temporary register.
        dst: u8,
    },
}

impl PimOp {
    /// The kind of the issued command.
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

    /// The bank within the unit's bank group this op addresses.
    pub fn bank(self) -> u8 {
        match self {
            PimOp::ScaledRead { bank, .. }
            | PimOp::Writeback { bank, .. }
            | PimOp::QRegLoad { bank, .. }
            | PimOp::QRegStore { bank, .. }
            | PimOp::Add { bank, .. }
            | PimOp::Sub { bank, .. }
            | PimOp::Quant { bank, .. }
            | PimOp::Dequant { bank, .. }
            | PimOp::Mul { bank, .. }
            | PimOp::Rsqrt { bank, .. } => bank,
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
    fn indices_are_dense() {
        for (i, k) in CommandKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn pim_op_lowering_preserves_addresses() {
        let op = PimOp::ScaledRead { bank: 2, row: 7, col: 13, scaler: 1, dst: 0 };
        let cmd = Command::Pim { rank: 3, bankgroup: 1, op };
        assert_eq!(cmd.bank(), Some(BankAddr { rank: 3, bankgroup: 1, bank: 2 }));
        assert_eq!(cmd.rank(), 3);
        assert_eq!(cmd.kind(), CommandKind::ScaledRead);
        assert_eq!(op.kind(), CommandKind::ScaledRead);
        assert_eq!(op.row_target(), Some((2, 7)));
        assert_eq!(PimOp::Add { bank: 0, dst: 1 }.row_target(), None);
        // The controller caches one candidate command per queue.
        assert_eq!(std::mem::size_of::<Command>(), 16);
    }

    #[test]
    fn command_kind_round_trip() {
        let bank = BankAddr { rank: 0, bankgroup: 1, bank: 2 };
        let pim = |op| Command::Pim { rank: 0, bankgroup: 1, op };
        let cmds = [
            Command::Activate { bank, row: 1 },
            Command::Precharge { bank },
            Command::PrechargeAll { rank: 0 },
            Command::Read { bank, row: 1, col: 2 },
            Command::Write { bank, row: 1, col: 2 },
            Command::Refresh { rank: 1 },
            pim(PimOp::ScaledRead { bank: 2, row: 1, col: 2, scaler: 0, dst: 0 }),
            pim(PimOp::Writeback { bank: 2, row: 1, col: 2, src: 1 }),
            pim(PimOp::QRegLoad { bank: 2, row: 1, col: 2 }),
            pim(PimOp::QRegStore { bank: 2, row: 1, col: 2 }),
            pim(PimOp::Add { bank: 2, dst: 0 }),
            pim(PimOp::Sub { bank: 2, dst: 1 }),
            pim(PimOp::Quant { bank: 2, pos: 3, src: 0 }),
            pim(PimOp::Dequant { bank: 2, pos: 2, dst: 1 }),
            pim(PimOp::Mul { bank: 2, dst: 0 }),
            pim(PimOp::Rsqrt { bank: 2, dst: 1 }),
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
        let pim = |op| Command::Pim { rank: 1, bankgroup: 3, op };
        for cmd in [
            Command::Activate { bank, row: 9 },
            Command::Precharge { bank },
            Command::Read { bank, row: 9, col: 4 },
            pim(PimOp::Writeback { bank: 2, row: 9, col: 4, src: 0 }),
            pim(PimOp::Add { bank: 2, dst: 1 }),
            pim(PimOp::Rsqrt { bank: 2, dst: 0 }),
        ] {
            assert_eq!(cmd.bank(), Some(bank), "{cmd:?}");
            assert_eq!(cmd.rank(), 1, "{cmd:?}");
        }
    }
}
