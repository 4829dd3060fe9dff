//! Command tracing and independent protocol verification.
//!
//! The controller checks timing at issue via debug assertions; this module
//! provides *release-mode* verification: record the issued command stream
//! and replay it through a fresh [`TimingState`] + bank state, flagging any
//! command that violates a JEDEC/GradPIM constraint or targets a
//! closed/mismatched row. Useful as a regression oracle for controller
//! changes and for inspecting protocol behaviour in tests.

use crate::bank::BankState;
use crate::command::Command;
use crate::config::DramConfig;
use crate::timing::TimingState;

/// One issued command with its issue cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Memory-clock cycle of issue.
    pub cycle: u64,
    /// The command.
    pub cmd: Command,
}

/// A detected protocol violation.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolViolation {
    /// Issued before the timing engine allows.
    TimingViolation {
        /// Index into the trace.
        index: usize,
        /// The offending entry.
        entry: TraceEntry,
        /// Earliest legal cycle.
        earliest: u64,
    },
    /// Column command to a bank whose open row does not match (or is
    /// closed).
    RowMismatch {
        /// Index into the trace.
        index: usize,
        /// The offending entry.
        entry: TraceEntry,
        /// What the bank actually had open.
        open_row: Option<u32>,
    },
    /// Activate to a bank that already has an open row.
    DoubleActivate {
        /// Index into the trace.
        index: usize,
        /// The offending entry.
        entry: TraceEntry,
    },
    /// Commands out of cycle order.
    NonMonotonic {
        /// Index into the trace.
        index: usize,
    },
    /// Extended-ALU command on a device without `extended_alu`.
    ExtendedAluDisabled {
        /// Index into the trace.
        index: usize,
        /// The offending entry.
        entry: TraceEntry,
    },
}

impl std::fmt::Display for ProtocolViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolViolation::TimingViolation { index, entry, earliest } => write!(
                f,
                "trace[{index}]: {:?} at cycle {} before earliest {}",
                entry.cmd, entry.cycle, earliest
            ),
            ProtocolViolation::RowMismatch { index, entry, open_row } => write!(
                f,
                "trace[{index}]: {:?} at cycle {} against open row {:?}",
                entry.cmd, entry.cycle, open_row
            ),
            ProtocolViolation::DoubleActivate { index, entry } => {
                write!(
                    f,
                    "trace[{index}]: double activate {:?} at cycle {}",
                    entry.cmd, entry.cycle
                )
            }
            ProtocolViolation::NonMonotonic { index } => {
                write!(f, "trace[{index}]: cycle numbers go backwards")
            }
            ProtocolViolation::ExtendedAluDisabled { index, entry } => {
                write!(f, "trace[{index}]: extended-ALU {:?} on a base device", entry.cmd)
            }
        }
    }
}

impl std::error::Error for ProtocolViolation {}

fn flat_bank(cfg: &DramConfig, cmd: &Command) -> Option<usize> {
    cmd.bank().map(|b| {
        (b.rank as usize * cfg.bankgroups + b.bankgroup as usize) * cfg.banks_per_group
            + b.bank as usize
    })
}

/// Replays `trace` against a fresh timing/bank model and returns the first
/// violation, if any.
///
/// The replay applies the same rules the controller must obey:
/// monotonically non-decreasing cycles, [`TimingState::earliest`] for every
/// command, rows opened before column access and matching the accessed row,
/// no double activation, and the extended-ALU gate.
pub fn verify_trace(cfg: &DramConfig, trace: &[TraceEntry]) -> Result<(), ProtocolViolation> {
    let mut timing = TimingState::new(cfg);
    let mut banks = vec![BankState::new(); cfg.ranks * cfg.banks_per_rank()];
    let mut last_cycle = 0u64;
    for (index, entry) in trace.iter().enumerate() {
        if entry.cycle < last_cycle {
            return Err(ProtocolViolation::NonMonotonic { index });
        }
        last_cycle = entry.cycle;
        let kind = entry.cmd.kind();
        if kind.is_extended() && !cfg.extended_alu {
            return Err(ProtocolViolation::ExtendedAluDisabled { index, entry: *entry });
        }
        let earliest = timing.earliest(&entry.cmd);
        if entry.cycle < earliest {
            return Err(ProtocolViolation::TimingViolation { index, entry: *entry, earliest });
        }
        // Row legality.
        let row_of = |cmd: &Command| -> Option<u32> {
            match *cmd {
                Command::Read { row, .. } | Command::Write { row, .. } => Some(row),
                Command::Pim { op, .. } => op.row_target().map(|(_, row)| row),
                _ => None,
            }
        };
        match entry.cmd {
            Command::Activate { row, .. } => {
                let fb = flat_bank(cfg, &entry.cmd).expect("activate has a bank");
                if banks[fb].open_row().is_some() {
                    return Err(ProtocolViolation::DoubleActivate { index, entry: *entry });
                }
                banks[fb].activate(row);
            }
            Command::Precharge { .. } => {
                let fb = flat_bank(cfg, &entry.cmd).expect("precharge has a bank");
                banks[fb].precharge();
            }
            Command::PrechargeAll { rank } => {
                let base = rank as usize * cfg.banks_per_rank();
                for b in 0..cfg.banks_per_rank() {
                    banks[base + b].precharge();
                }
            }
            Command::Refresh { rank } => {
                // All banks must be precharged.
                let base = rank as usize * cfg.banks_per_rank();
                for b in 0..cfg.banks_per_rank() {
                    if banks[base + b].open_row().is_some() {
                        return Err(ProtocolViolation::RowMismatch {
                            index,
                            entry: *entry,
                            open_row: banks[base + b].open_row(),
                        });
                    }
                }
            }
            _ => {
                if let Some(row) = row_of(&entry.cmd) {
                    let fb = flat_bank(cfg, &entry.cmd).expect("column command has a bank");
                    if !banks[fb].is_hit(row) {
                        return Err(ProtocolViolation::RowMismatch {
                            index,
                            entry: *entry,
                            open_row: banks[fb].open_row(),
                        });
                    }
                }
            }
        }
        timing.issue(&entry.cmd, entry.cycle);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{BankAddr, PimOp};

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    fn bank0() -> BankAddr {
        BankAddr { rank: 0, bankgroup: 0, bank: 0 }
    }

    #[test]
    fn legal_sequence_passes() {
        let c = cfg();
        let trace = vec![
            TraceEntry { cycle: 0, cmd: Command::Activate { bank: bank0(), row: 5 } },
            TraceEntry { cycle: c.trcd, cmd: Command::Read { bank: bank0(), row: 5, col: 0 } },
            TraceEntry {
                cycle: c.trcd + c.tccd_l,
                cmd: Command::Read { bank: bank0(), row: 5, col: 1 },
            },
        ];
        assert_eq!(verify_trace(&c, &trace), Ok(()));
    }

    #[test]
    fn early_read_is_flagged() {
        let c = cfg();
        let trace = vec![
            TraceEntry { cycle: 0, cmd: Command::Activate { bank: bank0(), row: 5 } },
            TraceEntry { cycle: c.trcd - 1, cmd: Command::Read { bank: bank0(), row: 5, col: 0 } },
        ];
        assert!(matches!(
            verify_trace(&c, &trace),
            Err(ProtocolViolation::TimingViolation { index: 1, .. })
        ));
    }

    #[test]
    fn wrong_row_is_flagged() {
        let c = cfg();
        let trace = vec![
            TraceEntry { cycle: 0, cmd: Command::Activate { bank: bank0(), row: 5 } },
            TraceEntry { cycle: c.trcd, cmd: Command::Read { bank: bank0(), row: 6, col: 0 } },
        ];
        assert!(matches!(
            verify_trace(&c, &trace),
            Err(ProtocolViolation::RowMismatch { index: 1, .. })
        ));
    }

    #[test]
    fn double_activate_is_flagged() {
        let c = cfg();
        let trace = vec![
            TraceEntry { cycle: 0, cmd: Command::Activate { bank: bank0(), row: 5 } },
            TraceEntry { cycle: 100, cmd: Command::Activate { bank: bank0(), row: 6 } },
        ];
        assert!(matches!(
            verify_trace(&c, &trace),
            Err(ProtocolViolation::DoubleActivate { index: 1, .. })
        ));
    }

    #[test]
    fn non_monotonic_is_flagged() {
        let c = cfg();
        let trace = vec![
            TraceEntry { cycle: 10, cmd: Command::Activate { bank: bank0(), row: 5 } },
            TraceEntry { cycle: 9, cmd: Command::Precharge { bank: bank0() } },
        ];
        assert!(matches!(
            verify_trace(&c, &trace),
            Err(ProtocolViolation::NonMonotonic { index: 1 })
        ));
    }

    #[test]
    fn extended_alu_gate_is_checked() {
        let c = cfg();
        let mul = Command::Pim { rank: 0, bankgroup: 0, op: PimOp::Mul { bank: 0, dst: 0 } };
        let trace = vec![TraceEntry { cycle: 0, cmd: mul }];
        assert!(matches!(
            verify_trace(&c, &trace),
            Err(ProtocolViolation::ExtendedAluDisabled { index: 0, .. })
        ));
        let mut ext = cfg();
        ext.extended_alu = true;
        assert_eq!(verify_trace(&ext, &trace), Ok(()));
    }
}
