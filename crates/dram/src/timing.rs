//! The command-to-command timing constraint engine.
//!
//! Organized DRAMsim3-style: every issued command updates
//! "earliest-allowed-issue" registers at four scopes — same bank, same bank
//! group, same rank, channel — and a command is issuable at cycle `t` only if
//! `t` is at or past the maximum of its scopes' registers (plus data-bus
//! availability for external column commands and the tFAW window for
//! activates).
//!
//! [`TimingState::earliest`] is split along the same line the GradPIM
//! rules draw (§IV-C) — a scaled read, a writeback or an ALU op occupies
//! only its own bank group — into two parts, joined by `max`:
//!
//! * the **local** part (`TimingState::local_earliest`): the bank,
//!   bank-group and per-bank-ALU registers of the command's bank group.
//!   Only a command issued to that bank group moves it (REF and PRE-all
//!   read every bank of their rank, and a PRE-all moves them all);
//! * a **class term** per rank and command class
//!   (`TimingState::class_terms`), the same for every command of that
//!   class to that rank: activate (refresh recovery, tRRD_S, tFAW), read
//!   (recovery, tCCD_S / tWTR_S, the data bus at tCL with tRTRS), write
//!   (recovery, tCCD_S, the read→write turnaround, the data bus at tCWL),
//!   other (recovery). Only an activate, a read, a write or a refresh
//!   moves terms (`TimingState::moves_terms`); on a channel-wide bus a
//!   read or write moves every rank's read and write terms.
//!
//! The memory controller caches the local part per queued command and the
//! terms per rank, and invalidates each on its own.
//!
//! GradPIM commands follow §IV-C exactly:
//!
//! * **Scaled read / Q-reg load** behave like a column read *without the data
//!   bus*: they occupy the bank-group I/O gating for tCCD_L, honour tRCD
//!   after ACT and impose tRTP before PRE — but impose **no** tCCD_S at rank
//!   scope, so units in different bank groups run fully in parallel.
//! * **Writeback / Q-reg store** are the latter half of a write: tCCD_L on
//!   the bank-group I/O, tWR before PRE, no tCWL/tBURST.
//! * **Parallel ALU ops** occupy only the per-unit ALU for tPIM.
//! * tFAW/tRRD are kept unscaled (the paper found the power-motivated
//!   rescaling changes them by <1 %).

use crate::command::{Command, CommandKind};
use crate::config::{DataBusScope, DramConfig, PimPlacement};

/// Earliest-allowed cycles at bank scope.
#[derive(Debug, Clone, Copy, Default)]
struct BankTiming {
    act: u64,
    pre: u64,
    col: u64, // any column command to this bank (tRCD-gated)
}

/// Earliest-allowed cycles at bank-group scope.
#[derive(Debug, Clone, Copy, Default)]
struct BankGroupTiming {
    act: u64,
    rd: u64,
    wr: u64,
    alu: u64,
}

/// Earliest-allowed cycles at rank scope.
#[derive(Debug, Clone, Default)]
struct RankTiming {
    act: u64,
    rd: u64,
    wr: u64,
    /// Sliding window of the last four ACT issue cycles (tFAW).
    faw: std::collections::VecDeque<u64>,
    /// All commands blocked until this cycle (refresh recovery).
    all: u64,
}

/// Channel-scope shared-resource state.
#[derive(Debug, Clone, Copy, Default)]
struct ChannelTiming {
    /// Data bus reserved until this cycle.
    data_free: u64,
    /// Earliest next write issue (read→write turnaround).
    wr: u64,
    /// Rank that last owned the data bus (tRTRS accounting).
    last_data_rank: Option<u8>,
    /// When the last data burst ends (for tRTRS).
    last_data_end: u64,
}

impl ChannelTiming {
    /// Reserves the bus for `rank`'s burst ending at `end`.
    fn reserve(&mut self, rank: u8, end: u64) {
        self.data_free = self.data_free.max(end);
        self.last_data_rank = Some(rank);
        self.last_data_end = end;
    }
}

/// Which per-rank term of [`TimingState::earliest`] bounds a command: the
/// rank- and channel-scope registers that command kind waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TermClass {
    /// Activates: refresh recovery, tRRD_S and the tFAW window.
    Activate,
    /// External reads: refresh recovery, tCCD_S / tWTR_S, and the data
    /// bus at tCL (plus tRTRS after another rank's burst).
    Read,
    /// External writes: refresh recovery, tCCD_S, the read→write
    /// turnaround, and the data bus at tCWL (plus tRTRS).
    Write,
    /// Every other command: refresh recovery only.
    Other,
}

impl TermClass {
    /// Number of classes (for dense per-rank term tables).
    pub(crate) const COUNT: usize = 4;

    /// The class of a command of `kind`.
    pub(crate) fn of(kind: CommandKind) -> Self {
        match kind {
            CommandKind::Activate => TermClass::Activate,
            CommandKind::Read => TermClass::Read,
            CommandKind::Write => TermClass::Write,
            _ => TermClass::Other,
        }
    }

    /// Dense index for term tables.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

/// Complete timing state for one channel.
#[derive(Debug, Clone)]
pub struct TimingState {
    cfg: DramConfig,
    banks: Vec<BankTiming>,
    groups: Vec<BankGroupTiming>,
    /// Per-bank ALU/local-I/O state for `PimPlacement::PerBank`.
    bank_alus: Vec<u64>,
    ranks: Vec<RankTiming>,
    /// One entry for a shared channel bus; one per rank for
    /// `DataBusScope::PerRank` (buffered designs whose buffer chips talk to
    /// their local rank, e.g. TensorDIMM).
    data: Vec<ChannelTiming>,
}

impl TimingState {
    /// Fresh timing state (everything issuable at cycle 0).
    pub fn new(cfg: &DramConfig) -> Self {
        let nbanks = cfg.ranks * cfg.banks_per_rank();
        let ngroups = cfg.ranks * cfg.bankgroups;
        let nbuses = match cfg.data_bus {
            DataBusScope::Channel => 1,
            DataBusScope::PerRank => cfg.ranks,
        };
        Self {
            cfg: cfg.clone(),
            banks: vec![BankTiming::default(); nbanks],
            groups: vec![BankGroupTiming::default(); ngroups],
            bank_alus: vec![0; nbanks],
            ranks: vec![RankTiming::default(); cfg.ranks],
            data: vec![ChannelTiming::default(); nbuses],
        }
    }

    fn bus_idx(&self, rank: u8) -> usize {
        match self.cfg.data_bus {
            DataBusScope::Channel => 0,
            DataBusScope::PerRank => rank as usize,
        }
    }

    fn bank_idx(&self, cmd: &Command) -> usize {
        bank_and_group(&self.cfg, cmd).0
    }

    fn group_idx(&self, cmd: &Command) -> usize {
        bank_and_group(&self.cfg, cmd).1
    }

    /// The bank registers of every bank of `rank`.
    fn rank_banks(&self, rank: u8) -> &[BankTiming] {
        let n = self.cfg.banks_per_rank();
        &self.banks[rank as usize * n..][..n]
    }

    /// Whether local (PIM) column/ALU constraints live at bank or bank-group
    /// scope.
    fn per_bank_pim(&self) -> bool {
        self.cfg.pim_placement == PimPlacement::PerBank
    }

    /// Earliest cycle at which `cmd` may issue, given everything issued so
    /// far: its local part joined with its rank's term for its class (see
    /// the [module docs](self)). Pure query; does not mutate state.
    pub fn earliest(&self, cmd: &Command) -> u64 {
        let term = self.class_terms(cmd.rank())[TermClass::of(cmd.kind()).index()];
        self.local_earliest(cmd).max(term)
    }

    /// The part of [`TimingState::earliest`] set by the bank, bank-group
    /// and per-bank-ALU registers of `cmd`'s bank group (for REF and
    /// PRE-all, of every bank of its rank). It changes only when a command
    /// issues to that bank group, or a PRE-all to its rank.
    pub(crate) fn local_earliest(&self, cmd: &Command) -> u64 {
        match cmd.kind() {
            CommandKind::Activate => {
                self.banks[self.bank_idx(cmd)].act.max(self.groups[self.group_idx(cmd)].act)
            }
            CommandKind::Precharge => self.banks[self.bank_idx(cmd)].pre,
            // Must satisfy the precharge constraint of every bank in the
            // rank.
            CommandKind::PrechargeAll => {
                self.rank_banks(cmd.rank()).iter().fold(0, |t, b| t.max(b.pre))
            }
            CommandKind::Read => {
                self.banks[self.bank_idx(cmd)].col.max(self.groups[self.group_idx(cmd)].rd)
            }
            CommandKind::Write => {
                self.banks[self.bank_idx(cmd)].col.max(self.groups[self.group_idx(cmd)].wr)
            }
            // All banks must be precharged (tRP satisfied) and quiet.
            CommandKind::Refresh => self.rank_banks(cmd.rank()).iter().fold(0, |t, b| t.max(b.act)),
            CommandKind::ScaledRead | CommandKind::QRegLoad => {
                self.banks[self.bank_idx(cmd)].col.max(self.local_io_rd(cmd))
            }
            CommandKind::Writeback | CommandKind::QRegStore => {
                self.banks[self.bank_idx(cmd)].col.max(self.local_io_wr(cmd))
            }
            CommandKind::PimAdd
            | CommandKind::PimSub
            | CommandKind::Quant
            | CommandKind::Dequant
            | CommandKind::PimMul
            | CommandKind::PimRsqrt => self.alu(cmd),
        }
    }

    /// The parts of [`TimingState::earliest`] shared by every command of
    /// one class to `rank`, indexed by [`TermClass::index`]: its rank
    /// registers and, for reads and writes, the data bus they would drive.
    /// Only issuing a command [`TimingState::moves_terms`] moves them: to
    /// that rank, or, for a read or write, to any rank on the same bus.
    pub(crate) fn class_terms(&self, rank: u8) -> [u64; TermClass::COUNT] {
        let c = &self.cfg;
        let r = &self.ranks[rank as usize];
        let bus = &self.data[self.bus_idx(rank)];
        // A burst must start at or after the bus frees; if the previous
        // burst came from a different rank over a shared bus, add tRTRS.
        let mut free = bus.data_free;
        if bus.last_data_rank.is_some_and(|last| last != rank) {
            free = free.max(bus.last_data_end + c.trtrs);
        }
        let faw = if r.faw.len() == 4 { r.faw[0] + c.tfaw } else { 0 };
        // In `TermClass` order: activate, read, write, other.
        [
            r.all.max(r.act).max(faw),
            r.all.max(r.rd).max(free.saturating_sub(c.tcl)),
            r.all.max(r.wr).max(bus.wr).max(free.saturating_sub(c.tcwl)),
            r.all,
        ]
    }

    fn local_io_rd(&self, cmd: &Command) -> u64 {
        if self.per_bank_pim() {
            // Per-bank units: the bank's local datapath paces at tCCD_L; use
            // the bank ALU slot array to track it plus group rd for external
            // sharing.
            self.bank_col_pace(cmd)
        } else {
            self.groups[self.group_idx(cmd)].rd
        }
    }

    fn local_io_wr(&self, cmd: &Command) -> u64 {
        if self.per_bank_pim() {
            self.bank_col_pace(cmd)
        } else {
            self.groups[self.group_idx(cmd)].wr
        }
    }

    /// In per-bank placement the bank's private column pacing is tracked in
    /// `bank_alus` (shared with the per-bank ALU — the unit is one pipeline).
    fn bank_col_pace(&self, cmd: &Command) -> u64 {
        self.bank_alus[self.bank_idx(cmd)]
    }

    fn alu(&self, cmd: &Command) -> u64 {
        if self.per_bank_pim() {
            self.bank_alus[self.bank_idx(cmd)]
        } else {
            self.groups[self.group_idx(cmd)].alu
        }
    }

    /// Whether issuing a command of `kind` can move a class term
    /// ([`TimingState::class_terms`]): an activate (tRRD_S, tFAW), a read
    /// or write (rank and data-bus registers) or a refresh (recovery). A
    /// precharge, a PRE-all and every GradPIM command move only bank and
    /// bank-group registers.
    pub(crate) fn moves_terms(kind: CommandKind) -> bool {
        matches!(
            kind,
            CommandKind::Activate | CommandKind::Read | CommandKind::Write | CommandKind::Refresh
        )
    }

    /// Records the issue of `cmd` at cycle `t`, updating every affected
    /// scope.
    ///
    /// # Panics
    ///
    /// Debug-panics if `t` violates [`TimingState::earliest`].
    pub fn issue(&mut self, cmd: &Command, t: u64) {
        debug_assert!(
            t >= self.earliest(cmd),
            "command {cmd:?} issued at {t} before earliest {}",
            self.earliest(cmd)
        );
        let (ri, busi) = (cmd.rank() as usize, self.bus_idx(cmd.rank()));
        let per_bank_pim = self.per_bank_pim();
        let Self { cfg: c, banks, groups, bank_alus, ranks, data } = self;
        match cmd.kind() {
            CommandKind::Activate => {
                let (bi, gi) = bank_and_group(c, cmd);
                let bank = &mut banks[bi];
                bank.act = bank.act.max(t + c.trc);
                bank.pre = bank.pre.max(t + c.tras);
                bank.col = bank.col.max(t + c.trcd);
                let group = &mut groups[gi];
                group.act = group.act.max(t + c.trrd_l);
                let rank = &mut ranks[ri];
                rank.act = rank.act.max(t + c.trrd_s);
                rank.faw.push_back(t);
                if rank.faw.len() > 4 {
                    rank.faw.pop_front();
                }
            }
            CommandKind::Precharge => {
                let bank = &mut banks[bank_and_group(c, cmd).0];
                bank.act = bank.act.max(t + c.trp);
            }
            CommandKind::PrechargeAll => {
                let base = ri * c.banks_per_rank();
                for bank in &mut banks[base..base + c.banks_per_rank()] {
                    bank.act = bank.act.max(t + c.trp);
                }
            }
            CommandKind::Read => {
                let (bi, gi) = bank_and_group(c, cmd);
                banks[bi].pre = banks[bi].pre.max(t + c.trtp);
                let group = &mut groups[gi];
                group.rd = group.rd.max(t + c.tccd_l);
                group.wr = group.wr.max(t + c.tccd_l);
                let rank = &mut ranks[ri];
                rank.rd = rank.rd.max(t + c.tccd_s);
                rank.wr = rank.wr.max(t + c.tccd_s);
                // Read→write bus turnaround at bus scope.
                let turn = t + c.tcl + c.tburst + 2 - c.tcwl.min(c.tcl + c.tburst + 1);
                data[busi].wr = data[busi].wr.max(turn);
                data[busi].reserve(cmd.rank(), t + c.tcl + c.tburst);
            }
            CommandKind::Write => {
                let (bi, gi) = bank_and_group(c, cmd);
                banks[bi].pre = banks[bi].pre.max(t + c.tcwl + c.tburst + c.twr);
                let group = &mut groups[gi];
                group.wr = group.wr.max(t + c.tccd_l);
                group.rd = group.rd.max(t + c.tcwl + c.tburst + c.twtr_l);
                let rank = &mut ranks[ri];
                rank.wr = rank.wr.max(t + c.tccd_s);
                rank.rd = rank.rd.max(t + c.tcwl + c.tburst + c.twtr_s);
                data[busi].reserve(cmd.rank(), t + c.tcwl + c.tburst);
            }
            CommandKind::Refresh => {
                ranks[ri].all = ranks[ri].all.max(t + c.trfc);
            }
            CommandKind::ScaledRead | CommandKind::QRegLoad => {
                let (bi, gi) = bank_and_group(c, cmd);
                banks[bi].pre = banks[bi].pre.max(t + c.trtp);
                if per_bank_pim {
                    bank_alus[bi] = bank_alus[bi].max(t + c.tccd_l);
                } else {
                    let group = &mut groups[gi];
                    group.rd = group.rd.max(t + c.tccd_l);
                    group.wr = group.wr.max(t + c.tccd_l);
                }
            }
            CommandKind::Writeback | CommandKind::QRegStore => {
                // Data reaches the sense amplifiers through the bank-group
                // I/O: restore completes tCCD_L (transfer) + tWR later.
                let (bi, gi) = bank_and_group(c, cmd);
                banks[bi].pre = banks[bi].pre.max(t + c.tccd_l + c.twr);
                if per_bank_pim {
                    bank_alus[bi] = bank_alus[bi].max(t + c.tccd_l);
                } else {
                    let group = &mut groups[gi];
                    group.rd = group.rd.max(t + c.tccd_l);
                    group.wr = group.wr.max(t + c.tccd_l);
                }
            }
            CommandKind::PimAdd
            | CommandKind::PimSub
            | CommandKind::Quant
            | CommandKind::Dequant
            | CommandKind::PimMul
            | CommandKind::PimRsqrt => {
                let (bi, gi) = bank_and_group(c, cmd);
                if per_bank_pim {
                    bank_alus[bi] = bank_alus[bi].max(t + c.tpim);
                } else {
                    let group = &mut groups[gi];
                    group.alu = group.alu.max(t + c.tpim);
                }
            }
        }
    }
}

/// `cmd`'s flat bank index and flat bank-group index.
///
/// # Panics
///
/// Panics for REF and PRE-all, which address no single bank.
fn bank_and_group(cfg: &DramConfig, cmd: &Command) -> (usize, usize) {
    let b = cmd.bank().expect("bank-addressed command");
    let group = b.rank as usize * cfg.bankgroups + b.bankgroup as usize;
    (group * cfg.banks_per_group + b.bank as usize, group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{BankAddr, PimOp};

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    fn bank(rank: u8, bg: u8, b: u8) -> BankAddr {
        BankAddr { rank, bankgroup: bg, bank: b }
    }

    /// `op` issued to the unit of bank group `bg` of `rank`.
    fn pim(rank: u8, bg: u8, op: PimOp) -> Command {
        Command::Pim { rank, bankgroup: bg, op }
    }

    #[test]
    fn act_to_read_honours_trcd() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let b = bank(0, 0, 0);
        let act = Command::Activate { bank: b, row: 0 };
        assert_eq!(t.earliest(&act), 0);
        t.issue(&act, 0);
        let rd = Command::Read { bank: b, row: 0, col: 0 };
        assert_eq!(t.earliest(&rd), c.trcd);
    }

    #[test]
    fn back_to_back_reads_same_vs_cross_bankgroup() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        for bg in 0..2 {
            t.issue(&Command::Activate { bank: bank(0, bg, 0), row: 0 }, (bg as u64) * c.trrd_l);
        }
        let t0 = c.trcd + c.trrd_l;
        t.issue(&Command::Read { bank: bank(0, 0, 0), row: 0, col: 0 }, t0);
        // Same bank group: tCCD_L.
        let same = Command::Read { bank: bank(0, 0, 0), row: 0, col: 1 };
        assert_eq!(t.earliest(&same), t0 + c.tccd_l);
        // Different bank group: tCCD_S.
        let cross = Command::Read { bank: bank(0, 1, 0), row: 0, col: 0 };
        assert_eq!(t.earliest(&cross), t0 + c.tccd_s);
    }

    #[test]
    fn scaled_reads_do_not_interfere_across_bankgroups() {
        // §IV-C: "the scaled read occupies only the local bank group I/O
        // gating and thus does not interfere with the other scaled read
        // commands in different bank groups".
        let c = cfg();
        let mut t = TimingState::new(&c);
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        t.issue(&Command::Activate { bank: bank(0, 1, 0), row: 0 }, c.trrd_l);
        let t0 = c.trcd + c.trrd_l;
        let sr0 = pim(0, 0, PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: 0, dst: 0 });
        t.issue(&sr0, t0);
        // Same bank group paced at tCCD_L…
        let sr_same = pim(0, 0, PimOp::ScaledRead { bank: 0, row: 0, col: 1, scaler: 0, dst: 1 });
        assert_eq!(t.earliest(&sr_same), t0 + c.tccd_l);
        // …but a different bank group can issue immediately (no tCCD_S).
        let sr_cross = pim(0, 1, PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: 0, dst: 0 });
        assert_eq!(t.earliest(&sr_cross), t0);
    }

    #[test]
    fn alu_paced_by_tpim_within_bankgroup_only() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let add0 = pim(0, 0, PimOp::Add { bank: 0, dst: 0 });
        t.issue(&add0, 10);
        // Same unit: +tPIM.
        assert_eq!(t.earliest(&pim(0, 0, PimOp::Add { bank: 0, dst: 1 })), 10 + c.tpim);
        // Other bank group's unit: free.
        assert_eq!(t.earliest(&pim(0, 1, PimOp::Add { bank: 0, dst: 0 })), 0);
        // §IV-C: tPIM "does not interfere with any other commands" — a
        // scaled read in the same group is not blocked by the ALU.
        t.issue(&Command::Activate { bank: bank(0, 0, 1), row: 3 }, 11);
        let sr = pim(0, 0, PimOp::ScaledRead { bank: 1, row: 3, col: 0, scaler: 0, dst: 0 });
        assert_eq!(t.earliest(&sr), 11 + c.trcd);
    }

    #[test]
    fn writeback_delays_precharge_by_twr() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let b = bank(0, 0, 0);
        t.issue(&Command::Activate { bank: b, row: 0 }, 0);
        let wb = pim(0, 0, PimOp::Writeback { bank: 0, row: 0, col: 0, src: 0 });
        let t_wb = t.earliest(&wb);
        t.issue(&wb, t_wb);
        let pre = Command::Precharge { bank: b };
        assert_eq!(t.earliest(&pre), (t_wb + c.tccd_l + c.twr).max(c.tras));
    }

    #[test]
    fn writeback_skips_data_bus_entirely() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        // Saturate the data bus with an external write.
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        t.issue(&Command::Activate { bank: bank(0, 1, 0), row: 0 }, c.trrd_l);
        let wr = Command::Write { bank: bank(0, 0, 0), row: 0, col: 0 };
        let t_wr = t.earliest(&wr);
        t.issue(&wr, t_wr);
        // A writeback in another bank group is *not* delayed by the bus.
        let wb = pim(0, 1, PimOp::Writeback { bank: 0, row: 0, col: 0, src: 0 });
        assert_eq!(t.earliest(&wb), c.trrd_l + c.trcd);
    }

    #[test]
    fn faw_limits_fifth_activate() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let mut when = 0;
        for i in 0..4 {
            let cmd = Command::Activate { bank: bank(0, (i % 4) as u8, i as u8 / 4), row: 0 };
            when = t.earliest(&cmd);
            t.issue(&cmd, when);
        }
        let fifth = Command::Activate { bank: bank(0, 0, 1), row: 0 };
        assert!(
            t.earliest(&fifth) >= c.tfaw,
            "fifth ACT at {} < tFAW {}",
            t.earliest(&fifth),
            c.tfaw
        );
        let _ = when;
    }

    #[test]
    fn refresh_blocks_rank() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        t.issue(&Command::Refresh { rank: 0 }, 5);
        let act0 = Command::Activate { bank: bank(0, 0, 0), row: 0 };
        assert_eq!(t.earliest(&act0), 5 + c.trfc);
        // Rank 1 unaffected.
        let act1 = Command::Activate { bank: bank(1, 0, 0), row: 0 };
        assert_eq!(t.earliest(&act1), 0);
    }

    #[test]
    fn write_to_read_turnaround() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        let wr = Command::Write { bank: bank(0, 0, 0), row: 0, col: 0 };
        let tw = t.earliest(&wr);
        t.issue(&wr, tw);
        let rd_same_bg = Command::Read { bank: bank(0, 0, 0), row: 0, col: 1 };
        assert_eq!(t.earliest(&rd_same_bg), tw + c.tcwl + c.tburst + c.twtr_l);
    }

    #[test]
    fn cross_rank_reads_pay_trtrs_on_the_shared_bus() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        t.issue(&Command::Activate { bank: bank(1, 0, 0), row: 0 }, c.trrd_s);
        let t0 = c.trcd + c.trrd_s;
        t.issue(&Command::Read { bank: bank(0, 0, 0), row: 0, col: 0 }, t0);
        // Same rank, different bank group: tCCD_S only.
        // Different rank: the data bus must also clear tRTRS after the
        // previous burst — strictly later than the same-rank case.
        let cross = Command::Read { bank: bank(1, 0, 0), row: 0, col: 0 };
        let earliest = t.earliest(&cross);
        assert!(
            earliest >= t0 + c.tburst + c.trtrs - c.tcl.min(t0 + c.tburst + c.trtrs),
            "cross-rank earliest {earliest}"
        );
        // The burst start (earliest + tCL) must not overlap the previous
        // burst window [t0+tCL, t0+tCL+tBURST) plus tRTRS.
        assert!(earliest + c.tcl >= t0 + c.tcl + c.tburst + c.trtrs);
    }

    #[test]
    fn same_bank_act_to_act_honours_trc() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let b = bank(0, 0, 0);
        t.issue(&Command::Activate { bank: b, row: 0 }, 0);
        t.issue(&Command::Precharge { bank: b }, c.tras);
        let again = Command::Activate { bank: b, row: 1 };
        // tRC from the first ACT (=52) dominates tRAS + tRP here too.
        assert_eq!(t.earliest(&again), c.trc.max(c.tras + c.trp));
    }

    #[test]
    fn cross_bankgroup_writes_pace_at_tccd_s() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        t.issue(&Command::Activate { bank: bank(0, 1, 0), row: 0 }, c.trrd_l);
        let t0 = c.trcd + c.trrd_l;
        t.issue(&Command::Write { bank: bank(0, 0, 0), row: 0, col: 0 }, t0);
        let cross = Command::Write { bank: bank(0, 1, 0), row: 0, col: 0 };
        assert_eq!(t.earliest(&cross), t0 + c.tccd_s);
        let same = Command::Write { bank: bank(0, 0, 0), row: 0, col: 1 };
        assert_eq!(t.earliest(&same), t0 + c.tccd_l);
    }

    #[test]
    fn extended_alu_ops_share_tpim_pacing() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        t.issue(&pim(0, 0, PimOp::Mul { bank: 0, dst: 0 }), 4);
        assert_eq!(t.earliest(&pim(0, 0, PimOp::Rsqrt { bank: 0, dst: 0 })), 4 + c.tpim);
        assert_eq!(t.earliest(&pim(0, 0, PimOp::Add { bank: 0, dst: 0 })), 4 + c.tpim);
        // Other units unaffected.
        assert_eq!(t.earliest(&pim(0, 1, PimOp::Rsqrt { bank: 0, dst: 0 })), 0);
    }

    /// One command of every kind, addressed to `b` (REF and PRE-all to its
    /// rank).
    fn every_kind(b: BankAddr) -> [Command; CommandKind::COUNT] {
        let (r, g, k) = (b.rank, b.bankgroup, b.bank);
        [
            Command::Activate { bank: b, row: 0 },
            Command::Precharge { bank: b },
            Command::PrechargeAll { rank: b.rank },
            Command::Read { bank: b, row: 0, col: 0 },
            Command::Write { bank: b, row: 0, col: 0 },
            Command::Refresh { rank: b.rank },
            pim(r, g, PimOp::ScaledRead { bank: k, row: 0, col: 0, scaler: 0, dst: 0 }),
            pim(r, g, PimOp::Writeback { bank: k, row: 0, col: 0, src: 0 }),
            pim(r, g, PimOp::QRegLoad { bank: k, row: 0, col: 0 }),
            pim(r, g, PimOp::QRegStore { bank: k, row: 0, col: 0 }),
            pim(r, g, PimOp::Add { bank: k, dst: 0 }),
            pim(r, g, PimOp::Sub { bank: k, dst: 0 }),
            pim(r, g, PimOp::Quant { bank: k, pos: 0, src: 0 }),
            pim(r, g, PimOp::Dequant { bank: k, pos: 0, dst: 0 }),
            pim(r, g, PimOp::Mul { bank: k, dst: 0 }),
            pim(r, g, PimOp::Rsqrt { bank: k, dst: 0 }),
        ]
    }

    #[test]
    fn issues_move_only_their_bank_group_and_the_terms_they_claim() {
        // What a scheduler caching the two parts of `earliest` relies on:
        // a bank-addressed command moves the local part of its own bank
        // group only, and a command moves class terms only if
        // `moves_terms` says so. Checked for every kind, on both bus
        // scopes and both PIM placements.
        for (bus, placement) in [
            (DataBusScope::Channel, PimPlacement::PerBankGroup),
            (DataBusScope::PerRank, PimPlacement::PerBankGroup),
            (DataBusScope::Channel, PimPlacement::PerBank),
        ] {
            let mut c = cfg();
            (c.data_bus, c.pim_placement, c.extended_alu) = (bus, placement, true);
            let mut warm = TimingState::new(&c);
            // Some history on every rank, so no register is trivially 0.
            for r in 0..c.ranks as u8 {
                for cmd in [
                    Command::Activate { bank: bank(r, 1, 0), row: 0 },
                    Command::Read { bank: bank(r, 1, 0), row: 0, col: 0 },
                    pim(r, 2, PimOp::ScaledRead { bank: 1, row: 0, col: 0, scaler: 0, dst: 0 }),
                ] {
                    let at = warm.earliest(&cmd);
                    warm.issue(&cmd, at);
                }
            }
            let probes: Vec<Command> = (0..c.ranks as u8)
                .flat_map(|r| (0..c.bankgroups as u8).map(move |g| bank(r, g, 1)))
                .flat_map(every_kind)
                .filter(|p| p.bank().is_some())
                .collect();
            let terms = |t: &TimingState| -> Vec<_> {
                (0..c.ranks as u8).map(|r| t.class_terms(r)).collect()
            };
            for cmd in every_kind(bank(1, 2, 1)) {
                let mut t = warm.clone();
                let at = t.earliest(&cmd);
                t.issue(&cmd, at);
                if !TimingState::moves_terms(cmd.kind()) {
                    assert_eq!(terms(&t), terms(&warm), "{cmd:?} moved a term ({bus:?})");
                }
                for p in &probes {
                    let same_group = p.bank().map(|b| (b.rank, b.bankgroup)) == Some((1, 2));
                    let rank_wide = matches!(cmd, Command::PrechargeAll { .. }) && p.rank() == 1;
                    if !same_group && !rank_wide {
                        assert_eq!(
                            t.local_earliest(p),
                            warm.local_earliest(p),
                            "{cmd:?} moved the local part of {p:?} ({placement:?})"
                        );
                    }
                }
            }
            // A read on rank 0 moves rank 1's bus terms only on a shared bus.
            let mut t = warm.clone();
            let rd = Command::Read { bank: bank(0, 1, 0), row: 0, col: 1 };
            let at = t.earliest(&rd) + 100;
            t.issue(&rd, at);
            let (before, after) = (warm.class_terms(1), t.class_terms(1));
            let read = TermClass::Read.index();
            assert_eq!(after[read] > before[read], bus == DataBusScope::Channel, "{bus:?}");
        }
    }

    #[test]
    fn per_bank_placement_moves_pim_pacing_to_banks() {
        let mut c = cfg();
        c.pim_placement = PimPlacement::PerBank;
        let mut t = TimingState::new(&c);
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        t.issue(&Command::Activate { bank: bank(0, 0, 1), row: 0 }, c.trrd_l);
        let t0 = c.trcd + c.trrd_l;
        let sr0 = pim(0, 0, PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: 0, dst: 0 });
        t.issue(&sr0, t0);
        // Same bank: paced.
        let sr_same = pim(0, 0, PimOp::ScaledRead { bank: 0, row: 0, col: 1, scaler: 0, dst: 1 });
        assert_eq!(t.earliest(&sr_same), t0 + c.tccd_l);
        // Sibling bank in the same group: independent unit, no pacing.
        let sr_sib = pim(0, 0, PimOp::ScaledRead { bank: 1, row: 0, col: 0, scaler: 0, dst: 0 });
        assert_eq!(t.earliest(&sr_sib), t0);
    }
}
