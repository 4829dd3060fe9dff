//! The command-to-command timing constraint engine.
//!
//! Organized DRAMsim3-style: every issued command updates
//! "earliest-allowed-issue" registers at four scopes — same bank, same bank
//! group, same rank, channel — and a command is issuable at cycle `t` only if
//! `t` is at or past the maximum of its scopes' registers (plus data-bus
//! availability for external column commands and the tFAW window for
//! activates).
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
        let b = cmd.bank().expect("bank-addressed command");
        (b.rank as usize * self.cfg.bankgroups + b.bankgroup as usize) * self.cfg.banks_per_group
            + b.bank as usize
    }

    fn group_idx(&self, cmd: &Command) -> usize {
        let b = cmd.bank().expect("bank-addressed command");
        b.rank as usize * self.cfg.bankgroups + b.bankgroup as usize
    }

    /// Whether local (PIM) column/ALU constraints live at bank or bank-group
    /// scope.
    fn per_bank_pim(&self) -> bool {
        self.cfg.pim_placement == PimPlacement::PerBank
    }

    /// Earliest cycle at which `cmd` may issue, given everything issued so
    /// far. Pure query; does not mutate state.
    pub fn earliest(&self, cmd: &Command) -> u64 {
        self.earliest_in_rank(cmd).max(self.bus_earliest(cmd))
    }

    /// The part of [`TimingState::earliest`] set by the bank, bank-group
    /// and rank scopes of `cmd`'s own rank: it changes only when a command
    /// issues to that rank.
    pub(crate) fn earliest_in_rank(&self, cmd: &Command) -> u64 {
        let c = &self.cfg;
        let kind = cmd.kind();
        let rank = &self.ranks[cmd.rank() as usize];
        let mut t = rank.all;

        match kind {
            CommandKind::Activate => {
                let bank = &self.banks[self.bank_idx(cmd)];
                let group = &self.groups[self.group_idx(cmd)];
                t = t.max(bank.act).max(group.act).max(rank.act);
                if rank.faw.len() == 4 {
                    t = t.max(rank.faw[0] + c.tfaw);
                }
            }
            CommandKind::Precharge => {
                let bank = &self.banks[self.bank_idx(cmd)];
                t = t.max(bank.pre);
            }
            CommandKind::PrechargeAll => {
                // Must satisfy the precharge constraint of every bank in the
                // rank.
                let r = cmd.rank() as usize;
                let base = r * c.banks_per_rank();
                for b in 0..c.banks_per_rank() {
                    t = t.max(self.banks[base + b].pre);
                }
            }
            CommandKind::Read => {
                let bank = &self.banks[self.bank_idx(cmd)];
                let group = &self.groups[self.group_idx(cmd)];
                t = t.max(bank.col).max(group.rd).max(rank.rd);
            }
            CommandKind::Write => {
                let bank = &self.banks[self.bank_idx(cmd)];
                let group = &self.groups[self.group_idx(cmd)];
                t = t.max(bank.col).max(group.wr).max(rank.wr);
            }
            CommandKind::Refresh => {
                // All banks must be precharged (tRP satisfied) and quiet.
                let r = cmd.rank() as usize;
                let base = r * c.banks_per_rank();
                for b in 0..c.banks_per_rank() {
                    t = t.max(self.banks[base + b].act);
                }
            }
            CommandKind::ScaledRead | CommandKind::QRegLoad => {
                let bank = &self.banks[self.bank_idx(cmd)];
                t = t.max(bank.col);
                t = t.max(self.local_io_rd(cmd));
            }
            CommandKind::Writeback | CommandKind::QRegStore => {
                let bank = &self.banks[self.bank_idx(cmd)];
                t = t.max(bank.col);
                t = t.max(self.local_io_wr(cmd));
            }
            CommandKind::PimAdd
            | CommandKind::PimSub
            | CommandKind::Quant
            | CommandKind::Dequant
            | CommandKind::PimMul
            | CommandKind::PimRsqrt => {
                t = t.max(self.alu(cmd));
            }
        }
        t
    }

    /// The part of [`TimingState::earliest`] set by the data bus `cmd`
    /// would drive (0 for commands that use no bus). On a channel-wide bus
    /// it changes whenever any rank issues a read or write.
    pub(crate) fn bus_earliest(&self, cmd: &Command) -> u64 {
        match cmd.kind() {
            CommandKind::Read => self.data_bus_earliest(cmd, self.cfg.tcl),
            CommandKind::Write => {
                let bus = &self.data[self.bus_idx(cmd.rank())];
                bus.wr.max(self.data_bus_earliest(cmd, self.cfg.tcwl))
            }
            _ => 0,
        }
    }

    fn data_bus_earliest(&self, cmd: &Command, lat: u64) -> u64 {
        // The burst must start at or after the bus frees; if the previous
        // burst came from a different rank over a shared bus, add tRTRS.
        let bus = &self.data[self.bus_idx(cmd.rank())];
        let mut free = bus.data_free;
        if let Some(last) = bus.last_data_rank {
            if last != cmd.rank() {
                free = free.max(bus.last_data_end + self.cfg.trtrs);
            }
        }
        free.saturating_sub(lat)
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
        let (bi, gi, busi) = (self.bank_idx(cmd), self.group_idx(cmd), self.bus_idx(cmd.rank()));
        let ri = cmd.rank() as usize;
        let per_bank_pim = self.per_bank_pim();
        let Self { cfg: c, banks, groups, bank_alus, ranks, data } = self;
        match cmd.kind() {
            CommandKind::Activate => {
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
                let bank = &mut banks[bi];
                bank.act = bank.act.max(t + c.trp);
            }
            CommandKind::PrechargeAll => {
                let base = ri * c.banks_per_rank();
                for bank in &mut banks[base..base + c.banks_per_rank()] {
                    bank.act = bank.act.max(t + c.trp);
                }
            }
            CommandKind::Read => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::BankAddr;

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    fn bank(rank: u8, bg: u8, b: u8) -> BankAddr {
        BankAddr { rank, bankgroup: bg, bank: b }
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
        let sr0 = Command::ScaledRead { bank: bank(0, 0, 0), row: 0, col: 0, scaler: 0, dst: 0 };
        t.issue(&sr0, t0);
        // Same bank group paced at tCCD_L…
        let sr_same =
            Command::ScaledRead { bank: bank(0, 0, 0), row: 0, col: 1, scaler: 0, dst: 1 };
        assert_eq!(t.earliest(&sr_same), t0 + c.tccd_l);
        // …but a different bank group can issue immediately (no tCCD_S).
        let sr_cross =
            Command::ScaledRead { bank: bank(0, 1, 0), row: 0, col: 0, scaler: 0, dst: 0 };
        assert_eq!(t.earliest(&sr_cross), t0);
    }

    #[test]
    fn alu_paced_by_tpim_within_bankgroup_only() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let add0 = Command::PimAdd { unit: bank(0, 0, 0), dst: 0 };
        t.issue(&add0, 10);
        // Same unit: +tPIM.
        assert_eq!(t.earliest(&Command::PimAdd { unit: bank(0, 0, 0), dst: 1 }), 10 + c.tpim);
        // Other bank group's unit: free.
        assert_eq!(t.earliest(&Command::PimAdd { unit: bank(0, 1, 0), dst: 0 }), 0);
        // §IV-C: tPIM "does not interfere with any other commands" — a
        // scaled read in the same group is not blocked by the ALU.
        t.issue(&Command::Activate { bank: bank(0, 0, 1), row: 3 }, 11);
        let sr = Command::ScaledRead { bank: bank(0, 0, 1), row: 3, col: 0, scaler: 0, dst: 0 };
        assert_eq!(t.earliest(&sr), 11 + c.trcd);
    }

    #[test]
    fn writeback_delays_precharge_by_twr() {
        let c = cfg();
        let mut t = TimingState::new(&c);
        let b = bank(0, 0, 0);
        t.issue(&Command::Activate { bank: b, row: 0 }, 0);
        let wb = Command::Writeback { bank: b, row: 0, col: 0, src: 0 };
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
        let wb = Command::Writeback { bank: bank(0, 1, 0), row: 0, col: 0, src: 0 };
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
        t.issue(&Command::PimMul { unit: bank(0, 0, 0), dst: 0 }, 4);
        assert_eq!(t.earliest(&Command::PimRsqrt { unit: bank(0, 0, 0), dst: 0 }), 4 + c.tpim);
        assert_eq!(t.earliest(&Command::PimAdd { unit: bank(0, 0, 0), dst: 0 }), 4 + c.tpim);
        // Other units unaffected.
        assert_eq!(t.earliest(&Command::PimRsqrt { unit: bank(0, 1, 0), dst: 0 }), 0);
    }

    #[test]
    fn per_bank_placement_moves_pim_pacing_to_banks() {
        let mut c = cfg();
        c.pim_placement = PimPlacement::PerBank;
        let mut t = TimingState::new(&c);
        t.issue(&Command::Activate { bank: bank(0, 0, 0), row: 0 }, 0);
        t.issue(&Command::Activate { bank: bank(0, 0, 1), row: 0 }, c.trrd_l);
        let t0 = c.trcd + c.trrd_l;
        let sr0 = Command::ScaledRead { bank: bank(0, 0, 0), row: 0, col: 0, scaler: 0, dst: 0 };
        t.issue(&sr0, t0);
        // Same bank: paced.
        let sr_same =
            Command::ScaledRead { bank: bank(0, 0, 0), row: 0, col: 1, scaler: 0, dst: 1 };
        assert_eq!(t.earliest(&sr_same), t0 + c.tccd_l);
        // Sibling bank in the same group: independent unit, no pacing.
        let sr_sib = Command::ScaledRead { bank: bank(0, 0, 1), row: 0, col: 0, scaler: 0, dst: 0 };
        assert_eq!(t.earliest(&sr_sib), t0);
    }
}
