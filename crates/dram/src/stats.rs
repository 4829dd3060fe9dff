//! Simulation statistics: command counts, bus occupancy, traffic and energy.

use crate::command::CommandKind;
use crate::config::DramConfig;

/// Energy consumed so far, broken down as plotted in Fig. 10
/// (ACT / RD / WR / PIM) plus the components the figure folds into the bars.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Row activate/precharge energy (pJ).
    pub act_pj: f64,
    /// External read bursts, array component (pJ).
    pub rd_pj: f64,
    /// External write bursts, array component (pJ).
    pub wr_pj: f64,
    /// Off-chip I/O and termination (pJ).
    pub io_pj: f64,
    /// PIM-internal column transfers + ALU/scaler logic (pJ).
    pub pim_pj: f64,
    /// Refresh (pJ).
    pub refresh_pj: f64,
    /// Standby background (pJ).
    pub background_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy (pJ).
    pub fn total_pj(&self) -> f64 {
        self.act_pj
            + self.rd_pj
            + self.wr_pj
            + self.io_pj
            + self.pim_pj
            + self.refresh_pj
            + self.background_pj
    }

    /// Element-wise accumulation.
    pub fn merge(&mut self, o: &EnergyBreakdown) {
        self.act_pj += o.act_pj;
        self.rd_pj += o.rd_pj;
        self.wr_pj += o.wr_pj;
        self.io_pj += o.io_pj;
        self.pim_pj += o.pim_pj;
        self.refresh_pj += o.refresh_pj;
        self.background_pj += o.background_pj;
    }
}

/// Counters for one channel (or merged across channels).
#[derive(Debug, Clone, PartialEq)]
pub struct Stats {
    /// Number of channels these counters cover (1 for a single controller;
    /// the sum of the operands' counts after [`Stats::merge`]). Per-bus
    /// rates divide by this so multi-channel merges stay normalized.
    pub channels: u64,
    /// Elapsed memory-clock cycles.
    pub cycles: u64,
    /// Commands issued, by kind.
    pub commands: [u64; CommandKind::COUNT],
    /// Total command-bus slots consumed (= total commands issued).
    pub cmd_slots: u64,
    /// Cycles with the external data bus busy.
    pub data_bus_busy: u64,
    /// Bytes moved over the external bus by reads.
    pub external_read_bytes: u64,
    /// Bytes moved over the external bus by writes.
    pub external_write_bytes: u64,
    /// Bytes moved bank→register inside bank groups (scaled reads, q-reg
    /// loads).
    pub internal_read_bytes: u64,
    /// Bytes moved register→bank inside bank groups (writebacks, q-reg
    /// stores).
    pub internal_write_bytes: u64,
    /// Transactions retired.
    pub completed: u64,
    /// Rank-cycles spent in precharge power-down (IDD2P).
    pub powerdown_cycles: u64,
    /// Rank-cycles with at least one open row (IDD3N background).
    pub bg_active_cycles: u64,
    /// Rank-cycles fully precharged but not powered down (IDD2N).
    pub bg_precharged_cycles: u64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl Default for Stats {
    fn default() -> Self {
        Self {
            channels: 1,
            cycles: 0,
            commands: [0; CommandKind::COUNT],
            cmd_slots: 0,
            data_bus_busy: 0,
            external_read_bytes: 0,
            external_write_bytes: 0,
            internal_read_bytes: 0,
            internal_write_bytes: 0,
            completed: 0,
            powerdown_cycles: 0,
            bg_active_cycles: 0,
            bg_precharged_cycles: 0,
            energy: EnergyBreakdown::default(),
        }
    }
}

impl Stats {
    /// A neutral element for [`Stats::merge`]: like `default()` but with
    /// `channels = 0`, so folding N per-channel stats into it reports
    /// exactly N channels.
    pub fn merge_identity() -> Self {
        Self { channels: 0, ..Self::default() }
    }

    /// Count of commands of `kind`.
    pub fn count(&self, kind: CommandKind) -> u64 {
        self.commands[kind.index()]
    }

    /// Records one issued command of `kind`.
    pub fn record(&mut self, kind: CommandKind) {
        self.commands[kind.index()] += 1;
        self.cmd_slots += 1;
    }

    /// Element-wise accumulation (multi-channel merge). `cycles` takes the
    /// max (channels tick in lockstep); `channels` adds, so per-bus rates
    /// stay normalized to one bus.
    pub fn merge(&mut self, o: &Stats) {
        self.channels += o.channels;
        self.cycles = self.cycles.max(o.cycles);
        for i in 0..CommandKind::COUNT {
            self.commands[i] += o.commands[i];
        }
        self.cmd_slots += o.cmd_slots;
        self.data_bus_busy += o.data_bus_busy;
        self.external_read_bytes += o.external_read_bytes;
        self.external_write_bytes += o.external_write_bytes;
        self.internal_read_bytes += o.internal_read_bytes;
        self.internal_write_bytes += o.internal_write_bytes;
        self.completed += o.completed;
        self.powerdown_cycles += o.powerdown_cycles;
        self.bg_active_cycles += o.bg_active_cycles;
        self.bg_precharged_cycles += o.bg_precharged_cycles;
        self.energy.merge(&o.energy);
    }

    /// Merges per-channel stats **order-insensitively**: the result is
    /// bit-identical for any permutation of `parts`.
    ///
    /// The integer counters commute under addition, but the f64 energy
    /// accumulators do not (`(a + b) + c` ≠ `a + (b + c)` in general), so a
    /// pairwise [`Stats::merge`] fold depends on operand order.
    /// `merge_all` sums every f64 field over a canonical (totally ordered)
    /// sequence of its per-channel contributions, so merged results cannot
    /// depend on the order the channels are listed in.
    pub fn merge_all<'a, I>(parts: I) -> Stats
    where
        I: IntoIterator<Item = &'a Stats>,
    {
        let parts: Vec<&Stats> = parts.into_iter().collect();
        let mut s = Stats::merge_identity();
        for p in &parts {
            s.merge(p);
        }
        // Replace the order-dependent f64 sums with canonical-order sums.
        let sum = |field: fn(&Stats) -> f64| -> f64 {
            let mut vals: Vec<f64> = parts.iter().map(|p| field(p)).collect();
            vals.sort_by(f64::total_cmp);
            vals.iter().sum()
        };
        s.energy = EnergyBreakdown {
            act_pj: sum(|p| p.energy.act_pj),
            rd_pj: sum(|p| p.energy.rd_pj),
            wr_pj: sum(|p| p.energy.wr_pj),
            io_pj: sum(|p| p.energy.io_pj),
            pim_pj: sum(|p| p.energy.pim_pj),
            refresh_pj: sum(|p| p.energy.refresh_pj),
            background_pj: sum(|p| p.energy.background_pj),
        };
        s
    }

    /// Elapsed wall-clock time in nanoseconds.
    pub fn elapsed_ns(&self, cfg: &DramConfig) -> f64 {
        self.cycles as f64 * cfg.cycle_ns()
    }

    /// Total bytes moved over the external bus.
    pub fn external_bytes(&self) -> u64 {
        self.external_read_bytes + self.external_write_bytes
    }

    /// Total bytes moved inside bank groups by PIM column ops.
    pub fn internal_bytes(&self) -> u64 {
        self.internal_read_bytes + self.internal_write_bytes
    }

    /// Achieved external bandwidth in bytes/second.
    pub fn external_bw(&self, cfg: &DramConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.external_bytes() as f64 / (self.elapsed_ns(cfg) * 1e-9)
    }

    /// Achieved *DRAM-internal* bandwidth in bytes/second: every byte that
    /// crossed a bank's column interface, whether it went off-chip or into a
    /// PIM register. This is the Fig. 11 (bottom) metric.
    pub fn internal_bw(&self, cfg: &DramConfig) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.external_bytes() + self.internal_bytes()) as f64 / (self.elapsed_ns(cfg) * 1e-9)
    }

    /// Command-bus utilization relative to a *single direct-attach bus*
    /// (1 command/tCK): the Fig. 11 (top) metric. Buffered configurations
    /// can exceed 1.0 because each rank's buffer device issues locally —
    /// the paper's y-axis runs to 400 %. Channels have independent command
    /// buses, so merged multi-channel stats are normalized per channel.
    pub fn command_bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.cmd_slots as f64 / (self.cycles * self.channels.max(1)) as f64
    }

    /// Data-bus utilization (0..=1), per channel (each channel has its own
    /// data bus).
    pub fn data_bus_utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.data_bus_busy as f64 / (self.cycles * self.channels.max(1)) as f64
    }
}

/// Host-work counters of one controller (or summed over channels): what
/// simulating the [`Stats`] cost the cycle core. They are deterministic and
/// host-independent, so they can be compared exactly across runs and
/// machines. Kept apart from [`Stats`], which describes the simulated
/// device and must not depend on how it was stepped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Cycles simulated by a full tick (the event-driven core ticks only
    /// at events; the per-cycle reference ticks every cycle).
    pub events: u64,
    /// Cycles skipped in bulk by `advance_to`.
    pub skipped_cycles: u64,
    /// Queue slots visited while selecting a command or estimating the
    /// next event (only queues holding work are visited).
    pub slots_examined: u64,
    /// Candidate evaluations: one queue's next command and its earliest
    /// cycle rebuilt, or one refresh-path command timed.
    pub candidate_evals: u64,
    /// Commands issued.
    pub commands: u64,
    /// Enqueue attempts rejected because the target queue was full.
    pub queue_full: u64,
}

impl WorkCounters {
    /// Element-wise accumulation.
    pub fn merge(&mut self, o: &WorkCounters) {
        self.events += o.events;
        self.skipped_cycles += o.skipped_cycles;
        self.slots_examined += o.slots_examined;
        self.candidate_evals += o.candidate_evals;
        self.commands += o.commands;
        self.queue_full += o.queue_full;
    }

    /// Every counter with its metric name, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 6] {
        [
            ("events", self.events),
            ("skipped_cycles", self.skipped_cycles),
            ("slots_examined", self.slots_examined),
            ("candidate_evals", self.candidate_evals),
            ("commands", self.commands),
            ("queue_full", self.queue_full),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut s = Stats::default();
        s.record(CommandKind::Read);
        s.record(CommandKind::Read);
        s.record(CommandKind::Activate);
        assert_eq!(s.count(CommandKind::Read), 2);
        assert_eq!(s.count(CommandKind::Activate), 1);
        assert_eq!(s.cmd_slots, 3);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Stats { cycles: 100, ..Default::default() };
        a.record(CommandKind::Read);
        a.external_read_bytes = 64;
        a.energy.rd_pj = 10.0;
        let mut b = Stats { cycles: 120, ..Default::default() };
        b.record(CommandKind::Write);
        b.external_write_bytes = 64;
        b.energy.wr_pj = 12.0;
        a.merge(&b);
        assert_eq!(a.cycles, 120);
        assert_eq!(a.cmd_slots, 2);
        assert_eq!(a.external_bytes(), 128);
        assert!((a.energy.total_pj() - 22.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_math() {
        let cfg = DramConfig::ddr4_2133();
        let s = Stats {
            cycles: 1000,
            external_read_bytes: 64 * 250, // one burst per 4 cycles = peak
            ..Default::default()
        };
        let bw = s.external_bw(&cfg);
        assert!((bw / cfg.peak_external_bw() - 1.0).abs() < 0.01, "bw {bw}");
    }

    #[test]
    fn utilizations_bounded() {
        let mut s = Stats {
            cycles: 10,
            cmd_slots: 25, // buffered mode can exceed 1×
            ..Default::default()
        };
        assert!((s.command_bus_utilization() - 2.5).abs() < 1e-12);
        s.data_bus_busy = 10;
        assert!((s.data_bus_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_channel_merge_normalizes_bus_utilization() {
        // Two channels, each with its command bus 80 % utilized: the merged
        // figure must stay 0.8, not 1.6 (the buses are independent).
        let mut m = Stats::merge_identity();
        for _ in 0..2 {
            let mut ch = Stats { cycles: 100, data_bus_busy: 40, ..Default::default() };
            ch.cmd_slots = 80;
            m.merge(&ch);
        }
        assert_eq!(m.channels, 2);
        assert_eq!(m.cmd_slots, 160);
        assert!((m.command_bus_utilization() - 0.8).abs() < 1e-12);
        assert!((m.data_bus_utilization() - 0.4).abs() < 1e-12);
        // A direct-mode system can never exceed 1.0 per channel no matter
        // how many channels are merged.
        assert!(m.command_bus_utilization() <= 1.0);
    }

    #[test]
    fn merge_all_is_order_insensitive() {
        // Per-channel stats with deliberately awkward f64 magnitudes: a
        // pairwise fold of these energies is order-dependent at the ULP
        // level, which is exactly what merge_all must not be.
        let mk = |i: u64| {
            let mut s = Stats { cycles: 1000 + i, ..Default::default() };
            s.record(CommandKind::Read);
            s.external_read_bytes = 64 * (i + 1);
            s.energy.rd_pj = 1e-7 * 3f64.powi(i as i32) + 1e9 / (i + 1) as f64;
            s.energy.act_pj = 0.1 + i as f64 * 1e8;
            s.energy.background_pj = (i as f64).exp();
            s
        };
        let chans: Vec<Stats> = (0..5).map(mk).collect();
        let in_order = Stats::merge_all(&chans);
        let reversed = Stats::merge_all(chans.iter().rev());
        let shuffled: Vec<&Stats> = [3usize, 0, 4, 2, 1].iter().map(|&i| &chans[i]).collect();
        let shuffled = Stats::merge_all(shuffled);
        assert_eq!(in_order, reversed, "reversed merge diverges");
        assert_eq!(in_order, shuffled, "shuffled merge diverges");
        assert_eq!(in_order.channels, 5);
        assert_eq!(in_order.cycles, 1004);
        assert_eq!(in_order.cmd_slots, 5);
    }

    #[test]
    fn merge_all_of_one_matches_merge() {
        let mut s = Stats { cycles: 77, ..Default::default() };
        s.record(CommandKind::Activate);
        s.energy.act_pj = 12.5;
        let merged = Stats::merge_all(std::iter::once(&s));
        let mut pairwise = Stats::merge_identity();
        pairwise.merge(&s);
        assert_eq!(merged, pairwise);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = Stats::default();
        let cfg = DramConfig::ddr4_2133();
        assert_eq!(s.external_bw(&cfg), 0.0);
        assert_eq!(s.internal_bw(&cfg), 0.0);
        assert_eq!(s.command_bus_utilization(), 0.0);
    }
}
