//! DRAM device/system configuration and the paper's Table II presets.
//!
//! All timing parameters are stored in memory-clock cycles (1 cycle = `tck_ps`
//! picoseconds). The default preset reproduces Table II of the paper
//! (DDR4-2133, 4 ranks, 4 bank groups × 4 banks); JEDEC parameters the table
//! omits are filled in from JESD79-4 speed-bin values for an x8 8 Gb device.

/// How commands are delivered to the DRAM devices (§V-C, Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandIssueMode {
    /// Direct-attach: one command/address bus per channel, one command per
    /// tCK (Fig. 8(a), GradPIM-Direct). This is the bottleneck identified in
    /// Fig. 11 (top).
    Direct,
    /// Buffered DIMMs: a buffer device per rank receives compact high-level
    /// commands over a serial link and expands them locally, so each rank
    /// sustains one DRAM command per tCK (Fig. 8(b), GradPIM-Buffered).
    PerRankBuffered,
}

/// Where the data bus terminates (used to model TensorDIMM-style designs
/// whose buffer chips talk to their local rank without crossing the host
/// channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataBusScope {
    /// One data bus shared by all ranks of the channel (standard DDR4).
    Channel,
    /// Each rank has a private data path to its buffer device; the host
    /// link is only used for host-visible transfers.
    PerRank,
}

/// Where GradPIM units are placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimPlacement {
    /// One unit per bank group, at the bank-group I/O gating (the paper's
    /// design, §IV-A).
    PerBankGroup,
    /// One unit per bank (the AoS-PB ablation of §VI-B): higher internal
    /// bandwidth, but only one open row per bank, which forces the
    /// array-of-structures placement.
    PerBank,
}

/// Complete configuration of one DRAM memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Human-readable name (e.g. "DDR4-2133").
    pub name: String,

    // --- organization ---
    /// Independent channels (each with its own controller and buses).
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bankgroups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank.
    pub rows: usize,
    /// 64-byte burst positions per row (row size / 64 B).
    pub columns: usize,
    /// Bytes delivered by one burst (BL8 × 64-bit bus = 64 B).
    pub burst_bytes: usize,

    // --- clocks ---
    /// Memory-clock period in picoseconds (DDR4-2133: 938 ps ≈ the paper's
    /// 0.94 ns).
    pub tck_ps: u64,

    // --- timing, in cycles (Table II + JESD79-4) ---
    /// CAS latency.
    pub tcl: u64,
    /// RAS-to-CAS delay.
    pub trcd: u64,
    /// Row precharge time.
    pub trp: u64,
    /// Row active time.
    pub tras: u64,
    /// Row cycle time (tRAS + tRP).
    pub trc: u64,
    /// Column-to-column, same bank group.
    pub tccd_l: u64,
    /// Column-to-column, different bank group.
    pub tccd_s: u64,
    /// Activate-to-activate, same bank group.
    pub trrd_l: u64,
    /// Activate-to-activate, different bank group.
    pub trrd_s: u64,
    /// Four-activate window (per rank).
    pub tfaw: u64,
    /// Write recovery time.
    pub twr: u64,
    /// Write-to-read turnaround, same bank group.
    pub twtr_l: u64,
    /// Write-to-read turnaround, different bank group.
    pub twtr_s: u64,
    /// Read-to-precharge.
    pub trtp: u64,
    /// CAS write latency.
    pub tcwl: u64,
    /// Burst duration on the data bus.
    pub tburst: u64,
    /// Average refresh interval.
    pub trefi: u64,
    /// Refresh cycle time (all-bank).
    pub trfc: u64,
    /// Rank-to-rank switch penalty on the shared data bus.
    pub trtrs: u64,
    /// Worst-case GradPIM parallel-ALU occupancy (the paper's new timing
    /// parameter, §IV-C; Table II: 5 cycles).
    pub tpim: u64,
    /// Power-down exit latency (JEDEC tXP).
    pub txp: u64,
    /// Idle rank-cycles before the controller enters precharge power-down
    /// (uses the Table II IDD2P current). `u64::MAX` disables power-down.
    pub powerdown_idle: u64,

    // --- currents (mA) and supply (V), Table II ---
    /// Active-precharge current (one bank ACT/PRE cycling).
    pub idd0: f64,
    /// Precharge power-down current.
    pub idd2p: f64,
    /// Precharge standby current.
    pub idd2n: f64,
    /// Active power-down current.
    pub idd3p: f64,
    /// Active standby current.
    pub idd3n: f64,
    /// Burst read current.
    pub idd4r: f64,
    /// Burst write current.
    pub idd4w: f64,
    /// Partial (bank-group-internal) access current — the fine-grained DRAM
    /// access model of O'Connor et al. used by the paper for PIM-local
    /// transfers.
    pub iddpre: f64,
    /// Supply voltage.
    pub vdd: f64,
    /// Off-chip I/O + termination energy per transferred bit (pJ/bit), used
    /// for external reads/writes only (Micron power-calculator style).
    pub io_pj_per_bit: f64,

    // --- system-level switches ---
    /// Command delivery model.
    pub issue_mode: CommandIssueMode,
    /// Data-bus topology.
    pub data_bus: DataBusScope,
    /// GradPIM unit placement.
    pub pim_placement: PimPlacement,
    /// Transaction-queue capacity per channel.
    pub queue_depth: usize,
    /// Enables the §VIII extended ALU (parallel multiply + reciprocal
    /// square root), required for Adam/AdaGrad/RMSprop kernels. Off in the
    /// paper's base design.
    pub extended_alu: bool,
}

impl DramConfig {
    /// The paper's Table II device: DDR4-2133, 4 ranks × 4 bank groups × 4
    /// banks, direct-attach.
    pub fn ddr4_2133() -> Self {
        Self {
            name: "DDR4-2133".to_owned(),
            channels: 1,
            ranks: 4,
            bankgroups: 4,
            banks_per_group: 4,
            rows: 65536,
            columns: 128,
            burst_bytes: 64,
            tck_ps: 938,
            tcl: 16,
            trcd: 16,
            trp: 16,
            tras: 36,
            trc: 52,
            tccd_l: 6,
            tccd_s: 4,
            trrd_l: 6,
            trrd_s: 4,
            tfaw: 23,
            twr: 16,
            twtr_l: 8,
            twtr_s: 3,
            trtp: 8,
            tcwl: 14,
            tburst: 4,
            trefi: 8316,
            trfc: 374,
            trtrs: 2,
            tpim: 5,
            txp: 7,
            powerdown_idle: 64,
            idd0: 75.0,
            idd2p: 25.0,
            idd2n: 33.0,
            idd3p: 39.0,
            idd3n: 44.0,
            idd4r: 225.0,
            idd4w: 225.0,
            iddpre: 98.0,
            vdd: 1.2,
            io_pj_per_bit: 2.0,
            issue_mode: CommandIssueMode::Direct,
            data_bus: DataBusScope::Channel,
            pim_placement: PimPlacement::PerBankGroup,
            queue_depth: 64,
            extended_alu: false,
        }
    }

    /// DDR4-3200 speed bin (Fig. 12a sweep point). Timings scaled to the
    /// 625 ps clock from the same nanosecond-domain values.
    pub fn ddr4_3200() -> Self {
        let mut c = Self::ddr4_2133();
        c.name = "DDR4-3200".to_owned();
        c.tck_ps = 625;
        c.tcl = 22;
        c.trcd = 22;
        c.trp = 22;
        c.tras = 52;
        c.trc = 74;
        c.tccd_l = 8;
        c.tccd_s = 4;
        c.trrd_l = 8;
        c.trrd_s = 5;
        c.tfaw = 34;
        c.twr = 24;
        c.twtr_l = 12;
        c.twtr_s = 4;
        c.trtp = 12;
        c.tcwl = 16;
        c.trefi = 12480;
        c.trfc = 560;
        c
    }

    /// A DDR5-like device for the §IX outlook ("similar speedups or
    /// improvement if we exploit more bank group numbers"): 8 bank groups
    /// per rank, two independent subchannels (modeled as channels), BL16 on
    /// a 32-bit bus (still 64 B bursts), DDR5-4800-class timings. A
    /// first-order preset.
    pub fn ddr5_like() -> Self {
        let mut c = Self::ddr4_2133();
        c.name = "DDR5-4800".to_owned();
        c.channels = 2;
        c.ranks = 2;
        c.bankgroups = 8;
        c.banks_per_group = 4;
        c.tck_ps = 417;
        c.tcl = 40;
        c.trcd = 40;
        c.trp = 40;
        c.tras = 77;
        c.trc = 117;
        c.tccd_l = 12;
        c.tccd_s = 8;
        c.trrd_l = 12;
        c.trrd_s = 8;
        c.tfaw = 32;
        c.twr = 72;
        c.twtr_l = 24;
        c.twtr_s = 6;
        c.trtp = 18;
        c.tcwl = 38;
        c.tburst = 8; // BL16 on the 32-bit subchannel
        c.trefi = 9360;
        c.trfc = 700;
        c
    }

    /// An HBM2-like stack for the Fig. 12a sweep: 8 channels, wider rows of
    /// bank groups, pseudo-channel-style tCCD. This is a first-order model
    /// (the paper likewise treats HBM as a bandwidth point, §IX).
    pub fn hbm2_like() -> Self {
        let mut c = Self::ddr4_2133();
        c.name = "HBM2".to_owned();
        c.channels = 8;
        c.ranks = 1;
        c.bankgroups = 4;
        c.banks_per_group = 4;
        c.tck_ps = 1000;
        c.tcl = 14;
        c.trcd = 14;
        c.trp = 14;
        c.tras = 33;
        c.trc = 47;
        c.tccd_l = 4;
        c.tccd_s = 2;
        c.trrd_l = 4;
        c.trrd_s = 2;
        c.tfaw = 16;
        c.twr = 16;
        c.twtr_l = 8;
        c.twtr_s = 3;
        c.trtp = 3;
        c.tcwl = 7;
        c.trefi = 3900;
        c.trfc = 260;
        c.burst_bytes = 64; // 128-bit bus × BL4 per pseudo-channel
        c.tburst = 2;
        c
    }

    /// Number of banks per rank.
    pub fn banks_per_rank(&self) -> usize {
        self.bankgroups * self.banks_per_group
    }

    /// One memory cycle, in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        self.tck_ps as f64 / 1000.0
    }

    /// Peak external (off-chip) bandwidth of the whole memory system in
    /// bytes/second: one burst per tBURST per channel.
    ///
    /// For the paper's DDR4-2133 this is 17.06 GB/s (the "theoretical
    /// maximum of 17.1 GB/s" of §VI-B).
    pub fn peak_external_bw(&self) -> f64 {
        let per_channel = self.burst_bytes as f64 / (self.tburst as f64 * self.cycle_ns() * 1e-9);
        per_channel * self.channels as f64
    }

    /// Peak bank-group-internal bandwidth available to GradPIM units in
    /// bytes/second: one 64 B column per tCCD_L per bank group, summed over
    /// all bank groups of all ranks and channels.
    ///
    /// For the paper's DDR4-2133 with 4 ranks this is 181.3 GB/s (the
    /// dotted "peak bandwidth 181.28 GB/s" line of Fig. 11).
    pub fn peak_internal_bw(&self) -> f64 {
        let units = match self.pim_placement {
            PimPlacement::PerBankGroup => self.channels * self.ranks * self.bankgroups,
            PimPlacement::PerBank => self.channels * self.ranks * self.banks_per_rank(),
        };
        let per_unit = self.burst_bytes as f64 / (self.tccd_l as f64 * self.cycle_ns() * 1e-9);
        per_unit * units as f64
    }

    /// Command-issue capacity in commands/second (the Fig. 11 command-bus
    /// ceiling): one per tCK per channel in direct mode, one per tCK per
    /// rank in buffered mode.
    pub fn command_issue_capacity(&self) -> f64 {
        let streams = match self.issue_mode {
            CommandIssueMode::Direct => self.channels,
            CommandIssueMode::PerRankBuffered => self.channels * self.ranks,
        };
        streams as f64 / (self.cycle_ns() * 1e-9)
    }

    /// Validates internal consistency, including the JEDEC cross-constraints
    /// between timings: tFAW ≥ 4·tRRD_S (four activates fit in the window),
    /// tRRD_L ≥ tRRD_S, tWTR_L ≥ tWTR_S, tRAS ≥ tRCD + tBURST (a row stays
    /// open for one burst) and tRFC < tREFI.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels == 0 || self.ranks == 0 || self.bankgroups == 0 {
            return Err("organization fields must be non-zero".into());
        }
        if self.banks_per_group == 0 || self.rows == 0 || self.columns == 0 {
            return Err("organization fields must be non-zero".into());
        }
        let banks = self.ranks.saturating_mul(self.bankgroups).saturating_mul(self.banks_per_group);
        if banks > crate::controller::MAX_BANKS {
            return Err(format!(
                "{banks} banks per channel exceed the controller's {}",
                crate::controller::MAX_BANKS
            ));
        }
        if self.trc < self.tras + self.trp {
            return Err(format!("tRC {} < tRAS {} + tRP {}", self.trc, self.tras, self.trp));
        }
        if self.tccd_l < self.tccd_s {
            return Err("tCCD_L must be >= tCCD_S".into());
        }
        if self.tfaw < self.trrd_s.saturating_mul(4) {
            return Err(format!("tFAW {} < 4 * tRRD_S {}", self.tfaw, self.trrd_s));
        }
        if self.trrd_l < self.trrd_s {
            return Err(format!("tRRD_L {} < tRRD_S {}", self.trrd_l, self.trrd_s));
        }
        if self.twtr_l < self.twtr_s {
            return Err(format!("tWTR_L {} < tWTR_S {}", self.twtr_l, self.twtr_s));
        }
        if self.tras < self.trcd.saturating_add(self.tburst) {
            return Err(format!(
                "tRAS {} < tRCD {} + tBURST {}",
                self.tras, self.trcd, self.tburst
            ));
        }
        if self.trfc >= self.trefi {
            return Err(format!("tRFC {} >= tREFI {}", self.trfc, self.trefi));
        }
        if self.burst_bytes == 0 || !self.burst_bytes.is_power_of_two() {
            return Err("burst_bytes must be a power of two".into());
        }
        Ok(())
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::ddr4_2133()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_values() {
        let c = DramConfig::ddr4_2133();
        assert_eq!(c.tcl, 16);
        assert_eq!(c.trcd, 16);
        assert_eq!(c.trp, 16);
        assert_eq!(c.tras, 36);
        assert_eq!(c.tccd_l, 6);
        assert_eq!(c.tccd_s, 4);
        assert_eq!(c.tpim, 5);
        assert!((c.cycle_ns() - 0.94).abs() < 0.005);
        assert_eq!(c.idd0, 75.0);
        assert_eq!(c.iddpre, 98.0);
        assert_eq!(c.vdd, 1.2);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn peak_external_bandwidth_matches_paper() {
        // §VI-B: "theoretical maximum of 17.1GBps".
        let c = DramConfig::ddr4_2133();
        let gbps = c.peak_external_bw() / 1e9;
        assert!((gbps - 17.06).abs() < 0.15, "got {gbps}");
    }

    #[test]
    fn peak_internal_bandwidth_matches_paper() {
        // Fig. 11: "Peak bandwidth 181.28 GB/s".
        let c = DramConfig::ddr4_2133();
        let gbps = c.peak_internal_bw() / 1e9;
        assert!((gbps - 181.28).abs() < 1.0, "got {gbps}");
    }

    #[test]
    fn per_bank_placement_quadruples_internal_bw() {
        let mut c = DramConfig::ddr4_2133();
        let bg = c.peak_internal_bw();
        c.pim_placement = PimPlacement::PerBank;
        assert!((c.peak_internal_bw() / bg - 4.0).abs() < 1e-9);
    }

    #[test]
    fn buffered_mode_quadruples_command_capacity() {
        let mut c = DramConfig::ddr4_2133();
        let direct = c.command_issue_capacity();
        c.issue_mode = CommandIssueMode::PerRankBuffered;
        assert!((c.command_issue_capacity() / direct - 4.0).abs() < 1e-9);
    }

    #[test]
    fn presets_validate() {
        assert!(DramConfig::ddr4_2133().validate().is_ok());
        assert!(DramConfig::ddr4_3200().validate().is_ok());
        assert!(DramConfig::hbm2_like().validate().is_ok());
        assert!(DramConfig::ddr5_like().validate().is_ok());
    }

    #[test]
    fn validation_rejects_more_than_64_banks_per_channel() {
        let mut c = DramConfig::ddr4_2133();
        assert_eq!(c.ranks * c.banks_per_rank(), 64);
        assert!(c.validate().is_ok(), "exactly 64 banks fit");
        c.ranks = 5;
        let err = c.validate().unwrap_err();
        assert!(err.contains("80 banks"), "{err}");
        c.ranks = 1;
        c.banks_per_group = 17;
        assert!(c.validate().is_err(), "68 banks");
    }

    #[test]
    fn validation_catches_bad_trc() {
        let mut c = DramConfig::ddr4_2133();
        c.trc = 10;
        assert!(c.validate().is_err());
    }

    /// Each JEDEC cross-constraint, broken by one cycle on every preset
    /// (DDR5's tFAW = 4·tRRD_S is the tightest margin).
    #[test]
    fn validation_rejects_each_jedec_cross_constraint() {
        type Break = fn(&mut DramConfig);
        let cases: [(&str, Break); 5] = [
            ("tFAW", |c| c.tfaw = 4 * c.trrd_s - 1),
            ("tRRD_L", |c| c.trrd_l = c.trrd_s - 1),
            ("tWTR_L", |c| c.twtr_l = c.twtr_s - 1),
            ("tRAS", |c| c.tras = c.trcd + c.tburst - 1),
            ("tRFC", |c| c.trfc = c.trefi),
        ];
        for preset in [
            DramConfig::ddr4_2133(),
            DramConfig::ddr4_3200(),
            DramConfig::ddr5_like(),
            DramConfig::hbm2_like(),
        ] {
            for (name, break_it) in cases {
                let mut c = preset.clone();
                break_it(&mut c);
                let err = c.validate().expect_err(name);
                assert!(err.starts_with(name), "{}: {name} broken, got {err}", preset.name);
            }
        }
    }
}
