//! Physical address decomposition and the paper's Fig. 7 mapping.
//!
//! GradPIM needs corresponding elements of different parameter arrays (θ, v,
//! g, …) to land in the *same bank group but different banks* (§V-B). The
//! paper achieves this with the mapping of Fig. 7:
//!
//! ```text
//! MSB  | bank | row | (rank | channel) | bank group | column | byte |  LSB
//! ```
//!
//! * bank bits at the MSB → arrays allocated in different quarters of the
//!   address space automatically occupy different banks;
//! * bank-group bits just above the column bits → consecutive rows of data
//!   interleave across bank groups, giving maximum bank-group-level
//!   parallelism;
//! * rank/channel bits sit between them, which "does not violate the same
//!   bank group, different bank criteria".

use crate::config::DramConfig;

/// A fully decoded DRAM location. `column` indexes 64-byte bursts within a
/// row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Address {
    /// Channel index.
    pub channel: usize,
    /// Rank within the channel.
    pub rank: usize,
    /// Bank group within the rank.
    pub bankgroup: usize,
    /// Bank within the bank group.
    pub bank: usize,
    /// Row within the bank.
    pub row: usize,
    /// Burst-granularity column within the row.
    pub column: usize,
}

impl Address {
    /// Flat index of this address's bank within a channel
    /// (`rank × banks_per_rank + bankgroup × banks_per_group + bank`).
    pub fn flat_bank(&self, cfg: &DramConfig) -> usize {
        (self.rank * cfg.bankgroups + self.bankgroup) * cfg.banks_per_group + self.bank
    }
}

/// An address-bit interleaving scheme.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressMapping {
    /// The paper's Fig. 7 GradPIM mapping: bank bits at the MSB, bank-group
    /// interleaving right above the column bits.
    #[default]
    GradPim,
    /// A conventional baseline mapping (row ‖ rank ‖ bank ‖ bank group ‖
    /// column ‖ byte): consecutive arrays do *not* stay bank-aligned, so
    /// multi-array updates suffer bank conflicts — the ablation of
    /// `abl_mapping`.
    RowInterleaved,
}

fn log2(x: usize) -> u32 {
    debug_assert!(x.is_power_of_two(), "organization sizes must be powers of two, got {x}");
    x.trailing_zeros()
}

impl AddressMapping {
    /// Decodes a byte address into a DRAM location under this mapping.
    ///
    /// The low `log2(burst_bytes)` bits (byte-within-burst) are dropped:
    /// transactions are burst-aligned.
    pub fn decode(self, addr: u64, cfg: &DramConfig) -> Address {
        let mut a = addr >> log2(cfg.burst_bytes);
        let mut take = |n: u32| {
            let v = (a & ((1u64 << n) - 1)) as usize;
            a >>= n;
            v
        };
        match self {
            AddressMapping::GradPim => {
                let column = take(log2(cfg.columns));
                let bankgroup = take(log2(cfg.bankgroups));
                let rank = take(log2(cfg.ranks));
                let channel = take(log2(cfg.channels));
                let row = take(log2(cfg.rows));
                let bank = take(log2(cfg.banks_per_group));
                Address { channel, rank, bankgroup, bank, row, column }
            }
            AddressMapping::RowInterleaved => {
                let column = take(log2(cfg.columns));
                let bankgroup = take(log2(cfg.bankgroups));
                let bank = take(log2(cfg.banks_per_group));
                let rank = take(log2(cfg.ranks));
                let channel = take(log2(cfg.channels));
                let row = take(log2(cfg.rows));
                Address { channel, rank, bankgroup, bank, row, column }
            }
        }
    }

    /// Encodes a DRAM location back into a byte address (inverse of
    /// [`AddressMapping::decode`]).
    pub fn encode(self, loc: Address, cfg: &DramConfig) -> u64 {
        let mut addr = 0u64;
        let mut shift = log2(cfg.burst_bytes);
        let mut put = |v: usize, n: u32| {
            addr |= (v as u64) << shift;
            shift += n;
        };
        match self {
            AddressMapping::GradPim => {
                put(loc.column, log2(cfg.columns));
                put(loc.bankgroup, log2(cfg.bankgroups));
                put(loc.rank, log2(cfg.ranks));
                put(loc.channel, log2(cfg.channels));
                put(loc.row, log2(cfg.rows));
                put(loc.bank, log2(cfg.banks_per_group));
            }
            AddressMapping::RowInterleaved => {
                put(loc.column, log2(cfg.columns));
                put(loc.bankgroup, log2(cfg.bankgroups));
                put(loc.bank, log2(cfg.banks_per_group));
                put(loc.rank, log2(cfg.ranks));
                put(loc.channel, log2(cfg.channels));
                put(loc.row, log2(cfg.rows));
            }
        }
        addr
    }

    /// Total addressable bytes under `cfg`.
    pub fn capacity_bytes(self, cfg: &DramConfig) -> u64 {
        (cfg.channels * cfg.ranks * cfg.bankgroups * cfg.banks_per_group) as u64
            * cfg.rows as u64
            * cfg.columns as u64
            * cfg.burst_bytes as u64
    }

    /// Size in bytes of the contiguous region mapped to a single bank index
    /// under the GradPim mapping (arrays are aligned to this boundary so
    /// matching elements share a bank group, §V-B).
    ///
    /// # Panics
    ///
    /// Panics if called on a mapping without MSB bank bits.
    pub fn bank_region_bytes(self, cfg: &DramConfig) -> u64 {
        assert_eq!(self, AddressMapping::GradPim, "bank regions only exist under GradPim mapping");
        self.capacity_bytes(cfg) / cfg.banks_per_group as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DramConfig {
        DramConfig::ddr4_2133()
    }

    #[test]
    fn round_trip_both_mappings() {
        let cfg = cfg();
        for mapping in [AddressMapping::GradPim, AddressMapping::RowInterleaved] {
            for addr in [0u64, 64, 4096, 1 << 20, (1 << 30) + 8192, (1 << 33) - 64] {
                let loc = mapping.decode(addr, &cfg);
                assert_eq!(mapping.encode(loc, &cfg), addr, "{mapping:?} addr={addr:#x}");
            }
        }
    }

    #[test]
    fn gradpim_consecutive_bursts_walk_columns_then_bankgroups() {
        let cfg = cfg();
        let m = AddressMapping::GradPim;
        let a0 = m.decode(0, &cfg);
        let a1 = m.decode(64, &cfg);
        assert_eq!(a1.column, a0.column + 1);
        assert_eq!(a1.bankgroup, a0.bankgroup);
        // After one full row worth of columns, the bank group advances.
        let row_bytes = (cfg.columns * cfg.burst_bytes) as u64;
        let b = m.decode(row_bytes, &cfg);
        assert_eq!(b.bankgroup, 1);
        assert_eq!(b.column, 0);
        assert_eq!(b.bank, a0.bank);
    }

    #[test]
    fn gradpim_bank_bits_are_msb() {
        let cfg = cfg();
        let m = AddressMapping::GradPim;
        let region = m.bank_region_bytes(&cfg);
        for bank in 0..cfg.banks_per_group {
            let loc = m.decode(region * bank as u64, &cfg);
            assert_eq!(loc.bank, bank);
            assert_eq!(loc.row, 0);
            assert_eq!(loc.bankgroup, 0);
        }
    }

    #[test]
    fn gradpim_alignment_keeps_arrays_in_same_bankgroup_different_bank() {
        // §V-B: two arrays at the same offset within different bank regions
        // always land in the same bank group, same row index, different
        // bank — the criterion the update kernels rely on.
        let cfg = cfg();
        let m = AddressMapping::GradPim;
        let region = m.bank_region_bytes(&cfg);
        for off in [0u64, 64, 8192, 1 << 22] {
            let theta = m.decode(off, &cfg);
            let vel = m.decode(region + off, &cfg);
            assert_eq!(theta.bankgroup, vel.bankgroup);
            assert_eq!(theta.rank, vel.rank);
            assert_eq!(theta.row, vel.row);
            assert_eq!(theta.column, vel.column);
            assert_ne!(theta.bank, vel.bank);
        }
    }

    #[test]
    fn row_interleaved_breaks_bank_separation() {
        // The conventional mapping puts large-stride offsets into the same
        // bank at a different row — the bank-conflict case.
        let cfg = cfg();
        let m = AddressMapping::RowInterleaved;
        // Two arrays 1/4-capacity apart:
        let quarter = m.capacity_bytes(&cfg) / 4;
        let a = m.decode(0, &cfg);
        let b = m.decode(quarter, &cfg);
        // Same bank & bank group, different row → conflict on concurrent use.
        assert_eq!(a.bank, b.bank);
        assert_eq!(a.bankgroup, b.bankgroup);
        assert_ne!(a.row, b.row);
    }

    #[test]
    fn flat_indices_are_dense_and_unique() {
        let cfg = cfg();
        let mut seen = std::collections::BTreeSet::new();
        for rank in 0..cfg.ranks {
            for bg in 0..cfg.bankgroups {
                for bank in 0..cfg.banks_per_group {
                    let a = Address { rank, bankgroup: bg, bank, ..Default::default() };
                    assert!(seen.insert(a.flat_bank(&cfg)));
                }
            }
        }
        assert_eq!(seen.len(), cfg.ranks * cfg.banks_per_rank());
        assert_eq!(*seen.iter().max().unwrap(), cfg.ranks * cfg.banks_per_rank() - 1);
    }

    #[test]
    fn capacity_matches_organization() {
        let cfg = cfg();
        let m = AddressMapping::GradPim;
        // 4 ranks × 16 banks × 65536 rows × 128 cols × 64 B = 32 GiB.
        assert_eq!(m.capacity_bytes(&cfg), 32 << 30);
    }
}
