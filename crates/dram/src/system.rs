//! The top-level memory system: address mapping + per-channel controllers.

use crate::address::{Address, AddressMapping};
use crate::command::PimOp;
use crate::config::DramConfig;
use crate::controller::{Completion, Controller, EnqueueError};
use crate::pim::ModeRegisters;
use crate::stats::{Stats, WorkCounters};

/// Errors surfaced by [`MemorySystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// A transaction queue is full; tick and retry.
    QueueFull,
    /// An extended-ALU op was issued to a device without
    /// `DramConfig::extended_alu` (§VIII).
    ExtendedAluDisabled,
    /// `drain` exceeded its cycle budget.
    DrainTimeout {
        /// Transactions still outstanding when the budget ran out.
        pending: usize,
    },
    /// A PIM op addressed to a unit (channel, rank, bank group) or a bank
    /// the device does not have; nothing was enqueued.
    NoSuchUnit {
        /// Channel of the unit.
        channel: usize,
        /// Rank of the unit.
        rank: u8,
        /// Bank group of the unit.
        bankgroup: u8,
        /// Bank the op addresses within its bank group.
        bank: u8,
    },
}

impl std::fmt::Display for MemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MemError::QueueFull => write!(f, "transaction queue full"),
            MemError::ExtendedAluDisabled => {
                write!(f, "extended-ALU op on a device without extended_alu")
            }
            MemError::DrainTimeout { pending } => {
                write!(f, "drain timed out with {pending} transactions pending")
            }
            MemError::NoSuchUnit { channel, rank, bankgroup, bank } => write!(
                f,
                "PIM op for channel {channel}, rank {rank}, bank group {bankgroup}, bank {bank}: \
                 the device has no such unit or bank"
            ),
        }
    }
}

impl std::error::Error for MemError {}

impl From<EnqueueError> for MemError {
    fn from(e: EnqueueError) -> Self {
        match e {
            EnqueueError::QueueFull => MemError::QueueFull,
            EnqueueError::ExtendedAluDisabled => MemError::ExtendedAluDisabled,
        }
    }
}

/// A complete DRAM memory system: one controller per channel, a shared
/// address mapping, and channel-striped transaction-id counters.
///
/// Transaction ids are **channel-striped**: the *n*-th transaction accepted
/// by channel *c* gets id `n * channels + c`. A channel's id stream is thus
/// a pure function of its own accept order, independent of how enqueues to
/// different channels interleave globally. With one channel this
/// degenerates to the familiar sequential `0, 1, 2, …`.
///
/// # Example
///
/// ```
/// use gradpim_dram::{AddressMapping, DramConfig, MemorySystem};
///
/// let mut mem = MemorySystem::new(DramConfig::ddr4_2133(), AddressMapping::GradPim);
/// let id = mem.enqueue_read(0x1000).unwrap();
/// let cycles = mem.drain(10_000).unwrap();
/// assert!(cycles > 0);
/// let done = mem.take_completions();
/// assert_eq!(done[0].id, id);
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    cfg: DramConfig,
    mapping: AddressMapping,
    ctrls: Vec<Controller>,
    /// Per-channel counts of accepted transactions (ids are striped:
    /// `count * channels + channel`).
    next_ids: Vec<u64>,
}

impl MemorySystem {
    /// Creates a performance-only memory system (no byte storage).
    pub fn new(cfg: DramConfig, mapping: AddressMapping) -> Self {
        Self::build(cfg, mapping, false)
    }

    /// Creates a functional memory system with byte-level storage and live
    /// PIM register files.
    pub fn with_storage(cfg: DramConfig, mapping: AddressMapping) -> Self {
        Self::build(cfg, mapping, true)
    }

    fn build(cfg: DramConfig, mapping: AddressMapping, functional: bool) -> Self {
        cfg.validate().expect("invalid DramConfig");
        let ctrls = (0..cfg.channels).map(|_| Controller::new(&cfg, functional)).collect();
        let next_ids = vec![0; cfg.channels];
        Self { cfg, mapping, ctrls, next_ids }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapping in use.
    pub fn mapping(&self) -> AddressMapping {
        self.mapping
    }

    /// Current cycle count (channels tick in lockstep).
    pub fn cycles(&self) -> u64 {
        self.ctrls[0].cycles()
    }

    /// Elapsed simulated time in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.cycles() as f64 * self.cfg.cycle_ns()
    }

    /// Outstanding transactions across all channels.
    pub fn pending(&self) -> usize {
        self.ctrls.iter().map(|c| c.pending()).sum()
    }

    /// True when every channel has drained.
    pub fn is_drained(&self) -> bool {
        self.ctrls.iter().all(|c| c.is_drained())
    }

    /// The id `channel`'s next accepted transaction will get (channel
    /// striping: its accept count × channel count + channel index).
    fn peek_id(&self, channel: usize) -> u64 {
        self.next_ids[channel] * self.cfg.channels as u64 + channel as u64
    }

    /// Consumes the next transaction id for `channel`. Call only after the
    /// enqueue succeeded, so rejected attempts never burn ids (id assignment
    /// stays independent of how often a full queue was retried, and of how
    /// enqueues to *other* channels interleave).
    fn commit_id(&mut self, channel: usize) -> u64 {
        let id = self.peek_id(channel);
        self.next_ids[channel] += 1;
        id
    }

    /// Enqueues an external burst read of `addr`.
    ///
    /// # Errors
    ///
    /// [`MemError::QueueFull`] when the target bank queue is full.
    pub fn enqueue_read(&mut self, addr: u64) -> Result<u64, MemError> {
        let loc = self.mapping.decode(addr, &self.cfg);
        let id = self.peek_id(loc.channel);
        self.ctrls[loc.channel].enqueue_read(id, loc)?;
        Ok(self.commit_id(loc.channel))
    }

    /// Enqueues an external burst write of `addr`, optionally with data.
    ///
    /// # Errors
    ///
    /// [`MemError::QueueFull`] when the target bank queue is full.
    pub fn enqueue_write(&mut self, addr: u64, data: Option<Vec<u8>>) -> Result<u64, MemError> {
        let loc = self.mapping.decode(addr, &self.cfg);
        let id = self.peek_id(loc.channel);
        self.ctrls[loc.channel].enqueue_write(id, loc, data)?;
        Ok(self.commit_id(loc.channel))
    }

    /// Enqueues one GradPIM micro-op for the unit at
    /// (`channel`, `rank`, `bankgroup`).
    ///
    /// # Errors
    ///
    /// [`MemError::NoSuchUnit`] when the device has no such unit or no
    /// such bank for `op` (see [`MemorySystem::check_pim`]);
    /// [`MemError::QueueFull`] when the unit's queue is full.
    pub fn enqueue_pim(
        &mut self,
        channel: usize,
        rank: u8,
        bankgroup: u8,
        op: PimOp,
    ) -> Result<u64, MemError> {
        self.check_pim(channel, rank, bankgroup, std::slice::from_ref(&op))?;
        let id = self.peek_id(channel);
        self.ctrls[channel].enqueue_pim(id, rank, bankgroup, op)?;
        Ok(self.commit_id(channel))
    }

    /// Checks that (`channel`, `rank`, `bankgroup`) names a PIM unit of the
    /// device and that every op of `ops` addresses a bank of its bank
    /// group.
    ///
    /// # Errors
    ///
    /// [`MemError::NoSuchUnit`] naming the unit and the first op's bank if
    /// the unit does not exist, else the first bank that does not.
    pub fn check_pim(
        &self,
        channel: usize,
        rank: u8,
        bankgroup: u8,
        ops: &[PimOp],
    ) -> Result<(), MemError> {
        let c = &self.cfg;
        let unit = channel < c.channels
            && usize::from(rank) < c.ranks
            && usize::from(bankgroup) < c.bankgroups;
        let mut banks = ops.iter().map(|op| op.bank());
        let bad = if unit {
            banks.find(|&b| usize::from(b) >= c.banks_per_group)
        } else {
            Some(banks.next().unwrap_or(0))
        };
        match bad {
            None => Ok(()),
            Some(bank) => Err(MemError::NoSuchUnit { channel, rank, bankgroup, bank }),
        }
    }

    /// How many more ops the PIM queue of the unit at (`channel`, `rank`,
    /// `bankgroup`) accepts now: that many [`MemorySystem::enqueue_pim`]
    /// calls in a row cannot fail with [`MemError::QueueFull`]. 0 for a
    /// unit the device does not have.
    pub fn pim_room(&self, channel: usize, rank: u8, bankgroup: u8) -> usize {
        self.ctrls.get(channel).map_or(0, |c| c.pim_room(rank, bankgroup))
    }

    /// The PIM queues of `channel` that retired an op since the last call
    /// (bit `rank * bankgroups + bankgroup` for the unit at (`rank`,
    /// `bankgroup`)), and clears them: every other queue has no more
    /// [`MemorySystem::pim_room`] than it had at that call.
    ///
    /// # Panics
    ///
    /// Panics if the device has no channel `channel`.
    pub fn take_pim_retired(&mut self, channel: usize) -> u64 {
        self.ctrls[channel].take_pim_retired()
    }

    /// Advances all channels one memory-clock cycle.
    pub fn tick(&mut self) {
        for c in &mut self.ctrls {
            c.tick();
        }
    }

    /// The earliest cycle at which anything observable can change on any
    /// channel (see [`Controller::next_event_cycle`]). Cycles strictly
    /// before it are provably no-op ticks.
    pub fn next_event_cycle(&mut self) -> u64 {
        // `build` validates at least one channel, so the fold's seed never
        // survives.
        self.ctrls.iter_mut().map(Controller::next_event_cycle).fold(u64::MAX, u64::min)
    }

    /// Fast-forwards every channel to `cycle` (keeping them in lockstep),
    /// bulk-accounting the skipped cycles. Must not pass
    /// [`MemorySystem::next_event_cycle`].
    pub fn advance_to(&mut self, cycle: u64) {
        for c in &mut self.ctrls {
            c.advance_to(cycle);
        }
    }

    /// Skips ahead to the next event and ticks once there: observably
    /// equivalent to calling [`MemorySystem::tick`] repeatedly up to and
    /// including the first cycle where anything can happen, at O(1) ticks.
    pub fn tick_until_event(&mut self) {
        let e = self.next_event_cycle();
        self.advance_to(e);
        self.tick();
    }

    /// Runs to exactly `cycle` (no overshoot), fast-forwarding over dead
    /// spans and ticking at events — observably identical to calling
    /// [`MemorySystem::tick`] once per cycle until `cycle` is reached.
    pub fn run_until(&mut self, cycle: u64) {
        while self.cycles() < cycle {
            let next = self.next_event_cycle();
            self.advance_to(next.min(cycle));
            if self.cycles() < cycle {
                self.tick();
            }
        }
    }

    /// Runs until drained or `max_cycles` have elapsed, fast-forwarding
    /// over cycles where nothing can issue. Produces stats, completions and
    /// traces identical to [`MemorySystem::drain_reference`].
    ///
    /// # Errors
    ///
    /// [`MemError::DrainTimeout`] if work remains after `max_cycles`.
    pub fn drain(&mut self, max_cycles: u64) -> Result<u64, MemError> {
        let start = self.cycles();
        let deadline = start.saturating_add(max_cycles);
        while !self.is_drained() {
            if self.cycles() >= deadline {
                return Err(MemError::DrainTimeout { pending: self.pending() });
            }
            let next = self.next_event_cycle();
            self.advance_to(next.min(deadline));
            if self.is_drained() {
                break;
            }
            if self.cycles() < deadline {
                self.tick();
            }
        }
        Ok(self.cycles() - start)
    }

    /// Per-cycle reference implementation of [`MemorySystem::drain`]: ticks
    /// every cycle. Kept for differential testing of the event-driven core:
    /// the property tests compare the two.
    ///
    /// # Errors
    ///
    /// [`MemError::DrainTimeout`] if work remains after `max_cycles`.
    pub fn drain_reference(&mut self, max_cycles: u64) -> Result<u64, MemError> {
        let start = self.cycles();
        while !self.is_drained() {
            if self.cycles() - start >= max_cycles {
                return Err(MemError::DrainTimeout { pending: self.pending() });
            }
            self.tick();
        }
        Ok(self.cycles() - start)
    }

    /// Merged statistics across channels (`Stats::channels` reports the
    /// channel count so bus utilizations stay per-channel-normalized). Uses
    /// the order-insensitive [`Stats::merge_all`], so the result does not
    /// depend on channel order.
    pub fn stats(&self) -> Stats {
        let parts: Vec<Stats> = self.ctrls.iter().map(Controller::stats).collect();
        Stats::merge_all(&parts)
    }

    /// Host-work counters summed over channels.
    pub fn work(&self) -> WorkCounters {
        let mut w = WorkCounters::default();
        for c in &self.ctrls {
            w.merge(c.work());
        }
        w
    }

    /// Drains completions from all channels (ids are globally unique).
    pub fn take_completions(&mut self) -> Vec<Completion> {
        let mut out = Vec::new();
        for c in &mut self.ctrls {
            out.extend(c.take_completions());
        }
        out
    }

    /// Starts recording issued commands on every channel (see
    /// [`crate::trace::verify_trace`]).
    pub fn enable_trace(&mut self) {
        for c in &mut self.ctrls {
            c.enable_trace();
        }
    }

    /// Takes the per-channel command traces (channels have independent
    /// buses, so verification is per channel).
    pub fn take_traces(&mut self) -> Vec<Vec<crate::trace::TraceEntry>> {
        self.ctrls.iter_mut().map(|c| c.take_trace()).collect()
    }

    /// Programs the PIM mode registers on every channel (MRW broadcast).
    pub fn set_mode_registers(&mut self, mode: ModeRegisters) {
        for c in &mut self.ctrls {
            c.set_mode(mode);
        }
    }

    /// Backdoor write: stores `data` at linear address `addr` through the
    /// address mapping, bypassing timing. Functional mode only.
    ///
    /// # Panics
    ///
    /// Panics if storage is disabled or `addr`/`data` are not burst-aligned.
    pub fn poke(&mut self, addr: u64, data: &[u8]) {
        let burst = self.cfg.burst_bytes;
        assert_eq!(addr % burst as u64, 0, "poke address must be burst-aligned");
        assert_eq!(data.len() % burst, 0, "poke data must be burst-aligned");
        for (i, chunk) in data.chunks(burst).enumerate() {
            let a = addr + (i * burst) as u64;
            let loc = self.mapping.decode(a, &self.cfg);
            let fb = loc.flat_bank(&self.cfg);
            let st = self.ctrls[loc.channel]
                .storage_mut()
                .expect("poke requires functional storage (MemorySystem::with_storage)");
            st.write_col(fb, loc.row as u32, loc.column as u32, chunk);
        }
    }

    /// Backdoor read of `len` bytes from linear address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if storage is disabled or `addr`/`len` are not burst-aligned.
    pub fn peek(&self, addr: u64, len: usize) -> Vec<u8> {
        let burst = self.cfg.burst_bytes;
        assert_eq!(addr % burst as u64, 0, "peek address must be burst-aligned");
        assert_eq!(len % burst, 0, "peek length must be burst-aligned");
        let mut out = Vec::with_capacity(len);
        for i in 0..len / burst {
            let a = addr + (i * burst) as u64;
            let loc = self.mapping.decode(a, &self.cfg);
            let fb = loc.flat_bank(&self.cfg);
            let st = self.ctrls[loc.channel]
                .storage()
                .expect("peek requires functional storage (MemorySystem::with_storage)");
            out.extend_from_slice(&st.read_col(fb, loc.row as u32, loc.column as u32));
        }
        out
    }

    /// Decodes a linear address (convenience re-export of the mapping).
    pub fn decode(&self, addr: u64) -> Address {
        self.mapping.decode(addr, &self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandKind;

    #[test]
    fn read_write_round_trip_through_timing() {
        let mut mem = MemorySystem::with_storage(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        let data: Vec<u8> = (0..64).map(|i| i as u8 ^ 0x5a).collect();
        mem.enqueue_write(4096, Some(data.clone())).unwrap();
        let rid = mem.enqueue_read(4096).unwrap();
        mem.drain(10_000).unwrap();
        let comps = mem.take_completions();
        let read = comps.iter().find(|c| c.id == rid).unwrap();
        assert_eq!(read.data.as_deref(), Some(&data[..]));
    }

    #[test]
    fn poke_peek_round_trip() {
        let mut mem = MemorySystem::with_storage(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        let data: Vec<u8> = (0..256).map(|i| i as u8).collect();
        mem.poke(1 << 20, &data);
        assert_eq!(mem.peek(1 << 20, 256), data);
    }

    #[test]
    fn poke_then_timed_read_sees_data() {
        let mut mem = MemorySystem::with_storage(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        let data = vec![7u8; 64];
        mem.poke(0, &data);
        let rid = mem.enqueue_read(0).unwrap();
        mem.drain(10_000).unwrap();
        let comps = mem.take_completions();
        assert_eq!(comps.iter().find(|c| c.id == rid).unwrap().data.as_deref(), Some(&data[..]));
    }

    #[test]
    fn streaming_bandwidth_approaches_peak() {
        // 1 MiB of sequential reads should land near the 17.1 GB/s external
        // ceiling (§VI-B's baseline observation, ~15 GB/s with refresh).
        let cfg = DramConfig::ddr4_2133();
        let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        let bursts = (1 << 20) / 64;
        let mut enqueued = 0u64;
        while enqueued < bursts {
            match mem.enqueue_read(enqueued * 64) {
                Ok(_) => enqueued += 1,
                Err(MemError::QueueFull) => mem.tick(),
                Err(e) => panic!("{e}"),
            }
        }
        mem.drain(10_000_000).unwrap();
        let st = mem.stats();
        let bw = st.external_bw(&cfg) / 1e9;
        assert!(bw > 13.0, "streaming read bandwidth {bw} GB/s");
        assert!(bw <= cfg.peak_external_bw() / 1e9 + 0.1);
    }

    #[test]
    fn event_drain_matches_reference_drain() {
        let mut cfg = DramConfig::ddr4_2133();
        cfg.channels = 2;
        let build = |cfg: &DramConfig| {
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            mem.enable_trace();
            let push = |mem: &mut MemorySystem, write: bool, a: u64| loop {
                let r = if write {
                    mem.enqueue_write(a, None).map(drop)
                } else {
                    mem.enqueue_read(a).map(drop)
                };
                match r {
                    Ok(()) => break,
                    Err(MemError::QueueFull) => mem.tick(),
                    Err(e) => panic!("{e}"),
                }
            };
            for i in 0..96u64 {
                push(&mut mem, false, i * 64);
            }
            for i in 0..32u64 {
                push(&mut mem, true, (1 << 22) + i * 64);
            }
            mem.enqueue_pim(
                0,
                0,
                1,
                PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: 0, dst: 0 },
            )
            .unwrap();
            mem
        };
        let mut fast = build(&cfg);
        let mut refr = build(&cfg);
        let fc = fast.drain(1_000_000).unwrap();
        let rc = refr.drain_reference(1_000_000).unwrap();
        assert_eq!(fc, rc, "drain cycle counts diverge");
        assert_eq!(fast.take_traces(), refr.take_traces());
        assert_eq!(fast.take_completions(), refr.take_completions());
        assert_eq!(fast.stats(), refr.stats());
    }

    #[test]
    fn everything_threaded_drivers_need_is_send() {
        fn is_send<T: Send>() {}
        is_send::<Controller>();
        is_send::<MemorySystem>();
        is_send::<Stats>();
        is_send::<Completion>();
        is_send::<MemError>();
    }

    #[test]
    fn channel_striped_ids_are_interleaving_invariant() {
        // The k-th transaction accepted by a channel gets the same id no
        // matter how enqueues to different channels interleave globally.
        let mut cfg = DramConfig::ddr4_2133();
        cfg.channels = 2;
        // 8 bursts alternating between the two channels.
        let addrs: Vec<u64> = (0..8usize)
            .map(|i| {
                let loc = Address {
                    channel: i % 2,
                    rank: 0,
                    bankgroup: (i / 2) % cfg.bankgroups,
                    bank: 0,
                    row: 0,
                    column: i % cfg.columns,
                };
                AddressMapping::GradPim.encode(loc, &cfg)
            })
            .collect();
        let mut round_robin = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        let ids_rr: Vec<(usize, u64)> = addrs
            .iter()
            .map(|&a| (round_robin.decode(a).channel, round_robin.enqueue_read(a).unwrap()))
            .collect();
        // Same transactions, all of channel 0 first, then all of channel 1.
        let mut grouped = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        let mut sorted = addrs.clone();
        sorted.sort_by_key(|&a| grouped.decode(a).channel);
        let ids_grouped: Vec<(usize, u64)> = sorted
            .iter()
            .map(|&a| (grouped.decode(a).channel, grouped.enqueue_read(a).unwrap()))
            .collect();
        // Per-channel id streams are identical across the two interleavings.
        for ch in 0..cfg.channels {
            let stream = |ids: &[(usize, u64)]| -> Vec<u64> {
                ids.iter().filter(|(c, _)| *c == ch).map(|(_, id)| *id).collect()
            };
            assert_eq!(stream(&ids_rr), stream(&ids_grouped), "channel {ch} id stream diverges");
        }
        // Ids are globally unique and stripe by channel parity.
        let mut all: Vec<u64> = ids_rr.iter().map(|(_, id)| *id).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), addrs.len());
        for (ch, id) in &ids_rr {
            assert_eq!(*id as usize % cfg.channels, *ch);
        }
    }

    #[test]
    fn single_channel_ids_stay_sequential() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        let ids: Vec<u64> = (0..5u64).map(|i| mem.enqueue_read(i * 64).unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn merged_stats_report_channel_count() {
        let mut cfg = DramConfig::ddr4_2133();
        cfg.channels = 2;
        let mut mem = MemorySystem::new(cfg, AddressMapping::GradPim);
        for i in 0..64u64 {
            mem.enqueue_read(i * 64).unwrap();
        }
        mem.drain(1_000_000).unwrap();
        let st = mem.stats();
        assert_eq!(st.channels, 2);
        // Direct issue mode: per-channel command-bus utilization can never
        // exceed one command per tCK even when channels are merged.
        assert!(st.command_bus_utilization() <= 1.0, "util {}", st.command_bus_utilization());
    }

    #[test]
    fn tick_until_event_is_equivalent_to_many_ticks() {
        // Idle system: one tick_until_event must land exactly where the
        // per-cycle reference first does something (the first refresh
        // window, here), with identical stats.
        let cfg = DramConfig::ddr4_2133();
        let mut fast = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        let mut refr = MemorySystem::new(cfg, AddressMapping::GradPim);
        for _ in 0..3 {
            fast.tick_until_event();
        }
        while refr.cycles() < fast.cycles() {
            refr.tick();
        }
        assert_eq!(fast.stats(), refr.stats());
    }

    #[test]
    fn drain_timeout_reports_pending() {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        mem.enqueue_read(0).unwrap();
        match mem.drain(1) {
            Err(MemError::DrainTimeout { pending }) => assert_eq!(pending, 1),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    /// Enqueues `op` for (`channel`, `rank`, `bankgroup`) on a fresh
    /// one-channel DDR4-2133 system, which lacks that unit or `op`'s bank:
    /// the enqueue fails, and nothing is queued or issued.
    fn assert_rejected(channel: usize, rank: u8, bankgroup: u8, op: PimOp) -> MemorySystem {
        let mut mem = MemorySystem::new(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        mem.enable_trace();
        let want = MemError::NoSuchUnit { channel, rank, bankgroup, bank: op.bank() };
        assert_eq!(mem.enqueue_pim(channel, rank, bankgroup, op), Err(want));
        assert_eq!(mem.pending(), 0);
        mem.run_until(1_000);
        assert!(mem.take_traces().iter().all(Vec::is_empty), "a rejected op issued commands");
        mem
    }

    #[test]
    fn pim_ops_for_a_missing_channel_are_rejected() {
        let mem = assert_rejected(1, 0, 0, PimOp::Add { bank: 0, dst: 0 });
        assert_eq!(mem.pim_room(1, 0, 0), 0);
    }

    #[test]
    fn pim_ops_for_a_missing_rank_are_rejected() {
        let mem = assert_rejected(0, 4, 0, PimOp::Add { bank: 0, dst: 0 });
        assert_eq!(mem.pim_room(0, 4, 0), 0);
    }

    #[test]
    fn pim_ops_for_a_missing_bankgroup_are_rejected() {
        // Bank group 5 of rank 0 would alias rank 1's bank group 1 as a
        // flat queue index (0 * 4 + 5); so would its room.
        let mem = assert_rejected(0, 0, 5, PimOp::Add { bank: 0, dst: 0 });
        assert_eq!(mem.pim_room(0, 0, 5), 0);
        assert_eq!(mem.pim_room(0, 1, 1), 4 * mem.config().queue_depth);
    }

    #[test]
    fn pim_ops_for_a_missing_bank_are_rejected() {
        // Bank 5 of bank group 0 would alias bank group 1's bank 1.
        let op = PimOp::ScaledRead { bank: 5, row: 0, col: 0, scaler: 0, dst: 0 };
        let mut mem = assert_rejected(0, 0, 0, op);
        let ok = PimOp::ScaledRead { bank: 3, row: 0, col: 0, scaler: 0, dst: 0 };
        assert_eq!(
            mem.check_pim(0, 0, 0, &[ok, op, ok]),
            Err(MemError::NoSuchUnit { channel: 0, rank: 0, bankgroup: 0, bank: 5 })
        );
        assert_eq!(mem.enqueue_pim(0, 0, 0, ok), Ok(0), "the unit itself exists");
    }

    #[test]
    fn pim_ops_route_to_correct_channel_unit() {
        let mut mem = MemorySystem::with_storage(DramConfig::ddr4_2133(), AddressMapping::GradPim);
        // Write f32 data via backdoor into (rank 0, bg 2, bank 0, row 0).
        let vals: Vec<u8> = (0..16).flat_map(|i| (i as f32).to_le_bytes()).collect();
        let loc = Address { channel: 0, rank: 0, bankgroup: 2, bank: 0, row: 0, column: 0 };
        let addr = AddressMapping::GradPim.encode(loc, mem.config());
        mem.poke(addr, &vals);
        // scaled-read → writeback into bank 1 same group.
        mem.enqueue_pim(0, 0, 2, PimOp::ScaledRead { bank: 0, row: 0, col: 0, scaler: 0, dst: 0 })
            .unwrap();
        mem.enqueue_pim(0, 0, 2, PimOp::Writeback { bank: 1, row: 0, col: 0, src: 0 }).unwrap();
        mem.drain(10_000).unwrap();
        let dst = Address { channel: 0, rank: 0, bankgroup: 2, bank: 1, row: 0, column: 0 };
        let dst_addr = AddressMapping::GradPim.encode(dst, mem.config());
        assert_eq!(mem.peek(dst_addr, 64), vals);
        let st = mem.stats();
        assert_eq!(st.count(CommandKind::ScaledRead), 1);
        assert_eq!(st.count(CommandKind::Writeback), 1);
    }
}
