//! The per-channel memory controller.
//!
//! A conventional FR-FCFS open-page controller (per-bank transaction queues,
//! row-hit-first scheduling with a starvation cap, tREFI/tRFC refresh,
//! write/read turnaround via the timing engine) extended with per-unit
//! GradPIM queues. PIM command streams execute *in order per unit* — the
//! fixed-function, deterministic-latency model requirement #1 of the paper —
//! while still being interleaved with ordinary traffic on the shared command
//! bus.
//!
//! In `CommandIssueMode::Direct` the controller issues at most one command
//! per tCK for the whole channel (the Fig. 11 bottleneck). In
//! `PerRankBuffered` each rank's buffer device issues up to one command per
//! tCK (Fig. 8(b)).

use std::collections::VecDeque;

use crate::address::Address;
use crate::bank::BankState;
use crate::command::{BankAddr, Command, CommandKind, PimOp};
use crate::config::{CommandIssueMode, DramConfig, PimPlacement};
use crate::pim::{ModeRegisters, PimUnit};
use crate::power::PowerModel;
use crate::stats::{Stats, WorkCounters};
use crate::storage::Storage;
use crate::timing::{TermClass, TimingState};
use crate::trace::TraceEntry;

/// A retired transaction: its id, retire cycle, and (for functional reads)
/// the data.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Transaction id assigned at enqueue.
    pub id: u64,
    /// Memory-clock cycle at which the transaction's effect is complete.
    pub at_cycle: u64,
    /// Burst data for functional reads.
    pub data: Option<Vec<u8>>,
}

/// Why a transaction could not be accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target queue is at capacity; tick and retry.
    QueueFull,
    /// The op needs the §VIII extended ALU but `DramConfig::extended_alu`
    /// is off.
    ExtendedAluDisabled,
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnqueueError::QueueFull => write!(f, "transaction queue full"),
            EnqueueError::ExtendedAluDisabled => {
                write!(f, "extended-ALU op on a device without extended_alu")
            }
        }
    }
}

impl std::error::Error for EnqueueError {}

#[derive(Debug)]
struct ColReq {
    id: u64,
    row: u32,
    col: u32,
    write: bool,
    data: Option<Vec<u8>>,
}

#[derive(Debug)]
struct PimReq {
    id: u64,
    op: PimOp,
}

/// Per-rank power-down state (JEDEC precharge power-down with tXP exit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PdState {
    /// Commands may issue.
    Active,
    /// Clocks gated; background drops to IDD2P.
    Down,
    /// Exiting power-down; active at the stored cycle.
    Waking(u64),
}

/// Maximum queue entries inspected for row hits before falling back to the
/// queue head (FR-FCFS window).
const HIT_WINDOW: usize = 8;
/// Consecutive row hits served before the head is prioritized (starvation
/// cap).
const MAX_STREAK: u32 = 16;
/// Banks per channel the controller supports: one bit each in the `u64`
/// queue and open-row sets.
pub(crate) const MAX_BANKS: usize = 64;

/// The cached scheduling candidates of one family of queues (the bank
/// queues or the PIM queues), one fixed-capacity array per field, indexed
/// by queue: the command FR-FCFS or the PIM stream would attempt next (with
/// its queue pick), that command's [`TimingState::local_earliest`] and its
/// [`term_slot`]. Queue `q`'s command can issue at `max(local[q],
/// terms[slot[q]])`, `terms` being the controller's flat term table.
///
/// Entry `q` goes stale on an enqueue or dequeue on queue `q`, on any
/// command issued to `q`'s bank group, and on a REF or PRE-all to, or a
/// refresh coming due on, `q`'s rank: every input of a candidate command
/// and of its local earliest cycle changes only through one of those.
/// Rank and bus timing live in the term table instead, so a command to
/// one bank group leaves every other group's entries fresh.
#[derive(Debug)]
struct Candidates<P> {
    cmd: [Option<(Command, P)>; MAX_BANKS],
    /// `u64::MAX` where there is no command.
    local: [u64; MAX_BANKS],
    /// 0 where there is no command (its `local` alone decides).
    slot: [u8; MAX_BANKS],
    /// Entries that must be rebuilt before use.
    stale: u64,
}

/// A cached candidate: its command (with queue pick), local earliest
/// cycle and term slot.
type Entry<P> = (Option<(Command, P)>, u64, u8);

impl<P: Copy> Candidates<P> {
    fn new() -> Self {
        Self {
            cmd: [None; MAX_BANKS],
            local: [u64::MAX; MAX_BANKS],
            slot: [0; MAX_BANKS],
            stale: 0,
        }
    }

    /// The entry `cmd` gives a queue.
    fn entry(timing: &TimingState, cmd: Option<(Command, P)>) -> Entry<P> {
        match cmd {
            Some((c, _)) => (cmd, timing.local_earliest(&c), term_slot(&c)),
            None => (None, u64::MAX, 0),
        }
    }

    /// Queue `q`'s cached entry, as [`Candidates::entry`] builds it.
    #[cfg(debug_assertions)]
    fn get(&self, q: usize) -> Entry<P> {
        (self.cmd[q], self.local[q], self.slot[q])
    }

    /// Stores queue `q`'s freshly built entry.
    fn set(&mut self, q: usize, (cmd, local, slot): Entry<P>) {
        self.cmd[q] = cmd;
        self.local[q] = local;
        self.slot[q] = slot;
    }
}

/// Slots in the flat term table: one per rank and [`TermClass`], as many
/// as a `u8` slot can name, so a lookup needs no bounds check.
const TERM_SLOTS: usize = MAX_BANKS * TermClass::COUNT;
const _: () = assert!(TERM_SLOTS == 1 << u8::BITS);

/// The term-table slot of `cmd`'s rank and class: `rank *
/// TermClass::COUNT + class`. Below [`TERM_SLOTS`], since every rank has
/// a bank.
fn term_slot(cmd: &Command) -> u8 {
    (usize::from(cmd.rank()) * TermClass::COUNT + TermClass::of(cmd.kind()).index()) as u8
}

/// The set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            i
        })
    })
}

/// The set bits of `mask` in round-robin order starting at bit `start`
/// (< 64): `start..64`, then `0..start`.
fn bits_from(mask: u64, start: usize) -> impl Iterator<Item = usize> {
    bits(mask.rotate_right(start as u32)).map(move |i| (i + start) % 64)
}

/// One channel's memory controller, DRAM timing state, and (optionally)
/// functional storage + PIM register files.
///
/// Issue selection does work in proportion to the queues that hold work:
/// `u64` bitsets track the non-empty bank and PIM queues, the queues of
/// ranks that may issue, and the open banks. Each queue caches its
/// candidate (the command FR-FCFS would attempt next) with that command's
/// local earliest cycle and term slot, and one flat table holds every
/// rank's class terms (the split of [`TimingState::earliest`] that the
/// [`crate::timing`] docs describe), one slot per rank and class, so a
/// command's earliest cycle is one `max` of two cached values. A candidate
/// entry goes stale on an enqueue or dequeue on its queue and on any
/// command issued to its bank group; a REF or PRE-all to its rank, or a
/// refresh coming due there (a flip of `refresh_pending`), makes every
/// entry of the rank stale. The term table is recomputed, whole, on its
/// first use after an issue of an activate, read, write or refresh: on a
/// channel-wide bus one read or write moves every rank's bus terms.
#[derive(Debug)]
pub struct Controller {
    cfg: DramConfig,
    clock: u64,
    timing: TimingState,
    banks: Vec<BankState>,
    bank_q: Vec<VecDeque<ColReq>>,
    hit_streak: Vec<u32>,
    pim_q: Vec<VecDeque<PimReq>>,
    refresh_due: Vec<u64>,
    refresh_pending: Vec<bool>,
    rr_bank: usize,
    rr_unit: usize,
    pending: usize,
    last_done: u64,
    power: PowerModel,
    stats: Stats,
    work: WorkCounters,
    storage: Option<Storage>,
    units: Vec<PimUnit>,
    mode: ModeRegisters,
    completions: Vec<Completion>,
    trace: Option<Vec<TraceEntry>>,
    pd: Vec<PdState>,
    idle: Vec<u64>,
    /// Flat bank index → address.
    bank_addr: Vec<BankAddr>,
    /// PIM queue index → (rank, bank group). PIM queue `g` belongs to flat
    /// bank group `g`, whose banks are bits `g * banks_per_group..`.
    unit_addr: Vec<(u8, u8)>,
    /// Per rank: the bits of its banks / of its PIM queues.
    rank_banks: Vec<u64>,
    rank_units: Vec<u64>,
    /// The bits of bank group 0's banks.
    group_banks: u64,
    /// Non-empty bank and PIM queues.
    busy_banks: u64,
    busy_units: u64,
    /// The bank and PIM queues of ranks that may issue (not powered down).
    issuable_banks: u64,
    issuable_units: u64,
    /// Banks with an open row.
    open_banks: u64,
    /// PIM queues that retired an op since the last
    /// [`Controller::take_pim_retired`].
    pim_retired: u64,
    bank_cand: Candidates<Option<usize>>,
    unit_cand: Candidates<bool>,
    /// Rank `r`'s cached [`TimingState::class_terms`], at slots
    /// `r * TermClass::COUNT..` (see [`term_slot`]).
    terms: [u64; TERM_SLOTS],
    /// The term table must be recomputed before use.
    terms_dirty: bool,
    /// Debug builds only: the bound the last
    /// [`Controller::next_event_cycle`] returned, once checked against the
    /// full scan. Every enqueue, tick and advance clears it: only those
    /// can move the next event.
    #[cfg(debug_assertions)]
    checked_next: Option<u64>,
}

impl Controller {
    /// Creates a controller; `functional` enables byte-level storage and PIM
    /// register execution.
    ///
    /// # Panics
    ///
    /// Panics if the channel has more than 64 banks (which
    /// [`DramConfig::validate`] rejects).
    pub fn new(cfg: &DramConfig, functional: bool) -> Self {
        let nbanks = cfg.ranks * cfg.banks_per_rank();
        assert!(nbanks <= MAX_BANKS, "{nbanks} banks per channel exceed {MAX_BANKS}");
        let nunits = match cfg.pim_placement {
            PimPlacement::PerBankGroup => cfg.ranks * cfg.bankgroups,
            PimPlacement::PerBank => nbanks,
        };
        let nqueues = cfg.ranks * cfg.bankgroups;
        let (bpr, bpg) = (cfg.banks_per_rank(), cfg.banks_per_group);
        // Rank `r`'s bits when every rank owns `n` consecutive bits.
        let rank_bits = |n: usize, r: usize| (u64::MAX >> (64 - n)) << (r * n);
        let bank_addr = (0..nbanks)
            .map(|fb| BankAddr {
                rank: (fb / bpr) as u8,
                bankgroup: (fb % bpr / bpg) as u8,
                bank: (fb % bpg) as u8,
            })
            .collect();
        Self {
            cfg: cfg.clone(),
            clock: 0,
            timing: TimingState::new(cfg),
            banks: vec![BankState::new(); nbanks],
            bank_q: (0..nbanks).map(|_| VecDeque::new()).collect(),
            hit_streak: vec![0; nbanks],
            pim_q: (0..nqueues).map(|_| VecDeque::new()).collect(),
            refresh_due: (0..cfg.ranks).map(|r| cfg.trefi + r as u64 * 32).collect(),
            refresh_pending: vec![false; cfg.ranks],
            rr_bank: 0,
            rr_unit: 0,
            pending: 0,
            last_done: 0,
            power: PowerModel::new(cfg),
            stats: Stats::default(),
            work: WorkCounters::default(),
            storage: functional.then(|| Storage::new(cfg.columns, cfg.burst_bytes)),
            units: (0..nunits).map(|_| PimUnit::new(cfg.burst_bytes)).collect(),
            mode: ModeRegisters::default(),
            completions: Vec::new(),
            trace: None,
            pd: vec![PdState::Active; cfg.ranks],
            idle: vec![0; cfg.ranks],
            bank_addr,
            unit_addr: (0..nqueues)
                .map(|u| ((u / cfg.bankgroups) as u8, (u % cfg.bankgroups) as u8))
                .collect(),
            rank_banks: (0..cfg.ranks).map(|r| rank_bits(bpr, r)).collect(),
            rank_units: (0..cfg.ranks).map(|r| rank_bits(cfg.bankgroups, r)).collect(),
            group_banks: rank_bits(bpg, 0),
            busy_banks: 0,
            busy_units: 0,
            issuable_banks: rank_bits(nbanks, 0),
            issuable_units: rank_bits(nqueues, 0),
            open_banks: 0,
            pim_retired: 0,
            bank_cand: Candidates::new(),
            unit_cand: Candidates::new(),
            terms: [0; TERM_SLOTS],
            terms_dirty: true,
            #[cfg(debug_assertions)]
            checked_next: None,
        }
    }

    /// Starts recording every issued command (for
    /// [`crate::trace::verify_trace`]).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Vec::new());
    }

    /// Takes the recorded trace (empty if tracing was never enabled).
    pub fn take_trace(&mut self) -> Vec<TraceEntry> {
        self.trace
            .take()
            .inspect(|_| {
                self.trace = Some(Vec::new());
            })
            .unwrap_or_default()
    }

    /// Current memory-clock cycle.
    pub fn cycles(&self) -> u64 {
        self.clock
    }

    /// Transactions accepted but not yet retired.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// True when all queues are empty and all in-flight bursts have landed.
    pub fn is_drained(&self) -> bool {
        self.pending == 0 && self.clock >= self.last_done
    }

    /// Accumulated statistics. Background energy is computed here, from
    /// the integer rank-cycle counters, rather than kept per event.
    pub fn stats(&self) -> Stats {
        let mut stats = self.stats.clone();
        stats.energy.background_pj = self.power.background_total_pj(
            stats.bg_active_cycles,
            stats.bg_precharged_cycles,
            stats.powerdown_cycles,
        );
        stats
    }

    /// Host-work counters: what the simulation of those statistics cost.
    pub fn work(&self) -> &WorkCounters {
        &self.work
    }

    /// Programs the unit mode registers (MRW).
    pub fn set_mode(&mut self, mode: ModeRegisters) {
        self.mode = mode;
    }

    /// The current mode registers.
    pub fn mode(&self) -> &ModeRegisters {
        &self.mode
    }

    /// Functional storage backdoor (None in performance-only mode).
    pub fn storage(&self) -> Option<&Storage> {
        self.storage.as_ref()
    }

    /// Mutable functional storage backdoor.
    pub fn storage_mut(&mut self) -> Option<&mut Storage> {
        self.storage.as_mut()
    }

    /// Drains retired transactions.
    pub fn take_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    fn flat_bank(&self, b: BankAddr) -> usize {
        (b.rank as usize * self.cfg.bankgroups + b.bankgroup as usize) * self.cfg.banks_per_group
            + b.bank as usize
    }

    fn flat_unit(&self, rank: u8, bankgroup: u8, bank: u8) -> usize {
        match self.cfg.pim_placement {
            PimPlacement::PerBankGroup => rank as usize * self.cfg.bankgroups + bankgroup as usize,
            PimPlacement::PerBank => {
                (rank as usize * self.cfg.bankgroups + bankgroup as usize)
                    * self.cfg.banks_per_group
                    + bank as usize
            }
        }
    }

    /// Enqueues an external read for `addr` (within this channel).
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] if the bank queue is at capacity.
    pub fn enqueue_read(&mut self, id: u64, addr: Address) -> Result<(), EnqueueError> {
        self.enqueue_col(id, addr, false, None)
    }

    /// Enqueues an external write for `addr`, optionally carrying burst data
    /// for functional mode.
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] if the bank queue is at capacity.
    pub fn enqueue_write(
        &mut self,
        id: u64,
        addr: Address,
        data: Option<Vec<u8>>,
    ) -> Result<(), EnqueueError> {
        self.enqueue_col(id, addr, true, data)
    }

    fn enqueue_col(
        &mut self,
        id: u64,
        addr: Address,
        write: bool,
        data: Option<Vec<u8>>,
    ) -> Result<(), EnqueueError> {
        let fb = addr.flat_bank(&self.cfg);
        if self.bank_q[fb].len() >= self.cfg.queue_depth {
            self.work.queue_full += 1;
            return Err(EnqueueError::QueueFull);
        }
        self.forget_checked_next();
        let (row, col) = (addr.row as u32, addr.column as u32);
        self.bank_q[fb].push_back(ColReq { id, row, col, write, data });
        self.busy_banks |= 1 << fb;
        self.bank_cand.stale |= 1 << fb;
        self.pending += 1;
        Ok(())
    }

    /// Enqueues one GradPIM micro-op for the unit at (`rank`, `bankgroup`).
    /// Ops execute in order per bank group. The unit and `op`'s bank must
    /// exist ([`crate::MemorySystem::check_pim`] checks; debug builds
    /// assert).
    ///
    /// # Errors
    ///
    /// [`EnqueueError::QueueFull`] if the PIM queue is at capacity.
    pub fn enqueue_pim(
        &mut self,
        id: u64,
        rank: u8,
        bankgroup: u8,
        op: PimOp,
    ) -> Result<(), EnqueueError> {
        debug_assert!(
            usize::from(rank) < self.cfg.ranks
                && usize::from(bankgroup) < self.cfg.bankgroups
                && usize::from(op.bank()) < self.cfg.banks_per_group,
            "{op:?} for rank {rank}, bank group {bankgroup}: no such unit or bank"
        );
        if op.kind().is_extended() && !self.cfg.extended_alu {
            return Err(EnqueueError::ExtendedAluDisabled);
        }
        if self.pim_room(rank, bankgroup) == 0 {
            self.work.queue_full += 1;
            return Err(EnqueueError::QueueFull);
        }
        self.forget_checked_next();
        let q = rank as usize * self.cfg.bankgroups + bankgroup as usize;
        self.pim_q[q].push_back(PimReq { id, op });
        self.busy_units |= 1 << q;
        self.unit_cand.stale |= 1 << q;
        self.pending += 1;
        Ok(())
    }

    /// Drops the bound [`Controller::next_event_cycle`] checked (kept in
    /// debug builds only): the state it was checked at is about to move.
    fn forget_checked_next(&mut self) {
        #[cfg(debug_assertions)]
        {
            self.checked_next = None;
        }
    }

    /// How many more ops the PIM queue of the unit at (`rank`, `bankgroup`)
    /// accepts now (its capacity is four times the bank queue depth); 0
    /// for a unit the channel does not have.
    pub fn pim_room(&self, rank: u8, bankgroup: u8) -> usize {
        if usize::from(rank) >= self.cfg.ranks || usize::from(bankgroup) >= self.cfg.bankgroups {
            return 0;
        }
        let q = rank as usize * self.cfg.bankgroups + bankgroup as usize;
        (self.cfg.queue_depth * 4).saturating_sub(self.pim_q[q].len())
    }

    /// The PIM queues that retired an op since the last call, bit `rank *
    /// bankgroups + bankgroup` for the unit at (`rank`, `bankgroup`), and
    /// clears them. Only a retired op frees room in a PIM queue, so a
    /// queue without its bit set has no more room than it had then.
    pub(crate) fn take_pim_retired(&mut self) -> u64 {
        std::mem::take(&mut self.pim_retired)
    }

    /// True when rank `r` has queued or in-progress work: pending bank/PIM
    /// requests or an open row. Deliberately excludes refresh —
    /// [`Controller::rank_has_work`] adds that term.
    fn rank_has_queued_work(&self, r: usize) -> bool {
        (self.busy_banks | self.open_banks) & self.rank_banks[r] != 0
            || self.busy_units & self.rank_units[r] != 0
    }

    /// Queued work *or* a due refresh. The refresh term is what forces a
    /// powered-down rank to wake (via [`Controller::update_powerdown`]) so
    /// REF can never be postponed past the JEDEC 9×tREFI bound by precharge
    /// power-down.
    fn rank_has_work(&self, r: usize) -> bool {
        self.refresh_pending[r] || self.rank_has_queued_work(r)
    }

    /// Power-down bookkeeping for one rank (JEDEC precharge power-down:
    /// enter after `powerdown_idle` idle cycles, exit over tXP).
    fn update_powerdown(&mut self, r: usize) {
        match self.pd[r] {
            PdState::Active => {
                if self.rank_has_work(r) {
                    self.idle[r] = 0;
                } else {
                    self.idle[r] += 1;
                    if self.idle[r] >= self.cfg.powerdown_idle {
                        self.set_pd(r, PdState::Down);
                    }
                }
            }
            PdState::Down => {
                if self.rank_has_work(r) {
                    self.set_pd(r, PdState::Waking(self.clock + self.cfg.txp));
                }
            }
            PdState::Waking(until) => {
                if self.clock >= until {
                    self.set_pd(r, PdState::Active);
                    self.idle[r] = 0;
                }
            }
        }
    }

    /// Moves rank `r` to power-down state `state`, keeping the issuable
    /// queue masks in step: only an `Active` rank issues.
    fn set_pd(&mut self, r: usize, state: PdState) {
        self.pd[r] = state;
        if state == PdState::Active {
            self.issuable_banks |= self.rank_banks[r];
            self.issuable_units |= self.rank_units[r];
        } else {
            self.issuable_banks &= !self.rank_banks[r];
            self.issuable_units &= !self.rank_units[r];
        }
    }

    fn rank_issuable(&self, r: usize) -> bool {
        self.pd[r] == PdState::Active
    }

    /// The issuable queues of `mask` (the bank or PIM queues of ranks that
    /// may issue now) that belong to the rank `filter` names, if any.
    fn filtered(mask: u64, per_rank: &[u64], filter: Option<u8>) -> u64 {
        filter.map_or(mask, |r| mask & per_rank[r as usize])
    }

    /// Marks every cached candidate of rank `r` stale.
    fn invalidate_rank(&mut self, r: usize) {
        self.bank_cand.stale |= self.rank_banks[r];
        self.unit_cand.stale |= self.rank_units[r];
    }

    /// Marks the cached candidates of `b`'s bank group stale: its bank
    /// queues and its PIM queue.
    fn invalidate_group(&mut self, b: BankAddr) {
        let g = b.rank as usize * self.cfg.bankgroups + b.bankgroup as usize;
        self.bank_cand.stale |= self.group_banks << (g * self.cfg.banks_per_group);
        self.unit_cand.stale |= 1 << g;
    }

    /// Advances one memory-clock cycle: refresh bookkeeping, power-down
    /// transitions, command issue, background accounting.
    pub fn tick(&mut self) {
        self.forget_checked_next();
        self.work.events += 1;
        for r in 0..self.cfg.ranks {
            if self.clock >= self.refresh_due[r] && !self.refresh_pending[r] {
                self.refresh_pending[r] = true;
                self.invalidate_rank(r);
            }
            self.update_powerdown(r);
        }
        match self.cfg.issue_mode {
            CommandIssueMode::Direct => {
                self.try_issue(None);
            }
            CommandIssueMode::PerRankBuffered => {
                for r in 0..self.cfg.ranks {
                    self.try_issue(Some(r as u8));
                }
            }
        }
        self.account_cycles(1);
        self.clock += 1;
        self.stats.cycles = self.clock;
    }

    /// Accounts `n` cycles of per-rank background state (the background
    /// and power-down rank-cycle counters), assuming every rank's
    /// power-down state and open-row set are constant over those cycles.
    ///
    /// Only integer counters move here; [`Controller::stats`] derives the
    /// background energy from them, so one `account_cycles(n)` is
    /// bit-identical to `n` calls of `account_cycles(1)`.
    fn account_cycles(&mut self, n: u64) {
        for r in 0..self.cfg.ranks {
            if self.pd[r] == PdState::Down {
                self.stats.powerdown_cycles += n;
                continue;
            }
            if self.open_banks & self.rank_banks[r] != 0 {
                self.stats.bg_active_cycles += n;
            } else {
                self.stats.bg_precharged_cycles += n;
            }
        }
    }

    /// The earliest cycle at or after the current one at which anything
    /// observable can change: a command may become issuable, a refresh comes
    /// due, a power-down transition fires, or the last in-flight burst
    /// lands. Every cycle strictly between the current cycle and the
    /// returned one is provably a no-op tick, so
    /// [`Controller::advance_to`] may skip there in bulk.
    ///
    /// Takes `&mut self` only to rebuild stale cached candidates; the
    /// simulated state is not touched.
    pub fn next_event_cycle(&mut self) -> u64 {
        let issue = self.earliest_issue();
        let next = self.state_event_cycle().min(issue).max(self.clock);
        #[cfg(debug_assertions)]
        {
            self.check_candidates(issue);
            self.checked_next = Some(next);
        }
        next
    }

    /// The earliest state transition other than a command issue: the drain
    /// horizon, a refresh coming due, or a power-down entry or exit.
    fn state_event_cycle(&self) -> u64 {
        let mut e = u64::MAX;
        // Drain horizon: the last in-flight burst/op retires.
        if self.clock < self.last_done {
            e = self.last_done;
        }
        for r in 0..self.cfg.ranks {
            // Refresh becoming due flips `refresh_pending`, which gates new
            // activates and wakes powered-down ranks.
            if !self.refresh_pending[r] {
                e = e.min(self.refresh_due[r]);
            }
            match self.pd[r] {
                PdState::Waking(until) => e = e.min(until),
                // A powered-down rank only changes state when work (or a
                // due refresh) appears; if it already has work, the wake
                // transition fires on the very next tick.
                PdState::Down => {
                    if self.rank_has_work(r) {
                        e = e.min(self.clock);
                    }
                }
                PdState::Active => {
                    if self.cfg.powerdown_idle != u64::MAX && !self.rank_has_work(r) {
                        // The tick at which `idle` reaches `powerdown_idle`
                        // accounts this rank as powered down.
                        let j = self.cfg.powerdown_idle.saturating_sub(self.idle[r] + 1);
                        e = e.min(self.clock.saturating_add(j));
                    }
                }
            }
        }
        e
    }

    /// The earliest cycle at which the scheduler could issue any command,
    /// given current queue/bank/refresh state (`u64::MAX` when nothing is
    /// schedulable). Reads the *same* cached candidates and term table
    /// `try_refresh`/`try_pim`/`try_banks` issue from, so the scheduling
    /// policy cannot diverge from the event estimate: between now and the
    /// returned cycle, every `tick` provably issues nothing.
    fn earliest_issue(&mut self) -> u64 {
        let mut e = self.earliest_refresh();
        let units = self.busy_units & self.issuable_units;
        let banks = self.busy_banks & self.issuable_banks;
        if units | banks == 0 {
            return e;
        }
        self.work.slots_examined += u64::from(units.count_ones() + banks.count_ones());
        self.rebuild(units, banks);
        self.update_terms();
        for u in bits(units) {
            e = e.min(self.ready(&self.unit_cand, u));
        }
        for fb in bits(banks) {
            e = e.min(self.ready(&self.bank_cand, fb));
        }
        e
    }

    /// The earliest cycle any refresh-path candidate of a rank with a
    /// pending refresh could issue.
    fn earliest_refresh(&mut self) -> u64 {
        let (mut e, mut evals) = (u64::MAX, 0);
        for r in 0..self.cfg.ranks {
            if !self.refresh_pending[r] || !self.rank_issuable(r) {
                continue;
            }
            for cmd in self.refresh_candidates(r) {
                evals += 1;
                e = e.min(self.timing.earliest(&cmd));
            }
        }
        self.work.candidate_evals += evals;
        e
    }

    /// The refresh-path candidates for rank `r` (caller checks
    /// `refresh_pending` and issuability): the REF itself when every bank
    /// is closed, otherwise one Precharge per open bank, in bank order.
    fn refresh_candidates(&self, r: usize) -> impl Iterator<Item = Command> + '_ {
        let open = self.open_banks & self.rank_banks[r];
        let refresh = (open == 0).then_some(Command::Refresh { rank: r as u8 });
        let precharges = bits(open).map(|fb| Command::Precharge { bank: self.bank_addr[fb] });
        refresh.into_iter().chain(precharges)
    }

    /// Rebuilds the stale cached candidates among PIM queues `units` and
    /// bank queues `banks`.
    fn rebuild(&mut self, units: u64, banks: u64) {
        let (units, banks) = (units & self.unit_cand.stale, banks & self.bank_cand.stale);
        if units | banks == 0 {
            return;
        }
        self.unit_cand.stale &= !units;
        self.bank_cand.stale &= !banks;
        self.work.candidate_evals += u64::from(units.count_ones() + banks.count_ones());
        for u in bits(units) {
            let entry = Candidates::entry(&self.timing, self.pim_candidate(u));
            self.unit_cand.set(u, entry);
        }
        for fb in bits(banks) {
            let entry = Candidates::entry(&self.timing, self.fr_fcfs_candidate(fb));
            self.bank_cand.set(fb, entry);
        }
    }

    /// Recomputes the term table if a command issued since it was last
    /// computed.
    fn update_terms(&mut self) {
        if self.terms_dirty {
            self.terms_dirty = false;
            let rows = self.terms.chunks_exact_mut(TermClass::COUNT).take(self.cfg.ranks);
            for (r, terms) in rows.enumerate() {
                terms.copy_from_slice(&self.timing.class_terms(r as u8));
            }
        }
    }

    /// When queue `q` of `cands` can issue its cached candidate
    /// (`u64::MAX` for none), from a fresh term table.
    fn ready<P>(&self, cands: &Candidates<P>, q: usize) -> u64 {
        let q = q % MAX_BANKS;
        cands.local[q].max(self.terms[usize::from(cands.slot[q])])
    }

    /// The command the scheduler would attempt next for PIM unit `u`
    /// (None when the queue is empty or activates are refresh-gated), and
    /// whether issuing it retires the head op.
    fn pim_candidate(&self, u: usize) -> Option<(Command, bool)> {
        let req = self.pim_q[u].front()?;
        let (rank, bankgroup) = self.unit_addr[u];
        let op = req.op;
        if let Some((bank, row)) = op.row_target() {
            let addr = BankAddr { rank, bankgroup, bank };
            match self.banks[self.flat_bank(addr)].open_row() {
                None => {
                    if self.refresh_pending[rank as usize] {
                        return None;
                    }
                    Some((Command::Activate { bank: addr, row }, false))
                }
                Some(open) if open != row => Some((Command::Precharge { bank: addr }, false)),
                Some(_) => Some((Command::Pim { rank, bankgroup, op }, true)),
            }
        } else {
            Some((Command::Pim { rank, bankgroup, op }, true))
        }
    }

    /// The FR-FCFS command the scheduler would attempt next for flat bank
    /// `fb`'s transaction queue (None when the queue is empty or activates
    /// are refresh-gated), and the queue position served for column
    /// commands.
    fn fr_fcfs_candidate(&self, fb: usize) -> Option<(Command, Option<usize>)> {
        let queue = &self.bank_q[fb];
        let head = queue.front()?;
        let addr = self.bank_addr[fb];
        match self.banks[fb].open_row() {
            None => {
                if self.refresh_pending[addr.rank as usize] {
                    return None;
                }
                Some((Command::Activate { bank: addr, row: head.row }, None))
            }
            Some(open) => {
                // FR-FCFS: serve a row hit from the window unless the
                // streak cap forces head progress.
                let hit = if self.hit_streak[fb] < MAX_STREAK {
                    queue.iter().take(HIT_WINDOW).position(|r| r.row == open)
                } else {
                    // only the head counts once the cap is hit
                    (head.row == open).then_some(0)
                };
                match hit {
                    Some(pos) => {
                        let req = &queue[pos];
                        let cmd = if req.write {
                            Command::Write { bank: addr, row: open, col: req.col }
                        } else {
                            Command::Read { bank: addr, row: open, col: req.col }
                        };
                        Some((cmd, Some(pos)))
                    }
                    None => Some((Command::Precharge { bank: addr }, None)),
                }
            }
        }
    }

    /// Debug builds only: checks the term table, while it is fresh, against
    /// a fresh computation, and `cached` (the cached
    /// [`Controller::earliest_issue`]) against the full uncached scan it
    /// replaced, which checks every fresh cache entry on the way. Counts no
    /// work.
    #[cfg(debug_assertions)]
    fn check_candidates(&self, cached: u64) {
        self.check_terms();
        debug_assert_eq!(
            cached,
            self.earliest_issue_uncached(true),
            "cached earliest issue diverges from the full scan"
        );
    }

    /// Debug builds only: checks the term table, while it is fresh, against
    /// a fresh computation.
    #[cfg(debug_assertions)]
    fn check_terms(&self) {
        if !self.terms_dirty {
            let rows = self.terms.chunks_exact(TermClass::COUNT).take(self.cfg.ranks);
            for (r, terms) in rows.enumerate() {
                let fresh = self.timing.class_terms(r as u8);
                debug_assert_eq!(terms, fresh, "stale term table for rank {r}");
            }
        }
    }

    /// Debug builds only: checks queue `q`'s entry in `cands` against
    /// `fresh`, the candidate rebuilt from scratch.
    #[cfg(debug_assertions)]
    fn check_entry<P: Copy + PartialEq + std::fmt::Debug>(
        &self,
        cands: &Candidates<P>,
        q: usize,
        fresh: Option<(Command, P)>,
    ) {
        let rebuilt = Candidates::entry(&self.timing, fresh);
        debug_assert_eq!(cands.get(q), rebuilt, "stale cached candidate for queue {q}");
    }

    /// Debug builds only: [`Controller::earliest_issue`] the uncached way,
    /// rebuilding the candidate of every queue of every issuable rank. With
    /// `check`, each fresh cache entry (of any rank) is checked on the way:
    /// against its rebuild, and, while the term table is fresh, its cached
    /// `max(local, term)` against [`TimingState::earliest`].
    #[cfg(debug_assertions)]
    fn earliest_issue_uncached(&self, check: bool) -> u64 {
        let mut e = u64::MAX;
        for r in 0..self.cfg.ranks {
            if !self.refresh_pending[r] || !self.rank_issuable(r) {
                continue;
            }
            for cmd in self.refresh_candidates(r) {
                e = e.min(self.timing.earliest(&cmd));
            }
        }
        let fresh_busy = |busy: u64, stale: u64| if check { busy & !stale } else { 0 };
        let units = fresh_busy(self.busy_units, self.unit_cand.stale);
        let banks = fresh_busy(self.busy_banks, self.bank_cand.stale);
        let unit_rank = |u: usize| self.unit_addr[u].0;
        let bank_rank = |fb: usize| self.bank_addr[fb].rank;
        let (nunits, nbanks) = (self.pim_q.len(), self.bank_q.len());
        let unit_min =
            self.uncached_min(&self.unit_cand, nunits, units, unit_rank, |u| self.pim_candidate(u));
        let bank_min = self.uncached_min(&self.bank_cand, nbanks, banks, bank_rank, |fb| {
            self.fr_fcfs_candidate(fb)
        });
        e.min(unit_min).min(bank_min)
    }

    /// Debug builds only: the earliest cycle any of the first `n` queues
    /// of `cands` in an issuable rank could issue (queue `q` belongs to
    /// rank `rank(q)` and would attempt `candidate(q)`), rebuilt from
    /// scratch; checks the entries of `checked` on the way (see
    /// [`Controller::earliest_issue_uncached`]).
    #[cfg(debug_assertions)]
    fn uncached_min<P: Copy + PartialEq + std::fmt::Debug>(
        &self,
        cands: &Candidates<P>,
        n: usize,
        checked: u64,
        rank: impl Fn(usize) -> u8,
        candidate: impl Fn(usize) -> Option<(Command, P)>,
    ) -> u64 {
        let mut e = u64::MAX;
        for q in 0..n {
            let (rank, cached) = (rank(q), checked & (1 << q) != 0);
            let issuable = self.rank_issuable(rank as usize);
            if !issuable && !cached {
                continue;
            }
            let fresh = candidate(q);
            let earliest = fresh.map_or(u64::MAX, |(cmd, _)| self.timing.earliest(&cmd));
            if cached {
                self.check_entry(cands, q, fresh);
                if !self.terms_dirty {
                    let ready = self.ready(cands, q);
                    debug_assert_eq!(ready, earliest, "queue {q}: cached earliest diverges");
                }
            }
            if issuable {
                e = e.min(earliest);
            }
        }
        e
    }

    /// Runs to exactly `cycle` (no overshoot), fast-forwarding over dead
    /// spans and ticking at events — observably identical to calling
    /// [`Controller::tick`] once per cycle until `cycle` is reached.
    pub fn run_until(&mut self, cycle: u64) {
        while self.clock < cycle {
            let next = self.next_event_cycle();
            self.advance_to(next.min(cycle));
            if self.clock < cycle {
                self.tick();
            }
        }
    }

    /// Fast-forwards to `cycle` without attempting command issue, accounting
    /// the skipped cycles in bulk (background and power-down residency,
    /// idle counters). No-op when `cycle` is not in the future.
    ///
    /// Correct only up to [`Controller::next_event_cycle`]: past it a
    /// command could have issued or a state transition fired, which bulk
    /// accounting would miss (debug-asserted).
    pub fn advance_to(&mut self, cycle: u64) {
        let Some(n) = cycle.checked_sub(self.clock) else { return };
        if n == 0 {
            return;
        }
        #[cfg(debug_assertions)]
        {
            // The bound `next_event_cycle` checked, if nothing moved since;
            // otherwise the full scan.
            let next = self.checked_next.take().unwrap_or_else(|| {
                self.state_event_cycle().min(self.earliest_issue_uncached(false)).max(self.clock)
            });
            assert!(cycle <= next, "advance_to({cycle}) past the next event at {next}");
        }
        self.work.skipped_cycles += n;
        // Idle counters evolve exactly as `n` ticks would evolve them: reset
        // every cycle while the rank has work, otherwise count up (the
        // Active→Down transition itself is an event, so it cannot occur
        // inside the skipped span).
        for r in 0..self.cfg.ranks {
            if self.pd[r] == PdState::Active {
                if self.rank_has_work(r) {
                    self.idle[r] = 0;
                } else {
                    self.idle[r] = self.idle[r].saturating_add(n);
                }
            }
        }
        self.account_cycles(n);
        self.clock = cycle;
        self.stats.cycles = cycle;
    }

    fn try_issue(&mut self, filter: Option<u8>) {
        if self.try_refresh(filter) {
            return;
        }
        if self.clock.is_multiple_of(2) {
            if self.try_pim(filter) {
                return;
            }
            let _ = self.try_banks(filter);
        } else {
            if self.try_banks(filter) {
                return;
            }
            let _ = self.try_pim(filter);
        }
    }

    fn try_refresh(&mut self, filter: Option<u8>) -> bool {
        let ranks = filter.map_or(0..self.cfg.ranks, |r| r as usize..r as usize + 1);
        for r in ranks {
            if !self.refresh_pending[r] || !self.rank_issuable(r) {
                continue;
            }
            // Issue the first candidate whose timing is satisfied (the REF
            // itself, or a precharge closing the way for it).
            let mut evals = 0;
            let ready = self.refresh_candidates(r).find(|cmd| {
                evals += 1;
                self.timing.earliest(cmd) <= self.clock
            });
            self.work.candidate_evals += evals;
            if let Some(cmd) = ready {
                let is_refresh = matches!(cmd, Command::Refresh { .. });
                self.issue(cmd);
                if is_refresh {
                    self.refresh_pending[r] = false;
                    self.refresh_due[r] += self.cfg.trefi;
                }
                return true;
            }
        }
        false
    }

    fn try_pim(&mut self, filter: Option<u8>) -> bool {
        let queues =
            Self::filtered(self.busy_units & self.issuable_units, &self.rank_units, filter);
        if queues == 0 {
            return false;
        }
        self.rebuild(queues, 0);
        self.update_terms();
        #[cfg(debug_assertions)]
        self.check_terms();
        // Round-robin: the first queue whose candidate can issue now.
        let mut visited = 0;
        let ready = bits_from(queues, self.rr_unit).find(|&u| {
            visited += 1;
            #[cfg(debug_assertions)]
            self.check_entry(&self.unit_cand, u, self.pim_candidate(u));
            self.ready(&self.unit_cand, u) <= self.clock
        });
        self.work.slots_examined += visited;
        let Some(u) = ready else { return false };
        let (cmd, retires) = self.unit_cand.cmd[u].expect("a ready candidate");
        if retires {
            let req = self.pim_q[u].pop_front().expect("non-empty");
            self.pim_retired |= 1 << u;
            if self.pim_q[u].is_empty() {
                self.busy_units &= !(1 << u);
            }
            let op = req.op;
            self.issue(cmd);
            self.retire_pim(req, op);
        } else {
            self.issue(cmd);
        }
        self.rr_unit = if u + 1 == self.pim_q.len() { 0 } else { u + 1 };
        true
    }

    fn retire_pim(&mut self, req: PimReq, op: PimOp) {
        let done =
            self.clock + if op.kind().is_pim_alu() { self.cfg.tpim } else { self.cfg.tccd_l };
        self.finish(req.id, done, None);
    }

    fn try_banks(&mut self, filter: Option<u8>) -> bool {
        let queues =
            Self::filtered(self.busy_banks & self.issuable_banks, &self.rank_banks, filter);
        if queues == 0 {
            return false;
        }
        self.rebuild(0, queues);
        self.update_terms();
        #[cfg(debug_assertions)]
        self.check_terms();
        // Round-robin: the first queue whose candidate can issue now.
        let mut visited = 0;
        let ready = bits_from(queues, self.rr_bank).find(|&fb| {
            visited += 1;
            #[cfg(debug_assertions)]
            self.check_entry(&self.bank_cand, fb, self.fr_fcfs_candidate(fb));
            self.ready(&self.bank_cand, fb) <= self.clock
        });
        self.work.slots_examined += visited;
        let Some(fb) = ready else { return false };
        let (cmd, pos) = self.bank_cand.cmd[fb].expect("a ready candidate");
        match pos {
            Some(pos) => {
                let req = self.bank_q[fb].remove(pos).expect("in range");
                let emptied = self.bank_q[fb].is_empty();
                if emptied {
                    self.busy_banks &= !(1 << fb);
                }
                self.issue_col(cmd, req);
                self.hit_streak[fb] = if pos == 0 && emptied { 0 } else { self.hit_streak[fb] + 1 };
            }
            None => {
                self.issue(cmd);
                self.hit_streak[fb] = 0;
            }
        }
        self.rr_bank = if fb + 1 == self.banks.len() { 0 } else { fb + 1 };
        true
    }

    fn issue_col(&mut self, cmd: Command, req: ColReq) {
        self.issue(cmd);
        let fb = self.flat_bank(cmd.bank().expect("column command"));
        if req.write {
            if let (Some(storage), Some(data)) = (self.storage.as_mut(), req.data.as_ref()) {
                storage.write_col(fb, req.row, req.col, data);
            }
            let done = self.clock + self.cfg.tcwl + self.cfg.tburst;
            self.finish(req.id, done, None);
        } else {
            let data = self.storage.as_ref().map(|s| s.read_col(fb, req.row, req.col));
            let done = self.clock + self.cfg.tcl + self.cfg.tburst;
            self.finish(req.id, done, data);
        }
    }

    fn finish(&mut self, id: u64, done: u64, data: Option<Vec<u8>>) {
        self.pending -= 1;
        self.last_done = self.last_done.max(done);
        self.stats.completed += 1;
        self.completions.push(Completion { id, at_cycle: done, data });
    }

    /// Issues `cmd` now: timing bookkeeping, bank state, stats, energy, and
    /// functional PIM effects.
    fn issue(&mut self, cmd: Command) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry { cycle: self.clock, cmd });
        }
        self.timing.issue(&cmd, self.clock);
        let kind = cmd.kind();
        self.terms_dirty |= TimingState::moves_terms(kind);
        self.work.commands += 1;
        // By the command's kind: REF (which also ends the rank's pending
        // refresh) and PRE-all address the whole rank, every other command
        // one bank group.
        match cmd.bank() {
            Some(bank) => self.invalidate_group(bank),
            None => self.invalidate_rank(cmd.rank() as usize),
        }
        self.stats.record(kind);
        match kind {
            CommandKind::Activate => {
                if let Command::Activate { bank, row } = cmd {
                    let fb = self.flat_bank(bank);
                    self.banks[fb].activate(row);
                    self.open_banks |= 1 << fb;
                }
                self.stats.energy.act_pj += self.power.act_pre_pj;
            }
            CommandKind::Precharge => {
                if let Command::Precharge { bank } = cmd {
                    let fb = self.flat_bank(bank);
                    self.banks[fb].precharge();
                    self.open_banks &= !(1 << fb);
                }
            }
            CommandKind::PrechargeAll => {
                let rank = cmd.rank() as usize;
                let base = rank * self.cfg.banks_per_rank();
                for b in 0..self.cfg.banks_per_rank() {
                    self.banks[base + b].precharge();
                }
                self.open_banks &= !self.rank_banks[rank];
            }
            CommandKind::Read => {
                self.stats.energy.rd_pj += self.power.rd_pj;
                self.stats.energy.io_pj += self.power.io_pj;
                self.stats.external_read_bytes += self.cfg.burst_bytes as u64;
                self.stats.data_bus_busy += self.cfg.tburst;
            }
            CommandKind::Write => {
                self.stats.energy.wr_pj += self.power.wr_pj;
                self.stats.energy.io_pj += self.power.io_pj;
                self.stats.external_write_bytes += self.cfg.burst_bytes as u64;
                self.stats.data_bus_busy += self.cfg.tburst;
            }
            CommandKind::Refresh => {
                self.stats.energy.refresh_pj += self.power.refresh_pj;
            }
            CommandKind::ScaledRead | CommandKind::QRegLoad => {
                self.stats.energy.pim_pj += self.power.pim_xfer_pj;
                if kind == CommandKind::ScaledRead {
                    self.stats.energy.pim_pj += self.power.scaler_pj;
                }
                self.stats.internal_read_bytes += self.cfg.burst_bytes as u64;
                self.exec_pim(cmd);
            }
            CommandKind::Writeback | CommandKind::QRegStore => {
                self.stats.energy.pim_pj += self.power.pim_xfer_pj;
                self.stats.internal_write_bytes += self.cfg.burst_bytes as u64;
                self.exec_pim(cmd);
            }
            CommandKind::PimAdd
            | CommandKind::PimSub
            | CommandKind::Quant
            | CommandKind::Dequant
            | CommandKind::PimMul
            | CommandKind::PimRsqrt => {
                self.stats.energy.pim_pj += self.power.pim_alu_pj;
                self.exec_pim(cmd);
            }
        }
    }

    /// Executes the functional semantics of a PIM command, when storage is
    /// enabled.
    fn exec_pim(&mut self, cmd: Command) {
        let Command::Pim { rank, bankgroup, op } = cmd else { return };
        if self.storage.is_none() {
            return;
        }
        let mode = self.mode;
        let fb = self.flat_bank(BankAddr { rank, bankgroup, bank: op.bank() });
        let u = self.flat_unit(rank, bankgroup, op.bank());
        let (unit, storage) = (&mut self.units[u], self.storage.as_mut().expect("checked"));
        match op {
            PimOp::ScaledRead { row, col, scaler, dst, .. } => {
                unit.scaled_read(storage, &mode, fb, row, col, scaler, dst);
            }
            PimOp::Writeback { row, col, src, .. } => unit.writeback(storage, fb, row, col, src),
            PimOp::QRegLoad { row, col, .. } => unit.qreg_load(storage, fb, row, col),
            PimOp::QRegStore { row, col, .. } => unit.qreg_store(storage, fb, row, col),
            PimOp::Add { dst, .. } => unit.add(&mode, dst),
            PimOp::Sub { dst, .. } => unit.sub(&mode, dst),
            PimOp::Quant { pos, src, .. } => unit.quant_op(&mode, pos, src),
            PimOp::Dequant { pos, dst, .. } => unit.dequant_op(&mode, pos, dst),
            PimOp::Mul { dst, .. } => unit.mul(&mode, dst),
            PimOp::Rsqrt { dst, .. } => unit.rsqrt(&mode, dst),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(rank: usize, bg: usize, bank: usize, row: usize, col: usize) -> Address {
        Address { channel: 0, rank, bankgroup: bg, bank, row, column: col }
    }

    fn drain(c: &mut Controller, limit: u64) -> u64 {
        let start = c.cycles();
        while !c.is_drained() {
            c.tick();
            assert!(c.cycles() - start < limit, "controller did not drain in {limit} cycles");
        }
        c.cycles() - start
    }

    #[test]
    fn single_read_latency() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        c.enqueue_read(1, addr(0, 0, 0, 5, 3)).unwrap();
        drain(&mut c, 1000);
        let comps = c.take_completions();
        assert_eq!(comps.len(), 1);
        // ACT at ~0, RD at tRCD, data at +tCL+tBURST.
        assert_eq!(comps[0].at_cycle, cfg.trcd + cfg.tcl + cfg.tburst);
        assert_eq!(c.stats().count(CommandKind::Activate), 1);
        assert_eq!(c.stats().count(CommandKind::Read), 1);
    }

    #[test]
    fn row_hits_avoid_reactivation() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        for col in 0..8 {
            c.enqueue_read(col as u64, addr(0, 0, 0, 7, col)).unwrap();
        }
        drain(&mut c, 5000);
        assert_eq!(c.stats().count(CommandKind::Activate), 1);
        assert_eq!(c.stats().count(CommandKind::Read), 8);
    }

    #[test]
    fn row_conflict_precharges() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        c.enqueue_read(1, addr(0, 0, 0, 1, 0)).unwrap();
        c.enqueue_read(2, addr(0, 0, 0, 2, 0)).unwrap();
        drain(&mut c, 5000);
        assert_eq!(c.stats().count(CommandKind::Activate), 2);
        assert_eq!(c.stats().count(CommandKind::Precharge), 1);
    }

    #[test]
    fn streaming_reads_hit_peak_bandwidth() {
        // Reads striped across bank groups should sustain ~one burst per
        // tCCD_S — the external bus ceiling.
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        let n = 256;
        for i in 0..n {
            c.enqueue_read(i as u64, addr(0, i % 4, 0, 0, i / 4)).unwrap();
        }
        drain(&mut c, 100_000);
        let cycles = c.cycles();
        let ideal = n as u64 * cfg.tccd_s;
        assert!(cycles < ideal + ideal / 4 + 100, "streaming took {cycles} vs ideal {ideal}");
    }

    #[test]
    fn functional_write_then_read() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, true);
        let data: Vec<u8> = (0..64).collect();
        c.enqueue_write(1, addr(0, 1, 2, 3, 4), Some(data.clone())).unwrap();
        c.enqueue_read(2, addr(0, 1, 2, 3, 4)).unwrap();
        drain(&mut c, 5000);
        let comps = c.take_completions();
        let read = comps.iter().find(|c| c.id == 2).expect("read completion");
        assert_eq!(read.data.as_deref(), Some(&data[..]));
    }

    #[test]
    fn refresh_happens_on_schedule() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        // Idle for two tREFI windows: every rank refreshes twice.
        for _ in 0..2 * cfg.trefi + cfg.trfc * 4 {
            c.tick();
        }
        let refs = c.stats().count(CommandKind::Refresh);
        assert_eq!(refs as usize, 2 * cfg.ranks, "refresh count {refs}");
    }

    #[test]
    fn refresh_closes_open_rows_first() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        c.enqueue_read(1, addr(0, 0, 0, 5, 0)).unwrap();
        drain(&mut c, 1000);
        // Row 5 is open; run past tREFI and ensure a refresh still occurred.
        for _ in 0..cfg.trefi + 10 * cfg.trfc {
            c.tick();
        }
        assert!(c.stats().count(CommandKind::Refresh) >= 1);
        assert!(c.stats().count(CommandKind::Precharge) >= 1);
    }

    #[test]
    fn pim_kernel_executes_in_order_with_single_activation_set() {
        // A miniature momentum-style kernel over 4 columns, three arrays in
        // three banks of one bank group: rows are activated once (plus the
        // cold ACT), never per column — the §IV-D "no unnecessary row
        // activations" property.
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        let mut id = 0;
        for col in 0..4u32 {
            for (bank, scaler) in [(0u8, 0u8), (1, 1)] {
                id += 1;
                c.enqueue_pim(
                    id,
                    0,
                    0,
                    PimOp::ScaledRead { bank, row: 0, col, scaler, dst: (bank & 1) },
                )
                .unwrap();
            }
            id += 1;
            c.enqueue_pim(id, 0, 0, PimOp::Add { bank: 0, dst: 1 }).unwrap();
            id += 1;
            c.enqueue_pim(id, 0, 0, PimOp::Writeback { bank: 2, row: 0, col, src: 1 }).unwrap();
        }
        drain(&mut c, 50_000);
        assert_eq!(c.stats().count(CommandKind::Activate), 3, "one ACT per bank only");
        assert_eq!(c.stats().count(CommandKind::ScaledRead), 8);
        assert_eq!(c.stats().count(CommandKind::PimAdd), 4);
        assert_eq!(c.stats().count(CommandKind::Writeback), 4);
        // No external data moved at all.
        assert_eq!(c.stats().external_bytes(), 0);
        assert_eq!(c.stats().internal_bytes(), 12 * 64);
    }

    #[test]
    fn pim_streams_in_different_bankgroups_overlap() {
        // Two units working in parallel should take much less than 2× one
        // unit's time (bank-group-level parallelism, §IV-A).
        let cfg = DramConfig::ddr4_2133();
        let run = |groups: &[u8]| {
            let mut c = Controller::new(&cfg, false);
            let mut id = 0;
            for &bg in groups {
                for col in 0..64u32 {
                    id += 1;
                    c.enqueue_pim(
                        id,
                        0,
                        bg,
                        PimOp::ScaledRead { bank: 0, row: 0, col, scaler: 0, dst: 0 },
                    )
                    .unwrap();
                    id += 1;
                    c.enqueue_pim(id, 0, bg, PimOp::Writeback { bank: 1, row: 0, col, src: 0 })
                        .unwrap();
                }
            }
            let mut cc = c;
            drain(&mut cc, 500_000)
        };
        let one = run(&[0]);
        let two = run(&[0, 1]);
        assert!((two as f64) < one as f64 * 1.35, "two groups took {two} vs one group {one}");
    }

    #[test]
    fn idle_ranks_enter_powerdown_and_save_energy() {
        let cfg = DramConfig::ddr4_2133();
        let mut pd = Controller::new(&cfg, false);
        let mut no_pd_cfg = cfg.clone();
        no_pd_cfg.powerdown_idle = u64::MAX;
        let mut no_pd = Controller::new(&no_pd_cfg, false);
        // Idle both for one refresh-free window.
        for _ in 0..4000 {
            pd.tick();
            no_pd.tick();
        }
        assert!(pd.stats().powerdown_cycles > 3000 * cfg.ranks as u64 / 2);
        assert_eq!(no_pd.stats().powerdown_cycles, 0);
        assert!(
            pd.stats().energy.background_pj < no_pd.stats().energy.background_pj * 0.85,
            "pd {} vs no-pd {}",
            pd.stats().energy.background_pj,
            no_pd.stats().energy.background_pj
        );
    }

    #[test]
    fn powerdown_exit_costs_txp() {
        let cfg = DramConfig::ddr4_2133();
        // Fresh controller: read completes at tRCD + tCL + tBURST.
        let mut fresh = Controller::new(&cfg, false);
        fresh.enqueue_read(1, addr(0, 0, 0, 5, 3)).unwrap();
        drain(&mut fresh, 1000);
        let fresh_latency = fresh.take_completions()[0].at_cycle;

        // Powered-down controller: same read pays the tXP wake.
        let mut slept = Controller::new(&cfg, false);
        let idle = cfg.powerdown_idle + 10;
        for _ in 0..idle {
            slept.tick();
        }
        assert!(slept.stats().powerdown_cycles > 0, "rank should be asleep");
        let start = slept.cycles();
        slept.enqueue_read(1, addr(0, 0, 0, 5, 3)).unwrap();
        drain(&mut slept, 1000);
        let slept_latency = slept.take_completions()[0].at_cycle - start;
        assert!(
            slept_latency >= fresh_latency + cfg.txp,
            "slept {slept_latency} vs fresh {fresh_latency} + tXP {}",
            cfg.txp
        );
    }

    #[test]
    fn refresh_wakes_powered_down_ranks() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        // Idle across a full refresh interval: ranks power down at ~64
        // cycles, then must wake to refresh on schedule.
        for _ in 0..cfg.trefi + 20 * cfg.trfc {
            c.tick();
        }
        assert!(c.stats().count(CommandKind::Refresh) >= cfg.ranks as u64);
        assert!(c.stats().powerdown_cycles > 0);
    }

    /// Ticks `c` up to `target` the per-cycle way.
    fn tick_to(c: &mut Controller, target: u64) {
        while c.cycles() < target {
            c.tick();
        }
    }

    /// Ticks `c` up to `target` the event-driven way.
    fn fast_forward_to(c: &mut Controller, target: u64) {
        c.run_until(target);
    }

    /// Max distance between consecutive REF commands to the same rank (and
    /// the cold-start distance from cycle 0), from a trace.
    fn max_ref_distance(cfg: &DramConfig, trace: &[TraceEntry]) -> u64 {
        let mut last = vec![0u64; cfg.ranks];
        let mut worst = 0;
        for e in trace {
            if let Command::Refresh { rank } = e.cmd {
                worst = worst.max(e.cycle - last[rank as usize]);
                last[rank as usize] = e.cycle;
            }
        }
        for (r, l) in last.iter().enumerate() {
            assert!(*l > 0, "rank {r} never refreshed");
        }
        worst
    }

    #[test]
    fn refresh_never_starved_by_powerdown() {
        // Regression: a rank parked in precharge power-down with no queued
        // work must still be woken when refresh comes due — REF-to-REF
        // distance stays within the JEDEC 9×tREFI postponement bound.
        let mut cfg = DramConfig::ddr4_2133();
        cfg.powerdown_idle = 16; // aggressive power-down
        for fast in [false, true] {
            let mut c = Controller::new(&cfg, false);
            c.enable_trace();
            let horizon = 12 * cfg.trefi;
            if fast {
                fast_forward_to(&mut c, horizon);
            } else {
                tick_to(&mut c, horizon);
            }
            assert!(c.stats().powerdown_cycles > 0, "ranks never powered down");
            let worst = max_ref_distance(&cfg, &c.take_trace());
            assert!(
                worst <= 9 * cfg.trefi,
                "fast={fast}: REF-to-REF distance {worst} exceeds 9*tREFI {}",
                9 * cfg.trefi
            );
        }
    }

    #[test]
    fn fast_forward_idle_window_matches_per_cycle() {
        // An idle window spanning refreshes and power-down transitions:
        // event-driven stepping must reproduce the per-cycle stats exactly.
        let cfg = DramConfig::ddr4_2133();
        let horizon = 3 * cfg.trefi + 97;
        let mut a = Controller::new(&cfg, false);
        let mut b = Controller::new(&cfg, false);
        a.enable_trace();
        b.enable_trace();
        tick_to(&mut a, horizon);
        fast_forward_to(&mut b, horizon);
        assert_eq!(a.take_trace(), b.take_trace());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn fast_forward_traffic_matches_per_cycle() {
        let cfg = DramConfig::ddr4_2133();
        let mut a = Controller::new(&cfg, false);
        let mut b = Controller::new(&cfg, false);
        a.enable_trace();
        b.enable_trace();
        for c in [&mut a, &mut b] {
            for i in 0..24u64 {
                c.enqueue_read(i, addr(0, (i % 4) as usize, 0, 1 + (i % 2) as usize, i as usize))
                    .unwrap();
            }
            for col in 0..8u32 {
                c.enqueue_pim(
                    100 + col as u64,
                    1,
                    0,
                    PimOp::ScaledRead { bank: 0, row: 0, col, scaler: 0, dst: 0 },
                )
                .unwrap();
            }
        }
        drain(&mut a, 100_000);
        while !b.is_drained() {
            let e = b.next_event_cycle();
            b.advance_to(e);
            if !b.is_drained() {
                b.tick();
            }
        }
        assert_eq!(a.cycles(), b.cycles(), "drain cycle counts diverge");
        assert_eq!(a.take_trace(), b.take_trace());
        assert_eq!(a.take_completions(), b.take_completions());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn next_event_cycle_never_skips_an_issue() {
        // At every quiet cycle, the next event must be exactly the next
        // cycle at which the per-cycle reference issues a command.
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        c.enqueue_read(1, addr(0, 0, 0, 5, 3)).unwrap();
        c.enqueue_read(2, addr(0, 0, 0, 9, 3)).unwrap();
        c.enable_trace();
        drain(&mut c, 10_000);
        let trace = c.take_trace();
        let mut replay = Controller::new(&cfg, false);
        replay.enqueue_read(1, addr(0, 0, 0, 5, 3)).unwrap();
        replay.enqueue_read(2, addr(0, 0, 0, 9, 3)).unwrap();
        for entry in &trace {
            // The event estimate from any cycle at or before the next issue
            // must never jump past that issue.
            assert!(
                replay.next_event_cycle() <= entry.cycle,
                "event {} skips issue at {}",
                replay.next_event_cycle(),
                entry.cycle
            );
            while replay.cycles() <= entry.cycle {
                replay.tick();
            }
        }
    }

    #[test]
    fn work_counters_account_every_cycle_and_command() {
        let cfg = DramConfig::ddr4_2133();
        let mut fast = Controller::new(&cfg, false);
        let mut slow = Controller::new(&cfg, false);
        for c in [&mut fast, &mut slow] {
            for i in 0..(cfg.queue_depth as u64 + 3) {
                let _ = c.enqueue_read(i, addr(0, 0, 0, (i % 3) as usize, i as usize));
            }
        }
        fast.run_until(3 * cfg.trefi);
        tick_to(&mut slow, 3 * cfg.trefi);
        assert_eq!(fast.stats(), slow.stats());
        for c in [&fast, &slow] {
            let w = c.work();
            assert_eq!(w.events + w.skipped_cycles, c.cycles());
            assert_eq!(w.commands, c.stats().cmd_slots);
            assert_eq!(w.queue_full, 3, "the three reads past the queue depth");
        }
        assert_eq!(slow.work().skipped_cycles, 0);
        assert!(fast.work().events < slow.work().events / 10, "{:?}", fast.work());
        // Only one queue ever held work: the walks visit nothing else.
        let w = fast.work();
        assert!(w.slots_examined < 4 * w.events, "{w:?}");
    }

    #[test]
    fn idle_walks_examine_no_queue() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        c.run_until(4 * cfg.trefi);
        assert!(c.stats().count(CommandKind::Refresh) >= 3 * cfg.ranks as u64);
        assert_eq!(c.work().slots_examined, 0, "{:?}", c.work());
        // Only the refresh path was timed: at most a few checks per REF.
        assert!(c.work().candidate_evals <= 4 * c.work().commands, "{:?}", c.work());
    }

    #[test]
    fn queue_full_backpressure() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        let mut accepted = 0;
        loop {
            match c.enqueue_read(accepted, addr(0, 0, 0, 0, 0)) {
                Ok(()) => accepted += 1,
                Err(EnqueueError::QueueFull) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(accepted as usize, cfg.queue_depth);
    }

    #[test]
    fn pim_room_counts_what_an_enqueue_accepts() {
        let cfg = DramConfig::ddr4_2133();
        let mut c = Controller::new(&cfg, false);
        let op = PimOp::Add { bank: 0, dst: 0 };
        let room = c.pim_room(1, 2);
        assert_eq!(room, 4 * cfg.queue_depth);
        for id in 0..room as u64 {
            c.enqueue_pim(id, 1, 2, op).unwrap();
            assert_eq!(c.pim_room(1, 2), room - 1 - id as usize);
        }
        assert_eq!(c.enqueue_pim(0, 1, 2, op), Err(EnqueueError::QueueFull));
        assert_eq!(c.work().queue_full, 1);
        // Other units keep their room; an issued op frees one slot.
        assert_eq!(c.pim_room(1, 3), room);
        while c.pim_room(1, 2) == 0 {
            c.tick();
        }
        assert_eq!(c.pim_room(1, 2), 1);
    }
}
