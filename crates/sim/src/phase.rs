//! Phase executors: run one training phase's memory traffic through the
//! cycle-level DRAM simulator and report time/energy/bandwidth.
//!
//! ## Calls as values
//!
//! A [`PhaseCall`] is one executor call as a value: the executor plus
//! exactly the arguments it reads, with one [`PhaseCall::execute`] and one
//! canonical [`PhaseCall::key`]. Executors are pure, so calls with equal
//! keys produce bit-identical results. A training step plans its calls
//! ([`crate::TrainingSim::plan`]) and assembles its report from their
//! results ([`crate::TrainingSim::assemble`]); `gradpim-engine`'s sweep
//! runner plans a whole experiment that way and answers each distinct
//! call once. The five executor functions ([`stream_phase`],
//! [`baseline_update_phase`], [`pim_update_phase`],
//! [`pim_quant_dequant_phase`], [`aos_per_bank_update_phase`]) each build
//! one call and execute it.
//!
//! A call splits into the traffic it simulates and the scale it applies:
//! [`PhaseCall::simulation`] is the call cut to its cap, as a
//! [`Simulation`] keyed by that cut call's [`PhaseCall::key`], and
//! [`PhaseCall::result`] scales that simulation's [`Stats`] into the
//! call's [`PhaseResult`]. Calls above the traffic cap cut to the same
//! call and differ only in their scale, so many distinct calls share one
//! simulation; `execute` is exactly `result(&simulation().run()?)`, and
//! the sweep runner runs each distinct simulation once.
//!
//! ## Event-driven stepping
//!
//! The executors drive the simulator with
//! [`MemorySystem::tick_until_event`] and the event-driven
//! [`MemorySystem::drain`]: instead of spinning one tCK at a time while a
//! queue is full or in-flight work retires, they jump straight to the next
//! cycle at which anything can happen. The results (stats, completions,
//! traces) are identical to per-cycle stepping; the property tests hold
//! the event-driven core to [`MemorySystem::drain_reference`].
//!
//! ## Traffic scaling
//!
//! Training phases move hundreds of megabytes; simulating every burst for
//! every (network × design × phase) point would take hours at one tick per
//! cycle. Because phase traffic is *streaming* (regular address walks,
//! constant mix of operations), time and energy are linear in traffic
//! volume after a short warm-up — so each executor simulates up to a cap
//! ([`crate::SystemConfig::max_sim_bursts`] / `max_sim_params`) and scales
//! the results linearly. The event-driven core made full-fidelity runs far
//! cheaper, so the default caps are generous; `GRADPIM_FULL=1` removes
//! them entirely.

use std::fmt::Write as _;
use std::sync::Arc;

use gradpim_core::{
    compile_step, run_unit_streams, ArrayName, GradPimError, KernelParts, Placement, UnitStream,
};
use gradpim_dram::{
    AddressMapping, CommandIssueMode, DataBusScope, DramConfig, EnergyBreakdown, MemError,
    MemorySystem, PimOp, PimPlacement, Stats,
};
use gradpim_optim::{HyperParams, OptimizerKind, Precision, PrecisionMix};

/// A phase executor failed: the simulator reported a condition that cannot
/// arise from well-formed phase traffic (e.g. a scheduler livelock hitting
/// the drain budget), or the phase's arrays or kernels do not fit the
/// device and optimizer. Carries diagnostics instead of hanging or
/// crashing a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseError {
    /// Which executor / stage failed.
    pub context: &'static str,
    /// The underlying error: memory system, placement or kernel
    /// compilation.
    pub source: GradPimError,
    /// Simulated cycle at which the error surfaced (0 before simulation).
    pub cycles: u64,
    /// Transactions still outstanding.
    pub pending: usize,
}

impl PhaseError {
    fn new(context: &'static str, source: MemError, mem: &MemorySystem) -> Self {
        let source = GradPimError::Memory(source);
        Self { context, source, cycles: mem.cycles(), pending: mem.pending() }
    }

    /// A failure while setting the phase up, before any cycle ran.
    fn setup(context: &'static str, source: impl Into<GradPimError>) -> Self {
        Self { context, source: source.into(), cycles: 0, pending: 0 }
    }
}

impl std::fmt::Display for PhaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase `{}` failed at cycle {} with {} transactions pending: {}",
            self.context, self.cycles, self.pending, self.source
        )
    }
}

impl std::error::Error for PhaseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// An ambient phase-result memo a caller can install around a
/// computation with [`with_phase_memo`]: every [`PhaseCall::execute`]
/// reached inside consults it under the call's [`PhaseCall::key`] before
/// simulating. [`PhaseResult::to_bits_string`] round-trips every `f64`
/// bit-exactly for stores that keep text. No library runner installs one:
/// `gradpim-engine` dedupes planned calls itself.
pub trait PhaseMemo: Send + Sync {
    /// Returns the stored result for `key`, if any.
    fn get(&self, key: &str) -> Option<PhaseResult>;
    /// Stores `result` under `key`.
    fn put(&self, key: &str, result: &PhaseResult);
}

thread_local! {
    /// The ambient phase memo for this thread, if a caller installed one.
    /// Thread-local (not global) so concurrent computations never see
    /// each other's stores.
    static PHASE_MEMO: std::cell::RefCell<Option<Arc<dyn PhaseMemo>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with `memo` installed as this thread's ambient phase memo;
/// the previous memo is restored afterwards, even on unwind, so scopes
/// nest cleanly. Every phase call executed on this thread inside `f`
/// consults the memo before simulating.
pub fn with_phase_memo<T>(memo: Arc<dyn PhaseMemo>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<Arc<dyn PhaseMemo>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            PHASE_MEMO.with(|cell| *cell.borrow_mut() = self.0.take());
        }
    }
    let prev = PHASE_MEMO.with(|cell| cell.borrow_mut().replace(memo));
    let _restore = Restore(prev);
    f()
}

/// This thread's ambient phase memo, if any.
fn current_phase_memo() -> Option<Arc<dyn PhaseMemo>> {
    PHASE_MEMO.with(|cell| cell.borrow().clone())
}

/// Consults the ambient memo before running `compute`. The key is only
/// rendered when a memo is installed, so runs without one pay nothing. A
/// stored result is returned as-is — executors are pure, so it is
/// bit-identical to recomputing.
fn memoized(
    key_of: impl FnOnce() -> String,
    compute: impl FnOnce() -> Result<PhaseResult, PhaseError>,
) -> Result<PhaseResult, PhaseError> {
    let Some(memo) = current_phase_memo() else { return compute() };
    let key = key_of();
    if let Some(hit) = memo.get(&key) {
        return Ok(hit);
    }
    let out = compute()?;
    memo.put(&key, &out);
    Ok(out)
}

/// Drains with a generous finite budget so a scheduler livelock surfaces as
/// a loud [`PhaseError`] with diagnostics instead of hanging the sweep.
fn drain_phase(mem: &mut MemorySystem, context: &'static str) -> Result<(), PhaseError> {
    // Worst-case retirement of one queued transaction is bounded by a few
    // hundred cycles (tRC/tRFC scale); 100k cycles each plus a large idle
    // floor is orders of magnitude beyond any legitimate drain.
    let budget = 50_000_000 + mem.pending() as u64 * 100_000;
    mem.drain(budget).map(drop).map_err(|e| PhaseError::new(context, e, mem))
}

/// Scaled results of one simulated phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseResult {
    /// Phase duration, nanoseconds (scaled to full traffic).
    pub time_ns: f64,
    /// Linear extrapolation factor applied (1.0 = fully simulated).
    pub scale: f64,
    /// Energy, scaled (pJ).
    pub energy: EnergyBreakdown,
    /// Bytes over the external bus, scaled.
    pub external_bytes: f64,
    /// Bytes moved bank↔register inside bank groups, scaled.
    pub internal_bytes: f64,
    /// Command-bus utilization relative to one direct bus (Fig. 11 top).
    pub cmd_bus_util: f64,
    /// Achieved external bandwidth during the phase (B/s).
    pub external_bw: f64,
    /// Achieved DRAM-internal bandwidth (Fig. 11 bottom metric, B/s).
    pub internal_bw: f64,
    /// Raw simulated cycles (before scaling).
    pub sim_cycles: u64,
}

impl PhaseResult {
    /// A zero-length phase (e.g. update of a parameter-free block).
    pub fn empty() -> Self {
        Self { scale: 1.0, ..Self::default() }
    }

    /// Exact serialization for result stores: every `f64` as its
    /// raw bit pattern in hex, so decoding reproduces the result
    /// bit-identically (NaN payloads and signed zeros included). The
    /// leading `pr1` tag versions the field layout.
    pub fn to_bits_string(&self) -> String {
        let f = [
            self.time_ns,
            self.scale,
            self.energy.act_pj,
            self.energy.rd_pj,
            self.energy.wr_pj,
            self.energy.io_pj,
            self.energy.pim_pj,
            self.energy.refresh_pj,
            self.energy.background_pj,
            self.external_bytes,
            self.internal_bytes,
            self.cmd_bus_util,
            self.external_bw,
            self.internal_bw,
        ];
        let mut out = String::from("pr1");
        for v in f {
            out.push_str(&format!(" {:x}", v.to_bits()));
        }
        out.push_str(&format!(" {:x}", self.sim_cycles));
        out
    }

    /// Decodes [`to_bits_string`](Self::to_bits_string) output. `None` on
    /// any tag/arity/token mismatch — callers treat that as a cache miss.
    pub fn from_bits_string(s: &str) -> Option<Self> {
        let mut it = s.split(' ');
        if it.next()? != "pr1" {
            return None;
        }
        let mut next_u64 = || u64::from_str_radix(it.next()?, 16).ok();
        let mut f = [0f64; 14];
        for slot in &mut f {
            *slot = f64::from_bits(next_u64()?);
        }
        let sim_cycles = next_u64()?;
        if it.next().is_some() {
            return None;
        }
        Some(Self {
            time_ns: f[0],
            scale: f[1],
            energy: EnergyBreakdown {
                act_pj: f[2],
                rd_pj: f[3],
                wr_pj: f[4],
                io_pj: f[5],
                pim_pj: f[6],
                refresh_pj: f[7],
                background_pj: f[8],
            },
            external_bytes: f[9],
            internal_bytes: f[10],
            cmd_bus_util: f[11],
            external_bw: f[12],
            internal_bw: f[13],
            sim_cycles,
        })
    }

    fn from_stats(cfg: &DramConfig, stats: &Stats, scale: f64) -> Self {
        let sim_ns = stats.elapsed_ns(cfg);
        let mut energy = stats.energy;
        energy.act_pj *= scale;
        energy.rd_pj *= scale;
        energy.wr_pj *= scale;
        energy.io_pj *= scale;
        energy.pim_pj *= scale;
        energy.refresh_pj *= scale;
        energy.background_pj *= scale;
        Self {
            time_ns: sim_ns * scale,
            scale,
            energy,
            external_bytes: stats.external_bytes() as f64 * scale,
            internal_bytes: stats.internal_bytes() as f64 * scale,
            cmd_bus_util: stats.command_bus_utilization(),
            external_bw: stats.external_bw(cfg),
            internal_bw: stats.internal_bw(cfg),
            sim_cycles: stats.cycles,
        }
    }
}

/// A memory request for the streaming drivers.
#[derive(Debug, Clone, Copy)]
enum Req {
    Read(u64),
    Write(u64),
}

/// Adds the memory system's host-work counters to the metrics registry as
/// `phase.<context>.dram.<counter>` (a no-op without metrics).
fn record_work(mem: &MemorySystem, context: &str) {
    if gradpim_obs::metrics_enabled() {
        for (name, v) in mem.work().fields() {
            gradpim_obs::counter_add(&format!("phase.{context}.dram.{name}"), v);
        }
    }
}

/// Enqueues requests with backpressure (fast-forwarding over dead cycles).
fn run_requests(
    mem: &mut MemorySystem,
    reqs: impl Iterator<Item = Req>,
    context: &'static str,
) -> Result<(), PhaseError> {
    for r in reqs {
        loop {
            let res = match r {
                Req::Read(a) => mem.enqueue_read(a).map(drop),
                Req::Write(a) => mem.enqueue_write(a, None).map(drop),
            };
            match res {
                Ok(()) => break,
                Err(MemError::QueueFull) => mem.tick_until_event(),
                Err(e) => return Err(PhaseError::new(context, e, mem)),
            }
        }
    }
    Ok(())
}

/// Burst index → address with bank-group interleaving at burst granularity:
/// consecutive bursts rotate across all bank groups (and, at the next
/// level, ranks), the access pattern a well-tuned streaming engine
/// produces.
fn interleaved_addr(cfg: &DramConfig, base: u64, i: u64) -> u64 {
    let burst = cfg.burst_bytes as u64;
    let row_bytes = (cfg.columns * cfg.burst_bytes) as u64;
    // Lanes: one per bank group × rank (contiguous 8 KiB regions under the
    // Fig. 7 mapping rotate bank group fastest, then rank).
    let lanes = (cfg.bankgroups * cfg.ranks) as u64;
    let cols = cfg.columns as u64;
    let per_wave = lanes * cols;
    let wave = i / per_wave;
    let within = i % per_wave;
    let lane = within % lanes;
    let col = within / lanes;
    base + wave * lanes * row_bytes + lane * row_bytes + col * burst
}

/// Appends fields to a key as `name=value`: `key_fields!(key; a, b)`
/// renders bindings in scope, and `key_fields!(key, value => Type { a, b })`
/// first destructures `value` without `..`, so a new field of `Type` does
/// not compile until the key covers it.
macro_rules! key_fields {
    ($key:expr, $value:expr => $ty:ident { $($field:ident),* $(,)? }) => {{
        let $ty { $($field),* } = $value;
        key_fields!($key; $($field),*);
    }};
    ($key:expr; $($field:ident),* $(,)?) => {
        $(push_field(&mut $key, stringify!($field), $field);)*
    };
}

/// One phase-executor call as a value: the executor plus exactly the
/// arguments it reads.
///
/// Executors are pure functions of their arguments, so two calls with the
/// same [`key`](Self::key) produce bit-identical results. A sweep runner
/// can therefore plan a whole experiment's calls, answer each distinct
/// call once, and hand every caller its result; calls whose
/// [`simulation`](Self::simulation)s share a key share one run. The DRAM
/// view is shared through an [`Arc`], so a plan of many calls holds one
/// copy of each view. Calls compare by [`key`](Self::key), so they have
/// no `PartialEq`.
#[derive(Debug, Clone)]
pub struct PhaseCall {
    dram: Arc<DramConfig>,
    op: Op,
}

/// An executor and its arguments besides the DRAM view.
#[derive(Debug, Clone, Copy)]
enum Op {
    Stream {
        read_bytes: u64,
        write_bytes: u64,
        cap_bursts: u64,
    },
    BaselineUpdate {
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        params: u64,
        cap_params: u64,
    },
    PimKernel {
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        hyper: HyperParams,
        params: u64,
        cap_params: u64,
        parts: KernelParts,
    },
    AosPerBank {
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        params: u64,
        cap_params: u64,
    },
}

impl PhaseCall {
    /// A [`stream_phase`] call.
    pub fn stream(
        dram: impl Into<Arc<DramConfig>>,
        read_bytes: u64,
        write_bytes: u64,
        cap_bursts: u64,
    ) -> Self {
        Self { dram: dram.into(), op: Op::Stream { read_bytes, write_bytes, cap_bursts } }
    }

    /// A [`baseline_update_phase`] call.
    pub fn baseline_update(
        dram: impl Into<Arc<DramConfig>>,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        params: u64,
        cap_params: u64,
    ) -> Self {
        Self { dram: dram.into(), op: Op::BaselineUpdate { optimizer, mix, params, cap_params } }
    }

    /// A [`pim_update_phase`] call.
    pub fn pim_update(
        dram: impl Into<Arc<DramConfig>>,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        hyper: &HyperParams,
        params: u64,
        cap_params: u64,
    ) -> Self {
        let (hyper, parts) = (*hyper, KernelParts::UPDATE_ONLY);
        Self {
            dram: dram.into(),
            op: Op::PimKernel { optimizer, mix, hyper, params, cap_params, parts },
        }
    }

    /// A [`pim_quant_dequant_phase`] call.
    pub fn pim_quant_dequant(
        dram: impl Into<Arc<DramConfig>>,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        hyper: &HyperParams,
        params: u64,
        cap_params: u64,
    ) -> Self {
        let (hyper, parts) = (*hyper, KernelParts::QUANT_DEQUANT);
        Self {
            dram: dram.into(),
            op: Op::PimKernel { optimizer, mix, hyper, params, cap_params, parts },
        }
    }

    /// An [`aos_per_bank_update_phase`] call.
    pub fn aos_per_bank_update(
        dram: impl Into<Arc<DramConfig>>,
        optimizer: OptimizerKind,
        mix: PrecisionMix,
        params: u64,
        cap_params: u64,
    ) -> Self {
        Self { dram: dram.into(), op: Op::AosPerBank { optimizer, mix, params, cap_params } }
    }

    /// The executor's span and metrics context: `stream`,
    /// `baseline-update`, `pim-kernel` or `aos-pb`.
    pub fn context(&self) -> &'static str {
        match self.op {
            Op::Stream { .. } => "stream",
            Op::BaselineUpdate { .. } => "baseline-update",
            Op::PimKernel { .. } => "pim-kernel",
            Op::AosPerBank { .. } => "aos-pb",
        }
    }

    /// False for a call its executor answers with [`PhaseResult::empty`]
    /// without simulating: no traffic, no parameters, or the quantization
    /// kernels of a single-precision mix. Such a call records no metrics
    /// and never reaches a memo or a store.
    pub fn simulates(&self) -> bool {
        match self.op {
            Op::Stream { read_bytes, write_bytes, .. } => read_bytes > 0 || write_bytes > 0,
            Op::BaselineUpdate { params, .. } | Op::AosPerBank { params, .. } => params > 0,
            Op::PimKernel { mix, params, parts, .. } => {
                params > 0 && (parts != KernelParts::QUANT_DEQUANT || mix.is_mixed())
            }
        }
    }

    /// The call's canonical key: `phase/v2/<context>/<arguments>/dram/<view>`.
    /// Every argument is rendered field by field, integers in decimal,
    /// floats as their bit patterns in hex and names percent-escaped, so
    /// two calls share a key exactly when they are the same computation.
    /// The key holds no newline. It names inputs, not simulator code.
    pub fn key(&self) -> String {
        let mut key = String::with_capacity(1024);
        key.push_str("phase/v2/");
        key.push_str(self.context());
        key.push('/');
        match &self.op {
            Op::Stream { read_bytes, write_bytes, cap_bursts } => {
                key_fields!(key; read_bytes, write_bytes, cap_bursts);
            }
            Op::BaselineUpdate { optimizer, mix, params, cap_params }
            | Op::AosPerBank { optimizer, mix, params, cap_params } => {
                key_fields!(key; optimizer, params, cap_params);
                key_fields!(key, mix => PrecisionMix { low, high });
            }
            Op::PimKernel { optimizer, mix, hyper, params, cap_params, parts } => {
                key_fields!(key; optimizer, params, cap_params);
                key_fields!(key, mix => PrecisionMix { low, high });
                key_fields! { key, hyper => HyperParams {
                    lr, momentum, weight_decay, beta1, beta2, eps,
                }}
                key_fields!(key, parts => KernelParts { dequant, update, quant });
            }
        }
        push_dram(&mut key, &self.dram);
        key
    }

    /// The call cut to its cap, or `None` for a call that does not
    /// simulate ([`PhaseCall::simulates`]). Calls that differ only above
    /// the cap cut to the same call, so they share one simulation.
    pub fn simulation(&self) -> Option<Simulation> {
        let op = self.simulates().then(|| self.cut().0)?;
        Some(Simulation(PhaseCall { dram: Arc::clone(&self.dram), op }))
    }

    /// A simulating call's arguments cut to the traffic it simulates, and
    /// the scale from that traffic back to its own. A stream simulates
    /// the cap (never below 16) of its bursts, split in traffic
    /// proportion, as whole bursts that are their own cap; an update
    /// simulates the cap (never below 1024) of its parameters, which is
    /// then its cap too.
    fn cut(&self) -> (Op, f64) {
        let mut op = self.op;
        let scale = match &mut op {
            Op::Stream { read_bytes, write_bytes, cap_bursts } => {
                let burst = self.dram.burst_bytes as u64;
                let (r_total, w_total) = (read_bytes.div_ceil(burst), write_bytes.div_ceil(burst));
                let total = r_total + w_total;
                let sim_total = total.min((*cap_bursts).max(16));
                let reads = (r_total as u128 * sim_total as u128 / total as u128) as u64;
                *read_bytes = reads * burst;
                *write_bytes = (sim_total - reads) * burst;
                *cap_bursts = sim_total;
                total as f64 / sim_total as f64
            }
            Op::BaselineUpdate { params, cap_params, .. }
            | Op::PimKernel { params, cap_params, .. }
            | Op::AosPerBank { params, cap_params, .. } => {
                let full = *params;
                *params = full.min((*cap_params).max(1024));
                *cap_params = *params;
                full as f64 / *params as f64
            }
        };
        (op, scale)
    }

    /// The call's result from `stats`, the statistics of its
    /// [`simulation`](Self::simulation): scaled linearly from the
    /// simulated traffic to the call's full traffic. A call that does not
    /// simulate answers [`PhaseResult::empty`]. With metrics on, records
    /// the answer's `phase.<context>.sim_ns` (scaled simulated time) and
    /// `energy_pj`.
    pub fn result(&self, stats: &Stats) -> PhaseResult {
        if !self.simulates() {
            return PhaseResult::empty();
        }
        let result = PhaseResult::from_stats(&self.dram, stats, self.cut().1);
        if gradpim_obs::metrics_enabled() {
            let context = self.context();
            gradpim_obs::observe(&format!("phase.{context}.sim_ns"), result.time_ns);
            gradpim_obs::observe(&format!("phase.{context}.energy_pj"), result.energy.total_pj());
        }
        result
    }

    /// Runs the call: an empty result when it does not simulate,
    /// otherwise the ambient [`PhaseMemo`] (if one is installed) or
    /// `result(&simulation().run()?)`, which records the metrics.
    ///
    /// # Errors
    ///
    /// [`PhaseError`] on any simulator error other than transient
    /// backpressure (including a drain-budget overrun).
    pub fn execute(&self) -> Result<PhaseResult, PhaseError> {
        let Some(simulation) = self.simulation() else {
            return Ok(PhaseResult::empty());
        };
        memoized(|| self.key(), || Ok(self.result(&simulation.run()?)))
    }
}

/// A [`PhaseCall`] cut to its cap ([`PhaseCall::simulation`]): its
/// arguments are exactly the traffic it simulates, so it is its own
/// simulation at scale 1. It holds what the simulation reads, so two
/// simulations with the same [`key`](Self::key) produce bit-identical
/// [`Stats`]. Only a call that simulates can be cut, so a `Simulation`
/// never runs an update of no parameters or a stream of no bursts.
#[derive(Debug, Clone)]
pub struct Simulation(PhaseCall);

impl Simulation {
    /// The cut call's [`PhaseCall::key`]. Two simulations share a key
    /// exactly when they simulate the same traffic on the same view.
    pub fn key(&self) -> String {
        self.0.key()
    }

    /// Runs the traffic through a fresh memory system and drains it. Opens
    /// one `phase.<context>` span; with metrics on, records
    /// `phase.<context>.host_ns` (host time of the run),
    /// `phase.<context>.sim_cycles` and the memory system's
    /// `phase.<context>.dram.*` work counters.
    ///
    /// # Errors
    ///
    /// [`PhaseError`] on any simulator error other than transient
    /// backpressure (including a drain-budget overrun), or when the
    /// arrays or kernels do not fit the device.
    pub fn run(&self) -> Result<Stats, PhaseError> {
        let context = self.0.context();
        let _span = gradpim_obs::span_lazy(|| format!("phase.{context}"), "phase");
        let start = gradpim_obs::metrics_enabled().then(std::time::Instant::now);
        let cfg = &*self.0.dram;
        let placement = |optimizer, mix, params: u64| {
            Placement::for_optimizer(optimizer, mix, params as usize, cfg)
                .map_err(|e| PhaseError::setup(context, e))
        };
        let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        match self.0.op {
            Op::Stream { read_bytes, write_bytes, .. } => {
                let burst = cfg.burst_bytes as u64;
                let reqs = stream_requests(cfg, read_bytes / burst, write_bytes / burst);
                run_requests(&mut mem, reqs, context)?;
            }
            Op::BaselineUpdate { optimizer, mix, params, .. } => {
                let placement = placement(optimizer, mix, params)?;
                let reqs = baseline_update_requests(cfg, &placement, optimizer, mix);
                run_requests(&mut mem, reqs.into_iter(), context)?;
            }
            Op::PimKernel { optimizer, mix, hyper, params, parts, .. } => {
                let placement = placement(optimizer, mix, params)?;
                let plan = compile_step(&placement, &hyper, cfg, parts)
                    .map_err(|e| PhaseError::setup(context, e))?;
                run_unit_streams(&mut mem, &plan.streams)
                    .map_err(|e| PhaseError::new(context, e, &mem))?;
            }
            Op::AosPerBank { optimizer, mix, params, .. } => {
                let streams = aos_per_bank_streams(cfg, optimizer, mix, params);
                run_unit_streams(&mut mem, &streams)
                    .map_err(|e| PhaseError::new(context, e, &mem))?;
            }
        }
        drain_phase(&mut mem, context)?;
        let stats = mem.stats();
        if let Some(start) = start {
            let host_ns = start.elapsed().as_nanos() as f64;
            gradpim_obs::observe(&format!("phase.{context}.host_ns"), host_ns);
            gradpim_obs::observe(&format!("phase.{context}.sim_cycles"), stats.cycles as f64);
            record_work(&mem, context);
        }
        Ok(stats)
    }
}

/// Appends a DRAM view to a key: `/dram/` and every [`DramConfig`] field.
fn push_dram(key: &mut String, dram: &DramConfig) {
    key.push_str("/dram/");
    key_fields! { *key, dram => DramConfig {
        name, channels, ranks, bankgroups, banks_per_group, rows, columns, burst_bytes,
        tck_ps, tcl, trcd, trp, tras, trc, tccd_l, tccd_s, trrd_l, trrd_s, tfaw, twr,
        twtr_l, twtr_s, trtp, tcwl, tburst, trefi, trfc, trtrs, tpim, txp, powerdown_idle,
        idd0, idd2p, idd2n, idd3p, idd3n, idd4r, idd4w, iddpre, vdd, io_pj_per_bit,
        issue_mode, data_bus, pim_placement, queue_depth, extended_alu,
    }}
}

/// Appends `name=value` to a key, after a comma unless it opens a
/// section.
fn push_field(key: &mut String, name: &str, value: &(impl KeyValue + ?Sized)) {
    if !key.ends_with('/') {
        key.push(',');
    }
    key.push_str(name);
    key.push('=');
    value.render(key);
}

/// A value a key renders exactly and without `Debug`.
trait KeyValue {
    fn render(&self, key: &mut String);
}

/// Integers in decimal.
macro_rules! decimal_key {
    ($($ty:ty),*) => {$(
        impl KeyValue for $ty {
            fn render(&self, key: &mut String) {
                let _ = write!(key, "{self}");
            }
        }
    )*};
}
decimal_key!(u64, usize);

/// Floats as their bit patterns in hex.
macro_rules! bits_key {
    ($($ty:ty),*) => {$(
        impl KeyValue for $ty {
            fn render(&self, key: &mut String) {
                let _ = write!(key, "{:x}", self.to_bits());
            }
        }
    )*};
}
bits_key!(f32, f64);

/// Enums as a fixed word per variant.
macro_rules! word_key {
    ($($ty:ident { $($variant:ident => $word:literal),* $(,)? })*) => {$(
        impl KeyValue for $ty {
            fn render(&self, key: &mut String) {
                key.push_str(match self {
                    $($ty::$variant => $word,)*
                });
            }
        }
    )*};
}
word_key! {
    OptimizerKind {
        Sgd => "sgd", MomentumSgd => "momentum-sgd", Nag => "nag", Adam => "adam",
        AdaGrad => "adagrad", RmsProp => "rmsprop",
    }
    Precision { Int8 => "int8", Fp16 => "fp16", Fp32 => "fp32" }
    CommandIssueMode { Direct => "direct", PerRankBuffered => "per-rank-buffered" }
    DataBusScope { Channel => "channel", PerRank => "per-rank" }
    PimPlacement { PerBankGroup => "per-bank-group", PerBank => "per-bank" }
}

impl KeyValue for bool {
    fn render(&self, key: &mut String) {
        key.push(if *self { '1' } else { '0' });
    }
}

/// Every byte outside `[A-Za-z0-9._-]` as `%XX`, so a name can hold no
/// separator and no newline.
impl KeyValue for String {
    fn render(&self, key: &mut String) {
        for b in self.bytes() {
            if b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-') {
                key.push(char::from(b));
            } else {
                let _ = write!(key, "%{b:02X}");
            }
        }
    }
}

/// Streams `read_bytes` + `write_bytes` of forward/backward traffic
/// (bank-group-interleaved walks through two disjoint bank regions, with
/// reads and writes batched to amortize bus turnarounds) and returns the
/// scaled phase result.
///
/// # Errors
///
/// [`PhaseError`] on any simulator error other than transient
/// backpressure (including a drain-budget overrun).
pub fn stream_phase(
    cfg: &DramConfig,
    read_bytes: u64,
    write_bytes: u64,
    cap_bursts: u64,
) -> Result<PhaseResult, PhaseError> {
    PhaseCall::stream(cfg.clone(), read_bytes, write_bytes, cap_bursts).execute()
}

/// A stream's requests: `reads` bursts walking bank region 0 and `writes`
/// bursts walking bank region 2 (disjoint banks under the Fig. 7 mapping),
/// batched write-drain style in traffic proportion.
fn stream_requests(cfg: &DramConfig, reads: u64, writes: u64) -> impl Iterator<Item = Req> + '_ {
    let w_base = AddressMapping::GradPim.capacity_bytes(cfg) / 2;
    const R_BATCH: u64 = 32;
    let w_batch = if reads == 0 { 32 } else { (R_BATCH * writes).div_ceil(reads.max(1)).max(1) };
    let (mut ri, mut wi) = (0u64, 0u64);
    let mut phase_w = false;
    let mut left_in_batch = R_BATCH;
    std::iter::from_fn(move || loop {
        if ri >= reads && wi >= writes {
            return None;
        }
        if left_in_batch == 0 || (!phase_w && ri >= reads) || (phase_w && wi >= writes) {
            phase_w = !phase_w;
            left_in_batch = if phase_w { w_batch } else { R_BATCH };
            continue;
        }
        left_in_batch -= 1;
        if !phase_w {
            if ri < reads {
                let a = interleaved_addr(cfg, 0, ri);
                ri += 1;
                return Some(Req::Read(a));
            }
        } else if wi < writes {
            let a = interleaved_addr(cfg, w_base, wi);
            wi += 1;
            return Some(Req::Write(a));
        }
    })
}

/// The baseline (and TensorDIMM) update phase: the update engine streams
/// Q(g)/θ/state reads and θ/state/Q(θ) writes over the bus (§IV-D executed
/// outside the DRAM). The arrays follow the same §V-B placement, so the
/// address walk spreads across bank groups and ranks.
///
/// # Errors
///
/// [`PhaseError`] on any simulator error other than transient
/// backpressure.
pub fn baseline_update_phase(
    cfg: &DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    params: u64,
    cap_params: u64,
) -> Result<PhaseResult, PhaseError> {
    PhaseCall::baseline_update(cfg.clone(), optimizer, mix, params, cap_params).execute()
}

/// The baseline update's requests over `placement`'s arrays.
fn baseline_update_requests(
    cfg: &DramConfig,
    placement: &Placement,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
) -> Vec<Req> {
    let ratio = mix.quant_ratio() as u32;
    let mixed = mix.is_mixed();
    let states: Vec<ArrayName> =
        [ArrayName::State0, ArrayName::State1].into_iter().take(optimizer.state_arrays()).collect();

    // Per-chunk request lists: reads and writes batched per BATCH-column
    // group (the update engine double-buffers a small tile: load it, update
    // it, store it — the paper's baseline has "dedicated 32bit modules", a
    // streaming vector unit with shallow buffering, so the tile is small
    // and read/write turnarounds are a real cost), then interleaved
    // round-robin across chunks so every rank and bank group is fed
    // concurrently.
    const BATCH: u32 = 4;
    let mut per_chunk: Vec<Vec<Req>> = Vec::new();
    for chunk in placement.chunks(cfg) {
        let mut reqs = Vec::new();
        let mut col = 0u32;
        while col < chunk.cols {
            let hi = (col + BATCH).min(chunk.cols);
            for c in col..hi {
                if mixed {
                    if c % ratio == 0 {
                        let qg = placement.array(ArrayName::QGrad);
                        reqs.push(Req::Read(placement.col_addr(qg, &chunk, c / ratio, cfg)));
                    }
                } else {
                    let g = placement.array(ArrayName::Grad);
                    reqs.push(Req::Read(placement.col_addr(g, &chunk, c, cfg)));
                }
                let theta = placement.array(ArrayName::Theta);
                reqs.push(Req::Read(placement.col_addr(theta, &chunk, c, cfg)));
                for s in &states {
                    reqs.push(Req::Read(placement.col_addr(placement.array(*s), &chunk, c, cfg)));
                }
            }
            for c in col..hi {
                let theta = placement.array(ArrayName::Theta);
                reqs.push(Req::Write(placement.col_addr(theta, &chunk, c, cfg)));
                for s in &states {
                    reqs.push(Req::Write(placement.col_addr(placement.array(*s), &chunk, c, cfg)));
                }
                if mixed && (c % ratio == ratio - 1 || c == chunk.cols - 1) {
                    let qt = placement.array(ArrayName::QTheta);
                    reqs.push(Req::Write(placement.col_addr(qt, &chunk, c / ratio, cfg)));
                }
            }
            col = hi;
        }
        per_chunk.push(reqs);
    }
    // Round-robin merge in tile-sized slices.
    let slice = (BATCH as usize) * (3 + states.len() * 2);
    let mut cursors = vec![0usize; per_chunk.len()];
    let mut merged = Vec::with_capacity(per_chunk.iter().map(Vec::len).sum());
    loop {
        let mut progressed = false;
        for (i, reqs) in per_chunk.iter().enumerate() {
            if cursors[i] < reqs.len() {
                let hi = (cursors[i] + slice).min(reqs.len());
                merged.extend_from_slice(&reqs[cursors[i]..hi]);
                cursors[i] = hi;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    merged
}

/// The GradPIM update phase proper: the Fig. 5 (middle) update kernel
/// executed by the units. Quantization/dequantization are *not* part of
/// this window — they pipeline with the adjacent forward/backward phases
/// (see [`pim_quant_dequant_phase`]), matching the paper's update-phase
/// accounting.
///
/// # Errors
///
/// [`PhaseError`] on any simulator error other than transient
/// backpressure.
pub fn pim_update_phase(
    cfg: &DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    hyper: &HyperParams,
    params: u64,
    cap_params: u64,
) -> Result<PhaseResult, PhaseError> {
    PhaseCall::pim_update(cfg.clone(), optimizer, mix, hyper, params, cap_params).execute()
}

/// The quantization + dequantization kernels (Fig. 5 top and bottom),
/// which overlap with the backward (Q(g) dequantizes as gradients arrive)
/// and forward (Q(θ) streams out as it is consumed) phases.
///
/// # Errors
///
/// [`PhaseError`] on any simulator error other than transient
/// backpressure.
pub fn pim_quant_dequant_phase(
    cfg: &DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    hyper: &HyperParams,
    params: u64,
    cap_params: u64,
) -> Result<PhaseResult, PhaseError> {
    PhaseCall::pim_quant_dequant(cfg.clone(), optimizer, mix, hyper, params, cap_params).execute()
}

/// The AoS-PB update phase (§VI-B): per-bank units, arrays interleaved as
/// structures within each bank's rows. Momentum-style op mix per logical
/// column, chunks rotated across all banks of every group for bank-level
/// parallelism.
///
/// # Errors
///
/// [`PhaseError`] on any simulator error other than transient
/// backpressure.
pub fn aos_per_bank_update_phase(
    cfg: &DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    params: u64,
    cap_params: u64,
) -> Result<PhaseResult, PhaseError> {
    PhaseCall::aos_per_bank_update(cfg.clone(), optimizer, mix, params, cap_params).execute()
}

/// The AoS-PB update's per-unit op streams over `params` parameters.
fn aos_per_bank_streams(
    cfg: &DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    params: u64,
) -> Vec<UnitStream> {
    let high = mix.high.bytes();
    let epc = cfg.burst_bytes / high;
    // Struct fields per element: θ + g + states (+ quantized shadow slot).
    let fields = 2 + optimizer.state_arrays() + usize::from(mix.is_mixed());
    let cols_per_chunk = (cfg.columns / fields).max(1) as u32;
    let elems_per_chunk = epc * cols_per_chunk as usize;

    let params = params as usize;
    let n_chunks = params.div_ceil(elems_per_chunk);

    let mut streams = Vec::new();
    for c in 0..n_chunks {
        let bg = (c % cfg.bankgroups) as u8;
        let rank = ((c / cfg.bankgroups) % cfg.ranks) as u8;
        let wave = c / (cfg.bankgroups * cfg.ranks);
        let bank = (wave % cfg.banks_per_group) as u8;
        let row = (wave / cfg.banks_per_group) as u32;
        let ops = UnitStream::ops_of(&mut streams, (0, rank, bg));
        let remaining = params - c * elems_per_chunk;
        let cols = remaining.min(elems_per_chunk).div_ceil(epc) as u32;
        for lc in 0..cols {
            let base = lc * fields as u32;
            // Momentum-style mix on struct fields: g, v, θ adjacent columns.
            ops.push(PimOp::ScaledRead { bank, row, col: base, scaler: 0, dst: 0 });
            ops.push(PimOp::ScaledRead { bank, row, col: base + 1, scaler: 1, dst: 1 });
            ops.push(PimOp::Add { bank, dst: 1 });
            ops.push(PimOp::Writeback { bank, row, col: base + 1, src: 1 });
            ops.push(PimOp::ScaledRead { bank, row, col: base + 2, scaler: 3, dst: 0 });
            ops.push(PimOp::Add { bank, dst: 0 });
            ops.push(PimOp::Writeback { bank, row, col: base + 2, src: 0 });
            // Quantization/dequantization overlap fwd/bwd as in the
            // per-bank-group designs, so they are not part of this window.
        }
    }
    streams
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Design, SystemConfig};

    const CAP: u64 = 6000;

    #[test]
    fn stream_phase_reaches_high_bus_utilization() {
        let cfg = SystemConfig::new(Design::Baseline).dram();
        let r = stream_phase(&cfg, 8 << 20, 4 << 20, CAP).unwrap();
        // Streaming traffic should run near the external bandwidth ceiling.
        let peak = cfg.peak_external_bw();
        assert!(r.external_bw > 0.6 * peak, "external bw {:.1} GB/s", r.external_bw / 1e9);
        assert!(r.scale > 1.0);
        assert!(r.time_ns > 0.0);
    }

    #[test]
    fn baseline_update_is_bandwidth_bound() {
        let cfg = SystemConfig::new(Design::Baseline).dram();
        let params = 1_000_000u64;
        let r = baseline_update_phase(
            &cfg,
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            params,
            100_000,
        )
        .unwrap();
        // 18 B/param at ~15 GB/s ⇒ ~1.2 ms; allow a broad window.
        let expect_ns = params as f64 * 18.0 / 15e9 * 1e9;
        assert!(
            r.time_ns > expect_ns * 0.7 && r.time_ns < expect_ns * 1.6,
            "update {} ns vs expected {} ns",
            r.time_ns,
            expect_ns
        );
        // §VI-B: baseline external bandwidth ~15 GB/s of the 17.1 peak.
        assert!(r.external_bw > 12e9, "external bw {:.1} GB/s", r.external_bw / 1e9);
    }

    #[test]
    fn pim_direct_update_beats_baseline() {
        let sys_b = SystemConfig::new(Design::Baseline);
        let sys_d = SystemConfig::new(Design::GradPimDirect);
        let params = 2_000_000u64;
        let base = baseline_update_phase(
            &sys_b.dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            params,
            50_000,
        )
        .unwrap();
        let pim = pim_update_phase(
            &sys_d.dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            &HyperParams::default(),
            params,
            50_000,
        )
        .unwrap();
        let speedup = base.time_ns / pim.time_ns;
        // Fig. 9: ~2.25× on the update phase for GradPIM-Direct.
        assert!(speedup > 1.3, "direct update speedup {speedup}");
        // Zero external traffic for the PIM update.
        assert_eq!(pim.external_bytes, 0.0);
        // Command bus saturates (Fig. 11 top: near 100 %).
        assert!(pim.cmd_bus_util > 0.8, "cmd util {}", pim.cmd_bus_util);
    }

    #[test]
    fn buffered_update_beats_direct_by_command_parallelism() {
        let params = 2_000_000u64;
        let direct = pim_update_phase(
            &SystemConfig::new(Design::GradPimDirect).dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            &HyperParams::default(),
            params,
            50_000,
        )
        .unwrap();
        let buffered = pim_update_phase(
            &SystemConfig::new(Design::GradPimBuffered).dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            &HyperParams::default(),
            params,
            50_000,
        )
        .unwrap();
        let ratio = direct.time_ns / buffered.time_ns;
        // Fig. 11: buffered mode lifts internal bandwidth by ~4×.
        assert!(ratio > 2.0, "buffered/direct update ratio {ratio}");
        assert!(buffered.internal_bw > direct.internal_bw * 2.0);
        // Buffered command utilization exceeds one bus (Fig. 11 top >100 %).
        assert!(buffered.cmd_bus_util > 1.0, "cmd util {}", buffered.cmd_bus_util);
    }

    #[test]
    fn tensordimm_update_between_baseline_and_buffered() {
        let params = 2_000_000u64;
        let base = baseline_update_phase(
            &SystemConfig::new(Design::Baseline).dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            params,
            50_000,
        )
        .unwrap();
        let td = baseline_update_phase(
            &SystemConfig::new(Design::TensorDimm).dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            params,
            50_000,
        )
        .unwrap();
        let bd = pim_update_phase(
            &SystemConfig::new(Design::GradPimBuffered).dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            &HyperParams::default(),
            params,
            50_000,
        )
        .unwrap();
        // Rank-level parallelism helps TensorDIMM over the baseline…
        assert!(td.time_ns < base.time_ns * 0.6, "td {} base {}", td.time_ns, base.time_ns);
        // …but bank-group parallelism does better still.
        assert!(bd.time_ns < td.time_ns, "bd {} td {}", bd.time_ns, td.time_ns);
    }

    #[test]
    fn aos_per_bank_update_runs_and_uses_pim() {
        let r = aos_per_bank_update_phase(
            &SystemConfig::new(Design::AosPerBank).dram(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            500_000,
            20_000,
        )
        .unwrap();
        assert!(r.time_ns > 0.0);
        assert_eq!(r.external_bytes, 0.0);
        assert!(r.internal_bytes > 0.0);
    }

    #[test]
    fn metrics_keep_simulated_and_host_time_apart() {
        let cfg = SystemConfig::new(Design::Baseline).dram();
        gradpim_obs::set_metrics(true);
        let r = stream_phase(&cfg, 1 << 20, 512 << 10, CAP).unwrap();
        gradpim_obs::set_metrics(false);
        let hists = gradpim_obs::registry().hists;
        let sim = &hists["phase.stream.sim_ns"];
        assert!(sim.min <= r.time_ns && r.time_ns <= sim.max, "{sim:?} vs {}", r.time_ns);
        assert!(hists["phase.stream.host_ns"].min > 0.0);
        assert!(!hists.contains_key("phase.stream.wall_ns"));
    }

    #[test]
    fn bits_string_round_trips_exactly() {
        let cfg = SystemConfig::new(Design::Baseline).dram();
        let r = stream_phase(&cfg, 1 << 20, 512 << 10, CAP).unwrap();
        let enc = r.to_bits_string();
        assert_eq!(PhaseResult::from_bits_string(&enc), Some(r.clone()));
        // Hostile payloads decode as misses, never as garbage results.
        assert_eq!(PhaseResult::from_bits_string(""), None);
        assert_eq!(PhaseResult::from_bits_string("pr0 1 2"), None);
        assert_eq!(PhaseResult::from_bits_string(&format!("{enc} deadbeef")), None);
        // Non-finite and signed-zero floats survive the round trip.
        let weird = PhaseResult {
            time_ns: f64::NAN,
            scale: -0.0,
            external_bw: f64::INFINITY,
            ..PhaseResult::empty()
        };
        let back = PhaseResult::from_bits_string(&weird.to_bits_string()).unwrap();
        assert!(back.time_ns.is_nan() && back.scale.to_bits() == (-0.0f64).to_bits());
        assert_eq!(back.external_bw, f64::INFINITY);
    }

    #[test]
    fn installed_phase_memo_is_consulted_and_restored() {
        use std::sync::{Arc, Mutex};
        #[derive(Default)]
        struct Recorder {
            store: Mutex<std::collections::BTreeMap<String, PhaseResult>>,
            gets: std::sync::atomic::AtomicU32,
            hits: std::sync::atomic::AtomicU32,
        }
        impl PhaseMemo for Recorder {
            fn get(&self, key: &str) -> Option<PhaseResult> {
                self.gets.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let hit = self.store.lock().unwrap().get(key).cloned();
                if hit.is_some() {
                    self.hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                hit
            }
            fn put(&self, key: &str, result: &PhaseResult) {
                self.store.lock().unwrap().insert(key.to_string(), result.clone());
            }
        }
        let cfg = SystemConfig::new(Design::Baseline).dram();
        let plain = stream_phase(&cfg, 1 << 20, 512 << 10, CAP).unwrap();
        let memo = Arc::new(Recorder::default());
        let first = with_phase_memo(Arc::clone(&memo) as Arc<dyn PhaseMemo>, || {
            stream_phase(&cfg, 1 << 20, 512 << 10, CAP)
        })
        .unwrap();
        let second = with_phase_memo(Arc::clone(&memo) as Arc<dyn PhaseMemo>, || {
            stream_phase(&cfg, 1 << 20, 512 << 10, CAP)
        })
        .unwrap();
        // Cold fill, then a hit — and both are bit-identical to no memo.
        assert_eq!(memo.gets.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(memo.hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(first, plain);
        assert_eq!(second, plain);
        // A different traffic shape misses: the key is exact.
        let _ = with_phase_memo(Arc::clone(&memo) as Arc<dyn PhaseMemo>, || {
            stream_phase(&cfg, 2 << 20, 512 << 10, CAP)
        })
        .unwrap();
        assert_eq!(memo.hits.load(std::sync::atomic::Ordering::Relaxed), 1);
        // The scope ended: later phases never touch the memo.
        let gets = memo.gets.load(std::sync::atomic::Ordering::Relaxed);
        assert_eq!(plain, stream_phase(&cfg, 1 << 20, 512 << 10, CAP).unwrap());
        assert_eq!(memo.gets.load(std::sync::atomic::Ordering::Relaxed), gets);
    }

    /// Labeled mutations of a struct, one per field, grouped by the
    /// mutation applied. The pattern names every field without `..`, so a
    /// new field fails to compile until it is listed here.
    macro_rules! field_bumps {
        ($ty:ident { $($bump:expr => [$($field:ident),+ $(,)?]),+ $(,)? }) => {{
            let _complete = |v: &$ty| {
                let $ty { $($($field: _,)+)+ } = v;
            };
            let bumps: Vec<(&str, Box<dyn Fn(&mut $ty)>)> = vec![
                $($((stringify!($field), Box::new(|c: &mut $ty| ($bump)(&mut c.$field)))),+),+
            ];
            bumps
        }};
    }

    #[test]
    fn changing_any_single_field_changes_the_key() {
        let opt = OptimizerKind::MomentumSgd;
        let mix = PrecisionMix::MIXED_8_32;
        let hyper = HyperParams::default();
        let dram = SystemConfig::new(Design::GradPimBuffered).dram();
        let base = PhaseCall::pim_update(dram.clone(), opt, mix, &hyper, 4096, CAP);
        let key = base.key();
        assert!(key.starts_with("phase/v2/pim-kernel/"), "{key}");
        assert!(!key.contains('\n'));
        let mut keys = std::collections::BTreeMap::new();
        let mut record = |what: &str, call: PhaseCall| {
            let k = call.key();
            assert_ne!(k, key, "changing {what} left the key unchanged");
            assert!(!k.contains('\n'), "{what}: {k}");
            if let Some(other) = keys.insert(k, what.to_string()) {
                panic!("changing {what} gave the same key as changing {other}");
            }
        };

        let dram_fields = field_bumps!(DramConfig {
            |v: &mut usize| *v += 1 => [
                channels, ranks, bankgroups, banks_per_group, rows, columns, burst_bytes,
                queue_depth,
            ],
            |v: &mut u64| *v += 1 => [
                tck_ps, tcl, trcd, trp, tras, trc, tccd_l, tccd_s, trrd_l, trrd_s, tfaw, twr,
                twtr_l, twtr_s, trtp, tcwl, tburst, trefi, trfc, trtrs, tpim, txp,
                powerdown_idle,
            ],
            |v: &mut f64| *v += 0.5 => [
                idd0, idd2p, idd2n, idd3p, idd3n, idd4r, idd4w, iddpre, vdd, io_pj_per_bit,
            ],
            |v: &mut String| v.push('\n') => [name],
            |v: &mut bool| *v = !*v => [extended_alu],
            |v: &mut CommandIssueMode| {
                *v = match v {
                    CommandIssueMode::Direct => CommandIssueMode::PerRankBuffered,
                    CommandIssueMode::PerRankBuffered => CommandIssueMode::Direct,
                }
            } => [issue_mode],
            |v: &mut DataBusScope| {
                *v = match v {
                    DataBusScope::Channel => DataBusScope::PerRank,
                    DataBusScope::PerRank => DataBusScope::Channel,
                }
            } => [data_bus],
            |v: &mut PimPlacement| {
                *v = match v {
                    PimPlacement::PerBankGroup => PimPlacement::PerBank,
                    PimPlacement::PerBank => PimPlacement::PerBankGroup,
                }
            } => [pim_placement],
        });
        assert_eq!(dram_fields.len(), 46, "every DramConfig field");
        let sim_key = |call: &PhaseCall| call.simulation().map(|s| s.key());
        for (field, bump) in &dram_fields {
            let mut d = dram.clone();
            bump(&mut d);
            assert_ne!(d, dram, "{field} did not change");
            let call = PhaseCall::pim_update(d, opt, mix, &hyper, 4096, CAP);
            assert_ne!(sim_key(&call), sim_key(&base), "{field} left the simulation key unchanged");
            record(field, call);
        }

        let hyper_fields = field_bumps!(HyperParams {
            |v: &mut f32| *v += 0.5 => [lr, momentum, weight_decay, beta1, beta2, eps],
        });
        for (field, bump) in &hyper_fields {
            let mut h = hyper;
            bump(&mut h);
            record(field, PhaseCall::pim_update(dram.clone(), opt, mix, &h, 4096, CAP));
        }

        record(
            "optimizer",
            PhaseCall::pim_update(dram.clone(), OptimizerKind::Nag, mix, &hyper, 4096, CAP),
        );
        let low = PrecisionMix { low: gradpim_optim::Precision::Fp16, ..mix };
        record("mix.low", PhaseCall::pim_update(dram.clone(), opt, low, &hyper, 4096, CAP));
        let high = PrecisionMix { high: gradpim_optim::Precision::Fp16, ..mix };
        record("mix.high", PhaseCall::pim_update(dram.clone(), opt, high, &hyper, 4096, CAP));
        record("params", PhaseCall::pim_update(dram.clone(), opt, mix, &hyper, 4097, CAP));
        record("cap", PhaseCall::pim_update(dram.clone(), opt, mix, &hyper, 4096, CAP + 1));
        record("parts", PhaseCall::pim_quant_dequant(dram.clone(), opt, mix, &hyper, 4096, CAP));
        // The other executors: each argument of their own moves the key,
        // and no two executors share a key on the same arguments.
        record("executor", PhaseCall::baseline_update(dram.clone(), opt, mix, 4096, CAP));
        record("executor", PhaseCall::aos_per_bank_update(dram.clone(), opt, mix, 4096, CAP));
        let stream = PhaseCall::stream(dram.clone(), 4096, 4096, CAP);
        record("stream", stream.clone());
        record("read", PhaseCall::stream(dram.clone(), 4097, 4096, CAP));
        record("write", PhaseCall::stream(dram.clone(), 4096, 4097, CAP));
        record("stream cap", PhaseCall::stream(dram.clone(), 4096, 4096, CAP + 1));
        assert!(stream.key().starts_with("phase/v2/stream/read_bytes=4096,write_bytes=4096,"));
    }

    #[test]
    fn calls_above_the_cap_share_a_simulation_and_differ_in_scale() {
        let cfg = Arc::new(SystemConfig::new(Design::Baseline).dram());
        let sim_key = |call: &PhaseCall| call.simulation().unwrap().key();
        // A stream of twice the traffic in the same proportion simulates
        // the same bursts at twice the scale.
        let small = PhaseCall::stream(Arc::clone(&cfg), 1 << 20, 512 << 10, CAP);
        let large = PhaseCall::stream(Arc::clone(&cfg), 2 << 20, 1 << 20, CAP);
        assert_ne!(small.key(), large.key());
        assert_eq!(sim_key(&small), sim_key(&large));
        let cut = "phase/v2/stream/read_bytes=256000,write_bytes=128000,cap_bursts=6000/";
        assert!(sim_key(&small).starts_with(cut));
        let stats = small.simulation().unwrap().run().unwrap();
        assert_eq!(large.result(&stats), large.execute().unwrap());
        assert_eq!(large.result(&stats).scale, 2.0 * small.result(&stats).scale);
        // A call that does not simulate has no simulation and answers
        // empty whatever the statistics.
        let none = PhaseCall::stream(Arc::clone(&cfg), 0, 0, CAP);
        assert!(none.simulation().is_none());
        assert_eq!(none.result(&stats), PhaseResult::empty());
    }

    #[test]
    fn executors_run_their_call() {
        let cfg = SystemConfig::new(Design::Baseline).dram();
        let call = PhaseCall::stream(cfg.clone(), 1 << 20, 512 << 10, CAP);
        assert!(call.simulates());
        assert_eq!(call.context(), "stream");
        assert_eq!(call.execute().unwrap(), stream_phase(&cfg, 1 << 20, 512 << 10, CAP).unwrap());
        // Calls that do not simulate answer empty: no traffic, no
        // parameters, or quantization kernels at a single precision.
        let hyper = HyperParams::default();
        let full = PrecisionMix::FULL_32;
        let opt = OptimizerKind::MomentumSgd;
        for call in [
            PhaseCall::stream(cfg.clone(), 0, 0, CAP),
            PhaseCall::pim_update(cfg.clone(), opt, full, &hyper, 0, CAP),
            PhaseCall::pim_quant_dequant(cfg.clone(), opt, full, &hyper, 4096, CAP),
        ] {
            assert!(!call.simulates(), "{call:?}");
            assert_eq!(call.execute().unwrap(), PhaseResult::empty());
        }
        assert!(PhaseCall::pim_update(cfg.clone(), opt, full, &hyper, 4096, CAP).simulates());
    }

    #[test]
    fn empty_phases() {
        let cfg = SystemConfig::new(Design::Baseline).dram();
        assert_eq!(stream_phase(&cfg, 0, 0, CAP).unwrap(), PhaseResult::empty());
        assert_eq!(
            baseline_update_phase(&cfg, OptimizerKind::Sgd, PrecisionMix::MIXED_8_32, 0, CAP)
                .unwrap(),
            PhaseResult::empty()
        );
    }
}
