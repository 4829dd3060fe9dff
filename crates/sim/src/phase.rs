//! Phase executors: run one training phase's memory traffic through the
//! cycle-level DRAM simulator and report time/energy/bandwidth.
//!
//! ## Event-driven stepping
//!
//! The executors drive the simulator with
//! [`MemorySystem::tick_until_event`] and the event-driven
//! [`MemorySystem::drain`]: instead of spinning one tCK at a time while a
//! queue is full or in-flight work retires, they jump straight to the next
//! cycle at which anything can happen. The results (stats, completions,
//! traces) are identical to per-cycle stepping — set `GRADPIM_REFERENCE=1`
//! to force the per-cycle reference path for differential runs.
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

use gradpim_core::{compile_step_parts, ArrayName, KernelParts, Placement};
use gradpim_dram::{
    AddressMapping, DramConfig, EnergyBreakdown, MemError, MemorySystem, PimOp, Stats,
};
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix};

/// A phase executor failed: the simulator reported a condition that cannot
/// arise from well-formed phase traffic (e.g. a scheduler livelock hitting
/// the drain budget). Carries diagnostics instead of hanging a sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseError {
    /// Which executor / stage failed.
    pub context: &'static str,
    /// The underlying memory-system error.
    pub source: MemError,
    /// Simulated cycle at which the error surfaced.
    pub cycles: u64,
    /// Transactions still outstanding.
    pub pending: usize,
}

impl PhaseError {
    fn new(context: &'static str, source: MemError, mem: &MemorySystem) -> Self {
        Self { context, source, cycles: mem.cycles(), pending: mem.pending() }
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

/// `GRADPIM_REFERENCE=1` forces per-cycle stepping (differential runs).
fn reference_mode() -> bool {
    crate::env::reference_mode()
}

/// A phase-result memo an execution engine can install around sweep
/// jobs. Phase executors are pure
/// functions of their arguments, so two sweep points that share a
/// `(config × traffic shape × optimizer × precision)` phase produce
/// bit-identical [`PhaseResult`]s — a memo collapses such repeats to one
/// simulation. Keys are exact: they render every argument (including the
/// full [`DramConfig`]) via `Debug`, so a hit can only be served for the
/// identical computation, and [`PhaseResult::to_bits_string`] round-trips
/// every `f64` bit-exactly. `GRADPIM_REFERENCE=1` bypasses memoization
/// entirely (reference runs exist to exercise the simulation path).
pub trait PhaseMemo: Send + Sync {
    /// Returns the stored result for `key`, if any.
    fn get(&self, key: &str) -> Option<PhaseResult>;
    /// Stores `result` under `key`.
    fn put(&self, key: &str, result: &PhaseResult);
}

thread_local! {
    /// The ambient phase memo for this thread, if a driver installed one.
    /// Thread-local (not global) so concurrent engines — or an engine job
    /// and an unrelated sequential run — never see each other's stores.
    static PHASE_MEMO: std::cell::RefCell<Option<std::sync::Arc<dyn PhaseMemo>>> =
        const { std::cell::RefCell::new(None) };
}

/// Runs `f` with `memo` installed as this thread's ambient phase memo;
/// the previous memo is restored afterwards, even on unwind, so scopes
/// nest cleanly. Every phase executor reached from `f` consults the memo
/// before simulating (except under `GRADPIM_REFERENCE=1`).
pub fn with_phase_memo<T>(memo: std::sync::Arc<dyn PhaseMemo>, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<std::sync::Arc<dyn PhaseMemo>>);
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
fn current_phase_memo() -> Option<std::sync::Arc<dyn PhaseMemo>> {
    PHASE_MEMO.with(|cell| cell.borrow().clone())
}

/// Consults the ambient memo before running `compute`. The key is only
/// rendered when a memo is installed, so uncached runs pay nothing. A
/// stored result is returned as-is — executors are pure, so it is
/// bit-identical to recomputing. Reference mode bypasses the memo.
fn memoized(
    key_of: impl FnOnce() -> String,
    compute: impl FnOnce() -> Result<PhaseResult, PhaseError>,
) -> Result<PhaseResult, PhaseError> {
    let memo = match current_phase_memo() {
        Some(m) if !reference_mode() => m,
        _ => return compute(),
    };
    let key = key_of();
    if let Some(hit) = memo.get(&key) {
        return Ok(hit);
    }
    let out = compute()?;
    memo.put(&key, &out);
    Ok(out)
}

/// One backpressure step: per-cycle in reference mode, event-driven
/// otherwise (observably identical).
fn step(mem: &mut MemorySystem) {
    if reference_mode() {
        mem.tick();
    } else {
        mem.tick_until_event();
    }
}

/// Drains with a generous finite budget so a scheduler livelock surfaces as
/// a loud [`PhaseError`] with diagnostics instead of hanging the sweep.
fn drain_phase(mem: &mut MemorySystem, context: &'static str) -> Result<(), PhaseError> {
    // Worst-case retirement of one queued transaction is bounded by a few
    // hundred cycles (tRC/tRFC scale); 100k cycles each plus a large idle
    // floor is orders of magnitude beyond any legitimate drain.
    let budget = 50_000_000 + mem.pending() as u64 * 100_000;
    let res = if reference_mode() { mem.drain_reference(budget) } else { mem.drain(budget) };
    res.map(drop).map_err(|e| PhaseError::new(context, e, mem))
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

    /// Exact serialization for [`PhaseMemo`] stores: every `f64` as its
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

/// Runs one executor body through [`memoized`] and feeds the phase's
/// headline observables into the metrics registry: scaled simulated
/// time (`sim_ns`), the host time spent in the executor (`host_ns`, a
/// memo hit included), raw simulated cycles and scaled energy. Without
/// metrics enabled no clock is read.
fn observed(
    context: &'static str,
    key_of: impl FnOnce() -> String,
    compute: impl FnOnce() -> Result<PhaseResult, PhaseError>,
) -> Result<PhaseResult, PhaseError> {
    let start = gradpim_obs::metrics_enabled().then(std::time::Instant::now);
    let result = memoized(key_of, compute)?;
    if let Some(start) = start {
        let host_ns = start.elapsed().as_nanos() as f64;
        gradpim_obs::observe(&format!("phase.{context}.sim_ns"), result.time_ns);
        gradpim_obs::observe(&format!("phase.{context}.host_ns"), host_ns);
        gradpim_obs::observe(&format!("phase.{context}.sim_cycles"), result.sim_cycles as f64);
        gradpim_obs::observe(&format!("phase.{context}.energy_pj"), result.energy.total_pj());
    }
    Ok(result)
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

/// Enqueues requests with backpressure (fast-forwarding over dead cycles),
/// then drains under a finite budget.
fn run_requests(
    mem: &mut MemorySystem,
    reqs: impl Iterator<Item = Req>,
    context: &'static str,
) -> Result<(), PhaseError> {
    let _span = gradpim_obs::span_lazy(|| format!("phase.{context}"), "phase");
    for r in reqs {
        loop {
            let res = match r {
                Req::Read(a) => mem.enqueue_read(a).map(drop),
                Req::Write(a) => mem.enqueue_write(a, None).map(drop),
            };
            match res {
                Ok(()) => break,
                Err(MemError::QueueFull) => step(mem),
                Err(e) => return Err(PhaseError::new(context, e, mem)),
            }
        }
    }
    drain_phase(mem, context)?;
    record_work(mem, context);
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
    let burst = cfg.burst_bytes as u64;
    let r_total = read_bytes.div_ceil(burst);
    let w_total = write_bytes.div_ceil(burst);
    let total = r_total + w_total;
    if total == 0 {
        return Ok(PhaseResult::empty());
    }
    let sim_total = total.min(cap_bursts.max(16));
    let r_sim = (r_total as u128 * sim_total as u128 / total as u128) as u64;
    let w_sim = sim_total - r_sim;
    let scale = total as f64 / sim_total as f64;

    observed(
        "stream",
        || format!("phase/v1/stream/{read_bytes}/{write_bytes}/{cap_bursts}/{cfg:?}"),
        || {
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            // Reads walk bank region 0, writes bank region 2 (disjoint banks under
            // the Fig. 7 mapping).
            let w_base = AddressMapping::GradPim.capacity_bytes(cfg) / 2;
            // Batch reads and writes (write-drain style) in traffic proportion.
            const R_BATCH: u64 = 32;
            let w_batch =
                if r_sim == 0 { 32 } else { (R_BATCH * w_sim).div_ceil(r_sim.max(1)).max(1) };
            let cfg2 = cfg.clone();
            let (mut ri, mut wi) = (0u64, 0u64);
            let mut phase_w = false;
            let mut left_in_batch = R_BATCH;
            let reqs = std::iter::from_fn(move || loop {
                if ri >= r_sim && wi >= w_sim {
                    return None;
                }
                if left_in_batch == 0 || (!phase_w && ri >= r_sim) || (phase_w && wi >= w_sim) {
                    phase_w = !phase_w;
                    left_in_batch = if phase_w { w_batch } else { R_BATCH };
                    continue;
                }
                left_in_batch -= 1;
                if !phase_w {
                    if ri < r_sim {
                        let a = interleaved_addr(&cfg2, 0, ri);
                        ri += 1;
                        return Some(Req::Read(a));
                    }
                } else if wi < w_sim {
                    let a = interleaved_addr(&cfg2, w_base, wi);
                    wi += 1;
                    return Some(Req::Write(a));
                }
            });
            run_requests(&mut mem, reqs, "stream")?;
            Ok(PhaseResult::from_stats(cfg, &mem.stats(), scale))
        },
    )
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
    if params == 0 {
        return Ok(PhaseResult::empty());
    }
    observed(
        "baseline-update",
        || format!("phase/v1/baseline-update/{optimizer:?}/{mix:?}/{params}/{cap_params}/{cfg:?}"),
        || {
            let sim_params = params.min(cap_params.max(1024)) as usize;
            let scale = params as f64 / sim_params as f64;
            let placement = Placement::for_optimizer(optimizer, mix, sim_params, cfg)
                .expect("placement for baseline update");
            let ratio = mix.quant_ratio() as u32;
            let mixed = mix.is_mixed();
            let states: Vec<ArrayName> = [ArrayName::State0, ArrayName::State1]
                .into_iter()
                .take(optimizer.state_arrays())
                .collect();

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
                                reqs.push(Req::Read(placement.quant_col_addr(
                                    qg,
                                    &chunk,
                                    c / ratio,
                                    cfg,
                                )));
                            }
                        } else {
                            let g = placement.array(ArrayName::Grad);
                            reqs.push(Req::Read(placement.col_addr(g, &chunk, c, cfg)));
                        }
                        let theta = placement.array(ArrayName::Theta);
                        reqs.push(Req::Read(placement.col_addr(theta, &chunk, c, cfg)));
                        for s in &states {
                            reqs.push(Req::Read(placement.col_addr(
                                placement.array(*s),
                                &chunk,
                                c,
                                cfg,
                            )));
                        }
                    }
                    for c in col..hi {
                        let theta = placement.array(ArrayName::Theta);
                        reqs.push(Req::Write(placement.col_addr(theta, &chunk, c, cfg)));
                        for s in &states {
                            reqs.push(Req::Write(placement.col_addr(
                                placement.array(*s),
                                &chunk,
                                c,
                                cfg,
                            )));
                        }
                        if mixed && (c % ratio == ratio - 1 || c == chunk.cols - 1) {
                            let qt = placement.array(ArrayName::QTheta);
                            reqs.push(Req::Write(placement.quant_col_addr(
                                qt,
                                &chunk,
                                c / ratio,
                                cfg,
                            )));
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
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            run_requests(&mut mem, merged.into_iter(), "baseline-update")?;
            Ok(PhaseResult::from_stats(cfg, &mem.stats(), scale))
        },
    )
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
    pim_kernel_phase(cfg, optimizer, mix, hyper, params, cap_params, KernelParts::UPDATE_ONLY)
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
    if !mix.is_mixed() {
        return Ok(PhaseResult::empty());
    }
    pim_kernel_phase(cfg, optimizer, mix, hyper, params, cap_params, KernelParts::QUANT_DEQUANT)
}

fn pim_kernel_phase(
    cfg: &DramConfig,
    optimizer: OptimizerKind,
    mix: PrecisionMix,
    hyper: &HyperParams,
    params: u64,
    cap_params: u64,
    parts: KernelParts,
) -> Result<PhaseResult, PhaseError> {
    if params == 0 {
        return Ok(PhaseResult::empty());
    }
    observed(
        "pim-kernel",
        || {
            format!(
                "phase/v1/pim-kernel/{optimizer:?}/{mix:?}/{hyper:?}/{params}/{cap_params}/{parts:?}/{cfg:?}"
            )
        },
        || {
            let sim_params = params.min(cap_params.max(1024)) as usize;
            let scale = params as f64 / sim_params as f64;
            let placement = Placement::for_optimizer(optimizer, mix, sim_params, cfg)
                .expect("placement for PIM update");
            let plan =
                compile_step_parts(&placement, hyper, cfg, parts).expect("kernel compilation");
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            run_unit_streams(
                &mut mem,
                plan.streams.iter().map(|s| (s.channel, s.rank, s.bankgroup, s.ops.as_slice())),
                "pim-kernel",
            )?;
            Ok(PhaseResult::from_stats(cfg, &mem.stats(), scale))
        },
    )
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
    if params == 0 {
        return Ok(PhaseResult::empty());
    }
    observed(
        "aos-pb",
        || format!("phase/v1/aos-pb/{optimizer:?}/{mix:?}/{params}/{cap_params}/{cfg:?}"),
        || {
            let high = mix.high.bytes();
            let epc = cfg.burst_bytes / high;
            // Struct fields per element: θ + g + states (+ quantized shadow slot).
            let fields = 2 + optimizer.state_arrays() + usize::from(mix.is_mixed());
            let cols_per_chunk = (cfg.columns / fields).max(1) as u32;
            let elems_per_chunk = epc * cols_per_chunk as usize;

            let sim_params = params.min(cap_params.max(1024)) as usize;
            let scale = params as f64 / sim_params as f64;
            let n_chunks = sim_params.div_ceil(elems_per_chunk);

            let mut streams: Vec<(usize, u8, u8, Vec<PimOp>)> = Vec::new();
            for c in 0..n_chunks {
                let bg = (c % cfg.bankgroups) as u8;
                let rank = ((c / cfg.bankgroups) % cfg.ranks) as u8;
                let wave = c / (cfg.bankgroups * cfg.ranks);
                let bank = (wave % cfg.banks_per_group) as u8;
                let row = (wave / cfg.banks_per_group) as u32;
                let idx =
                    streams.iter().position(|s| s.1 == rank && s.2 == bg).unwrap_or_else(|| {
                        streams.push((0, rank, bg, Vec::new()));
                        streams.len() - 1
                    });
                let ops = &mut streams[idx].3;
                let remaining = sim_params - c * elems_per_chunk;
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
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            run_unit_streams(
                &mut mem,
                streams.iter().map(|s| (s.0, s.1, s.2, s.3.as_slice())),
                "aos-pb",
            )?;
            Ok(PhaseResult::from_stats(cfg, &mem.stats(), scale))
        },
    )
}

/// Round-robin enqueue of per-unit op streams with backpressure
/// (fast-forwarding over dead cycles), then drain under a finite budget.
///
/// A round gives each unfinished stream a bounded batch. Once every
/// unfinished stream has stopped on a full queue, no enqueue can succeed
/// before the simulator moves, so the loop steps right away.
fn run_unit_streams<'a>(
    mem: &mut MemorySystem,
    streams: impl Iterator<Item = (usize, u8, u8, &'a [PimOp])>,
    context: &'static str,
) -> Result<(), PhaseError> {
    let _span = gradpim_obs::span_lazy(|| format!("phase.{context}"), "phase");
    let streams: Vec<_> = streams.collect();
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut all_done = true;
        let mut all_full = true;
        for (i, (ch, rank, bg, ops)) in streams.iter().enumerate() {
            // Bounded batch per unit per round to keep queues balanced.
            let mut budget = 64;
            let mut full = false;
            while cursors[i] < ops.len() && budget > 0 {
                match mem.enqueue_pim(*ch, *rank, *bg, ops[cursors[i]]) {
                    Ok(_) => {
                        cursors[i] += 1;
                        budget -= 1;
                    }
                    Err(MemError::QueueFull) => {
                        full = true;
                        break;
                    }
                    Err(e) => return Err(PhaseError::new(context, e, mem)),
                }
            }
            if cursors[i] < ops.len() {
                all_done = false;
                all_full &= full;
            }
        }
        if all_done {
            break;
        }
        if all_full {
            step(mem);
        }
    }
    drain_phase(mem, context)?;
    record_work(mem, context);
    Ok(())
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
        if reference_mode() {
            return; // reference runs bypass memoization by design
        }
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
