//! Golden digests of the simulator's observable outputs.
//!
//! The fast ≡ per-cycle oracles compare two paths through the same
//! controller, so a change that alters both the same way (say, a stale
//! scheduling cache read by `tick` itself) yields a legal but different
//! trace that they cannot see. These tests pin the outputs themselves: a
//! probe suite whose results are rendered field by field (every `f64` via
//! `to_bits`, never `Debug`) and hashed with 64-bit FNV-1a, against
//! constants recorded before the controller's issue-selection caches
//! existed. A digest that moves means the simulated model changed.
//!
//! Four layers are covered:
//! * `PhaseResult::to_bits_string()` of the phase executors: stream,
//!   baseline update, PIM kernels and AoS-PB on every `Design` view of
//!   DDR4-2133, plus stream and PIM kernels on the other presets. The
//!   same probes pin `PhaseCall::key()`, the key result stores use.
//! * The command trace, `Stats` and completions of mixed read/write/PIM
//!   traffic idled across a refresh window, at power-down 16/64/off, in
//!   Direct and PerRankBuffered issue modes.
//! * The functional in-DRAM update: three `GradPimMemory` steps of SGD,
//!   momentum and NAG on every precision mix and three group shapes, and
//!   of stacked Adam on an extended-ALU device, each step's cycles and
//!   commands and the bits of every array the facade reads back.
//! * The report JSON of every experiment on `MLP1`, which pins the sweep
//!   families' enumeration and row arithmetic above the phase layer.
//!
//! The DDR4-2133 probes also bound the controller's work per issued
//! command and the PIM executors' rejected enqueues, read from the
//! `phase.<ctx>.dram.*` counters, and every experiment is checked to
//! answer each distinct phase call of its plan once and to run each
//! distinct simulation once.

use std::sync::{Mutex, PoisonError};

use gradpim::core::GradPimMemory;
use gradpim::dram::{
    AddressMapping, BankAddr, Command, CommandIssueMode, Completion, DramConfig, MemError,
    MemorySystem, PimOp, Stats, TraceEntry,
};
use gradpim::optim::{HyperParams, OptimizerKind, PrecisionMix};
use gradpim::sim::phase;
use gradpim::sim::{Design, PhaseCall, PhaseResult, SystemConfig};

/// 64-bit FNV-1a: stable across toolchains and platforms, unlike
/// `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Phase layer
// ---------------------------------------------------------------------------

/// Stream traffic of the phase probes: bytes read, bytes written, burst cap.
const STREAM: (u64, u64, u64) = (1 << 20, 512 << 10, 8192);
/// Parameters and simulation cap of the update probes.
const UPDATE: (u64, u64) = (256 << 10, 65536);

/// The phase executors the probes call, by probe kind.
const KINDS: [&str; 5] = ["stream", "baseline-update", "pim-update", "pim-quant-dequant", "aos-pb"];

/// Runs one phase probe of `kind` on `cfg`.
fn run_probe(kind: &str, cfg: &DramConfig) -> PhaseResult {
    let (read, write, bursts) = STREAM;
    let (params, cap) = UPDATE;
    let (opt, mix) = (OptimizerKind::MomentumSgd, PrecisionMix::MIXED_8_32);
    let hyper = HyperParams::default();
    match kind {
        "stream" => phase::stream_phase(cfg, read, write, bursts),
        "baseline-update" => phase::baseline_update_phase(cfg, opt, mix, params, cap),
        "pim-update" => phase::pim_update_phase(cfg, opt, mix, &hyper, params, cap),
        "pim-quant-dequant" => phase::pim_quant_dequant_phase(cfg, opt, mix, &hyper, params, cap),
        "aos-pb" => phase::aos_per_bank_update_phase(cfg, opt, mix, params, cap),
        _ => unreachable!("unknown probe kind {kind}"),
    }
    .unwrap()
}

/// The call one phase probe of `kind` makes on `cfg`.
fn probe_call(kind: &str, cfg: &DramConfig) -> PhaseCall {
    let (read, write, bursts) = STREAM;
    let (params, cap) = UPDATE;
    let (opt, mix) = (OptimizerKind::MomentumSgd, PrecisionMix::MIXED_8_32);
    let hyper = HyperParams::default();
    let cfg = cfg.clone();
    match kind {
        "stream" => PhaseCall::stream(cfg, read, write, bursts),
        "baseline-update" => PhaseCall::baseline_update(cfg, opt, mix, params, cap),
        "pim-update" => PhaseCall::pim_update(cfg, opt, mix, &hyper, params, cap),
        "pim-quant-dequant" => PhaseCall::pim_quant_dequant(cfg, opt, mix, &hyper, params, cap),
        "aos-pb" => PhaseCall::aos_per_bank_update(cfg, opt, mix, params, cap),
        _ => unreachable!("unknown probe kind {kind}"),
    }
}

/// The phase probe suite, in a fixed order: (name, kind, config).
fn phase_probes() -> Vec<(String, &'static str, DramConfig)> {
    let mut probes = Vec::new();
    for design in Design::ALL {
        for kind in KINDS {
            let cfg = SystemConfig::new(design).dram();
            probes.push((format!("ddr4_2133/{design:?}/{kind}"), kind, cfg));
        }
    }
    for (name, cfg) in [
        ("ddr4_3200", DramConfig::ddr4_3200()),
        ("hbm2_like", DramConfig::hbm2_like()),
        ("ddr5_like", DramConfig::ddr5_like()),
    ] {
        for kind in ["stream", "pim-update"] {
            probes.push((format!("{name}/{kind}"), kind, cfg.clone()));
        }
    }
    probes
}

/// Digests recorded on the tree before the issue-selection caches.
const PHASE_GOLDEN: &[(&str, u64)] = &[
    ("ddr4_2133/Baseline/stream", 0x594cc7e9577a9afa),
    ("ddr4_2133/Baseline/baseline-update", 0x35fb2ac894381e51),
    ("ddr4_2133/Baseline/pim-update", 0x683121f45b2a27d9),
    ("ddr4_2133/Baseline/pim-quant-dequant", 0x39a8c83c64b2aba1),
    ("ddr4_2133/Baseline/aos-pb", 0x8fe824d6467f55e9),
    ("ddr4_2133/GradPimDirect/stream", 0x594cc7e9577a9afa),
    ("ddr4_2133/GradPimDirect/baseline-update", 0x35fb2ac894381e51),
    ("ddr4_2133/GradPimDirect/pim-update", 0x683121f45b2a27d9),
    ("ddr4_2133/GradPimDirect/pim-quant-dequant", 0x39a8c83c64b2aba1),
    ("ddr4_2133/GradPimDirect/aos-pb", 0x8fe824d6467f55e9),
    ("ddr4_2133/TensorDimm/stream", 0xc0bffed6e21a6ffb),
    ("ddr4_2133/TensorDimm/baseline-update", 0x17db3a6be310d129),
    ("ddr4_2133/TensorDimm/pim-update", 0xff369aa2c88af5bf),
    ("ddr4_2133/TensorDimm/pim-quant-dequant", 0x7f02a60c17c50271),
    ("ddr4_2133/TensorDimm/aos-pb", 0x6a7101ef011eae1d),
    ("ddr4_2133/GradPimBuffered/stream", 0xb87340ba3bf48703),
    ("ddr4_2133/GradPimBuffered/baseline-update", 0x7c51eaf6469eade6),
    ("ddr4_2133/GradPimBuffered/pim-update", 0xff369aa2c88af5bf),
    ("ddr4_2133/GradPimBuffered/pim-quant-dequant", 0x7f02a60c17c50271),
    ("ddr4_2133/GradPimBuffered/aos-pb", 0x6a7101ef011eae1d),
    ("ddr4_2133/Aos/stream", 0xb87340ba3bf48703),
    ("ddr4_2133/Aos/baseline-update", 0x7c51eaf6469eade6),
    ("ddr4_2133/Aos/pim-update", 0xff369aa2c88af5bf),
    ("ddr4_2133/Aos/pim-quant-dequant", 0x7f02a60c17c50271),
    ("ddr4_2133/Aos/aos-pb", 0x6a7101ef011eae1d),
    ("ddr4_2133/AosPerBank/stream", 0xb87340ba3bf48703),
    ("ddr4_2133/AosPerBank/baseline-update", 0x7c51eaf6469eade6),
    ("ddr4_2133/AosPerBank/pim-update", 0x74c315d9f7bf1d07),
    ("ddr4_2133/AosPerBank/pim-quant-dequant", 0x6c176cfad97999ab),
    ("ddr4_2133/AosPerBank/aos-pb", 0x3b7ffaaddd7b0236),
    ("ddr4_3200/stream", 0x6e57120ce76a12ef),
    ("ddr4_3200/pim-update", 0xc2591178c9e724c3),
    ("hbm2_like/stream", 0x878c9efe7957ee13),
    ("hbm2_like/pim-update", 0x74d344c3d412fcfa),
    ("ddr5_like/stream", 0xf331a7e7941f7952),
    ("ddr5_like/pim-update", 0xd95da66ac34985fa),
];

/// Digests of `PhaseCall::key()` for the phase probes. A key that moves
/// orphans every stored phase result, so a deliberate format change bumps
/// the key's version and re-records these.
const PHASE_KEY_GOLDEN: &[(&str, u64)] = &[
    ("ddr4_2133/Baseline/stream", 0xb45c8621e08fd5ff),
    ("ddr4_2133/Baseline/baseline-update", 0x4010586f44b7d34a),
    ("ddr4_2133/Baseline/pim-update", 0xf49fd0cc801465c1),
    ("ddr4_2133/Baseline/pim-quant-dequant", 0xaa7b628c57e16594),
    ("ddr4_2133/Baseline/aos-pb", 0x5b3a442858c7c671),
    ("ddr4_2133/GradPimDirect/stream", 0xb45c8621e08fd5ff),
    ("ddr4_2133/GradPimDirect/baseline-update", 0x4010586f44b7d34a),
    ("ddr4_2133/GradPimDirect/pim-update", 0xf49fd0cc801465c1),
    ("ddr4_2133/GradPimDirect/pim-quant-dequant", 0xaa7b628c57e16594),
    ("ddr4_2133/GradPimDirect/aos-pb", 0x5b3a442858c7c671),
    ("ddr4_2133/TensorDimm/stream", 0x37e8b6f494481cc7),
    ("ddr4_2133/TensorDimm/baseline-update", 0x270f6836b0ef8596),
    ("ddr4_2133/TensorDimm/pim-update", 0x07af7d57fcef93ed),
    ("ddr4_2133/TensorDimm/pim-quant-dequant", 0xa2c4abe575a001e4),
    ("ddr4_2133/TensorDimm/aos-pb", 0x47da953442d1c51d),
    ("ddr4_2133/GradPimBuffered/stream", 0x23506fd3106b94a0),
    ("ddr4_2133/GradPimBuffered/baseline-update", 0x09be826a27ec974f),
    ("ddr4_2133/GradPimBuffered/pim-update", 0x1bf368a90fe5d586),
    ("ddr4_2133/GradPimBuffered/pim-quant-dequant", 0x484bdd348011bf55),
    ("ddr4_2133/GradPimBuffered/aos-pb", 0xf3db5126ecbd82b6),
    ("ddr4_2133/Aos/stream", 0x23506fd3106b94a0),
    ("ddr4_2133/Aos/baseline-update", 0x09be826a27ec974f),
    ("ddr4_2133/Aos/pim-update", 0x1bf368a90fe5d586),
    ("ddr4_2133/Aos/pim-quant-dequant", 0x484bdd348011bf55),
    ("ddr4_2133/Aos/aos-pb", 0xf3db5126ecbd82b6),
    ("ddr4_2133/AosPerBank/stream", 0x9bbe28985d68d9b6),
    ("ddr4_2133/AosPerBank/baseline-update", 0xfb708fc1396e8131),
    ("ddr4_2133/AosPerBank/pim-update", 0xbada38bd7c887560),
    ("ddr4_2133/AosPerBank/pim-quant-dequant", 0x04ba5dd0d324aed3),
    ("ddr4_2133/AosPerBank/aos-pb", 0x3bcae963e63fc870),
    ("ddr4_3200/stream", 0x8abb3558597ad4b0),
    ("ddr4_3200/pim-update", 0x1dba7730a855d542),
    ("hbm2_like/stream", 0x83572e7a2d671c2d),
    ("hbm2_like/pim-update", 0xd1acd29586dffdc7),
    ("ddr5_like/stream", 0xc6c4e0a58af8f779),
    ("ddr5_like/pim-update", 0xcaef9ed893a99f3f),
];

// ---------------------------------------------------------------------------
// Memory-system layer
// ---------------------------------------------------------------------------

fn render_bank(out: &mut String, b: BankAddr) {
    out.push_str(&format!(" {}.{}.{}", b.rank, b.bankgroup, b.bank));
}

/// Explicit rendering of one command: a variant tag and every field.
fn render_cmd(out: &mut String, cmd: &Command) {
    match *cmd {
        Command::Activate { bank, row } => {
            out.push_str("ACT");
            render_bank(out, bank);
            out.push_str(&format!(" {row}"));
        }
        Command::Precharge { bank } => {
            out.push_str("PRE");
            render_bank(out, bank);
        }
        Command::PrechargeAll { rank } => out.push_str(&format!("PREA {rank}")),
        Command::Read { bank, row, col } => {
            out.push_str("RD");
            render_bank(out, bank);
            out.push_str(&format!(" {row} {col}"));
        }
        Command::Write { bank, row, col } => {
            out.push_str("WR");
            render_bank(out, bank);
            out.push_str(&format!(" {row} {col}"));
        }
        Command::Refresh { rank } => out.push_str(&format!("REF {rank}")),
        Command::Pim { rank, bankgroup, op } => {
            let (tag, fields) = match op {
                PimOp::ScaledRead { row, col, scaler, dst, .. } => {
                    ("SRD", format!("{row} {col} {scaler} {dst}"))
                }
                PimOp::Writeback { row, col, src, .. } => ("WB", format!("{row} {col} {src}")),
                PimOp::QRegLoad { row, col, .. } => ("QLD", format!("{row} {col}")),
                PimOp::QRegStore { row, col, .. } => ("QST", format!("{row} {col}")),
                PimOp::Add { dst, .. } => ("ADD", format!("{dst}")),
                PimOp::Sub { dst, .. } => ("SUB", format!("{dst}")),
                PimOp::Quant { pos, src, .. } => ("Q", format!("{pos} {src}")),
                PimOp::Dequant { pos, dst, .. } => ("DQ", format!("{pos} {dst}")),
                PimOp::Mul { dst, .. } => ("MUL", format!("{dst}")),
                PimOp::Rsqrt { dst, .. } => ("RSQ", format!("{dst}")),
            };
            out.push_str(tag);
            render_bank(out, BankAddr { rank, bankgroup, bank: op.bank() });
            out.push_str(&format!(" {fields}"));
        }
    }
}

/// Explicit rendering of every `Stats` field (floats by bit pattern).
fn render_stats(out: &mut String, s: &Stats) {
    let ints = [
        s.channels,
        s.cycles,
        s.cmd_slots,
        s.data_bus_busy,
        s.external_read_bytes,
        s.external_write_bytes,
        s.internal_read_bytes,
        s.internal_write_bytes,
        s.completed,
        s.powerdown_cycles,
        s.bg_active_cycles,
        s.bg_precharged_cycles,
    ];
    out.push_str("stats");
    for v in ints.iter().chain(&s.commands) {
        out.push_str(&format!(" {v}"));
    }
    let e = &s.energy;
    for v in [e.act_pj, e.rd_pj, e.wr_pj, e.io_pj, e.pim_pj, e.refresh_pj, e.background_pj] {
        out.push_str(&format!(" {:x}", v.to_bits()));
    }
    out.push('\n');
}

fn render_outputs(trace: &[Vec<TraceEntry>], stats: &Stats, done: &[Completion]) -> String {
    let mut out = String::new();
    for (ch, entries) in trace.iter().enumerate() {
        for e in entries {
            out.push_str(&format!("{ch} {} ", e.cycle));
            render_cmd(&mut out, &e.cmd);
            out.push('\n');
        }
    }
    render_stats(&mut out, stats);
    for c in done {
        out.push_str(&format!("done {} {}", c.id, c.at_cycle));
        if let Some(data) = &c.data {
            out.push_str(&format!(" {:x}", fnv1a(data)));
        }
        out.push('\n');
    }
    out
}

/// A small deterministic generator (xorshift64*) for probe traffic.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Enqueues with backpressure: steps to the next event while the target
/// queue is full.
fn push(
    mem: &mut MemorySystem,
    mut enqueue: impl FnMut(&mut MemorySystem) -> Result<u64, MemError>,
) {
    loop {
        match enqueue(mem) {
            Ok(_) => return,
            Err(MemError::QueueFull) => mem.tick_until_event(),
            Err(e) => panic!("probe enqueue failed: {e}"),
        }
    }
}

/// One burst of mixed traffic: row-hit runs and scattered reads/writes
/// over every rank, interleaved with momentum-style PIM ops on a few units.
fn mixed_traffic(mem: &mut MemorySystem, rng: &mut Rng, round: u64) {
    let cfg = mem.config().clone();
    let span = AddressMapping::GradPim.capacity_bytes(&cfg) / 64;
    for i in 0..160u64 {
        let r = rng.next();
        let addr = if r.is_multiple_of(3) {
            // Sequential run: row hits striped over bank groups.
            (round * 4096 + i) * cfg.burst_bytes as u64
        } else {
            (r >> 8) % span * cfg.burst_bytes as u64
        };
        if r.is_multiple_of(5) {
            push(mem, |m| m.enqueue_write(addr, None));
        } else {
            push(mem, |m| m.enqueue_read(addr));
        }
        if i.is_multiple_of(8) {
            let rank = (r >> 40) as u8 % cfg.ranks as u8;
            let bg = (r >> 44) as u8 % cfg.bankgroups as u8;
            let col = (i / 8 + round * 32) as u32 % cfg.columns as u32;
            let row = (r >> 48) as u32 % 4;
            for op in [
                PimOp::ScaledRead { bank: 1, row, col, scaler: 0, dst: 0 },
                PimOp::ScaledRead { bank: 2, row, col, scaler: 1, dst: 1 },
                PimOp::Add { bank: 0, dst: 1 },
                PimOp::Writeback { bank: 2, row, col, src: 1 },
            ] {
                push(mem, |m| m.enqueue_pim(0, rank, bg, op));
            }
        }
    }
}

/// Mixed traffic, a drain, an idle window spanning refreshes and
/// power-down transitions, a second burst that wakes the ranks, and a
/// final drain.
fn dram_probe(mode: CommandIssueMode, powerdown_idle: u64) -> String {
    let mut cfg = DramConfig::ddr4_2133();
    cfg.issue_mode = mode;
    cfg.powerdown_idle = powerdown_idle;
    let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
    mem.enable_trace();
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    mixed_traffic(&mut mem, &mut rng, 0);
    mem.drain(10_000_000).unwrap();
    mem.run_until(mem.cycles() + 2 * cfg.trefi + 97);
    mixed_traffic(&mut mem, &mut rng, 1);
    mem.drain(10_000_000).unwrap();
    let trace = mem.take_traces();
    render_outputs(&trace, &mem.stats(), &mem.take_completions())
}

fn dram_probes() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for mode in [CommandIssueMode::Direct, CommandIssueMode::PerRankBuffered] {
        for (pd, idle) in [("pd16", 16), ("pd64", 64), ("pdoff", u64::MAX)] {
            out.push((format!("{mode:?}/{pd}"), dram_probe(mode, idle)));
        }
    }
    out
}

/// Digests recorded on the tree before the issue-selection caches.
const DRAM_GOLDEN: &[(&str, u64)] = &[
    ("Direct/pd16", 0xb1416e364f978ab7),
    ("Direct/pd64", 0x4e7f05de63fd980e),
    ("Direct/pdoff", 0x82442823ad77237c),
    ("PerRankBuffered/pd16", 0xcff367770181fc55),
    ("PerRankBuffered/pd64", 0xd5babb11e92f724f),
    ("PerRankBuffered/pdoff", 0xb79e216258294842),
];

/// Compares `actual` against `golden` and, on any mismatch, fails with the
/// full actual table so a deliberate model change can be re-recorded.
fn check(layer: &str, actual: &[(String, u64)], golden: &[(&str, u64)]) {
    let same = actual.len() == golden.len()
        && actual.iter().zip(golden).all(|((an, ad), (gn, gd))| an == gn && ad == gd);
    if !same {
        let table: String =
            actual.iter().map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n")).collect();
        panic!("{layer} digests moved; actual:\n{table}");
    }
}

/// Serializes the tests that run phase executors: the work-counter test
/// switches on the process-global metrics registry and reads its deltas.
static PHASES: Mutex<()> = Mutex::new(());

#[test]
fn phase_results_match_golden_digests() {
    let _serial = PHASES.lock().unwrap_or_else(PoisonError::into_inner);
    let actual: Vec<(String, u64)> = phase_probes()
        .into_iter()
        .map(|(name, kind, cfg)| {
            let bits = run_probe(kind, &cfg).to_bits_string();
            (name, fnv1a(bits.as_bytes()))
        })
        .collect();
    check("phase", &actual, PHASE_GOLDEN);
}

#[test]
fn phase_call_keys_match_golden_digests() {
    let actual: Vec<(String, u64)> = phase_probes()
        .into_iter()
        .map(|(name, kind, cfg)| {
            let key = probe_call(kind, &cfg).key();
            assert!(key.starts_with("phase/v2/") && !key.contains('\n'), "{name}: {key}");
            (name, fnv1a(key.as_bytes()))
        })
        .collect();
    check("phase-key", &actual, PHASE_KEY_GOLDEN);
}

// ---------------------------------------------------------------------------
// Experiment layer
// ---------------------------------------------------------------------------

/// Digests of `report::to_json` for every experiment on `MLP1` at caps
/// `(1500, 20_000)`, recorded before the sweep families moved into one
/// module.
const EXPERIMENT_GOLDEN: &[(&str, u64)] = &[
    ("fig09", 0xd7b4d680755a5336),
    ("fig12a", 0xf2d8a88382c7eda5),
    ("fig12b", 0x3b854dceb92d97d5),
    ("fig12c", 0xea4c659e071f0418),
    ("fig13", 0x95cff1e236e3a12b),
    ("fig14", 0x8dfd1b7643a35f5e),
];

#[test]
fn experiment_reports_match_golden_digests() {
    use gradpim::engine::serialize::{Experiment, ExperimentSpec};
    use gradpim::engine::{report, Engine};
    let _serial = PHASES.lock().unwrap_or_else(PoisonError::into_inner);
    let engine = Engine::sequential();
    let actual: Vec<(String, u64)> = Experiment::ALL
        .into_iter()
        .map(|experiment| {
            let spec =
                ExperimentSpec::new(experiment, Some((1500, 20_000)), Some(vec!["MLP1".into()]));
            let json = report::to_json(&spec.run(&engine).unwrap());
            (experiment.name().to_string(), fnv1a(json.as_bytes()))
        })
        .collect();
    check("experiment", &actual, EXPERIMENT_GOLDEN);
}

#[test]
fn memory_system_outputs_match_golden_digests() {
    let actual: Vec<(String, u64)> =
        dram_probes().into_iter().map(|(name, text)| (name, fnv1a(text.as_bytes()))).collect();
    check("memory-system", &actual, DRAM_GOLDEN);
}

// ---------------------------------------------------------------------------
// Functional layer
// ---------------------------------------------------------------------------

/// One functional probe: the optimizer, the mix, the stacked group sizes
/// and the device.
type FunctionalProbe = (OptimizerKind, PrecisionMix, &'static [usize], DramConfig);

/// The momentum family on every mix and three group shapes (a partial
/// chunk, whole chunks, two stacked groups), then stacked Adam on an
/// extended-ALU device at 32/32 and 8/32.
fn functional_probes() -> Vec<(String, FunctionalProbe)> {
    let mut probes = Vec::new();
    let shapes: [&'static [usize]; 3] = [&[777], &[4096], &[2048, 512]];
    for opt in [OptimizerKind::Sgd, OptimizerKind::MomentumSgd, OptimizerKind::Nag] {
        for mix in PrecisionMix::ALL {
            for groups in shapes {
                probes.push((opt, mix, groups, DramConfig::ddr4_2133()));
            }
        }
    }
    let mut xalu = DramConfig::ddr4_2133();
    xalu.extended_alu = true;
    for mix in [PrecisionMix::FULL_32, PrecisionMix::MIXED_8_32] {
        probes.push((OptimizerKind::Adam, mix, &[2048, 512], xalu.clone()));
    }
    probes
        .into_iter()
        .map(|probe| {
            let (opt, mix, groups, _) = &probe;
            let sizes: Vec<String> = groups.iter().map(usize::to_string).collect();
            (format!("{opt:?}/{}-{}/{}", mix.low, mix.high, sizes.join("+")), probe)
        })
        .collect()
}

/// Three in-DRAM steps of `probe`, rendered: after each step its cycles
/// and commands, then the bits of θ, g, Q(θ) and every state array. The
/// inputs come from integer arithmetic and correctly rounded division
/// only, so no platform math library can move them.
fn functional_probe((opt, mix, groups, cfg): FunctionalProbe) -> Vec<u8> {
    let n: usize = groups.iter().sum();
    let mut mem = GradPimMemory::stacked(cfg, opt, mix, HyperParams::default(), groups).unwrap();
    let theta: Vec<f32> = (0..n).map(|i| (((i * 13) % 401) as f32 - 200.0) / 224.0).collect();
    mem.load_theta(&theta);
    let mut out = Vec::new();
    for step in 0..3 {
        let grads: Vec<f32> =
            (0..n).map(|i| ((((i + step * 59) * 23) % 89) as f32 - 44.0) / 64.0).collect();
        mem.write_gradients(&grads);
        let r = mem.step().unwrap();
        out.extend(
            format!("step {} {} {}\n", r.dequant_cycles, r.update_cycles, r.commands).bytes(),
        );
        let mut arrays = vec![mem.theta(), mem.grad(), mem.quantized_theta()];
        if opt.state_arrays() > 0 {
            arrays.push(mem.state0());
        }
        if opt.state_arrays() > 1 {
            arrays.push(mem.state1());
        }
        for values in arrays {
            out.extend(values.iter().flat_map(|v| v.to_bits().to_le_bytes()));
            out.push(b'\n');
        }
    }
    out
}

/// Digests recorded before the PIM ops, element formats and array
/// load/store paths each got one representation; the rows with int8 Q(θ)
/// re-recorded when re-quantization dropped its 1.25× range headroom.
const FUNCTIONAL_GOLDEN: &[(&str, u64)] = &[
    ("Sgd/8b-32b/777", 0xd9cbdbe7470014a7),
    ("Sgd/8b-32b/4096", 0x401389d4ddbb2e3a),
    ("Sgd/8b-32b/2048+512", 0xccb1537f3602b5b3),
    ("Sgd/16b-32b/777", 0x91ab4abd3d97c393),
    ("Sgd/16b-32b/4096", 0xa29bec1f4f6d4e20),
    ("Sgd/16b-32b/2048+512", 0xce420d66ae8b6ee2),
    ("Sgd/8b-16b/777", 0xc3a4e005f16a9ad8),
    ("Sgd/8b-16b/4096", 0x7dd31c6af5ab9e3a),
    ("Sgd/8b-16b/2048+512", 0xd81fd8c441300988),
    ("Sgd/32b-32b/777", 0x2bd24c1d7de61909),
    ("Sgd/32b-32b/4096", 0x447f0d607914f00c),
    ("Sgd/32b-32b/2048+512", 0x2af04f34270c4783),
    ("MomentumSgd/8b-32b/777", 0x36b3dab98d0b5fd6),
    ("MomentumSgd/8b-32b/4096", 0xbd7cbe32720f7a60),
    ("MomentumSgd/8b-32b/2048+512", 0x425d497561976d65),
    ("MomentumSgd/16b-32b/777", 0x53bd1b84446a40bf),
    ("MomentumSgd/16b-32b/4096", 0xe134fd00374af6f7),
    ("MomentumSgd/16b-32b/2048+512", 0x9a6e99a5c7fe40b0),
    ("MomentumSgd/8b-16b/777", 0x4004e0729ac450ee),
    ("MomentumSgd/8b-16b/4096", 0x88e0a10a40f5c22a),
    ("MomentumSgd/8b-16b/2048+512", 0x78b7deca9e293e1c),
    ("MomentumSgd/32b-32b/777", 0x28e1f4e377fdbf49),
    ("MomentumSgd/32b-32b/4096", 0xcc4e3bbe17cf0c6c),
    ("MomentumSgd/32b-32b/2048+512", 0x899d05fa15521670),
    ("Nag/8b-32b/777", 0xb80d61b5d3e6bd20),
    ("Nag/8b-32b/4096", 0xc7c25561d3cf32e2),
    ("Nag/8b-32b/2048+512", 0x9f11ca94fd0572c6),
    ("Nag/16b-32b/777", 0x459743b613d92ec3),
    ("Nag/16b-32b/4096", 0x4f5e5df205cb6135),
    ("Nag/16b-32b/2048+512", 0xc072463580f4c704),
    ("Nag/8b-16b/777", 0xefdc6103298333ad),
    ("Nag/8b-16b/4096", 0xf23d5acebb96d348),
    ("Nag/8b-16b/2048+512", 0x634ca5c546a5d56d),
    ("Nag/32b-32b/777", 0x0a98f6b19e6ed6ef),
    ("Nag/32b-32b/4096", 0xc6eb971017450fbb),
    ("Nag/32b-32b/2048+512", 0xa813eaa23f6703ac),
    ("Adam/32b-32b/2048+512", 0x2c14fcdb0275963f),
    ("Adam/8b-32b/2048+512", 0xd2f94e16f9d714b8),
];

#[test]
fn functional_steps_match_golden_digests() {
    let actual: Vec<(String, u64)> = functional_probes()
        .into_iter()
        .map(|(name, probe)| (name, fnv1a(&functional_probe(probe))))
        .collect();
    check("functional", &actual, FUNCTIONAL_GOLDEN);
}

/// The most work one issued command may cost on a DDR4-2133 probe of
/// phase context `context`: per counter of `phase.<context>.dram.*`, the
/// bound on that counter over `commands` as `(counter, numerator,
/// denominator)`. These only ever tighten.
fn work_bounds(context: &str) -> [(&'static str, u64, u64); 3] {
    // Queue slots the issue walks examine per command.
    let slots = match context {
        "stream" => 40,
        "baseline-update" => 50,
        _ => 18,
    };
    let evals = match context {
        "stream" | "baseline-update" => (3, 1),
        _ => (5, 4),
    };
    [("candidate_evals", evals.0, evals.1), ("events", 51, 50), ("slots_examined", slots, 1)]
}

/// Also bounds rejected enqueues: the PIM executors (pim-kernel, aos-pb)
/// enqueue only what a queue has room for, so none meets a full queue.
#[test]
fn candidate_evaluations_per_issued_command_stay_bounded() {
    let _serial = PHASES.lock().unwrap_or_else(PoisonError::into_inner);
    gradpim::obs::set_metrics(true);
    let mut checked = 0;
    for (name, kind, cfg) in phase_probes() {
        if !name.starts_with("ddr4_2133/") {
            continue;
        }
        let ctx = probe_call(kind, &cfg).context();
        let before = gradpim::obs::registry().counters;
        run_probe(kind, &cfg);
        let after = gradpim::obs::registry().counters;
        let delta = |counter: &str| {
            let key = format!("phase.{ctx}.dram.{counter}");
            let read = |counters: &std::collections::BTreeMap<String, u64>| {
                counters.get(&key).copied().unwrap_or(0)
            };
            read(&after) - read(&before)
        };
        let commands = delta("commands");
        assert!(commands > 0, "{name}: no commands counted");
        for (work, num, den) in work_bounds(ctx) {
            let n = delta(work);
            assert!(
                den * n <= num * commands,
                "{name}: {n} {work} for {commands} commands ({:.3} each, bound {:.3})",
                n as f64 / commands as f64,
                num as f64 / den as f64
            );
        }
        if matches!(ctx, "pim-kernel" | "aos-pb") {
            let rejected = delta("queue_full");
            assert_eq!(rejected, 0, "{name}: {rejected} PIM enqueues met a full queue");
        }
        checked += 1;
    }
    gradpim::obs::set_metrics(false);
    assert_eq!(checked, 30, "every DDR4-2133 probe of every phase context is checked");
}

/// Every phase call a run of `experiment` on `nets` plans, in figure
/// order: the calls of each point of its sweep family.
fn experiment_plan(
    experiment: gradpim::engine::serialize::Experiment,
    nets: &[gradpim::workloads::Network],
    quick: gradpim::sim::sweeps::QuickCaps,
) -> Vec<PhaseCall> {
    use gradpim::engine::serialize::Experiment;
    use gradpim::sim::sweeps::{
        BatchSize, DesignSpace, LayerScatter, OpsBandwidth, Precision, Scaling, SweepFamily,
    };
    fn plan<F: SweepFamily>(
        nets: &[gradpim::workloads::Network],
        quick: gradpim::sim::sweeps::QuickCaps,
    ) -> Vec<PhaseCall> {
        F::specs(nets, quick).iter().flat_map(F::plan).collect()
    }
    match experiment {
        Experiment::Fig09 => plan::<DesignSpace>(nets, quick),
        Experiment::Fig12a => plan::<OpsBandwidth>(nets, quick),
        Experiment::Fig12b => plan::<BatchSize>(nets, quick),
        Experiment::Fig12c => plan::<Precision>(nets, quick),
        Experiment::Fig13 => plan::<LayerScatter>(nets, quick),
        Experiment::Fig14 => plan::<Scaling>(nets, quick),
    }
}

#[test]
fn each_distinct_phase_call_simulates_once() {
    use gradpim::engine::serialize::{Experiment, ExperimentSpec};
    use gradpim::engine::Engine;
    use std::collections::BTreeSet;
    let _serial = PHASES.lock().unwrap_or_else(PoisonError::into_inner);
    // Observations of the phase histograms named `phase.*.<suffix>` so
    // far: each simulation records one `host_ns`, each call answered from
    // a simulation one `sim_ns`, and a call answered without simulating
    // neither.
    let observed = |suffix: &str| -> u64 {
        gradpim::obs::registry()
            .hists
            .iter()
            .filter(|(name, _)| name.starts_with("phase.") && name.ends_with(suffix))
            .map(|(_, h)| h.count)
            .sum()
    };
    let quick = Some((1500, 20_000));
    let nets = [gradpim::workloads::models::mlp()];
    gradpim::obs::set_metrics(true);
    for experiment in Experiment::ALL {
        let plan = experiment_plan(experiment, &nets, quick);
        let calls: BTreeSet<String> =
            plan.iter().filter(|c| c.simulates()).map(|c| c.key()).collect();
        let simulations: BTreeSet<String> =
            plan.iter().filter_map(PhaseCall::simulation).map(|s| s.key()).collect();
        let spec = ExperimentSpec::new(experiment, quick, Some(vec!["MLP1".into()]));
        for engine in [Engine::sequential(), Engine::new(3)] {
            let before = [observed(".sim_ns"), observed(".host_ns")];
            spec.run(&engine).unwrap();
            let runs = [observed(".sim_ns") - before[0], observed(".host_ns") - before[1]];
            assert_eq!(
                runs,
                [calls.len() as u64, simulations.len() as u64],
                "{experiment} on {} thread(s): [answered calls, simulations]",
                engine.threads(),
            );
        }
    }
    gradpim::obs::set_metrics(false);

    // Fig. 12a on the paper's network: the MAC-array size changes compute
    // time only, so each distinct call repeats across the four sizes and a
    // quarter of the planned calls is all the run answers. Above the
    // traffic caps, blocks differ only in their scale, so on each DRAM
    // view every block's update shares one simulation per kernel.
    let spec = ExperimentSpec::new(Experiment::Fig12a, quick, None);
    let plan = experiment_plan(Experiment::Fig12a, &spec.resolve_networks().unwrap(), quick);
    assert!(plan.iter().all(PhaseCall::simulates));
    let calls: BTreeSet<String> = plan.iter().map(PhaseCall::key).collect();
    let simulations: BTreeSet<String> =
        plan.iter().filter_map(PhaseCall::simulation).map(|s| s.key()).collect();
    assert_eq!((plan.len(), calls.len(), simulations.len()), (240, 60, 33));
}
