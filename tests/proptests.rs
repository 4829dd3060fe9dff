//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use gradpim::core::{GradPimFunc, RfuBits, ScalerValue};
use gradpim::dram::{Address, AddressMapping, DramConfig};
use gradpim::optim::quant::{
    dequantize_slice_i8, f16_round_trip, f16_to_f32, f32_to_f16, quantize_slice_i8, Q8Scale,
};
use proptest::prelude::*;

proptest! {
    /// Address decode/encode is a bijection for every mapping over the
    /// whole address space.
    #[test]
    fn address_mapping_round_trip(addr in 0u64..(32u64 << 30)) {
        let cfg = DramConfig::ddr4_2133();
        let aligned = addr & !(cfg.burst_bytes as u64 - 1);
        for mapping in [AddressMapping::GradPim, AddressMapping::RowInterleaved] {
            let loc = mapping.decode(aligned, &cfg);
            prop_assert!(loc.rank < cfg.ranks);
            prop_assert!(loc.bankgroup < cfg.bankgroups);
            prop_assert!(loc.bank < cfg.banks_per_group);
            prop_assert!(loc.row < cfg.rows);
            prop_assert!(loc.column < cfg.columns);
            prop_assert_eq!(mapping.encode(loc, &cfg), aligned);
        }
    }

    /// Encoding any in-range location and decoding it returns the location.
    #[test]
    fn address_encode_decode_inverse(
        rank in 0usize..4, bg in 0usize..4, bank in 0usize..4,
        row in 0usize..65536, col in 0usize..128,
    ) {
        let cfg = DramConfig::ddr4_2133();
        let loc = Address { channel: 0, rank, bankgroup: bg, bank, row, column: col };
        let addr = AddressMapping::GradPim.encode(loc, &cfg);
        prop_assert_eq!(AddressMapping::GradPim.decode(addr, &cfg), loc);
    }

    /// int8 quantization round-trip error never exceeds half a step, for
    /// any finite tensor.
    #[test]
    fn q8_round_trip_bounded(data in prop::collection::vec(-1e6f32..1e6, 1..200)) {
        let (scale, q) = quantize_slice_i8(&data);
        let back = dequantize_slice_i8(&q, scale);
        for (x, y) in data.iter().zip(&back) {
            prop_assert!((x - y).abs() <= scale.factor() / 2.0 + 1e-6);
        }
    }

    /// Q8 scales always cover the data (no clipping).
    #[test]
    fn q8_scale_covers(data in prop::collection::vec(-1e9f32..1e9, 1..100)) {
        let s = Q8Scale::for_tensor(&data);
        let max = data.iter().fold(0f32, |m, v| m.max(v.abs()));
        prop_assert!(127.0 * s.factor() >= max * 0.999);
    }

    /// binary16 round trip is monotone and bounded for normal-range floats.
    #[test]
    fn f16_round_trip_relative_error(x in -60000f32..60000f32) {
        let r = f16_round_trip(x);
        if x.abs() > 1e-4 {
            prop_assert!(((x - r) / x).abs() <= 1e-3, "x={x} r={r}");
        }
    }

    /// f16→f32 of every bit pattern is total (never panics) and
    /// f32→f16∘f16→f32 is the identity away from NaN.
    #[test]
    fn f16_bit_patterns_total(h in 0u16..=u16::MAX) {
        let x = f16_to_f32(h);
        if !x.is_nan() {
            prop_assert_eq!(f32_to_f16(x), h);
        }
    }

    /// The scaler approximation always lands within the lattice bound
    /// (≈9.1 % worst case) for positive magnitudes across 12 octaves.
    #[test]
    fn scaler_error_bounded(mantissa in 1.0f64..2.0, exp in -20i32..20) {
        let target = mantissa * 2f64.powi(exp);
        let s = ScalerValue::approximate(target);
        prop_assert!(s.rel_error(target) < 0.0911, "{target} -> {s} err {}", s.rel_error(target));
    }

    /// ISA: every 5-bit RFU pattern decodes to a function that re-encodes
    /// to the same bits (total, bijective decode).
    #[test]
    fn isa_decode_total_bijection(v in 0u8..32) {
        let f = GradPimFunc::decode(RfuBits::unpack(v)).unwrap();
        prop_assert_eq!(f.encode().pack(), v);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming any mix of reads/writes through the simulator drains,
    /// retires every transaction exactly once, and never exceeds the
    /// external bandwidth ceiling.
    #[test]
    fn dram_streams_drain_and_respect_peak(
        reads in 1usize..300,
        writes in 0usize..300,
        seed in 0u64..1000,
    ) {
        use gradpim::dram::{MemError, MemorySystem};
        let cfg = DramConfig::ddr4_2133();
        let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state
        };
        let total = reads + writes;
        for i in 0..total {
            let addr = (next() % (1 << 28)) & !63;
            loop {
                let r = if i < reads {
                    mem.enqueue_read(addr).map(drop)
                } else {
                    mem.enqueue_write(addr, None).map(drop)
                };
                match r {
                    Ok(()) => break,
                    Err(MemError::QueueFull) => mem.tick(),
                    Err(e) => panic!("{e}"),
                }
            }
        }
        mem.drain(10_000_000).unwrap();
        let st = mem.stats();
        prop_assert_eq!(st.completed, total as u64);
        prop_assert_eq!(st.external_bytes(), total as u64 * 64);
        let bw = st.external_bw(&cfg);
        prop_assert!(bw <= cfg.peak_external_bw() * 1.001, "bw {bw}");
    }

    /// Functional storage honours arbitrary poke/peek round trips through
    /// the address mapping.
    #[test]
    fn storage_poke_peek_round_trip(
        addr in 0u64..(1u64 << 30),
        len_bursts in 1usize..16,
        fill in 0u8..=255,
    ) {
        use gradpim::dram::MemorySystem;
        let cfg = DramConfig::ddr4_2133();
        let mut mem = MemorySystem::with_storage(cfg.clone(), AddressMapping::GradPim);
        let aligned = addr & !(cfg.burst_bytes as u64 - 1);
        let data: Vec<u8> = (0..len_bursts * cfg.burst_bytes)
            .map(|i| fill.wrapping_add(i as u8))
            .collect();
        mem.poke(aligned, &data);
        prop_assert_eq!(mem.peek(aligned, data.len()), data);
    }
}

/// One step of a differential workload: external traffic or a PIM op.
#[derive(Debug, Clone, Copy)]
enum DiffOp {
    Read(u64),
    Write(u64),
    Pim(u8, u8, gradpim::dram::PimOp),
}

/// Builds a randomized workload from a seed: interleaved reads, writes and
/// in-order PIM streams across ranks/bank groups.
fn diff_workload(
    cfg: &gradpim::dram::DramConfig,
    reads: usize,
    writes: usize,
    pim_cols: u32,
    seed: u64,
) -> Vec<DiffOp> {
    use gradpim::dram::PimOp;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state
    };
    let mut ops = Vec::new();
    let n = reads.max(writes).max(pim_cols as usize);
    for i in 0..n {
        if i < reads {
            ops.push(DiffOp::Read((next() % (1 << 26)) & !63));
        }
        if i < writes {
            ops.push(DiffOp::Write((next() % (1 << 26)) & !63));
        }
        if (i as u32) < pim_cols {
            let rank = (next() % cfg.ranks as u64) as u8;
            let bg = (next() % cfg.bankgroups as u64) as u8;
            let col = i as u32 % cfg.columns as u32;
            ops.push(DiffOp::Pim(
                rank,
                bg,
                PimOp::ScaledRead { bank: 0, row: 2, col, scaler: 0, dst: 0 },
            ));
            ops.push(DiffOp::Pim(rank, bg, PimOp::Add { bank: 0, dst: 1 }));
            ops.push(DiffOp::Pim(rank, bg, PimOp::Writeback { bank: 1, row: 2, col, src: 1 }));
        }
    }
    ops
}

/// Drives `ops` through a fresh memory system, stepping per-cycle
/// (`fast = false`) or event-driven (`fast = true`), then drains and idles
/// across a refresh window. Returns every observable output.
fn diff_run(
    cfg: &gradpim::dram::DramConfig,
    ops: &[DiffOp],
    fast: bool,
) -> (gradpim::dram::Stats, Vec<gradpim::dram::Completion>, Vec<Vec<gradpim::dram::TraceEntry>>) {
    use gradpim::dram::{AddressMapping, MemError, MemorySystem};
    let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
    mem.enable_trace();
    for op in ops {
        loop {
            let r = match *op {
                DiffOp::Read(a) => mem.enqueue_read(a).map(drop),
                DiffOp::Write(a) => mem.enqueue_write(a, None).map(drop),
                DiffOp::Pim(rank, bg, p) => mem.enqueue_pim(0, rank, bg, p).map(drop),
            };
            match r {
                Ok(()) => break,
                Err(MemError::QueueFull) => {
                    if fast {
                        mem.tick_until_event();
                    } else {
                        mem.tick();
                    }
                }
                Err(e) => panic!("{e}"),
            }
        }
    }
    if fast {
        mem.drain(20_000_000).unwrap();
    } else {
        mem.drain_reference(20_000_000).unwrap();
    }
    // Idle across a refresh window (exercises power-down + REF skipping).
    let target = mem.cycles() + cfg.trefi + 2 * cfg.trfc + 13;
    if fast {
        mem.run_until(target);
    } else {
        while mem.cycles() < target {
            mem.tick();
        }
    }
    (mem.stats(), mem.take_completions(), mem.take_traces())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The event-driven fast-forward core is *observably identical* to the
    /// per-cycle reference: identical stats (cycles, commands, energies,
    /// power-down residency), identical completions, identical command
    /// traces — across random read/write/PIM workloads, issue modes, PIM
    /// placements and power-down thresholds.
    #[test]
    fn fast_forward_matches_per_cycle_reference(
        reads in 0usize..120,
        writes in 0usize..120,
        pim_cols in 0u32..48,
        buffered in 0usize..2,
        per_bank in 0usize..2,
        pd_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        use gradpim::dram::{CommandIssueMode, DramConfig, PimPlacement};
        let mut cfg = DramConfig::ddr4_2133();
        if buffered == 1 {
            cfg.issue_mode = CommandIssueMode::PerRankBuffered;
        }
        if per_bank == 1 {
            cfg.pim_placement = PimPlacement::PerBank;
        }
        cfg.powerdown_idle = [16u64, 64, u64::MAX][pd_sel];
        let ops = diff_workload(&cfg, reads, writes, pim_cols, seed);
        let (s_ref, c_ref, t_ref) = diff_run(&cfg, &ops, false);
        let (s_fast, c_fast, t_fast) = diff_run(&cfg, &ops, true);
        prop_assert_eq!(&t_ref, &t_fast, "command traces diverge");
        prop_assert_eq!(&c_ref, &c_fast, "completions diverge");
        prop_assert_eq!(&s_ref, &s_fast, "stats diverge");
    }

    /// Same identity across multi-channel configurations (lockstep
    /// fast-forward) over random workloads × 1/2/4 channels × PIM
    /// placements × issue modes × power-down thresholds, with the trace
    /// protocol oracle run over every channel's fast-path trace (it stays
    /// meaningful in release builds, where the simulator's debug
    /// assertions are compiled out). Also pins the per-channel-normalized
    /// command-bus utilization to a sane range in direct mode.
    #[test]
    fn fast_forward_matches_reference_multichannel(
        reads in 0usize..100,
        writes in 0usize..60,
        pim_cols in 0u32..32,
        channels_sel in 0usize..3,
        buffered in 0usize..2,
        per_bank in 0usize..2,
        pd_sel in 0usize..3,
        seed in 0u64..1000,
    ) {
        let cfg = multichannel_cfg(channels_sel, buffered, per_bank, pd_sel);
        let ops = diff_workload(&cfg, reads, writes, pim_cols, seed);
        let (s_ref, c_ref, t_ref) = diff_run(&cfg, &ops, false);
        let (s_fast, c_fast, t_fast) = diff_run(&cfg, &ops, true);
        prop_assert_eq!(&t_ref, &t_fast, "command traces diverge");
        prop_assert_eq!(&c_ref, &c_fast, "completions diverge");
        prop_assert_eq!(&s_ref, &s_fast, "stats diverge");
        prop_assert_eq!(s_fast.channels, cfg.channels as u64);
        verify_traces(&cfg, &t_fast)?;
        // Direct mode: per-channel command-bus utilization cannot exceed
        // one command per tCK.
        if buffered == 0 {
            prop_assert!(s_fast.command_bus_utilization() <= 1.0);
        }
    }
}

/// DDR4-2133 with 1/2/4 channels, direct or per-rank-buffered issue,
/// per-bank-group or per-bank PIM, and a 24/96/never power-down threshold,
/// each picked by index.
fn multichannel_cfg(
    channels_sel: usize,
    buffered: usize,
    per_bank: usize,
    pd_sel: usize,
) -> gradpim::dram::DramConfig {
    use gradpim::dram::{CommandIssueMode, PimPlacement};
    let mut cfg = DramConfig::ddr4_2133();
    cfg.channels = [1usize, 2, 4][channels_sel];
    if buffered == 1 {
        cfg.issue_mode = CommandIssueMode::PerRankBuffered;
    }
    if per_bank == 1 {
        cfg.pim_placement = PimPlacement::PerBank;
    }
    cfg.powerdown_idle = [24u64, 96, u64::MAX][pd_sel];
    cfg
}

/// Runs the independent protocol replay oracle over every channel's trace.
fn verify_traces(
    cfg: &gradpim::dram::DramConfig,
    traces: &[Vec<gradpim::dram::TraceEntry>],
) -> Result<(), proptest::test_runner::TestCaseError> {
    for trace in traces {
        if let Err(v) = gradpim::dram::verify_trace(cfg, trace) {
            return Err(proptest::test_runner::TestCaseError::fail(format!("{v}")));
        }
    }
    Ok(())
}

/// The PIM stream driver that offers every stream a batch in every round,
/// as `run_unit_streams` did before it offered batches only to the streams
/// whose queue retired an op: the reference of
/// `refill_driver_matches_visiting_every_stream`.
fn run_unit_streams_visiting_all(
    mem: &mut gradpim::dram::MemorySystem,
    streams: &[gradpim::core::UnitStream],
) -> Result<(), gradpim::dram::MemError> {
    let mut cursors = vec![0usize; streams.len()];
    loop {
        let mut all_done = true;
        let mut all_full = true;
        for (s, cursor) in streams.iter().zip(&mut cursors) {
            let left = &s.ops[*cursor..];
            if left.is_empty() {
                continue;
            }
            let batch = left.len().min(64);
            let room = mem.pim_room(s.channel, s.rank, s.bankgroup);
            let n = batch.min(room);
            for &op in &left[..n] {
                mem.enqueue_pim(s.channel, s.rank, s.bankgroup, op)?;
            }
            *cursor += n;
            if *cursor < s.ops.len() {
                all_done = false;
                all_full &= room < batch;
            }
        }
        if all_done {
            break;
        }
        if all_full {
            mem.tick_until_event();
        }
    }
    Ok(())
}

/// `n` random unit streams for `cfg` from a seed. Units are drawn with
/// replacement, so two streams may share one; lengths fall empty, below
/// the 64-op batch, between it and the 256-entry PIM queue, or above it;
/// ops mix scaled reads and writebacks over three rows of four banks
/// (row hits and conflicts) with ALU and quantization-register ops.
fn random_unit_streams(cfg: &DramConfig, n: usize, seed: u64) -> Vec<gradpim::core::UnitStream> {
    use gradpim::dram::PimOp;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(5);
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state
    };
    (0..n)
        .map(|_| {
            let channel = (next() % cfg.channels as u64) as usize;
            let rank = (next() % cfg.ranks as u64) as u8;
            let bankgroup = (next() % cfg.bankgroups as u64) as u8;
            let len = match next() % 5 {
                0 => 0,
                1 => 1 + next() % 63,
                2 => 64 + next() % 192,
                3 => 256 + next() % 400,
                _ => next() % 900,
            };
            let ops = (0..len)
                .map(|_| {
                    let r = next();
                    let (bank, row, col) =
                        ((r % 4) as u8, (r >> 2) as u32 % 3, (r >> 4) as u32 % 128);
                    let (reg, pos) = ((r >> 12) as u8 % 2, (r >> 13) as u8 % 4);
                    match (r >> 16) % 8 {
                        0..=2 => PimOp::ScaledRead { bank, row, col, scaler: pos, dst: reg },
                        3 | 4 => PimOp::Writeback { bank, row, col, src: reg },
                        5 => PimOp::Add { bank, dst: reg },
                        6 => PimOp::Sub { bank, dst: reg },
                        _ => PimOp::QRegLoad { bank, row, col },
                    }
                })
                .collect();
            gradpim::core::UnitStream { channel, rank, bankgroup, ops }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The PIM stream driver, which after each step offers batches only to
    /// the streams whose queue retired an op, enqueues exactly what a
    /// driver offering every stream a batch every round does: identical
    /// command traces, `Stats`, completions and work counters, over random
    /// streams on 1 or 2 channels in either issue mode.
    #[test]
    fn refill_driver_matches_visiting_every_stream(
        n in 1usize..8,
        channels in 1usize..3,
        buffered in 0usize..2,
        seed in 0u64..1 << 32,
    ) {
        use gradpim::dram::{CommandIssueMode, MemorySystem};
        let mut cfg = DramConfig::ddr4_2133();
        cfg.channels = channels;
        if buffered == 1 {
            cfg.issue_mode = CommandIssueMode::PerRankBuffered;
        }
        let streams = random_unit_streams(&cfg, n, seed);
        let run = |refill: bool| {
            let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
            mem.enable_trace();
            if refill {
                gradpim::core::run_unit_streams(&mut mem, &streams).unwrap();
            } else {
                run_unit_streams_visiting_all(&mut mem, &streams).unwrap();
            }
            mem.drain(50_000_000).unwrap();
            (mem.take_traces(), mem.stats(), mem.take_completions(), mem.work())
        };
        let (t_ref, s_ref, c_ref, w_ref) = run(false);
        let (t, s, c, w) = run(true);
        prop_assert_eq!(&t_ref, &t, "command traces diverge");
        prop_assert_eq!(&s_ref, &s, "stats diverge");
        prop_assert_eq!(&c_ref, &c, "completions diverge");
        prop_assert_eq!(&w_ref, &w, "work counters diverge");
        prop_assert_eq!(w.queue_full, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A batch of multi-channel memory simulations run on the threaded
    /// engine is *observably identical* to the same batch run inline on
    /// the sequential engine: bit-identical stats, completions and
    /// per-channel command traces, returned in input order. Covers random
    /// workloads × channel counts × PIM placements × issue modes ×
    /// power-down thresholds, with the trace protocol oracle run over
    /// every threaded trace.
    #[test]
    fn threaded_engine_matches_sequential(
        seeds in proptest::collection::vec(0u64..1 << 40, 1..6),
        threads in 2usize..5,
    ) {
        use gradpim::engine::Engine;
        // Each job's shape is a mixed-radix digit string of its seed.
        let jobs: Vec<_> = seeds
            .iter()
            .map(|&seed| {
                let mut rest = seed;
                let mut digit = |radix: u64| {
                    let d = rest % radix;
                    rest /= radix;
                    d as usize
                };
                let cfg = multichannel_cfg(digit(3), digit(2), digit(2), digit(3));
                let (reads, writes, pim_cols) = (digit(100), digit(60), digit(32) as u32);
                let ops = diff_workload(&cfg, reads, writes, pim_cols, seed);
                (cfg, ops)
            })
            .collect();
        let run = |eng: Engine| {
            eng.run(&jobs, |(cfg, ops)| {
                Ok::<_, std::convert::Infallible>(diff_run(cfg, ops, true))
            })
            .unwrap()
        };
        let seq = run(Engine::sequential());
        let par = run(Engine::new(threads));
        prop_assert_eq!(seq.len(), jobs.len());
        prop_assert_eq!(par.len(), jobs.len());
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            prop_assert_eq!(&s.2, &p.2, "job {}: command traces diverge", i);
            prop_assert_eq!(&s.1, &p.1, "job {}: completions diverge", i);
            prop_assert_eq!(&s.0, &p.0, "job {}: stats diverge", i);
        }
        for ((cfg, _), (_, _, traces)) in jobs.iter().zip(&par) {
            verify_traces(cfg, traces)?;
        }
    }
}

/// Characters a report cell might plausibly (or adversarially) contain:
/// CSV/JSON metacharacters, control characters, multi-byte UTF-8.
const TRICKY_CHARS: &[char] = &[
    'a', 'B', '7', ' ', '"', '\\', ',', '\n', '\r', '\t', '\u{1}', ':', '{', '[', ']', '}', 'é',
    '—', '🎯',
];

/// Builds a pseudo-random report from a seed: random column kinds and
/// names (including empty and metacharacter-laden ones), full-range i64
/// cells, and finite-but-arbitrary f64 bit patterns.
fn arbitrary_report(cols: usize, rows: usize, seed: u64) -> gradpim::sim::Report {
    use gradpim::sim::{Column, Kind, Report, Schema, SweepRow, Value};

    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0
        }

        fn tricky_string(&mut self, max_len: u64) -> String {
            let len = self.next() % (max_len + 1);
            (0..len)
                .map(|_| TRICKY_CHARS[(self.next() % TRICKY_CHARS.len() as u64) as usize])
                .collect()
        }
    }

    let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(101));
    let kinds = [Kind::Str, Kind::Int, Kind::Float];
    let schema = Schema {
        columns: (0..cols)
            .map(|_| Column { name: rng.tricky_string(8), kind: kinds[(rng.next() % 3) as usize] })
            .collect(),
    };
    let mut report = Report::new(schema);
    for _ in 0..rows {
        let values = (0..report.schema.columns.len())
            .map(|c| match report.schema.columns[c].kind {
                Kind::Str => Value::Str(rng.tricky_string(12)),
                Kind::Int => Value::Int(rng.next() as i64),
                Kind::Float => Value::Float(loop {
                    let x = f64::from_bits(rng.next());
                    if x.is_finite() {
                        break x;
                    }
                }),
            })
            .collect();
        report.rows.push(SweepRow { values });
    }
    report
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Report JSON round-trips for arbitrary schemas and rows: parse is
    /// the exact inverse of emit (`parsed == original`), and re-emitting
    /// is byte-identical — over metacharacter-laden strings, full-range
    /// integers, and arbitrary finite f64 bit patterns.
    #[test]
    fn report_json_round_trips_for_arbitrary_rows(
        cols in 1usize..6,
        rows in 0usize..16,
        seed in 0u64..1_000_000,
    ) {
        use gradpim::engine::report::{from_json, to_csv, to_json};
        let report = arbitrary_report(cols, rows, seed);
        let doc = to_json(&report);
        let parsed = match from_json(&doc) {
            Ok(p) => p,
            Err(e) => {
                return Err(proptest::test_runner::TestCaseError::fail(format!(
                    "emitted JSON failed to parse: {e}\n{doc}"
                )))
            }
        };
        prop_assert_eq!(&parsed, &report);
        prop_assert_eq!(to_json(&parsed), doc);
        // CSV stays line-aligned even with embedded newlines: quoted
        // fields keep them, so count logical records via the emitter's
        // own invariant instead — header + rows, each ending in \n.
        let csv = to_csv(&report);
        prop_assert!(csv.ends_with('\n'));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The controller's issued command stream is protocol-legal under
    /// independent replay verification, for random mixes of external
    /// traffic and PIM kernels (including refresh windows).
    #[test]
    fn controller_traces_verify(
        reads in 1usize..150,
        pim_cols in 1u32..100,
        seed in 0u64..500,
    ) {
        use gradpim::dram::{verify_trace, MemError, MemorySystem, PimOp};
        let cfg = DramConfig::ddr4_2133();
        let mut mem = MemorySystem::new(cfg.clone(), AddressMapping::GradPim);
        mem.enable_trace();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state
        };
        // Interleave reads with a PIM kernel stream on bank group 1.
        for i in 0..reads.max(pim_cols as usize) {
            if i < reads {
                let addr = (next() % (1 << 26)) & !63;
                loop {
                    match mem.enqueue_read(addr) {
                        Ok(_) => break,
                        Err(MemError::QueueFull) => mem.tick(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            if (i as u32) < pim_cols {
                let col = i as u32 % cfg.columns as u32;
                for op in [
                    PimOp::ScaledRead { bank: 0, row: 3, col, scaler: 0, dst: 0 },
                    PimOp::ScaledRead { bank: 1, row: 3, col, scaler: 1, dst: 1 },
                    PimOp::Add { bank: 0, dst: 1 },
                    PimOp::Writeback { bank: 2, row: 3, col, src: 1 },
                ] {
                    loop {
                        match mem.enqueue_pim(0, 0, 1, op) {
                            Ok(_) => break,
                            Err(MemError::QueueFull) => mem.tick(),
                            Err(e) => panic!("{e}"),
                        }
                    }
                }
            }
        }
        mem.drain(10_000_000).unwrap();
        // Run past a refresh window too.
        for _ in 0..cfg.trefi + 2 * cfg.trfc {
            mem.tick();
        }
        for trace in mem.take_traces() {
            prop_assert!(!trace.is_empty());
            if let Err(v) = verify_trace(&cfg, &trace) {
                return Err(proptest::test_runner::TestCaseError::fail(format!("{v}")));
            }
        }
    }
}

/// Three valid outside inputs, built once: a fig12a report's JSON, the
/// spec that produced it (`--emit-spec`), and the Chrome trace of that
/// traced run (`--trace`).
fn outside_documents() -> &'static [String; 3] {
    static DOCS: std::sync::OnceLock<[String; 3]> = std::sync::OnceLock::new();
    DOCS.get_or_init(|| {
        use gradpim::engine::serialize::{Experiment, ExperimentSpec};
        use gradpim::engine::{report, trace, Engine};
        let spec = ExperimentSpec::new(
            Experiment::Fig12a,
            Some((1500, 20_000)),
            Some(vec!["MLP1".into()]),
        );
        gradpim::obs::set_tracing(true);
        let report = spec.run(&Engine::sequential()).expect("fig12a runs");
        gradpim::obs::set_tracing(false);
        let trace = trace::export(&gradpim::obs::drain_spans());
        [report::to_json(&report), spec.to_json(), trace]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Outside input never panics a parser: a truncated document, or one
    /// with 1–3 bytes substituted, deleted or duplicated, makes
    /// `report::from_json`, `ExperimentSpec::from_json` and
    /// `trace::summarize` return `Ok` or `Err`.
    #[test]
    fn mutated_outside_documents_parse_or_fail_without_panicking(
        op in 0usize..4,
        at in 0u64..1_000_000,
        n in 1usize..4,
        byte in 0u32..256,
    ) {
        use gradpim::engine::serialize::ExperimentSpec;
        use gradpim::engine::{report, trace};
        for (i, doc) in outside_documents().iter().enumerate() {
            let bytes = doc.as_bytes();
            let at = (at * bytes.len() as u64 / 1_000_000) as usize;
            let (head, tail) = bytes.split_at(at);
            let (span, rest) = tail.split_at(n.min(tail.len()));
            let mutated = match op {
                0 => head.to_vec(),
                1 => [head, &vec![byte as u8; span.len()], rest].concat(),
                2 => [head, rest].concat(),
                _ => [head, span, span, rest].concat(),
            };
            let input = String::from_utf8_lossy(&mutated);
            let parsed = std::panic::catch_unwind(|| match i {
                0 => drop(report::from_json(&input)),
                1 => drop(ExperimentSpec::from_json(&input)),
                _ => drop(trace::summarize(&input)),
            });
            prop_assert!(parsed.is_ok(), "document {} panicked on op {} at byte {}", i, op, at);
        }
    }
}

/// One phase call's inputs, drawn for the simulation-sharing property.
#[derive(Debug, Clone, PartialEq)]
struct CallShape {
    /// 0 stream, 1 baseline update, 2 PIM update, 3 PIM quant/dequant,
    /// 4 AoS-PB update.
    kind: usize,
    dram: gradpim::dram::DramConfig,
    optimizer: gradpim::optim::OptimizerKind,
    mix: gradpim::optim::PrecisionMix,
    /// Bytes read and written (a stream), or parameters and 0.
    size: (u64, u64),
    cap: u64,
}

impl CallShape {
    fn call(&self) -> gradpim::sim::PhaseCall {
        use gradpim::sim::PhaseCall;
        let (dram, opt, mix, (a, b), cap) =
            (self.dram.clone(), self.optimizer, self.mix, self.size, self.cap);
        let hyper = gradpim::optim::HyperParams::default();
        match self.kind {
            0 => PhaseCall::stream(dram, a, b, cap),
            1 => PhaseCall::baseline_update(dram, opt, mix, a, cap),
            2 => PhaseCall::pim_update(dram, opt, mix, &hyper, a, cap),
            3 => PhaseCall::pim_quant_dequant(dram, opt, mix, &hyper, a, cap),
            _ => PhaseCall::aos_per_bank_update(dram, opt, mix, a, cap),
        }
    }

    /// The call at its cap: exactly what it simulates, worked out from
    /// the executors' documented capping rather than by the library. A
    /// stream simulates the cap (never below 16 bursts) of its bursts,
    /// split in read/write proportion, so at its cap it moves those whole
    /// bursts and its cap is their count (and, as a stream reads neither,
    /// a fixed optimizer and mix); an update simulates the cap (never
    /// below 1024) of its parameters, which is then its cap too. `None`
    /// for a call that answers empty.
    fn at_cap(&self) -> Option<CallShape> {
        use gradpim::optim::{OptimizerKind, PrecisionMix};
        let (a, b) = self.size;
        if self.kind == 0 {
            let burst = self.dram.burst_bytes as u64;
            let (r, w) = (a.div_ceil(burst), b.div_ceil(burst));
            if r + w == 0 {
                return None;
            }
            let sim = (r + w).min(self.cap.max(16));
            let reads = r * sim / (r + w);
            let size = (reads * burst, (sim - reads) * burst);
            let (optimizer, mix) = (OptimizerKind::Sgd, PrecisionMix::FULL_32);
            return Some(CallShape { size, cap: sim, optimizer, mix, ..self.clone() });
        }
        let no_kernel = self.kind == 3 && !self.mix.is_mixed();
        if a == 0 || no_kernel {
            return None;
        }
        let params = a.min(self.cap.max(1024));
        Some(CallShape { size: (params, 0), cap: params, ..self.clone() })
    }
}

impl CallShape {
    /// This shape with one input moved by one step: one more read burst
    /// (a stream) or parameter, one more write burst (a stream), or a cap
    /// one higher.
    fn neighbours(&self) -> Vec<CallShape> {
        let (a, b) = self.size;
        let step = if self.kind == 0 { 64 } else { 1 };
        let mut out = vec![
            CallShape { size: (a + step, b), ..self.clone() },
            CallShape { cap: self.cap + 1, ..self.clone() },
        ];
        if self.kind == 0 {
            out.push(CallShape { size: (a, b + 64), ..self.clone() });
        }
        out
    }
}

/// A pair of call shapes from `seed`: `b` varies `a` in a few inputs, so
/// many pairs straddle or share the cap.
fn call_shapes(seed: u64) -> (CallShape, CallShape) {
    use gradpim::optim::{OptimizerKind, PrecisionMix};
    use gradpim::sim::{Design, SystemConfig};
    let mut rest = seed;
    let mut digit = |radix: u64| {
        let d = rest % radix;
        rest /= radix;
        d
    };
    let view = |i: u64| match Design::ALL.get(i as usize) {
        Some(&design) => SystemConfig::new(design).dram(),
        None => gradpim::dram::DramConfig::ddr4_3200(),
    };
    let optimizer = |i: u64| OptimizerKind::ALL[i as usize];
    let mix = |i: u64| PrecisionMix::ALL[i as usize];
    let kind = digit(5) as usize;
    let stream = kind == 0;
    let cap = if stream {
        [0, 16, 24, 40][digit(4) as usize]
    } else {
        [0, 1024, 1536][digit(3) as usize]
    };
    let floor = if stream { cap.max(16) } else { cap.max(1024) };
    // Parameter counts (or read bursts) below, at and above the cap.
    let sizes = [floor / 2, floor - 1, floor, floor + 1, 2 * floor + 7, 3 * floor];
    let size = |digit: &mut dyn FnMut(u64) -> u64| {
        let n = sizes[digit(6) as usize];
        if stream {
            // Read and write bytes, not always whole bursts.
            let w = n * digit(3) / 2;
            (n * 64 - digit(64), (w * 64).saturating_sub(digit(64)))
        } else {
            (n, 0)
        }
    };
    let a = CallShape {
        kind,
        dram: view(digit(7)),
        optimizer: optimizer(digit(6)),
        mix: mix(digit(4)),
        size: size(&mut digit),
        cap,
    };
    let b_size = match digit(3) {
        // Twice the traffic in whole bursts: a stream keeps its split.
        0 if stream => (a.size.0.div_ceil(64) * 128, a.size.1.div_ceil(64) * 128),
        0 => (2 * a.size.0, 0),
        1 => size(&mut digit),
        _ => a.size,
    };
    let mut b = CallShape { size: b_size, ..a.clone() };
    if digit(6) == 0 {
        b.kind = digit(5) as usize;
    }
    if digit(6) == 0 {
        b.dram = view(digit(7));
    }
    if digit(6) == 0 {
        b.optimizer = optimizer(digit(6));
    }
    if digit(6) == 0 {
        b.mix = mix(digit(4));
    }
    if digit(6) == 0 {
        b.cap = floor + 3;
    }
    (a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A phase call is its simulation plus its scale. Two calls share a
    /// simulation key exactly when they simulate the same capped traffic
    /// of the same executor on the same DRAM view, and whenever they do,
    /// one call's result taken from the other's simulation is
    /// bit-identical to executing it (errors included). Each case pairs a
    /// call with a variant, with its one-step neighbours, and with the
    /// call at its cap, which shares its simulation key and executes at
    /// scale 1. Covers every executor, optimizer and precision mix, sizes
    /// on either side of the cap, and several DRAM views.
    #[test]
    fn calls_sharing_a_simulation_get_its_result(seed in 0u64..1 << 62) {
        let (a, b) = call_shapes(seed);
        let call_a = a.call();
        let sim_a = call_a.simulation();
        let at_cap = a.at_cap();
        prop_assert_eq!(sim_a.is_some(), at_cap.is_some(), "{:?}", a);
        let (Some(sim_a), Some(at_cap)) = (sim_a, at_cap) else { return Ok(()) };
        let cut = at_cap.call();
        prop_assert_eq!(cut.simulation().map(|s| s.key()), Some(sim_a.key()), "{:?}", a);
        if let Ok(r) = cut.execute() {
            prop_assert_eq!(r.scale, 1.0, "{:?}", at_cap);
        }
        let bits = |r: gradpim::sim::PhaseResult| r.to_bits_string();
        let mut stats_a = None;
        for other in [b, at_cap].into_iter().chain(a.neighbours()) {
            let call = other.call();
            let Some(sim) = call.simulation() else {
                prop_assert!(other.at_cap().is_none(), "{:?}", other);
                continue;
            };
            let shared = sim_a.key() == sim.key();
            prop_assert_eq!(shared, a.at_cap() == other.at_cap(), "{:?}\n{:?}", a, other);
            if shared {
                let stats = stats_a.get_or_insert_with(|| sim_a.run());
                let borrowed = stats.clone().map(|stats| bits(call.result(&stats)));
                prop_assert_eq!(borrowed, call.execute().map(bits), "{:?}\n{:?}", a, other);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The functional memory and the figure executors time the same
    /// update: the first in-DRAM step of a single-pass optimizer at full
    /// precision takes exactly the cycles of the uncapped update phase, on
    /// every DRAM view the figures use.
    #[test]
    fn in_dram_step_times_like_the_update_phase(
        opt in 0usize..3,
        n in 1usize..60_001,
        view in 0usize..4,
    ) {
        use gradpim::core::GradPimMemory;
        use gradpim::optim::{HyperParams, OptimizerKind, PrecisionMix};
        use gradpim::sim::{phase::pim_update_phase, Design, SystemConfig};
        let optimizer = [OptimizerKind::Sgd, OptimizerKind::MomentumSgd, OptimizerKind::Nag][opt];
        let cfg = match view {
            0 => DramConfig::ddr4_2133(),
            1 => SystemConfig::new(Design::GradPimBuffered).dram(),
            2 => DramConfig::ddr4_3200(),
            _ => DramConfig::hbm2_like(),
        };
        let (mix, hyper) = (PrecisionMix::FULL_32, HyperParams::default());
        let mut mem = GradPimMemory::new(cfg.clone(), optimizer, mix, hyper, n).unwrap();
        mem.load_theta(&vec![0.5; n]);
        mem.write_gradients(&vec![0.25; n]);
        let report = mem.step().unwrap();
        let phase = pim_update_phase(&cfg, optimizer, mix, &hyper, n as u64, n as u64).unwrap();
        prop_assert_eq!(report.update_cycles, phase.sim_cycles, "{} on {}, n = {}", optimizer, cfg.name, n);
    }
}
