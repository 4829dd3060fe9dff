//! Cross-crate integration tests: the full stack from optimizer algebra
//! down through kernels, placement, and the cycle-level DRAM simulator.

use gradpim::core::{GradPimMemory, Placement};
use gradpim::dram::{AddressMapping, DramConfig, MemorySystem};
use gradpim::optim::{HyperParams, MomentumSgd, Nag, Optimizer, OptimizerKind, PrecisionMix, Sgd};
use gradpim::sim::{Design, SystemConfig, TrainingSim};
use gradpim::workloads::models;

/// Every single-pass optimizer's in-DRAM execution matches its reference
/// implementation exactly when all hyper-parameters are powers of two
/// (exact scalers, exact f32 arithmetic).
#[test]
fn in_dram_updates_match_references_across_optimizers() {
    let n = 2048;
    let theta0: Vec<f32> = (0..n).map(|i| ((i * 37) % 201) as f32 / 100.0 - 1.0).collect();
    let make_grads = |step: usize| -> Vec<f32> {
        (0..n).map(|i| (((i + step * 131) * 17) % 97) as f32 / 97.0 - 0.5).collect()
    };

    // SGD.
    {
        let hyper = HyperParams { lr: 0.25, weight_decay: 0.0, ..Default::default() };
        let mut pim = GradPimMemory::new(
            DramConfig::ddr4_2133(),
            OptimizerKind::Sgd,
            PrecisionMix::FULL_32,
            hyper,
            n,
        )
        .unwrap();
        pim.load_theta(&theta0);
        let mut reference = Sgd::new(0.25, 0.0);
        let mut expect = theta0.clone();
        for step in 0..3 {
            let g = make_grads(step);
            pim.write_gradients(&g);
            pim.step().unwrap();
            reference.step(&mut expect, &g);
        }
        assert_eq!(pim.theta(), expect, "SGD");
    }

    // Momentum SGD without weight decay: bit-exact (identical rounding).
    {
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut pim = GradPimMemory::new(
            DramConfig::ddr4_2133(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::FULL_32,
            hyper,
            n,
        )
        .unwrap();
        pim.load_theta(&theta0);
        let mut reference = MomentumSgd::new(0.125, 0.5, 0.0, n);
        let mut expect = theta0.clone();
        for step in 0..3 {
            let g = make_grads(step);
            pim.write_gradients(&g);
            pim.step().unwrap();
            reference.step(&mut expect, &g);
        }
        assert_eq!(pim.theta(), expect, "momentum");
        assert_eq!(pim.state0(), reference.velocity(), "momentum state");
    }

    // Momentum SGD *with* weight decay: the kernel sums
    // ((−η)g + αv) + (−ηβ)θ while the reference rounds (βθ + g) first —
    // Eq. 4 does not prescribe an association, so the results agree to f32
    // rounding, not bit-for-bit.
    {
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.25, ..Default::default() };
        let mut pim = GradPimMemory::new(
            DramConfig::ddr4_2133(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::FULL_32,
            hyper,
            n,
        )
        .unwrap();
        pim.load_theta(&theta0);
        let mut reference = MomentumSgd::new(0.125, 0.5, 0.25, n);
        let mut expect = theta0.clone();
        for step in 0..3 {
            let g = make_grads(step);
            pim.write_gradients(&g);
            pim.step().unwrap();
            reference.step(&mut expect, &g);
        }
        for (i, (a, b)) in pim.theta().iter().zip(&expect).enumerate() {
            assert!((a - b).abs() <= 1e-5 * (1.0 + b.abs()), "momentum+wd lane {i}: {a} vs {b}");
        }
    }

    // NAG.
    {
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut pim = GradPimMemory::new(
            DramConfig::ddr4_2133(),
            OptimizerKind::Nag,
            PrecisionMix::FULL_32,
            hyper,
            n,
        )
        .unwrap();
        pim.load_theta(&theta0);
        let mut reference = Nag::new(0.125, 0.5, n);
        let mut expect = theta0.clone();
        for step in 0..3 {
            let g = make_grads(step);
            pim.write_gradients(&g);
            pim.step().unwrap();
            reference.step(&mut expect, &g);
        }
        assert_eq!(pim.theta(), expect, "NAG");
    }
}

/// Mixed-precision in-DRAM training stays within the quantization error
/// bound of the reference across all three mixed settings.
#[test]
fn mixed_precision_error_bounds_hold_for_all_mixes() {
    let n = 4096;
    for mix in [PrecisionMix::MIXED_8_32, PrecisionMix::MIXED_16_32, PrecisionMix::MIXED_8_16] {
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut pim =
            GradPimMemory::new(DramConfig::ddr4_2133(), OptimizerKind::MomentumSgd, mix, hyper, n)
                .unwrap();
        let theta0: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.003).sin() * 0.5).collect();
        let grads: Vec<f32> = (0..n).map(|i| ((i as f32) * 0.007).cos() * 0.25).collect();
        pim.load_theta(&theta0);
        pim.write_gradients(&grads);
        pim.step().unwrap();

        let mut reference = MomentumSgd::new(0.125, 0.5, 0.0, n);
        let mut expect = theta0.clone();
        reference.step(&mut expect, &grads);

        // Tolerance: the gradient quantization step × lr, plus f16 master
        // rounding when the master itself is 16-bit.
        let tol = match mix {
            PrecisionMix::MIXED_8_32 => 0.125 * (0.25 / 127.0) * 2.0 + 1e-6,
            PrecisionMix::MIXED_16_32 => 1e-3,
            _ => 6e-3,
        };
        let worst =
            pim.theta().iter().zip(&expect).map(|(a, b)| (a - b).abs()).fold(0f32, f32::max);
        assert!(worst <= tol, "{mix}: worst |Δθ| = {worst} > {tol}");
    }
}

/// The §V-B alignment property holds for every optimizer/mix combination
/// the placement supports: matching elements always share the bank group
/// and never the bank (verified through real address encode/decode).
#[test]
fn placement_invariants_across_optimizers_and_mixes() {
    let cfg = DramConfig::ddr4_2133();
    for opt in OptimizerKind::ALL {
        for mix in PrecisionMix::ALL {
            let p = Placement::for_optimizer(opt, mix, 100_000, &cfg).unwrap();
            let arrays = p.arrays();
            for chunk in p.chunks(&cfg).iter().take(8) {
                for a in arrays.iter().filter(|a| !a.quantized) {
                    for b in arrays.iter().filter(|b| !b.quantized) {
                        if a.name == b.name {
                            continue;
                        }
                        let la =
                            AddressMapping::GradPim.decode(p.col_addr(a, chunk, 0, &cfg), &cfg);
                        let lb =
                            AddressMapping::GradPim.decode(p.col_addr(b, chunk, 0, &cfg), &cfg);
                        assert_eq!(la.bankgroup, lb.bankgroup, "{opt} {mix}");
                        assert_eq!(la.rank, lb.rank, "{opt} {mix}");
                        assert_ne!(
                            (la.bank, la.row),
                            (lb.bank, lb.row),
                            "{opt} {mix}: {:?} vs {:?} collide",
                            a.name,
                            b.name
                        );
                    }
                }
            }
        }
    }
}

/// Design ordering across the whole system stack, on an update-heavy
/// workload: baseline < GradPIM-DR < GradPIM-BD on update speed, and AoS
/// pays in fwd/bwd what it keeps in updates.
#[test]
fn design_ordering_holds_end_to_end() {
    let net = models::mlp();
    let mut results = Vec::new();
    for design in Design::ALL {
        let mut cfg = SystemConfig::new(design);
        cfg.max_sim_bursts = 3_000;
        cfg.max_sim_params = 30_000;
        results.push(TrainingSim::new(cfg).run(&net).unwrap());
    }
    let by = |d: Design| results.iter().find(|r| r.design == d).unwrap();
    let base = by(Design::Baseline);
    let dr = by(Design::GradPimDirect);
    let bd = by(Design::GradPimBuffered);
    let aos = by(Design::Aos);
    assert!(dr.update_ns() < base.update_ns());
    assert!(bd.update_ns() < dr.update_ns());
    assert!(aos.fwdbwd_ns() > bd.fwdbwd_ns() * 1.5);
    // Updates never touch the external bus on PIM designs.
    for r in [dr, bd] {
        for b in &r.blocks {
            assert_eq!(b.update.external_bytes, 0.0, "{}", r.design);
        }
    }
}

/// A timed write/read pair through the full memory system returns the
/// written bytes even when PIM kernels run in between on the same bank
/// group (isolation of registers vs cells).
#[test]
fn external_traffic_and_pim_kernels_coexist() {
    use gradpim::dram::PimOp;
    let mut mem = MemorySystem::with_storage(DramConfig::ddr4_2133(), AddressMapping::GradPim);
    let data: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(3)).collect();
    mem.enqueue_write(4096, Some(data.clone())).unwrap();
    // PIM work on the same bank group (bank group of addr 4096 is 0 at row
    // 0 cols…): scaled-read a different bank's column.
    mem.enqueue_pim(0, 0, 0, PimOp::ScaledRead { bank: 1, row: 0, col: 0, scaler: 0, dst: 0 })
        .unwrap();
    mem.enqueue_pim(0, 0, 0, PimOp::Writeback { bank: 2, row: 0, col: 0, src: 0 }).unwrap();
    let rid = mem.enqueue_read(4096).unwrap();
    mem.drain(100_000).unwrap();
    let comps = mem.take_completions();
    let read = comps.iter().find(|c| c.id == rid).unwrap();
    assert_eq!(read.data.as_deref(), Some(&data[..]));
}

/// Workspace-level smoke: every evaluation network runs through the
/// quickest possible simulation on every design without panicking, and
/// produces positive, finite times.
#[test]
fn all_networks_times_all_designs_smoke() {
    for net in models::all_networks() {
        for design in Design::ALL {
            let mut cfg = SystemConfig::new(design);
            cfg.max_sim_bursts = 600;
            cfg.max_sim_params = 8_000;
            let r = TrainingSim::new(cfg).run(&net).unwrap();
            assert!(r.total_time_ns().is_finite());
            assert!(r.total_time_ns() > 0.0, "{} on {}", net.name, design);
            assert_eq!(r.blocks.len(), net.blocks().len());
        }
    }
}

/// §VIII extension: the two-pass Adam schedule on the extended ALU matches
/// a host reference that mirrors the approximated scaler constants and the
/// exact datapath op order — bit-for-bit over multiple steps, for one
/// parameter group and for two stacked groups updated in one wave.
#[test]
fn extended_alu_adam_matches_mirrored_reference() {
    use gradpim::core::adam_scalers;
    // Power-of-two-friendly betas: every scaler constant is exact.
    let hyper = HyperParams { lr: 0.125, beta1: 0.5, beta2: 0.75, eps: 1e-8, ..Default::default() };
    let mut cfg = DramConfig::ddr4_2133();
    cfg.extended_alu = true;
    for groups in [&[2048][..], &[2048, 512]] {
        let n: usize = groups.iter().sum();
        let mut pim = GradPimMemory::stacked(
            cfg.clone(),
            OptimizerKind::Adam,
            PrecisionMix::FULL_32,
            hyper,
            groups,
        )
        .unwrap();
        let theta0: Vec<f32> = (0..n).map(|i| ((i * 13) % 401) as f32 / 200.0 - 1.0).collect();
        pim.load_theta(&theta0);

        let mut theta = theta0.clone();
        let mut m = vec![0f32; n];
        let mut u = vec![0f32; n];
        for step in 1..=3u64 {
            let grads: Vec<f32> = (0..n)
                .map(|i| (((i + step as usize * 59) * 23) % 89) as f32 / 89.0 - 0.5)
                .collect();
            pim.write_gradients(&grads);
            pim.step().unwrap();

            // Mirror the datapath: same approximated constants, same op order.
            let (_, _, c) = adam_scalers(&hyper, step);
            for i in 0..n {
                m[i] = (c.beta1 * m[i]) + (c.one_minus_beta1 * grads[i]);
                let r = c.sqrt_one_minus_beta2 * grads[i];
                u[i] = (c.beta2 * u[i]) + (r * r);
                let rs = 1.0 / (u[i].max(0.0) + hyper.eps).sqrt();
                theta[i] += rs * (c.neg_step * m[i]);
            }
        }
        assert_eq!(pim.theta(), theta, "Adam θ, groups {groups:?}");
        assert_eq!(pim.state0(), m, "Adam m, groups {groups:?}");
        assert_eq!(pim.state1(), u, "Adam u, groups {groups:?}");
    }
}

/// The extended ALU is rejected by base devices (§VIII requires a hardware
/// change), end to end through the memory facade.
#[test]
fn adam_requires_extended_alu_device() {
    let err = GradPimMemory::new(
        DramConfig::ddr4_2133(), // extended_alu = false
        OptimizerKind::Adam,
        PrecisionMix::FULL_32,
        HyperParams::default(),
        256,
    )
    .unwrap_err();
    assert!(matches!(err, gradpim::core::GradPimError::Kernel(_)));
}

/// The parallel execution engine produces bit-identical reports to the
/// sequential path, in the same order, for every experiment — sweep
/// points share no state, so only the wall clock may differ — and the
/// sequential run is the family's own `SweepFamily::report`.
#[test]
fn engine_sweeps_match_sequential_exactly() {
    use gradpim::engine::serialize::{Experiment, ExperimentSpec};
    use gradpim::engine::Engine;
    use gradpim::sim::sweeps::{
        BatchSize, DesignSpace, LayerScatter, OpsBandwidth, Precision, Scaling, SweepFamily,
    };

    let quick = Some((1200, 16_000));
    let (threaded, sequential) = (Engine::new(3), Engine::sequential());
    for experiment in Experiment::ALL {
        let spec = ExperimentSpec::new(experiment, quick, Some(vec!["MLP1".into()]));
        let seq = spec.run(&sequential).unwrap();
        assert_eq!(spec.run(&threaded).unwrap(), seq, "{experiment}: threaded diverged");
        let nets = spec.resolve_networks().unwrap();
        let family = match experiment {
            Experiment::Fig09 => DesignSpace::report(&nets, quick),
            Experiment::Fig12a => OpsBandwidth::report(&nets, quick),
            Experiment::Fig12b => BatchSize::report(&nets, quick),
            Experiment::Fig12c => Precision::report(&nets, quick),
            Experiment::Fig13 => LayerScatter::report(&nets, quick),
            Experiment::Fig14 => Scaling::report(&nets, quick),
        };
        assert_eq!(family.unwrap(), seq, "{experiment}: runner diverged from the family");
    }
}

/// The structured-results pipeline end to end: a sweep spec that
/// round-trips through its JSON serialization reproduces the in-process
/// sequential numbers bit for bit (on both a sequential and a threaded
/// engine), and the result report round-trips byte-identically through
/// the JSON emitter.
#[test]
fn spec_pipeline_reproduces_in_process_numbers_bit_identically() {
    use gradpim::engine::serialize::{Experiment, ExperimentSpec};
    use gradpim::engine::{report, Engine};
    use gradpim::sim::sweeps::{OpsBandwidth, SweepFamily};

    let quick = Some((1200, 16_000));
    let spec = ExperimentSpec::new(Experiment::Fig12a, quick, None);
    let spec = ExperimentSpec::from_json(&spec.to_json()).unwrap();
    let via_spec = spec.run(&Engine::sequential()).unwrap();
    let direct = OpsBandwidth::report(&[models::alphago_zero()], quick).unwrap();
    assert_eq!(via_spec, direct, "spec path diverged from the direct sweep");
    assert_eq!(spec.run(&Engine::new(4)).unwrap(), direct, "threaded engine diverged");

    // Emit → parse → emit is a byte no-op on real sweep numbers.
    let doc = report::to_json(&direct);
    let parsed = report::from_json(&doc).unwrap();
    assert_eq!(parsed, direct);
    assert_eq!(report::to_json(&parsed), doc);

    // CSV: one header plus one line per row, same cell text as the JSON.
    let csv = report::to_csv(&direct);
    assert_eq!(csv.lines().count(), direct.rows.len() + 1);
    assert!(csv.starts_with("network,memory,mac_dim,ops_per_byte,speedup_pct\n"));
}

/// Distributed scaling through the engine agrees with direct
/// `distributed_step` calls, row by row.
#[test]
fn engine_distributed_scaling_matches_direct_steps() {
    use gradpim::engine::serialize::{Experiment, ExperimentSpec};
    use gradpim::engine::Engine;
    use gradpim::sim::sweeps::{ScalingRow, FIG14_NODES};
    use gradpim::sim::{distributed_step, DistConfig, ToRow};

    let quick = Some((1200, 16_000));
    let net = models::mlp();
    let spec = ExperimentSpec::new(Experiment::Fig14, quick, Some(vec![net.name.clone()]));
    let report = spec.run(&Engine::new(2)).unwrap();
    assert_eq!(report.rows.len(), FIG14_NODES.len());
    for (row, nodes) in report.rows.iter().zip(FIG14_NODES) {
        let mk = |design| {
            let mut sys = SystemConfig::new(design);
            sys.max_sim_bursts = 1200;
            sys.max_sim_params = 16_000;
            sys
        };
        let dist = DistConfig { nodes, ..DistConfig::paper_default() };
        let direct = ScalingRow {
            network: net.name.clone(),
            nodes,
            baseline: distributed_step(&mk(Design::Baseline), &net, &dist).unwrap(),
            gradpim: distributed_step(&mk(Design::GradPimBuffered), &net, &dist).unwrap(),
        };
        assert_eq!(*row, direct.row(), "nodes={nodes}");
    }
}
