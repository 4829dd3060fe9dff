//! Criterion microbenchmarks for the GradPIM core: kernel compilation,
//! scaler approximation, ISA encode/decode, and a full functional step.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use gradpim_core::{
    compile_step, GradPimFunc, GradPimMemory, KernelParts, Placement, RfuBits, ScalerValue,
};
use gradpim_dram::DramConfig;
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix};

fn bench_kernel_compile(c: &mut Criterion) {
    let cfg = DramConfig::ddr4_2133();
    let n = 2048 * 64;
    let placement =
        Placement::for_optimizer(OptimizerKind::MomentumSgd, PrecisionMix::MIXED_8_32, n, &cfg)
            .unwrap();
    let hyper = HyperParams::default();
    let mut g = c.benchmark_group("pim_compile");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("momentum_128k_params", |b| {
        b.iter(|| {
            compile_step(&placement, &hyper, &cfg, KernelParts::ALL).unwrap().counts().total()
        })
    });
    g.finish();
}

fn bench_scaler(c: &mut Criterion) {
    c.bench_function("scaler_approximate", |b| {
        let mut x = 0.0013f64;
        b.iter(|| {
            x = (x * 1.618).rem_euclid(10.0) + 1e-6;
            ScalerValue::approximate(x)
        })
    });
}

fn bench_isa(c: &mut Criterion) {
    c.bench_function("isa_decode_encode_32", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for v in 0..32u8 {
                let f = GradPimFunc::decode(RfuBits::unpack(v)).unwrap();
                acc += f.encode().pack() as u32;
            }
            acc
        })
    });
}

fn bench_functional_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("pim_functional");
    g.sample_size(10);
    let n = 4096;
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("in_dram_momentum_step_4k", |b| {
        let hyper =
            HyperParams { lr: 0.125, momentum: 0.5, weight_decay: 0.0, ..Default::default() };
        let mut mem = GradPimMemory::new(
            DramConfig::ddr4_2133(),
            OptimizerKind::MomentumSgd,
            PrecisionMix::MIXED_8_32,
            hyper,
            n,
        )
        .unwrap();
        mem.load_theta(&vec![0.5; n]);
        b.iter(|| {
            mem.write_gradients(&vec![0.01; n]);
            mem.step().unwrap().total_cycles()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernel_compile, bench_scaler, bench_isa, bench_functional_step);
criterion_main!(benches);
