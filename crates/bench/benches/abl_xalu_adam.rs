//! Ablation: the §VIII extended-ALU Adam path vs momentum SGD.
//!
//! Compares the update-kernel cost of the two-pass Adam schedule against
//! the single-pass momentum kernel, and demonstrates functional equivalence
//! of the in-DRAM Adam with the reference optimizer's behaviour.

use gradpim_bench::banner;
use gradpim_core::{compile_adam, compile_step, GradPimMemory, KernelParts, Placement};
use gradpim_dram::DramConfig;
use gradpim_optim::{Adam, HyperParams, Optimizer, OptimizerKind, PrecisionMix};

fn main() {
    banner("Ablation: extended ALU", "Two-pass Adam (§VIII) vs single-pass momentum SGD");
    let mut cfg = DramConfig::ddr4_2133();
    cfg.extended_alu = true;
    let n = 2048 * 16;
    let hyper = HyperParams::default();

    let mom = Placement::for_optimizer(OptimizerKind::MomentumSgd, PrecisionMix::FULL_32, n, &cfg)
        .expect("placement");
    let mom_plan = compile_step(&mom, &hyper, &cfg, KernelParts::ALL).expect("momentum plan");
    let adam = Placement::for_optimizer(OptimizerKind::Adam, PrecisionMix::FULL_32, n, &cfg)
        .expect("placement");
    let adam_passes = compile_adam(&adam, &hyper, 1, &cfg).expect("adam plan");
    let mom_cmds = mom_plan.counts().total() as f64;
    let adam_cmds = adam_passes.iter().map(|p| p.counts().total()).sum::<u64>() as f64;
    let cols = (n / mom.elems_per_col()) as f64;
    println!("commands per 64B column (full precision):");
    println!("  momentum SGD (1 pass) : {:>5.1}", mom_cmds / cols);
    println!("  Adam (2 passes)       : {:>5.1}", adam_cmds / cols);
    println!(
        "  cost ratio            : {:>5.2}x  (the §VIII 'slightly degrade the speedup')",
        adam_cmds / mom_cmds
    );

    // Functional: in-DRAM Adam vs the reference optimizer on a quadratic.
    let n = 512;
    let hyper = HyperParams { lr: 0.05, beta1: 0.5, beta2: 0.75, eps: 1e-8, ..Default::default() };
    let mut pim = GradPimMemory::new(cfg, OptimizerKind::Adam, PrecisionMix::FULL_32, hyper, n)
        .expect("memory");
    let theta0: Vec<f32> = (0..n).map(|i| (i as f32 / 64.0).sin() * 2.0).collect();
    pim.load_theta(&theta0);
    let mut reference = Adam::new(0.05, 0.5, 0.75, 1e-8, n);
    let mut host = theta0.clone();
    for _ in 0..40 {
        let g: Vec<f32> = pim.theta().iter().map(|&x| 2.0 * x).collect();
        pim.write_gradients(&g);
        pim.step().expect("step");
        let gh: Vec<f32> = host.iter().map(|&x| 2.0 * x).collect();
        reference.step(&mut host, &gh);
    }
    let pim_norm: f32 = pim.theta().iter().map(|x| x * x).sum::<f32>().sqrt();
    let ref_norm: f32 = host.iter().map(|x| x * x).sum::<f32>().sqrt();
    let init_norm: f32 = theta0.iter().map(|x| x * x).sum::<f32>().sqrt();
    println!("\nminimizing ||θ||² with Adam for 40 steps:");
    println!("  initial ||θ||        : {init_norm:.4}");
    println!("  in-DRAM Adam ||θ||   : {pim_norm:.4}");
    println!("  reference Adam ||θ|| : {ref_norm:.4}");
    println!(
        "  (scaler-approximated betas make the in-DRAM run differ from the exact\n   reference by design; both converge)"
    );
}
