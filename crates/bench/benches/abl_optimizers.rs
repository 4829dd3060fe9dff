//! Ablation: update-kernel cost per optimizer (§VIII).
//!
//! Compares the compiled command streams of the single-pass optimizers
//! (SGD, momentum, NAG) and shows the §VIII rejection of the adaptive
//! optimizers under the base ALU.

use gradpim_bench::banner;
use gradpim_core::{compile_step, KernelParts, Placement};
use gradpim_dram::DramConfig;
use gradpim_optim::{HyperParams, OptimizerKind, PrecisionMix};
use gradpim_sim::phase::pim_update_phase;
use gradpim_sim::{Design, SystemConfig};

fn main() {
    banner("Ablation: optimizers", "Kernel command cost per update algorithm (per 64B column)");
    let cfg = DramConfig::ddr4_2133();
    let n = 2048 * 16;
    let hyper = HyperParams::default();
    println!(
        "{:<14} {:>6} {:>6} {:>6} {:>6} {:>7} {:>10} {:>14}",
        "optimizer", "SR", "WB", "ALU", "QReg", "Q/DQ", "cmds/col", "update (us)"
    );
    for opt in OptimizerKind::ALL {
        let placement =
            Placement::for_optimizer(opt, PrecisionMix::MIXED_8_32, n, &cfg).expect("placement");
        match compile_step(&placement, &hyper, &cfg, KernelParts::ALL) {
            Ok(plan) => {
                let cols = (n / placement.elems_per_col()) as f64;
                let c = plan.counts();
                let sys = SystemConfig::new(Design::GradPimBuffered);
                let t = pim_update_phase(
                    &sys.dram(),
                    opt,
                    PrecisionMix::MIXED_8_32,
                    &hyper,
                    n as u64,
                    n as u64,
                )
                .expect("simulation failed");
                println!(
                    "{:<14} {:>6.2} {:>6.2} {:>6.2} {:>6.2} {:>7.2} {:>10.2} {:>14.1}",
                    opt.to_string(),
                    c.scaled_reads as f64 / cols,
                    c.writebacks as f64 / cols,
                    c.alu_ops as f64 / cols,
                    c.qreg_moves as f64 / cols,
                    c.quant_ops as f64 / cols,
                    c.total() as f64 / cols,
                    t.time_ns / 1e3,
                );
            }
            Err(e) => {
                println!("{:<14} {}", opt.to_string(), e);
            }
        }
    }
}
