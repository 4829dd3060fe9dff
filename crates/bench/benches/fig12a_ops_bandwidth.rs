//! Fig. 12a: speedup sensitivity to the operations/bandwidth ratio,
//! sweeping MAC-array sizes (64²–512²) over DDR4-2133 / DDR4-3200 / HBM2 on
//! AlphaGoZero.
//!
//! Paper shape: speedup grows with ops/bandwidth until fill latency and
//! tile quantization cap the gains; 20–70 % for NPU-class ratios, <20 %
//! toward GPU-class ratios (HBM).

use gradpim_bench::{banner, points};
use gradpim_sim::sweeps::OpsBandwidth;
use gradpim_workloads::models;

fn main() {
    banner("Fig. 12a", "Speedup (%) vs operations/bandwidth ratio on AlphaGoZero");
    let quick =
        if gradpim_sim::env::full_fidelity() { None } else { Some((12 * 1024u64, 96 * 1024usize)) };
    let pts = points::<OpsBandwidth>(&[models::alphago_zero()], quick);
    println!("{:<12} {:>8} {:>16} {:>12}", "memory", "MAC dim", "ops/byte", "speedup %");
    for p in &pts {
        println!(
            "{:<12} {:>8} {:>16.1} {:>12.1}",
            p.memory, p.mac_dim, p.ops_per_byte, p.speedup_pct
        );
    }
}
