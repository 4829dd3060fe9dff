//! Fig. 12c: speedup vs mixed-precision level (8/32, 16/32, 8/16, 32/32).
//!
//! Paper targets: 8/16 → 1.39×, 16/32 → 1.43×, 32/32 → 1.26× (gmean across
//! networks, each vs the same-precision baseline).

use gradpim_bench::{banner, networks, points};
use gradpim_optim::PrecisionMix;
use gradpim_sim::sweeps::Precision;

fn main() {
    banner(
        "Fig. 12c",
        "Speedup (%) vs precision mix (paper gmeans: 8/16 139%, 16/32 143%, 32/32 126%)",
    );
    let quick =
        if gradpim_sim::env::full_fidelity() { None } else { Some((12 * 1024u64, 96 * 1024usize)) };
    let nets = networks();
    let pts = points::<Precision>(&nets, quick);
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>12}",
        "network", "8b/32b", "16b/32b", "8b/16b", "32b/32b"
    );
    for net in &nets {
        let cell = |mix: PrecisionMix| {
            pts.iter()
                .find(|p| p.network == net.name && p.mix == mix)
                .expect("swept point")
                .speedup_pct
        };
        println!(
            "{:<14} {:>9.0}% {:>9.0}% {:>9.0}% {:>11.0}%",
            net.name,
            cell(PrecisionMix::MIXED_8_32),
            cell(PrecisionMix::MIXED_16_32),
            cell(PrecisionMix::MIXED_8_16),
            cell(PrecisionMix::FULL_32),
        );
    }
    for mix in PrecisionMix::ALL {
        let g: f64 =
            pts.iter().filter(|p| p.mix == mix).map(|p| (p.speedup_pct / 100.0).ln()).sum::<f64>()
                / nets.len() as f64;
        println!("gmean {mix}: {:.0}%", g.exp() * 100.0);
    }
}
