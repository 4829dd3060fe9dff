//! Fig. 12d: memory energy relative to the same-precision no-PIM baseline,
//! per precision mix.
//!
//! Paper shape: a similar trend to the speedups, "since most of the
//! advantage on performance and energy both come from reducing the off-chip
//! bus traffic".

use gradpim_bench::{banner, networks, points};
use gradpim_optim::PrecisionMix;
use gradpim_sim::sweeps::Precision;

fn main() {
    banner("Fig. 12d", "Energy over baseline (%) per precision mix (lower is better)");
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
                .energy_pct
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
}
