//! Fig. 12b: overall speedup vs minibatch size (16 / 32 / 64) per network.
//!
//! Paper shape: "smaller batch size leads to higher speedup" — the update
//! phase is batch-independent, so it occupies a larger share of smaller
//! batches.

use gradpim_bench::{banner, networks, points};
use gradpim_sim::sweeps::BatchSize;

fn main() {
    banner("Fig. 12b", "Speedup (%) vs minibatch size");
    let quick =
        if gradpim_sim::env::full_fidelity() { None } else { Some((12 * 1024u64, 96 * 1024usize)) };
    let nets = networks();
    let pts = points::<BatchSize>(&nets, quick);
    println!("{:<14} {:>8} {:>8} {:>8}", "network", "b=16", "b=32", "b=64");
    for net in &nets {
        let row: Vec<f64> = [16, 32, 64]
            .iter()
            .map(|b| {
                pts.iter()
                    .find(|p| p.network == net.name && p.batch == *b)
                    .expect("swept point")
                    .speedup_pct
            })
            .collect();
        println!("{:<14} {:>7.0}% {:>7.0}% {:>7.0}%", net.name, row[0], row[1], row[2]);
    }
}
