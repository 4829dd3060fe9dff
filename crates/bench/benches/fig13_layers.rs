//! Fig. 13: layer characterization — per-layer speedup vs weight/activation
//! ratio (x log scale).
//!
//! Paper shape: "a clear correlation between the weight/activation ratio
//! and the speedup"; early convs (large activations, small filters) gain
//! little, late convs and FC layers gain 2–3.5×.

use gradpim_bench::{banner, networks, points};
use gradpim_sim::sweeps::LayerScatter;

fn main() {
    banner("Fig. 13", "Per-layer speedup (%) vs weight/activation ratio");
    let quick =
        if gradpim_sim::env::full_fidelity() { None } else { Some((4 * 1024u64, 48 * 1024usize)) };
    let nets = networks();
    let mut pts = points::<LayerScatter>(&nets, quick);
    pts.sort_by(|a, b| a.ratio.total_cmp(&b.ratio));
    println!("{:<14} {:<16} {:>14} {:>12}", "network", "layer", "W/A ratio", "speedup %");
    for p in &pts {
        println!("{:<14} {:<16} {:>14.4} {:>12.1}", p.network, p.layer, p.ratio, p.speedup_pct);
    }
    // Correlation summary (rank correlation over the scatter).
    let n = pts.len() as f64;
    let mean_r = pts.iter().map(|p| p.ratio.log10()).sum::<f64>() / n;
    let mean_s = pts.iter().map(|p| p.speedup_pct).sum::<f64>() / n;
    let (mut cov, mut vr, mut vs) = (0.0, 0.0, 0.0);
    for p in &pts {
        let dr = p.ratio.log10() - mean_r;
        let ds = p.speedup_pct - mean_s;
        cov += dr * ds;
        vr += dr * dr;
        vs += ds * ds;
    }
    println!(
        "\nPearson correlation of log10(ratio) vs speedup: {:.2} (paper: clearly positive)",
        cov / (vr.sqrt() * vs.sqrt())
    );
}
