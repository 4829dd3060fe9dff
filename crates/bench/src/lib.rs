//! Shared plumbing for the per-figure/per-table benchmark harnesses.
//!
//! Every `benches/figNN_*.rs` target regenerates one table or figure of the
//! paper, printing the same rows/series the paper reports. By default the
//! harnesses run with scaled traffic (linear extrapolation over streaming
//! phases — see `gradpim_sim::phase`); set `GRADPIM_FULL=1` for
//! full-fidelity runs (read by [`gradpim_sim::env::full_fidelity`]).

use gradpim_sim::sweeps::{QuickCaps, SweepFamily};
use gradpim_sim::{env, Design, SystemConfig};
use gradpim_workloads::{models, Network};

/// A system configuration with bench-friendly traffic caps (unless
/// `GRADPIM_FULL=1` is set, which removes all caps).
pub fn bench_config(design: Design) -> SystemConfig {
    let mut c = SystemConfig::new(design);
    if !env::full_fidelity() {
        // Doubled when the event-driven fast-forward core landed.
        c.max_sim_bursts = 48 * 1024;
        c.max_sim_params = 256 * 1024;
    }
    c
}

/// The five evaluation networks in the paper's plotting order.
pub fn networks() -> Vec<Network> {
    models::all_networks()
}

/// Every typed point of sweep family `F` on `nets`, simulated
/// sequentially in figure order (`F::specs` mapped through `F::run_spec`).
///
/// # Panics
///
/// On a simulation error: a harness has nothing to recover.
pub fn points<F: SweepFamily>(nets: &[Network], quick: QuickCaps) -> Vec<F::Out> {
    F::specs(nets, quick)
        .iter()
        .map(F::run_spec)
        .collect::<Result<_, _>>()
        .expect("simulation failed")
}

/// Prints a figure/table banner.
pub fn banner(id: &str, caption: &str) {
    println!();
    println!("==============================================================");
    println!("{id} — {caption}");
    println!("==============================================================");
}

/// Formats a fraction as a percentage string.
pub fn pct(x: f64) -> String {
    format!("{:6.1}%", x * 100.0)
}

/// Formats bytes as MB.
pub fn mb(x: f64) -> String {
    format!("{:8.1} MB", x / 1e6)
}

/// Formats nanoseconds as milliseconds.
pub fn ms(x: f64) -> String {
    format!("{:8.3} ms", x / 1e6)
}
