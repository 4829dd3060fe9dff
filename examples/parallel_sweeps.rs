//! Parallel sweeps through the execution engine.
//!
//! Runs the Fig. 12b minibatch sweep twice — once on a single-threaded
//! engine, once on a pool sized by `GRADPIM_THREADS` (default: available
//! parallelism) — and checks the points are bit-identical.
//!
//! ```sh
//! GRADPIM_THREADS=4 cargo run --release --example parallel_sweeps
//! ```

use std::time::Instant;

use gradpim::engine::Engine;
use gradpim::workloads::models;

fn main() {
    // Independent sweep points across a worker pool.
    let nets = [models::mlp(), models::resnet18()];
    let quick = Some((4 * 1024, 32 * 1024));

    let t0 = Instant::now();
    let seq = gradpim::engine::sweeps::batch_sweep(&nets, quick, &Engine::sequential())
        .expect("sequential sweep");
    let t_seq = t0.elapsed();

    let engine = Engine::from_env();
    let t0 = Instant::now();
    let par = gradpim::engine::sweeps::batch_sweep(&nets, quick, &engine).expect("parallel sweep");
    let t_par = t0.elapsed();

    assert_eq!(seq, par, "parallel sweep must be bit-identical to sequential");
    println!("Fig. 12b sweep, {} points:", par.len());
    println!("{:<14} {:>8} {:>10}", "network", "batch", "speedup");
    for p in &par {
        println!("{:<14} {:>8} {:>9.0}%", p.network, p.batch, p.speedup_pct);
    }
    println!(
        "\nsequential: {:>7.2}s   {} threads: {:>7.2}s   ({:.2}x, bit-identical points)",
        t_seq.as_secs_f64(),
        engine.threads(),
        t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
    );
}
