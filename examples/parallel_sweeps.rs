//! Parallel sweeps through the execution engine.
//!
//! Runs the Fig. 12b minibatch sweep's `ExperimentSpec` twice — once on a
//! single-threaded engine, once on a pool sized by `GRADPIM_THREADS`
//! (default: available parallelism) — and checks the reports are
//! bit-identical.
//!
//! ```sh
//! GRADPIM_THREADS=4 cargo run --release --example parallel_sweeps
//! ```

use std::time::Instant;

use gradpim::engine::serialize::{Experiment, ExperimentSpec};
use gradpim::engine::{report, Engine};

fn main() {
    // Independent sweep points across a worker pool.
    let spec = ExperimentSpec::new(
        Experiment::Fig12b,
        Some((4 * 1024, 32 * 1024)),
        Some(vec!["MLP1".into(), "ResNet18".into()]),
    );

    let t0 = Instant::now();
    let seq = spec.run(&Engine::sequential()).expect("sequential sweep");
    let t_seq = t0.elapsed();

    let engine = Engine::from_env_with(&mut |m: &str| eprintln!("parallel_sweeps: {m}"));
    let t0 = Instant::now();
    let par = spec.run(&engine).expect("parallel sweep");
    let t_par = t0.elapsed();

    assert_eq!(seq, par, "parallel sweep must be bit-identical to sequential");
    println!("Fig. 12b sweep, {} points:", par.rows.len());
    print!("{}", report::to_table(&par));
    println!(
        "\nsequential: {:>7.2}s   {} threads: {:>7.2}s   ({:.2}x, bit-identical reports)",
        t_seq.as_secs_f64(),
        engine.threads(),
        t_par.as_secs_f64(),
        t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
    );
}
