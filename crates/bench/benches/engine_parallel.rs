//! Criterion group for the parallel execution engine: sweep-point
//! scaling (the `GRADPIM_THREADS=1` vs `=4` comparison the CI smoke keys
//! on).
//!
//! On a multi-core host the `threads4` timings should come in well under
//! the `threads1` ones; the results themselves are bit-identical (asserted
//! here on every iteration).

use criterion::{criterion_group, criterion_main, Criterion};
use gradpim_engine::{sweeps, Engine};
use gradpim_workloads::models;

fn bench_sweep_scheduler(c: &mut Criterion) {
    // A 6-point Fig. 12b sweep (two networks × three batch sizes) with
    // small traffic caps: enough work per point to dominate scheduling
    // overhead, small enough to iterate.
    let nets = [models::mlp(), models::resnet18()];
    let quick = Some((1500u64, 20_000usize));
    let expect = sweeps::batch_sweep(&nets, quick, &Engine::sequential()).unwrap();
    let mut g = c.benchmark_group("engine_sweep");
    g.sample_size(10);
    for threads in [1usize, 4] {
        let engine = Engine::new(threads);
        g.bench_function(format!("fig12b_6pts_threads{threads}"), |b| {
            b.iter(|| {
                let pts = sweeps::batch_sweep(&nets, quick, &engine).unwrap();
                assert_eq!(pts, expect, "threaded sweep diverged");
                pts.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sweep_scheduler);
criterion_main!(benches);
