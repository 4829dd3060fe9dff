//! Criterion group for the parallel execution engine: sweep-point
//! scaling (the `GRADPIM_THREADS=1` vs `=4` comparison the CI smoke keys
//! on).
//!
//! On a multi-core host the `threads4` timings should come in well under
//! the `threads1` ones; the reports themselves are bit-identical (asserted
//! here on every iteration).

use criterion::{criterion_group, criterion_main, Criterion};
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::Engine;

fn bench_sweep_scheduler(c: &mut Criterion) {
    // A 6-point Fig. 12b sweep (two networks × three batch sizes) with
    // small traffic caps: enough work per point to dominate scheduling
    // overhead, small enough to iterate.
    let spec = ExperimentSpec::new(
        Experiment::Fig12b,
        Some((1500, 20_000)),
        Some(vec!["MLP1".into(), "ResNet18".into()]),
    );
    let expect = spec.run(&Engine::sequential()).unwrap();
    let mut g = c.benchmark_group("engine_sweep");
    g.sample_size(10);
    for threads in [1usize, 4] {
        let engine = Engine::new(threads);
        g.bench_function(format!("fig12b_6pts_threads{threads}"), |b| {
            b.iter(|| {
                let report = spec.run(&engine).unwrap();
                assert_eq!(report, expect, "threaded sweep diverged");
                report.rows.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sweep_scheduler);
criterion_main!(benches);
