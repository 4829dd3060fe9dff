//! Mixed-cost tail benchmark for the engine's batch dispatch: a batch
//! whose heaviest job sits **last** in input order — the worst case for
//! FIFO dispatch, where every light job runs first and the heavy one
//! begins only after the lanes have mostly gone idle. Cost-seeded
//! dispatch (`Engine::run` with estimated cycles) starts the heavy job
//! first, so the tail overlaps the light work and the cost-seeded median
//! comes in clearly under the FIFO one.
//!
//! Jobs are fixed-duration waits rather than spin loops: sleeping
//! threads overlap even when the host has a single hardware core (CI
//! containers often do), so the measured makespan reflects the dispatch
//! policy itself instead of CPU contention. Results are asserted
//! bit-identical between the two dispatch orders on every iteration —
//! only the wall clock may differ.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use gradpim_engine::Engine;

/// A job of a known duration `n` (microseconds) — a stand-in for a sweep
/// point whose simulated cycle count the cost model estimated as `n`.
fn wait(n: u64) -> u64 {
    std::thread::sleep(Duration::from_micros(n));
    n
}

const LIGHT_US: u64 = 2_000;
/// Seven light jobs and one 4x-heavy job, heavy last in input order. A
/// budget of 4 gives four lanes (the submitting bench thread is one):
/// FIFO burns a full light round before the heavy job starts (makespan
/// ~5 light-units); cost-seeded starts it immediately (makespan ~4
/// light-units).
const JOBS: [u64; 8] =
    [LIGHT_US, LIGHT_US, LIGHT_US, LIGHT_US, LIGHT_US, LIGHT_US, LIGHT_US, 4 * LIGHT_US];

fn bench_tail_dispatch(c: &mut Criterion) {
    let engine = Engine::new(4);
    let expect: Vec<u64> = JOBS.to_vec();
    let mut g = c.benchmark_group("sched_tail");
    g.sample_size(10);
    g.bench_function("tail_heavy_fifo", |b| {
        b.iter(|| {
            let out = engine.run(&JOBS, None, |_, &n, _| Ok::<_, ()>(wait(n))).unwrap();
            assert_eq!(out, expect, "FIFO dispatch changed the results");
            out.len()
        })
    });
    let costs: Vec<u64> = JOBS.to_vec();
    g.bench_function("tail_heavy_cost_seeded", |b| {
        b.iter(|| {
            let out = engine.run(&JOBS, Some(&costs), |_, &n, _| Ok::<_, ()>(wait(n))).unwrap();
            assert_eq!(out, expect, "cost-seeded dispatch changed the results");
            out.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_tail_dispatch);
criterion_main!(benches);
