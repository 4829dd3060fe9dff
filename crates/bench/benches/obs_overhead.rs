//! Span-recording overhead on a dense batch workload: the same
//! engine-driven segment-update pass measured with tracing off (the
//! default — one relaxed atomic load per instrumentation site) and with
//! tracing on (every batch/segment span really recorded and drained).
//!
//! Beyond the criterion medians, the binary **asserts a pinned bound**:
//! the traced median must stay under 1.5x the untraced one. Recording a
//! span is two clock reads and a `Vec` push behind a thread-local; at
//! this density (one span per 64-element update) it adds about a fifth
//! to the pass on a 2-vCPU VM, so breaching 1.5x means the record path
//! got markedly slower (an allocation or lock landed on it). A third
//! entry pins the off-path itself by timing a block of disabled
//! span/instant calls.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use gradpim_engine::Engine;

/// Span-dense batch work: one `Engine::run` batch over four 64-element
/// segments of a 256-element buffer, each job making 64 update passes
/// over its segment with one span per pass (256 per call), plus the
/// engine's own `sched.batch` span. One batch per call pays one set of
/// lane spawns, so thread creation does not swamp the span cost; the
/// span name is static, as on the program's hot paths, so the bound
/// measures recording rather than name formatting.
fn segment_pass(engine: &Engine, segments: &mut [Vec<u64>]) -> u64 {
    let next = engine
        .run(segments, |seg: &Vec<u64>| {
            let mut seg = seg.clone();
            for _ in 0..64 {
                let _span = gradpim_obs::span("bench.segment", "bench");
                for x in &mut seg {
                    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                }
            }
            Ok::<_, ()>(seg)
        })
        .unwrap();
    segments.clone_from_slice(&next);
    next.len() as u64
}

/// Median wall time of `samples` runs of `f` (spans drained between
/// samples so traced buffers never grow across measurements).
fn median_of(samples: usize, mut f: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            let t = start.elapsed();
            drop(gradpim_obs::drain_spans());
            t
        })
        .collect();
    times.sort();
    times[times.len() / 2]
}

fn bench_obs_overhead(c: &mut Criterion) {
    let engine = Engine::new(4);
    let mut segments: Vec<Vec<u64>> = (0..4u64).map(|s| (s * 64..(s + 1) * 64).collect()).collect();

    let mut g = c.benchmark_group("obs_overhead");
    g.sample_size(10);
    gradpim_obs::set_tracing(false);
    g.bench_function("dense_drain_untraced", |b| b.iter(|| segment_pass(&engine, &mut segments)));
    gradpim_obs::set_tracing(true);
    g.bench_function("dense_drain_traced", |b| {
        b.iter(|| {
            let out = segment_pass(&engine, &mut segments);
            drop(gradpim_obs::drain_spans());
            out
        })
    });
    gradpim_obs::set_tracing(false);
    g.bench_function("span_calls_off_x4096", |b| {
        b.iter(|| {
            for i in 0..4096u32 {
                let _span = gradpim_obs::span("off.span", "bench");
                gradpim_obs::instant("off.instant", "bench");
                std::hint::black_box(i);
            }
        })
    });
    g.finish();

    // The pinned bound, measured directly so the assertion does not
    // depend on criterion internals: tracing a dense batch pass may cost
    // at most 50% over the untraced pass.
    gradpim_obs::set_tracing(false);
    let untraced = median_of(15, || {
        std::hint::black_box(segment_pass(&engine, &mut segments));
    });
    gradpim_obs::set_tracing(true);
    let traced = median_of(15, || {
        std::hint::black_box(segment_pass(&engine, &mut segments));
    });
    gradpim_obs::set_tracing(false);
    let ratio = traced.as_secs_f64() / untraced.as_secs_f64().max(1e-12);
    println!(
        "obs_overhead pinned bound: untraced={untraced:?} traced={traced:?} ratio={ratio:.3} (bound 1.5)"
    );
    assert!(
        traced.as_nanos() <= untraced.as_nanos() * 3 / 2,
        "span recording overhead breached the pinned bound: \
         traced {traced:?} > 1.5x untraced {untraced:?}"
    );
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
