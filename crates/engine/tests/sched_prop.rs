//! Property tests pinning the batch contract of `Engine::run` to the
//! sequential executor: over random job counts, outcome scripts (ok /
//! error / panic), thread budgets, and whatever interleaving
//! the OS produces, an ordered batch must return exactly what a
//! sequential left-to-right run would — same results, same
//! lowest-index failure, same panic payload — plus the watermark and
//! budget guarantees the parallel path adds.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

use gradpim_dram::DramConfig;
use gradpim_engine::Engine;
use gradpim_sim::{Design, SystemConfig, TrainingSim};
use gradpim_workloads::models;
use proptest::prelude::*;

/// What one scripted job does when it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Ok,
    Err,
    Panic,
}

/// Maps a random byte to an outcome, weighted so most jobs succeed (a
/// batch that always fails at index 0 tests nothing downstream of it).
fn outcome(code: u8) -> Outcome {
    match code {
        0..=11 => Outcome::Ok,
        12..=13 => Outcome::Err,
        _ => Outcome::Panic,
    }
}

/// The failure a sequential left-to-right executor would surface: the
/// lowest-indexed non-Ok outcome.
fn first_failure(codes: &[u8]) -> Option<(usize, Outcome)> {
    codes.iter().enumerate().map(|(i, &c)| (i, outcome(c))).find(|&(_, o)| o != Outcome::Ok)
}

/// Counts the jobs running at once and keeps the high-water mark.
#[derive(Default)]
struct Gauge {
    live: AtomicUsize,
    max: AtomicUsize,
}

impl Gauge {
    /// Marks one job running until the returned guard drops (panics
    /// included).
    fn enter(&self) -> impl Drop + '_ {
        struct Leave<'a>(&'a AtomicUsize);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.fetch_sub(1, Ordering::SeqCst);
            }
        }
        let now = self.live.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
        Leave(&self.live)
    }
}

proptest! {
    // Each case spawns (and joins) real lanes; keep the count moderate —
    // the interleavings vary per case anyway because thread budgets, job
    // counts, and spin lengths all vary.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_batches_match_the_sequential_executor(
        codes in prop::collection::vec(0u8..16, 0..40),
        spins in prop::collection::vec(0u32..400, 0..40),
        threads in 1usize..=6,
    ) {
        let engine = Engine::new(threads);
        let gauge = Gauge::default();
        let executed: Vec<AtomicU32> = codes.iter().map(|_| AtomicU32::new(0)).collect();
        // Each job carries its own index, so the script can find its
        // counters and outcome.
        let jobs: Vec<(usize, u8)> = codes.iter().copied().enumerate().collect();

        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run(&jobs, |&(i, code)| {
                let _running = gauge.enter();
                executed[i].fetch_add(1, Ordering::Relaxed);
                // Unequal job lengths scramble completion order.
                std::hint::black_box((0..spins.get(i).copied().unwrap_or(0)).sum::<u32>());
                match outcome(code) {
                    Outcome::Ok => Ok(i as u64 * 3),
                    Outcome::Err => Err(format!("job {i} failed")),
                    Outcome::Panic => panic::panic_any(format!("job {i} panicked")),
                }
            })
        }));

        // 1. The returned value is exactly the sequential executor's.
        match (first_failure(&codes), run) {
            (None, Ok(Ok(out))) => {
                let expect: Vec<u64> = (0..codes.len() as u64).map(|i| i * 3).collect();
                prop_assert_eq!(out, expect);
            }
            (Some((i, Outcome::Err)), Ok(Err(msg))) => {
                prop_assert_eq!(msg, format!("job {i} failed"));
            }
            (Some((i, Outcome::Panic)), Err(payload)) => {
                let msg = payload.downcast_ref::<String>().cloned().unwrap_or_default();
                prop_assert_eq!(msg, format!("job {i} panicked"));
            }
            (expect, got) => {
                let got = match got {
                    Ok(Ok(v)) => format!("Ok({} results)", v.len()),
                    Ok(Err(e)) => format!("Err({e})"),
                    Err(_) => "panic".to_owned(),
                };
                prop_assert!(false, "expected {expect:?}, the batch returned {got}");
            }
        }

        // 2. Watermark: every job runs at most once; every job at or
        // below the lowest failing index runs exactly once (its slot is
        // what failure resolution scans); only jobs above it may be
        // skipped.
        let bound = first_failure(&codes).map_or(codes.len(), |(i, _)| i + 1);
        for (i, count) in executed.iter().enumerate() {
            let count = count.load(Ordering::Relaxed);
            prop_assert!(count <= 1, "job {i} ran {count} times");
            if i < bound {
                prop_assert_eq!(count, 1, "job {i} below the failure watermark was skipped");
            }
        }

        // 3. The thread budget held: never more jobs at once than lanes.
        let max = gauge.max.load(Ordering::SeqCst);
        prop_assert!(max <= threads, "{max} jobs ran at once on {threads} threads");
    }
}

#[test]
fn multi_channel_sweep_matches_sequential() {
    // A sweep over multi-channel configs on a 4-thread engine produces
    // results bit-identical to the sequential engine.
    let net = models::mlp();
    let mut jobs = Vec::new();
    for design in [Design::Baseline, Design::GradPimBuffered] {
        let mut cfg = SystemConfig::new(design);
        cfg.base_dram = DramConfig::ddr5_like(); // 2 channels
        cfg.apply_quick(Some((1500, 20_000)));
        jobs.push(cfg);
    }
    let train = |cfg: &SystemConfig| TrainingSim::new(cfg.clone()).run(&net);
    let seq = Engine::sequential().run(&jobs, train).unwrap();
    let engine = Engine::new(4);
    let par = engine.run(&jobs, train).unwrap();
    assert_eq!(seq, par, "multi-channel parallel run diverged from sequential");
    assert_eq!(engine.sched_stats().jobs, 2);
}
