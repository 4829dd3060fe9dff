//! The engine's one parallel primitive: an ordered batch of independent
//! jobs over a scoped pool of lanes.
//!
//! GradPIM's evaluation is a flat set of independent phase calls, so
//! parallelism here is flat too. A parallel batch runs
//! `min(threads, jobs)` lanes — the calling thread plus
//! [`std::thread::scope`] threads spawned for this batch and joined before
//! it returns — and every lane takes job indices, in input order, from one
//! atomic cursor. The contract is that of a sequential left-to-right
//! executor:
//!
//! * results come back in **input order**;
//! * the failure (error *or* panic) of the **lowest-indexed** failing job
//!   wins, exactly the one a sequential run would have stopped on, and a
//!   panic payload is re-raised intact via [`std::panic::resume_unwind`]
//!   (never masked by a secondary poisoned-mutex panic);
//! * once a failure at index `k` is observed, not-yet-started jobs above
//!   `k` are skipped **best-effort**: the check races with failure
//!   recording, so a higher-indexed job may still start. Every job below
//!   the final failure watermark runs to completion, so the returned
//!   failure is identical under any schedule;
//! * with one thread or at most one job everything runs inline on the
//!   caller, sequentially and fail-fast.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, ignoring poison: every guarded value here is a plain
/// store that stays consistent across a panic, and panic payloads are
/// propagated explicitly instead of through poison.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cumulative batch counters of one [`crate::Engine`], snapshotted by
/// [`crate::Engine::sched_stats`]. Monotone and advisory: they let tests
/// and operators observe scheduling, they never feed back into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedStats {
    /// Batches executed on the parallel path.
    pub batches: u64,
    /// Jobs executed on the parallel path (distinct phase calls, …); the
    /// inline path counts none.
    pub jobs: u64,
    /// Always 0. Channel-level drains no longer exist; the field stays
    /// so existing readers of the counters keep compiling.
    pub drain_chunks: u64,
}

/// The live counters behind [`SchedStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    batches: AtomicU64,
    jobs: AtomicU64,
}

impl Counters {
    /// A point-in-time copy of the counters.
    pub(crate) fn snapshot(&self) -> SchedStats {
        SchedStats {
            batches: self.batches.load(Ordering::Relaxed),
            jobs: self.jobs.load(Ordering::Relaxed),
            drain_chunks: 0,
        }
    }
}

/// One job's outcome, its panic payload included; `None` until it ran.
type Slot<R, E> = Mutex<Option<std::thread::Result<Result<R, E>>>>;

/// Runs `f` over every job on up to `threads` lanes with the contract in
/// the module docs.
///
/// # Errors
///
/// The error of the lowest-indexed failing job.
///
/// # Panics
///
/// Re-raises the original payload of the lowest-indexed panicking job.
pub(crate) fn run_batch<T, R, E, F>(
    threads: usize,
    counters: &Counters,
    jobs: &[T],
    f: F,
) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    if threads <= 1 || jobs.len() <= 1 {
        // Inline: fail-fast, stopping at the first failing job.
        return jobs.iter().map(f).collect();
    }
    counters.batches.fetch_add(1, Ordering::Relaxed);
    let _span = gradpim_obs::span_lazy(|| format!("sched.batch[{}]", jobs.len()), "sched");

    let cursor = AtomicUsize::new(0);
    // Lowest failing (error or panic) index observed so far; only ever
    // decreases. Every slot below the final watermark holds an Ok.
    let failed = AtomicUsize::new(usize::MAX);
    let slots: Vec<Slot<R, E>> = jobs.iter().map(|_| Mutex::new(None)).collect();

    let lane = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let (Some(job), Some(slot)) = (jobs.get(i), slots.get(i)) else { break };
        if i > failed.load(Ordering::Relaxed) {
            continue;
        }
        counters.jobs.fetch_add(1, Ordering::Relaxed);
        // Catch panics per job: the payload must reach the caller intact,
        // and the lane must stay alive for the rest of the batch.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(job)));
        if !matches!(outcome, Ok(Ok(_))) {
            failed.fetch_min(i, Ordering::Relaxed);
        }
        *lock_unpoisoned(slot) = Some(outcome);
    };
    std::thread::scope(|s| {
        for k in 1..threads.min(jobs.len()) {
            // A lane that fails to spawn is not an error: the lanes that
            // did start (the caller's at least) drain the whole cursor.
            let _ =
                std::thread::Builder::new().name(format!("gradpim-lane-{k}")).spawn_scoped(s, lane);
        }
        lane();
    });

    // Every lane has joined. Failure resolution is a sequential in-order
    // scan, so the lowest-indexed failure wins whether it was an Err or a
    // panic.
    let mut out = Vec::with_capacity(jobs.len());
    for slot in slots {
        match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(Ok(Ok(r))) => out.push(r),
            Some(Ok(Err(e))) => return Err(e),
            Some(Err(payload)) => panic::resume_unwind(payload),
            // A skipped job: only possible past the lowest failing index,
            // whose own slot is reached first.
            // gradpim-lint: allow(panic-discipline): documented invariant above —
            // an empty slot before the first failure cannot occur.
            None => unreachable!("empty result slot before the first failure"),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use std::sync::atomic::AtomicU32;
    use std::time::Duration;

    /// One batch on a fresh engine of `threads` lanes.
    fn run<T, R, E>(
        threads: usize,
        jobs: &[T],
        f: impl Fn(&T) -> Result<R, E> + Sync,
    ) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
    {
        Engine::new(threads).run(jobs, f)
    }

    fn payload_text(payload: &(dyn std::any::Any + Send)) -> String {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn spawn_count_is_the_budget_minus_the_caller() {
        // A batch runs on the caller plus at most threads - 1 spawned
        // lanes; a 1-thread engine never leaves the caller.
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 5] {
            let lanes = Mutex::new(Vec::new());
            let jobs: Vec<u64> = (0..32).collect();
            run(threads, &jobs, |_| {
                let me = std::thread::current().id();
                let mut seen = lock_unpoisoned(&lanes);
                if !seen.contains(&me) {
                    seen.push(me);
                }
                drop(seen);
                std::thread::sleep(Duration::from_micros(200));
                Ok::<_, ()>(())
            })
            .unwrap();
            let lanes = lanes.into_inner().unwrap();
            let spawned = lanes.iter().filter(|&&t| t != caller).count();
            assert!(spawned < threads, "threads={threads}: {spawned} spawned lanes ran jobs");
            if threads == 1 {
                assert_eq!(lanes, vec![caller], "a 1-thread batch runs inline");
            }
        }
        assert_eq!(Engine::new(0).threads(), 1, "clamped to sequential");
    }

    #[test]
    fn results_come_back_in_input_order() {
        let jobs: Vec<usize> = (0..40).collect();
        // Deliberately uneven job times so completion order scrambles.
        let out: Vec<usize> = run(4, &jobs, |&j| {
            if j % 7 == 0 {
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok::<_, ()>(j * 10)
        })
        .unwrap();
        assert_eq!(out, (0..40).map(|j| j * 10).collect::<Vec<_>>());
    }

    #[test]
    fn first_error_in_input_order_wins() {
        let jobs: Vec<usize> = (0..32).collect();
        // Jobs 5 and 20 fail; the input-order-first error (5) must be
        // returned no matter which lane hits which first.
        for threads in [1usize, 3, 8] {
            let err = run(threads, &jobs, |&j| {
                if j == 5 || j == 20 {
                    Err(format!("job {j} failed"))
                } else {
                    Ok(j)
                }
            })
            .unwrap_err();
            assert_eq!(err, "job 5 failed", "threads={threads}");
        }
    }

    #[test]
    fn failure_cancels_higher_indexed_jobs() {
        // Job 0 fails immediately; the remaining jobs are slow. Once the
        // failure watermark is set, the tail must be skipped rather than
        // simulated to completion. Determinism still demands the job-0
        // error back.
        let jobs: Vec<usize> = (0..2000).collect();
        let ran = AtomicU32::new(0);
        let err = run(2, &jobs, |&j| {
            ran.fetch_add(1, Ordering::Relaxed);
            if j == 0 {
                Err("job 0 failed")
            } else {
                std::thread::sleep(Duration::from_micros(200));
                Ok(j)
            }
        })
        .unwrap_err();
        assert_eq!(err, "job 0 failed");
        // Jobs in flight when the watermark dropped may have run, but the
        // vast majority of the tail must have been skipped.
        assert!(
            ran.load(Ordering::Relaxed) < jobs.len() as u32 / 2,
            "ran {} of {} jobs after an early failure",
            ran.load(Ordering::Relaxed),
            jobs.len()
        );
    }

    #[test]
    fn sequential_fallback_is_fail_fast() {
        let ran = AtomicU32::new(0);
        let jobs: Vec<usize> = (0..10).collect();
        let err = run(1, &jobs, |&j| {
            ran.fetch_add(1, Ordering::Relaxed);
            if j == 3 {
                Err("boom")
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, "boom");
        // Inline mode stops at the failing job, like a plain loop.
        assert_eq!(ran.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn more_threads_than_jobs_is_fine() {
        let jobs = [1u64, 2];
        let out = run(16, &jobs, |&j| Ok::<_, ()>(j + 1)).unwrap();
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn empty_jobs_yield_empty_results() {
        let jobs: [u8; 0] = [];
        let out: Vec<u8> = run(4, &jobs, |&j| Ok::<_, ()>(j)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn pool_is_reused_across_batches() {
        // Many small batches on one engine: results stay deterministic
        // batch after batch.
        let engine = Engine::new(4);
        for round in 0..50usize {
            let jobs: Vec<usize> = (0..8).collect();
            let out = engine.run(&jobs, |&j| Ok::<_, ()>(j + round)).unwrap();
            assert_eq!(out, (0..8).map(|j| j + round).collect::<Vec<_>>());
        }
        assert_eq!(engine.threads(), 4);
    }

    #[test]
    fn panicking_job_propagates_the_original_payload() {
        // Regression: a panicking job used to poison its slot mutex and
        // the collection loop then died on a secondary "result slot
        // poisoned" panic, masking the real payload.
        let jobs: Vec<usize> = (0..16).collect();
        for threads in [1usize, 4] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                run(threads, &jobs, |&j| {
                    if j == 6 {
                        panic!("original payload from job {j}");
                    }
                    Ok::<_, ()>(j)
                })
            }))
            .unwrap_err();
            assert_eq!(payload_text(&*caught), "original payload from job 6", "threads={threads}");
        }
    }

    #[test]
    fn lowest_indexed_panic_wins_across_panics() {
        let jobs: Vec<usize> = (0..32).collect();
        // Make the higher-indexed panic land first.
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, &jobs, |&j| {
                if j == 3 {
                    std::thread::sleep(Duration::from_millis(5));
                    panic!("panic at 3");
                }
                if j == 20 {
                    panic!("panic at 20");
                }
                std::thread::sleep(Duration::from_micros(100));
                Ok::<_, ()>(j)
            })
        }))
        .unwrap_err();
        assert_eq!(payload_text(&*caught), "panic at 3");
    }

    #[test]
    fn lower_indexed_error_beats_higher_indexed_panic() {
        // Sequential semantics: job 2 errors before job 9 would ever run,
        // so the error is returned and the panic payload is discarded.
        let jobs: Vec<usize> = (0..16).collect();
        let res = panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, &jobs, |&j| {
                if j == 2 {
                    std::thread::sleep(Duration::from_millis(2));
                    return Err("error at 2");
                }
                if j == 9 {
                    panic!("panic at 9");
                }
                Ok(j)
            })
        }))
        .expect("an error below a panic must not re-panic");
        assert_eq!(res.unwrap_err(), "error at 2");
    }

    #[test]
    fn lower_indexed_panic_beats_higher_indexed_error() {
        let jobs: Vec<usize> = (0..16).collect();
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            run(4, &jobs, |&j| {
                if j == 1 {
                    std::thread::sleep(Duration::from_millis(2));
                    panic!("panic at 1");
                }
                if j == 8 {
                    return Err("error at 8");
                }
                Ok(j)
            })
        }))
        .unwrap_err();
        assert_eq!(payload_text(&*caught), "panic at 1");
    }

    #[test]
    fn pool_survives_a_panicking_batch() {
        // A panic in one batch must not wedge the engine's next batch.
        let engine = Engine::new(3);
        let jobs: Vec<usize> = (0..8).collect();
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            engine.run(&jobs, |&j| {
                if j == 0 {
                    panic!("first batch dies");
                }
                Ok::<_, ()>(j)
            })
        }));
        let out = engine.run(&jobs, |&j| Ok::<_, ()>(j * 2)).unwrap();
        assert_eq!(out, (0..8).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_runs_from_inside_a_job_complete() {
        // A batch run from inside a job gets lanes of its own for its
        // duration; results are those of the sequential nesting.
        let engine = Engine::new(2);
        let outer: Vec<usize> = (0..4).collect();
        let out = engine
            .run(&outer, |&j| {
                let inner: Vec<usize> = (0..3).collect();
                let sums = engine.run(&inner, |&k| Ok::<_, ()>(k * 10))?;
                Ok::<_, ()>(j + sums.iter().sum::<usize>())
            })
            .unwrap();
        assert_eq!(out, vec![30, 31, 32, 33]);
    }

    #[test]
    fn concurrent_batches_share_one_pool() {
        // Two threads driving the same engine concurrently: each batch
        // keeps its own ordering.
        let engine = Engine::new(4);
        std::thread::scope(|s| {
            for round in 0..4usize {
                let engine = &engine;
                s.spawn(move || {
                    let jobs: Vec<usize> = (0..32).collect();
                    let out = engine.run(&jobs, |&j| Ok::<_, ()>(j * round)).unwrap();
                    assert_eq!(out, (0..32).map(|j| j * round).collect::<Vec<_>>());
                });
            }
        });
        assert_eq!(engine.sched_stats().batches, 4);
    }

    #[test]
    fn stats_count_batches_and_jobs_consistently() {
        let engine = Engine::new(4);
        let jobs: Vec<u64> = (0..64).collect();
        for _ in 0..4 {
            let out = engine
                .run(&jobs, |&j| {
                    std::hint::black_box((0..500u64).sum::<u64>());
                    Ok::<_, ()>(j)
                })
                .unwrap();
            assert_eq!(out.len(), 64);
        }
        // The inline path counts nothing: a 1-job batch on this engine,
        // and any batch on a single-thread engine.
        engine.run(&[1u8], |&j| Ok::<_, ()>(j)).unwrap();
        let stats = engine.sched_stats();
        assert_eq!((stats.batches, stats.jobs, stats.drain_chunks), (4, 4 * 64, 0));
        let sequential = Engine::sequential();
        sequential.run(&jobs, |&j| Ok::<_, ()>(j)).unwrap();
        let stats = sequential.sched_stats();
        assert_eq!((stats.batches, stats.jobs, stats.drain_chunks), (0, 0, 0));
    }
}
