//! The parallel execution engine: the sweep-point pool, the result
//! cache, and the plumbing behind the `gradpim-cli` experiment runner.
//!
//! GradPIM's evaluation is a flat set of independent simulations, and
//! this crate runs them in parallel without changing a single simulated
//! bit:
//!
//! * **Across simulations** — an experiment is a set of pure phase calls
//!   (`gradpim_sim::PhaseCall`). [`serialize::ExperimentSpec::run`] — the
//!   one sweep runner — plans every `gradpim_sim::sweeps` family's points
//!   into calls, answers each distinct call once, runs each distinct
//!   simulation (`gradpim_sim::Simulation`, the capped traffic calls
//!   share) once, and assembles the rows in figure order. [`Engine::run`]
//!   fans the distinct simulations over the scoped, ordered pool in
//!   [`sched`], with input-ordered results and the lowest-indexed failure
//!   winning, exactly as a sequential run.
//! * **Across runs** — an [`Engine::with_cache`] store serves row groups
//!   and distinct phase calls that an earlier run already simulated,
//!   bit-identically ([`cache`]).
//!
//! An experiment runs in one process. [`serialize::ExperimentSpec`]
//! round-trips through JSON (`gradpim-cli --emit-spec` / `--run-spec`),
//! so a spec written on one host runs identically on another.
//!
//! Each simulation itself runs on one thread: a memory system's channels
//! drain sequentially inside [`gradpim_dram::MemorySystem::drain`].
//!
//! [`Engine`] carries the one knob — the worker count — resolved from
//! `GRADPIM_THREADS` (falling back to the machine's available
//! parallelism) **exactly once**, at construction, and never re-read
//! downstream. `GRADPIM_THREADS=1` runs everything inline on the calling
//! thread, preserving the classic sequential behavior exactly.
//!
//! # Example
//!
//! ```
//! use gradpim_engine::serialize::{Experiment, ExperimentSpec};
//! use gradpim_engine::Engine;
//! use gradpim_sim::sweeps::{BatchSize, SweepFamily};
//! use gradpim_workloads::models;
//!
//! let quick = Some((1500, 20_000)); // doc-sized traffic caps
//! let spec = ExperimentSpec::new(Experiment::Fig12b, quick, Some(vec!["MLP1".into()]));
//! let report = spec.run(&Engine::new(2))?;
//! // Same rows, same order, as the family's sequential reference.
//! assert_eq!(report, BatchSize::report(&[models::mlp()], quick)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::unimplemented
)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod env;
mod json;
pub mod report;
pub mod sched;
pub mod serialize;
pub mod trace;

use std::sync::Arc;

use cache::CacheBackend;
use sched::{Counters, SchedStats};

/// The parallel execution engine: a worker count, the batch counters,
/// and an optional result cache ([`Engine::with_cache`]) that
/// [`serialize::ExperimentSpec::run`] consults for row groups and distinct
/// phase calls — bit-identical results, less re-simulation.
#[derive(Debug)]
pub struct Engine {
    threads: usize,
    cache: Option<Arc<dyn CacheBackend>>,
    counters: Counters,
}

impl Engine {
    /// An engine with exactly `threads` workers (clamped to at least 1).
    /// Threads are spawned per parallel batch and joined before
    /// [`Engine::run`] returns; nothing outlives a batch.
    pub fn new(threads: usize) -> Self {
        Self { threads: threads.max(1), cache: None, counters: Counters::default() }
    }

    /// A single-threaded engine: every job runs inline on the calling
    /// thread, in order — the classic sequential behavior. No threads are
    /// ever spawned.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Resolves the worker count from the environment: `GRADPIM_THREADS`
    /// if set to an integer (`0` clamps to 1, i.e. sequential), otherwise
    /// the machine's available parallelism. A set-but-malformed value
    /// falls back to available parallelism — and an unqueryable machine
    /// parallelism falls back to 1 — each with a diagnostic passed to
    /// `log`, so a typo never *silently* changes the worker count. The CLI
    /// passes its own `gradpim-cli:` logger, so every affected invocation
    /// gets an attributed diagnostic.
    ///
    /// The variable is read **here and only here**: every downstream
    /// layer (every sweep batch) inherits the resolved count instead of
    /// re-reading the environment.
    pub fn from_env_with(log: &mut dyn FnMut(&str)) -> Self {
        let var = crate::env::threads_var();
        let auto = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).ok();
        let (threads, warning) = resolve_threads(var.as_deref(), auto);
        if let Some(warning) = warning {
            log(&warning);
        }
        Self::new(threads)
    }

    /// Attaches a result cache: [`serialize::ExperimentSpec::run`] looks
    /// each row group up in `store`, then each distinct phase call of the
    /// missed groups (once per run), and stores every call it answers by
    /// simulating — bit-identically. Without a store the runner still runs
    /// each distinct simulation once per run.
    #[must_use]
    pub fn with_cache(mut self, store: Arc<dyn CacheBackend>) -> Self {
        self.cache = Some(store);
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&Arc<dyn CacheBackend>> {
        self.cache.as_ref()
    }

    /// The worker count — the most lanes any batch runs.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// A snapshot of the batch counters: batches and jobs executed on the
    /// parallel path.
    pub fn sched_stats(&self) -> SchedStats {
        self.counters.snapshot()
    }

    /// Runs `f` over every job on up to [`Engine::threads`] lanes (see
    /// [`sched`]): lanes start jobs in input order, results come back in
    /// input order, and the lowest-indexed failing job's error or panic
    /// wins — both independent of scheduling. After a failure, jobs above
    /// it that have not started are skipped. Jobs run as given: the
    /// engine adds no memo or store around them.
    ///
    /// # Errors
    ///
    /// The error of the lowest-indexed failing job.
    ///
    /// # Panics
    ///
    /// Re-raises the original payload of the lowest-indexed panicking job.
    pub fn run<T, R, E, F>(&self, jobs: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(&T) -> Result<R, E> + Sync,
    {
        sched::run_batch(self.threads, &self.counters, jobs, f)
    }
}

/// `GRADPIM_THREADS` resolution, factored pure so every fallback is unit-
/// testable: integers are taken verbatim, with `0` clamped to 1
/// (sequential) exactly like [`Engine::new`]; a set-but-malformed value
/// falls back to `auto` (the machine's available parallelism) with a
/// warning; an unknown `auto` falls back to 1 worker — also with a
/// warning, since silently losing all parallelism is worth a diagnostic.
fn resolve_threads(var: Option<&str>, auto: Option<usize>) -> (usize, Option<String>) {
    if let Some(v) = var {
        if let Ok(n) = v.parse::<usize>() {
            return (n.max(1), None);
        }
        let (fallback, _) = resolve_threads(None, auto);
        return (
            fallback,
            Some(format!(
                "ignoring malformed GRADPIM_THREADS={v:?} (want an integer); \
                 using {fallback} worker thread(s)"
            )),
        );
    }
    match auto {
        Some(n) => (n.max(1), None),
        None => (1, Some("available parallelism unknown; using 1 worker thread".into())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_parsing() {
        assert_eq!(resolve_threads(Some("4"), Some(8)), (4, None));
        assert_eq!(resolve_threads(Some("1"), Some(8)), (1, None));
        // 0 means sequential, matching Engine::new's clamp.
        assert_eq!(resolve_threads(Some("0"), Some(8)), (1, None));
        assert_eq!(resolve_threads(None, Some(6)), (6, None));
    }

    #[test]
    fn malformed_threads_fall_back_with_a_warning() {
        for bad in ["lots", "-3", "4.5", ""] {
            let (n, warning) = resolve_threads(Some(bad), Some(8));
            assert_eq!(n, 8, "GRADPIM_THREADS={bad:?}");
            let warning = warning.expect("malformed value must warn");
            assert!(warning.contains("GRADPIM_THREADS"), "{warning}");
            assert!(warning.contains("8 worker"), "{warning}");
        }
    }

    #[test]
    fn unknown_parallelism_falls_back_to_one_with_a_warning() {
        // Regression: this fallback used to be silent (and the malformed-
        // value warning fired on every call, spamming criterion runs).
        let (n, warning) = resolve_threads(None, None);
        assert_eq!(n, 1);
        assert!(warning.expect("fallback must warn").contains("available parallelism"));
        let (n, warning) = resolve_threads(Some("junk"), None);
        assert_eq!(n, 1);
        assert!(warning.expect("fallback must warn").contains("1 worker"));
    }

    #[test]
    fn engine_clamps_to_one() {
        assert_eq!(Engine::new(0).threads(), 1);
        assert_eq!(Engine::sequential().threads(), 1);
        assert_eq!(Engine::new(7).threads(), 7);
    }

    #[test]
    fn oversubscribed_engine_stays_within_its_budget() {
        // More threads than jobs: the batch runs min(threads, jobs) lanes,
        // never more, and completes with sequential-identical results.
        let engine = Engine::new(16);
        let jobs: Vec<u64> = (0..4).collect();
        let lanes = std::sync::Mutex::new(std::collections::BTreeSet::new());
        let out = engine
            .run(&jobs, |&j| {
                lanes.lock().unwrap().insert(format!("{:?}", std::thread::current().id()));
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok::<_, ()>(j * 2)
            })
            .unwrap();
        assert_eq!(out, vec![0, 2, 4, 6]);
        let lanes = lanes.into_inner().unwrap().len();
        assert!((1..=4).contains(&lanes), "{lanes} lanes ran a 4-job batch");
        assert_eq!(engine.sched_stats().jobs, 4);
    }

    #[test]
    fn from_env_with_routes_warnings_to_the_caller() {
        let mut logged = Vec::new();
        let engine = Engine::from_env_with(&mut |m: &str| logged.push(m.to_string()));
        assert!(engine.threads() >= 1);
        // The pure resolution of the same inputs, warning or not.
        let auto = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).ok();
        let (threads, warning) = resolve_threads(crate::env::threads_var().as_deref(), auto);
        assert_eq!(engine.threads(), threads);
        assert_eq!(logged.len(), usize::from(warning.is_some()));
        // Warnings (if the test environment is misconfigured) reach the
        // caller's sink — never a hidden stderr write.
        for warning in &logged {
            assert!(
                warning.contains("GRADPIM_THREADS") || warning.contains("parallelism"),
                "{warning}"
            );
        }
    }

    #[test]
    fn cached_engine_runs_are_bit_identical_and_fill_the_store() {
        use serialize::{Experiment, ExperimentSpec};
        let spec = ExperimentSpec::new(
            Experiment::Fig12b,
            Some((1500, 20_000)),
            Some(vec!["MLP1".into()]),
        );
        let cold = spec.run(&Engine::sequential()).unwrap();
        let store: Arc<dyn CacheBackend> = Arc::new(cache::MemCache::new());
        let engine = Engine::sequential().with_cache(store.clone());
        assert!(engine.cache().is_some());
        let warm = spec.run(&engine).unwrap();
        assert_eq!(warm, cold);
        let filled = store.stats();
        assert!(filled.entries > 0, "phase results must land in the store");
        // A second run is served from the store: identical bytes, no new
        // entries.
        let warm2 = spec.run(&engine).unwrap();
        assert_eq!(warm2, cold);
        assert_eq!(store.stats(), filled);
    }
}
