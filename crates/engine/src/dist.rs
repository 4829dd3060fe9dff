//! Multi-process sweep sharding: the coordinator that splits an
//! [`ExperimentSpec`] into per-shard sub-specs, farms them out to worker
//! **processes**, and merges the per-shard row sets back into input order
//! — bit-identical to an unsharded run.
//!
//! The pipeline is the process-level mirror of the in-process sweep
//! scheduler, and it deliberately reuses the same machinery end to end:
//!
//! 1. [`ExperimentSpec::shard_specs`] produces `count` sub-specs, each
//!    selecting a round-robin slice of the experiment's row groups
//!    ([`Shard`]); [`ExperimentSpec::layout`] names every group's row
//!    count without simulating anything, which is the whole merge plan.
//! 2. [`run_sharded`] fans the sub-specs over the [`Engine`]'s worker
//!    lanes. Each job drives one [`ShardExec`] — normally a
//!    [`ProcessWorker`] that re-invokes `gradpim-cli shard-worker`,
//!    pipes the sub-spec JSON to its stdin, and parses the report JSON
//!    from its stdout — with a bounded retry budget per shard, so a
//!    killed or crashed worker is relaunched instead of sinking the run.
//! 3. [`merge_shard_reports`] checks every shard's schema and row count
//!    against the layout, then interleaves the row sets back into figure
//!    order.
//!
//! Failure semantics match [`Engine::run`] exactly: when several shards
//! exhaust their retries, the **lowest-indexed** shard's error is
//! returned — what a sequential left-to-right coordinator would have
//! stopped on — and once a shard has failed for good, launches for
//! higher-indexed shards are cancelled best-effort (a live worker process
//! is killed) since their results can no longer be observed.
//!
//! Workers exchange plain JSON over pipes, so "distribute across hosts"
//! is only a transport swap away: anything that can carry a spec document
//! one way and a report document back (ssh, an object store, an RPC) can
//! replace [`ProcessWorker`] by implementing [`ShardExec`].
//!
//! ```
//! use gradpim_engine::dist::{run_sharded, InProcess, ShardOptions};
//! use gradpim_engine::serialize::{Experiment, ExperimentSpec};
//! use gradpim_engine::Engine;
//!
//! let spec = ExperimentSpec::new(
//!     Experiment::Fig12b,
//!     Some((1500, 20_000)), // doc-sized traffic caps
//!     Some(vec!["MLP1".into()]),
//! );
//! let engine = Engine::sequential();
//! let whole = spec.run(&engine)?;
//! // Split into 2 shards, run each, merge — byte-identical.
//! let merged = run_sharded(&spec, ShardOptions::new(2), &InProcess, &engine)?;
//! assert_eq!(merged, whole);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::fmt;
use std::io::{Read, Write as _};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use gradpim_sim::report::Report;

use crate::sched::Cancel;
use crate::serialize::{ExperimentSpec, Shard, SpecError};
use crate::{report, Engine};

/// Environment variable naming the worker program the CLI coordinator
/// launches instead of re-invoking its own executable. The program is
/// called as `<program> shard-worker - [--threads N]` with the sub-spec
/// JSON on stdin and must print report JSON to stdout — the hook both for
/// tests and for cross-host transports (e.g. a script that runs the real
/// worker through `ssh`).
pub const WORKER_PROGRAM_ENV: &str = "GRADPIM_SHARD_WORKER";

/// Environment variable the coordinator sets on a worker it wants a trace
/// sidecar from. A worker seeing `1` here enables span recording and
/// splices its buffer into the report JSON as a `"trace"` member (see
/// [`crate::trace`]); the coordinator strips the sidecar back out,
/// re-bases it onto its own clock, and injects it into the local
/// collector. Explicitly *removed* from the child environment otherwise,
/// so an ambient value never perturbs an untraced run.
pub const TRACE_SIDECAR_ENV: &str = "GRADPIM_TRACE_SIDECAR";

/// How a spec is split across worker processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Number of shards (must be ≥ 1; `1` still exercises the full
    /// process boundary with a single worker).
    pub shards: usize,
    /// Extra launch attempts allowed per shard after its first failure.
    /// `0` means fail on the first crash.
    pub retries: usize,
}

impl ShardOptions {
    /// Default retry budget: every shard may be relaunched twice.
    pub const DEFAULT_RETRIES: usize = 2;

    /// Options for `shards` workers with the default retry budget.
    pub fn new(shards: usize) -> Self {
        Self { shards, retries: Self::DEFAULT_RETRIES }
    }

    /// Replaces the retry budget.
    #[must_use]
    pub fn retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }
}

/// Why one launch attempt of one shard's worker failed.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerError {
    /// The worker process could not be launched at all.
    Spawn(String),
    /// The worker exited unsuccessfully (or was killed by a signal, in
    /// which case `status` is `None`) before a report could be read —
    /// including dying before emitting any JSON.
    Crashed {
        /// The exit code, or `None` when the worker died to a signal.
        status: Option<i32>,
        /// The tail of the worker's stderr, for the error message.
        stderr: String,
    },
    /// The worker exited successfully but its stdout was not a valid
    /// report document (empty, truncated mid-stream, or malformed).
    Report(String),
    /// An in-process execution ([`InProcess`]) failed.
    Run(SpecError),
    /// The launch was abandoned because a lower-indexed shard already
    /// failed for good; this error is never the one returned to the
    /// caller (the lower shard's failure wins).
    Cancelled,
}

impl fmt::Display for WorkerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkerError::Spawn(e) => write!(f, "{e}"),
            WorkerError::Crashed { status, stderr } => {
                match status {
                    Some(code) => write!(f, "worker exited with status {code}")?,
                    None => write!(f, "worker was killed by a signal")?,
                }
                write!(f, " before emitting a report")?;
                if !stderr.trim().is_empty() {
                    write!(f, "; worker stderr: {}", stderr.trim_end())?;
                }
                Ok(())
            }
            WorkerError::Report(e) => write!(f, "{e}"),
            WorkerError::Run(e) => write!(f, "{e}"),
            WorkerError::Cancelled => {
                write!(f, "worker launch cancelled (a lower-indexed shard already failed)")
            }
        }
    }
}

impl std::error::Error for WorkerError {}

/// Why a merge of per-shard reports was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No shard reports were given.
    NoShards,
    /// A shard's schema differs from the expected one — its worker ran a
    /// different experiment (or a different version of this code).
    /// [`run_sharded`] checks every shard against the experiment's static
    /// [`ExperimentSpec::schema`]; [`merge_shard_reports`] alone compares
    /// against shard 0.
    SchemaMismatch {
        /// The offending shard index.
        shard: usize,
    },
    /// A shard returned the wrong number of rows for its slice of the
    /// layout — e.g. a worker that lost rows mid-stream.
    RowCount {
        /// The offending shard index.
        shard: usize,
        /// Rows the layout assigns to this shard.
        expected: usize,
        /// Rows the shard actually returned.
        actual: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NoShards => write!(f, "no shard reports to merge"),
            MergeError::SchemaMismatch { shard } => {
                write!(f, "shard {shard} returned a report with a different schema")
            }
            MergeError::RowCount { shard, expected, actual } => write!(
                f,
                "shard {shard} returned {actual} row(s) where its layout slice has {expected}"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Why a sharded run failed as a whole.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A shard count of zero was requested.
    NoShards,
    /// The spec already carries a shard selector; shards are not
    /// recursively re-sharded.
    AlreadySharded(Shard),
    /// The spec itself is unrunnable (e.g. an unknown network), detected
    /// before any worker is spawned.
    Spec(SpecError),
    /// A shard exhausted its retry budget; the lowest-indexed failing
    /// shard's last error, matching [`Engine::run`] semantics.
    Worker {
        /// The failing shard index.
        shard: usize,
        /// Launch attempts consumed (first try + retries).
        attempts: usize,
        /// The last attempt's error.
        error: WorkerError,
    },
    /// The per-shard reports could not be merged.
    Merge(MergeError),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::NoShards => write!(f, "shard count must be at least 1"),
            DistError::AlreadySharded(s) => {
                write!(f, "spec already selects shard {s}; cannot shard it again")
            }
            DistError::Spec(e) => write!(f, "{e}"),
            DistError::Worker { shard, attempts, error } => {
                write!(f, "shard {shard} failed after {attempts} attempt(s): {error}")
            }
            DistError::Merge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DistError {}

/// One way of executing a single shard attempt. [`ProcessWorker`] is the
/// production implementation (a `gradpim-cli shard-worker` child
/// process); [`InProcess`] runs the sub-spec in this process; tests and
/// future host transports provide their own.
pub trait ShardExec: Sync {
    /// Runs `sub` (shard `shard` of its parent spec), `attempt` counting
    /// from 0 for the first launch. Long-running implementations should
    /// poll `cancel` and abandon the attempt (returning
    /// [`WorkerError::Cancelled`]) once a lower-indexed shard has failed
    /// for good — the result could never be observed.
    ///
    /// # Errors
    ///
    /// Any [`WorkerError`]; the coordinator retries up to its budget.
    fn run_shard(
        &self,
        sub: &ExperimentSpec,
        shard: usize,
        attempt: usize,
        cancel: &Cancel<'_>,
    ) -> Result<Report, WorkerError>;
}

/// Executes shard sub-specs in this process on a sequential engine —
/// the zero-IPC [`ShardExec`] for tests, examples, and property checks
/// of the split→run→merge identity.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcess;

impl ShardExec for InProcess {
    fn run_shard(
        &self,
        sub: &ExperimentSpec,
        _shard: usize,
        _attempt: usize,
        _cancel: &Cancel<'_>,
    ) -> Result<Report, WorkerError> {
        sub.run(&Engine::sequential()).map_err(WorkerError::Run)
    }
}

/// The production [`ShardExec`]: launches a worker process per attempt,
/// ships the sub-spec JSON over the worker's stdin, and reads the report
/// JSON back from its stdout. The worker protocol is exactly
/// `gradpim-cli shard-worker -`.
#[derive(Debug, Clone)]
pub struct ProcessWorker {
    program: PathBuf,
    threads: Option<usize>,
    trace: bool,
    cache: Option<PathBuf>,
}

/// How often a waiting coordinator polls its worker for exit and the
/// batch for cancellation.
const WAIT_POLL: Duration = Duration::from_millis(5);

/// Longest stderr tail quoted in worker error messages.
const STDERR_TAIL: usize = 2000;

impl ProcessWorker {
    /// A worker launcher for `program` (invoked as
    /// `<program> shard-worker -`).
    pub fn new(program: impl Into<PathBuf>) -> Self {
        Self { program: program.into(), threads: None, trace: false, cache: None }
    }

    /// The default coordinator worker: the program named by
    /// [`WORKER_PROGRAM_ENV`] if set (test/transport hook), else the
    /// current executable re-invoked in `shard-worker` mode.
    ///
    /// # Errors
    ///
    /// The [`std::env::current_exe`] failure, when no override is set and
    /// the executable path cannot be determined.
    pub fn from_env() -> std::io::Result<Self> {
        match crate::env::shard_worker_program() {
            Some(program) => Ok(Self::new(PathBuf::from(program))),
            None => std::env::current_exe().map(Self::new),
        }
    }

    /// Forwards an explicit `--threads N` to every worker; `None` lets
    /// workers resolve their own count (`GRADPIM_THREADS` is inherited
    /// through the environment).
    #[must_use]
    pub fn threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// Asks every worker for a trace sidecar (sets [`TRACE_SIDECAR_ENV`]
    /// on the child); the worker's spans land in this process's
    /// [`gradpim_obs`] collector, re-based onto the coordinator timeline.
    #[must_use]
    pub fn trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Hands the coordinator's on-disk cache directory to every worker
    /// (sets [`crate::cache::CACHE_DIR_ENV`] on the child), so shard
    /// workers consult — and fill — the same store. `None` explicitly
    /// *removes* the variable from the child environment: the
    /// coordinator's resolved cache policy is authoritative, and an
    /// ambient `GRADPIM_CACHE` never silently diverges workers from an
    /// uncached coordinator.
    #[must_use]
    pub fn cache(mut self, dir: Option<PathBuf>) -> Self {
        self.cache = dir;
        self
    }
}

/// Drains a pipe to a lossy string on a helper thread — stdout must be
/// consumed *while* the worker runs, or a report larger than the pipe
/// buffer deadlocks the child against an un-reading parent.
fn drain_pipe(mut pipe: impl Read + Send + 'static) -> std::thread::JoinHandle<String> {
    // gradpim-lint: allow(thread-spawn): a short-lived blocking-I/O drain, joined
    // before run_shard returns. It cannot go through the pool — the pool job *is*
    // the caller, and parking a pool thread on a child's pipe would deadlock the
    // thread budget against the child's output.
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

/// The last [`STDERR_TAIL`] characters of `s`.
fn tail(s: &str) -> String {
    let start = s.char_indices().rev().nth(STDERR_TAIL - 1).map_or(0, |(i, _)| i);
    s[start..].to_string()
}

impl ShardExec for ProcessWorker {
    fn run_shard(
        &self,
        sub: &ExperimentSpec,
        shard: usize,
        _attempt: usize,
        cancel: &Cancel<'_>,
    ) -> Result<Report, WorkerError> {
        let mut cmd = Command::new(&self.program);
        cmd.arg("shard-worker").arg("-");
        if let Some(n) = self.threads {
            cmd.args(["--threads", &n.to_string()]);
        }
        // The worker's spans are timestamped from its own process epoch;
        // its launch time on our clock is the re-base offset that puts
        // them on the coordinator timeline.
        let launch_us = gradpim_obs::now_us();
        if self.trace {
            cmd.env(TRACE_SIDECAR_ENV, "1");
        } else {
            cmd.env_remove(TRACE_SIDECAR_ENV);
        }
        match &self.cache {
            Some(dir) => {
                cmd.env(crate::cache::CACHE_DIR_ENV, dir);
            }
            None => {
                cmd.env_remove(crate::cache::CACHE_DIR_ENV);
            }
        }
        cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| {
            WorkerError::Spawn(format!("cannot launch `{}`: {e}", self.program.display()))
        })?;
        {
            // Spec documents are tiny (far below the pipe buffer), so a
            // synchronous write cannot deadlock against the still-unread
            // stdout; a worker that dies before reading makes this write
            // fail, and the exit status below is the real diagnosis.
            #[allow(clippy::expect_used)] // Invariant documented below.
            // gradpim-lint: allow(panic-discipline): Stdio::piped() above guarantees
            // the handle; this take() is its only consumer.
            let mut stdin = child.stdin.take().expect("stdin was piped");
            let _ = stdin.write_all(sub.to_json().as_bytes());
        }
        #[allow(clippy::expect_used)] // Invariant documented below.
        // gradpim-lint: allow(panic-discipline): Stdio::piped() guarantees the handle.
        let out_reader = drain_pipe(child.stdout.take().expect("stdout was piped"));
        #[allow(clippy::expect_used)] // Invariant documented below.
        // gradpim-lint: allow(panic-discipline): Stdio::piped() guarantees the handle.
        let err_reader = drain_pipe(child.stderr.take().expect("stderr was piped"));
        let status = loop {
            if cancel.should_cancel() {
                let _ = child.kill();
                let _ = child.wait();
                let _ = out_reader.join();
                let _ = err_reader.join();
                return Err(WorkerError::Cancelled);
            }
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => std::thread::sleep(WAIT_POLL),
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = out_reader.join();
                    let _ = err_reader.join();
                    return Err(WorkerError::Spawn(format!("cannot wait for worker: {e}")));
                }
            }
        };
        let stdout = out_reader.join().unwrap_or_default();
        let stderr = err_reader.join().unwrap_or_default();
        if !status.success() {
            return Err(WorkerError::Crashed { status: status.code(), stderr: tail(&stderr) });
        }
        if stdout.trim().is_empty() {
            return Err(WorkerError::Report(format!(
                "worker exited successfully but emitted no report JSON{}",
                if stderr.trim().is_empty() {
                    String::new()
                } else {
                    format!(" (stderr: {})", tail(&stderr).trim_end())
                }
            )));
        }
        if self.trace {
            let (report, mut spans) = crate::trace::split_sidecar(&stdout)
                .map_err(|e| WorkerError::Report(format!("worker stdout is not a report: {e}")))?;
            let pid = u32::try_from(shard).unwrap_or(u32::MAX).saturating_add(2);
            crate::trace::rebase(&mut spans, pid, launch_us);
            gradpim_obs::inject(spans);
            Ok(report)
        } else {
            report::from_json(&stdout)
                .map_err(|e| WorkerError::Report(format!("worker stdout is not a report: {e}")))
        }
    }
}

/// Interleaves per-shard reports back into figure order under the parent
/// spec's [`layout`](ExperimentSpec::layout): group `g`'s rows come from
/// shard `g % shards.len()`, in the order that shard produced them.
///
/// # Errors
///
/// [`MergeError::NoShards`] for an empty slice,
/// [`MergeError::SchemaMismatch`] when any shard disagrees with shard 0's
/// schema, and [`MergeError::RowCount`] when a shard's row count does not
/// equal the total of its layout slice (e.g. a worker that lost rows).
pub fn merge_shard_reports(layout: &[usize], shards: &[Report]) -> Result<Report, MergeError> {
    let Some(first) = shards.first() else {
        return Err(MergeError::NoShards);
    };
    for (shard, report) in shards.iter().enumerate() {
        if report.schema != first.schema {
            return Err(MergeError::SchemaMismatch { shard });
        }
    }
    let count = shards.len();
    // Shard s owns every count-th layout group starting at s (round-robin).
    let expected: Vec<usize> =
        (0..count).map(|s| layout.iter().skip(s).step_by(count).sum()).collect();
    for (shard, (report, &want)) in shards.iter().zip(&expected).enumerate() {
        if report.rows.len() != want {
            return Err(MergeError::RowCount { shard, expected: want, actual: report.rows.len() });
        }
    }
    let mut cursors = vec![0usize; count];
    let mut merged = Report::new(first.schema.clone());
    merged.rows.reserve(expected.iter().sum());
    for (g, &rows) in layout.iter().enumerate() {
        let s = g % count;
        // gradpim-lint: allow(panic-discipline): s = g % count < count, which is the
        // length of shards/cursors, and the row-count check above bounds the slice.
        merged.rows.extend(shards[s].rows[cursors[s]..cursors[s] + rows].iter().cloned());
        // gradpim-lint: allow(panic-discipline): same modulo bound as the line above.
        cursors[s] += rows;
    }
    Ok(merged)
}

/// The coordinator: splits `spec` into `opts.shards` sub-specs, fans them
/// over the engine's worker pool (each pool job owning one shard's
/// launch-and-retry loop against `exec`), and merges the per-shard
/// reports back into input order — byte-identical to `spec.run(..)`.
///
/// # Errors
///
/// [`DistError::NoShards`] / [`DistError::AlreadySharded`] for invalid
/// requests, [`DistError::Spec`] when the spec is unrunnable (checked
/// before anything is spawned), the lowest-indexed shard's
/// [`DistError::Worker`] once its retry budget is exhausted, or a
/// [`DistError::Merge`] when worker output cannot be recombined.
pub fn run_sharded<X: ShardExec + ?Sized>(
    spec: &ExperimentSpec,
    opts: ShardOptions,
    exec: &X,
    engine: &Engine,
) -> Result<Report, DistError> {
    if opts.shards == 0 {
        return Err(DistError::NoShards);
    }
    if let Some(shard) = spec.shard {
        return Err(DistError::AlreadySharded(shard));
    }
    // Resolve the merge plan first: an unrunnable spec fails here, cheaply,
    // before any worker process exists.
    let layout = spec.layout().map_err(DistError::Spec)?;
    let expected_schema = spec.schema();
    // A fully-cached spec needs no workers at all: every row group comes
    // out of the engine's store through the in-process run — byte-identical
    // to the merged worker output, with zero launches.
    if spec.fully_cached(engine) {
        gradpim_obs::instant("dist.cache_skip", "dist");
        return spec.run(engine).map_err(DistError::Spec);
    }
    let subs = spec.shard_specs(opts.shards);
    let reports = engine.run(&subs, None, |shard, sub, cancel| {
        let _span = gradpim_obs::span_lazy(|| format!("dist.shard{shard}"), "dist");
        let mut attempts = 0;
        loop {
            if cancel.should_cancel() {
                return Err(DistError::Worker { shard, attempts, error: WorkerError::Cancelled });
            }
            attempts += 1;
            match exec.run_shard(sub, shard, attempts - 1, cancel) {
                Ok(report) => return Ok(report),
                // A cancelled attempt is doomed work, not a flaky worker:
                // never relaunch it.
                Err(WorkerError::Cancelled) => {
                    return Err(DistError::Worker {
                        shard,
                        attempts,
                        error: WorkerError::Cancelled,
                    })
                }
                Err(error) if attempts > opts.retries => {
                    return Err(DistError::Worker { shard, attempts, error })
                }
                Err(_) => gradpim_obs::instant("dist.retry", "dist"),
            }
        }
    })?;
    // Validate each shard against the experiment's *static* schema, not
    // just against shard 0: with one shard, cross-shard comparison is
    // vacuous and a wrong worker (version skew, bad GRADPIM_SHARD_WORKER
    // override) would otherwise merge cleanly.
    let _span = gradpim_obs::span("dist.merge", "dist");
    for (shard, report) in reports.iter().enumerate() {
        if report.schema != expected_schema {
            return Err(DistError::Merge(MergeError::SchemaMismatch { shard }));
        }
    }
    merge_shard_reports(&layout, &reports).map_err(DistError::Merge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::Experiment;
    use gradpim_sim::report::{Kind, Schema, SweepRow};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    const QUICK: gradpim_sim::sweeps::QuickCaps = Some((1500, 20_000));

    fn spec() -> ExperimentSpec {
        ExperimentSpec::new(Experiment::Fig12b, QUICK, Some(vec!["MLP1".into()]))
    }

    fn tiny_report(marker: i64) -> Report {
        let mut r = Report::new(Schema::new([("v", Kind::Int)]));
        r.push(SweepRow::new([marker.into()]));
        r
    }

    #[test]
    fn in_process_sharding_is_byte_identical_for_any_count() {
        let engine = Engine::sequential();
        let whole = spec().run(&engine).unwrap();
        let whole_json = report::to_json(&whole);
        for shards in 1..=5 {
            let merged =
                run_sharded(&spec(), ShardOptions::new(shards), &InProcess, &engine).unwrap();
            assert_eq!(report::to_json(&merged), whole_json, "{shards} shards");
        }
    }

    /// Crashes the first `crashes` attempts of every shard, then runs in
    /// process — the "worker was killed mid-run, retried, converged"
    /// scenario without real processes.
    struct Flaky {
        crashes: usize,
        launches: AtomicUsize,
    }

    impl ShardExec for Flaky {
        fn run_shard(
            &self,
            sub: &ExperimentSpec,
            shard: usize,
            attempt: usize,
            cancel: &Cancel<'_>,
        ) -> Result<Report, WorkerError> {
            self.launches.fetch_add(1, Ordering::Relaxed);
            if attempt < self.crashes {
                return Err(WorkerError::Crashed { status: None, stderr: "killed".into() });
            }
            InProcess.run_shard(sub, shard, attempt, cancel)
        }
    }

    #[test]
    fn crashed_workers_are_retried_and_the_run_converges() {
        let engine = Engine::sequential();
        let whole = spec().run(&engine).unwrap();
        let exec = Flaky { crashes: 2, launches: AtomicUsize::new(0) };
        let merged = run_sharded(&spec(), ShardOptions::new(3).retries(2), &exec, &engine).unwrap();
        assert_eq!(merged, whole);
        // Every shard burned its 2 crashes plus the succeeding launch.
        assert_eq!(exec.launches.load(Ordering::Relaxed), 9);
    }

    #[test]
    fn retry_exhaustion_reports_the_last_worker_error() {
        struct AlwaysCrash;
        impl ShardExec for AlwaysCrash {
            fn run_shard(
                &self,
                _sub: &ExperimentSpec,
                _shard: usize,
                _attempt: usize,
                _cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                Err(WorkerError::Crashed { status: Some(137), stderr: String::new() })
            }
        }
        let err = run_sharded(
            &spec(),
            ShardOptions::new(2).retries(1),
            &AlwaysCrash,
            &Engine::sequential(),
        )
        .unwrap_err();
        let DistError::Worker { shard, attempts, error } = err else {
            panic!("wanted a worker error, got {err}");
        };
        assert_eq!((shard, attempts), (0, 2));
        assert!(matches!(error, WorkerError::Crashed { status: Some(137), .. }), "{error}");
    }

    #[test]
    fn lowest_indexed_failing_shard_wins() {
        // Shards 1 and 3 always fail; pool semantics demand shard 1's
        // error regardless of scheduling.
        struct FailOdd;
        impl ShardExec for FailOdd {
            fn run_shard(
                &self,
                sub: &ExperimentSpec,
                shard: usize,
                attempt: usize,
                cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                if shard % 2 == 1 {
                    return Err(WorkerError::Crashed { status: Some(1), stderr: String::new() });
                }
                InProcess.run_shard(sub, shard, attempt, cancel)
            }
        }
        for engine in [Engine::sequential(), Engine::new(4)] {
            let err = run_sharded(&spec(), ShardOptions::new(4).retries(0), &FailOdd, &engine)
                .unwrap_err();
            assert!(
                matches!(err, DistError::Worker { shard: 1, .. }),
                "threads={}: {err}",
                engine.threads()
            );
        }
    }

    #[test]
    fn mid_stream_row_loss_is_rejected_on_merge() {
        // A worker that loses rows mid-stream (truncated output that
        // still parses) cannot silently shrink the merged report.
        struct Truncating;
        impl ShardExec for Truncating {
            fn run_shard(
                &self,
                sub: &ExperimentSpec,
                shard: usize,
                attempt: usize,
                cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                let mut report = InProcess.run_shard(sub, shard, attempt, cancel)?;
                if shard == 1 {
                    report.rows.pop();
                }
                Ok(report)
            }
        }
        let err = run_sharded(&spec(), ShardOptions::new(2), &Truncating, &Engine::sequential())
            .unwrap_err();
        assert!(matches!(err, DistError::Merge(MergeError::RowCount { shard: 1, .. })), "{err}");
    }

    #[test]
    fn schema_mismatch_is_rejected_on_merge() {
        struct WrongSchema;
        impl ShardExec for WrongSchema {
            fn run_shard(
                &self,
                sub: &ExperimentSpec,
                shard: usize,
                attempt: usize,
                cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                if shard == 1 {
                    return Ok(tiny_report(0));
                }
                InProcess.run_shard(sub, shard, attempt, cancel)
            }
        }
        let err = run_sharded(&spec(), ShardOptions::new(2), &WrongSchema, &Engine::sequential())
            .unwrap_err();
        assert_eq!(err, DistError::Merge(MergeError::SchemaMismatch { shard: 1 }));
    }

    #[test]
    fn single_shard_wrong_schema_is_still_rejected() {
        // With one shard there is no second report to compare against;
        // the static experiment schema must catch the mismatch anyway.
        struct AlwaysWrong;
        impl ShardExec for AlwaysWrong {
            fn run_shard(
                &self,
                _sub: &ExperimentSpec,
                _shard: usize,
                _attempt: usize,
                _cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                // Right row count for the whole fig12b × MLP1 spec (3
                // rows), wrong shape.
                let mut r = Report::new(Schema::new([("v", Kind::Int)]));
                for i in 0..3i64 {
                    r.push(SweepRow::new([i.into()]));
                }
                Ok(r)
            }
        }
        let err = run_sharded(&spec(), ShardOptions::new(1), &AlwaysWrong, &Engine::sequential())
            .unwrap_err();
        assert_eq!(err, DistError::Merge(MergeError::SchemaMismatch { shard: 0 }));
    }

    #[test]
    fn invalid_requests_fail_before_any_launch() {
        struct Unreachable;
        impl ShardExec for Unreachable {
            fn run_shard(
                &self,
                _sub: &ExperimentSpec,
                _shard: usize,
                _attempt: usize,
                _cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                panic!("no worker may launch for an invalid request");
            }
        }
        let engine = Engine::sequential();
        assert_eq!(
            run_sharded(&spec(), ShardOptions::new(0), &Unreachable, &engine).unwrap_err(),
            DistError::NoShards
        );
        let mut sharded = spec();
        sharded.shard = Some(Shard { index: 0, count: 2 });
        assert!(matches!(
            run_sharded(&sharded, ShardOptions::new(2), &Unreachable, &engine).unwrap_err(),
            DistError::AlreadySharded(Shard { index: 0, count: 2 })
        ));
        let bad = ExperimentSpec::new(Experiment::Fig12b, QUICK, Some(vec!["NotANet".into()]));
        assert!(matches!(
            run_sharded(&bad, ShardOptions::new(2), &Unreachable, &engine).unwrap_err(),
            DistError::Spec(SpecError::UnknownNetwork(_))
        ));
    }

    #[test]
    fn merge_interleaves_groups_round_robin() {
        // Layout with multi-row groups (the fig09 shape): groups of 2, 1,
        // 1, 2 rows over two shards. Shard 0 owns groups 0 and 2; shard 1
        // owns groups 1 and 3.
        let schema = Schema::new([("v", Kind::Int)]);
        let rows = |vals: &[i64]| Report {
            schema: schema.clone(),
            rows: vals.iter().map(|&v| SweepRow::new([v.into()])).collect(),
        };
        let merged =
            merge_shard_reports(&[2, 1, 1, 2], &[rows(&[0, 1, 3]), rows(&[2, 4, 5])]).unwrap();
        assert_eq!(merged, rows(&[0, 1, 2, 3, 4, 5]));
        // Single shard: merge is the identity.
        let one = merge_shard_reports(&[2, 1], &[rows(&[7, 8, 9])]).unwrap();
        assert_eq!(one, rows(&[7, 8, 9]));
        // Empty layout over empty shards holds the schema.
        let empty = merge_shard_reports(&[], &[rows(&[]), rows(&[])]).unwrap();
        assert_eq!(empty.schema, schema);
        assert!(empty.rows.is_empty());
    }

    #[test]
    fn merge_rejects_bad_inputs() {
        let schema = Schema::new([("v", Kind::Int)]);
        let rows = |vals: &[i64]| Report {
            schema: schema.clone(),
            rows: vals.iter().map(|&v| SweepRow::new([v.into()])).collect(),
        };
        assert_eq!(merge_shard_reports(&[1], &[]).unwrap_err(), MergeError::NoShards);
        let mut alien = Report::new(Schema::new([("other", Kind::Str)]));
        alien.push(SweepRow::new(["x".into()]));
        assert_eq!(
            merge_shard_reports(&[1, 1], &[rows(&[0]), alien]).unwrap_err(),
            MergeError::SchemaMismatch { shard: 1 }
        );
        assert_eq!(
            merge_shard_reports(&[1, 1], &[rows(&[0]), rows(&[1, 2])]).unwrap_err(),
            MergeError::RowCount { shard: 1, expected: 1, actual: 2 }
        );
    }

    #[test]
    fn cancelled_attempts_are_never_relaunched() {
        // A shard whose attempt reports Cancelled must give up instead of
        // burning its retry budget on doomed work.
        struct CountThenCancel(Mutex<usize>);
        impl ShardExec for CountThenCancel {
            fn run_shard(
                &self,
                _sub: &ExperimentSpec,
                _shard: usize,
                _attempt: usize,
                _cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                *self.0.lock().unwrap() += 1;
                Err(WorkerError::Cancelled)
            }
        }
        let exec = CountThenCancel(Mutex::new(0));
        let err =
            run_sharded(&spec(), ShardOptions::new(1).retries(5), &exec, &Engine::sequential())
                .unwrap_err();
        assert!(matches!(
            err,
            DistError::Worker { shard: 0, attempts: 1, error: WorkerError::Cancelled }
        ));
        assert_eq!(*exec.0.lock().unwrap(), 1);
    }

    #[test]
    fn fully_cached_spec_launches_no_workers() {
        if gradpim_sim::env::reference_mode() {
            return; // reference mode bypasses the cache by design
        }
        struct NeverLaunch;
        impl ShardExec for NeverLaunch {
            fn run_shard(
                &self,
                _sub: &ExperimentSpec,
                _shard: usize,
                _attempt: usize,
                _cancel: &Cancel<'_>,
            ) -> Result<Report, WorkerError> {
                panic!("no worker may launch on a full cache hit");
            }
        }
        let store: std::sync::Arc<dyn crate::cache::CacheBackend> =
            std::sync::Arc::new(crate::cache::MemCache::new());
        let engine = Engine::sequential().with_cache(store);
        let cold = spec().run(&engine).unwrap(); // fills every group
        let merged = run_sharded(&spec(), ShardOptions::new(3), &NeverLaunch, &engine).unwrap();
        assert_eq!(merged, cold);
        // An engine without the filled store still needs workers.
        let uncached = Engine::sequential();
        let via_workers =
            run_sharded(&spec(), ShardOptions::new(2), &InProcess, &uncached).unwrap();
        assert_eq!(via_workers, cold);
    }

    #[test]
    fn process_worker_reports_unlaunchable_programs() {
        let exec = ProcessWorker::new("/nonexistent/gradpim-no-such-binary");
        let err = exec.run_shard(&spec(), 0, 0, &Cancel::never()).unwrap_err();
        assert!(matches!(err, WorkerError::Spawn(_)), "{err}");
        assert!(err.to_string().contains("gradpim-no-such-binary"), "{err}");
    }

    #[test]
    fn tiny_report_schema_differs_from_fig12b() {
        // Guard for the fakes above: tiny_report must actually mismatch.
        let real = spec().run(&Engine::sequential()).unwrap();
        assert_ne!(real.schema, tiny_report(0).schema);
    }
}
