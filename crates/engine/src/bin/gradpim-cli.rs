//! `gradpim-cli` — the experiment runner: reproduce one figure/sweep of
//! the GradPIM evaluation through the parallel execution engine, as a
//! human-readable table or as machine-readable CSV/JSON.
//!
//! ```text
//! gradpim-cli <experiment> [--quick|--full] [--threads N] [--nets a,b,..]
//!             [--cache DIR] [--format table|csv|json] [-o PATH]
//!             [--emit-spec PATH] [--trace PATH] [--metrics PATH]
//! gradpim-cli --run-spec FILE [--threads N] [--cache DIR]
//!             [--format table|csv|json] [-o PATH]
//!             [--trace PATH] [--metrics PATH]
//! gradpim-cli check {report|trace} PATH
//! gradpim-cli cache {stats|clear|verify} [--cache DIR]
//! gradpim-cli list
//!
//! experiments:
//!   fig09    training-step time per design (Fig. 9)
//!   fig12a   speedup vs ops/bandwidth ratio (Fig. 12a)
//!   fig12b   speedup vs minibatch size (Fig. 12b)
//!   fig12c   speedup + energy vs precision mix (Fig. 12c/d)
//!   fig13    per-layer speedup scatter (Fig. 13)
//!   fig14    distributed-training node scaling (Fig. 14)
//! ```
//!
//! Every experiment runs through an [`ExperimentSpec`] on the in-process
//! pool, so a direct run and the `--emit-spec` → `--run-spec` process
//! boundary execute the same code and produce bit-identical numbers.
//! Result data goes to stdout (or `-o PATH`); progress/banner lines go to
//! stderr, so `--format csv|json` output is pipe-clean.
//!
//! Exit codes: `0` success, `1` runtime failure (bad spec file, unknown
//! network, simulation error), `2` usage error.
//!
//! `--threads` (default: `GRADPIM_THREADS`, else available parallelism)
//! sizes the engine's worker pool; `--quick` (the default)
//! caps simulated traffic per point, `--full` uses the library's generous
//! defaults (combine with `GRADPIM_FULL=1` to remove caps entirely).
//! `check report` parses a previously emitted report JSON and reports its
//! shape — a cheap integrity gate for scripted pipelines; `check trace`
//! does the same for trace files, and `cache verify` for cache stores.
//!
//! Every run answers each distinct phase call of the experiment once and
//! runs each distinct simulation once (see [`ExperimentSpec::run`]), with
//! or without a store.
//!
//! Caching: `--cache DIR` (or ambient `GRADPIM_CACHE`) attaches a
//! content-addressed on-disk result store ([`gradpim_engine::cache`]).
//! Row groups are stored under keys that capture their full inputs, and
//! the distinct phase calls of the missed groups under their canonical
//! `phase/v2/…` keys, each looked up once per run. A warm rerun is
//! byte-identical to a cold one and simulates nothing.
//! `cache stats|clear|verify` inspect or reset an existing store; they
//! never create one.
//!
//! Observability: `--trace PATH` records spans across every layer (CLI
//! stage → scheduler → phase executors) and writes a Chrome-trace JSON
//! loadable in Perfetto. `--metrics PATH` writes the
//! unified metrics registry (scheduler counters, per-phase histograms:
//! `sim_ns` once per answered distinct call, `host_ns` once per
//! simulation) as JSON. Both
//! artifacts are emitted after — and entirely off — the report stream,
//! and a traced run's report is byte-identical to an untraced one.
//! `check trace` validates an emitted trace and prints its shape.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::unimplemented
)]

use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gradpim_engine::cache::{self, CacheBackend, DiskCache};
use gradpim_engine::serialize::{Experiment, ExperimentSpec};
use gradpim_engine::{report, trace, Engine};
use gradpim_sim::sweeps::QuickCaps;
use gradpim_workloads::models;

/// Quick-mode traffic caps: small enough for a CI smoke, large enough to
/// keep every figure's qualitative shape.
const QUICK: QuickCaps = Some((4 * 1024, 32 * 1024));

/// Exit code for usage errors.
const EXIT_USAGE: u8 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Csv,
    Json,
}

enum Mode {
    /// Run (or `--emit-spec`) one named experiment.
    Experiment(Experiment),
    /// Execute a spec file produced by `--emit-spec`.
    RunSpec(String),
    /// Parse a report JSON and print its shape (`check report`).
    CheckReport(String),
    /// Parse a Chrome-trace JSON and print its shape (`check trace`).
    CheckTrace(String),
    /// Inspect or reset the resolved cache store.
    Cache(CacheCmd),
    /// Print experiments and networks.
    List,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheCmd {
    Stats,
    Clear,
    Verify,
}

struct Args {
    mode: Mode,
    /// `--quick`/`--full` if given; experiments default to quick.
    quick: Option<bool>,
    threads: Option<usize>,
    nets: Option<Vec<String>>,
    format: Format,
    output: Option<String>,
    emit_spec: Option<String>,
    /// `--trace PATH`: write a Chrome-trace JSON of the run's spans.
    trace: Option<String>,
    /// `--metrics PATH`: write the metrics registry JSON.
    metrics: Option<String>,
    /// `--cache DIR`: the on-disk result store (overrides `GRADPIM_CACHE`).
    cache: Option<String>,
}

/// A runtime failure, split by exit code. Most usage errors fail in
/// [`parse_args`]; [`CliError::Usage`] covers the ones only visible at
/// run time (e.g. `cache stats` with no store resolvable).
enum CliError {
    /// Ordinary runtime failure → exit 1.
    Run(String),
    /// Late-detected usage error → exit [`EXIT_USAGE`].
    Usage(String),
}

fn rt(e: impl ToString) -> CliError {
    CliError::Run(e.to_string())
}

/// The one stderr diagnostics channel: every progress, banner, and error
/// line goes through here with the uniform `gradpim-cli: ` prefix, keeping
/// stdout pipe-clean. (Usage/help text is the sole exception — it is
/// requested output, not a diagnostic.)
fn log(msg: impl std::fmt::Display) {
    eprintln!("gradpim-cli: {msg}");
}

fn usage() -> String {
    let mut s = String::from(
        "usage: gradpim-cli <experiment> [--quick|--full] [--threads N] [--nets a,b,..]\n\
         \u{20}                   [--cache DIR] [--format table|csv|json] [-o PATH]\n\
         \u{20}                   [--emit-spec PATH] [--trace PATH] [--metrics PATH]\n\
         \u{20}      gradpim-cli --run-spec FILE [--threads N] [--cache DIR]\n\
         \u{20}                   [--format table|csv|json] [-o PATH]\n\
         \u{20}                   [--trace PATH] [--metrics PATH]\n\
         \u{20}      gradpim-cli check {report|trace} PATH\n\
         \u{20}      gradpim-cli cache {stats|clear|verify} [--cache DIR]\n\
         \u{20}      gradpim-cli list\n\n\
         experiments:\n",
    );
    for e in Experiment::ALL {
        s.push_str(&format!("  {:<8} {}\n", e.name(), e.describe()));
    }
    s.push_str("  list     print experiments and networks\n");
    s.push_str("  check {report|trace} PATH   validate an emitted artifact\n");
    s.push_str("  cache {stats|clear|verify}   inspect or reset the result store\n");
    s.push_str("                               (from --cache DIR or GRADPIM_CACHE)\n");
    s
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::List,
        quick: None,
        threads: None,
        nets: None,
        format: Format::Table,
        output: None,
        emit_spec: None,
        trace: None,
        metrics: None,
        cache: None,
    };
    let mut mode = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = Some(true),
            "--full" => args.quick = Some(false),
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad --threads value `{v}`"))?;
                if n == 0 {
                    return Err("--threads must be positive".into());
                }
                args.threads = Some(n);
            }
            "--nets" => {
                let v = it.next().ok_or("--nets needs a comma-separated list")?;
                args.nets = Some(v.split(',').map(str::to_string).collect());
            }
            "--format" => {
                let v = it.next().ok_or("--format needs table, csv, or json")?;
                args.format = match v.as_str() {
                    "table" => Format::Table,
                    "csv" => Format::Csv,
                    "json" => Format::Json,
                    other => return Err(format!("unknown --format `{other}`")),
                };
            }
            "-o" | "--output" => {
                let v = it.next().ok_or("-o needs a path")?;
                args.output = Some(v.clone());
            }
            "--emit-spec" => {
                let v = it.next().ok_or("--emit-spec needs a path (or `-` for stdout)")?;
                args.emit_spec = Some(v.clone());
            }
            "--trace" => {
                let v = it.next().ok_or("--trace needs a path")?;
                args.trace = Some(v.clone());
            }
            "--metrics" => {
                let v = it.next().ok_or("--metrics needs a path")?;
                args.metrics = Some(v.clone());
            }
            "--cache" => {
                let v = it.next().ok_or("--cache needs a directory path")?;
                args.cache = Some(v.clone());
            }
            "--run-spec" => {
                let v = it.next().ok_or("--run-spec needs a spec file path")?;
                set_mode(&mut mode, Mode::RunSpec(v.clone()))?;
            }
            "list" => set_mode(&mut mode, Mode::List)?,
            "check" => {
                let what = it.next().ok_or("check needs a target: report or trace")?;
                let path = it.next().ok_or_else(|| format!("check {what} needs a path"))?;
                let checked = match what.as_str() {
                    "report" => Mode::CheckReport(path.clone()),
                    "trace" => Mode::CheckTrace(path.clone()),
                    other => {
                        return Err(format!(
                            "unknown check target `{other}` (expected report or trace)"
                        ))
                    }
                };
                set_mode(&mut mode, checked)?;
            }
            "cache" => {
                let sub = it.next().ok_or("cache needs a subcommand: stats, clear, or verify")?;
                let cmd = match sub.as_str() {
                    "stats" => CacheCmd::Stats,
                    "clear" => CacheCmd::Clear,
                    "verify" => CacheCmd::Verify,
                    other => {
                        return Err(format!(
                            "unknown cache subcommand `{other}` (expected stats, clear, or verify)"
                        ))
                    }
                };
                set_mode(&mut mode, Mode::Cache(cmd))?;
            }
            other if !other.starts_with('-') => {
                let e = Experiment::parse(other)
                    .ok_or_else(|| format!("unknown experiment `{other}`\n\n{}", usage()))?;
                set_mode(&mut mode, Mode::Experiment(e))?;
            }
            other => return Err(format!("unknown argument `{other}`\n\n{}", usage())),
        }
    }
    args.mode = mode.ok_or_else(usage)?;
    if matches!(args.mode, Mode::RunSpec(_)) {
        // The spec file owns these knobs; rejecting beats silently
        // running different caps/networks than the user asked for.
        if args.nets.is_some() {
            return Err("the spec file owns the networks; drop --nets".into());
        }
        if args.quick.is_some() {
            return Err("the spec file owns the traffic caps; drop --quick/--full".into());
        }
    }
    let inert_mode = matches!(args.mode, Mode::List | Mode::CheckReport(_) | Mode::CheckTrace(_));
    if (args.trace.is_some() || args.metrics.is_some())
        && (inert_mode || matches!(args.mode, Mode::Cache(_)))
    {
        return Err("--trace/--metrics apply to experiments and --run-spec only".into());
    }
    if args.emit_spec.is_some() && (args.trace.is_some() || args.metrics.is_some()) {
        return Err("--emit-spec writes the spec without running it; drop --trace/--metrics".into());
    }
    if args.cache.is_some() && inert_mode {
        return Err(
            "--cache applies to experiments, --run-spec, and the cache subcommand only".into()
        );
    }
    if args.cache.is_some() && args.emit_spec.is_some() {
        return Err("--emit-spec writes the spec without running it; drop --cache".into());
    }
    Ok(args)
}

fn set_mode(slot: &mut Option<Mode>, mode: Mode) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!("more than one experiment/command given\n\n{}", usage()));
    }
    *slot = Some(mode);
    Ok(())
}

/// Writes `text` to `-o PATH` if given, stdout otherwise, confirming file
/// writes on stderr so data pipes stay clean.
fn emit_output(output: Option<&str>, text: &str) -> Result<(), CliError> {
    match output {
        Some(path) => {
            std::fs::write(path, text)
                .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
            log(format!("wrote {path}"));
            Ok(())
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Opens the run's result store, if one is configured (`--cache DIR`, else
/// ambient `GRADPIM_CACHE`). An unusable directory logs an explicit
/// fallback and returns `None` — the run proceeds uncached rather than
/// failing.
fn cache_store(args: &Args) -> Option<Arc<dyn CacheBackend>> {
    cache::store_with_log(args.cache.as_deref(), &mut |m: &str| log(m))
}

fn engine_for(args: &Args) -> Engine {
    let engine = match args.threads {
        Some(n) => Engine::new(n),
        None => Engine::from_env_with(&mut |m: &str| log(m)),
    };
    match cache_store(args) {
        Some(store) => engine.with_cache(store),
        None => engine,
    }
}

/// Pluralization helper for entry counts.
fn entries(n: usize) -> String {
    format!("{n} entr{}", if n == 1 { "y" } else { "ies" })
}

/// The shared rendering for `check {report|trace}` validation failures:
/// one shape, every artifact.
fn check_failure(path: &str, what: &str, err: impl std::fmt::Display) -> CliError {
    CliError::Run(format!("`{path}` is not a valid {what}: {err}"))
}

/// Turns span recording and metrics collection on per the run's
/// arguments. Call before any work runs.
fn arm_observability(args: &Args) {
    if args.trace.is_some() {
        gradpim_obs::set_tracing(true);
    }
    if args.metrics.is_some() {
        gradpim_obs::set_metrics(true);
    }
}

/// Absorbs the engine's scheduler counters into the metrics registry that
/// `--metrics PATH` renders.
fn record_sched_stats(engine: &Engine) {
    let s = engine.sched_stats();
    gradpim_obs::counter_set("sched.batches", s.batches);
    gradpim_obs::counter_set("sched.jobs", s.jobs);
}

/// Emits the observability artifacts: the `--metrics PATH` registry JSON
/// and the `--trace PATH` Chrome-trace JSON. Runs after the report has
/// been emitted, so none of this can perturb the data stream.
fn finish_observability(args: &Args) -> Result<(), CliError> {
    if let Some(path) = &args.metrics {
        std::fs::write(path, gradpim_obs::registry().to_json())
            .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
        log(format!("wrote metrics to {path}"));
    }
    if let Some(path) = &args.trace {
        let doc = trace::export(&gradpim_obs::drain_spans());
        std::fs::write(path, doc)
            .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
        log(format!("wrote trace to {path}"));
    }
    Ok(())
}

fn run(args: &Args) -> Result<(), CliError> {
    let spec = match &args.mode {
        Mode::List => {
            println!("experiments:");
            for e in Experiment::ALL {
                println!("  {:<8} {}", e.name(), e.describe());
            }
            println!("networks:");
            for n in models::all_networks() {
                println!("  {} ({} layers, batch {})", n.name, n.layers.len(), n.default_batch);
            }
            return Ok(());
        }
        Mode::CheckReport(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
            let report = report::from_json(&doc).map_err(|e| check_failure(path, "report", e))?;
            println!(
                "{path}: valid report, {} rows x {} columns ({})",
                report.rows.len(),
                report.schema.columns.len(),
                report
                    .schema
                    .columns
                    .iter()
                    .map(|c| c.name.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return Ok(());
        }
        Mode::CheckTrace(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
            let summary = trace::summarize(&doc).map_err(|e| check_failure(path, "trace", e))?;
            let cats: Vec<String> =
                summary.cats.iter().map(|(cat, n)| format!("{cat}={n}")).collect();
            println!(
                "{path}: valid trace, {} event(s) across {} process(es){}",
                summary.events,
                summary.pids.len(),
                if cats.is_empty() { String::new() } else { format!(" ({})", cats.join(" ")) }
            );
            return Ok(());
        }
        Mode::Cache(cmd) => return run_cache_cmd(*cmd, args),
        Mode::Experiment(experiment) => ExperimentSpec::new(
            *experiment,
            if args.quick.unwrap_or(true) { QUICK } else { None },
            args.nets.clone(),
        ),
        Mode::RunSpec(path) => {
            let doc = std::fs::read_to_string(path)
                .map_err(|e| CliError::Run(format!("cannot read `{path}`: {e}")))?;
            ExperimentSpec::from_json(&doc)
                .map_err(|e| CliError::Run(format!("`{path}` is not a valid spec: {e}")))?
        }
    };

    if let Some(path) = &args.emit_spec {
        let doc = spec.to_json();
        if path == "-" {
            print!("{doc}");
        } else {
            std::fs::write(path, &doc)
                .map_err(|e| CliError::Run(format!("cannot write `{path}`: {e}")))?;
            log(format!("wrote spec for `{}` to {path}", spec.experiment));
        }
        return Ok(());
    }

    arm_observability(args);
    let t0 = Instant::now();
    let report = {
        // Scoped so the stage span is closed before the trace is drained.
        let _span = gradpim_obs::span_lazy(|| format!("cli.{}", spec.experiment), "cli");
        let engine = engine_for(args);
        log(format!(
            "{} ({} mode, {} worker thread{})",
            spec.experiment,
            if spec.quick.is_some() { "quick" } else { "full" },
            engine.threads(),
            if engine.threads() == 1 { "" } else { "s" }
        ));
        let report = spec.run(&engine).map_err(rt)?;
        record_sched_stats(&engine);
        report
    };
    let text = match args.format {
        Format::Table => report::to_table(&report),
        Format::Csv => report::to_csv(&report),
        Format::Json => report::to_json(&report),
    };
    emit_output(args.output.as_deref(), &text)?;
    finish_observability(args)?;
    log(format!("done in {:.2}s", t0.elapsed().as_secs_f64()));
    Ok(())
}

/// `cache stats|clear|verify`: operate on the store named by `--cache DIR`
/// or ambient `GRADPIM_CACHE`. Unlike a run (which degrades to uncached
/// and creates its store), these commands exist to touch an existing
/// store, so an unresolvable, missing or unusable one is an error.
fn run_cache_cmd(cmd: CacheCmd, args: &Args) -> Result<(), CliError> {
    let Some(dir) = cache::resolve_dir(args.cache.as_deref()) else {
        return Err(CliError::Usage(
            "the cache subcommand needs a store: pass --cache DIR or set GRADPIM_CACHE".into(),
        ));
    };
    if !Path::new(&dir).is_dir() {
        return Err(CliError::Run(format!("{dir}: no cache store (not a directory)")));
    }
    let store = DiskCache::open(Path::new(&dir)).map_err(CliError::Run)?;
    match cmd {
        CacheCmd::Stats => {
            let s = store.stats();
            println!("{dir}: {} ({} bytes)", entries(s.entries), s.bytes);
        }
        CacheCmd::Clear => {
            let removed = store.clear();
            println!("{dir}: cleared {}", entries(removed));
        }
        CacheCmd::Verify => {
            let problems = store.verify();
            if !problems.is_empty() {
                for p in &problems {
                    log(p);
                }
                return Err(CliError::Run(format!(
                    "{dir}: {} failed verification",
                    entries(problems.len())
                )));
            }
            let s = store.stats();
            println!("{dir}: {} verified", entries(s.entries));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(e)) => {
            log(e);
            ExitCode::FAILURE
        }
        Err(CliError::Usage(e)) => {
            log(e);
            ExitCode::from(EXIT_USAGE)
        }
    }
}
