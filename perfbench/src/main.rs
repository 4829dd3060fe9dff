//! `perfbench`: the GradPIM reproduction's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! perfbench --workload <fig12a-cold|phase-mix|fig13-warm> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One run builds its inputs from `--seed`, sets up (timed as the median of
//! repeated set-ups), runs timed passes of the workload for `--seconds`,
//! checks every output, and prints as its last line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` they are the per-layer ones, read from harness timers and
//! the program's own spans and counters, and a Chrome trace is written
//! under `.bench_out/`. The line before it names the workload, the digest
//! of the simulated outputs, and a host-speed reading taken at the start
//! and end of the run. See `README.md` for the workloads and metrics.

mod check;
mod cpus;
mod fig12a;
mod fig13;
mod harness;
mod metrics;
mod phase_mix;
mod spans;
mod store;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use harness::{Plan, Run};

const USAGE: &str = "usage: perfbench --workload <fig12a-cold|phase-mix|fig13-warm> \
                     --seed N --seconds S --trace <0|1>";

/// Where runs write traces and scratch stores, relative to the working
/// directory (the root of the checkout).
const OUT_DIR: &str = ".bench_out";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run(args: &Args) -> Result<Run, String> {
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let plan = Plan {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        out_dir,
    };
    match args.workload.as_str() {
        "fig12a-cold" => fig12a::run(&plan),
        "phase-mix" => phase_mix::run(&plan),
        "fig13-warm" => fig13::run(&plan),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let probe_start = harness::host_probe_s();
    let run = match run(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let probe_end = harness::host_probe_s();
    let table = if args.trace { metrics::PER_LAYER } else { metrics::END_TO_END };
    let line = match metrics::result_line(&run.outcome, table) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let trace_file =
        run.trace_file.as_ref().map_or("null".into(), |p| format!("\"{}\"", p.display()));
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"passes\": {}, \"digest\": \"{}\", \
         \"host_probe_s\": {{\"start\": {probe_start}, \"end\": {probe_end}}}, \"trace_file\": {trace_file}}}",
        args.workload, args.seed, args.trace, run.passes, run.digest
    );
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Metric, END_TO_END, PER_LAYER};

    /// Serializes tests that simulate: tracing, metrics and span buffers
    /// are process-wide, so a traced test must not see another's spans.
    pub fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A scratch directory for tests, inside the checkout (ignored by git).
    pub fn out_dir() -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join(OUT_DIR).join("tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert_eq!(
            parse("--workload phase-mix --seed 3 --seconds 10 --trace 1").unwrap(),
            Args { workload: "phase-mix".into(), seed: 3, seconds: 10, trace: true }
        );
        assert!(parse("--workload phase-mix --seed x --seconds 10").is_err());
        assert!(parse("--workload phase-mix --seconds 10").is_err());
        assert!(parse("--workload phase-mix --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--bogus 1").is_err());
    }

    /// The metric names, units and directions this program prints equal the
    /// ones `BENCHMARK.json` declares, in order, and so do the workloads.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).unwrap();
        let printed = |table: &[Metric]| -> Vec<[String; 3]> {
            let better = |m: &Metric| if m.higher_is_better { "higher" } else { "lower" };
            table.iter().map(|m| [m.name.into(), m.unit.into(), better(m).into()]).collect()
        };
        assert_eq!(declared(&doc, "end_to_end", &["name", "unit", "better"]), printed(END_TO_END));
        assert_eq!(declared(&doc, "per_layer", &["name", "unit", "better"]), printed(PER_LAYER));
        let workloads: Vec<String> =
            declared(&doc, "workloads", &["name"]).into_iter().map(|[n]| n).collect();
        assert_eq!(workloads, ["fig12a-cold", "phase-mix", "fig13-warm"]);
    }

    /// The string fields `keys` of every object in the `section` array of
    /// `BENCHMARK.json` (whose strings hold no escapes or brackets).
    fn declared<const N: usize>(doc: &str, section: &str, keys: &[&str; N]) -> Vec<[String; N]> {
        let start = doc.find(&format!("\"{section}\": [")).expect("section present");
        let body = &doc[start..start + doc[start..].find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|obj| {
                keys.map(|key| {
                    let at =
                        obj.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
                    obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
                })
            })
            .collect()
    }
}
