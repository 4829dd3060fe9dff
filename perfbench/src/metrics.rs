//! The benchmark's metric tables and the result line built from them.
//!
//! Names and units here are the ones `BENCHMARK.json` declares (a unit test
//! pins the two together). Every unit says whether it counts host time or
//! simulated time.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One declared metric: name, unit, and whether a higher value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric { name, unit, higher_is_better }
}

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[Metric] =
    &[m("wall_s", "host_s", false), m("setup_s", "s", false), m("peak_rss_mb", "host_MB", false)];

/// Per-layer metrics, from the traced run (`--trace 1`). A metric whose
/// layer does no work on a workload reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("dram.ns_per_cycle.stream", "host_ns/simcyc", false),
    m("dram.ns_per_cycle.baseline-update", "host_ns/simcyc", false),
    m("dram.ns_per_cycle.pim-kernel", "host_ns/simcyc", false),
    m("dram.ns_per_cycle.aos-pb", "host_ns/simcyc", false),
    m("dram.sim_cycles.stream", "sim_cycles", false),
    m("dram.sim_cycles.baseline-update", "sim_cycles", false),
    m("dram.sim_cycles.pim-kernel", "sim_cycles", false),
    m("dram.sim_cycles.aos-pb", "sim_cycles", false),
    m("dram.sim_mcycles_per_s", "simMcyc/host_s", true),
    m("sim.phase.calls.stream", "count", false),
    m("sim.phase.calls.baseline-update", "count", false),
    m("sim.phase.calls.pim-kernel", "count", false),
    m("sim.phase.calls.aos-pb", "count", false),
    m("sim.phase.host_s.stream", "host_s", false),
    m("sim.phase.host_s.baseline-update", "host_s", false),
    m("sim.phase.host_s.pim-kernel", "host_s", false),
    m("sim.phase.host_s.aos-pb", "host_s", false),
    m("sim.phase.dup_frac", "fraction", false),
    m("engine.sched.jobs", "count", false),
    m("engine.sched.busy_frac", "host_frac", true),
    m("engine.sched.tail_s", "host_s", false),
    m("engine.channels.drain_chunks", "count", false),
    m("engine.channels.host_s", "host_s", false),
    m("engine.cache.get_us", "host_us", false),
    m("engine.cache.lookups", "count", false),
    m("engine.cache.hit_frac", "fraction", true),
    m("engine.cache.bytes_read", "bytes", false),
    m("engine.cache.open_us", "host_us", false),
    m("engine.cache.put_us", "host_us", false),
    m("engine.cache.puts", "count", false),
    m("engine.serialize.run_us", "host_us", false),
    m("engine.report.to_json_us", "host_us", false),
    m("obs.trace_overhead", "host_ratio", false),
];

/// The phase kinds, as named by the `phase.<kind>` spans and the executors'
/// contexts: the suffixes of the per-kind `dram.*` and `sim.phase.*`
/// metrics.
pub const PHASE_KINDS: [&str; 4] = ["stream", "baseline-update", "pim-kernel", "aos-pb"];

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    /// Every metric of `table` at 0: the reading of a layer that does no
    /// work on the workload.
    pub fn zeros(table: &[Metric]) -> Self {
        Self(table.iter().map(|m| (m.name.to_string(), 0.0)).collect())
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0.insert(name.into(), value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The run's result: operations attempted and failed, plus the metrics.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

/// Renders the result line: exactly the metrics of `table`, in table order,
/// each with its unit. Fails when the measured names differ from the table
/// or a value is not finite — a benchmark bug, never a result.
pub fn result_line(outcome: &Outcome, table: &[Metric]) -> Result<String, String> {
    let measured: Vec<&str> = outcome.values.0.keys().map(String::as_str).collect();
    let mut declared: Vec<&str> = table.iter().map(|m| m.name).collect();
    declared.sort_unstable();
    if measured != declared {
        return Err(format!("measured metrics {measured:?} differ from declared {declared:?}"));
    }
    let correct = outcome.failed == 0;
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted, outcome.failed
    );
    for (i, metric) in table.iter().enumerate() {
        let value = outcome.values.0[metric.name];
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", metric.name));
        }
        if i > 0 {
            out.push_str(", ");
        }
        // `{value}` is Rust's shortest round-trip form: every digit measured.
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_prints_every_declared_metric_once() {
        let mut values = Values::zeros(END_TO_END);
        values.set("wall_s", 1.25);
        let line = result_line(&Outcome { attempted: 3, failed: 0, values }, END_TO_END).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"wall_s\": {\"value\": 1.25, \"unit\": \"host_s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}, \
             \"peak_rss_mb\": {\"value\": 0, \"unit\": \"host_MB\"}}}"
        );
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let values = Values::zeros(END_TO_END);
        let line = result_line(&Outcome { attempted: 3, failed: 1, values }, END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"), "{line}");
    }

    #[test]
    fn undeclared_or_missing_metrics_are_refused() {
        let mut values = Values::zeros(END_TO_END);
        values.set("bogus", 1.0);
        assert!(result_line(&Outcome { attempted: 1, failed: 0, values }, END_TO_END).is_err());
        let values = Values::zeros(&END_TO_END[..1]);
        assert!(result_line(&Outcome { attempted: 1, failed: 0, values }, END_TO_END).is_err());
        let mut values = Values::zeros(END_TO_END);
        values.set("wall_s", f64::NAN);
        assert!(result_line(&Outcome { attempted: 1, failed: 0, values }, END_TO_END).is_err());
    }
}
