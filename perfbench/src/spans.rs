//! Reading one traced pass's spans: the harness's `bench.pass` window plus
//! the program's own `phase.*` and `sched.drain_chunk[*]` spans.

use gradpim_obs::{Ph, SpanRec};

use crate::metrics::PHASE_KINDS;

/// What one traced pass's spans say about the layers below the harness.
/// Times are host microseconds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PassSpans {
    /// `phase.<kind>` spans per kind, in [`PHASE_KINDS`] order: the phases
    /// actually simulated (a memo hit records none).
    pub phase_calls: [u64; 4],
    /// Summed `phase.<kind>` span time per kind.
    pub phase_us: [u64; 4],
    /// Summed `sched.drain_chunk[*]` span time.
    pub chunk_us: u64,
    /// `cache.lookup` spans.
    pub lookups: u64,
    /// Phase-span time ÷ pass time.
    pub busy_frac: f64,
    /// Pass end − the last phase end (0 for a pass without phases).
    pub tail_us: u64,
}

/// Reads the spans of one pass of a one-thread workload, which must include
/// the harness's `bench.pass` span.
pub fn analyze(spans: &[SpanRec]) -> PassSpans {
    let complete = spans.iter().filter(|s| s.ph == Ph::Complete);
    let Some(pass) = complete.clone().find(|s| s.name == "bench.pass") else {
        return PassSpans::default();
    };
    let mut out = PassSpans::default();
    let mut last_end = None;
    for s in complete {
        if let Some(kind) = s.name.strip_prefix("phase.") {
            if let Some(k) = PHASE_KINDS.iter().position(|&p| p == kind) {
                out.phase_calls[k] += 1;
                out.phase_us[k] += s.dur_us;
                last_end = last_end.max(Some(s.ts_us + s.dur_us));
            }
        } else if s.name.starts_with("sched.drain_chunk") {
            out.chunk_us += s.dur_us;
        } else if s.name == "cache.lookup" {
            out.lookups += 1;
        }
    }
    let busy: u64 = out.phase_us.iter().sum();
    out.busy_frac = crate::harness::ratio(busy as f64, pass.dur_us as f64);
    if let Some(last) = last_end {
        out.tail_us = (pass.ts_us + pass.dur_us).saturating_sub(last);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    fn span(name: &'static str, ts: u64, dur: u64, tid: u32) -> SpanRec {
        SpanRec {
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed("test"),
            ph: Ph::Complete,
            ts_us: ts,
            dur_us: dur,
            pid: 1,
            tid,
        }
    }

    #[test]
    fn phases_chunks_busy_and_tail() {
        let spans = vec![
            span("bench.pass", 0, 100, 1),
            span("phase.stream", 0, 40, 1),
            span("sched.drain_chunk[1]", 20, 10, 1),
            span("phase.pim-kernel", 40, 30, 1),
            span("phase.stream", 70, 20, 1),
            span("cache.lookup", 95, 1, 1),
        ];
        let a = analyze(&spans);
        assert_eq!(a.phase_calls, [2, 0, 1, 0]);
        assert_eq!(a.phase_us, [60, 0, 30, 0]);
        assert_eq!(a.chunk_us, 10);
        assert_eq!(a.lookups, 1);
        assert_eq!(a.busy_frac, 0.9);
        // The last phase ended at 90: the pass spent 10 µs after it.
        assert_eq!(a.tail_us, 10);
        // A pass without phases has no tail.
        assert_eq!(analyze(&spans[..1]).tail_us, 0);
    }

    #[test]
    fn no_pass_span_reads_nothing() {
        assert_eq!(analyze(&[span("phase.stream", 0, 5, 1)]), PassSpans::default());
    }
}
