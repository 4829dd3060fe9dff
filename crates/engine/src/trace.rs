//! Chrome-trace (Perfetto-loadable) export for [`gradpim_obs`] spans, plus
//! the shard-worker **trace sidecar** protocol.
//!
//! Two serializations live here:
//!
//! - [`export`] renders a span set as a Chrome trace-event JSON document
//!   (`{"traceEvents": [...]}`), the format `chrome://tracing` and
//!   <https://ui.perfetto.dev> load directly. Events are sorted
//!   deterministically, so the same run produces the same bytes.
//! - [`report_with_sidecar`] / [`split_sidecar`] carry a worker process's
//!   span buffer piggybacked on the report-JSON protocol: the worker
//!   splices a `"trace"` member into its stdout report when (and only
//!   when) the coordinator asked for it via `GRADPIM_TRACE_SIDECAR=1`,
//!   and the coordinator strips it back out, [`rebase`]s the spans onto
//!   its own clock/pid axis, and injects them into the local collector.
//!   The plain [`crate::report::from_json`] path never sees the extra
//!   key, so untraced runs keep the strict unknown-key rejection.
//!
//! Timeline convention: the coordinator is pid [`gradpim_obs::COORDINATOR_PID`]
//! (= 1) and shard `i` is pid `i + 2`, each labelled through a `process_name`
//! metadata event. Timestamps are microseconds on the coordinator's clock;
//! worker spans are shifted by the worker's launch time, which is the best
//! cross-process alignment available without a shared clock.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use gradpim_obs::{Ph, SpanRec};

use gradpim_sim::report::Report;

use crate::json::{self, Json};
use crate::report::{self, ParseError};

fn structural(message: impl Into<String>) -> ParseError {
    ParseError { offset: 0, message: message.into() }
}

/// Sort key giving a deterministic event order: by process, then thread,
/// then start time; ties (e.g. a span and its first child starting on the
/// same microsecond tick) order the longer span first so parents precede
/// children, then fall back to the name.
fn sort_key(s: &SpanRec) -> (u32, u32, u64, std::cmp::Reverse<u64>, Cow<'static, str>) {
    (s.pid, s.tid, s.ts_us, std::cmp::Reverse(s.dur_us), s.name.clone())
}

fn push_event(out: &mut String, s: &SpanRec) {
    out.push_str("{\"name\": ");
    json::escape_into(out, &s.name);
    out.push_str(", \"cat\": ");
    json::escape_into(out, &s.cat);
    match s.ph {
        Ph::Complete => {
            out.push_str(&format!(", \"ph\": \"X\", \"ts\": {}, \"dur\": {}", s.ts_us, s.dur_us));
        }
        Ph::Instant => {
            out.push_str(&format!(", \"ph\": \"i\", \"ts\": {}, \"s\": \"t\"", s.ts_us));
        }
    }
    out.push_str(&format!(", \"pid\": {}, \"tid\": {}}}", s.pid, s.tid));
}

/// Renders `spans` as a Chrome trace-event JSON document.
///
/// The document opens with one `process_name` metadata event per distinct
/// pid (`coordinator` for pid 1, `shard N` for pid `N + 2`), followed by
/// the spans in a deterministic order (process, thread, start time, with
/// parents before children on ties). Output is byte-stable for a given
/// span set and ends with a newline.
pub fn export(spans: &[SpanRec]) -> String {
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| sort_key(s));
    let pids: BTreeSet<u32> = sorted.iter().map(|s| s.pid).collect();

    let mut out = String::from("{\"traceEvents\": [\n");
    let mut first = true;
    for pid in pids {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let label = if pid == gradpim_obs::COORDINATOR_PID {
            "coordinator".to_string()
        } else {
            format!("shard {}", pid.saturating_sub(2))
        };
        out.push_str(&format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": "
        ));
        json::escape_into(&mut out, &label);
        out.push_str("}}");
    }
    for s in &sorted {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        push_event(&mut out, s);
    }
    out.push_str("\n]}\n");
    out
}

/// Shifts `spans` onto the coordinator timeline: every span gets process id
/// `pid` and its timestamp advanced by `offset_us` (the worker's launch
/// time on the coordinator clock).
pub fn rebase(spans: &mut [SpanRec], pid: u32, offset_us: u64) {
    for s in spans {
        s.pid = pid;
        s.ts_us = s.ts_us.saturating_add(offset_us);
    }
}

/// Renders `spans` as the compact sidecar array (the value of the
/// `"trace"` report member).
pub fn spans_to_sidecar(spans: &[SpanRec]) -> String {
    let mut sorted: Vec<&SpanRec> = spans.iter().collect();
    sorted.sort_by_key(|s| sort_key(s));
    let mut out = String::from("[");
    for (i, s) in sorted.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_event(&mut out, s);
    }
    out.push(']');
    out
}

/// Splices the sidecar span array into a [`report::to_json`] document as a
/// trailing `"trace"` member. The report body is untouched, so stripping
/// the sidecar back out recovers the original bytes.
pub fn report_with_sidecar(report_json: &str, spans: &[SpanRec]) -> String {
    let Some(head) = report_json.strip_suffix("\n}\n") else {
        // Not a to_json document; pass it through so the coordinator's
        // parse error points at the real payload.
        return report_json.to_string();
    };
    format!("{head},\n  \"trace\": {}\n}}\n", spans_to_sidecar(spans))
}

fn field<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, ParseError> {
    obj.get(key).ok_or_else(|| structural(format!("trace event is missing `{key}`")))
}

fn num_u64(obj: &Json, key: &str) -> Result<u64, ParseError> {
    match field(obj, key)? {
        Json::Num(raw) => raw
            .parse::<u64>()
            .map_err(|_| structural(format!("trace event `{key}` is not a u64: `{raw}`"))),
        other => Err(structural(format!(
            "trace event `{key}` must be a number, got {}",
            other.type_name()
        ))),
    }
}

fn str_value<'a>(obj: &'a Json, key: &str) -> Result<&'a str, ParseError> {
    match field(obj, key)? {
        Json::Str(s) => Ok(s),
        other => Err(structural(format!(
            "trace event `{key}` must be a string, got {}",
            other.type_name()
        ))),
    }
}

fn parse_span(obj: &Json) -> Result<SpanRec, ParseError> {
    let name = str_value(obj, "name")?.to_string();
    let cat = str_value(obj, "cat")?.to_string();
    let (ph, dur_us) = match str_value(obj, "ph")? {
        "X" => (Ph::Complete, num_u64(obj, "dur")?),
        "i" => (Ph::Instant, 0),
        other => return Err(structural(format!("trace event has unknown ph `{other}`"))),
    };
    Ok(SpanRec {
        name: Cow::Owned(name),
        cat: Cow::Owned(cat),
        ph,
        ts_us: num_u64(obj, "ts")?,
        dur_us,
        pid: u32::try_from(num_u64(obj, "pid")?)
            .map_err(|_| structural("trace event `pid` does not fit in u32"))?,
        tid: u32::try_from(num_u64(obj, "tid")?)
            .map_err(|_| structural("trace event `tid` does not fit in u32"))?,
    })
}

/// Parses a report document that may carry a `"trace"` sidecar, returning
/// the report and the (possibly empty) span list.
///
/// # Errors
///
/// A [`ParseError`] on malformed JSON, a malformed report body, or a
/// malformed sidecar event.
pub fn split_sidecar(input: &str) -> Result<(Report, Vec<SpanRec>), ParseError> {
    let doc = json::parse(input)?;
    let report = report::from_doc(&doc, &["trace"])?;
    let mut spans = Vec::new();
    if let Some(value) = doc.get("trace") {
        let Json::Arr(items) = value else {
            return Err(structural(format!("`trace` must be an array, got {}", value.type_name())));
        };
        for item in items {
            spans.push(parse_span(item)?);
        }
    }
    Ok((report, spans))
}

/// Shape-level digest of a Chrome-trace document, for validation gates and
/// the CLI `check trace` mode. Metadata (`ph: "M"`) events are excluded
/// from every count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSummary {
    /// Number of non-metadata events.
    pub events: usize,
    /// Event count per category (`cat` field).
    pub cats: BTreeMap<String, usize>,
    /// Distinct process ids seen on non-metadata events.
    pub pids: BTreeSet<u32>,
}

/// Parses a Chrome-trace document produced by [`export`] and digests it.
///
/// # Errors
///
/// A [`ParseError`] on malformed JSON or a document without a
/// `traceEvents` array of well-formed events.
pub fn summarize(input: &str) -> Result<TraceSummary, ParseError> {
    let doc = json::parse(input)?;
    let Some(events) = doc.get("traceEvents") else {
        return Err(structural("trace document is missing `traceEvents`"));
    };
    let Json::Arr(items) = events else {
        return Err(structural(format!(
            "`traceEvents` must be an array, got {}",
            events.type_name()
        )));
    };
    let mut summary = TraceSummary::default();
    for item in items {
        if let Some(Json::Str(ph)) = item.get("ph") {
            if ph == "M" {
                continue;
            }
        }
        let span = parse_span(item)?;
        summary.events += 1;
        *summary.cats.entry(span.cat.into_owned()).or_insert(0) += 1;
        summary.pids.insert(span.pid);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        cat: &'static str,
        ts: u64,
        dur: u64,
        pid: u32,
        tid: u32,
    ) -> SpanRec {
        SpanRec {
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            ph: Ph::Complete,
            ts_us: ts,
            dur_us: dur,
            pid,
            tid,
        }
    }

    #[test]
    fn export_is_deterministic_and_golden() {
        let mut spans = vec![
            span("sched.batch", "sched", 5, 40, 1, 2),
            span("phase.stream", "phase", 5, 90, 1, 2),
            SpanRec {
                name: Cow::Borrowed("sched.steal"),
                cat: Cow::Borrowed("sched"),
                ph: Ph::Instant,
                ts_us: 7,
                dur_us: 0,
                pid: 2,
                tid: 1,
            },
        ];
        let golden = "{\"traceEvents\": [\n\
             {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 0, \"args\": {\"name\": \"coordinator\"}},\n\
             {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"shard 0\"}},\n\
             {\"name\": \"phase.stream\", \"cat\": \"phase\", \"ph\": \"X\", \"ts\": 5, \"dur\": 90, \"pid\": 1, \"tid\": 2},\n\
             {\"name\": \"sched.batch\", \"cat\": \"sched\", \"ph\": \"X\", \"ts\": 5, \"dur\": 40, \"pid\": 1, \"tid\": 2},\n\
             {\"name\": \"sched.steal\", \"cat\": \"sched\", \"ph\": \"i\", \"ts\": 7, \"s\": \"t\", \"pid\": 2, \"tid\": 1}\n\
             ]}\n";
        assert_eq!(export(&spans), golden);
        spans.reverse();
        assert_eq!(export(&spans), golden, "export must not depend on input order");
    }

    #[test]
    fn summarize_digests_the_export() {
        let spans = vec![
            span("a", "phase", 0, 2, 1, 1),
            span("b", "sched", 1, 1, 1, 1),
            span("c", "sched", 3, 1, 4, 2),
        ];
        let summary = summarize(&export(&spans)).unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.cats.get("sched"), Some(&2));
        assert_eq!(summary.cats.get("phase"), Some(&1));
        assert_eq!(summary.pids.iter().copied().collect::<Vec<_>>(), vec![1, 4]);
    }

    #[test]
    fn rebase_shifts_pid_and_clock() {
        let mut spans = vec![span("a", "phase", 10, 5, 1, 1)];
        rebase(&mut spans, 3, 100);
        assert_eq!(spans[0].pid, 3);
        assert_eq!(spans[0].ts_us, 110);
    }

    #[test]
    fn summarize_rejects_malformed_documents() {
        assert!(summarize("{}").is_err());
        assert!(summarize("{\"traceEvents\": 3}").is_err());
        assert!(summarize("{\"traceEvents\": [{\"name\": \"x\"}]}").is_err());
    }
}
