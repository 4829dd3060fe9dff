//! Chrome-trace (Perfetto-loadable) export for [`gradpim_obs`] spans, and
//! the digest `gradpim-cli check trace` prints.
//!
//! [`export`] renders a span set as a Chrome trace-event JSON document
//! (`{"traceEvents": [...]}`), the format `chrome://tracing` and
//! <https://ui.perfetto.dev> load directly. Events are sorted
//! deterministically, so the same run produces the same bytes.
//! [`summarize`] parses such a document back and counts its events.
//!
//! Timeline convention: the program records every span under pid
//! [`gradpim_obs::COORDINATOR_PID`] (= 1), labelled `coordinator` through a
//! `process_name` metadata event, with one thread lane per recording
//! thread. Timestamps are microseconds since the process epoch.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

use gradpim_obs::{Ph, SpanRec};

use crate::json::{self, Json};
use crate::report::ParseError;

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
/// pid (`coordinator` for pid 1, `process N` for any other pid `N`),
/// followed by the spans in a deterministic order (process, thread, start
/// time, with parents before children on ties). Output is byte-stable for
/// a given span set and ends with a newline.
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
            format!("process {pid}")
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
             {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, \"tid\": 0, \"args\": {\"name\": \"process 2\"}},\n\
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
    fn summarize_rejects_malformed_documents() {
        assert!(summarize("{}").is_err());
        assert!(summarize("{\"traceEvents\": 3}").is_err());
        assert!(summarize("{\"traceEvents\": [{\"name\": \"x\"}]}").is_err());
    }
}
