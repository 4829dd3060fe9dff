//! Observability primitives for the GradPIM workspace: tracing spans and
//! a unified metrics registry.
//!
//! This crate is a **leaf**: std-only, zero dependencies, depended on by
//! `gradpim-sim` (phase executors), `gradpim-engine` (scheduler, result
//! cache), and `gradpim-cli` (experiment stages) — it never sees their
//! types, it only records what they tell it. Two subsystems
//! share the crate because they share one invariant, *non-perturbation*:
//!
//! * **Spans** ([`span`], [`instant`], [`SpanRec`]) — wall-clock intervals
//!   recorded into per-thread buffers behind a single relaxed atomic load
//!   when tracing is off. A span is opened by a guard and recorded on
//!   drop; [`drain_spans`] collects every buffer for export as a
//!   Chrome-trace timeline (the exporter lives in `gradpim_engine::trace`,
//!   which owns the workspace's JSON conventions).
//! * **Metrics** ([`counter_add`], [`counter_set`], [`observe`],
//!   [`Registry`]) — named counters and min/max/sum/count histograms with
//!   a deterministic (BTreeMap-ordered) JSON rendering, replacing ad-hoc
//!   env-var stderr dumps.
//!
//! Everything is **off by default** and never touches stdout: simulated
//! results must stay byte-identical with tracing on or off, and emission
//! is the CLI's job. All global state is process-wide; [`reset`] exists
//! for tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// The `pid` recorded on every span: the program traces one process.
pub const COORDINATOR_PID: u32 = 1;

/// Chrome-trace event phase: a complete interval or a point event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Ph {
    /// A `ph: "X"` complete event with a duration.
    Complete,
    /// A `ph: "i"` thread-scoped instant event.
    Instant,
}

/// One recorded span or instant, in the units Chrome-trace wants:
/// microseconds since the process [`epoch`](now_us), integer truncated
/// (so a child interval is always contained in its parent's).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Event name, e.g. `phase.stream` or `sched.batch[4]`.
    pub name: Cow<'static, str>,
    /// Layer category: `phase`, `sched`, `cache`, or `cli`.
    pub cat: Cow<'static, str>,
    /// Complete interval or instant.
    pub ph: Ph,
    /// Start, µs since the process epoch.
    pub ts_us: u64,
    /// Duration in µs; 0 for instants.
    pub dur_us: u64,
    /// Process lane: [`COORDINATOR_PID`] for every recorded span.
    pub pid: u32,
    /// Thread lane: per-thread registration order, starting at 1.
    pub tid: u32,
}

static TRACING: AtomicBool = AtomicBool::new(false);
static METRICS: AtomicBool = AtomicBool::new(false);

/// Locks a mutex, ignoring poisoning: every guarded structure here is a
/// plain append/read buffer that stays valid if a panic interrupted a
/// previous holder.
fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the process epoch (the first call wins the zero
/// point). Monotone and integer-truncated, so `now_us` differences taken
/// around nested calls can never invert containment.
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Turns span recording on or off, process-wide. Off (the default) costs
/// one relaxed atomic load per [`span`]/[`instant`] call site.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Relaxed);
}

/// True when span recording is enabled.
pub fn tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Turns metrics recording on or off, process-wide (same cost model as
/// [`set_tracing`]).
pub fn set_metrics(on: bool) {
    METRICS.store(on, Ordering::Relaxed);
}

/// True when metrics recording is enabled.
pub fn metrics_enabled() -> bool {
    METRICS.load(Ordering::Relaxed)
}

type Buffer = Arc<Mutex<Vec<SpanRec>>>;

/// Every live thread's span buffer, registered on the thread's first
/// record. Batch lanes are spawned per batch, so a buffer whose thread
/// has exited is dropped by the next [`drain_spans`], after its spans are
/// taken.
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static LOCAL: RefCell<Option<(u32, Buffer)>> = const { RefCell::new(None) };
}

/// Appends to this thread's buffer — uncontended except against a
/// concurrent [`drain_spans`], so recording is lock-cheap.
fn record(mut rec: SpanRec, tid_hint: Option<u32>) {
    LOCAL.with(|local| {
        let mut local = local.borrow_mut();
        let (tid, buf) = local.get_or_insert_with(|| {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let buf: Buffer = Arc::new(Mutex::new(Vec::new()));
            lock_unpoisoned(&BUFFERS).push(Arc::clone(&buf));
            (tid, buf)
        });
        rec.tid = tid_hint.unwrap_or(*tid);
        lock_unpoisoned(buf).push(rec);
    });
}

/// An open span: records a [`Ph::Complete`] event over its lifetime when
/// tracing was enabled at creation, and is a no-op otherwise.
#[must_use = "a span measures its guard's lifetime — bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct SpanGuard(Option<OpenSpan>);

#[derive(Debug)]
struct OpenSpan {
    name: Cow<'static, str>,
    cat: &'static str,
    start_us: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            let end_us = now_us();
            record(
                SpanRec {
                    name: open.name,
                    cat: Cow::Borrowed(open.cat),
                    ph: Ph::Complete,
                    ts_us: open.start_us,
                    dur_us: end_us.saturating_sub(open.start_us),
                    pid: COORDINATOR_PID,
                    tid: 0,
                },
                None,
            );
        }
    }
}

/// Opens a span named `name` in layer category `cat`; the returned guard
/// records the interval on drop. When tracing is off this is one relaxed
/// load and no allocation (pass a `&'static str` on hot paths).
pub fn span(name: impl Into<Cow<'static, str>>, cat: &'static str) -> SpanGuard {
    if !tracing() {
        return SpanGuard(None);
    }
    SpanGuard(Some(OpenSpan { name: name.into(), cat, start_us: now_us() }))
}

/// [`span`] with a lazily-built name: `name()` runs only when tracing is
/// enabled, so `format!`-built names cost nothing on the off path.
pub fn span_lazy(name: impl FnOnce() -> String, cat: &'static str) -> SpanGuard {
    if !tracing() {
        return SpanGuard(None);
    }
    SpanGuard(Some(OpenSpan { name: Cow::Owned(name()), cat, start_us: now_us() }))
}

/// Records a point event when tracing is enabled.
pub fn instant(name: impl Into<Cow<'static, str>>, cat: &'static str) {
    if !tracing() {
        return;
    }
    record(
        SpanRec {
            name: name.into(),
            cat: Cow::Borrowed(cat),
            ph: Ph::Instant,
            ts_us: now_us(),
            dur_us: 0,
            pid: COORDINATOR_PID,
            tid: 0,
        },
        None,
    );
}

/// Takes every recorded span out of every thread's buffer (live threads
/// keep their registrations and thread ids), in an unspecified order —
/// exporters sort.
pub fn drain_spans() -> Vec<SpanRec> {
    let mut out: Vec<SpanRec> = Vec::new();
    lock_unpoisoned(&BUFFERS).retain(|buf| {
        let mut spans = lock_unpoisoned(buf);
        out.append(&mut spans);
        // Read while `spans` still holds the buffer lock: a count of 1
        // means the owning thread's local is gone, so it finished every
        // record before the append above and the buffer can go.
        Arc::strong_count(buf) > 1
    });
    out
}

/// Clears all recorded spans and metrics — for tests
/// that assert on global state. Enable flags and thread-id assignments
/// are left alone.
pub fn reset() {
    drop(drain_spans());
    *lock_unpoisoned(&REGISTRY) = Registry::default();
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// One histogram: count / min / max / sum of observed values. Means and
/// rates are derived by readers, not stored.
#[derive(Debug, Clone, PartialEq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
    /// Sum of observed values, in observation order.
    pub sum: f64,
}

impl Hist {
    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.sum += v;
    }
}

/// The unified metrics registry: named counters and histograms with a
/// deterministic JSON rendering. One global instance is written through
/// [`counter_add`]/[`counter_set`]/[`observe`] and snapshotted with
/// [`registry`]; the type is public so callers can merge or render
/// snapshots themselves.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    /// Monotone named counters (e.g. the scheduler's `SchedStats`).
    pub counters: BTreeMap<String, u64>,
    /// Named histograms (e.g. per-phase wall-clock and cycle counts).
    pub hists: BTreeMap<String, Hist>,
}

impl Registry {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.hists.is_empty()
    }

    /// Renders the registry as a small JSON document. Deterministic:
    /// `BTreeMap` order, shortest-round-trip floats. The document shape
    /// is `{"counters": {...}, "histograms": {name: {count, min, max,
    /// sum}}}` and parses with `gradpim_engine`'s JSON parser.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_into(&mut out, name);
            out.push_str(&format!(": {v}"));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    ");
            escape_into(&mut out, name);
            out.push_str(&format!(
                ": {{\"count\": {}, \"min\": {}, \"max\": {}, \"sum\": {}}}",
                h.count,
                float_text(h.min),
                float_text(h.max),
                float_text(h.sum)
            ));
        }
        if !self.hists.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Shortest-round-trip float text, finite values only (metrics are
/// counts and durations); non-finite values render as 0 defensively.
fn float_text(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Minimal JSON string escaping for metric names (matching the
/// conventions of `gradpim_engine`'s emitter, which this crate cannot
/// depend on — it sits below the engine).
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { counters: BTreeMap::new(), hists: BTreeMap::new() });

/// Adds `v` to the named counter (created at 0). No-op while metrics are
/// disabled.
pub fn counter_add(name: &str, v: u64) {
    if !metrics_enabled() {
        return;
    }
    *lock_unpoisoned(&REGISTRY).counters.entry(name.to_string()).or_insert(0) += v;
}

/// Sets the named counter to an absolute value — for copying externally
/// accumulated totals (e.g. `SchedStats`) into the registry. No-op while
/// metrics are disabled.
pub fn counter_set(name: &str, v: u64) {
    if !metrics_enabled() {
        return;
    }
    lock_unpoisoned(&REGISTRY).counters.insert(name.to_string(), v);
}

/// Records one observation into the named histogram. No-op while metrics
/// are disabled.
pub fn observe(name: &str, v: f64) {
    if !metrics_enabled() {
        return;
    }
    lock_unpoisoned(&REGISTRY)
        .hists
        .entry(name.to_string())
        .or_insert(Hist { count: 0, min: f64::INFINITY, max: f64::NEG_INFINITY, sum: 0.0 })
        .observe(v);
}

/// A snapshot of the global registry.
pub fn registry() -> Registry {
    lock_unpoisoned(&REGISTRY).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests are serialized: spans, metrics, and flags are
    /// process-wide.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        lock_unpoisoned(&TEST_LOCK)
    }

    #[test]
    fn spans_are_noops_until_enabled() {
        let _s = serial();
        reset();
        set_tracing(false);
        {
            let _span = span("off.span", "test");
            instant("off.instant", "test");
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn span_guard_records_a_contained_interval() {
        let _s = serial();
        reset();
        set_tracing(true);
        {
            let _outer = span("outer", "test");
            let _inner = span("inner", "test");
        }
        instant("mark", "test");
        set_tracing(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let find = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        let (outer, inner, mark) = (find("outer"), find("inner"), find("mark"));
        assert_eq!(outer.ph, Ph::Complete);
        assert_eq!(mark.ph, Ph::Instant);
        assert_eq!(mark.dur_us, 0);
        // Drop order closes inner first; truncation keeps containment.
        assert!(inner.ts_us >= outer.ts_us);
        assert!(inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us);
        assert_eq!(outer.pid, COORDINATOR_PID);
        assert!(outer.tid >= 1);
        // Drained means gone.
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn exited_threads_keep_their_spans_but_not_their_buffers() {
        let _s = serial();
        reset();
        set_tracing(true);
        std::thread::spawn(|| drop(span("short.lived", "test"))).join().unwrap();
        set_tracing(false);
        let registered = lock_unpoisoned(&BUFFERS).len();
        let spans = drain_spans();
        assert!(spans.iter().any(|s| s.name == "short.lived"), "{spans:?}");
        assert!(lock_unpoisoned(&BUFFERS).len() < registered, "the exited thread's buffer stayed");
    }

    #[test]
    fn draining_while_threads_record_and_exit_loses_no_span() {
        const THREADS: usize = 2000;
        const PER_THREAD: usize = 64;
        let _s = serial();
        reset();
        set_tracing(true);
        let done = std::sync::atomic::AtomicBool::new(false);
        let mut drained = 0;
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..THREADS {
                    std::thread::spawn(|| {
                        (0..PER_THREAD).for_each(|_| instant("lossless", "test"))
                    })
                    .join()
                    .unwrap();
                }
                done.store(true, Ordering::Release);
            });
            while !done.load(Ordering::Acquire) {
                drained += drain_spans().iter().filter(|s| s.name == "lossless").count();
            }
        });
        set_tracing(false);
        drained += drain_spans().iter().filter(|s| s.name == "lossless").count();
        assert_eq!(drained, THREADS * PER_THREAD);
    }

    #[test]
    fn lazy_span_names_are_not_built_when_off() {
        let _s = serial();
        reset();
        set_tracing(false);
        let _span = span_lazy(|| unreachable!("name built while tracing is off"), "test");
    }

    #[test]
    fn threads_get_distinct_tids() {
        let _s = serial();
        reset();
        set_tracing(true);
        instant("main", "test");
        std::thread::spawn(|| instant("child", "test")).join().unwrap();
        set_tracing(false);
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid, "{spans:?}");
    }

    #[test]
    fn metrics_registry_accumulates_and_renders_deterministically() {
        let _s = serial();
        reset();
        set_metrics(true);
        counter_add("b.count", 2);
        counter_add("b.count", 3);
        counter_set("a.total", 7);
        observe("wall_ns", 4.0);
        observe("wall_ns", 2.0);
        set_metrics(false);
        let reg = registry();
        assert_eq!(reg.counters.get("a.total"), Some(&7));
        assert_eq!(reg.counters.get("b.count"), Some(&5));
        let h = reg.hists.get("wall_ns").unwrap();
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 2.0, 4.0, 6.0));
        let expected = "{\n  \"counters\": {\n    \"a.total\": 7,\n    \"b.count\": 5\n  },\n  \
                        \"histograms\": {\n    \"wall_ns\": {\"count\": 2, \"min\": 2, \
                        \"max\": 4, \"sum\": 6}\n  }\n}\n";
        assert_eq!(reg.to_json(), expected);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let _s = serial();
        reset();
        set_metrics(false);
        counter_add("ghost", 1);
        observe("ghost_h", 1.0);
        assert!(registry().is_empty());
        assert_eq!(registry().to_json(), "{\n  \"counters\": {},\n  \"histograms\": {}\n}\n");
    }

    #[test]
    fn registry_json_escapes_metric_names() {
        let mut reg = Registry::default();
        reg.counters.insert("weird\"name\n".into(), 1);
        let json = reg.to_json();
        assert!(json.contains("\"weird\\\"name\\n\": 1"), "{json}");
    }
}
