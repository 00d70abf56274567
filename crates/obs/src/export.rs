//! Flight-recorder exporters: Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and folded-stack flamegraphs.
//!
//! The Chrome trace maps the journal's *lanes* to timeline threads:
//! tracer spans render as nested `X` (complete) events on the `main`
//! lane, interval events (chunk reads, slice fills, kernels) as `X`
//! events on their own lane — one per pipeline reader, so the stage-2
//! I/O–compute overlap is visually inspectable —
//! and point events (retries, quarantines, cache hits) as `i`
//! instants. The journal's exact drop ledger is embedded under
//! `otherData`, so a truncated trace always says so.
//!
//! Everything is sorted by monotonic sequence number before export:
//! under a frozen or simulated clock many records share identical
//! timestamps, and `(start, seq)` ordering keeps the output
//! byte-deterministic.

use crate::journal::{Event, EventKind, JournalLedger};
use crate::span::SpanRecord;
use serde::{Serialize, Sink};

/// The process id every lane renders under.
const PID: u64 = 1;

fn category(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. } => "span",
        EventKind::CounterAdd { .. } => "counter",
        EventKind::IoSubmit { .. } | EventKind::ChunkRead { .. } | EventKind::SliceFill { .. } => {
            "io"
        }
        EventKind::Retry { .. } | EventKind::GaveUp { .. } | EventKind::Quarantine { .. } => {
            "fault"
        }
        EventKind::CacheHit { .. } | EventKind::CacheMiss { .. } => "cache",
        EventKind::StoreRead { .. }
        | EventKind::Repair { .. }
        | EventKind::PackQuarantine { .. }
        | EventKind::DeltaCapture { .. } => "store",
        EventKind::Kernel { .. } => "compute",
        EventKind::Flush { .. } => "veloc",
        EventKind::Divergence { .. } => "compare",
    }
}

/// Renders spans + journal events as a Chrome trace-event JSON string.
///
/// Lanes: `main` (tid 0) carries the span tree; every other lane name
/// seen in `events` gets its own tid (1.., sorted by name) and a
/// `thread_name` metadata record. `span_begin`/`span_end` journal
/// events are skipped — the span records already carry the same
/// intervals with exact durations.
#[must_use]
pub fn chrome_trace(spans: &[SpanRecord], events: &[Event], ledger: &JournalLedger) -> String {
    let events: Vec<&Event> = events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. }
            )
        })
        .collect();
    let mut lanes: Vec<&str> = events
        .iter()
        .map(|e| e.lane.as_str())
        .filter(|l| *l != "main")
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    let trace = Trace {
        spans,
        events,
        ledger,
        lanes,
    };
    serde_json::to_string_pretty(&trace).unwrap_or_default()
}

/// The trace document, written as it is walked.
struct Trace<'a> {
    spans: &'a [SpanRecord],
    /// The journal events, span markers left out.
    events: Vec<&'a Event>,
    ledger: &'a JournalLedger,
    /// Every lane but `main`, sorted: lane `i` renders as tid `i + 1`.
    lanes: Vec<&'a str>,
}

impl Trace<'_> {
    fn tid(&self, lane: &str) -> u64 {
        self.lanes
            .iter()
            .position(|l| *l == lane)
            .map_or(0, |i| i as u64 + 1)
    }
}

fn entry<S: Sink + ?Sized, T: Serialize + ?Sized>(out: &mut S, key: &str, value: &T) {
    out.key(key);
    value.serialize(out);
}

/// Opens one trace event and writes its leading entries: `name`,
/// `cat` if it has one, `ph`, an instant's thread scope, `pid`, `tid`.
fn begin_event<S: Sink + ?Sized>(out: &mut S, name: &str, cat: Option<&str>, ph: &str, tid: u64) {
    out.begin_object();
    entry(out, "name", name);
    if let Some(cat) = cat {
        entry(out, "cat", cat);
    }
    entry(out, "ph", ph);
    if ph == "i" {
        entry(out, "s", "t");
    }
    entry(out, "pid", &PID);
    entry(out, "tid", &tid);
}

/// A trace-event time: microseconds, keeping nanosecond resolution as
/// fractional digits (sim clocks tick in ns).
fn micros<S: Sink + ?Sized>(out: &mut S, key: &str, ns: u128) {
    entry(
        out,
        key,
        &(ns.min(u128::from(u64::MAX)) as u64 as f64 / 1000.0),
    );
}

impl Serialize for Trace<'_> {
    fn serialize<S: Sink + ?Sized>(&self, out: &mut S) {
        out.begin_object();
        entry(out, "displayTimeUnit", "ms");
        out.key("traceEvents");
        out.begin_array();
        let lanes = std::iter::once("main").chain(self.lanes.iter().copied());
        for (name, tid, arg) in std::iter::once(("process_name", 0, "reprocmp"))
            .chain(lanes.map(|lane| ("thread_name", self.tid(lane), lane)))
        {
            begin_event(out, name, None, "M", tid);
            out.key("args");
            out.begin_object();
            entry(out, "name", arg);
            out.end_object();
            out.end_object();
        }
        // Spans, in deterministic (start, seq) order.
        let mut ordered: Vec<&SpanRecord> = self.spans.iter().collect();
        ordered.sort_by_key(|r| (r.start, r.seq));
        for r in ordered {
            begin_event(out, &r.name, Some("span"), "X", 0);
            micros(out, "ts", r.start.as_nanos());
            micros(out, "dur", r.elapsed().as_nanos());
            out.key("args");
            out.begin_object();
            entry(out, "seq", &r.seq);
            entry(out, "depth", &r.depth);
            out.end_object();
            out.end_object();
        }
        // Journal events, already in seq order from `Journal::events`.
        for e in &self.events {
            let latency_ns = e.kind.latency_ns();
            let ph = if latency_ns.is_some() { "X" } else { "i" };
            let cat = Some(category(&e.kind));
            begin_event(out, e.kind.type_name(), cat, ph, self.tid(&e.lane));
            let start_ns = e.ts_ns.saturating_sub(latency_ns.unwrap_or(0));
            micros(out, "ts", start_ns.into());
            if let Some(latency_ns) = latency_ns {
                micros(out, "dur", latency_ns.into());
            }
            out.key("args");
            out.begin_object();
            entry(out, "seq", &e.seq);
            e.kind.serialize_fields(&mut Args { out, skip: false });
            out.end_object();
            out.end_object();
        }
        out.end_array();
        entry(out, "otherData", self.ledger);
        out.end_object();
    }
}

/// Forwards an event kind's entries as trace-event `args`, minus its
/// `type` tag (the event's `name`) and its `latency_ns` (its `dur`).
/// Every entry of a kind is a scalar.
struct Args<'a, S: ?Sized> {
    out: &'a mut S,
    /// Whether the value after the last key is dropped.
    skip: bool,
}

macro_rules! forward_scalars {
    ($($method:ident($($v:ident: $t:ty)?)),*) => {$(
        fn $method(&mut self, $($v: $t)?) {
            if !self.skip {
                self.out.$method($($v)?);
            }
        }
    )*};
}

impl<S: Sink + ?Sized> Sink for Args<'_, S> {
    fn key(&mut self, key: &str) {
        self.skip = matches!(key, "type" | "latency_ns");
        if !self.skip {
            self.out.key(key);
        }
    }
    fn begin_object(&mut self) {}
    fn end_object(&mut self) {}
    fn begin_array(&mut self) {}
    fn end_array(&mut self) {}
    forward_scalars!(null(), bool(v: bool), u64(v: u64), i64(v: i64), f64(v: f64), str(v: &str));
}

/// Renders the span tree as folded stacks (`a;b;c self_ns` lines,
/// sorted), the input format of flamegraph tooling. Values are each
/// frame's *self* time in nanoseconds: elapsed minus the elapsed of its
/// direct children, floored at zero.
#[must_use]
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    let mut child_time = vec![0u128; spans.len()];
    for r in spans {
        if let Some(p) = r.parent {
            if let Some(slot) = child_time.get_mut(p as usize) {
                *slot += r.elapsed().as_nanos();
            }
        }
    }
    let path_of = |mut i: usize| -> String {
        let mut parts = vec![spans[i].name.as_str()];
        while let Some(p) = spans[i].parent {
            i = p as usize;
            parts.push(spans[i].name.as_str());
        }
        parts.reverse();
        parts.join(";")
    };
    let mut folded: std::collections::BTreeMap<String, u128> = std::collections::BTreeMap::new();
    let mut ordered: Vec<usize> = (0..spans.len()).collect();
    ordered.sort_by_key(|&i| (spans[i].start, spans[i].seq));
    for i in ordered {
        let self_ns = spans[i].elapsed().as_nanos().saturating_sub(child_time[i]);
        *folded.entry(path_of(i)).or_insert(0) += self_ns;
    }
    let mut out = String::new();
    for (path, ns) in folded {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use crate::span::Tracer;
    use crate::ObsClock;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    fn manual_clock() -> (ObsClock, Arc<AtomicU64>) {
        let ns = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&ns);
        let clock = ObsClock::from_fn(move || Duration::from_nanos(src.load(Ordering::SeqCst)));
        (clock, ns)
    }

    #[test]
    fn chrome_trace_has_metadata_lanes_and_ledger() {
        let (clock, ns) = manual_clock();
        let journal = Journal::new(clock.clone());
        let tracer = Tracer::with_journal(clock, journal.clone());
        {
            let _root = tracer.span("compare");
            ns.store(5_000, Ordering::SeqCst);
        }
        journal.emit(
            "run_a.pipeline",
            EventKind::ChunkRead {
                offset: 0,
                len: 4096,
                queue_depth: 64,
                latency_ns: 1_000,
            },
        );
        journal.emit(
            "run_b.pipeline",
            EventKind::IoSubmit {
                ops: 3,
                bytes: 12_288,
                queue_depth: 64,
            },
        );
        let trace = chrome_trace(&tracer.records(), &journal.events(), &journal.ledger());
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"thread_name\""));
        assert!(trace.contains("run_a.pipeline"));
        assert!(trace.contains("run_b.pipeline"));
        assert!(trace.contains("\"events_emitted\": 4")); // 2 span + 2 io
        assert!(trace.contains("\"events_dropped\": 0"));
        // The span renders as a complete event with its 5 µs duration.
        assert!(trace.contains("\"name\": \"compare\""));
        assert!(trace.contains("\"dur\": 5"));
    }

    #[test]
    fn identical_timestamps_export_in_seq_order() {
        let tracer = Tracer::new(ObsClock::frozen());
        {
            let _a = tracer.span("a");
        }
        {
            let _b = tracer.span("b");
        }
        {
            let _c = tracer.span("c");
        }
        let trace = chrome_trace(
            &tracer.records(),
            &[],
            &JournalLedger {
                events_emitted: 0,
                events_written: 0,
                events_dropped: 0,
            },
        );
        let ia = trace.find("\"name\": \"a\"").unwrap();
        let ib = trace.find("\"name\": \"b\"").unwrap();
        let ic = trace.find("\"name\": \"c\"").unwrap();
        assert!(ia < ib && ib < ic, "frozen-clock spans must keep seq order");
    }

    #[test]
    fn folded_stacks_attribute_self_time() {
        let (clock, ns) = manual_clock();
        let tracer = Tracer::new(clock);
        {
            let _root = tracer.span("root");
            ns.store(10, Ordering::SeqCst);
            {
                let _child = tracer.span("leaf");
                ns.store(40, Ordering::SeqCst);
            }
            ns.store(100, Ordering::SeqCst);
        }
        let folded = folded_stacks(&tracer.records());
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["root 70", "root;leaf 30"]);
    }
}
