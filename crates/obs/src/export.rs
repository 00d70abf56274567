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
use serde::Value;

/// The process id every lane renders under.
const PID: u64 = 1;

fn us(ns: u64) -> Value {
    // Trace-event timestamps are microseconds; keep nanosecond
    // resolution as fractional digits (sim clocks tick in ns).
    Value::Float(ns as f64 / 1000.0)
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

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
    let mut lanes: Vec<&str> = events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. }
            )
        })
        .map(|e| e.lane.as_str())
        .filter(|l| *l != "main")
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    let tid_of = |lane: &str| -> u64 {
        if lane == "main" {
            0
        } else {
            1 + lanes.iter().position(|l| *l == lane).unwrap_or(0) as u64
        }
    };

    let mut trace_events: Vec<Value> = Vec::new();
    trace_events.push(obj(vec![
        ("name", Value::String("process_name".into())),
        ("ph", Value::String("M".into())),
        ("pid", Value::UInt(PID)),
        ("tid", Value::UInt(0)),
        (
            "args",
            obj(vec![("name", Value::String("reprocmp".into()))]),
        ),
    ]));
    for lane in std::iter::once("main").chain(lanes.iter().copied()) {
        trace_events.push(obj(vec![
            ("name", Value::String("thread_name".into())),
            ("ph", Value::String("M".into())),
            ("pid", Value::UInt(PID)),
            ("tid", Value::UInt(tid_of(lane))),
            ("args", obj(vec![("name", Value::String(lane.into()))])),
        ]));
    }

    // Spans, in deterministic (start, seq) order.
    let mut ordered: Vec<&SpanRecord> = spans.iter().collect();
    ordered.sort_by_key(|r| (r.start, r.seq));
    for r in ordered {
        let start_ns = u64::try_from(r.start.as_nanos()).unwrap_or(u64::MAX);
        let dur_ns = u64::try_from(r.elapsed().as_nanos()).unwrap_or(u64::MAX);
        trace_events.push(obj(vec![
            ("name", Value::String(r.name.clone())),
            ("cat", Value::String("span".into())),
            ("ph", Value::String("X".into())),
            ("pid", Value::UInt(PID)),
            ("tid", Value::UInt(0)),
            ("ts", us(start_ns)),
            ("dur", us(dur_ns)),
            (
                "args",
                obj(vec![
                    ("seq", Value::UInt(r.seq)),
                    ("depth", Value::UInt(r.depth)),
                ]),
            ),
        ]));
    }

    // Journal events, already in seq order from `Journal::events`.
    for e in events {
        if matches!(
            e.kind,
            EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. }
        ) {
            continue;
        }
        let tid = tid_of(&e.lane);
        let mut args = vec![("seq".to_owned(), Value::UInt(e.seq))];
        args.extend(
            match e.kind.to_args() {
                Value::Object(fields) => fields,
                _ => Vec::new(),
            }
            .into_iter()
            .filter(|(k, _)| k != "latency_ns"),
        );
        let mut fields = vec![
            ("name", Value::String(e.kind.type_name().into())),
            ("cat", Value::String(category(&e.kind).into())),
        ];
        if let Some(latency_ns) = e.kind.latency_ns() {
            let start_ns = e.ts_ns().saturating_sub(latency_ns);
            fields.push(("ph", Value::String("X".into())));
            fields.push(("pid", Value::UInt(PID)));
            fields.push(("tid", Value::UInt(tid)));
            fields.push(("ts", us(start_ns)));
            fields.push(("dur", us(latency_ns)));
        } else {
            fields.push(("ph", Value::String("i".into())));
            fields.push(("s", Value::String("t".into())));
            fields.push(("pid", Value::UInt(PID)));
            fields.push(("tid", Value::UInt(tid)));
            fields.push(("ts", us(e.ts_ns())));
        }
        fields.push(("args", Value::Object(args)));
        trace_events.push(obj(fields));
    }

    let root = obj(vec![
        ("displayTimeUnit", Value::String("ms".into())),
        ("traceEvents", Value::Array(trace_events)),
        (
            "otherData",
            obj(vec![
                ("events_emitted", Value::UInt(ledger.events_emitted)),
                ("events_written", Value::UInt(ledger.events_written)),
                ("events_dropped", Value::UInt(ledger.events_dropped)),
            ]),
        ),
    ]);
    serde_json::to_string_pretty(&root).unwrap_or_default()
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
