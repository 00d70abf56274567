//! The Chrome trace export, pinned byte for byte: a fixed journal with
//! every `EventKind` variant, nested spans, the `main` lane beside
//! named lanes, interval and instant events, and a ledger with drops
//! must render exactly `chrome_trace.json`. The file is never
//! regenerated; a diff is a change to a format that Perfetto reads.

use reprocmp_obs::{chrome_trace, Event, EventKind, JournalLedger, SpanRecord};
use std::time::Duration;

fn span(name: &str, parent: Option<u64>, depth: u64, seq: u64, start: u64, end: u64) -> SpanRecord {
    SpanRecord {
        name: name.to_owned(),
        parent,
        depth,
        seq,
        start: Duration::from_nanos(start),
        end: Duration::from_nanos(end),
    }
}

fn kinds() -> Vec<(&'static str, EventKind)> {
    let name = |s: &str| s.to_owned();
    vec![
        (
            "main",
            EventKind::SpanBegin {
                name: name("compare"),
            },
        ),
        (
            "main",
            EventKind::CounterAdd {
                name: name("chunks.flagged"),
                delta: 3,
            },
        ),
        (
            "run_a.pipeline",
            EventKind::IoSubmit {
                ops: 4,
                bytes: 16_384,
                queue_depth: 64,
            },
        ),
        (
            "run_a.pipeline",
            EventKind::ChunkRead {
                offset: 8_192,
                len: 4_096,
                queue_depth: 64,
                latency_ns: 1_500,
            },
        ),
        (
            "run_b.pipeline",
            EventKind::SliceFill {
                first_op: 0,
                ops: 4,
                bytes: 16_384,
                latency_ns: 2_000,
            },
        ),
        (
            "run_b.pipeline",
            EventKind::Retry {
                attempt: 1,
                backoff_ns: 250,
            },
        ),
        ("run_b.pipeline", EventKind::GaveUp { attempts: 3 }),
        (
            "run_b.pipeline",
            EventKind::Quarantine {
                first_chunk: 7,
                chunks: 2,
            },
        ),
        (
            "main",
            EventKind::CacheHit {
                what: name("subtree"),
            },
        ),
        (
            "main",
            EventKind::CacheMiss {
                what: name("verdict"),
            },
        ),
        (
            "store",
            EventKind::StoreRead {
                bytes: 4_096,
                deduped: true,
            },
        ),
        (
            "verify",
            EventKind::Kernel {
                name: name("verify \"f32\""),
                bytes: 16_384,
                latency_ns: 3_333,
            },
        ),
        (
            "veloc",
            EventKind::Flush {
                name: name("run.rank0.v000040.ckpt"),
                bytes: 65_536,
                ok: false,
            },
        ),
        ("store", EventKind::Repair { pack: 2, chunks: 1 }),
        ("store", EventKind::PackQuarantine { pack: 5, chunks: 4 }),
        (
            "store",
            EventKind::DeltaCapture {
                version: 3,
                parent: 2,
                depth: 1,
                bytes_written: 8_192,
                bytes_skipped: 57_344,
            },
        ),
        (
            "main",
            EventKind::Divergence {
                rank: 0,
                iteration: 12,
                total_diffs: 17,
                threshold: 16,
            },
        ),
        (
            "main",
            EventKind::SpanEnd {
                name: name("compare"),
            },
        ),
    ]
}

#[test]
fn chrome_trace_text_is_pinned() {
    let spans = [
        span("compare", None, 0, 0, 0, 12_345),
        span("stage1.bfs", Some(0), 1, 1, 1_000, 4_000),
        span("stage2", Some(0), 1, 2, 4_000, 12_000),
        // Same start as its sibling: (start, seq) decides the order.
        span("stage2.verify", Some(2), 2, 3, 4_000, 11_001),
    ];
    let events: Vec<Event> = kinds()
        .into_iter()
        .enumerate()
        .map(|(i, (lane, kind))| Event {
            seq: 2 + i as u64,
            ts_ns: 5_000 + 1_250 * i as u64,
            lane: lane.to_owned(),
            kind,
        })
        .collect();
    let ledger = JournalLedger {
        events_emitted: 22,
        events_written: 18,
        events_dropped: 4,
    };
    let text = chrome_trace(&spans, &events, &ledger);
    assert_eq!(text, include_str!("chrome_trace.json"));
}
