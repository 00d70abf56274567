//! Every document the workspace prints renders to the same text
//! whether it is written straight from its `Serialize` impl or first
//! lowered to a `serde::Value` tree and the tree is written: compact
//! and pretty, for a compare report at the recorded-difference cap, a
//! batch report, ingest stats, a journal event with its flattened kind
//! and the daemon's tagged requests and responses.

use reprocmp::core::ops::ObjectRef;
use reprocmp::core::{BatchConfig, CheckpointSource, CompareEngine, Ctx, EngineConfig, MetaCache};
use reprocmp::obs::{Event, EventKind};
use reprocmp::server::{JobState, Request, Response, PROTOCOL_VERSION};
use reprocmp::store::IngestStats;
use serde::Serialize;

/// `x` renders to the same compact and pretty text as its tree does.
fn streams_like_its_tree<T: Serialize>(what: &str, x: &T) {
    let tree = x.to_value();
    assert_eq!(
        serde_json::to_string(x).unwrap(),
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact"
    );
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty"
    );
}

/// A cosine ramp with every `stride`-th value moved well past the bound.
fn payload(n: usize, stride: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let v = (i as f32 * 1e-3).cos();
            if stride > 0 && i % stride == 7 {
                v + 0.5
            } else {
                v
            }
        })
        .collect()
}

#[test]
fn printed_types_stream_byte_for_byte_like_their_trees() {
    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 4096,
        error_bound: 1e-5,
        ..EngineConfig::default()
    });
    let ctx = Ctx::default();
    let base = CheckpointSource::in_memory(&payload(1 << 16, 0), &engine).unwrap();
    let runs: Vec<CheckpointSource> = [50, 3000]
        .iter()
        .map(|&stride| CheckpointSource::in_memory(&payload(1 << 16, stride), &engine).unwrap())
        .collect();

    let report = engine.compare(&base, &runs[0], &ctx).unwrap();
    assert_eq!(
        report.differences.len(),
        1024,
        "the recorded-difference cap"
    );
    assert!(report.differences_truncated);
    streams_like_its_tree("CompareReport", &report);

    let batch = engine
        .compare_many(
            &base,
            &runs,
            &BatchConfig::default(),
            &mut MetaCache::new(),
            &ctx,
        )
        .unwrap();
    assert_eq!(batch.jobs.len(), 2);
    streams_like_its_tree("BatchReport", &batch);

    for parent in [None, Some(3)] {
        let stats = IngestStats {
            chunk_refs: 9,
            chunks_stored: 4,
            bytes_logical: 36_864,
            pack: parent.map(|_| 7),
            parent,
            depth: u64::from(parent.is_some()),
            ..IngestStats::default()
        };
        streams_like_its_tree("IngestStats", &stats);
    }

    let kinds = [
        EventKind::ChunkRead {
            offset: 4096,
            len: 512,
            queue_depth: 64,
            latency_ns: 100,
        },
        EventKind::SpanBegin {
            name: "compare \"quoted\"".into(),
        },
    ];
    for kind in kinds {
        let event = Event {
            seq: 3,
            ts_ns: 250,
            lane: "io.w0".into(),
            kind,
        };
        streams_like_its_tree("journal Event", &event);
    }

    let object = |version| ObjectRef {
        name: "run".into(),
        version,
    };
    let requests = [
        Request::Hello {
            client: "c1".into(),
            protocol: PROTOCOL_VERSION,
            raw_sections: true,
        },
        Request::Hello {
            client: "c2".into(),
            protocol: PROTOCOL_VERSION,
            raw_sections: false,
        },
        Request::CompareMany {
            baseline: object(1),
            runs: vec![object(2), object(3)],
        },
        Request::Metrics,
    ];
    for request in &requests {
        streams_like_its_tree("Request", request);
    }

    let responses = [
        Response::Status {
            job: 4,
            state: JobState::Done,
            result: Some(report.to_value()),
            error: None,
        },
        Response::Status {
            job: 5,
            state: JobState::Failed,
            result: None,
            error: Some("no such object `run@9`".into()),
        },
        Response::Done {
            job: 4,
            state: JobState::Done,
            events_emitted: 10,
            events_written: 8,
            events_dropped: 2,
        },
    ];
    for response in &responses {
        streams_like_its_tree("Response", response);
    }
}
