//! Two paths that build a side of a comparison themselves: the online
//! comparator, which captures the live run in memory, and the store
//! fallback, which captures a stored object that carries no metadata.

use std::sync::Arc;

use reprocmp_core::{
    CheckpointHistory, CheckpointSource, CompareEngine, CoreError, EngineConfig, FailurePolicy,
    OnlineComparator, OnlinePolicy, OnlineVerdict,
};
use reprocmp_io::{FaultPlan, FaultyStorage, StdFsStorage};
use reprocmp_store::{ChunkStore, HEADER_SEGMENT};

fn engine(failure_policy: FailurePolicy) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 64,
        error_bound: 1e-5,
        failure_policy,
        ..EngineConfig::default()
    })
}

#[test]
fn an_unreadable_reference_chunk_fails_the_observation_under_every_policy() {
    for failure_policy in [FailurePolicy::Abort, FailurePolicy::Quarantine] {
        let e = engine(failure_policy);
        let values: Vec<f32> = (0..300).map(|k| k as f32 * 0.01).collect();
        let mut source = CheckpointSource::in_memory(&values, &e).unwrap();
        // Chunk 1 (bytes 64..128) sits on bad media for good.
        source.data = Arc::new(FaultyStorage::new(
            Arc::clone(&source.data),
            FaultPlan::Range {
                start: 64,
                end: 128,
            },
        ));
        let mut h = CheckpointHistory::new();
        h.insert(0, 10, source);
        let mut online = OnlineComparator::new(e, h, OnlinePolicy::Continue);
        let mut live = values.clone();
        live[20] += 1.0; // flags chunk 1
        assert!(
            matches!(online.observe(0, 10, &live), Err(CoreError::Io(_))),
            "{failure_policy:?}: a failed reference read is not a verdict"
        );
    }
}

#[test]
fn the_metaless_fallback_hashes_an_unaligned_payload_like_capture() {
    let root = std::env::temp_dir().join(format!(
        "reprocmp-core-metaless-fallback-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&root).ok();
    let store = ChunkStore::open(&root).unwrap();
    let e = engine(FailurePolicy::Abort);
    let values: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.3).cos()).collect();
    let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    let header = [9u8; 26]; // the payload starts 2 bytes past alignment
    store
        .ingest(
            "f",
            1,
            &[(HEADER_SEGMENT, &header), ("x", &payload)],
            64,
            &[],
        )
        .unwrap();
    let s = CheckpointSource::from_store(&store, "f", 1, &e).unwrap();
    assert_eq!(s.payload_offset, 26);
    let mem = CheckpointSource::in_memory(&values, &e).unwrap();
    let tree_bytes = |src: &CheckpointSource| {
        let meta = src.require_metadata("run").unwrap();
        let mut bytes = vec![0u8; meta.len() as usize];
        meta.read_at(0, &mut bytes).unwrap();
        bytes
    };
    assert_eq!(tree_bytes(&s), tree_bytes(&mem));
    assert_eq!(s.capture, mem.capture);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_file_backed_reference_is_verified_chunk_for_chunk() {
    // 3 MiB in 64 KiB runs, every 4 KiB chunk diverged, each by a
    // different count: the live side is in memory, the reference on a
    // file, and both must be read in the same slices.
    let e = CompareEngine::new(EngineConfig {
        chunk_bytes: 4096,
        error_bound: 1e-5,
        ..EngineConfig::default()
    });
    let n = 3 << 18;
    let values: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
    let live: Vec<f32> = (0..n)
        .map(|i| values[i] + f32::from(i % (1 + (i / 1024) % 7) == 0))
        .collect();
    let want = (0..n).filter(|&i| values[i] != live[i]).count() as u64;

    let path = std::env::temp_dir().join(format!(
        "reprocmp-core-online-file-reference-{}",
        std::process::id()
    ));
    let payload: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
    std::fs::write(&path, &payload).unwrap();
    let mut reference = CheckpointSource::in_memory(&values, &e).unwrap();
    reference.data = Arc::new(StdFsStorage::open(&path).unwrap());
    let mut h = CheckpointHistory::new();
    h.insert(0, 10, reference);
    let mut online = OnlineComparator::new(e, h, OnlinePolicy::Continue);
    match online.observe(0, 10, &live).unwrap() {
        OnlineVerdict::Diverged { diff_count, .. } => assert_eq!(diff_count, want),
        other => panic!("{other:?}"),
    }
    std::fs::remove_file(path).ok();
}
