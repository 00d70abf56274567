//! Future-work features over real files: a reference history captured
//! with the VELOC client on disk, consumed by the online comparator
//! and the history API through `StdFsStorage` sources.

use reprocmp::core::{
    CheckpointHistory, CheckpointSource, CompareEngine, Ctx, EngineConfig, HistoryReport,
    OnlineComparator, OnlinePolicy, OnlineVerdict,
};
use reprocmp::veloc::{decode_checkpoint, Client, VelocConfig};
use std::collections::BTreeMap;
use std::path::Path;

/// Differences summed per iteration, ascending: the divergence
/// growth curve.
fn diffs_by_iteration(report: &HistoryReport) -> BTreeMap<u64, u64> {
    let mut curve = BTreeMap::new();
    for e in &report.entries {
        *curve.entry(e.iteration).or_insert(0) += e.report.stats.diff_count;
    }
    curve
}

const ITERS: [u64; 3] = [10, 20, 30];

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 256,
        error_bound: 1e-6,
        ..EngineConfig::default()
    })
}

fn payload(iter: u64, perturb: Option<(usize, f32)>) -> Vec<f32> {
    let mut v: Vec<f32> = (0..4_000)
        .map(|k| ((k as f32) * 0.002 + iter as f32 * 0.1).sin())
        .collect();
    if let Some((idx, delta)) = perturb {
        v[idx] += delta;
    }
    v
}

/// Captures the reference run to disk and returns a history whose
/// sources read the *files* (payload via `StdFsStorage`, metadata from
/// sidecar tree files).
fn capture_reference(base: &Path, e: &CompareEngine) -> CheckpointHistory {
    let client = Client::new(VelocConfig::rooted_at(base)).unwrap();
    let mut history = CheckpointHistory::new();
    for &iter in &ITERS {
        let values = payload(iter, None);
        client
            .checkpoint("ref.rank0", iter, &[("obs", &values)])
            .unwrap();
        client.wait("ref.rank0", iter).unwrap();

        let ckpt_path = client.persistent_path("ref.rank0", iter);
        let bytes = std::fs::read(&ckpt_path).unwrap();
        let file = decode_checkpoint(&bytes).unwrap();

        // Sidecar metadata, as the capture side would write it.
        let tree_path = base.join(format!("ref.rank0.v{iter:06}.tree"));
        std::fs::write(&tree_path, e.encode_metadata(&values)).unwrap();

        let source = CheckpointSource::from_files(
            &ckpt_path,
            file.payload_offset,
            file.payload_len,
            &tree_path,
        )
        .unwrap();
        history.insert(0, iter, source);
    }
    history
}

#[test]
fn online_comparator_over_on_disk_reference() {
    let base = std::env::temp_dir().join(format!("reprocmp-onlinefiles-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let e = engine();
    let reference = capture_reference(&base, &e);

    let mut online = OnlineComparator::new(e.clone(), reference, OnlinePolicy::Continue);

    // Iteration 10 reproduces; 20 drifts within bound; 30 diverges.
    match online.observe(0, 10, &payload(10, None)).unwrap() {
        OnlineVerdict::Clean { bytes_read } => assert_eq!(bytes_read, 0),
        other => panic!("{other:?}"),
    }
    match online
        .observe(0, 20, &payload(20, Some((123, 5e-7))))
        .unwrap()
    {
        OnlineVerdict::Clean { .. } => {}
        other => panic!("{other:?}"),
    }
    match online
        .observe(0, 30, &payload(30, Some((2_222, 0.5))))
        .unwrap()
    {
        OnlineVerdict::Diverged {
            diff_count,
            differences,
        } => {
            assert_eq!(diff_count, 1);
            assert_eq!(differences[0].index, 2_222);
        }
        other => panic!("{other:?}"),
    }
    assert_eq!(online.first_divergence(), Some((30, 0)));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn history_api_over_on_disk_histories() {
    let base = std::env::temp_dir().join(format!("reprocmp-histfiles-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let e = engine();
    let run1 = capture_reference(&base.join("run1"), &e);

    // Run 2 in memory (mixed storage kinds are fine): diverges from
    // iteration 20 on.
    let mut run2 = CheckpointHistory::new();
    for &iter in &ITERS {
        let perturb = if iter >= 20 {
            Some((7usize, 1e-3f32))
        } else {
            None
        };
        let values = payload(iter, perturb);
        run2.insert(0, iter, CheckpointSource::in_memory(&values, &e).unwrap());
    }

    let report = e.compare_history(&run1, &run2, &Ctx::default()).unwrap();
    assert_eq!(report.first_divergence(), Some((20, 0)));
    let curve = diffs_by_iteration(&report);
    assert_eq!(curve[&10], 0);
    assert_eq!(curve[&20], 1);
    assert_eq!(curve[&30], 1);
    std::fs::remove_dir_all(&base).ok();
}
