//! Failure injection through the full comparison stack: device faults
//! during metadata reads and stage-two streaming must surface as
//! errors — never hangs, never silently-partial reports. With a retry
//! policy, transient faults heal invisibly; under the Quarantine
//! policy, permanent faults degrade to an exact partial report.

use reprocmp::core::{
    CheckpointSource, ChunkRange, CompareEngine, CoreError, Ctx, Direct, EngineConfig,
    FailurePolicy,
};
use reprocmp::io::{FaultPlan, FaultyStorage, RetryPolicy};
use std::sync::Arc;

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 256,
        error_bound: 1e-5,
        ..EngineConfig::default()
    })
}

fn wave(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32 * 0.01).sin()).collect()
}

/// A source whose payload storage injects faults per `plan`.
fn faulty_pair(
    e: &CompareEngine,
    n: usize,
    plan: FaultPlan,
) -> (CheckpointSource, CheckpointSource) {
    let data = wave(n);
    let mut data2 = data.clone();
    // Divergence so stage two actually reads payload data.
    for k in (0..n).step_by(97) {
        data2[k] += 1.0;
    }
    let a = CheckpointSource::in_memory(&data, e).unwrap();
    let mut b = CheckpointSource::in_memory(&data2, e).unwrap();
    b.data = Arc::new(FaultyStorage::new(Arc::clone(&b.data), plan));
    (a, b)
}

#[test]
fn stage_two_device_fault_surfaces_as_error() {
    let e = engine();
    let (a, b) = faulty_pair(&e, 10_000, FaultPlan::EveryNth { n: 7 });
    match e.compare(&a, &b, &Ctx::default()) {
        Err(CoreError::Io(_)) => {}
        other => panic!("expected Io error, got {other:?}"),
    }
}

#[test]
fn bad_sector_in_flagged_region_is_detected() {
    let e = engine();
    // Bad sector overlapping a chunk that will be re-read (value 0 is
    // perturbed, so chunk 0 at bytes 0..256 is flagged).
    let (a, b) = faulty_pair(&e, 10_000, FaultPlan::Range { start: 0, end: 64 });
    assert!(matches!(
        e.compare(&a, &b, &Ctx::default()),
        Err(CoreError::Io(_))
    ));
}

#[test]
fn bad_sector_in_pruned_region_is_never_touched() {
    let e = engine();
    let data = wave(10_000);
    let mut data2 = data.clone();
    data2[0] += 1.0; // only chunk 0 flagged
    let a = CheckpointSource::in_memory(&data, &e).unwrap();
    let mut b = CheckpointSource::in_memory(&data2, &e).unwrap();
    // Poison a region far from chunk 0 — pruning means it is never read.
    let faulty = Arc::new(FaultyStorage::new(
        Arc::clone(&b.data),
        FaultPlan::Range {
            start: 20_000,
            end: 30_000,
        },
    ));
    b.data = faulty.clone();
    let report = e.compare(&a, &b, &Ctx::default()).unwrap();
    assert_eq!(report.stats.diff_count, 1);
    assert_eq!(faulty.injected_faults(), 0, "pruned data must not be read");
}

#[test]
fn metadata_fault_surfaces_as_error() {
    let e = engine();
    let data = wave(5_000);
    let a = CheckpointSource::in_memory(&data, &e).unwrap();
    let mut b = CheckpointSource::in_memory(&data, &e).unwrap();
    b.metadata = Some(Arc::new(FaultyStorage::new(
        Arc::clone(b.metadata.as_ref().unwrap()),
        FaultPlan::EveryNth { n: 1 },
    )));
    assert!(matches!(
        e.compare(&a, &b, &Ctx::default()),
        Err(CoreError::Io(_))
    ));
}

#[test]
fn direct_baseline_also_fails_cleanly() {
    let e = engine();
    // Direct reads the whole payload as one large op, so fail it
    // outright rather than by byte budget.
    let (a, b) = faulty_pair(&e, 10_000, FaultPlan::EveryNth { n: 1 });
    let direct = Direct::new(1e-5).unwrap();
    assert!(matches!(
        direct.compare(&a, &b, &Ctx::default()),
        Err(CoreError::Io(_))
    ));
}

#[test]
fn engine_is_reusable_after_a_failed_comparison() {
    let e = engine();
    let (a, b) = faulty_pair(&e, 10_000, FaultPlan::EveryNth { n: 3 });
    assert!(e.compare(&a, &b, &Ctx::default()).is_err());

    // Same engine, healthy sources: works.
    let data = wave(10_000);
    let c = CheckpointSource::in_memory(&data, &e).unwrap();
    let d = CheckpointSource::in_memory(&data, &e).unwrap();
    assert!(e.compare(&c, &d, &Ctx::default()).unwrap().identical());
}

fn engine_with(f: impl FnOnce(&mut EngineConfig)) -> CompareEngine {
    let mut cfg = EngineConfig {
        chunk_bytes: 256,
        error_bound: 1e-5,
        ..EngineConfig::default()
    };
    f(&mut cfg);
    CompareEngine::new(cfg)
}

/// Acceptance (a): a transient outage fully healed by retries has zero
/// impact on the report — even under the default Abort policy.
#[test]
fn transient_faults_healed_by_retry_leave_no_trace_in_the_report() {
    let e = engine_with(|c| c.io.retry = RetryPolicy::with_attempts(8));
    let data = wave(10_000);
    let mut data2 = data.clone();
    for k in (0..10_000).step_by(97) {
        data2[k] += 1.0;
    }
    let a = CheckpointSource::in_memory(&data, &e).unwrap();
    let mut b = CheckpointSource::in_memory(&data2, &e).unwrap();
    let faulty = Arc::new(FaultyStorage::new(
        Arc::clone(&b.data),
        FaultPlan::FirstN { n: 5 },
    ));
    b.data = faulty.clone();
    let report = e.compare(&a, &b, &Ctx::default()).unwrap();

    // A fault-free twin of the same comparison.
    let plain = engine();
    let (pa, pb) = faulty_pair(&plain, 10_000, FaultPlan::None);
    let clean = plain.compare(&pa, &pb, &Ctx::default()).unwrap();

    assert!(report.fully_verified());
    assert_eq!(report.stats.diff_count, clean.stats.diff_count);
    assert_eq!(report.stats.chunks_flagged, clean.stats.chunks_flagged);
    assert_eq!(
        report.stats.false_positive_chunks,
        clean.stats.false_positive_chunks
    );
    let got: Vec<u64> = report.differences.iter().map(|d| d.index).collect();
    let want: Vec<u64> = clean.differences.iter().map(|d| d.index).collect();
    assert_eq!(got, want);

    // The outage really happened, and the ledger shows the healing.
    assert_eq!(faulty.injected_faults(), 5);
    assert!(report.io.retried >= 5, "{:?}", report.io);
    assert_eq!(report.io.gave_up, 0);
}

/// Acceptance (b): a permanent fault under Quarantine yields a partial
/// report whose unverified ranges exactly cover the faulted chunks —
/// everything else matches the fault-free run.
#[test]
fn quarantine_partial_report_covers_exactly_the_faulted_chunks() {
    // Values 0 and 97 (the first two perturbations) live in chunks 0
    // and 1 (64 f32 per 256-byte chunk); poison exactly those chunks.
    let e = engine_with(|c| c.failure_policy = FailurePolicy::Quarantine);
    let (a, b) = faulty_pair(&e, 10_000, FaultPlan::Range { start: 0, end: 512 });
    let report = e.compare(&a, &b, &Ctx::default()).unwrap();

    assert_eq!(report.unverified, vec![ChunkRange { first: 0, count: 2 }]);
    assert_eq!(report.unverified_chunks(), 2);
    assert_eq!(report.io.gave_up, 2, "{:?}", report.io);

    // Every difference outside the quarantined chunks is still found.
    let plain = engine();
    let (pa, pb) = faulty_pair(&plain, 10_000, FaultPlan::None);
    let clean = plain.compare(&pa, &pb, &Ctx::default()).unwrap();
    let got: Vec<u64> = report.differences.iter().map(|d| d.index).collect();
    let want: Vec<u64> = clean
        .differences
        .iter()
        .map(|d| d.index)
        .filter(|&i| i >= 128) // chunks 0..2 hold values 0..128
        .collect();
    assert_eq!(got, want);
    assert_eq!(report.stats.diff_count, want.len() as u64);
}

/// Quarantine still aborts on global failures: unreadable metadata is
/// not a per-chunk problem.
#[test]
fn quarantine_does_not_mask_metadata_failures() {
    let e = engine_with(|c| c.failure_policy = FailurePolicy::Quarantine);
    let data = wave(5_000);
    let a = CheckpointSource::in_memory(&data, &e).unwrap();
    let mut b = CheckpointSource::in_memory(&data, &e).unwrap();
    b.metadata = Some(Arc::new(FaultyStorage::new(
        Arc::clone(b.metadata.as_ref().unwrap()),
        FaultPlan::EveryNth { n: 1 },
    )));
    assert!(matches!(
        e.compare(&a, &b, &Ctx::default()),
        Err(CoreError::Io(_))
    ));
}

/// Acceptance (c): a client killed mid-flush recovers every local-only
/// checkpoint through `Client::recover` on restart.
#[test]
fn veloc_client_recovers_local_only_checkpoints_after_crash() {
    use reprocmp::veloc::client::{Client, VelocConfig};
    let base = std::env::temp_dir().join(format!("reprocmp-fault-veloc-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let config = VelocConfig::rooted_at(&base);
    {
        let client = Client::new(config.clone()).unwrap();
        let x: Vec<f32> = (0..256).map(|i| i as f32).collect();
        for v in [1u64, 2, 3] {
            client.checkpoint("sim", v, &[("x", &x)]).unwrap();
        }
        client.wait_all().unwrap();
    }
    // Crash simulation: v2/v3 never reached the PFS; v3's flush died
    // mid-copy leaving a torn temporary.
    let pfs = base.join("pfs");
    std::fs::remove_file(pfs.join("sim.v000002.ckpt")).unwrap();
    std::fs::remove_file(pfs.join("sim.v000003.ckpt")).unwrap();
    std::fs::write(pfs.join("sim.v000003.ckpt.tmp"), b"torn").unwrap();

    let client = Client::new(config).unwrap();
    let requeued = client.recover().unwrap();
    assert_eq!(requeued, vec![("sim".to_owned(), 2), ("sim".to_owned(), 3)]);
    client.wait_all().unwrap();
    for version in 1..=3 {
        assert!(
            client.persistent_path("sim", version).exists(),
            "v{version} durable"
        );
    }
    assert!(!pfs.join("sim.v000003.ckpt.tmp").exists());
    std::fs::remove_dir_all(&base).ok();
}

/// Satellite (d): one rank's storage faulted inside a cluster run —
/// the other ranks complete fully verified, and the faulted rank
/// quarantines instead of hanging or poisoning the collective result.
#[test]
fn cluster_fault_drill_quarantines_one_rank_without_stalling_the_rest() {
    use reprocmp::cluster::Cluster;
    let cluster = Cluster::new(1, 4);
    let reports = cluster.run(|ctx| {
        let e = engine_with(|c| c.failure_policy = FailurePolicy::Quarantine);
        let data = wave(10_000);
        let mut data2 = data.clone();
        for k in (0..10_000).step_by(97) {
            data2[k] += 1.0;
        }
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let mut b = CheckpointSource::in_memory(&data2, &e).unwrap();
        if ctx.rank() == 2 {
            b.data = Arc::new(FaultyStorage::new(
                Arc::clone(&b.data),
                FaultPlan::Range { start: 0, end: 512 },
            ));
        }
        e.compare(&a, &b, &Ctx::default()).unwrap()
    });
    assert_eq!(reports.len(), 4);
    for (rank, report) in reports.iter().enumerate() {
        if rank == 2 {
            assert!(!report.fully_verified(), "rank 2 must quarantine");
            assert_eq!(report.unverified, vec![ChunkRange { first: 0, count: 2 }]);
            assert!(
                report.stats.diff_count > 0,
                "diffs beyond the bad sector found"
            );
        } else {
            assert!(report.fully_verified(), "rank {rank} untouched");
            assert_eq!(report.unverified, vec![]);
        }
    }
    // All healthy ranks agree with each other.
    assert_eq!(reports[0].stats.diff_count, reports[1].stats.diff_count);
    assert!(reports[2].stats.diff_count < reports[0].stats.diff_count);
}
