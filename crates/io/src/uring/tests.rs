//! The `Uring` backend, checked through the pipeline: each slice is
//! charged as one asynchronous batch at the configured queue depth,
//! and its reads return, fail, retry and journal like every read.

use reprocmp_obs::{EventKind, Journal, ObsClock};
use std::sync::Arc;
use std::time::Duration;

use crate::cost::{CostModel, OpSpec};
use crate::fault::{FaultPlan, FaultyStorage};
use crate::pipeline::{read_all, BackendKind, PipelineConfig, PipelineMetrics, StreamPipeline};
use crate::retry::{RetryPolicy, RingStats};
use crate::storage::{MemStorage, Storage};
use crate::IoError;

/// `n` patterned bytes on a cost-free device, and the bytes.
fn storage(n: usize) -> (MemStorage, Vec<u8>) {
    let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
    (MemStorage::free(data.clone()), data)
}

/// `storage(n)` behind a fault plan.
fn faulty(n: usize, plan: FaultPlan) -> Arc<FaultyStorage> {
    Arc::new(FaultyStorage::new(Arc::new(storage(n).0), plan))
}

fn uring(queue_depth: usize) -> PipelineConfig {
    PipelineConfig {
        backend: BackendKind::Uring,
        queue_depth,
        ..PipelineConfig::default()
    }
}

/// The bytes of `ops` in op order.
fn expected(data: &[u8], ops: &[OpSpec]) -> Vec<u8> {
    ops.iter()
        .flat_map(|&(off, len)| data[off as usize..off as usize + len].to_vec())
        .collect()
}

/// Streams `ops` to the end: the bytes of the slices that arrived, and
/// the final counters.
fn stream(
    storage: Arc<dyn Storage>,
    ops: &[OpSpec],
    config: PipelineConfig,
) -> (Vec<u8>, RingStats) {
    let metrics = PipelineMetrics::default();
    let counters = Arc::clone(&metrics.counters);
    let pipeline = StreamPipeline::start_observed(storage, ops.to_vec(), config, metrics);
    let bytes = pipeline
        .filter_map(Result::ok)
        .flat_map(|s| s.data.clone())
        .collect();
    (bytes, counters.snapshot())
}

/// Modeled time of reading `ops` from 1 MiB on the simulated PFS.
fn modeled(ops: &[OpSpec], config: PipelineConfig) -> Duration {
    let mem = MemStorage::with_model(vec![0u8; 1 << 20], CostModel::lustre_pfs());
    read_all(Arc::new(mem.clone()), ops, config).unwrap();
    mem.elapsed()
}

#[test]
fn scattered_reads_return_in_submission_order() {
    let (s, data) = storage(1 << 16);
    let ops: Vec<OpSpec> = vec![(100, 10), (60_000, 20), (0, 5), (30_000, 15)];
    let got = read_all(Arc::new(s), &ops, uring(16)).unwrap();
    assert_eq!(got, expected(&data, &ops));
}

#[test]
fn per_op_errors_are_reported() {
    let err = read_all(Arc::new(storage(128).0), &[(120, 64)], uring(4)).unwrap_err();
    assert!(matches!(err, IoError::OutOfBounds { .. }));
}

#[test]
fn empty_submit_is_free_and_ok() {
    assert_eq!(modeled(&[], uring(4)), Duration::ZERO);
}

#[test]
fn batch_is_charged_asynchronously() {
    // Four slices of 16 ops: one batch each, at the queue depth.
    let ops: Vec<OpSpec> = (0..64).map(|i| (i * 16_000, 4096)).collect();
    let config = PipelineConfig {
        slice_bytes: 64 << 10,
        ..uring(16)
    };
    let model = CostModel::lustre_pfs();
    let want: Duration = ops.chunks(16).map(|s| model.async_batch_time(s, 16)).sum();
    assert_eq!(modeled(&ops, config), want);
}

#[test]
fn deeper_queues_cost_less_virtual_time() {
    let ops: Vec<OpSpec> = (0..128).map(|i| (i * 8000, 4096)).collect();
    let t = |depth| modeled(&ops, uring(depth));
    assert!(t(1) > t(64) * 4, "qd1 {:?} vs qd64 {:?}", t(1), t(64));
}

#[test]
fn many_concurrent_large_batches() {
    let (s, data) = storage(1 << 20);
    let ops: Vec<OpSpec> = (0..500).map(|i| ((i * 2048) as u64, 128)).collect();
    let got = read_all(Arc::new(s), &ops, uring(64)).unwrap();
    assert_eq!(got, expected(&data, &ops));
}

#[test]
fn drop_joins_workers_cleanly() {
    let ops: Vec<OpSpec> = (0..64).map(|i| (i * 64, 64)).collect();
    let config = PipelineConfig {
        slice_bytes: 64,
        buffers: 1,
        ..uring(8)
    };
    let mut pipeline = StreamPipeline::start(Arc::new(storage(4096).0), ops, config);
    pipeline.next().unwrap().unwrap();
    drop(pipeline); // must not hang or panic
}

#[test]
fn zero_threads_clamped() {
    // A zero queue depth reads, and is charged, as depth one.
    let ops: Vec<OpSpec> = (0..32).map(|i| (i * 8000, 8)).collect();
    assert_eq!(modeled(&ops, uring(0)), modeled(&ops, uring(1)));
}

#[test]
fn transient_faults_heal_inside_the_worker() {
    let data = storage(1 << 16).1;
    let faulty = faulty(1 << 16, FaultPlan::FirstN { n: 3 });
    let ops: Vec<OpSpec> = (0..10).map(|i| (i * 1000, 64)).collect();
    let config = PipelineConfig {
        retry: RetryPolicy::with_attempts(8),
        ..uring(8)
    };
    let (got, st) = stream(faulty.clone(), &ops, config);
    assert_eq!(got, expected(&data, &ops));
    assert_eq!(faulty.injected_faults(), 3, "first three reads faulted");
    // The first op meets all three faults and retries past them.
    assert_eq!(
        (st.submitted, st.completed, st.retried, st.gave_up),
        (10, 10, 3, 0)
    );
}

#[test]
fn exhausted_retries_report_and_count_gave_up() {
    // Every read fails; 3 attempts are never enough.
    let config = PipelineConfig {
        retry: RetryPolicy::with_attempts(3),
        continue_on_error: true,
        ..uring(8)
    };
    let faulty = faulty(1 << 16, FaultPlan::EveryNth { n: 1 });
    let (_, st) = stream(faulty, &[(0, 64), (1000, 64)], config);
    assert_eq!((st.submitted, st.completed), (2, 0));
    assert_eq!(st.retried, 4, "2 retries per op after the first attempt");
    assert_eq!(st.gave_up, 2);
}

#[test]
fn permanent_faults_are_not_retried() {
    let faulty = faulty(1 << 16, FaultPlan::Range { start: 0, end: 512 });
    let config = PipelineConfig {
        retry: RetryPolicy::with_attempts(10),
        ..uring(4)
    };
    let (_, st) = stream(faulty.clone(), &[(0, 64)], config);
    let hits = faulty.injected_faults();
    assert_eq!(hits, 1, "a bad sector is hit once, not ten times");
    assert_eq!((st.retried, st.gave_up), (0, 1));
}

#[test]
fn read_scattered_results_mixes_oks_and_errors() {
    let data = storage(1 << 16).1;
    let faulty = faulty(
        1 << 16,
        FaultPlan::Range {
            start: 2000,
            end: 2100,
        },
    );
    let config = PipelineConfig {
        continue_on_error: true,
        ..uring(8)
    };
    let ops: Vec<OpSpec> = vec![(0, 64), (2048, 64), (4096, 64)];
    let slice = StreamPipeline::start(faulty, ops, config)
        .next()
        .unwrap()
        .unwrap();
    let failed: Vec<usize> = slice.failed.iter().map(|f| f.op).collect();
    assert_eq!(failed, vec![1], "op overlapping the bad sector fails");
    let payloads: Vec<&[u8]> = slice.payloads().map(|(_, p)| p).collect();
    assert_eq!(payloads, [&data[0..64], &[0u8; 64][..], &data[4096..4160]]);
}

#[test]
fn backoff_waits_charge_the_sim_clock_not_wall_time() {
    let (s, _) = storage(1 << 16);
    let clock = s.clock();
    let faulty = Arc::new(FaultyStorage::new(Arc::new(s), FaultPlan::FirstN { n: 4 }));
    let retry = RetryPolicy::with_attempts(8);
    let wall = std::time::Instant::now();
    read_all(faulty, &[(0, 64)], PipelineConfig { retry, ..uring(4) }).unwrap();
    assert!(
        wall.elapsed() < Duration::from_millis(200),
        "backoff must not sleep for real on simulated storage"
    );
    let waits: Duration = (1..=4).map(|i| retry.backoff(i)).sum();
    assert_eq!(clock.now(), waits, "waits accrue on the virtual clock");
}

#[test]
fn shared_clock_observes_ring_cost() {
    // Two files on one simulated device: their batches add up.
    let model = CostModel::lustre_pfs();
    let a = MemStorage::with_model(vec![0u8; 8192], model);
    let b = MemStorage::with_clock(vec![0u8; 8192], model, a.clock());
    let ops: Vec<OpSpec> = vec![(0, 4096), (4096, 4096)];
    for s in [a.clone(), b] {
        read_all(Arc::new(s), &ops, uring(8)).unwrap();
    }
    assert_eq!(a.elapsed(), model.async_batch_time(&ops, 8) * 2);
}

#[test]
fn journaling_ring_records_submits_and_chunk_reads() {
    let journal = Journal::new(ObsClock::wall());
    let metrics = PipelineMetrics::default().with_journal(journal.clone(), "io");
    let ops: Vec<OpSpec> = vec![(0, 512), (1024, 256), (4096, 128)];
    let s = Arc::new(storage(1 << 16).0);
    StreamPipeline::start_observed(s, ops, uring(8), metrics).for_each(drop);
    let (mut submits, mut reads) = (Vec::new(), 0);
    for e in journal.events() {
        assert_eq!(e.lane, "io.pipeline");
        match e.kind {
            EventKind::IoSubmit {
                ops,
                bytes,
                queue_depth,
            } => submits.push((ops, bytes, queue_depth)),
            EventKind::ChunkRead { queue_depth, .. } => reads += usize::from(queue_depth == 8),
            _ => {}
        }
    }
    assert_eq!(submits, vec![(3, 512 + 256 + 128, 8)], "one per slice");
    assert_eq!(reads, 3, "one chunk_read per completed op, at the depth");
    let ledger = journal.ledger();
    assert_eq!(
        ledger.events_emitted,
        ledger.events_written + ledger.events_dropped
    );
}

#[test]
fn disabled_journal_ring_emits_nothing() {
    let journal = Journal::disabled();
    let metrics = PipelineMetrics::default().with_journal(journal.clone(), "io");
    let counters = Arc::clone(&metrics.counters);
    let s = Arc::new(storage(4096).0);
    StreamPipeline::start_observed(s, vec![(0, 64)], uring(8), metrics).for_each(drop);
    assert_eq!(counters.snapshot().completed, 1);
    assert!(journal.events().is_empty());
}
