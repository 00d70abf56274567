//! Property tests of the I/O substrate: cost-model monotonicity,
//! data-integrity of the engines under arbitrary access patterns, and
//! retry-policy deadline edges.

use proptest::prelude::*;
use reprocmp_io::cost::{CostModel, OpSpec};
use reprocmp_io::pipeline::read_all;
use reprocmp_io::{
    BackendKind, IoError, IoResult, MemStorage, MmapSim, PipelineConfig, RetryPolicy, SimClock,
    Storage,
};
use reprocmp_obs::Journal;
use std::sync::Arc;
use std::time::Duration;

fn transient() -> IoError {
    IoError::Os(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        "hiccup",
    ))
}

/// The bytes of `ops` in op order.
fn expected(data: &[u8], ops: &[OpSpec]) -> Vec<u8> {
    ops.iter()
        .flat_map(|&(off, len)| data[off as usize..off as usize + len].to_vec())
        .collect()
}

/// Reads `ops` from `data` on the simulated PFS through the pipeline.
fn read_charged(data: &[u8], ops: &[OpSpec], config: PipelineConfig) -> Vec<u8> {
    let storage = MemStorage::with_model(data.to_vec(), CostModel::lustre_pfs());
    read_all(Arc::new(storage), ops, config).unwrap()
}

fn arbitrary_ops(file_len: usize) -> impl Strategy<Value = Vec<OpSpec>> {
    proptest::collection::vec((0usize..file_len.saturating_sub(1), 1usize..4096), 1..40).prop_map(
        move |raw| {
            raw.into_iter()
                .map(|(off, len)| {
                    let len = len.min(file_len - off);
                    (off as u64, len.max(1))
                })
                .collect()
        },
    )
}

proptest! {
    /// Async batches never cost more than synchronous ones.
    #[test]
    fn async_never_slower_than_sync(ops in arbitrary_ops(1 << 20), depth in 1usize..256) {
        let m = CostModel::lustre_pfs();
        prop_assert!(m.async_batch_time(&ops, depth) <= m.sync_batch_time(&ops));
    }

    /// Deeper queues never increase async cost.
    #[test]
    fn deeper_queues_monotone(ops in arbitrary_ops(1 << 20), d1 in 1usize..64, d2 in 1usize..64) {
        let m = CostModel::lustre_pfs();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.async_batch_time(&ops, hi) <= m.async_batch_time(&ops, lo));
    }

    /// Splitting one contiguous read into more requests never gets
    /// cheaper (the per-request RPC term).
    #[test]
    fn more_requests_never_cheaper(bytes in 1u64 << 16..1 << 26, n1 in 1usize..64, n2 in 1usize..64) {
        let m = CostModel::lustre_pfs();
        let (few, many) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let time = |n: u64| {
            // `n` equal requests, the last carrying the remainder.
            let len = (bytes / n).max(1);
            let ops: Vec<OpSpec> = (0..n)
                .map(|i| (i * len, if i + 1 == n { bytes - i * len } else { len } as usize))
                .collect();
            m.async_batch_time(&ops, m.queue_depth)
        };
        prop_assert!(time(few as u64) <= time(many as u64) + Duration::from_nanos(1));
    }

    /// Seek counting, read through a model where a seek costs one
    /// nanosecond and nothing else costs anything: a non-empty batch
    /// pays at least one seek and at most one per op.
    #[test]
    fn seek_count_is_sane(ops in arbitrary_ops(1 << 18)) {
        let m = CostModel {
            submit_latency: Duration::ZERO,
            seek_latency: Duration::from_nanos(1),
            rpc_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
            queue_depth: 1,
        };
        let seeks = m.sync_batch_time(&ops).as_nanos() as usize;
        prop_assert!(seeks >= 1);
        prop_assert!(seeks <= ops.len());
    }

    /// The uring backend returns exactly the bytes the storage holds,
    /// for any op layout, queue depth and slice size.
    #[test]
    fn uring_round_trips_arbitrary_patterns(
        ops in arbitrary_ops(1 << 16),
        depth in 1usize..64,
        slice_bytes in 1usize..16_384,
    ) {
        let data: Vec<u8> = (0..1 << 16).map(|i| (i % 251) as u8).collect();
        let config = PipelineConfig {
            backend: BackendKind::Uring,
            queue_depth: depth,
            slice_bytes,
            ..PipelineConfig::default()
        };
        prop_assert_eq!(read_charged(&data, &ops, config), expected(&data, &ops));
    }

    /// The mmap backend returns exactly the bytes the storage holds for
    /// any pattern, and touching resident pages again is free.
    #[test]
    fn mmap_round_trips_arbitrary_patterns(ops in arbitrary_ops(1 << 16)) {
        let data: Vec<u8> = (0..1 << 16).map(|i| (i % 249) as u8).collect();
        let config = PipelineConfig {
            backend: BackendKind::Mmap,
            ..PipelineConfig::default()
        };
        prop_assert_eq!(read_charged(&data, &ops, config), expected(&data, &ops));

        let mem = MemStorage::with_model(vec![0u8; 1 << 16], CostModel::lustre_pfs());
        let map = MmapSim::new(Arc::new(mem.clone()));
        let fault_all = || ops.iter().for_each(|&(off, len)| map.fault(off, len));
        fault_all();
        let total = mem.elapsed();
        fault_all();
        prop_assert_eq!(mem.elapsed(), total);
    }

    /// Charged storage: total elapsed only ever grows, however reads
    /// interleave.
    #[test]
    fn virtual_time_is_monotone(ops in arbitrary_ops(1 << 16), sync_mask in any::<u64>()) {
        use reprocmp_io::storage::AccessMode;
        let s = MemStorage::with_model(vec![0u8; 1 << 16], CostModel::lustre_pfs());
        let mut last = Duration::ZERO;
        for (i, op) in ops.iter().enumerate() {
            let mode = if sync_mask >> (i % 64) & 1 == 1 {
                AccessMode::Sync
            } else {
                AccessMode::Async { depth: 16 }
            };
            s.charge_batch(std::slice::from_ref(op), mode);
            let now = s.elapsed();
            prop_assert!(now >= last);
            last = now;
        }
    }

    /// An always-failing op under an arbitrary deadline never panics,
    /// never reports spurious success, never charges backoff past the
    /// deadline, and stops early only when the *next* wait would cross
    /// it.
    #[test]
    fn retry_deadline_edges_are_exact(
        attempts in 1u32..8,
        base_us in 0u64..2_000,
        max_us in 1u64..5_000,
        seed in any::<u64>(),
        deadline_us in 0u64..10_000,
    ) {
        let clock = SimClock::new();
        let deadline = Duration::from_micros(deadline_us);
        let p = RetryPolicy {
            max_attempts: attempts,
            base_backoff: Duration::from_micros(base_us),
            max_backoff: Duration::from_micros(max_us),
            jitter_seed: seed,
            deadline: Some(deadline),
        };
        let mut calls = 0u32;
        let (result, retries): (IoResult<()>, u32) = p.run(Some(&clock), &Journal::disabled(), "io", || {
            calls += 1;
            Err(transient())
        });
        prop_assert!(result.is_err(), "an op that never succeeds must give up");
        prop_assert_eq!(calls, retries + 1);
        prop_assert!(retries < attempts, "attempt budget overrun");
        prop_assert!(
            clock.now() <= deadline,
            "charged {:?} of backoff past the {:?} deadline",
            clock.now(),
            deadline
        );
        if retries < attempts - 1 {
            // The budget had room, so the deadline was the binding
            // constraint: the refused wait would have crossed it.
            prop_assert!(clock.now() + p.backoff(retries + 1) > deadline);
        }
    }

    /// A deadline expiring *exactly* on a retry boundary: the wait
    /// that lands precisely on the deadline is still permitted; the
    /// one after it is refused and the operation gives up (with the
    /// matching `gave_up` flight-recorder event) — never a panic,
    /// never a spurious success.
    #[test]
    fn deadline_exactly_on_the_boundary_allows_that_retry_only(
        base_us in 1u64..1_000,
        seed in any::<u64>(),
    ) {
        use reprocmp_obs::{EventKind, Journal, ObsClock};
        let clock = SimClock::new();
        let mut p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_micros(base_us),
            max_backoff: Duration::from_secs(1),
            jitter_seed: seed,
            deadline: None,
        };
        let first_wait = p.backoff(1);
        prop_assert!(!first_wait.is_zero());
        p.deadline = Some(first_wait);
        let journal = Journal::new(ObsClock::frozen());
        let mut calls = 0u32;
        let (result, retries): (IoResult<()>, u32) =
            p.run(Some(&clock), &journal, "io", || {
                calls += 1;
                Err(transient())
            });
        prop_assert!(result.is_err());
        // The boundary retry is permitted, the next is not, and
        // exactly the deadline was consumed.
        prop_assert_eq!(retries, 1);
        prop_assert_eq!(calls, 2);
        prop_assert_eq!(clock.now(), first_wait);
        let gave_up = matches!(
            journal.events().last().map(|e| e.kind.clone()),
            Some(EventKind::GaveUp { attempts: 2 })
        );
        prop_assert!(gave_up, "budget exhaustion must emit a gave_up event");
    }

    /// A generous deadline never masks a success that fits inside the
    /// attempt budget.
    #[test]
    fn deadline_never_masks_an_in_budget_success(
        succeed_on in 1u32..6,
        seed in any::<u64>(),
    ) {
        let clock = SimClock::new();
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            jitter_seed: seed,
            deadline: Some(Duration::from_secs(1)),
        };
        let mut calls = 0u32;
        let (result, retries) = p.run(Some(&clock), &Journal::disabled(), "io", || {
            calls += 1;
            if calls < succeed_on {
                Err(transient())
            } else {
                Ok(calls)
            }
        });
        prop_assert_eq!(result.unwrap(), succeed_on);
        prop_assert_eq!(retries, succeed_on - 1);
    }

    /// Zero-attempt budgets are a config-time error, not a run-time
    /// clamp: `try_with_attempts` rejects exactly `0`.
    #[test]
    fn zero_attempt_budgets_rejected_at_config_time(n in 0u32..16) {
        match RetryPolicy::try_with_attempts(n) {
            Ok(p) => {
                prop_assert!(n >= 1);
                prop_assert_eq!(p.max_attempts, n);
            }
            Err(msg) => {
                prop_assert_eq!(n, 0);
                prop_assert!(msg.contains("at least 1"));
            }
        }
    }
}
