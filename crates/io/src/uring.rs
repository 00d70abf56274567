//! An io_uring-style asynchronous I/O engine.
//!
//! Real io_uring exposes a submission queue (SQ) and completion queue
//! (CQ) shared with the kernel: the application pushes many submission
//! queue entries (SQEs), rings the doorbell once, and later harvests
//! completion queue entries (CQEs) — paying one system call for a whole
//! batch and keeping `queue_depth` operations in flight at the device.
//!
//! [`UringSim`] reproduces that interface and those two properties
//! (batched submission, deep device queues) on top of any [`Storage`]:
//! SQEs accumulate locally in [`UringSim::push`]; [`UringSim::submit`]
//! charges the whole batch at `Async { depth }` cost and hands it to a
//! worker pool; [`UringSim::wait`] harvests CQEs. The convenience method
//! [`UringSim::read_scattered`] is push-all + submit + wait-all,
//! returning buffers in submission order.

use crossbeam::channel::{unbounded, Receiver, Sender};
use reprocmp_obs::{EventKind, Journal};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cost::OpSpec;
use crate::retry::{RetryPolicy, RingCounters, RingStats};
use crate::storage::{AccessMode, Storage};
use crate::{IoError, IoResult};

/// A submission queue entry: one positioned read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    /// Caller-chosen tag returned on the matching completion.
    pub user_data: u64,
    /// Byte offset of the read.
    pub offset: u64,
    /// Length of the read in bytes.
    pub len: usize,
}

/// A completion queue entry: the result of one [`Sqe`].
#[derive(Debug)]
pub struct Cqe {
    /// The tag from the matching submission.
    pub user_data: u64,
    /// The bytes read, or the error.
    pub result: IoResult<Vec<u8>>,
}

/// The asynchronous ring engine.
#[derive(Debug)]
pub struct UringSim {
    storage: Arc<dyn Storage>,
    queue_depth: usize,
    pending: Vec<Sqe>,
    sq_tx: Option<Sender<Sqe>>,
    cq_rx: Receiver<Cqe>,
    workers: Vec<JoinHandle<()>>,
    in_flight: usize,
    counters: Arc<RingCounters>,
    journal: Journal,
    sq_lane: String,
}

impl UringSim {
    /// Creates a ring over `storage` with `io_threads` worker threads
    /// and the given device queue depth. Both are clamped to at least 1.
    #[must_use]
    pub fn new<S: Storage + 'static>(storage: S, io_threads: usize, queue_depth: usize) -> Self {
        Self::with_arc(Arc::new(storage), io_threads, queue_depth)
    }

    /// As [`UringSim::new`] but sharing an existing storage handle.
    #[must_use]
    pub fn with_arc(storage: Arc<dyn Storage>, io_threads: usize, queue_depth: usize) -> Self {
        Self::with_shared_counters(
            storage,
            io_threads,
            queue_depth,
            RetryPolicy::none(),
            Arc::new(RingCounters::default()),
        )
    }

    /// Full-control constructor: failed SQEs are re-submitted inside
    /// the worker according to `retry` (only transient errors, see
    /// [`IoError::class`](crate::IoError::class)) before a CQE reports
    /// the error, and all traffic is tallied into `counters` — which
    /// may be shared with other rings to aggregate statistics.
    #[must_use]
    pub fn with_shared_counters(
        storage: Arc<dyn Storage>,
        io_threads: usize,
        queue_depth: usize,
        retry: RetryPolicy,
        counters: Arc<RingCounters>,
    ) -> Self {
        Self::with_observability(
            storage,
            io_threads,
            queue_depth,
            retry,
            counters,
            Journal::disabled(),
            "uring",
        )
    }

    /// As [`UringSim::with_shared_counters`], additionally recording
    /// flight-recorder events: one `chunk_read` completion (with queue
    /// depth and per-op latency) on `{lane}.w{i}` per worker *i*, retry
    /// decisions on the same worker lane, and one `io_submit` doorbell
    /// event per batch on `{lane}.sq`. A disabled journal makes this
    /// identical to `with_shared_counters`.
    #[must_use]
    pub fn with_observability(
        storage: Arc<dyn Storage>,
        io_threads: usize,
        queue_depth: usize,
        retry: RetryPolicy,
        counters: Arc<RingCounters>,
        journal: Journal,
        lane: &str,
    ) -> Self {
        let io_threads = io_threads.max(1);
        let queue_depth = queue_depth.max(1);
        let (sq_tx, sq_rx) = unbounded::<Sqe>();
        let (cq_tx, cq_rx) = unbounded::<Cqe>();
        let mut workers = Vec::with_capacity(io_threads);
        for i in 0..io_threads {
            let sq_rx: Receiver<Sqe> = sq_rx.clone();
            let cq_tx: Sender<Cqe> = cq_tx.clone();
            let storage = Arc::clone(&storage);
            let counters = Arc::clone(&counters);
            let clock = storage.sim_clock();
            let journal = journal.clone();
            let worker_lane = format!("{lane}.w{i}");
            workers.push(std::thread::spawn(move || {
                while let Ok(sqe) = sq_rx.recv() {
                    let mut buf = vec![0u8; sqe.len];
                    let started = journal.is_enabled().then(|| {
                        (
                            clock.as_ref().map(crate::clock::SimClock::now),
                            std::time::Instant::now(),
                        )
                    });
                    let (result, retries) =
                        retry.run(clock.as_ref(), &journal, &worker_lane, || {
                            storage.read_at(sqe.offset, &mut buf)
                        });
                    counters.record_retries(u64::from(retries));
                    let result = match result {
                        Ok(()) => {
                            counters.record_completed();
                            if let Some((sim_start, wall_start)) = started {
                                let latency = match (clock.as_ref(), sim_start) {
                                    (Some(c), Some(s)) => c.now().saturating_sub(s),
                                    _ => wall_start.elapsed(),
                                };
                                journal.emit(
                                    &worker_lane,
                                    EventKind::ChunkRead {
                                        offset: sqe.offset,
                                        len: sqe.len as u64,
                                        queue_depth: queue_depth as u64,
                                        latency_ns: u64::try_from(latency.as_nanos())
                                            .unwrap_or(u64::MAX),
                                    },
                                );
                            }
                            Ok(std::mem::take(&mut buf))
                        }
                        Err(e) => {
                            counters.record_gave_up();
                            Err(e)
                        }
                    };
                    if cq_tx
                        .send(Cqe {
                            user_data: sqe.user_data,
                            result,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            }));
        }
        UringSim {
            storage,
            queue_depth,
            pending: Vec::new(),
            sq_tx: Some(sq_tx),
            cq_rx,
            workers,
            in_flight: 0,
            counters,
            journal,
            sq_lane: format!("{lane}.sq"),
        }
    }

    /// A snapshot of this ring's traffic counters.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.counters.snapshot()
    }

    /// The shared counter handle (clone to aggregate across rings).
    #[must_use]
    pub fn counters(&self) -> Arc<RingCounters> {
        Arc::clone(&self.counters)
    }

    /// The device queue depth this ring was created with.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Queues one SQE locally (no cost, no work yet — like writing an
    /// SQE slot without ringing the doorbell).
    pub fn push(&mut self, sqe: Sqe) {
        self.pending.push(sqe);
    }

    /// Rings the doorbell: charges the pending batch at asynchronous
    /// cost and hands it to the workers. Returns the number submitted.
    ///
    /// # Errors
    ///
    /// [`IoError::EngineShutDown`] if the worker pool is gone.
    pub fn submit(&mut self) -> IoResult<usize> {
        let batch = std::mem::take(&mut self.pending);
        if batch.is_empty() {
            return Ok(0);
        }
        let ops: Vec<OpSpec> = batch.iter().map(|s| (s.offset, s.len)).collect();
        self.storage.charge_batch(
            &ops,
            AccessMode::Async {
                depth: self.queue_depth,
            },
        );
        let tx = self.sq_tx.as_ref().ok_or(IoError::EngineShutDown)?;
        let n = batch.len();
        let total_len: u64 = batch.iter().map(|s| s.len as u64).sum();
        for sqe in batch {
            tx.send(sqe).map_err(|_| IoError::EngineShutDown)?;
        }
        self.counters.record_submitted(n as u64);
        self.journal.emit(
            &self.sq_lane,
            EventKind::IoSubmit {
                ops: n as u64,
                bytes: total_len,
                queue_depth: self.queue_depth as u64,
            },
        );
        self.in_flight += n;
        Ok(n)
    }

    /// Harvests one completion, blocking until available.
    ///
    /// # Errors
    ///
    /// [`IoError::EngineShutDown`] if nothing is in flight or the
    /// workers are gone.
    pub fn wait(&mut self) -> IoResult<Cqe> {
        if self.in_flight == 0 {
            return Err(IoError::EngineShutDown);
        }
        let cqe = self.cq_rx.recv().map_err(|_| IoError::EngineShutDown)?;
        self.in_flight -= 1;
        Ok(cqe)
    }

    /// Completions currently in flight (submitted, not yet harvested).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Reads every `(offset, len)` op, returning buffers in op order.
    ///
    /// This is the high-level path the comparison engine uses: one
    /// batched charge, all ops in flight, results reassembled in order.
    ///
    /// # Errors
    ///
    /// The first per-op error encountered, or
    /// [`IoError::EngineShutDown`].
    pub fn read_scattered(&mut self, ops: &[OpSpec]) -> IoResult<Vec<Vec<u8>>> {
        self.read_scattered_results(ops)?
            .into_iter()
            .collect::<IoResult<Vec<Vec<u8>>>>()
    }

    /// As [`UringSim::read_scattered`] but keeping per-op outcomes
    /// separate: the outer `Result` fails only on a global engine
    /// problem ([`IoError::EngineShutDown`]); each inner entry is that
    /// op's buffer or its error (after any in-worker retries), in op
    /// order. This is the path a quarantining caller uses — one bad
    /// sector must not discard its batch-mates.
    ///
    /// # Errors
    ///
    /// [`IoError::EngineShutDown`] if the worker pool is gone.
    pub fn read_scattered_results(&mut self, ops: &[OpSpec]) -> IoResult<Vec<IoResult<Vec<u8>>>> {
        for (i, &(offset, len)) in ops.iter().enumerate() {
            self.push(Sqe {
                user_data: i as u64,
                offset,
                len,
            });
        }
        self.submit()?;
        let mut out: Vec<Option<IoResult<Vec<u8>>>> = (0..ops.len()).map(|_| None).collect();
        for _ in 0..ops.len() {
            let cqe = self.wait()?;
            out[cqe.user_data as usize] = Some(cqe.result);
        }
        Ok(out
            .into_iter()
            .map(|b| b.expect("all ops completed"))
            .collect())
    }
}

impl Drop for UringSim {
    fn drop(&mut self) {
        // Close the SQ so workers exit, then join them.
        self.sq_tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::storage::MemStorage;
    use std::time::Duration;

    fn storage(n: usize) -> (MemStorage, Vec<u8>) {
        let data: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        (MemStorage::free(data.clone()), data)
    }

    #[test]
    fn scattered_reads_return_in_submission_order() {
        let (s, data) = storage(1 << 16);
        let mut ring = UringSim::new(s, 4, 16);
        let ops: Vec<OpSpec> = vec![(100, 10), (60_000, 20), (0, 5), (30_000, 15)];
        let bufs = ring.read_scattered(&ops).unwrap();
        for (buf, &(off, len)) in bufs.iter().zip(&ops) {
            assert_eq!(&buf[..], &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn raw_sq_cq_api_round_trips() {
        let (s, data) = storage(4096);
        let mut ring = UringSim::new(s, 2, 8);
        ring.push(Sqe {
            user_data: 99,
            offset: 1000,
            len: 24,
        });
        assert_eq!(ring.submit().unwrap(), 1);
        assert_eq!(ring.in_flight(), 1);
        let cqe = ring.wait().unwrap();
        assert_eq!(cqe.user_data, 99);
        assert_eq!(&cqe.result.unwrap()[..], &data[1000..1024]);
        assert_eq!(ring.in_flight(), 0);
    }

    #[test]
    fn wait_without_submission_errors() {
        let (s, _) = storage(16);
        let mut ring = UringSim::new(s, 1, 1);
        assert!(matches!(ring.wait(), Err(IoError::EngineShutDown)));
    }

    #[test]
    fn per_op_errors_are_reported() {
        let (s, _) = storage(128);
        let mut ring = UringSim::new(s, 2, 4);
        let err = ring.read_scattered(&[(120, 64)]).unwrap_err();
        assert!(matches!(err, IoError::OutOfBounds { .. }));
    }

    #[test]
    fn empty_submit_is_free_and_ok() {
        let (s, _) = storage(16);
        let mut ring = UringSim::new(s, 1, 4);
        assert_eq!(ring.submit().unwrap(), 0);
    }

    #[test]
    fn batch_is_charged_asynchronously() {
        let model = CostModel::lustre_pfs();
        let s = MemStorage::with_model(vec![0u8; 1 << 20], model);
        let clock = s.clock();
        let ops: Vec<OpSpec> = (0..64).map(|i| (i * 16_000, 4096)).collect();
        let expected = model.async_batch_time(&ops, 64);
        let mut ring = UringSim::new(s, 4, 64);
        ring.read_scattered(&ops).unwrap();
        assert_eq!(clock.now(), expected);
    }

    #[test]
    fn deeper_queues_cost_less_virtual_time() {
        let ops: Vec<OpSpec> = (0..128).map(|i| (i * 8000, 4096)).collect();
        let t = |depth: usize| {
            let s = MemStorage::with_model(vec![0u8; 1 << 20], CostModel::lustre_pfs());
            let clock = s.clock();
            let mut ring = UringSim::new(s, 4, depth);
            ring.read_scattered(&ops).unwrap();
            clock.now()
        };
        assert!(t(1) > t(64) * 4, "qd1 {:?} vs qd64 {:?}", t(1), t(64));
    }

    #[test]
    fn many_concurrent_large_batches() {
        let (s, data) = storage(1 << 20);
        let mut ring = UringSim::new(s, 8, 64);
        let ops: Vec<OpSpec> = (0..500).map(|i| ((i * 2048) as u64, 128)).collect();
        let bufs = ring.read_scattered(&ops).unwrap();
        assert_eq!(bufs.len(), 500);
        for (buf, &(off, len)) in bufs.iter().zip(&ops) {
            assert_eq!(&buf[..], &data[off as usize..off as usize + len]);
        }
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let (s, _) = storage(4096);
        let mut ring = UringSim::new(s, 3, 8);
        let _ = ring.read_scattered(&[(0, 64)]).unwrap();
        drop(ring); // must not hang or panic
    }

    #[test]
    fn zero_threads_clamped() {
        let (s, _) = storage(4096);
        let mut ring = UringSim::new(s, 0, 0);
        assert_eq!(ring.queue_depth(), 1);
        let bufs = ring.read_scattered(&[(0, 8)]).unwrap();
        assert_eq!(bufs[0].len(), 8);
    }

    #[test]
    fn transient_faults_heal_inside_the_worker() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (s, data) = storage(1 << 16);
        let faulty = Arc::new(FaultyStorage::new(Arc::new(s), FaultPlan::FirstN { n: 3 }));
        let mut ring = UringSim::with_shared_counters(
            faulty.clone(),
            2,
            8,
            RetryPolicy::with_attempts(8),
            Arc::new(RingCounters::default()),
        );
        let ops: Vec<OpSpec> = (0..10).map(|i| (i * 1000, 64)).collect();
        let bufs = ring.read_scattered(&ops).unwrap();
        for (buf, &(off, len)) in bufs.iter().zip(&ops) {
            assert_eq!(&buf[..], &data[off as usize..off as usize + len]);
        }
        assert_eq!(faulty.injected_faults(), 3, "first three reads faulted");
        let st = ring.stats();
        assert_eq!(st.submitted, 10);
        assert_eq!(st.completed, 10);
        assert!(
            st.retried >= 3,
            "at least the faulted reads retried: {st:?}"
        );
        assert_eq!(st.gave_up, 0);
    }

    #[test]
    fn exhausted_retries_report_and_count_gave_up() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (s, _) = storage(1 << 16);
        // Every read fails; 3 attempts are never enough.
        let faulty = Arc::new(FaultyStorage::new(
            Arc::new(s),
            FaultPlan::EveryNth { n: 1 },
        ));
        let mut ring = UringSim::with_shared_counters(
            faulty,
            2,
            8,
            RetryPolicy::with_attempts(3),
            Arc::new(RingCounters::default()),
        );
        let results = ring.read_scattered_results(&[(0, 64), (1000, 64)]).unwrap();
        assert!(results.iter().all(|r| r.is_err()));
        let st = ring.stats();
        assert_eq!(st.submitted, 2);
        assert_eq!(st.completed, 0);
        assert_eq!(st.retried, 4, "2 retries per op after the first attempt");
        assert_eq!(st.gave_up, 2);
    }

    #[test]
    fn permanent_faults_are_not_retried() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (s, _) = storage(1 << 16);
        let faulty = Arc::new(FaultyStorage::new(
            Arc::new(s),
            FaultPlan::Range { start: 0, end: 512 },
        ));
        let mut ring = UringSim::with_shared_counters(
            faulty.clone(),
            1,
            4,
            RetryPolicy::with_attempts(10),
            Arc::new(RingCounters::default()),
        );
        let results = ring.read_scattered_results(&[(0, 64)]).unwrap();
        assert!(results[0].is_err());
        assert_eq!(
            faulty.injected_faults(),
            1,
            "a bad sector is hit once, not ten times"
        );
        assert_eq!(ring.stats().retried, 0);
    }

    #[test]
    fn read_scattered_results_mixes_oks_and_errors() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (s, data) = storage(1 << 16);
        let faulty = Arc::new(FaultyStorage::new(
            Arc::new(s),
            FaultPlan::Range {
                start: 2000,
                end: 2100,
            },
        ));
        let mut ring = UringSim::with_arc(faulty, 2, 8);
        let ops: Vec<OpSpec> = vec![(0, 64), (2048, 64), (4096, 64)];
        let results = ring.read_scattered_results(&ops).unwrap();
        assert_eq!(&results[0].as_ref().unwrap()[..], &data[0..64]);
        assert!(results[1].is_err(), "op overlapping the bad sector fails");
        assert_eq!(&results[2].as_ref().unwrap()[..], &data[4096..4160]);
    }

    #[test]
    fn backoff_waits_charge_the_sim_clock_not_wall_time() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (s, _) = storage(1 << 16);
        let clock = s.clock();
        let faulty = Arc::new(FaultyStorage::new(Arc::new(s), FaultPlan::FirstN { n: 4 }));
        let retry = RetryPolicy::with_attempts(8);
        let mut ring =
            UringSim::with_shared_counters(faulty, 1, 4, retry, Arc::new(RingCounters::default()));
        let wall = std::time::Instant::now();
        ring.read_scattered(&[(0, 64)]).unwrap();
        assert!(
            wall.elapsed() < Duration::from_millis(200),
            "backoff must not sleep for real on simulated storage"
        );
        assert!(
            clock.now() >= retry.backoff(1),
            "waits accrue on the virtual clock: {:?}",
            clock.now()
        );
    }

    #[test]
    fn shared_clock_observes_ring_cost() {
        let s = MemStorage::with_model(vec![0u8; 8192], CostModel::node_local_nvme());
        let clock = s.clock();
        let mut ring = UringSim::new(s, 2, 8);
        ring.read_scattered(&[(0, 4096), (4096, 4096)]).unwrap();
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn journaling_ring_records_submits_and_chunk_reads() {
        let (s, _) = storage(1 << 16);
        let journal = Journal::new(reprocmp_obs::ObsClock::wall());
        let mut ring = UringSim::with_observability(
            Arc::new(s),
            2,
            8,
            RetryPolicy::none(),
            Arc::new(RingCounters::default()),
            journal.clone(),
            "io",
        );
        ring.read_scattered(&[(0, 512), (1024, 256), (4096, 128)])
            .unwrap();
        let events = journal.events();
        let submits: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::IoSubmit { .. }))
            .collect();
        assert_eq!(submits.len(), 1, "one doorbell per submit batch");
        assert_eq!(submits[0].lane, "io.sq");
        match submits[0].kind {
            EventKind::IoSubmit {
                ops,
                bytes,
                queue_depth,
            } => {
                assert_eq!(ops, 3);
                assert_eq!(bytes, 512 + 256 + 128);
                assert_eq!(queue_depth, 8);
            }
            _ => unreachable!(),
        }
        let reads: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ChunkRead { .. }))
            .collect();
        assert_eq!(reads.len(), 3, "one chunk_read per completed op");
        assert!(reads.iter().all(|e| e.lane.starts_with("io.w")));
        assert!(journal.ledger().balanced());
    }

    #[test]
    fn disabled_journal_ring_emits_nothing() {
        let (s, _) = storage(4096);
        let mut ring = UringSim::with_shared_counters(
            Arc::new(s),
            2,
            8,
            RetryPolicy::none(),
            Arc::new(RingCounters::default()),
        );
        ring.read_scattered(&[(0, 64)]).unwrap();
        assert_eq!(ring.stats().completed, 1);
    }
}
