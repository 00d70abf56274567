//! Double-buffered streaming from storage to the compute device.
//!
//! The paper's Figure 3: a team of I/O threads reads chunk data from the
//! PFS into a pre-allocated buffer; once a buffer (a *slice*) is full it
//! is handed to the main thread, which launches the comparison kernel
//! while the I/O threads refill the next buffer. Working in slices also
//! bounds memory — the full checkpoint pair never has to fit.
//!
//! [`StreamPipeline`] implements that: a reader thread groups the
//! requested ops into slices of roughly [`PipelineConfig::slice_bytes`],
//! reads each slice through the configured backend, and sends it down a
//! bounded channel whose capacity plays the role of the buffer pool —
//! the reader blocks ("waits for a free buffer") when the consumer falls
//! behind.

use crossbeam::channel::{bounded, Receiver};
use reprocmp_obs::{EventKind, Histogram, Journal, Registry};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::clock::SimClock;
use crate::cost::OpSpec;
use crate::mmap::MmapSim;
use crate::retry::{RetryPolicy, RingCounters, RingStats};
use crate::storage::{AccessMode, Storage};
use crate::uring::UringSim;
use crate::{IoError, IoResult};

/// A `chunk_read` completion event for one synchronous per-op read,
/// with latency taken on the virtual clock when the storage is
/// simulated and on the wall clock otherwise.
fn chunk_read_event(
    offset: u64,
    len: usize,
    queue_depth: u64,
    clock: &Option<SimClock>,
    (sim_start, wall_start): (Option<std::time::Duration>, std::time::Instant),
) -> EventKind {
    let latency = match (clock.as_ref(), sim_start) {
        (Some(c), Some(s)) => c.now().saturating_sub(s),
        _ => wall_start.elapsed(),
    };
    EventKind::ChunkRead {
        offset,
        len: len as u64,
        queue_depth,
        latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
    }
}

/// Which I/O strategy fills the slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// io_uring-style batched asynchronous reads (the paper's choice).
    Uring,
    /// mmap-style synchronous page-faulting reads (Figure 9 baseline).
    Mmap,
    /// Plain blocking positioned reads with no batching (the AllClose
    /// baseline's I/O behaviour).
    Blocking,
}

/// Streaming configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// I/O strategy.
    pub backend: BackendKind,
    /// Target payload bytes per slice (at least one op per slice is
    /// always taken, so oversized ops still flow).
    pub slice_bytes: usize,
    /// Worker threads inside the uring backend.
    pub io_threads: usize,
    /// Device queue depth for the uring backend.
    pub queue_depth: usize,
    /// Buffer pool size: slices that may exist before the consumer
    /// drains one (2 = classic double buffering).
    pub buffers: usize,
    /// Retry policy applied to every read before its failure is
    /// surfaced (default: no retries).
    pub retry: RetryPolicy,
    /// When `false` (the default) the stream terminates at the first
    /// op whose retries are exhausted, matching fail-fast semantics.
    /// When `true`, failed ops are zero-filled, recorded in
    /// [`Slice::failed`], and the stream keeps flowing — the
    /// quarantining caller decides what to do with the holes.
    pub continue_on_error: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            backend: BackendKind::Uring,
            slice_bytes: 8 << 20,
            io_threads: 4,
            queue_depth: 64,
            buffers: 2,
            retry: RetryPolicy::none(),
            continue_on_error: false,
        }
    }
}

/// Observability sinks for one pipeline.
///
/// The default is the pre-registry behaviour: a fresh, detached
/// [`RingCounters`] and no histograms. [`PipelineMetrics::in_registry`]
/// binds everything into a [`Registry`] so pipeline traffic shows up in
/// metric snapshots: the ring counters under `{prefix}.submitted` /
/// `.completed` / `.retried` / `.gave_up`, per-op payload sizes in the
/// `{prefix}.read_bytes` histogram, and per-slice fill latencies
/// (microseconds, on the storage's clock) in `{prefix}.slice_fill_us`.
#[derive(Debug, Clone)]
pub struct PipelineMetrics {
    /// Submitted/completed/retried/gave-up accounting (always present).
    pub counters: Arc<RingCounters>,
    /// Per-op payload bytes of successful reads.
    pub read_bytes: Option<Histogram>,
    /// Per-slice fill latency in microseconds. Per-slice timings depend
    /// on thread interleaving — they belong here, never in a report.
    pub slice_fill_us: Option<Histogram>,
    /// Flight-recorder sink (disabled by default; see
    /// [`PipelineMetrics::with_journal`]).
    journal: Journal,
    /// Lane prefix for flight-recorder events.
    lane: String,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        PipelineMetrics {
            counters: Arc::new(RingCounters::default()),
            read_bytes: None,
            slice_fill_us: None,
            journal: Journal::disabled(),
            lane: "io".to_string(),
        }
    }
}

impl PipelineMetrics {
    /// Metrics registered in `registry` under `prefix` (see type docs).
    #[must_use]
    pub fn in_registry(registry: &Registry, prefix: &str) -> Self {
        PipelineMetrics {
            counters: Arc::new(RingCounters::registered(registry, prefix)),
            read_bytes: Some(registry.histogram(&format!("{prefix}.read_bytes"))),
            slice_fill_us: Some(registry.histogram(&format!("{prefix}.slice_fill_us"))),
            journal: Journal::disabled(),
            lane: prefix.to_string(),
        }
    }

    /// Attaches a flight-recorder journal. Events appear on lanes
    /// derived from `lane`: `slice_fill` on `{lane}.pipeline`, per-op
    /// `chunk_read` / `retry` events on `{lane}.pipeline` for the
    /// synchronous backends or `{lane}.uring.w{i}` per uring worker,
    /// and one `io_submit` per uring batch on `{lane}.uring.sq`.
    #[must_use]
    pub fn with_journal(mut self, journal: Journal, lane: &str) -> Self {
        self.journal = journal;
        self.lane = lane.to_string();
        self
    }
}

/// One op whose reads never succeeded, even after retries.
#[derive(Debug)]
pub struct OpFailure {
    /// Global index (into the original op list) of the failed op.
    pub op: usize,
    /// The final error after the retry budget was spent.
    pub error: IoError,
}

/// One filled buffer: a contiguous batch of ops and their payloads.
#[derive(Debug)]
pub struct Slice {
    /// Index (into the original op list) of the first op in this slice.
    pub first_op: usize,
    /// The ops this slice carries, in original order.
    pub ops: Vec<OpSpec>,
    /// Concatenated payloads, op by op. Failed ops occupy their full
    /// length as zeroes so payload offsets stay correct.
    pub data: Vec<u8>,
    /// Ops in this slice whose reads failed after retries (empty unless
    /// [`PipelineConfig::continue_on_error`] is set).
    pub failed: Vec<OpFailure>,
}

impl Slice {
    /// Payload bytes of the `i`-th op within this slice.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    #[must_use]
    pub fn payload(&self, i: usize) -> &[u8] {
        let mut start = 0usize;
        for &(_, len) in &self.ops[..i] {
            start += len;
        }
        &self.data[start..start + self.ops[i].1]
    }

    /// Iterates `(global_op_index, payload)` pairs.
    pub fn payloads(&self) -> impl Iterator<Item = (usize, &[u8])> {
        let mut start = 0usize;
        self.ops.iter().enumerate().map(move |(i, &(_, len))| {
            let s = start;
            start += len;
            (self.first_op + i, &self.data[s..s + len])
        })
    }
}

/// A running stream of [`Slice`]s; iterate to consume.
#[derive(Debug)]
pub struct StreamPipeline {
    rx: Receiver<IoResult<Slice>>,
    reader: Option<JoinHandle<()>>,
    counters: Arc<RingCounters>,
}

impl StreamPipeline {
    /// Starts streaming `ops` from `storage` with default (detached)
    /// metrics.
    #[must_use]
    pub fn start(storage: Arc<dyn Storage>, ops: Vec<OpSpec>, config: PipelineConfig) -> Self {
        StreamPipeline::start_observed(storage, ops, config, PipelineMetrics::default())
    }

    /// Starts streaming `ops` from `storage`, recording traffic into
    /// `metrics` (see [`PipelineMetrics`]).
    #[must_use]
    pub fn start_observed(
        storage: Arc<dyn Storage>,
        ops: Vec<OpSpec>,
        config: PipelineConfig,
        metrics: PipelineMetrics,
    ) -> Self {
        let (tx, rx) = bounded::<IoResult<Slice>>(config.buffers.max(1));
        let counters = Arc::clone(&metrics.counters);
        let reader_counters = Arc::clone(&counters);
        let read_bytes = metrics.read_bytes.clone();
        let slice_fill_us = metrics.slice_fill_us.clone();
        let journal = metrics.journal.clone();
        let pipeline_lane = format!("{}.pipeline", metrics.lane);
        let uring_lane = format!("{}.uring", metrics.lane);
        let reader = std::thread::spawn(move || {
            let counters = reader_counters;
            let mut ring = match config.backend {
                BackendKind::Uring => Some(UringSim::with_observability(
                    Arc::clone(&storage),
                    config.io_threads,
                    config.queue_depth,
                    config.retry,
                    Arc::clone(&counters),
                    journal.clone(),
                    &uring_lane,
                )),
                _ => None,
            };
            let map = match config.backend {
                BackendKind::Mmap => Some(MmapSim::with_arc(
                    Arc::clone(&storage),
                    crate::mmap::PAGE_SIZE,
                )),
                _ => None,
            };
            let clock = storage.sim_clock();

            let mut i = 0usize;
            while i < ops.len() {
                // Assemble the next slice.
                let first_op = i;
                let mut batch: Vec<OpSpec> = Vec::new();
                let mut bytes = 0usize;
                while i < ops.len() && (batch.is_empty() || bytes < config.slice_bytes) {
                    batch.push(ops[i]);
                    bytes += ops[i].1;
                    i += 1;
                }

                let fill_started = clock.as_ref().map(crate::clock::SimClock::now);
                let fill_wall = std::time::Instant::now();
                let filled: IoResult<Slice> = (|| {
                    let mut data = Vec::with_capacity(bytes);
                    let mut failed: Vec<OpFailure> = Vec::new();
                    match config.backend {
                        BackendKind::Uring => {
                            // Workers retry internally and tally the
                            // shared counters; only harvest here.
                            let results = ring
                                .as_mut()
                                .expect("uring backend present")
                                .read_scattered_results(&batch)?;
                            for (k, result) in results.into_iter().enumerate() {
                                match result {
                                    Ok(buf) => data.extend_from_slice(&buf),
                                    Err(error) => {
                                        data.resize(data.len() + batch[k].1, 0);
                                        failed.push(OpFailure {
                                            op: first_op + k,
                                            error,
                                        });
                                    }
                                }
                            }
                        }
                        BackendKind::Mmap => {
                            let map = map.as_ref().expect("mmap backend present");
                            counters.record_submitted(batch.len() as u64);
                            for (k, &(offset, len)) in batch.iter().enumerate() {
                                let op_started = journal.is_enabled().then(|| {
                                    (
                                        clock.as_ref().map(crate::clock::SimClock::now),
                                        std::time::Instant::now(),
                                    )
                                });
                                let (result, retries) = config.retry.run(
                                    clock.as_ref(),
                                    &journal,
                                    &pipeline_lane,
                                    || map.read(offset, len),
                                );
                                counters.record_retries(u64::from(retries));
                                match result {
                                    Ok(buf) => {
                                        counters.record_completed();
                                        data.extend_from_slice(&buf);
                                        if let Some(started) = op_started {
                                            journal.emit(
                                                &pipeline_lane,
                                                chunk_read_event(offset, len, 1, &clock, started),
                                            );
                                        }
                                    }
                                    Err(error) => {
                                        counters.record_gave_up();
                                        data.resize(data.len() + len, 0);
                                        failed.push(OpFailure {
                                            op: first_op + k,
                                            error,
                                        });
                                    }
                                }
                            }
                        }
                        BackendKind::Blocking => {
                            storage.charge_batch(&batch, AccessMode::Sync);
                            counters.record_submitted(batch.len() as u64);
                            for (k, &(offset, len)) in batch.iter().enumerate() {
                                let start = data.len();
                                data.resize(start + len, 0);
                                let op_started = journal.is_enabled().then(|| {
                                    (
                                        clock.as_ref().map(crate::clock::SimClock::now),
                                        std::time::Instant::now(),
                                    )
                                });
                                let (result, retries) = config.retry.run(
                                    clock.as_ref(),
                                    &journal,
                                    &pipeline_lane,
                                    || storage.read_at(offset, &mut data[start..]),
                                );
                                counters.record_retries(u64::from(retries));
                                match result {
                                    Ok(()) => {
                                        counters.record_completed();
                                        if let Some(started) = op_started {
                                            journal.emit(
                                                &pipeline_lane,
                                                chunk_read_event(offset, len, 1, &clock, started),
                                            );
                                        }
                                    }
                                    Err(error) => {
                                        counters.record_gave_up();
                                        data[start..].fill(0);
                                        failed.push(OpFailure {
                                            op: first_op + k,
                                            error,
                                        });
                                    }
                                }
                            }
                        }
                    }
                    if !config.continue_on_error {
                        // Fail-fast: surface the first exhausted op as
                        // the stream's terminal error.
                        if let Some(first) = failed.into_iter().next() {
                            return Err(first.error);
                        }
                        failed = Vec::new();
                    }
                    Ok(Slice {
                        first_op,
                        ops: batch,
                        data,
                        failed,
                    })
                })();

                if slice_fill_us.is_some() || journal.is_enabled() {
                    // Virtual time when the storage is simulated, so the
                    // distribution reflects the modeled device.
                    let elapsed = match (&clock, fill_started) {
                        (Some(c), Some(s)) => c.now().saturating_sub(s),
                        _ => fill_wall.elapsed(),
                    };
                    if let Some(h) = &slice_fill_us {
                        h.record(elapsed.as_micros().try_into().unwrap_or(u64::MAX));
                    }
                    if let Ok(slice) = &filled {
                        journal.emit(
                            &pipeline_lane,
                            EventKind::SliceFill {
                                first_op: slice.first_op as u64,
                                ops: slice.ops.len() as u64,
                                bytes: slice.data.len() as u64,
                                latency_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                            },
                        );
                    }
                }
                if let (Some(h), Ok(slice)) = (&read_bytes, &filled) {
                    for (op, payload) in slice.payloads() {
                        if !slice.failed.iter().any(|f| f.op == op) {
                            h.record(payload.len() as u64);
                        }
                    }
                }

                let failed = filled.is_err();
                if tx.send(filled).is_err() || failed {
                    return; // consumer dropped, or error terminated stream
                }
            }
        });
        StreamPipeline {
            rx,
            reader: Some(reader),
            counters,
        }
    }

    /// Blocks for the next slice; `None` when the stream is exhausted.
    pub fn next_slice(&mut self) -> Option<IoResult<Slice>> {
        self.rx.recv().ok()
    }

    /// The shared traffic counters (live handle; clone before consuming
    /// the pipeline to read final statistics afterwards).
    #[must_use]
    pub fn counters(&self) -> Arc<RingCounters> {
        Arc::clone(&self.counters)
    }

    /// A snapshot of traffic through this pipeline so far.
    #[must_use]
    pub fn stats(&self) -> RingStats {
        self.counters.snapshot()
    }
}

impl Iterator for StreamPipeline {
    type Item = IoResult<Slice>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_slice()
    }
}

impl Drop for StreamPipeline {
    fn drop(&mut self) {
        // Drain so the bounded sender unblocks, then join the reader.
        while self.rx.try_recv().is_ok() {}
        if let Some(handle) = self.reader.take() {
            // Disconnect by dropping our receiver clone implicitly after
            // drain; recv in thread sees closed channel on next send.
            drop(std::mem::replace(&mut self.rx, crossbeam::channel::never()));
            let _ = handle.join();
        }
    }
}

/// Convenience: reads all ops through a fresh pipeline and returns the
/// payloads concatenated in op order (test and baseline helper).
///
/// # Errors
///
/// The first I/O error from the stream.
pub fn read_all(
    storage: Arc<dyn Storage>,
    ops: &[OpSpec],
    config: PipelineConfig,
) -> IoResult<Vec<u8>> {
    let total: usize = ops.iter().map(|&(_, len)| len).sum();
    let mut out = Vec::with_capacity(total);
    let pipeline = StreamPipeline::start(storage, ops.to_vec(), config);
    for slice in pipeline {
        let slice = slice?;
        out.extend_from_slice(&slice.data);
    }
    if out.len() != total {
        return Err(IoError::EngineShutDown);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::storage::MemStorage;

    fn make(n: usize) -> (Arc<dyn Storage>, Vec<u8>) {
        let data: Vec<u8> = (0..n).map(|i| (i % 253) as u8).collect();
        (Arc::new(MemStorage::free(data.clone())), data)
    }

    fn chunk_ops(total: usize, chunk: usize) -> Vec<OpSpec> {
        (0..total / chunk)
            .map(|i| ((i * chunk) as u64, chunk))
            .collect()
    }

    #[test]
    fn delivers_every_byte_exactly_once_in_order() {
        let (storage, data) = make(1 << 18);
        let ops = chunk_ops(1 << 18, 4096);
        for backend in [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking] {
            let cfg = PipelineConfig {
                backend,
                slice_bytes: 16 * 1024,
                ..PipelineConfig::default()
            };
            let all = read_all(Arc::clone(&storage), &ops, cfg).unwrap();
            assert_eq!(all, data, "backend {backend:?}");
        }
    }

    #[test]
    fn slice_payload_accessors_agree() {
        let (storage, data) = make(1 << 16);
        let ops = vec![(0u64, 100usize), (50_000, 200), (1_000, 50)];
        let mut pipeline = StreamPipeline::start(
            storage,
            ops.clone(),
            PipelineConfig {
                slice_bytes: usize::MAX,
                ..PipelineConfig::default()
            },
        );
        let slice = pipeline.next_slice().unwrap().unwrap();
        assert_eq!(slice.ops.len(), 3);
        assert_eq!(slice.payload(1), &data[50_000..50_200]);
        let collected: Vec<(usize, Vec<u8>)> =
            slice.payloads().map(|(i, p)| (i, p.to_vec())).collect();
        assert_eq!(collected[2].0, 2);
        assert_eq!(&collected[2].1[..], &data[1_000..1_050]);
        assert!(pipeline.next_slice().is_none());
    }

    #[test]
    fn oversized_single_op_still_flows() {
        let (storage, data) = make(1 << 16);
        let ops = vec![(0u64, 1 << 16)];
        let cfg = PipelineConfig {
            slice_bytes: 1024, // much smaller than the op
            ..PipelineConfig::default()
        };
        let all = read_all(storage, &ops, cfg).unwrap();
        assert_eq!(all, data);
    }

    #[test]
    fn error_mid_stream_is_surfaced() {
        let (storage, _) = make(8192);
        let ops = vec![(0u64, 4096usize), (6000, 4096)]; // second overruns
        let mut pipeline = StreamPipeline::start(
            storage,
            ops,
            PipelineConfig {
                slice_bytes: 4096,
                ..PipelineConfig::default()
            },
        );
        assert!(pipeline.next_slice().unwrap().is_ok());
        assert!(pipeline.next_slice().unwrap().is_err());
    }

    #[test]
    fn empty_op_list_yields_empty_stream() {
        let (storage, _) = make(64);
        let mut pipeline = StreamPipeline::start(storage, Vec::new(), PipelineConfig::default());
        assert!(pipeline.next_slice().is_none());
    }

    #[test]
    fn bounded_buffers_apply_backpressure_without_deadlock() {
        let (storage, data) = make(1 << 18);
        let ops = chunk_ops(1 << 18, 1024);
        let cfg = PipelineConfig {
            slice_bytes: 2048,
            buffers: 1,
            ..PipelineConfig::default()
        };
        // Consume slowly; the reader must block, not drop or deadlock.
        let mut seen = 0usize;
        let pipeline = StreamPipeline::start(storage, ops, cfg);
        for slice in pipeline {
            seen += slice.unwrap().data.len();
        }
        assert_eq!(seen, data.len());
    }

    #[test]
    fn dropping_mid_stream_does_not_hang() {
        let (storage, _) = make(1 << 18);
        let ops = chunk_ops(1 << 18, 1024);
        let mut pipeline = StreamPipeline::start(
            storage,
            ops,
            PipelineConfig {
                slice_bytes: 1024,
                buffers: 1,
                ..PipelineConfig::default()
            },
        );
        let _ = pipeline.next_slice();
        drop(pipeline); // reader blocked on send must exit cleanly
    }

    #[test]
    fn continue_on_error_streams_past_failures_with_holes() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (storage, data) = make(1 << 16);
        let faulty = Arc::new(FaultyStorage::new(
            storage,
            FaultPlan::Range {
                start: 8192,
                end: 8192 + 4096,
            },
        )) as Arc<dyn Storage>;
        let ops = chunk_ops(1 << 16, 4096); // ops 2 and part of the range
        let cfg = PipelineConfig {
            slice_bytes: 8192,
            continue_on_error: true,
            ..PipelineConfig::default()
        };
        let mut failed_ops = Vec::new();
        let mut total = 0usize;
        let pipeline = StreamPipeline::start(Arc::clone(&faulty), ops.clone(), cfg);
        let counters = pipeline.counters();
        for slice in pipeline {
            let slice = slice.expect("stream never terminates on a per-op error");
            total += slice.data.len();
            for (op, payload) in slice.payloads() {
                if slice.failed.iter().any(|f| f.op == op) {
                    assert!(payload.iter().all(|&b| b == 0), "failed op is zero-filled");
                } else {
                    let (off, len) = ops[op];
                    assert_eq!(payload, &data[off as usize..off as usize + len]);
                }
            }
            failed_ops.extend(slice.failed.iter().map(|f| f.op));
        }
        assert_eq!(total, 1 << 16, "every op occupies its full length");
        assert_eq!(
            failed_ops,
            vec![2],
            "exactly the op overlapping the bad sector"
        );
        let st = counters.snapshot();
        assert_eq!(st.submitted, ops.len() as u64);
        assert_eq!(st.gave_up, 1);
        assert_eq!(st.completed, ops.len() as u64 - 1);
    }

    #[test]
    fn pipeline_retries_heal_transient_faults_transparently() {
        use crate::fault::{FaultPlan, FaultyStorage};
        for backend in [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking] {
            let (storage, data) = make(1 << 16);
            let faulty = Arc::new(FaultyStorage::new(storage, FaultPlan::FirstN { n: 3 }))
                as Arc<dyn Storage>;
            let ops = chunk_ops(1 << 16, 4096);
            let cfg = PipelineConfig {
                backend,
                slice_bytes: 8192,
                retry: RetryPolicy::with_attempts(8),
                ..PipelineConfig::default()
            };
            let all = read_all(faulty, &ops, cfg).unwrap();
            assert_eq!(all, data, "backend {backend:?} heals the outage");
        }
    }

    #[test]
    fn default_config_remains_fail_fast() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (storage, _) = make(1 << 16);
        let faulty = Arc::new(FaultyStorage::new(
            storage,
            FaultPlan::Range { start: 0, end: 64 },
        )) as Arc<dyn Storage>;
        let ops = chunk_ops(1 << 16, 4096);
        let err = read_all(faulty, &ops, PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, IoError::Os(_)));
    }

    #[test]
    fn registry_metrics_mirror_pipeline_traffic_on_every_backend() {
        for backend in [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking] {
            let (storage, data) = make(1 << 16);
            let ops = chunk_ops(1 << 16, 4096);
            let registry = Registry::new();
            let metrics = PipelineMetrics::in_registry(&registry, "io");
            let cfg = PipelineConfig {
                backend,
                slice_bytes: 8192,
                ..PipelineConfig::default()
            };
            let pipeline =
                StreamPipeline::start_observed(Arc::clone(&storage), ops.clone(), cfg, metrics);
            let counters = pipeline.counters();
            let mut total = 0usize;
            for slice in pipeline {
                total += slice.unwrap().data.len();
            }
            assert_eq!(total, data.len());
            // Registry counters and the legacy snapshot read the same state.
            let stats = counters.snapshot();
            assert_eq!(
                registry.counter("io.submitted").get(),
                stats.submitted,
                "backend {backend:?}"
            );
            assert_eq!(registry.counter("io.completed").get(), stats.completed);
            assert_eq!(stats.completed, ops.len() as u64);
            // Every successful op's payload landed in the bytes histogram.
            let h = registry.histogram("io.read_bytes");
            assert_eq!(h.count(), ops.len() as u64, "backend {backend:?}");
            assert_eq!(h.sum(), data.len() as u64);
            // Each slice recorded one fill latency.
            let slices = (ops.len() * 4096).div_ceil(8192) as u64;
            assert_eq!(registry.histogram("io.slice_fill_us").count(), slices);
        }
    }

    #[test]
    fn every_backend_journals_one_chunk_read_per_op_and_slice_fills() {
        for backend in [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking] {
            let (storage, data) = make(1 << 16);
            let ops = chunk_ops(1 << 16, 4096);
            let journal = Journal::new(reprocmp_obs::ObsClock::wall());
            let metrics = PipelineMetrics::default().with_journal(journal.clone(), "run_a");
            let cfg = PipelineConfig {
                backend,
                slice_bytes: 8192,
                ..PipelineConfig::default()
            };
            let pipeline =
                StreamPipeline::start_observed(Arc::clone(&storage), ops.clone(), cfg, metrics);
            let mut total = 0usize;
            for slice in pipeline {
                total += slice.unwrap().data.len();
            }
            assert_eq!(total, data.len());
            let events = journal.events();
            let reads = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::ChunkRead { .. }))
                .count();
            assert_eq!(reads, ops.len(), "backend {backend:?}: one event per op");
            let fills: Vec<_> = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::SliceFill { .. }))
                .collect();
            let slices = (ops.len() * 4096).div_ceil(8192);
            assert_eq!(fills.len(), slices, "backend {backend:?}");
            assert!(fills.iter().all(|e| e.lane == "run_a.pipeline"));
            match backend {
                BackendKind::Uring => {
                    assert!(events
                        .iter()
                        .any(|e| matches!(e.kind, EventKind::IoSubmit { .. })
                            && e.lane == "run_a.uring.sq"));
                }
                _ => assert!(events
                    .iter()
                    .filter(|e| matches!(e.kind, EventKind::ChunkRead { .. }))
                    .all(|e| e.lane == "run_a.pipeline")),
            }
            assert!(journal.ledger().balanced(), "backend {backend:?}");
        }
    }

    #[test]
    fn uring_pipeline_cheaper_than_blocking_on_virtual_clock() {
        let data = vec![0u8; 1 << 20];
        let ops: Vec<OpSpec> = (0..128).map(|i| (i * 8192, 2048)).collect();

        let elapsed = |backend| {
            let mem = MemStorage::with_model(data.clone(), CostModel::lustre_pfs());
            let clock = mem.clock();
            let cfg = PipelineConfig {
                backend,
                slice_bytes: 64 * 1024,
                ..PipelineConfig::default()
            };
            read_all(Arc::new(mem), &ops, cfg).unwrap();
            clock.now()
        };
        assert!(elapsed(BackendKind::Blocking) > elapsed(BackendKind::Uring) * 2);
    }
}
