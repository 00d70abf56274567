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
//! fills each slice into one of the buffers the pipeline keeps, and
//! sends it down a bounded channel. The kept buffers are the buffer
//! pool: the reader waits for a free one when the consumer falls
//! behind, and a dropped [`Slice`] hands its buffer back.
//!
//! How a slice is filled depends on the storage. Real storage — any
//! [`Storage`] without a virtual clock: files, the capture store — is
//! read by the reader thread itself, one positioned read per run of
//! file-contiguous ops (where [`Storage::merges_adjacent_reads`]
//! allows) straight into the slice buffer. Simulated storage goes
//! through the configured [`BackendKind`], whose worker threads and
//! per-op copies are part of the device being modelled.

use crossbeam::channel::{bounded, Receiver};
use parking_lot::{Condvar, Mutex};
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

/// Which I/O strategy the modelled device uses to fill the slices.
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
    /// I/O strategy of the modelled device: a policy for simulated
    /// storage (one with a [`SimClock`]) only. Real storage is always
    /// read by the reader thread with positioned reads.
    pub backend: BackendKind,
    /// Target payload bytes per slice (at least one op per slice is
    /// always taken, so oversized ops still flow). Also the size of
    /// each kept buffer, capped at the total bytes the ops ask for.
    pub slice_bytes: usize,
    /// Worker threads inside the uring backend (simulated storage).
    pub io_threads: usize,
    /// Device queue depth for the uring backend (simulated storage).
    pub queue_depth: usize,
    /// Slices that may wait for the consumer (2 = classic double
    /// buffering). The pipeline keeps `buffers + 1` slice buffers, so
    /// its memory is about `(buffers + 1) × slice_bytes` whatever the
    /// object size; an op larger than `slice_bytes` grows the buffer
    /// it lands in.
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
    /// `chunk_read` / `retry` events on `{lane}.pipeline` for real
    /// storage and the synchronous backends or `{lane}.uring.w{i}` per
    /// uring worker, and one `io_submit` per slice on `{lane}.pipeline`
    /// for real storage or per uring batch on `{lane}.uring.sq`.
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
///
/// Dropping a slice the consumer received hands its buffers back to
/// the pipeline for the next fill.
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
    /// Where `ops` and `data` go back to; set once the consumer has it.
    pool: Option<Arc<Pool>>,
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

impl Drop for Slice {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.give_back((
                std::mem::take(&mut self.ops),
                std::mem::take(&mut self.data),
            ));
        }
    }
}

/// One kept buffer: a slice's op list and its payload bytes.
type Buffers = (Vec<OpSpec>, Vec<u8>);

/// The slice buffers one pipeline keeps for its whole life.
///
/// At most `buffers + 1` of them: the reader takes a free one per
/// slice, or while the pipeline has fewer, one from [`SPARE`] (else a
/// new allocation); a slice the consumer drops hands its buffer back.
/// A consumer that holds every kept buffer at once is owed another
/// slice, so the limit then grows by one instead of stalling the
/// stream. A dropped pool leaves its buffers in [`SPARE`].
#[derive(Debug)]
struct Pool {
    state: Mutex<PoolState>,
    changed: Condvar,
}

#[derive(Debug)]
struct PoolState {
    free: Vec<Buffers>,
    /// How many buffers the pipeline may keep.
    limit: usize,
    /// Buffers the pipeline keeps, free or out in a slice.
    kept: usize,
    /// Buffers in slices the consumer holds.
    held: usize,
    /// The pipeline was dropped: the reader stops.
    closed: bool,
}

/// Slice buffers of dropped pipelines, for the next ones to keep. A
/// page the process has not touched yet costs a fault and a zero-fill
/// on first use — more than the positioned read that fills it — so a
/// process that compares again and again (the daemon, a benchmark loop)
/// reads into pages it already has. Holds the [`SPARE_BUFFERS`] most
/// used buffers of at most [`SPARE_MAX_BYTES`] each.
static SPARE: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
const SPARE_BUFFERS: usize = 6;
const SPARE_MAX_BYTES: usize = 16 << 20;

/// The spare buffer that already holds `bytes` initialized bytes with
/// the fewest to spare, else the one closest to it, so each pipeline
/// of a pair gets back the pages it filled last time.
fn take_spare(bytes: usize) -> Option<Vec<u8>> {
    let mut spare = SPARE.lock();
    let fit = |data: &Vec<u8>| match data.len().checked_sub(bytes) {
        Some(extra) => (0, extra),
        None => (1, bytes - data.len()),
    };
    let best = (0..spare.len()).min_by_key(|&i| fit(&spare[i]))?;
    Some(spare.swap_remove(best))
}

impl Pool {
    fn new(limit: usize) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                free: Vec::new(),
                limit,
                kept: 0,
                held: 0,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// A buffer for a slice of `bytes`, waiting for a free one when the
    /// pipeline keeps its limit; `None` once the pipeline is gone.
    fn take(&self, bytes: usize) -> Option<Buffers> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return None;
            }
            if let Some(buffers) = state.free.pop() {
                return Some(buffers);
            }
            if state.held == state.limit {
                state.limit += 1;
            }
            if state.kept < state.limit {
                state.kept += 1;
                drop(state);
                let data = take_spare(bytes).unwrap_or_else(|| Vec::with_capacity(bytes));
                return Some((Vec::new(), data));
            }
            self.changed.wait(&mut state);
        }
    }

    /// The consumer received a slice.
    fn lend(&self) {
        self.state.lock().held += 1;
        self.changed.notify_all();
    }

    /// The consumer dropped a slice.
    fn give_back(&self, buffers: Buffers) {
        let mut state = self.state.lock();
        state.held -= 1;
        state.free.push(buffers);
        drop(state);
        self.changed.notify_all();
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let free = std::mem::take(&mut self.state.get_mut().free);
        let reusable = |data: &Vec<u8>| (1..=SPARE_MAX_BYTES).contains(&data.capacity());
        let mut spare = SPARE.lock();
        spare.extend(free.into_iter().map(|(_, data)| data).filter(reusable));
        spare.sort_by_key(|data| std::cmp::Reverse(data.len()));
        spare.truncate(SPARE_BUFFERS);
    }
}

/// How the reader thread fills slices (see the module docs).
#[derive(Debug)]
enum Fill {
    /// Real storage: positioned reads straight into the slice buffer.
    Direct,
    /// The modelled device's batched asynchronous ring.
    Uring(UringSim),
    /// The modelled device's page-faulting map.
    Mmap(MmapSim),
    /// The modelled device's blocking reads, charged as one sync batch.
    Blocking,
}

/// Everything the reader thread needs to fill slices.
struct Reader {
    storage: Arc<dyn Storage>,
    config: PipelineConfig,
    counters: Arc<RingCounters>,
    journal: Journal,
    /// `{lane}.pipeline`: slice fills and per-op events of the
    /// synchronous paths.
    lane: String,
    clock: Option<SimClock>,
}

impl Reader {
    /// Fills one slice of `batch` (whose payloads total `bytes`) into
    /// `data`. Fail-fast configurations turn the first failed op into
    /// the stream's terminal error.
    fn fill(
        &self,
        fill: &mut Fill,
        first_op: usize,
        (batch, mut data): Buffers,
        bytes: usize,
    ) -> IoResult<Slice> {
        let mut failed: Vec<OpFailure> = Vec::new();
        match fill {
            Fill::Direct => {
                // One submission per slice, as the uring doorbell is.
                self.journal.emit(
                    &self.lane,
                    EventKind::IoSubmit {
                        ops: batch.len() as u64,
                        bytes: bytes as u64,
                        queue_depth: 1,
                    },
                );
                data.resize(bytes, 0);
                let merge = self.storage.merges_adjacent_reads();
                self.read_direct(&batch, first_op, &mut data, merge, &mut failed);
            }
            Fill::Blocking => {
                self.storage.charge_batch(&batch, AccessMode::Sync);
                data.resize(bytes, 0);
                self.read_direct(&batch, first_op, &mut data, false, &mut failed);
            }
            Fill::Uring(ring) => {
                // Workers retry internally and tally the shared
                // counters; only harvest here.
                data.clear();
                let results = ring.read_scattered_results(&batch)?;
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
            Fill::Mmap(map) => {
                data.clear();
                self.counters.record_submitted(batch.len() as u64);
                for (k, &(offset, len)) in batch.iter().enumerate() {
                    let op_started = self.op_started();
                    let (result, retries) = self.config.retry.run(
                        self.clock.as_ref(),
                        &self.journal,
                        &self.lane,
                        || map.read(offset, len),
                    );
                    self.counters.record_retries(u64::from(retries));
                    match result {
                        Ok(buf) => {
                            self.counters.record_completed();
                            data.extend_from_slice(&buf);
                            if let Some(started) = op_started {
                                self.journal.emit(
                                    &self.lane,
                                    chunk_read_event(offset, len, 1, &self.clock, started),
                                );
                            }
                        }
                        Err(error) => {
                            self.counters.record_gave_up();
                            data.resize(data.len() + len, 0);
                            failed.push(OpFailure {
                                op: first_op + k,
                                error,
                            });
                        }
                    }
                }
            }
        }
        if !self.config.continue_on_error {
            // Fail-fast: surface the first exhausted op as the
            // stream's terminal error.
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
            pool: None,
        })
    }

    /// Reads `batch` into `data` (sized to it) with positioned reads:
    /// one per op, or with `merge` one per run of file-contiguous ops.
    /// A run whose read fails after retries is read again op by op, so
    /// exactly the ops that fail are zero-filled and reported.
    fn read_direct(
        &self,
        batch: &[OpSpec],
        first_op: usize,
        data: &mut [u8],
        merge: bool,
        failed: &mut Vec<OpFailure>,
    ) {
        self.counters.record_submitted(batch.len() as u64);
        let (mut k, mut start) = (0usize, 0usize);
        while k < batch.len() {
            let mut end = k + 1;
            while merge
                && end < batch.len()
                && batch[end - 1].0.checked_add(batch[end - 1].1 as u64) == Some(batch[end].0)
            {
                end += 1;
            }
            let run = &batch[k..end];
            let run_bytes: usize = run.iter().map(|&(_, len)| len).sum();
            let buf = &mut data[start..start + run_bytes];
            if run.len() == 1 || self.read_run(run, buf).is_err() {
                let mut at = 0usize;
                for (j, &(_, len)) in run.iter().enumerate() {
                    let op_buf = &mut buf[at..at + len];
                    if let Err(error) = self.read_run(&run[j..=j], op_buf) {
                        self.counters.record_gave_up();
                        op_buf.fill(0);
                        failed.push(OpFailure {
                            op: first_op + k + j,
                            error,
                        });
                    }
                    at += len;
                }
            }
            k = end;
            start += run_bytes;
        }
    }

    /// One positioned read of the file-contiguous `run` into `buf`,
    /// under the retry policy. On success every op in the run counts
    /// as completed and gets its `chunk_read` event.
    fn read_run(&self, run: &[OpSpec], buf: &mut [u8]) -> IoResult<()> {
        let started = self.op_started();
        let (result, retries) =
            self.config
                .retry
                .run(self.clock.as_ref(), &self.journal, &self.lane, || {
                    self.storage.read_at(run[0].0, buf)
                });
        self.counters.record_retries(u64::from(retries));
        if result.is_ok() {
            for &(offset, len) in run {
                self.counters.record_completed();
                if let Some(started) = started {
                    self.journal.emit(
                        &self.lane,
                        chunk_read_event(offset, len, 1, &self.clock, started),
                    );
                }
            }
        }
        result
    }

    /// Start times for a journaled op; `None` when nobody is watching.
    fn op_started(&self) -> Option<(Option<std::time::Duration>, std::time::Instant)> {
        self.journal.is_enabled().then(|| {
            (
                self.clock.as_ref().map(SimClock::now),
                std::time::Instant::now(),
            )
        })
    }
}

/// A running stream of [`Slice`]s; iterate to consume.
#[derive(Debug)]
pub struct StreamPipeline {
    rx: Receiver<IoResult<Slice>>,
    reader: Option<JoinHandle<()>>,
    counters: Arc<RingCounters>,
    pool: Arc<Pool>,
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
        let buffers = config.buffers.max(1);
        let pool = Arc::new(Pool::new(buffers + 1));
        let (tx, rx) = bounded::<IoResult<Slice>>(buffers);
        let counters = Arc::clone(&metrics.counters);
        let PipelineMetrics {
            read_bytes,
            slice_fill_us,
            journal,
            lane,
            ..
        } = metrics;
        let uring_lane = format!("{lane}.uring");
        let reader = Reader {
            clock: storage.sim_clock(),
            storage,
            config,
            counters: Arc::clone(&counters),
            journal,
            lane: format!("{lane}.pipeline"),
        };
        let reader_pool = Arc::clone(&pool);
        let handle = std::thread::spawn(move || {
            let journal = &reader.journal;
            let clock = &reader.clock;
            let mut fill = match (clock, config.backend) {
                (None, _) => Fill::Direct,
                (Some(_), BackendKind::Uring) => Fill::Uring(UringSim::with_observability(
                    Arc::clone(&reader.storage),
                    config.io_threads,
                    config.queue_depth,
                    config.retry,
                    Arc::clone(&reader.counters),
                    journal.clone(),
                    &uring_lane,
                )),
                (Some(_), BackendKind::Mmap) => Fill::Mmap(MmapSim::with_arc(
                    Arc::clone(&reader.storage),
                    crate::mmap::PAGE_SIZE,
                )),
                (Some(_), BackendKind::Blocking) => Fill::Blocking,
            };

            let mut i = 0usize;
            while i < ops.len() {
                // The next slice: one op, then more up to `slice_bytes`.
                let first_op = i;
                let mut bytes = 0usize;
                while i < ops.len() && (i == first_op || bytes < config.slice_bytes) {
                    bytes += ops[i].1;
                    i += 1;
                }
                let Some((mut batch, data)) = reader_pool.take(bytes) else {
                    return; // consumer dropped the pipeline
                };
                batch.clear();
                batch.extend_from_slice(&ops[first_op..i]);

                let fill_started = clock.as_ref().map(SimClock::now);
                let fill_wall = std::time::Instant::now();
                let filled = reader.fill(&mut fill, first_op, (batch, data), bytes);

                if slice_fill_us.is_some() || journal.is_enabled() {
                    // Virtual time when the storage is simulated, so the
                    // distribution reflects the modeled device.
                    let elapsed = match (clock, fill_started) {
                        (Some(c), Some(s)) => c.now().saturating_sub(s),
                        _ => fill_wall.elapsed(),
                    };
                    if let Some(h) = &slice_fill_us {
                        h.record(elapsed.as_micros().try_into().unwrap_or(u64::MAX));
                    }
                    if let Ok(slice) = &filled {
                        journal.emit(
                            &reader.lane,
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
            reader: Some(handle),
            counters,
            pool,
        }
    }

    /// Blocks for the next slice; `None` when the stream is exhausted.
    pub fn next_slice(&mut self) -> Option<IoResult<Slice>> {
        let mut next = self.rx.recv().ok()?;
        if let Ok(slice) = &mut next {
            self.pool.lend();
            slice.pool = Some(Arc::clone(&self.pool));
        }
        Some(next)
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
        // Stop a reader waiting for a buffer, drain so one blocked on
        // the bounded channel unblocks, then join it.
        self.pool.close();
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

    /// A real file holding `data`, removed when the guard drops.
    struct TempFile(std::path::PathBuf);

    impl TempFile {
        fn new(tag: &str, data: &[u8]) -> Self {
            let path = std::env::temp_dir().join(format!(
                "reprocmp-pipeline-{tag}-{}.bin",
                std::process::id()
            ));
            crate::storage::StdFsStorage::create(&path, data).unwrap();
            TempFile(path)
        }

        fn storage(&self) -> Arc<dyn Storage> {
            Arc::new(crate::storage::StdFsStorage::open(&self.0).unwrap())
        }
    }

    impl Drop for TempFile {
        fn drop(&mut self) {
            std::fs::remove_file(&self.0).ok();
        }
    }

    fn collect_payloads(pipeline: StreamPipeline) -> Vec<(usize, Vec<u8>)> {
        let mut out = Vec::new();
        for slice in pipeline {
            let slice = slice.unwrap();
            out.extend(slice.payloads().map(|(i, p)| (i, p.to_vec())));
        }
        out
    }

    #[test]
    fn real_files_stream_the_same_payloads_as_simulated_storage() {
        use rand::{Rng, SeedableRng};
        let (_, data) = make(1 << 18);
        let file = TempFile::new("random-ops", &data);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for round in 0..24 {
            // Runs of adjacent ops, gaps, backward jumps, and one op
            // larger than a slice.
            let mut ops: Vec<OpSpec> = Vec::new();
            let mut offset = 0u64;
            while ops.len() < 40 {
                let len = if ops.len() == 20 {
                    9000
                } else {
                    rng.gen_range(1..1500usize)
                };
                offset = match rng.gen_range(0..4u32) {
                    0 => rng.gen_range(0..(data.len() - len) as u64),
                    1 => offset + rng.gen_range(1..300u64),
                    _ => offset,
                };
                if offset as usize + len > data.len() {
                    offset = 0;
                }
                ops.push((offset, len));
                offset += len as u64;
            }
            let cfg = PipelineConfig {
                slice_bytes: 4096,
                buffers: 1 + round % 3,
                ..PipelineConfig::default()
            };
            let sim = Arc::new(MemStorage::free(data.clone())) as Arc<dyn Storage>;
            let want = collect_payloads(StreamPipeline::start(sim, ops.clone(), cfg));
            let pipeline = StreamPipeline::start(file.storage(), ops.clone(), cfg);
            let counters = pipeline.counters();
            assert_eq!(collect_payloads(pipeline), want, "round {round}: {ops:?}");
            let st = counters.snapshot();
            assert_eq!((st.submitted, st.completed), (40, 40), "round {round}");
        }
    }

    #[test]
    fn a_bad_range_in_a_real_file_fails_exactly_the_ops_it_overlaps() {
        use crate::fault::{FaultPlan, FaultyStorage};
        let (_, data) = make(1 << 16);
        let file = TempFile::new("bad-range", &data);
        let faulty = Arc::new(FaultyStorage::new(
            file.storage(),
            FaultPlan::Range {
                start: 2 * 4096 + 100,
                end: 3 * 4096 + 1,
            },
        )) as Arc<dyn Storage>;
        let ops = chunk_ops(1 << 16, 4096);
        let cfg = PipelineConfig {
            slice_bytes: 8 * 4096,
            continue_on_error: true,
            retry: RetryPolicy::with_attempts(3),
            ..PipelineConfig::default()
        };
        let pipeline = StreamPipeline::start(faulty, ops.clone(), cfg);
        let counters = pipeline.counters();
        let mut failed_ops = Vec::new();
        for slice in pipeline {
            let slice = slice.unwrap();
            let failed: Vec<usize> = slice.failed.iter().map(|f| f.op).collect();
            for (op, payload) in slice.payloads() {
                if failed.contains(&op) {
                    assert!(payload.iter().all(|&b| b == 0), "op {op} is zero-filled");
                } else {
                    let (off, len) = ops[op];
                    assert_eq!(payload, &data[off as usize..off as usize + len], "op {op}");
                }
            }
            failed_ops.extend(failed);
        }
        assert_eq!(failed_ops, vec![2, 3], "the ops overlapping the range");
        let st = counters.snapshot();
        assert_eq!(st.submitted, ops.len() as u64);
        assert_eq!(st.completed + st.gave_up, st.submitted);
        assert_eq!(st.gave_up, 2);
    }

    #[test]
    fn a_stream_reuses_its_kept_buffers() {
        let (storage, data) = make(1 << 18);
        let file = TempFile::new("kept", &data);
        let ops = chunk_ops(1 << 18, 1024);
        for (storage, backend) in [
            (file.storage(), BackendKind::Uring),
            (Arc::clone(&storage), BackendKind::Uring),
            (Arc::clone(&storage), BackendKind::Blocking),
        ] {
            for buffers in [1, 2, 3] {
                let cfg = PipelineConfig {
                    backend,
                    slice_bytes: 4096,
                    buffers,
                    ..PipelineConfig::default()
                };
                let mut pointers = std::collections::HashSet::new();
                let mut slices = 0;
                for slice in StreamPipeline::start(Arc::clone(&storage), ops.clone(), cfg) {
                    pointers.insert(slice.unwrap().data.as_ptr() as usize);
                    slices += 1;
                }
                assert_eq!(slices, 64);
                assert!(
                    pointers.len() <= buffers + 1,
                    "{backend:?}, {buffers} buffers: {} distinct",
                    pointers.len()
                );
            }
        }
    }

    #[test]
    fn a_consumer_holding_every_slice_never_stalls_the_stream() {
        let (_, data) = make(1 << 16);
        let file = TempFile::new("hold", &data);
        let cfg = PipelineConfig {
            slice_bytes: 4096,
            buffers: 1,
            ..PipelineConfig::default()
        };
        let ops = chunk_ops(1 << 16, 1024);
        let held: Vec<Slice> = StreamPipeline::start(file.storage(), ops.clone(), cfg)
            .map(Result::unwrap)
            .collect();
        assert_eq!(held.len(), 16);
        let joined: Vec<u8> = held.iter().flat_map(|s| s.data.clone()).collect();
        assert_eq!(joined, data);

        // Dropping the pipeline while holding every buffer joins the
        // reader instead of hanging.
        let mut pipeline = StreamPipeline::start(file.storage(), ops, cfg);
        let first = pipeline.next_slice().unwrap().unwrap();
        let second = pipeline.next_slice().unwrap().unwrap();
        drop(pipeline);
        assert_eq!(first.data.len() + second.data.len(), 2 * 4096);
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
