//! Double-buffered streaming from storage to the compute device.
//!
//! The paper's Figure 3: a team of I/O threads reads chunk data from the
//! PFS into a pre-allocated buffer; once a buffer (a *slice*) is full it
//! is handed to the main thread, which launches the comparison kernel
//! while the I/O threads refill the next buffer. Working in slices also
//! bounds memory — the full checkpoint pair never has to fit.
//!
//! [`StreamPipeline`] implements that: a reader thread groups the
//! requested ops into slices, fills each slice into one of the buffers
//! the pipeline keeps, and sends it down a bounded channel. The kept
//! buffers are the buffer pool: the reader waits for a free one when
//! the consumer falls behind, and a dropped [`Slice`] hands its buffer
//! back.
//!
//! A slice holds roughly [`PipelineConfig::slice_bytes`], whatever the
//! storage: two pipelines given the same op lengths and config cut the
//! same slices, so a consumer can pair them op for op.
//!
//! Every slice is filled the same way: the reader thread reads its ops
//! with positioned reads straight into the slice buffer, one per run of
//! file-contiguous ops where [`Storage::merges_adjacent_reads`] allows,
//! else one per op. The configured [`BackendKind`] decides only what
//! those reads cost on simulated storage — a [`Storage`] with a
//! virtual clock. Before reading, the reader charges that clock one
//! asynchronous batch per slice (`Uring`), one synchronous batch per
//! slice (`Blocking`), or each op's page faults just before the op
//! (`Mmap`). Real storage — files, the capture store — is charged
//! nothing: its reads take the wall time they take.

use crossbeam::channel::{bounded, Receiver};
use parking_lot::{Condvar, Mutex};
use reprocmp_obs::{EventKind, Histogram, Journal, Registry};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::clock::SimClock;
use crate::cost::OpSpec;
use crate::mmap::MmapSim;
use crate::retry::{RetryPolicy, RingCounters, RingStats};
use crate::storage::{AccessMode, Storage};
use crate::{IoError, IoResult};

/// How the modelled device charges the reads that fill the slices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// io_uring-style batched asynchronous reads (the paper's choice):
    /// one batch per slice with [`PipelineConfig::queue_depth`] in
    /// flight.
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
    /// What the modelled device charges for the reads: a cost policy
    /// for simulated storage (one with a [`SimClock`]) only. Every
    /// storage is read the same way.
    pub backend: BackendKind,
    /// Target payload bytes per slice, on every storage (at least one
    /// op per slice is always taken, so oversized ops still flow). A
    /// compare that nothing models cuts it to a cache-sized slice
    /// before it starts its pipelines (`reprocmp_core`'s engine).
    pub slice_bytes: usize,
    /// Device queue depth the uring backend charges (simulated storage).
    pub queue_depth: usize,
    /// Slices that may wait for the consumer (2 = classic double
    /// buffering). The pipeline keeps up to `buffers + 1` slice
    /// buffers, each with room for the stream's largest slice, so its
    /// memory is about `(buffers + 1)` slices whatever the object size.
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

    /// Attaches a flight-recorder journal. Every event appears on
    /// `{lane}.pipeline`: one `slice_fill` per slice, one `chunk_read`
    /// per completed op and the `retry` events, plus one `io_submit`
    /// per slice on real storage (queue depth 1) and on the uring
    /// backend (its queue depth). The synchronous backends submit
    /// nothing.
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
/// `buffers + 1` of them, or one per slice for a shorter stream, each
/// with room for the stream's largest slice. The first slice claims
/// them all from [`SPARE`] (else new allocations), so how many a
/// pipeline keeps, and how large, follows from its op list alone and
/// never from how fast the consumer returns them. The reader then takes
/// a free one per slice; a slice the consumer drops hands its buffer
/// back. A consumer that holds every kept buffer at once is owed
/// another slice, so the limit then grows by one instead of stalling
/// the stream. A dropped pool leaves its buffers in [`SPARE`].
#[derive(Debug)]
struct Pool {
    state: Mutex<PoolState>,
    changed: Condvar,
    /// The bytes every kept buffer has room for: the largest slice.
    slot: usize,
    /// Where the pool takes new buffers from and leaves its own.
    spare: &'static Spare,
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
static SPARE: Spare = Mutex::new(Vec::new());
/// A list of spare slice buffers: [`SPARE`], or a test's own.
type Spare = Mutex<Vec<Vec<u8>>>;
const SPARE_BUFFERS: usize = 6;
const SPARE_MAX_BYTES: usize = 16 << 20;

/// The spare buffer that already holds `bytes` initialized bytes with
/// the fewest to spare, else the one closest to it, so each pipeline
/// of a pair gets back the pages it filled last time.
fn take_spare(spare: &Spare, bytes: usize) -> Option<Vec<u8>> {
    let mut spare = spare.lock();
    let fit = |data: &Vec<u8>| match data.len().checked_sub(bytes) {
        Some(extra) => (0, extra),
        None => (1, bytes - data.len()),
    };
    let best = (0..spare.len()).min_by_key(|&i| fit(&spare[i]))?;
    Some(spare.swap_remove(best))
}

impl Pool {
    fn new(limit: usize, slot: usize, spare: &'static Spare) -> Self {
        Pool {
            slot,
            spare,
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

    /// A buffer for the next slice, waiting for a free one when the
    /// consumer holds the rest; `None` once the pipeline is gone.
    fn take(&self) -> Option<Buffers> {
        let mut state = self.state.lock();
        loop {
            if state.closed {
                return None;
            }
            if state.kept < state.limit {
                let claim = state.limit - state.kept;
                state.kept = state.limit;
                drop(state);
                let claimed: Vec<Buffers> =
                    (0..claim).map(|_| (Vec::new(), self.claim())).collect();
                state = self.state.lock();
                state.free.extend(claimed);
                continue;
            }
            if let Some(buffers) = state.free.pop() {
                return Some(buffers);
            }
            if state.held == state.limit {
                state.limit += 1;
                continue;
            }
            self.changed.wait(&mut state);
        }
    }

    /// One buffer with room for [`Pool::slot`] bytes: the best-fitting
    /// spare, grown if it must be, else a new allocation.
    fn claim(&self) -> Vec<u8> {
        let mut data = take_spare(self.spare, self.slot).unwrap_or_default();
        data.reserve_exact(self.slot.saturating_sub(data.len()));
        data
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
        let mut spare = self.spare.lock();
        spare.extend(free.into_iter().map(|(_, data)| data).filter(reusable));
        spare.sort_by_key(|data| std::cmp::Reverse(data.len()));
        spare.truncate(SPARE_BUFFERS);
    }
}

/// What the reader charges the storage's virtual clock for its reads
/// (see the module docs).
#[derive(Debug)]
enum Charge {
    /// Real storage: nothing.
    Nothing,
    /// Each slice as one batch.
    Batch(AccessMode),
    /// The page faults of each op, just before it is read.
    Faults(MmapSim),
}

impl Charge {
    fn new(storage: &Arc<dyn Storage>, config: &PipelineConfig) -> Self {
        if storage.sim_clock().is_none() {
            return Charge::Nothing;
        }
        match config.backend {
            BackendKind::Uring => Charge::Batch(AccessMode::Async {
                depth: config.queue_depth.max(1),
            }),
            BackendKind::Blocking => Charge::Batch(AccessMode::Sync),
            BackendKind::Mmap => Charge::Faults(MmapSim::new(Arc::clone(storage))),
        }
    }

    /// The queue depth of a slice's `io_submit`; `None` for the
    /// synchronous backends, which submit nothing.
    fn submit_depth(&self) -> Option<usize> {
        match self {
            Charge::Nothing => Some(1),
            Charge::Batch(AccessMode::Async { depth }) => Some(*depth),
            Charge::Batch(AccessMode::Sync) | Charge::Faults(_) => None,
        }
    }
}

/// Everything the reader thread needs to fill slices.
struct Reader {
    storage: Arc<dyn Storage>,
    config: PipelineConfig,
    charge: Charge,
    counters: Arc<RingCounters>,
    journal: Journal,
    /// `{lane}.pipeline`: every event the reader emits.
    lane: String,
    clock: Option<SimClock>,
}

impl Reader {
    /// Fills one slice of `batch` (whose payloads total `bytes`) into
    /// `data`. Fail-fast configurations turn the first failed op into
    /// the stream's terminal error.
    fn fill(&self, first_op: usize, (batch, mut data): Buffers, bytes: usize) -> IoResult<Slice> {
        if let Charge::Batch(mode) = self.charge {
            self.storage.charge_batch(&batch, mode);
        }
        if let Some(depth) = self.charge.submit_depth() {
            self.journal.emit(
                &self.lane,
                EventKind::IoSubmit {
                    ops: batch.len() as u64,
                    bytes: bytes as u64,
                    queue_depth: depth as u64,
                },
            );
        }
        data.resize(bytes, 0);
        let mut failed: Vec<OpFailure> = Vec::new();
        self.read_direct(&batch, first_op, &mut data, &mut failed);
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
    /// one per run of file-contiguous ops where the storage
    /// [merges](Storage::merges_adjacent_reads) them, else one per op.
    /// A run whose read fails after retries is read again op by op, so
    /// exactly the ops that fail are zero-filled and reported.
    fn read_direct(
        &self,
        batch: &[OpSpec],
        first_op: usize,
        data: &mut [u8],
        failed: &mut Vec<OpFailure>,
    ) {
        self.counters.record_submitted(batch.len() as u64);
        let merge = self.storage.merges_adjacent_reads();
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
    /// under the retry policy, after the run's page faults on the mmap
    /// backend (a retry finds those pages resident). On success every
    /// op in the run counts as completed and gets its `chunk_read`
    /// event.
    fn read_run(&self, run: &[OpSpec], buf: &mut [u8]) -> IoResult<()> {
        let started = self.journal.is_enabled().then(|| self.now());
        let offset = run[0].0;
        let (result, retries) =
            self.config
                .retry
                .run(self.clock.as_ref(), &self.journal, &self.lane, || {
                    if let Charge::Faults(map) = &self.charge {
                        map.fault(offset, buf.len());
                    }
                    self.storage.read_at(offset, buf)
                });
        self.counters.record_retries(u64::from(retries));
        if result.is_ok() {
            let latency_ns = started.map(|s| nanos(self.since(s)));
            let queue_depth = self.charge.submit_depth().unwrap_or(1) as u64;
            for &(offset, len) in run {
                self.counters.record_completed();
                if let Some(latency_ns) = latency_ns {
                    self.journal.emit(
                        &self.lane,
                        EventKind::ChunkRead {
                            offset,
                            len: len as u64,
                            queue_depth,
                            latency_ns,
                        },
                    );
                }
            }
        }
        result
    }

    /// A start time on both clocks, for [`Reader::since`].
    fn now(&self) -> (Option<Duration>, Instant) {
        (self.clock.as_ref().map(SimClock::now), Instant::now())
    }

    /// Time since `now()`: virtual when the storage is simulated, so
    /// latencies reflect the modeled device, and wall time otherwise.
    fn since(&self, (sim, wall): (Option<Duration>, Instant)) -> Duration {
        match (&self.clock, sim) {
            (Some(c), Some(s)) => c.now().saturating_sub(s),
            _ => wall.elapsed(),
        }
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
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
        StreamPipeline::start_in(storage, ops, config, metrics, &SPARE)
    }

    /// [`StreamPipeline::start_observed`], keeping its buffers in `spare`.
    fn start_in(
        storage: Arc<dyn Storage>,
        ops: Vec<OpSpec>,
        config: PipelineConfig,
        metrics: PipelineMetrics,
        spare: &'static Spare,
    ) -> Self {
        // The slices, as `(first op, end op, bytes)`: one op, then more
        // up to `slice_bytes`.
        let mut slices: Vec<(usize, usize, usize)> = Vec::new();
        let mut i = 0usize;
        while i < ops.len() {
            let (first_op, mut bytes) = (i, 0usize);
            while i < ops.len() && (i == first_op || bytes < config.slice_bytes) {
                bytes += ops[i].1;
                i += 1;
            }
            slices.push((first_op, i, bytes));
        }
        let slot = slices.iter().map(|&(_, _, bytes)| bytes).max().unwrap_or(0);
        let buffers = config.buffers.max(1);
        let pool = Arc::new(Pool::new((buffers + 1).min(slices.len()), slot, spare));
        let (tx, rx) = bounded::<IoResult<Slice>>(buffers);
        let counters = Arc::clone(&metrics.counters);
        let PipelineMetrics {
            read_bytes,
            slice_fill_us,
            journal,
            lane,
            ..
        } = metrics;
        let reader = Reader {
            clock: storage.sim_clock(),
            charge: Charge::new(&storage, &config),
            storage,
            config,
            counters: Arc::clone(&counters),
            journal,
            lane: format!("{lane}.pipeline"),
        };
        let reader_pool = Arc::clone(&pool);
        let handle = std::thread::spawn(move || {
            let journal = &reader.journal;
            for (first_op, end_op, bytes) in slices {
                let Some((mut batch, data)) = reader_pool.take() else {
                    return; // consumer dropped the pipeline
                };
                batch.clear();
                batch.extend_from_slice(&ops[first_op..end_op]);

                let started = reader.now();
                let filled = reader.fill(first_op, (batch, data), bytes);

                if slice_fill_us.is_some() || journal.is_enabled() {
                    let elapsed = reader.since(started);
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
                                latency_ns: nanos(elapsed),
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
                queue_depth: 8,
                ..PipelineConfig::default()
            };
            let pipeline = StreamPipeline::start_observed(storage, ops.clone(), cfg, metrics);
            let total: usize = pipeline.map(|s| s.unwrap().data.len()).sum();
            assert_eq!(total, data.len());
            // The ring submits each slice at its queue depth and reads
            // at it; the synchronous backends submit nothing.
            let slices = (ops.len() * 4096).div_ceil(8192);
            let (submit, depth) = match backend {
                BackendKind::Uring => (vec![8; slices], 8),
                _ => (Vec::new(), 1),
            };
            let (mut submits, mut reads, mut fills) = (Vec::new(), 0, 0);
            for e in journal.events() {
                assert_eq!(e.lane, "run_a.pipeline");
                match e.kind {
                    EventKind::IoSubmit { queue_depth, .. } => submits.push(queue_depth),
                    EventKind::ChunkRead { queue_depth, .. } => {
                        assert_eq!(queue_depth, depth, "backend {backend:?}");
                        reads += 1;
                    }
                    EventKind::SliceFill { .. } => fills += 1,
                    _ => {}
                }
            }
            let want = (submit, ops.len(), slices);
            assert_eq!((submits, reads, fills), want, "backend {backend:?}");
            assert!(journal.ledger().balanced(), "backend {backend:?}");
        }
    }

    #[test]
    fn an_op_past_the_end_fails_out_of_bounds_on_every_backend() {
        for backend in [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking] {
            // Run on a thread, so a backend that never returns fails
            // the test instead of hanging it.
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = std::thread::spawn(move || {
                let mem = MemStorage::with_model(vec![0u8; 4096], CostModel::lustre_pfs());
                let cfg = PipelineConfig {
                    backend,
                    ..PipelineConfig::default()
                };
                tx.send(read_all(Arc::new(mem), &[(4000, 200)], cfg)).ok();
            });
            let result = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("backend {backend:?} hung on an op past the end"));
            reader.join().unwrap();
            assert!(
                matches!(result, Err(IoError::OutOfBounds { .. })),
                "backend {backend:?}: {result:?}"
            );
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

    /// 720 ops of 12 KiB, 4 KiB apart, over an 11.25 MiB object: more
    /// than one 8 MiB slice, and 1 MiB slices that end past 1 MiB.
    fn spaced_ops() -> (Vec<u8>, Vec<OpSpec>) {
        let (_, data) = make(720 * (16 << 10));
        let ops = (0..720).map(|i| (i * 16384, 12288)).collect();
        (data, ops)
    }

    #[test]
    fn every_storage_is_sliced_alike() {
        let (data, ops) = spaced_ops();
        let file = TempFile::new("sliced-alike", &data);
        for slice_bytes in [1 << 20, 8 << 20] {
            let cfg = PipelineConfig {
                slice_bytes,
                ..PipelineConfig::default()
            };
            let slices = |storage: Arc<dyn Storage>| -> Vec<(usize, usize)> {
                let mut next_op = 0;
                StreamPipeline::start(storage, ops.clone(), cfg)
                    .map(|slice| {
                        let slice = slice.unwrap();
                        assert_eq!(slice.first_op, next_op);
                        assert!(slice.data.len() < slice_bytes + 12288);
                        for (op, payload) in slice.payloads() {
                            let (off, len) = ops[op];
                            assert_eq!(payload, &data[off as usize..off as usize + len]);
                        }
                        next_op += slice.ops.len();
                        (slice.first_op, slice.ops.len())
                    })
                    .collect()
            };
            let on_file = slices(file.storage());
            assert_eq!(on_file.iter().map(|s| s.1).sum::<usize>(), ops.len());
            assert_eq!(
                on_file.len(),
                (720 * 12288usize).div_ceil(slice_bytes.next_multiple_of(12288))
            );
            let free = MemStorage::free(data.clone());
            let modeled = MemStorage::with_model(data.clone(), CostModel::lustre_pfs());
            assert_eq!(slices(Arc::new(free)), on_file);
            assert_eq!(slices(Arc::new(modeled)), on_file);
        }
    }

    #[test]
    fn simulated_storage_keeps_slice_bytes() {
        let (data, ops) = spaced_ops();
        let mem = MemStorage::with_model(data, CostModel::lustre_pfs());
        let journal = Journal::new(reprocmp_obs::ObsClock::wall());
        let metrics = PipelineMetrics::default().with_journal(journal.clone(), "run_a");
        let cfg = PipelineConfig {
            slice_bytes: 8 << 20,
            ..PipelineConfig::default()
        };
        let slices: Vec<(usize, usize)> =
            StreamPipeline::start_observed(Arc::new(mem), ops, cfg, metrics)
                .map(|slice| slice.map(|s| (s.first_op, s.ops.len())).unwrap())
                .collect();
        assert_eq!(slices, [(0, 683), (683, 37)]);
        let submits: Vec<(u64, u64, u64)> = journal
            .events()
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::IoSubmit {
                    ops,
                    bytes,
                    queue_depth,
                } => Some((ops, bytes, queue_depth)),
                _ => None,
            })
            .collect();
        assert_eq!(submits, [(683, 8_392_704, 64), (37, 454_656, 64)]);
    }

    #[test]
    fn buffer_footprint_does_not_depend_on_consumer_speed() {
        static INSTANT: Spare = Mutex::new(Vec::new());
        static SLOW: Spare = Mutex::new(Vec::new());
        // A compared pair: the same runs of flagged chunks, of mixed
        // lengths, at different offsets on each side.
        let (_, data) = make(4 << 20);
        let file = TempFile::new("footprint", &data);
        let lens = [192usize << 10, 320 << 10, 64 << 10, 448 << 10, 4 << 10];
        let ops = |start: u64| -> Vec<OpSpec> {
            let mut offset = start;
            (0..12)
                .map(|i| {
                    let len = lens[i % lens.len()];
                    let op = (offset, len);
                    offset += len as u64 + 4096;
                    op
                })
                .collect()
        };
        let cfg = PipelineConfig {
            slice_bytes: 1 << 20,
            ..PipelineConfig::default()
        };
        let footprint = |spare: &'static Spare, pause: Duration| {
            for _ in 0..20 {
                let start = |ops| {
                    let metrics = PipelineMetrics::default();
                    StreamPipeline::start_in(file.storage(), ops, cfg, metrics, spare)
                };
                for (a, b) in start(ops(0)).zip(start(ops(8192))) {
                    a.unwrap();
                    b.unwrap();
                    std::thread::sleep(pause);
                }
            }
            // Every pool is gone: what it kept is spare now.
            let spare = spare.lock();
            (spare.len(), spare.iter().map(Vec::capacity).sum::<usize>())
        };
        assert_eq!(
            footprint(&INSTANT, Duration::ZERO),
            footprint(&SLOW, Duration::from_millis(2))
        );
    }
}
