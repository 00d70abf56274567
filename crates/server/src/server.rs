//! The daemon: exclusive store ownership, a bounded worker pool
//! draining the DRR queue, and per-job deterministic execution.
//!
//! # Determinism under concurrency
//!
//! Every job — whichever worker runs it, however clients interleave —
//! executes on a **fresh** `Timeline::sim(SimClock::new())` with a
//! fresh flight-recorder journal and (for batches) a fresh
//! [`MetaCache`]. All modeled costs are charged against the job's own
//! virtual clock and the engine's deterministic device/compute
//! models, so the resulting report depends only on *(store contents,
//! job spec, engine config)* — never on wall time, worker identity,
//! or what other jobs are running. [`execute_spec`] is `pub` for
//! exactly this reason: the oracle suite replays every job offline
//! and serially through the same function and asserts byte-identical
//! results.

use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use reprocmp_core::ops::{self, Image};
use reprocmp_core::{BatchConfig, CompareEngine, Ctx, EngineConfig, MetaCache};
use reprocmp_io::{MutationKind, SimClock, Timeline};
use reprocmp_obs::telemetry::{JobStateCounts, QueueTelemetry, StoreTelemetry, WorkerTelemetry};
use reprocmp_obs::{
    Event, JournalLedger, ObsClock, Observer, Registry, Sampler, TelemetryRing, TelemetrySnapshot,
    TELEMETRY_SCHEMA_VERSION,
};
use reprocmp_store::{real_fs, ChunkStore, StoreConfig, StoreError, StoreFs};
use serde::{Serialize, Value};

use crate::proto::{fill_data, hex_decode_owned, JobState, ObjectRef, Request};
use crate::queue::{AdmitError, JobQueue};

/// Daemon-level failures.
#[derive(Debug)]
pub enum ServerError {
    /// Opening or locking the store failed.
    Store(StoreError),
    /// Socket plumbing failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Store(e) => write!(f, "server store error: {e}"),
            ServerError::Io(e) => write!(f, "server i/o error: {e}"),
        }
    }
}

impl std::error::Error for ServerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServerError::Store(e) => Some(e),
            ServerError::Io(e) => Some(e),
        }
    }
}

impl From<StoreError> for ServerError {
    fn from(e: StoreError) -> Self {
        ServerError::Store(e)
    }
}

impl From<std::io::Error> for ServerError {
    fn from(e: std::io::Error) -> Self {
        ServerError::Io(e)
    }
}

/// Result alias for daemon operations.
pub type ServerResult<T> = Result<T, ServerError>;

/// Daemon tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Store root the daemon claims exclusively for its lifetime.
    pub store_root: PathBuf,
    /// Owner tag written into the store's advisory lock file.
    pub owner: String,
    /// Comparison-engine chunk size.
    pub chunk_bytes: usize,
    /// Comparison error bound ε.
    pub error_bound: f64,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission bound on in-flight jobs (queued + executing).
    pub queue_capacity: usize,
    /// DRR quantum, in cost units (one unit ≈ one cheap job; ingests
    /// are charged by payload size).
    pub quantum: u64,
    /// The filesystem seam the daemon's store mutates through — the
    /// real filesystem in production, a crash-injecting [`CrashFs`]
    /// in the shutdown torture sweep.
    ///
    /// [`CrashFs`]: reprocmp_store::CrashFs
    pub fs: Arc<dyn StoreFs>,
    /// Clock the telemetry plane stamps and paces samples with — wall
    /// time in production, a manual clock in tests so sampled series
    /// are byte-reproducible.
    pub telemetry_clock: ObsClock,
    /// Background sampling cadence. [`Duration::ZERO`] disables the
    /// sampling thread; explicit `metrics` requests still sample.
    pub telemetry_cadence: Duration,
    /// Snapshots the in-memory telemetry ring retains (and the number
    /// of `telemetry.jsonl` lines replayed into it at startup); the
    /// file itself never holds more than twice this many lines.
    pub telemetry_retention: usize,
}

impl ServerConfig {
    /// Defaults rooted at `store_root`: 4 KiB chunks, ε = 1e-5, two
    /// workers, 64 in-flight jobs, a quantum of 8, telemetry sampled
    /// every 100 ms on a wall clock with 256 snapshots retained.
    #[must_use]
    pub fn rooted_at(store_root: impl Into<PathBuf>) -> Self {
        ServerConfig {
            store_root: store_root.into(),
            owner: format!("reprocmp-server pid={}", std::process::id()),
            chunk_bytes: 4096,
            error_bound: 1e-5,
            workers: 2,
            queue_capacity: 64,
            quantum: 8,
            fs: real_fs(),
            telemetry_clock: ObsClock::wall(),
            telemetry_cadence: Duration::from_millis(100),
            telemetry_retention: 256,
        }
    }
}

/// Result and event bytes the table keeps for finished jobs. Past it,
/// finished records retire oldest-first, so the daemon's memory does
/// not grow with the number of jobs it has served. Thirty-two 1 MiB
/// materialize results fit, their bytes kept raw; a client that reads
/// a result within the next two dozen large jobs always finds it.
const RETAINED_BYTES_BUDGET: usize = 32 << 20;

/// One job's lifecycle record in the daemon's table.
#[derive(Debug)]
struct JobRecord {
    client: String,
    verb: &'static str,
    state: JobState,
    spec: Option<JobSpec>,
    result: Option<Arc<Value>>,
    /// A materialize's bytes, kept raw beside `result` rather than as
    /// hex in it: the document goes without its `"data"` field.
    payload: Option<Arc<Vec<u8>>>,
    error: Option<String>,
    events: Vec<Event>,
    ledger: Option<JournalLedger>,
    /// What the record holds against [`RETAINED_BYTES_BUDGET`]; zero
    /// until the job is terminal.
    retained_bytes: usize,
}

impl JobRecord {
    fn status(&self, job: u64) -> JobStatus {
        JobStatus {
            job,
            client: self.client.clone(),
            verb: self.verb,
            state: self.state,
            result: self.result.clone(),
            error: self.error.clone(),
        }
    }
}

/// Heap bytes a result document holds: its strings and containers.
fn value_heap_bytes(value: &Value) -> usize {
    match value {
        Value::String(s) => s.len(),
        Value::Array(items) => items
            .iter()
            .map(|v| std::mem::size_of::<Value>() + value_heap_bytes(v))
            .sum(),
        Value::Object(fields) => fields
            .iter()
            .map(|(k, v)| std::mem::size_of::<(String, Value)>() + k.len() + value_heap_bytes(v))
            .sum(),
        _ => 0,
    }
}

/// A queued unit of work, decoupled from the wire encoding.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Store `data` as `name@version`.
    Ingest {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
        /// Store chunk size.
        chunk_bytes: usize,
        /// Raw payload bytes.
        data: Vec<u8>,
    },
    /// Compare two stored objects.
    Compare {
        /// Left-hand object.
        left: ObjectRef,
        /// Right-hand object.
        right: ObjectRef,
    },
    /// Batch-compare runs against a baseline.
    CompareMany {
        /// The shared baseline.
        baseline: ObjectRef,
        /// The runs.
        runs: Vec<ObjectRef>,
    },
    /// Reconstruct a stored object's bytes.
    Materialize {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
}

impl JobSpec {
    /// Builds the spec for a job-carrying request, taking its payload
    /// over — from `section`, the frame's raw section, when it carried
    /// one, else from the hex `data`; `None` for session and control
    /// verbs. An upload that is not a checkpoint image (see
    /// [`Image::parse`]) is refused here, before it is queued.
    #[must_use]
    pub fn from_request(req: Request, section: Option<&[u8]>) -> Option<Result<JobSpec, String>> {
        match req {
            Request::Ingest {
                name,
                version,
                chunk_bytes,
                data,
            } => Some(
                match section {
                    Some(raw) => Ok(raw.to_vec()),
                    None => hex_decode_owned(data),
                }
                .and_then(|data| {
                    Image::parse(&data).map_err(|e| e.to_string())?;
                    Ok(JobSpec::Ingest {
                        name,
                        version,
                        chunk_bytes: usize::try_from(chunk_bytes).unwrap_or(usize::MAX),
                        data,
                    })
                }),
            ),
            Request::Compare { left, right } => Some(Ok(JobSpec::Compare { left, right })),
            Request::CompareMany { baseline, runs } => {
                Some(Ok(JobSpec::CompareMany { baseline, runs }))
            }
            Request::Materialize { name, version } => {
                Some(Ok(JobSpec::Materialize { name, version }))
            }
            _ => None,
        }
    }

    /// The wire verb, for status displays.
    #[must_use]
    fn verb(&self) -> &'static str {
        match self {
            JobSpec::Ingest { .. } => "ingest",
            JobSpec::Compare { .. } => "compare",
            JobSpec::CompareMany { .. } => "compare_many",
            JobSpec::Materialize { .. } => "materialize",
        }
    }

    /// DRR cost: cheap verbs cost 1; ingests are charged one unit per
    /// 64 KiB of payload so bulk uploads cannot crowd out compares.
    #[must_use]
    fn cost(&self) -> u64 {
        match self {
            JobSpec::Ingest { data, .. } => 1 + (data.len() as u64) / (64 * 1024),
            _ => 1,
        }
    }
}

/// What one executed job produced (also the offline oracle's output).
#[derive(Debug)]
pub struct JobOutcome {
    /// The result document (`Err` carries the failure message).
    pub result: Result<Value, String>,
    /// The job's flight-recorder events, in sequence order.
    pub events: Vec<Event>,
    /// The journal's exact emitted/written/dropped ledger.
    pub ledger: JournalLedger,
}

/// Executes one job spec against `store` with `engine`, on a fresh
/// deterministic timeline — the single execution path shared by the
/// daemon's workers and the oracle suite's offline serial replay. A
/// materialize's bytes are the result's `"data"` field, in hex.
#[must_use]
pub fn execute_spec(store: &ChunkStore, engine: &CompareEngine, spec: &JobSpec) -> JobOutcome {
    let (mut outcome, payload) = execute(store, engine, spec);
    if let (Ok(doc), Some(bytes)) = (&mut outcome.result, payload) {
        fill_data(doc, &bytes);
    }
    outcome
}

/// [`execute_spec`] with a materialize's bytes returned raw beside its
/// outcome, whose document then has no `"data"` field.
fn execute(
    store: &ChunkStore,
    engine: &CompareEngine,
    spec: &JobSpec,
) -> (JobOutcome, Option<Vec<u8>>) {
    let timeline = Timeline::sim(SimClock::new());
    let ctx = Ctx {
        obs: Observer::with_journal(timeline.obs_clock()),
        timeline,
    };
    let (result, payload) = match run_spec(store, engine, spec, &ctx) {
        Ok((doc, payload)) => (Ok(doc), payload),
        Err(message) => (Err(message), None),
    };
    let outcome = JobOutcome {
        result,
        events: ctx.obs.journal().events(),
        ledger: ctx.obs.journal().ledger(),
    };
    (outcome, payload)
}

/// A job's result document and, for a materialize, the object's bytes.
type Produced = (Value, Option<Vec<u8>>);

fn run_spec(
    store: &ChunkStore,
    engine: &CompareEngine,
    spec: &JobSpec,
    ctx: &Ctx,
) -> Result<Produced, String> {
    let open = |object: &ObjectRef| {
        ops::open_stored(store, object, engine)
            .map(|opened| opened.source)
            .map_err(|e| e.to_string())
    };
    match spec {
        JobSpec::Ingest {
            name,
            version,
            chunk_bytes,
            data,
        } => {
            // Capture-side metadata is built at ingest, so compare jobs
            // later use the stored tree verbatim — the capture profile
            // in their reports stays zero, exactly like the offline
            // `ingest --with-meta` path, whose manifest this is.
            let image = Image::parse(data).map_err(|e| e.to_string())?;
            let stats = ops::ingest(
                store,
                name,
                *version,
                &image,
                *chunk_bytes,
                Some(engine),
                None,
            )
            .map_err(|e| e.to_string())?
            .stats;
            // The wire result exposes the dedup ledger, not physical
            // placement: the pack id is allocated in execution order,
            // so keeping it would make the report depend on how
            // concurrent jobs interleaved — exactly what the
            // equivalence oracle forbids.
            let Value::Object(fields) = stats.to_value() else {
                unreachable!("IngestStats serializes as an object");
            };
            let doc = Value::Object(fields.into_iter().filter(|(k, _)| k != "pack").collect());
            Ok((doc, None))
        }
        JobSpec::Compare { left, right } => {
            let a = open(left)?;
            let b = open(right)?;
            let report = engine.compare(&a, &b, ctx).map_err(|e| e.to_string())?;
            Ok((report.to_value(), None))
        }
        JobSpec::CompareMany { baseline, runs } => {
            let base = open(baseline)?;
            let sources = runs.iter().map(open).collect::<Result<Vec<_>, _>>()?;
            // A fresh cache per job: byte-identity with the offline
            // replay must not depend on which jobs ran earlier.
            let report = engine
                .compare_many(
                    &base,
                    &sources,
                    &BatchConfig::default(),
                    &mut MetaCache::new(),
                    ctx,
                )
                .map_err(|e| e.to_string())?;
            Ok((report.to_value(), None))
        }
        JobSpec::Materialize { name, version } => {
            let bytes = store
                .materialize(name, *version)
                .map_err(|e| e.to_string())?;
            let doc = Value::Object(vec![
                ("name".to_owned(), Value::String(name.clone())),
                ("version".to_owned(), Value::UInt(*version)),
                ("bytes".to_owned(), Value::UInt(bytes.len() as u64)),
            ]);
            Ok((doc, Some(bytes)))
        }
    }
}

/// The job table proper, behind [`JobTable`]'s one mutex.
#[derive(Debug, Default)]
struct Jobs {
    records: HashMap<u64, JobRecord>,
    /// Terminal jobs still in `records`, oldest completion first — the
    /// order they retire in. A queued or running job is never in it.
    finished: VecDeque<u64>,
    /// Sum of `retained_bytes` over `finished`.
    retained_bytes: usize,
    /// Jobs by state since start. Retired records stay counted under
    /// `done`/`failed`, so the telemetry series never runs backwards.
    counts: JobStateCounts,
}

impl Jobs {
    fn admit(&mut self, id: u64, client: &str, spec: JobSpec) {
        self.counts.queued += 1;
        self.records.insert(
            id,
            JobRecord {
                client: client.to_owned(),
                verb: spec.verb(),
                state: JobState::Queued,
                spec: Some(spec),
                result: None,
                payload: None,
                error: None,
                events: Vec::new(),
                ledger: None,
                retained_bytes: 0,
            },
        );
    }

    /// Forgets a job the queue refused: not admitted means not a job.
    fn withdraw(&mut self, id: u64) {
        if self.records.remove(&id).is_some() {
            self.counts.queued -= 1;
        }
    }

    fn start(&mut self, id: u64) -> JobSpec {
        let record = self.records.get_mut(&id).expect("queued jobs are recorded");
        record.state = JobState::Running;
        self.counts.queued -= 1;
        self.counts.running += 1;
        record.spec.take().expect("spec present until execution")
    }

    /// Records a finished job, then retires the oldest finished
    /// records while they hold more than the budget. The job that just
    /// finished is never retired by its own completion, however large:
    /// its submitter has not had a chance to read it. The retired
    /// records are returned so their megabytes are freed after the
    /// table's lock is.
    #[must_use = "drop the retired records outside the lock"]
    fn finish(&mut self, id: u64, outcome: JobOutcome, payload: Option<Vec<u8>>) -> Vec<JobRecord> {
        let record = self
            .records
            .get_mut(&id)
            .expect("running jobs are recorded");
        record.retained_bytes = outcome
            .events
            .iter()
            .map(|e| std::mem::size_of::<Event>() + e.lane.len())
            .sum();
        self.counts.running -= 1;
        match outcome.result {
            Ok(value) => {
                record.state = JobState::Done;
                record.retained_bytes +=
                    value_heap_bytes(&value) + payload.as_ref().map_or(0, Vec::len);
                record.result = Some(Arc::new(value));
                record.payload = payload.map(Arc::new);
                self.counts.done += 1;
            }
            Err(message) => {
                record.state = JobState::Failed;
                record.retained_bytes += message.len();
                record.error = Some(message);
                self.counts.failed += 1;
            }
        }
        record.events = outcome.events;
        record.ledger = Some(outcome.ledger);
        self.retained_bytes += record.retained_bytes;
        self.finished.push_back(id);
        let mut retired = Vec::new();
        while self.retained_bytes > RETAINED_BYTES_BUDGET && self.finished.len() > 1 {
            let oldest = self.finished.pop_front().expect("len checked");
            let record = self
                .records
                .remove(&oldest)
                .expect("finished jobs are recorded");
            self.retained_bytes -= record.retained_bytes;
            retired.push(record);
        }
        retired
    }
}

#[derive(Debug, Default)]
struct JobTable {
    jobs: Mutex<Jobs>,
    changed: Condvar,
}

/// One worker thread's cumulative activity counters, read lock-free by
/// the telemetry sampler.
#[derive(Debug, Default)]
struct WorkerSlot {
    jobs: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
}

/// Aggregate flight-recorder ledger across all executed jobs.
#[derive(Debug, Default)]
struct JournalTotals {
    emitted: AtomicU64,
    written: AtomicU64,
    dropped: AtomicU64,
}

impl JournalTotals {
    fn add(&self, ledger: JournalLedger) {
        self.emitted
            .fetch_add(ledger.events_emitted, Ordering::Relaxed);
        self.written
            .fetch_add(ledger.events_written, Ordering::Relaxed);
        self.dropped
            .fetch_add(ledger.events_dropped, Ordering::Relaxed);
    }

    fn snapshot(&self) -> JournalLedger {
        JournalLedger {
            events_emitted: self.emitted.load(Ordering::Relaxed),
            events_written: self.written.load(Ordering::Relaxed),
            events_dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

/// Ring + sequence counter behind one lock, so a pushed snapshot and
/// its seq are always consistent.
#[derive(Debug)]
struct TelemetryState {
    ring: TelemetryRing,
    next_seq: u64,
    /// Lines appended to `telemetry.jsonl` since it was last rewritten
    /// as the ring.
    appended: usize,
}

/// Everything one telemetry sample reads, shared by the server's
/// handle, its workers, and the background sampling loop.
#[derive(Debug)]
struct TelemetryCtx {
    queue: Arc<JobQueue>,
    jobs: Arc<JobTable>,
    store: Arc<ChunkStore>,
    workers: Vec<WorkerSlot>,
    journal_totals: JournalTotals,
    registry: Registry,
    clock: ObsClock,
    fs: Arc<dyn StoreFs>,
    jsonl_path: PathBuf,
    shared: (Mutex<TelemetryState>, Condvar),
}

impl TelemetryCtx {
    /// Takes one sample: reads every counter, assigns the next seq,
    /// pushes into the ring, persists it through the store's filesystem
    /// seam, and wakes subscribers.
    fn sample_now(&self) -> TelemetrySnapshot {
        let qs = self.queue.stats();
        let jobs = self.jobs.jobs.lock().counts;
        let st = self.store.stats();
        let mut snap = TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            seq: 0,
            ts_ns: u64::try_from(self.clock.now().as_nanos()).unwrap_or(u64::MAX),
            queue: QueueTelemetry {
                capacity: qs.capacity as u64,
                queued: qs.queued as u64,
                in_flight: qs.in_flight as u64,
                admitted: qs.admitted,
                refused: qs.refused,
                shutting_down: qs.shutting_down,
            },
            workers: self
                .workers
                .iter()
                .enumerate()
                .map(|(i, w)| WorkerTelemetry {
                    worker: i as u64,
                    jobs_executed: w.jobs.load(Ordering::Relaxed),
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                })
                .collect(),
            jobs,
            store: StoreTelemetry {
                objects: st.objects,
                packs: st.packs,
                bytes_logical: st.bytes_logical,
                bytes_physical: st.bytes_physical,
                bytes_deduped: st.bytes_deduped,
                bytes_garbage: st.bytes_garbage,
                pack_file_bytes: st.pack_file_bytes,
            },
            journal: self.journal_totals.snapshot(),
            registry: self.registry.snapshot(),
        };
        let (lock, cvar) = &self.shared;
        let mut state = lock.lock();
        snap.seq = state.next_seq;
        state.next_seq += 1;
        state.ring.push(snap.clone());
        // Best-effort persistence: a full disk must not take down the
        // sampling plane (the in-memory ring stays authoritative). Once
        // a ring's worth of lines has been appended, the file is
        // rewritten as the ring instead, so it never holds more than
        // twice the retention.
        if state.appended < state.ring.capacity() {
            let mut line = snap.to_json_line();
            line.push('\n');
            let _ = self
                .fs
                .append(&self.jsonl_path, line.as_bytes(), MutationKind::Telemetry);
            state.appended += 1;
        } else if rewrite_history(&*self.fs, &self.jsonl_path, &state.ring).is_ok() {
            state.appended = 0;
        }
        drop(state);
        cvar.notify_all();
        snap
    }
}

/// Replaces `telemetry.jsonl` with the ring's retained history.
fn rewrite_history(fs: &dyn StoreFs, path: &Path, ring: &TelemetryRing) -> std::io::Result<()> {
    fs.write_atomic(path, ring.to_jsonl().as_bytes(), MutationKind::Telemetry)
}

/// A point-in-time job status snapshot (what `status` answers with).
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Owning client.
    pub client: String,
    /// The verb being executed.
    pub verb: &'static str,
    /// Lifecycle state.
    pub state: JobState,
    /// Result document when done — shared with the table's record, so
    /// asking for a status never copies one, except a materialize's,
    /// whose bytes the table keeps raw: its document is a copy with
    /// them as hex `"data"`.
    pub result: Option<Arc<Value>>,
    /// Failure message when failed.
    pub error: Option<String>,
}

/// The daemon. Owns the store exclusively (advisory lock) for its
/// lifetime; dropping it shuts down gracefully and releases the lock.
#[derive(Debug)]
pub struct Server {
    store: Arc<ChunkStore>,
    engine: Arc<CompareEngine>,
    queue: Arc<JobQueue>,
    jobs: Arc<JobTable>,
    next_job: Mutex<u64>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    config: ServerConfig,
    stop_requested: Arc<(Mutex<bool>, Condvar)>,
    telemetry: Arc<TelemetryCtx>,
    sampler_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Server {
    /// Opens the store exclusively and starts the worker pool.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] (via [`ServerError::Store`]) when
    /// another daemon owns the store; other store-open failures.
    pub fn start(config: ServerConfig) -> ServerResult<Self> {
        let store = Arc::new(ChunkStore::open_with(
            &config.store_root,
            StoreConfig::with_fs(Arc::clone(&config.fs)).exclusive(config.owner.clone()),
        )?);
        let engine = Arc::new(CompareEngine::new(EngineConfig {
            chunk_bytes: config.chunk_bytes,
            error_bound: config.error_bound,
            ..EngineConfig::default()
        }));
        let queue = Arc::new(JobQueue::new(config.queue_capacity, config.quantum));
        let jobs = Arc::new(JobTable::default());

        // Replay persisted telemetry history (reads bypass the
        // mutation seam, like every other store read) so the ring —
        // and the seq counter — survive daemon restarts.
        let jsonl_path = config.store_root.join("telemetry.jsonl");
        let mut ring = TelemetryRing::new(config.telemetry_retention);
        let mut next_seq = 1;
        let mut lines = 0;
        if let Ok(text) = std::fs::read_to_string(&jsonl_path) {
            for line in text.lines() {
                lines += 1;
                // A torn final line (crash mid-append) parses as an
                // error and is simply skipped.
                let Ok(value) = serde_json::from_str(line) else {
                    continue;
                };
                let Ok(snap) = TelemetrySnapshot::from_value(&value) else {
                    continue;
                };
                next_seq = next_seq.max(snap.seq + 1);
                ring.push(snap);
            }
        }
        // A file holding lines the ring did not keep is rewritten as
        // the ring once, here, so the bound holds from the start.
        let appended =
            if lines > ring.len() && rewrite_history(&*config.fs, &jsonl_path, &ring).is_ok() {
                0
            } else {
                lines
            };
        let telemetry = Arc::new(TelemetryCtx {
            queue: Arc::clone(&queue),
            jobs: Arc::clone(&jobs),
            store: Arc::clone(&store),
            workers: (0..config.workers.max(1))
                .map(|_| WorkerSlot::default())
                .collect(),
            journal_totals: JournalTotals::default(),
            registry: Registry::new(),
            clock: config.telemetry_clock.clone(),
            fs: Arc::clone(&config.fs),
            jsonl_path,
            shared: (
                Mutex::new(TelemetryState {
                    ring,
                    next_seq,
                    appended,
                }),
                Condvar::new(),
            ),
        });

        let mut workers = Vec::new();
        for i in 0..config.workers.max(1) {
            let store = Arc::clone(&store);
            let engine = Arc::clone(&engine);
            let telemetry = Arc::clone(&telemetry);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("reprocmp-job-{i}"))
                    .spawn(move || worker_loop(&store, &engine, &telemetry, i))
                    .expect("spawn worker"),
            );
        }

        let stop_requested = Arc::new((Mutex::new(false), Condvar::new()));
        let sampler_thread = if config.telemetry_cadence.is_zero() {
            None
        } else {
            let telemetry = Arc::clone(&telemetry);
            let stop = Arc::clone(&stop_requested);
            let mut sampler =
                Sampler::new(config.telemetry_clock.clone(), config.telemetry_cadence);
            // Poll at the cadence, capped at 5 ms so manual-clock tests
            // that advance time between polls see prompt samples.
            let poll = config.telemetry_cadence.min(Duration::from_millis(5));
            Some(std::thread::spawn(move || loop {
                if sampler.poll().is_some() {
                    telemetry.sample_now();
                }
                let (flag, cvar) = &*stop;
                let mut stopped = flag.lock();
                if *stopped {
                    return;
                }
                let _ = cvar.wait_for(&mut stopped, poll);
                if *stopped {
                    return;
                }
            }))
        };

        Ok(Server {
            store,
            engine,
            queue,
            jobs,
            next_job: Mutex::new(1),
            workers: Mutex::new(workers),
            config,
            stop_requested,
            telemetry,
            sampler_thread: Mutex::new(sampler_thread),
        })
    }

    /// The daemon's configuration.
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The store the daemon owns (shared read access for e.g. stats).
    #[must_use]
    pub fn store(&self) -> &Arc<ChunkStore> {
        &self.store
    }

    /// The engine jobs execute with.
    #[must_use]
    pub fn engine(&self) -> &Arc<CompareEngine> {
        &self.engine
    }

    /// The job queue (exposed for queue-level tests and stats).
    #[must_use]
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// Submits one job for `client` through admission control.
    ///
    /// # Errors
    ///
    /// [`AdmitError`] when the queue refuses it (backpressure or
    /// shutdown); the job was *not* recorded.
    pub fn submit(&self, client: &str, spec: JobSpec) -> Result<u64, AdmitError> {
        let id = {
            let mut next = self.next_job.lock();
            let id = *next;
            *next += 1;
            id
        };
        let cost = spec.cost();
        self.jobs.jobs.lock().admit(id, client, spec);
        match self.queue.enqueue(client, id, cost) {
            Ok(()) => Ok(id),
            Err(e) => {
                // Not admitted ⇒ not a job: drop the record so the
                // "accepted jobs are never dropped" invariant stays
                // crisp (rejected ≠ accepted-then-lost).
                self.jobs.jobs.lock().withdraw(id);
                Err(e)
            }
        }
    }

    /// A job's current status, or `None` for an id the table does not
    /// hold: never issued, or finished long enough ago that its record
    /// retired (the table keeps finished jobs up to a fixed byte
    /// budget, oldest out first). A materialize's result carries its
    /// bytes as hex `"data"`, as [`execute_spec`] reports them.
    #[must_use]
    pub fn status(&self, job: u64) -> Option<JobStatus> {
        self.kept_status(job, false).map(in_one_document)
    }

    /// Blocks until `job` reaches a terminal state; `None` as for
    /// [`Server::status`].
    #[must_use]
    pub fn wait(&self, job: u64) -> Option<JobStatus> {
        self.kept_status(job, true).map(in_one_document)
    }

    /// The status as the table keeps it, a materialize's bytes beside
    /// its document, after blocking until the job is terminal when
    /// `wait` is set; `None` as for [`Server::status`].
    pub(crate) fn kept_status(
        &self,
        job: u64,
        wait: bool,
    ) -> Option<(JobStatus, Option<Arc<Vec<u8>>>)> {
        let mut jobs = self.jobs.jobs.lock();
        loop {
            match jobs.records.get(&job) {
                None => return None,
                Some(r) if r.state.is_terminal() || !wait => {
                    return Some((r.status(job), r.payload.clone()))
                }
                Some(_) => self.jobs.changed.wait(&mut jobs),
            }
        }
    }

    /// A terminal job's flight-recorder events and journal ledger
    /// (blocks until terminal); `None` for an unknown id.
    #[must_use]
    pub fn job_journal(&self, job: u64) -> Option<(Vec<Event>, JournalLedger)> {
        self.kept_status(job, true)?;
        let jobs = self.jobs.jobs.lock();
        let r = jobs.records.get(&job)?;
        Some((r.events.clone(), r.ledger?))
    }

    /// Takes one telemetry sample right now — regardless of cadence —
    /// recording it in the ring, the JSONL sink, and every subscriber's
    /// stream. This is what the `metrics` wire verb answers with.
    #[must_use]
    pub fn sample_telemetry_now(&self) -> TelemetrySnapshot {
        self.telemetry.sample_now()
    }

    /// Blocks until at least one snapshot with `seq > after` exists,
    /// then returns all of them (oldest first). Returns an empty vec
    /// once [`Server::request_stop`] was called and nothing newer will
    /// ever arrive — the subscriber's signal to send its terminal
    /// frame.
    #[must_use]
    pub fn wait_telemetry_after(&self, after: u64) -> Vec<TelemetrySnapshot> {
        let (lock, cvar) = &self.telemetry.shared;
        let mut state = lock.lock();
        loop {
            let fresh: Vec<TelemetrySnapshot> = state
                .ring
                .snapshots()
                .into_iter()
                .filter(|s| s.seq > after)
                .collect();
            if !fresh.is_empty() {
                return fresh;
            }
            if self.stop_requested() {
                return Vec::new();
            }
            cvar.wait(&mut state);
        }
    }

    /// Flags that a client asked the daemon to exit; [`Server::serve`]
    /// loops observe it. (Job draining happens in
    /// [`Server::shutdown`].)
    pub fn request_stop(&self) {
        let (flag, cvar) = &*self.stop_requested;
        *flag.lock() = true;
        cvar.notify_all();
        // Wake telemetry subscribers so their streams can terminate.
        // Briefly taking the telemetry lock fences against a waiter
        // that read the stop flag as false but hasn't parked yet.
        let (lock, tcvar) = &self.telemetry.shared;
        drop(lock.lock());
        tcvar.notify_all();
    }

    /// Whether [`Server::request_stop`] was called.
    #[must_use]
    pub fn stop_requested(&self) -> bool {
        *self.stop_requested.0.lock()
    }

    /// Graceful shutdown: admission closes immediately, every already
    /// admitted job is executed to completion, workers drain and join.
    /// Idempotent. The store lock is released when the server is
    /// dropped.
    pub fn shutdown(&self) {
        self.queue.shutdown();
        let workers: Vec<_> = self.workers.lock().drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
        self.request_stop();
        if let Some(t) = self.sampler_thread.lock().take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A status whose kept payload is hex-encoded into its document's
/// `"data"` field: the one document [`execute_spec`] reports.
fn in_one_document((mut status, payload): (JobStatus, Option<Arc<Vec<u8>>>)) -> JobStatus {
    if let (Some(result), Some(bytes)) = (&mut status.result, payload) {
        fill_data(Arc::make_mut(result), &bytes);
    }
    status
}

fn worker_loop(store: &ChunkStore, engine: &CompareEngine, ctx: &TelemetryCtx, worker: usize) {
    let slot = &ctx.workers[worker];
    let jobs = &*ctx.jobs;
    let queue = &*ctx.queue;
    // Daemon-lifetime metrics: deterministic given the executed job
    // set (counts and costs, never wall time), so sampled registries
    // are reproducible under manual clocks.
    let done_counter = ctx.registry.counter("jobs.done");
    let failed_counter = ctx.registry.counter("jobs.failed");
    let cost_hist = ctx.registry.histogram("job.cost");
    let events_hist = ctx.registry.histogram("job.events");
    loop {
        let idle_from = ctx.clock.now();
        let Some(job) = queue.pop() else { break };
        let busy_from = ctx.clock.now();
        slot.idle_ns.fetch_add(
            u64::try_from(busy_from.saturating_sub(idle_from).as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        let spec = jobs.jobs.lock().start(job.id);
        jobs.changed.notify_all();

        let (outcome, payload) = execute(store, engine, &spec);
        // The spec of an ingest owns its payload: free it before the
        // result takes its place in the table.
        drop(spec);

        ctx.journal_totals.add(outcome.ledger);
        cost_hist.record(job.cost);
        events_hist.record(outcome.ledger.events_emitted);
        if outcome.result.is_ok() {
            done_counter.inc();
        } else {
            failed_counter.inc();
        }
        let retired = jobs.jobs.lock().finish(job.id, outcome, payload);
        jobs.changed.notify_all();
        drop(retired);
        slot.jobs.fetch_add(1, Ordering::Relaxed);
        slot.busy_ns.fetch_add(
            u64::try_from(ctx.clock.now().saturating_sub(busy_from).as_nanos()).unwrap_or(u64::MAX),
            Ordering::Relaxed,
        );
        queue.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientError, ServerClient};
    use crate::proto::hex_encode;
    use crate::transport::{pair, serve_connection};

    const MIB: usize = 1 << 20;

    fn outcome(result_bytes: usize) -> JobOutcome {
        JobOutcome {
            result: Ok(Value::String("x".repeat(result_bytes))),
            events: Vec::new(),
            ledger: JournalLedger {
                events_emitted: 0,
                events_written: 0,
                events_dropped: 0,
            },
        }
    }

    fn spec() -> JobSpec {
        JobSpec::Materialize {
            name: "obj".to_owned(),
            version: 1,
        }
    }

    #[test]
    fn finished_records_retire_oldest_first_and_unfinished_ones_never() {
        let mut jobs = Jobs::default();
        jobs.admit(1, "c", spec()); // stays queued throughout
        jobs.admit(2, "c", spec());
        jobs.start(2); // stays running throughout
        for id in 3..67 {
            jobs.admit(id, "c", spec());
            jobs.start(id);
            drop(jobs.finish(id, outcome(2 * MIB), None));
            assert!(jobs.retained_bytes <= RETAINED_BYTES_BUDGET);
        }
        assert_eq!(jobs.records[&1].state, JobState::Queued);
        assert_eq!(jobs.records[&2].state, JobState::Running);
        assert!(!jobs.records.contains_key(&3), "the oldest result retired");
        let newest = jobs.records[&66].status(66);
        assert_eq!(
            newest.result.as_deref(),
            Some(&Value::String("x".repeat(2 * MIB)))
        );
        // Sixteen 2 MiB results fill the budget exactly.
        assert_eq!(jobs.finished.len(), 16);
        assert_eq!(jobs.records.len(), 2 + 16);
        // Retired jobs stay counted: the series is cumulative.
        assert_eq!(
            jobs.counts,
            JobStateCounts {
                queued: 1,
                running: 1,
                done: 64,
                failed: 0
            }
        );
    }

    #[test]
    fn a_result_larger_than_the_budget_outlives_its_own_completion() {
        let mut jobs = Jobs::default();
        for id in 1..=2 {
            jobs.admit(id, "c", spec());
            jobs.start(id);
            drop(jobs.finish(id, outcome(RETAINED_BYTES_BUDGET + 1), None));
        }
        assert!(!jobs.records.contains_key(&1));
        assert!(jobs.records[&2].result.is_some(), "still there to be read");
    }

    /// The wire view of the same policy: 64 materialize jobs over a
    /// 1 MiB object, read back after the fact.
    #[test]
    fn an_expired_job_answers_like_an_unknown_one() {
        let root = std::env::temp_dir().join(format!("reprocmp-retire-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        let server = Server::start(ServerConfig {
            telemetry_cadence: Duration::ZERO,
            ..ServerConfig::rooted_at(&root)
        })
        .expect("daemon start");
        let (client_end, mut server_end) = pair();
        std::thread::scope(|s| {
            s.spawn(|| serve_connection(&server, &mut server_end));
            let mut client = ServerClient::over(Box::new(client_end), "c").expect("hello");
            let data: Vec<u8> = (0..MIB / 4)
                .flat_map(|i| (i as f32).to_le_bytes())
                .collect();
            let job = client.ingest("obj", 1, 4096, &data).expect("submit");
            assert_eq!(client.wait(job).expect("wait").state, JobState::Done);

            let ids: Vec<u64> = (0..64)
                .map(|_| {
                    let id = client.materialize("obj", 1).expect("submit");
                    assert_eq!(client.wait(id).expect("wait").state, JobState::Done);
                    id
                })
                .collect();
            assert!(server.jobs.jobs.lock().retained_bytes <= RETAINED_BYTES_BUDGET);

            let newest = client.wait(ids[63]).expect("newest is retained");
            let hex = newest.result.as_ref().and_then(|r| r.get("data"));
            assert_eq!(hex.and_then(Value::as_str), Some(&*hex_encode(&data)));

            let mut unknown = |id: u64| match client.wait(id) {
                Err(ClientError::Server { message }) => message,
                other => panic!("job {id}: expected an error frame, got {other:?}"),
            };
            assert_eq!(unknown(ids[0]), format!("unknown job {}", ids[0]));
            assert_eq!(
                unknown(9999),
                "unknown job 9999",
                "same answer, never issued"
            );
        });
        drop(server);
        std::fs::remove_dir_all(&root).ok();
    }
}
