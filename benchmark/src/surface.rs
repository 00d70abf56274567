//! The benchmark's whole API surface into the repository's crates.
//!
//! Every call from `benchmark/` into `crates/*` goes through a function
//! in this file, so a refactor of those crates has exactly one file to
//! re-point (the list is repeated in `benchmark/README.md`). Wrappers
//! are deliberately thin: they convert errors to strings and hide repo
//! types behind newtypes, and do nothing else that costs time.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use reprocmp_core::{CheckpointSource, CompareEngine, EngineConfig};
use reprocmp_device::Device;
use reprocmp_hash::{ChunkHasher, Digest128, Quantizer};
use reprocmp_io::{PipelineConfig, StdFsStorage, Storage, StreamPipeline, Timeline};
use reprocmp_merkle::MerkleTree;
use reprocmp_server::{JobQueue, JobSpec, ObjectRef, Server, ServerClient, ServerConfig};
use reprocmp_store::{ChunkStore, DeltaPolicy, HEADER_SEGMENT};
use serde::Value;

use crate::gen::{CHUNK_BYTES, EPS};

pub type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// ---- cli ---------------------------------------------------------------

/// Bytes of output the CLI has handed back for printing so far.
static CLI_OUTPUT_BYTES: AtomicU64 = AtomicU64::new(0);

/// `reprocmp <args>` in-process, exactly as `main` would dispatch it.
/// `main` would then print the returned text; its length is counted so
/// write amplification can include what the process would have written
/// to stdout.
pub fn cli(args: &[&str]) -> Res<String> {
    let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
    let out = reprocmp_cli::run(&argv).map_err(err)?;
    CLI_OUTPUT_BYTES.fetch_add(out.len() as u64, Ordering::Relaxed);
    Ok(out)
}

pub fn cli_output_bytes() -> u64 {
    CLI_OUTPUT_BYTES.load(Ordering::Relaxed)
}

// ---- veloc -------------------------------------------------------------

/// Where the payload and regions of a checkpoint file image sit.
#[derive(Debug, Clone)]
pub struct CkptLayout {
    pub payload_offset: usize,
    pub payload_len: usize,
    /// `(name, byte offset in the file, byte length)` per region.
    pub regions: Vec<(String, usize, usize)>,
}

pub fn encode_checkpoint(version: u64, regions: &[(&str, &[f32])]) -> Vec<u8> {
    reprocmp_veloc::format::encode_checkpoint(version, regions)
}

pub fn decode_checkpoint(bytes: &[u8]) -> Res<CkptLayout> {
    let file = reprocmp_veloc::decode_checkpoint(bytes).map_err(err)?;
    let payload_offset = file.payload_offset as usize;
    Ok(CkptLayout {
        payload_offset,
        payload_len: file.payload_len as usize,
        regions: file
            .regions
            .iter()
            .map(|r| {
                (
                    r.name.clone(),
                    payload_offset + r.value_offset as usize * 4,
                    r.count as usize * 4,
                )
            })
            .collect(),
    })
}

// ---- hash --------------------------------------------------------------

/// The ε-quantizing chunk hasher at the benchmark's bound.
pub struct Hasher(ChunkHasher);
/// Leaf digests, opaque to the benchmark.
#[derive(Clone)]
pub struct Leaves(Vec<Digest128>);

impl Leaves {
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

pub fn hasher() -> Hasher {
    Hasher(ChunkHasher::new(
        Quantizer::new(EPS).expect("EPS is a valid bound"),
    ))
}

pub fn quantize_to_bytes(h: &Hasher, data: &[f32], out: &mut Vec<u8>) {
    h.0.quantizer().quantize_to_bytes(data, out);
}

/// Returns the low word so the call cannot be optimised away.
pub fn hash_quantized_bytes(h: &Hasher, codes: &[u8]) -> u64 {
    h.0.hash_quantized_bytes(codes).0[0]
}

pub fn hash_leaves(h: &Hasher, data: &[f32], chunk_values: usize) -> Leaves {
    Leaves(h.0.hash_leaves(data, chunk_values))
}

pub fn raw_chunk_digest(bytes: &[u8]) -> u64 {
    reprocmp_hash::raw_chunk_digest(bytes).0[0]
}

// ---- device + merkle -----------------------------------------------------

/// Which executor runs the kernels.
#[derive(Debug, Clone, Copy)]
pub enum Exec {
    Serial,
    Parallel(usize),
}

fn device(exec: Exec) -> Device {
    match exec {
        Exec::Serial => Device::host_serial(),
        Exec::Parallel(n) => Device::host_parallel(n),
    }
}

pub struct Tree(MerkleTree);

impl Tree {
    pub fn node_count(&self) -> usize {
        self.0.node_count()
    }
}

pub fn build_from_f32(values: &[f32], h: &Hasher, exec: Exec) -> Tree {
    Tree(MerkleTree::build_from_f32(
        values,
        CHUNK_BYTES,
        &h.0,
        &device(exec),
    ))
}

pub fn tree_from_leaves(leaves: Leaves, data_len: u64, exec: Exec) -> Tree {
    Tree(MerkleTree::from_leaves(
        leaves.0,
        CHUNK_BYTES,
        data_len,
        EPS,
        &device(exec),
    ))
}

pub fn encode_tree(tree: &Tree) -> Vec<u8> {
    reprocmp_merkle::encode_tree(&tree.0)
}

pub fn decode_tree(bytes: &[u8]) -> Res<Tree> {
    reprocmp_merkle::decode_tree(bytes).map(Tree).map_err(err)
}

/// What the pruning BFS found.
#[derive(Debug, Clone)]
pub struct BfsOutcome {
    pub flagged: Vec<usize>,
    pub nodes_visited: usize,
}

pub fn compare_trees(a: &Tree, b: &Tree, engine: &Engine) -> Res<BfsOutcome> {
    let dev = engine.0.device();
    let lanes = dev.concurrent_kernel_threads();
    let out = reprocmp_merkle::compare_trees(&a.0, &b.0, dev, lanes).map_err(err)?;
    Ok(BfsOutcome {
        flagged: out.mismatched_leaves,
        nodes_visited: out.nodes_visited,
    })
}

// ---- io ------------------------------------------------------------------

#[derive(Clone)]
pub struct FileStorage(Arc<dyn Storage>);

pub fn open_file(path: &Path) -> Res<FileStorage> {
    Ok(FileStorage(Arc::new(
        StdFsStorage::open(path).map_err(err)?,
    )))
}

pub fn storage_len(s: &FileStorage) -> u64 {
    s.0.len()
}

pub fn read_at(s: &FileStorage, offset: u64, buf: &mut [u8]) -> Res<()> {
    s.0.read_at(offset, buf).map_err(err)
}

/// Streams `ops` through the default (CLI) pipeline; returns bytes seen.
pub fn stream_read(s: &FileStorage, ops: Vec<(u64, usize)>) -> Res<u64> {
    let mut bytes = 0u64;
    for slice in StreamPipeline::start(Arc::clone(&s.0), ops, PipelineConfig::default()) {
        bytes += slice.map_err(err)?.data.len() as u64;
    }
    Ok(bytes)
}

// ---- core ------------------------------------------------------------------

pub struct Engine(CompareEngine);
pub struct Source(CheckpointSource);

/// The engine the CLI builds when given no flags beyond chunk and bound.
pub fn engine() -> Engine {
    Engine(CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK_BYTES,
        error_bound: EPS,
        ..EngineConfig::default()
    }))
}

pub fn build_metadata(engine: &Engine, values: &[f32]) -> Tree {
    Tree(engine.0.build_metadata(values))
}

pub fn encode_metadata(engine: &Engine, values: &[f32]) -> Vec<u8> {
    engine.0.encode_metadata(values)
}

/// Runs `build_metadata` once and returns the A100-model time the
/// engine's device charged for it.
pub fn modeled_capture_time(engine: &Engine, values: &[f32]) -> Duration {
    let dev = engine.0.device();
    dev.reset_modeled_time();
    std::hint::black_box(engine.0.build_metadata(values));
    dev.modeled_time()
}

pub fn source_from_files(data: &Path, offset: u64, len: u64, tree: &Path) -> Res<Source> {
    CheckpointSource::from_files(data, offset, len, tree)
        .map(Source)
        .map_err(err)
}

pub fn source_from_store(store: &Store, name: &str, version: u64, engine: &Engine) -> Res<Source> {
    CheckpointSource::from_store(&store.0, name, version, &engine.0)
        .map(Source)
        .map_err(err)
}

/// The counts and phase times of one `CompareEngine::compare`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompareSummary {
    pub diff_count: u64,
    pub chunks_flagged: u64,
    pub false_positive_chunks: u64,
    pub bytes_reread: u64,
    pub read_meta: Duration,
    pub deserialize: Duration,
    pub bfs: Duration,
    pub stage2_stream: Duration,
    pub verify: Duration,
    /// Sum of the engine's own phase timers.
    pub phases_total: Duration,
}

fn summarize(report: &reprocmp_core::CompareReport) -> CompareSummary {
    CompareSummary {
        diff_count: report.stats.diff_count,
        chunks_flagged: report.stats.chunks_flagged,
        false_positive_chunks: report.stats.false_positive_chunks,
        bytes_reread: report.stats.bytes_reread,
        read_meta: report.breakdown.read,
        deserialize: report.breakdown.deserialize,
        bfs: report.breakdown.compare_tree,
        stage2_stream: report.stages.stage2_stream.time,
        verify: report.stages.verify.time,
        phases_total: report.breakdown.total(),
    }
}

/// `CompareEngine::compare` under the wall timeline.
pub fn engine_compare(engine: &Engine, a: &Source, b: &Source) -> Res<CompareSummary> {
    let report = engine
        .0
        .compare_with_timeline(&a.0, &b.0, &Timeline::wall())
        .map_err(err)?;
    Ok(summarize(&report))
}

/// The same comparison on the virtual clock: payloads behind the
/// `lustre_pfs` cost model, kernels on the A100 model. Returns modeled
/// total time.
pub fn modeled_compare_time(engine: &Engine, a: &[f32], b: &[f32]) -> Res<Duration> {
    let clock = reprocmp_io::SimClock::new();
    let model = reprocmp_io::CostModel::lustre_pfs();
    let src = |v: &[f32]| {
        CheckpointSource::in_memory_with_model(v, &engine.0, model, Some(clock.clone()))
            .map_err(err)
    };
    let (sa, sb) = (src(a)?, src(b)?);
    let report = engine
        .0
        .compare_with_timeline(&sa, &sb, &Timeline::sim(clock))
        .map_err(err)?;
    Ok(report.breakdown.total())
}

// ---- store -------------------------------------------------------------------

pub struct Store(ChunkStore);
pub struct StoreReader(reprocmp_store::StoreStorage);

/// The four-term ledger of one ingest or of the whole store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    pub logical: u64,
    pub physical: u64,
    pub deduped: u64,
    pub skipped: u64,
}

impl Ledger {
    pub fn exact(&self) -> bool {
        self.logical == self.physical + self.deduped + self.skipped
    }
}

pub fn store_open(root: &Path) -> Res<Store> {
    ChunkStore::open(root).map(Store).map_err(err)
}

/// Splits a checkpoint image into the segments the CLI ingests: the
/// header, then one segment per region.
pub fn ingest_segments<'a>(bytes: &'a [u8], layout: &'a CkptLayout) -> Vec<(&'a str, &'a [u8])> {
    let mut segments = vec![(HEADER_SEGMENT, &bytes[..layout.payload_offset])];
    for (name, off, len) in &layout.regions {
        segments.push((name.as_str(), &bytes[*off..*off + *len]));
    }
    segments
}

pub fn store_ingest(
    store: &Store,
    name: &str,
    version: u64,
    segments: &[(&str, &[u8])],
    meta: &[u8],
    delta: bool,
) -> Res<Ledger> {
    let stats = if delta {
        store.0.ingest_delta(
            name,
            version,
            segments,
            CHUNK_BYTES,
            meta,
            &DeltaPolicy::default(),
        )
    } else {
        store.0.ingest(name, version, segments, CHUNK_BYTES, meta)
    }
    .map_err(err)?;
    Ok(Ledger {
        logical: stats.bytes_logical,
        physical: stats.bytes_physical,
        deduped: stats.bytes_deduped,
        skipped: stats.bytes_skipped,
    })
}

pub fn store_materialize(store: &Store, name: &str, version: u64) -> Res<Vec<u8>> {
    store.0.materialize(name, version).map_err(err)
}

pub fn store_reader(store: &Store, name: &str, version: u64) -> Res<StoreReader> {
    store.0.reader(name, version).map(StoreReader).map_err(err)
}

pub fn store_reader_read(reader: &StoreReader, offset: u64, buf: &mut [u8]) -> Res<()> {
    reader.0.read_at(offset, buf).map_err(err)
}

pub fn store_remove(store: &Store, name: &str, version: u64) -> Res<()> {
    store.0.remove(name, version).map_err(err)
}

/// Returns pack bytes reclaimed.
pub fn store_gc(store: &Store) -> Res<u64> {
    store.0.gc().map(|s| s.bytes_reclaimed).map_err(err)
}

pub fn store_ledger(store: &Store) -> Ledger {
    let s = store.0.stats();
    Ledger {
        logical: s.bytes_logical,
        physical: s.bytes_physical - s.bytes_garbage,
        deduped: s.bytes_deduped,
        skipped: s.bytes_skipped,
    }
}

// ---- server --------------------------------------------------------------------

/// A daemon on a loopback TCP port, accept loop on its own thread.
pub struct Daemon {
    server: Arc<Server>,
    addr: SocketAddr,
    accept: Option<JoinHandle<std::io::Result<()>>>,
}

pub fn daemon_start(store_root: &Path) -> Res<Daemon> {
    let server = Arc::new(
        Server::start(ServerConfig {
            chunk_bytes: CHUNK_BYTES,
            error_bound: EPS,
            ..ServerConfig::rooted_at(store_root)
        })
        .map_err(err)?,
    );
    let transport = reprocmp_server::TcpTransport::bind("127.0.0.1:0").map_err(err)?;
    let addr = transport.addr();
    let accept = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || transport.run(&server))
    };
    Ok(Daemon {
        server,
        addr,
        accept: Some(accept),
    })
}

impl Daemon {
    /// Stops accepting, drains in-flight jobs, joins every daemon thread.
    /// All client sessions must be dropped first.
    pub fn stop(mut self) -> Res<()> {
        self.server.request_stop();
        let accept = self.accept.take().expect("stop runs once");
        accept
            .join()
            .map_err(|_| "accept loop panicked".to_owned())?
            .map_err(err)
    }

    /// `(admitted, refused)` since start.
    pub fn admission(&self) -> (u64, u64) {
        let s = self.server.queue().stats();
        (s.admitted, s.refused)
    }
}

/// One job as the wire carries it.
#[derive(Debug, Clone)]
pub enum Job {
    Compare {
        left: (String, u64),
        right: (String, u64),
    },
    Materialize {
        name: String,
        version: u64,
    },
    Ingest {
        name: String,
        version: u64,
        data: Vec<u8>,
    },
}

/// What a finished job reported.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    pub error: Option<String>,
    /// `stats.diff_count` of a compare.
    pub diff_count: Option<u64>,
    /// Hex payload of a materialize.
    pub data_hex: Option<String>,
    /// `(logical, physical, deduped, skipped)` of an ingest.
    pub ledger: Option<Ledger>,
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn field_u64(v: &Value, key: &str) -> Option<u64> {
    match field(v, key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn job_result(result: Result<Value, String>) -> JobResult {
    let value = match result {
        Ok(v) => v,
        Err(e) => {
            return JobResult {
                error: Some(e),
                ..JobResult::default()
            }
        }
    };
    let ledger = field_u64(&value, "bytes_logical").map(|logical| Ledger {
        logical,
        physical: field_u64(&value, "bytes_physical").unwrap_or(0),
        deduped: field_u64(&value, "bytes_deduped").unwrap_or(0),
        skipped: field_u64(&value, "bytes_skipped").unwrap_or(0),
    });
    JobResult {
        error: None,
        diff_count: field(&value, "stats").and_then(|s| field_u64(s, "diff_count")),
        data_hex: match field(&value, "data") {
            Some(Value::String(s)) => Some(s.clone()),
            _ => None,
        },
        ledger,
    }
}

fn object_ref(r: &(String, u64)) -> ObjectRef {
    ObjectRef {
        name: r.0.clone(),
        version: r.1,
    }
}

fn job_spec(job: &Job) -> JobSpec {
    match job {
        Job::Compare { left, right } => JobSpec::Compare {
            left: object_ref(left),
            right: object_ref(right),
        },
        Job::Materialize { name, version } => JobSpec::Materialize {
            name: name.clone(),
            version: *version,
        },
        Job::Ingest {
            name,
            version,
            data,
        } => JobSpec::Ingest {
            name: name.clone(),
            version: *version,
            chunk_bytes: CHUNK_BYTES,
            data: data.clone(),
        },
    }
}

/// `execute_spec` against the daemon's own store and engine: the job
/// without codec, queue, job table or transport.
pub fn execute_spec(daemon: &Daemon, job: &Job) -> JobResult {
    let outcome = reprocmp_server::execute_spec(
        daemon.server.store(),
        daemon.server.engine(),
        &job_spec(job),
    );
    job_result(outcome.result)
}

/// A client session; `serve` is the in-process server half, if any.
pub struct Client {
    session: Option<ServerClient>,
    serve: Option<JoinHandle<()>>,
}

/// `ServerClient::connect` over loopback TCP.
pub fn client_connect(daemon: &Daemon, name: &str) -> Res<Client> {
    Ok(Client {
        session: Some(ServerClient::connect(daemon.addr, name).map_err(err)?),
        serve: None,
    })
}

/// A session over `pair()`, served by `serve_connection` on a thread:
/// the same frames as TCP without the socket.
pub fn client_channel(daemon: &Daemon, name: &str) -> Res<Client> {
    let (client_end, mut server_end) = reprocmp_server::pair();
    let server = Arc::clone(&daemon.server);
    let serve = std::thread::spawn(move || {
        let _ = reprocmp_server::serve_connection(&server, &mut server_end);
    });
    let session = ServerClient::over(Box::new(client_end), name).map_err(err)?;
    Ok(Client {
        session: Some(session),
        serve: Some(serve),
    })
}

impl Client {
    fn session(&mut self) -> &mut ServerClient {
        self.session.as_mut().expect("session lives until drop")
    }

    /// Submits a job; returns its id, or the refusal.
    pub fn submit(&mut self, job: &Job) -> Res<u64> {
        let s = self.session();
        match job {
            Job::Compare { left, right } => s.compare(object_ref(left), object_ref(right)),
            Job::Materialize { name, version } => s.materialize(name, *version),
            Job::Ingest {
                name,
                version,
                data,
            } => s.ingest(name, *version, CHUNK_BYTES as u64, data),
        }
        .map_err(err)
    }

    /// Blocks (server-held) until the job is terminal.
    pub fn wait(&mut self, job: u64) -> Res<JobResult> {
        let status = self.session().wait(job).map_err(err)?;
        Ok(match status.error {
            Some(e) => job_result(Err(e)),
            None => job_result(
                status
                    .result
                    .ok_or_else(|| "job ended with no result".to_owned()),
            ),
        })
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Hang up first so an in-process server half sees EOF and ends.
        self.session = None;
        if let Some(serve) = self.serve.take() {
            let _ = serve.join();
        }
    }
}

pub fn hex_encode(bytes: &[u8]) -> String {
    reprocmp_server::proto::hex_encode(bytes)
}

pub fn hex_decode(hex: &str) -> Res<Vec<u8>> {
    reprocmp_server::proto::hex_decode(hex)
}

/// The wire frame payload of an ingest request carrying `data`.
pub fn encode_ingest_request(name: &str, version: u64, data: &[u8]) -> Vec<u8> {
    reprocmp_server::proto::encode(&reprocmp_server::Request::Ingest {
        name: name.to_owned(),
        version,
        chunk_bytes: CHUNK_BYTES as u64,
        data: hex_encode(data),
    })
}

/// Decodes a request frame payload; returns its verb.
pub fn decode_request(payload: &[u8]) -> Res<&'static str> {
    reprocmp_server::Request::decode(payload)
        .map(|r| r.type_name())
        .map_err(err)
}

/// `rounds` of enqueue → pop → finish through a fresh DRR queue shared
/// by two client lanes; returns operations completed.
pub fn queue_cycle(rounds: u64) -> Res<u64> {
    let queue = JobQueue::new(64, 8);
    for id in 0..rounds {
        let lane = if id % 2 == 0 { "a" } else { "b" };
        queue.enqueue(lane, id, 1).map_err(err)?;
        queue
            .try_pop()
            .ok_or_else(|| "queue lost an admitted job".to_owned())?;
        queue.finish();
    }
    Ok(rounds)
}
