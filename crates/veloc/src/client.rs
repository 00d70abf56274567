//! The asynchronous two-tier checkpointing client.
//!
//! [`Client::checkpoint`] is the application-facing call: it serializes
//! the protected regions and writes the file *synchronously* to the
//! scratch tier (fast node-local storage), then returns — the
//! simulation's critical path only ever pays the local write. A pool of
//! flush threads copies completed local files to the persistent tier
//! (the PFS) in the background; [`Client::wait`] blocks until a given
//! checkpoint is durable, and [`Client::wait_all`] drains everything
//! (call it before comparing runs).

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};
use reprocmp_io::{MutationKind, RetryPolicy};
use reprocmp_obs::{Counter, EventKind, Histogram, JournalSlot};
use reprocmp_store::{real_fs, ChunkStore, DeltaPolicy, StoreError, StoreFs};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::format::{decode_checkpoint, encode_checkpoint, read_region, CkptCodecError};

/// How flushes publish checkpoints into the capture store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CaptureMode {
    /// Every flush publishes a full manifest: each version is
    /// independently restorable and removable.
    #[default]
    Full,
    /// Flushes diff the checkpoint's chunk digests against the
    /// previous version's manifest and write only changed chunks,
    /// publishing copy-on-write *delta* manifests. Restores stay
    /// byte-exact; [`VelocConfig::delta_policy`] bounds chain length.
    Differential,
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct VelocConfig {
    /// Fast node-local tier (e.g. NVMe scratch).
    pub scratch_dir: PathBuf,
    /// Durable tier (the parallel file system).
    pub persistent_dir: PathBuf,
    /// Background flush threads.
    pub flush_threads: usize,
    /// Retry policy for background flushes. A flush is attempted up to
    /// `flush_retry.max_attempts` times with real backoff sleeps before
    /// the checkpoint is marked [`CheckpointState::Failed`].
    pub flush_retry: RetryPolicy,
    /// Optional persistent capture store. When set, every successful
    /// flush also ingests the checkpoint into the store, content-
    /// addressed and deduplicated against every earlier version and
    /// run; [`Client::recover`] and [`Client::restart_latest`] then
    /// treat store-resident versions as durable even if the flat PFS
    /// copy is gone.
    pub store: Option<Arc<ChunkStore>>,
    /// Chunk size for store ingestion (ignored without a store).
    pub store_chunk_bytes: usize,
    /// Full vs. differential store capture (ignored without a store).
    pub capture_mode: CaptureMode,
    /// Anchor cadence and depth cap for differential capture chains
    /// (ignored unless [`CaptureMode::Differential`]).
    pub delta_policy: DeltaPolicy,
    /// The filesystem seam background flushes cross when staging and
    /// publishing on the persistent tier. Production is the real
    /// filesystem; the crash-point torture harness swaps in a
    /// [`CrashFs`](reprocmp_store::CrashFs) to cut power mid-flush.
    pub fs: Arc<dyn StoreFs>,
}

impl VelocConfig {
    /// A config rooted at `base`, with `base/scratch` and `base/pfs`,
    /// no capture store.
    #[must_use]
    pub fn rooted_at(base: &Path) -> Self {
        VelocConfig {
            scratch_dir: base.join("scratch"),
            persistent_dir: base.join("pfs"),
            flush_threads: 2,
            flush_retry: RetryPolicy::with_attempts(3),
            store: None,
            store_chunk_bytes: 4096,
            capture_mode: CaptureMode::default(),
            delta_policy: DeltaPolicy::default(),
            fs: real_fs(),
        }
    }
}

/// Lifecycle of one checkpoint version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointState {
    /// Written to the scratch tier; flush pending or in flight.
    Local,
    /// Durable on the persistent tier.
    Flushed,
    /// The background flush failed (details in the error log).
    Failed,
}

/// Client errors.
#[derive(Debug)]
pub enum VelocError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// A restart found a checkpoint file it could not parse.
    Codec(CkptCodecError),
    /// [`Client::wait`] was called for a checkpoint never taken.
    UnknownCheckpoint {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
    /// The background flush for the awaited checkpoint failed.
    FlushFailed {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
}

impl std::fmt::Display for VelocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VelocError::Io(e) => write!(f, "checkpoint i/o failed: {e}"),
            VelocError::Codec(e) => write!(f, "checkpoint file invalid: {e}"),
            VelocError::UnknownCheckpoint { name, version } => {
                write!(f, "no checkpoint {name} v{version} was taken")
            }
            VelocError::FlushFailed { name, version } => {
                write!(f, "background flush of {name} v{version} failed")
            }
        }
    }
}

impl std::error::Error for VelocError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VelocError::Io(e) => Some(e),
            VelocError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for VelocError {
    fn from(e: std::io::Error) -> Self {
        VelocError::Io(e)
    }
}

impl From<CkptCodecError> for VelocError {
    fn from(e: CkptCodecError) -> Self {
        VelocError::Codec(e)
    }
}

/// Aggregate capture statistics (see [`Client::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Checkpoints taken through this client.
    pub checkpoints_taken: u64,
    /// Checkpoints durable on the persistent tier.
    pub flushed: u64,
    /// Checkpoints still waiting on their background flush.
    pub pending: u64,
    /// Checkpoints whose flush failed.
    pub failed: u64,
    /// Bytes currently on the scratch tier.
    pub scratch_bytes: u64,
    /// Bytes currently on the persistent tier.
    pub persistent_bytes: u64,
}

/// Capture/flush metrics (see [`Client::metrics`]).
///
/// Counters track the capture lifecycle (`checkpoints`, and
/// `completed` / `retried` / `gave_up` for the background copies); the
/// `flush_bytes` histogram records the size of every successful flush.
/// Handles are cheap atomics shared by the client's flush threads.
#[derive(Debug, Clone, Default)]
pub struct FlushMetrics {
    /// Checkpoints taken (local write succeeded).
    pub checkpoints: Counter,
    /// Background flushes that reached the persistent tier.
    pub completed: Counter,
    /// Flush attempts retried after a transient failure.
    pub retried: Counter,
    /// Flushes abandoned after the retry budget.
    pub gave_up: Counter,
    /// Bytes copied per successful flush.
    pub flush_bytes: Histogram,
    /// Flight-recorder slot: once a journal is [`set`](JournalSlot::set)
    /// in it, every flush outcome emits a `flush` event (destination
    /// file name, bytes copied, success) on the `veloc` lane.
    pub journal: JournalSlot,
}

type Key = (String, u64);

/// A restored checkpoint: its version plus each region's values by
/// name (see [`Client::restart_latest`]).
pub type RestoredCheckpoint = (u64, HashMap<String, Vec<f32>>);

#[derive(Debug, Default)]
struct Tracker {
    states: Mutex<HashMap<Key, CheckpointState>>,
    changed: Condvar,
}

/// The checkpointing client. Cheap to share behind an `Arc`; all
/// methods take `&self`.
#[derive(Debug)]
pub struct Client {
    config: VelocConfig,
    tracker: Arc<Tracker>,
    flush_tx: Option<Sender<(Key, PathBuf, PathBuf)>>,
    flushers: Vec<JoinHandle<()>>,
    metrics: FlushMetrics,
}

impl Client {
    /// Creates the tier directories and starts the flush pool; its
    /// metrics are read through [`Client::metrics`].
    ///
    /// # Errors
    ///
    /// Directory creation failures.
    pub fn new(config: VelocConfig) -> Result<Self, VelocError> {
        let metrics = FlushMetrics::default();
        std::fs::create_dir_all(&config.scratch_dir)?;
        std::fs::create_dir_all(&config.persistent_dir)?;
        let tracker = Arc::new(Tracker::default());
        let (tx, rx) = unbounded::<(Key, PathBuf, PathBuf)>();
        let mut flushers = Vec::new();
        let retry = config.flush_retry;
        let chunk_bytes = config.store_chunk_bytes;
        let mode = config.capture_mode;
        let policy = config.delta_policy;
        for _ in 0..config.flush_threads.max(1) {
            let rx = rx.clone();
            let tracker = Arc::clone(&tracker);
            let metrics = metrics.clone();
            let store = config.store.clone();
            let fs = Arc::clone(&config.fs);
            flushers.push(std::thread::spawn(move || {
                while let Ok((key, from, to)) = rx.recv() {
                    let ok = flush_file(fs.as_ref(), &from, &to, &retry, &metrics);
                    if ok {
                        capture_into_store(store.as_deref(), &key, &to, chunk_bytes, mode, &policy);
                    }
                    let mut states = tracker.states.lock();
                    states.insert(
                        key,
                        if ok {
                            CheckpointState::Flushed
                        } else {
                            CheckpointState::Failed
                        },
                    );
                    tracker.changed.notify_all();
                }
            }));
        }
        Ok(Client {
            config,
            tracker,
            flush_tx: Some(tx),
            flushers,
            metrics,
        })
    }

    /// The client's live metric handles.
    #[must_use]
    pub fn metrics(&self) -> &FlushMetrics {
        &self.metrics
    }

    fn file_name(name: &str, version: u64) -> String {
        format!("{name}.v{version:06}.ckpt")
    }

    /// Parses a `{name}.v{version}.ckpt` file name back into its key.
    fn parse_file_name(fname: &str) -> Option<(String, u64)> {
        let stem = fname.strip_suffix(".ckpt")?;
        let dot_v = stem.rfind(".v")?;
        let version = stem[dot_v + 2..].parse::<u64>().ok()?;
        Some((stem[..dot_v].to_owned(), version))
    }

    /// Path of a checkpoint on the persistent tier (present only after
    /// its flush completed).
    #[must_use]
    pub fn persistent_path(&self, name: &str, version: u64) -> PathBuf {
        self.config
            .persistent_dir
            .join(Self::file_name(name, version))
    }

    /// Path of a checkpoint on the scratch tier.
    #[must_use]
    fn scratch_path(&self, name: &str, version: u64) -> PathBuf {
        self.config.scratch_dir.join(Self::file_name(name, version))
    }

    /// Captures `regions` as checkpoint `name`/`version`.
    ///
    /// Synchronous local write; asynchronous flush to the persistent
    /// tier. Returns as soon as the local file is durable on scratch.
    ///
    /// # Errors
    ///
    /// Local-tier write failures (flush failures surface via
    /// [`Client::wait`]).
    pub fn checkpoint(
        &self,
        name: &str,
        version: u64,
        regions: &[(&str, &[f32])],
    ) -> Result<(), VelocError> {
        let bytes = encode_checkpoint(version, regions);
        let local = self.scratch_path(name, version);
        std::fs::write(&local, &bytes)?;
        self.metrics.checkpoints.inc();

        let key = (name.to_owned(), version);
        self.tracker
            .states
            .lock()
            .insert(key.clone(), CheckpointState::Local);
        let remote = self.persistent_path(name, version);
        if let Some(tx) = &self.flush_tx {
            // Worker pool outlives senders only if we keep tx; a send
            // failure means we are shutting down — flush inline then.
            if tx
                .send((key.clone(), local.clone(), remote.clone()))
                .is_err()
            {
                let ok = flush_file(
                    self.config.fs.as_ref(),
                    &local,
                    &remote,
                    &self.config.flush_retry,
                    &self.metrics,
                );
                if ok {
                    capture_into_store(
                        self.config.store.as_deref(),
                        &key,
                        &remote,
                        self.config.store_chunk_bytes,
                        self.config.capture_mode,
                        &self.config.delta_policy,
                    );
                }
                self.tracker.states.lock().insert(
                    key,
                    if ok {
                        CheckpointState::Flushed
                    } else {
                        CheckpointState::Failed
                    },
                );
                self.tracker.changed.notify_all();
            }
        }
        Ok(())
    }

    /// Crash recovery: reconciles the two tiers after a restart.
    ///
    /// Removes orphaned `*.tmp` files left by flushes that were
    /// interrupted mid-copy (the atomic rename never happened, so the
    /// persistent tier holds no torn checkpoint), then scans the
    /// scratch tier: every checkpoint already durable — as a flat PFS
    /// file *or* as a capture-store manifest when a store is
    /// configured — is adopted as [`CheckpointState::Flushed`]; every
    /// local-only checkpoint is re-enqueued for background flush.
    /// Returns the re-enqueued `(name, version)` keys, sorted.
    ///
    /// # Errors
    ///
    /// Directory listing or file removal failures.
    pub fn recover(&self) -> Result<Vec<(String, u64)>, VelocError> {
        let attached = self.config.store.as_deref();
        // 1. Sweep torn temporaries off the persistent tier.
        for entry in std::fs::read_dir(&self.config.persistent_dir)? {
            let entry = entry?;
            if entry.file_name().to_string_lossy().ends_with(".tmp") {
                std::fs::remove_file(entry.path())?;
            }
        }
        // 2. Re-adopt every scratch checkpoint.
        let mut requeued = Vec::new();
        for entry in std::fs::read_dir(&self.config.scratch_dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let Some((name, version)) = Self::parse_file_name(&fname.to_string_lossy()) else {
                continue;
            };
            let key = (name.clone(), version);
            let remote = self.persistent_path(&name, version);
            let store_durable = attached.is_some_and(|s| s.contains(&name, version));
            if remote.exists() || store_durable {
                self.tracker
                    .states
                    .lock()
                    .entry(key)
                    .or_insert(CheckpointState::Flushed);
            } else {
                self.tracker
                    .states
                    .lock()
                    .insert(key.clone(), CheckpointState::Local);
                if let Some(tx) = &self.flush_tx {
                    if tx
                        .send((key.clone(), entry.path(), remote.clone()))
                        .is_err()
                    {
                        let ok = flush_file(
                            self.config.fs.as_ref(),
                            &entry.path(),
                            &remote,
                            &self.config.flush_retry,
                            &self.metrics,
                        );
                        if ok {
                            capture_into_store(
                                attached,
                                &key,
                                &remote,
                                self.config.store_chunk_bytes,
                                self.config.capture_mode,
                                &self.config.delta_policy,
                            );
                        }
                        self.tracker.states.lock().insert(
                            (name.clone(), version),
                            if ok {
                                CheckpointState::Flushed
                            } else {
                                CheckpointState::Failed
                            },
                        );
                        self.tracker.changed.notify_all();
                    }
                }
                requeued.push((name, version));
            }
        }
        requeued.sort();
        Ok(requeued)
    }

    /// Blocks until checkpoint `name`/`version` is durable.
    ///
    /// # Errors
    ///
    /// [`VelocError::UnknownCheckpoint`] if it was never taken;
    /// [`VelocError::FlushFailed`] if its background flush failed.
    pub fn wait(&self, name: &str, version: u64) -> Result<(), VelocError> {
        let key = (name.to_owned(), version);
        let mut states = self.tracker.states.lock();
        loop {
            match states.get(&key) {
                None => {
                    return Err(VelocError::UnknownCheckpoint {
                        name: name.to_owned(),
                        version,
                    })
                }
                Some(CheckpointState::Flushed) => return Ok(()),
                Some(CheckpointState::Failed) => {
                    return Err(VelocError::FlushFailed {
                        name: name.to_owned(),
                        version,
                    })
                }
                Some(CheckpointState::Local) => self.tracker.changed.wait(&mut states),
            }
        }
    }

    /// Aggregate tier statistics — how much the capture path has
    /// written and what is still in flight.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        let states = self.tracker.states.lock();
        let mut stats = ClientStats::default();
        for state in states.values() {
            stats.checkpoints_taken += 1;
            match state {
                CheckpointState::Local => stats.pending += 1,
                CheckpointState::Flushed => stats.flushed += 1,
                CheckpointState::Failed => stats.failed += 1,
            }
        }
        drop(states);
        let dir_bytes = |dir: &std::path::Path| -> u64 {
            std::fs::read_dir(dir)
                .map(|entries| {
                    entries
                        .filter_map(Result::ok)
                        .filter_map(|e| e.metadata().ok())
                        .map(|m| m.len())
                        .sum()
                })
                .unwrap_or(0)
        };
        stats.scratch_bytes = dir_bytes(&self.config.scratch_dir);
        stats.persistent_bytes = dir_bytes(&self.config.persistent_dir);
        stats
    }

    /// Blocks until every checkpoint taken so far is durable.
    ///
    /// # Errors
    ///
    /// The first flush failure observed.
    pub fn wait_all(&self) -> Result<(), VelocError> {
        let keys: Vec<Key> = self.tracker.states.lock().keys().cloned().collect();
        for (name, version) in keys {
            self.wait(&name, version)?;
        }
        Ok(())
    }

    /// Versions of `name` durable on the persistent tier — the union
    /// of flat PFS files and capture-store manifests when a store is
    /// configured — ascending.
    ///
    /// # Errors
    ///
    /// Directory listing failures.
    fn versions(&self, name: &str) -> Result<Vec<u64>, VelocError> {
        let prefix = format!("{name}.v");
        let mut versions = Vec::new();
        for entry in std::fs::read_dir(&self.config.persistent_dir)? {
            let entry = entry?;
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            if let Some(rest) = fname.strip_prefix(&prefix) {
                if let Some(num) = rest.strip_suffix(".ckpt") {
                    if let Ok(v) = num.parse::<u64>() {
                        versions.push(v);
                    }
                }
            }
        }
        if let Some(store) = &self.config.store {
            versions.extend(store.versions(name));
        }
        versions.sort_unstable();
        versions.dedup();
        Ok(versions)
    }

    /// Restores the newest durable version of `name`, returning the
    /// version and each region's values by name; `Ok(None)` when no
    /// version exists. Prefers the flat PFS file; a version whose flat
    /// copy is gone but that lives in the capture store is materialized
    /// from its packs byte-exactly.
    ///
    /// # Errors
    ///
    /// I/O or decode failures; [`VelocError::UnknownCheckpoint`] if the version vanished from
    /// every tier between listing and reading (no tier holds it now).
    pub fn restart_latest(&self, name: &str) -> Result<Option<RestoredCheckpoint>, VelocError> {
        let Some(&version) = self.versions(name)?.last() else {
            return Ok(None);
        };
        let flat = self.persistent_path(name, version);
        let bytes = if flat.exists() {
            std::fs::read(flat)?
        } else {
            // The flat copy is gone, so the listing came from a store
            // tier — but never trust that race-free: surface a typed
            // error instead of panicking if no tier holds it anymore.
            let store =
                self.config
                    .store
                    .as_ref()
                    .ok_or_else(|| VelocError::UnknownCheckpoint {
                        name: name.to_owned(),
                        version,
                    })?;
            store.materialize(name, version).map_err(|e| match e {
                StoreError::NotFound { name, version } => {
                    VelocError::UnknownCheckpoint { name, version }
                }
                other => VelocError::Io(store_io_error(other)),
            })?
        };
        let file = decode_checkpoint(&bytes)?;
        let mut regions = HashMap::new();
        for r in &file.regions {
            regions.insert(r.name.clone(), read_region(&bytes, &file, &r.name)?);
        }
        Ok(Some((file.checkpoint_version, regions)))
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        self.flush_tx.take();
        for h in self.flushers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Flattens a store failure into `std::io::Error` for [`VelocError::Io`].
fn store_io_error(e: StoreError) -> std::io::Error {
    match e {
        StoreError::Io(io) => io,
        other => std::io::Error::other(other.to_string()),
    }
}

/// Ingests a freshly flushed checkpoint into the capture store, one
/// segment per region plus a leading header segment, so identical
/// regions across versions and runs are stored once. Under
/// [`CaptureMode::Differential`] the ingest goes through the store's
/// delta path: chunks identical to the previous version's manifest are
/// skipped at flush time and the manifest is published copy-on-write
/// (full anchors forced by `policy`). Best-effort: the checkpoint is
/// already durable on the PFS, so a store failure is swallowed (the
/// next `ingest` CLI run or flush retries it) and an already-present
/// version (crash-recovery re-flush) counts as done.
fn capture_into_store(
    store: Option<&ChunkStore>,
    key: &Key,
    flushed: &Path,
    chunk_bytes: usize,
    mode: CaptureMode,
    policy: &DeltaPolicy,
) {
    let Some(store) = store else { return };
    let (name, version) = key;
    let Ok(bytes) = std::fs::read(flushed) else {
        return;
    };
    let Ok(file) = decode_checkpoint(&bytes) else {
        return;
    };
    let segments = file.segments(&bytes);
    let _ = match mode {
        CaptureMode::Full => store.ingest(name, *version, &segments, chunk_bytes, &[]),
        CaptureMode::Differential => {
            store.ingest_delta(name, *version, &segments, chunk_bytes, &[], policy)
        }
    };
}

/// `to` with `.tmp` appended to its extension.
fn tmp_path(to: &Path) -> PathBuf {
    let mut os = to.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Crash-consistent, retrying flush: copy to `{to}.tmp`, then atomic
/// rename — both through the store's filesystem seam, so the torture
/// harness can cut power at either boundary. A crash mid-copy leaves
/// only a `.tmp` orphan (swept by [`Client::recover`]); the destination
/// either doesn't exist or is a complete checkpoint. Filesystem errors
/// don't distinguish transient from permanent causes, so every failure
/// is retried up to the policy's attempt budget with real backoff
/// sleeps.
fn flush_file(
    fs: &dyn StoreFs,
    from: &Path,
    to: &Path,
    retry: &RetryPolicy,
    metrics: &FlushMetrics,
) -> bool {
    let tmp = tmp_path(to);
    let attempts = retry.max_attempts.max(1);
    let flush_event = |bytes: u64, ok: bool| {
        let name = to
            .file_name()
            .map_or_else(|| to.display().to_string(), |n| n.to_string_lossy().into());
        metrics
            .journal
            .emit("veloc", EventKind::Flush { name, bytes, ok });
    };
    for attempt in 1..=attempts {
        let result = std::fs::read(from).and_then(|bytes| {
            fs.write_tmp(&tmp, &bytes, MutationKind::TmpWrite)?;
            fs.publish(&tmp, to, MutationKind::Rename)?;
            Ok(bytes.len() as u64)
        });
        match result {
            Ok(copied) => {
                metrics.completed.inc();
                metrics.flush_bytes.record(copied);
                flush_event(copied, true);
                return true;
            }
            Err(_) if attempt < attempts => {
                metrics.retried.inc();
                std::thread::sleep(retry.backoff(attempt));
            }
            Err(_) => {
                metrics.gave_up.inc();
                std::fs::remove_file(&tmp).ok();
                flush_event(0, false);
                return false;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_obs::Journal;

    fn state(client: &Client, name: &str, version: u64) -> Option<CheckpointState> {
        let key = (name.to_owned(), version);
        client.tracker.states.lock().get(&key).copied()
    }

    fn temp_client(tag: &str) -> (Client, PathBuf) {
        let base =
            std::env::temp_dir().join(format!("reprocmp-veloc-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();
        (client, base)
    }

    fn field(n: usize, scale: f32) -> Vec<f32> {
        (0..n).map(|i| i as f32 * scale).collect()
    }

    #[test]
    fn checkpoint_then_wait_then_restart() {
        let (client, base) = temp_client("basic");
        let x = field(1000, 0.25);
        let v = field(1000, -0.5);
        client
            .checkpoint("hacc.rank0", 10, &[("x", &x), ("vx", &v)])
            .unwrap();
        client.wait("hacc.rank0", 10).unwrap();
        assert_eq!(
            state(&client, "hacc.rank0", 10),
            Some(CheckpointState::Flushed)
        );

        let (ver, regions) = client.restart_latest("hacc.rank0").unwrap().unwrap();
        assert_eq!(ver, 10);
        assert_eq!(regions["x"], x);
        assert_eq!(regions["vx"], v);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn restart_picks_newest_version() {
        let (client, base) = temp_client("versions");
        for ver in [10u64, 20, 30, 40] {
            let data = field(64, ver as f32);
            client.checkpoint("sim", ver, &[("x", &data)]).unwrap();
        }
        client.wait_all().unwrap();
        assert_eq!(client.versions("sim").unwrap(), vec![10, 20, 30, 40]);
        let (ver, regions) = client.restart_latest("sim").unwrap().unwrap();
        assert_eq!(ver, 40);
        assert_eq!(regions["x"][1], 40.0);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn local_file_exists_immediately_after_checkpoint() {
        let (client, base) = temp_client("local");
        client
            .checkpoint("a", 1, &[("x", &field(16, 1.0))])
            .unwrap();
        assert!(client.scratch_path("a", 1).exists());
        client.wait("a", 1).unwrap();
        assert!(client.persistent_path("a", 1).exists());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn wait_for_unknown_checkpoint_errors() {
        let (client, base) = temp_client("unknown");
        let err = client.wait("ghost", 3).unwrap_err();
        assert!(matches!(err, VelocError::UnknownCheckpoint { .. }));
        assert!(err.to_string().contains("ghost"));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn restart_with_no_checkpoints_is_none() {
        let (client, base) = temp_client("none");
        assert!(client.restart_latest("nothing").unwrap().is_none());
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn many_names_do_not_interfere() {
        let (client, base) = temp_client("names");
        for rank in 0..4 {
            let name = format!("run1.rank{rank}");
            client
                .checkpoint(&name, 10, &[("x", &field(32, rank as f32 + 1.0))])
                .unwrap();
        }
        client.wait_all().unwrap();
        for rank in 0..4 {
            let name = format!("run1.rank{rank}");
            let (_, regions) = client.restart_latest(&name).unwrap().unwrap();
            assert_eq!(regions["x"][1], rank as f32 + 1.0, "rank {rank}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn concurrent_checkpoints_from_many_threads() {
        let (client, base) = temp_client("threads");
        let client = std::sync::Arc::new(client);
        std::thread::scope(|s| {
            for t in 0..8 {
                let client = std::sync::Arc::clone(&client);
                s.spawn(move || {
                    let name = format!("par.rank{t}");
                    for ver in [10u64, 20] {
                        client
                            .checkpoint(&name, ver, &[("x", &field(128, t as f32))])
                            .unwrap();
                    }
                });
            }
        });
        client.wait_all().unwrap();
        for t in 0..8 {
            let name = format!("par.rank{t}");
            assert_eq!(client.versions(&name).unwrap().len(), 2, "rank {t}");
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn stats_track_the_capture_lifecycle() {
        let (client, base) = temp_client("stats");
        assert_eq!(client.stats(), ClientStats::default());
        for v in [1u64, 2, 3] {
            client
                .checkpoint("s", v, &[("x", &field(256, 1.0))])
                .unwrap();
        }
        client.wait_all().unwrap();
        let stats = client.stats();
        assert_eq!(stats.checkpoints_taken, 3);
        assert_eq!(stats.flushed, 3);
        assert_eq!(stats.pending, 0);
        assert_eq!(stats.failed, 0);
        assert!(stats.scratch_bytes > 0);
        assert_eq!(stats.scratch_bytes, stats.persistent_bytes);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn registry_metrics_mirror_the_flush_lifecycle() {
        let base =
            std::env::temp_dir().join(format!("reprocmp-veloc-metrics-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();
        for v in [1u64, 2, 3] {
            client
                .checkpoint("m", v, &[("x", &field(256, 1.0))])
                .unwrap();
        }
        client.wait_all().unwrap();
        let metrics = client.metrics();
        assert_eq!(metrics.checkpoints.get(), 3);
        assert_eq!(metrics.completed.get(), 3);
        assert_eq!(metrics.gave_up.get(), 0);
        let h = metrics.flush_bytes.snapshot();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, client.stats().persistent_bytes);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn journaling_metrics_record_flush_events() {
        let base =
            std::env::temp_dir().join(format!("reprocmp-veloc-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let journal = Journal::new(reprocmp_obs::ObsClock::wall());
        let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();
        client.metrics().journal.set(journal.clone());
        client
            .checkpoint("j", 1, &[("x", &field(128, 1.0))])
            .unwrap();
        client.wait_all().unwrap();
        let events = journal.events();
        let flushes: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Flush { .. }))
            .collect();
        assert_eq!(flushes.len(), 1);
        assert_eq!(flushes[0].lane, "veloc");
        match &flushes[0].kind {
            EventKind::Flush { name, bytes, ok } => {
                assert!(name.contains("j"), "destination file name: {name}");
                assert!(*bytes > 0);
                assert!(ok);
            }
            _ => unreachable!(),
        }
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn parse_file_name_round_trips() {
        assert_eq!(
            Client::parse_file_name("hacc.rank0.v000010.ckpt"),
            Some(("hacc.rank0".to_owned(), 10))
        );
        assert_eq!(
            Client::parse_file_name(&Client::file_name("sim", 3)),
            Some(("sim".to_owned(), 3))
        );
        assert_eq!(Client::parse_file_name("sim.v000003.ckpt.tmp"), None);
        assert_eq!(Client::parse_file_name("notes.txt"), None);
        assert_eq!(Client::parse_file_name("sim.vNaN.ckpt"), None);
    }

    #[test]
    fn flush_leaves_no_temporaries_behind() {
        let (client, base) = temp_client("atomic");
        for v in [1u64, 2, 3] {
            client
                .checkpoint("s", v, &[("x", &field(256, 1.0))])
                .unwrap();
        }
        client.wait_all().unwrap();
        let leftovers: Vec<String> = std::fs::read_dir(base.join("pfs"))
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| !n.ends_with(".ckpt"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "non-checkpoint files on pfs: {leftovers:?}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn recover_on_clean_state_is_a_noop() {
        let (client, base) = temp_client("cleanrec");
        client
            .checkpoint("s", 1, &[("x", &field(64, 1.0))])
            .unwrap();
        client.wait_all().unwrap();
        assert_eq!(client.recover().unwrap(), vec![]);
        assert_eq!(client.versions("s").unwrap(), vec![1]);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn recover_requeues_local_only_checkpoints_and_sweeps_tmp() {
        let base =
            std::env::temp_dir().join(format!("reprocmp-veloc-crash-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let config = VelocConfig::rooted_at(&base);
        {
            let client = Client::new(config.clone()).unwrap();
            for v in [1u64, 2, 3] {
                client
                    .checkpoint("sim", v, &[("x", &field(128, v as f32))])
                    .unwrap();
            }
            client.wait_all().unwrap();
        }
        // Simulate a crash that struck after v1 was durable: v2 and v3
        // never made it to the PFS, and v3's flush died mid-copy,
        // leaving a torn temporary.
        let pfs = base.join("pfs");
        std::fs::remove_file(pfs.join("sim.v000002.ckpt")).unwrap();
        std::fs::remove_file(pfs.join("sim.v000003.ckpt")).unwrap();
        std::fs::write(pfs.join("sim.v000003.ckpt.tmp"), b"torn partial copy").unwrap();

        let client = Client::new(config).unwrap();
        let requeued = client.recover().unwrap();
        assert_eq!(requeued, vec![("sim".to_owned(), 2), ("sim".to_owned(), 3)]);
        client.wait_all().unwrap();
        assert_eq!(client.versions("sim").unwrap(), vec![1, 2, 3]);
        let (ver, regions) = client.restart_latest("sim").unwrap().unwrap();
        assert_eq!(ver, 3);
        assert_eq!(regions["x"][1], 3.0);
        assert!(
            !pfs.join("sim.v000003.ckpt.tmp").exists(),
            "orphaned temporary swept"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    fn temp_store_client(tag: &str) -> (Client, Arc<ChunkStore>, PathBuf) {
        let base =
            std::env::temp_dir().join(format!("reprocmp-veloc-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&base).ok();
        let store = Arc::new(ChunkStore::open(&base.join("store")).unwrap());
        let config = VelocConfig {
            store: Some(Arc::clone(&store)),
            store_chunk_bytes: 256,
            ..VelocConfig::rooted_at(&base)
        };
        (Client::new(config).unwrap(), store, base)
    }

    #[test]
    fn flush_captures_into_the_store_with_dedup() {
        let (client, store, base) = temp_store_client("capture");
        let x = field(1024, 0.5);
        // Three iterations of identical data: the store holds the
        // chunk set once.
        for v in [1u64, 2, 3] {
            client.checkpoint("sim", v, &[("x", &x)]).unwrap();
        }
        client.wait_all().unwrap();
        assert_eq!(store.versions("sim"), vec![1, 2, 3]);
        let stats = store.stats();
        assert_eq!(stats.objects, 3);
        assert!(
            stats.bytes_physical < stats.bytes_logical,
            "iterations dedup: {} physical vs {} logical",
            stats.bytes_physical,
            stats.bytes_logical
        );
        // Store bytes reproduce the flushed file exactly.
        let flat = std::fs::read(client.persistent_path("sim", 2)).unwrap();
        assert_eq!(store.materialize("sim", 2).unwrap(), flat);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn restart_falls_back_to_the_store_when_flat_copy_is_gone() {
        let (client, _store, base) = temp_store_client("fallback");
        let x = field(300, 1.5);
        client.checkpoint("s", 7, &[("x", &x)]).unwrap();
        client.wait_all().unwrap();
        std::fs::remove_file(client.persistent_path("s", 7)).unwrap();
        assert_eq!(client.versions("s").unwrap(), vec![7]);
        let (ver, regions) = client.restart_latest("s").unwrap().unwrap();
        assert_eq!(ver, 7);
        assert_eq!(regions["x"], x);
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn recover_treats_store_resident_versions_as_durable() {
        let base = std::env::temp_dir().join(format!(
            "reprocmp-veloc-store-recover-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&base).ok();
        let store = Arc::new(ChunkStore::open(&base.join("store")).unwrap());
        let config = VelocConfig {
            store: Some(Arc::clone(&store)),
            ..VelocConfig::rooted_at(&base)
        };
        {
            let client = Client::new(config.clone()).unwrap();
            client
                .checkpoint("r", 1, &[("x", &field(64, 2.0))])
                .unwrap();
            client.wait_all().unwrap();
        }
        // Crash aftermath: the flat PFS copy is lost but the store
        // kept the version — recovery adopts it instead of re-flushing.
        std::fs::remove_file(base.join("pfs").join("r.v000001.ckpt")).unwrap();
        let client = Client::new(config).unwrap();
        assert_eq!(client.recover().unwrap(), vec![]);
        assert_eq!(state(&client, "r", 1), Some(CheckpointState::Flushed));
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn checkpoint_files_parse_as_canonical_format() {
        let (client, base) = temp_client("format");
        let x = field(100, 2.0);
        client.checkpoint("fmt", 5, &[("x", &x)]).unwrap();
        client.wait("fmt", 5).unwrap();
        let bytes = std::fs::read(client.persistent_path("fmt", 5)).unwrap();
        let file = crate::format::decode_checkpoint(&bytes).unwrap();
        assert_eq!(file.checkpoint_version, 5);
        assert_eq!(file.payload_len / 4, 100);
        std::fs::remove_dir_all(&base).ok();
    }
}
