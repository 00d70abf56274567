//! The [`ChunkStore`] facade: ingest, materialize, GC, compaction,
//! scrub, and fsck/repair.
//!
//! On-disk layout under the store root:
//!
//! ```text
//! root/
//!   index.bin            digest → (pack, offset, len, refcount)
//!   journal.bin          write-ahead intent journal (multi-file atomicity)
//!   quarantine.bin       ids of packs with unrecoverable corruption
//!   packs/pack-NNNNNN.pack
//!   manifests/{name}.vNNNNNN.manifest
//! ```
//!
//! Every file is individually crash-consistent (`.tmp` + fsync +
//! rename, all through the [`StoreFs`] seam so the torture harness can
//! cut power at any boundary). Multi-file operations — `ingest`
//! publishes a pack and a manifest and changes the index; `gc` swaps
//! the index and unlinks packs; `compact` seals a pack, swaps the
//! index, and unlinks the sources — bracket their mutations with
//! intent-journal *begin*/*commit* records. `index.bin` is a
//! checkpoint of the in-memory index, written on clean close and at a
//! geometric cadence rather than per operation, with the journal reset
//! behind it; [`ChunkStore::open`] replays any pending intent (undoing
//! a half-done ingest's orphan pack, redoing a GC's unlinks, finishing
//! a remove) and, whenever the journal shows operations after the
//! checkpoint, rebuilds the index from the authoritative packs +
//! manifests, so a crash at *any* mutation boundary recovers to a
//! state where every committed checkpoint materializes byte-exactly
//! and the dedup ledger balances.
//!
//! Sealed packs carry interleaved XOR parity (see [`crate::pack`]):
//! [`ChunkStore::fsck`] re-hashes every chunk and, with `repair`,
//! reconstructs any single corrupt chunk per parity group in place.
//! Packs with unrecoverable corruption are **quarantined**: their
//! chunks are excluded from dedup (new ingests re-store and repoint
//! them) and served verify-on-read, so a comparison over a degraded
//! store completes with exactly the rotten chunks reported as
//! `unverified` instead of aborting or silently trusting bad bytes.

use crate::fs::{real_fs, StoreFs};
use crate::index::{load_index, save_index, Index, IndexEntry};
use crate::journal::{encode_record, pending_intents, read_journal, IntentRecord, JOURNAL_FILE};
use crate::manifest::{manifest_file_name, Manifest, ManifestKind, Segment};
use crate::metrics::StoreMetrics;
use crate::pack::{
    pack_file_name, parse_pack, parse_pack_file_name, repair_pack, scan_pack, write_pack,
    DEFAULT_PARITY_GROUP_WIDTH,
};
use crate::storage::StoreStorage;
use crate::wire::Cursor;
use crate::{StoreError, StoreResult};
use parking_lot::Mutex;
use reprocmp_hash::{raw_chunk_digest, Digest128};
use reprocmp_io::MutationKind;
use reprocmp_obs::{EventKind, JournalSlot};
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Quarantine ledger file magic bytes.
const QUARANTINE_MAGIC: &[u8; 8] = b"RCMPQUAR";

/// File name of the quarantine ledger within the store root.
pub const QUARANTINE_FILE: &str = "quarantine.bin";

/// File name of the advisory lock within the store root. Present iff
/// some process opened the store exclusively (see
/// [`ChunkStore::open_exclusive`]); its contents are the owner tag.
pub const LOCK_FILE: &str = "store.lock";

/// Store-wide tunables. The default is what production callers want;
/// the torture harness swaps in a crash-injecting [`StoreFs`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Data chunks per XOR parity group in sealed packs. `0` disables
    /// parity (legacy v1 packs, repairable never).
    pub parity_group_width: u32,
    /// The filesystem seam every mutation crosses.
    pub fs: Arc<dyn StoreFs>,
    /// When set, the open acquires the store-root advisory lock under
    /// this owner tag (and releases it on drop). Any open — exclusive
    /// or not — fails with [`StoreError::Locked`] while another
    /// process holds the lock.
    pub exclusive_owner: Option<String>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            parity_group_width: DEFAULT_PARITY_GROUP_WIDTH,
            fs: real_fs(),
            exclusive_owner: None,
        }
    }
}

impl StoreConfig {
    /// The default config with `fs` as the filesystem seam.
    #[must_use]
    pub fn with_fs(fs: Arc<dyn StoreFs>) -> Self {
        StoreConfig {
            fs,
            ..StoreConfig::default()
        }
    }

    /// Requests exclusive ownership under `owner` (recorded in the
    /// lock file so contending processes can name the holder).
    #[must_use]
    pub fn exclusive(mut self, owner: impl Into<String>) -> Self {
        self.exclusive_owner = Some(owner.into());
        self
    }
}

/// Bounds on differential-capture chains (see
/// [`ChunkStore::ingest_delta`]). Both knobs force a *full* anchor
/// manifest when exceeded, bounding how many links a restore must
/// trust and how long a parent stays pinned by its descendants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DeltaPolicy {
    /// Full-anchor cadence: a chain never grows past `anchor_every`
    /// manifests (anchor included), so `anchor_every = 1` disables
    /// differential capture entirely.
    pub anchor_every: u64,
    /// Hard cap on restore depth: a delta is never written at depth
    /// greater than this many links below its anchor.
    pub max_depth: u64,
}

impl Default for DeltaPolicy {
    fn default() -> Self {
        DeltaPolicy {
            anchor_every: 8,
            max_depth: 16,
        }
    }
}

impl DeltaPolicy {
    /// Would a delta at `depth` (parent depth + 1) violate the policy?
    #[must_use]
    pub fn forces_anchor(&self, depth: u64) -> bool {
        depth >= self.anchor_every || depth > self.max_depth
    }
}

/// What one [`ChunkStore::ingest`] call did, and the exact ledger for
/// it: `bytes_logical == bytes_physical + bytes_deduped +
/// bytes_skipped` (the skipped terms are zero for full ingests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IngestStats {
    /// Total chunk references the manifest records.
    pub chunk_refs: u64,
    /// Chunks written to a new pack (first occurrence anywhere).
    pub chunks_stored: u64,
    /// Chunk references satisfied by already-stored chunks.
    pub chunks_deduped: u64,
    /// Chunk references skipped at capture time because the parent
    /// manifest already held the identical chunk (delta ingests only).
    pub chunks_skipped: u64,
    /// Logical bytes ingested (sum of segment lengths).
    pub bytes_logical: u64,
    /// Chunk payload bytes physically appended.
    pub bytes_physical: u64,
    /// Bytes deduplicated away against already-stored chunks.
    pub bytes_deduped: u64,
    /// Bytes never hashed against the index at all: capture-time skips
    /// borrowed from the parent chain (delta ingests only).
    pub bytes_skipped: u64,
    /// Id of the pack this ingest created, if any chunk was new.
    pub pack: Option<u32>,
    /// Parent version when a delta manifest was written, else `None`
    /// (full capture, whether requested or forced by policy).
    pub parent: Option<u64>,
    /// Chain depth of the written manifest (0 for full).
    pub depth: u64,
}

/// What one [`ChunkStore::gc`] sweep reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct GcStats {
    /// Packs deleted (every chunk at refcount 0, or unindexed).
    pub packs_deleted: u64,
    /// Index entries dropped with those packs.
    pub chunks_dropped: u64,
    /// Pack file bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// What one [`ChunkStore::compact`] pass migrated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CompactStats {
    /// Source packs rewritten away (mixed live/dead packs unlinked).
    pub packs_rewritten: u64,
    /// Live chunks migrated into the new pack.
    pub chunks_migrated: u64,
    /// Live chunk bytes migrated.
    pub bytes_migrated: u64,
    /// Pack file bytes reclaimed (sources unlinked minus the new pack).
    pub bytes_reclaimed: u64,
    /// Id of the pack the live chunks landed in, if anything moved.
    pub pack: Option<u32>,
}

/// One chunk whose stored bytes no longer hash to their content
/// address — bit rot, a torn write, or tampering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubFailure {
    /// Pack file id.
    pub pack: u32,
    /// Chunk data offset within the pack.
    pub data_offset: u64,
    /// Chunk length.
    pub len: u32,
    /// The digest the chunk is filed under.
    pub expected: Digest128,
    /// What its bytes hash to now.
    pub actual: Digest128,
}

/// Result of a full [`ChunkStore::scrub`] pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Pack files scanned.
    pub packs_scanned: u64,
    /// Chunks re-hashed.
    pub chunks_scanned: u64,
    /// Packs skipped because they are quarantined (known bad).
    pub packs_quarantined: u64,
    /// Chunks that failed verification.
    pub failures: Vec<ScrubFailure>,
}

impl ScrubReport {
    /// True when every scanned chunk verified (quarantined packs are
    /// known bad and not re-counted).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Result of one [`ChunkStore::fsck`] pass — the exact repair ledger.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct FsckReport {
    /// Pack files scanned.
    pub packs_scanned: u64,
    /// Chunks re-hashed.
    pub chunks_scanned: u64,
    /// Chunks whose bytes failed verification.
    pub chunks_corrupt: u64,
    /// Corrupt chunks reconstructed from parity and re-verified
    /// (always 0 without `repair`).
    pub chunks_repaired: u64,
    /// Packs fully healed by repair.
    pub packs_repaired: u64,
    /// Corrupt chunks that could not be reconstructed.
    pub chunks_unrecoverable: u64,
    /// Packs quarantined by this pass (repair mode only).
    pub packs_quarantined: Vec<u32>,
    /// Whether this pass ran in repair mode.
    pub repair: bool,
}

impl FsckReport {
    /// True when no corruption was found at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.chunks_corrupt == 0
    }

    /// True when the store is fully healthy after the pass: either
    /// clean, or every corrupt chunk was repaired.
    #[must_use]
    pub fn healthy(&self) -> bool {
        self.chunks_corrupt == self.chunks_repaired
    }
}

/// Aggregate store accounting (see [`ChunkStore::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// Checkpoints (manifests) in the store.
    pub objects: u64,
    /// Pack files on disk.
    pub packs: u64,
    /// Distinct chunks indexed.
    pub chunks_unique: u64,
    /// Total manifest chunk references (sum of refcounts).
    pub chunk_refs: u64,
    /// Logical bytes across all manifests.
    pub bytes_logical: u64,
    /// Chunk payload bytes across all indexed chunks.
    pub bytes_physical: u64,
    /// Indexed chunk bytes at refcount 0 — garbage awaiting
    /// [`ChunkStore::gc`] (fully dead packs) or
    /// [`ChunkStore::compact`] (dead chunks inside live packs). When
    /// this is zero, `bytes_logical == bytes_physical + bytes_deduped`
    /// exactly.
    pub bytes_garbage: u64,
    /// Bytes saved by index-level dedup
    /// (`logical − live physical − skipped`).
    pub bytes_deduped: u64,
    /// Bytes differential capture never wrote: chunk references delta
    /// manifests borrow from their parent chains.
    pub bytes_skipped: u64,
    /// Actual pack file bytes on disk (payload + record headers +
    /// parity).
    pub pack_file_bytes: u64,
    /// Packs currently quarantined.
    pub packs_quarantined: u64,
    /// Manifests that are delta links (the rest are full anchors).
    pub delta_objects: u64,
    /// Deepest delta chain in the store (0 when all manifests are full).
    pub chain_depth_max: u64,
}

/// One link of a delta chain, anchor first (see [`ChunkStore::chain`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ChainLink {
    /// Checkpoint version of this link.
    pub version: u64,
    /// Parent version (`None` for the full anchor).
    pub parent: Option<u64>,
    /// Links below the anchor (0 for the anchor itself).
    pub depth: u64,
    /// Total chunk references the link's manifest records.
    pub chunk_refs: u64,
    /// Chunk references the link owns (refcounted).
    pub own_refs: u64,
    /// Bytes covered by owned references.
    pub own_bytes: u64,
    /// Bytes borrowed from the parent chain (capture-time skips).
    pub bytes_skipped: u64,
}

#[derive(Debug)]
struct Inner {
    index: Index,
    manifests: BTreeMap<(String, u64), Manifest>,
    quarantined: HashSet<u32>,
    next_pack: u32,
    next_seq: u64,
    /// Intents this handle began and has not committed. Zero between
    /// operations; an operation that fails midway leaves it non-zero
    /// for good, and from then on `index` may hold that operation's
    /// half-applied changes — it is never checkpointed again, and the
    /// next open resolves the pending intent and rebuilds.
    open_intents: u32,
    /// Operations committed since `index.bin` last equalled `index`
    /// (and the journal was last reset).
    ops_since_checkpoint: u64,
    /// Entries `index.bin` held when it was last written.
    checkpoint_entries: u64,
}

/// A persistent content-addressed chunk store rooted at one directory.
///
/// All methods take `&self`; internal state is mutex-guarded, so a
/// store can be shared behind an `Arc` (e.g. by veloc flush threads).
#[derive(Debug)]
pub struct ChunkStore {
    root: PathBuf,
    metrics: StoreMetrics,
    fs: Arc<dyn StoreFs>,
    parity_width: u32,
    obs: JournalSlot,
    /// Advisory lock file this handle owns (removed on drop), if the
    /// store was opened exclusively.
    lock: Option<PathBuf>,
    inner: Mutex<Inner>,
}

impl Drop for ChunkStore {
    fn drop(&mut self) {
        // Clean close: bring `index.bin` up to date, once, if anything
        // changed. Like open's recovery this runs on the real
        // filesystem, not the seam — the seam numbers an operation's
        // mutations, and a handle whose operation it cut down holds an
        // open intent and skips the checkpoint. A failure here is not
        // reported: the journal stays behind and the next open rebuilds.
        let mut inner = self.inner.lock();
        if inner.ops_since_checkpoint > 0 {
            let _ = self.checkpoint(&mut inner, &crate::fs::RealFs);
        }
        drop(inner);
        if let Some(path) = &self.lock {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl ChunkStore {
    /// Opens (creating if absent) the store rooted at `root`, with
    /// metrics in a private registry and the default [`StoreConfig`].
    ///
    /// # Errors
    ///
    /// Filesystem failures, or corrupt manifests/packs.
    pub fn open(root: &Path) -> StoreResult<Self> {
        Self::open_observed_with(root, StoreMetrics::detached(), StoreConfig::default())
    }

    /// As [`ChunkStore::open`] with an explicit [`StoreConfig`] — how
    /// the torture harness injects a crash-point [`StoreFs`].
    ///
    /// # Errors
    ///
    /// As [`ChunkStore::open`].
    pub fn open_with(root: &Path, config: StoreConfig) -> StoreResult<Self> {
        Self::open_observed_with(root, StoreMetrics::detached(), config)
    }

    /// As [`ChunkStore::open`], but acquires the store-root advisory
    /// lock under `owner` first — how a daemon claims sole ownership.
    /// The lock is released when the returned store is dropped.
    ///
    /// # Errors
    ///
    /// [`StoreError::Locked`] when another process already holds the
    /// lock; otherwise as [`ChunkStore::open`].
    pub fn open_exclusive(root: &Path, owner: impl Into<String>) -> StoreResult<Self> {
        Self::open_with(root, StoreConfig::default().exclusive(owner))
    }

    /// Reports who holds the advisory lock at `root`, if anyone.
    #[must_use]
    pub fn lock_owner(root: &Path) -> Option<String> {
        let raw = std::fs::read_to_string(root.join(LOCK_FILE)).ok()?;
        let owner = raw.trim();
        Some(if owner.is_empty() {
            "unknown".to_string()
        } else {
            owner.to_string()
        })
    }

    /// Removes a stale advisory lock left behind by a dead daemon,
    /// returning the owner tag it recorded (if any). Only call this
    /// after confirming the owning process is gone: breaking a live
    /// daemon's lock invites two writers into one store.
    ///
    /// # Errors
    ///
    /// Filesystem failures removing the lock file (absence is not an
    /// error).
    pub fn force_unlock(root: &Path) -> StoreResult<Option<String>> {
        let owner = Self::lock_owner(root);
        match std::fs::remove_file(root.join(LOCK_FILE)) {
            Ok(()) => Ok(owner),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// The full-control constructor: store traffic is recorded into
    /// `metrics` (build them with [`StoreMetrics::in_registry`] to
    /// surface the `store.*` ledger in an external
    /// [`Registry`](reprocmp_obs::Registry)).
    /// Recovery happens here, in order:
    ///
    /// 1. orphaned `*.tmp` staging files are swept;
    /// 2. the intent journal is read (leniently — a torn tail record
    ///    is exactly a crash mid-append and is ignored) and every
    ///    *pending* intent is replayed: a half-done ingest's orphan
    ///    pack is unlinked (undo), a half-done GC's dead packs are
    ///    unlinked (redo), a half-done remove's manifest is unlinked
    ///    (redo), a half-done compaction needs no file action;
    /// 3. `index.bin` is a checkpoint, current only as of the last
    ///    journal reset. If the journal holds anything at all —
    ///    committed records, pending ones, a torn tail — operations
    ///    have run since and the index is rebuilt from the
    ///    authoritative packs + manifests (which recomputes every
    ///    refcount exactly) regardless of what `index.bin` claims;
    ///    with an empty journal the on-disk index is validated and
    ///    rebuilt only on disagreement;
    /// 4. the journal is reset behind the saved index — replay is
    ///    idempotent, so a crash anywhere inside recovery just replays
    ///    again.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or corrupt manifests/packs.
    pub fn open_observed_with(
        root: &Path,
        metrics: StoreMetrics,
        config: StoreConfig,
    ) -> StoreResult<Self> {
        let packs_dir = root.join("packs");
        let manifests_dir = root.join("manifests");
        std::fs::create_dir_all(&packs_dir)?;
        std::fs::create_dir_all(&manifests_dir)?;

        // The advisory lock gates everything below it — a locked store
        // belongs to its daemon and must not even have its staging
        // files swept out from under it.
        let lock_path = root.join(LOCK_FILE);
        let lock = match &config.exclusive_owner {
            Some(owner) => {
                match std::fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&lock_path)
                {
                    Ok(mut file) => {
                        use std::io::Write as _;
                        file.write_all(owner.as_bytes())?;
                        file.sync_all()?;
                        Some(lock_path.clone())
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                        return Err(locked_error(root, &lock_path));
                    }
                    Err(e) => return Err(StoreError::Io(e)),
                }
            }
            None => {
                if lock_path.exists() {
                    return Err(locked_error(root, &lock_path));
                }
                None
            }
        };

        for dir in [root, packs_dir.as_path(), manifests_dir.as_path()] {
            for entry in std::fs::read_dir(dir)? {
                let entry = entry?;
                if entry.file_name().to_string_lossy().ends_with(".tmp") {
                    std::fs::remove_file(entry.path())?;
                }
            }
        }

        let mut manifests = BTreeMap::new();
        for entry in std::fs::read_dir(&manifests_dir)? {
            let entry = entry?;
            if !entry.file_name().to_string_lossy().ends_with(".manifest") {
                continue;
            }
            let m = Manifest::decode(&std::fs::read(entry.path())?)?;
            manifests.insert((m.name.clone(), m.version), m);
        }

        // Intent-journal replay. Recovery itself runs on std::fs, not
        // the seam: the torture harness arms its plan only after open
        // returns, and replay must always run to completion.
        let journal_path = root.join(JOURNAL_FILE);
        let journal_bytes = std::fs::read(&journal_path).unwrap_or_default();
        let pending = pending_intents(&read_journal(&journal_bytes));
        for intent in &pending {
            match intent {
                IntentRecord::IngestBegin {
                    name,
                    version,
                    pack,
                    ..
                } => {
                    // Manifest published ⇒ the checkpoint exists; keep
                    // the pack and let the rebuild fix refcounts.
                    // Manifest absent ⇒ undo: drop the orphan pack so
                    // no unreferenced physical bytes skew the ledger.
                    if !manifests.contains_key(&(name.clone(), *version)) {
                        if let Some(id) = pack {
                            let p = packs_dir.join(pack_file_name(*id));
                            if p.exists() {
                                std::fs::remove_file(&p)?;
                            }
                        }
                    }
                }
                IntentRecord::GcBegin { dead_packs, .. } => {
                    // The intent proves these packs were dead when the
                    // sweep started, and GC never mutates manifests —
                    // dead they remain. Redo the unlinks.
                    for id in dead_packs {
                        let p = packs_dir.join(pack_file_name(*id));
                        if p.exists() {
                            std::fs::remove_file(&p)?;
                        }
                    }
                }
                IntentRecord::RemoveBegin { name, version, .. } => {
                    // The remove was declared; finish it.
                    let p = manifests_dir.join(manifest_file_name(name, *version));
                    if p.exists() {
                        std::fs::remove_file(&p)?;
                    }
                    manifests.remove(&(name.clone(), *version));
                }
                IntentRecord::CompactBegin { .. } => {
                    // Whatever landed (none, some, or all of the new
                    // pack / index swap / source unlinks), the rebuild
                    // resolves every digest to the newest copy and GC
                    // reclaims sources that went fully dead.
                }
                IntentRecord::FlattenBegin { .. } => {
                    // The manifest on disk is either still the delta
                    // or already the republished full — both decode
                    // and materialize identically. No file action; the
                    // forced rebuild recomputes refcounts for
                    // whichever kind landed.
                }
                _ => unreachable!("pending_intents yields begin records only"),
            }
        }

        let mut pack_ids = Vec::new();
        for entry in std::fs::read_dir(&packs_dir)? {
            let entry = entry?;
            if let Some(id) = parse_pack_file_name(&entry.file_name().to_string_lossy()) {
                pack_ids.push(id);
            }
        }
        pack_ids.sort_unstable();
        let next_pack = pack_ids.last().map_or(0, |&id| id + 1);

        let mut quarantined = load_quarantine(&root.join(QUARANTINE_FILE));
        quarantined.retain(|id| pack_ids.binary_search(id).is_ok());

        // The trust rule. Every operation appends its begin record
        // before it touches the in-memory index, and the journal is
        // reset only behind a saved index, so journal bytes mean the
        // checkpoint may predate a refcount change. `index_consistent`
        // checks membership only and could not tell.
        let index_path = root.join("index.bin");
        let loaded = if journal_bytes.is_empty() {
            std::fs::read(&index_path)
                .ok()
                .and_then(|bytes| load_index(&bytes).ok())
                .filter(|index| index_consistent(index, &manifests, &pack_ids))
        } else {
            None // journal activity: trust only the rebuild
        };
        let index = match loaded {
            Some(index) => index,
            None => {
                let rebuilt = rebuild_index(&packs_dir, &pack_ids, &quarantined, &manifests)?;
                save_index(&crate::fs::RealFs, &index_path, &rebuilt)?;
                rebuilt
            }
        };
        if !pending.is_empty() {
            metrics.journal_replays.add(1);
        }
        if !journal_bytes.is_empty() {
            std::fs::remove_file(&journal_path)?;
        }

        metrics.packs.set(pack_ids.len() as i64);
        metrics.objects.set(manifests.len() as i64);
        Ok(ChunkStore {
            root: root.to_path_buf(),
            metrics,
            fs: config.fs,
            parity_width: config.parity_group_width,
            obs: JournalSlot::new(),
            lock,
            inner: Mutex::new(Inner {
                checkpoint_entries: index.len() as u64,
                index,
                manifests,
                quarantined,
                next_pack,
                next_seq: 1,
                open_intents: 0,
                ops_since_checkpoint: 0,
            }),
        })
    }

    /// The store's root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's live metric handles.
    #[must_use]
    pub fn metrics(&self) -> &StoreMetrics {
        &self.metrics
    }

    /// The late-binding flight-recorder slot for maintenance events:
    /// arm it (via [`JournalSlot::set`]) to receive `repair` /
    /// `pack_quarantine` events on the `store` lane from
    /// [`ChunkStore::fsck`].
    #[must_use]
    pub fn journal_slot(&self) -> &JournalSlot {
        &self.obs
    }

    fn packs_dir(&self) -> PathBuf {
        self.root.join("packs")
    }

    fn manifests_dir(&self) -> PathBuf {
        self.root.join("manifests")
    }

    fn index_path(&self) -> PathBuf {
        self.root.join("index.bin")
    }

    /// Appends one intent record to the journal through the seam.
    fn journal_append(&self, record: &IntentRecord) -> StoreResult<()> {
        self.fs.append(
            &self.root.join(JOURNAL_FILE),
            &encode_record(record),
            MutationKind::JournalAppend,
        )?;
        Ok(())
    }

    /// Declares an intent before an operation's first mutation and
    /// returns its sequence number. The intent counts as open from
    /// before the append: a torn begin record is still a journal byte.
    fn begin_intent(
        &self,
        inner: &mut Inner,
        record: impl FnOnce(u64) -> IntentRecord,
    ) -> StoreResult<u64> {
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.open_intents += 1;
        self.journal_append(&record(seq))?;
        Ok(seq)
    }

    /// Appends an operation's commit record after its last mutation.
    fn commit_intent(&self, inner: &mut Inner, record: &IntentRecord) -> StoreResult<()> {
        self.journal_append(record)?;
        inner.open_intents -= 1;
        inner.ops_since_checkpoint += 1;
        Ok(())
    }

    /// Saves the index and resets the journal behind it — unless an
    /// operation on this handle failed midway (see
    /// `Inner::open_intents`), when only the next open may.
    fn checkpoint(&self, inner: &mut Inner, fs: &dyn StoreFs) -> StoreResult<()> {
        if inner.open_intents > 0 {
            return Ok(());
        }
        save_index(fs, &self.index_path(), &inner.index)?;
        self.journal_reset(inner, fs)
    }

    /// Drops the journal once `index.bin` equals the in-memory index:
    /// no record postdates the checkpoint, so the next open may trust
    /// it. Resetting here is also what bounds `journal.bin` in a
    /// long-lived daemon.
    fn journal_reset(&self, inner: &mut Inner, fs: &dyn StoreFs) -> StoreResult<()> {
        if inner.open_intents > 0 {
            return Ok(());
        }
        match fs.remove(&self.root.join(JOURNAL_FILE), MutationKind::Unlink) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => {}
        }
        inner.ops_since_checkpoint = 0;
        inner.checkpoint_entries = inner.index.len() as u64;
        Ok(())
    }

    /// Checkpoints once the operations since the last checkpoint
    /// outnumber the entries it held. Each checkpoint therefore costs
    /// at most a constant per operation it covers — the index grew by
    /// those operations' own chunks at most — where a save per
    /// operation cost the whole store's index every time.
    fn checkpoint_if_due(&self, inner: &mut Inner) -> StoreResult<()> {
        if inner.ops_since_checkpoint > inner.checkpoint_entries {
            self.checkpoint(inner, self.fs.as_ref())?;
        }
        Ok(())
    }

    /// Persists the quarantine ledger through the seam.
    fn save_quarantine(&self, quarantined: &HashSet<u32>) -> StoreResult<()> {
        let mut ids: Vec<u32> = quarantined.iter().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::with_capacity(12 + ids.len() * 4);
        out.extend_from_slice(QUARANTINE_MAGIC);
        out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        self.fs
            .write_atomic(&self.root.join(QUARANTINE_FILE), &out, MutationKind::Rename)?;
        Ok(())
    }

    /// Ingests one checkpoint as `name`@`version`: segments are split
    /// into `chunk_bytes`-sized chunks, never-before-seen chunks are
    /// appended to a fresh pack (sealed with XOR parity), and a
    /// manifest recording the digest sequence is published. `meta` is
    /// stored opaquely (pass an encoded Merkle tree to skip metadata
    /// recomputation on read, or `&[]`). Chunks whose only stored copy
    /// sits in a quarantined pack do not count as duplicates: they are
    /// re-stored and the index is repointed at the healthy copy.
    ///
    /// The whole operation is bracketed by intent-journal records, so
    /// a crash at any internal boundary is undone (or completed) by
    /// the next [`ChunkStore::open`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Exists`] when the key is already present (treat
    /// as success when retrying after a crash);
    /// [`StoreError::Config`] on an empty/invalid name, zero
    /// `chunk_bytes`, or zero total bytes; filesystem failures.
    pub fn ingest(
        &self,
        name: &str,
        version: u64,
        segments: &[(&str, &[u8])],
        chunk_bytes: usize,
        meta: &[u8],
    ) -> StoreResult<IngestStats> {
        let image = Digested::new(segments, chunk_bytes);
        self.ingest_digested(name, version, &image, meta, None)
    }

    /// Differential capture: ingests `name`@`version` by diffing the
    /// per-chunk digests against the latest older version of `name`
    /// and *skipping* every chunk the parent already addressed at the
    /// same position — no index probe, no refcount, no write. The
    /// published manifest is [`ManifestKind::Delta`]: its digest lists
    /// stay dense (readers never walk the chain) but only the changed
    /// chunks are owned, so the parent stays pinned (see
    /// [`ChunkStore::remove`]) until its descendants go first.
    ///
    /// Falls back to a plain full [`ChunkStore::ingest`] — same return
    /// type, `parent: None` — when there is no older version to diff
    /// against, the chunk geometry changed, the parent's chain is
    /// broken, or `policy` forces a full anchor
    /// ([`DeltaPolicy::anchor_every`] cadence / [`DeltaPolicy::max_depth`]).
    ///
    /// The per-capture ledger is exact:
    /// `bytes_logical == bytes_physical + bytes_deduped + bytes_skipped`.
    ///
    /// # Errors
    ///
    /// As [`ChunkStore::ingest`].
    pub fn ingest_delta(
        &self,
        name: &str,
        version: u64,
        segments: &[(&str, &[u8])],
        chunk_bytes: usize,
        meta: &[u8],
        policy: &DeltaPolicy,
    ) -> StoreResult<IngestStats> {
        let image = Digested::new(segments, chunk_bytes);
        self.ingest_digested(name, version, &image, meta, Some(policy))
    }

    /// [`ChunkStore::ingest`], or [`ChunkStore::ingest_delta`] under
    /// `delta`, of an image whose chunks were digested before this
    /// call: the store's lock is held for the index, the files and the
    /// manifests, never for hashing. This is the one ingest body.
    ///
    /// # Errors
    ///
    /// As [`ChunkStore::ingest`].
    pub fn ingest_digested(
        &self,
        name: &str,
        version: u64,
        image: &Digested<'_>,
        meta: &[u8],
        delta: Option<&DeltaPolicy>,
    ) -> StoreResult<IngestStats> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;

        // Pick the diff base: the latest strictly older version whose
        // geometry matches and whose own chain is intact, provided the
        // policy permits one more link.
        let base = delta.and_then(|policy| {
            let pv = (inner.manifests.keys())
                .filter(|(n, v)| n == name && *v < version)
                .map(|&(_, v)| v)
                .max()?;
            let parent = &inner.manifests[&(name.to_owned(), pv)];
            if parent.chunk_bytes as usize != image.chunk_bytes {
                return None;
            }
            let chain = chain_versions(&inner.manifests, name, pv).ok()?;
            let depth = chain.len() as u64; // parent depth + 1
            (!policy.forces_anchor(depth)).then_some((pv, depth))
        });
        let (segments, chunk_bytes) = (image.segments, image.chunk_bytes);
        if name.is_empty() || name.contains(['/', '\\', '\0']) {
            return Err(StoreError::Config(format!(
                "invalid checkpoint name {name:?}"
            )));
        }
        if chunk_bytes == 0 || chunk_bytes > u32::MAX as usize {
            return Err(StoreError::Config(format!(
                "invalid chunk size {chunk_bytes}"
            )));
        }
        let total: u64 = segments.iter().map(|(_, b)| b.len() as u64).sum();
        if total == 0 {
            return Err(StoreError::Config("checkpoint has no bytes".into()));
        }
        let key = (name.to_owned(), version);
        if inner.manifests.contains_key(&key) {
            return Err(StoreError::Exists {
                name: name.to_owned(),
                version,
            });
        }

        // Chunk and address every segment; queue first occurrences of
        // unknown (or quarantined-only) digests for the new pack.
        //
        // Against a delta base, each segment is diffed with the
        // parent's same-named segment first: an identical (digest,
        // len) at the same chunk index is a capture-time skip;
        // everything else goes down the dedup-or-store path and lands
        // in the `changed` set. A chunk whose only stored copy is
        // quarantined is never skipped — we hold healthy bytes, so
        // re-storing heals the store exactly as a full ingest would.
        let parent = base.map(|(pv, _)| &inner.manifests[&(name.to_owned(), pv)]);
        let mut manifest_segments = Vec::with_capacity(segments.len());
        let mut new_chunks: Vec<(Digest128, &[u8])> = Vec::new();
        let mut queued: HashSet<Digest128> = HashSet::new();
        let mut stats = IngestStats {
            bytes_logical: total,
            parent: base.map(|(pv, _)| pv),
            depth: base.map_or(0, |(_, depth)| depth),
            ..IngestStats::default()
        };
        for (&(seg_name, bytes), digests) in segments.iter().zip(&image.digests) {
            let parent_seg = parent.and_then(|p| p.segments.iter().find(|s| s.name == seg_name));
            let cb = chunk_bytes as u64;
            let mut changed: Vec<u32> = Vec::new();
            for (i, (chunk, &digest)) in bytes.chunks(chunk_bytes).zip(digests).enumerate() {
                stats.chunk_refs += 1;
                let healthy_copy = inner
                    .index
                    .get(&digest)
                    .is_some_and(|e| !inner.quarantined.contains(&e.pack));
                let unchanged = healthy_copy
                    && parent_seg.is_some_and(|p| {
                        p.digests.get(i) == Some(&digest)
                            && (p.len - (i as u64 * cb).min(p.len)).min(cb) == chunk.len() as u64
                    });
                if unchanged {
                    stats.chunks_skipped += 1;
                    stats.bytes_skipped += chunk.len() as u64;
                } else {
                    changed.push(i as u32);
                    if healthy_copy || queued.contains(&digest) {
                        stats.chunks_deduped += 1;
                        stats.bytes_deduped += chunk.len() as u64;
                    } else {
                        queued.insert(digest);
                        new_chunks.push((digest, chunk));
                        stats.chunks_stored += 1;
                        stats.bytes_physical += chunk.len() as u64;
                    }
                }
            }
            manifest_segments.push(Segment {
                name: seg_name.to_owned(),
                len: bytes.len() as u64,
                digests: digests.clone(),
                changed: base.is_some().then_some(changed),
            });
        }

        // Declare the intent before the first file mutation. Full and
        // delta ingests replay identically: the begin record carries
        // the same undo information (the orphan pack id).
        let pack_id = (!new_chunks.is_empty()).then_some(inner.next_pack);
        let seq = self.begin_intent(inner, |seq| IntentRecord::IngestBegin {
            seq,
            name: name.to_owned(),
            version,
            pack: pack_id,
        })?;

        // Publish step 1: the pack (only if something is new).
        if let Some(pack_id) = pack_id {
            let path = self.packs_dir().join(pack_file_name(pack_id));
            let records = write_pack(self.fs.as_ref(), &path, &new_chunks, self.parity_width)?;
            for r in records {
                // A repointed chunk keeps the references its
                // quarantined copy had accumulated.
                let prev_refcount = inner.index.get(&r.digest).map_or(0, |e| e.refcount);
                inner.index.insert(
                    r.digest,
                    IndexEntry {
                        pack: pack_id,
                        data_offset: r.data_offset,
                        len: r.len,
                        refcount: prev_refcount,
                    },
                );
            }
            inner.next_pack += 1;
            stats.pack = Some(pack_id);
        }

        // Publish step 2: the manifest.
        let manifest = Manifest {
            name: name.to_owned(),
            version,
            kind: base.map_or(ManifestKind::Full, |(parent, _)| ManifestKind::Delta {
                parent,
            }),
            chunk_bytes: chunk_bytes as u32,
            meta: meta.to_vec(),
            segments: manifest_segments,
        };
        let manifest_path = self.manifests_dir().join(manifest_file_name(name, version));
        self.fs.write_atomic(
            &manifest_path,
            &manifest.encode(),
            MutationKind::ManifestPublish,
        )?;

        // Step 3: refcounts, in memory only — `index.bin` is a
        // checkpoint, and what this ingest writes is proportional to
        // its own chunks, not the store's. Refcounts come from the
        // *owned* view, mirroring `remove` and `rebuild_index`: every
        // reference for a full manifest, only the changed chunks for a
        // delta — the skipped ones are borrowed from the parent chain,
        // which `remove` keeps alive.
        for (digest, _) in manifest.own_chunk_lens() {
            if let Some(e) = inner.index.get_mut(&digest) {
                e.refcount += 1;
            }
        }
        inner.manifests.insert(key, manifest);

        // Commit: all mutations landed.
        self.commit_intent(inner, &IntentRecord::IngestCommit { seq })?;
        self.checkpoint_if_due(inner)?;

        self.metrics.chunks_stored.add(stats.chunks_stored);
        self.metrics.chunks_deduped.add(stats.chunks_deduped);
        self.metrics.chunks_skipped.add(stats.chunks_skipped);
        self.metrics.bytes_logical.add(stats.bytes_logical);
        self.metrics.bytes_physical.add(stats.bytes_physical);
        self.metrics.bytes_deduped.add(stats.bytes_deduped);
        self.metrics.bytes_skipped.add(stats.bytes_skipped);
        if stats.pack.is_some() {
            self.metrics.packs.add(1);
        }
        self.metrics.objects.add(1);
        if let Some((parent, depth)) = base {
            self.metrics.chain_depth.set(depth as i64);
            self.obs.emit(
                "store",
                EventKind::DeltaCapture {
                    version,
                    parent,
                    depth,
                    bytes_written: stats.bytes_physical,
                    bytes_skipped: stats.bytes_skipped,
                },
            );
        }
        Ok(stats)
    }

    /// The delta chain of `name`@`version`, full anchor first. A full
    /// manifest yields a single link at depth 0.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown keys;
    /// [`StoreError::Corrupt`] when an ancestor the chain names is
    /// missing.
    pub fn chain(&self, name: &str, version: u64) -> StoreResult<Vec<ChainLink>> {
        let inner = self.inner.lock();
        if !inner.manifests.contains_key(&(name.to_owned(), version)) {
            return Err(StoreError::NotFound {
                name: name.to_owned(),
                version,
            });
        }
        let versions = chain_versions(&inner.manifests, name, version)?;
        Ok(versions
            .iter()
            .enumerate()
            .map(|(depth, &v)| {
                let m = &inner.manifests[&(name.to_owned(), v)];
                let own_refs = m.own_chunk_lens().count() as u64;
                ChainLink {
                    version: v,
                    parent: m.kind.parent(),
                    depth: depth as u64,
                    chunk_refs: m.chunk_refs(),
                    own_refs,
                    own_bytes: m.own_bytes(),
                    bytes_skipped: m.skipped_bytes(),
                }
            })
            .collect())
    }

    /// Converts the delta manifest `name`@`version` into an equivalent
    /// *full* manifest in place: every borrowed reference becomes
    /// owned (refcounts bumped), unpinning its former ancestors.
    /// Returns `false` (and does nothing) when the manifest is already
    /// full. The compaction bridge flattens before handing a chain to
    /// a store that will drop history.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown keys;
    /// [`StoreError::Corrupt`] on a broken chain; filesystem failures.
    pub fn flatten(&self, name: &str, version: u64) -> StoreResult<bool> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let key = (name.to_owned(), version);
        let Some(manifest) = inner.manifests.get(&key) else {
            return Err(StoreError::NotFound {
                name: name.to_owned(),
                version,
            });
        };
        if manifest.kind == ManifestKind::Full {
            return Ok(false);
        }
        // Refuse to flatten on top of a broken chain: the borrowed
        // references may already be gone.
        chain_versions(&inner.manifests, name, version)?;
        let mut flat = manifest.clone();
        flat.kind = ManifestKind::Full;
        let inherited: Vec<(Digest128, u32)> = flat.inherited_chunk_lens().collect();
        for seg in &mut flat.segments {
            seg.changed = None;
        }
        // Journaled: once the manifest is republished the persisted
        // refcounts are the delta's, and a later ancestor remove + gc
        // could sweep chunks the flattened manifest owns — the journal
        // record is what makes the next open rebuild instead.
        let seq = self.begin_intent(inner, |seq| IntentRecord::FlattenBegin {
            seq,
            name: name.to_owned(),
            version,
        })?;
        let manifest_path = self.manifests_dir().join(manifest_file_name(name, version));
        self.fs.write_atomic(
            &manifest_path,
            &flat.encode(),
            MutationKind::ManifestPublish,
        )?;
        for (digest, _) in inherited {
            if let Some(e) = inner.index.get_mut(&digest) {
                e.refcount += 1;
            }
        }
        inner.manifests.insert(key, flat);
        self.commit_intent(inner, &IntentRecord::FlattenCommit { seq })?;
        self.checkpoint_if_due(inner)?;
        Ok(true)
    }

    /// True when `name`@`version` is in the store.
    #[must_use]
    pub fn contains(&self, name: &str, version: u64) -> bool {
        self.inner
            .lock()
            .manifests
            .contains_key(&(name.to_owned(), version))
    }

    /// All `(name, version)` keys, sorted.
    #[must_use]
    pub fn objects(&self) -> Vec<(String, u64)> {
        self.inner.lock().manifests.keys().cloned().collect()
    }

    /// Versions of `name` in the store, ascending.
    #[must_use]
    pub fn versions(&self, name: &str) -> Vec<u64> {
        self.inner
            .lock()
            .manifests
            .keys()
            .filter(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .collect()
    }

    /// Ids of currently quarantined packs, ascending.
    #[must_use]
    pub fn quarantined_packs(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.inner.lock().quarantined.iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// The decoded layout of `name`@`version`: segment geometry, the
    /// opaque metadata blob, and — when every non-final payload
    /// segment is chunk-aligned — the payload's chunk digest sequence
    /// (identical to what `raw_leaves` capture would compute).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown keys.
    pub fn layout(&self, name: &str, version: u64) -> StoreResult<ObjectLayout> {
        let inner = self.inner.lock();
        let manifest = inner
            .manifests
            .get(&(name.to_owned(), version))
            .ok_or_else(|| StoreError::NotFound {
                name: name.to_owned(),
                version,
            })?;
        Ok(ObjectLayout::from_manifest(manifest))
    }

    /// A positioned-read [`StoreStorage`] over `name`@`version`,
    /// resolving every byte through the pack index. Chunks living in
    /// quarantined packs are served verify-on-read: a rotten chunk
    /// yields a permanent `InvalidData` error, which the engine's
    /// `Quarantine` failure policy converts to an `unverified` range.
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown keys; corruption if the
    /// index lost a referenced chunk.
    pub fn reader(&self, name: &str, version: u64) -> StoreResult<StoreStorage> {
        let inner = self.inner.lock();
        let manifest = inner
            .manifests
            .get(&(name.to_owned(), version))
            .ok_or_else(|| StoreError::NotFound {
                name: name.to_owned(),
                version,
            })?;
        // Chain-aware: a delta's digest lists are dense, so the read
        // itself never walks the chain — but every borrowed reference
        // is only guaranteed live while the ancestors that own it
        // exist. Validate the chain up front so a broken one fails
        // with its real cause, not a downstream missing-digest error.
        chain_versions(&inner.manifests, name, version)?;
        let index = &inner.index;
        StoreStorage::from_manifest(
            manifest,
            &self.packs_dir(),
            &|d| index.get(&d).copied(),
            &inner.quarantined,
        )
    }

    /// Reassembles the full original bytes of `name`@`version`
    /// (header segments + regions, in order).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown keys; read failures
    /// (including a failed verify-on-read from a quarantined pack).
    pub fn materialize(&self, name: &str, version: u64) -> StoreResult<Vec<u8>> {
        let storage = self.reader(name, version)?;
        let mut bytes = vec![0u8; reprocmp_io::Storage::len(&storage) as usize];
        reprocmp_io::Storage::read_at(&storage, 0, &mut bytes)?;
        Ok(bytes)
    }

    /// Drops `name`@`version`: deletes its manifest and decrements the
    /// refcount of every chunk it *owned* — all of them for a full
    /// manifest, only the changed set for a delta, so borrowed
    /// references stay accounted to their owners. Physical bytes are
    /// reclaimed later, by [`ChunkStore::gc`] /
    /// [`ChunkStore::compact`]. Journaled: a crash mid-remove is
    /// finished by the next open.
    ///
    /// A manifest some live delta still names as parent is **pinned**:
    /// removing it would strand the descendants' borrowed references,
    /// so chains must be removed tail-first (or the descendants
    /// [`ChunkStore::flatten`]ed free of it).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotFound`] for unknown keys;
    /// [`StoreError::ChainPinned`] when a live delta references this
    /// version as parent; filesystem failures.
    pub fn remove(&self, name: &str, version: u64) -> StoreResult<()> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let key = (name.to_owned(), version);
        if !inner.manifests.contains_key(&key) {
            return Err(StoreError::NotFound {
                name: name.to_owned(),
                version,
            });
        }
        let child = inner
            .manifests
            .iter()
            .find(|((n, _), m)| n == name && m.kind.parent() == Some(version))
            .map(|(&(_, v), _)| v);
        if let Some(child) = child {
            return Err(StoreError::ChainPinned {
                name: name.to_owned(),
                version,
                child,
            });
        }
        let manifest = inner.manifests.remove(&key).expect("checked above");
        let seq = self.begin_intent(inner, |seq| IntentRecord::RemoveBegin {
            seq,
            name: name.to_owned(),
            version,
        })?;
        for (digest, _) in manifest.own_chunk_lens() {
            if let Some(e) = inner.index.get_mut(&digest) {
                e.refcount = e.refcount.saturating_sub(1);
            }
        }
        let path = self.manifests_dir().join(manifest_file_name(name, version));
        self.fs.remove(&path, MutationKind::Unlink)?;
        self.commit_intent(inner, &IntentRecord::RemoveCommit { seq })?;
        self.metrics.objects.add(-1);
        self.checkpoint_if_due(inner)
    }

    /// Refcount sweep: deletes every on-disk pack holding no
    /// `refcount > 0` index entry — fully dead packs *and* packs the
    /// index no longer references at all (crash orphans, quarantined
    /// packs whose every chunk was repointed to healthy copies) — and
    /// swaps in an index without their entries. The whole sweep is
    /// bracketed by intent-journal records and the index swap happens
    /// *before* the unlinks, so a crash mid-sweep is redone by the
    /// next open — never an index pointing at missing data, never a
    /// leaked pack.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn gc(&self) -> StoreResult<GcStats> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let live: HashSet<u32> = inner
            .index
            .values()
            .filter(|e| e.refcount > 0)
            .map(|e| e.pack)
            .collect();
        // Dead-pack detection walks the *directory*, not the index:
        // a pack every chunk of which was repointed away has no index
        // entries at all, and must still be reclaimed.
        let mut dead: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(self.packs_dir())? {
            let entry = entry?;
            if let Some(id) = parse_pack_file_name(&entry.file_name().to_string_lossy()) {
                if !live.contains(&id) {
                    dead.push(id);
                }
            }
        }
        dead.sort_unstable();
        if dead.is_empty() {
            return Ok(GcStats::default());
        }
        let seq = self.begin_intent(inner, |seq| IntentRecord::GcBegin {
            seq,
            dead_packs: dead.clone(),
        })?;
        let dead_set: HashSet<u32> = dead.iter().copied().collect();
        let mut stats = GcStats::default();
        inner.index.retain(|_, e| {
            if dead_set.contains(&e.pack) {
                stats.chunks_dropped += 1;
                false
            } else {
                true
            }
        });
        save_index(self.fs.as_ref(), &self.index_path(), &inner.index)?;
        for id in &dead {
            let path = self.packs_dir().join(pack_file_name(*id));
            if let Ok(meta) = std::fs::metadata(&path) {
                stats.bytes_reclaimed += meta.len();
            }
            self.fs.remove(&path, MutationKind::Unlink)?;
            stats.packs_deleted += 1;
        }
        let quarantine_pruned = dead.iter().any(|id| inner.quarantined.remove(id));
        if quarantine_pruned {
            self.save_quarantine(&inner.quarantined)?;
        }
        self.commit_intent(inner, &IntentRecord::GcCommit { seq })?;
        // The index swapped in above is current: reset the journal.
        self.journal_reset(inner, self.fs.as_ref())?;
        self.metrics.gc_packs.add(stats.packs_deleted);
        self.metrics.gc_reclaimed_bytes.add(stats.bytes_reclaimed);
        self.metrics.packs.add(-(stats.packs_deleted as i64));
        Ok(stats)
    }

    /// Rewrites packs that hold a mix of live and dead chunks: the
    /// live chunks of every such pack migrate into one new sealed pack
    /// (fresh parity), the index is repointed, and the source packs
    /// are unlinked. Running [`ChunkStore::gc`] then
    /// [`ChunkStore::compact`] drives [`StoreStats::bytes_garbage`] to
    /// zero, restoring the exact `logical == physical + deduped`
    /// ledger. Quarantined packs are never compacted (their bytes are
    /// suspect); journaled like every other multi-file operation.
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn compact(&self) -> StoreResult<CompactStats> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut live_by_pack: BTreeMap<u32, u64> = BTreeMap::new();
        let mut dead_by_pack: BTreeMap<u32, u64> = BTreeMap::new();
        for e in inner.index.values() {
            let slot = if e.refcount > 0 {
                &mut live_by_pack
            } else {
                &mut dead_by_pack
            };
            *slot.entry(e.pack).or_default() += 1;
        }
        let srcs: Vec<u32> = dead_by_pack
            .keys()
            .filter(|id| live_by_pack.contains_key(id) && !inner.quarantined.contains(id))
            .copied()
            .collect();
        if srcs.is_empty() {
            return Ok(CompactStats::default());
        }
        let src_set: HashSet<u32> = srcs.iter().copied().collect();

        // Collect the live chunks to migrate, in deterministic
        // (pack, offset) order, reading each source pack once.
        let mut migrate: Vec<(Digest128, u32, u64, u32)> = inner
            .index
            .iter()
            .filter(|(_, e)| e.refcount > 0 && src_set.contains(&e.pack))
            .map(|(d, e)| (*d, e.pack, e.data_offset, e.len))
            .collect();
        migrate.sort_by_key(|&(_, pack, off, _)| (pack, off));
        let mut pack_bytes: BTreeMap<u32, Vec<u8>> = BTreeMap::new();
        for &id in &srcs {
            pack_bytes.insert(
                id,
                std::fs::read(self.packs_dir().join(pack_file_name(id)))?,
            );
        }
        let chunks: Vec<(Digest128, &[u8])> = migrate
            .iter()
            .map(|&(d, pack, off, len)| (d, &pack_bytes[&pack][off as usize..][..len as usize]))
            .collect();

        let dst = inner.next_pack;
        let seq = self.begin_intent(inner, |seq| IntentRecord::CompactBegin {
            seq,
            src_packs: srcs.clone(),
            dst_pack: dst,
        })?;

        let mut stats = CompactStats {
            pack: Some(dst),
            ..CompactStats::default()
        };
        let dst_path = self.packs_dir().join(pack_file_name(dst));
        let records = write_pack(self.fs.as_ref(), &dst_path, &chunks, self.parity_width)?;
        inner.next_pack += 1;
        for r in &records {
            stats.chunks_migrated += 1;
            stats.bytes_migrated += u64::from(r.len);
        }
        // Repoint migrated digests, drop the sources' dead entries.
        for r in records {
            if let Some(e) = inner.index.get_mut(&r.digest) {
                e.pack = dst;
                e.data_offset = r.data_offset;
            }
        }
        inner
            .index
            .retain(|_, e| !(src_set.contains(&e.pack) && e.refcount == 0));
        save_index(self.fs.as_ref(), &self.index_path(), &inner.index)?;
        let mut src_file_bytes = 0u64;
        for id in &srcs {
            let path = self.packs_dir().join(pack_file_name(*id));
            if let Ok(meta) = std::fs::metadata(&path) {
                src_file_bytes += meta.len();
            }
            self.fs.remove(&path, MutationKind::Unlink)?;
            stats.packs_rewritten += 1;
        }
        self.commit_intent(inner, &IntentRecord::CompactCommit { seq })?;
        // As in `gc`: the swapped-in index is current.
        self.journal_reset(inner, self.fs.as_ref())?;
        let dst_file_bytes = std::fs::metadata(&dst_path).map(|m| m.len()).unwrap_or(0);
        stats.bytes_reclaimed = src_file_bytes.saturating_sub(dst_file_bytes);
        self.metrics.gc_reclaimed_bytes.add(stats.bytes_reclaimed);
        self.metrics
            .packs
            .add(1 - i64::try_from(stats.packs_rewritten).unwrap_or(i64::MAX));
        Ok(stats)
    }

    /// Bit-rot detection: re-reads every pack and re-hashes every
    /// chunk against the digest it is filed under. Quarantined packs
    /// are skipped (known bad; counted in
    /// [`ScrubReport::packs_quarantined`]).
    ///
    /// The scan holds no state a concurrent [`ChunkStore::gc`] can
    /// invalidate: the pack list is a snapshot, and a pack that
    /// vanishes mid-scan is re-checked against the live index — swept
    /// packs are skipped, not reported as corruption.
    ///
    /// # Errors
    ///
    /// Filesystem failures, or a pack whose record table no longer
    /// parses (structural corruption beyond a flipped payload bit).
    pub fn scrub(&self) -> StoreResult<ScrubReport> {
        let mut report = ScrubReport::default();
        // Snapshot under the lock; drop it for the (slow) reads.
        let (pack_ids, quarantined) = {
            let inner = self.inner.lock();
            let mut ids: Vec<u32> = Vec::new();
            for entry in std::fs::read_dir(self.packs_dir())? {
                let entry = entry?;
                if let Some(id) = parse_pack_file_name(&entry.file_name().to_string_lossy()) {
                    ids.push(id);
                }
            }
            ids.sort_unstable();
            (ids, inner.quarantined.clone())
        };
        for id in pack_ids {
            if quarantined.contains(&id) {
                report.packs_quarantined += 1;
                continue;
            }
            let bytes = match std::fs::read(self.packs_dir().join(pack_file_name(id))) {
                Ok(bytes) => bytes,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Re-check under the lock: if nothing references
                    // the pack any more, a concurrent gc swept it
                    // between our snapshot and this read — skip it.
                    let inner = self.inner.lock();
                    if inner.index.values().any(|en| en.pack == id) {
                        return Err(e.into());
                    }
                    continue;
                }
                Err(e) => return Err(e.into()),
            };
            let records = scan_pack(&bytes)?;
            report.packs_scanned += 1;
            for r in records {
                report.chunks_scanned += 1;
                let actual = raw_chunk_digest(&bytes[r.data_offset as usize..][..r.len as usize]);
                if actual != r.digest {
                    report.failures.push(ScrubFailure {
                        pack: id,
                        data_offset: r.data_offset,
                        len: r.len,
                        expected: r.digest,
                        actual,
                    });
                }
            }
        }
        self.metrics.scrub_chunks.add(report.chunks_scanned);
        self.metrics
            .scrub_failures
            .add(report.failures.len() as u64);
        Ok(report)
    }

    /// Full integrity pass: every pack (quarantined ones included) is
    /// re-read and every chunk re-hashed. Without `repair` this only
    /// reports. With `repair`:
    ///
    /// * any parity group with exactly one corrupt chunk is healed —
    ///   the chunk is reconstructed from XOR parity, verified against
    ///   its content address, and the pack is atomically rewritten;
    /// * packs left with unrecoverable chunks (≥ 2 corrupt in one
    ///   group, no parity, or structural damage) are **quarantined**:
    ///   recorded in `quarantine.bin`, excluded from dedup, and served
    ///   verify-on-read so comparison degrades instead of lying.
    ///
    /// Repairs and quarantines bump the `store.repair.*` /
    /// `store.quarantine.*` counters and emit `repair` /
    /// `pack_quarantine` flight-recorder events (see
    /// [`ChunkStore::journal_slot`]).
    ///
    /// # Errors
    ///
    /// Filesystem failures.
    pub fn fsck(&self, repair: bool) -> StoreResult<FsckReport> {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        let mut report = FsckReport {
            repair,
            ..FsckReport::default()
        };
        let mut pack_ids: Vec<u32> = Vec::new();
        for entry in std::fs::read_dir(self.packs_dir())? {
            let entry = entry?;
            if let Some(id) = parse_pack_file_name(&entry.file_name().to_string_lossy()) {
                pack_ids.push(id);
            }
        }
        pack_ids.sort_unstable();
        let mut quarantine_dirty = false;
        for id in pack_ids {
            let path = self.packs_dir().join(pack_file_name(id));
            let mut bytes = std::fs::read(&path)?;
            report.packs_scanned += 1;
            let parsed = match parse_pack(&bytes) {
                Ok(parsed) => parsed,
                Err(_) => {
                    // Structural damage: the record table itself is
                    // gone. Count the chunks the index files under
                    // this pack; nothing is reconstructible.
                    let chunks = inner.index.values().filter(|e| e.pack == id).count() as u64;
                    report.chunks_corrupt += chunks;
                    report.chunks_unrecoverable += chunks;
                    if repair && inner.quarantined.insert(id) {
                        quarantine_dirty = true;
                        report.packs_quarantined.push(id);
                        self.metrics.quarantine_packs.add(1);
                        self.metrics.quarantine_chunks.add(chunks);
                        self.obs.emit(
                            "store",
                            EventKind::PackQuarantine {
                                pack: u64::from(id),
                                chunks,
                            },
                        );
                    }
                    continue;
                }
            };
            let bad: Vec<usize> = parsed
                .records
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    raw_chunk_digest(&bytes[r.data_offset as usize..][..r.len as usize]) != r.digest
                })
                .map(|(i, _)| i)
                .collect();
            report.chunks_scanned += parsed.records.len() as u64;
            report.chunks_corrupt += bad.len() as u64;
            if bad.is_empty() || !repair {
                continue;
            }
            let outcome = repair_pack(&mut bytes, &bad)?;
            if !outcome.repaired.is_empty() {
                // Publish the healed pack atomically: readers see the
                // old (corrupt) pack or the fully repaired one.
                self.fs
                    .write_atomic(&path, &bytes, MutationKind::PackSeal)?;
                report.chunks_repaired += outcome.repaired.len() as u64;
                self.metrics
                    .repair_chunks
                    .add(outcome.repaired.len() as u64);
                self.obs.emit(
                    "store",
                    EventKind::Repair {
                        pack: u64::from(id),
                        chunks: outcome.repaired.len() as u64,
                    },
                );
            }
            if outcome.unrecoverable.is_empty() {
                report.packs_repaired += 1;
                self.metrics.repair_packs.add(1);
            } else {
                report.chunks_unrecoverable += outcome.unrecoverable.len() as u64;
                if inner.quarantined.insert(id) {
                    quarantine_dirty = true;
                    report.packs_quarantined.push(id);
                    self.metrics.quarantine_packs.add(1);
                    self.metrics
                        .quarantine_chunks
                        .add(outcome.unrecoverable.len() as u64);
                    self.obs.emit(
                        "store",
                        EventKind::PackQuarantine {
                            pack: u64::from(id),
                            chunks: outcome.unrecoverable.len() as u64,
                        },
                    );
                }
            }
        }
        if quarantine_dirty {
            self.save_quarantine(&inner.quarantined)?;
        }
        Ok(report)
    }

    /// Aggregate accounting over the store's current contents.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock();
        let mut s = StoreStats {
            objects: inner.manifests.len() as u64,
            packs_quarantined: inner.quarantined.len() as u64,
            ..StoreStats::default()
        };
        let mut packs: HashSet<u32> = HashSet::new();
        let mut bytes_live = 0u64;
        for e in inner.index.values() {
            s.chunks_unique += 1;
            s.chunk_refs += u64::from(e.refcount);
            s.bytes_physical += u64::from(e.len);
            if e.refcount > 0 {
                bytes_live += u64::from(e.len);
            } else {
                s.bytes_garbage += u64::from(e.len);
            }
            packs.insert(e.pack);
        }
        s.packs = packs.len() as u64;
        for m in inner.manifests.values() {
            s.bytes_logical += m.total_len();
            if let ManifestKind::Delta { .. } = m.kind {
                s.delta_objects += 1;
                s.bytes_skipped += m.skipped_bytes();
                if let Ok(chain) = chain_versions(&inner.manifests, &m.name, m.version) {
                    s.chain_depth_max = s.chain_depth_max.max(chain.len() as u64 - 1);
                }
            }
        }
        s.bytes_deduped = s.bytes_logical.saturating_sub(bytes_live + s.bytes_skipped);
        drop(inner);
        if let Ok(entries) = std::fs::read_dir(self.packs_dir()) {
            s.pack_file_bytes = entries
                .filter_map(Result::ok)
                .filter(|e| parse_pack_file_name(&e.file_name().to_string_lossy()).is_some())
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum();
        }
        s
    }
}

/// Decoded geometry of one stored checkpoint (see
/// [`ChunkStore::layout`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectLayout {
    /// Checkpoint name.
    pub name: String,
    /// Checkpoint version.
    pub version: u64,
    /// Chunk size the checkpoint was ingested under.
    pub chunk_bytes: u32,
    /// Total byte length (headers + payload).
    pub total_len: u64,
    /// Byte offset where the payload starts (after leading
    /// [`crate::HEADER_SEGMENT`] segments).
    pub payload_offset: u64,
    /// Opaque metadata blob stored at ingest (possibly empty).
    pub meta: Vec<u8>,
    /// Every segment's `(name, byte length)`, in file order.
    pub segments: Vec<(String, u64)>,
    /// The payload's chunk digest sequence under `chunk_bytes`
    /// chunking — `Some` only when every non-final payload segment
    /// length is a multiple of `chunk_bytes`, i.e. when concatenating
    /// the per-segment sequences equals chunking the flat payload.
    pub payload_chunk_digests: Option<Vec<Digest128>>,
}

impl ObjectLayout {
    fn from_manifest(m: &Manifest) -> Self {
        let segments = m.segments.iter();
        let payload_chunk_digests = payload_digests(
            segments.map(|s| (s.name.as_str(), s.len, s.digests.as_slice())),
            m.chunk_bytes as usize,
        );
        ObjectLayout {
            name: m.name.clone(),
            version: m.version,
            chunk_bytes: m.chunk_bytes,
            total_len: m.total_len(),
            payload_offset: m.payload_offset(),
            meta: m.meta.clone(),
            segments: m.segments.iter().map(|s| (s.name.clone(), s.len)).collect(),
            payload_chunk_digests,
        }
    }

    /// Payload length in bytes.
    #[must_use]
    pub fn payload_len(&self) -> u64 {
        self.total_len - self.payload_offset
    }
}

/// A checkpoint's segments with the raw digest of each of their
/// `chunk_bytes`-sized chunks, the store's content addresses: hashed
/// once, before [`ChunkStore::ingest_digested`] takes the store's lock.
#[derive(Debug, Clone)]
pub struct Digested<'a> {
    segments: &'a [(&'a str, &'a [u8])],
    chunk_bytes: usize,
    digests: Vec<Vec<Digest128>>,
}

impl<'a> Digested<'a> {
    /// Digests every chunk of every segment (none under a zero chunk
    /// size, which the ingest refuses).
    #[must_use]
    pub fn new(segments: &'a [(&'a str, &'a [u8])], chunk_bytes: usize) -> Self {
        let digest = |bytes: &[u8]| match chunk_bytes {
            0 => Vec::new(),
            cb => bytes.chunks(cb).map(raw_chunk_digest).collect(),
        };
        let digests = segments.iter().map(|(_, bytes)| digest(bytes)).collect();
        Digested {
            segments,
            chunk_bytes,
            digests,
        }
    }

    /// The chunk size the digests were taken under.
    #[must_use]
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// The payload's chunk digests, under the rule of
    /// [`ObjectLayout::payload_chunk_digests`].
    #[must_use]
    pub fn payload_chunk_digests(&self) -> Option<Vec<Digest128>> {
        let segments = self.segments.iter().zip(&self.digests);
        payload_digests(
            segments.map(|((name, bytes), d)| (*name, bytes.len() as u64, d.as_slice())),
            self.chunk_bytes,
        )
    }
}

/// The digests of the segments past the leading
/// [`crate::HEADER_SEGMENT`]s, given as `(name, length, digests)`, when
/// concatenating them equals chunking the flat payload: every payload
/// segment but the last is a whole number of chunks.
fn payload_digests<'s>(
    segments: impl Iterator<Item = (&'s str, u64, &'s [Digest128])>,
    chunk_bytes: usize,
) -> Option<Vec<Digest128>> {
    let payload: Vec<_> = segments
        .skip_while(|(name, ..)| *name == crate::HEADER_SEGMENT)
        .collect();
    let whole = |len: u64| len.checked_rem(chunk_bytes as u64) == Some(0);
    let aligned = (payload.iter().rev().skip(1)).all(|&(_, len, _)| whole(len));
    aligned.then(|| {
        payload
            .iter()
            .flat_map(|(.., d)| d.iter().copied())
            .collect()
    })
}

/// Walks the delta chain of `name`@`version` back to its full anchor
/// and returns the member versions, anchor first. Termination is
/// guaranteed because parent versions are strictly decreasing (decode
/// rejects anything else).
fn chain_versions(
    manifests: &BTreeMap<(String, u64), Manifest>,
    name: &str,
    version: u64,
) -> StoreResult<Vec<u64>> {
    let mut versions = vec![version];
    let mut cur = version;
    loop {
        let m = manifests.get(&(name.to_owned(), cur)).ok_or_else(|| {
            StoreError::Corrupt(format!(
                "delta chain of {name}@{version} is broken: ancestor v{cur} is missing"
            ))
        })?;
        match m.kind {
            ManifestKind::Full => break,
            ManifestKind::Delta { parent } => {
                versions.push(parent);
                cur = parent;
            }
        }
    }
    versions.reverse();
    Ok(versions)
}

/// Builds the [`StoreError::Locked`] for a contended open, naming the
/// holder recorded in the lock file (best effort — a lock racing away
/// between the existence check and the read still reports "unknown").
fn locked_error(root: &Path, lock_path: &Path) -> StoreError {
    let owner = std::fs::read_to_string(lock_path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    StoreError::Locked {
        root: root.to_path_buf(),
        owner,
    }
}

/// Parses the quarantine ledger; a missing or malformed file is an
/// empty set (quarantine is a cache of known-bad packs — losing it
/// degrades to "fsck will rediscover the corruption", never to data
/// loss).
fn load_quarantine(path: &Path) -> HashSet<u32> {
    let Ok(bytes) = std::fs::read(path) else {
        return HashSet::new();
    };
    let mut c = Cursor::new(&bytes, "quarantine");
    let mut parse = || -> StoreResult<HashSet<u32>> {
        c.magic(QUARANTINE_MAGIC)?;
        let n = c.u32()? as usize;
        let mut ids = HashSet::with_capacity(n.min(4096));
        for _ in 0..n {
            ids.insert(c.u32()?);
        }
        Ok(ids)
    };
    parse().unwrap_or_default()
}

/// Does the on-disk index agree with the authoritative state? It must
/// point only at packs that exist and cover every manifest-referenced
/// digest. (Unreferenced on-disk packs — crash orphans, fully
/// repointed quarantined packs — are legal: the directory-walking
/// [`ChunkStore::gc`] reclaims them without index entries.)
fn index_consistent(
    index: &Index,
    manifests: &BTreeMap<(String, u64), Manifest>,
    pack_ids: &[u32],
) -> bool {
    let on_disk: HashSet<u32> = pack_ids.iter().copied().collect();
    if !index.values().all(|e| on_disk.contains(&e.pack)) {
        return false;
    }
    manifests.values().all(|m| {
        m.segments
            .iter()
            .flat_map(|s| s.digests.iter())
            .all(|d| index.contains_key(d))
    })
}

/// Rebuilds the index from first principles: chunk locations from pack
/// record tables, refcounts from manifest references. Quarantined
/// packs are scanned *first* so any healthy copy of the same digest
/// (from a repointing re-ingest or a compaction) overwrites the
/// suspect location; among healthy packs the newest pack wins, which
/// is exactly what a completed operation would have published.
fn rebuild_index(
    packs_dir: &Path,
    pack_ids: &[u32],
    quarantined: &HashSet<u32>,
    manifests: &BTreeMap<(String, u64), Manifest>,
) -> StoreResult<Index> {
    let mut index = Index::new();
    let ordered = pack_ids
        .iter()
        .filter(|id| quarantined.contains(id))
        .chain(pack_ids.iter().filter(|id| !quarantined.contains(id)));
    for &id in ordered {
        let bytes = std::fs::read(packs_dir.join(pack_file_name(id)))?;
        for r in scan_pack(&bytes)? {
            index.insert(
                r.digest,
                IndexEntry {
                    pack: id,
                    data_offset: r.data_offset,
                    len: r.len,
                    refcount: 0,
                },
            );
        }
    }
    for m in manifests.values() {
        // Every reference — owned or borrowed — must resolve at a
        // consistent length, but only *owned* references contribute a
        // refcount: exactly what ingest/remove maintain, so a rebuilt
        // index matches a cleanly-written one bit for bit.
        for (digest, len) in m.chunk_lens() {
            match index.get(&digest) {
                Some(e) if e.len == len => {}
                Some(e) => {
                    return Err(StoreError::Corrupt(format!(
                        "digest {digest:?} stored as {} bytes but {}@{} references {len}",
                        e.len, m.name, m.version
                    )))
                }
                None => {
                    return Err(StoreError::Corrupt(format!(
                        "manifest {}@{} references digest {digest:?} absent from every pack",
                        m.name, m.version
                    )))
                }
            }
        }
        for (digest, _) in m.own_chunk_lens() {
            if let Some(e) = index.get_mut(&digest) {
                e.refcount += 1;
            }
        }
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::RealFs;

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("reprocmp-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&root).ok();
        root
    }

    fn payload(n: usize, seed: u64) -> Vec<u8> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect()
    }

    #[test]
    fn exclusive_lock_excludes_every_other_open_until_dropped() {
        let root = temp_root("lock");
        let exclusive = ChunkStore::open_exclusive(&root, "daemon pid=1234").unwrap();
        assert_eq!(
            ChunkStore::lock_owner(&root).as_deref(),
            Some("daemon pid=1234")
        );

        // Plain and exclusive contenders both get the typed error
        // naming the holder.
        for contender in [
            ChunkStore::open(&root),
            ChunkStore::open_exclusive(&root, "other"),
        ] {
            match contender {
                Err(StoreError::Locked { root: r, owner }) => {
                    assert_eq!(r, root);
                    assert_eq!(owner, "daemon pid=1234");
                }
                other => panic!("expected Locked, got {other:?}"),
            }
        }

        // Dropping the owner releases the lock; the store reopens.
        drop(exclusive);
        assert_eq!(ChunkStore::lock_owner(&root), None);
        ChunkStore::open(&root).unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn force_unlock_clears_a_stale_lock() {
        let root = temp_root("stale-lock");
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(crate::LOCK_FILE), "dead-daemon\n").unwrap();
        assert!(matches!(
            ChunkStore::open(&root),
            Err(StoreError::Locked { .. })
        ));
        assert_eq!(
            ChunkStore::force_unlock(&root).unwrap().as_deref(),
            Some("dead-daemon")
        );
        assert_eq!(ChunkStore::force_unlock(&root).unwrap(), None);
        ChunkStore::open(&root).unwrap();
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn ingest_materialize_round_trip_and_exact_ledger() {
        let root = temp_root("roundtrip");
        let store = ChunkStore::open(&root).unwrap();
        let header = payload(26, 1);
        let x = payload(5000, 2);
        let y = payload(3000, 3);
        let stats = store
            .ingest(
                "ck",
                1,
                &[(crate::HEADER_SEGMENT, &header), ("x", &x), ("y", &y)],
                256,
                b"meta-blob",
            )
            .unwrap();
        assert_eq!(stats.bytes_logical, 8026);
        assert_eq!(
            stats.bytes_logical,
            stats.bytes_physical + stats.bytes_deduped
        );
        assert_eq!(stats.chunk_refs, stats.chunks_stored + stats.chunks_deduped);
        let mut expect = header.clone();
        expect.extend_from_slice(&x);
        expect.extend_from_slice(&y);
        assert_eq!(store.materialize("ck", 1).unwrap(), expect);
        let layout = store.layout("ck", 1).unwrap();
        assert_eq!(layout.payload_offset, 26);
        assert_eq!(layout.payload_len(), 8000);
        assert_eq!(layout.meta, b"meta-blob");
        assert_eq!(
            layout.segments,
            vec![
                (crate::HEADER_SEGMENT.to_owned(), 26),
                ("x".to_owned(), 5000),
                ("y".to_owned(), 3000)
            ]
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn identical_reingestion_stores_zero_new_bytes() {
        let root = temp_root("dedup");
        let store = ChunkStore::open(&root).unwrap();
        let data = payload(10_000, 42);
        let first = store.ingest("it", 1, &[("x", &data)], 512, &[]).unwrap();
        assert_eq!(first.bytes_physical, 10_000);
        assert_eq!(first.chunks_deduped, 0);
        let second = store.ingest("it", 2, &[("x", &data)], 512, &[]).unwrap();
        assert_eq!(second.bytes_physical, 0, "all chunks already stored");
        assert_eq!(second.bytes_deduped, 10_000);
        assert_eq!(second.pack, None, "no pack created for a pure-dup ingest");
        assert_eq!(
            second.bytes_logical,
            second.bytes_physical + second.bytes_deduped
        );
        // The store-wide ledger is exact too.
        let m = store.metrics();
        assert_eq!(
            m.bytes_logical.get(),
            m.bytes_physical.get() + m.bytes_deduped.get()
        );
        assert_eq!(store.materialize("it", 2).unwrap(), data);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn duplicate_key_is_exists_error() {
        let root = temp_root("exists");
        let store = ChunkStore::open(&root).unwrap();
        let data = payload(100, 5);
        store.ingest("a", 1, &[("x", &data)], 64, &[]).unwrap();
        assert!(matches!(
            store.ingest("a", 1, &[("x", &data)], 64, &[]),
            Err(StoreError::Exists { .. })
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn config_errors_are_rejected() {
        let root = temp_root("config");
        let store = ChunkStore::open(&root).unwrap();
        let data = payload(10, 1);
        assert!(matches!(
            store.ingest("", 1, &[("x", &data)], 64, &[]),
            Err(StoreError::Config(_))
        ));
        assert!(matches!(
            store.ingest("a/b", 1, &[("x", &data)], 64, &[]),
            Err(StoreError::Config(_))
        ));
        assert!(matches!(
            store.ingest("a", 1, &[("x", &data)], 0, &[]),
            Err(StoreError::Config(_))
        ));
        assert!(matches!(
            store.ingest("a", 1, &[], 64, &[]),
            Err(StoreError::Config(_))
        ));
        assert!(matches!(
            store.materialize("ghost", 9),
            Err(StoreError::NotFound { .. })
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn remove_then_gc_reclaims_unshared_packs_only() {
        let root = temp_root("gc");
        let store = ChunkStore::open(&root).unwrap();
        let shared = payload(4096, 7);
        let unique1 = payload(4096, 8);
        let unique2 = payload(4096, 9);
        let mut run1 = shared.clone();
        run1.extend_from_slice(&unique1);
        let mut run2 = shared.clone();
        run2.extend_from_slice(&unique2);
        store.ingest("r1", 1, &[("x", &run1)], 256, &[]).unwrap();
        store.ingest("r2", 1, &[("x", &run2)], 256, &[]).unwrap();
        // Nothing unreferenced yet: gc is a no-op.
        assert_eq!(store.gc().unwrap(), GcStats::default());
        store.remove("r1", 1).unwrap();
        let gc = store.gc().unwrap();
        // r1's pack held `shared`+`unique1`; `shared` is still
        // referenced by r2, so that pack must survive. Nothing is
        // reclaimable until r2 goes too.
        assert_eq!(gc.packs_deleted, 0);
        assert_eq!(store.materialize("r2", 1).unwrap(), run2, "survivor intact");
        store.remove("r2", 1).unwrap();
        let gc = store.gc().unwrap();
        assert_eq!(gc.packs_deleted, 2);
        assert!(gc.bytes_reclaimed > 0);
        assert_eq!(store.stats().chunks_unique, 0);
        assert_eq!(store.metrics().gc_packs.get(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn gc_reclaims_fully_dead_pack_while_live_data_survives() {
        let root = temp_root("gc2");
        let store = ChunkStore::open(&root).unwrap();
        let a = payload(2048, 11);
        let b = payload(2048, 12);
        store.ingest("a", 1, &[("x", &a)], 256, &[]).unwrap();
        store.ingest("b", 1, &[("x", &b)], 256, &[]).unwrap();
        store.remove("a", 1).unwrap();
        let gc = store.gc().unwrap();
        assert_eq!(gc.packs_deleted, 1, "a's pack is fully unreferenced");
        assert_eq!(gc.chunks_dropped, 8);
        assert_eq!(store.materialize("b", 1).unwrap(), b);
        assert!(store.scrub().unwrap().is_clean());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn compact_migrates_live_chunks_and_zeroes_garbage() {
        let root = temp_root("compact");
        let store = ChunkStore::open(&root).unwrap();
        let shared = payload(4096, 7);
        let unique1 = payload(4096, 8);
        let mut run1 = shared.clone();
        run1.extend_from_slice(&unique1);
        store.ingest("r1", 1, &[("x", &run1)], 256, &[]).unwrap();
        store.ingest("r2", 1, &[("x", &shared)], 256, &[]).unwrap();
        store.remove("r1", 1).unwrap();
        // r1's pack holds shared (live, via r2) + unique1 (dead): a
        // mixed pack gc cannot touch.
        assert_eq!(store.gc().unwrap().packs_deleted, 0);
        assert!(store.stats().bytes_garbage > 0);
        let c = store.compact().unwrap();
        assert_eq!(c.packs_rewritten, 1);
        assert_eq!(c.chunks_migrated, 16, "4096/256 shared chunks migrated");
        assert_eq!(c.bytes_migrated, 4096);
        let s = store.stats();
        assert_eq!(s.bytes_garbage, 0, "compaction drove garbage to zero");
        assert_eq!(
            s.bytes_logical,
            s.bytes_physical + s.bytes_deduped,
            "exact ledger restored"
        );
        assert_eq!(store.materialize("r2", 1).unwrap(), shared);
        assert!(store.scrub().unwrap().is_clean());
        // Nothing left to compact.
        assert_eq!(store.compact().unwrap(), CompactStats::default());
        // Reopen: state survives.
        drop(store);
        let store = ChunkStore::open(&root).unwrap();
        assert_eq!(store.materialize("r2", 1).unwrap(), shared);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scrub_detects_a_single_bit_flip() {
        let root = temp_root("scrub");
        let store = ChunkStore::open(&root).unwrap();
        let data = payload(4096, 21);
        store.ingest("s", 1, &[("x", &data)], 512, &[]).unwrap();
        assert!(store.scrub().unwrap().is_clean());
        // Flip one bit inside the first pack's chunk data (offsets
        // past the v2 header land in chunk payload for these sizes).
        let pack_path = root.join("packs").join(pack_file_name(0));
        let mut bytes = std::fs::read(&pack_path).unwrap();
        let records = scan_pack(&bytes).unwrap();
        bytes[records[3].data_offset as usize + 7] ^= 0x10;
        std::fs::write(&pack_path, &bytes).unwrap();
        let report = store.scrub().unwrap();
        assert_eq!(report.failures.len(), 1, "exactly one chunk is corrupt");
        assert_eq!(report.failures[0].pack, 0);
        assert_eq!(store.metrics().scrub_failures.get(), 1);
        assert_eq!(report.chunks_scanned, 8);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fsck_repairs_single_chunk_corruption_in_place() {
        let root = temp_root("fsckrepair");
        let store = ChunkStore::open(&root).unwrap();
        let data = payload(8192, 23);
        store.ingest("f", 1, &[("x", &data)], 512, &[]).unwrap();
        let pack_path = root.join("packs").join(pack_file_name(0));
        let mut bytes = std::fs::read(&pack_path).unwrap();
        let records = scan_pack(&bytes).unwrap();
        // One corrupt chunk in each of the two parity groups (16
        // chunks, width 8).
        bytes[records[2].data_offset as usize + 100] ^= 0xFF;
        bytes[records[9].data_offset as usize + 5] ^= 0x01;
        std::fs::write(&pack_path, &bytes).unwrap();
        // Report-only first.
        let dry = store.fsck(false).unwrap();
        assert_eq!(dry.chunks_corrupt, 2);
        assert_eq!(dry.chunks_repaired, 0);
        assert!(!dry.is_clean() && !dry.healthy());
        // Now repair.
        let fixed = store.fsck(true).unwrap();
        assert_eq!(fixed.chunks_corrupt, 2);
        assert_eq!(fixed.chunks_repaired, 2);
        assert_eq!(fixed.packs_repaired, 1);
        assert!(fixed.healthy());
        assert!(fixed.packs_quarantined.is_empty());
        assert_eq!(store.metrics().repair_chunks.get(), 2);
        assert_eq!(store.metrics().repair_packs.get(), 1);
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.materialize("f", 1).unwrap(), data, "byte-exact");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn two_corruptions_in_a_group_quarantine_the_pack() {
        let root = temp_root("fsckquar");
        let store = ChunkStore::open(&root).unwrap();
        let data = payload(4096, 29);
        store.ingest("q", 1, &[("x", &data)], 512, &[]).unwrap();
        let pack_path = root.join("packs").join(pack_file_name(0));
        let mut bytes = std::fs::read(&pack_path).unwrap();
        let records = scan_pack(&bytes).unwrap();
        // Two corrupt chunks in the same 8-wide parity group.
        bytes[records[1].data_offset as usize] ^= 0xAA;
        bytes[records[6].data_offset as usize] ^= 0xAA;
        std::fs::write(&pack_path, &bytes).unwrap();
        let report = store.fsck(true).unwrap();
        assert_eq!(report.chunks_corrupt, 2);
        assert_eq!(report.chunks_repaired, 0);
        assert_eq!(report.chunks_unrecoverable, 2);
        assert_eq!(report.packs_quarantined, vec![0]);
        assert_eq!(store.quarantined_packs(), vec![0]);
        assert_eq!(store.metrics().quarantine_packs.get(), 1);
        assert_eq!(store.metrics().quarantine_chunks.get(), 2);
        // Materialize now fails verification (degraded, not wrong).
        assert!(store.materialize("q", 1).is_err());
        // The quarantine ledger survives reopen.
        drop(store);
        let store = ChunkStore::open(&root).unwrap();
        assert_eq!(store.quarantined_packs(), vec![0]);
        // Re-ingesting the same data stores fresh copies (no dedup
        // against the quarantined pack) and heals materialization.
        let stats = store.ingest("q", 2, &[("x", &data)], 512, &[]).unwrap();
        assert_eq!(stats.chunks_deduped, 0, "quarantined chunks don't dedup");
        assert_eq!(stats.bytes_physical, 4096);
        assert_eq!(store.materialize("q", 1).unwrap(), data, "repointed");
        // Once every chunk is repointed the quarantined pack is
        // unreferenced; gc reclaims it and prunes the quarantine set.
        store.remove("q", 1).ok();
        let _ = store.gc().unwrap();
        assert!(store.quarantined_packs().is_empty());
        assert_eq!(store.materialize("q", 2).unwrap(), data);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reopen_restores_state_and_rebuilds_a_lost_index() {
        let root = temp_root("reopen");
        let data = payload(3000, 31);
        {
            let store = ChunkStore::open(&root).unwrap();
            store.ingest("p", 1, &[("x", &data)], 128, &[]).unwrap();
            store.ingest("p", 2, &[("x", &data)], 128, &[]).unwrap();
        }
        // Clean reopen.
        {
            let store = ChunkStore::open(&root).unwrap();
            assert_eq!(store.objects(), vec![("p".into(), 1), ("p".into(), 2)]);
            assert_eq!(store.materialize("p", 2).unwrap(), data);
            let stats = store.stats();
            assert_eq!(stats.objects, 2);
            assert_eq!(stats.bytes_logical, 6000);
            assert_eq!(stats.bytes_physical, 3000);
            assert_eq!(stats.bytes_deduped, 3000);
            assert_eq!(stats.bytes_garbage, 0);
        }
        // Torn state: the index vanished (crash before step 3). Open
        // rebuilds it from packs + manifests.
        std::fs::remove_file(root.join("index.bin")).unwrap();
        {
            let store = ChunkStore::open(&root).unwrap();
            assert_eq!(store.materialize("p", 1).unwrap(), data);
            assert_eq!(store.stats().chunk_refs, 2 * 24); // ceil(3000/128)=24 per manifest
        }
        // Orphan .tmp files are swept.
        std::fs::write(root.join("index.bin.tmp"), b"torn").unwrap();
        std::fs::write(root.join("packs").join("pack-000099.pack.tmp"), b"torn").unwrap();
        {
            let _store = ChunkStore::open(&root).unwrap();
            assert!(!root.join("index.bin.tmp").exists());
            assert!(!root.join("packs").join("pack-000099.pack.tmp").exists());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn orphan_pack_from_a_crashed_ingest_is_reclaimed() {
        let root = temp_root("orphan");
        let data = payload(1024, 41);
        {
            let store = ChunkStore::open(&root).unwrap();
            store.ingest("ok", 1, &[("x", &data)], 128, &[]).unwrap();
        }
        // Simulate a legacy crash between pack publish and manifest
        // publish with no journal record (e.g. a pre-journal store):
        // a pack exists that no manifest references.
        let orphan = payload(1024, 42);
        let chunks: Vec<(Digest128, &[u8])> = orphan
            .chunks(128)
            .map(|c| (raw_chunk_digest(c), c))
            .collect();
        write_pack(
            &RealFs,
            &root.join("packs").join(pack_file_name(7)),
            &chunks,
            DEFAULT_PARITY_GROUP_WIDTH,
        )
        .unwrap();
        let store = ChunkStore::open(&root).unwrap();
        // The directory-walking gc reclaims the orphan without any
        // index entry; pack id 7 stays reserved (next_pack > 7).
        let gc = store.gc().unwrap();
        assert_eq!(gc.packs_deleted, 1);
        assert_eq!(store.materialize("ok", 1).unwrap(), data);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn pending_ingest_intent_is_undone_on_open() {
        let root = temp_root("replayingest");
        let data = payload(1024, 43);
        {
            let store = ChunkStore::open(&root).unwrap();
            store.ingest("ok", 1, &[("x", &data)], 128, &[]).unwrap();
        }
        // Forge the crash the journal is for: a pack sealed, the
        // intent journaled, but no manifest published.
        let orphan = payload(1024, 44);
        let chunks: Vec<(Digest128, &[u8])> = orphan
            .chunks(128)
            .map(|c| (raw_chunk_digest(c), c))
            .collect();
        write_pack(
            &RealFs,
            &root.join("packs").join(pack_file_name(9)),
            &chunks,
            DEFAULT_PARITY_GROUP_WIDTH,
        )
        .unwrap();
        let frame = encode_record(&IntentRecord::IngestBegin {
            seq: 1,
            name: "crashed".into(),
            version: 1,
            pack: Some(9),
        });
        std::fs::write(root.join(JOURNAL_FILE), &frame).unwrap();
        let store = ChunkStore::open(&root).unwrap();
        // Replay undid the orphan pack and reset the journal.
        assert!(!root.join("packs").join(pack_file_name(9)).exists());
        assert!(!root.join(JOURNAL_FILE).exists());
        assert_eq!(store.metrics().journal_replays.get(), 1);
        assert_eq!(store.materialize("ok", 1).unwrap(), data);
        let s = store.stats();
        assert_eq!(s.bytes_garbage, 0);
        assert_eq!(s.bytes_logical, s.bytes_physical + s.bytes_deduped);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn layout_exposes_aligned_payload_digests() {
        let root = temp_root("layout");
        let store = ChunkStore::open(&root).unwrap();
        let header = payload(26, 1);
        let x = payload(512, 2); // multiple of 128
        let y = payload(300, 3); // final segment may be ragged
        store
            .ingest(
                "al",
                1,
                &[(crate::HEADER_SEGMENT, &header), ("x", &x), ("y", &y)],
                128,
                &[],
            )
            .unwrap();
        let layout = store.layout("al", 1).unwrap();
        let digests = layout.payload_chunk_digests.expect("aligned payload");
        let mut flat = x.clone();
        flat.extend_from_slice(&y);
        let expect: Vec<Digest128> = flat.chunks(128).map(raw_chunk_digest).collect();
        assert_eq!(digests, expect);
        // A ragged middle segment kills the equivalence.
        store
            .ingest(
                "rag",
                1,
                &[("x", &payload(100, 4)), ("y", &payload(100, 5))],
                64,
                &[],
            )
            .unwrap();
        assert!(store
            .layout("rag", 1)
            .unwrap()
            .payload_chunk_digests
            .is_none());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stats_ledger_matches_metrics_across_many_ingests() {
        let root = temp_root("ledger");
        let registry = reprocmp_obs::Registry::new();
        let store = ChunkStore::open_observed_with(
            &root,
            StoreMetrics::in_registry(&registry, "store"),
            StoreConfig::default(),
        )
        .unwrap();
        let base = payload(8192, 50);
        for v in 1..=4u64 {
            let mut data = base.clone();
            // Each version perturbs a different 256-byte window.
            let at = (v as usize - 1) * 2048;
            data[at..at + 256].copy_from_slice(&payload(256, 100 + v));
            store.ingest("run", v, &[("x", &data)], 256, &[]).unwrap();
        }
        let logical = registry.counter("store.bytes_logical").get();
        let physical = registry.counter("store.bytes_physical").get();
        let deduped = registry.counter("store.bytes_deduped").get();
        assert_eq!(logical, 4 * 8192);
        assert_eq!(logical, physical + deduped, "ledger is exact");
        assert!(physical < logical, "dedup saved something");
        let s = store.stats();
        assert_eq!(s.bytes_logical, logical);
        assert_eq!(s.bytes_physical, physical);
        assert_eq!(registry.gauge("store.objects").get(), 4);
        std::fs::remove_dir_all(&root).ok();
    }

    const DELTA: DeltaPolicy = DeltaPolicy {
        anchor_every: 3,
        max_depth: 16,
    };

    #[test]
    fn delta_ingest_skips_unchanged_chunks_with_an_exact_ledger() {
        let root = temp_root("delta");
        let store = ChunkStore::open(&root).unwrap();
        let mut data = payload(2048, 60);
        store.ingest("run", 1, &[("x", &data)], 256, &[]).unwrap();
        // One changed chunk out of eight.
        data[512..768].copy_from_slice(&payload(256, 61));
        let expect = data.clone();
        let s = store
            .ingest_delta("run", 2, &[("x", &data)], 256, &[], &DELTA)
            .unwrap();
        assert_eq!(s.parent, Some(1));
        assert_eq!(s.depth, 1);
        assert_eq!(s.chunks_skipped, 7, "unchanged chunks never re-captured");
        assert_eq!(s.bytes_skipped, 7 * 256);
        assert_eq!(s.chunks_stored, 1);
        assert_eq!(s.bytes_physical, 256);
        assert_eq!(
            s.bytes_logical,
            s.bytes_physical + s.bytes_deduped + s.bytes_skipped,
            "the four-term ledger is exact"
        );
        assert_eq!(store.materialize("run", 2).unwrap(), expect);
        let stats = store.stats();
        assert_eq!(stats.delta_objects, 1);
        assert_eq!(stats.chain_depth_max, 1);
        assert_eq!(
            stats.bytes_logical,
            stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn policy_forces_full_anchors_at_cadence() {
        let root = temp_root("anchors");
        let store = ChunkStore::open(&root).unwrap();
        let mut data = payload(1024, 62);
        for v in 1..=7u64 {
            data[..256].copy_from_slice(&payload(256, 70 + v));
            let s = store
                .ingest_delta("run", v, &[("x", &data)], 256, &[], &DELTA)
                .unwrap();
            // anchor_every = 3: depths cycle 0,1,2,0,1,2,0.
            assert_eq!(s.depth, (v - 1) % 3, "v{v} depth");
            assert_eq!(s.parent.is_none(), s.depth == 0, "v{v} parent");
        }
        let links = store.chain("run", 6).unwrap();
        assert_eq!(links.len(), 3, "v6 restores through its anchor v4");
        assert_eq!(links[0].version, 4);
        assert_eq!(links[0].depth, 0);
        assert_eq!(links[2].version, 6);
        assert_eq!(links[2].parent, Some(5));
        assert_eq!(store.chain("run", 7).unwrap().len(), 1, "v7 is an anchor");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn removing_a_pinned_parent_is_refused_until_the_tail_goes_first() {
        let root = temp_root("pinned");
        let store = ChunkStore::open(&root).unwrap();
        let mut data = payload(1024, 63);
        store.ingest("run", 1, &[("x", &data)], 256, &[]).unwrap();
        data[..256].copy_from_slice(&payload(256, 64));
        let expect2 = data.clone();
        store
            .ingest_delta("run", 2, &[("x", &data)], 256, &[], &DELTA)
            .unwrap();
        match store.remove("run", 1) {
            Err(StoreError::ChainPinned {
                name,
                version,
                child,
            }) => {
                assert_eq!(name, "run");
                assert_eq!(version, 1);
                assert_eq!(child, 2);
            }
            other => panic!("pinned remove must be refused, got {other:?}"),
        }
        // The refusal freed nothing: the chain still restores.
        assert_eq!(store.materialize("run", 2).unwrap(), expect2);
        // Tail-first teardown works.
        store.remove("run", 2).unwrap();
        store.remove("run", 1).unwrap();
        store.gc().unwrap();
        assert_eq!(store.stats().chunks_unique, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn flatten_rewrites_a_delta_to_full_and_unpins_its_parent() {
        let root = temp_root("flatten");
        let store = ChunkStore::open(&root).unwrap();
        let mut data = payload(1024, 65);
        store.ingest("run", 1, &[("x", &data)], 256, &[]).unwrap();
        data[..256].copy_from_slice(&payload(256, 66));
        let expect2 = data.clone();
        store
            .ingest_delta("run", 2, &[("x", &data)], 256, &[], &DELTA)
            .unwrap();
        assert!(store.flatten("run", 2).unwrap(), "delta was rewritten");
        assert!(!store.flatten("run", 2).unwrap(), "second pass is a no-op");
        let links = store.chain("run", 2).unwrap();
        assert_eq!(links.len(), 1, "flattened manifest anchors itself");
        assert_eq!(links[0].bytes_skipped, 0);
        // The parent is no longer pinned, and dropping it must not take
        // the chunks the flattened manifest now owns outright.
        store.remove("run", 1).unwrap();
        store.gc().unwrap();
        store.compact().unwrap();
        assert_eq!(store.materialize("run", 2).unwrap(), expect2);
        assert!(store.scrub().unwrap().is_clean());
        assert_eq!(store.stats().bytes_skipped, 0);
        std::fs::remove_dir_all(&root).ok();
    }

    /// Regression: a chunk stored by a Full manifest and *re-written*
    /// (not skipped) by a later Delta deduplicates to the same index
    /// entry. Both manifests own a reference, so removing the delta
    /// must drop the refcount 2 → 1 — never 2 → 0, which would let gc
    /// free bytes the full manifest still addresses.
    #[test]
    fn dedup_across_full_and_delta_must_not_double_free_on_gc() {
        let root = temp_root("double-free");
        let store = ChunkStore::open(&root).unwrap();
        let a = payload(256, 80);
        let b = payload(256, 81);
        let c = payload(256, 82);
        let v1: Vec<u8> = [a.clone(), b.clone()].concat();
        // v2 moves chunk `a` to a new index: same content, different
        // position, so the delta diff re-captures it as a dedup hit
        // instead of a parent skip.
        let v2: Vec<u8> = [c.clone(), a.clone()].concat();
        store.ingest("run", 1, &[("x", &v1)], 256, &[]).unwrap();
        let s = store
            .ingest_delta("run", 2, &[("x", &v2)], 256, &[], &DELTA)
            .unwrap();
        assert_eq!(s.parent, Some(1), "must be a delta for the test to bite");
        assert_eq!(s.chunks_skipped, 0, "both positions changed");
        assert_eq!(s.chunks_deduped, 1, "`a` dedups against v1's copy");
        assert_eq!(s.chunks_stored, 1, "`c` is new");

        store.remove("run", 2).unwrap();
        let gc = store.gc().unwrap();
        assert_eq!(gc.packs_deleted, 1, "only v2's own pack (holding `c`)");
        assert_eq!(
            store.materialize("run", 1).unwrap(),
            v1,
            "v1 must survive the delta's removal byte-exactly"
        );
        assert!(store.scrub().unwrap().is_clean());

        // The refcount landed on exactly 1, not 0 and not 2: dropping
        // v1 now reclaims everything.
        store.remove("run", 1).unwrap();
        store.gc().unwrap();
        assert_eq!(store.stats().chunks_unique, 0, "no leak either");
        assert_eq!(store.stats().bytes_physical, 0);
        std::fs::remove_dir_all(&root).ok();
    }
}
