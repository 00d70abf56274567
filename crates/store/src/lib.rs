//! Persistent content-addressed checkpoint store.
//!
//! The comparison engine already fingerprints every chunk of raw
//! payload bytes (the `raw_leaves` digests that make the batch
//! scheduler's verdict cache sound). This crate turns those same
//! digests into a *capture-side* dedup layer, in the spirit of
//! differential checkpointing: chunks are keyed by raw-content digest
//! and appended to immutable **packfiles**; a separate **index** maps
//! digest → (pack, offset, len, refcount); per-checkpoint **manifests**
//! record the digest sequence of every region, so ingesting a new
//! checkpoint stores only never-before-seen chunks. Across iterations
//! of one run — or across N runs of the same workload — the physical
//! bytes written approach the unique bytes produced, not N× the raw
//! checkpoint size.
//!
//! Three maintenance operations close the loop:
//!
//! * [`ChunkStore::gc`] — refcount sweep: packs whose every chunk has
//!   dropped to zero references are deleted and the index is swapped
//!   atomically.
//! * [`ChunkStore::scrub`] — bit-rot detection: every stored chunk is
//!   re-hashed against the digest it is filed under.
//! * recovery — all mutations go through `*.tmp` + atomic rename, and
//!   [`ChunkStore::open`] treats packs + manifests as the authoritative
//!   state, rebuilding the index whenever it disagrees.
//!
//! Reads resolve through the index too: [`ChunkStore::reader`] returns
//! a [`StoreStorage`] implementing `reprocmp_io::Storage`, so the
//! engine's stage-2 scattered reads stream through the existing I/O
//! pipeline (retry and quarantine semantics intact) while each byte is
//! served from the single copy of its chunk.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod fs;
pub mod index;
pub mod journal;
pub mod manifest;
pub mod metrics;
pub mod pack;
pub mod storage;
pub mod store;

pub use fs::{real_fs, CrashFs, RealFs, StoreFs};
pub use index::IndexEntry;
pub use journal::{pending_intents, read_journal, IntentRecord, JOURNAL_FILE};
pub use manifest::{Manifest, ManifestKind, Segment};
pub use metrics::StoreMetrics;
pub use pack::{PackRecord, PackRepair, DEFAULT_PARITY_GROUP_WIDTH};
pub use storage::StoreStorage;
pub use store::{
    ChainLink, ChunkStore, CompactStats, DeltaPolicy, Digested, FsckReport, GcStats, IngestStats,
    ObjectLayout, ScrubFailure, ScrubReport, StoreConfig, StoreStats, LOCK_FILE, QUARANTINE_FILE,
};

/// Reserved segment name for non-payload prefix bytes (e.g. a VELOC
/// checkpoint header). Concatenating all segments in manifest order
/// reproduces the original file byte-exactly; the payload starts after
/// the leading `__header` segments.
pub const HEADER_SEGMENT: &str = "__header";

/// Everything that can go wrong inside the store.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A pack, index, or manifest failed structural validation.
    Corrupt(String),
    /// The requested checkpoint is not in the store.
    NotFound {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
    /// An ingest targeted a (name, version) the store already holds.
    /// Ingests are idempotent per key: callers retrying after a crash
    /// treat this as success.
    Exists {
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
    /// Invalid caller-supplied configuration (empty name, zero chunk
    /// size, …).
    Config(String),
    /// A remove targeted a manifest that a live delta still names as
    /// parent. Chains release tail-first: remove (or flatten) the
    /// descendants before the ancestor.
    ChainPinned {
        /// Checkpoint name.
        name: String,
        /// The version whose removal was refused.
        version: u64,
        /// One live delta that names it as parent.
        child: u64,
    },
    /// The store is advisorily locked by another owner (typically a
    /// `reprocmp-server` daemon holding it exclusively). Shut the
    /// daemon down — or remove the stale lock file with
    /// [`ChunkStore::force_unlock`](crate::ChunkStore::force_unlock) if
    /// its process died — before opening the store here.
    Locked {
        /// The store root that is locked.
        root: std::path::PathBuf,
        /// The owner tag recorded in the lock file.
        owner: String,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::NotFound { name, version } => {
                write!(f, "checkpoint {name}@{version} not in store")
            }
            StoreError::Exists { name, version } => {
                write!(f, "checkpoint {name}@{version} already in store")
            }
            StoreError::Config(msg) => write!(f, "store config error: {msg}"),
            StoreError::ChainPinned {
                name,
                version,
                child,
            } => write!(
                f,
                "checkpoint {name}@{version} is pinned: delta {name}@{child} borrows its \
                 chunks (remove or flatten descendants first)"
            ),
            StoreError::Locked { root, owner } => write!(
                f,
                "store {} is locked by {owner}; stop that process, or remove {} if it is dead",
                root.display(),
                root.join(store::LOCK_FILE).display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<reprocmp_io::IoError> for StoreError {
    fn from(e: reprocmp_io::IoError) -> Self {
        match e {
            reprocmp_io::IoError::Os(os) => StoreError::Io(os),
            other => StoreError::Corrupt(other.to_string()),
        }
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

pub(crate) mod wire {
    //! Little-endian read helpers shared by the three on-disk codecs.

    use super::{StoreError, StoreResult};

    /// A cursor over an encoded byte buffer with bounds-checked reads.
    pub struct Cursor<'a> {
        buf: &'a [u8],
        pos: usize,
        what: &'static str,
    }

    impl<'a> Cursor<'a> {
        pub fn new(buf: &'a [u8], what: &'static str) -> Self {
            Cursor { buf, pos: 0, what }
        }

        pub fn pos(&self) -> usize {
            self.pos
        }

        pub fn remaining(&self) -> usize {
            self.buf.len() - self.pos
        }

        pub fn take(&mut self, n: usize) -> StoreResult<&'a [u8]> {
            if self.remaining() < n {
                return Err(StoreError::Corrupt(format!(
                    "{} truncated: need {n} bytes at offset {}, have {}",
                    self.what,
                    self.pos,
                    self.remaining()
                )));
            }
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        }

        pub fn u16(&mut self) -> StoreResult<u16> {
            Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
        }

        pub fn u32(&mut self) -> StoreResult<u32> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
        }

        pub fn u64(&mut self) -> StoreResult<u64> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
        }

        pub fn digest(&mut self) -> StoreResult<reprocmp_hash::Digest128> {
            let lo = self.u64()?;
            let hi = self.u64()?;
            Ok(reprocmp_hash::Digest128([lo, hi]))
        }

        pub fn magic(&mut self, expect: &[u8; 8]) -> StoreResult<()> {
            let got = self.take(8)?;
            if got != expect {
                return Err(StoreError::Corrupt(format!(
                    "{} has bad magic {:02x?} (expected {:02x?})",
                    self.what, got, expect
                )));
            }
            Ok(())
        }

        pub fn utf8(&mut self, len: usize) -> StoreResult<String> {
            let bytes = self.take(len)?;
            String::from_utf8(bytes.to_vec()).map_err(|_| {
                StoreError::Corrupt(format!("{} contains a non-UTF-8 name", self.what))
            })
        }
    }

    pub fn put_digest(out: &mut Vec<u8>, d: reprocmp_hash::Digest128) {
        out.extend_from_slice(&d.0[0].to_le_bytes());
        out.extend_from_slice(&d.0[1].to_le_bytes());
    }
}

/// The sibling `.tmp` staging path for `path`.
pub(crate) fn tmp_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}
