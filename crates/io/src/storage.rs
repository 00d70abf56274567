//! Positioned-read storage objects.
//!
//! [`Storage`] is the narrow interface every backend and the comparison
//! engine program against. Two implementations:
//!
//! * [`MemStorage`] — checkpoint bytes held in memory, every access
//!   charged against a [`CostModel`] on a shared [`SimClock`]. This is
//!   the "simulated Lustre" used by all experiments.
//! * [`StdFsStorage`] — a real file accessed with positioned reads, used
//!   by the CLI when pointed at actual checkpoint files.

use parking_lot::RwLock;
use std::fs::File;
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use crate::clock::SimClock;
use crate::cost::{CostModel, OpSpec};
use crate::{IoError, IoResult};

/// How a batch of operations is driven, for cost-charging purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Operations serialized one by one (blocking read, page fault).
    Sync,
    /// Up to `depth` operations in flight (io_uring-style).
    Async {
        /// In-flight operation budget.
        depth: usize,
    },
}

/// Byte-addressable storage with positioned reads.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Size of the object in bytes.
    fn len(&self) -> u64;

    /// True when the object holds no bytes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads `buf.len()` bytes starting at `offset`.
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> IoResult<()>;

    /// Charges the cost of a batch of operations without moving bytes.
    ///
    /// Engines call this once per batch and then use [`Storage::read_at`]
    /// for the actual copies, so the modeled cost reflects the batch
    /// shape (seek count, concurrency) rather than per-call overhead.
    /// The default implementation (real files) charges nothing — wall
    /// time is measured there instead.
    fn charge_batch(&self, _ops: &[OpSpec], _mode: AccessMode) {}

    /// Virtual time consumed on this storage's clock so far.
    fn elapsed(&self) -> Duration {
        Duration::ZERO
    }

    /// The virtual clock this storage charges, when it has one.
    ///
    /// Retry backoff waits advance this clock instead of sleeping, so
    /// simulated experiments stay deterministic and instant. Real-file
    /// backends return `None` (the default) and retries sleep for real.
    fn sim_clock(&self) -> Option<SimClock> {
        None
    }

    /// Whether reads are charged to a cost model that costs anything:
    /// simulated storage whose modeled time a result reports. Real
    /// storage (the default) and cost-free [`MemStorage::free`] say
    /// `false`; a compare on a wall timeline cuts its stage-2 slices
    /// for the CPU cache only when neither side says `true`.
    fn models_cost(&self) -> bool {
        false
    }

    /// Whether one [`Storage::read_at`] may serve several adjacent
    /// requests at once.
    ///
    /// Stage 2 on real storage reads each run of file-contiguous chunk
    /// ops with one positioned read when this holds. The default is
    /// `false`, for storages that count or journal every call (the
    /// capture store's pack reads): their tallies stay one per request.
    fn merges_adjacent_reads(&self) -> bool {
        false
    }
}

/// In-memory storage charged against a [`CostModel`].
///
/// Cloning is cheap and clones share both the bytes and the clock.
#[derive(Debug, Clone)]
pub struct MemStorage {
    bytes: Arc<RwLock<Vec<u8>>>,
    model: CostModel,
    clock: SimClock,
}

impl MemStorage {
    /// Wraps `bytes` with the given cost model on a fresh clock.
    #[must_use]
    pub fn with_model(bytes: Vec<u8>, model: CostModel) -> Self {
        MemStorage {
            bytes: Arc::new(RwLock::new(bytes)),
            model,
            clock: SimClock::new(),
        }
    }

    /// Wraps `bytes` with the model, charging time to an existing clock
    /// (several files on the same simulated device share one clock).
    #[must_use]
    pub fn with_clock(bytes: Vec<u8>, model: CostModel, clock: SimClock) -> Self {
        MemStorage {
            bytes: Arc::new(RwLock::new(bytes)),
            model,
            clock,
        }
    }

    /// Cost-free in-memory storage for tests.
    #[must_use]
    pub fn free(bytes: Vec<u8>) -> Self {
        MemStorage::with_model(bytes, CostModel::free())
    }

    /// The clock this storage charges.
    #[must_use]
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// The cost model in effect.
    #[must_use]
    pub fn model(&self) -> CostModel {
        self.model
    }

    /// Overwrites `buf.len()` bytes at `offset`, extending the object if
    /// needed, charging one sequential write.
    pub fn write_at(&self, offset: u64, buf: &[u8]) -> IoResult<()> {
        let mut bytes = self.bytes.write();
        let end = offset as usize + buf.len();
        if bytes.len() < end {
            bytes.resize(end, 0);
        }
        bytes[offset as usize..end].copy_from_slice(buf);
        self.clock
            .advance(self.model.sequential_time(buf.len() as u64));
        Ok(())
    }

    /// Copies the full contents out (test helper).
    #[must_use]
    pub fn snapshot(&self) -> Vec<u8> {
        self.bytes.read().clone()
    }
}

impl Storage for MemStorage {
    fn len(&self) -> u64 {
        self.bytes.read().len() as u64
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> IoResult<()> {
        let bytes = self.bytes.read();
        let end = offset as usize + buf.len();
        if end > bytes.len() {
            return Err(IoError::OutOfBounds {
                offset,
                len: buf.len(),
                size: bytes.len() as u64,
            });
        }
        buf.copy_from_slice(&bytes[offset as usize..end]);
        Ok(())
    }

    fn charge_batch(&self, ops: &[OpSpec], mode: AccessMode) {
        let t = match mode {
            AccessMode::Sync => self.model.sync_batch_time(ops),
            AccessMode::Async { depth } => self.model.async_batch_time(ops, depth),
        };
        self.clock.advance(t);
    }

    fn elapsed(&self) -> Duration {
        self.clock.now()
    }

    fn sim_clock(&self) -> Option<SimClock> {
        Some(self.clock.clone())
    }

    fn models_cost(&self) -> bool {
        self.model != CostModel::free()
    }
}

/// A real file opened for positioned reads.
///
/// Each read is one `pread`, so concurrent readers of one file never
/// queue behind a shared cursor.
#[derive(Debug)]
pub struct StdFsStorage {
    file: File,
    len: u64,
}

impl StdFsStorage {
    /// Opens `path` read-only.
    ///
    /// # Errors
    ///
    /// Any error from [`File::open`] or metadata lookup.
    pub fn open(path: &Path) -> IoResult<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(StdFsStorage { file, len })
    }

    /// Creates `path` (truncating) with the given contents.
    ///
    /// # Errors
    ///
    /// Any error from file creation or writing.
    pub fn create(path: &Path, contents: &[u8]) -> IoResult<()> {
        let mut f = File::create(path)?;
        f.write_all(contents)?;
        f.sync_all()?;
        Ok(())
    }
}

impl Storage for StdFsStorage {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> IoResult<()> {
        if offset + buf.len() as u64 > self.len {
            return Err(IoError::OutOfBounds {
                offset,
                len: buf.len(),
                size: self.len,
            });
        }
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn merges_adjacent_reads(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trip() {
        let data: Vec<u8> = (0..=255).collect();
        let s = MemStorage::free(data.clone());
        let mut buf = vec![0u8; 16];
        s.read_at(100, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[100..116]);
    }

    #[test]
    fn out_of_bounds_read_is_an_error() {
        let s = MemStorage::free(vec![0u8; 64]);
        let mut buf = vec![0u8; 16];
        let err = s.read_at(60, &mut buf).unwrap_err();
        assert!(matches!(err, IoError::OutOfBounds { .. }));
        let msg = err.to_string();
        assert!(msg.contains("60"), "{msg}");
    }

    #[test]
    fn charged_reads_advance_the_clock() {
        let s = MemStorage::with_model(vec![0u8; 1 << 20], CostModel::lustre_pfs());
        assert_eq!(s.elapsed(), Duration::ZERO);
        s.charge_batch(&[(0, 4096), (500_000, 4096)], AccessMode::Sync);
        assert!(
            s.elapsed() >= Duration::from_micros(600),
            "{:?}",
            s.elapsed()
        );
    }

    #[test]
    fn async_charging_is_cheaper_than_sync_for_scattered_ops() {
        let ops: Vec<OpSpec> = (0..64).map(|i| (i * 10_000, 4096)).collect();
        let a = MemStorage::with_model(vec![0u8; 1 << 20], CostModel::lustre_pfs());
        let b = MemStorage::with_model(vec![0u8; 1 << 20], CostModel::lustre_pfs());
        a.charge_batch(&ops, AccessMode::Sync);
        b.charge_batch(&ops, AccessMode::Async { depth: 64 });
        assert!(a.elapsed() > b.elapsed() * 4);
    }

    #[test]
    fn write_at_extends_and_round_trips() {
        let s = MemStorage::free(Vec::new());
        s.write_at(10, &[1, 2, 3]).unwrap();
        assert_eq!(s.len(), 13);
        let mut buf = vec![0u8; 3];
        s.read_at(10, &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2, 3]);
    }

    #[test]
    fn shared_clock_accumulates_across_files() {
        let clock = SimClock::new();
        let m = CostModel::lustre_pfs();
        let a = MemStorage::with_clock(vec![0u8; 8192], m, clock.clone());
        let b = MemStorage::with_clock(vec![0u8; 8192], m, clock.clone());
        a.charge_batch(&[(0, 4096)], AccessMode::Sync);
        b.charge_batch(&[(0, 4096)], AccessMode::Sync);
        assert_eq!(a.elapsed(), b.elapsed());
        assert!(clock.now() > Duration::ZERO);
    }

    #[test]
    fn std_fs_storage_round_trip() {
        let dir = std::env::temp_dir().join("reprocmp-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stor.bin");
        let data: Vec<u8> = (0..1024u32).flat_map(|i| i.to_le_bytes()).collect();
        StdFsStorage::create(&path, &data).unwrap();
        let s = StdFsStorage::open(&path).unwrap();
        assert_eq!(s.len(), data.len() as u64);
        let mut buf = vec![0u8; 64];
        s.read_at(512, &mut buf).unwrap();
        assert_eq!(&buf[..], &data[512..576]);
        let mut big = vec![0u8; 64];
        assert!(s.read_at(s.len() - 10, &mut big).is_err());
        std::fs::remove_file(&path).ok();
    }
}
