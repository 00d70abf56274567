//! Checkpoint sources: where a run's payload and metadata live.

use std::path::Path;
use std::sync::Arc;

use reprocmp_hash::murmur3::murmur3_x64_128;
use reprocmp_hash::{Digest128, Floats};
use reprocmp_io::{CostModel, MemStorage, SimClock, StdFsStorage, Storage};
use reprocmp_obs::StageBreakdown;

use crate::engine::CompareEngine;
use crate::{CoreError, CoreResult};

/// Delta-chain provenance of a store-backed source: where the object's
/// manifest sits in its incremental capture chain and how much flush
/// work the chain skipped for it. The engine copies these numbers into
/// `CompareReport::{capture, chain}` and the informational
/// `delta_capture` stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainProvenance {
    /// Links below the full anchor (0 = the object is a full capture).
    pub depth: u64,
    /// Bytes differential capture skipped when this object was flushed.
    pub bytes_skipped: u64,
    /// Chunk references borrowed from the parent manifest at flush.
    pub chunks_skipped: u64,
}

/// One run's checkpoint as the comparison engine sees it: a storage
/// object holding the raw `f32` payload (at some byte offset, e.g.
/// past a VELOC header) and, when it was captured, a storage object
/// holding the encoded Merkle metadata.
#[derive(Debug, Clone)]
pub struct CheckpointSource {
    /// Storage holding the checkpoint file.
    pub data: Arc<dyn Storage>,
    /// Byte offset of the `f32` payload within `data`.
    pub payload_offset: u64,
    /// Payload length in bytes (must be a multiple of 4).
    pub payload_len: u64,
    /// Storage holding the encoded Merkle tree; `None` for a source
    /// opened without ε-metadata, which a compare verifies chunk by
    /// chunk.
    pub metadata: Option<Arc<dyn Storage>>,
    /// Capture-phase cost profile (quantize, leaf-hash, level-build)
    /// recorded when this source built its own metadata; zero for
    /// sources wrapping pre-existing metadata. The engine merges both
    /// runs' profiles into `CompareReport::stages`.
    pub capture: StageBreakdown,
    /// Per-chunk digests of the *raw* (unquantized) payload bytes,
    /// computed at capture time for in-memory sources and `None` for
    /// sources wrapping pre-existing storage.
    ///
    /// These are what makes the batch scheduler's stage-2 verdict cache
    /// sound: two chunks with equal raw digests hold identical bytes,
    /// so their element-wise verdict against any third chunk is
    /// identical too. The ε-quantized *leaf* digests cannot play this
    /// role — equal quantization codes only bound the values within ε
    /// of each other, and a verdict can flip inside that slack. Sources
    /// without raw digests still batch fine; the scheduler simply
    /// skips the verdict cache for their chunks.
    pub raw_leaves: Option<Arc<Vec<Digest128>>>,
    /// Live read counters of the persistent capture store backing
    /// `data`, when this source is store-backed (see
    /// [`CheckpointSource::from_store`]). The engine snapshots these
    /// around a comparison to fill `CompareReport::store`; `None` for
    /// file- and memory-backed sources.
    pub store_reads: Option<reprocmp_obs::StoreReadCounters>,
    /// Late-binding flight-recorder slot of the store reader backing
    /// `data`, when this source is store-backed. The engine arms it
    /// for the duration of a journaled comparison so pack reads show
    /// up as `store_read` events; `None` for file- and memory-backed
    /// sources.
    pub store_journal: Option<reprocmp_obs::JournalSlot>,
    /// Delta-chain provenance when this source resolved a store-backed
    /// delta manifest; `None` for file- and memory-backed sources and
    /// for full (non-delta) store objects, which have no chain story.
    pub chain: Option<ChainProvenance>,
}

/// Digests each `chunk_bytes`-sized chunk of `payload` as raw bytes,
/// under the workspace-wide [`reprocmp_hash::RAW_CHUNK_SEED`] — the
/// same addresses the persistent capture store keys its chunks by.
pub(crate) fn raw_chunk_digests(payload: &[u8], chunk_bytes: usize) -> Vec<Digest128> {
    payload
        .chunks(chunk_bytes)
        .map(|c| murmur3_x64_128(c, reprocmp_hash::RAW_CHUNK_SEED))
        .collect()
}

impl CheckpointSource {
    /// Wraps existing storage objects.
    #[must_use]
    pub fn new(
        data: Arc<dyn Storage>,
        payload_offset: u64,
        payload_len: u64,
        metadata: Arc<dyn Storage>,
    ) -> Self {
        CheckpointSource {
            metadata: Some(metadata),
            ..Self::bare(data, payload_offset, payload_len)
        }
    }

    /// A payload with no metadata, capture profile or provenance.
    fn bare(data: Arc<dyn Storage>, payload_offset: u64, payload_len: u64) -> Self {
        CheckpointSource {
            data,
            payload_offset,
            payload_len,
            metadata: None,
            capture: StageBreakdown::default(),
            raw_leaves: None,
            store_reads: None,
            store_journal: None,
            chain: None,
        }
    }

    /// Builds a cost-free in-memory source from raw values, computing
    /// the metadata with `engine` — the quickest way to get started
    /// and the backbone of the test suite.
    ///
    /// # Errors
    ///
    /// Propagates engine validation failures.
    pub fn in_memory(values: &[f32], engine: &CompareEngine) -> CoreResult<Self> {
        Self::in_memory_with_model(values, engine, CostModel::free(), None)
    }

    /// As [`CheckpointSource::in_memory`], but the payload and
    /// metadata live on a simulated device with cost model `model`,
    /// optionally charging an existing `clock` (pass the same clock
    /// for every source that shares a parallel file system).
    ///
    /// # Errors
    ///
    /// Propagates engine validation failures.
    pub fn in_memory_with_model(
        values: &[f32],
        engine: &CompareEngine,
        model: CostModel,
        clock: Option<SimClock>,
    ) -> CoreResult<Self> {
        let payload = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        Self::from_payload(payload, engine, model, clock)
    }

    /// [`CheckpointSource::in_memory_with_model`] over a payload's
    /// little-endian `f32` bytes (whole values), hashed where they lie.
    pub(crate) fn from_payload(
        payload: Vec<u8>,
        engine: &CompareEngine,
        model: CostModel,
        clock: Option<SimClock>,
    ) -> CoreResult<Self> {
        if payload.is_empty() {
            return Err(CoreError::Config("checkpoint payload is empty".into()));
        }
        let (tree, capture) = engine.capture(Floats::LeBytes(&payload));
        let meta_bytes = reprocmp_merkle::encode_tree(&tree);
        let clock = clock.unwrap_or_default();
        let payload_len = payload.len() as u64;
        let raw_leaves = raw_chunk_digests(&payload, engine.config().chunk_bytes);
        let data = MemStorage::with_clock(payload, model, clock.clone());
        let metadata = MemStorage::with_clock(meta_bytes, model, clock);
        Ok(CheckpointSource {
            capture,
            raw_leaves: Some(Arc::new(raw_leaves)),
            ..Self::new(Arc::new(data), 0, payload_len, Arc::new(metadata))
        })
    }

    /// Opens a source from real files: `data_path` (payload at
    /// `payload_offset..payload_offset+payload_len`) and `meta_path`
    /// (an encoded tree, e.g. written by the CLI).
    ///
    /// # Errors
    ///
    /// File-open failures or inconsistent geometry.
    pub fn from_files(
        data_path: &Path,
        payload_offset: u64,
        payload_len: u64,
        meta_path: &Path,
    ) -> CoreResult<Self> {
        let mut source = Self::from_file(data_path, payload_offset, payload_len)?;
        source.metadata = Some(Arc::new(StdFsStorage::open(meta_path)?));
        Ok(source)
    }

    /// [`CheckpointSource::from_files`] without a tree: a compare
    /// streams every chunk of the payload and verifies it.
    ///
    /// # Errors
    ///
    /// File-open failures or inconsistent geometry.
    pub fn from_file(data_path: &Path, payload_offset: u64, payload_len: u64) -> CoreResult<Self> {
        let data = StdFsStorage::open(data_path)?;
        let end = payload_offset.checked_add(payload_len);
        if end.is_none_or(|end| end > data.len()) {
            return Err(CoreError::Mismatch(format!(
                "payload {payload_offset}+{payload_len} exceeds file size {}",
                data.len()
            )));
        }
        Ok(Self::bare(Arc::new(data), payload_offset, payload_len))
    }

    /// The encoded ε-metadata, for the verbs that need a tree on every
    /// side.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoMetadata`] naming `label` when the source was
    /// opened without one.
    pub fn require_metadata(&self, label: &str) -> CoreResult<&Arc<dyn Storage>> {
        let missing = || CoreError::NoMetadata(label.to_owned());
        self.metadata.as_ref().ok_or_else(missing)
    }

    /// Number of `f32` values in the payload.
    #[must_use]
    pub fn value_count(&self) -> u64 {
        self.payload_len / 4
    }

    /// Number of chunks under `chunk_bytes` chunking.
    #[must_use]
    pub fn chunk_count(&self, chunk_bytes: usize) -> u64 {
        self.payload_len.div_ceil(chunk_bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn in_memory_geometry() {
        let values: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let s = CheckpointSource::in_memory(&values, &engine()).unwrap();
        assert_eq!(s.value_count(), 100);
        assert_eq!(s.payload_len, 400);
        assert_eq!(s.chunk_count(64), 7); // 6*64 + 16
    }

    #[test]
    fn empty_payload_rejected() {
        assert!(matches!(
            CheckpointSource::in_memory(&[], &engine()),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn payload_bytes_round_trip() {
        let values = vec![1.5f32, -2.25, 1e-7];
        let s = CheckpointSource::in_memory(&values, &engine()).unwrap();
        let mut buf = vec![0u8; 12];
        s.data.read_at(0, &mut buf).unwrap();
        let back: Vec<f32> = buf
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(back, values);
    }

    #[test]
    fn metadata_is_decodable() {
        let values: Vec<f32> = (0..256).map(|i| i as f32 * 0.5).collect();
        let s = CheckpointSource::in_memory(&values, &engine()).unwrap();
        let meta = s.require_metadata("run").unwrap();
        let mut bytes = vec![0u8; meta.len() as usize];
        meta.read_at(0, &mut bytes).unwrap();
        let tree = reprocmp_merkle::decode_tree(&bytes).unwrap();
        assert_eq!(tree.chunk_bytes(), 64);
        assert_eq!(tree.data_len(), 1024);
    }

    #[test]
    fn raw_leaves_fingerprint_raw_bytes_not_quantized_codes() {
        let e = engine(); // 64 B chunks, ε = 1e-5
        let values: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut tweaked = values.clone();
        tweaked[0] += 1e-7; // far below ε: same quantization code
        let a = CheckpointSource::in_memory(&values, &e).unwrap();
        let b = CheckpointSource::in_memory(&tweaked, &e).unwrap();
        let ra = a.raw_leaves.as_ref().unwrap();
        let rb = b.raw_leaves.as_ref().unwrap();
        assert_eq!(ra.len(), a.chunk_count(64) as usize);
        // Chunk 0 differs in raw bytes even though the quantized leaf
        // digests agree; later chunks are bit-identical on both sides.
        assert_ne!(ra[0], rb[0]);
        assert_eq!(&ra[1..], &rb[1..]);
    }

    #[test]
    fn from_files_rejects_geometry_that_overflows() {
        let dir = std::env::temp_dir().join(format!("reprocmp-source-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("data.bin");
        std::fs::write(&path, [0u8; 64]).unwrap();
        for (offset, len) in [(8, u64::MAX), (u64::MAX, 8), (8, 57)] {
            let err = CheckpointSource::from_files(&path, offset, len, &path).unwrap_err();
            assert!(
                matches!(&err, CoreError::Mismatch(m) if m.contains("exceeds file size 64")),
                "{offset}+{len}: {err}"
            );
        }
        assert!(CheckpointSource::from_files(&path, 8, 56, &path).is_ok());
        let bare = CheckpointSource::from_file(&path, 8, 56).unwrap();
        assert!(matches!(
            bare.require_metadata("run 2"),
            Err(CoreError::NoMetadata(label)) if label == "run 2"
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shared_clock_spans_payload_and_metadata() {
        let values: Vec<f32> = (0..4096).map(|i| i as f32).collect();
        let clock = SimClock::new();
        let s = CheckpointSource::in_memory_with_model(
            &values,
            &engine(),
            CostModel::lustre_pfs(),
            Some(clock.clone()),
        )
        .unwrap();
        use reprocmp_io::storage::AccessMode;
        s.data.charge_batch(&[(0, 128)], AccessMode::Sync);
        let meta = s.require_metadata("run").unwrap();
        meta.charge_batch(&[(0, 128)], AccessMode::Sync);
        assert!(clock.now() > std::time::Duration::ZERO);
        assert_eq!(s.data.elapsed(), meta.elapsed());
    }
}
