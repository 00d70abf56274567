//! Store-backed checkpoint sources: comparing directly out of the
//! persistent capture store.
//!
//! [`CheckpointSource::from_store`] resolves a `name@version` object
//! into a source whose `data` is a
//! [`StoreStorage`](reprocmp_store::StoreStorage) — the engine's
//! stage-2 scattered reads then stream through the pack index via the
//! existing I/O pipeline backends, with retry/quarantine semantics
//! intact. Metadata comes from the manifest's opaque blob when the
//! ingester stored an encoded tree, and is recomputed from the
//! materialized payload otherwise; raw leaf digests are lifted
//! straight from the manifest when its chunk geometry matches the
//! engine's (the store and the capture path share
//! [`reprocmp_hash::RAW_CHUNK_SEED`], so the addresses are identical).

use std::sync::Arc;

use reprocmp_hash::Floats;
use reprocmp_io::MemStorage;
use reprocmp_obs::StageBreakdown;
use reprocmp_store::{ChunkStore, ObjectLayout, StoreError};

use crate::engine::CompareEngine;
use crate::source::{raw_chunk_digests, ChainProvenance, CheckpointSource};
use crate::{CoreError, CoreResult};

/// Maps store failures onto comparison errors: I/O stays I/O,
/// everything else (corruption, unknown key, bad config) surfaces as a
/// mismatch with the store's own description.
pub(crate) fn store_err(e: StoreError) -> CoreError {
    match e {
        StoreError::Io(io) => CoreError::Io(reprocmp_io::IoError::Os(io)),
        other => CoreError::Mismatch(format!("capture store: {other}")),
    }
}

impl CheckpointSource {
    /// Builds a source for the stored checkpoint `name`@`version`,
    /// serving payload reads through `store`'s pack index.
    ///
    /// The payload region is everything past the manifest's leading
    /// header segments. When the manifest carries a metadata blob it is
    /// used verbatim (the ingester stored an encoded Merkle tree);
    /// otherwise the payload is materialized once and `engine` builds
    /// the metadata, exactly as capture would have. Either way the
    /// source carries live [`store_reads`](CheckpointSource::store_reads)
    /// counters, so `CompareReport::store` accounts this comparison's
    /// store traffic.
    ///
    /// # Errors
    ///
    /// Unknown `name`/`version`, store corruption, or a payload that is
    /// not a positive multiple of 4 bytes.
    pub fn from_store(
        store: &ChunkStore,
        name: &str,
        version: u64,
        engine: &CompareEngine,
    ) -> CoreResult<Self> {
        let layout = store.layout(name, version).map_err(store_err)?;
        Self::from_layout(store, &layout, engine)
    }

    /// [`CheckpointSource::from_store`] for an object whose layout the
    /// caller already holds.
    pub(crate) fn from_layout(
        store: &ChunkStore,
        layout: &ObjectLayout,
        engine: &CompareEngine,
    ) -> CoreResult<Self> {
        let (name, version) = (layout.name.as_str(), layout.version);
        let payload_len = layout.payload_len();
        if payload_len == 0 || !payload_len.is_multiple_of(4) {
            return Err(CoreError::Mismatch(format!(
                "stored checkpoint {name}@{version} payload length {payload_len} \
                 is not a positive multiple of 4"
            )));
        }

        let chunk_bytes = engine.config().chunk_bytes;

        // Raw leaf digests: free when the manifest chunked the payload
        // the way the engine does (same seed, same boundaries);
        // recomputed from the payload bytes otherwise. The manifest's
        // digests are payload-relative — the header is its own segment
        // — so where the header ends does not matter.
        let manifest_leaves = if layout.chunk_bytes as usize == chunk_bytes {
            layout.payload_chunk_digests.clone()
        } else {
            None
        };

        // Metadata: the stored blob when present, else a fresh capture
        // pass over the materialized payload.
        let (meta_bytes, raw_leaves, capture) = if layout.meta.is_empty() {
            let bytes = store.materialize(name, version).map_err(store_err)?;
            let payload = &bytes[layout.payload_offset as usize..];
            let (tree, capture) = engine.capture(Floats::LeBytes(payload));
            let leaves = manifest_leaves.unwrap_or_else(|| raw_chunk_digests(payload, chunk_bytes));
            (reprocmp_merkle::encode_tree(&tree), leaves, capture)
        } else {
            let leaves = match manifest_leaves {
                Some(leaves) => leaves,
                None => {
                    let bytes = store.materialize(name, version).map_err(store_err)?;
                    raw_chunk_digests(&bytes[layout.payload_offset as usize..], chunk_bytes)
                }
            };
            (layout.meta.clone(), leaves, StageBreakdown::default())
        };

        // Chain provenance: non-`None` only for delta objects, so full
        // store-backed comparisons report byte-identically to the
        // pre-delta format (the `capture`/`chain` blocks stay zero and
        // are attributable to this object when set).
        let chain = store
            .chain(name, version)
            .map_err(store_err)?
            .last()
            .filter(|link| link.depth > 0)
            .map(|link| ChainProvenance {
                depth: link.depth,
                bytes_skipped: link.bytes_skipped,
                chunks_skipped: link.chunk_refs - link.own_refs,
            });

        let storage = store.reader(name, version).map_err(store_err)?;
        let counters = storage.counters();
        let journal_slot = storage.journal_slot().clone();
        Ok(CheckpointSource {
            data: Arc::new(storage),
            payload_offset: layout.payload_offset,
            payload_len,
            metadata: Some(Arc::new(MemStorage::free(meta_bytes))),
            capture,
            raw_leaves: Some(Arc::new(raw_leaves)),
            store_reads: Some(counters),
            store_journal: Some(journal_slot),
            chain,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::engine::EngineConfig;
    use std::path::PathBuf;

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir().join(format!(
            "reprocmp-core-storesrc-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();
        root
    }

    fn payload_bytes(values: &[f32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn store_backed_compare_matches_in_memory() {
        let root = temp_root("equiv");
        let store = ChunkStore::open(&root).unwrap();
        let e = engine();
        let run1: Vec<f32> = (0..4096).map(|i| (i as f32).sin()).collect();
        let mut run2 = run1.clone();
        run2[1000] += 0.5;
        store
            .ingest("r1", 1, &[("x", &payload_bytes(&run1))], 64, &[])
            .unwrap();
        store
            .ingest("r2", 1, &[("x", &payload_bytes(&run2))], 64, &[])
            .unwrap();

        let sa = CheckpointSource::from_store(&store, "r1", 1, &e).unwrap();
        let sb = CheckpointSource::from_store(&store, "r2", 1, &e).unwrap();
        let stored = e.compare(&sa, &sb, &Ctx::default()).unwrap();

        let ma = CheckpointSource::in_memory(&run1, &e).unwrap();
        let mb = CheckpointSource::in_memory(&run2, &e).unwrap();
        let mem = e.compare(&ma, &mb, &Ctx::default()).unwrap();

        assert_eq!(stored.stats, mem.stats);
        assert_eq!(stored.differences.len(), mem.differences.len());
        assert_eq!(stored.differences[0].index, 1000);
        // Store-backed reports account their pack traffic; in-memory
        // reports stay all-zero.
        assert!(stored.store.bytes_read > 0);
        assert!(mem.store.is_zero());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn manifest_leaves_match_capture_side_digests() {
        let root = temp_root("leaves");
        let store = ChunkStore::open(&root).unwrap();
        let e = engine();
        let values: Vec<f32> = (0..512).map(|i| i as f32 * 0.25).collect();
        store
            .ingest("r", 1, &[("x", &payload_bytes(&values))], 64, &[])
            .unwrap();
        let s = CheckpointSource::from_store(&store, "r", 1, &e).unwrap();
        let mem = CheckpointSource::in_memory(&values, &e).unwrap();
        assert_eq!(
            s.raw_leaves.as_deref().unwrap(),
            mem.raw_leaves.as_deref().unwrap(),
            "store chunk addresses are capture-side raw leaf digests"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn stored_meta_blob_is_used_verbatim() {
        let root = temp_root("meta");
        let store = ChunkStore::open(&root).unwrap();
        let e = engine();
        let values: Vec<f32> = (0..256).map(|i| (i as f32).cos()).collect();
        let meta = e.encode_metadata(&values);
        store
            .ingest("m", 1, &[("x", &payload_bytes(&values))], 64, &meta)
            .unwrap();
        let s = CheckpointSource::from_store(&store, "m", 1, &e).unwrap();
        let stored = s.require_metadata("stored").unwrap();
        let mut back = vec![0u8; stored.len() as usize];
        stored.read_at(0, &mut back).unwrap();
        assert_eq!(back, meta);
        // And it actually compares clean against an in-memory twin.
        let twin = CheckpointSource::in_memory(&values, &e).unwrap();
        let report = e.compare(&s, &twin, &Ctx::default()).unwrap();
        assert!(report.identical());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn an_unaligned_header_still_takes_the_manifest_digests_without_reading_packs() {
        let root = temp_root("unaligned");
        let store = ChunkStore::open(&root).unwrap();
        let e = engine();
        let values: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.1).sin()).collect();
        let payload = payload_bytes(&values);
        let header = [7u8; 26]; // ends mid-chunk at 64-byte chunks
        store
            .ingest(
                "h",
                1,
                &[(reprocmp_store::HEADER_SEGMENT, &header), ("x", &payload)],
                64,
                &e.encode_metadata(&values),
            )
            .unwrap();
        let manifest = store.layout("h", 1).unwrap().payload_chunk_digests.unwrap();
        assert_eq!(manifest, raw_chunk_digests(&payload, 64));
        // Zero every pack byte: a source that re-read the object would
        // hash zeros instead of returning the manifest's digests.
        for entry in std::fs::read_dir(root.join("packs")).unwrap() {
            let path = entry.unwrap().path();
            let len = std::fs::metadata(&path).unwrap().len() as usize;
            std::fs::write(&path, vec![0u8; len]).unwrap();
        }
        let s = CheckpointSource::from_store(&store, "h", 1, &e).unwrap();
        assert_eq!(s.raw_leaves.as_deref().unwrap(), &manifest);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn unknown_object_is_a_mismatch() {
        let root = temp_root("missing");
        let store = ChunkStore::open(&root).unwrap();
        assert!(matches!(
            CheckpointSource::from_store(&store, "ghost", 1, &engine()),
            Err(CoreError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn odd_payload_length_is_rejected() {
        let root = temp_root("odd");
        let store = ChunkStore::open(&root).unwrap();
        store
            .ingest("odd", 1, &[("x", &[1, 2, 3])], 64, &[])
            .unwrap();
        assert!(matches!(
            CheckpointSource::from_store(&store, "odd", 1, &engine()),
            Err(CoreError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&root).ok();
    }
}
