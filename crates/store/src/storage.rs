//! Store-backed positioned reads: a `Storage` view over one
//! checkpoint's chunks, resolved through the pack index.
//!
//! A [`StoreStorage`] presents a checkpoint exactly as its raw file
//! would look (header segments followed by regions, contiguous), but
//! every byte is served from the single pack-resident copy of its
//! chunk. Because it implements [`reprocmp_io::Storage`], the
//! comparison engine's stage-2 scattered reads stream through the
//! existing I/O pipeline backends unchanged — retry, deadline, and
//! quarantine semantics apply to store-backed sources exactly as they
//! do to flat files.

use crate::{IndexEntry, Manifest, StoreError, StoreResult};
use reprocmp_hash::{raw_chunk_digest, Digest128};
use reprocmp_io::{IoError, IoResult, StdFsStorage, Storage};
use reprocmp_obs::{EventKind, JournalSlot, StoreReadCounters};
use std::collections::{BTreeMap, HashSet};
use std::path::Path;

/// One chunk's placement in the flattened object byte space.
#[derive(Debug, Clone, Copy)]
struct ChunkSpan {
    /// Start offset within the flattened object.
    start: u64,
    /// Chunk length in bytes.
    len: u32,
    /// Pack file id holding the chunk.
    pack: u32,
    /// Chunk data offset within that pack file.
    data_offset: u64,
    /// True when the chunk had more than one manifest reference at
    /// open time — its bytes exist once on disk but logically belong
    /// to several checkpoints (or several places in this one).
    shared: bool,
    /// Content address of the chunk (for verify-on-read).
    digest: Digest128,
    /// True when the chunk lives in a *quarantined* pack: every read
    /// touching it re-hashes the full chunk, and a mismatch surfaces
    /// as a permanent `InvalidData` error — which the engine's
    /// `Quarantine` failure policy converts to an `unverified` range
    /// instead of silently comparing rotten bytes.
    verify: bool,
}

/// A read-only [`Storage`] over one store-resident checkpoint.
#[derive(Debug)]
pub struct StoreStorage {
    len: u64,
    spans: Vec<ChunkSpan>,
    packs: BTreeMap<u32, StdFsStorage>,
    counters: StoreReadCounters,
    journal: JournalSlot,
}

impl StoreStorage {
    /// Builds the span table for `manifest`, opening every referenced
    /// pack under `packs_dir`. `lookup` resolves a digest to its index
    /// entry (location + refcount); chunks living in a pack listed in
    /// `quarantined` are served verify-on-read.
    pub(crate) fn from_manifest(
        manifest: &Manifest,
        packs_dir: &Path,
        lookup: &dyn Fn(Digest128) -> Option<IndexEntry>,
        quarantined: &HashSet<u32>,
    ) -> StoreResult<Self> {
        let mut spans = Vec::with_capacity(manifest.chunk_refs() as usize);
        let mut packs = BTreeMap::new();
        let mut offset = 0u64;
        for (digest, len) in manifest.chunk_lens() {
            let entry = lookup(digest).ok_or_else(|| {
                StoreError::Corrupt(format!(
                    "manifest {}@{} references digest {digest:?} missing from the index",
                    manifest.name, manifest.version
                ))
            })?;
            if entry.len != len {
                return Err(StoreError::Corrupt(format!(
                    "digest {digest:?} stored as {} bytes but referenced as {len}",
                    entry.len
                )));
            }
            if let std::collections::btree_map::Entry::Vacant(e) = packs.entry(entry.pack) {
                let path = packs_dir.join(crate::pack::pack_file_name(entry.pack));
                e.insert(StdFsStorage::open(&path)?);
            }
            spans.push(ChunkSpan {
                start: offset,
                len,
                pack: entry.pack,
                data_offset: entry.data_offset,
                shared: entry.refcount > 1,
                digest,
                verify: quarantined.contains(&entry.pack),
            });
            offset += u64::from(len);
        }
        Ok(StoreStorage {
            len: offset,
            spans,
            packs,
            counters: StoreReadCounters::new(),
            journal: JournalSlot::new(),
        })
    }

    /// The late-binding flight-recorder slot for this reader. Arm it
    /// (via [`JournalSlot::set`]) to receive one `store_read` event on
    /// the `store` lane per positioned read served from the packs.
    #[must_use]
    pub fn journal_slot(&self) -> &JournalSlot {
        &self.journal
    }

    /// A clone of the live read counters — snapshot before/after a
    /// comparison to attribute reads to it.
    #[must_use]
    pub fn counters(&self) -> StoreReadCounters {
        self.counters.clone()
    }
}

impl Storage for StoreStorage {
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
        if buf.is_empty() {
            return Ok(());
        }
        // First span whose end is past `offset`; spans are contiguous
        // and sorted, so the read walks forward from there.
        let mut i = self
            .spans
            .partition_point(|s| s.start + u64::from(s.len) <= offset);
        let mut filled = 0usize;
        let mut deduped = 0u64;
        while filled < buf.len() {
            let span = &self.spans[i];
            let within = (offset + filled as u64) - span.start;
            let take = ((u64::from(span.len) - within) as usize).min(buf.len() - filled);
            let pack = self
                .packs
                .get(&span.pack)
                .expect("span references an unopened pack");
            if span.verify {
                // Quarantined pack: re-hash the whole chunk before
                // serving any byte of it. A mismatch is permanent —
                // retrying an identical read of rotten bytes cannot
                // help — so the engine gives up immediately and files
                // the range as unverified.
                let mut chunk = vec![0u8; span.len as usize];
                pack.read_at(span.data_offset, &mut chunk)?;
                if raw_chunk_digest(&chunk) != span.digest {
                    return Err(IoError::Os(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "chunk at offset {} of quarantined pack {} fails verification",
                            span.data_offset, span.pack
                        ),
                    )));
                }
                buf[filled..filled + take]
                    .copy_from_slice(&chunk[within as usize..within as usize + take]);
            } else {
                pack.read_at(span.data_offset + within, &mut buf[filled..filled + take])?;
            }
            if span.shared {
                deduped += take as u64;
            }
            filled += take;
            i += 1;
        }
        self.counters.record_read(buf.len() as u64, deduped);
        self.journal.emit(
            "store",
            EventKind::StoreRead {
                bytes: buf.len() as u64,
                deduped: deduped > 0,
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ChunkStore;
    use reprocmp_io::storage::AccessMode;

    fn temp_store(tag: &str) -> (ChunkStore, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "reprocmp-store-storage-{tag}-{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&root).ok();
        (ChunkStore::open(&root).unwrap(), root)
    }

    fn bytes(n: usize, seed: u8) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect()
    }

    #[test]
    fn reads_reassemble_the_original_bytes() {
        let (store, root) = temp_store("roundtrip");
        let header = bytes(26, 7);
        let region = bytes(1000, 1);
        store
            .ingest(
                "ck",
                1,
                &[(crate::HEADER_SEGMENT, &header), ("x", &region)],
                64,
                &[],
            )
            .unwrap();
        let storage = store.reader("ck", 1).unwrap();
        let mut all = vec![0u8; storage.len() as usize];
        storage.read_at(0, &mut all).unwrap();
        let mut expect = header.clone();
        expect.extend_from_slice(&region);
        assert_eq!(all, expect);
        // Unaligned scattered reads crossing chunk boundaries.
        for (off, len) in [(0u64, 1usize), (25, 3), (63, 130), (1000, 26), (700, 326)] {
            let mut buf = vec![0u8; len];
            storage.read_at(off, &mut buf).unwrap();
            assert_eq!(
                &buf[..],
                &expect[off as usize..off as usize + len],
                "{off}+{len}"
            );
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn out_of_bounds_reads_error_and_counters_track_traffic() {
        let (store, root) = temp_store("counters");
        let region = bytes(256, 3);
        store.ingest("a", 1, &[("x", &region)], 64, &[]).unwrap();
        // A second checkpoint sharing every chunk makes them all shared.
        store.ingest("a", 2, &[("x", &region)], 64, &[]).unwrap();
        let storage = store.reader("a", 2).unwrap();
        let mut buf = vec![0u8; 100];
        assert!(storage.read_at(200, &mut buf).is_err());
        assert!(storage.counters().snapshot().is_zero());
        storage.read_at(10, &mut buf).unwrap();
        let snap = storage.counters().snapshot();
        assert_eq!(snap.chunk_reads, 1);
        assert_eq!(snap.bytes_read, 100);
        assert_eq!(snap.bytes_deduped, 100, "all chunks are refcount-2");
        // charge_batch is the trait default: a no-op for real packs.
        storage.charge_batch(&[(0, 64)], AccessMode::Sync);
        assert_eq!(storage.elapsed(), std::time::Duration::ZERO);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn armed_journal_slot_records_pack_reads() {
        let (store, root) = temp_store("journal");
        let region = bytes(512, 9);
        store.ingest("j", 1, &[("x", &region)], 64, &[]).unwrap();
        store.ingest("j", 2, &[("x", &region)], 64, &[]).unwrap();
        let storage = store.reader("j", 2).unwrap();
        let mut buf = vec![0u8; 128];
        storage.read_at(0, &mut buf).unwrap(); // slot empty: no-op
        let journal = reprocmp_obs::Journal::new(reprocmp_obs::ObsClock::frozen());
        storage.journal_slot().set(journal.clone());
        storage.read_at(64, &mut buf).unwrap();
        storage.journal_slot().clear();
        storage.read_at(0, &mut buf).unwrap(); // disarmed again: no-op
        let events = journal.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].lane, "store");
        assert!(matches!(
            events[0].kind,
            reprocmp_obs::EventKind::StoreRead {
                bytes: 128,
                deduped: true
            }
        ));
        std::fs::remove_dir_all(&root).ok();
    }
}
