//! The chunk index: digest → (pack, offset, len, refcount).
//!
//! The index is a *rebuildable cache* over the authoritative state
//! (packs + manifests): locations come from scanning pack record
//! tables, refcounts from counting manifest references. It exists so
//! `ingest` can answer "have I seen this chunk?" and `reader` can
//! resolve byte ranges without touching every pack. On disk it is a
//! *checkpoint*: `ingest`/`remove`/`flatten` change the in-memory form
//! only, and the file is rewritten — whole, via `.tmp` + atomic rename,
//! the "atomically swapped index" that makes GC crash-safe — on clean
//! close, inside `gc`/`compact`, after a rebuild, and once the
//! operations since the last write outnumber the entries it held (see
//! [`ChunkStore::open_observed_with`](crate::ChunkStore::open_observed_with) for
//! when the file is trusted). Format:
//!
//! ```text
//! magic "RCMPIDX1" (8) | format u32 = 1 | n_entries u64
//! per entry (sorted by digest for determinism):
//!   digest lo u64 | digest hi u64 | pack u32 | data_offset u64 | len u32 | refcount u32
//! ```

use crate::fs::StoreFs;
use crate::wire::{put_digest, Cursor};
use crate::{StoreError, StoreResult};
use reprocmp_hash::Digest128;
use reprocmp_io::MutationKind;
use std::collections::HashMap;
use std::path::Path;

/// Index file magic bytes.
pub const INDEX_MAGIC: &[u8; 8] = b"RCMPIDX1";

/// Current index format version.
pub const INDEX_FORMAT: u32 = 1;

/// Where one chunk lives and how many manifest references point at it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Pack file id holding the chunk.
    pub pack: u32,
    /// Byte offset of the chunk data within the pack file.
    pub data_offset: u64,
    /// Chunk length in bytes.
    pub len: u32,
    /// Number of manifest chunk references (duplicates within one
    /// manifest each count). Zero means the chunk is garbage pending a
    /// [`gc`](crate::ChunkStore::gc) sweep of its pack.
    pub refcount: u32,
}

/// The in-memory index form.
pub type Index = HashMap<Digest128, IndexEntry>;

/// Serializes `index` to its canonical byte form: entries sorted by
/// digest, so the same logical index always produces the same bytes
/// (the property the rebuild-equivalence tests pin down).
#[must_use]
pub fn encode_index(index: &Index) -> Vec<u8> {
    let mut entries: Vec<(&Digest128, &IndexEntry)> = index.iter().collect();
    entries.sort_by_key(|(d, _)| **d);
    let mut out = Vec::with_capacity(20 + entries.len() * 36);
    out.extend_from_slice(INDEX_MAGIC);
    out.extend_from_slice(&INDEX_FORMAT.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (digest, e) in entries {
        put_digest(&mut out, *digest);
        out.extend_from_slice(&e.pack.to_le_bytes());
        out.extend_from_slice(&e.data_offset.to_le_bytes());
        out.extend_from_slice(&e.len.to_le_bytes());
        out.extend_from_slice(&e.refcount.to_le_bytes());
    }
    out
}

/// Serializes `index` and atomically swaps it into `path` through the
/// store's filesystem seam (the [`MutationKind::IndexSwap`] boundary).
///
/// # Errors
///
/// Any filesystem error from staging or renaming.
pub fn save_index(fs: &dyn StoreFs, path: &Path, index: &Index) -> std::io::Result<()> {
    fs.write_atomic(path, &encode_index(index), MutationKind::IndexSwap)
}

/// Parses an index file's contents.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on bad magic, truncation, a duplicate
/// digest, or trailing bytes.
pub fn load_index(bytes: &[u8]) -> StoreResult<Index> {
    let mut c = Cursor::new(bytes, "index");
    c.magic(INDEX_MAGIC)?;
    let format = c.u32()?;
    if format != INDEX_FORMAT {
        return Err(StoreError::Corrupt(format!(
            "unsupported index format {format}"
        )));
    }
    let n = c.u64()?;
    if n > (c.remaining() as u64) / 36 {
        return Err(StoreError::Corrupt(format!(
            "index declares {n} entries but only {} bytes remain",
            c.remaining()
        )));
    }
    let mut index = Index::with_capacity(n as usize);
    for _ in 0..n {
        let digest = c.digest()?;
        let entry = IndexEntry {
            pack: c.u32()?,
            data_offset: c.u64()?,
            len: c.u32()?,
            refcount: c.u32()?,
        };
        if index.insert(digest, entry).is_some() {
            return Err(StoreError::Corrupt(format!(
                "index holds digest {digest:?} twice"
            )));
        }
    }
    if c.remaining() != 0 {
        return Err(StoreError::Corrupt(format!(
            "index has {} trailing bytes",
            c.remaining()
        )));
    }
    Ok(index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::RealFs;

    fn sample() -> Index {
        let mut idx = Index::new();
        idx.insert(
            Digest128([1, 2]),
            IndexEntry {
                pack: 0,
                data_offset: 28,
                len: 4096,
                refcount: 3,
            },
        );
        idx.insert(
            Digest128([9, 9]),
            IndexEntry {
                pack: 1,
                data_offset: 28,
                len: 100,
                refcount: 0,
            },
        );
        idx
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("reprocmp-store-index-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bin");
        let idx = sample();
        save_index(&RealFs, &path, &idx).unwrap();
        let back = load_index(&std::fs::read(&path).unwrap()).unwrap();
        assert_eq!(back, idx);
        assert!(!crate::tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn serialization_is_deterministic() {
        let dir = std::env::temp_dir().join("reprocmp-store-index-det");
        std::fs::create_dir_all(&dir).unwrap();
        let (p1, p2) = (dir.join("a.bin"), dir.join("b.bin"));
        save_index(&RealFs, &p1, &sample()).unwrap();
        save_index(&RealFs, &p2, &sample()).unwrap();
        assert_eq!(std::fs::read(&p1).unwrap(), std::fs::read(&p2).unwrap());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn load_rejects_corruption() {
        let dir = std::env::temp_dir().join("reprocmp-store-index-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("index.bin");
        save_index(&RealFs, &path, &sample()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Every truncation point fails cleanly (the declared entry
        // count makes even a clean header-only prefix inconsistent).
        for cut in 0..bytes.len() {
            assert!(load_index(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = bytes.clone();
        bad[3] ^= 0x01;
        assert!(load_index(&bad).is_err());
        let mut padded = bytes;
        padded.push(0);
        assert!(load_index(&padded).is_err());
        std::fs::remove_file(&path).ok();
    }
}
