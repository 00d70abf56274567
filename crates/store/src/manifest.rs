//! Checkpoint manifests: the digest sequence that names a checkpoint's
//! bytes without holding them.
//!
//! A manifest records, per segment (one per checkpoint region, plus an
//! optional leading [`HEADER_SEGMENT`](crate::HEADER_SEGMENT) for raw
//! file headers), the segment's byte length and the ordered
//! content-address of every `chunk_bytes`-sized chunk. Concatenating
//! the chunks of all segments in order reproduces the original file
//! byte-exactly.
//!
//! Two kinds exist. A **full** manifest owns every chunk reference it
//! lists. A **delta** manifest ([`ManifestKind::Delta`]) was produced
//! by differential capture against a parent version: its digest lists
//! are still *dense* (every chunk of every segment is addressed, so
//! readers never walk the chain), but each segment carries the sorted
//! index list of the chunks this capture actually *wrote* — its
//! `changed` set. Refcounting charges a delta only for its changed
//! chunks; the rest are borrowed from the parent chain, which is why
//! [`crate::ChunkStore::remove`] refuses to drop a manifest that a
//! live delta still names as parent.
//!
//! Full format (format 1, byte-identical to the pre-delta store):
//!
//! ```text
//! magic "RCMPMAN1" (8) | format u32 = 1
//! name_len u16 | name | version u64 | chunk_bytes u32
//! meta_len u64 | meta bytes (opaque, e.g. an encoded Merkle tree)
//! n_segments u32
//! per segment:
//!   name_len u16 | name | byte_len u64 | n_chunks u32 | digests (16 B each)
//! ```
//!
//! Delta format (format 2) inserts `parent_version u64` after the
//! format field and appends, per segment, `n_changed u32` followed by
//! the strictly-increasing changed chunk indices (u32 each).
//!
//! All integers little-endian. `n_chunks` is redundant with `byte_len`
//! and `chunk_bytes` and is validated on decode, so a manifest whose
//! digest list was truncated or padded is rejected rather than
//! silently materializing the wrong bytes. Delta decode additionally
//! requires `parent_version < version` (chains walk strictly
//! backwards, so cycles cannot be encoded) and in-range, ordered
//! changed lists.

use crate::wire::{put_digest, Cursor};
use crate::{StoreError, StoreResult};
use reprocmp_hash::Digest128;

/// Manifest file magic bytes.
pub const MANIFEST_MAGIC: &[u8; 8] = b"RCMPMAN1";

/// Manifest format version for full manifests.
pub const MANIFEST_FORMAT: u32 = 1;

/// Manifest format version for delta (differential-capture) manifests.
pub const MANIFEST_FORMAT_DELTA: u32 = 2;

/// Decode guard: no real checkpoint region approaches this many chunks.
const MAX_CHUNKS_PER_SEGMENT: u64 = 1 << 28;

/// Whether a manifest owns all its chunk references (full capture) or
/// borrows unchanged ones from a parent version (differential capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManifestKind {
    /// Every listed chunk reference is owned by this manifest.
    Full,
    /// Only the `changed` chunks are owned; the rest are borrowed from
    /// the chain rooted at `parent` (same checkpoint name).
    Delta {
        /// Version of the parent manifest this delta was diffed against.
        parent: u64,
    },
}

impl ManifestKind {
    /// The parent version for deltas, `None` for full manifests.
    #[must_use]
    pub fn parent(&self) -> Option<u64> {
        match self {
            ManifestKind::Full => None,
            ManifestKind::Delta { parent } => Some(*parent),
        }
    }
}

/// One named byte range of a checkpoint and its chunk addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Region name (or [`crate::HEADER_SEGMENT`] for raw header bytes).
    pub name: String,
    /// Segment length in bytes.
    pub len: u64,
    /// Content address of each `chunk_bytes`-sized chunk, in order; the
    /// final chunk may be short.
    pub digests: Vec<Digest128>,
    /// For delta manifests: the sorted chunk indices this capture wrote
    /// (and therefore refcounts). `None` means every chunk is owned —
    /// the only state full manifests may carry.
    pub changed: Option<Vec<u32>>,
}

/// A complete checkpoint description: identity, chunk geometry, opaque
/// metadata, and per-segment chunk addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Checkpoint name (e.g. the VELOC checkpoint name).
    pub name: String,
    /// Checkpoint version.
    pub version: u64,
    /// Full capture, or a delta against a parent version.
    pub kind: ManifestKind,
    /// Chunk size the segments were addressed under.
    pub chunk_bytes: u32,
    /// Opaque metadata blob (empty, or an encoded Merkle tree when the
    /// ingester opted in).
    pub meta: Vec<u8>,
    /// Segments in file order.
    pub segments: Vec<Segment>,
}

/// Number of `chunk_bytes`-sized chunks covering `len` bytes.
#[must_use]
fn chunk_count(len: u64, chunk_bytes: u32) -> u64 {
    len.div_ceil(u64::from(chunk_bytes.max(1)))
}

impl Manifest {
    /// Total byte length across all segments.
    #[must_use]
    pub fn total_len(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Byte offset where the payload starts: the total length of the
    /// *leading* header segments (see [`crate::HEADER_SEGMENT`]).
    #[must_use]
    pub fn payload_offset(&self) -> u64 {
        self.segments
            .iter()
            .take_while(|s| s.name == crate::HEADER_SEGMENT)
            .map(|s| s.len)
            .sum()
    }

    /// Total chunk references across all segments.
    #[must_use]
    pub fn chunk_refs(&self) -> u64 {
        self.segments.iter().map(|s| s.digests.len() as u64).sum()
    }

    /// Iterates `(digest, len)` over every chunk reference in order —
    /// owned and borrowed alike. This is the reader's view: resolving
    /// all of these against the index reproduces the file.
    pub fn chunk_lens(&self) -> impl Iterator<Item = (Digest128, u32)> + '_ {
        self.segments.iter().flat_map(move |s| {
            let cb = u64::from(self.chunk_bytes);
            s.digests.iter().enumerate().map(move |(i, &d)| {
                let start = i as u64 * cb;
                let len = (s.len - start).min(cb) as u32;
                (d, len)
            })
        })
    }

    /// Iterates `(digest, len)` over only the chunk references this
    /// manifest *owns*: all of them for a full manifest, the `changed`
    /// set for a delta. Refcounts are bumped and released from exactly
    /// this view, so removing a delta never releases a reference it
    /// borrowed from its parent chain.
    pub fn own_chunk_lens(&self) -> impl Iterator<Item = (Digest128, u32)> + '_ {
        self.segments.iter().flat_map(move |s| {
            let cb = u64::from(self.chunk_bytes);
            let iter: Box<dyn Iterator<Item = (Digest128, u32)> + '_> = match &s.changed {
                None => Box::new(s.digests.iter().enumerate().map(move |(i, &d)| {
                    let start = i as u64 * cb;
                    (d, (s.len - start).min(cb) as u32)
                })),
                Some(idx) => Box::new(idx.iter().map(move |&i| {
                    let start = u64::from(i) * cb;
                    (s.digests[i as usize], (s.len - start).min(cb) as u32)
                })),
            };
            iter
        })
    }

    /// Iterates `(digest, len)` over the references this manifest
    /// borrows from its parent chain — empty for full manifests.
    /// Flattening a delta into a full manifest bumps exactly these.
    pub fn inherited_chunk_lens(&self) -> impl Iterator<Item = (Digest128, u32)> + '_ {
        self.segments.iter().flat_map(move |s| {
            let cb = u64::from(self.chunk_bytes);
            let owned = s.changed.as_deref().unwrap_or(&[]);
            let all = s.changed.is_none();
            s.digests
                .iter()
                .enumerate()
                .filter(move |(i, _)| !all && owned.binary_search(&(*i as u32)).is_err())
                .map(move |(i, &d)| {
                    let start = i as u64 * cb;
                    (d, (s.len - start).min(cb) as u32)
                })
        })
    }

    /// Bytes covered by owned chunk references.
    #[must_use]
    pub fn own_bytes(&self) -> u64 {
        self.own_chunk_lens().map(|(_, l)| u64::from(l)).sum()
    }

    /// Bytes this capture skipped writing because the parent chain
    /// already held them — `total_len - own_bytes`, zero for fulls.
    #[must_use]
    pub fn skipped_bytes(&self) -> u64 {
        self.total_len() - self.own_bytes()
    }

    /// Serializes to the on-disk format: format 1 for full manifests
    /// (byte-identical to the pre-delta store), format 2 for deltas.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        match self.kind {
            ManifestKind::Full => {
                out.extend_from_slice(&MANIFEST_FORMAT.to_le_bytes());
            }
            ManifestKind::Delta { parent } => {
                out.extend_from_slice(&MANIFEST_FORMAT_DELTA.to_le_bytes());
                out.extend_from_slice(&parent.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.name.len() as u16).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&self.chunk_bytes.to_le_bytes());
        out.extend_from_slice(&(self.meta.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.meta);
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&(seg.name.len() as u16).to_le_bytes());
            out.extend_from_slice(seg.name.as_bytes());
            out.extend_from_slice(&seg.len.to_le_bytes());
            out.extend_from_slice(&(seg.digests.len() as u32).to_le_bytes());
            for &d in &seg.digests {
                put_digest(&mut out, d);
            }
            if let ManifestKind::Delta { .. } = self.kind {
                let changed = seg.changed.as_deref().unwrap_or(&[]);
                out.extend_from_slice(&(changed.len() as u32).to_le_bytes());
                for &i in changed {
                    out.extend_from_slice(&i.to_le_bytes());
                }
            }
        }
        out
    }

    /// Parses and validates an encoded manifest (either format).
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] on bad magic, truncation, a non-UTF-8
    /// name, a digest count inconsistent with the declared segment
    /// length and chunk size, a delta whose parent version is not
    /// strictly smaller than its own, or a changed-index list that is
    /// out of range or not strictly increasing.
    pub fn decode(bytes: &[u8]) -> StoreResult<Manifest> {
        let mut c = Cursor::new(bytes, "manifest");
        c.magic(MANIFEST_MAGIC)?;
        let format = c.u32()?;
        let kind = match format {
            MANIFEST_FORMAT => ManifestKind::Full,
            MANIFEST_FORMAT_DELTA => ManifestKind::Delta { parent: c.u64()? },
            other => {
                return Err(StoreError::Corrupt(format!(
                    "unsupported manifest format {other}"
                )));
            }
        };
        let name_len = c.u16()? as usize;
        let name = c.utf8(name_len)?;
        let version = c.u64()?;
        if let ManifestKind::Delta { parent } = kind {
            if parent >= version {
                return Err(StoreError::Corrupt(format!(
                    "delta manifest `{name}` v{version} names parent v{parent} \
                     (chains must walk strictly backwards)"
                )));
            }
        }
        let chunk_bytes = c.u32()?;
        if chunk_bytes == 0 {
            return Err(StoreError::Corrupt("manifest chunk_bytes is zero".into()));
        }
        let meta_len = c.u64()?;
        if meta_len > c.remaining() as u64 {
            return Err(StoreError::Corrupt(format!(
                "manifest meta length {meta_len} exceeds remaining {}",
                c.remaining()
            )));
        }
        let meta = c.take(meta_len as usize)?.to_vec();
        let n_segments = c.u32()?;
        let mut segments = Vec::new();
        for _ in 0..n_segments {
            let seg_name_len = c.u16()? as usize;
            let seg_name = c.utf8(seg_name_len)?;
            let len = c.u64()?;
            let n_chunks = u64::from(c.u32()?);
            let expect = chunk_count(len, chunk_bytes);
            if n_chunks != expect || n_chunks > MAX_CHUNKS_PER_SEGMENT {
                return Err(StoreError::Corrupt(format!(
                    "segment `{seg_name}` declares {n_chunks} chunks for {len} bytes \
                     at chunk size {chunk_bytes} (expected {expect})"
                )));
            }
            // Counts are claims: reserve no more than the remaining
            // bytes can hold (16 per digest, 4 per changed index).
            let mut digests = Vec::with_capacity((n_chunks as usize).min(c.remaining() / 16));
            for _ in 0..n_chunks {
                digests.push(c.digest()?);
            }
            let changed = if let ManifestKind::Delta { .. } = kind {
                let n_changed = u64::from(c.u32()?);
                if n_changed > n_chunks {
                    return Err(StoreError::Corrupt(format!(
                        "segment `{seg_name}` declares {n_changed} changed chunks \
                         but only {n_chunks} chunks"
                    )));
                }
                let mut idx = Vec::with_capacity((n_changed as usize).min(c.remaining() / 4));
                for _ in 0..n_changed {
                    let i = c.u32()?;
                    if u64::from(i) >= n_chunks {
                        return Err(StoreError::Corrupt(format!(
                            "segment `{seg_name}` changed index {i} out of range \
                             ({n_chunks} chunks)"
                        )));
                    }
                    if idx.last().is_some_and(|&last| last >= i) {
                        return Err(StoreError::Corrupt(format!(
                            "segment `{seg_name}` changed indices not strictly increasing"
                        )));
                    }
                    idx.push(i);
                }
                Some(idx)
            } else {
                None
            };
            segments.push(Segment {
                name: seg_name,
                len,
                digests,
                changed,
            });
        }
        if c.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "manifest has {} trailing bytes",
                c.remaining()
            )));
        }
        Ok(Manifest {
            name,
            version,
            kind,
            chunk_bytes,
            meta,
            segments,
        })
    }
}

/// File name of the manifest for `name`@`version` within the store's
/// `manifests/` directory.
#[must_use]
pub fn manifest_file_name(name: &str, version: u64) -> String {
    format!("{name}.v{version:06}.manifest")
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_hash::raw_chunk_digest;

    fn sample() -> Manifest {
        let chunk_bytes = 8u32;
        let header = vec![0xAAu8; 5];
        let region = vec![0x42u8; 20];
        let seg = |name: &str, bytes: &[u8]| Segment {
            name: name.into(),
            len: bytes.len() as u64,
            digests: bytes
                .chunks(chunk_bytes as usize)
                .map(raw_chunk_digest)
                .collect(),
            changed: None,
        };
        Manifest {
            name: "temperature".into(),
            version: 3,
            kind: ManifestKind::Full,
            chunk_bytes,
            meta: vec![1, 2, 3],
            segments: vec![seg(crate::HEADER_SEGMENT, &header), seg("x", &region)],
        }
    }

    fn sample_delta() -> Manifest {
        let mut m = sample();
        m.version = 4;
        m.kind = ManifestKind::Delta { parent: 3 };
        m.segments[0].changed = Some(vec![]); // header unchanged
        m.segments[1].changed = Some(vec![0, 2]); // first + last region chunk rewritten
        m
    }

    #[test]
    fn encode_decode_round_trips() {
        let m = sample();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn delta_encode_decode_round_trips() {
        let m = sample_delta();
        let back = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.kind.parent(), Some(3));
    }

    #[test]
    fn full_encoding_is_format_one() {
        // Full manifests must stay byte-compatible with pre-delta
        // stores: the format field after the magic is still 1.
        let enc = sample().encode();
        assert_eq!(&enc[8..12], &MANIFEST_FORMAT.to_le_bytes());
        let enc = sample_delta().encode();
        assert_eq!(&enc[8..12], &MANIFEST_FORMAT_DELTA.to_le_bytes());
    }

    #[test]
    fn geometry_helpers() {
        let m = sample();
        assert_eq!(m.total_len(), 25);
        assert_eq!(m.payload_offset(), 5);
        assert_eq!(m.chunk_refs(), 4); // 1 header chunk + ceil(20/8)=3
        let lens: Vec<u32> = m.chunk_lens().map(|(_, l)| l).collect();
        assert_eq!(lens, vec![5, 8, 8, 4]);
        assert_eq!(chunk_count(0, 8), 0);
        assert_eq!(chunk_count(8, 8), 1);
        assert_eq!(chunk_count(9, 8), 2);
    }

    #[test]
    fn ownership_partitions_references() {
        let full = sample();
        // A full manifest owns everything and inherits nothing.
        assert_eq!(full.own_chunk_lens().count(), 4);
        assert_eq!(full.inherited_chunk_lens().count(), 0);
        assert_eq!(full.own_bytes(), 25);
        assert_eq!(full.skipped_bytes(), 0);

        let delta = sample_delta();
        // The delta owns region chunks 0 and 2 (8 + 4 bytes) and
        // borrows the header chunk and region chunk 1 (5 + 8 bytes).
        let own: Vec<u32> = delta.own_chunk_lens().map(|(_, l)| l).collect();
        assert_eq!(own, vec![8, 4]);
        let inherited: Vec<u32> = delta.inherited_chunk_lens().map(|(_, l)| l).collect();
        assert_eq!(inherited, vec![5, 8]);
        assert_eq!(delta.own_bytes(), 12);
        assert_eq!(delta.skipped_bytes(), 13);
        // Owned + inherited is exactly the dense reader view.
        assert_eq!(
            delta.own_chunk_lens().count() + delta.inherited_chunk_lens().count(),
            delta.chunk_lens().count()
        );
    }

    #[test]
    fn decode_rejects_corruption() {
        let m = sample();
        let enc = m.encode();
        // Bad magic.
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert!(Manifest::decode(&bad).is_err());
        // Every truncation point fails cleanly.
        for cut in 0..enc.len() {
            assert!(Manifest::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected, not ignored.
        let mut padded = enc.clone();
        padded.push(0);
        assert!(Manifest::decode(&padded).is_err());
        // Inconsistent chunk count: flip the digest-count field of the
        // first segment (it sits right after the segment name + len).
        let mut inconsistent = enc.clone();
        // Locate by re-encoding with a poked count instead of offset math:
        let mut m2 = m.clone();
        m2.segments[0]
            .digests
            .push(reprocmp_hash::Digest128([1, 2]));
        inconsistent.clone_from(&m2.encode());
        assert!(Manifest::decode(&inconsistent).is_err());
    }

    #[test]
    fn delta_decode_rejects_bad_chains_and_indices() {
        // Every truncation of a delta encoding fails cleanly too.
        let enc = sample_delta().encode();
        for cut in 0..enc.len() {
            assert!(Manifest::decode(&enc[..cut]).is_err(), "cut at {cut}");
        }
        // Parent must be strictly older: self-parent and future-parent
        // encodings are rejected (this is what makes chains acyclic).
        for parent in [4u64, 9] {
            let mut m = sample_delta();
            m.kind = ManifestKind::Delta { parent };
            assert!(Manifest::decode(&m.encode()).is_err(), "parent {parent}");
        }
        // Out-of-range changed index.
        let mut m = sample_delta();
        m.segments[1].changed = Some(vec![0, 99]);
        assert!(Manifest::decode(&m.encode()).is_err());
        // Duplicate / unsorted changed indices.
        let mut m = sample_delta();
        m.segments[1].changed = Some(vec![1, 1]);
        assert!(Manifest::decode(&m.encode()).is_err());
        let mut m = sample_delta();
        m.segments[1].changed = Some(vec![2, 0]);
        assert!(Manifest::decode(&m.encode()).is_err());
    }

    #[test]
    fn file_name_is_stable() {
        assert_eq!(manifest_file_name("t", 7), "t.v000007.manifest");
    }
}
