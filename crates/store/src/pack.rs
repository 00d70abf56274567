//! Immutable packfiles: append-once containers of content-addressed
//! chunks, with interleaved XOR parity for self-healing.
//!
//! A pack is written exactly once (one per ingest that introduced new
//! chunks) and never *extended* afterwards — GC deletes whole packs,
//! and the only rewrite is `fsck --repair` atomically replacing a pack
//! with a reconstructed, verified copy of itself. Two formats coexist;
//! both are self-describing so the index is a rebuildable cache, not
//! the source of truth:
//!
//! ```text
//! v1  magic "RCMPPAK1" (8)
//!     repeated records:
//!       digest lo u64 | digest hi u64 | len u32 | chunk bytes (len)
//!
//! v2  magic "RCMPPAK2" (8) | n_records u64
//!     records as v1
//!     parity trailer:
//!       group_width u32 | n_groups u32
//!       per group: parity_len u32 | parity bytes
//! ```
//!
//! All integers little-endian. Each record's digest is the
//! `RAW_CHUNK_SEED` murmur3 of its chunk bytes, which is what lets
//! [`scrub`](crate::ChunkStore::scrub) detect bit rot by re-hashing.
//!
//! The v2 trailer holds one XOR parity block per *group* of
//! `group_width` consecutive records: the parity is the XOR of the
//! group's chunks, each zero-padded to the longest chunk in the group.
//! Any single corrupt chunk in a group is reconstructed by XORing the
//! parity with the group's surviving chunks ([`repair_pack`]); two or
//! more corrupt chunks in one group are unrecoverable and quarantine
//! the pack.

use crate::fs::StoreFs;
use crate::wire::{put_digest, Cursor};
use crate::{StoreError, StoreResult};
use reprocmp_hash::{raw_chunk_digest, Digest128};
use reprocmp_io::MutationKind;
use std::path::Path;

/// v1 pack file magic bytes (no parity trailer).
pub const PACK_MAGIC: &[u8; 8] = b"RCMPPAK1";

/// v2 pack file magic bytes (record count + parity trailer).
pub const PACK_MAGIC_V2: &[u8; 8] = b"RCMPPAK2";

/// Bytes of one record header (digest + length) preceding chunk bytes.
pub const RECORD_HEADER_BYTES: u64 = 20;

/// Data chunks per XOR parity group in every pack the store writes.
pub const DEFAULT_PARITY_GROUP_WIDTH: u32 = 8;

/// One chunk's location inside a pack file, as recovered by a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackRecord {
    /// Content address of the chunk.
    pub digest: Digest128,
    /// Byte offset of the chunk *data* within the pack file (past the
    /// record header).
    pub data_offset: u64,
    /// Chunk length in bytes.
    pub len: u32,
}

/// The parity trailer of a v2 pack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackParity {
    /// Data chunks per parity group.
    pub group_width: u32,
    /// One XOR parity block per group of `group_width` consecutive
    /// records; each block is as long as the longest chunk it covers.
    pub groups: Vec<Vec<u8>>,
}

/// A fully parsed pack: its record table plus the parity trailer when
/// the pack is v2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPack {
    /// Every chunk's location, in record order.
    pub records: Vec<PackRecord>,
    /// The parity trailer (`None` for v1 packs).
    pub parity: Option<PackParity>,
}

/// What one [`repair_pack`] attempt achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PackRepair {
    /// Record indices reconstructed in place and re-verified.
    pub repaired: Vec<usize>,
    /// Record indices that could not be reconstructed (no parity
    /// trailer, ≥ 2 corrupt chunks in one group, or a reconstruction
    /// that failed digest verification).
    pub unrecoverable: Vec<usize>,
}

/// File name of pack `id` within the store's `packs/` directory.
#[must_use]
pub fn pack_file_name(id: u32) -> String {
    format!("pack-{id:06}.pack")
}

/// Inverse of [`pack_file_name`]; `None` for foreign files.
#[must_use]
pub fn parse_pack_file_name(name: &str) -> Option<u32> {
    name.strip_prefix("pack-")?
        .strip_suffix(".pack")?
        .parse()
        .ok()
}

/// XOR parity blocks over `chunks`, one per group of `group_width`.
fn compute_parity(chunks: &[(Digest128, &[u8])], group_width: u32) -> Vec<Vec<u8>> {
    let width = group_width as usize;
    chunks
        .chunks(width)
        .map(|group| {
            let longest = group.iter().map(|(_, c)| c.len()).max().unwrap_or(0);
            let mut parity = vec![0u8; longest];
            for (_, chunk) in group {
                for (p, b) in parity.iter_mut().zip(chunk.iter()) {
                    *p ^= b;
                }
            }
            parity
        })
        .collect()
}

/// Writes a new pack holding `chunks` in order, crash-consistently
/// (`.tmp` + atomic rename through `fs`, surfacing the
/// [`MutationKind::PackSeal`] boundary). `group_width > 0` writes a v2
/// pack with an XOR parity group per `group_width` chunks; `0` writes
/// the legacy v1 format with no parity. Returns the records with
/// their data offsets, for index insertion.
///
/// # Errors
///
/// Any filesystem error from staging or renaming.
pub fn write_pack(
    fs: &dyn StoreFs,
    path: &Path,
    chunks: &[(Digest128, &[u8])],
    group_width: u32,
) -> std::io::Result<Vec<PackRecord>> {
    let payload: usize = chunks.iter().map(|(_, b)| b.len()).sum();
    let mut bytes = Vec::with_capacity(16 + chunks.len() * RECORD_HEADER_BYTES as usize + payload);
    if group_width > 0 {
        bytes.extend_from_slice(PACK_MAGIC_V2);
        bytes.extend_from_slice(&(chunks.len() as u64).to_le_bytes());
    } else {
        bytes.extend_from_slice(PACK_MAGIC);
    }
    let mut records = Vec::with_capacity(chunks.len());
    for &(digest, chunk) in chunks {
        put_digest(&mut bytes, digest);
        bytes.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        records.push(PackRecord {
            digest,
            data_offset: bytes.len() as u64,
            len: chunk.len() as u32,
        });
        bytes.extend_from_slice(chunk);
    }
    if group_width > 0 {
        let groups = compute_parity(chunks, group_width);
        bytes.extend_from_slice(&group_width.to_le_bytes());
        bytes.extend_from_slice(&(groups.len() as u32).to_le_bytes());
        for parity in &groups {
            bytes.extend_from_slice(&(parity.len() as u32).to_le_bytes());
            bytes.extend_from_slice(parity);
        }
    }
    fs.write_atomic(path, &bytes, MutationKind::PackSeal)?;
    Ok(records)
}

/// Parses a pack file's full contents: the record table and, for v2
/// packs, the parity trailer.
///
/// # Errors
///
/// [`StoreError::Corrupt`] on bad magic, a truncated record header or
/// trailer, or a record whose declared length runs past its region.
pub fn parse_pack(bytes: &[u8]) -> StoreResult<ParsedPack> {
    let mut c = Cursor::new(bytes, "pack");
    let v2 = bytes.starts_with(PACK_MAGIC_V2);
    if v2 {
        c.magic(PACK_MAGIC_V2)?;
    } else {
        c.magic(PACK_MAGIC)?;
    }
    let declared = if v2 { Some(c.u64()?) } else { None };
    let mut records = Vec::new();
    loop {
        match declared {
            Some(n) => {
                if records.len() as u64 == n {
                    break;
                }
            }
            None => {
                if c.remaining() == 0 {
                    break;
                }
            }
        }
        let digest = c.digest()?;
        let len = c.u32()?;
        let data_offset = c.pos() as u64;
        if (c.remaining() as u64) < u64::from(len) {
            return Err(StoreError::Corrupt(format!(
                "pack record at offset {} declares {len} bytes but only {} remain",
                data_offset - RECORD_HEADER_BYTES,
                c.remaining()
            )));
        }
        c.take(len as usize)?;
        records.push(PackRecord {
            digest,
            data_offset,
            len,
        });
    }
    let parity = if v2 {
        let group_width = c.u32()?;
        if group_width == 0 {
            return Err(StoreError::Corrupt(
                "pack parity trailer declares zero group width".into(),
            ));
        }
        let n_groups = c.u32()? as usize;
        let expected = records.len().div_ceil(group_width as usize);
        if n_groups != expected {
            return Err(StoreError::Corrupt(format!(
                "pack parity trailer holds {n_groups} groups but {} records under width \
                 {group_width} need {expected}",
                records.len()
            )));
        }
        let mut groups = Vec::with_capacity(n_groups);
        for _ in 0..n_groups {
            let plen = c.u32()? as usize;
            groups.push(c.take(plen)?.to_vec());
        }
        if c.remaining() != 0 {
            return Err(StoreError::Corrupt(format!(
                "pack has {} trailing bytes past the parity trailer",
                c.remaining()
            )));
        }
        Some(PackParity {
            group_width,
            groups,
        })
    } else {
        None
    };
    Ok(ParsedPack { records, parity })
}

/// Parses the record table of a pack file's full contents (either
/// format), discarding any parity trailer.
///
/// # Errors
///
/// As [`parse_pack`].
pub fn scan_pack(bytes: &[u8]) -> StoreResult<Vec<PackRecord>> {
    parse_pack(bytes).map(|p| p.records)
}

/// Attempts in-place XOR reconstruction of the chunks at record
/// indices `bad` (as found by a scrub re-hash). Each parity group with
/// exactly one corrupt chunk is healed: the parity block XORed with
/// the group's surviving chunks yields the lost bytes, which are
/// verified against the record's content address before being patched
/// into `bytes`. Groups with two or more corrupt chunks — and every
/// chunk of a v1 pack — are unrecoverable.
///
/// The caller re-publishes the patched bytes atomically; this function
/// only mutates the in-memory copy.
///
/// # Errors
///
/// [`StoreError::Corrupt`] if the pack's structure does not parse, or
/// a `bad` index is out of range.
pub fn repair_pack(bytes: &mut [u8], bad: &[usize]) -> StoreResult<PackRepair> {
    let parsed = parse_pack(bytes)?;
    let mut repair = PackRepair::default();
    if bad.is_empty() {
        return Ok(repair);
    }
    if bad.iter().any(|&i| i >= parsed.records.len()) {
        return Err(StoreError::Corrupt(format!(
            "repair request names record {} but the pack holds {}",
            bad.iter().max().unwrap(),
            parsed.records.len()
        )));
    }
    let Some(parity) = &parsed.parity else {
        repair.unrecoverable = bad.to_vec();
        return Ok(repair);
    };
    let width = parity.group_width as usize;
    let mut by_group: std::collections::BTreeMap<usize, Vec<usize>> =
        std::collections::BTreeMap::new();
    for &i in bad {
        by_group.entry(i / width).or_default().push(i);
    }
    for (group, members) in by_group {
        if members.len() != 1 {
            repair.unrecoverable.extend(members);
            continue;
        }
        let victim = members[0];
        let record = parsed.records[victim];
        let mut reconstructed = parity.groups[group].clone();
        let group_records =
            &parsed.records[group * width..((group + 1) * width).min(parsed.records.len())];
        for (i, r) in group_records.iter().enumerate() {
            if group * width + i == victim {
                continue;
            }
            let chunk = &bytes[r.data_offset as usize..][..r.len as usize];
            for (p, b) in reconstructed.iter_mut().zip(chunk.iter()) {
                *p ^= b;
            }
        }
        reconstructed.truncate(record.len as usize);
        if reconstructed.len() < record.len as usize
            || raw_chunk_digest(&reconstructed) != record.digest
        {
            // A surviving "good" chunk must itself have been corrupt
            // in a way the scrub missed, or the parity block rotted.
            repair.unrecoverable.push(victim);
            continue;
        }
        bytes[record.data_offset as usize..][..record.len as usize].copy_from_slice(&reconstructed);
        repair.repaired.push(victim);
    }
    repair.repaired.sort_unstable();
    repair.unrecoverable.sort_unstable();
    Ok(repair)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::RealFs;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("reprocmp-store-pack-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn chunked(data: &[Vec<u8>]) -> Vec<(Digest128, &[u8])> {
        data.iter()
            .map(|c| (raw_chunk_digest(c), c.as_slice()))
            .collect()
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(pack_file_name(7), "pack-000007.pack");
        assert_eq!(parse_pack_file_name("pack-000007.pack"), Some(7));
        assert_eq!(parse_pack_file_name("pack-000007.pack.tmp"), None);
        assert_eq!(parse_pack_file_name("index.bin"), None);
    }

    #[test]
    fn write_then_scan_recovers_records() {
        let dir = temp_dir("test");
        let path = dir.join(pack_file_name(0));
        let a = vec![1u8; 100];
        let b = vec![2u8; 37];
        let chunks = vec![
            (raw_chunk_digest(&a), a.as_slice()),
            (raw_chunk_digest(&b), b.as_slice()),
        ];
        let written = write_pack(&RealFs, &path, &chunks, DEFAULT_PARITY_GROUP_WIDTH).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let scanned = scan_pack(&bytes).unwrap();
        assert_eq!(written, scanned);
        assert_eq!(scanned.len(), 2);
        assert_eq!(scanned[0].len, 100);
        assert_eq!(
            &bytes[scanned[1].data_offset as usize..][..scanned[1].len as usize],
            &b[..]
        );
        // No stray .tmp left behind.
        assert!(!crate::tmp_path(&path).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_packs_still_parse_without_parity() {
        let dir = temp_dir("v1");
        let path = dir.join(pack_file_name(9));
        let a = vec![5u8; 64];
        let chunks = chunked(std::slice::from_ref(&a));
        write_pack(&RealFs, &path, &chunks, 0).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(PACK_MAGIC));
        let parsed = parse_pack(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 1);
        assert!(parsed.parity.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_parity_trailer_round_trips() {
        let dir = temp_dir("v2");
        let path = dir.join(pack_file_name(1));
        // 11 chunks of uneven sizes → 4 groups under width 3.
        let data: Vec<Vec<u8>> = (0..11u8).map(|i| vec![i; 40 + i as usize * 7]).collect();
        let chunks = chunked(&data);
        write_pack(&RealFs, &path, &chunks, 3).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(PACK_MAGIC_V2));
        let parsed = parse_pack(&bytes).unwrap();
        assert_eq!(parsed.records.len(), 11);
        let parity = parsed.parity.unwrap();
        assert_eq!(parity.group_width, 3);
        assert_eq!(parity.groups.len(), 4);
        // Each parity block is as long as its group's longest chunk.
        assert_eq!(parity.groups[0].len(), data[2].len());
        assert_eq!(parity.groups[3].len(), data[10].len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn single_corruption_per_group_is_repaired() {
        let dir = temp_dir("repair");
        let path = dir.join(pack_file_name(2));
        let data: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i.wrapping_mul(31); 128]).collect();
        let chunks = chunked(&data);
        write_pack(&RealFs, &path, &chunks, 4).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let records = scan_pack(&bytes).unwrap();
        // Corrupt one chunk in group 0 and one in group 2.
        for &victim in &[1usize, 8] {
            let r = records[victim];
            bytes[r.data_offset as usize + 5] ^= 0xFF;
        }
        let bad: Vec<usize> = records
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                raw_chunk_digest(&bytes[r.data_offset as usize..][..r.len as usize]) != r.digest
            })
            .map(|(i, _)| i)
            .collect();
        assert_eq!(bad, vec![1, 8]);
        let repair = repair_pack(&mut bytes, &bad).unwrap();
        assert_eq!(repair.repaired, vec![1, 8]);
        assert!(repair.unrecoverable.is_empty());
        // Every chunk re-verifies after the patch.
        for r in &records {
            assert_eq!(
                raw_chunk_digest(&bytes[r.data_offset as usize..][..r.len as usize]),
                r.digest
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_corruptions_in_one_group_are_unrecoverable() {
        let dir = temp_dir("unrec");
        let path = dir.join(pack_file_name(3));
        let data: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 90]).collect();
        let chunks = chunked(&data);
        write_pack(&RealFs, &path, &chunks, 8).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let records = scan_pack(&bytes).unwrap();
        for &victim in &[2usize, 4] {
            let r = records[victim];
            bytes[r.data_offset as usize] ^= 0x01;
        }
        let repair = repair_pack(&mut bytes, &[2, 4]).unwrap();
        assert!(repair.repaired.is_empty());
        assert_eq!(repair.unrecoverable, vec![2, 4]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_packs_are_never_repairable() {
        let dir = temp_dir("v1rep");
        let path = dir.join(pack_file_name(4));
        let data: Vec<Vec<u8>> = vec![vec![9u8; 50]];
        write_pack(&RealFs, &path, &chunked(&data), 0).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[30] ^= 0x10;
        let repair = repair_pack(&mut bytes, &[0]).unwrap();
        assert_eq!(repair.unrecoverable, vec![0]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scan_rejects_bad_magic_and_truncation() {
        assert!(matches!(
            scan_pack(b"NOTAPACK"),
            Err(StoreError::Corrupt(_))
        ));
        let chunk = vec![9u8; 64];
        let dir = temp_dir("trunc");
        let path = dir.join(pack_file_name(1));
        write_pack(
            &RealFs,
            &path,
            &[(raw_chunk_digest(&chunk), chunk.as_slice())],
            0,
        )
        .unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Every truncation point must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            if cut == 8 {
                continue; // magic alone is a valid empty v1 pack
            }
            assert!(scan_pack(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v2_truncation_points_fail_cleanly() {
        let dir = temp_dir("trunc2");
        let path = dir.join(pack_file_name(5));
        let data: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i; 33]).collect();
        write_pack(&RealFs, &path, &chunked(&data), 2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            assert!(parse_pack(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage past the trailer is rejected too.
        let mut padded = bytes;
        padded.push(0);
        assert!(parse_pack(&padded).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_pack_scans_to_no_records() {
        assert!(scan_pack(PACK_MAGIC).unwrap().is_empty());
    }
}
