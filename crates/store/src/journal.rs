//! The write-ahead intent journal: multi-file atomicity for the store.
//!
//! Individual files are crash-consistent (`.tmp` + rename), but store
//! operations mutate *several* files — `ingest` publishes a pack and a
//! manifest; `gc` swaps the index and unlinks packs; `remove` unlinks a
//! manifest — and each moves refcounts that `index.bin`, a checkpoint,
//! records only later. `open`'s consistency check verifies digest
//! *presence* but not refcounts: trusting it alone, a stale refcount
//! could miscount the ledger or let GC sweep live data.
//!
//! `journal.bin` closes the gap. Before its first file mutation, every
//! multi-file operation appends a checksummed *begin* record declaring
//! its intent (redo/undo information: which pack an ingest will seal,
//! which packs a GC will unlink, which manifest a remove will drop) and
//! appends a matching *commit* record after its last mutation.
//! [`read_journal`] parses the log leniently — a torn tail record
//! (crash mid-append) is ignored, exactly the append-crash semantics —
//! and [`pending_intents`] yields the begins with no commit. On
//! `Store::open`, pending intents are replayed: incomplete ingests have
//! their orphan pack unlinked (undo), incomplete GCs have their
//! provably-dead packs unlinked (redo), and any journal content at
//! all — committed records included, since the journal is reset only
//! behind a saved index — forces an index rebuild from the
//! authoritative packs + manifests, which recomputes refcounts
//! exactly. Replay is
//! idempotent: crashing *during* replay and replaying again reaches
//! the same state.
//!
//! On-disk format (little-endian), one frame per record:
//!
//! ```text
//! frame:   payload_len u32 | checksum lo u64 | checksum hi u64 | payload
//! payload: seq u64 | kind u8 | body
//! ```
//!
//! The checksum is the store's own content hash
//! (`raw_chunk_digest`) over the payload, so a torn or bit-flipped
//! frame is detected, never replayed.

use crate::wire::{put_digest, Cursor};
use reprocmp_hash::raw_chunk_digest;

/// File name of the intent journal within the store root.
pub const JOURNAL_FILE: &str = "journal.bin";

/// Maximum sane payload length for one record — guards the lenient
/// parser against interpreting garbage as a giant allocation.
const MAX_PAYLOAD: usize = 1 << 20;

/// One intent-journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntentRecord {
    /// An ingest of `name`@`version` is about to mutate files; `pack`
    /// is the pack id it will seal, if any chunk is new.
    IngestBegin {
        /// Record sequence number.
        seq: u64,
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
        /// Pack id the ingest will create, if any.
        pack: Option<u32>,
    },
    /// The ingest with begin-sequence `seq` completed all mutations.
    IngestCommit {
        /// Sequence number of the matching begin.
        seq: u64,
    },
    /// A GC sweep is about to unlink `dead_packs` (all provably at
    /// refcount zero when the intent was logged).
    GcBegin {
        /// Record sequence number.
        seq: u64,
        /// Pack ids the sweep will unlink.
        dead_packs: Vec<u32>,
    },
    /// The GC sweep with begin-sequence `seq` completed.
    GcCommit {
        /// Sequence number of the matching begin.
        seq: u64,
    },
    /// A remove of `name`@`version` is about to unlink its manifest
    /// and rewrite the index.
    RemoveBegin {
        /// Record sequence number.
        seq: u64,
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
    /// The remove with begin-sequence `seq` completed.
    RemoveCommit {
        /// Sequence number of the matching begin.
        seq: u64,
    },
    /// A compaction is about to migrate the live chunks of
    /// `src_packs` (each holding dead chunks too) into `dst_pack`,
    /// then unlink the sources. Replay needs no file action: the index
    /// rebuild resolves duplicate digests to the newest pack and GC
    /// reclaims whichever sources became fully dead.
    CompactBegin {
        /// Record sequence number.
        seq: u64,
        /// Packs whose live chunks are being migrated.
        src_packs: Vec<u32>,
        /// The pack the live chunks land in.
        dst_pack: u32,
    },
    /// The compaction with begin-sequence `seq` completed.
    CompactCommit {
        /// Sequence number of the matching begin.
        seq: u64,
    },
    /// A chain flatten of `name`@`version` is about to republish the
    /// manifest as a full anchor and bump the formerly-borrowed
    /// refcounts. Replay needs no file action (delta and flattened
    /// manifests materialize identically); the forced index rebuild
    /// recomputes refcounts for whichever manifest kind landed.
    FlattenBegin {
        /// Record sequence number.
        seq: u64,
        /// Checkpoint name.
        name: String,
        /// Checkpoint version.
        version: u64,
    },
    /// The flatten with begin-sequence `seq` completed.
    FlattenCommit {
        /// Sequence number of the matching begin.
        seq: u64,
    },
}

impl IntentRecord {
    /// The record's sequence number.
    #[must_use]
    pub fn seq(&self) -> u64 {
        match self {
            IntentRecord::IngestBegin { seq, .. }
            | IntentRecord::IngestCommit { seq }
            | IntentRecord::GcBegin { seq, .. }
            | IntentRecord::GcCommit { seq }
            | IntentRecord::RemoveBegin { seq, .. }
            | IntentRecord::RemoveCommit { seq }
            | IntentRecord::CompactBegin { seq, .. }
            | IntentRecord::CompactCommit { seq }
            | IntentRecord::FlattenBegin { seq, .. }
            | IntentRecord::FlattenCommit { seq } => *seq,
        }
    }

    /// True for begin (intent-declaring) records.
    #[must_use]
    pub fn is_begin(&self) -> bool {
        matches!(
            self,
            IntentRecord::IngestBegin { .. }
                | IntentRecord::GcBegin { .. }
                | IntentRecord::RemoveBegin { .. }
                | IntentRecord::CompactBegin { .. }
                | IntentRecord::FlattenBegin { .. }
        )
    }

    fn kind_byte(&self) -> u8 {
        match self {
            IntentRecord::IngestBegin { .. } => 1,
            IntentRecord::IngestCommit { .. } => 2,
            IntentRecord::GcBegin { .. } => 3,
            IntentRecord::GcCommit { .. } => 4,
            IntentRecord::RemoveBegin { .. } => 5,
            IntentRecord::RemoveCommit { .. } => 6,
            IntentRecord::CompactBegin { .. } => 7,
            IntentRecord::CompactCommit { .. } => 8,
            IntentRecord::FlattenBegin { .. } => 9,
            IntentRecord::FlattenCommit { .. } => 10,
        }
    }
}

/// Encodes one record as a checksummed frame ready to append.
#[must_use]
pub fn encode_record(record: &IntentRecord) -> Vec<u8> {
    let mut payload = Vec::with_capacity(32);
    payload.extend_from_slice(&record.seq().to_le_bytes());
    payload.push(record.kind_byte());
    match record {
        IntentRecord::IngestBegin {
            name,
            version,
            pack,
            ..
        } => {
            payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&version.to_le_bytes());
            match pack {
                Some(id) => {
                    payload.push(1);
                    payload.extend_from_slice(&id.to_le_bytes());
                }
                None => payload.push(0),
            }
        }
        IntentRecord::GcBegin { dead_packs, .. } => {
            payload.extend_from_slice(&(dead_packs.len() as u32).to_le_bytes());
            for id in dead_packs {
                payload.extend_from_slice(&id.to_le_bytes());
            }
        }
        IntentRecord::RemoveBegin { name, version, .. } => {
            payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&version.to_le_bytes());
        }
        IntentRecord::CompactBegin {
            src_packs,
            dst_pack,
            ..
        } => {
            payload.extend_from_slice(&(src_packs.len() as u32).to_le_bytes());
            for id in src_packs {
                payload.extend_from_slice(&id.to_le_bytes());
            }
            payload.extend_from_slice(&dst_pack.to_le_bytes());
        }
        IntentRecord::FlattenBegin { name, version, .. } => {
            payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
            payload.extend_from_slice(name.as_bytes());
            payload.extend_from_slice(&version.to_le_bytes());
        }
        IntentRecord::IngestCommit { .. }
        | IntentRecord::GcCommit { .. }
        | IntentRecord::RemoveCommit { .. }
        | IntentRecord::CompactCommit { .. }
        | IntentRecord::FlattenCommit { .. } => {}
    }
    let digest = raw_chunk_digest(&payload);
    let mut frame = Vec::with_capacity(20 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    put_digest(&mut frame, digest);
    frame.extend_from_slice(&payload);
    frame
}

/// Parses a journal's bytes *leniently*: frames are decoded until the
/// first truncated, checksum-failing, or malformed frame, which — with
/// an append-only log — can only be a torn tail from a crash
/// mid-append. Everything before it is intact and returned.
#[must_use]
pub fn read_journal(bytes: &[u8]) -> Vec<IntentRecord> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 20 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len > MAX_PAYLOAD || bytes.len() - pos - 20 < len {
            break; // torn tail: the frame never finished landing
        }
        let lo = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap());
        let hi = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().unwrap());
        let payload = &bytes[pos + 20..pos + 20 + len];
        let digest = raw_chunk_digest(payload);
        if digest.0 != [lo, hi] {
            break; // checksum mismatch: torn or rotted tail
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        pos += 20 + len;
    }
    records
}

fn decode_payload(payload: &[u8]) -> Option<IntentRecord> {
    let mut c = Cursor::new(payload, "journal");
    let seq = c.u64().ok()?;
    let kind = *c.take(1).ok()?.first()?;
    let record = match kind {
        1 => {
            let name_len = c.u16().ok()? as usize;
            let name = c.utf8(name_len).ok()?;
            let version = c.u64().ok()?;
            let has_pack = *c.take(1).ok()?.first()?;
            let pack = match has_pack {
                0 => None,
                1 => Some(c.u32().ok()?),
                _ => return None,
            };
            IntentRecord::IngestBegin {
                seq,
                name,
                version,
                pack,
            }
        }
        2 => IntentRecord::IngestCommit { seq },
        3 => {
            let n = c.u32().ok()? as usize;
            let mut dead_packs = Vec::with_capacity(n.min(c.remaining() / 4));
            for _ in 0..n {
                dead_packs.push(c.u32().ok()?);
            }
            IntentRecord::GcBegin { seq, dead_packs }
        }
        4 => IntentRecord::GcCommit { seq },
        5 => {
            let name_len = c.u16().ok()? as usize;
            let name = c.utf8(name_len).ok()?;
            let version = c.u64().ok()?;
            IntentRecord::RemoveBegin { seq, name, version }
        }
        6 => IntentRecord::RemoveCommit { seq },
        7 => {
            let n = c.u32().ok()? as usize;
            let mut src_packs = Vec::with_capacity(n.min(c.remaining() / 4));
            for _ in 0..n {
                src_packs.push(c.u32().ok()?);
            }
            let dst_pack = c.u32().ok()?;
            IntentRecord::CompactBegin {
                seq,
                src_packs,
                dst_pack,
            }
        }
        8 => IntentRecord::CompactCommit { seq },
        9 => {
            let name_len = c.u16().ok()? as usize;
            let name = c.utf8(name_len).ok()?;
            let version = c.u64().ok()?;
            IntentRecord::FlattenBegin { seq, name, version }
        }
        10 => IntentRecord::FlattenCommit { seq },
        _ => return None,
    };
    if c.remaining() != 0 {
        return None;
    }
    Some(record)
}

/// Begin records whose sequence number has no matching commit — the
/// operations a crash interrupted. In a serialized store at most the
/// tail intent can be pending, but replay handles any number.
#[must_use]
pub fn pending_intents(records: &[IntentRecord]) -> Vec<IntentRecord> {
    let committed: std::collections::HashSet<u64> = records
        .iter()
        .filter(|r| !r.is_begin())
        .map(IntentRecord::seq)
        .collect();
    records
        .iter()
        .filter(|r| r.is_begin() && !committed.contains(&r.seq()))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<IntentRecord> {
        vec![
            IntentRecord::IngestBegin {
                seq: 1,
                name: "run".into(),
                version: 3,
                pack: Some(7),
            },
            IntentRecord::IngestCommit { seq: 1 },
            IntentRecord::GcBegin {
                seq: 2,
                dead_packs: vec![0, 7, 42],
            },
            IntentRecord::GcCommit { seq: 2 },
            IntentRecord::CompactBegin {
                seq: 3,
                src_packs: vec![1, 2],
                dst_pack: 9,
            },
            IntentRecord::CompactCommit { seq: 3 },
            IntentRecord::FlattenBegin {
                seq: 4,
                name: "run".into(),
                version: 5,
            },
            IntentRecord::FlattenCommit { seq: 4 },
            IntentRecord::RemoveBegin {
                seq: 5,
                name: "run".into(),
                version: 3,
            },
        ]
    }

    fn encode_all(records: &[IntentRecord]) -> Vec<u8> {
        records.iter().flat_map(encode_record).collect()
    }

    #[test]
    fn records_round_trip() {
        let records = sample();
        let bytes = encode_all(&records);
        assert_eq!(read_journal(&bytes), records);
    }

    #[test]
    fn pending_is_the_uncommitted_tail() {
        let records = sample();
        let pending = pending_intents(&records);
        assert_eq!(
            pending,
            vec![IntentRecord::RemoveBegin {
                seq: 5,
                name: "run".into(),
                version: 3,
            }]
        );
    }

    #[test]
    fn torn_tail_is_ignored_at_every_cut() {
        let records = sample();
        let bytes = encode_all(&records);
        // Boundaries between intact frames.
        let mut boundaries = vec![0usize];
        for r in &records {
            boundaries.push(boundaries.last().unwrap() + encode_record(r).len());
        }
        for cut in 0..bytes.len() {
            let parsed = read_journal(&bytes[..cut]);
            let intact = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(
                parsed.len(),
                intact,
                "cut at {cut}: every fully-landed frame parses, the torn tail is dropped"
            );
            assert_eq!(parsed[..], records[..intact]);
        }
    }

    #[test]
    fn checksum_detects_a_flipped_bit() {
        let records = sample();
        let mut bytes = encode_all(&records);
        // Flip a bit inside the *first* frame's payload: that frame and
        // everything after it is discarded (replay never trusts a
        // record it cannot verify).
        bytes[24] ^= 0x40;
        assert!(read_journal(&bytes).is_empty());
    }

    #[test]
    fn empty_and_garbage_journals_parse_to_nothing() {
        assert!(read_journal(&[]).is_empty());
        assert!(read_journal(&[0xFF; 7]).is_empty());
        assert!(read_journal(&[0xFF; 64]).is_empty());
    }
}
