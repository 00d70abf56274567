//! A count in a store file is a claim, not a reservation.
//!
//! `Manifest::decode` once reserved a segment's digest list from its
//! declared chunk count before reading a single digest: a 54-byte
//! manifest declaring 2^28 chunks asked for 4 GiB on its way to
//! `Corrupt`. Every store file is read back from disk after a crash or
//! bit rot, so what a decode reserves must be bounded by what it was
//! given. This binary sweeps hostile variants of each on-disk format —
//! manifest v1/v2, `index.bin`, `journal.bin`, pack v1/v2 — through its
//! decoder and records the largest single allocation each makes. It has
//! its own global allocator, and a single test so no neighbour's
//! allocations land in the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use reprocmp_hash::{raw_chunk_digest, Digest128};
use reprocmp_store::index::{encode_index, load_index, Index};
use reprocmp_store::journal::encode_record;
use reprocmp_store::pack::{parse_pack, write_pack};
use reprocmp_store::{
    read_journal, real_fs, IndexEntry, IntentRecord, Manifest, ManifestKind, Segment,
};

/// Largest single allocation request since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Requests above this are refused rather than forwarded, so a decoder
/// that trusts a hostile count fails here without touching the
/// machine's memory.
const REFUSE_ABOVE: usize = 1 << 30;

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, or refused by
// returning null (which the `GlobalAlloc` contract allows); the counter
// touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The decoded item count (`None` for an error) and the largest single
/// allocation the decode made.
fn decode_measured(format: &Format, image: &[u8]) -> (Option<usize>, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let decoded = (format.decode)(image);
    (decoded, LARGEST.load(Ordering::Relaxed))
}

/// One on-disk format: an honest image, where its framing count and
/// length fields sit, and its decoder.
struct Format {
    name: &'static str,
    image: Vec<u8>,
    /// `(offset, width)` of every field that frames the encoding.
    fields: Vec<(usize, usize)>,
    /// Items decoded (segments, entries, records), or `None` on error.
    decode: fn(&[u8]) -> Option<usize>,
    /// Re-seals an edited image so the edit reaches the decoder
    /// (journal frames carry checksums); a no-op elsewhere.
    reseal: fn(&mut [u8]),
    /// The format has no end marker: a damaged image decodes as the
    /// records before the damage instead of failing.
    lenient: bool,
}

fn le(bytes: &[u8], at: usize, width: usize) -> u64 {
    let mut v = [0u8; 8];
    v[..width].copy_from_slice(&bytes[at..at + width]);
    u64::from_le_bytes(v)
}

fn put_le(bytes: &mut [u8], at: usize, width: usize, value: u64) {
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
}

fn no_reseal(_: &mut [u8]) {}

fn segment(name: &str, bytes: &[u8], chunk_bytes: usize) -> Segment {
    Segment::full(
        name.into(),
        bytes.len() as u64,
        bytes.chunks(chunk_bytes).map(raw_chunk_digest).collect(),
    )
}

fn manifest(delta: bool) -> Format {
    let mut m = Manifest {
        name: "temperature".into(),
        version: 3,
        kind: ManifestKind::Full,
        chunk_bytes: 8,
        meta: vec![1, 2, 3, 4, 5],
        segments: vec![
            segment(reprocmp_store::HEADER_SEGMENT, &[0xAA; 5], 8),
            segment("x", &[0x42; 20], 8),
            segment("y", &[0x17; 33], 8),
        ],
    };
    if delta {
        m.kind = ManifestKind::Delta { parent: 2 };
        m.segments[0].changed = Some(vec![]);
        m.segments[1].changed = Some(vec![0, 2]);
        m.segments[2].changed = Some(vec![1, 2, 3, 4]);
    }
    let image = m.encode();
    let mut fields = Vec::new();
    let mut p = if delta { 20 } else { 12 };
    fields.push((p, 2));
    p += 2 + le(&image, p, 2) as usize + 8;
    fields.push((p, 4));
    fields.push((p + 4, 8));
    p += 12 + le(&image, p + 4, 8) as usize;
    fields.push((p, 4));
    p += 4;
    for _ in &m.segments {
        fields.push((p, 2));
        p += 2 + le(&image, p, 2) as usize;
        fields.push((p, 8));
        fields.push((p + 8, 4));
        p += 12 + 16 * le(&image, p + 8, 4) as usize;
        if delta {
            fields.push((p, 4));
            p += 4 + 4 * le(&image, p, 4) as usize;
        }
    }
    assert_eq!(p, image.len(), "manifest field walk");
    Format {
        name: if delta { "manifest v2" } else { "manifest v1" },
        image,
        fields,
        decode: |b| Manifest::decode(b).ok().map(|m| m.segments.len()),
        reseal: no_reseal,
        lenient: false,
    }
}

fn index() -> Format {
    let mut idx = Index::new();
    for k in 0..6u64 {
        idx.insert(
            Digest128([k, k * 7 + 1]),
            IndexEntry {
                pack: k as u32,
                data_offset: 28 + 100 * k,
                len: 4096,
                refcount: 2,
            },
        );
    }
    Format {
        name: "index.bin",
        image: encode_index(&idx),
        fields: vec![(12, 8)],
        decode: |b| load_index(b).ok().map(|i| i.len()),
        reseal: no_reseal,
        lenient: false,
    }
}

/// Recomputes every frame checksum that still frames a whole payload.
fn reseal_journal(bytes: &mut [u8]) {
    let mut pos = 0;
    while bytes.len() - pos >= 20 {
        let len = le(bytes, pos, 4) as usize;
        if bytes.len() - pos - 20 < len {
            return;
        }
        let d = raw_chunk_digest(&bytes[pos + 20..pos + 20 + len]);
        put_le(bytes, pos + 4, 8, d.0[0]);
        put_le(bytes, pos + 12, 8, d.0[1]);
        pos += 20 + len;
    }
}

fn journal() -> Format {
    let records = [
        IntentRecord::IngestBegin {
            seq: 1,
            name: "run".into(),
            version: 4,
            pack: Some(9),
        },
        IntentRecord::IngestCommit { seq: 1 },
        IntentRecord::GcBegin {
            seq: 2,
            dead_packs: vec![0, 7, 42],
        },
        IntentRecord::RemoveBegin {
            seq: 3,
            name: "run".into(),
            version: 2,
        },
        IntentRecord::CompactBegin {
            seq: 4,
            src_packs: vec![1, 2],
            dst_pack: 5,
        },
        IntentRecord::FlattenBegin {
            seq: 5,
            name: "run".into(),
            version: 6,
        },
    ];
    let mut image = Vec::new();
    let mut fields = Vec::new();
    for r in &records {
        let frame = encode_record(r);
        let at = image.len();
        fields.push((at, 4));
        // Payload: seq u64 | kind u8 | then a name length or a count.
        match r {
            IntentRecord::IngestBegin { .. }
            | IntentRecord::RemoveBegin { .. }
            | IntentRecord::FlattenBegin { .. } => fields.push((at + 29, 2)),
            IntentRecord::GcBegin { .. } | IntentRecord::CompactBegin { .. } => {
                fields.push((at + 29, 4));
            }
            _ => {}
        }
        image.extend_from_slice(&frame);
    }
    Format {
        name: "journal.bin",
        image,
        fields,
        decode: |b| Some(read_journal(b).len()),
        reseal: reseal_journal,
        lenient: true,
    }
}

fn pack(group_width: u32) -> Format {
    let data: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i; 10 + 9 * i as usize]).collect();
    let chunks: Vec<(Digest128, &[u8])> = data
        .iter()
        .map(|c| (raw_chunk_digest(c), c.as_slice()))
        .collect();
    let dir = std::env::temp_dir().join(format!("reprocmp-decode-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("w{group_width}.pack"));
    write_pack(real_fs().as_ref(), &path, &chunks, group_width).unwrap();
    let image = std::fs::read(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let v2 = group_width > 0;
    let mut fields = Vec::new();
    let mut p = 8;
    if v2 {
        fields.push((p, 8));
        p += 8;
    }
    for c in &data {
        fields.push((p + 16, 4));
        p += 20 + c.len();
    }
    if v2 {
        // group_width | n_groups: the width is a parameter (any width
        // of at least five gives these records one group), not a count.
        fields.push((p + 4, 4));
        p += 8;
        for _ in 0..data.len().div_ceil(group_width as usize) {
            fields.push((p, 4));
            p += 4 + le(&image, p, 4) as usize;
        }
    }
    assert_eq!(p, image.len(), "pack field walk");
    Format {
        name: if v2 { "pack v2" } else { "pack v1" },
        image,
        fields,
        decode: |b| parse_pack(b).ok().map(|p| p.records.len()),
        reseal: no_reseal,
        // v1 has no record count: a cut at a record boundary is a
        // shorter pack, not a corrupt one.
        lenient: !v2,
    }
}

/// SplitMix64, for reproducible bit flips.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[test]
fn store_decoders_allocate_in_proportion_to_their_input() {
    let bound = |len: usize| 16 * len + 4096;
    let formats = [
        manifest(false),
        manifest(true),
        index(),
        journal(),
        pack(0),
        pack(8),
    ];

    // The manifest that motivated this test: chunk size 4096 and one
    // 2^40-byte segment declaring its 2^28 chunks, with no digests.
    let mut crafted = Vec::new();
    crafted.extend_from_slice(b"RCMPMAN1");
    crafted.extend_from_slice(&1u32.to_le_bytes());
    crafted.extend_from_slice(&1u16.to_le_bytes());
    crafted.push(b'm');
    crafted.extend_from_slice(&1u64.to_le_bytes());
    crafted.extend_from_slice(&4096u32.to_le_bytes());
    crafted.extend_from_slice(&0u64.to_le_bytes());
    crafted.extend_from_slice(&1u32.to_le_bytes());
    crafted.extend_from_slice(&1u16.to_le_bytes());
    crafted.push(b'x');
    crafted.extend_from_slice(&(1u64 << 40).to_le_bytes());
    crafted.extend_from_slice(&(1u32 << 28).to_le_bytes());
    assert_eq!(crafted.len(), 54);
    let (decoded, largest) = decode_measured(&formats[0], &crafted);
    assert_eq!(decoded, None, "crafted manifest must not decode");
    assert!(
        largest <= bound(crafted.len()),
        "a 54-byte manifest declaring 2^28 chunks made a {largest}-byte allocation"
    );

    for f in &formats {
        let (full, largest) = decode_measured(f, &f.image);
        let full = full.unwrap_or_else(|| panic!("{}: honest image must decode", f.name));
        assert!(largest <= bound(f.image.len()), "{}: honest image", f.name);

        // A damaged image is an error; a lenient format may instead
        // return strictly fewer items than the honest image holds.
        let rejected = |decoded: Option<usize>| match decoded {
            None => true,
            Some(n) => f.lenient && n < full,
        };
        let check = |image: &[u8], what: &str, must_reject: bool| {
            let (decoded, largest) = decode_measured(f, image);
            assert!(
                largest <= bound(image.len()),
                "{}: {what}: a {}-byte image made a {largest}-byte allocation",
                f.name,
                image.len()
            );
            if must_reject {
                assert!(
                    rejected(decoded),
                    "{}: {what} decoded as {decoded:?}",
                    f.name
                );
            }
        };

        for cut in 0..f.image.len() {
            check(&f.image[..cut], &format!("cut at {cut}"), true);
        }

        let mut rng = 0x5eed_0000 ^ f.image.len() as u64;
        for k in 0..256 {
            let mut image = f.image.clone();
            let bit = splitmix(&mut rng) as usize % (image.len() * 8);
            image[bit / 8] ^= 1 << (bit % 8);
            (f.reseal)(&mut image);
            check(&image, &format!("flip {k} (bit {bit})"), false);
        }

        for &(at, width) in &f.fields {
            let huge: &[u64] = match width {
                2 => &[u64::from(u16::MAX)],
                4 => &[1 << 28, u64::from(u32::MAX)],
                _ => &[1 << 40, u64::MAX],
            };
            for &value in huge {
                let mut image = f.image.clone();
                put_le(&mut image, at, width, value);
                (f.reseal)(&mut image);
                check(&image, &format!("field at {at} set to {value}"), true);
            }
        }
    }
}
