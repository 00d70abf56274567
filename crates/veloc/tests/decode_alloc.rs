//! A region count is a claim, not a reservation.
//!
//! `decode_checkpoint` once reserved its region table from the header's
//! count before reading a single entry: a 24-byte header announcing
//! 999 999 regions held ~40 MB on its way to `Truncated`. The daemon
//! decodes uploads from peers, so what a decode holds must be bounded by
//! what it was given. This binary counts the heap under real decodes —
//! hence its own global allocator, and a single test so no neighbour's
//! allocations land in the count.

#[path = "../../../tests/common/alloc.rs"]
mod alloc;

use reprocmp_veloc::format::{FORMAT_VERSION, MAGIC};
use reprocmp_veloc::{decode_checkpoint, encode_checkpoint, CkptCodecError};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Peak bytes held above the starting level while decoding `image`.
fn held_while_decoding(image: &[u8]) -> (usize, Result<usize, CkptCodecError>) {
    alloc::peak_growth(|| decode_checkpoint(image).map(|f| f.regions.len()))
}

/// A header announcing `n_regions`, followed by `entries` one-byte-named
/// region entries and nothing else.
fn header(n_regions: u32, entries: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&7u64.to_le_bytes());
    out.extend_from_slice(&n_regions.to_le_bytes());
    for _ in 0..entries {
        out.extend_from_slice(&1u16.to_le_bytes());
        out.push(b'r');
        out.extend_from_slice(&0u64.to_le_bytes());
    }
    out
}

#[test]
fn decoding_holds_memory_in_proportion_to_the_input() {
    // A region entry decodes into a `Region` (name string + two u64s);
    // this is the per-input-byte ceiling, with slack for the names.
    const PER_BYTE: usize = 16;

    for (n_regions, entries) in [(999_999u32, 0usize), (999_999, 50), (1_000, 3)] {
        let image = header(n_regions, entries);
        let (held, decoded) = held_while_decoding(&image);
        assert_eq!(decoded, Err(CkptCodecError::Truncated), "n={n_regions}");
        assert!(
            held <= PER_BYTE * image.len() + 256,
            "a {}-byte header announcing {n_regions} regions held {held} bytes",
            image.len()
        );
    }

    // An honest image still decodes whole, within the same bound.
    let regions: Vec<(String, Vec<f32>)> = (0..200)
        .map(|i| (format!("r{i}"), vec![i as f32; 3]))
        .collect();
    let borrowed: Vec<(&str, &[f32])> = regions
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    let image = encode_checkpoint(1, &borrowed);
    let (held, decoded) = held_while_decoding(&image);
    assert_eq!(decoded, Ok(200));
    assert!(held <= PER_BYTE * image.len(), "held {held} bytes");
}
