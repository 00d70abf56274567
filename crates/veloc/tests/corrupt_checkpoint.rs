//! Fuzz-style robustness tests for checkpoint-file deserialization.
//!
//! The flushed checkpoint is read back by three different consumers —
//! restart, the CLI's `info`/`ingest`, and the store capture hook —
//! from storage the decoder does not control, so `decode_checkpoint`
//! and `read_region` must treat the bytes as hostile: truncation, bit
//! flips, absurd region counts, and payload sizes that wrap 64-bit
//! arithmetic must all come back as a typed [`CkptCodecError`] — never
//! a panic (the checked `payload_offset + payload_len` and
//! `value_offset * 4` paths in `format.rs` exist because these tests
//! wrap them otherwise) and never an OOM-sized allocation (the region
//! count is capped before the table is reserved, and the payload is
//! never copied during decode).
//!
//! The mutations are driven by a deterministic xorshift generator so
//! failures replay exactly under `cargo test`.

use reprocmp_veloc::format::{FORMAT_VERSION, MAGIC};
use reprocmp_veloc::{
    decode_checkpoint, encode_checkpoint, read_region, CheckpointFile, CkptCodecError, Region,
};

fn sample_bytes() -> Vec<u8> {
    let x: Vec<f32> = (0..100).map(|i| (i as f32 * 0.37).sin()).collect();
    let vx: Vec<f32> = (0..50).map(|i| -(i as f32) * 0.5).collect();
    encode_checkpoint(42, &[("x", &x), ("vx", &vx)])
}

/// Deterministic 64-bit xorshift; good enough to scatter mutations.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// Decoding must return `Ok` or a typed error; when it succeeds, every
/// region the header declares must also read back (or fail typed).
/// Reaching the end of this function without unwinding is the
/// assertion.
fn decode_must_not_panic(bytes: &[u8], what: &str) {
    match decode_checkpoint(bytes) {
        Ok(file) => {
            for region in &file.regions {
                let name = region.name.clone();
                let _ = read_region(bytes, &file, &name);
            }
        }
        Err(
            CkptCodecError::Truncated
            | CkptCodecError::BadMagic
            | CkptCodecError::BadVersion(_)
            | CkptCodecError::Corrupt(_),
        ) => {}
    }
    let _ = what;
}

#[test]
fn every_truncation_point_yields_typed_error() {
    let bytes = sample_bytes();
    for cut in 0..bytes.len() {
        let res = decode_checkpoint(&bytes[..cut]);
        assert_eq!(
            res,
            Err(CkptCodecError::Truncated),
            "cut at {cut} gave {res:?}"
        );
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let bytes = sample_bytes();
    let f = decode_checkpoint(&bytes).unwrap();
    let header_len = f.payload_offset as usize;
    // Every header + region-table bit, plus a scatter of payload bits.
    for byte in 0..header_len {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1 << bit;
            decode_must_not_panic(&mutated, "header bit flip");
        }
    }
    let mut rng = XorShift(0x5eed_1bad_c0de_0002);
    for _ in 0..2048 {
        let mut mutated = bytes.clone();
        let byte = (rng.next() as usize) % mutated.len();
        let bit = (rng.next() as usize) % 8;
        mutated[byte] ^= 1 << bit;
        decode_must_not_panic(&mutated, "body bit flip");
    }
}

#[test]
fn random_byte_scribbles_never_panic() {
    let bytes = sample_bytes();
    let mut rng = XorShift(0xfeed_face_dead_beef);
    for _ in 0..1024 {
        let mut mutated = bytes.clone();
        let n = 1 + (rng.next() as usize) % 16;
        for _ in 0..n {
            let at = (rng.next() as usize) % mutated.len();
            mutated[at] = rng.next() as u8;
        }
        // Sometimes also truncate.
        if rng.next().is_multiple_of(3) {
            let keep = (rng.next() as usize) % (mutated.len() + 1);
            mutated.truncate(keep);
        }
        decode_must_not_panic(&mutated, "scribble");
    }
}

/// Overwrites the little-endian field at `off`.
fn poke_u64(bytes: &mut [u8], off: usize, value: u64) {
    bytes[off..off + 8].copy_from_slice(&value.to_le_bytes());
}

fn poke_u32(bytes: &mut [u8], off: usize, value: u32) {
    bytes[off..off + 4].copy_from_slice(&value.to_le_bytes());
}

// Header layout: magic(8) version(4) ckpt_ver(8) n_regions(4), then per
// region name_len(2) name count(8).
const NREGIONS_OFF: usize = 8 + 4 + 8;
// First region is "x" (1-byte name): its count field follows.
const COUNT_X_OFF: usize = NREGIONS_OFF + 4 + 2 + 1;

#[test]
fn absurd_region_counts_rejected_without_allocation() {
    let bytes = sample_bytes();
    // Above the hard cap: typed corruption before the table is
    // reserved. Below the cap but far beyond the file: truncation.
    for (n, expect_corrupt) in [
        (1_000_001u32, true),
        (u32::MAX, true),
        (999_999, false),
        (1_000, false),
    ] {
        let mut mutated = bytes.clone();
        poke_u32(&mut mutated, NREGIONS_OFF, n);
        let res = decode_checkpoint(&mutated);
        if expect_corrupt {
            assert_eq!(
                res,
                Err(CkptCodecError::Corrupt("absurd region count")),
                "n_regions={n}"
            );
        } else {
            assert_eq!(res, Err(CkptCodecError::Truncated), "n_regions={n}");
        }
    }
}

#[test]
fn absurd_region_value_counts_rejected_without_overflow() {
    let bytes = sample_bytes();
    // u64::MAX overflows the running value_offset sum; u64::MAX / 4
    // overflows `total * 4`; and a count crafted so that `total * 4`
    // fits but `payload_offset + payload_len` wraps the address space
    // is the classic unchecked-add escape — all must come back typed.
    for count in [
        u64::MAX,
        u64::MAX - 1,
        u64::MAX / 4,
        u64::MAX / 4 - 50,
        1 << 62,
        1 << 40,
    ] {
        let mut mutated = bytes.clone();
        poke_u64(&mut mutated, COUNT_X_OFF, count);
        let res = decode_checkpoint(&mutated);
        assert!(
            matches!(
                res,
                Err(CkptCodecError::Corrupt(_)) | Err(CkptCodecError::Truncated)
            ),
            "count={count} gave {res:?}"
        );
        // Whatever the decoder said, reading back must not panic.
        decode_must_not_panic(&mutated, "poked count");
    }
}

#[test]
fn payload_end_wraparound_is_corrupt_not_accepted() {
    // Regression: total values = u64::MAX / 4 makes payload_len
    // u64::MAX - 3, so the old unchecked `payload_offset + payload_len`
    // wrapped past the file length check and `read_region` later
    // overflowed. The second region holds 50 values, so poking the
    // first to u64::MAX / 4 - 50 lands the total exactly on the edge.
    let mut bytes = sample_bytes();
    poke_u64(&mut bytes, COUNT_X_OFF, u64::MAX / 4 - 50);
    assert_eq!(
        decode_checkpoint(&bytes),
        Err(CkptCodecError::Corrupt("payload size overflow"))
    );
}

#[test]
fn hostile_hand_built_region_table_cannot_panic_read_region() {
    // `read_region` accepts any `CheckpointFile`, not just decoded
    // ones, so its geometry arithmetic must be checked too.
    let bytes = sample_bytes();
    for (value_offset, count) in [
        (u64::MAX, 1u64),
        (u64::MAX / 4, 1),
        (0, u64::MAX),
        (0, u64::MAX / 4),
        (1 << 62, 1 << 62),
        (0, (bytes.len() as u64 / 4) + 1),
    ] {
        let file = CheckpointFile {
            checkpoint_version: 1,
            regions: vec![Region {
                name: "evil".to_owned(),
                value_offset,
                count,
            }],
            payload_offset: 24,
            payload_len: bytes.len() as u64 - 24,
        };
        let res = read_region(&bytes, &file, "evil");
        assert!(
            matches!(
                res,
                Err(CkptCodecError::Corrupt(_)) | Err(CkptCodecError::Truncated)
            ),
            "value_offset={value_offset} count={count} gave {res:?}"
        );
    }
}

#[test]
fn random_garbage_buffers_never_panic() {
    let mut rng = XorShift(0x0dd5_eed5_0f0f_a7a8);
    for _ in 0..512 {
        let len = (rng.next() as usize) % 4096;
        let mut buf = vec![0u8; len];
        for b in buf.iter_mut() {
            *b = rng.next() as u8;
        }
        decode_must_not_panic(&buf, "garbage");
        // Garbage behind a valid magic + version exercises the region
        // table paths instead of bailing at the magic check.
        if buf.len() >= 12 {
            buf[..8].copy_from_slice(MAGIC);
            buf[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
            decode_must_not_panic(&buf, "garbage header");
        }
    }
}
