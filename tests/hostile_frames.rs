//! A frame's length prefix is a claim, not a reservation.
//!
//! `read_frame` once allocated (and zero-filled) whatever length the
//! first four bytes announced, before a single payload byte arrived: an
//! idle peer could pin the 64 MiB frame cap per connection with four
//! bytes. This binary counts the heap under a real `read_frame` call,
//! and under a real `Request::decode` of a 2 MiB ingest frame, which
//! must move its payload rather than copy it — hence its own global
//! allocator, and a single test so no neighbour's allocations land in
//! the count.

#[path = "common/alloc.rs"]
mod alloc;

use std::io::Read;

use reprocmp::server::proto::{encode, read_frame, write_frame, MAX_FRAME_BYTES};
use reprocmp::server::Request;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Sends `head`, then stalls: every further read times out.
struct Stalls<'a>(&'a [u8]);

impl Read for Stalls<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.0.is_empty() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.0.read(buf)
    }
}

#[test]
fn a_length_prefix_alone_reserves_under_a_mebibyte() {
    let announced = 0x03FF_FFFFu32;
    assert!(
        announced <= MAX_FRAME_BYTES,
        "a length the cap lets through"
    );
    let prefix = announced.to_le_bytes();

    let (held, err) = alloc::peak_growth(|| read_frame(&mut Stalls(&prefix)));
    let err = err.expect_err("the peer stalled");
    assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    assert!(
        held < 1 << 20,
        "four bytes made read_frame hold {held} bytes"
    );

    // The bound is on what is held ahead of the bytes, not on frames:
    // one as large as a 1 MiB materialize answer still arrives whole.
    let payload = vec![b'7'; (2 << 20) + 90];
    let mut wire = Vec::new();
    write_frame(&mut wire, &payload).unwrap();
    assert_eq!(read_frame(&mut &wire[..]).unwrap().unwrap(), payload);

    // Decoding moves an ingest frame's digits out of the parsed tree
    // into the message: 2 MiB of hex costs one 2 MiB string, never a
    // second copy of it.
    let hex_len = 2 << 20;
    let frame = encode(&Request::Ingest {
        name: "big".to_owned(),
        version: 1,
        chunk_bytes: 4096,
        data: "5a".repeat(hex_len / 2),
    });
    let (grew, decoded) = alloc::peak_growth(|| Request::decode(&frame));
    let decoded = decoded.expect("an ingest frame decodes");
    assert!(
        matches!(&decoded, Request::Ingest { data, .. } if data.len() == hex_len),
        "decoded as another message"
    );
    assert!(
        grew * 10 < hex_len * 11,
        "decoding {hex_len} hex digits grew the heap by {grew} bytes"
    );
}
