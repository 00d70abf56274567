//! A frame's length prefix is a claim, not a reservation.
//!
//! `read_frame` once allocated (and zero-filled) whatever length the
//! first four bytes announced, before a single payload byte arrived: an
//! idle peer could pin the 64 MiB frame cap per connection with four
//! bytes. This binary counts the heap under a real `read_frame` call,
//! and under a real `Request::decode` of a 2 MiB ingest frame, which
//! must move its payload rather than copy it — hence its own global
//! allocator, and a single test so no neighbour's allocations land in
//! the count. The same count holds a raw section's length to the same
//! rule: a header that misstates it, or a section where none may be, is
//! a typed error that allocates less than the frame itself.

#[path = "common/alloc.rs"]
mod alloc;

use std::io::Read;

use reprocmp::server::proto::{
    decode_request, decode_response, encode, read_frame, write_frame, Payloads, MAX_FRAME_BYTES,
};
use reprocmp::server::{ProtoError, Request};

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

    // Raw sections. Each frame carries 64 KiB of section bytes, so a
    // decoder that copied them, or trusted the declared length, would
    // grow the heap past the frame; each must be refused with a typed
    // error, never accepted and never a panic.
    let section = vec![0x5au8; 64 << 10];
    let frame = |header: &str| [header.as_bytes(), &[0], &section[..]].concat();
    let ingest = |raw_bytes: u64| {
        format!(
            r#"{{"type":"ingest","name":"big","version":1,"chunk_bytes":4096,"data":"","raw_bytes":{raw_bytes}}}"#
        )
    };
    let len = section.len() as u64;
    let rows: [(&str, Vec<u8>, Payloads); 5] = [
        (
            "a declared section longer than the frame",
            frame(&ingest(u64::from(MAX_FRAME_BYTES) << 8)),
            Payloads::Raw,
        ),
        (
            "a truncated section",
            frame(&ingest(len + 1)),
            Payloads::Raw,
        ),
        (
            "a section in a session that did not negotiate it",
            frame(&ingest(len)),
            Payloads::Hex,
        ),
        (
            "a section on a verb that carries no payload",
            frame(&format!(r#"{{"type":"metrics","raw_bytes":{len}}}"#)),
            Payloads::Raw,
        ),
        (
            "a section its header does not declare",
            frame(r#"{"type":"ingest","name":"big","version":1,"chunk_bytes":4096,"data":""}"#),
            Payloads::Raw,
        ),
    ];
    for (what, frame, payloads) in &rows {
        let (grew, decoded) = alloc::peak_growth(|| {
            decode_request(frame, *payloads)
                .map(|(request, section)| (request, section.map(<[u8]>::len)))
        });
        assert!(
            matches!(decoded, Err(ProtoError::Schema(_) | ProtoError::Json(_))),
            "{what}: decoded as {decoded:?}"
        );
        assert!(
            grew < frame.len(),
            "{what}: a {}-byte frame grew the heap by {grew} bytes",
            frame.len()
        );
    }
    // An answer is held to the same rules: a section rides only on a
    // `status` whose result's `"data"` is empty.
    let status = frame(&format!(
        r#"{{"type":"status","job":1,"state":"done","result":{{"bytes":3}},"raw_bytes":{len}}}"#
    ));
    let (grew, decoded) = alloc::peak_growth(|| {
        decode_response(&status, Payloads::Raw).map(|(response, _)| response)
    });
    assert!(
        matches!(decoded, Err(ProtoError::Schema(_))),
        "a section beside no data: {decoded:?}"
    );
    assert!(grew < status.len(), "grew the heap by {grew} bytes");
}
