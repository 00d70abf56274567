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

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Read;
use std::sync::atomic::{AtomicUsize, Ordering};

use reprocmp::server::proto::{encode, read_frame, write_frame, MAX_FRAME_BYTES};
use reprocmp::server::Request;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters touch no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

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

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let err = read_frame(&mut Stalls(&prefix)).expect_err("the peer stalled");
    let held = PEAK.load(Ordering::Relaxed) - before;
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
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let decoded = Request::decode(&frame).expect("an ingest frame decodes");
    let grew = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        matches!(&decoded, Request::Ingest { data, .. } if data.len() == hex_len),
        "decoded as another message"
    );
    assert!(
        grew * 10 < hex_len * 11,
        "decoding {hex_len} hex digits grew the heap by {grew} bytes"
    );
}
