//! Region-attribution boundary tests.
//!
//! The store's payload is "every segment after the leading headers",
//! headers included when they appear mid-list, byte lengths not
//! necessarily value-aligned. A region map built with `len / 4`
//! truncation over a filtered segment list shifts every span after
//! the first interior header or unaligned segment, so a difference
//! sitting at a region boundary inside one chunk gets charged to the
//! wrong variable. `RegionMap::from_segment_bytes` accumulates byte
//! offsets under the store's exact semantics; these tests pin the
//! boundary behaviour and prove — by proptest — that every annotated
//! difference lands inside its named span at the right index.

use proptest::prelude::*;
use reprocmp_core::{
    CheckpointSource, CompareEngine, Ctx, Difference, EngineConfig, RegionMap, RegionSpan,
};

const HEADER: &str = "__header";

fn engine(chunk_bytes: usize) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes,
        error_bound: 1e-5,
        ..EngineConfig::default()
    })
}

// ---------------------------------------------------------------------
// Exact boundary cases
// ---------------------------------------------------------------------

/// Differences at the last value of one region and the first value of
/// the next — both inside the *same* 64-byte chunk — attribute to
/// their own regions, not their neighbour's.
#[test]
fn boundary_straddling_chunk_attributes_exactly() {
    let map =
        RegionMap::from_segment_bytes([(HEADER, 40u64), ("a", 24 * 4), ("b", 24 * 4)], HEADER);
    let e = engine(64); // 16 values/chunk: the a|b boundary is mid-chunk 1
    let run1: Vec<f32> = (0..48).map(|i| i as f32).collect();
    let mut run2 = run1.clone();
    run2[23] += 1.0; // a[23], last value of `a`
    run2[24] += 1.0; // b[0], first value of `b`, same chunk
    let a = CheckpointSource::in_memory(&run1, &e).unwrap();
    let b = CheckpointSource::in_memory(&run2, &e).unwrap();
    let report = e.compare(&a, &b, &Ctx::default()).unwrap();

    let located = map.annotate(&report.differences);
    assert_eq!(located.len(), 2);
    assert_eq!(
        (located[0].region.as_deref(), located[0].index),
        (Some("a"), 23)
    );
    assert_eq!(
        (located[1].region.as_deref(), located[1].index),
        (Some("b"), 0)
    );
    let per_region = map.diffs_per_region(&report.differences);
    assert_eq!(per_region, vec![("a".to_owned(), 1), ("b".to_owned(), 1)]);
}

/// The exact trap `from_lengths` + filtering falls into: an interior
/// header segment and a non-4-aligned segment both occupy payload
/// bytes, so dropping or truncating them shifts all later spans.
#[test]
fn interior_headers_and_unaligned_segments_do_not_shift_spans() {
    // Payload bytes: x(10) __header(6) y(12) → 28 bytes, 7 values.
    // Value 0,1 start in x (bytes 0,4); value 2 starts at byte 8 (x);
    // value 3 starts at byte 12 (header); values 4..7 start in y.
    let map =
        RegionMap::from_segment_bytes([(HEADER, 12u64), ("x", 10), (HEADER, 6), ("y", 12)], HEADER);
    assert_eq!(
        map.spans(),
        &[
            RegionSpan {
                name: "x".to_owned(),
                offset: 0,
                count: 3
            },
            RegionSpan {
                name: HEADER.to_owned(),
                offset: 3,
                count: 1
            },
            RegionSpan {
                name: "y".to_owned(),
                offset: 4,
                count: 3
            },
        ]
    );
    // The broken construction (filter headers everywhere + len/4)
    // would place y at offset 2 — two values early.
    let broken = RegionMap::from_lengths([("x", 10 / 4), ("y", 12 / 4)]);
    assert_eq!(broken.locate(4), Some(("y", 2)));
    assert_eq!(map.locate(4), Some(("y", 0)));
}

/// Leading headers are skipped entirely (the payload starts after
/// them), matching `ObjectLayout::from_manifest`'s `skip_while`.
#[test]
fn leading_headers_are_skipped_interior_ones_are_not() {
    let map = RegionMap::from_segment_bytes([(HEADER, 100u64), (HEADER, 28), ("only", 16)], HEADER);
    assert_eq!(
        map.spans(),
        &[RegionSpan {
            name: "only".to_owned(),
            offset: 0,
            count: 4
        }]
    );
    assert_eq!(map.value_count(), 4);
}

// ---------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------

/// A generated segment list: interleaves leading headers, named
/// regions with arbitrary (possibly unaligned, possibly empty) byte
/// lengths, and interior headers.
fn segment_list() -> impl Strategy<Value = Vec<(String, u64)>> {
    proptest::collection::vec((0u8..8, 0usize..6, 0u64..200), 1..10).prop_map(|raw| {
        raw.into_iter()
            .map(|(kind, i, len)| {
                if kind < 2 {
                    (HEADER.to_owned(), len % 64) // ~1 in 4 segments is a header
                } else {
                    (format!("r{i}"), len)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Spans tile the payload value space exactly: contiguous from
    /// zero, no gaps, no overlaps, and each flat index locates into
    /// the span that covers it.
    #[test]
    fn spans_tile_the_payload_exactly(segments in segment_list()) {
        let map = RegionMap::from_segment_bytes(
            segments.iter().map(|(n, l)| (n.as_str(), *l)),
            HEADER,
        );
        let mut next = 0u64;
        for span in map.spans() {
            prop_assert!(span.offset == next, "gap or overlap before {}", span.name);
            prop_assert!(span.count > 0, "empty span {} retained", span.name);
            next = span.offset + span.count;
        }
        let payload_bytes: u64 = segments
            .iter()
            .skip_while(|(n, _)| n == HEADER)
            .map(|(_, l)| *l)
            .sum();
        prop_assert_eq!(next, payload_bytes.div_ceil(4));
        prop_assert_eq!(map.value_count(), next);
    }

    /// Every annotated difference lands inside its named span, at an
    /// in-span index that round-trips back to the flat index.
    #[test]
    fn every_annotated_difference_lands_inside_its_named_span(
        segments in segment_list(),
        raw_indices in proptest::collection::vec(0u64..4096, 1..32),
    ) {
        let map = RegionMap::from_segment_bytes(
            segments.iter().map(|(n, l)| (n.as_str(), *l)),
            HEADER,
        );
        let differences: Vec<Difference> = raw_indices
            .iter()
            .map(|&index| Difference { index, a: 0.0, b: 1.0 })
            .collect();
        for located in map.annotate(&differences) {
            match &located.region {
                Some(name) => {
                    let span = map
                        .spans()
                        .iter()
                        .find(|s| &s.name == name && located.index < s.count
                            && s.offset + located.index == located.difference.index)
                        .cloned();
                    prop_assert!(
                        span.is_some(),
                        "{}[{}] does not round-trip to flat index {}",
                        name, located.index, located.difference.index
                    );
                }
                None => prop_assert!(
                    located.difference.index >= map.value_count(),
                    "index {} inside the payload but unattributed",
                    located.difference.index
                ),
            }
        }
        // Per-region counts agree with annotation.
        let per_region = map.diffs_per_region(&differences);
        let total_attributed: u64 = per_region.iter().map(|(_, c)| c).sum();
        let expected = differences
            .iter()
            .filter(|d| d.index < map.value_count())
            .count() as u64;
        prop_assert_eq!(total_attributed, expected);
    }
}
