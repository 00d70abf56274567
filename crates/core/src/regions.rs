//! Mapping flat payload indices back to named application data.
//!
//! The paper's problem statement asks the runtime to "list all
//! intermediate data (and the corresponding indices if the data are
//! multi-dimensional) that are different between two runs" — i.e.
//! `vx[1702]`, not `payload value #9894`. A [`RegionMap`] carries the
//! layout (the same information as a checkpoint file's region table)
//! and [`RegionMap::annotate`] translates a report's differences.

use serde::Serialize;

use crate::report::Difference;

/// One named region's position in the flat payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RegionSpan {
    /// Region (field/variable) name.
    pub name: String,
    /// First value index of the region in the flat payload.
    pub offset: u64,
    /// Values in the region.
    pub count: u64,
}

/// A difference located within a named region.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LocatedDifference {
    /// The region name, or `None` if the index fell outside the map.
    pub region: Option<String>,
    /// Index within the region (or the flat index when unmapped).
    pub index: u64,
    /// The underlying difference.
    pub difference: Difference,
}

impl std::fmt::Display for LocatedDifference {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.region {
            Some(name) => write!(
                f,
                "{name}[{}]: {} vs {}",
                self.index, self.difference.a, self.difference.b
            ),
            None => write!(
                f,
                "[{}]: {} vs {}",
                self.index, self.difference.a, self.difference.b
            ),
        }
    }
}

/// The flat-payload layout of named regions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct RegionMap {
    /// The spans, in payload order.
    pub spans: Vec<RegionSpan>,
}

impl RegionMap {
    /// Builds a map from `(name, byte_len)` segments using the store's
    /// payload semantics: segments named `header_name` are dropped
    /// only while **leading** (the payload starts after them — the
    /// `skip_while` rule of `ObjectLayout::from_manifest`); every
    /// later segment occupies payload bytes, headers included.
    ///
    /// Offsets accumulate in **bytes**, then convert to value indices:
    /// a value belongs to the segment holding its first byte, so
    /// segments whose byte length is not a multiple of the value size
    /// still tile the index space exactly — no span shifts, no gaps.
    /// (Per-segment `len / 4` truncation shifts every span
    /// after the first unaligned or interior-header segment, which is
    /// exactly the boundary misattribution this constructor fixes.)
    #[must_use]
    pub fn from_segment_bytes<'a>(
        segments: impl IntoIterator<Item = (&'a str, u64)>,
        header_name: &str,
    ) -> Self {
        let mut spans = Vec::new();
        let mut byte_offset = 0u64;
        let mut leading = true;
        for (name, byte_len) in segments {
            if leading && name == header_name {
                continue;
            }
            leading = false;
            let first = byte_offset.div_ceil(4);
            let end = (byte_offset + byte_len).div_ceil(4);
            if end > first {
                spans.push(RegionSpan {
                    name: name.to_owned(),
                    offset: first,
                    count: end - first,
                });
            }
            byte_offset += byte_len;
        }
        RegionMap { spans }
    }

    /// Locates a flat value index: `(region_name, index_within)`.
    #[must_use]
    fn locate(&self, flat_index: u64) -> Option<(&str, u64)> {
        self.spans
            .iter()
            .find(|s| flat_index >= s.offset && flat_index < s.offset + s.count)
            .map(|s| (s.name.as_str(), flat_index - s.offset))
    }

    /// Annotates a report's differences with region names.
    #[must_use]
    pub fn annotate(&self, differences: &[Difference]) -> Vec<LocatedDifference> {
        differences
            .iter()
            .map(|&difference| match self.locate(difference.index) {
                Some((name, index)) => LocatedDifference {
                    region: Some(name.to_owned()),
                    index,
                    difference,
                },
                None => LocatedDifference {
                    region: None,
                    index: difference.index,
                    difference,
                },
            })
            .collect()
    }

    /// Differences counted per region (regions with no differences are
    /// included with zero), answering "which variables were affected".
    #[must_use]
    pub fn diffs_per_region(&self, differences: &[Difference]) -> Vec<(String, u64)> {
        let mut counts: Vec<(String, u64)> =
            self.spans.iter().map(|s| (s.name.clone(), 0)).collect();
        for d in differences {
            if let Some(pos) = self
                .spans
                .iter()
                .position(|s| d.index >= s.offset && d.index < s.offset + s.count)
            {
                counts[pos].1 += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;
    use crate::engine::{CompareEngine, EngineConfig};
    use crate::source::CheckpointSource;

    fn table1_map(n: u64) -> RegionMap {
        RegionMap::from_segment_bytes(
            ["x", "y", "z", "vx", "vy", "vz", "phi"]
                .into_iter()
                .map(|f| (f, 4 * n)),
            "",
        )
    }

    #[test]
    fn locate_maps_flat_indices() {
        let map = table1_map(100);
        assert_eq!(map.spans.iter().map(|s| s.count).sum::<u64>(), 700);
        assert_eq!(map.locate(0), Some(("x", 0)));
        assert_eq!(map.locate(99), Some(("x", 99)));
        assert_eq!(map.locate(100), Some(("y", 0)));
        assert_eq!(map.locate(650), Some(("phi", 50)));
        assert_eq!(map.locate(700), None);
    }

    #[test]
    fn annotated_engine_report_names_the_fields() {
        let map = table1_map(100);
        let e = CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        });
        let run1: Vec<f32> = (0..700).map(|i| i as f32 * 0.01).collect();
        let mut run2 = run1.clone();
        run2[350] += 1.0; // vx[50]
        run2[699] += 1.0; // phi[99]
        let a = CheckpointSource::in_memory(&run1, &e).unwrap();
        let b = CheckpointSource::in_memory(&run2, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();

        let located = map.annotate(&report.differences);
        assert_eq!(located.len(), 2);
        assert_eq!(located[0].region.as_deref(), Some("vx"));
        assert_eq!(located[0].index, 50);
        assert_eq!(located[1].region.as_deref(), Some("phi"));
        assert_eq!(located[1].index, 99);
        assert!(located[0].to_string().starts_with("vx[50]:"));

        let per_region = map.diffs_per_region(&report.differences);
        assert_eq!(per_region[3], ("vx".to_owned(), 1));
        assert_eq!(per_region[6], ("phi".to_owned(), 1));
        assert_eq!(per_region[0], ("x".to_owned(), 0));
    }

    #[test]
    fn out_of_map_indices_fall_back_to_flat() {
        let map = table1_map(10);
        let diff = Difference {
            index: 9_999,
            a: 1.0,
            b: 2.0,
        };
        let located = map.annotate(&[diff]);
        assert_eq!(located[0].region, None);
        assert_eq!(located[0].index, 9_999);
        assert!(located[0].to_string().starts_with("[9999]:"));
    }

    #[test]
    fn empty_map_is_harmless() {
        let map = RegionMap::default();
        assert!(map.spans.is_empty());
        assert!(map.locate(0).is_none());
        assert!(map.diffs_per_region(&[]).is_empty());
    }
}
