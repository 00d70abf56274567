//! Per-region, per-variable attribution — including mixed f32/f64
//! payloads.
//!
//! The core `RegionMap` rolls a flat-f32 report's differences into
//! named variables. Scientific checkpoints are not always flat f32,
//! though: a HACC-style particle record keeps positions in f64 and
//! velocities in f32, and "which variable diverged" must respect each
//! region's own element width and ε-grid. [`TypedRegionMap`] carries
//! the dtype per region and [`TypedRegionMap::attribute`] compares
//! two raw payloads region by region under the matching quantizer —
//! `Quantizer` for f32 spans, `QuantizerF64` for f64 spans — with the
//! same ±1-ulp zero-false-negative guarantee on both paths.

use reprocmp_core::{CoreError, CoreResult};
use reprocmp_hash::{Quantizer, QuantizerF64};
use serde::Serialize;

/// Element type of one region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RegionDType {
    /// 32-bit IEEE-754 floats, 4 bytes per element.
    F32,
    /// 64-bit IEEE-754 floats, 8 bytes per element.
    F64,
}

impl RegionDType {
    /// Bytes per element.
    #[must_use]
    fn width(self) -> u64 {
        match self {
            RegionDType::F32 => 4,
            RegionDType::F64 => 8,
        }
    }
}

/// One typed region: `count` elements of `dtype` starting at
/// `byte_offset` in the flat payload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct TypedRegionSpan {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub dtype: RegionDType,
    /// First payload byte of the region.
    pub byte_offset: u64,
    /// Elements in the region.
    pub count: u64,
}

/// What one region's element-wise comparison found.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RegionAttribution {
    /// Variable name.
    pub name: String,
    /// Element type.
    pub dtype: RegionDType,
    /// Elements compared.
    pub elements: u64,
    /// Elements whose values differ by more than ε.
    pub diff_count: u64,
    /// Element index (within the region) of the first difference.
    pub first_diff_index: Option<u64>,
    /// Largest |a − b| observed over the region (0 when clean; NaN
    /// disagreements count as diffs but do not enter the maximum).
    pub max_abs_delta: f64,
}

/// A typed layout over a flat byte payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TypedRegionMap {
    spans: Vec<TypedRegionSpan>,
}

impl TypedRegionMap {
    /// Builds a map from `(name, dtype, element_count)` triples laid
    /// out contiguously in order.
    #[must_use]
    pub fn from_regions<'a>(
        regions: impl IntoIterator<Item = (&'a str, RegionDType, u64)>,
    ) -> Self {
        let mut spans = Vec::new();
        let mut byte_offset = 0u64;
        for (name, dtype, count) in regions {
            spans.push(TypedRegionSpan {
                name: name.to_owned(),
                dtype,
                byte_offset,
                count,
            });
            byte_offset += count * dtype.width();
        }
        TypedRegionMap { spans }
    }

    /// Reads named payload regions `(name, byte length)` — a checkpoint
    /// layout's, which carries no dtype — as all-f32. `None` when there
    /// are none, or when one is not 4-byte aligned: attribution would
    /// misread every later region.
    #[must_use]
    pub fn from_f32_regions(regions: &[(String, u64)]) -> Option<Self> {
        if regions.is_empty() || regions.iter().any(|(_, len)| len % 4 != 0) {
            return None;
        }
        Some(Self::from_regions(regions.iter().map(|(name, len)| {
            (name.as_str(), RegionDType::F32, len / 4)
        })))
    }

    /// Total payload bytes the map describes.
    #[must_use]
    fn payload_bytes(&self) -> u64 {
        self.spans
            .last()
            .map_or(0, |s| s.byte_offset + s.count * s.dtype.width())
    }

    /// Compares two payloads region by region under the matching
    /// ε-quantizer per dtype. Both payloads must reach the end of the
    /// last span.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a non-positive/non-finite bound;
    /// [`CoreError::Mismatch`] when either payload is too short.
    pub fn attribute(
        &self,
        a: &[u8],
        b: &[u8],
        error_bound: f64,
    ) -> CoreResult<Vec<RegionAttribution>> {
        let need = self.payload_bytes() as usize;
        if a.len() < need || b.len() < need {
            return Err(CoreError::Mismatch(format!(
                "typed region map covers {need} bytes; payloads hold {} and {}",
                a.len(),
                b.len()
            )));
        }
        let q32 = Quantizer::new(error_bound)
            .map_err(|e| CoreError::Config(format!("bad error bound: {e}")))?;
        let q64 = QuantizerF64::new(error_bound)
            .map_err(|e| CoreError::Config(format!("bad error bound: {e}")))?;

        let mut out = Vec::with_capacity(self.spans.len());
        for span in &self.spans {
            let width = span.dtype.width() as usize;
            let start = span.byte_offset as usize;
            let end = start + span.count as usize * width;
            let (ra, rb) = (&a[start..end], &b[start..end]);
            let mut attribution = RegionAttribution {
                name: span.name.clone(),
                dtype: span.dtype,
                elements: span.count,
                diff_count: 0,
                first_diff_index: None,
                max_abs_delta: 0.0,
            };
            for (i, (ea, eb)) in ra
                .chunks_exact(width)
                .zip(rb.chunks_exact(width))
                .enumerate()
            {
                let (differs, delta) = match span.dtype {
                    RegionDType::F32 => {
                        let va = f32::from_le_bytes(ea.try_into().expect("4 bytes"));
                        let vb = f32::from_le_bytes(eb.try_into().expect("4 bytes"));
                        (q32.differs(va, vb), f64::from((va - vb).abs()))
                    }
                    RegionDType::F64 => {
                        let va = f64::from_le_bytes(ea.try_into().expect("8 bytes"));
                        let vb = f64::from_le_bytes(eb.try_into().expect("8 bytes"));
                        (q64.differs(va, vb), (va - vb).abs())
                    }
                };
                if differs {
                    attribution.diff_count += 1;
                    attribution.first_diff_index.get_or_insert(i as u64);
                    if delta.is_finite() && delta > attribution.max_abs_delta {
                        attribution.max_abs_delta = delta;
                    }
                }
            }
            out.push(attribution);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(spec: &[(RegionDType, &[f64])]) -> Vec<u8> {
        let mut out = Vec::new();
        for (dtype, values) in spec {
            for &v in *values {
                match dtype {
                    RegionDType::F32 => out.extend_from_slice(&(v as f32).to_le_bytes()),
                    RegionDType::F64 => out.extend_from_slice(&v.to_le_bytes()),
                }
            }
        }
        out
    }

    #[test]
    fn mixed_payload_attributes_per_region_under_the_right_grid() {
        let map = TypedRegionMap::from_regions([
            ("pos", RegionDType::F64, 4),
            ("vel", RegionDType::F32, 4),
        ]);
        assert_eq!(map.payload_bytes(), 4 * 8 + 4 * 4);

        let base = [
            (RegionDType::F64, &[1.0, 2.0, 3.0, 4.0][..]),
            (RegionDType::F32, &[0.5, 0.6, 0.7, 0.8][..]),
        ];
        let a = payload(&base);
        // pos[2] moves by 5e-9 (far above ε=1e-12, invisible at f32);
        // vel[1] moves by 0.25.
        let other = [
            (RegionDType::F64, &[1.0, 2.0, 3.0 + 5e-9, 4.0][..]),
            (RegionDType::F32, &[0.5, 0.85, 0.7, 0.8][..]),
        ];
        let b = payload(&other);

        let attributions = map.attribute(&a, &b, 1e-12).unwrap();
        assert_eq!(attributions.len(), 2);
        let pos = &attributions[0];
        assert_eq!((pos.name.as_str(), pos.diff_count), ("pos", 1));
        assert_eq!(pos.first_diff_index, Some(2));
        assert!((pos.max_abs_delta - 5e-9).abs() < 1e-15);
        let vel = &attributions[1];
        assert_eq!((vel.name.as_str(), vel.diff_count), ("vel", 1));
        assert_eq!(vel.first_diff_index, Some(1));

        // The f64 drift that the f64 grid catches at ε=1e-12 is
        // *invisible* when the same bytes are read through an f32
        // region — which is exactly why dtype must travel with the
        // span. At f32 precision 3.0 + 5e-9 rounds back to 3.0.
        assert_eq!(3.0f32, (3.0f64 + 5e-9) as f32);
    }

    #[test]
    fn layout_regions_read_as_f32_only_when_aligned() {
        let map =
            TypedRegionMap::from_f32_regions(&[("x".to_owned(), 12), ("e".to_owned(), 0)]).unwrap();
        assert_eq!(map.payload_bytes(), 12);
        assert_eq!(map.spans[1].count, 0, "empty regions keep their place");
        assert!(TypedRegionMap::from_f32_regions(&[("x".to_owned(), 10)]).is_none());
        assert!(TypedRegionMap::from_f32_regions(&[]).is_none());
    }

    #[test]
    fn clean_payloads_attribute_zero_everywhere() {
        let map =
            TypedRegionMap::from_regions([("x", RegionDType::F64, 3), ("y", RegionDType::F32, 5)]);
        let a = payload(&[
            (RegionDType::F64, &[1.0, 2.0, 3.0][..]),
            (RegionDType::F32, &[1.0, 2.0, 3.0, 4.0, 5.0][..]),
        ]);
        let attributions = map.attribute(&a, &a, 1e-6).unwrap();
        assert!(attributions.iter().all(|r| r.diff_count == 0));
        assert!(attributions.iter().all(|r| r.first_diff_index.is_none()));
    }

    #[test]
    fn within_bound_drift_is_not_a_difference() {
        let map = TypedRegionMap::from_regions([("x", RegionDType::F64, 2)]);
        let a = payload(&[(RegionDType::F64, &[1.0, 2.0][..])]);
        let b = payload(&[(RegionDType::F64, &[1.0 + 4e-7, 2.0][..])]);
        let attributions = map.attribute(&a, &b, 1e-6).unwrap();
        assert_eq!(attributions[0].diff_count, 0);
    }

    #[test]
    fn nan_disagreement_counts_without_poisoning_the_max() {
        let map = TypedRegionMap::from_regions([("x", RegionDType::F32, 2)]);
        let a = payload(&[(RegionDType::F32, &[1.0, 1.0][..])]);
        let b = payload(&[(RegionDType::F32, &[f64::NAN, 3.0][..])]);
        let attributions = map.attribute(&a, &b, 1e-6).unwrap();
        assert_eq!(attributions[0].diff_count, 2);
        assert_eq!(attributions[0].first_diff_index, Some(0));
        assert!((attributions[0].max_abs_delta - 2.0).abs() < 1e-12);
    }

    #[test]
    fn short_payloads_are_rejected() {
        let map = TypedRegionMap::from_regions([("x", RegionDType::F64, 2)]);
        let a = payload(&[(RegionDType::F64, &[1.0, 2.0][..])]);
        assert!(matches!(
            map.attribute(&a[..8], &a, 1e-6),
            Err(CoreError::Mismatch(_))
        ));
    }
}
