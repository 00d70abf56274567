//! The on-disk checkpoint format.
//!
//! ```text
//! magic      [8]   b"RCMPCKP1"
//! version    u32   format version (1)
//! ckpt_ver   u64   application checkpoint version (iteration)
//! regions    u32   region count
//! per region:
//!   name_len u16
//!   name     [name_len]  utf-8
//!   count    u64         f32 values in this region
//! payload    [sum(count) * 4]  all regions' f32 data, little-endian,
//!                              concatenated in region-table order
//! ```
//!
//! The payload is deliberately one contiguous block: the comparison
//! engine addresses a checkpoint as "`f32[i]` at byte
//! `payload_offset + 4 i`" without understanding regions, while tools
//! that do care (the CLI's `info`, restart) use the region table.

use reprocmp_store::HEADER_SEGMENT;

/// Format magic.
pub const MAGIC: &[u8; 8] = b"RCMPCKP1";
/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

/// One named region inside a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Region name (e.g. `"x"`, `"vx"`, `"phi"`).
    pub name: String,
    /// Offset of this region's first value *in f32 units* within the
    /// payload.
    pub value_offset: u64,
    /// Number of f32 values.
    pub count: u64,
}

/// A decoded checkpoint file: the region table plus payload geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointFile {
    /// Application-level checkpoint version (the iteration number).
    pub checkpoint_version: u64,
    /// The region table, in file order.
    pub regions: Vec<Region>,
    /// Byte offset of the payload within the file.
    pub payload_offset: u64,
    /// Payload length in bytes.
    pub payload_len: u64,
}

impl CheckpointFile {
    /// Total f32 values across all regions.
    #[must_use]
    pub fn value_count(&self) -> u64 {
        self.payload_len / 4
    }

    /// Looks up a region by name.
    #[must_use]
    pub fn region(&self, name: &str) -> Option<&Region> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// Maps a flat payload value index back to `(region_name, index
    /// within region)` — how the comparison engine labels differences.
    #[must_use]
    pub fn locate_value(&self, value_index: u64) -> Option<(&str, u64)> {
        for r in &self.regions {
            if value_index >= r.value_offset && value_index < r.value_offset + r.count {
                return Some((r.name.as_str(), value_index - r.value_offset));
            }
        }
        None
    }

    /// The capture-store segments of the image this header was decoded
    /// from: the raw header as [`HEADER_SEGMENT`], then one segment per
    /// region, so identical regions across versions and runs dedup.
    /// Concatenated in order they are `image` up to the payload's end.
    ///
    /// # Panics
    ///
    /// If `image` is not the image `self` was decoded from.
    #[must_use]
    pub fn segments<'a>(&'a self, image: &'a [u8]) -> Vec<(&'a str, &'a [u8])> {
        let payload = &image[self.payload_offset as usize..];
        let mut segments = Vec::with_capacity(1 + self.regions.len());
        segments.push((HEADER_SEGMENT, &image[..self.payload_offset as usize]));
        for region in &self.regions {
            let start = (region.value_offset * 4) as usize;
            let len = (region.count * 4) as usize;
            segments.push((region.name.as_str(), &payload[start..start + len]));
        }
        segments
    }
}

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptCodecError {
    /// Not enough bytes for the declared structure.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// A region name was not valid UTF-8 or a size was inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for CkptCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptCodecError::Truncated => write!(f, "checkpoint file truncated"),
            CkptCodecError::BadMagic => write!(f, "not a reprocmp checkpoint (bad magic)"),
            CkptCodecError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CkptCodecError::Corrupt(w) => write!(f, "corrupt checkpoint: {w}"),
        }
    }
}

impl std::error::Error for CkptCodecError {}

/// Serializes regions into a checkpoint file image.
///
/// # Panics
///
/// If a region name exceeds `u16::MAX` bytes.
#[must_use]
pub fn encode_checkpoint(checkpoint_version: u64, regions: &[(&str, &[f32])]) -> Vec<u8> {
    let payload_values: usize = regions.iter().map(|(_, d)| d.len()).sum();
    let names: usize = regions.iter().map(|(n, _)| n.len()).sum();
    let header_guess = 8 + 4 + 8 + 4 + regions.len() * (2 + 8) + names;
    let mut out = Vec::with_capacity(header_guess + payload_values * 4);

    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&checkpoint_version.to_le_bytes());
    out.extend_from_slice(&(regions.len() as u32).to_le_bytes());
    for (name, data) in regions {
        let name_bytes = name.as_bytes();
        assert!(
            name_bytes.len() <= u16::MAX as usize,
            "region name too long"
        );
        out.extend_from_slice(&(name_bytes.len() as u16).to_le_bytes());
        out.extend_from_slice(name_bytes);
        out.extend_from_slice(&(data.len() as u64).to_le_bytes());
    }
    for (_, data) in regions {
        for v in *data {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    out
}

/// Parses the header and region table of a checkpoint image, returning
/// the payload geometry without copying the payload.
///
/// # Errors
///
/// Any [`CkptCodecError`]; input is untrusted.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointFile, CkptCodecError> {
    decode_header(bytes, bytes.len() as u64)
}

/// Parses the header and region table from `prefix`, the first bytes
/// of a checkpoint file that is `file_len` bytes long, so a reader need
/// not load the payload to learn its geometry.
///
/// # Errors
///
/// Any [`CkptCodecError`]; input is untrusted.
/// [`CkptCodecError::Truncated`] when the region table runs past
/// `prefix` or the payload past `file_len`: a caller holding only part
/// of the file reads more and tries again.
pub fn decode_header(prefix: &[u8], file_len: u64) -> Result<CheckpointFile, CkptCodecError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], CkptCodecError> {
        if *pos + n > prefix.len() {
            return Err(CkptCodecError::Truncated);
        }
        let s = &prefix[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };

    if take(&mut pos, 8)? != MAGIC {
        return Err(CkptCodecError::BadMagic);
    }
    let version = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(CkptCodecError::BadVersion(version));
    }
    let ckpt_ver = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    let n_regions = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    if n_regions > 1_000_000 {
        return Err(CkptCodecError::Corrupt("absurd region count"));
    }

    // The count is the file's claim; the bytes left bound what it can
    // hold, since the smallest table entry is 10 bytes (empty name).
    let mut regions = Vec::with_capacity(n_regions.min((prefix.len() - pos) / 10));
    let mut value_offset = 0u64;
    for _ in 0..n_regions {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().expect("2 bytes")) as usize;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| CkptCodecError::Corrupt("region name not utf-8"))?
            .to_owned();
        let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
        regions.push(Region {
            name,
            value_offset,
            count,
        });
        value_offset = value_offset
            .checked_add(count)
            .ok_or(CkptCodecError::Corrupt("payload size overflow"))?;
    }

    let payload_offset = pos as u64;
    let payload_len = value_offset
        .checked_mul(4)
        .ok_or(CkptCodecError::Corrupt("payload size overflow"))?;
    let payload_end = payload_offset
        .checked_add(payload_len)
        .ok_or(CkptCodecError::Corrupt("payload size overflow"))?;
    if payload_end > file_len {
        return Err(CkptCodecError::Truncated);
    }

    Ok(CheckpointFile {
        checkpoint_version: ckpt_ver,
        regions,
        payload_offset,
        payload_len,
    })
}

/// Decodes one region's values out of a full checkpoint image.
///
/// # Errors
///
/// [`CkptCodecError::Corrupt`] if the region is missing.
pub fn read_region(
    bytes: &[u8],
    file: &CheckpointFile,
    name: &str,
) -> Result<Vec<f32>, CkptCodecError> {
    let region = file
        .region(name)
        .ok_or(CkptCodecError::Corrupt("no such region"))?;
    // `file` need not come from `decode_checkpoint`, so the geometry is
    // untrusted: all arithmetic is checked.
    let start = region
        .value_offset
        .checked_mul(4)
        .and_then(|off| off.checked_add(file.payload_offset))
        .ok_or(CkptCodecError::Corrupt("payload size overflow"))?;
    let end = region
        .count
        .checked_mul(4)
        .and_then(|len| len.checked_add(start))
        .ok_or(CkptCodecError::Corrupt("payload size overflow"))?;
    if end > bytes.len() as u64 {
        return Err(CkptCodecError::Truncated);
    }
    let (start, end) = (start as usize, end as usize);
    Ok(bytes[start..end]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let x: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let v: Vec<f32> = (0..50).map(|i| -(i as f32)).collect();
        encode_checkpoint(42, &[("x", &x), ("vx", &v)])
    }

    #[test]
    fn round_trip_header() {
        let bytes = sample();
        let f = decode_checkpoint(&bytes).unwrap();
        assert_eq!(f.checkpoint_version, 42);
        assert_eq!(f.regions.len(), 2);
        assert_eq!(f.regions[0].name, "x");
        assert_eq!(f.regions[0].count, 100);
        assert_eq!(f.regions[1].value_offset, 100);
        assert_eq!(f.payload_len, 150 * 4);
        assert_eq!(f.value_count(), 150);
    }

    #[test]
    fn read_region_round_trips_values() {
        let bytes = sample();
        let f = decode_checkpoint(&bytes).unwrap();
        let vx = read_region(&bytes, &f, "vx").unwrap();
        assert_eq!(vx.len(), 50);
        assert_eq!(vx[3], -3.0);
        assert!(read_region(&bytes, &f, "nope").is_err());
    }

    #[test]
    fn locate_value_maps_flat_index_to_region() {
        let bytes = sample();
        let f = decode_checkpoint(&bytes).unwrap();
        assert_eq!(f.locate_value(0), Some(("x", 0)));
        assert_eq!(f.locate_value(99), Some(("x", 99)));
        assert_eq!(f.locate_value(100), Some(("vx", 0)));
        assert_eq!(f.locate_value(149), Some(("vx", 49)));
        assert_eq!(f.locate_value(150), None);
    }

    #[test]
    fn payload_is_contiguous() {
        let bytes = sample();
        let f = decode_checkpoint(&bytes).unwrap();
        // First payload value is x[0] = 0.0, at payload_offset.
        let start = f.payload_offset as usize;
        let first = f32::from_le_bytes(bytes[start..start + 4].try_into().unwrap());
        assert_eq!(first, 0.0);
        let second = f32::from_le_bytes(bytes[start + 4..start + 8].try_into().unwrap());
        assert_eq!(second, 0.5);
    }

    #[test]
    fn segments_are_the_header_then_each_region_and_tile_the_image() {
        let bytes = encode_checkpoint(3, &[("x", &[1.0, 2.0]), ("e", &[]), ("vx", &[3.0])]);
        let f = decode_checkpoint(&bytes).unwrap();
        let segments = f.segments(&bytes);
        let names: Vec<&str> = segments.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, [HEADER_SEGMENT, "x", "e", "vx"]);
        assert_eq!(segments[0].1.len() as u64, f.payload_offset);
        assert_eq!(segments[3].1, &3.0f32.to_le_bytes());
        let joined: Vec<u8> = segments
            .iter()
            .flat_map(|(_, s)| s.iter().copied())
            .collect();
        assert_eq!(joined, bytes);
    }

    #[test]
    fn bad_magic_and_version() {
        let mut bytes = sample();
        bytes[3] = 0;
        assert_eq!(decode_checkpoint(&bytes), Err(CkptCodecError::BadMagic));
        let mut bytes = sample();
        bytes[8] = 77;
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CkptCodecError::BadVersion(77))
        ));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = sample();
        for cut in [0, 7, 12, 25, bytes.len() - 1] {
            assert_eq!(
                decode_checkpoint(&bytes[..cut]),
                Err(CkptCodecError::Truncated),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn header_decodes_from_a_prefix_and_the_file_length() {
        let bytes = sample();
        let whole = decode_checkpoint(&bytes).unwrap();
        let header_end = whole.payload_offset as usize;
        let len = bytes.len() as u64;
        assert_eq!(decode_header(&bytes[..header_end], len), Ok(whole));
        assert_eq!(
            decode_header(&bytes[..header_end - 1], len),
            Err(CkptCodecError::Truncated),
            "the region table runs past the prefix"
        );
        assert_eq!(
            decode_header(&bytes[..header_end], len - 1),
            Err(CkptCodecError::Truncated),
            "the payload runs past the file"
        );
    }

    #[test]
    fn empty_region_list_is_valid() {
        let bytes = encode_checkpoint(7, &[]);
        let f = decode_checkpoint(&bytes).unwrap();
        assert_eq!(f.regions.len(), 0);
        assert_eq!(f.payload_len, 0);
    }

    #[test]
    fn empty_region_is_valid() {
        let bytes = encode_checkpoint(1, &[("empty", &[]), ("one", &[5.0])]);
        let f = decode_checkpoint(&bytes).unwrap();
        assert_eq!(f.region("empty").unwrap().count, 0);
        let one = read_region(&bytes, &f, "one").unwrap();
        assert_eq!(one, vec![5.0]);
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut bytes = encode_checkpoint(1, &[("abc", &[1.0])]);
        // Name starts after magic(8)+ver(4)+ckptver(8)+nregions(4)+namelen(2)
        bytes[26] = 0xff;
        bytes[27] = 0xfe;
        assert!(matches!(
            decode_checkpoint(&bytes),
            Err(CkptCodecError::Corrupt(_))
        ));
    }
}
