//! Property tests of the checkpoint format and client.

use proptest::prelude::*;
use reprocmp_veloc::{decode_checkpoint, encode_checkpoint, read_region};

fn region_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,12}".prop_map(|s| s)
}

proptest! {
    /// Arbitrary region sets round-trip exactly, including empty
    /// regions and empty payloads.
    #[test]
    fn format_round_trips(
        names in proptest::collection::vec(region_name(), 0..6),
        payload_lens in proptest::collection::vec(0usize..200, 0..6),
        version in any::<u64>(),
    ) {
        // Unique names, paired with lengths.
        let mut uniq = names;
        uniq.sort();
        uniq.dedup();
        let regions: Vec<(String, Vec<f32>)> = uniq
            .into_iter()
            .zip(payload_lens)
            .map(|(n, len)| (n, (0..len).map(|i| i as f32 * 0.5 - 7.0).collect()))
            .collect();
        let borrowed: Vec<(&str, &[f32])> =
            regions.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();

        let bytes = encode_checkpoint(version, &borrowed);
        let file = decode_checkpoint(&bytes).unwrap();
        prop_assert_eq!(file.checkpoint_version, version);
        prop_assert_eq!(file.regions.len(), regions.len());
        for (name, values) in &regions {
            let back = read_region(&bytes, &file, name).unwrap();
            prop_assert_eq!(&back, values);
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..1500)) {
        let _ = decode_checkpoint(&bytes);
    }

    /// Truncating a valid file at any point fails cleanly.
    #[test]
    fn truncations_fail_cleanly(
        len in 1usize..200,
        cut_fraction in 0.0f64..1.0,
    ) {
        let values: Vec<f32> = (0..len).map(|i| i as f32).collect();
        let bytes = encode_checkpoint(3, &[("x", &values)]);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_checkpoint(&bytes[..cut]).is_err());
    }

    /// The region table tiles the flat payload in order: each region
    /// starts where the previous one ended.
    #[test]
    fn locate_value_is_consistent(
        lens in proptest::collection::vec(1usize..50, 1..5),
    ) {
        let regions: Vec<(String, Vec<f32>)> = lens
            .iter()
            .enumerate()
            .map(|(i, &len)| (format!("r{i}"), vec![0.0; len]))
            .collect();
        let borrowed: Vec<(&str, &[f32])> =
            regions.iter().map(|(n, v)| (n.as_str(), v.as_slice())).collect();
        let bytes = encode_checkpoint(0, &borrowed);
        let file = decode_checkpoint(&bytes).unwrap();

        let mut flat = 0u64;
        prop_assert_eq!(file.regions.len(), lens.len());
        for (i, (&len, region)) in lens.iter().zip(&file.regions).enumerate() {
            prop_assert_eq!(&region.name, &format!("r{i}"));
            prop_assert_eq!(region.value_offset, flat);
            prop_assert_eq!(region.count, len as u64);
            flat += len as u64;
        }
        prop_assert_eq!(file.payload_len / 4, flat);
    }
}
