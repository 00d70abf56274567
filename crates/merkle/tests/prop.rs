//! Property tests of the Merkle tree and its codec.

use proptest::prelude::*;
use reprocmp_device::Device;
use reprocmp_hash::{ChunkHasher, Quantizer};
use reprocmp_merkle::{compare_trees, decode_tree, encode_tree, MerkleTree};

fn hasher() -> ChunkHasher {
    ChunkHasher::new(Quantizer::new(1e-5).unwrap())
}

proptest! {
    /// Serial, threaded, and sim-GPU builds are bit-identical.
    #[test]
    fn devices_agree_on_the_tree(
        values in proptest::collection::vec(-1e3f32..1e3, 1..800),
        chunk_pow in 2u32..8,
    ) {
        let chunk = 1usize << chunk_pow;
        let h = hasher();
        let serial = MerkleTree::build_from_f32(&values, chunk, &h, &Device::host_serial());
        let threads = MerkleTree::build_from_f32(&values, chunk, &h, &Device::host_parallel(7));
        let gpu = MerkleTree::build_from_f32(&values, chunk, &h, &Device::sim_gpu());
        prop_assert_eq!(&serial, &threads);
        prop_assert_eq!(&serial, &gpu);
    }

    /// Geometry invariants: node count, levels, and level ranges tile
    /// the flat array exactly.
    #[test]
    fn level_ranges_partition_the_nodes(
        values in proptest::collection::vec(-1e3f32..1e3, 1..600),
        chunk_pow in 2u32..7,
    ) {
        let t = MerkleTree::build_from_f32(&values, 1usize << chunk_pow, &hasher(), &Device::host_serial());
        let mut covered = 0usize;
        for level in 0..t.levels() {
            let range = t.level_range(level);
            prop_assert_eq!(range.start, covered);
            covered = range.end;
        }
        prop_assert_eq!(covered, t.node_count());
        // A full binary tree over the leaves padded to a power of two.
        prop_assert_eq!(t.node_count(), 2 * t.leaf_count().next_power_of_two() - 1);
    }

    /// Codec round trip for arbitrary payloads.
    #[test]
    fn codec_round_trip(
        values in proptest::collection::vec(-1e3f32..1e3, 1..500),
        chunk_pow in 2u32..7,
    ) {
        let t = MerkleTree::build_from_f32(&values, 1usize << chunk_pow, &hasher(), &Device::host_serial());
        prop_assert_eq!(decode_tree(&encode_tree(&t)).unwrap(), t);
    }

    /// Decoding arbitrary bytes never panics — it returns Ok or Err.
    #[test]
    fn decode_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..2000),
    ) {
        let _ = decode_tree(&bytes);
    }

    /// Decoding truncations of valid metadata never panics and never
    /// yields a different-but-valid tree.
    #[test]
    fn truncations_fail_cleanly(
        values in proptest::collection::vec(-1e3f32..1e3, 1..300),
        cut_fraction in 0.0f64..1.0,
    ) {
        let t = MerkleTree::build_from_f32(&values, 32, &hasher(), &Device::host_serial());
        let bytes = encode_tree(&t);
        let cut = ((bytes.len() as f64) * cut_fraction) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(decode_tree(&bytes[..cut]).is_err());
    }

    /// Comparing a tree against itself prunes everything at the start
    /// level and finds nothing, for any lane hint.
    #[test]
    fn self_comparison_is_empty(
        values in proptest::collection::vec(-1e3f32..1e3, 1..500),
        lanes in 1usize..10_000,
    ) {
        let t = MerkleTree::build_from_f32(&values, 64, &hasher(), &Device::host_serial());
        let out = compare_trees(&t, &t, &Device::host_serial(), lanes).unwrap();
        prop_assert!(out.identical());
        prop_assert_eq!(out.levels_descended, 1);
    }

    /// The mismatch set exactly covers the perturbed chunks.
    #[test]
    fn mismatch_set_is_exact(
        values in proptest::collection::vec(-1e3f32..1e3, 64..600),
        victims in proptest::collection::btree_set(0usize..600, 0..8),
    ) {
        let chunk = 32; // 8 values per chunk
        let h = hasher();
        let dev = Device::host_serial();
        let ta = MerkleTree::build_from_f32(&values, chunk, &h, &dev);
        let mut other = values.clone();
        let mut expected: Vec<usize> = Vec::new();
        for &v in &victims {
            if v < other.len() {
                other[v] += 1.0;
                expected.push(v / 8);
            }
        }
        expected.sort_unstable();
        expected.dedup();
        let tb = MerkleTree::build_from_f32(&other, chunk, &h, &dev);
        let out = compare_trees(&ta, &tb, &dev, 16).unwrap();
        prop_assert_eq!(out.mismatched_leaves, expected);
    }
}
