//! The flattened Merkle tree and its data-parallel construction.

use reprocmp_device::{Device, Workload};
use reprocmp_hash::chunk::LANES;
use reprocmp_hash::{ChunkHasher, Digest128, Floats};
use reprocmp_obs::{PhaseCost, StageBreakdown};
use std::time::{Duration, Instant};

/// Interior levels narrower than this many nodes are combined on the
/// calling thread: below it a thread spawn costs more than the hashing.
const LEVEL_GRAIN: usize = 1024;

/// A complete binary Merkle tree stored as a flat array.
///
/// Leaves are padded up to the next power of two with
/// [`Digest128::ZERO`] sentinels so every interior node has exactly two
/// children; node `i`'s children are `2i+1` and `2i+2`, its parent
/// `(i-1)/2`. Level `l` (root = level 0) spans indices
/// `2^l - 1 .. 2^(l+1) - 1`.
#[derive(Debug, Clone, PartialEq)]
pub struct MerkleTree {
    nodes: Vec<Digest128>,
    leaf_count: usize,
    chunk_bytes: usize,
    data_len: u64,
    error_bound: f64,
}

impl MerkleTree {
    /// Builds a tree from pre-computed leaf digests.
    ///
    /// `chunk_bytes`, `data_len` and `error_bound` are recorded so two
    /// trees can be checked for comparability. Interior levels are each
    /// computed as one parallel kernel on `device`, bottom-up.
    ///
    /// # Panics
    ///
    /// If `leaves` is empty or `chunk_bytes` is zero.
    #[must_use]
    pub fn from_leaves(
        leaves: Vec<Digest128>,
        chunk_bytes: usize,
        data_len: u64,
        error_bound: f64,
        device: &Device,
    ) -> Self {
        assert!(!leaves.is_empty(), "a tree needs at least one leaf");
        assert!(chunk_bytes > 0, "chunk_bytes must be non-zero");
        let leaf_count = leaves.len();
        let padded = leaf_count.next_power_of_two();
        let total = 2 * padded - 1;
        let mut nodes = vec![Digest128::ZERO; total];

        // Install leaves at the bottom level.
        let leaf_base = padded - 1;
        nodes[leaf_base..leaf_base + leaf_count].copy_from_slice(&leaves);

        // Build interior levels bottom-up; one kernel per level, nodes
        // within a level independent.
        let mut level_width = padded / 2;
        while level_width >= 1 {
            let base = level_width - 1;
            let (uppers, lowers) = nodes.split_at_mut(base + level_width);
            // Parent `j` of this level has its children at `lowers[2j]`
            // and `lowers[2j + 1]`.
            let parents = &mut uppers[base..];
            let children: &[Digest128] = lowers;
            // Hash bytes: each parent reads 32 bytes, writes 16.
            let w = Workload::new((level_width * 48) as u64, (level_width * 32) as u64);
            let span = level_width.div_ceil(device.lanes()).max(LEVEL_GRAIN);
            device.parallel_chunks_mut(parents, span, w, |piece, out| {
                let kids = children[2 * piece * span..].chunks_exact(2);
                for (parent, pair) in out.iter_mut().zip(kids) {
                    *parent = Digest128::combine(pair[0], pair[1]);
                }
            });
            if level_width == 1 {
                break;
            }
            level_width /= 2;
        }

        MerkleTree {
            nodes,
            leaf_count,
            chunk_bytes,
            data_len,
            error_bound,
        }
    }

    /// [`MerkleTree::build`] over a float slice, without the profile.
    ///
    /// # Panics
    ///
    /// If `data` is empty or `chunk_bytes < 4`.
    #[must_use]
    pub fn build_from_f32(
        data: &[f32],
        chunk_bytes: usize,
        hasher: &ChunkHasher,
        device: &Device,
    ) -> Self {
        Self::build(Floats::Values(data), chunk_bytes, hasher, device).0
    }

    /// The capture kernel: hashes `data` in `chunk_bytes`-sized chunks
    /// (chunk length in floats is `chunk_bytes / 4`) and builds the
    /// tree, returning it with a [`StageBreakdown`] of the three capture
    /// phases (compare-side phases zero). `data` may be a checkpoint
    /// payload's little-endian bytes, hashed where they lie.
    ///
    /// Leaves are quantized and hashed in one fused parallel pass. A
    /// modeled device is charged for that pass as the two kernels of
    /// [`MerkleTree::capture_workloads`], quantize then hash, so each
    /// phase carries its own modeled time; an unmodeled device reports
    /// the pass's wall time as `leaf_hash`, and `quantize` keeps its
    /// bytes and ops with zero time. Interior levels are one kernel
    /// each, timed on the modeled clock or else the wall clock.
    ///
    /// # Panics
    ///
    /// If `data` is empty or `chunk_bytes < 4`.
    #[must_use]
    pub fn build(
        data: Floats<'_>,
        chunk_bytes: usize,
        hasher: &ChunkHasher,
        device: &Device,
    ) -> (Self, StageBreakdown) {
        assert!(!data.is_empty(), "cannot build a tree over no data");
        assert!(chunk_bytes >= 4, "chunk must hold at least one f32");
        let floats_per_chunk = chunk_bytes / 4;
        let n_chunks = data.len().div_ceil(floats_per_chunk);
        let data_bytes = (data.len() * 4) as u64;
        let [w_quantize, w_hash] = Self::capture_workloads(data.len() as u64);

        let mut leaves = vec![Digest128::ZERO; n_chunks];
        let span = worker_span(n_chunks, device);
        let ((), fused) = measured(device, || {
            device.parallel_chunks_mut(&mut leaves, span, w_quantize, |piece, out| {
                let first = piece * span * floats_per_chunk;
                let end = (first + out.len() * floats_per_chunk).min(data.len());
                hasher.hash_leaves_into(data.slice(first..end), floats_per_chunk, out);
            });
        });
        let hashed = device.charge(w_hash);
        let (quantize_time, leaf_hash_time) = if hashed.is_zero() {
            (Duration::ZERO, fused)
        } else {
            (fused, hashed)
        };

        let (tree, level_build_time) = measured(device, || {
            Self::from_leaves(
                leaves,
                chunk_bytes,
                data_bytes,
                hasher.quantizer().bound(),
                device,
            )
        });

        let interior_nodes = (tree.node_count() - tree.leaf_count().next_power_of_two()) as u64;
        let profile = StageBreakdown {
            quantize: PhaseCost::new(quantize_time, data_bytes, data.len() as u64),
            // The kernel hashes one 8-byte ε-grid code per 4-byte value.
            leaf_hash: PhaseCost::new(leaf_hash_time, 2 * data_bytes, n_chunks as u64),
            level_build: PhaseCost::new(
                level_build_time,
                tree.metadata_bytes() as u64,
                interior_nodes,
            ),
            ..StageBreakdown::default()
        };
        (tree, profile)
    }

    /// The leaf kernel's modeled cost over `values` floats, as the two
    /// kernels it is charged as: quantize, one pass at ~10 scalar ops
    /// per byte (cast, scale, floor), then the seed-chained Murmur3F
    /// rounds at ~30 ops per byte. Those rounds are what makes serial
    /// CPU hashing run at a fraction of a GB/s while a GPU hashing
    /// thousands of chunks concurrently stays bandwidth-bound (the
    /// paper's Figure 8 gap).
    #[must_use]
    pub fn capture_workloads(values: u64) -> [Workload; 2] {
        let bytes = values.saturating_mul(4);
        [
            Workload::new(bytes, bytes.saturating_mul(10)),
            Workload::new(bytes, bytes.saturating_mul(30)),
        ]
    }

    /// The root digest — a single value summarizing the checkpoint
    /// within the error bound.
    #[must_use]
    pub fn root(&self) -> Digest128 {
        self.nodes[0]
    }

    /// Number of real (unpadded) leaves, i.e. chunks.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Number of leaf slots after power-of-two padding.
    #[must_use]
    pub fn padded_leaf_count(&self) -> usize {
        self.nodes.len().div_ceil(2)
    }

    /// Total node count in the flat array.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Levels in the tree (a single-leaf tree has one level).
    #[must_use]
    pub fn levels(&self) -> usize {
        self.padded_leaf_count().trailing_zeros() as usize + 1
    }

    /// The digest of node `index` in flat order.
    ///
    /// # Panics
    ///
    /// If `index` is out of range.
    #[must_use]
    pub fn node(&self, index: usize) -> Digest128 {
        self.nodes[index]
    }

    /// The digest of real leaf `i` (chunk `i`).
    ///
    /// # Panics
    ///
    /// If `i >= leaf_count()`.
    #[must_use]
    pub fn leaf(&self, i: usize) -> Digest128 {
        assert!(i < self.leaf_count, "leaf index out of range");
        self.nodes[self.leaf_base() + i]
    }

    /// Flat index of the first leaf slot.
    #[must_use]
    pub fn leaf_base(&self) -> usize {
        self.padded_leaf_count() - 1
    }

    /// Flat index range of level `l` (root is level 0).
    ///
    /// # Panics
    ///
    /// If `l >= levels()`.
    #[must_use]
    pub fn level_range(&self, l: usize) -> std::ops::Range<usize> {
        assert!(l < self.levels(), "level out of range");
        let width = 1usize << l;
        (width - 1)..(2 * width - 1)
    }

    /// The chunk size in bytes the leaves were hashed with.
    #[must_use]
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Original checkpoint payload length in bytes.
    #[must_use]
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// The absolute error bound the leaf digests encode.
    #[must_use]
    pub fn error_bound(&self) -> f64 {
        self.error_bound
    }

    /// Metadata footprint in bytes when serialized (digests only).
    #[must_use]
    pub fn metadata_bytes(&self) -> usize {
        self.nodes.len() * 16
    }

    /// Immutable access to the flat node array.
    #[must_use]
    pub fn nodes(&self) -> &[Digest128] {
        &self.nodes
    }

    /// Reconstructs a tree from its parts; used by deserialization.
    /// Verifies the node-count/leaf-count relationship.
    pub(crate) fn from_parts(
        nodes: Vec<Digest128>,
        leaf_count: usize,
        chunk_bytes: usize,
        data_len: u64,
        error_bound: f64,
    ) -> Option<Self> {
        let padded = leaf_count.checked_next_power_of_two()?;
        let expected = padded.checked_mul(2)?.checked_sub(1)?;
        if leaf_count == 0 || nodes.len() != expected {
            return None;
        }
        Some(MerkleTree {
            nodes,
            leaf_count,
            chunk_bytes,
            data_len,
            error_bound,
        })
    }

    /// Replaces leaf `i`'s digest and recomputes its root path —
    /// `O(log n)` instead of a full rebuild.
    ///
    /// # Panics
    ///
    /// If `i >= leaf_count()`.
    fn update_leaf(&mut self, i: usize, digest: Digest128) {
        assert!(i < self.leaf_count, "leaf index out of range");
        let mut idx = self.leaf_base() + i;
        self.nodes[idx] = digest;
        while idx > 0 {
            idx = (idx - 1) / 2;
            self.nodes[idx] = Digest128::combine(self.nodes[2 * idx + 1], self.nodes[2 * idx + 2]);
        }
    }

    /// Re-hashes the chunks covering `values[dirty]` (value indices)
    /// and updates their leaves and root paths. This is the incremental
    /// capture path: a capture that knows which chunks changed since
    /// the tree was built hashes only those. `values` must be the full
    /// payload this tree describes, floats or little-endian bytes
    /// hashed in place, and `hasher` must match the tree's chunking and
    /// bound.
    ///
    /// # Panics
    ///
    /// If the payload length disagrees with the tree, the hasher's
    /// bound disagrees, or the range is out of bounds.
    pub fn update_region(
        &mut self,
        values: Floats<'_>,
        dirty: std::ops::Range<usize>,
        hasher: &ChunkHasher,
    ) {
        assert_eq!(
            (values.len() * 4) as u64,
            self.data_len,
            "payload length does not match the tree"
        );
        assert_eq!(
            hasher.quantizer().bound(),
            self.error_bound,
            "hasher bound does not match the tree"
        );
        assert!(dirty.end <= values.len(), "dirty range out of bounds");
        if dirty.is_empty() {
            return;
        }
        let values_per_chunk = self.chunk_bytes / 4;
        let first = dirty.start / values_per_chunk;
        let last = (dirty.end - 1) / values_per_chunk;
        let lo = first * values_per_chunk;
        let hi = ((last + 1) * values_per_chunk).min(values.len());
        let mut digests = vec![Digest128::ZERO; last + 1 - first];
        hasher.hash_leaves_into(values.slice(lo..hi), values_per_chunk, &mut digests);
        for (i, digest) in digests.into_iter().enumerate() {
            self.update_leaf(first + i, digest);
        }
    }

    /// True when two trees may be compared node-for-node: same leaf
    /// geometry, chunking, payload size, and error bound.
    #[must_use]
    pub fn comparable(&self, other: &MerkleTree) -> bool {
        self.leaf_count == other.leaf_count
            && self.chunk_bytes == other.chunk_bytes
            && self.data_len == other.data_len
            && self.error_bound == other.error_bound
    }
}

/// Times `f` on the device's modeled clock when it has a timing model
/// (a deterministic sum of kernel charges), falling back to wall time
/// on unmodeled devices.
fn measured<T>(device: &Device, f: impl FnOnce() -> T) -> (T, Duration) {
    let wall = Instant::now();
    let modeled_before = device.modeled_time();
    let out = f();
    let modeled = device.modeled_time().saturating_sub(modeled_before);
    let time = if modeled > Duration::ZERO {
        modeled
    } else {
        wall.elapsed()
    };
    (out, time)
}

/// Leaves per device worker: an even split, rounded up to whole
/// kernel groups so only the last worker runs a partial group.
fn worker_span(n_chunks: usize, device: &Device) -> usize {
    n_chunks.div_ceil(device.lanes()).next_multiple_of(LANES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_hash::Quantizer;

    fn hasher(bound: f64) -> ChunkHasher {
        ChunkHasher::new(Quantizer::new(bound).unwrap())
    }

    fn data(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.37).sin() * 10.0).collect()
    }

    #[test]
    fn profiled_build_is_bit_identical_to_fused_build() {
        let d = data(4096);
        let h = hasher(1e-5);
        let dev = Device::host_serial();
        let fused = MerkleTree::build_from_f32(&d, 128, &h, &dev);
        let bytes: Vec<u8> = d.iter().flat_map(|v| v.to_le_bytes()).collect();
        let (split, profile) = MerkleTree::build(Floats::LeBytes(&bytes), 128, &h, &dev);
        assert_eq!(fused, split);
        // 4096 floats, 128-byte chunks → 128 chunks of 32 floats.
        assert_eq!(profile.quantize.bytes, 4096 * 4);
        assert_eq!(profile.quantize.ops, 4096);
        assert_eq!(profile.leaf_hash.bytes, 4096 * 8, "8-byte codes");
        assert_eq!(profile.leaf_hash.ops, 128);
        assert_eq!(profile.level_build.bytes, split.metadata_bytes() as u64);
        assert_eq!(
            profile.level_build.ops, 127,
            "interior nodes of a 128-leaf tree"
        );
        // Compare-side phases are untouched by capture.
        assert!(profile.bfs.is_zero());
        assert!(profile.stage2_stream.is_zero());
        assert!(profile.verify.is_zero());
    }

    #[test]
    fn profiled_build_times_are_modeled_and_deterministic() {
        let d = data(5000);
        let h = hasher(1e-6);
        let run = || {
            let dev = Device::sim_gpu();
            MerkleTree::build(Floats::Values(&d), 256, &h, &dev).1
        };
        let (p1, p2) = (run(), run());
        assert_eq!(p1, p2, "modeled phase times are exact, not wall-clock");
        assert!(p1.quantize.time > Duration::ZERO);
        assert!(p1.leaf_hash.time > Duration::ZERO);
        assert!(p1.level_build.time > Duration::ZERO);
        assert_eq!(
            p1.capture_time(),
            p1.quantize.time + p1.leaf_hash.time + p1.level_build.time
        );
    }

    #[test]
    fn profiled_build_on_unmodeled_device_reports_wall_time() {
        let d = data(1024);
        let (_, profile) = MerkleTree::build(
            Floats::Values(&d),
            64,
            &hasher(1e-4),
            &Device::host_serial(),
        );
        // No model → the fused pass's wall time is all leaf_hash; its
        // length is positive but nothing else can be asserted portably.
        assert!(profile.leaf_hash.time > Duration::ZERO);
        assert_eq!(profile.quantize.time, Duration::ZERO);
        assert_eq!(profile.quantize.bytes, 1024 * 4);
    }

    #[test]
    fn serial_and_parallel_builds_agree() {
        let d = data(10_000);
        let h = hasher(1e-5);
        let a = MerkleTree::build_from_f32(&d, 256, &h, &Device::host_serial());
        let b = MerkleTree::build_from_f32(&d, 256, &h, &Device::host_parallel(8));
        assert_eq!(a, b);
    }

    #[test]
    fn every_builder_and_device_agree() {
        // 2 500 leaves of 25 values plus a short tail: odd chunks, every
        // worker split, and a leaf-parent level wide enough for threads.
        let d = data(25 * 2500 + 11);
        let h = hasher(1e-5);
        let reference = MerkleTree::build_from_f32(&d, 100, &h, &Device::host_serial());
        for dev in [1, 2, 3, 7]
            .map(Device::host_parallel)
            .into_iter()
            .chain([Device::sim_gpu()])
        {
            assert_eq!(
                MerkleTree::build_from_f32(&d, 100, &h, &dev),
                reference,
                "{}",
                dev.name()
            );
        }
        let mut rewritten =
            MerkleTree::build_from_f32(&vec![0.0; d.len()], 100, &h, &Device::host_serial());
        rewritten.update_region(Floats::Values(&d), 0..d.len(), &h);
        assert_eq!(rewritten, reference, "update_region after a full rewrite");
    }

    #[test]
    fn payload_bytes_build_the_same_tree_at_any_alignment() {
        let d = data(4 * 64 + 5);
        let h = hasher(1e-4);
        let dev = Device::host_parallel(2);
        let expect = MerkleTree::build_from_f32(&d, 64, &h, &dev);
        for offset in 0..4 {
            let mut file = vec![0xffu8; offset];
            file.extend(d.iter().flat_map(|v| v.to_le_bytes()));
            let (tree, _) = MerkleTree::build(Floats::LeBytes(&file[offset..]), 64, &h, &dev);
            assert_eq!(tree, expect, "offset {offset}");
        }
    }

    #[test]
    fn geometry_non_power_of_two_leaves() {
        let d = data(1000); // 1000 floats, 64B chunks = 16 floats -> 63 chunks
        let h = hasher(1e-4);
        let t = MerkleTree::build_from_f32(&d, 64, &h, &Device::host_serial());
        assert_eq!(t.leaf_count(), 63);
        assert_eq!(t.padded_leaf_count(), 64);
        assert_eq!(t.node_count(), 127);
        assert_eq!(t.levels(), 7);
        assert_eq!(t.level_range(0), 0..1);
        assert_eq!(t.level_range(6), 63..127);
    }

    #[test]
    fn single_chunk_tree() {
        let d = data(8);
        let h = hasher(1e-4);
        let t = MerkleTree::build_from_f32(&d, 4096, &h, &Device::host_serial());
        assert_eq!(t.leaf_count(), 1);
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.levels(), 1);
        assert_eq!(t.root(), t.leaf(0));
    }

    #[test]
    fn root_changes_when_any_chunk_changes() {
        let d = data(4096);
        let h = hasher(1e-5);
        let base = MerkleTree::build_from_f32(&d, 128, &h, &Device::host_serial());
        for &victim in &[0usize, 1000, 4095] {
            let mut d2 = d.clone();
            d2[victim] += 1.0;
            let t2 = MerkleTree::build_from_f32(&d2, 128, &h, &Device::host_serial());
            assert_ne!(base.root(), t2.root(), "victim {victim}");
        }
    }

    #[test]
    fn within_bound_noise_keeps_root_with_high_probability() {
        // Noise an order of magnitude under the bound: most values stay
        // in their grid cell; with a coarse bound the roots match.
        let d: Vec<f32> = (0..4096).map(|i| (i / 7) as f32).collect();
        let h = hasher(1e-2);
        let noisy: Vec<f32> = d.iter().map(|&x| x + 1e-4).collect();
        let a = MerkleTree::build_from_f32(&d, 128, &h, &Device::host_serial());
        let b = MerkleTree::build_from_f32(&noisy, 128, &h, &Device::host_serial());
        assert_eq!(a.root(), b.root());
    }

    #[test]
    fn parent_child_relation_holds_everywhere() {
        let d = data(2048);
        let h = hasher(1e-5);
        let t = MerkleTree::build_from_f32(&d, 64, &h, &Device::host_parallel(4));
        for i in 0..t.leaf_base() {
            let expect = Digest128::combine(t.node(2 * i + 1), t.node(2 * i + 2));
            assert_eq!(t.node(i), expect, "node {i}");
        }
    }

    #[test]
    fn leaves_match_direct_chunk_hashing() {
        let d = data(777);
        let h = hasher(1e-6);
        let t = MerkleTree::build_from_f32(&d, 100, &h, &Device::host_serial());
        let leaves = h.hash_leaves(&d, 25); // 100 bytes = 25 floats
        assert_eq!(t.leaf_count(), leaves.len());
        for (i, leaf) in leaves.iter().enumerate() {
            assert_eq!(t.leaf(i), *leaf, "leaf {i}");
        }
    }

    #[test]
    fn metadata_is_small_relative_to_data() {
        // ~7 GB checkpoint with 4 KB chunks gives ~55 MB metadata in the
        // paper; same ratio here at scale-down: 4 MB data, 4 KB chunks.
        let d = data(1 << 20); // 4 MiB of f32
        let h = hasher(1e-5);
        let t = MerkleTree::build_from_f32(&d, 4096, &h, &Device::host_parallel(4));
        let ratio = t.metadata_bytes() as f64 / (d.len() * 4) as f64;
        assert!(ratio < 0.01, "metadata ratio {ratio}");
    }

    #[test]
    fn comparable_checks_all_fields() {
        let d = data(512);
        let t1 = MerkleTree::build_from_f32(&d, 64, &hasher(1e-5), &Device::host_serial());
        let t2 = MerkleTree::build_from_f32(&d, 64, &hasher(1e-5), &Device::host_serial());
        let t3 = MerkleTree::build_from_f32(&d, 128, &hasher(1e-5), &Device::host_serial());
        let t4 = MerkleTree::build_from_f32(&d, 64, &hasher(1e-4), &Device::host_serial());
        assert!(t1.comparable(&t2));
        assert!(!t1.comparable(&t3));
        assert!(!t1.comparable(&t4));
    }

    #[test]
    fn sim_gpu_build_matches_host_and_accrues_modeled_time() {
        let d = data(8192);
        let h = hasher(1e-5);
        let gpu = Device::sim_gpu();
        let t_gpu = MerkleTree::build_from_f32(&d, 256, &h, &gpu);
        let t_host = MerkleTree::build_from_f32(&d, 256, &h, &Device::host_serial());
        assert_eq!(t_gpu, t_host);
        assert!(gpu.modeled_time() > std::time::Duration::ZERO);
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        let mut d = data(5_000);
        let h = hasher(1e-5);
        let dev = Device::host_serial();
        let mut t = MerkleTree::build_from_f32(&d, 128, &h, &dev);

        // Dirty three disjoint regions, as an application would.
        for (lo, hi) in [(0usize, 40usize), (2_000, 2_100), (4_990, 5_000)] {
            for v in &mut d[lo..hi] {
                *v += 3.0;
            }
            t.update_region(Floats::Values(&d), lo..hi, &h);
        }
        let rebuilt = MerkleTree::build_from_f32(&d, 128, &h, &dev);
        assert_eq!(t, rebuilt, "incremental path must equal full rebuild");
    }

    #[test]
    fn update_single_leaf_refreshes_root_path_only() {
        let d = data(2_048);
        let h = hasher(1e-5);
        let dev = Device::host_serial();
        let mut t = MerkleTree::build_from_f32(&d, 64, &h, &dev);
        let before = t.clone();

        let new_digest = h.hash_chunk(&[9.0; 16]);
        t.update_leaf(5, new_digest);
        assert_eq!(t.leaf(5), new_digest);
        assert_ne!(t.root(), before.root());
        // Unrelated leaves untouched.
        assert_eq!(t.leaf(0), before.leaf(0));
        assert_eq!(t.leaf(100), before.leaf(100));
    }

    #[test]
    fn empty_dirty_range_is_a_no_op() {
        let d = data(1_000);
        let h = hasher(1e-5);
        let mut t = MerkleTree::build_from_f32(&d, 64, &h, &Device::host_serial());
        let before = t.clone();
        t.update_region(Floats::Values(&d), 500..500, &h);
        assert_eq!(t, before);
    }

    #[test]
    #[should_panic(expected = "hasher bound")]
    fn update_with_wrong_bound_panics() {
        let d = data(256);
        let mut t = MerkleTree::build_from_f32(&d, 64, &hasher(1e-5), &Device::host_serial());
        t.update_region(Floats::Values(&d), 0..10, &hasher(1e-4));
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_leaves_panics() {
        let _ = MerkleTree::from_leaves(Vec::new(), 64, 0, 1e-5, &Device::host_serial());
    }
}
