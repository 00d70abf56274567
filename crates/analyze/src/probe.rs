//! Stage-1-only probes: metadata in, verdicts out, zero payload bytes.
//!
//! Everything in this module reads only a checkpoint's encoded Merkle
//! tree — never its payload. That is the affordability lever the whole
//! forensics engine stands on: a probe over an M-iteration history
//! costs `M × metadata_bytes`, a vanishing fraction of the payload it
//! adjudicates, and the conservative hash guarantee means a probe that
//! reports *clean* is final (equal codes imply every value pair is
//! within ε). Only a *flagged* probe needs stage-2 confirmation,
//! because quantization-boundary straddles can flag chunks whose
//! values actually agree within the bound.

use reprocmp_core::{CheckpointSource, CompareEngine, CoreError, CoreResult};
use reprocmp_io::storage::AccessMode;
use reprocmp_merkle::{compare_trees, CompareOutcome, MerkleTree};

/// Byte/comparison accounting for a sequence of probes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Tree pairs compared (one per [`probe_pair`] call).
    pub tree_compares: u64,
    /// Encoded-metadata bytes fetched from storage.
    pub metadata_bytes_read: u64,
    /// Stage-1 node pairs visited across all probes.
    pub nodes_visited: u64,
}

impl ProbeStats {
    /// Merges another accounting into this one.
    pub fn absorb(&mut self, other: ProbeStats) {
        self.tree_compares += other.tree_compares;
        self.metadata_bytes_read += other.metadata_bytes_read;
        self.nodes_visited += other.nodes_visited;
    }
}

/// Reads and decodes one source's Merkle metadata, validating it
/// against the engine's geometry — the same checks the engine's own
/// comparison path performs, minus every payload byte.
///
/// # Errors
///
/// Storage and codec failures; [`CoreError::NoMetadata`] for a source
/// opened without a tree; [`CoreError::Mismatch`] when the metadata
/// was built under a different chunk size or error bound, or describes
/// a different payload length than the source claims.
pub fn load_tree(source: &CheckpointSource, engine: &CompareEngine) -> CoreResult<MerkleTree> {
    let metadata = source.require_metadata("a probed checkpoint")?;
    let len = metadata.len() as usize;
    let mut encoded = vec![0u8; len];
    metadata.charge_batch(
        &[(0, len)],
        AccessMode::Async {
            depth: engine.config().io.queue_depth,
        },
    );
    metadata.read_at(0, &mut encoded)?;
    let tree = reprocmp_merkle::decode_tree(&encoded)?;
    if tree.chunk_bytes() != engine.config().chunk_bytes {
        return Err(CoreError::Mismatch(format!(
            "metadata chunk size {} != engine chunk size {}",
            tree.chunk_bytes(),
            engine.config().chunk_bytes
        )));
    }
    if tree.error_bound() != engine.config().error_bound {
        return Err(CoreError::Mismatch(format!(
            "metadata error bound {} != engine error bound {}",
            tree.error_bound(),
            engine.config().error_bound
        )));
    }
    if tree.data_len() != source.payload_len {
        return Err(CoreError::Mismatch(format!(
            "metadata describes {} payload bytes, source holds {}",
            tree.data_len(),
            source.payload_len
        )));
    }
    Ok(tree)
}

/// One stage-1 probe: loads both sources' metadata and runs the
/// pruning BFS. The returned outcome's `mismatched_leaves` is the
/// *conservative* flagged-chunk set — a superset of the truly
/// divergent chunks, exact when empty.
///
/// # Errors
///
/// As [`load_tree`], plus incomparable-shape errors from the BFS.
pub fn probe_pair(
    a: &CheckpointSource,
    b: &CheckpointSource,
    engine: &CompareEngine,
    stats: &mut ProbeStats,
) -> CoreResult<CompareOutcome> {
    let ta = load_tree(a, engine)?;
    let tb = load_tree(b, engine)?;
    let loaded = |s: &CheckpointSource| s.metadata.as_ref().map_or(0, |m| m.len());
    stats.metadata_bytes_read += loaded(a) + loaded(b);
    let lanes = engine
        .config()
        .lane_hint
        .unwrap_or_else(|| engine.config().device.concurrent_kernel_threads());
    let outcome = compare_trees(&ta, &tb, engine.device(), lanes)?;
    stats.tree_compares += 1;
    stats.nodes_visited += outcome.nodes_visited as u64;
    Ok(outcome)
}

/// A per-level digest-mismatch summary of one tree pair — what the
/// explorer's tree view renders. Level 0 is the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeDiff {
    /// Chunk size the trees were built under.
    pub chunk_bytes: usize,
    /// Per-level `(nodes_in_level, mismatched_nodes)`, root first.
    pub levels: Vec<(usize, usize)>,
    /// Leaf-level mismatch mask over real (unpadded) chunks.
    pub leaf_mask: Vec<bool>,
}

impl TreeDiff {
    /// Full node-by-node diff of two comparable trees (in-memory
    /// metadata only — no pruning, every level summarized).
    ///
    /// # Errors
    ///
    /// [`CoreError::Incomparable`] via shape mismatch.
    pub fn of(a: &MerkleTree, b: &MerkleTree) -> CoreResult<TreeDiff> {
        if !a.comparable(b) {
            return Err(CoreError::Mismatch(
                "tree pair is not node-for-node comparable".into(),
            ));
        }
        let mut levels = Vec::with_capacity(a.levels());
        for l in 0..a.levels() {
            let range = a.level_range(l);
            let width = range.len();
            let mismatched = range.filter(|&i| a.node(i) != b.node(i)).count();
            levels.push((width, mismatched));
        }
        let leaf_mask = (0..a.leaf_count())
            .map(|i| a.leaf(i) != b.leaf(i))
            .collect();
        Ok(TreeDiff {
            chunk_bytes: a.chunk_bytes(),
            levels,
            leaf_mask,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_core::EngineConfig;

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 64,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    fn source(values: &[f32], e: &CompareEngine) -> CheckpointSource {
        CheckpointSource::in_memory(values, e).unwrap()
    }

    #[test]
    fn probe_reads_metadata_only_and_flags_the_changed_chunk() {
        let e = engine();
        let base: Vec<f32> = (0..320).map(|i| i as f32 * 0.1).collect();
        let mut other = base.clone();
        other[100] += 1.0; // chunk 6 (16 values per 64 B chunk)
        let a = source(&base, &e);
        let b = source(&other, &e);
        let mut stats = ProbeStats::default();
        let outcome = probe_pair(&a, &b, &e, &mut stats).unwrap();
        assert_eq!(outcome.mismatched_leaves, vec![6]);
        assert_eq!(stats.tree_compares, 1);
        let meta = |s: &CheckpointSource| s.require_metadata("probed").unwrap().len();
        assert_eq!(stats.metadata_bytes_read, meta(&a) + meta(&b));
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn clean_probe_is_final() {
        let e = engine();
        let base: Vec<f32> = (0..320).map(|i| i as f32 * 0.1).collect();
        let mut stats = ProbeStats::default();
        let outcome = probe_pair(&source(&base, &e), &source(&base, &e), &e, &mut stats).unwrap();
        assert!(outcome.identical());
    }

    #[test]
    fn load_tree_rejects_foreign_geometry() {
        let e = engine();
        let other_engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 128,
            error_bound: 1e-5,
            ..EngineConfig::default()
        });
        let base: Vec<f32> = (0..320).map(|i| i as f32 * 0.1).collect();
        let s = source(&base, &other_engine);
        assert!(matches!(load_tree(&s, &e), Err(CoreError::Mismatch(_))));
    }

    #[test]
    fn tree_diff_counts_levels_and_masks_leaves() {
        let e = engine();
        let base: Vec<f32> = (0..320).map(|i| i as f32 * 0.1).collect();
        let mut other = base.clone();
        other[0] += 1.0; // chunk 0
        let ta = load_tree(&source(&base, &e), &e).unwrap();
        let tb = load_tree(&source(&other, &e), &e).unwrap();
        let diff = TreeDiff::of(&ta, &tb).unwrap();
        assert_eq!(diff.levels[0], (1, 1), "root mismatches");
        let (leaves, leaf_mismatched) = *diff.levels.last().unwrap();
        assert!(leaves >= 20); // 20 real chunks, padded to a power of two
        assert_eq!(leaf_mismatched, 1);
        assert_eq!(diff.leaf_mask.len(), 20);
        assert!(diff.leaf_mask[0]);
        assert!(diff.leaf_mask[1..].iter().all(|&m| !m));
    }
}
