//! The content-addressed metadata cache behind the batch scheduler.
//!
//! Comparing N runs against a baseline re-walks mostly identical
//! metadata: under ε-quantization, most of each run's Merkle tree is
//! bit-identical to the baseline's, so most `(left, right)` node pairs
//! a batch of jobs visits have been adjudicated already by an earlier
//! job. [`MetaCache`] memoizes those adjudications at two levels:
//!
//! * **Stage-1 subtrees** — keyed by `(digest_a, digest_b, height)`.
//!   A node digest is a pure function of the subtree's quantized
//!   content, so the set of mismatching leaves *relative to the
//!   subtree* is a pure function of the key: any later job reaching
//!   the same ordered digest pair at the same height prunes
//!   immediately and splices the stored offsets ([`SubtreeEntry`]).
//! * **Stage-2 verdicts** — keyed by the ordered pair of *raw-content*
//!   chunk digests ([`crate::source::CheckpointSource::raw_leaves`]).
//!   Equal raw digests mean identical bytes, so the element-wise
//!   verdict (the exact `(offset, a, b)` difference triples) is a pure
//!   function of the key and scattered re-reads are never re-issued
//!   for a pair already verified. The ε-quantized leaf digests are
//!   deliberately **not** used here: equal quantization codes only
//!   bound two values within ε of each other, and a verdict can flip
//!   inside that slack.
//!
//! **Invalidation.** Both keyspaces are only valid for one engine
//! configuration: subtree digests depend on `ε` (the quantization
//! grid) and chunk size, and verdicts depend on `ε` (the `|a-b| > ε`
//! test) and chunk geometry. [`MetaCache::prepare`] pins the cache to
//! a configuration and clears everything when it changes, so memoized
//! verdicts can never leak across bounds.

use std::collections::HashMap;
use std::sync::Arc;

use reprocmp_hash::Digest128;

/// One chunk's memoized stage-2 verdict: the `(value_offset_in_chunk,
/// a, b)` triples of its real differences. Empty means the flagged
/// chunk was a hash false positive.
pub type ChunkVerdict = Arc<Vec<(u32, f32, f32)>>;

/// Key of a stage-1 subtree adjudication: the *ordered* digest pair
/// plus the subtree height (leaf level = 0). Height disambiguates the
/// astronomically-unlikely case of equal digests at different levels
/// and lets one cache serve trees of different sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SubtreeKey {
    /// Left run's subtree-root digest.
    pub a: Digest128,
    /// Right run's subtree-root digest.
    pub b: Digest128,
    /// Levels between this node and the leaves (0 = the node is a
    /// leaf).
    pub height: u32,
}

/// A memoized stage-1 adjudication of one mismatching subtree pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SubtreeEntry {
    /// Mismatched leaf offsets relative to the subtree's leftmost leaf
    /// slot, sorted. Non-empty by construction: a mismatching parent
    /// digest implies at least one mismatching leaf below it.
    pub rel_mismatched: Vec<u32>,
    /// Node pairs the resolving walk compared below the subtree root —
    /// exactly what every later hit saves.
    pub nodes_visited: u64,
}

/// The engine configuration a cache's contents are valid for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CacheEpoch {
    /// Bit pattern of the error bound ε.
    eps_bits: u64,
    /// Chunk size in bytes.
    chunk_bytes: usize,
}

/// Content-addressed cache of stage-1 subtree adjudications and
/// stage-2 chunk verdicts (see module docs). One cache can serve many
/// batches — the multi-run history path reuses it across iterations —
/// as long as the engine configuration stays fixed; `prepare` clears
/// it whenever ε or the chunk size changes.
#[derive(Debug, Default)]
pub struct MetaCache {
    epoch: Option<CacheEpoch>,
    subtrees: HashMap<SubtreeKey, Arc<SubtreeEntry>>,
    verdicts: HashMap<(Digest128, Digest128), ChunkVerdict>,
}

impl MetaCache {
    /// An empty cache, not yet pinned to any configuration.
    #[must_use]
    pub fn new() -> Self {
        MetaCache::default()
    }

    /// Pins the cache to an engine configuration, clearing all entries
    /// if the configuration changed since the last use. Returns `true`
    /// when existing entries were retained.
    pub fn prepare(&mut self, error_bound: f64, chunk_bytes: usize) -> bool {
        let epoch = CacheEpoch {
            eps_bits: error_bound.to_bits(),
            chunk_bytes,
        };
        let retained = self.epoch == Some(epoch);
        if !retained {
            self.subtrees.clear();
            self.verdicts.clear();
            self.epoch = Some(epoch);
        }
        retained
    }

    /// Looks up a stage-1 subtree adjudication.
    #[must_use]
    pub fn subtree(&self, key: &SubtreeKey) -> Option<Arc<SubtreeEntry>> {
        self.subtrees.get(key).cloned()
    }

    /// Memoizes a stage-1 subtree adjudication.
    pub fn insert_subtree(&mut self, key: SubtreeKey, entry: Arc<SubtreeEntry>) {
        self.subtrees.insert(key, entry);
    }

    /// Looks up a stage-2 verdict by the ordered raw-digest pair.
    #[must_use]
    pub fn verdict(&self, a: Digest128, b: Digest128) -> Option<ChunkVerdict> {
        self.verdicts.get(&(a, b)).cloned()
    }

    /// Memoizes a stage-2 verdict.
    pub fn insert_verdict(&mut self, a: Digest128, b: Digest128, verdict: ChunkVerdict) {
        self.verdicts.insert((a, b), verdict);
    }

    /// Number of memoized subtree adjudications.
    #[cfg(test)]
    #[must_use]
    pub fn subtree_len(&self) -> usize {
        self.subtrees.len()
    }

    /// Number of memoized chunk verdicts.
    #[cfg(test)]
    #[must_use]
    pub fn verdict_len(&self) -> usize {
        self.verdicts.len()
    }

    /// Drops every entry but keeps the configuration pin.
    pub fn clear(&mut self) {
        self.subtrees.clear();
        self.verdicts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(n: u64) -> Digest128 {
        Digest128([n, n.wrapping_mul(31)])
    }

    #[test]
    fn prepare_retains_within_one_configuration() {
        let mut c = MetaCache::new();
        assert!(!c.prepare(1e-5, 4096), "first prepare pins, not retains");
        c.insert_verdict(d(1), d(2), Arc::new(vec![(0, 1.0, 2.0)]));
        c.insert_subtree(
            SubtreeKey {
                a: d(3),
                b: d(4),
                height: 2,
            },
            Arc::new(SubtreeEntry {
                rel_mismatched: vec![1],
                nodes_visited: 6,
            }),
        );
        assert!(c.prepare(1e-5, 4096));
        assert_eq!(c.verdict_len(), 1);
        assert_eq!(c.subtree_len(), 1);
    }

    #[test]
    fn epsilon_change_invalidates_everything() {
        let mut c = MetaCache::new();
        c.prepare(1e-5, 4096);
        c.insert_verdict(d(1), d(2), Arc::new(vec![]));
        assert!(!c.prepare(1e-4, 4096), "new ε must clear the cache");
        assert_eq!(c.verdict_len(), 0);
        assert!(c.verdict(d(1), d(2)).is_none());
        // And so does a chunk-size change.
        c.insert_verdict(d(1), d(2), Arc::new(vec![]));
        assert!(!c.prepare(1e-4, 1024));
        assert_eq!(c.verdict_len(), 0);
    }

    #[test]
    fn verdict_pairs_are_ordered() {
        let mut c = MetaCache::new();
        c.prepare(1e-5, 64);
        c.insert_verdict(d(1), d(2), Arc::new(vec![(3, 0.5, 1.5)]));
        assert!(c.verdict(d(1), d(2)).is_some());
        assert!(
            c.verdict(d(2), d(1)).is_none(),
            "swapped operands carry swapped values — distinct keys"
        );
    }

    #[test]
    fn subtree_height_disambiguates() {
        let mut c = MetaCache::new();
        c.prepare(1e-5, 64);
        let key2 = SubtreeKey {
            a: d(9),
            b: d(10),
            height: 2,
        };
        let key3 = SubtreeKey { height: 3, ..key2 };
        c.insert_subtree(key2, Arc::new(SubtreeEntry::default()));
        assert!(c.subtree(&key2).is_some());
        assert!(c.subtree(&key3).is_none());
    }
}
