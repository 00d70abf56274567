//! Cache accounting for the multi-run comparison scheduler.
//!
//! The batch scheduler in `reprocmp-core` memoizes two things across
//! the jobs of a batch: stage-1 subtree adjudications keyed by
//! `(digest_a, digest_b, height)` and stage-2 chunk verdicts keyed by
//! the raw-content digests of the two chunks. [`CacheStats`] is the
//! ledger of that reuse — how many lookups hit, how many missed, and
//! what the hits saved in node visits and re-read bytes.
//!
//! The counters obey exact partition invariants the test suite checks:
//!
//! * `node_hits + node_misses` equals the number of mismatching
//!   frontier pairs referenced across the batch;
//! * per job, `nodes visited with the cache + nodes_saved` equals the
//!   nodes the same job visits with the cache disabled;
//! * `verdict_hits + verdict_misses` equals the number of flagged
//!   chunks that carried raw digests, and per job `bytes_reread +
//!   bytes_saved` equals the bytes the same job re-reads with the
//!   cache disabled.

use serde::Serialize;

/// Hit/miss/short-circuit accounting for one comparison (or, summed,
/// for a whole batch). All-zero for plain pairwise comparisons, which
/// never consult a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Stage-1 subtree lookups answered from the cache.
    pub node_hits: u64,
    /// Stage-1 subtree lookups that had to be resolved by walking.
    pub node_misses: u64,
    /// Stage-2 chunk-verdict lookups answered from the cache.
    pub verdict_hits: u64,
    /// Stage-2 chunk-verdict lookups that had to re-read and verify.
    pub verdict_misses: u64,
    /// Jobs whose entire stage-1 mismatch set came from the cache
    /// (every mismatching frontier pair was a hit).
    pub short_circuits: u64,
    /// Node-pair visits avoided by stage-1 hits.
    pub nodes_saved: u64,
    /// Stage-2 payload bytes not re-read thanks to verdict hits, in
    /// the same per-run unit as `DataStats::bytes_reread` (one chunk
    /// length per skipped chunk).
    pub bytes_saved: u64,
}

impl CacheStats {
    /// Component-wise sum, for aggregating per-job ledgers into a
    /// batch total.
    #[must_use]
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            node_hits: self.node_hits + other.node_hits,
            node_misses: self.node_misses + other.node_misses,
            verdict_hits: self.verdict_hits + other.verdict_hits,
            verdict_misses: self.verdict_misses + other.verdict_misses,
            short_circuits: self.short_circuits + other.short_circuits,
            nodes_saved: self.nodes_saved + other.nodes_saved,
            bytes_saved: self.bytes_saved + other.bytes_saved,
        }
    }

    /// True when no cache was consulted at all — the state every plain
    /// pairwise report carries.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == CacheStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zero_and_merge_is_component_wise() {
        assert!(CacheStats::default().is_zero());
        let a = CacheStats {
            node_hits: 1,
            node_misses: 2,
            verdict_hits: 3,
            verdict_misses: 4,
            short_circuits: 5,
            nodes_saved: 6,
            bytes_saved: 7,
        };
        let m = a.merged(a);
        assert_eq!(m.node_hits, 2);
        assert_eq!(m.bytes_saved, 14);
        assert_eq!(m.node_hits + m.node_misses, 6);
        assert_eq!(m.verdict_hits + m.verdict_misses, 14);
        assert!(!m.is_zero());
    }

    #[test]
    fn serializes_with_named_fields() {
        use serde::{Serialize, Value};
        let Value::Object(fields) = CacheStats::default().to_value() else {
            panic!("cache stats must serialize as an object");
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            [
                "node_hits",
                "node_misses",
                "verdict_hits",
                "verdict_misses",
                "short_circuits",
                "nodes_saved",
                "bytes_saved"
            ]
        );
    }
}
