//! Store metrics: the ledger of counters and gauges a store keeps.
//!
//! The central invariant, checked by the acceptance tests: per ingest
//! and cumulatively, `bytes_logical == bytes_physical + bytes_deduped`
//! — every chunk reference's bytes land in exactly one of "written to
//! a pack for the first time" or "already present, referenced for
//! free". The physical counter tracks chunk payload bytes (what raw
//! capture would have written per chunk); per-record pack headers are
//! accounted separately in [`StoreStats`](crate::StoreStats).

use reprocmp_obs::{Counter, Gauge};

/// Live metric handles for one [`ChunkStore`](crate::ChunkStore):
/// cheap atomics its clones share, read through
/// [`ChunkStore::metrics`](crate::ChunkStore::metrics).
#[derive(Debug, Clone, Default)]
pub struct StoreMetrics {
    /// Chunks written to a pack for the first time.
    pub chunks_stored: Counter,
    /// Chunk references satisfied by an already-stored chunk.
    pub chunks_deduped: Counter,
    /// Chunk references differential capture skipped at flush time
    /// (identical to the parent manifest's chunk — never even probed
    /// against the index).
    pub chunks_skipped: Counter,
    /// Logical bytes ingested (sum of segment lengths).
    pub bytes_logical: Counter,
    /// Physical chunk bytes appended to packs.
    pub bytes_physical: Counter,
    /// Bytes not written thanks to dedup (`logical − physical −
    /// skipped`).
    pub bytes_deduped: Counter,
    /// Bytes differential capture skipped at flush time.
    pub bytes_skipped: Counter,
    /// Packs deleted by GC sweeps.
    pub gc_packs: Counter,
    /// Pack file bytes reclaimed by GC sweeps.
    pub gc_reclaimed_bytes: Counter,
    /// Chunks re-hashed by scrub passes.
    pub scrub_chunks: Counter,
    /// Chunks whose re-hash disagreed with their content address.
    pub scrub_failures: Counter,
    /// Corrupt chunks reconstructed from XOR parity by `fsck --repair`.
    pub repair_chunks: Counter,
    /// Packs rewritten whole by a successful repair.
    pub repair_packs: Counter,
    /// Packs quarantined because a parity group lost ≥ 2 chunks.
    pub quarantine_packs: Counter,
    /// Corrupt chunks inside quarantined packs (served, if at all, as
    /// `unverified` ranges in degraded-mode comparison).
    pub quarantine_chunks: Counter,
    /// Intent-journal replays performed by `Store::open` (each one is
    /// a crash the journal healed).
    pub journal_replays: Counter,
    /// Pack files currently on disk.
    pub packs: Gauge,
    /// Checkpoints (manifests) currently in the store.
    pub objects: Gauge,
    /// Chain depth of the most recent differential capture.
    pub chain_depth: Gauge,
}
