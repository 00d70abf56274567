//! Restart-equivalence oracle suite for differential capture.
//!
//! Two stores ingest the *same* HACC-seeded checkpoint sequence — one
//! through the full-capture path, one through the copy-on-write delta
//! path — under churn schedules from "nothing moved" to "everything
//! moved". Three oracles must hold at every version of every schedule:
//!
//! 1. **Materialize**: every chain link materializes byte-identical to
//!    the full-capture baseline (and to the in-memory expected bytes).
//! 2. **Restart**: a VELOC client in differential mode restores through
//!    `restart_latest` exactly what a full-mode client restores, even
//!    when the flat PFS copies are gone and the restore walks packs.
//! 3. **Ledger**: `bytes_logical == bytes_physical + bytes_deduped +
//!    bytes_skipped` exactly, per capture and store-wide.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::hacc::ParticleSet;
use reprocmp::store::{ChunkStore, DeltaPolicy};
use reprocmp::veloc::client::{CaptureMode, Client, VelocConfig};

/// Store chunk size: small enough that a checkpoint spans many chunks.
const CHUNK: usize = 256;
/// f32 values per chunk.
const VALS: usize = CHUNK / 4;
/// Chunks per checkpoint payload.
const NCHUNKS: usize = 40;
/// Checkpoint iterations per schedule.
const ITERS: u64 = 10;

fn temp_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-diffcap-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// The HACC-seeded base state: particle fields of a seeded
/// initial-conditions set, flattened field-by-field and cut to exactly
/// `NCHUNKS` chunks of f32s.
fn hacc_base(seed: u64) -> Vec<f32> {
    let particles = ParticleSet::initial_conditions(512, 1.0, seed);
    let mut vals = Vec::with_capacity(NCHUNKS * VALS);
    for field in ["x", "y", "z", "vx", "vy", "vz"] {
        vals.extend_from_slice(particles.field(field).expect("Table 1 field"));
    }
    vals.truncate(NCHUNKS * VALS);
    assert_eq!(vals.len(), NCHUNKS * VALS, "seed state too small");
    vals
}

/// Advances one churn iteration in place: rewrites `fraction` of the
/// payload's chunks (chosen and filled deterministically from the rng)
/// with fresh values, as a timestep that moved only some particles
/// would. Returns how many chunks changed.
fn churn(vals: &mut [f32], fraction: f64, rng: &mut StdRng) -> usize {
    let nchunks = vals.len().div_ceil(VALS);
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let count = ((fraction * nchunks as f64).round() as usize).min(nchunks);
    let mut indices: Vec<usize> = (0..nchunks).collect();
    for i in (1..indices.len()).rev() {
        indices.swap(i, rng.gen_range(0..i + 1));
    }
    for &chunk in &indices[..count] {
        let lo = chunk * VALS;
        let hi = ((chunk + 1) * VALS).min(vals.len());
        for v in &mut vals[lo..hi] {
            *v = rng.gen_range(-1000.0..1000.0);
        }
    }
    count
}

fn as_bytes(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// The schedule oracle: drive `ITERS` versions of a churned HACC state
/// through a full store and a delta store and check all three oracles
/// at every link.
fn oracle_schedule(tag: &str, fraction: f64) {
    let root = temp_root(tag);
    let full = ChunkStore::open(&root.join("full")).expect("open full store");
    let delta = ChunkStore::open(&root.join("delta")).expect("open delta store");
    let policy = DeltaPolicy {
        anchor_every: 4,
        max_depth: 16,
    };

    let mut vals = hacc_base(0xD1FF_CAFE);
    let mut rng = StdRng::seed_from_u64(0x5EED ^ fraction.to_bits());
    let mut expected: Vec<(u64, Vec<u8>)> = Vec::new();

    for version in 1..=ITERS {
        let churned = if version == 1 {
            0
        } else {
            churn(&mut vals, fraction, &mut rng)
        };
        let bytes = as_bytes(&vals);
        let f = full
            .ingest("run", version, &[("state", &bytes)], CHUNK, &[])
            .expect("full ingest");
        let d = delta
            .ingest_delta("run", version, &[("state", &bytes)], CHUNK, &[], &policy)
            .expect("delta ingest");

        // Oracle 3, per capture: the four-term ledger is exact on both
        // paths (the skipped term is identically zero for full).
        assert_eq!(
            f.bytes_logical,
            f.bytes_physical + f.bytes_deduped + f.bytes_skipped,
            "{tag} v{version}: full-capture ledger"
        );
        assert_eq!(f.bytes_skipped, 0, "{tag} v{version}: full never skips");
        assert_eq!(
            d.bytes_logical,
            d.bytes_physical + d.bytes_deduped + d.bytes_skipped,
            "{tag} v{version}: delta-capture ledger"
        );

        // Chain shape under anchor_every = 4: depth cycles 0,1,2,3.
        let depth = (version - 1) % policy.anchor_every;
        assert_eq!(d.depth, depth, "{tag} v{version}: chain depth");
        if depth == 0 {
            assert_eq!(d.parent, None, "{tag} v{version}: anchor has no parent");
            assert_eq!(d.bytes_skipped, 0, "{tag} v{version}: anchors skip nothing");
        } else {
            assert_eq!(
                d.parent,
                Some(version - 1),
                "{tag} v{version}: delta parent"
            );
            // Every unchanged chunk is borrowed from the parent, every
            // churned chunk is re-captured; nothing in between.
            assert_eq!(
                d.chunks_skipped as usize,
                NCHUNKS - churned,
                "{tag} v{version}: skips = unchanged chunks"
            );
            assert_eq!(
                d.bytes_skipped as usize,
                (NCHUNKS - churned) * CHUNK,
                "{tag} v{version}: skipped bytes"
            );
            // The acceptance bound: physical growth tracks churn, not
            // checkpoint size (fresh random chunks dedup to nothing).
            assert!(
                d.bytes_physical as f64 <= (churned * CHUNK) as f64 * 1.2,
                "{tag} v{version}: physical {} exceeds 1.2x churn bytes {}",
                d.bytes_physical,
                churned * CHUNK
            );
        }
        expected.push((version, bytes));
    }

    // Oracle 1: every chain link — not just the tip — materializes
    // byte-identical to the full-capture baseline and the true bytes.
    for (version, bytes) in &expected {
        let from_full = full.materialize("run", *version).expect("full materialize");
        let from_delta = delta
            .materialize("run", *version)
            .expect("delta materialize");
        assert_eq!(
            &from_full, bytes,
            "full store diverged from truth at v{version}"
        );
        assert_eq!(
            from_delta, from_full,
            "{tag}: delta chain diverged from full baseline at v{version}"
        );
    }

    // The chain report agrees with the per-ingest ledger.
    for (version, _) in &expected {
        let links = delta.chain("run", *version).expect("chain");
        let tip = links.last().expect("non-empty chain");
        assert_eq!(tip.version, *version);
        assert_eq!(links[0].depth, 0, "{tag}: chains start at a full anchor");
        for (i, link) in links.iter().enumerate() {
            assert_eq!(link.depth, i as u64, "{tag}: contiguous depths");
            assert_eq!(link.chunk_refs, NCHUNKS as u64);
            assert_eq!(
                link.bytes_skipped,
                (link.chunk_refs - link.own_refs) * CHUNK as u64,
                "{tag}: borrowed refs are exactly the skipped bytes"
            );
        }
    }

    // Oracle 3, store-wide: nothing was removed, so garbage is zero
    // and the four-term ledger balances exactly.
    for (store, label) in [(&full, "full"), (&delta, "delta")] {
        let stats = store.stats();
        assert_eq!(stats.bytes_garbage, 0, "{tag}/{label}: no garbage");
        assert_eq!(
            stats.bytes_logical,
            stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped,
            "{tag}/{label}: store-wide ledger"
        );
        assert!(store.scrub().expect("scrub").is_clean(), "{tag}/{label}");
    }
    let dstats = delta.stats();
    assert_eq!(
        dstats.delta_objects,
        ITERS - ITERS.div_ceil(policy.anchor_every),
        "{tag}: all non-anchor versions are deltas"
    );
    assert_eq!(
        dstats.chain_depth_max, 3,
        "{tag}: deepest link under policy"
    );

    // Reopening from disk reconstructs the identical ledger and chains.
    let delta_root = root.join("delta");
    drop(delta);
    let reopened = ChunkStore::open(&delta_root).expect("reopen");
    assert_eq!(reopened.stats(), dstats, "{tag}: ledger survives reopen");
    for (version, bytes) in &expected {
        assert_eq!(
            &reopened.materialize("run", *version).expect("materialize"),
            bytes,
            "{tag}: reopen materialize at v{version}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn oracle_zero_churn() {
    oracle_schedule("zero", 0.0);
}

#[test]
fn oracle_sparse_churn() {
    oracle_schedule("sparse", 0.05);
}

#[test]
fn oracle_dense_churn() {
    oracle_schedule("dense", 0.5);
}

#[test]
fn oracle_full_churn() {
    oracle_schedule("full", 1.0);
}

/// Zero churn is the extreme the paper's affordability argument rests
/// on: after the anchor, a delta version writes *no* payload bytes.
#[test]
fn zero_churn_deltas_write_nothing() {
    let root = temp_root("zero-physical");
    let store = ChunkStore::open(&root.join("store")).expect("open");
    let policy = DeltaPolicy {
        anchor_every: 8,
        max_depth: 16,
    };
    let bytes = as_bytes(&hacc_base(7));
    for version in 1..=5 {
        let s = store
            .ingest_delta("run", version, &[("state", &bytes)], CHUNK, &[], &policy)
            .expect("ingest");
        if version > 1 {
            assert_eq!(s.chunks_stored, 0, "v{version} stored a chunk");
            assert_eq!(s.bytes_physical, 0, "v{version} wrote payload bytes");
            assert_eq!(s.bytes_skipped, bytes.len() as u64);
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

/// Oracle 2: a differential-mode VELOC client restores byte-for-byte
/// what a full-mode client restores — even restarting purely from the
/// store (flat PFS copies deleted), at every version, through every
/// chain link.
#[test]
fn restart_latest_from_delta_chain_matches_full_capture() {
    let root = temp_root("restart");
    let policy = DeltaPolicy {
        anchor_every: 3,
        max_depth: 16,
    };
    let full_store = Arc::new(ChunkStore::open(&root.join("full-store")).expect("open"));
    let delta_store = Arc::new(ChunkStore::open(&root.join("delta-store")).expect("open"));
    // One flush thread: versions reach the store in checkpoint order,
    // so the chain shape below is deterministic. (Materialize equality
    // holds under any interleaving — only the depth assertions care.)
    let full_client = Client::new(VelocConfig {
        store: Some(Arc::clone(&full_store)),
        store_chunk_bytes: CHUNK,
        flush_threads: 1,
        ..VelocConfig::rooted_at(&root.join("full-veloc"))
    })
    .expect("full client");
    let delta_client = Client::new(VelocConfig {
        store: Some(Arc::clone(&delta_store)),
        store_chunk_bytes: CHUNK,
        capture_mode: CaptureMode::Differential,
        delta_policy: policy,
        flush_threads: 1,
        ..VelocConfig::rooted_at(&root.join("delta-veloc"))
    })
    .expect("delta client");

    let mut pos = hacc_base(0xACC);
    let mut vel = hacc_base(0xACC ^ 1);
    let mut rng = StdRng::seed_from_u64(42);
    for version in 1..=7u64 {
        if version > 1 {
            churn(&mut pos, 0.1, &mut rng);
            churn(&mut vel, 0.1, &mut rng);
        }
        let regions: [(&str, &[f32]); 2] = [("pos", &pos), ("vel", &vel)];
        for client in [&full_client, &delta_client] {
            client
                .checkpoint("sim.rank0", version, &regions)
                .expect("checkpoint");
        }
    }
    full_client.wait_all().expect("full flush");
    delta_client.wait_all().expect("delta flush");

    // Every version's store object is byte-identical across modes
    // (differential capture changes what is *written*, never what is
    // *restored*).
    for version in 1..=7u64 {
        assert_eq!(
            full_store
                .materialize("sim.rank0", version)
                .expect("full materialize"),
            delta_store
                .materialize("sim.rank0", version)
                .expect("delta materialize"),
            "store objects diverge at v{version}"
        );
    }
    let tail = delta_store.chain("sim.rank0", 7).expect("chain");
    assert_eq!(tail.last().expect("tip").depth, 0, "v7 anchors a new chain");
    assert!(
        delta_store.stats().delta_objects > 0,
        "differential mode wrote no deltas"
    );

    // Drop the flat PFS copies so restart must walk the delta chain.
    for version in 1..=7u64 {
        for client in [&full_client, &delta_client] {
            std::fs::remove_file(client.persistent_path("sim.rank0", version))
                .expect("remove flat copy");
        }
    }
    let (fv, fregions) = full_client
        .restart_latest("sim.rank0")
        .expect("full restart")
        .expect("some version");
    let (dv, dregions) = delta_client
        .restart_latest("sim.rank0")
        .expect("delta restart")
        .expect("some version");
    assert_eq!(fv, 7);
    assert_eq!(dv, fv, "restart picked different versions");
    assert_eq!(fregions, dregions, "restored regions diverge");
    assert_eq!(dregions["pos"], pos, "pos diverged from the live state");
    assert_eq!(dregions["vel"], vel, "vel diverged from the live state");
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized schedules: any churn sequence, chunk geometry, and
    /// anchor cadence preserves materialize-equality with a full
    /// baseline and the exact four-term ledger at every version.
    #[test]
    fn random_schedules_stay_restart_equivalent(
        // Above 1.0 the churn generator clamps to "everything moved".
        fractions in proptest::collection::vec(0.0f64..1.2, 1..8),
        nchunks in 2usize..24,
        anchor_every in 1u64..6,
        seed in 0u64..1_000,
    ) {
        let root = temp_root(&format!("prop-{seed}-{nchunks}-{anchor_every}"));
        let full = ChunkStore::open(&root.join("full")).expect("open");
        let delta = ChunkStore::open(&root.join("delta")).expect("open");
        let policy = DeltaPolicy { anchor_every, max_depth: 16 };

        let mut rng = StdRng::seed_from_u64(seed);
        let mut vals = hacc_base(seed);
        vals.truncate(nchunks * VALS);
        for (i, &fraction) in fractions.iter().enumerate() {
            let version = i as u64 + 1;
            if version > 1 {
                churn(&mut vals, fraction, &mut rng);
            }
            let bytes = as_bytes(&vals);
            full.ingest("r", version, &[("s", &bytes)], CHUNK, &[]).expect("ingest");
            let d = delta
                .ingest_delta("r", version, &[("s", &bytes)], CHUNK, &[], &policy)
                .expect("ingest_delta");
            prop_assert_eq!(
                d.bytes_logical,
                d.bytes_physical + d.bytes_deduped + d.bytes_skipped
            );
            prop_assert!(d.depth < anchor_every.max(1));
            prop_assert_eq!(
                delta.materialize("r", version).expect("materialize"),
                bytes
            );
        }
        for version in 1..=fractions.len() as u64 {
            prop_assert_eq!(
                delta.materialize("r", version).expect("delta"),
                full.materialize("r", version).expect("full")
            );
        }
        let stats = delta.stats();
        prop_assert_eq!(stats.bytes_garbage, 0);
        prop_assert_eq!(
            stats.bytes_logical,
            stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped
        );
        if anchor_every == 1 {
            prop_assert_eq!(stats.delta_objects, 0);
        }
        std::fs::remove_dir_all(&root).ok();
    }
}
