//! Crash-point torture harness: power-fail the store at *every*
//! filesystem mutation boundary and prove recovery.
//!
//! The driver runs each operation twice. A counting pass opens the
//! store through a [`CrashFs`] wrapping [`CrashPlan::observe`], which
//! numbers every armed mutation (tmp write, rename, pack seal,
//! manifest publish, index swap, journal append, unlink) without
//! crashing. Then, for every crash point `k` in `1..=n` and every
//! failure mode (fail-before, torn partial write across three seeds),
//! a fresh store replays the same history, crashes at `k`, reopens on
//! the real filesystem — which replays the intent journal — retries
//! the interrupted operation, and must land in a state where:
//!
//! * every surviving checkpoint materializes **byte-exactly** — for a
//!   delta chain that means walking every link, so a crash can never
//!   orphan a parent a live delta still borrows from,
//! * a full scrub passes (no torn garbage left addressable),
//! * the dedup ledger balances against *driver-computed* expectations
//!   (`bytes_logical == bytes_physical + bytes_deduped + bytes_skipped`,
//!   with `bytes_physical` equal to the unique chunk bytes of the
//!   expected contents — not whatever the store happens to think), and
//! * a second `gc` finds nothing, i.e. no orphan pack survived.
//!
//! The same sweep drives differential capture (`ingest_delta`, chain
//! `flatten`, tail removal, chain-aware gc) and the
//! VELOC-style client's flush path (tmp write + rename on the
//! persistent tier), proving `recover()` completes any flush the
//! crash interrupted.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use reprocmp_io::{CrashMode, CrashPlan, RetryPolicy};
use reprocmp_store::{ChunkStore, CrashFs, DeltaPolicy, StoreConfig, StoreError};
use reprocmp_veloc::{Client, VelocConfig};

const CHUNK: usize = 64;
const TORN_SEEDS: [u64; 3] = [0x00c0_ffee, 0x1bad_b002, 0x5eed_cafe];

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-torture-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// `n` chunks of deterministic bytes, parameterized so different
/// checkpoints share exactly the chunks we intend them to share.
fn chunk_bytes(salt: u8, chunk: usize) -> Vec<u8> {
    (0..CHUNK)
        .map(|i| salt.wrapping_mul(31) ^ (chunk as u8) ^ (i as u8).wrapping_mul(7))
        .collect()
}

fn payload(chunks: &[(u8, usize)]) -> Vec<u8> {
    chunks
        .iter()
        .flat_map(|&(salt, c)| chunk_bytes(salt, c))
        .collect()
}

/// The unique-chunk byte count across all expected payloads — the
/// driver's independent prediction of `stats.bytes_physical` once the
/// store holds exactly `expected`, less its garbage.
fn unique_chunk_bytes(expected: &[(&str, u64, Vec<u8>)]) -> u64 {
    let mut unique: BTreeSet<&[u8]> = BTreeSet::new();
    for (_, _, bytes) in expected {
        for chunk in bytes.chunks(CHUNK) {
            unique.insert(chunk);
        }
    }
    unique.iter().map(|c| c.len() as u64).sum()
}

/// `garbage` is the dead bytes the crash-free run leaves in packs that
/// still hold live chunks after gc.
fn assert_recovered(
    store: &ChunkStore,
    expected: &[(&str, u64, Vec<u8>)],
    garbage: u64,
    ctx: &str,
) {
    for (name, version, bytes) in expected {
        let got = store
            .materialize(name, *version)
            .unwrap_or_else(|e| panic!("{ctx}: {name}@{version} lost: {e}"));
        assert_eq!(&got, bytes, "{ctx}: {name}@{version} must be byte-exact");
    }
    let scrub = store
        .scrub()
        .unwrap_or_else(|e| panic!("{ctx}: scrub: {e}"));
    assert!(
        scrub.is_clean(),
        "{ctx}: scrub found rot after recovery: {:?}",
        scrub.failures
    );
    assert_eq!(scrub.packs_quarantined, 0, "{ctx}: nothing quarantined");

    let stats = store.stats();
    let logical: u64 = expected.iter().map(|(_, _, b)| b.len() as u64).sum();
    assert_eq!(stats.objects, expected.len() as u64, "{ctx}: object count");
    assert_eq!(stats.bytes_logical, logical, "{ctx}: logical bytes");
    assert_eq!(
        stats.bytes_garbage, garbage,
        "{ctx}: garbage after gc must match the crash-free run"
    );
    assert_eq!(
        stats.bytes_physical,
        unique_chunk_bytes(expected) + garbage,
        "{ctx}: physical bytes must equal the driver-computed unique chunk bytes plus garbage"
    );
    assert_eq!(
        stats.bytes_logical + stats.bytes_garbage,
        stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped,
        "{ctx}: ledger must balance"
    );

    let gc2 = store.gc().unwrap_or_else(|e| panic!("{ctx}: gc: {e}"));
    assert_eq!(gc2.packs_deleted, 0, "{ctx}: gc must have converged");
}

/// Sweeps every crash point of `op` (run against the state `setup`
/// builds) across fail-before and torn-write modes.
fn sweep(
    tag: &str,
    setup: &dyn Fn(&ChunkStore),
    op: &dyn Fn(&ChunkStore) -> Result<(), StoreError>,
    expected: &[(&str, u64, Vec<u8>)],
) {
    // Counting pass: number the op's mutations without crashing.
    let root = fresh_root(&format!("{tag}-count"));
    {
        let store = ChunkStore::open(&root).unwrap();
        setup(&store);
    }
    let plan = CrashPlan::observe();
    {
        let fs = Arc::new(CrashFs::new(Arc::clone(&plan)));
        let store = ChunkStore::open_with(&root, StoreConfig::with_fs(fs)).unwrap();
        plan.arm();
        op(&store).unwrap();
    }
    let garbage = {
        let store = ChunkStore::open(&root).unwrap();
        store.gc().unwrap();
        store.stats().bytes_garbage
    };
    let points = plan.mutations();
    assert!(points > 0, "{tag}: op crossed no mutation boundaries");
    std::fs::remove_dir_all(&root).ok();

    let mut modes = vec![CrashMode::Before];
    modes.extend(TORN_SEEDS.map(|seed| CrashMode::Torn { seed }));

    for k in 1..=points {
        for (m, &mode) in modes.iter().enumerate() {
            let ctx = format!("{tag} crash point {k}/{points} mode {m}");
            let root = fresh_root(&format!("{tag}-k{k}-m{m}"));
            {
                let store = ChunkStore::open(&root).unwrap();
                setup(&store);
            }

            // Power failure at mutation k.
            let plan = CrashPlan::at(k, mode);
            {
                let fs = Arc::new(CrashFs::new(Arc::clone(&plan)));
                let store = ChunkStore::open_with(&root, StoreConfig::with_fs(fs)).unwrap();
                plan.arm();
                let crashed = op(&store);
                assert!(crashed.is_err(), "{ctx}: crash did not surface");
            }
            assert!(plan.crashed(), "{ctx}: plan never fired");

            // Power restored: open replays the intent journal; the
            // caller retries the interrupted operation (idempotent:
            // `Exists` means the crash landed after the commit point,
            // `NotFound` means a remove already completed).
            let store = ChunkStore::open(&root)
                .unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
            match op(&store) {
                Ok(()) | Err(StoreError::Exists { .. } | StoreError::NotFound { .. }) => {}
                Err(e) => panic!("{ctx}: retry failed: {e}"),
            }
            store.gc().unwrap_or_else(|e| panic!("{ctx}: gc: {e}"));
            assert_recovered(&store, expected, garbage, &ctx);
            std::fs::remove_dir_all(&root).ok();
        }
    }
}

fn ingest(store: &ChunkStore, name: &str, bytes: &[u8]) {
    store
        .ingest(name, 1, &[("data", bytes)], CHUNK, &[])
        .unwrap_or_else(|e| panic!("setup ingest {name}: {e}"));
}

#[test]
fn torture_ingest_every_crash_point() {
    // B shares half its chunks with A, so the crashed ingest exercises
    // both dedup hits and fresh pack writes.
    let a = payload(&[(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)]);
    let b = payload(&[(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]);
    let expected = [("alpha", 1u64, a.clone()), ("beta", 1u64, b.clone())];
    sweep(
        "ingest",
        &move |s| ingest(s, "alpha", &a),
        &move |s| s.ingest("beta", 1, &[("data", &b)], CHUNK, &[]).map(|_| ()),
        &expected,
    );
}

#[test]
fn torture_remove_every_crash_point() {
    let a = payload(&[(3, 0), (3, 1), (3, 2), (3, 3)]);
    let b = payload(&[(4, 0), (4, 1), (3, 0), (3, 1)]);
    let expected = [("beta", 1u64, b.clone())];
    sweep(
        "remove",
        &move |s| {
            ingest(s, "alpha", &a);
            ingest(s, "beta", &b);
        },
        &|s| s.remove("alpha", 1),
        &expected,
    );
}

#[test]
fn torture_gc_every_crash_point() {
    // Alpha's chunks are disjoint from beta's, so removing alpha
    // leaves a fully dead pack for gc to reclaim.
    let a = payload(&[(5, 0), (5, 1), (5, 2), (5, 3)]);
    let b = payload(&[(6, 0), (6, 1), (6, 2), (6, 3)]);
    let expected = [("beta", 1u64, b.clone())];
    sweep(
        "gc",
        &move |s| {
            ingest(s, "alpha", &a);
            ingest(s, "beta", &b);
            s.remove("alpha", 1).unwrap();
        },
        &|s| s.gc().map(|_| ()),
        &expected,
    );
}

/// A policy loose enough that every test delta actually stays a delta.
const POLICY: DeltaPolicy = DeltaPolicy {
    anchor_every: 8,
    max_depth: 16,
};

fn delta_ingest(store: &ChunkStore, name: &str, version: u64, bytes: &[u8]) {
    store
        .ingest_delta(name, version, &[("data", bytes)], CHUNK, &[], &POLICY)
        .unwrap_or_else(|e| panic!("setup delta ingest {name}@{version}: {e}"));
}

#[test]
fn torture_delta_ingest_every_crash_point() {
    // v2 keeps four of v1's chunks in place (capture-time skips) and
    // rewrites two, so the crashed delta ingest exercises the skip
    // path, a fresh pack write, and the copy-on-write manifest publish.
    let v1 = payload(&[(9, 0), (9, 1), (9, 2), (9, 3), (9, 4), (9, 5)]);
    let v2 = payload(&[(9, 0), (9, 1), (9, 2), (9, 3), (10, 0), (10, 1)]);
    let expected = [("alpha", 1u64, v1.clone()), ("alpha", 2u64, v2.clone())];
    sweep(
        "delta-ingest",
        &move |s| ingest(s, "alpha", &v1),
        &move |s| {
            s.ingest_delta("alpha", 2, &[("data", &v2)], CHUNK, &[], &POLICY)
                .map(|stats| {
                    assert_eq!(stats.parent, Some(1), "delta must chain to v1");
                    assert_eq!(stats.chunks_skipped, 4, "unchanged chunks skipped");
                })
        },
        &expected,
    );
}

#[test]
fn torture_delta_tail_remove_every_crash_point() {
    // Removing the chain tail mid-crash must leave the surviving
    // prefix (anchor + mid delta) materializing byte-exactly: a
    // half-done remove may never strand v2 without the chunks it
    // borrows from v1.
    let v1 = payload(&[(11, 0), (11, 1), (11, 2), (11, 3)]);
    let v2 = payload(&[(11, 0), (11, 1), (12, 0), (12, 1)]);
    let v3 = payload(&[(11, 0), (11, 1), (12, 0), (13, 0)]);
    let expected = [("alpha", 1u64, v1.clone()), ("alpha", 2u64, v2.clone())];
    sweep(
        "delta-remove",
        &move |s| {
            ingest(s, "alpha", &v1);
            delta_ingest(s, "alpha", 2, &v2);
            delta_ingest(s, "alpha", 3, &v3);
        },
        &|s| s.remove("alpha", 3),
        &expected,
    );
}

#[test]
fn torture_flatten_every_crash_point() {
    // Flattening rewrites the delta manifest to a full anchor in
    // place; a crash at any boundary must leave either the old delta
    // or the new full manifest — both materialize identically.
    let v1 = payload(&[(14, 0), (14, 1), (14, 2), (14, 3)]);
    let v2 = payload(&[(14, 0), (14, 1), (15, 0), (15, 1)]);
    let expected = [("alpha", 1u64, v1.clone()), ("alpha", 2u64, v2.clone())];
    sweep(
        "flatten",
        &move |s| {
            ingest(s, "alpha", &v1);
            delta_ingest(s, "alpha", 2, &v2);
        },
        &|s| s.flatten("alpha", 2).map(|_| ()),
        &expected,
    );
}

#[test]
fn torture_chain_aware_gc_every_crash_point() {
    // Beta's disjoint pack dies; the anchor's pack stays live through
    // alpha@1's own refs even though alpha@2 merely *borrows* those
    // chunks. A crashed gc must reclaim the dead pack without ever
    // orphaning the parent the live delta references.
    let v1 = payload(&[(16, 0), (16, 1), (16, 2), (16, 3)]);
    let v2 = payload(&[(16, 0), (16, 1), (16, 2), (17, 0)]);
    let b = payload(&[(18, 0), (18, 1), (18, 2), (18, 3)]);
    let expected = [("alpha", 1u64, v1.clone()), ("alpha", 2u64, v2.clone())];
    sweep(
        "chain-gc",
        &move |s| {
            ingest(s, "alpha", &v1);
            delta_ingest(s, "alpha", 2, &v2);
            ingest(s, "beta", &b);
            s.remove("beta", 1).unwrap();
        },
        &|s| s.gc().map(|_| ()),
        &expected,
    );
}

#[test]
fn torture_veloc_flush_every_crash_point() {
    let values: Vec<f32> = (0..256).map(|i| (i as f32) * 0.37 - 11.0).collect();

    let config_with = |base: &Path, fs: Arc<dyn reprocmp_store::StoreFs>| VelocConfig {
        flush_threads: 1,
        flush_retry: RetryPolicy::with_attempts(1),
        fs,
        ..VelocConfig::rooted_at(base)
    };

    // Counting pass.
    let base = fresh_root("veloc-count");
    let plan = CrashPlan::observe();
    {
        let client = Client::new(config_with(
            &base,
            Arc::new(CrashFs::new(Arc::clone(&plan))),
        ))
        .unwrap();
        plan.arm();
        client.checkpoint("ckpt", 1, &[("x", &values)]).unwrap();
        client.wait_all().unwrap();
    }
    let points = plan.mutations();
    assert!(points > 0, "veloc flush crossed no mutation boundaries");
    std::fs::remove_dir_all(&base).ok();

    let mut modes = vec![CrashMode::Before];
    modes.extend(TORN_SEEDS.map(|seed| CrashMode::Torn { seed }));

    for k in 1..=points {
        for (m, &mode) in modes.iter().enumerate() {
            let ctx = format!("veloc flush crash point {k}/{points} mode {m}");
            let base = fresh_root(&format!("veloc-k{k}-m{m}"));
            let plan = CrashPlan::at(k, mode);
            let scratch_bytes;
            {
                let client = Client::new(config_with(
                    &base,
                    Arc::new(CrashFs::new(Arc::clone(&plan))),
                ))
                .unwrap();
                plan.arm();
                client.checkpoint("ckpt", 1, &[("x", &values)]).unwrap();
                assert!(
                    client.wait("ckpt", 1).is_err(),
                    "{ctx}: flush must fail at the crash point"
                );
                assert_eq!(
                    client.stats().failed,
                    1,
                    "{ctx}: the flush is marked failed"
                );
                let file_name = client.persistent_path("ckpt", 1);
                let scratch = base.join("scratch").join(file_name.file_name().unwrap());
                scratch_bytes = std::fs::read(scratch).unwrap();
            }
            assert!(plan.crashed(), "{ctx}: plan never fired");

            // Restart on the real filesystem: recover() sweeps torn
            // temporaries off the persistent tier and re-adopts the
            // scratch copy, whose flush must now complete.
            let client = Client::new(VelocConfig::rooted_at(&base)).unwrap();
            let readopted = client.recover().unwrap();
            assert!(
                readopted.contains(&("ckpt".to_owned(), 1)),
                "{ctx}: recover must re-adopt the stranded checkpoint"
            );
            client.wait_all().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(client.stats().flushed, 1, "{ctx}: the flush completed");
            let persisted = std::fs::read(client.persistent_path("ckpt", 1)).unwrap();
            assert_eq!(
                persisted, scratch_bytes,
                "{ctx}: recovered flush must be byte-exact"
            );
            std::fs::remove_dir_all(&base).ok();
        }
    }
}
