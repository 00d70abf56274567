//! Scrub-and-repair + degraded-mode comparison, end to end.
//!
//! Two stored runs differ in three chunks. The pack holding run 2's
//! unique chunks is then damaged on disk:
//!
//! * **One corrupt chunk** in a parity group: `fsck --repair`
//!   reconstructs it from the XOR parity block in place, the
//!   checkpoint materializes byte-exactly again, and a store-backed
//!   comparison is indistinguishable from the pre-damage one. The
//!   repair ledger (`FsckReport`, `repair.*` counters, the `repair`
//!   flight-recorder event) accounts exactly one chunk, one pack.
//!
//! * **Two corrupt chunks** in the same group: unrecoverable. The
//!   pack is quarantined, and a comparison under
//!   [`FailurePolicy::Quarantine`] still completes — reporting the
//!   real difference that survives in an intact chunk while listing
//!   *exactly* the corrupt chunks as `unverified` ranges, with the
//!   `quarantine.*` counters and the `pack_quarantine` event carrying
//!   the same numbers.

use reprocmp_core::{
    CheckpointSource, ChunkRange, CompareEngine, Ctx, EngineConfig, FailurePolicy,
};
use reprocmp_obs::{EventKind, Journal, ObsClock};
use reprocmp_store::pack::{pack_file_name, scan_pack};
use reprocmp_store::ChunkStore;
use std::path::{Path, PathBuf};

const CHUNK_BYTES: usize = 64;
const VALUES_PER_CHUNK: usize = CHUNK_BYTES / 4;

fn fresh_root(tag: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("reprocmp-repairq-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK_BYTES,
        error_bound: 1e-6,
        failure_policy: FailurePolicy::Quarantine,
        ..EngineConfig::default()
    })
}

fn payload_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Ingests `values` with its encoded Merkle tree as metadata, so
/// store-backed sources never materialize the full payload (stage 2
/// reads only the flagged chunks — the degraded path under test).
fn ingest(store: &ChunkStore, engine: &CompareEngine, name: &str, values: &[f32]) -> Option<u32> {
    let meta = engine.encode_metadata(values);
    let stats = store
        .ingest(
            name,
            1,
            &[("data", &payload_bytes(values))],
            CHUNK_BYTES,
            &meta,
        )
        .unwrap();
    stats.pack
}

/// Two runs differing in payload chunks 3, 6, and 10 (one value each).
/// Ingested after run 1, run 2's pack holds exactly those three
/// chunks — everything else dedups into run 1's pack.
fn two_runs() -> (Vec<f32>, Vec<f32>) {
    let run1: Vec<f32> = (0..1024).map(|i| (i as f32 * 0.001).sin()).collect();
    let mut run2 = run1.clone();
    for chunk in [3usize, 6, 10] {
        run2[chunk * VALUES_PER_CHUNK] += 0.5;
    }
    (run1, run2)
}

/// Flips one byte of the stored data of the chunks whose payload
/// index is listed in `chunks`, inside pack `pack_id`.
fn corrupt_chunks(root: &Path, store: &ChunkStore, pack_id: u32, chunks: &[u64]) {
    let layout = store.layout("r2", 1).unwrap();
    let digests = layout
        .payload_chunk_digests
        .expect("uniform chunking yields a digest sequence");
    let path = root.join("packs").join(pack_file_name(pack_id));
    let mut bytes = std::fs::read(&path).unwrap();
    for &chunk in chunks {
        let digest = digests[chunk as usize];
        let record = scan_pack(&bytes)
            .unwrap()
            .into_iter()
            .find(|r| r.digest == digest)
            .expect("run 2's unique chunk lives in its own pack");
        bytes[record.data_offset as usize] ^= 0xff;
    }
    std::fs::write(&path, &bytes).unwrap();
}

fn events_named(journal: &Journal, name: &str) -> Vec<EventKind> {
    journal
        .events()
        .into_iter()
        .filter(|e| e.lane == "store" && e.kind.type_name() == name)
        .map(|e| e.kind)
        .collect()
}

#[test]
fn single_corrupt_chunk_is_repaired_from_parity() {
    let root = fresh_root("repair");
    let store = ChunkStore::open(&root).unwrap();
    let e = engine();
    let (run1, run2) = two_runs();
    ingest(&store, &e, "r1", &run1);
    let pack = ingest(&store, &e, "r2", &run2).expect("run 2 stores new chunks");

    let sa = CheckpointSource::from_store(&store, "r1", 1, &e).unwrap();
    let sb = CheckpointSource::from_store(&store, "r2", 1, &e).unwrap();
    let clean = e.compare(&sa, &sb, &Ctx::default()).unwrap();
    assert_eq!(clean.stats.diff_count, 3);
    assert!(clean.fully_verified());

    let journal = Journal::new(ObsClock::frozen());
    store.journal_slot().set(journal.clone());
    corrupt_chunks(&root, &store, pack, &[3]);
    assert_eq!(store.scrub().unwrap().failures.len(), 1);

    // Report-only pass: finds the damage, fixes nothing.
    let dry = store.fsck(false).unwrap();
    assert_eq!(dry.chunks_corrupt, 1);
    assert_eq!(dry.chunks_repaired, 0);
    assert!(!dry.healthy());

    // Repair pass: exactly one chunk reconstructed, pack fully healed.
    let fixed = store.fsck(true).unwrap();
    assert_eq!(fixed.chunks_corrupt, 1);
    assert_eq!(fixed.chunks_repaired, 1);
    assert_eq!(fixed.packs_repaired, 1);
    assert_eq!(fixed.chunks_unrecoverable, 0);
    assert!(fixed.packs_quarantined.is_empty());
    assert!(fixed.healthy());

    // Byte-exact again, on disk and through the comparison path.
    assert!(store.scrub().unwrap().is_clean());
    assert_eq!(store.materialize("r2", 1).unwrap(), payload_bytes(&run2));
    let sa = CheckpointSource::from_store(&store, "r1", 1, &e).unwrap();
    let sb = CheckpointSource::from_store(&store, "r2", 1, &e).unwrap();
    let after = e.compare(&sa, &sb, &Ctx::default()).unwrap();
    assert!(after.fully_verified());
    assert_eq!(after.stats.diff_count, clean.stats.diff_count);
    assert_eq!(after.differences, clean.differences);

    // The repair ledger: counters and flight-recorder events agree.
    assert_eq!(store.metrics().repair_chunks.get(), 1);
    assert_eq!(store.metrics().repair_packs.get(), 1);
    assert_eq!(store.metrics().quarantine_packs.get(), 0);
    assert_eq!(
        events_named(&journal, "repair"),
        vec![EventKind::Repair {
            pack: u64::from(pack),
            chunks: 1
        }]
    );
    assert!(events_named(&journal, "pack_quarantine").is_empty());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn unrecoverable_pack_quarantines_and_comparison_degrades_exactly() {
    let root = fresh_root("quarantine");
    let store = ChunkStore::open(&root).unwrap();
    let e = engine();
    let (run1, run2) = two_runs();
    ingest(&store, &e, "r1", &run1);
    let pack = ingest(&store, &e, "r2", &run2).expect("run 2 stores new chunks");

    let sa = CheckpointSource::from_store(&store, "r1", 1, &e).unwrap();
    let sb = CheckpointSource::from_store(&store, "r2", 1, &e).unwrap();
    let clean = e.compare(&sa, &sb, &Ctx::default()).unwrap();
    assert_eq!(clean.stats.diff_count, 3);

    // Two corrupt chunks in the same 8-wide parity group: XOR can
    // reconstruct at most one, so the pack is beyond repair.
    let journal = Journal::new(ObsClock::frozen());
    store.journal_slot().set(journal.clone());
    corrupt_chunks(&root, &store, pack, &[3, 6]);
    let report = store.fsck(true).unwrap();
    assert_eq!(report.chunks_corrupt, 2);
    assert_eq!(report.chunks_repaired, 0);
    assert_eq!(report.chunks_unrecoverable, 2);
    assert_eq!(report.packs_quarantined, vec![pack]);
    assert!(!report.healthy());
    assert_eq!(store.stats().packs_quarantined, 1);

    // Degraded-mode comparison: completes, reports the difference in
    // the intact chunk (10), and lists exactly the two corrupt chunks
    // as unverified — nothing more, nothing less.
    let sa = CheckpointSource::from_store(&store, "r1", 1, &e).unwrap();
    let sb = CheckpointSource::from_store(&store, "r2", 1, &e).unwrap();
    let degraded = e.compare(&sa, &sb, &Ctx::default()).unwrap();
    assert_eq!(
        degraded.unverified,
        vec![
            ChunkRange { first: 3, count: 1 },
            ChunkRange { first: 6, count: 1 }
        ]
    );
    assert_eq!(degraded.unverified_chunks(), 2);
    assert!(!degraded.fully_verified());
    assert_eq!(degraded.stats.diff_count, 1);
    assert_eq!(degraded.differences.len(), 1);
    assert_eq!(
        degraded.differences[0].index,
        10 * VALUES_PER_CHUNK as u64,
        "the difference in the still-verifiable chunk must survive"
    );
    // Everything the degraded report *does* claim matches the clean
    // report: its one difference is clean's third, chunk totals agree.
    assert_eq!(degraded.differences[0], clean.differences[2]);
    assert_eq!(degraded.stats.chunks_total, clean.stats.chunks_total);

    // The quarantine ledger: counters and events carry the same
    // numbers as the fsck report.
    assert_eq!(store.metrics().quarantine_packs.get(), 1);
    assert_eq!(store.metrics().quarantine_chunks.get(), 2);
    assert_eq!(store.metrics().repair_chunks.get(), 0);
    assert_eq!(
        events_named(&journal, "pack_quarantine"),
        vec![EventKind::PackQuarantine {
            pack: u64::from(pack),
            chunks: 2
        }]
    );

    // Re-ingesting a run that contains healthy copies of the lost
    // chunks repoints the index away from the quarantined pack, and
    // gc reclaims it once nothing references it.
    match store.ingest(
        "r2-again",
        1,
        &[("data", &payload_bytes(&run2))],
        CHUNK_BYTES,
        &[],
    ) {
        Ok(stats) => assert!(stats.chunks_stored >= 3, "lost chunks must be re-stored"),
        Err(e) => panic!("re-ingest after quarantine failed: {e}"),
    }
    assert_eq!(store.materialize("r2", 1).unwrap(), payload_bytes(&run2));
    store.gc().unwrap();
    assert_eq!(
        store.stats().packs_quarantined,
        0,
        "gc prunes the quarantined pack"
    );
    assert!(store.scrub().unwrap().is_clean());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn strict_mode_fails_degraded_comparison_through_the_cli() {
    // The CLI satellite, end to end: `compare --store … --strict`
    // exits non-zero when chunks went unverified, and plain mode
    // still succeeds with a warning.
    let root = fresh_root("strict");
    let store = ChunkStore::open(&root).unwrap();
    let e = engine();
    let (run1, run2) = two_runs();
    ingest(&store, &e, "r1", &run1);
    let pack = ingest(&store, &e, "r2", &run2).expect("run 2 stores new chunks");
    corrupt_chunks(&root, &store, pack, &[3, 6]);
    store.fsck(true).unwrap();
    drop(store);

    let argv = |strict: bool| -> Vec<String> {
        let mut v = vec![
            "compare".to_owned(),
            "--store".to_owned(),
            root.display().to_string(),
            "--run1".to_owned(),
            "r1@1".to_owned(),
            "--run2".to_owned(),
            "r2@1".to_owned(),
            "--chunk-bytes".to_owned(),
            CHUNK_BYTES.to_string(),
            "--error-bound".to_owned(),
            "1e-6".to_owned(),
            "--failure-policy".to_owned(),
            "quarantine".to_owned(),
        ];
        if strict {
            v.push("--strict".to_owned());
        }
        v
    };

    let lenient = reprocmp_cli::run(&argv(false)).expect("non-strict degraded compare succeeds");
    assert!(
        lenient.contains("WARNING") && lenient.contains("unverified chunks"),
        "plain mode must warn about unverified chunks:\n{lenient}"
    );

    match reprocmp_cli::run(&argv(true)) {
        Err(reprocmp_cli::CliError::Failed(out)) => assert!(
            out.contains("STRICT"),
            "strict failure must say why:\n{out}"
        ),
        other => panic!("--strict must fail on a degraded compare, got {other:?}"),
    }
    std::fs::remove_dir_all(&root).ok();
}
