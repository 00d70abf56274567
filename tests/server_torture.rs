//! Crash-point torture for the daemon lifecycle: power-fail the store
//! under a *serving* `reprocmp-server` at every filesystem mutation
//! boundary and prove the shutdown and restart contracts hold.
//!
//! The sweep mirrors `tests/crash_torture.rs`: a counting pass runs
//! the full daemon lifecycle (start → ingest traffic → read traffic →
//! graceful shutdown) over a [`CrashFs`] wrapping
//! [`CrashPlan::observe`] to number every store mutation, then each
//! crash point `k` × failure mode (fail-before + three torn-write
//! seeds) replays the lifecycle with the power cut at `k`. Every pass
//! must uphold:
//!
//! * **shutdown always drains** — every accepted job reaches a
//!   terminal state even while the store is dying underneath; the
//!   daemon neither hangs nor panics, and dropping it releases the
//!   advisory lock;
//! * **acknowledged means durable** — any ingest the daemon reported
//!   `Done` materializes byte-exactly after a real-filesystem reopen
//!   (which replays the store's intent journal);
//! * **failed means invisible** — an ingest the crash killed leaves no
//!   trace: after recovery the object is absent and a retry lands it
//!   cleanly; scrub is clean, the dedup ledger balances, gc converges;
//! * **reports survive the crash** — compare jobs re-run against the
//!   recovered store produce **byte-identical** documents to the ones
//!   the healthy counting-pass daemon served.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use reprocmp::server::{execute_spec, JobSpec, JobState, ObjectRef, Server, ServerConfig};
use reprocmp_core::{CompareEngine, EngineConfig};
use reprocmp_io::{CrashMode, CrashPlan};
use reprocmp_store::{ChunkStore, CrashFs, StoreFs, LOCK_FILE};
use serde::Value;

/// A job's wire verb, for failure messages.
fn verb(spec: &JobSpec) -> &'static str {
    match spec {
        JobSpec::Ingest { .. } => "ingest",
        JobSpec::Compare { .. } => "compare",
        JobSpec::CompareMany { .. } => "compare_many",
        JobSpec::Materialize { .. } => "materialize",
    }
}

const CHUNK: usize = 64;
const VALUES_PER_OBJECT: usize = 64;
const TORN_SEEDS: [u64; 3] = [0x00c0_ffee, 0x1bad_b002, 0x5eed_cafe];

fn fresh_root(tag: &str) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("reprocmp-srv-torture-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    root
}

/// Renders a result document for byte-identity checks (same idiom as
/// the concurrency oracle).
fn encode_value(v: &Value) -> String {
    serde_json::to_string(v).expect("encode result document")
}

/// Each object's payload sits in its own value band (`salt * 100`),
/// so no two objects — and no two versions — ever share a chunk.
/// That keeps dedup attribution, and therefore the store's mutation
/// count, independent of how the two workers interleave the ingests:
/// the counting pass and every crash pass cross the same number of
/// mutation boundaries.
fn object_payload(salt: u32) -> Vec<u8> {
    (0..VALUES_PER_OBJECT)
        .flat_map(|i| (salt as f32 * 100.0 + i as f32 * 0.25).to_le_bytes())
        .collect()
}

fn obj(name: &str, version: u64) -> ObjectRef {
    ObjectRef {
        name: name.to_owned(),
        version,
    }
}

/// Write traffic: four chunk-disjoint objects.
fn ingest_specs() -> Vec<JobSpec> {
    [
        ("run_a", 1, 1),
        ("run_a", 2, 2),
        ("run_b", 1, 3),
        ("run_b", 2, 4),
    ]
    .into_iter()
    .map(|(name, version, salt)| JobSpec::Ingest {
        name: name.to_owned(),
        version,
        chunk_bytes: CHUNK,
        data: object_payload(salt),
    })
    .collect()
}

/// Read traffic: compares and a materialize over the ingested set.
fn read_specs() -> Vec<JobSpec> {
    vec![
        JobSpec::Compare {
            left: obj("run_a", 1),
            right: obj("run_a", 2),
        },
        JobSpec::Compare {
            left: obj("run_a", 1),
            right: obj("run_b", 1),
        },
        JobSpec::CompareMany {
            baseline: obj("run_a", 1),
            runs: vec![obj("run_a", 2), obj("run_b", 1), obj("run_b", 2)],
        },
        JobSpec::Materialize {
            name: "run_b".to_owned(),
            version: 2,
        },
    ]
}

fn daemon_config(root: &Path, fs: Arc<dyn StoreFs>) -> ServerConfig {
    ServerConfig {
        chunk_bytes: CHUNK,
        workers: 2,
        queue_capacity: 32,
        quantum: 4,
        fs,
        ..ServerConfig::rooted_at(root)
    }
}

/// The engine the daemon runs — rebuilt identically for offline
/// replay so recovered-store reports are comparable byte-for-byte.
fn daemon_engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: 1e-5,
        ..EngineConfig::default()
    })
}

/// One full daemon lifetime over `fs`: start, submit the write
/// traffic (armed mid-flight when `arm` is given), then the read
/// traffic, then graceful shutdown. Returns every job's terminal
/// outcome — panics if any accepted job fails to drain.
fn run_lifecycle(
    root: &Path,
    fs: Arc<dyn StoreFs>,
    arm: Option<&CrashPlan>,
    ctx: &str,
) -> Vec<(JobSpec, JobState, Option<Value>, Option<String>)> {
    let server = Server::start(daemon_config(root, fs))
        .unwrap_or_else(|e| panic!("{ctx}: daemon start: {e}"));
    assert!(
        root.join(LOCK_FILE).exists(),
        "{ctx}: a running daemon must hold the advisory lock"
    );
    if let Some(plan) = arm {
        plan.arm();
    }

    let mut ids = Vec::new();
    for spec in ingest_specs() {
        let id = server
            .submit("torture", spec.clone())
            .unwrap_or_else(|e| panic!("{ctx}: submit {}: {e}", verb(&spec)));
        ids.push((id, spec));
    }
    // Barrier: read jobs only go in once every ingest is terminal, so
    // the healthy pass's compare results are well-defined goldens.
    for (id, _) in &ids {
        let _ = server.wait(*id);
    }
    for spec in read_specs() {
        let id = server
            .submit("torture", spec.clone())
            .unwrap_or_else(|e| panic!("{ctx}: submit {}: {e}", verb(&spec)));
        ids.push((id, spec));
    }

    // The contract under test: graceful shutdown drains every
    // admitted job to a terminal state — even mid-power-failure.
    server.shutdown();

    let outcomes = ids
        .into_iter()
        .map(|(id, spec)| {
            let status = server
                .status(id)
                .unwrap_or_else(|| panic!("{ctx}: job {id} vanished"));
            assert!(
                status.state.is_terminal(),
                "{ctx}: job {id} ({}) not drained: {:?}",
                verb(&spec),
                status.state
            );
            (
                spec,
                status.state,
                status.result.as_deref().cloned(),
                status.error,
            )
        })
        .collect();
    drop(server);
    assert!(
        !root.join(LOCK_FILE).exists(),
        "{ctx}: dropping the daemon must release the advisory lock"
    );
    outcomes
}

/// Post-crash verification on the real filesystem: reopen (replays
/// the intent journal), re-land what the crash killed, and hold the
/// recovered store to the full honesty checklist.
fn verify_recovery(
    root: &Path,
    outcomes: &[(JobSpec, JobState, Option<Value>, Option<String>)],
    golden_reports: &BTreeMap<String, String>,
    ctx: &str,
) {
    let store =
        ChunkStore::open(root).unwrap_or_else(|e| panic!("{ctx}: reopen after crash failed: {e}"));
    let engine = daemon_engine();

    // Acknowledged means durable: every ingest the daemon answered
    // `Done` for must survive the crash byte-exactly.
    for (spec, state, _, _) in outcomes {
        let JobSpec::Ingest {
            name,
            version,
            data,
            ..
        } = spec
        else {
            continue;
        };
        if *state == JobState::Done {
            let got = store.materialize(name, *version).unwrap_or_else(|e| {
                panic!("{ctx}: acknowledged ingest {name}@{version} lost: {e}")
            });
            assert_eq!(
                &got, data,
                "{ctx}: acknowledged ingest {name}@{version} must be byte-exact"
            );
        }
    }

    // Failed means invisible — and retryable: the crashed ingest left
    // nothing addressable, so re-landing it through the same engine
    // path must succeed cleanly.
    for spec in ingest_specs() {
        let JobSpec::Ingest {
            ref name,
            version,
            ref data,
            ..
        } = spec
        else {
            unreachable!()
        };
        if store.materialize(name, version).is_err() {
            let outcome = execute_spec(&store, &engine, &spec);
            let result = outcome
                .result
                .unwrap_or_else(|e| panic!("{ctx}: re-landing {name}@{version} failed: {e}"));
            assert!(
                matches!(result, Value::Object(_)),
                "{ctx}: retried ingest must return its stats document"
            );
            let got = store
                .materialize(name, version)
                .expect("retried ingest lands");
            assert_eq!(&got, data, "{ctx}: retried {name}@{version} byte-exact");
        }
    }

    // Store honesty after recovery + retries.
    let scrub = store
        .scrub()
        .unwrap_or_else(|e| panic!("{ctx}: scrub: {e}"));
    assert!(
        scrub.is_clean(),
        "{ctx}: scrub found rot after recovery: {:?}",
        scrub.failures
    );
    store.gc().unwrap_or_else(|e| panic!("{ctx}: gc: {e}"));
    let stats = store.stats();
    let logical: u64 = ingest_specs()
        .iter()
        .map(|s| match s {
            JobSpec::Ingest { data, .. } => data.len() as u64,
            _ => 0,
        })
        .sum();
    assert_eq!(stats.objects, 4, "{ctx}: all four objects present");
    assert_eq!(stats.bytes_logical, logical, "{ctx}: logical bytes");
    // Chunk-disjoint payloads: nothing dedups, so physical == logical.
    assert_eq!(stats.bytes_physical, logical, "{ctx}: physical bytes");
    assert_eq!(
        stats.bytes_logical,
        stats.bytes_physical + stats.bytes_deduped + stats.bytes_skipped,
        "{ctx}: ledger must balance"
    );
    let gc2 = store.gc().unwrap_or_else(|e| panic!("{ctx}: gc: {e}"));
    assert_eq!(gc2.packs_deleted, 0, "{ctx}: gc must have converged");

    // Reports survive the crash: the recovered store answers every
    // read job byte-identically to the healthy daemon's goldens.
    for spec in read_specs() {
        let outcome = execute_spec(&store, &engine, &spec);
        let value = outcome
            .result
            .unwrap_or_else(|e| panic!("{ctx}: {} on recovered store: {e}", verb(&spec)));
        let got = encode_value(&value);
        let golden = &golden_reports[&format!("{spec:?}")];
        assert_eq!(
            &got,
            golden,
            "{ctx}: {} report drifted across crash recovery",
            verb(&spec)
        );
    }
}

#[test]
fn torture_daemon_lifecycle_every_crash_point() {
    // Counting pass: a healthy daemon lifetime numbers every store
    // mutation and pins the golden read-job reports.
    let root = fresh_root("count");
    let plan = CrashPlan::observe();
    let outcomes = run_lifecycle(
        &root,
        Arc::new(CrashFs::new(Arc::clone(&plan))),
        Some(&plan),
        "counting pass",
    );
    let points = plan.mutations();
    assert!(points > 0, "daemon traffic crossed no mutation boundaries");
    let mut golden_reports = BTreeMap::new();
    for (spec, state, result, error) in &outcomes {
        assert_eq!(
            *state,
            JobState::Done,
            "counting pass: {} must succeed (error: {error:?})",
            verb(spec)
        );
        if !matches!(spec, JobSpec::Ingest { .. }) {
            golden_reports.insert(
                format!("{spec:?}"),
                encode_value(result.as_ref().expect("done jobs carry results")),
            );
        }
    }
    std::fs::remove_dir_all(&root).ok();

    let mut modes = vec![CrashMode::Before];
    modes.extend(TORN_SEEDS.map(|seed| CrashMode::Torn { seed }));

    for k in 1..=points {
        for (m, &mode) in modes.iter().enumerate() {
            let ctx = format!("daemon crash point {k}/{points} mode {m}");
            let root = fresh_root(&format!("k{k}-m{m}"));
            let plan = CrashPlan::at(k, mode);
            let outcomes = run_lifecycle(
                &root,
                Arc::new(CrashFs::new(Arc::clone(&plan))),
                Some(&plan),
                &ctx,
            );
            assert!(plan.crashed(), "{ctx}: plan never fired");
            // At least one write job saw the power failure; the daemon
            // must have recorded it as a failure, not swallowed it.
            assert!(
                outcomes
                    .iter()
                    .any(|(_, state, _, _)| *state == JobState::Failed),
                "{ctx}: the crash must surface as at least one failed job"
            );
            for (spec, state, _, error) in &outcomes {
                if *state == JobState::Failed {
                    let message = error.as_deref().unwrap_or("");
                    assert!(
                        !message.is_empty(),
                        "{ctx}: failed {} must carry an error message",
                        verb(spec)
                    );
                }
            }
            verify_recovery(&root, &outcomes, &golden_reports, &ctx);
            std::fs::remove_dir_all(&root).ok();
        }
    }
}
