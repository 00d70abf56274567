//! Golden lock-in for the `analyze` JSON document.
//!
//! A fixed-seed divergent history pair runs through the full forensics
//! pipeline (bisection → front tracking → per-region attribution) and
//! the serialized [`DivergenceReport`] is compared byte-for-byte
//! against `tests/goldens/analyze_divergence.json`. The report
//! contains no durations — only counts and bytes — so the golden is
//! exact on every host.
//!
//! `legacy_analyze_v1.json` is the document as the schema's first
//! consumers saw it (bisection + front only, before per-region
//! attribution); the additive-schema test proves every field they
//! read is still present with the identical value.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test analyze_json
//! git diff tests/goldens/   # review before committing
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::analyze::attribution::{RegionDType, TypedRegionMap};
use reprocmp::analyze::{analyze, AnalyzeOptions};
use reprocmp::core::{CheckpointHistory, CheckpointSource, CompareEngine, EngineConfig};
use reprocmp::io::Timeline;
use reprocmp::obs::Observer;
use std::path::PathBuf;

mod common;
use common::{added_keys, assert_additive, golden_object};

const CHUNK: usize = 256; // 64 values per chunk
const VALUES: usize = 1024;

fn engine() -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: CHUNK,
        error_bound: 1e-5,
        max_recorded_diffs: 8,
        ..EngineConfig::default()
    })
}

/// Fixed-seed history pair: 12 checkpoints, divergence at iteration 60
/// spreading forward through a fixed churned index set.
fn seeded_pair(e: &CompareEngine) -> (CheckpointHistory, CheckpointHistory) {
    let mut a = CheckpointHistory::new();
    let mut b = CheckpointHistory::new();
    let mut rng = StdRng::seed_from_u64(2024);
    let churned: Vec<usize> = (0..VALUES / 16).map(|_| rng.gen_range(0..VALUES)).collect();
    for it in (0..12u64).map(|i| i * 10) {
        let mut vrng = StdRng::seed_from_u64(0x5EED ^ it);
        let base: Vec<f32> = (0..VALUES).map(|_| vrng.gen_range(-1.0..1.0)).collect();
        let mut other = base.clone();
        if it >= 60 {
            let step = (it - 60) / 10 + 1;
            for &ix in &churned {
                other[ix] += 0.01 * step as f32;
            }
        }
        a.insert(0, it, CheckpointSource::in_memory(&base, e).unwrap());
        b.insert(0, it, CheckpointSource::in_memory(&other, e).unwrap());
    }
    (a, b)
}

fn report_json() -> String {
    let e = engine();
    let (a, b) = seeded_pair(&e);
    let options = AnalyzeOptions {
        regions: Some(TypedRegionMap::from_regions([
            ("position", RegionDType::F32, (VALUES / 2) as u64),
            ("velocity", RegionDType::F32, (VALUES / 2) as u64),
        ])),
    };
    let report = analyze(
        &e,
        &a,
        &b,
        &Timeline::wall(),
        &Observer::disabled(),
        &options,
    )
    .expect("analyze");
    let mut json = report.to_json();
    json.push('\n');
    json
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

#[test]
fn golden_analyze_divergence() {
    let actual = report_json();
    let path = golden_path("analyze_divergence");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    if actual != expected {
        let diverged = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        match diverged {
            Some((line, (a, e))) => panic!(
                "analyze golden mismatch at line {}:\n  actual:   {a}\n  expected: {e}\n\
                 (UPDATE_GOLDEN=1 regenerates after an intentional change)",
                line + 1
            ),
            None => panic!(
                "analyze golden mismatch: lengths differ ({} vs {} bytes)",
                actual.len(),
                expected.len()
            ),
        }
    }
}

#[test]
fn report_json_is_deterministic_and_duration_free() {
    let one = report_json();
    let two = report_json();
    assert_eq!(one, two);
    assert!(one.contains("\"schema_version\": 1"));
    assert!(one.contains("\"bisection\""));
    assert!(one.contains("\"front\""));
    assert!(one.contains("\"regions\""));
    // The document carries no timing: goldens stay host-independent.
    for banned in ["secs", "nanos", "duration"] {
        assert!(!one.contains(banned), "report leaks timing: `{banned}`");
    }
}

// ---------------------------------------------------------------------
// Legacy-schema compatibility
// ---------------------------------------------------------------------

/// Documents written by the schema's first consumers (bisection +
/// front tracking only, before per-region attribution and boundary
/// detail) must stay readable: every field they parse is present with
/// the identical value, and the only additions since are the
/// `regions` and `boundary` sections.
#[test]
fn v1_analyze_documents_remain_readable_and_schema_is_additive() {
    let legacy = golden_object("legacy_analyze_v1");
    for key in [
        "schema_version",
        "divergent",
        "iterations",
        "ranks",
        "bisection",
        "front",
    ] {
        assert!(legacy.get(key).is_some(), "legacy document lost `{key}`");
    }
    assert!(
        legacy.get("regions").is_none() && legacy.get("boundary").is_none(),
        "the legacy fixture must predate per-region attribution"
    );

    let current = golden_object("analyze_divergence");
    assert_additive(&legacy, &current, "document");
    assert_eq!(
        added_keys(&legacy, &current),
        ["regions", "boundary"],
        "additions beyond the attribution sections"
    );
}
