//! Golden-report lock-in for the full comparison pipeline.
//!
//! Three fixed-seed checkpoint pairs run through the engine on a
//! simulated Lustre timeline with modeled compute, and the entire
//! [`CompareReport`] — stage breakdown, phase timers, I/O counters,
//! localized differences — is serialized to JSON and compared
//! byte-for-byte against checked-in goldens under `tests/goldens/`.
//!
//! Everything in the report is deterministic under simulation: phase
//! times come from the roofline models and the virtual clock (never
//! the wall), stage-2 slices arrive in submission order, and durations
//! serialize as integer `{secs, nanos}`. Any observable change to the
//! engine — a different BFS visit count, an extra read, a shifted
//! stage attribution — shows up as a golden diff.
//!
//! To regenerate after an *intentional* change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! git diff tests/goldens/   # review before committing
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp::device::Device;
use reprocmp::io::{CostModel, SimClock, Timeline};
use serde::Value;
use std::path::PathBuf;

mod common;
use common::{added_keys, assert_additive, golden_object, parse_object};

/// One golden scenario: a seed plus the workload shape it drives.
struct Scenario {
    name: &'static str,
    seed: u64,
    n_values: usize,
    perturb_prob: f64,
}

const SCENARIOS: [Scenario; 3] = [
    Scenario {
        name: "seed1_sparse",
        seed: 1,
        n_values: 64 << 10,
        perturb_prob: 0.002,
    },
    Scenario {
        name: "seed2_moderate",
        seed: 2,
        n_values: 64 << 10,
        perturb_prob: 0.01,
    },
    Scenario {
        name: "seed3_identical",
        seed: 3,
        n_values: 32 << 10,
        perturb_prob: 0.0,
    },
];

/// Deterministic divergent pair. Uses only the vendored RNG (no
/// transcendental functions whose libm results could vary by host).
fn generate(sc: &Scenario) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(sc.seed);
    let mut run1 = Vec::with_capacity(sc.n_values);
    for _ in 0..sc.n_values {
        run1.push(rng.gen_range(-2.0f32..2.0));
    }
    let mut run2 = run1.clone();
    if sc.perturb_prob > 0.0 {
        // Fixed magnitude tiers straddling the 1e-5 bound: two above
        // (real differences) and two below (hash-level noise only).
        const TIERS: [f64; 4] = [1e-3, 1e-4, 1e-6, 1e-7];
        for v in run2.iter_mut() {
            if rng.gen_bool(sc.perturb_prob) {
                let u: f64 = rng.gen();
                let mag = TIERS[((u * 4.0) as usize).min(3)];
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                *v += (mag * sign) as f32;
            }
        }
    }
    (run1, run2)
}

fn report_json(sc: &Scenario) -> String {
    let (run1, run2) = generate(sc);
    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 4096,
        error_bound: 1e-5,
        device: Device::sim_cpu_core(),
        max_recorded_diffs: 8,
        ..EngineConfig::default()
    });
    let clock = SimClock::new();
    let model = CostModel::lustre_pfs();
    let a = CheckpointSource::in_memory_with_model(&run1, &engine, model, Some(clock.clone()))
        .expect("source 1");
    let b = CheckpointSource::in_memory_with_model(&run2, &engine, model, Some(clock.clone()))
        .expect("source 2");
    let report = engine
        .compare(
            &a,
            &b,
            &Ctx {
                timeline: Timeline::sim(clock),
                ..Ctx::default()
            },
        )
        .expect("compare");
    let mut json = serde_json::to_string_pretty(&report).expect("serialize");
    json.push('\n');
    json
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.json"))
}

fn check_scenario(sc: &Scenario) {
    let actual = report_json(sc);
    let path = golden_path(sc.name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("mkdir");
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
        // Point at the first diverging line so the failure is
        // actionable without a JSON diff tool.
        let diverged = actual
            .lines()
            .zip(expected.lines())
            .enumerate()
            .find(|(_, (a, e))| a != e);
        match diverged {
            Some((line, (a, e))) => panic!(
                "golden mismatch for `{}` at line {}:\n  actual:   {a}\n  expected: {e}\n\
                 (UPDATE_GOLDEN=1 regenerates after an intentional change)",
                sc.name,
                line + 1
            ),
            None => panic!(
                "golden mismatch for `{}`: lengths differ ({} vs {} bytes)",
                sc.name,
                actual.len(),
                expected.len()
            ),
        }
    }
}

#[test]
fn golden_seed1_sparse() {
    check_scenario(&SCENARIOS[0]);
}

#[test]
fn golden_seed2_moderate() {
    check_scenario(&SCENARIOS[1]);
}

#[test]
fn golden_seed3_identical() {
    check_scenario(&SCENARIOS[2]);
}

// ---------------------------------------------------------------------
// Legacy-schema compatibility
// ---------------------------------------------------------------------

/// Every number in each named top-level block is zero.
fn assert_blocks_all_zero(report: &Value, blocks: &[&str]) {
    for block in blocks {
        let fields = report.get(block).and_then(Value::as_object);
        for (name, value) in fields.unwrap_or_else(|| panic!("{block} is not an object")) {
            assert_eq!(value, &Value::UInt(0), "{block}.{name} nonzero");
        }
    }
}

/// Reports written before the batch scheduler existed (no `cache`
/// field) must stay readable, and the new schema must be *strictly
/// additive*: every field an old consumer reads is still present with
/// the identical value, and the only new field is the cache ledger.
#[test]
fn pre_cache_reports_remain_readable_and_schema_is_additive() {
    let legacy = golden_object("legacy_pre_cache");
    for key in [
        "stats",
        "differences",
        "breakdown",
        "stages",
        "io",
        "unverified",
    ] {
        assert!(legacy.get(key).is_some(), "legacy report lost `{key}`");
    }
    assert!(
        legacy.get("cache").is_none(),
        "the legacy fixture must predate the cache ledger"
    );

    // The regenerated golden for the same scenario: identical on every
    // field the old schema had, plus exactly the `cache` object.
    let current = golden_object("seed2_moderate");
    assert_additive(&legacy, &current, "report");
    assert_eq!(
        added_keys(&legacy, &current),
        ["cache", "store", "capture", "chain"],
        "additions beyond the cache/store/capture/chain ledgers"
    );
    // A plain pairwise in-memory report carries all-zero ledgers.
    assert_blocks_all_zero(&current, &["cache", "store", "capture", "chain"]);
}

/// Reports written before the persistent capture store existed (no
/// `store` field, but already carrying the `cache` ledger) must stay
/// readable, and the only schema addition since is the store's read
/// accounting block.
#[test]
fn pre_store_reports_remain_readable_and_schema_is_additive() {
    let legacy = golden_object("legacy_pre_store");
    assert!(
        legacy.get("cache").is_some(),
        "the pre-store fixture postdates the cache ledger"
    );
    assert!(
        legacy.get("store").is_none(),
        "the pre-store fixture must predate the store ledger"
    );

    let current = golden_object("seed2_moderate");
    assert_additive(&legacy, &current, "report");
    assert_eq!(
        added_keys(&legacy, &current),
        ["store", "capture", "chain"],
        "additions beyond the store/capture/chain ledgers"
    );
}

/// Reports written before the flight recorder existed (no
/// `stages.store_read` phase) must stay readable, and the only schema
/// change since is that one additive phase — instrumenting the engine
/// must not have perturbed a single simulated value anywhere else.
#[test]
fn pre_flightrec_reports_remain_readable_and_schema_is_additive() {
    let legacy = golden_object("legacy_pre_flightrec");
    assert!(
        legacy.get("store").is_some(),
        "the pre-flight-recorder fixture postdates the store ledger"
    );
    let legacy_stages = legacy.get("stages").expect("report has no stages object");
    assert!(
        legacy_stages.get("store_read").is_none(),
        "the fixture must predate the store_read phase"
    );

    let current = golden_object("seed2_moderate");
    assert_additive(&legacy, &current, "report");
    // The only top-level additions since are the differential-capture
    // ledgers; the stage additions are the overlap/informational
    // phases, all-zero for an in-memory comparison.
    assert_eq!(
        added_keys(&legacy, &current),
        ["capture", "chain"],
        "unexpected top-level additions"
    );
    let stages = current.get("stages").expect("report has no stages object");
    assert_eq!(
        added_keys(legacy_stages, stages),
        ["store_read", "delta_capture"],
        "stage additions"
    );
    for phase in ["store_read", "delta_capture"] {
        assert_eq!(
            serde_json::to_string(stages.get(phase).unwrap()).unwrap(),
            r#"{"time":{"secs":0,"nanos":0},"bytes":0,"ops":0}"#,
            "in-memory comparison charged the {phase} phase"
        );
    }
}

/// Reports written before differential capture existed (no `capture` /
/// `chain` blocks, no `stages.delta_capture` phase) must stay
/// readable, and the only schema changes since are those additive
/// blocks — the delta-chain plumbing must not have perturbed a single
/// simulated value anywhere else.
#[test]
fn pre_delta_reports_remain_readable_and_schema_is_additive() {
    let legacy = golden_object("legacy_pre_delta");
    assert!(
        legacy.get("store").is_some(),
        "the pre-delta fixture postdates the store ledger"
    );
    assert!(
        legacy.get("capture").is_none() && legacy.get("chain").is_none(),
        "the fixture must predate the differential-capture blocks"
    );
    let legacy_stages = legacy.get("stages").expect("report has no stages object");
    assert!(
        legacy_stages.get("store_read").is_some() && legacy_stages.get("delta_capture").is_none(),
        "the fixture must postdate store_read and predate delta_capture"
    );

    let current = golden_object("seed2_moderate");
    assert_additive(&legacy, &current, "report");
    assert_eq!(
        added_keys(&legacy, &current),
        ["capture", "chain"],
        "additions beyond the capture/chain blocks"
    );
    let stages = current.get("stages").expect("report has no stages object");
    assert_eq!(
        added_keys(legacy_stages, stages),
        ["delta_capture"],
        "stage additions"
    );
    // Neither side of an in-memory comparison is a store-backed delta:
    // every added number is zero.
    assert_blocks_all_zero(&current, &["capture", "chain"]);
}

/// The golden serialization is itself reproducible: two fresh
/// end-to-end runs of the same scenario produce byte-identical JSON
/// (this is what makes the checked-in files meaningful).
#[test]
fn report_json_is_deterministic_across_runs() {
    let one = report_json(&SCENARIOS[1]);
    let two = report_json(&SCENARIOS[1]);
    assert_eq!(one, two);
    // And the goldens really exercise the observability surface.
    assert!(one.contains("\"stages\""), "stage breakdown missing");
    assert!(one.contains("\"quantize\""));
    assert!(one.contains("\"stage2_stream\""));
    assert!(one.contains("\"io\""), "I/O counters missing");
}

/// Performance baselines written before the telemetry plane existed
/// (histogram entries without `sum`/`buckets`, no top-level `gauges`)
/// must stay readable, and re-serializing one under the new schema
/// must be *strictly additive*: exactly those fields appear, every
/// pre-existing field keeps its value, and `perf-diff` between the
/// legacy file and its re-serialization passes at a zero budget.
#[test]
fn pre_telemetry_profiles_remain_readable_and_schema_is_additive() {
    let legacy_text =
        std::fs::read_to_string(golden_path("legacy_pre_telemetry")).expect("legacy fixture");
    let parsed = reprocmp::obs::ProfileBaseline::parse(&legacy_text).expect("legacy parses");
    assert!(
        !parsed.histograms.is_empty(),
        "fixture must exercise histograms"
    );
    for h in &parsed.histograms {
        assert_eq!(h.sum, 0, "pre-telemetry files default sum to zero");
        assert!(h.buckets.is_empty(), "pre-telemetry files have no buckets");
    }
    assert!(
        parsed.gauges.is_empty(),
        "pre-telemetry files have no gauges"
    );

    // Re-serialize under today's schema and compare structurally.
    let current_text = parsed.to_json();
    let legacy = parse_object(&legacy_text);
    let current = parse_object(&current_text);
    // Top level: everything kept, exactly `gauges` added.
    for (key, legacy_value) in legacy.as_object().unwrap() {
        if key == "histograms" {
            continue; // compared element-wise below
        }
        let current_value = current
            .get(key)
            .unwrap_or_else(|| panic!("new schema dropped `{key}`"));
        assert_additive(legacy_value, current_value, key);
    }
    assert_eq!(
        added_keys(&legacy, &current),
        ["gauges"],
        "unexpected top-level additions"
    );
    // Histogram entries: everything kept, exactly sum + buckets added.
    fn entries(profile: &Value) -> &[Value] {
        let histograms = profile.get("histograms").and_then(Value::as_array);
        histograms.expect("no histograms array")
    }
    assert_eq!(entries(&legacy).len(), entries(&current).len());
    for (old, new) in entries(&legacy).iter().zip(entries(&current)) {
        assert!(old.as_object().is_some() && new.as_object().is_some());
        assert_additive(old, new, "histograms[]");
        assert_eq!(
            added_keys(old, new),
            ["sum", "buckets"],
            "histogram entry additions"
        );
    }
    // And the regression gate sees no drift between the eras.
    let reparsed = reprocmp::obs::ProfileBaseline::parse(&current_text).expect("round trip");
    let diff = reprocmp::obs::diff_profiles(&parsed, &reparsed, 0.0);
    assert!(diff.passed(), "{}", diff.render());
}
