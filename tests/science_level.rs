//! Science-level integration: the comparator's verdicts lined up
//! against the named Table 1 fields and the physics on real mini-HACC
//! data.

use reprocmp::core::{CheckpointSource, CompareEngine, Ctx, EngineConfig, RegionMap};
use reprocmp::hacc::{HaccConfig, OrderPolicy, Simulation, CHECKPOINT_FIELDS};

fn run(seed: u64, steps: u64) -> Simulation {
    let mut cfg = HaccConfig::small();
    cfg.particles = 1_024;
    cfg.order = OrderPolicy::Shuffled { seed };
    let mut sim = Simulation::new(cfg);
    sim.run(steps);
    sim
}

/// Flattens all seven Table 1 fields and the matching region map.
fn table1_payload(sim: &Simulation) -> (Vec<f32>, RegionMap) {
    let p = sim.particles();
    let mut values = Vec::with_capacity(p.len() * 7);
    for field in CHECKPOINT_FIELDS {
        values.extend_from_slice(p.field(field).unwrap());
    }
    let map = RegionMap::from_lengths(CHECKPOINT_FIELDS.iter().map(|&f| (f, p.len() as u64)));
    (values, map)
}

#[test]
fn differences_attribute_to_the_right_physical_fields() {
    let sim1 = run(1, 25);
    let sim2 = run(2, 25);
    let (v1, map) = table1_payload(&sim1);
    let (v2, _) = table1_payload(&sim2);

    let engine = CompareEngine::new(EngineConfig {
        chunk_bytes: 256,
        error_bound: 1e-9, // tight enough to see scheduling noise
        ..EngineConfig::default()
    });
    let a = CheckpointSource::in_memory(&v1, &engine).unwrap();
    let b = CheckpointSource::in_memory(&v2, &engine).unwrap();
    let report = engine.compare(&a, &b, &Ctx::default()).unwrap();
    assert!(
        report.stats.diff_count > 0,
        "25 nondeterministic steps should show sub-1e-9 drift"
    );

    // Every difference lands in a known field, and the per-field
    // histogram covers exactly the reported differences.
    let located = map.annotate(&report.differences);
    assert!(located.iter().all(|l| l.region.is_some()));
    let per_field = map.diffs_per_region(&report.differences);
    let total: u64 = per_field.iter().map(|(_, c)| c).sum();
    assert_eq!(total, report.differences.len() as u64);
    // Velocities integrate force noise directly — some field beyond
    // the coordinates must be affected too when drift is visible.
    let field_names: Vec<&str> = per_field
        .iter()
        .filter(|(_, c)| *c > 0)
        .map(|(n, _)| n.as_str())
        .collect();
    assert!(!field_names.is_empty());
}

#[test]
fn physics_agrees_while_bits_do_not() {
    use reprocmp::hacc::clustering_strength;
    let sim1 = run(1, 25);
    let sim2 = run(2, 25);

    // Bitwise: different.
    assert_ne!(sim1.particles(), sim2.particles());

    // Science: the same structure formed.
    let s1 = clustering_strength(sim1.particles(), 16, 1.0);
    let s2 = clustering_strength(sim2.particles(), 16, 1.0);
    assert!(
        (s1 - s2).abs() / s1.max(s2) < 1e-2,
        "spectra diverged: {s1} vs {s2}"
    );
}
