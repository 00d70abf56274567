//! Shared harness for the figure runner.
//!
//! The `reprocmp-bench` binary regenerates every table and figure of
//! the paper's evaluation, one entry per result file (see `DESIGN.md`
//! §4 for the index and `EXPERIMENTS.md` for recorded paper-vs-measured
//! results). This library holds what the entries share: the
//! divergent-checkpoint-pair workload generator, modeled-experiment
//! plumbing, and table/JSON output helpers.
//!
//! # The divergence model
//!
//! Two runs of a chaotic simulation do not differ IID-uniformly: most
//! values are *bitwise identical* (the runs execute the same
//! arithmetic on them), and where they do differ the divergence is
//! spatially clustered (particles in the same dense region diverge
//! together) with magnitudes spanning many decades (recently-diverged
//! regions differ by 1e-8, long-diverged ones by 1e-3). The
//! [`DivergenceSpec::Clustered`] generator reproduces exactly that
//! structure: a persistent Markov chain walks over 4 KiB segments
//! assigning each a *tier* (a magnitude decade, or quiet), and a few
//! values inside each active segment are perturbed within the tier's
//! decade. The result has the two properties every figure depends on:
//! the flagged-data fraction falls as the error bound grows, and
//! flagged chunks coalesce into contiguous runs (the I/O pattern the
//! paper's scattered-read optimizations target).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp_core::{CheckpointSource, CompareEngine, Ctx, EngineConfig};
use reprocmp_io::{CostModel, SimClock, Storage, StripedStorage, Timeline};
use reprocmp_obs::StageBreakdown;
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The paper's error-bound sweep (Table 2).
pub const ERROR_BOUNDS: [f64; 5] = [1e-3, 1e-4, 1e-5, 1e-6, 1e-7];

/// The paper's chunk-size sweep, 4 KiB – 512 KiB (Table 2).
pub const CHUNK_SIZES: [usize; 8] = [
    4 << 10,
    8 << 10,
    16 << 10,
    32 << 10,
    64 << 10,
    128 << 10,
    256 << 10,
    512 << 10,
];

/// Magnitude tiers of the clustered model: tier `t` perturbs within
/// `(10^-(3+t), 10^-(2+t)]`, so tier 0 exceeds every bound in
/// [`ERROR_BOUNDS`] and tier 5 is *sub-bound* noise even at 1e-7
/// (pure false-positive fodder).
pub const TIERS: usize = 6;

/// How run 2's values diverge from run 1's.
#[derive(Debug, Clone, Copy)]
pub enum DivergenceSpec {
    /// Bitwise identical runs (the reproducible best case).
    None,
    /// Every value perturbed above most bounds (worst case).
    Heavy,
    /// IID sparse perturbations, log-uniform magnitudes — a simple
    /// stress model for correctness tests.
    Sparse {
        /// Fraction of values perturbed.
        perturbed_fraction: f64,
        /// Smallest magnitude (log-uniform lower end).
        min_magnitude: f64,
        /// Largest magnitude (log-uniform upper end).
        max_magnitude: f64,
    },
    /// The HACC-like model described in the crate docs.
    Clustered {
        /// Marginal probability of each tier (quiet fills the rest).
        tier_probs: [f64; TIERS],
        /// Probability a segment keeps the previous segment's state
        /// (controls cluster length; 0 = IID segments).
        persistence: f64,
        /// Values per segment (4 KiB = 1024 f32 by default).
        segment_values: usize,
        /// Per-value perturbation probability inside an active
        /// segment (sparse keeps hash false positives realistic).
        per_value_prob: f64,
    },
}

impl DivergenceSpec {
    /// The default divergence used by the figure harnesses (see the
    /// crate docs for the reasoning behind each number).
    #[must_use]
    pub fn hacc_like() -> Self {
        DivergenceSpec::Clustered {
            // tiers:  >1e-3  >1e-4  >1e-5  >1e-6  >1e-7  sub-bound
            tier_probs: [0.04, 0.05, 0.07, 0.09, 0.24, 0.06],
            persistence: 63.0 / 64.0,
            segment_values: 1024,
            per_value_prob: 1.0 / 256.0,
        }
    }

    /// A later-iteration pair: the runs have drifted further, so far
    /// more data exceeds tight bounds (the regime of the paper's
    /// Figure 7, where 60–90% of the checkpoint is flagged at 1e-7).
    #[must_use]
    pub fn hacc_like_late() -> Self {
        DivergenceSpec::Clustered {
            // tiers:  >1e-3  >1e-4  >1e-5  >1e-6  >1e-7  sub-bound
            tier_probs: [0.06, 0.08, 0.10, 0.14, 0.40, 0.10],
            persistence: 0.9,
            segment_values: 1024,
            per_value_prob: 1.0 / 256.0,
        }
    }
}

/// A generated checkpoint pair.
#[derive(Debug, Clone)]
pub struct DivergentPair {
    /// Run 1's payload.
    pub run1: Vec<f32>,
    /// Run 2's payload.
    pub run2: Vec<f32>,
}

impl DivergentPair {
    /// Generates `n_values` HACC-flavoured values and a diverging
    /// partner, deterministically from `seed`.
    #[must_use]
    pub fn generate(n_values: usize, spec: DivergenceSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut run1 = Vec::with_capacity(n_values);
        for i in 0..n_values {
            // Positions/velocities/potentials are O(1) quantities.
            let base = ((i as f32) * 1.618e-3).sin() * 2.0 + rng.gen_range(-0.5..0.5f32);
            run1.push(base);
        }
        let mut run2 = run1.clone();

        match spec {
            DivergenceSpec::None => {}
            DivergenceSpec::Heavy => {
                for v in run2.iter_mut() {
                    let mag = 10f64.powf(rng.gen_range(-6.0..-2.0));
                    let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                    *v += (mag * sign) as f32;
                }
            }
            DivergenceSpec::Sparse {
                perturbed_fraction,
                min_magnitude,
                max_magnitude,
            } => {
                let log_lo = min_magnitude.ln();
                let log_hi = max_magnitude.ln().max(log_lo + f64::EPSILON);
                for v in run2.iter_mut() {
                    if rng.gen_bool(perturbed_fraction) {
                        let mag = rng.gen_range(log_lo..log_hi).exp();
                        let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                        *v += (mag * sign) as f32;
                    }
                }
            }
            DivergenceSpec::Clustered {
                tier_probs,
                persistence,
                segment_values,
                per_value_prob,
            } => {
                let seg = segment_values.max(1);
                // state: None = quiet, Some(t) = active at tier t.
                let mut state: Option<usize> = None;
                let draw_state = |rng: &mut StdRng| -> Option<usize> {
                    let u: f64 = rng.gen();
                    let mut acc = 0.0;
                    for (t, &p) in tier_probs.iter().enumerate() {
                        acc += p;
                        if u < acc {
                            return Some(t);
                        }
                    }
                    None
                };
                let mut start = 0usize;
                while start < n_values {
                    if start == 0 || !rng.gen_bool(persistence) {
                        state = draw_state(&mut rng);
                    }
                    let end = (start + seg).min(n_values);
                    if let Some(tier) = state {
                        // Tier t: magnitudes in (10^-(3+t), 10^-(2+t)].
                        let hi = -(2.0 + tier as f64);
                        let lo = -(3.0 + tier as f64);
                        for v in run2[start..end].iter_mut() {
                            if rng.gen_bool(per_value_prob) {
                                let mag = 10f64.powf(rng.gen_range(lo..hi));
                                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                                *v += (mag * sign) as f32;
                            }
                        }
                    }
                    start = end;
                }
            }
        }
        DivergentPair { run1, run2 }
    }

    /// Payload size in bytes.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        (self.run1.len() * 4) as u64
    }

    /// Brute-force count of differences above `eps` (test oracle).
    #[must_use]
    pub fn diffs_above(&self, eps: f64) -> usize {
        self.run1
            .iter()
            .zip(&self.run2)
            .filter(|(a, b)| (f64::from(**a) - f64::from(**b)).abs() > eps)
            .count()
    }
}

/// Builds an engine with the harness defaults for one `(chunk, ε)`
/// grid point.
#[must_use]
pub fn engine_for(chunk_bytes: usize, error_bound: f64) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes,
        error_bound,
        ..EngineConfig::default()
    })
}

/// Captures `values` with `engine` onto simulated storage priced by
/// `model`, charging `clock`.
///
/// # Panics
///
/// On an empty payload or an invalid engine configuration (benchmark
/// inputs are valid by construction).
#[must_use]
pub fn modeled_source(
    values: &[f32],
    engine: &CompareEngine,
    model: CostModel,
    clock: &SimClock,
) -> CheckpointSource {
    CheckpointSource::in_memory_with_model(values, engine, model, Some(clock.clone()))
        .expect("modeled source")
}

/// A context timed on `clock`.
#[must_use]
pub fn sim_ctx(clock: &SimClock) -> Ctx {
    Ctx {
        timeline: Timeline::sim(clock.clone()),
        ..Ctx::default()
    }
}

/// Materializes a pair as simulated-PFS checkpoint sources sharing one
/// virtual clock, plus a context timed on that clock.
#[must_use]
pub fn modeled_sources(
    pair: &DivergentPair,
    engine: &CompareEngine,
    model: CostModel,
) -> (CheckpointSource, CheckpointSource, Ctx, SimClock) {
    let clock = SimClock::new();
    let a = modeled_source(&pair.run1, engine, model, &clock);
    let b = modeled_source(&pair.run2, engine, model, &clock);
    (a, b, sim_ctx(&clock), clock)
}

/// As [`modeled_sources`] but on Lustre-style striped storage: the
/// payloads and metadata live on files striped over `ost_count`
/// targets, all charging one clock.
#[must_use]
pub fn striped_sources(
    pair: &DivergentPair,
    engine: &CompareEngine,
    model: CostModel,
    stripe_size: u64,
    ost_count: usize,
) -> (CheckpointSource, CheckpointSource, Ctx, SimClock) {
    let (mut a, mut b, ctx, clock) = modeled_sources(pair, engine, model);
    // `read_at` charges nothing, so copying the bytes out leaves the
    // clock for the stripes' charges alone.
    let restripe = |flat: &Arc<dyn Storage>| -> Arc<dyn Storage> {
        let mut bytes = vec![0; flat.len() as usize];
        flat.read_at(0, &mut bytes).expect("in-memory read");
        Arc::new(StripedStorage::with_clock(
            bytes,
            model,
            stripe_size,
            ost_count,
            clock.clone(),
        ))
    };
    for src in [&mut a, &mut b] {
        src.data = restripe(&src.data);
        src.metadata = src.metadata.as_ref().map(restripe);
    }
    (a, b, ctx, clock)
}

/// Throughput in GB/s for `bytes` of *compared checkpoint data* (both
/// runs, the paper's Figure 5 metric) over `elapsed`.
#[must_use]
pub fn throughput_gbps(bytes_both_runs: u64, elapsed: Duration) -> f64 {
    if elapsed.is_zero() {
        return f64::INFINITY;
    }
    bytes_both_runs as f64 / elapsed.as_secs_f64() / 1e9
}

/// One labelled measurement for the JSON report.
#[derive(Debug, Clone, Serialize)]
pub struct Measurement {
    /// Experiment id, e.g. `"fig5a"`.
    pub experiment: String,
    /// Free-form parameter map rendered as `key=value`.
    pub params: Vec<(String, String)>,
    /// Metric name, e.g. `"throughput_gbps"`.
    pub metric: String,
    /// The value.
    pub value: f64,
}

/// Accumulates measurements for one result file.
#[derive(Debug, Default)]
pub struct Recorder {
    measurements: Vec<Measurement>,
}

impl Recorder {
    /// An empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Records one value.
    pub fn push(&mut self, experiment: &str, params: &[(&str, String)], metric: &str, value: f64) {
        self.measurements.push(Measurement {
            experiment: experiment.to_owned(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.clone()))
                .collect(),
            metric: metric.to_owned(),
            value,
        });
    }

    /// Records a full [`StageBreakdown`] as one measurement per phase
    /// and dimension (`stage.<phase>.time_s` / `.bytes` / `.ops`,
    /// skipping zero-cost phases) plus `stage.total_time_s`, so every
    /// benchmark JSON carries the same machine-readable profile the
    /// CLI prints under `--profile`.
    pub fn push_breakdown(
        &mut self,
        experiment: &str,
        params: &[(&str, String)],
        stages: &StageBreakdown,
    ) {
        for (name, cost) in stages.phases() {
            if cost.is_zero() {
                continue;
            }
            self.push(
                experiment,
                params,
                &format!("stage.{name}.time_s"),
                cost.time.as_secs_f64(),
            );
            self.push(
                experiment,
                params,
                &format!("stage.{name}.bytes"),
                cost.bytes as f64,
            );
            self.push(
                experiment,
                params,
                &format!("stage.{name}.ops"),
                cost.ops as f64,
            );
        }
        self.push(
            experiment,
            params,
            "stage.total_time_s",
            stages.total_time().as_secs_f64(),
        );
    }

    /// The recorded rows as pretty-printed JSON.
    ///
    /// # Panics
    ///
    /// Never: rows are plain strings and numbers.
    #[must_use]
    pub fn into_json(self) -> String {
        serde_json::to_string_pretty(&self.measurements).expect("encode rows")
    }
}

/// A compare report as a profile golden: pretty JSON ending in a newline.
///
/// # Panics
///
/// If the report does not encode, which its derived `Serialize` rules out.
#[must_use]
pub fn profile_json(report: &impl Serialize) -> String {
    serde_json::to_string_pretty(report).expect("encode profile") + "\n"
}

/// Writes one result file, creating its directory first.
///
/// # Errors
///
/// Any failure to create the directory or write the file: a stale
/// committed result must never pass for a fresh one.
pub fn write_result(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Formats a duration compactly for tables.
#[must_use]
pub fn fmt_dur(d: Duration) -> String {
    if d.as_secs_f64() >= 1.0 {
        format!("{:.2}s", d.as_secs_f64())
    } else if d.as_millis() >= 1 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.1}us", d.as_secs_f64() * 1e6)
    }
}

/// Formats a chunk size as `4K`, `512K`.
#[must_use]
pub fn fmt_chunk(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}M", bytes >> 20)
    } else {
        format!("{}K", bytes >> 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = DivergentPair::generate(10_000, DivergenceSpec::hacc_like(), 7);
        let b = DivergentPair::generate(10_000, DivergenceSpec::hacc_like(), 7);
        assert_eq!(a.run1, b.run1);
        assert_eq!(a.run2, b.run2);
    }

    #[test]
    fn divergence_fraction_tracks_the_bound() {
        // The property every bound-sweep figure relies on: bigger
        // bounds flag fewer values.
        // Clusters are ~256 KiB, so use enough data for every tier to
        // appear (8 Mi values = 32 MiB ≈ 128 independent cluster draws).
        let pair = DivergentPair::generate(8 << 20, DivergenceSpec::hacc_like(), 3);
        let n3 = pair.diffs_above(1e-3);
        let n5 = pair.diffs_above(1e-5);
        let n7 = pair.diffs_above(1e-7);
        assert!(n3 < n5 && n5 < n7, "{n3} !< {n5} !< {n7}");
        assert!(n3 > 0);
    }

    #[test]
    fn most_values_are_bitwise_identical() {
        // The bimodality that keeps hash false positives low.
        let pair = DivergentPair::generate(1 << 20, DivergenceSpec::hacc_like(), 3);
        let changed = pair
            .run1
            .iter()
            .zip(&pair.run2)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        let frac = changed as f64 / pair.run1.len() as f64;
        assert!(frac < 0.02, "changed fraction {frac} too high");
        assert!(frac > 1e-4, "changed fraction {frac} suspiciously low");
    }

    #[test]
    fn divergence_is_spatially_clustered() {
        // Changed values should concentrate in a minority of 4 KiB
        // segments, not spread uniformly. With persistence 63/64 the
        // active fraction only has ~(segments/64) independent state
        // draws behind it, so use a payload large enough that its
        // variance stays well inside the asserted band.
        let pair = DivergentPair::generate(1 << 22, DivergenceSpec::hacc_like(), 9);
        let seg = 1024;
        let mut active_segments = 0usize;
        let total_segments = pair.run1.len() / seg;
        for s in 0..total_segments {
            let any =
                (s * seg..(s + 1) * seg).any(|i| pair.run1[i].to_bits() != pair.run2[i].to_bits());
            if any {
                active_segments += 1;
            }
        }
        let frac = active_segments as f64 / total_segments as f64;
        assert!(frac < 0.85, "almost every segment active ({frac})");
        assert!(frac > 0.2, "too few active segments ({frac})");
    }

    #[test]
    fn none_spec_is_identical() {
        let pair = DivergentPair::generate(50_000, DivergenceSpec::None, 1);
        assert_eq!(pair.run1, pair.run2);
    }

    #[test]
    fn heavy_spec_perturbs_nearly_everything() {
        let pair = DivergentPair::generate(50_000, DivergenceSpec::Heavy, 1);
        let changed = pair
            .run1
            .iter()
            .zip(&pair.run2)
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 49_000);
    }

    #[test]
    fn sparse_spec_respects_fraction() {
        let pair = DivergentPair::generate(
            100_000,
            DivergenceSpec::Sparse {
                perturbed_fraction: 0.01,
                min_magnitude: 1e-6,
                max_magnitude: 1e-3,
            },
            5,
        );
        let changed = pair
            .run1
            .iter()
            .zip(&pair.run2)
            .filter(|(a, b)| a != b)
            .count();
        assert!((500..2_000).contains(&changed), "changed = {changed}");
    }

    #[test]
    fn throughput_math() {
        assert!((throughput_gbps(2_000_000_000, Duration::from_secs(1)) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_chunk(4096), "4K");
        assert_eq!(fmt_chunk(512 << 10), "512K");
        assert_eq!(fmt_chunk(1 << 20), "1M");
        assert!(fmt_dur(Duration::from_millis(1500)).ends_with('s'));
    }

    #[test]
    fn push_breakdown_records_each_nonzero_phase() {
        let pair = DivergentPair::generate(8_192, DivergenceSpec::hacc_like(), 2);
        let engine = engine_for(4096, 1e-5);
        let (_tree, stages) = engine.capture(reprocmp_hash::Floats::Values(&pair.run1));
        let mut rec = Recorder::new();
        rec.push_breakdown("test", &[("chunk", "4K".into())], &stages);
        let metrics: Vec<&str> = rec.measurements.iter().map(|m| m.metric.as_str()).collect();
        for phase in ["quantize", "leaf_hash", "level_build"] {
            assert!(
                metrics.contains(&format!("stage.{phase}.time_s").as_str()),
                "missing {phase}: {metrics:?}"
            );
        }
        // Compare-side phases never ran, so they must be skipped.
        assert!(!metrics.iter().any(|m| m.contains("bfs")));
        assert!(metrics.contains(&"stage.total_time_s"));
        let total = rec
            .measurements
            .iter()
            .find(|m| m.metric == "stage.total_time_s")
            .expect("total row");
        assert!((total.value - stages.total_time().as_secs_f64()).abs() < 1e-12);
        assert_eq!(total.params[0], ("chunk".to_owned(), "4K".to_owned()));
    }

    #[test]
    fn striped_sources_carry_a_capture_profile() {
        let pair = DivergentPair::generate(4_096, DivergenceSpec::hacc_like(), 1);
        let engine = engine_for(4096, 1e-5);
        let (a, b, _timeline, _clock) =
            striped_sources(&pair, &engine, CostModel::lustre_pfs(), 1 << 20, 4);
        for src in [&a, &b] {
            assert!(!src.capture.quantize.is_zero(), "quantize phase missing");
            assert!(!src.capture.leaf_hash.is_zero(), "leaf-hash phase missing");
            assert_eq!(src.capture.quantize.bytes, pair.bytes());
        }
        assert_eq!(b.capture.bfs, StageBreakdown::default().bfs);
    }

    #[test]
    fn a_failed_write_is_an_error() {
        // A regular file where the result's directory should be.
        let blocker = std::env::temp_dir().join(format!("reprocmp-bench-{}", std::process::id()));
        std::fs::write(&blocker, b"").unwrap();
        let err = write_result(&blocker.join("fig.json"), "[]");
        std::fs::remove_file(&blocker).unwrap();
        assert!(err.is_err());
    }

    #[test]
    fn modeled_sources_share_a_clock() {
        let pair = DivergentPair::generate(4_096, DivergenceSpec::hacc_like(), 1);
        let engine = engine_for(4096, 1e-5);
        let (a, b, _ctx, clock) = modeled_sources(&pair, &engine, CostModel::lustre_pfs());
        use reprocmp_io::storage::AccessMode;
        a.data.charge_batch(&[(0, 1024)], AccessMode::Sync);
        b.data.charge_batch(&[(0, 1024)], AccessMode::Sync);
        assert!(clock.now() > Duration::ZERO);
    }
}
