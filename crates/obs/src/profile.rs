//! Performance baselines and cross-run regression detection.
//!
//! A [`ProfileBaseline`] is the committable form of one run's
//! performance: its [`StageBreakdown`] plus the p50/p95/p99 of selected
//! registry histograms. [`diff_profiles`] compares two baselines under
//! a relative budget (e.g. `0.10` = +10 %) and reports every metric
//! that regressed past it — the engine behind `reprocmp perf-diff` and
//! the CI gate's profile check.
//!
//! [`ProfileBaseline::parse`] accepts three shapes:
//!
//! 1. a full `ProfileBaseline` object (`{"stages": …, "histograms": …}`),
//! 2. a full `CompareReport` (anything with a `"stages"` key), and
//! 3. a bare serialized `StageBreakdown` (`{"quantize": …, …}`),
//!
//! so committed baselines from any era — including the pre-flight-
//! recorder `ci_baseline_breakdown.json` — keep parsing. Phases the
//! file predates (e.g. `store_read`) default to zero.

use crate::metrics::{HistogramBucket, MetricValue, RegistrySnapshot};
use crate::stage::StageBreakdown;
use serde::{Deserialize, Serialize, Value};
use std::time::Duration;

/// The committed quantiles of one histogram, plus (since the telemetry
/// plane) its sum and raw log2 bucket array so downstream renderers —
/// Prometheus exposition, `top` sparklines — need no side channels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramQuantiles {
    /// Histogram name (registry key).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Estimated median.
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Sum of observations (zero in pre-telemetry files).
    #[serde(default)]
    pub sum: u64,
    /// Non-empty log2 buckets, ascending (empty in pre-telemetry
    /// files).
    #[serde(default)]
    pub buckets: Vec<HistogramBucket>,
}

/// A committable performance profile: stage breakdown + histogram
/// quantiles + gauge values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct ProfileBaseline {
    /// Per-phase time/bytes/ops.
    pub stages: StageBreakdown,
    /// Quantiles of selected histograms, sorted by name.
    #[serde(default)]
    pub histograms: Vec<HistogramQuantiles>,
    /// Gauge values, sorted by name (empty in pre-telemetry files).
    #[serde(default)]
    pub gauges: Vec<MetricValue>,
}

impl ProfileBaseline {
    /// A baseline with stages only.
    #[must_use]
    pub fn new(stages: StageBreakdown) -> Self {
        ProfileBaseline {
            stages,
            histograms: Vec::new(),
            gauges: Vec::new(),
        }
    }

    /// A baseline carrying every histogram and gauge in `registry`.
    #[must_use]
    pub fn from_registry(stages: StageBreakdown, registry: &RegistrySnapshot) -> Self {
        let histograms = registry
            .histograms
            .iter()
            .map(|h| HistogramQuantiles {
                name: h.name.clone(),
                count: h.histogram.count,
                p50: h.histogram.p50,
                p95: h.histogram.p95,
                p99: h.histogram.p99,
                sum: h.histogram.sum,
                buckets: h.histogram.buckets.clone(),
            })
            .collect();
        ProfileBaseline {
            stages,
            histograms,
            gauges: registry.gauges.clone(),
        }
    }

    /// Pretty JSON, newline-terminated (the committed-file format).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = serde_json::to_string_pretty(self).unwrap_or_default();
        s.push('\n');
        s
    }

    /// Parses a baseline from JSON (see module docs for the accepted
    /// shapes).
    ///
    /// # Errors
    ///
    /// A description of the first syntax or shape problem found.
    pub fn parse(text: &str) -> Result<ProfileBaseline, String> {
        let root = serde_json::from_str(text).map_err(|e| e.to_string())?;
        if root.as_object().is_none() {
            return Err("top level must be an object".into());
        }
        // Shapes 1 and 2 carry "stages"; shape 3 is a bare breakdown.
        let root = if root.get("stages").is_some() {
            root
        } else {
            Value::Object(vec![("stages".to_owned(), root)])
        };
        serde_json::from_value(root).map_err(|e| e.to_string())
    }
}

/// One metric that moved past the budget.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Regression {
    /// Metric path, e.g. `stage2_stream.bytes` or `io.read_bytes.p99`.
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// Candidate value.
    pub new: f64,
}

impl Regression {
    /// `new / old` (infinite when the baseline was zero).
    #[must_use]
    fn ratio(&self) -> f64 {
        if self.old == 0.0 {
            f64::INFINITY
        } else {
            self.new / self.old
        }
    }
}

/// The outcome of [`diff_profiles`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProfileDiff {
    /// Relative budget the diff ran under (0.10 = +10 %).
    pub budget: f64,
    /// Metric comparisons performed.
    pub checks: u64,
    /// Every metric past the budget, in breakdown order.
    pub regressions: Vec<Regression>,
}

impl ProfileDiff {
    /// True when nothing regressed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// A human-readable verdict table.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        if self.passed() {
            let _ = writeln!(
                s,
                "PASS — {} metrics within +{:.1}% of baseline",
                self.checks,
                self.budget * 100.0
            );
        } else {
            let _ = writeln!(
                s,
                "FAIL — {} of {} metrics regressed past +{:.1}%:",
                self.regressions.len(),
                self.checks,
                self.budget * 100.0
            );
            for r in &self.regressions {
                let _ = writeln!(
                    s,
                    "  {:<28} {:>14.0} -> {:>14.0}  ({}x)",
                    r.metric,
                    r.old,
                    r.new,
                    if r.ratio().is_finite() {
                        format!("{:.2}", r.ratio())
                    } else {
                        "inf".to_owned()
                    }
                );
            }
        }
        s
    }
}

/// Parses a budget argument: `"10%"` → `0.10`, `"0.1"` → `0.1`.
///
/// # Errors
///
/// Non-numeric or negative input.
pub fn parse_budget(s: &str) -> Result<f64, String> {
    let (num, scale) = match s.strip_suffix('%') {
        Some(pct) => (pct, 0.01),
        None => (s, 1.0),
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid budget {s:?} (want e.g. \"10%\" or \"0.1\")"))?;
    if !(0.0..=100.0).contains(&v) {
        return Err(format!("budget {s:?} out of range"));
    }
    Ok(v * scale)
}

fn check(
    regressions: &mut Vec<Regression>,
    checks: &mut u64,
    metric: String,
    old: f64,
    new: f64,
    budget: f64,
    flag_from_zero: bool,
) {
    *checks += 1;
    let over = if old == 0.0 {
        flag_from_zero && new > 0.0
    } else {
        new > old * (1.0 + budget)
    };
    if over {
        regressions.push(Regression { metric, old, new });
    }
}

/// Compares `new` against `old` under a relative `budget` and reports
/// every regressed metric.
///
/// Per phase, `time`/`bytes`/`ops` fail when `new > old·(1+budget)`.
/// `bytes`/`ops` additionally fail when a phase that was silent in the
/// baseline starts moving data; `time` does not (a zero-time baseline
/// phase usually means "not modeled here", and any wall-time jitter
/// would fire it spuriously). Histogram quantiles are compared by name
/// for names present in both profiles.
#[must_use]
pub fn diff_profiles(old: &ProfileBaseline, new: &ProfileBaseline, budget: f64) -> ProfileDiff {
    let mut regressions = Vec::new();
    let mut checks = 0u64;
    let new_phases = new.stages.phases();
    for (i, (name, o)) in old.stages.phases().iter().enumerate() {
        let n = new_phases[i].1;
        check(
            &mut regressions,
            &mut checks,
            format!("{name}.time_ns"),
            duration_f64(o.time),
            duration_f64(n.time),
            budget,
            false,
        );
        check(
            &mut regressions,
            &mut checks,
            format!("{name}.bytes"),
            o.bytes as f64,
            n.bytes as f64,
            budget,
            true,
        );
        check(
            &mut regressions,
            &mut checks,
            format!("{name}.ops"),
            o.ops as f64,
            n.ops as f64,
            budget,
            true,
        );
    }
    for o in &old.histograms {
        let Some(n) = new.histograms.iter().find(|h| h.name == o.name) else {
            continue;
        };
        for (q, ov, nv) in [
            ("p50", o.p50, n.p50),
            ("p95", o.p95, n.p95),
            ("p99", o.p99, n.p99),
        ] {
            check(
                &mut regressions,
                &mut checks,
                format!("{}.{q}", o.name),
                ov as f64,
                nv as f64,
                budget,
                false,
            );
        }
    }
    ProfileDiff {
        budget,
        checks,
        regressions,
    }
}

fn duration_f64(d: Duration) -> f64 {
    d.as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::PhaseCost;

    fn cost(ns: u64, bytes: u64, ops: u64) -> PhaseCost {
        PhaseCost::new(Duration::from_nanos(ns), bytes, ops)
    }

    fn sample() -> ProfileBaseline {
        ProfileBaseline {
            stages: StageBreakdown {
                quantize: cost(100, 1000, 10),
                leaf_hash: cost(200, 1000, 10),
                level_build: cost(50, 0, 5),
                bfs: cost(300, 64, 32),
                stage2_stream: cost(400, 8192, 16),
                verify: cost(150, 8192, 2048),
                store_read: cost(0, 4096, 8),
                delta_capture: cost(0, 2048, 4),
            },
            histograms: vec![HistogramQuantiles {
                name: "io.read_bytes".into(),
                count: 16,
                p50: 512,
                p95: 512,
                p99: 512,
                sum: 8192,
                buckets: vec![HistogramBucket {
                    low: 512,
                    high: 1023,
                    count: 16,
                }],
            }],
            gauges: vec![MetricValue {
                name: "queue.depth".into(),
                value: -3,
            }],
        }
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let b = sample();
        let parsed = ProfileBaseline::parse(&b.to_json()).expect("parse own output");
        assert_eq!(parsed, b);
    }

    #[test]
    fn bare_breakdown_json_parses_with_missing_phases_zero() {
        let mut stages = sample().stages;
        stages.store_read = PhaseCost::default();
        stages.delta_capture = PhaseCost::default();
        let json = serde_json::to_string_pretty(&stages).unwrap();
        // Strip everything from the store_read key on (store_read and
        // delta_capture) to mimic a pre-flight-recorder file.
        let legacy = {
            let cut = json
                .find(",\n  \"store_read\"")
                .expect("store_read present");
            format!("{}\n}}", &json[..cut])
        };
        let parsed = ProfileBaseline::parse(&legacy).expect("legacy breakdown parses");
        assert_eq!(parsed.stages, stages);
        assert!(parsed.histograms.is_empty());
    }

    #[test]
    fn pre_telemetry_files_parse_with_new_fields_defaulted() {
        // A baseline written before the telemetry plane: histogram
        // entries carry only name/count/quantiles, and there is no
        // top-level "gauges" array.
        let legacy = r#"{
  "stages": {},
  "histograms": [
    {"name": "io.read_bytes", "count": 16, "p50": 512, "p95": 512, "p99": 512}
  ]
}"#;
        let parsed = ProfileBaseline::parse(legacy).expect("legacy baseline parses");
        assert_eq!(parsed.histograms.len(), 1);
        assert_eq!(parsed.histograms[0].sum, 0);
        assert!(parsed.histograms[0].buckets.is_empty());
        assert!(parsed.gauges.is_empty());
    }

    #[test]
    fn baseline_vs_itself_always_passes() {
        let b = sample();
        let diff = diff_profiles(&b, &b, 0.0);
        assert!(diff.passed(), "{}", diff.render());
        assert!(diff.checks >= 21 + 3);
    }

    #[test]
    fn inflated_phase_fails_and_names_the_metric() {
        let old = sample();
        let mut new = sample();
        new.stages.stage2_stream.bytes *= 2;
        let diff = diff_profiles(&old, &new, 0.10);
        assert!(!diff.passed());
        assert_eq!(diff.regressions.len(), 1);
        assert_eq!(diff.regressions[0].metric, "stage2_stream.bytes");
        assert!(diff.render().contains("stage2_stream.bytes"));
    }

    #[test]
    fn within_budget_growth_passes() {
        let old = sample();
        let mut new = sample();
        new.stages.verify.ops = 2150; // +5% on 2048
        assert!(diff_profiles(&old, &new, 0.10).passed());
        assert!(!diff_profiles(&old, &new, 0.01).passed());
    }

    #[test]
    fn silent_phase_starting_to_move_bytes_is_flagged() {
        let mut old = sample();
        old.stages.store_read = PhaseCost::default();
        let new = sample(); // store_read now moves 4096 bytes
        let diff = diff_profiles(&old, &new, 0.10);
        let metrics: Vec<&str> = diff.regressions.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics, ["store_read.bytes", "store_read.ops"]);
        assert!(diff.regressions[0].ratio().is_infinite());
    }

    #[test]
    fn histogram_quantile_regressions_are_detected() {
        let old = sample();
        let mut new = sample();
        new.histograms[0].p99 = 4096;
        let diff = diff_profiles(&old, &new, 0.10);
        assert_eq!(diff.regressions.len(), 1);
        assert_eq!(diff.regressions[0].metric, "io.read_bytes.p99");
    }

    #[test]
    fn budget_parses_percent_and_fraction() {
        assert_eq!(parse_budget("10%").unwrap(), 0.10);
        assert!((parse_budget("2.5%").unwrap() - 0.025).abs() < 1e-12);
        assert_eq!(parse_budget("0.1").unwrap(), 0.1);
        assert!(parse_budget("oops").is_err());
        assert!(parse_budget("-1").is_err());
    }

    #[test]
    fn counters_above_2_pow_53_survive_parse_and_diff() {
        // Integers must never pass through `f64`: 2^53 + 1 is the first
        // counter that would come back changed.
        let mut b = sample();
        b.stages.stage2_stream.bytes = u64::MAX;
        b.stages.verify.ops = (1 << 53) + 1;
        b.histograms[0].sum = u64::MAX - 1;
        assert!(b.to_json().contains("\"bytes\": 18446744073709551615"));
        let parsed = ProfileBaseline::parse(&b.to_json()).expect("parse own output");
        assert_eq!(parsed, b);
        assert_eq!(parsed.stages.stage2_stream.bytes, u64::MAX);
        assert!(diff_profiles(&b, &parsed, 0.0).passed());
    }

    #[test]
    fn mistyped_fields_are_errors_not_panics() {
        for bad in [
            r#"{"bfs": 3}"#,
            r#"{"bfs": {"time": {"secs": 1, "nanos": 4000000000}, "bytes": 0, "ops": 0}}"#,
            r#"{"bfs": {"time": {"secs": 18446744073709551615, "nanos": 1000000000}, "bytes": 0, "ops": 0}}"#,
            r#"{"bfs": {"time": {"secs": 1, "nanos": 0}, "bytes": -1, "ops": 0}}"#,
            r#"{"bfs": {"time": {"secs": 1, "nanos": 0}, "bytes": 1.5, "ops": 0}}"#,
            r#"{"stages": 5}"#,
            r#"{"stages": {}, "histograms": [7]}"#,
            r#"{"stages": {}, "histograms": [{"name": "h", "count": 1, "p50": 1, "p95": 1, "p99": 1, "sum": "x"}]}"#,
            r#"{"stages": {}, "gauges": [{"name": "g"}]}"#,
        ] {
            assert!(ProfileBaseline::parse(bad).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        assert!(ProfileBaseline::parse("{} extra").is_err());
        assert!(ProfileBaseline::parse("[1,2]").is_err());
    }
}
