//! Percentiles, run-set medians, and the bound logic `benchmark diff`
//! applies to them.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of `values` (`p` in `0..=1`); 0 when empty.
/// Nearest-rank returns a sample that was actually measured, so a p90
/// over 100 ops is the 90th fastest op, with 10 samples beyond it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median: the middle sample, or the mean of the middle two.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// One metric over a run set: the median of its runs and their range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetStat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl SetStat {
    pub fn of(values: &[f64]) -> SetStat {
        SetStat {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// Run-to-run range as a share of the median (0 for a single run).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median.abs()
        }
    }
}

/// What `diff` says about one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the old median by more than the bound.
    Regression,
    /// Within the bound, but a recorded spread is wider than the bound,
    /// so "no change" cannot be told from a change of that size.
    Unresolved,
    /// Better than the old median by more than the bound. Not a claim:
    /// a claim needs the paired runs of the choosing-metrics guide.
    Better,
    /// Within the bound, both spreads inside it.
    Unchanged,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// By how much `new` is worse than `old`, as a share of `old`
/// (negative when it is better).
pub fn worsening(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return if new == old { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

pub fn judge(old: SetStat, new: SetStat, bound: f64, better: Better) -> Verdict {
    let worse = worsening(old.median, new.median, better);
    if worse > bound {
        Verdict::Regression
    } else if old.spread() > bound || new.spread() > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.9), 3.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn median_of_three_ignores_the_outlier() {
        assert_eq!(median(&[10.0, 1000.0, 11.0]), 11.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        let s = SetStat::of(&[10.0, 12.0, 11.0]);
        assert_eq!((s.median, s.min, s.max), (11.0, 10.0, 12.0));
        assert!((s.spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(SetStat::of(&[5.0]).spread(), 0.0);
    }

    fn tight(m: f64) -> SetStat {
        SetStat {
            median: m,
            min: m * 0.99,
            max: m * 1.01,
        }
    }

    #[test]
    fn bound_applies_in_the_metric_s_direction() {
        // Latency: lower is better, 10 % bound.
        assert_eq!(
            judge(tight(100.0), tight(111.0), 0.10, Better::Lower),
            Verdict::Regression
        );
        assert_eq!(
            judge(tight(100.0), tight(109.0), 0.10, Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(tight(100.0), tight(80.0), 0.10, Better::Lower),
            Verdict::Better
        );
        // Throughput: higher is better.
        assert_eq!(
            judge(tight(100.0), tight(89.0), 0.10, Better::Higher),
            Verdict::Regression
        );
        assert_eq!(
            judge(tight(100.0), tight(120.0), 0.10, Better::Higher),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let noisy = SetStat {
            median: 100.0,
            min: 90.0,
            max: 115.0,
        };
        assert_eq!(
            judge(noisy, tight(101.0), 0.10, Better::Lower),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(tight(100.0), noisy, 0.10, Better::Lower),
            Verdict::Unresolved
        );
        // A regression beyond the bound is still a regression.
        assert_eq!(
            judge(noisy, tight(130.0), 0.10, Better::Lower),
            Verdict::Regression
        );
    }

    #[test]
    fn exact_metrics_regress_on_any_drift_past_their_bound() {
        let exact = |m| SetStat {
            median: m,
            min: m,
            max: m,
        };
        assert_eq!(
            judge(exact(1.52), exact(1.52), 0.01, Better::Lower),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(exact(1.52), exact(1.60), 0.01, Better::Lower),
            Verdict::Regression
        );
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert!(worsening(0.0, 1.0, Better::Lower).is_infinite());
    }
}
