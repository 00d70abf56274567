//! Typed metrics: counters, gauges, log2 histograms, and a registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`s
//! over atomics — record paths never take a lock. The [`Registry`] maps
//! names to handles (get-or-create, so two callers asking for the same
//! name share one underlying metric) and snapshots everything into a
//! serializable [`RegistrySnapshot`].
//!
//! Histograms use fixed power-of-two buckets: bucket 0 holds the value
//! `0`, bucket *i* ≥ 1 holds values in `[2^(i-1), 2^i)`. That gives a
//! dependency-free HdrHistogram stand-in with enough resolution for
//! chunk-read latencies (microseconds) and bytes-moved distributions
//! while keeping recording to one atomic increment.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Number of histogram buckets: the zero bucket plus one per bit.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero (detached from any registry).
    #[must_use]
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at zero (detached from any registry).
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

/// A histogram with fixed log2 buckets (see module docs).
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

/// Bucket index of `v`: 0 for 0, else `floor(log2 v) + 1`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// A fresh histogram (detached from any registry).
    #[must_use]
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.inner.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// A serializable snapshot; only non-empty buckets are listed.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.inner.buckets.iter().enumerate() {
            let count = b.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            let (low, high) = match i {
                0 => (0, 0),
                64 => (1u64 << 63, u64::MAX),
                _ => (1u64 << (i - 1), (1u64 << i) - 1),
            };
            buckets.push(HistogramBucket { low, high, count });
        }
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            p50: quantile_from_buckets(&buckets, count, 0.50),
            p95: quantile_from_buckets(&buckets, count, 0.95),
            p99: quantile_from_buckets(&buckets, count, 0.99),
            buckets,
        }
    }
}

/// Estimates the `q`-quantile (0 < q ≤ 1) of a bucketed distribution by
/// linear interpolation inside the bucket holding rank `ceil(q·count)`.
/// Exact to within one log2 bucket's width; zero for an empty histogram.
#[must_use]
pub fn quantile_from_buckets(buckets: &[HistogramBucket], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut seen = 0u64;
    for b in buckets {
        if rank <= seen + b.count {
            // Spread the bucket's observations evenly over [low, high]:
            // the j-th of n (1-based) sits at low + span·j/n.
            let j = rank - seen;
            let span = b.high - b.low;
            let step = (u128::from(span) * u128::from(j) / u128::from(b.count)) as u64;
            return b.low + step;
        }
        seen += b.count;
    }
    buckets.last().map_or(0, |b| b.high)
}

/// One non-empty histogram bucket: observations in `[low, high]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound.
    pub low: u64,
    /// Inclusive upper bound.
    pub high: u64,
    /// Observations that fell in this bucket.
    pub count: u64,
}

/// Serializable state of one histogram; a missing field decodes as
/// zero (or no buckets).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Estimated median (see [`quantile_from_buckets`]).
    pub p50: u64,
    /// Estimated 95th percentile.
    pub p95: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<HistogramBucket>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A named metrics registry; get-or-create semantics per name.
///
/// Cheap to clone; clones share the same metrics. Registration takes a
/// lock, but the returned handles record lock-free — grab handles once,
/// outside hot loops.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

fn get_or_create<T: Clone + Default>(map: &Mutex<BTreeMap<String, T>>, name: &str) -> T {
    map.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry(name.to_owned())
        .or_default()
        .clone()
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created at zero on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        get_or_create(&self.inner.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        get_or_create(&self.inner.gauges, name)
    }

    /// The histogram named `name`, created empty on first use.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        get_or_create(&self.inner.histograms, name)
    }

    /// Serializable snapshot of every metric, sorted by name.
    #[must_use]
    pub fn snapshot(&self) -> RegistrySnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| MetricValue {
                name: k.clone(),
                value: v.get() as i64,
            })
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| MetricValue {
                name: k.clone(),
                value: v.get(),
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, v)| NamedHistogram {
                name: k.clone(),
                histogram: v.snapshot(),
            })
            .collect();
        RegistrySnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A named scalar metric value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricValue {
    /// Metric name.
    pub name: String,
    /// Value (counters widen into `i64`).
    pub value: i64,
}

/// A named histogram snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamedHistogram {
    /// Metric name.
    pub name: String,
    /// The histogram's state.
    pub histogram: HistogramSnapshot,
}

/// Serializable state of a whole registry; a missing list decodes as
/// empty.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct RegistrySnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<MetricValue>,
    /// All gauges, sorted by name.
    pub gauges: Vec<MetricValue>,
    /// All histograms, sorted by name.
    pub histograms: Vec<NamedHistogram>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        reg.counter("io.submitted").add(5);
        reg.counter("io.submitted").inc();
        assert_eq!(reg.counter("io.submitted").get(), 6);
        assert_eq!(reg.counter("io.other").get(), 0);
    }

    #[test]
    fn gauges_set_and_add() {
        let g = Registry::new().gauge("lanes");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn bucket_index_is_log2_shaped() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_counts_sum_and_buckets_agree() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 2034);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.iter().map(|b| b.count).sum::<u64>(), 7);
        // [2,4) holds 2 and 3.
        let b = snap.buckets.iter().find(|b| b.low == 2).unwrap();
        assert_eq!((b.high, b.count), (3, 2));
    }

    #[test]
    fn histogram_bucket_bounds_contain_their_values() {
        let h = Histogram::new();
        for v in [1u64, 5, 17, 300, 70_000, u64::MAX] {
            h.record(v);
        }
        for b in h.snapshot().buckets {
            assert!(b.low <= b.high);
        }
        // The max-value bucket tops out at u64::MAX, not wrap-around.
        let top = h.snapshot().buckets.last().unwrap().high;
        assert_eq!(top, u64::MAX);
    }

    #[test]
    fn quantiles_of_an_empty_histogram_are_zero() {
        let snap = Histogram::new().snapshot();
        assert_eq!((snap.p50, snap.p95, snap.p99), (0, 0, 0));
    }

    #[test]
    fn quantiles_of_a_point_mass_hit_the_point_bucket() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(512); // exact power of two: bucket [512, 1023]
        }
        let snap = h.snapshot();
        for q in [snap.p50, snap.p95, snap.p99] {
            assert!((512..=1023).contains(&q), "{q} outside the 512 bucket");
        }
        assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
    }

    #[test]
    fn quantiles_interpolate_across_buckets() {
        let h = Histogram::new();
        // 90 small observations, 10 large ones: p50 stays small, p95/p99
        // land in the large bucket.
        for _ in 0..90 {
            h.record(10);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let snap = h.snapshot();
        assert!(
            snap.p50 < 16,
            "median in the [8,15] bucket, got {}",
            snap.p50
        );
        assert!(
            snap.p95 >= 65_536,
            "p95 in the big bucket, got {}",
            snap.p95
        );
        assert!(snap.p99 >= snap.p95);
        assert!(snap.p99 <= 131_071, "p99 within the big bucket's bounds");
    }

    #[test]
    fn quantile_rank_edges_are_exact() {
        // One observation per value 1..=4 in distinct buckets 1,2,3,3.
        let buckets = vec![
            HistogramBucket {
                low: 1,
                high: 1,
                count: 1,
            },
            HistogramBucket {
                low: 2,
                high: 3,
                count: 2,
            },
            HistogramBucket {
                low: 4,
                high: 7,
                count: 1,
            },
        ];
        assert_eq!(quantile_from_buckets(&buckets, 4, 0.25), 1);
        assert_eq!(quantile_from_buckets(&buckets, 4, 1.0), 7);
        assert_eq!(quantile_from_buckets(&buckets, 0, 0.5), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.gauge("g").set(-4);
        reg.histogram("h").record(9);
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(snap.gauges[0].value, -4);
        assert_eq!(snap.histograms[0].histogram.count, 1);
    }

    #[test]
    fn handles_record_lock_free_across_threads() {
        let reg = Registry::new();
        let c = reg.counter("hot");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("hot").get(), 4000);
    }
}
