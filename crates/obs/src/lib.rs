//! Observability for the comparison stack: spans, metrics, breakdowns.
//!
//! The paper's claim is a *throughput* claim — error-bounded hashing
//! plus Merkle pruning beats element-wise comparison — so every layer
//! of this workspace needs a way to say where its time and bytes went.
//! This crate is that substrate. It is deliberately zero-dependency
//! (std plus the vendored `serde`/`serde_json` stand-ins) and clock-agnostic:
//! all timestamps come from an [`ObsClock`], a closure that can read
//! wall time, a simulated clock, or a device's modeled-time
//! accumulator, so instrumented code behaves identically under
//! simulation and on real hardware.
//!
//! Four facilities, one per module:
//!
//! * [`span`](mod@span) — hierarchical tracing spans ([`Tracer`],
//!   [`span!`]) with enter/exit timestamps and well-nesting enforced by
//!   RAII guards.
//! * [`metrics`] — a typed [`Registry`] of named [`Counter`]s,
//!   [`Gauge`]s, and log2-bucketed [`Histogram`]s, snapshot-able to a
//!   serializable form.
//! * [`stage`] — the [`StageBreakdown`] profile: per-phase
//!   time/bytes/ops for the six pipeline stages (quantize, leaf-hash,
//!   level-build, BFS, stage-2 stream, verify) that
//!   `CompareReport::stages` carries and `reprocmp compare --profile`
//!   renders.
//! * [`cache`](mod@cache) — the [`CacheStats`] ledger of the batch
//!   scheduler's metadata-cache reuse (hits, misses, short-circuits,
//!   and what they saved), carried by `CompareReport::cache`.
//! * [`store`](mod@store) — the [`StoreReadStats`] ledger of reads
//!   resolved through the persistent capture store's pack index
//!   (reads, bytes, deduplicated bytes), carried by
//!   `CompareReport::store`.
//! * [`journal`] — the flight recorder: a lock-striped bounded ring of
//!   typed [`Event`]s with an exact drop ledger and a JSONL sink.
//! * [`export`] — Chrome trace-event / Perfetto JSON and folded-stack
//!   flamegraph exporters over spans + journal events.
//! * [`profile`] — committable [`ProfileBaseline`]s and
//!   [`diff_profiles`] regression detection (`reprocmp perf-diff`).
//! * [`telemetry`] — the live telemetry plane: schema-versioned
//!   daemon-level [`TelemetrySnapshot`]s, the bounded [`TelemetryRing`]
//!   history, the deterministic [`Sampler`], and the Prometheus text
//!   exposition renderer ([`prometheus_text`]).
//!
//! An [`Observer`] bundles a tracer, a registry, and a journal so
//! callers can pass one handle through the stack.

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

pub mod cache;
pub mod export;
pub mod journal;
pub mod metrics;
pub mod profile;
pub mod span;
pub mod stage;
pub mod store;
pub mod telemetry;

pub use cache::CacheStats;
pub use export::{chrome_trace, folded_stacks};
pub use journal::{Event, EventKind, Journal, JournalLedger, JournalSlot};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricValue, NamedHistogram,
    Registry, RegistrySnapshot,
};
pub use profile::{diff_profiles, parse_budget, HistogramQuantiles, ProfileBaseline, ProfileDiff};
pub use span::{SpanGuard, SpanRecord, Tracer};
pub use stage::{PhaseCost, StageBreakdown};
pub use store::{StoreReadCounters, StoreReadStats};
pub use telemetry::{
    prometheus_text, JobStateCounts, QueueTelemetry, Sampler, StoreTelemetry, TelemetryRing,
    TelemetrySnapshot, WorkerTelemetry, TELEMETRY_SCHEMA_VERSION,
};

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The time source every span and latency measurement reads.
///
/// A clock is just a shared closure returning a [`Duration`] since some
/// epoch the caller picked. [`ObsClock::wall`] reads a monotonic wall
/// clock; adapters over `SimClock` or a device's modeled-time counter
/// live next to those types (the closure form keeps this crate free of
/// dependencies on them).
#[derive(Clone)]
pub struct ObsClock {
    read: Arc<dyn Fn() -> Duration + Send + Sync>,
}

impl ObsClock {
    /// A clock over an arbitrary time source.
    pub fn from_fn(read: impl Fn() -> Duration + Send + Sync + 'static) -> Self {
        ObsClock {
            read: Arc::new(read),
        }
    }

    /// A monotonic wall clock whose epoch is the moment of creation.
    #[must_use]
    pub fn wall() -> Self {
        let epoch = Instant::now();
        ObsClock::from_fn(move || epoch.elapsed())
    }

    /// A clock frozen at zero — for tests and disabled observers.
    #[must_use]
    pub fn frozen() -> Self {
        ObsClock::from_fn(|| Duration::ZERO)
    }

    /// Time elapsed since the clock's epoch.
    #[must_use]
    pub fn now(&self) -> Duration {
        (self.read)()
    }
}

impl fmt::Debug for ObsClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObsClock")
            .field("now", &self.now())
            .finish()
    }
}

impl Default for ObsClock {
    fn default() -> Self {
        ObsClock::wall()
    }
}

/// One observability context: a span tracer, a metrics registry, and a
/// flight-recorder journal sharing a clock. Cheap to clone; clones
/// share state.
#[derive(Debug, Clone)]
pub struct Observer {
    /// Hierarchical span tracer.
    pub tracer: Tracer,
    /// Named metrics registry.
    pub registry: Registry,
    journal: Journal,
}

impl Observer {
    /// An enabled observer reading timestamps from `clock`. The journal
    /// stays disabled — event recording is strictly opt-in (see
    /// [`Observer::with_journal`]).
    #[must_use]
    pub fn new(clock: ObsClock) -> Self {
        Observer {
            tracer: Tracer::new(clock),
            registry: Registry::new(),
            journal: Journal::disabled(),
        }
    }

    /// An enabled observer that additionally records flight-recorder
    /// events (spans mirror into the journal as begin/end pairs).
    #[must_use]
    pub fn with_journal(clock: ObsClock) -> Self {
        let journal = Journal::new(clock.clone());
        Observer {
            tracer: Tracer::with_journal(clock, journal.clone()),
            registry: Registry::new(),
            journal,
        }
    }

    /// An observer that records nothing: spans are no-ops (the registry
    /// still works — counters are too cheap to be worth gating).
    #[must_use]
    pub fn disabled() -> Self {
        Observer {
            tracer: Tracer::disabled(),
            registry: Registry::new(),
            journal: Journal::disabled(),
        }
    }

    /// The flight-recorder handle. Disabled unless the observer was
    /// built with [`Observer::with_journal`]; emitting through a
    /// disabled journal costs one branch.
    #[must_use]
    pub fn journal(&self) -> &Journal {
        &self.journal
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::new(ObsClock::wall())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn wall_clock_is_monotonic() {
        let c = ObsClock::wall();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn from_fn_reads_the_given_source() {
        let ticks = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&ticks);
        let c = ObsClock::from_fn(move || Duration::from_nanos(t.load(Ordering::SeqCst)));
        assert_eq!(c.now(), Duration::ZERO);
        ticks.store(42, Ordering::SeqCst);
        assert_eq!(c.now(), Duration::from_nanos(42));
    }

    #[test]
    fn frozen_clock_never_advances() {
        let c = ObsClock::frozen();
        assert_eq!(c.now(), Duration::ZERO);
        assert_eq!(c.now(), Duration::ZERO);
    }

    #[test]
    fn observer_clones_share_state() {
        let obs = Observer::new(ObsClock::frozen());
        let clone = obs.clone();
        clone.registry.counter("x").add(3);
        assert_eq!(obs.registry.counter("x").get(), 3);
        let _g = clone.tracer.span("root");
        drop(_g);
        assert_eq!(obs.tracer.records().len(), 1);
    }

    #[test]
    fn disabled_observer_records_no_spans() {
        let obs = Observer::disabled();
        {
            let _g = obs.tracer.span("invisible");
        }
        assert!(obs.tracer.records().is_empty());
    }
}
