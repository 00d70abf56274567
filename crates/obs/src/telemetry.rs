//! The live telemetry plane: daemon-level metric snapshots.
//!
//! The per-job observability in this crate (spans, registries, flight
//! recorder) answers *what did this comparison cost*; telemetry
//! answers *what is the daemon doing right now*. A
//! [`TelemetrySnapshot`] is one schema-versioned, point-in-time
//! reading of everything operable about a running daemon: queue
//! pressure, worker saturation, job-table state, store growth, the
//! aggregate journal ledger, and the full metrics registry (gauges and
//! histogram bucket arrays included, so downstream renderers need no
//! side channels).
//!
//! Three pieces, all deterministic:
//!
//! * [`TelemetryRing`] — a bounded history of snapshots with an exact
//!   eviction count, the in-memory form of the daemon's
//!   `telemetry.jsonl`;
//! * [`Sampler`] — cadence bookkeeping over an [`ObsClock`], so a test
//!   driving a manual clock gets a byte-reproducible series while the
//!   production daemon free-runs on wall time;
//! * [`prometheus_text`] — the Prometheus text exposition (v0.0.4)
//!   renderer: exact `# TYPE` lines, deterministic label ordering,
//!   cumulative `le` buckets derived from the log2 histogram arrays.
//!
//! Snapshots round-trip: [`TelemetrySnapshot::to_json_line`] is the
//! JSONL persistence format and [`TelemetrySnapshot::from_value`]
//! decodes it through the derived `Deserialize` (additively — unknown
//! fields are ignored, so the schema can grow without breaking old
//! readers).

use crate::journal::JournalLedger;
use crate::metrics::RegistrySnapshot;
use crate::ObsClock;
use serde::{Deserialize, Serialize, Value};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

/// Telemetry schema revision. Bumped only for additive changes;
/// decoders accept any `schema >= 1` snapshot.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// Queue pressure at the sampling instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct QueueTelemetry {
    /// Admission bound on in-flight jobs.
    pub capacity: u64,
    /// Jobs admitted but not yet served to a worker.
    pub queued: u64,
    /// Jobs counting against the bound (queued + executing).
    pub in_flight: u64,
    /// Jobs admitted since the daemon started (monotonic).
    pub admitted: u64,
    /// Jobs refused by admission control since start (monotonic).
    pub refused: u64,
    /// Whether the queue has stopped admitting.
    pub shutting_down: bool,
}

/// One worker thread's cumulative activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct WorkerTelemetry {
    /// Worker index (stable for the daemon's lifetime).
    pub worker: u64,
    /// Jobs this worker has executed.
    pub jobs_executed: u64,
    /// Cumulative time spent executing jobs, in clock nanoseconds.
    pub busy_ns: u64,
    /// Cumulative time spent waiting for work, in clock nanoseconds.
    pub idle_ns: u64,
}

/// Job-table population by lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct JobStateCounts {
    /// Accepted, waiting for a worker.
    pub queued: u64,
    /// Currently executing.
    pub running: u64,
    /// Finished successfully.
    pub done: u64,
    /// Finished with an error.
    pub failed: u64,
}

/// Store growth counters (a subset of the store's full stats that is
/// cheap to read on every sample).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[serde(default)]
pub struct StoreTelemetry {
    /// Checkpoints (manifests) in the store.
    pub objects: u64,
    /// Pack files on disk.
    pub packs: u64,
    /// Logical bytes across all manifests.
    pub bytes_logical: u64,
    /// Chunk payload bytes across all indexed chunks.
    pub bytes_physical: u64,
    /// Bytes saved by index-level dedup.
    pub bytes_deduped: u64,
    /// Indexed chunk bytes at refcount 0 awaiting GC.
    pub bytes_garbage: u64,
    /// Actual pack file bytes on disk.
    pub pack_file_bytes: u64,
}

/// One schema-versioned, point-in-time reading of a live daemon.
/// `schema`, `queue`, `jobs`, `store` and `registry` are required when
/// decoding; the rest default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Schema revision (see [`TELEMETRY_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Monotonic sample number (continues across daemon restarts).
    #[serde(default)]
    pub seq: u64,
    /// Sampling clock reading, nanoseconds since the clock's epoch.
    #[serde(default)]
    pub ts_ns: u64,
    /// Queue pressure.
    pub queue: QueueTelemetry,
    /// Per-worker activity, ascending by worker index.
    #[serde(default)]
    pub workers: Vec<WorkerTelemetry>,
    /// Job-table state counts.
    pub jobs: JobStateCounts,
    /// Store growth.
    pub store: StoreTelemetry,
    /// Aggregate journal ledger across all executed jobs.
    #[serde(default)]
    pub journal: JournalLedger,
    /// The daemon's full metrics registry: counters, gauges, and
    /// histograms with their bucket arrays.
    pub registry: RegistrySnapshot,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            seq: 0,
            ts_ns: 0,
            queue: QueueTelemetry::default(),
            workers: Vec::new(),
            jobs: JobStateCounts::default(),
            store: StoreTelemetry::default(),
            journal: JournalLedger::default(),
            registry: RegistrySnapshot::default(),
        }
    }
}

impl TelemetrySnapshot {
    /// Decodes a snapshot from its serialized [`Value`] tree (a parsed
    /// JSONL line or a wire frame's `snapshot` field). Unknown fields
    /// are ignored, so the schema can grow without breaking old readers.
    ///
    /// # Errors
    ///
    /// A human-readable message when a required field is absent, a
    /// field has the wrong type, or the schema revision is unknown
    /// (`schema == 0`).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let snap: Self = serde_json::from_value(v.clone()).map_err(|e| e.to_string())?;
        if snap.schema == 0 {
            return Err("TelemetrySnapshot: schema 0 names no revision".to_owned());
        }
        Ok(snap)
    }

    /// One compact JSON line (no trailing newline) — the
    /// `telemetry.jsonl` persistence format.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(self).unwrap_or_default()
    }
}

// -------------------------------------------------------------------
// The bounded history ring.
// -------------------------------------------------------------------

/// A bounded FIFO of snapshots — the in-memory twin of the persisted
/// `telemetry.jsonl`.
#[derive(Debug, Clone)]
pub struct TelemetryRing {
    entries: VecDeque<TelemetrySnapshot>,
    capacity: usize,
}

impl TelemetryRing {
    /// A ring retaining at most `capacity` snapshots (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TelemetryRing {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Retention bound.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshots currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been sampled yet (or all was evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a snapshot, evicting the oldest when full.
    pub fn push(&mut self, snapshot: TelemetrySnapshot) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(snapshot);
    }

    /// Retained snapshots, oldest first.
    #[must_use]
    pub fn snapshots(&self) -> Vec<TelemetrySnapshot> {
        self.entries.iter().cloned().collect()
    }

    /// The retained history as JSON Lines (one snapshot per line,
    /// oldest first, newline-terminated when non-empty).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.entries {
            out.push_str(&s.to_json_line());
            out.push('\n');
        }
        out
    }
}

// -------------------------------------------------------------------
// The deterministic sampler.
// -------------------------------------------------------------------

/// Cadence bookkeeping over an [`ObsClock`].
///
/// Tick boundaries sit at multiples of the period from the clock's
/// epoch, with tick 0 due immediately. [`Sampler::poll`] reports
/// whether at least one boundary has passed since the last poll and
/// advances past *all* of them — a late poller takes one catch-up
/// sample rather than a burst of identical ones. Driven by a manual
/// test clock the due/not-due series is exactly reproducible; the
/// production daemon runs the same code on a wall clock.
#[derive(Debug, Clone)]
pub struct Sampler {
    clock: ObsClock,
    period: Duration,
    next: Duration,
}

impl Sampler {
    /// A sampler reading `clock` on `period` cadence. A zero period
    /// disables it: [`Sampler::poll`] never fires.
    #[must_use]
    pub fn new(clock: ObsClock, period: Duration) -> Self {
        Sampler {
            clock,
            period,
            next: Duration::ZERO,
        }
    }

    /// Whether a sample is due. When due, returns the index of the
    /// most recent tick boundary passed and advances past it (missed
    /// boundaries coalesce into this one poll).
    pub fn poll(&mut self) -> Option<u64> {
        if self.period.is_zero() {
            return None;
        }
        let now = self.clock.now();
        if now < self.next {
            return None;
        }
        let tick = (now.as_nanos() / self.period.as_nanos()) as u64;
        self.next = self
            .period
            .saturating_mul(u32::try_from(tick + 1).unwrap_or(u32::MAX));
        Some(tick)
    }
}

// -------------------------------------------------------------------
// Prometheus text exposition (v0.0.4).
// -------------------------------------------------------------------

/// Sanitizes a registry metric name into the Prometheus grammar:
/// every character outside `[a-zA-Z0-9_]` becomes `_`.
#[must_use]
fn prometheus_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn scalar(out: &mut String, name: &str, kind: &str, value: impl std::fmt::Display) {
    type_line(out, name, kind);
    let _ = writeln!(out, "{name} {value}");
}

/// Renders one snapshot as Prometheus text exposition format v0.0.4.
///
/// Byte-deterministic: metric families appear in a fixed order
/// (telemetry header, queue, job states, workers, store, journal,
/// then the registry's counters, gauges, and histograms, each sorted
/// by name), labels in ascending order, and histogram `le` buckets
/// ascending with the mandatory `+Inf` terminal bucket.
#[must_use]
pub fn prometheus_text(snap: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    scalar(&mut out, "reprocmp_telemetry_schema", "gauge", snap.schema);
    scalar(&mut out, "reprocmp_telemetry_seq", "counter", snap.seq);
    scalar(&mut out, "reprocmp_telemetry_ts_ns", "gauge", snap.ts_ns);

    scalar(
        &mut out,
        "reprocmp_queue_capacity",
        "gauge",
        snap.queue.capacity,
    );
    scalar(&mut out, "reprocmp_queue_depth", "gauge", snap.queue.queued);
    scalar(
        &mut out,
        "reprocmp_queue_in_flight",
        "gauge",
        snap.queue.in_flight,
    );
    scalar(
        &mut out,
        "reprocmp_queue_admitted_total",
        "counter",
        snap.queue.admitted,
    );
    scalar(
        &mut out,
        "reprocmp_queue_refused_total",
        "counter",
        snap.queue.refused,
    );
    scalar(
        &mut out,
        "reprocmp_queue_shutting_down",
        "gauge",
        u8::from(snap.queue.shutting_down),
    );

    type_line(&mut out, "reprocmp_jobs", "gauge");
    for (state, n) in [
        ("done", snap.jobs.done),
        ("failed", snap.jobs.failed),
        ("queued", snap.jobs.queued),
        ("running", snap.jobs.running),
    ] {
        let _ = writeln!(out, "reprocmp_jobs{{state=\"{state}\"}} {n}");
    }

    for (family, pick) in [
        (
            "reprocmp_worker_jobs_total",
            (|w: &WorkerTelemetry| w.jobs_executed) as fn(&WorkerTelemetry) -> u64,
        ),
        ("reprocmp_worker_busy_ns_total", |w| w.busy_ns),
        ("reprocmp_worker_idle_ns_total", |w| w.idle_ns),
    ] {
        type_line(&mut out, family, "counter");
        for w in &snap.workers {
            let _ = writeln!(out, "{family}{{worker=\"{}\"}} {}", w.worker, pick(w));
        }
    }

    scalar(
        &mut out,
        "reprocmp_store_objects",
        "gauge",
        snap.store.objects,
    );
    scalar(&mut out, "reprocmp_store_packs", "gauge", snap.store.packs);
    scalar(
        &mut out,
        "reprocmp_store_bytes_logical",
        "gauge",
        snap.store.bytes_logical,
    );
    scalar(
        &mut out,
        "reprocmp_store_bytes_physical",
        "gauge",
        snap.store.bytes_physical,
    );
    scalar(
        &mut out,
        "reprocmp_store_bytes_deduped",
        "gauge",
        snap.store.bytes_deduped,
    );
    scalar(
        &mut out,
        "reprocmp_store_bytes_garbage",
        "gauge",
        snap.store.bytes_garbage,
    );
    scalar(
        &mut out,
        "reprocmp_store_pack_file_bytes",
        "gauge",
        snap.store.pack_file_bytes,
    );

    scalar(
        &mut out,
        "reprocmp_journal_events_emitted_total",
        "counter",
        snap.journal.events_emitted,
    );
    scalar(
        &mut out,
        "reprocmp_journal_events_written_total",
        "counter",
        snap.journal.events_written,
    );
    scalar(
        &mut out,
        "reprocmp_journal_events_dropped_total",
        "counter",
        snap.journal.events_dropped,
    );

    for c in &snap.registry.counters {
        scalar(
            &mut out,
            &format!("reprocmp_{}_total", prometheus_name(&c.name)),
            "counter",
            c.value,
        );
    }
    for g in &snap.registry.gauges {
        scalar(
            &mut out,
            &format!("reprocmp_{}", prometheus_name(&g.name)),
            "gauge",
            g.value,
        );
    }
    for h in &snap.registry.histograms {
        let family = format!("reprocmp_{}", prometheus_name(&h.name));
        type_line(&mut out, &family, "histogram");
        let mut cumulative = 0u64;
        for b in &h.histogram.buckets {
            cumulative += b.count;
            // The top log2 bucket's bound is u64::MAX; +Inf covers it.
            if b.high == u64::MAX {
                continue;
            }
            let _ = writeln!(out, "{family}_bucket{{le=\"{}\"}} {cumulative}", b.high);
        }
        let _ = writeln!(out, "{family}_bucket{{le=\"+Inf\"}} {}", h.histogram.count);
        let _ = writeln!(out, "{family}_sum {}", h.histogram.sum);
        let _ = writeln!(out, "{family}_count {}", h.histogram.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn sample_snapshot(seq: u64) -> TelemetrySnapshot {
        let registry = Registry::new();
        registry.counter("jobs.done").add(5);
        let h = registry.histogram("job.cost");
        for v in [1u64, 2, 3, 900] {
            h.record(v);
        }
        TelemetrySnapshot {
            schema: TELEMETRY_SCHEMA_VERSION,
            seq,
            ts_ns: seq * 1_000,
            queue: QueueTelemetry {
                capacity: 64,
                queued: 3,
                in_flight: 5,
                admitted: 40,
                refused: 2,
                shutting_down: false,
            },
            workers: vec![
                WorkerTelemetry {
                    worker: 0,
                    jobs_executed: 21,
                    busy_ns: 9_000,
                    idle_ns: 100,
                },
                WorkerTelemetry {
                    worker: 1,
                    jobs_executed: 19,
                    busy_ns: 8_000,
                    idle_ns: 400,
                },
            ],
            jobs: JobStateCounts {
                queued: 3,
                running: 2,
                done: 33,
                failed: 2,
            },
            store: StoreTelemetry {
                objects: 8,
                packs: 2,
                bytes_logical: 1 << 20,
                bytes_physical: 700_000,
                bytes_deduped: 300_000,
                bytes_garbage: 0,
                pack_file_bytes: 710_000,
            },
            journal: JournalLedger {
                events_emitted: 1000,
                events_written: 900,
                events_dropped: 100,
            },
            registry: crate::metrics::RegistrySnapshot {
                gauges: vec![crate::metrics::MetricValue {
                    name: "drr.lanes".into(),
                    value: -2,
                }],
                ..registry.snapshot()
            },
        }
    }

    #[test]
    fn snapshot_round_trips_through_its_json_line() {
        let snap = sample_snapshot(7);
        let line = snap.to_json_line();
        let parsed = serde_json::from_str(&line).expect("line parses");
        let decoded = TelemetrySnapshot::from_value(&parsed).expect("decode");
        assert_eq!(decoded, snap);
        assert!(!line.contains('\n'), "one line per snapshot");
    }

    #[test]
    fn decoding_ignores_unknown_fields_and_defaults_missing_numbers() {
        let mut v = sample_snapshot(1).to_value();
        if let Value::Object(fields) = &mut v {
            fields.push(("added_in_v9".to_owned(), Value::String("x".to_owned())));
        }
        let decoded = TelemetrySnapshot::from_value(&v).expect("additive decode");
        assert_eq!(decoded.seq, 1);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_exactly() {
        let mut ring = TelemetryRing::new(3);
        for seq in 0..5 {
            ring.push(sample_snapshot(seq));
        }
        assert_eq!(ring.len(), 3);
        let seqs: Vec<u64> = ring.snapshots().iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn ring_jsonl_has_one_line_per_snapshot() {
        let mut ring = TelemetryRing::new(8);
        ring.push(sample_snapshot(0));
        ring.push(sample_snapshot(1));
        assert_eq!(ring.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn sampler_fires_on_deterministic_tick_boundaries() {
        let nanos = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&nanos);
        let clock = ObsClock::from_fn(move || Duration::from_nanos(src.load(Ordering::SeqCst)));
        let mut sampler = Sampler::new(clock, Duration::from_nanos(100));
        assert_eq!(sampler.poll(), Some(0), "tick 0 due immediately");
        assert_eq!(sampler.poll(), None, "not due again at the same instant");
        nanos.store(99, Ordering::SeqCst);
        assert_eq!(sampler.poll(), None);
        nanos.store(100, Ordering::SeqCst);
        assert_eq!(sampler.poll(), Some(1));
        // Missed boundaries coalesce into one catch-up poll.
        nanos.store(1000, Ordering::SeqCst);
        assert_eq!(sampler.poll(), Some(10));
        assert_eq!(sampler.poll(), None);
    }

    #[test]
    fn zero_period_sampler_never_fires() {
        let mut sampler = Sampler::new(ObsClock::wall(), Duration::ZERO);
        assert_eq!(sampler.poll(), None);
    }

    #[test]
    fn prometheus_text_is_deterministic_and_well_formed() {
        let snap = sample_snapshot(7);
        let text = prometheus_text(&snap);
        assert_eq!(text, prometheus_text(&snap), "byte-deterministic");
        assert!(text.contains("# TYPE reprocmp_queue_depth gauge\nreprocmp_queue_depth 3\n"));
        assert!(text.contains("reprocmp_jobs{state=\"done\"} 33"));
        assert!(text.contains("reprocmp_worker_busy_ns_total{worker=\"1\"} 8000"));
        assert!(text.contains("# TYPE reprocmp_jobs_done_total counter"));
        assert!(
            text.contains("reprocmp_drr_lanes -2"),
            "gauge value rendered"
        );
        // Histogram: cumulative le buckets ascending, +Inf terminal.
        assert!(text.contains("# TYPE reprocmp_job_cost histogram"));
        assert!(text.contains("reprocmp_job_cost_bucket{le=\"1\"} 1"));
        assert!(text.contains("reprocmp_job_cost_bucket{le=\"3\"} 3"));
        assert!(text.contains("reprocmp_job_cost_bucket{le=\"1023\"} 4"));
        assert!(text.contains("reprocmp_job_cost_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("reprocmp_job_cost_sum 906"));
        assert!(text.contains("reprocmp_job_cost_count 4"));
        // Every line is either a comment or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with("# TYPE ") || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("io.read_bytes"), "io_read_bytes");
        assert_eq!(prometheus_name("a-b/c d"), "a_b_c_d");
    }
}
