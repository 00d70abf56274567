//! The flight-recorder event journal.
//!
//! A [`Journal`] is a low-overhead, lock-striped, bounded ring buffer
//! of typed [`Event`]s: span begin/end markers, counter deltas,
//! per-chunk I/O submissions and completions (with queue depth and
//! latency), retry and quarantine decisions, cache hits/misses, and
//! store pack reads. Every layer of the stack emits into it through a
//! cheap cloned handle; a disabled journal reduces [`Journal::emit`] to
//! a single branch, so instrumented code pays nothing when nobody is
//! recording.
//!
//! Bounded means *bounded*: each stripe holds at most
//! `capacity / stripes` events and drops the **oldest** event when
//! full, counting every drop. The ledger invariant
//! `events_emitted == events_written + events_dropped` is exact — see
//! [`JournalLedger`] — and is embedded in every export so a truncated
//! trace is always visibly truncated.
//!
//! Events carry a global monotonic sequence number (which doubles as
//! the emitted count) and a timestamp from the journal's [`ObsClock`],
//! so a journal filled under a simulated clock replays deterministically.
//! [`Journal::to_jsonl`] renders the retained events as JSON Lines —
//! one object per line, in sequence order — the raw sink the
//! Perfetto/flamegraph exporters in [`crate::export`] consume.

use crate::ObsClock;
use serde::{Deserialize, Serialize, Tag};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Default total event capacity (across all stripes).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 65_536;

/// Number of independently locked stripes.
const STRIPES: usize = 8;

/// What happened, with its payload. The variant set mirrors the
/// instrumentation points across the workspace; each variant's `type`
/// tag, its JSONL spelling, is its name in snake case.
#[derive(Debug, Clone, PartialEq, Serialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum EventKind {
    /// A tracer span opened (`span_begin`).
    SpanBegin {
        /// Span name.
        name: String,
    },
    /// A tracer span closed (`span_end`).
    SpanEnd {
        /// Span name.
        name: String,
    },
    /// A named counter was bumped (`counter_add`).
    CounterAdd {
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// A batch of SQEs was pushed through the submission queue
    /// (`io_submit`).
    IoSubmit {
        /// Operations in the batch.
        ops: u64,
        /// Total bytes requested.
        bytes: u64,
        /// Configured ring queue depth.
        queue_depth: u64,
    },
    /// One chunk read completed (`chunk_read`). The event timestamp is
    /// the completion time; `latency_ns` reaches back to the start.
    ChunkRead {
        /// Byte offset of the read.
        offset: u64,
        /// Bytes read.
        len: u64,
        /// Configured ring queue depth at submission.
        queue_depth: u64,
        /// Service time of this read in nanoseconds.
        latency_ns: u64,
    },
    /// The pipeline reader finished assembling one slice
    /// (`slice_fill`).
    SliceFill {
        /// Global index of the slice's first operation.
        first_op: u64,
        /// Operations coalesced into the slice.
        ops: u64,
        /// Slice payload bytes.
        bytes: u64,
        /// Fill latency in nanoseconds.
        latency_ns: u64,
    },
    /// A transient I/O failure is being retried (`retry`).
    Retry {
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Backoff charged before the retry, in nanoseconds.
        backoff_ns: u64,
    },
    /// Retries were exhausted (`gave_up`).
    GaveUp {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A chunk range was quarantined instead of aborting
    /// (`quarantine`).
    Quarantine {
        /// First chunk index of the range.
        first_chunk: u64,
        /// Chunks in the range.
        chunks: u64,
    },
    /// Metadata-cache hit (`cache_hit`).
    CacheHit {
        /// Which cache: `subtree` or `verdict`.
        what: String,
    },
    /// Metadata-cache miss (`cache_miss`).
    CacheMiss {
        /// Which cache: `subtree` or `verdict`.
        what: String,
    },
    /// A read resolved through the capture store's pack index
    /// (`store_read`).
    StoreRead {
        /// Bytes served.
        bytes: u64,
        /// Whether the span crossed a deduplicated chunk.
        deduped: bool,
    },
    /// A compute kernel charge (`kernel`) — e.g. stage-2 element
    /// verification over one slice.
    Kernel {
        /// Kernel name.
        name: String,
        /// Bytes processed.
        bytes: u64,
        /// Modeled or measured kernel time in nanoseconds.
        latency_ns: u64,
    },
    /// A checkpoint flush attempt finished (`flush`).
    Flush {
        /// Destination file name.
        name: String,
        /// Bytes flushed.
        bytes: u64,
        /// Whether the flush succeeded.
        ok: bool,
    },
    /// `fsck --repair` reconstructed corrupt chunks of one pack from
    /// XOR parity (`repair`).
    Repair {
        /// Pack file id.
        pack: u64,
        /// Chunks reconstructed and re-verified.
        chunks: u64,
    },
    /// A pack with unrecoverable corruption was quarantined
    /// (`pack_quarantine`): its chunks are served verify-on-read and
    /// surface as `unverified` ranges in degraded-mode comparison.
    PackQuarantine {
        /// Pack file id.
        pack: u64,
        /// Corrupt chunks that could not be reconstructed.
        chunks: u64,
    },
    /// Differential capture published a delta manifest
    /// (`delta_capture`): only the chunks that changed against the
    /// parent version were written.
    DeltaCapture {
        /// Checkpoint version captured.
        version: u64,
        /// Parent version the capture was diffed against.
        parent: u64,
        /// Chain depth of the new delta (parent depth + 1).
        depth: u64,
        /// Chunk payload bytes physically written.
        bytes_written: u64,
        /// Bytes skipped because the parent already held them.
        bytes_skipped: u64,
    },
    /// An online-comparison policy threshold was crossed
    /// (`divergence`): the comparator observed enough out-of-bound
    /// values to halt (or flag) the run-under-test.
    Divergence {
        /// Rank whose observation crossed the threshold.
        rank: u64,
        /// Iteration at which the threshold was crossed.
        iteration: u64,
        /// Out-of-bound values accumulated so far, across iterations.
        total_diffs: u64,
        /// The policy's configured maximum before halting.
        threshold: u64,
    },
}

impl EventKind {
    /// The `type` tag this kind serializes under.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        self.tag()
    }

    /// For events that model an interval (reads, slice fills, kernels):
    /// the interval length in nanoseconds. `None` for instants.
    #[must_use]
    pub fn latency_ns(&self) -> Option<u64> {
        match self {
            EventKind::ChunkRead { latency_ns, .. }
            | EventKind::SliceFill { latency_ns, .. }
            | EventKind::Kernel { latency_ns, .. } => Some(*latency_ns),
            _ => None,
        }
    }
}

/// One journal entry: a sequence number, a timestamp, the lane it
/// belongs to, and the typed payload. It serializes flat, as
/// `{"seq":…,"ts_ns":…,"lane":…,"type":…,fields…}`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Event {
    /// Global monotonic sequence number (allocation order).
    pub seq: u64,
    /// Clock reading at emission, in nanoseconds (saturating past
    /// ~584 years).
    pub ts_ns: u64,
    /// Timeline lane, e.g. `main`, `run_a.pipeline`, `run_b.pipeline`.
    pub lane: String,
    /// What happened.
    #[serde(flatten)]
    pub kind: EventKind,
}

impl Event {
    /// Timestamp in nanoseconds.
    #[must_use]
    pub fn ts_ns(&self) -> u64 {
        self.ts_ns
    }
}

/// The exact drop-accounting ledger:
/// `events_emitted == events_written + events_dropped`. A missing
/// count decodes as zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(default)]
pub struct JournalLedger {
    /// Events handed to [`Journal::emit`] while enabled.
    pub events_emitted: u64,
    /// Events still resident in the ring buffers.
    pub events_written: u64,
    /// Events evicted (oldest-first) to respect the capacity bound.
    pub events_dropped: u64,
}

#[derive(Debug, Default)]
struct Stripe {
    buf: VecDeque<Event>,
    dropped: u64,
}

#[derive(Debug)]
struct JournalInner {
    clock: ObsClock,
    stripes: Vec<Mutex<Stripe>>,
    stripe_capacity: usize,
    seq: AtomicU64,
}

/// The flight-recorder handle. Cheap to clone; clones share the ring.
///
/// A journal built with [`Journal::disabled`] (or [`Default`]) makes
/// [`Journal::emit`] a single branch — instrumentation sites guard any
/// non-trivial payload construction behind [`Journal::is_enabled`].
#[derive(Debug, Clone, Default)]
pub struct Journal {
    inner: Option<Arc<JournalInner>>,
}

impl Journal {
    /// An enabled journal with the default capacity, stamping
    /// timestamps from `clock`.
    #[must_use]
    pub fn new(clock: ObsClock) -> Self {
        Journal::with_capacity(clock, DEFAULT_JOURNAL_CAPACITY)
    }

    /// An enabled journal retaining at most `capacity` events in total
    /// (rounded up to a whole number per stripe, minimum one each).
    #[must_use]
    fn with_capacity(clock: ObsClock, capacity: usize) -> Self {
        let stripe_capacity = capacity.div_ceil(STRIPES).max(1);
        Journal {
            inner: Some(Arc::new(JournalInner {
                clock,
                stripes: (0..STRIPES)
                    .map(|_| Mutex::new(Stripe::default()))
                    .collect(),
                stripe_capacity,
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// A journal that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Journal { inner: None }
    }

    /// Whether events are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event on `lane`. A no-op (one branch) when disabled.
    pub fn emit(&self, lane: &str, kind: EventKind) {
        let Some(inner) = &self.inner else {
            return;
        };
        let seq = inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts_ns = u64::try_from(inner.clock.now().as_nanos()).unwrap_or(u64::MAX);
        let stripe = &inner.stripes[(seq as usize) % inner.stripes.len()];
        let mut s = stripe.lock().unwrap_or_else(PoisonError::into_inner);
        if s.buf.len() == inner.stripe_capacity {
            s.buf.pop_front();
            s.dropped += 1;
        }
        s.buf.push_back(Event {
            seq,
            ts_ns,
            lane: lane.to_owned(),
            kind,
        });
    }

    /// Every retained event, sorted by sequence number.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out: Vec<Event> = Vec::new();
        for stripe in &inner.stripes {
            let s = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            out.extend(s.buf.iter().cloned());
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The exact emitted/written/dropped ledger.
    #[must_use]
    pub fn ledger(&self) -> JournalLedger {
        let Some(inner) = &self.inner else {
            return JournalLedger::default();
        };
        let emitted = inner.seq.load(Ordering::Relaxed);
        let mut written = 0u64;
        let mut dropped = 0u64;
        for stripe in &inner.stripes {
            let s = stripe.lock().unwrap_or_else(PoisonError::into_inner);
            written += s.buf.len() as u64;
            dropped += s.dropped;
        }
        JournalLedger {
            events_emitted: emitted,
            events_written: written,
            events_dropped: dropped,
        }
    }

    /// The retained events as JSON Lines: one compact object per line,
    /// in sequence order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&serde_json::to_string(&e).unwrap_or_default());
            out.push('\n');
        }
        out
    }
}

/// A late-binding journal slot for long-lived objects created before
/// anyone is recording (e.g. store-backed storage built at source-load
/// time). The owner keeps the slot; an observed comparison [`set`]s an
/// enabled journal for its duration. [`emit`] costs one atomic load
/// while the slot is empty.
///
/// [`set`]: JournalSlot::set
/// [`emit`]: JournalSlot::emit
#[derive(Debug, Clone, Default)]
pub struct JournalSlot {
    armed: Arc<AtomicBool>,
    journal: Arc<Mutex<Journal>>,
}

impl JournalSlot {
    /// An empty slot.
    #[must_use]
    pub fn new() -> Self {
        JournalSlot::default()
    }

    /// Installs `journal`; subsequent [`JournalSlot::emit`] calls land
    /// in it (if it is enabled).
    pub fn set(&self, journal: Journal) {
        let armed = journal.is_enabled();
        *self.journal.lock().unwrap_or_else(PoisonError::into_inner) = journal;
        self.armed.store(armed, Ordering::Release);
    }

    /// Empties the slot.
    pub fn clear(&self) {
        self.set(Journal::disabled());
    }

    /// Records `kind` on `lane` through the installed journal, if any.
    pub fn emit(&self, lane: &str, kind: EventKind) {
        if !self.armed.load(Ordering::Acquire) {
            return;
        }
        self.journal
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .emit(lane, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestAtomicU64;
    use std::time::Duration;

    fn manual_clock() -> (ObsClock, Arc<TestAtomicU64>) {
        let ns = Arc::new(TestAtomicU64::new(0));
        let src = Arc::clone(&ns);
        let clock = ObsClock::from_fn(move || Duration::from_nanos(src.load(Ordering::SeqCst)));
        (clock, ns)
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let j = Journal::disabled();
        j.emit("main", EventKind::GaveUp { attempts: 3 });
        assert!(!j.is_enabled());
        assert!(j.events().is_empty());
        assert_eq!(j.ledger().events_emitted, 0);
        assert!(j.to_jsonl().is_empty());
    }

    #[test]
    fn events_carry_sequence_lane_and_timestamp() {
        let (clock, ns) = manual_clock();
        let j = Journal::new(clock);
        j.emit(
            "main",
            EventKind::SpanBegin {
                name: "compare".into(),
            },
        );
        ns.store(250, Ordering::SeqCst);
        j.emit(
            "io.w0",
            EventKind::ChunkRead {
                offset: 4096,
                len: 512,
                queue_depth: 64,
                latency_ns: 100,
            },
        );
        let events = j.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].lane, "main");
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[1].ts_ns(), 250);
        assert_eq!(events[1].kind.latency_ns(), Some(100));
    }

    #[test]
    fn ring_drops_oldest_and_ledger_stays_exact() {
        let j = Journal::with_capacity(ObsClock::frozen(), 16);
        for i in 0..1000u64 {
            j.emit(
                "main",
                EventKind::CounterAdd {
                    name: "x".into(),
                    delta: i,
                },
            );
        }
        let ledger = j.ledger();
        assert_eq!(ledger.events_emitted, 1000);
        assert!(ledger.events_dropped > 0);
        assert_eq!(
            ledger.events_emitted,
            ledger.events_written + ledger.events_dropped,
            "emitted = written + dropped"
        );
        let events = j.events();
        assert_eq!(events.len() as u64, ledger.events_written);
        // The survivors are the newest events of each stripe.
        assert!(events.iter().all(|e| e.seq >= 1000 - 16 * 8));
    }

    #[test]
    fn jsonl_lines_are_one_object_per_event() {
        let j = Journal::new(ObsClock::frozen());
        j.emit(
            "store",
            EventKind::StoreRead {
                bytes: 4096,
                deduped: true,
            },
        );
        j.emit("veloc", EventKind::GaveUp { attempts: 2 });
        let jsonl = j.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"seq\":0,"));
        assert!(lines[0].contains("\"type\":\"store_read\""));
        assert!(lines[0].contains("\"deduped\":true"));
        assert!(lines[1].contains("\"attempts\":2"));
    }

    #[test]
    fn concurrent_emitters_never_lose_the_ledger() {
        let j = Journal::with_capacity(ObsClock::wall(), 64);
        let mut handles = Vec::new();
        for t in 0..4 {
            let j = j.clone();
            handles.push(std::thread::spawn(move || {
                let lane = format!("w{t}");
                for _ in 0..500 {
                    j.emit(&lane, EventKind::GaveUp { attempts: 1 });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ledger = j.ledger();
        assert_eq!(ledger.events_emitted, 2000);
        assert_eq!(
            ledger.events_emitted,
            ledger.events_written + ledger.events_dropped
        );
        // Sequence numbers are unique.
        let events = j.events();
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), events.len());
    }

    #[test]
    fn slot_arms_and_disarms() {
        let slot = JournalSlot::new();
        slot.emit("store", EventKind::GaveUp { attempts: 1 }); // empty: no-op
        let j = Journal::new(ObsClock::frozen());
        slot.set(j.clone());
        slot.emit(
            "store",
            EventKind::StoreRead {
                bytes: 1,
                deduped: false,
            },
        );
        slot.clear();
        slot.emit(
            "store",
            EventKind::StoreRead {
                bytes: 2,
                deduped: false,
            },
        );
        let events = j.events();
        assert_eq!(events.len(), 1);
        assert!(matches!(
            events[0].kind,
            EventKind::StoreRead { bytes: 1, .. }
        ));
    }
}
