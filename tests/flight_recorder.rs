//! End-to-end tests of the flight recorder: journaled comparisons on
//! every I/O backend, JSONL and Chrome-trace export validity, the
//! exact drop ledger, and the guarantee that journaling never changes
//! a report.
//!
//! Everything runs on a simulated timeline, so event timestamps and
//! reports are deterministic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reprocmp::core::{CheckpointSource, CompareEngine, CompareReport, Ctx, EngineConfig};
use reprocmp::device::Device;
use reprocmp::io::{BackendKind, CostModel, PipelineConfig, SimClock, Timeline};
use reprocmp::obs::{chrome_trace, EventKind, Journal, ObsClock, Observer};
use serde::Value;

// ---------------------------------------------------------------------
// Scenario plumbing
// ---------------------------------------------------------------------

/// A deterministic divergent pair with differences well above the
/// bound in many chunks (so stage 2 actually streams).
fn generate(seed: u64, n: usize) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut run1 = Vec::with_capacity(n);
    for _ in 0..n {
        run1.push(rng.gen_range(-2.0f32..2.0));
    }
    let mut run2 = run1.clone();
    for v in run2.iter_mut() {
        if rng.gen_bool(0.02) {
            *v += 1e-3;
        }
    }
    (run1, run2)
}

fn engine_for(backend: BackendKind) -> CompareEngine {
    CompareEngine::new(EngineConfig {
        chunk_bytes: 1024,
        error_bound: 1e-5,
        device: Device::sim_cpu_core(),
        io: PipelineConfig {
            backend,
            queue_depth: 8,
            ..PipelineConfig::default()
        },
        ..EngineConfig::default()
    })
}

/// Runs one simulated-timeline comparison, journaled or not, and
/// returns the report plus the observer that watched it.
fn compare_with(
    backend: BackendKind,
    seed: u64,
    n: usize,
    journaled: bool,
) -> (CompareReport, Observer) {
    let (run1, run2) = generate(seed, n);
    let engine = engine_for(backend);
    let clock = SimClock::new();
    let model = CostModel::lustre_pfs();
    let a = CheckpointSource::in_memory_with_model(&run1, &engine, model, Some(clock.clone()))
        .expect("source a");
    let b = CheckpointSource::in_memory_with_model(&run2, &engine, model, Some(clock.clone()))
        .expect("source b");
    let timeline = Timeline::sim(clock);
    let obs = if journaled {
        Observer::with_journal(timeline.obs_clock())
    } else {
        timeline.observer()
    };
    let report = engine
        .compare(
            &a,
            &b,
            &Ctx {
                timeline,
                obs: obs.clone(),
            },
        )
        .expect("compare");
    (report, obs)
}

const BACKENDS: [BackendKind; 3] = [BackendKind::Uring, BackendKind::Mmap, BackendKind::Blocking];

// ---------------------------------------------------------------------
// Journaling never changes a report
// ---------------------------------------------------------------------

/// On every backend, the serialized report of a journaled comparison
/// is byte-identical to the unjournaled one: the flight recorder is
/// strictly additive.
#[test]
fn journaled_reports_are_byte_identical_on_every_backend() {
    for backend in BACKENDS {
        let (plain, _) = compare_with(backend, 7, 16 << 10, false);
        let (journaled, obs) = compare_with(backend, 7, 16 << 10, true);
        assert!(
            obs.journal().ledger().events_emitted > 0,
            "{backend:?}: journaled run recorded nothing"
        );
        assert_eq!(
            serde_json::to_string_pretty(&plain).unwrap(),
            serde_json::to_string_pretty(&journaled).unwrap(),
            "{backend:?}: journaling changed the report"
        );
    }
}

// ---------------------------------------------------------------------
// JSONL + nesting properties
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On every backend and seed: the JSONL sink is line-by-line valid
    /// JSON with the envelope fields, sequence numbers strictly
    /// increase, span begin/end markers are well-nested, the drop
    /// ledger is exact, and there is a `chunk_read` event for every
    /// completed stage-2 read.
    #[test]
    fn journal_is_valid_jsonl_with_nested_spans_and_exact_ledger(
        backend_ix in 0usize..3,
        seed in 1u64..64,
    ) {
        let (report, obs) = compare_with(BACKENDS[backend_ix], seed, 8 << 10, true);
        let journal = obs.journal();

        let ledger = journal.ledger();
        prop_assert_eq!(
            ledger.events_emitted,
            ledger.events_written + ledger.events_dropped
        );
        let events = journal.events();
        prop_assert_eq!(events.len() as u64, ledger.events_written);

        // JSONL: one parseable object per line, envelope intact,
        // seq strictly increasing.
        let jsonl = journal.to_jsonl();
        let mut last_seq = None;
        for line in jsonl.lines() {
            let obj = serde_json::from_str(line).expect("valid JSON line");
            let seq = obj.get("seq").and_then(Value::as_u64).expect("seq");
            obj.get("ts_ns").and_then(Value::as_u64).expect("ts_ns");
            obj.get("lane").and_then(Value::as_str).expect("lane");
            obj.get("type").and_then(Value::as_str).expect("type");
            if let Some(prev) = last_seq {
                prop_assert!(seq > prev, "seq went backwards: {prev} -> {seq}");
            }
            last_seq = Some(seq);
        }
        prop_assert_eq!(jsonl.lines().count(), events.len());

        // Span markers mirror the tracer, which runs on the driving
        // thread: begin/end must pair up like parentheses.
        let mut stack: Vec<&str> = Vec::new();
        for e in &events {
            match &e.kind {
                EventKind::SpanBegin { name } => stack.push(name),
                EventKind::SpanEnd { name } => {
                    let open = stack.pop().expect("span_end without begin");
                    prop_assert_eq!(open, name.as_str());
                }
                _ => {}
            }
        }
        prop_assert!(stack.is_empty(), "unclosed spans: {:?}", stack);

        // Every completed stage-2 read journals exactly one chunk_read.
        let chunk_reads = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::ChunkRead { .. }))
            .count() as u64;
        prop_assert_eq!(chunk_reads, report.io.completed);
        prop_assert!(chunk_reads > 0, "no stage-2 traffic in scenario");
    }
}

// ---------------------------------------------------------------------
// Chrome-trace export round-trip
// ---------------------------------------------------------------------

/// The exported Chrome trace parses, names one timeline lane per
/// pipeline reader, carries on it each slice's `io_submit` at the
/// configured queue depth and a `chunk_read` interval for every
/// completed stage-2 read, and embeds the exact drop ledger.
#[test]
fn chrome_trace_has_worker_and_ring_lanes_and_every_chunk_read() {
    let (report, obs) = compare_with(BackendKind::Uring, 11, 32 << 10, true);
    let journal = obs.journal();
    let text = chrome_trace(&obs.tracer.records(), &journal.events(), &journal.ledger());
    let trace = serde_json::from_str(&text).expect("valid JSON trace");

    let Some(Value::Array(trace_events)) = trace.get("traceEvents") else {
        panic!("no traceEvents array")
    };
    let name = |e: &Value| e.get("name").and_then(Value::as_str).map(str::to_owned);
    let tid = |e: &Value| e.get("tid").and_then(Value::as_u64);
    let lanes: Vec<(Option<u64>, &str)> = trace_events
        .iter()
        .filter(|e| name(e).as_deref() == Some("thread_name"))
        .filter_map(|e| Some((tid(e), e.get("args")?.get("name")?.as_str()?)))
        .collect();
    let lane_of = |e: &Value| {
        lanes
            .iter()
            .find(|(t, _)| *t == tid(e))
            .map(|&(_, lane)| lane)
    };
    for side in ["run_a", "run_b"] {
        let pipeline = format!("{side}.pipeline");
        assert!(
            lanes.iter().any(|&(_, l)| l == pipeline),
            "{side}: no pipeline lane in {lanes:?}"
        );
        let submits: Vec<_> = trace_events
            .iter()
            .filter(|e| name(e).as_deref() == Some("io_submit"))
            .filter(|e| lane_of(e) == Some(pipeline.as_str()))
            .collect();
        assert!(!submits.is_empty(), "{side}: no io_submit");
        for e in submits {
            let depth = e.get("args").and_then(|a| a.get("queue_depth"));
            assert_eq!(depth.and_then(Value::as_u64), Some(8), "{side}");
        }
    }
    assert!(lanes.iter().any(|&(_, l)| l == "main"), "span lane missing");

    // The pipeline lanes hold every chunk_read interval; each carries
    // ts + dur.
    let chunk_reads: Vec<_> = trace_events
        .iter()
        .filter(|e| name(e).as_deref() == Some("chunk_read"))
        .collect();
    assert_eq!(
        chunk_reads.len() as u64,
        report.io.completed,
        "trace lost or duplicated chunk reads"
    );
    assert!(!chunk_reads.is_empty());
    for e in chunk_reads {
        assert!(lane_of(e).is_some_and(|l| l.ends_with(".pipeline")));
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
    }

    let ledger = journal.ledger();
    let other = trace.get("otherData").expect("otherData");
    assert_eq!(
        other.get("events_emitted").and_then(Value::as_u64),
        Some(ledger.events_emitted)
    );
    assert_eq!(
        other.get("events_written").and_then(Value::as_u64),
        Some(ledger.events_written)
    );
    assert_eq!(
        other.get("events_dropped").and_then(Value::as_u64),
        Some(ledger.events_dropped)
    );
    assert_eq!(
        ledger.events_emitted,
        ledger.events_written + ledger.events_dropped
    );
}

/// The folded-stack export of a journaled comparison starts every line
/// at the `compare` root and is consumable by `flamegraph.pl`
/// (`stack 1;stack2 count` lines).
#[test]
fn folded_stacks_cover_the_compare_tree() {
    let (_, obs) = compare_with(BackendKind::Blocking, 3, 8 << 10, true);
    let folded = reprocmp::obs::folded_stacks(&obs.tracer.records());
    assert!(!folded.is_empty());
    for line in folded.lines() {
        assert!(line.starts_with("compare"), "stack not rooted: {line}");
        let (_, count) = line.rsplit_once(' ').expect("space-separated count");
        count.parse::<u64>().expect("integer sample count");
    }
}

// ---------------------------------------------------------------------
// Online-policy divergence events
// ---------------------------------------------------------------------

/// When an `OnlinePolicy::AbortAfter` threshold trips, the comparator
/// emits exactly one typed `divergence` event whose fields name the
/// crossing `(rank, iteration)`, the accumulated total, and the
/// configured threshold — and the event survives the JSONL round trip
/// with its `divergence` type tag.
#[test]
fn online_abort_emits_a_typed_divergence_event() {
    use reprocmp::core::{CheckpointHistory, OnlineComparator, OnlinePolicy};

    let engine = engine_for(BackendKind::Blocking);
    let (reference, _) = generate(21, 8 << 10);
    let mut history = CheckpointHistory::new();
    for iteration in [10u64, 20, 30] {
        history.insert(
            0,
            iteration,
            CheckpointSource::in_memory(&reference, &engine).expect("reference checkpoint"),
        );
    }
    let journal = Journal::new(ObsClock::frozen());
    let mut online = OnlineComparator::new(
        engine,
        history,
        OnlinePolicy::AbortAfter {
            max_total_diffs: 10,
        },
    )
    .with_journal(journal.clone());

    // Iteration 10 is clean: no event. Iteration 20 blows past the
    // threshold: exactly one event. Iteration 30 is refused while
    // halted: still exactly one event.
    online.observe(0, 10, &reference).expect("clean observe");
    let diverged: Vec<f32> = reference.iter().map(|v| v + 0.5).collect();
    online.observe(0, 20, &diverged).expect("diverged observe");
    online.observe(0, 30, &diverged).expect("halted observe");
    assert!(online.halted());

    let events: Vec<_> = journal
        .events()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::Divergence { .. }))
        .collect();
    assert_eq!(events.len(), 1, "exactly one divergence event");
    let EventKind::Divergence {
        rank,
        iteration,
        total_diffs,
        threshold,
    } = &events[0].kind
    else {
        unreachable!()
    };
    assert_eq!((*rank, *iteration, *threshold), (0, 20, 10));
    assert_eq!(*total_diffs, online.total_diffs());
    assert!(*total_diffs > *threshold);

    // JSONL spelling: lane `online`, type `divergence`, all fields.
    let line = journal
        .to_jsonl()
        .lines()
        .map(|line| serde_json::from_str(line).expect("valid JSON line"))
        .find(|obj| obj.get("type").and_then(Value::as_str) == Some("divergence"))
        .expect("divergence line in JSONL");
    assert_eq!(line.get("lane").and_then(Value::as_str), Some("online"));
    assert_eq!(line.get("rank").and_then(Value::as_u64), Some(0));
    assert_eq!(line.get("iteration").and_then(Value::as_u64), Some(20));
    assert_eq!(line.get("threshold").and_then(Value::as_u64), Some(10));
    assert_eq!(
        line.get("total_diffs").and_then(Value::as_u64),
        Some(online.total_diffs())
    );
}

// ---------------------------------------------------------------------
// Overhead budget
// ---------------------------------------------------------------------

/// The disabled journal's emit path is one branch: ten million emits
/// must come in far under a (very lenient) second, and must record
/// nothing.
#[test]
fn disabled_journal_emit_is_effectively_free() {
    let journal = Journal::disabled();
    let start = std::time::Instant::now();
    for i in 0..10_000_000u64 {
        journal.emit(
            "lane",
            EventKind::IoSubmit {
                ops: i,
                bytes: i,
                queue_depth: 8,
            },
        );
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(1),
        "disabled emit cost {elapsed:?} for 10M events"
    );
    assert_eq!(journal.ledger().events_emitted, 0);
    assert!(journal.events().is_empty());
}

/// An enabled journal under load stays bounded and keeps the ledger
/// exact even when the ring wraps and drops oldest events.
#[test]
fn saturated_journal_drops_oldest_and_keeps_ledger_exact() {
    let journal = Journal::new(ObsClock::frozen());
    let total = 200_000u64; // > DEFAULT_JOURNAL_CAPACITY
    for i in 0..total {
        journal.emit(
            "lane",
            EventKind::CounterAdd {
                name: "n".to_owned(),
                delta: i,
            },
        );
    }
    let ledger = journal.ledger();
    assert_eq!(ledger.events_emitted, total);
    assert_eq!(
        ledger.events_emitted,
        ledger.events_written + ledger.events_dropped
    );
    assert!(ledger.events_dropped > 0, "ring never wrapped");
    let events = journal.events();
    assert_eq!(events.len() as u64, ledger.events_written);
    // Drop-oldest: the very last event must have survived.
    assert_eq!(events.last().expect("retained events").seq, total - 1);
}
