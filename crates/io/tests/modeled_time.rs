//! Pinned modeled time: what each simulated backend charges.
//!
//! Figure 9, the ablations and every sim-backend golden rest on the
//! virtual time `StreamPipeline` charges to a storage's `SimClock` for
//! each `BackendKind`. The literals below were generated once, before
//! the backends became cost policies on the pipeline's one read path,
//! and are never regenerated: a mismatch means the modeled device
//! changed, not that the table is stale.
//!
//! Each row is one backend × cost model × op list × queue depth (and
//! optionally an injected fault plan): the final clock in nanoseconds,
//! the `RingStats` (submitted / completed / retried / gave up), the
//! `slice_fill_us` histogram's count and sum, and how many
//! `chunk_read`, `io_submit` and `slice_fill` events the journal saw.
//! Only cases that are deterministic are pinned: `Uring` under
//! retried faults is not listed, because which reads meet the faults
//! was once up to racing worker threads.
//!
//! On a mismatch the panic message prints the whole actual table.

use reprocmp_io::cost::{CostModel, OpSpec};
use reprocmp_io::{
    BackendKind, FaultPlan, FaultyStorage, MemStorage, PipelineConfig, PipelineMetrics,
    RetryPolicy, Storage, StreamPipeline,
};
use reprocmp_obs::{EventKind, Journal, ObsClock, Registry};
use std::sync::Arc;
use std::time::Duration;

const FILE_BYTES: usize = 1 << 20;
const SLICE_BYTES: usize = 32 << 10;

/// 40 scattered ops of 2–4 KiB, none adjacent.
fn scattered() -> Vec<OpSpec> {
    (0..40u64)
        .map(|i| {
            (
                i * 24_576 + (i * i * 37) % 3000,
                2048 + (i % 3) as usize * 1024,
            )
        })
        .collect()
}

/// Ten runs of four adjacent 4 KiB ops, each run starting off a page
/// boundary.
fn runs() -> Vec<OpSpec> {
    (0..10u64)
        .flat_map(|r| (0..4u64).map(move |k| (r * 98_304 + 512 + k * 4096, 4096)))
        .collect()
}

/// Small ops around one op three slices long.
fn oversized() -> Vec<OpSpec> {
    vec![
        (1000, 3000),
        (5000, 100_000),
        (200_000, 4096),
        (204_096, 4096),
        (700_000, 1500),
    ]
}

fn op_list(name: &str) -> Vec<OpSpec> {
    match name {
        "scattered" => scattered(),
        "runs" => runs(),
        "oversized" => oversized(),
        _ => unreachable!("{name}"),
    }
}

fn model(name: &str) -> CostModel {
    match name {
        "lustre" => CostModel::lustre_pfs(),
        // A node-local NVMe tier: a lower bandwidth ceiling than the
        // striped PFS but far cheaper seeks.
        "nvme" => CostModel {
            submit_latency: Duration::from_micros(1),
            seek_latency: Duration::from_micros(20),
            rpc_latency: Duration::from_micros(4),
            bandwidth_bytes_per_sec: 3.0e9,
            queue_depth: 128,
        },
        _ => unreachable!("{name}"),
    }
}

/// An injected fault and how the pipeline meets it.
#[derive(Clone, Copy)]
enum Fault {
    None,
    /// The first three reads fail transiently; up to 8 attempts each.
    FirstThreeRetried,
    /// A bad range under one scattered op (op 4): a permanent error,
    /// zero-filled and reported with `continue_on_error`.
    BadRangeContinue,
}

/// Streams `ops` through one pipeline and renders what it charged.
fn observe(
    backend: BackendKind,
    model_name: &str,
    ops: &str,
    depth: usize,
    fault: Fault,
) -> String {
    let data: Vec<u8> = (0..FILE_BYTES).map(|i| (i % 251) as u8).collect();
    let mem = MemStorage::with_model(data, model(model_name));
    let clock = mem.clock();
    let (storage, retry, continue_on_error): (Arc<dyn Storage>, _, _) = match fault {
        Fault::None => (Arc::new(mem), RetryPolicy::none(), false),
        Fault::FirstThreeRetried => (
            Arc::new(FaultyStorage::new(
                Arc::new(mem),
                FaultPlan::FirstN { n: 3 },
            )),
            RetryPolicy::with_attempts(8),
            false,
        ),
        Fault::BadRangeContinue => (
            Arc::new(FaultyStorage::new(
                Arc::new(mem),
                FaultPlan::Range {
                    start: 100_000,
                    end: 100_100,
                },
            )),
            RetryPolicy::with_attempts(8),
            true,
        ),
    };
    let registry = Registry::new();
    let journal = Journal::new(ObsClock::wall());
    let metrics =
        PipelineMetrics::in_registry(&registry, "io").with_journal(journal.clone(), "run_a");
    let config = PipelineConfig {
        backend,
        slice_bytes: SLICE_BYTES,
        queue_depth: depth,
        retry,
        continue_on_error,
        ..PipelineConfig::default()
    };
    let counters = Arc::clone(&metrics.counters);
    let pipeline = StreamPipeline::start_observed(storage, op_list(ops), config, metrics);
    for slice in pipeline {
        slice.expect("every pinned case streams to the end");
    }
    let st = counters.snapshot();
    let fill = registry.histogram("io.slice_fill_us");
    let events = journal.events();
    let count = |f: fn(&EventKind) -> bool| events.iter().filter(|e| f(&e.kind)).count();
    format!(
        "{backend:?} {model_name} {ops} qd{depth}{}: clock {} ns, stats {}/{}/{}/{}, \
         fill {} / {} us, events {} chunk_read {} io_submit {} slice_fill",
        match fault {
            Fault::None => "",
            Fault::FirstThreeRetried => " first3",
            Fault::BadRangeContinue => " badrange",
        },
        clock.now().as_nanos(),
        st.submitted,
        st.completed,
        st.retried,
        st.gave_up,
        fill.count(),
        fill.sum(),
        count(|k| matches!(k, EventKind::ChunkRead { .. })),
        count(|k| matches!(k, EventKind::IoSubmit { .. })),
        count(|k| matches!(k, EventKind::SliceFill { .. })),
    )
}

/// Panics with the full actual table unless it equals `expected`.
fn check(table: &str, actual: &[String], expected: &[&str]) {
    if actual.len() != expected.len() || actual.iter().zip(expected).any(|(a, e)| a != e) {
        let rendered: String = actual
            .iter()
            .map(|row| format!("    \"{row}\",\n"))
            .collect();
        panic!("{table} drifted from its pinned modeled time; actual:\n{rendered}");
    }
}

const MODELS: [&str; 2] = ["lustre", "nvme"];
const OPS: [&str; 3] = ["scattered", "runs", "oversized"];

#[test]
fn uring_charges_one_async_batch_per_slice() {
    let mut actual = Vec::new();
    for m in MODELS {
        for ops in OPS {
            for depth in [1, 8, 64] {
                actual.push(observe(BackendKind::Uring, m, ops, depth, Fault::None));
            }
        }
    }
    check("uring", &actual, URING);
}

#[test]
fn blocking_and_mmap_charge_synchronously_whatever_the_depth() {
    let mut actual = Vec::new();
    for backend in [BackendKind::Blocking, BackendKind::Mmap] {
        for m in MODELS {
            for ops in OPS {
                for depth in [1, 64] {
                    actual.push(observe(backend, m, ops, depth, Fault::None));
                }
            }
        }
    }
    check("blocking/mmap", &actual, SYNC);
}

#[test]
fn retried_and_permanent_faults_on_every_backend() {
    let mut actual = Vec::new();
    for backend in [BackendKind::Blocking, BackendKind::Mmap] {
        for m in MODELS {
            actual.push(observe(
                backend,
                m,
                "scattered",
                64,
                Fault::FirstThreeRetried,
            ));
        }
    }
    for backend in [BackendKind::Uring, BackendKind::Blocking, BackendKind::Mmap] {
        for m in MODELS {
            actual.push(observe(
                backend,
                m,
                "scattered",
                64,
                Fault::BadRangeContinue,
            ));
        }
    }
    check("faults", &actual, FAULTS);
}

const URING: &[&str] = &[
    "Uring lustre scattered qd1: clock 12080000 ns, stats 40/40/0/0, fill 4 / 12080 us, events 40 chunk_read 4 io_submit 4 slice_fill",
    "Uring lustre scattered qd8: clock 1510250 ns, stats 40/40/0/0, fill 4 / 1509 us, events 40 chunk_read 4 io_submit 4 slice_fill",
    "Uring lustre scattered qd64: clock 195498 ns, stats 40/40/0/0, fill 4 / 193 us, events 40 chunk_read 4 io_submit 4 slice_fill",
    "Uring lustre runs qd1: clock 4880000 ns, stats 40/40/0/0, fill 5 / 4880 us, events 40 chunk_read 5 io_submit 5 slice_fill",
    "Uring lustre runs qd8: clock 610000 ns, stats 40/40/0/0, fill 5 / 610 us, events 40 chunk_read 5 io_submit 5 slice_fill",
    "Uring lustre runs qd64: clock 85000 ns, stats 40/40/0/0, fill 5 / 85 us, events 40 chunk_read 5 io_submit 5 slice_fill",
    "Uring lustre oversized qd1: clock 1270000 ns, stats 5/5/0/0, fill 2 / 1270 us, events 5 chunk_read 2 io_submit 2 slice_fill",
    "Uring lustre oversized qd8: clock 161500 ns, stats 5/5/0/0, fill 2 / 161 us, events 5 chunk_read 2 io_submit 2 slice_fill",
    "Uring lustre oversized qd64: clock 34913 ns, stats 5/5/0/0, fill 2 / 34 us, events 5 chunk_read 2 io_submit 2 slice_fill",
    "Uring nvme scattered qd1: clock 840000 ns, stats 40/40/0/0, fill 4 / 840 us, events 40 chunk_read 4 io_submit 4 slice_fill",
    "Uring nvme scattered qd8: clock 105125 ns, stats 40/40/0/0, fill 4 / 102 us, events 40 chunk_read 4 io_submit 4 slice_fill",
    "Uring nvme scattered qd64: clock 44619 ns, stats 40/40/0/0, fill 4 / 42 us, events 40 chunk_read 4 io_submit 4 slice_fill",
    "Uring nvme runs qd1: clock 360000 ns, stats 40/40/0/0, fill 5 / 360 us, events 40 chunk_read 5 io_submit 5 slice_fill",
    "Uring nvme runs qd8: clock 59615 ns, stats 40/40/0/0, fill 5 / 55 us, events 40 chunk_read 5 io_submit 5 slice_fill",
    "Uring nvme runs qd64: clock 59615 ns, stats 40/40/0/0, fill 5 / 55 us, events 40 chunk_read 5 io_submit 5 slice_fill",
    "Uring nvme oversized qd1: clock 89000 ns, stats 5/5/0/0, fill 2 / 89 us, events 5 chunk_read 2 io_submit 2 slice_fill",
    "Uring nvme oversized qd8: clock 41833 ns, stats 5/5/0/0, fill 2 / 41 us, events 5 chunk_read 2 io_submit 2 slice_fill",
    "Uring nvme oversized qd64: clock 39564 ns, stats 5/5/0/0, fill 2 / 39 us, events 5 chunk_read 2 io_submit 2 slice_fill",
];

const SYNC: &[&str] = &[
    "Blocking lustre scattered qd1: clock 12104371 ns, stats 40/40/0/0, fill 4 / 12102 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Blocking lustre scattered qd64: clock 12104371 ns, stats 40/40/0/0, fill 4 / 12102 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Blocking lustre runs qd1: clock 4912770 ns, stats 40/40/0/0, fill 5 / 4910 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Blocking lustre runs qd64: clock 4912770 ns, stats 40/40/0/0, fill 5 / 4910 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Blocking lustre oversized qd1: clock 1292538 ns, stats 5/5/0/0, fill 2 / 1291 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Blocking lustre oversized qd64: clock 1292538 ns, stats 5/5/0/0, fill 2 / 1291 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Blocking nvme scattered qd1: clock 880619 ns, stats 40/40/0/0, fill 4 / 878 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Blocking nvme scattered qd64: clock 880619 ns, stats 40/40/0/0, fill 4 / 878 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Blocking nvme runs qd1: clock 414615 ns, stats 40/40/0/0, fill 5 / 410 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Blocking nvme runs qd64: clock 414615 ns, stats 40/40/0/0, fill 5 / 410 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Blocking nvme oversized qd1: clock 126564 ns, stats 5/5/0/0, fill 2 / 126 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Blocking nvme oversized qd64: clock 126564 ns, stats 5/5/0/0, fill 2 / 126 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Mmap lustre scattered qd1: clock 810439 ns, stats 40/40/0/0, fill 4 / 809 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Mmap lustre scattered qd64: clock 810439 ns, stats 40/40/0/0, fill 4 / 809 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Mmap lustre runs qd1: clock 800608 ns, stats 40/40/0/0, fill 5 / 799 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Mmap lustre runs qd64: clock 800608 ns, stats 40/40/0/0, fill 5 / 799 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Mmap lustre oversized qd1: clock 779309 ns, stats 5/5/0/0, fill 2 / 778 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Mmap lustre oversized qd64: clock 779309 ns, stats 5/5/0/0, fill 2 / 778 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Mmap nvme scattered qd1: clock 386064 ns, stats 40/40/0/0, fill 4 / 385 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Mmap nvme scattered qd64: clock 386064 ns, stats 40/40/0/0, fill 4 / 385 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Mmap nvme runs qd1: clock 369680 ns, stats 40/40/0/0, fill 5 / 368 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Mmap nvme runs qd64: clock 369680 ns, stats 40/40/0/0, fill 5 / 368 us, events 40 chunk_read 0 io_submit 5 slice_fill",
    "Mmap nvme oversized qd1: clock 334182 ns, stats 5/5/0/0, fill 2 / 333 us, events 5 chunk_read 0 io_submit 2 slice_fill",
    "Mmap nvme oversized qd64: clock 334182 ns, stats 5/5/0/0, fill 2 / 333 us, events 5 chunk_read 0 io_submit 2 slice_fill",
];

const FAULTS: &[&str] = &[
    "Blocking lustre scattered qd64 first3: clock 15202877 ns, stats 40/40/3/0, fill 4 / 15201 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Blocking nvme scattered qd64 first3: clock 3979125 ns, stats 40/40/3/0, fill 4 / 3977 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Mmap lustre scattered qd64 first3: clock 3908945 ns, stats 40/40/3/0, fill 4 / 3908 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Mmap nvme scattered qd64 first3: clock 3484570 ns, stats 40/40/3/0, fill 4 / 3484 us, events 40 chunk_read 0 io_submit 4 slice_fill",
    "Uring lustre scattered qd64 badrange: clock 195498 ns, stats 40/39/0/1, fill 4 / 193 us, events 39 chunk_read 4 io_submit 4 slice_fill",
    "Uring nvme scattered qd64 badrange: clock 44619 ns, stats 40/39/0/1, fill 4 / 42 us, events 39 chunk_read 4 io_submit 4 slice_fill",
    "Blocking lustre scattered qd64 badrange: clock 12104371 ns, stats 40/39/0/1, fill 4 / 12102 us, events 39 chunk_read 0 io_submit 4 slice_fill",
    "Blocking nvme scattered qd64 badrange: clock 880619 ns, stats 40/39/0/1, fill 4 / 878 us, events 39 chunk_read 0 io_submit 4 slice_fill",
    "Mmap lustre scattered qd64 badrange: clock 810439 ns, stats 40/39/0/1, fill 4 / 809 us, events 39 chunk_read 0 io_submit 4 slice_fill",
    "Mmap nvme scattered qd64 badrange: clock 386064 ns, stats 40/39/0/1, fill 4 / 385 us, events 39 chunk_read 0 io_submit 4 slice_fill",
];
