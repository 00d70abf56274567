//! Fault injection for storage and filesystem mutations.
//!
//! A comparison runtime that drives thousands of scattered reads must
//! surface device errors cleanly: no hangs, no partial results silently
//! reported as complete. [`FaultyStorage`] wraps any [`Storage`] and
//! fails reads according to a [`FaultPlan`], letting tests (and
//! chaos-minded users) exercise every error path in the pipeline and
//! the engine.
//!
//! [`CrashPlan`] is the write-side twin: a deterministic power-failure
//! injector for *filesystem mutation sequences*. Persistent components
//! (the chunk store, the veloc flush path) route every mutation — tmp
//! staging writes, atomic renames, appends, unlinks — through an
//! instrumented seam that consults a `CrashPlan` at each boundary. The
//! plan can cut power exactly at mutation *k*, optionally leaving a
//! torn prefix of a staged write behind, and from then on every further
//! mutation fails: the process is "off". A torture driver sweeps `k`
//! over every boundary of an operation and asserts that reopening
//! recovers to a consistent state.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::cost::OpSpec;
use crate::storage::{AccessMode, Storage};
use crate::{IoError, IoResult};

/// The kind of filesystem mutation boundary being crossed, as reported
/// by an instrumented filesystem seam. The labels name the store's
/// publish points so a torture sweep can say *where* it cut power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// A `.tmp` staging-file write (full contents + fsync).
    TmpWrite,
    /// A generic atomic rename publishing a staged file.
    Rename,
    /// The rename sealing a freshly written packfile.
    PackSeal,
    /// The rename publishing a checkpoint manifest.
    ManifestPublish,
    /// The rename swapping in a rewritten chunk index.
    IndexSwap,
    /// An append (+fsync) to the write-ahead intent journal.
    JournalAppend,
    /// A file unlink (GC pack removal, manifest removal).
    Unlink,
    /// A best-effort telemetry write (`telemetry.jsonl`): never a
    /// crash point, since its failure is swallowed and a torn line is
    /// skipped on replay.
    Telemetry,
}

impl MutationKind {
    /// Stable label for reports and traces.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MutationKind::TmpWrite => "tmp_write",
            MutationKind::Rename => "rename",
            MutationKind::PackSeal => "pack_seal",
            MutationKind::ManifestPublish => "manifest_publish",
            MutationKind::IndexSwap => "index_swap",
            MutationKind::JournalAppend => "journal_append",
            MutationKind::Unlink => "unlink",
            MutationKind::Telemetry => "telemetry",
        }
    }
}

/// How the power failure at the chosen mutation manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Power dies before the mutation takes effect: a staged write
    /// never lands, a rename is dropped with the `.tmp` left behind,
    /// an unlink leaves its target in place.
    Before,
    /// Power dies mid-write: a deterministic strict prefix of the
    /// bytes lands on disk (the classic torn write). Non-write
    /// mutations degrade to [`CrashMode::Before`].
    Torn {
        /// Seed choosing how much of the write survives.
        seed: u64,
    },
}

/// What the instrumented seam should do at one mutation boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashDecision {
    /// Perform the mutation normally.
    Proceed,
    /// Power is out: perform nothing and fail.
    Crash,
    /// Write exactly `keep` bytes of the payload, then fail — the
    /// machine died with a torn file on disk.
    TornWrite {
        /// Bytes of the payload that land before power dies.
        keep: usize,
    },
}

/// A deterministic power-failure schedule over a sequence of
/// filesystem mutations.
///
/// The plan starts *disarmed*: every mutation proceeds uncounted, so a
/// harness can open a store (whose recovery performs mutations of its
/// own) before arming the plan around exactly the operation under
/// test. Once armed, mutations are numbered 1, 2, 3, … and the plan
/// cuts power at mutation `point`; every later mutation fails too.
/// `point = 0` never crashes — an armed counting pass that measures
/// how many boundaries an operation has, so a sweep knows its range.
#[derive(Debug)]
pub struct CrashPlan {
    point: u64,
    mode: CrashMode,
    armed: AtomicBool,
    mutations: AtomicU64,
    crashed: AtomicBool,
}

impl CrashPlan {
    /// A counting plan: never crashes, still numbers armed mutations.
    #[must_use]
    pub fn observe() -> Arc<Self> {
        CrashPlan::at(0, CrashMode::Before)
    }

    /// A plan that cuts power at armed mutation `point` (1-based) in
    /// the given mode. `point = 0` never crashes.
    #[must_use]
    pub fn at(point: u64, mode: CrashMode) -> Arc<Self> {
        Arc::new(CrashPlan {
            point,
            mode,
            armed: AtomicBool::new(false),
            mutations: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
        })
    }

    /// Starts counting (and potentially crashing) from the next
    /// mutation onward.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Mutations observed while armed.
    #[must_use]
    pub fn mutations(&self) -> u64 {
        self.mutations.load(Ordering::SeqCst)
    }

    /// True once the plan has cut power.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Consulted by the instrumented seam at each mutation boundary.
    /// `write_len` is `Some(payload length)` for write-type mutations,
    /// enabling torn prefixes; `None` for renames and unlinks.
    /// [`MutationKind::Telemetry`] writes are not counted: they proceed
    /// until power is cut and fail after.
    pub fn step(&self, kind: MutationKind, write_len: Option<usize>) -> CrashDecision {
        if !self.armed.load(Ordering::SeqCst) {
            return CrashDecision::Proceed;
        }
        if self.crashed.load(Ordering::SeqCst) {
            return CrashDecision::Crash;
        }
        if kind == MutationKind::Telemetry {
            return CrashDecision::Proceed;
        }
        let op_no = self.mutations.fetch_add(1, Ordering::SeqCst) + 1;
        if self.point == 0 || op_no < self.point {
            return CrashDecision::Proceed;
        }
        self.crashed.store(true, Ordering::SeqCst);
        match (self.mode, write_len) {
            (CrashMode::Torn { seed }, Some(len)) if len > 0 => CrashDecision::TornWrite {
                // A strict prefix: at least 0, at most len - 1 bytes
                // land, chosen deterministically from the seed and the
                // mutation number.
                keep: (crate::retry::splitmix64(seed ^ op_no) % len as u64) as usize,
            },
            _ => CrashDecision::Crash,
        }
    }

    /// The error a crashed mutation surfaces: a *permanent* I/O error
    /// (retrying inside a dead machine cannot help), distinguishable
    /// from real filesystem failures by its message.
    #[must_use]
    pub fn crash_error() -> std::io::Error {
        std::io::Error::other("simulated power failure (CrashPlan)")
    }
}

/// When to inject a failure.
///
/// Counter-based plans ([`FaultPlan::EveryNth`],
/// [`FaultPlan::AfterBytes`], [`FaultPlan::FirstN`],
/// [`FaultPlan::Probabilistic`]) emit *transient* errors
/// (`ErrorKind::Interrupted`) — a retry re-rolls the schedule and may
/// succeed. [`FaultPlan::Range`] models bad media and emits a
/// *permanent* error (`ErrorKind::InvalidData`): the sector stays bad
/// no matter how often it is re-read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlan {
    /// Never fail (pass-through).
    None,
    /// Fail every `n`-th read (1-based: `n = 1` fails every read).
    EveryNth {
        /// Period of failure injection.
        n: u64,
    },
    /// Fail all reads once `bytes` have been served.
    AfterBytes {
        /// Budget of successfully served bytes.
        bytes: u64,
    },
    /// Fail reads overlapping a byte range (a "bad sector").
    Range {
        /// First poisoned byte.
        start: u64,
        /// One past the last poisoned byte.
        end: u64,
    },
    /// Fail the first `n` reads, then heal — a transient outage that a
    /// retrying caller rides out completely.
    FirstN {
        /// How many leading reads fail.
        n: u64,
    },
    /// Each read independently fails with probability `p`, decided by
    /// a deterministic hash of `seed` and the read's sequence number —
    /// the same run always faults the same reads.
    Probabilistic {
        /// Schedule seed.
        seed: u64,
        /// Per-read failure probability in `[0, 1]`.
        p: f64,
    },
}

/// A fault-injecting wrapper around any storage object.
#[derive(Debug)]
pub struct FaultyStorage {
    inner: Arc<dyn Storage>,
    plan: FaultPlan,
    reads: AtomicU64,
    bytes_served: AtomicU64,
    injected: AtomicU64,
}

impl FaultyStorage {
    /// Wraps `inner` with the given plan.
    #[must_use]
    pub fn new(inner: Arc<dyn Storage>, plan: FaultPlan) -> Self {
        FaultyStorage {
            inner,
            plan,
            reads: AtomicU64::new(0),
            bytes_served: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// Number of failures injected so far.
    #[must_use]
    pub fn injected_faults(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    fn fault(&self, kind: std::io::ErrorKind) -> IoError {
        self.injected.fetch_add(1, Ordering::Relaxed);
        IoError::Os(std::io::Error::new(kind, "injected device fault"))
    }
}

impl Storage for FaultyStorage {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> IoResult<()> {
        use std::io::ErrorKind;
        let read_no = self.reads.fetch_add(1, Ordering::Relaxed) + 1;
        match self.plan {
            FaultPlan::None => {}
            FaultPlan::EveryNth { n } => {
                if n > 0 && read_no.is_multiple_of(n) {
                    return Err(self.fault(ErrorKind::Interrupted));
                }
            }
            FaultPlan::AfterBytes { bytes } => {
                if self.bytes_served.load(Ordering::Relaxed) >= bytes {
                    return Err(self.fault(ErrorKind::Interrupted));
                }
            }
            FaultPlan::Range { start, end } => {
                let rd_end = offset + buf.len() as u64;
                if offset < end && rd_end > start {
                    return Err(self.fault(ErrorKind::InvalidData));
                }
            }
            FaultPlan::FirstN { n } => {
                if read_no <= n {
                    return Err(self.fault(ErrorKind::Interrupted));
                }
            }
            FaultPlan::Probabilistic { seed, p } => {
                let roll =
                    (crate::retry::splitmix64(seed ^ read_no) >> 11) as f64 / (1u64 << 53) as f64;
                if roll < p {
                    return Err(self.fault(ErrorKind::Interrupted));
                }
            }
        }
        self.inner.read_at(offset, buf)?;
        self.bytes_served
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn charge_batch(&self, ops: &[OpSpec], mode: AccessMode) {
        self.inner.charge_batch(ops, mode);
    }

    fn elapsed(&self) -> Duration {
        self.inner.elapsed()
    }

    fn sim_clock(&self) -> Option<crate::clock::SimClock> {
        self.inner.sim_clock()
    }

    fn models_cost(&self) -> bool {
        self.inner.models_cost()
    }

    fn merges_adjacent_reads(&self) -> bool {
        self.inner.merges_adjacent_reads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{read_all, BackendKind, PipelineConfig, StreamPipeline};
    use crate::storage::MemStorage;

    fn base(n: usize) -> Arc<dyn Storage> {
        Arc::new(MemStorage::free((0..n).map(|i| (i % 251) as u8).collect()))
    }

    #[test]
    fn none_plan_is_transparent() {
        let s = FaultyStorage::new(base(1024), FaultPlan::None);
        let mut buf = vec![0u8; 64];
        s.read_at(100, &mut buf).unwrap();
        assert_eq!(buf[0], 100);
        assert_eq!(s.injected_faults(), 0);
    }

    #[test]
    fn every_nth_fails_on_schedule() {
        let s = FaultyStorage::new(base(1024), FaultPlan::EveryNth { n: 3 });
        let mut buf = vec![0u8; 8];
        assert!(s.read_at(0, &mut buf).is_ok());
        assert!(s.read_at(0, &mut buf).is_ok());
        assert!(s.read_at(0, &mut buf).is_err());
        assert!(s.read_at(0, &mut buf).is_ok());
        assert_eq!(s.injected_faults(), 1);
    }

    #[test]
    fn after_bytes_budget() {
        let s = FaultyStorage::new(base(1024), FaultPlan::AfterBytes { bytes: 100 });
        let mut buf = vec![0u8; 64];
        assert!(s.read_at(0, &mut buf).is_ok()); // 64 served
        assert!(s.read_at(0, &mut buf).is_ok()); // 128 served
        assert!(s.read_at(0, &mut buf).is_err()); // over budget
        assert_eq!(s.injected_faults(), 1);
    }

    #[test]
    fn bad_sector_range() {
        let s = FaultyStorage::new(
            base(1024),
            FaultPlan::Range {
                start: 500,
                end: 600,
            },
        );
        let mut buf = vec![0u8; 64];
        assert!(s.read_at(0, &mut buf).is_ok());
        assert!(s.read_at(450, &mut buf).is_err(), "overlaps 500..514");
        assert!(s.read_at(600, &mut buf).is_ok(), "starts past the range");
        assert!(s.read_at(590, &mut buf).is_err());
    }

    #[test]
    fn ring_surfaces_injected_faults_without_hanging() {
        let faulty = Arc::new(FaultyStorage::new(
            base(1 << 16),
            FaultPlan::EveryNth { n: 5 },
        ));
        let ops: Vec<OpSpec> = (0..20).map(|i| (i * 1000, 64)).collect();
        let err = read_all(faulty.clone(), &ops, PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, IoError::Os(_)));
        assert!(faulty.injected_faults() >= 1);
    }

    #[test]
    fn pipeline_terminates_cleanly_on_fault() {
        let faulty = Arc::new(FaultyStorage::new(
            base(1 << 16),
            FaultPlan::AfterBytes { bytes: 4096 },
        )) as Arc<dyn Storage>;
        let ops: Vec<OpSpec> = (0..32).map(|i| (i * 2048, 512)).collect();
        let cfg = PipelineConfig {
            backend: BackendKind::Uring,
            slice_bytes: 1024,
            ..PipelineConfig::default()
        };
        let mut pipeline = StreamPipeline::start(faulty, ops, cfg);
        let mut oks = 0;
        let mut errs = 0;
        while let Some(result) = pipeline.next_slice() {
            match result {
                Ok(_) => oks += 1,
                Err(_) => errs += 1,
            }
        }
        assert!(oks >= 1, "some slices succeed before the budget");
        assert_eq!(errs, 1, "the stream ends at the first error");
    }

    #[test]
    fn read_all_propagates_first_error() {
        let faulty = Arc::new(FaultyStorage::new(
            base(1 << 14),
            FaultPlan::Range {
                start: 8192, // overlaps the op at offset 8*1024
                end: 8300,
            },
        )) as Arc<dyn Storage>;
        let ops: Vec<OpSpec> = (0..16).map(|i| (i * 1024, 256)).collect();
        let err = read_all(faulty, &ops, PipelineConfig::default()).unwrap_err();
        assert!(matches!(err, IoError::Os(_)));
    }

    #[test]
    fn first_n_fails_then_heals() {
        let s = FaultyStorage::new(base(1024), FaultPlan::FirstN { n: 3 });
        let mut buf = vec![0u8; 8];
        for _ in 0..3 {
            let err = s.read_at(0, &mut buf).unwrap_err();
            assert!(err.is_transient(), "FirstN faults must be transient");
        }
        // Healed: every subsequent read succeeds.
        for _ in 0..10 {
            assert!(s.read_at(0, &mut buf).is_ok());
        }
        assert_eq!(s.injected_faults(), 3);
    }

    #[test]
    fn probabilistic_is_deterministic_across_instances() {
        let schedule = |seed| {
            let s = FaultyStorage::new(base(1024), FaultPlan::Probabilistic { seed, p: 0.3 });
            let mut buf = vec![0u8; 8];
            (0..64)
                .map(|_| s.read_at(0, &mut buf).is_err())
                .collect::<Vec<_>>()
        };
        let a = schedule(42);
        let b = schedule(42);
        assert_eq!(a, b, "same seed -> same fault schedule");
        let faults = a.iter().filter(|&&f| f).count();
        assert!(
            (5..=30).contains(&faults),
            "p=0.3 over 64 reads should fault roughly a third, got {faults}"
        );
        let c = schedule(7);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn fault_kinds_classify_by_plan() {
        let mut buf = vec![0u8; 8];
        // Counter-based plans emit transient errors.
        let s = FaultyStorage::new(base(1024), FaultPlan::EveryNth { n: 1 });
        assert!(s.read_at(0, &mut buf).unwrap_err().is_transient());
        // A bad sector is permanent: retrying the same offset can't help.
        let s = FaultyStorage::new(base(1024), FaultPlan::Range { start: 0, end: 64 });
        let err = s.read_at(0, &mut buf).unwrap_err();
        assert_eq!(err.class(), crate::retry::ErrorClass::Permanent);
    }

    #[test]
    fn crash_plan_is_inert_until_armed() {
        let plan = CrashPlan::at(1, CrashMode::Before);
        for _ in 0..5 {
            assert_eq!(
                plan.step(MutationKind::TmpWrite, Some(100)),
                CrashDecision::Proceed,
                "disarmed plans never crash"
            );
        }
        assert_eq!(plan.mutations(), 0, "disarmed mutations are not counted");
        plan.arm();
        assert_eq!(
            plan.step(MutationKind::TmpWrite, Some(100)),
            CrashDecision::Crash
        );
        assert!(plan.crashed());
        // The machine stays off: every further mutation fails.
        assert_eq!(plan.step(MutationKind::Rename, None), CrashDecision::Crash);
        assert_eq!(plan.mutations(), 1);
    }

    #[test]
    fn crash_plan_counts_to_the_chosen_point() {
        let plan = CrashPlan::at(3, CrashMode::Before);
        plan.arm();
        assert_eq!(
            plan.step(MutationKind::TmpWrite, Some(10)),
            CrashDecision::Proceed
        );
        assert_eq!(
            plan.step(MutationKind::PackSeal, None),
            CrashDecision::Proceed
        );
        assert_eq!(
            plan.step(MutationKind::IndexSwap, None),
            CrashDecision::Crash
        );
        assert_eq!(plan.mutations(), 3);
    }

    #[test]
    fn observing_plan_counts_without_crashing() {
        let plan = CrashPlan::observe();
        plan.arm();
        for _ in 0..10 {
            assert_eq!(
                plan.step(MutationKind::JournalAppend, Some(32)),
                CrashDecision::Proceed
            );
        }
        assert_eq!(plan.mutations(), 10);
        assert!(!plan.crashed());
    }

    #[test]
    fn torn_mode_keeps_a_strict_prefix_of_writes() {
        for seed in 0..32u64 {
            let plan = CrashPlan::at(1, CrashMode::Torn { seed });
            plan.arm();
            match plan.step(MutationKind::TmpWrite, Some(100)) {
                CrashDecision::TornWrite { keep } => {
                    assert!(keep < 100, "torn writes keep a strict prefix")
                }
                other => panic!("expected a torn write, got {other:?}"),
            }
        }
        // Torn degrades to Before for non-write mutations.
        let plan = CrashPlan::at(1, CrashMode::Torn { seed: 7 });
        plan.arm();
        assert_eq!(plan.step(MutationKind::Rename, None), CrashDecision::Crash);
        // And for empty writes.
        let plan = CrashPlan::at(1, CrashMode::Torn { seed: 7 });
        plan.arm();
        assert_eq!(
            plan.step(MutationKind::TmpWrite, Some(0)),
            CrashDecision::Crash
        );
    }

    #[test]
    fn torn_prefix_is_deterministic_per_seed() {
        let keep_at = |seed| {
            let plan = CrashPlan::at(1, CrashMode::Torn { seed });
            plan.arm();
            plan.step(MutationKind::TmpWrite, Some(1000))
        };
        assert_eq!(keep_at(42), keep_at(42));
    }

    #[test]
    fn crash_error_is_permanent() {
        let err = IoError::Os(CrashPlan::crash_error());
        assert_eq!(err.class(), crate::retry::ErrorClass::Permanent);
    }

    #[test]
    fn sim_clock_passes_through() {
        let mem = MemStorage::free(vec![0u8; 64]);
        let clock = mem.clock();
        let s = FaultyStorage::new(Arc::new(mem), FaultPlan::None);
        let got = s.sim_clock().expect("inner MemStorage has a clock");
        clock.advance(Duration::from_millis(5));
        assert_eq!(got.now(), Duration::from_millis(5));
    }

    #[test]
    fn cost_charging_passes_through() {
        let mem = MemStorage::with_model(vec![0u8; 8192], crate::cost::CostModel::lustre_pfs());
        let clock = mem.clock();
        let s = FaultyStorage::new(Arc::new(mem), FaultPlan::None);
        s.charge_batch(&[(0, 4096)], AccessMode::Sync);
        assert!(clock.now() > Duration::ZERO);
        assert_eq!(s.elapsed(), clock.now());
        assert!(s.models_cost());
        let free = FaultyStorage::new(Arc::new(MemStorage::free(vec![0u8; 64])), FaultPlan::None);
        assert!(!free.models_cost());
    }
}
