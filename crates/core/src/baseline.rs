//! The two comparison baselines from the paper's evaluation.
//!
//! * [`AllClose`] — "how a domain scientist may compare results": the
//!   NumPy `allclose` pattern. Whole buffers are loaded with plain
//!   blocking reads (no asynchronous I/O, no overlap), every element
//!   pair is checked, and the answer is a single boolean — no
//!   localization of *where* the runs diverged.
//! * [`Direct`] — "the most common comparison approach for
//!   reproducibility analytics", implemented the way the paper's
//!   optimized baseline is: element-wise comparison of the full
//!   payloads with io_uring-style streaming I/O and the parallel
//!   device, localizing every difference. It is the engine's compare
//!   on two sides without ε-metadata, so it reads *everything*,
//!   always — the cost our Merkle method avoids.

use reprocmp_device::{TimingModel, Workload};
use reprocmp_hash::Quantizer;
use reprocmp_io::pipeline::{BackendKind, PipelineConfig};
use reprocmp_io::Timeline;
use reprocmp_obs::StageBreakdown;
use std::sync::Arc;
use std::time::Duration;

use crate::ctx::Ctx;
use crate::engine::{CompareEngine, EngineConfig};
use crate::report::CompareReport;
use crate::source::CheckpointSource;
use crate::{CoreError, CoreResult};

/// An interpreter-flavoured compute model for the AllClose baseline:
/// NumPy's `allclose` materializes temporaries and runs on one socket,
/// sustaining a few GB/s end to end.
fn python_numpy_model() -> TimingModel {
    TimingModel {
        launch_latency: Duration::from_micros(50),
        bandwidth_bytes_per_sec: 6.0e9,
        ops_per_sec: 1.5e9,
    }
}

/// The result of an [`AllClose`] comparison: a boolean, by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllCloseReport {
    /// True when every element pair is within the bound.
    pub within_bound: bool,
    /// Total runtime on the supplied timeline.
    pub duration: Duration,
    /// Bytes loaded (both payloads).
    pub bytes_compared: u64,
}

/// The NumPy-`allclose`-style baseline.
#[derive(Debug, Clone)]
pub struct AllClose {
    quantizer: Quantizer,
    io: PipelineConfig,
    compute_model: Option<TimingModel>,
}

impl AllClose {
    /// A baseline with absolute bound `bound` (`rtol = 0`, as in all
    /// the paper's experiments).
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a non-positive bound.
    pub fn new(bound: f64) -> CoreResult<Self> {
        let quantizer = Quantizer::new(bound).map_err(|e| CoreError::Config(e.to_string()))?;
        Ok(AllClose {
            quantizer,
            io: PipelineConfig {
                backend: BackendKind::Blocking,
                ..PipelineConfig::default()
            },
            compute_model: Some(python_numpy_model()),
        })
    }

    /// Compares on `ctx.timeline` (the observer is unused).
    ///
    /// # Errors
    ///
    /// I/O failures or mismatched payload sizes.
    pub fn compare(
        &self,
        a: &CheckpointSource,
        b: &CheckpointSource,
        ctx: &Ctx,
    ) -> CoreResult<AllCloseReport> {
        let timeline = &ctx.timeline;
        if a.payload_len != b.payload_len {
            return Err(CoreError::Mismatch(format!(
                "payload sizes differ: {} vs {}",
                a.payload_len, b.payload_len
            )));
        }
        let t0 = timeline.now();
        // Blocking whole-file loads, one run after the other — the
        // unoptimized I/O pattern of the baseline.
        let buf_a = read_payload(a, self.io)?;
        let buf_b = read_payload(b, self.io)?;
        if let (Timeline::Sim(clock), Some(model)) = (timeline, &self.compute_model) {
            clock.advance(model.kernel_time(Workload::new(
                (buf_a.len() + buf_b.len()) as u64,
                (buf_a.len() / 4) as u64,
            )));
        }
        let within = buf_a
            .chunks_exact(4)
            .zip(buf_b.chunks_exact(4))
            .all(|(xa, xb)| {
                let va = f32::from_le_bytes(xa.try_into().expect("4 bytes"));
                let vb = f32::from_le_bytes(xb.try_into().expect("4 bytes"));
                !self.quantizer.differs(va, vb)
            });
        Ok(AllCloseReport {
            within_bound: within,
            duration: timeline.now() - t0,
            bytes_compared: 2 * a.payload_len,
        })
    }
}

/// The optimized element-wise baseline: the Merkle engine's stage two
/// with every 1 MiB read chunk flagged.
#[derive(Debug, Clone)]
pub struct Direct {
    engine: CompareEngine,
}

impl Direct {
    /// A baseline with absolute bound `bound`, io_uring-style
    /// streaming, and a GPU compute model — the strongest fair
    /// opponent for the Merkle method.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a non-positive bound.
    pub fn new(bound: f64) -> CoreResult<Self> {
        let engine = CompareEngine::try_new(EngineConfig {
            chunk_bytes: 1 << 20,
            error_bound: bound,
            ..EngineConfig::default()
        })?;
        Ok(Direct { engine })
    }

    /// [`CompareEngine::compare`] on `a` and `b` with their ε-metadata
    /// (and its capture profile) set aside: every chunk is read and
    /// verified.
    ///
    /// # Errors
    ///
    /// I/O failures or mismatched payload sizes.
    pub fn compare(
        &self,
        a: &CheckpointSource,
        b: &CheckpointSource,
        ctx: &Ctx,
    ) -> CoreResult<CompareReport> {
        let bare = |s: &CheckpointSource| CheckpointSource {
            metadata: None,
            capture: StageBreakdown::default(),
            ..s.clone()
        };
        self.engine.compare(&bare(a), &bare(b), ctx)
    }
}

fn read_payload(src: &CheckpointSource, io: PipelineConfig) -> CoreResult<Vec<u8>> {
    let ops = vec![(src.payload_offset, src.payload_len as usize)];
    Ok(reprocmp_io::pipeline::read_all(
        Arc::clone(&src.data),
        &ops,
        io,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CompareEngine, EngineConfig};
    use reprocmp_io::{CostModel, SimClock};

    fn engine() -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes: 256,
            error_bound: 1e-5,
            ..EngineConfig::default()
        })
    }

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.02).cos() * 2.0).collect()
    }

    #[test]
    fn allclose_detects_and_misses_correctly() {
        let e = engine();
        let data = wave(5_000);
        let mut data2 = data.clone();
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let same = CheckpointSource::in_memory(&data2, &e).unwrap();
        let ac = AllClose::new(1e-5).unwrap();
        assert!(ac.compare(&a, &same, &Ctx::default()).unwrap().within_bound);

        data2[2_500] += 1.0;
        let diff = CheckpointSource::in_memory(&data2, &e).unwrap();
        assert!(!ac.compare(&a, &diff, &Ctx::default()).unwrap().within_bound);
    }

    #[test]
    fn allclose_respects_the_bound() {
        let e = engine();
        let data = wave(1_000);
        let data2: Vec<f32> = data.iter().map(|&x| x + 5e-4).collect();
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        assert!(
            AllClose::new(1e-2)
                .unwrap()
                .compare(&a, &b, &Ctx::default())
                .unwrap()
                .within_bound
        );
        assert!(
            !AllClose::new(1e-5)
                .unwrap()
                .compare(&a, &b, &Ctx::default())
                .unwrap()
                .within_bound
        );
    }

    #[test]
    fn direct_finds_the_same_diffs_as_the_engine() {
        let e = engine();
        let data = wave(20_000);
        let mut data2 = data.clone();
        for k in [17usize, 1_000, 19_999] {
            data2[k] -= 0.5;
        }
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();

        let ours = e.compare(&a, &b, &Ctx::default()).unwrap();
        let direct = Direct::new(1e-5)
            .unwrap()
            .compare(&a, &b, &Ctx::default())
            .unwrap();
        assert_eq!(ours.stats.diff_count, direct.stats.diff_count);
        let oi: Vec<u64> = ours.differences.iter().map(|d| d.index).collect();
        let di: Vec<u64> = direct.differences.iter().map(|d| d.index).collect();
        assert_eq!(oi, di);
    }

    #[test]
    fn direct_always_reads_everything() {
        let e = engine();
        let data = wave(10_000);
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data, &e).unwrap();
        let report = Direct::new(1e-5)
            .unwrap()
            .compare(&a, &b, &Ctx::default())
            .unwrap();
        assert!(report.identical());
        assert_eq!(report.stats.bytes_reread, 40_000);
    }

    #[test]
    fn virtual_time_ordering_allclose_slowest_ours_fastest_when_identical() {
        // The Figure 5 ranking, as a unit test: identical runs, so our
        // method reads only metadata.
        let e = CompareEngine::new(EngineConfig {
            chunk_bytes: 4096,
            error_bound: 1e-5,
            ..EngineConfig::default()
        });
        let data = wave(1 << 18); // 1 MiB payload

        let modeled = |f: &dyn Fn(&CheckpointSource, &CheckpointSource, &Ctx) -> Duration| {
            let clock = SimClock::new();
            let a = CheckpointSource::in_memory_with_model(
                &data,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let b = CheckpointSource::in_memory_with_model(
                &data,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            f(
                &a,
                &b,
                &Ctx {
                    timeline: Timeline::sim(clock),
                    ..Ctx::default()
                },
            )
        };

        let t_ours = modeled(&|a, b, ctx| e.compare(a, b, ctx).unwrap().breakdown.total());
        let t_direct = modeled(&|a, b, ctx| {
            Direct::new(1e-5)
                .unwrap()
                .compare(a, b, ctx)
                .unwrap()
                .breakdown
                .total()
        });
        let t_allclose = modeled(&|a, b, ctx| {
            AllClose::new(1e-5)
                .unwrap()
                .compare(a, b, ctx)
                .unwrap()
                .duration
        });

        assert!(
            t_ours < t_direct,
            "ours {t_ours:?} should beat direct {t_direct:?}"
        );
        assert!(
            t_direct < t_allclose,
            "direct {t_direct:?} should beat allclose {t_allclose:?}"
        );
    }

    #[test]
    fn mismatched_sizes_error_in_both_baselines() {
        let e = engine();
        let a = CheckpointSource::in_memory(&wave(100), &e).unwrap();
        let b = CheckpointSource::in_memory(&wave(200), &e).unwrap();
        assert!(AllClose::new(1e-5)
            .unwrap()
            .compare(&a, &b, &Ctx::default())
            .is_err());
        assert!(Direct::new(1e-5)
            .unwrap()
            .compare(&a, &b, &Ctx::default())
            .is_err());
    }

    #[test]
    fn direct_diff_cap() {
        let e = engine();
        let data = wave(5_000);
        let data2: Vec<f32> = data.iter().map(|&x| x + 1.0).collect();
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let report = Direct::new(1e-5)
            .unwrap()
            .compare(&a, &b, &Ctx::default())
            .unwrap();
        assert_eq!(report.stats.diff_count, 5_000);
        assert_eq!(report.differences.len(), 1024, "the engine's default cap");
        assert!(report.differences_truncated);
    }
}
