//! The two-stage comparison engine.

use reprocmp_device::{Device, TimingModel, Workload};
use reprocmp_hash::{ChunkHasher, Floats, Quantizer};
use reprocmp_io::pipeline::{PipelineConfig, PipelineMetrics, StreamPipeline};
use reprocmp_io::storage::{AccessMode, Storage};
use reprocmp_io::{RingStats, Timeline};
use reprocmp_merkle::{compare_trees_traced, decode_tree, encode_tree, MerkleTree};
use reprocmp_obs::{Observer, PhaseCost, StageBreakdown};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::breakdown::CostBreakdown;
use crate::ctx::Ctx;
use crate::report::{ChunkRange, CompareReport, DataStats, Difference};
use crate::source::CheckpointSource;
use crate::{CoreError, CoreResult};

/// What the engine does when a chunk's reads fail even after the I/O
/// layer's retries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Abort the whole comparison on the first exhausted read — the
    /// historical fail-fast behaviour, and the default.
    #[default]
    Abort,
    /// Quarantine the affected chunks: skip them, keep comparing
    /// everything else, and list them in
    /// [`CompareReport::unverified`]. The comparison only errors on
    /// global failures (bad metadata, engine shutdown).
    Quarantine,
}

/// Engine configuration.
///
/// `..EngineConfig::default()` gives the paper's defaults: 4 KiB
/// chunks, `ε = 1e-5`, io_uring-style streaming, the simulated-GPU
/// device, and an A100-like compute model for virtual-time runs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Chunk size in bytes (the Merkle leaf granularity). Must be a
    /// positive multiple of 4.
    pub chunk_bytes: usize,
    /// The absolute error bound `ε`.
    pub error_bound: f64,
    /// The execution device for hashing/tree/compare kernels.
    pub device: Device,
    /// Streaming configuration for stage two.
    pub io: PipelineConfig,
    /// Lanes the BFS start level should saturate; default: the
    /// device's concurrent kernel threads.
    pub lane_hint: Option<usize>,
    /// Cap on localized differences kept in the report (the count is
    /// always exact).
    pub max_recorded_diffs: usize,
    /// Compute cost model charged to the virtual clock when comparing
    /// under a [`Timeline::Sim`]; ignored for wall-clock runs.
    pub compute_model: Option<TimingModel>,
    /// How chunk-level read failures (post-retry) are handled in stage
    /// two. Retries themselves are configured on [`EngineConfig::io`]
    /// (`io.retry`).
    pub failure_policy: FailurePolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            chunk_bytes: 4096,
            error_bound: 1e-5,
            device: Device::sim_gpu(),
            io: PipelineConfig::default(),
            lane_hint: None,
            max_recorded_diffs: 1024,
            compute_model: Some(TimingModel::gpu_a100()),
            failure_policy: FailurePolicy::default(),
        }
    }
}

/// The most payload bytes (plus one op) a stage-2 slice holds when
/// nothing models the compare: small enough that both slices of the
/// pair are still in cache when the verify kernel reads them. Chosen by
/// a sweep of six sizes (DESIGN.md §20).
const HOST_SLICE_BYTES: usize = 1 << 20;

/// The error-bounded Merkle comparison engine.
#[derive(Debug, Clone)]
pub struct CompareEngine {
    config: EngineConfig,
    hasher: ChunkHasher,
}

impl CompareEngine {
    /// Builds an engine.
    ///
    /// # Panics
    ///
    /// If `chunk_bytes` is not a positive multiple of 4 or
    /// `error_bound` is not a finite positive number. Use
    /// [`CompareEngine::try_new`] for fallible construction.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        Self::try_new(config).expect("invalid engine configuration")
    }

    /// Fallible construction.
    ///
    /// # Errors
    ///
    /// [`CoreError::Config`] for a bad chunk size or error bound.
    pub fn try_new(config: EngineConfig) -> CoreResult<Self> {
        if config.chunk_bytes == 0 || !config.chunk_bytes.is_multiple_of(4) {
            return Err(CoreError::Config(format!(
                "chunk_bytes must be a positive multiple of 4, got {}",
                config.chunk_bytes
            )));
        }
        let quantizer =
            Quantizer::new(config.error_bound).map_err(|e| CoreError::Config(e.to_string()))?;
        Ok(CompareEngine {
            hasher: ChunkHasher::new(quantizer),
            config,
        })
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The execution device.
    #[must_use]
    pub fn device(&self) -> &Device {
        &self.config.device
    }

    /// The error-bounded quantizer in use.
    #[must_use]
    pub fn quantizer(&self) -> &Quantizer {
        self.hasher.quantizer()
    }

    /// The capture kernel ([`MerkleTree::build`]) under this engine's
    /// chunking, bound and device: the Merkle metadata for a checkpoint
    /// payload (floats, or little-endian bytes hashed in place) and the
    /// [`StageBreakdown`] of its capture phases.
    ///
    /// # Panics
    ///
    /// If `data` holds no value.
    #[must_use]
    pub fn capture(&self, data: Floats<'_>) -> (MerkleTree, StageBreakdown) {
        MerkleTree::build(
            data,
            self.config.chunk_bytes,
            &self.hasher,
            &self.config.device,
        )
    }

    /// [`CompareEngine::capture`] over floats, without the profile.
    #[must_use]
    pub fn build_metadata(&self, values: &[f32]) -> MerkleTree {
        self.capture(Floats::Values(values)).0
    }

    /// Capture-side API: metadata ready to store next to a checkpoint.
    #[must_use]
    pub fn encode_metadata(&self, values: &[f32]) -> Vec<u8> {
        encode_tree(&self.build_metadata(values))
    }

    /// [`CompareEngine::encode_metadata`] over a payload's little-endian
    /// `f32` bytes as they sit in a checkpoint file, hashed in place
    /// (a trailing partial value is ignored).
    ///
    /// # Panics
    ///
    /// If `payload` holds no whole value.
    #[must_use]
    pub fn encode_payload_metadata(&self, payload: &[u8]) -> Vec<u8> {
        encode_tree(&self.capture(Floats::LeBytes(payload)).0)
    }

    /// [`CompareEngine::encode_payload_metadata`] seeded by `parent`,
    /// this engine's tree over an earlier payload of the same length:
    /// only the chunks `dirty` lists (ascending) are hashed, a run of
    /// them at a time through [`MerkleTree::update_region`], and every
    /// other leaf is the parent's. The result is byte-identical to a
    /// fresh capture when the other chunks' bytes are the parent's.
    ///
    /// # Panics
    ///
    /// If `parent` was not built under this engine's chunking and bound
    /// over a payload of this length, or a chunk index is out of range.
    #[must_use]
    pub fn encode_payload_metadata_from(
        &self,
        payload: &[u8],
        mut parent: MerkleTree,
        dirty: &[usize],
    ) -> Vec<u8> {
        let values = Floats::LeBytes(payload);
        let per_chunk = self.config.chunk_bytes / 4;
        for run in dirty.chunk_by(|a, b| a + 1 == *b) {
            let (first, last) = (run[0], run[run.len() - 1]);
            let end = ((last + 1) * per_chunk).min(values.len());
            parent.update_region(values, first * per_chunk..end, &self.hasher);
        }
        encode_tree(&parent)
    }

    /// Compares two checkpoints, timing phases on `ctx.timeline` (a
    /// [`Timeline::Sim`] sharing the sources' virtual clock gives
    /// deterministic modeled results) and recording into `ctx.obs`: a
    /// `compare` root span with per-phase children,
    /// `stage1.bfs`/`stage1.level{n}` spans from the tree walk,
    /// `stage2.stream`/`stage2.slice` spans from verification, the
    /// stage-two pipelines' counters and histograms under `io.*`, and
    /// summary counters (`stage1.nodes_visited`, `stage2.bytes_reread`,
    /// `compare.diff_values`).
    ///
    /// When either side has no ε-metadata, nothing is read, decoded or
    /// walked before stage two, which verifies every chunk: the report's
    /// `chunks_flagged` is `chunks_total`, `bytes_reread` the payload
    /// size and `false_positive_chunks` the chunks found clean, so
    /// `chunks_flagged − false_positive_chunks` counts the differing
    /// chunks on both paths.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`]: I/O failures, bad metadata, or incomparable
    /// checkpoints.
    pub fn compare(
        &self,
        a: &CheckpointSource,
        b: &CheckpointSource,
        ctx: &Ctx,
    ) -> CoreResult<CompareReport> {
        let Ctx { timeline, obs } = ctx;
        let _root_span = obs.tracer.span("compare");
        let mut breakdown = CostBreakdown::default();
        let chunk_bytes = self.config.chunk_bytes;
        // Store-backed sources carry live read counters; snapshot them
        // now so the report attributes only this comparison's traffic.
        let store_before = store_reads_snapshot(a, b);
        // Arm store-backed sources' flight-recorder slots for the
        // duration of this comparison (disarmed on every exit path).
        let _armed = ArmedStoreJournals::arm(a, b, obs.journal());

        // ---- Phase 1: setup --------------------------------------
        let t0 = timeline.now();
        let setup_span = obs.tracer.span("compare.setup");
        if a.payload_len != b.payload_len {
            return Err(CoreError::Mismatch(format!(
                "payload sizes differ: {} vs {}",
                a.payload_len, b.payload_len
            )));
        }
        if a.payload_len == 0 || !a.payload_len.is_multiple_of(4) {
            return Err(CoreError::Mismatch(format!(
                "payload length {} is not a positive multiple of 4",
                a.payload_len
            )));
        }
        let stats_total_values = a.value_count();
        let chunks_total = a.chunk_count(chunk_bytes);
        drop(setup_span);
        breakdown.setup = timeline.now() - t0;

        // Phases 2-4 need a tree on both sides. Without one, there is
        // nothing to prune: phase 5 verifies every chunk.
        let outcome = match (&a.metadata, &b.metadata) {
            (Some(meta_a), Some(meta_b)) => {
                // ---- Phase 2: read metadata ---------------------------
                let t1 = timeline.now();
                let read_span = obs.tracer.span("compare.read_meta");
                let meta_a = read_fully(meta_a, self.config.io.queue_depth)?;
                let meta_b = read_fully(meta_b, self.config.io.queue_depth)?;
                drop(read_span);
                breakdown.read = timeline.now() - t1;

                // ---- Phase 3: deserialize -----------------------------
                let t2 = timeline.now();
                let deser_span = obs.tracer.span("compare.deserialize");
                let tree_a = decode_tree(&meta_a)?;
                let tree_b = decode_tree(&meta_b)?;
                self.validate_tree(&tree_a, a, "run 1")?;
                self.validate_tree(&tree_b, b, "run 2")?;
                self.charge_compute(
                    timeline,
                    Workload::memory((meta_a.len() + meta_b.len()) as u64),
                );
                drop(deser_span);
                breakdown.deserialize = timeline.now() - t2;

                // ---- Phase 4: compare trees ---------------------------
                let t3 = timeline.now();
                let lanes = self
                    .config
                    .lane_hint
                    .unwrap_or_else(|| self.config.device.concurrent_kernel_threads());
                let outcome = compare_trees_traced(
                    &tree_a,
                    &tree_b,
                    &self.config.device,
                    lanes,
                    &obs.tracer,
                )?;
                self.charge_compute(
                    timeline,
                    Workload::new(
                        outcome.nodes_visited as u64 * 32,
                        outcome.nodes_visited as u64,
                    ),
                );
                breakdown.compare_tree = timeline.now() - t3;
                obs.registry
                    .counter("stage1.nodes_visited")
                    .add(outcome.nodes_visited as u64);
                obs.registry
                    .counter("stage1.chunks_flagged")
                    .add(outcome.mismatched_leaves.len() as u64);
                Some(outcome)
            }
            _ => None,
        };
        let every_chunk: Vec<usize>;
        let flagged = match &outcome {
            Some(outcome) => &outcome.mismatched_leaves,
            None => {
                every_chunk = (0..chunks_total as usize).collect();
                &every_chunk
            }
        };

        // ---- Phase 5: verify flagged chunks -----------------------
        let t4 = timeline.now();
        let verified = self.verify_chunks(a, b, flagged, timeline, obs, |_, _| {})?;
        breakdown.compare_direct = timeline.now() - t4;
        obs.registry
            .counter("stage2.bytes_reread")
            .add(verified.stats.bytes_reread);
        obs.registry
            .counter("compare.diff_values")
            .add(verified.stats.diff_count);

        // Per-stage profile: capture phases come from the sources
        // (summed across both runs), compare phases from this pass.
        // Phase-5 time splits into the element-wise verify kernels
        // (deterministic compute charges under simulation) and
        // everything else — the stream machinery and its I/O waits.
        let bytes_reread = verified.stats.bytes_reread;
        let mut stages = a.capture.merged(b.capture);
        if let Some(outcome) = &outcome {
            stages.bfs = outcome.phase_cost(breakdown.compare_tree);
        }
        stages.verify = PhaseCost::new(
            verified.verify_time.min(breakdown.compare_direct),
            bytes_reread * 2,
            bytes_reread / 4,
        );
        stages.stage2_stream = PhaseCost::new(
            breakdown
                .compare_direct
                .saturating_sub(verified.verify_time),
            bytes_reread * 2,
            verified.io.submitted,
        );
        // Store-read traffic overlaps the stream phase, so its time is
        // definitionally zero (see `StageBreakdown::store_read`); bytes
        // and ops come from the same delta as `CompareReport::store`.
        let store_delta = store_reads_snapshot(a, b).delta_since(store_before);
        stages.store_read = PhaseCost::new(
            Duration::ZERO,
            store_delta.bytes_read,
            store_delta.chunk_reads,
        );
        // Differential-capture savings are flush-time history, not work
        // done in this pass — informational phase, zero time (see
        // `StageBreakdown::delta_capture`).
        let (capture_stats, chain_info) = chain_provenance(a, b);
        stages.delta_capture = PhaseCost::new(
            Duration::ZERO,
            capture_stats.bytes_skipped,
            capture_stats.chunks_skipped,
        );

        let stats = DataStats {
            total_values: stats_total_values,
            total_bytes: a.payload_len,
            chunks_total,
            chunks_flagged: flagged.len() as u64,
            bytes_reread: verified.stats.bytes_reread,
            false_positive_chunks: verified.stats.false_positive_chunks,
            diff_count: verified.stats.diff_count,
        };

        Ok(CompareReport {
            breakdown,
            stages,
            stats,
            differences: verified.differences,
            differences_truncated: verified.truncated,
            io: verified.io,
            unverified: verified.unverified,
            cache: reprocmp_obs::CacheStats::default(),
            store: store_delta,
            capture: capture_stats,
            chain: chain_info,
        })
    }

    /// [`CompareEngine::compare`] on `timeline` with the observer off.
    /// Kept only because the benchmark's frozen API surface calls it.
    #[doc(hidden)]
    pub fn compare_with_timeline(
        &self,
        a: &CheckpointSource,
        b: &CheckpointSource,
        timeline: &Timeline,
    ) -> CoreResult<CompareReport> {
        self.compare(
            a,
            b,
            &Ctx {
                timeline: timeline.clone(),
                ..Ctx::default()
            },
        )
    }

    pub(crate) fn validate_tree(
        &self,
        tree: &MerkleTree,
        source: &CheckpointSource,
        label: &str,
    ) -> CoreResult<()> {
        if tree.chunk_bytes() != self.config.chunk_bytes {
            return Err(CoreError::Mismatch(format!(
                "{label}: metadata chunk size {} != engine {}",
                tree.chunk_bytes(),
                self.config.chunk_bytes
            )));
        }
        if tree.error_bound() != self.config.error_bound {
            return Err(CoreError::Mismatch(format!(
                "{label}: metadata error bound {} != engine {}",
                tree.error_bound(),
                self.config.error_bound
            )));
        }
        if tree.data_len() != source.payload_len {
            return Err(CoreError::Mismatch(format!(
                "{label}: metadata describes {} bytes but payload has {}",
                tree.data_len(),
                source.payload_len
            )));
        }
        Ok(())
    }

    /// Stage two: stream flagged chunks from both runs and compare
    /// them element-wise. After each flagged chunk is verified,
    /// `on_chunk` receives its chunk index and the
    /// `(value_offset_in_chunk, a, b)` triples of its real differences
    /// (empty for a hash false positive); the batch scheduler uses this
    /// sink to memoize verdicts. Quarantined chunks never reach it.
    pub(crate) fn verify_chunks(
        &self,
        a: &CheckpointSource,
        b: &CheckpointSource,
        flagged: &[usize],
        timeline: &Timeline,
        obs: &Observer,
        mut on_chunk: impl FnMut(usize, &[(u32, f32, f32)]),
    ) -> CoreResult<VerifyOutcome> {
        let mut out = VerifyOutcome::default();
        if flagged.is_empty() {
            return Ok(out);
        }
        let _stream_span = obs.tracer.span("stage2.stream");

        // One op per flagged chunk: the pipeline merges adjacent ops
        // into one read where its storage does (DESIGN.md §20).
        let chunk_bytes = self.config.chunk_bytes;
        let chunk_op = |src: &CheckpointSource, chunk: usize| {
            let start = (chunk * chunk_bytes) as u64;
            let len = src
                .payload_len
                .saturating_sub(start)
                .min(chunk_bytes as u64) as usize;
            (src.payload_offset + start, len)
        };
        let ops_a: Vec<_> = flagged.iter().map(|&c| chunk_op(a, c)).collect();
        let ops_b: Vec<_> = flagged.iter().map(|&c| chunk_op(b, c)).collect();
        out.stats.bytes_reread = ops_a.iter().map(|&(_, len)| len as u64).sum();

        let quantizer = self.quantizer();
        let values_per_chunk = chunk_bytes / 4;

        // Under Quarantine the streams flow past exhausted reads and
        // report them per slice; under Abort the first exhausted read
        // terminates the stream with an error (historical behaviour).
        let mut io_cfg = self.config.io;
        io_cfg.continue_on_error = self.config.failure_policy == FailurePolicy::Quarantine;
        // Both pipelines slice by this one config, so their slices pair
        // op for op. When nothing models this compare — a wall timeline,
        // and neither side charges a cost model — the slices are cut
        // small enough to verify from cache (DESIGN.md §20). A modeled
        // compare keeps `slice_bytes`, the size its figures assume: a
        // sim timeline charges a kernel launch per slice, and a cost
        // model charges each slice's batch.
        if matches!(timeline, Timeline::Wall(_)) && !a.data.models_cost() && !b.data.models_cost() {
            io_cfg.slice_bytes = io_cfg.slice_bytes.min(HOST_SLICE_BYTES);
        }

        // Both pipelines share ONE set of registry-backed metrics
        // (`io.*`), so the counters already hold both sides' totals —
        // the report takes a single snapshot, never a merge of two.
        // Flight-recorder lanes stay per side (`run_a.*` / `run_b.*`)
        // so the trace keeps one timeline per worker per run.
        let journal = obs.journal().clone();
        let metrics = PipelineMetrics::in_registry(&obs.registry, "io");
        let counters = Arc::clone(&metrics.counters);
        let pipe_a = StreamPipeline::start_observed(
            Arc::clone(&a.data),
            ops_a,
            io_cfg,
            metrics.clone().with_journal(journal.clone(), "run_a"),
        );
        let pipe_b = StreamPipeline::start_observed(
            Arc::clone(&b.data),
            ops_b,
            io_cfg,
            metrics.with_journal(journal.clone(), "run_b"),
        );

        // Scratch for one chunk's `(offset, a, b)` difference triples,
        // handed to the sink after the chunk's bookkeeping.
        let mut chunk_diffs: Vec<(u32, f32, f32)> = Vec::new();

        for (slice_a, slice_b) in pipe_a.zip(pipe_b) {
            let _slice_span = obs.tracer.span("stage2.slice");
            let slice_a = slice_a?;
            let slice_b = slice_b?;
            if (slice_a.first_op, slice_a.ops.len()) != (slice_b.first_op, slice_b.ops.len()) {
                return Err(CoreError::Mismatch(format!(
                    "stage-2 slices do not pair: ops {}+{} against {}+{}",
                    slice_a.first_op,
                    slice_a.ops.len(),
                    slice_b.first_op,
                    slice_b.ops.len()
                )));
            }

            // An op is unverifiable if *either* side failed to read it.
            let mut failed_ops: Vec<usize> = slice_a
                .failed
                .iter()
                .chain(slice_b.failed.iter())
                .map(|f| f.op)
                .collect();
            failed_ops.sort_unstable();
            failed_ops.dedup();
            for &op in &failed_ops {
                let first = flagged[op] as u64;
                out.unverified.push(ChunkRange { first, count: 1 });
                journal.emit(
                    "engine",
                    reprocmp_obs::EventKind::Quarantine {
                        first_chunk: first,
                        chunks: 1,
                    },
                );
            }

            // Comparison kernel over this slice (both buffers touched,
            // one op per value pair). Verify time is the modeled charge
            // under simulation (deterministic) or the measured walk
            // below on a wall timeline.
            let charged = self.charge_compute(
                timeline,
                Workload::new(
                    (slice_a.data.len() + slice_b.data.len()) as u64,
                    (slice_a.data.len() / 4) as u64,
                ),
            );
            let verify_wall = Instant::now();

            for ((op_idx, chunk_a), (_, chunk_b)) in slice_a.payloads().zip(slice_b.payloads()) {
                if failed_ops.binary_search(&op_idx).is_ok() {
                    continue; // quarantined: zero-filled, never compared
                }
                let chunk_index = flagged[op_idx];
                chunk_diffs.clear();
                quantizer.diff_le_bytes(chunk_a, chunk_b, &mut chunk_diffs);
                out.stats.diff_count += chunk_diffs.len() as u64;
                for &(j, va, vb) in &chunk_diffs {
                    if out.differences.len() < self.config.max_recorded_diffs {
                        out.differences.push(Difference {
                            index: (chunk_index * values_per_chunk + j as usize) as u64,
                            a: va,
                            b: vb,
                        });
                    } else {
                        out.truncated = true;
                    }
                }
                if chunk_diffs.is_empty() {
                    out.stats.false_positive_chunks += 1;
                }
                on_chunk(chunk_index, &chunk_diffs);
            }
            let kernel_time = if charged > Duration::ZERO {
                charged
            } else {
                verify_wall.elapsed()
            };
            out.verify_time += kernel_time;
            if journal.is_enabled() {
                journal.emit(
                    "engine",
                    reprocmp_obs::EventKind::Kernel {
                        name: "verify".to_string(),
                        bytes: (slice_a.data.len() + slice_b.data.len()) as u64,
                        latency_ns: u64::try_from(kernel_time.as_nanos()).unwrap_or(u64::MAX),
                    },
                );
            }
        }
        out.io = counters.snapshot();
        out.unverified = merge_ranges(out.unverified);
        Ok(out)
    }

    /// Charges `workload` to a simulated timeline and returns the
    /// charged duration ([`Duration::ZERO`] on wall timelines or when
    /// no compute model is configured).
    pub(crate) fn charge_compute(&self, timeline: &Timeline, workload: Workload) -> Duration {
        if let (Timeline::Sim(clock), Some(model)) = (timeline, &self.config.compute_model) {
            let t = model.kernel_time(workload);
            clock.advance(t);
            t
        } else {
            Duration::ZERO
        }
    }
}

/// Everything stage two produces.
#[derive(Debug, Default)]
pub(crate) struct VerifyOutcome {
    pub(crate) stats: DataStats,
    pub(crate) differences: Vec<Difference>,
    pub(crate) truncated: bool,
    pub(crate) unverified: Vec<ChunkRange>,
    pub(crate) io: RingStats,
    /// Time attributed to the element-wise verify kernels (see
    /// `compare`'s stage-splitting).
    pub(crate) verify_time: Duration,
}

/// Merges adjacent/overlapping sorted chunk ranges.
pub(crate) fn merge_ranges(ranges: Vec<ChunkRange>) -> Vec<ChunkRange> {
    let mut merged: Vec<ChunkRange> = Vec::with_capacity(ranges.len());
    for r in ranges {
        match merged.last_mut() {
            Some(prev) if prev.first + prev.count >= r.first => {
                prev.count = prev.count.max(r.first + r.count - prev.first);
            }
            _ => merged.push(r),
        }
    }
    merged
}

/// RAII guard arming the flight-recorder slots of store-backed
/// sources for one comparison: pack reads emit `store_read` events
/// only while a journaled compare is in flight, and the slots are
/// disarmed again on every exit path (including errors).
struct ArmedStoreJournals(Vec<reprocmp_obs::JournalSlot>);

impl ArmedStoreJournals {
    fn arm(a: &CheckpointSource, b: &CheckpointSource, journal: &reprocmp_obs::Journal) -> Self {
        let mut armed = Vec::new();
        if journal.is_enabled() {
            for slot in [&a.store_journal, &b.store_journal].into_iter().flatten() {
                slot.set(journal.clone());
                armed.push(slot.clone());
            }
        }
        ArmedStoreJournals(armed)
    }
}

impl Drop for ArmedStoreJournals {
    fn drop(&mut self) {
        for slot in &self.0 {
            slot.clear();
        }
    }
}

/// Combined store-read counters of both sources at this instant
/// (all-zero when neither source is store-backed).
pub(crate) fn store_reads_snapshot(
    a: &CheckpointSource,
    b: &CheckpointSource,
) -> reprocmp_obs::StoreReadStats {
    let side = |s: &CheckpointSource| {
        s.store_reads
            .as_ref()
            .map(reprocmp_obs::StoreReadCounters::snapshot)
            .unwrap_or_default()
    };
    side(a).merged(side(b))
}

/// Differential-capture provenance of a compared pair: the summed
/// flush-time savings (`CompareReport::capture`) and per-side chain
/// depths (`CompareReport::chain`). All-zero unless a side resolved a
/// store-backed delta manifest.
pub(crate) fn chain_provenance(
    a: &CheckpointSource,
    b: &CheckpointSource,
) -> (crate::report::CaptureStats, crate::report::ChainInfo) {
    let pa = a.chain.unwrap_or_default();
    let pb = b.chain.unwrap_or_default();
    (
        crate::report::CaptureStats {
            bytes_skipped: pa.bytes_skipped + pb.bytes_skipped,
            chunks_skipped: pa.chunks_skipped + pb.chunks_skipped,
        },
        crate::report::ChainInfo {
            depth_a: pa.depth,
            depth_b: pb.depth,
        },
    )
}

/// Reads a whole storage object (sequentially, asynchronously charged).
pub(crate) fn read_fully(storage: &Arc<dyn Storage>, queue_depth: usize) -> CoreResult<Vec<u8>> {
    let len = storage.len() as usize;
    let mut buf = vec![0u8; len];
    storage.charge_batch(&[(0, len)], AccessMode::Async { depth: queue_depth });
    storage.read_at(0, &mut buf)?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reprocmp_io::CostModel;
    use reprocmp_io::SimClock;
    use std::time::Duration;

    fn engine(chunk_bytes: usize, bound: f64) -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes,
            error_bound: bound,
            ..EngineConfig::default()
        })
    }

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.01).sin() * 5.0).collect()
    }

    #[test]
    fn identical_checkpoints_need_zero_rereads() {
        let e = engine(256, 1e-5);
        let data = wave(10_000);
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert!(report.identical());
        assert_eq!(report.stats.chunks_flagged, 0);
        assert_eq!(report.stats.bytes_reread, 0);
        assert_eq!(report.stats.chunks_total, 157); // ceil(40000/256)
    }

    #[test]
    fn localizes_every_injected_difference() {
        let e = engine(256, 1e-5);
        let data = wave(10_000);
        let mut data2 = data.clone();
        let victims = [0usize, 63, 64, 5_000, 9_999];
        for &v in &victims {
            data2[v] += 0.01; // 1000x the bound
        }
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert_eq!(report.stats.diff_count, victims.len() as u64);
        let found: Vec<u64> = report.differences.iter().map(|d| d.index).collect();
        assert_eq!(found, victims.iter().map(|&v| v as u64).collect::<Vec<_>>());
        assert!(!report.differences_truncated);
    }

    #[test]
    fn differences_within_bound_are_not_reported() {
        let e = engine(256, 1e-2);
        let data = wave(5_000);
        let data2: Vec<f32> = data.iter().map(|&x| x + 1e-3).collect();
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert_eq!(report.stats.diff_count, 0);
        // Chunks may be flagged (grid straddling), but all were clean:
        assert_eq!(
            report.stats.false_positive_chunks,
            report.stats.chunks_flagged
        );
    }

    #[test]
    fn agrees_with_brute_force_on_noisy_data() {
        let e = engine(128, 1e-4);
        let data = wave(8_192);
        let mut data2 = data.clone();
        // Noise at assorted scales around the bound.
        for (i, v) in data2.iter_mut().enumerate() {
            match i % 7 {
                0 => *v += 3e-4, // above
                3 => *v += 9e-5, // below
                5 => *v -= 2e-4, // above
                _ => {}
            }
        }
        let brute: u64 = data
            .iter()
            .zip(&data2)
            .filter(|(x, y)| (f64::from(**x) - f64::from(**y)).abs() > 1e-4)
            .count() as u64;
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert_eq!(report.stats.diff_count, brute);
    }

    #[test]
    fn diff_cap_truncates_list_but_not_count() {
        let e = CompareEngine::new(EngineConfig {
            chunk_bytes: 128,
            error_bound: 1e-6,
            max_recorded_diffs: 10,
            ..EngineConfig::default()
        });
        let data = wave(4_096);
        let data2: Vec<f32> = data.iter().map(|&x| x + 1.0).collect();
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert_eq!(report.stats.diff_count, 4_096);
        assert_eq!(report.differences.len(), 10);
        assert!(report.differences_truncated);
    }

    #[test]
    fn tail_chunk_shorter_than_chunk_bytes_is_verified() {
        let e = engine(256, 1e-5);
        let mut data = wave(1_000); // 4000 B: 15 full chunks + 160 B tail
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        data[999] += 1.0;
        let b = CheckpointSource::in_memory(&data, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert_eq!(report.stats.diff_count, 1);
        assert_eq!(report.differences[0].index, 999);
    }

    #[test]
    fn a_side_without_metadata_verifies_every_chunk_and_nothing_else() {
        let e = engine(256, 1e-5);
        let data = wave(10_000); // 157 chunks, the last one short
        let mut data2 = data.clone();
        data2[17] += 1.0;
        data2[9_999] += 1.0;
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let mut b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let with_trees = e.compare(&a, &b, &Ctx::default()).unwrap();
        b.metadata = None;
        for (x, y) in [(&a, &b), (&b, &a)] {
            let r = e.compare(x, y, &Ctx::default()).unwrap();
            assert_eq!(r.stats.diff_count, 2);
            assert_eq!(r.stats.chunks_flagged, 157);
            assert_eq!(r.stats.false_positive_chunks, 155);
            assert_eq!(r.stats.bytes_reread, 40_000);
            assert_eq!(r.breakdown.read + r.breakdown.deserialize, Duration::ZERO);
            assert_eq!(r.breakdown.compare_tree, Duration::ZERO);
            assert_eq!(r.stages.bfs, PhaseCost::default());
        }
        let r = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert_eq!(r.differences, with_trees.differences);
    }

    #[test]
    fn merge_ranges_joins_adjacent_and_overlapping() {
        let r = |first, count| ChunkRange { first, count };
        assert_eq!(merge_ranges(vec![]), vec![]);
        assert_eq!(
            merge_ranges(vec![r(0, 1), r(1, 1), r(2, 1), r(5, 2)]),
            vec![r(0, 3), r(5, 2)]
        );
        assert_eq!(merge_ranges(vec![r(0, 4), r(2, 1)]), vec![r(0, 4)]);
        assert_eq!(merge_ranges(vec![r(0, 2), r(1, 3)]), vec![r(0, 4)]);
    }

    #[test]
    fn quarantine_skips_bad_chunks_and_reports_the_rest() {
        use reprocmp_io::{FaultPlan, FaultyStorage};
        let e = CompareEngine::new(EngineConfig {
            chunk_bytes: 256,
            error_bound: 1e-5,
            failure_policy: FailurePolicy::Quarantine,
            ..EngineConfig::default()
        });
        let data = wave(10_000);
        let mut data2 = data.clone();
        data2[10] += 1.0; // chunk 0 — will be unreadable
        data2[5_000] += 1.0; // chunk 78 — readable
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let mut b = CheckpointSource::in_memory(&data2, &e).unwrap();
        // Poison chunk 0 of run 2's payload.
        b.data = Arc::new(FaultyStorage::new(
            Arc::clone(&b.data),
            FaultPlan::Range {
                start: b.payload_offset,
                end: b.payload_offset + 256,
            },
        ));
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert!(!report.fully_verified());
        assert_eq!(
            report.unverified,
            vec![crate::report::ChunkRange { first: 0, count: 1 }]
        );
        // The readable difference is still localized...
        assert_eq!(report.stats.diff_count, 1);
        assert_eq!(report.differences[0].index, 5_000);
        // ...and the I/O ledger shows exactly one abandoned op.
        assert_eq!(report.io.gave_up, 1);
        assert!(report.io.completed >= 1);
    }

    #[test]
    fn abort_policy_still_fails_fast() {
        use reprocmp_io::{FaultPlan, FaultyStorage};
        let e = engine(256, 1e-5);
        let data = wave(10_000);
        let mut data2 = data.clone();
        data2[10] += 1.0;
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let mut b = CheckpointSource::in_memory(&data2, &e).unwrap();
        b.data = Arc::new(FaultyStorage::new(
            Arc::clone(&b.data),
            FaultPlan::Range {
                start: b.payload_offset,
                end: b.payload_offset + 256,
            },
        ));
        assert!(matches!(
            e.compare(&a, &b, &Ctx::default()),
            Err(CoreError::Io(_))
        ));
    }

    #[test]
    fn report_surfaces_pipeline_traffic() {
        let e = engine(256, 1e-5);
        let data = wave(10_000);
        let mut data2 = data.clone();
        data2[500] += 1.0;
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let report = e.compare(&a, &b, &Ctx::default()).unwrap();
        assert!(
            report.io.submitted >= 2,
            "one op per run per side: {:?}",
            report.io
        );
        assert_eq!(report.io.submitted, report.io.completed);
        assert_eq!(report.io.retried, 0);
        assert_eq!(report.io.gave_up, 0);
    }

    #[test]
    fn mismatched_sizes_error() {
        let e = engine(256, 1e-5);
        let a = CheckpointSource::in_memory(&wave(100), &e).unwrap();
        let b = CheckpointSource::in_memory(&wave(101), &e).unwrap();
        assert!(matches!(
            e.compare(&a, &b, &Ctx::default()),
            Err(CoreError::Mismatch(_))
        ));
    }

    #[test]
    fn metadata_from_wrong_config_rejected() {
        let e1 = engine(256, 1e-5);
        let e2 = engine(512, 1e-5);
        let data = wave(4_096);
        let a = CheckpointSource::in_memory(&data, &e1).unwrap();
        let b = CheckpointSource::in_memory(&data, &e2).unwrap();
        // Comparing with e1: b's metadata has the wrong chunk size.
        assert!(matches!(
            e1.compare(&a, &b, &Ctx::default()),
            Err(CoreError::Mismatch(_))
        ));
        // And a bound mismatch:
        let e3 = engine(256, 1e-4);
        let c = CheckpointSource::in_memory(&data, &e3).unwrap();
        assert!(matches!(
            e1.compare(&a, &c, &Ctx::default()),
            Err(CoreError::Mismatch(_))
        ));
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(CompareEngine::try_new(EngineConfig {
            chunk_bytes: 6,
            ..EngineConfig::default()
        })
        .is_err());
        assert!(CompareEngine::try_new(EngineConfig {
            error_bound: -1.0,
            ..EngineConfig::default()
        })
        .is_err());
    }

    #[test]
    fn corrupt_metadata_surfaces_codec_error() {
        let e = engine(256, 1e-5);
        let data = wave(2_048);
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let mut b = CheckpointSource::in_memory(&data, &e).unwrap();
        b.metadata = Some(Arc::new(reprocmp_io::MemStorage::free(vec![0u8; 32])));
        assert!(matches!(
            e.compare(&a, &b, &Ctx::default()),
            Err(CoreError::Metadata(_))
        ));
    }

    #[test]
    fn sim_timeline_yields_deterministic_breakdown() {
        let e = engine(4096, 1e-5);
        let data = wave(1 << 16);
        let mut data2 = data.clone();
        data2[1000] += 1.0;
        let run = || {
            let clock = SimClock::new();
            let a = CheckpointSource::in_memory_with_model(
                &data,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let b = CheckpointSource::in_memory_with_model(
                &data2,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            e.compare(
                &a,
                &b,
                &Ctx {
                    timeline: Timeline::sim(clock),
                    ..Ctx::default()
                },
            )
            .unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.breakdown, r2.breakdown);
        assert!(r1.breakdown.read > Duration::ZERO, "metadata read charged");
        assert!(
            r1.breakdown.compare_direct > Duration::ZERO,
            "flagged-chunk verification charged"
        );
    }

    #[test]
    fn observed_compare_emits_spans_and_registry_metrics() {
        let e = engine(256, 1e-5);
        let data = wave(10_000);
        let mut data2 = data.clone();
        data2[500] += 1.0;
        let a = CheckpointSource::in_memory(&data, &e).unwrap();
        let b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let timeline = Timeline::wall();
        let obs = timeline.observer();
        let report = e
            .compare(
                &a,
                &b,
                &Ctx {
                    timeline,
                    obs: obs.clone(),
                },
            )
            .unwrap();

        let records = obs.tracer.records();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "compare",
            "compare.setup",
            "compare.read_meta",
            "compare.deserialize",
            "stage1.bfs",
            "stage2.stream",
            "stage2.slice",
        ] {
            assert!(
                names.contains(&expected),
                "missing span {expected}: {names:?}"
            );
        }
        // Phase spans are children of the root `compare` span.
        let root = records.iter().position(|r| r.name == "compare").unwrap() as u64;
        let setup = records.iter().find(|r| r.name == "compare.setup").unwrap();
        assert_eq!(setup.parent, Some(root));

        // The registry mirrors the report's accounting.
        assert_eq!(
            obs.registry.counter("io.submitted").get(),
            report.io.submitted
        );
        assert_eq!(
            obs.registry.counter("io.completed").get(),
            report.io.completed
        );
        assert_eq!(
            obs.registry.counter("stage2.bytes_reread").get(),
            report.stats.bytes_reread
        );
        assert_eq!(
            obs.registry.counter("compare.diff_values").get(),
            report.stats.diff_count
        );
        assert_eq!(
            obs.registry.counter("stage1.chunks_flagged").get(),
            report.stats.chunks_flagged
        );
        // Per-op payloads flowed through the shared `io.read_bytes`
        // histogram: one entry per completed op, summing to both
        // sides' re-read volume.
        let h = obs.registry.histogram("io.read_bytes").snapshot();
        assert_eq!(h.count, report.io.completed);
        assert_eq!(h.sum, 2 * report.stats.bytes_reread);
    }

    #[test]
    fn stages_profile_is_deterministic_and_consistent_under_sim() {
        let e = engine(4096, 1e-5);
        let data = wave(1 << 16);
        let mut data2 = data.clone();
        data2[1000] += 1.0;
        let run = || {
            let clock = SimClock::new();
            let a = CheckpointSource::in_memory_with_model(
                &data,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let b = CheckpointSource::in_memory_with_model(
                &data2,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let timeline = Timeline::sim(clock);
            let obs = timeline.observer();
            e.compare(
                &a,
                &b,
                &Ctx {
                    timeline,
                    obs: obs.clone(),
                },
            )
            .unwrap()
        };
        let r1 = run();
        let r2 = run();
        assert_eq!(r1.stages, r2.stages, "stage profile must be deterministic");
        // Capture phases were profiled on both sources (modeled time).
        assert!(r1.stages.quantize.time > Duration::ZERO);
        assert!(r1.stages.leaf_hash.time > Duration::ZERO);
        assert!(r1.stages.level_build.ops > 0);
        assert_eq!(r1.stages.quantize.bytes, 2 * r1.stats.total_bytes);
        // Compare phases tie out against the phase timers exactly.
        assert_eq!(
            r1.stages.stage2_stream.time + r1.stages.verify.time,
            r1.breakdown.compare_direct
        );
        assert_eq!(r1.stages.bfs.time, r1.breakdown.compare_tree);
        assert_eq!(r1.stages.verify.bytes, 2 * r1.stats.bytes_reread);
        assert_eq!(r1.stages.stage2_stream.ops, r1.io.submitted);
        assert!(r1.stages.verify.time > Duration::ZERO);
    }

    #[test]
    fn fewer_flagged_chunks_means_less_virtual_time() {
        let e = engine(4096, 1e-5);
        let data = wave(1 << 16);
        let modeled_total = |n_victims: usize| {
            let mut data2 = data.clone();
            for k in 0..n_victims {
                data2[k * 1024] += 1.0;
            }
            let clock = SimClock::new();
            let a = CheckpointSource::in_memory_with_model(
                &data,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let b = CheckpointSource::in_memory_with_model(
                &data2,
                &e,
                CostModel::lustre_pfs(),
                Some(clock.clone()),
            )
            .unwrap();
            let report = e
                .compare(
                    &a,
                    &b,
                    &Ctx {
                        timeline: Timeline::sim(clock),
                        ..Ctx::default()
                    },
                )
                .unwrap();
            report.breakdown.total()
        };
        assert!(modeled_total(2) < modeled_total(50));
    }

    /// `src` with its payload moved to a real file at `path`.
    fn on_file(mut src: CheckpointSource, path: &std::path::Path) -> CheckpointSource {
        let mut payload = vec![0u8; src.payload_len as usize];
        src.data.read_at(src.payload_offset, &mut payload).unwrap();
        std::fs::write(path, &payload).unwrap();
        src.data = Arc::new(reprocmp_io::StdFsStorage::open(path).unwrap());
        src.payload_offset = 0;
        src
    }

    /// 4 KiB chunks.
    fn run_engine() -> CompareEngine {
        engine(4096, 1e-5)
    }

    /// 3 MiB a side, every 4 KiB chunk flagged: chunk `c` differs at
    /// every `(1 + c % 7)`-th value, so a chunk verified against the
    /// wrong one changes the count.
    fn dense_pair() -> (Vec<f32>, Vec<f32>) {
        let n = 3 << 18;
        let data = wave(n);
        let data2 = (0..n)
            .map(|i| data[i] + f32::from(i % (1 + (i / 1024) % 7) == 0))
            .collect();
        (data, data2)
    }

    #[test]
    fn a_file_and_a_memory_source_verify_the_same_chunks() {
        let e = run_engine();
        let (data, data2) = dense_pair();
        let n = data.len();
        let brute = (0..n).filter(|&i| data[i] != data2[i]).count() as u64;
        let mem_a = CheckpointSource::in_memory(&data, &e).unwrap();
        let mem_b = CheckpointSource::in_memory(&data2, &e).unwrap();
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let path_a = dir.join(format!("reprocmp-engine-file-a-{pid}"));
        let path_b = dir.join(format!("reprocmp-engine-file-b-{pid}"));
        let file_a = on_file(CheckpointSource::in_memory(&data, &e).unwrap(), &path_a);
        let file_b = on_file(CheckpointSource::in_memory(&data2, &e).unwrap(), &path_b);

        let want = e.compare(&mem_a, &mem_b, &Ctx::default()).unwrap();
        assert_eq!(want.stats.chunks_flagged, (n / 1024) as u64);
        assert_eq!(want.stats.diff_count, brute);
        for (a, b) in [(&file_a, &mem_b), (&mem_a, &file_b), (&file_a, &file_b)] {
            let got = e.compare(a, b, &Ctx::default()).unwrap();
            assert_eq!(got.stats, want.stats);
            assert_eq!(got.differences, want.differences);
            assert_eq!(got.unverified, want.unverified);
        }
        std::fs::remove_file(path_a).ok();
        std::fs::remove_file(path_b).ok();
    }

    /// The payload bytes of each stage-2 slice the compare read, both
    /// sides.
    fn slices_read(a: &CheckpointSource, b: &CheckpointSource, timeline: Timeline) -> Vec<u64> {
        let ctx = Ctx {
            timeline,
            obs: Observer::with_journal(reprocmp_obs::ObsClock::wall()),
        };
        run_engine().compare(a, b, &ctx).unwrap();
        let events = ctx.obs.journal().events();
        events
            .into_iter()
            .filter_map(|e| match e.kind {
                reprocmp_obs::EventKind::IoSubmit { bytes, .. } => Some(bytes),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn only_a_compare_nothing_models_cuts_host_slices() {
        let e = run_engine();
        let (data, data2) = dense_pair();
        let side = |values: &[f32], model| {
            CheckpointSource::in_memory_with_model(values, &e, model, None).unwrap()
        };
        let (free_a, free_b) = (
            side(&data, CostModel::free()),
            side(&data2, CostModel::free()),
        );
        let (pfs_a, pfs_b) = (
            side(&data, CostModel::lustre_pfs()),
            side(&data2, CostModel::lustre_pfs()),
        );
        // Wall clock, cost-free storage: 1 MiB slices (256 chunks each).
        let host = slices_read(&free_a, &free_b, Timeline::wall());
        assert_eq!(host, [HOST_SLICE_BYTES as u64; 6]);
        // A modeled side, or a modeled timeline: one 3 MiB slice a side,
        // as `slice_bytes` (8 MiB) cuts it.
        let whole = [3 << 20; 2];
        assert_eq!(slices_read(&pfs_a, &free_b, Timeline::wall()), whole);
        assert_eq!(slices_read(&free_a, &pfs_b, Timeline::wall()), whole);
        let clock = SimClock::new();
        assert_eq!(slices_read(&free_a, &free_b, Timeline::sim(clock)), whole);
    }
}
