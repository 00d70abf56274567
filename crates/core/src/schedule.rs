//! The multi-run batch comparison scheduler.
//!
//! The pairwise engine answers "do these two checkpoints agree within
//! ε?". Reproducibility studies ask the plural question: *compare N
//! runs against a blessed baseline* (or all pairs, for triage when no
//! baseline exists). Running N independent pairwise comparisons wastes
//! work three ways — the baseline's metadata is read and decoded N
//! times, near-identical subtree pairs are re-walked once per job, and
//! chunks whose raw bytes were already verified against the baseline
//! are re-read from the PFS and re-compared. The batch scheduler
//! ([`CompareEngine::compare_many`]) eliminates all three with a
//! content-addressed [`MetaCache`]:
//!
//! 1. **Plan** (serial, deterministic): every source's metadata is
//!    read, decoded, and validated exactly once. Each job's start-level
//!    frontier is walked; every mismatching `(left, right)` digest pair
//!    is either answered from the cache (hit), attached to a resolution
//!    another job already scheduled this batch (hit), or scheduled for
//!    resolution (miss). Because the plan is built serially in job
//!    order, every hit/miss decision is independent of how execution is
//!    later sharded.
//! 2. **Execute** (parallel): distinct subtree resolutions run across
//!    [`reprocmp_device::Device::host_parallel`] lanes, then each job's
//!    *fresh* flagged chunks (those whose raw-digest pair has no
//!    memoized verdict) stream through the normal stage-2 pipeline.
//!    Results are keyed by job index, never by completion order.
//! 3. **Assemble** (serial): cached subtree mismatch sets and cached
//!    chunk verdicts are spliced into each job's report, compute time
//!    is charged per job from the deterministic cost model, and the
//!    batch-level cache ledger is totalled.
//!
//! The accounting obeys exact invariants (checked by the test suite):
//! per job, the nodes visited with the cache plus
//! [`reprocmp_obs::CacheStats::nodes_saved`] equals the nodes the same
//! job visits with the cache disabled, and `node_hits + node_misses`
//! equals the job's mismatching frontier pairs. Reports are
//! byte-identical regardless of the shard count because every
//! scheduling decision is made in the serial plan phase and all
//! reported durations come from deterministic compute charges.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use reprocmp_device::{Device, Workload};
use reprocmp_hash::Digest128;
use reprocmp_merkle::{compare_subtree, decode_tree, start_level_for, MerkleTree, SubtreeOutcome};
use reprocmp_obs::{CacheStats, EventKind, Observer, PhaseCost, StoreReadStats};
use serde::Serialize;

use crate::breakdown::CostBreakdown;
use crate::ctx::Ctx;
use crate::engine::{merge_ranges, read_fully, CompareEngine, VerifyOutcome};
use crate::metacache::{ChunkVerdict, MetaCache, SubtreeEntry, SubtreeKey};
use crate::report::{ChunkRange, CompareReport, DataStats, Difference};
use crate::source::CheckpointSource;
use crate::{CoreError, CoreResult};

/// Batch scheduler knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Consult and populate the metadata cache (default `true`). With
    /// the cache off every job runs the full pruning walk and verifies
    /// every flagged chunk itself — metadata is still decoded once per
    /// source.
    pub use_cache: bool,
    /// Host lanes the execute phase shards jobs and resolutions
    /// across; `None` uses the engine device's lane count. Any value
    /// produces byte-identical reports (see the module docs).
    pub shards: Option<usize>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            use_cache: true,
            shards: None,
        }
    }
}

/// One job's result within a batch.
///
/// `left`/`right` index the batch's source list: for
/// [`CompareEngine::compare_many`] index 0 is the baseline and index
/// `k + 1` is `runs[k]`; for [`CompareEngine::compare_all_pairs`]
/// indices map directly into `runs`.
///
/// The per-job [`CompareReport`] differs from a pairwise run's in two
/// documented ways: batch-level costs (metadata read + decode, shared
/// by all jobs) live on [`BatchReport`] rather than in each job's
/// `breakdown.setup/read/deserialize`, and `breakdown.compare_direct`
/// carries only the deterministic verify-kernel charge so that shard
/// scheduling cannot perturb reported numbers.
#[derive(Debug, Clone, Serialize)]
pub struct BatchJobReport {
    /// Index of the left source.
    pub left: usize,
    /// Index of the right source.
    pub right: usize,
    /// The comparison report, cache splices included.
    pub report: CompareReport,
}

/// The result of one scheduled batch.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BatchReport {
    /// Per-job reports, in job order.
    pub jobs: Vec<BatchJobReport>,
    /// Batch-wide cache ledger (the per-job ledgers summed).
    pub cache: CacheStats,
    /// Batch-wide chunk-store read ledger. Jobs execute in parallel
    /// over shared store-backed sources, so the batch reports one
    /// pooled delta; per-job `report.store` stays zero.
    pub store: StoreReadStats,
    /// Sources whose metadata was read and decoded — once each, versus
    /// twice per job for independent pairwise runs.
    pub trees_decoded: u64,
    /// Time spent reading, decoding, and validating all metadata.
    pub decode_time: Duration,
    /// Total batch time on the driving timeline.
    pub elapsed: Duration,
}

impl BatchReport {
    /// True when every job found its pair identical within the bound.
    #[must_use]
    pub fn identical(&self) -> bool {
        self.jobs.iter().all(|j| j.report.identical())
    }

    /// Stage-1 node-pair visits summed across jobs.
    #[must_use]
    pub fn total_nodes_visited(&self) -> u64 {
        self.jobs.iter().map(|j| j.report.stages.bfs.ops).sum()
    }

    /// Stage-2 bytes actually re-read, summed across jobs.
    #[must_use]
    pub fn total_bytes_reread(&self) -> u64 {
        self.jobs.iter().map(|j| j.report.stats.bytes_reread).sum()
    }
}

/// Where one mismatching frontier pair gets its mismatch set from.
enum RefSource {
    /// Answered by an entry committed in an earlier batch.
    Hit(Arc<SubtreeEntry>),
    /// Answered by a resolution another job scheduled this batch.
    Pending(usize),
    /// This job resolves it (index into the resolution list).
    Fresh(usize),
}

/// One mismatching pair on a job's start-level frontier.
struct FrontierRef {
    /// Leftmost leaf slot under the node, in padded-leaf coordinates.
    first_leaf_slot: usize,
    source: RefSource,
}

/// One unique subtree pair to resolve with [`compare_subtree`].
struct Resolution {
    key: Option<SubtreeKey>,
    left: usize,
    right: usize,
    node: usize,
}

#[derive(Default)]
struct Stage1Plan {
    refs: Vec<FrontierRef>,
    frontier_width: u64,
    cache: CacheStats,
}

/// Where one flagged chunk's verdict comes from.
enum VerdictSource {
    /// Memoized in an earlier batch.
    Cached(ChunkVerdict),
    /// Produced by job `.0`'s fresh verification of chunk `.1`.
    Pending(usize, usize),
}

#[derive(Default)]
struct Stage2Plan {
    /// Full flagged chunk list (fresh + spliced), sorted.
    flagged: Vec<usize>,
    /// Chunks this job streams and verifies itself, sorted.
    fresh: Vec<usize>,
    /// Chunks answered from the cache or another job, in chunk order.
    splices: Vec<(usize, VerdictSource)>,
    /// Memoize this job's fresh verdicts (raw digests available).
    collect: bool,
    cache: CacheStats,
}

/// What one job's execute phase produced.
struct JobExec {
    outcome: VerifyOutcome,
    verdicts: HashMap<usize, ChunkVerdict>,
}

impl CompareEngine {
    /// Compares `runs` against a shared `baseline` as one scheduled
    /// batch. Pass the same [`MetaCache`] across batches (e.g. per
    /// history iteration) to carry memoized adjudications forward.
    /// Batch totals land in `ctx.obs.registry` under `stage1.*`,
    /// `stage2.*`, `io.*`, and `cache.*`.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`]; all sources must be mutually comparable.
    pub fn compare_many(
        &self,
        baseline: &CheckpointSource,
        runs: &[CheckpointSource],
        cfg: &BatchConfig,
        cache: &mut MetaCache,
        ctx: &Ctx,
    ) -> CoreResult<BatchReport> {
        let mut sources: Vec<&CheckpointSource> = Vec::with_capacity(runs.len() + 1);
        sources.push(baseline);
        sources.extend(runs.iter());
        let jobs: Vec<(usize, usize)> = (1..sources.len()).map(|r| (0, r)).collect();
        self.run_batch(&sources, &jobs, cfg, cache, ctx)
    }

    /// Compares every unordered pair among `runs` — the all-pairs
    /// triage mode for when no run is blessed as the baseline.
    ///
    /// # Errors
    ///
    /// Any [`CoreError`].
    pub fn compare_all_pairs(
        &self,
        runs: &[CheckpointSource],
        cfg: &BatchConfig,
        cache: &mut MetaCache,
        ctx: &Ctx,
    ) -> CoreResult<BatchReport> {
        let sources: Vec<&CheckpointSource> = runs.iter().collect();
        let mut jobs = Vec::new();
        for i in 0..sources.len() {
            for j in (i + 1)..sources.len() {
                jobs.push((i, j));
            }
        }
        self.run_batch(&sources, &jobs, cfg, cache, ctx)
    }

    /// The plan/execute/assemble core (see the module docs).
    fn run_batch(
        &self,
        sources: &[&CheckpointSource],
        jobs: &[(usize, usize)],
        cfg: &BatchConfig,
        cache: &mut MetaCache,
        ctx: &Ctx,
    ) -> CoreResult<BatchReport> {
        let Ctx { timeline, obs } = ctx;
        let t_start = timeline.now();
        if jobs.is_empty() {
            return Ok(BatchReport::default());
        }
        // Store-backed sources carry live read counters; jobs run in
        // parallel, so per-job attribution would race — the batch
        // reports one pooled delta instead.
        let store_before = batch_store_snapshot(sources);
        for &(l, r) in jobs {
            if l >= sources.len() || r >= sources.len() || l == r {
                return Err(CoreError::Config(format!(
                    "batch job ({l}, {r}) does not name two distinct sources (have {})",
                    sources.len()
                )));
            }
        }
        let chunk_bytes = self.config().chunk_bytes;

        // ---- Plan: decode every source's metadata exactly once -----
        let mut trees: Vec<MerkleTree> = Vec::with_capacity(sources.len());
        for (i, s) in sources.iter().enumerate() {
            if s.payload_len == 0 || !s.payload_len.is_multiple_of(4) {
                return Err(CoreError::Mismatch(format!(
                    "source {i}: payload length {} is not a positive multiple of 4",
                    s.payload_len
                )));
            }
            let label = format!("source {i}");
            let meta = read_fully(s.require_metadata(&label)?, self.config().io.queue_depth)?;
            let tree = decode_tree(&meta)?;
            self.validate_tree(&tree, s, &label)?;
            self.charge_compute(timeline, Workload::memory(meta.len() as u64));
            trees.push(tree);
        }
        for t in trees.iter().skip(1) {
            if !trees[0].comparable(t) {
                return Err(reprocmp_merkle::TreeCompareError::IncompatibleShape {
                    a: (
                        trees[0].leaf_count(),
                        trees[0].chunk_bytes(),
                        trees[0].data_len(),
                    ),
                    b: (t.leaf_count(), t.chunk_bytes(), t.data_len()),
                }
                .into());
            }
        }
        let decode_time = timeline.now() - t_start;

        if cfg.use_cache {
            cache.prepare(self.config().error_bound, chunk_bytes);
        }

        // ---- Plan: stage-1 frontier walk, all decisions serial -----
        let lanes = self
            .config()
            .lane_hint
            .unwrap_or_else(|| self.config().device.concurrent_kernel_threads())
            .max(1);
        let levels = trees[0].levels();
        let leaf_level = levels - 1;
        let start = start_level_for(levels, lanes);
        let height = u32::try_from(leaf_level - start).expect("tree height fits u32");
        let leaf_base = trees[0].leaf_base();
        let first_leaf_slot = |mut idx: usize| {
            while idx < leaf_base {
                idx = 2 * idx + 1;
            }
            idx - leaf_base
        };

        let mut s1_plans: Vec<Stage1Plan> = Vec::with_capacity(jobs.len());
        let mut resolutions: Vec<Resolution> = Vec::new();
        let mut pending_subtrees: HashMap<SubtreeKey, usize> = HashMap::new();
        for &(l, r) in jobs {
            let (ta, tb) = (&trees[l], &trees[r]);
            let mut plan = Stage1Plan::default();
            for idx in ta.level_range(start) {
                plan.frontier_width += 1;
                let (da, db) = (ta.node(idx), tb.node(idx));
                if da == db {
                    continue;
                }
                let source = if cfg.use_cache {
                    let key = SubtreeKey {
                        a: da,
                        b: db,
                        height,
                    };
                    if let Some(entry) = cache.subtree(&key) {
                        plan.cache.node_hits += 1;
                        emit_cache_event(obs, "subtree", true);
                        RefSource::Hit(entry)
                    } else if let Some(&ri) = pending_subtrees.get(&key) {
                        plan.cache.node_hits += 1;
                        emit_cache_event(obs, "subtree", true);
                        RefSource::Pending(ri)
                    } else {
                        plan.cache.node_misses += 1;
                        emit_cache_event(obs, "subtree", false);
                        let ri = resolutions.len();
                        resolutions.push(Resolution {
                            key: Some(key),
                            left: l,
                            right: r,
                            node: idx,
                        });
                        pending_subtrees.insert(key, ri);
                        RefSource::Fresh(ri)
                    }
                } else {
                    let ri = resolutions.len();
                    resolutions.push(Resolution {
                        key: None,
                        left: l,
                        right: r,
                        node: idx,
                    });
                    RefSource::Fresh(ri)
                };
                plan.refs.push(FrontierRef {
                    first_leaf_slot: first_leaf_slot(idx),
                    source,
                });
            }
            if cfg.use_cache && !plan.refs.is_empty() && plan.cache.node_misses == 0 {
                plan.cache.short_circuits = 1;
            }
            s1_plans.push(plan);
        }

        // ---- Execute: resolve unique subtrees across shard lanes ---
        let shards = cfg
            .shards
            .unwrap_or_else(|| self.config().device.lanes())
            .max(1);
        let shard_dev = if shards == 1 {
            Device::host_serial()
        } else {
            Device::host_parallel(shards)
        };
        let trees_ref = &trees;
        let res_ref = &resolutions;
        let outcomes: Vec<SubtreeOutcome> =
            shard_dev.parallel_map(resolutions.len(), Workload::new(0, 0), |i| {
                let res = &res_ref[i];
                compare_subtree(&trees_ref[res.left], &trees_ref[res.right], res.node)
            });
        let entries: Vec<Arc<SubtreeEntry>> = outcomes
            .into_iter()
            .map(|o| {
                Arc::new(SubtreeEntry {
                    rel_mismatched: o.rel_mismatched,
                    nodes_visited: o.nodes_visited as u64,
                })
            })
            .collect();
        if cfg.use_cache {
            for (res, entry) in resolutions.iter().zip(&entries) {
                if let Some(key) = res.key {
                    cache.insert_subtree(key, Arc::clone(entry));
                }
            }
        }

        // ---- Assemble stage 1: flagged lists + visit accounting ----
        let mut nodes_visited: Vec<u64> = Vec::with_capacity(jobs.len());
        for plan in &mut s1_plans {
            let mut nv = plan.frontier_width;
            for fref in &plan.refs {
                let entry: &SubtreeEntry = match &fref.source {
                    RefSource::Hit(e) => {
                        plan.cache.nodes_saved += e.nodes_visited;
                        e
                    }
                    RefSource::Pending(ri) => {
                        plan.cache.nodes_saved += entries[*ri].nodes_visited;
                        &entries[*ri]
                    }
                    RefSource::Fresh(ri) => {
                        nv += entries[*ri].nodes_visited;
                        &entries[*ri]
                    }
                };
                debug_assert!(!entry.rel_mismatched.is_empty());
            }
            nodes_visited.push(nv);
        }

        // ---- Plan stage 2: verdict lookups, all decisions serial ---
        let chunk_len = |s: &CheckpointSource, c: usize| {
            (s.payload_len - (c * chunk_bytes) as u64).min(chunk_bytes as u64)
        };
        fn raw_of(s: &CheckpointSource, chunk_bytes: usize) -> Option<&Arc<Vec<Digest128>>> {
            s.raw_leaves
                .as_ref()
                .filter(|v| v.len() as u64 == s.chunk_count(chunk_bytes))
        }
        let mut s2_plans: Vec<Stage2Plan> = Vec::with_capacity(jobs.len());
        let mut pending_verdicts: HashMap<(Digest128, Digest128), (usize, usize)> = HashMap::new();
        for (j, (&(l, r), plan)) in jobs.iter().zip(&s1_plans).enumerate() {
            let mut s2 = Stage2Plan::default();
            for fref in &plan.refs {
                let entry = match &fref.source {
                    RefSource::Hit(e) => e,
                    RefSource::Pending(ri) | RefSource::Fresh(ri) => &entries[*ri],
                };
                s2.flagged.extend(
                    entry
                        .rel_mismatched
                        .iter()
                        .map(|&rel| fref.first_leaf_slot + rel as usize),
                );
            }
            s2.flagged.sort_unstable();
            let raw = cfg
                .use_cache
                .then(|| raw_of(sources[l], chunk_bytes).zip(raw_of(sources[r], chunk_bytes)))
                .flatten();
            s2.collect = raw.is_some();
            match raw {
                Some((ra, rb)) => {
                    for &c in &s2.flagged {
                        let (ka, kb) = (ra[c], rb[c]);
                        if let Some(v) = cache.verdict(ka, kb) {
                            s2.cache.verdict_hits += 1;
                            emit_cache_event(obs, "verdict", true);
                            s2.cache.bytes_saved += chunk_len(sources[l], c);
                            s2.splices.push((c, VerdictSource::Cached(v)));
                        } else if let Some(&(pj, pc)) = pending_verdicts.get(&(ka, kb)) {
                            s2.cache.verdict_hits += 1;
                            emit_cache_event(obs, "verdict", true);
                            s2.cache.bytes_saved += chunk_len(sources[l], c);
                            s2.splices.push((c, VerdictSource::Pending(pj, pc)));
                        } else {
                            s2.cache.verdict_misses += 1;
                            emit_cache_event(obs, "verdict", false);
                            pending_verdicts.insert((ka, kb), (j, c));
                            s2.fresh.push(c);
                        }
                    }
                }
                None => s2.fresh.clone_from(&s2.flagged),
            }
            s2_plans.push(s2);
        }

        // ---- Execute: per-job stage-2 streaming across shard lanes -
        // Each job gets its own disabled Observer (live registry) so
        // concurrent jobs never interleave spans or share counters;
        // batch totals go into the real registry during assembly.
        let exec_slots: Mutex<Vec<Option<CoreResult<JobExec>>>> =
            Mutex::new((0..jobs.len()).map(|_| None).collect());
        let s2_ref = &s2_plans;
        shard_dev.parallel_for(jobs.len(), Workload::new(0, 0), |j| {
            let (l, r) = jobs[j];
            let job_obs = Observer::disabled();
            let mut verdicts: HashMap<usize, ChunkVerdict> = HashMap::new();
            let collect = s2_ref[j].collect;
            let result = self
                .verify_chunks(
                    sources[l],
                    sources[r],
                    &s2_ref[j].fresh,
                    timeline,
                    &job_obs,
                    |chunk, diffs| {
                        if collect {
                            verdicts.insert(chunk, Arc::new(diffs.to_vec()));
                        }
                    },
                )
                .map(|outcome| JobExec { outcome, verdicts });
            exec_slots.lock().expect("exec lock")[j] = Some(result);
        });
        let mut execs: Vec<JobExec> = Vec::with_capacity(jobs.len());
        for slot in exec_slots.into_inner().expect("exec lock") {
            execs.push(slot.expect("every job executed")?);
        }

        // Commit fresh verdicts for cross-batch reuse. Quarantined
        // chunks never reached the sink, so they are never memoized.
        if cfg.use_cache {
            for ((s2, exec), &(l, r)) in s2_plans.iter().zip(&execs).zip(jobs) {
                if !s2.collect {
                    continue;
                }
                let (ra, rb) = (
                    raw_of(sources[l], chunk_bytes).expect("collect implies raw"),
                    raw_of(sources[r], chunk_bytes).expect("collect implies raw"),
                );
                for &c in &s2.fresh {
                    if let Some(v) = exec.verdicts.get(&c) {
                        cache.insert_verdict(ra[c], rb[c], Arc::clone(v));
                    }
                }
            }
        }

        // ---- Assemble: splice caches into per-job reports ----------
        let values_per_chunk = chunk_bytes / 4;
        let cap = self.config().max_recorded_diffs;
        let mut job_reports: Vec<BatchJobReport> = Vec::with_capacity(jobs.len());
        let mut batch_cache = CacheStats::default();
        for (j, &(l, r)) in jobs.iter().enumerate() {
            let s2 = &s2_plans[j];
            let vo = &execs[j].outcome;
            let mut jc = s1_plans[j].cache.merged(s2.cache);

            let mut spliced: Vec<Difference> = Vec::new();
            let mut spliced_count = 0u64;
            let mut spliced_clean = 0u64;
            let mut extra_unverified: Vec<ChunkRange> = Vec::new();
            for (c, vsource) in &s2.splices {
                let verdict = match vsource {
                    VerdictSource::Cached(v) => Some(v),
                    VerdictSource::Pending(pj, pc) => execs[*pj].verdicts.get(pc),
                };
                match verdict {
                    Some(v) => {
                        spliced_count += v.len() as u64;
                        if v.is_empty() {
                            spliced_clean += 1;
                        }
                        for &(rel, va, vb) in v.iter() {
                            spliced.push(Difference {
                                index: (c * values_per_chunk + rel as usize) as u64,
                                a: va,
                                b: vb,
                            });
                        }
                    }
                    None => {
                        // The resolving job quarantined this chunk, so
                        // nothing was saved after all: undo the hit and
                        // report the chunk unverified.
                        extra_unverified.push(ChunkRange {
                            first: *c as u64,
                            count: 1,
                        });
                        jc.verdict_hits -= 1;
                        jc.bytes_saved -= chunk_len(sources[l], *c);
                    }
                }
            }

            let (differences, truncated) =
                merge_capped(vo.differences.clone(), spliced, cap, vo.truncated);
            let mut unverified = vo.unverified.clone();
            unverified.extend(extra_unverified);
            unverified.sort_unstable_by_key(|rng| rng.first);
            let unverified = merge_ranges(unverified);

            let nv = nodes_visited[j];
            let breakdown = CostBreakdown {
                compare_tree: self.charge_compute(timeline, Workload::new(nv * 32, nv)),
                compare_direct: vo.verify_time,
                ..CostBreakdown::default()
            };

            let bytes_reread = vo.stats.bytes_reread;
            let mut stages = sources[l].capture.merged(sources[r].capture);
            stages.bfs = PhaseCost::new(breakdown.compare_tree, nv * 32, nv);
            stages.verify = PhaseCost::new(vo.verify_time, bytes_reread * 2, bytes_reread / 4);
            stages.stage2_stream =
                PhaseCost::new(Duration::ZERO, bytes_reread * 2, vo.io.submitted);

            let stats = DataStats {
                total_values: sources[l].value_count(),
                total_bytes: sources[l].payload_len,
                chunks_total: sources[l].chunk_count(chunk_bytes),
                chunks_flagged: s2.flagged.len() as u64,
                bytes_reread,
                false_positive_chunks: vo.stats.false_positive_chunks + spliced_clean,
                diff_count: vo.stats.diff_count + spliced_count,
            };

            batch_cache = batch_cache.merged(jc);
            let (capture, chain) = crate::engine::chain_provenance(sources[l], sources[r]);
            stages.delta_capture = PhaseCost::new(
                Duration::ZERO,
                capture.bytes_skipped,
                capture.chunks_skipped,
            );
            job_reports.push(BatchJobReport {
                left: l,
                right: r,
                report: CompareReport {
                    breakdown,
                    stages,
                    stats,
                    differences,
                    differences_truncated: truncated,
                    io: vo.io,
                    unverified,
                    cache: jc,
                    store: StoreReadStats::default(),
                    capture,
                    chain,
                },
            });
        }

        // ---- Batch totals into the live registry -------------------
        let total = |f: &dyn Fn(&BatchJobReport) -> u64| -> u64 { job_reports.iter().map(f).sum() };
        let reg = &obs.registry;
        reg.counter("stage1.nodes_visited")
            .add(total(&|j| j.report.stages.bfs.ops));
        reg.counter("stage1.chunks_flagged")
            .add(total(&|j| j.report.stats.chunks_flagged));
        reg.counter("stage2.bytes_reread")
            .add(total(&|j| j.report.stats.bytes_reread));
        reg.counter("compare.diff_values")
            .add(total(&|j| j.report.stats.diff_count));
        reg.counter("io.submitted")
            .add(total(&|j| j.report.io.submitted));
        reg.counter("io.completed")
            .add(total(&|j| j.report.io.completed));
        reg.counter("io.retried")
            .add(total(&|j| j.report.io.retried));
        reg.counter("io.gave_up")
            .add(total(&|j| j.report.io.gave_up));
        reg.counter("cache.node_hits").add(batch_cache.node_hits);
        reg.counter("cache.node_misses")
            .add(batch_cache.node_misses);
        reg.counter("cache.verdict_hits")
            .add(batch_cache.verdict_hits);
        reg.counter("cache.verdict_misses")
            .add(batch_cache.verdict_misses);
        reg.counter("cache.short_circuits")
            .add(batch_cache.short_circuits);
        reg.counter("cache.nodes_saved")
            .add(batch_cache.nodes_saved);
        reg.counter("cache.bytes_saved")
            .add(batch_cache.bytes_saved);

        Ok(BatchReport {
            jobs: job_reports,
            cache: batch_cache,
            store: batch_store_snapshot(sources).delta_since(store_before),
            trees_decoded: sources.len() as u64,
            decode_time,
            elapsed: timeline.now() - t_start,
        })
    }
}

/// One `cache_hit`/`cache_miss` flight-recorder event on the `cache`
/// lane; a single branch when journaling is off.
fn emit_cache_event(obs: &Observer, what: &str, hit: bool) {
    let journal = obs.journal();
    if journal.is_enabled() {
        let kind = if hit {
            EventKind::CacheHit {
                what: what.to_string(),
            }
        } else {
            EventKind::CacheMiss {
                what: what.to_string(),
            }
        };
        journal.emit("cache", kind);
    }
}

/// Sum of every source's store-read counters at this instant
/// (all-zero when no source is store-backed).
fn batch_store_snapshot(sources: &[&CheckpointSource]) -> StoreReadStats {
    sources
        .iter()
        .filter_map(|s| s.store_reads.as_ref())
        .map(reprocmp_obs::StoreReadCounters::snapshot)
        .fold(StoreReadStats::default(), StoreReadStats::merged)
}

/// Merges two sorted difference lists under the recording cap.
fn merge_capped(
    fresh: Vec<Difference>,
    spliced: Vec<Difference>,
    cap: usize,
    already_truncated: bool,
) -> (Vec<Difference>, bool) {
    if spliced.is_empty() {
        return (fresh, already_truncated);
    }
    let overflow = fresh.len() + spliced.len() > cap;
    let mut out = Vec::with_capacity((fresh.len() + spliced.len()).min(cap));
    let (mut fi, mut si) = (fresh.into_iter().peekable(), spliced.into_iter().peekable());
    while out.len() < cap {
        match (fi.peek(), si.peek()) {
            (Some(f), Some(s)) => {
                if f.index <= s.index {
                    out.push(fi.next().expect("peeked"));
                } else {
                    out.push(si.next().expect("peeked"));
                }
            }
            (Some(_), None) => out.push(fi.next().expect("peeked")),
            (None, Some(_)) => out.push(si.next().expect("peeked")),
            (None, None) => break,
        }
    }
    (out, already_truncated || overflow)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use reprocmp_io::{CostModel, SimClock, Timeline};

    fn engine(chunk_bytes: usize, bound: f64) -> CompareEngine {
        CompareEngine::new(EngineConfig {
            chunk_bytes,
            error_bound: bound,
            // Start the BFS mid-tree so subtree adjudications have
            // interior nodes to save; the default simulated-GPU lane
            // hint would clamp the start level to the leaves for trees
            // this small.
            lane_hint: Some(8),
            ..EngineConfig::default()
        })
    }

    fn wave(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.013).sin() * 4.0).collect()
    }

    /// Baseline plus N runs that share their deviation: runs all carry
    /// the same perturbation in the first half, plus one unique value
    /// each.
    fn shared_deviation_runs(
        e: &CompareEngine,
        n_runs: usize,
        n_values: usize,
    ) -> (CheckpointSource, Vec<CheckpointSource>) {
        let base = wave(n_values);
        let baseline = CheckpointSource::in_memory(&base, e).unwrap();
        let mut shared = base.clone();
        for v in shared.iter_mut().take(n_values / 2).step_by(97) {
            *v += 0.25;
        }
        let runs = (0..n_runs)
            .map(|k| {
                let mut data = shared.clone();
                data[n_values - 1 - k * 31] += 0.5; // unique per run
                CheckpointSource::in_memory(&data, e).unwrap()
            })
            .collect();
        (baseline, runs)
    }

    fn pairwise_reports(
        e: &CompareEngine,
        baseline: &CheckpointSource,
        runs: &[CheckpointSource],
    ) -> Vec<CompareReport> {
        runs.iter()
            .map(|r| e.compare(baseline, r, &Ctx::default()).unwrap())
            .collect()
    }

    #[test]
    fn batch_reports_match_pairwise_results() {
        let e = engine(64, 1e-5);
        let (baseline, runs) = shared_deviation_runs(&e, 4, 6000);
        let batch = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        let pairwise = pairwise_reports(&e, &baseline, &runs);
        assert_eq!(batch.jobs.len(), 4);
        for (job, pw) in batch.jobs.iter().zip(&pairwise) {
            assert_eq!(job.left, 0);
            assert_eq!(job.report.stats.diff_count, pw.stats.diff_count);
            assert_eq!(job.report.stats.chunks_flagged, pw.stats.chunks_flagged);
            assert_eq!(
                job.report.stats.false_positive_chunks,
                pw.stats.false_positive_chunks
            );
            let bi: Vec<u64> = job.report.differences.iter().map(|d| d.index).collect();
            let pi: Vec<u64> = pw.differences.iter().map(|d| d.index).collect();
            assert_eq!(bi, pi);
            assert!(job.report.fully_verified());
        }
        assert_eq!(batch.trees_decoded, 5);
    }

    #[test]
    fn cache_disabled_matches_cache_enabled_results() {
        let e = engine(64, 1e-5);
        let (baseline, runs) = shared_deviation_runs(&e, 3, 4000);
        let on = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        let off = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig {
                    use_cache: false,
                    ..BatchConfig::default()
                },
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        assert!(off.cache.is_zero(), "cache off reports a zero ledger");
        for (a, b) in on.jobs.iter().zip(&off.jobs) {
            assert_eq!(a.report.stats.diff_count, b.report.stats.diff_count);
            assert_eq!(a.report.stats.chunks_flagged, b.report.stats.chunks_flagged);
            let ai: Vec<u64> = a.report.differences.iter().map(|d| d.index).collect();
            let bi: Vec<u64> = b.report.differences.iter().map(|d| d.index).collect();
            assert_eq!(ai, bi);
        }
    }

    #[test]
    fn per_job_visits_plus_saved_equals_uncached_visits() {
        let e = engine(64, 1e-5);
        let (baseline, runs) = shared_deviation_runs(&e, 4, 6000);
        let on = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        let off = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig {
                    use_cache: false,
                    ..BatchConfig::default()
                },
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        for (a, b) in on.jobs.iter().zip(&off.jobs) {
            assert_eq!(
                a.report.stages.bfs.ops + a.report.cache.nodes_saved,
                b.report.stages.bfs.ops,
                "cached visits + saved == uncached visits"
            );
        }
    }

    #[test]
    fn shared_deviations_are_resolved_once() {
        let e = engine(64, 1e-5);
        let (baseline, runs) = shared_deviation_runs(&e, 4, 6000);
        let batch = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        assert!(batch.cache.node_hits > 0, "{:?}", batch.cache);
        assert!(batch.cache.verdict_hits > 0, "{:?}", batch.cache);
        assert!(batch.cache.nodes_saved > 0);
        assert!(batch.cache.bytes_saved > 0);
        // Job 0 resolves the shared deviation; later jobs mostly hit.
        assert!(batch.jobs[0].report.cache.node_hits == 0);
        assert!(batch.jobs[1].report.cache.node_hits > 0);
    }

    #[test]
    fn identical_runs_short_circuit_after_first_job() {
        let e = engine(64, 1e-5);
        let base = wave(4000);
        let mut dev = base.clone();
        dev[100] += 1.0;
        let baseline = CheckpointSource::in_memory(&base, &e).unwrap();
        let runs: Vec<_> = (0..3)
            .map(|_| CheckpointSource::in_memory(&dev, &e).unwrap())
            .collect();
        let batch = e
            .compare_many(
                &baseline,
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        // Jobs 1 and 2 are digest-identical to job 0: every mismatching
        // frontier pair is a hit.
        assert_eq!(batch.cache.short_circuits, 2);
        assert_eq!(batch.jobs[1].report.cache.short_circuits, 1);
        assert_eq!(batch.jobs[1].report.stats.bytes_reread, 0);
        assert_eq!(batch.jobs[1].report.stats.diff_count, 1);
    }

    #[test]
    fn cross_batch_cache_reuse() {
        let e = engine(64, 1e-5);
        let (baseline, runs) = shared_deviation_runs(&e, 2, 4000);
        let mut cache = MetaCache::new();
        let cfg = BatchConfig::default();
        let ctx = Ctx::default();
        let first = e
            .compare_many(&baseline, &runs, &cfg, &mut cache, &ctx)
            .unwrap();
        assert!(first.cache.node_misses > 0);
        // Second batch over the same sources: everything hits.
        let second = e
            .compare_many(&baseline, &runs, &cfg, &mut cache, &ctx)
            .unwrap();
        assert_eq!(second.cache.node_misses, 0);
        assert_eq!(second.cache.verdict_misses, 0);
        assert_eq!(second.total_bytes_reread(), 0);
        assert_eq!(
            second.jobs[0].report.stats.diff_count,
            first.jobs[0].report.stats.diff_count
        );
        let si: Vec<u64> = second.jobs[0]
            .report
            .differences
            .iter()
            .map(|d| d.index)
            .collect();
        let fi: Vec<u64> = first.jobs[0]
            .report
            .differences
            .iter()
            .map(|d| d.index)
            .collect();
        assert_eq!(si, fi);
    }

    #[test]
    fn epsilon_change_invalidates_across_batches() {
        let data = wave(4000);
        let mut dev = data.clone();
        dev[7] += 0.3;
        let mut cache = MetaCache::new();
        let cfg = BatchConfig::default();
        let ctx = Ctx::default();
        let run = |bound: f64, cache: &mut MetaCache| {
            let e = engine(64, bound);
            let baseline = CheckpointSource::in_memory(&data, &e).unwrap();
            let runs = vec![CheckpointSource::in_memory(&dev, &e).unwrap()];
            e.compare_many(&baseline, &runs, &cfg, cache, &ctx).unwrap()
        };
        let first = run(1e-5, &mut cache);
        assert!(first.cache.node_misses > 0);
        // Same ε again: served from cache.
        assert_eq!(run(1e-5, &mut cache).cache.node_misses, 0);
        // New ε: the cache must start over, not serve stale verdicts.
        let changed = run(1e-3, &mut cache);
        assert_eq!(changed.cache.node_hits, 0);
        assert_eq!(changed.cache.verdict_hits, 0);
        // And the old ε re-misses too (single-epoch cache).
        assert!(run(1e-5, &mut cache).cache.node_misses > 0);
    }

    #[test]
    fn all_pairs_covers_every_unordered_pair() {
        let e = engine(64, 1e-5);
        let (_, runs) = shared_deviation_runs(&e, 4, 3000);
        let batch = e
            .compare_all_pairs(
                &runs,
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        let pairs: Vec<(usize, usize)> = batch.jobs.iter().map(|j| (j.left, j.right)).collect();
        assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        // Runs differ only in their unique value: each pair has diffs.
        for job in &batch.jobs {
            assert!(job.report.stats.diff_count > 0);
        }
    }

    #[test]
    fn empty_and_trivial_batches() {
        let e = engine(64, 1e-5);
        let base = wave(100);
        let baseline = CheckpointSource::in_memory(&base, &e).unwrap();
        let batch = e
            .compare_many(
                &baseline,
                &[],
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        assert!(batch.jobs.is_empty());
        assert!(batch.identical());
        let one = e.compare_all_pairs(
            std::slice::from_ref(&baseline),
            &BatchConfig::default(),
            &mut MetaCache::new(),
            &Ctx::default(),
        );
        assert!(one.unwrap().jobs.is_empty());
    }

    #[test]
    fn incomparable_sources_rejected() {
        let e = engine(64, 1e-5);
        let baseline = CheckpointSource::in_memory(&wave(1000), &e).unwrap();
        let short = CheckpointSource::in_memory(&wave(500), &e).unwrap();
        assert!(matches!(
            e.compare_many(
                &baseline,
                &[short],
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default()
            ),
            Err(CoreError::Incomparable(_))
        ));
    }

    #[test]
    fn shard_counts_do_not_change_reports() {
        let e = engine(64, 1e-5);
        let data = wave(8000);
        let run_with = |shards: usize| {
            let clock = SimClock::new();
            let model = CostModel::lustre_pfs();
            let baseline =
                CheckpointSource::in_memory_with_model(&data, &e, model, Some(clock.clone()))
                    .unwrap();
            let runs: Vec<_> = (0..3)
                .map(|k| {
                    let mut d = data.clone();
                    for v in d.iter_mut().skip(k * 11).step_by(301) {
                        *v += 0.2;
                    }
                    CheckpointSource::in_memory_with_model(&d, &e, model, Some(clock.clone()))
                        .unwrap()
                })
                .collect();
            e.compare_many(
                &baseline,
                &runs,
                &BatchConfig {
                    shards: Some(shards),
                    ..BatchConfig::default()
                },
                &mut MetaCache::new(),
                &Ctx {
                    timeline: Timeline::sim(clock),
                    ..Ctx::default()
                },
            )
            .unwrap()
        };
        let serial = run_with(1);
        for shards in [2, 8, 17] {
            let sharded = run_with(shards);
            assert_eq!(serial.jobs.len(), sharded.jobs.len());
            for (a, b) in serial.jobs.iter().zip(&sharded.jobs) {
                assert_eq!(a.report.stats, b.report.stats, "shards={shards}");
                assert_eq!(a.report.cache, b.report.cache, "shards={shards}");
                assert_eq!(a.report.breakdown, b.report.breakdown, "shards={shards}");
                assert_eq!(a.report.stages, b.report.stages, "shards={shards}");
                let ai: Vec<u64> = a.report.differences.iter().map(|d| d.index).collect();
                let bi: Vec<u64> = b.report.differences.iter().map(|d| d.index).collect();
                assert_eq!(ai, bi, "shards={shards}");
            }
            assert_eq!(serial.cache, sharded.cache, "shards={shards}");
        }
    }

    #[test]
    fn quarantined_resolver_chunk_leaves_reusers_unverified() {
        use reprocmp_io::{FaultPlan, FaultyStorage};
        let e = CompareEngine::new(EngineConfig {
            chunk_bytes: 256,
            error_bound: 1e-5,
            failure_policy: crate::engine::FailurePolicy::Quarantine,
            ..EngineConfig::default()
        });
        let data = wave(10_000);
        let mut dev = data.clone();
        dev[10] += 1.0; // chunk 0 — unreadable on run 1
        let baseline = CheckpointSource::in_memory(&data, &e).unwrap();
        let mut run1 = CheckpointSource::in_memory(&dev, &e).unwrap();
        run1.data = Arc::new(FaultyStorage::new(
            Arc::clone(&run1.data),
            FaultPlan::Range {
                start: run1.payload_offset,
                end: run1.payload_offset + 256,
            },
        ));
        // run 2 is byte-identical to run 1 but perfectly readable; its
        // verdict lookup lands on run 1's pending (quarantined) chunk.
        let run2 = CheckpointSource::in_memory(&dev, &e).unwrap();
        let batch = e
            .compare_many(
                &baseline,
                &[run1, run2],
                &BatchConfig::default(),
                &mut MetaCache::new(),
                &Ctx::default(),
            )
            .unwrap();
        assert_eq!(
            batch.jobs[0].report.unverified,
            vec![ChunkRange { first: 0, count: 1 }]
        );
        // The reuser could not splice a verdict that never materialized.
        assert_eq!(
            batch.jobs[1].report.unverified,
            vec![ChunkRange { first: 0, count: 1 }]
        );
        assert_eq!(batch.jobs[1].report.cache.verdict_hits, 0);
    }

    #[test]
    fn merge_capped_caps_and_orders() {
        let d = |i: u64| Difference {
            index: i,
            a: 0.0,
            b: 1.0,
        };
        let (m, t) = merge_capped(vec![d(1), d(5)], vec![d(2), d(9)], 10, false);
        assert_eq!(m.iter().map(|x| x.index).collect::<Vec<_>>(), [1, 2, 5, 9]);
        assert!(!t);
        let (m, t) = merge_capped(vec![d(1), d(5)], vec![d(2), d(9)], 3, false);
        assert_eq!(m.iter().map(|x| x.index).collect::<Vec<_>>(), [1, 2, 5]);
        assert!(t);
        let (m, t) = merge_capped(vec![d(4)], vec![], 1, true);
        assert_eq!(m.len(), 1);
        assert!(t);
    }
}
