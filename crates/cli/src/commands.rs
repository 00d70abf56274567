//! Command implementations.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use reprocmp_core::ops::{self, Image, ObjectRef, OpError};
use reprocmp_core::{CompareEngine, Ctx, EngineConfig, MetaCache};
use reprocmp_hacc::{HaccConfig, OrderPolicy, Simulation, SlabDecomposition};
use reprocmp_store::{ChunkStore, DeltaPolicy, StoreError};
use reprocmp_veloc::{decode_checkpoint, Client, VelocConfig};

use crate::args::ArgMap;
use crate::CliError;

fn fail(e: impl std::fmt::Display) -> CliError {
    CliError::Failed(e.to_string())
}

impl From<OpError> for CliError {
    fn from(e: OpError) -> Self {
        match e {
            OpError::Usage(what) => CliError::Usage(what),
            other => fail(other),
        }
    }
}

fn engine_from(map: &ArgMap) -> Result<CompareEngine, CliError> {
    let chunk_bytes = map.parsed_or("chunk-bytes", 4096usize)?;
    let error_bound = map.parsed_or("error-bound", 1e-5f64)?;
    let failure_policy = match map.optional("failure-policy") {
        None | Some("abort") => reprocmp_core::FailurePolicy::Abort,
        Some("quarantine") => reprocmp_core::FailurePolicy::Quarantine,
        Some(other) => {
            return Err(fail(format!(
                "--failure-policy must be 'abort' or 'quarantine', got '{other}'"
            )))
        }
    };
    let io = reprocmp_io::PipelineConfig {
        retry: reprocmp_io::RetryPolicy::try_with_attempts(map.parsed_or("retry-attempts", 1u32)?)
            .map_err(|e| CliError::Usage(format!("--retry-attempts: {e}")))?,
        ..reprocmp_io::PipelineConfig::default()
    };
    // --lanes caps the BFS start level: fewer lanes start the pruning
    // walk higher in the tree, which is what lets the batch scheduler's
    // subtree cache pay off on small files.
    let lane_hint = match map.optional("lanes") {
        None => None,
        Some(_) => Some(map.parsed_or("lanes", 0usize)?),
    };
    CompareEngine::try_new(EngineConfig {
        chunk_bytes,
        error_bound,
        failure_policy,
        io,
        lane_hint,
        ..EngineConfig::default()
    })
    .map_err(fail)
}

/// `create-tree`: write Merkle metadata for a checkpoint file.
pub fn create_tree(map: &ArgMap) -> Result<String, CliError> {
    let input = PathBuf::from(map.required("input")?);
    let output = PathBuf::from(map.required("output")?);
    let engine = engine_from(map)?;

    let bytes = std::fs::read(&input).map_err(fail)?;
    let image = Image::parse(&bytes).map_err(|e| e.at(&input))?;
    let encoded = image.metadata(&engine).map_err(|e| e.at(&input))?;
    let n_values = image.payload().len() / 4;
    std::fs::write(&output, &encoded).map_err(fail)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "wrote {} ({} bytes of metadata)",
        output.display(),
        encoded.len()
    );
    let _ = writeln!(
        out,
        "payload: {} values, chunk {} B, bound {:e}, metadata/data ratio {:.4}",
        n_values,
        engine.config().chunk_bytes,
        engine.config().error_bound,
        encoded.len() as f64 / (n_values * 4) as f64,
    );
    Ok(out)
}

/// The `--json` report object: the serialized [`CompareReport`] plus
/// additive `"histograms"` (quantiles, sums, and log2 bucket arrays)
/// and `"gauges"` keys from the registry.
fn report_with_histograms(
    report: &reprocmp_core::CompareReport,
    obs: &reprocmp_obs::Observer,
) -> serde::Value {
    use serde::Serialize as _;
    let baseline =
        reprocmp_obs::ProfileBaseline::from_registry(report.stages, &obs.registry.snapshot());
    let mut value = report.to_value();
    if let serde::Value::Object(fields) = &mut value {
        fields.push(("histograms".to_owned(), baseline.histograms.to_value()));
        fields.push(("gauges".to_owned(), baseline.gauges.to_value()));
    }
    value
}

/// `compare`: compare two checkpoint files, or — with `--store D` —
/// two `name@version` objects served straight out of the capture store.
pub fn compare(map: &ArgMap) -> Result<String, CliError> {
    let run1 = map.required("run1")?.to_owned();
    let run2 = map.required("run2")?.to_owned();
    let max_diffs = map.parsed_or("max-diffs", 20usize)?;
    let engine = engine_from(map)?;

    let (a, b) = match map.optional("store") {
        Some(root) => {
            if map.optional("tree1").is_some() || map.optional("tree2").is_some() {
                return Err(CliError::Usage(
                    "--tree1/--tree2 do not apply with --store: metadata comes from \
                     the store's manifests"
                        .to_owned(),
                ));
            }
            let store = ChunkStore::open(Path::new(root)).map_err(fail)?;
            let (r1, r2) = (ops::resolve(&store, &run1)?, ops::resolve(&store, &run2)?);
            (
                ops::open_stored(&store, &r1, &engine)?,
                ops::open_stored(&store, &r2, &engine)?,
            )
        }
        None => {
            let tree = |flag| map.optional(flag).map(Path::new);
            (
                ops::open_file(Path::new(&run1), tree("tree1"))?,
                ops::open_file(Path::new(&run2), tree("tree2"))?,
            )
        }
    };
    // Run 1's layout names the regions differences are attributed to
    // (the paper's "which variables were affected").
    let region_map = a.region_map();
    let (a, b) = (a.source, b.source);
    let without_metadata = a.metadata.is_none() || b.metadata.is_none();
    // Flight recorder: `--trace`/`--flamegraph` turn on the event
    // journal for this comparison; otherwise the observer carries
    // spans/metrics only (journal disabled, one-branch cost).
    let timeline = reprocmp_io::Timeline::wall();
    let trace_out = map.optional("trace").map(PathBuf::from);
    let flame_out = map.optional("flamegraph").map(PathBuf::from);
    let ctx = Ctx {
        obs: if trace_out.is_some() || flame_out.is_some() {
            reprocmp_obs::Observer::with_journal(timeline.obs_clock())
        } else {
            timeline.observer()
        },
        timeline,
    };
    let report = engine.compare(&a, &b, &ctx).map_err(fail)?;
    let obs = &ctx.obs;

    let mut exports = String::new();
    if let Some(path) = &trace_out {
        let trace = reprocmp_obs::chrome_trace(
            &obs.tracer.records(),
            &obs.journal().events(),
            &obs.journal().ledger(),
        );
        std::fs::write(path, &trace).map_err(fail)?;
        let ledger = obs.journal().ledger();
        let _ = writeln!(
            exports,
            "wrote {} ({} events emitted, {} written, {} dropped)",
            path.display(),
            ledger.events_emitted,
            ledger.events_written,
            ledger.events_dropped
        );
    }
    if let Some(path) = &flame_out {
        std::fs::write(path, reprocmp_obs::folded_stacks(&obs.tracer.records())).map_err(fail)?;
        let _ = writeln!(exports, "wrote {}", path.display());
    }

    // --strict: degraded results are failures. A comparison that
    // completed but could not verify every chunk (quarantined packs,
    // unreadable ranges) exits non-zero so CI never mistakes a
    // partial verdict for a full one.
    let strict_violation = map.flag("strict") && !report.fully_verified();

    // --json: the full machine-readable report (including the stage
    // profile, I/O counters, and registry histogram quantiles) instead
    // of the human rendering.
    if map.flag("json") {
        let mut s =
            serde_json::to_string_pretty(&report_with_histograms(&report, obs)).map_err(fail)?;
        s.push('\n');
        if strict_violation {
            return Err(CliError::Failed(s));
        }
        return Ok(s);
    }

    let mut out = String::new();
    out.push_str(&exports);
    let _ = writeln!(
        out,
        "compared {run1} vs {run2} ({} values, bound {:e}, chunk {} B)",
        report.stats.total_values,
        engine.config().error_bound,
        engine.config().chunk_bytes,
    );
    let _ = if without_metadata {
        writeln!(
            out,
            "no ε-metadata: all {} chunks verified",
            report.stats.chunks_total
        )
    } else {
        writeln!(
            out,
            "chunks: {} total, {} flagged, {} false positives; {} bytes re-read",
            report.stats.chunks_total,
            report.stats.chunks_flagged,
            report.stats.false_positive_chunks,
            report.stats.bytes_reread,
        )
    };
    let _ = writeln!(
        out,
        "io: {} ops submitted, {} completed, {} retried, {} gave up",
        report.io.submitted, report.io.completed, report.io.retried, report.io.gave_up,
    );
    if !report.store.is_zero() {
        let _ = writeln!(
            out,
            "store: {} chunk reads, {} bytes served, {} bytes from shared chunks",
            report.store.chunk_reads, report.store.bytes_read, report.store.bytes_deduped,
        );
    }
    if map.flag("profile") {
        let _ = writeln!(out, "stage profile:");
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>14} {:>12}",
            "phase", "time", "bytes", "ops"
        );
        for (name, c) in report.stages.phases() {
            let _ = writeln!(
                out,
                "  {:<14} {:>12} {:>14} {:>12}",
                name,
                format!("{:.3?}", c.time),
                c.bytes,
                c.ops
            );
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>12} {:>14}",
            "total",
            format!("{:.3?}", report.stages.total_time()),
            report.stages.total_bytes()
        );
        let quantiles =
            reprocmp_obs::ProfileBaseline::from_registry(report.stages, &obs.registry.snapshot())
                .histograms;
        if !quantiles.is_empty() {
            let _ = writeln!(out, "latency quantiles:");
            let _ = writeln!(
                out,
                "  {:<26} {:>8} {:>10} {:>10} {:>10}",
                "histogram", "count", "p50", "p95", "p99"
            );
            for q in &quantiles {
                let _ = writeln!(
                    out,
                    "  {:<26} {:>8} {:>10} {:>10} {:>10}",
                    q.name, q.count, q.p50, q.p95, q.p99
                );
            }
        }
    }
    if !report.fully_verified() {
        let _ = writeln!(
            out,
            "WARNING: {} chunk(s) in {} range(s) could not be read and were quarantined; \
             the verdict below covers only the verified data",
            report.unverified_chunks(),
            report.unverified.len(),
        );
        for r in &report.unverified {
            let _ = writeln!(
                out,
                "  unverified chunks {}..{}",
                r.first,
                r.first + r.count
            );
        }
    }
    if report.identical() {
        let _ = writeln!(out, "RESULT: runs agree within the bound");
    } else {
        let _ = writeln!(
            out,
            "RESULT: {} values differ beyond the bound",
            report.stats.diff_count
        );
        match &region_map {
            Some(rm) => {
                for loc in rm.annotate(&report.differences).iter().take(max_diffs) {
                    let _ = writeln!(out, "  {loc}");
                }
                let _ = writeln!(out, "  per field:");
                for (name, count) in rm.diffs_per_region(&report.differences) {
                    if count > 0 {
                        let _ = writeln!(out, "    {name:<6} {count}");
                    }
                }
            }
            None => {
                for d in report.differences.iter().take(max_diffs) {
                    let _ = writeln!(
                        out,
                        "  [{}] {} vs {} (|Δ| = {:e})",
                        d.index,
                        d.a,
                        d.b,
                        (f64::from(d.a) - f64::from(d.b)).abs()
                    );
                }
            }
        }
        if report.stats.diff_count as usize > max_diffs {
            let _ = writeln!(
                out,
                "  … and {} more",
                report.stats.diff_count as usize - max_diffs
            );
        }
    }
    if strict_violation {
        let _ = writeln!(
            out,
            "STRICT: failing — {} chunk(s) were not verified",
            report.unverified_chunks()
        );
        return Err(CliError::Failed(out));
    }
    Ok(out)
}

/// `compare-many`: batch-compare N runs against a baseline (or all
/// pairs with `--all-pairs`) through the multi-run scheduler and its
/// content-addressed metadata cache.
pub fn compare_many(map: &ArgMap) -> Result<String, CliError> {
    use reprocmp_core::BatchConfig;

    let engine = engine_from(map)?;
    let runs_raw = map.required("runs")?;
    let run_specs: Vec<String> = runs_raw
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::to_owned)
        .collect();
    if run_specs.is_empty() {
        return Err(CliError::Usage(
            "--runs needs a comma-separated list of checkpoint files".to_owned(),
        ));
    }
    let all_pairs = map.flag("all-pairs");
    let baseline_spec = match (map.optional("baseline"), all_pairs) {
        (Some(p), false) => Some(p.to_owned()),
        (None, true) => None,
        (Some(_), true) => {
            return Err(CliError::Usage(
                "--baseline and --all-pairs are mutually exclusive".to_owned(),
            ))
        }
        (None, false) => {
            return Err(CliError::Usage(
                "compare-many needs --baseline F or --all-pairs".to_owned(),
            ))
        }
    };
    let cfg = BatchConfig {
        use_cache: !map.flag("no-cache"),
        shards: match map.optional("shards") {
            None => None,
            Some(_) => Some(map.parsed_or("shards", 0usize)?),
        },
    };

    // With --store, run specs are `name@version` objects resolved out
    // of the capture store; stage-2 reads stream through the pack
    // index. Otherwise payloads are loaded into memory so raw-content
    // digests exist and the stage-2 verdict cache can engage
    // (file-backed sources expose only their ε-quantized metadata,
    // which is unsound to verdict on). Store-backed sources carry
    // manifest digests, so the cache engages there too.
    let store = match map.optional("store") {
        Some(root) => Some(ChunkStore::open(Path::new(root)).map_err(fail)?),
        None => None,
    };
    let runs = run_specs
        .iter()
        .map(|spec| ops::open_run(store.as_ref(), spec, &engine).map(|o| o.source))
        .collect::<Result<Vec<_>, _>>()?;

    // Source-index -> display name, matching the report's indices.
    let mut names: Vec<String> = Vec::new();
    let batch = match &baseline_spec {
        Some(bp) => {
            let baseline = ops::open_run(store.as_ref(), bp, &engine)?.source;
            names.push(bp.clone());
            names.extend(run_specs.iter().cloned());
            engine
                .compare_many(
                    &baseline,
                    &runs,
                    &cfg,
                    &mut MetaCache::new(),
                    &Ctx::default(),
                )
                .map_err(fail)?
        }
        None => {
            names.extend(run_specs.iter().cloned());
            engine
                .compare_all_pairs(&runs, &cfg, &mut MetaCache::new(), &Ctx::default())
                .map_err(fail)?
        }
    };

    let batch_unverified: u64 = batch
        .jobs
        .iter()
        .map(|j| j.report.unverified_chunks())
        .sum();
    let strict_violation = map.flag("strict") && batch_unverified > 0;

    if map.flag("json") {
        let mut s = serde_json::to_string_pretty(&batch).map_err(fail)?;
        s.push('\n');
        if strict_violation {
            return Err(CliError::Failed(s));
        }
        return Ok(s);
    }

    let mut out = String::new();
    match &baseline_spec {
        Some(bp) => {
            let _ = writeln!(
                out,
                "batch-compared {} run(s) against baseline {bp} (bound {:e}, chunk {} B)",
                runs.len(),
                engine.config().error_bound,
                engine.config().chunk_bytes,
            );
        }
        None => {
            let _ = writeln!(
                out,
                "batch-compared all {} pairs of {} runs (bound {:e}, chunk {} B)",
                batch.jobs.len(),
                runs.len(),
                engine.config().error_bound,
                engine.config().chunk_bytes,
            );
        }
    }
    let _ = writeln!(
        out,
        "decoded {} tree(s) once each; {} node pairs visited, {} bytes re-read",
        batch.trees_decoded,
        batch.total_nodes_visited(),
        batch.total_bytes_reread(),
    );
    let c = &batch.cache;
    let _ = writeln!(
        out,
        "cache: {} subtree hits / {} misses, {} verdict hits / {} misses, \
         {} short-circuits; saved {} node visits and {} re-read bytes",
        c.node_hits,
        c.node_misses,
        c.verdict_hits,
        c.verdict_misses,
        c.short_circuits,
        c.nodes_saved,
        c.bytes_saved,
    );
    if !batch.store.is_zero() {
        let _ = writeln!(
            out,
            "store: {} chunk reads, {} bytes served, {} bytes from shared chunks",
            batch.store.chunk_reads, batch.store.bytes_read, batch.store.bytes_deduped,
        );
    }
    let _ = writeln!(
        out,
        "{:>4} {:>10} {:>10} {:>10}  pair",
        "job", "flagged", "diffs", "re-read"
    );
    for (i, job) in batch.jobs.iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>10} {:>10}  {} vs {}",
            i,
            job.report.stats.chunks_flagged,
            job.report.stats.diff_count,
            job.report.stats.bytes_reread,
            names[job.left],
            names[job.right],
        );
    }
    if batch_unverified > 0 {
        let _ = writeln!(
            out,
            "WARNING: {batch_unverified} chunk(s) across the batch could not be read and were \
             quarantined; verdicts cover only the verified data"
        );
    }
    if batch.identical() {
        let _ = writeln!(out, "RESULT: every pair agrees within the bound");
    } else {
        let divergent = batch.jobs.iter().filter(|j| !j.report.identical()).count();
        let total: u64 = batch.jobs.iter().map(|j| j.report.stats.diff_count).sum();
        let _ = writeln!(
            out,
            "RESULT: {divergent} of {} pair(s) differ beyond the bound ({total} values total)",
            batch.jobs.len()
        );
    }
    if strict_violation {
        let _ = writeln!(
            out,
            "STRICT: failing — {batch_unverified} chunk(s) were not verified"
        );
        return Err(CliError::Failed(out));
    }
    Ok(out)
}

/// `info`: describe a checkpoint or metadata file.
pub fn info(map: &ArgMap) -> Result<String, CliError> {
    let input = PathBuf::from(map.required("input")?);
    let bytes = std::fs::read(&input).map_err(fail)?;
    let mut out = String::new();

    if bytes.len() >= 8 && &bytes[..8] == reprocmp_merkle::serial::MAGIC {
        let tree = reprocmp_merkle::decode_tree(&bytes).map_err(fail)?;
        let _ = writeln!(out, "{}: Merkle tree metadata", input.display());
        let _ = writeln!(
            out,
            "  leaves {} | levels {} | nodes {} | chunk {} B | bound {:e} | describes {} payload bytes",
            tree.leaf_count(),
            tree.levels(),
            tree.node_count(),
            tree.chunk_bytes(),
            tree.error_bound(),
            tree.data_len(),
        );
        let _ = writeln!(out, "  root: {}", tree.root());
    } else if bytes.len() >= 8 && &bytes[..8] == reprocmp_veloc::format::MAGIC {
        let file = decode_checkpoint(&bytes).map_err(fail)?;
        let _ = writeln!(
            out,
            "{}: checkpoint (version {})",
            input.display(),
            file.checkpoint_version
        );
        for r in &file.regions {
            let _ = writeln!(out, "  region {:<6} {} values", r.name, r.count);
        }
        let _ = writeln!(
            out,
            "  payload: {} bytes at offset {}",
            file.payload_len, file.payload_offset
        );
    } else {
        let _ = writeln!(
            out,
            "{}: unrecognized ({} bytes); treating as raw f32 would give {} values",
            input.display(),
            bytes.len(),
            bytes.len() / 4
        );
    }
    Ok(out)
}

/// `simulate`: run mini-HACC and capture a VELOC checkpoint history.
pub fn simulate(map: &ArgMap) -> Result<String, CliError> {
    let out_dir = PathBuf::from(map.required("out-dir")?);
    let particles = map.parsed_or("particles", 2_048usize)?;
    let steps = map.parsed_or("steps", 50u64)?;
    let ranks = map.parsed_or("ranks", 2usize)?;
    let ic_seed = map.parsed_or("ic-seed", 0xC05_0C0DEu64)?;
    let run_name = map.optional("run-name").unwrap_or("run").to_owned();

    let order = match map.optional("order-seed") {
        None => OrderPolicy::Sequential,
        Some(raw) => OrderPolicy::Shuffled {
            seed: raw
                .parse()
                .map_err(|_| CliError::Usage(format!("--order-seed: cannot parse `{raw}`")))?,
        },
    };

    let mut cfg = HaccConfig::small();
    cfg.particles = particles;
    cfg.ic_seed = ic_seed;
    cfg.order = order;
    let box_size = cfg.box_size;
    let mut sim = Simulation::new(cfg);
    let decomp = SlabDecomposition::new(ranks);

    let client = Client::new(VelocConfig::rooted_at(&out_dir)).map_err(fail)?;
    // Checkpoint at the paper's cadence: 4 evenly spaced iterations.
    let interval = (steps / 5).max(1);
    let mut captured = Vec::new();

    for step in 1..=steps {
        sim.step();
        if step % interval == 0 && step / interval <= 4 {
            for rank in 0..ranks {
                let regions = decomp.rank_regions(sim.particles(), box_size, rank);
                let borrowed: Vec<(&str, &[f32])> =
                    regions.iter().map(|(n, v)| (*n, v.as_slice())).collect();
                let name = format!("{run_name}.rank{rank}");
                client.checkpoint(&name, step, &borrowed).map_err(fail)?;
            }
            captured.push(step);
        }
    }
    client.wait_all().map_err(fail)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "simulated {} particles for {} steps ({:?} order)",
        particles,
        steps,
        sim.config().order
    );
    let _ = writeln!(
        out,
        "captured iterations {:?} x {} ranks into {}",
        captured,
        ranks,
        out_dir.join("pfs").display()
    );
    Ok(out)
}

/// `census`: friends-of-friends halo census of a captured checkpoint
/// (needs the canonical x/y/z regions — i.e. a file written by
/// `simulate` or the VELOC client).
pub fn census(map: &ArgMap) -> Result<String, CliError> {
    use reprocmp_hacc::halo::find_halos;
    use reprocmp_hacc::ParticleSet;

    let input = PathBuf::from(map.required("input")?);
    let linking_length = map.parsed_or("linking-length", 0.02f32)?;
    let min_members = map.parsed_or("min-members", 12usize)?;
    let box_size = map.parsed_or("box-size", 1.0f32)?;

    let bytes = std::fs::read(&input).map_err(fail)?;
    let file = decode_checkpoint(&bytes).map_err(|e| {
        CliError::Failed(format!(
            "{}: not a reprocmp checkpoint ({e}); census needs x/y/z regions",
            input.display()
        ))
    })?;
    let read = |name: &str| -> Result<Vec<f32>, CliError> {
        reprocmp_veloc::read_region(&bytes, &file, name)
            .map_err(|_| CliError::Failed(format!("checkpoint has no `{name}` region")))
    };
    let (x, y, z) = (read("x")?, read("y")?, read("z")?);
    let mut particles = ParticleSet::with_len(x.len());
    particles.x = x;
    particles.y = y;
    particles.z = z;

    let halos = find_halos(&particles, box_size, linking_length, min_members);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: {} particles, linking length {linking_length}, min members {min_members}",
        input.display(),
        particles.len(),
    );
    let _ = writeln!(out, "halos found: {}", halos.len());
    for (i, h) in halos.iter().take(10).enumerate() {
        let _ = writeln!(
            out,
            "  #{i:<3} {:>6} members, center ({:.4}, {:.4}, {:.4})",
            h.size(),
            h.center[0],
            h.center[1],
            h.center[2]
        );
    }
    if halos.len() > 10 {
        let _ = writeln!(out, "  … and {} more", halos.len() - 10);
    }
    Ok(out)
}

/// `gate`: the paper-conclusion CI use case. Compares a candidate
/// run's checkpoint against a golden run's *Merkle metadata* (and,
/// optionally, its data, for value-level reporting). Returns
/// `Err(CliError::Failed)` — a non-zero exit — on regression, so it
/// drops straight into CI pipelines.
pub fn gate(map: &ArgMap) -> Result<String, CliError> {
    use reprocmp_core::EngineConfig;
    use reprocmp_merkle::compare_trees;

    let golden_tree_path = PathBuf::from(map.required("golden-tree")?);
    let candidate_path = PathBuf::from(map.required("candidate")?);
    let max_diffs = map.parsed_or("max-diffs", 10usize)?;

    let tree_bytes = std::fs::read(&golden_tree_path).map_err(fail)?;
    let golden_tree = reprocmp_merkle::decode_tree(&tree_bytes).map_err(fail)?;

    // The gate's tolerance and chunking come from the golden metadata
    // itself — the repository is the single source of truth.
    let engine = CompareEngine::try_new(EngineConfig {
        chunk_bytes: golden_tree.chunk_bytes(),
        error_bound: golden_tree.error_bound(),
        ..EngineConfig::default()
    })
    .map_err(fail)?;

    let cand_bytes = std::fs::read(&candidate_path).map_err(fail)?;
    let candidate = Image::parse(&cand_bytes).map_err(|e| e.at(&candidate_path))?;
    let cand_len = candidate.payload().len() as u64;
    if cand_len != golden_tree.data_len() {
        return Err(CliError::Failed(format!(
            "candidate has {cand_len} payload bytes but the golden tree describes {}",
            golden_tree.data_len()
        )));
    }

    let candidate_meta = candidate
        .metadata(&engine)
        .map_err(|e| e.at(&candidate_path))?;
    let candidate_tree = reprocmp_merkle::decode_tree(&candidate_meta).map_err(fail)?;
    let lanes = engine.device().concurrent_kernel_threads();
    let outcome =
        compare_trees(&golden_tree, &candidate_tree, engine.device(), lanes).map_err(fail)?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "gate: {} vs golden {} (ε = {:e}, {} chunks)",
        candidate_path.display(),
        golden_tree_path.display(),
        golden_tree.error_bound(),
        golden_tree.leaf_count(),
    );

    if outcome.identical() {
        let _ = writeln!(
            out,
            "PASS — candidate reproduces the golden result within ε"
        );
        let _ = writeln!(out, "       (zero checkpoint data read; metadata only)");
        return Ok(out);
    }

    // Trees disagree. With golden data we can distinguish real
    // regressions from hash false positives; without, flag and fail.
    if let Some(golden_data_path) = map.optional("golden-data") {
        let a = ops::open_file(Path::new(golden_data_path), None)?.source;
        let b = ops::open_file(&candidate_path, None)?.source;
        let report = engine.compare(&a, &b, &Ctx::default()).map_err(fail)?;
        if report.identical() {
            let _ = writeln!(
                out,
                "PASS — {} chunk(s) flagged by the hash were false positives; \
                 no value exceeds ε",
                outcome.mismatched_leaves.len()
            );
            let _ = writeln!(
                out,
                "       (no ε-metadata on the data: all {} chunks verified)",
                report.stats.chunks_flagged
            );
            return Ok(out);
        }
        let _ = writeln!(
            out,
            "FAIL — {} value(s) moved beyond ε; first offenders:",
            report.stats.diff_count
        );
        for d in report.differences.iter().take(max_diffs) {
            let _ = writeln!(out, "  [{}] golden {} vs candidate {}", d.index, d.a, d.b);
        }
        return Err(CliError::Failed(out));
    }

    let _ = writeln!(
        out,
        "FAIL — {} of {} chunks differ from the golden metadata \
         (pass --golden-data to localize values)",
        outcome.mismatched_leaves.len(),
        golden_tree.leaf_count()
    );
    Err(CliError::Failed(out))
}

/// Indexes a directory of captured checkpoints: `(rank, iteration)` →
/// path, parsed from the canonical `<stem>.rank<R>.v<III>.ckpt` names.
fn index_checkpoint_dir(
    dir: &Path,
) -> Result<std::collections::BTreeMap<(usize, u64), PathBuf>, CliError> {
    let mut found = std::collections::BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(fail)? {
        let path = entry.map_err(fail)?.path();
        let name = path.file_name().map(|n| n.to_string_lossy().to_string());
        let Some(name) = name else { continue };
        let Some(stem) = name.strip_suffix(".ckpt") else {
            continue;
        };
        let Some(v_pos) = stem.rfind(".v") else {
            continue;
        };
        let Ok(iteration) = stem[v_pos + 2..].parse::<u64>() else {
            continue;
        };
        let head = &stem[..v_pos];
        let Some(r_pos) = head.rfind(".rank") else {
            continue;
        };
        let Ok(rank) = head[r_pos + 5..].parse::<usize>() else {
            continue;
        };
        found.insert((rank, iteration), path);
    }
    Ok(found)
}

/// Loads two checkpoint directories into paired histories, verifying
/// they cover the same `(rank, iteration)` set; also returns the
/// regions of run 1's first checkpoint.
fn load_dir_histories(
    dir1: &Path,
    dir2: &Path,
    engine: &CompareEngine,
) -> Result<
    (
        reprocmp_core::CheckpointHistory,
        reprocmp_core::CheckpointHistory,
        Option<ops::Regions>,
    ),
    CliError,
> {
    let idx1 = index_checkpoint_dir(dir1)?;
    let idx2 = index_checkpoint_dir(dir2)?;
    if idx1.is_empty() {
        return Err(CliError::Failed(format!(
            "{}: no `*.rank<R>.v<III>.ckpt` files found",
            dir1.display()
        )));
    }
    if idx1.keys().ne(idx2.keys()) {
        return Err(CliError::Failed(format!(
            "the directories cover different (rank, iteration) sets: {} vs {} checkpoints",
            idx1.len(),
            idx2.len()
        )));
    }
    let open_all = |idx: &std::collections::BTreeMap<(usize, u64), PathBuf>| {
        ops::history(
            idx.iter()
                .map(|(&key, path)| (key, ops::open_hashed(path, engine))),
        )
    };
    let (h1, regions) = open_all(&idx1)?;
    let (h2, _) = open_all(&idx2)?;
    Ok((h1, h2, regions))
}

/// `history`: the paper's problem statement on the command line.
/// Takes two directories of captured checkpoints (as produced by
/// `simulate` — `<name>.rank<R>.v<III>.ckpt` files), pairs them by
/// rank and iteration, and reports when and where the runs diverged.
pub fn history(map: &ArgMap) -> Result<String, CliError> {
    let dir1 = PathBuf::from(map.required("run1-dir")?);
    let dir2 = PathBuf::from(map.required("run2-dir")?);
    let engine = engine_from(map)?;
    let (h1, h2, _) = load_dir_histories(&dir1, &dir2, &engine)?;

    let report = engine
        .compare_history(&h1, &h2, &Ctx::default())
        .map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "compared {} checkpoint pairs (ε = {:e}, chunk {} B)",
        report.entries.len(),
        engine.config().error_bound,
        engine.config().chunk_bytes,
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>10} {:>10} {:>10}",
        "iter", "rank", "flagged", "diffs", "re-read"
    );
    for e in &report.entries {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>10} {:>10} {:>10}",
            e.iteration,
            e.rank,
            e.report.stats.chunks_flagged,
            e.report.stats.diff_count,
            e.report.stats.bytes_reread,
        );
    }
    match report.first_divergence() {
        None => {
            let _ = writeln!(
                out,
                "RESULT: the runs agree within the bound at every checkpoint"
            );
        }
        Some((iteration, rank)) => {
            let _ = writeln!(
                out,
                "RESULT: runs diverge from iteration {iteration} (first on rank {rank}); {} values total",
                report.total_diffs()
            );
        }
    }
    Ok(out)
}

/// Opens the chunk store named by `--store`.
fn open_store(map: &ArgMap) -> Result<ChunkStore, CliError> {
    let root = PathBuf::from(map.required("store")?);
    ChunkStore::open(&root).map_err(fail)
}

/// Parses `--regions name:f32|f64:count,...` into a typed map — the
/// way to attribute mixed-precision payloads whose layout the store
/// does not know.
fn parse_typed_regions(spec: &str) -> Result<reprocmp_analyze::TypedRegionMap, CliError> {
    let mut triples: Vec<(String, reprocmp_analyze::RegionDType, u64)> = Vec::new();
    for part in spec.split(',') {
        let fields: Vec<&str> = part.split(':').collect();
        let [name, dtype_raw, count_raw] = fields[..] else {
            return Err(CliError::Usage(format!(
                "--regions entry `{part}` must be name:f32|f64:count"
            )));
        };
        let dtype = match dtype_raw {
            "f32" => reprocmp_analyze::RegionDType::F32,
            "f64" => reprocmp_analyze::RegionDType::F64,
            other => {
                return Err(CliError::Usage(format!(
                    "--regions entry `{part}`: dtype must be f32 or f64, got `{other}`"
                )))
            }
        };
        let count: u64 = count_raw.parse().map_err(|_| {
            CliError::Usage(format!(
                "--regions entry `{part}`: cannot parse count `{count_raw}`"
            ))
        })?;
        triples.push((name.to_owned(), dtype, count));
    }
    Ok(reprocmp_analyze::TypedRegionMap::from_regions(
        triples.iter().map(|(n, d, c)| (n.as_str(), *d, *c)),
    ))
}

/// `analyze`: divergence forensics over two checkpoint histories —
/// O(log M) timeline bisection, divergence-front tracking, per-region
/// attribution, and (with `--keys`) the frame-replayed explorer.
/// Exit codes mirror `fsck`: 0 clean, 1 divergent, 2 bad usage.
pub fn analyze(map: &ArgMap) -> Result<String, CliError> {
    use reprocmp_analyze::{AnalyzeOptions, Explorer, SpreadClass};

    let engine = engine_from(map)?;
    let timeline = reprocmp_io::Timeline::wall();
    let obs = timeline.observer();

    let (h1, h2, regions) = match map.optional("store") {
        Some(root) => {
            let store = ChunkStore::open(Path::new(root)).map_err(fail)?;
            let run1 = map.required("run1")?;
            let run2 = map.required("run2")?;
            let (h1, regions) = ops::stored_history(&store, run1, &engine)?;
            let (h2, _) = ops::stored_history(&store, run2, &engine)?;
            (h1, h2, regions)
        }
        None => {
            let dir1 = PathBuf::from(map.required("run1-dir")?);
            let dir2 = PathBuf::from(map.required("run2-dir")?);
            load_dir_histories(&dir1, &dir2, &engine)?
        }
    };
    // Run 1's first layout, read as all-f32, unless `--regions` says
    // otherwise.
    let typed = match map.optional("regions") {
        Some(spec) => Some(parse_typed_regions(spec)?),
        None => regions
            .as_deref()
            .and_then(reprocmp_analyze::TypedRegionMap::from_f32_regions),
    };

    let report = reprocmp_analyze::analyze(
        &engine,
        &h1,
        &h2,
        &timeline,
        &obs,
        &AnalyzeOptions { regions: typed },
    )
    .map_err(fail)?;
    let verdict = |out: String| {
        if report.divergent {
            Err(CliError::Failed(out))
        } else {
            Ok(out)
        }
    };

    // --keys: replay a key script through the explorer and print every
    // frame (the terminal-free TUI mode snapshot tests drive).
    if let Some(script) = map.optional("keys") {
        let mut explorer = Explorer::build(&engine, &h1, &h2).map_err(fail)?;
        let mut out = String::new();
        for (i, frame) in explorer.play(script).iter().enumerate() {
            let _ = writeln!(out, "--- frame {i} ---");
            out.push_str(frame);
        }
        return verdict(out);
    }

    // --live: the same explorer driven interactively — raw-mode
    // keystrokes in, ANSI-cleared frames out (shared shim with `top`).
    if map.flag("live") {
        let mut explorer = Explorer::build(&engine, &h1, &h2).map_err(fail)?;
        let _guard = crate::term::RawModeGuard::enter().ok();
        let key_rx = crate::term::spawn_key_reader();
        loop {
            print!("{}{}", crate::term::CLEAR, explorer.render());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let Ok(key) = key_rx.recv() else { break };
            explorer.handle_key(key);
            if explorer.quit_requested() {
                break;
            }
        }
        return verdict("analyze: explorer session ended\n".to_owned());
    }

    if map.flag("json") {
        let mut s = report.to_json();
        s.push('\n');
        return verdict(s);
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "analyzed {} iterations × {} ranks (ε = {:e}, chunk {} B)",
        report.iterations,
        report.ranks,
        engine.config().error_bound,
        engine.config().chunk_bytes,
    );
    match (
        report.bisection.first_iteration,
        report.bisection.first_rank,
    ) {
        (Some(it), Some(rank)) => {
            let _ = writeln!(
                out,
                "bisection: first divergence at iteration {it}, rank {rank}"
            );
        }
        _ => {
            let _ = writeln!(out, "bisection: no divergence anywhere in the timeline");
        }
    }
    let _ = writeln!(
        out,
        "  {} comparisons ({} stage-1 probes + {} confirmations)",
        report.bisection.comparisons,
        report.bisection.stage1_probes,
        report.bisection.stage2_confirmations,
    );
    let _ = writeln!(
        out,
        "  bytes: {} metadata, {} payload (linear scan would re-read every flagged chunk of every iteration)",
        report.bisection.metadata_bytes_read, report.bisection.payload_bytes_read,
    );
    let class = match report.front.classification {
        SpreadClass::Clean => "clean",
        SpreadClass::Contained => "contained",
        SpreadClass::Spreading => "spreading",
        SpreadClass::Saturated => "saturated",
    };
    let _ = writeln!(
        out,
        "front: {class} ({:.2} chunks/iteration growth, {} slots total)",
        report.front.growth_per_iteration, report.front.total_slots,
    );
    let strip: String = report
        .front
        .snapshots
        .iter()
        .map(|s| reprocmp_analyze::tui::ramp_char(s.fraction))
        .collect();
    let _ = writeln!(out, "  spread over time: [{strip}]");
    for s in report.front.snapshots.iter().filter(|s| s.new_flagged > 0) {
        let _ = writeln!(
            out,
            "  iteration {:>6}: {:>6} flagged ({:>5.1}%), {} new",
            s.iteration,
            s.flagged,
            s.fraction * 100.0,
            s.new_flagged
        );
    }
    if !report.regions.is_empty() {
        let _ = writeln!(out, "per region at the boundary:");
        for r in &report.regions {
            let dtype = match r.dtype {
                reprocmp_analyze::RegionDType::F32 => "f32",
                reprocmp_analyze::RegionDType::F64 => "f64",
            };
            let _ = writeln!(
                out,
                "  {:<16} {dtype} {:>10} values {:>8} diffs  max |Δ| {:.3e}",
                r.name, r.elements, r.diff_count, r.max_abs_delta,
            );
        }
    }
    if let Some(boundary) = &report.boundary {
        let _ = writeln!(
            out,
            "boundary detail: {} values differ ({} chunks flagged, {} false-positive)",
            boundary.diff_count, boundary.chunks_flagged, boundary.false_positive_chunks,
        );
        for d in boundary.differences.iter().take(5) {
            let _ = writeln!(out, "  [{}] {} vs {}", d.index, d.a, d.b);
        }
    }
    let _ = writeln!(
        out,
        "RESULT: {}",
        if report.divergent {
            "the runs diverge beyond the bound"
        } else {
            "the runs agree within the bound at every checkpoint"
        }
    );
    verdict(out)
}

/// `ingest`: capture a checkpoint file into the content-addressed
/// store. VELOC-format files keep their region structure (one segment
/// per region plus the raw header, so `compare --store` can attribute
/// differences to fields); anything else is stored as a single
/// `payload` segment. With `--with-meta`, Merkle metadata is built once
/// at ingest and stored in the manifest, so later store-backed
/// comparisons skip the capture pass entirely.
pub fn ingest(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let input = PathBuf::from(map.required("input")?);
    let chunk_bytes = map.parsed_or("chunk-bytes", 4096usize)?;
    let bytes = std::fs::read(&input).map_err(fail)?;

    // Default object name: the file stem, with the `.v<III>` version
    // suffix the VELOC client appends stripped off (so re-ingested
    // capture files land under the client's own (name, version) keys).
    let stem = input
        .file_stem()
        .map(|s| s.to_string_lossy().to_string())
        .unwrap_or_else(|| "checkpoint".to_owned());
    let default_name = match stem.rfind(".v") {
        Some(pos) if stem[pos + 2..].chars().all(|c| c.is_ascii_digit()) && pos > 0 => {
            stem[..pos].to_owned()
        }
        _ => stem,
    };
    let name = map.optional("name").unwrap_or(&default_name).to_owned();

    let image = Image::parse(&bytes).map_err(|e| e.at(&input))?;
    let version = map.parsed_or("version", image.version())?;

    // --with-meta: pay the capture pass now so store-backed compares
    // read metadata straight from the manifest.
    let engine = if map.flag("with-meta") {
        Some(engine_from(map)?)
    } else {
        None
    };

    // --delta: differential capture against the previous stored
    // version, writing only changed chunks (full anchors forced by the
    // --anchor-every / --max-depth policy).
    let delta = map.flag("delta");
    let policy = DeltaPolicy {
        anchor_every: map.parsed_or("anchor-every", DeltaPolicy::default().anchor_every)?,
        max_depth: map.parsed_or("max-depth", DeltaPolicy::default().max_depth)?,
    };
    let result = ops::ingest(
        &store,
        &name,
        version,
        &image,
        chunk_bytes,
        engine.as_ref(),
        delta.then_some(&policy),
    );
    let stats = match result {
        Ok(done) => done.stats,
        Err(OpError::Store(StoreError::Exists { name, version })) => {
            return Ok(format!(
                "{name}@{version} already in store; ingest is idempotent, nothing written\n"
            ))
        }
        Err(e) => return Err(e.at(&input).into()),
    };

    if map.flag("json") {
        let mut s = serde_json::to_string_pretty(&stats).map_err(fail)?;
        s.push('\n');
        return Ok(s);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ingested {name}@{version} into {} (chunk {chunk_bytes} B, {} segment(s){})",
        store.root().display(),
        image.segments().len(),
        if engine.is_some() {
            ", metadata stored"
        } else {
            ""
        },
    );
    let _ = writeln!(
        out,
        "chunks: {} refs, {} stored, {} deduplicated, {} skipped",
        stats.chunk_refs, stats.chunks_stored, stats.chunks_deduped, stats.chunks_skipped,
    );
    let _ = writeln!(
        out,
        "bytes:  {} logical = {} physical + {} deduplicated + {} skipped",
        stats.bytes_logical, stats.bytes_physical, stats.bytes_deduped, stats.bytes_skipped,
    );
    match stats.parent {
        Some(parent) => {
            let _ = writeln!(
                out,
                "chain:  delta of {name}@{parent} at depth {}",
                stats.depth
            );
        }
        None if delta => {
            let _ = writeln!(out, "chain:  full anchor (no usable parent, or policy)");
        }
        None => {}
    }
    match stats.pack {
        Some(id) => {
            let _ = writeln!(out, "pack:   pack-{id:06}");
        }
        None => {
            let _ = writeln!(out, "pack:   none (every chunk already stored)");
        }
    }
    Ok(out)
}

/// `store-remove`: drop one stored checkpoint's manifest and release
/// its chunk references (physical bytes are reclaimed by `gc`).
pub fn store_remove(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let ObjectRef { name, version } = ops::resolve(&store, map.required("run")?)?;
    store.remove(&name, version).map_err(fail)?;
    Ok(format!(
        "removed {name}@{version}; run `gc` to reclaim unreferenced packs\n"
    ))
}

/// `chain`: show the delta chain a stored checkpoint restores through,
/// anchor first, with each link's ownership and skip ledger. With
/// `--flatten`, every delta link is rewritten to a full manifest
/// (tail-first), unpinning ancestors for `store-remove` + `gc`.
pub fn chain(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let ObjectRef { name, version } = ops::resolve(&store, map.required("run")?)?;
    if map.flag("flatten") {
        let links = store.chain(&name, version).map_err(fail)?;
        let mut rewritten = 0u64;
        for link in links.iter().rev() {
            if store.flatten(&name, link.version).map_err(fail)? {
                rewritten += 1;
            }
        }
        return Ok(format!(
            "flattened {rewritten} delta manifest(s) of {name}@{version} to full anchors\n"
        ));
    }
    let links = store.chain(&name, version).map_err(fail)?;
    if map.flag("json") {
        let mut s = serde_json::to_string_pretty(&links).map_err(fail)?;
        s.push('\n');
        return Ok(s);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chain of {name}@{version}: {} link(s), restore depth {}",
        links.len(),
        links.last().map_or(0, |l| l.depth),
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>6} {:>10} {:>10} {:>12} {:>14}",
        "version", "parent", "depth", "refs", "own refs", "own bytes", "bytes skipped"
    );
    for link in &links {
        let parent = link
            .parent
            .map_or_else(|| "-".to_owned(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>6} {:>10} {:>10} {:>12} {:>14}",
            link.version,
            parent,
            link.depth,
            link.chunk_refs,
            link.own_refs,
            link.own_bytes,
            link.bytes_skipped,
        );
    }
    Ok(out)
}

/// `gc`: delete packs whose every chunk has dropped to zero references
/// and atomically swap in the pruned index.
pub fn gc(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let stats = store.gc().map_err(fail)?;
    if map.flag("json") {
        let mut s = serde_json::to_string_pretty(&stats).map_err(fail)?;
        s.push('\n');
        return Ok(s);
    }
    Ok(format!(
        "gc: {} pack(s) deleted, {} chunk entries dropped, {} bytes reclaimed\n",
        stats.packs_deleted, stats.chunks_dropped, stats.bytes_reclaimed
    ))
}

/// `scrub`: re-hash every stored chunk against the digest it is filed
/// under; exits non-zero when any chunk fails, listing the damage.
pub fn scrub(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let report = store.scrub().map_err(fail)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scrub: {} pack(s), {} chunk(s) re-hashed",
        report.packs_scanned, report.chunks_scanned,
    );
    if report.is_clean() {
        let _ = writeln!(out, "RESULT: store is clean");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "RESULT: {} chunk(s) do not match their digest:",
        report.failures.len()
    );
    for f in &report.failures {
        let _ = writeln!(
            out,
            "  pack-{:06} at byte {} ({} bytes): stored {} != actual {}",
            f.pack, f.data_offset, f.len, f.expected, f.actual,
        );
    }
    Err(CliError::Failed(out))
}

/// `fsck`: full integrity pass over every pack. Without `--repair`
/// this reports; with it, single-chunk corruption per parity group is
/// reconstructed from XOR parity in place, and packs with
/// unrecoverable damage are quarantined (their chunks surface as
/// `unverified` ranges in degraded-mode comparison). Exit codes: 0
/// when the store ends healthy (clean, or fully repaired), 1 when
/// corruption remains.
pub fn fsck(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let repair = map.flag("repair");
    let report = store.fsck(repair).map_err(fail)?;
    if map.flag("json") {
        let mut s = serde_json::to_string_pretty(&report).map_err(fail)?;
        s.push('\n');
        return if report.healthy() {
            Ok(s)
        } else {
            Err(CliError::Failed(s))
        };
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fsck{}: {} pack(s), {} chunk(s) re-hashed",
        if repair { " --repair" } else { "" },
        report.packs_scanned,
        report.chunks_scanned,
    );
    if report.is_clean() {
        let _ = writeln!(out, "RESULT: store is clean");
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "corruption: {} chunk(s) failed verification; {} repaired from parity, \
         {} unrecoverable",
        report.chunks_corrupt, report.chunks_repaired, report.chunks_unrecoverable,
    );
    for id in &report.packs_quarantined {
        let _ = writeln!(
            out,
            "  pack-{id:06} quarantined: its chunks are served verify-on-read and \
             surface as unverified ranges in comparison"
        );
    }
    if report.healthy() {
        let _ = writeln!(
            out,
            "RESULT: store repaired — every corrupt chunk was reconstructed and verified"
        );
        Ok(out)
    } else if repair {
        let _ = writeln!(
            out,
            "RESULT: degraded — re-ingest the affected checkpoints to repoint their \
             chunks, then `gc` to reclaim the quarantined pack(s)"
        );
        Err(CliError::Failed(out))
    } else {
        let _ = writeln!(
            out,
            "RESULT: corrupt — run `fsck --repair` to attempt repair"
        );
        Err(CliError::Failed(out))
    }
}

/// `store-stats`: the store-wide dedup ledger and object listing.
pub fn store_stats(map: &ArgMap) -> Result<String, CliError> {
    let store = open_store(map)?;
    let stats = store.stats();
    if map.flag("json") {
        let mut s = serde_json::to_string_pretty(&stats).map_err(fail)?;
        s.push('\n');
        return Ok(s);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "store at {}: {} object(s) across {} pack(s)",
        store.root().display(),
        stats.objects,
        stats.packs,
    );
    let _ = writeln!(
        out,
        "chunks: {} unique, {} references",
        stats.chunks_unique, stats.chunk_refs,
    );
    let _ = writeln!(
        out,
        "bytes:  {} logical = {} physical + {} deduplicated + {} skipped \
         ({} B of pack files on disk)",
        stats.bytes_logical,
        stats.bytes_physical,
        stats.bytes_deduped,
        stats.bytes_skipped,
        stats.pack_file_bytes,
    );
    let _ = writeln!(
        out,
        "chains: {} delta manifest(s), deepest chain {} link(s), {} B skipped at capture",
        stats.delta_objects, stats.chain_depth_max, stats.bytes_skipped,
    );
    let objects = store.objects();
    for (name, version) in objects.iter().take(32) {
        let _ = writeln!(out, "  {name}@{version}");
    }
    if objects.len() > 32 {
        let _ = writeln!(out, "  … and {} more", objects.len() - 32);
    }
    Ok(out)
}

/// `trace`: run a subcommand with the flight recorder on, writing a
/// Chrome-trace/Perfetto JSON file. `reprocmp trace compare --run1 A
/// --run2 B --out trace.json` is sugar for `reprocmp compare … --trace
/// trace.json`; only `compare` currently records a journal.
///
/// # Errors
///
/// Usage errors for a missing/unsupported inner command; whatever the
/// inner command fails with.
pub fn trace(argv: &[String]) -> Result<String, CliError> {
    let Some(inner) = argv.first() else {
        return Err(CliError::Usage(
            "trace needs an inner command: reprocmp trace compare … [--out trace.json]".to_owned(),
        ));
    };
    if inner != "compare" {
        return Err(CliError::Usage(format!(
            "trace only wraps `compare` (journaled comparison), got `{inner}`"
        )));
    }
    // Rewrite `--out F` into compare's own `--trace F` flag.
    let mut rewritten: Vec<String> = Vec::with_capacity(argv.len() + 1);
    let mut out_path: Option<String> = None;
    let mut iter = argv[1..].iter().peekable();
    while let Some(tok) = iter.next() {
        if tok == "--out" {
            let Some(next) = iter.peek() else {
                return Err(CliError::Usage("--out needs a file path".to_owned()));
            };
            out_path = Some((*next).clone());
            iter.next();
        } else {
            rewritten.push(tok.clone());
        }
    }
    rewritten.push("--trace".to_owned());
    rewritten.push(out_path.unwrap_or_else(|| "trace.json".to_owned()));
    let map = ArgMap::parse(&rewritten)?;
    compare(&map)
}

/// `perf-diff`: compare two committed performance baselines (or full
/// `--json` compare reports) under a relative budget, exiting non-zero
/// when any phase regressed past it.
///
/// # Errors
///
/// Unreadable/unparsable files, a bad `--budget`, or — as
/// [`CliError::Failed`], so CI sees exit 1 — a budget-exceeding
/// regression.
pub fn perf_diff(old_path: &str, new_path: &str, map: &ArgMap) -> Result<String, CliError> {
    let budget =
        reprocmp_obs::parse_budget(map.optional("budget").unwrap_or("10%")).map_err(fail)?;
    let read_baseline = |path: &str| -> Result<reprocmp_obs::ProfileBaseline, CliError> {
        let text = std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))?;
        reprocmp_obs::ProfileBaseline::parse(&text).map_err(|e| fail(format!("{path}: {e}")))
    };
    let old = read_baseline(old_path)?;
    let new = read_baseline(new_path)?;
    let diff = reprocmp_obs::diff_profiles(&old, &new, budget);
    let out = diff.render();
    if diff.passed() {
        Ok(out)
    } else {
        Err(CliError::Failed(out))
    }
}

// ---------------------------------------------------------------------------
// Comparison-as-a-service: the daemon and its client verbs.
// ---------------------------------------------------------------------------

fn parse_addr(map: &ArgMap) -> Result<std::net::SocketAddr, CliError> {
    let raw = map.required("addr")?;
    raw.parse()
        .map_err(|_| CliError::Usage(format!("--addr `{raw}` is not host:port")))
}

fn connect_client(map: &ArgMap) -> Result<reprocmp_server::ServerClient, CliError> {
    let addr = parse_addr(map)?;
    let identity = map.optional("client").unwrap_or("cli").to_owned();
    reprocmp_server::ServerClient::connect(addr, &identity).map_err(fail)
}

fn render_status(status: &reprocmp_server::RemoteStatus) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "job {}: {}", status.job, status.state.as_str());
    if let Some(result) = &status.result {
        let _ = writeln!(
            out,
            "{}",
            serde_json::to_string_pretty(result).expect("encode result")
        );
    }
    if let Some(error) = &status.error {
        let _ = writeln!(out, "error: {error}");
    }
    out
}

/// `serve`: run the comparison daemon. Claims the store exclusively
/// (advisory lock), listens on `--addr`, and serves until a client
/// sends `shutdown` — then drains every in-flight job and exits.
///
/// `--addr-file F` writes the bound address (useful with `--addr
/// host:0` for an OS-assigned port) so scripts and the second
/// terminal can find the daemon.
///
/// # Errors
///
/// A locked store (another daemon owns it), bind failures.
pub fn serve(map: &ArgMap) -> Result<String, CliError> {
    use reprocmp_server::{Server, ServerConfig, TcpTransport};

    let root = PathBuf::from(map.required("store")?);
    let defaults = ServerConfig::rooted_at(&root);
    let cadence_ms = map.parsed_or(
        "telemetry-ms",
        u64::try_from(defaults.telemetry_cadence.as_millis()).unwrap_or(u64::MAX),
    )?;
    let config = ServerConfig {
        chunk_bytes: map.parsed_or("chunk-bytes", defaults.chunk_bytes)?,
        error_bound: map.parsed_or("error-bound", defaults.error_bound)?,
        workers: map.parsed_or("workers", defaults.workers)?,
        queue_capacity: map.parsed_or("queue", defaults.queue_capacity)?,
        quantum: map.parsed_or("quantum", defaults.quantum)?,
        // `--telemetry-ms 0` disables the background sampler (the
        // `metrics` verb still samples on demand).
        telemetry_cadence: std::time::Duration::from_millis(cadence_ms),
        telemetry_retention: map.parsed_or("telemetry-retention", defaults.telemetry_retention)?,
        owner: map
            .optional("owner")
            .map_or(defaults.owner.clone(), str::to_owned),
        ..defaults
    };
    let server = std::sync::Arc::new(Server::start(config).map_err(fail)?);
    let transport =
        TcpTransport::bind(map.optional("addr").unwrap_or("127.0.0.1:0")).map_err(fail)?;
    let bound = transport.addr();
    if let Some(path) = map.optional("addr-file") {
        std::fs::write(path, bound.to_string()).map_err(fail)?;
    }
    // Printed before the blocking serve loop, not returned after it:
    // the second terminal needs the address while the daemon runs.
    println!(
        "reprocmp-server listening on {bound} (store {})",
        root.display()
    );
    transport.run(&server).map_err(fail)?;
    Ok("server stopped: all in-flight jobs drained\n".to_owned())
}

/// `submit`: send one job to a running daemon. The verb comes from
/// which flags are present: `--input F --name S --version N` ingests,
/// `--run1 R --run2 R` compares, `--baseline R --runs R,R` batches,
/// `--materialize R` reconstructs. Waits for the result unless
/// `--no-wait` (which just prints the job id).
///
/// # Errors
///
/// Backpressure rejections (retry later), unknown objects, transport
/// failures.
pub fn submit(map: &ArgMap) -> Result<String, CliError> {
    let mut session = connect_client(map)?;
    let job = if let Some(input) = map.optional("input") {
        let name = map.required("name")?;
        let version = map.parsed_or("version", 1u64)?;
        let chunk_bytes = map.parsed_or("chunk-bytes", 4096u64)?;
        let data = std::fs::read(input).map_err(|e| fail(format!("{input}: {e}")))?;
        session
            .ingest(name, version, chunk_bytes, &data)
            .map_err(fail)?
    } else if let Some(run1) = map.optional("run1") {
        let left = ObjectRef::parse(run1)?;
        let right = ObjectRef::parse(map.required("run2")?)?;
        session.compare(left, right).map_err(fail)?
    } else if let Some(baseline) = map.optional("baseline") {
        let base = ObjectRef::parse(baseline)?;
        let runs = map
            .required("runs")?
            .split(',')
            .map(ObjectRef::parse)
            .collect::<Result<Vec<_>, _>>()?;
        session.compare_many(base, runs).map_err(fail)?
    } else if let Some(spec) = map.optional("materialize") {
        let r = ObjectRef::parse(spec)?;
        session.materialize(&r.name, r.version).map_err(fail)?
    } else {
        return Err(CliError::Usage(
            "submit needs a job: --input F --name S --version N (ingest), \
             --run1 R --run2 R (compare), --baseline R --runs R,R,... \
             (compare-many), or --materialize R"
                .to_owned(),
        ));
    };
    if map.flag("no-wait") {
        return Ok(format!("job {job} accepted\n"));
    }
    let status = session.wait(job).map_err(fail)?;
    if status.error.is_some() {
        return Err(CliError::Failed(render_status(&status)));
    }
    Ok(render_status(&status))
}

/// `status`: one job's state (and result once terminal); `--wait`
/// blocks server-side until the job finishes.
///
/// # Errors
///
/// Unknown job ids, transport failures.
pub fn status(map: &ArgMap) -> Result<String, CliError> {
    let mut session = connect_client(map)?;
    let job = map.parsed_or("job", 0u64)?;
    if job == 0 {
        return Err(CliError::Usage("status needs --job N".to_owned()));
    }
    let status = session.status(job, map.flag("wait")).map_err(fail)?;
    Ok(render_status(&status))
}

/// `watch`: stream a job's flight-recorder events (one line per
/// event) followed by the journal ledger. Blocks until the job is
/// terminal.
///
/// # Errors
///
/// Unknown job ids, transport failures.
pub fn watch(map: &ArgMap) -> Result<String, CliError> {
    let mut session = connect_client(map)?;
    let job = map.parsed_or("job", 0u64)?;
    if job == 0 {
        return Err(CliError::Usage("watch needs --job N".to_owned()));
    }
    let (events, summary) = session.watch(job).map_err(fail)?;
    let mut out = String::new();
    for e in &events {
        let _ = writeln!(
            out,
            "[{:>12} ns] #{:<4} {:<24} {}",
            e.ts_ns, e.seq, e.lane, e.kind
        );
    }
    let _ = writeln!(
        out,
        "job {job}: {} — {} events emitted, {} written, {} dropped",
        summary.state.as_str(),
        summary.events_emitted,
        summary.events_written,
        summary.events_dropped
    );
    Ok(out)
}

/// `shutdown`: ask a running daemon to drain and exit.
///
/// The daemon stops admitting work, finishes every in-flight job
/// (blocked `status --wait`/`watch`/`subscribe` clients all get their
/// terminal frames), then releases the store and exits.
///
/// # Errors
///
/// Transport failures.
pub fn shutdown(map: &ArgMap) -> Result<String, CliError> {
    let mut session = connect_client(map)?;
    session.shutdown_server().map_err(fail)?;
    Ok("shutdown acknowledged — daemon is draining\n".to_owned())
}

/// `metrics`: fetch one telemetry snapshot from a running daemon.
/// Default output is pretty JSON (the exact wire payload); `--prom`
/// renders the Prometheus text exposition instead — stable, byte-
/// deterministic output fit for a scrape endpoint or a golden test.
///
/// # Errors
///
/// Transport failures; malformed snapshots under `--prom`.
pub fn metrics(map: &ArgMap) -> Result<String, CliError> {
    let mut session = connect_client(map)?;
    let value = session.metrics().map_err(fail)?;
    if map.flag("prom") {
        let snapshot = reprocmp_obs::TelemetrySnapshot::from_value(&value)
            .map_err(|e| fail(format!("malformed telemetry snapshot: {e}")))?;
        return Ok(reprocmp_obs::prometheus_text(&snapshot));
    }
    let mut out = serde_json::to_string_pretty(&value).map_err(fail)?;
    out.push('\n');
    Ok(out)
}

/// Numbers frames the way `analyze --keys` does, so scripted TUI
/// output from every command diffs the same way.
fn render_frames(frames: &[String]) -> String {
    let mut out = String::new();
    for (i, frame) in frames.iter().enumerate() {
        let _ = writeln!(out, "--- frame {i} ---");
        out.push_str(frame);
    }
    out
}

/// Parses one `telemetry.jsonl` line-set into snapshots, skipping
/// torn or foreign lines (the file is crash-tolerant by design).
fn parse_telemetry_jsonl(text: &str) -> Vec<reprocmp_obs::TelemetrySnapshot> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str(l).ok())
        .filter_map(|v| reprocmp_obs::TelemetrySnapshot::from_value(&v).ok())
        .collect()
}

/// `top`: the live daemon telemetry viewer. Three modes:
///
/// * `--file telemetry.jsonl [--keys S]` — offline replay of persisted
///   history (deterministic; what the snapshot tests drive);
/// * `--addr H:P --frames N [--keys S]` — subscribe for N snapshots,
///   then render scripted frames and exit (CI-able capture);
/// * `--addr H:P` — interactive raw-mode session: `h`/`l` scroll
///   history, `t` toggles panes, `q` quits.
///
/// # Errors
///
/// Transport failures; unreadable `--file`.
pub fn top(map: &ArgMap) -> Result<String, CliError> {
    use reprocmp_analyze::TopView;

    let keys = map.optional("keys");

    // Offline: replay persisted telemetry history.
    if let Some(path) = map.optional("file") {
        let text = std::fs::read_to_string(path).map_err(|e| fail(format!("{path}: {e}")))?;
        let mut view = TopView::new(parse_telemetry_jsonl(&text));
        return Ok(render_frames(&view.play(keys.unwrap_or(""))));
    }

    let mut session = connect_client(map)?;

    // Scripted capture: N snapshots off the subscribe stream, then
    // frames — one per snapshot, plus one per key if `--keys` is set.
    if map.optional("frames").is_some() {
        let n = map.parsed_or("frames", 1u64)?;
        let snapshots = session.subscribe_telemetry(n).map_err(fail)?;
        let mut view = TopView::new(Vec::new());
        let mut frames = Vec::new();
        for value in &snapshots {
            if let Ok(s) = reprocmp_obs::TelemetrySnapshot::from_value(value) {
                view.push(s);
                frames.push(view.render());
            }
        }
        if let Some(script) = keys {
            frames.extend(view.play(script).into_iter().skip(1));
        }
        return Ok(render_frames(&frames));
    }

    // Interactive: raw-mode keystrokes against a ~2 Hz metrics poll.
    // Raw mode is best-effort — without a tty the keys just arrive
    // line-buffered.
    let _guard = crate::term::RawModeGuard::enter().ok();
    let key_rx = crate::term::spawn_key_reader();
    let mut view = TopView::new(Vec::new());
    let mut last_seq = 0u64;
    loop {
        let value = session.metrics().map_err(fail)?;
        if let Ok(s) = reprocmp_obs::TelemetrySnapshot::from_value(&value) {
            if s.seq > last_seq {
                last_seq = s.seq;
                view.push(s);
            }
        }
        print!("{}{}", crate::term::CLEAR, view.render());
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        match key_rx.recv_timeout(std::time::Duration::from_millis(500)) {
            Ok(key) => {
                view.handle_key(key);
                if view.quit_requested() {
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    Ok(format!(
        "top: session ended after {} snapshots\n",
        view.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cli(args: &[&str]) -> Result<String, CliError> {
        let argv: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        crate::run(&argv)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("reprocmp-cli-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_raw_f32(path: &Path, values: &[f32]) {
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        std::fs::write(path, bytes).unwrap();
    }

    #[test]
    fn end_to_end_simulate_tree_compare() {
        let dir = temp_dir("e2e");
        // Two nondeterministic runs from the same ICs.
        for (name, seed) in [("run1", "1"), ("run2", "2")] {
            run_cli(&[
                "simulate",
                "--out-dir",
                dir.to_str().unwrap(),
                "--particles",
                "512",
                "--steps",
                "20",
                "--ranks",
                "1",
                "--order-seed",
                seed,
                "--run-name",
                name,
            ])
            .unwrap();
        }
        // steps=20 → capture interval 4 → iterations 4, 8, 12, 16.
        let c1 = dir.join("pfs/run1.rank0.v000016.ckpt");
        let c2 = dir.join("pfs/run2.rank0.v000016.ckpt");
        assert!(c1.exists() && c2.exists());

        // Build metadata for run1.
        let t1 = dir.join("run1.tree");
        let out = run_cli(&[
            "create-tree",
            "--input",
            c1.to_str().unwrap(),
            "--output",
            t1.to_str().unwrap(),
            "--chunk-bytes",
            "256",
        ])
        .unwrap();
        assert!(out.contains("metadata"));

        // Compare with a loose and a tight bound.
        let loose = run_cli(&[
            "compare",
            "--run1",
            c1.to_str().unwrap(),
            "--run2",
            c2.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1.0",
        ])
        .unwrap();
        assert!(loose.contains("agree within the bound"), "{loose}");

        let tight = run_cli(&[
            "compare",
            "--run1",
            c1.to_str().unwrap(),
            "--run2",
            c2.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-12",
        ])
        .unwrap();
        assert!(tight.contains("differ beyond the bound"), "{tight}");

        // Resilience flags parse and show up in the traffic line.
        let resilient = run_cli(&[
            "compare",
            "--run1",
            c1.to_str().unwrap(),
            "--run2",
            c2.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-12",
            "--retry-attempts",
            "5",
            "--failure-policy",
            "quarantine",
        ])
        .unwrap();
        assert!(resilient.contains("ops submitted"), "{resilient}");
        assert!(!resilient.contains("WARNING"), "healthy files: {resilient}");

        let bad = run_cli(&[
            "compare",
            "--run1",
            c1.to_str().unwrap(),
            "--run2",
            c2.to_str().unwrap(),
            "--failure-policy",
            "sometimes",
        ])
        .unwrap_err();
        assert!(format!("{bad:?}").contains("abort"), "{bad:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_raw_f32_files() {
        let dir = temp_dir("raw");
        let a = dir.join("a.f32");
        let b = dir.join("b.f32");
        let base: Vec<f32> = (0..1000).map(|i| i as f32 * 0.1).collect();
        let mut tweaked = base.clone();
        tweaked[123] += 0.5;
        write_raw_f32(&a, &base);
        write_raw_f32(&b, &tweaked);

        let out = run_cli(&[
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--chunk-bytes",
            "128",
            "--error-bound",
            "1e-3",
        ])
        .unwrap();
        assert!(out.contains("1 values differ"), "{out}");
        assert!(out.contains("[123]"), "{out}");
        assert!(
            out.contains("no ε-metadata: all 32 chunks verified"),
            "{out}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_profile_and_json_render_the_stage_breakdown() {
        let dir = temp_dir("profile");
        let a = dir.join("a.f32");
        let b = dir.join("b.f32");
        let base: Vec<f32> = (0..2000).map(|i| i as f32 * 0.1).collect();
        let mut tweaked = base.clone();
        tweaked[42] += 5.0;
        write_raw_f32(&a, &base);
        write_raw_f32(&b, &tweaked);

        let out = run_cli(&[
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--chunk-bytes",
            "128",
            "--error-bound",
            "1e-3",
            "--profile",
        ])
        .unwrap();
        assert!(out.contains("stage profile:"), "{out}");
        for phase in [
            "quantize",
            "leaf_hash",
            "level_build",
            "bfs",
            "stage2_stream",
            "store_read",
            "verify",
        ] {
            assert!(out.contains(phase), "missing {phase}: {out}");
        }
        assert!(out.contains("latency quantiles:"), "{out}");
        assert!(out.contains("p95"), "{out}");

        let json = run_cli(&[
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--chunk-bytes",
            "128",
            "--error-bound",
            "1e-3",
            "--json",
        ])
        .unwrap();
        for key in [
            "\"stages\"",
            "\"quantize\"",
            "\"stage2_stream\"",
            "\"io\"",
            "\"diff_count\": 1",
            "\"histograms\"",
            "\"p99\"",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        assert!(
            !json.contains("RESULT"),
            "json mode must not mix in prose: {json}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compare_many_baseline_reports_cache_savings() {
        let dir = temp_dir("many");
        let base: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).cos()).collect();
        // Three runs share one deviation from the baseline (plus one
        // unique value each), so later jobs hit the caches.
        let mut shared = base.clone();
        for v in shared.iter_mut().take(2048) {
            *v += 1.0;
        }
        let baseline = dir.join("baseline.f32");
        write_raw_f32(&baseline, &base);
        let mut run_paths = Vec::new();
        for r in 0..3usize {
            let mut values = shared.clone();
            values[3000 + r] += 0.5;
            let p = dir.join(format!("run{r}.f32"));
            write_raw_f32(&p, &values);
            run_paths.push(p);
        }
        let runs_arg = run_paths
            .iter()
            .map(|p| p.to_str().unwrap().to_owned())
            .collect::<Vec<_>>()
            .join(",");

        let out = run_cli(&[
            "compare-many",
            "--baseline",
            baseline.to_str().unwrap(),
            "--runs",
            &runs_arg,
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-3",
            "--lanes",
            "4",
        ])
        .unwrap();
        assert!(out.contains("3 run(s) against baseline"), "{out}");
        assert!(out.contains("decoded 4 tree(s)"), "{out}");
        assert!(out.contains("differ beyond the bound"), "{out}");
        // Runs 2 and 3 repeat run 1's deviation: both cache layers hit.
        let saved_line = out
            .lines()
            .find(|l| l.starts_with("cache:"))
            .expect("cache line");
        assert!(!saved_line.contains("saved 0 node visits"), "{out}");
        assert!(!saved_line.contains("0 re-read bytes"), "{out}");

        // --no-cache still agrees on the verdicts, with an empty ledger.
        let uncached = run_cli(&[
            "compare-many",
            "--baseline",
            baseline.to_str().unwrap(),
            "--runs",
            &runs_arg,
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-3",
            "--lanes",
            "4",
            "--no-cache",
        ])
        .unwrap();
        assert!(uncached.contains("0 subtree hits"), "{uncached}");
        assert!(uncached.contains("differ beyond the bound"), "{uncached}");
        // Verdicts (flagged chunks and diff counts per pair) must match
        // the cached run; only the re-read column may shrink under the
        // cache, so compare rows with that field masked out.
        let rows = |text: &str| -> Vec<Vec<String>> {
            text.lines()
                .filter(|l| l.contains(" vs "))
                .map(|l| {
                    let mut cols: Vec<String> = l.split_whitespace().map(str::to_owned).collect();
                    cols[3] = "-".to_owned(); // re-read bytes
                    cols
                })
                .collect()
        };
        assert_eq!(rows(&out), rows(&uncached), "{out}\n--\n{uncached}");

        // --json renders the machine-readable batch report.
        let json = run_cli(&[
            "compare-many",
            "--baseline",
            baseline.to_str().unwrap(),
            "--runs",
            &runs_arg,
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-3",
            "--json",
        ])
        .unwrap();
        for key in ["\"jobs\"", "\"cache\"", "\"trees_decoded\": 4"] {
            assert!(json.contains(key), "missing {key}: {json}");
        }

        // All-pairs mode covers every unordered pair: C(3,2) = 3 jobs.
        let pairs = run_cli(&[
            "compare-many",
            "--all-pairs",
            "--runs",
            &runs_arg,
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-3",
        ])
        .unwrap();
        assert!(pairs.contains("all 3 pairs of 3 runs"), "{pairs}");

        // Usage errors: no mode, and both modes at once.
        let err = run_cli(&["compare-many", "--runs", &runs_arg]).unwrap_err();
        assert!(err.to_string().contains("--baseline"), "{err}");
        let err = run_cli(&[
            "compare-many",
            "--runs",
            &runs_arg,
            "--baseline",
            baseline.to_str().unwrap(),
            "--all-pairs",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn info_describes_all_formats() {
        let dir = temp_dir("info");
        let raw = dir.join("raw.f32");
        write_raw_f32(&raw, &[1.0, 2.0, 3.0]);
        let out = run_cli(&["info", "--input", raw.to_str().unwrap()]).unwrap();
        assert!(out.contains("3 values"), "{out}");

        let tree = dir.join("raw.tree");
        run_cli(&[
            "create-tree",
            "--input",
            raw.to_str().unwrap(),
            "--output",
            tree.to_str().unwrap(),
            "--chunk-bytes",
            "4",
        ])
        .unwrap();
        let out = run_cli(&["info", "--input", tree.to_str().unwrap()]).unwrap();
        assert!(out.contains("Merkle tree metadata"), "{out}");
        assert!(out.contains("leaves 3"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn history_command_finds_first_divergent_iteration() {
        let dir = temp_dir("history");
        for (sub, seed) in [("a", "1"), ("b", "2")] {
            run_cli(&[
                "simulate",
                "--out-dir",
                dir.join(sub).to_str().unwrap(),
                "--particles",
                "512",
                "--steps",
                "20",
                "--ranks",
                "2",
                "--order-seed",
                seed,
            ])
            .unwrap();
        }
        // Loose bound: full agreement.
        let out = run_cli(&[
            "history",
            "--run1-dir",
            dir.join("a/pfs").to_str().unwrap(),
            "--run2-dir",
            dir.join("b/pfs").to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1.0",
        ])
        .unwrap();
        assert!(out.contains("8 checkpoint pairs"), "{out}");
        assert!(out.contains("agree within the bound"), "{out}");

        // Tight bound: divergence localized to an iteration.
        let out = run_cli(&[
            "history",
            "--run1-dir",
            dir.join("a/pfs").to_str().unwrap(),
            "--run2-dir",
            dir.join("b/pfs").to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-12",
        ])
        .unwrap();
        assert!(out.contains("diverge from iteration"), "{out}");

        // Directories covering different checkpoint sets are an error.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let err = run_cli(&[
            "history",
            "--run1-dir",
            dir.join("a/pfs").to_str().unwrap(),
            "--run2-dir",
            empty.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("different (rank, iteration)"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_command_bisects_tracks_and_replays_frames() {
        let dir = temp_dir("analyze");
        for (sub, seed) in [("a", "1"), ("b", "2")] {
            run_cli(&[
                "simulate",
                "--out-dir",
                dir.join(sub).to_str().unwrap(),
                "--particles",
                "512",
                "--steps",
                "20",
                "--ranks",
                "1",
                "--order-seed",
                seed,
            ])
            .unwrap();
        }
        let dir1 = dir.join("a/pfs");
        let dir2 = dir.join("b/pfs");
        let base_args = |bound: &str| {
            vec![
                "analyze".to_owned(),
                "--run1-dir".to_owned(),
                dir1.to_str().unwrap().to_owned(),
                "--run2-dir".to_owned(),
                dir2.to_str().unwrap().to_owned(),
                "--chunk-bytes".to_owned(),
                "256".to_owned(),
                "--error-bound".to_owned(),
                bound.to_owned(),
            ]
        };

        // Loose bound: clean → exit 0 (Ok) and a clean verdict.
        let out = crate::run(&base_args("1.0")).unwrap();
        assert!(out.contains("bisection: no divergence"), "{out}");
        assert!(out.contains("front: clean"), "{out}");
        assert!(out.contains("agree within the bound"), "{out}");

        // Tight bound: divergent → exit 1 (Failed) with the forensics.
        let err = crate::run(&base_args("1e-12")).unwrap_err();
        let CliError::Failed(out) = err else {
            panic!("divergence must exit 1, got {err:?}");
        };
        assert!(out.contains("first divergence at iteration"), "{out}");
        assert!(out.contains("stage-1 probes"), "{out}");
        assert!(out.contains("front:"), "{out}");
        // Canonical checkpoints carry region names (x/y/z/...).
        assert!(out.contains("per region at the boundary:"), "{out}");
        assert!(out.contains("the runs diverge beyond the bound"), "{out}");

        // --json: the DivergenceReport schema, still exit 1.
        let mut args = base_args("1e-12");
        args.push("--json".to_owned());
        let CliError::Failed(json) = crate::run(&args).unwrap_err() else {
            panic!("divergent --json must exit 1");
        };
        for key in [
            "\"schema_version\": 1",
            "\"divergent\": true",
            "\"bisection\"",
            "\"front\"",
            "\"regions\"",
            "\"boundary\"",
        ] {
            assert!(json.contains(key), "missing {key}: {json}");
        }
        assert!(
            !json.contains("RESULT"),
            "json mode must not mix prose: {json}"
        );

        // --keys: frame replay, no terminal needed.
        let mut args = base_args("1e-12");
        args.extend(["--keys".to_owned(), "t q".to_owned()]);
        let CliError::Failed(frames) = crate::run(&args).unwrap_err() else {
            panic!("divergent --keys must exit 1");
        };
        assert!(frames.contains("--- frame 0 ---"), "{frames}");
        assert!(frames.contains("merkle tree"), "{frames}");
        assert!(frames.contains("heatmap"), "{frames}");

        // --regions overrides the layout-derived map; bad specs are
        // usage errors (exit 2).
        let mut args = base_args("1e-12");
        args.extend(["--regions".to_owned(), "pos:f80:12".to_owned()]);
        let err = crate::run(&args).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_command_reads_store_backed_histories() {
        let dir = temp_dir("analyze-store");
        let store = dir.join("store");
        let store_arg = store.to_str().unwrap().to_owned();
        for (name, seed) in [("run1", "1"), ("run2", "2")] {
            run_cli(&[
                "simulate",
                "--out-dir",
                dir.to_str().unwrap(),
                "--particles",
                "512",
                "--steps",
                "20",
                "--ranks",
                "1",
                "--order-seed",
                seed,
                "--run-name",
                name,
            ])
            .unwrap();
        }
        // Ingest every captured iteration of both runs: versions form
        // the store-backed history.
        for name in ["run1", "run2"] {
            for version in ["000004", "000008", "000012", "000016"] {
                let ckpt = dir.join(format!("pfs/{name}.rank0.v{version}.ckpt"));
                assert!(ckpt.exists(), "{}", ckpt.display());
                run_cli(&[
                    "ingest",
                    "--store",
                    &store_arg,
                    "--input",
                    ckpt.to_str().unwrap(),
                    "--chunk-bytes",
                    "256",
                ])
                .unwrap();
            }
        }
        let CliError::Failed(out) = crate::run(&[
            "analyze".to_owned(),
            "--store".to_owned(),
            store_arg.clone(),
            "--run1".to_owned(),
            "run1.rank0".to_owned(),
            "--run2".to_owned(),
            "run2.rank0".to_owned(),
            "--chunk-bytes".to_owned(),
            "256".to_owned(),
            "--error-bound".to_owned(),
            "1e-12".to_owned(),
        ])
        .unwrap_err() else {
            panic!("divergent store-backed analyze must exit 1");
        };
        assert!(out.contains("analyzed 4 iterations × 1 ranks"), "{out}");
        assert!(out.contains("first divergence at iteration"), "{out}");
        // The store manifest names the checkpoint fields.
        assert!(out.contains("per region at the boundary:"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gate_passes_reproductions_and_fails_regressions() {
        let dir = temp_dir("gate");
        let golden: Vec<f32> = (0..2_000).map(|i| (i as f32 * 0.01).sin()).collect();
        let golden_path = dir.join("golden.f32");
        write_raw_f32(&golden_path, &golden);
        let tree_path = dir.join("golden.tree");
        run_cli(&[
            "create-tree",
            "--input",
            golden_path.to_str().unwrap(),
            "--output",
            tree_path.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-4",
        ])
        .unwrap();

        // Bitwise reproduction: PASS, metadata only.
        let cand = dir.join("cand.f32");
        write_raw_f32(&cand, &golden);
        let out = run_cli(&[
            "gate",
            "--golden-tree",
            tree_path.to_str().unwrap(),
            "--candidate",
            cand.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("metadata only"), "{out}");

        // Sub-tolerance drift that straddles the grid: PASS only when
        // golden data is available to clear the false positive.
        let mut drifted = golden.clone();
        for v in &mut drifted {
            *v += 4e-5; // under the 1e-4 bound
        }
        write_raw_f32(&cand, &drifted);
        let res = run_cli(&[
            "gate",
            "--golden-tree",
            tree_path.to_str().unwrap(),
            "--candidate",
            cand.to_str().unwrap(),
            "--golden-data",
            golden_path.to_str().unwrap(),
        ]);
        let out = res.unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("all 32 chunks verified"), "{out}");

        // A real regression: FAIL with localization.
        let mut broken = golden.clone();
        broken[777] += 0.5;
        write_raw_f32(&cand, &broken);
        let err = run_cli(&[
            "gate",
            "--golden-tree",
            tree_path.to_str().unwrap(),
            "--candidate",
            cand.to_str().unwrap(),
            "--golden-data",
            golden_path.to_str().unwrap(),
        ])
        .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("FAIL"), "{msg}");
        assert!(msg.contains("[777]"), "{msg}");

        // Without golden data the regression still fails (tree-only).
        let err = run_cli(&[
            "gate",
            "--golden-tree",
            tree_path.to_str().unwrap(),
            "--candidate",
            cand.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("chunks differ"), "{err}");

        // Geometry mismatch is an error, not a FAIL verdict.
        let short = dir.join("short.f32");
        write_raw_f32(&short, &golden[..100]);
        let err = run_cli(&[
            "gate",
            "--golden-tree",
            tree_path.to_str().unwrap(),
            "--candidate",
            short.to_str().unwrap(),
        ])
        .unwrap_err();
        assert!(err.to_string().contains("describes"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn census_counts_halos_in_a_simulated_checkpoint() {
        let dir = temp_dir("census");
        run_cli(&[
            "simulate",
            "--out-dir",
            dir.to_str().unwrap(),
            "--particles",
            "1024",
            "--steps",
            "10",
            "--ranks",
            "1",
        ])
        .unwrap();
        let ckpt = dir.join("pfs/run.rank0.v000008.ckpt");
        assert!(ckpt.exists());
        let out = run_cli(&[
            "census",
            "--input",
            ckpt.to_str().unwrap(),
            "--linking-length",
            "0.06",
            "--min-members",
            "4",
        ])
        .unwrap();
        assert!(out.contains("halos found:"), "{out}");
        assert!(out.contains("1024 particles"), "{out}");

        // Raw f32 files are rejected with a helpful message.
        let raw = dir.join("raw.f32");
        write_raw_f32(&raw, &[1.0, 2.0, 3.0]);
        let err = run_cli(&["census", "--input", raw.to_str().unwrap()]).unwrap_err();
        assert!(err.to_string().contains("x/y/z"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_workflow_ingest_compare_gc_scrub() {
        let dir = temp_dir("store");
        let store = dir.join("store");
        let store_arg = store.to_str().unwrap().to_owned();
        // Two simulated runs whose checkpoints share most chunks.
        for (name, seed) in [("run1", "1"), ("run2", "2")] {
            run_cli(&[
                "simulate",
                "--out-dir",
                dir.to_str().unwrap(),
                "--particles",
                "512",
                "--steps",
                "20",
                "--ranks",
                "1",
                "--order-seed",
                seed,
                "--run-name",
                name,
            ])
            .unwrap();
        }
        let c1 = dir.join("pfs/run1.rank0.v000016.ckpt");
        let c2 = dir.join("pfs/run2.rank0.v000016.ckpt");

        // Ingest both; the object keys come from the file names.
        let out = run_cli(&[
            "ingest",
            "--store",
            &store_arg,
            "--input",
            c1.to_str().unwrap(),
            "--chunk-bytes",
            "256",
        ])
        .unwrap();
        assert!(out.contains("ingested run1.rank0@16"), "{out}");
        assert!(out.contains("logical"), "{out}");
        let out = run_cli(&[
            "ingest",
            "--store",
            &store_arg,
            "--input",
            c2.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--with-meta",
            "--error-bound",
            "1e-12",
        ])
        .unwrap();
        assert!(out.contains("ingested run2.rank0@16"), "{out}");
        assert!(out.contains("metadata stored"), "{out}");

        // Re-ingesting the same key is an idempotent no-op.
        let out = run_cli(&[
            "ingest",
            "--store",
            &store_arg,
            "--input",
            c1.to_str().unwrap(),
            "--chunk-bytes",
            "256",
        ])
        .unwrap();
        assert!(out.contains("idempotent"), "{out}");

        // Store-backed compare matches the file-backed comparison on
        // every deterministic field (the store block is additive).
        let from_store = run_cli(&[
            "compare",
            "--run1",
            "run1.rank0@16",
            "--run2",
            "run2.rank0@16",
            "--store",
            &store_arg,
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-12",
        ])
        .unwrap();
        let from_files = run_cli(&[
            "compare",
            "--run1",
            c1.to_str().unwrap(),
            "--run2",
            c2.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-12",
        ])
        .unwrap();
        assert!(
            from_store.contains("differ beyond the bound"),
            "{from_store}"
        );
        assert!(from_store.contains("store:"), "{from_store}");
        assert!(!from_files.contains("store:"), "{from_files}");
        // Region attribution survives the store round-trip.
        assert!(from_store.contains("per field:"), "{from_store}");
        let verdict = |text: &str| {
            text.lines()
                .find(|l| l.starts_with("RESULT"))
                .map(str::to_owned)
        };
        assert_eq!(verdict(&from_store), verdict(&from_files));

        // A bare name resolves to the newest version.
        let latest = run_cli(&[
            "compare",
            "--run1",
            "run1.rank0",
            "--run2",
            "run1.rank0@16",
            "--store",
            &store_arg,
            "--chunk-bytes",
            "256",
        ])
        .unwrap();
        assert!(latest.contains("agree within the bound"), "{latest}");

        // compare-many over store specs engages the batch scheduler.
        let many = run_cli(&[
            "compare-many",
            "--store",
            &store_arg,
            "--baseline",
            "run1.rank0@16",
            "--runs",
            "run2.rank0@16",
            "--chunk-bytes",
            "256",
            "--error-bound",
            "1e-12",
        ])
        .unwrap();
        assert!(many.contains("1 run(s) against baseline"), "{many}");
        assert!(many.contains("store:"), "{many}");

        // The ledger balances store-wide.
        let stats = run_cli(&["store-stats", "--store", &store_arg]).unwrap();
        assert!(stats.contains("2 object(s)"), "{stats}");
        assert!(stats.contains("run1.rank0@16"), "{stats}");

        // remove + gc reclaims; scrub stays clean afterwards.
        run_cli(&[
            "store-remove",
            "--store",
            &store_arg,
            "--run",
            "run2.rank0@16",
        ])
        .unwrap();
        let gc = run_cli(&["gc", "--store", &store_arg]).unwrap();
        assert!(gc.contains("gc:"), "{gc}");
        let scrub = run_cli(&["scrub", "--store", &store_arg]).unwrap();
        assert!(scrub.contains("store is clean"), "{scrub}");

        // Flip one bit in a pack: scrub must fail with a non-zero exit.
        let packs = store.join("packs");
        let pack = std::fs::read_dir(&packs)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "pack"))
            .expect("a pack survives gc");
        let mut bytes = std::fs::read(&pack).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x04;
        std::fs::write(&pack, bytes).unwrap();
        let err = run_cli(&["scrub", "--store", &store_arg]).unwrap_err();
        assert!(
            err.to_string().contains("do not match their digest"),
            "{err}"
        );

        // --tree1 with --store is a usage error.
        let err = run_cli(&[
            "compare", "--run1", "a", "--run2", "b", "--store", &store_arg, "--tree1", "x.tree",
        ])
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ingest_dedups_across_runs_and_raw_files_work() {
        let dir = temp_dir("ingest-raw");
        let store = dir.join("store");
        let store_arg = store.to_str().unwrap().to_owned();
        let base: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.01).cos()).collect();
        let a = dir.join("a.f32");
        write_raw_f32(&a, &base);

        let first = run_cli(&[
            "ingest",
            "--store",
            &store_arg,
            "--input",
            a.to_str().unwrap(),
            "--chunk-bytes",
            "256",
            "--json",
        ])
        .unwrap();
        // Same bytes under a different key: zero physical growth.
        let second = run_cli(&[
            "ingest",
            "--store",
            &store_arg,
            "--input",
            a.to_str().unwrap(),
            "--name",
            "twin",
            "--version",
            "7",
            "--chunk-bytes",
            "256",
            "--json",
        ])
        .unwrap();
        let field = |s: &str, key: &str| -> u64 {
            let stats = serde_json::from_str(s).unwrap();
            stats.get(key).and_then(serde::Value::as_u64).unwrap()
        };
        assert!(field(&first, "bytes_physical") > 0, "{first}");
        assert_eq!(field(&second, "bytes_physical"), 0, "{second}");
        assert_eq!(
            field(&second, "bytes_deduped"),
            field(&second, "bytes_logical"),
            "{second}"
        );

        // Raw objects compare out of the store too.
        let out = run_cli(&[
            "compare",
            "--run1",
            "a@0",
            "--run2",
            "twin@7",
            "--store",
            &store_arg,
            "--chunk-bytes",
            "256",
        ])
        .unwrap();
        assert!(out.contains("agree within the bound"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn usage_errors_are_helpful() {
        assert!(matches!(run_cli(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run_cli(&["frobnicate"]), Err(CliError::Usage(_))));
        let err = run_cli(&["compare", "--run1", "only.f32"]).unwrap_err();
        assert!(err.to_string().contains("run2"));
        let help = run_cli(&["help"]).unwrap();
        assert!(help.contains("create-tree"));
    }

    #[test]
    fn compare_with_precomputed_trees() {
        let dir = temp_dir("trees");
        let a = dir.join("a.f32");
        let b = dir.join("b.f32");
        let base: Vec<f32> = (0..4096).map(|i| (i as f32).sqrt()).collect();
        write_raw_f32(&a, &base);
        write_raw_f32(&b, &base);
        let ta = dir.join("a.tree");
        let tb = dir.join("b.tree");
        for (f, t) in [(&a, &ta), (&b, &tb)] {
            run_cli(&[
                "create-tree",
                "--input",
                f.to_str().unwrap(),
                "--output",
                t.to_str().unwrap(),
            ])
            .unwrap();
        }
        let out = run_cli(&[
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--tree1",
            ta.to_str().unwrap(),
            "--tree2",
            tb.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("agree within the bound"), "{out}");
        assert!(out.contains("0 false positives"), "{out}");
        // One tree is not enough to prune: every chunk is verified.
        let out = run_cli(&[
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--tree1",
            ta.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            out.contains("no ε-metadata: all 4 chunks verified"),
            "{out}"
        );
        assert!(!out.contains("false positives"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_command_writes_a_chrome_trace_and_flamegraph() {
        let dir = temp_dir("trace");
        let a = dir.join("a.f32");
        let b = dir.join("b.f32");
        let base: Vec<f32> = (0..2048).map(|i| (i as f32 * 0.01).sin()).collect();
        let mut tweaked = base.clone();
        tweaked[77] += 1.0;
        write_raw_f32(&a, &base);
        write_raw_f32(&b, &tweaked);

        let trace = dir.join("trace.json");
        let out = run_cli(&[
            "trace",
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--chunk-bytes",
            "128",
            "--error-bound",
            "1e-3",
            "--out",
            trace.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("events emitted"), "{out}");
        let body = std::fs::read_to_string(&trace).unwrap();
        assert!(body.contains("\"traceEvents\""), "{body}");
        assert!(
            body.contains("chunk_read"),
            "no chunk reads in trace: {body}"
        );

        // `compare --flamegraph` writes folded stacks with the root span.
        let flame = dir.join("stacks.folded");
        run_cli(&[
            "compare",
            "--run1",
            a.to_str().unwrap(),
            "--run2",
            b.to_str().unwrap(),
            "--chunk-bytes",
            "128",
            "--error-bound",
            "1e-3",
            "--flamegraph",
            flame.to_str().unwrap(),
        ])
        .unwrap();
        let folded = std::fs::read_to_string(&flame).unwrap();
        assert!(folded.contains("compare"), "{folded}");

        // Only `compare` can be traced, and the inner command is required.
        assert!(matches!(run_cli(&["trace"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run_cli(&["trace", "info", "--input", "x"]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn perf_diff_gates_on_regressions() {
        use reprocmp_obs::{PhaseCost, ProfileBaseline, StageBreakdown};
        use std::time::Duration;

        let dir = temp_dir("perfdiff");
        let stages = |verify_ms: u64| StageBreakdown {
            verify: PhaseCost::new(Duration::from_millis(verify_ms), 1 << 20, 256),
            ..StageBreakdown::default()
        };
        let old = dir.join("old.json");
        let same = dir.join("same.json");
        let slow = dir.join("slow.json");
        std::fs::write(&old, ProfileBaseline::new(stages(100)).to_json()).unwrap();
        std::fs::write(&same, ProfileBaseline::new(stages(104)).to_json()).unwrap();
        std::fs::write(&slow, ProfileBaseline::new(stages(200)).to_json()).unwrap();

        let ok = run_cli(&[
            "perf-diff",
            old.to_str().unwrap(),
            same.to_str().unwrap(),
            "--budget",
            "10%",
        ])
        .unwrap();
        assert!(ok.contains("PASS"), "{ok}");

        let err = run_cli(&[
            "perf-diff",
            old.to_str().unwrap(),
            slow.to_str().unwrap(),
            "--budget",
            "10%",
        ])
        .unwrap_err();
        assert!(matches!(&err, CliError::Failed(_)), "{err:?}");
        assert!(err.to_string().contains("verify"), "{err}");

        // Positional parsing: fewer than two files is a usage error.
        assert!(matches!(
            run_cli(&["perf-diff", old.to_str().unwrap()]),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_submit_status_watch_over_tcp() {
        let dir = temp_dir("serve");
        let v1: Vec<f32> = (0..256).map(|i| (i as f32) * 0.01).collect();
        let mut v2 = v1.clone();
        v2[100] += 0.5;
        write_raw_f32(&dir.join("v1.bin"), &v1);
        write_raw_f32(&dir.join("v2.bin"), &v2);

        // Terminal 1: the daemon, on an OS-assigned port published
        // through --addr-file.
        let store = dir.join("store");
        let addr_file = dir.join("addr");
        let serve_args: Vec<String> = [
            "serve",
            "--store",
            store.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--workers",
            "2",
        ]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
        let daemon = std::thread::spawn(move || crate::run(&serve_args));
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if !text.is_empty() {
                    break text;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        };

        // Terminal 2: ingest both versions, compare them, inspect.
        for (file, version) in [("v1.bin", "1"), ("v2.bin", "2")] {
            let out = run_cli(&[
                "submit",
                "--addr",
                &addr,
                "--input",
                dir.join(file).to_str().unwrap(),
                "--name",
                "run",
                "--version",
                version,
                "--chunk-bytes",
                "256",
            ])
            .unwrap();
            assert!(out.contains("done"), "{out}");
            assert!(out.contains("chunks_stored"), "{out}");
        }
        let compared = run_cli(&[
            "submit", "--addr", &addr, "--run1", "run@1", "--run2", "run@2",
        ])
        .unwrap();
        assert!(compared.contains("job 3: done"), "{compared}");
        assert!(compared.contains("differences"), "{compared}");

        let status = run_cli(&["status", "--addr", &addr, "--job", "3", "--wait"]).unwrap();
        assert!(status.contains("job 3: done"), "{status}");

        let watched = run_cli(&["watch", "--addr", &addr, "--job", "3"]).unwrap();
        assert!(watched.contains("events emitted"), "{watched}");

        // --no-wait answers with the accepted id alone.
        let nowait = run_cli(&[
            "submit",
            "--addr",
            &addr,
            "--materialize",
            "run@1",
            "--no-wait",
        ])
        .unwrap();
        assert!(nowait.contains("job 4 accepted"), "{nowait}");

        // Bad shapes are usage errors, not hangs.
        assert!(matches!(
            run_cli(&["submit", "--addr", &addr]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(&["status", "--addr", &addr]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run_cli(&["submit", "--addr", &addr, "--run1", "bare", "--run2", "run@2"]),
            Err(CliError::Usage(_))
        ));

        // Stop the daemon; serve drains and returns.
        let mut session =
            reprocmp_server::ServerClient::connect(addr.parse().unwrap(), "cli").unwrap();
        session.shutdown_server().unwrap();
        drop(session);
        let out = daemon.join().unwrap().unwrap();
        assert!(out.contains("server stopped"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
