//! Per-layer probes: every layer timed from here, around its public
//! calls, on fixed-size probe inputs built from the run's seed.
//!
//! The probes are the same whatever workload the traced run belongs
//! to, so a layer's numbers can be read off any of the five runs. Each
//! probe takes the median of a few repetitions; inputs are many times
//! L2 so the rates are memory rates, not cache rates.

use std::path::Path;
use std::time::Instant;

use crate::gen::{self, SplitMix64, CHUNK_BYTES, CHUNK_VALUES};
use crate::runner::{Metric, RunConfig, RunOutput};
use crate::stats::median;
use crate::surface::{self as sys, Res};
use crate::trace::Tracer;
use crate::workloads::capture::{cli_create_tree, replay_create_tree};
use crate::workloads::compare::PairFiles;
use crate::workloads::daemon_mix::Fixture;
use crate::workloads::store_cycle::{self, cli_ingest, replay_ingest};
use crate::workloads::{fresh_dir, read_file, write_file};

/// Payload of the probe checkpoints: the file workloads' 16 MiB, so
/// probe and replay numbers are of one size.
const PROBE_VALUES: usize = crate::workloads::capture::CKPT_VALUES;
/// Payload of the store probes' checkpoints.
const STORE_VALUES: usize = 1 << 20; // 4 MiB
/// Objects the daemon probes address.
const DAEMON_VALUES: usize = 256 << 10; // 1 MiB
const REPS: usize = 3;
const JOB_REPS: usize = 5;
/// A model that is off from wall-clock by more than this gets a warning.
const MODEL_TOLERANCE: f64 = 2.0;

/// Seconds one call of `f` takes, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `reps` calls of `f`; the first error ends it.
fn median_secs(reps: usize, mut f: impl FnMut() -> Res<()>) -> Res<f64> {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, secs) = timed(&mut f);
        out?;
        times.push(secs);
    }
    Ok(median(&times))
}

fn gbps(bytes: u64, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

struct Probes {
    out: RunOutput,
}

impl Probes {
    fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.out.metrics.push(Metric::new(name, unit, value));
    }

    /// Counts one checked output.
    fn checked(&mut self, outcome: Res<()>) {
        self.out.attempted += 1;
        if let Err(e) = outcome {
            self.out.failed += 1;
            self.out.first_failure.get_or_insert(e);
        }
    }

    /// Modeled time next to measured time, with a warning when the
    /// model is off by more than [`MODEL_TOLERANCE`].
    fn modeled(&mut self, name: &str, what: &str, modeled_secs: f64, wall_secs: f64) {
        let ratio = modeled_secs / wall_secs;
        self.push(name, "ratio", ratio);
        if !(1.0 / MODEL_TOLERANCE..=MODEL_TOLERANCE).contains(&ratio) {
            self.out.notes.push(format!(
                "WARNING: {what}: modeled {:.3} ms vs measured {:.3} ms wall-clock \
                 (x{ratio:.4}); the model is off by more than {MODEL_TOLERANCE}x",
                modeled_secs * 1e3,
                wall_secs * 1e3,
            ));
        }
    }
}

pub fn probe_all(cfg: &RunConfig, dir: &Path) -> Res<RunOutput> {
    let dir = fresh_dir(dir)?;
    let mut p = Probes {
        out: RunOutput::default(),
    };
    let rng = SplitMix64::new(cfg.seed).fork(0x1a7e5);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sparse = PairFiles::create(&dir, "sparse", &mut rng.fork(1), PROBE_VALUES, gen::SPARSE)?;
    let dense = PairFiles::create(&dir, "dense", &mut rng.fork(2), PROBE_VALUES, gen::DENSE)?;
    let engine = sys::engine();

    hash_and_device(&mut p, &sparse.a, &engine, nproc)?;
    let flagged = merkle(&mut p, &sparse, &dense, &engine, nproc)?;
    io_and_veloc(&mut p, &sparse, &flagged)?;
    core(&mut p, &sparse, &dense, &engine)?;
    cli_overheads(&mut p, &dir, &sparse, &dense, &engine)?;
    store(&mut p, &dir, &mut rng.fork(3), &engine)?;
    server(&mut p, &dir, &mut rng.fork(4))?;

    let _ = std::fs::remove_dir_all(&dir);
    Ok(p.out)
}

fn hash_and_device(p: &mut Probes, values: &[f32], engine: &sys::Engine, nproc: usize) -> Res<()> {
    let hasher = sys::hasher();
    let bytes = (values.len() * 4) as u64;

    let mut codes = Vec::new();
    let t = median_secs(REPS, || {
        sys::quantize_to_bytes(&hasher, values, &mut codes);
        Ok(())
    })?;
    p.push("hash.quantize_gbps", "GB/s", gbps(bytes, t));

    // One call per chunk's worth of codes, as the tree builder makes.
    let t = median_secs(REPS, || {
        for chunk in codes.chunks(CHUNK_VALUES * 8) {
            std::hint::black_box(sys::hash_quantized_bytes(&hasher, chunk));
        }
        Ok(())
    })?;
    p.push("hash.chain_hash_gbps", "GB/s", gbps(codes.len() as u64, t));
    drop(codes);

    let t = median_secs(REPS, || {
        std::hint::black_box(sys::hash_leaves(&hasher, values, CHUNK_VALUES).len());
        Ok(())
    })?;
    p.push("hash.leaf_hash_gbps", "GB/s", gbps(bytes, t));

    let raw = gen::le_bytes(values);
    let t = median_secs(REPS, || {
        for chunk in raw.chunks(CHUNK_BYTES) {
            std::hint::black_box(sys::raw_chunk_digest(chunk));
        }
        Ok(())
    })?;
    p.push("hash.raw_digest_gbps", "GB/s", gbps(bytes, t));
    drop(raw);

    let build = |exec| {
        median_secs(REPS, || {
            std::hint::black_box(sys::build_from_f32(values, &hasher, exec).node_count());
            Ok(())
        })
    };
    let (serial, parallel) = (
        build(sys::Exec::Serial)?,
        build(sys::Exec::Parallel(nproc))?,
    );
    p.push("device.leaf_kernel_speedup", "ratio", serial / parallel);

    let t = median_secs(REPS, || {
        std::hint::black_box(sys::build_metadata(engine, values).node_count());
        Ok(())
    })?;
    p.push("core.build_metadata_gbps", "GB/s", gbps(bytes, t));
    // The model's charge for the same call is a deterministic sum.
    let modeled = sys::modeled_capture_time(engine, values);
    p.modeled(
        "device.modeled_over_wall_capture",
        "capture (A100 model)",
        modeled.as_secs_f64(),
        t,
    );
    Ok(())
}

/// Returns the sparse and dense flagged-chunk lists for the I/O probes.
fn merkle(
    p: &mut Probes,
    sparse: &PairFiles,
    dense: &PairFiles,
    engine: &sys::Engine,
    nproc: usize,
) -> Res<[Vec<usize>; 2]> {
    let hasher = sys::hasher();
    let leaves = sys::hash_leaves(&hasher, &sparse.a, CHUNK_VALUES);
    let data_len = (sparse.a.len() * 4) as u64;
    let t = median_secs(REPS, || {
        let tree = sys::tree_from_leaves(leaves.clone(), data_len, sys::Exec::Parallel(nproc));
        std::hint::black_box(tree.node_count());
        Ok(())
    })?;
    p.push("merkle.level_build_ms", "ms", t * 1e3);

    let tree = sys::tree_from_leaves(leaves, data_len, sys::Exec::Parallel(nproc));
    let mut encoded = Vec::new();
    let t = median_secs(REPS, || {
        encoded = sys::encode_tree(&tree);
        Ok(())
    })?;
    p.push("merkle.encode_ms", "ms", t * 1e3);
    p.checked(if encoded == read_file(&sparse.tree1)? {
        Ok(())
    } else {
        Err("tree_from_leaves(hash_leaves) does not encode to create-tree's file".to_owned())
    });
    let t = median_secs(REPS, || {
        sys::decode_tree(&encoded).map(|t| drop(std::hint::black_box(t)))
    })?;
    p.push("merkle.decode_ms", "ms", t * 1e3);

    let mut flagged = [Vec::new(), Vec::new()];
    for (i, (pair, tag)) in [(sparse, "sparse"), (dense, "dense")]
        .into_iter()
        .enumerate()
    {
        let a = sys::decode_tree(&read_file(&pair.tree1)?)?;
        let b = sys::decode_tree(&read_file(&pair.tree2)?)?;
        let mut outcome = None;
        let t = median_secs(REPS, || {
            outcome = Some(sys::compare_trees(&a, &b, engine)?);
            Ok(())
        })?;
        let outcome = outcome.expect("REPS >= 1");
        p.push(&format!("merkle.bfs_{tag}_ms"), "ms", t * 1e3);
        p.push(
            &format!("merkle.bfs_visited_share_{tag}"),
            "share",
            outcome.nodes_visited as f64 / a.node_count() as f64,
        );
        // Zero false negatives at stage one: every truly different
        // chunk must be on the work list.
        let missed = pair
            .truth
            .different_chunks
            .iter()
            .filter(|c| outcome.flagged.binary_search(&(**c as usize)).is_err())
            .count();
        p.checked(if missed == 0 {
            Ok(())
        } else {
            Err(format!(
                "BFS missed {missed} truly different chunks ({tag})"
            ))
        });
        flagged[i] = outcome.flagged;
    }
    Ok(flagged)
}

fn io_and_veloc(p: &mut Probes, pair: &PairFiles, flagged: &[Vec<usize>; 2]) -> Res<()> {
    let image = read_file(&pair.run1)?;
    let t = median_secs(REPS, || {
        sys::decode_checkpoint(&image).map(|l| drop(std::hint::black_box(l)))
    })?;
    p.push("veloc.decode_checkpoint_ms", "ms", t * 1e3);
    let layout = sys::decode_checkpoint(&image)?;
    let t = median_secs(REPS, || {
        std::hint::black_box(sys::encode_checkpoint(1, &gen::regions(&pair.a)).len());
        Ok(())
    })?;
    p.push(
        "veloc.encode_checkpoint_gbps",
        "GB/s",
        gbps(image.len() as u64, t),
    );
    drop(image);

    let file = sys::open_file(&pair.run1)?;
    let len = sys::storage_len(&file);
    let mut block = vec![0u8; 4 << 20];
    let t = median_secs(REPS, || {
        let mut at = 0u64;
        while at < len {
            let n = (len - at).min(block.len() as u64) as usize;
            sys::read_at(&file, at, &mut block[..n])?;
            at += n as u64;
        }
        Ok(())
    })?;
    p.push("io.seq_read_gbps", "GB/s", gbps(len, t));

    let ops = |chunks: &[usize]| -> Vec<(u64, usize)> {
        chunks
            .iter()
            .map(|c| {
                (
                    (layout.payload_offset + c * CHUNK_BYTES) as u64,
                    CHUNK_BYTES,
                )
            })
            .collect()
    };
    let (scatter, stream) = (ops(&flagged[0]), ops(&flagged[1]));
    let t = median_secs(REPS, || sys::stream_read(&file, scatter.clone()).map(drop))?;
    p.push("io.scatter_read_ops_per_s", "1/s", scatter.len() as f64 / t);
    let t = median_secs(REPS, || sys::stream_read(&file, stream.clone()).map(drop))?;
    p.push(
        "io.stream_read_gbps",
        "GB/s",
        gbps((stream.len() * CHUNK_BYTES) as u64, t),
    );
    Ok(())
}

/// `CompareEngine::compare` on files, `REPS` times; every phase's median.
fn engine_compare_medians(
    pair: &PairFiles,
    engine: &sys::Engine,
) -> Res<(sys::CompareSummary, f64)> {
    let layout = sys::decode_checkpoint(&read_file(&pair.run1)?)?;
    let open = |run: &Path, tree: &Path| {
        sys::source_from_files(
            run,
            layout.payload_offset as u64,
            layout.payload_len as u64,
            tree,
        )
    };
    let (a, b) = (
        open(&pair.run1, &pair.tree1)?,
        open(&pair.run2, &pair.tree2)?,
    );
    let mut runs = Vec::new();
    let wall = median_secs(REPS, || {
        runs.push(sys::engine_compare(engine, &a, &b)?);
        Ok(())
    })?;
    let mut summary = runs[0];
    let med = |f: fn(&sys::CompareSummary) -> std::time::Duration| {
        let secs: Vec<f64> = runs.iter().map(|r| f(r).as_secs_f64()).collect();
        std::time::Duration::from_secs_f64(median(&secs))
    };
    summary.read_meta = med(|r| r.read_meta);
    summary.deserialize = med(|r| r.deserialize);
    summary.bfs = med(|r| r.bfs);
    summary.stage2_stream = med(|r| r.stage2_stream);
    summary.verify = med(|r| r.verify);
    summary.phases_total = med(|r| r.phases_total);
    Ok((summary, wall))
}

fn core(p: &mut Probes, sparse: &PairFiles, dense: &PairFiles, engine: &sys::Engine) -> Res<()> {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    let payload = (sparse.a.len() * 4) as f64;
    let mut dense_wall = 0.0;
    for (pair, tag) in [(sparse, "sparse"), (dense, "dense")] {
        let (s, wall) = engine_compare_medians(pair, engine)?;
        p.checked(pair.check_counts(s.diff_count, s.chunks_flagged, s.false_positive_chunks));
        p.push(&format!("core.engine_compare_{tag}_ms"), "ms", wall * 1e3);
        p.push(
            &format!("core.stage2_stream_{tag}_ms"),
            "ms",
            ms(s.stage2_stream),
        );
        p.push(
            &format!("core.reread_share_{tag}"),
            "share",
            s.bytes_reread as f64 / payload,
        );
        if tag == "sparse" {
            p.push("core.read_meta_ms", "ms", ms(s.read_meta));
            p.push("core.deserialize_ms", "ms", ms(s.deserialize));
            p.push(
                "core.flag_precision_sparse",
                "share",
                pair.truth.different_chunks.len() as f64 / s.chunks_flagged.max(1) as f64,
            );
        } else {
            p.push(
                "core.verify_gbps",
                "GB/s",
                gbps(2 * s.bytes_reread, s.verify.as_secs_f64()),
            );
            p.push(
                "core.unattributed_share_dense",
                "share",
                (wall - s.phases_total.as_secs_f64()) / wall,
            );
            dense_wall = wall;
        }
    }
    let modeled = sys::modeled_compare_time(engine, &dense.a, &dense.b)?;
    p.modeled(
        "core.modeled_over_wall_compare_dense",
        "dense compare (lustre_pfs + A100 models)",
        modeled.as_secs_f64(),
        dense_wall,
    );
    Ok(())
}

/// The CLI op minus its replay as layer calls: what the CLI adds.
fn cli_overheads(
    p: &mut Probes,
    dir: &Path,
    sparse: &PairFiles,
    dense: &PairFiles,
    engine: &sys::Engine,
) -> Res<()> {
    let mut scratch = Tracer::new();
    let out = dir.join("overhead.tree");
    let cli = median_secs(REPS, || cli_create_tree(&sparse.run1, &out))?;
    let replay = median_secs(REPS, || {
        replay_create_tree(&sparse.run1, &out, engine, &mut scratch)
    })?;
    p.push("cli.create_tree_overhead_ms", "ms", (cli - replay) * 1e3);
    for (pair, tag) in [(sparse, "sparse"), (dense, "dense")] {
        let cli = median_secs(REPS, || {
            pair.cli_compare().and_then(|json| pair.check_json(&json))
        })?;
        let replay = median_secs(REPS, || pair.replay(engine, &mut scratch).map(drop))?;
        p.push(
            &format!("cli.compare_overhead_{tag}_ms"),
            "ms",
            (cli - replay) * 1e3,
        );
    }
    Ok(())
}

fn store(p: &mut Probes, dir: &Path, rng: &mut SplitMix64, engine: &sys::Engine) -> Res<()> {
    let v1 = gen::base_values(rng, STORE_VALUES);
    let (v2, _) = gen::churn(rng, &v1, 0.05, 8);
    let images = [
        sys::encode_checkpoint(1, &gen::regions(&v1)),
        sys::encode_checkpoint(2, &gen::regions(&v2)),
    ];
    let files = [dir.join("store.v1.ckpt"), dir.join("store.v2.ckpt")];
    for (file, image) in files.iter().zip(&images) {
        write_file(file, image)?;
    }
    let layouts = [
        sys::decode_checkpoint(&images[0])?,
        sys::decode_checkpoint(&images[1])?,
    ];
    let bytes = images[0].len() as u64;
    let name = store_cycle::NAME;

    // Every repetition gets a store of its own: a second ingest of the
    // same bytes into one store would only measure dedup.
    let meta = sys::encode_metadata(engine, &v1);
    let (mut full, mut delta, mut open, mut source, mut mat, mut scatter, mut reclaim) =
        (vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    let (mut skipped_share, mut ledgers_exact) = (0.0, true);
    for rep in 0..REPS {
        let root = dir.join(format!("probe-store-{rep}"));
        let store = sys::store_open(&root)?;
        let seg = |i: usize| sys::ingest_segments(&images[i], &layouts[i]);
        // The tree rides along as an opaque blob, as `--with-meta` stores it.
        let (l1, t) = timed(|| sys::store_ingest(&store, name, 1, &seg(0), &meta, false));
        full.push(t);
        let (l2, t) = timed(|| sys::store_ingest(&store, name, 2, &seg(1), &meta, true));
        delta.push(t);
        let (l1, l2) = (l1?, l2?);
        skipped_share = l2.skipped as f64 / l2.logical as f64;
        ledgers_exact &= l1.exact() && l2.exact() && sys::store_ledger(&store).exact();
        drop(store);

        let (store, t) = timed(|| sys::store_open(&root));
        open.push(t);
        let store = store?;
        let (src, t) = timed(|| sys::source_from_store(&store, name, 1, engine));
        source.push(t);
        drop(src?);
        let (got, t) = timed(|| sys::store_materialize(&store, name, 2));
        mat.push(t);
        p.checked(if got? == images[1] {
            Ok(())
        } else {
            Err("store probe: materialize is not byte-exact".to_owned())
        });

        let reader = sys::store_reader(&store, name, 2)?;
        let chunks = bytes / CHUNK_BYTES as u64;
        let mut at = SplitMix64::new(rep as u64);
        let mut buf = vec![0u8; CHUNK_BYTES];
        const READS: usize = 512;
        let ((), t) = timed(|| {
            for _ in 0..READS {
                let offset = at.below(chunks) * CHUNK_BYTES as u64;
                let _ = sys::store_reader_read(&reader, offset, &mut buf);
            }
        });
        scatter.push(t / READS as f64);
        drop(reader);

        let (gone, t) = timed(|| -> Res<u64> {
            sys::store_remove(&store, name, 2)?;
            sys::store_remove(&store, name, 1)?;
            sys::store_gc(&store)
        });
        reclaim.push(t);
        p.checked(match gone? {
            0 => Err("store probe: gc reclaimed nothing".to_owned()),
            _ => Ok(()),
        });
    }
    p.push("core.from_store_source_ms", "ms", median(&source) * 1e3);
    p.push("store.open_ms", "ms", median(&open) * 1e3);
    p.push("store.ingest_full_gbps", "GB/s", gbps(bytes, median(&full)));
    p.push(
        "store.ingest_delta_gbps",
        "GB/s",
        gbps(bytes, median(&delta)),
    );
    p.push("store.ingest_delta_skipped_share", "share", skipped_share);
    p.push("store.materialize_gbps", "GB/s", gbps(bytes, median(&mat)));
    p.push(
        "store.reader_scatter_ops_per_s",
        "1/s",
        1.0 / median(&scatter),
    );
    p.push("store.remove_gc_ms", "ms", median(&reclaim) * 1e3);
    p.push(
        "store.ledger_exact",
        "bool",
        f64::from(u8::from(ledgers_exact)),
    );
    p.checked(if ledgers_exact {
        Ok(())
    } else {
        Err("store probe: a ledger does not add up".to_owned())
    });

    let mut scratch = Tracer::new();
    let mut root_no = 0;
    let mut fresh_root = || {
        root_no += 1;
        dir.join(format!("probe-cli-store-{root_no}"))
    };
    let cli = median_secs(REPS, || {
        cli_ingest(&fresh_root(), &files[0], 1, false).map(drop)
    })?;
    let replay = median_secs(REPS, || {
        replay_ingest(&fresh_root(), &files[0], 1, false, engine, &mut scratch).map(drop)
    })?;
    p.push("store.cli_ingest_overhead_ms", "ms", (cli - replay) * 1e3);
    Ok(())
}

fn server(p: &mut Probes, dir: &Path, rng: &mut SplitMix64) -> Res<()> {
    let mut fx = Fixture::new(rng, DAEMON_VALUES);
    let daemon = sys::daemon_start(&dir.join("probe-daemon-store"))?;
    let result = server_probes(p, &daemon, &mut fx, rng);
    daemon.stop()?;
    result
}

fn server_probes(
    p: &mut Probes,
    daemon: &sys::Daemon,
    fx: &mut Fixture,
    rng: &mut SplitMix64,
) -> Res<()> {
    fx.seed(&mut sys::client_connect(daemon, "seed")?)?;
    fx.prepare_oracle();

    let mut version = 0u64;
    let mut jobs = |lane: &str| {
        version += 1;
        [
            ("compare", fx.compare_job()),
            ("ingest", fx.ingest_job(rng, lane, version)),
            ("materialize", fx.materialize_job(0)),
        ]
    };

    // Job alone; then over the in-process channel (adds codec, queue,
    // job table); then over loopback TCP (adds the transport).
    let mut exec = [vec![], vec![], vec![]];
    for _ in 0..JOB_REPS {
        for (i, (_, job)) in jobs("exec").iter().enumerate() {
            let (result, t) = timed(|| sys::execute_spec(daemon, job));
            p.checked(fx.check(Fixture::expect(job), &result).map(drop));
            exec[i].push(t);
        }
    }
    let mut rtt = |p: &mut Probes, mut client: sys::Client, lane: &str| -> Res<[Vec<f64>; 3]> {
        let mut times = [vec![], vec![], vec![]];
        for _ in 0..JOB_REPS {
            for (i, (_, job)) in jobs(lane).iter().enumerate() {
                let (result, t) = timed(|| client.submit(job).and_then(|id| client.wait(id)));
                p.checked(result.and_then(|r| fx.check(Fixture::expect(job), &r).map(drop)));
                times[i].push(t);
            }
        }
        Ok(times)
    };
    let channel = rtt(p, sys::client_channel(daemon, "chan")?, "chan")?;
    let tcp = rtt(p, sys::client_connect(daemon, "tcp")?, "tcp")?;
    for (i, verb) in ["compare", "ingest", "materialize"].iter().enumerate() {
        p.push(
            &format!("server.execute_{verb}_ms"),
            "ms",
            median(&exec[i]) * 1e3,
        );
        p.push(
            &format!("server.rtt_channel_{verb}_ms"),
            "ms",
            median(&channel[i]) * 1e3,
        );
        p.push(
            &format!("server.rtt_tcp_{verb}_ms"),
            "ms",
            median(&tcp[i]) * 1e3,
        );
    }
    let (admitted, refused) = daemon.admission();
    p.push(
        "server.refused_share",
        "share",
        refused as f64 / (admitted + refused).max(1) as f64,
    );

    let payload = &fx.bytes[0];
    let mut hex = String::new();
    let t = median_secs(REPS, || {
        hex = sys::hex_encode(payload);
        Ok(())
    })?;
    p.push(
        "server.hex_encode_gbps",
        "GB/s",
        gbps(payload.len() as u64, t),
    );
    let t = median_secs(REPS, || {
        sys::hex_decode(&hex).map(|b| drop(std::hint::black_box(b)))
    })?;
    p.push(
        "server.hex_decode_gbps",
        "GB/s",
        gbps(payload.len() as u64, t),
    );
    p.checked(match sys::hex_decode(&hex)? == *payload {
        true => Ok(()),
        false => Err("hex round trip lost bytes".to_owned()),
    });

    let frame = sys::encode_ingest_request("probe", 1, payload);
    let t = median_secs(REPS, || sys::decode_request(&frame).map(drop))?;
    p.push("server.request_decode_ms", "ms", t * 1e3);

    const ROUNDS: u64 = 200_000;
    let t = median_secs(REPS, || sys::queue_cycle(ROUNDS).map(drop))?;
    p.push("server.queue_ops_per_s", "1/s", ROUNDS as f64 / t);
    Ok(())
}
