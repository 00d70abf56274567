//! Ablation study — each design principle of §2.1, removed one at a
//! time, measured on the same workload. Quantifies *why* the design
//! choices DESIGN.md calls out are there:
//!
//! 1. **BFS start level** — root vs middle vs leaves (§2.5.1 says
//!    starting mid-tree keeps lanes busy; starting at the leaves
//!    degenerates to a full scan with no pruning above).
//! 2. **Asynchronous scattered I/O** — io_uring-style rings vs
//!    synchronous blocking reads in stage two.
//! 3. **Double buffering** — 1 vs 2 vs 4 pipeline buffers.
//! 4. **Queue depth** — 1 … 256 in-flight ops.
//!
//! Every row above is modeled. [`block_size`] is the one wall-clock
//! ablation, kept in its own measured file: hash block chaining
//! granularity, 16 B (the paper's 128-bit blocks) vs larger blocks.

use reprocmp_bench::{
    fmt_dur, modeled_sources, striped_sources, DivergenceSpec, DivergentPair, Recorder,
};
use reprocmp_core::{CompareEngine, EngineConfig};
use reprocmp_device::Device;
use reprocmp_hash::{ChunkHasher, Quantizer};
use reprocmp_io::pipeline::{BackendKind, PipelineConfig};
use reprocmp_io::CostModel;
use reprocmp_merkle::{compare_trees, MerkleTree};
use std::time::{Duration, Instant};

pub fn run() -> String {
    let mut rec = Recorder::new();
    let pair = DivergentPair::generate(4 << 20, DivergenceSpec::hacc_like(), 0xab1a7e);
    let model = CostModel::lustre_pfs();

    println!("=== Ablation 1: BFS start level (nodes visited; mid-tree is the paper's choice) ===");
    let hasher = ChunkHasher::new(Quantizer::new(1e-6).unwrap());
    let dev = Device::host_auto();
    let ta = MerkleTree::build_from_f32(&pair.run1, 16 << 10, &hasher, &dev);
    let tb = MerkleTree::build_from_f32(&pair.run2, 16 << 10, &hasher, &dev);
    for (label, lanes) in [
        ("root (lanes=1)", 1usize),
        ("middle (lanes=64)", 64),
        ("middle (lanes=4096)", 4096),
        ("leaves (lanes=max)", usize::MAX / 2),
    ] {
        let t0 = Instant::now();
        let out = compare_trees(&ta, &tb, &dev, lanes).unwrap();
        let wall = t0.elapsed();
        println!(
            "  {label:<22} visited {:>6} nodes, pruned {:>5} subtrees, {:>5} mismatched leaves, {}",
            out.nodes_visited,
            out.pruned_subtrees,
            out.mismatched_leaves.len(),
            fmt_dur(wall),
        );
        rec.push(
            "ablate-bfs",
            &[("start", label.into())],
            "nodes_visited",
            out.nodes_visited as f64,
        );
    }

    // Ablations 2–4c change one knob of the same modeled compare
    // (ε = 1e-6, 16K chunks); `osts` 0 is the flat simulated PFS.
    let run = |io: PipelineConfig, osts: usize| {
        let engine = CompareEngine::new(EngineConfig {
            chunk_bytes: 16 << 10,
            error_bound: 1e-6,
            io,
            ..EngineConfig::default()
        });
        let (a, b, ctx, _) = if osts == 0 {
            modeled_sources(&pair, &engine, model)
        } else {
            striped_sources(&pair, &engine, model, 1 << 20, osts)
        };
        engine.compare(&a, &b, &ctx).unwrap().breakdown.total()
    };
    let mut record = |experiment: &str, param: (&str, String), t: Duration| {
        println!("  {} {:<20}: {}", param.0, param.1, fmt_dur(t));
        rec.push(experiment, &[param], "total_secs", t.as_secs_f64());
    };
    let base = PipelineConfig::default();

    println!("\n=== Ablation 2: stage-two I/O strategy (modeled time, ε = 1e-6, 16K chunks) ===");
    let t_uring = run(base, 0);
    for (label, backend) in [
        ("uring", BackendKind::Uring),
        ("mmap", BackendKind::Mmap),
        ("blocking", BackendKind::Blocking),
    ] {
        let t = run(PipelineConfig { backend, ..base }, 0);
        record("ablate-io", ("backend", label.into()), t);
        assert!(t_uring <= t, "{label} must not beat uring rings");
    }

    println!("\n=== Ablation 3: pipeline buffer pool (1 = no overlap, 2 = double buffering) ===");
    for buffers in [1usize, 2, 4] {
        let t = run(PipelineConfig { buffers, ..base }, 0);
        record("ablate-buffers", ("buffers", buffers.to_string()), t);
    }
    println!("  (the virtual clock charges device time, not host stalls, so buffer");
    println!("   count shows up in wall clock — see the stream_pipeline Criterion bench)");

    println!("\n=== Ablation 4: ring queue depth ===");
    let mut prev = Duration::MAX;
    for depth in [1usize, 4, 16, 64, 256] {
        let t = run(
            PipelineConfig {
                queue_depth: depth,
                ..base
            },
            0,
        );
        record("ablate-qd", ("depth", depth.to_string()), t);
        assert!(t <= prev, "deeper queues must not be slower (qd {depth})");
        prev = t;
    }

    println!("\n=== Ablation 4c: file striping over OSTs (modeled, ε = 1e-6, 16K chunks) ===");
    for osts in [1usize, 2, 4, 8] {
        record(
            "ablate-stripes",
            ("osts", osts.to_string()),
            run(base, osts),
        );
    }
    rec.into_json()
}

/// Hash chaining block size, timed on the host.
pub fn block_size() -> String {
    let mut rec = Recorder::new();

    println!("=== Ablation 5: hash chaining block size (wall clock, one 512 KiB chunk) ===");
    let chunk = vec![1.5f32; (512 << 10) / 4];
    let q = Quantizer::new(1e-5).unwrap();
    for block in [16usize, 64, 256, 1024] {
        let h = ChunkHasher::with_block_bytes(q, block);
        let t0 = Instant::now();
        let reps = 20;
        for _ in 0..reps {
            std::hint::black_box(h.hash_chunk(&chunk));
        }
        let per = t0.elapsed() / reps;
        let gbps = (chunk.len() * 4) as f64 / per.as_secs_f64() / 1e9;
        println!(
            "  {block:>4} B blocks: {} per chunk ({gbps:.2} GB/s)",
            fmt_dur(per)
        );
        rec.push(
            "ablate-block",
            &[("block", block.to_string())],
            "gbps",
            gbps,
        );
    }
    println!("\n(16 B chaining is the paper's fidelity point; larger blocks trade");
    println!(" chain length for per-call throughput — same digests-within-config,");
    println!(" different format.)");
    rec.into_json()
}
