//! Why the paper bothers with io_uring: scattered chunk verification
//! is an adversarial I/O pattern, and the backend choice decides
//! whether the Merkle method's savings survive contact with the file
//! system. This example reproduces the Figure 9 experiment shape on
//! the simulated PFS: the same scattered read set through the
//! uring-style rings, the mmap-style page-faulting path, and naive
//! blocking reads — reporting deterministic modeled times.
//!
//! ```sh
//! cargo run --example io_backend_tuning
//! ```

use reprocmp::io::cost::OpSpec;
use reprocmp::io::pipeline::{read_all, BackendKind, PipelineConfig};
use reprocmp::io::{CostModel, MemStorage};
use std::sync::Arc;

fn main() {
    // A 64 MiB "checkpoint" on the simulated Lustre PFS.
    let file_len = 64 << 20;
    let data = vec![0u8; file_len];

    // 2% of chunks flagged, scattered across the file — the stage-two
    // read pattern under a tight error bound.
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>9}",
        "chunk", "uring", "mmap", "blocking", "mmap/uring"
    );
    for chunk in [4 * 1024, 8 * 1024, 16 * 1024] {
        let n_chunks = file_len / chunk;
        let flagged: Vec<OpSpec> = (0..n_chunks)
            .filter(|i| i % 50 == 7)
            .map(|i| ((i * chunk) as u64, chunk))
            .collect();

        let modeled = |backend: BackendKind| {
            let storage = MemStorage::with_model(data.clone(), CostModel::lustre_pfs());
            let clock = storage.clock();
            let cfg = PipelineConfig {
                backend,
                slice_bytes: 8 << 20,
                queue_depth: 64,
                buffers: 2,
                ..PipelineConfig::default()
            };
            read_all(Arc::new(storage), &flagged, cfg).expect("stream");
            clock.now()
        };

        let t_uring = modeled(BackendKind::Uring);
        let t_mmap = modeled(BackendKind::Mmap);
        let t_block = modeled(BackendKind::Blocking);
        println!(
            "{:>8}KB {:>10.2?} {:>10.2?} {:>10.2?} {:>8.1}x",
            chunk / 1024,
            t_uring,
            t_mmap,
            t_block,
            t_mmap.as_secs_f64() / t_uring.as_secs_f64()
        );
        assert!(t_uring < t_mmap, "uring must beat mmap on scattered reads");
    }

    println!("\nOK: asynchronous batched submission amortizes seek latency across");
    println!("the queue depth; synchronous page faults cannot (the paper's Fig. 9).");
}
