//! The parallel-file-system cost model.
//!
//! The model charges four things, which together produce every I/O
//! trade-off the paper's evaluation turns on:
//!
//! * `submit_latency` — CPU/syscall cost per operation. io_uring's win
//!   over classic read() comes partly from batching submissions; we keep
//!   this term small and identical across backends (the async batch
//!   amortizes it further, one submission per `depth` operations).
//! * `seek_latency` — device-side latency for a *discontiguous* access.
//!   This is what makes scattered chunk reads so much more expensive
//!   per byte than one large sequential read.
//! * `rpc_latency` — the smaller per-operation server round-trip that
//!   even a *contiguous continuation* read pays on a parallel file
//!   system (every request is still an RPC to the storage servers).
//!   This is why reading a contiguous region as many 4 KiB requests is
//!   slower than reading it as few 512 KiB requests — the paper's
//!   chunk-size trade-off at tight error bounds.
//! * `bandwidth_bytes_per_sec` — streaming bandwidth once positioned.
//! * `queue_depth` — how many in-flight operations the device services
//!   concurrently. Asynchronous backends divide their aggregate seek
//!   cost by this factor; synchronous backends (mmap page faulting)
//!   cannot.

use std::time::Duration;

/// Cost parameters of one storage device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Host-side cost of submitting one I/O operation.
    pub submit_latency: Duration,
    /// Device-side latency of one discontiguous access.
    pub seek_latency: Duration,
    /// Server round-trip paid by every request, even contiguous ones.
    pub rpc_latency: Duration,
    /// Streaming bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Operations the device overlaps when driven asynchronously.
    pub queue_depth: usize,
}

/// One I/O request: `(offset, length_in_bytes)`.
pub type OpSpec = (u64, usize);

impl CostModel {
    /// A Lustre-like parallel file system reachable from one node:
    /// high bandwidth, painful seek latency, deep queues.
    #[must_use]
    pub fn lustre_pfs() -> Self {
        CostModel {
            submit_latency: Duration::from_micros(2),
            seek_latency: Duration::from_micros(300),
            rpc_latency: Duration::from_micros(60),
            bandwidth_bytes_per_sec: 5.0e9,
            queue_depth: 64,
        }
    }

    /// An instantaneous device for tests that only care about data flow.
    #[must_use]
    pub fn free() -> Self {
        CostModel {
            submit_latency: Duration::ZERO,
            seek_latency: Duration::ZERO,
            rpc_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: f64::INFINITY,
            queue_depth: usize::MAX,
        }
    }

    fn transfer_time(&self, bytes: u64) -> Duration {
        if self.bandwidth_bytes_per_sec.is_infinite() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
        }
    }

    /// Counts the seeks in a batch: an op pays a seek unless it starts
    /// exactly where the previous op ended.
    #[must_use]
    pub(crate) fn count_seeks(ops: &[OpSpec]) -> usize {
        let mut seeks = 0;
        let mut pos: Option<u64> = None;
        for &(offset, len) in ops {
            if pos != Some(offset) {
                seeks += 1;
            }
            pos = Some(offset + len as u64);
        }
        seeks
    }

    /// Modeled time for a batch of operations issued *synchronously*,
    /// one after another (the mmap / blocking-read pattern): every
    /// positioning cost and every byte is serialized.
    #[must_use]
    pub fn sync_batch_time(&self, ops: &[OpSpec]) -> Duration {
        let bytes: u64 = ops.iter().map(|&(_, len)| len as u64).sum();
        let seeks = Self::count_seeks(ops) as u32;
        let contiguous = ops.len() as u32 - seeks;
        self.submit_latency * ops.len() as u32
            + self.seek_latency * seeks
            + self.rpc_latency * contiguous
            + self.transfer_time(bytes)
    }

    /// Modeled time for a batch issued *asynchronously* with up to
    /// `depth` in-flight operations (the io_uring pattern): seeks overlap
    /// across the queue, bandwidth is still shared.
    #[must_use]
    pub fn async_batch_time(&self, ops: &[OpSpec], depth: usize) -> Duration {
        if ops.is_empty() {
            return Duration::ZERO;
        }
        let depth = depth.clamp(1, self.queue_depth.max(1));
        let bytes: u64 = ops.iter().map(|&(_, len)| len as u64).sum();
        let seeks = Self::count_seeks(ops);
        let contiguous = ops.len() - seeks;
        // Positioning (seeks + per-request RPCs) is pipelined
        // `depth`-wide; transfers share the device bandwidth;
        // submissions are batched from the host in one ring doorbell
        // per `depth` entries.
        let positioning = self.seek_latency.mul_f64(seeks as f64 / depth as f64)
            + self.rpc_latency.mul_f64(contiguous as f64 / depth as f64);
        let submit_time = self
            .submit_latency
            .mul_f64((ops.len() as f64 / depth as f64).max(1.0));
        let transfer = self.transfer_time(bytes);
        // The device is busy for whichever dominates: positioning or
        // streaming; host submission adds on top.
        submit_time + std::cmp::max(positioning, transfer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> CostModel {
        CostModel {
            submit_latency: Duration::from_micros(1),
            seek_latency: Duration::from_micros(100),
            rpc_latency: Duration::from_micros(10),
            bandwidth_bytes_per_sec: 1.0e9,
            queue_depth: 10,
        }
    }

    #[test]
    fn contiguous_ops_pay_one_seek() {
        let ops = [(0u64, 4096usize), (4096, 4096), (8192, 4096)];
        assert_eq!(CostModel::count_seeks(&ops), 1);
        let scattered = [(0u64, 4096usize), (100_000, 4096), (50_000, 4096)];
        assert_eq!(CostModel::count_seeks(&scattered), 3);
    }

    #[test]
    fn sync_scattered_much_slower_than_sequential_same_bytes() {
        let m = toy();
        let scattered: Vec<OpSpec> = (0..100).map(|i| (i * 1_000_000, 4096)).collect();
        let total: u64 = 100 * 4096;
        let t_scattered = m.sync_batch_time(&scattered);
        let t_seq = m.sync_batch_time(&[(0, total as usize)]);
        assert!(
            t_scattered > t_seq * 10,
            "scattered {t_scattered:?} vs sequential {t_seq:?}"
        );
    }

    #[test]
    fn async_amortizes_seeks_by_queue_depth() {
        let m = toy();
        let scattered: Vec<OpSpec> = (0..100).map(|i| (i * 1_000_000, 4096)).collect();
        let sync = m.sync_batch_time(&scattered);
        let asyn = m.async_batch_time(&scattered, 10);
        // 100 seeks vs 100/10 pipelined seeks dominate both.
        let ratio = sync.as_secs_f64() / asyn.as_secs_f64();
        assert!(ratio > 3.0, "async speedup only {ratio}");
    }

    #[test]
    fn async_depth_clamped_to_model_queue_depth() {
        let m = toy();
        let ops: Vec<OpSpec> = (0..50).map(|i| (i * 1_000_000, 4096)).collect();
        let t_big = m.async_batch_time(&ops, 1_000_000);
        let t_qd = m.async_batch_time(&ops, m.queue_depth);
        assert_eq!(t_big, t_qd);
    }

    #[test]
    fn bandwidth_bounds_large_async_transfers() {
        let m = toy();
        // One giant op: seek negligible, transfer dominates.
        let ops = [(0u64, 1_000_000_000usize)];
        let t = m.async_batch_time(&ops, 10);
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "{t:?}");
    }

    #[test]
    fn free_model_is_instant() {
        let m = CostModel::free();
        let ops: Vec<OpSpec> = (0..1000).map(|i| (i * 7919, 4096)).collect();
        assert_eq!(m.sync_batch_time(&ops), Duration::ZERO);
        assert_eq!(m.async_batch_time(&ops, 4), Duration::ZERO);
    }

    #[test]
    fn empty_batches_cost_nothing() {
        let m = toy();
        assert_eq!(m.sync_batch_time(&[]), Duration::ZERO);
        assert_eq!(m.async_batch_time(&[], 8), Duration::ZERO);
    }

    #[test]
    fn larger_chunks_amortize_seeks_per_byte() {
        // The Figure 5 trade-off: per-byte cost of scattered reads drops
        // as chunk size grows.
        let m = CostModel::lustre_pfs();
        let small: Vec<OpSpec> = (0..256).map(|i| (i * 1_000_000, 4 * 1024)).collect();
        let large: Vec<OpSpec> = (0..2).map(|i| (i * 600_000_000, 512 * 1024)).collect();
        let b_small: u64 = small.iter().map(|&(_, l)| l as u64).sum();
        let b_large: u64 = large.iter().map(|&(_, l)| l as u64).sum();
        let per_byte_small = m.async_batch_time(&small, 64).as_secs_f64() / b_small as f64;
        let per_byte_large = m.async_batch_time(&large, 64).as_secs_f64() / b_large as f64;
        assert!(per_byte_small > per_byte_large * 2.0);
    }
}
