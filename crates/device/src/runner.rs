//! The [`Device`] executor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::model::{TimingModel, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Backend {
    Serial,
    Threads(usize),
}

/// A data-parallel execution resource.
///
/// All kernels in the repository run through one of these. The device
/// executes index-space loops either serially or across host threads,
/// and — when constructed with a [`TimingModel`] — accrues *modeled*
/// kernel time per launch, independent of the host's wall-clock speed.
///
/// # Determinism invariant
///
/// For a fixed index space, every launch primitive produces results
/// independent of the worker count: [`Device::parallel_map`] writes
/// `f(i)` into slot `i` regardless of which thread computed it, and
/// [`Device::parallel_chunks_mut`] hands each chunk its global index.
/// Callers uphold their half by making `f` a pure function of the index
/// (or commutative, like an atomic counter or a monotonically-advancing
/// sim clock). Consequently
/// `Device::host_parallel(k)` for any `k` — including `k` larger than
/// the item count — computes byte-identical Merkle trees and identical
/// comparison/batch reports to [`Device::host_serial`]. The batch
/// scheduler in `reprocmp-core` leans on this: it makes every
/// cache/dedup decision in a serial planning pass and uses these
/// primitives only for execution, so shard count can never perturb a
/// report. The `concurrency determinism` stress tests in the workspace
/// root pin this contract for k ∈ {1, 2, 8, 17}.
#[derive(Debug, Clone)]
pub struct Device {
    name: &'static str,
    backend: Backend,
    model: Option<TimingModel>,
    modeled_ns: Arc<AtomicU64>,
}

impl Device {
    /// A strictly serial executor with no timing model.
    #[must_use]
    pub fn host_serial() -> Self {
        Device {
            name: "host-serial",
            backend: Backend::Serial,
            model: None,
            modeled_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A host thread-parallel executor with `threads` workers and no
    /// timing model. `threads` is clamped to at least 1.
    #[must_use]
    pub fn host_parallel(threads: usize) -> Self {
        Device {
            name: "host-parallel",
            backend: Backend::Threads(threads.max(1)),
            model: None,
            modeled_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A host-parallel executor sized to the machine.
    #[must_use]
    pub fn host_auto() -> Self {
        let n = std::thread::available_parallelism().map_or(4, |n| n.get());
        Device::host_parallel(n)
    }

    /// The simulated A100: work executes on host threads, modeled time
    /// accrues per the [`TimingModel::gpu_a100`] roofline.
    #[must_use]
    pub fn sim_gpu() -> Self {
        let n = std::thread::available_parallelism().map_or(4, |n| n.get());
        Device {
            name: "sim-gpu",
            backend: Backend::Threads(n),
            model: Some(TimingModel::gpu_a100()),
            modeled_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The modeled single-core CPU reference used by Figure 8.
    #[must_use]
    pub fn sim_cpu_core() -> Self {
        Device {
            name: "sim-cpu-core",
            backend: Backend::Serial,
            model: Some(TimingModel::cpu_single_core()),
            modeled_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Human-readable backend name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The number of concurrent lanes: 1 for serial, the worker count for
    /// threaded backends. The Merkle BFS uses this to pick its starting
    /// level ("the level whose width exceeds the number of concurrent
    /// threads").
    #[must_use]
    pub fn lanes(&self) -> usize {
        match self.backend {
            Backend::Serial => 1,
            Backend::Threads(n) => n,
        }
    }

    /// For the simulated GPU the paper's comparisons start the BFS where
    /// the tree level has at least this many nodes; a real A100 runs tens
    /// of thousands of threads.
    #[must_use]
    pub fn concurrent_kernel_threads(&self) -> usize {
        if self.model.is_some() && matches!(self.backend, Backend::Threads(_)) {
            // A100-class occupancy.
            65_536
        } else {
            self.lanes()
        }
    }

    /// Total modeled kernel time accrued so far (zero for model-less
    /// devices).
    #[must_use]
    pub fn modeled_time(&self) -> Duration {
        Duration::from_nanos(self.modeled_ns.load(Ordering::Relaxed))
    }

    /// Resets the modeled-time accumulator.
    pub fn reset_modeled_time(&self) {
        self.modeled_ns.store(0, Ordering::Relaxed);
    }

    /// Charges one kernel launch of `w` against the model and returns
    /// the modeled time it added ([`Duration::ZERO`] for model-less
    /// devices). Every launch primitive below charges this way.
    pub fn charge(&self, w: Workload) -> Duration {
        let t = self.model.map_or(Duration::ZERO, |m| m.kernel_time(w));
        self.modeled_ns
            .fetch_add(t.as_nanos() as u64, Ordering::Relaxed);
        t
    }

    /// Executes `f(i)` for every `i in 0..n`, in parallel when the
    /// backend allows, charging `workload` once against the model.
    pub fn parallel_for<F>(&self, n: usize, workload: Workload, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.charge(workload);
        match self.backend {
            Backend::Serial => {
                for i in 0..n {
                    f(i);
                }
            }
            Backend::Threads(t) => {
                if n == 0 {
                    return;
                }
                let workers = t.min(n);
                let chunk = n.div_ceil(workers);
                std::thread::scope(|scope| {
                    for w in 0..workers {
                        let f = &f;
                        let lo = w * chunk;
                        let hi = ((w + 1) * chunk).min(n);
                        scope.spawn(move || {
                            for i in lo..hi {
                                f(i);
                            }
                        });
                    }
                });
            }
        }
    }

    /// Maps `f` over `0..n` collecting results in index order.
    pub fn parallel_map<T, F>(&self, n: usize, workload: Workload, f: F) -> Vec<T>
    where
        T: Send + Default + Clone,
        F: Fn(usize) -> T + Sync,
    {
        self.charge(workload);
        let mut out = vec![T::default(); n];
        match self.backend {
            Backend::Serial => {
                for (i, slot) in out.iter_mut().enumerate() {
                    *slot = f(i);
                }
            }
            Backend::Threads(t) => {
                if n == 0 {
                    return out;
                }
                let workers = t.min(n);
                let chunk = n.div_ceil(workers);
                std::thread::scope(|scope| {
                    for (w, span) in out.chunks_mut(chunk).enumerate() {
                        let f = &f;
                        let base = w * chunk;
                        scope.spawn(move || {
                            for (j, slot) in span.iter_mut().enumerate() {
                                *slot = f(base + j);
                            }
                        });
                    }
                });
            }
        }
        out
    }

    /// Applies `f(chunk_index, chunk)` to consecutive `chunk_len`-sized
    /// pieces of `data`, in parallel. The final chunk may be short. A
    /// single piece runs on the calling thread, so a caller sizes pieces
    /// to decide what is worth a thread.
    pub fn parallel_chunks_mut<T, F>(
        &self,
        data: &mut [T],
        chunk_len: usize,
        workload: Workload,
        f: F,
    ) where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        self.charge(workload);
        let single = data.len() <= chunk_len;
        match self.backend {
            _ if single => {
                if !data.is_empty() {
                    f(0, data);
                }
            }
            Backend::Serial => {
                for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                    f(i, chunk);
                }
            }
            Backend::Threads(_) => {
                std::thread::scope(|scope| {
                    // One task per worker, striding over chunks, to bound
                    // spawn count.
                    let n_chunks = data.len().div_ceil(chunk_len);
                    let workers = self.lanes().min(n_chunks.max(1));
                    let chunks: Vec<(usize, &mut [T])> =
                        data.chunks_mut(chunk_len).enumerate().collect();
                    let per = chunks.len().div_ceil(workers.max(1)).max(1);
                    let mut iter = chunks.into_iter();
                    for _ in 0..workers {
                        let batch: Vec<(usize, &mut [T])> = iter.by_ref().take(per).collect();
                        let f = &f;
                        scope.spawn(move || {
                            for (i, chunk) in batch {
                                f(i, chunk);
                            }
                        });
                    }
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn serial_and_parallel_agree() {
        let n = 10_000;
        for dev in [Device::host_serial(), Device::host_parallel(7)] {
            let hits = AtomicUsize::new(0);
            dev.parallel_for(n, Workload::new(0, n as u64), |_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), n);
        }
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let dev = Device::host_parallel(5);
        let out = dev.parallel_map(100, Workload::new(0, 100), |i| i * 3);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn parallel_chunks_mut_touches_every_element_once() {
        let dev = Device::host_parallel(4);
        let mut data = vec![0u32; 1003];
        dev.parallel_chunks_mut(&mut data, 64, Workload::memory(1003 * 4), |_, chunk| {
            for v in chunk {
                *v += 1;
            }
        });
        assert!(data.iter().all(|&v| v == 1));
    }

    #[test]
    fn chunk_indices_are_global() {
        let dev = Device::host_parallel(3);
        let mut data = vec![0usize; 300];
        dev.parallel_chunks_mut(&mut data, 50, Workload::memory(0), |ci, chunk| {
            for v in chunk {
                *v = ci;
            }
        });
        assert_eq!(data[0], 0);
        assert_eq!(data[149], 2);
        assert_eq!(data[299], 5);
    }

    #[test]
    fn modeled_time_accrues_only_with_model() {
        let plain = Device::host_parallel(2);
        plain.parallel_for(10, Workload::memory(1 << 30), |_| {});
        assert_eq!(plain.modeled_time(), Duration::ZERO);

        let gpu = Device::sim_gpu();
        gpu.parallel_for(10, Workload::memory(1 << 30), |_| {});
        assert!(gpu.modeled_time() > Duration::ZERO);
        gpu.reset_modeled_time();
        assert_eq!(gpu.modeled_time(), Duration::ZERO);
    }

    #[test]
    fn clones_share_the_accumulator() {
        let gpu = Device::sim_gpu();
        let clone = gpu.clone();
        clone.parallel_for(1, Workload::memory(1 << 20), |_| {});
        assert_eq!(gpu.modeled_time(), clone.modeled_time());
        assert!(gpu.modeled_time() > Duration::ZERO);
    }

    #[test]
    fn lanes_reflect_backend() {
        assert_eq!(Device::host_serial().lanes(), 1);
        assert_eq!(Device::host_parallel(9).lanes(), 9);
        assert!(Device::sim_gpu().concurrent_kernel_threads() >= 65_536);
    }

    #[test]
    fn zero_iterations_is_a_no_op() {
        let dev = Device::host_parallel(4);
        dev.parallel_for(0, Workload::new(0, 0), |_| panic!("must not run"));
    }

    #[test]
    fn single_iteration_and_single_worker() {
        let dev = Device::host_parallel(1);
        let out = dev.parallel_map(1, Workload::new(0, 1), |i| i + 41);
        assert_eq!(out, vec![41]);
    }

    #[test]
    fn more_workers_than_items() {
        let dev = Device::host_parallel(64);
        let out = dev.parallel_map(3, Workload::new(0, 3), |i| i * 2);
        assert_eq!(out, vec![0, 2, 4]);
    }

    #[test]
    fn chunks_mut_on_empty_slice() {
        let dev = Device::host_parallel(4);
        let mut data: Vec<u32> = Vec::new();
        dev.parallel_chunks_mut(&mut data, 16, Workload::memory(0), |_, _| {
            panic!("no chunks to visit")
        });
    }

    #[test]
    fn a_single_piece_runs_on_the_calling_thread() {
        let dev = Device::host_parallel(4);
        let caller = std::thread::current().id();
        let mut data = vec![0u8; 10];
        dev.parallel_chunks_mut(&mut data, 10, Workload::memory(0), |i, piece| {
            assert_eq!((i, piece.len()), (0, 10));
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn custom_model_device() {
        let model = TimingModel {
            launch_latency: Duration::from_micros(1),
            bandwidth_bytes_per_sec: 1e9,
            ops_per_sec: 1e9,
        };
        let dev = Device {
            name: "custom",
            backend: Backend::Serial,
            model: Some(model),
            modeled_ns: Arc::new(AtomicU64::new(0)),
        };
        assert_eq!(dev.name(), "custom");
        assert_eq!(dev.lanes(), 1);
        dev.parallel_for(1, Workload::memory(1_000_000_000), |_| {});
        let t = dev.modeled_time();
        assert!((t.as_secs_f64() - 1.0).abs() < 0.01, "{t:?}");
    }

    #[test]
    fn sim_cpu_vs_sim_gpu_modeled_gap() {
        let w = Workload::new(1 << 30, 2 << 30);
        let cpu = Device::sim_cpu_core();
        let gpu = Device::sim_gpu();
        cpu.parallel_for(1, w, |_| {});
        gpu.parallel_for(1, w, |_| {});
        let ratio = cpu.modeled_time().as_secs_f64() / gpu.modeled_time().as_secs_f64();
        assert!(ratio > 100.0, "modeled CPU/GPU ratio {ratio}");
    }
}
