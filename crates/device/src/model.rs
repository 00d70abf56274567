//! Kernel cost accounting for the simulated accelerator.

use std::time::Duration;

/// Describes the resource demand of one kernel launch.
///
/// A kernel is charged for whichever resource dominates: moving `bytes`
/// through memory or retiring `ops` scalar operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Bytes read plus written by the kernel.
    pub bytes: u64,
    /// Scalar operations retired by the kernel.
    pub ops: u64,
}

impl Workload {
    /// A kernel dominated by memory traffic.
    #[must_use]
    pub fn memory(bytes: u64) -> Self {
        Workload { bytes, ops: 0 }
    }

    /// A kernel with both memory and compute demand.
    #[must_use]
    pub fn new(bytes: u64, ops: u64) -> Self {
        Workload { bytes, ops }
    }
}

/// A roofline-style timing model for a device.
///
/// Modeled kernel time is
/// `launch_latency + max(bytes / bandwidth, ops / compute_throughput)`.
/// The built-in presets are deliberately coarse — the paper's figures
/// depend on the *ratio* between the CPU and GPU presets, which this
/// model pins to the published hardware spec sheet numbers rather than
/// to whatever host executes the tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingModel {
    /// Fixed cost of launching one kernel.
    pub launch_latency: Duration,
    /// Sustainable memory bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// Sustainable scalar-operation throughput per second.
    pub ops_per_sec: f64,
}

impl TimingModel {
    /// One 2.8 GHz EPYC Milan core hashing serially: a few GB/s of memory
    /// bandwidth usable from one core and ~3e9 scalar ops/s.
    #[must_use]
    pub fn cpu_single_core() -> Self {
        TimingModel {
            launch_latency: Duration::from_nanos(50),
            bandwidth_bytes_per_sec: 8.0e9,
            ops_per_sec: 3.0e9,
        }
    }

    /// One NVIDIA A100: ~1.5 TB/s HBM2 and ~1e13 usable scalar ops/s
    /// for integer hashing kernels, 10 µs launch latency.
    #[must_use]
    pub fn gpu_a100() -> Self {
        TimingModel {
            launch_latency: Duration::from_micros(10),
            bandwidth_bytes_per_sec: 1.5e12,
            ops_per_sec: 1.0e13,
        }
    }

    /// Modeled execution time of one kernel with demand `w`.
    #[must_use]
    pub fn kernel_time(&self, w: Workload) -> Duration {
        let mem_s = w.bytes as f64 / self.bandwidth_bytes_per_sec;
        let cmp_s = w.ops as f64 / self.ops_per_sec;
        self.launch_latency + Duration::from_secs_f64(mem_s.max(cmp_s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_bound_kernel_charged_by_bandwidth() {
        let m = TimingModel {
            launch_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 1e9,
            ops_per_sec: 1e18,
        };
        let t = m.kernel_time(Workload::memory(2_000_000_000));
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_charged_by_ops() {
        let m = TimingModel {
            launch_latency: Duration::ZERO,
            bandwidth_bytes_per_sec: 1e18,
            ops_per_sec: 1e6,
        };
        let t = m.kernel_time(Workload::new(0, 3_000_000));
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn launch_latency_always_charged() {
        let m = TimingModel::gpu_a100();
        let t = m.kernel_time(Workload::new(0, 0));
        assert_eq!(t, Duration::from_micros(10));
    }

    #[test]
    fn gpu_vs_cpu_hashing_gap_is_orders_of_magnitude() {
        // The Figure 8 premise: hashing a multi-GB checkpoint is ~1e4x
        // faster on an A100 than on one CPU core.
        let w = Workload::new(7_000_000_000, 14_000_000_000);
        let cpu = TimingModel::cpu_single_core().kernel_time(w);
        let gpu = TimingModel::gpu_a100().kernel_time(w);
        let ratio = cpu.as_secs_f64() / gpu.as_secs_f64();
        assert!(ratio > 500.0, "ratio {ratio} too small");
    }
}
