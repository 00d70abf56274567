//! The end-to-end metrics: names, units, directions and bounds. The
//! same table is written into every result row, and mirrored (without
//! `fail_share`, which is 0 and so has no relative bound) in the root
//! `BENCHMARK.json`.
//!
//! The timing bounds are wide because the sandbox is: over ten seeds
//! the quartile distance of a timing metric reached 13 % of its median
//! (memory-bound ops drift by about a tenth over minutes, whatever the
//! benchmark does), and a bound has to clear that with room to spare.
//! The counted metrics repeat to a fraction of a percent.

use crate::stats::Better;

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the old median by which the metric may worsen before
    /// `diff` calls a regression; 0 means any worsening at all.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [MetricDef; 10] = [
    def("setup_s", "s", Better::Lower, 0.25),
    def("ops_per_s", "1/s", Better::Higher, 0.25),
    def("data_gbps", "GB/s", Better::Higher, 0.25),
    def("op_p50_ms", "ms", Better::Lower, 0.25),
    def("op_p90_ms", "ms", Better::Lower, 0.25),
    def("fail_share", "share", Better::Lower, 0.0),
    def("read_amp", "B/B", Better::Lower, 0.03),
    def("write_amp", "B/B", Better::Lower, 0.03),
    def("peak_rss_mib", "MiB", Better::Lower, 0.15),
    def("stored_bytes_per_user_byte", "B/B", Better::Lower, 0.03),
];

pub fn end_to_end(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// The workloads, in the order a full measurement runs them. Why each
/// exists is in its module's header and in `BENCHMARK.json`.
pub const WORKLOADS: [&str; 5] = [
    "capture",
    "compare_sparse",
    "compare_dense",
    "store_cycle",
    "daemon_mix",
];
