//! One run of one workload: untraced for the end-to-end metrics, traced
//! for the per-layer ones.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::layers;
use crate::stats::{median, percentile};
use crate::surface::Res;
use crate::trace::Tracer;
use crate::workloads::{Limit, Mode, Window, Workload, MIN_OPS};

/// Set-up is repeated and its median reported: one set-up is a single
/// sample of mostly page-cache writes, too noisy to put a bound on. A
/// short set-up (`store_cycle`'s takes 15 ms) is noisier still, so it
/// is repeated until the repetitions add up to [`SETUP_MIN_SECS`].
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 25;
const SETUP_MIN_SECS: f64 = 0.5;

/// Slices of the window whose median rate is reported.
const RATE_SLICES: usize = 5;

/// Layers a replay span can be filed under; `bench` is the replay's own
/// glue between spans.
pub const REPLAY_LAYERS: [&str; 8] = [
    "cli", "veloc", "core", "merkle", "io", "store", "server", "bench",
];

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            value,
        }
    }
}

/// What one run reports.
#[derive(Debug, Clone, Default)]
pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Ops behind the latency percentiles.
    pub samples: usize,
    pub object_bytes: u64,
    /// Lines worth a human's attention (model-vs-wall warnings).
    pub notes: Vec<String>,
}

impl RunOutput {
    fn count(&mut self, attempted: u64, failed: u64, first_failure: &Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        if self.first_failure.is_none() {
            self.first_failure.clone_from(first_failure);
        }
    }

    fn absorb(&mut self, win: &Window) {
        self.count(win.attempted, win.failed, &win.first_failure);
    }
}

fn work_dir(cfg: &RunConfig, name: &str) -> PathBuf {
    cfg.out_dir.join("work").join(name)
}

fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Set-up (repeated when `timed`), oracle, one warm-up cycle. Returns
/// the workload and the set-up times in seconds.
fn prepare<W: Workload>(cfg: &RunConfig, dir: &Path, timed: bool) -> Res<(W, Vec<f64>)> {
    let mut times: Vec<f64> = Vec::new();
    let mut workload = loop {
        let t0 = Instant::now();
        let built = W::setup(cfg.seed, dir)?;
        times.push(t0.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_MIN_REPS
            && (times.iter().sum::<f64>() >= SETUP_MIN_SECS || times.len() >= SETUP_MAX_REPS);
        if enough || !timed {
            break built;
        }
        built.teardown()?;
    };
    workload.oracle()?;
    let warm = workload.window(Limit::Cycles(1), Mode::Measure);
    if let Some(e) = warm.first_failure {
        workload.teardown()?;
        return Err(format!("warm-up failed: {e}"));
    }
    Ok((workload, times))
}

pub fn run_untraced<W: Workload>(cfg: &RunConfig) -> Res<RunOutput> {
    let dir = work_dir(cfg, W::NAME);
    let (mut w, setups) = prepare::<W>(cfg, &dir, true)?;
    let win = w.window(
        Limit::Seconds {
            seconds: cfg.seconds,
            min_ops: MIN_OPS,
        },
        Mode::Measure,
    );
    let stored = w.stored_bytes_per_user_byte();
    let object_bytes = w.object_bytes();
    w.teardown()?;
    remove_dir(&dir);

    let user = win.user_bytes().max(1) as f64;
    let latencies = win.latencies_ms();
    let (ops_per_s, bytes_per_s) = slice_rates(&win);
    let mut out = RunOutput {
        samples: latencies.len(),
        object_bytes,
        ..RunOutput::default()
    };
    out.absorb(&win);
    let m = |name: &str, value: f64| {
        let def = crate::metrics::end_to_end(name).expect("metric is in the table");
        Metric::new(name, def.unit, value)
    };
    out.metrics = vec![
        m("setup_s", median(&setups)),
        m("ops_per_s", ops_per_s),
        m("data_gbps", bytes_per_s / 1e9),
        m("op_p50_ms", percentile(&latencies, 0.50)),
        m("op_p90_ms", percentile(&latencies, 0.90)),
        m(
            "fail_share",
            win.failed as f64 / win.attempted.max(1) as f64,
        ),
        m("read_amp", win.io.rchar as f64 / user),
        m("write_amp", win.io.wchar as f64 / user),
        m("peak_rss_mib", median(&win.peak_rss_mib)),
        m("stored_bytes_per_user_byte", stored),
    ];
    Ok(out)
}

/// Ops and user bytes completed per second: the window is cut into
/// [`RATE_SLICES`] equal slices and the median slice rate reported, so
/// one stall of the sandbox costs one slice, not the run.
fn slice_rates(win: &Window) -> (f64, f64) {
    let slice = win.wall.as_secs_f64() / RATE_SLICES as f64;
    let mut ops = [0.0f64; RATE_SLICES];
    let mut bytes = [0.0f64; RATE_SLICES];
    for op in &win.ops {
        let i = ((op.done_s / slice) as usize).min(RATE_SLICES - 1);
        ops[i] += 1.0;
        bytes[i] += op.user_bytes as f64;
    }
    (median(&ops) / slice, median(&bytes) / slice)
}

/// The traced run. A third of the window runs ops with no spans, the
/// rest runs each op under a span followed by its replay under spans;
/// the gap between the two op medians is the tracing overhead. Then the
/// layer probes run. Writes `trace-<workload>.json`.
pub fn run_traced<W: Workload>(cfg: &RunConfig) -> Res<RunOutput> {
    let dir = work_dir(cfg, W::NAME);
    let (mut w, _) = prepare::<W>(cfg, &dir, false)?;
    let seconds = |share: f64| Limit::Seconds {
        seconds: cfg.seconds * share,
        min_ops: 0,
    };
    let plain = w.window(seconds(1.0 / 3.0), Mode::Plain);
    let mut tracer = Tracer::new();
    let traced = w.window(seconds(2.0 / 3.0), Mode::Traced(&mut tracer));
    let object_bytes = w.object_bytes();
    w.teardown()?;
    remove_dir(&dir);

    let mut out = RunOutput {
        samples: traced.ops.len(),
        object_bytes,
        ..RunOutput::default()
    };
    out.absorb(&plain);
    out.absorb(&traced);

    let (op_total, ops) = tracer.root_total("op");
    let (replay_total, _) = tracer.root_total("replay");
    let per_op_ms = |d: std::time::Duration| d.as_secs_f64() * 1e3 / ops.max(1) as f64;
    let layers_ms = tracer.layer_self_times("replay");
    for layer in REPLAY_LAYERS {
        // The replay root's own self time is the glue between calls.
        let key = if layer == "bench" { "replay" } else { layer };
        let ms = layers_ms.get(key).copied().map_or(0.0, per_op_ms);
        out.metrics
            .push(Metric::new(format!("replay.{layer}_ms"), "ms", ms));
    }
    let op_ms = per_op_ms(op_total);
    out.metrics.push(Metric::new("replay.op_ms", "ms", op_ms));
    out.metrics.push(Metric::new(
        "bench.unattributed_share",
        "share",
        (op_ms - per_op_ms(replay_total)) / op_ms,
    ));
    let (p50_plain, p50_traced) = (
        percentile(&plain.latencies_ms(), 0.5),
        percentile(&traced.latencies_ms(), 0.5),
    );
    out.metrics.push(Metric::new(
        "bench.trace_overhead_share",
        "share",
        (p50_traced - p50_plain) / p50_plain,
    ));

    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| e.to_string())?;
    let trace_path = cfg.out_dir.join(format!("trace-{}.json", W::NAME));
    std::fs::write(&trace_path, tracer.chrome_json()).map_err(|e| e.to_string())?;

    let probes = layers::probe_all(cfg, &work_dir(cfg, &format!("{}-probes", W::NAME)))?;
    out.count(probes.attempted, probes.failed, &probes.first_failure);
    out.metrics.extend(probes.metrics);
    out.notes.extend(probes.notes);
    Ok(out)
}
